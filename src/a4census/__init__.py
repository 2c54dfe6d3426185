"""Census of auxiliary primes for a quartic A4 field of conductor ell^2.

The package builds the cyclic cubic field inside Q(zeta_ell) and the
totally real quartic field with alternating Galois closure ramified only
at ell, verifies their class and unit data, and classifies auxiliary
primes v by the splitting of a degree-3 prime in two exponent-3 ray
class quotients.  Checkpoint counts reproduce the published density
tables exactly; the statistics layer tests the 2/3, 1/3, 2/9 and
(p-1)/p equidistribution hypotheses.
"""

from .census import (
    CensusRow,
    ConductorData,
    DiagonalReport,
    PrimeClassification,
    ScanRow,
    VerificationError,
    classify_prime,
    diagonal_check,
    fast_classify,
    load_conductor,
    run_census,
    scan_conductors,
)
from .cohomology import (
    LineModel,
    LocalDatum,
    balanced_preset,
    local_dims_preset,
    simulate_line_model,
    simulate_unramified_probability,
    wiles_difference,
)
from .config import Config, golden_rows, read_config, shipped_config
from .fields import FieldError, NumberField, PrimeIdeal, cubic_subfield, quartic_field_search
from .rayclass import (
    Modulus,
    artin_vector,
    modulus_stability_check,
    ray_class_3_quotient,
    ray_presentation,
)
from .stats import (
    DensityReport,
    binomial_z,
    census_csv,
    density_report,
    deviation_metric,
    format_ratio,
    independence_chi2,
    read_census_csv,
    render_report,
    render_table,
)

__version__ = "0.1.0"

__all__ = [
    "CensusRow",
    "Config",
    "ConductorData",
    "DensityReport",
    "DiagonalReport",
    "FieldError",
    "LineModel",
    "LocalDatum",
    "Modulus",
    "NumberField",
    "PrimeClassification",
    "PrimeIdeal",
    "ScanRow",
    "VerificationError",
    "artin_vector",
    "balanced_preset",
    "binomial_z",
    "census_csv",
    "classify_prime",
    "cubic_subfield",
    "density_report",
    "deviation_metric",
    "diagonal_check",
    "fast_classify",
    "format_ratio",
    "golden_rows",
    "independence_chi2",
    "load_conductor",
    "local_dims_preset",
    "modulus_stability_check",
    "quartic_field_search",
    "ray_class_3_quotient",
    "ray_presentation",
    "read_census_csv",
    "read_config",
    "render_report",
    "render_table",
    "run_census",
    "scan_conductors",
    "shipped_config",
    "simulate_line_model",
    "simulate_unramified_probability",
    "wiles_difference",
]
