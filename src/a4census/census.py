"""Census of auxiliary primes against the quartic deformation datum.

For a conductor ell the datum is the pair (L, F): the cyclic cubic
field of conductor ell inside Q(zeta_ell), and a totally real quartic
A4-field F of discriminant ell^2.  An auxiliary prime v != ell counts
when v = 1 mod 3 and Frobenius at v acts on the roots of F with cycle
type (3,1), so v splits in F as v1 * v2 with residue degrees 3 and 1.
That is the set C^(3).  Since Gal(L/Q) = A4/V4 and the elements of
A4 outside V4 are the 3-cycles, a prime v not dividing 3 * ell * [O_F :
Z[theta]] lies in C^(3) exactly when v = 1 mod 3 and v is not a cube
mod ell (v^((ell-1)/3) != 1 mod ell); fast_classify uses this gate and
classify_prime factors v in F.  The members of C^(3) are then sorted by
two mod-3 ray class conditions on the degree-3 prime v1:

  * v lies in C^(tau-bar) when v1 becomes trivial in the fixed quotient
    Cl_{3_1^2 ell_2} (x) F_3, the Galois group of the cubic governing
    extension ramified at 3 and ell only;
  * v lies in C^(Lambda) when v1 stays nontrivial in the moving
    quotient Cl_{3_1^2 v_2} (x) F_3, a level-raising obstruction group
    recomputed for every v.

Here 3_1 is the residue-degree-3 prime of F over 3 and ell_2 the
ramified prime over ell (ell factors as ell_1 * ell_2^3).  Taking the
ramified prime is essential: the compositum of F with the cyclic cubic
resolvent field is a cubic extension of F ramified at ell_1 alone, and
any modulus admitting ell_1 would pick up that base change, in which
every degree-3 prime v1 splits for trivial reasons.  Two classifiers implement the same
contract: classify_prime builds the moving ray class group from
scratch (the reference path), fast_classify presents it on four local
coordinates and replaces factor-base columns by principality
certificates Q^m = (gamma), which is valid because the class number of
F is prime to 3.  The certificates are built and verified once, in
load_conductor.  Below the two routes there is one smooth split
(classgroup.smooth_split) over the class group's factor base.  Both
routes are deterministic; the census output is byte-identical for any
worker count because work is split into fixed segments and merged in
order.

The census (run_census) classifies a task, a run of up to TASK_SEGMENTS
consecutive segments of up to CHUNK integers each (_count_task), on two
routes.  Its primes below LANE_BOUND = 2^30, the excluded ones aside,
go through three stages, each run once over the task, since one numpy
pass costs about the same at any width: fast_classify's gate, root and
closed-form v1 in numpy int64 lanes (_c3_setup_lanes), which give every
prime an int8 status, so that no verdict object is made for a prime the
lanes take; one batched float64 LLL (linalg.lll_float_batch) over the
v1 lattices of their C3 primes, in all-swap rounds taken in lock step,
which drops finished lattices from its working arrays as it goes and
returns each transform T, certified by its determinant modulo four
primes, as an int64 array, applied in one int64 product
(_transformed); then fast_classify's split and residuals
in two lane passes.  The split lanes (_split_lanes) take the first
candidates of the split's stream, minus the rows of each certified
basis, with their cofactor norms certified modulo the same primes
(_split_totals_lanes), and settle each lattice on the first candidate
the scalar split would accept, with its valuations read off the norm.
The verdict lanes (_verdict_lanes) then take alpha's wild and ell_2
logs, the certificates' nets, the cube characters at v_2 of the units
and of alpha's net residue, and both memberships, for all the split
primes at once.  A lattice the split lanes cannot settle exactly is
deferred whole to _c3_verdict, fast_classify's own tail.  Every other
prime goes whole through fast_classify, whose _c3_setup and _c3_verdict
are also the lanes' oracles.  A transform that is not certified, a zero
character, like any other FieldError of either fast route, sends that
prime to classify_prime, the reference route, and the census counts it
as a fallback.  A lattice's transform does not depend on the rest of
its batch, so neither the verdicts nor the alpha behind them depend on
the worker count or on how segments are grouped into tasks.  A task
returns the C3 records of each of its segments; _merge_segments alone
counts them and writes the JSONL lines.
fast_classify itself reduces the HNF of v1 exactly
(classgroup._reduced_basis) before _c3_verdict.  The moving quotient's
unit rows differ between primes only in their tame column, so
load_conductor enumerates the span mod 3 of the unit rows for all
3^rank columns once (ConductorData.unit_spans); the fixed quotient
reads its entry there too, at the units' ell_2 characters, and each
membership is one set lookup (one table lookup in the verdict lanes).
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import logging
import math
import operator
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import arith, linalg
from .arith import primes_in_range
from .classgroup import (
    ClassGroupData,
    _combine,
    _reduced_basis,
    UnitData,
    class_group,
    smooth_split,
    two_rank,
    unit_group,
)
from .config import TABLE_CHECKPOINTS, cache_read, cache_write, conductor_config
from .fields import (
    FieldError,
    NumberField,
    PrimeIdeal,
    _poly_at_theta,
    cubic_subfield,
    factor_rational_prime,
    field_from_record,
    field_to_record,
    ideal_pow,
    is_a4_quartic,
    new_number_field,
    quartic_field_search,
    shanks_param,
)
from .rayclass import (
    Modulus,
    RayClass3Quotient,
    TameBlock,
    WildBlock,
    artin_vector,
    modulus_stability_check,
    ray_class_3_quotient,
)

log = logging.getLogger(__name__)

CHUNK = 8000  # primes are counted in fixed blocks so merges are order-stable
# consecutive segments per census task, at most: one numpy pass costs about
# the same at any width, so each stage runs once per task (_count_task)
TASK_SEGMENTS = 16


class VerificationError(FieldError):
    """A conductor datum failed one of the load-time checks.

    `check` is a stable tag naming the failed verification, so callers
    can tell a wrong discriminant from, say, a failed stability test.
    """

    def __init__(self, check: str, message: str):
        self.check = check
        super().__init__(message)

    def __reduce__(self):
        # a pool worker's error reaches the parent pickled, tag included
        return type(self), (self.check, str(self))


@dataclass(frozen=True)
class PrimeClassification:
    """Census verdict for one auxiliary prime.

    The ray-class memberships are only defined on C^(3), so they stay
    None for primes outside it.  `skipped` marks primes the census must
    exclude (v dividing 3, ell, or the index of F); those are counted
    in neither numerators nor denominators.
    """

    v: int
    in_C3: bool
    in_CLambda: bool = None
    in_Ctaubar: bool = None
    skipped: bool = False


@dataclass(frozen=True)
class CensusRow:
    """Cumulative counts at a checkpoint n."""

    n: int
    c3: int
    c_lambda: int
    c_taubar: int
    c_both: int
    n_classified: int  # primes <= n actually classified (skips removed)


@dataclass(frozen=True, eq=False)
class ConductorData:
    """Everything v-independent about one conductor, built and verified once.

    load_conductor is the only constructor; census pool workers receive
    this object (inherited under fork, pickled under spawn) instead of
    rebuilding it.  No field is filled later: classification only reads
    the datum, the certificates included.  In both fast quotients unit
    i's row is its wild philog followed by t_i, t the units' tame column:
    unit_l2 in the fixed quotient, the logs of their characters at v_2 in
    the moving one.  unit_spans[t] is the set of all vectors in the span
    mod 3 of those rows, for every t in F_3^rank, so that membership in
    either quotient's unit image is one set lookup.  span_codes and
    cert_columns hold the spans and the certificates' logs as a bool
    table and int64 columns for the verdict lanes (_lane_tables), so
    that no census task rebuilds them.
    """

    ell: int
    L: NumberField
    F: NumberField
    cg_L: ClassGroupData
    cg: ClassGroupData
    u: UnitData  # 3-saturated units (unit_group)
    p31: PrimeIdeal  # over 3, residue degree 3
    l2: PrimeIdeal  # over ell, e = 3
    fixed_q: RayClass3Quotient  # Cl_{3_1^2 ell_2} (x) F_3, reference shape
    wild: WildBlock  # the one block for (O/3_1^2)^* (x) F_3
    tame_l2: TameBlock
    unit_l2: tuple  # ell_2 character of each saturated unit
    unit_spans: dict  # tame column t -> frozenset of the unit rows' span mod 3
    # _certificate of each cg.factor_base prime, None over 3 and ell
    certs: tuple
    # unit_spans as a bool table: [t, w] with t and w in F_3^k coded base 3
    span_codes: object
    # (m^-1 mod 3, wild log, ell_2 log) of each certificate, as int64
    # columns over cg.factor_base, zero over 3 and ell
    cert_columns: tuple
    shanks_a: object
    frame: tuple  # float Cholesky factor of F.trace_gram: real coordinates for the census LLL
    # (stage, wall seconds) of this load, in order; reported, never cached or written out
    stage_seconds: tuple

    @property
    def is_shanks(self) -> bool:
        return self.shanks_a is not None

    def excluded(self, v: int) -> bool:
        return v == 3 or v == self.ell or self.F.index % v == 0


# ---------------------------------------------------------------------------
# Conductor loading.


def load_conductor(config) -> ConductorData:
    """Build and verify the census datum for one conductor.

    Every claim the census later relies on is checked here and failures
    carry distinct tags: conductor shape, cubic and quartic discriminant,
    Galois group, splitting at 3 and ell, 4 | h(L), 3 coprime to h(F),
    exponent stability of the wild modulus, the one-dimensionality of
    the fixed quotient, and a principality certificate for every
    factor-base prime not over 3 or ell (`certificate`).

    L and F each come from the first of: the config polynomial, the
    cache record ("L", "F"), or their construction (cubic_subfield,
    quartic_field_search).  Every stage runs once: h(L) is screened
    (`class-number`) before the quartic search, which builds no class
    group of its own, and the searched F is used as returned.  3 and ell
    are factored in F once each, and each check and each prime is read
    from that one list: ell's gives the splitting check at ell and ell_2;
    3's is the factor base's (its Minkowski bound reaches 3 for every ell
    above 31), so the splitting check at 3 comes right after h(F) and
    before the check that 3 does not divide it, and 3_1 is read from the
    same list.  A cold load writes the record {L, F}; the fields are
    re-verified on every read.

    The wall seconds of each stage are kept in `stage_seconds`, in load
    order: h(L) (the cache read, L and its class group), F (the search or
    read and its checks), h(F) (with the splitting check at 3), saturated
    units (search and 3-saturation),
    stability (3_1, ell_2, the wild block and modulus_stability_check),
    fixed quotient (with the unit spans) and certificates (with the
    verdict lanes' tables).  The cache write after them is not timed.
    """
    if isinstance(config, int):
        config = conductor_config(config)
    ell = config.ell
    if not arith.is_prime(ell) or ell % 3 != 1:
        raise VerificationError("conductor", f"conductor {ell} is not a prime = 1 mod 3")

    stages = []
    clock = time.perf_counter()

    def lap(stage):
        nonlocal clock
        now = time.perf_counter()
        stages.append((stage, now - clock))
        clock = now

    cached = cache_read(ell) if config.use_cache else None

    if config.cubic_poly is not None:
        L = new_number_field(tuple(config.cubic_poly))
    elif cached and "L" in cached:
        L = field_from_record(cached["L"])
    else:
        L = cubic_subfield(ell)
    if L.degree != 3 or L.disc != ell * ell:
        raise VerificationError(
            "cubic-disc", f"cubic field has discriminant {L.disc}, expected {ell}^2"
        )

    # The class-number screen comes before any quartic work: conductors
    # with h(L) not divisible by 4 (ell = 7 say) carry no datum at all.
    cg_L = class_group(L)
    if cg_L.h % 4 != 0:
        raise VerificationError(
            "class-number", f"h(L) = {cg_L.h} is not divisible by 4 for ell = {ell}"
        )
    lap("h(L)")

    if config.quartic_poly is not None:
        F = new_number_field(tuple(config.quartic_poly))
    elif cached and "F" in cached:
        F = field_from_record(cached["F"])
    else:
        F = quartic_field_search(ell)
    if F.degree != 4 or F.disc != ell * ell:
        raise VerificationError(
            "quartic-disc", f"quartic field has discriminant {F.disc}, expected {ell}^2"
        )
    if not is_a4_quartic(F.poly):
        raise VerificationError("galois", "quartic polynomial does not have Galois group A4")
    # ell lies past the factor base's Minkowski bound, 3 ell / 32: factored once here
    above_ell = factor_rational_prime(F, ell)
    if sorted((P.e, P.f) for P in above_ell) != [(1, 1), (3, 1)]:
        raise VerificationError(
            "splitting-ell", f"{ell} does not factor as ell_1 * ell_2^3 in F"
        )
    lap("F")

    cg = class_group(F)
    # the factor base holds the primes over 3 once its bound reaches 3
    above_3 = cg.fb_ctx.above.get(3) or factor_rational_prime(F, 3)
    if sorted((P.e, P.f) for P in above_3) != [(1, 1), (1, 3)]:
        raise VerificationError("splitting-3", "3 does not split as 3_1 * 3_2 in F")
    if cg.h % 3 == 0:
        raise VerificationError(
            "class-3part", f"h(F) = {cg.h} is divisible by 3; certificates need 3 invertible"
        )
    lap("h(F)")

    if config.units is not None:
        for cand in config.units:
            if len(cand) != F.degree or abs(F.el_norm(tuple(cand))) != 1:
                raise VerificationError("units", f"supplied candidate {cand} is not a unit of F")
    u = unit_group(F, seed_candidates=tuple(config.units or ()))
    lap("saturated units")

    p31 = next(P for P in above_3 if P.f == 3)
    l2 = next(P for P in above_ell if P.e == 3)

    wild = WildBlock(F, p31)
    try:
        stable = modulus_stability_check(F, p31, cg, u, wild)
    except FieldError as exc:
        raise VerificationError("stability", f"stability check failed: {exc}") from exc
    if not stable:
        raise VerificationError(
            "stability", "ray class quotient still grows from exponent 2 to 3 at 3_1"
        )
    lap("stability")

    fixed_q = ray_class_3_quotient(Modulus(F, ((p31, 2), (l2, 1))), cg, u, wild)
    if fixed_q.dim != 1:
        raise VerificationError(
            "fixed-dim", f"fixed quotient has F_3-dimension {fixed_q.dim}, expected 1"
        )
    _, tame_l2 = fixed_q.blocks
    unit_l2 = tuple(tame_l2.philog(w)[0] for w in u.fundamental_units)
    # unit i's row is (wild philog, t_i): every combination's wild part once,
    # then its tame coordinate for each column t
    unit_wild = [wild.philog(w) for w in u.fundamental_units]
    combos = [
        (tuple(sum(map(operator.mul, cs, col)) % 3 for col in zip(*unit_wild)), cs)
        for cs in itertools.product(range(3), repeat=u.rank)
    ]
    unit_spans = {
        t: frozenset(w + (sum(map(operator.mul, cs, t)) % 3,) for w, cs in combos)
        for t in itertools.product(range(3), repeat=u.rank)
    }
    # four coordinates, of which a span of dimension wild.dim leaves one
    if len(unit_spans[unit_l2]) != 3**wild.dim:
        raise VerificationError(
            "fixed-dim", "unit images do not cut the fixed quotient to one dimension"
        )
    lap("fixed quotient")
    certs = tuple(
        None if Q.p in (3, ell) else _certificate(F, cg, wild, tame_l2, Q, coords)
        for Q, coords in zip(cg.factor_base, cg.coord_rows)
    )
    span_codes, cert_columns = _lane_tables(wild.dim, u.rank, unit_spans, certs)
    lap("certificates")

    cd = ConductorData(
        ell=ell,
        L=L,
        F=F,
        cg_L=cg_L,
        cg=cg,
        u=u,
        p31=p31,
        l2=l2,
        fixed_q=fixed_q,
        wild=wild,
        tame_l2=tame_l2,
        unit_l2=unit_l2,
        unit_spans=unit_spans,
        certs=certs,
        span_codes=span_codes,
        cert_columns=cert_columns,
        shanks_a=shanks_param(ell),
        frame=linalg.cholesky_float(F.trace_gram),
        stage_seconds=tuple(stages),
    )
    if config.use_cache and cached is None:
        cache_write(ell, {"L": field_to_record(L), "F": field_to_record(F)})
    return cd


def _lane_tables(dim: int, rank: int, unit_spans, certs):
    """The verdict lanes' tables, built once per datum: (span_codes, cert_columns).

    span_codes[t, w] is True when w lies in unit_spans[t], with t in
    F_3^rank and w in F_3^(dim + 1) coded base 3, lowest coordinate
    first.  cert_columns holds, for each certificate (m, gamma, wild log,
    ell_2 log) of cg.factor_base, m^-1 mod 3, the wild log and the ell_2
    log as int64 columns, zero where there is no certificate.
    """
    import numpy as np

    # the codes in Python: numpy's fancy indexing and reductions would
    # fault about 64 KB more of its code into the loading process
    place = [3**i for i in range(dim + 1)]
    rows = [[False] * 3 ** (dim + 1) for _ in range(3**rank)]
    for t, span in unit_spans.items():
        row = rows[sum(map(operator.mul, t, place))]
        for w in span:
            row[sum(map(operator.mul, w, place))] = True
    span_codes = np.array(rows)
    absent = (0, (0,) * dim, 0)  # over 3 and ell, where no cofactor prime lies
    columns = [(pow(c[0], -1, 3), c[2], c[3]) if c else absent for c in certs]
    cert_columns = tuple(np.array(col, dtype=np.int64) for col in zip(*columns))
    return span_codes, cert_columns


# ---------------------------------------------------------------------------
# Reference classifier: the moving ray class group is rebuilt per prime.


def classify_prime(cd: ConductorData, v: int) -> PrimeClassification:
    """Classify one auxiliary prime through the full ray-class machinery.

    The reference route: it reads neither the C3 gate nor _quartic_root.
    Membership in C^(3) is the splitting type (1, 3) of v in F, read off
    the squarefree and distinct-degree split of f mod v
    (arith.splitting_degrees, whose parts must multiply back to f); v is
    prime to the index, so the type of f is the type of v (Dedekind).
    Only a prime of type (1, 3) is factored into its prime ideals v1 and
    v2 (fields.factor_rational_prime) and builds its moving quotient.
    The HNF of v1 is LLL-reduced once, exactly (classgroup._reduced_basis),
    and both Artin vectors search that basis of norm v^3 as it is.
    """
    if cd.excluded(v):
        log.info("conductor %d: skipping excluded prime %d", cd.ell, v)
        return PrimeClassification(v, False, skipped=True)
    if v % 3 != 1 or arith.splitting_degrees(cd.F.poly, v) != [1, 3]:
        return PrimeClassification(v, False)
    primes = factor_rational_prime(cd.F, v)
    v1 = next(P for P in primes if P.f == 3)
    v2 = next(P for P in primes if P.f == 1)

    moving = ray_class_3_quotient(Modulus(cd.F, ((cd.p31, 2), (v2, 1))), cd.cg, cd.u, cd.wild)
    red = _reduced_basis(cd.F, list(v1.hnf))[0]
    in_lambda = any(artin_vector(moving, red, norm=v1.norm))
    in_taubar = not any(artin_vector(cd.fixed_q, red, norm=v1.norm))
    return PrimeClassification(v, True, in_lambda, in_taubar)


# ---------------------------------------------------------------------------
# Fast classifier: same contract, certificates instead of factor bases.


def fast_classify(cd: ConductorData, v: int) -> PrimeClassification:
    """Classify one auxiliary prime via principality certificates.

    Agrees with classify_prime everywhere.  Membership in C^(3) is
    decided by the C3 gate: v = 1 mod 3 and v^((ell-1)/3) != 1 mod ell.
    This is exact for every prime that is not excluded: Frobenius at v
    has cycle type (3,1) on the roots of F exactly when it has order 3
    in A4, that is when its image in A4/V4 = Gal(L/Q) is nontrivial,
    which happens exactly when v is not a cube mod ell; and v prime to
    3 * ell * index keeps f squarefree mod v.  Only C3 primes reach the
    polynomial work: the one root r of f mod v (_quartic_root), whose
    absence raises VerificationError("root"), gives v2 = (v, theta - r),
    and the cubic cofactor g gives v1 = vO + Z g(theta) in closed form
    (_degree3_prime; g(theta) = 0 mod v raises VerificationError
    ("v1-norm")).  The moving quotient is presented on the four local
    coordinates only (three wild, one tame at v_2), with unit images as
    relations; the span mod 3 of the unit rows is looked up in
    cd.unit_spans by the units' tame column (at ell_2 for the fixed
    quotient, at v_2 for the moving one).  The HNF of v1 is LLL-reduced
    exactly (classgroup._reduced_basis) and split by _c3_verdict through
    classgroup.smooth_split over the factor base, with N(v1) = v^3,
    keeping the first alpha whose cofactor norm N(alpha)/v^3 is prime to
    3 * ell * v, and each cofactor prime Q is moved into that
    presentation through its certificate Q^m = (gamma) from cd.certs,
    built at load; m is prime to 3 because 3 does not divide h(F).
    """
    pre = _c3_setup(cd, v)
    if isinstance(pre, PrimeClassification):
        return pre
    r, v1 = pre
    return _c3_verdict(cd, v, r, _reduced_basis(cd.F, v1)[0])


def _c3_setup(cd: ConductorData, v: int):
    """fast_classify up to v1: the verdict of a prime outside C^(3), else (r, v1 HNF)."""
    if cd.excluded(v):
        log.info("conductor %d: skipping excluded prime %d", cd.ell, v)
        return PrimeClassification(v, False, skipped=True)
    if v % 3 != 1 or pow(v, (cd.ell - 1) // 3, cd.ell) == 1:
        return PrimeClassification(v, False)
    root = _quartic_root(cd.F.poly, v)
    if root is None:
        raise VerificationError(
            "root", f"{v} passed the C3 gate, but f mod {v} does not have exactly one root"
        )
    r, cofactor = root
    return r, _degree3_prime(_poly_at_theta(cd.F, cofactor), v)


def _c3_verdict(cd: ConductorData, v: int, r: int, v1) -> PrimeClassification:
    """fast_classify from v1 on, given a basis of v1 that is its HNF times a unimodular T.

    Only alpha's work is done here.  The split (_c3_split) is handed
    N(v1) = v^3, so it searches that basis as it is, with no exact LLL
    and no determinant: fast_classify passes the exactly reduced HNF, the
    census the HNF times a certified float transform.  The residues at
    v_2 = (v, theta - r) of the units, of alpha and of each certificate
    gamma it uses come from one residue map (TameBlock); the units' raw
    cube characters are powers of theirs, and alpha's net residue (alpha
    over the gamma^s) is one product raised once.  _c3_labels labels the
    characters and looks the memberships up.  The census comes here for
    the primes its stage-1 lanes do not take (through fast_classify) and
    for the lattices its split lanes defer; every other C3 prime takes
    the same steps for a whole task in int64 lanes (_split_lanes, then
    _verdict_lanes), whose oracle this is.
    """
    alpha, wild_net, l2_net, powers = _c3_split(cd, v, v1)
    tame_v = TameBlock(cd.F, v, r)
    net = tame_v.residue(alpha)
    for q, e in powers:
        net = net * pow(tame_v.residue(cd.certs[q][1]), e, v) % v
    # the character is multiplicative, so the net one is one power
    chars = [tame_v.character(w) for w in cd.u.fundamental_units] + [pow(net, tame_v.exp, v)]
    return _c3_labels(cd, v, wild_net, l2_net, chars)


def _c3_split(cd: ConductorData, v: int, v1):
    """alpha's split of v1 and its logs: (alpha, wild_net, l2_net, powers).

    smooth_split, with N(v1) = v^3, keeps the first alpha of v1 whose
    cofactor norm is prime to 3 * ell * v; that leaves alpha a unit at
    3_1, ell_2 and v_2, and puts a certificate Q^m = (gamma) behind every
    cofactor prime Q.  wild_net and l2_net are alpha's wild and ell_2 logs
    net of gamma^s, s = v_Q / m mod 3, over those primes, and `powers`
    lists (index in cd.certs, -s mod 3) where that exponent is not zero,
    so that alpha times the gamma^e has alpha's net character at v_2.
    """
    avoid = 3 * cd.ell * v
    split = smooth_split(cd.cg, v1, usable=lambda el, n: math.gcd(n, avoid) == 1, norm=v**3)
    if split is None:
        raise FieldError(f"no smooth split found in the degree-3 prime over {v}")
    alpha, vec = split
    wild_net = cd.wild.philog(alpha)
    l2_net = cd.tame_l2.philog(alpha)[0]
    powers = []
    for q, (vq, cert) in enumerate(zip(vec, cd.certs)):
        if not vq:
            continue
        m, _, wg, lg = cert
        s = vq * pow(m, -1, 3)
        wild_net = tuple((a - s * b) % 3 for a, b in zip(wild_net, wg))
        l2_net = (l2_net - s * lg) % 3
        if s % 3:
            powers.append((q, -s % 3))
    return alpha, wild_net, l2_net, powers


def _c3_labels(cd: ConductorData, v: int, wild_net, l2_net, chars) -> PrimeClassification:
    """The verdict from alpha's net logs and the cube characters at v_2 (units', then alpha's)."""
    *unit_v, v_net = _cube_logs(chars, v)
    in_taubar = wild_net + (l2_net,) in cd.unit_spans[cd.unit_l2]
    in_lambda = wild_net + (v_net,) not in cd.unit_spans[tuple(unit_v)]
    return PrimeClassification(v, True, in_lambda, in_taubar)


def _verdict_lanes(cd: ConductorData, v, r, alpha, vals) -> list:
    """_c3_split's logs and _c3_verdict's labels for many split primes at once, in int64 lanes.

    One lane per prime v (int64, below LANE_BOUND), with its root r, its
    alpha (int64 coordinates) and the valuation vector `vals` of alpha's
    cofactor over cg.factor_base, as _split_lanes settles them.  One
    entry per lane is returned: the verdict code, IN_C3 with the flags
    LAMBDA and TAUBAR, or the FieldError at which the scalar route would
    stop, which sends that prime to classify_prime: alpha not a unit at
    3_1 or at ell_2, or a zero character at v_2.  Every step is the
    scalar route's, exactly:
      - alpha's wild log (_wild_logs_lanes) and ell_2 log
        (_tame_logs_lanes), net of gamma^s over the cofactor primes Q,
        s = v_Q m_Q^-1 mod 3, from each certificate's logs;
      - the residue map at v_2 = (v, theta - r) sends basis element i to
        sum_j basis_num[i][j] r^j / basis_den mod v; the lanes multiply
        by basis_den^2 in place of dividing, which scales every residue
        by the cube basis_den^3 and so changes no character.  The
        coordinates of the units and of the certificates gamma (Python
        integers of any size) and alpha are reduced mod v first, so every
        product of two residues stays below 2^60 and a sum of four below
        2^62.  alpha's net residue takes the product of each gamma^-s,
        and the characters of the units and of that net residue are
        raised to (v - 1)/3 by square and multiply, each lane's own bits
        picking the multiplications, then labelled (_cube_logs_lanes);
      - both memberships are lookups in cd.span_codes, the table of
        cd.unit_spans with every vector of F_3^k coded base 3.
    The certificate columns and the span table are the datum's, built
    once at load (_lane_tables).
    """
    import numpy as np

    if not len(v):
        return []
    F = cd.F
    wild_log, wild_unit = _wild_logs_lanes(cd.wild, alpha)
    l2_log, l2_unit = _tame_logs_lanes(cd.tame_l2, alpha)
    m_inv, wg, lg = cd.cert_columns
    s = vals * m_inv % 3
    wild_net = (wild_log - s @ wg) % 3
    l2_net = (l2_log - s @ lg) % 3

    r_pow = [_mod_lanes([F.basis_den**2], v)[0]]
    for _ in range(F.degree - 1):
        r_pow.append(r_pow[-1] * r % v)
    # basis element i at v_2, times den^3
    at_v2 = sum(_mod_lanes(col, v) * rj for col, rj in zip(zip(*F.basis_num), r_pow)) % v

    def residues(coords):  # rows of element coordinates, Python integers of any size
        return sum(_mod_lanes(col, v) * vi for col, vi in zip(zip(*coords), at_v2)) % v

    net = ((alpha % v[:, None]).T * at_v2).sum(axis=0) % v
    exps = -s % 3
    used = np.flatnonzero(exps.any(axis=0))
    if used.size:
        g = residues([cd.certs[q][1] for q in used.tolist()])
        for e, gq in zip(exps[:, used].T, g):
            net = net * np.where(e == 2, gq * gq % v, np.where(e == 1, gq, 1)) % v
    x = np.vstack([residues(cd.u.fundamental_units), net[None]])
    e = (v - 1) // 3
    chars = np.ones_like(x)
    for bit in (e >> np.arange(int(e.max()).bit_length())[::-1, None]) & 1:  # high bits first
        chars = chars * chars % v * np.where(bit, x, 1) % v
    logs, zero = _cube_logs_lanes(chars)

    rank, dim = cd.u.rank, cd.wild.dim
    place = 3 ** np.arange(dim + 1)
    spans = cd.span_codes
    wild_code = wild_net @ place[:dim]
    in_taubar = spans[np.dot(cd.unit_l2, place[:rank]), wild_code + 3**dim * l2_net]
    in_lambda = ~spans[logs[:rank].T @ place[:rank], wild_code + 3**dim * logs[rank]]
    out = (IN_C3 | LAMBDA * in_lambda | TAUBAR * in_taubar).tolist()
    for i in np.flatnonzero(~wild_unit | ~l2_unit | zero).tolist():
        prime = "wild" if not wild_unit[i] else "tame"
        out[i] = FieldError(f"element is not coprime to the {prime} prime")
    return out


def _wild_logs_lanes(wild: WildBlock, alpha):
    """WildBlock.philog of int64 elements, one per row: (logs, unit).

    9O lies in p^2 (3 lies in p), so alpha mod 9 has alpha's class, and
    the rows of p^2's HNF reduce it to the canonical representative, as
    QuotientRing.reduce does, with small entries throughout.  Its
    mixed-radix code indexes the block's table_array; `unit` is False
    where alpha lies in p, whose log row there is -1.
    """
    import numpy as np

    h = np.array(wild.ring.hnf, dtype=np.int64)
    x = alpha % 9
    for i, row in enumerate(h):
        x -= (x[:, i] // row[i])[:, None] * row
    logs = wild.table_array[x @ np.array(wild.radix, dtype=np.int64)]
    return logs, logs[:, 0] >= 0


def _tame_logs_lanes(tame: TameBlock, alpha):
    """TameBlock.philog of int64 elements, one per row: (logs, unit).

    The residue through the block's basis values, alpha reduced mod q
    first, raised to (q - 1)/3 by square and multiply, and written to the
    base omega; `unit` is False where the character is not a cube root of
    unity (alpha in the prime).
    """
    import numpy as np

    q, omega = tame.q, tame.omega
    res = (alpha % q) @ np.array(tame.basis_vals, dtype=np.int64) % q
    c = np.ones_like(res)
    for bit in bin(tame.exp)[2:]:
        c = c * c % q
        if bit == "1":
            c = c * res % q
    logs = np.where(c == 1, 0, np.where(c == omega, 1, 2))
    return logs, (c == 1) | (c == omega) | (c == omega * omega % q)


def _cube_logs_lanes(chars):
    """_cube_logs on lanes: chars has one row per character, one column per lane.

    Returns the logs and, per lane, whether a character is zero; omega is
    each lane's first character that is not 1.
    """
    import numpy as np

    omega = chars[(chars != 1).argmax(axis=0), np.arange(chars.shape[1])]
    return np.where(chars == 1, 0, np.where(chars == omega, 1, 2)), (chars == 0).any(axis=0)


def _mod_lanes(values, v):
    """Python integers of any size mod each lane's v (below 2^31): one int64 row per value.

    Horner's rule in base 2^31 on |c|, then the sign: with v below 2^31
    every partial sum stays below 2^63.
    """
    import numpy as np

    size = max((abs(c).bit_length() + 30) // 31 for c in values) or 1
    digits = np.array(
        [[abs(c) >> (31 * i) & (2**31 - 1) for i in range(size - 1, -1, -1)] for c in values],
        dtype=np.int64,
    )
    acc = digits[:, 0, None] % v
    for i in range(1, size):  # in place: the rows span every lane
        acc *= 2**31
        acc += digits[:, i, None]
        acc %= v
    negative = [i for i, c in enumerate(values) if c < 0]
    if negative:
        acc[negative] = (v - acc[negative]) % v
    return acc


def _cube_logs(chars, q: int) -> list:
    """Cube characters mod the prime q as logs mod 3, to the base omega, the first one != 1.

    Any other base omega^2 negates every log at once, the tame coordinate
    of every vector in the moving quotient, which changes neither span
    membership.  A zero character (an element not prime to the tame
    prime) raises FieldError.
    """
    if 0 in chars:
        raise FieldError("element is not coprime to the tame prime")
    omega = next((c for c in chars if c != 1), 1)
    logs = {omega * omega % q: 2, omega: 1, 1: 0}
    return [logs[c] for c in chars]


def _quartic_root(f, v: int):
    """(root, monic cubic cofactor) when f has exactly one distinct root mod v.

    f is a monic quartic, constant term first; returns None for any
    other root count.  The distinct roots of f mod v are those of
    gcd(x^v - x, f) (Cohen, GTM 138, 1.6).  x^v mod (f, v) is built by
    square and multiply on coefficient 4-tuples, reducing with
    x^4 = n0 + n1 x + n2 x^2 + n3 x^3.
    """
    n0, n1, n2, n3 = (-c % v for c in f[:4])
    a0, a1, a2, a3 = 0, 1, 0, 0
    for bit in bin(v)[3:]:
        # square: the x^6, x^5, x^4 coefficients fold back below x^4
        d6 = a3 * a3 % v
        d5 = (2 * a2 * a3 + d6 * n3) % v
        d4 = (a2 * a2 + 2 * a1 * a3 + d6 * n2 + d5 * n3) % v
        a0, a1, a2, a3 = (
            (a0 * a0 + d4 * n0) % v,
            (2 * a0 * a1 + d5 * n0 + d4 * n1) % v,
            (a1 * a1 + 2 * a0 * a2 + d6 * n0 + d5 * n1 + d4 * n2) % v,
            (2 * (a0 * a3 + a1 * a2) + d6 * n1 + d5 * n2 + d4 * n3) % v,
        )
        if bit == "1":  # times x
            a0, a1, a2, a3 = (
                a3 * n0 % v, (a0 + a3 * n1) % v, (a1 + a3 * n2) % v, (a2 + a3 * n3) % v
            )
    # gcd(x^v - x, f) by Euclid on coefficient lists
    a, b = [c % v for c in f], [a0, (a1 - 1) % v, a2, a3]
    while b and not b[-1]:
        b.pop()
    while b:
        inv = pow(b[-1], -1, v)
        db = len(b) - 1
        while len(a) > db:
            c = a.pop() * inv % v
            s = len(a) - db
            for j in range(db):
                a[s + j] = (a[s + j] - c * b[j]) % v
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    if len(a) != 2:
        return None
    r = -a[0] * pow(a[1], -1, v) % v
    # synthetic division of f by (x - r) mod v
    out = [0] * 4
    acc = 0
    for i in range(4, 0, -1):
        acc = (acc * r + f[i]) % v
        out[i - 1] = acc
    if (acc * r + f[0]) % v:
        raise VerificationError("root", f"{r} is not a root of the defining polynomial mod {v}")
    return r, tuple(out)


# v below it keeps every product of two residues under 2^60: stage 1's sums
# of at most seven products stay under 7 * 2^60 < 2^63, stage 3's sums of
# four under 2^62, and _mod_lanes needs v under 2^31
LANE_BOUND = 2**30

# A prime's int8 code in a census task (_count_task): stage 1's status
# (WHOLE, OUTSIDE or IN_C3), then its verdict: SKIPPED, OUTSIDE, or IN_C3
# with the flags LAMBDA and TAUBAR set for its two memberships
WHOLE, SKIPPED, OUTSIDE, IN_C3, LAMBDA, TAUBAR = -2, -1, 0, 4, 2, 1


def _c3_setup_lanes(cd: ConductorData, primes):
    """_c3_setup over ascending primes at once, in numpy int64 lanes: (status, roots, v1).

    `status` holds one int8 code per prime: OUTSIDE for a prime outside
    C^(3), IN_C3 for a C3 lane, or WHOLE where the prime must go whole
    through fast_classify, so that its verdict, log line or exception is
    exactly that route's; `roots` (int64) and `v1` (_degree3_prime's
    HNFs, int64 of shape (lanes, 4, 4)) follow the C3 lanes in order.
    WHOLE is given to the excluded primes (3, ell and the primes dividing
    F.index); to v at or above LANE_BOUND, or above the bound where
    g(theta)'s adjugate product could leave int64; to every prime when f,
    the index or the basis determinant does not fit in int64; and to every
    C3 lane the lanes do not certify (below).  The gate is _c3_setup's,
    read from a table of v^((ell-1)/3) mod ell over the residues mod ell.
    On the C3 lanes x^v mod (f, v) is built by square and multiply as in
    _quartic_root, the bit of each lane's own v picking the
    multiplication by x, with one reduction mod v per coefficient.
    gcd(x^v - x, f) follows by pseudo-remainders, which need no inverses
    (Cohen, GTM 138, 3.1): the degrees 4, 3, 2, 1 with nonzero leading
    coefficients and a zero last remainder certify that the gcd has
    degree 1, so f has exactly one root r mod v; any other lane is sent
    to fast_classify.  The cubic cofactor comes from synthetic division,
    whose remainder f(r) must vanish mod v, and g(theta) from F's
    adjugate with an exact division by its determinant, as in
    _poly_at_theta; v1 is _degree3_prime's closed form.  A lane where
    f(r) != 0, the division is not exact or g(theta) = 0 mod v is sent to
    fast_classify as well.
    """
    # Imported here, as in linalg.lll_float_batch, so that the package
    # goes on importing numpy last.
    import numpy as np

    status = np.full(len(primes), WHOLE, dtype=np.int8)
    none = (status, np.zeros(0, dtype=np.int64), np.zeros((0, 4, 4), dtype=np.int64))
    F, ell = cd.F, cd.ell
    adj, det = F._adjugate
    # g(theta) * det = sum_i c_i adj[i] basis_den, with 0 <= c_i < v and c_3 = 1
    scale = [[a * F.basis_den for a in row] for row in adj]
    width = max(sum(abs(row[k]) for row in scale) for k in range(4))
    stop = bisect.bisect_left(primes, min(LANE_BOUND, 2**63 // width))
    if not stop or max(abs(det), F.index, *map(abs, F.poly)) >= 2**63:
        return none
    v = np.array(primes[:stop], dtype=np.int64)
    taken = (v != 3) & (v != ell) & (F.index % v != 0)  # not cd.excluded(v)
    e = (ell - 1) // 3
    cube = np.array([pow(a, e, ell) == 1 for a in range(ell)])
    gate = taken & (v % 3 == 1) & ~cube[v % ell]
    status[:stop][taken & ~gate] = OUTSIDE
    lanes = np.flatnonzero(gate)
    if not lanes.size:
        return none
    v = v[lanes]
    f = [c % v for c in F.poly[:4]]
    e0, e1, ok = _linear_gcd_lanes(f, v)
    roots = [
        -a * pow(b, -1, p) % p if good else 0
        for a, b, p, good in zip(e0.tolist(), e1.tolist(), v.tolist(), ok.tolist())
    ]
    # synthetic division of f by (x - r) mod v
    r = np.array(roots, dtype=np.int64)
    c2 = (r + f[3]) % v
    c1 = (c2 * r + f[2]) % v
    c0 = (c1 * r + f[1]) % v
    ok &= (c0 * r + f[0]) % v == 0
    num = np.array(scale, dtype=np.int64).T @ np.stack([c0, c1, c2, np.ones_like(v)])
    gtheta = (num // det % v).T
    ok &= (num % det == 0).all(axis=0) & gtheta.any(axis=1)
    status[lanes[ok]] = IN_C3
    return status, r[ok], _degree3_prime_lanes(gtheta[ok], v[ok])


def _linear_gcd_lanes(f, v):
    """gcd(x^v - x, f) mod v on lanes: (e0, e1, regular).

    f holds the four low coefficients of the monic quartic reduced mod
    v.  Where `regular`, the pseudo-remainders of f, x^v - x mod f and
    onward have the degrees 4, 3, 2, 1, each divisor's leading
    coefficient is nonzero and the last remainder is zero, so the gcd is
    e1 x + e0.
    """
    import numpy as np

    n = np.stack([-c % v for c in f])  # x^4 = n0 + n1 x + n2 x^2 + n3 x^3
    a = np.zeros_like(n)
    a[0] = 1
    for shift in range(int(v.max()).bit_length() - 1, -1, -1):
        c = np.zeros((7, len(v)), dtype=np.int64)
        for i in range(4):
            c[i : i + 4] += a[i] * a
        for d in (6, 5, 4):  # x^d = x^(d-4) (n0 + n1 x + n2 x^2 + n3 x^3)
            c[d - 4 : d] += c[d] % v * n
        a = c[:4] % v
        ax = a[3] * n  # times x
        ax[1:] += a[:3]
        a = np.where((v >> shift) & 1, ax % v, a)
    b = [a[0], (a[1] - 1) % v, a[2], a[3]]
    r = _pseudo_remainder(list(f) + [1], b, v)
    e = _pseudo_remainder(b, r, v)
    (z,) = _pseudo_remainder(r, e, v)
    return e[0], e[1], (b[3] != 0) & (r[2] != 0) & (e[1] != 0) & (z == 0)


def _degree3_prime_lanes(g, v):
    """_degree3_prime on lanes: g holds g(theta) mod v, one nonzero row per lane.

    v I with row k replaced by g / g_k mod v, k the first nonzero
    coordinate; one modular inverse per lane.  Returns the HNFs as one
    int64 array of shape (lanes, 4, 4).
    """
    import numpy as np

    at = np.arange(len(v))
    k = (g != 0).argmax(axis=1)
    inv = [pow(a, -1, p) for a, p in zip(g[at, k].tolist(), v.tolist())]
    v1 = np.zeros((len(v), 4, 4), dtype=np.int64)
    v1[:, range(4), range(4)] = v[:, None]
    v1[at, k] = g * np.array(inv, dtype=np.int64)[:, None] % v[:, None]
    return v1


def _pseudo_remainder(a, b, v):
    """lc(b)^2 a mod b on lanes, a one coefficient longer than b (constant first)."""
    lb, top = b[-1], a[-1]
    t = [lb * a[0] % v] + [(lb * a[k] - top * b[k - 1]) % v for k in range(1, len(b))]
    return [(lb * t[k] - t[-1] * b[k]) % v for k in range(len(b) - 1)]


def _degree3_prime(gtheta, v: int):
    """HNF of v1 = vO + Z g(theta), the degree-3 prime over v.

    For v prime to the index, O/vO = F_v[x]/(x - r) x F_v[x]/(g), and
    g(theta) spans the line F_v x 0 that is v1/vO.  With k the first
    coordinate of g(theta) that is nonzero mod v, the HNF is v times the
    identity with row k replaced by g(theta) / g(theta)_k mod v: one
    modular inverse in place of an ideal HNF (Cohen, GTM 138, 4.8).
    """
    k = next((i for i, c in enumerate(gtheta) if c % v), None)
    if k is None:
        raise VerificationError("v1-norm", f"g(theta) vanishes mod {v}: no degree-3 prime over {v}")
    inv = pow(gtheta[k], -1, v)
    n = len(gtheta)
    rows = [tuple(v * (i == j) for j in range(n)) for i in range(n)]
    rows[k] = tuple(c * inv % v for c in gtheta)
    return rows


def _certificate(
    F: NumberField, cg: ClassGroupData, wild: WildBlock, tame_l2: TameBlock, Q, coords
):
    """(m, gamma, wild philog, ell_2 char) with Q^m = (gamma), m prime to 3.

    m is the order of [Q] in the class group, read off its class
    coordinates `coords` (Q's row of cg.coord_rows, from the Smith form);
    it is prime to 3 because 3 does not divide h(F).  Q must lie over
    neither 3 nor ell, so that gamma is a unit at 3_1 and ell_2.  gamma
    comes from the split of Q^m with a cofactor of norm 1 (smooth_split).
    """
    m = 1
    for c, d in zip(coords, cg.divisors):
        if c % d:
            m = math.lcm(m, d // math.gcd(d, c))
    if m % 3 == 0:
        raise VerificationError(
            "certificate",
            f"class order {m} at a prime over {Q.p} is divisible by 3, yet 3 does not divide h(F)",
        )
    power = ideal_pow(F, list(Q.hnf), m)
    split = smooth_split(cg, power, usable=lambda el, cofactor_norm: cofactor_norm == 1)
    if split is None:
        raise VerificationError(
            "certificate", f"no generator found for the certificate at a prime over {Q.p}"
        )
    gamma, _ = split
    return m, gamma, wild.philog(gamma), tame_l2.philog(gamma)[0]


# ---------------------------------------------------------------------------
# The census driver.


def _checkpoints_for(N: int, checkpoints) -> tuple:
    """The census checkpoints: `checkpoints` as given, else the table ones below N, then N."""
    if checkpoints is None:
        cps = tuple(c for c in TABLE_CHECKPOINTS if c < N) + (N,)
    else:
        cps = tuple(checkpoints)
        if list(cps) != sorted(set(cps)):
            raise ValueError("checkpoints must be strictly ascending")
        if cps and cps[-1] > N:
            raise ValueError("checkpoints must not exceed the census bound")
    if not cps:
        raise ValueError(f"no checkpoints at or below {N}")
    if cps[0] < 1:
        # no segment ends at or below 0, so that row would never be written
        raise ValueError(f"checkpoint {cps[0]} is not positive")
    return cps


def _segments(limit: int, cps) -> list:
    bounds = sorted(set(range(0, limit + 1, CHUNK)) | set(cps) | {limit})
    return list(zip(bounds, bounds[1:]))


def _count_task(cd: ConductorData, segs) -> list:
    """Classify the primes of consecutive segments: one (records, classified, fallbacks) each.

    `segs` is a run of consecutive segments (lo, hi], as run_census cuts
    them (_tasks).  For each segment, in order, the result holds the
    records (v, in_lambda, in_taubar) of its C3 primes in order, the
    number of its primes classified (skips removed) and the number of its
    fallbacks.  Each prime's verdict is kept as one int8 code (WHOLE,
    SKIPPED, OUTSIDE, or IN_C3 with the flags LAMBDA and TAUBAR), and no
    verdict object is made for a prime the lanes take.  A prime takes one
    of two routes, each verdict equal to fast_classify's.  Every prime the
    stage-1 lanes do not take (an excluded prime, v at or above
    LANE_BOUND, an int64 guard, an irregular Euclid sequence, a failed
    root or integrality check) goes whole through fast_classify.  Every
    other prime goes through three stages, each run once over the whole
    task, since the cost of a numpy pass hardly depends on its width:
      1. the gate, the root and the closed-form v1 together, in numpy
         int64 lanes (_c3_setup_lanes);
      2. the v1 bases of the task's C3 primes are reduced together by
         one linalg.lll_float_batch in the real coordinates cd.frame, in
         all-swap rounds that every lattice takes in lock step (about 25
         near 0, 35 near 10^8); each returned T is an int64 array,
         unimodular, checked exactly (det T = +-1 modulo the primes of
         linalg.DET_PRIMES under a Hadamard bound, or det_bareiss past
         it), and the rows T v1 are formed in integers (_transformed:
         one int64 product for every lattice within PRODUCT_BOUND,
         _combine for any other), so they are a basis of v1 whatever
         the floats did, of norm v^3;
      3. two lane passes: the split of every basis formed in int64 from
         its rows (_split_lanes: the first candidate of smooth_split's
         stream that its cofactor test accepts, with the cofactor norms
         certified modulo the same primes and the valuations read off
         them), then alpha's wild and ell_2 logs, the certificates' nets,
         the cube characters at v_2 and both span lookups for all the
         split primes at once (_verdict_lanes).  A lattice formed with
         _combine, or deferred by _split_lanes, goes through the scalar
         tail _c3_verdict instead.
    A lattice's T does not depend on the other lattices of the batch, so
    the verdicts and the alpha behind them do not depend on how the
    segments are grouped into tasks or on the worker count.  A FieldError
    at one prime (any in fast_classify or _c3_verdict, a transform that
    is not certified in stage 2, a non-unit alpha or a zero character in
    _verdict_lanes) is contained: that prime is classified by
    classify_prime and counted as a fallback of its segment.
    VerificationError("root") means the gate is wrong and propagates.
    """
    import numpy as np

    primes = primes_in_range(segs[0][0] + 1, segs[-1][1] + 1)
    code, roots, hnfs = _c3_setup_lanes(cd, primes)
    lanes = np.flatnonzero(code == IN_C3).tolist()  # before any verdict is coded
    fell = np.zeros(len(primes), dtype=bool)  # the primes classified by _fallback

    def fallback(i, exc):
        code[i] = _code(_fallback(cd, primes[i], exc))
        fell[i] = True

    def settle(i, route, *args):
        try:
            code[i] = _code(route(cd, primes[i], *args))
        except FieldError as exc:
            if isinstance(exc, VerificationError) and exc.check == "root":
                raise
            fallback(i, exc)

    for i in np.flatnonzero(code == WHOLE).tolist():
        settle(i, fast_classify)
    v = np.array(primes, dtype=np.int64)[lanes]
    transforms = linalg.lll_float_batch(hnfs, cd.frame)
    for k, T in enumerate(transforms):
        if T is None:
            fallback(lanes[k], FieldError(
                f"no certified float reduction of the degree-3 prime over {primes[lanes[k]]}"
            ))
    inside, rows, combined = _transformed(hnfs, transforms)
    settled, alpha, vals = _split_lanes(cd, v[inside], rows)
    deferred = combined + list(zip(inside[~settled].tolist(), rows[~settled].tolist()))
    del rows
    for k, basis in deferred:
        settle(lanes[k], _c3_verdict, int(roots[k]), [tuple(row) for row in basis])
    at = inside[settled]
    verdicts = _verdict_lanes(cd, v[at], roots[at], alpha[settled], vals[settled])
    for k, verdict in zip(at.tolist(), verdicts):
        if isinstance(verdict, FieldError):
            fallback(lanes[k], verdict)
        else:
            code[lanes[k]] = verdict
    out = []
    start = 0
    for _, hi in segs:
        stop = bisect.bisect_right(primes, hi, start)
        part = code[start:stop]
        hits = np.flatnonzero(part >= IN_C3)
        records = [
            (primes[start + k], bool(c & LAMBDA), bool(c & TAUBAR))
            for k, c in zip(hits.tolist(), part[hits].tolist())
        ]
        out.append((records, int((part != SKIPPED).sum()), int(fell[start:stop].sum())))
        start = stop
    return out


def _code(pc: PrimeClassification) -> int:
    """A route's verdict as its _count_task code."""
    if pc.skipped:
        return SKIPPED
    if not pc.in_C3:
        return OUTSIDE
    return IN_C3 | LAMBDA * pc.in_CLambda | TAUBAR * pc.in_Ctaubar


PRODUCT_BOUND = 2**63  # T y is formed in int64 where max|T| * n * max|y| stays below it
TOTALS_BLOCK = 1024  # candidates per linalg.det4_residues call in _split_totals_lanes


def _transformed(bases, transforms):
    """The certified bases T y of v1 lattices: (inside, rows, combined).

    `bases` is the int64 array (m, n, n) of the v1 HNFs y, `transforms`
    their certified T, None where T is not certified.  Each entry of T y
    is a sum of n products T_ik y_kj, so every lattice with max|T| * n *
    max|y| < PRODUCT_BOUND, max|y| taken over the whole batch, has each
    partial sum in int64: `inside` holds the indices of those lattices
    and `rows` their bases T y, formed in one numpy product, of shape
    (len(inside), n, n).  Any other lattice with a T is formed with
    _combine as Python integers: `combined` lists (index, basis) for
    each.  A lattice whose T is None is in neither.
    """
    import numpy as np

    n = bases.shape[1]
    lanes = np.array([i for i, T in enumerate(transforms) if T is not None], dtype=np.intp)
    if not lanes.size:
        return lanes, np.zeros((0, n, n), dtype=np.int64), []
    y = bases[lanes]
    t = np.stack([transforms[i] for i in lanes.tolist()])
    limit = (PRODUCT_BOUND - 1) // (n * max(int(y.max()), -int(y.min()), 1))
    ok = (t.max(axis=(1, 2)) <= limit) & (t.min(axis=(1, 2)) >= -limit)
    combined = [
        (i, [_combine(row, bases[i].tolist()) for row in transforms[i].tolist()])
        for i in lanes[~ok].tolist()
    ]
    return lanes[ok], t[ok] @ y[ok], combined


def _split_lanes(cd: ConductorData, v, rows):
    """_c3_split's smooth_split for many certified bases of v1 at once: (settled, alpha, vals).

    `v` holds the primes (int64, below LANE_BOUND) and `rows` the int64
    bases T v1 of shape (m, n, n) that _transformed forms, each of norm
    v^3.  smooth_split searches such a basis as it is, and the stream of
    ideal_short_elements then starts with minus the rows, in order.  So
    the lanes take the candidates alpha = -row_j for j = 0, 1, ..., n - 1,
    one round per j over the lattices still open, and test each as
    smooth_split and _FBContext.cofactor do, exactly:
      - its cofactor norm c = |N(alpha)| / v^3, certified in int64
        (_split_totals_lanes);
      - usable when c is prime to 3 ell v, _c3_split's test;
      - smooth when trial division by the factor base's rational primes
        leaves 1 (_cofactor_exponents_lanes), which gives each e_p;
      - at each p | c, alpha lies in the primes P above p for which
        (alpha mod p) times P's anti-uniformizer is 0 mod p
        (_in_prime_lanes, element_in_prime's test); where exactly one P
        holds alpha, v_P(alpha) = e_p / f(P) (_valuations_above), and the
        candidate is accepted when every such P lies in the factor base.
    A lattice's first accepted candidate settles it: `alpha` and its
    valuation vector `vals` over cg.factor_base are smooth_split's (alpha,
    vec).  A lattice is deferred (settled False), for the scalar route
    to split, when a row reached has no certified total; when a usable
    smooth candidate reached has, at some p | c, alpha in no P or in two
    or more above p, or an e_p that f(P) does not divide, where cofactor
    would count valuations out or raise FieldError; or when none of its n
    candidates is accepted.  The rows of alpha and vals of a deferred
    lattice are zero.
    """
    import numpy as np

    ctx = cd.cg.fb_ctx
    m, n = rows.shape[:2]
    settled = np.zeros(m, dtype=bool)
    alpha = np.zeros((m, n), dtype=np.int64)
    vals = np.zeros((m, len(ctx.fb)), dtype=np.int64)
    live = np.arange(m)  # the lattices still open
    for j in range(n):
        if not live.size:
            break
        a = -rows[live, j]
        total, certified = _split_totals_lanes(cd, v[live], a)
        usable = certified & (np.gcd(total, 3 * cd.ell * v[live]) == 1)
        exps, smooth = _cofactor_exponents_lanes(np.where(usable, total, 1), ctx.rational_primes)
        smooth &= usable
        odd = np.zeros(len(live), dtype=bool)
        accepted = smooth.copy()
        val = np.zeros((len(live), len(ctx.fb)), dtype=np.int64)
        for p, e in zip(ctx.rational_primes, exps):
            at = np.flatnonzero(smooth & (e > 0))
            if not at.size:
                continue
            above = ctx.above[p]
            inside = np.array([_in_prime_lanes(P, a[at]) for P in above])
            one = inside.sum(axis=0) == 1
            odd[at[~one]] = True
            for P, hit in zip(above, inside):
                here = at[one & hit]
                q, r = np.divmod(e[here], P.f)
                odd[here[r != 0]] = True
                idx = ctx.index.get(P.key())
                if idx is None:
                    accepted[here] = False
                else:
                    val[here, idx] = q
        accepted &= ~odd
        take = live[accepted]
        settled[take] = True
        alpha[take] = a[accepted]
        vals[take] = val[accepted]
        live = live[~(accepted | odd | ~certified)]
    return settled, alpha, vals


def _cofactor_exponents_lanes(total, primes):
    """_FBContext.factor on lanes: (exps, smooth) for positive int64 totals below 2^31.

    exps[i] holds the exponent of primes[i] in each total, and `smooth`
    is True where they account for all of it.  The exponent of p is that
    of gcd(total, p^k), p^k the first power of p at or above 2^31, which
    is a power of p, found in the table of powers.
    """
    import numpy as np

    rem = total.copy()
    exps = np.zeros((len(primes), len(total)), dtype=np.int64)
    for e, p in zip(exps, primes):
        powers = [1]
        while powers[-1] < 2**31:
            powers.append(powers[-1] * p)
        g = np.gcd(rem, powers[-1])
        e[:] = np.searchsorted(powers, g)
        rem //= g
    return exps, rem == 1


def _in_prime_lanes(P: PrimeIdeal, alpha):
    """element_in_prime(P, alpha) for int64 elements, one per row: alpha beta in pO, mod p."""
    import numpy as np

    p = P.p
    cols = np.array([[c % p for c in col] for col in P.anti_uniformizer], dtype=np.int64)
    return ((alpha % p) @ cols.T % p == 0).all(axis=1)


# M(alpha) = alpha times the multiplication table is formed in int64 where
# max|alpha| * max|table| * n stays below it
NORM_PRODUCT_BOUND = 2**63
# a float64 sum of sixteen products of three exact factors is off by at most
# 18 * 2^-53 times the sum of their absolute values; this covers it
TRACE_ERROR = 2.0**-40


def _split_totals_lanes(cd: ConductorData, v, alpha):
    """smooth_split's cofactor norms |N(alpha)| / v^3 of many elements of v1: (total, certified).

    `v` holds the primes (int64, below LANE_BOUND) and `alpha` the int64
    elements, one row each, each in the v1 over its v, so that v^3
    divides N(alpha).  total[i] is |N(alpha_i)| / v_i^3, proved exact,
    where certified[i].  M(alpha), whose determinant is N(alpha), is
    formed exactly in int64 wherever max|alpha| * max|table| * 4 <
    NORM_PRODUCT_BOUND, and linalg.det4_residues gives N(alpha) modulo
    every prime of linalg.DET_PRIMES, TOTALS_BLOCK elements per call.
    With p0 the first of them, c = N(alpha) v^-3 mod p0 (the inverse by
    Fermat, in the lanes) is lifted to (-p0/2, p0/2), and the element is
    certified when N(alpha) = c v^3 modulo every prime, |c| v^3 <= B and
    DET_MODULUS > 2 B, where B = (Tr(alpha^2)/4)^2 bounds |N(alpha)|
    (AM-GM over the four real embeddings).  Then N(alpha) - c v^3 is a
    multiple of DET_MODULUS of size at most 2 B, so N(alpha) = c v^3.  B
    is taken in float64 with FLOAT_BOUND_MARGIN from Tr(alpha^2) =
    sum_jk G_jk alpha_j alpha_k, G = F.trace_gram, whose float sum is
    raised by TRACE_ERROR times the sum of the terms' sizes, which bounds
    its rounding for entries of alpha below 2^53, held exactly.  An
    element of v1 always has v^3 | N(alpha), so it fails only past a
    guard or with a cofactor norm of about p0/2 or more.
    """
    import numpy as np

    F = cd.F
    n = F.degree
    top = max(abs(c) for row in F.mult_table for el in row for c in el)
    if n * top >= NORM_PRODUCT_BOUND or not len(v):
        return np.zeros(len(v), dtype=np.int64), np.zeros(len(v), dtype=bool)
    size = np.abs(alpha).max(axis=1)
    fits = size <= (NORM_PRODUCT_BOUND - 1) // (n * max(top, 1))
    # M(alpha)[i][k] = sum_j alpha_j table[i][j][k], as mul_matrix
    table = np.array(F.mult_table, dtype=np.int64).transpose(1, 0, 2).reshape(n, n * n)
    mats = (np.where(fits[:, None], alpha, 0) @ table).reshape(-1, n, n)
    residues = np.concatenate(
        [linalg.det4_residues(mats[k : k + TOTALS_BLOCK]) for k in range(0, len(v), TOTALS_BLOCK)],
        axis=1,
    )
    p = np.array(linalg.DET_PRIMES, dtype=np.int64)[:, None]
    v3 = v * v % p * v % p
    p0 = linalg.DET_PRIMES[0]
    inv = np.ones_like(v)
    for bit in bin(p0 - 2)[2:]:
        inv = inv * inv % p0
        if bit == "1":
            inv = inv * v3[0] % p0
    c = residues[0] * inv % p0
    c = np.where(c > p0 // 2, c - p0, c)
    a = alpha.astype(np.float64)
    gram = np.array(F.trace_gram, dtype=np.float64)
    trace = np.einsum("ij,jk,ik->i", a, gram, a)
    trace += TRACE_ERROR * np.einsum("ij,jk,ik->i", np.abs(a), np.abs(gram), np.abs(a))
    bound = (trace / 4) ** 2 * linalg.FLOAT_BOUND_MARGIN
    certified = (
        fits
        & (size < 2**53)
        & (c % p * v3 % p == residues).all(axis=0)
        & (np.abs(c) * v.astype(np.float64) ** 3 <= bound)
        & (2 * bound * linalg.FLOAT_BOUND_MARGIN < float(linalg.DET_MODULUS))
    )
    return np.abs(c), certified


def _fallback(cd: ConductorData, v: int, exc: FieldError) -> PrimeClassification:
    log.info("conductor %d: fast route failed at %d (%s); using classify_prime", cd.ell, v, exc)
    return classify_prime(cd, v)


_WORKER_CD = None  # this pool worker's copy of the parent's verified datum


def _worker_init(cd: ConductorData):
    global _WORKER_CD
    _WORKER_CD = cd


def _worker_count(task):
    return _count_task(_WORKER_CD, task)


def _tasks(segs, workers: int) -> list:
    """Cut the segments into runs of consecutive ones, in order: the census tasks.

    The runs differ in length by at most one segment, and each holds at
    most TASK_SEGMENTS.  Their count is the smallest multiple of the
    worker count that allows this, so that each pool worker gets as many
    tasks as the others, or one task per segment when there are fewer
    segments than that.
    """
    count = min(len(segs), workers * -(-len(segs) // (TASK_SEGMENTS * workers)))
    size, extra = divmod(len(segs), count)
    cuts = [k * size + min(k, extra) for k in range(count + 1)]
    return [segs[a:b] for a, b in zip(cuts, cuts[1:])]


def run_census(cd: ConductorData, N: int, checkpoints=None, workers: int = 1, jsonl=None):
    """Cumulative census rows at each checkpoint up to N.

    The checkpoints are `checkpoints` when given (strictly ascending,
    positive, none above N), else the table checkpoints below N followed
    by N itself.  Primes beyond the last checkpoint are never classified.
    Work is cut into fixed segments of CHUNK = 8000 integers (checkpoints
    always land on segment boundaries), so the merged rows do not depend
    on the worker count.  Consecutive segments are grouped into tasks
    (_tasks: at most TASK_SEGMENTS segments each, and as many tasks for
    each worker), and each task is classified by _count_task on two
    routes.  Its primes below LANE_BOUND = 2^30, the excluded ones aside,
    go through three stages, each run once over the task: the gate, root
    and v1 of all of them in numpy lanes, with an int8 status per prime;
    one batched float LLL over the task's v1 lattices, in all-swap rounds
    that every lattice takes in lock step, which hands its certified
    transforms on as int64 arrays, certified by their determinants
    modulo four primes below 2^31, with T v1 formed in one
    int64 product; then two lane passes: the split of every certified
    basis from its rows, whose norms are certified modulo the same
    primes, and alpha's logs, the cube characters at v_2 and both
    memberships of all the task's split primes.  A lattice the split
    lanes cannot settle exactly takes the per-prime tail _c3_verdict.
    Every prime the lanes do not take goes whole through fast_classify.
    A lattice's reduction does not depend on its batch, so the output is
    the same however the segments are grouped.  Pool workers receive cd
    itself, never reload the conductor, and take one task at a time.  A
    task returns the C3 records of each of its segments; _merge_segments
    counts them and, with `jsonl` (a path, or "-" for stdout), writes
    them in order as each segment is merged, so a census holds one
    task's records at a time.  A prime at which either fast route raises
    FieldError (a zero character at v_2 included), or whose float
    reduction is not certified, is classified by classify_prime; the
    number of such fallbacks is logged at the end.
    VerificationError("root") aborts the census.
    """
    cps = _checkpoints_for(N, checkpoints)
    limit = cps[-1]
    segs = _segments(limit, cps)

    if jsonl is None:
        sink = contextlib.nullcontext(None)
    elif jsonl == "-":
        sink = contextlib.nullcontext(sys.stdout)
    else:
        sink = open(jsonl, "w")
    with sink as out:
        tasks = _tasks(segs, max(workers, 1))
        if workers <= 1:
            results = (_count_task(cd, task) for task in tasks)
            return _merge_segments(cd, segs, results, cps, out)
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init, initargs=(cd,)
        ) as pool:
            results = pool.map(_worker_count, tasks)
            return _merge_segments(cd, segs, results, cps, out)


def _merge_segments(cd, segs, results, cps, out):
    """Fold the segment results in order into checkpoint rows.

    `results` yields each task's list of segment results, in order: one
    (records, classified, fallbacks) per segment of `segs`.  The one place
    where verdicts are counted: each segment's C3 records add to c3,
    lambda, taubar and both, and go to `out` (when given) as JSONL lines
    as the segment is merged, so the lines of every finished task are
    written before the next task's results are read.  The segments'
    fallbacks to classify_prime are summed and logged.
    """
    rows = []
    c3 = cl = ct = cb = done = fallbacks = 0
    cps_left = list(cps)
    for (lo, hi), (records, sdone, sfall) in zip(segs, itertools.chain.from_iterable(results)):
        for _v, in_lambda, in_taubar in records:
            cl += in_lambda
            ct += in_taubar
            cb += in_lambda and in_taubar
        c3 += len(records)
        done += sdone
        fallbacks += sfall
        if out is not None and records:
            out.write("".join(
                '{"v": %d, "lambda": %s, "taubar": %s}\n' % (v, str(lam).lower(), str(tau).lower())
                for v, lam, tau in records
            ))
            out.flush()
        if cps_left and hi == cps_left[0]:
            cps_left.pop(0)
            rows.append(CensusRow(hi, c3, cl, ct, cb, done))
            log.info(
                "conductor %d: n=%d |C3|=%d lambda=%d taubar=%d both=%d",
                cd.ell, hi, c3, cl, ct, cb,
            )
    if fallbacks:
        log.warning(
            "conductor %d: %d fallback(s) to classify_prime after the fast route failed",
            cd.ell, fallbacks,
        )
    return rows


# ---------------------------------------------------------------------------
# Conductor scan and the composite-conductor cross-check.


@dataclass(frozen=True)
class ScanRow:
    ell: int
    h: int
    two_rank: int
    shanks_a: object  # the a with ell = a^2 + 3a + 9, or None
    passes: bool  # 4 | h(L); the quartic-side conditions are external


def scan_conductors(max_ell: int):
    """Screen all prime conductors = 1 mod 3 up to max_ell by 4 | h(L).

    Conditions on the quartic side of the classification are not decided here
    and are reported as external by the CLI.
    """
    if max_ell > 2000:
        raise ValueError("conductor scan is sized for max_ell <= 2000")
    rows = []
    for ell in arith.primes_upto(max_ell):
        if ell % 3 != 1:
            continue
        cg = class_group(cubic_subfield(ell))
        rows.append(ScanRow(ell, cg.h, two_rank(cg), shanks_param(ell), cg.h % 4 == 0))
    return rows


@dataclass(frozen=True)
class DiagonalField:
    poly: tuple
    disc: int
    h: int
    two_rank: int


@dataclass(frozen=True)
class DiagonalReport:
    ell1: int
    ell2: int
    fields: tuple  # the two diagonal cubic fields, by increasing b
    rank_obstructed: bool  # both 2-ranks below 2


def diagonal_check(ell1: int, ell2: int) -> DiagonalReport:
    """Class data of the two diagonal cubics of conductor m = ell1 * ell2.

    Of the four cyclic cubic fields in Q(zeta_m), the two of full
    conductor m are the diagonal ones.  They correspond to the
    representations 4m = a^2 + 27 b^2 with a = 1 mod 3 and b > 0 (Cohen,
    GTM 138, 6.4.2), found by the search that fields.period_cubic also
    reads (arith.cubic_reps), and are listed by increasing b.  Each (a, b)
    gives x^3 - x^2 + ((1 - m)/3) x + (m (a + 3) - 1)/27, whose roots are
    the field's Gaussian periods.  A representation count other than
    two, a constant term not divisible by 27 or a field
    discriminant other than m^2 raises a VerificationError.
    """
    for ell in (ell1, ell2):
        if not arith.is_prime(ell) or ell % 3 != 1:
            raise VerificationError("conductor", f"{ell} is not a prime = 1 mod 3")
    if ell1 == ell2:
        raise VerificationError("conductor", "diagonal check needs distinct conductors")
    m = ell1 * ell2
    reps = arith.cubic_reps(m)
    if len(reps) != 2:
        raise VerificationError(
            "diagonal-reps", f"{len(reps)} representations 4*{m} = a^2 + 27 b^2, expected two"
        )
    fields = []
    for a, b in reps:
        c0, rem = divmod(m * (a + 3) - 1, 27)
        if rem:
            raise VerificationError(
                "diagonal-poly", f"constant term of the cubic for b = {b} is not integral"
            )
        K = new_number_field((c0, (1 - m) // 3, -1, 1))
        if K.disc != m * m:
            raise VerificationError(
                "diagonal-disc",
                f"cubic for b = {b} has field discriminant {K.disc}, expected {m}^2",
            )
        cg = class_group(K)
        fields.append(DiagonalField(K.poly, K.disc, cg.h, two_rank(cg)))
    return DiagonalReport(ell1, ell2, tuple(fields), all(f.two_rank < 2 for f in fields))
