"""The benchmark tracer's span list against the package.

perfbench/tracing.py wraps each SPANNED function by module and qualified
name.  A function that is deleted or renamed in the package would break
only a traced benchmark run, so the names are resolved here.  The file
is imported read-only and no tracer is installed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_spanned_name_resolves_in_the_package():
    tracing = _load_tracing()
    assert tracing.SPANNED
    missing = []
    for modname, qual in tracing.SPANNED:
        obj = importlib.import_module(f"a4census.{modname}")
        for part in qual.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{modname}.{qual}")
    assert missing == []
