"""Outside-in tracing of the a4census package.

The tracer wraps package functions from outside: nothing under src/
changes.  Each wrapped function records a span (name, start, end,
parent) in memory.  A function is replaced in every module namespace
that holds it, because callers look names up where they imported them:
census does `from .arith import pm_pow_xn`, so replacing only
`arith.pm_pow_xn` would record nothing for the census.  Methods are
replaced on their class.

Recursive calls record only the outermost span.  A span's self time is
its duration minus the time covered by its child spans, so the self
times of one process add up to the time its root spans cover.

Pool workers of `run_census(..., workers=N)` are forked from the traced
process and inherit the wrappers.  Each worker starts an empty span
list and writes it to `worker_dir` when it exits.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from multiprocessing import util as mp_util

# (module, qualified name) of each function that gets a span, listed by
# the layer it belongs to.  census.load_conductor, census.run_census,
# census.classify_prime and census.fast_classify are the entry points the
# benchmark calls; their self time is the part of them no deeper span
# explains.
SPANNED = (
    ("census", "load_conductor"),
    ("census", "run_census"),
    ("census", "classify_prime"),
    ("census", "fast_classify"),
    ("census", "_certificate"),
    ("census", "_worker_init"),
    ("arith", "pm_pow_xn"),
    ("arith", "pm_gcd"),
    ("arith", "factorize"),
    ("arith", "factor_poly_mod_p"),
    ("linalg", "lll_gram"),
    ("linalg", "short_vectors"),
    ("linalg", "smith_normal_form"),
    ("linalg", "hnf"),
    ("fields", "cubic_subfield"),
    ("fields", "quartic_field_search"),
    ("fields", "factor_rational_prime"),
    ("fields", "ideal_from_elements"),
    ("fields", "element_valuation"),
    ("classgroup", "class_group"),
    ("classgroup", "unit_group"),
    ("classgroup", "saturate_units_at_3"),
    ("classgroup", "ideal_class_coordinates"),
    ("rayclass", "ray_class_3_quotient"),
    ("rayclass", "artin_vector"),
    ("rayclass", "modulus_stability_check"),
    ("rayclass", "WildBlock.philog"),
    ("rayclass", "TameBlock.philog"),
    ("config", "cache_read"),
    ("config", "cache_write"),
)
SPAN_NAMES = tuple(f"{mod}.{qual}" for mod, qual in SPANNED)

FAST = "census.fast_classify"
CERT = "census._certificate"
CLASS_COORDS = "classgroup.ideal_class_coordinates"
WORKER_SETUP = "census._worker_init"

# Counters taken from a wrapped function's return value.
_RESULT_COUNTERS = {
    FAST: ("c3_primes", lambda pc: bool(pc.in_C3)),
    "config.cache_read": ("cache_hits", lambda rec: rec is not None),
}


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self, worker_dir=None):
        self.worker_dir = worker_dir
        self._reset()
        mp_util.register_after_fork(self, Tracer._in_pool_worker)

    def _reset(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or None]
        self.stack = []  # indices of open spans
        self.open = Counter()  # name -> open spans of that name
        self.counts = Counter()

    def _in_pool_worker(self):
        self._reset()
        mp_util.Finalize(None, self._dump_worker, exitpriority=10)

    def _dump_worker(self):
        if self.worker_dir is None:
            return
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "spans": self.spans, "counts": self.counts}, fh)

    def call(self, name, fn, args, kwargs):
        if self.open[name]:
            return fn(*args, **kwargs)
        rec = [name, 0, 0, self.stack[-1] if self.stack else None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.open[name] += 1
        rec[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter_ns()
            self.open[name] -= 1
            self.stack.pop()
        counter = _RESULT_COUNTERS.get(name)
        if counter is not None and counter[1](result):
            self.counts[counter[0]] += 1
        return result

    def innermost(self):
        return self.spans[self.stack[-1]][0] if self.stack else None


def _span_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return wrapper


def install(tracer: Tracer, package: str = "a4census"):
    """Wrap every SPANNED function, and count split candidates.

    A split candidate is a NumberField.el_norm call made directly inside
    fast_classify (its certified split tries lattice elements by norm);
    norms taken inside a certificate search sit under the
    census._certificate span and are not counted.
    """
    __import__(package)
    modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
    for (modname, qual), name in zip(SPANNED, SPAN_NAMES):
        mod = sys.modules[f"{package}.{modname}"]
        if "." in qual:
            cls_name, meth = qual.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, _span_wrapper(tracer, name, cls.__dict__[meth]))
            continue
        orig = getattr(mod, qual)
        wrapper = _span_wrapper(tracer, name, orig)
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, wrapper)

    field_cls = sys.modules[f"{package}.fields"].NumberField
    el_norm = field_cls.el_norm

    @functools.wraps(el_norm)
    def counted_el_norm(self, a):
        if tracer.innermost() == FAST:
            tracer.counts["split_candidates"] += 1
        return el_norm(self, a)

    field_cls.el_norm = counted_el_norm


def layer_table(spans):
    """name -> [calls, self_ns] over one process's spans."""
    child_ns = defaultdict(int)
    for _name, start, end, parent in spans:
        if parent is not None:
            child_ns[parent] += end - start
    table = {name: [0, 0] for name in SPAN_NAMES}
    for i, (name, start, end, _parent) in enumerate(spans):
        row = table[name]
        row[0] += 1
        row[1] += end - start - child_ns[i]
    return table


def cert_misses(spans) -> int:
    """Certificate lookups that had to compute ideal class coordinates."""
    return sum(
        1
        for name, _s, _e, parent in spans
        if name == CLASS_COORDS and parent is not None and spans[parent][0] == CERT
    )


def worker_setup_ns(spans) -> int:
    return sum(end - start for name, start, end, _p in spans if name == WORKER_SETUP)
