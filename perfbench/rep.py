"""One repetition: one conductor of one workload, in a fresh interpreter.

run.py starts this script once per conductor and repetition, so every
repetition begins with cold module state (rayclass keeps a module-level
wild-block cache that would otherwise outlive load_conductor).

    python3 perfbench/rep.py SPEC_JSON OUT_JSON

SPEC_JSON names the workload, the conductor, the workload's sizes, the
CPU the repetition is pinned to and the CPUs the census pool may use;
the result goes to OUT_JSON.  Every output is checked against an
independent reference: the golden checkpoint tables, the shipped INI
polynomials, or the other classifier route.  A failed check or an
exception is counted as a failed operation, never raised.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import calib

# The kernel's processes start before the package is imported (see calib.Sampler).
SAMPLER = calib.Sampler(json.loads(sys.argv[1]).get("cpus", ()))

import a4census as pkg  # noqa: E402
from a4census import arith, config, stats  # noqa: E402

now = time.perf_counter
# Time this interpreter spent waiting for the reference kernel; run.py
# leaves it out of the wall time, and body_s leaves it out here.
kernel_total_s = 0.0


def kernel_sample(cpus) -> dict:
    """SAMPLER.sample(cpus), timed into kernel_total_s."""
    global kernel_total_s
    t = now()
    out = SAMPLER.sample(cpus)
    kernel_total_s += now() - t
    return out


class Checks:
    """Operations attempted and failed, with a reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def fail_all(self, n: int, what: str):
        self.attempted += n
        self.failures.extend([what] * n)


def golden_checks(checks: Checks, ell: int, rows, bound: int):
    """Diff the rendered census rows byte for byte against the golden table."""
    golden = config.golden_rows(ell)
    want = [ln for ln in golden[1:] if int(ln.split(",")[0]) <= bound]
    got = stats.census_csv(rows).splitlines()
    checks.check(got[0] == golden[0], f"{ell}: CSV header differs from the golden table")
    mine = got[1:]
    for i, gold in enumerate(want):
        line = mine[i] if i < len(mine) else None
        checks.check(line == gold, f"{ell}: row {line!r} != golden {gold!r}")
    if len(mine) > len(want):
        checks.fail_all(len(mine) - len(want), f"{ell}: rows beyond the golden checkpoints")


def planned_golden(ell: int, bound: int) -> int:
    return 1 + sum(1 for ln in config.golden_rows(ell)[1:] if int(ln.split(",")[0]) <= bound)


def cache_state(path: Path) -> dict:
    files = sorted(path.glob("*.json")) if path.is_dir() else []
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()[:16] for f in files}


def census_rep(spec, checks, rec):
    """Warm-cache load, then the census to a golden checkpoint."""
    ell, bound = spec["ell"], spec["max_v"]
    cpu = spec["cpu"]
    # The pool's workers inherit this interpreter's CPU set: they get
    # every CPU, and the interpreter goes back to its one CPU after.
    pool_cpus = spec["cpus"] if spec["workers"] > 1 else [cpu]
    try:
        k0 = kernel_sample([cpu])
        t = now()
        cd = pkg.load_conductor(pkg.Config(ell=ell))
        rec["setup_s"] = now() - t
        k1 = kernel_sample([cpu])
        rec["kernel_s"] = {"setup": {cpu: [k0[cpu], k1[cpu]]}}
        before = k1 if pool_cpus == [cpu] else kernel_sample(pool_cpus)
        os.sched_setaffinity(0, pool_cpus)
        t = now()
        rows = pkg.run_census(cd, bound, workers=spec["workers"])
        rec["classify_s"] = now() - t
        os.sched_setaffinity(0, {cpu})
        after = kernel_sample(pool_cpus)
        rec["kernel_s"]["classify"] = {c: [before[c], after[c]] for c in pool_cpus}
    except Exception:
        rec["error"] = traceback.format_exc()
        checks.fail_all(planned_golden(ell, bound), f"{ell}: exception in the census")
        return
    rec["rate_primes"] = rows[-1].n_classified
    rec["rate_s"] = rec["classify_s"]
    golden_checks(checks, ell, rows, bound)


def cold_load(ell: int, checks: Checks, rec):
    """Load from an empty cache; check the datum against the shipped one."""
    t = now()
    cd = pkg.load_conductor(pkg.Config(ell=ell))
    rec["setup_s"] = now() - t
    shipped = pkg.shipped_config(ell)
    checks.check(
        cd.L.poly == tuple(shipped.cubic_poly)
        and cd.F.poly == tuple(shipped.quartic_poly)
        and cd.cg_L.h == 4
        and cd.cg.h % 3 != 0,
        f"{ell}: cold-built datum (L, F, h(L) = 4, 3 prime to h(F)) differs from the shipped one",
    )
    cache = Path(os.environ[config.CACHE_ENV])
    checks.check((cache / f"conductor_{ell}.json").exists(), f"{ell}: the cold load wrote no cache record")
    return cd


def crosscheck_rep(spec, checks, rec):
    """Cold load, then both classifier routes on the primes from `start`
    up to the c3_primes-th C3 prime."""
    ell, cpu = spec["ell"], spec["cpu"]
    try:
        k0 = kernel_sample([cpu])[cpu]
        cd = cold_load(ell, checks, rec)
        k1 = kernel_sample([cpu])[cpu]
    except Exception:
        rec["error"] = traceback.format_exc()
        checks.fail_all(2, f"{ell}: exception in the cold load")
        return
    ref_ms, fast_us = [], []
    classify_s = c3_s = 0.0
    c3 = 0
    lo = spec["start"]
    # The window ends after a fixed number of C3 primes, because those
    # carry the cost; the cap only stops a run whose routes keep failing.
    cap = 20 * spec["c3_primes"]
    while c3 < spec["c3_primes"] and checks.attempted < cap:
        for v in arith.primes_in_range(lo, lo + 1000):
            try:
                t0 = now()
                ref = pkg.classify_prime(cd, v)
                t1 = now()
                fast = pkg.fast_classify(cd, v)
                t2 = now()
            except Exception:
                rec["error"] = traceback.format_exc()
                checks.check(False, f"{ell}: exception at v = {v}")
                continue
            checks.check(ref == fast, f"{ell}: routes disagree at v = {v}: {ref} vs {fast}")
            classify_s += t2 - t0
            if ref.in_C3:
                c3 += 1
                c3_s += t2 - t0
                ref_ms.append((t1 - t0) * 1e3)
                fast_us.append((t2 - t1) * 1e6)
                if c3 == spec["c3_primes"]:
                    rec["last_v"] = v
                    break
        lo += 1000
    rec["classify_s"] = classify_s
    rec["kernel_s"] = {"setup": {cpu: [k0, k1]}, "classify": {cpu: [k1, kernel_sample([cpu])[cpu]]}}
    rec["rate_primes"] = c3
    rec["rate_s"] = c3_s
    rec["ref_ms"] = ref_ms
    rec["fast_us"] = fast_us


def fill_cache(spec, checks, rec):
    """Cold-load every conductor so that its cache record exists."""
    cache = Path(os.environ[config.CACHE_ENV])
    for ell in spec["ells"]:
        try:
            pkg.load_conductor(pkg.Config(ell=ell))
        except Exception:
            rec["error"] = traceback.format_exc()
        checks.check((cache / f"conductor_{ell}.json").exists(), f"{ell}: cache fill wrote no record")


KINDS = {"census": census_rep, "crosscheck": crosscheck_rep, "fill": fill_cache}


def main() -> int:
    spec = json.loads(sys.argv[1])
    out = Path(sys.argv[2])
    src = Path(spec["src"]).resolve()
    if Path(pkg.__file__).resolve().parent.parent != src:
        print(f"rep: imported a4census from {pkg.__file__}, not from {src}", file=sys.stderr)
        return 2
    cache = Path(os.environ[config.CACHE_ENV])
    rec = {"ell": spec.get("ell"), "cache_before": cache_state(cache)}
    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer(worker_dir=str(out.parent))
        tracing.install(tracer)
    checks = Checks()
    t = now()
    KINDS[spec["kind"]](spec, checks, rec)
    rec["body_s"] = now() - t - kernel_total_s
    rec["kernel_total_s"] = kernel_total_s
    rec["cache_after"] = cache_state(cache)
    rec["attempted"] = checks.attempted
    rec["failures"] = checks.failures
    # The pool's workers are the only children that have ended; each
    # counts at the largest one's peak.
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rec["peak_rss_mb"] = (kib + spec.get("workers", 1) * child_kib) / 1024
    if tracer is not None:
        workers = []
        for path in sorted(out.parent.glob("worker-*.json")):
            workers.append(json.loads(path.read_text()))
            path.unlink()
        rec["trace"] = {"spans": tracer.spans, "counts": tracer.counts, "workers": workers}
    out.write_text(json.dumps(rec))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        SAMPLER.close()
    sys.exit(code)
