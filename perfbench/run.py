"""Benchmark of the a4census package: census and cold-load workloads, checked outputs.

    python3 perfbench/run.py --workload census_jobs2 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 1

Run it from the repository root; it imports the package from src/.  A
repetition runs every conductor of the workload, each in a fresh
interpreter (perfbench/rep.py).  Repetitions go on until the next one
would end after --seconds, and at least two run.  With --trace 0 the
last line of standard output is a JSON object with the end-to-end
metrics, medians over the repetitions; the lines before it give every
metric with its quartiles.  Times are scaled to a reference speed of
the machine, measured around every timed phase (see calib.py); the raw
medians are printed as well.  With --trace 1 the repetitions alternate
untraced and traced, and the JSON line carries the per-layer metrics
of the traced ones (see tracing.py) and the tracing overhead.

Any failed check makes the run exit 1 and print no metrics.  Caches,
per-repetition records, results and spans go to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))
import calib  # noqa: E402
import tracing  # noqa: E402

CONDUCTORS = (163, 277, 349)
CENSUS_BOUND = 50_000  # a golden checkpoint; rows at 10^3, 5*10^3 and 5*10^4 are diffed
CROSS_BASE = 10**6
CROSS_OFFSETS = 100_000  # the seed picks the window start in [10^6, 10^6 + 10^5)
CROSS_C3 = 20  # C3 primes per conductor in the crosscheck window
REP_TIMEOUT = 150
MIN_REPETITIONS = 2
# One line per span in the spans file; parent is the index of the parent
# span in the same process, or null.
SPAN_FIELDS = ("repetition", "ell", "process", "id", "name", "start_ns", "end_ns", "parent")


CPUS = sorted(os.sched_getaffinity(0))


def nproc() -> int:
    return len(CPUS)


# The census workloads run one conductor: a census to 5*10^4 takes about
# 3 s, and a run needs many repetitions of each conductor for its
# medians to hold still.  BENCHMARK.json lists census_jobs2 and
# cold_crosscheck; census_serial is the serial reference for the
# parallel speed-up and is not in it.
CENSUS_CONDUCTORS = (277,)

WORKLOADS = {
    "census_serial": {"kind": "census", "ells": CENSUS_CONDUCTORS, "max_v": CENSUS_BOUND, "workers": 1},
    "census_jobs2": {
        "kind": "census",
        "ells": CENSUS_CONDUCTORS,
        "max_v": CENSUS_BOUND,
        "workers": min(2, nproc()),
    },
    "cold_crosscheck": {"kind": "crosscheck", "ells": CONDUCTORS, "c3_primes": CROSS_C3},
}

END_TO_END = {
    "setup_s": "s",
    "classify_s": "s",
    "wall_s": "s",
    "primes_per_s": "1/s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# Facts recorded with every result.


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "a4census").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return out.stdout.strip() or None


def machine_facts() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# Repetitions.


class RepFailed(RuntimeError):
    pass


def run_rep(spec: dict, cache: Path, out: Path) -> dict:
    """Run rep.py once; returns its record with the wall time added."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["A4CENSUS_CACHE"] = str(cache)
    env["PYTHONHASHSEED"] = "0"
    out.parent.mkdir(parents=True, exist_ok=True)
    err_path = out.with_suffix(".stderr")
    spec = dict(spec, src=str(SRC))
    with open(err_path, "w") as err:
        t = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "rep.py"), json.dumps(spec), str(out)],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=err,
            stderr=err,
            start_new_session=True,
            # The serial work runs on one CPU, whose speed scale() uses.
            preexec_fn=(lambda: os.sched_setaffinity(0, {spec["cpu"]})) if "cpu" in spec else None,
        )
        try:
            code = proc.wait(timeout=REP_TIMEOUT)
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        wall = time.perf_counter() - t
    if code != 0 or not out.exists():
        raise RepFailed(f"rep {spec} exited {code}:\n{err_path.read_text()[-3000:]}")
    rec = json.loads(out.read_text())
    rec["wall_s"] = wall - rec["kernel_total_s"]
    return rec


def warm_cache() -> Path:
    """A cache filled by cold loads of every conductor, keyed by the source."""
    cache = WORK / f"cache-warm-{source_digest()[:16]}"
    if all((cache / f"conductor_{ell}.json").exists() for ell in CONDUCTORS):
        return cache
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir(parents=True)
    rec = run_rep({"kind": "fill", "ells": CONDUCTORS}, cache, WORK / "fill" / "fill.json")
    if rec["failures"]:
        raise RepFailed(f"cache fill failed: {rec['failures']} {rec.get('error', '')}")
    return cache


def scale(rec: dict) -> dict:
    """The record's times at the reference speed (see calib.py).

    A phase's speed on a CPU is REFERENCE_S over the mean of the
    kernel's times on it just before and just after the phase; a phase
    that ran on several CPUs (the census pool) takes their mean speed.
    The rest of the interpreter's wall time is scaled like the set-up.
    """
    factor = {
        phase: statistics.fmean(calib.REFERENCE_S / statistics.fmean(k) for k in cpus.values())
        for phase, cpus in rec["kernel_s"].items()
    }
    classify = rec["classify_s"] * factor["classify"]
    return {
        "setup_s": rec["setup_s"] * factor["setup"],
        "classify_s": classify,
        "wall_s": (rec["wall_s"] - rec["classify_s"]) * factor["setup"] + classify,
        "rate_s": rec["rate_s"] * factor["classify"],
    }


def repetition(name: str, seed: int, traced: bool, index: int, run_dir: Path, warm: Path) -> list:
    """One repetition: every conductor of the workload, each in its own
    interpreter, with its serial work pinned to the next CPU in turn."""
    wl = WORKLOADS[name]
    recs = []
    for i, ell in enumerate(wl["ells"]):
        cpu = CPUS[(index * len(wl["ells"]) + i) % len(CPUS)]
        spec = dict(wl, ell=ell, trace=traced, cpu=cpu, cpus=CPUS)
        cache = warm
        if wl["kind"] == "crosscheck":
            cache = WORK / "cache-cold"
            shutil.rmtree(cache, ignore_errors=True)
            cache.mkdir(parents=True)
            spec["start"] = CROSS_BASE + random.Random(seed).randrange(CROSS_OFFSETS)
        rec = run_rep(spec, cache, run_dir / f"rep{index}-{ell}.json")
        rec.update(repetition=index, traced=traced, cache=cache.name, cpu=cpu)
        recs.append(rec)
        if rec["failures"]:
            break
        rec["scaled"] = scale(rec)
    return recs


# ---------------------------------------------------------------------------
# Metrics.


def quartiles(values):
    """(q1, median, q3) of the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def by_conductor(reps) -> dict:
    groups = defaultdict(list)
    for recs in reps:
        for r in recs:
            groups[r["ell"]].append(r)
    return groups


def summed_quartiles(groups, key, combine=sum, times="scaled"):
    """Quartiles of `key` over each conductor's repetitions, combined over conductors."""
    qs = [quartiles([(r[times] if times else r)[key] for r in recs]) for recs in groups.values()]
    return tuple(combine(q[i] for q in qs) for i in range(3))


def end_to_end(reps, times="scaled") -> dict:
    """Each conductor's median over the repetitions, summed over the conductors.

    Times are the scaled ones (see scale()), or the raw ones with times=None.
    """
    groups = by_conductor(reps)
    figures = {key: summed_quartiles(groups, key, times=times) for key in ("setup_s", "classify_s", "wall_s")}
    figures["peak_rss_mb"] = summed_quartiles(groups, "peak_rss_mb", max, times=None)
    primes = sum(recs[0]["rate_primes"] for recs in groups.values())
    q1, med, q3 = summed_quartiles(groups, "rate_s", times=times)
    figures["primes_per_s"] = (primes / q3, primes / med, primes / q1)
    out = {}
    for name, unit in END_TO_END.items():
        q1, med, q3 = figures[name]
        out[name] = {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(reps)}
    return out


def latencies(reps) -> dict:
    """Per-C3-prime latency of each route, pooled over the repetitions."""
    out = {}
    for key, unit in (("ref_ms", "ms"), ("fast_us", "us")):
        samples = [x for recs in reps for r in recs for x in r.get(key, ())]
        if len(samples) < 20:
            continue
        deciles = statistics.quantiles(samples, n=10, method="inclusive")
        out[f"{key}_p50"] = {"value": statistics.median(samples), "unit": unit, "n": len(samples)}
        out[f"{key}_p90"] = {"value": deciles[8], "unit": unit, "n": len(samples)}
    return out


def layer_metrics(recs) -> dict:
    """Per-layer metrics of traced repetition records, summed over them."""
    table = {name: [0, 0] for name in tracing.SPAN_NAMES}
    counts = {}
    misses = setup_ns = main_self_ns = 0
    for r in recs:
        tr = r["trace"]
        for i, spans in enumerate([tr["spans"]] + [w["spans"] for w in tr["workers"]]):
            for name, (calls, self_ns) in tracing.layer_table(spans).items():
                table[name][0] += calls
                table[name][1] += self_ns
                if i == 0:
                    main_self_ns += self_ns
            misses += tracing.cert_misses(spans)
            setup_ns += tracing.worker_setup_ns(spans)
        for c in [tr["counts"]] + [w["counts"] for w in tr["workers"]]:
            for k, v in c.items():
                counts[k] = counts.get(k, 0) + v
    body_s = sum(r["body_s"] for r in recs)
    lookups = table[tracing.CERT][0]
    out = {}
    for name, (calls, self_ns) in table.items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_ns / 1e9, "s")
    c3 = counts.get("c3_primes", 0)
    out["census.split_candidates_per_c3"] = (
        counts.get("split_candidates", 0) / c3 if c3 else 0.0,
        "count/prime",
    )
    out["census.cert_lookups"] = (lookups, "count")
    out["census.cert_misses"] = (misses, "count")
    out["census.cert_hit_ratio"] = (1 - misses / lookups if lookups else 0.0, "ratio")
    out["census.pool.worker_setup_s"] = (setup_ns / 1e9, "s")
    out["config.cache_hits"] = (counts.get("cache_hits", 0), "count")
    # Self times of the traced process add up to the time its root spans
    # cover; the rest of the traced body is benchmark code between calls.
    out["trace.coverage"] = (main_self_ns / 1e9 / body_s, "ratio")
    return out


def per_layer(traced_reps, untraced_reps) -> dict:
    """Layer metrics of each conductor's median traced repetition, and the overhead."""
    traced = by_conductor(traced_reps)
    untraced = by_conductor(untraced_reps)
    chosen = [sorted(recs, key=lambda r: r["body_s"])[(len(recs) - 1) // 2] for recs in traced.values()]
    out = {name: {"value": v, "unit": unit} for name, (v, unit) in layer_metrics(chosen).items()}
    # Scaled wall times: raw ones move more with the machine than with tracing.
    t = sum(statistics.median(r["scaled"]["wall_s"] for r in recs) for recs in traced.values())
    u = sum(statistics.median(r["scaled"]["wall_s"] for r in recs) for recs in untraced.values())
    out["trace.overhead"] = {"value": t / u - 1, "unit": "ratio"}
    return out


# ---------------------------------------------------------------------------
# One run.


def cache_summary(name: str, records) -> dict:
    """The field cache each repetition started from, and what it held after."""
    before = {len(r["cache_before"]) for r in records}
    after = {len(r["cache_after"]) for r in records}
    cold = WORKLOADS[name]["kind"] == "crosscheck"
    return {
        "dir": sorted({r["cache"] for r in records}),
        "state": "emptied before each repetition" if cold else "filled before the run",
        "records_before": sorted(before),
        "records_after": sorted(after),
    }



def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    run_id = f"{name}-seed{seed}-trace{int(trace)}-{stamp}"
    run_dir = WORK / "runs" / run_id
    warm = warm_cache() if WORKLOADS[name]["kind"] == "census" else None
    reps = []
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        t = time.perf_counter()
        recs = repetition(name, seed, traced, len(reps), run_dir, warm)
        took = time.perf_counter() - t
        reps.append(recs)
        failed = any(r["failures"] for r in recs)
        if failed:
            break
        if len(reps) >= MIN_REPETITIONS and time.perf_counter() - start + took > seconds:
            break
    measured_s = time.perf_counter() - start

    records = [r for recs in reps for r in recs]
    attempted = sum(r["attempted"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    result = {
        "run": run_id,
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "measured_s": measured_s,
        "machine": machine_facts(),
        "sizes": {k: v for k, v in WORKLOADS[name].items() if k not in ("kind", "ells")},
        "conductors": WORKLOADS[name]["ells"],
        "cache": cache_summary(name, records),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "errors": [r["error"] for r in records if "error" in r],
    }
    untraced = [recs for recs in reps if not recs[0]["traced"]]
    traced_reps = [recs for recs in reps if recs[0]["traced"]]
    if not failures:
        result["end_to_end"] = end_to_end(untraced)
        result["raw"] = end_to_end(untraced, times=None)
        result["latency"] = latencies(untraced)
        if traced_reps:
            result["per_layer"] = per_layer(traced_reps, untraced)
    spans = []
    for r in records:
        tr = r.pop("trace", None)
        if tr is None:
            continue
        procs = [("main", tr["spans"])] + [(w["pid"], w["spans"]) for w in tr["workers"]]
        for proc, proc_spans in procs:
            for i, span in enumerate(proc_spans):
                spans.append([r["repetition"], r["ell"], proc, i] + span)
    for r in records:
        r.pop("ref_ms", None), r.pop("fast_us", None)
    result["repetitions"] = records
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    if spans:
        result["spans_file"] = f"{run_id}.spans.jsonl"
        with open(results / result["spans_file"], "w") as fh:
            fh.write(json.dumps({"workload": name, "fields": SPAN_FIELDS}) + "\n")
            for s in spans:
                fh.write(json.dumps(s) + "\n")
    (results / f"{run_id}.json").write_text(json.dumps(result, indent=1))
    shutil.rmtree(run_dir, ignore_errors=True)
    return result


def report(result: dict) -> dict:
    """Print the metrics by name and return the JSON result line."""
    print(
        f"workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}  "
        f"conductors {' '.join(map(str, result['conductors']))}  nproc {result['machine']['nproc']}"
    )
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {},
    }
    m = result["machine"]
    print(
        f"  python {m['python']}  numpy {m['numpy']}  mpmath {m['mpmath']}  "
        f"commit {m['git_commit'] or '-'}  source {m['source_sha256'][:16]}"
    )
    c = result["cache"]
    print(
        f"  cache {' '.join(c['dir'])}: {c['state']}, records before {c['records_before']}, "
        f"after {c['records_after']}"
    )
    print(f"  fail_ratio {result['failed']}/{result['attempted']}")
    if result["failed"]:
        for f in result["failures"][:20]:
            print(f"FAILED: {f}", file=sys.stderr)
        for e in result["errors"][:3]:
            print(e, file=sys.stderr)
        return line
    for name, m in {**result["end_to_end"], **result["latency"]}.items():
        spread = f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}]" if "q1" in m else ""
        print(f"  {name} {m['value']:.6g} {m['unit']}{spread}  n={m['n']}")
    print("  unscaled:", "  ".join(f"{k} {m['value']:.6g}" for k, m in result["raw"].items() if k != "peak_rss_mb"))
    if result["trace"]:
        for name, m in result["per_layer"].items():
            print(f"  {name} {m['value']:.6g} {m['unit']}")
        line["metrics"] = {k: {"value": m["value"], "unit": m["unit"]} for k, m in result["per_layer"].items()}
    else:
        line["metrics"] = {
            k: {"value": m["value"], "unit": m["unit"]} for k, m in result["end_to_end"].items()
        }
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated run still kills the repetition it is waiting on (run_rep's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "a4census" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'a4census'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        try:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
        except RepFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        line = report(result)
        if not line["correct"]:
            status = 1
        print(json.dumps(line))
    return status


if __name__ == "__main__":
    sys.exit(main())
