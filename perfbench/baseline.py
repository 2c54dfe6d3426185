"""Measure the baseline: two sets of ten seeds per workload, and one traced run.

    python3 perfbench/baseline.py [--seconds 55] [--workloads census_jobs2 cold_crosscheck]

Run it from the repository root.  For each workload it runs run.py once
per seed of set A (201-210), then once per seed of set B (301-310), each
with --trace 0, then once with --trace 1 (seed 401).  It writes
perfbench/baseline.json: per set and metric the median over the runs,
spread = (q3 - q1) / median (statistics.quantiles, n=4), and every run's
value; the share by which set B's median is worse than set A's; the
unscaled (raw wall-clock) figures the same way; and the traced run's
per-layer table.  A run that fails stops it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = {"A": list(range(201, 211)), "B": list(range(301, 311))}
TRACE_SEED = 401

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int):
    """One run.py run: its JSON result line and its unscaled medians."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    unscaled = {}
    for line in lines:
        if line.strip().startswith("unscaled:"):
            words = line.split()[1:]
            unscaled = {words[i]: float(words[i + 1]) for i in range(0, len(words), 2)}
    return json.loads(lines[-1]), unscaled


def summary(values: list, unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "unit": unit, "spread": (q3 - q1) / med, "runs": values}


def worse(a: dict, b: dict) -> dict:
    """The share by which set B's median is worse than set A's, per metric."""
    out = {}
    for name, m in a.items():
        ratio = b[name]["median"] / m["median"] - 1
        out[name] = -ratio if name == "primes_per_s" else ratio
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--workloads", nargs="+", default=["census_jobs2", "cold_crosscheck"])
    args = ap.parse_args()
    workloads = {}
    for name in args.workloads:
        entry = {
            "conductors": list(run.WORKLOADS[name]["ells"]),
            "sizes": {k: v for k, v in run.WORKLOADS[name].items() if k not in ("kind", "ells")},
        }
        for set_name, seeds in SEEDS.items():
            values, raw, attempted, failed = {}, {}, 0, 0
            for seed in seeds:
                line, unscaled = bench(name, seed, args.seconds, 0)
                attempted += line["attempted"]
                failed += line["failed"]
                for metric, m in line["metrics"].items():
                    values.setdefault(metric, ([], m["unit"]))[0].append(m["value"])
                for metric, v in unscaled.items():
                    raw.setdefault(metric, ([], values[metric][1]))[0].append(v)
                print(name, set_name, seed, {k: round(m["value"], 4) for k, m in line["metrics"].items()}, flush=True)
            entry[f"set_{set_name}"] = {
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: summary(v, unit) for k, (v, unit) in values.items()},
                "unscaled": {k: summary(v, unit) for k, (v, unit) in raw.items()},
            }
            for metric, m in entry[f"set_{set_name}"]["metrics"].items():
                print(f"{name} set {set_name} {metric}: median {m['median']:.6g} spread {m['spread']:.3f}")
        entry["set_B_worse_than_set_A"] = worse(entry["set_A"]["metrics"], entry["set_B"]["metrics"])
        line, _ = bench(name, TRACE_SEED, args.seconds, 1)
        entry["per_layer"] = {"seed": TRACE_SEED, "metrics": {k: m["value"] for k, m in line["metrics"].items()}}
        workloads[name] = entry
    baseline = {
        "what": (
            "Baseline of src/ at machine.source_sha256 (machine.git_commit is the commit it was "
            "measured on), written by perfbench/baseline.py. Two sets of ten runs per workload, one "
            f"run per seed, each with --seconds {args.seconds} --trace 0. For each metric: the median "
            "over a set's runs, and spread = (q3 - q1) / median over those runs (statistics.quantiles, "
            "n=4). Times are scaled to the reference kernel's speed (calib.py); 'unscaled' has the "
            "raw wall-clock figures of the same runs. set_B_worse_than_set_A is the share by which "
            "set B's median is worse. Per-layer figures come from one --trace 1 run per workload."
        ),
        "run_seconds": args.seconds,
        "seeds": SEEDS,
        "workloads": workloads,
        "machine": run.machine_facts(),
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
