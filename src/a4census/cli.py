"""Command-line surface: scan, census, stats, simulate, verify-field, diagonal.

Exit codes: 0 success, 1 verification or data failure (message on
stderr), 2 usage error (argparse).  All parallelism lives in the
library; the CLI only forwards --jobs.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import census as census_mod
from .census import VerificationError, diagonal_check, load_conductor, run_census, scan_conductors
from .cohomology import (
    LineModel,
    balanced_preset,
    simulate_line_model,
    simulate_unramified_probability,
    wiles_difference,
)
from .config import conductor_config, golden_rows, parse_ints, read_config
from .fields import FieldError
from .stats import (
    census_csv,
    density_report,
    read_census_csv,
    render_report,
    render_table,
)

FORMATS = {"csv": "csv", "text": "txt", "jsonl": "jsonl"}  # census --format: file extension


def _load_from_args(args) -> census_mod.ConductorData:
    cfg = read_config(args.config) if getattr(args, "config", None) else conductor_config(args.ell)
    if getattr(args, "no_cache", False):
        cfg.use_cache = False
    return load_conductor(cfg)


def _job_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} workers requested, expected at least 1")
    return n


def _write_out(text: str, out):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_scan(args) -> int:
    rows = scan_conductors(args.max_ell)
    if args.format == "csv":
        lines = ["ell,h,two_rank,shanks_a,passes"]
        for r in rows:
            a = "" if r.shanks_a is None else str(r.shanks_a)
            lines.append(f"{r.ell},{r.h},{r.two_rank},{a},{str(r.passes).lower()}")
        _write_out("\n".join(lines) + "\n", args.out)
        return 0
    passing = [r for r in rows if r.passes]
    out = [f"conductor scan up to {args.max_ell}: {len(rows)} primes = 1 mod 3"]
    for r in rows:
        kind = f"Shanks (a = {r.shanks_a})" if r.shanks_a is not None else "non-Shanks"
        verdict = "passes 4 | h" if r.passes else "fails 4 | h"
        out.append(f"  ell = {r.ell:5d}  h(L) = {r.h:3d}  2-rank {r.two_rank}  {kind:18s}  {verdict}")
    out.append("passing: " + ", ".join(str(r.ell) for r in passing))
    out.append("note: the quartic-side conditions of the classification are not decided here")
    _write_out("\n".join(out) + "\n", args.out)
    return 0


def _check_golden(ell: int, produced: str) -> int:
    """Diff produced CSV rows against the shipped golden rows by n.

    Rows whose n has no golden row are named on stderr as not checked;
    they do not change the exit status.
    """
    try:
        golden = golden_rows(ell)
    except FileNotFoundError:
        print(f"error: no golden table for conductor {ell}", file=sys.stderr)
        return 1
    gold = {ln.split(",")[0]: ln for ln in golden[1:]}
    mine = {ln.split(",")[0]: ln for ln in produced.strip().splitlines()[1:]}
    shared = [n for n in mine if n in gold]
    unchecked = [n for n in mine if n not in gold]
    if unchecked:
        print(
            f"golden check: no golden row for ell = {ell} at n = {', '.join(unchecked)};"
            " not checked",
            file=sys.stderr,
        )
    if not shared:
        print("error: census rows share no checkpoint with the golden table", file=sys.stderr)
        return 1
    bad = 0
    for n in shared:
        if mine[n] != gold[n]:
            bad += 1
            print(f"golden mismatch at n = {n}:", file=sys.stderr)
            print(f"  ours:   {mine[n]}", file=sys.stderr)
            print(f"  golden: {gold[n]}", file=sys.stderr)
    if bad:
        return 1
    print(f"golden check: {len(shared)} checkpoint rows match for ell = {ell}")
    return 0


def _cmd_census(args) -> int:
    ells = args.ell or []
    configs = args.config or []
    if not ells and not configs:
        print("error: census needs --ell or --config", file=sys.stderr)
        return 2
    jobs = [read_config(path) for path in configs] + [conductor_config(ell) for ell in ells]
    # Every output target is resolved and its directory checked before the
    # first conductor loads: a census to 10^8 must not run for hours and
    # then fail to write.
    outs = []
    for cfg in jobs:
        out = args.out
        if len(jobs) > 1 or (out is not None and Path(out).is_dir()):
            out = str(Path(out or ".") / f"census_{cfg.ell}.{FORMATS[args.format]}")
        if out not in (None, "-") and not Path(out).parent.is_dir():
            print(f"error: output directory {Path(out).parent} does not exist", file=sys.stderr)
            return 1
        outs.append(out)
    cps = parse_ints(args.checkpoints) if args.checkpoints else None
    # Bad checkpoints fail here too, before any conductor loads;
    # run_census checks them again for library callers.
    census_mod._checkpoints_for(args.max_v, cps)
    status = 0
    for cfg, out in zip(jobs, outs):
        if args.no_cache:
            cfg.use_cache = False
        cd = load_conductor(cfg)
        jsonl_path = (out or "-") if args.format == "jsonl" else None
        rows = run_census(cd, args.max_v, checkpoints=cps, workers=args.jobs, jsonl=jsonl_path)
        if args.format != "jsonl":
            text = census_csv(rows) if args.format == "csv" else render_table(rows)
            _write_out(text, out)
        if args.check_golden:
            status = max(status, _check_golden(cd.ell, census_csv(rows)))
    return status


def _cmd_stats(args) -> int:
    if args.csv:
        text = Path(args.csv).read_text()
    else:
        text = "\n".join(golden_rows(args.ell)) + "\n"
    rows = read_census_csv(text)
    if not rows:
        print("error: census CSV has no rows", file=sys.stderr)
        return 1
    sys.stdout.write(render_table(rows))
    sys.stdout.write("\n")
    sys.stdout.write(render_report(density_report(rows[-1])))
    return 0


def _cmd_simulate(args) -> int:
    if args.model == "line":
        model = LineModel(args.p)
        est, (lo, hi) = simulate_line_model(args.p, args.trials, args.seed)
        exact = model.success_probability()
        print(f"line model p = {args.p}: {args.trials} draws over the {model.lines} ramified lines")
        print(f"  estimate  {est:.6f}   95% CI [{lo:.6f}, {hi:.6f}]")
        print(f"  exact     {float(exact):.6f}   ({exact})")
    else:
        freqs = simulate_unramified_probability(args.levels, args.trials, args.seed)
        print(f"unramified-at-level-n frequencies, {args.trials} draws per level")
        for n, f in enumerate(freqs, start=1):
            print(f"  n = {n}: {f:.6f}   (exact 1/3^{n} = {3**-n:.6f})")
    base = balanced_preset()
    print(f"wiles difference over the base places: {wiles_difference(0, 0, base)}")
    return 0


def _cmd_verify_field(args) -> int:
    cd = _load_from_args(args)
    h_L = cd.cg_L.h
    h_F = cd.cg.h
    lines = [
        f"conductor {cd.ell}: all verification checks passed",
        f"  cubic field   {tuple(cd.L.poly)}  disc {cd.L.disc} = {cd.ell}^2",
        f"  class group   h(L) = {h_L}, divisors {tuple(cd.cg_L.divisors)}",
        f"  quartic field {tuple(cd.F.poly)}  disc {cd.F.disc}, index {cd.F.index}",
        f"  galois        alternating on 4 letters (cubic resolvent check)",
        f"  splitting     3 = p1 * p2 with residue degrees (3, 1); "
        f"{cd.ell} = l1 * l2^3 with l2 ramified",
        f"  class group   h(F) = {h_F} (prime to 3)",
        f"  units         rank {cd.u.rank}, 3-saturated, regulator {cd.u.regulator_estimate:.6f}",
        f"  ray class     fixed-modulus quotient has dimension 1",
        f"  stability     presentation stable under modulus exponent 3",
        f"  shanks        a = {cd.shanks_a}" if cd.is_shanks else "  shanks        not of Shanks form",
        f"  load seconds  {sum(s for _, s in cd.stage_seconds):.3f} in all",
    ]
    lines += [f"    {stage:<16}{seconds:.3f}" for stage, seconds in cd.stage_seconds]
    print("\n".join(lines))
    return 0


def _cmd_diagonal(args) -> int:
    rep = diagonal_check(args.l1, args.l2)
    print(f"diagonal cubics of conductor {rep.ell1} * {rep.ell2} = {rep.ell1 * rep.ell2}")
    for f in rep.fields:
        print(f"  field {f.poly}: disc {f.disc}, h = {f.h}, 2-rank {f.two_rank}")
    verdict = "below 2 for both fields" if rep.rank_obstructed else "NOT below 2"
    print(f"  class-group 2-rank {verdict}")
    return 0 if rep.rank_obstructed else 1


# ---------------------------------------------------------------------------
# Parser.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="a4census",
        description="Level-raising census over quartic alternating fields of prime-square conductor",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("scan", help="screen prime conductors = 1 mod 3 by the class-number condition")
    p.add_argument("--max-ell", type=int, default=607)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("census", help="classify auxiliary primes and emit checkpoint rows")
    p.add_argument("--ell", type=int, action="append", help="conductor (repeatable)")
    p.add_argument("--config", action="append", help="INI config path (repeatable)")
    p.add_argument("--max-v", type=int, default=10**3, help="census bound (default: 1000)")
    p.add_argument("--checkpoints", default=None, help="comma-separated checkpoint bounds")
    p.add_argument("--jobs", type=_job_count, default=1, help="worker processes (default: 1)")
    p.add_argument("--out", default=None, help="output path, or a directory for multiple conductors")
    p.add_argument("--format", choices=tuple(FORMATS), default="csv")
    p.add_argument("--check-golden", action="store_true", help="diff rows against the shipped table")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("stats", help="density report for a census CSV")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--csv", help="census CSV produced by the census subcommand")
    g.add_argument("--ell", type=int, help="use the shipped golden table for this conductor")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("simulate", help="Monte Carlo checks of the probability model")
    p.add_argument("--model", choices=("line", "unramified"), default="line")
    p.add_argument("--p", type=int, default=3, help="prime for the line model")
    p.add_argument("--levels", type=int, default=4, help="levels for the unramified model")
    p.add_argument("--trials", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify-field", help="build and verify all conductor data, then report")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--ell", type=int)
    g.add_argument("--config")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(func=_cmd_verify_field)

    p = sub.add_parser("diagonal", help="2-rank check for the two diagonal cubics of a pair")
    p.add_argument("--l1", type=int, required=True)
    p.add_argument("--l2", type=int, required=True)
    p.set_defaults(func=_cmd_diagonal)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    try:
        return args.func(args)
    except (VerificationError, FieldError, ArithmeticError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
