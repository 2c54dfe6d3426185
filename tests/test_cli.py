"""End-to-end checks of the command line entry points.

Everything goes through main(argv) in-process so the tests see real exit
codes and capsys gets the same bytes a shell user would.
"""

import json
from types import SimpleNamespace

import pytest

from a4census import census, cli
from a4census.cli import main
from a4census.config import CACHE_ENV, golden_rows


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# ---------------------------------------------------------------------------
# census


def test_census_stdout_matches_golden_first_row(capsys):
    rc, out, err = run(capsys, "census", "--ell", "163", "--max-v", "1000")
    assert rc == 0
    lines = out.splitlines()
    golden = golden_rows(163)
    assert lines[0] == golden[0]  # header
    assert lines[1] == golden[1]
    assert lines[1].startswith("1000,55,38,15,9,")


def test_census_check_golden_passes(capsys):
    rc, out, err = run(capsys, "census", "--ell", "163", "--max-v", "1000",
                       "--check-golden")
    assert rc == 0
    assert "match" in out


def test_census_check_golden_names_the_rows_it_cannot_check(capsys):
    # --max-v 2000 ends at a row the golden table does not hold: the row at
    # 1000 is checked, the one at 2000 is named on stderr, and the exit
    # code is the checked rows' 0
    rc, out, err = run(capsys, "census", "--ell", "277", "--max-v", "2000",
                       "--check-golden")
    assert rc == 0
    assert out.splitlines()[-1] == "golden check: 1 checkpoint rows match for ell = 277"
    assert err == "golden check: no golden row for ell = 277 at n = 2000; not checked\n"
    rc, out, err = run(capsys, "census", "--ell", "277", "--max-v", "3000",
                       "--checkpoints", "1500,2000,3000", "--check-golden")
    assert rc == 1
    assert err == (
        "golden check: no golden row for ell = 277 at n = 1500, 2000, 3000; not checked\n"
        "error: census rows share no checkpoint with the golden table\n"
    )
    rc, out, err = run(capsys, "census", "--ell", "277", "--max-v", "1000",
                       "--check-golden")
    assert rc == 0 and err == ""


@pytest.mark.parametrize("bad", ["0", "-5"])
def test_census_rejects_a_checkpoint_at_or_below_zero(capsys, monkeypatch, bad):
    # no segment ends there, so the table would hold only its header; the
    # error comes before any conductor loads
    loads = []
    monkeypatch.setattr(cli, "load_conductor", lambda cfg: loads.append(cfg.ell))
    rc, out, err = run(capsys, "census", "--ell", "163", "--max-v", "1000",
                       f"--checkpoints={bad},1000")
    assert rc == 1
    assert err == f"error: checkpoint {bad} is not positive\n"
    assert out == "" and loads == []


def test_census_max_v_is_the_last_checkpoint(capsys):
    rc, out, err = run(capsys, "census", "--ell", "163", "--max-v", "3000")
    assert rc == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["1000", "3000"]
    rc, explicit, err = run(capsys, "census", "--ell", "163", "--max-v", "3000",
                            "--checkpoints", "1000,3000")
    assert rc == 0 and explicit == out
    rc, out, err = run(capsys, "census", "--ell", "163", "--max-v", "999")
    assert rc == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["999"]


def test_census_multi_conductor_writes_files(capsys, tmp_path):
    rc, out, err = run(capsys, "census", "--ell", "163", "--ell", "277",
                       "--max-v", "1000", "--out", str(tmp_path))
    assert rc == 0
    for ell in (163, 277):
        text = (tmp_path / f"census_{ell}.csv").read_text()
        assert text.splitlines()[0].startswith("n,c3,")
        assert len(text.splitlines()) == 2


def test_census_jsonl_to_file(capsys, tmp_path):
    out_path = tmp_path / "detail.jsonl"
    rc, out, err = run(capsys, "census", "--ell", "163", "--max-v", "1000",
                       "--format", "jsonl", "--out", str(out_path))
    assert rc == 0
    recs = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert len(recs) == 55
    assert recs[0] == {"v": 7, "lambda": False, "taubar": True}
    assert sum(1 for r in recs if r["lambda"]) == 38


def test_census_jobs_flag_sets_the_worker_count(capsys, monkeypatch):
    seen = []

    def fake_run_census(cd, N, checkpoints=None, workers=1, jsonl=None):
        seen.append((N, workers))
        return []

    monkeypatch.setattr(cli, "load_conductor", lambda cfg: SimpleNamespace(ell=cfg.ell))
    monkeypatch.setattr(cli, "run_census", fake_run_census)
    assert run(capsys, "census", "--ell", "163")[0] == 0
    assert run(capsys, "census", "--ell", "163", "--jobs", "2")[0] == 0
    assert seen == [(10**3, 1), (10**3, 2)]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_census_rejects_a_worker_count_below_one(capsys, monkeypatch, jobs):
    # --jobs 0 used to run the census serially and exit 0
    loads = []
    monkeypatch.setattr(cli, "load_conductor", lambda cfg: loads.append(cfg.ell))
    with pytest.raises(SystemExit) as exc:
        main(["census", "--ell", "163", "--max-v", "1000", "--jobs", jobs])
    assert exc.value.code == 2
    assert "at least 1" in capsys.readouterr().err
    assert loads == []


def test_census_rejects_an_unknown_format(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--ell", "163", "--format", "tsv"])
    assert exc.value.code == 2
    assert "invalid choice: 'tsv'" in capsys.readouterr().err


def test_census_rejects_run_settings_in_the_config(capsys, tmp_path, monkeypatch):
    # the INI describes the conductor only; a [census] section is an error,
    # reported before any conductor loads
    loads = []
    monkeypatch.setattr(cli, "load_conductor", lambda cfg: loads.append(cfg.ell))
    ini = tmp_path / "c.ini"
    ini.write_text("[conductor]\nell = 163\n[census]\nmax_v = 5000\n")
    rc, out, err = run(capsys, "census", "--config", str(ini), "--ell", "277")
    assert rc == 1
    assert "unknown section [census]" in err
    assert loads == [] and out == ""


def test_census_checks_the_out_directory_before_any_load(capsys, tmp_path, monkeypatch):
    loads = []
    monkeypatch.setattr(cli, "load_conductor", lambda cfg: loads.append(cfg.ell))
    missing = tmp_path / "missing"
    rc, out, err = run(capsys, "census", "--ell", "163", "--ell", "277",
                       "--max-v", "1000", "--out", str(missing))
    assert rc == 1
    assert err == f"error: output directory {missing} does not exist\n"
    assert loads == [] and not missing.exists()
    rc, out, err = run(capsys, "census", "--ell", "163", "--max-v", "1000",
                       "--out", str(missing / "rows.csv"))
    assert rc == 1 and loads == []


@pytest.mark.parametrize("argv", [
    ("census", "--ell", "277", "--max-v", "1000"),
    ("census", "--ell", "277", "--max-v", "1000", "--no-cache"),
    ("verify-field", "--ell", "277", "--no-cache"),
])
def test_ell_loads_the_shipped_polynomials(capsys, tmp_path, monkeypatch, argv):
    # With an empty cache, --ell must read the shipped INI rather than
    # search for L and F; --no-cache still keeps the cache untouched.
    def no_search(ell):
        raise AssertionError("the load searched for a field the shipped config gives")

    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(census, "cubic_subfield", no_search)
    monkeypatch.setattr(census, "quartic_field_search", no_search)
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    if argv[0] == "census":
        assert out.splitlines() == golden_rows(277)[:2]
    assert any(tmp_path.iterdir()) == ("--no-cache" not in argv)


def test_census_rejects_composite_conductor(capsys):
    rc, out, err = run(capsys, "census", "--ell", "6")
    assert rc == 1
    assert err.startswith("error:")


def test_census_rejects_failing_conductor(capsys):
    # h(L) = 1 for ell = 7, so the 4 | h check trips
    rc, out, err = run(capsys, "census", "--ell", "7")
    assert rc == 1
    assert "h(L)" in err


def test_census_requires_a_conductor(capsys):
    rc, out, err = run(capsys, "census")
    assert rc == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# scan


def test_scan_csv_contains_shipped_conductor(capsys):
    rc, out, err = run(capsys, "scan", "--max-ell", "200", "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0] == "ell,h,two_rank,shanks_a,passes"
    assert "163,4,2,11,true" in out


def test_scan_text_lists_passing(capsys):
    rc, out, err = run(capsys, "scan", "--max-ell", "200")
    assert rc == 0
    assert "passing: 163" in out


# ---------------------------------------------------------------------------
# stats


def test_stats_golden_report(capsys):
    rc, out, err = run(capsys, "stats", "--ell", "163")
    assert rc == 0
    assert "1,000,000" in out
    assert "lambda density vs 2/3" in out


def test_stats_from_csv(capsys, tmp_path):
    p = tmp_path / "rows.csv"
    p.write_text("n,c3,c_lambda,c_taubar,c_both\n1000,55,38,15,9\n")
    rc, out, err = run(capsys, "stats", "--csv", str(p))
    assert rc == 0
    assert "0.69091" in out


def test_stats_degenerate_row_reports_z_scores(capsys, tmp_path):
    # no prime in Lambda: the independence table has an empty margin, yet
    # the z-scores are defined and printed
    p = tmp_path / "rows.csv"
    p.write_text("n,c3,c_lambda,c_taubar,c_both\n1000,55,0,15,0\n")
    rc, out, err = run(capsys, "stats", "--csv", str(p))
    assert rc == 0, err
    assert "lambda density vs 2/3:  z = -" in out
    assert "taubar density vs 1/3:  z = " in out
    assert "joint density vs 2/9:   z = " in out
    assert "independence chi2 (1 dof, no continuity correction): undefined (degenerate margins)" in out


# ---------------------------------------------------------------------------
# simulate


def test_simulate_line_model_deterministic(capsys):
    rc, out1, _ = run(capsys, "simulate", "--model", "line", "--p", "5",
                      "--trials", "2000", "--seed", "3")
    assert rc == 0
    assert "exact     0.800000" in out1
    rc, out2, _ = run(capsys, "simulate", "--model", "line", "--p", "5",
                      "--trials", "2000", "--seed", "3")
    assert out1 == out2


def test_simulate_unramified_model(capsys):
    rc, out, err = run(capsys, "simulate", "--model", "unramified",
                       "--levels", "2", "--trials", "3000", "--seed", "1")
    assert rc == 0
    assert "n = 2" in out
    assert "wiles difference over the base places: 0" in out


def test_simulate_rejects_composite_p(capsys):
    rc, out, err = run(capsys, "simulate", "--model", "line", "--p", "9",
                       "--trials", "10", "--seed", "0")
    assert rc == 1


# ---------------------------------------------------------------------------
# verify-field


@pytest.mark.parametrize("ell", [163, 277, 349])
def test_verify_field_shipped(capsys, conductor, ell):
    rc, out, err = run(capsys, "verify-field", "--ell", str(ell))
    assert rc == 0
    assert "all verification checks passed" in out
    assert "dimension 1" in out
    (units,) = [line.split() for line in out.splitlines() if line.split()[0] == "units"]
    assert units[1:4] == ["rank", "3,", "3-saturated,"]
    assert units[4:] == ["regulator", f"{conductor(ell).u.regulator_estimate:.6f}"]


LOAD_STAGES = ("h(L)", "F", "h(F)", "saturated units", "stability", "fixed quotient", "certificates")


def test_verify_field_prints_the_load_stage_seconds(capsys, tmp_path, monkeypatch):
    # one line per stage of a cold load, in load order, under their total;
    # the times stay out of the cache record, the CSV and the JSONL
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    rc, out, err = run(capsys, "verify-field", "--ell", "163")
    assert rc == 0, err
    lines = out.splitlines()
    (head,) = [i for i, line in enumerate(lines) if line.split()[:2] == ["load", "seconds"]]
    total = float(lines[head].split()[2])
    stages = [line.rsplit(None, 1) for line in lines[head + 1 :]]
    assert [name.strip() for name, _ in stages] == list(LOAD_STAGES)
    seconds = [float(x) for _, x in stages]
    assert min(seconds) >= 0 and 0 < total < 60
    assert sum(seconds) == pytest.approx(total, abs=0.004)
    (record,) = tmp_path.iterdir()
    assert sorted(json.loads(record.read_text())) == ["F", "L", "ell", "version"]
    for fmt in ("csv", "jsonl"):
        rc, out, err = run(capsys, "census", "--ell", "163", "--max-v", "1000", "--format", fmt)
        assert rc == 0, err
        assert "second" not in out and "h(L)" not in out


def test_verify_field_composite(capsys):
    rc, out, err = run(capsys, "verify-field", "--ell", "6")
    assert rc == 1


# ---------------------------------------------------------------------------
# diagonal


def test_diagonal_obstructed_pair(capsys):
    rc, out, err = run(capsys, "diagonal", "--l1", "7", "--l2", "13")
    assert rc == 0
    assert "below 2" in out


def test_diagonal_rejects_equal_primes(capsys):
    rc, out, err = run(capsys, "diagonal", "--l1", "7", "--l2", "7")
    assert rc == 1
