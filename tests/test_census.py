"""Census classification, drivers, scanner, and diagonal checks."""

import dataclasses
import json
import os
import pickle
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import a4census
from a4census import arith, census, classgroup, fields, rayclass
from a4census.census import (
    CensusRow,
    VerificationError,
    a4_order3_density,
    classify_prime,
    diagonal_check,
    fast_classify,
    load_conductor,
    run_census,
    scan_conductors,
)
from a4census.config import Config, golden_rows
from a4census.fields import FieldError, ideal_eq, ideal_from_elements, ideal_pow
from a4census.stats import census_csv

from conftest import CONDUCTORS


# ---------------------------------------------------------------------------
# Conductor loading.


def test_load_conductor_rejects_small_h():
    with pytest.raises(VerificationError) as exc:
        load_conductor(7)
    assert exc.value.check == "class-number"


def test_load_conductor_rejects_non_conductor():
    with pytest.raises(VerificationError):
        load_conductor(11)  # 2 mod 3
    with pytest.raises(VerificationError):
        load_conductor(9)


def test_load_conductor_rejects_wrong_poly():
    cfg = Config(ell=163, cubic_poly=(-1, -20, -17, 1), use_cache=False)  # the 349 cubic
    with pytest.raises(VerificationError):
        load_conductor(cfg)


def test_cold_load_runs_each_stage_once(monkeypatch):
    # h(L) and h(F) are the only class groups, L is built once, the
    # quartic search builds neither again, and the unit search and the
    # 3-saturation share one set of F's real embeddings
    calls = {"class_group": 0, "cubic_subfield": 0, "embeddings": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for mod in (census, classgroup):
        monkeypatch.setattr(mod, "class_group", counted("class_group", classgroup.class_group))
    for mod in (census, fields):
        monkeypatch.setattr(mod, "cubic_subfield", counted("cubic_subfield", fields.cubic_subfield))
    monkeypatch.setattr(
        fields.NumberField, "embeddings", counted("embeddings", fields.NumberField.embeddings)
    )
    load_conductor(Config(ell=163, use_cache=False))
    assert calls == {"class_group": 2, "cubic_subfield": 1, "embeddings": 1}


def test_cache_record_reads_alike_with_or_without_quartic_poly(tmp_path, monkeypatch):
    # Records once also carried "quartic_poly"; F comes from "F" either way.
    monkeypatch.setenv("A4CENSUS_CACHE", str(tmp_path))
    cold = load_conductor(Config(ell=163))
    path = tmp_path / "conductor_163.json"
    record = json.loads(path.read_text())
    assert set(record) == {"version", "ell", "L", "F"}

    def no_search(ell):
        raise AssertionError("a cached load searched for F")

    monkeypatch.setattr(census, "quartic_field_search", no_search)
    assert load_conductor(Config(ell=163)).F == cold.F
    path.write_text(json.dumps(dict(record, quartic_poly=list(cold.F.poly))))
    assert load_conductor(Config(ell=163)).F == cold.F


def test_loaded_prime_labels(conductor):
    # the ramified prime above ell goes INTO the fixed modulus; getting
    # this backwards silently degenerates one census column
    for ell in CONDUCTORS:
        cd = conductor(ell)
        assert cd.l1.e == 1 and cd.l2.e == 3
        assert cd.l2.norm == ell
        assert cd.p31.f == 3 and cd.p32.f == 1
        assert cd.fixed_q.dim == 1


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_certificates_generate_the_prime_powers(conductor, ell):
    # Oracle independent of the search: Q^m and (gamma) rebuilt as ideals
    # and compared by Hermite form; the stored logs recomputed.
    cd = conductor(ell)
    F = cd.F
    assert len(cd.certs) == len(cd.cg.factor_base)
    assert any(cd.certs)
    for Q, cert in zip(cd.cg.factor_base, cd.certs):
        if Q.p in (3, ell):
            assert cert is None
            continue
        m, gamma, wild_log, l2_log = cert
        assert m % 3
        assert ideal_eq(ideal_pow(F, list(Q.hnf), m), ideal_from_elements(F, [gamma]))
        assert wild_log == cd.wild.philog(gamma)
        assert l2_log == cd.tame_l2.philog(gamma)[0]


def test_certificate_without_generator_fails_the_load(monkeypatch):
    monkeypatch.setattr(census, "ideal_short_elements", lambda K, A: iter(()))
    with pytest.raises(VerificationError) as exc:
        load_conductor(163)
    assert exc.value.check == "certificate"


def test_classification_only_reads_the_datum(conductor, monkeypatch):
    # Certificates are built at load: the census neither computes one nor
    # changes the datum, serially or in pool workers.
    cd = conductor(277)
    before = pickle.dumps(cd)

    def no_certificate_work(*args, **kwargs):
        raise AssertionError("classification did certificate work")

    monkeypatch.setattr(census, "_certificate", no_certificate_work)
    monkeypatch.setattr(census, "ideal_class_coordinates", no_certificate_work)
    monkeypatch.setattr(classgroup, "ideal_class_coordinates", no_certificate_work)
    for workers in (1, 2):
        rendered = census_csv(run_census(cd, 5000, workers=workers)).splitlines()
        assert rendered == golden_rows(277)[: len(rendered)]
    assert pickle.dumps(cd) == before
    with pytest.raises(dataclasses.FrozenInstanceError):
        cd.certs = ()


# ---------------------------------------------------------------------------
# Classification.


def test_c3_membership_against_sympy(conductor):
    cd = conductor(163)
    x = sympy.symbols("x")
    expr = sum(c * x**i for i, c in enumerate(cd.F.poly))
    for v in sympy.primerange(5, 300):
        if cd.excluded(v):
            continue
        res = fast_classify(cd, v)
        if v % 3 != 1:
            assert not res.in_C3
            continue
        degrees = sorted(g.degree() for g, _ in sympy.Poly(expr, x, modulus=v).factor_list()[1])
        assert res.in_C3 == (degrees == [1, 3])


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_c3_gate_matches_the_reference_factorization(conductor, ell, monkeypatch):
    # The gate (v not a cube mod ell) against the residue degrees of the
    # reference route's factorization of v in F; primes the gate rejects
    # never reach the root kernel.
    cd = conductor(ell)
    kernel = census._quartic_root
    reached = []
    monkeypatch.setattr(census, "_quartic_root", lambda f, v: reached.append(v) or kernel(f, v))
    c3 = []
    for v in arith.primes_in_range(2, 2 * 10**4):
        if v % 3 != 1 or cd.excluded(v):
            continue
        in_c3 = sorted(P.f for P in fields.factor_rational_prime(cd.F, v)) == [1, 3]
        assert fast_classify(cd, v).in_C3 == in_c3, v
        if in_c3:
            c3.append(v)
    assert reached == c3


def test_gate_and_root_count_check_holds_under_optimize():
    # a C3 prime whose polynomial has no single root is an explicit error,
    # so the cross-check of the gate still fires with assertions stripped
    code = textwrap.dedent(
        """
        from a4census import census
        from a4census.census import VerificationError, fast_classify, load_conductor

        cd = load_conductor(163)
        census._quartic_root = lambda f, v: None  # no root on a C3 prime
        try:
            fast_classify(cd, 7)
        except VerificationError as exc:
            print(exc.check)
        """
    )
    src = str(Path(a4census.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["root"]


def _c3_primes(cd, lo, hi, count=None):
    out = []
    for v in arith.primes_in_range(lo, hi):
        if cd.excluded(v) or v % 3 != 1 or pow(v, (cd.ell - 1) // 3, cd.ell) == 1:
            continue
        out.append(v)
        if len(out) == count:
            break
    return out


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_closed_form_v1_matches_the_ideal_hnf(conductor, ell):
    # vO + Z g(theta) in closed form against the HNF of (v, g(theta)) on
    # every C3 prime below 2*10^4 and 20 above 10^6; above 10^6 also
    # against the reference route's degree-3 prime.
    cd = conductor(ell)
    F = cd.F
    high = _c3_primes(cd, 10**6, 10**6 + 10**4, count=20)
    assert len(high) == 20
    for v in _c3_primes(cd, 2, 2 * 10**4) + high:
        _, cofactor = census._quartic_root(F.poly, v)
        gtheta = fields._poly_at_theta(F, cofactor)
        v1 = census._degree3_prime(gtheta, v)
        assert v1 == ideal_from_elements(F, [gtheta], rational=v), v
        if v > 10**6:
            (ref,) = [P for P in fields.factor_rational_prime(F, v) if P.f == 3]
            assert v1 == list(ref.hnf), v


def test_v1_norm_check_holds_under_optimize():
    # a cubic cofactor with g(theta) = 0 mod v is an explicit error, so the
    # v1 check still fires with assertions stripped
    code = textwrap.dedent(
        """
        from a4census import census
        from a4census.census import VerificationError, fast_classify, load_conductor

        cd = load_conductor(163)
        kernel = census._quartic_root

        def vanishing_cofactor(f, v):
            r, cofactor = kernel(f, v)
            return r, tuple(v * c for c in cofactor)

        census._quartic_root = vanishing_cofactor
        try:
            fast_classify(cd, 7)
        except VerificationError as exc:
            print(exc.check)
        """
    )
    src = str(Path(a4census.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["v1-norm"]


monic_quartic = st.lists(
    st.integers(min_value=-(10**7), max_value=10**7), min_size=4, max_size=4
).map(lambda c: tuple(c) + (1,))
kernel_prime = st.one_of(
    st.sampled_from([2, 3, 5, 7, 11, 13, 31, 163]),
    st.integers(min_value=10**6, max_value=10**9).map(sympy.nextprime),
)


@given(monic_quartic, kernel_prime)
@settings(max_examples=200, deadline=None)
def test_quartic_root_matches_distinct_roots(f, v):
    roots = arith.distinct_roots_mod_p(f, v)
    got = census._quartic_root(f, v)
    if len(roots) != 1:
        assert got is None
        return
    r, cofactor = got
    assert [r] == roots
    assert arith.pm_mul((-r, 1), cofactor, v) == arith.pm_reduce(f, v)


def test_excluded_primes_are_skipped(conductor):
    cd277 = conductor(277)
    assert cd277.F.index == 4
    res = fast_classify(cd277, 2)
    assert res.skipped and res.in_C3 is False
    assert classify_prime(cd277, 2).skipped
    cd163 = conductor(163)
    assert fast_classify(cd163, 163).skipped
    assert fast_classify(cd163, 3).skipped


def test_dual_paths_agree_to_2000(conductor):
    cd = conductor(163)
    for v in sympy.primerange(2, 2000):
        assert fast_classify(cd, v) == classify_prime(cd, v)


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_dual_paths_agree_above_a_million(conductor, ell):
    # criterion 12 stops at 10^4; the census runs to 10^8
    cd = conductor(ell)
    high = _c3_primes(cd, 10**6, 10**6 + 10**4, count=20)
    assert len(high) == 20
    for v in high:
        fast = fast_classify(cd, v)
        assert fast.in_C3
        assert fast == classify_prime(cd, v), v


def test_classify_prime_reuses_the_class_group_factor_base(conductor, monkeypatch):
    # Each call builds a new moving quotient; the factor-base context must
    # come from the loaded class group, not be rebuilt per prime.
    cd = conductor(277)
    built = []
    init = classgroup._FBContext.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(classgroup._FBContext, "__init__", counting_init)
    verdicts = [classify_prime(cd, v) for v in sympy.primerange(10**6, 10**6 + 400)]
    assert sum(pc.in_C3 for pc in verdicts) >= 5
    assert built == []


def test_classify_prime_builds_no_wild_block(conductor, monkeypatch):
    # The moving quotients of the reference route share the loaded block.
    cd = conductor(163)
    built = []
    init = rayclass.WildBlock.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(rayclass.WildBlock, "__init__", counting_init)
    assert all(classify_prime(cd, v).in_C3 for v in (7, 19, 43))
    assert built == []


def test_each_load_builds_its_own_wild_block(conductor):
    cd = conductor(163)
    again = load_conductor(163)
    assert again.wild is not cd.wild
    assert again.fixed_q.blocks[0] is again.wild


def test_pool_workers_receive_the_loaded_datum(conductor, monkeypatch):
    # Workers must not reload the conductor: they use the parent's object.
    cd = conductor(163)
    serial = run_census(cd, 3000)

    def no_reload(*args, **kwargs):
        raise AssertionError("a census worker reloaded the conductor")

    monkeypatch.setattr(census, "load_conductor", no_reload)
    assert run_census(cd, 3000, workers=2) == serial


def test_pickled_datum_classifies_alike(conductor):
    # Under spawn or forkserver the pool pickles the datum for its workers.
    cd = conductor(277)
    copy = pickle.loads(pickle.dumps(cd))
    for v in sympy.primerange(2, 3000):
        assert fast_classify(copy, v) == fast_classify(cd, v)


@pytest.mark.parametrize("ell", CONDUCTORS)
@pytest.mark.parametrize("lo", [10**6, 10**7])
def test_dual_paths_agree_through_the_batched_segment(conductor, ell, lo):
    # the census path (gate, one float LLL over the segment, split from the
    # reduced bases) against the reference route on the first 20 C3 primes
    cd = conductor(ell)
    c3, _, _, _, _, detail, fallbacks = census._count_segment(cd, lo, lo + 2000, True)
    assert c3 >= 20 and fallbacks == 0
    for line in detail[:20]:
        rec = json.loads(line)
        ref = classify_prime(cd, rec["v"])
        assert ref.in_C3, rec
        assert (rec["lambda"], rec["taubar"]) == (ref.in_CLambda, ref.in_Ctaubar), rec


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failed_split_falls_back_to_the_reference_route(conductor, monkeypatch, caplog, workers):
    # one prime whose fast split fails is classified by classify_prime and
    # counted; the census goes on and its rows stay golden
    cd = conductor(277)
    bad = _c3_primes(cd, 2000, 5000, count=10)[-1]
    split = census.smooth_split

    def failing_split(cg, A, usable=None):
        return None if abs(arith.det_bareiss(A)) == bad**3 else split(cg, A, usable=usable)

    monkeypatch.setattr(census, "smooth_split", failing_split)
    with pytest.raises(FieldError):
        fast_classify(cd, bad)
    with caplog.at_level("WARNING", logger="a4census.census"):
        rows = run_census(cd, 5000, workers=workers)
    assert census_csv(rows).splitlines() == golden_rows(277)[:3]
    assert [r.getMessage() for r in caplog.records if "fallback" in r.getMessage()] == [
        "conductor 277: 1 fallback(s) to classify_prime after the fast route failed"
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_root_failure_still_aborts_the_census(conductor, monkeypatch, workers):
    # a C3 prime without exactly one root means the gate is wrong
    cd = conductor(277)
    bad = _c3_primes(cd, 2000, 5000, count=10)[-1]
    kernel = census._quartic_root
    monkeypatch.setattr(census, "_quartic_root", lambda f, v: None if v == bad else kernel(f, v))
    with pytest.raises(VerificationError) as exc:
        run_census(cd, 5000, workers=workers)
    assert exc.value.check == "root"


def test_census_row_ratios():
    row = CensusRow(n=1000, c3=55, c_lambda=38, c_taubar=15, c_both=9, n_classified=167)
    assert row.ratio_lambda() == Fraction(38, 55)
    assert row.ratio_taubar() == Fraction(15, 55)
    assert row.ratio_product() == Fraction(38 * 15, 55 * 55)
    assert row.ratio_both() == Fraction(9, 55)
    empty = CensusRow(n=10, c3=0, c_lambda=0, c_taubar=0, c_both=0, n_classified=2)
    assert empty.ratio_lambda() is None


# ---------------------------------------------------------------------------
# Driver.


def test_first_checkpoint_row(census):
    rows, _ = census(163, 1000)
    assert len(rows) == 1
    r = rows[0]
    assert (r.c3, r.c_lambda, r.c_taubar, r.c_both) == (55, 38, 15, 9)


def test_checkpoint_validation(conductor):
    cd = conductor(163)
    with pytest.raises(ValueError):
        run_census(cd, 1000, checkpoints=(500, 200))
    with pytest.raises(ValueError):
        run_census(cd, 1000, checkpoints=(200, 200))
    with pytest.raises(ValueError):
        run_census(cd, 1000, checkpoints=(2000,))
    with pytest.raises(ValueError):
        run_census(cd, 1000, checkpoints=())


def test_non_checkpoint_bound_counts_only_to_last(conductor):
    cd = conductor(163)
    rows = run_census(cd, 1000, checkpoints=(300, 600))
    assert [r.n for r in rows] == [300, 600]
    direct = run_census(cd, 600, checkpoints=(600,))
    assert rows[-1].c3 == direct[0].c3


def test_worker_determinism(conductor):
    cd = conductor(163)
    rows1 = run_census(cd, 3000, checkpoints=(1000, 3000))
    rows2 = run_census(cd, 3000, checkpoints=(1000, 3000), workers=2)
    assert rows1 == rows2
    assert census_csv(rows1) == census_csv(rows2)


def test_jsonl_stream(conductor, tmp_path):
    cd = conductor(163)
    out = tmp_path / "d.jsonl"
    rows = run_census(cd, 500, checkpoints=(500,), jsonl=str(out))
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    # one record per C3 member; primes outside C3 are not echoed
    assert len(recs) == rows[0].c3
    assert sum(1 for r in recs if r["lambda"]) == rows[0].c_lambda
    assert sum(1 for r in recs if r["taubar"]) == rows[0].c_taubar
    both = sum(1 for r in recs if r["lambda"] and r["taubar"])
    assert both == rows[0].c_both
    vs = [r["v"] for r in recs]
    assert vs == sorted(vs)


def test_jsonl_lines_reach_disk_before_the_last_segment(conductor, tmp_path, monkeypatch):
    # run_census writes each segment's lines as it merges them: when the
    # last segment is classified, every earlier C3 line is already in the file
    cd = conductor(163)
    out = tmp_path / "d.jsonl"
    count = census._count_segment
    seen = {}

    def spy(cd_, lo, hi, want_detail):
        if hi == 3000:
            seen["lines"] = out.read_text().splitlines()
        return count(cd_, lo, hi, want_detail)

    monkeypatch.setattr(census, "_count_segment", spy)
    rows = run_census(cd, 3000, checkpoints=(2000, 3000), jsonl=str(out))
    assert len(seen["lines"]) == rows[0].c3 > 0
    assert out.read_text().splitlines()[: rows[0].c3] == seen["lines"]
    assert len(out.read_text().splitlines()) == rows[1].c3


# ---------------------------------------------------------------------------
# Scanner.


def test_scan_conductors_rows():
    rows = {r.ell: r for r in scan_conductors(200)}
    assert rows[163].passes and rows[163].h == 4 and rows[163].shanks_a == 11
    assert not rows[7].passes
    assert rows[7].shanks_a == -1
    assert all(r.two_rank % 2 == 0 for r in rows.values())


def test_scan_conductors_bound():
    with pytest.raises(ValueError):
        scan_conductors(5000)


# ---------------------------------------------------------------------------
# Diagonal cubics.


def test_diagonal_check_values():
    rep = diagonal_check(7, 13)
    assert rep.rank_obstructed
    assert [f.h for f in rep.fields] == [3, 3]
    assert all(f.disc == (7 * 13) ** 2 for f in rep.fields)
    assert all(f.two_rank == 0 for f in rep.fields)


def test_diagonal_check_is_symmetric():
    a = diagonal_check(7, 13)
    b = diagonal_check(13, 7)
    assert {f.poly for f in a.fields} == {f.poly for f in b.fields}


def test_diagonal_check_errors():
    with pytest.raises(VerificationError):
        diagonal_check(7, 7)
    with pytest.raises(VerificationError):
        diagonal_check(7, 11)  # 11 = 2 mod 3
    with pytest.raises(VerificationError):
        diagonal_check(7, 15)


# ---------------------------------------------------------------------------
# Group-theoretic density.


def test_a4_order3_density():
    assert a4_order3_density() == Fraction(1, 3)
