"""Census classification, drivers, scanner, and diagonal checks."""

import dataclasses
import itertools
import json
import math
import os
import pickle
import random
import subprocess
import sys
import textwrap
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import a4census
from a4census import arith, census, classgroup, fields, linalg, rayclass
from a4census import census as census_mod
from a4census.census import (
    CensusRow,
    PrimeClassification,
    VerificationError,
    classify_prime,
    diagonal_check,
    fast_classify,
    load_conductor,
    run_census,
    scan_conductors,
)
from a4census.config import CACHE_ENV, Config, golden_rows, read_config, shipped_config
from a4census.fields import (
    FieldError,
    factor_rational_prime,
    ideal_from_elements,
    ideal_pow,
)
from a4census.stats import census_csv

from conftest import CONDUCTORS
from oracles import a4_order3_density, norm_scan_certificate


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


def test_a_stability_field_error_is_tagged(monkeypatch):
    # 349 with the class group of F cut to ten relations: the stability
    # check finds that they do not close the ray group, and the load names
    # the check it stopped at
    class_group = census.class_group

    def cut(K):
        cg = class_group(K)
        return dataclasses.replace(cg, relations=cg.relations[:10]) if K.degree == 4 else cg

    monkeypatch.setattr(census, "class_group", cut)
    with pytest.raises(VerificationError, match="relations do not close the ray group") as exc:
        load_conductor(349)
    assert exc.value.check == "stability"
    assert type(exc.value.__cause__) is FieldError


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_p31_comes_from_the_factor_base(conductor, ell, monkeypatch):
    # the load reads 3_1 from the primes over 3 that the factor base of h(F)
    # holds: the prime ideal that factoring 3 in F again gives, equal in
    # every field, anti-uniformizer included; only ell is factored after h(F)
    cd = conductor(ell)
    again = next(P for P in factor_rational_prime(cd.F, 3) if P.f == 3)
    assert cd.p31 == again and cd.p31.anti_uniformizer == again.anti_uniformizer
    assert any(P is cd.p31 for P in cd.cg.fb_ctx.above[3])
    factored = []
    factor = census.factor_rational_prime
    monkeypatch.setattr(census, "factor_rational_prime", lambda K, p: factored.append(p) or factor(K, p))
    assert load_conductor(ell).p31 == cd.p31
    assert factored == [ell]


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_load_factors_3_and_ell_once_each(conductor, ell, monkeypatch):
    # ell is factored in F once, for its splitting check and ell_2, and 3
    # once, by the factor base of h(F), for its splitting check and 3_1
    F = conductor(ell).F
    factor = fields.factor_rational_prime
    factored = []

    def counted(K, p):
        factored.append((K.poly, p))
        return factor(K, p)

    for mod in (fields, classgroup, census):
        monkeypatch.setattr(mod, "factor_rational_prime", counted)
    assert load_conductor(ell).p31 == conductor(ell).p31
    assert [p for poly, p in factored if poly == F.poly and p in (3, ell)] == [ell, 3]


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
        at_ell = factor_rational_prime(cd.F, ell)
        assert sorted(P.e for P in at_ell) == [1, 3] and cd.l2.e == 3
        assert cd.l2.key() in [P.key() for P in at_ell]
        assert cd.l2.norm == ell
        at3 = factor_rational_prime(cd.F, 3)
        assert sorted(P.f for P in at3) == [1, 3] and cd.p31.f == 3
        assert cd.p31.key() in [P.key() for P in at3]
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
        assert ideal_pow(F, list(Q.hnf), m) == ideal_from_elements(F, [gamma])
        assert wild_log == cd.wild.philog(gamma)
        assert l2_log == cd.tame_l2.philog(gamma)[0]


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_certificates_match_the_norm_scan(conductor, ell):
    # the split of Q^m with a trivial cofactor finds the gamma that a scan
    # of the same short-element stream for the norm N(Q^m) finds
    cd = conductor(ell)
    want = tuple(
        None if Q.p in (3, ell) else norm_scan_certificate(cd.F, cd.cg, cd.wild, cd.tame_l2, Q)
        for Q in cd.cg.factor_base
    )
    assert cd.certs == want


def test_certificate_without_generator_fails_the_load(monkeypatch):
    monkeypatch.setattr(census, "smooth_split", lambda cg, A, usable=None: None)
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


def test_linear_gcd_lanes_agree_with_the_quartic_root():
    # random monic quartics against _quartic_root, lanes of every bit length
    # in one call: a regular lane has exactly one root, the one the
    # per-prime kernel finds; at small primes many lanes are irregular, and
    # those are the per-prime route's alone
    rng = random.Random(17)
    primes = [5, 7, 13, 31, 163, 10007, 1000003, sympy.prevprime(census.LANE_BOUND)]
    ps = [p for p in primes for _ in range(200)]
    polys = [tuple(rng.randrange(-(10**6), 10**6) for _ in range(4)) + (1,) for _ in ps]
    v = np.array(ps, dtype=np.int64)
    f = [np.array([q[i] for q in polys], dtype=np.int64) % v for i in range(4)]
    e0, e1, regular = census._linear_gcd_lanes(f, v)
    for q, p, a, b, ok in zip(polys, ps, e0.tolist(), e1.tolist(), regular.tolist()):
        if ok:
            got = census._quartic_root(q, p)
            assert got is not None and got[0] == -a * pow(b, -1, p) % p, (q, p)
    assert sum(regular.tolist()) > 400


def test_closed_form_v1_lanes_match_degree3_prime():
    # the first nonzero coordinate of g(theta) picks the row, leading zeros
    # included; the HNFs come as one int64 array
    rng = random.Random(5)
    rows, vs = [], []
    for p in (7, 10007, sympy.prevprime(census.LANE_BOUND)):
        for zeros in range(4):
            for _ in range(10):
                rows.append([0] * zeros + [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(3 - zeros)])
                vs.append(p)
    got = census._degree3_prime_lanes(np.array(rows, dtype=np.int64), np.array(vs, dtype=np.int64))
    assert got.dtype == np.int64 and got.shape == (len(rows), 4, 4)
    assert got.tolist() == [list(map(list, census._degree3_prime(g, p))) for g, p in zip(rows, vs)]


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


def test_classify_prime_builds_no_prime_ideal_outside_type_1_3(conductor, monkeypatch):
    # The splitting type is read off f mod v first: a prime v = 1 mod 3 of
    # any other type is settled before any prime ideal above it is built.
    cd = conductor(163)
    others, c3 = [], []
    for v in arith.primes_upto(400):
        if not cd.excluded(v) and v % 3 == 1:
            kind = sorted(P.f for P in factor_rational_prime(cd.F, v))
            (c3 if kind == [1, 3] else others).append(v)
    assert len(others) >= 10 and c3
    built, factored = [], []
    init = fields.PrimeIdeal.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("p"))
        init(self, *args, **kwargs)

    def counting_factor(K, p):
        factored.append(p)
        return factor_rational_prime(K, p)

    monkeypatch.setattr(fields.PrimeIdeal, "__init__", counting_init)
    monkeypatch.setattr(census_mod, "factor_rational_prime", counting_factor)
    assert not any(classify_prime(cd, v).in_C3 for v in others)
    assert built == [] and factored == []
    # the counters do see the primes of a C3 prime
    assert classify_prime(cd, c3[0]).in_C3
    assert factored == [c3[0]] and built == [c3[0], c3[0]]


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_classify_prime_reduces_v1_once(conductor, ell, monkeypatch):
    # one exact LLL of v1's HNF serves both Artin vectors
    cd = conductor(ell)
    calls = []
    lll_gram = linalg.lll_gram

    def counting(*args, **kwargs):
        calls.append(1)
        return lll_gram(*args, **kwargs)

    monkeypatch.setattr(linalg, "lll_gram", counting)
    for v in _c3_primes(cd, 10**6, 10**6 + 10**4, count=5):
        del calls[:]
        assert classify_prime(cd, v).in_C3
        assert len(calls) == 1, v


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_artin_vector_of_a_reduced_basis_with_its_norm(conductor, ell):
    # given norm=, artin_vector searches the basis as it is: the same
    # vectors as from the HNF, which it reduces itself
    cd = conductor(ell)
    for v in _c3_primes(cd, 10**6, 10**6 + 10**4, count=5):
        primes = factor_rational_prime(cd.F, v)
        v1 = next(P for P in primes if P.f == 3)
        v2 = next(P for P in primes if P.f == 1)
        moving = rayclass.ray_class_3_quotient(
            rayclass.Modulus(cd.F, ((cd.p31, 2), (v2, 1))), cd.cg, cd.u, cd.wild
        )
        red = classgroup._reduced_basis(cd.F, list(v1.hnf))[0]
        for q in (moving, cd.fixed_q):
            assert rayclass.artin_vector(q, red, norm=v**3) == rayclass.artin_vector(q, list(v1.hnf)), v


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
    records, _, fallbacks = census._count_task(cd, [(lo, lo + 2000)])[0]
    assert len(records) >= 20 and fallbacks == 0
    for v, in_lambda, in_taubar in records[:20]:
        ref = classify_prime(cd, v)
        assert ref.in_C3, v
        assert (in_lambda, in_taubar) == (ref.in_CLambda, ref.in_Ctaubar), v


@pytest.mark.parametrize("ell", CONDUCTORS)
@pytest.mark.parametrize("lo", [10**6, 10**7])
def test_census_split_of_an_unchanged_basis_keeps_its_alpha(conductor, ell, lo, monkeypatch):
    # The census splits a certified float-reduced v1 as it is, in its split
    # lanes.  Where the exact LLL would have left that basis unchanged, the
    # alpha (and the cofactor) must be the one the exact path finds.
    cd = conductor(ell)
    split = census._split_lanes
    calls = []

    def recorded(cd_, v, rows):
        got = split(cd_, v, rows)
        calls.append((v, rows, got))
        return got

    monkeypatch.setattr(census, "_split_lanes", recorded)
    census._count_task(cd, [(lo, lo + 2000)])[0]
    ((v, rows, (settled, alphas, vals)),) = calls
    assert len(v) >= 20 and settled.all()
    unchanged = 0
    for p, basis, alpha, vec in list(zip(v.tolist(), rows.tolist(), alphas.tolist(), vals.tolist()))[:20]:
        A = [tuple(row) for row in basis]
        T, _ = linalg.lll_gram(linalg.gram_matrix(A, cd.F.trace_gram))
        if T == [tuple(int(i == j) for j in range(4)) for i in range(4)]:
            unchanged += 1
            usable = lambda el, n: math.gcd(n, 3 * ell * p) == 1  # noqa: E731
            assert (tuple(alpha), tuple(vec)) == classgroup.smooth_split(cd.cg, A, usable=usable)
    assert unchanged >= 15


def test_an_uncertified_lattice_falls_back_to_the_reference_route(conductor, monkeypatch, caplog):
    # A v1 whose float transform is not certified is not reduced exactly:
    # that prime is classified by classify_prime and counted as a
    # fallback, and no other C3 prime of the census reaches lll_gram.
    # The rows stay golden.
    cd = conductor(277)
    bad = _c3_primes(cd, 2000, 5000, count=10)[-1]
    batch = linalg.lll_float_batch
    classify = census.classify_prime
    lll = linalg.lll_gram
    exact = []
    in_reference = []

    def one_uncertified(bases, frame):
        return [
            None if abs(arith.det_bareiss(A)) == bad**3 else T
            for A, T in zip(bases, batch(bases, frame))
        ]

    def reference(cd_, v):
        in_reference.append(v)
        try:
            return classify(cd_, v)
        finally:
            in_reference.pop()

    def counted_lll(gram, *args):
        exact.append(in_reference[-1] if in_reference else None)
        return lll(gram, *args)

    monkeypatch.setattr(linalg, "lll_float_batch", one_uncertified)
    monkeypatch.setattr(census, "classify_prime", reference)
    monkeypatch.setattr(linalg, "lll_gram", counted_lll)
    with caplog.at_level("INFO", logger="a4census.census"):
        rows = run_census(cd, 5000)
    assert census_csv(rows).splitlines() == golden_rows(277)[:3]
    messages = [r.getMessage() for r in caplog.records]
    assert [m for m in messages if "fast route failed at" in m] == [
        f"conductor 277: fast route failed at {bad} "
        f"(no certified float reduction of the degree-3 prime over {bad}); using classify_prime"
    ]
    assert [m for m in messages if "fallback" in m] == [
        "conductor 277: 1 fallback(s) to classify_prime after the fast route failed"
    ]
    assert set(exact) <= {bad}


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_verdict_spans_hold_every_tame_column(conductor, ell):
    # one entry per tame column t in F_3^rank: the set of all vectors in the
    # span mod 3 of the unit rows (wild philog of unit i) + (t_i,), against
    # every combination of the rows of their echelon form; the fixed
    # quotient's entry, at the units' ell_2 characters, leaves one
    # dimension of the four
    cd = conductor(ell)
    assert sorted(cd.unit_spans) == sorted(itertools.product(range(3), repeat=cd.u.rank))
    assert len(cd.unit_spans) == 27
    for t, span in cd.unit_spans.items():
        rows = [list(cd.wild.philog(w)) + [ti] for w, ti in zip(cd.u.fundamental_units, t)]
        rref, _ = linalg.rref_mod_p(rows, 4, 3)
        want = {
            tuple(sum(c * x for c, x in zip(cs, col)) % 3 for col in zip(*rref))
            for cs in itertools.product(range(3), repeat=len(rref))
        }
        assert span == frozenset(want), t
    assert len(cd.unit_spans[cd.unit_l2]) == 3**3


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_verdict_lane_tables_hold_the_spans_and_certificates(conductor, ell):
    # the tables the verdict lanes read, built once at load: every pair
    # (t, w) of F_3^3 x F_3^4 coded base 3 against unit_spans, each
    # certificate's (m^-1 mod 3, wild log, ell_2 log) in its column, and
    # the wild block's table as int64 rows, -1 at the non-units
    cd = conductor(ell)
    assert cd.span_codes.shape == (27, 81)
    for t, span in cd.unit_spans.items():
        for w in itertools.product(range(3), repeat=4):
            code = (sum(x * 3**i for i, x in enumerate(t)), sum(x * 3**i for i, x in enumerate(w)))
            assert cd.span_codes[code] == (w in span)
    m_inv, wg, lg = cd.cert_columns
    for k, cert in enumerate(cd.certs):
        want = (0, (0, 0, 0), 0) if cert is None else (pow(cert[0], -1, 3), cert[2], cert[3])
        assert (m_inv[k], tuple(wg[k].tolist()), lg[k]) == want
    table = cd.wild.table_array
    assert table.dtype == np.int64
    assert [None if row[0] < 0 else tuple(row) for row in table.tolist()] == cd.wild.table


@pytest.mark.parametrize("ell", CONDUCTORS)
@pytest.mark.parametrize("lo", [10**6, 10**7, 10**8])
def test_verdict_takes_the_norm_v_cubed_of_every_certified_basis(conductor, ell, lo, monkeypatch):
    # each basis the census certifies is v1's HNF times a unimodular T, so
    # its determinant, taken here with det_bareiss, is +-v^3: the split
    # lanes certify their candidates' norms as c v^3, and a basis they
    # defer goes to the scalar split (_c3_split, through _c3_verdict), which
    # hands smooth_split N(v1) = v^3 without a determinant
    cd = conductor(ell)
    split_lanes, split = census._split_lanes, census.smooth_split
    seen, norms = [], []

    def recorded_lanes(cd_, v, rows):
        for p, basis in zip(v.tolist(), rows.tolist()):
            seen.append(p)
            assert abs(arith.det_bareiss(basis)) == p**3, p
        return split_lanes(cd_, v, rows)

    def recorded_split(cg, A, usable=None, norm=None):
        norms.append(norm)
        return split(cg, A, usable=usable, norm=norm)

    monkeypatch.setattr(census, "_split_lanes", recorded_lanes)
    monkeypatch.setattr(census, "smooth_split", recorded_split)
    want = census._count_task(cd, [(lo, lo + 4000)])[0]
    records, _, fallbacks = want
    assert fallbacks == 0 and len(records) > 50
    assert seen == [v for v, *_ in records]
    assert norms == []
    # the lanes deferring every lattice: the same records, each basis split
    # by smooth_split with the norm v^3
    _defer(monkeypatch, lambda v: True)
    seen.clear()
    assert census._count_task(cd, [(lo, lo + 4000)])[0] == want
    assert seen == [v for v, *_ in records]
    assert norms == [v**3 for v in seen]


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_verdict_alike_with_omega_squared(conductor, ell, monkeypatch):
    # labelling the tame characters with omega^2 in place of omega negates
    # every tame coordinate at once, which changes neither membership
    cd = conductor(ell)
    want = census._count_task(cd, [(10**6, 10**6 + 4000)])[0]
    logs = census._cube_logs_lanes
    labelled = []

    def squared(chars):
        got, zero = logs(chars)
        labelled.extend(got.any(axis=0).tolist())
        return -got % 3, zero

    monkeypatch.setattr(census, "_cube_logs_lanes", squared)
    assert census._count_task(cd, [(10**6, 10**6 + 4000)])[0] == want
    assert want[2] == 0 and sum(labelled) > 0.9 * len(labelled) > 50


def test_verdict_cube_logs_take_the_first_character_not_one_as_omega():
    # 7: the cube roots of unity are 1, 2 and 4
    assert census._cube_logs([1, 4, 2, 1, 4], 7) == [0, 1, 2, 0, 1]
    assert census._cube_logs([2, 4, 1], 7) == [1, 2, 0]
    assert census._cube_logs([1, 1, 1, 1], 7) == [0, 0, 0, 0]
    with pytest.raises(FieldError, match="not coprime"):
        census._cube_logs([1, 2, 0, 4], 7)


def _segment_lattices(cd, lo, hi):
    # the C3 primes of (lo, hi] in the lanes, their v1 HNFs and float transforms
    primes = arith.primes_in_range(lo + 1, hi + 1)
    status, _, hnfs = census._c3_setup_lanes(cd, primes)
    lanes = [v for v, s in zip(primes, status.tolist()) if s == census.IN_C3]
    return lanes, hnfs, list(linalg.lll_float_batch(hnfs, cd.frame))


def _defer(monkeypatch, deferred):
    # the split lanes leave the lattice over each prime v with deferred(v)
    # to the scalar route (_c3_verdict)
    split = census._split_lanes

    def stub(cd_, v, rows):
        settled, alpha, vals = split(cd_, v, rows)
        return settled & ~np.array([deferred(p) for p in v.tolist()], dtype=bool), alpha, vals

    monkeypatch.setattr(census, "_split_lanes", stub)


@pytest.mark.parametrize("ell", CONDUCTORS)
@pytest.mark.parametrize("lo", [10**6, 10**8])
def test_lane_products_match_combine(conductor, ell, lo):
    # T v1 in one int64 product against _combine on every lattice of a
    # window, as tuples of Python integers
    cd = conductor(ell)
    primes, hnfs, transforms = _segment_lattices(cd, lo, lo + 8000)
    assert len(hnfs) > 100 and all(T is not None for T in transforms)
    inside, rows, combined = census._transformed(hnfs, transforms)
    want = [
        [classgroup._combine(t, y.tolist()) for t in T.tolist()] for y, T in zip(hnfs, transforms)
    ]
    assert inside.tolist() == list(range(len(hnfs))) and combined == []
    assert rows.dtype == np.int64
    assert [list(map(tuple, basis)) for basis in rows.tolist()] == want
    # a lattice whose T is None is in neither list
    inside, rows, combined = census._transformed(hnfs, [None] + transforms[1:])
    assert inside.tolist() == list(range(1, len(hnfs))) and combined == []


def test_lane_products_past_the_bound_go_through_combine(conductor, monkeypatch):
    # lattices whose max|T| * 4 * max|v1| (the largest v1 entry of the
    # segment) reaches a lowered bound are formed with _combine, the rest in
    # int64, and the records are the same
    cd = conductor(277)
    lo, hi = 10**6, 10**6 + 8000
    want = census._count_task(cd, [(lo, hi)])[0]
    _, hnfs, transforms = _segment_lattices(cd, lo, hi)
    top = max(int(y.max()) for y in hnfs)
    sizes = sorted(int(abs(T).max()) * 4 * top for T in transforms)
    bound = sizes[len(sizes) // 2]
    past = sum(size >= bound for size in sizes)
    combine = census._combine
    combined = []

    def counted(t, rows):
        combined.append(rows)
        return combine(t, rows)

    monkeypatch.setattr(census, "PRODUCT_BOUND", bound)
    monkeypatch.setattr(census, "_combine", counted)
    assert census._count_task(cd, [(lo, hi)])[0] == want
    assert 0 < past < len(sizes)
    assert len(combined) == 4 * past


@pytest.mark.parametrize("ell", CONDUCTORS)
@pytest.mark.parametrize("lo", [0, 4 * 10**4, 10**6, 10**8, census.LANE_BOUND - 8000])
def test_split_totals_lanes_match_el_norm(conductor, ell, lo):
    # every row of every certified basis of (lo, lo + 8000] gets its total
    # |N(alpha)| / v^3, certified and equal to el_norm's, and minus the rows
    # are the first four candidates of the split's stream, which the split
    # lanes take
    cd = conductor(ell)
    primes, hnfs, transforms = _segment_lattices(cd, lo, lo + 8000)
    inside, rows, _ = census._transformed(hnfs, transforms)
    assert len(inside) > 100
    v = np.repeat(np.array(primes, dtype=np.int64)[inside], 4)
    total, certified = census._split_totals_lanes(cd, v, rows.reshape(-1, 4))
    assert certified.all() and total.dtype == np.int64
    for p, row, t in zip(v.tolist(), rows.reshape(-1, 4).tolist(), total.tolist()):
        assert abs(cd.F.el_norm(row)) == t * p**3, p
    basis = [tuple(row) for row in rows[0].tolist()]
    stream = classgroup.ideal_short_elements(cd.F, basis, reduced=True)
    assert list(itertools.islice(stream, 4)) == [tuple(-x for x in row) for row in basis]


@pytest.mark.parametrize("guard", ["NORM_PRODUCT_BOUND", "DET_MODULUS"])
def test_split_totals_lanes_past_a_guard_go_to_el_norm(conductor, monkeypatch, guard):
    # With a guard lowered to the median row, exactly the rows past it get no
    # certified total.  A lattice that reaches such a row before a candidate
    # is accepted is deferred to the scalar split, which takes el_norm for
    # its candidates, and the records are the same.  At the default guards
    # no lattice is deferred and the census takes no el_norm.
    cd = conductor(277)
    lo, hi = 10**6, 10**6 + 8000
    el_norm = fields.NumberField.el_norm
    normed = []
    monkeypatch.setattr(fields.NumberField, "el_norm", lambda self, el: normed.append(el) or el_norm(self, el))
    split = census._split_lanes
    deferred = []

    def recorded(cd_, v, rows):
        settled, alpha, vals = split(cd_, v, rows)
        deferred.extend(zip(v[~settled].tolist(), rows[~settled].tolist()))
        return settled, alpha, vals

    monkeypatch.setattr(census, "_split_lanes", recorded)
    want = census._count_task(cd, [(lo, hi)])[0]
    assert normed == [] and deferred == []
    primes, hnfs, transforms = _segment_lattices(cd, lo, hi)
    inside, rows, _ = census._transformed(hnfs, transforms)
    rows = rows.reshape(-1, 4)
    v = np.repeat(np.array(primes, dtype=np.int64)[inside], 4)
    top = max(abs(c) for row in cd.F.mult_table for el in row for c in el)
    if guard == "NORM_PRODUCT_BOUND":
        sizes = sorted(max(map(abs, row)) * 4 * top for row in rows.tolist())
        module, bound = census, sizes[len(sizes) // 2]
        past = {tuple(row) for row in rows.tolist() if max(map(abs, row)) * 4 * top >= bound}
    else:
        sizes = sorted(abs(cd.F.el_norm(row)) for row in rows.tolist())
        module, bound = linalg, 2 * sizes[len(sizes) // 2]
    monkeypatch.setattr(module, guard, bound)
    _, certified = census._split_totals_lanes(cd, v, rows)
    nones = {tuple(row) for row, good in zip(rows.tolist(), certified.tolist()) if not good}
    assert 0 < len(nones) < len(rows)
    if guard == "NORM_PRODUCT_BOUND":
        assert nones == past
    normed.clear()
    assert census._count_task(cd, [(lo, hi)])[0] == want
    assert deferred and normed
    # every lattice whose first row has no total is deferred
    first = {p for p, row in zip(v.tolist()[::4], rows.tolist()[::4]) if tuple(row) in nones}
    assert first <= {p for p, _ in deferred}
    assert all(any(tuple(row) in nones for row in basis) for _, basis in deferred)


def test_inconsistent_valuations_at_one_prime_fall_back(conductor, monkeypatch):
    # Valuations that do not add up to the cofactor norm are a FieldError
    # in the split, not a skipped candidate: the census classifies that
    # prime by classify_prime and counts it as a fallback.
    cd = conductor(277)
    bad = _c3_primes(cd, 2000, 5000, count=10)[-1]
    want = census._count_task(cd, [(0, 5000)])[0]
    valuations = classgroup._valuations_above
    c3_split = census._c3_split
    at_bad = []

    def flagged(cd, v, *args, **kwargs):
        at_bad.append(v == bad)
        try:
            return c3_split(cd, v, *args, **kwargs)
        finally:
            at_bad.pop()

    def doubled_at_bad(K, el, above, ep):
        vals = valuations(K, el, above, ep)
        return [2 * x for x in vals] if at_bad and at_bad[-1] else vals

    monkeypatch.setattr(census, "_c3_split", flagged)
    monkeypatch.setattr(classgroup, "_valuations_above", doubled_at_bad)
    with pytest.raises(FieldError, match="norm factorization"):
        fast_classify(cd, bad)
    # the split lanes leave bad to the scalar split, which counts valuations
    _defer(monkeypatch, lambda v: v == bad)
    got = census._count_task(cd, [(0, 5000)])[0]
    assert got[:-1] == want[:-1]
    assert (want[-1], got[-1]) == (0, 1)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failed_split_falls_back_to_the_reference_route(conductor, monkeypatch, caplog, workers):
    # one prime whose fast split fails is classified by classify_prime and
    # counted; the census goes on and its rows stay golden.  The split lanes
    # defer that prime, so that the scalar split meets the failure.
    cd = conductor(277)
    bad = _c3_primes(cd, 2000, 5000, count=10)[-1]
    split = census.smooth_split

    def failing_split(cg, A, usable=None, norm=None):
        if norm == bad**3:
            return None
        return split(cg, A, usable=usable, norm=norm)

    monkeypatch.setattr(census, "smooth_split", failing_split)
    with pytest.raises(FieldError):
        fast_classify(cd, bad)
    _defer(monkeypatch, lambda v: v == bad)
    with caplog.at_level("WARNING", logger="a4census.census"):
        rows = run_census(cd, 5000, workers=workers)
    assert census_csv(rows).splitlines() == golden_rows(277)[:3]
    assert [r.getMessage() for r in caplog.records if "fallback" in r.getMessage()] == [
        "conductor 277: 1 fallback(s) to classify_prime after the fast route failed"
    ]


def _mark_lane_irregular(monkeypatch, bad):
    # the lanes' Euclid reports an irregular degree sequence at v = bad,
    # which sends that prime through census._c3_setup
    kernel = census._linear_gcd_lanes

    def marked(f, v):
        e0, e1, regular = kernel(f, v)
        return e0, e1, regular & (v != bad)

    monkeypatch.setattr(census, "_linear_gcd_lanes", marked)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_root_failure_still_aborts_the_census(conductor, monkeypatch, workers):
    # a C3 prime without exactly one root means the gate is wrong; the
    # census meets the per-prime kernel at the primes its lanes send on
    cd = conductor(277)
    bad = _c3_primes(cd, 2000, 5000, count=10)[-1]
    kernel = census._quartic_root
    monkeypatch.setattr(census, "_quartic_root", lambda f, v: None if v == bad else kernel(f, v))
    _mark_lane_irregular(monkeypatch, bad)
    with pytest.raises(VerificationError) as exc:
        run_census(cd, 5000, workers=workers)
    assert exc.value.check == "root"


def _irregular(cd, v):
    # the lanes' Euclid on v alone: True where its degree sequence is not 4, 3, 2, 1
    lane = np.array([v], dtype=np.int64)
    return not census._linear_gcd_lanes([c % lane for c in cd.F.poly[:4]], lane)[2][0]


def _whole(monkeypatch):
    # the primes that go whole through fast_classify, in order
    seen = []

    def recorded(cd_, v):
        seen.append(v)
        return fast_classify(cd_, v)

    monkeypatch.setattr(census, "fast_classify", recorded)
    return seen


@pytest.mark.parametrize("ell", CONDUCTORS)
@pytest.mark.parametrize("lo", [0, 10**6, 10**7, 10**8])
def test_lanes_match_the_per_prime_setup(conductor, ell, lo):
    # every prime of (lo, lo + 8000]: the lanes give _c3_setup's value, v1
    # as a 4 x 4 int64 array, or None for an excluded prime (2 divides
    # 277's index 4, 3 and ell) and for a C3 prime whose Euclid sequence is
    # irregular, which happens here only at small primes (19 for 163, 7
    # and 241 for 349)
    cd = conductor(ell)
    primes = arith.primes_in_range(lo + 1, lo + 8001)
    status, roots, hnfs = census._c3_setup_lanes(cd, primes)
    assert status.dtype == np.int8 and len(status) == len(primes)
    assert roots.dtype == hnfs.dtype == np.int64 and hnfs.shape == (len(roots), 4, 4)
    lanes = zip(roots.tolist(), hnfs.tolist())
    refused = []
    c3 = 0
    for v, code in zip(primes, status.tolist()):
        if code == census.WHOLE or cd.excluded(v):
            assert code == census.WHOLE, v
            assert cd.excluded(v) or (fast_classify(cd, v).in_C3 and _irregular(cd, v)), v
            refused.append(v)
            continue
        want = census._c3_setup(cd, v)
        if code == census.OUTSIDE:
            assert want == PrimeClassification(v, False), v
            continue
        assert code == census.IN_C3, v
        c3 += 1
        assert next(lanes) == (want[0], list(map(list, want[1]))), v
    assert next(lanes, None) is None
    assert c3 > 100
    if lo:
        assert refused == []
    else:
        assert {3, ell} <= set(refused) and (ell != 277 or 2 in refused)
        assert len(refused) <= 4


def test_lanes_take_every_prime_of_the_first_segment_but_2_3_and_ell(conductor, monkeypatch):
    # (0, 8000] for 277, whose F has index 4: exactly 2, 3 and 277 go whole
    # through fast_classify, which skips them, and the lanes take the rest
    cd = conductor(277)
    assert cd.F.index == 4
    want = census._count_task(cd, [(0, 8000)])[0]
    whole = _whole(monkeypatch)
    assert census._count_task(cd, [(0, 8000)])[0] == want
    assert whole == [2, 3, 277]
    assert want[1] == len(arith.primes_in_range(1, 8001)) - 3 and want[2] == 0


def test_lanes_of_an_index_64_quartic_refuse_its_excluded_and_irregular_primes(tmp_path, monkeypatch):
    # 163 loaded from an INI whose quartic is f(x/2) * 16, the same F on
    # Z[2 theta] of index 64: the lanes refuse 2, 3 and 163, and besides
    # them only the C3 primes whose Euclid sequence is irregular (19 and
    # 23689 below 5*10^4); the golden rows to 5*10^4 are unchanged
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
    scaled = [c * 2 ** (4 - i) for i, c in enumerate(shipped_config(163).quartic_poly)]
    ini = tmp_path / "index64.ini"
    ini.write_text(f"[conductor]\nell = 163\nquartic_poly = {' '.join(map(str, scaled))}\n")
    cd = load_conductor(read_config(ini))
    assert cd.F.index == 64 and tuple(cd.F.poly) == tuple(scaled)
    primes = arith.primes_in_range(1, 50001)
    status = census._c3_setup_lanes(cd, primes)[0]
    refused = [v for v, code in zip(primes, status.tolist()) if code == census.WHOLE]
    assert [v for v in primes if cd.excluded(v)] == [2, 3, 163]
    assert refused == [2, 3, 19, 163, 23689]
    assert all(fast_classify(cd, v).in_C3 and _irregular(cd, v) for v in (19, 23689))
    assert census_csv(run_census(cd, 50000)).splitlines() == golden_rows(163)[:4]


def test_lanes_stop_at_the_int64_guard(conductor, monkeypatch):
    # a segment that straddles LANE_BOUND = 2^30: exactly the primes past it
    # go whole through fast_classify, and the segment equals fast_classify
    # prime by prime
    cd = conductor(277)
    assert census.LANE_BOUND == 2**30
    lo, hi = census.LANE_BOUND - 4000, census.LANE_BOUND + 4000
    primes = arith.primes_in_range(lo + 1, hi + 1)
    status = census._c3_setup_lanes(cd, primes)[0]
    assert [code == census.WHOLE for code in status.tolist()] == [v >= census.LANE_BOUND for v in primes]
    assert any(v >= census.LANE_BOUND for v in primes) and primes[0] < census.LANE_BOUND
    want = [fast_classify(cd, v) for v in primes]
    records = [(pc.v, pc.in_CLambda, pc.in_Ctaubar) for pc in want if pc.in_C3]
    whole = _whole(monkeypatch)
    assert census._count_task(cd, [(lo, hi)])[0] == (records, len(primes), 0)
    assert whole == [v for v in primes if v >= census.LANE_BOUND]


def test_an_irregular_lane_goes_through_the_per_prime_setup(conductor, monkeypatch):
    # a lane marked irregular goes whole through fast_classify, which sets it
    # up with _c3_setup, with the same records, counts and no fallback
    cd = conductor(277)
    bad = _c3_primes(cd, 2000, 5000, count=10)[-1]
    want = census._count_task(cd, [(0, 8000)])[0]
    setup = census._c3_setup
    seen = []
    monkeypatch.setattr(census, "_c3_setup", lambda cd_, v: seen.append(v) or setup(cd_, v))
    _mark_lane_irregular(monkeypatch, bad)
    assert census._count_task(cd, [(0, 8000)])[0] == want
    assert want[2] == 0
    assert seen == [2, 3, 277, bad]


@pytest.mark.parametrize("check", ["v1-norm", "root"])
def test_a_lane_routed_failure_is_one_fallback_or_aborts(conductor, monkeypatch, check):
    # _c3_setup failing at one routed lane: "v1-norm" is one fallback to
    # classify_prime with the same records, "root" propagates
    cd = conductor(277)
    bad = _c3_primes(cd, 2000, 5000, count=10)[-1]
    records, done, fallbacks = census._count_task(cd, [(0, 8000)])[0]
    setup = census._c3_setup

    def failing(cd_, v):
        if v == bad:
            raise VerificationError(check, f"stubbed failure at {v}")
        return setup(cd_, v)

    monkeypatch.setattr(census, "_c3_setup", failing)
    _mark_lane_irregular(monkeypatch, bad)
    if check == "root":
        with pytest.raises(VerificationError) as exc:
            census._count_task(cd, [(0, 8000)])[0]
        assert exc.value.check == "root"
    else:
        assert census._count_task(cd, [(0, 8000)])[0] == (records, done, fallbacks + 1)


def _stage3(cd, lo, hi):
    """(v, r, rows): the C3 primes of (lo, hi] as stage 3 gets them, with their certified bases T v1."""
    primes = arith.primes_in_range(lo + 1, hi + 1)
    status, roots, hnfs = census._c3_setup_lanes(cd, primes)
    v = np.array(primes, dtype=np.int64)[status == census.IN_C3]
    inside, rows, combined = census._transformed(hnfs, linalg.lll_float_batch(hnfs, cd.frame))
    assert combined == [] and len(inside) == len(v)
    return v, roots, rows


@pytest.mark.parametrize("ell", CONDUCTORS)
@pytest.mark.parametrize("lo", [8000, 10**6, 10**8, census.LANE_BOUND - 8000])
def test_verdict_lanes_match_the_scalar_verdict(conductor, ell, lo):
    # every C3 prime of (lo, lo + 8000]: the split lanes settle its lattice,
    # and the verdict lanes give _c3_verdict's verdict on the same basis
    cd = conductor(ell)
    v, r, rows = _stage3(cd, lo, lo + 8000)
    assert len(v) > 100 and v[-1] < census.LANE_BOUND
    settled, alpha, vals = census._split_lanes(cd, v, rows)
    assert settled.all()
    got = census._verdict_lanes(cd, v, r, alpha, vals)
    assert all(type(code) is int for code in got)
    for p, root, basis, code in zip(v.tolist(), r.tolist(), rows.tolist(), got):
        want = census._c3_verdict(cd, p, root, [tuple(row) for row in basis])
        assert code == census._code(want), p


def test_verdict_lanes_reduce_alpha_before_their_products(conductor):
    # alpha + 9 ell v k, with entries near 2^61, has alpha's classes mod
    # 3_1^2, ell_2 and v_2, so the same verdicts: the lanes reduce alpha
    # before they multiply
    cd = conductor(277)
    v, r, rows = _stage3(cd, 10**6, 10**6 + 8000)
    settled, alpha, vals = census._split_lanes(cd, v, rows)
    step = 9 * cd.ell * v
    big = alpha + (2**61 // step * step)[:, None]
    assert (big > 2**60).all()
    want = census._verdict_lanes(cd, v, r, alpha, vals)
    assert census._verdict_lanes(cd, v, r, big, vals) == want


@pytest.mark.parametrize("ell", CONDUCTORS)
@pytest.mark.parametrize("lo", [0, 10**6, 10**8, census.LANE_BOUND - 48000])
def test_split_lanes_match_smooth_split(conductor, ell, lo):
    # five segments: the split lanes settle every lattice, with alpha minus
    # one of its rows and the valuation vector that smooth_split finds on
    # the same certified basis, searched as it is with the norm v^3
    cd = conductor(ell)
    v, _, rows = _stage3(cd, lo, lo + 5 * census.CHUNK)
    settled, alpha, vals = census._split_lanes(cd, v, rows)
    assert len(v) > 500 and settled.all()
    for p, basis, a, vec in zip(v.tolist(), rows.tolist(), alpha.tolist(), vals.tolist()):
        A = [tuple(row) for row in basis]
        usable = lambda el, n: math.gcd(n, 3 * ell * p) == 1  # noqa: E731
        assert (tuple(a), tuple(vec)) == classgroup.smooth_split(cd.cg, A, usable=usable, norm=p**3), p
        assert tuple(-x for x in a) in A, p


@pytest.mark.parametrize("ell", [163, 349])
def test_split_lanes_reject_alpha_in_a_prime_outside_the_base(conductor, ell):
    # below 40000 a few bases have a usable smooth row in the prime above 5
    # of degree 2 (163) or 3 (349), which lies outside the factor base.
    # With that row put first, the lanes reject it, as smooth_split does,
    # and settle the lattice on a later row with smooth_split's split.
    cd = conductor(ell)
    ctx = cd.cg.fb_ctx
    outside = [P for P in ctx.above[5] if P.key() not in ctx.index]
    v, _, rows = _stage3(cd, 0, 40000)
    total, certified = census._split_totals_lanes(cd, np.repeat(v, 4), rows.reshape(-1, 4))
    picks = []
    for k, (c, good) in enumerate(zip(total.tolist(), certified.tolist())):
        i, j = divmod(k, 4)
        row = rows[i, j].tolist()
        if good and math.gcd(c, 3 * ell * int(v[i])) == 1 and ctx.factor(c) is not None:
            if any(fields.element_in_prime(P, row) for P in outside):
                picks.append((i, j))
    assert outside and picks
    at = [i for i, _ in picks]
    rolled = np.array([np.roll(rows[i], -j, axis=0) for i, j in picks])
    settled, alpha, vals = census._split_lanes(cd, v[at], rolled)
    assert settled.all()
    for p, basis, a, vec in zip(v[at].tolist(), rolled.tolist(), alpha.tolist(), vals.tolist()):
        A = [tuple(row) for row in basis]
        usable = lambda el, n: math.gcd(n, 3 * ell * p) == 1  # noqa: E731
        assert tuple(-x for x in a) != A[0]
        assert (tuple(a), tuple(vec)) == classgroup.smooth_split(cd.cg, A, usable=usable, norm=p**3), p


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_wild_log_lanes_match_philog_on_every_class(conductor, ell):
    # every class mod 3_1^2, from the digits of its code, and the same
    # classes moved by random elements of 3_1^2 with entries up to 2^45:
    # the lanes give WildBlock.philog's log and flag the 27 non-units (the
    # classes in 3_1), where philog raises
    cd = conductor(ell)
    wild = cd.wild
    hnf = wild.ring.hnf
    pivots = [row[i] for i, row in enumerate(hnf)]
    reps = [tuple(c // r % d for r, d in zip(wild.radix, pivots)) for c in range(wild.ring.size)]
    assert wild.ring.size == 729 and [wild.code(x) for x in reps] == list(range(729))
    rng = random.Random(ell)
    moved = []
    for x in reps:
        shift = [rng.randrange(-(2**40), 2**40) for _ in hnf]
        moved.append(tuple(a + sum(k * row[j] for k, row in zip(shift, hnf)) for j, a in enumerate(x)))
    for elements in (reps, moved):
        logs, unit = census._wild_logs_lanes(wild, np.array(elements, dtype=np.int64))
        assert unit.sum() == 702
        for x, log, ok in zip(elements, logs.tolist(), unit.tolist()):
            if ok:
                assert tuple(log) == wild.philog(x), x
            else:
                with pytest.raises(FieldError, match="wild prime"):
                    wild.philog(x)


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_tame_log_lanes_match_philog_on_every_residue(conductor, ell):
    # the integers 0, ..., ell - 1 meet every residue mod ell_2, which has
    # degree 1; so do they moved by random multiples of ell: the lanes give
    # TameBlock.philog's log at ell_2 and flag 0, where philog raises
    cd = conductor(ell)
    tame = cd.tame_l2
    rng = random.Random(ell)
    ints = [cd.F.from_int(x) for x in range(ell)]
    assert sorted(tame.residue(el) for el in ints) == list(range(ell))
    moved = [tuple(a + ell * rng.randrange(-(2**40), 2**40) for a in el) for el in ints]
    for elements in (ints, moved):
        logs, unit = census._tame_logs_lanes(tame, np.array(elements, dtype=np.int64))
        assert unit.tolist() == [x != 0 for x in range(ell)]
        for el, log, ok in zip(elements, logs.tolist(), unit.tolist()):
            if ok:
                assert (log,) == tame.philog(el), el
            else:
                with pytest.raises(FieldError, match="tame prime"):
                    tame.philog(el)


def _scalar_splits(monkeypatch):
    # the primes that the scalar tail _c3_verdict classifies, in order
    verdict = census._c3_verdict
    seen = []

    def recorded(cd_, v, r, v1):
        seen.append(v)
        return verdict(cd_, v, r, v1)

    monkeypatch.setattr(census, "_c3_verdict", recorded)
    return seen


def test_split_lanes_defer_a_row_without_a_total(conductor, monkeypatch):
    # a row without a certified total, reached before a candidate is
    # accepted, defers its lattice whole: the scalar route splits it, with
    # the same records and no fallback
    cd = conductor(277)
    lo, hi = 10**6, 10**6 + 8000
    want = census._count_task(cd, [(lo, hi)])[0]
    bad = [v for v, *_ in want[0][::7]]
    totals = census._split_totals_lanes

    def uncertified(cd_, v, alpha):
        total, certified = totals(cd_, v, alpha)
        return total, certified & ~np.isin(v, bad)

    monkeypatch.setattr(census, "_split_totals_lanes", uncertified)
    scalar = _scalar_splits(monkeypatch)
    assert census._count_task(cd, [(lo, hi)])[0] == want
    assert scalar == bad and want[2] == 0


@pytest.mark.parametrize("held", ["none", "all"])
def test_split_lanes_defer_alpha_in_no_prime_or_two_above_p(conductor, monkeypatch, held):
    # the lanes told that alpha lies in no prime above p, or in every one
    # (two above each p of 277's factor base): a usable smooth candidate
    # with such a p | c defers its lattice, where the scalar cofactor would
    # count valuations out or raise; the scalar route splits it, with the
    # same records and no fallback
    cd = conductor(277)
    assert all(len(cd.cg.fb_ctx.above[p]) == 2 for p in cd.cg.fb_ctx.rational_primes)
    lo, hi = 10**6, 10**6 + 8000
    want = census._count_task(cd, [(lo, hi)])[0]
    monkeypatch.setattr(census, "_in_prime_lanes", lambda P, alpha: np.full(len(alpha), held == "all"))
    scalar = _scalar_splits(monkeypatch)
    assert census._count_task(cd, [(lo, hi)])[0] == want
    assert len(scalar) > len(want[0]) // 2 and want[2] == 0


def test_split_lanes_defer_an_exponent_that_f_does_not_divide(conductor, monkeypatch):
    # 277's two primes above 2 both have f = 2, so an e_2 raised by one is
    # odd: every lattice the lanes settled with alpha in one of them is
    # deferred instead, and the scalar route gives the same records
    cd = conductor(277)
    ctx = cd.cg.fb_ctx
    assert [P.f for P in ctx.above[2]] == [2, 2] and ctx.rational_primes[0] == 2
    lo, hi = 10**6, 10**6 + 8000
    want = census._count_task(cd, [(lo, hi)])[0]
    v, _, rows = _stage3(cd, lo, hi)
    settled, _, vals = census._split_lanes(cd, v, rows)
    at_two = vals[:, [ctx.index[P.key()] for P in ctx.above[2]]].any(axis=1)
    assert settled.all() and at_two.sum() > 10
    exponents = census._cofactor_exponents_lanes

    def raised(total, primes):
        exps, smooth = exponents(total, primes)
        exps[0] += exps[0] > 0
        return exps, smooth

    monkeypatch.setattr(census, "_cofactor_exponents_lanes", raised)
    assert not census._split_lanes(cd, v, rows)[0][at_two].any()
    scalar = _scalar_splits(monkeypatch)
    assert census._count_task(cd, [(lo, hi)])[0] == want
    assert set(v[at_two].tolist()) <= set(scalar) and want[2] == 0


def test_split_lanes_defer_a_lattice_without_an_accepted_row(conductor, monkeypatch):
    # totals of 3 on every row of some lattices: no candidate is usable, so
    # none of the four is accepted and the lattice is deferred; the scalar
    # route, with its own norms, gives the same records
    cd = conductor(277)
    lo, hi = 10**6, 10**6 + 8000
    want = census._count_task(cd, [(lo, hi)])[0]
    bad = [v for v, *_ in want[0][::7]]
    totals = census._split_totals_lanes

    def unusable(cd_, v, alpha):
        total, certified = totals(cd_, v, alpha)
        return np.where(np.isin(v, bad), 3, total), certified

    monkeypatch.setattr(census, "_split_totals_lanes", unusable)
    scalar = _scalar_splits(monkeypatch)
    assert census._count_task(cd, [(lo, hi)])[0] == want
    assert scalar == bad and want[2] == 0


def test_lane_primes_make_no_verdict_objects(conductor, monkeypatch):
    # a task whose primes all go through the lanes makes no
    # PrimeClassification: each segment's records and classified count come
    # from the int8 codes
    cd = conductor(277)
    segs = [(10**6, 10**6 + 8000), (10**6 + 8000, 10**6 + 16000)]
    want = census._count_task(cd, segs)

    def refused(*args, **kwargs):
        raise AssertionError("a verdict object was made")

    monkeypatch.setattr(census, "PrimeClassification", refused)
    assert census._count_task(cd, segs) == want
    assert [done for _, done, _ in want] == [len(arith.primes_in_range(lo + 1, hi + 1)) for lo, hi in segs]


def test_mod_lanes_reduce_integers_of_any_size():
    # unit and certificate coordinates reach the lanes as Python integers
    # of any sign and size; each row is that integer mod every lane's v
    v = np.array([7, 10007, 1000003, census.LANE_BOUND - 3], dtype=np.int64)
    values = [0, 1, -1, 2**31, -(2**31) - 5, 2**62 + 11, 3**100, -(7**90)]
    got = census._mod_lanes(values, v)
    assert got.dtype == np.int64
    assert got.tolist() == [[c % q for q in v.tolist()] for c in values]


def test_verdict_lanes_stop_at_the_lane_bound(conductor, monkeypatch):
    # with LANE_BOUND lowered into a window, exactly its primes at or past
    # the bound go whole through fast_classify, and its C3 primes among them
    # through _c3_verdict; the rest go through the lanes, and the records
    # are the same
    cd = conductor(277)
    lo, hi = 10**6, 10**6 + 8000
    want = census._count_task(cd, [(lo, hi)])[0]
    bound = lo + 4000
    verdict = census._c3_verdict
    scalar = []

    def recorded(cd_, v, r, v1):
        scalar.append(v)
        return verdict(cd_, v, r, v1)

    monkeypatch.setattr(census, "LANE_BOUND", bound)
    monkeypatch.setattr(census, "_c3_verdict", recorded)
    whole = _whole(monkeypatch)
    assert census._count_task(cd, [(lo, hi)])[0] == want
    c3 = [v for v, *_ in want[0]]
    assert whole == [v for v in arith.primes_in_range(lo + 1, hi + 1) if v >= bound]
    assert scalar == [v for v in c3 if v >= bound]
    assert 0 < len(scalar) < len(c3)


def test_a_zero_character_in_the_verdict_lanes_is_one_fallback(conductor, monkeypatch, caplog):
    # an alpha in v_2 has character 0 at v_2: that prime is classified by
    # classify_prime and counted as one fallback, with the same records
    cd = conductor(277)
    bad = _c3_primes(cd, 2000, 5000, count=10)[-1]
    want = census._count_task(cd, [(0, 5000)])[0]
    split = census._split_lanes

    def in_v2_at_bad(cd_, v, rows):
        settled, alpha, vals = split(cd_, v, rows)
        alpha[v == bad] = (bad, 0, 0, 0)
        return settled, alpha, vals

    monkeypatch.setattr(census, "_split_lanes", in_v2_at_bad)
    with caplog.at_level("INFO", logger="a4census.census"):
        got = census._count_task(cd, [(0, 5000)])[0]
    assert got[:-1] == want[:-1]
    assert (want[-1], got[-1]) == (0, 1)
    assert [r.getMessage() for r in caplog.records if "fast route failed" in r.getMessage()] == [
        f"conductor 277: fast route failed at {bad} "
        "(element is not coprime to the tame prime); using classify_prime"
    ]


@pytest.mark.parametrize("ell", CONDUCTORS)
@pytest.mark.parametrize("lo", [0, 10**6, 10**8, census.LANE_BOUND - 16000])
def test_task_of_several_segments_returns_each_segments_result(conductor, ell, lo, monkeypatch):
    # one task over three segments, the first two cut at a checkpoint, gives
    # exactly the results of three one-segment tasks; a fallback stubbed at
    # a C3 prime of the middle segment is counted in that segment only
    cd = conductor(ell)
    segs = [(lo, lo + 3000), (lo + 3000, lo + 8000), (lo + 8000, lo + 16000)]
    want = [census._count_task(cd, [seg])[0] for seg in segs]
    assert census._count_task(cd, segs) == want
    assert all(len(records) > 20 and fallbacks == 0 for records, _, fallbacks in want)
    bad = want[1][0][len(want[1][0]) // 2][0]
    c3_split = census._c3_split

    def failing(cd_, v, *args, **kwargs):
        if v == bad:
            raise FieldError(f"stubbed failure at {v}")
        return c3_split(cd_, v, *args, **kwargs)

    monkeypatch.setattr(census, "_c3_split", failing)
    _defer(monkeypatch, lambda v: v == bad)  # to the scalar split, which fails there
    got = census._count_task(cd, segs)
    assert [result[:2] for result in got] == [result[:2] for result in want]
    assert [fallbacks for *_, fallbacks in got] == [0, 1, 0]


@pytest.mark.parametrize("workers", [1, 2, 3, 4, 7, 64])
def test_task_cutter_covers_every_segment_once_in_order(workers):
    # every segment in exactly one task, in order, at most TASK_SEGMENTS
    # segments per task, at least one task per worker while the segments
    # last, and as many tasks for each worker
    size = census.TASK_SEGMENTS
    counts = {1, 2, 5, 9, size - 1, size, size + 1, 2 * size + 1, 130, 1000}
    for count in sorted(counts | {k * size * workers + 1 for k in (1, 3)}):
        segs = [(census.CHUNK * i, census.CHUNK * (i + 1)) for i in range(count)]
        tasks = census._tasks(segs, workers)
        assert [seg for task in tasks for seg in task] == segs, count
        assert all(0 < len(task) <= size for task in tasks), count
        assert len(tasks) >= min(workers, count), count
        assert max(map(len, tasks)) - min(map(len, tasks)) <= 1, count
        assert len(tasks) == count or len(tasks) % workers == 0, count
    # the nine segments of a census to 5*10^4 make two tasks on two workers
    segs = census._segments(50000, (1000, 5000, 50000))
    assert [len(task) for task in census._tasks(segs, 2)] == [5, 4]
    assert [len(task) for task in census._tasks(segs, 1)] == [9]
    # to 3*10^5, one worker takes three tasks and two workers four
    segs = census._segments(300000, census._checkpoints_for(300000, None))
    assert [len(task) for task in census._tasks(segs, 1)] == [14, 14, 14]
    assert [len(task) for task in census._tasks(segs, 2)] == [11, 11, 10, 10]


def test_census_row_ratios():
    # the ratio cells are rendered from a row's counts, the product from
    # the exact fraction 38*15 / 55^2; a row with c3 = 0 has none
    row = CensusRow(n=1000, c3=55, c_lambda=38, c_taubar=15, c_both=9, n_classified=167)
    empty = CensusRow(n=10, c3=0, c_lambda=0, c_taubar=0, c_both=0, n_classified=2)
    assert census_csv([row, empty]).splitlines()[1:] == [
        "1000,55,38,15,9,0.69091,0.27273,0.18843,0.16364",
        "10,0,0,0,0,,,,",
    ]


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
    # no segment ends at or below 0: such a checkpoint would empty the table
    for cps in [(0, 1000), (-5, 1000)]:
        with pytest.raises(ValueError, match=f"checkpoint {cps[0]} is not positive"):
            run_census(cd, 1000, checkpoints=cps)
    with pytest.raises(ValueError, match="checkpoint 0 is not positive"):
        run_census(cd, 0)


def test_default_checkpoints_end_at_the_bound(conductor, census):
    # without explicit checkpoints a census reports the table checkpoints
    # below its bound and then the bound itself
    cd = conductor(163)
    assert census_mod._checkpoints_for(3000, None) == (1000, 3000)
    assert census_mod._checkpoints_for(999, None) == (999,)
    assert run_census(cd, 3000) == run_census(cd, 3000, checkpoints=(1000, 3000))
    assert [r.n for r in run_census(cd, 999)] == [999]
    # the table bounds keep their golden rows
    for ell in CONDUCTORS:
        golden = golden_rows(ell)
        assert census_mod._checkpoints_for(10**6, None) == tuple(
            int(line.split(",")[0]) for line in golden[1:]
        )
        rows, _ = census(ell, 5 * 10**4)
        assert census_csv(rows).splitlines() == golden[:4]


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
    # run_census writes each segment's lines as it merges a task's results:
    # when the last task is classified, every C3 line of the earlier tasks
    # is already in the file
    cd = conductor(163)
    out = tmp_path / "d.jsonl"
    bound = census.TASK_SEGMENTS * census.CHUNK + 1000
    tasks = census._tasks(census._segments(bound, (bound,)), 1)
    assert len(tasks) == 2
    count = census._count_task
    seen = {}

    def spy(cd_, segs):
        if segs == tasks[-1]:
            seen["lines"] = out.read_text().splitlines()
        return count(cd_, segs)

    monkeypatch.setattr(census, "_count_task", spy)
    rows = run_census(cd, bound, checkpoints=(bound,), jsonl=str(out))
    lines = out.read_text().splitlines()
    assert len(lines) == rows[0].c3
    earlier = [line for line in lines if json.loads(line)["v"] <= tasks[-1][0][0]]
    assert seen["lines"] == earlier and len(earlier) > 1000


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
    # 4 * 91 = 16^2 + 27 * 2^2 = (-11)^2 + 27 * 3^2
    assert [f.poly for f in rep.fields] == [(64, -30, -1, 1), (-27, -30, -1, 1)]
    assert [f.h for f in rep.fields] == [3, 3]
    assert all(f.disc == (7 * 13) ** 2 for f in rep.fields)
    assert all(f.two_rank == 0 for f in rep.fields)


def test_diagonal_check_is_symmetric():
    a = diagonal_check(7, 13)
    b = diagonal_check(13, 7)
    assert a.fields == b.fields


def test_diagonal_check_errors():
    with pytest.raises(VerificationError):
        diagonal_check(7, 7)
    with pytest.raises(VerificationError):
        diagonal_check(7, 11)  # 11 = 2 mod 3
    with pytest.raises(VerificationError):
        diagonal_check(7, 15)


def _recorded_period_cubics():
    """{(l1, l2): set of period cubics} from tests/data/diagonal_period_cubics.csv."""
    path = Path(__file__).parent / "data" / "diagonal_period_cubics.csv"
    table = {}
    for line in path.read_text().splitlines():
        if line.startswith(("#", "l1,")):
            continue
        l1, l2, *poly = map(int, line.split(","))
        table.setdefault((l1, l2), set()).add(tuple(poly))
    return table


def test_diagonal_cubics_match_the_recorded_period_cubics(monkeypatch):
    # every pair of primes = 1 mod 3 below 110: the fields built from the
    # representations 4m = a^2 + 27 b^2 are the ones the Gauss-period power
    # sums gave; class groups are stubbed out, the field and its
    # discriminant check still run
    table = _recorded_period_cubics()
    assert len(table) == 78
    monkeypatch.setattr(census, "class_group", lambda K: types.SimpleNamespace(h=1))
    monkeypatch.setattr(census, "two_rank", lambda cg: 0)
    for (l1, l2), polys in table.items():
        rep = diagonal_check(l1, l2)
        assert {f.poly for f in rep.fields} == polys, (l1, l2)
        # listed by increasing b
        m = l1 * l2
        reps = arith.cubic_reps(m)
        assert [b for _, b in reps] == sorted(b for _, b in reps)
        assert [f.poly[0] for f in rep.fields] == [(m * (a + 3) - 1) // 27 for a, _ in reps]


def test_diagonal_check_rejects_a_wrong_representation_count(monkeypatch):
    (a, b), _ = arith.cubic_reps(7 * 13)
    monkeypatch.setattr(arith, "cubic_reps", lambda m: [(a, b)])
    with pytest.raises(VerificationError) as err:
        diagonal_check(7, 13)
    assert err.value.check == "diagonal-reps"
    # a shifted a breaks 27 | m (a + 3) - 1, the constant term's denominator
    monkeypatch.setattr(arith, "cubic_reps", lambda m: [(a + 3, b), (a, b)])
    with pytest.raises(VerificationError) as err:
        diagonal_check(7, 13)
    assert err.value.check == "diagonal-poly"


# ---------------------------------------------------------------------------
# Group-theoretic density.


def test_a4_order3_density():
    assert a4_order3_density() == Fraction(1, 3)
