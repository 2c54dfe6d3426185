"""Ray class 3-quotients: dimensions, Artin map, stability."""

import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import a4census
from a4census.classgroup import class_group, unit_group
from a4census.fields import (
    FieldError,
    cubic_subfield,
    element_ideal,
    element_in_prime,
    factor_rational_prime,
    ideal_mul,
)
from a4census.rayclass import (
    Modulus,
    artin_vector,
    brute_force_spans,
    frobenius_residue_degree,
    modulus_stability_check,
    ray_class_3_quotient,
)

from conftest import CONDUCTORS
from oracles import power_wild_log


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_fixed_modulus_dimension_is_one(ell, conductor):
    cd = conductor(ell)
    assert cd.fixed_q.dim == 1


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_modulus_stability(ell, conductor):
    cd = conductor(ell)
    assert modulus_stability_check(cd.F, cd.p31, cd.cg, cd.u)


def test_artin_map_kills_ray_principal_ideals(conductor):
    # only generators congruent to 1 mod the modulus give the trivial
    # ray class; 9 * 163 lies in the modulus ideal, so 1 + 9*163*x works
    cd = conductor(163)
    F = cd.F
    one = F.one()
    scale = 9 * 163
    for x in [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 1), (0, 2, 1, 0)]:
        el = tuple(o + scale * c for o, c in zip(one, x))
        vec = artin_vector(cd.fixed_q, element_ideal(F, el))
        assert not any(vec)


def test_artin_map_sees_generic_principal_ideals(conductor):
    # a generator not congruent to 1 mod the modulus generally has a
    # nonzero ray class even though its ideal class is trivial
    cd = conductor(163)
    F = cd.F
    hits = []
    for el in [(1, 1, 0, 0), (2, 0, 1, 0), (1, 0, 0, 1)]:
        nm = F.el_norm(el)
        assert nm != 0 and nm % 3 != 0 and nm % 163 != 0
        hits.append(any(artin_vector(cd.fixed_q, element_ideal(F, el))))
    assert any(hits)


def test_artin_map_is_multiplicative(conductor):
    cd = conductor(163)
    F = cd.F
    P = factor_rational_prime(F, 7)[0]
    Q = factor_rational_prime(F, 13)[0]
    vp = artin_vector(cd.fixed_q, P.hnf)
    vq = artin_vector(cd.fixed_q, Q.hnf)
    vpq = artin_vector(cd.fixed_q, ideal_mul(F, P.hnf, Q.hnf))
    assert vpq == tuple((a + b) % 3 for a, b in zip(vp, vq))


def test_frobenius_residue_degree_values(conductor):
    cd = conductor(163)
    # in a Z/3 quotient the residue degree is 1 or 3 and detects whether
    # the Artin class vanishes
    for p in (7, 13, 31, 61):
        for P in factor_rational_prime(cd.F, p):
            f = frobenius_residue_degree(cd.fixed_q, P)
            vec = artin_vector(cd.fixed_q, P.hnf)
            assert f == (1 if not any(vec) else 3)


def test_brute_force_span_on_fixed_modulus(conductor):
    cd = conductor(163)
    assert brute_force_spans(cd.fixed_q)


def test_cubed_unit_breaks_the_unit_presentation(conductor):
    # the fast classifier presents the fixed quotient on 4 local
    # coordinates with the 3 saturated-unit philog rows as the only
    # relations; a cubed generator has zero philog and loses a rank, so
    # saturation is load-bearing exactly there
    from a4census import linalg

    cd = conductor(163)
    F = cd.F
    rows_good = [list(pw) + [t] for pw, t in zip(cd.unit_wild, cd.unit_l2)]
    _, pivots_good = linalg.rref_mod_p(rows_good, 4, 3)
    assert 4 - len(pivots_good) == 1

    cubed = F.el_pow(cd.u.fundamental_units[2], 3)
    rows_bad = rows_good[:2] + [
        list(cd.wild.philog(cubed)) + [cd.tame_l2.philog(cubed)[0]]
    ]
    assert rows_bad[2] == [0, 0, 0, 0]
    _, pivots_bad = linalg.rref_mod_p(rows_bad, 4, 3)
    assert 4 - len(pivots_bad) == 2


def test_relation_rows_cover_a_cubed_unit(conductor):
    # the full quotient does not saturate units itself; a cubed generator
    # still leaves the dimension unchanged, because the class-group
    # relation rows already span the unit images
    cd = conductor(163)
    F = cd.F
    units = list(cd.u.fundamental_units)
    cubed = tuple(units[:2] + [F.el_pow(units[2], 3)])
    u_bad = dataclasses.replace(cd.u, fundamental_units=cubed)
    m = Modulus(F, ((cd.p31, 2), (cd.l2, 1)))
    assert ray_class_3_quotient(m, cd.cg, u_bad).dim == cd.fixed_q.dim


def test_ray_quotient_rejects_a_wild_block_at_another_prime(conductor):
    cd = conductor(163)
    with pytest.raises(FieldError):
        ray_class_3_quotient(Modulus(cd.F, ((cd.p32, 2),)), cd.cg, cd.u, cd.wild)
    with pytest.raises(FieldError):
        ray_class_3_quotient(Modulus(cd.F, ((cd.l2, 1),)), cd.cg, cd.u, cd.wild)
    q = ray_class_3_quotient(Modulus(cd.F, ((cd.p31, 2), (cd.l2, 1))), cd.cg, cd.u, cd.wild)
    assert q.blocks[0] is cd.wild and q.dim == cd.fixed_q.dim


def test_rayclass_checks_hold_under_optimize():
    # the lattice and wild-block checks are explicit errors, so they
    # still fire with assertions stripped
    code = textwrap.dedent(
        """
        from a4census.fields import FieldError, cubic_subfield, factor_rational_prime
        from a4census.rayclass import WildBlock, _LatticeQuotientF3

        K = cubic_subfield(7)
        try:
            WildBlock(K, factor_rational_prime(K, 7)[0])
        except FieldError:
            print("FieldError")
        try:
            _LatticeQuotientF3([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(9, 0, 0)], 3)
        except FieldError:
            print("FieldError")
        (P3,) = factor_rational_prime(K, 3)  # 3 is inert: P3 = 3O
        try:
            WildBlock(K, P3).philog((3, 6, -3))
        except FieldError:
            print("FieldError")
        """
    )
    src = str(Path(a4census.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["FieldError", "FieldError", "FieldError"]


def test_factorization_checks_hold_under_optimize():
    # every factor-base prime and certificate rests on these self-checks,
    # so they still fire with assertions stripped
    code = textwrap.dedent(
        """
        from a4census import arith, fields
        from a4census.fields import FieldError, cubic_subfield, factor_rational_prime

        K = cubic_subfield(7)
        real = fields.factor_poly_mod_p
        fields.factor_poly_mod_p = lambda f, p: real(f, p)[:1]  # drop a prime
        try:
            factor_rational_prime(K, 13)
        except FieldError:
            print("FieldError")
        arith._edf = lambda f, d, p, rng: [(1, 1)] * (arith.poly_deg(f) // d)
        try:
            arith.factor_poly_mod_p((1, 0, 1), 5)
        except ArithmeticError:
            print("ArithmeticError")
        try:
            fields._pm_invmod((0, 1), (0, 0, 1), 5)  # x shares a factor with x^2
        except FieldError:
            print("FieldError")
        try:
            fields._pm_quot((1, 0, 1), (0, 1), 5)  # x^2 + 1 = x * x + 1
        except FieldError:
            print("FieldError")
        """
    )
    src = str(Path(a4census.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["FieldError", "ArithmeticError", "FieldError", "FieldError"]


def test_moving_modulus_classification_spot_check(conductor):
    # 7, 19, 43 are the smallest order-3 Frobenius primes for ell = 163
    cd = conductor(163)
    from a4census.census import classify_prime

    for v in (7, 19, 43):
        assert classify_prime(cd, v).in_C3
    for v in (5, 11, 13):
        assert not classify_prime(cd, v).in_C3


def test_small_cubic_ray_quotient_brute_force():
    # an independent small case: modulus (7) in the cubic field of
    # conductor 7 with trivial class group
    L = cubic_subfield(7)
    cg = class_group(L)
    u = unit_group(L)
    (P7,) = factor_rational_prime(L, 7)
    m = Modulus(L, ((P7, 1),))
    q = ray_class_3_quotient(m, cg, u)
    assert brute_force_spans(q)


def test_tame_block_philog_multiplicative(conductor):
    cd = conductor(163)
    tame = cd.tame_l2
    F = cd.F
    a = (1, 1, 0, 0)
    b = (2, 0, 1, 0)
    ab = F.el_mul(a, b)
    pa, pb, pab = tame.philog(a), tame.philog(b), tame.philog(ab)
    assert pab[0] == (pa[0] + pb[0]) % 3


def test_wild_block_philog_multiplicative(conductor):
    cd = conductor(163)
    wild = cd.wild
    F = cd.F
    a = (1, 1, 0, 0)
    b = (1, 0, 1, 0)
    ab = F.el_mul(a, b)
    pa, pb, pab = wild.philog(a), wild.philog(b), wild.philog(ab)
    assert list(pab) == [(x + y) % 3 for x, y in zip(pa, pb)]


big_element = st.tuples(*[st.integers(min_value=-(10**12), max_value=10**12)] * 4)


@pytest.mark.parametrize("ell", CONDUCTORS)
@given(a=big_element, b=big_element)
@settings(max_examples=30, deadline=None)
def test_wild_log_matches_the_powering_oracle(conductor, ell, a, b):
    # the Teichmueller table against a^(N-1) - 1 by square and multiply,
    # on elements coprime to 3_1 and their products (277 has index 4)
    cd = conductor(ell)
    F, P = cd.F, cd.p31
    assume(not element_in_prime(P, a) and not element_in_prime(P, b))
    for x in (a, b, F.el_mul(a, b)):
        assert cd.wild.philog(x) == power_wild_log(F, P, x)
    inside = F.el_mul(a, P.hnf[-1])
    with pytest.raises(FieldError):
        cd.wild.philog(inside)
    with pytest.raises(FieldError):
        power_wild_log(F, P, inside)


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_wild_logs_of_the_load_match_the_powering_oracle(conductor, ell):
    # the looked-up logs: units, certificates and relation generators
    cd = conductor(ell)
    F, P = cd.F, cd.p31
    assert cd.unit_wild == tuple(power_wild_log(F, P, w) for w in cd.u.fundamental_units)
    for cert in cd.certs:
        if cert is not None:
            _, gamma, wild_log, _ = cert
            assert wild_log == power_wild_log(F, P, gamma)
    gens = [gen for gen, _ in cd.cg.relations if not element_in_prime(P, gen)]
    assert len(gens) > 50
    for gen in gens:
        assert cd.wild.philog(gen) == power_wild_log(F, P, gen)
