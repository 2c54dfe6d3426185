"""Ray class 3-quotients: dimensions, Artin map, stability."""

import dataclasses
import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import a4census
from a4census import arith, census, linalg, rayclass
from a4census.census import VerificationError
from a4census.classgroup import class_group, ideal_short_elements, unit_group
from a4census.fields import (
    FieldError,
    QuotientRing,
    cubic_subfield,
    element_in_prime,
    factor_rational_prime,
    ideal_from_elements,
    ideal_mul,
    ideal_pow,
)
from a4census.rayclass import (
    Modulus,
    TameBlock,
    WildBlock,
    _WildCubicPresentation,
    artin_vector,
    modulus_stability_check,
    ray_class_3_quotient,
    ray_presentation,
)

from conftest import CONDUCTORS
from oracles import (
    brute_force_spans,
    numpy_rref_mod_p,
    power_dlog,
    power_wild_log,
    scratch_ray_class_3_quotient,
)


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_fixed_modulus_dimension_is_one(ell, conductor):
    cd = conductor(ell)
    assert cd.fixed_q.dim == 1


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_modulus_stability(ell, conductor):
    cd = conductor(ell)
    assert modulus_stability_check(ray_presentation(cd.cg, cd.u, WildBlock(cd.F, cd.p31)))


def test_artin_map_kills_ray_principal_ideals(conductor):
    # only generators congruent to 1 mod the modulus give the trivial
    # ray class; 9 * 163 lies in the modulus ideal, so 1 + 9*163*x works
    cd = conductor(163)
    F = cd.F
    one = F.one()
    scale = 9 * 163
    for x in [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 1), (0, 2, 1, 0)]:
        el = tuple(o + scale * c for o, c in zip(one, x))
        vec = artin_vector(cd.fixed_q, ideal_from_elements(F, [el]))
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
        hits.append(any(artin_vector(cd.fixed_q, ideal_from_elements(F, [el]))))
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


def _c3_primes_over(F, v):
    """v1 (degree 3) and v2 (degree 1) over the first prime v' >= v split as 1 + 3."""
    for w in arith.primes_in_range(v, v + 10**4):
        primes = factor_rational_prime(F, w)
        if sorted(P.f for P in primes) == [1, 3]:
            return next(P for P in primes if P.f == 3), next(P for P in primes if P.f == 1)
    raise AssertionError("no prime split as 1 + 3")


def test_artin_vector_refuses_an_ideal_that_meets_the_modulus(conductor):
    cd = conductor(163)
    v1, v2 = _c3_primes_over(cd.F, 1000)
    moving = ray_class_3_quotient(Modulus(cd.F, ((cd.p31, 2), (v2, 1))), cd.presentation)
    artin_vector(moving, list(v1.hnf))
    with pytest.raises(FieldError, match="ideal is not coprime to the modulus"):
        artin_vector(moving, list(v2.hnf))
    with pytest.raises(FieldError, match="ideal is not coprime to the modulus"):
        artin_vector(cd.fixed_q, list(cd.p31.hnf))
    with pytest.raises(FieldError, match="ideal is not coprime to the modulus"):
        artin_vector(cd.fixed_q, ideal_mul(cd.F, v1.hnf, cd.l2.hnf))


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_artin_vector_takes_the_hnf_test_only_where_the_norms_meet(ell, conductor, monkeypatch):
    # N(P) prime to N(A) puts 1 in P + A, so only a modulus prime whose
    # norm shares a factor with N(A) is tested, by whether a row of A lies
    # outside P (P is maximal, so then P + A = O); no HNF of P + A is taken
    cd = conductor(ell)
    F = cd.F
    v1, v2 = _c3_primes_over(F, 1000)
    p3 = next(P for P in factor_rational_prime(F, 3) if P.f == 1)
    l1 = next(P for P in factor_rational_prime(F, ell) if P.e == 1)
    moving = ray_class_3_quotient(Modulus(F, ((cd.p31, 2), (v2, 1))), cd.presentation)
    tested, splitting, hnfs = [], [], []
    real_member, real_split, real_hnf = rayclass.element_in_prime, rayclass.smooth_split, linalg.hnf

    def member(P, a):
        if not splitting:  # smooth_split's own coprimality tests are not counted
            tested.append(P.norm)
        return real_member(P, a)

    def split(*args, **kwargs):
        splitting.append(True)
        try:
            return real_split(*args, **kwargs)
        finally:
            splitting.pop()

    def hnf(*args, **kwargs):
        hnfs.append(args)
        return real_hnf(*args, **kwargs)

    monkeypatch.setattr(rayclass, "element_in_prime", member)
    monkeypatch.setattr(rayclass, "smooth_split", split)
    monkeypatch.setattr(linalg, "hnf", hnf)
    for q, A, norms in [
        (cd.fixed_q, v1.hnf, []),
        (moving, v1.hnf, [v1.p]),
        (cd.fixed_q, p3.hnf, [27]),
        (cd.fixed_q, l1.hnf, [ell]),
    ]:
        tested.clear()
        artin_vector(q, list(A))
        assert sorted(set(tested)) == norms
        # every row of A lies in P only if A is inside P: one row outside settles it
        assert len(tested) <= F.degree
    assert hnfs == []


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_relations_prime_to_the_modulus_are_read_off_their_valuations(ell, conductor):
    # a relation generator lies in a modulus prime exactly when that prime
    # is in the factor base with a positive entry in the generator's
    # valuation vector, as ray_class_3_quotient reads it; the fixed
    # quotient and the moving quotients of 20 C3 primes above 10^6 equal
    # those built from the relations that element_in_prime finds prime to
    # the modulus
    cd = conductor(ell)
    F, cg = cd.F, cd.cg
    moduli = [cd.fixed_q.modulus]
    for v in arith.primes_in_range(10**6, 10**6 + 10**4):
        primes = factor_rational_prime(F, v)
        if sorted(P.f for P in primes) == [1, 3]:
            v2 = next(P for P in primes if P.f == 1)
            moduli.append(Modulus(F, ((cd.p31, 2), (v2, 1))))
        if len(moduli) == 21:
            break
    assert len(moduli) == 21
    keys = [P.key() for P in cg.factor_base]
    skipped = 0
    for m in moduli:
        kept = []
        for gen, vec in cg.relations:
            inside = [element_in_prime(P, gen) for P, _ in m.finite]
            assert inside == [
                P.key() in keys and vec[keys.index(P.key())] > 0 for P, _ in m.finite
            ]
            if not any(inside):
                kept.append((gen, vec))
        skipped += len(cg.relations) - len(kept)
        filtered = dataclasses.replace(cg, relations=tuple(kept))
        want = ray_class_3_quotient(m, ray_presentation(filtered, cd.u, cd.wild))
        got = ray_class_3_quotient(m, cd.presentation)
        shape = (want.rel_rref, want.rel_pivots, want.free_cols, want.dim)
        assert (got.rel_rref, got.rel_pivots, got.free_cols, got.dim) == shape
        if m is cd.fixed_q.modulus:  # the load's own
            q = cd.fixed_q
            assert (q.rel_rref, q.rel_pivots, q.free_cols, q.dim) == shape
    # 3_1 (norm 27) is in the factor base of 349 only
    assert (skipped > 0) == (cd.p31.key() in keys) == (ell == 349)


def _with_shortfall(cd, m, want):
    """cd.cg with its relations cut to every relation that meets a modulus
    prime and the longest prefix of the others whose factor-base columns
    fall `want` short of rank |fb_positions| - cl3 mod 3."""
    cg = cd.cg
    inside = [m.contains_prime(P) for P in cg.factor_base]
    positions = [j for j, hit in enumerate(inside) if not hit]
    cl3 = sum(1 for d in cg.divisors if d % 3 == 0)
    skipped = [r for r in cg.relations if any(e > 0 and hit for e, hit in zip(r[1], inside))]
    kept = [r for r in cg.relations if r not in skipped]
    assert skipped
    for t in range(len(kept), -1, -1):
        rows = [[vec[j] % 3 for j in positions] for _, vec in kept[:t]]
        rank = len(linalg.rref_mod_p(rows, len(positions), 3)[1])
        if len(positions) - cl3 - rank == want:
            return dataclasses.replace(cg, relations=tuple(skipped + kept[:t]))
    raise AssertionError(f"no prefix falls {want} short")


def test_too_few_relations_at_a_tame_modulus_prime_is_a_field_error(conductor):
    # v = 7 is a C3 prime of 163 whose degree-1 prime v2 (norm 7) is in the
    # factor base, so the moving quotient skips the relations at v2; kept
    # rows that no longer present Cl/3Cl would give too large a dimension
    cd = conductor(163)
    v2 = next(P for P in factor_rational_prime(cd.F, 7) if P.f == 1)
    assert v2.key() in [P.key() for P in cd.cg.factor_base]
    m = Modulus(cd.F, ((cd.p31, 2), (v2, 1)))
    assert ray_class_3_quotient(m, cd.presentation).dim >= 1
    assert ray_class_3_quotient(m, ray_presentation(_with_shortfall(cd, m, 0), cd.u, cd.wild)).dim >= 1
    short = ray_presentation(_with_shortfall(cd, m, 1), cd.u, cd.wild)
    with pytest.raises(FieldError, match="too few relations"):
        ray_class_3_quotient(m, short)


@pytest.mark.parametrize("shortfall", [1, 2, 3])
def test_too_few_relations_at_3_1_raise_the_fixed_dimension(conductor, shortfall, monkeypatch):
    # 3_1 (norm 27) is in the factor base of 349 only: relations at 3_1 are
    # skipped by the fixed quotient without the tame check, and a shortfall
    # of k shows as dimension 1 + k, which the load refuses at fixed-dim
    cd = conductor(349)
    m = cd.fixed_q.modulus
    short_cg = _with_shortfall(cd, m, shortfall)
    assert ray_class_3_quotient(m, ray_presentation(short_cg, cd.u, cd.wild)).dim == 1 + shortfall
    monkeypatch.setattr(
        census,
        "ray_class_3_quotient",
        lambda m, pres: ray_class_3_quotient(m, ray_presentation(short_cg, pres.u, pres.wild)),
    )
    with pytest.raises(VerificationError) as err:
        census.load_conductor(349)
    assert err.value.check == "fixed-dim"


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
    units = cd.u.fundamental_units
    rows_good = [list(cd.wild.philog(w)) + [t] for w, t in zip(units, cd.unit_l2)]
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
    assert ray_class_3_quotient(m, ray_presentation(cd.cg, u_bad, WildBlock(F, cd.p31))).dim == cd.fixed_q.dim


def test_ray_quotient_rejects_a_wild_block_at_another_prime(conductor):
    cd = conductor(163)
    p32 = next(P for P in factor_rational_prime(cd.F, 3) if P.f == 1)
    with pytest.raises(FieldError):
        ray_class_3_quotient(Modulus(cd.F, ((p32, 2),)), cd.presentation)
    with pytest.raises(FieldError):
        ray_class_3_quotient(Modulus(cd.F, ((cd.l2, 1),)), cd.presentation)
    q = ray_class_3_quotient(Modulus(cd.F, ((cd.p31, 2), (cd.l2, 1))), cd.presentation)
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
    # an independent small case: modulus 3^2 * P7 in the cubic field of
    # conductor 7 with trivial class group, where 3 is inert
    L = cubic_subfield(7)
    cg = class_group(L)
    u = unit_group(L)
    (P3,) = factor_rational_prime(L, 3)
    (P7,) = factor_rational_prime(L, 7)
    q = ray_class_3_quotient(Modulus(L, ((P3, 2), (P7, 1))), ray_presentation(cg, u, WildBlock(L, P3)))
    # F_3^3 from the 1-units at 3 and F_3 from (O/P7)^*, less two unit rows
    assert (q.local_dim, q.dim) == (4, 2)
    assert brute_force_spans(q)


def _moving_moduli(cd, lo, hi, count=None):
    """3_1^2 v_2 for the C3 primes v in [lo, hi), the first `count` of them."""
    out = []
    for v in arith.primes_in_range(lo, hi):
        if cd.excluded(v) or v % 3 != 1:
            continue
        primes = factor_rational_prime(cd.F, v)
        if sorted(P.f for P in primes) == [1, 3]:
            v2 = next(P for P in primes if P.f == 1)
            out.append(Modulus(cd.F, ((cd.p31, 2), (v2, 1))))
            if len(out) == count:
                break
    return out


def _shape(q):
    return (q.dim, q.local_dim, q.fb_positions, q.rel_rref, q.rel_pivots, q.free_cols)


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_presentation_quotients_match_the_scratch_oracle(conductor, ell):
    # the load's presentation plus a tame column against every row
    # eliminated whole: the stability quotient, the fixed one (the load's
    # own too), and the moving quotient of every C3 prime below 2*10^4
    # (whose v_2 may lie in the factor base) and of the first 20 after
    # 10^6 and after 10^8
    cd = conductor(ell)
    moduli = [Modulus(cd.F, ((cd.p31, 2),)), cd.fixed_q.modulus]
    moduli += _moving_moduli(cd, 2, 2 * 10**4)
    moduli += _moving_moduli(cd, 10**6, 10**6 + 10**4, count=20)
    moduli += _moving_moduli(cd, 10**8, 10**8 + 10**4, count=20)
    in_base = 0
    for m in moduli:
        want = _shape(scratch_ray_class_3_quotient(m, cd.cg, cd.u, cd.wild))
        assert _shape(ray_class_3_quotient(m, cd.presentation)) == want, m.finite
        in_base += any(m.contains_prime(P) for P in cd.cg.factor_base if P.key() != cd.p31.key())
    assert _shape(cd.fixed_q) == _shape(scratch_ray_class_3_quotient(cd.fixed_q.modulus, cd.cg, cd.u, cd.wild))
    assert len(moduli) > 700 and in_base > 0


def test_presentation_quotients_of_the_small_cubic_match_the_scratch_oracle():
    # the cubic field of conductor 7 (3 inert, trivial class group) at
    # 3^2 P7, at 3^2 P7 Q13 with two tame primes, and with the tame prime
    # listed before the wild one
    L = cubic_subfield(7)
    cg, u = class_group(L), unit_group(L)
    (P3,) = factor_rational_prime(L, 3)
    (P7,) = factor_rational_prime(L, 7)
    Q13 = factor_rational_prime(L, 13)[0]
    assert Q13.f == 1  # 13 is a cube mod 7, so it splits
    wild = WildBlock(L, P3)
    pres = ray_presentation(cg, u, wild)
    for finite in (((P3, 2), (P7, 1)), ((P3, 2), (P7, 1), (Q13, 1)), ((P7, 1), (P3, 2))):
        m = Modulus(L, finite)
        want = scratch_ray_class_3_quotient(m, cg, u, wild)
        got = ray_class_3_quotient(m, pres)
        assert _shape(got) == _shape(want), finite
    assert got.dim == 2


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_presentation_transform_gives_the_echelon_rows_and_the_left_kernel(conductor, ell):
    # the kept generators are the units, then the relation generators prime
    # to 3_1; each row is its wild log and minus its valuations mod 3; T is
    # invertible and T rows = the RREF of the rows, then zero rows
    cd = conductor(ell)
    pres = cd.presentation
    units = cd.u.fundamental_units
    kept = [(gen, vec) for gen, vec in cd.cg.relations if not element_in_prime(cd.p31, gen)]
    assert pres.gens == tuple(units) + tuple(gen for gen, _ in kept)
    fb = [P for P in cd.cg.factor_base]
    assert [fb[j].key() for j in pres.fb_positions] == [P.key() for P in fb if P.key() != cd.p31.key()]
    for i, (gen, row) in enumerate(zip(pres.gens, pres.rows)):
        assert row[: cd.wild.dim] == power_wild_log(cd.F, cd.p31, gen)
        vec = kept[i - len(units)][1] if i >= len(units) else (0,) * len(fb)
        assert row[cd.wild.dim :] == tuple(-vec[j] % 3 for j in pres.fb_positions)
    n, ncols = len(pres.rows), len(pres.rows[0])
    T = pres.transform.tolist()
    assert len(numpy_rref_mod_p(T, n, 3)[1]) == n
    product = [
        tuple(sum(T[k][i] * pres.rows[i][c] for i in range(n)) % 3 for c in range(ncols)) for k in range(n)
    ]
    assert (list(pres.rref), list(pres.pivots)) == numpy_rref_mod_p(pres.rows, ncols, 3)
    assert product == list(pres.rref) + [(0,) * ncols] * (n - len(pres.rref))


def test_presentation_refuses_a_unit_in_the_modulus(conductor):
    # 3u lies in 3_1 and v u in v_2: both fail as explicit errors
    cd = conductor(163)
    units = cd.u.fundamental_units
    in_p31 = dataclasses.replace(cd.u, fundamental_units=(tuple(3 * x for x in units[0]),) + units[1:])
    with pytest.raises(FieldError, match="unit not coprime to the modulus"):
        ray_presentation(cd.cg, in_p31, cd.wild)
    v1, v2 = _c3_primes_over(cd.F, 1000)
    in_v2 = dataclasses.replace(cd.u, fundamental_units=(tuple(v2.p * x for x in units[0]),) + units[1:])
    pres = ray_presentation(cd.cg, in_v2, cd.wild)
    with pytest.raises(FieldError, match="unit not coprime to the modulus"):
        ray_class_3_quotient(Modulus(cd.F, ((cd.p31, 2), (v2, 1))), pres)


def test_tame_block_philog_multiplicative(conductor):
    cd = conductor(163)
    tame = cd.tame_l2
    F = cd.F
    a = (1, 1, 0, 0)
    b = (2, 0, 1, 0)
    ab = F.el_mul(a, b)
    pa, pb, pab = tame.philog(a), tame.philog(b), tame.philog(ab)
    assert pab[0] == (pa[0] + pb[0]) % 3


def test_tame_block_takes_a_norm_and_a_root(conductor):
    # the block at (q, theta - r) built from q and r is the one the fixed
    # quotient built from ell_2; a degree-3 prime has no root and no block
    cd = conductor(163)
    F = cd.F
    block = TameBlock(F, cd.l2.norm, cd.l2.theta_root)
    assert (block.basis_vals, block.omega) == (cd.tame_l2.basis_vals, cd.tame_l2.omega)
    v1 = next(
        P
        for v in arith.primes_in_range(5, 10**4)
        if v % 3 == 1
        for P in factor_rational_prime(F, v)
        if P.f == 3
    )
    with pytest.raises(FieldError, match="degree-1 prime"):
        TameBlock(F, v1.norm, v1.theta_root)


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
    # the table of unit classes mod 3_1^2 against a^(N-1) - 1 by square
    # and multiply, on large elements coprime to 3_1 and their products
    # (277 has index 4)
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


def _gens_prime_to_p31(cd, extra=60):
    """The relation generators prime to 3_1, then the first `extra` short
    elements of the maximal order prime to 3_1: the harvest stops at its
    targets, so the relations alone are a few dozen."""
    F, P = cd.F, cd.p31
    gens = [gen for gen, _ in cd.cg.relations if not element_in_prime(P, gen)]
    ring = [tuple(int(i == j) for j in range(F.degree)) for i in range(F.degree)]
    short = (el for el in ideal_short_elements(F, ring) if not element_in_prime(P, el))
    return gens + list(itertools.islice(short, extra))


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_wild_logs_of_the_load_match_the_powering_oracle(conductor, ell):
    # the logs the quotients and certificates present: units,
    # certificates and relation generators
    cd = conductor(ell)
    F, P = cd.F, cd.p31
    for w in cd.u.fundamental_units:
        assert cd.wild.philog(w) == power_wild_log(F, P, w)
    for cert in cd.certs:
        if cert is not None:
            _, gamma, wild_log, _ = cert
            assert wild_log == power_wild_log(F, P, gamma)
    gens = _gens_prime_to_p31(cd)
    assert len(gens) > 50
    for gen in gens:
        assert cd.wild.philog(gen) == power_wild_log(F, P, gen)


@pytest.mark.parametrize("ell", CONDUCTORS + (7,))
def test_wild_table_covers_every_unit_class(conductor, ell):
    # every residue mod P^2 (9O lies in P^2, so coordinates 0..8 meet each
    # class) against the powering oracle; 7 is the cubic field of
    # conductor 7, where 3 is inert
    if ell == 7:
        K = cubic_subfield(7)
        (P,) = factor_rational_prime(K, 3)
        wild = WildBlock(K, P)
    else:
        cd = conductor(ell)
        K, P, wild = cd.F, cd.p31, cd.wild
    ring = QuotientRing(K, ideal_pow(K, list(P.hnf), 2))
    classes = {ring.reduce(x) for x in itertools.product(range(9), repeat=K.degree)}
    assert len(classes) == P.norm**2
    units = 0
    for x in classes:
        if element_in_prime(P, x):
            with pytest.raises(FieldError, match="not coprime"):
                wild.philog(x)
        else:
            units += 1
            assert wild.philog(x) == power_wild_log(K, P, x)
    assert units == P.norm * (P.norm - 1)


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_stability_dlog_rows_match_the_power_oracle(conductor, ell):
    # every row the integer-Smith stability check takes from a discrete
    # log: the units and the relation generators prime to 3_1
    cd = conductor(ell)
    w = _WildCubicPresentation(cd.F, cd.p31)
    assert all(len(t) == 3 for t in w.inverse)
    gens = _gens_prime_to_p31(cd)
    assert len(gens) > 50
    for el in list(cd.u.fundamental_units) + gens:
        assert w.dlog(el) == power_dlog(w, el)
