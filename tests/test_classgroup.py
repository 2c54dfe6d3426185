"""Class groups, units, and 3-saturation on the census fields."""

import functools
import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import a4census
from a4census import arith, classgroup, fields, linalg
from a4census.census import diagonal_check
from a4census.classgroup import (
    BOX_RADII,
    EMBEDDING_DIGITS,
    _box_layer,
    _coefficient_boxes,
    _combine,
    _reduced_basis,
    _start_bound,
    _valuations_above,
    class_group,
    cube_root_frame,
    exact_cube_root,
    ideal_class_coordinates,
    ideal_short_elements,
    saturate_units_at_3,
    smooth_split,
    two_rank,
    unit_group,
)
from a4census.fields import (
    FieldError,
    cubic_subfield,
    factor_rational_prime,
    ideal_from_elements,
    ideal_mul,
    ideal_pow,
    new_number_field,
    quartic_field_search,
)

from conftest import CONDUCTORS
from oracles import all_coefficient_boxes, lu_solve_cube_root, powering_valuation

KNOWN_H_L = {163: 4, 277: 4, 349: 4}
KNOWN_H_F = {163: 1, 277: 2, 349: 1}


@pytest.mark.parametrize("ell", [163, 277, 349])
def test_cubic_class_group(ell):
    cg = class_group(cubic_subfield(ell))
    assert cg.h == KNOWN_H_L[ell]
    assert tuple(cg.divisors) == (2, 2)
    assert two_rank(cg) == 2


@pytest.mark.parametrize("ell", [163, 277, 349])
def test_quartic_class_group_prime_to_3(ell):
    cg = class_group(quartic_field_search(ell))
    assert cg.h == KNOWN_H_F[ell]
    assert cg.h % 3 != 0


def _relation_ideals_hold(K, cg):
    """Every relation of cg is an exact ideal equality (gen) = prod P_j^vec_j."""
    for gen, vec in cg.relations:
        rhs = [tuple(int(i == j) for j in range(K.degree)) for i in range(K.degree)]
        for P, e in zip(cg.factor_base, vec):
            if e:
                rhs = ideal_mul(K, rhs, ideal_pow(K, list(P.hnf), e))
        if ideal_from_elements(K, [gen]) != rhs:
            return False
    return True


def test_diagonal_cubics_of_259_have_class_number_3():
    # Both diagonal cubics of conductor 7 * 37 have h = 3: the relations
    # hold as ideal equalities and span a lattice of index 3 over the
    # Minkowski factor base, so h | 3, and 3 | h by genus theory (two
    # ramified primes).  An earlier harvest took 50% more relations from
    # whole enumeration rounds and accepted an index-3 sublattice (h = 9).
    rep = diagonal_check(7, 37)
    assert [f.h for f in rep.fields] == [3, 3]
    for f in rep.fields:
        K = new_number_field(f.poly)
        cg = class_group(K)
        assert (cg.h, cg.divisors) == (3, (3,))
        assert _relation_ideals_hold(K, cg)


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_relations_of_the_load_are_ideal_equalities(conductor, ell):
    cd = conductor(ell)
    for K, cg in ((cd.L, cd.cg_L), (cd.F, cd.cg)):
        assert _relation_ideals_hold(K, cg)


@pytest.mark.parametrize("build", [cubic_subfield, quartic_field_search])
def test_harvest_stops_at_its_target(build, monkeypatch):
    # Each Smith round sees exactly the relations asked for: the free
    # relations and max(2 * |fb|, |fb| + 6) more, then a top-up of
    # max(4, ceil(rows / 2)) per round, since a visit stops at its first
    # new relation and the harvest at its target.
    K = build(277)
    rounds = []
    smith = linalg.smith_normal_form

    def counted(mat, nrows, ncols):
        rounds.append(len(mat))
        return smith(mat, nrows, ncols)

    monkeypatch.setattr(linalg, "smith_normal_form", counted)
    cg = class_group(K)
    ctx, nfb = cg.fb_ctx, len(cg.factor_base)
    bound = fields.minkowski_bound(K)
    free = sum(all(P.norm <= bound for P in ctx.above[p]) for p in ctx.rational_primes)
    want = [free + max(2 * nfb, nfb + 6)]
    while len(want) < len(rounds):
        want.append(want[-1] + max(4, -(-want[-1] // 2)))
    assert len(rounds) >= 2 and rounds == want
    assert len(cg.relations) == rounds[-1]


def test_trivial_class_group_small_cubic():
    cg = class_group(cubic_subfield(7))
    assert cg.h == 1
    assert cg.divisors == ()


def test_ramified_prime_above_163_is_principal():
    # the square of the conductor prime is (ell); principality of the
    # prime itself is the computable face of "splits completely in the
    # Hilbert class field"
    L = cubic_subfield(163)
    cg = class_group(L)
    (P,) = factor_rational_prime(L, 163)
    assert P.e == 3
    coords = ideal_class_coordinates(P.hnf, cg)
    assert not any(coords)


def test_class_coordinates_are_homomorphic():
    L = cubic_subfield(163)
    cg = class_group(L)
    P = factor_rational_prime(L, 7)[0]
    Q = factor_rational_prime(L, 13)[0]
    cp = ideal_class_coordinates(P.hnf, cg)
    cq = ideal_class_coordinates(Q.hnf, cg)
    prod = ideal_mul(L, P.hnf, Q.hnf)
    cpq = ideal_class_coordinates(prod, cg)
    assert cpq == tuple(
        (a + b) % d for a, b, d in zip(cp, cq, cg.divisors)
    )


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_smith_rows_are_the_class_coordinates_of_the_base(conductor, ell):
    # the certificates read a factor-base prime's class off its Smith row;
    # a split of the prime itself must give the same coordinates
    cg = conductor(ell).cg
    assert len(cg.coord_rows) == len(cg.factor_base)
    for Q, row in zip(cg.factor_base, cg.coord_rows):
        assert ideal_class_coordinates(Q.hnf, cg) == row, Q.key()


def test_principal_ideal_has_trivial_class():
    L = cubic_subfield(163)
    cg = class_group(L)
    A = ideal_from_elements(L, [(5, 1, 0)])
    assert linalg.lattice_index(A) == abs(L.el_norm((5, 1, 0)))
    assert not any(ideal_class_coordinates(A, cg))


combine_case = st.tuples(
    st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=5)
).flatmap(
    lambda km: st.tuples(
        st.lists(st.integers(min_value=-(10**9), max_value=10**9), min_size=km[0], max_size=km[0]),
        st.lists(
            st.lists(st.integers(min_value=-(10**9), max_value=10**9), min_size=km[1], max_size=km[1]),
            min_size=km[0],
            max_size=km[0],
        ),
    )
)


@given(combine_case)
@settings(max_examples=150)
def test_combine_matches_the_double_loop(case):
    # k coefficients against k rows of length m, k and m independent
    coeffs, rows = case
    want = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        for j, x in enumerate(row):
            want[j] += c * x
    assert _combine(coeffs, rows) == tuple(want)


# ---------------------------------------------------------------------------
# Units.


@pytest.mark.parametrize("ell", [163, 277, 349])
def test_unit_group_rank_and_norms(ell):
    F = quartic_field_search(ell)
    u = unit_group(F)
    assert u.rank == 3  # totally real quartic: r1 + r2 - 1
    for unit in u.fundamental_units:
        assert abs(F.el_norm(unit)) == 1
    assert u.regulator_estimate > 0


def test_saturation_removes_injected_cubes():
    F = quartic_field_search(163)
    u = unit_group(F)
    units = list(u.fundamental_units)
    # replace one generator by its cube: the lattice index gains a factor 3
    cubed = units[:2] + [F.el_pow(units[2], 3)]
    frame = cube_root_frame(F, F.embeddings())
    restored, swaps = saturate_units_at_3(F, tuple(cubed), frame)
    assert swaps >= 1
    # after saturation no product of generators with exponents in {0,1,2}
    # (not all zero) is a perfect cube
    from itertools import product

    for exps in product(range(3), repeat=3):
        if not any(exps):
            continue
        el = F.one()
        for unit, e in zip(restored, exps):
            el = F.el_mul(el, F.el_pow(unit, e))
        assert exact_cube_root(F, el, frame) is None


def test_saturation_is_idempotent():
    F = quartic_field_search(163)
    u = unit_group(F)
    frame = cube_root_frame(F, F.embeddings())
    once, _ = saturate_units_at_3(F, u.fundamental_units, frame)
    twice, swaps = saturate_units_at_3(F, once, frame)
    assert swaps == 0
    assert tuple(tuple(x) for x in twice) == tuple(tuple(x) for x in once)


def test_unit_group_overflow_is_a_field_error(monkeypatch):
    # An enumeration too dense for its limit ends the search: with no
    # seeds the missing units are a FieldError, not a RuntimeError.
    real = linalg.short_vectors
    monkeypatch.setattr(linalg, "short_vectors", lambda gram, bound, limit: real(gram, bound, 1))
    with pytest.raises(FieldError, match="independent units"):
        unit_group(cubic_subfield(163))


def test_unit_group_saturates_a_cubed_seed(conductor):
    # seeded with a cubed generator, unit_group swaps the cube root back
    # in and divides the regulator by 3, giving the loaded unit lattice
    cd = conductor(163)
    F = cd.F
    units = list(cd.u.fundamental_units)
    u = unit_group(F, seed_candidates=tuple(units[:2] + [F.el_pow(units[2], 3)]))
    _, swaps = saturate_units_at_3(F, u.fundamental_units, cube_root_frame(F, F.embeddings()))
    assert swaps == 0
    assert u.regulator_estimate == pytest.approx(cd.u.regulator_estimate, rel=1e-9)


def test_embeddings_carry_the_digits_of_the_unit_logarithms():
    # one precision, set in fields and importable from classgroup, for the
    # unit logarithms and the cube roots of the 3-saturation
    import mpmath

    assert EMBEDDING_DIGITS == fields.EMBEDDING_DIGITS == 80
    F = quartic_field_search(163)
    roots = F.embeddings()
    assert len(roots) == 4 and roots == sorted(roots)
    with mpmath.workdps(EMBEDDING_DIGITS):
        for r in roots:
            assert abs(sum(c * r**i for i, c in enumerate(F.poly))) < mpmath.mpf(10) ** -70


def test_exact_cube_root():
    F = quartic_field_search(163)
    a = (2, 1, 0, 1)
    cube = F.el_pow(a, 3)
    frame = cube_root_frame(F, F.embeddings())
    root = exact_cube_root(F, cube, frame)
    assert root is not None
    assert F.el_pow(root, 3) == tuple(cube)
    # 2 has norm 16, not a cube, so it cannot be one
    assert exact_cube_root(F, F.from_int(2), frame) is None


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_exact_cube_root_matches_the_lu_solve_oracle(conductor, ell):
    # the products the saturation tries (non-cubes once the units are
    # saturated, 1 aside) and their cubes, and a few elements that are
    # not units, against the per-call lu_solve
    cd = conductor(ell)
    F = cd.F
    roots = F.embeddings()
    frame = cube_root_frame(F, roots)
    units = cd.u.fundamental_units
    cubes = 0
    for exps in itertools.product(range(3), repeat=len(units)):
        w = F.one()
        for u, e in zip(units, exps):
            w = F.el_mul(w, F.el_pow(u, e))
        for el in (w, F.el_pow(w, 3)):
            got = exact_cube_root(F, el, frame)
            assert got == lu_solve_cube_root(F, el, roots)
            cubes += got is not None
        assert exact_cube_root(F, F.el_pow(w, 3), frame) == w
    assert cubes == 3 ** len(units) + 1
    for el in ((2, 1, 0, 1), (5, 0, 0, 0), (0, 3, -1, 2)):
        for x in (el, F.el_pow(el, 3)):
            assert exact_cube_root(F, x, frame) == lu_solve_cube_root(F, x, roots)


# ---------------------------------------------------------------------------
# The smooth split and the short-element stream below it.


def _degree3_primes(F, start, count):
    """The residue-degree-3 primes over the first `count` C3 primes >= start."""
    out = []
    for v in arith.primes_in_range(start, start + 10**4):
        primes = factor_rational_prime(F, v)
        if sorted(P.f for P in primes) == [1, 3]:
            out.append(next(P for P in primes if P.f == 3))
            if len(out) == count:
                return out
    raise AssertionError("too few C3 primes in the window")


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_smooth_split_factors_the_principal_ideal(conductor, ell):
    # Oracle independent of the search: rebuild (alpha) and A * prod P^vec
    # as ideals and compare their Hermite forms.
    cd = conductor(ell)
    F = cd.F

    def coprime_to_fixed_modulus(el, cofactor_norm):
        assert cofactor_norm * linalg.lattice_index(v1.hnf) == abs(F.el_norm(el))
        return linalg.hnf_solve(cd.p31.hnf, el) is None and linalg.hnf_solve(cd.l2.hnf, el) is None

    for v1 in _degree3_primes(F, 10**6, 3):
        for usable in (None, coprime_to_fixed_modulus):
            alpha, vec = smooth_split(cd.cg, v1.hnf, usable=usable)
            assert usable is None or usable(alpha, abs(F.el_norm(alpha)) // linalg.lattice_index(v1.hnf))
            assert len(vec) == len(cd.cg.factor_base)
            rhs = list(v1.hnf)
            for P, e in zip(cd.cg.factor_base, vec):
                if e:
                    rhs = ideal_mul(F, rhs, ideal_pow(F, list(P.hnf), e))
            assert ideal_from_elements(F, [alpha]) == rhs


small_element = st.tuples(
    st.lists(st.integers(min_value=-30, max_value=30), min_size=4, max_size=4).filter(any),
    st.sampled_from([1, 2, 3]),  # power
    st.sampled_from([1, 2, 3, 4, 5, 7]),  # rational multiplier
)


@pytest.mark.parametrize("ell", [163, 277])
@given(small_element)
@settings(max_examples=60, deadline=None)
def test_valuations_read_off_the_norm_match_element_valuation(conductor, ell, spec):
    # every prime above each p <= 50, 277's index prime 2 included; the
    # multiplier puts an element in all primes above p (the fallback).
    # The expected values come from powering P, not from element_valuation,
    # which the fallback itself calls.
    cd = conductor(ell)
    F = cd.F
    coords, power, k = spec
    el = tuple(k * x for x in F.el_pow(tuple(coords), power))
    norm = abs(F.el_norm(el))
    for p in arith.primes_upto(50):
        ep = 0
        while norm % p ** (ep + 1) == 0:
            ep += 1
        if not ep:
            continue
        above = _primes_above(F, p)
        expected = [powering_valuation(F, el, P) for P in above]
        assert _valuations_above(F, el, above, ep) == expected, (p, el)
        assert sum(v * P.f for v, P in zip(expected, above)) == ep


@functools.cache
def _primes_above(F, p):
    return factor_rational_prime(F, p)


def _certified_basis(cd, A):
    """T A for the transform T that lll_float_batch certifies for A."""
    (T,) = linalg.lll_float_batch([A], cd.frame)
    assert T is not None
    return [_combine(t, A) for t in T.tolist()]


@pytest.mark.parametrize("ell", [163, 277])
def test_ideal_short_elements_ordered_and_unique(conductor, ell):
    # The stream is the coefficient boxes of radius 1, 2, 4 over the
    # LLL-reduced basis, each radius in (L1, c) order, then the
    # Fincke-Pohst rounds in trace-form order.
    cd = conductor(ell)
    (A,) = _degree3_primes(cd.F, 10**6, 1)
    red, _ = _reduced_basis(cd.F, [tuple(r) for r in A.hnf])
    _check_short_element_stream(cd.F, A.hnf, red, ideal_short_elements(cd.F, A.hnf))


@pytest.mark.parametrize("ell", [163, 277])
def test_ideal_short_elements_over_a_certified_basis(conductor, ell):
    # A certified float-reduced basis passed as reduced is searched as it
    # is: the boxes and the rounds are both taken over it, so no box
    # vector comes back in a round.
    cd = conductor(ell)
    (A,) = _degree3_primes(cd.F, 10**6, 1)
    red = _certified_basis(cd, list(A.hnf))
    _check_short_element_stream(cd.F, A.hnf, red, ideal_short_elements(cd.F, red, reduced=True))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coefficient_boxes_match_the_all_at_once_oracle(n):
    # the layers, built one radius at a time, give the oracle's vectors in
    # its order; a vector is outside every box exactly when it has an
    # entry above the largest radius, the test the rounds of
    # ideal_short_elements apply instead of the oracle's set
    want, in_boxes = all_coefficient_boxes(n)
    assert tuple(_coefficient_boxes(n)) == want
    for c in itertools.product(range(-6, 7), repeat=n):
        if any(c):
            assert (max(map(abs, c)) > BOX_RADII[-1]) == (c not in in_boxes)


def test_coefficient_box_layers_are_built_on_first_use():
    _box_layer.cache_clear()
    first = list(itertools.islice(_coefficient_boxes(4), 312))  # radius 1 and 2
    assert _box_layer.cache_info().currsize == 2
    assert first == list(all_coefficient_boxes(4)[0][:312])


def _check_short_element_stream(F, hnf, red, stream):
    """The first elements of `stream`, a stream over the basis `red` of hnf."""
    boxes = tuple(_coefficient_boxes(F.degree))
    elements = list(itertools.islice(stream, len(boxes) + 500))
    red_inv = sympy.Matrix(red).inv()
    coeffs = [tuple(int(x) for x in sympy.Matrix([el]) * red_inv) for el in elements]

    prefix = coeffs[: len(boxes)]
    runs = {1: [], 2: [], 4: []}
    for c in prefix:
        runs[next(r for r in (1, 2, 4) if max(map(abs, c)) <= r)].append(c)
    assert prefix == runs[1] + runs[2] + runs[4]
    for run in runs.values():
        keys = [(sum(map(abs, c)), c) for c in run]
        assert keys == sorted(keys)
    # one per +- pair of each box: ((2r + 1)^4 - 1) / 2 vectors up to radius r
    assert [len(runs[1]), len(runs[1]) + len(runs[2]), len(prefix)] == [40, 312, 3280]

    G = F.trace_gram
    tail = [
        sum(a * G[i][j] * b for i, a in enumerate(x) for j, b in enumerate(x))
        for x in elements[len(boxes):]
    ]
    assert tail and tail == sorted(tail)
    first_bound = _start_bound(F, F.disc * linalg.lattice_index(hnf) ** 2)
    assert tail[-1] > first_bound  # the stream crossed at least one doubling
    seen = set()
    for el in elements:
        assert linalg.hnf_solve(hnf, el) is not None
        assert el not in seen and tuple(-x for x in el) not in seen
        seen.add(el)


def test_short_element_stream_ends_at_enumeration_overflow(conductor):
    # Round 4 on the degree-3 prime over 1000003 would enumerate more than
    # 20000 vectors: the stream ends there instead of raising, so an
    # exhausted split reaches its documented None.  3280 of the elements
    # come from the coefficient boxes.
    cd = conductor(163)
    (v1,) = [P for P in factor_rational_prime(cd.F, 1000003) if P.f == 3]
    assert sum(1 for _ in ideal_short_elements(cd.F, v1.hnf)) == 4005
    assert smooth_split(cd.cg, v1.hnf, usable=lambda el, cofactor_norm: False) is None


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_a_certified_split_goes_on_past_the_boxes(conductor, ell):
    # Every box candidate rejected: the split of a certified float-reduced
    # basis goes on into the Fincke-Pohst rounds, which need the exact Gram
    # of that basis, and still returns an element of v1 with its cofactor.
    cd = conductor(ell)
    F = cd.F
    boxes = tuple(_coefficient_boxes(F.degree))
    for v1 in _degree3_primes(F, 10**6, 2):
        red = _certified_basis(cd, list(v1.hnf))
        in_boxes = {_combine(c, red) for c in boxes}
        alpha, vec = smooth_split(
            cd.cg, red, usable=lambda el, cofactor_norm: el not in in_boxes, norm=v1.norm
        )
        assert alpha not in in_boxes and tuple(-x for x in alpha) not in in_boxes
        assert linalg.hnf_solve(v1.hnf, alpha) is not None
        rhs = list(v1.hnf)
        for P, e in zip(cd.cg.factor_base, vec):
            if e:
                rhs = ideal_mul(F, rhs, ideal_pow(F, list(P.hnf), e))
        assert ideal_from_elements(F, [alpha]) == rhs


def _doubled(valuations):
    """_valuations_above with every valuation doubled, so sum f(P) v_P = 2 e_p."""
    return lambda K, el, above, ep: [2 * v for v in valuations(K, el, above, ep)]


def test_inconsistent_valuations_are_a_field_error(conductor, monkeypatch):
    # The relation harvest and the split share one cofactor routine, which
    # checks sum f(P) v_P = e_p at every p and raises when it fails.
    cd = conductor(277)
    (v1,) = _degree3_primes(cd.F, 10**6, 1)
    alpha, vec = smooth_split(cd.cg, v1.hnf)
    assert any(vec)  # the split reaches the check
    K = cubic_subfield(163)
    monkeypatch.setattr(classgroup, "_valuations_above", _doubled(classgroup._valuations_above))
    with pytest.raises(FieldError, match="norm factorization"):
        class_group(K)
    with pytest.raises(FieldError, match="norm factorization"):
        smooth_split(cd.cg, v1.hnf)


def test_smooth_split_rejects_a_non_ideal_under_optimize():
    # Z*1 + 5*(rest of the basis) is a lattice of index 25 but not an
    # ideal: the norm check must raise even with assertions stripped.
    code = textwrap.dedent(
        """
        from a4census.classgroup import class_group, smooth_split
        from a4census.fields import FieldError, cubic_subfield

        K = cubic_subfield(7)
        n = K.degree
        rows = [tuple((1 if i == 0 else 5) * int(i == j) for j in range(n)) for i in range(n)]
        if rows[0] != K.one():
            raise SystemExit("integral basis does not start with 1")
        try:
            smooth_split(class_group(K), rows)
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
    assert out.stdout.strip() == "FieldError"
