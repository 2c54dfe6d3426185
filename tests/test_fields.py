"""Number field construction checked against sympy."""

import dataclasses
import functools
import math

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.numberfields.basis import round_two
from sympy.polys.numberfields.galoisgroups import galois_group

from a4census import arith, fields, linalg
from a4census.config import shipped_config
from a4census.fields import (
    FieldError,
    QuotientRing,
    cubic_subfield,
    element_valuation,
    factor_rational_prime,
    field_from_record,
    field_to_record,
    new_number_field,
    quartic_field_search,
    shanks_param,
)

from oracles import hnf_prime_ideals, loop_quartic_field_search, powering_valuation, splitting_pattern

X = sympy.symbols("x")


def _expr(poly):
    return sum(c * X**i for i, c in enumerate(poly))


def _sym_poly(poly):
    return sympy.Poly(_expr(poly), X)


# ---------------------------------------------------------------------------
# Shanks parametrization.


def test_shanks_param_known_values():
    expected = {7: -1, 13: 1, 19: 2, 37: 4, 163: 11, 349: 17, 607: 23}
    for ell, a in expected.items():
        got = shanks_param(ell)
        assert got == a
        assert a * a + 3 * a + 9 == ell


def test_shanks_param_rejects_non_shanks():
    for ell in (31, 43, 61, 277, 547):
        assert shanks_param(ell) is None


# ---------------------------------------------------------------------------
# The cubic field.


@pytest.mark.parametrize("ell", [163, 277, 349, 547, 607])
def test_cubic_subfield_invariants(ell):
    L = cubic_subfield(ell)
    assert L.degree == 3
    assert L.disc == ell * ell
    p = _sym_poly(L.poly)
    assert p.degree() == 3
    assert p.LC() == 1
    assert _sym_poly(L.poly).is_irreducible
    # field disc * index^2 = polynomial disc
    assert sympy.discriminant(_expr(L.poly), X) == L.disc * L.index**2
    G, _ = galois_group(p)
    assert G.order() == 3


def test_cubic_subfield_shanks_form():
    # for a Shanks prime the simplest-cubic polynomial is used directly
    a = 11
    L = cubic_subfield(163)
    assert tuple(L.poly) == (-1, -(a + 3), -a, 1)


def test_period_cubic_of_277_is_the_shipped_cubic():
    # 277 is not of Shanks form: its L comes from 4 * 277 = 26^2 + 27 * 4^2
    assert arith.cubic_reps(277) == [(-26, 4)]
    assert fields.period_cubic(277) == tuple(shipped_config(277).cubic_poly)
    with pytest.raises(ValueError):
        fields.period_cubic(7 * 13)


def test_cubic_subfield_rejects_bad_conductor():
    with pytest.raises(FieldError):
        cubic_subfield(11)  # 11 = 2 mod 3
    with pytest.raises(FieldError):
        cubic_subfield(15)


# ---------------------------------------------------------------------------
# Maximal orders against sympy's Round 2.


def _canonical_order(rows, den):
    """(HNF rows, den) of the lattice rows/den, reduced by the common gcd."""
    h = linalg.hnf([tuple(int(x) for x in r) for r in rows], len(rows))
    g = math.gcd(den, *(x for r in h for x in r))
    return tuple(tuple(x // g for x in r) for r in h), den // g


def _round_two_fields():
    """Period cubics of conductor < 1000 whose index 27b has a prime factor above 3,
    the shipped L and F of each conductor, and one quartic of index 8."""
    polys = []
    for ell in arith.primes_upto(1000):
        if ell % 3 == 1 and shanks_param(ell) is None:
            ((_, b),) = arith.cubic_reps(ell)
            if max(arith.factorize(abs(b)), default=1) > 3:
                polys.append(fields.period_cubic(ell))
    assert len(polys) == 25
    for ell in (163, 277, 349):
        cfg = shipped_config(ell)
        polys += [tuple(cfg.cubic_poly), tuple(cfg.quartic_poly)]
    # 2 = P^2 Q^2 with Z[theta]/2 = F_2[x]/(x^4): the 2-radical contains theta,
    # whose square is not 0 mod 2, so one Frobenius does not find it
    polys.append((4, -4, -12, -2, 1))
    return polys


def test_maximal_orders_match_sympy_round_two():
    # the index primes above 3 include 5 (181, index 135) and 7 (331, index 189)
    for f in _round_two_fields():
        K = new_number_field(f)
        ZK, dK = round_two(_sym_poly(f))
        cols = ZK.matrix.to_Matrix()  # columns are the basis over the power basis
        assert (K.basis_num, K.basis_den) == _canonical_order(cols.T.tolist(), int(ZK.denom)), f
        assert K.disc == dK, f


# ---------------------------------------------------------------------------
# The quartic field.


@pytest.mark.parametrize("ell", [163, 277, 349])
def test_quartic_search_invariants(ell):
    F = quartic_field_search(ell)
    assert F.degree == 4
    assert F.disc == ell * ell
    p = _sym_poly(F.poly)
    assert p.is_irreducible
    assert sympy.discriminant(_expr(F.poly), X) == F.disc * F.index**2
    # Galois closure is the alternating group on 4 letters
    G, alt = galois_group(p)
    assert G.order() == 12 and alt
    # totally real: all four roots real
    assert sympy.Poly(_expr(F.poly), X).count_roots() == 4


def test_quartic_search_is_deterministic():
    assert tuple(quartic_field_search(163).poly) == tuple(quartic_field_search(163).poly)


def test_known_quartic_polynomials():
    assert tuple(quartic_field_search(163).poly) == (9, -2, -7, 1, 1)
    assert tuple(quartic_field_search(277).poly) == (1, -3, -16, 1, 1)
    assert tuple(quartic_field_search(349).poly) == (15, -11, -13, 0, 1)


_GALOIS_QUARTICS = [
    *((f"A4-{ell}", tuple(shipped_config(ell).quartic_poly)) for ell in (163, 277, 349)),
    ("S4", (1, 1, 0, 0, 1)),  # x^4 + x + 1
    ("V4", (1, 0, -10, 0, 1)),  # x^4 - 10x^2 + 1, the field Q(sqrt 2, sqrt 3)
    ("C4", (5, 0, -5, 0, 1)),  # x^4 - 5x^2 + 5, inside Q(zeta_5)
    ("D4", (-2, 0, 0, 0, 1)),  # x^4 - 2
]


@pytest.mark.parametrize("name, f", _GALOIS_QUARTICS)
def test_is_a4_quartic_against_sympy_galois_group(name, f):
    G, alt = galois_group(_sym_poly(f))
    shape = {"S4": (24, False), "V4": (4, False), "C4": (4, True), "D4": (8, False)}
    assert (G.order(), G.is_cyclic) == shape.get(name, (12, False))
    assert fields.is_a4_quartic(f) == (G.order() == 12 and alt) == name.startswith("A4")


def test_quartic_search_builds_no_class_group(monkeypatch):
    # the 4 | h(L) screen belongs to load_conductor; the search is pure
    from a4census import classgroup

    def no_class_group(*args, **kwargs):
        raise AssertionError("the quartic search built a class group")

    monkeypatch.setattr(classgroup, "class_group", no_class_group)
    assert tuple(quartic_field_search(163).poly) == (9, -2, -7, 1, 1)


def test_quartic_277_has_nontrivial_index():
    F = quartic_field_search(277)
    assert F.index == 4
    assert F.index % 2 == 0  # v = 2 must be excluded from its census


def _search_outcome(search, ell):
    try:
        return tuple(search(ell).poly)
    except FieldError:
        return "FieldError"


# the conductors below 1000 whose scan row passes 4 | h(L)
_SCAN_CONDUCTORS = (163, 277, 349, 397, 547, 607, 709, 853, 937)


@pytest.mark.parametrize("ell", _SCAN_CONDUCTORS)
def test_quartic_search_matches_the_loop_oracle(ell, monkeypatch):
    # bound 8 gives 163 another index-1 field, 12 gives 277 and 16 gives
    # 397 an index-4 field under another polynomial than at 20; at 20,
    # 163's first hit has index > 1 and a later one of index 1 wins, and
    # 607 to 937 fail
    for bound in (8, 12, 16, 20):
        monkeypatch.setattr(fields, "QUARTIC_COEFF_BOUND", bound)
        outcome = _search_outcome(quartic_field_search, ell)
        assert outcome == _search_outcome(loop_quartic_field_search, ell), (ell, bound)


@pytest.mark.parametrize("ell, quartics", [(163, 2), (277, 1), (397, 1), (547, 1)])
def test_quartic_search_builds_no_field_that_cannot_beat_its_first_hit(ell, quartics, monkeypatch):
    # once a hit is held only D = ell^2 (index 1) can still win; the loop
    # built 5 quartic fields for 277 and 4 for 397
    degrees = []
    build = fields.new_number_field

    def counting(f):
        degrees.append(len(f) - 1)
        return build(f)

    monkeypatch.setattr(fields, "new_number_field", counting)
    quartic_field_search(ell)
    assert degrees.count(4) == quartics
    assert degrees.count(3) == 1  # the winner's resolvent cubic


def test_quartic_search_discriminants_fit_int64():
    # |r2| <= B, |r1| = |a c - 4 d| <= 6B and |r0| = |(4b - a^2) d - c^2|
    # <= 5B^2 + 4B bound every term of the screen's
    # (18 r2 r1 - 4 r2^3 - 27 r0) r0 + r2^2 r1^2 - 4 r1^3
    B = fields.QUARTIC_COEFF_BOUND
    r2, r1, r0 = B, 6 * B, 5 * B * B + 4 * B
    largest = (18 * r2 * r1 + 4 * r2**3 + 27 * r0) * r0 + r2 * r2 * r1 * r1 + 4 * r1**3
    assert largest < 2**63


# ---------------------------------------------------------------------------
# Splitting patterns.


@pytest.mark.parametrize("ell", [163, 277, 349])
def test_splitting_at_3_and_ell(ell):
    F = quartic_field_search(ell)
    assert sorted(splitting_pattern(F, 3)) == [(1, 1), (1, 3)]
    assert sorted(splitting_pattern(F, ell)) == [(1, 1), (3, 1)]


def test_splitting_matches_sympy_factorization():
    F = quartic_field_search(163)
    for p in (5, 7, 11, 13, 17, 19, 23):
        pat = splitting_pattern(F, p)
        assert sum(e * f for e, f in pat) == 4
        if F.index % p:
            degrees = sorted(
                g.degree() for g, _ in sympy.Poly(_expr(F.poly), X, modulus=p).factor_list()[1]
            )
            assert degrees == sorted(f for _, f in pat)
            assert all(e == 1 for e, _ in pat)


def test_factor_rational_prime_norms():
    F = quartic_field_search(163)
    for p in (7, 13, 31):
        primes = factor_rational_prime(F, p)
        assert sorted(pr.norm for pr in primes) == sorted(p**pr.f for pr in primes)
        assert sum(pr.e * pr.f for pr in primes) == 4
        for pr in primes:
            assert linalg.lattice_index(pr.hnf) == pr.norm


def _shipped_fields():
    for ell in (163, 277, 349):
        cfg = shipped_config(ell)
        yield ell, new_number_field(tuple(cfg.cubic_poly)), new_number_field(tuple(cfg.quartic_poly))


def test_prime_hnf_matches_ideal_from_elements():
    # Each prime above p prime to the index has its HNF read off one
    # echelon form mod p.  The oracle takes it from ideal_from_elements,
    # the HNF of the 2n generator rows, and every field of every
    # PrimeIdeal (anti-uniformizer included) must equal the oracle's.
    primes = arith.primes_upto(3000) + arith.primes_in_range(10**6, 10**6 + 3000)
    pairs = 0
    for _, L, F in _shipped_fields():
        for K in (L, F):
            for p in primes:
                if K.index % p == 0:
                    continue
                got = factor_rational_prime(K, p)
                want = hnf_prime_ideals(K, p)
                assert [dataclasses.astuple(P) for P in got] == [dataclasses.astuple(P) for P in want], p
                pairs += len(got)
    assert pairs == 7563


def test_quartic_splitting_degrees_match_factor_rational_prime():
    # the splitting type classify_prime reads before it builds any ideal
    for ell, _, F in _shipped_fields():
        for v in arith.primes_upto(2 * 10**4):
            if v % 3 != 1 or v == ell or F.index % v == 0:
                continue
            assert arith.splitting_degrees(F.poly, v) == sorted(P.f for P in factor_rational_prime(F, v)), (ell, v)


def test_element_valuation_sums_to_norm_valuation():
    F = quartic_field_search(163)
    for p in (7, 13, 31):
        primes = factor_rational_prime(F, p)
        for el in [(1, 2, 0, 1), (3, -1, 1, 0), (p, 1, 1, 1)]:
            nm = F.el_norm(el)
            if nm == 0:
                continue
            total = sum(element_valuation(F, el, pr) * pr.f for pr in primes)
            v, m = 0, nm
            while m % p == 0:
                m //= p
                v += 1
            assert total == v


@functools.cache
def _primes_to_50_and_ell(K, ell):
    """The primes of K above each p <= 50 and above ell, each with a valid anti-uniformizer."""
    out = []
    for p in arith.primes_upto(50) + [ell]:
        for P in factor_rational_prime(K, p):
            # beta = 1 * beta, read off the columns of its multiplication matrix
            beta = tuple(sum(x * y for x, y in zip(K.one(), col)) for col in P.anti_uniformizer)
            assert any(x % p for x in beta), "beta lies in pO"
            assert all(not any(x % p for x in K.el_mul(beta, row)) for row in P.hnf), "beta*P is not in pO"
            out.append(P)
    return tuple(out)


def _check_valuations(K, primes, case):
    """alpha^power * row^j * p^k against the powering oracle at every prime in `primes`."""
    coords, power, pick, j, k = case
    coords = tuple(coords[: K.degree])
    assume(any(coords))
    P = primes[pick % len(primes)]
    row = P.hnf[(pick // len(primes)) % len(P.hnf)]
    el = K.el_mul(K.el_pow(coords, power), K.el_pow(row, j))
    el = tuple(P.p**k * x for x in el)
    for Q in primes:
        assert element_valuation(K, el, Q) == powering_valuation(K, el, Q), (Q.p, Q.e, Q.f, el)


valuation_case = st.tuples(
    st.lists(st.integers(min_value=-30, max_value=30), min_size=4, max_size=4).filter(any),  # cut to the degree
    st.sampled_from([1, 2, 3]),  # power of that element
    st.integers(min_value=0, max_value=10**6),  # picks a prime P and one of its HNF rows
    st.integers(min_value=0, max_value=3),  # power of the HNF row, an element of P
    st.integers(min_value=0, max_value=3),  # power of P's rational prime
)


@pytest.mark.parametrize("ell", [163, 277])
@given(valuation_case)
@settings(max_examples=40, deadline=None)
def test_element_valuation_matches_the_powering_oracle(conductor, ell, case):
    # alpha^power * row^j * p^k, compared at every prime above each p <= 50
    # and above ell; for 277 these include the index prime 2 (two primes of
    # degree 2), ell_2 (e = 3) and 3_1 (f = 3)
    F = conductor(ell).F
    primes = _primes_to_50_and_ell(F, ell)
    kinds = {(P.p, P.e, P.f) for P in primes}
    assert {(ell, 3, 1), (3, 1, 3)} <= kinds
    assert ell != 277 or (F.index % 2 == 0 and (2, 1, 2) in kinds)
    _check_valuations(F, primes, case)


_cubic = functools.cache(cubic_subfield)


@pytest.mark.parametrize("ell", [277, 331])
@given(valuation_case)
@settings(max_examples=40, deadline=None)
def test_cubic_element_valuation_matches_the_powering_oracle(ell, case):
    # the period cubics of 277 (index 108 = 2^2 3^3) and 331 (index
    # 189 = 3^3 7): their index primes take the O/pO splitting route of
    # factor_rational_prime
    L = _cubic(ell)
    assert L.index == {277: 108, 331: 189}[ell]
    primes = _primes_to_50_and_ell(L, ell)
    assert (ell, 3, 1) in {(P.p, P.e, P.f) for P in primes}
    _check_valuations(L, primes, case)


# ---------------------------------------------------------------------------
# Records and round trips.


@pytest.mark.parametrize("ell", [163, 277])
def test_field_record_roundtrip(ell):
    F = quartic_field_search(ell)
    rec = field_to_record(F)
    F2 = field_from_record(rec)
    assert tuple(F2.poly) == tuple(F.poly)
    assert F2.disc == F.disc
    assert F2.index == F.index
    assert F2.mult_table == F.mult_table


def test_field_record_rejects_tampering():
    F = quartic_field_search(163)
    rec = field_to_record(F)
    rec = dict(rec)
    rec["disc"] = rec["disc"] + 1
    with pytest.raises(FieldError):
        field_from_record(rec)


def test_new_number_field_rejects_reducible():
    with pytest.raises(FieldError):
        new_number_field((1, 2, 1))  # (x + 1)^2


@pytest.mark.parametrize("f", [(1, 0, 0, 0, 1), (-2, 0, 0, 1)], ids=["x^4+1", "x^3-2"])
def test_new_number_field_rejects_complex_roots(f):
    with pytest.raises(FieldError, match="not totally real"):
        new_number_field(f)


@given(st.lists(st.integers(-1000, 1000), min_size=3, max_size=4))
@example([1, -3, 0])  # x^3 - 3x + 1, totally real
@example([1, 0, -10, 0])  # x^4 - 10x^2 + 1, totally real
@example([4, 0, 5, 0])  # (x^2 + 1)(x^2 + 4): disc > 0, no real root
@example([2, 0, -2, 0])  # x^4 - 2x^2 + 2: disc > 0 and 8c - 3b^2 < 0, no real root
@settings(max_examples=300, deadline=None)
def test_is_totally_real_matches_sympy(low):
    # squarefree monic cubics and quartics; the examples alone give both verdicts
    f = tuple(low) + (1,)
    assume(arith.poly_discriminant(f) != 0)
    assert fields.is_totally_real(f) == (_sym_poly(f).count_roots() == len(low))


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=4))
@example([0, 1, 0])  # x^3 + x
@example([4, 0, 0, 0])  # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2)
@example([-1, 0, 0])  # x^3 - 1 = (x - 1)(x^2 + x + 1)
@settings(max_examples=300, deadline=None)
def test_is_irreducible_matches_sympy(low):
    f = tuple(low) + (1,)
    assert fields.is_irreducible(f) == _sym_poly(f).is_irreducible


def test_element_arithmetic_consistency():
    F = quartic_field_search(163)
    a = (1, 2, 0, 1)
    b = (0, 1, 1, 0)
    # norm is multiplicative
    assert F.el_norm(F.el_mul(a, b)) == F.el_norm(a) * F.el_norm(b)
    # trace is additive
    asum = tuple(x + y for x, y in zip(a, b))
    assert F.el_trace(asum) == F.el_trace(a) + F.el_trace(b)
    assert F.el_pow(a, 3) == F.el_mul(F.el_mul(a, a), a)
    assert F.el_mul(a, F.one()) == tuple(a)


def test_el_pow_rejects_a_negative_exponent():
    # the square-and-multiply loop never ends on e < 0
    F = quartic_field_search(163)
    assert F.el_pow((1, 2, 0, 1), 0) == F.one()
    with pytest.raises(ValueError, match="negative"):
        F.el_pow((1, 2, 0, 1), -1)


def test_quotient_ring_pow_matches_repeated_multiplication():
    # left-to-right powering against the product of e copies, in O/P^3
    # for P over 3 and in O/(7), up to e = 40; a negative e is refused
    F = quartic_field_search(163)
    (P,) = [P for P in factor_rational_prime(F, 3) if P.f == 3]
    p3 = fields.ideal_pow(F, list(P.hnf), 3)
    seven = [tuple(7 * int(i == j) for j in range(4)) for i in range(4)]
    for ideal in (p3, seven):
        ring = QuotientRing(F, ideal)
        for a in ((1, 2, 0, 1), (2, 0, 5, 1), (0, 0, 0, 0)):
            acc = ring.one()
            for e in range(41):
                assert ring.pow(a, e) == acc
                acc = ring.mul(acc, a)
        with pytest.raises(ValueError, match="negative"):
            ring.pow((1, 2, 0, 1), -3)
