"""Integer and polynomial arithmetic against sympy oracles."""

import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from a4census import arith
from a4census.config import shipped_config

from conftest import CONDUCTORS
from oracles import divmod_pm_pow, resieved_primes_in_range


def test_primes_upto_matches_sympy():
    assert arith.primes_upto(10**4) == list(sympy.primerange(2, 10**4 + 1))


def test_primes_upto_is_inclusive():
    assert arith.primes_upto(13)[-1] == 13
    assert arith.primes_upto(1) == []


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=5000))
@settings(max_examples=40)
def test_primes_in_range_agrees_with_sieve(lo, width):
    hi = lo + width
    assert arith.primes_in_range(lo, hi) == list(sympy.primerange(max(lo, 2), hi))


def test_primes_in_range_matches_the_resieving_sieve(monkeypatch):
    # the base primes come from one cached sieve, grown to a power of two
    # above isqrt(hi - 1) and cut there; seeded ranges in an order that
    # both grows it and reads it for smaller bounds, starting below, among
    # and past the base primes, and crossing a 10^6 segment edge
    monkeypatch.setattr(arith, "_BASE_SIEVE", (1, []))
    rng = random.Random(2026)
    ranges = [(0, 2), (-7, 30), (2, 3), (3, 4), (0, 1000), (1, 5 * 10**4), (999_000, 1_003_000)]
    for _ in range(60):
        lo = rng.choice([rng.randrange(-10, 200), rng.randrange(10**4), rng.randrange(10**9)])
        ranges.append((lo, lo + rng.randrange(0, 9000)))
    ranges += [(lo, hi) for lo, hi in ranges[:7]]
    sizes = set()
    for lo, hi in ranges:
        assert arith.primes_in_range(lo, hi) == resieved_primes_in_range(lo, hi), (lo, hi)
        n, base = arith._BASE_SIEVE
        assert n & (n - 1) == 0 and base == arith.primes_upto(n)
        sizes.add(n)
    assert len(sizes) > 3


# strong-pseudoprime stress values: Carmichael numbers and Miller-Rabin
# worst cases for small bases
_HARD = [561, 1105, 1729, 25326001, 3215031751, 3474749660383, 2152302898747]


@pytest.mark.parametrize("n", _HARD)
def test_is_prime_on_pseudoprimes(n):
    assert arith.is_prime(n) == sympy.isprime(n)


@given(st.integers(min_value=2, max_value=10**9))
@settings(max_examples=150)
def test_is_prime_matches_sympy(n):
    assert arith.is_prime(n) == sympy.isprime(n)


@given(st.integers(min_value=2, max_value=10**7))
@settings(max_examples=60)
def test_factorize_recombines(n):
    fac = arith.factorize(n)
    prod = 1
    for p, e in fac.items():
        assert sympy.isprime(p)
        prod *= p**e
    assert prod == n


def test_factorize_rejects_hard_composites():
    # two primes above the trial bound
    n = (10**9 + 7) * (10**9 + 9)
    with pytest.raises(ArithmeticError):
        arith.factorize(n, bound=10**5)


def _reps_by_a(m):
    """The representations 4m = a^2 + 27 b^2, a = 1 mod 3, b > 0, found by a."""
    reps = []
    for a in range(-math.isqrt(4 * m), math.isqrt(4 * m) + 1):
        b2, r = divmod(4 * m - a * a, 27)
        if a % 3 == 1 and not r and b2 and math.isqrt(b2) ** 2 == b2:
            reps.append((a, math.isqrt(b2)))
    return sorted(reps, key=lambda ab: ab[1])


def test_cubic_reps_of_primes_and_pairs():
    # one representation for each prime = 1 mod 3, two for each product of
    # two of them: the cyclic cubic fields of those conductors
    ells = [p for p in arith.primes_upto(1000) if p % 3 == 1]
    for ell in ells:
        reps = arith.cubic_reps(ell)
        assert len(reps) == 1 and reps == _reps_by_a(ell), ell
    small = [p for p in ells if p < 110]
    pairs = [(l1, l2) for i, l1 in enumerate(small) for l2 in small[i + 1 :]]
    assert len(pairs) == 78
    for l1, l2 in pairs:
        reps = arith.cubic_reps(l1 * l2)
        assert len(reps) == 2 and reps == _reps_by_a(l1 * l2), (l1, l2)
    assert arith.cubic_reps(9) == []  # 36 = 3^2 + 27 * 1^2, and 3 | a
    with pytest.raises(ValueError):
        arith.cubic_reps(0)


# ---------------------------------------------------------------------------
# Polynomials mod p.


def _sym_poly(f, p):
    x = sympy.symbols("x")
    return sympy.Poly(list(reversed(f)) or [0], x, modulus=p)


small_prime = st.sampled_from([2, 3, 5, 7, 11, 13])
coeffs = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=7)


@given(coeffs, coeffs, small_prime)
@settings(max_examples=60)
def test_pm_mul_matches_sympy(f, g, p):
    ours = arith.pm_mul(tuple(f), tuple(g), p)
    theirs = _sym_poly(f, p) * _sym_poly(g, p)
    assert _sym_poly(ours, p) == theirs


@given(coeffs, coeffs, small_prime)
@settings(max_examples=60)
def test_pm_gcd_matches_sympy(f, g, p):
    ours = arith.pm_gcd(tuple(f), tuple(g), p)
    theirs = _sym_poly(f, p).gcd(_sym_poly(g, p))
    if arith.poly_deg(ours) < 0:
        assert theirs.is_zero
    else:
        assert _sym_poly(ours, p).monic() == theirs.monic()


@given(coeffs, small_prime)
@settings(max_examples=50)
def test_factor_poly_mod_p_recombines(f, p):
    f = tuple(f)
    if arith.poly_deg(arith.pm_reduce(f, p)) < 1:
        return
    factors = arith.factor_poly_mod_p(f, p)
    prod = (1,)
    for g, e in factors:
        x = sympy.symbols("x")
        assert _sym_poly(g, p).is_irreducible
        for _ in range(e):
            prod = arith.pm_mul(prod, g, p)
    lead = arith.pm_reduce(f, p)[-1]
    assert _sym_poly(arith.pm_mul(prod, (lead,), p), p) == _sym_poly(f, p)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


@pytest.mark.parametrize("p", [2, 3, 5, 163, 10**6 + 3, 2**31 - 1, 2**61 - 1])
def test_pm_pow_matches_the_divmod_oracle(p):
    # moduli of degree 0 to 5, monic and not (a leading coefficient that
    # vanishes mod p lowers the degree, and a modulus that vanishes mod p
    # must raise as before), against f of degree up to 7 and the zero f;
    # degrees 2 to 4 take the closed-form products, the others the loop,
    # and the two large primes put every residue far past 2^31
    rng = random.Random(p)
    for deg in range(6):
        for monic in (True, False):
            for _ in range(6):
                lead = 1 if monic else rng.randrange(2, p + 2)
                mod = tuple(rng.randrange(-p, p) for _ in range(deg)) + (lead,)
                f = tuple(rng.randrange(-p, p) for _ in range(rng.randrange(0, 8)))
                for g in (f, (0, 1)):  # x takes its own multiply step
                    for e in (0, 1, 2, p, (p**3 - 1) // 2):
                        want = _outcome(divmod_pm_pow, g, e, mod, p)
                        assert _outcome(arith.pm_pow, g, e, mod, p) == want, (g, e, mod, p)
    assert arith.pm_pow((5,), 0, (3,), 7) == (1,)
    assert arith.pm_pow((5,), 1, (3,), 7) == ()
    with pytest.raises(ZeroDivisionError):
        arith.pm_pow((1, 1), 3, (7, 14), 7)


def test_pm_pow_rejects_a_negative_exponent():
    # bin(-5)[3:] is "b101": without the check this read as x^13
    with pytest.raises(ValueError, match="negative"):
        arith.pm_pow((0, 1), -5, (1, 0, 0, 1), 7)
    with pytest.raises(ValueError, match="negative"):
        arith.pm_pow((0, 1), -1, (1, 0, 0, 1), 7)


def test_pm_pow_leaves_the_shipped_quartic_factorisations_unchanged(monkeypatch):
    primes = arith.primes_in_range(10**6, 10**6 + 3200)[:200]
    assert len(primes) == 200
    quartics = [tuple(shipped_config(ell).quartic_poly) for ell in CONDUCTORS]
    got = [[arith.factor_poly_mod_p(f, v) for v in primes] for f in quartics]
    monkeypatch.setattr(arith, "pm_pow", divmod_pm_pow)
    assert got == [[arith.factor_poly_mod_p(f, v) for v in primes] for f in quartics]


def test_distinct_roots_mod_p():
    # x^2 - 1 mod 7 has roots 1 and 6
    assert sorted(arith.distinct_roots_mod_p((-1, 0, 1), 7)) == [1, 6]


monic_int = st.lists(st.integers(min_value=-30, max_value=30), min_size=2, max_size=4).map(
    lambda c: tuple(c) + (1,)
)


@given(monic_int)
@settings(max_examples=60)
def test_poly_discriminant_matches_sympy(f):
    x = sympy.symbols("x")
    expr = sum(c * x**i for i, c in enumerate(f))
    assert arith.poly_discriminant(f) == sympy.discriminant(expr, x)


@given(st.lists(st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=60)
def test_det_bareiss_matches_sympy(rows):
    assert arith.det_bareiss([list(r) for r in rows]) == sympy.Matrix(rows).det()
