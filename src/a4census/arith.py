"""Exact integer and polynomial arithmetic for the census kernel.

Conventions
-----------
* Polynomials are tuples of Python ints in ascending degree order:
  ``(c0, c1, ..., cn)`` stands for c0 + c1*x + ... + cn*x**n.
* A polynomial "mod p" is the same tuple with coefficients reduced into
  [0, p); the zero polynomial is the empty tuple ``()``.
* Everything here is exact.  No floating point, and nothing probabilistic:
  primality testing is deterministic below 3.3e24, and the equal-degree
  splitting step derives its randomness from (f, p) so repeated runs
  factor the same polynomial the same way.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random

__all__ = [
    "is_prime",
    "primes_upto",
    "primes_in_range",
    "factorize",
    "is_square",
    "cubic_reps",
    "poly_trim",
    "poly_deg",
    "poly_add",
    "poly_sub",
    "poly_neg",
    "poly_mul",
    "poly_eval",
    "poly_derivative",
    "poly_divmod_monic",
    "pm_reduce",
    "pm_add",
    "pm_sub",
    "pm_mul",
    "pm_divmod",
    "pm_gcd",
    "pm_pow",
    "pm_pow_xn",
    "distinct_degree_parts",
    "factor_poly_mod_p",
    "distinct_roots_mod_p",
    "det_bareiss",
    "resultant",
    "poly_discriminant",
]

# Deterministic for all n below this bound with the witness set used
# (Sorenson & Webster).  Inputs at or above it are refused rather than
# answered probabilistically.
_MR_BOUND = 3_317_044_064_679_887_385_961_981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SIEVE_SEGMENT = 10**6


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below 3.3e24."""
    if n >= _MR_BOUND:
        raise ValueError(f"{n} exceeds the deterministic witness bound")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(n: int) -> list[int]:
    """All primes <= n by a plain byte sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, b in enumerate(sieve) if b]


_BASE_SIEVE = (1, [])  # (n, primes_upto(n)), n a power of two, grown on demand


def _base_primes(root: int) -> list[int]:
    """The primes <= root, cut from one cached sieve up to a power of two above root."""
    global _BASE_SIEVE
    n, primes = _BASE_SIEVE
    if n < root:
        n = 1 << root.bit_length()
        primes = primes_upto(n)
        _BASE_SIEVE = (n, primes)
    return primes[: bisect.bisect_right(primes, root)]


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes in the half-open interval [lo, hi), by segmented sieve.

    Segments are 10**6 wide so memory stays flat however large hi gets.
    The base primes up to isqrt(hi - 1) come from one sieve kept across
    calls (_base_primes), so a census does not re-sieve them per segment.
    """
    if hi <= lo:
        return []
    lo = max(lo, 2)
    base = _base_primes(math.isqrt(hi - 1))
    out: list[int] = []
    start = lo
    while start < hi:
        end = min(start + _SIEVE_SEGMENT, hi)
        seg = bytearray([1]) * (end - start)
        for p in base:
            # Strike proper multiples only, so base primes inside the
            # window survive.
            first = max(p * p, (start + p - 1) // p * p)
            if first >= end:
                continue
            seg[first - start :: p] = bytearray(len(seg[first - start :: p]))
        out.extend(itertools.compress(range(start, end), seg))
        start = end
    return out


def factorize(n: int, bound: int = 10**6) -> dict[int, int]:
    """Factor |n| by trial division up to `bound`, then primality checks.

    Raises ArithmeticError if a composite cofactor survives, which does
    not happen for the desk-scale discriminants this kernel meets.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("factorize(0)")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f <= bound:
        if n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        else:
            f += wheel[i]
            i = (i + 1) % 8
    if n > 1:
        if is_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            r = math.isqrt(n)
            if r * r == n and is_prime(r):
                out[r] = out.get(r, 0) + 2
            else:
                raise ArithmeticError(f"cofactor {n} not factorable at desk scale")
    return out


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def cubic_reps(m: int) -> list[tuple[int, int]]:
    """Every (a, b) with 4*m = a**2 + 27*b**2, a = 1 mod 3 and b > 0, by increasing b.

    For m a product of k distinct primes = 1 mod 3 these index the 2^(k-1)
    cyclic cubic fields of conductor m (Cohen, GTM 138, 6.4.2): one for a
    prime, two for a product of two.  The congruence fixes the sign of a;
    a pair with 3 | a has neither sign and is left out.  Desk scale keeps
    m small, so an exhaustive search over b, O(sqrt(m)), is the whole
    algorithm.
    """
    if m < 1:
        raise ValueError(f"{m} is not a positive integer")
    reps = []
    b = 1
    while 27 * b * b < 4 * m:
        t = 4 * m - 27 * b * b
        a = math.isqrt(t)
        if a * a == t and a % 3:
            reps.append((a if a % 3 == 1 else -a, b))
        b += 1
    return reps


# ---------------------------------------------------------------------------
# Polynomials over Z.


def poly_trim(f):
    f = tuple(f)
    n = len(f)
    while n and f[n - 1] == 0:
        n -= 1
    return f[:n]


def poly_deg(f) -> int:
    """Degree, with the zero polynomial mapped to -1."""
    return len(poly_trim(f)) - 1


def poly_add(f, g):
    n = max(len(f), len(g))
    f = tuple(f) + (0,) * (n - len(f))
    g = tuple(g) + (0,) * (n - len(g))
    return poly_trim(a + b for a, b in zip(f, g))


def poly_neg(f):
    return tuple(-a for a in f)


def poly_sub(f, g):
    return poly_add(f, poly_neg(g))


def poly_mul(f, g):
    f, g = poly_trim(f), poly_trim(g)
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return tuple(out)


def poly_eval(f, x):
    acc = 0
    for a in reversed(poly_trim(f)):
        acc = acc * x + a
    return acc


def poly_derivative(f):
    return poly_trim(i * f[i] for i in range(1, len(f)))


def poly_divmod_monic(f, g):
    """(quotient, remainder) of f by a monic g, exactly over Z."""
    f, g = poly_trim(f), poly_trim(g)
    if not g or g[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(f)
    dq = len(f) - len(g)
    if dq < 0:
        return (), f
    quo = [0] * (dq + 1)
    for i in range(dq, -1, -1):
        c = rem[i + len(g) - 1]
        quo[i] = c
        if c:
            for j, b in enumerate(g):
                rem[i + j] -= c * b
    return poly_trim(quo), poly_trim(rem)


# ---------------------------------------------------------------------------
# Polynomials over F_p.


def pm_reduce(f, p):
    return poly_trim(a % p for a in f)


def pm_add(f, g, p):
    return pm_reduce(poly_add(f, g), p)


def pm_sub(f, g, p):
    return pm_reduce(poly_sub(f, g), p)


def pm_mul(f, g, p):
    return pm_reduce(poly_mul(f, g), p)


def pm_divmod(f, g, p):
    f, g = pm_reduce(f, p), pm_reduce(g, p)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(g[-1], -1, p)
    rem = list(f)
    dq = len(f) - len(g)
    if dq < 0:
        return (), f
    quo = [0] * (dq + 1)
    for i in range(dq, -1, -1):
        c = rem[i + len(g) - 1] * inv % p
        quo[i] = c
        if c:
            for j, b in enumerate(g):
                rem[i + j] = (rem[i + j] - c * b) % p
    return poly_trim(quo), poly_trim(rem)


def pm_gcd(f, g, p):
    """Monic gcd in F_p[x]."""
    f, g = pm_reduce(f, p), pm_reduce(g, p)
    while g:
        f, g = g, pm_divmod(f, g, p)[1]
    if f:
        inv = pow(f[-1], -1, p)
        f = tuple(a * inv % p for a in f)
    return f


def _mulmod2(a, b, n, p):
    a0, a1 = a
    b0, b1 = b
    n0, n1 = n
    d2 = a1 * b1 % p
    return (a0 * b0 + d2 * n0) % p, (a0 * b1 + a1 * b0 + d2 * n1) % p


def _mulmod3(a, b, n, p):
    a0, a1, a2 = a
    b0, b1, b2 = b
    n0, n1, n2 = n
    d4 = a2 * b2 % p
    d3 = (a1 * b2 + a2 * b1 + d4 * n2) % p
    return (
        (a0 * b0 + d3 * n0) % p,
        (a0 * b1 + a1 * b0 + d4 * n0 + d3 * n1) % p,
        (a0 * b2 + a1 * b1 + a2 * b0 + d4 * n1 + d3 * n2) % p,
    )


def _mulmod4(a, b, n, p):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    n0, n1, n2, n3 = n
    d6 = a3 * b3 % p
    d5 = (a2 * b3 + a3 * b2 + d6 * n3) % p
    d4 = (a1 * b3 + a2 * b2 + a3 * b1 + d6 * n2 + d5 * n3) % p
    return (
        (a0 * b0 + d4 * n0) % p,
        (a0 * b1 + a1 * b0 + d5 * n0 + d4 * n1) % p,
        (a0 * b2 + a1 * b1 + a2 * b0 + d6 * n0 + d5 * n1 + d4 * n2) % p,
        (a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + d6 * n1 + d5 * n2 + d4 * n3) % p,
    )


# a * b mod (x^d - sum_i n_i x^i, p) on coefficient d-tuples, folded from the top down
_MULMOD = {2: _mulmod2, 3: _mulmod3, 4: _mulmod4}


def pm_pow(f, e, mod, p):
    """f**e mod (mod, p) by square and multiply, for e >= 0.

    The modulus is made monic once, as x^d = sum_i n_i x^i with d its
    degree.  For d from 2 to 4, the degrees of the fields' polynomials
    and their factors, each product is written out in closed form on
    coefficient d-tuples (_mulmod2 to _mulmod4): the product's
    coefficients above x^(d-1) are reduced mod p and folded back from
    the top down by that identity, and a multiplication by x is a shift,
    as census._quartic_root squares.  Every other degree takes one fused
    loop: the schoolbook product of two residues, folded the same way,
    with one reduction mod p per coefficient.  f**0 is (1,) whatever the
    modulus, and a modulus that vanishes mod p raises ZeroDivisionError.
    A negative e raises ValueError.
    """
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    f = pm_divmod(f, mod, p)[1]
    if not e:
        return (1,)
    mod = _pm_monic(pm_reduce(mod, p), p)
    d = len(mod) - 1
    fold = tuple((-c) % p for c in mod[:d])  # x^d = sum_i fold[i] x^i
    closed = _MULMOD.get(d)
    if closed is not None:
        base = f + (0,) * (d - len(f))
        result = base
        if f == (0, 1):
            top = d - 1
            for bit in bin(e)[3:]:
                result = closed(result, result, fold, p)
                if bit == "1":  # times x: the top coefficient folds back
                    c = result[top]
                    result = tuple((lo + c * n) % p for lo, n in zip((0,) + result[:top], fold))
        else:
            for bit in bin(e)[3:]:
                result = closed(result, result, fold, p)
                if bit == "1":
                    result = closed(result, base, fold, p)
        return poly_trim(result)

    def mulmod(a, b):
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for k in range(len(prod) - 1, d - 1, -1):
            c = prod[k] % p
            if c:
                for i, n in enumerate(fold, k - d):
                    prod[i] += c * n
        return poly_trim(x % p for x in prod[:d])

    result = f
    for bit in bin(e)[3:]:
        result = mulmod(result, result)
        if bit == "1":
            result = mulmod(result, f)
    return result


def pm_pow_xn(e, mod, p):
    """x**e mod (mod, p)."""
    return pm_pow((0, 1), e, mod, p)


def _pm_monic(f, p):
    if not f or f[-1] == 1:
        return f
    inv = pow(f[-1], -1, p)
    return tuple(a * inv % p for a in f)


def _sqf_parts(f, p):
    """Squarefree decomposition over F_p: list of (monic squarefree, mult)."""
    out = []
    scale = 1
    f = _pm_monic(pm_reduce(f, p), p)
    while poly_deg(f) > 0:
        df = pm_reduce(poly_derivative(f), p)
        if not df:
            # f = g(x^p); coefficients are their own p-th roots over F_p.
            f = poly_trim(f[::p])
            scale *= p
            continue
        c = pm_gcd(f, df, p)
        if c == (1,):  # f is squarefree, the case of every p prime to its discriminant
            out.append((f, scale))
            break
        w = pm_divmod(f, c, p)[0]
        i = 1
        while poly_deg(w) > 0:
            y = pm_gcd(w, c, p)
            z = pm_divmod(w, y, p)[0]
            if poly_deg(z) > 0:
                out.append((_pm_monic(z, p), i * scale))
            w = y
            c = pm_divmod(c, y, p)[0]
            i += 1
        f = c  # what is left is a p-th power
    return out


def _ddf(f, p):
    """Distinct-degree split of a monic squarefree f: list of (product, d)."""
    out = []
    h = (0, 1)
    d = 0
    while poly_deg(f) > 2 * d + 1:
        d += 1
        h = pm_pow(h, p, f, p)
        g = pm_gcd(pm_sub(h, (0, 1), p), f, p)
        if poly_deg(g) > 0:
            out.append((g, d))
            f = pm_divmod(f, g, p)[0]
            h = pm_divmod(h, f, p)[1]
    if poly_deg(f) > 0:
        out.append((f, poly_deg(f)))
    return out


def _poly_seed(f, p) -> int:
    acc = p
    for c in f:
        acc = (acc * 1000003 + c) % (1 << 63)
    return acc


def _edf(f, d, p, rng):
    """Split monic squarefree f into its irreducible degree-d factors."""
    n = poly_deg(f)
    if n == d:
        return [f]
    if p == 2:
        # Trace-map splitting: gcd(g, Tr(r)) with Tr(r) = r + r^2 + ... + r^(2^(d-1)).
        out = []
        stack = [f]
        while stack:
            g = stack.pop()
            if poly_deg(g) == d:
                out.append(g)
                continue
            while True:
                t = pm_reduce(tuple(rng.randrange(2) for _ in range(poly_deg(g))), 2)
                trace = ()
                cur = t
                for _ in range(d):
                    trace = pm_add(trace, cur, 2)
                    cur = pm_divmod(pm_mul(cur, cur, 2), g, 2)[1]
                h = pm_gcd(trace, g, 2)
                if 0 < poly_deg(h) < poly_deg(g):
                    stack.append(h)
                    stack.append(pm_divmod(g, h, 2)[0])
                    break
        return out
    exp = (p**d - 1) // 2
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if poly_deg(g) == d:
            out.append(g)
            continue
        while True:
            r = tuple(rng.randrange(p) for _ in range(poly_deg(g)))
            if poly_deg(r) < 1:
                continue
            h = pm_sub(pm_pow(r, exp, g, p), (1,), p)
            u = pm_gcd(h, g, p)
            if 0 < poly_deg(u) < poly_deg(g):
                stack.append(u)
                stack.append(pm_divmod(g, u, p)[0])
                break
    return out


def _dd_parts(f, p):
    """(part, d, multiplicity) of a reduced f of degree >= 1: _sqf_parts, then _ddf of each."""
    return [(part, d, mult) for sqf, mult in _sqf_parts(f, p) for part, d in _ddf(sqf, p)]


def _check_product(factors, f, p):
    """Raise ArithmeticError unless the (g, m) multiply back to f made monic."""
    check = (1,)
    for g, m in factors:
        for _ in range(m):
            check = pm_mul(check, g, p)
    if check != _pm_monic(f, p):
        raise ArithmeticError(f"factorization self-check failed mod {p}")


def distinct_degree_parts(f, p):
    """The squarefree and distinct-degree split of f over F_p, checked.

    (part, d, multiplicity) triples (Cohen, GTM 138, 3.4.2-3.4.3), without
    the equal-degree split: a part is the product of the distinct monic
    irreducible factors of degree d that divide f exactly `multiplicity`
    times, so it holds deg(part) / d of them, and a part of degree d is
    itself irreducible.  The parts must multiply back to f, the self-check
    factor_poly_mod_p makes, and a part whose degree d does not divide
    raises ArithmeticError too.
    """
    f = pm_reduce(f, p)
    if poly_deg(f) < 1:
        return []
    parts = _dd_parts(f, p)
    _check_product(((part, m) for part, _, m in parts), f, p)
    for part, d, _ in parts:
        if poly_deg(part) % d:
            raise ArithmeticError(f"a distinct-degree part mod {p} is not of degree divisible by {d}")
    return parts


def factor_poly_mod_p(f, p):
    """Factor f over F_p into monic irreducibles.

    Returns a list of (factor, multiplicity) sorted by (degree, coeffs);
    the splitting step is seeded from (f, p) so the computation is
    reproducible.  The unit leading coefficient is discarded.
    """
    f = pm_reduce(f, p)
    if poly_deg(f) < 1:
        return []
    rng = random.Random(_poly_seed(f, p))
    out = [(irr, mult) for part, d, mult in _dd_parts(f, p) for irr in _edf(part, d, p, rng)]
    out.sort(key=lambda t: (poly_deg(t[0]), t[0]))
    # The product of the factors must reproduce f up to the leading unit.
    _check_product(out, f, p)
    return out


def distinct_roots_mod_p(f, p):
    """Sorted distinct roots of f in F_p, via gcd with x^p - x."""
    f = pm_reduce(f, p)
    if poly_deg(f) < 1:
        return []
    xp = pm_pow_xn(p, f, p)
    g = pm_gcd(pm_sub(xp, (0, 1), p), f, p)
    deg = poly_deg(g)
    if deg == 0:
        return []
    if deg == 1:
        return [(-g[0]) % p]
    roots = []
    for lin in _edf(g, 1, p, random.Random(_poly_seed(f, p) ^ 1)):
        roots.append((-lin[0]) % p)
    roots.sort()
    return roots


# ---------------------------------------------------------------------------
# Resultants and discriminants.


def det_bareiss(mat) -> int:
    """Exact determinant of a square integer matrix (fraction-free)."""
    m = [list(row) for row in mat]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resultant(f, g) -> int:
    """Res(f, g) over Z via the Sylvester matrix."""
    f, g = poly_trim(f), poly_trim(g)
    if not f or not g:
        return 0
    m, n = len(f) - 1, len(g) - 1
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    rows = []
    fr = list(reversed(f))
    gr = list(reversed(g))
    for i in range(n):
        rows.append([0] * i + fr + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + gr + [0] * (size - n - 1 - i))
    return det_bareiss(rows)


def poly_discriminant(f) -> int:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f)."""
    f = poly_trim(f)
    n = len(f) - 1
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    r = resultant(f, poly_derivative(f))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    q, rem = divmod(sign * r, f[-1])
    if rem:
        raise ArithmeticError("resultant is not divisible by the leading coefficient")
    return q
