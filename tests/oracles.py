"""Slow, independent references for fast kernels of the package.

Each is a direct transcription of the textbook definition, used only as
a test oracle:

- powering_valuation: v_P(a) as the largest k with a in P^k, by forming
  the ideal powers P^k (fields.element_valuation reads it off P's
  anti-uniformizer instead);
- fraction_short_vectors: Fincke-Pohst enumeration carried out entirely
  in Fractions (linalg.short_vectors prunes in floats);
- power_wild_log: the wild log as the layer coordinates of a^(N-1) - 1
  mod P^2 by square and multiply (rayclass.WildBlock looks the residue
  mod P^2 up in a table built from the Teichmueller representatives and
  the 1-units instead);
- norm_scan_certificate: a principality certificate Q^m = (gamma) whose
  gamma is found by scanning the short elements of Q^m for the norm
  N(Q^m) by hand (census._certificate takes the split of Q^m with a
  cofactor of norm 1 instead);
- brute_force_spans: the Artin images of every prime of norm up to
  SPAN_NORM_BOUND must span a ray quotient (its dimension comes from the
  presentation instead);
- a4_order3_density: the density 1/3 of C3 from the conjugacy classes of
  A4 built as permutations (the census counts it);
- loop_rref_mod_p: Gauss-Jordan elimination over F_p on Python lists, one
  row at a time (linalg.rref_mod_p eliminates a whole numpy array per
  pivot);
- loop_quartic_field_search: the coefficient search over all 4 * 41^3
  quartics one at a time in Python, each discriminant from the resolvent
  cubic (fields.quartic_field_search screens them in numpy int64 planes
  and builds no field that cannot beat its first hit);
- divmod_pm_pow: f^e mod (mod, p) by square and multiply through the
  generic pm_mul and pm_divmod (arith.pm_pow makes the modulus monic once
  and folds each product by it);
- loop_smith_normal_form: the Smith form with the same pivot rule, each
  pivot found by a scan of the whole block, each column operation over
  every row and a divisibility scan after every pivot
  (linalg.smith_normal_form skips what cannot change its result);
- power_dlog: the discrete log of the integer-Smith stability check,
  forming prod g_i^a_i and raising it to the 8th power
  (rayclass._WildCubicPresentation multiplies by tabled g_i^-a);
- lu_solve_cube_root: the cube root with the basis-at-embeddings matrix
  rebuilt and solved by mpmath.lu_solve on each call
  (classgroup.exact_cube_root applies an inverse formed once by
  classgroup.cube_root_frame);
- all_coefficient_boxes: the boxes of radius 1, 2, 4 built at once, each
  sorted whole and filtered against a set of the vectors already taken
  and their negatives, which it returns too (classgroup._box_layer
  builds one radius at a time, on first use, and ideal_short_elements
  tests a round's vector by its largest entry instead of the set);
- resieved_primes_in_range: the segmented sieve that sieves its base
  primes afresh on every call (arith.primes_in_range cuts them from one
  sieve kept across calls);
- splitting_pattern: the sorted (e, f) pairs of the primes above p, from
  factor_rational_prime (census.load_conductor reads its splitting
  checks at 3 and ell off the primes it factors anyway);
- hnf_prime_ideals: the primes of K above a p prime to the index with
  each HNF taken by linalg.hnf of the 2n generator rows of pO + g(theta)O
  (fields.ideal_from_elements; fields.factor_rational_prime reads it off
  one echelon form mod p).
"""

import itertools
import math
from fractions import Fraction

import mpmath

from a4census import arith, fields, linalg
from a4census.classgroup import EMBEDDING_DIGITS, ideal_class_coordinates, ideal_short_elements
from a4census.fields import FieldError, QuotientRing, factor_rational_prime, ideal_mul, ideal_pow
from a4census.rayclass import _LatticeQuotientF3, artin_vector

SPAN_NORM_BOUND = 60  # brute_force_spans takes the primes of norm up to this


def powering_valuation(K, a, P, cap=64) -> int:
    """v_P(a) for a nonzero integral element, by powering P."""
    if not any(a):
        raise ValueError("valuation of zero")
    v = 0
    power = P.hnf
    while v < cap:
        if linalg.hnf_solve(power, a) is None:
            return v
        v += 1
        power = ideal_mul(K, power, P.hnf)
    raise ArithmeticError("valuation cap exceeded")


def power_wild_log(K, P, a):
    """F_3 coordinates of a^(N(P)-1) - 1 in P/P^2, P a prime over 3.

    Raises FieldError (from the layer) when a lies in P.
    """
    p2 = ideal_pow(K, list(P.hnf), 2)
    y = QuotientRing(K, p2).pow(a, P.norm - 1)
    layer = _LatticeQuotientF3(list(P.hnf), p2, K.degree)
    return layer.coords(tuple(b - c for b, c in zip(y, K.one())))


def norm_scan_certificate(F, cg, wild, tame_l2, Q):
    """(m, gamma, wild log, ell_2 char) with Q^m = (gamma), m the order of [Q].

    gamma is the first element of ideal_short_elements(Q^m) whose norm
    is N(Q^m) in absolute value.
    """
    m = 1
    for c, d in zip(ideal_class_coordinates(list(Q.hnf), cg), cg.divisors):
        if c % d:
            m = math.lcm(m, d // math.gcd(d, c))
    power = ideal_pow(F, list(Q.hnf), m)
    target = linalg.lattice_index(power)
    gamma = next(el for el in ideal_short_elements(F, power) if abs(F.el_norm(el)) == target)
    return m, gamma, wild.philog(gamma), tame_l2.philog(gamma)[0]


def fraction_short_vectors(gram, bound, limit=100000):
    """Nonzero c (up to sign) with c G c^t <= bound, all in exact arithmetic.

    Sorted by value, then by the lesser of c and -c; c is returned with
    its first nonzero coordinate positive.  Raises RuntimeError when more
    than `limit` vectors qualify, c and -c counted apart.
    """
    n = len(gram)
    g = [[Fraction(x) for x in row] for row in gram]
    mu = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n
    for i in range(n):
        b[i] = g[i][i]
        for j in range(i):
            mu[i][j] = g[i][j]
            for k in range(j):
                mu[i][j] -= mu[i][k] * mu[j][k] * b[k]
            mu[i][j] /= b[j]
            b[i] -= mu[i][j] ** 2 * b[j]
        if b[i] <= 0:
            raise ValueError("form is not positive definite")
    bound = Fraction(bound)
    out = []
    c = [0] * n

    def recurse(i, remaining):
        if i < 0:
            if any(c):
                out.append((bound - remaining, tuple(c)))
                if len(out) > limit:
                    raise RuntimeError("short-vector enumeration overflow")
            return
        center = -sum(mu[j][i] * c[j] for j in range(i + 1, n))
        if remaining < 0:
            return
        # integer range around the real center with (x - center)^2 * b_i <= remaining
        half = _frac_sqrt_ceil(remaining / b[i])
        x = math.ceil(center - half)
        hi = center + half
        while x <= hi:
            d = x - center
            used = d * d * b[i]
            if used <= remaining:
                c[i] = x
                recurse(i - 1, remaining - used)
            x += 1
        c[i] = 0

    recurse(n - 1, bound)
    seen = set()
    uniq = []
    for val, vec in sorted(out):
        canon = vec if _first_nonzero_positive(vec) else tuple(-x for x in vec)
        if canon not in seen:
            seen.add(canon)
            uniq.append((val, canon))
    return uniq


def _first_nonzero_positive(vec) -> bool:
    for x in vec:
        if x:
            return x > 0
    return True


def _frac_sqrt_ceil(fr: Fraction) -> Fraction:
    """A rational upper bound for sqrt(fr), tight enough for enumeration."""
    if fr <= 0:
        return Fraction(0)
    num, den = fr.numerator, fr.denominator
    # ceil(sqrt(num/den)) <= ceil(sqrt(num*den))/den
    r = math.isqrt(num * den)
    if r * r < num * den:
        r += 1
    return Fraction(r, den)


def brute_force_spans(q) -> bool:
    """Independent closure check: Artin images of all primes of norm up to
    SPAN_NORM_BOUND coprime to the modulus must span the quotient."""
    if q.dim == 0:
        return True
    K = q.cg.field
    seen = []
    for p in arith.primes_upto(SPAN_NORM_BOUND):
        for P in factor_rational_prime(K, p):
            if P.norm > SPAN_NORM_BOUND or q.modulus.contains_prime(P):
                continue
            try:
                seen.append(list(artin_vector(q, list(P.hnf))))
            except FieldError:
                continue
    red, _ = linalg.rref_mod_p(seen, q.dim, 3)
    return len(red) == q.dim


def a4_order3_density() -> Fraction:
    """Density of C^(3), derived from the conjugacy classes of A4.

    Builds A4 as the even permutations of four letters, splits it into
    conjugacy classes (sizes 1, 3, 4, 4), and combines the two classes
    of 3-cycles with the index-2 condition v = 1 mod 3:
    (1/2) * (4/12 + 4/12) = 1/3.
    """
    perms = [p for p in itertools.permutations(range(4)) if _parity(p) == 0]
    if len(perms) != 12:
        raise ValueError(f"A4 built with {len(perms)} elements, expected 12")
    classes = []
    seen = set()
    for p in perms:
        if p in seen:
            continue
        orbit = {_conj(g, p) for g in perms}
        seen |= orbit
        classes.append(orbit)
    sizes = sorted(len(c) for c in classes)
    if sizes != [1, 3, 4, 4]:
        raise ValueError(f"A4 class sizes {sizes}, expected [1, 3, 4, 4]")
    order3 = [c for c in classes if _perm_order(next(iter(c))) == 3]
    if len(order3) != 2:
        raise ValueError(f"{len(order3)} classes of order 3 in A4, expected 2")
    return Fraction(1, 2) * sum(Fraction(len(c), len(perms)) for c in order3)


def _parity(p) -> int:
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2


def _compose(a, b):
    return tuple(a[b[i]] for i in range(len(b)))


def _conj(g, p):
    gi = tuple(sorted(range(len(g)), key=g.__getitem__))
    return _compose(_compose(g, p), gi)


def _perm_order(p) -> int:
    acc = p
    n = 1
    ident = tuple(range(len(p)))
    while acc != ident:
        acc = _compose(acc, p)
        n += 1
    return n


def loop_rref_mod_p(rows, ncols, p):
    """Reduced row echelon form over F_p; returns (rows, pivot columns)."""
    work = [[x % p for x in r] for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], -1, p)
        work[rank] = [x * inv % p for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [(a - f * b) % p for a, b in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return [tuple(r) for r in work[:rank]], pivots


def divmod_pm_pow(f, e, mod, p):
    """f**e mod (mod, p) by square and multiply."""
    result = (1,)
    f = arith.pm_divmod(f, mod, p)[1]
    while e:
        if e & 1:
            result = arith.pm_divmod(arith.pm_mul(result, f, p), mod, p)[1]
        f = arith.pm_divmod(arith.pm_mul(f, f, p), mod, p)[1]
        e >>= 1
    return result


def loop_quartic_field_search(ell):
    """First totally real A4 quartic of field disc ell^2 in the search box.

    Same box and order as fields.quartic_field_search (bound read from
    fields.QUARTIC_COEFF_BOUND at call time): the first hit of index 1,
    else the first hit, else FieldError.
    """
    ell2 = ell * ell
    first_hit = None
    rng = range(-fields.QUARTIC_COEFF_BOUND, fields.QUARTIC_COEFF_BOUND + 1)
    for a in (0, 1, -1, -2):
        for b in rng:
            for c in rng:
                for d in rng:
                    r2 = -b
                    r1 = a * c - 4 * d
                    r0 = -(a * a * d - 4 * b * d + c * c)
                    disc = 18 * r2 * r1 * r0 - 4 * r2**3 * r0 + r2 * r2 * r1 * r1 - 4 * r1**3 - 27 * r0 * r0
                    if disc <= 0 or disc % ell2:
                        continue
                    s = math.isqrt(disc)
                    if s * s != disc or s % ell:
                        continue
                    f = (d, c, b, a, 1)
                    if not fields.is_irreducible(f) or not fields.is_totally_real(f):
                        continue
                    if fields._rational_roots((r0, r1, r2, 1)):
                        continue
                    K = fields.new_number_field(f)
                    if K.disc != ell2:
                        continue
                    if K.index == 1:
                        return K
                    if first_hit is None:
                        first_hit = K
    if first_hit is None:
        raise FieldError(f"no A4 quartic of discriminant {ell}^2 in the search box")
    return first_hit


def loop_smith_normal_form(mat, nrows=None, ncols=None):
    """(divisors, V) of the Smith form D = U*A*V, the pivot the least
    nonzero |entry| of the block, first in row-major order."""
    a = [list(r) for r in mat]
    m = nrows if nrows is not None else len(a)
    n = ncols if ncols is not None else (len(a[0]) if a else 0)
    while len(a) < m:
        a.append([0] * n)
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in a:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        done = False
        while not done:
            done = True
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        done = False
        piv = a[t][t]
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % piv:
                    row_op(t, i, -1)
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if piv < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    divisors = [a[i][i] for i in range(min(m, n))]
    return divisors, v


def power_dlog(w, el):
    """Integer exponents (a | b) with el^kill = prod g^a h^b in U_1/U_3,
    for a rayclass._WildCubicPresentation w."""
    ring = w.ring
    one = w.K.one()
    y = ring.pow(el, w.kill)
    a = w.layer1.coords(tuple(p - q for p, q in zip(y, one)))
    acc = ring.one()
    for gi, ai in zip(w.g, a):
        if ai:
            acc = ring.mul(acc, ring.pow(gi, ai))
    resid = ring.mul(y, ring.pow(acc, 8))  # 1-units have exponent 9 mod p^3
    z = tuple(p - q for p, q in zip(resid, one))
    if w.layer1.coords(z) != (0,) * w.f:
        raise FieldError("first-layer residue survived the g-part of the discrete log")
    return list(a) + list(w.layer2.coords(z))


def lu_solve_cube_root(K, u, roots):
    """y with y^3 = u in the maximal order, or None; roots = K.embeddings()."""
    with mpmath.workdps(EMBEDDING_DIGITS):
        vals = K.embed_element(u, roots)
        targets = [mpmath.sign(v) * mpmath.cbrt(abs(v)) for v in vals]
        basis = mpmath.matrix(K.degree, K.degree)
        for r_i, r in enumerate(roots):
            for b_i in range(K.degree):
                basis[r_i, b_i] = (
                    mpmath.fsum(K.basis_num[b_i][j] * r**j for j in range(K.degree)) / K.basis_den
                )
        try:
            sol = mpmath.lu_solve(basis, mpmath.matrix(targets))
        except ZeroDivisionError:
            return None
        cand = tuple(int(mpmath.nint(x)) for x in sol)
    if K.el_pow(cand, 3) == tuple(u):
        return cand
    return None


def all_coefficient_boxes(n: int):
    """The vectors of the boxes of radius 1, 2, 4 in Z^n, one per +- pair.

    Within a radius the new vectors come in (L1 norm, vector) order.
    Returns (vectors, the set of them and their negatives).
    """
    seen = set()
    out = []
    for radius in (1, 2, 4):
        box = sorted(
            itertools.product(range(-radius, radius + 1), repeat=n),
            key=lambda c: (sum(abs(x) for x in c), c),
        )
        for c in box:
            if any(c) and c not in seen:
                seen.add(c)
                seen.add(tuple(-x for x in c))
                out.append(c)
    return tuple(out), frozenset(seen)


def resieved_primes_in_range(lo: int, hi: int):
    """Primes in [lo, hi) by a segmented sieve over base primes sieved on this call."""
    if hi <= lo:
        return []
    lo = max(lo, 2)
    base = arith.primes_upto(math.isqrt(hi - 1))
    out = []
    start = lo
    while start < hi:
        end = min(start + 10**6, hi)
        seg = bytearray([1]) * (end - start)
        for p in base:
            first = max(p * p, (start + p - 1) // p * p)
            if first < end:
                seg[first - start :: p] = bytearray(len(seg[first - start :: p]))
        out.extend(itertools.compress(range(start, end), seg))
        start = end
    return out


def splitting_pattern(K, p: int):
    """Sorted (e, f) pairs of the primes above p."""
    return sorted((P.e, P.f) for P in factor_rational_prime(K, p))


def hnf_prime_ideals(K, p: int):
    """The primes above p (prime to the index), each HNF from ideal_from_elements."""
    out = []
    for g, e in arith.factor_poly_mod_p(K.poly, p):
        gz = tuple(c if c <= p // 2 else c - p for c in g)
        cofactor = arith.pm_divmod(K.poly, g, p)[0]
        out.append(
            fields.PrimeIdeal(
                p=p,
                e=e,
                f=arith.poly_deg(g),
                norm=p ** arith.poly_deg(g),
                hnf=tuple(fields.ideal_from_elements(K, [fields._poly_at_theta(K, gz)], rational=p)),
                theta_root=(-gz[0]) % p if arith.poly_deg(gz) == 1 else None,
                anti_uniformizer=fields._multiplication_columns(K, fields._poly_at_theta(K, cofactor)),
            )
        )
    out.sort(key=lambda P: (P.f, P.e, P.hnf))
    return out
