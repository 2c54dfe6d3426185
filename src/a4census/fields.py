"""Totally real number fields of degree 3 and 4.

A field is carried as a monic integral defining polynomial together with
an integral basis for the maximal order.  NumberField is the one order
type: Z[theta] is built as one, and the Round 2 method (Cohen, GTM 138,
6.1) enlarges it at every prime whose square divides disc(f), each
intermediate order again a verified NumberField.  Elements are integer
coordinate vectors over the integral basis; ideals are integer row-HNF
matrices over the same basis.  All arithmetic is exact.

Primes above p are read off the factors of f mod p when p is prime to
the index, and otherwise by splitting O/pO modulo its p-radical into
fields (Cohen, GTM 138, 6.2).  The same p-radical serves both steps.

The two constructions the census needs are the cyclic cubic field of
prime conductor ell = 1 mod 3 (from the Shanks polynomial when ell is of
the form a^2 + 3a + 9, otherwise from the Gaussian-period cubic attached
to 4*ell = a^2 + 27 b^2) and the totally real A4 quartic field of
discriminant ell^2 found by exhaustive coefficient search.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from . import arith, linalg
from .arith import (
    factor_poly_mod_p,
    factorize,
    is_prime,
    is_square,
    poly_deg,
    poly_derivative,
    poly_discriminant,
    poly_divmod_monic,
    poly_eval,
    poly_mul,
    poly_trim,
)

__all__ = [
    "FieldError",
    "NumberField",
    "PrimeIdeal",
    "QuotientRing",
    "new_number_field",
    "shanks_param",
    "cubic_subfield",
    "period_cubic",
    "resolvent_cubic",
    "quartic_galois_tag",
    "quartic_field_search",
    "factor_rational_prime",
    "splitting_pattern",
    "sturm_real_roots",
    "is_irreducible",
    "is_totally_real",
    "element_ideal",
    "ideal_from_elements",
    "ideal_mul",
    "ideal_pow",
    "ideal_norm",
    "ideal_eq",
    "element_in_ideal",
    "element_valuation",
    "element_in_prime",
    "minkowski_bound",
    "field_to_record",
    "field_from_record",
]


class FieldError(ValueError):
    """Raised when a construction or verification contract fails."""


# ---------------------------------------------------------------------------
# Polynomial predicates.


def sturm_real_roots(f) -> int:
    """Number of distinct real roots of a squarefree integer polynomial."""
    chain = [tuple(Fraction(c) for c in poly_trim(f))]
    chain.append(tuple(Fraction(c) for c in poly_derivative(f)))
    while poly_deg(chain[-1]) > 0:
        rem = _frac_rem(chain[-2], chain[-1])
        if not rem:
            raise ValueError("polynomial is not squarefree")
        chain.append(tuple(-c for c in rem))
    if chain[-1] == ():
        chain.pop()

    def changes(signs):
        signs = [s for s in signs if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    at_plus = [1 if g[-1] > 0 else -1 for g in chain]
    at_minus = [s if (len(g) - 1) % 2 == 0 else -s for s, g in zip(at_plus, chain)]
    return changes(at_minus) - changes(at_plus)


def _frac_rem(f, g):
    f = list(f)
    dg = len(g) - 1
    lead = g[-1]
    while len(f) - 1 >= dg and any(f):
        if f[-1] == 0:
            f.pop()
            continue
        c = f[-1] / lead
        shift = len(f) - len(g)
        for j, b in enumerate(g):
            f[shift + j] -= c * b
        f.pop()
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def is_totally_real(f) -> bool:
    f = poly_trim(f)
    return sturm_real_roots(f) == poly_deg(f)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def is_irreducible(f) -> bool:
    """Irreducibility over Q for monic integer polynomials of degree <= 4."""
    f = poly_trim(f)
    n = poly_deg(f)
    if n < 1 or f[-1] != 1:
        raise ValueError("expected a monic polynomial of positive degree")
    if n == 1:
        return True
    if f[0] == 0:
        return False
    for d in _divisors(f[0]):
        if poly_eval(f, d) == 0 or poly_eval(f, -d) == 0:
            return False
    if n <= 3:
        return True
    # quartic: rule out integer quadratic factorizations (Gauss lemma)
    c0, c1, c2, c3, _ = f
    for s in _divisors(c0):
        for s_signed in (s, -s):
            if c0 % s_signed != 0:
                continue
            t = c0 // s_signed
            # u + w = c3, u*w = c2 - s - t, u*t + w*s = c1
            disc = c3 * c3 - 4 * (c2 - s_signed - t)
            if disc < 0 or not is_square(disc):
                continue
            r = math.isqrt(disc)
            for u2 in (c3 + r, c3 - r):
                if u2 % 2:
                    continue
                u = u2 // 2
                w = c3 - u
                if u * t + w * s_signed == c1:
                    return False
    return True


# ---------------------------------------------------------------------------
# The field object.


@dataclass(frozen=True)
class NumberField:
    """A totally real field Q[x]/(poly) with an order containing Z[theta].

    new_number_field returns the maximal order; the orders met while
    maximalising are NumberFields too.  basis_num / basis_den give the
    order's basis w_i over the power basis (rows of basis_num divided by
    basis_den); mult_table[i][j] holds the integer coordinates of w_i * w_j.
    """

    poly: tuple
    degree: int
    disc: int
    disc_poly: int
    index: int
    basis_num: tuple
    basis_den: int
    mult_table: tuple
    trace_gram: tuple
    _adjugate: tuple = dataclasses.field(compare=False, repr=False)  # (adj, det) of basis_num
    _one: tuple = dataclasses.field(compare=False, repr=False)  # coordinates of 1

    def el_mul(self, a, b):
        n = self.degree
        out = [0] * n
        t = self.mult_table
        for i in range(n):
            ai = a[i]
            if not ai:
                continue
            ti = t[i]
            for j in range(n):
                bj = b[j]
                if bj:
                    row = ti[j]
                    c = ai * bj
                    for k in range(n):
                        out[k] += c * row[k]
        return tuple(out)

    def el_pow(self, a, e: int):
        result = self.one()
        base = tuple(a)
        while e:
            if e & 1:
                result = self.el_mul(result, base)
            base = self.el_mul(base, base)
            e >>= 1
        return result

    def one(self):
        return self._one

    def from_int(self, k: int):
        return tuple(k * x for x in self._one)

    def mul_matrix(self, a):
        """Rows = coordinates of a * w_i."""
        n = self.degree
        t = self.mult_table
        rows = []
        for i in range(n):
            row = [0] * n
            for j in range(n):
                aj = a[j]
                if aj:
                    tij = t[i][j]
                    for k in range(n):
                        row[k] += aj * tij[k]
            rows.append(row)
        return rows

    def el_norm(self, a) -> int:
        return arith.det_bareiss(self.mul_matrix(a))

    def el_trace(self, a) -> int:
        n = self.degree
        return sum(self.mult_table[i][j][i] * a[j] for i in range(n) for j in range(n))

    def from_power_basis(self, num, den=1):
        """Coordinates over the integral basis; raises if not integral."""
        c = _power_to_coords(self, num, den)
        if c is None:
            raise FieldError("element is not in the maximal order")
        return c

    def embeddings(self, digits=50):
        """Real roots of poly, high-precision floats via mpmath."""
        import mpmath

        with mpmath.workdps(digits):
            roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(self.poly)], maxsteps=200, extraprec=120)
            roots = sorted(mpmath.mpf(r.real) for r in roots)
        return roots

    def embed_element(self, a, roots):
        """Values of the element at each real embedding."""
        vals = []
        num_rows = self.basis_num
        d = self.basis_den
        for r in roots:
            basis_vals = [sum(num_rows[i][j] * r**j for j in range(self.degree)) / d for i in range(self.degree)]
            vals.append(sum(a[i] * basis_vals[i] for i in range(self.degree)))
        return vals


def _power_to_coords(K: NumberField, num, den=1):
    """Solve c * (basis_num / basis_den) = num / den for integer c, else None."""
    n = K.degree
    num = tuple(num) + (0,) * (n - len(num))
    adj, det = K._adjugate
    out = []
    for k in range(n):
        s = sum(num[i] * adj[i][k] for i in range(n))
        val = s * K.basis_den
        q, r = divmod(val, det * den)
        if r:
            return None
        out.append(q)
    return tuple(out)


def _adjugate_int(mat):
    """(adjugate, determinant) of a small integer matrix."""
    n = len(mat)
    det = arith.det_bareiss(mat)
    if det == 0:
        raise ZeroDivisionError("singular basis matrix")
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[mat[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = arith.det_bareiss(minor) if minor else 1
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return [tuple(r) for r in adj], det


def new_number_field(coeffs) -> NumberField:
    """Build the field and its maximal order from a monic defining polynomial.

    Requires degree 3 or 4, irreducible over Q, and totally real.  The
    order starts at Z[theta], built by _order like every order after it,
    and _maximalize_at enlarges it at every prime p with p^2 | disc(f)
    until it is p-maximal.
    """
    f = poly_trim(coeffs)
    n = poly_deg(f)
    if n not in (3, 4):
        raise FieldError(f"degree {n} is outside this kernel's scope")
    if f[-1] != 1:
        raise FieldError("defining polynomial must be monic")
    if not is_irreducible(f):
        raise FieldError("defining polynomial is reducible over Q")
    if not is_totally_real(f):
        raise FieldError("field is not totally real")
    dpoly = poly_discriminant(f)
    K = _order(f, dpoly, [tuple(int(i == j) for j in range(n)) for i in range(n)], 1)
    for p, e in sorted(factorize(dpoly).items()):
        if e >= 2:
            K = _maximalize_at(K, p)
    return K


def _order(f, dpoly, rows, den) -> NumberField:
    """The verified order with Z-basis rows/den over the power basis.

    The basis is put in canonical form, the HNF of the rows divided by the
    gcd of its entries and den, so an order has one representation.
    """
    h = linalg.hnf(rows, poly_deg(f))
    g = math.gcd(den, *(x for row in h for x in row))
    return _finish_field(f, dpoly, [tuple(x // g for x in row) for row in h], den // g)


def _finish_field(f, dpoly, basis_num, basis_den) -> NumberField:
    n = poly_deg(f)
    detH = arith.det_bareiss(basis_num)
    # index = basis_den^n / det(H); orders contain Z[theta] so this is integral
    index, remi = divmod(basis_den**n, abs(detH))
    if remi != 0:
        raise FieldError("order does not contain Z[theta]")
    disc, remd = divmod(dpoly, index * index)
    if remd != 0:
        raise FieldError("inconsistent order index")
    # The stub carries only what _power_to_coords reads; the finished field
    # is a copy with the derived tables filled in.
    stub = NumberField(
        poly=f,
        degree=n,
        disc=disc,
        disc_poly=dpoly,
        index=index,
        basis_num=tuple(tuple(r) for r in basis_num),
        basis_den=basis_den,
        mult_table=(),
        trace_gram=(),
        _adjugate=_adjugate_int(basis_num),
        _one=(),
    )
    one_coords = _power_to_coords(stub, (1,) + (0,) * (n - 1), 1)
    if one_coords is None:
        raise FieldError("basis does not contain 1")
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = poly_mul(basis_num[i], basis_num[j])
            _, rem2 = poly_divmod_monic(prod, f)
            rem2 = tuple(rem2) + (0,) * (n - len(rem2))
            c = _power_to_coords(stub, rem2, basis_den * basis_den)
            if c is None:
                raise FieldError("basis does not span a ring")
            row.append(c)
        table.append(tuple(row))
    K = dataclasses.replace(stub, mult_table=tuple(table), _one=one_coords)
    gram = tuple(tuple(K.el_trace(table[i][j]) for j in range(n)) for i in range(n))
    got = arith.det_bareiss(gram)
    if got != disc:
        raise FieldError(f"trace-form determinant {got} disagrees with discriminant {disc}")
    return dataclasses.replace(K, trace_gram=gram)


def _maximalize_at(K: NumberField, p: int) -> NumberField:
    """The p-maximal order over the order K (Round 2, Cohen, GTM 138, 6.1).

    One round: I = p-radical of O (_radical_mod_p), then the idealiser
    O' = (1/p) {y in O : y I <= p I}.  O is p-maximal exactly when O' = O.
    Each enlarged order is built and verified by _order.
    """
    n = K.degree
    p_rows = [tuple(p * int(i == k) for k in range(n)) for i in range(n)]  # pO
    for _ in range(40):
        rad = linalg.hnf(p_rows + _radical_mod_p(K, p), n)
        # idealiser condition: y * m_j in p*I for every radical basis row
        cols = [[] for _ in range(n)]
        for mj in rad:
            for i, z in enumerate(K.mul_matrix(mj)):  # z = w_i * m_j
                q = linalg.hnf_solve(rad, z)
                if q is None:
                    raise FieldError(f"radical at {p} is not an ideal")
                cols[i].extend(x % p for x in q)
        ys = linalg.kernel_mod_p(list(zip(*cols)), n, p)
        if not ys:
            return K
        enlarged = linalg.hnf(p_rows + ys, n)
        if linalg.lattice_index(enlarged) == p**n:
            return K  # only pO itself: already maximal
        # O-coordinates to power-basis rows, then divide by p
        rows = [tuple(sum(c * b[j] for c, b in zip(row, K.basis_num)) for j in range(n)) for row in enlarged]
        K = _order(K.poly, K.disc_poly, rows, K.basis_den * p)
    raise FieldError(f"maximalization at {p} did not terminate")


def _radical_mod_p(K: NumberField, p: int):
    """Basis mod p of the p-radical of O, as O-coordinate vectors.

    The radical of O/pO is the kernel of the F_p-linear map x -> x^(p^m)
    with p^m >= n (Cohen, GTM 138, 6.1); its preimage in O is the
    p-radical, which contains pO.
    """
    n = K.degree
    q = p
    while q < n:
        q *= p
    pO = QuotientRing(K, [tuple(p * int(i == k) for k in range(n)) for i in range(n)])
    frob = [pO.pow(tuple(int(i == k) for k in range(n)), q) for i in range(n)]
    return linalg.kernel_mod_p(list(zip(*frob)), n, p)


# ---------------------------------------------------------------------------
# Prime ideals.


@dataclass(frozen=True)
class PrimeIdeal:
    """A prime of the maximal order, with HNF basis over the integral basis.

    The HNF rows span P as a lattice; membership and valuations go through
    the anti-uniformizer.
    """

    p: int
    e: int
    f: int
    norm: int
    hnf: tuple
    theta_root: object  # int root of poly mod p for unramified degree-1 primes
    # beta in pP^-1 but not in pO, as the columns of its multiplication
    # matrix: (a*beta)_k = sum_i a_i col_k[i] (element_valuation)
    anti_uniformizer: tuple = dataclasses.field(compare=False, repr=False)

    def key(self):
        return (self.p, self.f, self.e, self.hnf)


def element_ideal(K: NumberField, a):
    return linalg.hnf(K.mul_matrix(a), K.degree)


def ideal_from_elements(K: NumberField, gens, rational=0):
    rows = []
    if rational:
        for i in range(K.degree):
            rows.append(tuple(rational * int(i == k) for k in range(K.degree)))
    for g in gens:
        rows.extend(K.mul_matrix(g))
    return linalg.hnf(rows, K.degree)


def ideal_mul(K: NumberField, A, B):
    if len(A) != K.degree or len(B) != K.degree:
        raise ValueError("ideal rank does not match the field degree")
    rows = []
    for a in A:
        for b in B:
            rows.append(K.el_mul(a, b))
    return linalg.hnf(rows, K.degree)


def ideal_pow(K: NumberField, A, k: int):
    result = linalg.hnf([tuple(int(i == j) for j in range(K.degree)) for i in range(K.degree)], K.degree)
    base = A
    while k:
        if k & 1:
            result = ideal_mul(K, result, base)
        base = ideal_mul(K, base, base)
        k >>= 1
    return result


def ideal_norm(A) -> int:
    return linalg.lattice_index(A)


def ideal_eq(A, B) -> bool:
    return linalg.lattice_eq(A, B)


def element_in_ideal(A, a) -> bool:
    return linalg.hnf_solve(A, a) is not None


def element_valuation(K: NumberField, a, P: PrimeIdeal) -> int:
    """v_P(a) for a nonzero integral element of K, by P's anti-uniformizer.

    beta lies in pP^-1 but not in pO, so v_P(beta) = e(P) - 1 and
    v_Q(beta) >= e(Q) at every other Q above p.  Hence a lies in P exactly
    when a*beta is in pO, and then a*beta/p is integral with v_P one less
    and no smaller valuation elsewhere.  The valuation is the number of
    such exact divisions (Cohen, GTM 138, Alg. 4.8.17).
    """
    if not any(a):
        raise ValueError("valuation of zero")
    p, cols = P.p, P.anti_uniformizer
    v = 0
    while True:
        prod = [sum(map(operator.mul, a, col)) for col in cols]
        if any(x % p for x in prod):
            return v
        a = [x // p for x in prod]
        v += 1


def element_in_prime(P: PrimeIdeal, a) -> bool:
    """a in P, tested as a*beta in pO one coordinate at a time (see element_valuation)."""
    p = P.p
    for col in P.anti_uniformizer:
        if sum(map(operator.mul, a, col)) % p:
            return False
    return True


def _multiplication_columns(K: NumberField, beta):
    """The columns of beta's multiplication matrix, the form element_valuation reads."""
    return tuple(zip(*K.mul_matrix(beta)))  # row i of the matrix = beta * w_i


def factor_rational_prime(K: NumberField, p: int):
    """The primes of K above p, sorted by (f, e, HNF) for stable labels."""
    if K.index % p != 0:
        out = []
        for g, e in factor_poly_mod_p(K.poly, p):
            gz = tuple(c if c <= p // 2 else c - p for c in g)  # small lift
            gtheta = _poly_at_theta(K, gz)
            hnf_rows = ideal_from_elements(K, [gtheta], rational=p)
            root = (-gz[0]) % p if poly_deg(gz) == 1 else None
            # beta = (f/g)(theta): beta * g(theta) = f(theta) = 0 mod p, and
            # beta is not in pO because deg(f/g) < n and p is prime to the index
            cofactor, rem = arith.pm_divmod(K.poly, g, p)
            if rem:
                raise FieldError(f"factor of the defining polynomial mod {p} does not divide it")
            out.append(
                PrimeIdeal(
                    p=p,
                    e=e,
                    f=poly_deg(g),
                    norm=p ** poly_deg(g),
                    hnf=tuple(hnf_rows),
                    theta_root=root,
                    anti_uniformizer=_multiplication_columns(K, _poly_at_theta(K, cofactor)),
                )
            )
        out.sort(key=lambda P: (P.f, P.e, P.hnf))
        if sum(P.e * P.f for P in out) != K.degree:
            raise FieldError(f"primes over {p} do not satisfy sum e*f = {K.degree}")
        return out
    return _factor_index_prime(K, p)


def _poly_at_theta(K: NumberField, g):
    """g(theta) as coordinates over the integral basis (g integer poly)."""
    n = K.degree
    _, rem = poly_divmod_monic(g, K.poly)
    rem = tuple(rem) + (0,) * (n - len(rem))
    return K.from_power_basis(rem)


def _factor_index_prime(K: NumberField, p: int):
    """Primes above p when p divides the order index (Cohen, GTM 138, 6.2).

    O/pO modulo its radical (_radical_mod_p) is a product of finite fields;
    random elements split it by idempotents until each component is a
    field, and each component's kernel gives one prime P.  Its
    anti-uniformizer beta is the first basis vector of pP^-1/pO = {x :
    x*P in pO}, solved mod p from P's HNF rows.
    """
    n = K.degree
    nil = _radical_mod_p(K, p)
    nil_rref, nil_pivots = linalg.rref_mod_p([list(v) for v in nil], n, p) if nil else ([], [])
    free_cols = [j for j in range(n) if j not in nil_pivots]

    def to_quot(vec):
        res = linalg.residual_mod_p(nil_rref, nil_pivots, vec, p)
        return tuple(res[j] for j in free_cols)

    def lift(qvec):
        out = [0] * n
        for idx, j in enumerate(free_cols):
            out[j] = qvec[idx]
        return tuple(out)

    def qmul(a, b):
        return to_quot(K.el_mul(lift(a), lift(b)))

    dim_b = len(free_cols)
    one_q = to_quot(K.one())
    rng = random.Random(arith._poly_seed(K.poly, p) ^ 0xA5)
    components = [(one_q, [to_quot(tuple(int(i == k) for k in range(n))) for i in range(n)])]
    # each component: (identity element, spanning set); refine until fields
    final = []
    guard = 0
    while components:
        guard += 1
        if guard > 200:
            raise FieldError("algebra splitting did not terminate")
        ident, span = components.pop()
        rref_span, piv_span = linalg.rref_mod_p([list(v) for v in span], dim_b, p)
        dim_c = len(rref_span)
        found = False
        for _ in range(60):
            cand = tuple(rng.randrange(p) for _ in range(dim_b))
            # project candidate into the component
            cand = qmul(cand, ident)
            mu = _min_poly_mod(cand, qmul, ident, rref_span, piv_span, dim_b, p)
            fac = factor_poly_mod_p(mu, p)
            if len(fac) == 1 and fac[0][1] == 1:
                if poly_deg(fac[0][0]) == dim_c:
                    final.append((ident, rref_span, piv_span))
                    found = True
                    break
                continue
            if any(mult != 1 for _, mult in fac):
                raise FieldError(f"nilpotents escaped the radical at {p}")
            for g, _ in fac:
                cof = _pm_quot(mu, g, p)
                # idempotent: cof(y) * (cof(y)^-1 mod g)(y)
                inv = _pm_invmod(cof, g, p)
                part = _pm_compose_apply(cof, cand, qmul, ident, p)
                part_inv = _pm_compose_apply(inv, cand, qmul, ident, p)
                idem = qmul(part, part_inv)
                sub = [qmul(idem, v) for v in span]
                components.append((idem, sub))
            found = True
            break
        if not found:
            raise FieldError("no separating element found in O/pO")
    out = []
    for ident, rref_span, piv_span in final:
        f_res = len(rref_span)
        # maximal ideal = {x in O/pO : x * ident in this component... } kernel of x -> x*e
        rows = []
        for i in range(n):
            e_i = to_quot(tuple(int(i == k) for k in range(n)))
            img = qmul(e_i, ident)
            rows.append(img)
        eqs = [[rows[i][j] for i in range(n)] for j in range(dim_b)]
        ker = linalg.kernel_mod_p(eqs, n, p)
        id_rows = [tuple(p * int(i == k) for k in range(n)) for i in range(n)]
        id_rows += [tuple(int(x) % p for x in v) for v in ker]
        hnf_rows = linalg.hnf(id_rows, n)
        norm = linalg.lattice_index(hnf_rows)
        if norm != p**f_res:
            raise FieldError(f"prime over {p} has norm {norm}, not {p}^{f_res}")
        # beta * P lies in pO exactly when every coordinate of beta * h is
        # 0 mod p for every HNF row h of P: linear conditions whose
        # solutions form pP^-1/pO, of dimension f
        eqs = [col for h in hnf_rows for col in _multiplication_columns(K, h)]
        betas = linalg.kernel_mod_p(eqs, n, p)
        if len(betas) != f_res:
            raise FieldError(f"pP^-1/pO has dimension {len(betas)} at a prime over {p}, not f = {f_res}")
        P = PrimeIdeal(
            p=p,
            e=0,
            f=f_res,
            norm=norm,
            hnf=tuple(hnf_rows),
            theta_root=None,
            anti_uniformizer=_multiplication_columns(K, betas[0]),
        )
        # the ramification index is v_P(p), which needs only the anti-uniformizer
        out.append(dataclasses.replace(P, e=element_valuation(K, K.from_int(p), P)))
    out.sort(key=lambda P: (P.f, P.e, P.hnf))
    if sum(P.e * P.f for P in out) != n:
        raise FieldError(f"primes over {p} do not satisfy sum e*f = {n}")
    return out


def _min_poly_mod(x, qmul, ident, rref_span, piv_span, dim_b, p):
    """Minimal polynomial of x acting inside one algebra component."""
    pows = [ident]
    cur = ident
    for _ in range(dim_b):
        cur = qmul(cur, x)
        pows.append(cur)
    # find the first linear dependence
    rows = []
    for k, v in enumerate(pows):
        rows.append(list(v))
        red, _ = linalg.rref_mod_p(rows, dim_b, p)
        if len(red) < len(rows):
            # dependence among pows[0..k]: solve for coefficients
            eqs = [[pows[i][j] for i in range(k + 1)] for j in range(dim_b)]
            ker = linalg.kernel_mod_p(eqs, k + 1, p)
            if not ker:
                raise FieldError("dependent powers with an empty kernel mod p")
            co = min(ker, key=lambda v2: tuple(v2))
            # normalize: highest nonzero coefficient is on pows[k]
            co = list(co)
            while co and co[-1] == 0:
                co.pop()
            inv = pow(co[-1], -1, p)
            return tuple(c * inv % p for c in co)
    raise FieldError("no minimal polynomial found")


def _pm_quot(f, g, p):
    q, r = arith.pm_divmod(f, g, p)
    if r:
        raise FieldError("factor of the minimal polynomial does not divide it")
    return q


def _pm_invmod(f, g, p):
    """Inverse of f modulo g over F_p (extended Euclid)."""
    r0, r1 = arith.pm_reduce(g, p), arith.pm_divmod(f, g, p)[1]
    s0, s1 = (), (1,)
    while r1:
        q, r2 = arith.pm_divmod(r0, r1, p)
        r0, r1 = r1, r2
        s0, s1 = s1, arith.pm_sub(s0, arith.pm_mul(q, s1, p), p)
    if poly_deg(r0) != 0:
        raise FieldError("cofactor is not invertible modulo its factor")
    inv = pow(r0[0], -1, p)
    return tuple(c * inv % p for c in s0)


def _pm_compose_apply(g, x, qmul, ident, p):
    """g(x) inside the quotient algebra, Horner style."""
    acc = tuple(0 for _ in ident)
    for c in reversed(arith.pm_reduce(g, p) or (0,)):
        acc = qmul(acc, x)
        if c:
            acc = tuple((a + c * b) % p for a, b in zip(acc, ident))
    return acc


def splitting_pattern(K: NumberField, p: int):
    """Sorted (e, f) pairs of the primes above p."""
    return sorted((P.e, P.f) for P in factor_rational_prime(K, p))


# ---------------------------------------------------------------------------
# Quotient rings O/I.


class QuotientRing:
    """O/I for a full-rank integral ideal I, with canonical HNF representatives."""

    def __init__(self, K: NumberField, I):
        self.K = K
        self.hnf = [tuple(r) for r in I]
        self.size = linalg.lattice_index(self.hnf)

    def reduce(self, a):
        v = list(a)
        h = self.hnf
        for i in range(len(h)):
            q = v[i] // h[i][i]
            if q:
                for j in range(i, len(h)):
                    v[j] -= q * h[i][j]
        return tuple(v)

    def mul(self, a, b):
        return self.reduce(self.K.el_mul(a, b))

    def pow(self, a, e: int):
        result = self.reduce(self.K.one())
        base = self.reduce(a)
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def one(self):
        return self.reduce(self.K.one())


# ---------------------------------------------------------------------------
# The census field constructions.


def shanks_param(ell: int):
    """a >= -1 with ell = a^2 + 3a + 9, or None."""
    t = 4 * ell - 27
    if t <= 0 or not is_square(t):
        return None
    r = math.isqrt(t)
    if (r - 3) % 2:
        return None
    a = (r - 3) // 2
    return a if a >= -1 else None


def period_cubic(ell: int):
    """x^3 - 3*ell*x - ell*a for 4*ell = a^2 + 27 b^2, a = 1 mod 3.

    Its roots are the Gaussian periods of the index-3 subgroup of
    (Z/ell)^*, so the splitting field is the cubic subfield of the
    ell-th cyclotomic field; poly disc is (27*ell*b)^2.
    """
    a, b = arith.cornacchia_4l(ell)
    f = (-ell * a, -3 * ell, 0, 1)
    if poly_discriminant(f) != (27 * ell * b) ** 2:
        raise FieldError(f"period cubic of {ell} has the wrong discriminant")
    return f


def cubic_subfield(ell: int) -> NumberField:
    """The cyclic cubic field of conductor ell (prime, 1 mod 3).

    Uses the Shanks simplest-cubic polynomial when ell = a^2 + 3a + 9
    (index one), otherwise the period cubic (index 27b, maximalised).
    Verifies disc = ell^2 either way.
    """
    if ell % 3 != 1 or not is_prime(ell):
        raise FieldError(f"{ell} is not a prime conductor congruent to 1 mod 3")
    a = shanks_param(ell)
    if a is not None:
        f = (-1, -(a + 3), -a, 1)
    else:
        f = period_cubic(ell)
    K = new_number_field(f)
    if K.disc != ell * ell:
        raise FieldError(f"cubic field has discriminant {K.disc}, expected {ell*ell}")
    return K


def resolvent_cubic(f):
    """Resolvent cubic of a monic quartic; same discriminant as f."""
    f = poly_trim(f)
    if poly_deg(f) != 4 or f[-1] != 1:
        raise ValueError("expected a monic quartic")
    d, c, b, a, _ = f
    return (-(a * a * d - 4 * b * d + c * c), a * c - 4 * d, -b, 1)


def quartic_galois_tag(f) -> str:
    """Galois group of an irreducible monic quartic: A4, S4, V4, C4 or D4."""
    f = poly_trim(f)
    if poly_deg(f) != 4 or f[-1] != 1:
        raise ValueError("expected a monic quartic")
    if not is_irreducible(f):
        raise ValueError("quartic is reducible")
    disc = poly_discriminant(f)
    res = resolvent_cubic(f)
    roots = _rational_roots(res)
    if not roots:
        return "A4" if is_square(disc) else "S4"
    if len(roots) == 3:
        return "V4"
    # exactly one rational resolvent root: C4 or D4 (disc is a nonsquare).
    # Kappe-Warren: C4 iff both x^2 - y0 x + d and x^2 + a x + (b - y0)
    # split over Q(sqrt(disc)).
    y0 = roots[0]
    d0, c0, b0, a0, _ = f
    t1 = y0 * y0 - 4 * d0
    t2 = a0 * a0 - 4 * (b0 - y0)
    if _square_in_qsqrt(t1, disc) and _square_in_qsqrt(t2, disc):
        return "C4"
    return "D4"


def _rational_roots(f):
    f = poly_trim(f)
    if f[0] == 0:
        return sorted(set([0] + _rational_roots(tuple(f[1:]))))
    out = []
    for d in _divisors(f[0]):
        for cand in (d, -d):
            if poly_eval(f, cand) == 0:
                out.append(cand)
    return sorted(set(out))


def _square_in_qsqrt(t, disc):
    """t is a square in Q(sqrt(disc)) for integer t and nonsquare disc."""
    if t == 0:
        return True
    if t > 0 and is_square(t):
        return True
    prod = t * disc
    return prod > 0 and is_square(prod)


def quartic_field_search(ell: int, coeff_bound: int = 20) -> NumberField:
    """Exhaustive search for the totally real A4 quartic field of disc ell^2.

    Scans monic quartics with the cubic coefficient translation-normalised
    into {0, 1, -1, -2} and the rest in [-coeff_bound, coeff_bound], in a
    fixed lexicographic order.  Among hits (irreducible, totally real,
    A4 tag, field discriminant exactly ell^2) the first one with order
    index 1 wins, falling back to the first hit; either rule makes the
    result deterministic.  The winner's resolvent cubic is verified to
    define a cubic field of discriminant ell^2 as well.

    This is a pure coefficient search: the caller screens the
    class-number condition (4 divides h of the cubic subfield) first,
    because without it no such field exists and the scan finds nothing
    (census.load_conductor, tag `class-number`).
    """
    ell2 = ell * ell

    def scan():
        first_hit = None
        rng = range(-coeff_bound, coeff_bound + 1)
        for a in (0, 1, -1, -2):
            for b in rng:
                for c in rng:
                    for d in rng:
                        # poly disc via the resolvent cubic y^3 + r2 y^2 + r1 y + r0
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
                        if not is_irreducible(f):
                            continue
                        if sturm_real_roots(f) != 4:
                            continue
                        if _rational_roots((r0, r1, r2, 1)):
                            continue  # resolvent reducible: not A4
                        if quartic_galois_tag(f) != "A4":
                            continue
                        K = new_number_field(f)
                        if K.disc != ell2:
                            continue
                        if K.index == 1:
                            return K
                        if first_hit is None:
                            first_hit = K
        return first_hit

    K = scan()
    if K is None:
        raise FieldError(
            f"no A4 quartic of discriminant {ell}^2 found with coefficients up to {coeff_bound}; "
            "supply quartic_poly explicitly in the conductor config"
        )
    R = new_number_field(resolvent_cubic(K.poly))
    if R.disc != ell2:
        raise FieldError("resolvent cubic of the found quartic does not define the conductor's cubic field")
    return K


def minkowski_bound(K: NumberField) -> int:
    """floor of the Minkowski bound (totally real: (n!/n^n) sqrt(disc))."""
    n = K.degree
    nf = math.factorial(n)
    return math.isqrt(nf * nf * K.disc) // n**n


# ---------------------------------------------------------------------------
# Serialization (bit-exact text cache records).


def field_to_record(K: NumberField) -> dict:
    return {
        "poly": list(K.poly),
        "basis_num": [list(r) for r in K.basis_num],
        "basis_den": K.basis_den,
        "disc": K.disc,
        "index": K.index,
    }


def field_from_record(rec: dict) -> NumberField:
    f = poly_trim(rec["poly"])
    dpoly = poly_discriminant(f)
    K = _finish_field(f, dpoly, [tuple(r) for r in rec["basis_num"]], rec["basis_den"])
    if K.disc != rec["disc"] or K.index != rec["index"]:
        raise FieldError("cache record is inconsistent with its basis")
    return K
