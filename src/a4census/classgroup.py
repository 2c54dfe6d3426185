"""Class groups and unit groups of the census fields, at desk scale.

Factor bases below the Minkowski bound hold at most a few dozen primes
for the discriminants in range (<= 10^8), so the class group comes from
exact relation collection: short-vector enumeration inside each
factor-base prime gives smooth principal ideals, Smith reduction of the
relation lattice gives the elementary divisors, and the run is accepted
only once adding half again as many fresh relations leaves the Smith
form unchanged.  Generators of every relation are kept, because the ray
class construction reuses them as principal-ideal input.

All lattice enumeration goes through one round stream (_rounds): the
basis is LLL-reduced once, and each round doubles the trace-form bound
and yields only the coefficient vectors above the previous bound.
unit_group reads one over the maximal order, and ideal_short_elements
reads one after its coefficient boxes; the relation harvest reads
ideal_short_elements over the maximal order and over each factor-base
prime, round robin.  Both classifiers hand smooth_split a basis of
v1 that is already reduced, together with its norm N(v1) = v^3, which
every such basis keeps (the HNF times a unimodular transform): the
census by the certified float LLL of linalg.lll_float_batch (for the
bases its split lanes defer, census._split_lanes, which take this
split's first candidates through the same checks in int64),
census.fast_classify and census.classify_prime (through
rayclass.artin_vector) by one _reduced_basis.  That basis is searched as
it is, and its exact Gram and determinant are formed only if the
coefficient boxes run out.

ClassGroupData carries the factor-base context it was built on, so an
ideal class is read off without refactoring the rational primes below
the Minkowski bound.  There is one smooth split (smooth_split: a short
alpha in A whose cofactor (alpha)/A factors over the base), and one
short-element stream behind it (ideal_short_elements: small
combinations of an LLL-reduced basis, then Fincke-Pohst rounds in
trace-form order).  Ideal class coordinates, the ray-class Artin map
(rayclass.artin_vector) and the fast census classifier
(census.fast_classify) all go through it.

Valuations are read off the norm where that is exact.  N((alpha)) is
the product of N(P)^v_P(alpha), so when alpha lies in exactly one
prime P above p, v_P(alpha) = v_p(N(alpha)) / f(P); in a split, where
the cofactor of an ideal A is wanted, this holds at every p prime to
N(A).  Only when alpha lies in two or more primes above p, or p divides
N(A), are the valuations counted out with P's anti-uniformizer
(element_valuation, one multiplication and one exact division by p per
unit of valuation), and v_P(A) is the least v_P of its rows.  Whether
alpha lies in P is the same test, alpha*beta in pO.  One cofactor
routine (_FBContext.cofactor) serves the relation harvest, with A = O
and N(A) = 1, and smooth_split; at each p it checks sum f(P) v_P = e_p.

Units come from their own search (unit_group: norm +-1 elements of the
maximal order in trace-form order, after any seeds from the conductor
config), not from class-group byproducts.  Floats in float64 only
locate them, from K's real embeddings with proven error bounds
(cube_root_frame): a unit's norm is decided exactly (el_norm), its
independence by a float Gram determinant of the log rows whose floor
Schinzel's bound on the Mahler measure of totally real units justifies,
and a cube root by its exact cube (el_pow).  The units are not
certified fundamental.  Downstream 3-quotients only need the unit
lattice to be 3-saturated, so unit_group returns its units already
saturated at 3 (exact_cube_root / saturate_units_at_3) with the
regulator adjusted; a float bound that cannot be proven raises
FieldError.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from . import arith, linalg
from .fields import (
    FieldError,
    NumberField,
    PrimeIdeal,
    element_in_prime,
    element_valuation,
    factor_rational_prime,
    ideal_mul,
    minkowski_bound,
    _adjugate_int,
)

__all__ = [
    "ClassGroupData",
    "UnitData",
    "class_group",
    "two_rank",
    "ideal_class_coordinates",
    "ideal_short_elements",
    "smooth_split",
    "unit_group",
    "EmbeddingFrame",
    "cube_root_frame",
    "exact_cube_root",
    "saturate_units_at_3",
]


CLASS_GROUP_ROUNDS = 8  # Smith forms class_group takes before it gives up
HARVEST_VISIT_CAP = 64  # candidates one visit of the relation harvest draws at most
UNIT_SEARCH_ROUNDS = 7  # enumeration rounds unit_group reads after its seeds


@dataclass(frozen=True)
class ClassGroupData:
    field: NumberField
    factor_base: tuple  # PrimeIdeal, sorted by (p, f, e, hnf)
    divisors: tuple  # nontrivial elementary divisors (> 1)
    h: int
    coord_rows: tuple  # row j = class coordinates of factor_base[j]
    relations: tuple  # (generator coords, valuation vector over factor_base)
    fb_ctx: _FBContext = dataclasses.field(compare=False, repr=False)  # base of smooth_split


@dataclass(frozen=True)
class UnitData:
    fundamental_units: tuple
    regulator_estimate: float
    rank: int


# ---------------------------------------------------------------------------
# Factor base and smoothness.


class _FBContext:
    """The prime ideals of norm <= bound, and the primes above each p <= bound."""

    def __init__(self, K: NumberField, bound: int):
        self.K = K
        self.rational_primes = arith.primes_upto(bound) if bound >= 2 else []
        self.above = {}
        fb = []
        for p in self.rational_primes:
            pr = factor_rational_prime(K, p)
            self.above[p] = pr
            fb.extend(P for P in pr if P.norm <= bound)
        fb.sort(key=lambda P: (P.p, P.f, P.e, P.hnf))
        self.fb = fb
        self.index = {P.key(): i for i, P in enumerate(fb)}

    def factor(self, n: int):
        """{p: e} for a positive n over the rational primes <= bound, or None."""
        fac = {}
        for p in self.rational_primes:
            while n % p == 0:
                fac[p] = fac.get(p, 0) + 1
                n //= p
        return fac if n == 1 else None

    def cofactor(self, el, total: int, A, nA: int, val_A):
        """Valuation vector of (el)/A over the factor base, or None.

        `total` is the cofactor norm N(el)/N(A), with N(A) = nA.  None
        means a prime outside the base divides the cofactor.  At a p prime
        to N(A), A is a unit at every prime above p and the valuations of
        el come from _valuations_above; elsewhere val_A memoizes v_P(A)
        across the candidates of one split.  At each p the valuations must
        add up to p's exponent in `total` (sum f(P) v_P = e_p), else
        FieldError.  The relation harvest takes A = O and N(A) = 1.
        """
        fac = self.factor(total) if total else None
        if fac is None:
            return None
        K = self.K
        vec = [0] * len(self.fb)
        for p, ep in fac.items():
            above = self.above[p]
            if nA % p:
                vals = _valuations_above(K, el, above, ep)
            else:
                vals = []
                for P in above:
                    key = P.key()
                    if key not in val_A:
                        val_A[key] = _ideal_valuation(K, A, P)
                    v = element_valuation(K, el, P) - val_A[key]
                    if v < 0:
                        raise FieldError("element of the ideal has a smaller valuation than the ideal")
                    vals.append(v)
            got = 0
            for P, v in zip(above, vals):
                if v:
                    idx = self.index.get(P.key())
                    if idx is None:
                        return None
                    vec[idx] = v
                    got += v * P.f
            if got != ep:
                raise FieldError("norm factorization does not match the prime valuations")
        return tuple(vec)


def _valuations_above(K: NumberField, el, above, ep: int):
    """v_P(el) for each P in `above`, all the primes over p, where p^ep || N(el).

    N((el)) is the product of N(P)^v_P(el) with N(P) = p^f(P), so when el
    lies in exactly one P above p, v_P(el) = ep / f(P); in every other
    case each valuation comes from element_valuation.  Membership in P is
    tested with P's anti-uniformizer (element_in_prime).
    """
    inside = [element_in_prime(P, el) for P in above]
    if sum(inside) == 1:
        P = above[inside.index(True)]
        v, rem = divmod(ep, P.f)
        if rem:
            raise FieldError(f"norm exponent {ep} at {P.p} is not a multiple of f = {P.f}")
        return [v if hit else 0 for hit in inside]
    return [element_valuation(K, el, P) if hit else 0 for P, hit in zip(above, inside)]


def _combine(coeffs, rows):
    """sum_i coeffs[i] * rows[i], as a coordinate tuple."""
    return tuple(sum(map(operator.mul, coeffs, col)) for col in zip(*rows))


def _reduced_basis(K: NumberField, rows):
    """LLL-reduced basis of the lattice `rows` and its trace-form Gram matrix."""
    T, red_gram = linalg.lll_gram(linalg.gram_matrix(rows, K.trace_gram))
    return [_combine(t, rows) for t in T], red_gram


def _start_bound(K: NumberField, covol_sq) -> int:
    # Minkowski: the lattice minimum of the trace form is at most
    # n * (covolume)^(2/n); covol_sq = disc * norm^2 for an ideal lattice.
    n = K.degree
    root = int(round(covol_sq ** (1.0 / n))) + 1
    return 2 * n * max(root, 1)


def _rounds(gram, bound, limit=20000):
    """Each doubling round's new coefficient vectors over a reduced basis.

    Round k enumerates the vectors of trace form <= bound * 2^k in
    trace-form order and yields those above the previous round's bound.
    The stream ends when a round would enumerate more than `limit`
    vectors: the enumeration is too dense to push deeper.
    """
    done = 0
    while True:
        try:
            batch = linalg.short_vectors(gram, bound, limit)
        except RuntimeError:
            return
        yield [c for val, c in batch if val > done]
        done, bound = bound, bound * 2


BOX_RADII = (1, 2, 4)  # the coefficient boxes ideal_short_elements walks first


@functools.cache
def _box_layer(n: int, radius: int):
    """The vectors of Z^n that the box of `radius` adds to the smaller boxes.

    One per +- pair (the one whose first nonzero entry is negative, which
    comes first), in (L1 norm, vector) order.  Cached: a stream builds a
    layer only when it first reaches it.
    """
    inner = max((r for r in BOX_RADII if r < radius), default=0)
    layer = (
        c
        for c in itertools.product(range(-radius, radius + 1), repeat=n)
        if max(map(abs, c)) > inner and next(x for x in c if x) < 0
    )
    return tuple(sorted(layer, key=lambda c: (sum(map(abs, c)), c)))


def _coefficient_boxes(n: int):
    """Coefficient vectors of the boxes of radius 1, 2, 4 in Z^n, each once up to sign.

    Layer by layer (_box_layer), each built on first use.  Every other
    nonzero vector has an entry above the largest radius.
    """
    for radius in BOX_RADII:
        yield from _box_layer(n, radius)


def ideal_short_elements(K: NumberField, A, *, reduced=False):
    """Nonzero elements of the ideal A, short ones first, each once up to sign.

    The basis is LLL-reduced once, exactly (lll_gram), unless `reduced`
    says that A is already a reduced basis: the fast classifier passes
    v1 bases reduced by linalg.lll_float_batch, whose transforms are
    certified unimodular, or by _reduced_basis, and the stream then runs
    over A as it is.  The stream starts with the small combinations of
    that basis (_coefficient_boxes: radius 1, 2, 4, in (L1, c) order),
    which is where a smooth cofactor is usually found.  It goes on with
    Fincke-Pohst rounds in trace-form order over the exact Gram of the
    same basis (formed only once the boxes run out when A came reduced):
    the bound starts at the Minkowski estimate from disc * N(A)^2 and
    doubles after each of 6 rounds, only values above the previous bound
    are new, and a coefficient vector with no entry above the largest
    radius was already yielded from the boxes and is skipped.  The
    stream ends early when a round would enumerate more than 20000
    vectors.  A may be any basis of the ideal: N(A) = |det A|.
    """
    if reduced:
        red, red_gram = [tuple(r) for r in A], None
    else:
        red, red_gram = _reduced_basis(K, [tuple(r) for r in A])
    for c in _coefficient_boxes(K.degree):
        yield _combine(c, red)
    if red_gram is None:
        red_gram = linalg.gram_matrix(red, K.trace_gram)
    nA = abs(arith.det_bareiss(A))
    for batch in itertools.islice(_rounds(red_gram, _start_bound(K, K.disc * nA * nA)), 6):
        for c in batch:
            if max(map(abs, c)) > BOX_RADII[-1]:  # not yielded from the boxes
                yield _combine(c, red)


# ---------------------------------------------------------------------------
# Class group.


def class_group(K: NumberField) -> ClassGroupData:
    """Class group by relation collection and Smith reduction.

    The relations are the free ones (rational primes whose primes all lie
    in the factor base), then those the harvest draws from the
    ideal_short_elements streams of the maximal order and of each
    factor-base prime, in that order, visited round robin.  A visit draws
    candidates from its stream until one gives a new relation, or
    HARVEST_VISIT_CAP have given none, and the next visit goes to the
    next stream; the cursor persists across harvests, so every stream is
    reached.  A harvest returns as soon as it has its target of new
    relations, or when a whole lap of visits adds none.  The first asks
    for max(2 |fb|, |fb| + 6), and one after a Smith form of short rank
    for max(4, |fb| // 2).  The run is accepted only once a top-up of
    max(4, ceil(rows / 2)) fresh relations leaves the Smith form
    unchanged.  Deterministic: every stream is.
    """
    if K.disc > 10**8:
        raise FieldError("discriminant above desk scale (10^8)")
    mb = minkowski_bound(K)
    ctx = _FBContext(K, mb)
    fb = ctx.fb
    nfb = len(fb)
    if nfb == 0:
        return ClassGroupData(K, (), (), 1, (), (), ctx)

    rel_vecs = set()
    relations = []

    def add_relation(gen, vec):
        if not any(vec) or vec in rel_vecs:
            return False
        rel_vecs.add(vec)
        relations.append((gen, vec))
        return True

    # free relations: rational primes whose primes all sit in the base
    for p in ctx.rational_primes:
        pr = ctx.above[p]
        if all(P.norm <= mb for P in pr):
            vec = [0] * nfb
            for P in pr:
                vec[ctx.index[P.key()]] = P.e
            add_relation(K.from_int(p), tuple(vec))

    # generators, so a stream that is never visited costs nothing
    ring_rows = [tuple(int(i == j) for j in range(K.degree)) for i in range(K.degree)]
    streams = [ideal_short_elements(K, ring_rows)]
    streams += [ideal_short_elements(K, P.hnf) for P in fb]
    cursor = 0  # the stream the next visit reads, kept across calls

    def harvest(target_new: int) -> int:
        nonlocal cursor
        got = idle = 0
        while got < target_new and idle < len(streams):
            stream = streams[cursor]
            cursor = (cursor + 1) % len(streams)
            idle += 1
            for el in itertools.islice(stream, HARVEST_VISIT_CAP):
                vec = ctx.cofactor(el, abs(K.el_norm(el)), ring_rows, 1, {})
                if vec is not None and add_relation(el, vec):
                    got += 1
                    idle = 0
                    break
        return got

    harvest(max(2 * nfb, nfb + 6))

    snapshot = None
    for _ in range(CLASS_GROUP_ROUNDS):
        mat = [list(vec) for _, vec in relations]
        divisors, V = linalg.smith_normal_form(mat, max(len(mat), nfb), nfb)
        divisors = list(divisors[:nfb])
        if len(divisors) < nfb or any(d == 0 for d in divisors):
            if harvest(max(4, nfb // 2)) == 0:
                raise FieldError("relation search exhausted before the class group closed; data unusable")
            continue
        if snapshot == divisors:
            h = 1
            for d in divisors:
                h *= d
            keep = [i for i, d in enumerate(divisors) if d > 1]
            coord_rows = tuple(tuple(V[j][i] % divisors[i] for i in keep) for j in range(nfb))
            return ClassGroupData(
                field=K,
                factor_base=tuple(fb),
                divisors=tuple(divisors[i] for i in keep),
                h=h,
                coord_rows=coord_rows,
                relations=tuple(relations),
                fb_ctx=ctx,
            )
        snapshot = divisors
        harvest(max(4, math.ceil(len(relations) / 2)))
    raise FieldError("class group did not stabilize; relation data unusable")


def two_rank(cg: ClassGroupData) -> int:
    return sum(1 for d in cg.divisors if d % 2 == 0)


def _class_coords_of_vec(cg: ClassGroupData, vec):
    r = len(cg.divisors)
    out = [0] * r
    for j, v in enumerate(vec):
        if v:
            row = cg.coord_rows[j]
            for i in range(r):
                out[i] += v * row[i]
    return tuple(x % d for x, d in zip(out, cg.divisors))


def ideal_class_coordinates(A, cg: ClassGroupData):
    """Coordinates of [A] over the elementary divisors; zero iff principal.

    When no short element of A has a smooth cofactor, A is multiplied by
    factor-base primes drawn from a generator seeded by the discriminant
    (so the answer is deterministic) and their classes are taken back out.
    """
    K = cg.field
    if not cg.divisors:
        return ()
    rng = random.Random(K.disc)
    trial = [tuple(r) for r in A]
    shift = [0] * len(cg.factor_base)
    for attempt in range(6):
        split = smooth_split(cg, trial)
        if split is not None:
            # (alpha) = A * prod P_j^(shift_j + vec_j), so [A] = -[prod P_j^(...)]
            total = [s + v for s, v in zip(shift, split[1])]
            return tuple((-c) % d for c, d in zip(_class_coords_of_vec(cg, total), cg.divisors))
        j = rng.randrange(len(cg.factor_base))
        shift[j] += 1
        trial = ideal_mul(K, trial, list(cg.factor_base[j].hnf))
    raise FieldError("ideal not expressible over the factor base after randomization")


def smooth_split(cg: ClassGroupData, A, usable=None, *, norm=None):
    """A short alpha in the ideal A whose cofactor (alpha)/A is smooth.

    Returns (alpha, vec) with (alpha) = A * prod_j cg.factor_base[j]^vec[j]
    for the first candidate of ideal_short_elements(A) that `usable`
    (when given) accepts and whose cofactor factors over the base; None
    when every candidate fails.  The cofactor norm N(alpha)/N(A) is taken
    once per candidate, and `usable(alpha, cofactor_norm)` receives it.
    Valuations that do not add up to that norm raise FieldError.
    A may be any basis of the ideal: N(A) = |det A|.  A caller that
    gives `norm` states that A is an already reduced basis of an ideal
    of that norm, which is then searched as it is (ideal_short_elements
    with `reduced`): census._c3_split, with N(v1) = v^3 for a basis
    that is v1's HNF times a unimodular transform, and
    rayclass.artin_vector for census.classify_prime.  The checks on each
    candidate are the same either way.  The census splits most of its
    bases in int64 lanes instead (census._split_lanes), which take this
    stream's first candidates, minus the rows of such a basis, through
    the same checks.
    """
    K = cg.field
    ctx = cg.fb_ctx
    nA = abs(arith.det_bareiss(A)) if norm is None else norm
    val_A = {}
    for el in ideal_short_elements(K, A, reduced=norm is not None):
        total, rem = divmod(abs(K.el_norm(el)), nA)
        if rem:
            raise FieldError("lattice is not an ideal: an element norm is not a multiple of N(A)")
        if usable is not None and not usable(el, total):
            continue
        vec = ctx.cofactor(el, total, A, nA, val_A)
        if vec is not None:
            return el, vec
    return None


def _ideal_valuation(K, A, P: PrimeIdeal) -> int:
    """v_P(A), the least v_P over the rows of A, which generate it."""
    return min(element_valuation(K, row, P) for row in A)


# ---------------------------------------------------------------------------
# Units.


FLOAT_EPS = 2.0**-53  # unit roundoff of float64
NORM_SCREEN = 1.5  # a search candidate takes the exact norm when its float |N| may be below this
RANK_FLOOR = 1e-2  # Gram determinant of unit log rows above which they are independent
LOG_SLACK = 0.05  # how far the float log rows may move the volume they span
ROUND_MARGIN = 0.25  # a cube root's float coordinates must be proven this close to the true ones


@dataclass(frozen=True)
class EmbeddingFrame:
    """K's real embeddings in float64, with entrywise error bounds (cube_root_frame)."""

    basis: object  # n x n: basis[r, b] is basis element b at the real root r of K.poly
    basis_err: object  # bound on |basis - the true values|
    gram_adj: object  # adjugate of the trace form G = basis^T basis, integers as float64
    gram_det: int  # det G = disc K


def _sign_at(poly, x: Fraction) -> int:
    """The sign of poly (constant first) at the rational x, in integers."""
    p, q = x.numerator, x.denominator
    n = len(poly) - 1
    val = sum(c * p**i * q ** (n - i) for i, c in enumerate(poly))
    return (val > 0) - (val < 0)


def _real_roots(poly):
    """The roots of a totally real poly (constant first) in float64, with proven radii.

    One numpy.roots, then three Newton steps on each real part.  Each root
    r is bracketed exactly: poly has no common sign at r - d and r + d,
    evaluated in integers at the two float ends, with d four units in the
    last place of max(1, |r|), widened 16-fold until it brackets (a radius
    past 2^-20 max(1, |r|) raises FieldError).  The n brackets are
    disjoint, so each holds exactly one of the n roots.  Returns (roots,
    radii) as arrays, ascending.
    """
    import numpy as np

    c = np.array(poly[::-1], dtype=float)
    dc = np.polyder(c)
    roots = np.sort(np.roots(c).real)
    for _ in range(3):
        roots = roots - np.polyval(c, roots) / np.polyval(dc, roots)
    radii = []
    for r in roots.tolist():
        scale = max(1.0, abs(r))
        d = 4 * math.ulp(scale)
        while _sign_at(poly, Fraction(r) - Fraction(d)) * _sign_at(poly, Fraction(r) + Fraction(d)) > 0:
            d *= 16
            if d > scale * 2.0**-20:
                raise FieldError(f"no sign change of the defining polynomial around its root {r}")
        radii.append(d)
    radii = np.array(radii)
    if not np.all(roots[:-1] + radii[:-1] < roots[1:] - radii[1:]):
        raise FieldError("the brackets of the real roots overlap")
    return roots, radii


def cube_root_frame(K: NumberField) -> EmbeddingFrame:
    """K's real embeddings in float64 with proven error bounds, formed once per field.

    basis[r, b] = sum_j basis_num[b][j] r^j / basis_den at each real root
    r of K.poly (_real_roots, each within a proven radius d), and
    basis_err bounds its distance from the value at the true root: d
    times the slope of the basis polynomial over the bracket, plus the
    rounding of the float sum.  unit_group takes its logarithms from the
    frame and every exact_cube_root its locator.  Since G = B^T B is the
    trace form (G[a][b] = Tr(w_a w_b)), B^-1 = G^-1 B^T, and G's adjugate
    and determinant are exact integers.
    """
    import numpy as np

    n = K.degree
    roots, radii = _real_roots(K.poly)
    num = np.array(K.basis_num, dtype=float).T  # column b: basis element b over the power basis
    js = np.arange(n)
    powers = roots[:, None] ** js
    hull = (np.abs(roots) + radii)[:, None]
    slope = (js * hull ** np.maximum(js - 1, 0)) @ np.abs(num) / K.basis_den
    basis = powers @ num / K.basis_den
    rounding = (4 * n * FLOAT_EPS) * (np.abs(powers) @ np.abs(num)) / K.basis_den
    adj, det = _adjugate_int(K.trace_gram)
    return EmbeddingFrame(
        basis=basis,
        basis_err=radii[:, None] * slope + rounding,
        gram_adj=np.array(adj, dtype=float),
        gram_det=det,
    )


def _values(frame: EmbeddingFrame, rows):
    """(values, error bounds) at K's real roots of the elements whose coordinates are `rows`.

    Row i of each is element i.  The bound covers the frame's own error
    and the rounding of the integer coordinates and of the float sum.  A
    coordinate past the float range raises FieldError.
    """
    import numpy as np

    try:
        u = np.array(rows, dtype=float)
    except OverflowError as exc:
        raise FieldError("element coordinates past the float range") from exc
    a = np.abs(u)
    n = frame.basis.shape[0]
    err = a @ frame.basis_err.T + (2 * n + 2) * FLOAT_EPS * (a @ np.abs(frame.basis).T)
    return u @ frame.basis.T, err


def _log_row(vals, err):
    """(log |values|, a bound on its Euclidean error) of a unit; FieldError past the float bound.

    |log a - log b| <= |a - b| / min(a, b), and every value must lie
    farther from 0 than twice its error bound.
    """
    import numpy as np

    a = np.abs(vals)
    if not np.all(err < a / 2):
        raise FieldError("unit logarithms past the float bound")
    row = np.log(a)
    tau = float(np.max(err / (a - err))) + 4 * FLOAT_EPS * (1 + float(np.max(np.abs(row))))
    return row, tau * math.sqrt(len(row))


def _independent(rows, etas) -> bool:
    """Whether the log rows (the last one a candidate's) are linearly independent.

    The volume they span is the norm of their wedge product, which is
    multilinear in the rows and at most the product of their norms, so
    errors of norm eta_i in the rows move it by at most
    prod(|l_i| + eta_i) - prod(|l_i|); that must be below LOG_SLACK, else
    FieldError.  See unit_group for the floor.
    """
    import numpy as np

    L = np.array(rows)
    norms = np.linalg.norm(L, axis=1)
    if not float(np.prod(norms + np.array(etas)) - np.prod(norms)) < LOG_SLACK:
        raise FieldError("unit logarithms too inexact for the rank test")
    return float(np.linalg.det(L @ L.T)) > RANK_FLOOR


def unit_group(K: NumberField, seed_candidates=()) -> UnitData:
    """Rank degree-1 independent units by bounded search, 3-saturated.

    Candidates are the seeds (units from the conductor config), then the
    norm +-1 elements of the maximal order in trace-form order over at
    most UNIT_SEARCH_ROUNDS rounds of 120000 vectors each; a candidate
    joins the basis when it raises the rank of the log-embedding lattice.
    Floats only locate the candidates; every claim is exact or proven:

    - each round is screened at once: the values (C red) B^T of its
      candidates at K's real roots (cube_root_frame), less their error
      bounds, give a lower bound on |N|, and only a candidate whose bound
      is below NORM_SCREEN goes on, in the round's order, to the exact
      test |el_norm(u)| = 1, so no unit is screened out;
    - the rank test is the float Gram determinant of the log rows against
      RANK_FLOOR.  K is totally real of degree n in {3, 4}, and a unit u
      other than +-1, taken over K's n embeddings, has Mahler measure at
      least phi^(n/2), phi the golden ratio (Schinzel, Acta Arith. 24,
      1973); since the logs of u sum to 0, |log u|_1 >= n log phi and
      |log u|_2 >= sqrt(n) log phi, so every nonzero vector of the log
      lattice has squared length at least 3 log^2 phi > 0.69.  By
      Hermite's constants (gamma_2^2 = 4/3, gamma_3^3 = 2) an independent
      set of k <= 3 rows then has Gram determinant at least
      (0.69 / gamma_k)^k > 0.35, a volume above 0.59, while a dependent
      set has volume 0.  The float rows move the volume by less than
      LOG_SLACK = 0.05 (checked in _independent), so the float
      determinant is above 0.29 or below 0.0025, on either side of
      RANK_FLOOR = 0.01 (its own rounding is below 1e-10 for these rows).

    The regulator is the float determinant of the first rank columns of
    the log rows, and the units are 3-saturated (saturate_units_at_3)
    with it divided by 3 at each swap.  A bound that cannot be proven
    raises FieldError, as a search that finds too few units does.
    """
    import numpy as np

    n = K.degree
    rank = n - 1
    frame = cube_root_frame(K)
    found, rows, etas = [], [], []

    def consider(u, vals, err):
        if abs(K.el_norm(u)) != 1:
            return
        row, eta = _log_row(vals, err)
        if _independent(rows + [row], etas + [eta]):
            found.append(u)
            rows.append(row)
            etas.append(eta)

    for u in seed_candidates:
        if len(found) >= rank:
            break
        vals, err = _values(frame, [u])
        consider(tuple(u), vals[0], err[0])
    if len(found) < rank:
        red, gram = _reduced_basis(K, [tuple(int(i == j) for j in range(n)) for i in range(n)])
        red = np.array(red, dtype=np.int64)
        reach = int(np.abs(red).sum(axis=0).max())  # |(c red)_j| <= max|c| * reach
        rounds = itertools.islice(_rounds(gram, _start_bound(K, K.disc), 120000), UNIT_SEARCH_ROUNDS)
        for batch in rounds:
            if not batch:
                continue
            coeffs = np.array(batch, dtype=np.int64)
            if int(np.abs(coeffs).max()) * reach >= 2**62:
                raise FieldError("unit search coefficients past the int64 bound")
            elements = coeffs @ red
            vals, err = _values(frame, elements)
            low = np.prod(np.maximum(np.abs(vals) - err, 0.0), axis=1)
            for i in np.flatnonzero(low < NORM_SCREEN).tolist():
                consider(tuple(elements[i].tolist()), vals[i], err[i])
                if len(found) >= rank:
                    break
            if len(found) >= rank:
                break
    if len(found) < rank:
        raise FieldError(
            f"found {len(found)} of {rank} independent units within search bounds; "
            "supply units explicitly in the conductor config"
        )
    reg = abs(float(np.linalg.det(np.array(rows)[:, :rank])))
    # each swap takes a cube root, so the unit lattice index drops by 3
    units, swaps = saturate_units_at_3(K, found, frame)
    return UnitData(fundamental_units=units, regulator_estimate=reg / 3**swaps, rank=rank)


def exact_cube_root(K: NumberField, u, frame: EmbeddingFrame, values):
    """y with y^3 = u in the maximal order, or None.  Exactly verified.

    `frame` is cube_root_frame(K), and `values` is (vals, err): u's
    values at K's real roots and bounds on their errors, from u's
    coordinates (_values) or, for a product of units, from the units'
    values (_product_values), as saturate_units_at_3 takes them, since a
    product's coordinates cancel far below its smallest value.  If y
    exists, its values are the real cube roots of u's, so its coordinates
    are G^-1 B^T cbrt(B u) (B^-1 = G^-1 B^T, G the trace form).  Their
    float values are rounded to integers, and the candidate is returned
    only if its cube is u exactly.  The rounding is guarded by an explicit
    bound: each value farther from 0 than twice its error, the mean value
    theorem for the cube root, and the errors of B^T and of the float
    sums, divided through G's exact adjugate and determinant.  Only when
    that bound is below ROUND_MARGIN (half of the 1/2 that rounding
    allows) does a failed cube prove that u is not a cube, and None is
    returned; otherwise FieldError.
    """
    import numpy as np

    vals, err = values
    a = np.abs(vals)
    if not np.all(err < a / 2):
        raise FieldError("cube root locator: element values past the float bound")
    gamma = (len(vals) + 2) * FLOAT_EPS
    t = np.cbrt(vals)  # the real cube root, sign kept
    t_err = err / (3 * (a - err) ** (2 / 3)) + 2 * FLOAT_EPS * np.abs(t)
    abs_B = np.abs(frame.basis)
    s = frame.basis.T @ t
    s_err = abs_B.T @ t_err + frame.basis_err.T @ (np.abs(t) + t_err) + gamma * (abs_B.T @ np.abs(t))
    abs_adj = np.abs(frame.gram_adj)
    coords = frame.gram_adj @ s / frame.gram_det
    c_err = (abs_adj @ s_err + gamma * (abs_adj @ np.abs(s))) / abs(frame.gram_det)
    c_err += FLOAT_EPS * np.abs(coords)
    if not np.all(c_err < ROUND_MARGIN):
        raise FieldError("cube root locator: coordinates past the float bound")
    cand = tuple(int(x) for x in np.rint(coords).tolist())
    if K.el_pow(cand, 3) == tuple(u):
        return cand
    return None


def _product_values(vals, err, exps):
    """(values, error bounds) of prod_i u_i^exps[i] at K's real roots.

    Row i of vals and err holds u_i's (_values).  Relative errors
    multiply: a factor's is at most err / (|v| - err), and every float
    power and product adds at most two roundings.
    """
    import numpy as np

    a = np.abs(vals)
    if not np.all(err < a / 2):
        raise FieldError("unit values past the float bound")
    e = np.array(exps)[:, None]
    prod = np.prod(vals**e, axis=0)
    rel = np.prod((1 + err / (a - err)) ** e, axis=0) * (1 + 2 * FLOAT_EPS) ** (2 * int(e.sum()) + 2) - 1
    return prod, np.abs(prod) * rel


def saturate_units_at_3(K: NumberField, units, frame: EmbeddingFrame):
    """3-saturate the unit lattice: while some product of the generators
    (exponents in {0,1,2}, leading exponent 1) is a cube in the order,
    swap the cube root in.  Returns (units, number of swaps).

    `frame` is cube_root_frame(K), formed once by the caller and shared
    by every exact_cube_root, which takes each product's values from the
    generators' (_product_values).
    """
    units = [tuple(u) for u in units]
    swaps = 0
    for _ in range(24):
        vals, err = _values(frame, units)
        hit = None
        for exps in _leading_one_vectors(len(units)):
            w = K.one()
            for u, e in zip(units, exps):
                for _ in range(e):
                    w = K.el_mul(w, u)
            y = exact_cube_root(K, w, frame, _product_values(vals, err, exps))
            if y is not None:
                hit = (exps, y)
                break
        if hit is None:
            return tuple(units), swaps
        exps, y = hit
        j = next(i for i, e in enumerate(exps) if e)  # leading exponent is 1
        units[j] = y
        swaps += 1
    raise FieldError("unit saturation at 3 did not terminate")


def _leading_one_vectors(r):
    """Exponent vectors in {0,1,2}^r with first nonzero entry 1."""
    for lead in range(r):
        tail = r - lead - 1
        for rest in range(3**tail):
            v = [0] * lead + [1]
            x = rest
            for _ in range(tail):
                v.append(x % 3)
                x //= 3
            yield tuple(v)
