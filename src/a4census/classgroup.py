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
and yields only the coefficient vectors above the previous bound.  The
relation harvest keeps one stream per source lattice, unit_group reads
one over the maximal order, and ideal_short_elements reads one after
its coefficient boxes.

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
alpha lies in P is the same test, alpha*beta in pO.  The relation
harvest and smooth_split share this rule (_valuations_above).

Units come from their own search (unit_group: norm +-1 elements of the
maximal order in trace-form order, after any seeds from the conductor
config), not from class-group byproducts.  They are certified
multiplicatively independent through the logarithmic embedding but not
certified fundamental.  Downstream 3-quotients only need the unit
lattice to be 3-saturated, so unit_group returns its units already
saturated at 3 (exact_cube_root / saturate_units_at_3) with the
regulator adjusted.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass

import mpmath

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
)

__all__ = [
    "EMBEDDING_DIGITS",
    "ClassGroupData",
    "UnitData",
    "class_group",
    "two_rank",
    "ideal_class_coordinates",
    "ideal_short_elements",
    "smooth_split",
    "unit_group",
    "exact_cube_root",
    "saturate_units_at_3",
]


# Decimal digits of the real embeddings behind the unit logarithms and
# the cube roots of the 3-saturation.
EMBEDDING_DIGITS = 80


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
        self.bound = bound
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

    def relation_of(self, alpha):
        """Valuation vector of (alpha) over the factor base, or None.

        None means (alpha) is divisible by a prime outside the base.
        """
        K = self.K
        N = abs(K.el_norm(alpha))
        fac = self.factor(N) if N else None
        if fac is None:
            return None
        vec = [0] * len(self.fb)
        for p, ep in fac.items():
            got = 0
            above = self.above[p]
            for P, v in zip(above, _valuations_above(K, alpha, above, ep)):
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
    """LLL-reduced basis of the lattice `rows` and its trace-form Gram matrix.

    A basis that lll_gram leaves as it is (the census hands in float-
    reduced ones) is returned without recombining its rows, which saves
    about 5% of a census's classification time.
    """
    T, red_gram = linalg.lll_gram(linalg.gram_matrix(rows, K.trace_gram))
    if tuple(T) == _identity(len(rows)):
        return list(rows), red_gram
    return [_combine(t, rows) for t in T], red_gram


@functools.cache
def _identity(n: int):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


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


@functools.cache
def _coefficient_boxes(n: int):
    """Coefficient vectors of the boxes of radius 1, 2, 4 in Z^n, each once.

    Within a radius the new vectors come in (L1 norm, vector) order, one
    per +- pair.  Returns (vectors, the set of them and their negatives).
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


def ideal_short_elements(K: NumberField, A):
    """Nonzero elements of the ideal A, short ones first, each once up to sign.

    The basis is LLL-reduced once.  The stream starts with the small
    combinations of that basis (_coefficient_boxes: radius 1, 2, 4, in
    (L1, c) order), which is where a smooth cofactor is usually found.
    It goes on with Fincke-Pohst rounds in trace-form order: the bound
    starts at the Minkowski estimate from disc * N(A)^2 and doubles after
    each of 6 rounds, only values above the previous bound are new, and
    coefficient vectors already yielded from the boxes are skipped.  The
    stream ends early when a round would enumerate more than 20000 vectors.
    A may be any basis of the ideal: N(A) = |det A|.
    """
    red, red_gram = _reduced_basis(K, [tuple(r) for r in A])
    boxes, in_boxes = _coefficient_boxes(K.degree)
    for c in boxes:
        yield _combine(c, red)
    nA = abs(arith.det_bareiss(A))
    for batch in itertools.islice(_rounds(red_gram, _start_bound(K, K.disc * nA * nA)), 6):
        for c in batch:
            if c not in in_boxes:
                yield _combine(c, red)


# ---------------------------------------------------------------------------
# Class group.


def class_group(K: NumberField, max_rounds: int = 8) -> ClassGroupData:
    """Class group by relation collection and Smith reduction.

    Deterministic: enumeration is in trace-form order, ties broken by the
    canonical sign convention of the enumerator.  Accepts only after the
    Smith form survives a top-up of 50% fresh relations.
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

    def source(rows, covol_sq):
        # reduced on the first round asked for; a source never reached costs nothing
        red, gram = _reduced_basis(K, rows)
        for batch in _rounds(gram, _start_bound(K, covol_sq)):
            yield [_combine(c, red) for c in batch]

    ring_rows = [tuple(int(i == j) for j in range(K.degree)) for i in range(K.degree)]
    streams = [source(ring_rows, K.disc)]
    streams += [source(list(P.hnf), K.disc * P.norm * P.norm) for P in fb]

    def harvest(target_new: int) -> int:
        got = 0
        for _ in range(6):
            for stream in streams:
                if got >= target_new:
                    return got
                for el in next(stream, ()):  # an ended stream gives nothing
                    vec = ctx.relation_of(el)
                    if vec is not None and add_relation(el, vec):
                        got += 1
        return got

    harvest(max(2 * nfb, nfb + 6))

    snapshot = None
    for _ in range(max_rounds):
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


def smooth_split(cg: ClassGroupData, A, usable=None):
    """A short alpha in the ideal A whose cofactor (alpha)/A is smooth.

    Returns (alpha, vec) with (alpha) = A * prod_j cg.factor_base[j]^vec[j]
    for the first candidate of ideal_short_elements(A) that `usable`
    (when given) accepts and whose cofactor factors over the base; None
    when every candidate fails.  The cofactor norm N(alpha)/N(A) is taken
    once per candidate, and `usable(alpha, cofactor_norm)` receives it.
    A may be any basis of the ideal: N(A) = |det A|.
    """
    K = cg.field
    ctx = cg.fb_ctx
    nA = abs(arith.det_bareiss(A))
    val_A = {}
    for el in ideal_short_elements(K, A):
        total, rem = divmod(abs(K.el_norm(el)), nA)
        if rem:
            raise FieldError("lattice is not an ideal: an element norm is not a multiple of N(A)")
        if usable is not None and not usable(el, total):
            continue
        fac = ctx.factor(total)
        if fac is None:
            continue
        vec = _cofactor_vector(ctx, A, nA, el, fac, val_A)
        if vec is not None and math.prod(P.norm**v for P, v in zip(ctx.fb, vec)) == total:
            return el, vec
    return None


def _cofactor_vector(ctx: _FBContext, A, nA, el, fac, val_A):
    """Valuations of (el)/A over the factor base at the primes above `fac`.

    None when a prime outside the base divides the cofactor.  At a p
    prime to N(A), A is a unit at every prime above p and the valuations
    of el come from _valuations_above; elsewhere val_A memoizes v_P(A)
    across the candidates of one split.
    """
    K = ctx.K
    vec = [0] * len(ctx.fb)
    for p, ep in fac.items():
        above = ctx.above[p]
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
        for P, v in zip(above, vals):
            if v:
                idx = ctx.index.get(P.key())
                if idx is None:
                    return None
                vec[idx] = v
    return vec


def _ideal_valuation(K, A, P: PrimeIdeal) -> int:
    """v_P(A), the least v_P over the rows of A, which generate it."""
    return min(element_valuation(K, row, P) for row in A)


# ---------------------------------------------------------------------------
# Units.


def _gram_det(rows):
    if not rows:
        return mpmath.mpf(1)
    n = len(rows)
    g = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            g[i, j] = mpmath.fsum(a * b for a, b in zip(rows[i], rows[j]))
    return mpmath.det(g)


def unit_group(K: NumberField, seed_candidates=(), max_rounds: int = 7) -> UnitData:
    """Rank degree-1 independent units by bounded search.

    Candidates are the seeds (units from the conductor config), then the
    norm +-1 elements of the maximal order in trace-form order over at
    most max_rounds rounds of 120000 vectors each; a candidate joins the
    basis when it raises the rank of the log-embedding lattice, certified
    by the Gram determinant staying above the numerical noise floor.
    K's real embeddings are computed once, to EMBEDDING_DIGITS digits,
    and serve both the logarithms and the 3-saturation.
    """
    n = K.degree
    rank = n - 1
    found = []
    found_rows = []
    noise = mpmath.mpf(10) ** (-25)
    roots = K.embeddings(EMBEDDING_DIGITS)

    def consider(u):
        if abs(K.el_norm(u)) != 1:
            return
        if len(found) >= rank:
            return
        with mpmath.workdps(EMBEDDING_DIGITS):
            vals = K.embed_element(u, roots)
            row = [mpmath.log(abs(v)) for v in vals]
            if _gram_det(found_rows + [row]) > noise:
                found.append(tuple(u))
                found_rows.append(row)

    for u in seed_candidates:
        consider(u)
    if len(found) < rank:
        red, gram = _reduced_basis(K, [tuple(int(i == j) for j in range(n)) for i in range(n)])
        rounds = itertools.islice(_rounds(gram, _start_bound(K, K.disc), 120000), max_rounds)
        for c in itertools.chain.from_iterable(rounds):
            consider(_combine(c, red))
            if len(found) >= rank:
                break
    if len(found) < rank:
        raise FieldError(
            f"found {len(found)} of {rank} independent units within search bounds; "
            "supply units explicitly in the conductor config"
        )
    with mpmath.workdps(EMBEDDING_DIGITS):
        reg = abs(mpmath.det(mpmath.matrix([r[:rank] for r in found_rows])))
    # each swap takes a cube root, so the unit lattice index drops by 3
    units, swaps = saturate_units_at_3(K, found, roots)
    return UnitData(
        fundamental_units=units, regulator_estimate=float(reg) / 3**swaps, rank=rank
    )


def exact_cube_root(K: NumberField, u, roots):
    """y with y^3 = u in the maximal order, or None.  Exactly verified.

    `roots` are K's real embeddings, K.embeddings(EMBEDDING_DIGITS).
    """
    with mpmath.workdps(EMBEDDING_DIGITS):
        vals = K.embed_element(u, roots)
        # real cube root; mpmath.cbrt would pick the complex principal root
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


def saturate_units_at_3(K: NumberField, units, roots):
    """3-saturate the unit lattice: while some product of the generators
    (exponents in {0,1,2}, leading exponent 1) is a cube in the order,
    swap the cube root in.  Returns (units, number of swaps).

    `roots` are K's real embeddings, K.embeddings(EMBEDDING_DIGITS),
    computed once by the caller and shared by every exact_cube_root.
    """
    units = [tuple(u) for u in units]
    swaps = 0
    for _ in range(24):
        hit = None
        for exps in _leading_one_vectors(len(units)):
            w = K.one()
            for u, e in zip(units, exps):
                for _ in range(e):
                    w = K.el_mul(w, u)
            y = exact_cube_root(K, w, roots)
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
