"""3-elementary ray class quotients Cl_m(F) tensor F_3 with an Artin map.

The group is presented by generators and relations and then reduced mod
3.  Generators: one column per F_3-dimension of the local unit groups
(O/p^a)^* at the modulus primes, plus one column per factor-base prime
coprime to the modulus.  Relations: images of the (3-saturated) global
units, and one row per stored principal ideal (alpha) from the class
group run, pairing the local discrete log of alpha against its
valuation vector.  This is the standard ray class exact sequence

    O^* -> (O/m)^* -> Cl_m -> Cl -> 1

tensored with F_3; tensoring a presentation is exact, and the mod-3
discrete logs used here are the true generator exponents mod 3 (the
cubic character recovers dlog mod 3 even when 9 divides q-1).  Every
modulus here is 3_1^2 times tame primes, and only the tame columns of
the relation rows depend on the tame primes (Cohen, GTM 193, 4.3: Cl_m
from Cl, the units and (O/m)^*).  So the rest of the rows, their
echelon form mod 3 and the transform to it are built once
(RayPresentation, ray_presentation), and each quotient adds one column
of characters per tame prime (ray_class_3_quotient).

Local blocks:
  * tame prime p (not over 3, norm q = 1 mod 3): one dimension; the log
    is the cubic character x -> x^((q-1)/3) written to the base fixed by
    the smallest generator of the 3-part.
  * prime over 3 with exponent 2: (O/p^2)^* tensor F_3 is the 1-unit
    layer p/p^2, of F_3-dimension f; the log of x is the coordinate
    vector of x^(norm-1) - 1.  Raising to norm-1 kills the tame part and
    acts invertibly (norm-1 = 2 mod 3) on the 1-units, and is a
    homomorphism into p/p^2 exactly, not just up to higher terms.  The
    log depends only on x mod p^2, so WildBlock tables it for every unit
    class: (O/p^2)^* is the Teichmueller representatives w times the
    1-units 1 + z, and the class of w(1 + z) has log the coordinates of
    -z, because w^(norm-1) = 1 and (1 + z)^(norm-1) = 1 - z mod p^2.
  * exponent 3 keeps the 9-torsion honest: see the integer-Smith path in
    modulus_stability_check, which presents (O/p^3)^* on order-9
    generators with explicit cube relations and never reduces mod 3
    before the Smith form.

Exponent 2 at the wild primes suffices because cubing maps depth-n
1-units onto depth-(n+1) 1-units for a prime unramified over 3;
modulus_stability_check verifies that equality of dimensions
empirically through the two independent code paths above.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from . import arith, linalg
from .classgroup import ClassGroupData, UnitData, smooth_split
from .fields import (
    FieldError,
    NumberField,
    PrimeIdeal,
    QuotientRing,
    element_in_prime,
    ideal_mul,
    ideal_pow,
)

__all__ = [
    "Modulus",
    "TameBlock",
    "WildBlock",
    "RayClass3Quotient",
    "RayPresentation",
    "ray_presentation",
    "ray_class_3_quotient",
    "artin_vector",
    "modulus_stability_check",
]


@dataclass(frozen=True)
class Modulus:
    """Finite modulus: (prime, exponent) pairs, no infinite places.

    Real places are deliberately absent: they contribute only 2-torsion
    to ray class groups, which dies under tensoring with F_3.
    """

    field: NumberField
    finite: tuple

    def __post_init__(self):
        for P, a in self.finite:
            if P.p != 3 and a != 1:
                raise ValueError("tame primes carry exponent 1")
            if a < 1:
                raise ValueError("exponents are at least 1")

    def contains_prime(self, P: PrimeIdeal) -> bool:
        return any(Q.key() == P.key() for Q, _ in self.finite)


class TameBlock:
    """The F_3 line of (O/P)^* at the degree-1 prime P = (q, theta - r).

    r is P.theta_root: None unless P has degree 1 and lies off the index.
    The residue map O -> O/P = F_q sends theta to r.  `character` is the
    raw cube character x -> x^((q-1)/3) of an element's residue, a cube
    root of unity (0 for an element of P); `philog` writes it to the base omega,
    the character of the smallest residue outside the cubes, which is
    searched for only when philog first needs it.
    """

    def __init__(self, K: NumberField, q: int, r):
        self.K = K
        self.q = q
        self.dim = 1 if (q - 1) % 3 == 0 else 0
        if self.dim == 0:
            return
        if r is None:
            raise FieldError("tame block needs a degree-1 prime away from the index")
        self.exp = (q - 1) // 3
        den_inv = pow(K.basis_den % q, -1, q)
        powers = [1]
        for _ in range(K.degree - 1):
            powers.append(powers[-1] * r % q)
        self.basis_vals = tuple(
            sum(map(operator.mul, row, powers)) * den_inv % q for row in K.basis_num
        )

    @functools.cached_property
    def omega(self) -> int:
        # smallest residue generating the 3-part fixes the character base
        return next(w for w in (pow(g, self.exp, self.q) for g in range(2, self.q)) if w != 1)

    def residue(self, el) -> int:
        return sum(map(operator.mul, el, self.basis_vals)) % self.q

    def character(self, el) -> int:
        return pow(self.residue(el), self.exp, self.q)

    def logs(self, els):
        """philog's one entry for each element of els, as a list."""
        q, exp, vals = self.q, self.exp, self.basis_vals
        w = self.omega
        base = {1: 0, w: 1, w * w % q: 2}
        out = [base.get(pow(sum(map(operator.mul, el, vals)) % q, exp, q)) for el in els]
        if None in out:
            raise FieldError("element is not coprime to the tame prime")
        return out

    def philog(self, el):
        return tuple(self.logs((el,))) if self.dim else ()


class _LatticeQuotientF3:
    """F_3 coordinates on A/B for lattices B < A with [A:B] = 3^f."""

    def __init__(self, A_rows, B_rows, ncols):
        self.A = [tuple(r) for r in A_rows]
        rel = []
        for row in B_rows:
            s = linalg.hnf_solve(self.A, row)
            if s is None:
                raise FieldError("inner lattice not contained in outer")
            rel.append(s)
        divisors, V = linalg.smith_normal_form(rel, len(rel), ncols)
        if any(d not in (1, 3) for d in divisors):
            raise FieldError(f"lattice quotient is not 3-elementary: divisors {divisors}")
        self.keep = [i for i, d in enumerate(divisors) if d == 3]
        self.V = V
        self.dim = len(self.keep)

    def coords(self, z):
        s = linalg.hnf_solve(self.A, z)
        if s is None:
            raise FieldError("element outside the outer lattice")
        n = len(s)
        return tuple(sum(s[k] * self.V[k][i] for k in range(n)) % 3 for i in self.keep)

    def preimages(self):
        """Elements of A whose coordinate vectors form the standard basis."""
        n = len(self.A)
        rows = [self.coords(self.A[i]) for i in range(n)]
        out = []
        for k in range(self.dim):
            target = tuple(int(i == k) for i in range(self.dim))
            sol = _solve_f3(rows, target)
            if sol is None:
                raise FieldError("lattice quotient basis extraction failed")
            el = tuple(
                sum(sol[i] * self.A[i][j] for i in range(n)) for j in range(len(self.A[0]))
            )
            if self.coords(el) != target:
                raise FieldError("lattice quotient preimage has the wrong coordinates")
            out.append(el)
        return out


def _solve_f3(rows, target):
    """x with sum x_i rows[i] = target over F_3, or None."""
    m = len(rows)
    if m == 0:
        return None
    eqs = [[rows[i][j] for i in range(m)] + [(-target[j]) % 3] for j in range(len(target))]
    for v in linalg.kernel_mod_p(eqs, m + 1, 3):
        if v[m]:
            inv = pow(v[m], -1, 3)
            return [x * inv % 3 for x in v[:m]]
    return None


class WildBlock:
    """(O/p^2)^* tensor F_3 for a prime over 3, as one table of residues.

    The log of x is the layer coordinate vector of x^(N-1) - 1, N = N(p).
    It depends only on x mod p^2, so every unit class mod p^2 is tabled
    here, and philog is one reduction and one lookup.  `table` is a list
    indexed by the mixed-radix code of the canonical QuotientRing
    representative (code), whose digits are its coordinates, each below
    its HNF pivot, with None at the non-units; the census lanes read the
    same table as the int64 array `table_array`, built with it, whose
    rows are -1 at the non-units (census._wild_logs_lanes).  It is built from
    the structure (O/p^2)^* = mu_(N-1) x (1 + p)/(1 + p^2) (Cohen, GTM 193, ch. 4),
    not by powering: the Teichmueller representatives are w = r^N for the
    N - 1 nonzero residues r mod p (3p lies in p^2, so w depends only on
    r mod p, and w^(N-1) = 1), and the 1-units are 1 + z with
    z = sum c_i z_i over the layer preimages z_i.  Since 3z and z^2 lie
    in p^2, (1 + z)^(N-1) = 1 + (N-1)z = 1 - z mod p^2, so the class of
    w(1 + z) has log -c mod 3, exactly.  The N(N-1) products are checked
    to be distinct, so the table holds every unit class once.
    """

    def __init__(self, K: NumberField, P: PrimeIdeal):
        if P.p != 3:
            raise FieldError("wild block needs a prime over 3")
        self.P = P
        p2 = ideal_pow(K, list(P.hnf), 2)
        self.ring = ring = QuotientRing(K, p2)
        layer = _LatticeQuotientF3(list(P.hnf), p2, K.degree)
        self.dim = layer.dim
        if self.dim != P.f:
            raise FieldError(f"1-unit layer has F_3-dimension {self.dim}, expected {P.f}")
        # 3O lies in p, so the vectors with coordinates 0, 1, 2 meet every residue
        N = P.norm
        residues = QuotientRing(K, P.hnf)
        reps = {residues.reduce(x) for x in itertools.product(range(3), repeat=K.degree)}
        if len(reps) != N:
            raise FieldError(f"{len(reps)} residues mod the wild prime, expected {N}")
        zs = layer.preimages()
        # the code's place values: the products of the pivots before each coordinate
        pivots = [row[i] for i, row in enumerate(ring.hnf)]
        self.radix = tuple(itertools.accumulate(pivots[:-1], operator.mul, initial=1))
        self.table = [None] * ring.size
        for r in reps:
            if not any(r):
                continue
            # w(1 + z) = w + sum c_i w z_i, one layer coordinate at a time
            w = ring.pow(r, N)
            classes = [(w, ())]
            for z in zs:
                wz = K.el_mul(w, z)
                classes = [
                    (tuple(a + k * b for a, b in zip(x, wz)), log + (-k % 3,))
                    for x, log in classes
                    for k in range(3)
                ]
            for x, log in classes:
                self.table[self.code(x)] = log
        units = sum(log is not None for log in self.table)
        if units != N * (N - 1):
            raise FieldError(
                f"{units} unit classes mod the wild prime squared, expected {N * (N - 1)}"
            )
        # Imported here, as in linalg.lll_float_batch, so that the package
        # goes on importing numpy last.
        import numpy as np

        self.table_array = np.array(
            [log or (-1,) * self.dim for log in self.table], dtype=np.int64
        )

    def code(self, el) -> int:
        """The mixed-radix code of el's canonical representative mod p^2, below N(p)^2."""
        return sum(map(operator.mul, self.ring.reduce(el), self.radix))

    def philog(self, el):
        log = self.table[self.code(el)]
        if log is None:
            raise FieldError("element is not coprime to the wild prime")
        return log


@dataclass
class RayClass3Quotient:
    modulus: Modulus
    dim: int
    blocks: tuple
    local_dim: int
    fb_positions: tuple  # indices of the factor-base primes coprime to the modulus
    rel_rref: tuple
    rel_pivots: tuple
    free_cols: tuple
    cg: ClassGroupData

    def reduce_to_quotient(self, vec):
        res = linalg.residual_mod_p([list(r) for r in self.rel_rref], list(self.rel_pivots), list(vec), 3)
        return tuple(res[c] for c in self.free_cols)


@dataclass(frozen=True, eq=False)
class RayPresentation:
    """The part of a presentation of Cl_m (x) F_3 that its tame primes leave alone.

    For every modulus m = P^2 m_0 with P the wild block's prime and m_0
    tame, the relation rows of ray_class_3_quotient are one row per kept
    generator: the 3-saturated units of u, then the relation generators
    of cg that do not lie in P, in cg's order.  A row holds the wild log,
    then one character per tame block of m_0, then (-vec_j) % 3 for the
    factor-base primes j at fb_positions (units: zeros there).  Only the
    tame characters depend on m_0, so the rest is built once:
    `rows` without the tame columns (wild log | factor-base part), its
    reduced row echelon form `rref` with `pivots`, and an invertible
    `transform` T over F_3 with T rows = rref followed by zero rows, so
    that T's first len(rref) rows give the echelon rows and the others
    the left kernel of `rows`.  `vals` holds each generator's valuation
    vector over cg.factor_base (zeros for a unit), read only when a tame
    modulus prime lies in the factor base (see ray_class_3_quotient).
    """

    cg: ClassGroupData
    u: UnitData
    wild: WildBlock
    fb_positions: tuple
    gens: tuple
    vals: tuple
    rows: tuple
    rref: tuple
    pivots: tuple
    transform: object  # T as an int64 array

    def transform_times(self, t):
        """T t mod 3 for a column t with one entry per generator, as a list.

        The entries of T and t lie in 0..2, so every int64 sum is exact.
        """
        import numpy as np

        return (self.transform @ np.asarray(t, dtype=np.int64) % 3).tolist()


def _coprime_to_modulus(m: Modulus, el) -> bool:
    return all(not element_in_prime(P, el) for P, _ in m.finite)


def _build_blocks(K: NumberField, finite, wild: WildBlock):
    wild_part = [(P, a) for P, a in finite if P.p == 3 and a >= 2]
    if any(a != 2 for _, a in wild_part):
        raise FieldError("wild exponents above 2 are handled by the stability path only")
    if [P.key() for P, _ in wild_part] != [wild.P.key()]:
        raise FieldError("wild block is not at the modulus's prime over 3")
    blocks = (
        wild if P.p == 3 and a >= 2 else TameBlock(K, P.norm, P.theta_root) for P, a in finite
    )
    return tuple(b for b in blocks if b.dim > 0)


def _check_fb_span(cg: ClassGroupData, fb_positions) -> None:
    """FieldError unless the factor-base primes at fb_positions span Cl/3Cl."""
    if cg.h % 3 == 0:
        covered, _ = linalg.rref_mod_p(
            [[x % 3 for x in cg.coord_rows[j]] for j in fb_positions], len(cg.divisors), 3
        )
        if len(covered) < sum(1 for d in cg.divisors if d % 3 == 0):
            raise FieldError("factor-base primes coprime to the modulus do not span Cl/3Cl")


def _presented(cg, u, wild, fb_positions, gens, vals, rows) -> RayPresentation:
    """The presentation of these rows: their RREF and the transform T to it.

    T's echelon rows come from the Gauss-Jordan form of rows | I, its
    kernel rows from kernel_mod_p of the transposed rows; the kernel
    rows span the left kernel and no combination of the echelon rows
    lies in it, so T is invertible.
    """
    import numpy as np

    ncols = wild.dim + len(fb_positions)
    n = len(rows)
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    red, pivots = linalg.rref_mod_p(augmented, ncols, 3)
    kernel = linalg.kernel_mod_p(list(zip(*rows)), n, 3)
    transform = [r[ncols:] for r in red] + kernel
    return RayPresentation(
        cg=cg,
        u=u,
        wild=wild,
        fb_positions=tuple(fb_positions),
        gens=tuple(gens),
        vals=tuple(vals),
        rows=tuple(tuple(r) for r in rows),
        rref=tuple(r[:ncols] for r in red),
        pivots=tuple(pivots),
        transform=np.array(transform, dtype=np.int64).reshape(n, n),
    )


def ray_presentation(cg: ClassGroupData, u: UnitData, wild: WildBlock) -> RayPresentation:
    """The presentation shared by every modulus (wild.P)^2 m_0 with m_0 tame.

    u must hold 3-saturated units, as unit_group returns them; a unit in
    wild.P is a FieldError.  A relation generator lies in wild.P exactly
    when wild.P is in the factor base with a positive entry in its
    valuation vector ((gen) = prod fb^vec exactly); such a relation is
    not kept, and wild.P's factor-base column goes.  When 3 divides h,
    the factor-base primes left must span Cl/3Cl, else FieldError.  Each
    kept generator's wild log is taken here, once (WildBlock.philog).
    """
    P = wild.P
    inside = [Q.key() == P.key() for Q in cg.factor_base]
    fb_positions = tuple(j for j, hit in enumerate(inside) if not hit)
    _check_fb_span(cg, fb_positions)
    zeros = (0,) * len(fb_positions)
    gens, vals, rows = [], [], []
    for unit in u.fundamental_units:
        if element_in_prime(P, unit):
            raise FieldError("unit not coprime to the modulus")
        gens.append(unit)
        vals.append((0,) * len(inside))
        rows.append(wild.philog(unit) + zeros)
    for gen, vec in cg.relations:
        if any(e > 0 and hit for e, hit in zip(vec, inside)):
            continue
        gens.append(gen)
        vals.append(tuple(vec))
        rows.append(wild.philog(gen) + tuple((-vec[j]) % 3 for j in fb_positions))
    return _presented(cg, u, wild, fb_positions, gens, vals, rows)


def _without_base_primes(pres: RayPresentation, drop) -> RayPresentation:
    """pres less the factor-base primes `drop` (indices into cg.factor_base) that the modulus holds.

    A relation generator with a positive valuation at one of them lies in
    a modulus prime, so its row goes, and so do their columns.  When a
    relation of cg has a positive valuation at a tame one among them, the
    kept relations must still present Cl/3Cl on the primes prime to the
    modulus, else the quotient's dimension comes out too large:
    FieldError.  Skips at the prime over 3 alone show at load as a fixed
    dimension above 1.
    """
    cg, dw = pres.cg, pres.wild.dim
    cols = [c for c, j in enumerate(pres.fb_positions) if j not in drop]
    fb_positions = [pres.fb_positions[c] for c in cols]
    _check_fb_span(cg, fb_positions)
    kept = [i for i, vec in enumerate(pres.vals) if not any(vec[j] > 0 for j in drop)]
    rows = [pres.rows[i][:dw] + tuple(pres.rows[i][dw + c] for c in cols) for i in kept]
    tame = [j for j in drop if cg.factor_base[j].p != 3]
    if any(vec[j] > 0 for _, vec in cg.relations for j in tame):
        units = len(pres.u.fundamental_units)
        fb_rows = [row[dw:] for i, row in zip(kept, rows) if i >= units]
        _, fb_pivots = linalg.rref_mod_p(fb_rows, len(fb_positions), 3)
        cl3 = sum(1 for d in cg.divisors if d % 3 == 0)
        if len(fb_pivots) < len(fb_positions) - cl3:
            raise FieldError("too few relations prime to the modulus to present Cl/3Cl")
    gens = [pres.gens[i] for i in kept]
    vals = [pres.vals[i] for i in kept]
    return _presented(cg, pres.u, pres.wild, fb_positions, gens, vals, rows)


def ray_class_3_quotient(m: Modulus, pres: RayPresentation) -> RayClass3Quotient:
    """Cl_m tensor F_3 with Artin data: the presentation plus one tame column per tame prime.

    m is (pres.wild.P)^2 times tame primes.  The relation rows are the
    presentation's with the tame characters of its generators inserted
    (see RayPresentation), so their row space is that of T times them:
    the echelon rows, each with T t in its tame entries (t the tame
    column), and the kernel rows, which are zero but for their T t.  The
    RREF of that small matrix (the echelon rows and the RREF of the
    kernel rows' tame entries) is the RREF of the relation rows, which is
    unique, so the quotient is the one eliminating every row would give.
    A tame modulus prime in the factor base drops its relations and its
    column first (_without_base_primes).  A unit in a tame prime, a
    relation generator in one outside the factor base, and a dimension
    above the exact sequence's bound are FieldErrors.
    """
    K = m.field
    cg, wild = pres.cg, pres.wild
    blocks = _build_blocks(K, m.finite, wild)
    others = [P for P, _ in m.finite if P.key() != wild.P.key()]
    if any(element_in_prime(P, w) for P in others for w in pres.u.fundamental_units):
        raise FieldError("unit not coprime to the modulus")
    keys = {P.key() for P in others}
    drop = [j for j in pres.fb_positions if cg.factor_base[j].key() in keys]
    if drop:
        pres = _without_base_primes(pres, drop)
    D = sum(b.dim for b in blocks)
    dw = wild.dim
    # T t for the column t of the generators' characters at each tame block
    tame = [b for b in blocks if b is not wild]
    tt = [pres.transform_times(b.logs(pres.gens)) for b in tame]
    rank = len(pres.rref)
    kernel_tame = [row for row in zip(*(col[rank:] for col in tt)) if any(row)]

    def local(wild_part, tame_part):
        entries = iter(tame_part)
        return [x for b in blocks for x in (wild_part if b is wild else (next(entries),))]

    echelon = [local(e[:dw], [col[i] for col in tt]) + list(e[dw:]) for i, e in enumerate(pres.rref)]
    zeros = [0] * len(pres.fb_positions)
    kernel = [local((0,) * dw, row) + zeros for row in linalg.rref_mod_p(kernel_tame, len(tt), 3)[0]]
    # A tame column takes as pivot the first row that meets it, and the rows
    # after it fill in at that row's old pivot, and so on down.  So the
    # echelon rows whose pivots follow the first tame column go in last
    # first (the kernel rows before them): the pivot is then the last such
    # row, which meets no other pivot column.  An RREF is the same in any
    # row order.
    head = sum(1 for p in pres.pivots if p < dw) if blocks[0] is wild else 0
    small = echelon[:head] + kernel + echelon[head:][::-1]
    ncols = D + len(pres.fb_positions)
    rref, pivots = linalg.rref_mod_p(small, ncols, 3)
    free_cols = tuple(c for c in range(ncols) if c not in pivots)
    dim = len(free_cols)
    if dim > D + sum(1 for d in cg.divisors if d % 3 == 0):
        raise FieldError("exact-sequence dimension bound violated")
    return RayClass3Quotient(
        modulus=m,
        dim=dim,
        blocks=blocks,
        local_dim=D,
        fb_positions=pres.fb_positions,
        rel_rref=tuple(rref),
        rel_pivots=tuple(pivots),
        free_cols=free_cols,
        cg=cg,
    )


def _local_row(blocks, el, D):
    row = []
    for b in blocks:
        row.extend(b.philog(el))
    if len(row) != D:
        raise FieldError(f"local row has length {len(row)}, expected {D}")
    return row


def artin_vector(q: RayClass3Quotient, A, *, norm=None):
    """Image of the class of the ideal A in the F_3 quotient.

    A, a square basis of an integral ideal, must be coprime to the
    modulus, else FieldError.  For a modulus prime P with N(P) prime to
    N(A) = |det A| this holds without a test, because N(P) lies in P and
    N(A) in A, so P + A contains 1; every other P is tested by whether
    some row of A lies outside P (element_in_prime): P is maximal, so
    A + P = O exactly then.  The class is smoothed by
    classgroup.smooth_split on the class group's own factor-base
    context: a short alpha in A, coprime to the modulus, whose cofactor
    (alpha)/A factors over the factor base; the vector pairs the local
    log of alpha against the cofactor valuations at the primes coprime
    to the modulus.  A caller that gives `norm` states that A is an
    already reduced basis of an ideal of that norm, as for smooth_split,
    which then searches it as it is; no determinant is taken
    (census.classify_prime, with N(v1) = v^3).
    """
    m = q.modulus
    nA = abs(arith.det_bareiss(A)) if norm is None else norm
    for P, _ in m.finite:
        if math.gcd(P.norm, nA) != 1 and all(element_in_prime(P, row) for row in A):
            raise FieldError("ideal is not coprime to the modulus")
    if q.dim == 0:
        return ()
    split = smooth_split(q.cg, A, usable=lambda el, _cofactor_norm: _coprime_to_modulus(m, el), norm=norm)
    if split is None:
        raise FieldError("no smooth coprime representative found for the Artin input")
    alpha, cof_vec = split
    vec = _local_row(q.blocks, alpha, q.local_dim)
    vec.extend((-cof_vec[j]) % 3 for j in q.fb_positions)
    return q.reduce_to_quotient(vec)


# ---------------------------------------------------------------------------
# Stability of the wild exponent: independent integer-Smith computation.


class _WildCubicPresentation:
    """(O/p^3)^* presented on order-9 generators with integer relations.

    Generators g_1..g_f lift a basis of p/p^2, h_1..h_f a basis of
    p^2/p^3.  Verified facts: h_j^3 = 1, and g_i^3 lies in the h-span
    with exponent matrix lam.  Discrete logs stay integral; nothing is
    reduced mod 3 before the caller's Smith form.  The 1-units mod p^3
    have exponent 9, so g_i^-a = g_i^(8a); `inverse[i][a]` holds it for
    a in {1, 2}, the values a layer-1 coordinate takes.
    """

    def __init__(self, K: NumberField, P: PrimeIdeal):
        if P.p != 3:
            raise FieldError("cubic presentation needs a prime over 3")
        self.K = K
        self.P = P
        p2 = ideal_pow(K, list(P.hnf), 2)
        p3 = ideal_mul(K, p2, list(P.hnf))
        self.ring = QuotientRing(K, p3)
        self.kill = P.norm - 1
        self.layer1 = _LatticeQuotientF3(list(P.hnf), p2, K.degree)
        self.layer2 = _LatticeQuotientF3(p2, p3, K.degree)
        self.f = self.layer1.dim
        one = K.one()
        self.g = [tuple(a + b for a, b in zip(one, z)) for z in self.layer1.preimages()]
        self.h = [tuple(a + b for a, b in zip(one, z)) for z in self.layer2.preimages()]
        self.lam = []
        for gi in self.g:
            cube = self.ring.pow(gi, 3)
            z = tuple(a - b for a, b in zip(cube, one))
            if self.layer1.coords(z) != (0,) * self.f:
                raise FieldError("cube escaped the second layer")
            self.lam.append(self.layer2.coords(z))
        for hj in self.h:
            if self.ring.pow(hj, 3) != self.ring.one():
                raise FieldError("h generator order is not 3")
        self.inverse = [(None, self.ring.pow(gi, 8), self.ring.pow(gi, 16)) for gi in self.g]

    def dlog(self, el):
        """Integer exponents (a | b) with el^kill = prod g^a h^b in U_1/U_3."""
        y = self.ring.pow(el, self.kill)
        one = self.K.one()
        a = self.layer1.coords(tuple(p - q for p, q in zip(y, one)))
        # y * prod g_i^-a_i, one table entry per nonzero coordinate
        for inv, ai in zip(self.inverse, a):
            if ai:
                y = self.ring.mul(y, inv[ai])
        z = tuple(p - q for p, q in zip(y, one))
        if self.layer1.coords(z) != (0,) * self.f:
            raise FieldError("first-layer residue survived the g-part of the discrete log")
        b = self.layer2.coords(z)
        return list(a) + list(b)


def _integer_quotient_3rank(K, P: PrimeIdeal, cg, units) -> int:
    """dim over F_3 of Cl_{P^3} tensor F_3 via an all-integer Smith form.

    Independent of the F_3 path: the local group keeps its order-9
    generators (wild exponent 3); the Smith form is taken over Z and the
    3-divisible diagonal entries counted.
    """
    w = _WildCubicPresentation(K, P)
    f = w.f
    fb_positions = [j for j, Q in enumerate(cg.factor_base) if Q.key() != P.key()]
    ncols = 2 * f + len(fb_positions)

    # internal relations of the local group: g_i^3 = prod h^lam_i, h_j^3 = 1
    rows = []
    for i in range(f):
        row = [0] * ncols
        row[i] = 3
        for j in range(f):
            row[f + j] = -w.lam[i][j]
        rows.append(row)
    for j in range(f):
        row = [0] * ncols
        row[f + j] = 3
        rows.append(row)

    for unit in units:
        if element_in_prime(P, unit):
            raise FieldError("unit not coprime to the modulus")
        rows.append(w.dlog(unit) + [0] * len(fb_positions))
    for gen, vec in cg.relations:
        if element_in_prime(P, gen):
            continue
        rows.append(w.dlog(gen) + [-vec[j] for j in fb_positions])

    divisors, _ = linalg.smith_normal_form(rows, max(len(rows), ncols), ncols)
    divisors = list(divisors[:ncols])
    if len(divisors) != ncols or any(d == 0 for d in divisors):
        raise FieldError("relations do not close the ray group")
    return sum(1 for d in divisors if d % 3 == 0)


def modulus_stability_check(pres: RayPresentation) -> bool:
    """True iff the quotient dimension is the same at wild exponents 2 and 3.

    The modulus is P^a for P = pres.wild.P.  Exponent 2 is the F_3
    presentation itself (ray_class_3_quotient with no tame prime);
    exponent 3 runs the independent integer-Smith path on the same class
    group and units, so agreement genuinely checks that depth-2 1-units
    already carry the whole 3-elementary quotient.
    """
    K, P = pres.cg.field, pres.wild.P
    q = ray_class_3_quotient(Modulus(K, ((P, 2),)), pres)
    return q.dim == _integer_quotient_3rank(K, P, pres.cg, pres.u.fundamental_units)
