"""Census of auxiliary primes against the quartic deformation datum.

For a conductor ell the datum is the pair (L, F): the cyclic cubic
field of conductor ell inside Q(zeta_ell), and a totally real quartic
A4-field F of discriminant ell^2.  An auxiliary prime v != ell counts
when v = 1 mod 3 and Frobenius at v acts on the roots of F with cycle
type (3,1), so v splits in F as v1 * v2 with residue degrees 3 and 1.
That is the set C^(3).  Since Gal(L/Q) = A4/V4 and the elements of
A4 outside V4 are the 3-cycles, a prime v not dividing 3 * ell * [O_F :
Z[theta]] lies in C^(3) exactly when v = 1 mod 3 and v is not a cube
mod ell (v^((ell-1)/3) != 1 mod ell); fast_classify uses this gate and
classify_prime factors v in F.  The members of C^(3) are then sorted by
two mod-3 ray class conditions on the degree-3 prime v1:

  * v lies in C^(tau-bar) when v1 becomes trivial in the fixed quotient
    Cl_{3_1^2 ell_2} (x) F_3, the Galois group of the cubic governing
    extension ramified at 3 and ell only;
  * v lies in C^(Lambda) when v1 stays nontrivial in the moving
    quotient Cl_{3_1^2 v_2} (x) F_3, a level-raising obstruction group
    recomputed for every v.

Here 3_1 is the residue-degree-3 prime of F over 3 and ell_2 the
ramified prime over ell (ell factors as ell_1 * ell_2^3).  Taking the
ramified prime is essential: the compositum of F with the cyclic cubic
resolvent field is a cubic extension of F ramified at ell_1 alone, and
any modulus admitting ell_1 would pick up that base change, in which
every degree-3 prime v1 splits for trivial reasons.  Two classifiers implement the same
contract: classify_prime builds the moving ray class group from
scratch (the reference path), fast_classify presents it on four local
coordinates and replaces factor-base columns by principality
certificates Q^m = (gamma), which is valid because the class number of
F is prime to 3.  The certificates are built and verified once, in
load_conductor.  Below the two routes there is one smooth split
(classgroup.smooth_split) over the class group's factor base.  Both
routes are deterministic; the census output is byte-identical for any
worker count because work is split into fixed segments and merged in
order.

The census (run_census) classifies a segment of up to CHUNK integers in
three stages (_count_segment): fast_classify's gate, root and closed-form
v1 for every prime; one batched float64 LLL (linalg.lll_float_batch)
over the v1 lattices of all the segment's C3 primes, whose unimodular
transforms are certified exactly; then fast_classify's split and
residuals from each reduced basis.  A lattice's transform does not
depend on the rest of its batch, so neither the verdicts nor the alpha
behind them depend on the worker count or on where segments are cut.
fast_classify itself, and every other caller of smooth_split, starts
from the HNF and reduces it exactly.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import arith, linalg
from .arith import factorize, primes_in_range
from .classgroup import (
    ClassGroupData,
    _combine,
    UnitData,
    class_group,
    ideal_class_coordinates,
    ideal_short_elements,
    smooth_split,
    two_rank,
    unit_group,
)
from .config import TABLE_CHECKPOINTS, Config, cache_read, cache_write, shipped_config
from .fields import (
    FieldError,
    NumberField,
    PrimeIdeal,
    _poly_at_theta,
    cubic_subfield,
    factor_rational_prime,
    field_from_record,
    field_to_record,
    ideal_norm,
    ideal_pow,
    new_number_field,
    quartic_field_search,
    quartic_galois_tag,
    shanks_param,
    splitting_pattern,
)
from .rayclass import (
    Modulus,
    RayClass3Quotient,
    TameBlock,
    WildBlock,
    artin_vector,
    modulus_stability_check,
    ray_class_3_quotient,
)

log = logging.getLogger(__name__)

CHUNK = 8000  # primes are counted in fixed blocks so merges are order-stable


class VerificationError(FieldError):
    """A conductor datum failed one of the load-time checks.

    `check` is a stable tag naming the failed verification, so callers
    can tell a wrong discriminant from, say, a failed stability test.
    """

    def __init__(self, check: str, message: str):
        self.check = check
        super().__init__(message)

    def __reduce__(self):
        # a pool worker's error reaches the parent pickled, tag included
        return type(self), (self.check, str(self))


@dataclass(frozen=True)
class PrimeClassification:
    """Census verdict for one auxiliary prime.

    The ray-class memberships are only defined on C^(3), so they stay
    None for primes outside it.  `skipped` marks primes the census must
    exclude (v dividing 3, ell, or the index of F); those are counted
    in neither numerators nor denominators.
    """

    v: int
    in_C3: bool
    in_CLambda: bool = None
    in_Ctaubar: bool = None
    skipped: bool = False


@dataclass(frozen=True)
class CensusRow:
    """Cumulative counts at a checkpoint n."""

    n: int
    c3: int
    c_lambda: int
    c_taubar: int
    c_both: int
    n_classified: int  # primes <= n actually classified (skips removed)

    def ratio_lambda(self):
        return Fraction(self.c_lambda, self.c3) if self.c3 else None

    def ratio_taubar(self):
        return Fraction(self.c_taubar, self.c3) if self.c3 else None

    def ratio_product(self):
        if not self.c3:
            return None
        return Fraction(self.c_lambda * self.c_taubar, self.c3 * self.c3)

    def ratio_both(self):
        return Fraction(self.c_both, self.c3) if self.c3 else None


@dataclass(frozen=True, eq=False)
class ConductorData:
    """Everything v-independent about one conductor, built and verified once.

    load_conductor is the only constructor; census pool workers receive
    this object (inherited under fork, pickled under spawn) instead of
    rebuilding it.  No field is filled later: classification only reads
    the datum, the certificates included.
    """

    ell: int
    L: NumberField
    F: NumberField
    cg_L: ClassGroupData
    cg: ClassGroupData
    u: UnitData  # 3-saturated units (unit_group)
    p31: PrimeIdeal  # over 3, residue degree 3
    p32: PrimeIdeal  # over 3, residue degree 1
    l1: PrimeIdeal  # over ell, unramified
    l2: PrimeIdeal  # over ell, e = 3
    fixed_q: RayClass3Quotient  # Cl_{3_1^2 ell_2} (x) F_3, reference shape
    wild: WildBlock  # the one block for (O/3_1^2)^* (x) F_3
    tame_l2: TameBlock
    unit_wild: tuple  # wild philog of each saturated unit
    unit_l2: tuple  # ell_2 character of each saturated unit
    fixed_rref: tuple  # unit rows reduced mod 3: the fast fixed functional
    fixed_pivots: tuple
    # _certificate of each cg.factor_base prime, None over 3 and ell
    certs: tuple
    shanks_a: object
    frame: tuple  # float Cholesky factor of F.trace_gram: real coordinates for the census LLL

    @property
    def is_shanks(self) -> bool:
        return self.shanks_a is not None

    def excluded(self, v: int) -> bool:
        return v == 3 or v == self.ell or self.F.index % v == 0


# ---------------------------------------------------------------------------
# Conductor loading.


def load_conductor(config) -> ConductorData:
    """Build and verify the census datum for one conductor.

    Every claim the census later relies on is checked here and failures
    carry distinct tags: conductor shape, cubic and quartic discriminant,
    Galois group, splitting at 3 and ell, 4 | h(L), 3 coprime to h(F),
    exponent stability of the wild modulus, the one-dimensionality of
    the fixed quotient, and a principality certificate for every
    factor-base prime not over 3 or ell (`certificate`).

    L and F each come from the first of: the config polynomial, the
    cache record ("L", "F"), or their construction (cubic_subfield,
    quartic_field_search).  Every stage runs once: h(L) is screened
    (`class-number`) before the quartic search, which builds no class
    group of its own, and the searched F is used as returned.  A cold
    load writes the record {L, F}; the fields are re-verified on every
    read.
    """
    if isinstance(config, int):
        try:
            config = shipped_config(config)
        except FileNotFoundError:
            config = Config(ell=config)
    ell = config.ell
    if not arith.is_prime(ell) or ell % 3 != 1:
        raise VerificationError("conductor", f"conductor {ell} is not a prime = 1 mod 3")

    cached = cache_read(ell) if config.use_cache else None

    if config.cubic_poly is not None:
        L = new_number_field(tuple(config.cubic_poly))
    elif cached and "L" in cached:
        L = field_from_record(cached["L"])
    else:
        L = cubic_subfield(ell)
    if L.degree != 3 or L.disc != ell * ell:
        raise VerificationError(
            "cubic-disc", f"cubic field has discriminant {L.disc}, expected {ell}^2"
        )

    # The class-number screen comes before any quartic work: conductors
    # with h(L) not divisible by 4 (ell = 7 say) carry no datum at all.
    cg_L = class_group(L)
    if cg_L.h % 4 != 0:
        raise VerificationError(
            "class-number", f"h(L) = {cg_L.h} is not divisible by 4 for ell = {ell}"
        )

    if config.quartic_poly is not None:
        F = new_number_field(tuple(config.quartic_poly))
    elif cached and "F" in cached:
        F = field_from_record(cached["F"])
    else:
        F = quartic_field_search(ell)
    if F.degree != 4 or F.disc != ell * ell:
        raise VerificationError(
            "quartic-disc", f"quartic field has discriminant {F.disc}, expected {ell}^2"
        )
    if quartic_galois_tag(F.poly) != "A4":
        raise VerificationError("galois", "quartic polynomial does not have Galois group A4")
    if splitting_pattern(F, 3) != [(1, 1), (1, 3)]:
        raise VerificationError("splitting-3", "3 does not split as 3_1 * 3_2 in F")
    if splitting_pattern(F, ell) != [(1, 1), (3, 1)]:
        raise VerificationError(
            "splitting-ell", f"{ell} does not factor as ell_1 * ell_2^3 in F"
        )

    cg = class_group(F)
    if cg.h % 3 == 0:
        raise VerificationError(
            "class-3part", f"h(F) = {cg.h} is divisible by 3; certificates need 3 invertible"
        )

    if config.units is not None:
        for cand in config.units:
            if len(cand) != F.degree or abs(F.el_norm(tuple(cand))) != 1:
                raise VerificationError("units", f"supplied candidate {cand} is not a unit of F")
    u = unit_group(F, seed_candidates=tuple(config.units or ()))

    at3 = factor_rational_prime(F, 3)
    p31 = next(P for P in at3 if P.f == 3)
    p32 = next(P for P in at3 if P.f == 1)
    at_ell = factor_rational_prime(F, ell)
    l1 = next(P for P in at_ell if P.e == 1)
    l2 = next(P for P in at_ell if P.e == 3)

    # every ray quotient presents the units and the class-group relations
    wild = WildBlock(F, p31, known=u.fundamental_units + tuple(gen for gen, _ in cg.relations))
    if not modulus_stability_check(F, p31, cg, u, wild):
        raise VerificationError(
            "stability", "ray class quotient still grows from exponent 2 to 3 at 3_1"
        )

    fixed_q = ray_class_3_quotient(Modulus(F, ((p31, 2), (l2, 1))), cg, u, wild)
    if fixed_q.dim != 1:
        raise VerificationError(
            "fixed-dim", f"fixed quotient has F_3-dimension {fixed_q.dim}, expected 1"
        )
    _, tame_l2 = fixed_q.blocks
    unit_wild = tuple(wild.philog(w) for w in u.fundamental_units)
    unit_l2 = tuple(tame_l2.philog(w)[0] for w in u.fundamental_units)
    rows = [list(pw) + [t] for pw, t in zip(unit_wild, unit_l2)]
    fixed_rref, fixed_pivots = linalg.rref_mod_p(rows, 4, 3)
    if 4 - len(fixed_pivots) != 1:
        raise VerificationError(
            "fixed-dim", "unit images do not cut the fixed quotient to one dimension"
        )
    certs = tuple(
        None if Q.p in (3, ell) else _certificate(F, cg, wild, tame_l2, Q)
        for Q in cg.factor_base
    )

    cd = ConductorData(
        ell=ell,
        L=L,
        F=F,
        cg_L=cg_L,
        cg=cg,
        u=u,
        p31=p31,
        p32=p32,
        l1=l1,
        l2=l2,
        fixed_q=fixed_q,
        wild=wild,
        tame_l2=tame_l2,
        unit_wild=unit_wild,
        unit_l2=unit_l2,
        fixed_rref=tuple(tuple(r) for r in fixed_rref),
        fixed_pivots=tuple(fixed_pivots),
        certs=certs,
        shanks_a=shanks_param(ell),
        frame=linalg.cholesky_float(F.trace_gram),
    )
    if config.use_cache and cached is None:
        cache_write(ell, {"L": field_to_record(L), "F": field_to_record(F)})
    return cd


# ---------------------------------------------------------------------------
# Reference classifier: the moving ray class group is rebuilt per prime.


def classify_prime(cd: ConductorData, v: int) -> PrimeClassification:
    """Classify one auxiliary prime through the full ray-class machinery."""
    if cd.excluded(v):
        log.info("conductor %d: skipping excluded prime %d", cd.ell, v)
        return PrimeClassification(v, False, skipped=True)
    if v % 3 != 1:
        return PrimeClassification(v, False)
    primes = factor_rational_prime(cd.F, v)
    if sorted(P.f for P in primes) != [1, 3]:
        return PrimeClassification(v, False)
    v1 = next(P for P in primes if P.f == 3)
    v2 = next(P for P in primes if P.f == 1)

    moving = ray_class_3_quotient(Modulus(cd.F, ((cd.p31, 2), (v2, 1))), cd.cg, cd.u, cd.wild)
    in_lambda = any(artin_vector(moving, list(v1.hnf)))
    in_taubar = not any(artin_vector(cd.fixed_q, list(v1.hnf)))
    return PrimeClassification(v, True, in_lambda, in_taubar)


# ---------------------------------------------------------------------------
# Fast classifier: same contract, certificates instead of factor bases.


def fast_classify(cd: ConductorData, v: int) -> PrimeClassification:
    """Classify one auxiliary prime via principality certificates.

    Agrees with classify_prime everywhere.  Membership in C^(3) is
    decided by the C3 gate: v = 1 mod 3 and v^((ell-1)/3) != 1 mod ell.
    This is exact for every prime that is not excluded: Frobenius at v
    has cycle type (3,1) on the roots of F exactly when it has order 3
    in A4, that is when its image in A4/V4 = Gal(L/Q) is nontrivial,
    which happens exactly when v is not a cube mod ell; and v prime to
    3 * ell * index keeps f squarefree mod v.  Only C3 primes reach the
    polynomial work: the one root r of f mod v (_quartic_root), whose
    absence raises VerificationError("root"), gives v2 = (v, theta - r),
    and the cubic cofactor g gives v1 = vO + Z g(theta) in closed form
    (_degree3_prime; g(theta) = 0 mod v raises VerificationError
    ("v1-norm")).  The moving quotient is presented on the four local
    coordinates only (three wild, one tame at v_2), with unit images as
    relations.  v1 is split by classgroup.smooth_split over the factor
    base, keeping the first alpha whose cofactor norm N(alpha)/v^3 is
    prime to 3 * ell * v, and each cofactor prime Q is moved into that
    presentation through its certificate Q^m = (gamma) from cd.certs,
    built at load; m is prime to 3 because 3 does not divide h(F).
    """
    pre = _c3_setup(cd, v)
    if isinstance(pre, PrimeClassification):
        return pre
    r, v1 = pre
    return _c3_verdict(cd, v, r, v1)


def _c3_setup(cd: ConductorData, v: int):
    """fast_classify up to v1: the verdict of a prime outside C^(3), else (r, v1 HNF)."""
    if cd.excluded(v):
        log.info("conductor %d: skipping excluded prime %d", cd.ell, v)
        return PrimeClassification(v, False, skipped=True)
    if v % 3 != 1 or pow(v, (cd.ell - 1) // 3, cd.ell) == 1:
        return PrimeClassification(v, False)
    root = _quartic_root(cd.F.poly, v)
    if root is None:
        raise VerificationError(
            "root", f"{v} passed the C3 gate, but f mod {v} does not have exactly one root"
        )
    r, cofactor = root
    return r, _degree3_prime(_poly_at_theta(cd.F, cofactor), v)


def _c3_verdict(cd: ConductorData, v: int, r: int, v1) -> PrimeClassification:
    """fast_classify from v1 on, given any basis of v1."""
    tame_v = _tame_line(cd.F, v, r)

    # A cofactor norm prime to 3 * ell * v leaves alpha a unit at 3_1,
    # ell_2 and v_2, and puts a certificate behind every cofactor prime.
    avoid = 3 * cd.ell * v
    split = smooth_split(cd.cg, v1, usable=lambda el, n: math.gcd(n, avoid) == 1)
    if split is None:
        raise FieldError(f"no smooth split found in the degree-3 prime over {v}")
    alpha, vec = split
    wild_net = list(cd.wild.philog(alpha))
    l2_net = cd.tame_l2.philog(alpha)[0]
    v_net = tame_v.philog(alpha)[0]
    for vq, cert in zip(vec, cd.certs):
        if not vq:
            continue
        m, gamma, wg, lg = cert
        s = vq * pow(m, -1, 3)
        wild_net = [(a - s * b) % 3 for a, b in zip(wild_net, wg)]
        l2_net = (l2_net - s * lg) % 3
        v_net = (v_net - s * tame_v.philog(gamma)[0]) % 3

    fix_res = linalg.residual_mod_p(
        cd.fixed_rref, cd.fixed_pivots, tuple(wild_net) + (l2_net,), 3
    )
    in_taubar = not any(fix_res)

    rows = [
        list(pw) + [tame_v.philog(w)[0]] for pw, w in zip(cd.unit_wild, cd.u.fundamental_units)
    ]
    rref, pivots = linalg.rref_mod_p(rows, 4, 3)
    mov_res = linalg.residual_mod_p(rref, pivots, tuple(wild_net) + (v_net,), 3)
    in_lambda = any(mov_res)
    return PrimeClassification(v, True, in_lambda, in_taubar)


def _quartic_root(f, v: int):
    """(root, monic cubic cofactor) when f has exactly one distinct root mod v.

    f is a monic quartic, constant term first; returns None for any
    other root count.  The distinct roots of f mod v are those of
    gcd(x^v - x, f) (Cohen, GTM 138, 1.6).  x^v mod (f, v) is built by
    square and multiply on coefficient 4-tuples, reducing with
    x^4 = n0 + n1 x + n2 x^2 + n3 x^3.
    """
    n0, n1, n2, n3 = (-c % v for c in f[:4])
    a0, a1, a2, a3 = 0, 1, 0, 0
    for bit in bin(v)[3:]:
        # square: the x^6, x^5, x^4 coefficients fold back below x^4
        d6 = a3 * a3 % v
        d5 = (2 * a2 * a3 + d6 * n3) % v
        d4 = (a2 * a2 + 2 * a1 * a3 + d6 * n2 + d5 * n3) % v
        a0, a1, a2, a3 = (
            (a0 * a0 + d4 * n0) % v,
            (2 * a0 * a1 + d5 * n0 + d4 * n1) % v,
            (a1 * a1 + 2 * a0 * a2 + d6 * n0 + d5 * n1 + d4 * n2) % v,
            (2 * (a0 * a3 + a1 * a2) + d6 * n1 + d5 * n2 + d4 * n3) % v,
        )
        if bit == "1":  # times x
            a0, a1, a2, a3 = (
                a3 * n0 % v, (a0 + a3 * n1) % v, (a1 + a3 * n2) % v, (a2 + a3 * n3) % v
            )
    # gcd(x^v - x, f) by Euclid on coefficient lists
    a, b = [c % v for c in f], [a0, (a1 - 1) % v, a2, a3]
    while b and not b[-1]:
        b.pop()
    while b:
        inv = pow(b[-1], -1, v)
        db = len(b) - 1
        while len(a) > db:
            c = a.pop() * inv % v
            s = len(a) - db
            for j in range(db):
                a[s + j] = (a[s + j] - c * b[j]) % v
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    if len(a) != 2:
        return None
    r = -a[0] * pow(a[1], -1, v) % v
    # synthetic division of f by (x - r) mod v
    out = [0] * 4
    acc = 0
    for i in range(4, 0, -1):
        acc = (acc * r + f[i]) % v
        out[i - 1] = acc
    if (acc * r + f[0]) % v:
        raise VerificationError("root", f"{r} is not a root of the defining polynomial mod {v}")
    return r, tuple(out)


def _degree3_prime(gtheta, v: int):
    """HNF of v1 = vO + Z g(theta), the degree-3 prime over v.

    For v prime to the index, O/vO = F_v[x]/(x - r) x F_v[x]/(g), and
    g(theta) spans the line F_v x 0 that is v1/vO.  With k the first
    coordinate of g(theta) that is nonzero mod v, the HNF is v times the
    identity with row k replaced by g(theta) / g(theta)_k mod v: one
    modular inverse in place of an ideal HNF (Cohen, GTM 138, 4.8).
    """
    k = next((i for i, c in enumerate(gtheta) if c % v), None)
    if k is None:
        raise VerificationError("v1-norm", f"g(theta) vanishes mod {v}: no degree-3 prime over {v}")
    inv = pow(gtheta[k], -1, v)
    n = len(gtheta)
    rows = [tuple(v * (i == j) for j in range(n)) for i in range(n)]
    rows[k] = tuple(c * inv % v for c in gtheta)
    return rows


def _tame_line(K: NumberField, v: int, r: int) -> TameBlock:
    """Character block at the degree-1 prime (v, theta - r)."""
    stub = PrimeIdeal(p=v, e=1, f=1, norm=v, hnf=(), theta_root=r, anti_uniformizer=None)
    return TameBlock(K, stub)


def _certificate(F: NumberField, cg: ClassGroupData, wild: WildBlock, tame_l2: TameBlock, Q):
    """(m, gamma, wild philog, ell_2 char) with Q^m = (gamma), m prime to 3.

    m is the order of [Q] in the class group; it is prime to 3 because
    3 does not divide h(F).  Q must lie over neither 3 nor ell, so that
    gamma is a unit at 3_1 and ell_2.
    """
    coords = ideal_class_coordinates(list(Q.hnf), cg)
    m = 1
    for c, d in zip(coords, cg.divisors):
        if c % d:
            m = math.lcm(m, d // math.gcd(d, c))
    if m % 3 == 0:
        raise VerificationError(
            "certificate",
            f"class order {m} at a prime over {Q.p} is divisible by 3, yet 3 does not divide h(F)",
        )
    power = ideal_pow(F, list(Q.hnf), m)
    target = ideal_norm(power)
    gamma = next((el for el in ideal_short_elements(F, power) if abs(F.el_norm(el)) == target), None)
    if gamma is None:
        raise VerificationError(
            "certificate", f"no generator found for the certificate at a prime over {Q.p}"
        )
    return m, gamma, wild.philog(gamma), tame_l2.philog(gamma)[0]


# ---------------------------------------------------------------------------
# The census driver.


def _checkpoints_for(N: int, checkpoints) -> tuple:
    if checkpoints is None:
        cps = tuple(c for c in TABLE_CHECKPOINTS if c <= N)
    else:
        cps = tuple(checkpoints)
        if list(cps) != sorted(set(cps)):
            raise ValueError("checkpoints must be strictly ascending")
        if cps and cps[-1] > N:
            raise ValueError("checkpoints must not exceed the census bound")
    if not cps:
        raise ValueError(f"no checkpoints at or below {N}")
    return cps


def _segments(limit: int, cps) -> list:
    bounds = sorted(set(range(0, limit + 1, CHUNK)) | set(cps) | {limit})
    return list(zip(bounds, bounds[1:]))


def _count_segment(cd: ConductorData, lo: int, hi: int, want_detail: bool):
    """Classify the primes in (lo, hi]: counts, optional records, fallbacks.

    Three stages, each verdict equal to fast_classify's:
      1. every prime goes through the gate, the root and the closed-form
         v1 (_c3_setup);
      2. the v1 bases of the segment's C3 primes are reduced together by
         one linalg.lll_float_batch in the real coordinates cd.frame; each
         returned T is unimodular, checked exactly, and the rows T v1 are
         formed in integers, so they are a basis of v1 whatever the floats
         did (a lattice without a certified T keeps its HNF);
      3. each C3 prime is classified from its reduced basis (_c3_verdict),
         whose exact LLL then has little left to do.
    A lattice's T does not depend on the other lattices of the batch, so
    the verdicts and the alpha behind them do not depend on where the
    segments are cut or on the worker count.  A FieldError at one prime
    (VerificationError "v1-norm" in stage 1, "no smooth split" in stage 3)
    is contained: that prime is classified by classify_prime and counted
    as a fallback.  VerificationError("root") means the gate is wrong and
    propagates.
    """
    verdicts = []
    pending = []  # (index in verdicts, v, r, v1 HNF) of each C3 prime
    fallbacks = 0
    for v in primes_in_range(lo + 1, hi + 1):
        try:
            pre = _c3_setup(cd, v)
        except VerificationError as exc:
            if exc.check == "root":
                raise
            pre = _fallback(cd, v, exc)
            fallbacks += 1
        if isinstance(pre, PrimeClassification):
            verdicts.append(pre)
        else:
            pending.append((len(verdicts), v, *pre))
            verdicts.append(None)
    transforms = linalg.lll_float_batch([v1 for *_, v1 in pending], cd.frame)
    for (i, v, r, v1), T in zip(pending, transforms):
        if T is not None:
            v1 = [_combine(t, v1) for t in T]
        try:
            verdicts[i] = _c3_verdict(cd, v, r, v1)
        except FieldError as exc:
            verdicts[i] = _fallback(cd, v, exc)
            fallbacks += 1

    c3 = cl = ct = cb = done = 0
    detail = [] if want_detail else None
    for pc in verdicts:
        if pc.skipped:
            continue
        done += 1
        if pc.in_C3:
            c3 += 1
            cl += pc.in_CLambda
            ct += pc.in_Ctaubar
            cb += pc.in_CLambda and pc.in_Ctaubar
            if want_detail:
                detail.append(
                    '{"v": %d, "lambda": %s, "taubar": %s}'
                    % (pc.v, str(pc.in_CLambda).lower(), str(pc.in_Ctaubar).lower())
                )
    return c3, cl, ct, cb, done, detail, fallbacks


def _fallback(cd: ConductorData, v: int, exc: FieldError) -> PrimeClassification:
    log.info("conductor %d: fast route failed at %d (%s); using classify_prime", cd.ell, v, exc)
    return classify_prime(cd, v)


_WORKER_CD = None  # this pool worker's copy of the parent's verified datum


def _worker_init(cd: ConductorData):
    global _WORKER_CD
    _WORKER_CD = cd


def _worker_count(args):
    lo, hi, want_detail = args
    return _count_segment(_WORKER_CD, lo, hi, want_detail)


def run_census(cd: ConductorData, N: int, checkpoints=None, workers: int = 1, jsonl=None):
    """Cumulative census rows at each checkpoint up to N.

    Primes beyond the last checkpoint are never classified.  Work is cut
    into fixed segments of CHUNK = 8000 integers (checkpoints always land
    on segment boundaries), so the merged rows do not depend on the worker
    count.  Each segment is classified in three stages (_count_segment):
    the gate, root and v1 of every prime; one batched float LLL over the
    segment's v1 lattices; the split of each v1 from its reduced basis.
    A lattice's reduction does not depend on its batch, so the output is
    the same however the segments fall.  Pool workers receive cd itself,
    never reload the conductor, and take one segment per task.  With
    `jsonl` (a path, or "-" for stdout) each C3 prime's record is written
    in order as its segment is merged, so a census holds one segment's
    lines at a time.  A prime at which the fast route raises FieldError
    is classified by classify_prime; the number of such fallbacks is
    logged at the end.  VerificationError("root") aborts the census.
    """
    cps = _checkpoints_for(N, checkpoints)
    limit = cps[-1]
    segs = _segments(limit, cps)
    want_detail = jsonl is not None

    if jsonl is None:
        sink = contextlib.nullcontext(None)
    elif jsonl == "-":
        sink = contextlib.nullcontext(sys.stdout)
    else:
        sink = open(jsonl, "w")
    with sink as out:
        if workers <= 1:
            results = (_count_segment(cd, lo, hi, want_detail) for lo, hi in segs)
            return _merge_segments(cd, segs, results, cps, out)
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init, initargs=(cd,)
        ) as pool:
            results = pool.map(_worker_count, [(lo, hi, want_detail) for lo, hi in segs])
            return _merge_segments(cd, segs, results, cps, out)


def _merge_segments(cd, segs, results, cps, out):
    """Fold the segment results in order into checkpoint rows.

    Each segment's detail lines go to `out` (when given) as it is
    merged, so a long census holds at most one segment's lines.  The
    segments' fallbacks to classify_prime are summed and logged.
    """
    rows = []
    c3 = cl = ct = cb = done = fallbacks = 0
    cps_left = list(cps)
    for (lo, hi), res in zip(segs, results):
        sc3, scl, sct, scb, sdone, detail, sfall = res
        c3 += sc3
        cl += scl
        ct += sct
        cb += scb
        done += sdone
        fallbacks += sfall
        if detail:
            out.write("".join(line + "\n" for line in detail))
            out.flush()
        if cps_left and hi == cps_left[0]:
            cps_left.pop(0)
            rows.append(CensusRow(hi, c3, cl, ct, cb, done))
            log.info(
                "conductor %d: n=%d |C3|=%d lambda=%d taubar=%d both=%d",
                cd.ell, hi, c3, cl, ct, cb,
            )
    if fallbacks:
        log.warning(
            "conductor %d: %d fallback(s) to classify_prime after the fast route failed",
            cd.ell, fallbacks,
        )
    return rows


# ---------------------------------------------------------------------------
# Conductor scan and the composite-conductor cross-check.


@dataclass(frozen=True)
class ScanRow:
    ell: int
    h: int
    two_rank: int
    shanks_a: object  # the a with ell = a^2 + 3a + 9, or None
    passes: bool  # 4 | h(L); the quartic-side conditions are external


def scan_conductors(max_ell: int):
    """Screen all prime conductors = 1 mod 3 up to max_ell by 4 | h(L).

    Conditions on the quartic side of the classification are not decided here
    and are reported as external by the CLI.
    """
    if max_ell > 2000:
        raise ValueError("conductor scan is sized for max_ell <= 2000")
    rows = []
    for ell in arith.primes_upto(max_ell):
        if ell % 3 != 1:
            continue
        cg = class_group(cubic_subfield(ell))
        rows.append(ScanRow(ell, cg.h, two_rank(cg), shanks_param(ell), cg.h % 4 == 0))
    return rows


@dataclass(frozen=True)
class DiagonalField:
    poly: tuple
    disc: int
    h: int
    two_rank: int


@dataclass(frozen=True)
class DiagonalReport:
    ell1: int
    ell2: int
    fields: tuple  # the two diagonal cubic fields
    rank_obstructed: bool  # both 2-ranks below 2


def diagonal_check(ell1: int, ell2: int) -> DiagonalReport:
    """Class data of the two diagonal cubics of conductor ell1 * ell2.

    (Z/ell1 ell2)^* has four index-3 subgroups; the two whose fixed
    cubics have full conductor are the diagonal ones.  Their defining
    polynomials are recovered exactly from Gauss periods: coefficients
    are sums of roots of unity, grouped into Galois orbits where the
    orbit sum is mu(order), so every power sum is an exact integer.
    Failure of that grouping, or a field discriminant other than
    (ell1 * ell2)^2, raises a VerificationError.
    """
    for ell in (ell1, ell2):
        if not arith.is_prime(ell) or ell % 3 != 1:
            raise VerificationError("conductor", f"{ell} is not a prime = 1 mod 3")
    if ell1 == ell2:
        raise VerificationError("conductor", "diagonal check needs distinct conductors")
    m = ell1 * ell2
    chi1 = _dlog3_table(ell1)
    chi2 = _dlog3_table(ell2)
    fields = []
    for twist in (1, 2):
        cosets = ([], [], [])
        for t in range(1, m):
            if t % ell1 == 0 or t % ell2 == 0:
                continue
            cosets[(chi1[t % ell1] + twist * chi2[t % ell2]) % 3].append(t)
        e2 = _orbit_sum(_pair_counts(cosets, m), m)
        e3 = _orbit_sum(_triple_counts(cosets, m), m)
        K = new_number_field((-e3, e2, -1, 1))
        if K.disc != m * m:
            raise VerificationError(
                "diagonal-disc",
                f"period cubic for twist {twist} has field discriminant {K.disc}, "
                f"expected {m}^2",
            )
        cg = class_group(K)
        fields.append(DiagonalField(K.poly, K.disc, cg.h, two_rank(cg)))
    return DiagonalReport(ell1, ell2, tuple(fields), all(f.two_rank < 2 for f in fields))


def _dlog3_table(ell: int):
    """table[x] = discrete log of x mod ell, reduced mod 3."""
    g = arith.primitive_root(ell)
    table = [0] * ell
    acc = 1
    for k in range(ell - 1):
        table[acc] = k % 3
        acc = acc * g % ell
    return table


def _pair_counts(cosets, m: int):
    cnt = [0] * m
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for s in cosets[i]:
            for t in cosets[j]:
                cnt[(s + t) % m] += 1
    return cnt


def _triple_counts(cosets, m: int):
    pair = [0] * m
    for s in cosets[1]:
        for t in cosets[2]:
            pair[(s + t) % m] += 1
    cnt = [0] * m
    for s in cosets[0]:
        for k in range(m):
            if pair[k]:
                cnt[(s + k) % m] += pair[k]
    return cnt


def _orbit_sum(cnt, m: int) -> int:
    """Exact value of sum cnt[k] * zeta_m^k, which must be rational.

    zeta_m^k only depends on k through its order m/gcd(k, m); the count
    vector must be constant on each orbit {k : gcd(k, m) = d} (this is
    Galois stability of the symmetric function being evaluated), and
    the orbit then contributes count * mu(order).
    """
    reps = {}
    for k in range(m):
        d = math.gcd(k, m)
        if d in reps:
            if cnt[k] != reps[d]:
                raise VerificationError(
                    "diagonal-orbits", "period power sum is not Galois stable"
                )
        else:
            reps[d] = cnt[k]
    total = 0
    for d, c in reps.items():
        if c:
            total += c * _moebius(m // d)
    return total


def _moebius(t: int) -> int:
    if t == 1:
        return 1
    mu = 1
    for _p, e in factorize(t).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


# ---------------------------------------------------------------------------
# The group-theoretic density input.


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
