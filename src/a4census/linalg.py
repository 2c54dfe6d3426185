"""Small exact linear algebra: lattices over Z, spaces over F_p and Q.

Matrices are lists (or tuples) of rows.  Everything is sized for number
fields of degree <= 4 and factor bases of a few dozen primes, so the
algorithms favour exactness and clarity over asymptotics.  The one
float routine, lll_float_batch, reduces many lattices at once in numpy
and hands back exact integer transforms that it has certified.
"""

from __future__ import annotations

import array
import math
import operator
from fractions import Fraction

from .arith import det_bareiss

__all__ = [
    "hnf",
    "hnf_solve",
    "lattice_eq",
    "lattice_index",
    "inverse_rational",
    "solve_rational",
    "kernel_mod_p",
    "rref_mod_p",
    "residual_mod_p",
    "smith_normal_form",
    "lll_gram",
    "cholesky_float",
    "lll_float_batch",
    "short_vectors",
    "gram_matrix",
]


def hnf(rows, ncols=None):
    """Row-style Hermite normal form of the lattice spanned by `rows`.

    Returns the list of nonzero HNF rows (upper triangular by pivot
    column, positive pivots, entries above a pivot reduced into [0, pivot)).
    Full-rank square input lattices give a square result.
    """
    work = [list(r) for r in rows if any(r)]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    out = []
    col = 0
    while col < ncols and work:
        # gcd-reduce all rows with a nonzero entry in this column
        while True:
            live = [r for r in work if r[col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda r: abs(r[col]))
            piv = live[0]
            for r in live[1:]:
                q = r[col] // piv[col]
                for j in range(col, ncols):
                    r[j] -= q * piv[j]
        piv = None
        for r in work:
            if r[col] != 0:
                piv = r
                break
        if piv is not None:
            work = [r for r in work if r is not piv and any(r)]
            if piv[col] < 0:
                piv = [-a for a in piv]
            out.append(piv)
        col += 1
    # reduce entries above each pivot, left to right so each reduction
    # only touches columns whose pivots are not yet processed
    for i in range(len(out)):
        pcol = next(j for j in range(ncols) if out[i][j] != 0)
        for k in range(i):
            q = out[k][pcol] // out[i][pcol]
            if q:
                for j in range(pcol, ncols):
                    out[k][j] -= q * out[i][j]
    return [tuple(r) for r in out]


def hnf_solve(h, target):
    """Integer coordinates of `target` over square full-rank HNF rows, or None."""
    n = len(h)
    t = list(target)
    coeffs = [0] * n
    # Row i is the only remaining row with a nonzero entry in column i,
    # so forward substitution peels coordinates off left to right.
    for i in range(n):
        piv = h[i][i]
        if t[i] % piv != 0:
            return None
        c = t[i] // piv
        coeffs[i] = c
        if c:
            for j in range(i, n):
                t[j] -= c * h[i][j]
    if any(t):
        return None
    return coeffs


def lattice_eq(h1, h2) -> bool:
    return [tuple(r) for r in h1] == [tuple(r) for r in h2]


def lattice_index(h) -> int:
    """Index [Z^n : L] for a square full-rank HNF basis of L."""
    out = 1
    for i, row in enumerate(h):
        out *= row[i]
    return out


def inverse_rational(mat):
    """Exact inverse of a square matrix with int or Fraction entries."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def solve_rational(mat, rhs):
    """Solve mat^T-free row convention: x * mat = rhs, both rows of rationals."""
    inv = inverse_rational(mat)
    return [sum(Fraction(rhs[k]) * inv[k][j] for k in range(len(rhs))) for j in range(len(rhs))]


def kernel_mod_p(rows, ncols, p):
    """Basis of {x in F_p^ncols : sum_j rows[i][j] * x[j] = 0 for all i}.

    Each row is one homogeneous equation.
    """
    red, pivots = rref_mod_p(rows, ncols, p)
    basis = []
    free = [j for j in range(ncols) if j not in pivots]
    for fcol in free:
        v = [0] * ncols
        v[fcol] = 1
        for i, pcol in enumerate(pivots):
            v[pcol] = (-red[i][fcol]) % p
        basis.append(tuple(v))
    return basis


def rref_mod_p(rows, ncols, p):
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


def residual_mod_p(rref_rows, pivots, vec, p):
    """Reduce `vec` against an RREF row space; zero residual = containment."""
    v = [x % p for x in vec]
    for row, col in zip(rref_rows, pivots):
        if v[col]:
            f = v[col]
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return tuple(v)


def smith_normal_form(mat, nrows=None, ncols=None):
    """Smith normal form D = U*A*V with unimodular U, V.

    Returns (divisors, V) where `divisors` is the full diagonal of D
    (zeros included) and V is ncols x ncols.  U is not formed: the rows
    of A*V span the same lattice as the rows of D.
    """
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
        # find smallest nonzero pivot in the remaining block
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
        # divisibility fix-up: pivot must divide the rest of the block
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


# ---------------------------------------------------------------------------
# Lattice reduction on an exact Gram matrix.


def lll_gram(gram, delta=Fraction(3, 4)):
    """LLL-reduce a basis known only through its Gram matrix.

    Returns (T, B): the unimodular transform rows T, so the reduced
    basis is T applied to the original one, and B = T G T^t, the exact
    Gram matrix of the reduced basis, which the reduction keeps up to
    date anyway.  The form must be positive definite.

    All-integer variant: instead of rational Gram-Schmidt data it
    carries d[i] (the leading i x i Gram determinants) and the scaled
    coefficients lam[i][j] = mu_ij * d[j+1], in which every division
    below is exact.
    """
    n = len(gram)
    if n == 0:
        return [], []
    dn, dd = delta.numerator, delta.denominator
    b = [[int(x) for x in row] for row in gram]  # Gram of the current basis
    h = [[int(i == j) for j in range(n)] for i in range(n)]
    lam = [[0] * n for _ in range(n)]
    d = [1] * (n + 1)

    def set_gso(k):
        for j in range(k + 1):
            u = b[k][j]
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u > 0:
                d[k + 1] = u
            else:
                raise ValueError("gram matrix is not positive definite")

    def red(k, l):
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        hk, hl = h[k], h[l]
        for j in range(n):
            hk[j] -= q * hl[j]
        bk, bl = b[k], b[l]
        for j in range(n):
            bk[j] -= q * bl[j]
        for row in b:
            row[k] -= q * row[l]
        lam[k][l] -= q * d[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    set_gso(0)
    k_max = 0
    k = 1
    while k < n:
        if k > k_max:
            k_max = k
            set_gso(k)
        red(k, k - 1)
        if dd * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) >= dn * d[k] ** 2:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
        else:
            h[k], h[k - 1] = h[k - 1], h[k]
            b[k], b[k - 1] = b[k - 1], b[k]
            for row in b:
                row[k], row[k - 1] = row[k - 1], row[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            lam_ = lam[k][k - 1]
            newd = (d[k - 1] * d[k + 1] + lam_ * lam_) // d[k]
            for i in range(k + 1, k_max + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lam_ * t) // d[k]
                lam[i][k - 1] = (newd * t + lam_ * lam[i][k]) // d[k + 1]
            d[k] = newd
            k = max(k - 1, 1)
    return [tuple(r) for r in h], b


# lll_float_batch stops after this many passes; each lattice then keeps
# the transform it has.
FLOAT_LLL_PASSES = 2000


def cholesky_float(gram):
    """Lower-triangular float L with L L^t = gram, for a positive definite form.

    For an integer basis y, the rows of y L are real coordinates of the
    lattice: their dot products are the form's values.  Pure Python: it
    runs once per form, and numpy.linalg would call LAPACK.
    """
    n = len(gram)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = float(gram[i][j]) - sum(low[i][c] * low[j][c] for c in range(j))
            if i > j:
                low[i][j] = s / low[j][j]
            elif s > 0:
                low[i][i] = math.sqrt(s)
            else:
                raise ValueError("gram matrix is not positive definite")
    return tuple(tuple(r) for r in low)


def lll_float_batch(bases, frame):
    """LLL transforms of many integer lattices at once, in float64.

    `bases` holds m square integer bases (lists of rows) of one dimension
    n, and `frame` a float n x n matrix L (cholesky_float) with L L^t the
    form, so that each lattice is reduced in the real coordinates y L of
    its rows y.  Yields one entry per lattice, in order: the transform T
    as a tuple of rows of Python integers, so that T y is the reduced
    basis, or None where T cannot be certified.  Each T is certified
    exactly: its entries are integers and |det T| = 1, so T y is a basis
    of the same lattice whatever the floats did.  T is tracked in
    float64, which is exact for integers below 2^53; a transform that
    outgrew that bound fails the determinant check (or holds a
    non-finite entry) and gives None.  How well T y is reduced is not
    part of the contract: callers that need an exact reduction run
    lll_gram on T y.

    Schnorr-Euchner LLL (Math. Programming 66, 1994), as in Nguyen and
    Stehle, "Floating-point LLL revisited" (Eurocrypt 2005): at its stage
    k a lattice recomputes row k of its Gram-Schmidt data from the
    current float vectors, size-reduces b_k against b_{k-1}, ..., b_0,
    and takes the Lovasz test with delta = 0.99, above lll_gram's 3/4,
    so that lll_gram finds the result already reduced.  All m lattices
    advance one stage per pass, each with its own k and its own mask; a
    finished lattice is frozen.  Only elementwise numpy operations and
    gathers by lattice index run, with no sum across lattices and no
    BLAS call, so a lattice's T is bitwise the same whether it is reduced
    alone, in any batch or in any order.  After FLOAT_LLL_PASSES passes each
    lattice keeps the transform it has.  One pass costs about the same
    for any m, so the batch pays only when it is wide (a hundred
    lattices or more).
    """
    # Imported here rather than at module load, so that the package goes
    # on importing numpy last (through cohomology): with numpy imported
    # first, CPython 3.11 left each process about 1 MB larger.
    import numpy as np

    m = len(bases)
    if m == 0:
        return
    n = len(frame)
    w = 2 * n
    # Lattice index last, one lane per lattice: bt[i, :n] are the real
    # coordinates of row i, bt[i, n:] its row of T.
    fr = np.array(frame, dtype=np.float64)
    y = np.array([[[e[i][c] for e in bases] for c in range(n)] for i in range(n)], dtype=np.float64)
    bt = np.zeros((n, w, m))
    for c in range(n):
        bt[:, :n] += y[:, c, None, :] * fr[c, None, :, None]
    for i in range(n):
        bt[i, n + i] = 1.0
    b = bt[:, :n]
    mu = np.zeros((n, n - 1, m))  # row j: mu_jl, l < j, stored when the lattice passes stage j
    r = np.ones((n, m))  # squared Gram-Schmidt norms, valid below the stage
    r[0] = _dot_rows(b[0], b[0])
    btf, muf, rf = bt.reshape(-1), mu.reshape(-1), r.reshape(-1)
    # Stages, masks and flat offsets are float64 too (offsets are cast to
    # intp for indexing): each numpy kernel a forked census worker runs
    # for the first time maps more of numpy's code into that worker.
    lane = np.arange(m, dtype=np.float64)
    row_lanes = np.arange(w, dtype=np.float64)[:, None] * m + lane  # one row of bt
    mu_lanes = row_lanes[: n - 1]
    prev_lane = lane - m
    prev_rows = row_lanes - w * m
    low = np.arange(n - 1, dtype=np.float64)[:, None]
    k = np.ones(m)
    live = np.full(m, float(n > 1))  # 1.0 while the lattice is being reduced, then 0.0
    delta = 0.99
    for _ in range(FLOAT_LLL_PASSES):
        if not np.count_nonzero(live):
            break
        kk = np.where(k < n, k, n - 1.0)  # a finished lattice sits at k = n
        at_k = (kk * (w * m) + row_lanes).astype(np.intp)
        k_lane = (kk * m + lane).astype(np.intp)
        p_lane = (kk * m + prev_lane).astype(np.intp)
        v = btf[at_k]  # row k: coordinates, then transform
        d = _dot_rows(v[:n], b)  # d[j] = <b_k, b_j>
        rk = d.reshape(-1)[k_lane]
        # a[j] = <b_k, b*_j> for j < k, from the stored rows of mu, in place
        a = d[: n - 1]
        for j in range(1, n - 1):
            for l in range(j):
                a[j] -= mu[j, l] * a[l]
        # zero for j >= k, and everywhere for a finished lattice
        a = np.where(low < kk * live, a, 0.0)
        muk = a / r[: n - 1]
        for j in range(n - 1):
            rk = rk - muk[j] * a[j]
        # size-reduce b_k against b_j, j = k-1 down to 0; r_k does not change
        for j in range(n - 2, -1, -1):
            q = np.rint(muk[j])
            if j:
                muk[:j] -= q * mu[j, :j]
            muk[j] -= q
            v -= q * bt[j]
        mu2 = muk.reshape(-1)[p_lane]
        mu2 *= mu2
        r_p = rf[p_lane]
        swap = (rk - (delta - mu2) * r_p) * live < 0.0
        # row k is read only once the lattice has passed stage k, which rewrites it
        muf[(kk * ((n - 1) * m) + mu_lanes).astype(np.intp)] = muk
        rf[k_lane] = rk
        if np.count_nonzero(swap):
            at_p = (kk * (w * m) + prev_rows).astype(np.intp)
            vp = btf[at_p]
            btf[at_k] = np.where(swap, vp, v)
            btf[at_p] = np.where(swap, v, vp)
            # after a swap at k = 1 the new b_0 is b_1, and |b_1|^2 = r_1 + mu_10^2 r_0
            rf[p_lane] = np.where(swap, rk + mu2 * r_p, r_p)
        else:
            btf[at_k] = v
        k = np.where(swap, np.where(1.0 < kk, kk - 1.0, 1.0), k + live)
        live = np.where(k < n, 1.0, 0.0)
    # float64 entries of any size convert to Python integers exactly
    flat = array.array("d", bt[:, n:].transpose(2, 0, 1).tobytes())
    for at in range(0, len(flat), n * n):
        entries = flat[at : at + n * n]
        if not all(map(math.isfinite, entries)):
            yield None
            continue
        tm = tuple(tuple(map(int, entries[i : i + n])) for i in range(0, n * n, n))
        yield tm if abs(det_bareiss(tm)) == 1 else None


def _dot_rows(u, w):
    """Dot products over the coordinate axis (second to last), in a fixed order."""
    s = u[0] * w[..., 0, :]
    for c in range(1, u.shape[0]):
        s = s + u[c] * w[..., c, :]
    return s


def gram_matrix(rows, form):
    """Gram matrix of `rows` under the symmetric bilinear `form` matrix."""
    cols = list(zip(*form))
    out = []
    for row in rows:
        tmp = [sum(map(operator.mul, row, col)) for col in cols]
        out.append([sum(map(operator.mul, tmp, other)) for other in rows])
    return out


def short_vectors(gram, bound, limit=100000):
    """Nonzero coefficient vectors c (up to sign) with c G c^t <= bound.

    Fincke-Pohst enumeration (Cohen, GTM 138, 2.7.3).  The Gram-Schmidt
    data of `gram` are computed exactly and rounded to floats once; the
    recursion prunes in floats against the bound widened by a relative
    1e-6.  In dimension <= 4 that is orders of magnitude above the
    rounding error unless the form is extremely ill-conditioned (the
    lattices enumerated here are LLL-reduced), so no qualifying vector is
    cut off.  At each leaf the exact value c G c^t decides whether c is
    kept, and it is the value returned.  Results are (value, c) pairs
    sorted by value, then by the lesser of c and -c, and c is given with
    its first nonzero coordinate positive.  Raises RuntimeError exactly
    when more than `limit` vectors qualify, c and -c counted apart.
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
    if n == 0 or not bound > 0:
        return []
    # the center of c_i given c_j, j > i, is -sum_j mu_ji c_j
    mu_col = [[float(mu[j][i]) for j in range(i + 1, n)] for i in range(n)]
    bf = [float(x) for x in b]
    out = []
    c = [0] * n

    def recurse(i, remaining):
        center = -sum(map(operator.mul, mu_col[i], c[i + 1 :]))
        bi = bf[i]
        half = math.sqrt(remaining / bi)
        x = math.ceil(center - half)
        hi = center + half
        while x <= hi:
            d = x - center
            rest = remaining - d * d * bi
            if rest >= 0:
                c[i] = x
                if i:
                    recurse(i - 1, rest)
                elif any(c):
                    val = sum(ca * sum(map(operator.mul, row, c)) for ca, row in zip(c, gram))
                    if val <= bound:
                        out.append((val, tuple(c)))
                        if len(out) > limit:
                            raise RuntimeError("short-vector enumeration overflow")
            x += 1
        c[i] = 0

    recurse(n - 1, float(bound) * (1 + 1e-6))
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
