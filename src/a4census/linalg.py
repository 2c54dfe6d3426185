"""Small exact linear algebra: lattices over Z, spaces over F_p and Q.

Matrices are lists (or tuples) of rows.  Everything is sized for number
fields of degree <= 4 and factor bases of a few dozen primes, so the
algorithms favour exactness and clarity over asymptotics.  The one
float routine, lll_float_batch, reduces many lattices at once in numpy,
by the all-swap LLL of Villard (ISSAC 1992) in rounds that every
lattice takes in lock step (about 25 rounds for a census batch near 0,
35 near 10^8), and hands back exact int64 transforms that it has
certified, by determinants modulo primes (det4_residues) under a
Hadamard bound.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .arith import det_bareiss

__all__ = [
    "hnf",
    "hnf_solve",
    "lattice_index",
    "kernel_mod_p",
    "rref_mod_p",
    "residual_mod_p",
    "smith_normal_form",
    "lll_gram",
    "cholesky_float",
    "lll_float_batch",
    "det4_residues",
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


def lattice_index(h) -> int:
    """Index [Z^n : L] for a square full-rank HNF basis of L."""
    out = 1
    for i, row in enumerate(h):
        out *= row[i]
    return out


def kernel_mod_p(rows, ncols, p):
    """Basis of {x in F_p^ncols : sum_j rows[i][j] * x[j] = 0 for all i}.

    Each row is one homogeneous equation.  The basis is read off the
    reduced row echelon form of the rows (rref_mod_p): one vector per free
    column, 1 there and minus that column's entries at the pivots.
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
    """Reduced row echelon form over F_p; returns (rows, pivot columns).

    Pivots are sought in the first ncols columns only; columns beyond
    them, if the rows are wider, are carried along by every row
    operation.  Gauss-Jordan elimination on Python lists, one pivot at a
    time: each pivot takes the first row at or below the rank with a
    nonzero entry, is scaled to 1 unless it is 1 already, and is
    subtracted from the rows with a nonzero entry in its column only.
    Every caller's matrix is small (a 4 x 4 multiplication matrix, a
    factor base's coordinates, a ray presentation of a few dozen rows),
    where numpy's dispatch per pivot costs more than the whole list
    update.  When the rows are no wider than ncols the result is the
    unique reduced row echelon form of their span.  The rows come back as
    tuples of Python ints; rows of unequal length raise ValueError.
    """
    if not rows:
        return [], []
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("rows of unequal length")
    work = [[x % p for x in r] for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        row = work[piv]
        work[piv] = work[rank]
        if row[col] != 1:
            inv = pow(row[col], -1, p)
            row = [x * inv % p for x in row]
        work[rank] = row
        for i, other in enumerate(work):
            f = other[col]
            if f and i != rank:
                work[i] = [(x - f * y) % p for x, y in zip(other, row)]
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

    Cohen, GTM 138, section 2.4, with one pivot rule: at step t the
    pivot is the entry of least nonzero absolute value in the block
    below and right of (t, t), the first such in row-major order.  The
    relation matrices of the class groups are tall and sparse, with many
    entries of absolute value 1, so the work skips what cannot change
    the result: the pivot scan stops at the first entry of absolute
    value 1 (nothing beats it), a column operation touches only the rows
    whose entry in the pivot column is nonzero, and a pivot of absolute
    value 1 divides the whole block, so its divisibility scan is skipped.
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
            if r[j]:
                r[i] -= q * r[j]
        for r in v:
            if r[j]:
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
        # smallest nonzero pivot in the remaining block, first in row-major order
        best = None
        least = 0
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < least):
                    best, least = (i, j), abs(x)
                    if least == 1:
                        break
            if least == 1:
                break
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
        if abs(piv) != 1:
            bad = next((i for i in range(t + 1, m) if any(x % piv for x in a[i][t + 1 :])), None)
            if bad is not None:
                row_op(t, bad, -1)
                continue
        if piv < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    divisors = [a[i][i] for i in range(min(m, n))]
    return divisors, v


# ---------------------------------------------------------------------------
# Lattice reduction on an exact Gram matrix.


LLL_DELTA = Fraction(3, 4)  # the Lovasz constant of lll_gram


def lll_gram(gram):
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
    dn, dd = LLL_DELTA.numerator, LLL_DELTA.denominator
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


# lll_float_batch stops after this many rounds; each lattice then keeps
# the transform it has.
FLOAT_LLL_ROUNDS = 1000

# The primes of det4_residues, just below 2^31, so that a product of two
# residues stays below 2^62 and a sum of six reduced ones in int64; their
# product, about 2^124, bounds the determinants they certify.
DET_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579)
DET_MODULUS = math.prod(DET_PRIMES)
# relative slack on a float64 bound: far above the rounding of the few
# operations behind it
FLOAT_BOUND_MARGIN = 1 + 2.0**-20
# the 2 x 2 minors of two rows, by column pair, and their signs in the
# Laplace expansion of a 4 x 4 determinant along rows 0 and 1
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PAIR_SIGNS = (1, -1, 1, 1, -1, 1)


def det4_residues(blocks):
    """det mod p of many 4 x 4 int64 blocks, for every p in DET_PRIMES.

    `blocks` is an int64 array of shape (m, 4, 4), any entries.  Returns
    an int64 array of shape (len(DET_PRIMES), m) with entries in [0, p),
    row i modulo DET_PRIMES[i].  Each prime is one pass of about twenty
    numpy calls over the whole batch, with the lattice axis last: the
    entries reduced, then the Laplace expansion along the first two rows,
    a sum of six products of complementary 2 x 2 minors, every product
    reduced before the next (Cohen, GTM 138, 2.2: determinants modulo
    primes).  An integer determinant D with |D| <= H is known exactly
    from these residues whenever DET_MODULUS > 2 H.
    """
    import numpy as np

    a = np.asarray(blocks, dtype=np.int64).transpose(1, 2, 0)
    i, j = np.array(_PAIRS).T
    signs = np.array(_PAIR_SIGNS)[:, None]
    out = np.empty((len(DET_PRIMES), a.shape[-1]), dtype=np.int64)
    for res, p in zip(out, DET_PRIMES):
        x = _mod(a, p)
        top = _mod(x[0, i] * x[1, j] - x[0, j] * x[1, i], p)
        # the pair complementary to pair k of the bottom rows is pair 5 - k
        bottom = _mod(x[2, i] * x[3, j] - x[2, j] * x[3, i], p)[::-1]
        res[:] = _mod((_mod(top * bottom, p) * signs).sum(axis=0), p)
    return out


def _mod(x, p: int):
    """x mod p in [0, p) for an int64 array x and a positive int p, as x - (x // p) p.

    numpy divides an integer array by one scalar several times faster
    than it takes its remainder.
    """
    return x - x // p * p


def _unimodular(ts, exact):
    """True for each n x n int64 transform of `ts` that is unimodular, |det T| = 1.

    `exact` marks the transforms whose float entries were integers held
    exactly.  A 4 x 4 T is certified by det4_residues: det T = +1 or -1
    modulo every prime of DET_PRIMES, with the same sign for all, and
    DET_MODULUS > 2 H + 2 for H its Hadamard bound (the product of its
    row lengths, in float64 with FLOAT_BOUND_MARGIN).  Then det T -+ 1 is
    a multiple of DET_MODULUS of size at most H + 1, so it is 0.
    Residues that are not all +1 or all -1 within the bound prove
    |det T| != 1.  A T past the bound, or of another size, takes
    det_bareiss.
    """
    import numpy as np

    m, n, _ = ts.shape
    ok = np.array(exact, dtype=bool)
    bounded = np.zeros(m, dtype=bool)
    if n == 4:
        hadamard = np.sqrt((ts.astype(np.float64) ** 2).sum(axis=2)).prod(axis=1)
        bounded = 2 * hadamard * FLOAT_BOUND_MARGIN + 2 < float(DET_MODULUS)
        res = det4_residues(ts)
        p = np.array(DET_PRIMES, dtype=np.int64)[:, None]
        ok &= ~bounded | (res == 1).all(axis=0) | (res == p - 1).all(axis=0)
    return [
        good and (bool(inside) or abs(det_bareiss(t.tolist())) == 1)
        for t, good, inside in zip(ts, ok.tolist(), bounded.tolist())
    ]


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
    its rows y.  Returns one entry per lattice, in order: the transform T
    as an n x n int64 array, so that T y is the reduced basis, or None
    where T cannot be certified.  Each T is certified exactly: its float
    entries are finite and below 2^53 in absolute value, hence integers
    that float64 holds exactly, and |det T| = 1 (_unimodular: for a 4 x 4
    T within the Hadamard bound, det T = +1 modulo every prime of
    DET_PRIMES or -1 modulo every one, from one det4_residues over the
    batch; det_bareiss on the int64 rows past the bound or for another
    size), so T y is a basis of the same lattice whatever the floats did.
    A transform that outgrew 2^53 gives None.  How well T y is reduced is
    not part of the contract, and no caller runs lll_gram on T y: the
    census splits T y as it is (census._split_lanes, or
    classgroup.smooth_split with `norm` for a basis those lanes defer).

    All-swap LLL (Villard, "Parallel lattice basis reduction", ISSAC
    1992), in rounds that every lattice takes in lock step.  Each round
    recomputes the Gram-Schmidt data r and mu of every lattice from the
    Gram matrix of its current float rows, fully size-reduces rows 1 ..
    n-1, and swaps every adjacent pair of the round's parity, (0, 1),
    (2, 3), ... in even rounds and (1, 2), ... in odd ones, that fails
    the Lovasz test with delta = 0.99, above lll_gram's 3/4, so that
    lll_gram finds a census lattice's result already reduced.  A lattice
    is done after two rounds in a row without a swap: it is then
    size-reduced and passes the Lovasz test at every pair.  A finished
    lattice is frozen, and each time the number of lattices still being
    reduced falls to half the width of the working arrays, the finished
    ones are copied out and dropped from them.  A census batch takes
    about a third as many rounds as a one-stage-per-pass LLL (Schnorr
    and Euchner, Math. Programming 66, 1994) takes passes: 24 against 64
    for 277's five segments to 24000, 35 against 92 for its 16 segments
    from 10^8.  Only elementwise numpy operations run, with no
    sum across lattices and no BLAS call, and the parity of a round is
    its count, which every lattice starts at 0, so a lattice's T is
    bitwise the same whether it is reduced alone, in any batch or in any
    order.  After FLOAT_LLL_ROUNDS rounds each lattice keeps the
    transform it has.  One round costs about the same for any width, so
    the batch pays only when it is wide (a hundred lattices or more).
    """
    # Imported here rather than at module load, so that the package goes
    # on importing numpy last (through cohomology): with numpy imported
    # first, CPython 3.11 left each process about 1 MB larger.
    import numpy as np

    m = len(bases)
    if m == 0:
        return []
    n = len(frame)
    # Lattice index last, one lane per lattice: bt[i, :n] are the real
    # coordinates of row i, bt[i, n:] its row of T.
    fr = np.array(frame, dtype=np.float64)
    y = np.array(bases, dtype=np.float64).transpose(1, 2, 0)  # y[i, c] holds entry (i, c) of each
    bt = np.zeros((n, 2 * n, m))
    for c in range(n):
        bt[:, :n] += y[:, c, None, :] * fr[c, None, :, None]
    del y
    for i in range(n):
        bt[i, n + i] = 1.0
    live = np.full(m, n > 1)  # True while the lattice is being reduced
    quiet = np.zeros(m, dtype=bool)  # True where the last round swapped nothing
    lattice = np.arange(m)  # the input index of each lane
    found = np.empty((m, n, n))  # each lattice's float T, once it leaves the working arrays
    delta = 0.99
    width = 0  # the working arrays are laid out for this many lanes
    for rounds in range(FLOAT_LLL_ROUNDS):
        count = np.count_nonzero(live)
        if 2 * count <= width or not width:
            done = ~live
            found[lattice[done]] = bt[:, n:, done].transpose(2, 0, 1)
            if not count:
                break
            if count < len(live):
                bt, quiet, lattice = (x.compress(live, axis=-1) for x in (bt, quiet, lattice))
                live = live[live]
            width = count
            g = np.empty((n, n, width))
        # g[i, j] = <b_i, b*_j> on and below the diagonal, so r_j = g[j, j],
        # and mu_ij = g[j, i] above it: first the Gram matrix, each entry
        # summed over the coordinates in a fixed order, then column by column
        b = bt[:, :n]
        for i in range(n):
            gi = g[i, : i + 1]
            np.multiply(b[i, 0], b[: i + 1, 0], out=gi)
            for c in range(1, n):
                gi += b[i, c] * b[: i + 1, c]
        for j in range(n):
            for l in range(j):
                g[j:, j] -= g[l, j] * g[j:, l]
            g[j, j + 1 :] = g[j + 1 :, j] / g[j, j]
        # size-reduce every row i > j against b_j, j = n-2 down to 0; b_j
        # itself is reduced only after that, so mu_jl, l < j, is still its own
        for j in range(n - 2, -1, -1):
            q = np.where(live, np.rint(g[j, j + 1 :]), 0.0)
            bt[j + 1 :] -= q[:, None] * bt[j]
            g[:j, j + 1 :] -= g[:j, j, None] * q
            g[j, j + 1 :] -= q
        # the Lovasz test on the pairs (k-1, k) of this round's parity:
        # (0, 1), (2, 3), ... in even rounds, (1, 2), ... in odd ones
        p = rounds % 2
        flat = g.reshape(n * n, width)
        r, mu = flat[:: n + 1], flat[1 :: n + 1]  # r_k, and mu_k,k-1 at k - 1
        swap = live & (r[p + 1 :: 2] < (delta - mu[p::2] ** 2) * r[p : n - 1 : 2])
        pairs = bt[p : p + 2 * len(swap)].reshape(len(swap), 2, 2 * n, width)
        for s, pair in zip(swap, pairs):
            if s.any():
                pair[...] = np.where(s, pair[::-1], pair)
        # a lattice is done after two rounds in a row without a swap
        moved = swap.any(axis=0)
        live &= moved | ~quiet
        quiet = ~moved
    else:
        found[lattice] = bt[:, n:].transpose(2, 0, 1)
    # finite entries below 2^53 are integers, each held exactly
    exact = (np.abs(found) < 2.0**53).all(axis=(1, 2))
    found[~exact] = 0.0
    ts = found.astype(np.int64)
    del found
    return [t if good else None for t, good in zip(ts, _unimodular(ts, exact))]


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
    cut off.  The float pruning treats c and -c alike, so one vector of
    each pair is enumerated: at a level whose higher coordinates are all
    0 the coordinate starts at 0, not at the negative end of its range.
    At each leaf the exact value c G c^t decides whether c is kept, and
    it is the value returned.  Results are (value, c) pairs sorted by
    value, then by the lesser of c and -c, and c is given with its first
    nonzero coordinate positive.  Raises RuntimeError exactly when more
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
    if n == 0 or not bound > 0:
        return []
    # the center of c_i given c_j, j > i, is -sum_j mu_ji c_j
    mu_col = [[float(mu[j][i]) for j in range(i + 1, n)] for i in range(n)]
    bf = [float(x) for x in b]
    out = []
    c = [0] * n
    # c G c^t = g00 x^2 + x * sum_j cross_j c_j + (the form on c_1..c_n-1), x = c_0
    g00 = gram[0][0]
    cross = [gram[0][j] + gram[j][0] for j in range(1, n)]
    tail = [row[1:] for row in gram[1:]]

    def recurse(i, remaining, top):
        # top: every coordinate above i is 0, so c and -c both pass here
        center = -sum(map(operator.mul, mu_col[i], c[i + 1 :]))
        bi = bf[i]
        half = math.sqrt(remaining / bi)
        x = 0 if top else math.ceil(center - half)
        hi = center + half
        if i:
            while x <= hi:
                d = x - center
                rest = remaining - d * d * bi
                if rest >= 0:
                    c[i] = x
                    recurse(i - 1, rest, top and not x)
                x += 1
            c[i] = 0
            return
        rest_c = c[1:]
        lin = sum(map(operator.mul, cross, rest_c))
        const = sum(ca * sum(map(operator.mul, row, rest_c)) for ca, row in zip(rest_c, tail))
        if top:
            x = 1  # c = 0 is not a vector
        while x <= hi:
            d = x - center
            if remaining - d * d * bi >= 0:
                val = (g00 * x + lin) * x + const
                if val <= bound:
                    c[0] = x
                    vec = tuple(c)
                    neg = tuple(-y for y in vec)
                    out.append((val, min(vec, neg), vec if _first_nonzero_positive(vec) else neg))
                    if 2 * len(out) > limit:
                        raise RuntimeError("short-vector enumeration overflow")
            x += 1
        c[0] = 0

    try:
        recurse(n - 1, float(bound) * (1 + 1e-6), True)
    finally:
        # recurse reaches itself through its closure; without this the
        # cycle would keep `out` alive until the cycle collector runs
        del recurse
    out.sort()
    return [(val, vec) for val, _, vec in out]


def _first_nonzero_positive(vec) -> bool:
    for x in vec:
        if x:
            return x > 0
    return True
