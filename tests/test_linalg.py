"""Lattice kernel: HNF/SNF against sympy, LLL against its own definition."""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from a4census import census, linalg
from a4census.arith import det_bareiss, primes_in_range
from a4census.classgroup import ideal_short_elements
from a4census.config import Config

from conftest import CONDUCTORS
from oracles import fraction_short_vectors, loop_smith_normal_form, numpy_rref_mod_p

mat3 = st.lists(
    st.lists(st.integers(min_value=-20, max_value=20), min_size=3, max_size=3),
    min_size=3,
    max_size=4,
)


@given(mat3)
@settings(max_examples=80)
def test_hnf_spans_same_lattice(rows):
    h = linalg.hnf(rows, ncols=3)
    # every input row is in the HNF lattice
    for r in rows:
        if not any(r):
            continue
        assert _in_span(h, r)
    # every HNF row is an integer combination of input rows (mutual inclusion
    # via sympy's HNF of the same stack)
    nonzero = [r for r in rows if any(r)]
    if nonzero and len(h) == 3:
        ours = sympy.Matrix(h).det()
        theirs_rows = _sympy_row_hnf(nonzero)
        if len(theirs_rows) == 3:
            assert abs(ours) == abs(sympy.Matrix(theirs_rows).det())


def _sympy_row_hnf(rows):
    # sympy's hermite_normal_form works on columns; transpose twice
    m = sympy.Matrix(rows).T
    try:
        h = hermite_normal_form(m)
    except Exception:
        return []
    return [list(c) for c in h.T.tolist() if any(c)]


def _in_span(h, v):
    if not h:
        return not any(v)
    ncols = len(h[0])
    t = list(v)
    rows = {next(j for j, x in enumerate(r) if x): r for r in h}
    for col in range(ncols):
        if t[col] == 0:
            continue
        r = rows.get(col)
        if r is None or t[col] % r[col] != 0:
            return False
        q = t[col] // r[col]
        for j in range(col, ncols):
            t[j] -= q * r[j]
    return not any(t)


@given(mat3)
@settings(max_examples=60)
def test_hnf_is_canonical(rows):
    h = linalg.hnf(rows, ncols=3)
    assert linalg.hnf(h, ncols=3) == h
    for i, r in enumerate(h):
        piv_col = next(j for j, x in enumerate(r) if x)
        assert r[piv_col] > 0
        for other in h[:i]:
            assert 0 <= other[piv_col] < r[piv_col]


def test_hnf_solve_roundtrip():
    h = linalg.hnf([[2, 1, 0], [0, 3, 1], [0, 0, 5]])
    target = [2 * 2 + 0, 2 * 1 + 3 * 3, 3 * 1 + 4 * 5]
    coeffs = linalg.hnf_solve(h, target)
    assert coeffs is not None
    rebuilt = [sum(c * h[i][j] for i, c in enumerate(coeffs)) for j in range(3)]
    assert rebuilt == target
    assert linalg.hnf_solve(h, [1, 0, 0]) is None


@given(mat3)
@settings(max_examples=60)
def test_smith_normal_form_matches_sympy(rows):
    divisors, v = linalg.smith_normal_form(rows)
    m, n = len(rows), len(rows[0])
    # V is unimodular
    assert abs(sympy.Matrix(v).det()) == 1
    # a unimodular U with U A V = D exists exactly when A V and D span
    # the same row lattice
    av = [[int(x) for x in r] for r in (sympy.Matrix(rows) * sympy.Matrix(v)).tolist()]
    diag = [[divisors[i] if i == j else 0 for j in range(n)] for i in range(min(m, n))]
    assert linalg.hnf(av, ncols=n) == linalg.hnf(diag, ncols=n)
    # nonnegative divisors in a divisibility chain
    assert all(x >= 0 for x in divisors)
    nz = [x for x in divisors if x]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    theirs = smith_normal_form(sympy.Matrix(rows))
    for i, x in enumerate(divisors):
        assert abs(theirs[i, i]) == abs(x)


@pytest.fixture(scope="module")
def load_kernel_calls():
    """The inputs of every Smith form and short-vector enumeration of cold
    loads of the three conductors, fields searched, nothing cached."""
    calls = {"smith": [], "short": []}
    real_smith, real_short = linalg.smith_normal_form, linalg.short_vectors

    def smith(mat, nrows=None, ncols=None):
        calls["smith"].append(([list(r) for r in mat], nrows, ncols))
        return real_smith(mat, nrows, ncols)

    def short(gram, bound, limit=100000):
        calls["short"].append(([list(r) for r in gram], bound, limit))
        return real_short(gram, bound, limit)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "smith_normal_form", smith)
        mp.setattr(linalg, "short_vectors", short)
        for ell in CONDUCTORS:
            census.load_conductor(Config(ell=ell, use_cache=False))
    return calls


def _order_relations(cg, count):
    """The first `count` distinct relations over cg's factor base among the
    short elements of the maximal order, in the stream's order."""
    K, ctx = cg.field, cg.fb_ctx
    ring = [tuple(int(i == j) for j in range(K.degree)) for i in range(K.degree)]
    rows = {}
    for el in ideal_short_elements(K, ring):
        vec = ctx.cofactor(el, abs(K.el_norm(el)), ring, 1, {})
        if vec is not None and any(vec):
            rows.setdefault(vec, None)
            if len(rows) == count:
                return [list(v) for v in rows]
    raise AssertionError(f"fewer than {count} relations in the stream")


def test_smith_normal_form_of_the_loads_matches_the_loop_oracle(load_kernel_calls, conductor):
    # the relation matrices of both class groups at every round, and the
    # stability check's integer presentation, for 163, 277 and 349; the
    # harvest stops at its targets, so a taller relation matrix comes from
    # here: 201 relations of the maximal order of L of 277, 22 columns
    cg = conductor(277).cg_L
    tall = _order_relations(cg, 201)
    calls = load_kernel_calls["smith"] + [(tall, len(tall), len(cg.factor_base))]
    assert any(len(mat) > 200 for mat, _, _ in calls)
    for mat, nrows, ncols in calls:
        assert linalg.smith_normal_form(mat, nrows, ncols) == loop_smith_normal_form(mat, nrows, ncols)


def test_smith_normal_form_of_sparse_matrices_matches_the_loop_oracle():
    # small sparse entries, as in relation matrices, taller or wider than
    # square, with zero rows padded below; at half the entries nonzero the
    # entries of some random matrices explode, so a quarter are
    rng = random.Random(24)

    def entry():
        return rng.choice((1, -1, 2, -2, 3, -3, 4, 6)) if rng.random() < 0.25 else 0

    for _ in range(300):
        m, n, pad = rng.randint(1, 30), rng.randint(1, 9), rng.randint(0, 3)
        rows = [[entry() for _ in range(n)] for _ in range(m)]
        got = linalg.smith_normal_form(rows, m + pad, n)
        assert got == loop_smith_normal_form(rows, m + pad, n)


# ---------------------------------------------------------------------------
# LLL on Gram matrices: verified against the definition, not an oracle.


def _rational_gso(gram):
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
    return mu, b


def _transformed_gram(gram, t):
    n = len(t)
    m = len(gram)
    rows = [[sum(t[i][a] * gram[a][b] for a in range(m)) for b in range(m)] for i in range(n)]
    return [[sum(rows[i][b] * t[j][b] for b in range(m)) for j in range(n)] for i in range(n)]


def _check_reduced(gram, t, reduced_gram, delta=Fraction(3, 4)):
    assert abs(det_bareiss([list(r) for r in t])) == 1
    g2 = _transformed_gram(gram, t)
    assert [list(r) for r in reduced_gram] == g2  # the returned Gram is T G T^t
    mu, b = _rational_gso(g2)
    n = len(g2)
    for i in range(n):
        for j in range(i):
            assert abs(mu[i][j]) <= Fraction(1, 2)
    for k in range(1, n):
        assert b[k] >= (delta - mu[k][k - 1] ** 2) * b[k - 1]


basis_strategy = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-40, max_value=40), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).filter(lambda rows: det_bareiss([list(r) for r in rows]) != 0)
)


@given(basis_strategy)
@settings(max_examples=80, deadline=None)
def test_lll_gram_produces_reduced_basis(rows):
    n = len(rows)
    gram = [[sum(rows[i][k] * rows[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    t, reduced_gram = linalg.lll_gram(gram)
    _check_reduced(gram, t, reduced_gram)


@given(st.integers(min_value=5, max_value=10**5).filter(lambda v: v % 3 == 1))
@settings(max_examples=25, deadline=None)
def test_lll_gram_on_census_shaped_lattices(v):
    # lattices of the prime-ideal kind: (v^3, 0, ...) plus shifted rows
    r = v // 2
    rows = [
        [v**3, 0, 0, 0],
        [r, 1, 0, 0],
        [r * r % v**3, 0, 1, 0],
        [pow(r, 3, v**3), 0, 0, 1],
    ]
    gram = [[sum(a * b for a, b in zip(x, y)) for y in rows] for x in rows]
    t, reduced_gram = linalg.lll_gram(gram)
    _check_reduced(gram, t, reduced_gram)


# ---------------------------------------------------------------------------
# The batched float LLL: certified transforms, independent of the batch.


def _apply(t, rows):
    return [[sum(a * b for a, b in zip(tr, col)) for col in zip(*rows)] for tr in t]


def _lists(got):
    """The transforms as nested lists of Python integers, None kept."""
    return [None if t is None else t.tolist() for t in got]


def _check_certified(bases, got):
    """Each T is an n x n int64 array, unimodular, and T y spans the lattice of y."""
    assert len(got) == len(bases)
    for rows, t in zip(bases, got):
        if t is None:
            continue
        assert t.dtype == np.int64 and t.shape == (len(rows), len(rows))
        assert abs(det_bareiss(t.tolist())) == 1
        assert linalg.hnf(_apply(t.tolist(), rows)) == linalg.hnf(rows)


def _check_nearly_reduced(bases, got, gram):
    """T y passes the exact LLL conditions with a little slack (eta 0.51, delta 3/4)."""
    for rows, t in zip(bases, got):
        assert t is not None
        mu, b = _rational_gso(linalg.gram_matrix(_apply(t.tolist(), rows), gram))
        n = len(rows)
        assert all(abs(mu[i][j]) <= Fraction(51, 100) for i in range(n) for j in range(i))
        assert all(b[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * b[k - 1] for k in range(1, n))


def _check_batch_independent(bases, frame, got):
    """Each lattice's T is the same alone, in the batch and in a shuffled batch."""
    got = _lists(got)
    for rows, t in list(zip(bases, got))[:6]:
        assert _lists(linalg.lll_float_batch([rows], frame)) == [t]
    order = random.Random(len(bases)).sample(range(len(bases)), len(bases))
    shuffled = _lists(linalg.lll_float_batch([bases[i] for i in order], frame))
    assert [shuffled[order.index(i)] for i in range(len(bases))] == got


def _census_v1(cd, lo, count):
    """v1 HNFs of the first `count` C3 primes from lo, as the census builds them."""
    out = []
    for v in primes_in_range(lo, lo + 10**5):
        pre = census._c3_setup(cd, v)
        if not isinstance(pre, census.PrimeClassification):
            out.append(pre[1])
            if len(out) == count:
                break
    return out


@pytest.mark.parametrize("ell", CONDUCTORS)
@pytest.mark.parametrize("x", [10**6, 10**8, 2 * 10**9])
def test_lll_float_batch_on_census_lattices(conductor, ell, x):
    cd = conductor(ell)
    bases = _census_v1(cd, x, 40)
    assert len(bases) == 40
    got = list(linalg.lll_float_batch(bases, cd.frame))
    _check_certified(bases, got)
    _check_nearly_reduced(bases, got, cd.F.trace_gram)
    _check_batch_independent(bases, cd.frame, got)


@pytest.mark.parametrize("ell", CONDUCTORS)
@pytest.mark.parametrize("x", [10**6, 10**8, 2 * 10**9])
def test_lll_float_batch_output_is_already_lll_gram_reduced(conductor, ell, x):
    # delta = 0.99 in floats against lll_gram's exact 3/4, and |mu| <= 1/2
    # exactly: lll_gram on the exact Gram matrix of T y moves nothing
    cd = conductor(ell)
    bases = _census_v1(cd, x, 40)
    identity = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    for rows, t in zip(bases, linalg.lll_float_batch(bases, cd.frame)):
        gram = linalg.gram_matrix(_apply(t.tolist(), rows), cd.F.trace_gram)
        assert linalg.lll_gram(gram) == (identity, gram)


nonsingular4 = st.lists(
    st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=4, max_size=4),
    min_size=4,
    max_size=4,
).filter(lambda rows: det_bareiss(rows) != 0)


# Rows of D A with A strictly diagonally dominant (|a_ii| >= 16, off the
# diagonal |a_ij| <= 3) and D a diagonal of scales: A is well conditioned,
# and a diagonal scaling does not hurt the accuracy of a float Cholesky
# factor, so cholesky_float never meets a form that float64 cannot tell
# from a singular one.
well_conditioned4 = st.tuples(
    st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    ),
    st.lists(st.integers(min_value=1, max_value=1000), min_size=4, max_size=4),
    st.lists(st.sampled_from([-1, 1]), min_size=4, max_size=4),
).map(
    lambda a: [
        [d * (x + s * 16 * (i == j)) for j, x in enumerate(row)]
        for i, (row, d, s) in enumerate(zip(*a))
    ]
)


@given(st.lists(nonsingular4, min_size=1, max_size=6), well_conditioned4)
@settings(max_examples=60, deadline=None)
def test_lll_float_batch_on_random_lattices(bases, form):
    # a positive definite form: the Gram matrix A A^t of a nonsingular A
    gram = [[sum(a * b for a, b in zip(x, y)) for y in form] for x in form]
    frame = linalg.cholesky_float(gram)
    got = list(linalg.lll_float_batch(bases, frame))
    assert all(t is not None for t in got)
    _check_certified(bases, got)
    _check_batch_independent(bases, frame, got)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # nan lanes of near-singular lattices
@given(
    st.lists(
        st.lists(
            st.lists(st.integers(min_value=-(10**25), max_value=10**25), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        ).filter(lambda rows: det_bareiss(rows) != 0),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=40, deadline=None)
def test_lll_float_batch_beyond_float_precision(bases):
    # entries far past 2^53: a transform is either certified or None
    frame = linalg.cholesky_float([[int(i == j) for j in range(4)] for i in range(4)])
    _check_certified(bases, list(linalg.lll_float_batch(bases, frame)))


@pytest.mark.parametrize("ell", CONDUCTORS)
def test_lll_float_batch_compaction_keeps_each_transform(conductor, ell):
    # Already reduced lattices finish within a few passes and raw HNFs
    # take dozens, so with 20 of the one and 10 of the other the live
    # count falls to a third while the raw ones go on, and the batch drops
    # the finished lattices from its working arrays; each lattice still
    # gets the T it gets alone, in either order of the mix.
    cd = conductor(ell)
    raw = _census_v1(cd, 10**7, 30)
    done = []
    for rows, t in zip(raw[:20], linalg.lll_float_batch(raw[:20], cd.frame)):
        done.append(_apply(t.tolist(), rows))
    for mix in (done + raw[20:], raw[20:] + done):
        got = list(linalg.lll_float_batch(mix, cd.frame))
        _check_certified(mix, got)
        alone = [linalg.lll_float_batch([rows], cd.frame)[0] for rows in mix]
        assert _lists(got) == _lists(alone)
    # a reduced lattice keeps its basis
    again = linalg.lll_float_batch(done, cd.frame)
    assert all(t.tolist() == np.eye(4, dtype=np.int64).tolist() for t in again)


def test_lll_float_batch_certifies_int64_transforms(conductor):
    # each certified T is an n x n int64 array of Python-integer rows with
    # |det_bareiss| = 1, and T y spans the lattice of y
    cd = conductor(277)
    bases = _census_v1(cd, 10**8, 20)
    got = linalg.lll_float_batch(bases, cd.frame)
    assert isinstance(got, list) and len(got) == 20
    for rows, t in zip(bases, got):
        assert t.dtype == np.int64 and t.shape == (4, 4)
        assert all(type(x) is int for row in t.tolist() for x in row)
        assert abs(det_bareiss(t.tolist())) == 1
    _check_certified(bases, got)


def test_lll_float_batch_rejects_an_inexact_transform():
    # reducing this lattice takes a row of T to -10^20, past 2^53, where
    # float64 no longer holds every integer; the exact check must refuse it
    frame = linalg.cholesky_float([[1, 0], [0, 1]])
    assert list(linalg.lll_float_batch([[[1, 0], [10**20, 1]]], frame)) == [None]
    # a transform that stays below 2^53 is certified even where the basis
    # does not: T y = [[0, 5], [-5, -2]]
    bases = [[[0, 5], [-5, 930442927859303]]]
    (t,) = got = linalg.lll_float_batch(bases, frame)
    _check_certified(bases, got)
    assert _apply(t.tolist(), bases[0]) == [[0, 5], [-5, -2]]


def test_lll_float_batch_edge_sizes():
    frame = linalg.cholesky_float([[2, 1], [1, 2]])
    assert list(linalg.lll_float_batch([], frame)) == []
    assert _lists(linalg.lll_float_batch([[[5]], [[-3]]], ((1.0,),))) == [[[1]], [[1]]]
    (t,) = linalg.lll_float_batch([[[1, 0], [7, 1]]], frame)
    _check_certified([[[1, 0], [7, 1]]], [t])
    assert linalg.hnf(_apply(t.tolist(), [[1, 0], [7, 1]])) == [(1, 0), (0, 1)]


def _det4_blocks(seed, count):
    """Seeded 4 x 4 integer blocks: det 0, det +-1, and entries near 2^31, 2^62 and 2^63."""
    rng = random.Random(seed)
    blocks = []
    for k in range(count):
        kind = k % 5
        if kind == 0:  # a repeated row, det 0
            rows = [[rng.randrange(-(2**40), 2**40) for _ in range(4)] for _ in range(3)]
            rows.append(list(rows[1]))
        elif kind == 1:  # a product of elementary matrices, det +-1
            rows = [[int(i == j) for j in range(4)] for i in range(4)]
            for _ in range(12):
                i, j = rng.sample(range(4), 2)
                q = rng.randrange(-9, 10)
                rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
            if rng.random() < 0.5:
                rows[0], rows[1] = rows[1], rows[0]
        else:
            top = (2**31, 2**62, 2**63)[kind - 2]
            rows = [[rng.randrange(-top, top) for _ in range(4)] for _ in range(4)]
        blocks.append(rows)
    return blocks


def test_det4_residues_match_det_bareiss():
    blocks = _det4_blocks(26, 400)
    got = linalg.det4_residues(np.array(blocks, dtype=np.int64))
    assert got.dtype == np.int64 and got.shape == (len(linalg.DET_PRIMES), len(blocks))
    dets = [det_bareiss(b) for b in blocks]
    assert {d for d in dets[0::5]} == {0} and {abs(d) for d in dets[1::5]} == {1}
    for k, d in enumerate(dets):
        assert got[:, k].tolist() == [d % p for p in linalg.DET_PRIMES], k
    assert linalg.det4_residues(np.zeros((0, 4, 4), dtype=np.int64)).shape == (4, 0)


def test_det4_primes_are_the_primes_below_2_31():
    assert linalg.DET_PRIMES == tuple(sorted(sympy.primerange(2**31 - 80, 2**31), reverse=True))
    assert linalg.DET_MODULUS == np.prod([sympy.Integer(p) for p in linalg.DET_PRIMES])


def test_lll_float_batch_certifies_without_det_bareiss(conductor, monkeypatch):
    # every census transform lies within the Hadamard bound: none takes
    # det_bareiss, and each one it certifies has |det_bareiss| = 1
    cd = conductor(277)
    bases = _census_v1(cd, 10**8, 40) + _census_v1(cd, 2**30 - 10**5, 40)
    calls = []
    monkeypatch.setattr(linalg, "det_bareiss", lambda rows: calls.append(rows) or det_bareiss(rows))
    got = linalg.lll_float_batch(bases, cd.frame)
    assert calls == [] and all(t is not None for t in got)
    _check_certified(bases, got)


def test_lll_float_batch_unimodular_certificate():
    # det 1, -1, 0, 2 and -2 inside the bound; past it det_bareiss decides
    blocks = [
        [[1, 5, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[2, 7, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 2, 0, 0], [1, 9, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 2**40, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2**40], [0, 0, 0, 1]],
        [[2, 2**40, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2**40], [0, 0, 0, 1]],
    ]
    ts = np.array(blocks, dtype=np.int64)
    exact = np.ones(len(blocks), dtype=bool)
    assert linalg._unimodular(ts, exact) == [True, True, False, False, False, True, False]
    exact[0] = False
    assert linalg._unimodular(ts, exact)[0] is False
    # transforms of another size take det_bareiss
    two = np.array([[[1, 3], [0, 1]], [[2, 0], [0, 1]]], dtype=np.int64)
    assert linalg._unimodular(two, np.ones(2, dtype=bool)) == [True, False]


def test_lll_float_batch_past_the_hadamard_bound_takes_det_bareiss(conductor, monkeypatch):
    # with DET_MODULUS lowered to the median of the transforms' 2 H + 2,
    # exactly the transforms at or past it take det_bareiss, and every T
    # comes back the same
    cd = conductor(349)
    bases = _census_v1(cd, 10**6, 40)
    want = _lists(linalg.lll_float_batch(bases, cd.frame))
    sizes = []
    for t in want:
        h = float(np.prod(np.sqrt((np.array(t, dtype=np.float64) ** 2).sum(axis=1))))
        sizes.append(2 * h * linalg.FLOAT_BOUND_MARGIN + 2)
    bound = sorted(sizes)[len(sizes) // 2]
    calls = []
    monkeypatch.setattr(linalg, "DET_MODULUS", int(bound))
    monkeypatch.setattr(linalg, "det_bareiss", lambda rows: calls.append(rows) or det_bareiss(rows))
    assert _lists(linalg.lll_float_batch(bases, cd.frame)) == want
    assert 0 < len(calls) < len(bases)
    assert sorted(map(str, calls)) == sorted(str(t) for t, s in zip(want, sizes) if s >= int(bound))


def test_lll_float_batch_returns_none_for_a_forced_non_unimodular_transform(conductor, monkeypatch):
    # one transform with a row doubled (det +-2, well inside the bound)
    # before it is certified comes back None; the others are unchanged
    cd = conductor(163)
    bases = _census_v1(cd, 10**6, 12)
    want = _lists(linalg.lll_float_batch(bases, cd.frame))
    certify = linalg._unimodular

    def doubled(ts, exact):
        ts[5, 2] *= 2
        return certify(ts, exact)

    monkeypatch.setattr(linalg, "_unimodular", doubled)
    got = _lists(linalg.lll_float_batch(bases, cd.frame))
    assert got[5] is None
    assert got[:5] + got[6:] == want[:5] + want[6:]


def test_cholesky_float_factors_the_form():
    gram = [[6, 2, 1], [2, 5, 2], [1, 2, 4]]
    low = linalg.cholesky_float(gram)
    for i in range(3):
        for j in range(3):
            assert abs(sum(low[i][c] * low[j][c] for c in range(3)) - gram[i][j]) < 1e-12
            assert j <= i or low[i][j] == 0.0
    with pytest.raises(ValueError):
        linalg.cholesky_float([[1, 2], [2, 1]])


def test_lll_gram_rejects_indefinite_forms():
    with pytest.raises(ValueError):
        linalg.lll_gram([[1, 0], [0, -1]])


def test_short_vectors_finds_the_minimum():
    rows = [[5, 1], [1, 4]]
    gram = [[sum(a * b for a, b in zip(x, y)) for y in rows] for x in rows]
    got = linalg.short_vectors(gram, 60)
    # brute force over a coefficient box, up to sign
    best = None
    for c1, c2 in product(range(-6, 7), repeat=2):
        if (c1, c2) == (0, 0):
            continue
        val = sum((c1 * rows[0][k] + c2 * rows[1][k]) ** 2 for k in range(2))
        if best is None or val < best:
            best = val
    vals = []
    for val, c in got:
        direct = sum(c[a] * gram[a][b] * c[b] for a in range(2) for b in range(2))
        assert val == direct
        vals.append(val)
    assert vals == sorted(vals)
    assert vals[0] == best


def _outcome(fn, gram, bound, limit):
    try:
        return fn(gram, bound, limit)
    except RuntimeError:
        return "overflow"


short_vector_case = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.lists(st.integers(min_value=-5, max_value=5), min_size=n, max_size=n), min_size=n, max_size=n
        ),
        st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n),
        st.integers(min_value=0, max_value=120),
    )
)


@given(short_vector_case)
@settings(max_examples=150, deadline=None)
def test_short_vectors_match_the_fraction_oracle(case):
    # Gram matrices of random bases; one bound is the value of a lattice
    # vector (attained exactly), the other arbitrary.  A singular basis
    # gives a semidefinite form, which both reject.
    rows, c, other = case
    n = len(rows)
    gram = [[sum(a * b for a, b in zip(x, y)) for y in rows] for x in rows]
    if det_bareiss(gram) == 0:
        for fn in (linalg.short_vectors, fraction_short_vectors):
            with pytest.raises(ValueError):
                fn(gram, other)
        return
    attained = sum(c[i] * gram[i][j] * c[j] for i in range(n) for j in range(n))
    for bound in (attained, other):
        expected = _outcome(fraction_short_vectors, gram, bound, 2000)
        assert _outcome(linalg.short_vectors, gram, bound, 2000) == expected
        if expected == "overflow":
            continue
        assert bound != attained or not any(c) or expected[-1][0] == attained
        # the overflow comes at the same limit: c and -c count apart
        qualifying = 2 * len(expected)
        for limit in {max(qualifying - 1, 0), qualifying, qualifying + 1}:
            want = expected if qualifying <= limit else "overflow"
            assert _outcome(linalg.short_vectors, gram, bound, limit) == want
            assert _outcome(fraction_short_vectors, gram, bound, limit) == want


def test_short_vectors_of_the_loads_match_the_fraction_oracle(load_kernel_calls):
    # every enumeration of the three loads, and the overflow at the three
    # limits around twice the number of pairs
    calls = load_kernel_calls["short"]
    assert calls
    for gram, bound, limit in calls:
        expected = _outcome(fraction_short_vectors, gram, bound, limit)
        assert _outcome(linalg.short_vectors, gram, bound, limit) == expected
        if expected == "overflow":
            continue
        qualifying = 2 * len(expected)
        for edge in (qualifying - 1, qualifying, qualifying + 1):
            want = expected if qualifying <= edge else "overflow"
            assert _outcome(linalg.short_vectors, gram, bound, edge) == want


def _loop_gram(rows, form):
    k, m = len(rows), len(form)
    return [
        [sum(rows[i][a] * form[a][b] * rows[j][b] for a in range(m) for b in range(m)) for j in range(k)]
        for i in range(k)
    ]


gram_case = st.integers(min_value=1, max_value=5).flatmap(
    lambda m: st.tuples(
        st.lists(
            st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=m, max_size=m),
            min_size=0,
            max_size=7,
        ),
        st.lists(
            st.lists(st.integers(min_value=-50, max_value=50), min_size=m, max_size=m), min_size=m, max_size=m
        ),
    )
)


@given(gram_case)
@settings(max_examples=150)
def test_gram_matrix_matches_the_triple_loop(case):
    # any number of rows against an m x m form, not necessarily symmetric
    rows, form = case
    assert linalg.gram_matrix(rows, form) == _loop_gram(rows, form)


def test_rref_mod_p_and_residual():
    rows = [[1, 2, 0, 1], [0, 1, 1, 1], [1, 0, 1, 2]]
    rref, pivots = linalg.rref_mod_p(rows, 4, 3)
    for r in rref:
        assert any(r)
    # residual vanishes exactly on the row span
    span = set()
    for a in range(3):
        for b in range(3):
            for c in range(3):
                vec = tuple(
                    (a * rows[0][j] + b * rows[1][j] + c * rows[2][j]) % 3 for j in range(4)
                )
                span.add(vec)
    for vec in product(range(3), repeat=4):
        res = linalg.residual_mod_p(rref, pivots, list(vec), 3)
        assert (not any(res)) == (tuple(vec) in span)


def test_kernel_mod_p():
    rows = [[1, 1, 1], [2, 2, 2]]
    basis = linalg.kernel_mod_p(rows, 3, 3)
    assert len(basis) == 2
    for k in basis:
        for r in rows:
            assert sum(a * b for a, b in zip(k, r)) % 3 == 0


# rref_mod_p eliminates in Python ints at every p; its numpy oracle in int64
# below 2^31 (2^31 - 1 at its bound) and in Python ints above (2^61 - 1
# would overflow int64 products)
_RREF_PRIMES = (2, 3, 5, 163, 2**31 - 1, 2**31 + 11, 2**61 - 1)


def _rref_cases(p):
    """Seeded row lists: wider than ncols, with zero and repeated rows,
    more rows than columns, and residues near p besides small ones."""
    rng = random.Random(p)
    for _ in range(40):
        ncols = rng.randrange(1, 9)
        width = ncols + rng.choice((0, 0, 1, 3))
        rows = []
        for _ in range(rng.randrange(1, 2 * ncols + 3)):
            kind = rng.random()
            if kind < 0.1:
                rows.append([0] * width)
            elif kind < 0.2 and rows:
                rows.append(list(rng.choice(rows)))
            else:
                rows.append([rng.randrange(-2 * p, 2 * p) if rng.random() < 0.6 else 0 for _ in range(width)])
        yield rows, ncols


@pytest.mark.parametrize("p", _RREF_PRIMES)
def test_rref_mod_p_matches_the_numpy_oracle(p):
    for rows, ncols in _rref_cases(p):
        red, pivots = linalg.rref_mod_p(rows, ncols, p)
        assert (red, pivots) == numpy_rref_mod_p(rows, ncols, p), (rows, ncols)
        assert all(type(x) is int for r in red for x in r)


@pytest.mark.parametrize("p", _RREF_PRIMES)
def test_kernel_mod_p_on_the_rref_cases(p):
    for rows, ncols in _rref_cases(p):
        rows = [r[:ncols] for r in rows]
        basis = linalg.kernel_mod_p(rows, ncols, p)
        assert len(basis) == ncols - len(numpy_rref_mod_p(rows, ncols, p)[1])
        for k in basis:
            for r in rows:
                assert sum(a * b for a, b in zip(r, k)) % p == 0
        assert len(numpy_rref_mod_p(basis, ncols, p)[0]) == len(basis)


@pytest.mark.parametrize("p", (3, 2**61 - 1))
def test_rref_mod_p_of_no_rows_and_zero_rows(p):
    assert linalg.rref_mod_p([], 3, p) == ([], [])
    assert linalg.rref_mod_p([[0, p, -p], [0, 0, 0]], 3, p) == ([], [])
    assert linalg.kernel_mod_p([], 3, p) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    with pytest.raises(ValueError):
        linalg.rref_mod_p([[1, 2], [1, 2, 0]], 2, p)
