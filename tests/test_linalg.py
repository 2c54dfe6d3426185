"""Lattice kernel: HNF/SNF against sympy, LLL against its own definition."""

import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from a4census import census, linalg
from a4census.arith import det_bareiss, primes_in_range

from conftest import CONDUCTORS
from oracles import fraction_short_vectors

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
    assert linalg.lattice_eq(linalg.hnf(h, ncols=3), h)
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


def _check_certified(bases, got):
    """Each T is integral and unimodular, and T y spans the lattice of y."""
    assert len(got) == len(bases)
    for rows, t in zip(bases, got):
        if t is None:
            continue
        assert all(type(x) is int for row in t for x in row)
        assert abs(det_bareiss([list(r) for r in t])) == 1
        assert linalg.hnf(_apply(t, rows)) == linalg.hnf(rows)


def _check_nearly_reduced(bases, got, gram):
    """T y passes the exact LLL conditions with a little slack (eta 0.51, delta 3/4)."""
    for rows, t in zip(bases, got):
        assert t is not None
        mu, b = _rational_gso(linalg.gram_matrix(_apply(t, rows), gram))
        n = len(rows)
        assert all(abs(mu[i][j]) <= Fraction(51, 100) for i in range(n) for j in range(i))
        assert all(b[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * b[k - 1] for k in range(1, n))


def _check_batch_independent(bases, frame, got):
    """Each lattice's T is the same alone, in the batch and in a shuffled batch."""
    for rows, t in list(zip(bases, got))[:6]:
        assert list(linalg.lll_float_batch([rows], frame)) == [t]
    order = random.Random(len(bases)).sample(range(len(bases)), len(bases))
    shuffled = list(linalg.lll_float_batch([bases[i] for i in order], frame))
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
    assert None not in got
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


def test_lll_float_batch_rejects_an_inexact_transform():
    # this lattice drives its float64 transform past 2^53, where the float
    # arithmetic rounds it to det 64; the exact check must refuse it
    frame = linalg.cholesky_float([[1, 0], [0, 1]])
    assert list(linalg.lll_float_batch([[[0, 5], [-5, 930442927859303]]], frame)) == [None]


def test_lll_float_batch_edge_sizes():
    frame = linalg.cholesky_float([[2, 1], [1, 2]])
    assert list(linalg.lll_float_batch([], frame)) == []
    assert list(linalg.lll_float_batch([[[5]], [[-3]]], ((1.0,),))) == [((1,),), ((1,),)]
    (t,) = linalg.lll_float_batch([[[1, 0], [7, 1]]], frame)
    assert abs(det_bareiss([list(r) for r in t])) == 1
    assert linalg.hnf(_apply(t, [[1, 0], [7, 1]])) == [(1, 0), (0, 1)]


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
        for limit in {max(qualifying - 1, 0), qualifying}:
            want = expected if qualifying <= limit else "overflow"
            assert _outcome(linalg.short_vectors, gram, bound, limit) == want
            assert _outcome(fraction_short_vectors, gram, bound, limit) == want


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
