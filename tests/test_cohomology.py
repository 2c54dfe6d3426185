"""Local-dimension bookkeeping and the simulators."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a4census.cohomology import (
    CHUNK,
    LineModel,
    LocalDatum,
    balanced_preset,
    local_dims_preset,
    simulate_line_model,
    simulate_unramified_probability,
    wiles_difference,
)
from a4census.stats import (
    CountRow,
    binomial_z,
    density_report,
    deviation_metric,
    independence_chi2,
    render_report,
)


def test_preset_constants():
    assert (local_dims_preset("at3").dim_N, local_dims_preset("at3").dim_H0) == (4, 1)
    assert (local_dims_preset("atinf").dim_N, local_dims_preset("atinf").dim_H0) == (0, 3)
    assert (local_dims_preset("atell").dim_N, local_dims_preset("atell").dim_H0) == (1, 1)
    assert (local_dims_preset("auxC3").dim_N, local_dims_preset("auxC3").dim_H0) == (1, 1)
    nice = local_dims_preset("nice", 7)
    assert (nice.dim_N, nice.dim_H0) == (1, 1)
    assert nice.place == "nice(7)"


def test_preset_errors():
    with pytest.raises(ValueError):
        local_dims_preset("at5")
    with pytest.raises(ValueError):
        local_dims_preset("nice")  # needs a prime
    with pytest.raises(ValueError):
        local_dims_preset("nice", 4)
    with pytest.raises(ValueError):
        local_dims_preset("nice", 2)


def test_local_datum_validates():
    with pytest.raises(ValueError):
        LocalDatum("x", -1, 0)


def test_wiles_difference_balanced():
    base = balanced_preset()
    assert wiles_difference(0, 0, base) == 0
    # appending auxiliary primes keeps the configuration balanced
    for k in range(1, 11):
        aug = base + [local_dims_preset("auxC3")] * k
        assert wiles_difference(0, 0, aug) == 0
    mixed = base + [local_dims_preset("nice", 5), local_dims_preset("nice", 7)]
    assert wiles_difference(0, 0, mixed) == 0


def test_wiles_difference_trivial():
    assert wiles_difference(2, 2, []) == 0
    assert wiles_difference(3, 1, []) == 2


dims = st.integers(min_value=0, max_value=9)
datum = st.builds(LocalDatum, st.just("x"), dims, dims)


@given(st.lists(datum, max_size=6), st.lists(datum, max_size=6), dims, dims)
@settings(max_examples=60)
def test_wiles_difference_additive(a, b, h0, h0d):
    total = wiles_difference(h0, h0d, a + b)
    assert total == wiles_difference(0, 0, a) + wiles_difference(h0, h0d, b)


# ---------------------------------------------------------------------------
# Line model.


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_line_count_identity(p):
    model = LineModel(p)
    assert (p * p - 1) // (p - 1) == p + 1
    assert model.lines == p
    assert model.success_probability() == Fraction(p - 1, p)


def test_line_model_rejects_bad_p():
    with pytest.raises(ValueError):
        LineModel(4)
    with pytest.raises(ValueError):
        LineModel(2)


def test_simulate_line_model_deterministic():
    a = simulate_line_model(3, 12345, seed=7)
    b = simulate_line_model(3, 12345, seed=7)
    assert a == b
    c = simulate_line_model(3, 12345, seed=8)
    assert a[0] != c[0]  # astronomically unlikely to collide


def test_simulate_single_trial():
    est, _ = simulate_line_model(3, 1, seed=0)
    assert est in (0.0, 1.0)
    assert simulate_line_model(3, 1, seed=0)[0] == est


def test_simulate_line_model_errors():
    with pytest.raises(ValueError):
        simulate_line_model(3, 0)
    with pytest.raises(ValueError):
        simulate_line_model(3, 10, seed=-1)


def test_simulate_partial_last_chunk():
    # trials straddling a chunk boundary must agree with the prefix sums
    t = CHUNK + CHUNK // 2
    est, _ = simulate_line_model(3, t, seed=3)
    assert 0.5 < est < 0.8


def test_line_model_convergence_property():
    # at T = 1e4 the estimate misses (p-1)/p by 5 model sigmas at most
    # once per thousand seeds
    p, trials = 3, 10**4
    bound = 5 * math.sqrt((p - 1) / (p * p * trials))
    misses = 0
    for seed in range(1000):
        est, _ = simulate_line_model(p, trials, seed=seed)
        if abs(est - (p - 1) / p) >= bound:
            misses += 1
    assert misses <= 1


def test_unramified_probability_levels():
    freqs = simulate_unramified_probability(4, 200000, seed=11)
    assert len(freqs) == 4
    for n, freq in enumerate(freqs, start=1):
        q = 3**-n
        sigma = math.sqrt(q * (1 - q) / 200000)
        assert abs(freq - q) < 4 * sigma


def test_unramified_probability_errors():
    with pytest.raises(ValueError):
        simulate_unramified_probability(4, 0)
    with pytest.raises(ValueError):
        simulate_unramified_probability(0, 100)


# ---------------------------------------------------------------------------
# The census-facing observable.


def test_line_density_z_synthetic():
    perfect = CountRow(n=100, c3=60, c_lambda=40, c_taubar=20, c_both=13)
    assert density_report(perfect).z_lambda == 0.0
    blocked = CountRow(n=100, c3=60, c_lambda=1, c_taubar=20, c_both=0)
    assert density_report(blocked).z_lambda < -10
    # with no prime in Lambda (or all of C3 in one condition) the 2x2
    # independence table has an empty margin: the z-scores stand, chi2 is None
    for c_lambda, c_taubar, c_both in ((0, 20, 0), (60, 20, 20), (40, 0, 0), (40, 60, 40)):
        row = CountRow(n=100, c3=60, c_lambda=c_lambda, c_taubar=c_taubar, c_both=c_both)
        rep = density_report(row)
        assert rep.chi2 is None
        assert rep.z_lambda == binomial_z(c_lambda, 60, Fraction(2, 3))
        assert rep.z_taubar == binomial_z(c_taubar, 60, Fraction(1, 3))
        assert rep.deviation == deviation_metric(60, c_lambda)
        assert "undefined (degenerate margins)" in render_report(rep)
    with pytest.raises(ValueError, match="degenerate margins"):
        independence_chi2(0, 0, 20, 40)


def test_line_density_z_on_published_final_row():
    # |C3| and the Lambda-ratio of the largest published census row;
    # the count is recovered from the printed 5-decimal ratio.  z_lambda
    # reads only c3 and c_lambda; the model's 1/3 and 2/9 counts fill the
    # rest of the independence table so that it has no empty margin
    c3 = 1920314
    count = round(0.66622 * c3)
    row = CountRow(n=10**8, c3=c3, c_lambda=count, c_taubar=c3 // 3, c_both=2 * c3 // 9)
    assert abs(density_report(row).z_lambda) < 1.5


def test_line_density_z_errors():
    with pytest.raises(ValueError):
        density_report(CountRow(n=10, c3=0, c_lambda=0, c_taubar=0, c_both=0))
