import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from fieldopt import (
    ValidationError,
    fit_plane,
    paired_t_test,
    r0_series,
    regularized_incomplete_beta,
)
from fieldopt.analytics import _mean_std, sum_in_order


def test_r0_series_examples():
    r0 = r0_series([3, 5, 8, 8], [0, 1, 3, 6])
    assert r0.r0_t == pytest.approx((2.0, 1.5, 0.0))
    assert r0.mean_r0 == pytest.approx(3.5 / 3)


def test_r0_series_zero_removal_fallback():
    r0 = r0_series([3, 6], [0, 0])
    assert r0.r0_t == (3.0,)
    assert r0.mean_r0 == 3.0


def test_r0_series_validation():
    with pytest.raises(ValidationError):
        r0_series([1, 2], [0])
    with pytest.raises(ValidationError):
        r0_series([1], [0])


@given(
    st.lists(st.integers(0, 500), min_size=2, max_size=10),
    st.lists(st.integers(0, 50), min_size=1, max_size=9),
)
def test_r0_series_matches_direct_recomputation(i_counts, r_deltas):
    n = min(len(i_counts), len(r_deltas) + 1)
    i_counts = i_counts[:n]
    r_counts = [0]
    for d in r_deltas[: n - 1]:
        r_counts.append(r_counts[-1] + d)
    result = r0_series(i_counts, r_counts)
    for t, value in enumerate(result.r0_t):
        di = i_counts[t + 1] - i_counts[t]
        dr = r_counts[t + 1] - r_counts[t]
        assert value == pytest.approx(di / dr if dr > 0 else di)
    assert result.mean_r0 == pytest.approx(sum(result.r0_t) / len(result.r0_t))


# -- plane fitting -----------------------------------------------------------


def test_fit_plane_recovers_planted_coefficients():
    xs = [(b, g) for b in (0.001, 0.003, 0.005) for g in (1 / 65, 1 / 42, 1 / 21)]
    ys = [226.61 * b - 1.57 * g + 0.02 for b, g in xs]
    fit = fit_plane(xs, ys)
    assert fit.coeff_beta0 == pytest.approx(226.61, abs=1e-8)
    assert fit.coeff_gamma == pytest.approx(-1.57, abs=1e-8)
    assert fit.intercept == pytest.approx(0.02, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)


def test_fit_plane_matches_lstsq_with_noise():
    rng = np.random.default_rng(5)
    xs = [(float(b), float(g)) for b, g in rng.uniform(0.0, 1.0, size=(40, 2))]
    ys = [2.0 * b - 0.5 * g + 0.1 + float(e) for (b, g), e in zip(xs, rng.normal(0, 0.05, 40))]
    fit = fit_plane(xs, ys)
    design = np.column_stack([np.array(xs), np.ones(len(xs))])
    expected, *_ = np.linalg.lstsq(design, np.array(ys), rcond=None)
    assert fit.coeff_beta0 == pytest.approx(expected[0], rel=1e-9)
    assert fit.coeff_gamma == pytest.approx(expected[1], rel=1e-9)
    assert fit.intercept == pytest.approx(expected[2], rel=1e-9)
    assert 0.0 <= fit.r_squared <= 1.0


def test_fit_plane_constant_response():
    xs = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    fit = fit_plane(xs, [3.0, 3.0, 3.0, 3.0])
    assert (fit.coeff_beta0, fit.coeff_gamma) == pytest.approx((0.0, 0.0), abs=1e-12)
    assert fit.intercept == pytest.approx(3.0)
    assert fit.r_squared == 1.0  # zero total variance: the fit is exact


def test_fit_plane_degenerate_designs_rejected():
    with pytest.raises(ValidationError):
        fit_plane([(0.0, 0.0), (1.0, 1.0)], [0.0, 1.0])
    # collinear: second coordinate constant
    xs = [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]
    with pytest.raises(ValidationError):
        fit_plane(xs, [0.0, 1.0, 2.0, 3.0])


# -- t-test and the incomplete beta behind it --------------------------------


def test_paired_t_test_documented_example():
    result = paired_t_test([1, 2, 3, 4, 5], [0, 1, 2, 3, 3])
    assert result.t_statistic == pytest.approx(6.0, abs=1e-12)
    assert result.dof == 4
    expected = scipy.stats.ttest_rel([1, 2, 3, 4, 5], [0, 1, 2, 3, 3]).pvalue
    assert result.p_two_sided == pytest.approx(expected, abs=1e-12)


def test_paired_t_test_symmetry():
    a = [1.0, 2.0, 3.5, 4.0]
    b = [0.5, 2.5, 3.0, 3.0]
    fwd = paired_t_test(a, b)
    rev = paired_t_test(b, a)
    assert fwd.t_statistic == pytest.approx(-rev.t_statistic)
    assert fwd.p_two_sided == pytest.approx(rev.p_two_sided)


def test_paired_t_test_validation():
    with pytest.raises(ValidationError):
        paired_t_test([1, 2], [1, 2, 3])
    with pytest.raises(ValidationError):
        paired_t_test([1], [2])
    # identical pairs and constant shifts have zero difference variance
    with pytest.raises(ValidationError, match="variance"):
        paired_t_test([1, 2, 3], [1, 2, 3])
    with pytest.raises(ValidationError, match="variance"):
        paired_t_test([2, 3, 4], [1, 2, 3])


@given(
    st.lists(
        st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
        min_size=3,
        max_size=30,
    )
)
def test_paired_t_test_matches_scipy(pairs):
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    diffs = [x - y for x, y in pairs]
    mean = sum(diffs) / len(diffs)
    if math.fsum((d - mean) ** 2 for d in diffs) < 1e-12:
        return
    ours = paired_t_test(a, b)
    ref = scipy.stats.ttest_rel(a, b)
    assert ours.t_statistic == pytest.approx(ref.statistic, rel=1e-9, abs=1e-9)
    assert ours.p_two_sided == pytest.approx(ref.pvalue, rel=1e-7, abs=1e-12)


@given(st.floats(0.5, 30.0), st.floats(0.5, 30.0), st.floats(0.001, 0.999))
def test_incomplete_beta_matches_scipy(a, b, x):
    ours = regularized_incomplete_beta(a, b, x)
    ref = float(scipy.special.betainc(a, b, x))
    assert ours == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_incomplete_beta_bounds():
    assert regularized_incomplete_beta(2.0, 0.5, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 0.5, 1.0) == 1.0


# -- replicate mean and standard deviation ------------------------------------


def test_mean_std_uses_the_sample_deviation():
    assert _mean_std([10.0, 14.0]) == (12.0, math.sqrt(8.0))  # n - 1 denominator
    assert _mean_std([5.0]) == (5.0, 0.0)  # one replicate has no spread


def test_sum_in_order_adds_left_to_right():
    assert sum_in_order([1e16, 1.0, -1e16]) == 0.0  # a compensated sum gives 1.0
    assert sum_in_order(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3
    assert sum_in_order([]) == 0.0
    assert math.copysign(1.0, sum_in_order([-0.0])) == 1.0  # from 0.0, as sum()
