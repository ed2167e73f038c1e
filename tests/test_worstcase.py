import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldopt import (
    BoundVariant,
    EconomicParams,
    FieldSpec,
    PathogenParams,
    SeedingStrategy,
    ValidationError,
    analytic_nt,
    analytic_profit,
    analytic_profits,
    coverage_radius,
    economic_series,
    kcenter_greedy,
    lattice_capacity,
    layout_grid,
    removal_bound,
    removal_bounds,
    seeding_cost,
    worstcase_bound,
)

ECON = EconomicParams()


# -- removal bound ------------------------------------------------------------


def test_bound_default_parameterization():
    # beta0 = 0.003, gamma = 1/42, k = 3, r = hypot(0.2, 0.2), T = 3
    r = math.hypot(0.2, 0.2)
    value = removal_bound(0.003, 1 / 42, 3, r, 3)
    assert value == pytest.approx(0.07219422155127131, rel=1e-12)


def test_bound_single_round_is_gamma_k():
    assert removal_bound(0.003, 0.25, 4, 0.5, 1) == pytest.approx(1.0)


def test_bound_degenerate_q():
    # r == beta0 makes q exactly 1; the geometric series collapses to T terms
    assert removal_bound(0.003, 0.1, 2, 0.003, 5) == pytest.approx(0.1 * 2 * 5)


def test_bound_zero_beta0():
    # q = 0: only the first-round term gamma * k survives
    assert removal_bound(0.0, 0.2, 3, 0.5, 7) == pytest.approx(0.6)
    assert removal_bound(0.0, 0.2, 3, 0.5, 7, BoundVariant.PAPER_EXACT) == math.inf


def test_bound_variant_ratio():
    args = (0.003, 1 / 42, 3, 0.28, 4)
    q = 0.003 / 0.28
    geometric = removal_bound(*args)
    exact = removal_bound(*args, BoundVariant.PAPER_EXACT)
    assert exact == pytest.approx(geometric / q, rel=1e-12)


def test_bound_validation():
    with pytest.raises(ValidationError):
        removal_bound(0.003, 0.1, 3, 0.0, 3)
    with pytest.raises(ValidationError):
        removal_bound(0.003, 0.1, 3, 0.3, 0)


@given(
    st.floats(0.0, 0.05),
    st.floats(0.005, 1.0),
    st.integers(1, 10),
    st.floats(0.01, 2.0),
    st.integers(1, 15),
)
def test_bound_equals_term_loop(beta0, gamma, k, r_m, horizon):
    q = beta0 / r_m
    loop = math.fsum(gamma * k * q**t for t in range(horizon))
    closed = removal_bound(beta0, gamma, k, r_m, horizon)
    assert closed == pytest.approx(loop, rel=1e-12, abs=1e-12)


@given(st.floats(0.005, 1.0), st.integers(1, 10), st.floats(0.3, 2.0), st.integers(1, 15))
def test_bound_monotone_in_horizon(gamma, k, r_m, horizon):
    shorter = removal_bound(0.01, gamma, k, r_m, horizon)
    longer = removal_bound(0.01, gamma, k, r_m, horizon + 1)
    assert longer >= shorter


# -- analytic N_t -------------------------------------------------------------


def test_analytic_nt_subtracts_bound():
    pathogen = PathogenParams(beta0=0.003, gamma=1 / 42, initial_infected=3)
    r = math.hypot(0.2, 0.2)
    expected = 251001 - removal_bound(0.003, 1 / 42, 3, r, 2)
    assert analytic_nt(251001, pathogen, r, 2) == pytest.approx(expected)


def test_analytic_nt_floors_at_zero():
    pathogen = PathogenParams(beta0=1.0, gamma=1.0, initial_infected=10)
    assert analytic_nt(2, pathogen, 0.1, 5) == 0.0


def test_worstcase_bound_bundle():
    pathogen = PathogenParams(beta0=0.003, gamma=1 / 42, initial_infected=3)
    strategy = SeedingStrategy(0.2, 0.2)
    bound = worstcase_bound(2601, pathogen, strategy, 3)
    assert bound.r_m == pytest.approx(math.hypot(0.2, 0.2))
    assert bound.q == pytest.approx(0.003 / math.hypot(0.2, 0.2))
    assert len(bound.n_t_series) == 3
    assert all(a >= b for a, b in zip(bound.n_t_series, bound.n_t_series[1:]))
    assert bound.n_t_series[-1] == pytest.approx(2601 - bound.removed_total_bound)


# -- greedy k-center ----------------------------------------------------------


def test_kcenter_whole_set():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert sorted(kcenter_greedy(points, 3)) == [0, 1, 2]


def test_kcenter_starts_near_centroid():
    grid = layout_grid(FieldSpec(2, 2), SeedingStrategy(1.0, 1.0))  # 3x3
    assert kcenter_greedy(grid.positions, 1) == [4]


def test_kcenter_spreads_to_far_corner():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    centers = kcenter_greedy(points, 2)
    # nearest-to-centroid tie breaks to index 0, then the farthest point
    assert centers == [0, 3]


def test_kcenter_validation():
    points = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValidationError):
        kcenter_greedy(points, 0)
    with pytest.raises(ValidationError):
        kcenter_greedy(points, 3)


def test_coverage_radius_example():
    points = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    assert coverage_radius(points, [0]) == pytest.approx(4.0)
    assert coverage_radius(points, [0, 2]) == pytest.approx(3.0)


def _exhaustive(points, k):
    return min(
        coverage_radius(points, list(combo))
        for combo in itertools.combinations(range(len(points)), k)
    )


@given(st.integers(4, 12), st.integers(1, 3), st.integers(0, 10**6))
def test_kcenter_within_two_of_optimal(n, k, seed):
    points = np.random.default_rng(seed).uniform(0.0, 10.0, size=(n, 2))
    greedy = coverage_radius(points, kcenter_greedy(points, k))
    assert greedy <= 2.0 * _exhaustive(points, k) + 1e-9


# -- analytic profit ----------------------------------------------------------


def test_analytic_profit_unseedable_spacing_scores_zero():
    field = FieldSpec(1.0, 1.0)
    pathogen = PathogenParams()
    assert analytic_profit(field, SeedingStrategy(1.5, 0.2), pathogen, ECON, 3) == 0.0
    assert analytic_profit(field, SeedingStrategy(0.2, 1.5), pathogen, ECON, 3) == 0.0


def test_analytic_profit_sub_minimum_spacing_loses_seeding_cost():
    field = FieldSpec(1.0, 1.0, min_spacing_m=0.1)
    strategy = SeedingStrategy(0.05, 0.2)
    n = lattice_capacity(field, strategy)
    profit = analytic_profit(field, strategy, PathogenParams(), ECON, 3)
    assert profit == pytest.approx(-seeding_cost(n, ECON))


def test_analytic_profit_composes_bound_and_economics():
    field = FieldSpec(10.0, 10.0)
    strategy = SeedingStrategy(0.2, 0.2)
    pathogen = PathogenParams()
    horizon = 3
    bound = worstcase_bound(2601, pathogen, strategy, horizon)
    expected = economic_series(bound.n_t_series, ECON).total_profit
    assert analytic_profit(field, strategy, pathogen, ECON, horizon) == pytest.approx(
        expected
    )


def test_analytic_profit_zero_transmission():
    # q = 0: flat N - gamma * k series
    field = FieldSpec(2.0, 2.0)
    strategy = SeedingStrategy(0.5, 0.5)
    pathogen = PathogenParams(beta0=0.0, gamma=0.5, initial_infected=2)
    n = 25
    expected = economic_series([n - 1.0] * 3, ECON).total_profit
    assert analytic_profit(field, strategy, pathogen, ECON, 3) == pytest.approx(expected)


@given(
    st.floats(0.5, 20.0),
    st.floats(0.5, 20.0),
    st.floats(0.11, 2.0),
    st.floats(0.11, 2.0),
)
def test_analytic_profit_population_matches_layout(width, height, dx, dy):
    # the closed form uses lattice_capacity; pin it to the materialized grid
    field = FieldSpec(width_m=width, height_m=height)
    strategy = SeedingStrategy(dx_m=dx, dy_m=dy)
    if lattice_capacity(field, strategy) > 20000:
        return
    if strategy.dx_m > field.width_m or strategy.dy_m > field.height_m:
        return
    grid = layout_grid(field, strategy)
    assert grid.count == lattice_capacity(field, strategy)


# -- batched bound and profit against the scalar path ------------------------


@given(
    st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    st.floats(0.005, 1.0),
    st.integers(1, 10),
    st.lists(st.floats(0.01, 5.0), min_size=1, max_size=20),
    st.integers(1, 8),
)
def test_removal_bounds_equal_scalar(beta0, gamma, k, distances, horizon):
    rows = removal_bounds(beta0, gamma, k, np.array(distances), horizon)
    assert rows.shape == (horizon, len(distances))
    for t in range(1, horizon + 1):
        assert rows[t - 1].tolist() == [
            removal_bound(beta0, gamma, k, r, t) for r in distances
        ]


def test_removal_bounds_degenerate_ratio():
    # r == beta0: q is exactly 1 and every round is gamma * k * t
    rows = removal_bounds(0.5, 0.1, 2, np.array([0.5, 0.25]), 3)
    assert rows[:, 0].tolist() == [0.1 * 2 * t for t in (1, 2, 3)]
    assert rows[:, 1].tolist() == [removal_bound(0.5, 0.1, 2, 0.25, t) for t in (1, 2, 3)]


@settings(max_examples=200)
@given(
    st.floats(0.1, 100.0),
    st.floats(0.1, 100.0),
    st.floats(0.01, 0.5),
    st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=30),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    st.floats(0.005, 1.0),
    st.integers(1, 50),
    st.integers(2, 6),
)
def test_analytic_profits_equal_scalar(
    width, height, min_spacing, fractions, beta0, gamma, k, horizon
):
    # spacings anywhere in the box [min_spacing, W] x [min_spacing, H]
    field = FieldSpec(width_m=width, height_m=height, min_spacing_m=min(min_spacing, width, height))
    lo = field.min_spacing_m
    dx = np.array([min(lo + u * (width - lo), width) for u, _ in fractions])
    dy = np.array([min(lo + v * (height - lo), height) for _, v in fractions])
    pathogen = PathogenParams(beta0=beta0, gamma=gamma, initial_infected=k)
    batched = analytic_profits(field, dx, dy, pathogen, ECON, horizon)
    assert batched.tolist() == [
        analytic_profit(field, SeedingStrategy(x, y), pathogen, ECON, horizon)
        for x, y in zip(dx.tolist(), dy.tolist())
    ]


def test_analytic_profits_equal_scalar_on_many_spacings():
    # numpy's vectorized log, hypot and power differ from libm in the last
    # bit for a small share of inputs. With a bound close to n (q up to 7 on
    # a small field) such a bit reaches the profit; 20,000 spacings hit
    # dozens of them on a machine where numpy vectorizes these functions.
    rng = np.random.default_rng(3)
    field = FieldSpec(3.0, 2.0)
    dx = rng.uniform(field.min_spacing_m, field.width_m, 20_000)
    dy = rng.uniform(field.min_spacing_m, field.height_m, 20_000)
    pathogen = PathogenParams(beta0=1.0, gamma=0.5, initial_infected=3)
    batched = analytic_profits(field, dx, dy, pathogen, ECON, 5)
    assert batched.tolist() == [
        analytic_profit(field, SeedingStrategy(x, y), pathogen, ECON, 5)
        for x, y in zip(dx.tolist(), dy.tolist())
    ]


def test_analytic_profits_mask_rounds_after_the_bound_passes_n():
    # q = 1 / hypot(0.1, 0.1) ~ 7 and k = 10: n_t falls below 1 by round 3
    field = FieldSpec(1.0, 1.0)
    pathogen = PathogenParams(beta0=1.0, gamma=1.0, initial_infected=10)
    dense, sparse = SeedingStrategy(0.1, 0.1), SeedingStrategy(0.5, 1.0)
    series = worstcase_bound(lattice_capacity(field, dense), pathogen, dense, 5).n_t_series
    assert series[0] >= 1 and series[2:] == (0.0, 0.0, 0.0)
    batched = analytic_profits(
        field, np.array([0.1, 0.5]), np.array([0.1, 1.0]), pathogen, ECON, 5
    )
    assert batched.tolist() == [
        analytic_profit(field, s, pathogen, ECON, 5) for s in (dense, sparse)
    ]
