import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldopt import (
    MAX_CANDIDATES,
    CandidateEvaluation,
    EconomicParams,
    FieldSpec,
    PathogenParams,
    PlacementMode,
    Scenario,
    ScoreMode,
    SearchMethod,
    SeedingStrategy,
    ValidationError,
    analytic_profit,
    analytic_profits,
    compare_strategies,
    derive_seed,
    economic_series,
    enumerate_candidates,
    evaluate_candidate,
    lattice_capacity,
    optimize,
    run,
    select_best,
    worstcase_bound,
)
from fieldopt import epidemic, optimizer


def _scenario(**kwargs):
    base = dict(
        field=FieldSpec(width_m=1.0, height_m=1.0),
        pathogen=PathogenParams(beta0=0.003, gamma=1 / 42, initial_infected=2),
        strategy=SeedingStrategy(0.2, 0.2),
        horizon_steps=3,
        rng_seed=0,
    )
    base.update(kwargs)
    return Scenario(**base)


# -- candidate enumeration ----------------------------------------------------


def test_enumerate_candidates_grid():
    field = FieldSpec(width_m=0.3, height_m=0.2)
    candidates = enumerate_candidates(field, 0.05)
    xs = sorted({c.dx_m for c in candidates})
    ys = sorted({c.dy_m for c in candidates})
    assert xs == pytest.approx([0.1, 0.15, 0.2, 0.25, 0.3])
    assert ys == pytest.approx([0.1, 0.15, 0.2])
    assert len(candidates) == 15
    assert candidates == sorted(candidates, key=lambda c: (c.dx_m, c.dy_m))


def test_enumerate_candidates_clamps_to_field():
    field = FieldSpec(width_m=0.32, height_m=0.32)
    candidates = enumerate_candidates(field, 0.05)
    assert all(c.dx_m <= 0.32 and c.dy_m <= 0.32 for c in candidates)
    assert max(c.dx_m for c in candidates) == pytest.approx(0.3)


def test_enumerate_candidates_single_point():
    field = FieldSpec(width_m=0.1, height_m=0.1)
    assert enumerate_candidates(field, 0.05) == [SeedingStrategy(0.1, 0.1)]


def test_enumerate_candidates_infeasible_field():
    field = FieldSpec(width_m=0.05, height_m=1.0)
    assert enumerate_candidates(field, 0.05) == []
    with pytest.raises(ValidationError):
        enumerate_candidates(field, 0.0)


@given(st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.01, 0.5))
def test_enumerate_candidates_within_box(width, height, delta):
    field = FieldSpec(width_m=width, height_m=height)
    for c in enumerate_candidates(field, delta):
        assert field.min_spacing_m <= c.dx_m <= width
        assert field.min_spacing_m <= c.dy_m <= height


# -- argmax selection ---------------------------------------------------------


def _eval(dx, dy, profit):
    return CandidateEvaluation(
        dx_m=dx, dy_m=dy, profit_estimate=profit, profit_std=0.0, n_reps=0
    )


def test_select_best_highest_profit():
    best = select_best([_eval(0.1, 0.1, 5.0), _eval(0.2, 0.2, 7.0), _eval(0.3, 0.3, 6.0)])
    assert (best.dx_m, best.dy_m) == (0.2, 0.2)


def test_select_best_profit_tie_prefers_larger_area():
    best = select_best([_eval(0.1, 0.1, 5.0), _eval(0.2, 0.3, 5.0), _eval(0.2, 0.2, 5.0)])
    assert (best.dx_m, best.dy_m) == (0.2, 0.3)


def test_select_best_full_tie_is_lexicographic():
    best = select_best([_eval(0.2, 0.1, 5.0), _eval(0.1, 0.2, 5.0)])
    assert (best.dx_m, best.dy_m) == (0.1, 0.2)


# -- candidate evaluation -----------------------------------------------------


def test_evaluate_candidate_analytic_is_exact():
    scenario = _scenario()
    profit, std = evaluate_candidate(scenario, ScoreMode.ANALYTIC)
    assert std == 0.0
    assert profit == analytic_profit(
        scenario.field,
        scenario.strategy,
        scenario.pathogen,
        scenario.economics,
        scenario.horizon_steps,
    )


def test_evaluate_candidate_simulated_reproducible():
    scenario = _scenario(rng_seed=3)
    first = evaluate_candidate(scenario, ScoreMode.SIMULATED, n_reps=5)
    second = evaluate_candidate(scenario, ScoreMode.SIMULATED, n_reps=5)
    assert first == second
    other = evaluate_candidate(replace(scenario, rng_seed=4), ScoreMode.SIMULATED, n_reps=5)
    assert first != other


def test_evaluate_candidate_follows_the_scenario_seed():
    # With default arguments the replicates are the seasons of
    # derive_seed(scenario.rng_seed, 0, i), not of a fixed seed 0.
    scenario = _scenario(
        pathogen=PathogenParams(beta0=0.05, gamma=0.2, initial_infected=2), rng_seed=7
    )
    profits = [
        run(replace(scenario, rng_seed=derive_seed(7, 0, i))).total_profit for i in range(30)
    ]
    mean, std = evaluate_candidate(scenario, ScoreMode.SIMULATED)
    assert (mean, std) == optimizer._mean_std(profits)
    assert (mean, std) != evaluate_candidate(replace(scenario, rng_seed=0), ScoreMode.SIMULATED)


def test_seed_channels_are_keyword_only():
    # A seed passed by position after n_reps is refused, not taken as the
    # candidate index or the degenerate-case flag.
    scenario = _scenario()
    strategy = SeedingStrategy(0.25, 0.25)
    with pytest.raises(TypeError):
        evaluate_candidate(scenario, ScoreMode.SIMULATED, 2, 5)
    with pytest.raises(TypeError):
        compare_strategies(scenario, strategy, strategy, 2, 5)


def test_evaluate_candidate_single_rep_std_zero():
    _, std = evaluate_candidate(_scenario(), ScoreMode.SIMULATED, n_reps=1)
    assert std == 0.0
    with pytest.raises(ValidationError):
        evaluate_candidate(_scenario(), ScoreMode.SIMULATED, n_reps=0)


def _two_plant_expected_profit(p, gamma, econ):
    """Exact expected profit of the 2-plant, T = 3, k = 1 season by
    enumerating every draw combination (removal at rounds 1-2, infection
    at round 1; a round-2 infection can no longer affect removals)."""
    expected = 0.0
    for rem0, p_rem0 in ((1, gamma), (0, 1 - gamma)):
        for inf1, p_inf1 in ((1, p), (0, 1 - p)):
            infected_round2 = ([1] if inf1 else []) if rem0 else [0] + ([1] if inf1 else [])
            for pattern in range(2 ** len(infected_round2)):
                removed2 = bin(pattern).count("1")
                weight = p_rem0 * p_inf1
                for bit in range(len(infected_round2)):
                    weight *= gamma if pattern >> bit & 1 else 1 - gamma
                n3 = 2 - rem0 - removed2
                series = economic_series([2, 2 - rem0, n3], econ)
                expected += weight * series.total_profit
    return expected


def test_evaluate_candidate_simulated_converges_to_enumeration():
    field = FieldSpec(width_m=0.2, height_m=0.1)
    gamma = 0.3
    scenario = Scenario(
        field=field,
        pathogen=PathogenParams(beta0=0.003, gamma=gamma, initial_infected=1),
        strategy=SeedingStrategy(0.2, 0.2),
        horizon_steps=3,
    )
    p = 0.003 / 0.2
    expected = _two_plant_expected_profit(p, gamma, scenario.economics)
    n_reps = 4000
    mean, std = evaluate_candidate(
        replace(scenario, rng_seed=2), ScoreMode.SIMULATED, n_reps=n_reps
    )
    assert mean == pytest.approx(expected, abs=4 * std / math.sqrt(n_reps))


# -- search -------------------------------------------------------------------


def test_optimize_grid_argmax_and_determinism():
    scenario = _scenario()
    result = optimize(
        scenario, search=SearchMethod.GRID, mode=ScoreMode.ANALYTIC, delta=0.1
    )
    assert result.best_profit == max(e.profit_estimate for e in result.evaluations)
    best_eval = select_best(result.evaluations)
    assert result.best_strategy == SeedingStrategy(best_eval.dx_m, best_eval.dy_m)
    again = optimize(
        scenario, search=SearchMethod.GRID, mode=ScoreMode.ANALYTIC, delta=0.1
    )
    assert again == result


def test_optimize_grid_covers_enumerated_candidates():
    scenario = _scenario()
    result = optimize(
        scenario, search=SearchMethod.GRID, mode=ScoreMode.ANALYTIC, delta=0.1
    )
    expected = enumerate_candidates(scenario.field, 0.1)
    assert [(e.dx_m, e.dy_m) for e in result.evaluations] == [
        (c.dx_m, c.dy_m) for c in expected
    ]


def test_optimize_no_transmission_prefers_densest_lattice():
    # beta0 = 0: removals are flat gamma * k, profit grows with population,
    # so the densest feasible spacing must win
    scenario = _scenario(pathogen=PathogenParams(beta0=0.0, gamma=0.5, initial_infected=2))
    result = optimize(
        scenario, search=SearchMethod.GRID, mode=ScoreMode.ANALYTIC, delta=0.1
    )
    assert result.best_strategy == SeedingStrategy(0.1, 0.1)


def test_optimize_montecarlo_within_box_and_reproducible():
    scenario = _scenario(rng_seed=5)
    result = optimize(
        scenario,
        search=SearchMethod.MONTE_CARLO,
        mode=ScoreMode.ANALYTIC,
        budget=40,
    )
    assert len(result.evaluations) == 40
    for e in result.evaluations:
        assert scenario.field.min_spacing_m <= e.dx_m <= scenario.field.width_m
        assert scenario.field.min_spacing_m <= e.dy_m <= scenario.field.height_m
    again = optimize(
        scenario,
        search=SearchMethod.MONTE_CARLO,
        mode=ScoreMode.ANALYTIC,
        budget=40,
    )
    assert again == result


def test_optimize_infeasible_field_errors():
    scenario = _scenario(field=FieldSpec(width_m=0.05, height_m=1.0))
    with pytest.raises(ValidationError, match="infeasible"):
        optimize(scenario, search=SearchMethod.GRID, mode=ScoreMode.ANALYTIC, delta=0.1)


def test_optimize_simulated_mode_drops_explicit_count():
    # 30 exceeds the capacity of the sparser candidates, so keeping the
    # override would fail scenario validation during the search
    scenario = _scenario(explicit_count=30, rng_seed=1)
    result = optimize(
        scenario,
        search=SearchMethod.GRID,
        mode=ScoreMode.SIMULATED,
        delta=0.3,
        n_reps=2,
    )
    assert result.best_profit == max(e.profit_estimate for e in result.evaluations)


@settings(max_examples=20)
@given(st.integers(0, 10**6))
def test_optimize_analytic_beats_mid_candidate(seed):
    scenario = _scenario(rng_seed=seed)
    result = optimize(
        scenario, search=SearchMethod.GRID, mode=ScoreMode.ANALYTIC, delta=0.1
    )
    default = analytic_profit(
        scenario.field,
        SeedingStrategy(0.2, 0.2),
        scenario.pathogen,
        scenario.economics,
        scenario.horizon_steps,
    )
    assert result.best_profit >= default - 1e-9


# -- batched analytic scoring against the scalar path ------------------------


def _scalar_optimize(scenario, candidates):
    """The per-candidate loop: one Scenario and one analytic_profit call per
    candidate, then select_best."""
    evaluations = tuple(
        CandidateEvaluation(
            c.dx_m,
            c.dy_m,
            *evaluate_candidate(
                replace(scenario, strategy=c, explicit_count=None), ScoreMode.ANALYTIC
            ),
            n_reps=0,
        )
        for c in candidates
    )
    return evaluations, select_best(evaluations)


def _mc_candidates(field, budget, seed):
    crng = np.random.default_rng(derive_seed(seed, "mc-candidates"))
    dxs = crng.uniform(field.min_spacing_m, field.width_m, budget)
    dys = crng.uniform(field.min_spacing_m, field.height_m, budget)
    return [SeedingStrategy(float(x), float(y)) for x, y in zip(dxs, dys)]


def _assert_matches_scalar(scenario, result, candidates):
    evaluations, best = _scalar_optimize(scenario, candidates)
    assert result.evaluations == evaluations  # every field, exactly
    assert result.best_strategy == SeedingStrategy(best.dx_m, best.dy_m)
    assert result.best_profit == best.profit_estimate


@settings(max_examples=100, deadline=None)
@given(
    width=st.floats(0.1, 3.0),
    height=st.floats(0.1, 3.0),
    delta=st.floats(0.05, 0.5),
    beta0=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    gamma=st.floats(0.005, 1.0),
    k=st.integers(1, 10),
    horizon=st.integers(2, 6),
    grid=st.booleans(),
    budget=st.integers(1, 300),
    seed=st.integers(0, 2**32),
)
def test_batched_analytic_scores_equal_scalar_path(
    width, height, delta, beta0, gamma, k, horizon, grid, budget, seed
):
    scenario = _scenario(
        field=FieldSpec(width_m=width, height_m=height),
        pathogen=PathogenParams(beta0=beta0, gamma=gamma, initial_infected=k),
        horizon_steps=horizon,
        rng_seed=seed,
    )
    if grid:
        result = optimize(scenario, search=SearchMethod.GRID, delta=delta)
        candidates = enumerate_candidates(scenario.field, delta)
    else:
        result = optimize(scenario, search=SearchMethod.MONTE_CARLO, budget=budget)
        candidates = _mc_candidates(scenario.field, budget, seed)
    _assert_matches_scalar(scenario, result, candidates)


def test_batched_scores_degenerate_ratio():
    # hypot(0.6, 0.8) == 1.0 == beta0, so q is exactly 1 and the bound is
    # gamma * k * t
    scenario = _scenario(
        field=FieldSpec(width_m=0.8, height_m=0.8, min_spacing_m=0.6),
        pathogen=PathogenParams(beta0=1.0, gamma=0.1, initial_infected=2),
        horizon_steps=4,
    )
    result = optimize(scenario, search=SearchMethod.GRID, delta=0.2)
    assert (0.6, 0.8) in zip(result.dx_m.tolist(), result.dy_m.tolist())
    _assert_matches_scalar(scenario, result, enumerate_candidates(scenario.field, 0.2))


def test_batched_scores_bound_exceeding_population():
    # q = 1 / hypot(0.1, 0.1) ~ 7: the bound passes N within the season, so
    # the late rounds of the dense candidates have n_t < 1 and output 0
    scenario = _scenario(
        pathogen=PathogenParams(beta0=1.0, gamma=1.0, initial_infected=10),
        horizon_steps=6,
    )
    result = optimize(scenario, search=SearchMethod.GRID, delta=0.1)
    n = lattice_capacity(scenario.field, SeedingStrategy(0.1, 0.1))
    bound = worstcase_bound(n, scenario.pathogen, SeedingStrategy(0.1, 0.1), 6)
    assert bound.n_t_series[0] >= 1 and bound.n_t_series[-1] == 0.0
    _assert_matches_scalar(scenario, result, enumerate_candidates(scenario.field, 0.1))


def test_batched_scores_exact_ties_without_transmission():
    # beta0 = 0: profit depends on the lattice shape only, so spacings
    # with the same shape tie exactly and the area tie-break decides; on a
    # 0.35 m axis every spacing in [0.1, 0.35/3) lays out 4 plants
    scenario = _scenario(
        field=FieldSpec(width_m=0.35, height_m=0.35),
        pathogen=PathogenParams(beta0=0.0, gamma=0.5, initial_infected=2),
    )
    result = optimize(scenario, search=SearchMethod.GRID, delta=0.005)
    assert np.count_nonzero(result.profit_estimate == result.best_profit) == 16
    _assert_matches_scalar(
        scenario, result, enumerate_candidates(scenario.field, 0.005)
    )


@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.1, 0.2, 0.3, 0.6]),
            st.sampled_from([0.1, 0.2, 0.3, 0.6]),
            st.sampled_from([-1.0, -0.0, 0.0, 2.0]),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_best_index_is_select_best(rows):
    # few distinct values, so profit, area and (dx, dy) ties all occur,
    # including (a, b) against (b, a)
    dx, dy, profit = (np.array(column) for column in zip(*rows))
    index = optimizer._best_index(dx, dy, profit)
    assert rows[index] == min(
        rows, key=lambda r: (-r[2], -(r[0] * r[1]), r[0], r[1])
    )
    best = select_best([_eval(*row) for row in rows])
    assert (best.dx_m, best.dy_m, best.profit_estimate) == rows[index]


def test_analytic_search_builds_no_object_per_candidate(monkeypatch):
    calls = {"replace": 0, "strategy": 0, "analytic_profit": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(optimizer, "replace", counting("replace", replace))
    monkeypatch.setattr(
        optimizer, "SeedingStrategy", counting("strategy", SeedingStrategy)
    )
    monkeypatch.setattr(
        optimizer, "analytic_profit", counting("analytic_profit", analytic_profit)
    )
    result = optimize(_scenario(), search=SearchMethod.GRID, delta=0.01)
    assert len(result.dx_m) == 91 * 91
    assert calls == {"replace": 0, "strategy": 1, "analytic_profit": 0}


# -- candidate cap ------------------------------------------------------------


def test_long_horizons_score_in_shorter_blocks_with_the_same_bits():
    scenario = _scenario(field=FieldSpec(1.3, 0.9), horizon_steps=7)
    whole = optimize(scenario, delta=0.05)
    sizes = []

    def scored(field, dx, *args):
        sizes.append(len(dx))
        return analytic_profits(field, dx, *args)

    with mock.patch.object(optimizer, "_BOUND_ELEMENTS", 7 * 5), mock.patch.object(
        optimizer, "analytic_profits", scored
    ):
        blocked = optimize(scenario, delta=0.05)
    assert max(sizes) == 5 and sum(sizes) == len(whole.dx_m)
    assert blocked == whole


def test_candidate_rounds_are_capped_before_scoring():
    scenario = _scenario(field=FieldSpec(1.3, 0.9), horizon_steps=7)
    count = len(optimize(scenario, delta=0.05).dx_m)
    with mock.patch.object(optimizer, "MAX_CANDIDATE_ROUNDS", 7 * count):
        optimize(scenario, delta=0.05)
    with mock.patch.object(optimizer, "MAX_CANDIDATE_ROUNDS", 7 * count - 1), mock.patch.object(
        optimizer, "analytic_profits", side_effect=AssertionError("scored")
    ):
        with pytest.raises(ValidationError, match="MAX_CANDIDATE_ROUNDS"):
            optimize(scenario, delta=0.05)
    # Simulated scoring is not bound by it.
    with mock.patch.object(optimizer, "MAX_CANDIDATE_ROUNDS", 0):
        optimize(scenario, delta=0.5, mode=ScoreMode.SIMULATED, n_reps=1)


@pytest.mark.parametrize("delta", [0.0, -0.1, math.nan, math.inf])
def test_delta_must_be_finite_and_positive(delta):
    with pytest.raises(ValidationError, match="delta is finite and > 0"):
        optimize(_scenario(), search=SearchMethod.GRID, delta=delta)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(search=SearchMethod.GRID, delta=1e-300),
        # 2,237 x 2,237 = 5,004,169 spacings, just above the cap
        dict(search=SearchMethod.GRID, delta=0.9 / 2236),
        dict(search=SearchMethod.MONTE_CARLO, budget=MAX_CANDIDATES + 1),
        dict(search=SearchMethod.MONTE_CARLO, budget=10**10),
    ],
)
def test_candidate_count_is_capped_before_allocation(kwargs):
    with pytest.raises(ValidationError, match="MAX_CANDIDATES"):
        optimize(_scenario(), **kwargs)
    if kwargs["search"] is SearchMethod.GRID:
        with pytest.raises(ValidationError, match="MAX_CANDIDATES"):
            enumerate_candidates(_scenario().field, kwargs["delta"])


def test_grid_just_below_the_cap_is_allowed():
    # 2,236 x 2,236 = 4,999,696 spacings; only the two axes are built here
    xs, ys = optimizer._grid_axes(_scenario().field, 0.9 / 2235)
    assert len(xs) * len(ys) == 4_999_696 <= MAX_CANDIDATES


# -- strategy comparison ------------------------------------------------------


def test_compare_strategies_pairs_seeds_across_arms():
    scenario = _scenario(field=FieldSpec(2.0, 2.0), rng_seed=9)
    comparison = compare_strategies(
        scenario,
        default_strategy=SeedingStrategy(0.2, 0.2),
        optimal_strategy=SeedingStrategy(0.3, 0.3),
        n_reps=6,
    )
    assert len(comparison.arms) == 4
    labels = {(a.placement, a.label) for a in comparison.arms}
    assert labels == {
        (PlacementMode.RANDOM, "default"),
        (PlacementMode.RANDOM, "optimal"),
        (PlacementMode.WORST_CASE, "default"),
        (PlacementMode.WORST_CASE, "optimal"),
    }
    assert all(len(a.profits) == 6 for a in comparison.arms)
    again = compare_strategies(
        scenario,
        default_strategy=SeedingStrategy(0.2, 0.2),
        optimal_strategy=SeedingStrategy(0.3, 0.3),
        n_reps=6,
    )
    assert again.arms == comparison.arms
    for placement in (PlacementMode.RANDOM, PlacementMode.WORST_CASE):
        assert comparison.t_tests[placement].dof == 5
    # common random numbers: the same (strategy, seed) cell is identical
    # regardless of which label it runs under
    mirrored = compare_strategies(
        scenario,
        default_strategy=SeedingStrategy(0.3, 0.3),
        optimal_strategy=SeedingStrategy(0.2, 0.2),
        n_reps=6,
    )
    by_key = {(a.placement, a.label): a for a in comparison.arms}
    mirrored_by_key = {(a.placement, a.label): a for a in mirrored.arms}
    for placement in (PlacementMode.RANDOM, PlacementMode.WORST_CASE):
        assert (
            by_key[(placement, "optimal")].profits
            == mirrored_by_key[(placement, "default")].profits
        )


def test_compare_strategies_arms_are_seasons_of_run():
    scenario = _scenario(
        field=FieldSpec(2.0, 2.0),
        pathogen=PathogenParams(beta0=0.05, gamma=0.2, initial_infected=2),
        horizon_steps=4,
    )
    default, optimal = SeedingStrategy(0.2, 0.2), SeedingStrategy(0.3, 0.25)
    comparison = compare_strategies(replace(scenario, rng_seed=5), default, optimal, n_reps=4)
    seeds = [derive_seed(5, "compare", i) for i in range(4)]
    expected = [
        (placement, label, strategy)
        for placement in (PlacementMode.RANDOM, PlacementMode.WORST_CASE)
        for label, strategy in (("default", default), ("optimal", optimal))
    ]
    assert [(a.placement, a.label, a.strategy) for a in comparison.arms] == expected
    for arm in comparison.arms:
        cell = replace(scenario, strategy=arm.strategy, placement_mode=arm.placement)
        profits = [run(replace(cell, rng_seed=seed)).total_profit for seed in seeds]
        assert [repr(p) for p in arm.profits] == [repr(p) for p in profits]


def test_compare_strategies_builds_one_table_per_lattice(monkeypatch):
    scenario = _scenario(
        field=FieldSpec(2.0, 2.0),
        pathogen=PathogenParams(beta0=0.05, gamma=0.2, initial_infected=2),
    )
    monkeypatch.setattr(epidemic, "_kernel_cache", (None, None))
    with mock.patch.object(epidemic, "_build_table", wraps=epidemic._build_table) as build:
        compare_strategies(
            scenario, SeedingStrategy(0.2, 0.2), SeedingStrategy(0.3, 0.3), n_reps=3
        )
    assert build.call_count == 2  # two lattices, four arms


def test_compare_strategies_degenerate_differences():
    # gamma = 1 and beta0 = 0 make every season deterministic, so the
    # paired profit differences have zero variance
    scenario = _scenario(
        field=FieldSpec(2.0, 2.0),
        pathogen=PathogenParams(beta0=0.0, gamma=1.0, initial_infected=2),
    )
    kwargs = dict(
        default_strategy=SeedingStrategy(0.2, 0.2),
        optimal_strategy=SeedingStrategy(0.3, 0.3),
        n_reps=3,
    )
    with pytest.raises(ValidationError, match="variance"):
        compare_strategies(scenario, **kwargs)
    comparison = compare_strategies(scenario, allow_degenerate=True, **kwargs)
    assert comparison.t_tests[PlacementMode.RANDOM] is None
    assert comparison.t_tests[PlacementMode.WORST_CASE] is None


def test_compare_strategies_needs_replication():
    with pytest.raises(ValidationError):
        compare_strategies(
            _scenario(),
            default_strategy=SeedingStrategy(0.2, 0.2),
            optimal_strategy=SeedingStrategy(0.3, 0.3),
            n_reps=1,
        )


def test_densest_candidate_lattice_must_be_finite():
    # The scenario's own lattice is 11 x 11, but the candidates reach
    # min_spacing, where (1e300 / 0.1)**2 plants overflow to inf.
    scenario = Scenario(
        field=FieldSpec(width_m=1e300, height_m=1e300),
        strategy=SeedingStrategy(1e299, 1e299),
    )
    with pytest.raises(ValidationError, match="densest candidate lattice"):
        optimize(scenario, delta=1e299)


def test_every_candidate_profit_must_be_finite():
    # (1e153 / 0.1)**2 = 1e308 plants is a finite count, but selling them
    # at 5.32 each overflows.
    scenario = Scenario(
        field=FieldSpec(width_m=1e153, height_m=1e153),
        strategy=SeedingStrategy(1e152, 1e152),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning escapes either
        with pytest.raises(ValidationError, match="every candidate's profit is finite"):
            optimize(scenario, delta=1e152)
