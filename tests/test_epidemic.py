import contextlib
import math
import tracemalloc
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fieldopt import epidemic
from fieldopt import (
    EpidemicTrajectory,
    FieldSpec,
    PathogenParams,
    PlacementMode,
    PlantStates,
    Scenario,
    SeedingStrategy,
    Status,
    ValidationError,
    derive_seed,
    kcenter_greedy,
    lattice_capacity,
    layout_grid,
    pairwise_infection_prob,
    place_initial_infected,
    run,
    seeding_cost,
    step,
)
from fieldopt.harness import ExperimentKind, ExperimentSpec, run_experiment
from fieldopt.scenario import scenario_default


def _scenario(**kwargs):
    base = dict(
        field=FieldSpec(width_m=2.0, height_m=2.0),
        pathogen=PathogenParams(beta0=0.003, gamma=1 / 42, initial_infected=2),
        strategy=SeedingStrategy(dx_m=0.25, dy_m=0.25),
        horizon_steps=4,
        rng_seed=11,
    )
    base.update(kwargs)
    return Scenario(**base)


# -- pairwise probability -----------------------------------------------------


def test_pairwise_probability():
    assert pairwise_infection_prob(0.003, 0.2) == pytest.approx(0.015)
    assert pairwise_infection_prob(0.0, 1.0) == 0.0
    assert pairwise_infection_prob(0.5, 0.25) == 1.0  # capped


def test_pairwise_probability_validation():
    with pytest.raises(ValidationError):
        pairwise_infection_prob(1.5, 0.2)
    with pytest.raises(ValidationError):
        pairwise_infection_prob(0.003, 0.0)


# -- initial placement --------------------------------------------------------


def test_random_placement_draws_sorted_distinct():
    grid = layout_grid(FieldSpec(2, 2), SeedingStrategy(0.25, 0.25))
    rng = np.random.default_rng(3)
    chosen = place_initial_infected(grid, 5, PlacementMode.RANDOM, rng)
    assert len(chosen) == 5
    assert len(set(chosen.tolist())) == 5
    assert list(chosen) == sorted(chosen)
    again = place_initial_infected(
        grid, 5, PlacementMode.RANDOM, np.random.default_rng(3)
    )
    assert np.array_equal(chosen, again)


def test_worstcase_placement_is_kcenter_and_consumes_no_draws():
    grid = layout_grid(FieldSpec(2, 2), SeedingStrategy(0.25, 0.25))
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    chosen = place_initial_infected(grid, 3, PlacementMode.WORST_CASE, rng)
    assert rng.bit_generator.state == before
    assert list(chosen) == sorted(kcenter_greedy(grid.positions, 3))


def test_placement_k_validation():
    grid = layout_grid(FieldSpec(1, 1), SeedingStrategy(0.5, 0.5))  # 9 plants
    with pytest.raises(ValidationError):
        place_initial_infected(grid, 10, PlacementMode.RANDOM, np.random.default_rng(0))


# -- single-step semantics ----------------------------------------------------


def _line_grid(n, spacing=0.2):
    width = spacing * (n - 1) if n > 1 else spacing / 2
    field = FieldSpec(width_m=width, height_m=spacing / 2)
    return layout_grid(field, SeedingStrategy(spacing, spacing))


def test_step_without_infected_consumes_no_draws():
    grid = _line_grid(4)
    states = PlantStates(grid.count)
    rng = np.random.default_rng(9)
    before = rng.bit_generator.state
    step(grid, states, PathogenParams(), rng)
    assert rng.bit_generator.state == before
    assert states.counts() == (4, 0, 0)


def test_step_draw_order_removals_then_infections_ascending():
    # three collinear plants 0.2 m apart; plant 0 infected
    # p(0.2) = 1.0 and p(0.4) = 0.625, so plants 1 and 2 are both at risk
    grid = _line_grid(3)
    params = PathogenParams(beta0=0.25, gamma=0.4, initial_infected=1)
    states = PlantStates(3)
    states.infect([0], 1)
    rng = np.random.default_rng(123)
    step(grid, states, params, rng, round_index=1)

    replay = np.random.default_rng(123)
    removal = replay.random(1)[0] < params.gamma
    inf_draws = replay.random(2)
    expect_1 = inf_draws[0] < 1.0  # survival (1 - 1.0) = 0
    expect_2 = inf_draws[1] < 0.625
    assert (states.status[0] == Status.REMOVED) == removal
    assert (states.status[1] == Status.INFECTED) == expect_1
    assert (states.status[2] == Status.INFECTED) == expect_2
    # stream positions must agree after the step
    assert rng.random() == replay.random()


def test_step_synchronous_update():
    # gamma = 1 with p = 1: the source is removed in the same round it
    # infects its neighbour (start-of-round state drives both draws)
    grid = _line_grid(2)
    params = PathogenParams(beta0=0.5, gamma=1.0, initial_infected=1)
    states = PlantStates(2)
    states.infect([0], 1)
    step(grid, states, params, np.random.default_rng(0), round_index=1)
    assert states.status[0] == Status.REMOVED
    assert states.status[1] == Status.INFECTED
    assert states.infected_at[1] == 2  # infected entering round 2


def test_step_newly_infected_not_removed_same_round():
    grid = _line_grid(2)
    params = PathogenParams(beta0=0.5, gamma=1.0, initial_infected=1)
    states = PlantStates(2)
    states.infect([0], 1)
    step(grid, states, params, np.random.default_rng(1), round_index=1)
    assert states.status[1] == Status.INFECTED
    step(grid, states, params, np.random.default_rng(2), round_index=2)
    assert states.status[1] == Status.REMOVED  # eligible one round later


def test_deterministic_duration_removes_after_sojourn():
    grid = _line_grid(1, spacing=0.2)
    params = PathogenParams(beta0=0.0, gamma=0.3, initial_infected=1)
    states = PlantStates(1)
    states.infect([0], 1)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    removed_at = None
    for t in range(1, 7):
        step(grid, states, params, rng, round_index=t, deterministic_duration=True)
        if removed_at is None and states.status[0] == Status.REMOVED:
            removed_at = t
    # ceil(1/0.3) = 4 rounds of infection: rounds 1-4, removed by round 4's step
    assert removed_at == 4
    assert rng.bit_generator.state == before  # no draws in deterministic mode


def test_plant_state_view():
    states = PlantStates(3)
    states.infect([1], 2)
    assert states.plant(0).status is Status.SUSCEPTIBLE
    assert states.plant(0).infected_at is None
    assert states.plant(1).status is Status.INFECTED
    assert states.plant(1).infected_at == 2
    clone = states.copy()
    clone.infect([0], 3)
    assert states.plant(0).status is Status.SUSCEPTIBLE


# -- full-season runs ---------------------------------------------------------


def test_run_is_deterministic_per_seed():
    scenario = _scenario()
    a = run(scenario)
    b = run(scenario)
    assert a.trajectory == b.trajectory
    assert a.total_profit == b.total_profit
    assert a.initial_infected == b.initial_infected
    c = run(replace(scenario, rng_seed=12))
    assert c.trajectory != a.trajectory or c.initial_infected != a.initial_infected


def test_run_trajectory_shape():
    scenario = _scenario(horizon_steps=5)
    result = run(scenario)
    traj = result.trajectory
    assert len(traj.s_count) == 5
    assert traj.i_count[0] == 2
    assert traj.r_count[0] == 0
    assert len(result.r0.r0_t) == 4
    assert len(result.economics.per_round_output) == 5


def test_run_no_transmission_removes_only_seeds():
    scenario = _scenario(
        pathogen=PathogenParams(beta0=0.0, gamma=1.0, initial_infected=3),
        horizon_steps=4,
    )
    traj = run(scenario).trajectory
    assert traj.i_count == (3, 0, 0, 0)
    assert traj.r_count == (0, 3, 3, 3)
    assert traj.s_count[0] == traj.s_count[-1]


def test_run_died_early_loses_seeding_cost_without_rng():
    scenario = _scenario(strategy=SeedingStrategy(0.05, 0.25))
    result = run(scenario)
    n = result.trajectory.n_t[0]
    assert result.died_early
    assert result.initial_infected == ()
    assert result.total_profit == pytest.approx(-seeding_cost(n, scenario.economics))
    assert result.trajectory.r_count == (0, n, n, n)
    assert result.trajectory.n_t == (n, 0, 0, 0)


def test_run_explicit_count_population():
    scenario = _scenario(explicit_count=17)
    assert run(scenario).trajectory.n_t[0] == 17


def test_run_worstcase_placement_deterministic():
    scenario = _scenario(placement_mode=PlacementMode.WORST_CASE)
    a = run(scenario)
    b = run(replace(scenario, rng_seed=999))
    assert a.initial_infected == b.initial_infected


scenario_params = st.fixed_dictionaries(
    {
        "width": st.floats(1.0, 4.0),
        "height": st.floats(1.0, 4.0),
        "dx": st.floats(0.15, 0.6),
        "dy": st.floats(0.15, 0.6),
        "beta0": st.floats(0.0, 0.01),
        "gamma": st.floats(0.01, 1.0),
        "k": st.integers(1, 4),
        "horizon": st.integers(2, 5),
        "mode": st.sampled_from(PlacementMode),
        "seed": st.integers(0, 2**32),
    }
)


@settings(max_examples=60)
@given(scenario_params)
def test_run_conservation_property(params):
    scenario = Scenario(
        field=FieldSpec(width_m=params["width"], height_m=params["height"]),
        pathogen=PathogenParams(
            beta0=params["beta0"], gamma=params["gamma"], initial_infected=params["k"]
        ),
        strategy=SeedingStrategy(dx_m=params["dx"], dy_m=params["dy"]),
        horizon_steps=params["horizon"],
        placement_mode=params["mode"],
        rng_seed=params["seed"],
    )
    traj = run(scenario).trajectory
    n = traj.s_count[0] + traj.i_count[0] + traj.r_count[0]
    for t in range(len(traj.s_count)):
        assert traj.s_count[t] + traj.i_count[t] + traj.r_count[t] == n
        assert traj.n_t[t] == n - traj.r_count[t]
    assert all(a <= b for a, b in zip(traj.r_count, traj.r_count[1:]))
    assert all(a >= b for a, b in zip(traj.s_count, traj.s_count[1:]))


def _season_with_oracle_counts(scenario, **options):
    # The season's trajectory, and PlantStates.counts() (a bincount over
    # every plant) before the first round and after every round.
    seen = []
    real_step = epidemic.step

    def counted_step(grid, states, *args, **kwargs):
        if not seen:
            seen.append(PlantStates.counts(states))
        real_step(grid, states, *args, **kwargs)
        seen.append(PlantStates.counts(states))
        return states

    with mock.patch.object(epidemic, "step", counted_step):
        trajectory = run(scenario, **options).trajectory
    return list(zip(trajectory.s_count, trajectory.i_count, trajectory.r_count)), seen


@pytest.mark.parametrize("mode", list(PlacementMode))
@pytest.mark.parametrize("deterministic_duration", [False, True])
@pytest.mark.parametrize(
    "pathogen, explicit_count",
    [
        (PathogenParams(beta0=0.05, gamma=0.3, initial_infected=3), None),
        # gamma = 1: every round removes every plant infected at its start.
        (PathogenParams(beta0=0.05, gamma=1.0, initial_infected=3), None),
        # 40 of the 9 x 9 lattice's plants: the last row holds 4 of 9.
        (PathogenParams(beta0=0.05, gamma=0.3, initial_infected=2), 40),
    ],
)
def test_trajectory_counts_are_the_counts_after_every_round(
    mode, deterministic_duration, pathogen, explicit_count
):
    for seed in range(3):
        scenario = _scenario(
            pathogen=pathogen,
            horizon_steps=8,
            placement_mode=mode,
            explicit_count=explicit_count,
            rng_seed=seed,
        )
        counts, oracle = _season_with_oracle_counts(
            scenario, deterministic_duration=deterministic_duration
        )
        assert counts == oracle
        if pathogen.gamma == 1.0:  # the first round removes all k seeds
            assert counts[1][2] == pathogen.initial_infected


# -- cutoff soundness ---------------------------------------------------------


def test_wide_cutoffs_are_pathwise_identical():
    # both cutoffs already cover the whole field, so the neighbor sets and
    # hence the entire draw sequence coincide
    scenario = _scenario(pathogen=PathogenParams(beta0=0.01, gamma=0.1, initial_infected=3))
    for seed in range(20):
        sc = replace(scenario, rng_seed=seed)
        a = run(sc, epsilon_p=1e-6)
        b = run(sc, epsilon_p=1e-12)
        assert a.trajectory == b.trajectory


def test_truncating_cutoff_matches_all_pairs_in_expectation():
    # 7x7 plants 1 m apart; epsilon_p = 5e-4 truncates at 6 m (< 8.49 m
    # diagonal). Per susceptible and round the skipped infection mass is
    # below epsilon_p, so mean total infections can differ by at most
    # N * epsilon_p * rounds plus Monte Carlo noise.
    scenario = Scenario(
        field=FieldSpec(6.0, 6.0),
        pathogen=PathogenParams(beta0=0.003, gamma=0.05, initial_infected=3),
        strategy=SeedingStrategy(1.0, 1.0),
        horizon_steps=4,
    )
    diffs = []
    for seed in range(300):
        sc = replace(scenario, rng_seed=derive_seed(17, "cutoff", seed))
        truncated = run(sc, epsilon_p=5e-4)
        all_pairs = run(sc, epsilon_p=0.0)
        infected = lambda r: r.trajectory.i_count[-1] + r.trajectory.r_count[-1]
        diffs.append(infected(all_pairs) - infected(truncated))
    mean_diff = np.mean(diffs)
    stderr = np.std(diffs, ddof=1) / math.sqrt(len(diffs))
    budget = 49 * 5e-4 * 3  # N * epsilon_p * (T - 1)
    assert abs(mean_diff) <= budget + 3 * stderr


# -- the infection kernel against the all-plants reference -------------------


def _reference_survival(grid, infected, beta0, cutoff):
    """The pressure product over all plants, one neighbor query per
    infected plant, and which plants any pair reached."""
    survival = np.ones(grid.count)
    touched = np.zeros(grid.count, dtype=bool)
    for i in infected:
        idx, dist = grid.neighbor_arrays(int(i), cutoff)
        survival[idx] *= 1.0 - np.minimum(1.0, beta0 / dist)
        touched[idx] = True
    return survival, touched


def _reference_draw_infections(grid, status, infected, params, rng, epsilon_p):
    """Infection draws from the all-plants reference: the engine's kernel
    must reproduce them draw for draw."""
    if infected.size == 0 or params.beta0 <= 0.0:
        return np.empty(0, dtype=np.int64)
    cutoff = params.beta0 / epsilon_p if epsilon_p > 0 else math.inf
    survival, touched = _reference_survival(grid, infected, params.beta0, cutoff)
    at_risk = touched & (status == Status.SUSCEPTIBLE) & (survival < 1.0)
    candidates = np.flatnonzero(at_risk)
    if candidates.size == 0:
        return candidates
    return candidates[rng.random(candidates.size) < 1.0 - survival[candidates]]


def _random_states(count, round_index, seed):
    """Mixed S/I/R population with infection rounds consistent with status."""
    pick = np.random.default_rng(seed)
    states = PlantStates(count)
    states.status[:] = pick.choice(3, size=count, p=[0.6, 0.25, 0.15])
    ever = states.status != Status.SUSCEPTIBLE
    states.infected_at[ever] = pick.integers(1, round_index + 1, size=int(ever.sum()))
    return states


def _assert_kernel_matches_reference(grid, states, params, seed, round_index, **options):
    susceptible = np.flatnonzero(states.status == Status.SUSCEPTIBLE)
    infected = np.flatnonzero(states.status == Status.INFECTED)
    eps = options["epsilon_p"]
    cutoff = params.beta0 / eps if eps > 0 else math.inf
    if params.beta0 > 0:
        survival = epidemic._survival(grid, susceptible, infected, params.beta0, cutoff)
        reference, _ = _reference_survival(grid, infected, params.beta0, cutoff)
        assert np.array_equal(survival, reference[susceptible])  # bit for bit

    fast, slow = states.copy(), states.copy()
    fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    step(grid, fast, params, fast_rng, round_index, **options)
    with mock.patch.object(epidemic, "_draw_infections", _reference_draw_infections):
        step(grid, slow, params, slow_rng, round_index, **options)
    assert np.array_equal(fast.status, slow.status)
    assert np.array_equal(fast.infected_at, slow.infected_at)
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


kernel_cases = st.fixed_dictionaries(
    {
        "width": st.floats(0.5, 6.0),
        "height": st.floats(0.5, 6.0),
        "dx": st.floats(0.2, 1.0),
        "dy": st.floats(0.2, 1.0),
        # small rates, and rates at or above the spacing (p = 1 pairs)
        "beta0": st.one_of(st.floats(0.0, 0.01), st.floats(0.2, 1.0)),
        "gamma": st.floats(0.01, 1.0),
        "epsilon_p": st.one_of(
            st.sampled_from([1e-6, 5e-4, 0.0]), st.floats(1e-3, 0.5)
        ),
        "deterministic_duration": st.booleans(),
        "round_index": st.integers(1, 8),
        "seed": st.integers(0, 2**32),
    }
)


@settings(max_examples=150)
@given(kernel_cases)
def test_kernel_matches_reference_step(case):
    grid = layout_grid(
        FieldSpec(width_m=case["width"], height_m=case["height"]),
        SeedingStrategy(dx_m=case["dx"], dy_m=case["dy"]),
    )
    states = _random_states(grid.count, case["round_index"], case["seed"])
    params = PathogenParams(beta0=case["beta0"], gamma=case["gamma"])
    _assert_kernel_matches_reference(
        grid,
        states,
        params,
        case["seed"],
        case["round_index"],
        epsilon_p=case["epsilon_p"],
        deterministic_duration=case["deterministic_duration"],
    )


# Gates under which no lattice gets a kernel table or an offset table, so
# every round takes the np.hypot path.
_NO_TABLES = {"TABLE_CAP": 0, "_WINDOW_ASPECT": 0}

_step_cases = [
    (0.6, 1e-6, False, False),  # beta0 >= spacing: p = 1 pairs
    (0.003, 5e-4, False, True),  # cutoff 6 m < 8.49 m diagonal
    (0.002, 1e-3, False, True),  # cutoff exactly 2 m, a lattice distance
    (0.003, 0.0, False, False),  # no cutoff
    (0.05, 1e-6, True, False),  # fixed infectious period, no removal draws
]


@pytest.mark.parametrize(
    "path, beta0, epsilon_p, deterministic_duration, truncates",
    # Stable ids: a table case's id does not name its path.
    [pytest.param("table", *case, id="-".join(map(str, case))) for case in _step_cases]
    + [pytest.param("hypot", *case, id="-".join(map(str, ("hypot", *case))))
       for case in _step_cases],
)
def test_kernel_matches_reference_step_cases(
    path, beta0, epsilon_p, deterministic_duration, truncates
):
    grid = layout_grid(FieldSpec(6.0, 6.0), SeedingStrategy(0.5, 0.5))  # 169 plants
    assert (epsilon_p > 0 and beta0 / epsilon_p < grid.span_m) == truncates
    params = PathogenParams(beta0=beta0, gamma=0.2)
    gates = {} if path == "table" else _NO_TABLES
    hypot = mock.Mock(wraps=epidemic._hypot_survival)
    with mock.patch.multiple(
        epidemic, _kernel_cache=(None, None), _hypot_survival=hypot, **gates
    ):
        for seed in range(5):
            states = _random_states(grid.count, 3, seed)
            _assert_kernel_matches_reference(
                grid,
                states,
                params,
                seed,
                3,
                epsilon_p=epsilon_p,
                deterministic_duration=deterministic_duration,
            )
    assert (hypot.call_count > 0) == (path == "hypot")


def test_round_without_susceptibles_draws_only_removals():
    grid = layout_grid(FieldSpec(2, 2), SeedingStrategy(0.5, 0.5))
    infected = np.arange(0, grid.count, 2)
    states = PlantStates(grid.count)
    states.infect(infected, 1)
    states.status[1::2] = Status.REMOVED
    params = PathogenParams(beta0=0.8, gamma=0.3)
    rng = np.random.default_rng(4)
    step(grid, states, params, rng, round_index=1)

    replay = np.random.default_rng(4)
    replay.random(infected.size)  # the removal draws
    assert rng.bit_generator.state == replay.bit_generator.state


# -- the kernel table against the np.hypot loop --------------------------------


def _table_inputs(grid):
    """The distinct x gaps and y gaps a grid's kernel table is built from."""
    def gaps(axis):
        return np.unique(np.abs(axis[None, :] - axis[:, None]))
    return gaps(grid.xs), gaps(grid.ys)


def _assert_hypot_ignores_signs(grid):
    # The table holds hypot(|dx|, |dy|); the loop computes hypot(dx, dy)
    # with the signs each pair gives. Every pair's (|dx|, |dy|) is a pair
    # of table inputs, so this covers every pair of the lattice.
    gx, gy = _table_inputs(grid)
    a, b = gx[:, None], gy[None, :]
    unsigned = np.hypot(a, b)
    for sa, sb in ((-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
        assert np.array_equal(np.hypot(sa * a, sb * b), unsigned)


def _assert_table_matches_loop(grid, seed, beta0, cutoff, block=None):
    states = _random_states(grid.count, 3, seed)
    susceptible = np.flatnonzero(states.status == Status.SUSCEPTIBLE)
    infected = np.flatnonzero(states.status == Status.INFECTED)
    assert epidemic._kernel(grid, beta0, cutoff).table is not None
    with mock.patch.object(epidemic, "_BLOCK", block or epidemic._BLOCK):
        table = epidemic._survival(grid, susceptible, infected, beta0, cutoff)
    loop = epidemic._hypot_survival(grid, susceptible, infected, beta0, cutoff)
    assert np.array_equal(table, loop)  # bit for bit


# One lattice axis: a length and a spacing, either drawn as floats or as a
# whole number of steps of a decimal spacing, where k * spacing often lands
# an ulp past the length and the boundary row is clamped back into it.
lattice_axes = st.one_of(
    st.tuples(st.floats(0.5, 6.0), st.floats(0.2, 1.0)),
    st.tuples(st.integers(1, 30), st.sampled_from([0.1, 0.2, 0.3, 0.7])).map(
        lambda ks: (round(ks[0] * ks[1], 9), ks[1])
    ),
)

table_cases = st.fixed_dictionaries(
    {
        "x": lattice_axes,
        "y": lattice_axes,
        "prefix": st.one_of(st.none(), st.floats(0.0, 1.0)),  # explicit_count share
        # small rates, and rates at or above the spacing (p = 1 pairs)
        "beta0": st.one_of(st.floats(0.0, 0.01), st.floats(0.2, 1.0)),
        # none (epsilon_p = 0), any length, or exactly one lattice distance
        "cutoff": st.one_of(
            st.just(math.inf),
            st.floats(0.05, 8.0),
            st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
        ),
        "block": st.sampled_from([1, 5, 64, None]),
        "seed": st.integers(0, 2**32),
    }
)


def _table_case_grid(case):
    field = FieldSpec(width_m=case["x"][0], height_m=case["y"][0])
    strategy = SeedingStrategy(dx_m=case["x"][1], dy_m=case["y"][1])
    grid = layout_grid(field, strategy)
    if case["prefix"] is not None:
        grid = layout_grid(field, strategy, max(1, round(case["prefix"] * grid.count)))
    cutoff = case["cutoff"]
    if isinstance(cutoff, tuple):
        gx, gy = _table_inputs(grid)
        cutoff = float(np.hypot(gx[cutoff[0] % gx.size], gy[cutoff[1] % gy.size]))
    return grid, cutoff


@settings(max_examples=150)
@given(table_cases)
def test_table_kernel_matches_hypot_loop(case):
    grid, cutoff = _table_case_grid(case)
    _assert_hypot_ignores_signs(grid)
    _assert_table_matches_loop(grid, case["seed"], case["beta0"], cutoff, case["block"])


@pytest.mark.parametrize(
    "width, spacing, explicit_count",
    [
        (0.6, 0.2, None),  # 3 * 0.2 overshoots 0.6: the last row is clamped
        (0.7, 0.1, 30),  # clamped, and a prefix that ends inside a row
        (6.0, 0.5, 5),  # a prefix shorter than one row
    ],
)
@pytest.mark.parametrize(
    "beta0, cutoff",
    [
        (0.6, math.inf),  # beta0 >= spacing: p = 1 pairs; no cutoff
        (0.003, 0.5),  # truncates
        (0.002, 2.0),  # truncates exactly at a lattice distance
    ],
)
def test_table_kernel_cases(width, spacing, explicit_count, beta0, cutoff):
    field = FieldSpec(width, width)
    grid = layout_grid(field, SeedingStrategy(spacing, spacing), explicit_count)
    if width < 1.0:  # the y axis is whole in these cases
        assert (grid.ys.size - 1) * spacing > width and grid.ys[-1] == width
    for seed in range(5):
        _assert_table_matches_loop(grid, seed, beta0, cutoff)


@pytest.mark.parametrize(
    "width, spacing",
    [(10.0, 0.2), (12.0, 0.12), (5.0, 0.1), (0.7, 0.1), (8.3, 0.37)],
)
def test_hypot_ignores_signs_on_every_table_input(width, spacing):
    # The desk lattice, the largest square table under the cap, and others.
    grid = layout_grid(FieldSpec(width, width), SeedingStrategy(spacing, spacing))
    assert epidemic._kernel(grid, 0.003, math.inf).table is not None
    _assert_hypot_ignores_signs(grid)


def test_lattices_of_one_shape_get_their_own_tables():
    # 9 x 9 plants each; the cache is keyed by the axes' values, so a grid
    # that reuses a freed grid's memory still gets its own table.
    spacings = (0.25, 0.5, 0.25, 0.3)
    tables = []
    for spacing in spacings:
        grid = layout_grid(FieldSpec(2.0, 2.0 * spacing / 0.25),
                           SeedingStrategy(0.25, spacing))
        assert (grid.xs.size, grid.ys.size) == (9, 9)
        tables.append(epidemic._kernel(grid, 0.3, math.inf).table[0].copy())
        _assert_table_matches_loop(grid, 0, 0.3, math.inf)
        del grid
    assert np.array_equal(tables[0], tables[2])
    assert not np.array_equal(tables[0], tables[1])
    assert not np.array_equal(tables[1], tables[3])


def test_a_lattice_above_the_cap_builds_no_table():
    full = layout_grid(FieldSpec(), SeedingStrategy())  # 501 x 501 plants
    # Ruled out by its shape: no gap is computed.
    with mock.patch.object(
        epidemic, "_axis_gaps", side_effect=AssertionError("gaps")
    ), mock.patch.object(epidemic, "_kernel_cache", (None, None)):
        assert epidemic._kernel(full, 0.003, math.inf).table is None
    # Index maps within the cap (2 * 181**2 entries), but 667**2 gap pairs.
    wide = layout_grid(FieldSpec(18.0, 18.0), SeedingStrategy(0.1, 0.1))
    assert epidemic._kernel(wide, 0.003, math.inf).table is None
    # compare's largest lattice, 121 x 121 plants and 413**2 gap pairs.
    largest = layout_grid(FieldSpec(12.0, 12.0), SeedingStrategy(0.1, 0.1))
    assert epidemic._kernel(largest, 0.003, math.inf).table is not None
    desk = layout_grid(FieldSpec(10.0, 10.0), SeedingStrategy(0.2, 0.2))
    assert epidemic._kernel(desk, 0.003, math.inf).table is not None
    with mock.patch.multiple(epidemic, TABLE_CAP=2 * 51**2 - 1, _kernel_cache=(None, None)):
        assert epidemic._kernel(desk, 0.003, math.inf).table is None


@pytest.mark.parametrize("mode", list(PlacementMode))
def test_seasons_are_the_same_with_and_without_the_table(mode):
    scenario = _scenario(
        field=FieldSpec(4.0, 4.0),
        pathogen=PathogenParams(beta0=0.3, gamma=0.2, initial_infected=3),
        horizon_steps=6,
        placement_mode=mode,
    )
    for seed in range(3):
        sc = replace(scenario, rng_seed=seed)
        hypot = mock.Mock(wraps=epidemic._hypot_survival)
        with mock.patch.object(epidemic, "_hypot_survival", hypot):
            table = run(sc)
            assert hypot.call_count == 0  # every round read the table
            with mock.patch.multiple(epidemic, _kernel_cache=(None, None), **_NO_TABLES):
                loop = run(sc)
            assert hypot.call_count > 0
        assert table.trajectory == loop.trajectory
        assert repr(table.total_profit) == repr(loop.total_profit)


# -- the per-plant table read against the np.hypot loop --------------------------


def _assert_table_reads_match_loop(grid, targets, infected, beta0, cutoff):
    # Returns whether the round read the table per plant, which it must do
    # exactly when at least half the lattice's nx * ny points are targets.
    lattice = mock.Mock(wraps=epidemic._lattice_table_survival)
    with mock.patch.object(epidemic, "_lattice_table_survival", lattice):
        table = epidemic._survival(grid, targets, infected, beta0, cutoff)
    assert epidemic._kernel(grid, beta0, cutoff).table is not None
    loop = epidemic._hypot_survival(grid, targets, infected, beta0, cutoff)
    assert np.array_equal(table, loop)  # bit for bit
    per_plant = 2 * targets.size >= grid.xs.size * grid.ys.size
    assert lattice.call_count == per_plant
    return per_plant


def _edge_plants(grid):
    """The corners of the lattice, those of its last full row, and a plant
    on the middle of each edge."""
    nx, ny, last = grid.xs.size, grid.ys.size, grid.count - 1
    full = (grid.count // ny - 1) * ny  # the start of the last full row
    picks = [0, ny - 1, full, full + ny - 1, (nx - 1) * ny, last,
             ny // 2, (nx // 2) * ny, (nx // 2) * ny + ny - 1, full + ny // 2]
    return np.unique(np.minimum(picks, last))


def _targets_around_the_gate(grid, infected, above, seed):
    """Targets among the other plants: half the lattice's nx * ny points,
    rounded up, or one fewer; at most all the other plants."""
    half = -(-grid.xs.size * grid.ys.size // 2)
    others = np.setdiff1d(np.arange(grid.count), infected)
    size = min(others.size, half if above else half - 1)
    return np.sort(np.random.default_rng(seed).choice(others, size=size, replace=False))


@pytest.mark.parametrize(
    "width, height, spacing, explicit_count",
    [
        (4.0, 4.0, 0.2, None),  # 21 x 21
        (3.0, 2.0, 0.2, 170),  # 16 x 11 points, a last row of 5 plants
        (0.7, 0.7, 0.1, None),  # 8 x 8, the last row and column clamped
    ],
)
@pytest.mark.parametrize(
    "beta0, cutoff",
    [
        (0.6, math.inf),  # beta0 >= spacing: p = 1 pairs; no cutoff
        (0.003, 0.5),  # a cutoff shorter than the span
        (0.002, 1.0),  # a cutoff at a lattice distance
    ],
)
@pytest.mark.parametrize("sources", ["one", "edges", "random"])
@pytest.mark.parametrize("above", [True, False])
def test_the_per_plant_table_read_cases(
    width, height, spacing, explicit_count, beta0, cutoff, sources, above
):
    grid = layout_grid(FieldSpec(width, height), SeedingStrategy(spacing, spacing),
                       explicit_count)
    if explicit_count is not None:
        assert grid.count % grid.ys.size  # a partial last row
    for seed in range(3):
        pick = np.random.default_rng(seed)
        infected = {
            "one": pick.choice(grid.count, size=1),
            "edges": _edge_plants(grid),
            "random": np.sort(pick.choice(grid.count, size=grid.count // 5, replace=False)),
        }[sources]
        targets = _targets_around_the_gate(grid, infected, above, seed)
        assert _assert_table_reads_match_loop(grid, targets, infected, beta0, cutoff) == above


@settings(max_examples=100)
@given(table_cases, st.booleans(), st.integers(1, 8))
def test_the_per_plant_table_read_matches_hypot_loop(case, above, sources):
    grid, cutoff = _table_case_grid(case)
    assume(grid.count >= 2)
    pick = np.random.default_rng(case["seed"])
    infected = np.sort(pick.choice(grid.count, size=min(sources, grid.count - 1), replace=False))
    targets = _targets_around_the_gate(grid, infected, above, case["seed"])
    with mock.patch.object(epidemic, "_BLOCK", case["block"] or epidemic._BLOCK):
        _assert_table_reads_match_loop(grid, targets, infected, case["beta0"], cutoff)


@pytest.mark.parametrize("mode", list(PlacementMode))
def test_seasons_are_the_same_with_both_table_reads(mode):
    # 21 x 21 plants: the first rounds have most plants as targets and read
    # the table per plant; the later ones read it by blocks.
    scenario = _scenario(
        field=FieldSpec(5.0, 5.0),
        pathogen=PathogenParams(beta0=0.02, gamma=0.2, initial_infected=3),
        horizon_steps=8,
        placement_mode=mode,
    )
    for seed in range(3):
        sc = replace(scenario, rng_seed=seed)
        hypot = mock.Mock(wraps=epidemic._hypot_survival)
        reads = mock.Mock(wraps=epidemic._table_survival)
        lattice = mock.Mock(wraps=epidemic._lattice_table_survival)
        with mock.patch.multiple(epidemic, _hypot_survival=hypot, _table_survival=reads,
                                 _lattice_table_survival=lattice):
            table = run(sc)
            assert hypot.call_count == 0  # every round read the table
            assert 0 < lattice.call_count < reads.call_count  # both reads ran
            with mock.patch.multiple(epidemic, _kernel_cache=(None, None), **_NO_TABLES):
                loop = run(sc)
            assert hypot.call_count > 0
        assert table.trajectory == loop.trajectory
        assert repr(table.total_profit) == repr(loop.total_profit)


# -- the offset-table window kernel against the np.hypot loop -------------------


@contextlib.contextmanager
def _windows(exceptions=math.inf):
    # Every round of any lattice without a kernel table takes the window path:
    # any shape, and any exception list unless `exceptions` bounds it. The
    # kernel states built under these gates start from an empty cache and
    # are dropped on exit, so no state outlives the gates it was decided by.
    with mock.patch.multiple(
        epidemic,
        TABLE_CAP=0,
        _WINDOW_TARGETS=0.0,
        _WINDOW_EXCEPTIONS=exceptions,
        _WINDOW_ASPECT=math.inf,
        _kernel_cache=(None, None),
    ):
        yield


def _assert_window_matches_loop(grid, seed, beta0, cutoff):
    states = _random_states(grid.count, 3, seed)
    states.status[[0, grid.count - 1]] = Status.INFECTED  # sources in the first and last rows
    susceptible = np.flatnonzero(states.status == Status.SUSCEPTIBLE)
    infected = np.flatnonzero(states.status == Status.INFECTED)
    with _windows():
        window = epidemic._survival(grid, susceptible, infected, beta0, cutoff)
        assert epidemic._kernel(grid, beta0, cutoff).window is not None
    loop = epidemic._hypot_survival(grid, susceptible, infected, beta0, cutoff)
    assert np.array_equal(window, loop)  # bit for bit


@settings(max_examples=150)
@given(table_cases)
def test_window_kernel_matches_hypot_loop(case):
    grid, cutoff = _table_case_grid(case)
    _assert_hypot_ignores_signs(grid)
    _assert_window_matches_loop(grid, case["seed"], case["beta0"], cutoff)


@settings(max_examples=60)
@given(table_cases)
def test_the_exception_list_is_complete(case):
    # For every pair of plants, the pair's factor from its own gaps is the
    # table's factor at its offsets, unless the pair is among the exception
    # targets of its source, with that factor.
    grid, cutoff = _table_case_grid(case)
    beta0 = case["beta0"]
    with _windows():
        table, shift, exact, xv, yv, x_seen, y_seen = epidemic._build_window(
            grid.xs, grid.ys, beta0, cutoff
        )
    nx, ny = grid.xs.size, grid.ys.size
    rows, columns = np.divmod(np.arange(nx * ny), ny)
    for p in range(nx * ny):
        r, c = divmod(p, ny)
        gaps = np.abs(grid.xs[rows] - grid.xs[r]), np.abs(grid.ys[columns] - grid.ys[c])
        factors = epidemic._pair_factors(*gaps, beta0, cutoff)
        offsets = table[np.abs(rows - r), ny - 1 + np.abs(columns - c)]
        hit = np.flatnonzero(x_seen[r].take(xv) & y_seen[c].take(yv))
        targets = shift[hit] + p
        assert set(targets.tolist()) == set(np.flatnonzero(factors != offsets).tolist())
        # beta0 = 0 makes the pair of a plant with itself 0 / 0, an exception.
        assert np.array_equal(exact[hit], factors[targets], equal_nan=True)


@pytest.mark.parametrize(
    "width, spacing, explicit_count",
    [
        (0.6, 0.2, None),  # 3 * 0.2 overshoots 0.6: the last row is clamped
        (0.7, 0.1, 30),  # clamped, and a prefix that ends inside a row
        (6.0, 0.5, 5),  # a prefix shorter than one row
    ],
)
@pytest.mark.parametrize(
    "beta0, cutoff",
    [
        (0.6, math.inf),  # beta0 >= spacing: p = 1 pairs; no cutoff
        (0.003, 0.5),  # truncates
        (0.002, 2.0),  # truncates exactly at a lattice distance
    ],
)
def test_window_kernel_cases(width, spacing, explicit_count, beta0, cutoff):
    grid = layout_grid(FieldSpec(width, width), SeedingStrategy(spacing, spacing), explicit_count)
    nx = grid.xs.size
    for rows in (1, 2, 3, nx - 1, nx):  # lattice rows per band
        with mock.patch.object(epidemic, "_BAND", max(1, rows) * grid.ys.size):
            for seed in range(5):
                _assert_window_matches_loop(grid, seed, beta0, cutoff)


@pytest.mark.parametrize("band", [1, 2, 3, "nx - 1", "nx"])
def test_window_bands_split_exception_targets(band):
    # A plant's exception targets fall on both sides of a band edge: each
    # band puts back the factors of its own targets, from the products
    # saved in that band.
    grid = layout_grid(FieldSpec(4.0, 4.0), SeedingStrategy(0.3, 0.3))
    nx, ny = grid.xs.size, grid.ys.size
    rows = {"nx - 1": nx - 1, "nx": nx}.get(band, band)
    edges = np.arange(rows, nx, rows) * ny
    with _windows():
        _, shift, _, xv, yv, x_seen, y_seen = epidemic._build_window(
            grid.xs, grid.ys, 0.3, math.inf
        )
    assert np.all(np.diff(shift) >= 0)
    split = 0
    for p in (0, grid.count // 2, grid.count - 1):
        r, c = divmod(p, ny)
        at = shift[x_seen[r].take(xv) & y_seen[c].take(yv)] + p
        assert np.all(np.diff(at) > 0)
        split += sum(bool(np.any(at < edge) and np.any(at >= edge)) for edge in edges.tolist())
    assert split > 0 or rows == nx
    with mock.patch.object(epidemic, "_BAND", rows * ny):
        for seed in range(3):
            _assert_window_matches_loop(grid, seed, 0.3, math.inf)


@pytest.mark.parametrize(
    "beta0, cutoff",
    [
        (0.001, 1000.0),  # the paper's beta0 range and epsilon_p = 1e-6
        (0.003, 3000.0),
        (0.005, 5000.0),
        (0.003, 12.5),  # truncates inside the field
    ],
)
def test_a_full_scale_round_takes_the_window_path(beta0, cutoff):
    grid = layout_grid(FieldSpec(), SeedingStrategy())  # 251,001 plants
    states = _random_states(grid.count, 3, 0)
    susceptible = np.flatnonzero(states.status == Status.SUSCEPTIBLE)
    infected = np.flatnonzero(states.status == Status.INFECTED)[::4000]  # 16 plants
    assert susceptible.size >= epidemic._WINDOW_TARGETS * grid.count
    with mock.patch.object(epidemic, "_hypot_survival", side_effect=AssertionError("hypot")):
        window = epidemic._survival(grid, susceptible, infected, beta0, cutoff)
    loop = epidemic._hypot_survival(grid, susceptible, infected, beta0, cutoff)
    assert np.array_equal(window, loop)


# Lattices between the two tables: too many gaps for a kernel table, and
# far smaller than the full-scale lattice: 251 x 251 and 501 x 51 plants.
_between_tables = pytest.mark.parametrize(
    "field, strategy",
    [
        (FieldSpec(25.0, 25.0), SeedingStrategy(0.1, 0.1)),
        (FieldSpec(100.0, 10.0), SeedingStrategy(0.2, 0.2)),
    ],
    ids=["25m-0.1m", "100x10m-0.2m"],
)


@_between_tables
def test_a_round_between_the_tables_takes_the_window_path(field, strategy):
    grid = layout_grid(field, strategy)
    states = _random_states(grid.count, 3, 0)
    susceptible = np.flatnonzero(states.status == Status.SUSCEPTIBLE)
    infected = np.flatnonzero(states.status == Status.INFECTED)[::1000]
    windows = mock.Mock(wraps=epidemic._window_survival)
    with mock.patch.multiple(
        epidemic,
        _kernel_cache=(None, None),
        _window_survival=windows,
        _hypot_survival=mock.Mock(side_effect=AssertionError("hypot")),
    ):
        window = epidemic._survival(grid, susceptible, infected, 0.003, 3000.0)
        assert epidemic._kernel(grid, 0.003, 3000.0).table is None
    assert windows.call_count == 1
    loop = epidemic._hypot_survival(grid, susceptible, infected, 0.003, 3000.0)
    assert np.array_equal(window, loop)  # bit for bit


@_between_tables
def test_a_season_between_the_tables_is_the_same_without_windows(field, strategy):
    scenario = _scenario(field=field, strategy=strategy, horizon_steps=2)
    for seed in range(2):
        sc = replace(scenario, rng_seed=seed)
        hypot = mock.Mock(wraps=epidemic._hypot_survival)
        windows = mock.Mock(wraps=epidemic._window_survival)
        with mock.patch.multiple(epidemic, _hypot_survival=hypot, _window_survival=windows):
            with mock.patch.object(epidemic, "_kernel_cache", (None, None)):
                window = run(sc)
            assert (hypot.call_count, windows.call_count) == (0, 1)
            with mock.patch.multiple(epidemic, _kernel_cache=(None, None), _WINDOW_ASPECT=0):
                loop = run(sc)
            assert (hypot.call_count, windows.call_count) == (1, 1)
        assert window.trajectory == loop.trajectory
        assert repr(window.total_profit) == repr(loop.total_profit)


def test_a_long_exception_list_falls_back_to_hypot():
    grid = layout_grid(FieldSpec(4.0, 4.0), SeedingStrategy(0.3, 0.3))
    states = _random_states(grid.count, 3, 1)
    susceptible = np.flatnonzero(states.status == Status.SUSCEPTIBLE)
    infected = np.flatnonzero(states.status == Status.INFECTED)
    with _windows():
        # it has exceptions
        assert epidemic._build_window(grid.xs, grid.ys, 0.3, math.inf)[1].size > 0
    hypot = mock.Mock(wraps=epidemic._hypot_survival)
    with _windows(exceptions=0.0), mock.patch.object(epidemic, "_hypot_survival", hypot):
        survival = epidemic._survival(grid, susceptible, infected, 0.3, math.inf)
        state = epidemic._kernel(grid, 0.3, math.inf)
        assert state.window is None and state.work is None
    assert hypot.call_count == 1
    assert np.array_equal(survival, epidemic._hypot_survival(grid, susceptible, infected, 0.3,
                                                              math.inf))


def test_a_sparse_round_falls_back_to_hypot():
    # 1/16 of the full-scale lattice is susceptible: below the window share.
    grid = layout_grid(FieldSpec(), SeedingStrategy())
    susceptible = np.arange(3, grid.count, 16)
    infected = np.array([0, 1, 2, 125_000])
    assert susceptible.size < epidemic._WINDOW_TARGETS * grid.count
    with mock.patch.object(epidemic, "_window_survival", side_effect=AssertionError("window")):
        survival = epidemic._survival(grid, susceptible, infected, 0.003, 3000.0)
    with _windows():
        window = epidemic._survival(grid, susceptible, infected, 0.003, 3000.0)
    assert np.array_equal(survival, window)


def test_a_strip_lattice_builds_no_window_table():
    # 2 x 501 plants without its kernel table, and 2 x 5001 plants, too
    # many gaps for one: only the shape rules the offset table out, and a
    # lattice with neither table keeps no work arrays.
    for height, gates in ((10.0, {"TABLE_CAP": 0}), (100.0, {})):
        strip = layout_grid(FieldSpec(0.2, height), SeedingStrategy(0.2, 0.02))
        with mock.patch.object(
            epidemic, "_build_window", side_effect=AssertionError("build")
        ), mock.patch.multiple(epidemic, _kernel_cache=(None, None), **gates):
            state = epidemic._kernel(strip, 0.003, math.inf)
            assert state.table is None and state.window is None and state.work is None


def test_lattices_of_one_shape_get_their_own_window_tables():
    spacings = (0.25, 0.5, 0.25, 0.3)
    tables = []
    with _windows():  # one cache for the four lattices
        for spacing in spacings:
            grid = layout_grid(FieldSpec(2.0, 2.0 * spacing / 0.25),
                               SeedingStrategy(0.25, spacing))
            assert (grid.xs.size, grid.ys.size) == (9, 9)
            tables.append(epidemic._kernel(grid, 0.3, math.inf).window[0].copy())
            _assert_window_matches_loop(grid, 0, 0.3, math.inf)
            del grid
    assert np.array_equal(tables[0], tables[2])
    assert not np.array_equal(tables[0], tables[1])
    assert not np.array_equal(tables[1], tables[3])


@pytest.mark.parametrize("mode", list(PlacementMode))
def test_seasons_are_the_same_with_and_without_windows(mode):
    scenario = _scenario(
        field=FieldSpec(4.0, 4.0),
        pathogen=PathogenParams(beta0=0.3, gamma=0.2, initial_infected=3),
        horizon_steps=6,
        placement_mode=mode,
    )
    for seed in range(3):
        sc = replace(scenario, rng_seed=seed)
        hypot = mock.Mock(wraps=epidemic._hypot_survival)
        windows = mock.Mock(wraps=epidemic._window_survival)
        with mock.patch.multiple(epidemic, _hypot_survival=hypot, _window_survival=windows):
            with _windows():
                window = run(sc)
            taken = windows.call_count
            assert hypot.call_count == 0 and taken > 0
            with mock.patch.multiple(epidemic, _kernel_cache=(None, None), **_NO_TABLES):
                loop = run(sc)
            assert hypot.call_count > 0 and windows.call_count == taken
        assert window.trajectory == loop.trajectory
        assert repr(window.total_profit) == repr(loop.total_profit)


# -- the window round's kept work arrays ----------------------------------------


def _keep_infected(n):
    """An edit that removes all but the first n infected plants, so the
    reference's one neighbor scan per infected plant stays cheap."""
    def edit(status, pick):
        status[np.flatnonzero(status == Status.INFECTED)[n:]] = Status.REMOVED
    return edit


def _assert_rounds_match_reference(grid, status, params, seed, rounds):
    """Consecutive `step`s on one lattice against the all-plants reference:
    before each round its edit rewrites both populations the same way (so a
    round can have more susceptible plants than the one before), and after
    it the states and the RNG streams must agree bit for bit. No engine
    round may take the np.hypot path. Returns how many rounds took the
    window path with the lattice's kernel state."""
    fast, slow = PlantStates(grid.count), PlantStates(grid.count)
    fast.status[:] = slow.status[:] = status
    fast.infected_at[status != Status.SUSCEPTIBLE] = 1
    slow.infected_at[:] = fast.infected_at
    fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    no_hypot = mock.patch.object(epidemic, "_hypot_survival", side_effect=AssertionError("hypot"))
    kept = mock.Mock(wraps=epidemic._window_survival)
    for t, (edit, epsilon_p) in enumerate(rounds, start=1):
        for states in (fast, slow):
            edit(states.status, np.random.default_rng([seed, t]))
        calls = kept.call_count
        with no_hypot, mock.patch.object(epidemic, "_window_survival", kept):
            step(grid, fast, params, fast_rng, t, epsilon_p=epsilon_p)
        if kept.call_count > calls:
            state = kept.call_args.args[0]
            assert state is epidemic._kernel_cache[1]
            assert state.work[0].shape == (grid.xs.size, grid.ys.size)
        with mock.patch.object(epidemic, "_draw_infections", _reference_draw_infections):
            step(grid, slow, params, slow_rng, t, epsilon_p=epsilon_p)
        assert np.array_equal(fast.status, slow.status)
        assert np.array_equal(fast.infected_at, slow.infected_at)
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
    return kept.call_count


def _shrink(status, pick):
    # Half the susceptible plants are removed.
    susceptible = np.flatnonzero(status == Status.SUSCEPTIBLE)
    status[susceptible[pick.random(susceptible.size) < 0.5]] = Status.REMOVED


def _grow(status, pick):
    # Half the removed plants are susceptible again.
    removed = np.flatnonzero(status == Status.REMOVED)
    status[removed[pick.random(removed.size) < 0.5]] = Status.SUSCEPTIBLE


kept_cases = st.fixed_dictionaries(
    {
        "width": st.floats(0.5, 6.0),
        "height": st.floats(0.5, 6.0),
        "dx": st.floats(0.2, 1.0),
        "dy": st.floats(0.2, 1.0),
        "beta0": st.one_of(st.floats(0.0, 0.01), st.floats(0.2, 1.0)),
        "gamma": st.floats(0.01, 1.0),
        "epsilon_p": st.one_of(st.sampled_from([1e-6, 0.0]), st.floats(1e-3, 0.5)),
        "edits": st.lists(st.sampled_from(["none", "shrink", "grow"]), min_size=2, max_size=5),
        "seed": st.integers(0, 2**32),
    }
)


@settings(max_examples=60)
@given(kept_cases)
def test_window_rounds_with_kept_arrays_match_the_reference(case):
    grid = layout_grid(
        FieldSpec(width_m=case["width"], height_m=case["height"]),
        SeedingStrategy(dx_m=case["dx"], dy_m=case["dy"]),
    )
    params = PathogenParams(beta0=case["beta0"], gamma=case["gamma"])
    status = _random_states(grid.count, 1, case["seed"]).status
    susceptible = np.flatnonzero(status == Status.SUSCEPTIBLE)
    infected = np.flatnonzero(status == Status.INFECTED)
    edits = {"none": lambda status, pick: None, "shrink": _shrink, "grow": _grow}
    rounds = [(edits[name], case["epsilon_p"]) for name in case["edits"]]
    with _windows():
        # A window read returns a view of the state's gathered survival,
        # which the next round of the lattice overwrites.
        held = epidemic._survival(grid, susceptible, infected, params.beta0, math.inf)
        assert held.base is epidemic._kernel(grid, params.beta0, math.inf).work[1]
        _assert_rounds_match_reference(grid, status, params, case["seed"], rounds)


@pytest.mark.parametrize("gates", [{}, {"TABLE_CAP": 0}], ids=["table", "window"])
def test_both_lattice_reads_and_every_draw_use_the_kept_arrays(gates):
    grid = layout_grid(FieldSpec(10.0, 10.0), SeedingStrategy(0.2, 0.2))  # 51 x 51
    params = PathogenParams(beta0=0.003, gamma=0.2)  # few enough exceptions
    name = "_window_survival" if gates else "_lattice_table_survival"
    with mock.patch.multiple(epidemic, _kernel_cache=(None, None), **gates):
        state = epidemic._kernel(grid, params.beta0, math.inf)
        assert (state.table is None) == bool(gates) and (state.window is None) != bool(gates)
        # Most plants targets (a read of the whole lattice), then one
        # susceptible plant in 16 (the block read, or np.hypot).
        for share, reads in ((1, 1), (16, 0)):
            states = _random_states(grid.count, 1, share)
            susceptible = np.flatnonzero(states.status == Status.SUSCEPTIBLE)
            states.status[susceptible[np.arange(susceptible.size) % share != 0]] = Status.REMOVED
            susceptible = np.flatnonzero(states.status == Status.SUSCEPTIBLE)
            infected = np.flatnonzero(states.status == Status.INFECTED)
            read = mock.Mock(wraps=getattr(epidemic, name))
            with mock.patch.object(epidemic, name, read):
                survival = epidemic._survival(grid, susceptible, infected, params.beta0, math.inf)
                assert (survival.base is state.work[1]) == bool(reads)
                assert np.all(survival < 1.0)  # without a cutoff every plant is at risk
                step(grid, states, params, np.random.default_rng(share), epsilon_p=0.0)
            assert read.call_count == 2 * reads
            assert epidemic._kernel_cache[1] is state
            replay = np.random.default_rng(share)
            replay.random(infected.size)  # the removal draws
            draws = replay.random(susceptible.size)
            assert np.array_equal(state.work[0].reshape(-1)[: susceptible.size], draws)


def test_full_scale_kept_arrays_survive_a_change_of_lattice():
    full = layout_grid(FieldSpec(), SeedingStrategy())  # 501 x 501 plants
    desk = layout_grid(FieldSpec(10.0, 10.0), SeedingStrategy(0.2, 0.2))  # 51 x 51

    def rows_before(row):
        # An edit that removes the susceptible plants of the rows before `row`.
        def edit(status, pick):
            head = status[: row * full.ys.size]
            head[head == Status.SUSCEPTIBLE] = Status.REMOVED
        return edit

    def revive(status, pick):
        status[status == Status.REMOVED] = Status.SUSCEPTIBLE

    def then(*edits):
        def edit(status, pick):
            for e in edits:
                e(status, pick)
        return edit

    keep = _keep_infected(6)
    # Every susceptible plant at risk; the susceptible count shrinks a
    # little, then to a fifth (still a window round), then grows back;
    # last, a 12.5 m cutoff leaves only some plants at risk.
    full_rounds = [
        (keep, 1e-6),
        (keep, 1e-6),
        (then(keep, rows_before(400)), 1e-6),
        (then(keep, revive), 1e-6),
        (keep, 0.003 / 12.5),
    ]
    full_status = np.zeros(full.count, dtype=np.int8)
    full_status[[0, 60_123, 125_500, full.count - 1]] = Status.INFECTED
    desk_status = _random_states(desk.count, 1, 5).status
    desk_rounds = [(keep, 1e-6), (_shrink, 1e-6), (_grow, 0.3 / 0.5)]

    desk_gates = mock.patch.multiple(
        epidemic,
        TABLE_CAP=0,
        _WINDOW_TARGETS=0.0,
        _WINDOW_EXCEPTIONS=math.inf,
        _WINDOW_ASPECT=math.inf,
    )
    held = []
    # The full-scale rounds pass every window gate at its real value; only
    # the desk rounds need patched gates to take the window path. The three
    # lattices share one cache, so each change of lattice replaces the
    # state of the one before, and the desk state, decided under the
    # patched gates, is gone before the last full-scale rounds.
    with mock.patch.object(epidemic, "_kernel_cache", (None, None)):
        for grid, status, beta0, rounds in (
            (full, full_status, 0.003, full_rounds),
            (desk, desk_status, 0.3, desk_rounds),
            (full, full_status, 0.003, full_rounds[::-1]),
        ):
            params = PathogenParams(beta0=beta0, gamma=0.2)
            with desk_gates if grid is desk else contextlib.nullcontext():
                taken = _assert_rounds_match_reference(grid, status, params, 7, rounds)
            assert taken == len(rounds)
            held.append(epidemic._kernel_cache[1].work)
    # Each change of lattice shape replaced the work arrays.
    assert [arrays[0].shape for arrays in held] == [(501, 501), (51, 51), (501, 501)]
    assert held[0][0] is not held[2][0] and held[0][1] is not held[2][1]


def test_a_kernel_state_lives_until_another_lattice_or_pathogen_runs():
    full = layout_grid(FieldSpec(), SeedingStrategy())  # 501 x 501 plants
    desk = layout_grid(FieldSpec(10.0, 10.0), SeedingStrategy(0.2, 0.2))  # 51 x 51

    def round_on(grid, beta0, share=1):
        # One round with two infected plants and every share-th plant
        # susceptible, without a cutoff, so only beta0 tells two pathogens
        # apart: at full scale a window round when share is 1.
        states = PlantStates(grid.count)
        states.status[np.arange(grid.count) % share != 0] = Status.REMOVED
        states.infect(np.array([0, grid.count // 2]), 1)
        params = PathogenParams(beta0=beta0, gamma=0.2)
        step(grid, states, params, np.random.default_rng(0), epsilon_p=0.0)
        return epidemic._kernel_cache[1]

    with mock.patch.object(epidemic, "_kernel_cache", (None, None)):
        # The offset table is built with the state, so even a sparse round,
        # which takes np.hypot, finds it there; a window round keeps it.
        state = round_on(full, 0.003, share=16)
        assert state.table is None and isinstance(state.window, tuple)
        assert round_on(full, 0.003) is state
        released = [weakref.ref(a) for a in (state.window[0], *state.work)]
        del state
        # A desk round frees the full-scale offset table and work arrays,
        # and its state has a kernel table and work arrays of its own.
        state = round_on(desk, 0.3)
        assert state.table is not None and state.window is None
        assert [a.shape for a in state.work] == [(51, 51), (51 * 51,)]
        assert [ref() for ref in released] == [None, None, None]

        # The full-scale lattice at a second beta0 gets a state of its own.
        first = round_on(full, 0.003)
        second = round_on(full, 0.005)
        assert second is not first and second.work is not first.work
        assert not np.array_equal(second.window[0], first.window[0])
        del first, second

        # Within one key, a batch builds each table once.
        pathogen = PathogenParams(beta0=0.003, gamma=0.2, initial_infected=3)
        for field, strategy, builds in (
            (FieldSpec(), SeedingStrategy(), (0, 1)),  # an offset table
            (FieldSpec(10.0, 10.0), SeedingStrategy(0.2, 0.2), (1, 0)),  # a kernel table
        ):
            scenario = _scenario(field=field, strategy=strategy, pathogen=pathogen)
            with mock.patch.object(
                epidemic, "_build_table", wraps=epidemic._build_table
            ) as table, mock.patch.object(
                epidemic, "_build_window", wraps=epidemic._build_window
            ) as window:
                epidemic.run_batch(scenario, range(3))
            assert (table.call_count, window.call_count) == builds


def test_a_warm_full_scale_season_allocates_no_lattice_arrays():
    # numpy reports its data allocations to tracemalloc, so this peak is the
    # same on every run. A warm 251,001-plant season peaked at 3.54 MB
    # (numpy 2.4): mostly the plant states and each round's susceptible
    # indices. With a fresh lattice survival, gathered survival and draws
    # per window round (2 MB each) it peaked at 7.54 MB; the bound leaves
    # about 1 MB of slack.
    scenario = scenario_default()
    run(scenario)  # builds the offset table and the work arrays
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run(scenario)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 4.5e6


# -- batches of seasons ---------------------------------------------------------


batch_cases = st.fixed_dictionaries(
    {
        "width": st.floats(1.0, 3.0),
        "height": st.floats(1.0, 3.0),
        # Spacings below min_spacing_m (0.1) die early.
        "dx": st.floats(0.05, 0.6),
        "dy": st.floats(0.15, 0.6),
        "beta0": st.sampled_from([0.0, 0.003, 0.05, 0.3]),
        "gamma": st.floats(0.05, 1.0),
        "k": st.integers(1, 4),
        "count": st.one_of(st.none(), st.floats(0.0, 1.0)),
        "horizon": st.integers(2, 5),
        "mode": st.sampled_from(PlacementMode),
        "deterministic_duration": st.booleans(),
        "table": st.booleans(),
        "seeds": st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    }
)


def _batch_scenario(case):
    field = FieldSpec(width_m=case["width"], height_m=case["height"])
    strategy = SeedingStrategy(dx_m=case["dx"], dy_m=case["dy"])
    capacity = lattice_capacity(field, strategy)
    k = min(case["k"], capacity)
    count = None
    if case["count"] is not None:  # an explicit_count prefix of k..capacity plants
        count = k + int(case["count"] * (capacity - k))
    return Scenario(
        field=field,
        pathogen=PathogenParams(beta0=case["beta0"], gamma=case["gamma"], initial_infected=k),
        strategy=strategy,
        horizon_steps=case["horizon"],
        placement_mode=case["mode"],
        explicit_count=count,
    )


def _assert_same_season(a, b):
    assert a.trajectory == b.trajectory
    assert repr(a.total_profit) == repr(b.total_profit)
    assert repr(a.r0) == repr(b.r0)
    assert a.initial_infected == b.initial_infected
    assert a.died_early == b.died_early


@settings(max_examples=80)
@given(batch_cases)
def test_a_batched_season_is_the_single_season_of_its_seed(case):
    scenario = _batch_scenario(case)
    options = {"deterministic_duration": case["deterministic_duration"]}
    gates = {} if case["table"] else _NO_TABLES
    with mock.patch.multiple(epidemic, _kernel_cache=(None, None), **gates):
        batch = epidemic.run_batch(scenario, case["seeds"], **options)
        singles = [run(replace(scenario, rng_seed=seed), **options) for seed in case["seeds"]]
    assert len(batch) == len(singles)
    for a, b in zip(batch, singles):
        _assert_same_season(a, b)


@pytest.mark.parametrize("mode", list(PlacementMode))
def test_a_batch_lays_out_and_places_once(mode):
    scenario = _scenario(
        pathogen=PathogenParams(beta0=0.05, gamma=0.2, initial_infected=3), placement_mode=mode
    )
    with mock.patch.object(
        epidemic, "layout_grid", wraps=epidemic.layout_grid
    ) as layout, mock.patch.object(
        epidemic, "kcenter_greedy", wraps=epidemic.kcenter_greedy
    ) as kcenter:
        batch = epidemic.run_batch(scenario, range(6))
    assert len(batch) == 6
    assert layout.call_count == 1
    assert kcenter.call_count == (mode is PlacementMode.WORST_CASE)
    placements = {result.initial_infected for result in batch}
    assert len(placements) == (1 if mode is PlacementMode.WORST_CASE else 6)


def test_a_shared_placement_is_read_only():
    scenario = _scenario(placement_mode=PlacementMode.WORST_CASE)
    seen = []

    def infect(states, indices, round_index):
        if round_index == 1:  # the initial infections
            seen.append(indices)
        states.status[indices] = Status.INFECTED
        states.infected_at[indices] = round_index

    with mock.patch.object(epidemic.PlantStates, "infect", infect):
        epidemic.run_batch(scenario, (1, 2))
    shared = seen[0]
    assert len(seen) == 2 and seen[1] is shared
    assert not shared.flags.writeable


def test_a_died_early_batch_gives_one_result_per_seed_and_draws_nothing():
    scenario = _scenario(strategy=SeedingStrategy(0.05, 0.25))
    with mock.patch.object(
        epidemic, "layout_grid", side_effect=AssertionError("layout")
    ), mock.patch.object(np.random, "default_rng", side_effect=AssertionError("rng")):
        batch = epidemic.run_batch(scenario, (4, 5, 6))
    assert len(batch) == 3
    for result in batch:
        _assert_same_season(result, run(scenario))
    assert epidemic.run_batch(scenario, ()) == ()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_batch_seeds_are_validated(seed):
    with pytest.raises(ValidationError, match="seed"):
        epidemic.run_batch(_scenario(), (0, seed))


def test_full_scale_season_is_unchanged():
    # Recorded with the one-slice np.hypot kernel; both rounds of this
    # 251,001-plant season now take the offset-table window path.
    result = run(replace(scenario_default(), rng_seed=1))
    t = result.trajectory
    assert (t.s_count, t.i_count, t.r_count, t.n_t) == (
        (250998, 250925, 249193),
        (3, 76, 1803),
        (0, 0, 5),
        (251001, 251001, 250996),
    )
    assert repr(result.total_profit) == "1262988.0303255338"


# -- trajectory invariants are enforced at construction -----------------------


def test_trajectory_validation():
    with pytest.raises(ValidationError):
        EpidemicTrajectory(s_count=(4, 3), i_count=(1, 1), r_count=(0, 0), n_t=(5, 5))
    with pytest.raises(ValidationError):
        EpidemicTrajectory(s_count=(4, 4), i_count=(1, 1), r_count=(1, 0), n_t=(5, 6))
    with pytest.raises(ValidationError):
        EpidemicTrajectory(s_count=(4, 4), i_count=(1, 1), r_count=(0, 0), n_t=(4, 5))
    with pytest.raises(ValidationError):
        EpidemicTrajectory(s_count=(4, 4), i_count=(1,), r_count=(0, 0), n_t=(5, 5))
