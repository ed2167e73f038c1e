"""Search over seeding spacings (dx, dy) maximizing season profit.

Candidates come either from an exhaustive delta-stepped grid over
[min_spacing, W] x [min_spacing, H] or from uniform Monte Carlo sampling
of the same box, at most MAX_CANDIDATES of them, and are kept as two
arrays. Analytic scoring (closed-form worst-case profit) scores them all
at once with `analytic_profits`, bit-identical to the scalar
`analytic_profit`. Simulated scoring averages simulated seasons over
paired replicate seeds, one candidate at a time. Seeds are derived from
the scenario's rng_seed per (candidate, replicate) with the package-wide
stable hash, so results replay exactly and candidates could be evaluated
concurrently without changing the outcome.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .analytics import _mean_std, paired_t_test
from .epidemic import run, run_batch
from .field import axis_count, lattice_size
from .scenario import (
    FieldSpec,
    PlacementMode,
    Scenario,
    SeedingStrategy,
    ValidationError,
)
from .seeds import derive_seed
from .worstcase import analytic_profit, analytic_profits

# Most candidates one search may score. The CLI default grid (a 100 m field
# at delta 0.05 m) has 3,996,001. A search holds a few float64 arrays of
# this length, 40 MB each at the cap.
MAX_CANDIDATES = 5_000_000
# Most candidates times rounds one analytic search may score. Its cost is
# about 0.24 us per candidate-round (the per-round `v**t` and `math.log`
# lists), so the cap is about 5 s on a 2-vCPU VM; the CLI default grid at
# the default 3 rounds is 1.2e7 candidate-rounds, and at 1,000 rounds it
# would have run about 16 minutes.
MAX_CANDIDATE_ROUNDS = 20_000_000
# Analytic scoring works through the candidates in blocks of at most this
# many, so its temporaries (Python lists of floats among them) stay small.
_BLOCK = 1 << 16
# Most elements of a block's (horizon, block) array of removal bounds and
# of its other per-round arrays: 8 MB of float64 each. Blocks get shorter
# above 16 rounds; every candidate's score is the same in any block.
_BOUND_ELEMENTS = 1 << 20


class SearchMethod(enum.Enum):
    GRID = "grid"
    MONTE_CARLO = "montecarlo"


class ScoreMode(enum.Enum):
    ANALYTIC = "analytic"
    SIMULATED = "simulated"


@dataclass(frozen=True)
class CandidateEvaluation:
    dx_m: float
    dy_m: float
    profit_estimate: float
    profit_std: float
    n_reps: int  # 0 for analytic scoring (exact, no replicates)


_COLUMNS = ("dx_m", "dy_m", "profit_estimate", "profit_std")


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """The best spacing and every candidate's score, kept as read-only
    columns: candidate i is (dx_m[i], dy_m[i]) with estimate
    profit_estimate[i] and std profit_std[i] over n_reps replicates (0 for
    analytic scoring, which is exact)."""

    best_strategy: SeedingStrategy
    best_profit: float
    dx_m: np.ndarray
    dy_m: np.ndarray
    profit_estimate: np.ndarray
    profit_std: np.ndarray
    n_reps: int
    mode: ScoreMode
    search: SearchMethod

    @cached_property
    def evaluations(self) -> tuple[CandidateEvaluation, ...]:
        """One CandidateEvaluation per candidate, in search order; built on
        first access."""
        columns = (getattr(self, name).tolist() for name in _COLUMNS)
        return tuple(
            CandidateEvaluation(dx, dy, profit, std, self.n_reps)
            for dx, dy, profit, std in zip(*columns)
        )

    def __eq__(self, other):
        if not isinstance(other, OptimizationResult):
            return NotImplemented
        scalars = ("best_strategy", "best_profit", "n_reps", "mode", "search")
        return all(
            getattr(self, name) == getattr(other, name) for name in scalars
        ) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _COLUMNS
        )


def _check_count(count: float) -> None:
    if count > MAX_CANDIDATES:
        raise ValidationError(
            f"invariant violated: candidate count <= MAX_CANDIDATES "
            f"({MAX_CANDIDATES}), got {count:.7g}"
        )


def _grid_axes(field: FieldSpec, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The grid's spacings per axis, min_spacing + i*delta up to the width
    (x) and up to the height (y); both empty when the field is narrower
    than the minimal seeding distance. The grid size is checked against
    MAX_CANDIDATES before anything is allocated."""
    if not (math.isfinite(delta) and delta > 0):
        raise ValidationError("invariant violated: delta is finite and > 0")
    lo = field.min_spacing_m
    limits = (field.width_m, field.height_m)
    if min(limits) < lo:
        return np.empty(0), np.empty(0)
    # Python floats, so an overflowing product is inf without a numpy warning.
    points = [float(axis_count(limit - lo, delta)) for limit in limits]
    _check_count(points[0] * points[1])
    # Clamp the last value back onto the limit against float drift.
    xs, ys = (
        np.minimum(lo + np.arange(int(count)) * delta, limit)
        for count, limit in zip(points, limits)
    )
    return xs, ys


def enumerate_candidates(field: FieldSpec, delta: float) -> list[SeedingStrategy]:
    """All spacings (min_spacing + i*delta, min_spacing + j*delta) inside
    the field box, in lexicographic order; empty when the field is
    narrower than the minimal seeding distance."""
    xs, ys = _grid_axes(field, delta)
    return [
        SeedingStrategy(dx_m=dx, dy_m=dy) for dx in xs.tolist() for dy in ys.tolist()
    ]


def _candidates(
    field: FieldSpec, search: SearchMethod, delta: float, budget: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """The candidate spacings as (dx, dy) arrays in search order: the grid
    of `enumerate_candidates`, or `budget` uniform draws from the box."""
    if search is SearchMethod.GRID:
        xs, ys = _grid_axes(field, delta)
        return np.repeat(xs, len(ys)), np.tile(ys, len(xs))
    if budget < 1:
        raise ValidationError("invariant violated: budget >= 1")
    _check_count(budget)
    if field.width_m < field.min_spacing_m or field.height_m < field.min_spacing_m:
        return np.empty(0), np.empty(0)
    crng = np.random.default_rng(derive_seed(seed, "mc-candidates"))
    dxs = crng.uniform(field.min_spacing_m, field.width_m, budget)
    dys = crng.uniform(field.min_spacing_m, field.height_m, budget)
    return dxs, dys


def select_best(evaluations: Sequence[CandidateEvaluation]) -> CandidateEvaluation:
    """Argmax by profit; ties prefer the larger cell area dx*dy (sparser
    seeding is more robust at equal profit), then lexicographic (dx, dy)."""
    return min(
        evaluations,
        key=lambda e: (-e.profit_estimate, -(e.dx_m * e.dy_m), e.dx_m, e.dy_m),
    )


def _best_index(dx: np.ndarray, dy: np.ndarray, profit: np.ndarray) -> int:
    """Index of the candidate `select_best` picks from these columns, whose
    profits must be finite: among the candidates of the highest profit, the
    first index of the least key (-(dx * dy), dx, dy), as a stable sort
    gives it."""
    top = np.flatnonzero(profit == profit.max())
    dx, dy = dx.take(top), dy.take(top)
    return int(top[np.lexsort((dy, dx, -(dx * dy)))[0]])


def evaluate_candidate(
    scenario: Scenario,
    mode: ScoreMode,
    n_reps: int = 30,
    *,
    candidate_index: int = 0,
) -> tuple[float, float]:
    """(profit estimate, std) for the scenario's strategy.

    Analytic scoring is exact (std 0). Simulated scoring averages n_reps
    seasons run with seeds derive_seed(scenario.rng_seed, candidate_index,
    i), a stable hash, so any candidate/replicate cell can be replayed
    alone.
    """
    if mode is ScoreMode.ANALYTIC:
        profit = analytic_profit(
            scenario.field,
            scenario.strategy,
            scenario.pathogen,
            scenario.economics,
            scenario.horizon_steps,
        )
        return profit, 0.0
    if n_reps < 1:
        raise ValidationError("invariant violated: n_reps >= 1")
    profits = []
    for i in range(n_reps):
        seed = derive_seed(scenario.rng_seed, candidate_index, i)
        profits.append(run(replace(scenario, rng_seed=seed)).total_profit)
    return _mean_std(profits)


def optimize(
    scenario: Scenario,
    *,
    search: SearchMethod = SearchMethod.GRID,
    mode: ScoreMode = ScoreMode.ANALYTIC,
    delta: float = 0.05,
    budget: int = 500,
    n_reps: int = 30,
) -> OptimizationResult:
    """Maximize season profit over seeding spacings.

    Grid search enumerates the delta-stepped lattice; Monte Carlo draws
    `budget` spacings uniformly from the continuous box, seeded from
    scenario.rng_seed. Either may hold at most MAX_CANDIDATES candidates,
    and analytic scoring at most MAX_CANDIDATE_ROUNDS candidates times
    horizon_steps. Any explicit plant-count override on the scenario is
    dropped (the spacing under test determines the population). The best
    candidate is the one `select_best` picks: ties break toward the larger
    cell area dx*dy (sparser seeding), then lexicographically. The densest
    candidate lattice (min_spacing in both axes) must have a finite plant
    count, and every candidate a finite profit.
    """
    lo = scenario.field.min_spacing_m
    if not math.isfinite(lattice_size(scenario.field, lo, lo)):
        raise ValidationError(
            "invariant violated: densest candidate lattice has a finite plant count"
        )
    dx, dy = _candidates(scenario.field, search, delta, budget, scenario.rng_seed)
    if not len(dx):
        raise ValidationError("infeasible: W or H below the minimal seeding distance")

    if mode is ScoreMode.ANALYTIC:
        rounds = len(dx) * scenario.horizon_steps
        if rounds > MAX_CANDIDATE_ROUNDS:
            raise ValidationError(
                f"invariant violated: candidates x horizon_steps <= MAX_CANDIDATE_ROUNDS "
                f"({MAX_CANDIDATE_ROUNDS}), got {len(dx)} x {scenario.horizon_steps}"
            )
        profit = np.empty(len(dx))
        size = min(_BLOCK, _BOUND_ELEMENTS // scenario.horizon_steps)
        # Prices that overflow are caught by the finiteness check below.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(dx), size):
                block = slice(start, start + size)
                profit[block] = analytic_profits(
                    scenario.field,
                    dx[block],
                    dy[block],
                    scenario.pathogen,
                    scenario.economics,
                    scenario.horizon_steps,
                )
        std = np.zeros(len(dx))
        reps = 0
    else:
        scores = [
            evaluate_candidate(
                replace(scenario, strategy=SeedingStrategy(x, y), explicit_count=None),
                mode,
                n_reps,
                candidate_index=index,
            )
            for index, (x, y) in enumerate(zip(dx.tolist(), dy.tolist()))
        ]
        profit, std = (np.array(column) for column in zip(*scores))
        reps = n_reps
    overflowed = np.count_nonzero(~np.isfinite(profit))
    if overflowed:
        raise ValidationError(
            f"invariant violated: every candidate's profit is finite "
            f"({overflowed} of {len(dx)} overflow)"
        )
    best = _best_index(dx, dy, profit)
    for column in (dx, dy, profit, std):
        column.flags.writeable = False
    return OptimizationResult(
        best_strategy=SeedingStrategy(dx_m=float(dx[best]), dy_m=float(dy[best])),
        best_profit=float(profit[best]),
        dx_m=dx,
        dy_m=dy,
        profit_estimate=profit,
        profit_std=std,
        n_reps=reps,
        mode=mode,
        search=search,
    )


@dataclass(frozen=True)
class ArmResult:
    """Replicate statistics for one (placement mode, strategy) arm."""

    placement: PlacementMode
    label: str
    strategy: SeedingStrategy
    mean_profit: float
    std_profit: float
    mean_r0: float
    std_r0: float
    profits: tuple[float, ...]


@dataclass(frozen=True)
class StrategyComparison:
    arms: tuple[ArmResult, ...]
    # TTestResult per placement mode; None marks the degenerate
    # zero-variance case when allow_degenerate is set.
    t_tests: dict


def compare_strategies(
    scenario: Scenario,
    default_strategy: SeedingStrategy,
    optimal_strategy: SeedingStrategy,
    n_reps: int,
    *,
    allow_degenerate: bool = False,
) -> StrategyComparison:
    """Paired comparison of two strategies under both placement modes.

    Replicate i uses the same seed, derived from scenario.rng_seed, in all
    four arms (common random numbers), so profit differences are paired.
    Each arm is one `run_batch` of those seeds, so it lays out its lattice
    and places its worst-case infections once. Reports per-arm mean/std of profit and mean R0, plus
    a paired two-sided t-test on profits per placement mode. Zero-variance
    differences raise unless allow_degenerate, which records None for that
    placement instead.
    """
    if n_reps < 2:
        raise ValidationError("invariant violated: n_reps >= 2")
    seeds = [derive_seed(scenario.rng_seed, "compare", i) for i in range(n_reps)]

    placements = (PlacementMode.RANDOM, PlacementMode.WORST_CASE)
    strategies = (("default", default_strategy), ("optimal", optimal_strategy))
    # Simulated lattice by lattice, so that the one-entry kernel-table cache
    # builds each lattice's table once, and reported placement by placement.
    batches = {
        (placement, label): run_batch(
            replace(scenario, strategy=strategy, placement_mode=placement, explicit_count=None),
            seeds,
        )
        for label, strategy in strategies
        for placement in placements
    }
    arms = []
    for placement in placements:
        for label, strategy in strategies:
            batch = batches[(placement, label)]
            profits = tuple(r.total_profit for r in batch)
            mean_p, std_p = _mean_std(profits)
            mean_r, std_r = _mean_std([r.mean_r0 for r in batch])
            arms.append(
                ArmResult(
                    placement=placement,
                    label=label,
                    strategy=strategy,
                    mean_profit=mean_p,
                    std_profit=std_p,
                    mean_r0=mean_r,
                    std_r0=std_r,
                    profits=profits,
                )
            )
    profits_by = {(arm.placement, arm.label): arm.profits for arm in arms}

    t_tests = {}
    for placement in placements:
        try:
            t_tests[placement] = paired_t_test(
                profits_by[(placement, "optimal")],
                profits_by[(placement, "default")],
            )
        except ValidationError:
            if not allow_degenerate:
                raise
            t_tests[placement] = None
    return StrategyComparison(arms=tuple(arms), t_tests=t_tests)
