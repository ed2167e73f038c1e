"""Search over seeding spacings (dx, dy) maximizing season profit.

Candidates come either from an exhaustive delta-stepped grid over
[min_spacing, W] x [min_spacing, H] or from uniform Monte Carlo sampling
of the same box. Each candidate is scored analytically (closed-form
worst-case profit) or by averaging simulated seasons over paired
replicate seeds. Seeds are derived per (candidate, replicate) with the
package-wide stable hash, so results replay exactly and candidates could
be evaluated concurrently without changing the outcome.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .analytics import _mean_std, paired_t_test
from .epidemic import run
from .scenario import (
    FieldSpec,
    PlacementMode,
    Scenario,
    SeedingStrategy,
    ValidationError,
)
from .seeds import derive_seed
from .worstcase import BoundVariant, analytic_profit


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


@dataclass(frozen=True)
class OptimizationResult:
    best_strategy: SeedingStrategy
    best_profit: float
    evaluations: tuple[CandidateEvaluation, ...]
    mode: ScoreMode
    search: SearchMethod


def enumerate_candidates(field: FieldSpec, delta: float) -> list[SeedingStrategy]:
    """All spacings (min_spacing + i*delta, min_spacing + j*delta) inside
    the field box, in lexicographic order; empty when the field is
    narrower than the minimal seeding distance."""
    if delta <= 0:
        raise ValidationError("invariant violated: delta > 0")

    def axis(limit: float) -> list[float]:
        if limit < field.min_spacing_m:
            return []
        steps = int(math.floor((limit - field.min_spacing_m) / delta + 1e-9))
        # Clamp the last value back onto the limit against float drift.
        return [
            min(field.min_spacing_m + i * delta, limit) for i in range(steps + 1)
        ]

    return [
        SeedingStrategy(dx_m=dx, dy_m=dy)
        for dx in axis(field.width_m)
        for dy in axis(field.height_m)
    ]


def select_best(evaluations: Sequence[CandidateEvaluation]) -> CandidateEvaluation:
    """Argmax by profit; ties prefer the larger cell area dx*dy (sparser
    seeding is more robust at equal profit), then lexicographic (dx, dy)."""
    return min(
        evaluations,
        key=lambda e: (-e.profit_estimate, -(e.dx_m * e.dy_m), e.dx_m, e.dy_m),
    )


def evaluate_candidate(
    scenario: Scenario,
    mode: ScoreMode,
    n_reps: int = 30,
    base_seed: int = 0,
    candidate_index: int = 0,
    variant: BoundVariant = BoundVariant.GEOMETRIC_SUM,
) -> tuple[float, float]:
    """(profit estimate, std) for the scenario's strategy.

    Analytic scoring is exact (std 0). Simulated scoring averages n_reps
    seasons run with seeds derive_seed(base_seed, candidate_index, i), a
    stable hash, so any candidate/replicate cell can be replayed alone.
    """
    if mode is ScoreMode.ANALYTIC:
        profit = analytic_profit(
            scenario.field,
            scenario.strategy,
            scenario.pathogen,
            scenario.economics,
            scenario.horizon_steps,
            variant,
        )
        return profit, 0.0
    if n_reps < 1:
        raise ValidationError("invariant violated: n_reps >= 1")
    profits = []
    for i in range(n_reps):
        seed = derive_seed(base_seed, candidate_index, i)
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
    base_seed: int | None = None,
    variant: BoundVariant = BoundVariant.GEOMETRIC_SUM,
) -> OptimizationResult:
    """Maximize season profit over seeding spacings.

    Grid search enumerates the delta-stepped lattice; Monte Carlo draws
    `budget` spacings uniformly from the continuous box. Any explicit
    plant-count override on the scenario is dropped (the spacing under
    test determines the population). Ties break toward the larger cell
    area dx*dy (sparser seeding), then lexicographically.
    """
    base_seed = scenario.rng_seed if base_seed is None else base_seed
    field = scenario.field
    if search is SearchMethod.GRID:
        candidates = enumerate_candidates(field, delta)
    else:
        if budget < 1:
            raise ValidationError("invariant violated: budget >= 1")
        if field.width_m < field.min_spacing_m or field.height_m < field.min_spacing_m:
            candidates = []
        else:
            crng = np.random.default_rng(derive_seed(base_seed, "mc-candidates"))
            dxs = crng.uniform(field.min_spacing_m, field.width_m, budget)
            dys = crng.uniform(field.min_spacing_m, field.height_m, budget)
            candidates = [
                SeedingStrategy(dx_m=float(x), dy_m=float(y))
                for x, y in zip(dxs, dys)
            ]
    if not candidates:
        raise ValidationError("infeasible: W or H below the minimal seeding distance")

    evaluations = []
    for index, candidate in enumerate(candidates):
        cand_scenario = replace(scenario, strategy=candidate, explicit_count=None)
        estimate, std = evaluate_candidate(
            cand_scenario, mode, n_reps, base_seed, index, variant
        )
        evaluations.append(
            CandidateEvaluation(
                dx_m=candidate.dx_m,
                dy_m=candidate.dy_m,
                profit_estimate=estimate,
                profit_std=std,
                n_reps=n_reps if mode is ScoreMode.SIMULATED else 0,
            )
        )
    best = select_best(evaluations)
    return OptimizationResult(
        best_strategy=SeedingStrategy(dx_m=best.dx_m, dy_m=best.dy_m),
        best_profit=best.profit_estimate,
        evaluations=tuple(evaluations),
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
    base_seed: int | None = None,
    allow_degenerate: bool = False,
) -> StrategyComparison:
    """Paired comparison of two strategies under both placement modes.

    Replicate i uses the same derived seed in all four arms (common random
    numbers), so profit differences are paired. Reports per-arm mean/std of
    profit and mean R0, plus a paired two-sided t-test on profits per
    placement mode. Zero-variance differences raise unless
    allow_degenerate, which records None for that placement instead.
    """
    if n_reps < 2:
        raise ValidationError("invariant violated: n_reps >= 2")
    base_seed = scenario.rng_seed if base_seed is None else base_seed
    seeds = [derive_seed(base_seed, "compare", i) for i in range(n_reps)]

    arms = []
    profits_by = {}
    for placement in (PlacementMode.RANDOM, PlacementMode.WORST_CASE):
        for label, strategy in (
            ("default", default_strategy),
            ("optimal", optimal_strategy),
        ):
            results = [
                run(
                    replace(
                        scenario,
                        strategy=strategy,
                        placement_mode=placement,
                        rng_seed=seed,
                        explicit_count=None,
                    )
                )
                for seed in seeds
            ]
            profits = [r.total_profit for r in results]
            mean_p, std_p = _mean_std(profits)
            mean_r, std_r = _mean_std([r.mean_r0 for r in results])
            arms.append(
                ArmResult(
                    placement=placement,
                    label=label,
                    strategy=strategy,
                    mean_profit=mean_p,
                    std_profit=std_p,
                    mean_r0=mean_r,
                    std_r0=std_r,
                    profits=tuple(profits),
                )
            )
            profits_by[(placement, label)] = profits

    t_tests = {}
    for placement in (PlacementMode.RANDOM, PlacementMode.WORST_CASE):
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
