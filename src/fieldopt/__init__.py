"""Seeding-strategy optimization for crop fields under stochastic
plant-pathogen spread: an agent-based SIR engine on the planting lattice,
season economics, worst-case analytic bounds, and spacing search."""

from .analytics import (
    R0Series,
    ReplicateSummary,
    SensitivityFit,
    TTestResult,
    fit_plane,
    paired_t_test,
    r0_series,
    regularized_incomplete_beta,
    summarize_replicates,
)
from .economics import (
    EconomicSeries,
    economic_series,
    growing_cost,
    harvesting_cost,
    seeding_cost,
    sell_revenue,
    total_profits,
)
from .epidemic import (
    EpidemicTrajectory,
    PlantState,
    PlantStates,
    SimulationResult,
    Status,
    pairwise_infection_prob,
    place_initial_infected,
    run,
    step,
)
from .field import (
    MAX_PLANTS,
    PlantGrid,
    lattice_capacities,
    lattice_capacity,
    lattice_shape,
    layout_grid,
    neighbors_within,
    spacing_from_count,
)
from .harness import (
    ExperimentKind,
    ExperimentSpec,
    desk_scenario,
    run_baseline,
    run_economic_sweep,
    run_experiment,
    run_optimal_comparison,
    run_pathogen_sweep,
)
from .optimizer import (
    ArmResult,
    CandidateEvaluation,
    MAX_CANDIDATES,
    OptimizationResult,
    ScoreMode,
    SearchMethod,
    StrategyComparison,
    compare_strategies,
    enumerate_candidates,
    evaluate_candidate,
    optimize,
    select_best,
)
from .scenario import (
    EconomicParams,
    FieldSpec,
    PathogenParams,
    PlacementMode,
    Scenario,
    ScenarioParseError,
    SeedingStrategy,
    ValidationError,
    apply_overrides,
    dumps_scenario,
    load_scenario,
    scenario_default,
    write_scenario,
)
from .seeds import derive_seed
from .worstcase import (
    BoundVariant,
    WorstCaseBound,
    analytic_nt,
    analytic_profit,
    analytic_profits,
    coverage_radius,
    kcenter_greedy,
    removal_bound,
    removal_bounds,
    worstcase_bound,
)

__version__ = "0.1.0"
