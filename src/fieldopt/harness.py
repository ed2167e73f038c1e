"""Experiment drivers at configurable scale, plus CSV serialization.

Four experiments: a field-density baseline, a (beta0, gamma) sensitivity
sweep with plane fits, economic-ratio sweeps, and a default-vs-optimal
strategy comparison over random instances. Desk-scale defaults keep every
experiment CI-runnable; full-scale settings are reached purely by config.

Replicate seeds derive from the master seed with the package-wide stable
hash, and the same replicate index maps to the same seed in every arm or
sweep cell (common random numbers), so cross-arm differences are paired.
CSV files are byte-identical across reruns with equal spec and master
seed; floats are serialized with 9 significant digits.
"""

from __future__ import annotations

import enum
import math
import os
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field, replace
from functools import partial
from itertools import accumulate
from pathlib import Path

import numpy as np

from .analytics import _mean_std, fit_plane, paired_t_test
from .economics import economic_series
from .epidemic import run
from .field import lattice_capacity, spacing_from_count
from .optimizer import ScoreMode, SearchMethod, compare_strategies, optimize
from .scenario import (
    EconomicParams,
    Scenario,
    ValidationError,
    scenario_default,
)
from .seeds import derive_seed

_ECON_BASE = EconomicParams()
_GROW_COST_BASE = _ECON_BASE.grow_per_plant / _ECON_BASE.grow_overhead_coeff
_PRICE_DISCOUNT_BASE = _ECON_BASE.sell_price / _ECON_BASE.sell_discount
_GROW_PRICE_BASE = _ECON_BASE.grow_per_plant / _ECON_BASE.sell_price

# Ratio family -> (numerator key, denominator key). Sweeps vary the
# numerator and hold the denominator at its scenario value.
RATIO_FAMILIES = {
    "grow_cost_ratio": ("grow_per_plant", "grow_overhead_coeff"),
    "price_discount_ratio": ("sell_price", "sell_discount"),
    "grow_price_ratio": ("grow_per_plant", "sell_price"),
}


class ExperimentKind(enum.Enum):
    BASELINE = "baseline"
    PATHOGEN_SWEEP = "pathogen_sweep"
    ECONOMIC_SWEEP = "economic_sweep"
    OPTIMAL_COMPARISON = "optimal_comparison"


def desk_scenario() -> Scenario:
    """Default parameterization shrunk to a 10 m x 10 m field (2601 plants
    at the default spacing), the scale every experiment defaults to."""
    base = scenario_default()
    return replace(base, field=replace(base.field, width_m=10.0, height_m=10.0))


@dataclass(frozen=True)
class ExperimentSpec:
    """Scale and parameter ranges for one experiment run."""

    scenario: Scenario = dc_field(default_factory=desk_scenario)
    kind: ExperimentKind | None = None
    replicates: int = 50
    master_seed: int = 0
    out_dir: str | Path = "out"
    jobs: int = 1
    # baseline: population sizes laid out on square lattices over the field
    sizes: tuple[int, ...] = (400, 2500, 10000)
    # pathogen sweep grids (must contain the scenario's own cell)
    beta0_values: tuple[float, ...] = (0.001, 0.003, 0.005)
    gamma_values: tuple[float, ...] = (1.0 / 65.0, 1.0 / 42.0, 1.0 / 21.0)
    # economic-ratio sweeps, one value list per family
    grow_cost_ratios: tuple[float, ...] = tuple(
        _GROW_COST_BASE * f for f in (0.25, 0.5, 1.0, 2.0, 4.0)
    )
    price_discount_ratios: tuple[float, ...] = tuple(
        _PRICE_DISCOUNT_BASE * f for f in (0.5, 0.75, 1.0, 1.5, 2.0)
    )
    grow_price_ratios: tuple[float, ...] = tuple(
        _GROW_PRICE_BASE * f for f in (0.25, 1.0, 4.0, 16.0, 64.0)
    )
    # default-vs-optimal comparison
    instances: int = 200
    width_range: tuple[float, float] = (5.0, 12.0)
    height_range: tuple[float, float] = (5.0, 12.0)
    beta0_range: tuple[float, float] = (0.001, 0.005)
    gamma_range: tuple[float, float] = (1.0 / 65.0, 1.0 / 21.0)
    comparison_reps: int = 10
    optimizer_delta: float = 0.1

    def __post_init__(self):
        checks = [
            (0 <= self.master_seed < 2**64, "0 <= master_seed < 2**64"),
            (self.replicates >= 1, "replicates >= 1"),
            (len(self.sizes) >= 1, "sizes non-empty"),
            (all(s >= 4 for s in self.sizes), "sizes >= 4"),
            (len(self.beta0_values) >= 1, "beta0_values non-empty"),
            (len(self.gamma_values) >= 1, "gamma_values non-empty"),
            (len(self.grow_cost_ratios) >= 1, "grow_cost_ratios non-empty"),
            (len(self.price_discount_ratios) >= 1, "price_discount_ratios non-empty"),
            (len(self.grow_price_ratios) >= 1, "grow_price_ratios non-empty"),
            (self.instances >= 1, "instances >= 1"),
            (self.comparison_reps >= 2, "comparison_reps >= 2"),
            (self.optimizer_delta > 0, "optimizer_delta > 0"),
            (self.jobs >= 1, "jobs >= 1"),
        ]
        for lo, hi, name in (
            (*self.width_range, "width_range"),
            (*self.height_range, "height_range"),
            (*self.beta0_range, "beta0_range"),
            (*self.gamma_range, "gamma_range"),
        ):
            checks.append((lo <= hi, f"{name} ordered"))
        for ok, name in checks:
            if not ok:
                raise ValidationError(f"invariant violated: {name}")


def _cpu_count() -> int:
    """CPUs in this process's affinity mask (all CPUs on platforms
    without one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_jobs(fn, items, jobs: int) -> list:
    """fn over items, in order, on at most `jobs` worker processes. The pool
    forks all its workers at once, so there are never more of them than
    items or CPUs in the affinity mask."""
    items = list(items)
    workers = min(jobs, len(items), _cpu_count())
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(items) // (workers * 4))
        return list(pool.map(fn, items, chunksize=chunk))


def _replicates(spec: ExperimentSpec, label: str, cells: list[Scenario]) -> list[list]:
    """Run `spec.replicates` seasons of every cell scenario; one batch of
    results per cell. Replicate i runs on derive_seed(master_seed, label, i)
    in every cell (common random numbers)."""
    seeds = [derive_seed(spec.master_seed, label, i) for i in range(spec.replicates)]
    results = _map_jobs(
        run, [replace(cell, rng_seed=seed) for cell in cells for seed in seeds], spec.jobs
    )
    n = spec.replicates
    return [results[k * n : (k + 1) * n] for k in range(len(cells))]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def write_csv_lines(out_dir, name: str, fieldnames: list[str], lines: Iterable[str]) -> Path:
    """Write out_dir/name: the header, then the data lines as given, each
    ending in "\n". Fields are not quoted, so no value may hold a comma,
    a quote or a newline; every value written here is a number or a fixed
    label."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(fieldnames) + "\n")
        fh.writelines(lines)
    return path


def _write_csv(out_dir, name: str, fieldnames: list[str], rows: Iterable[dict]) -> Path:
    """`write_csv_lines` of dict rows: each value formatted by `_fmt`, a
    missing key as an empty field."""
    lines = (",".join([_fmt(row.get(key)) for key in fieldnames]) + "\n" for row in rows)
    return write_csv_lines(out_dir, name, fieldnames, lines)


BASELINE_FIELDS = ["t", "size_label", "mean_r0", "std_r0", "mean_profit", "std_profit"]


def run_baseline(spec: ExperimentSpec) -> list[dict]:
    """Field-density baseline: same field, three population sizes.

    Per size and round t: mean/std over replicates of R0(t) (empty at the
    final round, which has no forward difference) and of the cumulative
    profit through t. Replicate i reuses one seed across sizes, pairing
    the size arms. Writes baseline.csv; row count = len(sizes) * T.
    """
    scenario = spec.scenario
    horizon = scenario.horizon_steps
    cells = [
        replace(scenario, strategy=spacing_from_count(scenario.field, n), explicit_count=n)
        for n in spec.sizes
    ]
    rows = []
    for size, batch in zip(spec.sizes, _replicates(spec, "baseline", cells)):
        # Running totals from 0.0: entry t is the profit through round t.
        cumulative = [
            list(accumulate(res.economics.per_round_output, initial=0.0)) for res in batch
        ]
        for t in range(1, horizon + 1):
            if t < horizon:
                r0_mean, r0_std = _mean_std([res.r0.r0_t[t - 1] for res in batch])
            else:
                r0_mean = r0_std = None
            p_mean, p_std = _mean_std([totals[t] for totals in cumulative])
            rows.append(
                {
                    "t": t,
                    "size_label": str(size),
                    "mean_r0": r0_mean,
                    "std_r0": r0_std,
                    "mean_profit": p_mean,
                    "std_profit": p_std,
                }
            )
    _write_csv(spec.out_dir, "baseline.csv", BASELINE_FIELDS, rows)
    return rows


PATHOGEN_FIELDS = [
    "beta0",
    "gamma",
    "mean_r0",
    "std_r0",
    "mean_profit",
    "std_profit",
    "rel_mean_r0",
    "rel_mean_profit",
]
FIT_FIELDS = ["response", "coeff_beta0", "coeff_gamma", "intercept", "r_squared"]


def run_pathogen_sweep(spec: ExperimentSpec) -> tuple[list[dict], dict]:
    """(beta0, gamma) sensitivity sweep with plane fits.

    Each cell runs `replicates` seasons with replicate seeds shared across
    cells; reports mean/std of E[R0] and total profit, plus both means
    relative to the scenario's own (baseline) cell. Fits a plane to each
    response surface. Writes pathogen_sweep.csv and fits.csv.
    """
    scenario = spec.scenario
    if len(set(spec.beta0_values)) < 2 or len(set(spec.gamma_values)) < 2:
        raise ValidationError(
            "invariant violated: beta0_values and gamma_values each hold at least"
            " 2 distinct values (the plane fits need them)"
        )
    base_cell = (scenario.pathogen.beta0, scenario.pathogen.gamma)
    cells = [(b, g) for b in spec.beta0_values for g in spec.gamma_values]
    if base_cell not in cells:
        raise ValidationError(
            "invariant violated: baseline (beta0, gamma) cell in the sweep grid"
        )
    variants = [
        replace(scenario, pathogen=replace(scenario.pathogen, beta0=b, gamma=g))
        for b, g in cells
    ]
    stats = []
    for (b, g), batch in zip(cells, _replicates(spec, "pathogen", variants)):
        r0_mean, r0_std = _mean_std([res.mean_r0 for res in batch])
        p_mean, p_std = _mean_std([res.total_profit for res in batch])
        stats.append((b, g, r0_mean, r0_std, p_mean, p_std))

    base_idx = cells.index(base_cell)
    base_r0, base_profit = stats[base_idx][2], stats[base_idx][4]
    rows = [
        {
            "beta0": b,
            "gamma": g,
            "mean_r0": r0_mean,
            "std_r0": r0_std,
            "mean_profit": p_mean,
            "std_profit": p_std,
            "rel_mean_r0": r0_mean / base_r0 if base_r0 != 0 else math.nan,
            "rel_mean_profit": p_mean / base_profit if base_profit != 0 else math.nan,
        }
        for (b, g, r0_mean, r0_std, p_mean, p_std) in stats
    ]
    fits = {
        "mean_r0": fit_plane(cells, [s[2] for s in stats]),
        "mean_profit": fit_plane(cells, [s[4] for s in stats]),
    }
    _write_csv(spec.out_dir, "pathogen_sweep.csv", PATHOGEN_FIELDS, rows)
    fit_rows = [
        {
            "response": name,
            "coeff_beta0": fit.coeff_beta0,
            "coeff_gamma": fit.coeff_gamma,
            "intercept": fit.intercept,
            "r_squared": fit.r_squared,
        }
        for name, fit in fits.items()
    ]
    _write_csv(spec.out_dir, "fits.csv", FIT_FIELDS, fit_rows)
    return rows, fits


ECON_FIELDS = [
    "ratio_family",
    "varied_key",
    "fixed_key",
    "ratio_value",
    "is_baseline",
    "mean_profit",
    "std_profit",
    "n_reps",
]


def _econ_with_ratio(econ: EconomicParams, family: str, value: float) -> EconomicParams:
    numerator, denominator = RATIO_FAMILIES[family]
    return replace(econ, **{numerator: value * getattr(econ, denominator)})


def run_economic_sweep(spec: ExperimentSpec) -> list[dict]:
    """Profit response to the three economic coefficient ratios.

    For each family the numerator coefficient is set to ratio * denominator
    with the denominator held at its scenario value. The scenario's own
    ratio is inserted as a baseline marker row if not already listed.
    Epidemic dynamics do not depend on the economics, so one batch of
    `replicates` seasons is simulated and every cell prices those same
    trajectories: per-replicate profit differences across ratio values are
    exact. Writes econ_sweep.csv.
    """
    scenario = spec.scenario
    family_values = {
        "grow_cost_ratio": spec.grow_cost_ratios,
        "price_discount_ratio": spec.price_discount_ratios,
        "grow_price_ratio": spec.grow_price_ratios,
    }
    (batch,) = _replicates(spec, "econ", [scenario])
    rows = []
    for family, values in family_values.items():
        numerator, denominator = RATIO_FAMILIES[family]
        base_ratio = getattr(scenario.economics, numerator) / getattr(
            scenario.economics, denominator
        )
        for value in sorted(set(values) | {base_ratio}):
            econ = _econ_with_ratio(scenario.economics, family, value)
            p_mean, p_std = _mean_std(
                [
                    economic_series(r.trajectory.n_t, econ, died_early=r.died_early).total_profit
                    for r in batch
                ]
            )
            rows.append(
                {
                    "ratio_family": family,
                    "varied_key": numerator,
                    "fixed_key": denominator,
                    "ratio_value": value,
                    "is_baseline": int(value == base_ratio),
                    "mean_profit": p_mean,
                    "std_profit": p_std,
                    "n_reps": spec.replicates,
                }
            )
    _write_csv(spec.out_dir, "econ_sweep.csv", ECON_FIELDS, rows)
    return rows


COMPARISON_FIELDS = [
    "instance",
    "width_m",
    "height_m",
    "beta0",
    "gamma",
    "placement",
    "arm",
    "dx_m",
    "dy_m",
    "mean_r0",
    "mean_profit",
    "std_profit",
    "t_stat",
    "dof",
    "p_value",
]


def _comparison_instance(spec: ExperimentSpec, index: int) -> dict:
    prng = np.random.default_rng(derive_seed(spec.master_seed, "comparison", index))
    width = float(prng.uniform(*spec.width_range))
    height = float(prng.uniform(*spec.height_range))
    beta0 = float(prng.uniform(*spec.beta0_range))
    gamma = float(prng.uniform(*spec.gamma_range))
    scenario = replace(
        spec.scenario,
        field=replace(spec.scenario.field, width_m=width, height_m=height),
        pathogen=replace(spec.scenario.pathogen, beta0=beta0, gamma=gamma),
        explicit_count=None,
        # Seeds the arms; the analytic grid search draws nothing.
        rng_seed=derive_seed(spec.master_seed, "comparison", index, "arms"),
    )
    best = optimize(
        scenario, search=SearchMethod.GRID, mode=ScoreMode.ANALYTIC, delta=spec.optimizer_delta
    ).best_strategy
    comparison = compare_strategies(
        scenario,
        scenario.strategy,
        best,
        spec.comparison_reps,
        allow_degenerate=True,
    )
    arm_rows = [
        {
            "instance": index,
            "width_m": width,
            "height_m": height,
            "beta0": beta0,
            "gamma": gamma,
            "placement": arm.placement.value,
            "arm": arm.label,
            "dx_m": arm.strategy.dx_m,
            "dy_m": arm.strategy.dy_m,
            "mean_r0": arm.mean_r0,
            "mean_profit": arm.mean_profit,
            "std_profit": arm.std_profit,
        }
        for arm in comparison.arms
    ]
    mean_profits = {
        (arm.placement.value, arm.label): arm.mean_profit for arm in comparison.arms
    }
    return {"rows": arm_rows, "mean_profits": mean_profits}


def run_optimal_comparison(spec: ExperimentSpec) -> tuple[list[dict], dict]:
    """Default-vs-optimal strategy comparison over random instances.

    Per instance: draw (W, H, beta0, gamma) uniformly from the configured
    ranges, find the analytic-mode optimal spacing by grid search, then run
    paired replicates of the default strategy (the scenario's spacing) and
    the optimal one under both placement modes. Appends one paired t-test
    row per placement computed over the per-instance mean profits (nan when
    degenerate). Writes comparison.csv; data row count = instances * 4.
    The default arm's lattice on the smallest instance field must hold at
    least pathogen.initial_infected plants.
    """
    # An instance's field is drawn from the ranges, and a lattice holds no
    # fewer plants on a larger field, so the smallest field bounds them all.
    scenario = spec.scenario
    width, height = spec.width_range[0], spec.height_range[0]
    plants = lattice_capacity(
        replace(scenario.field, width_m=width, height_m=height), scenario.strategy
    )
    if plants < scenario.pathogen.initial_infected:
        raise ValidationError(
            f"invariant violated: pathogen.initial_infected "
            f"({scenario.pathogen.initial_infected}) <= plant count ({plants}) of the "
            f"default strategy (dx_m={scenario.strategy.dx_m:g}, "
            f"dy_m={scenario.strategy.dy_m:g}) on the smallest instance field, "
            f"width_range[0] x height_range[0] = {width:g} x {height:g} m"
        )
    outcomes = _map_jobs(
        partial(_comparison_instance, spec), range(spec.instances), spec.jobs
    )
    rows = [row for outcome in outcomes for row in outcome["rows"]]

    tests = {}
    for placement in ("random", "worstcase"):
        optimal = [o["mean_profits"][(placement, "optimal")] for o in outcomes]
        default = [o["mean_profits"][(placement, "default")] for o in outcomes]
        try:
            tests[placement] = paired_t_test(optimal, default)
        except ValidationError:
            tests[placement] = None
    for placement, result in tests.items():
        rows.append(
            {
                "instance": "summary",
                "placement": placement,
                "arm": "t_test",
                "t_stat": result.t_statistic if result else math.nan,
                "dof": result.dof if result else math.nan,
                "p_value": result.p_two_sided if result else math.nan,
            }
        )
    _write_csv(spec.out_dir, "comparison.csv", COMPARISON_FIELDS, rows)
    return rows, tests


def run_experiment(spec: ExperimentSpec):
    """Dispatch on spec.kind (which must be set)."""
    dispatch = {
        ExperimentKind.BASELINE: run_baseline,
        ExperimentKind.PATHOGEN_SWEEP: run_pathogen_sweep,
        ExperimentKind.ECONOMIC_SWEEP: run_economic_sweep,
        ExperimentKind.OPTIMAL_COMPARISON: run_optimal_comparison,
    }
    if spec.kind is None:
        raise ValidationError("invariant violated: experiment kind set")
    return dispatch[spec.kind](spec)
