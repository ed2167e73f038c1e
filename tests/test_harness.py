import importlib
import math
import pkgutil
from dataclasses import replace

import pytest

from fieldopt import (
    EconomicParams,
    ExperimentKind,
    ExperimentSpec,
    FieldSpec,
    PathogenParams,
    SeedingStrategy,
    ValidationError,
    derive_seed,
    desk_scenario,
    lattice_capacity,
    run,
    run_baseline,
    run_economic_sweep,
    run_experiment,
    run_optimal_comparison,
    run_pathogen_sweep,
)
import fieldopt
from fieldopt import harness
from fieldopt.analytics import _mean_std

GAMMAS = (1 / 42, 1 / 21)


def _spec(tmp_path, **kwargs):
    base = dict(master_seed=3, replicates=2, out_dir=str(tmp_path))
    base.update(kwargs)
    return ExperimentSpec(**base)


def test_desk_scenario_scale():
    sc = desk_scenario()
    assert (sc.field.width_m, sc.field.height_m) == (10.0, 10.0)
    assert lattice_capacity(sc.field, sc.strategy) == 2601


def test_spec_validation():
    with pytest.raises(ValidationError):
        ExperimentSpec(replicates=0)
    with pytest.raises(ValidationError):
        ExperimentSpec(width_range=(5.0, 4.0))
    with pytest.raises(ValidationError):
        ExperimentSpec(sizes=())


@pytest.mark.parametrize("master_seed", [-1, 2**64])
def test_spec_rejects_a_master_seed_outside_64_bits(master_seed):
    with pytest.raises(ValidationError, match="master_seed"):
        ExperimentSpec(master_seed=master_seed)


# -- baseline -----------------------------------------------------------------


def test_baseline_rows_and_csv(tmp_path):
    spec = _spec(tmp_path, sizes=(4, 9), replicates=3)
    rows = run_baseline(spec)
    assert len(rows) == 2 * 3  # sizes x horizon
    final_t = desk_scenario().horizon_steps
    for row in rows:
        assert row["size_label"] in {"4", "9"}
        if row["t"] == final_t:
            assert row["mean_r0"] is None
        else:
            assert row["mean_r0"] is not None
    content = (tmp_path / "baseline.csv").read_text()
    header = content.splitlines()[0]
    assert header == "t,size_label,mean_r0,std_r0,mean_profit,std_profit"
    assert len(content.splitlines()) == 1 + len(rows)


def test_baseline_rerun_is_byte_identical(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    run_baseline(_spec(a_dir, sizes=(4, 9)))
    run_baseline(_spec(b_dir, sizes=(4, 9)))
    assert (a_dir / "baseline.csv").read_bytes() == (b_dir / "baseline.csv").read_bytes()


def test_baseline_jobs_do_not_change_results(tmp_path):
    serial = run_baseline(_spec(tmp_path / "s", sizes=(4, 9), jobs=1))
    parallel = run_baseline(_spec(tmp_path / "p", sizes=(4, 9), jobs=2))
    assert serial == parallel


# -- pathogen sweep -----------------------------------------------------------


def test_pathogen_sweep_rows_and_fits(tmp_path):
    spec = _spec(tmp_path, beta0_values=(0.001, 0.003), gamma_values=GAMMAS)
    rows, fits = run_pathogen_sweep(spec)
    assert len(rows) == 4
    base = next(r for r in rows if r["beta0"] == 0.003 and r["gamma"] == 1 / 42)
    assert base["rel_mean_r0"] == pytest.approx(1.0)
    assert base["rel_mean_profit"] == pytest.approx(1.0)
    assert set(fits) == {"mean_r0", "mean_profit"}
    assert (tmp_path / "pathogen_sweep.csv").exists()
    fits_lines = (tmp_path / "fits.csv").read_text().splitlines()
    assert fits_lines[0] == "response,coeff_beta0,coeff_gamma,intercept,r_squared"
    assert len(fits_lines) == 3


def test_pathogen_sweep_requires_baseline_cell(tmp_path):
    spec = _spec(tmp_path, beta0_values=(0.001, 0.002), gamma_values=GAMMAS)
    with pytest.raises(ValidationError, match="baseline"):
        run_pathogen_sweep(spec)


# -- economic sweep -----------------------------------------------------------


def test_economic_sweep_rows(tmp_path):
    spec = _spec(
        tmp_path,
        grow_cost_ratios=(1.0, 2.0),
        price_discount_ratios=(2.0, 4.0),
        grow_price_ratios=(0.005, 0.01),
    )
    rows = run_economic_sweep(spec)
    econ = EconomicParams()
    base_ratios = {
        "grow_cost_ratio": econ.grow_per_plant / econ.grow_overhead_coeff,
        "price_discount_ratio": econ.sell_price / econ.sell_discount,
        "grow_price_ratio": econ.grow_per_plant / econ.sell_price,
    }
    for family, base in base_ratios.items():
        fam_rows = [r for r in rows if r["ratio_family"] == family]
        assert len(fam_rows) == 3  # two requested values plus the baseline
        flagged = [r for r in fam_rows if r["is_baseline"]]
        assert len(flagged) == 1
        assert flagged[0]["ratio_value"] == pytest.approx(base)
        values = [r["ratio_value"] for r in fam_rows]
        assert values == sorted(values)
        assert all(r["n_reps"] == spec.replicates for r in fam_rows)
    assert (tmp_path / "econ_sweep.csv").exists()


def test_economic_sweep_varied_and_fixed_keys(tmp_path):
    spec = _spec(tmp_path)
    rows = run_economic_sweep(spec)
    by_family = {r["ratio_family"]: r for r in rows}
    assert by_family["grow_cost_ratio"]["varied_key"] == "grow_per_plant"
    assert by_family["grow_cost_ratio"]["fixed_key"] == "grow_overhead_coeff"
    assert by_family["price_discount_ratio"]["varied_key"] == "sell_price"
    assert by_family["grow_price_ratio"]["fixed_key"] == "sell_price"


SMALL_RATIOS = dict(
    grow_cost_ratios=(1.0, 2.0),
    price_discount_ratios=(2.0, 4.0),
    grow_price_ratios=(0.005, 0.01),
)


def _small_scenario(**kwargs):
    sc = desk_scenario()
    return replace(sc, field=replace(sc.field, width_m=3.0, height_m=3.0), **kwargs)


@pytest.mark.parametrize(
    "scenario",
    [
        _small_scenario(),
        # removals within the season, so n_t differs between replicates
        _small_scenario(
            pathogen=PathogenParams(beta0=0.3, gamma=0.5), horizon_steps=5
        ),
        # spacing below the minimum: every replicate dies early
        _small_scenario(strategy=SeedingStrategy(0.05, 0.05)),
    ],
    ids=["desk", "removals", "died-early"],
)
def test_economic_sweep_equals_simulating_every_cell(tmp_path, scenario):
    spec = _spec(tmp_path, scenario=scenario, replicates=3, **SMALL_RATIOS)
    rows = run_economic_sweep(spec)
    assert len(rows) == 9
    for row in rows:
        # What the sweep did before it shared one batch: simulate the cell.
        econ = harness._econ_with_ratio(
            scenario.economics, row["ratio_family"], row["ratio_value"]
        )
        profits = [
            run(
                replace(
                    scenario,
                    economics=econ,
                    rng_seed=derive_seed(spec.master_seed, "econ", i),
                )
            ).total_profit
            for i in range(spec.replicates)
        ]
        assert (row["mean_profit"], row["std_profit"]) == _mean_std(profits)


def test_economic_sweep_simulates_each_seed_once(tmp_path, monkeypatch):
    seeds = []
    real_run = harness.run

    def counting_run(scenario):
        seeds.append(scenario.rng_seed)
        return real_run(scenario)

    monkeypatch.setattr(harness, "run", counting_run)
    spec = _spec(tmp_path, replicates=4, **SMALL_RATIOS)
    rows = run_economic_sweep(spec)
    assert len(rows) == 9
    assert seeds == [derive_seed(spec.master_seed, "econ", i) for i in range(4)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_replicates_share_seeds_across_cells(tmp_path, jobs):
    spec = _spec(tmp_path, replicates=3, jobs=jobs)
    cells = [
        _small_scenario(),
        _small_scenario(pathogen=PathogenParams(beta0=0.3, gamma=0.5)),
    ]
    batches = harness._replicates(spec, "label", cells)
    assert len(batches) == len(cells)
    for cell, batch in zip(cells, batches):
        assert batch == [
            run(replace(cell, rng_seed=derive_seed(spec.master_seed, "label", i)))
            for i in range(spec.replicates)
        ]


# -- optimal-vs-default comparison -------------------------------------------


def test_comparison_rows(tmp_path):
    spec = _spec(
        tmp_path,
        instances=2,
        comparison_reps=2,
        optimizer_delta=0.2,
        width_range=(3.0, 5.0),
        height_range=(3.0, 5.0),
    )
    rows, tests = run_optimal_comparison(spec)
    arm_rows = [r for r in rows if r["arm"] != "t_test"]
    summary_rows = [r for r in rows if r["arm"] == "t_test"]
    assert len(arm_rows) == 2 * 4  # instances x (placement x strategy)
    assert len(summary_rows) == 2  # one pooled test per placement
    assert set(tests) == {"random", "worstcase"}
    for row in arm_rows:
        assert 3.0 <= row["width_m"] <= 5.0
        assert row["arm"] in {"default", "optimal"}
    assert (tmp_path / "comparison.csv").exists()


# -- dispatcher and formatting ------------------------------------------------


def test_run_experiment_dispatch(tmp_path):
    spec = _spec(tmp_path, kind=ExperimentKind.BASELINE, sizes=(4, 9))
    assert run_experiment(spec) == run_baseline(replace(spec, out_dir=str(tmp_path)))
    with pytest.raises(ValidationError):
        run_experiment(_spec(tmp_path, kind=None))


def test_csv_floats_use_nine_significant_digits(tmp_path):
    spec = _spec(tmp_path, sizes=(4, 9))
    rows = run_baseline(spec)
    lines = (tmp_path / "baseline.csv").read_text().splitlines()
    profit_col = lines[0].split(",").index("mean_profit")
    first_profit = lines[1].split(",")[profit_col]
    assert first_profit == f"{rows[0]['mean_profit']:.9g}"
    assert float(first_profit) == pytest.approx(rows[0]["mean_profit"], rel=1e-8)


class _NoProcessPool:
    """Stands in for ProcessPoolExecutor: records the worker count it is
    asked for and maps in this process, so no process is ever started."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


def _count_pools(monkeypatch, cpus):
    sizes = []
    monkeypatch.setattr(
        harness, "ProcessPoolExecutor", lambda max_workers: _NoProcessPool(sizes, max_workers)
    )
    monkeypatch.setattr(harness, "_cpu_count", lambda: cpus)
    return sizes


@pytest.mark.parametrize(
    "items,cpus,workers",
    [(5, 3, 3), (2, 8, 2), (40, 2, 2), (1, 8, None), (9, 1, None), (0, 8, None)],
)
def test_worker_count_is_bounded_by_items_and_cpus(monkeypatch, items, cpus, workers):
    sizes = _count_pools(monkeypatch, cpus)
    assert harness._map_jobs(abs, range(-items, 0), 10**6) == list(range(items, 0, -1))
    assert sizes == ([] if workers is None else [workers])


def test_huge_jobs_setting_forks_no_more_than_the_cpus(tmp_path, monkeypatch):
    serial = run_baseline(_spec(tmp_path / "one", sizes=(4, 9, 16)))
    sizes = _count_pools(monkeypatch, 4)
    assert run_baseline(_spec(tmp_path / "many", sizes=(4, 9, 16), jobs=10**6)) == serial
    assert sizes == [4]  # 6 seasons on 4 CPUs
    assert (tmp_path / "many" / "baseline.csv").read_bytes() == (
        tmp_path / "one" / "baseline.csv"
    ).read_bytes()


def _compensated_sum(values, start=0):
    """The builtin sum() of floats from Python 3.12 on: Neumaier's
    compensated summation, with the correction added once at the end."""
    total, correction = float(start), 0.0
    for value in values:
        value = float(value)
        t = total + value
        if abs(total) >= abs(value):
            correction += (total - t) + value
        else:
            correction += (value - t) + total
        total = t
    return total + correction if correction and math.isfinite(correction) else total


def test_outputs_do_not_depend_on_the_builtin_sum(tmp_path, monkeypatch):
    # Every experiment's rows are the same when sum() compensates its
    # rounding, as it does from Python 3.12 on.
    specs = [
        _spec(tmp_path, kind=ExperimentKind.BASELINE, replicates=20),
        _spec(tmp_path, kind=ExperimentKind.PATHOGEN_SWEEP, replicates=5),
        _spec(tmp_path, kind=ExperimentKind.ECONOMIC_SWEEP, replicates=20),
        _spec(tmp_path, kind=ExperimentKind.OPTIMAL_COMPARISON, instances=4,
              comparison_reps=4, optimizer_delta=0.2),
    ]
    expected = [repr(run_experiment(spec)) for spec in specs]
    for info in pkgutil.iter_modules(fieldopt.__path__):
        module = importlib.import_module(f"fieldopt.{info.name}")
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    assert [repr(run_experiment(spec)) for spec in specs] == expected
