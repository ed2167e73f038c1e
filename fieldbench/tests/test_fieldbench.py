"""Self-tests of the benchmark: counters against hand counts, self-time
arithmetic, the committed reference digests, and the command's output.

    python3 -m pytest -q fieldbench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import fieldopt
import run as bench
import spans
import workloads
from fieldopt import FieldSpec, PathogenParams, PlacementMode, Scenario, SeedingStrategy

BENCH = Path(bench.__file__).resolve().parent
ROOT = BENCH.parent


def _originals():
    targets = [t for group in spans.LAYERS.values() for t in group] + [spans.RNG_TARGET]
    out = {}
    for target in targets:
        owner, attr = spans._resolve(target)
        out[target] = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return out


@pytest.mark.parametrize("mode", [PlacementMode.RANDOM, PlacementMode.WORST_CASE])
@pytest.mark.parametrize("seed", range(4))
def test_draws_and_pair_evals_match_the_draw_order_contract(mode, seed):
    # 3 x 3 lattice, horizon 3: two rounds. Every susceptible plant is within
    # the cutoff of every infected one, so a round with I > 0 draws once per
    # start-of-round infected (removal) and once per susceptible (infection).
    scenario = Scenario(
        field=FieldSpec(width_m=0.4, height_m=0.4, min_spacing_m=0.1),
        pathogen=PathogenParams(beta0=0.05, gamma=0.5, initial_infected=2),
        strategy=SeedingStrategy(dx_m=0.2, dy_m=0.2),
        horizon_steps=3,
        placement_mode=mode,
        rng_seed=seed,
    )
    plain = fieldopt.run(scenario)
    before = _originals()
    tracer = spans.Tracer()
    with spans.Instrumentation(tracer):
        traced = fieldopt.epidemic.run(scenario)
    assert _originals() == before  # every wrapper removed

    t = plain.trajectory
    assert traced.trajectory == t
    assert repr(traced.total_profit) == repr(plain.total_profit)
    assert traced.initial_infected == plain.initial_infected

    rounds = range(scenario.horizon_steps - 1)
    placement = 2 if mode is PlacementMode.RANDOM else 0
    draws = placement + sum(
        t.i_count[r] + (t.s_count[r] if t.i_count[r] > 0 else 0) for r in rounds
    )
    assert tracer.counters["epidemic.rng_draws"] == draws
    assert tracer.counters["epidemic.pair_evals"] == sum(9 * t.i_count[r] for r in rounds)
    assert tracer.counters["epidemic.pair_useful"] == sum(
        t.s_count[r] * t.i_count[r] for r in rounds
    )
    layers = tracer.reduce()
    assert layers["epidemic.step"][0] == 2
    assert layers["field.layout_grid"][0] == 1


def test_self_time_arithmetic_on_nested_spans():
    names = ["op", "a", "b"]
    #            op      a       b       a       b
    name_id = [0, 1, 2, 1, 2]
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 8.0]
    parent = [-1, 0, 1, 0, 3]
    got = spans.self_times(names, name_id, start, end, parent)
    assert got["op"] == (1, 10.0, 10.0 - 3.0 - 4.0)
    assert got["a"] == (2, 7.0, (3.0 - 1.0) + (4.0 - 2.0))
    assert got["b"] == (2, 3.0, 3.0)


def test_live_spans_nest_and_self_times_add_up():
    tracer = spans.Tracer()
    root = tracer.open("op")
    for _ in range(3):
        outer = tracer.open("a")
        inner = tracer.open("b")
        tracer.close(inner)
        tracer.close(outer)
    tracer.close(root)
    assert list(tracer.parent) == [-1, 0, 1, 0, 3, 0, 5]
    layers = tracer.reduce()
    assert layers["a"][0] == layers["b"][0] == 3
    total_self = sum(own for _, _, own in layers.values())
    assert total_self == pytest.approx(layers["op"][1], abs=1e-12)


def test_tail_is_highest_percentile_with_ten_ops_beyond():
    assert bench.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    value, pct = bench.tail([float(i) for i in range(12)])
    assert (value, pct) == (6.0, 700.0 / 12)  # the upper median, not below it


def test_committed_reference_digests_match_current_code(tmp_path):
    reference = json.loads(bench.REFERENCE.read_text())
    assert set(reference) == set(bench.WORKLOAD_NAMES)
    for name, workload in workloads.WORKLOADS.items():
        assert len(reference[name]) == workload.pool
        for j in (0, 1):
            spec = workload.make(bench.DEFAULT_SEED, j, tmp_path)
            assert workload.digest(spec, workload.op(spec)) == reference[name][j], (name, j)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "fieldbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_declared_metrics(trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = declared["per_layer" if trace == "1" else "end_to_end"]
    done = _run(ROOT, "--workload", "compare", "--seed", "5", "--seconds", "0.01", "--trace", trace)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert {m["name"]: m["unit"] for m in group} == {
        k: v["unit"] for k, v in last["metrics"].items()
    }
    result = json.loads((bench.OUT / f"compare-seed5-trace{trace}.json").read_text())
    if trace == "0":
        assert len(result["details"]["setup_samples_s"]) == bench.SETUP_PROBES


def test_a_lookup_that_no_longer_exists_stops_the_trace(monkeypatch):
    before = _originals()
    layers = dict(spans.LAYERS, **{"field.gone": ("fieldopt.field:no_such_function",)})
    monkeypatch.setattr(spans, "LAYERS", layers)
    with pytest.raises(AttributeError):
        with spans.Instrumentation(spans.Tracer()):
            pass
    monkeypatch.undo()
    assert _originals() == before  # the wrappers installed first are removed


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "fieldbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "--workload", "season_full", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
