import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from fieldopt import optimize, write_scenario, scenario_default
from fieldopt import cli
from fieldopt.cli import _evaluation_rows, main
from fieldopt.harness import _write_csv

README = Path(__file__).resolve().parents[1] / "README.md"

SMALL = [
    "--set", "field.width_m=2",
    "--set", "field.height_m=2",
]


def test_simulate_runs_default_scenario(capsys):
    assert main(["simulate"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("profit=")
    assert "plants=251001" in out


def test_simulate_is_deterministic(capsys):
    main(["simulate", *SMALL])
    first = capsys.readouterr().out
    main(["simulate", *SMALL])
    second = capsys.readouterr().out
    assert first == second


def test_simulate_seed_changes_output(capsys):
    main(["simulate", *SMALL, "--set", "pathogen.beta0=0.8", "--seed", "1"])
    one = capsys.readouterr().out
    main(["simulate", *SMALL, "--set", "pathogen.beta0=0.8", "--seed", "2"])
    two = capsys.readouterr().out
    assert one != two


def test_simulate_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("FIELDOPT_SEED", "1")
    main(["simulate", *SMALL, "--set", "pathogen.beta0=0.8"])
    env_out = capsys.readouterr().out
    monkeypatch.delenv("FIELDOPT_SEED")
    main(["simulate", *SMALL, "--set", "pathogen.beta0=0.8", "--seed", "1"])
    flag_out = capsys.readouterr().out
    assert env_out == flag_out


def test_simulate_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("FIELDOPT_SEED", "7")
    main(["simulate", *SMALL, "--set", "pathogen.beta0=0.8", "--seed", "1"])
    flagged = capsys.readouterr().out
    monkeypatch.delenv("FIELDOPT_SEED")
    main(["simulate", *SMALL, "--set", "pathogen.beta0=0.8", "--seed", "1"])
    assert flagged == capsys.readouterr().out


def test_bad_env_seed_is_validation_error(monkeypatch, capsys):
    monkeypatch.setenv("FIELDOPT_SEED", "not-a-number")
    assert main(["simulate", *SMALL]) == 1
    assert "FIELDOPT_SEED" in capsys.readouterr().err


def test_scenario_file_loading(tmp_path, capsys):
    path = tmp_path / "scenario.ini"
    write_scenario(scenario_default(), path)
    assert main(["simulate", "--scenario", str(path), *SMALL]) == 0
    capsys.readouterr()


def test_missing_scenario_file_is_io_error(capsys):
    assert main(["simulate", "--scenario", "/nonexistent/file.ini"]) == 2
    assert "io error" in capsys.readouterr().err


def test_malformed_scenario_file_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[pathogen]\nbeta0 = banana\n")
    assert main(["simulate", "--scenario", str(path)]) == 1
    capsys.readouterr()


def test_bad_override_exits_1(capsys):
    assert main(["simulate", "--set", "pathogen.spores=3"]) == 1
    assert main(["simulate", "--set", "nonsense"]) == 1
    assert main(["simulate", "--set", "pathogen.gamma=0"]) == 1
    capsys.readouterr()


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["unknown-command"]) == 1
    assert main(["simulate", "--bogus-flag"]) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_optimize_grid(capsys, tmp_path):
    code = main(
        [
            "optimize",
            "--set", "field.width_m=0.5",
            "--set", "field.height_m=0.5",
            "--delta", "0.1",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("best dx_m=")
    lines = (tmp_path / "evaluations.csv").read_text().splitlines()
    assert lines[0] == "dx_m,dy_m,profit_estimate,profit_std,n_reps"
    assert len(lines) == 1 + 25  # 5x5 candidate grid


def test_optimize_simulated_montecarlo(capsys):
    code = main(
        [
            "optimize",
            *SMALL,
            "--mode", "simulated",
            "--search", "montecarlo",
            "--budget", "4",
            "--reps", "2",
            "--seed", "3",
        ]
    )
    assert code == 0
    capsys.readouterr()


def test_optimize_infeasible_exits_1(capsys):
    assert main(["optimize", "--set", "field.width_m=0.05"]) == 1
    capsys.readouterr()


def test_baseline_command(tmp_path, capsys):
    code = main(
        ["baseline", "--sizes", "4,9", "--reps", "2", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "baseline.csv" in out and "(6 rows)" in out
    assert (tmp_path / "baseline.csv").exists()


def test_sweep_pathogen_command(tmp_path, capsys):
    code = main(
        [
            "sweep-pathogen",
            "--beta0-values", "0.001,0.003",
            "--gamma-values", "1/42,1/21",
            "--reps", "2",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    assert "pathogen_sweep.csv" in capsys.readouterr().out
    assert (tmp_path / "fits.csv").exists()


def test_sweep_econ_command(tmp_path, capsys):
    code = main(
        [
            "sweep-econ",
            "--grow-cost-ratios", "1,2",
            "--price-discount-ratios", "2,4",
            "--grow-price-ratios", "0.005,0.01",
            "--reps", "2",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    assert "econ_sweep.csv" in capsys.readouterr().out
    assert (tmp_path / "econ_sweep.csv").exists()


def test_compare_command(tmp_path, capsys):
    code = main(
        [
            "compare",
            "--instances", "1",
            "--reps", "2",
            "--delta", "0.2",
            "--width-range", "3,4",
            "--height-range", "3,4",
            "--out-dir", str(tmp_path),
            "--seed", "5",
        ]
    )
    assert code == 0
    assert "comparison.csv" in capsys.readouterr().out
    lines = (tmp_path / "comparison.csv").read_text().splitlines()
    assert len(lines) == 1 + 4 + 2  # header, one instance x 4 arms, 2 summaries


def test_jobs_flag_does_not_change_baseline(tmp_path, capsys):
    main(["baseline", "--sizes", "4,9", "--reps", "2", "--jobs", "2",
          "--out-dir", str(tmp_path / "par")])
    main(["baseline", "--sizes", "4,9", "--reps", "2",
          "--out-dir", str(tmp_path / "ser")])
    capsys.readouterr()
    assert (tmp_path / "par" / "baseline.csv").read_bytes() == (
        tmp_path / "ser" / "baseline.csv"
    ).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-pathogen", "--beta0-values", "0.001,0.003", "--gamma-values", "1/42,1/21"],
        ["sweep-econ", "--grow-cost-ratios", "1", "--price-discount-ratios", "2",
         "--grow-price-ratios", "0.01"],
        ["compare", "--instances", "2", "--delta", "0.3"],
    ],
    ids=["sweep-pathogen", "sweep-econ", "compare"],
)
def test_jobs_flag_does_not_change_other_experiments(tmp_path, capsys, argv):
    for jobs in ("1", "2"):
        out = str(tmp_path / jobs)
        assert main([*argv, "--reps", "3", "--jobs", jobs, "--out-dir", out]) == 0
    capsys.readouterr()
    names = sorted(path.name for path in (tmp_path / "1").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "2").iterdir())
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_experiment_options_set_the_spec_fields(monkeypatch, capsys):
    specs = []
    monkeypatch.setattr(cli, "run_experiment", lambda spec: specs.append(spec) or [])
    common = ["--jobs", "2", "--seed", "4", "--out-dir", "x"]
    assert main(["compare", "--reps", "7", "--delta", "0.3", "--instances", "3", *common]) == 0
    assert main(["baseline", "--reps", "5", "--sizes", "4,9", *common]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "wrote x/comparison.csv (0 rows)",
        "wrote x/baseline.csv (0 rows)",
    ]
    compare, baseline = specs
    # compare --reps sets both replicate counts
    assert (compare.replicates, compare.comparison_reps) == (7, 7)
    assert (compare.optimizer_delta, compare.instances) == (0.3, 3)
    assert (baseline.replicates, baseline.comparison_reps, baseline.sizes) == (5, 10, (4, 9))
    for spec in specs:
        assert (spec.jobs, spec.master_seed, spec.out_dir) == (2, 4, "x")


def test_evaluations_csv_is_streamed_from_the_columns(tmp_path):
    base = scenario_default()
    scenario = replace(base, field=replace(base.field, width_m=1.0, height_m=0.7))
    result = optimize(scenario, delta=0.05)
    fields = ["dx_m", "dy_m", "profit_estimate", "profit_std", "n_reps"]
    rows = [{name: getattr(e, name) for name in fields} for e in result.evaluations]
    expected = _write_csv(tmp_path / "a", "evaluations.csv", fields, rows).read_bytes()
    assert len(result.dx_m) % 7  # the last block is a partial one
    streamed = _write_csv(
        tmp_path / "b", "evaluations.csv", fields, _evaluation_rows(result, block=7)
    )
    assert streamed.read_bytes() == expected


def _readme_examples():
    """(command, printed line) for every `$ fieldopt ...` line in the
    README, with backslash continuations joined."""
    lines = README.read_text(encoding="utf-8").splitlines()
    examples = []
    i = 0
    while i < len(lines):
        if lines[i].startswith("$ fieldopt "):
            command = lines[i][2:]
            while command.endswith("\\"):
                i += 1
                command = command[:-1] + lines[i].strip()
            examples.append((command, lines[i + 1]))
        i += 1
    return examples


@pytest.mark.parametrize("command,printed", _readme_examples())
def test_readme_examples(tmp_path, monkeypatch, capsys, command, printed):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FIELDOPT_SEED", raising=False)
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out.strip() == printed


def test_readme_has_examples_of_every_subcommand():
    commands = {shlex.split(command)[1] for command, _ in _readme_examples()}
    assert commands == {
        "simulate", "optimize", "baseline", "sweep-pathogen", "sweep-econ", "compare"
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-pathogen", "--gamma-values", "1/0"],
        ["simulate", "--set", "field.width_m=inf"],
        ["optimize", "--delta", "1e-300"],
        ["optimize", "--delta", "nan"],
        ["optimize", "--search", "montecarlo", "--budget", "10000000000"],
        ["simulate", "--set", "strategy.dx_m=inf"],
        ["simulate", "--set", "economics.sell_price=inf"],
        ["simulate", "--jobs", "2"],
        ["simulate", "--set", "strategy.dx_m=1e-320"],
        ["simulate", "--set", "strategy.dx_m=1e-300"],
        ["optimize", "--set", "field.width_m=1e300", "--set", "field.height_m=1e300",
         "--delta", "1e299"],
        ["optimize", "--set", "field.width_m=1e300", "--set", "field.height_m=1e300",
         "--delta", "1e299", "--set", "strategy.dx_m=1e299", "--set", "strategy.dy_m=1e299"],
    ],
)
def test_bad_numbers_exit_1_without_traceback(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "fieldopt.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "error" in proc.stderr
