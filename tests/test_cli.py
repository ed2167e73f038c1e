import contextlib
import hashlib
import io
import math
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fieldopt import optimize, write_scenario, scenario_default
from fieldopt import cli
from fieldopt.cli import _evaluation_line, _evaluation_lines, main
from fieldopt.harness import _fmt, _write_csv, write_csv_lines

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


# The sha256 of every CSV the CLI writes, at small fixed settings. Recorded
# before the scenario schema, the float sums and the lattice counts were
# refactored; any changed output byte fails here.
_PINNED_RUNS = [
    ["baseline", "--reps", "20"],
    ["sweep-pathogen", "--reps", "5"],
    ["sweep-econ", "--reps", "20"],
    ["compare", "--instances", "4", "--reps", "4", "--delta", "0.2"],
    ["optimize", *SMALL, "--delta", "0.05"],
]
_PINNED_SHA256 = {
    "baseline.csv": "539097ac9a089d93d9a170b1c4ef1e28fe28e63f39d850b6ef9663e18458cf88",
    "comparison.csv": "e3cc8a2bc6b3d5732f7f4c1f2df3dde9e52853489a0e5aa05e05400cce04f4d0",
    "econ_sweep.csv": "82c5a59b0ebb4ed7a33c1873667b13f7db7e1ed5640c301d0d8b16e9fa926f36",
    "evaluations.csv": "15269f3316bf72da3bb906287f73c613f24d40b33d98744c97a65498ab89643f",
    "fits.csv": "04df9f16f21ffc595e0f4a20842acdd2c0d5b4ab82d06fcc5b209bbcee7ac326",
    "pathogen_sweep.csv": "605b31e1823a5655fd663bb30d96c46854f1780df609674bedfcc63dc6b41c50",
}


def test_csv_bytes_are_pinned(tmp_path, capsys):
    for argv in _PINNED_RUNS:
        assert main([*argv, "--seed", "3", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()
    }
    assert digests == _PINNED_SHA256


# The sha256 of evaluations.csv from simulated searches, whose candidates
# (Monte Carlo) and replicate seasons are drawn from the seed. Recorded
# before the optimizer's seed parameter was folded into the scenario.
_SIMULATED = [
    "optimize", "--set", "field.width_m=1", "--set", "field.height_m=1", "--mode", "simulated",
]
_PINNED_SIMULATED = [
    (["--search", "montecarlo", "--budget", "12", "--reps", "4", "--seed", "3"],
     "edd25c3617deb4d9ab426145d241efd84ab2e3f898227c8c6c54b56fb252e255"),
    (["--search", "montecarlo", "--budget", "12", "--reps", "4", "--seed", "11"],
     "832541ac9d0d159622283897bd89bf735cf17a6f680926265f9e032c4bdc278a"),
    (["--delta", "0.3", "--reps", "3", "--seed", "3"],
     "bb8de86f750a2226d5245dc4a0c49593db4d243b4cb88b89291afa71a8c0dde5"),
]


@pytest.mark.parametrize("argv,digest", _PINNED_SIMULATED)
def test_simulated_search_bytes_are_pinned(tmp_path, capsys, argv, digest):
    assert main([*_SIMULATED, *argv, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "evaluations.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
@pytest.mark.parametrize(
    "command", ["simulate", "optimize", "baseline", "sweep-pathogen", "sweep-econ", "compare"]
)
def test_a_seed_outside_64_bits_exits_1_naming_rng_seed(monkeypatch, capsys, command, seed):
    monkeypatch.delenv("FIELDOPT_SEED", raising=False)
    assert main([command, "--seed", seed]) == 1
    assert "rng_seed" in capsys.readouterr().err
    monkeypatch.setenv("FIELDOPT_SEED", seed)
    assert main([command]) == 1
    assert "rng_seed" in capsys.readouterr().err


def test_evaluations_csv_is_streamed_from_the_columns(tmp_path):
    base = scenario_default()
    scenario = replace(base, field=replace(base.field, width_m=1.0, height_m=0.7))
    result = optimize(scenario, delta=0.05)
    fields = ["dx_m", "dy_m", "profit_estimate", "profit_std", "n_reps"]
    rows = [{name: getattr(e, name) for name in fields} for e in result.evaluations]
    expected = _write_csv(tmp_path / "a", "evaluations.csv", fields, rows).read_bytes()
    assert len(result.dx_m) % 7  # the last block is a partial one
    streamed = write_csv_lines(
        tmp_path / "b", "evaluations.csv", fields, _evaluation_lines(result, block=7)
    )
    assert streamed.read_bytes() == expected


def test_evaluation_line_spells_floats_as_fmt():
    values = [
        math.inf, -math.inf, math.nan, -0.0, 0.0, 123456789.0, 1234567891.0,
        0.1 + 0.2, 1 / 3, -2.5e-300, 5e-324, 1.7976931348623157e308, 999999999.5,
    ]
    for n_reps in (0, 30):
        line = _evaluation_line(n_reps)
        for row in zip(values, values[1:] + values[:1], values[2:] + values[:2], values[::-1]):
            assert line(*row) == ",".join([*map(_fmt, row), _fmt(n_reps)]) + "\n"


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


def test_readme_python_quick_start():
    """Runs the README's python block; each print with a trailing
    `# value` comment must print that value, at the comment's precision."""
    code = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    lines = [line for line in code.splitlines() if line.startswith("print(")]
    printed = []
    exec(code, {"print": lambda *values: printed.append(values)})
    assert len(printed) == len(lines)
    checked = 0
    for line, values in zip(lines, printed):
        if "#" in line:
            value = line.rsplit("#", 1)[1].rsplit(":", 1)[-1].strip()
            decimals = len(value.partition(".")[2])
            assert f"{float(values[0]):.{decimals}f}" == value
            checked += 1
    assert checked == 3


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
        ["optimize", "--set", "field.width_m=1e153", "--set", "field.height_m=1e153",
         "--set", "strategy.dx_m=1e152", "--set", "strategy.dy_m=1e152", "--delta", "1e152"],
        ["simulate", "--set", "run.placement_mode=worstcase",
         "--set", "pathogen.initial_infected=4000"],
        ["optimize", "--set", "run.horizon_steps=1000000000", "--delta", "5"],
        ["simulate", "--set", "run.horizon_steps=100000000",
         "--set", "field.width_m=1", "--set", "field.height_m=1"],
        ["optimize", "--set", "run.horizon_steps=1000"],
        ["optimize", "--mode", "simulated", "--delta", "5", "--seed", "-1"],
        ["baseline", "--seed", "18446744073709551616"],
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


# -- any drawn command line exits 0, 1 or 2 without a traceback -----------------

# Out-of-range and unparsable values for every scenario key: negative,
# zero, not a number, infinite, a division by zero, huge, and not a number
# at all.
_BAD_VALUES = ["-1", "-0.5", "0", "nan", "inf", "-inf", "1/0", "0/0", "1e308",
               "99999999999999999999", "x"]

# Values each key accepts, kept small so that no drawn case runs long:
# fields of at most 3 m and at most 4 rounds.
_GOOD_VALUES = {
    "field.width_m": st.floats(0.3, 3.0),
    "field.height_m": st.floats(0.3, 3.0),
    "field.min_spacing_m": st.floats(0.05, 1.0),
    "pathogen.beta0": st.floats(0.0, 1.0),
    "pathogen.gamma": st.floats(0.01, 1.0),
    "pathogen.initial_infected": st.integers(1, 5),
    **{
        f"economics.{key}": st.floats(0.0, 1e3)
        for key in ("seed_per_plant", "seed_overhead_coeff", "grow_per_plant",
                    "grow_overhead_coeff", "harvest_per_plant", "harvest_overhead_coeff",
                    "sell_price", "sell_discount")
    },
    "strategy.dx_m": st.floats(0.05, 3.0),
    "strategy.dy_m": st.floats(0.05, 3.0),
    "run.horizon_steps": st.integers(1, 4),
    "run.placement_mode": st.sampled_from(["random", "worstcase"]),
    "run.rng_seed": st.integers(0, 2**64 - 1),
    "run.explicit_count": st.integers(1, 100),
}


@st.composite
def _command_lines(draw, out_dir):
    def value(good, bad):
        # About one value in six is bad, so that most lines still run; the
        # simplest draw, which hypothesis favours, is a good one.
        return str(draw(st.sampled_from(bad) if draw(st.integers(0, 5)) == 5 else good))

    command = draw(st.sampled_from(
        ["simulate", "optimize", "baseline", "sweep-pathogen", "sweep-econ", "compare"]
    ))
    # Both field sides are always set, so the field is at most 3 m wide or
    # rejected.
    keys = ["field.width_m", "field.height_m"] + draw(
        st.lists(st.sampled_from(sorted(_GOOD_VALUES)), max_size=4, unique=True)
    )
    argv = [command]
    for key in dict.fromkeys(keys):
        argv += ["--set", f"{key}={value(_GOOD_VALUES[key], _BAD_VALUES)}"]
    if draw(st.booleans()):
        argv += ["--seed", value(st.integers(0, 2**64 - 1), [-1, 2**64, 2**70])]
    # compare needs two replicates per arm for its paired t-tests.
    reps = value(st.integers(1 + (command == "compare"), 2), [-1, 0])
    delta = value(st.sampled_from([0.5, 1.0, 2.5]), [1e308])
    if command == "optimize":
        argv += ["--mode", draw(st.sampled_from(["analytic", "simulated"])),
                 "--search", draw(st.sampled_from(["grid", "montecarlo"])),
                 "--budget", value(st.integers(1, 3), [-1, 0]), "--reps", reps, "--delta", delta]
        if draw(st.booleans()):
            argv += ["--out-dir", out_dir]
    elif command != "simulate":
        argv += ["--reps", reps, "--out-dir", out_dir, "--jobs", "1"]
    if command == "compare":
        argv += ["--instances", "1", "--delta", delta,
                 "--width-range", "1,3", "--height-range", "1,3"]
    return argv


@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_command_line_exits_0_1_or_2_without_a_traceback(tmp_path, data):
    argv = data.draw(_command_lines(str(tmp_path / "out")))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
