"""Command-line entry point: simulate / optimize / baseline / sweep-pathogen
/ sweep-econ / compare over scenario files.

Exit codes: 0 success, 1 validation or usage error, 2 I/O error. The seed
is taken from --seed, else the FIELDOPT_SEED environment variable, else
the scenario's rng_seed, and set as the loaded scenario's rng_seed (the
experiments' master seed). simulate and optimize default to the built-in
default scenario (100 m field); the experiment subcommands default to
its 10 m desk-scale variant so they finish in CI time. Each experiment
subcommand builds one ExperimentSpec and runs it with
harness.run_experiment; only they take --jobs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

from .epidemic import run
from .harness import (
    ExperimentKind,
    ExperimentSpec,
    desk_scenario,
    run_experiment,
    write_csv_lines,
)
from .optimizer import ScoreMode, SearchMethod, optimize
from .scenario import (
    ScenarioParseError,
    ValidationError,
    apply_overrides,
    load_scenario,
    parse_float,
    scenario_default,
)


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1 (argparse defaults to 2, reserved here for I/O).
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(parse_float(part) for part in text.split(",") if part.strip())


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _float_pair(text: str) -> tuple[float, float]:
    values = _float_list(text)
    if len(values) != 2:
        raise ValidationError(f"expected lo,hi pair, got {text!r}")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="fieldopt", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", help="scenario file path (defaults documented per command)")
    common.add_argument(
        "--set",
        action="append",
        metavar="SECTION.KEY=VALUE",
        help="override a scenario key (repeatable)",
    )
    common.add_argument("--seed", type=int, help="RNG seed / master seed override")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser("simulate", parents=[common], help="run one season and print its profit")

    p = sub.add_parser("optimize", parents=[common], help="search for the best (dx, dy)")
    p.add_argument("--mode", choices=[m.value for m in ScoreMode], default="analytic")
    p.add_argument("--search", choices=[s.value for s in SearchMethod], default="grid")
    p.add_argument("--delta", type=float, default=0.05, help="grid search spacing step (m)")
    p.add_argument("--budget", type=int, default=500, help="Monte Carlo candidate count")
    p.add_argument("--reps", type=int, default=30, help="replicates per candidate (simulated mode)")
    p.add_argument("--out-dir", help="also write evaluations.csv here")

    # The experiment options' dests are ExperimentSpec field names; an
    # option left unset keeps the spec's default.
    experiment = argparse.ArgumentParser(add_help=False, parents=[common])
    experiment.add_argument(
        "--reps",
        type=int,
        dest="replicates",
        metavar="REPS",
        help="replicates per cell/arm (default per experiment)",
    )
    experiment.add_argument("--out-dir", default="out", help="CSV output directory")
    experiment.add_argument("--jobs", type=int, default=1, help="worker processes for replicates")

    p = sub.add_parser("baseline", parents=[experiment], help="field-density baseline experiment")
    p.set_defaults(kind=ExperimentKind.BASELINE)
    p.add_argument("--sizes", type=_int_list, help="population sizes, e.g. 400,2500,10000")

    p = sub.add_parser("sweep-pathogen", parents=[experiment], help="(beta0, gamma) sensitivity sweep")
    p.set_defaults(kind=ExperimentKind.PATHOGEN_SWEEP)
    p.add_argument("--beta0-values", type=_float_list, help="e.g. 0.001,0.003,0.005")
    p.add_argument("--gamma-values", type=_float_list, help="e.g. 1/65,1/42,1/21")

    p = sub.add_parser("sweep-econ", parents=[experiment], help="economic ratio sweeps")
    p.set_defaults(kind=ExperimentKind.ECONOMIC_SWEEP)
    p.add_argument("--grow-cost-ratios", type=_float_list)
    p.add_argument("--price-discount-ratios", type=_float_list)
    p.add_argument("--grow-price-ratios", type=_float_list)

    p = sub.add_parser("compare", parents=[experiment], help="default vs optimal strategy comparison")
    p.set_defaults(kind=ExperimentKind.OPTIMAL_COMPARISON)
    p.add_argument("--instances", type=int, help="random instances to draw")
    p.add_argument(
        "--delta", type=float, dest="optimizer_delta", metavar="DELTA", help="optimizer grid step (m)"
    )
    p.add_argument("--width-range", type=_float_pair, metavar="LO,HI")
    p.add_argument("--height-range", type=_float_pair, metavar="LO,HI")
    p.add_argument("--beta0-range", type=_float_pair, metavar="LO,HI")
    p.add_argument("--gamma-range", type=_float_pair, metavar="LO,HI")
    return parser


def _load(args, default_factory):
    scenario = load_scenario(args.scenario) if args.scenario else default_factory()
    overrides = {}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ScenarioParseError(f"override must be SECTION.KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value.strip()
    if overrides:
        scenario = apply_overrides(scenario, overrides)
    return replace(scenario, rng_seed=_resolve_seed(args, scenario))


def _resolve_seed(args, scenario) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FIELDOPT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValidationError(f"FIELDOPT_SEED must be an integer, got {env!r}") from exc
    return scenario.rng_seed


def _cmd_simulate(args) -> int:
    result = run(_load(args, scenario_default))
    final_removed = result.trajectory.r_count[-1]
    plants = result.trajectory.n_t[0]
    print(
        f"profit={result.total_profit:.9g} mean_r0={result.mean_r0:.9g} "
        f"plants={plants} removed_final={final_removed}"
    )
    return 0


_EVALUATION_FIELDS = ["dx_m", "dy_m", "profit_estimate", "profit_std", "n_reps"]


def _evaluation_line(n_reps: int):
    """The formatter of one evaluations.csv data line: four floats, each
    as `harness._fmt` spells it ("%.9g"), then n_reps."""
    return ("{:.9g},{:.9g},{:.9g},{:.9g}," + str(n_reps) + "\n").format


def _evaluation_lines(result, block: int = 1 << 16):
    """The data lines of evaluations.csv, made from the result's columns
    one block at a time, so no object per candidate outlives its line."""
    line = _evaluation_line(result.n_reps)
    columns = _EVALUATION_FIELDS[:4]
    for start in range(0, len(result.dx_m), block):
        values = [getattr(result, name)[start : start + block].tolist() for name in columns]
        yield from map(line, *values)


def _cmd_optimize(args) -> int:
    scenario = _load(args, scenario_default)
    result = optimize(
        scenario,
        search=SearchMethod(args.search),
        mode=ScoreMode(args.mode),
        delta=args.delta,
        budget=args.budget,
        n_reps=args.reps,
    )
    if args.out_dir:
        write_csv_lines(
            args.out_dir, "evaluations.csv", _EVALUATION_FIELDS, _evaluation_lines(result)
        )
    best = result.best_strategy
    print(f"best dx_m={best.dx_m:.9g} dy_m={best.dy_m:.9g} profit={result.best_profit:.9g}")
    return 0


# The line each experiment prints, given its output directory and row count.
_WROTE = {
    ExperimentKind.BASELINE: "wrote {out}/baseline.csv ({n} rows)",
    ExperimentKind.PATHOGEN_SWEEP: "wrote {out}/pathogen_sweep.csv ({n} rows) and fits.csv",
    ExperimentKind.ECONOMIC_SWEEP: "wrote {out}/econ_sweep.csv ({n} rows)",
    ExperimentKind.OPTIMAL_COMPARISON: "wrote {out}/comparison.csv ({n} rows)",
}


def _cmd_experiment(args) -> int:
    scenario = _load(args, desk_scenario)
    given = {
        f.name: getattr(args, f.name)
        for f in fields(ExperimentSpec)
        if getattr(args, f.name, None) is not None
    }
    if args.kind is ExperimentKind.OPTIMAL_COMPARISON and args.replicates is not None:
        given["comparison_reps"] = args.replicates  # compare --reps sets both
    # args.scenario is the --scenario path; the spec takes the loaded one.
    given.update(scenario=scenario, master_seed=scenario.rng_seed)
    spec = ExperimentSpec(**given)
    out = run_experiment(spec)
    rows = out[0] if isinstance(out, tuple) else out
    print(_WROTE[spec.kind].format(out=spec.out_dir, n=len(rows)))
    return 0


_COMMANDS = {"simulate": _cmd_simulate, "optimize": _cmd_optimize}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS.get(args.command, _cmd_experiment)(args)
    except (ValidationError, ScenarioParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
