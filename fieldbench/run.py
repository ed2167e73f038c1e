"""fieldopt benchmark: one seeded workload, timed or traced.

    python3 fieldbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/` of
that checkout, never from an installed copy. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, measured without any
instrumentation; with --trace 1 they are the per-layer ones from a run that
wraps each module's public functions (see spans.py). A result file with the
environment, the per-op digests and every figure goes to .fieldbench_out/.
The exit code is 1 when any op failed or produced a wrong digest.

    python3 fieldbench/run.py --record-reference [--workload NAME]

rewrites reference.json: the digest of every op input of the default
workload seed, taken from the code in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".fieldbench_out"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("season_full", "season_outbreak", "compare")
SETUP_PROBES = 12  # fresh processes timed per untraced run, spread over the loop
DEFAULT_SEED = 0  # the workload seed reference.json holds digests for


def _import_workloads():
    """Import the benchmark's workload module against the checkout's src/."""
    if not (SRC / "fieldopt" / "__init__.py").is_file():
        sys.exit(f"fieldbench: no fieldopt package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import fieldopt
    import workloads

    if Path(fieldopt.__file__).resolve().parent != (SRC / "fieldopt").resolve():
        sys.exit(f"fieldbench: imported fieldopt from {fieldopt.__file__}, not {SRC}")
    return workloads


# --- environment ---------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[name] = size + " per instance"
    return caches


def _git_commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fieldopt").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "mp_start_method": multiprocessing.get_start_method(),
        "workload_seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# --- ops -------------------------------------------------------------------------


class Checker:
    """Counts ops and checks each op's digest: equal to the committed
    reference on the default seed, and equal across repeats of one input
    (within a run, across segments, traced or not)."""

    def __init__(self, reference: list | None):
        self.reference = reference
        self.seen: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def check(self, j: int, digest: str) -> None:
        if self.reference is not None and self.reference[j] != digest:
            self.fail(f"input {j}: digest {digest} != reference {self.reference[j]}")
        elif self.seen.setdefault(j, digest) != digest:
            self.fail(f"input {j}: digest {digest} != earlier {self.seen[j]}")


def run_ops(workload, inputs, seconds: float, checker: Checker, tracer=None, between=None):
    """Closed loop with one caller: run ops over `inputs` in order,
    cycling, until `seconds` of wall time have passed. `between(now)`, if
    given, runs after each op, outside its timing. Returns the op
    durations (successful ops) and the (seasons, candidates) per input."""
    from spans import OP

    durations, work = [], {}
    deadline = time.perf_counter() + seconds
    j = 0
    while True:
        index = j % len(inputs)
        j += 1
        checker.attempted += 1
        span = tracer.open(OP) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            out = workload.op(inputs[index])
        except Exception as exc:  # an op that raises is a failed op
            checker.fail(f"input {index}: {type(exc).__name__}: {exc}")
            out = None
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(span)
            tracer.end_op()
        if out is not None:
            durations.append(t1 - t0)
            checker.check(index, workload.digest(inputs[index], out))
            if index not in work:
                work[index] = workload.work(inputs[index], out)
        if between is not None:
            between(time.perf_counter())
        if time.perf_counter() >= deadline:
            return durations, work


def warm_up(workload, seed: int, work_dir: Path, reference: list | None, checker: Checker):
    """One untimed op on a default-seed input, checked against the
    committed reference whatever the workload seed is."""
    index = seed % workload.pool
    ref_input = workload.make(DEFAULT_SEED, index, work_dir)
    ref_checker = Checker([reference[index]] if reference else None)
    run_ops(workload, [ref_input], 0.0, ref_checker)
    checker.attempted += ref_checker.attempted
    for message in ref_checker.errors:
        checker.fail("warm-up reference " + message)


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten ops
    beyond it, but never below the median: with fewer than 21 ops the
    tail is the upper median."""
    ordered = sorted(durations)
    n = len(ordered)
    index = max(n - 11, n // 2)
    return ordered[index], 100.0 * (index + 1) / n


# --- measurement ---------------------------------------------------------------------


def probe_setup(workload_name: str, seed: int) -> None:
    """Time `import fieldopt` plus building the workload's inputs, in a
    fresh process; prints the seconds."""
    t0 = time.perf_counter()
    workloads = _import_workloads()
    workloads.build_inputs(workloads.WORKLOADS[workload_name], seed, OUT / "probe")
    print(time.perf_counter() - t0)


class SetupProbes:
    """Times `count` setup probes, each in a fresh process, at even
    intervals over the run's `--seconds`: called between ops, it starts the
    probes that are due. The median then covers the same stretch of
    machine time as the op figures. `finish` runs any probes still due."""

    def __init__(self, args, count: int):
        self.command = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
                        "--workload", args.workload, "--seed", str(args.seed)]
        start = time.perf_counter()
        self.due = [start + (k + 0.5) * args.seconds / count for k in range(count)]
        self.samples: list[float] = []

    def _probe(self) -> None:
        done = subprocess.run(self.command, capture_output=True, text=True, timeout=60, check=True)
        self.samples.append(float(done.stdout.split()[-1]))

    def __call__(self, now: float) -> None:
        while self.due and self.due[0] <= now:
            self.due.pop(0)
            self._probe()

    def finish(self) -> list[float]:
        while self.due:
            self.due.pop(0)
            self._probe()
        return self.samples


def measure(workload, inputs, args, checker: Checker) -> tuple[dict, dict]:
    """The untraced run: end-to-end figures of one closed loop, with the
    setup probes between its ops."""
    probes = SetupProbes(args, SETUP_PROBES)
    durations, work = run_ops(workload, inputs, args.seconds, checker, between=probes)
    setup = probes.finish()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    figures = {"durations_s": durations, "setup_samples_s": setup}
    metrics = {}
    if durations:
        ops, total = len(durations), sum(durations)
        value, pct = tail(durations)
        seasons = statistics.mean(w[0] for w in work.values())
        candidates = statistics.mean(w[1] for w in work.values())
        metrics.update(
            ops_per_s=(ops / total, "1/s"),
            op_p50_ms=(statistics.median(durations) * 1e3, "ms"),
            op_tail_ms=(value * 1e3, "ms"),
        )
        figures.update(
            ops=ops,
            op_tail_percentile=pct,
            op_tail_samples=ops,
            seasons_per_op=seasons,
            candidates_per_op=candidates,
            seasons_per_s=seasons * ops / total,
            candidates_per_s=candidates * ops / total,
        )
    attempted, failed = checker.attempted, checker.failed
    metrics.update(
        setup_s=(statistics.median(setup), "s"),
        peak_rss_mb=(rss, "MB"),
        ok_frac=((attempted - failed) / attempted, "fraction"),
    )
    return metrics, figures


def trace_layers(workload, inputs, args, checker: Checker) -> tuple[dict, dict]:
    """The traced run. A first segment wraps only `optimize`, so that the
    share of op time spent in analytic scoring is measured almost free of
    tracing cost. A second segment over the same inputs wraps every layer;
    its digests must equal the first segment's."""
    import spans

    solo = spans.Tracer()
    with spans.Instrumentation(solo, ["optimizer.optimize"], count_draws=False):
        base, _ = run_ops(workload, inputs, args.seconds / 2, checker, solo)
    tracer = spans.Tracer()
    with spans.Instrumentation(tracer):
        durations, _ = run_ops(workload, inputs, args.seconds / 2, checker, tracer)

    none = (0, 0.0, 0.0)
    solo_layers = solo.reduce()
    layers = tracer.reduce()
    ops = max(len(durations), 1)
    op_time = layers.get(spans.OP, none)[1] or 1.0
    metrics = {}
    for layer in spans.LAYERS:
        calls, inclusive, own = layers.get(layer, none)
        metrics[f"{layer}.calls"] = (calls / ops, "1/op")
        metrics[f"{layer}.ms"] = (1e3 * inclusive / ops, "ms/op")
        metrics[f"{layer}.self_ms"] = (1e3 * own / ops, "ms/op")
    c = tracer.counters

    def frac(num, den):
        return c[num] / c[den] if c[den] else 0.0

    # Both segments start at input 0, so their first k ops ran the same inputs.
    k = min(len(durations), len(base))
    speed = sum(base[:k]) / sum(durations[:k]) if k else 0.0
    solo_share = solo_layers.get("optimizer.optimize", none)[1] / (solo_layers.get(spans.OP, none)[1] or 1.0)
    metrics.update({
        "field.plants_laid_out": (c["field.plants_laid_out"] / ops, "1/op"),
        "field.layout_distinct_frac": (frac("field.layout.distinct", "field.layout.seen"), "fraction"),
        "epidemic.run.distinct_frac": (frac("epidemic.run.distinct", "epidemic.run.seen"), "fraction"),
        "epidemic.rng_draws": (c["epidemic.rng_draws"] / ops, "1/op"),
        "epidemic.pair_evals": (c["epidemic.pair_evals"] / ops, "1/op"),
        "epidemic.pressure_useful_frac": (frac("epidemic.pair_useful", "epidemic.pair_evals"), "fraction"),
        "harness.csv_bytes": (c["harness.csv_bytes"] / ops, "B/op"),
        "optimizer.optimize.solo_frac": (solo_share, "fraction"),
        "trace.unattributed_ms": (1e3 * layers.get(spans.OP, none)[2] / ops, "ms/op"),
        "trace.hooks_ms": (1e3 * layers.get(spans.HOOKS, none)[1] / ops, "ms/op"),
        "trace.ops_per_s_ratio": (speed, "fraction"),
    })
    details = {
        "traced_ops": len(durations),
        "solo_ops": len(base),
        "spans": len(tracer.start),
        "self_pct": {k: 100.0 * v[2] / op_time for k, v in layers.items()},
        "layers": {k: dict(zip(("calls", "s", "self_s"), v)) for k, v in layers.items()},
        "counters": dict(c),
    }
    return metrics, details


def record_reference(names) -> None:
    workloads = _import_workloads()
    work_dir = OUT / f"work-{os.getpid()}"
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    try:
        for name in names:
            workload = workloads.WORKLOADS[name]
            inputs = workloads.build_inputs(workload, DEFAULT_SEED, work_dir)
            data[name] = [workload.digest(x, workload.op(x)) for x in inputs]
            print(name, "recorded", len(inputs), flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "fieldopt" / "__init__.py").is_file():
        print(f"fieldbench: no fieldopt package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference([args.workload] if args.workload else WORKLOAD_NAMES)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0

    workloads = _import_workloads()
    workload = workloads.WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text()).get(args.workload) if REFERENCE.exists() else None
    checker = Checker(reference if args.seed == DEFAULT_SEED else None)
    work_dir = OUT / f"work-{os.getpid()}"
    try:
        inputs = workloads.build_inputs(workload, args.seed, work_dir)
        warm_up(workload, args.seed, work_dir, reference, checker)
        run = trace_layers if args.trace else measure
        metrics, details = run(workload, inputs, args, checker)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed),
        "attempted": checker.attempted, "failed": checker.failed, "errors": checker.errors,
        "digests": {str(j): d for j, d in sorted(checker.seen.items())},
        "details": details,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")

    print("environment", json.dumps(result["environment"], sort_keys=True))
    print("digests", json.dumps(result["digests"]))
    shown = {k: v for k, v in result["details"].items()
             if k not in ("durations_s", "layers", "counters", "self_pct")}
    print("details", json.dumps(shown))
    for message in result["errors"]:
        print("FAILED", message)
    print("result file", out_file.relative_to(ROOT))
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
