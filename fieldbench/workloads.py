"""The three benchmark workloads.

Each workload turns a workload seed into a pool of op inputs, runs one op
on one input through the public fieldopt API, and reduces the op's output
to a digest. Op input j of a pool is derived from
`derive_seed(workload_seed, "<workload>", j)`; the program only sees the
scenarios and specs built here. WORKLOADS.md says why each one exists.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from fieldopt import epidemic, harness
from fieldopt.harness import ExperimentKind, ExperimentSpec, desk_scenario
from fieldopt.optimizer import enumerate_candidates
from fieldopt.scenario import PlacementMode, scenario_default
from fieldopt.seeds import derive_seed

COMPARE_INSTANCES = 2  # instances per `compare` op


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int  # distinct op inputs per seed; ops cycle through them
    make: Callable  # (seed, j, work_dir) -> op input j
    op: Callable  # op input -> output
    digest: Callable  # (op input, output) -> hex digest
    work: Callable  # (op input, output) -> (seasons, analytic candidates)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# --- seasons -----------------------------------------------------------------


def _season(scenario):
    # Looked up at call time so the traced run sees its wrapper.
    return epidemic.run(scenario)


def _season_digest(scenario, result) -> str:
    t = result.trajectory
    return _sha(repr((t.s_count, t.i_count, t.r_count, t.n_t, repr(result.total_profit))).encode())


def _season_work(scenario, result):
    return 1, 0


def _make_full(seed: int, j: int, work_dir: Path):
    return replace(scenario_default(), rng_seed=derive_seed(seed, "season_full", j))


def _make_outbreak(seed: int, j: int, work_dir: Path):
    base = desk_scenario()
    return replace(
        base,
        pathogen=replace(base.pathogen, beta0=0.3),
        horizon_steps=10,
        rng_seed=derive_seed(seed, "season_outbreak", j),
        placement_mode=(PlacementMode.RANDOM, PlacementMode.WORST_CASE)[j % 2],
    )


# --- the comparison experiment ----------------------------------------------


def _compare(spec: ExperimentSpec) -> bytes:
    # Looked up at call time so the traced run sees its wrapper.
    harness.run_optimal_comparison(spec)
    return (Path(spec.out_dir) / "comparison.csv").read_bytes()


def _csv_digest(spec, data: bytes) -> str:
    return _sha(data)


def _make_compare(seed: int, j: int, work_dir: Path):
    # An op's cost depends on its instance parameters: the field area sets
    # the candidate and plant counts, and beta0 and gamma move the optimal
    # spacing the second pair of arms simulates. So the parameters are
    # stratified rather than drawn, and the seed only jitters them inside
    # their strata; throughput then depends little on the seed or on how
    # many ops fit in a run.
    # - Width and height: each axis of [5, 12] m is cut into 8 strata. Ops
    #   come in quads: a size (W, H) from strata (a, b) of the lower half
    #   and its reflections W' = lo + hi - W and H' = lo + hi - H, so every
    #   quad has the same total area (W + W')(H + H'). The 16 quads of the
    #   pool cover a, b in a 4 x 4 Latin square.
    # - beta0 and gamma: 4 strata of their default ranges each, assigned so
    #   that each quad covers every stratum of both once.
    # Both instances of an op share these parameters; only their replicate
    # seeds differ.
    base = ExperimentSpec()
    quad, corner = divmod(j, 4)
    a, b = quad % 4, (quad % 4 + quad // 4) % 4
    u, v = np.random.default_rng(derive_seed(seed, "compare", quad, "size")).random(2)
    w, z = np.random.default_rng(derive_seed(seed, "compare", j, "pathogen")).random(2)

    def stratum(bounds, index, count, jitter):
        lo, hi = bounds
        value = lo + (index + float(jitter)) * (hi - lo) / count
        return (value, value)

    width, height = stratum(base.width_range, a, 8, u), stratum(base.height_range, b, 8, v)
    if corner & 1:
        width = (sum(base.width_range) - width[0],) * 2
    if corner & 2:
        height = (sum(base.height_range) - height[0],) * 2
    return replace(
        base,
        kind=ExperimentKind.OPTIMAL_COMPARISON,
        instances=COMPARE_INSTANCES,
        master_seed=derive_seed(seed, "compare", j),
        width_range=width,
        height_range=height,
        beta0_range=stratum(base.beta0_range, (corner + quad) % 4, 4, w),
        gamma_range=stratum(base.gamma_range, (corner + 2 * quad + 1) % 4, 4, z),
        out_dir=work_dir,
    )


def _compare_work(spec, data: bytes):
    arms = [r for r in csv.DictReader(data.decode().splitlines()) if r["instance"] != "summary"]
    field = replace(spec.scenario.field, width_m=spec.width_range[0], height_m=spec.height_range[0])
    candidates = len(enumerate_candidates(field, spec.optimizer_delta))
    return len(arms) * spec.comparison_reps, spec.instances * candidates


WORKLOADS = {
    w.name: w
    for w in (
        Workload("season_full", 16, _make_full, _season, _season_digest, _season_work),
        Workload("season_outbreak", 16, _make_outbreak, _season, _season_digest, _season_work),
        Workload("compare", 64, _make_compare, _compare, _csv_digest, _compare_work),
    )
}


def build_inputs(workload: Workload, seed: int, work_dir: Path) -> list:
    return [workload.make(seed, j, work_dir) for j in range(workload.pool)]
