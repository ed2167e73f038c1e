"""Span tracing for the traced benchmark run.

The benchmark wraps the public functions of each fieldopt module where
their caller looks them up (for example `fieldopt.epidemic.layout_grid`,
the name `run` resolves to inside the engine), records one span per call
and restores the originals afterwards. Spans stay in memory as parallel
arrays and are reduced to per-function calls, inclusive time and self time
when the run ends. Self time is a span's duration minus the part of its
interval covered by its child spans.

Nothing here changes what the program computes: wrappers forward their
arguments and results untouched, and the RNG proxy forwards every call to
the real generator, so the stream and every output stay identical.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter, defaultdict

import numpy

# Metric name -> the lookups that reach that function. A function bound
# under several names (e.g. `dataclasses.replace` in optimizer and harness)
# is wrapped at each of them and reported under one name.
LAYERS: dict[str, tuple[str, ...]] = {
    "scenario.construct": ("fieldopt.optimizer:replace", "fieldopt.harness:replace"),
    "field.layout_grid": ("fieldopt.epidemic:layout_grid",),
    "field.neighbor_arrays": ("fieldopt.field:PlantGrid.neighbor_arrays",),
    "epidemic.run": (
        "fieldopt.epidemic:run",
        "fieldopt.optimizer:run",
        "fieldopt.harness:run",
    ),
    "epidemic.step": ("fieldopt.epidemic:step",),
    "epidemic.place_initial_infected": ("fieldopt.epidemic:place_initial_infected",),
    "economics.economic_series": (
        "fieldopt.epidemic:economic_series",
        "fieldopt.worstcase:economic_series",
    ),
    "worstcase.analytic_profit": ("fieldopt.optimizer:analytic_profit",),
    "worstcase.kcenter_greedy": ("fieldopt.epidemic:kcenter_greedy",),
    "optimizer.optimize": ("fieldopt.harness:optimize",),
    "optimizer.evaluate_candidate": ("fieldopt.optimizer:evaluate_candidate",),
    "optimizer.enumerate_candidates": ("fieldopt.optimizer:enumerate_candidates",),
    "optimizer.select_best": ("fieldopt.optimizer:select_best",),
    "optimizer.compare_strategies": ("fieldopt.harness:compare_strategies",),
    "analytics.r0_series": ("fieldopt.epidemic:r0_series",),
    "analytics.paired_t_test": (
        "fieldopt.optimizer:paired_t_test",
        "fieldopt.harness:paired_t_test",
    ),
    "seeds.derive_seed": ("fieldopt.harness:derive_seed", "fieldopt.optimizer:derive_seed"),
    "harness.map_jobs": ("fieldopt.harness:_map_jobs",),
    "harness.csv_write": ("fieldopt.harness:_write_csv",),
    "harness.experiment": ("fieldopt.harness:run_optimal_comparison",),
}

# The engine draws from `np.random.default_rng(...)` looked up in its own
# module; replacing that module's `np` with a proxy counts the draws.
RNG_TARGET = "fieldopt.epidemic:np"

OP = "op"  # root span the benchmark opens around each op
HOOKS = "trace.hooks"  # span around the counter hooks of a wrapper


class Tracer:
    """In-memory span store plus the counters the wrappers maintain."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self._distinct: dict[str, set] = defaultdict(set)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount=1) -> None:
        self.counters[key] += amount

    def see(self, key: str, item) -> None:
        """Record one call's input for a distinct-inputs-per-op ratio."""
        self.counters[key + ".seen"] += 1
        self._distinct[key].add(item)

    def end_op(self) -> None:
        """Close the per-op distinct sets: distinct counts are per op."""
        for key, items in self._distinct.items():
            self.counters[key + ".distinct"] += len(items)
        self._distinct.clear()

    def reduce(self) -> dict[str, tuple[int, float, float]]:
        return self_times(self.names, self.name_id, self.start, self.end, self.parent)


def self_times(names, name_id, start, end, parent) -> dict[str, tuple[int, float, float]]:
    """Reduce spans, given as parallel sequences (name index, start, end,
    parent index or -1), to name -> (calls, inclusive s, self s).

    A span's self time is its duration minus the time its child spans
    cover. Spans come from one thread, so the children of a span never
    overlap each other and the time they cover is the sum of their
    durations.
    """
    name_id = numpy.asarray(name_id, dtype=numpy.int64)
    parent = numpy.asarray(parent, dtype=numpy.int64)
    duration = numpy.asarray(end, dtype=numpy.float64) - numpy.asarray(start, dtype=numpy.float64)
    child = parent >= 0
    covered = numpy.bincount(parent[child], weights=duration[child], minlength=len(duration))
    own = duration - covered
    k = len(names)
    calls = numpy.bincount(name_id, minlength=k)
    inclusive = numpy.bincount(name_id, weights=duration, minlength=k)
    own_total = numpy.bincount(name_id, weights=own, minlength=k)
    return {
        name: (int(calls[i]), float(inclusive[i]), float(own_total[i]))
        for i, name in enumerate(names)
    }


class _CountingGenerator:
    """Forwards every call to a numpy Generator and counts the variates
    each call returns (one per element of an array result)."""

    def __init__(self, generator, tracer: Tracer):
        self._generator = generator
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            out = attr(*args, **kwargs)
            self._tracer.count("epidemic.rng_draws", int(numpy.size(out)))
            return out

        return call


class _RandomProxy:
    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def default_rng(self, *args, **kwargs):
        return _CountingGenerator(numpy.random.default_rng(*args, **kwargs), self._tracer)

    def __getattr__(self, name):
        return getattr(numpy.random, name)


class _NumpyProxy:
    """Stands in for `numpy` inside one module; only `random.default_rng`
    differs."""

    def __init__(self, tracer: Tracer):
        self.random = _RandomProxy(tracer)

    def __getattr__(self, name):
        return getattr(numpy, name)


def _resolve(target: str):
    """'pkg.mod:Owner.attr' -> (owner object, attribute name)."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


def _binder(fn):
    """A function that maps one call's (args, kwargs) to its bound
    arguments, defaults applied. The signature is read once."""
    signature = inspect.signature(fn)

    def arguments(args, kwargs) -> dict:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


def _hooks(layer: str, original, tracer: Tracer):
    """(before, after) callbacks that feed the layer's counters."""
    if layer == "field.layout_grid":
        arguments = _binder(original)

        def after(args, kwargs, grid):
            a = arguments(args, kwargs)
            tracer.count("field.plants_laid_out", grid.count)
            tracer.see("field.layout", (a["field"], a["strategy"], a["explicit_count"]))

        return None, after
    if layer == "epidemic.run":
        arguments = _binder(original)

        def before(args, kwargs):
            a = arguments(args, kwargs)
            s = a.pop("scenario")
            key = (s.field, s.pathogen, s.strategy, s.horizon_steps,
                   s.placement_mode, s.rng_seed, s.explicit_count)
            tracer.see("epidemic.run", key + tuple(sorted(a.items())))

        return before, None
    if layer == "epidemic.step":
        arguments = _binder(original)

        def before(args, kwargs):
            a = arguments(args, kwargs)
            counts = numpy.bincount(a["states"].status, minlength=3)
            n, s, i = int(a["grid"].count), int(counts[0]), int(counts[1])
            tracer.count("epidemic.pair_evals", i * n)
            tracer.count("epidemic.pair_useful", i * s)

        return before, None
    if layer == "harness.csv_write":

        def after(args, kwargs, path):
            tracer.count("harness.csv_bytes", path.stat().st_size)

        return None, after
    return None, None


def _wrap(layer: str, original, tracer: Tracer):
    before, after = _hooks(layer, original, tracer)

    # The hooks run in a span of their own, HOOKS, so that their cost is
    # not counted in the self time of the layer's caller.
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if before is not None:
            hook = tracer.open(HOOKS)
            before(args, kwargs)
            tracer.close(hook)
        index = tracer.open(layer)
        try:
            out = original(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            hook = tracer.open(HOOKS)
            after(args, kwargs, out)
            tracer.close(hook)
        return out

    return wrapper


class Instrumentation:
    """Installs the wrappers of `layers` (all of LAYERS by default) and,
    with `count_draws`, the RNG proxy; removes them all again on exit. A
    lookup that no longer exists raises: LAYERS must follow the code."""

    def __init__(self, tracer: Tracer, layers=None, count_draws: bool = True):
        self.tracer = tracer
        self.layers = LAYERS if layers is None else {k: LAYERS[k] for k in layers}
        self.count_draws = count_draws
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            for layer, targets in self.layers.items():
                for target in targets:
                    self._patch(target, lambda original, layer=layer: _wrap(layer, original, self.tracer))
            if self.count_draws:
                self._patch(RNG_TARGET, lambda original: _NumpyProxy(self.tracer))
        except BaseException:
            self.restore()
            raise
        return self

    def _patch(self, target: str, make) -> None:
        owner, attr = _resolve(target)
        # Take the raw attribute from a class so methods rebind normally.
        original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            raise AttributeError(f"{target} no longer exists; update spans.LAYERS")
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc):
        saved = list(self._saved)
        self.restore()
        for owner, attr, original in saved:
            current = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                raise RuntimeError(f"wrapper left behind on {owner!r}.{attr}")
        return False
