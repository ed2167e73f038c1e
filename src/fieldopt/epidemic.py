"""Stochastic agent-based epidemic engine on the plant lattice.

Plants move S -> I -> R in synchronous rounds. In each round, every plant
infected at the start of the round is removed with probability gamma, and
every susceptible plant j is infected with probability
1 - prod_i (1 - min(1, beta0 / d_ij)) over the start-of-round infected i
within the cutoff radius. Pairs with infection probability below epsilon_p
are skipped (cutoff radius beta0 / epsilon_p); the cutoff is an exact
distance mask, applied only when it is shorter than the field diagonal.
The pressure sum runs over susceptible targets only, so one round costs
O(I * S) pair evaluations for I infected and S susceptible plants.

Every pair distance is np.hypot of an x gap and a y gap between lattice
axis values, and a lattice has only about 3.5 * nx distinct x gaps and
3.5 * ny distinct y gaps. So a lattice whose kernel table fits in
TABLE_CAP entries gets the factor 1 - p computed once per pair of distinct
gaps, by the float operations the per-pair path uses, and its rounds look
the factors up: the same bits, without a hypot per pair. A round whose
targets are at least half the lattice's nx * ny points gathers, for each
infected plant, the factors of the whole lattice into a lattice survival,
from table rows gathered once per source row, and then the targets from
it; other rounds gather each (infected, target) pair's factor.

Any other lattice within _WINDOW_ASPECT : 1 of square gets an offset
table instead: the factor at each (row offset, column offset), and the
short list of (offset, gap) pairs where float rounding gives a pair
another factor. A round with enough susceptible plants multiplies, for
each infected plant, the table window centred on it into a survival over
the whole lattice and then puts back the exact factor at its exception
targets: the same bits again. It does so one band of lattice rows at a
time, so the band stays in cache while every infected plant's window
passes over it: about 0.8 to 1.4 ns per lattice plant and infected plant,
the less the more plants are infected. The window path runs on one CPU;
see _BAND for why.

What a lattice keeps for its rounds (its kernel table or its offset
table, and two lattice-length work arrays that both lattice reads and
every round's draws use) is decided once per lattice and pathogen, when
its state is made, and kept for the last of them (see `_Kernel`), so the
seasons of a batch share it and a round writes into pages it already
has. Every other round computes every pair with np.hypot, on one CPU. On
every path each target's product is formed over the start-of-round
infected in ascending index order, with the same float operations, and
every RNG draw is made in the calling thread, so the output does not
depend on the path.

The RNG consumption order is part of the engine contract so trajectories
are reproducible: first one removal draw per start-of-round infected plant
in ascending index order, then one infection draw per susceptible plant
with positive combined probability in ascending index order. Zero infected
plants therefore consume zero infection draws.

`run_batch` simulates the seasons of one scenario over a sequence of
seeds. What draws no random numbers is done once per batch: the lattice
layout and, under worst-case placement, the k-center initial infections.
Each season keeps its own default_rng(seed), so a batched season equals
the single season `run` gives for that seed, draw for draw; `run` is a
batch of one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytics import R0Series, r0_series
from .economics import EconomicSeries, economic_series
from .field import PlantGrid, lattice_capacity, layout_grid
from .scenario import PathogenParams, PlacementMode, Scenario, ValidationError
from .worstcase import kcenter_greedy

class Status(enum.IntEnum):
    SUSCEPTIBLE = 0
    INFECTED = 1
    REMOVED = 2


# The Status codes as plain ints, for the code that runs every round: an
# enum member is read through EnumType.__getattr__ on each use.
_SUSCEPTIBLE, _INFECTED, _REMOVED = (int(s) for s in Status)


class PlantStates:
    """Mutable state arrays for the whole population."""

    __slots__ = ("status", "infected_at")

    def __init__(self, count: int):
        self.status = np.zeros(count, dtype=np.int8)
        self.infected_at = np.full(count, -1, dtype=np.int32)

    @property
    def count(self) -> int:
        return len(self.status)

    def infect(self, indices, round_index: int) -> None:
        self.status[indices] = _INFECTED
        self.infected_at[indices] = round_index

    def remove(self, indices) -> None:
        self.status[indices] = _REMOVED

    def counts(self) -> tuple[int, int, int]:
        c = np.bincount(self.status, minlength=3)
        return int(c[_SUSCEPTIBLE]), int(c[_INFECTED]), int(c[_REMOVED])

    def copy(self) -> "PlantStates":
        dup = PlantStates.__new__(PlantStates)
        dup.status = self.status.copy()
        dup.infected_at = self.infected_at.copy()
        return dup


class _SeasonStates(PlantStates):
    """The states of one `_season`, which also keep its S/I/R counts. The
    engine infects only susceptible plants and removes only infected ones,
    each index once per call, so a call moves exactly len(indices) plants
    from one count to the next: `counts` costs nothing per round, where
    `PlantStates.counts` counts every plant."""

    __slots__ = ("_counts",)

    def __init__(self, count: int):
        super().__init__(count)
        self._counts = (count, 0, 0)

    def infect(self, indices, round_index: int) -> None:
        super().infect(indices, round_index)
        s, i, r = self._counts
        self._counts = (s - len(indices), i + len(indices), r)

    def remove(self, indices) -> None:
        super().remove(indices)
        s, i, r = self._counts
        self._counts = (s, i - len(indices), r + len(indices))

    def counts(self) -> tuple[int, int, int]:
        return self._counts


@dataclass(frozen=True)
class EpidemicTrajectory:
    """S/I/R counts and surviving counts N_t for rounds t in [1, T]."""

    s_count: tuple[int, ...]
    i_count: tuple[int, ...]
    r_count: tuple[int, ...]

    def __post_init__(self):
        total = self.s_count[0] + self.i_count[0] + self.r_count[0]
        series = (self.s_count, self.i_count, self.r_count)
        if len({len(s) for s in series}) != 1:
            raise ValidationError("invariant violated: equal series lengths")
        for t in range(len(self.s_count)):
            if self.s_count[t] + self.i_count[t] + self.r_count[t] != total:
                raise ValidationError("invariant violated: S+I+R constant")
            if t and self.r_count[t] < self.r_count[t - 1]:
                raise ValidationError("invariant violated: R non-decreasing")

    @property
    def n_t(self) -> tuple[int, ...]:
        """N - R(t): the plants not yet removed in each round."""
        total = self.s_count[0] + self.i_count[0] + self.r_count[0]
        return tuple(total - r for r in self.r_count)


@dataclass(frozen=True)
class SimulationResult:
    """One season: trajectory, priced economics, R0 series, and the
    initially infected plant indices (empty if the run died early)."""

    trajectory: EpidemicTrajectory
    economics: EconomicSeries
    r0: R0Series
    initial_infected: tuple[int, ...]
    died_early: bool

    @property
    def total_profit(self) -> float:
        return self.economics.total_profit

    @property
    def mean_r0(self) -> float:
        return self.r0.mean_r0


def place_initial_infected(
    grid: PlantGrid, k: int, mode: PlacementMode, rng: np.random.Generator | None
) -> np.ndarray:
    """Indices of the k initially infected plants, ascending.

    Random mode draws k distinct indices uniformly from the RNG stream;
    WorstCase mode is the deterministic greedy k-center placement and
    consumes no draws (its rng may be None).
    """
    if not 1 <= k <= grid.count:
        raise ValidationError(
            f"invariant violated: 1 <= k <= plant count ({grid.count})"
        )
    if mode is PlacementMode.WORST_CASE:
        return np.sort(np.asarray(kcenter_greedy(grid.positions, k), dtype=np.int64))
    return np.sort(rng.choice(grid.count, size=k, replace=False).astype(np.int64))


def _survival(
    grid: PlantGrid,
    targets: np.ndarray,
    infected: np.ndarray,
    beta0: float,
    cutoff: float,
) -> np.ndarray:
    """prod_i (1 - min(1, beta0 / d_ij)) for each target j over the
    infected i within the cutoff; exactly 1.0 where no pair reaches j.

    Reads the lattice's kernel state (see `_Kernel`): its kernel table
    when it has one; else its offset table, one window per infected plant,
    in a round with at least _WINDOW_TARGETS of the plants as targets; else
    np.hypot per pair (`_hypot_survival`). All paths give the same bits.
    A read of the whole lattice returns a view of the state's second work
    array, valid until the lattice's next round; the others return a
    fresh array.
    """
    kernel = _kernel(grid, beta0, cutoff)
    if kernel.table is not None:
        return _table_survival(kernel, targets, infected)
    if kernel.window is not None and targets.size >= _WINDOW_TARGETS * grid.count:
        return _window_survival(kernel, targets, infected)
    return _hypot_survival(grid, targets, infected, beta0, cutoff)


class _Kernel:
    """What one lattice and pathogen keep for their rounds (see `_kernel`),
    all decided when the state is made: `table`, the kernel table, or None
    when its index maps or its factors would exceed TABLE_CAP entries;
    `window`, for any other lattice within _WINDOW_ASPECT : 1 of square,
    the offset table, or None (also when its exception list is too long);
    and `work`, on a lattice with either table, the two work arrays: the
    (nx, ny) lattice survival, which then takes the round's draws, and the
    nx * ny survival gathered at the targets, which the kernel table's
    row read first fills with each plant's factors; 16 B per plant.
    Kept from round to round, they cost no fresh pages; and np.empty
    touches no pages, so a lattice keeps resident only what its rounds
    write. `work` is None on a lattice with neither table."""

    __slots__ = ("table", "window", "work")

    def __init__(self, xs: np.ndarray, ys: np.ndarray, beta0: float, cutoff: float):
        nx, ny = xs.size, ys.size
        self.table = self.window = self.work = None
        if nx * nx + ny * ny <= TABLE_CAP:
            self.table = _build_table(xs, ys, beta0, cutoff)
        if self.table is None and nx * nx + ny * ny <= _WINDOW_ASPECT * nx * ny:
            self.window = _build_window(xs, ys, beta0, cutoff)
        if self.table is not None or self.window is not None:
            self.work = (np.empty((nx, ny)), np.empty(nx * ny))


# The kernel state of the last lattice and pathogen, keyed by every value
# it depends on: (x axis bytes, y axis bytes, beta0, cutoff). Any other key
# frees it before building its own. Its work arrays are one season's
# scratch, so seasons must not run concurrently on threads of one process
# (the harness runs its jobs in processes).
_kernel_cache: tuple = (None, None)


def _kernel(grid: PlantGrid, beta0: float, cutoff: float) -> _Kernel:
    """The kernel state of the grid's lattice and pathogen."""
    global _kernel_cache
    key = (grid.xs.tobytes(), grid.ys.tobytes(), beta0, cutoff)
    if _kernel_cache[0] != key:
        _kernel_cache = (None, None)  # free the old state first
        _kernel_cache = (key, _Kernel(grid.xs, grid.ys, beta0, cutoff))
    return _kernel_cache[1]


# Most entries the kernel table may hold, and most entries its two index
# maps may hold together (nx**2 + ny**2): 2 MiB of factors plus at most
# 2 MiB of intp indices; the row read's per-call buffer, (nx, gy.size),
# holds at most as many factors as the table, since nx <= gx.size. A
# lattice has about 12 * nx * ny distinct pair-gap combinations, so square
# lattices up to about 160 x 160 plants get a table, every lattice of
# `compare` among them (up to 121 x 121 plants: 413 x 413 factors,
# 1.4 MB); the 501 x 501 full-scale lattice is ruled out by its shape
# alone, before any work.
TABLE_CAP = 1 << 18

# (source, target) pairs per block of gathered table indices and factors
# in `_table_survival`: 384 KiB at 24 B each (two intp indices and one
# float64 factor). `_build_window` checks its gap pairs in blocks of as
# many.
_BLOCK = 1 << 14


def _axis_gaps(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of |axis[b] - axis[a]|, ascending, and the
    (len, len) intp map from (a, b) to the index of that value (intp, so
    `take` reads its rows with no conversion)."""
    gaps = np.abs(axis[None, :] - axis[:, None])
    values, index = np.unique(gaps, return_inverse=True)
    return values, index.reshape(gaps.shape).astype(np.intp)


def _pair_factors(gx, gy, beta0: float, cutoff: float) -> np.ndarray:
    """1 - min(1, beta0 / hypot(gx, gy)) over broadcast gaps, with the pair
    probability set to 0 beyond the cutoff: the float operations of
    `_hypot_survival`, in its order, on the same operands up to sign
    (np.hypot ignores the signs of its arguments), so each entry has the
    bits that path computes for every pair with those gaps."""
    d = np.hypot(gx, gy)
    far = d > cutoff
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero gap pair: beta0 / 0
        np.divide(beta0, d, out=d)
    np.minimum(1.0, d, out=d)
    np.copyto(d, 0.0, where=far)
    np.subtract(1.0, d, out=d)
    return d


def _build_table(xs: np.ndarray, ys: np.ndarray, beta0: float, cutoff: float):
    """K[u, v], the factor of `_pair_factors` over the distinct x gaps
    gx[u] and y gaps gy[v], with the x and y maps of `_axis_gaps`; K[0, 0]
    stands for no pair and is never read."""
    gx, ix = _axis_gaps(xs)
    gy, iy = _axis_gaps(ys)
    if gx.size * gy.size > TABLE_CAP:
        return None
    table = _pair_factors(gx[:, None], gy[None, :], beta0, cutoff)
    return table, ix, iy


def _table_survival(kernel: _Kernel, targets: np.ndarray, infected: np.ndarray) -> np.ndarray:
    """`_survival` by lookup: for each infected plant in ascending order,
    gather every target's factor from the table and multiply it into the
    survival. A round whose targets are at least half the lattice's points
    reads the whole lattice by source row (`_lattice_table_survival`).
    Other rounds read blocks of at most _BLOCK (source, target) pairs,
    which bound the gathered arrays: at most _BLOCK targets at a time, and
    as many sources as fit; each source row is still multiplied in on its
    own, in order."""
    table, ix, iy = kernel.table
    ny = iy.shape[0]
    n = targets.size
    if 2 * n >= ix.shape[0] * ny:
        return _lattice_table_survival(kernel, targets, infected)
    factors = table.reshape(-1)
    target_x, target_y = np.divmod(targets, ny)
    source_x, source_y = np.divmod(infected, ny)
    survival = np.ones(n)
    width = max(1, min(n, _BLOCK))
    rows = _BLOCK // width
    # Each block allocates its own arrays: against a block's work that
    # costs little, and a call with one small block (a round of a few
    # plants) skips the set-up of reusable buffers.
    for c in range(0, n, width):
        tx, ty = target_x[c : c + width], target_y[c : c + width]
        product = survival[c : c + width]
        for a in range(0, infected.size, rows):
            # Each pair's flat table index. The x gap indices become row
            # offsets while they are still one map row per source, before
            # they spread over the targets.
            index = ix.take(source_x[a : a + rows], axis=0)
            index *= table.shape[1]
            index = index.take(tx, axis=1)
            index += iy.take(source_y[a : a + rows], axis=0).take(ty, axis=1)
            for row in factors.take(index):
                np.multiply(product, row, out=product)
    return survival


def _lattice_table_survival(kernel: _Kernel, targets: np.ndarray, infected: np.ndarray) -> np.ndarray:
    """`_table_survival` read by source row. The infected plants come in
    ascending order, so row by row: for each row r that holds one, the
    table rows of its x gaps, K[ix[r]], are gathered once into a row
    buffer of (nx, gy.size) factors; then for each plant (r, c) of the row,
    the buffer's columns iy[c] are gathered into the second work array,
    which is then the factor of every lattice point, and multiplied into
    the lattice survival in the first. The targets are gathered from it
    into the second at the end. The buffer is allocated per call and holds
    at most TABLE_CAP factors. That is one element gather per lattice point
    and infected plant, plus one row gather per source row, against three
    gathers per pair in the block read, so it pays where about half the
    points or more are targets. Every target gets the same factors in the
    same order, so the bits are the block read's."""
    table, ix, iy = kernel.table
    survival, gathered = kernel.work
    nx, ny = survival.shape
    survival.fill(1.0)
    factors = gathered.reshape(nx, ny)
    row_factors = np.empty((nx, table.shape[1]))
    source_x, source_y = np.divmod(infected, ny)
    held = -1  # the source row whose table rows `row_factors` holds
    # Every index is a gap index of the table, so clipping changes none; it
    # spares the buffer mode="raise" puts `out` through.
    for r, c in zip(source_x.tolist(), source_y.tolist()):
        if r != held:
            table.take(ix[r], axis=0, out=row_factors, mode="clip")
            held = r
        row_factors.take(iy[c], axis=1, out=factors, mode="clip")
        np.multiply(survival, factors, out=survival)
    # Clipped as in `_window_survival`.
    return survival.reshape(-1).take(targets, out=gathered[: targets.size], mode="clip")


# When a round takes the offset-table window path. A window costs about
# 0.8 to 1.4 ns per lattice plant, against about 12 to 16 ns per
# susceptible target for np.hypot on one CPU (full-scale lattice, 2-vCPU
# VM); they broke even at targets of 1/11 of the plants with 3 infected
# plants and at 1/17 with 76, and 1/12 lies between. So a round needs at
# least _WINDOW_TARGETS of the plants susceptible, and a lattice with at
# most _WINDOW_EXCEPTIONS exceptions per plant, counted before
# `_build_window` lists each once per pair of offset signs (1,175
# exceptions in 4,636 entries on the full-scale lattice at beta0 =
# 0.003); every entry adds work to every window.
# Listing the gaps of an axis of n points takes n**2 / 2 subtractions, so
# a lattice farther than about _WINDOW_ASPECT : 1 from square (a 2 x 10**7
# strip) gets no offset table.
_WINDOW_TARGETS = 1 / 12
_WINDOW_EXCEPTIONS = 1 / 16
_WINDOW_ASPECT = 16


def _offset_gaps(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every distinct (offset k, gap |axis[a + k] - axis[a]|) of an axis,
    sorted by offset and then by gap, as an offset array and a gap array.
    (np.unique would do, but it imports numpy.ma, a megabyte of memory.)"""
    n = axis.size
    gaps = [np.sort(np.abs(axis[k:] - axis[: n - k])) for k in range(n)]
    gaps = [g[np.append(g[1:] != g[:-1], True)] for g in gaps]
    offsets = np.repeat(np.arange(n), [g.size for g in gaps])
    return offsets, np.concatenate(gaps)


def _seen(axis: np.ndarray, offsets: np.ndarray, gaps: np.ndarray, codes: np.ndarray):
    """For signed gaps coded 2 * i + (sign < 0), i indexing `offsets` and
    `gaps`: each code's index among the distinct codes, and the map over
    (axis position a, distinct code) that is True where the signed offset
    s lands on the axis, 0 <= a + s < len(axis), with a gap
    |axis[a + s] - axis[a]| equal to the code's."""
    n = axis.size
    used = np.zeros(2 * offsets.size, dtype=bool)
    used[codes] = True
    slots = np.flatnonzero(used)
    seen = np.zeros((n, slots.size), dtype=bool)
    for v, code in enumerate(slots.tolist()):
        s, g = int(offsets[code // 2]), gaps[code // 2]
        if code % 2:
            seen[s:, v] = np.abs(axis[: n - s] - axis[s:]) == g
        else:
            seen[: n - s, v] = np.abs(axis[s:] - axis[: n - s]) == g
    return (np.cumsum(used) - 1)[codes], seen


def _build_window(xs: np.ndarray, ys: np.ndarray, beta0: float, cutoff: float):
    """The offset table of a lattice and its exception list, or None when
    the lattice has more than _WINDOW_EXCEPTIONS exceptions per plant,
    counted before the list holds each once per pair of offset signs.

    Row k and column ny - 1 + l of the (nx, 2 * ny - 1) table hold the
    factor of `_pair_factors` at the gaps |xs[k] - xs[0]| and
    |ys[l] - ys[0]|; its columns are reflected, so the window of the plant
    at (r, c) is columns ny - 1 - c onwards, rows 0 up for the rows at and
    after r and rows r down to 1 for the rows before it. A pair of plants
    k rows and l columns apart has the table's factor unless float
    rounding gives that offset another gap. Every (x offset, x gap,
    y offset, y gap) whose factor differs is an exception; the list holds
    one entry per exception and pair of offset signs: the flat-index shift
    from the source to the target, the exact factor, and the columns of its
    signed x and y gaps in the two maps of `_seen`.
    """
    nx, ny = xs.size, ys.size
    gx, gy = np.abs(xs - xs[0]), np.abs(ys - ys[0])
    table = _pair_factors(gx[:, None], np.concatenate((gy[:0:-1], gy))[None, :], beta0, cutoff)
    kx, vx = _offset_gaps(xs)
    ly, vy = (kx, vx) if np.array_equal(xs, ys) else _offset_gaps(ys)
    columns = ly + (ny - 1)
    bound = _WINDOW_EXCEPTIONS * nx * ny
    found, count = [], 0
    rows = max(1, _BLOCK // vy.size)
    for a in range(0, vx.size, rows):
        exact = _pair_factors(vx[a : a + rows, None], vy[None, :], beta0, cutoff)
        i, j = np.nonzero(exact != table.take(kx[a : a + rows], axis=0).take(columns, axis=1))
        count += i.size
        if count > bound:
            return None
        found.append((i + a, j, exact[i, j]))
    i, j, exact = (np.concatenate(parts) for parts in zip(*found))
    k, l = kx[i], ly[j]
    # Both signs of each nonzero offset: (k, l), (k, -l), (-k, l), (-k, -l).
    keep = np.concatenate((np.ones(i.size, dtype=bool), l > 0, k > 0, (k > 0) & (l > 0)))
    sk = np.concatenate((k, k, -k, -k))[keep]
    sl = np.concatenate((l, -l, l, -l))[keep]
    xv, x_seen = _seen(xs, kx, vx, 2 * np.tile(i, 4)[keep] + (sk < 0))
    yv, y_seen = _seen(ys, ly, vy, 2 * np.tile(j, 4)[keep] + (sl < 0))
    shift = sk * ny + sl
    # Sorted by shift, a plant's exception targets come out ascending.
    order = np.argsort(shift, kind="stable")
    exact = np.tile(exact, 4)[keep]
    return table, shift[order], exact[order], xv[order], yv[order], x_seen, y_seen


# Survival entries per band of lattice rows in `_window_survival` (512 KiB),
# and about the most exception targets it holds at once. A band stays in L2
# while every infected plant's window rows are multiplied into it, where a
# lattice-wide pass per plant streams the 2 MB full-scale survival, and
# its table window, from L3 each time. Full-scale seasons with bands of 65,
# 130 and 261 rows ran 36.5, 35.1 and 37.4 ms, and with one band of all
# 501 rows 38.6 ms (medians of 3 x 12 seasons, loaded 2-vCPU VM). The bands
# are not spread over threads: on that shared VM two threads multiplying
# cache-resident 128 x 501 blocks ran 0.97x to 1.78x of one thread from one
# run to the next, with the load on the other vCPU, while the bands' gain
# needs no second CPU.
_BAND = 1 << 16


def _window_survival(kernel: _Kernel, targets: np.ndarray, infected: np.ndarray) -> np.ndarray:
    """`_survival` by offset-table windows: the lattice survival in the
    first work array, and each infected plant's table window multiplied
    into it, in ascending plant order; the targets are gathered from it
    into the second at the end. The lattice is cut into bands of rows, and
    each band takes every plant's window rows before the next band starts.
    Within a band, the running products of the plant's exception targets
    in that band are saved just before its multiply and multiplied by
    their exact factors after, so every target's product has the factors
    and the order of the np.hypot path.

    The plants' exception targets are found once per plant; plants are
    taken in groups whose targets number about _BAND, so their memory stays
    bounded however many plants are infected."""
    table, shift, exact, xv, yv, x_seen, y_seen = kernel.window
    survival, gathered = kernel.work
    nx, ny = survival.shape
    survival.fill(1.0)
    rows = max(1, _BAND // ny)
    edges = np.arange(rows, nx, rows) * ny  # the flat index of each later band
    group, held = [], 0
    for p in infected.tolist():
        r, c = divmod(p, ny)
        hit = np.flatnonzero(x_seen[r].take(xv) & y_seen[c].take(yv))
        at = shift.take(hit)
        at += p
        cuts = [0, *np.searchsorted(at, edges).tolist(), at.size]
        group.append((r, table[:, ny - 1 - c : 2 * ny - 1 - c], at, exact.take(hit), cuts))
        held += hit.size
        if held >= _BAND:
            _apply_windows(survival, rows, group)
            group, held = [], 0
    _apply_windows(survival, rows, group)
    # The targets are flatnonzero indices of the status array, all inside
    # the lattice, so clipping changes none of them; it spares the
    # temporary that the default mode="raise" buffers `out` through.
    return survival.reshape(-1).take(targets, out=gathered[: targets.size], mode="clip")


def _apply_windows(survival: np.ndarray, rows: int, group: list) -> None:
    """Multiply the windows of `group`'s plants into `survival`, band by
    band of `rows` rows, and put back each plant's exact factors at its
    exception targets in the band (see `_window_survival`)."""
    nx = survival.shape[0]
    flat = survival.reshape(-1)
    for band, a in enumerate(range(0, nx, rows)):
        b = min(a + rows, nx)
        for r, window_columns, at, exact, cuts in group:
            lo, hi = cuts[band], cuts[band + 1]
            if lo < hi:
                band_at = at[lo:hi]
                saved = flat.take(band_at)
            if r < b:  # rows at and after the plant's: table rows up from 0
                s = max(a, r)
                after = survival[s:b]
                np.multiply(after, window_columns[s - r : b - r], out=after)
            if a < r:  # rows before it: table rows down to 1
                e = min(b, r)
                before = survival[a:e]
                np.multiply(before, window_columns[r - a : r - e : -1], out=before)
            if lo < hi:
                np.multiply(saved, exact[lo:hi], out=saved)
                flat[band_at] = saved


def _hypot_survival(
    grid: PlantGrid,
    targets: np.ndarray,
    infected: np.ndarray,
    beta0: float,
    cutoff: float,
) -> np.ndarray:
    """`_survival` by np.hypot per pair, for rounds that read no table; it
    is also the tests' oracle for both tables."""
    n = targets.size
    ny = grid.ys.size
    rows, columns = np.divmod(targets, ny)
    xs = grid.xs.take(rows)
    ys = grid.ys.take(columns)
    del rows, columns
    survival = np.ones(n)
    dist = np.empty(n)
    keep = np.empty(n)  # scratch; each pass ends with 1 - p in it
    far = np.empty(n, dtype=bool) if cutoff < grid.span_m else None
    source_x, source_y = np.divmod(infected, ny)
    # Infected plants in ascending order, so each target's product is
    # formed in the same order as a sum over all plants would form it.
    for x, y in zip(grid.xs.take(source_x).tolist(), grid.ys.take(source_y).tolist()):
        np.subtract(xs, x, out=dist)
        np.subtract(ys, y, out=keep)
        np.hypot(dist, keep, out=dist)
        np.divide(beta0, dist, out=keep)
        np.minimum(1.0, keep, out=keep)
        if far is not None:
            np.greater(dist, cutoff, out=far)
            np.copyto(keep, 0.0, where=far)
        np.subtract(1.0, keep, out=keep)
        np.multiply(survival, keep, out=survival)
    return survival


def _draw_infections(
    grid: PlantGrid,
    status: np.ndarray,
    infected: np.ndarray,
    params: PathogenParams,
    rng: np.random.Generator,
    epsilon_p: float,
) -> np.ndarray:
    if infected.size == 0 or params.beta0 <= 0.0:
        return np.empty(0, dtype=np.int64)
    susceptible = np.flatnonzero(status == _SUSCEPTIBLE)
    if susceptible.size == 0:
        return susceptible
    cutoff = params.beta0 / epsilon_p if epsilon_p > 0 else math.inf
    work = _kernel(grid, params.beta0, cutoff).work
    survival = _survival(grid, susceptible, infected, params.beta0, cutoff)
    at_risk = survival < 1.0
    # The candidates stay ascending: that fixes the draw order. Rebinding
    # the names frees the full-length arrays (a fresh survival's too) when
    # only some are at risk, and no copy is made when all are.
    if not at_risk.all():
        susceptible, survival = susceptible[at_risk], survival[at_risk]
    del at_risk
    if susceptible.size == 0:
        return susceptible
    np.subtract(1.0, survival, out=survival)  # the infection probabilities
    # A read of the whole lattice has gathered its survival out of the
    # first work array, and no other read writes to it, so the draws can.
    out = None if work is None else work[0].reshape(-1)[: susceptible.size]
    draws = rng.random(susceptible.size, out=out)
    return susceptible[draws < survival]


def step(
    grid: PlantGrid,
    states: PlantStates,
    params: PathogenParams,
    rng: np.random.Generator,
    round_index: int = 1,
    *,
    epsilon_p: float = 1e-6,
    deterministic_duration: bool = False,
) -> PlantStates:
    """Advance one round in place (states is mutated and returned).

    Removal applies to the start-of-round infected set, so a plant infected
    this round is first eligible for removal next round. With
    deterministic_duration, infected plants are removed after exactly
    ceil(1/gamma) rounds instead of by per-round draws (no removal
    randomness is consumed in that mode).
    """
    if states.count != grid.count:
        raise ValidationError("invariant violated: states length == grid count")
    status = states.status
    infected = np.flatnonzero(status == _INFECTED)
    if deterministic_duration:
        sojourn = math.ceil(1.0 / params.gamma)
        age = round_index + 1 - states.infected_at[infected]
        removed = infected[age >= sojourn]
    else:
        removed = infected[rng.random(infected.size) < params.gamma]
    fresh = _draw_infections(grid, status, infected, params, rng, epsilon_p)
    states.remove(removed)
    if fresh.size:
        states.infect(fresh, round_index + 1)
    return states


def _died_early_result(scenario: Scenario, n: int) -> SimulationResult:
    horizon = scenario.horizon_steps
    trajectory = EpidemicTrajectory(
        s_count=(n,) + (0,) * (horizon - 1),
        i_count=(0,) * horizon,
        r_count=(0,) + (n,) * (horizon - 1),
    )
    return SimulationResult(
        trajectory=trajectory,
        economics=economic_series(trajectory.n_t, scenario.economics, died_early=True),
        r0=r0_series(trajectory.i_count, trajectory.r_count),
        initial_infected=(),
        died_early=True,
    )


def run_batch(
    scenario: Scenario,
    seeds: Sequence[int],
    *,
    epsilon_p: float = 1e-6,
    deterministic_duration: bool = False,
) -> tuple[SimulationResult, ...]:
    """Simulate one full season of the scenario per seed, in order: the
    season of seeds[i] is `run(replace(scenario, rng_seed=seeds[i]))`.

    The lattice is laid out once for the batch, and a worst-case placement,
    which draws no random numbers, is made once and shared read-only by
    every season. Each season then draws from its own default_rng(seed):
    a random placement first, then its rounds. A spacing below the minimal
    seeding distance gives one died-early result per seed and draws
    nothing.
    """
    for seed in seeds:
        if not 0 <= seed < 2**64:
            raise ValidationError("invariant violated: 0 <= seed < 2**64")
    field, strategy = scenario.field, scenario.strategy
    if strategy.dx_m < field.min_spacing_m or strategy.dy_m < field.min_spacing_m:
        n = (
            scenario.explicit_count
            if scenario.explicit_count is not None
            else lattice_capacity(field, strategy)
        )
        return (_died_early_result(scenario, n),) * len(seeds)

    grid = layout_grid(field, strategy, scenario.explicit_count)
    shared = None
    if scenario.placement_mode is PlacementMode.WORST_CASE:
        shared = place_initial_infected(
            grid, scenario.pathogen.initial_infected, PlacementMode.WORST_CASE, None
        )
        shared.flags.writeable = False
    return tuple(
        _season(scenario, grid, shared, seed, epsilon_p, deterministic_duration)
        for seed in seeds
    )


def _season(
    scenario: Scenario,
    grid: PlantGrid,
    initial: np.ndarray | None,
    seed: int,
    epsilon_p: float,
    deterministic_duration: bool,
) -> SimulationResult:
    """One season of `run_batch` on its laid-out grid: the initial
    infections at t = 1 (drawn here when `initial` is None), T - 1
    stochastic rounds, then economics and R0 metrics."""
    pathogen = scenario.pathogen
    rng = np.random.default_rng(seed)
    if initial is None:
        initial = place_initial_infected(
            grid, pathogen.initial_infected, scenario.placement_mode, rng
        )
    states = _SeasonStates(grid.count)
    states.infect(initial, 1)

    s_list, i_list, r_list = [], [], []
    s, i, r = states.counts()
    s_list.append(s), i_list.append(i), r_list.append(r)
    for t in range(1, scenario.horizon_steps):
        step(
            grid,
            states,
            pathogen,
            rng,
            round_index=t,
            epsilon_p=epsilon_p,
            deterministic_duration=deterministic_duration,
        )
        s, i, r = states.counts()
        s_list.append(s), i_list.append(i), r_list.append(r)

    trajectory = EpidemicTrajectory(
        s_count=tuple(s_list),
        i_count=tuple(i_list),
        r_count=tuple(r_list),
    )
    return SimulationResult(
        trajectory=trajectory,
        economics=economic_series(trajectory.n_t, scenario.economics),
        r0=r0_series(trajectory.i_count, trajectory.r_count),
        initial_infected=tuple(int(x) for x in initial),
        died_early=False,
    )


def run(
    scenario: Scenario,
    *,
    epsilon_p: float = 1e-6,
    deterministic_duration: bool = False,
) -> SimulationResult:
    """Simulate one full season: layout, initial infections at t = 1,
    T - 1 stochastic rounds, then economics and R0 metrics. It is the
    batch of one seed, scenario.rng_seed (see `run_batch`).

    Fully deterministic given scenario.rng_seed. Spacing below the minimal
    seeding distance short-circuits: every plant dies before harvest, the
    seeding cost is lost, and no RNG draws are consumed.
    """
    (result,) = run_batch(
        scenario,
        (scenario.rng_seed,),
        epsilon_p=epsilon_p,
        deterministic_duration=deterministic_duration,
    )
    return result
