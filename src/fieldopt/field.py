"""Plant lattice layout and exact radius neighbor queries.

Plants sit on a rectangular lattice: position (i * dx, j * dy) for
i in [0, floor(W/dx)], j in [0, floor(H/dy)], stored row-major with the
x index outermost. Both boundary rows are included (a plant at coordinate
0 and at floor(W/dx) * dx <= W are both inside the field).

There is no spatial index. At the paper's parameters the infection cutoff
beta0 / epsilon_p is 3 km, far beyond any field diagonal, so an index
would prune nothing. `neighbors_within` scans all positions and filters
by exact Euclidean distance; it is the test oracle for the engine's
infection kernel. A grid is its lattice axes: the engine builds its kernel
tables from the axis gaps, and the (count, 2) positions array, 16 B per
plant, is built only when a caller asks for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .scenario import FieldSpec, SeedingStrategy, ValidationError

# Snap tolerance for length/spacing ratios: 100 m at 0.2 m spacing must give
# 501 lattice positions per axis even though 100/0.2 rounds just below 500.
_SNAP = 1e-9

# Most plants one lattice may hold; `Scenario` enforces it. A season holds
# about 54 bytes per plant at its peak: 5 for the plant states and 48 for
# the np.hypot kernel's work arrays over the susceptible plants, plus a
# 1-byte mask when the cutoff truncates (see the README). This caps one
# season near 1.1 GB. A lattice with either kernel table keeps 16 bytes
# per plant of work arrays, resident from one round to the next. The
# offset table adds about 19 bytes of table per plant, and a round 8 for
# the susceptible indices; the small-lattice kernel table keeps fewer
# bytes per susceptible plant, plus at most 2 MiB of factors and 1 MiB of
# index maps, on lattices of at most 131,072 plants. Its two reads
# allocate per call and keep nothing: the block read up to 256 KiB of
# block buffers, the per-plant read an nx x ny intp index each round
# (8 bytes per lattice point).
MAX_PLANTS = 20_000_000


def axis_count(length, spacing):
    """Lattice points along one axis, floor(length / spacing) + 1 with the
    ratio snapped up by _SNAP. Scalars or arrays in, floats out: a tiny
    spacing overflows the count to inf instead of raising."""
    return np.floor(length / spacing + _SNAP) + 1.0


def lattice_shape(field: FieldSpec, strategy: SeedingStrategy) -> tuple[int, int]:
    """Lattice dimensions (points along x, points along y)."""
    return (
        int(axis_count(field.width_m, strategy.dx_m)),
        int(axis_count(field.height_m, strategy.dy_m)),
    )


def lattice_capacity(field: FieldSpec, strategy: SeedingStrategy) -> int:
    nx, ny = lattice_shape(field, strategy)
    return nx * ny


def lattice_size(field: FieldSpec, dx: float, dy: float) -> float:
    """The lattice capacity at spacing (dx, dy), counted in floats: inf
    where a tiny spacing overflows it, so it never raises."""
    return float(axis_count(field.width_m, dx)) * float(axis_count(field.height_m, dy))


def lattice_capacities(field: FieldSpec, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """`lattice_capacity` for arrays of spacings, as float64: equal to
    float(lattice_capacity(...)) while each axis count is below 2**53."""
    return axis_count(field.width_m, dx) * axis_count(field.height_m, dy)


@dataclass(frozen=True, eq=False)
class PlantGrid:
    """A lattice of plants: plant p sits at (xs[p // len(ys)], ys[p % len(ys)])."""

    count: int
    span_m: float  # diagonal of the occupied bounding box: no pair is farther
    xs: np.ndarray  # the x coordinates of the occupied rows, ascending
    ys: np.ndarray  # the y coordinates of the occupied columns, ascending

    @functools.cached_property
    def positions(self) -> np.ndarray:
        """(count, 2) float64 plant coordinates in row-major lattice order,
        built on first use: 16 B per plant that the infection kernel does
        not need."""
        nx, ny = self.xs.size, self.ys.size
        positions = np.empty((nx, ny, 2))
        positions[:, :, 0] = self.xs[:, None]
        positions[:, :, 1] = self.ys[None, :]
        return positions.reshape(nx * ny, 2)[: self.count]

    def neighbor_arrays(self, index: int, radius_m: float):
        """Indices (ascending) and exact distances of plants within
        radius_m of plant `index` (self excluded), by a scan over all
        positions."""
        if not 0 <= index < self.count:
            raise IndexError(f"plant index {index} out of range [0, {self.count})")
        x, y = self.positions[index]
        dist = np.hypot(self.positions[:, 0] - x, self.positions[:, 1] - y)
        keep = dist <= radius_m
        keep[index] = False
        idx = np.flatnonzero(keep)
        return idx, dist[idx]


def layout_grid(
    field: FieldSpec,
    strategy: SeedingStrategy,
    explicit_count: int | None = None,
) -> PlantGrid:
    """Materialize the planting lattice for a field and spacing.

    explicit_count keeps only the first explicit_count positions in
    row-major order.
    """
    nx, ny = lattice_shape(field, strategy)
    capacity = nx * ny
    if explicit_count is not None:
        if explicit_count < 1:
            raise ValidationError("invariant violated: explicit_count >= 1")
        if explicit_count > capacity:
            raise ValidationError(
                f"explicit_count {explicit_count} exceeds grid capacity {capacity}"
            )

    # Clamp the boundary row back into the field; i * dx can overshoot the
    # width by an ulp or two.
    xs = np.minimum(np.arange(nx, dtype=np.float64) * strategy.dx_m, field.width_m)
    ys = np.minimum(np.arange(ny, dtype=np.float64) * strategy.dy_m, field.height_m)
    # A row-major prefix of c plants occupies rows up to (c - 1) // ny and
    # columns up to min(c, ny) - 1; when c < ny it is one row of c plants,
    # so p // len(ys) and p % len(ys) still give each plant's row and
    # column. Both axes ascend from 0, so the bounding box extents are
    # their last entries, as positions.max(axis=0) - positions.min(axis=0)
    # would give. np.hypot, as for pair distances, so no pair distance
    # exceeds span_m.
    c = capacity if explicit_count is None else explicit_count
    xs, ys = xs[: (c - 1) // ny + 1], ys[: min(c, ny)]
    span = float(np.hypot(xs[-1] - xs[0], ys[-1] - ys[0]))
    return PlantGrid(count=c, span_m=span, xs=xs, ys=ys)


def spacing_from_count(field: FieldSpec, n: int) -> SeedingStrategy:
    """Square spacing such that a ceil(sqrt(n)) x ceil(sqrt(n)) lattice
    spans the field; pair with explicit_count=n to seed exactly n plants."""
    if n < 4:
        raise ValidationError("invariant violated: n >= 4")
    side = math.isqrt(n)
    if side * side < n:
        side += 1
    return SeedingStrategy(
        dx_m=field.width_m / (side - 1),
        dy_m=field.height_m / (side - 1),
    )


def neighbors_within(
    grid: PlantGrid, index: int, radius_m: float
) -> list[tuple[int, float]]:
    """All plants at Euclidean distance <= radius_m from plant `index`,
    excluding the plant itself, as (index, distance) sorted by index."""
    if radius_m <= 0:
        raise ValidationError("invariant violated: radius_m > 0")
    idx, dist = grid.neighbor_arrays(index, radius_m)
    return [(int(i), float(d)) for i, d in zip(idx, dist)]
