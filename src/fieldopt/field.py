"""Plant lattice layout and exact radius neighbor queries.

Plants sit on a rectangular lattice: position (i * dx, j * dy) for
i in [0, floor(W/dx)], j in [0, floor(H/dy)], stored row-major with the
x index outermost. Both boundary rows are included (a plant at coordinate
0 and at floor(W/dx) * dx <= W are both inside the field).

There is no spatial index. At the paper's parameters the infection cutoff
beta0 / epsilon_p is 3 km, far beyond any field diagonal, so an index
would prune nothing. `neighbors_within` scans all positions and filters
by exact Euclidean distance; it is the test oracle for the engine's
infection kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import FieldSpec, SeedingStrategy, ValidationError

# Snap tolerance for length/spacing ratios: 100 m at 0.2 m spacing must give
# 501 lattice positions per axis even though 100/0.2 rounds just below 500.
_SNAP = 1e-9

# Most plants one lattice may hold; `Scenario` enforces it. A season holds
# about 70 bytes per plant at its peak: 21 for positions and state, 48 for
# the infection kernel's work arrays over the susceptible plants (see the
# README). This caps one season near 1.4 GB.
MAX_PLANTS = 20_000_000


def _axis_points(length: float, spacing: float) -> int:
    return int(math.floor(length / spacing + _SNAP)) + 1


def lattice_shape(field: FieldSpec, strategy: SeedingStrategy) -> tuple[int, int]:
    """Lattice dimensions (points along x, points along y)."""
    return (
        _axis_points(field.width_m, strategy.dx_m),
        _axis_points(field.height_m, strategy.dy_m),
    )


def lattice_capacity(field: FieldSpec, strategy: SeedingStrategy) -> int:
    nx, ny = lattice_shape(field, strategy)
    return nx * ny


def lattice_size(field: FieldSpec, dx: float, dy: float) -> float:
    """The lattice capacity at spacing (dx, dy), counted in floats: inf
    where a tiny spacing overflows it, so it never raises."""
    nx = float(np.floor(field.width_m / dx + _SNAP)) + 1.0
    ny = float(np.floor(field.height_m / dy + _SNAP)) + 1.0
    return nx * ny


def lattice_capacities(field: FieldSpec, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """`lattice_capacity` for arrays of spacings, as float64: equal to
    float(lattice_capacity(...)) while each axis count is below 2**53."""
    nx = np.floor(field.width_m / dx + _SNAP) + 1.0
    ny = np.floor(field.height_m / dy + _SNAP) + 1.0
    return nx * ny


@dataclass(frozen=True, eq=False)
class PlantGrid:
    """Immutable plant positions."""

    positions: np.ndarray  # (count, 2) float64, row-major lattice order
    count: int
    span_m: float  # diagonal of the occupied bounding box: no pair is farther

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
    positions = np.empty((capacity, 2), dtype=np.float64)
    positions[:, 0] = np.repeat(xs, ny)
    positions[:, 1] = np.tile(ys, nx)
    if explicit_count is not None:
        positions = positions[:explicit_count]
    # np.hypot, as for pair distances, so no pair distance exceeds span_m.
    extent = positions.max(axis=0) - positions.min(axis=0)
    span = float(np.hypot(extent[0], extent[1]))
    return PlantGrid(positions=positions, count=len(positions), span_m=span)


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
