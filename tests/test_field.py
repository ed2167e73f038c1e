import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fieldopt import (
    FieldSpec,
    SeedingStrategy,
    ValidationError,
    lattice_capacity,
    lattice_shape,
    layout_grid,
    spacing_from_count,
)
from fieldopt import epidemic
from fieldopt.field import PlantGrid, axis_count, lattice_size
from fieldopt.scenario import scenario_default


def test_lattice_shape_examples():
    assert lattice_shape(FieldSpec(10, 10), SeedingStrategy(0.2, 0.2)) == (51, 51)
    assert lattice_capacity(FieldSpec(10, 10), SeedingStrategy(0.2, 0.2)) == 2601
    assert lattice_capacity(FieldSpec(100, 100), SeedingStrategy(0.2, 0.2)) == 251001
    assert lattice_capacity(FieldSpec(1, 1), SeedingStrategy(2.0, 2.0)) == 1
    # inexact division: 0.7 / 0.1 is 6.999... in floats, still 8 points
    assert lattice_shape(FieldSpec(0.7, 0.7), SeedingStrategy(0.1, 0.1)) == (8, 8)


def test_layout_positions_row_major_and_in_bounds():
    field = FieldSpec(width_m=0.4, height_m=0.2)
    grid = layout_grid(field, SeedingStrategy(0.2, 0.1))
    assert grid.count == 9
    expected = [
        (x, y) for x in (0.0, 0.2, 0.4) for y in (0.0, 0.1, 0.2)
    ]
    assert np.allclose(grid.positions, expected)
    assert grid.positions[:, 0].max() <= field.width_m
    assert grid.positions[:, 1].max() <= field.height_m


def test_layout_positions_distinct():
    grid = layout_grid(FieldSpec(3, 3), SeedingStrategy(0.3, 0.3))
    rounded = {(round(x, 9), round(y, 9)) for x, y in grid.positions}
    assert len(rounded) == grid.count


def test_explicit_count_truncates_row_major():
    field = FieldSpec(width_m=0.4, height_m=0.2)
    full = layout_grid(field, SeedingStrategy(0.2, 0.1))
    part = layout_grid(field, SeedingStrategy(0.2, 0.1), explicit_count=5)
    assert part.count == 5
    assert np.array_equal(part.positions, full.positions[:5])


def test_explicit_count_bounds():
    field = FieldSpec(width_m=0.4, height_m=0.2)
    with pytest.raises(ValidationError, match="capacity 9"):
        layout_grid(field, SeedingStrategy(0.2, 0.1), explicit_count=10)
    with pytest.raises(ValidationError):
        layout_grid(field, SeedingStrategy(0.2, 0.1), explicit_count=0)


@given(
    st.floats(0.5, 50.0),
    st.floats(0.5, 50.0),
    st.floats(0.05, 2.0),
    st.floats(0.05, 2.0),
)
def test_capacity_matches_materialized_count(width, height, dx, dy):
    field = FieldSpec(width_m=width, height_m=height)
    strategy = SeedingStrategy(dx_m=dx, dy_m=dy)
    if lattice_capacity(field, strategy) > 20000:
        return
    grid = layout_grid(field, strategy)
    assert grid.count == lattice_capacity(field, strategy)


@given(
    st.floats(0.5, 1000.0),
    st.floats(0.5, 1000.0),
    st.floats(0.05, 2.0),
    st.floats(0.05, 2.0),
)
@example(0.7, 0.3, 0.1, 0.1)  # 0.7 / 0.1 and 0.3 / 0.1 land just below 7 and 3
def test_lattice_size_is_capacity_as_float(width, height, dx, dy):
    field = FieldSpec(width_m=width, height_m=height)
    assert lattice_size(field, dx, dy) == lattice_capacity(field, SeedingStrategy(dx, dy))


def test_lattice_size_overflows_to_inf():
    field = FieldSpec(width_m=100.0, height_m=100.0)
    assert lattice_size(field, 1e-320, 0.2) == math.inf
    assert lattice_size(field, 1e-300, 1e-300) == math.inf
    assert lattice_size(FieldSpec(width_m=1e300, height_m=1e300), 0.1, 0.1) == math.inf


def test_spacing_from_count_examples():
    field = FieldSpec(100, 100)
    s = spacing_from_count(field, 2500)
    assert s.dx_m == pytest.approx(100 / 49)
    assert s.dy_m == pytest.approx(100 / 49)
    s = spacing_from_count(field, 25000)  # side 159, spans via 158 gaps
    assert s.dx_m == pytest.approx(100 / 158)
    with pytest.raises(ValidationError):
        spacing_from_count(field, 3)


@given(st.integers(4, 30000))
def test_spacing_from_count_capacity_covers_n(n):
    field = FieldSpec(100, 100)
    strategy = spacing_from_count(field, n)
    assert lattice_capacity(field, strategy) >= n


def test_neighbors_examples():
    grid = layout_grid(FieldSpec(2, 2), SeedingStrategy(1.0, 1.0))  # 3x3
    center = 4
    idx, dist = grid.neighbor_arrays(center, 1.0)
    assert idx.tolist() == [1, 3, 5, 7]
    assert all(d == pytest.approx(1.0) for d in dist)
    assert grid.neighbor_arrays(center, 1.5)[0].size == 8
    assert grid.neighbor_arrays(0, 0.5)[0].size == 0
    assert grid.neighbor_arrays(0, 10.0)[0].size == 8  # radius beyond the field


def _brute_force(grid, index, radius):
    px, py = grid.positions[index]
    out = []
    for j, (x, y) in enumerate(grid.positions):
        if j == index:
            continue
        d = float(np.hypot(x - px, y - py))
        if d <= radius:
            out.append((j, d))
    return out


@settings(max_examples=150)
@given(
    st.floats(0.5, 4.0),
    st.floats(0.5, 4.0),
    st.floats(0.1, 1.0),
    st.floats(0.1, 1.0),
    st.floats(0.05, 5.0),
    st.integers(0, 10**9),
)
def test_neighbors_match_brute_force(width, height, dx, dy, radius, probe):
    field = FieldSpec(width_m=width, height_m=height)
    grid = layout_grid(field, SeedingStrategy(dx_m=dx, dy_m=dy))
    assert grid.count <= 2000
    index = probe % grid.count
    idx, dist = grid.neighbor_arrays(index, radius)
    assert list(zip(idx.tolist(), dist.tolist())) == _brute_force(grid, index, radius)


@settings(max_examples=60)
@given(
    st.floats(0.5, 6.0),
    st.floats(0.5, 6.0),
    st.floats(0.1, 1.0),
    st.floats(0.1, 1.0),
    st.integers(0, 10**9),
)
# math.hypot(8.64, 2.9) rounds one ulp below np.hypot(8.64, 2.9)
@example(8.64, 2.9, 8.64, 2.9, 0)
def test_span_bounds_every_pair_distance(width, height, dx, dy, probe):
    # The infection kernel skips its cutoff mask when the cutoff is at least
    # span_m, which is exact only if no pair distance exceeds span_m.
    grid = layout_grid(FieldSpec(width_m=width, height_m=height), SeedingStrategy(dx, dy))
    index = probe % grid.count
    corner = grid.count - 1
    for i in (0, index, corner):
        idx, dist = grid.neighbor_arrays(i, np.inf)
        assert np.array_equal(idx, np.delete(np.arange(grid.count), i))
        assert dist.size == 0 or dist.max() <= grid.span_m
    if grid.count > 1:
        far = grid.neighbor_arrays(0, np.inf)[1][-1]  # plant 0 to the last corner
        assert far == grid.span_m



@settings(max_examples=200)
@given(
    st.integers(10, 100),
    st.integers(10, 100),
    st.integers(1, 40),
    st.integers(1, 40),
    st.booleans(),
    st.sampled_from(["1", "ny - 1", "ny", "ny + 1", "all"]),
)
# 7 * 0.1 overshoots 0.7, so the last row is clamped back to the width
@example(10, 10, 7, 7, True, "all")
@example(10, 30, 7, 3, True, "ny + 1")
def test_span_is_the_bounding_box_diagonal(dx_cm, dy_cm, kx, ky, multiple, prefix):
    # Fields k spacings wide, written as decimals, clamp their boundary
    # rows wherever k * spacing rounds above the decimal.
    dx, dy = dx_cm / 100, dy_cm / 100
    width = kx * dx_cm / 100 if multiple else kx * dx + dx / 3
    height = ky * dy_cm / 100 if multiple else ky * dy + dy / 3
    field, strategy = FieldSpec(width, height), SeedingStrategy(dx, dy)
    nx, ny = lattice_shape(field, strategy)
    count = {"1": 1, "ny - 1": ny - 1, "ny": ny, "ny + 1": ny + 1, "all": nx * ny}[prefix]
    count = min(max(count, 1), nx * ny)
    grid = layout_grid(field, strategy, count)
    extent = grid.positions.max(axis=0) - grid.positions.min(axis=0)
    assert grid.span_m == float(np.hypot(extent[0], extent[1]))


def test_axis_count_takes_scalars_and_arrays():
    assert axis_count(100.0, 0.2) == 501.0  # 100 / 0.2 is a hair below 500
    lengths, spacings = [100.0, 0.7, 10.0, 1e300], [0.2, 0.1, 3.0, 1e-300]
    with np.errstate(over="ignore"):
        counts = axis_count(np.array(lengths), np.array(spacings))
    assert counts.tolist() == [axis_count(a, b) for a, b in zip(lengths, spacings)]
    assert counts.tolist() == [501.0, 8.0, 4.0, math.inf]


def _old_positions(field, strategy, explicit_count):
    # The layout `layout_grid` stored before positions were built on demand.
    nx, ny = lattice_shape(field, strategy)
    xs = np.minimum(np.arange(nx, dtype=np.float64) * strategy.dx_m, field.width_m)
    ys = np.minimum(np.arange(ny, dtype=np.float64) * strategy.dy_m, field.height_m)
    positions = np.empty((nx * ny, 2), dtype=np.float64)
    positions[:, 0] = np.repeat(xs, ny)
    positions[:, 1] = np.tile(ys, nx)
    return positions if explicit_count is None else positions[:explicit_count]


@settings(max_examples=150)
@given(
    st.integers(1, 60),
    st.integers(1, 60),
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 0.37]),
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 0.25]),
    st.one_of(st.none(), st.floats(0.0, 1.0)),
)
@example(7, 7, 0.1, 0.1, None)  # 7 * 0.1 overshoots 0.7: the last row is clamped
@example(7, 3, 0.1, 0.1, 0.2)  # clamped, and a prefix shorter than one row
def test_positions_keep_their_layout(kx, ky, dx, dy, prefix):
    # Decimal fields k spacings wide, so boundary rows are often clamped.
    field = FieldSpec(round(kx * dx, 9), round(ky * dy, 9))
    strategy = SeedingStrategy(dx, dy)
    capacity = lattice_capacity(field, strategy)
    count = None if prefix is None else max(1, round(prefix * capacity))
    positions = layout_grid(field, strategy, count).positions
    old = _old_positions(field, strategy, count)
    assert positions.dtype == old.dtype and positions.shape == old.shape
    assert positions.tobytes() == old.tobytes()


def test_a_random_full_scale_season_builds_no_positions():
    built = mock.PropertyMock(side_effect=AssertionError("positions"))
    with mock.patch.object(PlantGrid, "positions", built):
        result = epidemic.run(scenario_default())  # 251,001 plants, random placement
    assert built.call_count == 0
    assert result.trajectory.s_count[0] == 251_001 - 3
