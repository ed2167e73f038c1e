import math

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
    neighbors_within,
    spacing_from_count,
)
from fieldopt.field import lattice_size


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
    near = neighbors_within(grid, center, 1.0)
    assert [i for i, _ in near] == [1, 3, 5, 7]
    assert all(d == pytest.approx(1.0) for _, d in near)
    assert len(neighbors_within(grid, center, 1.5)) == 8
    assert neighbors_within(grid, 0, 0.5) == []
    assert len(neighbors_within(grid, 0, 10.0)) == 8  # radius beyond the field


def test_neighbors_radius_validation():
    grid = layout_grid(FieldSpec(1, 1), SeedingStrategy(0.5, 0.5))
    with pytest.raises(ValidationError):
        neighbors_within(grid, 0, 0.0)


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
    assert neighbors_within(grid, index, radius) == _brute_force(grid, index, radius)


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

