"""Analytic worst-case machinery: greedy metric k-center placement of the
initial infections, a geometric-growth bound on cumulative removals, the
closed-form surviving-count series, and the analytic profit objective.

The removal bound treats r = sqrt(dx^2 + dy^2), the diagonal spacing of the
lattice, as the single effective transmission distance: with q = beta0 / r,
cumulative removals after T rounds are bounded by gamma * k * sum_{t=1..T}
q^(t-1). The surviving counts and the profit use this sum evaluated exactly
(GeometricSum). `removal_bound` also offers the paper's printed form,
PaperExact, which keeps an extra factor 1/q (for q < 1 it equals
GeometricSum / q); it serves only to compare the two forms.

`analytic_profit` scores one spacing and is the reference for
`analytic_profits`, which scores a batch of spacings as numpy arrays with
the same operations in the same order, bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .economics import economic_series, total_profits
from .field import lattice_capacities, lattice_capacity
from .scenario import (
    EconomicParams,
    FieldSpec,
    PathogenParams,
    SeedingStrategy,
    ValidationError,
)


class BoundVariant(enum.Enum):
    GEOMETRIC_SUM = "geometric_sum"
    PAPER_EXACT = "paper_exact"


@dataclass(frozen=True)
class WorstCaseBound:
    """Closed-form removal bound and surviving counts for one strategy."""

    r_m: float
    q: float
    removed_total_bound: float
    n_t_series: tuple[float, ...]


# Most k * N (centers times plants) a worst-case placement may cost;
# `Scenario` enforces it. Farthest-first placement takes k passes over all
# N plants, about 14-23 ns per plant and pass on a 2-vCPU VM, so this caps
# it near 14-23 s. It is the round figure above the largest placement the
# scenario tests draw (50 centers on a 16,008,001-plant lattice); it admits
# up to 3,984 centers on the default 251,001-plant field.
MAX_KCENTER_WORK = 10**9


def kcenter_greedy(positions: Sequence, k: int) -> list[int]:
    """Farthest-first traversal for the metric k-center problem.

    Starts from the point nearest the centroid of the positions, then
    repeatedly adds the point farthest from its nearest chosen center.
    Ties break toward the lowest index. The chosen set's covering radius
    is at most twice the optimal k-center radius.
    """
    pos = np.asarray(positions, dtype=np.float64)
    n = len(pos)
    if not 1 <= k <= n:
        raise ValidationError(f"invariant violated: 1 <= k <= point count ({n})")
    centroid = pos.mean(axis=0)
    to_centroid = np.hypot(pos[:, 0] - centroid[0], pos[:, 1] - centroid[1])
    first = int(np.argmin(to_centroid))
    chosen = [first]
    nearest = np.hypot(pos[:, 0] - pos[first, 0], pos[:, 1] - pos[first, 1])
    for _ in range(k - 1):
        nxt = int(np.argmax(nearest))
        chosen.append(nxt)
        np.minimum(
            nearest,
            np.hypot(pos[:, 0] - pos[nxt, 0], pos[:, 1] - pos[nxt, 1]),
            out=nearest,
        )
    return chosen


def coverage_radius(positions: Sequence, centers: Sequence[int]) -> float:
    """Max distance from any point to its nearest center."""
    pos = np.asarray(positions, dtype=np.float64)
    if len(centers) == 0:
        raise ValidationError("invariant violated: at least one center")
    nearest = np.full(len(pos), np.inf)
    for c in centers:
        np.minimum(
            nearest,
            np.hypot(pos[:, 0] - pos[c, 0], pos[:, 1] - pos[c, 1]),
            out=nearest,
        )
    return float(nearest.max())


def removal_bound(
    beta0: float,
    gamma: float,
    k: int,
    r_m: float,
    horizon: int,
    variant: BoundVariant = BoundVariant.GEOMETRIC_SUM,
) -> float:
    """Geometric bound on cumulative removals through round `horizon`.

    GeometricSum evaluates gamma * k * (q^T - 1)/(q - 1), the exact value
    of gamma * k * sum_{t=1..T} q^(t-1); both variants return gamma * k * T
    in the degenerate case |q - 1| < 1e-12. PaperExact divides by an extra
    q and therefore diverges to +inf as q -> 0 (returned as inf at q = 0).
    """
    if r_m <= 0:
        raise ValidationError("invariant violated: r_m > 0")
    if horizon < 1:
        raise ValidationError("invariant violated: horizon >= 1")
    q = beta0 / r_m
    if abs(q - 1.0) < 1e-12:
        return gamma * k * horizon
    numerator = q**horizon - 1.0
    if variant is BoundVariant.PAPER_EXACT:
        if q == 0.0:
            return math.inf
        return gamma * k * numerator / (q * (q - 1.0))
    return gamma * k * numerator / (q - 1.0)


def removal_bounds(
    beta0: float, gamma: float, k: int, r_m: np.ndarray, horizon: int
) -> np.ndarray:
    """GeometricSum `removal_bound` for t = 1..horizon and every distance
    in r_m: a (horizon, len(r_m)) array, row t - 1 for round t, bit for bit.

    The powers q**t come from Python's float power, because numpy's
    vectorized power rounds differently for some inputs.
    """
    q = beta0 / r_m
    gk = gamma * k
    degenerate = np.abs(q - 1.0) < 1e-12
    denominator = np.where(degenerate, 1.0, q - 1.0)
    q_list = q.tolist()
    rows = np.empty((horizon, len(q)))
    for t in range(1, horizon + 1):
        numerator = np.array([v**t for v in q_list]) - 1.0
        rows[t - 1] = np.where(degenerate, gk * t, gk * numerator / denominator)
    return rows


def analytic_nt(n: float, pathogen: PathogenParams, r_m: float, t: int) -> float:
    """Closed-form surviving count at round t: n minus the removal bound,
    floored at zero (the bound can exceed n for aggressive parameters)."""
    bound = removal_bound(
        pathogen.beta0, pathogen.gamma, pathogen.initial_infected, r_m, t
    )
    return max(0.0, n - bound)


def worstcase_bound(
    n: float,
    pathogen: PathogenParams,
    strategy: SeedingStrategy,
    horizon: int,
) -> WorstCaseBound:
    """Bundle r, q, the total removal bound, and the full N_t series."""
    r_m = math.hypot(strategy.dx_m, strategy.dy_m)
    return WorstCaseBound(
        r_m=r_m,
        q=pathogen.beta0 / r_m,
        removed_total_bound=removal_bound(
            pathogen.beta0,
            pathogen.gamma,
            pathogen.initial_infected,
            r_m,
            horizon,
        ),
        n_t_series=tuple(
            analytic_nt(n, pathogen, r_m, t) for t in range(1, horizon + 1)
        ),
    )


def analytic_profit(
    field: FieldSpec,
    strategy: SeedingStrategy,
    pathogen: PathogenParams,
    econ: EconomicParams,
    horizon: int,
) -> float:
    """Closed-form season profit for a candidate spacing.

    Spacing wider than the field on either axis seeds nothing and scores 0;
    spacing below the minimum seeding distance loses the seeding cost of
    the full lattice (early death). Otherwise the surviving-count series
    from the removal bound is priced by the season economics.
    """
    if strategy.dx_m > field.width_m or strategy.dy_m > field.height_m:
        return 0.0
    n = lattice_capacity(field, strategy)
    if strategy.dx_m < field.min_spacing_m or strategy.dy_m < field.min_spacing_m:
        return economic_series([float(n)] * horizon, econ, died_early=True).total_profit
    bound = worstcase_bound(n, pathogen, strategy, horizon)
    return economic_series(bound.n_t_series, econ).total_profit


def analytic_profits(
    field: FieldSpec,
    dx: np.ndarray,
    dy: np.ndarray,
    pathogen: PathogenParams,
    econ: EconomicParams,
    horizon: int,
) -> np.ndarray:
    """`analytic_profit` of every spacing (dx[i], dy[i]), bit for bit.

    Domain: min_spacing_m <= dx <= width_m and min_spacing_m <= dy <=
    height_m, the box every optimizer search draws from. The scalar
    branches for spacings outside it (wider than the field, or below the
    minimum seeding distance) have no counterpart here. Distances come
    from `math.hypot`, as in the scalar path: numpy's hypot differs from
    it in the last bit for some inputs.
    """
    n = lattice_capacities(field, dx, dy)
    r_m = np.array([math.hypot(x, y) for x, y in zip(dx.tolist(), dy.tolist())])
    bounds = removal_bounds(
        pathogen.beta0, pathogen.gamma, pathogen.initial_infected, r_m, horizon
    )
    return total_profits(np.maximum(0.0, n - bounds), econ)
