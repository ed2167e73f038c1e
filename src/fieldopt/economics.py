"""Season cost/revenue closed forms and the piecewise per-round profit series.

Each activity cost is log-linear in the plant count n, cost(n) =
a * ln(n) + c * n, with activity-specific coefficients; selling earns
sell_price * n - sell_discount * ln(n) (bulk sales depress the unit value).
A season of T rounds pays seeding plus growing in round 1, growing in every
intermediate round, and collects sale revenue minus harvesting cost on the
surviving plants in round T.

`economic_series` prices one season; `total_profits` prices a batch of
seasons as numpy columns with the same operations in the same order, so
each of its totals equals the `economic_series` total bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytics import sum_in_order
from .scenario import EconomicParams, ValidationError


def _log_linear(log_coeff, linear_coeff, n, log_n):
    # n and log_n are floats or equal-shape arrays.
    return log_coeff * log_n + linear_coeff * n


def _check_horizon(t_final: int) -> None:
    if t_final < 2:
        raise ValidationError("invariant violated: series covers t in [1, T], T >= 2")


def _check_count(n: float) -> None:
    if n < 1:
        raise ValidationError("invariant violated: n >= 1")


def seeding_cost(n: float, econ: EconomicParams) -> float:
    """Cost of seeding n plants."""
    _check_count(n)
    return _log_linear(econ.seed_per_plant, econ.seed_overhead_coeff, n, math.log(n))


def growing_cost(n: float, econ: EconomicParams) -> float:
    """Cost of growing n plants for one round."""
    _check_count(n)
    return _log_linear(econ.grow_per_plant, econ.grow_overhead_coeff, n, math.log(n))


def harvesting_cost(n: float, econ: EconomicParams) -> float:
    """Cost of harvesting n plants at the end of the season."""
    _check_count(n)
    return _log_linear(econ.harvest_per_plant, econ.harvest_overhead_coeff, n, math.log(n))


def sell_revenue(n: float, econ: EconomicParams) -> float:
    """Revenue from selling n plants; 0 for an empty harvest."""
    if n < 0:
        raise ValidationError("invariant violated: n >= 0")
    if n == 0:
        return 0.0
    return econ.sell_price * n - econ.sell_discount * math.log(n)


@dataclass(frozen=True)
class EconomicSeries:
    """Per-round economic output for t in [1, T] and its sum."""

    per_round_output: tuple[float, ...]
    total_profit: float


def economic_series(
    n_t: Sequence[float],
    econ: EconomicParams,
    died_early: bool = False,
) -> EconomicSeries:
    """Piecewise season economics over the surviving-count series n_t.

    n_t[0] is the population in round 1 and n_t[-1] the sellable count at
    harvest. Round 1 pays seeding + growing, rounds 1 < t < T pay growing,
    round T earns sale revenue minus harvesting. Rounds where n_t < 1
    contribute 0 (nothing left to tend, harvest, or sell; also keeps the
    analytic route well defined when the removal bound exceeds N).
    died_early models sub-minimum spacing: the seeding cost of the n_t[0]
    plants sown is lost and every later round outputs 0.
    """
    t_final = len(n_t)
    _check_horizon(t_final)

    if died_early:
        outputs = [-seeding_cost(n_t[0], econ)] + [0.0] * (t_final - 1)
        return EconomicSeries(tuple(outputs), sum_in_order(outputs))

    outputs = [
        _round_output(t, t_final, n, math.log(n), econ) if n >= 1 else 0.0
        for t, n in enumerate(n_t, start=1)
    ]
    return EconomicSeries(tuple(outputs), sum_in_order(outputs))


def total_profits(n_t: np.ndarray, econ: EconomicParams) -> np.ndarray:
    """Season totals of a batch: entry i equals
    `economic_series(n_t[:, i], econ).total_profit` bit for bit.

    n_t has shape (T, C), one surviving-count series per column. The
    per-round prices are the same numpy operations on the same operands;
    logarithms come from `math.log`, because numpy's vectorized log
    differs from libm in the last bit for some inputs.
    """
    t_final = len(n_t)
    _check_horizon(t_final)
    totals = np.zeros(n_t.shape[1])
    for t, n in enumerate(n_t, start=1):
        alive = n >= 1
        log_n = np.array([math.log(v) for v in np.where(alive, n, 1.0).tolist()])
        totals += np.where(alive, _round_output(t, t_final, n, log_n, econ), 0.0)
    return totals


def _round_output(t: int, t_final: int, n, log_n, econ: EconomicParams):
    """Output of round t of t_final for n >= 1 surviving plants (floats or
    arrays): the seeding and growing costs in round 1, the growing cost in
    the rounds between, sale revenue minus harvesting cost in round T."""
    if t == 1:
        return -_log_linear(
            econ.seed_per_plant, econ.seed_overhead_coeff, n, log_n
        ) - _log_linear(econ.grow_per_plant, econ.grow_overhead_coeff, n, log_n)
    if t < t_final:
        return -_log_linear(econ.grow_per_plant, econ.grow_overhead_coeff, n, log_n)
    revenue = econ.sell_price * n - econ.sell_discount * log_n
    return revenue - _log_linear(
        econ.harvest_per_plant, econ.harvest_overhead_coeff, n, log_n
    )

