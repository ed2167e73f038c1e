"""Epidemic and economic metrics: R0 trajectory, least-squares plane fits,
paired t-test, and replicate summary statistics.

The t-test p-value is computed from the regularized incomplete beta
function, evaluated with Lentz's continued-fraction method (absolute
tolerance well below 1e-10), so no statistical tables or external
packages are needed at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .scenario import ValidationError


def sum_in_order(values: Iterable[float]) -> float:
    """The sum of floats added left to right from 0.0, rounding once per
    addition. The builtin sum() does this up to Python 3.11 and
    compensates its rounding from 3.12 on, which moves the last bits of
    some means; every sum of Python floats in the package goes through
    here, so outputs do not depend on the Python version."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class R0Series:
    """Per-round reproduction numbers over t in [1, T-1] and their mean."""

    r0_t: tuple[float, ...]
    mean_r0: float


def r0_series(i_count: Sequence[float], r_count: Sequence[float]) -> R0Series:
    """Reproduction number per round from infected/removed count series.

    R0(t) is the ratio of new infections to new removals over the round,
    (I(t+1) - I(t)) / (R(t+1) - R(t)), falling back to the raw infection
    increment I(t+1) - I(t) in rounds where nothing was removed. The final
    round has no forward difference, so the series covers t in [1, T-1].
    """
    if len(i_count) != len(r_count):
        raise ValidationError("invariant violated: equal series lengths")
    if len(i_count) < 2:
        raise ValidationError("invariant violated: series length >= 2")
    values = []
    for t in range(len(i_count) - 1):
        di = i_count[t + 1] - i_count[t]
        dr = r_count[t + 1] - r_count[t]
        values.append(di / dr if dr > 0 else float(di))
    return R0Series(tuple(values), sum_in_order(values) / len(values))


@dataclass(frozen=True)
class SensitivityFit:
    """Plane y = coeff_beta0 * beta0 + coeff_gamma * gamma + intercept."""

    coeff_beta0: float
    coeff_gamma: float
    intercept: float
    r_squared: float


def fit_plane(
    xs: Sequence[tuple[float, float]], ys: Sequence[float]
) -> SensitivityFit:
    """Ordinary least squares fit of a plane to (beta0, gamma) -> y samples.

    Solves the 3x3 normal equations directly; raises on collinear inputs
    (singular normal matrix). R^2 is 1 - SS_res/SS_tot, with the convention
    R^2 = 1 for constant data (SS_tot = 0).
    """
    if len(xs) != len(ys):
        raise ValidationError("invariant violated: equal sample lengths")
    if len(xs) < 3:
        raise ValidationError("invariant violated: at least 3 samples")
    a = np.column_stack(
        [np.asarray(xs, dtype=np.float64), np.ones(len(xs))]
    )
    y = np.asarray(ys, dtype=np.float64)
    normal = a.T @ a
    if np.linalg.matrix_rank(a) < 3:
        raise ValidationError("invariant violated: non-collinear samples")
    coeffs = np.linalg.solve(normal, a.T @ y)
    residuals = y - a @ coeffs
    ss_res = float(residuals @ residuals)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SensitivityFit(
        coeff_beta0=float(coeffs[0]),
        coeff_gamma=float(coeffs[1]),
        intercept=float(coeffs[2]),
        r_squared=r_squared,
    )


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # Lentz's method for the continued fraction in the incomplete beta
    # integral; converges in a few dozen iterations for the t-test regime.
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        # even step
        coef = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + coef * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coef / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        # odd step
        coef = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + coef * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coef / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1], to absolute accuracy 1e-10."""
    if a <= 0 or b <= 0:
        raise ValidationError("invariant violated: a > 0 and b > 0")
    if not 0.0 <= x <= 1.0:
        raise ValidationError("invariant violated: 0 <= x <= 1")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only on one side of the mean;
    # use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) for the other side.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    dof: int
    p_two_sided: float


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Two-sided paired t-test on elementwise differences a - b.

    Raises when the differences have zero variance (constant shift or
    identical series), where the statistic is undefined.
    """
    if len(a) != len(b):
        raise ValidationError("invariant violated: equal series lengths")
    n = len(a)
    if n < 2:
        raise ValidationError("invariant violated: series length >= 2")
    diffs = [float(x) - float(y) for x, y in zip(a, b)]
    mean = sum_in_order(diffs) / n
    var = sum_in_order((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        raise ValidationError("invariant violated: nonzero variance of differences")
    t_stat = mean / math.sqrt(var / n)
    dof = n - 1
    x = dof / (dof + t_stat * t_stat)
    p = regularized_incomplete_beta(dof / 2.0, 0.5, x)
    return TTestResult(t_statistic=t_stat, dof=dof, p_two_sided=p)


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum_in_order(values) / n
    if n == 1:
        return mean, 0.0
    var = sum_in_order((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)
