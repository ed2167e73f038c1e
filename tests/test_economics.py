import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fieldopt import (
    EconomicParams,
    ValidationError,
    economic_series,
    growing_cost,
    harvesting_cost,
    seeding_cost,
    sell_revenue,
    total_profits,
)

ECON = EconomicParams()


def test_closed_forms_at_unit_population():
    # ln(1) = 0 leaves only the linear terms
    assert seeding_cost(1, ECON) == pytest.approx(0.14)
    assert growing_cost(1, ECON) == pytest.approx(0.019)
    assert harvesting_cost(1, ECON) == pytest.approx(0.11)
    assert sell_revenue(1, ECON) == pytest.approx(5.32)


def test_closed_forms_full_field():
    n = 25000
    assert seeding_cost(n, ECON) == pytest.approx(3500.101266311039, rel=1e-12)
    assert growing_cost(n, ECON) == pytest.approx(475.33417882642703, rel=1e-12)
    assert harvesting_cost(n, ECON) == pytest.approx(2750.607597866231, rel=1e-12)
    assert sell_revenue(n, ECON) == pytest.approx(132982.6834608124, rel=1e-12)


def test_fractional_populations_allowed():
    # analytic surviving counts are real-valued
    n = 123.45
    assert seeding_cost(n, ECON) == pytest.approx(0.01 * math.log(n) + 0.14 * n)


def test_zero_sale():
    assert sell_revenue(0, ECON) == 0.0


def test_count_validation():
    for fn in (seeding_cost, growing_cost, harvesting_cost):
        with pytest.raises(ValidationError, match="n >= 1"):
            fn(0.5, ECON)
    with pytest.raises(ValidationError):
        sell_revenue(-1, ECON)


def test_series_without_deaths():
    series = economic_series([100, 100, 100], ECON)
    expected = (
        -seeding_cost(100, ECON) - growing_cost(100, ECON),
        -growing_cost(100, ECON),
        sell_revenue(100, ECON) - harvesting_cost(100, ECON),
    )
    assert series.per_round_output == pytest.approx(expected)
    assert series.total_profit == sum(series.per_round_output)


def test_series_two_round_season():
    series = economic_series([50, 40], ECON)
    assert len(series.per_round_output) == 2
    assert series.per_round_output[1] == pytest.approx(
        sell_revenue(40, ECON) - harvesting_cost(40, ECON)
    )


def test_series_rejects_single_round():
    with pytest.raises(ValidationError):
        economic_series([100], ECON)


def test_series_wiped_out_rounds_contribute_zero():
    series = economic_series([100, 0.5, 0], ECON)
    assert series.per_round_output[1] == 0.0
    assert series.per_round_output[2] == 0.0
    assert series.total_profit == series.per_round_output[0]


def test_series_died_early():
    series = economic_series([400, 0, 0], ECON, died_early=True)
    assert series.per_round_output == (-seeding_cost(400, ECON), 0.0, 0.0)
    assert series.total_profit == -seeding_cost(400, ECON)


def test_series_died_early_defaults_to_first_round_count():
    series = economic_series([400, 400, 400], ECON, died_early=True)
    assert series.total_profit == -seeding_cost(400, ECON)


series_values = st.lists(
    st.one_of(st.floats(0.0, 0.99), st.floats(1.0, 10**6)), min_size=2, max_size=8
)


@given(series_values)
def test_series_shape_and_signs(n_t):
    series = economic_series(n_t, ECON)
    assert len(series.per_round_output) == len(n_t)
    assert series.total_profit == sum(series.per_round_output)
    # every pre-harvest round is a cost (or a wiped-out zero)
    assert all(v <= 0.0 for v in series.per_round_output[:-1])


@given(st.floats(1.0, 10**6), st.floats(0.1, 50.0))
def test_revenue_increases_with_price(n, bump):
    richer = EconomicParams(sell_price=ECON.sell_price + bump)
    assert sell_revenue(n, richer) > sell_revenue(n, ECON) or n == 0


@given(st.floats(1.0, 10**6))
def test_costs_monotone_in_population(n):
    assert seeding_cost(n + 1, ECON) > seeding_cost(n, ECON)
    assert growing_cost(n + 1, ECON) > growing_cost(n, ECON)
    assert harvesting_cost(n + 1, ECON) > harvesting_cost(n, ECON)


@given(st.floats(1.0, 10**6))
def test_revenue_monotone_when_price_dominates_discount(n):
    # d/dn (psi1 n - psi2 ln n) = psi1 - psi2/n > 0 whenever n > psi2/psi1
    if n > ECON.sell_discount / ECON.sell_price:
        assert sell_revenue(n + 1, ECON) > sell_revenue(n, ECON)


@given(
    st.lists(
        st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)), min_size=2, max_size=6),
        min_size=1,
        max_size=10,
    ),
    st.floats(0.0, 1.0),
    st.floats(0.01, 10.0),
)
def test_total_profits_equal_series_totals(series, grow_per_plant, sell_price):
    # counts below 1 included: those rounds output 0 on both paths
    horizon = len(series[0])
    series = [s[:horizon] + [1.5] * (horizon - len(s)) for s in series]
    econ = EconomicParams(grow_per_plant=grow_per_plant, sell_price=sell_price)
    totals = total_profits(np.array(series).T, econ)
    assert totals.tolist() == [economic_series(s, econ).total_profit for s in series]


def test_total_profits_need_two_rounds():
    with pytest.raises(ValidationError, match="T >= 2"):
        total_profits(np.ones((1, 3)), ECON)
