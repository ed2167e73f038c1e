import math
from dataclasses import fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fieldopt import (
    MAX_HORIZON,
    MAX_KCENTER_WORK,
    MAX_PLANTS,
    EconomicParams,
    FieldSpec,
    PathogenParams,
    PlacementMode,
    Scenario,
    ScenarioParseError,
    SeedingStrategy,
    ValidationError,
    apply_overrides,
    dumps_scenario,
    lattice_capacity,
    load_scenario,
    scenario_default,
    write_scenario,
)


def test_defaults_match_documented_parameterization():
    sc = scenario_default()
    assert sc.field == FieldSpec(width_m=100.0, height_m=100.0, min_spacing_m=0.1)
    assert sc.pathogen.beta0 == 0.003
    assert sc.pathogen.gamma == pytest.approx(1 / 42)
    assert sc.pathogen.initial_infected == 3
    assert sc.strategy == SeedingStrategy(dx_m=0.2, dy_m=0.2)
    econ = sc.economics
    assert (econ.seed_per_plant, econ.seed_overhead_coeff) == (0.01, 0.14)
    assert (econ.grow_per_plant, econ.grow_overhead_coeff) == (0.033, 0.019)
    assert (econ.harvest_per_plant, econ.harvest_overhead_coeff) == (0.06, 0.11)
    assert (econ.sell_price, econ.sell_discount) == (5.32, 1.71)
    assert sc.horizon_steps == 3
    assert sc.placement_mode is PlacementMode.RANDOM
    assert sc.rng_seed == 0
    assert sc.explicit_count is None


@pytest.mark.parametrize(
    "build",
    [
        lambda: FieldSpec(width_m=0.0),
        lambda: FieldSpec(height_m=-1.0),
        lambda: FieldSpec(min_spacing_m=0.0),
        lambda: PathogenParams(beta0=-0.1),
        lambda: PathogenParams(beta0=1.5),
        lambda: PathogenParams(gamma=0.0),
        lambda: PathogenParams(gamma=1.2),
        lambda: PathogenParams(initial_infected=0),
        lambda: EconomicParams(sell_price=0.0),
        lambda: EconomicParams(grow_per_plant=-0.01),
        lambda: SeedingStrategy(dx_m=0.0),
        lambda: SeedingStrategy(dy_m=-0.2),
        lambda: Scenario(horizon_steps=1),
        lambda: Scenario(rng_seed=-1),
        lambda: Scenario(explicit_count=0),
    ],
)
def test_invariant_rejections(build):
    with pytest.raises(ValidationError, match="invariant violated"):
        build()


def test_horizon_is_capped():
    assert Scenario(horizon_steps=MAX_HORIZON).horizon_steps == MAX_HORIZON
    with pytest.raises(ValidationError, match=f"horizon_steps <= MAX_HORIZON \\({MAX_HORIZON}\\)"):
        Scenario(horizon_steps=MAX_HORIZON + 1)


@pytest.mark.parametrize("name", ["width_m", "height_m", "min_spacing_m"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_field_dimensions_must_be_finite(name, value):
    with pytest.raises(ValidationError, match=f"{name} is finite"):
        FieldSpec(**{name: value})


@pytest.mark.parametrize(
    "cls, name",
    [(SeedingStrategy, "dx_m"), (SeedingStrategy, "dy_m")]
    + [(EconomicParams, f.name) for f in fields(EconomicParams)],
)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_strategy_and_economics_must_be_finite(cls, name, value):
    with pytest.raises(ValidationError, match=f"{name} is finite"):
        cls(**{name: value})


def test_explicit_count_must_fit_capacity():
    field = FieldSpec(width_m=1.0, height_m=1.0)
    # 6x6 lattice at 0.2 m: capacity 36
    with pytest.raises(ValidationError, match="36"):
        Scenario(field=field, explicit_count=37)
    assert Scenario(field=field, explicit_count=36).explicit_count == 36


def test_boundary_values_accepted():
    assert PathogenParams(beta0=0.0).beta0 == 0.0
    assert PathogenParams(beta0=1.0, gamma=1.0).gamma == 1.0


def test_round_trip_default(tmp_path):
    path = tmp_path / "scenario.ini"
    write_scenario(scenario_default(), path)
    assert load_scenario(path) == scenario_default()


def test_round_trip_with_explicit_count(tmp_path):
    sc = replace(scenario_default(), explicit_count=2500, rng_seed=7)
    path = tmp_path / "scenario.ini"
    write_scenario(sc, path)
    assert load_scenario(path) == sc


scenarios = st.builds(
    Scenario,
    field=st.builds(
        FieldSpec,
        width_m=st.floats(1.0, 200.0),
        height_m=st.floats(1.0, 200.0),
        min_spacing_m=st.floats(0.01, 0.5),
    ),
    pathogen=st.builds(
        PathogenParams,
        beta0=st.floats(0.0, 1.0),
        gamma=st.floats(0.001, 1.0),
        initial_infected=st.integers(1, 50),
    ),
    strategy=st.builds(
        SeedingStrategy, dx_m=st.floats(0.05, 5.0), dy_m=st.floats(0.05, 5.0)
    ),
    horizon_steps=st.integers(2, 10),
    placement_mode=st.sampled_from(PlacementMode),
    rng_seed=st.integers(0, 2**64 - 1),
)


@given(scenarios)
def test_round_trip_property(tmp_path_factory, sc):
    path = tmp_path_factory.mktemp("rt") / "scenario.ini"
    write_scenario(sc, path)
    assert load_scenario(path) == sc


def test_partial_file_gets_defaults(tmp_path):
    path = tmp_path / "partial.ini"
    path.write_text("[pathogen]\nbeta0 = 0.005\n")
    sc = load_scenario(path)
    assert sc.pathogen.beta0 == 0.005
    assert sc.field == scenario_default().field
    assert sc.economics == scenario_default().economics


def test_fraction_values(tmp_path):
    path = tmp_path / "frac.ini"
    path.write_text("[pathogen]\ngamma = 1/42\n")
    assert load_scenario(path).pathogen.gamma == 1 / 42


def test_placement_mode_parsing(tmp_path):
    path = tmp_path / "mode.ini"
    path.write_text("[run]\nplacement_mode = WorstCase\n")
    assert load_scenario(path).placement_mode is PlacementMode.WORST_CASE


@pytest.mark.parametrize(
    "content",
    [
        "[weather]\nrain = 3\n",
        "[weather]\n",
        "[field]\nwidth = 10\n",
        "[pathogen]\nbeta0 = not-a-number\n",
        "[pathogen]\ngamma = 1/0\n",
        "no section header\n",
    ],
)
def test_malformed_files_rejected(tmp_path, content):
    path = tmp_path / "bad.ini"
    path.write_text(content)
    with pytest.raises(ScenarioParseError):
        load_scenario(path)


def test_out_of_range_file_value_names_invariant(tmp_path):
    path = tmp_path / "range.ini"
    path.write_text("[pathogen]\nbeta0 = 2.0\n")
    with pytest.raises(ValidationError, match="beta0"):
        load_scenario(path)


def test_apply_overrides():
    sc = apply_overrides(
        scenario_default(),
        {"pathogen.beta0": "0.004", "run.horizon_steps": "5", "strategy.dx_m": "0.3"},
    )
    assert sc.pathogen.beta0 == 0.004
    assert sc.horizon_steps == 5
    assert sc.strategy.dx_m == 0.3
    assert sc.pathogen.gamma == pytest.approx(1 / 42)


def test_apply_overrides_rejects_unknown_key():
    with pytest.raises(ScenarioParseError, match="unknown scenario key"):
        apply_overrides(scenario_default(), {"pathogen.virulence": "2"})
    with pytest.raises(ScenarioParseError):
        apply_overrides(scenario_default(), {"beta0": "0.1"})


def test_apply_overrides_revalidates():
    with pytest.raises(ValidationError):
        apply_overrides(scenario_default(), {"pathogen.gamma": "0"})


def test_dumps_contains_all_sections():
    text = dumps_scenario(scenario_default())
    for section in ("[field]", "[pathogen]", "[economics]", "[strategy]", "[run]"):
        assert section in text
    assert "explicit_count" not in text  # None keys are omitted


def test_float_round_trip_is_exact(tmp_path):
    sc = replace(
        scenario_default(), pathogen=PathogenParams(gamma=1 / 42, beta0=0.003)
    )
    path = tmp_path / "exact.ini"
    write_scenario(sc, path)
    loaded = load_scenario(path)
    assert loaded.pathogen.gamma == sc.pathogen.gamma
    assert math.isclose(loaded.pathogen.beta0, 0.003, rel_tol=0, abs_tol=0)


def test_lattice_capacity_is_capped():
    assert MAX_PLANTS == 20_000_000
    # 5001 x 5001 plants at the default 0.2 m spacing
    with pytest.raises(ValidationError, match="MAX_PLANTS"):
        Scenario(field=FieldSpec(width_m=1000.0, height_m=1000.0))
    sc = Scenario(field=FieldSpec(width_m=894.4, height_m=894.0))
    assert lattice_capacity(sc.field, sc.strategy) == 4473 * 4471 == 19_998_783


@pytest.mark.parametrize("dx", [1e-300, 1e-320])
def test_tiny_spacing_is_rejected_by_name(dx):
    # 1e-320 overflows the count to inf; 1e-300 gives a finite 1e304
    with pytest.raises(ValidationError, match="MAX_PLANTS"):
        replace(scenario_default(), strategy=SeedingStrategy(dx_m=dx, dy_m=0.2))


def test_worstcase_placement_work_is_capped():
    assert MAX_KCENTER_WORK == 10**9
    worst = replace(scenario_default(), placement_mode=PlacementMode.WORST_CASE)

    def infected(sc, k):
        return replace(sc, pathogen=replace(sc.pathogen, initial_infected=k))

    # 251,001 plants: 3,984 centers fit, 3,985 do not
    assert infected(worst, 3984).pathogen.initial_infected == 3984
    with pytest.raises(ValidationError, match="MAX_KCENTER_WORK"):
        infected(worst, 3985)
    # random placement costs no k-center passes; a prefix counts its plants
    infected(scenario_default(), 3985)
    infected(replace(worst, explicit_count=1000), 1000)
