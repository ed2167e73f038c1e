"""Scenario configuration: typed parameters, validation, and file round-trip.

A Scenario bundles everything one run needs: field geometry, pathogen
properties, the cost/revenue coefficients, the seeding spacing, the season
horizon, and the RNG seed. All types are frozen dataclasses; a Scenario
that constructs successfully satisfies every invariant, so downstream
modules never re-validate.

Scenario files are flat INI-style key/value text with sections [field],
[pathogen], [economics], [strategy], and [run]; any omitted key falls back
to the default parameterization (see `scenario_default`).
"""

from __future__ import annotations

import configparser
import enum
import math
from dataclasses import dataclass, field as dc_field, fields, replace


class ValidationError(ValueError):
    """A scenario invariant was violated; the message names the invariant."""


class ScenarioParseError(ValueError):
    """A scenario file is malformed (bad syntax, unknown key, bad literal)."""


def _require(cond: bool, invariant: str) -> None:
    if not cond:
        raise ValidationError(f"invariant violated: {invariant}")


class PlacementMode(enum.Enum):
    RANDOM = "random"
    WORST_CASE = "worstcase"


@dataclass(frozen=True)
class FieldSpec:
    """Rectangular field: width x height in meters, plus the minimal
    viable seeding distance below which plants die before harvest."""

    width_m: float = 100.0
    height_m: float = 100.0
    min_spacing_m: float = 0.1

    def __post_init__(self):
        for name in ("width_m", "height_m", "min_spacing_m"):
            _require(math.isfinite(getattr(self, name)), f"{name} is finite")
        _require(self.width_m > 0, "width_m > 0")
        _require(self.height_m > 0, "height_m > 0")
        _require(self.min_spacing_m > 0, "min_spacing_m > 0")


@dataclass(frozen=True)
class PathogenParams:
    """Pathogen transmissibility and per-round removal behaviour.

    beta0 is the distance-one infection probability; the pairwise
    probability decays as beta0 / distance. gamma is the per-round
    probability an infected plant is removed. initial_infected is the
    number of plants exposed immediately after seeding.
    """

    beta0: float = 0.003
    gamma: float = 1.0 / 42.0
    initial_infected: int = 3

    def __post_init__(self):
        _require(0.0 <= self.beta0 <= 1.0, "0 <= beta0 <= 1")
        _require(0.0 < self.gamma <= 1.0, "0 < gamma <= 1")
        _require(self.initial_infected >= 1, "initial_infected >= 1")


@dataclass(frozen=True)
class EconomicParams:
    """Cost/revenue coefficients.

    Each activity (seeding, growing, harvesting) costs
    per_plant * ln(n) + overhead_coeff * n; selling n plants earns
    sell_price * n - sell_discount * ln(n). Overheads are stored as
    per-plant coefficients and multiplied by the population size at
    evaluation time.
    """

    seed_per_plant: float = 0.01
    seed_overhead_coeff: float = 0.14
    grow_per_plant: float = 0.033
    grow_overhead_coeff: float = 0.019
    harvest_per_plant: float = 0.06
    harvest_overhead_coeff: float = 0.11
    sell_price: float = 5.32
    sell_discount: float = 1.71

    def __post_init__(self):
        for f in fields(self):
            _require(math.isfinite(getattr(self, f.name)), f"{f.name} is finite")
            _require(getattr(self, f.name) >= 0, f"{f.name} >= 0")
        _require(self.sell_price > 0, "sell_price > 0")


@dataclass(frozen=True)
class SeedingStrategy:
    """Row/column spacing of the planting lattice, in meters."""

    dx_m: float = 0.2
    dy_m: float = 0.2

    def __post_init__(self):
        for name in ("dx_m", "dy_m"):
            _require(math.isfinite(getattr(self, name)), f"{name} is finite")
        _require(self.dx_m > 0, "dx_m > 0")
        _require(self.dy_m > 0, "dy_m > 0")


@dataclass(frozen=True)
class Scenario:
    """One fully specified season: geometry, pathogen, economics, strategy,
    horizon, initial-infection placement mode, and RNG seed.

    The lattice may hold at most MAX_PLANTS plants. explicit_count, when
    set, truncates it to its first explicit_count positions in row-major
    order (a population-size override); it must fit within the lattice
    capacity.
    """

    field: FieldSpec = dc_field(default_factory=FieldSpec)
    pathogen: PathogenParams = dc_field(default_factory=PathogenParams)
    economics: EconomicParams = dc_field(default_factory=EconomicParams)
    strategy: SeedingStrategy = dc_field(default_factory=SeedingStrategy)
    horizon_steps: int = 3
    placement_mode: PlacementMode = PlacementMode.RANDOM
    rng_seed: int = 0
    explicit_count: int | None = None

    def __post_init__(self):
        _require(self.horizon_steps >= 2, "horizon_steps >= 2")
        _require(0 <= self.rng_seed < 2**64, "0 <= rng_seed < 2**64")
        from .field import MAX_PLANTS, lattice_size

        size = lattice_size(self.field, self.strategy.dx_m, self.strategy.dy_m)
        _require(
            size <= MAX_PLANTS,
            f"lattice capacity <= MAX_PLANTS ({MAX_PLANTS}), got {size:.7g}",
        )
        if self.explicit_count is not None:
            _require(self.explicit_count >= 1, "explicit_count >= 1")
            cap = int(size)
            _require(
                self.explicit_count <= cap,
                f"explicit_count <= grid capacity ({cap})",
            )


def scenario_default() -> Scenario:
    """The default parameterization (Rhizoctonia solani on potatoes,
    US-market cost figures). Every field takes its dataclass default."""
    return Scenario()


# ---------------------------------------------------------------------------
# File format


_SECTIONS: dict[str, tuple[str, ...]] = {
    "field": ("width_m", "height_m", "min_spacing_m"),
    "pathogen": ("beta0", "gamma", "initial_infected"),
    "economics": (
        "seed_per_plant",
        "seed_overhead_coeff",
        "grow_per_plant",
        "grow_overhead_coeff",
        "harvest_per_plant",
        "harvest_overhead_coeff",
        "sell_price",
        "sell_discount",
    ),
    "strategy": ("dx_m", "dy_m"),
    "run": ("horizon_steps", "placement_mode", "rng_seed", "explicit_count"),
}

_INT_KEYS = {"initial_infected", "horizon_steps", "rng_seed", "explicit_count"}


def _parse_float(text: str) -> float:
    """Plain literals and simple fractions ("1/42") for rates; any bad
    literal, a zero denominator included, raises ScenarioParseError."""
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            return float(num) / float(den)
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioParseError(f"bad number: {text!r}") from exc


def _coerce(key: str, text: str):
    text = text.strip()
    try:
        if key == "placement_mode":
            return PlacementMode(text.lower())
        if key in _INT_KEYS:
            return int(text)
        return _parse_float(text)
    except ValueError as exc:
        raise ScenarioParseError(f"bad value for {key!r}: {text!r}") from exc


def load_scenario(path) -> Scenario:
    """Parse a scenario file, apply defaults for omitted keys, validate.

    Raises ScenarioParseError on malformed files or unknown keys and
    ValidationError (naming the invariant) on out-of-range values.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ScenarioParseError(f"cannot parse {path}: {exc}") from exc

    values: dict[str, dict] = {section: {} for section in _SECTIONS}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ScenarioParseError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ScenarioParseError(f"unknown key {key!r} in [{section}]")
            values[section][key] = _coerce(key, raw)

    run = values["run"]
    return Scenario(
        field=FieldSpec(**values["field"]),
        pathogen=PathogenParams(**values["pathogen"]),
        economics=EconomicParams(**values["economics"]),
        strategy=SeedingStrategy(**values["strategy"]),
        **run,
    )


def apply_overrides(scenario: Scenario, overrides: dict[str, str]) -> Scenario:
    """Apply "section.key=value" overrides to an existing Scenario.

    Keys must name a known scenario field; the result is re-validated.
    """
    by_section: dict[str, dict] = {}
    for dotted, raw in overrides.items():
        section, _, key = dotted.partition(".")
        if section not in _SECTIONS or key not in _SECTIONS[section]:
            raise ScenarioParseError(f"unknown scenario key {dotted!r}")
        by_section.setdefault(section, {})[key] = _coerce(key, raw)

    parts = {}
    for section, kv in by_section.items():
        if section == "run":
            parts.update(kv)
        else:
            attr = "field" if section == "field" else section
            parts[attr] = replace(getattr(scenario, attr), **kv)
    return replace(scenario, **parts)


def _format_value(value) -> str:
    if isinstance(value, PlacementMode):
        return value.value
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dumps_scenario(scenario: Scenario) -> str:
    """Render a scenario in the file format (inverse of `load_scenario`)."""
    groups = {
        "field": scenario.field,
        "pathogen": scenario.pathogen,
        "economics": scenario.economics,
        "strategy": scenario.strategy,
    }
    lines = []
    for section, obj in groups.items():
        lines.append(f"[{section}]")
        for key in _SECTIONS[section]:
            lines.append(f"{key} = {_format_value(getattr(obj, key))}")
        lines.append("")
    lines.append("[run]")
    for key in _SECTIONS["run"]:
        value = getattr(scenario, key)
        if value is None:
            continue
        lines.append(f"{key} = {_format_value(value)}")
    lines.append("")
    return "\n".join(lines)


def write_scenario(scenario: Scenario, path) -> None:
    """Write a scenario file that `load_scenario` reads back equal."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_scenario(scenario))
