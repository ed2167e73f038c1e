"""Scenario configuration: typed parameters, validation, and file round-trip.

A Scenario bundles everything one run needs: field geometry, pathogen
properties, the cost/revenue coefficients, the seeding spacing, the season
horizon, and the RNG seed. All types are frozen dataclasses; a Scenario
that constructs successfully satisfies every invariant, so downstream
modules never re-validate.

Scenario files are flat INI-style key/value text. The sections and keys
are the dataclass fields, in declaration order: [field], [pathogen],
[economics] and [strategy] hold the fields of their classes, and [run]
the other Scenario fields. Any omitted key falls back to the default
parameterization (see `scenario_default`). A file is read as "--set"
overrides of the default, through `apply_overrides`.
"""

from __future__ import annotations

import configparser
import enum
import math
from dataclasses import dataclass, field as dc_field, fields, is_dataclass, replace
from typing import get_args, get_type_hints


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


# Most rounds a season may have. At the default gamma of 1/42 per round (a
# 42-day mean infectious period) rounds are days, so this admits seasons of
# almost three years. It bounds the per-round series of a season, its
# simulation loop, and analytic scoring, whose work grows with candidates
# times rounds.
MAX_HORIZON = 1000


@dataclass(frozen=True)
class Scenario:
    """One fully specified season: geometry, pathogen, economics, strategy,
    horizon, initial-infection placement mode, and RNG seed.

    A season has 2 to MAX_HORIZON rounds. The lattice may hold at most
    MAX_PLANTS plants. explicit_count, when set, truncates it to its first
    explicit_count positions in row-major order (a population-size
    override); it must fit within the lattice capacity. A worst-case placement of k initial infections on N plants
    may cost at most k * N <= MAX_KCENTER_WORK.
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
        _require(
            self.horizon_steps <= MAX_HORIZON,
            f"horizon_steps <= MAX_HORIZON ({MAX_HORIZON}), got {self.horizon_steps}",
        )
        _require(0 <= self.rng_seed < 2**64, "0 <= rng_seed < 2**64")
        from .field import MAX_PLANTS, lattice_size
        from .worstcase import MAX_KCENTER_WORK

        size = lattice_size(self.field, self.strategy.dx_m, self.strategy.dy_m)
        _require(
            size <= MAX_PLANTS,
            f"lattice capacity <= MAX_PLANTS ({MAX_PLANTS}), got {size:.7g}",
        )
        plants = int(size)
        if self.explicit_count is not None:
            _require(self.explicit_count >= 1, "explicit_count >= 1")
            _require(
                self.explicit_count <= plants,
                f"explicit_count <= grid capacity ({plants})",
            )
            plants = self.explicit_count
        if self.placement_mode is PlacementMode.WORST_CASE:
            work = self.pathogen.initial_infected * plants
            _require(
                work <= MAX_KCENTER_WORK,
                "worstcase placement: initial_infected * plant count <= "
                f"MAX_KCENTER_WORK ({MAX_KCENTER_WORK}), got {work}",
            )


def scenario_default() -> Scenario:
    """The default parameterization (Rhizoctonia solani on potatoes,
    US-market cost figures). Every field takes its dataclass default."""
    return Scenario()


# ---------------------------------------------------------------------------
# File format


def _key_types(cls) -> dict[str, type]:
    """A dataclass's fields in declaration order, each mapped to the type
    its value is parsed as."""
    hints = get_type_hints(cls)
    types = {}
    for f in fields(cls):
        # X | None is parsed as X: a file cannot spell None.
        args = [t for t in get_args(hints[f.name]) if t is not type(None)]
        types[f.name] = args[0] if args else hints[f.name]
    return types


# The file schema, read from the dataclasses: one section per dataclass
# field of Scenario, named after it and holding that class's keys, then
# [run] for the other Scenario fields.
_SCHEMA = {k: _key_types(t) for k, t in _key_types(Scenario).items() if is_dataclass(t)}
_SCHEMA["run"] = {k: t for k, t in _key_types(Scenario).items() if k not in _SCHEMA}


def parse_float(text: str) -> float:
    """Plain literals and simple fractions ("1/42") for rates; any bad
    literal, a zero denominator included, raises ScenarioParseError."""
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            return float(num) / float(den)
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioParseError(f"bad number: {text!r}") from exc


def _coerce(dotted: str, kind: type, text: str):
    text = text.strip()
    try:
        if issubclass(kind, enum.Enum):
            return kind(text.lower())
        return parse_float(text) if kind is float else kind(text)
    except ValueError as exc:
        raise ScenarioParseError(f"bad value for {dotted!r}: {text!r}") from exc


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

    overrides = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ScenarioParseError(f"unknown section [{section}]")
        overrides.update((f"{section}.{key}", raw) for key, raw in parser.items(section))
    return apply_overrides(Scenario(), overrides)


def apply_overrides(scenario: Scenario, overrides: dict[str, str]) -> Scenario:
    """Apply "section.key=value" overrides to an existing Scenario.

    Keys must name a known scenario field; the result is re-validated.
    """
    by_section: dict[str, dict] = {}
    for dotted, raw in overrides.items():
        section, _, key = dotted.partition(".")
        kind = _SCHEMA.get(section, {}).get(key)
        if kind is None:
            raise ScenarioParseError(f"unknown scenario key {dotted!r}")
        by_section.setdefault(section, {})[key] = _coerce(dotted, kind, raw)

    parts = by_section.pop("run", {})
    for section, kv in by_section.items():
        parts[section] = replace(getattr(scenario, section), **kv)
    return replace(scenario, **parts)


def _format_value(value) -> str:
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dumps_scenario(scenario: Scenario) -> str:
    """Render a scenario in the file format (inverse of `load_scenario`)."""
    lines = []
    for section, keys in _SCHEMA.items():
        group = scenario if section == "run" else getattr(scenario, section)
        lines.append(f"[{section}]")
        for key in keys:
            value = getattr(group, key)
            if value is not None:
                lines.append(f"{key} = {_format_value(value)}")
        lines.append("")
    return "\n".join(lines)


def write_scenario(scenario: Scenario, path) -> None:
    """Write a scenario file that `load_scenario` reads back equal."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_scenario(scenario))
