"""One JSON document carrying every module's parameters.

Each section is the dataclass of the module that reads it (only ``area``
lives here), which checks its ranges, naming the key, whether a config, a
flag or a library call supplies the value.  The document is versioned,
validated strictly (unknown keys anywhere are rejected so typos cannot
silently fall back to defaults; each value must have its field's annotated
type) and reproduced verbatim into run manifests, so a run can be repeated
from its manifest alone, by the same subcommand.  Settings that are gone
now (``_RETIRED``: ``schedule.kind``, the ``numerics`` section, the area
override and two ``par`` keys) are dropped at the one value they ever took,
so older manifests still replay; any other value or type of one is
rejected.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import asdict, dataclass, field, fields

from .diffusion import GuidancePolicy, LossParams, SamplerParams, ScheduleParams
from .errors import InvalidInputError, require
from .geodesic import SpeedParams
from .levelset import EnergyWeights, EvolveParams, HeavisideParams
from .par import ParParams
from .rng import SEED_BOUND

SCHEMA_VERSION = 1
# (section, key) -> the one value older documents hold; the numerical
# floors are module constants now (levelset.VAR_FLOOR, levelset.GRAD_FLOOR,
# par.SIGMA_FLOOR), a2 is always the domain minus a1, and the affinity
# always uses intensity.
_RETIRED = {
    ("schedule", "kind"): "linear",
    ("numerics", "mapping"): "offset",
    ("numerics", "var_floor"): 1e-06,
    ("numerics", "grad_floor"): 1e-08,
    ("par", "sigma_floor"): 0.0001,
    ("area", "a2_target"): None,
    ("area", "overridden"): False,
    ("par", "features"): "intensity",
}


@dataclass(frozen=True)
class AreaParams:
    """Target a1 for the area prior; None means derive it from the run's mask."""

    a1_target: float | None = None

    def __post_init__(self):
        a1 = self.a1_target
        require(a1 is None or 0 <= a1 < math.inf, "a1_target", "null or finite and >= 0", a1)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    heaviside: HeavisideParams = field(default_factory=HeavisideParams)
    weights: EnergyWeights = field(default_factory=EnergyWeights)
    area: AreaParams = field(default_factory=AreaParams)
    speed: SpeedParams = field(default_factory=SpeedParams)
    par: ParParams = field(default_factory=ParParams)
    schedule: ScheduleParams = field(default_factory=ScheduleParams)
    guidance: GuidancePolicy = field(default_factory=GuidancePolicy)
    sampler: SamplerParams = field(default_factory=SamplerParams)
    evolve: EvolveParams = field(default_factory=EvolveParams)
    losses: LossParams = field(default_factory=LossParams)

    def to_dict(self) -> dict:
        sections = {name: asdict(getattr(self, name)) for name in _SECTION_TYPES}
        return {"schema_version": SCHEMA_VERSION, "seed": self.seed, **sections}


_SECTION_TYPES = {f.name: f.default_factory for f in fields(ExperimentConfig) if f.name != "seed"}
# Live sections, then sections (``numerics``) that hold retired keys only.
_SECTIONS = dict.fromkeys([*_SECTION_TYPES, *(name for name, _ in _RETIRED)])
_ACCEPTS = {float: (int, float), int: int, str: str}


def _fits(hint, value) -> bool:
    """Whether a JSON value has the annotated type (checked, not converted)."""
    kinds = typing.get_args(hint) or (hint,)  # float | None -> (float, NoneType)
    if value is None:
        return type(None) in kinds
    # bool is an int subclass, but true is not a number
    return isinstance(value, _ACCEPTS[kinds[0]]) and not isinstance(value, bool)


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise InvalidInputError("config document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise InvalidInputError(
            f"config schema_version {version!r} not supported (expected {SCHEMA_VERSION})"
        )
    unknown = set(doc) - set(_SECTIONS) - {"schema_version", "seed"}
    if unknown:
        raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
    seed = doc.get("seed", 0)
    if not (_fits(int, seed) and 0 <= seed < SEED_BOUND):
        raise InvalidInputError(f"config seed expects an int in [0, 2**64), got {seed!r}")
    kwargs: dict = {"seed": seed}
    for name in _SECTIONS:
        section = doc.get(name, {})
        if not isinstance(section, dict):
            raise InvalidInputError(f"config section {name!r} must be an object")
        live = {}
        for key, value in section.items():
            if (name, key) not in _RETIRED:
                live[key] = value
                continue
            old = _RETIRED[name, key]
            if type(value) is not type(old) or value != old:  # type too: 0 == False
                raise InvalidInputError(f"config {name}.{key} is retired; it takes only {old!r}")
        cls = _SECTION_TYPES.get(name)
        hints = typing.get_type_hints(cls) if cls else {}
        bad = set(live) - hints.keys()
        if bad:
            raise InvalidInputError(f"unknown config keys: {sorted(f'{name}.{k}' for k in bad)}")
        for key, value in live.items():
            if not _fits(hints[key], value):
                text = cls.__annotations__[key]  # the annotation as written, e.g. "float | None"
                raise InvalidInputError(f"config {name}.{key} expects {text}, got {value!r}")
        if cls:
            try:
                kwargs[name] = cls(**live)
            except InvalidInputError as exc:  # each section's range check names its key first
                raise InvalidInputError(f"config {name}.{exc}") from None
    return ExperimentConfig(**kwargs)


def load_config_document(path, command: str) -> tuple[ExperimentConfig, dict | None]:
    """Load a config file, or the manifest of a run of ``command`` (not of another).

    Returns (config, manifest_args) where manifest_args is None for plain
    config files.
    """

    def finite(text):
        value = float(text)
        if not math.isfinite(value):
            raise InvalidInputError(f"config {path} holds the non-finite number {text}")
        return value

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=finite, parse_constant=finite)
    except OSError as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:  # malformed JSON, or an integer too long to convert
        raise InvalidInputError(f"config {path} is not valid JSON: {exc}") from None
    if isinstance(doc, dict) and "artifacts" in doc and "command" in doc:
        if "config" not in doc:
            raise InvalidInputError(f"manifest {path} has no 'config' key")
        if doc["command"] != command:
            raise InvalidInputError(
                f"manifest {path} replays only the {doc['command']!r} subcommand, not {command!r}"
            )
        args = doc.get("args", {})
        if not isinstance(args, dict):
            raise InvalidInputError(f"manifest {path}: 'args' must be an object")
        return config_from_dict(doc["config"]), args
    return config_from_dict(doc), None
