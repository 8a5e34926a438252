"""One JSON document carrying every module's parameters.

Each section is the dataclass of the module that reads it (only ``area`` lives
here), which checks each value's type and range as :mod:`levelflow.errors`
states, naming the key, whether a config, a flag or a library call supplies
the value; the ``schedule`` section builds its chain, so one that cannot run
fails at load.  The document is versioned, validated strictly (unknown keys
anywhere are rejected so typos cannot silently fall back to defaults) and
reproduced verbatim into run manifests, so a run can be repeated from its
manifest alone, by the same subcommand.  Settings that are gone now
(``_RETIRED``: ``schedule.kind``, the ``numerics`` section, the area override
and two ``par`` keys) are dropped at the one value they ever took, so older
manifests still replay; any other value or type of one is rejected.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

from .diffusion import DiffusionSchedule, GuidancePolicy, LossParams, SamplerParams
from .errors import NON_NEGATIVE, InvalidInputError, Params, Rule, param
from .geodesic import SpeedParams
from .levelset import EnergyWeights, EvolveParams, HeavisideParams
from .par import ParParams
from .rng import SEED

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
class AreaParams(Params):
    """Area prior target a1; None means the run's mask area, or half the domain in ``sample``."""

    a1_target: float | None = param(None, Rule(NON_NEGATIVE.test, "null or finite and >= 0"))


@dataclass(frozen=True)
class ExperimentConfig(Params):
    seed: int = param(0, SEED)
    heaviside: HeavisideParams = field(default_factory=HeavisideParams)
    weights: EnergyWeights = field(default_factory=EnergyWeights)
    area: AreaParams = field(default_factory=AreaParams)
    speed: SpeedParams = field(default_factory=SpeedParams)
    par: ParParams = field(default_factory=ParParams)
    schedule: DiffusionSchedule = field(default_factory=DiffusionSchedule)
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
    kwargs: dict = {"seed": doc.get("seed", 0)}
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
        bad = (set(live) - {f.name for f in fields(cls)}) if cls else set(live)
        if bad:
            raise InvalidInputError(f"unknown config keys: {sorted(f'{name}.{k}' for k in bad)}")
        if cls:
            kwargs[name] = _built(cls, live, f"{name}.")
    return _built(ExperimentConfig, kwargs, "")


def _built(cls, kwargs: dict, prefix: str):
    try:
        return cls(**kwargs)
    except InvalidInputError as exc:  # each check names its key first
        raise InvalidInputError(f"config {prefix}{exc}") from None


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
