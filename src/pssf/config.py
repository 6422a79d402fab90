"""Scenario configuration: one flat YAML file per scenario, strictly validated.

Unknown keys are errors everywhere (no silent typos). ``validate_config``
merges a user config onto the documented defaults and returns the fully
resolved dictionary, which every run writes beside its outputs so any
artifact can be reproduced from what sits next to it.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

import jsonschema
import yaml

from . import kfun
from .dynamics import BENCHMARK_PERTURBATION, SegwayParams
from .learning import FeatureMap


class ConfigError(ValueError):
    """Invalid, unknown, or ill-typed scenario configuration content."""


_SEGWAY_FIELDS = list(SegwayParams.__dataclass_fields__)

DEFAULT_CONFIG = {
    "system": {
        **dataclasses.asdict(SegwayParams()),
        "perturbation": {
            "scale": dict(BENCHMARK_PERTURBATION.scale),
            "drop_friction": BENCHMARK_PERTURBATION.drop_friction,
        },
    },
    "barrier": {
        "pitch_max": 0.3,
        "pitch_rate_max": 1.0,
        "alpha": {"family": "linear", "k": 1.0},
    },
    "controller": {
        "kp": 220.0,
        "kd": 45.0,
        "u_max": 100.0,
        "reference": {"amplitude": 0.25, "frequency": 0.45},
    },
    "learning": {
        "episodes": 5,
        "episode_duration": 10.0,
        "features": {"kind": "polynomial", "max_degree": 2, "indices": [1, 2, 3], "seed": 0},
        "ridge_lambda": 1.0e-3,
        "excitation": {"amplitude": 8.0, "hold_steps": 20},
        "x0_jitter": None,
        "noise_std": None,
    },
    "run": {
        "duration": 10.0,
        "dt": 1.0e-3,
        "seed": 0,
        "x0": [0.0, 0.0, 0.0, 0.0],
    },
}

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NONNEGATIVE = {"type": "number", "minimum": 0}

_FEATURES_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": ["polynomial", "random_fourier"]},
        "max_degree": {"type": "integer", "minimum": 1},
        "count": {"type": "integer", "minimum": 1},
        "bandwidth": _POSITIVE,
        "seed": {"type": "integer"},
        "indices": {"type": "array", "items": {"type": "integer", "minimum": 0, "maximum": 3}},
    },
    "required": ["kind"],
}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["system", "barrier", "controller", "learning", "run"],
    "properties": {
        "system": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                **{name: _POSITIVE for name in _SEGWAY_FIELDS if name != "viscous_friction"},
                "viscous_friction": _NONNEGATIVE,
                "perturbation": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "scale": {
                            "type": "object",
                            "propertyNames": {"enum": _SEGWAY_FIELDS},
                            "additionalProperties": _POSITIVE,
                        },
                        "drop_friction": {"type": "boolean"},
                    },
                },
            },
        },
        "barrier": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "pitch_max": _POSITIVE,
                "pitch_rate_max": _POSITIVE,
                "alpha": {"type": "object"},
            },
        },
        "controller": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kp": _NUMBER,
                "kd": _NUMBER,
                "u_max": _POSITIVE,
                "reference": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {"amplitude": _NONNEGATIVE, "frequency": _NONNEGATIVE},
                },
            },
        },
        "learning": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "episodes": {"type": "integer", "minimum": 1},
                "episode_duration": _POSITIVE,
                "features": _FEATURES_SCHEMA,
                "ridge_lambda": _POSITIVE,
                "excitation": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "amplitude": _NONNEGATIVE,
                        "hold_steps": {"type": "integer", "minimum": 1},
                    },
                },
                "x0_jitter": {
                    "anyOf": [
                        {"type": "null"},
                        {"type": "array", "items": _NONNEGATIVE, "minItems": 4, "maxItems": 4},
                    ]
                },
                "noise_std": {
                    "anyOf": [
                        {"type": "null"},
                        _NONNEGATIVE,
                        {"type": "array", "items": _NONNEGATIVE, "minItems": 4, "maxItems": 4},
                    ]
                },
            },
        },
        "run": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "duration": _POSITIVE,
                "dt": _POSITIVE,
                "seed": {"type": "integer"},
                "x0": {"type": "array", "items": _NUMBER, "minItems": 4, "maxItems": 4},
            },
        },
    },
}

# Built and checked against its metaschema once: jsonschema.validate repeats that check on every call.
# A number must also fit a finite float: YAML's .inf and .nan, or an integer
# beyond float range, would otherwise reach the dynamics and the certificate.
_BASE_VALIDATOR = jsonschema.validators.validator_for(SCHEMA)
_VALIDATOR = jsonschema.validators.extend(_BASE_VALIDATOR, type_checker=_BASE_VALIDATOR.TYPE_CHECKER.redefine(
    "number", lambda checker, x: _BASE_VALIDATOR.TYPE_CHECKER.is_type(x, "number") and abs(x) <= sys.float_info.max,
))(SCHEMA)
_VALIDATOR.check_schema(SCHEMA)


# Blocks whose keys form one value (a scaling map, a function family spec):
# a user override replaces them wholesale instead of merging with defaults.
_REPLACE_PATHS = {
    ("system", "perturbation", "scale"),
    ("barrier", "alpha"),
    ("learning", "features"),
}


def _deep_merge(base: dict, override: dict, path: tuple = ()) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = path + (key,)
        if isinstance(value, dict) and isinstance(out.get(key), dict) and here not in _REPLACE_PATHS:
            out[key] = _deep_merge(out[key], value, here)
        else:
            out[key] = copy.deepcopy(value)
    return out


def validate_config(user: dict) -> dict:
    """Merge onto defaults and validate; returns the fully resolved config."""
    if not isinstance(user, dict):
        raise ConfigError(f"config must be a mapping, got {type(user).__name__}")
    resolved = _deep_merge(DEFAULT_CONFIG, user)
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(resolved))
    if error is not None:
        path = ".".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config error at {path}: {error.message}") from error

    # The alpha and feature blocks have kind-specific keys; the parsers that
    # build them are the authority on those. Every certificate needs alpha^-1,
    # so an alpha whose inverse overflows or underflows is rejected here too.
    try:
        kfun.from_config(resolved["barrier"]["alpha"]).inverse()
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"config error at barrier.alpha: {exc}") from exc
    try:
        FeatureMap.from_config(resolved["learning"]["features"])
    except ValueError as exc:
        raise ConfigError(f"config error at learning.features: {exc}") from exc
    return resolved


def load_config(path) -> dict:
    """Read a YAML scenario file and return the resolved config."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            user = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if user is None:
        user = {}
    return validate_config(user)


def save_config(cfg: dict, path) -> None:
    """Write a resolved config as YAML (deterministic key order)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)


def set_by_path(cfg: dict, dotted: str, value: float) -> dict:
    """Return a copy of cfg with the numeric leaf at `a.b.c` replaced."""
    keys = dotted.split(".")
    out = copy.deepcopy(cfg)
    node = out
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"no config entry at {dotted!r}")
        node = node[key]
    leaf = keys[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"no config entry at {dotted!r}")
    if isinstance(node[leaf], bool) or not isinstance(node[leaf], (int, float)):
        raise ConfigError(f"config entry at {dotted!r} is not numeric")
    node[leaf] = int(value) if isinstance(node[leaf], int) and float(value).is_integer() else float(value)
    return out
