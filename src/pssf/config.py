"""Scenario configuration: one flat YAML file per scenario, strictly validated.

Each key is declared once, in ``SCHEMA``, with its rule and its default, and
``DEFAULT_CONFIG`` is read from those defaults. A key with its own default is
one value that an override replaces whole. Unknown keys are errors
everywhere (no silent typos). ``validate_config`` walks the rules and returns
the fully resolved dictionary, which every run writes beside its outputs so
any artifact can be reproduced from what sits next to it; what needs a built
object is checked where ``scenario.build_scenario`` builds it.

A rule is a JSON Schema subset that ``ioutil.rule_error`` walks, in model files
too: type, minimum, exclusiveMinimum, enum, properties, additionalProperties
(false), required, items, minItems, maxItems and anyOf. Of a config's errors it
reports the shallowest, a type error first, then the first in keyword order; a
failed anyOf reports a tag that no branch takes (alpha's ``family``, a map's
``kind``), or else its branch that fails in fewest ways. Alpha's rule is
``kfun.ALPHA``, which refers to itself for a composition's parts. A config is a
plain YAML tree: an anchor, an alias or nesting deeper than ``MAX_DEPTH``
levels is a config error before the file is composed.
"""

from __future__ import annotations

import copy
import dataclasses
from contextlib import contextmanager
from pathlib import Path

import yaml

from . import kfun
from .dynamics import SegwayParams, step_count
from .ioutil import AT_LEAST_ONE, POSITIVE, rule_block as _block, rule_error
from .learning import FEATURES


class ConfigError(ValueError):
    """Invalid, unknown, or ill-typed scenario configuration content."""


_SEGWAY_DEFAULTS = dataclasses.asdict(SegwayParams())

_NUMBER = {"type": "number"}
_NONNEGATIVE = {"type": "number", "minimum": 0}
_FOUR_NONNEGATIVE = {"type": "array", "items": _NONNEGATIVE, "minItems": 4, "maxItems": 4}


def _leaf(rule: dict, default) -> dict:
    return {**rule, "default": default}


# The one declaration of every config key: its rule and, under "default", its
# default value. A block with its own default is one value and is replaced
# whole by an override; a block without one takes its keys' defaults.
SCHEMA = _block(required=["system", "barrier", "controller", "learning", "run"], properties={
    "system": _block({
        **{name: _leaf(POSITIVE, value) for name, value in _SEGWAY_DEFAULTS.items() if name != "viscous_friction"},
        "viscous_friction": _leaf(_NONNEGATIVE, _SEGWAY_DEFAULTS["viscous_friction"]),
        # The design model's perturbation; the benchmark's errs in both the drift and the actuation channel.
        "perturbation": _block({
            "scale": _leaf(_block({name: POSITIVE for name in _SEGWAY_DEFAULTS}),
                           {"body_mass": 1.15, "body_inertia": 0.85, "motor_torque_scale": 0.9}),
            "drop_friction": _leaf({"type": "boolean"}, True),
        }),
    }),
    "barrier": _block({
        "pitch_max": _leaf(POSITIVE, 0.3),
        "pitch_rate_max": _leaf(POSITIVE, 1.0),
        "alpha": _leaf(kfun.ALPHA, {"family": "linear", "k": 1.0}),
    }),
    "controller": _block({
        "kp": _leaf(_NUMBER, 220.0),
        "kd": _leaf(_NUMBER, 45.0),
        "u_max": _leaf(POSITIVE, 100.0),
        "reference": _block({"amplitude": _leaf(_NONNEGATIVE, 0.25), "frequency": _leaf(_NONNEGATIVE, 0.45)}),
    }),
    "learning": _block({
        "episodes": _leaf(AT_LEAST_ONE, 5),
        "episode_duration": _leaf(POSITIVE, 10.0),
        "features": _leaf(FEATURES, {"kind": "polynomial", "max_degree": 2, "indices": [1, 2, 3], "seed": 0}),
        "ridge_lambda": _leaf(POSITIVE, 1.0e-3),
        "excitation": _block({"amplitude": _leaf(_NONNEGATIVE, 8.0), "hold_steps": _leaf(AT_LEAST_ONE, 20)}),
        "x0_jitter": _leaf({"anyOf": [{"type": "null"}, _FOUR_NONNEGATIVE]}, None),
        "noise_std": _leaf({"anyOf": [{"type": "null"}, _NONNEGATIVE, _FOUR_NONNEGATIVE]}, None),
    }),
    "run": _block({
        "duration": _leaf(POSITIVE, 10.0),
        "dt": _leaf(POSITIVE, 1.0e-3),
        "seed": _leaf({"type": "integer"}, 0),
        "x0": _leaf({"type": "array", "items": _NUMBER, "minItems": 4, "maxItems": 4}, [0.0, 0.0, 0.0, 0.0]),
    }),
})


def _defaults(schema: dict):
    if "default" in schema:
        return copy.deepcopy(schema["default"])
    return {key: _defaults(sub) for key, sub in schema["properties"].items()}


DEFAULT_CONFIG = _defaults(SCHEMA)


def _merge(schema: dict, base: dict, override: dict) -> None:
    """Override onto base, in place: blocks without their own default merge key by key, all else is replaced whole."""
    for key, value in override.items():
        sub = schema["properties"].get(key, {})
        if isinstance(value, dict) and "properties" in sub and "default" not in sub:
            _merge(sub, base[key], value)
        else:
            base[key] = copy.deepcopy(value)


def system_params(system: dict) -> tuple[SegwayParams, SegwayParams]:
    """The plant's parameters and the design model's (the plant's under the perturbation) from a ``system`` block."""
    params = SegwayParams(**{name: system[name] for name in SegwayParams.__dataclass_fields__})
    perturbation = system["perturbation"]
    scaled = {name: getattr(params, name) * factor for name, factor in perturbation["scale"].items()}
    if perturbation["drop_friction"]:
        scaled["viscous_friction"] = 0.0
    return params, dataclasses.replace(params, **scaled)


@contextmanager
def errors_at(where: str, note: str = ""):
    """Inside, a builder's ValueError or OverflowError is a config error at ``where``: ``note`` and its message."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"config error at {where}: {note}{exc}") from exc


def check_steps(duration: float, dt: float, where: str) -> None:
    """Config error at ``where`` unless duration is a whole number, at least one, of dt steps."""
    with errors_at(where):
        if step_count(duration, dt) < 1:
            raise ValueError(f"duration {duration} is less than one step of dt = {dt}")


def validate_config(user: dict) -> dict:
    """Merge onto defaults and walk ``SCHEMA``; returns the fully resolved config. It builds nothing."""
    if not isinstance(user, dict):
        raise ConfigError(f"config error: config must be a mapping, got {type(user).__name__}")
    resolved = copy.deepcopy(DEFAULT_CONFIG)
    _merge(SCHEMA, resolved, user)
    error = rule_error(SCHEMA, resolved)
    if error is not None:
        raise ConfigError(f"config error at {error}")
    return resolved


# An alpha of 97 compositions fits; each step that recurses once per level stays far inside Python's limit.
MAX_DEPTH = 100


def _check_tree(text: str, loader, path) -> None:
    """Config error unless ``text`` is a plain tree: no anchor or alias, and at most ``MAX_DEPTH`` levels.

    libyaml's composer recurses on the C stack, which some 20 000 levels overflow; its parser does not. The scan costs
    a third of a parse: it skips a text with no ``&`` or ``*`` and at most ``MAX_DEPTH`` collection-start characters.
    """
    if "&" not in text and "*" not in text and sum(map(text.count, "-?:[{")) <= MAX_DEPTH:
        return
    depth = 0
    for event in yaml.parse(text, Loader=loader):
        if getattr(event, "anchor", None) is not None:  # an anchor on a node, or an alias
            raise ConfigError(f"config error: a YAML anchor or alias at line {event.start_mark.line + 1} of {path}; "
                              f"a config is a plain tree")
        depth += isinstance(event, yaml.CollectionStartEvent) - isinstance(event, yaml.CollectionEndEvent)
        if depth > MAX_DEPTH:
            raise ConfigError(f"config error: nesting deeper than {MAX_DEPTH} levels in {path}")


def load_config(path) -> dict:
    """Read a YAML scenario file and return the resolved config.

    It parses with PyYAML's libyaml loader, ``yaml.CSafeLoader``, where the
    installed PyYAML has one, and with ``yaml.SafeLoader`` otherwise; both
    build the same dict through the same safe constructor and resolver.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, or not UTF-8
        raise ConfigError(f"config error: cannot read {path}: {exc}") from exc
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        _check_tree(text, loader, path)
        user = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config error: cannot parse {path}: {exc}") from exc
    return validate_config({} if user is None else user)


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
            raise ConfigError(f"config error: no config entry at {dotted!r}")
        node = node[key]
    leaf = keys[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"config error: no config entry at {dotted!r}")
    if isinstance(node[leaf], bool) or not isinstance(node[leaf], (int, float)):
        raise ConfigError(f"config error: config entry at {dotted!r} is not numeric")
    node[leaf] = int(value) if isinstance(node[leaf], int) and float(value).is_integer() else float(value)
    return out
