"""Config file handling: documented keys, strict validation, flag overrides.

The config file is JSON with the keys below (all optional).  The fields
of ``HyperParams`` (model), ``TrainConfig`` (training, bar ``hp``),
``LogFormat`` (raw log layout) and ``PreprocessConfig`` (the settings of
``corpus.preprocess``) declare every key: a field's name is the key, its
default the key's default and its annotation the types the key accepts.
CLI flags, whose ``dest`` is the key, override file values.  Unknown keys
are rejected so a typo cannot silently fall back to a default; allowed
values are checked by the dataclass that ``from_config`` builds.  Every
command echoes the effective configuration into its outputs' provenance
blocks.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, fields
from typing import get_args, get_type_hints

from .corpus import LogFormat, PreprocessConfig
from .errors import ConfigError
from .model import HyperParams
from .trainer import TrainConfig

ENV_CONFIG = "CASIF_CONFIG"

_DECLARED = (HyperParams, TrainConfig, LogFormat, PreprocessConfig)   # model, training, log layout, preprocessing

# TrainConfig.hp has a default factory, not a default, so it is no key
DEFAULTS = {f.name: f.default for cls in _DECLARED for f in fields(cls) if f.default is not MISSING}


def field_types(cls) -> dict:
    """Each field's annotated types, in order: ``int | None`` gives ``(int, NoneType)``."""
    return {name: get_args(hint) or (hint,) for name, hint in get_type_hints(cls).items()}


# each key takes its field's annotated types; a float key also takes an int
_TYPES = {key: (int, float) if types == (float,) else types
          for cls in _DECLARED for key, types in field_types(cls).items() if key in DEFAULTS}


def load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"config {path} is nested too deeply to parse") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return raw


def effective_config(config_path=None, overrides=None) -> dict:
    """DEFAULTS, updated by the config file, updated by CLI overrides.

    The file path falls back to the CASIF_CONFIG environment variable.
    Unknown keys and wrong types are configuration errors.
    """
    cfg = dict(DEFAULTS)
    path = config_path or os.environ.get(ENV_CONFIG)
    given = load_config_file(path) if path else {}
    given.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    for key, value in given.items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = value
    for key, expected in _TYPES.items():
        value = cfg[key]
        if isinstance(value, bool) and bool not in expected:    # JSON true is no number
            raise ConfigError(f"config key {key!r} must not be a boolean, got {value!r}")
        if not isinstance(value, expected):
            raise ConfigError(f"config key {key!r} has wrong type: {value!r}")
    return cfg


def from_config(cls, cfg: dict, **given):
    """``cls`` with each field not ``given`` read from its key; a float field takes float(...) of an int."""
    for f in fields(cls):
        if f.name not in given:
            given[f.name] = float(cfg[f.name]) if isinstance(f.default, float) else cfg[f.name]
    return cls(**given)
