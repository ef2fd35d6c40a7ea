"""Config file handling: documented keys, strict validation, flag overrides.

The config file is JSON with the keys below (all optional).  The fields
of ``HyperParams`` (model), ``TrainConfig`` (training, bar ``hp``) and
``LogFormat`` (raw log layout) declare their keys: a field's name is the
key and its default the key's default.  Only the keys that configure
functions, not a dataclass, are written out here.  CLI flags, whose
``dest`` is the key, override file values.  Unknown keys are rejected so
a typo cannot silently fall back to a default.  Every command echoes the
effective configuration into its outputs' provenance blocks.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, fields

from .corpus import LogFormat
from .errors import ConfigError
from .model import HyperParams
from .trainer import TrainConfig

ENV_CONFIG = "CASIF_CONFIG"

_DECLARED = (HyperParams, TrainConfig, LogFormat)   # model, training, raw log layout

DEFAULTS = {
    # TrainConfig.hp has a default factory, not a default, so it is no key
    **{f.name: f.default for cls in _DECLARED for f in fields(cls) if f.default is not MISSING},
    "strict_parse": False,
    # preprocessing
    "min_item_support": 5,
    "min_session_len": 2,
    "max_session_len": 50,
    "test_window_ms": 86_400_000,   # hold out the trailing day by default
    "split_ts": None,               # absolute override of the time split
    "fraction": "1",                # most-recent fraction of train sessions kept
}

# each key takes its default's type (a float key also takes an int), bar two wider ones
_TYPES = {key: (int, float) if isinstance(value, float) else type(value) for key, value in DEFAULTS.items()}
_TYPES.update(split_ts=(int, type(None)), fraction=(str, int, float))


def load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
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
    if path:
        for key, value in load_config_file(path).items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = value
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = value
    for key, expected in _TYPES.items():
        value = cfg[key]
        if isinstance(value, bool) and expected is not bool:    # JSON true is no number
            raise ConfigError(f"config key {key!r} must not be a boolean, got {value!r}")
        if not isinstance(value, expected):
            raise ConfigError(f"config key {key!r} has wrong type: {value!r}")
    return cfg


def _from_config(cls, cfg: dict, **given):
    """``cls`` with each field not ``given`` read from its key; a float field takes float(...) of an int."""
    for f in fields(cls):
        if f.name not in given:
            given[f.name] = float(cfg[f.name]) if isinstance(f.default, float) else cfg[f.name]
    return cls(**given)


def hyper_params(cfg: dict) -> HyperParams:
    return _from_config(HyperParams, cfg)


def train_config(cfg: dict) -> TrainConfig:
    return _from_config(TrainConfig, cfg, hp=hyper_params(cfg))


def log_format(cfg: dict) -> LogFormat:
    return _from_config(LogFormat, cfg)
