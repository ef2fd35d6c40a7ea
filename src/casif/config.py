"""Config file handling: documented keys, strict validation, flag overrides.

The config file is JSON with the keys below (all optional; defaults
shown).  CLI flags override file values.  Unknown keys are rejected so a
typo cannot silently fall back to a default.  Every command echoes the
effective configuration into its outputs' provenance blocks.
"""

from __future__ import annotations

import json
import os

from .errors import ConfigError
from .model import HyperParams
from .trainer import TrainConfig

ENV_CONFIG = "CASIF_CONFIG"

DEFAULTS = {
    # model
    "d": 100,
    "gnn_steps": 1,
    "variant": "casif",
    "loss_variant": "eq13",
    "current_interest_input": "h_n",
    # training
    "batch_size": 128,
    "lr0": 0.001,
    "lr_decay_factor": 0.1,
    "lr_decay_every": 3,
    "l2_lambda": 1e-5,
    "epochs": 10,
    "seed": 0,
    # raw log layout
    "delimiter": ",",
    "has_header": False,
    "session_col": 0,
    "time_col": 1,
    "item_col": 2,
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
        if isinstance(value, bool) and expected is int:
            raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
        if not isinstance(value, expected):
            raise ConfigError(f"config key {key!r} has wrong type: {value!r}")
    return cfg


def hyper_params(cfg: dict) -> HyperParams:
    return HyperParams(
        d=cfg["d"],
        gnn_steps=cfg["gnn_steps"],
        variant=cfg["variant"],
        loss_variant=cfg["loss_variant"],
        current_interest_input=cfg["current_interest_input"],
    )


def train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        batch_size=cfg["batch_size"],
        lr0=float(cfg["lr0"]),
        lr_decay_factor=float(cfg["lr_decay_factor"]),
        lr_decay_every=cfg["lr_decay_every"],
        l2_lambda=float(cfg["l2_lambda"]),
        epochs=cfg["epochs"],
        seed=cfg["seed"],
        hp=hyper_params(cfg),
    )
