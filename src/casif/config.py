"""Config file handling: documented keys, settings dataclasses from given values, strict validation.

The fields of ``HyperParams`` (model), ``TrainConfig`` (training, bar ``hp``)
and ``PreprocessConfig`` (``corpus.preprocess``: log layout and recipe)
declare every key of the JSON config file: a field's name is the key, its
default the key's default and its annotation the types the key accepts.
``settings`` builds a dataclass from given values, such as a config file
overridden by CLI flags, and the dataclass checks them.  ``load_config_file``
checks every key of the file, so a typo or a bad value fails each command
that reads it instead of silently falling back to a default.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, fields
from typing import get_args, get_type_hints

from .corpus import PreprocessConfig
from .errors import ConfigError
from .model import HyperParams
from .trainer import TrainConfig

ENV_CONFIG = "CASIF_CONFIG"

_DECLARED = (HyperParams, TrainConfig, PreprocessConfig)   # model, training, preprocessing

# TrainConfig.hp has a default factory, not a default, so it is no key
DEFAULTS = {f.name: f.default for cls in _DECLARED for f in fields(cls) if f.default is not MISSING}


def field_types(cls) -> dict:
    """Each field's annotated types, in order: ``int | None`` gives ``(int, NoneType)``."""
    return {name: get_args(hint) or (hint,) for name, hint in get_type_hints(cls).items()}


def settings(cls, given: dict, **fixed):
    """``cls`` with each field not ``fixed`` read from ``given`` unless None, in its annotated types.

    A float field takes float(...) of an int; no number field takes a boolean.
    """
    for key, types in field_types(cls).items():
        value = given.get(key)
        if key in fixed or value is None:
            continue
        if isinstance(value, bool) and bool not in types:    # JSON true is no number
            raise ConfigError(f"config key {key!r} must not be a boolean, got {value!r}")
        if types == (float,) and isinstance(value, int):
            value = float(value)
        if not isinstance(value, types):
            raise ConfigError(f"config key {key!r} has wrong type: {value!r}")
        fixed[key] = value
    return cls(**fixed)


def load_config_file(path=None) -> dict:
    """The keys of ``path``, else of $CASIF_CONFIG, else {}; each must be known and valid."""
    path = path or os.environ.get(ENV_CONFIG)
    if not path:
        return {}
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
    for key in raw:
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
    for cls in _DECLARED:
        settings(cls, raw)
    return raw
