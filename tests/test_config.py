"""Config keys: their defaults, the flag that sets each, and the declarations kept by hand."""

import argparse
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from casif.cli import build_parser, main
from casif.config import DEFAULTS, load_config_file
from casif.corpus import PreprocessConfig
from casif.errors import ConfigError
from casif.model import HyperParams
from casif.trainer import TrainConfig
from casif.synth import BASE_TIME_MS, SESSION_GAP_MS, SynthSpec

README = Path(__file__).resolve().parents[1] / "README.md"

# the documented table, written out: DEFAULTS is read from the dataclass fields
DOCUMENTED_DEFAULTS = {
    "d": 100,
    "gnn_steps": 1,
    "variant": "casif",
    "loss_variant": "eq13",
    "current_interest_input": "h_n",
    "batch_size": 128,
    "lr0": 0.001,
    "lr_decay_factor": 0.1,
    "lr_decay_every": 3,
    "l2_lambda": 1e-05,
    "epochs": 10,
    "seed": 0,
    "delimiter": ",",
    "has_header": False,
    "session_col": 0,
    "time_col": 1,
    "item_col": 2,
    "strict_parse": False,
    "min_item_support": 5,
    "min_session_len": 2,
    "max_session_len": 50,
    "test_window_ms": 86_400_000,
    "split_ts": None,
    "fraction": "1",
}

# every option string of the parser and each subcommand; --help depends on these
OPTION_STRINGS = {
    "casif": ["-h", "--help", "--config"],
    "preprocess": ["-h", "--help", "--input", "--out-dir", "--delimiter", "--has-header",
                   "--no-has-header", "--session-col", "--time-col", "--item-col",
                   "--min-item-support", "--min-session-len", "--max-session-len",
                   "--test-window-ms", "--split-ts", "--fraction", "--strict", "--no-strict",
                   "--dump-graphs"],
    "train": ["-h", "--help", "--dataset", "--checkpoint-out", "--log-out", "--resume", "--d",
              "--gnn-steps", "--variant", "--loss-variant", "--current-interest-input",
              "--batch-size", "--lr0", "--lr-decay-factor", "--lr-decay-every", "--l2-lambda",
              "--epochs", "--seed"],
    "evaluate": ["-h", "--help", "--dataset", "--checkpoint", "--baseline", "--ks", "--split",
                 "--split-length", "--out"],
    "predict": ["-h", "--help", "--checkpoint", "--vocab", "--items", "--k"],
    "gradcheck": ["-h", "--help", "--cases", "--variant", "--tolerance"],
    "synth": ["-h", "--help", "--out", "--mode", "--num-items", "--num-sessions", "--min-len",
              "--max-len", "--branching", "--seed"],
}

# key -> (subcommand, flag arguments, the value they set, which is not the default).
# The preprocess input repeats each row's three columns, so that columns 3-5
# hold what the default columns 0-2 do.
FLAGS = {
    "delimiter": ("preprocess", ["--delimiter", ";"], ";"),
    "has_header": ("preprocess", ["--has-header"], True),
    "session_col": ("preprocess", ["--session-col", "3"], 3),
    "time_col": ("preprocess", ["--time-col", "4"], 4),
    "item_col": ("preprocess", ["--item-col", "5"], 5),
    "strict_parse": ("preprocess", ["--strict"], True),
    "min_item_support": ("preprocess", ["--min-item-support", "3"], 3),
    "min_session_len": ("preprocess", ["--min-session-len", "3"], 3),
    "max_session_len": ("preprocess", ["--max-session-len", "4"], 4),
    "test_window_ms": ("preprocess", ["--test-window-ms", "36000000"], 36_000_000),
    "split_ts": ("preprocess", ["--split-ts", str(BASE_TIME_MS + 200 * SESSION_GAP_MS)],
                 BASE_TIME_MS + 200 * SESSION_GAP_MS),
    "fraction": ("preprocess", ["--fraction", "1/2"], "1/2"),
    "d": ("train", ["--d", "6"], 6),
    "gnn_steps": ("train", ["--gnn-steps", "2"], 2),
    "variant": ("train", ["--variant", "casif_s"], "casif_s"),
    "loss_variant": ("train", ["--loss-variant", "softmax_ce"], "softmax_ce"),
    "current_interest_input": ("train", ["--current-interest-input", "c_a"], "c_a"),
    "batch_size": ("train", ["--batch-size", "16"], 16),
    "lr0": ("train", ["--lr0", "0.01"], 0.01),
    "lr_decay_factor": ("train", ["--lr-decay-factor", "0.5"], 0.5),
    "lr_decay_every": ("train", ["--lr-decay-every", "2"], 2),
    "l2_lambda": ("train", ["--l2-lambda", "0.001"], 0.001),
    "epochs": ("train", ["--epochs", "2"], 2),
    "seed": ("train", ["--seed", "7"], 7),
}

# the dataclasses each command runs with: its provenance records their keys
COMMAND_KEYS = {command: {f.name for cls in classes for f in fields(cls) if f.name in DEFAULTS}
                for command, classes in (("preprocess", (PreprocessConfig,)),
                                         ("train", (HyperParams, TrainConfig)))}

# train runs small unless the flag under test sets one of these
TRAIN_BASE = {"d": 4, "epochs": 1}


def test_defaults_match_the_documented_table():
    assert DEFAULTS == DOCUMENTED_DEFAULTS
    assert {k: type(v) for k, v in DEFAULTS.items()} == {k: type(v) for k, v in DOCUMENTED_DEFAULTS.items()}


def test_readme_table_lists_every_key():
    section = README.read_text(encoding="utf-8").split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    keys = [key for row in section.splitlines() if row.startswith("| `")
            for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(DEFAULTS)


def test_parser_option_strings_unchanged():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {name: [s for action in p._actions for s in action.option_strings]
             for name, p in [("casif", parser), *sub.choices.items()]}
    assert found == OPTION_STRINGS


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("key", ["lr0", "d", "split_ts", "fraction"])
def test_boolean_rejected_by_non_boolean_key(tmp_path, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    with pytest.raises(ConfigError, match=key):
        load_config_file(cfg)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A six-column raw log per delimiter, and a dataset to train on."""
    root = tmp_path_factory.mktemp("flags")
    raw = root / "raw.csv"
    assert main(["synth", "--out", str(raw), "--num-items", "12", "--num-sessions", "300",
                 "--seed", "3"]) == 0
    rows = raw.read_text().splitlines()
    for name, sep in (("wide.csv", ","), ("wide_semicolon.csv", ";")):
        (root / name).write_text("".join(sep.join(row.split(",") * 2) + "\n" for row in rows))
    assert main(["preprocess", "--input", str(raw), "--out-dir", str(root / "data"),
                 "--min-item-support", "2"]) == 0
    return root


@pytest.mark.parametrize("key", sorted(DEFAULTS))
def test_flag_sets_its_key(inputs, tmp_path, key):
    command, flag_args, value = FLAGS[key]
    assert value != DEFAULTS[key]
    if command == "preprocess":
        raw = inputs / ("wide_semicolon.csv" if key == "delimiter" else "wide.csv")
        assert main(["preprocess", "--input", str(raw), "--out-dir", str(tmp_path), *flag_args]) == 0
        provenance = json.loads((tmp_path / "stats.json").read_text())["provenance"]
        others = {}
    else:
        others = {k: v for k, v in TRAIN_BASE.items() if k != key}
        base = [arg for k, v in others.items() for arg in (f"--{k}", str(v))]
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--dataset", str(inputs / "data" / "dataset.jsonl"),
                     "--checkpoint-out", str(ckpt), *base, *flag_args]) == 0
        with open(f"{ckpt}.log.jsonl") as fh:
            provenance = json.loads(fh.readline())["provenance"]
    defaults = {k: v for k, v in DEFAULTS.items() if k in COMMAND_KEYS[command]}
    assert provenance["config"] == {**defaults, **others, key: value}
    assert type(provenance["config"][key]) is type(value)


@pytest.mark.parametrize("command", sorted(OPTION_STRINGS))
def test_help_names_every_option(capsys, command):
    argv = ["--help"] if command == "casif" else [command, "--help"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert all(option in out for option in OPTION_STRINGS[command])


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("key", ["variant", "loss_variant", "current_interest_input"])
def test_bad_model_choice_is_the_dataclass_error(tmp_path, capsys, key, source):
    """The same one-line error from a flag or the config file, before the dataset is read."""
    with pytest.raises(ConfigError) as expected:
        HyperParams(**{key: "bogus"})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "bogus"} if source == "file" else {}))
    flag = ["--" + key.replace("_", "-"), "bogus"] if source == "flag" else []
    rc = main(["--config", str(cfg), "train", "--dataset", str(tmp_path / "missing.jsonl"),
               "--checkpoint-out", str(tmp_path / "m.ckpt"), *flag])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {expected.value}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_bad_synth_mode_is_the_dataclass_error(tmp_path, capsys):
    with pytest.raises(ConfigError) as expected:
        SynthSpec(mode="bogus")
    assert main(["synth", "--out", str(tmp_path / "raw.csv"), "--mode", "bogus"]) == 1
    assert capsys.readouterr().err == f"error: {expected.value}\n"
    assert list(tmp_path.iterdir()) == []
