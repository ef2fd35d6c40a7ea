import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import asdict, fields

import numpy as np
import pytest

from casif import (AdamState, Checkpoint, HyperParams, TrainConfig, SynthSpec, generate_sessions, init_params,
                   load_checkpoint, save_checkpoint, write_click_log)
from casif.cli import main


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth -> preprocess -> train run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw.csv"
    data = root / "data"
    ckpt = root / "model.ckpt"
    assert main(["synth", "--out", str(raw), "--num-items", "12",
                 "--num-sessions", "300", "--seed", "3"]) == 0
    assert main(["preprocess", "--input", str(raw), "--out-dir", str(data),
                 "--min-item-support", "2"]) == 0
    assert main(["train", "--dataset", str(data / "dataset.jsonl"),
                 "--checkpoint-out", str(ckpt), "--d", "8", "--epochs", "2"]) == 0
    return {"root": root, "raw": raw, "data": data, "ckpt": ckpt}


class TestPipeline:
    def test_preprocess_outputs(self, pipeline, capsys):
        data = pipeline["data"]
        assert (data / "dataset.jsonl").exists()
        assert (data / "dataset.jsonl.vocab").exists()
        stats = json.loads((data / "stats.json").read_text())
        assert stats["provenance"]["command"] == "preprocess"
        assert stats["stats"]["train_examples"] > 0

    def test_preprocess_pinned_bytes(self, tmp_path, monkeypatch):
        # a header row, ";" and permuted columns; the input path is relative so the provenance is fixed
        buf = io.StringIO()
        write_click_log(generate_sessions(SynthSpec(num_items=15, num_sessions=120, seed=4)), buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()]
        (tmp_path / "log.txt").write_text("item;session;time\n" + "".join(f"{i};{s};{t}\n" for s, t, i in rows))
        monkeypatch.chdir(tmp_path)
        assert main(["preprocess", "--input", "log.txt", "--out-dir", "out", "--has-header",
                     "--delimiter", ";", "--item-col", "0", "--session-col", "1", "--time-col", "2",
                     "--strict", "--fraction", "2/3", "--min-item-support", "2",
                     "--max-session-len", "6", "--test-window-ms", "7200000"]) == 0
        digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                   for name in ("dataset.jsonl", "dataset.jsonl.vocab", "stats.json")}
        assert digests == {
            "dataset.jsonl": "c02e7557f8f02370cb6579dd4c24099e363fccbe9a2a014496520fc51663ad74",
            "dataset.jsonl.vocab": "bca25bd3f41600d0bb7cce70f24af329696a6c0e8ea19bff29590fb1eb4afde0",
            "stats.json": "e26a4ad85079eeb6e7d6bc4f252a222e9cfe6e69757d8dcbde8c67c84563cb01",
        }

    def test_dataset_header_carries_provenance(self, pipeline):
        with open(pipeline["data"] / "dataset.jsonl") as fh:
            header = json.loads(fh.readline())
        assert header["provenance"]["command"] == "preprocess"
        assert "min_item_support" in header["provenance"]["config"]

    def test_train_wrote_checkpoint_and_log(self, pipeline):
        ckpt = pipeline["ckpt"]
        assert ckpt.exists() and ckpt.stat().st_size > 0
        with open(f"{ckpt}.log.jsonl") as fh:
            lines = [json.loads(l) for l in fh]
        assert lines[0]["provenance"]["command"] == "train"
        assert [rec["epoch"] for rec in lines[1:]] == [0, 1]

    def test_train_is_deterministic(self, pipeline):
        again = pipeline["root"] / "again.ckpt"
        assert main(["train", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
                     "--checkpoint-out", str(again), "--d", "8", "--epochs", "2"]) == 0
        assert again.read_bytes() == pipeline["ckpt"].read_bytes()

    def test_evaluate_model_table(self, pipeline, capsys):
        out = pipeline["root"] / "metrics.json"
        rc = main(["evaluate", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
                   "--checkpoint", str(pipeline["ckpt"]), "--ks", "1,5",
                   "--split-length", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "Recall@5" in printed and "short" in printed and "long" in printed
        body = json.loads(out.read_text())
        assert body["provenance"]["command"] == "evaluate"
        assert len(body["metrics"]) == 6   # 2 cutoffs x 3 buckets

    def test_evaluate_hides_buckets_by_default(self, pipeline, capsys):
        rc = main(["evaluate", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
                   "--checkpoint", str(pipeline["ckpt"]), "--ks", "5"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "all" in printed and "short" not in printed

    def test_evaluate_pop_baseline_needs_no_checkpoint(self, pipeline, capsys):
        rc = main(["evaluate", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
                   "--baseline", "pop", "--ks", "1,5"])
        assert rc == 0
        assert "Recall@1" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["baseline", "checkpoint"])
    def test_evaluate_cutoff_out_of_range_is_config_error(self, pipeline, capsys, source):
        # the baseline checks its cutoffs against the catalog exactly as the model does
        given = ["--baseline", "pop"] if source == "baseline" else ["--checkpoint", str(pipeline["ckpt"])]
        rc = main(["evaluate", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
                   *given, "--ks", "5,100000"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cutoff k=100000 out of range") and captured.err.count("\n") == 1

    def test_synth_without_flags_uses_the_spec_defaults(self, tmp_path, capsys):
        out = tmp_path / "default.csv"
        assert main(["synth", "--out", str(out)]) == 0
        expected = io.StringIO()
        write_click_log(generate_sessions(SynthSpec()), expected)
        assert out.read_text() == expected.getvalue()

    def test_predict_prints_k_rows(self, pipeline, capsys):
        with open(pipeline["data"] / "dataset.jsonl.vocab") as fh:
            first = json.loads(fh.readline())["raw"]
        rc = main(["predict", "--checkpoint", str(pipeline["ckpt"]),
                   "--vocab", str(pipeline["data"] / "dataset.jsonl.vocab"),
                   "--items", first, "--k", "3"])
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 3
        scores = [float(r.split("\t")[1]) for r in rows]
        assert scores == sorted(scores, reverse=True)

    def test_predict_ranks_logits_where_probabilities_tie(self, tmp_path, capsys):
        # zero weights and saturated interest biases make the logits equal the 1-d embeddings
        # exactly; items b and c sit 801 and 800 below a, so both of their probabilities are 0.0
        hp = HyperParams(d=1)
        params = init_params(3, hp, seed=0)
        params.flat[:] = 0.0
        params.mlp_general_b[:] = params.mlp_current_b[:] = 20.0
        params.emb[:, 0] = [0.0, -801.0, -800.0]
        ckpt = tmp_path / "tie.ckpt"
        save_checkpoint(ckpt, Checkpoint(hp=hp, params=params, adam=AdamState.fresh(params), epoch=0, rng_seed=0))
        vocab = tmp_path / "tie.vocab"
        vocab.write_text("".join(json.dumps({"index": i, "raw": raw}) + "\n" for i, raw in enumerate("abc")))
        assert main(["predict", "--checkpoint", str(ckpt), "--vocab", str(vocab), "--items", "a", "--k", "3"]) == 0
        assert capsys.readouterr().out == "a\t1\nc\t0\nb\t0\n"


class TestSettings:
    """Each command's provenance records the settings it ran with, from the file and flags alike."""

    def test_evaluate_records_the_checkpoint_model(self, pipeline, tmp_path):
        out = tmp_path / "metrics.json"
        assert main(["evaluate", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
                     "--checkpoint", str(pipeline["ckpt"]), "--ks", "5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["provenance"]["config"] == asdict(HyperParams(d=8))

    def test_pop_baseline_records_no_model(self, pipeline, tmp_path):
        out = tmp_path / "metrics.json"
        assert main(["evaluate", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
                     "--baseline", "pop", "--ks", "5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["provenance"]["config"] == {}

    def test_train_log_records_training_keys_only(self, pipeline):
        with open(f"{pipeline['ckpt']}.log.jsonl") as fh:
            config = json.loads(fh.readline())["provenance"]["config"]
        keys = {f.name for cls in (HyperParams, TrainConfig) for f in fields(cls)} - {"hp"}
        assert set(config) == keys and "min_item_support" not in config
        assert (config["d"], config["epochs"]) == (8, 2)

    def test_train_and_evaluate_record_the_machine(self, pipeline, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
                     "--checkpoint-out", str(ckpt), "--d", "4", "--epochs", "1"]) == 0
        with open(f"{ckpt}.log.jsonl") as fh:
            machine = json.loads(fh.readline())["provenance"]["machine"]
        assert machine["OPENBLAS_NUM_THREADS"] == "1" and machine["numpy"] == np.__version__
        out = tmp_path / "metrics.json"
        assert main(["evaluate", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
                     "--checkpoint", str(ckpt), "--ks", "5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["provenance"]["machine"] == machine

    def test_preprocess_records_no_machine(self, pipeline):
        stats = json.loads((pipeline["data"] / "stats.json").read_text())
        assert "machine" not in stats["provenance"]

    def test_synth_reads_seed_from_the_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 5}')
        by_file, by_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
        assert main(["--config", str(cfg), "synth", "--out", str(by_file), "--num-sessions", "50"]) == 0
        assert main(["synth", "--out", str(by_flag), "--num-sessions", "50", "--seed", "5"]) == 0
        assert by_file.read_bytes() == by_flag.read_bytes()

    def test_synth_with_missing_config_file_is_config_error(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "missing.json"), "synth", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "cannot read config" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_synth_rejects_its_own_fields_in_the_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"num_items": 5}')
        assert main(["--config", str(cfg), "synth", "--out", str(tmp_path / "x.csv")]) == 1
        assert "unknown config key 'num_items'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_no_strict_turns_off_a_strict_config_file(self, pipeline, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"strict_parse": true}')
        monkeypatch.setenv("CASIF_CONFIG", str(cfg))
        raw = tmp_path / "raw.csv"
        lines = pipeline["raw"].read_text().splitlines(keepends=True)
        raw.write_text("".join([lines[0], "broken\n", *lines[1:]]))
        assert main(["preprocess", "--input", str(raw), "--out-dir", str(tmp_path / "strict"),
                     "--min-item-support", "2"]) == 2
        out_dir = tmp_path / "lenient"
        assert main(["preprocess", "--input", str(raw), "--out-dir", str(out_dir),
                     "--min-item-support", "2", "--no-strict"]) == 0
        stats = json.loads((out_dir / "stats.json").read_text())
        assert stats["stats"]["skipped_lines"] == 1 and stats["provenance"]["config"]["strict_parse"] is False

    def test_bad_value_in_the_config_file_fails_every_reader(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"min_session_len": 0}')
        rc = main(["--config", str(cfg), "train", "--dataset", str(tmp_path / "missing.jsonl"),
                   "--checkpoint-out", str(tmp_path / "m.ckpt")])
        assert rc == 1
        assert capsys.readouterr().err == "error: min_session_len must be >= 1, got 0\n"

    @pytest.mark.parametrize("command", ["evaluate", "predict", "gradcheck"])
    def test_bad_config_file_fails_commands_that_take_no_key(self, pipeline, tmp_path, monkeypatch,
                                                            capsys, command):
        with open(pipeline["data"] / "dataset.jsonl.vocab") as fh:
            first = json.loads(fh.readline())["raw"]
        argv = {"evaluate": ["--dataset", str(pipeline["data"] / "dataset.jsonl"), "--baseline", "pop"],
                "predict": ["--checkpoint", str(pipeline["ckpt"]),
                            "--vocab", str(pipeline["data"] / "dataset.jsonl.vocab"), "--items", first],
                "gradcheck": ["--cases", "0"]}[command]
        assert main(["--config", str(tmp_path / "missing.json"), command, *argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: cannot read config {tmp_path / 'missing.json'}")
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"min_session_len": 0}')
        monkeypatch.setenv("CASIF_CONFIG", str(cfg))
        assert main([command, *argv]) == 1
        assert capsys.readouterr() == ("", "error: min_session_len must be >= 1, got 0\n")


class TestExitCodes:
    def test_missing_input_is_a_data_error_with_no_partial_output(self, tmp_path, capsys):
        out_dir = tmp_path / "never"
        rc = main(["preprocess", "--input", str(tmp_path / "absent.csv"),
                   "--out-dir", str(out_dir)])
        assert rc == 2
        assert not out_dir.exists()
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--no-such-flag"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("sources", [("--checkpoint", "--baseline"), ()], ids=["both", "neither"])
    def test_evaluate_takes_a_checkpoint_or_the_baseline(self, pipeline, capsys, sources):
        given = {"--checkpoint": str(pipeline["ckpt"]), "--baseline": "pop"}
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
                  *(arg for flag in sources for arg in (flag, given[flag]))])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--checkpoint" in captured.err and "--baseline" in captured.err

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"no_such_key": 1}')
        raw = tmp_path / "raw.csv"
        main(["synth", "--out", str(raw), "--num-sessions", "10", "--num-items", "5"])
        rc = main(["--config", str(cfg), "preprocess", "--input", str(raw),
                   "--out-dir", str(tmp_path / "d")])
        assert rc == 1
        assert "no_such_key" in capsys.readouterr().err

    def test_deeply_nested_config_is_config_error(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 5000)
        proc = subprocess.run(
            [sys.executable, "-m", "casif.cli", "--config", str(cfg), "preprocess",
             "--input", str(pipeline["raw"]), "--out-dir", str(tmp_path / "d")],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
        assert str(cfg) in proc.stderr and "nested too deeply" in proc.stderr

    def test_removed_threads_key_is_config_error(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"threads": 1}')
        rc = main(["--config", str(cfg), "preprocess", "--input", str(pipeline["raw"]),
                   "--out-dir", str(tmp_path / "d")])
        assert rc == 1
        assert "threads" in capsys.readouterr().err

    def test_config_file_env_fallback(self, pipeline, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"min_item_support": 2}')
        monkeypatch.setenv("CASIF_CONFIG", str(cfg))
        out_dir = tmp_path / "viaenv"
        rc = main(["preprocess", "--input", str(pipeline["raw"]), "--out-dir", str(out_dir)])
        assert rc == 0
        stats = json.loads((out_dir / "stats.json").read_text())
        assert stats["provenance"]["config"]["min_item_support"] == 2

    def test_flag_overrides_config_file(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"min_item_support": 50}')
        out_dir = tmp_path / "flagwins"
        rc = main(["--config", str(cfg), "preprocess", "--input", str(pipeline["raw"]),
                   "--out-dir", str(out_dir), "--min-item-support", "2"])
        assert rc == 0
        stats = json.loads((out_dir / "stats.json").read_text())
        assert stats["provenance"]["config"]["min_item_support"] == 2

    def test_predict_unknown_items_named(self, pipeline, capsys):
        rc = main(["predict", "--checkpoint", str(pipeline["ckpt"]),
                   "--vocab", str(pipeline["data"] / "dataset.jsonl.vocab"),
                   "--items", "zzz,item0"])
        assert rc == 2
        assert "zzz" in capsys.readouterr().err

    def test_predict_k_beyond_vocabulary(self, pipeline, capsys):
        with open(pipeline["data"] / "dataset.jsonl.vocab") as fh:
            first = json.loads(fh.readline())["raw"]
        rc = main(["predict", "--checkpoint", str(pipeline["ckpt"]),
                   "--vocab", str(pipeline["data"] / "dataset.jsonl.vocab"),
                   "--items", first, "--k", "9999"])
        assert rc == 1

    def test_evaluate_vocab_size_mismatch(self, pipeline, tmp_path, capsys):
        # train a checkpoint on a different corpus, then point it at the fixture dataset
        raw = tmp_path / "other.csv"
        data = tmp_path / "otherdata"
        ckpt = tmp_path / "other.ckpt"
        main(["synth", "--out", str(raw), "--num-items", "30", "--num-sessions", "150",
              "--seed", "8"])
        main(["preprocess", "--input", str(raw), "--out-dir", str(data),
              "--min-item-support", "1"])
        main(["train", "--dataset", str(data / "dataset.jsonl"), "--checkpoint-out",
              str(ckpt), "--d", "6", "--epochs", "1"])
        rc = main(["evaluate", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
                   "--checkpoint", str(ckpt), "--ks", "5"])
        assert rc == 2
        assert "belong together" in capsys.readouterr().err

    def test_gradcheck_passes(self, capsys):
        rc = main(["gradcheck", "--cases", "4"])
        assert rc == 0
        assert "worst relative error" in capsys.readouterr().out

    def test_gradcheck_failure_exits_3(self, capsys):
        rc = main(["gradcheck", "--cases", "2", "--tolerance", "0"])
        assert rc == 3
        assert "gradcheck FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1e-4", *(
        pytest.param(("--tolerance", value), id=f"{value} separate") for value in ("-1e-4", "-1E+3", "-.5e-2"))])
    def test_unusable_gradcheck_tolerance_is_config_error(self, capsys, tolerance):
        # a tuple passes the value as its own argument after the flag
        args = list(tolerance) if isinstance(tolerance, tuple) else [f"--tolerance={tolerance}"]
        rc = main(["gradcheck", "--cases", "0", *args])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "tolerance" in captured.err

    def test_negative_lr0_in_exponent_form_is_its_own_config_error(self, pipeline, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        rc = main(["train", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
                   "--checkpoint-out", str(ckpt), "--lr0", "-1e-3"])
        assert rc == 1
        assert capsys.readouterr().err == "error: lr0 must be finite and positive, got -0.001\n"
        assert not ckpt.exists()

    @pytest.mark.parametrize("cases", ["-8", "-3"])
    def test_negative_gradcheck_cases_is_config_error(self, capsys, cases):
        rc = main(["gradcheck", "--cases", cases])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: num_cases must be >= 0, got {cases}\n"

    @pytest.mark.parametrize("spoil", ["[0]", "[]", "version_1", "nested", "num_items_2**40"])
    def test_train_rejects_bad_dataset_without_traceback(self, pipeline, tmp_path, spoil):
        dataset = tmp_path / "dataset.jsonl"
        shutil.copy(pipeline["data"] / "dataset.jsonl.vocab", f"{dataset}.vocab")
        with open(pipeline["data"] / "dataset.jsonl") as fh:
            lines = fh.readlines()
        if spoil == "version_1":
            header = json.loads(lines[0])
            lines[0] = json.dumps({**header, "version": 1}) + "\n"
            message = "unsupported version 1"
        elif spoil == "num_items_2**40":
            # the vocabulary is checked against the count, never sized by it
            header = json.loads(lines[0])
            lines[0] = json.dumps({**header, "num_items": 2**40}) + "\n"
            message = f"entries for {2**40} items"
        elif spoil == "nested":
            lines[1] = "[" * 5000 + "\n"
            message = "line 2: malformed record"
        else:
            # the first record's item list becomes one item, or none
            lines[1] = re.sub(r"\[[^]]*\]", spoil, lines[1], count=1)
            message = "line 2: malformed record"
        dataset.write_text("".join(lines))
        proc = subprocess.run(
            [sys.executable, "-m", "casif.cli", "train", "--dataset", str(dataset),
             "--checkpoint-out", str(tmp_path / "m.ckpt")],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
        assert str(dataset) in proc.stderr and message in proc.stderr
        assert not (tmp_path / "m.ckpt").exists()

    def test_one_click_sessions_kept_by_min_session_len_1_still_train(self, tmp_path):
        raw = tmp_path / "raw.csv"
        # s1 is one click on an item seen nowhere else; s4 falls after the split
        raw.write_text("s1,1000,x\ns2,2000,a\ns2,2001,b\ns3,3000,b\ns3,3001,a\n"
                       "s4,9000,a\ns4,9001,x\n")
        data = tmp_path / "data"
        assert main(["preprocess", "--input", str(raw), "--out-dir", str(data),
                     "--min-item-support", "1", "--min-session-len", "1",
                     "--split-ts", "5000"]) == 0
        with open(data / "dataset.jsonl.vocab") as fh:
            vocab = [json.loads(line)["raw"] for line in fh]
        assert vocab == ["x", "a", "b"]
        with open(data / "dataset.jsonl") as fh:
            records = [json.loads(line) for line in fh][1:]
        assert records == [{"items": [1, 2], "split": "train"}, {"items": [2, 1], "split": "train"},
                           {"items": [1, 0], "split": "test"}]
        stats = json.loads((data / "stats.json").read_text())["stats"]
        assert (stats["train_sessions"], stats["test_sessions"], stats["clicks"]) == (2, 1, 6)
        assert main(["train", "--dataset", str(data / "dataset.jsonl"),
                     "--checkpoint-out", str(tmp_path / "m.ckpt"), "--d", "4", "--epochs", "1"]) == 0

    def test_strict_preprocess_aborts_on_bad_line(self, pipeline, tmp_path, capsys):
        raw = tmp_path / "bad.csv"
        raw.write_text("s1,1000,a\nbroken line\n")
        rc = main(["preprocess", "--input", str(raw), "--out-dir", str(tmp_path / "d"),
                   "--strict"])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_strict_preprocess_reports_a_bad_length_setting_before_a_bad_line(self, tmp_path, capsys):
        raw = tmp_path / "bad.csv"
        raw.write_text("s1,1000,a\nbroken\n")
        rc = main(["preprocess", "--input", str(raw), "--out-dir", str(tmp_path / "d"),
                   "--strict", "--min-session-len", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: min_session_len must be >= 1, got 0\n"
        assert not (tmp_path / "d").exists()

    def test_timestamp_beyond_int64_is_a_malformed_line(self, tmp_path, capsys):
        raw = tmp_path / "big.csv"
        raw.write_text("s1,1000,a\ns1,99999999999999999999,b\ns1,2000,b\ns2,3000,a\ns2,3001,b\n")
        rc = main(["preprocess", "--input", str(raw), "--out-dir", str(tmp_path / "d"), "--strict",
                   "--min-item-support", "1"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {raw}: line 2: timestamp out of range\n"
        assert main(["preprocess", "--input", str(raw), "--out-dir", str(tmp_path / "d"),
                     "--min-item-support", "1", "--split-ts", "2500"]) == 0
        stats = json.loads((tmp_path / "d" / "stats.json").read_text())["stats"]
        assert (stats["skipped_lines"], stats["clicks"]) == (1, 4)

    @pytest.mark.parametrize("fraction", ["abc", "1/0"])
    def test_bad_fraction_is_config_error(self, pipeline, tmp_path, capsys, fraction):
        rc = main(["preprocess", "--input", str(pipeline["raw"]), "--out-dir", str(tmp_path / "d"),
                   "--fraction", fraction])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and repr(fraction) in err and "Traceback" not in err

    @pytest.mark.parametrize("fraction", ["abc", "2"])
    def test_settings_rejected_before_the_log_is_read(self, tmp_path, capsys, fraction):
        raw = tmp_path / "bad.csv"
        raw.write_text("s1,1000,a\nbroken\n")
        rc = main(["preprocess", "--input", str(raw), "--out-dir", str(tmp_path / "d"),
                   "--strict", "--fraction", fraction])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "fraction" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("flag, value", [("--delimiter", ""), ("--session-col", "-1"),
                                             ("--time-col", "-2"), ("--item-col", "-1"),
                                             ("--max-session-len", "-3"), ("--min-session-len", "0"),
                                             ("--test-window-ms", "-5"), ("--time-col", "0"),
                                             ("--item-col", "1"), ("--max-session-len", "1")])
    def test_bad_log_and_length_settings_are_config_errors(self, pipeline, tmp_path, capsys,
                                                           flag, value):
        rc = main(["preprocess", "--input", str(pipeline["raw"]), "--out-dir", str(tmp_path / "d"),
                   "--min-item-support", "2", flag, value])
        assert rc == 1
        err = capsys.readouterr().err
        key = flag[2:].replace("-", "_")
        assert err.count("\n") == 1 and err.startswith(f"error: {key} ") and "Traceback" not in err
        assert not (tmp_path / "d").exists()

    def test_resume_reports_checkpoint_settings(self, pipeline, tmp_path, capsys):
        # the fixture's checkpoint was trained with d=8 and seed 0 for 2 epochs
        dataset = str(pipeline["data"] / "dataset.jsonl")
        whole, resumed = tmp_path / "whole.ckpt", tmp_path / "resumed.ckpt"
        assert main(["train", "--dataset", dataset, "--checkpoint-out", str(whole),
                     "--d", "8", "--epochs", "3"]) == 0
        capsys.readouterr()
        assert main(["train", "--dataset", dataset, "--checkpoint-out", str(resumed),
                     "--resume", str(pipeline["ckpt"]), "--epochs", "3", "--seed", "7"]) == 0
        assert resumed.read_bytes() == whole.read_bytes()
        assert capsys.readouterr().out.startswith("config: d=8 batch=128 lr0=0.001 variant=casif "
                                                  "loss=eq13 epochs=3 seed=0\n")
        with open(f"{resumed}.log.jsonl") as fh:
            config = json.loads(fh.readline())["provenance"]["config"]
        assert (config["d"], config["seed"], config["epochs"]) == (8, 0, 3)

    def test_resume_over_its_own_checkpoint_matches_an_uninterrupted_run(self, pipeline, tmp_path):
        dataset = str(pipeline["data"] / "dataset.jsonl")
        whole, ckpt = tmp_path / "whole.ckpt", tmp_path / "m.ckpt"
        assert main(["train", "--dataset", dataset, "--checkpoint-out", str(whole),
                     "--d", "8", "--epochs", "3"]) == 0
        shutil.copyfile(pipeline["ckpt"], ckpt)
        assert main(["train", "--dataset", dataset, "--checkpoint-out", str(ckpt),
                     "--resume", str(ckpt), "--epochs", "3"]) == 0
        assert ckpt.read_bytes() == whole.read_bytes()

    def test_resume_past_epochs_is_config_error(self, pipeline, tmp_path, capsys):
        rc = main(["train", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
                   "--checkpoint-out", str(tmp_path / "m.ckpt"),
                   "--resume", str(pipeline["ckpt"]), "--epochs", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "trained 2 epochs" in err and "the 1 asked for" in err
        assert not (tmp_path / "m.ckpt").exists()


class TestMissingOutputDirectory:
    """Output directories that do not exist are made before the work, not reported after it."""

    def test_train_checkpoint_out(self, pipeline, tmp_path):
        ckpt = tmp_path / "a" / "b" / "m.ckpt"
        assert main(["train", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
                     "--checkpoint-out", str(ckpt), "--d", "8", "--epochs", "1"]) == 0
        assert load_checkpoint(ckpt).epoch == 1

    def test_train_log_out(self, pipeline, tmp_path):
        log = tmp_path / "logs" / "train.jsonl"
        assert main(["train", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
                     "--checkpoint-out", str(tmp_path / "m.ckpt"), "--log-out", str(log),
                     "--d", "8", "--epochs", "1"]) == 0
        with open(log) as fh:
            assert [json.loads(line).get("epoch") for line in fh] == [None, 0]

    def test_evaluate_out(self, pipeline, tmp_path):
        out = tmp_path / "reports" / "m.json"
        assert main(["evaluate", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
                     "--checkpoint", str(pipeline["ckpt"]), "--ks", "5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["provenance"]["command"] == "evaluate"


class TestOutputNamesAnInput:
    """An output that names an input, another output or an existing directory is exit 1, before any work."""

    # {data} and {vocab} are a dataset and its vocabulary, {ckpt} and {old_log} checkpoints,
    # {dir} an empty directory; every case must name both flags and leave every file as it was
    CASES = {
        "log-out-is-checkpoint-out": (["train", "--dataset", "{data}", "--checkpoint-out", "{ckpt}",
                                       "--log-out", "{ckpt}"], "--log-out and --checkpoint-out"),
        "log-out-is-dataset": (["train", "--dataset", "{data}", "--checkpoint-out", "{new}",
                                "--log-out", "{data}"], "--log-out and --dataset"),
        "checkpoint-out-is-dataset": (["train", "--dataset", "{data}", "--checkpoint-out", "{data}"],
                                      "--checkpoint-out and --dataset"),
        "checkpoint-out-is-vocab": (["train", "--dataset", "{data}", "--checkpoint-out", "{vocab}"],
                                    "--checkpoint-out and the --dataset vocabulary"),
        "log-out-is-resume": (["train", "--dataset", "{data}", "--resume", "{ckpt}", "--checkpoint-out", "{new}",
                               "--log-out", "{ckpt}"], "--log-out and --resume"),
        "default-log-is-resume": (["train", "--dataset", "{data}", "--resume", "{old_log}",
                                   "--checkpoint-out", "{old}"], "--log-out and --resume"),
        "checkpoint-out-is-directory": (["train", "--dataset", "{data}", "--checkpoint-out", "{dir}"],
                                        "--checkpoint-out"),
        "checkpoint-out-under-a-file": (["train", "--dataset", "{data}", "--checkpoint-out", "{ckpt}/m.ckpt"],
                                        "m.ckpt is not a directory"),
        "evaluate-out-is-checkpoint": (["evaluate", "--dataset", "{data}", "--checkpoint", "{ckpt}",
                                        "--out", "{ckpt}"], "--out and --checkpoint"),
        "evaluate-out-is-dataset-by-another-path": (["evaluate", "--dataset", "{data}", "--baseline", "pop",
                                                     "--out", "{dir}/../d/dataset.jsonl"], "--out and --dataset"),
        "evaluate-out-is-vocab": (["evaluate", "--dataset", "{data}", "--checkpoint", "{ckpt}",
                                   "--out", "{vocab}"], "--out and the --dataset vocabulary"),
        "evaluate-out-is-directory": (["evaluate", "--dataset", "{data}", "--checkpoint", "{ckpt}",
                                       "--out", "{dir}"], "--out"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exit_1_and_inputs_untouched(self, pipeline, tmp_path, capsys, case):
        argv, flags = self.CASES[case]
        (tmp_path / "d").mkdir()
        (tmp_path / "dir").mkdir()
        shutil.copyfile(pipeline["data"] / "dataset.jsonl", tmp_path / "d" / "dataset.jsonl")
        shutil.copyfile(pipeline["data"] / "dataset.jsonl.vocab", tmp_path / "d" / "dataset.jsonl.vocab")
        shutil.copyfile(pipeline["ckpt"], tmp_path / "m.ckpt")
        shutil.copyfile(pipeline["ckpt"], tmp_path / "old.log.jsonl")
        names = {"data": "d/dataset.jsonl", "vocab": "d/dataset.jsonl.vocab", "ckpt": "m.ckpt",
                 "new": "new.ckpt", "old": "old", "old_log": "old.log.jsonl", "dir": "dir"}
        paths = {key: str(tmp_path / name) for key, name in names.items()}
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        # settings under which each command would otherwise run to the end
        settings = ["--d", "8", "--epochs", "3"] if argv[0] == "train" else ["--ks", "5"]
        assert main([arg.format_map(paths) for arg in argv] + settings) == 1
        assert flags in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert not any((tmp_path / "dir").iterdir())


class TestPreprocessOutputs:
    """preprocess checks the files it would write under --out-dir before it reads the log: exit 1, nothing written."""

    @pytest.fixture
    def run(self, pipeline, tmp_path, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the log was read")

        def run(argv, names):
            before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
            monkeypatch.setattr("casif.cli.corpus.preprocess", refuse)
            monkeypatch.chdir(tmp_path)
            assert main(["preprocess", *argv]) == 1
            out, err = capsys.readouterr()
            assert out == "" and all(name in err for name in names), err
            assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        return run

    @pytest.mark.parametrize("name", ["dataset.jsonl", "dataset.jsonl.vocab", "stats.json", "graphs.jsonl"])
    def test_input_is_an_output(self, pipeline, tmp_path, run, name):
        (tmp_path / "out").mkdir()
        shutil.copyfile(pipeline["raw"], tmp_path / "out" / name)
        run(["--input", f"out/{name}", "--out-dir", "out", "--dump-graphs"],
            [f"--out-dir's {name} and --input", f"out/{name}"])

    def test_out_dir_is_a_file(self, pipeline, tmp_path, run):
        shutil.copyfile(pipeline["raw"], tmp_path / "raw.csv")
        (tmp_path / "afile").write_text("not a directory\n")
        run(["--input", "raw.csv", "--out-dir", "afile"], ["afile/dataset.jsonl", "afile is not a directory"])

    def test_stats_is_a_directory(self, pipeline, tmp_path, run):
        shutil.copyfile(pipeline["raw"], tmp_path / "raw.csv")
        (tmp_path / "out" / "stats.json").mkdir(parents=True)
        run(["--input", "raw.csv", "--out-dir", "out"], ["--out-dir's stats.json", "out/stats.json is a directory"])
        assert not (tmp_path / "out" / "dataset.jsonl").exists()


def corrupt_vocab(lines, how):
    """Vocabulary file lines, as bytes, with the one defect `how` names (see VOCAB_DEFECTS)."""
    recs = [json.loads(line) for line in lines]
    if how == "missing_index":
        recs = [r for r in recs if r["index"] != 1]
    elif how == "duplicate_index":
        recs = [r if r["index"] != 1 else {"raw": "dup", "index": 0} for r in recs]
    elif how == "extra_item":
        recs.append({"raw": "extra", "index": len(recs)})
    out = [(json.dumps(r) + "\n").encode() for r in recs]
    if how == "not_json":
        out.insert(1, b"this is not json\n")
    elif how == "not_utf8":
        out.insert(1, b'{"raw": "\xff", "index": 0}\n')
    elif how == "nested":
        out.insert(1, b"[" * 5000 + b"\n")
    return out


VOCAB_DEFECTS = ["missing_index", "duplicate_index", "not_json", "not_utf8", "extra_item", "nested"]


class TestBadVocabulary:
    """Every command that reads a vocabulary rejects a bad one with exit 2."""

    @pytest.fixture
    def bad_copy(self, pipeline, tmp_path):
        def make(how):
            dataset = tmp_path / "dataset.jsonl"
            shutil.copy(pipeline["data"] / "dataset.jsonl", dataset)
            with open(pipeline["data"] / "dataset.jsonl.vocab") as fh:
                lines = fh.readlines()
            with open(f"{dataset}.vocab", "wb") as fh:
                fh.writelines(corrupt_vocab(lines, how))
            return dataset
        return make

    @pytest.mark.parametrize("how", VOCAB_DEFECTS)
    def test_evaluate_rejects(self, bad_copy, capsys, how):
        dataset = bad_copy(how)
        rc = main(["evaluate", "--dataset", str(dataset), "--baseline", "pop"])
        assert rc == 2
        assert f"{dataset}.vocab" in capsys.readouterr().err

    @pytest.mark.parametrize("how", VOCAB_DEFECTS)
    def test_predict_rejects(self, pipeline, bad_copy, capsys, how):
        vocab = f"{bad_copy(how)}.vocab"
        rc = main(["predict", "--checkpoint", str(pipeline["ckpt"]), "--vocab", vocab,
                   "--items", "item0"])
        assert rc == 2
        assert vocab in capsys.readouterr().err

    def test_predict_without_traceback(self, pipeline, bad_copy):
        vocab = f"{bad_copy('missing_index')}.vocab"
        proc = subprocess.run(
            [sys.executable, "-m", "casif.cli", "predict", "--checkpoint", str(pipeline["ckpt"]),
             "--vocab", vocab, "--items", "item0"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "entries" in proc.stderr


class TestNotUtf8:
    """One byte that is not UTF-8 gives a one-line error naming the file, never a traceback."""

    @staticmethod
    def run(*args):
        return subprocess.run([sys.executable, "-m", "casif.cli", *args], capture_output=True, text=True)

    @staticmethod
    def spoil(src, dst, old: bytes, new: bytes):
        data = src.read_bytes()
        assert old in data
        dst.write_bytes(data.replace(old, new, 1))
        return dst

    def check(self, proc, code, path):
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and str(path) in proc.stderr and "UTF-8" in proc.stderr

    def test_click_log(self, pipeline, tmp_path):
        raw = self.spoil(pipeline["raw"], tmp_path / "raw.csv", b",item", b",\xffitem")
        proc = self.run("preprocess", "--input", str(raw), "--out-dir", str(tmp_path / "d"), "--strict")
        self.check(proc, 2, raw)
        data = raw.read_bytes()
        lineno = data[:data.index(b"\xff")].count(b"\n") + 1
        assert f"line {lineno}: not UTF-8 text" in proc.stderr

    def test_click_log_lenient_skips_the_line(self, pipeline, tmp_path):
        raw = self.spoil(pipeline["raw"], tmp_path / "raw.csv", b",item", b",\xffitem")
        data = raw.read_bytes()
        start = data.rfind(b"\n", 0, data.index(b"\xff")) + 1
        without = tmp_path / "without.csv"
        without.write_bytes(data[:start] + data[data.index(b"\n", start) + 1:])
        for log, out in ((raw, "d"), (without, "d_without")):
            proc = self.run("preprocess", "--input", str(log), "--out-dir", str(tmp_path / out),
                            "--min-item-support", "2")
            assert proc.returncode == 0 and proc.stderr == ""
        stats = json.loads((tmp_path / "d" / "stats.json").read_text())["stats"]
        assert stats["skipped_lines"] == 1
        sessions = [(tmp_path / out / "dataset.jsonl").read_text().splitlines()[1:] for out in ("d", "d_without")]
        assert sessions[0] == sessions[1]

    def test_dataset(self, pipeline, tmp_path):
        shutil.copy(pipeline["data"] / "dataset.jsonl.vocab", tmp_path / "dataset.jsonl.vocab")
        data = self.spoil(pipeline["data"] / "dataset.jsonl", tmp_path / "dataset.jsonl",
                          b'"split": "test"', b'"split": "\xfftest"')
        self.check(self.run("evaluate", "--dataset", str(data), "--baseline", "pop"), 2, data)

    def test_config(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"min_item_support": 2, "delimiter": "\xff"}')
        proc = self.run("--config", str(cfg), "preprocess", "--input", str(pipeline["raw"]),
                        "--out-dir", str(tmp_path / "d"))
        self.check(proc, 1, cfg)


class TestBlasThreadCount:
    """Bit-identity holds for a fixed BLAS thread count; 1 and 2 threads may differ."""

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("blas")
        raw = root / "raw.csv"
        assert main(["synth", "--out", str(raw), "--num-items", "1400", "--num-sessions", "600",
                     "--seed", "3"]) == 0
        assert main(["preprocess", "--input", str(raw), "--out-dir", str(root),
                     "--min-item-support", "1", "--test-window-ms", "3600000"]) == 0
        return root / "dataset.jsonl"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_same_seed_same_bytes(self, dataset, tmp_path, threads):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        runs = []
        for run in range(2):
            ckpt = tmp_path / f"run{run}.ckpt"
            subprocess.run([sys.executable, "-m", "casif.cli", "train", "--dataset", str(dataset),
                            "--checkpoint-out", str(ckpt), "--d", "32", "--batch-size", "100",
                            "--epochs", "1", "--seed", "3"],
                           env=env, check=True, capture_output=True)
            runs.append(ckpt.read_bytes())
        assert runs[0] == runs[1]


class TestDumpGraphs:
    def test_graphs_file_when_requested(self, pipeline, tmp_path):
        out_dir = tmp_path / "withgraphs"
        rc = main(["preprocess", "--input", str(pipeline["raw"]), "--out-dir", str(out_dir),
                   "--min-item-support", "2", "--dump-graphs"])
        assert rc == 0
        lines = (out_dir / "graphs.jsonl").read_text().splitlines()
        assert lines
        rec = json.loads(lines[0])
        assert set(rec) == {"split", "prefix", "nodes", "alias", "m_in", "m_out"}
        q = len(rec["nodes"])
        assert len(rec["m_in"]) == q * q and len(rec["m_out"]) == q * q


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "casif.cli", "synth", "--out", str(out),
             "--num-sessions", "5", "--num-items", "5"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()
