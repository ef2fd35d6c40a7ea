"""Tests of the benchmark itself, on the reduced inputs of ``--size small``.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from run import PREDICT_CALLS  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


def result_of(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_passes_every_check_and_prints_end_to_end_metrics(workload):
    res = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
                          "--size", "small"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] == 3 + PREDICT_CALLS + 2 * 3
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_writes_spans_and_every_per_layer_metric():
    res = result_of(bench("--workload", "wide-catalog", "--seed", "3", "--seconds", "1", "--trace", "1",
                          "--size", "small"))
    assert res["correct"] is True and res["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == expected
    lines = (ROOT / ".perfbench" / "traces" / "wide-catalog-seed3-trace1.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines[1:]]
    assert {"id", "name", "start", "end", "parent", "workload"} <= set(spans[0])
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)
    assert all(s["end"] >= s["start"] for s in spans)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", WORKLOADS[0],
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_expected_dataset_follows_the_documented_pipeline():
    sessions = [[1, 2, 1], [3, 9], [2, 3, 1, 2], [1, 7, 2]]
    raw, train, test = checks.expected_dataset(sessions, min_item_support=2, min_session_len=2,
                                               max_session_len=3, split_index=2)
    # items 7 and 9 lack support, so session 1 is left too short; session 2 keeps
    # its last 3 clicks, then loses item 3, which training never saw
    assert raw == ["item1", "item2"]
    assert train == [([0], 1), ([0, 1], 0)]
    assert test == [([0], 1), ([0], 1)]


def test_rank_metrics_break_ties_toward_the_lower_index():
    logits = [np.array([1.0, 3.0, 3.0, 0.0]), np.array([0.0, 0.0, 0.0, 0.0])]
    recall, mrr = checks.rank_metrics(logits, [2, 3], k=2)
    assert recall == 0.5 and mrr == 0.25


def test_prediction_check_rejects_bad_outputs():
    logits = np.array([0.0, 2.0, 1.0])
    probs = np.exp(logits) / np.exp(logits).sum()
    assert checks.check_prediction(probs, logits, np.array([1, 2]), 2) == []
    assert checks.check_prediction(probs, logits, np.array([2, 1]), 2)
    assert checks.check_prediction(probs * 1.1, logits, np.array([1, 2]), 2)
