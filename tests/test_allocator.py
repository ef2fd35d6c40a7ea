"""Importing casif keeps freed heap memory for reuse (glibc), and is harmless without mallopt."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TRAIN_TWICE = """
import resource
import numpy as np
from casif import HyperParams, ItemVocabulary, ProcessedDataset, TrainConfig, train

num_items = 1500
rng = np.random.default_rng(0)
sessions = []
while sum(len(items) - 1 for items in sessions) < 512:
    sessions.append([int(x) for x in rng.integers(0, num_items, size=int(rng.integers(2, 8)))])
vocab = ItemVocabulary({str(i): i for i in range(num_items)}, [str(i) for i in range(num_items)])
ds = ProcessedDataset(train_sessions=sessions, test_sessions=[], vocab=vocab)
cfg = TrainConfig(hp=HyperParams(d=16), epochs=1, batch_size=128, seed=1)
train(ds, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(ds, cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

# a libc handle without mallopt (macOS), no handle at all (Windows), and musl's mallopt that returns 0
IMPORT_WITH_FAKE_LIBC = """
import ctypes, types
calls = []
def mallopt(param, value):
    calls.append((param, value))
    return 0
def no_handle(name):
    raise TypeError("no handle")
ctypes.CDLL = {"missing": lambda name: types.SimpleNamespace(), "no-handle": no_handle,
               "returns-0": lambda name: types.SimpleNamespace(mallopt=mallopt)}[CASE]
import casif
print(calls)
"""


def run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="mallopt thresholds are glibc's")
def test_second_train_call_reuses_freed_heap():
    # glibc's defaults give ~9000 minor faults here: every sub-batch's score rows come back as fresh pages
    faults = int(run_python(TRAIN_TWICE))
    assert faults < 500, f"{faults} minor page faults in the second train call"


@pytest.mark.parametrize("case", ["missing", "no-handle", "returns-0"])
def test_import_without_mallopt(case):
    calls = run_python(f"CASE = {case!r}\n" + IMPORT_WITH_FAKE_LIBC)
    # musl: the first call fails, so the trim threshold is not tried
    assert calls == ("[(-3, 33554432)]" if case == "returns-0" else "[]")
