"""Synthetic click logs for desk-scale experiments.

Two generators, both emitting the same raw CSV layout the preprocessor
reads (session_id, epoch-ms timestamp, item_id):

* markov: sessions are walks over a random order-1 transition table with
  a few preferred successors per item, so there is real sequential signal
  for a model to learn.
* functional: every session starts with its own unique item, which makes
  the prefix -> next-item mapping a function over the whole corpus; a
  model with enough capacity can memorize it perfectly.

Sessions start ten minutes apart, clicks within a session one second
apart, so a few hundred sessions span several days and the default
last-day train/test split lands inside the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rng import STREAM_SYNTH, SplitMix64, substream_seed

BASE_TIME_MS = 1_500_000_000_000   # arbitrary fixed origin, keeps output stable
SESSION_GAP_MS = 600_000
CLICK_GAP_MS = 1_000
MODES = ("markov", "functional")


@dataclass
class SynthSpec:
    mode: str = "markov"
    num_items: int = 50
    num_sessions: int = 1000
    min_len: int = 2
    max_len: int = 10
    branching: int = 3   # markov: preferred successors per item
    seed: int = 0

    def __post_init__(self):
        if self.num_items < 1:
            raise ConfigError(f"num_items must be >= 1, got {self.num_items}")
        if self.num_sessions < 1:
            raise ConfigError(f"num_sessions must be >= 1, got {self.num_sessions}")
        if not 1 <= self.min_len <= self.max_len:
            raise ConfigError(f"need 1 <= min_len <= max_len, got {self.min_len}..{self.max_len}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "functional" and self.num_sessions > self.num_items:
            raise ConfigError(
                "functional mode needs one distinct start item per session: "
                f"{self.num_sessions} sessions > {self.num_items} items")
        if self.mode == "markov" and self.branching < 1:
            raise ConfigError(f"branching must be >= 1, got {self.branching}")


def generate_sessions(spec: SynthSpec) -> list[list[int]]:
    """Item-index sessions for a generator description; deterministic in the seed.

    Each kind of draw is one call over all sessions, cut at each session's
    offset: the stream is counter-based, so this gives the same values as
    one call per session in session order.
    """
    stream = SplitMix64(substream_seed(spec.seed, STREAM_SYNTH))
    lengths = spec.min_len + stream.integers(spec.num_sessions, spec.max_len - spec.min_len + 1)

    if spec.mode == "functional":
        starts = stream.permutation(spec.num_items)[: spec.num_sessions].tolist()
        rest = stream.integers(int((lengths - 1).sum()), spec.num_items).tolist()
        ends = np.cumsum(lengths - 1).tolist()
        return [[start, *rest[end - length + 1:end]]
                for start, end, length in zip(starts, ends, lengths.tolist())]

    # markov: each item prefers `branching` successors with heavy probability mass
    succ = stream.integers(spec.num_items * spec.branching, spec.num_items)
    succ = succ.reshape(spec.num_items, spec.branching).tolist()
    u = stream.uniform(int(lengths.sum())).tolist()
    sessions = []
    start = 0
    for length in lengths.tolist():
        current = int(u[start] * spec.num_items) % spec.num_items
        walk = [current]
        for r in u[start + 1:start + length]:
            if r < 0.9:   # follow a preferred transition
                current = succ[current][int(r / 0.9 * spec.branching) % spec.branching]
            else:         # jump anywhere
                current = int((r - 0.9) / 0.1 * spec.num_items) % spec.num_items
            walk.append(current)
        sessions.append(walk)
        start += length
    return sessions


def write_click_log(sessions, fh) -> int:
    """Write sessions as raw CSV click lines; returns the click count."""
    clicks = 0
    for s, items in enumerate(sessions):
        start = BASE_TIME_MS + s * SESSION_GAP_MS
        for t, item in enumerate(items):
            fh.write(f"sess{s},{start + t * CLICK_GAP_MS},item{item}\n")
            clicks += 1
    return clicks
