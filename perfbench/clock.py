"""The benchmark's clock: CPU time, scaled to a fixed host speed.

CPU time leaves out the work of other processes on the same machine, but
not the state of the host a virtual machine runs on: with a busy host,
the same instructions take up to twice as long (README.md has the
figures).  So every timed phase is bracketed by a short reference kernel,
unrelated to casif, and the phase's CPU time is multiplied by
``NOMINAL_REFERENCE_S / (CPU time of the reference around the phase)``.
A figure then reads as the CPU time the phase would take on a host that
runs the reference in ``NOMINAL_REFERENCE_S``.
"""

from __future__ import annotations

import resource
import time

import numpy as np

# Never change: every figure the benchmark has reported is scaled by it.
NOMINAL_REFERENCE_S = 0.010
_REFERENCE_REPEATS = 600

_rng = np.random.default_rng(20210330)
_A = _rng.random((20, 32))
_B = _rng.random((32, 32))


def cpu_seconds() -> float:
    """CPU time of this process, all threads, plus the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_seconds() -> float:
    """CPU seconds of a fixed mix of small numpy calls and interpreted loops."""
    start = cpu_seconds()
    for _ in range(_REFERENCE_REPEATS):
        x = np.tanh(_A @ _B)
        (1.0 / (1.0 + np.exp(-x))).sum(axis=0)
        table = {}
        for i in range(50):
            table[i] = i * i
    return cpu_seconds() - start


class HostSpeed:
    """Scales the CPU times of calls by reference runs taken around each block of calls.

    A block is ``every`` consecutive calls; the reference kernel runs before
    the first block and after each one, and each call's time is multiplied
    by ``NOMINAL_REFERENCE_S`` over the mean of the two runs around its
    block.  Blocks short against the host's spells keep the scaling local.
    ``samples`` collects every reference time measured, for the run's record.
    """

    def __init__(self, samples: list, every: int = 1):
        self.samples, self.every = samples, every
        self.times: list = []
        self._block: list = []

    def __enter__(self):
        self._before = reference_seconds()
        self.samples.append(self._before)
        return self

    def add(self, seconds: float) -> None:
        self._block.append(seconds)
        if len(self._block) == self.every:
            self._flush()

    def _flush(self):
        after = reference_seconds()
        self.samples.append(after)
        factor = NOMINAL_REFERENCE_S / (0.5 * (self._before + after))
        self.times += [t * factor for t in self._block]
        self._before, self._block = after, []

    def __exit__(self, *exc):
        if self._block:
            self._flush()
        return False
