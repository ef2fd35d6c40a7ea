"""Deterministic random number generation.

Every random draw in this package flows through the SplitMix64 generator
(Steele, Lea & Flood, "Fast splittable pseudorandom number generators",
OOPSLA 2014; the exact output function below is the one popularized by
Vigna's reference C implementation).  SplitMix64 is counter-based, so a
stream's k-th output depends only on (seed, k); that is what makes
checkpoints and shuffles reproducible across runs, platforms, and numpy
versions.

Algorithm identity, pinned so that serialized artifacts stay valid:

* state update: ``state += 0x9E3779B97F4A7C15`` (golden-ratio gamma)
* output mix::

      z = state
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
      z = (z ^ (z >> 27)) * 0x94D049BB133111EB
      return z ^ (z >> 31)

  all arithmetic modulo 2**64.
* uniforms in [0, 1): ``(word >> 11) * 2.0**-53``.
* Gaussians: Box-Muller on uniform pairs (u1 shifted into (0, 1] so the
  log never sees zero)::

      r  = sqrt(-2 ln u1)
      z0 = r cos(2 pi u2),  z1 = r sin(2 pi u2)

  An output array of n values consumes ceil(n/2) pairs; the trailing z1
  of an odd-length request is discarded.
* permutations: argsort (stable) of one 64-bit word per element.

Independent streams are derived from one user-facing seed with
``substream_seed(seed, *path)``; the path is a short tuple of small
integer tags (see ``STREAM_*`` constants).  Changing any tag or the seed
yields an unrelated stream.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Stream tags: first element of the derivation path.
STREAM_INIT = 1      # parameter initialization
STREAM_SHUFFLE = 2   # epoch shuffles; path = (STREAM_SHUFFLE, epoch)
STREAM_SYNTH = 3     # synthetic data generation


def _mix(z):
    """SplitMix64 output function on uint64 scalars or arrays."""
    z = np.uint64(z) if np.isscalar(z) else z
    with np.errstate(over="ignore"):  # wraparound mod 2**64 is the algorithm
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def substream_seed(seed: int, *path: int) -> int:
    """Derive the seed of an independent stream from a base seed and path tags."""
    s = _mix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    for tag in path:
        s = _mix(s ^ _mix(np.uint64(tag & 0xFFFFFFFFFFFFFFFF) + _GAMMA))
    return int(s)


class SplitMix64:
    """Counter-based SplitMix64 stream.

    ``words(n)`` returns the next n raw 64-bit outputs; all other draws
    are defined in terms of it, in the documented order, so the mapping
    (seed, call sequence) -> values is fixed for all time.
    """

    def __init__(self, seed: int):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = 0

    def words(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            state = self.seed + idx * _GAMMA
        return _mix(state)

    def uniform(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1)."""
        return (self.words(n) >> np.uint64(11)) * 2.0 ** -53

    def gaussian(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """Gaussian array via Box-Muller."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        pairs = (n + 1) // 2
        u1 = 1.0 - self.uniform(pairs)  # (0, 1]: keeps log finite
        u2 = self.uniform(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(2.0 * np.pi * u2)
        out[1::2] = r * np.sin(2.0 * np.pi * u2)
        return (mean + std * out[:n]).reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n): stable argsort of random words."""
        return np.argsort(self.words(n), kind="stable")

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n integers in [0, bound) by 53-bit uniform scaling."""
        return np.minimum((self.uniform(n) * bound).astype(np.int64), bound - 1)
