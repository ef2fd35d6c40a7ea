"""Mini-batch training: Adam, stepped learning-rate decay, checkpoints.

Training is deterministic end to end: parameters come from the seeded
init stream, each epoch's shuffle comes from its own substream keyed on
(seed, epoch), a batch always splits into the same sub-batches, whose
gradients accumulate in a fixed order, and checkpoints serialize every
tensor bit-exactly.  Interrupting after epoch k and
resuming from the checkpoint reproduces the uninterrupted run, because
nothing carries hidden state across epochs except the parameters and the
optimizer moments, both of which the checkpoint holds.

Parameters, gradients and Adam moments are one type, ``ModelParams``:
named tensors viewing one float64 vector ``flat``.  So Adam and the
gradient scaling are whole-vector operations, and the checkpoint's payload
is ``params.flat`` and the two moments' ``flat``, one write each.

Checkpoint layout (all little-endian), version 2:

    magic "CASF" | version u16 | d u32 | num_items u32 | gnn_steps u32
    variant u8 | loss u8 | current-interest u8 | epoch u32
    adam step counter u64 | rng seed u64                     (41 bytes)
    params.flat, moment1.flat, moment2.flat: float64, each tensor row-major in declared order

The header fixes the file's length at 41 + 24 * size bytes for ``size``
parameter entries, so a file of any other length is truncated or has
trailing bytes.  Version-1 files are rejected by the version check.  A save
writes a temporary file beside ``path`` and renames it over ``path``, so a
save that fails leaves the previous file as it was.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .corpus import ProcessedDataset
from .errors import ConfigError, DataError
from .model import (
    CURRENT_INTEREST_INPUTS,
    LOSS_VARIANTS,
    VARIANTS,
    HyperParams,
    ModelParams,
    _tensor_shapes,
    backward_batch,
    forward_batch,
    init_params,
    sub_batches,
    zero_gradients,
)
from .rng import STREAM_SHUFFLE, SplitMix64, substream_seed

CHECKPOINT_MAGIC = b"CASF"
CHECKPOINT_VERSION = 2

# magic, version, d, num_items, gnn_steps, variant, loss, current-interest, epoch, adam step, rng seed
_HEADER = struct.Struct("<4sHIIIBBBIQQ")

# Adam's moment decay rates and denominator epsilon
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingError(RuntimeError):
    """Training hit a non-finite value and aborted."""


@dataclass
class TrainConfig:
    batch_size: int = 128
    lr0: float = 0.001
    lr_decay_factor: float = 0.1
    lr_decay_every: int = 3
    l2_lambda: float = 1e-5
    epochs: int = 10
    seed: int = 0
    hp: HyperParams = field(default_factory=HyperParams)

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.lr0) and self.lr0 > 0):
            raise ConfigError(f"lr0 must be finite and positive, got {self.lr0}")
        if not (math.isfinite(self.lr_decay_factor) and self.lr_decay_factor > 0):
            raise ConfigError(f"lr_decay_factor must be finite and positive, got {self.lr_decay_factor}")
        if self.lr_decay_every < 1:
            raise ConfigError(f"lr_decay_every must be >= 1, got {self.lr_decay_every}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.l2_lambda) and self.l2_lambda >= 0):
            raise ConfigError(f"l2_lambda must be finite and >= 0, got {self.l2_lambda}")


@dataclass
class AdamState:
    moment1: ModelParams
    moment2: ModelParams
    t: int = 0

    @classmethod
    def fresh(cls, params: ModelParams) -> "AdamState":
        return cls(moment1=zero_gradients(params), moment2=zero_gradients(params))


@dataclass
class Checkpoint:
    hp: HyperParams
    params: ModelParams
    adam: AdamState
    epoch: int
    rng_seed: int

    @property
    def num_items(self) -> int:
        return self.params.num_items


@dataclass
class EpochLog:
    epoch: int
    lr: float
    mean_loss: float


@dataclass
class TrainResult:
    params: ModelParams
    epoch_logs: list
    checkpoint: Checkpoint


def make_batches(examples, batch_size: int, seed: int, epoch: int):
    """Shuffle by the (seed, epoch) substream and chunk; short tail kept."""
    if not examples:
        raise DataError("cannot batch an empty example list")
    perm = SplitMix64(substream_seed(seed, STREAM_SHUFFLE, epoch)).permutation(len(examples))
    return [[examples[i] for i in perm[lo:lo + batch_size]]
            for lo in range(0, len(examples), batch_size)]


def lr_for_epoch(cfg: TrainConfig, epoch: int) -> float:
    """Stepped decay: lr0 * factor^(epoch // every)."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr0 * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState, lr: float):
    """One bias-corrected Adam update of ``params.flat``, in place.  Aborts on non-finite gradients.

    Whole-vector operations with two temporaries, in the per-element order
    of ``theta -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``.
    """
    g = grads.flat
    with np.errstate(over="ignore"):
        total = g.sum()
    if not np.isfinite(total):      # a NaN or inf entry poisons the sum; so may finite ones that overflow
        for name, arr in grads.items():
            bad = ~np.isfinite(arr)
            if bad.any():
                where = tuple(int(i) for i in np.argwhere(bad)[0])
                raise TrainingError(f"non-finite gradient in {name} at coordinate {where}")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    m, v = state.moment1.flat, state.moment2.flat
    step, denom = np.multiply(1.0 - ADAM_BETA1, g), np.multiply(1.0 - ADAM_BETA2, g)
    m *= ADAM_BETA1
    m += step
    v *= ADAM_BETA2
    v += np.multiply(denom, g, out=denom)
    np.multiply(np.divide(m, bc1, out=step), lr, out=step)
    np.sqrt(np.divide(v, bc2, out=denom), out=denom)
    denom += ADAM_EPS
    params.flat -= np.divide(step, denom, out=step)
    return params, state


def train(
    dataset: ProcessedDataset,
    cfg: TrainConfig,
    resume: Checkpoint | None = None,
) -> TrainResult:
    """Run the training loop over the dataset's train split.

    Per batch: mean example loss plus l2_lambda * sum of squared parameter
    entries, gradients to match, one Adam step at the epoch's learning
    rate.  Pass a checkpoint to continue from its epoch, with its
    parameters, Adam state, model settings and seed in place of ``cfg``'s;
    the result is bit-identical to a run that never stopped.
    """
    if not dataset.train:
        raise DataError("dataset has no training examples")
    if resume is not None:
        if resume.num_items != dataset.num_items:
            raise DataError(
                f"checkpoint was trained with {resume.num_items} items, dataset has {dataset.num_items}")
        if resume.epoch > cfg.epochs:
            raise ConfigError(
                f"checkpoint has trained {resume.epoch} epochs, more than the {cfg.epochs} asked for")
        params, adam, hp = resume.params, resume.adam, resume.hp
        seed, start_epoch = resume.rng_seed, resume.epoch
    else:
        hp, seed, start_epoch = cfg.hp, cfg.seed, 0
        params = init_params(dataset.num_items, hp, seed)
        adam = AdamState.fresh(params)

    logs: list[EpochLog] = []
    grads = zero_gradients(params)      # one buffer, zeroed per batch: a fresh one is a fresh mmap above 32 MiB
    for epoch in range(start_epoch, cfg.epochs):
        lr = lr_for_epoch(cfg, epoch)
        batch_losses = []
        for batch_index, batch in enumerate(make_batches(dataset.train, cfg.batch_size, seed, epoch)):
            grads.flat.fill(0.0)
            loss_sum = 0.0
            for rows in sub_batches(batch, dataset.num_items, hp):
                trace = forward_batch([batch[i] for i in rows], params, hp)
                loss_sum += float(trace.losses.sum())
                backward_batch(trace, params, hp, grads)
                del trace       # so that it is freed before the next sub-batch's forward pass
            scale = 1.0 / len(batch)
            grads.flat *= scale
            if cfg.l2_lambda:
                grads.flat += 2.0 * cfg.l2_lambda * params.flat
            batch_loss = loss_sum * scale + cfg.l2_lambda * float(params.flat @ params.flat)
            if not np.isfinite(batch_loss):
                raise TrainingError(f"non-finite loss in epoch {epoch}, batch {batch_index}")
            adam_step(params, grads, adam, lr)
            batch_losses.append(batch_loss)
        logs.append(EpochLog(epoch=epoch, lr=lr, mean_loss=float(np.mean(batch_losses))))

    ckpt = Checkpoint(hp=hp, params=params, adam=adam, epoch=cfg.epochs, rng_seed=seed)
    return TrainResult(params=params, epoch_logs=logs, checkpoint=ckpt)


# ---------------------------------------------------------------------------
# checkpoint serialization


def _write_array(fh, arr: np.ndarray):
    fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Serialize a checkpoint; see the module docstring for the layout."""
    hp = ckpt.hp
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(
                CHECKPOINT_MAGIC, CHECKPOINT_VERSION, hp.d, ckpt.num_items, hp.gnn_steps,
                VARIANTS.index(hp.variant),
                LOSS_VARIANTS.index(hp.loss_variant),
                CURRENT_INTEREST_INPUTS.index(hp.current_interest_input),
                ckpt.epoch, ckpt.adam.t, ckpt.rng_seed & 0xFFFFFFFFFFFFFFFF,
            ))
            for vector in (ckpt.params, ckpt.adam.moment1, ckpt.adam.moment2):
                _write_array(fh, vector.flat)
        os.replace(tmp, path)
    except BaseException:       # KeyboardInterrupt too: the previous file stays whole
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Inverse of save_checkpoint, validating magic, header, and length."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        magic = header[:len(CHECKPOINT_MAGIC)]
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}, not a checkpoint file")
        if len(header) < _HEADER.size:
            raise DataError(f"{path}: truncated checkpoint header")
        (_, version, d, num_items, gnn_steps, variant_code, loss_code, cur_code,
         epoch, t, rng_seed) = _HEADER.unpack(header)
        if version != CHECKPOINT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        try:
            hp = HyperParams(
                d=d, gnn_steps=gnn_steps,
                variant=VARIANTS[variant_code],
                loss_variant=LOSS_VARIANTS[loss_code],
                current_interest_input=CURRENT_INTEREST_INPUTS[cur_code],
            )
        except IndexError as exc:
            raise DataError(f"{path}: unknown code in header") from exc
        except ConfigError as exc:
            raise DataError(f"{path}: bad header: {exc}") from exc
        if num_items < 1:
            raise DataError(f"{path}: bad header: num_items must be >= 1, got {num_items}")

        shapes = _tensor_shapes(num_items, d, hp.variant)
        size = sum(math.prod(shape) for shape in shapes.values())
        # the one length check, before any allocation: a corrupt header cannot ask for
        # more than the file holds, and the read below cannot come up short
        expected = _HEADER.size + 24 * size
        actual = os.fstat(fh.fileno()).st_size
        if actual != expected:
            problem = "truncated checkpoint" if actual < expected else "trailing bytes after checkpoint payload"
            raise DataError(f"{path}: {problem}: {actual} bytes, the header needs {expected}")

        payload = np.empty(3 * size, dtype="<f8")
        fh.readinto(payload)
    params, moment1, moment2 = (ModelParams(third, shapes) for third in payload.reshape(3, size))
    return Checkpoint(hp=hp, params=params, adam=AdamState(moment1=moment1, moment2=moment2, t=t),
                      epoch=epoch, rng_seed=rng_seed)
