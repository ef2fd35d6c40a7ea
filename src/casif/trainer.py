"""Mini-batch training: Adam, stepped learning-rate decay, checkpoints.

Training is deterministic end to end: parameters come from the seeded
init stream, each epoch's shuffle comes from its own substream keyed on
(seed, epoch), a batch always splits into the same sub-batches, whose
gradients accumulate in a fixed order, and checkpoints serialize every
tensor bit-exactly.  Interrupting after epoch k and
resuming from the checkpoint reproduces the uninterrupted run, because
nothing carries hidden state across epochs except the parameters and the
optimizer moments, both of which the checkpoint holds.

Parameters, gradients and Adam moments are each one float64 vector
``flat`` viewed by named tensors, so Adam and the gradient scaling are
whole-vector operations, and the checkpoint's tensor section is ``params.flat``.

Checkpoint layout (all little-endian):

    magic "CASF" | version u16 | d u32 | num_items u32 | gnn_steps u32
    variant u8 | loss u8 | current-interest u8 | flags u8 | epoch u32
    tensors: params.flat, float64, every tensor row-major in declared order
    [flags bit0] adam step counter u64, then (moment1, moment2) per tensor
    [flags bit1] rng seed u64
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
    Gradients,
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
CHECKPOINT_VERSION = 1

_FLAG_ADAM = 1
_FLAG_RNG = 2

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
        if not self.lr0 > 0:
            raise ConfigError(f"lr0 must be positive, got {self.lr0}")
        if self.lr_decay_every < 1:
            raise ConfigError(f"lr_decay_every must be >= 1, got {self.lr_decay_every}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.l2_lambda < 0:
            raise ConfigError(f"l2_lambda must be >= 0, got {self.l2_lambda}")


@dataclass
class AdamState:
    moment1: Gradients
    moment2: Gradients
    t: int = 0

    @classmethod
    def fresh(cls, params: ModelParams) -> "AdamState":
        return cls(moment1=zero_gradients(params), moment2=zero_gradients(params))


@dataclass
class Checkpoint:
    hp: HyperParams
    params: ModelParams
    adam: AdamState | None = None
    epoch: int = 0
    rng_seed: int | None = None

    @property
    def num_items(self) -> int:
        return self.params.num_items


@dataclass
class EpochLog:
    epoch: int
    lr: float
    mean_loss: float
    metrics: dict | None = None

    def record(self) -> dict:
        rec = {"epoch": self.epoch, "lr": self.lr, "mean_loss": self.mean_loss}
        if self.metrics is not None:
            rec["metrics"] = self.metrics
        return rec


@dataclass
class TrainResult:
    params: ModelParams
    adam: AdamState
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


def adam_step(params: ModelParams, grads: Gradients, state: AdamState, lr: float):
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


def _l2_value(params: ModelParams) -> float:
    return float(sum(float((arr * arr).sum()) for _, arr in params.tensors()))


def train(
    dataset: ProcessedDataset,
    cfg: TrainConfig,
    resume: Checkpoint | None = None,
    eval_examples=None,
    eval_k: int = 20,
) -> TrainResult:
    """Run the training loop over the dataset's train split.

    Per batch: mean example loss plus l2_lambda * sum of squared parameter
    entries, gradients to match, one Adam step at the epoch's learning
    rate.  Pass a checkpoint to continue from its epoch, with its model
    settings and, when it holds one, its seed in place of ``cfg``'s; the
    result is bit-identical to a run that never stopped.
    """
    if not dataset.train:
        raise DataError("dataset has no training examples")
    hp, seed = cfg.hp, cfg.seed
    if resume is not None:
        if resume.num_items != dataset.num_items:
            raise DataError(
                f"checkpoint was trained with {resume.num_items} items, dataset has {dataset.num_items}")
        if resume.epoch > cfg.epochs:
            raise ConfigError(
                f"checkpoint has trained {resume.epoch} epochs, more than the {cfg.epochs} asked for")
        params = resume.params
        adam = resume.adam if resume.adam is not None else AdamState.fresh(params)
        hp = resume.hp
        if resume.rng_seed is not None:
            seed = resume.rng_seed
        start_epoch = resume.epoch
    else:
        params = init_params(dataset.num_items, hp, seed)
        adam = AdamState.fresh(params)
        start_epoch = 0

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
            batch_loss = loss_sum * scale + cfg.l2_lambda * _l2_value(params)
            if not np.isfinite(batch_loss):
                raise TrainingError(f"non-finite loss in epoch {epoch}, batch {batch_index}")
            adam_step(params, grads, adam, lr)
            batch_losses.append(batch_loss)
        metrics = None
        if eval_examples:
            from .evaluation import evaluate_model
            report = evaluate_model(params, hp, eval_examples, ks=(eval_k,))
            metrics = {f"recall@{eval_k}": report.recall(eval_k), f"mrr@{eval_k}": report.mrr(eval_k)}
        logs.append(EpochLog(epoch=epoch, lr=lr, mean_loss=float(np.mean(batch_losses)), metrics=metrics))

    ckpt = Checkpoint(hp=hp, params=params, adam=adam, epoch=cfg.epochs, rng_seed=seed)
    return TrainResult(params=params, adam=adam, epoch_logs=logs, checkpoint=ckpt)


# ---------------------------------------------------------------------------
# checkpoint serialization


def _write_array(fh, arr: np.ndarray):
    fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Serialize a checkpoint; see the module docstring for the layout."""
    flags = (_FLAG_ADAM if ckpt.adam is not None else 0) | (_FLAG_RNG if ckpt.rng_seed is not None else 0)
    hp = ckpt.hp
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<H", CHECKPOINT_VERSION))
        fh.write(struct.pack(
            "<IIIBBBBI",
            hp.d, ckpt.num_items, hp.gnn_steps,
            VARIANTS.index(hp.variant),
            LOSS_VARIANTS.index(hp.loss_variant),
            CURRENT_INTEREST_INPUTS.index(hp.current_interest_input),
            flags, ckpt.epoch,
        ))
        _write_array(fh, ckpt.params.flat)
        if ckpt.adam is not None:
            fh.write(struct.pack("<Q", ckpt.adam.t))
            for name in ckpt.params.tensor_names():
                _write_array(fh, ckpt.adam.moment1[name])
                _write_array(fh, ckpt.adam.moment2[name])
        if ckpt.rng_seed is not None:
            fh.write(struct.pack("<Q", ckpt.rng_seed & 0xFFFFFFFFFFFFFFFF))


def _read_exact(fh, count: int, path, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise DataError(f"{path}: truncated checkpoint while reading {what}")
    return data


def load_checkpoint(path) -> Checkpoint:
    """Inverse of save_checkpoint, validating magic, version, and length."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}, not a checkpoint file")
        (version,) = struct.unpack("<H", _read_exact(fh, 2, path, "version"))
        if version != CHECKPOINT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        d, num_items, gnn_steps, variant_code, loss_code, cur_code, flags, epoch = struct.unpack(
            "<IIIBBBBI", _read_exact(fh, 20, path, "header"))
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
        # size check first, so a corrupt header cannot allocate more than the file holds
        if 8 * size * (3 if flags & _FLAG_ADAM else 1) > os.fstat(fh.fileno()).st_size - fh.tell():
            raise DataError(f"{path}: truncated checkpoint while reading tensors")

        def read_into(arr, what):
            if fh.readinto(arr) != arr.nbytes:
                raise DataError(f"{path}: truncated checkpoint while reading {what}")
            return arr

        params = ModelParams.from_flat(read_into(np.empty(size, dtype="<f8"), "tensors"), shapes)

        adam = None
        if flags & _FLAG_ADAM:
            (t,) = struct.unpack("<Q", _read_exact(fh, 8, path, "optimizer step counter"))
            moments = np.empty(2 * size, dtype="<f8")
            moment1, moment2 = Gradients(moments[:size], shapes), Gradients(moments[size:], shapes)
            for name in shapes:     # interleaved per tensor
                read_into(moment1[name], f"optimizer moment1 {name}")
                read_into(moment2[name], f"optimizer moment2 {name}")
            adam = AdamState(moment1=moment1, moment2=moment2, t=t)

        rng_seed = None
        if flags & _FLAG_RNG:
            (rng_seed,) = struct.unpack("<Q", _read_exact(fh, 8, path, "rng seed"))

        trailing = fh.read(1)
        if trailing:
            raise DataError(f"{path}: trailing bytes after checkpoint payload")

    return Checkpoint(hp=hp, params=params, adam=adam, epoch=epoch, rng_seed=rng_seed)
