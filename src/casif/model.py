"""The recommendation network and its hand-written gradients.

A batch of examples flows through one path: embedding lookup of the
session-graph nodes, a gated (GRU-style) propagation over each graph's
incoming/outgoing weight matrices, expansion back to session positions,
an attention readout that conditions each position's score on the last
click and the mean-pooled session context, two small tanh layers blending
general and current interest, and a bilinear score against every item
embedding.  The simplified variant ("casif_s") drops the readout's last-click
and mean terms, so each position's score sees only the position itself, and
scores the attention context directly.  The softmax over the scores and
the loss run only when a caller first reads them: ranking needs only the
scores, whose order the softmax keeps, so evaluation never computes it.

The batch is padded to its largest graph, as in SR-GNN (Wu et al., AAAI
2019): node states are (B, q, d), the adjacency matrices (B, q, q), and
positions pick their node through a one-hot (B, n, q) alias matrix whose
padded rows are zero.  Every product with a weight matrix is one 2-D
GEMM over all B*q node rows or B*n position rows; the graph products are
``np.matmul`` over the batch axis; the scores are one (B, d) @ (d, N)
GEMM.  A padded node has no edges and no position and a padded position
holds a zero latent, so padding adds exact zeros to every real value and
gradient.  Training and evaluation cut each batch into sub-batches of
similar prefix length (``sub_batches``) to bound the padding and the
memory of one pass.  One cost model sets either kind of pass two limits,
its activations and, apart, its (B, N) score rows; only the coefficients
differ, since training keeps gradients and the loss pass's rows, and a
scoring pass, which only ranks, its forward activations and logits.
``forward_batch`` and ``backward_batch`` are the model's one API;
``forward`` and ``backward`` of one example are the batch of one, kept
for the benchmark's probes, and their ``ForwardTrace`` reads only the
logits, probabilities and loss.

The learnable tensors, their gradients and Adam's moments are one type,
``ModelParams``: named views of one float64 vector, in the order of the
one layout table ``_LAYOUT``, which both variants share.

Everything is float64 numpy.  ``backward_batch`` is exact reverse-mode
differentiation of the batch's summed loss; ``finite_difference_grad``
is the independent oracle it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import PrefixExample
from .errors import ConfigError
from .graph import GraphBatch, SessionGraph, build_graph_batch
from .rng import STREAM_INIT, SplitMix64, substream_seed

VARIANTS = ("casif", "casif_s")
LOSS_VARIANTS = ("eq13", "softmax_ce")
CURRENT_INTEREST_INPUTS = ("h_n", "c_a")

INIT_STD = 0.1


@dataclass
class HyperParams:
    d: int = 100
    gnn_steps: int = 1
    variant: str = "casif"
    loss_variant: str = "eq13"
    # the printed definition of the current-interest layer reads the attention
    # context; its surrounding description reads the last click.  Default: last click.
    current_interest_input: str = "h_n"

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError(f"embedding dimension must be >= 1, got {self.d}")
        if self.gnn_steps < 1:
            raise ConfigError(f"gnn_steps must be >= 1, got {self.gnn_steps}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.loss_variant not in LOSS_VARIANTS:
            raise ConfigError(f"loss_variant must be one of {LOSS_VARIANTS}, got {self.loss_variant!r}")
        if self.current_interest_input not in CURRENT_INTEREST_INPUTS:
            raise ConfigError(
                f"current_interest_input must be one of {CURRENT_INTEREST_INPUTS}, "
                f"got {self.current_interest_input!r}"
            )


# The one tensor layout: name -> shape over the dimensions "items", "d" and "2d".
# Its order is the checkpoint layout and the init draw order.  Never reorder:
# serialized checkpoints depend on it.  ``emb`` doubles as the input lookup table
# and the candidate vectors of the final score (weight tying).
_LAYOUT = {
    "emb": ("items", "d"),
    "w_in": ("d", "d"),          # incoming message transform
    "b_in_inner": ("d",),        # bias inside the aggregation
    "b_in_outer": ("d",),        # bias outside the aggregation
    "w_out": ("d", "d"),
    "b_out_inner": ("d",),
    "b_out_outer": ("d",),
    "gate_update_msg": ("2d", "d"),
    "gate_update_self": ("d", "d"),
    "gate_reset_msg": ("2d", "d"),
    "gate_reset_self": ("d", "d"),
    "gate_cand_msg": ("2d", "d"),
    "gate_cand_self": ("d", "d"),
    "att_score": ("d",),         # weighting vector collapsing gate output to a scalar
    "att_item": ("d", "d"),      # per-position transform, the one casif_s reads too
    "att_last": ("d", "d"),      # last-click transform
    "att_mean": ("d", "d"),      # session-mean transform
    "att_bias": ("d",),
    "mlp_general_w": ("d", "d"),
    "mlp_general_b": ("d",),
    "mlp_current_w": ("d", "d"),
    "mlp_current_b": ("d",),
}


class ModelParams(dict):
    """Named tensors that are views of one float64 vector ``flat``.

    Parameters, their gradients and Adam's two moments all have this
    type.  ``flat`` holds the tensors row-major in the order of ``shapes``
    and is never copied; for parameters and moments it is byte for byte
    one of the checkpoint's three vectors.  Each tensor is also an attribute
    (``params.emb``).
    """

    def __init__(self, flat: np.ndarray, shapes):
        start = 0
        for name, shape in shapes.items():
            stop = start + math.prod(shape)
            self[name] = flat[start:stop].reshape(shape)
            start = stop
        self.__dict__.update(self)
        self.flat = flat

    @property
    def num_items(self) -> int:
        return self.emb.shape[0]

    @property
    def d(self) -> int:
        return self.emb.shape[1]

    def tensor_names(self) -> tuple[str, ...]:
        return tuple(self)

    def tensors(self):
        """(name, array) pairs in the fixed declared order."""
        return list(self.items())

    def shapes(self) -> dict:
        """Shape of every tensor, in declared order."""
        return {name: arr.shape for name, arr in self.items()}

    def copy(self) -> "ModelParams":
        return ModelParams(self.flat.copy(), self.shapes())

    def __reduce__(self):   # pickle and copy.deepcopy rebuild the views over the copied vector
        return ModelParams, (self.flat, self.shapes())


def _tensor_shapes(num_items: int, d: int):
    """Shape of every tensor, in declared order."""
    dims = {"items": num_items, "d": d, "2d": 2 * d}
    return {name: tuple(dims[x] for x in shape) for name, shape in _LAYOUT.items()}


def init_params(num_items: int, hp: HyperParams, seed: int) -> ModelParams:
    """Fresh parameters, every entry i.i.d. N(0, 0.1^2).

    Tensors are drawn from the init substream in declared order, so a
    given (num_items, hp.d, seed) yields bit-identical values for either variant.
    """
    if num_items < 1:
        raise ConfigError(f"num_items must be >= 1, got {num_items}")
    stream = SplitMix64(substream_seed(seed, STREAM_INIT))
    shapes = _tensor_shapes(num_items, hp.d)
    params = ModelParams(np.empty(sum(map(math.prod, shapes.values()))), shapes)
    for arr in params.values():
        arr[...] = stream.gaussian(arr.shape, std=INIT_STD)
    return params


def zero_gradients(params: ModelParams) -> ModelParams:
    return ModelParams(np.zeros_like(params.flat), params.shapes())


# Budgets of one sub-batch's pass, each counted per example at its longest prefix.  Activations:
# 8 * a * (gnn_steps + 2) * len * d bytes; tracemalloc measured a at 8.6-10.4 for training (from
# 5 items on) and 3.9-6.0 for scoring (6.8 at one click) over d 32 and 100, 1 and 2 steps, both
# variants, 2-50 distinct items and widths 8 and 64, so a = 10 and 5.
SUB_BATCH_BYTES = 1536 * 1024
# Score rows: 8 * r * N bytes.  A training pass peaks at 5 (B, N) rows per example in eq13's loss
# pass and 4 in backward, plus one (N, d) temporary per pass at any width (d 4-100, widths
# 4-128), so r = 5; scoring holds its logits, r = 1.  At 43,097 items and d=100, random 1-7-click
# prefixes, one BLAS thread: scoring ran 480 ex/s at width 1 and 1.7-1.8k from 8 MiB on, and
# training's passes 34 ex/s at width 1, 112 at 8 MiB (width 4), 193 at 16 MiB (8.3), 258 at 32 MiB
# (12.5, +16 MB peak RSS).  At 16,766 items the activations bind training from 16 MiB: 96 ex/s at
# width 1, 576 at 8 MiB, 686 at 16 MiB and 614 at 32 MiB.  Scoring is activation-bound from 16 MiB.
SCORE_BYTES = 16 * 1024 * 1024


def sub_batches(examples, num_items: int, hp: HyperParams, scoring: bool = False) -> list[list[int]]:
    """Index lists cutting ``examples`` into sub-batches of similar prefix length.

    The examples are stably sorted by prefix length, so a given list
    always yields the same sub-batches.  An example joins the open
    sub-batch while that holds fewer examples than the example's cap:
    the most examples of its prefix length within both budgets, their
    activations and their score rows, counted for a training pass or,
    with ``scoring``, for one that only ranks.  Every sub-batch holds at
    least one example.
    """
    acts, rows = (5, 1) if scoring else (10, 5)
    score_cap, act_bytes = SCORE_BYTES // (8 * rows * num_items), 8 * acts * (hp.gnn_steps + 2) * hp.d
    chunks: list[list[int]] = []
    for i in sorted(range(len(examples)), key=lambda i: len(examples[i].prefix)):
        # sorted, so the newest example is the longest and sets the padded size; an empty
        # prefix, which forward_batch rejects, is counted as one click
        cap = min(score_cap, SUB_BATCH_BYTES // (act_bytes * max(len(examples[i].prefix), 1)))
        if chunks and len(chunks[-1]) < cap:
            chunks[-1].append(i)
        else:
            chunks.append([i])
    return chunks


# ---------------------------------------------------------------------------
# forward


@dataclass
class StepCache:
    """Activations of one propagation step over all B*q node rows, kept for the backward pass."""
    state: np.ndarray        # node states entering the step (B*q, d)
    msg: np.ndarray          # aggregated incoming | outgoing messages (B*q, 2d)
    update: np.ndarray       # update gate (B*q, d)
    reset: np.ndarray        # reset gate (B*q, d)
    gated_state: np.ndarray  # reset * state (B*q, d)
    cand: np.ndarray         # candidate state, tanh (B*q, d)


@dataclass
class BatchTrace:
    """Everything one backward pass needs, cached from the forward pass of a padded batch.

    The forward pass ends at the logits.  The softmax and the loss pass run
    when first read, so ranking, which needs only the logits, pays for neither.
    """
    graphs: GraphBatch
    labels: np.ndarray         # (B,)
    loss_variant: str
    steps: list
    h_nodes: np.ndarray        # final node latents (B, q, d)
    h_pos: np.ndarray          # per-position latents (B, n, d), zero where padded
    session_mean: np.ndarray   # mean-pooled session context (B, d)
    att_gate: np.ndarray       # sigmoid inside the attention (B, n, d)
    alpha: np.ndarray          # attention coefficients (B, n), unnormalized
    att_context: np.ndarray    # attention-weighted context (B, d)
    blend: np.ndarray          # vectors scored against the embedding table (B, d)
    logits: np.ndarray         # (B, num_items)
    current_input: np.ndarray | None = None   # input of the current-interest layer
    general_state: np.ndarray | None = None   # tanh output, general interest
    current_state: np.ndarray | None = None   # tanh output, current interest

    @cached_property
    def _softmax(self):
        return _softmax_with_log(self.logits)

    @property
    def probs(self) -> np.ndarray:
        """Softmax of the logits (B, num_items); it and ``log_probs`` are computed together, when first read."""
        return self._softmax[0]

    @property
    def log_probs(self) -> np.ndarray:
        return self._softmax[1]

    @cached_property
    def _loss_pass(self):
        return _loss_and_grad(self.probs, self.log_probs, self.labels, self.loss_variant)

    @property
    def losses(self) -> np.ndarray:
        """Each example's loss (B,); it and ``d_logits`` are computed together, when first read."""
        return self._loss_pass[0]

    @property
    def d_logits(self) -> np.ndarray:
        """Gradient of each example's loss with respect to its logits (B, num_items)."""
        return self._loss_pass[1]


@dataclass
class ForwardTrace:
    """One example's forward pass: its batch of one, which has no padding, and that
    row's logits and probabilities (num_items,); ``probs`` and ``loss`` are computed
    when first read."""
    batch: BatchTrace

    @property
    def logits(self) -> np.ndarray:
        return self.batch.logits[0]

    @property
    def probs(self) -> np.ndarray:
        return self.batch.probs[0]

    @property
    def loss(self) -> float:
        return float(self.batch.losses[0])


def _sigmoid(x):
    with np.errstate(over="ignore"):    # exp(-x) = inf below x = -709 gives the exact limit 0
        return 1.0 / (1.0 + np.exp(-x))


def _rows(x, w):
    """x @ w as one 2-D product over all leading indices of x."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[1])


def _softmax_with_log(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    probs = np.exp(shifted)
    total = probs.sum(axis=-1, keepdims=True)
    probs /= total
    shifted -= np.log(total)        # in place: the log-probabilities
    return probs, shifted


def _ggnn(nodes, m_in, m_out, params: ModelParams, steps: int):
    """Gated propagation over padded graphs: final states (B, q, d) and per-step caches."""
    batch, q = nodes.shape
    d = params.d
    state = params.emb[nodes.reshape(-1)]
    caches = []
    for _ in range(steps):
        inner_in = (state @ params.w_in + params.b_in_inner).reshape(batch, q, d)
        inner_out = (state @ params.w_out + params.b_out_inner).reshape(batch, q, d)
        msg = np.concatenate([m_in @ inner_in + params.b_in_outer,
                              m_out @ inner_out + params.b_out_outer], axis=2).reshape(-1, 2 * d)
        update = _sigmoid(msg @ params.gate_update_msg + state @ params.gate_update_self)
        reset = _sigmoid(msg @ params.gate_reset_msg + state @ params.gate_reset_self)
        gated_state = reset * state
        cand = np.tanh(msg @ params.gate_cand_msg + gated_state @ params.gate_cand_self)
        caches.append(StepCache(state, msg, update, reset, gated_state, cand))
        state = (1.0 - update) * state + update * cand
    return state.reshape(batch, q, d), caches


def ggnn_forward(graph: SessionGraph, params: ModelParams, hp: HyperParams) -> np.ndarray:
    """Final node latents after hp.gnn_steps synchronous propagation steps."""
    h, _ = _ggnn(np.array([graph.nodes]), graph.m_in[None], graph.m_out[None], params, hp.gnn_steps)
    return h[0]


def session_mean_pool(h_pos: np.ndarray, lengths=None) -> np.ndarray:
    """Mean of the per-position latents (repeats included) over axis -2.

    A padded batch (B, n, d) passes its prefix lengths: its padded
    positions hold zeros, so the sum is over the real ones.
    """
    return h_pos.sum(axis=-2) / (h_pos.shape[-2] if lengths is None else lengths[:, None])


def _readout(h_pos, pre, params: ModelParams):
    gate = _sigmoid(pre)
    alpha = gate @ params.att_score
    context = np.matmul(alpha[..., None, :], h_pos)[..., 0, :]
    return alpha, context, gate


def attention_global_interest(h_pos, h_last, session_mean, params: ModelParams):
    """Attention over session positions, conditioned on the last click first.

    Coefficients are raw dot products against the gate output; they are
    deliberately not normalized across positions.  Returns (alpha, context)
    plus the inner gate needed by the backward pass.  Takes one example's
    (n, d) positions or a padded batch's (B, n, d).
    """
    cond = h_last @ params.att_last + session_mean @ params.att_mean + params.att_bias
    return _readout(h_pos, _rows(h_pos, params.att_item) + cond[..., None, :], params)


def casif_s_attention(h_pos, params: ModelParams):
    """Simplified attention: casif's without the last-click and mean terms, so
    each position is scored from itself alone, as in SR-GNN's soft attention."""
    return _readout(h_pos, _rows(h_pos, params.att_item) + params.att_bias, params)


def interest_mlp(att_context, current_input, params: ModelParams):
    """Two tanh layers abstracting general and current interest."""
    general = np.tanh(att_context @ params.mlp_general_w + params.mlp_general_b)
    current = np.tanh(current_input @ params.mlp_current_w + params.mlp_current_b)
    return general, current


def score_and_predict(general_state, current_state, emb):
    """Bilinear scores against every item embedding, and their softmax."""
    logits = (general_state * current_state) @ emb.T
    probs, _ = _softmax_with_log(logits)
    return logits, probs


def _loss_and_grad(probs, log_probs, labels, variant: str):
    """Each row's loss (B,) and its gradient with respect to the row's logits (B, N), from
    (B, N) probabilities and log-probabilities and (B,) labels; see ``loss``."""
    rows = np.arange(labels.shape[0])
    label_term = log_probs[rows, labels]
    if variant == "softmax_ce":
        d_logits = probs.copy()
        d_logits[rows, labels] -= 1.0
        return -label_term, d_logits
    if variant != "eq13":
        raise ConfigError(f"unknown loss variant {variant!r}")
    # a rival is a non-label item holding p > 1/2, at most one per row.  Its 1 - p is the
    # other items' mass: their logsumexp, log_rest, is exact where p rounds to 1.
    top = log_probs.argmax(axis=1)
    rival_rows = np.flatnonzero((top != labels) & (log_probs[rows, top] > -np.log(2.0)))
    rivals = top[rival_rows]
    log_rest = np.empty(0)
    if rival_rows.size:
        others = log_probs[rival_rows]
        others[np.arange(rival_rows.size), rivals] = -np.inf
        peak = others.max(axis=1, keepdims=True)
        log_rest = peak[:, 0] + np.log(np.exp(others - peak).sum(axis=1))

    with np.errstate(divide="ignore"):
        rest = np.log1p(-probs)    # log(1 - p), accurate for p <= 1/2
    rest[rows, labels] = 0.0
    rest[rival_rows, rivals] = log_rest
    losses = -(label_term + rest.sum(axis=1))

    # the extra -log(1 - p_i) terms add g_i = p_i / (1 - p_i) pressure on
    # every non-label probability; route through the softmax Jacobian in
    # one pass: d_logits = g - p * sum(g), with g_label = -1
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.divide(probs, 1.0 - probs, out=rest)     # rest is summed: reuse its buffer
    g[rows, labels] = -1.0
    g[rival_rows, rivals] = 0.0     # a rival's g may overflow: out of the sum, handled below
    total = g.sum(axis=1, keepdims=True)
    g -= probs * total
    # a rival's products in log space: g_r * (1 - p_r) = p_r, and
    # p_k * g_r = exp(log p_k + log p_r - log(1 - p_r)) <= 1
    log_pg = log_probs[rival_rows] + (log_probs[rival_rows, rivals] - log_rest)[:, None]
    log_pg[np.arange(rival_rows.size), rivals] = -np.inf
    g[rival_rows] -= np.exp(log_pg)
    g[rival_rows, rivals] = probs[rival_rows, rivals] * (1.0 - total[rival_rows, 0])
    return losses, g


def loss(probs, label: int, variant: str = "eq13", *, log_probs) -> float:
    """Scalar loss of one prediction, from its probabilities and log-probabilities.

    "eq13" charges -log p(label) plus -log(1 - p) for every other item;
    "softmax_ce" is plain cross entropy.  Both are evaluated in log space.
    """
    losses, _ = _loss_and_grad(np.asarray(probs)[None], np.asarray(log_probs)[None],
                               np.array([label]), variant)
    return float(losses[0])


def forward_batch(examples, params: ModelParams, hp: HyperParams) -> BatchTrace:
    """Forward pass of a list of (prefix, label) examples as one padded batch, trace retained."""
    graphs = build_graph_batch([ex.prefix for ex in examples])
    labels = np.array([ex.label for ex in examples], dtype=np.int64)
    # padded nodes hold item 0, which every catalog has
    if min(graphs.nodes.min(), labels.min()) < 0 or max(graphs.nodes.max(), labels.max()) >= params.num_items:
        raise ValueError("example contains item indices outside the vocabulary")

    h_nodes, caches = _ggnn(graphs.nodes, graphs.m_in, graphs.m_out, params, hp.gnn_steps)
    h_pos = graphs.pick @ h_nodes
    mean = session_mean_pool(h_pos, graphs.lengths)
    h_last = h_pos[np.arange(labels.shape[0]), graphs.lengths - 1]

    general_state = current_state = current_input = None
    if hp.variant == "casif":
        alpha, context, gate = attention_global_interest(h_pos, h_last, mean, params)
        current_input = h_last if hp.current_interest_input == "h_n" else context
        general_state, current_state = interest_mlp(context, current_input, params)
        blend = general_state * current_state
    else:
        alpha, context, gate = casif_s_attention(h_pos, params)
        blend = context

    return BatchTrace(
        graphs=graphs, labels=labels, loss_variant=hp.loss_variant, steps=caches,
        h_nodes=h_nodes, h_pos=h_pos, session_mean=mean,
        att_gate=gate, alpha=alpha, att_context=context, blend=blend,
        logits=blend @ params.emb.T,
        current_input=current_input, general_state=general_state, current_state=current_state,
    )


def forward(example, params: ModelParams, hp: HyperParams) -> ForwardTrace:
    """Full forward pass of one (prefix, label) example: the batch of one."""
    return ForwardTrace(forward_batch([example], params, hp))


# ---------------------------------------------------------------------------
# backward


def backward_batch(trace: BatchTrace, params: ModelParams, hp: HyperParams, grads=None) -> ModelParams:
    """Exact gradient of the batch's summed loss, added into ``grads`` (fresh zeros if None).

    The embedding table accumulates from both of its roles: every row as
    a score candidate, in one (N, B) @ (B, d) product, and the rows looked
    up as graph nodes, in one ``np.add.at``.
    """
    if grads is None:
        grads = zero_gradients(params)
    graphs = trace.graphs
    batch, q, d = trace.h_nodes.shape
    rows, last = np.arange(batch), graphs.lengths - 1

    d_logits = trace.d_logits
    grads["emb"] += d_logits.T @ trace.blend           # candidate side of the score
    d_blend = d_logits @ params.emb

    if hp.variant == "casif":
        d_general_pre = d_blend * trace.current_state * (1.0 - trace.general_state ** 2)
        d_current_pre = d_blend * trace.general_state * (1.0 - trace.current_state ** 2)
        grads["mlp_general_w"] += trace.att_context.T @ d_general_pre
        grads["mlp_general_b"] += d_general_pre.sum(axis=0)
        grads["mlp_current_w"] += trace.current_input.T @ d_current_pre
        grads["mlp_current_b"] += d_current_pre.sum(axis=0)
        d_context = d_general_pre @ params.mlp_general_w.T
        d_current_in = d_current_pre @ params.mlp_current_w.T
        d_h_last = 0.0
        if hp.current_interest_input == "h_n":
            d_h_last = d_current_in
        else:
            d_context += d_current_in
    else:
        d_context = d_blend

    # attention: alpha = gate @ att_score, context = alpha @ h_pos, gate = sigmoid(h_pos @ att_item + att_bias),
    # plus the last-click and session-mean terms in casif.  Padded positions have a zero
    # latent, so d_alpha and d_pre are zero there and they add nothing to any weight.
    h_pos, gate = trace.h_pos, trace.att_gate
    d_alpha = np.matmul(h_pos, d_context[:, :, None])[:, :, 0]
    d_h_pos = trace.alpha[:, :, None] * d_context[:, None, :]
    grads["att_score"] += gate.reshape(-1, d).T @ d_alpha.reshape(-1)
    d_pre = d_alpha[:, :, None] * params.att_score * gate * (1.0 - gate)
    grads["att_item"] += h_pos.reshape(-1, d).T @ d_pre.reshape(-1, d)
    d_h_pos += _rows(d_pre, params.att_item.T)
    col = d_pre.sum(axis=1)
    grads["att_bias"] += col.sum(axis=0)
    if hp.variant == "casif":
        grads["att_last"] += h_pos[rows, last].T @ col
        d_h_last = d_h_last + col @ params.att_last.T
        grads["att_mean"] += trace.session_mean.T @ col
        d_h_pos += ((col @ params.att_mean.T) / graphs.lengths[:, None])[:, None, :]  # mean fans out
        d_h_pos[rows, last] += d_h_last

    # positions -> nodes (alias may repeat a node; padded positions pick none)
    d_state = (graphs.pick.transpose(0, 2, 1) @ d_h_pos).reshape(-1, d)

    for cache in reversed(trace.steps):
        d_update = d_state * (cache.cand - cache.state)
        d_cand = d_state * cache.update
        d_prev = d_state * (1.0 - cache.update)

        d_cand_pre = d_cand * (1.0 - cache.cand ** 2)
        grads["gate_cand_msg"] += cache.msg.T @ d_cand_pre
        grads["gate_cand_self"] += cache.gated_state.T @ d_cand_pre
        d_msg = d_cand_pre @ params.gate_cand_msg.T
        d_gated = d_cand_pre @ params.gate_cand_self.T
        d_reset = d_gated * cache.state
        d_prev += d_gated * cache.reset

        d_update_pre = d_update * cache.update * (1.0 - cache.update)
        grads["gate_update_msg"] += cache.msg.T @ d_update_pre
        grads["gate_update_self"] += cache.state.T @ d_update_pre
        d_msg += d_update_pre @ params.gate_update_msg.T
        d_prev += d_update_pre @ params.gate_update_self.T

        d_reset_pre = d_reset * cache.reset * (1.0 - cache.reset)
        grads["gate_reset_msg"] += cache.msg.T @ d_reset_pre
        grads["gate_reset_self"] += cache.state.T @ d_reset_pre
        d_msg += d_reset_pre @ params.gate_reset_msg.T
        d_prev += d_reset_pre @ params.gate_reset_self.T

        d_agg = d_msg.reshape(batch, q, 2 * d)
        for m, half, w, b_inner, b_outer in (
                (graphs.m_in, slice(None, d), "w_in", "b_in_inner", "b_in_outer"),
                (graphs.m_out, slice(d, None), "w_out", "b_out_inner", "b_out_outer")):
            grads[b_outer] += d_msg[:, half].sum(axis=0)
            d_inner = (m.transpose(0, 2, 1) @ d_agg[:, :, half]).reshape(-1, d)
            grads[w] += cache.state.T @ d_inner
            grads[b_inner] += d_inner.sum(axis=0)
            d_prev += d_inner @ getattr(params, w).T

        d_state = d_prev

    mask = graphs.node_mask   # lookup side; a node may recur across the batch
    np.add.at(grads["emb"], graphs.nodes[mask], d_state.reshape(batch, q, d)[mask])
    return grads


def backward(trace: ForwardTrace, params: ModelParams, hp: HyperParams) -> ModelParams:
    """Exact gradient of trace.loss with respect to every parameter: the batch of one."""
    return backward_batch(trace.batch, params, hp)


def finite_difference_grad(examples, params: ModelParams, hp: HyperParams, h: float = 1e-5) -> ModelParams:
    """Central-difference gradient of the summed loss of a list of examples.

    Independent check of ``backward_batch``, coordinate by coordinate; cost
    is two forward passes per parameter entry, so keep the model small.
    The differences are taken per example and then summed, so each carries
    the round-off of one example's loss, not of the larger sum.
    """
    grads = zero_gradients(params)
    flat = params.flat      # every tensor, row-major in declared order
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = forward_batch(examples, params, hp).losses
        flat[i] = orig - h
        down = forward_batch(examples, params, hp).losses
        flat[i] = orig
        grads.flat[i] = float((up - down).sum()) / (2.0 * h)
    return grads


def relative_gradient_error(analytic: ModelParams, numeric: ModelParams, floor: float = 1e-6) -> float:
    """Worst |analytic - numeric| / max(|numeric|, floor) over all coordinates."""
    worst = 0.0
    for name, g_num in numeric.items():
        g_ana = analytic[name]
        denom = np.maximum(np.abs(g_num), floor)
        err = np.abs(g_ana - g_num) / denom
        err[np.isnan(err)] = np.inf     # a NaN on either side is a failure, not a pass
        if err.size:
            worst = max(worst, float(err.max()))
    return worst


@dataclass
class GradCheckCase:
    seed: int
    variant: str
    loss_variant: str
    gnn_steps: int
    prefix_len: int         # the longest prefix of the case
    rel_error: float
    batch_size: int = 1


def run_gradient_check(
    num_cases: int = 24,
    d: int = 8,
    num_items: int = 20,
    variants=VARIANTS,
    h: float = 1e-5,
) -> list[GradCheckCase]:
    """Compare backward against finite differences on small random instances.

    ``num_cases`` single examples cycle through every (variant, loss
    variant, 1 or 2 propagation steps) combination and prefix lengths
    1..5, each with its own seed.  One more case per combination runs a
    padded batch of 2 or 3 examples of mixed prefix lengths, checked
    against finite differences of the batch's summed loss.  Both sides are
    divided by the batch size first, so the error floor of
    ``relative_gradient_error`` is that of one example.
    """
    if num_cases < 0:
        raise ConfigError(f"num_cases must be >= 0, got {num_cases}")
    combos = [(v, lv, steps) for v in variants for lv in LOSS_VARIANTS for steps in (1, 2)]
    cases = []
    for i in range(num_cases + len(combos)):
        variant, loss_variant, steps = combos[i % len(combos)]
        hp = HyperParams(d=d, gnn_steps=steps, variant=variant, loss_variant=loss_variant)
        params = init_params(num_items, hp, seed=7000 + i)
        draws = SplitMix64(substream_seed(9000 + i, 4))
        examples = []
        for k in range(1 if i < num_cases else 2 + i % 2):
            prefix_len = 1 + (i + 2 * k) % 5
            prefix = [int(x) for x in draws.integers(prefix_len, num_items)]
            label = int(draws.integers(1, num_items)[0])
            examples.append(PrefixExample(prefix, label))

        scale = 1.0 / len(examples)
        analytic = backward_batch(forward_batch(examples, params, hp), params, hp)
        numeric = finite_difference_grad(examples, params, hp, h=h)
        analytic.flat *= scale
        numeric.flat *= scale
        rel_error = relative_gradient_error(analytic, numeric)
        cases.append(GradCheckCase(
            seed=7000 + i, variant=variant, loss_variant=loss_variant, gnn_steps=steps,
            prefix_len=max(len(ex.prefix) for ex in examples),
            rel_error=rel_error, batch_size=len(examples),
        ))
    return cases
