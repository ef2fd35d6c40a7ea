"""The recommendation network and its hand-written gradients.

One example flows through: embedding lookup of the session-graph nodes,
a gated (GRU-style) propagation over the graph's incoming/outgoing weight
matrices, expansion back to session positions, an attention readout that
conditions each position's score on the last click and the mean-pooled
session context, two small tanh layers blending general and current
interest, and a bilinear score against every item embedding followed by
softmax.  The simplified variant ("casif_s") replaces the readout with a
per-position attention that sees nothing but the position itself, and
scores the attention context directly.

Everything is float64 numpy.  ``backward`` is exact reverse-mode
differentiation of the scalar loss; ``finite_difference_grad`` is the
independent oracle it is tested against.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .corpus import PrefixExample
from .errors import ConfigError
from .graph import SessionGraph, build_session_graph
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


def _tensor(*shape, variant=None):
    """A ModelParams field of the given shape, held by one variant or (None) all."""
    return field(default=None if variant else MISSING, metadata={"shape": shape, "variant": variant})


@dataclass
class ModelParams:
    """All learnable tensors.

    The field order is the checkpoint layout and the init draw order.
    Never reorder: serialized checkpoints depend on it.  ``emb`` doubles
    as the input lookup table and the candidate vectors of the final
    score (weight tying).  The ``att_simple_*`` tensors exist only for
    the simplified variant.
    """

    emb: np.ndarray = _tensor("items", "d")
    w_in: np.ndarray = _tensor("d", "d")          # incoming message transform
    b_in_inner: np.ndarray = _tensor("d")         # bias inside the aggregation
    b_in_outer: np.ndarray = _tensor("d")         # bias outside the aggregation
    w_out: np.ndarray = _tensor("d", "d")
    b_out_inner: np.ndarray = _tensor("d")
    b_out_outer: np.ndarray = _tensor("d")
    gate_update_msg: np.ndarray = _tensor("2d", "d")
    gate_update_self: np.ndarray = _tensor("d", "d")
    gate_reset_msg: np.ndarray = _tensor("2d", "d")
    gate_reset_self: np.ndarray = _tensor("d", "d")
    gate_cand_msg: np.ndarray = _tensor("2d", "d")
    gate_cand_self: np.ndarray = _tensor("d", "d")
    att_score: np.ndarray = _tensor("d")          # weighting vector collapsing gate output to a scalar
    att_item: np.ndarray = _tensor("d", "d")      # per-position transform
    att_last: np.ndarray = _tensor("d", "d")      # last-click transform
    att_mean: np.ndarray = _tensor("d", "d")      # session-mean transform
    att_bias: np.ndarray = _tensor("d")
    mlp_general_w: np.ndarray = _tensor("d", "d")
    mlp_general_b: np.ndarray = _tensor("d")
    mlp_current_w: np.ndarray = _tensor("d", "d")
    mlp_current_b: np.ndarray = _tensor("d")
    att_simple_w: np.ndarray | None = _tensor("d", "d", variant="casif_s")
    att_simple_b: np.ndarray | None = _tensor("d", variant="casif_s")

    @property
    def num_items(self) -> int:
        return self.emb.shape[0]

    @property
    def d(self) -> int:
        return self.emb.shape[1]

    def tensor_names(self) -> tuple[str, ...]:
        return _TENSOR_NAMES["casif" if self.att_simple_w is None else "casif_s"]

    def tensors(self):
        """(name, array) pairs in the fixed declared order."""
        return [(name, getattr(self, name)) for name in self.tensor_names()]

    def copy(self) -> "ModelParams":
        kwargs = {name: arr.copy() for name, arr in self.tensors()}
        return ModelParams(**kwargs)


Gradients = dict  # tensor name -> array, shapes matching ModelParams


def _tensor_shapes(num_items: int, d: int, variant: str):
    """Shape of every tensor the variant has, in declared order."""
    dims = {"items": num_items, "d": d, "2d": 2 * d}
    return {f.name: tuple(dims[x] for x in f.metadata["shape"])
            for f in fields(ModelParams) if f.metadata["variant"] in (None, variant)}


_TENSOR_NAMES = {variant: tuple(_tensor_shapes(1, 1, variant)) for variant in VARIANTS}


def init_params(num_items: int, hp: HyperParams, seed: int) -> ModelParams:
    """Fresh parameters, every entry i.i.d. N(0, 0.1^2).

    Tensors are drawn from the init substream in declared order, so a
    given (num_items, hp, seed) always yields bit-identical values.
    """
    if num_items < 1:
        raise ConfigError(f"num_items must be >= 1, got {num_items}")
    stream = SplitMix64(substream_seed(seed, STREAM_INIT))
    shapes = _tensor_shapes(num_items, hp.d, hp.variant)
    kwargs = {name: stream.gaussian(shape, std=INIT_STD) for name, shape in shapes.items()}
    return ModelParams(**kwargs)


def zero_gradients(params: ModelParams) -> Gradients:
    return {name: np.zeros_like(arr) for name, arr in params.tensors()}


# ---------------------------------------------------------------------------
# forward


@dataclass
class StepCache:
    """Activations of one propagation step, kept for the backward pass."""
    state: np.ndarray      # node states entering the step (q, d)
    agg_in: np.ndarray     # aggregated incoming messages (q, d)
    agg_out: np.ndarray    # aggregated outgoing messages (q, d)
    msg: np.ndarray        # concatenated messages (q, 2d)
    update: np.ndarray     # update gate (q, d)
    reset: np.ndarray      # reset gate (q, d)
    gated_state: np.ndarray  # reset * state (q, d)
    cand: np.ndarray       # candidate state, tanh (q, d)


@dataclass
class ForwardTrace:
    """Everything one backward pass needs, cached from the forward pass."""
    prefix: list
    label: int
    graph: SessionGraph
    steps: list
    h_nodes: np.ndarray        # final node latents (q, d)
    h_pos: np.ndarray          # per-position latents via the alias map (n, d)
    session_mean: np.ndarray   # mean-pooled session context (d,)
    att_gate: np.ndarray       # sigmoid inside the attention (n, d)
    alpha: np.ndarray          # attention coefficients (n,), unnormalized
    att_context: np.ndarray    # attention-weighted context (d,)
    blend: np.ndarray          # vector scored against the embedding table (d,)
    logits: np.ndarray         # (num_items,)
    log_probs: np.ndarray
    probs: np.ndarray
    loss: float
    current_input: np.ndarray | None = None   # input of the current-interest layer
    general_state: np.ndarray | None = None   # tanh output, general interest
    current_state: np.ndarray | None = None   # tanh output, current interest


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softmax_with_log(logits):
    shifted = logits - logits.max()
    ez = np.exp(shifted)
    total = ez.sum()
    return ez / total, shifted - np.log(total)


def _rival(log_probs, label: int):
    """(index, log(1 - p)) of the non-label item with p > 1/2 (at most one exists), or
    (None, 0.0).  Its 1 - p is the others' mass: their logsumexp is exact where p rounds to 1."""
    top = int(np.argmax(log_probs))
    if top == label or log_probs[top] <= -np.log(2.0):
        return None, 0.0
    others = np.delete(log_probs, top)
    peak = others.max()
    return top, float(peak + np.log(np.exp(others - peak).sum()))


def _ggnn_steps(graph: SessionGraph, params: ModelParams, steps: int):
    """Run the gated propagation, returning final states and per-step caches."""
    state = params.emb[graph.nodes].copy()
    caches = []
    for _ in range(steps):
        agg_in = graph.m_in @ (state @ params.w_in + params.b_in_inner) + params.b_in_outer
        agg_out = graph.m_out @ (state @ params.w_out + params.b_out_inner) + params.b_out_outer
        msg = np.concatenate([agg_in, agg_out], axis=1)
        update = _sigmoid(msg @ params.gate_update_msg + state @ params.gate_update_self)
        reset = _sigmoid(msg @ params.gate_reset_msg + state @ params.gate_reset_self)
        gated_state = reset * state
        cand = np.tanh(msg @ params.gate_cand_msg + gated_state @ params.gate_cand_self)
        caches.append(StepCache(state, agg_in, agg_out, msg, update, reset, gated_state, cand))
        state = (1.0 - update) * state + update * cand
    return state, caches


def ggnn_forward(graph: SessionGraph, params: ModelParams, hp: HyperParams) -> np.ndarray:
    """Final node latents after hp.gnn_steps synchronous propagation steps."""
    h, _ = _ggnn_steps(graph, params, hp.gnn_steps)
    return h


def session_mean_pool(h_pos: np.ndarray) -> np.ndarray:
    """Mean of the per-position latents (repeats included)."""
    return h_pos.mean(axis=0)


def attention_global_interest(h_pos, h_last, session_mean, params: ModelParams):
    """Attention over session positions, conditioned on the last click first.

    Coefficients are raw dot products against the gate output; they are
    deliberately not normalized across positions.  Returns (alpha, context)
    plus the inner gate needed by the backward pass.
    """
    pre = h_pos @ params.att_item + h_last @ params.att_last + session_mean @ params.att_mean + params.att_bias
    gate = _sigmoid(pre)
    alpha = gate @ params.att_score
    context = alpha @ h_pos
    return alpha, context, gate


def casif_s_attention(h_pos, params: ModelParams):
    """Simplified attention: each position scored from itself alone."""
    if params.att_simple_w is None:
        raise ConfigError("simplified attention requires params built with variant='casif_s'")
    gate = _sigmoid(h_pos @ params.att_simple_w + params.att_simple_b)
    alpha = gate @ params.att_score
    context = alpha @ h_pos
    return alpha, context, gate


def interest_mlp(att_context, current_input, params: ModelParams):
    """Two tanh layers abstracting general and current interest."""
    general = np.tanh(att_context @ params.mlp_general_w + params.mlp_general_b)
    current = np.tanh(current_input @ params.mlp_current_w + params.mlp_current_b)
    return general, current


def score_and_predict(general_state, current_state, emb):
    """Bilinear scores against every item embedding, and their softmax."""
    logits = emb @ (general_state * current_state)
    probs, _ = _softmax_with_log(logits)
    return logits, probs


def loss(probs, label: int, variant: str = "eq13", log_probs=None) -> float:
    """Scalar loss of one prediction.

    "eq13" charges -log p(label) plus -log(1 - p) for every other item;
    "softmax_ce" is plain cross entropy.  Both are evaluated in log space.
    """
    if log_probs is None:
        with np.errstate(divide="ignore"):
            log_probs = np.log(probs)
    if variant == "softmax_ce":
        return float(-log_probs[label])
    if variant != "eq13":
        raise ConfigError(f"unknown loss variant {variant!r}")
    with np.errstate(divide="ignore"):
        rest = np.log1p(-np.exp(log_probs))    # log(1 - p), accurate for p <= 1/2
    rest[label] = 0.0
    rival, log_rest = _rival(log_probs, label)
    if rival is not None:
        rest[rival] = log_rest
    return float(-(log_probs[label] + rest.sum()))


def forward(example, params: ModelParams, hp: HyperParams) -> ForwardTrace:
    """Full forward pass of one (prefix, label) example, trace retained."""
    prefix = list(example.prefix)
    label = int(example.label)
    if not prefix:
        raise ValueError("example prefix must be non-empty")
    if any(i < 0 or i >= params.num_items for i in prefix) or not 0 <= label < params.num_items:
        raise ValueError("example contains item indices outside the vocabulary")

    graph = build_session_graph(prefix)
    h_nodes, caches = _ggnn_steps(graph, params, hp.gnn_steps)
    h_pos = h_nodes[graph.alias]
    mean = session_mean_pool(h_pos)
    h_last = h_pos[-1]

    general_state = current_state = current_input = None
    if hp.variant == "casif":
        alpha, context, gate = attention_global_interest(h_pos, h_last, mean, params)
        current_input = h_last if hp.current_interest_input == "h_n" else context
        general_state, current_state = interest_mlp(context, current_input, params)
        blend = general_state * current_state
    else:
        alpha, context, gate = casif_s_attention(h_pos, params)
        blend = context

    logits = params.emb @ blend
    probs, log_probs = _softmax_with_log(logits)
    value = loss(probs, label, hp.loss_variant, log_probs=log_probs)

    return ForwardTrace(
        prefix=prefix, label=label, graph=graph, steps=caches,
        h_nodes=h_nodes, h_pos=h_pos, session_mean=mean,
        att_gate=gate, alpha=alpha, att_context=context, blend=blend,
        logits=logits, log_probs=log_probs, probs=probs, loss=value,
        current_input=current_input, general_state=general_state, current_state=current_state,
    )


# ---------------------------------------------------------------------------
# backward


def _loss_grad_wrt_logits(probs, log_probs, label: int, variant: str):
    if variant == "softmax_ce":
        d_logits = probs.copy()
        d_logits[label] -= 1.0
        return d_logits
    # the extra -log(1 - p_i) terms add g_i = p_i / (1 - p_i) pressure on
    # every non-label probability; route through the softmax Jacobian in
    # one pass: d_logits = g - p * sum(g), with g_label = -1
    with np.errstate(divide="ignore", invalid="ignore"):
        g = probs / (1.0 - probs)
    g[label] = -1.0
    rival, log_rest = _rival(log_probs, label)
    if rival is None:
        return g - probs * g.sum()
    # a rival with p > 1/2 has a g that may overflow; take it out of the sum
    # and form its products in log space: g_r * (1 - p_r) = p_r, and
    # p_k * g_r = exp(log p_k + log p_r - log(1 - p_r)) <= 1
    log_pg = log_probs + (log_probs[rival] - log_rest)
    log_pg[rival] = -np.inf
    g[rival] = 0.0
    others = g.sum()
    d_logits = g - probs * others - np.exp(log_pg)
    d_logits[rival] = probs[rival] * (1.0 - others)
    return d_logits


def backward(trace: ForwardTrace, params: ModelParams, hp: HyperParams) -> Gradients:
    """Exact gradient of trace.loss with respect to every parameter.

    The embedding table accumulates from both of its roles: rows looked up
    as graph nodes, and every row as a score candidate.
    """
    grads = zero_gradients(params)
    graph = trace.graph
    n = len(trace.prefix)

    d_logits = _loss_grad_wrt_logits(trace.probs, trace.log_probs, trace.label, hp.loss_variant)
    grads["emb"] += np.outer(d_logits, trace.blend)     # candidate side of the score
    d_blend = params.emb.T @ d_logits

    d_h_pos = np.zeros_like(trace.h_pos)
    if hp.variant == "casif":
        d_general = d_blend * trace.current_state
        d_current = d_blend * trace.general_state
        d_general_pre = d_general * (1.0 - trace.general_state ** 2)
        d_current_pre = d_current * (1.0 - trace.current_state ** 2)
        grads["mlp_general_w"] += np.outer(trace.att_context, d_general_pre)
        grads["mlp_general_b"] += d_general_pre
        grads["mlp_current_w"] += np.outer(trace.current_input, d_current_pre)
        grads["mlp_current_b"] += d_current_pre
        d_context = params.mlp_general_w @ d_general_pre
        d_current_in = params.mlp_current_w @ d_current_pre
        d_h_last = np.zeros(params.d)
        if hp.current_interest_input == "h_n":
            d_h_last += d_current_in
        else:
            d_context += d_current_in
        w_name, b_name = "att_item", "att_bias"
    else:
        d_context = d_blend
        w_name, b_name = "att_simple_w", "att_simple_b"

    # attention: alpha = gate @ att_score, context = alpha @ h_pos, gate = sigmoid(h_pos @ w + b),
    # plus the last-click and session-mean terms in casif
    d_alpha = trace.h_pos @ d_context
    d_h_pos += np.outer(trace.alpha, d_context)
    d_gate = np.outer(d_alpha, params.att_score)
    grads["att_score"] += trace.att_gate.T @ d_alpha
    d_pre = d_gate * trace.att_gate * (1.0 - trace.att_gate)
    grads[w_name] += trace.h_pos.T @ d_pre
    d_h_pos += d_pre @ getattr(params, w_name).T
    col = d_pre.sum(axis=0)
    grads[b_name] += col
    if hp.variant == "casif":
        grads["att_last"] += np.outer(trace.h_pos[-1], col)
        d_h_last += params.att_last @ col
        grads["att_mean"] += np.outer(trace.session_mean, col)
        d_h_pos += (params.att_mean @ col) / n   # mean pooling fans out uniformly
        d_h_pos[-1] += d_h_last

    # positions -> nodes (alias may repeat a node)
    d_state = np.zeros_like(trace.h_nodes)
    np.add.at(d_state, graph.alias, d_h_pos)

    dim = params.d
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

        d_agg_in, d_agg_out = d_msg[:, :dim], d_msg[:, dim:]
        grads["b_in_outer"] += d_agg_in.sum(axis=0)
        d_inner = graph.m_in.T @ d_agg_in
        grads["w_in"] += cache.state.T @ d_inner
        grads["b_in_inner"] += d_inner.sum(axis=0)
        d_prev += d_inner @ params.w_in.T

        grads["b_out_outer"] += d_agg_out.sum(axis=0)
        d_inner = graph.m_out.T @ d_agg_out
        grads["w_out"] += cache.state.T @ d_inner
        grads["b_out_inner"] += d_inner.sum(axis=0)
        d_prev += d_inner @ params.w_out.T

        d_state = d_prev

    grads["emb"][graph.nodes] += d_state   # lookup side; nodes are distinct
    return grads


def finite_difference_grad(example, params: ModelParams, hp: HyperParams, h: float = 1e-5) -> Gradients:
    """Central-difference gradient of the loss, coordinate by coordinate.

    Independent check of ``backward``; cost is two forward passes per
    parameter entry, so keep the model small.
    """
    grads = {}
    for name, arr in params.tensors():
        g = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = forward(example, params, hp).loss
            flat[i] = orig - h
            down = forward(example, params, hp).loss
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def relative_gradient_error(analytic: Gradients, numeric: Gradients, floor: float = 1e-6) -> float:
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
    prefix_len: int
    rel_error: float


def run_gradient_check(
    num_cases: int = 24,
    d: int = 8,
    num_items: int = 20,
    variants=VARIANTS,
    h: float = 1e-5,
    sabotage: bool = False,
) -> list[GradCheckCase]:
    """Compare backward against finite differences on small random instances.

    Cases cycle through every (variant, loss variant, 1 or 2 propagation
    steps) combination and prefix lengths 1..5, each with its own seed.
    ``sabotage`` corrupts one analytic entry, for exercising the failure
    path of callers.
    """
    combos = [(v, lv, steps) for v in variants for lv in LOSS_VARIANTS for steps in (1, 2)]
    cases = []
    for i in range(num_cases):
        variant, loss_variant, steps = combos[i % len(combos)]
        prefix_len = 1 + i % 5
        hp = HyperParams(d=d, gnn_steps=steps, variant=variant, loss_variant=loss_variant)
        params = init_params(num_items, hp, seed=7000 + i)
        draws = SplitMix64(substream_seed(9000 + i, 4))
        prefix = [int(x) for x in np.minimum(
            (draws.uniform(prefix_len) * num_items).astype(np.int64), num_items - 1)]
        label = int(min(int(draws.uniform(1)[0] * num_items), num_items - 1))
        example = PrefixExample(prefix, label)

        analytic = backward(forward(example, params, hp), params, hp)
        if sabotage:
            name = "emb"
            analytic[name] = analytic[name].copy()
            analytic[name].flat[0] += 1e-2
        numeric = finite_difference_grad(example, params, hp, h=h)
        cases.append(GradCheckCase(
            seed=7000 + i, variant=variant, loss_variant=loss_variant,
            gnn_steps=steps, prefix_len=prefix_len,
            rel_error=relative_gradient_error(analytic, numeric),
        ))
    return cases
