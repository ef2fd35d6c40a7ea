"""Slow, loop-based re-implementation of the numerics, for cross-checking.

Everything here is written with explicit Python loops and math.* scalar
calls, deliberately sharing no code path with the package.  Only usable
at toy sizes; the tests compare both routes to ~1e-12.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# session graph


def ref_graph(prefix):
    """Brute-force consecutive-pair-count graph construction."""
    nodes = []
    for item in prefix:
        if item not in nodes:
            nodes.append(item)
    q = len(nodes)
    pos = {item: i for i, item in enumerate(nodes)}
    counts = [[0.0] * q for _ in range(q)]
    for a, b in zip(prefix, prefix[1:]):
        counts[pos[a]][pos[b]] += 1.0

    m_out = [[0.0] * q for _ in range(q)]
    m_in = [[0.0] * q for _ in range(q)]
    for i in range(q):
        out_total = sum(counts[i])
        in_total = sum(counts[j][i] for j in range(q))
        for j in range(q):
            if out_total > 0:
                m_out[i][j] = counts[i][j] / out_total
            if in_total > 0:
                m_in[i][j] = counts[j][i] / in_total
    alias = [pos[item] for item in prefix]
    return nodes, alias, np.array(m_in), np.array(m_out)


# ---------------------------------------------------------------------------
# scalar building blocks


def _sig(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _matvec_row(vec, mat, j) -> float:
    return sum(vec[k] * mat[k][j] for k in range(len(vec)))


# ---------------------------------------------------------------------------
# forward pass, one scalar at a time


def ref_forward(prefix, label, params, *, gnn_steps=1, variant="casif",
                loss_variant="eq13", current_interest_input="h_n"):
    """Returns (loss, probs, logits, alpha) with pure-Python arithmetic."""
    p = {name: np.asarray(arr).tolist() for name, arr in params.tensors()}
    d = len(p["emb"][0])
    nodes, alias, m_in, m_out = ref_graph(prefix)
    q = len(nodes)
    m_in = m_in.tolist()
    m_out = m_out.tolist()

    state = [list(p["emb"][item]) for item in nodes]
    for _ in range(gnn_steps):
        t_in = [[_matvec_row(state[v], p["w_in"], j) + p["b_in_inner"][j]
                 for j in range(d)] for v in range(q)]
        t_out = [[_matvec_row(state[v], p["w_out"], j) + p["b_out_inner"][j]
                  for j in range(d)] for v in range(q)]
        agg_in = [[sum(m_in[v][u] * t_in[u][j] for u in range(q)) + p["b_in_outer"][j]
                   for j in range(d)] for v in range(q)]
        agg_out = [[sum(m_out[v][u] * t_out[u][j] for u in range(q)) + p["b_out_outer"][j]
                    for j in range(d)] for v in range(q)]
        msg = [agg_in[v] + agg_out[v] for v in range(q)]
        new_state = []
        for v in range(q):
            update = [_sig(_matvec_row(msg[v], p["gate_update_msg"], j)
                           + _matvec_row(state[v], p["gate_update_self"], j)) for j in range(d)]
            reset = [_sig(_matvec_row(msg[v], p["gate_reset_msg"], j)
                          + _matvec_row(state[v], p["gate_reset_self"], j)) for j in range(d)]
            gated = [reset[j] * state[v][j] for j in range(d)]
            cand = [math.tanh(_matvec_row(msg[v], p["gate_cand_msg"], j)
                              + _matvec_row(gated, p["gate_cand_self"], j)) for j in range(d)]
            new_state.append([(1.0 - update[j]) * state[v][j] + update[j] * cand[j]
                              for j in range(d)])
        state = new_state

    h_pos = [state[a] for a in alias]
    n = len(h_pos)
    h_last = h_pos[-1]
    mean = [sum(h_pos[t][j] for t in range(n)) / n for j in range(d)]

    if variant == "casif":
        alpha = []
        for t in range(n):
            gate = [_sig(_matvec_row(h_pos[t], p["att_item"], j)
                         + _matvec_row(h_last, p["att_last"], j)
                         + _matvec_row(mean, p["att_mean"], j)
                         + p["att_bias"][j]) for j in range(d)]
            alpha.append(sum(gate[j] * p["att_score"][j] for j in range(d)))
        context = [sum(alpha[t] * h_pos[t][j] for t in range(n)) for j in range(d)]
        cur_in = h_last if current_interest_input == "h_n" else context
        general = [math.tanh(_matvec_row(context, p["mlp_general_w"], j) + p["mlp_general_b"][j])
                   for j in range(d)]
        current = [math.tanh(_matvec_row(cur_in, p["mlp_current_w"], j) + p["mlp_current_b"][j])
                   for j in range(d)]
        blend = [general[j] * current[j] for j in range(d)]
    else:
        alpha = []
        for t in range(n):
            gate = [_sig(_matvec_row(h_pos[t], p["att_item"], j) + p["att_bias"][j])
                    for j in range(d)]
            alpha.append(sum(gate[j] * p["att_score"][j] for j in range(d)))
        blend = [sum(alpha[t] * h_pos[t][j] for t in range(n)) for j in range(d)]

    m = len(p["emb"])
    logits = [sum(p["emb"][i][j] * blend[j] for j in range(d)) for i in range(m)]
    peak = max(logits)
    ez = [math.exp(z - peak) for z in logits]
    total = sum(ez)
    probs = [e / total for e in ez]

    if loss_variant == "softmax_ce":
        value = -math.log(probs[label])
    else:
        value = -math.log(probs[label])
        for i in range(m):
            if i != label:
                value -= math.log(1.0 - probs[i])
    return value, np.array(probs), np.array(logits), np.array(alpha)


def _logsumexp(values) -> float:
    peak = max(values)
    return peak + math.log(sum(math.exp(v - peak) for v in values))


def ref_eq13(logits, label):
    """eq13 loss and its gradient with respect to the logits.

    -log(1 - p_i) is written as logsumexp(all) - logsumexp(all but i), so
    no 1 - p is ever formed and every term stays exact at any logit gap.
    Its derivative in z_k is p_k - exp(z_k - logsumexp(all but i)), or p_k
    when k = i.  O(N^2); toy sizes only.
    """
    m = len(logits)
    total = _logsumexp(logits)
    without = [_logsumexp([logits[j] for j in range(m) if j != i]) for i in range(m)]
    value = total - logits[label] + sum(total - without[i] for i in range(m) if i != label)
    grad = []
    for k in range(m):
        p_k = math.exp(logits[k] - total)
        g = p_k - (1.0 if k == label else 0.0)
        for i in range(m):
            if i != label:
                g += p_k - (0.0 if i == k else math.exp(logits[k] - without[i]))
        grad.append(g)
    return value, grad


# ---------------------------------------------------------------------------
# ranking metrics


def ref_rank_metrics(score_rows, labels, k):
    """recall@k and mrr@k by full sort with explicit index tie-breaking."""
    hits = 0
    rr_total = 0.0
    for scores, label in zip(score_rows, labels):
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        rank = order.index(label) + 1
        if rank <= k:
            hits += 1
            rr_total += 1.0 / rank
    n = len(labels)
    return hits / n, rr_total / n


# ---------------------------------------------------------------------------
# optimizer


def ref_adam_step(theta, grads, moment1, moment2, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam step number t (from 1), tensor by tensor and entry by entry.

    All four arguments map tensor names to separate arrays, updated in place.
    """
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, arr in theta.items():
        x, g, m, v = (a.reshape(-1) for a in (arr, grads[name], moment1[name], moment2[name]))
        for i in range(x.size):
            gi = float(g[i])
            m[i] = float(m[i]) * beta1 + (1.0 - beta1) * gi
            v[i] = float(v[i]) * beta2 + (1.0 - beta2) * gi * gi
            x[i] = float(x[i]) - lr * (float(m[i]) / bc1) / (math.sqrt(float(v[i]) / bc2) + eps)
