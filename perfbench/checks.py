"""Output checks, each computed apart from the code path it checks.

Every function returns a list of problems (empty when the output is
right), so a caller can count the operation as failed and say why.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from casif import backward, forward


def expected_dataset(sessions, min_item_support, min_session_len, max_session_len, split_index):
    """The dataset preprocessing must build from the generated sessions.

    Re-derives, in the simplest way, what the documented pipeline does:
    support counted over the whole log, short sessions dropped, long ones
    truncated to their most recent clicks, sessions before split_index
    train and the rest test, vocabulary in first-occurrence order over
    train, test items unknown to train dropped.  Raw ids are the
    ``item<i>`` names casif.synth writes.
    """
    support = Counter(item for items in sessions for item in items)
    kept = []
    for s, items in enumerate(sessions):
        items = [i for i in items if support[i] >= min_item_support]
        if len(items) >= min_session_len:
            kept.append((s, items[-max_session_len:]))
    vocab: dict[int, int] = {}
    for s, items in kept:
        if s < split_index:
            for i in items:
                vocab.setdefault(i, len(vocab))

    def examples(split_items):
        return [(items[:k], items[k]) for items in split_items for k in range(1, len(items))]

    train = [[vocab[i] for i in items] for s, items in kept if s < split_index]
    test = [[vocab[i] for i in items if i in vocab] for s, items in kept if s >= split_index]
    test = [items for items in test if len(items) >= 2]
    raw = [f"item{i}" for i in vocab]
    return raw, examples(train), examples(test)


def _pairs(examples):
    return [(list(ex.prefix), ex.label) for ex in examples]


def check_ingest(expected, clicks, written, parsed, ds, loaded):
    """``clicks`` is counted from the generated sessions, ``written`` is what write_click_log returned."""
    raw, train, test = expected
    problems = []
    if written != clicks:
        problems.append(f"write_click_log reported {written} clicks, the sessions hold {clicks}")
    if len(parsed.events) != clicks or parsed.skipped:
        problems.append(f"parsed {len(parsed.events)} clicks ({parsed.skipped} skipped), wrote {clicks}")
    if ds.vocab.index_to_raw != raw:
        problems.append("vocabulary differs from first-occurrence order over train")
    if _pairs(ds.train) != train:
        problems.append(f"train examples differ ({len(ds.train)} vs {len(train)} expected)")
    if _pairs(ds.test) != test:
        problems.append(f"test examples differ ({len(ds.test)} vs {len(test)} expected)")
    if (_pairs(loaded.train) != _pairs(ds.train) or _pairs(loaded.test) != _pairs(ds.test)
            or loaded.vocab.index_to_raw != ds.vocab.index_to_raw):
        problems.append("reloaded dataset differs from the persisted one")
    return problems


def directional_gradcheck(examples, params, hp, seed, h=1e-5, tolerance=1e-4, floor=1e-6):
    """Compare backward with a central difference along one random direction per example."""
    problems = []
    rng = np.random.default_rng(seed)
    for n, ex in enumerate(examples):
        grads = backward(forward(ex, params, hp), params, hp)
        direction = {name: rng.standard_normal(arr.shape) for name, arr in params.tensors()}
        norm = np.sqrt(sum(float((v * v).sum()) for v in direction.values()))
        analytic = sum(float((grads[name] * v).sum()) for name, v in direction.items()) / norm
        plus, minus = params.copy(), params.copy()
        for name, v in direction.items():
            getattr(plus, name)[...] += h * v / norm
            getattr(minus, name)[...] -= h * v / norm
        numeric = (forward(ex, plus, hp).loss - forward(ex, minus, hp).loss) / (2.0 * h)
        rel = abs(analytic - numeric) / max(abs(numeric), floor)
        if not rel < tolerance:
            problems.append(f"gradcheck example {n}: relative error {rel:.3g} >= {tolerance}")
    return problems


def rank_metrics(logits_rows, labels, k):
    """recall@k and MRR@k by a full stable sort, ties to the lower item index.

    ``logits_rows`` may be any iterable; each row is ranked as it is read.
    """
    hits, reciprocal = 0, 0.0
    for logits, label in zip(logits_rows, labels):
        order = np.argsort(-np.asarray(logits), kind="stable")
        rank = int(np.flatnonzero(order == label)[0]) + 1
        if rank <= k:
            hits += 1
            reciprocal += 1.0 / rank
    return hits / len(labels), reciprocal / len(labels)


def check_quality(reported, k, recall, mrr, pop_recall, tolerance=1e-12):
    """Reported (recall, mrr) at k against the full-sort figures and popularity's recall."""
    problems = []
    if abs(reported[0] - recall) > tolerance or abs(reported[1] - mrr) > tolerance:
        problems.append(f"recall/mrr@{k} {reported[0]}/{reported[1]} disagree with "
                        f"the full sort {recall}/{mrr}")
    if not reported[0] >= 2.0 * pop_recall:
        problems.append(f"recall@{k} {reported[0]:.4f} is below twice popularity's {pop_recall:.4f}")
    return problems


def check_prediction(probs, logits, top, k, tolerance=1e-9):
    problems = []
    if len(top) != k or np.any(np.diff(probs[top]) > 0):
        problems.append("top-k is not sorted by probability")
    if abs(float(probs.sum()) - 1.0) > tolerance:
        problems.append(f"probabilities sum to {float(probs.sum())!r}")
    if int(top[0]) != int(np.argmax(logits)):
        problems.append("top-1 item is not the argmax logit")
    return problems


def same_checkpoint(a, b):
    """True when two checkpoints hold bit-identical state, Adam state included."""
    if (a.hp, a.num_items, a.epoch, a.rng_seed) != (b.hp, b.num_items, b.epoch, b.rng_seed):
        return False
    names = a.params.tensor_names()
    if names != b.params.tensor_names():
        return False
    if not all(np.array_equal(getattr(a.params, n), getattr(b.params, n)) for n in names):
        return False
    if (a.adam is None) != (b.adam is None):
        return False
    if a.adam is None:
        return True
    return a.adam.t == b.adam.t and all(
        np.array_equal(a.adam.moment1[n], b.adam.moment1[n])
        and np.array_equal(a.adam.moment2[n], b.adam.moment2[n]) for n in names)
