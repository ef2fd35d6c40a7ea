"""Ranking metrics: recall@k and mean reciprocal rank, plus a popularity baseline.

Ranks are 1-based positions under descending score with ties broken by
ascending item index.  recall@k counts examples whose label lands in the
top k; mrr@k averages 1/rank, with the term zeroed whenever the rank
exceeds k.  Reports carry every metric per cutoff, overall and split into
short (prefix length <= 5) and long (> 5) buckets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .model import HyperParams, ModelParams, forward_batch, sub_batches

DEFAULT_KS = (5, 10, 20)
SHORT_MAX_LEN = 5
BUCKETS = ("all", "short", "long")


def rank_topk(scores, k: int) -> np.ndarray:
    """Indices of the k highest scores, ties to the smaller index."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    if not 1 <= k <= n:
        raise ConfigError(f"k must be in [1, {n}], got {k}")
    # every score at or above the k-th largest, in index order; a stable sort keeps ties there
    candidates = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
    if candidates.size < k:     # a NaN compares false: rank the whole catalog, NaNs last
        candidates = np.arange(n)
    return candidates[np.argsort(-scores[candidates], kind="stable")[:k]]


def _label_ranks(scores, labels) -> np.ndarray:
    """1-based rank of each row's label in (B, N) scores, under the rank_topk ordering."""
    s = scores[np.arange(labels.shape[0]), labels][:, None]
    tied_before = (scores == s) & (np.arange(scores.shape[1]) < labels[:, None])
    return 1 + (scores > s).sum(axis=1) + tied_before.sum(axis=1)


def label_rank(scores, label: int) -> int:
    """1-based rank of the label under the rank_topk ordering."""
    scores = np.asarray(scores, dtype=np.float64)
    return int(_label_ranks(scores[None], np.array([label]))[0])


@dataclass
class MetricsReport:
    """recall/mrr per cutoff and bucket, with example counts."""
    ks: tuple
    entries: dict = field(default_factory=dict)   # (k, bucket) -> {"recall", "mrr", "n"}

    def recall(self, k: int, bucket: str = "all") -> float:
        return self.entries[(k, bucket)]["recall"]

    def mrr(self, k: int, bucket: str = "all") -> float:
        return self.entries[(k, bucket)]["mrr"]

    def n(self, bucket: str = "all") -> int:
        k = self.ks[0]
        return self.entries[(k, bucket)]["n"]

    def records(self, buckets=BUCKETS) -> list:
        out = []
        for k in self.ks:
            for bucket in buckets:
                e = self.entries[(k, bucket)]
                out.append({"k": k, "bucket": bucket, "recall": e["recall"], "mrr": e["mrr"], "n": e["n"]})
        return out

    def table(self, buckets=BUCKETS) -> str:
        lines = [f"{'bucket':<8}{'n':>8}" + "".join(f"{f'Recall@{k}':>12}{f'MRR@{k}':>12}" for k in self.ks)]
        for bucket in buckets:
            e0 = self.entries[(self.ks[0], bucket)]
            row = f"{bucket:<8}{e0['n']:>8}"
            for k in self.ks:
                e = self.entries[(k, bucket)]
                row += f"{e['recall'] * 100:>12.2f}{e['mrr'] * 100:>12.2f}"
            lines.append(row)
        return "\n".join(lines)


def _report_from_ranks(ranks, lengths, ks) -> MetricsReport:
    ranks = np.asarray(ranks, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    masks = {
        "all": np.ones(ranks.shape[0], dtype=bool),
        "short": lengths <= SHORT_MAX_LEN,
        "long": lengths > SHORT_MAX_LEN,
    }
    report = MetricsReport(ks=tuple(ks))
    for k in ks:
        for bucket, mask in masks.items():
            r = ranks[mask]
            if r.size == 0:
                report.entries[(k, bucket)] = {"recall": 0.0, "mrr": 0.0, "n": 0}
                continue
            hit = r <= k
            report.entries[(k, bucket)] = {
                "recall": float(hit.mean()),
                "mrr": float(np.where(hit, 1.0 / r, 0.0).mean()),
                "n": int(r.size),
            }
    return report


def _check_cutoffs(ks, num_items: int) -> None:
    for k in ks:
        if not 1 <= k <= num_items:
            raise ConfigError(f"cutoff k={k} out of range for {num_items} items")


def evaluate_model(params: ModelParams, hp: HyperParams, examples, ks=DEFAULT_KS) -> MetricsReport:
    """Score every example with the model and aggregate rank metrics."""
    _check_cutoffs(ks, params.num_items)
    if not examples:
        raise DataError("cannot evaluate on zero examples")
    ranks = np.empty(len(examples), dtype=np.int64)
    for rows in sub_batches(examples, params.num_items, hp):
        trace = forward_batch([examples[i] for i in rows], params, hp)
        ranks[rows] = _label_ranks(trace.logits, trace.labels)    # the softmax is never read
        del trace       # so that it is freed before the next sub-batch's forward pass
    return _report_from_ranks(ranks, [len(ex.prefix) for ex in examples], ks)


def popularity_scores(train_examples, num_items: int) -> np.ndarray:
    """Occurrence count of each item over training prefixes and labels."""
    items = [item for ex in train_examples for item in (*ex.prefix, ex.label)]
    return np.bincount(np.array(items, dtype=np.int64), minlength=num_items).astype(np.float64)


def pop_baseline(train_examples, test_examples, num_items: int, ks=DEFAULT_KS) -> MetricsReport:
    """Rank items by training popularity and evaluate like any model."""
    _check_cutoffs(ks, num_items)
    if not train_examples:
        raise DataError("popularity baseline needs training examples")
    if not test_examples:
        raise DataError("cannot evaluate on zero examples")
    # one stable order over the catalog breaks ties to the smaller index, as rank_topk does
    rank_of = np.empty(num_items, dtype=np.int64)
    rank_of[np.argsort(-popularity_scores(train_examples, num_items), kind="stable")] = np.arange(1, num_items + 1)
    ranks = rank_of[[ex.label for ex in test_examples]]
    lengths = [len(ex.prefix) for ex in test_examples]
    return _report_from_ranks(ranks, lengths, ks)
