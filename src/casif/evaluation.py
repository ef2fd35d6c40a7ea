"""Ranking metrics: recall@k and mean reciprocal rank, plus a popularity baseline.

Ranks are 1-based positions under descending score with ties broken by
ascending item index.  recall@k counts examples whose label lands in the
top k; mrr@k averages 1/rank, with the term zeroed whenever the rank
exceeds k.  A report holds each example's label rank and prefix length and
computes every metric from them when read, per cutoff, overall and split
into short (prefix length <= 5) and long (> 5) buckets.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    ranks = 1 + (scores > s).sum(axis=1) + tied_before.sum(axis=1)
    nan = np.flatnonzero(np.isnan(s[:, 0]))
    if nan.size:    # NaN compares false to every score: such a label ranks after every number, NaNs in index order
        ranks[nan] = _label_ranks(~np.isnan(scores[nan]), labels[nan])
    return ranks


def label_rank(scores, label: int) -> int:
    """1-based rank of the label under the rank_topk ordering."""
    scores = np.asarray(scores, dtype=np.float64)
    return int(_label_ranks(scores[None], np.array([label]))[0])


@dataclass(eq=False)
class MetricsReport:
    """Each example's label rank and prefix length; every figure is computed from them when read."""
    ks: tuple
    ranks: np.ndarray
    lengths: np.ndarray

    def _bucket(self, bucket: str) -> np.ndarray:
        """The ranks of the examples in one of BUCKETS."""
        if bucket == "all":
            return self.ranks
        short = self.lengths <= SHORT_MAX_LEN
        return self.ranks[{"short": short, "long": ~short}[bucket]]

    def recall(self, k: int, bucket: str = "all") -> float:
        r = self._bucket(bucket)
        return float((r <= k).mean()) if r.size else 0.0

    def mrr(self, k: int, bucket: str = "all") -> float:
        r = self._bucket(bucket)
        return float(np.where(r <= k, 1.0 / r, 0.0).mean()) if r.size else 0.0

    def n(self, bucket: str = "all") -> int:
        return int(self._bucket(bucket).size)

    def records(self, buckets=BUCKETS) -> list:
        return [{"k": k, "bucket": bucket, "recall": self.recall(k, bucket), "mrr": self.mrr(k, bucket),
                 "n": self.n(bucket)} for k in self.ks for bucket in buckets]

    def table(self, buckets=BUCKETS) -> str:
        lines = [f"{'bucket':<8}{'n':>8}" + "".join(f"{f'Recall@{k}':>12}{f'MRR@{k}':>12}" for k in self.ks)]
        for bucket in buckets:
            lines.append(f"{bucket:<8}{self.n(bucket):>8}" + "".join(
                f"{self.recall(k, bucket) * 100:>12.2f}{self.mrr(k, bucket) * 100:>12.2f}" for k in self.ks))
        return "\n".join(lines)


def _report(ranks, examples, ks) -> MetricsReport:
    lengths = np.array([len(ex.prefix) for ex in examples], dtype=np.int64)
    return MetricsReport(tuple(ks), ranks, lengths)


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
    for rows in sub_batches(examples, params.num_items, hp, scoring=True):
        trace = forward_batch([examples[i] for i in rows], params, hp)
        ranks[rows] = _label_ranks(trace.logits, trace.labels)    # the softmax is never read
        del trace       # so that it is freed before the next sub-batch's forward pass
    return _report(ranks, examples, ks)


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
    return _report(rank_of[[ex.label for ex in test_examples]], test_examples, ks)
