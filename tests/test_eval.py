import numpy as np
import pytest

from casif import (
    HyperParams,
    PrefixExample,
    evaluate_model,
    init_params,
    label_rank,
    pop_baseline,
    popularity_scores,
    rank_topk,
)
from casif.errors import ConfigError, DataError
from casif.evaluation import SHORT_MAX_LEN, MetricsReport, _label_ranks
from casif.model import VARIANTS, forward_batch, sub_batches
from reference_impl import ref_rank_metrics
from test_model_forward import zero_params


class TestRanking:
    def test_ties_break_to_smaller_index(self):
        scores = np.array([1.0, 3.0, 3.0, 2.0])
        assert rank_topk(scores, 4).tolist() == [1, 2, 3, 0]

    def test_all_equal_scores_rank_by_index(self):
        assert rank_topk(np.zeros(5), 5).tolist() == [0, 1, 2, 3, 4]

    def test_label_rank_consistent_with_topk(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            scores = np.round(rng.normal(size=12), 1)   # rounding forces ties
            full = rank_topk(scores, 12).tolist()
            for label in range(12):
                assert label_rank(scores, label) == full.index(label) + 1

    @pytest.mark.parametrize("n", [7, 200, 1364])
    def test_topk_matches_full_lexsort(self, n):
        # few distinct values, so ties sit at and across the k-th place
        rng = np.random.default_rng(n)
        for trial in range(40):
            scores = rng.integers(0, 3 if trial % 2 else 30, size=n) / 4.0
            order = np.lexsort((np.arange(n), -scores))
            for k in sorted({1, 2, min(20, n), n // 2, n - 1, n}):
                assert rank_topk(scores, k).tolist() == order[:k].tolist()

    def test_tie_straddling_the_kth_place(self):
        scores = np.array([1.0, 5.0, 3.0, 3.0, 0.0, 3.0])
        assert rank_topk(scores, 2).tolist() == [1, 2]
        assert rank_topk(scores, 3).tolist() == [1, 2, 3]
        assert rank_topk(scores, 5).tolist() == [1, 2, 3, 5, 0]

    def test_nan_scores_rank_last(self):
        scores = np.array([0.5, np.nan, 2.0, np.nan, 0.5, 1.0])
        order = np.lexsort((np.arange(6), -scores))
        for k in range(1, 7):
            assert rank_topk(scores, k).tolist() == order[:k].tolist()

    def test_label_ranks_follow_topk_with_nan_and_infinite_scores(self):
        # rank_topk ranks NaN after every number, NaNs in index order
        rng = np.random.default_rng(7)
        values = np.array([np.nan, np.inf, -np.inf, 0.0, 1.0, -1.0])
        scores = values[rng.integers(0, len(values), size=(3000, 8))]
        labels = rng.integers(0, 8, size=3000)
        expected = [rank_topk(row, 8).tolist().index(label) + 1 for row, label in zip(scores, labels)]
        assert _label_ranks(scores, labels).tolist() == expected

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            rank_topk(np.zeros(4), 0)
        with pytest.raises(ConfigError):
            rank_topk(np.zeros(4), 5)


def rank_report(scores, labels, ks):
    """The production metric path: _label_ranks over the (B, N) block, then a MetricsReport."""
    ranks = _label_ranks(np.asarray(scores, dtype=np.float64), np.asarray(labels, dtype=np.int64))
    return MetricsReport(tuple(ks), ranks, np.ones(len(labels), dtype=np.int64))


class TestMetricOracle:
    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(20240818)
        for _ in range(100):
            scores = np.round(rng.normal(size=(20, 50)), 2)
            labels = [int(x) for x in rng.integers(0, 50, size=20)]
            report = rank_report(scores, labels, (1, 5, 10, 20))
            for k in (1, 5, 10, 20):
                ref_r, ref_m = ref_rank_metrics(scores.tolist(), labels, k)
                assert abs(report.recall(k) - ref_r) < 1e-12
                assert abs(report.mrr(k) - ref_m) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_bucket_figures_match_per_bucket_sums(self, seed):
        # seed 0 has only short prefixes, so its long bucket is empty
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 60))
        ranks = rng.integers(1, 30, size=size)
        lengths = rng.integers(1, SHORT_MAX_LEN + 1 if seed == 0 else 12, size=size)
        ks = (1, 5, 20)
        report = MetricsReport(ks, ranks, lengths)
        members = {"all": [True] * size, "short": lengths <= SHORT_MAX_LEN, "long": lengths > SHORT_MAX_LEN}
        assert (report.n("long") == 0) == (seed == 0)
        for bucket, mask in members.items():
            rs = [int(r) for r, m in zip(ranks, mask) if m]
            assert report.n(bucket) == len(rs)
            for k in ks:
                ref_r = sum(1 for r in rs if r <= k) / len(rs) if rs else 0.0
                ref_m = sum(1.0 / r for r in rs if r <= k) / len(rs) if rs else 0.0
                assert abs(report.recall(k, bucket) - ref_r) < 1e-12
                assert abs(report.mrr(k, bucket) - ref_m) < 1e-12

    def test_rank_beyond_k_contributes_zero_to_mrr(self):
        # label ranked 3rd: counts for k >= 3, is zeroed for k < 3
        report = rank_report([np.array([5.0, 4.0, 3.0, 2.0])], [2], (2, 3))
        assert report.mrr(3) == pytest.approx(1.0 / 3.0)
        assert report.mrr(2) == 0.0
        assert report.recall(2) == 0.0

    def test_mrr_bounded_by_recall(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=(30, 15))
        labels = [int(x) for x in rng.integers(0, 15, size=30)]
        report = rank_report(scores, labels, (1, 3, 7, 15))
        for k in (1, 3, 7, 15):
            assert 0.0 <= report.mrr(k) <= report.recall(k) <= 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=(25, 20))
        labels = [int(x) for x in rng.integers(0, 20, size=25)]
        report = rank_report(scores, labels, (1, 5, 10, 20))
        for lo, hi in ((1, 5), (5, 10), (10, 20)):
            assert report.recall(lo) <= report.recall(hi)
            assert report.mrr(lo) <= report.mrr(hi)

    def test_degenerate_inputs_rejected(self):
        # both production entry points refuse zero test examples and out-of-range cutoffs
        hp = HyperParams(d=4)
        params = init_params(5, hp, seed=0)
        train = [PrefixExample([0], 1)]
        with pytest.raises(DataError):
            pop_baseline(train, [], 5, ks=(1,))
        with pytest.raises(ConfigError):
            evaluate_model(params, hp, train, ks=(6,))

    @pytest.mark.parametrize("k", [0, 6])
    def test_both_sources_reject_the_same_cutoffs(self, k):
        # a cutoff outside [1, num_items] is refused by the baseline exactly as by the model
        hp = HyperParams(d=4)
        params = init_params(5, hp, seed=0)
        train = [PrefixExample([0], 1)]
        for run in (lambda: evaluate_model(params, hp, train, ks=(1, k)),
                    lambda: pop_baseline(train, train, 5, ks=(1, k))):
            with pytest.raises(ConfigError, match=f"cutoff k={k} out of range for 5 items"):
                run()


class TestModelEvaluation:
    def test_uniform_scores_rank_labels_by_index(self):
        # zero weights give identical logits, so rank(label) = label + 1
        rng = np.random.default_rng(2)
        params = zero_params(6, 3, emb=rng.normal(size=(6, 3)))
        hp = HyperParams(d=3)
        examples = [PrefixExample([0, 1], lab) for lab in range(6)]
        report = evaluate_model(params, hp, examples, ks=(1, 3, 6))
        assert report.recall(1) == pytest.approx(1.0 / 6.0)
        assert report.recall(3) == pytest.approx(3.0 / 6.0)
        assert report.recall(6) == 1.0
        assert report.mrr(6) == pytest.approx(np.mean([1.0 / r for r in range(1, 7)]))

    def test_nan_parameters_rank_labels_by_index(self):
        # every logit is NaN, so the labels rank in index order, as predict lists them
        hp = HyperParams(d=3)
        params = init_params(6, hp, seed=0)
        params.flat[:] = np.nan
        examples = [PrefixExample([0, 1], lab) for lab in range(6)]
        assert evaluate_model(params, hp, examples, ks=(1,)).ranks.tolist() == [1, 2, 3, 4, 5, 6]

    def test_bucket_accounting(self):
        rng = np.random.default_rng(3)
        hp = HyperParams(d=4)
        params = init_params(8, hp, seed=0)
        examples = [PrefixExample([0] * n, 1) for n in (1, 2, 5, 6, 9)]
        report = evaluate_model(params, hp, examples, ks=(5,))
        assert report.n("short") == 3    # lengths 1, 2, 5
        assert report.n("long") == 2     # lengths 6, 9
        assert report.n("all") == 5

    def test_order_invariance(self):
        hp = HyperParams(d=4)
        params = init_params(9, hp, seed=1)
        rng = np.random.default_rng(4)
        examples = [PrefixExample([int(x) for x in rng.integers(0, 9, size=3)],
                                  int(rng.integers(0, 9))) for _ in range(12)]
        fwd = evaluate_model(params, hp, examples, ks=(5,))
        rev = evaluate_model(params, hp, list(reversed(examples)), ks=(5,))
        assert fwd.recall(5) == rev.recall(5) and fwd.mrr(5) == rev.mrr(5)

    def test_empty_rejected(self):
        hp = HyperParams(d=4)
        with pytest.raises(DataError):
            evaluate_model(init_params(5, hp, seed=0), hp, [], ks=(1,))

    @staticmethod
    def three_partitions(params, hp, examples):
        """Label ranks from evaluate_model, from training's sub-batches and from batches of one."""
        num_items = params.num_items
        scoring, training = sub_batches(examples, num_items, hp, scoring=True), sub_batches(examples, num_items, hp)
        assert len(scoring) < len(training)
        by_training = np.empty(len(examples), dtype=np.int64)
        for rows in training:
            trace = forward_batch([examples[i] for i in rows], params, hp)
            by_training[rows] = _label_ranks(trace.logits, trace.labels)
        alone = np.array([label_rank(forward_batch([ex], params, hp).logits[0], ex.label) for ex in examples])
        return evaluate_model(params, hp, examples, ks=(20,)).ranks, by_training, alone

    @staticmethod
    def random_examples(num_items, seed):
        # the last item is in no prefix, so a NaN embedding row gives NaN scores but finite activations
        rng = np.random.default_rng(seed)
        return [PrefixExample([int(x) for x in rng.integers(0, num_items - 1, size=1 + i % 9)],
                              int(rng.integers(0, num_items - 1))) for i in range(300)]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_ranks_do_not_depend_on_the_partition(self, variant):
        # zero embedding rows score exactly 0 in any product, so their items tie exactly; item 1499 scores NaN
        num_items, hp = 1500, HyperParams(d=4, variant=variant)
        params = init_params(num_items, hp, seed=2)
        examples = self.random_examples(num_items, seed=5)
        zero = [ex.label for ex in examples[::3]]
        params.emb[zero] = 0.0
        params.emb[-1] = np.nan
        examples[7] = PrefixExample(examples[7].prefix, num_items - 1)
        ranks, by_training, alone = self.three_partitions(params, hp, examples)
        assert ranks[7] == num_items      # NaN ranks after every number
        for ex, rank in zip(examples[::3], ranks[::3]):   # after every positive score and the zero rows before it
            logits = forward_batch([ex], params, hp).logits[0]
            assert rank == 1 + (logits > 0).sum() + np.isin(np.arange(ex.label), zero).sum()
        assert ranks.tolist() == by_training.tolist() == alone.tolist()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_partition_moves_a_rank_only_among_equal_embeddings(self, variant):
        # rounded embeddings repeat rows; their scores are equal in exact arithmetic, but depending on its
        # row count the score product can round the catalog's last N mod 8 columns apart, so a rank may move
        num_items, hp = 1500, HyperParams(d=4, variant=variant)
        params = init_params(num_items, hp, seed=2)
        params.emb[...] = np.round(params.emb, 1)
        examples = self.random_examples(num_items, seed=5)
        for ranks in self.three_partitions(params, hp, examples):
            for ex, rank in zip(examples, ranks):
                logits = forward_batch([ex], params, hp).logits[0]
                equal = (params.emb == params.emb[ex.label]).all(axis=1)
                first = 1 + int((logits[~equal] > logits[ex.label]).sum())
                assert first <= rank < first + equal.sum()


class TestPopBaseline:
    def test_counts_prefixes_and_labels(self):
        train = [PrefixExample([0, 1], 2), PrefixExample([0], 1)]
        counts = popularity_scores(train, 4)
        assert counts.tolist() == [2.0, 2.0, 1.0, 0.0]

    def test_matches_count_sort_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = int(rng.integers(3, 10))
            train = [PrefixExample([int(x) for x in rng.integers(0, m, size=int(rng.integers(1, 4)))],
                                   int(rng.integers(0, m))) for _ in range(10)]
            test = [PrefixExample([int(x) for x in rng.integers(0, m, size=2)],
                                  int(rng.integers(0, m))) for _ in range(6)]
            k = int(rng.integers(1, m + 1))
            report = pop_baseline(train, test, m, ks=(k,))

            # oracle: count every occurrence, sort by (-count, index)
            counts = [0] * m
            for ex in train:
                for it in ex.prefix:
                    counts[it] += 1
                counts[ex.label] += 1
            order = sorted(range(m), key=lambda i: (-counts[i], i))
            ref_r, ref_m = ref_rank_metrics(
                [[-order.index(i) for i in range(m)]] * len(test),
                [ex.label for ex in test], k)
            assert abs(report.recall(k) - ref_r) < 1e-12
            assert abs(report.mrr(k) - ref_m) < 1e-12

    def test_most_popular_label_gives_perfect_recall_at_1(self):
        train = [PrefixExample([3, 3, 3], 3), PrefixExample([3], 0)]
        test = [PrefixExample([0], 3), PrefixExample([1, 2], 3)]
        report = pop_baseline(train, test, 5, ks=(1,))
        assert report.recall(1) == 1.0 and report.mrr(1) == 1.0

    def test_needs_training_examples(self):
        with pytest.raises(DataError):
            pop_baseline([], [PrefixExample([0], 1)], 3, ks=(1,))
