"""The padded batch against the batch of one: gradients, logits, ranks and sub-batches."""

from dataclasses import replace

import numpy as np
import pytest

from casif import HyperParams, PrefixExample, evaluate_model, forward, init_params, label_rank
from casif.evaluation import _label_ranks
from casif.model import (
    LOSS_VARIANTS,
    SCORE_BYTES,
    SUB_BATCH_BYTES,
    VARIANTS,
    backward_batch,
    forward_batch,
    sub_batches,
    zero_gradients,
)

COMBOS = [(v, lv, steps) for v in VARIANTS for lv in LOSS_VARIANTS for steps in (1, 2)]
NUM_ITEMS = 12
RIVAL = 11     # in no prefix and no label, so raising its embedding moves only its logits


def mixed_examples(seed, count=7):
    """Prefix lengths 1..8 with repeated items, so graphs and padding differ row to row."""
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(count):
        prefix = [int(x) for x in rng.integers(0, 6, size=1 + (3 * i) % 8)]
        examples.append(PrefixExample(prefix, int(rng.integers(0, RIVAL))))
    return examples


def case(variant, loss_variant, steps, seed=0):
    hp = HyperParams(d=5, gnn_steps=steps, variant=variant, loss_variant=loss_variant,
                     current_interest_input="c_a" if steps == 2 else "h_n")
    return init_params(NUM_ITEMS, hp, seed=seed), hp


@pytest.mark.parametrize("variant, loss_variant, steps", COMBOS)
def test_batched_gradient_is_the_sum_of_per_example_gradients(variant, loss_variant, steps):
    params, hp = case(variant, loss_variant, steps, seed=steps)
    examples = mixed_examples(seed=len(variant) + steps)
    # put RIVAL 40 logits above the rest for the first example: its 1 - p rounds to 0
    blend = forward_batch(examples[:1], params, hp).blend[0]
    params.emb[RIVAL] += 40.0 * blend / (blend @ blend)
    trace = forward_batch(examples, params, hp)
    assert trace.probs[0, RIVAL] == 1.0

    batched = backward_batch(trace, params, hp)
    summed = zero_gradients(params)
    for ex in examples:
        for name, g in backward_batch(forward_batch([ex], params, hp), params, hp).items():
            summed[name] += g
    for name, g in summed.items():
        assert np.isfinite(batched[name]).all()
        assert np.abs(batched[name] - g).max() <= 1e-12 * np.abs(g).max(), name
    assert np.allclose(trace.losses, [forward(ex, params, hp).loss for ex in examples],
                       rtol=1e-12, atol=0.0)


def test_backward_adds_into_the_given_gradients():
    params, hp = case("casif", "eq13", 1)
    examples = mixed_examples(seed=3)
    once = backward_batch(forward_batch(examples, params, hp), params, hp)
    start = zero_gradients(params)
    start.flat[:] = once.flat
    twice = backward_batch(forward_batch(examples, params, hp), params, hp, start)
    assert twice is start
    for name, g in once.items():
        assert np.allclose(twice[name], 2.0 * g, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("variant, loss_variant, steps", COMBOS)
def test_batched_logits_and_ranks_equal_the_batch_of_one(variant, loss_variant, steps):
    params, hp = case(variant, loss_variant, steps, seed=10 + steps)
    examples = mixed_examples(seed=20 + steps, count=11)
    trace = forward_batch(examples, params, hp)
    ranks = _label_ranks(trace.logits, trace.labels)
    for b, ex in enumerate(examples):
        single = forward(ex, params, hp)
        assert np.abs(trace.logits[b] - single.logits).max() <= 1e-12
        assert np.abs(trace.probs[b] - single.probs).max() <= 1e-12
        assert ranks[b] == label_rank(single.logits, ex.label)


def test_evaluate_matches_full_sort_of_single_logits():
    params, hp = case("casif", "eq13", 1, seed=4)
    examples = mixed_examples(seed=5, count=40)
    report = evaluate_model(params, hp, examples, ks=(1, 3, 10))
    ranks = []
    for ex in examples:
        order = np.argsort(-forward(ex, params, hp).logits, kind="stable")
        ranks.append(int(np.flatnonzero(order == ex.label)[0]) + 1)
    ranks = np.array(ranks)
    for k in (1, 3, 10):
        assert abs(report.recall(k) - np.mean(ranks <= k)) <= 1e-12
        assert abs(report.mrr(k) - np.mean(np.where(ranks <= k, 1.0 / ranks, 0.0))) <= 1e-12


def test_padding_reaches_no_real_value():
    # an example's row is the same alone and beside a much longer one
    params, hp = case("casif", "eq13", 2, seed=6)
    short, long_ = PrefixExample([3], 1), PrefixExample([0, 1, 2, 3, 4, 5, 0, 1], 2)
    pair = forward_batch([short, long_], params, hp)
    alone = forward(short, params, hp)
    assert np.abs(pair.logits[0] - alone.logits).max() <= 1e-12
    assert np.array_equal(pair.h_pos[0, 1:], np.zeros_like(pair.h_pos[0, 1:]))


class TestSubBatches:
    def test_stable_length_order_and_budget(self):
        rng = np.random.default_rng(7)
        examples = [PrefixExample([0] * int(n), 0) for n in rng.integers(1, 50, size=300)]
        hp = HyperParams(d=32)
        chunks = sub_batches(examples, 1364, hp)
        flat = [i for chunk in chunks for i in chunk]
        assert flat == sorted(range(len(examples)), key=lambda i: len(examples[i].prefix))
        assert len(chunks) > 1
        for chunk in chunks:
            longest = max(len(examples[i].prefix) for i in chunk)
            cost = 8 * (6 * 1364 + 10 * (hp.gnn_steps + 2) * longest * hp.d)
            assert len(chunk) * cost <= SUB_BATCH_BYTES or len(chunk) == 1

    def test_an_oversized_example_gets_its_own_sub_batch(self):
        examples = [PrefixExample([0], 0), PrefixExample([0] * 50, 0)]
        assert sub_batches(examples, 10**6, HyperParams(d=32)) == [[0], [1]]

    @pytest.mark.parametrize("num_items, hp", [(1364, HyperParams(d=32)), (43097, HyperParams(d=100, gnn_steps=2))])
    def test_scoring_keeps_the_stable_length_order_and_both_limits(self, num_items, hp):
        rng = np.random.default_rng(7)
        examples = [PrefixExample([0] * int(n), 0) for n in rng.integers(1, 50, size=300)]
        chunks = sub_batches(examples, num_items, hp, scoring=True)
        flat = [i for chunk in chunks for i in chunk]
        assert flat == sorted(range(len(examples)), key=lambda i: len(examples[i].prefix))

        def within_limits(chunk):
            longest = max(len(examples[i].prefix) for i in chunk)
            return (len(chunk) * 8 * 5 * (hp.gnn_steps + 2) * longest * hp.d <= SUB_BATCH_BYTES
                    and len(chunk) * 8 * num_items <= SCORE_BYTES)

        assert all(within_limits(chunk) for chunk in chunks if len(chunk) > 1)
        # each cut is needed: the next sub-batch's first example would break a limit
        assert not any(within_limits(chunk + nxt[:1]) for chunk, nxt in zip(chunks, chunks[1:]))

    def test_a_scoring_example_over_either_limit_gets_its_own_sub_batch(self):
        short, long_ = PrefixExample([0], 0), PrefixExample([0] * 410, 0)     # 8 * 5 * 3 * 410 * 32 > 1.5 MiB
        assert sub_batches([short, short], SCORE_BYTES // 8 + 1, HyperParams(d=32), scoring=True) == [[0], [1]]
        assert sub_batches([short, long_, long_], 10, HyperParams(d=32), scoring=True) == [[0], [1], [2]]

    def test_scoring_sub_batches_are_wider_than_training_ones(self):
        rng = np.random.default_rng(7)
        examples = [PrefixExample([0] * int(n), 0) for n in rng.integers(1, 8, size=300)]
        hp = HyperParams(d=32)
        assert len(sub_batches(examples, 1364, hp, scoring=True)) < len(sub_batches(examples, 1364, hp))


def test_loss_is_computed_only_when_read(monkeypatch):
    import casif.model

    def refuse(*args):
        raise AssertionError("loss computed")

    params, hp = case("casif", "eq13", 1)
    examples = mixed_examples(seed=8)
    monkeypatch.setattr(casif.model, "_loss_and_grad", refuse)
    evaluate_model(params, hp, examples, ks=(5,))
    trace = forward(examples[0], params, hp)
    assert trace.probs.shape == (NUM_ITEMS,) and trace.logits.shape == (NUM_ITEMS,)
    with pytest.raises(AssertionError, match="loss computed"):
        trace.loss


def test_softmax_is_computed_only_when_read(monkeypatch):
    import casif.model

    def refuse(*args):
        raise AssertionError("softmax computed")

    params, hp = case("casif", "eq13", 1)
    examples = mixed_examples(seed=8)
    report = evaluate_model(params, hp, examples, ks=(1, 5))
    monkeypatch.setattr(casif.model, "_softmax_with_log", refuse)
    assert evaluate_model(params, hp, examples, ks=(1, 5)).records() == report.records()
    trace = forward(examples[0], params, hp)
    assert trace.logits.shape == (NUM_ITEMS,)
    with pytest.raises(AssertionError, match="softmax computed"):
        trace.probs


@pytest.mark.parametrize("loss_variant", LOSS_VARIANTS)
def test_backward_follows_the_traced_loss(loss_variant):
    # backward_batch differentiates the loss the trace was built for, whatever hp says
    params, hp = case("casif", loss_variant, 1, seed=4)
    other = replace(hp, loss_variant=next(v for v in LOSS_VARIANTS if v != loss_variant))
    trace = forward_batch(mixed_examples(seed=9), params, hp)
    assert np.array_equal(backward_batch(trace, params, other).flat, backward_batch(trace, params, hp).flat)
