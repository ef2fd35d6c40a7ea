import math

import numpy as np
import pytest

from casif import HyperParams, ModelParams, PrefixExample, forward, forward_batch, init_params, loss
from casif.model import (
    _loss_and_grad,
    _softmax_with_log,
    _tensor_shapes,
    attention_global_interest,
    casif_s_attention,
    score_and_predict,
    session_mean_pool,
)
from reference_impl import ref_eq13, ref_forward


def zero_params(num_items, d, emb=None):
    shapes = _tensor_shapes(num_items, d)
    params = ModelParams(np.zeros(sum(math.prod(shape) for shape in shapes.values())), shapes)
    if emb is not None:
        params.emb[:] = emb
    return params


def scalar_params(**values):
    """d=1, two items; every tensor a hand-chosen scalar."""
    p = zero_params(2, 1)
    for name, val in values.items():
        arr = getattr(p, name)
        arr[:] = np.reshape(val, arr.shape)
    return p


class TestZeroWeightAnchors:
    """With zero weights the gates sit at 1/2 and everything collapses."""

    def test_one_step_halves_the_embedding(self):
        rng = np.random.default_rng(42)
        emb = rng.normal(size=(6, 4))
        params = zero_params(6, 4, emb=emb)
        h = forward_batch([PrefixExample([3, 0, 5, 0], 0)], params, HyperParams(d=4)).h_nodes[0]
        # update gate sigma(0)=1/2, candidate tanh(0)=0: h = s/2 exactly
        assert np.array_equal(h, 0.5 * emb[[3, 0, 5]])

    def test_k_steps_halve_k_times(self):
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(5, 3))
        params = zero_params(5, 3, emb=emb)
        h = forward_batch([PrefixExample([1, 2], 0)], params, HyperParams(d=3, gnn_steps=3)).h_nodes[0]
        assert np.allclose(h, emb[[1, 2]] / 8.0, atol=1e-15)

    def test_uniform_prediction(self):
        rng = np.random.default_rng(2)
        params = zero_params(7, 3, emb=rng.normal(size=(7, 3)))
        trace = forward(PrefixExample([1, 4, 2], 5), params, HyperParams(d=3))
        assert np.allclose(trace.probs, np.full(7, 1.0 / 7.0), atol=1e-15)

    def test_uniform_eq13_loss_closed_form(self):
        for m in (2, 4, 7, 50):
            rng = np.random.default_rng(m)
            params = zero_params(m, 3, emb=rng.normal(size=(m, 3)))
            trace = forward(PrefixExample([0, 1], m - 1), params, HyperParams(d=3))
            expect = -math.log(1.0 / m) - (m - 1) * math.log(1.0 - 1.0 / m)
            assert abs(trace.loss - expect) < 1e-9

    def test_four_item_uniform_constant(self):
        rng = np.random.default_rng(4)
        params = zero_params(4, 3, emb=rng.normal(size=(4, 3)))
        trace = forward(PrefixExample([0, 1], 2), params, HyperParams(d=3))
        assert abs(trace.loss - 2.2493405784752333) < 1e-9


class TestScalarTrace:
    """d=1 worked example: every intermediate written out as plain arithmetic."""

    def test_matches_hand_arithmetic(self):
        p = scalar_params(
            emb=[[0.2], [-0.3]],
            w_in=0.5, b_in_inner=0.1, b_in_outer=-0.2,
            w_out=0.4, b_out_inner=0.0, b_out_outer=0.3,
            gate_update_msg=[[0.7], [-0.6]], gate_update_self=0.25,
            gate_reset_msg=[[-0.4], [0.8]], gate_reset_self=-0.5,
            gate_cand_msg=[[0.9], [-0.2]], gate_cand_self=0.35,
            att_score=1.3, att_item=0.6, att_last=-0.7, att_mean=0.45, att_bias=0.05,
            mlp_general_w=1.1, mlp_general_b=-0.15,
            mlp_current_w=0.8, mlp_current_b=0.2,
        )
        sig = lambda x: 1.0 / (1.0 + math.exp(-x))
        s0, s1 = 0.2, -0.3

        # session 0 -> 1: m_out = [[0,1],[0,0]], m_in = [[0,0],[1,0]]
        agg_in0 = -0.2                                   # no in-edges: outer bias only
        agg_out0 = (s1 * 0.4 + 0.0) + 0.3
        agg_in1 = (s0 * 0.5 + 0.1) + -0.2
        agg_out1 = 0.3

        def gru(s, m_in, m_out):
            z = sig(m_in * 0.7 + m_out * -0.6 + s * 0.25)
            r = sig(m_in * -0.4 + m_out * 0.8 + s * -0.5)
            c = math.tanh(m_in * 0.9 + m_out * -0.2 + (r * s) * 0.35)
            return (1.0 - z) * s + z * c

        h0 = gru(s0, agg_in0, agg_out0)
        h1 = gru(s1, agg_in1, agg_out1)
        mean = (h0 + h1) / 2.0

        a0 = sig(h0 * 0.6 + h1 * -0.7 + mean * 0.45 + 0.05) * 1.3
        a1 = sig(h1 * 0.6 + h1 * -0.7 + mean * 0.45 + 0.05) * 1.3
        context = a0 * h0 + a1 * h1
        general = math.tanh(context * 1.1 - 0.15)
        current = math.tanh(h1 * 0.8 + 0.2)        # current interest reads the last click
        blend = general * current
        z0, z1 = 0.2 * blend, -0.3 * blend
        p1 = math.exp(z1) / (math.exp(z0) + math.exp(z1))
        expect_loss = -math.log(p1) - math.log(1.0 - (1.0 - p1))

        trace = forward_batch([PrefixExample([0, 1], 1)], p, HyperParams(d=1))
        assert abs(trace.h_pos[0, 0, 0] - h0) < 1e-12
        assert abs(trace.h_pos[0, 1, 0] - h1) < 1e-12
        assert abs(trace.alpha[0, 0] - a0) < 1e-12
        assert abs(trace.alpha[0, 1] - a1) < 1e-12
        assert abs(trace.att_context[0, 0] - context) < 1e-12
        assert abs(trace.blend[0, 0] - blend) < 1e-12
        assert abs(trace.probs[0, 1] - p1) < 1e-12
        assert abs(trace.losses[0] - expect_loss) < 1e-12


class TestAgainstLoopReference:
    def cases(self):
        rng = np.random.default_rng(77)
        for i in range(40):
            variant = "casif" if i % 2 == 0 else "casif_s"
            steps = 1 + i % 3
            cii = "h_n" if i % 4 < 2 else "c_a"
            lv = "eq13" if i % 3 else "softmax_ce"
            hp = HyperParams(d=int(rng.integers(1, 6)), gnn_steps=steps, variant=variant,
                             loss_variant=lv, current_interest_input=cii)
            m = int(rng.integers(2, 9))
            n = int(rng.integers(1, 7))
            prefix = [int(x) for x in rng.integers(0, m, size=n)]
            label = int(rng.integers(0, m))
            yield hp, m, prefix, label, i

    def test_forward_matches_reference(self):
        for hp, m, prefix, label, i in self.cases():
            params = init_params(m, hp, seed=100 + i)
            trace = forward_batch([PrefixExample(prefix, label)], params, hp)
            ref_loss, ref_probs, ref_logits, ref_alpha = ref_forward(
                prefix, label, params, gnn_steps=hp.gnn_steps, variant=hp.variant,
                loss_variant=hp.loss_variant, current_interest_input=hp.current_interest_input)
            assert abs(trace.losses[0] - ref_loss) < 1e-12
            assert np.abs(trace.probs[0] - ref_probs).max() < 1e-12
            assert np.abs(trace.logits[0] - ref_logits).max() < 1e-12
            assert np.abs(trace.alpha[0] - ref_alpha).max() < 1e-12


class TestForwardProperties:
    def make(self, variant="casif", seed=0, m=9, d=5, **hp_kw):
        hp = HyperParams(d=d, variant=variant, **hp_kw)
        return init_params(m, hp, seed=seed), hp

    def test_probs_are_a_distribution(self):
        params, hp = self.make()
        for seed in range(10):
            rng = np.random.default_rng(seed)
            prefix = [int(x) for x in rng.integers(0, 9, size=int(rng.integers(1, 8)))]
            trace = forward_batch([PrefixExample(prefix, 0)], params, hp)
            assert abs(trace.probs[0].sum() - 1.0) < 1e-12
            assert (trace.probs[0] > 0.0).all()
            assert np.allclose(np.log(trace.probs[0]), trace.log_probs[0], atol=1e-12)

    def test_eq13_at_least_cross_entropy(self):
        params, hp = self.make()
        trace = forward_batch([PrefixExample([2, 5, 1], 4)], params, hp)
        ce = loss(trace.probs[0], 4, variant="softmax_ce", log_probs=trace.log_probs[0])
        assert trace.losses[0] >= ce

    def test_attention_coefficients_bounded(self):
        # gate is in (0,1), so |alpha| < sum |att_score|
        params, hp = self.make(seed=3)
        bound = np.abs(params.att_score).sum()
        for seed in range(10):
            rng = np.random.default_rng(seed)
            prefix = [int(x) for x in rng.integers(0, 9, size=6)]
            trace = forward_batch([PrefixExample(prefix, 0)], params, hp)
            assert np.abs(trace.alpha[0]).max() < bound

    def test_current_interest_switch_changes_output(self):
        params, hp_h = self.make()
        hp_c = HyperParams(d=5, current_interest_input="c_a")
        a = forward(PrefixExample([1, 2, 3], 0), params, hp_h)
        b = forward(PrefixExample([1, 2, 3], 0), params, hp_c)
        assert not np.allclose(a.probs, b.probs)

    def test_repeated_items_share_node_latents(self):
        params, hp = self.make()
        trace = forward_batch([PrefixExample([4, 7, 4], 0)], params, hp)
        assert np.array_equal(trace.h_pos[0, 0], trace.h_pos[0, 2])

    def test_bad_examples_rejected(self):
        params, hp = self.make(m=5)
        with pytest.raises(ValueError):
            forward(PrefixExample([], 0), params, hp)
        with pytest.raises(ValueError):
            forward(PrefixExample([5], 0), params, hp)   # item out of range
        with pytest.raises(ValueError):
            forward(PrefixExample([0], 5), params, hp)   # label out of range

    def test_simplified_attention_ignores_session_context(self):
        # conditioning and interest tensors may be arbitrarily corrupted: outputs identical
        params, hp = self.make(variant="casif_s", seed=9)
        base = forward_batch([PrefixExample([1, 2, 3, 2], 0)], params, hp)
        doctored = params.copy()
        rng = np.random.default_rng(0)
        for name in ("att_last", "att_mean", "mlp_general_w", "mlp_general_b", "mlp_current_w", "mlp_current_b"):
            getattr(doctored, name)[:] = rng.normal(size=getattr(doctored, name).shape)
        again = forward_batch([PrefixExample([1, 2, 3, 2], 0)], doctored, hp)
        assert np.array_equal(base.alpha[0], again.alpha[0])
        assert np.array_equal(base.probs[0], again.probs[0])

    def test_simplified_attention_reads_att_item(self):
        params, hp = self.make(variant="casif_s", seed=9)
        base = forward_batch([PrefixExample([1, 2, 3, 2], 0)], params, hp)
        doctored = params.copy()
        doctored.att_item[:] = np.random.default_rng(0).normal(size=doctored.att_item.shape)
        again = forward_batch([PrefixExample([1, 2, 3, 2], 0)], doctored, hp)
        assert not np.array_equal(base.alpha[0], again.alpha[0])

    def test_simplified_attention_is_casif_attention_without_conditioning(self):
        params, _ = self.make(seed=4)
        params.att_last[:] = params.att_mean[:] = 0.0
        h = np.random.default_rng(1).normal(size=(2, 4, 5))
        full = attention_global_interest(h, h[:, -1], h.mean(axis=1), params)
        simple = casif_s_attention(h, params)
        assert all(np.array_equal(a, b) for a, b in zip(full, simple))

    def test_simplified_scores_context_directly(self):
        params, hp = self.make(variant="casif_s", seed=5)
        trace = forward_batch([PrefixExample([0, 3, 6], 2)], params, hp)
        assert np.array_equal(trace.blend[0], trace.att_context[0])
        assert trace.general_state is None and trace.current_state is None


class TestComponentShapes:
    def test_mean_pool_counts_repeats(self):
        h = np.array([[1.0, 0.0], [3.0, 2.0], [1.0, 0.0]])
        assert np.array_equal(session_mean_pool(h), np.array([5.0 / 3.0, 2.0 / 3.0]))

    def test_attention_outputs(self):
        params, hp = TestForwardProperties().make(d=4, m=6)
        h = np.ones((3, 4)) * 0.1
        alpha, context, gate = attention_global_interest(h, h[-1], h.mean(axis=0), params)
        assert alpha.shape == (3,) and context.shape == (4,) and gate.shape == (3, 4)
        # identical rows get identical coefficients
        assert np.allclose(alpha, alpha[0])

    def test_score_shapes(self):
        emb = np.arange(12.0).reshape(4, 3)
        logits, probs = score_and_predict(np.ones(3), np.ones(3) * 0.5, emb)
        assert logits.shape == (4,) and abs(probs.sum() - 1.0) < 1e-12
        assert np.array_equal(logits, emb @ (np.ones(3) * 0.5))


class TestExtremeLogits:
    """The losses stay finite, and eq13 exact, when one item dominates the softmax."""

    @pytest.mark.parametrize("gap", [20.0, 37.0, 100.0, 1000.0])
    @pytest.mark.parametrize("label", [0, 5])
    def test_loss_and_gradient_match_reference(self, gap, label):
        # item 5 leads the other nine by `gap`; with label 0 it is a rival
        # whose 1 - p rounds to 0 in float64 from a gap of about 37
        logits = np.zeros(10)
        logits[5] = gap
        probs, log_probs = _softmax_with_log(logits)
        got = loss(probs, label, "eq13", log_probs=log_probs)
        grad = _loss_and_grad(probs[None], log_probs[None], np.array([label]), "eq13")[1][0]
        ref_value, ref_grad = ref_eq13(logits.tolist(), label)
        assert math.isfinite(got) and np.isfinite(grad).all()
        assert got == pytest.approx(ref_value, rel=1e-12, abs=1e-12)
        assert np.allclose(grad, ref_grad, rtol=1e-12, atol=1e-12)

    def test_rival_gradient_sums_to_zero(self):
        # adding a constant to every logit leaves the loss unchanged
        logits = np.array([0.0, 3.0, 1000.0, -2.0])
        probs, log_probs = _softmax_with_log(logits)
        grad = _loss_and_grad(probs[None], log_probs[None], np.array([0]), "eq13")[1][0]
        assert abs(grad.sum()) < 1e-12

    def test_cross_entropy_is_finite_where_the_label_probability_underflows(self):
        # at a gap of 1000 p(label 0) is 0.0 in float64; its log is -1000 all the same
        logits = np.zeros(10)
        logits[5] = 1000.0
        probs, log_probs = _softmax_with_log(logits)
        assert probs[0] == 0.0
        assert loss(probs, 0, "softmax_ce", log_probs=log_probs) == pytest.approx(1000.0, rel=1e-12)
        grad = _loss_and_grad(probs[None], log_probs[None], np.array([0]), "softmax_ce")[1][0]
        assert np.array_equal(grad, probs - np.eye(10)[0])

    def test_loss_requires_log_probs(self):
        probs, _ = _softmax_with_log(np.zeros(3))
        with pytest.raises(TypeError):
            loss(probs, 0, "eq13")
