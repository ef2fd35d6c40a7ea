import numpy as np
import pytest

from casif import (HyperParams, PrefixExample, backward_batch, finite_difference_grad, forward, forward_batch,
                   init_params)
from casif.errors import ConfigError
from casif.model import relative_gradient_error, run_gradient_check


def make_case(seed=0, d=5, m=10, prefix=(1, 4, 2, 4), label=7, **hp_kw):
    hp = HyperParams(d=d, **hp_kw)
    params = init_params(m, hp, seed=seed)
    example = PrefixExample(list(prefix), label)
    return example, params, hp


class TestAnalyticAgainstFiniteDifferences:
    def test_agreement_all_configurations(self):
        i = 0
        for variant in ("casif", "casif_s"):
            for lv in ("eq13", "softmax_ce"):
                for steps in (1, 2):
                    for cii in ("h_n", "c_a"):
                        example, params, hp = make_case(
                            seed=i, variant=variant, loss_variant=lv,
                            gnn_steps=steps, current_interest_input=cii)
                        trace = forward_batch([example], params, hp)
                        analytic = backward_batch(trace, params, hp)
                        numeric = finite_difference_grad([example], params, hp)
                        err = relative_gradient_error(analytic, numeric)
                        assert err < 1e-4, f"{variant}/{lv}/steps={steps}/{cii}: {err}"
                        i += 1

    def test_single_item_prefix(self):
        # degenerate graph with no edges still differentiates cleanly
        example, params, hp = make_case(prefix=(3,), label=2)
        analytic = backward_batch(forward_batch([example], params, hp), params, hp)
        numeric = finite_difference_grad([example], params, hp)
        assert relative_gradient_error(analytic, numeric) < 1e-4

    def test_large_logit_gap(self):
        # a non-label item outscores the rest by 40, so its 1 - p rounds to 0
        for variant in ("casif", "casif_s"):
            example, params, hp = make_case(seed=3, variant=variant)
            blend = forward_batch([example], params, hp).blend[0]
            params.emb[5] += 40.0 * blend / (blend @ blend)
            trace = forward_batch([example], params, hp)
            assert trace.probs[0, 5] == 1.0 and np.isfinite(trace.losses[0])
            analytic = backward_batch(trace, params, hp)
            numeric = finite_difference_grad([example], params, hp)
            assert relative_gradient_error(analytic, numeric) < 1e-4, variant

    def test_gradient_shapes_and_determinism(self):
        example, params, hp = make_case()
        g1 = backward_batch(forward_batch([example], params, hp), params, hp)
        g2 = backward_batch(forward_batch([example], params, hp), params, hp)
        assert set(g1) == set(dict(params.tensors()))
        for name, arr in params.tensors():
            assert g1[name].shape == arr.shape
            assert np.array_equal(g1[name], g2[name])


class TestFiniteDifferenceOracleItself:
    def test_matches_manual_central_difference(self):
        example, params, hp = make_case(seed=4)
        numeric = finite_difference_grad([example], params, hp, h=1e-5)
        # recompute a handful of coordinates with inline arithmetic
        rng = np.random.default_rng(0)
        for name in ("emb", "att_score", "mlp_general_w"):
            arr = getattr(params, name)
            flat = arr.reshape(-1)
            for idx in rng.integers(0, flat.size, size=3):
                orig = flat[idx]
                flat[idx] = orig + 1e-5
                up = forward(example, params, hp).loss
                flat[idx] = orig - 1e-5
                down = forward(example, params, hp).loss
                flat[idx] = orig
                assert numeric[name].reshape(-1)[idx] == (up - down) / 2e-5

    def test_nan_counts_as_failure(self):
        # a NaN on either side must fail the check, not vanish from the maximum
        good = {"w": np.array([1.0, 2.0])}
        bad = {"w": np.array([1.0, np.nan])}
        assert relative_gradient_error(bad, good) == np.inf
        assert relative_gradient_error(good, bad) == np.inf

    def test_perturbations_restored(self):
        example, params, hp = make_case(seed=5)
        before = {name: arr.copy() for name, arr in params.tensors()}
        finite_difference_grad([example], params, hp)
        for name, arr in params.tensors():
            assert np.array_equal(arr, before[name])

    def test_truncation_error_shrinks_quadratically(self):
        # central differences: error ~ h^2, so doubling h scales it ~4x
        example, params, hp = make_case(seed=6)
        analytic = backward_batch(forward_batch([example], params, hp), params, hp)

        def max_err(h):
            numeric = finite_difference_grad([example], params, hp, h=h)
            return max(np.abs(analytic[n] - numeric[n]).max() for n in numeric)

        coarse, fine = max_err(2e-3), max_err(1e-3)
        assert 2.5 < coarse / fine < 6.0


class TestGradientStructure:
    def test_emb_rows_outside_prefix_follow_scoring_path_only(self):
        # rows never visited by the graph feel only the logit path, so their
        # gradient must be an exact scalar multiple of the blend vector
        example, params, hp = make_case(seed=7, prefix=(1, 4, 2), label=0, m=12)
        trace = forward_batch([example], params, hp)
        grads = backward_batch(trace, params, hp)
        visited = set(example.prefix)
        blend = trace.blend[0]
        unit = blend / np.linalg.norm(blend)
        for i in range(12):
            row = grads["emb"][i]
            residual = row - (row @ unit) * unit
            if i in visited:
                continue
            assert np.abs(residual).max() < 1e-12, f"row {i} not colinear with blend"

    def test_visited_rows_accumulate_both_paths(self):
        example, params, hp = make_case(seed=8, prefix=(1, 4, 2), label=0, m=12)
        trace = forward_batch([example], params, hp)
        grads = backward_batch(trace, params, hp)
        blend = trace.blend[0]
        unit = blend / np.linalg.norm(blend)
        off_axis = []
        for i in set(example.prefix):
            row = grads["emb"][i]
            residual = row - (row @ unit) * unit
            off_axis.append(np.abs(residual).max())
        assert max(off_axis) > 1e-8   # the node path contributes off the blend axis

    def test_simplified_variant_leaves_unused_tensors_untouched(self):
        example, params, hp = make_case(seed=9, variant="casif_s")
        grads = backward_batch(forward_batch([example], params, hp), params, hp)
        numeric = finite_difference_grad([example], params, hp)
        # a padded batch of mixed prefix lengths, with repeats
        batch = [example, PrefixExample([6], 2), PrefixExample([2, 2, 8, 0, 9, 3, 2], 1)]
        batched = backward_batch(forward_batch(batch, params, hp), params, hp)
        for name in ("att_item", "att_last", "att_mean", "att_bias",
                     "mlp_general_w", "mlp_general_b", "mlp_current_w", "mlp_current_b"):
            assert np.all(grads[name] == 0.0)
            assert np.all(numeric[name] == 0.0)
            assert np.all(batched[name] == 0.0)


class TestWithL2Penalty:
    def test_extended_objective_still_differentiates(self):
        lam = 1e-3   # large enough to matter at fd resolution
        example, params, hp = make_case(seed=10)
        trace = forward_batch([example], params, hp)
        grads = backward_batch(trace, params, hp)
        extended = {name: grads[name] + 2.0 * lam * arr for name, arr in params.tensors()}

        h = 1e-5
        worst = 0.0
        for name, arr in params.tensors():
            flat = arr.reshape(-1)
            g_flat = extended[name].reshape(-1)
            rng = np.random.default_rng(hash(name) % 2**32)
            for idx in rng.integers(0, flat.size, size=min(5, flat.size)):
                orig = flat[idx]

                def total():
                    base = forward(example, params, hp).loss
                    sq = sum(float((a * a).sum()) for _, a in params.tensors())
                    return base + lam * sq

                flat[idx] = orig + h
                up = total()
                flat[idx] = orig - h
                down = total()
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), 1e-6)
                worst = max(worst, abs(g_flat[idx] - fd) / denom)
        assert worst < 1e-4


class TestHarness:
    def test_run_gradient_check_covers_grid(self):
        cases = run_gradient_check(num_cases=8, d=4, num_items=8)
        combos = {(c.variant, c.loss_variant, c.gnn_steps) for c in cases}
        assert len(combos) == 8   # 2 variants x 2 losses x 2 step counts
        assert all(c.rel_error < 1e-4 for c in cases)

    def test_negative_case_count_rejected(self):
        with pytest.raises(ConfigError, match="num_cases must be >= 0, got -1"):
            run_gradient_check(num_cases=-1)

    def test_sabotage_trips_the_check(self, monkeypatch):
        import casif.model
        honest = casif.model.backward_batch

        def corrupted(*args, **kwargs):
            grads = honest(*args, **kwargs)
            grads["emb"][0, 0] += 1e-2
            return grads

        monkeypatch.setattr(casif.model, "backward_batch", corrupted)
        cases = run_gradient_check(num_cases=2, d=4, num_items=8)
        assert max(c.rel_error for c in cases) > 1e-4
