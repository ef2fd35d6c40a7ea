"""Acceptance gate: the nine headline properties, one verdict line each.

Run with plain pytest; each test prints its [PASS]/[FAIL] line directly to
the terminal, bypassing capture, so the gate is visible in any log.
"""

import io
import math
import time

import numpy as np
import pytest

from casif import (
    HyperParams,
    PrefixExample,
    ItemVocabulary,
    ProcessedDataset,
    TrainConfig,
    build_session_graph,
    build_vocab_and_reindex,
    evaluate_model,
    forward,
    generate_sessions,
    init_params,
    load_checkpoint,
    parse_click_log,
    pop_baseline,
    save_checkpoint,
    sessionize_and_filter,
    take_recent_fraction,
    time_split,
    train,
    write_click_log,
    SynthSpec,
)
from casif.model import run_gradient_check
from reference_impl import ref_graph, ref_rank_metrics
from test_eval import rank_report


def verdict(capsys, num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{tag}] criterion {num}: {name}{detail}")
    assert ok, f"criterion {num} failed: {name}{detail}"


def dataset_from_sessions(sessions, num_items):
    vocab = ItemVocabulary({str(i): i for i in range(num_items)},
                           [str(i) for i in range(num_items)])
    return ProcessedDataset(train_sessions=[list(items) for items in sessions], test_sessions=[], vocab=vocab)


@pytest.fixture(scope="module")
def markov_run():
    """Shared corpus and trained model for the learning-signal criteria."""
    spec = SynthSpec(num_items=50, num_sessions=5000, min_len=2, max_len=10,
                     mode="markov", seed=11)
    buf = io.StringIO()
    write_click_log(generate_sessions(spec), buf)
    buf.seek(0)
    kept = sessionize_and_filter(parse_click_log(buf).events)
    split_ts = max(s.start_time for s in kept) - 86_400_000 + 1
    train_s, test_s = time_split(kept, split_ts)
    ds = build_vocab_and_reindex(train_s, test_s, {})

    hp = HyperParams(d=32)
    start = time.monotonic()
    result = train(ds, TrainConfig(epochs=4, hp=hp, seed=0))
    model_rep = evaluate_model(result.params, hp, ds.test, ks=(20,))
    pop_rep = pop_baseline(ds.train, ds.test, ds.num_items, ks=(20,))
    elapsed = time.monotonic() - start
    return {"ds": ds, "hp": hp, "result": result, "model": model_rep,
            "pop": pop_rep, "elapsed": elapsed}


class TestAcceptance:
    def test_1_gradient_correctness(self, capsys):
        start = time.monotonic()
        cases = run_gradient_check(num_cases=24, d=8, num_items=20, h=1e-5)
        elapsed = time.monotonic() - start
        worst = max(c.rel_error for c in cases)
        covered = {(c.variant, c.loss_variant, c.gnn_steps) for c in cases}
        lens = {c.prefix_len for c in cases}
        ok = (len(cases) >= 20 and worst < 1e-4 and len(covered) == 8
              and lens == {1, 2, 3, 4, 5} and elapsed < 60.0)
        verdict(capsys, 1, "analytic gradients match finite differences", ok,
                f" (worst rel err {worst:.2e} over {len(cases)} cases, {elapsed:.1f}s)")

    def test_2_graph_oracle(self, capsys):
        rng = np.random.default_rng(20240817)
        worst = 0.0
        for _ in range(1000):
            length = int(rng.integers(1, 9))
            alphabet = int(rng.integers(1, 6))
            prefix = [int(x) for x in rng.integers(0, alphabet, size=length)]
            got = build_session_graph(prefix)
            nodes, alias, m_in, m_out = ref_graph(prefix)
            assert got.nodes == nodes and got.alias.tolist() == alias
            worst = max(worst,
                        float(np.abs(got.m_in - m_in).max()),
                        float(np.abs(got.m_out - m_out).max()))
            for mat in (got.m_in, got.m_out):
                sums = mat.sum(axis=1)
                assert np.all((np.abs(sums - 1.0) <= 1e-12) | (sums == 0.0))
        verdict(capsys, 2, "session graphs equal the brute-force oracle",
                worst <= 1e-12, f" (worst abs diff {worst:.1e} over 1000 sequences)")

    def test_3_metric_oracle(self, capsys):
        rng = np.random.default_rng(20240818)
        worst = 0.0
        for _ in range(100):
            scores = np.round(rng.normal(size=(20, 50)), 2)
            labels = [int(x) for x in rng.integers(0, 50, size=20)]
            got = rank_report(scores, labels, (1, 5, 10, 20))
            for k in (1, 5, 10, 20):
                ref_r, ref_m = ref_rank_metrics(scores.tolist(), labels, k)
                worst = max(worst, abs(got.recall(k) - ref_r), abs(got.mrr(k) - ref_m))
        # the rank-beyond-k rule: a label ranked 3rd contributes zero at k=2
        third = rank_report([np.array([5.0, 4.0, 3.0, 2.0])], [2], (2, 3))
        zero_rule = third.mrr(2) == 0.0 and third.mrr(3) > 0.0
        verdict(capsys, 3, "recall@k / mrr@k equal the full-sort oracle",
                worst <= 1e-12 and zero_rule,
                f" (worst abs diff {worst:.1e} over 100 matrices)")

    def test_4_closed_form_anchors(self, capsys):
        from test_model_forward import zero_params

        rng = np.random.default_rng(42)
        emb = rng.normal(size=(6, 4))
        params = zero_params(6, 4, emb=emb)
        trace = forward(PrefixExample([3, 0, 5, 0], 2), params, HyperParams(d=4))
        halved = np.array_equal(trace.h_pos, 0.5 * emb[[3, 0, 5, 0]])
        uniform = np.allclose(trace.probs, 1.0 / 6.0, atol=1e-15)

        closed = True
        for m in (2, 4, 7, 50):
            p = zero_params(m, 3, emb=np.random.default_rng(m).normal(size=(m, 3)))
            t = forward(PrefixExample([0, 1], m - 1), p, HyperParams(d=3))
            expect = -math.log(1.0 / m) - (m - 1) * math.log(1.0 - 1.0 / m)
            closed = closed and abs(t.loss - expect) < 1e-9
            if m == 4:
                four = abs(t.loss - 2.2493405784752333) < 1e-9
        ok = halved and uniform and closed and four
        verdict(capsys, 4, "zero-weight forward anchors hold", ok)

    def test_5_memorization(self, capsys):
        # corpus: 10 single-prefix functional sessions over 12 items
        spec = SynthSpec(num_items=12, num_sessions=10, min_len=2, max_len=2,
                         mode="functional", seed=5)
        ds = dataset_from_sessions(generate_sessions(spec), 12)
        assert len(ds.train) <= 50
        hp = HyperParams(d=32)
        # stepped decay would freeze learning after ~4 decays, contradicting the
        # 200-epoch budget, so the schedule is held flat at the default lr0
        cfg = TrainConfig(epochs=200, lr_decay_factor=1.0, hp=hp, seed=0)
        start = time.monotonic()
        result = train(ds, cfg)
        elapsed = time.monotonic() - start
        report = evaluate_model(result.params, hp, ds.train, ks=(1,))
        final_loss = result.epoch_logs[-1].mean_loss
        ok = report.recall(1) == 1.0 and final_loss < 0.1 and elapsed < 60.0
        verdict(capsys, 5, "functional corpus memorized", ok,
                f" (recall@1 {report.recall(1):.2f}, loss {final_loss:.4f}, {elapsed:.1f}s)")

    def test_6_learning_beats_popularity(self, capsys, markov_run):
        model, pop = markov_run["model"], markov_run["pop"]
        elapsed = markov_run["elapsed"]
        ok = (model.recall(20) > pop.recall(20)
              and model.mrr(20) > pop.mrr(20)
              and elapsed < 300.0)
        verdict(capsys, 6, "trained model beats the popularity baseline", ok,
                f" (recall@20 {model.recall(20):.3f} vs {pop.recall(20):.3f}, "
                f"mrr@20 {model.mrr(20):.3f} vs {pop.mrr(20):.3f}, {elapsed:.0f}s)")

    def test_7_ablation_separability(self, capsys, markov_run):
        ds = markov_run["ds"]
        full_losses = [l.mean_loss for l in markov_run["result"].epoch_logs]

        hp_s = HyperParams(d=32, variant="casif_s")
        result_s = train(ds, TrainConfig(epochs=2, hp=hp_s, seed=0))
        s_losses = [l.mean_loss for l in result_s.epoch_logs]
        trains = (all(np.isfinite(full_losses)) and full_losses[-1] < full_losses[0]
                  and all(np.isfinite(s_losses)) and s_losses[-1] < s_losses[0])

        # exact invariance: the simplified attention never reads the last-click
        # or session-mean conditioning, so corrupting those tensors changes nothing
        params = result_s.params
        example = PrefixExample(ds.test[0].prefix, ds.test[0].label)
        base = forward(example, params, hp_s)
        doctored = params.copy()
        rng = np.random.default_rng(0)
        for name in ("att_item", "att_last", "att_mean", "att_bias"):
            getattr(doctored, name)[:] = rng.normal(size=getattr(doctored, name).shape)
        again = forward(example, doctored, hp_s)
        invariant = (np.array_equal(base.alpha, again.alpha)
                     and np.array_equal(base.probs, again.probs))
        verdict(capsys, 7, "both variants train; simplified attention is context-free",
                trains and invariant)

    def test_8_determinism_and_checkpointing(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        sessions = [[int(x) for x in rng.integers(0, 10, size=4)] for _ in range(10)]
        ds = dataset_from_sessions(sessions, 10)
        cfg = lambda e: TrainConfig(epochs=e, hp=HyperParams(d=6), seed=5)

        paths = []
        for run in range(2):
            p = tmp_path / f"rerun{run}.ckpt"
            save_checkpoint(p, train(ds, cfg(3)).checkpoint)
            paths.append(p)
        reruns_identical = paths[0].read_bytes() == paths[1].read_bytes()

        p_whole = tmp_path / "whole.ckpt"
        save_checkpoint(p_whole, train(ds, cfg(4)).checkpoint)
        p_half = tmp_path / "half.ckpt"
        save_checkpoint(p_half, train(ds, cfg(2)).checkpoint)
        resumed = train(ds, cfg(4), resume=load_checkpoint(p_half))
        p_resumed = tmp_path / "resumed.ckpt"
        save_checkpoint(p_resumed, resumed.checkpoint)
        resume_equiv = p_whole.read_bytes() == p_resumed.read_bytes()

        back = load_checkpoint(p_whole)
        p_again = tmp_path / "again.ckpt"
        save_checkpoint(p_again, back)
        round_trip = p_whole.read_bytes() == p_again.read_bytes()

        verdict(capsys, 8, "bit-exact determinism, resume, and round-trip",
                reruns_identical and resume_equiv and round_trip)

    def test_9_preprocessing_fidelity(self, capsys):
        # eight crafted sessions; support threshold 3 kills items e and r
        rows = [
            ("s1", 1000, ["a", "b", "a"]),
            ("s2", 2000, ["b", "c"]),
            ("s3", 3000, ["a", "c", "r"]),
            ("s4", 4000, ["d", "r"]),
            ("s5", 5000, ["a", "b", "c", "d", "e"]),
            ("s6", 6000, ["c", "d"]),
            ("s7", 7000, ["b", "d", "b"]),
            ("s8", 8000, ["e", "a"]),
        ]
        lines = []
        for sid, start, items in rows:
            for i, item in enumerate(items):
                lines.append(f"{sid},{start + i},{item}")
        parsed = parse_click_log(io.StringIO("\n".join(lines) + "\n"))

        kept = sessionize_and_filter(parsed.events, min_item_support=3,
                                     min_session_len=2, max_session_len=3)
        # by hand: e (2) and r (2) drop; s4 -> [d] and s8 -> [a] die; s5 loses e
        # and truncates [a,b,c,d] -> [b,c,d]; 6 sessions, 15 clicks remain
        kept_items = [s.items for s in kept]
        expect_sessions = [["a", "b", "a"], ["b", "c"], ["a", "c"],
                           ["b", "c", "d"], ["c", "d"], ["b", "d", "b"]]
        sessions_ok = kept_items == expect_sessions
        avg = sum(len(s.items) for s in kept) / len(kept)
        avg_ok = avg == 2.5

        train_s, test_s = time_split(kept, 6000)
        ds = build_vocab_and_reindex(train_s, test_s, {})
        counts_ok = (len(train_s) == 4 and len(test_s) == 2
                     and ds.num_items == 4
                     and len(ds.train) == 6 and len(ds.test) == 3)

        # ceil rule: a third of 4 sessions is 2 after rounding up
        recent = take_recent_fraction(train_s, "1/3")
        frac_ok = [s.items for s in recent] == [["a", "c"], ["b", "c", "d"]]

        verdict(capsys, 9, "crafted-log preprocessing matches hand-derived values",
                sessions_ok and avg_ok and counts_ok and frac_ok,
                f" (sessions {len(kept)}, items {ds.num_items}, "
                f"examples {len(ds.train)}+{len(ds.test)}, mean len {avg})")
