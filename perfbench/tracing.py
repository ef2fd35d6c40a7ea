"""Spans for the traced run, the per-layer probes, and the per-layer metrics.

Spans are recorded only from the benchmark's own calls into casif's
public functions; nothing inside ``src/`` is instrumented.  A span is
(id, name, start, end, parent id, workload, counts), with start and end
read from the benchmark's CPU clock, unscaled.  Spans stay in memory
until the run ends and are then written out as JSON lines.
"""

from __future__ import annotations

import json

import numpy as np

from casif import (adam_step, backward, build_session_graph, forward, init_params,
                   label_rank, loss, make_batches)
from casif.model import (attention_global_interest, casif_s_attention, ggnn_forward,
                         interest_mlp, score_and_predict, session_mean_pool, zero_gradients)
from casif.trainer import AdamState

from clock import cpu_seconds


class _Span:
    __slots__ = ("tracer", "name", "counts", "sid", "parent", "start")

    def __init__(self, tracer, name, counts):
        self.tracer, self.name, self.counts = tracer, name, counts

    def __enter__(self):
        tracer = self.tracer
        self.sid = tracer.started
        tracer.started += 1
        self.parent = tracer.stack[-1].sid if tracer.stack else None
        tracer.stack.append(self)
        self.start = cpu_seconds()
        return self

    def __exit__(self, *exc):
        end = cpu_seconds()
        tracer = self.tracer
        tracer.stack.pop()
        tracer.spans.append((self.sid, self.name, self.start, end, self.parent, self.counts))
        return False


class _NoSpan:
    @property
    def counts(self):
        return {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class Tracer:
    """Keeps spans in memory while ``enabled``; a disabled tracer records nothing."""

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: list = []
        self.stack: list = []
        self.started = 0

    def span(self, name: str, **counts):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name, counts)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"clock": "cpu_s", **header}, sort_keys=True) + "\n")
            for sid, name, start, end, parent, counts in sorted(self.spans):
                rec = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "workload": self.workload}
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def span_seconds(spans: int = 20000) -> float:
    """CPU seconds one empty span costs, the mean over ``spans`` of them on a tracer of its own."""
    tracer = Tracer("span-cost", enabled=True)
    start = cpu_seconds()
    for _ in range(spans):
        with tracer.span("empty"):
            pass
    return (cpu_seconds() - start) / spans


def probe_layers(tracer, w, ds, params, hp, seed):
    """Time each layer's public functions one call at a time.

    Runs on a fixed, evenly spaced sample of training examples with the
    trained parameters, which it does not modify.  Graph builds and
    batching cover the whole training split so that their counts are
    those of one epoch.
    """
    train = ds.train
    sample = [train[i * len(train) // w.probe_examples] for i in range(min(w.probe_examples, len(train)))]
    with tracer.span("probe") as probe:
        nodes = positions = 0
        for ex in train:
            with tracer.span("graph.build_session_graph"):
                graph = build_session_graph(ex.prefix)
            nodes += graph.num_nodes
            positions += len(ex.prefix)

        steps = 0
        for epoch in range(w.epochs):
            with tracer.span("trainer.make_batches"):
                batches = make_batches(train, w.batch_size, seed, epoch)
            steps += len(batches)
        probe.counts.update(nodes=nodes, positions=positions, adam_steps=steps)

        with tracer.span("rng.init_params"):
            init_params(ds.num_items, hp, seed)

        for ex in sample:
            graph = build_session_graph(ex.prefix)
            with tracer.span("model.ggnn_forward"):
                h_nodes = ggnn_forward(graph, params, hp)
            h_pos = h_nodes[graph.alias]
            mean = session_mean_pool(h_pos)
            if hp.variant == "casif":
                with tracer.span("model.attention"):
                    _, context, _ = attention_global_interest(h_pos, h_pos[-1], mean, params)
                current_input = h_pos[-1] if hp.current_interest_input == "h_n" else context
                with tracer.span("model.interest_mlp"):
                    general, current = interest_mlp(context, current_input, params)
            else:
                with tracer.span("model.attention"):
                    _, general, _ = casif_s_attention(h_pos, params)
                current = np.ones_like(general)   # casif_s scores the attention context itself
            with tracer.span("model.score_and_predict"):
                logits, probs = score_and_predict(general, current, params.emb)
            log_probs = logits - logits.max()
            log_probs -= np.log(np.exp(log_probs).sum())
            with tracer.span("model.loss"):
                loss(probs, ex.label, hp.loss_variant, log_probs=log_probs)
            with tracer.span("model.forward"):
                trace = forward(ex, params, hp)
            with tracer.span("model.backward"):
                grads = backward(trace, params, hp)
            with tracer.span("model.zero_gradients"):
                zero_gradients(params)
            with tracer.span("evaluation.label_rank"):
                label_rank(trace.logits, ex.label)

        scratch = params.copy()
        state = AdamState.fresh(scratch)
        for _ in range(5):
            with tracer.span("trainer.adam_step"):
                adam_step(scratch, grads, state, w.lr0)


def _durations(spans, name):
    return np.array([s[3] - s[2] for s in spans if s[1] == name])


def _per_call(spans, name, scale):
    d = _durations(spans, name)
    return float(d.mean() * scale) if d.size else 0.0


def _rate(spans, name, key):
    picked = [s for s in spans if s[1] == name]
    busy = sum(s[3] - s[2] for s in picked)
    return sum(s[5][key] for s in picked) / busy if busy > 0 else 0.0


def _count(spans, name, key):
    for s in spans:
        if s[1] == name:
            return s[5][key]
    return 0


def per_layer_metrics(spans, factor, overhead_pct):
    """Every per-layer metric, derived from the recorded spans.

    Times are scaled by ``factor``, the run's host-speed factor (clock.py).
    """
    us, ms = 1e6 * factor, 1e3 * factor
    synth_clicks = _count(spans, "synth.write_click_log", "clicks")
    synth_busy = factor * (_durations(spans, "synth.generate_sessions").sum()
                           + _durations(spans, "synth.write_click_log").sum())

    def rate(name, key):
        return _rate(spans, name, key) / factor

    values = {
        "corpus.parse_clicks_per_s": (rate("corpus.parse_click_log", "clicks"), "clicks/s"),
        "corpus.sessionize_clicks_per_s": (rate("corpus.sessionize_and_filter", "clicks"), "clicks/s"),
        "corpus.reindex_examples_per_s": (rate("corpus.build_vocab_and_reindex", "examples"), "ex/s"),
        "corpus.persist_examples_per_s": (rate("corpus.persist_dataset", "examples"), "ex/s"),
        "corpus.load_examples_per_s": (rate("corpus.load_dataset", "examples"), "ex/s"),
        "graph.build_us": (_per_call(spans, "graph.build_session_graph", us), "us"),
        "graph.nodes": (_count(spans, "probe", "nodes"), "count"),
        "graph.positions": (_count(spans, "probe", "positions"), "count"),
        "model.ggnn_us": (_per_call(spans, "model.ggnn_forward", us), "us"),
        "model.attention_us": (_per_call(spans, "model.attention", us), "us"),
        "model.interest_mlp_us": (_per_call(spans, "model.interest_mlp", us), "us"),
        "model.score_us": (_per_call(spans, "model.score_and_predict", us), "us"),
        "model.loss_us": (_per_call(spans, "model.loss", us), "us"),
        "model.forward_us": (_per_call(spans, "model.forward", us), "us"),
        "model.backward_us": (_per_call(spans, "model.backward", us), "us"),
        "model.zero_gradients_us": (_per_call(spans, "model.zero_gradients", us), "us"),
        "model.candidate_scores": (_count(spans, "round", "candidate_scores"), "count"),
        "trainer.adam_step_ms": (_per_call(spans, "trainer.adam_step", ms), "ms"),
        "trainer.make_batches_ms": (_per_call(spans, "trainer.make_batches", ms), "ms"),
        "trainer.adam_steps": (_count(spans, "probe", "adam_steps"), "count"),
        "trainer.checkpoint_bytes": (_count(spans, "trainer.save_checkpoint", "bytes"), "bytes"),
        "evaluation.label_rank_us": (_per_call(spans, "evaluation.label_rank", us), "us"),
        "evaluation.rank_topk_us": (_per_call(spans, "evaluation.rank_topk", us), "us"),
        "rng.init_params_ms": (_per_call(spans, "rng.init_params", ms), "ms"),
        "synth.generate_clicks_per_s": (synth_clicks / synth_busy if synth_busy > 0 else 0.0, "clicks/s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
