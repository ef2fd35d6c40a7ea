"""Benchmark of the casif pipeline: ingest, train, evaluate, predict, checkpoint.

    python3 perfbench/run.py --workload wide-catalog --seed 1 --seconds 36 --trace 0

One process runs one workload.  It generates a synthetic click log from
--seed, then repeats whole rounds of the same operations until the next
round would end after --seconds of wall time:

    ingest      the click log through casif preprocess plus the dataset load
    train       casif.train over the workload's epoch budget
    evaluate    evaluate_model over the held-out examples
    predict     forward + rank_topk(probs, 20), one held-out prefix per call
    checkpoint  save_checkpoint and load_checkpoint of the trained model

Every phase is timed in CPU time of this process, scaled to a fixed host
speed (clock.py; README.md says why), and every output is checked.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones, derived from spans that the run writes to .perfbench/.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"   # before numpy loads: CPU time equals work time only single-threaded

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import casif  # noqa: E402
from casif import (HyperParams, PrefixExample, SynthSpec, TrainConfig, build_vocab_and_reindex,  # noqa: E402
                   evaluate_model, forward, generate_sessions, load_checkpoint, load_dataset,
                   parse_click_log, persist_dataset, pop_baseline, rank_topk, save_checkpoint,
                   sessionize_and_filter, time_split, train, write_click_log)
from casif.synth import BASE_TIME_MS, SESSION_GAP_MS  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from clock import NOMINAL_REFERENCE_S, HostSpeed, cpu_seconds, reference_seconds  # noqa: E402
from tracing import Tracer, per_layer_metrics, probe_layers, span_seconds  # noqa: E402

K = 20
PREDICT_CALLS = 2000     # per round; the p99 pools every call of the run
MIN_SESSION_LEN = 2
MAX_SESSION_LEN = 50
SETUP_PROBES = 4         # extra processes that repeat set-up; setup_s is the median of 1 + 4
GRADCHECK_EXAMPLES = 3
EVAL_BLOCK = 250         # held-out examples per evaluate_model call
SPAN_COST_REPEATS = 5
UNTIMED_SPANS = ("round", "evaluate", "predict", "checkpoint")   # they enclose timed calls and the host-speed runs
OUT = ROOT / ".perfbench"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small: reduced inputs for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="set up only, then print this process's scaled CPU seconds so far")
    return p.parse_args(argv)


class Tally:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self, per_round: int):
        self.per_round = per_round
        self.attempted = self.failed = self.in_round = 0

    def start_round(self):
        self.in_round = 0

    def record(self, op: str, problems):
        self.attempted += 1
        self.in_round += 1
        if problems:
            self.failed += 1
            print(f"FAILED {op}: {'; '.join(problems)}", file=sys.stderr)

    def fail_rest_of_round(self):
        rest = self.per_round - self.in_round
        self.attempted += rest
        self.failed += rest


class Run:
    """One workload's inputs, its first round's results for later rounds to repeat, and its timings."""

    def __init__(self, w, seed, work, tracer):
        self.w, self.seed, self.tracer = w, seed, tracer
        self.hp = HyperParams(d=w.d, gnn_steps=w.gnn_steps, variant=w.variant, loss_variant=w.loss_variant)
        self.cfg = TrainConfig(batch_size=w.batch_size, lr0=w.lr0, epochs=w.epochs, seed=seed, hp=self.hp)
        self.csv = work / "clicks.csv"
        self.dataset = work / "dataset.jsonl"
        self.ckpt = work / "model.ckpt"
        self.split_index = math.ceil((1.0 - w.test_share) * w.num_sessions)
        self.split_ts = BASE_TIME_MS + self.split_index * SESSION_GAP_MS
        self.tally = Tally(3 + PREDICT_CALLS + 2 * w.checkpoint_repeats)
        self.rounds: list[dict] = []
        self.host_samples: list[float] = []   # every reference-kernel time, see clock.py
        self.first_round = None     # (checkpoint, (recall, mrr)) that later rounds must repeat

    def setup(self):
        """Generate the click log and write it as CSV: the work set-up time covers."""
        w, tracer = self.w, self.tracer
        spec = SynthSpec(num_items=w.num_items, num_sessions=w.num_sessions, min_len=w.min_len,
                         max_len=w.max_len, mode="markov", seed=self.seed, branching=w.branching)
        with tracer.span("synth.generate_sessions"):
            self.sessions = generate_sessions(spec)
        self.clicks = sum(len(items) for items in self.sessions)
        with tracer.span("synth.write_click_log", clicks=self.clicks), open(self.csv, "w", encoding="utf-8") as fh:
            self.written = write_click_log(self.sessions, fh)

    def ingest(self):
        w, tracer = self.w, self.tracer
        with open(self.csv, "r", encoding="utf-8") as fh:
            with tracer.span("corpus.parse_click_log", clicks=self.clicks):
                parsed = parse_click_log(fh)
        with tracer.span("corpus.sessionize_and_filter", clicks=len(parsed.events)):
            sessions = sessionize_and_filter(parsed.events, min_item_support=w.min_item_support,
                                             min_session_len=MIN_SESSION_LEN, max_session_len=MAX_SESSION_LEN)
        with tracer.span("corpus.time_split"):
            train_sessions, test_sessions = time_split(sessions, self.split_ts)
        with tracer.span("corpus.build_vocab_and_reindex") as span:
            ds = build_vocab_and_reindex(train_sessions, test_sessions,
                                         {"workload": w.name, "seed": self.seed, "split_ts": self.split_ts})
        examples = len(ds.train) + len(ds.test)
        span.counts["examples"] = examples
        with tracer.span("corpus.persist_dataset", examples=examples):
            persist_dataset(ds, self.dataset)
        with tracer.span("corpus.load_dataset", examples=examples):
            loaded = load_dataset(self.dataset)
        return parsed, ds, loaded

    def round(self):
        """One round of every operation; timings in scaled CPU seconds, checks outside them."""
        w, tracer, tally, hp = self.w, self.tracer, self.tally, self.hp
        tally.start_round()
        r = {}
        first_span = len(tracer.spans)

        with tracer.span("round") as round_span:
            with HostSpeed(self.host_samples) as scaled:
                t = cpu_seconds()
                with tracer.span("ingest"):
                    parsed, ds, loaded = self.ingest()
                scaled.add(cpu_seconds() - t)
            r["ingest"], = scaled.times
            r["clicks"] = self.clicks
            if self.first_round is None:
                self.expected = checks.expected_dataset(
                    self.sessions, w.min_item_support, MIN_SESSION_LEN, MAX_SESSION_LEN, self.split_index)
            tally.record("ingest", checks.check_ingest(self.expected, self.clicks, self.written,
                                                          parsed, ds, loaded))
            train_examples, test = loaded.train, loaded.test
            round_span.counts["candidate_scores"] = loaded.num_items * (
                w.epochs * len(train_examples) + len(test) + PREDICT_CALLS)

            with HostSpeed(self.host_samples) as scaled:
                t = cpu_seconds()
                with tracer.span("trainer.train", examples=w.epochs * len(train_examples)):
                    result = train(loaded, self.cfg)
                scaled.add(cpu_seconds() - t)
            r["train"], = scaled.times
            r["train_examples"] = w.epochs * len(train_examples)
            problems = [f"epoch {log.epoch} mean loss {log.mean_loss}"
                        for log in result.epoch_logs if not np.isfinite(log.mean_loss)]
            ckpt = result.checkpoint
            if self.first_round is None:
                sample = train_examples[:: max(1, len(train_examples) // GRADCHECK_EXAMPLES)][:GRADCHECK_EXAMPLES]
                problems += checks.directional_gradcheck(sample, result.params, hp, self.seed)
            elif not checks.same_checkpoint(ckpt, self.first_round[0]):
                problems.append("same-seed training is not bit-identical to the first round")
            tally.record("train", problems)

            # in blocks, so that the host-speed scaling stays local (clock.py)
            reports = []
            with HostSpeed(self.host_samples) as scaled, tracer.span("evaluate", examples=len(test)):
                for lo in range(0, len(test), EVAL_BLOCK):
                    t = cpu_seconds()
                    with tracer.span("evaluation.evaluate_model"):
                        reports.append(evaluate_model(result.params, hp, test[lo:lo + EVAL_BLOCK], ks=(K,)))
                    scaled.add(cpu_seconds() - t)
            r["eval"] = sum(scaled.times)
            r["eval_examples"] = len(test)
            quality = tuple(sum(getattr(rep, name)(K) * rep.n() for rep in reports) / len(test)
                            for name in ("recall", "mrr"))
            if self.first_round is None:
                # a generator: each row is ranked as it is made, so no catalog-wide rows pile up
                logits = (forward(ex, result.params, hp).logits for ex in test)
                recall, mrr = checks.rank_metrics(logits, [ex.label for ex in test], K)
                pop = pop_baseline(train_examples, test, loaded.num_items, ks=(K,))
                problems = checks.check_quality(quality, K, recall, mrr, pop.recall(K))
                self.first_round = (ckpt, quality)
            else:
                problems = [] if quality == self.first_round[1] else ["recall/mrr differ from the first round"]
            tally.record("evaluate", problems)
            r["recall"], r["mrr"] = quality

            with HostSpeed(self.host_samples, every=100) as scaled, tracer.span("predict"):
                for i in range(PREDICT_CALLS):
                    example = PrefixExample(test[i % len(test)].prefix, 0)   # label unused, as in casif predict
                    t = cpu_seconds()
                    with tracer.span("model.forward"):
                        trace = forward(example, result.params, hp)
                    with tracer.span("evaluation.rank_topk"):
                        top = rank_topk(trace.probs, K)
                    scaled.add(cpu_seconds() - t)
                    tally.record("predict", checks.check_prediction(trace.probs, trace.logits, top, K))
            r["predict"] = scaled.times

            with HostSpeed(self.host_samples, every=10) as scaled, tracer.span("checkpoint"):
                for _ in range(w.checkpoint_repeats):
                    t = cpu_seconds()
                    with tracer.span("trainer.save_checkpoint") as span:
                        save_checkpoint(self.ckpt, ckpt)
                    scaled.add(cpu_seconds() - t)
                    span.counts["bytes"] = self.ckpt.stat().st_size
                    tally.record("save", [])
                    t = cpu_seconds()
                    with tracer.span("trainer.load_checkpoint"):
                        back = load_checkpoint(self.ckpt)
                    scaled.add(cpu_seconds() - t)
                    tally.record("load", [] if checks.same_checkpoint(back, ckpt)
                                 else ["loaded checkpoint differs from the saved one"])
            r["save"], r["load"] = scaled.times[0::2], scaled.times[1::2]

        r["busy"] = r["ingest"] + r["train"] + r["eval"] + sum(r["predict"]) + sum(r["save"]) + sum(r["load"])
        if tracer.enabled:
            r["timed_spans"] = sum(s[1] not in UNTIMED_SPANS for s in tracer.spans[first_span:])
            probe_layers(tracer, w, loaded, result.params, hp, self.seed)
        self.rounds.append(r)
        return r

    def run_rounds(self, seconds):
        """Whole rounds until the next one would end after `seconds`."""
        start = time.perf_counter()
        last = 0.0
        while not self.rounds or time.perf_counter() - start + last <= seconds:
            began = time.perf_counter()
            try:
                r = self.round()
                print(f"round {len(self.rounds)}: ingest {r['ingest']:.3f}s train {r['train']:.3f}s "
                      f"eval {r['eval']:.3f}s predict p50 {1e3 * statistics.median(r['predict']):.3f}ms "
                      f"save {1e3 * statistics.median(r['save']):.3f}ms "
                      f"load {1e3 * statistics.median(r['load']):.3f}ms", flush=True)
            except Exception:
                traceback.print_exc()
                self.tally.fail_rest_of_round()
                self.rounds.append(None)
            last = time.perf_counter() - began


def end_to_end_metrics(rounds, setup_seconds):
    """Phase timings are medians over the run's rounds; predict percentiles pool all its calls."""
    rounds = [r for r in rounds if r is not None]
    predict_ms = 1e3 * np.array([t for r in rounds for t in r["predict"]])

    def over_rounds(figure):
        return statistics.median(figure(r) for r in rounds)

    values = {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "ingest_clicks_per_s": (over_rounds(lambda r: r["clicks"] / r["ingest"]), "clicks/s"),
        "train_examples_per_s": (over_rounds(lambda r: r["train_examples"] / r["train"]), "ex/s"),
        "eval_examples_per_s": (over_rounds(lambda r: r["eval_examples"] / r["eval"]), "ex/s"),
        "predict_p50_ms": (float(np.percentile(predict_ms, 50)), "ms"),
        "predict_p99_ms": (float(np.percentile(predict_ms, 99)), "ms"),
        "checkpoint_save_ms": (over_rounds(lambda r: 1e3 * statistics.median(r["save"])), "ms"),
        "checkpoint_load_ms": (over_rounds(lambda r: 1e3 * statistics.median(r["load"])), "ms"),
        "recall_at_20": (rounds[0]["recall"], "ratio"),
        "mrr_at_20": (rounds[0]["mrr"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


def trace_overhead_pct(rounds, samples):
    """Tracing's share of a round's timed work: spans recorded in it times the cost of one span.

    The busy time of a traced round holds that cost, so the figure is the
    extra time over what the same round takes untraced; median over rounds.
    """
    with HostSpeed(samples) as scaled:
        for _ in range(SPAN_COST_REPEATS):
            scaled.add(span_seconds())
    cost = statistics.median(scaled.times)
    return statistics.median(100.0 * r["timed_spans"] * cost / (r["busy"] - r["timed_spans"] * cost)
                             for r in rounds if r is not None)


def summary(r):
    """A round's timings without its per-call lists, for the result file."""
    if r is None:
        return None
    calls = {name: statistics.median(r[name]) for name in ("predict", "save", "load")}
    return {**{k: v for k, v in r.items() if k not in calls}, **{f"{k}_median": v for k, v in calls.items()}}


def setup_probe_seconds(args):
    """Scaled CPU seconds one fresh process spends from its start to the end of set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--size", args.size, "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1])


def machine_facts():
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS}, "src_lines": src_lines}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(casif.__file__).resolve().is_relative_to(SRC):
        print(f"casif was imported from {casif.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    w = workloads.get(args.workload, args.size)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        tracer = Tracer(w.name, enabled=bool(args.trace))
        run = Run(w, args.seed, work, tracer)
        run.setup()
        setup_seconds = [cpu_seconds()]
        setup_seconds[0] *= NOMINAL_REFERENCE_S / reference_seconds()
        if args.setup_probe:
            print(repr(setup_seconds[0]))
            return 0
        run.run_rounds(args.seconds)
        tracer.enabled = False
        if any(r is not None for r in run.rounds):
            factor = NOMINAL_REFERENCE_S / statistics.median(run.host_samples)
            metrics = (per_layer_metrics(tracer.spans, factor, trace_overhead_pct(run.rounds, run.host_samples))
                       if args.trace
                       else end_to_end_metrics(run.rounds, setup_seconds + [
                           setup_probe_seconds(args) for _ in range(SETUP_PROBES)]))
        else:
            metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = run.tally
    result = {"correct": tally.failed == 0 and bool(metrics), "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": vars(w), "seed": args.seed, "seconds": args.seconds,
                   "size": args.size, "rounds": [summary(r) for r in run.rounds],
                   "reference_s": run.host_samples,
                   "machine": machine_facts()},
                  fh, indent=2, sort_keys=True)
    if args.trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{stem}.jsonl", {"workload": w.name, "seed": args.seed})
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
