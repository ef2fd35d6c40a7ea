"""Command-line entry point.

Subcommands: preprocess, train, evaluate, predict, gradcheck, synth.
A JSON config file (--config, or the CASIF_CONFIG environment variable)
supplies defaults; flags override it.  Exit codes: 0 success, 1 usage or
configuration error, 2 data error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import config as config_mod
from . import corpus, evaluation, synth, trainer
from .errors import ConfigError, DataError, VerificationError
from .graph import build_session_graph
from .model import CURRENT_INTEREST_INPUTS, LOSS_VARIANTS, VARIANTS, forward, run_gradient_check

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; our contract says 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _provenance(command: str, cfg: dict, **extra) -> dict:
    block = {"command": command, "config": {k: cfg[k] for k in sorted(cfg)}}
    block.update(extra)
    return block


def _config(args) -> dict:
    """The effective config: every parsed flag whose dest is a config key overrides it."""
    return config_mod.effective_config(
        args.config, {k: v for k, v in vars(args).items() if k in config_mod.DEFAULTS})


# ---------------------------------------------------------------------------
# preprocess


def cmd_preprocess(args) -> int:
    cfg = _config(args)
    fmt = config_mod.log_format(cfg)
    settings = config_mod.preprocess_config(cfg)
    in_path = Path(args.input)
    if not in_path.exists():
        raise DataError(f"input file not found: {in_path}")

    provenance = _provenance("preprocess", cfg, input=str(in_path))
    # surrogateescape: a line that is not UTF-8 is one malformed line, not an aborted read
    with open(in_path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            ds, skipped = corpus.preprocess(fh, fmt, settings, provenance)
        except DataError as exc:
            raise DataError(f"{in_path}: {exc}") from exc
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset_path = out_dir / "dataset.jsonl"
    corpus.persist_dataset(ds, dataset_path)

    kept = ds.train_sessions + ds.test_sessions
    clicks = sum(len(s) for s in kept)
    stats = {
        "clicks": clicks,
        "train_sessions": len(ds.train_sessions),
        "test_sessions": len(ds.test_sessions),
        "items": ds.num_items,
        "average_length": clicks / len(kept),
        "train_examples": len(ds.train),
        "test_examples": len(ds.test),
        "skipped_lines": skipped,
    }
    with open(out_dir / "stats.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": ds.provenance, "stats": stats}, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if args.dump_graphs:
        with open(out_dir / "graphs.jsonl", "w", encoding="utf-8") as fh:
            for split, examples in (("train", ds.train), ("test", ds.test)):
                for ex in examples:
                    g = build_session_graph(ex.prefix)
                    fh.write(json.dumps({
                        "split": split, "prefix": ex.prefix, "nodes": g.nodes,
                        "alias": g.alias.tolist(),
                        "m_in": [float(x) for x in g.m_in.reshape(-1)],
                        "m_out": [float(x) for x in g.m_out.reshape(-1)],
                    }) + "\n")

    for key in ("clicks", "train_sessions", "test_sessions", "items"):
        print(f"{key:<16}{stats[key]}")
    print(f"{'average_length':<16}{stats['average_length']:.2f}")
    print(f"{'train_examples':<16}{stats['train_examples']}")
    print(f"{'test_examples':<16}{stats['test_examples']}")
    print(f"wrote {dataset_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    cfg = _config(args)
    tc = config_mod.train_config(cfg)
    ds = corpus.load_dataset(args.dataset)
    resume = trainer.load_checkpoint(args.resume) if args.resume else None

    result = trainer.train(ds, tc, resume=resume)
    trainer.save_checkpoint(args.checkpoint_out, result.checkpoint)
    # a resumed run takes its model settings and seed from the checkpoint
    cfg.update(asdict(result.checkpoint.hp), seed=result.checkpoint.rng_seed)

    log_path = args.log_out or f"{args.checkpoint_out}.log.jsonl"
    provenance = _provenance("train", cfg, dataset=str(args.dataset), resumed_from=args.resume)
    with open(log_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"provenance": provenance}, sort_keys=True) + "\n")
        for log in result.epoch_logs:
            fh.write(json.dumps(log.record(), sort_keys=True) + "\n")

    print(f"config: d={cfg['d']} batch={cfg['batch_size']} lr0={cfg['lr0']} "
          f"variant={cfg['variant']} loss={cfg['loss_variant']} epochs={cfg['epochs']} seed={cfg['seed']}")
    for log in result.epoch_logs:
        print(f"epoch {log.epoch:>3}  lr {log.lr:.6g}  mean_loss {log.mean_loss:.6f}")
    print(f"wrote {args.checkpoint_out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate


def _parse_ks(text: str):
    try:
        ks = tuple(sorted({int(part) for part in text.split(",") if part.strip()}))
    except ValueError as exc:
        raise ConfigError(f"bad --ks value {text!r}: {exc}") from exc
    if not ks or any(k < 1 for k in ks):
        raise ConfigError(f"bad --ks value {text!r}")
    return ks


def cmd_evaluate(args) -> int:
    cfg = _config(args)
    ks = _parse_ks(args.ks)
    ds = corpus.load_dataset(args.dataset)
    examples = ds.train if args.split == "train" else ds.test
    if not examples:
        raise DataError(f"dataset has no {args.split} examples")

    if args.baseline == "pop":
        report = evaluation.pop_baseline(ds.train, examples, ds.num_items, ks=ks)
        source = "baseline:pop"
    else:
        if not args.checkpoint:
            raise ConfigError("evaluate needs --checkpoint unless --baseline pop is given")
        ckpt = trainer.load_checkpoint(args.checkpoint)
        if ckpt.num_items != ds.num_items:
            raise DataError(
                f"checkpoint has {ckpt.num_items} items but dataset has {ds.num_items}; "
                "they do not belong together")
        report = evaluation.evaluate_model(ckpt.params, ckpt.hp, examples, ks=ks)
        source = str(args.checkpoint)

    buckets = evaluation.BUCKETS if args.split_length else ("all",)
    if args.out:
        provenance = _provenance("evaluate", cfg, dataset=str(args.dataset),
                                 source=source, split=args.split, ks=list(ks))
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"provenance": provenance, "metrics": report.records(buckets)},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(report.table(buckets))
    return EXIT_OK


# ---------------------------------------------------------------------------
# predict


def cmd_predict(args) -> int:
    ckpt = trainer.load_checkpoint(args.checkpoint)
    vocab = corpus.load_vocab(args.vocab, ckpt.num_items)

    raw_items = [part.strip() for part in args.items.split(",") if part.strip()]
    if not raw_items:
        raise ConfigError("--items must list at least one item id")
    unknown = [it for it in raw_items if it not in vocab.raw_to_index]
    if unknown:
        raise DataError(f"unknown item ids: {', '.join(unknown)}")

    prefix = [vocab.raw_to_index[it] for it in raw_items]
    trace = forward(corpus.PrefixExample(prefix, 0), ckpt.params, ckpt.hp)
    top = evaluation.rank_topk(trace.probs, args.k)
    for index in top:
        print(f"{vocab.index_to_raw[int(index)]}\t{trace.probs[int(index)]:.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ConfigError(f"tolerance must be finite and >= 0, got {args.tolerance:g}")
    variants = VARIANTS if args.variant == "both" else (args.variant,)
    cases = run_gradient_check(num_cases=args.cases, variants=variants)
    worst = max(case.rel_error for case in cases)
    for case in cases:
        print(f"seed {case.seed}  {case.variant:<8} {case.loss_variant:<11} "
              f"steps {case.gnn_steps}  batch {case.batch_size}  len {case.prefix_len}  "
              f"rel_err {case.rel_error:.3e}")
    print(f"worst relative error: {worst:.3e} over {len(cases)} cases (tolerance {args.tolerance:g})")
    if not worst < args.tolerance:
        raise VerificationError(f"gradcheck FAILED: worst relative error {worst:.3e} "
                                f"is not below the tolerance {args.tolerance:g}")
    print("gradcheck passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    # a flag left out keeps SynthSpec's default
    spec = synth.SynthSpec(**{f.name: getattr(args, f.name) for f in fields(synth.SynthSpec)
                              if getattr(args, f.name) is not None})
    sessions = synth.generate_sessions(spec)
    out = Path(args.out)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        clicks = synth.write_click_log(sessions, fh)
    print(f"wrote {clicks} clicks / {len(sessions)} sessions to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="casif", description=__doc__)
    parser.add_argument("--config", help="JSON config file (fallback: $CASIF_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="raw click log -> processed dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--delimiter")
    p.add_argument("--has-header", action="store_const", const=True, default=None)
    p.add_argument("--session-col", type=int)
    p.add_argument("--time-col", type=int)
    p.add_argument("--item-col", type=int)
    p.add_argument("--min-item-support", type=int)
    p.add_argument("--min-session-len", type=int)
    p.add_argument("--max-session-len", type=int)
    p.add_argument("--test-window-ms", type=int)
    p.add_argument("--split-ts", type=int)
    p.add_argument("--fraction", help="most-recent fraction of train sessions, e.g. 1/64")
    p.add_argument("--strict", dest="strict_parse", action="store_const", const=True,
                   help="abort on the first malformed line")
    p.add_argument("--dump-graphs", action="store_true", help="also write per-example session graphs")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model on a processed dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint-out", required=True)
    p.add_argument("--log-out")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--d", type=int)
    p.add_argument("--gnn-steps", type=int)
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--loss-variant", choices=LOSS_VARIANTS)
    p.add_argument("--current-interest-input", choices=CURRENT_INTEREST_INPUTS)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr0", type=float)
    p.add_argument("--lr-decay-factor", type=float)
    p.add_argument("--lr-decay-every", type=int)
    p.add_argument("--l2-lambda", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="rank metrics for a checkpoint or baseline")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--baseline", choices=["pop"])
    p.add_argument("--ks", default="5,10,20")
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.add_argument("--split-length", action="store_true", help="also report short/long buckets")
    p.add_argument("--out", help="write metrics JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="top-k next items for a session")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--items", required=True, help="comma-separated raw item ids")
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--cases", type=int, default=24)
    p.add_argument("--variant", choices=("both", *VARIANTS), default="both")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic raw click log")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=synth.MODES)
    p.add_argument("--num-items", type=int)
    p.add_argument("--num-sessions", type=int)
    p.add_argument("--min-len", type=int)
    p.add_argument("--max-len", type=int)
    p.add_argument("--branching", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, trainer.TrainingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
