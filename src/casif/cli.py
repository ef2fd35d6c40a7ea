"""Command-line entry point.

Subcommands: preprocess, train, evaluate, predict, gradcheck, synth.
A JSON config file (--config, or the CASIF_CONFIG environment variable)
supplies values and flags override it: so ``_settings`` builds each settings
dataclass of preprocess, train and synth, and the dataclass checks them.
Every command reads and checks the file, also those that take no key from it.
Every flag that sets a field is built from it, and every provenance block
records the fields of the dataclasses its command ran with.
Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import corpus, evaluation, synth, trainer
from .errors import ConfigError, DataError, VerificationError
from .graph import build_session_graph
from .model import VARIANTS, HyperParams, forward_batch, run_gradient_check

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads -1e-4 as an option; a negative number is a value in any form
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits 2 on usage errors by default; our contract says 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _provenance(command: str, *dataclasses, **extra) -> dict:
    """The command, the sorted keys (fields with a default) of the dataclasses it ran with, and ``extra``."""
    config = {f.name: getattr(dc, f.name) for dc in dataclasses for f in fields(dc)
              if f.default is not MISSING}
    return {"command": command, "config": dict(sorted(config.items())), **extra}


def _machine() -> dict:
    """What a run's speed and bits depend on: numpy, its BLAS, the thread variables, the CPU count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):       # a numpy whose show_config only prints, or names no BLAS
        blas = {}
    threads = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "cpu_count": os.cpu_count(), **threads}


def _add_field_flags(parser, cls) -> None:
    """One flag per field with a default: its name (and --no-name if a bool), its first type, default None."""
    types = config_mod.field_types(cls)
    for f in fields(cls):
        if f.default is MISSING:
            continue
        flag = "--strict" if f.name == "strict_parse" else "--" + f.name.replace("_", "-")
        if types[f.name][0] is bool:
            parser.add_argument(flag, dest=f.name, action=argparse.BooleanOptionalAction)
        else:
            parser.add_argument(flag, dest=f.name, type=types[f.name][0])


def _prepare_outputs(outputs: dict, inputs: dict, may_replace=(), make_dirs=True) -> None:
    """Check a command's output paths and create their missing directories, before its work.

    ``outputs`` and ``inputs`` map a flag to its path (None skipped).  An output
    that is an existing directory, lies under an existing file, or resolves to an
    input or an earlier output, is a configuration error, unless its (output, input)
    flags are in ``may_replace``.  With ``make_dirs`` false the caller makes them.
    """
    taken = {flag: Path(path).resolve() for flag, path in inputs.items() if path}
    outputs = {flag: Path(path) for flag, path in outputs.items() if path}
    for flag, path in outputs.items():
        if path.is_dir():
            raise ConfigError(f"{flag} {path} is a directory")
        nearest = next(parent for parent in path.parents if parent.exists())
        if not nearest.is_dir():
            raise ConfigError(f"{flag} {path}: {nearest} is not a directory")
        for other, other_path in taken.items():
            if path.resolve() == other_path and (flag, other) not in may_replace:
                raise ConfigError(f"{flag} and {other} name the same file {path}")
        taken[flag] = path.resolve()
    for path in outputs.values() if make_dirs else ():
        path.parent.mkdir(parents=True, exist_ok=True)


def _settings(args, cls, **fixed):
    """``cls`` from the config file's keys, overridden by every flag given; ``fixed`` fields as given."""
    flags = {k: v for k, v in vars(args).items() if v is not None}
    return config_mod.settings(cls, {**args.config_keys, **flags}, **fixed)


# ---------------------------------------------------------------------------
# preprocess


def cmd_preprocess(args) -> int:
    settings = _settings(args, corpus.PreprocessConfig)
    in_path, out_dir = Path(args.input), Path(args.out_dir)
    # --out-dir is made only once the log has been read
    names = ["dataset.jsonl", "dataset.jsonl.vocab", "stats.json"] + (["graphs.jsonl"] if args.dump_graphs else [])
    _prepare_outputs({f"--out-dir's {name}": out_dir / name for name in names}, {"--input": in_path},
                     make_dirs=False)
    provenance = _provenance("preprocess", settings, input=str(in_path))
    # surrogateescape: a line that is not UTF-8 is one malformed line, not an aborted read
    with open(in_path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            ds, skipped = corpus.preprocess(fh, settings, provenance)
        except DataError as exc:
            raise DataError(f"{in_path}: {exc}") from exc
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
                    fh.write(json.dumps({"split": split, "prefix": ex.prefix, "nodes": g.nodes,
                                         "alias": g.alias.tolist(), "m_in": g.m_in.reshape(-1).tolist(),
                                         "m_out": g.m_out.reshape(-1).tolist()}) + "\n")

    for key in ("clicks", "train_sessions", "test_sessions", "items", "average_length",
                "train_examples", "test_examples"):
        print(f"{key:<16}{stats[key]:{'.2f' if key == 'average_length' else ''}}")
    print(f"wrote {dataset_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    tc = _settings(args, trainer.TrainConfig, hp=_settings(args, HyperParams))
    log_path = args.log_out or f"{args.checkpoint_out}.log.jsonl"
    _prepare_outputs({"--checkpoint-out": args.checkpoint_out, "--log-out": log_path},
                     {"--dataset": args.dataset, "the --dataset vocabulary": f"{args.dataset}.vocab",
                      "--resume": args.resume},
                     may_replace=[("--checkpoint-out", "--resume")])
    ds = corpus.load_dataset(args.dataset)
    resume = trainer.load_checkpoint(args.resume) if args.resume else None
    if resume:
        # a resumed run takes its model settings and seed from the checkpoint
        tc = replace(tc, hp=resume.hp, seed=resume.rng_seed)

    result = trainer.train(ds, tc, resume=resume)
    trainer.save_checkpoint(args.checkpoint_out, result.checkpoint)

    provenance = _provenance("train", tc.hp, tc, dataset=str(args.dataset), resumed_from=args.resume,
                             machine=_machine())
    with open(log_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"provenance": provenance}, sort_keys=True) + "\n")
        for log in result.epoch_logs:
            fh.write(json.dumps(asdict(log), sort_keys=True) + "\n")

    print(f"config: d={tc.hp.d} batch={tc.batch_size} lr0={tc.lr0} "
          f"variant={tc.hp.variant} loss={tc.hp.loss_variant} epochs={tc.epochs} seed={tc.seed}")
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
    ks = _parse_ks(args.ks)
    _prepare_outputs({"--out": args.out},
                     {"--dataset": args.dataset, "the --dataset vocabulary": f"{args.dataset}.vocab",
                      "--checkpoint": args.checkpoint})
    ds = corpus.load_dataset(args.dataset)
    examples = ds.train if args.split == "train" else ds.test
    if not examples:
        raise DataError(f"dataset has no {args.split} examples")

    if args.baseline == "pop":
        report = evaluation.pop_baseline(ds.train, examples, ds.num_items, ks=ks)
        source, model = "baseline:pop", ()
    else:
        ckpt = trainer.load_checkpoint(args.checkpoint)
        if ckpt.num_items != ds.num_items:
            raise DataError(
                f"checkpoint has {ckpt.num_items} items but dataset has {ds.num_items}; "
                "they do not belong together")
        report = evaluation.evaluate_model(ckpt.params, ckpt.hp, examples, ks=ks)
        source, model = str(args.checkpoint), (ckpt.hp,)

    buckets = evaluation.BUCKETS if args.split_length else ("all",)
    if args.out:
        provenance = _provenance("evaluate", *model, dataset=str(args.dataset), source=source,
                                 split=args.split, ks=list(ks), machine=_machine())
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
    trace = forward_batch([corpus.PrefixExample(prefix, 0)], ckpt.params, ckpt.hp)
    top = evaluation.rank_topk(trace.logits[0], args.k)     # as evaluate ranks: probabilities can round equal
    for index in top:
        print(f"{vocab.index_to_raw[int(index)]}\t{trace.probs[0, int(index)]:.6g}")
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
    spec = _settings(args, synth.SynthSpec)
    out = Path(args.out)
    _prepare_outputs({"--out": out}, {})
    sessions = synth.generate_sessions(spec)
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
    _add_field_flags(p, corpus.PreprocessConfig)
    p.add_argument("--dump-graphs", action="store_true", help="also write per-example session graphs")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model on a processed dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint-out", required=True)
    p.add_argument("--log-out")
    p.add_argument("--resume", help="checkpoint to continue from")
    _add_field_flags(p, HyperParams)
    _add_field_flags(p, trainer.TrainConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="rank metrics for a checkpoint or baseline")
    p.add_argument("--dataset", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--checkpoint")
    source.add_argument("--baseline", choices=["pop"])
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
    _add_field_flags(p, synth.SynthSpec)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.config_keys = config_mod.load_config_file(args.config)
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
