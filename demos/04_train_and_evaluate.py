"""
Training on a synthetic corpus and reading the metrics
======================================================

Generates a Markov-flavored click corpus, pushes it through the standard
preprocessing pipeline, trains for a few epochs, and compares the model
against the popularity baseline with recall@k and mrr@k, including the
short/long session breakdown.
"""

import io
import time

from casif import (
    HyperParams,
    SynthSpec,
    TrainConfig,
    evaluate_model,
    generate_sessions,
    pop_baseline,
    preprocess,
    train,
    write_click_log,
)

# Each synthetic item prefers a couple of successors, so there is real
# sequence structure to learn, unlike a uniform shuffle.
spec = SynthSpec(num_items=30, num_sessions=2500, min_len=2, max_len=8,
                 mode="markov", seed=7)
buf = io.StringIO()
write_click_log(generate_sessions(spec), buf)
buf.seek(0)

# the default settings: items clicked at least 5 times, sessions of 2 or
# more clicks, and the sessions that start in the last day test
ds, _ = preprocess(buf)
print(f"{len(ds.train)} training examples, {len(ds.test)} test examples, "
      f"{ds.num_items} items")

hp = HyperParams(d=24)
cfg = TrainConfig(epochs=4, hp=hp, seed=0)
t0 = time.monotonic()
result = train(ds, cfg)
print(f"\ntrained {cfg.epochs} epochs in {time.monotonic() - t0:.1f}s")
for log in result.epoch_logs:
    print(f"  epoch {log.epoch}: lr {log.lr:.4g}, mean loss {log.mean_loss:.4f}")

ks = (1, 5, 10, 20)
model_report = evaluate_model(result.params, hp, ds.test, ks=ks)
pop_report = pop_baseline(ds.train, ds.test, ds.num_items, ks=ks)

print(f"\n{'k':>4} {'recall':>8} {'mrr':>8}   {'pop recall':>10} {'pop mrr':>8}")
for k in ks:
    print(f"{k:>4} {model_report.recall(k):>8.4f} {model_report.mrr(k):>8.4f}   "
          f"{pop_report.recall(k):>10.4f} {pop_report.mrr(k):>8.4f}")

# Prefixes of five clicks or fewer count as short; the rest as long.
# Longer histories give the attention more to work with.
print("\nby prefix length (k=20):")
for bucket in ("short", "long"):
    print(f"  {bucket:<6} n={model_report.n(bucket):<5} "
          f"recall {model_report.recall(20, bucket):.4f}  "
          f"mrr {model_report.mrr(20, bucket):.4f}")
