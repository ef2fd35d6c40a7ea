"""The benchmark's workloads: what each one generates, ingests and trains.

Every workload is a markov synthetic click log (casif.synth) pushed
through the whole pipeline.  Each is chosen so that a different layer
dominates; README.md gives the reasoning and the layer each one exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    # click log (casif.synth.SynthSpec, markov mode)
    num_items: int
    num_sessions: int
    min_len: int
    max_len: int
    branching: int
    # preprocessing
    min_item_support: int
    test_share: float            # trailing share of sessions held out by start time
    # model and training
    d: int
    variant: str
    loss_variant: str
    gnn_steps: int
    epochs: int
    lr0: float
    batch_size: int
    # per round
    checkpoint_repeats: int = 20
    probe_examples: int = 200    # examples per traced layer probe


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="wide-catalog", num_items=3500, num_sessions=1400, min_len=2, max_len=8,
            branching=1, min_item_support=2, test_share=0.5,
            d=32, variant="casif", loss_variant="eq13", gnn_steps=1,
            epochs=3, lr0=0.03, batch_size=64,
        ),
        Workload(
            name="long-sessions", num_items=200, num_sessions=300, min_len=10, max_len=50,
            branching=3, min_item_support=5, test_share=0.5,
            d=32, variant="casif", loss_variant="eq13", gnn_steps=1,
            epochs=1, lr0=0.03, batch_size=64,
        ),
        Workload(
            name="simplified-2step", num_items=200, num_sessions=1000, min_len=2, max_len=8,
            branching=2, min_item_support=5, test_share=0.4,
            d=32, variant="casif_s", loss_variant="softmax_ce", gnn_steps=2,
            epochs=3, lr0=0.01, batch_size=64,
        ),
    )
}

# Reduced inputs for the benchmark's own tests: every check still runs and passes.
SMALL = {
    "wide-catalog": dict(num_items=1000, num_sessions=300),
    "long-sessions": dict(num_items=200, num_sessions=80, epochs=2),
    "simplified-2step": dict(),   # casif_s needs the full log to clear the popularity check
}


def get(name: str, size: str = "full") -> Workload:
    workload = WORKLOADS[name]
    if size == "small":
        workload = replace(workload, checkpoint_repeats=3,
                           probe_examples=20, **SMALL[name])
    return workload
