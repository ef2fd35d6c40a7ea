"""Session-based next-item recommendation with attention over session graphs.

The pipeline: raw click logs are parsed, filtered and split into prefix
examples (`corpus`); each prefix becomes a small directed graph (`graph`);
a gated propagation network plus interest attention scores every candidate
item (`model`); `trainer` fits the parameters with Adam and writes binary
checkpoints; `evaluation` reports Recall@k / MRR@k; `synth` generates toy
click logs; `cli` ties it together as a command-line tool.
"""

import ctypes

from .config import DEFAULTS, effective_config, hyper_params, preprocess_config, train_config
from .corpus import (
    ClickEvent,
    ItemVocabulary,
    LogFormat,
    PrefixExample,
    PreprocessConfig,
    ProcessedDataset,
    Session,
    build_vocab_and_reindex,
    expand_prefixes,
    load_dataset,
    load_vocab,
    parse_click_log,
    parse_timestamp_ms,
    persist_dataset,
    preprocess,
    sessionize_and_filter,
    take_recent_fraction,
    time_split,
)
from .errors import ConfigError, DataError, VerificationError
from .evaluation import (
    MetricsReport,
    evaluate_model,
    label_rank,
    pop_baseline,
    popularity_scores,
    rank_topk,
)
from .graph import SessionGraph, build_session_graph
from .model import (
    ForwardTrace,
    HyperParams,
    ModelParams,
    backward,
    backward_batch,
    finite_difference_grad,
    forward,
    forward_batch,
    init_params,
    loss,
    run_gradient_check,
)
from .rng import SplitMix64, substream_seed
from .synth import SynthSpec, generate_sessions, write_click_log
from .trainer import (
    AdamState,
    Checkpoint,
    TrainConfig,
    TrainResult,
    TrainingError,
    adam_step,
    load_checkpoint,
    lr_for_epoch,
    make_batches,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

_M_TRIM_THRESHOLD = -1      # glibc <malloc.h>
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Have glibc keep freed memory in the heap for the next sub-batch to reuse.

    By default glibc gives each freed array above its mmap threshold, and
    free space at the heap top, back to the kernel, so every sub-batch
    page-faults its score rows and activations in again as fresh zeroed
    pages.  Arrays up to 32 MiB (the 64-bit maximum) now come from the heap,
    which is trimmed only past 256 MiB free; setting either value also turns
    off glibc's dynamic threshold.  Process-wide.  Without ``mallopt`` (macOS,
    Windows) nothing is done, and musl's returns 0.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_heap()
