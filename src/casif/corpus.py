"""Click-log ingestion: parsing, sessionization, filtering, splitting.

The pipeline turns a raw delimited click log into a ProcessedDataset:
integer-indexed sessions over a contiguous item vocabulary, and the
(prefix, label) examples expanded from them:

    parse_click_log -> sessionize_and_filter -> time_split
        -> take_recent_fraction (train side) -> build_vocab_and_reindex

The dataset file (persist_dataset, load_dataset) holds the sessions, one
per line; the examples are expanded again when it is loaded.

Filtering is single-pass: item support is counted once over the whole
sessionized corpus (occurrences, repeats included), low-support items are
removed from every session, and only then are short sessions dropped.
The vocabulary is built from the training split alone; test items that
never occur in training are removed, and test sessions left with fewer
than two items are dropped.
"""

from __future__ import annotations

import calendar
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction

from .errors import ConfigError, DataError

DATASET_FORMAT = "casif-dataset"
DATASET_VERSION = 2


@dataclass
class ClickEvent:
    session_id: str
    timestamp: int      # milliseconds since epoch
    item_id: str


@dataclass
class Session:
    items: list         # raw item_id strings before reindexing, ints after
    start_time: int = 0


@dataclass
class PrefixExample:
    prefix: list[int]
    label: int


@dataclass
class ItemVocabulary:
    raw_to_index: dict[str, int]
    index_to_raw: list[str]

    def __len__(self) -> int:
        return len(self.index_to_raw)

    @classmethod
    def from_sessions(cls, sessions) -> "ItemVocabulary":
        raw_to_index: dict[str, int] = {}
        index_to_raw: list[str] = []
        for sess in sessions:
            for item in sess.items:
                if item not in raw_to_index:
                    raw_to_index[item] = len(index_to_raw)
                    index_to_raw.append(item)
        return cls(raw_to_index, index_to_raw)


@dataclass
class ProcessedDataset:
    """Integer sessions per split; ``train`` and ``test`` are their expanded examples, in order."""
    train_sessions: list[list[int]]
    test_sessions: list[list[int]]
    vocab: ItemVocabulary
    provenance: dict = field(default_factory=dict)
    train: list[PrefixExample] = field(init=False, repr=False)
    test: list[PrefixExample] = field(init=False, repr=False)

    def __post_init__(self):
        self.train = [ex for items in self.train_sessions for ex in expand_prefixes(Session(items))]
        self.test = [ex for items in self.test_sessions for ex in expand_prefixes(Session(items))]

    @property
    def num_items(self) -> int:
        return len(self.vocab)


@dataclass
class LogFormat:
    """Column layout of a raw click log."""
    delimiter: str = ","
    has_header: bool = False
    session_col: int = 0
    time_col: int = 1
    item_col: int = 2

    def __post_init__(self):
        if not self.delimiter:
            raise ConfigError("delimiter must not be empty")
        for key in ("session_col", "time_col", "item_col"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")


@dataclass
class ParsedLog:
    events: list[ClickEvent]
    skipped: int = 0


def parse_timestamp_ms(text: str) -> int:
    """Epoch milliseconds from an integer or an ISO-8601 timestamp.

    Bare integers are taken as epoch ms.  ISO strings may end in 'Z' or
    carry an explicit offset; naive ones are read as UTC.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty timestamp")
    stripped = text[1:] if text[0] in "+-" else text
    if stripped.isdigit():
        return int(text)
    iso = text[:-1] + "+00:00" if text.endswith("Z") else text
    dt = datetime.fromisoformat(iso)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    utc = dt.astimezone(timezone.utc)
    ms = calendar.timegm(utc.timetuple()) * 1000 + utc.microsecond // 1000
    return ms


def parse_click_log(stream, fmt: LogFormat | None = None, strict: bool = False) -> ParsedLog:
    """Parse delimited click-log lines into events, in file order.

    Malformed lines are skipped and counted; with strict=True the first
    one aborts with its line number.
    """
    fmt = fmt or LogFormat()
    need = max(fmt.session_col, fmt.time_col, fmt.item_col) + 1
    events: list[ClickEvent] = []
    skipped = 0
    for lineno, line in enumerate(stream, start=1):
        if fmt.has_header and lineno == 1:
            continue
        line = line.rstrip("\r\n")
        if not line:
            continue
        parts = line.split(fmt.delimiter)
        try:
            if len(parts) < need:
                raise ValueError(f"expected at least {need} fields, got {len(parts)}")
            session_id = parts[fmt.session_col].strip()
            item_id = parts[fmt.item_col].strip()
            if not session_id or not item_id:
                raise ValueError("empty session or item id")
            ts = parse_timestamp_ms(parts[fmt.time_col])
            if ts < 0:
                raise ValueError(f"negative timestamp {ts}")
        except ValueError as exc:
            if strict:
                raise DataError(f"line {lineno}: {exc}") from exc
            skipped += 1
            continue
        events.append(ClickEvent(session_id, ts, item_id))
    return ParsedLog(events, skipped)


def sessionize_and_filter(
    events,
    min_item_support: int = 5,
    min_session_len: int = 2,
    max_session_len: int = 50,
) -> list[Session]:
    """Group events into sessions and apply the support/length filters.

    Clicks are grouped by session id and ordered by timestamp (ties keep
    file order); items whose total occurrence count across the corpus is
    below min_item_support are removed from every session; sessions then
    shorter than min_session_len are dropped, and survivors are truncated
    to their most recent max_session_len clicks.  Output is ordered by
    session start time.  A max_session_len of 0 keeps every click.
    """
    if min_session_len < 1:
        raise ConfigError(f"min_session_len must be >= 1, got {min_session_len}")
    if max_session_len < 0:
        raise ConfigError(f"max_session_len must be >= 0 (0: no cap), got {max_session_len}")
    by_session: dict[str, list[ClickEvent]] = {}
    for ev in events:
        by_session.setdefault(ev.session_id, []).append(ev)

    ordered: list[tuple[int, list]] = []
    support: dict[str, int] = {}
    for clicks in by_session.values():
        clicks.sort(key=lambda ev: ev.timestamp)  # stable: ties keep file order
        items = [ev.item_id for ev in clicks]
        ordered.append((clicks[0].timestamp, items))
        for item in items:
            support[item] = support.get(item, 0) + 1

    kept: list[Session] = []
    for start, items in ordered:
        items = [it for it in items if support[it] >= min_item_support]
        if len(items) < min_session_len:
            continue
        if max_session_len and len(items) > max_session_len:
            items = items[-max_session_len:]
        kept.append(Session(items=items, start_time=start))
    kept.sort(key=lambda s: s.start_time)  # stable: ties keep grouping order
    return kept


def time_split(sessions, split_ts: int):
    """Partition sessions into (start < split_ts) and the rest, order kept."""
    train = [s for s in sessions if s.start_time < split_ts]
    test = [s for s in sessions if s.start_time >= split_ts]
    return train, test


def take_recent_fraction(train, fraction) -> list[Session]:
    """Keep the last ceil(fraction * n) sessions of a start-time-sorted list."""
    frac = _as_fraction(fraction)
    if frac <= 0 or frac > 1:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    n = len(train)
    count = -(-n * frac.numerator // frac.denominator)  # exact ceiling
    return list(train[n - count:])


def _as_fraction(fraction) -> Fraction:
    if isinstance(fraction, Fraction):
        return fraction
    if isinstance(fraction, int):
        return Fraction(fraction)
    if isinstance(fraction, str):
        try:
            return Fraction(fraction)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot interpret fraction {fraction!r}") from exc
    if isinstance(fraction, float):
        if not math.isfinite(fraction):
            raise ConfigError(f"fraction must be finite, got {fraction}")
        # floats arrive from config files; snap away binary noise like 0.1*10 -> 1.0000000000000002
        return Fraction(fraction).limit_denominator(10**9)
    raise ConfigError(f"cannot interpret fraction {fraction!r}")


def expand_prefixes(session: Session) -> list[PrefixExample]:
    """All (items[:k], items[k]) pairs for k = 1 .. n-1; empty when n < 2."""
    items = list(session.items)     # a list, so each slice is a new list
    return [PrefixExample(items[:k], items[k]) for k in range(1, len(items))]


def build_vocab_and_reindex(train_sessions, test_sessions, provenance: dict | None = None) -> ProcessedDataset:
    """Index items from the training split and reindex both splits.

    Vocabulary order is first occurrence in training, over every training
    session.  Test items missing from the vocabulary are removed.  Then
    sessions shorter than two, which give no example, are dropped from
    both splits, so every kept session is one load_dataset accepts.
    """
    if not train_sessions:
        raise DataError("cannot build a dataset from an empty training split")
    vocab = ItemVocabulary.from_sessions(train_sessions)
    index = vocab.raw_to_index
    train = [[index[it] for it in s.items] for s in train_sessions if len(s.items) >= 2]
    if not train:
        raise DataError("no training session has two or more items")
    test = []
    for s in test_sessions:
        items = [index[it] for it in s.items if it in index]
        if len(items) >= 2:
            test.append(items)
    return ProcessedDataset(train, test, vocab, provenance or {})


def persist_dataset(ds: ProcessedDataset, path) -> None:
    """Write a dataset as JSON lines, plus its vocabulary beside it.

    Line 1 is a header record; every following line is one session,
    {"items": [...], "split": "train"|"test"}: train sessions first, then
    test, each in dataset order.  The vocabulary goes to path + '.vocab',
    one {"raw", "index"} record per line.
    """
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "format": DATASET_FORMAT,
            "version": DATASET_VERSION,
            "num_items": ds.num_items,
            "provenance": ds.provenance,
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for split, sessions in (("train", ds.train_sessions), ("test", ds.test_sessions)):
            for items in sessions:
                fh.write(json.dumps({"items": items, "split": split}, sort_keys=True) + "\n")
    with open(f"{path}.vocab", "w", encoding="utf-8") as fh:
        for index, raw in enumerate(ds.vocab.index_to_raw):
            fh.write(json.dumps({"raw": raw, "index": index}, sort_keys=True) + "\n")


def load_dataset(path) -> ProcessedDataset:
    """Inverse of persist_dataset; validates the header and every session.

    A session must be a list of at least two integer item indices in
    [0, num_items), and its split "train" or "test".  Anything else, or a
    header of another format or version, is a DataError naming the file
    and line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header_line = fh.readline()
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: line 1: not a JSON header: {exc}") from exc
            if not isinstance(header, dict) or header.get("format") != DATASET_FORMAT:
                raise DataError(f"{path}: not a {DATASET_FORMAT} file")
            if header.get("version") != DATASET_VERSION:
                raise DataError(f"{path}: unsupported version {header.get('version')!r}")
            num_items = header.get("num_items")
            if not isinstance(num_items, int) or isinstance(num_items, bool) or num_items < 1:
                raise DataError(f"{path}: line 1: num_items must be a positive integer, got {num_items!r}")
            splits: dict[str, list[list[int]]] = {"train": [], "test": []}
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    items, split = rec["items"], rec["split"]
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise DataError(f"{path}: line {lineno}: malformed record: {exc}") from exc
                if split not in ("train", "test"):
                    raise DataError(f"{path}: line {lineno}: unknown split {split!r}")
                if type(items) is not list or len(items) < 2 or not all(type(i) is int for i in items):
                    raise DataError(f"{path}: line {lineno}: malformed record: "
                                    "items must be a list of at least 2 integers")
                if min(items) < 0 or max(items) >= num_items:
                    raise DataError(f"{path}: line {lineno}: item index out of range [0, {num_items})")
                splits[split].append(items)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc

    vocab = load_vocab(f"{path}.vocab", num_items)
    return ProcessedDataset(splits["train"], splits["test"], vocab, header.get("provenance", {}))


def load_vocab(path, num_items: int) -> ItemVocabulary:
    """Read a vocabulary file that lists each index 0 .. num_items-1 exactly once.

    Every line is a {"raw": str, "index": int} record; blank lines are
    skipped.  Any other content is a DataError naming the file and line.
    """
    index_to_raw: list = [None] * num_items
    raw_to_index: dict[str, int] = {}
    with open(path, "rb") as fh:    # bytes: json.loads decodes, so bad UTF-8 names its line
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                rec = json.loads(line)
                raw, index = rec["raw"], rec["index"]
            except (ValueError, KeyError, TypeError) as exc:
                raise DataError(f"{where}: malformed record: {exc}") from exc
            if not isinstance(raw, str) or not isinstance(index, int) or isinstance(index, bool):
                raise DataError(f"{where}: malformed record: raw must be a string, index an integer")
            if not 0 <= index < num_items:
                raise DataError(f"{where}: index {index} out of range [0, {num_items})")
            if index_to_raw[index] is not None:
                raise DataError(f"{where}: index {index} listed twice")
            if raw in raw_to_index:
                raise DataError(f"{where}: raw id {raw!r} listed twice")
            index_to_raw[index] = raw
            raw_to_index[raw] = index
    if len(raw_to_index) != num_items:
        raise DataError(f"{path}: {len(raw_to_index)} entries for {num_items} items")
    return ItemVocabulary(raw_to_index, index_to_raw)
