"""Click-log ingestion: parsing, sessionization, filtering, splitting.

``preprocess`` turns a raw delimited click log into a ProcessedDataset:
integer-indexed sessions over a contiguous item vocabulary, and the
(prefix, label) examples expanded from them.  It runs these stages with
the settings of one PreprocessConfig, the log's column layout included:

    parse_click_log -> sessionize_and_filter -> time_split
        -> take_recent_fraction (train side) -> build_vocab_and_reindex

A parsed log is columnar (ClickColumns): three int64 columns with one
entry per click in file order (session code, epoch ms, item code), where
a code indexes the raw ids ``session_ids``/``item_ids``, each interned
in first-seen order.  sessionize_and_filter works on the columns and
builds Session lists of raw ids only for the sessions that survive.

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

import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ConfigError, DataError

DATASET_FORMAT = "casif-dataset"
DATASET_VERSION = 2


@dataclass
class Session:
    items: list         # raw item_id strings; reindexed sessions are int lists in ProcessedDataset
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
        index_to_raw = list(dict.fromkeys(item for sess in sessions for item in sess.items))
        return cls({item: i for i, item in enumerate(index_to_raw)}, index_to_raw)


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
        self.train = [ex for items in self.train_sessions for ex in expand_prefixes(items)]
        self.test = [ex for items in self.test_sessions for ex in expand_prefixes(items)]

    @property
    def num_items(self) -> int:
        return len(self.vocab)


@dataclass
class PreprocessConfig:
    """Settings of preprocess: the click log's column layout, then the recipe's filters and split."""
    delimiter: str = ","
    has_header: bool = False
    session_col: int = 0
    time_col: int = 1
    item_col: int = 2
    min_item_support: int = 5
    min_session_len: int = 2
    max_session_len: int = 50
    test_window_ms: int = 86_400_000    # hold out the trailing day by default
    split_ts: int | None = None         # absolute override of the time split
    fraction: str | int | float = "1"   # most-recent fraction of train sessions kept
    strict_parse: bool = False          # abort on the first malformed line instead of skipping it

    def __post_init__(self):
        if not self.delimiter:
            raise ConfigError("delimiter must not be empty")
        key_of = {}
        for key in ("session_col", "time_col", "item_col"):
            col = getattr(self, key)
            if col < 0:
                raise ConfigError(f"{key} must be >= 0, got {col}")
            if col in key_of:
                raise ConfigError(f"{key} must differ from {key_of[col]}, both are {col}")
            key_of[col] = key
        _check_session_lengths(self.min_session_len, self.max_session_len)
        if self.max_session_len == 1:   # a one-click session gives no example
            raise ConfigError("max_session_len must be 0 (no cap) or >= 2, got 1")
        if self.test_window_ms < 0:
            raise ConfigError(f"test_window_ms must be >= 0, got {self.test_window_ms}")
        _as_fraction(self.fraction)


def _check_session_lengths(min_session_len: int, max_session_len: int) -> None:
    if min_session_len < 1:
        raise ConfigError(f"min_session_len must be >= 1, got {min_session_len}")
    if max_session_len < 0:
        raise ConfigError(f"max_session_len must be >= 0 (0: no cap), got {max_session_len}")


@dataclass
class ClickColumns:
    """Clicks in file order as three int64 columns; a code indexes its raw-id list."""
    session: np.ndarray         # session code of each click
    time: np.ndarray            # epoch milliseconds of each click
    item: np.ndarray            # item code of each click
    session_ids: list[str]      # raw session ids, in first-seen order
    item_ids: list[str]         # raw item ids, in first-seen order

    def __len__(self) -> int:
        return len(self.time)


@dataclass
class ParsedLog:
    events: ClickColumns
    skipped: int = 0


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


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
    return (dt - _EPOCH) // timedelta(milliseconds=1)     # exact, even where UTC leaves datetime's range


# the lone surrogates that errors="surrogateescape" decodes bytes that are not UTF-8 to
_UNDECODED = re.compile("[\udc80-\udcff]")
_TIMESTAMP_LIMIT = 1 << 63     # the first epoch ms an int64 column cannot hold


def parse_click_log(stream, settings: PreprocessConfig | None = None) -> ParsedLog:
    """Parse delimited click-log lines, laid out as ``settings`` says, into columns, in file order.

    Malformed lines are skipped and counted; with strict_parse the first
    one aborts with its line number.  A line holding bytes that are not
    UTF-8, read with errors="surrogateescape", is malformed, and so is a
    timestamp of 2**63 ms or later, which an int64 column cannot hold.
    """
    settings = settings or PreprocessConfig()
    need = max(settings.session_col, settings.time_col, settings.item_col) + 1
    skipped = 0
    session_code: dict[str, int] = {}
    item_code: dict[str, int] = {}
    columns = [], [], []    # list.append is about twice as fast as array("q").append
    add_session, add_time, add_item = (column.append for column in columns)
    for lineno, line in enumerate(stream, start=1):
        if settings.has_header and lineno == 1:
            continue
        line = line.rstrip("\r\n")
        if not line:
            continue
        try:
            if not line.isascii() and _UNDECODED.search(line):
                raise ValueError("not UTF-8 text")
            parts = line.split(settings.delimiter)
            if len(parts) < need:
                raise ValueError(f"expected at least {need} fields, got {len(parts)}")
            session_id = parts[settings.session_col].strip()
            item_id = parts[settings.item_col].strip()
            if not session_id or not item_id:
                raise ValueError("empty session or item id")
            ts = parse_timestamp_ms(parts[settings.time_col])
            if not 0 <= ts < _TIMESTAMP_LIMIT:
                raise ValueError(f"negative timestamp {ts}" if ts < 0 else "timestamp out of range")
        except ValueError as exc:
            if settings.strict_parse:
                raise DataError(f"line {lineno}: {exc}") from exc
            skipped += 1
            continue
        add_session(session_code.setdefault(session_id, len(session_code)))
        add_time(ts)
        add_item(item_code.setdefault(item_id, len(item_code)))
    session, time, item = (np.array(column, dtype=np.int64) for column in columns)
    return ParsedLog(ClickColumns(session, time, item, list(session_code), list(item_code)), skipped)


def sessionize_and_filter(
    events: ClickColumns,
    min_item_support: int = PreprocessConfig.min_item_support,
    min_session_len: int = PreprocessConfig.min_session_len,
    max_session_len: int = PreprocessConfig.max_session_len,
) -> list[Session]:
    """Group clicks into sessions and apply the support/length filters.

    Clicks are grouped by session id and ordered by timestamp (ties keep
    file order); items whose total occurrence count across the corpus is
    below min_item_support are removed from every session; sessions then
    shorter than min_session_len are dropped, and survivors are truncated
    to their most recent max_session_len clicks.  Output is ordered by
    session start time, ties in first-seen order of the session ids.  A
    max_session_len of 0 keeps every click.
    """
    _check_session_lengths(min_session_len, max_session_len)
    num_sessions = len(events.session_ids)
    # stable: sessions in code (first-seen) order, each in timestamp order, ties in file order
    order = np.lexsort((events.time, events.session))
    length = np.bincount(events.session, minlength=num_sessions)
    start = events.time[order[np.cumsum(length) - length]]     # each session's first click
    session, item = events.session[order], events.item[order]
    del order       # 8 bytes a click, not needed past here

    support = np.bincount(events.item, minlength=len(events.item_ids))
    keep = support[item] >= min_item_support
    session, item = session[keep], item[keep]
    length = np.bincount(session, minlength=num_sessions)
    alive = length >= min_session_len
    keep = alive[session]
    if max_session_len:
        # clicks from each one to its session's end, itself included
        keep &= np.cumsum(length)[session] - np.arange(len(session)) <= max_session_len
    session, item = session[keep], item[keep]
    length = np.bincount(session, minlength=num_sessions)
    end = np.cumsum(length)
    first, end = (end - length).tolist(), end.tolist()

    survivors = np.flatnonzero(alive)
    survivors = survivors[np.argsort(start[survivors], kind="stable")].tolist()
    raw = np.array(events.item_ids, dtype=object)[item].tolist()
    start = start.tolist()
    return [Session(raw[first[s]:end[s]], start[s]) for s in survivors]


def time_split(sessions, split_ts: int):
    """Partition sessions into (start < split_ts) and the rest, order kept."""
    train = [s for s in sessions if s.start_time < split_ts]
    test = [s for s in sessions if s.start_time >= split_ts]
    return train, test


def take_recent_fraction(train, fraction) -> list[Session]:
    """Keep the last ceil(fraction * n) sessions of a start-time-sorted list."""
    frac = _as_fraction(fraction)
    n = len(train)
    count = -(-n * frac.numerator // frac.denominator)  # exact ceiling
    return list(train[n - count:])


def _as_fraction(fraction) -> Fraction:
    """A Fraction, int, float or string such as "1/64" as an exact fraction in (0, 1]."""
    try:
        frac = Fraction(fraction)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"cannot interpret fraction {fraction!r}") from exc
    if isinstance(fraction, float):
        # floats arrive from config files; snap away binary noise like 0.1*10 -> 1.0000000000000002
        frac = frac.limit_denominator(10**9)
    if not 0 < frac <= 1:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    return frac


def expand_prefixes(items) -> list[PrefixExample]:
    """All (items[:k], items[k]) pairs for k = 1 .. n-1; empty when n < 2."""
    items = list(items)     # a list, so each slice is a new list
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


def preprocess(lines, settings: PreprocessConfig | None = None,
               provenance: dict | None = None) -> tuple[ProcessedDataset, int]:
    """The preprocessing recipe: click-log lines to a dataset, and the count of skipped lines.

    Sessions starting at or after split_ts test; without one, those starting
    within test_window_ms of the latest start (the latest included) test.
    The dataset's provenance is ``provenance`` plus the split_ts used.
    """
    settings = settings or PreprocessConfig()
    parsed = parse_click_log(lines, settings)
    sessions = sessionize_and_filter(parsed.events, settings.min_item_support,
                                     settings.min_session_len, settings.max_session_len)
    if not sessions:
        raise DataError("no sessions survive filtering")
    split_ts = settings.split_ts
    if split_ts is None:
        split_ts = max(s.start_time for s in sessions) - settings.test_window_ms + 1
    train, test = time_split(sessions, split_ts)
    train = take_recent_fraction(train, settings.fraction)
    ds = build_vocab_and_reindex(train, test, {**(provenance or {}), "split_ts": split_ts})
    return ds, parsed.skipped


def persist_dataset(ds: ProcessedDataset, path) -> None:
    """Write a dataset as JSON lines, plus its vocabulary beside it.

    Line 1 is a header record; every following line is one session,
    {"items": [...], "split": "train"|"test"}: train sessions first, then
    test, each in dataset order.  The vocabulary goes to path + '.vocab',
    one {"index", "raw"} record per line.
    """
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "format": DATASET_FORMAT,
            "version": DATASET_VERSION,
            "num_items": ds.num_items,
            "provenance": ds.provenance,
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        # the bytes json.dumps(record, sort_keys=True) gives, written from templates
        for split, sessions in (("train", ds.train_sessions), ("test", ds.test_sessions)):
            tail = f'], "split": "{split}"}}\n'
            fh.writelines('{"items": [' + ", ".join(map(str, items)) + tail for items in sessions)
    with open(f"{path}.vocab", "w", encoding="utf-8") as fh:
        fh.writelines(f'{{"index": {index}, "raw": {encode_basestring_ascii(raw)}}}\n'
                      for index, raw in enumerate(ds.vocab.index_to_raw))


def load_dataset(path) -> ProcessedDataset:
    """Inverse of persist_dataset; validates the header and every session.

    A session must be a list of at least two integer item indices in
    [0, num_items), and its split "train" or "test".  Anything else, or a
    header of another format or version, is a DataError naming the file
    and line.
    """
    with open(path, "rb") as fh:    # bytes, decoded line by line, so bad UTF-8 names its line
        header = _json_line(fh.readline(), path, 1)
        if not isinstance(header, dict) or header.get("format") != DATASET_FORMAT:
            raise DataError(f"{path}: not a {DATASET_FORMAT} file")
        if header.get("version") != DATASET_VERSION:
            raise DataError(f"{path}: unsupported version {header.get('version')!r}")
        num_items = header.get("num_items")
        if type(num_items) is not int or num_items < 1:
            raise DataError(f"{path}: line 1: num_items must be a positive integer, got {num_items!r}")
        splits: dict[str, list[list[int]]] = {"train": [], "test": []}
        for lineno, items, split in _json_records(fh, path, 2, "items", "split"):
            if split not in ("train", "test"):
                raise DataError(f"{path}: line {lineno}: unknown split {split!r}")
            if type(items) is not list or len(items) < 2 or not all(type(i) is int for i in items):
                raise DataError(f"{path}: line {lineno}: malformed record: "
                                "items must be a list of at least 2 integers")
            if min(items) < 0 or max(items) >= num_items:
                raise DataError(f"{path}: line {lineno}: item index out of range [0, {num_items})")
            splits[split].append(items)

    vocab = load_vocab(f"{path}.vocab", num_items)
    return ProcessedDataset(splits["train"], splits["test"], vocab, header.get("provenance", {}))


def _json_line(line: bytes, path, lineno: int):
    """The JSON value on one line of a file; a DataError naming the file and line if there is none."""
    try:
        return json.loads(line.decode("utf-8"))     # json.loads(bytes) would detect the encoding: slower
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: line {lineno}: malformed record: not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:     # RecursionError: nested too deeply to parse
        raise DataError(f"{path}: line {lineno}: malformed record: {exc}") from exc


def _json_records(lines, path, start: int, first: str, second: str):
    """(line number, record[first], record[second]) for each non-blank line, numbered from
    ``start``; a line that is not such a record is a DataError naming the file and line."""
    for lineno, line in enumerate(lines, start=start):
        if not line.strip():
            continue
        rec = _json_line(line, path, lineno)
        try:
            values = rec[first], rec[second]
        except (KeyError, TypeError) as exc:
            raise DataError(f"{path}: line {lineno}: malformed record: {exc}") from exc
        yield lineno, *values


def load_vocab(path, num_items: int) -> ItemVocabulary:
    """Read a vocabulary file that lists each index 0 .. num_items-1 exactly once.

    Every line is a {"index": int, "raw": str} record; blank lines are
    skipped.  Any other content is a DataError naming the file and line.
    """
    raw_of: dict[int, str] = {}
    raw_to_index: dict[str, int] = {}
    with open(path, "rb") as fh:
        for lineno, raw, index in _json_records(fh, path, 1, "raw", "index"):
            if type(raw) is not str or type(index) is not int:
                raise DataError(f"{path}: line {lineno}: malformed record: "
                                "raw must be a string, index an integer")
            if not 0 <= index < num_items:
                raise DataError(f"{path}: line {lineno}: index {index} out of range [0, {num_items})")
            if index in raw_of:
                raise DataError(f"{path}: line {lineno}: index {index} listed twice")
            if raw in raw_to_index:
                raise DataError(f"{path}: line {lineno}: raw id {raw!r} listed twice")
            raw_of[index] = raw
            raw_to_index[raw] = index
    # every index is in range and listed once, so a full count lists them all
    if len(raw_of) != num_items:
        raise DataError(f"{path}: {len(raw_of)} entries for {num_items} items")
    return ItemVocabulary(raw_to_index, [raw_of[i] for i in range(num_items)])
