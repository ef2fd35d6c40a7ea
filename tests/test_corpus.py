import io
import json
from fractions import Fraction

import pytest

from casif import (
    ClickEvent,
    DataError,
    HyperParams,
    LogFormat,
    PrefixExample,
    PreprocessConfig,
    Session,
    SynthSpec,
    TrainConfig,
    build_vocab_and_reindex,
    expand_prefixes,
    generate_sessions,
    load_dataset,
    load_vocab,
    parse_click_log,
    parse_timestamp_ms,
    persist_dataset,
    preprocess,
    save_checkpoint,
    sessionize_and_filter,
    take_recent_fraction,
    time_split,
    train,
)
from casif.errors import ConfigError
from test_cli import corrupt_vocab


def ev(sess, ts, item):
    return ClickEvent(sess, ts, item)


class TestTimestampParsing:
    def test_epoch_ms_passthrough(self):
        assert parse_timestamp_ms("1396867869277") == 1396867869277
        assert parse_timestamp_ms("0") == 0

    def test_iso_zulu_matches_calendar_oracle(self):
        # 2014-04-07T10:51:09.277Z; constant derived by toordinal day arithmetic
        assert parse_timestamp_ms("2014-04-07T10:51:09.277Z") == 1396867869277

    def test_iso_with_offset(self):
        # +02:00 means 01:04:05 UTC
        assert parse_timestamp_ms("2023-01-02T03:04:05+02:00") == 1672621445000

    def test_naive_read_as_utc(self):
        assert parse_timestamp_ms("2023-01-02T01:04:05") == 1672621445000

    def test_garbage_rejected(self):
        for bad in ("", "  ", "not-a-time", "2014-13-40T99:00:00Z"):
            with pytest.raises(ValueError):
                parse_timestamp_ms(bad)


class TestLogParsing:
    def test_basic_csv(self):
        log = io.StringIO("s1,1000,a\ns1,2000,b\ns2,1500,a\n")
        parsed = parse_click_log(log)
        assert parsed.skipped == 0
        assert [(e.session_id, e.timestamp, e.item_id) for e in parsed.events] == [
            ("s1", 1000, "a"), ("s1", 2000, "b"), ("s2", 1500, "a")]

    def test_header_and_custom_columns(self):
        log = io.StringIO("item\tsession\twhen\na\ts1\t1000\nb\ts1\t2000\n")
        fmt = LogFormat(delimiter="\t", has_header=True, session_col=1, time_col=2, item_col=0)
        parsed = parse_click_log(log, fmt)
        assert [e.item_id for e in parsed.events] == ["a", "b"]

    def test_lenient_skips_and_counts(self):
        log = io.StringIO("s1,1000,a\ngarbage\ns1,notatime,b\ns1,2000,c\n,3000,d\n")
        parsed = parse_click_log(log)
        assert parsed.skipped == 3
        assert [e.item_id for e in parsed.events] == ["a", "c"]

    def test_strict_raises_with_line_number(self):
        log = io.StringIO("s1,1000,a\ns1,notatime,b\n")
        with pytest.raises(DataError, match="line 2"):
            parse_click_log(log, strict=True)

    def test_blank_lines_ignored(self):
        parsed = parse_click_log(io.StringIO("s1,1000,a\n\n\ns1,2000,b\n"))
        assert parsed.skipped == 0 and len(parsed.events) == 2


class TestSessionizeAndFilter:
    def test_groups_and_orders_by_time(self):
        events = [ev("b", 300, "y"), ev("a", 100, "x"), ev("a", 50, "w"),
                  ev("b", 250, "x"), ev("a", 75, "y")]
        out = sessionize_and_filter(events, min_item_support=1, min_session_len=2)
        assert [s.items for s in out] == [["w", "y", "x"], ["x", "y"]]
        assert [s.start_time for s in out] == [50, 250]

    def test_timestamp_ties_keep_file_order(self):
        events = [ev("a", 10, "p"), ev("a", 10, "q"), ev("a", 10, "r")]
        out = sessionize_and_filter(events, min_item_support=1, min_session_len=2)
        assert out[0].items == ["p", "q", "r"]

    def test_support_counts_every_occurrence(self):
        # "x" appears twice in one session: support 2 passes a threshold of 2
        events = [ev("a", 1, "x"), ev("a", 2, "x"), ev("b", 3, "y"), ev("b", 4, "z")]
        out = sessionize_and_filter(events, min_item_support=2, min_session_len=2)
        assert [s.items for s in out] == [["x", "x"]]

    def test_low_support_removed_then_short_dropped(self):
        # "z" is rare; removing it leaves session b a singleton, which dies
        events = [ev("a", 1, "x"), ev("a", 2, "y"), ev("b", 3, "x"),
                  ev("b", 4, "z"), ev("c", 5, "y"), ev("c", 6, "x")]
        out = sessionize_and_filter(events, min_item_support=2, min_session_len=2)
        assert [s.items for s in out] == [["x", "y"], ["y", "x"]]

    def test_truncates_to_most_recent(self):
        events = [ev("a", t, f"i{t}") for t in range(1, 8)]
        out = sessionize_and_filter(events, min_item_support=1, min_session_len=2,
                                    max_session_len=3)
        assert out[0].items == ["i5", "i6", "i7"]
        assert out[0].start_time == 1   # start time is the session's, not the window's

    def test_defaults_mirror_yoochoose_style_rules(self):
        # below support 5 everything dies
        events = [ev("a", 1, "x"), ev("a", 2, "y")]
        assert sessionize_and_filter(events) == []


class TestSplitAndFraction:
    def sessions(self, *starts):
        return [Session(items=["a", "b"], start_time=t) for t in starts]

    def test_strict_boundary(self):
        train, test = time_split(self.sessions(1, 2, 3), split_ts=2)
        assert [s.start_time for s in train] == [1]
        assert [s.start_time for s in test] == [2, 3]

    def test_fraction_exact_ceiling(self):
        ten = self.sessions(*range(10))
        assert len(take_recent_fraction(ten, Fraction(1, 3))) == 4   # ceil(10/3)
        assert len(take_recent_fraction(ten, "1/4")) == 3            # ceil(10/4)
        assert len(take_recent_fraction(ten, 1)) == 10

    def test_fraction_keeps_most_recent(self):
        ten = self.sessions(*range(10))
        kept = take_recent_fraction(ten, Fraction(1, 5))
        assert [s.start_time for s in kept] == [8, 9]

    def test_float_binary_noise_snapped(self):
        ten = self.sessions(*range(10))
        assert len(take_recent_fraction(ten, 0.1 * 3)) == 3   # 0.30000000000000004

    def test_out_of_range_rejected(self):
        ten = self.sessions(*range(10))
        for bad in (0, -1, Fraction(3, 2), "0"):
            with pytest.raises(ConfigError):
                take_recent_fraction(ten, bad)


class TestPreprocess:
    """The whole recipe on a crafted log: latest start S = 10000, window W = 1000."""

    LOG = ["s1,7000,a", "s1,7001,b",                    # trains
           "s2,9000,b", "s2,9001,a",                    # starts at S - W: trains
           "s3,9001,a", "s3,9002,b", "s3,9003,a",       # starts at S - W + 1: tests
           "s4,10000,b", "s4,10001,b"]                  # starts at S: tests

    @staticmethod
    def raw(ds, sessions):
        return [[ds.vocab.index_to_raw[i] for i in items] for items in sessions]

    def run(self, **settings):
        return preprocess(self.LOG, settings=PreprocessConfig(**{"min_item_support": 1, **settings}))

    def test_window_boundary(self):
        ds, skipped = self.run(test_window_ms=1000)
        assert self.raw(ds, ds.train_sessions) == [["a", "b"], ["b", "a"]]
        assert self.raw(ds, ds.test_sessions) == [["a", "b", "a"], ["b", "b"]]
        assert ds.provenance == {"split_ts": 9001} and skipped == 0

    def test_explicit_split_ts_overrides_the_window(self):
        ds, _ = self.run(test_window_ms=1000, split_ts=8000)
        assert self.raw(ds, ds.train_sessions) == [["a", "b"]]
        assert self.raw(ds, ds.test_sessions) == [["b", "a"], ["a", "b", "a"], ["b", "b"]]
        assert ds.provenance == {"split_ts": 8000}

    def test_provenance_adds_the_split_to_the_given_block(self):
        given = {"command": "preprocess"}
        ds, _ = preprocess(self.LOG, settings=PreprocessConfig(min_item_support=1, test_window_ms=1000),
                           provenance=given)
        assert ds.provenance == {"command": "preprocess", "split_ts": 9001}
        assert given == {"command": "preprocess"}

    def test_fraction_trims_only_the_train_side(self):
        ds, _ = self.run(test_window_ms=1000, fraction="1/2")
        assert self.raw(ds, ds.train_sessions) == [["b", "a"]]
        assert self.raw(ds, ds.test_sessions) == [["a", "b", "a"], ["b", "b"]]

    def test_default_window_is_one_day(self):
        log = ["s0,0,a", "s0,1,b", "s9,86400000,b", "s9,86400001,a"]
        ds, _ = preprocess(log, settings=PreprocessConfig(min_item_support=1))
        assert ds.provenance == {"split_ts": 1}
        assert self.raw(ds, ds.train_sessions) == [["a", "b"]]
        assert self.raw(ds, ds.test_sessions) == [["b", "a"]]

    def test_skipped_lines_counted(self):
        ds, skipped = preprocess(["broken", *self.LOG, "s5,x,a"],
                                 settings=PreprocessConfig(min_item_support=1, test_window_ms=1000))
        assert skipped == 2 and len(ds.train_sessions) == len(ds.test_sessions) == 2

    def test_nothing_left_is_a_data_error(self):
        with pytest.raises(DataError, match="no sessions survive filtering"):
            self.run(min_item_support=6)    # no item is clicked 6 times

    @pytest.mark.parametrize("settings, message", [
        ({"test_window_ms": -1}, "test_window_ms must be >= 0"),
        ({"fraction": "abc"}, "cannot interpret fraction 'abc'"),
        ({"fraction": "1/0"}, "cannot interpret fraction '1/0'"),
        ({"fraction": float("nan")}, "cannot interpret fraction nan"),
        ({"fraction": None}, "cannot interpret fraction None"),
        ({"fraction": 2}, r"fraction must be in \(0, 1\], got 2"),
        ({"fraction": "0"}, r"fraction must be in \(0, 1\], got 0"),
    ], ids=repr)
    def test_bad_settings_rejected_at_construction(self, settings, message):
        with pytest.raises(ConfigError, match=message):
            PreprocessConfig(**settings)


class TestPrefixExpansion:
    def test_each_prefix_labelled_with_next(self):
        got = expand_prefixes(Session(items=[3, 1, 4, 1], start_time=0))
        assert [(e.prefix, e.label) for e in got] == [
            ([3], 1), ([3, 1], 4), ([3, 1, 4], 1)]

    def test_short_session_yields_nothing(self):
        assert expand_prefixes(Session(items=[7], start_time=0)) == []


class TestVocabAndReindex:
    def test_vocab_first_occurrence_in_train(self):
        train = [Session(["b", "a"], 0), Session(["a", "c"], 1)]
        ds = build_vocab_and_reindex(train, [])
        assert ds.vocab.index_to_raw == ["b", "a", "c"]
        assert [(e.prefix, e.label) for e in ds.train] == [([0], 1), ([1], 2)]

    def test_unknown_test_items_dropped_then_short_sessions(self):
        train = [Session(["a", "b"], 0)]
        test = [Session(["a", "zzz", "b"], 5), Session(["zzz", "b"], 6)]
        ds = build_vocab_and_reindex(train, test)
        # first test session survives as [a, b]; second shrinks to 1 item and dies
        assert [(e.prefix, e.label) for e in ds.test] == [([0], 1)]

    def test_empty_train_rejected(self):
        with pytest.raises(DataError):
            build_vocab_and_reindex([], [Session(["a", "b"], 0)])

    def test_one_item_train_session_indexed_then_dropped(self):
        train = [Session(["x"], 0), Session(["a", "b"], 1)]
        ds = build_vocab_and_reindex(train, [Session(["x", "a"], 5)])
        assert ds.vocab.index_to_raw == ["x", "a", "b"]
        assert ds.train_sessions == [[1, 2]]
        assert ds.test_sessions == [[0, 1]]

    def test_no_train_session_of_two_items_rejected(self):
        with pytest.raises(DataError, match="no training session has two or more items"):
            build_vocab_and_reindex([Session(["a"], 0), Session(["b"], 1)], [Session(["a", "b"], 5)])


class TestPersistence:
    def make_ds(self):
        train = [Session(["b", "a", "b"], 0), Session(["a", "c"], 1)]
        test = [Session(["c", "b"], 9)]
        return build_vocab_and_reindex(train, test, {"note": "fixture"})

    def test_round_trip(self, tmp_path):
        ds = self.make_ds()
        path = tmp_path / "data.jsonl"
        persist_dataset(ds, path)
        back = load_dataset(path)
        assert back.num_items == ds.num_items
        assert back.vocab.index_to_raw == ds.vocab.index_to_raw
        assert [(e.prefix, e.label) for e in back.train] == [(e.prefix, e.label) for e in ds.train]
        assert [(e.prefix, e.label) for e in back.test] == [(e.prefix, e.label) for e in ds.test]
        assert back.provenance == {"note": "fixture"}

    def test_header_is_first_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        persist_dataset(self.make_ds(), path)
        with open(path) as fh:
            header = json.loads(fh.readline())
        assert header["format"] == "casif-dataset"
        assert header["version"] == 2
        assert header["num_items"] == 3

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "something-else", "version": 1, "num_items": 1}\n')
        with pytest.raises(DataError, match="not a casif-dataset"):
            load_dataset(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for version in (1, 99):
            path.write_text(f'{{"format": "casif-dataset", "version": {version}, "num_items": 1}}\n')
            with pytest.raises(DataError, match=f"unsupported version {version}"):
                load_dataset(path)

    def test_missing_item_count_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "casif-dataset", "version": 2}\n')
        with pytest.raises(DataError, match="num_items"):
            load_dataset(path)

    def test_malformed_record_names_line(self, tmp_path):
        ds = self.make_ds()
        path = tmp_path / "data.jsonl"
        persist_dataset(ds, path)
        with open(path, "a") as fh:
            fh.write("{broken\n")
        with pytest.raises(DataError, match=r"line \d+"):
            load_dataset(path)

    def test_out_of_range_index_rejected(self, tmp_path):
        ds = self.make_ds()
        path = tmp_path / "data.jsonl"
        persist_dataset(ds, path)
        with open(path, "a") as fh:
            fh.write(json.dumps({"items": [0, 99], "split": "train"}) + "\n")
        with pytest.raises(DataError, match="out of range"):
            load_dataset(path)

    def test_one_record_per_session(self, tmp_path):
        ds = self.make_ds()
        path = tmp_path / "data.jsonl"
        persist_dataset(ds, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(ds.train_sessions) + len(ds.test_sessions) == 4
        assert [json.loads(line) for line in lines[1:]] == [
            {"items": [0, 1, 0], "split": "train"}, {"items": [1, 2], "split": "train"},
            {"items": [2, 0], "split": "test"}]

    @pytest.mark.parametrize("record", [
        {"items": ["1", 0], "split": "train"},
        {"items": [1.7, 0], "split": "train"},
        {"items": [True, 0], "split": "train"},
        {"items": [], "split": "train"},
        {"items": [0], "split": "test"},
        {"items": "01", "split": "train"},
        {"items": [-1, 0], "split": "train"},
        {"items": [0, 3], "split": "test"},
        {"items": [0, 1], "split": "valid"},
        {"items": [0, 1], "split": ["train"]},
        {"items": [0, 1]},
        {"split": "train", "prefix": [0], "label": 1},
        [0, 1],
    ], ids=repr)
    def test_malformed_session_rejected(self, tmp_path, record):
        path = tmp_path / "data.jsonl"
        persist_dataset(self.make_ds(), path)
        with open(path, "a") as fh:
            fh.write(json.dumps(record) + "\n")
        with pytest.raises(DataError, match=f"{path}: line 5: "):
            load_dataset(path)

    @pytest.mark.parametrize("lineno, line, message", [
        (1, b"[" * 5000, "malformed record"),
        (5, b"[" * 5000, "malformed record"),
        (5, b'{"items": [0, 1], "split": "\xfftrain"}', "malformed record: not UTF-8 text"),
    ], ids=["nested_header", "nested_record", "not_utf8_record"])
    def test_unparsable_line_rejected(self, tmp_path, lineno, line, message):
        path = tmp_path / "data.jsonl"
        persist_dataset(self.make_ds(), path)
        lines = path.read_bytes().splitlines(keepends=True) + [b""]
        lines[lineno - 1] = line + b"\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(DataError, match=f"{path}: line {lineno}: {message}"):
            load_dataset(path)

    def test_training_on_the_loaded_dataset_is_unchanged(self, tmp_path):
        sessions = generate_sessions(SynthSpec(num_items=12, num_sessions=40, seed=2))
        raw = [Session([f"i{x}" for x in items], t) for t, items in enumerate(sessions)]
        ds = build_vocab_and_reindex(raw[:30], raw[30:])
        path = tmp_path / "data.jsonl"
        persist_dataset(ds, path)
        back = load_dataset(path)
        assert [(e.prefix, e.label) for e in back.train] == [(e.prefix, e.label) for e in ds.train]
        assert [(e.prefix, e.label) for e in back.test] == [(e.prefix, e.label) for e in ds.test]
        cfg = TrainConfig(hp=HyperParams(d=6), epochs=2, batch_size=16, seed=3)
        for name, data in (("memory", ds), ("loaded", back)):
            save_checkpoint(tmp_path / f"{name}.ckpt", train(data, cfg).checkpoint)
        assert (tmp_path / "loaded.ckpt").read_bytes() == (tmp_path / "memory.ckpt").read_bytes()

    def test_vocab_count_mismatch_rejected(self, tmp_path):
        ds = self.make_ds()
        path = tmp_path / "data.jsonl"
        persist_dataset(ds, path)
        vocab_path = f"{path}.vocab"
        with open(vocab_path) as fh:
            lines = fh.readlines()
        with open(vocab_path, "w") as fh:
            fh.writelines(lines[:-1])
        with pytest.raises(DataError, match="entries"):
            load_dataset(path)

    @pytest.mark.parametrize("how, message", [
        ("missing_index", "2 entries for 3 items"),
        ("duplicate_index", r"line 2: index 0 listed twice"),
        ("not_json", r"line 2: malformed record"),
        ("not_utf8", r"line 2: malformed record"),
        ("extra_item", r"line 4: index 3 out of range"),
        ("nested", r"line 2: malformed record"),
    ])
    def test_bad_vocab_rejected(self, tmp_path, how, message):
        path = tmp_path / "data.jsonl"
        persist_dataset(self.make_ds(), path)
        vocab_path = f"{path}.vocab"
        with open(vocab_path) as fh:
            lines = corrupt_vocab(fh.readlines(), how)
        with open(vocab_path, "wb") as fh:
            fh.writelines(lines)
        with pytest.raises(DataError, match=message):
            load_dataset(path)


class TestLoadVocab:
    def write(self, tmp_path, records):
        path = tmp_path / "v.vocab"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_reads_any_line_order(self, tmp_path):
        path = self.write(tmp_path, [{"raw": "b", "index": 1}, {"raw": "a", "index": 0}])
        vocab = load_vocab(path, 2)
        assert vocab.index_to_raw == ["a", "b"] and vocab.raw_to_index == {"a": 0, "b": 1}

    def test_duplicate_raw_id_rejected(self, tmp_path):
        path = self.write(tmp_path, [{"raw": "a", "index": 0}, {"raw": "a", "index": 1}])
        with pytest.raises(DataError, match="line 2: raw id 'a' listed twice"):
            load_vocab(path, 2)

    def test_non_integer_index_rejected(self, tmp_path):
        path = self.write(tmp_path, [{"raw": "a", "index": 0.5}])
        with pytest.raises(DataError, match="line 1: malformed"):
            load_vocab(path, 1)
