import io
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from casif import (
    ClickColumns,
    DataError,
    HyperParams,
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
    write_click_log,
)
from casif.errors import ConfigError
from test_cli import corrupt_vocab


def ev(sess, ts, item):
    return (sess, ts, item)


def columns(events):
    return parse_click_log([f"{sess},{ts},{item}" for sess, ts, item in events]).events


def rows(events: ClickColumns):
    """(session_id, timestamp, item_id) of each parsed click, in file order."""
    return [(events.session_ids[s], t, events.item_ids[i])
            for s, t, i in zip(events.session.tolist(), events.time.tolist(), events.item.tolist())]


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
        assert rows(parsed.events) == [
            ("s1", 1000, "a"), ("s1", 2000, "b"), ("s2", 1500, "a")]

    def test_header_and_custom_columns(self):
        log = io.StringIO("item\tsession\twhen\na\ts1\t1000\nb\ts1\t2000\n")
        settings = PreprocessConfig(delimiter="\t", has_header=True, session_col=1, time_col=2, item_col=0)
        parsed = parse_click_log(log, settings)
        assert [item for _, _, item in rows(parsed.events)] == ["a", "b"]

    def test_lenient_skips_and_counts(self):
        log = io.StringIO("s1,1000,a\ngarbage\ns1,notatime,b\ns1,2000,c\n,3000,d\n")
        parsed = parse_click_log(log)
        assert parsed.skipped == 3
        assert [item for _, _, item in rows(parsed.events)] == ["a", "c"]

    def test_strict_raises_with_line_number(self):
        log = io.StringIO("s1,1000,a\ns1,notatime,b\n")
        with pytest.raises(DataError, match="line 2"):
            parse_click_log(log, PreprocessConfig(strict_parse=True))

    def test_blank_lines_ignored(self):
        parsed = parse_click_log(io.StringIO("s1,1000,a\n\n\ns1,2000,b\n"))
        assert parsed.skipped == 0 and len(parsed.events) == 2

    @pytest.mark.parametrize("ts", ["9223372036854775808", "99999999999999999999"])
    def test_timestamp_from_2_to_the_63_is_malformed(self, ts):
        log = f"s1,1000,a\ns1,{ts},b\ns1,9223372036854775807,c\n"
        parsed = parse_click_log(io.StringIO(log))
        assert parsed.skipped == 1
        assert rows(parsed.events) == [("s1", 1000, "a"), ("s1", 2**63 - 1, "c")]
        with pytest.raises(DataError, match="^line 2: timestamp out of range$"):
            parse_click_log(io.StringIO(log), PreprocessConfig(strict_parse=True))

    def test_iso_timestamps_at_the_ends_of_datetime(self):
        # both lie outside datetime's range once converted to UTC
        log = "s1,0001-01-01T00:00:00+01:00,a\ns1,9999-12-31T23:59:59-01:00,b\n"
        parsed = parse_click_log(io.StringIO(log))
        assert parsed.skipped == 1
        assert rows(parsed.events) == [("s1", 253402304399000, "b")]
        with pytest.raises(DataError, match="^line 1: negative timestamp -62135600400000$"):
            parse_click_log(io.StringIO(log), PreprocessConfig(strict_parse=True))


class TestSessionizeAndFilter:
    def test_groups_and_orders_by_time(self):
        events = [ev("b", 300, "y"), ev("a", 100, "x"), ev("a", 50, "w"),
                  ev("b", 250, "x"), ev("a", 75, "y")]
        out = sessionize_and_filter(columns(events), min_item_support=1, min_session_len=2)
        assert [s.items for s in out] == [["w", "y", "x"], ["x", "y"]]
        assert [s.start_time for s in out] == [50, 250]

    def test_timestamp_ties_keep_file_order(self):
        events = [ev("a", 10, "p"), ev("a", 10, "q"), ev("a", 10, "r")]
        out = sessionize_and_filter(columns(events), min_item_support=1, min_session_len=2)
        assert out[0].items == ["p", "q", "r"]

    def test_support_counts_every_occurrence(self):
        # "x" appears twice in one session: support 2 passes a threshold of 2
        events = [ev("a", 1, "x"), ev("a", 2, "x"), ev("b", 3, "y"), ev("b", 4, "z")]
        out = sessionize_and_filter(columns(events), min_item_support=2, min_session_len=2)
        assert [s.items for s in out] == [["x", "x"]]

    def test_low_support_removed_then_short_dropped(self):
        # "z" is rare; removing it leaves session b a singleton, which dies
        events = [ev("a", 1, "x"), ev("a", 2, "y"), ev("b", 3, "x"),
                  ev("b", 4, "z"), ev("c", 5, "y"), ev("c", 6, "x")]
        out = sessionize_and_filter(columns(events), min_item_support=2, min_session_len=2)
        assert [s.items for s in out] == [["x", "y"], ["y", "x"]]

    def test_truncates_to_most_recent(self):
        events = [ev("a", t, f"i{t}") for t in range(1, 8)]
        out = sessionize_and_filter(columns(events), min_item_support=1, min_session_len=2,
                                    max_session_len=3)
        assert out[0].items == ["i5", "i6", "i7"]
        assert out[0].start_time == 1   # start time is the session's, not the window's

    def test_defaults_mirror_yoochoose_style_rules(self):
        # below support 5 everything dies
        events = [ev("a", 1, "x"), ev("a", 2, "y")]
        assert sessionize_and_filter(columns(events)) == []


def reference_sessionize(clicks, min_item_support, min_session_len, max_session_len):
    """The dict-and-sort sessionizer over (session_id, timestamp, item_id) rows: (items, start) pairs."""
    by_session: dict[str, list[tuple[int, str]]] = {}
    for session_id, ts, item_id in clicks:
        by_session.setdefault(session_id, []).append((ts, item_id))

    ordered, support = [], {}
    for session_clicks in by_session.values():
        session_clicks.sort(key=lambda click: click[0])     # stable: ties keep file order
        items = [item for _, item in session_clicks]
        ordered.append((session_clicks[0][0], items))
        for item in items:
            support[item] = support.get(item, 0) + 1

    kept = []
    for start, items in ordered:
        items = [it for it in items if support[it] >= min_item_support]
        if len(items) < min_session_len:
            continue
        if max_session_len and len(items) > max_session_len:
            items = items[-max_session_len:]
        kept.append((items, start))
    kept.sort(key=lambda session: session[1])       # stable: ties keep grouping order
    return kept


def random_log(rng):
    """Interleaved sessions in shuffled lines, with equal timestamps within and across sessions."""
    clicks = []
    for s in range(rng.randint(1, 8)):
        ts = rng.randint(0, 6)
        for _ in range(rng.randint(1, 6)):
            clicks.append((f"s{s}", ts, f"i{rng.randint(0, 5)}"))
            ts += rng.choice((0, 0, 1, 3))
    rng.shuffle(clicks)
    return clicks


class TestSessionizeOracle:
    def test_matches_the_dict_and_sort_reference_on_random_logs(self):
        nonempty = 0
        for seed in range(200):
            clicks = random_log(random.Random(seed))
            settings = (1 + seed % 4, 1 + seed // 4 % 3, (0, 1, 3)[seed // 12 % 3])
            got = [(s.items, s.start_time) for s in sessionize_and_filter(columns(clicks), *settings)]
            assert got == reference_sessionize(clicks, *settings), f"seed {seed}, settings {settings}"
            nonempty += bool(got)
        assert nonempty > 150


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
        ({"min_session_len": 0}, "min_session_len must be >= 1, got 0"),
        ({"max_session_len": -1}, r"max_session_len must be >= 0 \(0: no cap\), got -1"),
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
        got = expand_prefixes([3, 1, 4, 1])
        assert [(e.prefix, e.label) for e in got] == [
            ([3], 1), ([3, 1], 4), ([3, 1, 4], 1)]

    def test_short_session_yields_nothing(self):
        assert expand_prefixes([7]) == []


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

    def test_lines_are_sorted_json_records(self, tmp_path):
        odd = ['say "hi"', "back\\slash", "tab\there", "café", "grin 😀"]
        train = [Session(odd + ["plain"], 0), Session(["plain", "café"], 1)]
        ds = build_vocab_and_reindex(train, [Session(["grin 😀", 'say "hi"'], 9)], {"note": "é"})
        path = tmp_path / "data.jsonl"
        persist_dataset(ds, path)
        header = {"format": "casif-dataset", "version": 3, "num_items": ds.num_items,
                  "train_sessions": 2, "test_sessions": 1, "provenance": ds.provenance}
        records = [header, *ds.train_sessions, *ds.test_sessions]
        for written, expected in ((path, records), (tmp_path / "data.jsonl.vocab", ds.vocab.index_to_raw)):
            with open(written, "rb") as fh:
                lines = fh.readlines()
            assert lines == [(json.dumps(r, sort_keys=True) + "\n").encode() for r in expected]
        back = load_dataset(path)
        assert back.vocab.index_to_raw == ds.vocab.index_to_raw
        assert all(back.vocab.raw_to_index[raw] == ds.vocab.raw_to_index[raw] for raw in odd)

    def test_header_is_first_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        persist_dataset(self.make_ds(), path)
        with open(path) as fh:
            header = json.loads(fh.readline())
        assert header["format"] == "casif-dataset"
        assert header["version"] == 3
        assert header["num_items"] == 3
        assert (header["train_sessions"], header["test_sessions"]) == (2, 1)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "something-else", "version": 1, "num_items": 1}\n')
        with pytest.raises(DataError, match="not a casif-dataset"):
            load_dataset(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for version in (1, 2, 99):
            path.write_text(f'{{"format": "casif-dataset", "version": {version}, "num_items": 1}}\n')
            with pytest.raises(DataError, match=f"unsupported version {version}"):
                load_dataset(path)

    def test_missing_item_count_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "casif-dataset", "version": 3, "train_sessions": 0, "test_sessions": 0}\n')
        with pytest.raises(DataError, match="num_items"):
            load_dataset(path)

    @pytest.mark.parametrize("counts", [{"test_sessions": 0}, {"train_sessions": -1, "test_sessions": 0},
                                        {"train_sessions": 2, "test_sessions": 1.0},
                                        {"train_sessions": "2", "test_sessions": 1}],
                             ids=["missing", "negative", "float", "string"])
    def test_bad_session_count_rejected(self, tmp_path, counts):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "casif-dataset", "version": 3, "num_items": 3, **counts}) + "\n")
        with pytest.raises(DataError, match=f"{path}: line 1: train_sessions and test_sessions must be integers"):
            load_dataset(path)

    @pytest.mark.parametrize("change", ["one_fewer", "one_more"])
    def test_session_count_mismatch_rejected(self, tmp_path, change):
        path = tmp_path / "data.jsonl"
        persist_dataset(self.make_ds(), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1] if change == "one_fewer" else lines + ["[0, 1]\n"]))
        found = 2 if change == "one_fewer" else 4
        with pytest.raises(DataError, match=f"{path}: {found} sessions, but the header counts 2 train and 1 test"):
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
            fh.write("[0, 99]\n")
        with pytest.raises(DataError, match="out of range"):
            load_dataset(path)

    def test_one_record_per_session(self, tmp_path):
        ds = self.make_ds()
        path = tmp_path / "data.jsonl"
        persist_dataset(ds, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(ds.train_sessions) + len(ds.test_sessions) == 4
        assert [json.loads(line) for line in lines[1:]] == [[0, 1, 0], [1, 2], [2, 0]]

    @pytest.mark.parametrize("record", [
        ["1", 0],
        [1.7, 0],
        [True, 0],
        [],
        [0],
        "01",
        [-1, 0],
        [0, 3],
        [[0, 1]],
        None,
        {"items": [0, 1], "split": "train"},     # a version-2 session line
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
        (5, b'[0, 1, "\xff"]', "malformed record: not UTF-8 text"),
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
        ("not_json", r"line 2: malformed record"),
        ("not_utf8", r"line 2: malformed record"),
        ("extra_item", "4 entries for 3 items"),
        ("nested", r"line 2: malformed record"),
        ("format_2", r"line 1: malformed record: a raw id must be a JSON string"),
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
    def write(self, tmp_path, values):
        path = tmp_path / "v.vocab"
        path.write_text("".join(json.dumps(v) + "\n" for v in values))
        return path

    def test_line_k_is_item_k(self, tmp_path):
        path = self.write(tmp_path, ["b", "a"])
        vocab = load_vocab(path, 2)
        assert vocab.index_to_raw == ["b", "a"] and vocab.raw_to_index == {"b": 0, "a": 1}

    def test_duplicate_raw_id_rejected(self, tmp_path):
        path = self.write(tmp_path, ["a", "a"])
        with pytest.raises(DataError, match="line 2: raw id 'a' listed twice"):
            load_vocab(path, 2)

    def test_number_line_rejected(self, tmp_path):
        path = self.write(tmp_path, ["a", 7])
        with pytest.raises(DataError, match="line 2: malformed record: a raw id must be a JSON string"):
            load_vocab(path, 2)


class TestIngestMemory:
    # about 136 B/click measured here (Python 3.11, numpy 2.4); one object per click measured 354
    BYTES_PER_CLICK = 200

    def test_parse_and_sessionize_peak_per_click(self, tmp_path):
        path = tmp_path / "clicks.csv"
        spec = SynthSpec(num_items=5000, num_sessions=40_000, min_len=2, max_len=8, seed=1)
        with open(path, "w", encoding="utf-8") as fh:
            clicks = write_click_log(generate_sessions(spec), fh)
        assert 190_000 < clicks < 210_000
        tracemalloc.start()
        try:
            with open(path, encoding="utf-8") as fh:
                parsed = parse_click_log(fh)
            sessions = sessionize_and_filter(parsed.events)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(parsed.events) == clicks and sessions
        assert peak / clicks < self.BYTES_PER_CLICK
