import hashlib
import io

import pytest

from casif import SynthSpec, generate_sessions, write_click_log
from casif.errors import ConfigError


class TestSpecValidation:
    def test_functional_needs_a_start_item_per_session(self):
        with pytest.raises(ConfigError):
            SynthSpec(num_items=5, num_sessions=6, mode="functional")

    def test_bad_values(self):
        for kw in ({"num_items": 0}, {"num_sessions": 0}, {"min_len": 0},
                   {"min_len": 5, "max_len": 4}, {"mode": "weird"}, {"branching": 0}):
            with pytest.raises(ConfigError):
                SynthSpec(**kw)


class TestGeneration:
    def test_deterministic_in_seed(self):
        spec = SynthSpec(num_items=20, num_sessions=50, seed=9)
        assert generate_sessions(spec) == generate_sessions(spec)
        other = SynthSpec(num_items=20, num_sessions=50, seed=10)
        assert generate_sessions(spec) != generate_sessions(other)

    def test_lengths_within_bounds(self):
        spec = SynthSpec(num_items=10, num_sessions=200, min_len=3, max_len=7, seed=1)
        for sess in generate_sessions(spec):
            assert 3 <= len(sess) <= 7

    def test_markov_items_in_range(self):
        spec = SynthSpec(num_items=5, num_sessions=100, seed=2)
        items = {i for sess in generate_sessions(spec) for i in sess}
        assert items <= set(range(5))

    def test_markov_prefers_its_transition_table(self):
        # roughly 90% of steps should follow one of the `branching` successors
        spec = SynthSpec(num_items=30, num_sessions=400, min_len=5, max_len=10,
                         seed=3, branching=3)
        sessions = generate_sessions(spec)
        succ = {}
        for sess in sessions:
            for a, b in zip(sess, sess[1:]):
                succ.setdefault(a, {}).setdefault(b, 0)
                succ[a][b] += 1
        followed = total = 0
        for a, outs in succ.items():
            top3 = sorted(outs.values(), reverse=True)[:3]
            followed += sum(top3)
            total += sum(outs.values())
        assert followed / total > 0.8

    def test_functional_start_items_unique(self):
        spec = SynthSpec(num_items=40, num_sessions=40, mode="functional", seed=4)
        starts = [sess[0] for sess in generate_sessions(spec)]
        assert len(set(starts)) == len(starts)

    def test_functional_prefix_label_mapping_is_a_function(self):
        spec = SynthSpec(num_items=30, num_sessions=25, min_len=2, max_len=6,
                         mode="functional", seed=5)
        mapping = {}
        for sess in generate_sessions(spec):
            for k in range(1, len(sess)):
                key = tuple(sess[:k])
                assert mapping.get(key, sess[k]) == sess[k], "prefix maps to two labels"
                mapping[key] = sess[k]


class TestLogWriting:
    def test_format_and_counts(self):
        sessions = [[3, 1], [2, 2, 0]]
        buf = io.StringIO()
        clicks = write_click_log(sessions, buf)
        assert clicks == 5
        lines = buf.getvalue().splitlines()
        assert lines[0] == "sess0,1500000000000,item3"
        assert lines[1] == "sess0,1500000001000,item1"
        assert lines[2] == "sess1,1500000600000,item2"

    def test_byte_identical_given_seed(self):
        spec = SynthSpec(num_items=10, num_sessions=30, seed=6)
        a, b = io.StringIO(), io.StringIO()
        write_click_log(generate_sessions(spec), a)
        write_click_log(generate_sessions(spec), b)
        assert a.getvalue() == b.getvalue()

    def test_timestamps_increase_within_each_session(self):
        buf = io.StringIO()
        write_click_log([[1, 2, 3], [4, 5]], buf)
        by_session = {}
        for line in buf.getvalue().splitlines():
            sess, ts, _ = line.split(",")
            by_session.setdefault(sess, []).append(int(ts))
        for stamps in by_session.values():
            assert stamps == sorted(stamps)

    @pytest.mark.parametrize("spec, sha256", [
        (SynthSpec(num_items=30, num_sessions=200, min_len=2, max_len=9, branching=3, seed=11),
         "ac655658746489709b0ecce34b7f7f575f5dd911a2ce296d376a085c6b5e6cb8"),
        (SynthSpec(mode="functional", num_items=60, num_sessions=50, min_len=1, max_len=6, seed=12),
         "ccaf08bcd461280caf3f0a1e7a342e85a430a5b94687ecd74250e150ccd8008e"),
    ])
    def test_pinned_bytes(self, spec, sha256):
        # the click log of a given spec is fixed for all time, like the stream it draws from
        buf = io.StringIO()
        write_click_log(generate_sessions(spec), buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == sha256
