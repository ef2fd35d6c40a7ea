"""
From a raw click log to training examples
=========================================

Walks a tiny inline click log through every preprocessing stage and
prints what each one does: parsing, support/length filtering, the
time-based train/test split, vocabulary assignment, and prefix
expansion.
"""

import io

from casif import (
    parse_click_log,
    sessionize_and_filter,
    time_split,
    build_vocab_and_reindex,
    expand_prefixes,
)

# A click log is CSV with one click per line: session id, epoch-millisecond
# timestamp, raw item id.  Six shopping sessions, three in the morning,
# one stray single click at midday, two in the evening.
raw = """\
morning-1,1000,socks
morning-1,2000,boots
morning-1,3000,socks
morning-2,1500,boots
morning-2,2500,laces
morning-2,3500,socks
morning-3,1800,polish
morning-3,2800,boots
midday-1,4000,receipt
evening-1,9000,socks
evening-1,9500,polish
evening-2,9900,boots
evening-2,9950,socks
evening-2,9999,boots
"""

parsed = parse_click_log(io.StringIO(raw))
print(f"parsed {len(parsed.events)} clicks")

# Filtering happens in one pass: items seen fewer than min_item_support
# times are removed everywhere, then sessions that fell below
# min_session_len are dropped, and long survivors keep only their most
# recent clicks.  "laces" and "receipt" appear once each, so with a
# support threshold of 2 they vanish; that shortens morning-2 and kills
# midday-1 outright.
sessions = sessionize_and_filter(parsed.events, min_item_support=2,
                                 min_session_len=2, max_session_len=50)
print(f"\nafter filtering, {len(sessions)} sessions survive:")
for s in sessions:
    print(f"  start={s.start_time:<6} items={s.items}")

# The split is by session start time: everything before the cutoff trains,
# everything at or after it tests.
train_sessions, test_sessions = time_split(sessions, split_ts=5000)
print(f"\nsplit at t=5000: {len(train_sessions)} train, {len(test_sessions)} test")

# Vocabulary indices come from first occurrence order in the training
# split.  Test sessions may only use items the training split knows;
# anything else is removed before length checks.
ds = build_vocab_and_reindex(train_sessions, test_sessions, {})
print(f"\nvocabulary ({ds.num_items} items):")
for idx, raw_id in enumerate(ds.vocab.index_to_raw):
    print(f"  {idx} <- {raw_id!r}")

# Every session of length n yields n-1 supervised examples: each prefix
# predicts the click that followed it.
print("\ntraining examples (prefix -> label):")
for ex in ds.train:
    print(f"  {ex.prefix} -> {ex.label}")

demo_session = test_sessions[0]
print(f"\na test session {demo_session.items} expands the same way:")
for ex in expand_prefixes(demo_session.items):
    print(f"  {ex.prefix} -> {ex.label}")
