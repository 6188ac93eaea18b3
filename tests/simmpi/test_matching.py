"""Unit + property tests for message matching semantics.

The indexed :class:`Mailbox` fast path is checked operation-for-
operation against :class:`LinearMailbox`, the original linear-scan
implementation kept as the semantic oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi.matching import (
    ANY_SOURCE,
    ANY_TAG,
    Envelope,
    LinearMailbox,
    Mailbox,
    PostedRecv,
)


def _env(src=0, tag=0, ctx=0, n=10):
    return Envelope(src, tag, ctx, n, payload=f"m{src}.{tag}",
                    eager=True, delivered_time=0.0)


def _post(matched, source=ANY_SOURCE, tag=ANY_TAG, ctx=0):
    return PostedRecv(source, tag, ctx, None, matched.append)


def test_deliver_then_post_matches_unexpected():
    mb = Mailbox()
    mb.deliver(_env(src=3, tag=7))
    matched = []
    mb.post(_post(matched, source=3, tag=7))
    assert len(matched) == 1
    assert matched[0].src == 3


def test_post_then_deliver_matches_posted():
    mb = Mailbox()
    matched = []
    mb.post(_post(matched, source=3, tag=7))
    mb.deliver(_env(src=3, tag=7))
    assert len(matched) == 1


def test_wildcards_match_anything():
    mb = Mailbox()
    matched = []
    mb.post(_post(matched))
    mb.deliver(_env(src=9, tag=42))
    assert matched[0].src == 9 and matched[0].tag == 42


def test_source_mismatch_queues_as_unexpected():
    mb = Mailbox()
    matched = []
    mb.post(_post(matched, source=1))
    mb.deliver(_env(src=2))
    assert not matched
    assert mb.pending_counts() == (1, 1)


def test_tag_mismatch_queues():
    mb = Mailbox()
    matched = []
    mb.post(_post(matched, tag=5))
    mb.deliver(_env(tag=6))
    assert not matched


def test_context_isolation():
    """Collective-context traffic must never match app receives."""
    mb = Mailbox()
    matched = []
    mb.post(_post(matched, ctx=0))
    mb.deliver(_env(ctx=1))
    assert not matched


def test_fifo_order_between_same_pair():
    """Non-overtaking: two messages from the same (src, tag) match posted
    receives in delivery order."""
    mb = Mailbox()
    got = []
    mb.deliver(Envelope(0, 0, 0, 1, "first", True, 0.0))
    mb.deliver(Envelope(0, 0, 0, 1, "second", True, 1.0))
    mb.post(PostedRecv(0, 0, 0, None, lambda e: got.append(e.payload)))
    mb.post(PostedRecv(0, 0, 0, None, lambda e: got.append(e.payload)))
    assert got == ["first", "second"]


def test_posted_receives_match_in_post_order():
    mb = Mailbox()
    got = []
    mb.post(PostedRecv(ANY_SOURCE, ANY_TAG, 0, None, lambda e: got.append("r1")))
    mb.post(PostedRecv(ANY_SOURCE, ANY_TAG, 0, None, lambda e: got.append("r2")))
    mb.deliver(_env())
    assert got == ["r1"]


def test_any_source_takes_first_arrival():
    """The FCFS property MPIStream relies on: a wildcard receive gets
    whichever producer's message arrived first."""
    mb = Mailbox()
    mb.deliver(_env(src=5, tag=1))
    mb.deliver(_env(src=2, tag=1))
    got = []
    mb.post(PostedRecv(ANY_SOURCE, 1, 0, None, lambda e: got.append(e.src)))
    assert got == [5]


def test_specific_recv_skips_earlier_nonmatching():
    mb = Mailbox()
    mb.deliver(_env(src=5, tag=1))
    mb.deliver(_env(src=2, tag=1))
    got = []
    mb.post(PostedRecv(2, 1, 0, None, lambda e: got.append(e.src)))
    assert got == [2]
    # the src=5 one is still there
    assert mb.pending_counts() == (0, 1)


def test_probe_is_nondestructive():
    mb = Mailbox()
    mb.deliver(_env(src=4, tag=9))
    env = mb.probe(ANY_SOURCE, 9, 0)
    assert env is not None and env.src == 4
    assert mb.pending_counts() == (0, 1)
    assert mb.probe(ANY_SOURCE, 3, 0) is None


@given(
    srcs=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=30),
)
@settings(max_examples=60)
def test_every_message_eventually_matches_wildcard_receives(srcs):
    """Property: N deliveries + N wildcard posts => N matches, FIFO."""
    mb = Mailbox()
    for i, s in enumerate(srcs):
        mb.deliver(Envelope(s, 0, 0, 1, i, True, float(i)))
    got = []
    for _ in srcs:
        mb.post(PostedRecv(ANY_SOURCE, ANY_TAG, 0, None,
                           lambda e: got.append(e.payload)))
    assert got == list(range(len(srcs)))
    assert mb.pending_counts() == (0, 0)


@pytest.mark.parametrize("mailbox_cls", [Mailbox, LinearMailbox])
def test_both_mailboxes_share_the_contract(mailbox_cls):
    """Smoke: the oracle and the indexed fast path expose one API."""
    mb = mailbox_cls()
    assert mb.deliver(_env(src=1, tag=2)) is None
    assert mb.probe(ANY_SOURCE, 2, 0).src == 1
    assert mb.probe(1, ANY_TAG, 0).src == 1
    assert mb.probe(3, 2, 0) is None
    matched = []
    env = mb.post(_post(matched, source=1, tag=2))
    assert env is not None and matched[0].src == 1
    assert mb.pending_counts() == (0, 0)
    assert mb.peak_unexpected == 1


# ----------------------------------------------------------------------
# randomized interleavings: the indexed mailbox must reproduce the
# linear-scan oracle's exact match sequence
# ----------------------------------------------------------------------

_op = st.one_of(
    st.tuples(st.just("deliver"),
              st.integers(0, 3),                        # src
              st.integers(0, 2),                        # tag
              st.integers(0, 1)),                       # context
    st.tuples(st.just("post"),
              st.sampled_from([ANY_SOURCE, 0, 1, 2, 3]),
              st.sampled_from([ANY_TAG, 0, 1, 2]),
              st.integers(0, 1)),
    st.tuples(st.just("probe"),
              st.sampled_from([ANY_SOURCE, 0, 1, 2, 3]),
              st.sampled_from([ANY_TAG, 0, 1, 2]),
              st.integers(0, 1)),
)


def _drive(mailbox, ops):
    """Apply an op script; return the observable event trace.

    Every match is recorded as ``(post_index, envelope_payload)`` —
    *which* receive got *which* message — regardless of whether the
    match happened at post time or at delivery time."""
    trace = []
    for i, (kind, a, b, ctx) in enumerate(ops):
        if kind == "deliver":
            got = mailbox.deliver(Envelope(a, b, ctx, 1, ("msg", i),
                                           True, float(i)))
            trace.append(("delivered", i, got is not None))
        elif kind == "post":
            post = PostedRecv(
                a, b, ctx, None,
                lambda env, post_i=i: trace.append(("match", post_i,
                                                    env.payload)))
            got = mailbox.post(post)
            trace.append(("posted", i, got is None))
        else:
            got = mailbox.probe(a, b, ctx)
            trace.append(("probe", i,
                          None if got is None else got.payload))
        trace.append(("counts", mailbox.pending_counts()))
    return trace


@given(ops=st.lists(_op, min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_indexed_mailbox_matches_linear_oracle(ops):
    """Property: identical wildcard/FIFO/unexpected interleavings yield
    identical match sequences, probe results and queue depths."""
    assert _drive(Mailbox(), ops) == _drive(LinearMailbox(), ops)


@given(
    n_srcs=st.integers(2, 5),
    per_src=st.integers(1, 8),
    seed=st.integers(0, 999),
)
@settings(max_examples=60, deadline=None)
def test_funnel_interleaving_matches_oracle(n_srcs, per_src, seed):
    """The MapReduce-funnel shape: many sources into one wildcard
    consumer, with deterministic pseudo-random interleaving of posts
    and deliveries."""
    import random
    rng = random.Random(seed)
    sends = [(s, k) for s in range(n_srcs) for k in range(per_src)]
    rng.shuffle(sends)
    total = len(sends)
    ops = []
    posted = 0
    while sends or posted < total:
        if sends and (posted >= total or rng.random() < 0.5):
            s, _k = sends.pop()
            ops.append(("deliver", s, 0, 0))
        else:
            ops.append(("post", ANY_SOURCE, 0, 0))
            posted += 1
    assert _drive(Mailbox(), ops) == _drive(LinearMailbox(), ops)


def test_tombstones_are_pruned():
    """Wildcard matches leave shadow copies behind; bulk pruning must
    keep the dead count bounded by the live population."""
    mb = Mailbox()
    for round_ in range(200):
        mb.deliver(_env(src=round_ % 4, tag=0))
        matched = []
        assert mb.post(_post(matched, tag=0)) is not None
    assert mb.pending_counts() == (0, 0)
    assert mb._dead <= 64 + 3  # _PRUNE_MIN plus one match's shadows


@given(
    order_flip=st.lists(st.booleans(), min_size=1, max_size=20),
)
@settings(max_examples=60)
def test_match_count_independent_of_arrival_order(order_flip):
    """Whether the recv or the message arrives first never changes the
    number of matches."""
    mb = Mailbox()
    matches = []
    for i, post_first in enumerate(order_flip):
        post = PostedRecv(ANY_SOURCE, i, 0, None, lambda e: matches.append(e.tag))
        env = Envelope(0, i, 0, 1, None, True, 0.0)
        if post_first:
            mb.post(post)
            mb.deliver(env)
        else:
            mb.deliver(env)
            mb.post(post)
    assert sorted(matches) == list(range(len(order_flip)))


def test_single_message_buckets_cost_no_deque():
    """A routed stream's teardown leaves one unreceived TERM per
    (producer, consumer) pair, each alone under its own (context,
    source, tag) key.  Parking such a message must not cost a ~760-byte
    deque: the 8192-rank decoupled CG parks 7.9 million of them."""
    import tracemalloc

    mb = Mailbox()
    mb.probe(ANY_SOURCE, 0, 0)       # wildcard-source class on, as on a consumer
    envs = [_env(src=s, tag=0) for s in range(20000)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for env in envs:
            mb.deliver(env)
        per_message = (tracemalloc.get_traced_memory()[0] - before) / len(envs)
    finally:
        tracemalloc.stop()
    # ~220 bytes with bare one-entry buckets, ~980 with a deque per key
    assert per_message < 400, per_message
    # the parked messages still match in delivery order
    matched = []
    for _ in envs:
        mb.post(_post(matched, tag=0))
    assert [env.src for env in matched] == list(range(20000))
    assert mb.pending_counts() == (0, 0)
