"""Message envelopes and (source, tag, context) matching.

MPI matching semantics, reproduced exactly because the paper's stream
library leans on them: messages between a given (sender, receiver,
context) pair match in FIFO order; receives may wildcard the source
(``ANY_SOURCE``) and/or tag (``ANY_TAG``); a posted receive matches the
*earliest-delivered* compatible unexpected message.

``ANY_SOURCE`` receives are what give MPIStream its first-come-first-
served, imbalance-absorbing behaviour (Section III-A step 3): the
consumer takes whichever producer's element arrives first.

Two implementations share this contract:

:class:`Mailbox`
    The production fast path.  Queues are *indexed* by
    ``(context, source, tag)`` with wildcard buckets (``ANY_SOURCE`` /
    ``ANY_TAG`` stored literally in the key), so the common exact-match
    case is an O(1) dict hit while wildcard receives stay
    earliest-delivered FIFO.  See DESIGN.md §8.

:class:`LinearMailbox`
    The original linear-scan implementation, kept verbatim as the
    semantic *oracle*: property tests drive both mailboxes through
    random wildcard/FIFO/unexpected-queue interleavings and assert
    identical match sequences, and the ``bench perf`` slow path runs
    whole simulations on it to pin bit-identical virtual-time results.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

ANY_SOURCE = -1
ANY_TAG = -1
TAG_UB = 1 << 30


class Envelope:
    """A message (or rendezvous header) sitting in a mailbox."""

    __slots__ = (
        "src", "tag", "context", "nbytes", "payload",
        "eager", "delivered_time", "on_match", "sender_req",
    )

    def __init__(self, src: int, tag: int, context: int, nbytes: int,
                 payload: Any, eager: bool, delivered_time: float,
                 on_match: Optional[Callable] = None):
        self.src = src
        self.tag = tag
        self.context = context
        self.nbytes = nbytes
        self.payload = payload
        self.eager = eager
        self.delivered_time = delivered_time
        # rendezvous: called with the match time when a receive matches;
        # the transport then schedules the actual transfer.
        self.on_match = on_match
        # rendezvous: the sender-side request, so a failure of the
        # *receiver* can poison the parked sender (fault sweep).  Eager
        # envelopes (built via __new__ on the hot path) leave the slot
        # unset; readers use getattr(..., None).
        self.sender_req = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "eager" if self.eager else "rndv"
        return (f"Envelope(src={self.src}, tag={self.tag}, ctx={self.context}, "
                f"n={self.nbytes}, {mode})")


class PostedRecv:
    """A receive waiting in the mailbox for a matching envelope."""

    __slots__ = ("source", "tag", "context", "max_nbytes", "on_match")

    def __init__(self, source: int, tag: int, context: int,
                 max_nbytes: Optional[int], on_match: Callable):
        self.source = source
        self.tag = tag
        self.context = context
        self.max_nbytes = max_nbytes
        # called with the matched Envelope
        self.on_match = on_match


def _compatible(source: int, tag: int, context: int, env: Envelope) -> bool:
    """Does a receive pattern given by raw ``(source, tag, context)``
    match ``env``?  Raw arguments so probes need no throwaway
    :class:`PostedRecv`."""
    if context != env.context:
        return False
    if source != ANY_SOURCE and source != env.src:
        return False
    if tag != ANY_TAG and tag != env.tag:
        return False
    return True


#: prune tombstoned unexpected entries once they outnumber live ones
#: (and a floor so tiny mailboxes never bother)
_PRUNE_MIN = 64


def _entries(bucket) -> Any:
    """An unexpected bucket's entries: a deque, or one bare entry."""
    return (bucket,) if bucket.__class__ is list else bucket


class Mailbox:
    """Per-rank matching state: posted receives + unexpected messages.

    Indexed fast path.  Posted receives live in exactly one bucket —
    keyed by their own pattern ``(context, source, tag)`` with the
    wildcard constants stored literally — so an arriving envelope only
    has to compare the heads of its four candidate pattern buckets
    (exact, source-wildcard, tag-wildcard, both-wildcard) and take the
    earliest-posted.  Unexpected envelopes are inserted under all four
    key variants they could be matched by, so a posted receive does a
    single dict lookup; the three shadow entries are tombstoned on
    match and pruned in bulk.  Every operation is amortized O(1) while
    preserving the oracle's exact match order (FIFO per pattern,
    earliest-delivered across wildcards, post order across posted
    receives).

    An unexpected bucket holding a single entry stores that entry bare
    and becomes a deque only when a second one arrives.  A deque costs
    ~760 bytes however little it holds, and a routed stream's teardown
    leaves one unreceived TERM per (producer, consumer) pair, each
    under its own ``(context, source, tag)`` key: 7.9 million of them
    on the 8192-rank decoupled CG, whose run peaks at 4.1 GB this way
    and would need ~10 GB with a deque per key.
    """

    __slots__ = ("_posted", "_unexpected", "_seq", "_nposted", "_nunexpected",
                 "_dead", "_anysrc_on", "_anytag_on", "_anyany_on",
                 "_np_exact", "_np_anysrc", "_np_anytag", "_np_anyany",
                 "peak_posted", "peak_unexpected")

    def __init__(self) -> None:
        # pattern key -> deque of (seq, PostedRecv)
        self._posted: Dict[Tuple[int, int, int], Deque] = {}
        # candidate key -> deque of [seq, Envelope, alive, ncopies], or
        # that entry list itself while it is the bucket's only entry
        self._unexpected: Dict[Tuple[int, int, int], Any] = {}
        self._seq = 0
        self._nposted = 0
        self._nunexpected = 0
        self._dead = 0
        # wildcard index classes are maintained lazily: shadow copies
        # for a pattern class are only written once a receive (or
        # probe) of that class has been seen on this mailbox — the
        # common stream mailbox only ever pays the exact + ANY_SOURCE
        # inserts.  First use of a class backfills its buckets from the
        # always-maintained exact buckets (see _activate).
        self._anysrc_on = False
        self._anytag_on = False
        self._anyany_on = False
        # per-pattern-class posted counts: deliver only looks up the
        # candidate buckets of classes that actually have receives
        # pending (a stream consumer only ever populates ANY_SOURCE)
        self._np_exact = 0
        self._np_anysrc = 0
        self._np_anytag = 0
        self._np_anyany = 0
        self.peak_posted = 0
        self.peak_unexpected = 0

    # ------------------------------------------------------------------
    def deliver(self, env: Envelope) -> Optional[PostedRecv]:
        """An envelope arrives: match the oldest compatible posted receive,
        else queue as unexpected.  Returns the matched receive, if any."""
        ctx, src, tag = env.context, env.src, env.tag
        if self._nposted:
            posted = self._posted
            best_bucket = None
            best_seq = -1
            best_kind = 0
            if self._np_exact:
                bucket = posted.get((ctx, src, tag))
                if bucket:
                    best_bucket = bucket
                    best_seq = bucket[0][0]
                    best_kind = 1
            if self._np_anysrc:
                bucket = posted.get((ctx, ANY_SOURCE, tag))
                if bucket:
                    seq = bucket[0][0]
                    if best_bucket is None or seq < best_seq:
                        best_bucket, best_seq, best_kind = bucket, seq, 2
            if self._np_anytag:
                bucket = posted.get((ctx, src, ANY_TAG))
                if bucket:
                    seq = bucket[0][0]
                    if best_bucket is None or seq < best_seq:
                        best_bucket, best_seq, best_kind = bucket, seq, 3
            if self._np_anyany:
                bucket = posted.get((ctx, ANY_SOURCE, ANY_TAG))
                if bucket:
                    seq = bucket[0][0]
                    if best_bucket is None or seq < best_seq:
                        best_bucket, best_seq, best_kind = bucket, seq, 4
            if best_bucket is not None:
                _seq, post = best_bucket.popleft()
                self._nposted -= 1
                if best_kind == 1:
                    self._np_exact -= 1
                    if not best_bucket:
                        del posted[(ctx, src, tag)]
                elif best_kind == 2:
                    self._np_anysrc -= 1
                    if not best_bucket:
                        del posted[(ctx, ANY_SOURCE, tag)]
                elif best_kind == 3:
                    self._np_anytag -= 1
                    if not best_bucket:
                        del posted[(ctx, src, ANY_TAG)]
                else:
                    self._np_anyany -= 1
                    if not best_bucket:
                        del posted[(ctx, ANY_SOURCE, ANY_TAG)]
                post.on_match(env)
                return post
        self._seq += 1
        keys = [(ctx, src, tag)]
        if self._anysrc_on:
            keys.append((ctx, ANY_SOURCE, tag))
        if self._anytag_on:
            keys.append((ctx, src, ANY_TAG))
        if self._anyany_on:
            keys.append((ctx, ANY_SOURCE, ANY_TAG))
        entry = [self._seq, env, True, len(keys)]
        unexpected = self._unexpected
        dead = self._dead
        for key in keys:
            bucket = unexpected.get(key)
            if bucket is None:
                unexpected[key] = entry
            elif bucket.__class__ is list:
                # a bare entry: a tombstone is simply replaced
                if bucket[2]:
                    unexpected[key] = deque((bucket, entry))
                else:
                    unexpected[key] = entry
                    dead -= 1
            else:
                # opportunistic head cleaning keeps shadow tombstones
                # from accumulating in busy buckets (the global prune
                # is only the backstop for idle ones)
                while bucket and not bucket[0][2]:
                    bucket.popleft()
                    dead -= 1
                bucket.append(entry)
        self._dead = dead
        n = self._nunexpected + 1
        self._nunexpected = n
        if n > self.peak_unexpected:
            self.peak_unexpected = n
        return None

    def _activate(self, source_wild: bool, tag_wild: bool) -> None:
        """First receive/probe of a wildcard pattern class: build its
        buckets by replaying the alive exact-bucket entries in seq
        order.  Runs at most three times over a mailbox's lifetime."""
        if source_wild and tag_wild:
            self._anyany_on = True
        elif source_wild:
            self._anysrc_on = True
        else:
            self._anytag_on = True
        unexpected = self._unexpected
        alive = []
        seen = set()
        for key, bucket in unexpected.items():
            if key[1] == ANY_SOURCE or key[2] == ANY_TAG:
                continue  # shadow bucket, not a home bucket
            for entry in _entries(bucket):
                if entry[2] and id(entry) not in seen:
                    seen.add(id(entry))
                    alive.append(entry)
        alive.sort(key=lambda e: e[0])
        for entry in alive:
            env = entry[1]
            if source_wild and tag_wild:
                key = (env.context, ANY_SOURCE, ANY_TAG)
            elif source_wild:
                key = (env.context, ANY_SOURCE, env.tag)
            else:
                key = (env.context, env.src, ANY_TAG)
            bucket = unexpected.get(key)
            if bucket is None:
                unexpected[key] = entry
            elif bucket.__class__ is list:
                unexpected[key] = deque((bucket, entry))
            else:
                bucket.append(entry)
            entry[3] += 1

    def post(self, post: PostedRecv) -> Optional[Envelope]:
        """A receive is posted: match the oldest compatible unexpected
        envelope, else queue.  Returns the matched envelope, if any."""
        source, tag = post.source, post.tag
        source_wild = source == ANY_SOURCE
        tag_wild = tag == ANY_TAG
        if (source_wild or tag_wild) and not (
                self._anyany_on if source_wild and tag_wild
                else self._anysrc_on if source_wild
                else self._anytag_on):
            self._activate(source_wild, tag_wild)
        bucket = (self._unexpected.get((post.context, source, tag))
                  if self._nunexpected else None)
        if bucket:
            entry = None
            if bucket.__class__ is list:
                # a bare entry leaves its key, matched or a tombstone
                del self._unexpected[(post.context, source, tag)]
                if bucket[2]:
                    entry = bucket
                else:
                    self._dead -= 1
            else:
                while bucket:
                    head = bucket.popleft()
                    if head[2]:
                        if not bucket:
                            del self._unexpected[(post.context, source, tag)]
                        entry = head
                        break
                    self._dead -= 1
            if entry is not None:
                entry[2] = False
                self._dead += entry[3] - 1  # its shadow-bucket copies
                self._nunexpected -= 1
                if self._dead > _PRUNE_MIN and self._dead > self._nunexpected:
                    self._prune()
                env = entry[1]
                post.on_match(env)
                return env
        self._seq += 1
        pbucket = self._posted.get((post.context, source, tag))
        if pbucket is None:
            self._posted[(post.context, source, tag)] = \
                deque(((self._seq, post),))
        else:
            pbucket.append((self._seq, post))
        if source_wild:
            if tag_wild:
                self._np_anyany += 1
            else:
                self._np_anysrc += 1
        elif tag_wild:
            self._np_anytag += 1
        else:
            self._np_exact += 1
        n = self._nposted + 1
        self._nposted = n
        if n > self.peak_posted:
            self.peak_posted = n
        return None

    def probe(self, source: int, tag: int, context: int) -> Optional[Envelope]:
        """Non-destructive check for a matching unexpected message.

        A single bucket peek: no scan, no throwaway ``PostedRecv``."""
        source_wild = source == ANY_SOURCE
        tag_wild = tag == ANY_TAG
        if (source_wild or tag_wild) and not (
                self._anyany_on if source_wild and tag_wild
                else self._anysrc_on if source_wild
                else self._anytag_on):
            self._activate(source_wild, tag_wild)
        bucket = self._unexpected.get((context, source, tag))
        if bucket:
            if bucket.__class__ is list:
                if bucket[2]:
                    return bucket[1]
                del self._unexpected[(context, source, tag)]
                self._dead -= 1
                return None
            while bucket:
                entry = bucket[0]
                if entry[2]:
                    return entry[1]
                bucket.popleft()
                self._dead -= 1
        return None

    def pending_counts(self) -> tuple:
        return (self._nposted, self._nunexpected)

    # ------------------------------------------------------------------
    # fault support (cold path: runs once per detected failure)
    # ------------------------------------------------------------------
    def cancel_posted(self, contexts,
                      dead_source: Optional[int]) -> List[PostedRecv]:
        """Remove every posted receive a peer failure dooms or interrupts:
        exact receives from ``dead_source`` and wildcard-source receives
        (ULFM's *pending* case), in the given ``contexts`` —
        ``dead_source=None`` cancels *every* receive there (communicator
        revocation).  Returns the cancelled receives in post order, so
        the fault controller can poison their completion flags
        deterministically.
        """
        victims = []
        posted = self._posted
        for key in list(posted):
            ctx, src, tag = key
            if ctx not in contexts:
                continue
            if dead_source is not None \
                    and src != dead_source and src != ANY_SOURCE:
                continue
            bucket = posted.pop(key)
            src_wild = src == ANY_SOURCE
            tag_wild = tag == ANY_TAG
            for seq, post in bucket:
                victims.append((seq, post))
                self._nposted -= 1
                if src_wild:
                    if tag_wild:
                        self._np_anyany -= 1
                    else:
                        self._np_anysrc -= 1
                elif tag_wild:
                    self._np_anytag -= 1
                else:
                    self._np_exact -= 1
        victims.sort(key=lambda sp: sp[0])
        return [post for _seq, post in victims]

    def unexpected_envelopes(self) -> List[Envelope]:
        """The alive unexpected envelopes in delivery order (fault sweep:
        rendezvous headers parked in a dead rank's mailbox carry the
        sender request that must be poisoned)."""
        out = []
        seen = set()
        for key, bucket in self._unexpected.items():
            if key[1] == ANY_SOURCE or key[2] == ANY_TAG:
                continue  # shadow bucket, not a home bucket
            for entry in _entries(bucket):
                if entry[2] and id(entry) not in seen:
                    seen.add(id(entry))
                    out.append(entry)
        out.sort(key=lambda e: e[0])
        return [entry[1] for entry in out]

    # ------------------------------------------------------------------
    def _prune(self) -> None:
        """Drop tombstoned unexpected entries in bulk (amortized O(1))."""
        unexpected = self._unexpected
        for key in list(unexpected):
            bucket = unexpected[key]
            if bucket.__class__ is list:
                if not bucket[2]:
                    del unexpected[key]
                continue
            alive = deque(e for e in bucket if e[2])
            if alive:
                unexpected[key] = alive
            else:
                del unexpected[key]
        self._dead = 0


class LinearMailbox:
    """The original linear-scan mailbox, kept as the semantic oracle.

    Per-rank matching state: posted receives + unexpected messages,
    scanned front-to-back exactly as the pre-optimization implementation
    did.  Property tests assert :class:`Mailbox` reproduces its match
    sequences; the ``bench perf`` slow path runs on it wholesale.
    """

    __slots__ = ("posted", "unexpected", "peak_posted", "peak_unexpected")

    def __init__(self) -> None:
        self.posted: Deque[PostedRecv] = deque()
        self.unexpected: Deque[Envelope] = deque()
        self.peak_posted = 0
        self.peak_unexpected = 0

    # ------------------------------------------------------------------
    def deliver(self, env: Envelope) -> Optional[PostedRecv]:
        """An envelope arrives: match the oldest compatible posted receive,
        else queue as unexpected.  Returns the matched receive, if any."""
        for i, post in enumerate(self.posted):
            if _compatible(post.source, post.tag, post.context, env):
                del self.posted[i]
                post.on_match(env)
                return post
        self.unexpected.append(env)
        if len(self.unexpected) > self.peak_unexpected:
            self.peak_unexpected = len(self.unexpected)
        return None

    def post(self, post: PostedRecv) -> Optional[Envelope]:
        """A receive is posted: match the oldest compatible unexpected
        envelope, else queue.  Returns the matched envelope, if any."""
        for i, env in enumerate(self.unexpected):
            if _compatible(post.source, post.tag, post.context, env):
                del self.unexpected[i]
                post.on_match(env)
                return env
        self.posted.append(post)
        if len(self.posted) > self.peak_posted:
            self.peak_posted = len(self.posted)
        return None

    def probe(self, source: int, tag: int, context: int) -> Optional[Envelope]:
        """Non-destructive check for a matching unexpected message."""
        for env in self.unexpected:
            if _compatible(source, tag, context, env):
                return env
        return None

    def pending_counts(self) -> tuple:
        return (len(self.posted), len(self.unexpected))

    # ------------------------------------------------------------------
    # fault support (same contract as Mailbox.cancel_posted)
    # ------------------------------------------------------------------
    def cancel_posted(self, contexts,
                      dead_source: Optional[int]) -> List[PostedRecv]:
        victims = [
            post for post in self.posted
            if post.context in contexts
            and (dead_source is None or post.source == dead_source
                 or post.source == ANY_SOURCE)
        ]
        if victims:
            doomed = set(map(id, victims))
            self.posted = deque(
                p for p in self.posted if id(p) not in doomed)
        return victims

    def unexpected_envelopes(self) -> List[Envelope]:
        return list(self.unexpected)
