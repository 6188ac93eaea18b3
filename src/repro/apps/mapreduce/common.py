"""Shared pieces of the MapReduce word-histogram case study (Section IV-B).

The application extracts a word histogram from a set of log files.  Two
fidelity modes share every code path (DESIGN.md §5):

* **numeric** — real word histograms (`dict`), exact counts, verifiable
  against a sequentially computed ground truth;
* **scale** — :class:`SummaryHistogram` sketches that carry (distinct
  keys, total words, wire bytes) and merge analytically, so 8,192-rank
  sweeps never materialize multi-GB dictionaries.

Both histogram types implement the same protocol: ``merge(other)``,
``entries``, and ``__wire_nbytes__`` (the transport reads wire sizes
from it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Union

from ...workloads.corpus import (
    CorpusSpec,
    FileSpec,
    file_histogram,
    histogram_nbytes,
    merge_histograms,
)
from ...workloads.keyed import keyed_draws

#: mean bytes of one stored key on the wire (word string + count)
KEY_WIRE_BYTES = 16.0


@dataclass(frozen=True)
class MapReduceConfig:
    """One MapReduce experiment instance."""

    nprocs: int
    #: decoupled-reduce fraction (Fig. 5 sweeps 12.5 / 6.25 / 3.125 %)
    alpha: float = 0.0625
    #: real data structures (tests) vs analytic sketches (benchmarks)
    numeric: bool = False
    #: mean input volume per map rank; the paper's 2.9 TB / 8,192 procs
    bytes_per_rank: int = 354_000_000
    #: files are irregular: size ~ U[0.72, 1.28] * bytes_per_rank
    file_spread: float = 0.28
    #: each file is mapped in this many chunks (stream granularity)
    nchunks: int = 16
    #: map (read + parse + combine) throughput
    map_seconds_per_byte: float = 1.19e-7     # ~8.4 MB/s per rank
    #: per-chunk lognormal jitter (parsing variance of natural text)
    chunk_jitter_sigma: float = 0.25
    #: histogram merge cost (hash insert per entry)
    merge_seconds_per_entry: float = 2.0e-8
    #: local reducers push partials to the master every N elements
    master_update_elements: int = 256
    vocabulary: int = 1_000_000
    #: numeric mode scales word counts down to this many per chunk
    numeric_words_per_chunk: int = 300
    seed: int = 2017

    def __post_init__(self):
        if self.nprocs < 2:
            raise ValueError("nprocs must be >= 2")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        if self.nchunks < 1:
            raise ValueError("nchunks must be >= 1")
        if self.bytes_per_rank <= 0:
            raise ValueError("bytes_per_rank must be positive")
        if not (0.0 <= self.file_spread < 1.0):
            raise ValueError("file_spread must be in [0, 1)")
        if self.map_seconds_per_byte < 0:
            raise ValueError("map_seconds_per_byte must be >= 0")
        if self.chunk_jitter_sigma < 0:
            raise ValueError("chunk_jitter_sigma must be >= 0")
        if self.merge_seconds_per_entry < 0:
            raise ValueError("merge_seconds_per_entry must be >= 0")
        if self.master_update_elements < 1:
            raise ValueError("master_update_elements must be >= 1")
        if self.vocabulary < 1:
            raise ValueError("vocabulary must be >= 1")

    # ------------------------------------------------------------------
    @property
    def corpus(self) -> CorpusSpec:
        vocab = 200 if self.numeric else self.vocabulary
        return CorpusSpec(
            vocabulary=vocab,
            seed=self.seed,
            min_file_bytes=int(self.bytes_per_rank * (1 - self.file_spread)),
            max_file_bytes=int(self.bytes_per_rank * (1 + self.file_spread)),
        )

    @property
    def n_reduce(self) -> int:
        """Size of the decoupled reduce group (master included)."""
        return max(2, round(self.alpha * self.nprocs))

    @property
    def n_map(self) -> int:
        return self.nprocs - self.n_reduce

    def with_(self, **kw) -> "MapReduceConfig":
        return replace(self, **kw)


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------

class RealHistogram:
    """Numeric-mode histogram: an actual word-count dictionary."""

    __slots__ = ("table",)

    def __init__(self, table: Dict[str, int]):
        self.table = table

    def merge(self, other: "RealHistogram") -> "RealHistogram":
        return RealHistogram(merge_histograms([self.table, other.table]))

    @property
    def entries(self) -> int:
        return len(self.table)

    @property
    def words(self) -> int:
        return sum(self.table.values())

    def __wire_nbytes__(self) -> int:
        return histogram_nbytes(self.table)


class SummaryHistogram:
    """Scale-mode histogram sketch.

    Merging uses the independence approximation for distinct-key union:
    with vocabulary V and key counts k1, k2 drawn Zipf-ish, the union is
    ``V * (1 - (1 - k1/V)(1 - k2/V))``; word counts add exactly.
    """

    __slots__ = ("keys", "words", "vocab")

    def __init__(self, keys: float, words: int, vocab: int):
        if keys < 0 or words < 0 or vocab < 1:
            raise ValueError("invalid summary histogram")
        self.keys = min(float(keys), float(vocab))
        self.words = int(words)
        self.vocab = vocab

    def merge(self, other: "SummaryHistogram") -> "SummaryHistogram":
        if self.vocab != other.vocab:
            raise ValueError("merging summaries over different vocabularies")
        v = float(self.vocab)
        union = v * (1.0 - (1.0 - self.keys / v) * (1.0 - other.keys / v))
        # direct construction: the operands are already validated, and
        # merges run once or twice per stream element
        out = SummaryHistogram.__new__(SummaryHistogram)
        out.keys = union if union < v else v
        out.words = self.words + other.words
        out.vocab = self.vocab
        return out

    @property
    def entries(self) -> int:
        return int(self.keys)

    def __wire_nbytes__(self) -> int:
        return int(self.keys * KEY_WIRE_BYTES)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SummaryHistogram(keys={self.keys:.0f}, "
                f"words={self.words})")


Histogram = Union[RealHistogram, SummaryHistogram]


def expected_distinct_keys(words: int, vocab: int) -> float:
    """E[#distinct words] after drawing ``words`` from a ~uniformized
    vocabulary: ``V * (1 - exp(-words / V))`` (coupon-collector)."""
    if vocab < 1:
        raise ValueError("vocab must be >= 1")
    if words <= 0:
        return 0.0
    return vocab * (1.0 - math.exp(-words / vocab))


def merge_cost_seconds(a: Histogram, b: Histogram,
                       cfg: MapReduceConfig) -> float:
    """Compute time of merging ``b`` into ``a`` (hash insert per entry
    of the smaller side — standard small-into-large merging)."""
    smaller = min(a.entries, b.entries)
    return smaller * cfg.merge_seconds_per_entry


# ----------------------------------------------------------------------
# the map kernel
# ----------------------------------------------------------------------

#: per-configuration draw tables, keyed on the fields the draws read
#: (not on nprocs, so every scale of one seed shares and extends one
#: table); plain dicts, because the simulation is single-threaded
_file_tables: Dict[tuple, List[FileSpec]] = {}
_jitter_tables: Dict[tuple, List[List[float]]] = {}
#: distinct configurations a table dict holds before it starts over
_MAX_TABLES = 32


def _table(tables: Dict[tuple, list], key: tuple, map_index: int,
           nprocs: int, rows: Callable[[int, int], list]) -> list:
    """``tables[key]`` grown to cover row ``map_index``.

    The first call draws all ``nprocs`` rows, and a later miss at least
    doubles the table, each with one ``rows(start, stop)`` call.  Every
    row is a pure function of its own key, so growing in pieces draws
    exactly what one call would have.
    """
    if map_index < 0:
        raise ValueError(f"map_index must be >= 0, got {map_index}")
    table = tables.get(key)
    if table is None:
        if len(tables) >= _MAX_TABLES:
            tables.clear()
        table = tables[key] = []
    start = len(table)
    table.extend(rows(start, max(map_index + 1, nprocs, 2 * start)))
    return table


def rank_file(cfg: MapReduceConfig, map_index: int) -> FileSpec:
    """The log file assigned to map task ``map_index`` (one irregular
    file per map rank; README "Examples and figures" regenerates the
    Fig. 5 runs into ``benchmarks/results/fig5_mapreduce.json``).

    The size is ``bytes_per_rank`` times a uniform draw from the keyed
    stream ``(7, map_index)`` of ``cfg.seed``.  Each map rank asks for
    its file once per chunk, so the sizes of all files are drawn
    together, by one :func:`keyed_draws` call, on the first request.
    """
    key = (cfg.seed, cfg.bytes_per_rank, cfg.file_spread)
    table = _file_tables.get(key)
    if table is None or not 0 <= map_index < len(table):
        lo, hi = 1 - cfg.file_spread, 1 + cfg.file_spread

        def rows(start, stop):
            draws = keyed_draws(cfg.seed,
                                [(7, i) for i in range(start, stop)],
                                lambda gen: gen.uniform(lo, hi))
            return [FileSpec(i, int(cfg.bytes_per_rank * u))
                    for i, u in enumerate(draws, start)]
        table = _table(_file_tables, key, map_index, cfg.nprocs, rows)
    return table[map_index]


def chunk_map_jitter(cfg: MapReduceConfig, map_index: int, chunk: int) -> float:
    """Deterministic per-(rank, chunk) lognormal jitter factor, drawn
    from the keyed stream ``(11, map_index, chunk)`` of ``cfg.seed``.

    The factors of all ``nprocs * nchunks`` chunks are drawn together,
    by one :func:`keyed_draws` call, on the first request.  Skipped
    entirely for ``chunk_jitter_sigma == 0``: ``lognormal(0, 0)`` is
    exactly 1.0, so the draw can be elided bit-identically, and the
    deterministic perf scenarios rely on this.
    """
    sigma = cfg.chunk_jitter_sigma
    if sigma == 0.0:
        return 1.0
    if not 0 <= chunk < cfg.nchunks:
        raise ValueError(f"chunk must be in [0, {cfg.nchunks}), got {chunk}")
    key = (cfg.seed, sigma, cfg.nchunks)
    table = _jitter_tables.get(key)
    if table is None or not 0 <= map_index < len(table):
        nchunks = cfg.nchunks

        def rows(start, stop):
            flat = keyed_draws(cfg.seed,
                               [(11, f, c) for f in range(start, stop)
                                for c in range(nchunks)],
                               lambda gen: gen.lognormal(0.0, sigma))
            return [flat[i:i + nchunks]
                    for i in range(0, len(flat), nchunks)]
        table = _table(_jitter_tables, key, map_index, cfg.nprocs, rows)
    return table[map_index][chunk]


def chunk_map_seconds(cfg: MapReduceConfig, map_index: int,
                      chunk: int, chunk_bytes: float) -> float:
    """Nominal compute time of mapping one chunk, with deterministic
    per-(rank, chunk) lognormal jitter."""
    jitter = chunk_map_jitter(cfg, map_index, chunk)
    return chunk_bytes * cfg.map_seconds_per_byte * jitter


#: scale-mode chunk sketches are a pure function of (words, vocab) and
#: identical for every chunk of a file — share one immutable instance
_chunk_sketch_memo: Dict[tuple, SummaryHistogram] = {}


def map_chunk(cfg: MapReduceConfig, file: FileSpec, map_index: int,
              chunk: int) -> Histogram:
    """The histogram a map task emits for one chunk of its file."""
    if cfg.numeric:
        sub = FileSpec(file.index * cfg.nchunks + chunk, file.nbytes)
        table = file_histogram(cfg.corpus, sub,
                               scale_words=cfg.numeric_words_per_chunk)
        return RealHistogram(table)
    chunk_words = int(file.nwords / cfg.nchunks)
    key = (chunk_words, cfg.vocabulary)
    sketch = _chunk_sketch_memo.get(key)
    if sketch is None:
        keys = expected_distinct_keys(chunk_words, cfg.vocabulary)
        sketch = SummaryHistogram(keys, chunk_words, cfg.vocabulary)
        if len(_chunk_sketch_memo) >= 1 << 16:
            _chunk_sketch_memo.clear()
        _chunk_sketch_memo[key] = sketch
    return sketch


def empty_histogram(cfg: MapReduceConfig) -> Histogram:
    if cfg.numeric:
        return RealHistogram({})
    return SummaryHistogram(0.0, 0, cfg.vocabulary)


def keyset_payload(hist: Histogram) -> "KeySetPayload":
    """The key-set a rank contributes to the global-keys allgatherv."""
    return KeySetPayload(hist)


class KeySetPayload:
    """Wire representation of a rank's key set (keys only, no counts)."""

    __slots__ = ("entries",)

    def __init__(self, hist: Histogram):
        self.entries = hist.entries

    def __wire_nbytes__(self) -> int:
        # key strings without the 8-byte counts
        return int(self.entries * (KEY_WIRE_BYTES - 8))
