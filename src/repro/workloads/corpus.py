"""Synthetic text corpus with natural-language statistics.

Substitute for the paper's Wikipedia web-log dataset (PUMA): what the
MapReduce case study depends on is (a) Zipf-distributed word
frequencies — "natural language has irregular distribution of words so
that the application will produce variable amount of results on
processes" — and (b) irregular file sizes (256 MB - 1 GB per log file).
Both are generated here, deterministically from a seed:
:func:`file_histogram` is the word histogram a map task would emit for
a whole file (a multinomial draw, no text materialized).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

#: paper's corpus parameters
MIN_FILE_BYTES = 256 * 1024 * 1024
MAX_FILE_BYTES = 1024 * 1024 * 1024
MEAN_WORD_BYTES = 6.0   # avg English word + separator


@dataclass(frozen=True)
class CorpusSpec:
    """Statistical description of a synthetic corpus."""

    vocabulary: int = 50_000
    zipf_s: float = 1.07          # classic natural-language exponent
    seed: int = 2017
    min_file_bytes: int = MIN_FILE_BYTES
    max_file_bytes: int = MAX_FILE_BYTES
    mean_word_bytes: float = MEAN_WORD_BYTES

    def __post_init__(self):
        if self.vocabulary < 1:
            raise ValueError("vocabulary must be >= 1")
        if self.zipf_s <= 0:
            raise ValueError("zipf_s must be positive")
        if not (0 < self.min_file_bytes <= self.max_file_bytes):
            raise ValueError("file size range invalid")
        if self.mean_word_bytes <= 0:
            raise ValueError("mean_word_bytes must be positive")

    # ------------------------------------------------------------------
    def frequencies(self) -> np.ndarray:
        """Normalized Zipf pmf over the vocabulary (rank 1 most common)."""
        ranks = np.arange(1, self.vocabulary + 1, dtype=np.float64)
        w = ranks ** (-self.zipf_s)
        return w / w.sum()

    def word(self, word_id: int) -> str:
        """Stable string form of a vocabulary id."""
        if not (0 <= word_id < self.vocabulary):
            raise ValueError(f"word id {word_id} out of vocabulary")
        return f"w{word_id:06d}"


@dataclass(frozen=True)
class FileSpec:
    """One log file: identity + size (content derives from the seed)."""

    index: int
    nbytes: int

    @property
    def nwords(self) -> int:
        return max(1, int(self.nbytes / MEAN_WORD_BYTES))


def _file_rng(spec: CorpusSpec, file_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=spec.seed, spawn_key=(1, file_index))
    )


def file_histogram(spec: CorpusSpec, file: FileSpec,
                   scale_words: int = 0) -> Dict[str, int]:
    """The full word histogram of the file (scale mode).

    A multinomial draw of the file's word count over the Zipf pmf —
    statistically identical to counting the words without generating
    them.  ``scale_words`` overrides the word count (for scaled-down
    benchmarks)."""
    n = scale_words if scale_words > 0 else file.nwords
    rng = _file_rng(spec, file.index)
    counts = rng.multinomial(n, spec.frequencies())
    nz = np.nonzero(counts)[0]
    return {spec.word(int(i)): int(counts[i]) for i in nz}


def merge_histograms(parts: Sequence[Dict[str, int]]) -> Dict[str, int]:
    """Sum word histograms (the reduce semantics, usable as an MPI op)."""
    out: Dict[str, int] = {}
    for part in parts:
        for k, v in part.items():
            out[k] = out.get(k, 0) + v
    return out


def histogram_nbytes(hist: Dict[str, int]) -> int:
    """Wire size of a histogram: key strings + 8-byte counts."""
    return sum(len(k) + 8 for k in hist)

