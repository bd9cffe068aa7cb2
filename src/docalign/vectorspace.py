"""Pivot vocabulary, IDF and l2-normalized TF-IDF sparse vectors.

Both corpus passes (vocabulary counting, document frequencies) are
associative merges over per-document counts; the resulting models are
immutable and safe to read concurrently. ``vectorize`` is pure. Vectors
are written one document per line and read back as one array table per
language (``VectorTable``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigError, FormatError


@dataclass
class Vocabulary:
    """Frequency-ranked token list with dense dimension ids."""

    words: list[str]
    index: dict[str, int] = field(default_factory=dict)
    skip_top_k: int = 0
    capacity: int = 0

    def __post_init__(self):
        if not self.index and self.words:
            self.index = {w: i for i, w in enumerate(self.words)}

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index


@dataclass
class IdfModel:
    """Document frequencies and idf = ln(1 + |D| / (1 + df)) per dimension."""

    collection_size: int
    doc_freq: dict[int, int]
    idf: dict[int, float]


@dataclass
class SparseVector:
    """Sorted (dimension, weight) entries; weights strictly positive."""

    doc_url: str
    entries: list[tuple[int, float]]

    def norm(self) -> float:
        return math.sqrt(sum(w * w for _d, w in self.entries))


@dataclass
class VectorTable:
    """The vectors of one language as CSR arrays.

    Row ``i`` is the vector of ``urls[i]``: dimensions
    ``indices[indptr[i]:indptr[i + 1]]`` in stored (ascending) order, with
    weights ``data[indptr[i]:indptr[i + 1]]``. ``row`` maps a URL to its
    row; a URL listed twice maps to its last row.
    """

    urls: list[str]
    indptr: np.ndarray  # int64, len(urls) + 1 offsets
    indices: np.ndarray  # int64 dimensions
    data: np.ndarray  # float64 weights
    row: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.row = {url: i for i, url in enumerate(self.urls)}


def build_vocabulary(
    docs: Iterable[Sequence[str]],
    skip_top_k: int,
    capacity: int,
    stopwords: Optional[set[str]] = None,
) -> Vocabulary:
    """Rank tokens by total corpus frequency (ties lexicographic), drop the
    stoplist, drop the next skip_top_k most frequent, keep ``capacity``."""
    if skip_top_k < 0:
        raise ConfigError("skip_top_k must be >= 0")
    if capacity <= 0:
        raise ConfigError("capacity must be > 0")
    counts: Counter[str] = Counter()
    for tokens in docs:
        counts.update(tokens)
    if stopwords:
        for w in stopwords:
            counts.pop(w, None)
    ranked = sorted(counts, key=lambda w: (-counts[w], w))
    kept = ranked[skip_top_k : skip_top_k + capacity]
    return Vocabulary(words=kept, skip_top_k=skip_top_k, capacity=capacity)


def idf_value(collection_size: int, doc_freq: int) -> float:
    return math.log(1.0 + collection_size / (1.0 + doc_freq))


def compute_idf(docs: Iterable[Sequence[str]], vocab: Vocabulary) -> IdfModel:
    """Document frequencies over the collection the vectors will come from."""
    doc_freq: dict[int, int] = {dim: 0 for dim in range(len(vocab))}
    n = 0
    for tokens in docs:
        n += 1
        for w in set(tokens):
            dim = vocab.index.get(w)
            if dim is not None:
                doc_freq[dim] += 1
    if n == 0:
        raise ConfigError("IDF is undefined over an empty collection")
    idf = {dim: idf_value(n, df) for dim, df in doc_freq.items()}
    return IdfModel(collection_size=n, doc_freq=doc_freq, idf=idf)


def vectorize(
    tokens: Sequence[str],
    vocab: Vocabulary,
    idf: IdfModel,
    doc_url: str = "",
) -> SparseVector:
    """TF x IDF over the vocabulary, l2-normalized.

    Documents with no vocabulary hits yield the empty vector; they can never
    match above a positive threshold.
    """
    tf: Counter[int] = Counter()
    for w in tokens:
        dim = vocab.index.get(w)
        if dim is not None:
            tf[dim] += 1
    raw = [(dim, count * idf.idf[dim]) for dim, count in tf.items()]
    raw = [(dim, w) for dim, w in raw if w > 0.0]
    norm = math.sqrt(sum(w * w for _d, w in raw))
    if norm > 0.0:
        entries = sorted((dim, w / norm) for dim, w in raw)
    else:
        entries = []
    return SparseVector(doc_url=doc_url, entries=entries)


# --- file formats ---------------------------------------------------------


def save_vocabulary(vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(w + "\n" for w in vocab.words)


def load_vocabulary(path) -> Vocabulary:
    with open(path, encoding="utf-8") as fh:
        words = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
    return Vocabulary(words=words)


def save_idf(idf: IdfModel, vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#collection_size\t{idf.collection_size}\t0\n")
        for dim, word in enumerate(vocab.words):
            fh.write(f"{word}\t{idf.doc_freq[dim]}\t{idf.idf[dim]:.12g}\n")


def load_idf(path, vocab: Vocabulary) -> IdfModel:
    doc_freq: dict[int, int] = {}
    collection_size = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 fields")
            if parts[0] == "#collection_size":
                collection_size = int(parts[1])
                continue
            dim = vocab.index.get(parts[0])
            if dim is not None:
                doc_freq[dim] = int(parts[1])
    if collection_size <= 0:
        raise FormatError(f"{path}: missing #collection_size header")
    for dim in range(len(vocab)):
        doc_freq.setdefault(dim, 0)
    idf = {dim: idf_value(collection_size, df) for dim, df in doc_freq.items()}
    return IdfModel(collection_size=collection_size, doc_freq=doc_freq, idf=idf)


def save_vectors(vectors: Iterable[SparseVector], path) -> None:
    """One line per document: ``url \\t dim:weight ...``, 9 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        for vec in vectors:
            payload = " ".join(f"{dim}:{w:.9g}" for dim, w in vec.entries)
            fh.write(f"{vec.doc_url}\t{payload}\n")


def load_vectors(path) -> VectorTable:
    """Inverse of ``save_vectors``: one table, rows in file order."""
    urls: list[str] = []
    lengths = [0]
    items: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            url, _sep, payload = line.partition("\t")
            entries = payload.split()
            urls.append(url)
            lengths.append(len(entries))
            items += entries
    fields = ":".join(items).split(":") if items else []
    if len(fields) != 2 * len(items):
        raise FormatError(f"{path}: every entry must be dim:weight")
    try:
        indices = np.array(fields[0::2], dtype=np.int64)
        data = np.array(fields[1::2], dtype=np.float64)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return VectorTable(urls=urls, indptr=np.cumsum(lengths, dtype=np.int64),
                       indices=indices, data=data)
