"""Pivot vocabulary, IDF and l2-normalized TF-IDF sparse vectors.

Both corpus passes (vocabulary counting, document frequencies) are
associative merges over per-document counts; the resulting models are
immutable. ``count_terms`` maps the tokens of one language's documents to
dimensions and counts every (document, dimension) key in one pass;
``compute_idf`` and ``vectorize`` both read those counts, and ``vectorize``
projects the documents in one call, as array operations, into one array
table (``VectorTable``). Each language's table is saved as its CSR arrays
in ``.npy`` files plus a URL list, and read back into the same table.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, FormatError
from .textfile import read_array, read_lines


@dataclass
class Vocabulary:
    """Frequency-ranked token list with dense dimension ids."""

    words: list[str]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {w: i for i, w in enumerate(self.words)}

    def __len__(self) -> int:
        return len(self.words)


@dataclass
class IdfModel:
    """Document frequencies and idf = ln(1 + |D| / (1 + df)), indexed by
    dimension."""

    collection_size: int
    doc_freq: np.ndarray  # int64
    idf: np.ndarray  # float64


class TermCounts(NamedTuple):
    """The vocabulary tokens of ``n_docs`` documents over ``dims``
    dimensions, one entry per (document, dimension) that occurs, sorted by
    document, then dimension: document ``row[i]`` holds dimension ``dim[i]``
    ``tf[i]`` times, and ``first[i]`` orders the entries by first occurrence."""

    n_docs: int
    dims: int
    row: np.ndarray
    dim: np.ndarray
    first: np.ndarray
    tf: np.ndarray


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

    @classmethod
    def empty(cls) -> "VectorTable":
        return cls(urls=[], indptr=np.zeros(1, dtype=np.int64),
                   indices=np.zeros(0, dtype=np.int64), data=np.zeros(0))


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
    return Vocabulary(words=kept)


def idf_value(collection_size: int, doc_freq: int) -> float:
    return math.log(1.0 + collection_size / (1.0 + doc_freq))


def count_terms(docs: Sequence[Sequence[str]], vocab: Vocabulary) -> TermCounts:
    """Map every token of ``docs`` to its dimension and count each
    (document, dimension) key in one ``np.unique``; tokens outside the
    vocabulary are dropped."""
    n, dims = len(docs), len(vocab)
    # the keys row * dims + dim fit int32 below 2**31 (row, dim) cells
    dtype = np.int32 if n * dims < 2**31 else np.int64
    lengths = np.fromiter(map(len, docs), dtype=np.int64, count=n)
    ids = np.fromiter(map(vocab.index.get, chain.from_iterable(docs), repeat(-1)),
                      dtype=dtype, count=int(lengths.sum()))
    keys = np.repeat(np.arange(n, dtype=dtype) * dims, lengths)
    keys += ids
    keys, first, tf = np.unique(keys[ids >= 0], return_index=True, return_counts=True)
    row, dim = np.divmod(keys, max(dims, 1))
    return TermCounts(n_docs=n, dims=dims, row=row, dim=dim, first=first, tf=tf)


def compute_idf(terms: TermCounts) -> IdfModel:
    """Document frequencies over the collection the vectors will come from:
    the number of documents that hold each dimension."""
    if terms.n_docs == 0:
        raise ConfigError("IDF is undefined over an empty collection")
    doc_freq = np.bincount(terms.dim, minlength=terms.dims)
    # math.log, not np.log, which may round the last bit differently
    idf = [idf_value(terms.n_docs, df) for df in doc_freq.tolist()]
    return IdfModel(collection_size=terms.n_docs, doc_freq=doc_freq,
                    idf=np.array(idf, dtype=np.float64))


def vectorize(urls: Sequence[str], terms: TermCounts, idf: IdfModel) -> VectorTable:
    """TF x IDF over the vocabulary, l2-normalized: row ``i`` of the table is
    the vector of document ``i`` of ``terms``, listed under ``urls[i]``.

    Documents with no vocabulary hits get the empty row; they can never
    match above a positive threshold. Each norm adds a document's squared
    weights in the order its dimensions first occur, as a per-document
    ``Counter`` loop would, so the weights are the same floats.
    """
    n = terms.n_docs
    weights = terms.tf * idf.idf[terms.dim]
    positive = weights > 0.0
    row, dim = terms.row[positive], terms.dim[positive]
    first, weights = terms.first[positive], weights[positive]
    order = np.argsort(first)
    squares = np.bincount(row[order], weights=weights[order] ** 2, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    return VectorTable(urls=list(urls), indptr=indptr, indices=dim.astype(np.int64),
                       data=weights / np.sqrt(squares)[row])


# --- file formats ---------------------------------------------------------


def save_vocabulary(vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(w + "\n" for w in vocab.words)


def load_vocabulary(path) -> Vocabulary:
    return Vocabulary(words=[word for _lineno, word in read_lines(path)])


def save_idf(idf: IdfModel, vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#collection_size\t{idf.collection_size}\t0\n")
        fh.writelines(f"{word}\t{df}\t{value:.12g}\n" for word, df, value
                      in zip(vocab.words, idf.doc_freq.tolist(), idf.idf.tolist()))


_ARRAYS = (("indptr", np.int64), ("indices", np.int64), ("data", np.float64))


def save_vectors(table: VectorTable, path) -> None:
    """Save the table into the directory ``path`` as ``indptr.npy``,
    ``indices.npy``, ``data.npy`` (weights at full precision) and
    ``urls.txt``, one URL per line."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for name, dtype in _ARRAYS:
        np.save(path / f"{name}.npy", np.asarray(getattr(table, name), dtype=dtype),
                allow_pickle=False)
    with open(path / "urls.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(url + "\n" for url in table.urls)


def load_vectors(path) -> VectorTable:
    """Inverse of ``save_vectors``: the same arrays, bit for bit. A file
    that does not fit the layout raises ``FormatError`` naming it."""
    path = Path(path)
    arrays = {name: read_array(path / f"{name}.npy", dtype) for name, dtype in _ARRAYS}
    urls = [url for _lineno, url in read_lines(path / "urls.txt")]
    indptr, indices, data = arrays["indptr"], arrays["indices"], arrays["data"]
    if len(indptr) != len(urls) + 1:
        raise FormatError(f"{path}: indptr.npy holds {len(indptr)} offsets for the "
                          f"{len(urls)} URLs of urls.txt")
    if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
        raise FormatError(f"{path / 'indptr.npy'}: offsets must start at 0 and never decrease")
    if not indptr[-1] == len(indices) == len(data):
        raise FormatError(f"{path}: indptr.npy ends at {indptr[-1]}, but indices.npy "
                          f"holds {len(indices)} entries and data.npy {len(data)}")
    return VectorTable(urls=urls, indptr=indptr, indices=indices, data=data)
