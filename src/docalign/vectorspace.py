"""Pivot vocabulary, IDF and l2-normalized TF-IDF sparse vectors.

Both corpus passes (vocabulary counting, document frequencies) run on
token id arrays; the resulting models are immutable. ``build_vocabulary``
counts a language's token ids with ``np.bincount``. ``count_terms``
counts every (document, dimension) key of one language's documents, given
as arrays of dimensions, in bounded chunks of documents;
``compute_idf`` and ``vectorize`` both read those counts, and ``vectorize``
projects the documents in one call, as array operations, into one array
table (``VectorTable``). Each language's table is saved as its CSR arrays
in ``.npy`` files and read back into the same table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, FormatError
from .textfile import read_array, read_lines

# The most documents that ``count_terms`` counts at once: it works in chunks
# of rows, so its int32 keys and temporary arrays stay small however many
# documents a language has.
CHUNK_ROWS = 1024
# The most token ids that ``build_vocabulary`` counts at once.
CHUNK_IDS = 1 << 18


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
    ``tf[i]`` times."""

    n_docs: int
    dims: int
    row: np.ndarray
    dim: np.ndarray
    tf: np.ndarray


@dataclass
class VectorTable:
    """The vectors of one language as CSR arrays.

    Row ``i``, the vector of document ``i`` in the order ``vectorize`` was
    given them, holds dimensions ``indices[indptr[i]:indptr[i + 1]]`` in
    stored (ascending) order, with weights ``data[indptr[i]:indptr[i + 1]]``.
    """

    indptr: np.ndarray  # int64, one offset per row plus one
    indices: np.ndarray  # int64 dimensions
    data: np.ndarray  # float64 weights

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def rows(self, start: int, stop: int) -> "VectorTable":
        """Rows ``start:stop`` as a table over views of ``indices`` and ``data``."""
        lo, hi = self.indptr[start], self.indptr[stop]
        return VectorTable(indptr=self.indptr[start:stop + 1] - lo,
                           indices=self.indices[lo:hi], data=self.data[lo:hi])


def build_vocabulary(
    ids: np.ndarray,
    words: Sequence[str],
    skip_top_k: int,
    capacity: int,
    stopwords: Optional[set[str]] = None,
) -> Vocabulary:
    """Rank the words that the token ids ``ids`` index in ``words``, a list
    of distinct words, by their number of ids (ties lexicographic), drop the
    stoplist, drop the next skip_top_k most frequent, keep ``capacity``."""
    if skip_top_k < 0:
        raise ConfigError("skip_top_k must be >= 0")
    if capacity <= 0:
        raise ConfigError("capacity must be > 0")
    # in slices: np.bincount copies the ids it counts into an int64 array
    counts = np.zeros(len(words), dtype=np.int64)
    for start in range(0, len(ids), CHUNK_IDS):
        counts += np.bincount(ids[start:start + CHUNK_IDS], minlength=len(words))
    present = [i for i in np.flatnonzero(counts).tolist()
               if not stopwords or words[i] not in stopwords]
    present.sort(key=words.__getitem__)
    # a stable sort by count keeps equal counts in word order
    ranked = np.argsort(-counts[present], kind="stable")[skip_top_k:skip_top_k + capacity]
    return Vocabulary(words=[words[present[i]] for i in ranked.tolist()])


def lookup_array(index: Mapping[str, int], words: Sequence[str]) -> np.ndarray:
    """The int32 id in ``index`` (word -> id) of each of ``words``, -1 for a
    word it lacks: indexed by token ids over ``words``, the array maps them
    to those ids."""
    return np.fromiter(map(index.get, words, repeat(-1)), dtype=np.int32, count=len(words))


def idf_value(collection_size: int, doc_freq: int) -> float:
    return math.log(1.0 + collection_size / (1.0 + doc_freq))


def count_terms(docs: Iterable[np.ndarray], dims: int) -> TermCounts:
    """Count each (document, dimension) key of ``docs``, one array of
    dimensions below ``dims`` per document; entries below 0, tokens outside
    the vocabulary, are dropped. The documents are counted CHUNK_ROWS at a
    time, each chunk in one ``np.unique`` over int32 keys."""
    docs = iter(docs)
    width = max(dims, 1)
    # a chunk's keys row * dims + dim, its rows counted from 0, fit int32
    step = max(1, min(CHUNK_ROWS, 2**31 // width))
    columns: tuple[list[np.ndarray], ...] = ([], [], [])  # row, dim, tf
    n = 0
    while chunk := list(islice(docs, step)):
        lengths = np.fromiter(map(len, chunk), dtype=np.int64, count=len(chunk))
        dim = np.concatenate(chunk).astype(np.int32, copy=False)
        keys = np.repeat(np.arange(len(chunk), dtype=np.int32) * width, lengths)
        keys += dim
        unique, tf = np.unique(keys[dim >= 0], return_counts=True)
        row, dim = np.divmod(unique, width)
        for column, part in zip(columns, (row + n, dim, tf)):
            column.append(part)
        n += len(chunk)
    row, dim, tf = map(_joined, columns)
    return TermCounts(n_docs=n, dims=dims, row=row, dim=dim, tf=tf)


def _joined(chunks: list[np.ndarray]) -> np.ndarray:
    """The chunks concatenated, with the list emptied, so that they are
    freed before the next column is joined."""
    joined = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    chunks.clear()
    return joined


def compute_idf(terms: TermCounts) -> IdfModel:
    """Document frequencies over the collection the vectors will come from:
    the number of documents that hold each dimension. Over no document every
    dimension has doc_freq 0 and idf 0."""
    doc_freq = np.bincount(terms.dim, minlength=terms.dims)
    # math.log, not np.log, which may round the last bit differently
    idf = [idf_value(terms.n_docs, df) for df in doc_freq.tolist()]
    return IdfModel(collection_size=terms.n_docs, doc_freq=doc_freq,
                    idf=np.array(idf, dtype=np.float64))


def vectorize(terms: TermCounts, idf: IdfModel) -> VectorTable:
    """TF x IDF over the vocabulary, l2-normalized: row ``i`` of the table is
    the vector of document ``i`` of ``terms``.

    Documents with no vocabulary hits get the empty row; they can never
    match above a positive threshold. Each norm adds a document's squared
    weights in ascending dimension order, the order in which
    ``align_cda.score_domain`` adds a pair's products.
    """
    n = terms.n_docs
    row, dim = terms.row, terms.dim
    weights = idf.idf[dim]
    weights *= terms.tf
    positive = weights > 0.0
    if not positive.all():  # only an idf of 0 or below drops an entry
        row, dim, weights = (a[positive] for a in (row, dim, weights))
    # np.bincount adds each row's squares from 0.0 in stored order
    weights /= np.sqrt(np.bincount(row, weights=weights * weights, minlength=n))[row]
    indptr = np.searchsorted(row, np.arange(n + 1, dtype=row.dtype))
    return VectorTable(indptr=indptr, indices=dim.astype(np.int64), data=weights)


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
    ``indices.npy`` and ``data.npy`` (weights at full precision)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for name, dtype in _ARRAYS:
        np.save(path / f"{name}.npy", np.asarray(getattr(table, name), dtype=dtype),
                allow_pickle=False)


def load_vectors(path) -> VectorTable:
    """Inverse of ``save_vectors``: the same arrays, bit for bit. A file
    that does not fit the layout raises ``FormatError`` naming it."""
    path = Path(path)
    indptr, indices, data = (read_array(path / f"{name}.npy", dtype)
                             for name, dtype in _ARRAYS)
    if not len(indptr) or indptr[0] != 0 or np.any(np.diff(indptr) < 0):
        raise FormatError(f"{path / 'indptr.npy'}: offsets must start at 0 and never decrease")
    if not indptr[-1] == len(indices) == len(data):
        raise FormatError(f"{path}: indptr.npy ends at {indptr[-1]}, but indices.npy "
                          f"holds {len(indices)} entries and data.npy {len(data)}")
    return VectorTable(indptr=indptr, indices=indices, data=data)
