"""Content-based document alignment: dot-product scoring over the shared
pivot space plus greedy one-to-one matching.

Each (domain, other-language) block is scored and matched independently of
every other block; ``align_corpus`` visits the blocks in sorted order and
concatenates their matches, so its output is deterministic. Scoring and
matching run on the arrays of ``vectorspace.VectorTable``.

``score_domain`` groups a block's pivot entries by dimension with one
stable sort, and finds each other-language entry's postings by counting:
a table of each dimension's first posting and posting count, built with
``np.bincount`` and a cumulative sum. Where the block's dimensions, counted
from 0, outnumber its entries, the table would cost more than it saves,
and the postings are found by binary search instead. ``match_one_to_one``
ranks and walks a block's entries one score band at a time: the
``FIRST_BAND`` highest per possible link with their ties, then twice as
many of the rest each time. It ranks the block's URLs once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .corpus import CorpusPartition, checked_langs
from .errors import ConfigError, FormatError
from .textfile import read_lines
from .vectorspace import VectorTable

# The most weight products, and pair sums, that ``score_domain`` holds at
# once: it scores a block in chunks of other-language documents under this
# budget, so its temporary arrays stay small however large the block. A
# document whose own products exceed it forms a chunk alone.
PRODUCT_BUDGET = 1 << 16

# ``match_one_to_one``'s first band, in entries per possible link. Greedy
# linking mostly ends within a few entries per link, so the first band
# spares a large block its full sort; a smaller one costs tiny blocks a
# second band more often than the partition saves.
FIRST_BAND = 4


@dataclass
class AlignmentPair:
    """A scored (pivot doc, other doc) match within one domain."""

    domain: str
    pivot_url: str
    other_url: str
    other_lang: str
    score: float
    method: str = "cda"  # "cda" | "url"


@dataclass
class ScoreMatrix:
    """The stored scores of one domain and one other language: entry ``k``
    scores ``pivot_urls[pivot[k]]`` against ``other_urls[other[k]]`` as
    ``scores[k]``."""

    domain: str
    other_lang: str
    pivot_urls: list[str] = field(default_factory=list)
    other_urls: list[str] = field(default_factory=list)
    # int64 indices into pivot_urls and other_urls, float64 scores
    pivot: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    other: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    scores: np.ndarray = field(default_factory=lambda: np.zeros(0))
    scored_pairs: int = 0  # candidate pairs actually evaluated


def _check_rows(table: VectorTable, lang: str, n_docs: int, where: str = "") -> None:
    """A ``FormatError`` unless ``table`` holds one row per document."""
    if len(table) != n_docs:
        raise FormatError(f"{where}vectors of language {lang!r} hold {len(table)} rows "
                          f"for its {n_docs} documents")


def score_domain(
    partition: CorpusPartition,
    vectors: Mapping[str, VectorTable],
    pivot_lang: str,
    other_lang: str,
    threshold: float,
) -> ScoreMatrix:
    """Score every candidate pair of a domain through an inverted index.

    Row ``i`` of ``vectors[lang]`` is ``partition.docs(lang)[i]``; a table
    of another length is a ``FormatError``. Pairs sharing no vocabulary
    dimension are never materialized; entries below the threshold are not
    stored. Each pair's score adds its products in the order of the other
    document's dimensions, starting from 0.0, so every score is exactly the
    sum a per-pair accumulation loop would give.

    Each other-language entry's postings, the pivot entries of its
    dimension, are found by counting the pivot entries per dimension, or by
    binary search where the block's dimensions outnumber its entries.
    Vector dimensions are ids from 0 up.
    """
    matrix = ScoreMatrix(domain=partition.domain, other_lang=other_lang)
    pivot_docs = partition.docs(pivot_lang)
    other_docs = partition.docs(other_lang)
    if not pivot_docs or not other_docs:
        return matrix
    p_table, o_table = vectors[pivot_lang], vectors[other_lang]
    _check_rows(p_table, pivot_lang, len(pivot_docs), f"{partition.domain}: ")
    _check_rows(o_table, other_lang, len(other_docs), f"{partition.domain}: ")
    matrix.pivot_urls = [d.url for d in pivot_docs]
    matrix.other_urls = [d.url for d in other_docs]
    n_pivot, n_other = len(pivot_docs), len(other_docs)

    # postings: the pivot entries grouped by dimension, in document order;
    # dimensions below 2**16 sort as 16-bit keys, which numpy sorts by radix
    p_dims, o_dims = p_table.indices, o_table.indices
    top = int(p_dims.max()) if len(p_dims) else -1  # the largest pivot dimension
    by_dim = (p_dims.astype(np.uint16) if top < 1 << 16 else p_dims).argsort(kind="stable")
    p_offsets = p_table.indptr
    post_doc = np.arange(n_pivot).repeat(p_offsets[1:] - p_offsets[:-1])[by_dim]
    post_w = p_table.data[by_dim]

    # each other entry's postings: post_doc[first:first + hits]. A table of
    # dimensions 0 to top costs a pass over its slots, so it is built only
    # where those are no more than the block's entries.
    if top < len(p_dims) + len(o_dims):
        # counted per dimension; slot top + 1 stands for every larger one
        count = np.bincount(p_dims, minlength=top + 2)
        start = count.cumsum()
        start -= count
        slot = np.minimum(o_dims, top + 1)
        first, hits = start[slot], count[slot]
    else:
        post_dim = p_dims[by_dim]
        first = post_dim.searchsorted(o_dims, side="left")
        hits = post_dim.searchsorted(o_dims, side="right")
        hits -= first

    o_offsets = o_table.indptr
    # each other entry's first pair: its document's row times n_pivot
    o_base = np.arange(0, n_other * n_pivot, n_pivot).repeat(o_offsets[1:] - o_offsets[:-1])

    # chunks of other documents bounds[i]:bounds[i + 1]; the pairs of
    # documents r0:r1 run from r0 * n_pivot up to r1 * n_pivot
    rows_per_chunk = max(1, PRODUCT_BUDGET // n_pivot)
    products = int(hits.sum())
    if n_other <= rows_per_chunk and products <= PRODUCT_BUDGET:
        bounds = [0, n_other]
    else:
        # products of the other documents before each one, and of all of them
        row_products = np.concatenate(([0], hits.cumsum()))[o_offsets]
        bounds = [0]
        while bounds[-1] < n_other:
            r0 = bounds[-1]
            r1 = int(row_products.searchsorted(row_products[r0] + PRODUCT_BUDGET,
                                               side="right")) - 1
            bounds.append(min(max(r1, r0 + 1), r0 + rows_per_chunk, n_other))
        products = int(np.diff(row_products[bounds]).max())
    # reused by every chunk: 0, 1, ... up to the largest chunk's products,
    # and room for its products and pairs, so that a chunk allocates little
    # fresh memory. take(..., mode="clip") writes straight into ``out``
    # (every index is in range, so nothing is clipped).
    counter = np.arange(products)
    post_w_of = np.empty(products)
    post_doc_of = np.empty(products, dtype=np.int64)

    # each chunk's kept pairs, other * n_pivot + pivot, and their sums
    kept_pairs, kept_sums = [], []
    for r0, r1 in zip(bounds, bounds[1:]):
        e0, e1 = o_offsets[r0], o_offsets[r1]
        n = hits[e0:e1]
        # every (other entry, posting of its dimension) product, in
        # other-entry order; bincount adds each pair's products in that
        # order. Product k of the chunk reads posting k - shift[entry].
        shift = n.cumsum()
        shift -= n
        shift -= first[e0:e1]
        post = shift.repeat(n)
        np.subtract(counter[:len(post)], post, out=post)
        prod = post_w.take(post, out=post_w_of[:len(post)], mode="clip")
        pair = post_doc.take(post, out=post_doc_of[:len(post)], mode="clip")
        del post  # its memory serves the two repeats below
        prod *= o_table.data[e0:e1].repeat(n)
        pair += (o_base[e0:e1] - r0 * n_pivot).repeat(n)
        bins = (r1 - r0) * n_pivot
        sums = np.bincount(pair, weights=prod, minlength=bins)
        # a pair whose products are all positive sums above 0.0; with any
        # other product, count the pairs themselves
        positive = not len(prod) or prod.min() > 0.0
        matrix.scored_pairs += int(np.count_nonzero(
            sums if positive else np.bincount(pair, minlength=bins)))
        kept = np.flatnonzero((sums >= threshold) & (sums > 0.0))
        kept_pairs.append(kept + r0 * n_pivot)
        kept_sums.append(sums[kept])
    matrix.other, matrix.pivot = np.divmod(np.concatenate(kept_pairs), n_pivot)
    matrix.scores = np.concatenate(kept_sums)
    return matrix


def _url_ranks(urls: list[str]) -> np.ndarray:
    """Each URL's position in sorted order."""
    ranks = np.empty(len(urls), dtype=np.int64)
    ranks[sorted(range(len(urls)), key=urls.__getitem__)] = np.arange(len(urls))
    return ranks


def _ranked(matrix: ScoreMatrix, entries: np.ndarray,
            ranks: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``entries`` by descending score, ties by pivot URL, then other URL.
    ``ranks`` holds the ``_url_ranks`` of the pivot and of the other URLs."""
    pivot_ranks, other_ranks = ranks
    return entries[np.lexsort((other_ranks[matrix.other[entries]],
                               pivot_ranks[matrix.pivot[entries]], -matrix.scores[entries]))]


def match_one_to_one(matrix: ScoreMatrix) -> list[AlignmentPair]:
    """Greedy competitive linking over the stored entries.

    Entries are taken in descending score order (ties by URL pair); an entry
    is accepted iff neither endpoint is matched yet. They are ranked one band
    at a time, until the smaller side is matched: a band holds the ``k``
    highest-scoring entries left with every tie of the lowest of them, or
    every entry left when no more than ``k`` are, and ``k`` doubles from
    ``FIRST_BAND`` per possible link. Every score of a band exceeds every
    score left after it, so the bands walk the full order.
    """
    n_pivot, n_other = len(matrix.pivot_urls), len(matrix.other_urls)
    limit = min(n_pivot, n_other)
    ranks = _url_ranks(matrix.pivot_urls), _url_ranks(matrix.other_urls)
    taken_pivot, taken_other = bytearray(n_pivot), bytearray(n_other)
    out: list[AlignmentPair] = []
    rest = np.arange(len(matrix.scores))
    k = FIRST_BAND * limit
    while len(rest):
        band = rest
        if len(rest) > k:
            left = matrix.scores[rest]
            cut = np.partition(left, len(rest) - k)[len(rest) - k]
            band = rest[left >= cut]
        order = _ranked(matrix, band, ranks)
        for p, o, score in zip(matrix.pivot[order].tolist(),
                               matrix.other[order].tolist(),
                               matrix.scores[order].tolist()):
            if taken_pivot[p] or taken_other[o]:
                continue
            taken_pivot[p] = taken_other[o] = 1
            out.append(AlignmentPair(domain=matrix.domain, pivot_url=matrix.pivot_urls[p],
                                     other_url=matrix.other_urls[o],
                                     other_lang=matrix.other_lang, score=score))
            if len(out) == limit:
                return out
        if band is rest:  # the band held every entry left
            return out
        rest = rest[left < cut]
        k *= 2
    return out


def align_corpus(
    partitions: Mapping[str, CorpusPartition],
    vectors: Mapping[str, VectorTable],
    pivot_lang: str,
    langs: Iterable[str],
    threshold: float,
    stats: dict | None = None,
) -> list[AlignmentPair]:
    """Align every (domain, language) block independently; ``langs`` are the
    non-pivot languages, each once; any other ``langs`` is a ``ConfigError``.

    A pivot document matches at most one document per other language but may
    appear across languages. ``vectors`` maps each language, the pivot too,
    to its table, whose row ``i`` is the language's document ``i`` in corpus
    order (domains sorted, then ``docs(lang)``); a table of another length
    is a ``FormatError``. When ``stats`` is given, it receives
    ``scored_pairs`` and ``possible_pairs`` totals.
    """
    langs = checked_langs(pivot_lang, langs)
    start = dict.fromkeys([pivot_lang, *langs], 0)  # each table's next domain's first row
    for lang in start:
        if lang not in vectors:
            raise ConfigError(f"no vectors supplied for language {lang!r}")
        _check_rows(vectors[lang], lang, sum(len(p.docs(lang)) for p in partitions.values()))

    pairs: list[AlignmentPair] = []
    scored = possible = 0
    for domain in sorted(partitions):
        part = partitions[domain]
        block = {}
        for lang, row in start.items():
            start[lang] = row + len(part.docs(lang))
            block[lang] = vectors[lang].rows(row, start[lang])
        for lang in langs:
            matrix = score_domain(part, block, pivot_lang, lang, threshold)
            pairs.extend(match_one_to_one(matrix))
            possible += len(part.docs(pivot_lang)) * len(part.docs(lang))
            scored += matrix.scored_pairs
    if stats is not None:
        stats["scored_pairs"] = scored
        stats["possible_pairs"] = possible
    return pairs


def save_pairs(pairs: Iterable[AlignmentPair], path) -> None:
    """TSV ``domain pivot_url other_url other_lang score method``."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(
                f"{p.domain}\t{p.pivot_url}\t{p.other_url}\t{p.other_lang}\t"
                f"{p.score:.6f}\t{p.method}\n"
            )


def load_pairs(path) -> list[AlignmentPair]:
    """Inverse of ``save_pairs``; a malformed line, or a score that is not a
    finite number, is a ``FormatError`` naming the file and line."""
    out: list[AlignmentPair] = []
    for lineno, (domain, purl, ourl, lang, score, method) in read_lines(path, 6):
        try:
            value = float(score)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: score {score!r} is not a number") from None
        if not math.isfinite(value):
            raise FormatError(f"{path}:{lineno}: score {score!r} is not a finite number")
        out.append(AlignmentPair(domain=domain, pivot_url=purl, other_url=ourl,
                                 other_lang=lang, score=value, method=method))
    return out
