"""Content-based document alignment: dot-product scoring over the shared
pivot space plus greedy one-to-one matching.

Each (domain, other-language) block is scored and matched independently of
every other block; ``align_corpus`` visits the blocks in sorted order and
concatenates their matches, so its output is deterministic. Scoring and
matching run on the arrays of ``vectorspace.VectorTable``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

from .corpus import CorpusPartition, DocumentRecord
from .errors import ConfigError, FormatError
from .textfile import read_lines
from .vectorspace import VectorTable

# The most weight products, and pair sums, that ``score_domain`` holds at
# once: it scores a block in chunks of other-language documents under this
# budget, so its temporary arrays stay small however large the block. A
# document whose own products exceed it forms a chunk alone.
PRODUCT_BUDGET = 1 << 16

# ``match_one_to_one`` first ranks the FIRST_BAND * n highest-scoring
# entries of a block that can make n links, and ranks more only while links
# are missing. Greedy linking mostly ends within a few entries per link, so
# the first band spares a large block its full sort; a smaller one costs
# tiny blocks a second band more often than the partition saves.
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


def _rows(table: VectorTable, docs: list[DocumentRecord]) -> np.ndarray:
    """Table rows of the documents that have a vector, in document order."""
    row = table.row
    return np.array([row[d.url] for d in docs if d.url in row], dtype=np.int64)


def _entries(table: VectorTable, rows: np.ndarray):
    """The entries of ``rows`` in row order: (owner position in ``rows``,
    dimension, weight) arrays plus each row's entry offsets."""
    starts = table.indptr[rows]
    lengths = table.indptr[rows + 1] - starts
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    pos = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], lengths)
    owner = np.repeat(np.arange(len(rows)), lengths)
    return owner, table.indices[pos], table.data[pos], offsets


def score_domain(
    partition: CorpusPartition,
    vectors: Mapping[str, VectorTable],
    pivot_lang: str,
    other_lang: str,
    threshold: float,
) -> ScoreMatrix:
    """Score every candidate pair of a domain through an inverted index.

    Pairs sharing no vocabulary dimension are never materialized; entries
    below the threshold are not stored. Documents without a vector take no
    part. Each pair's score adds its products in the order of the other
    document's dimensions, starting from 0.0, so every score is exactly the
    sum a per-pair accumulation loop would give.
    """
    matrix = ScoreMatrix(domain=partition.domain, other_lang=other_lang)
    pivot_docs = partition.docs(pivot_lang)
    other_docs = partition.docs(other_lang)
    if not pivot_docs or not other_docs:
        return matrix
    p_table, o_table = vectors[pivot_lang], vectors[other_lang]
    p_rows, o_rows = _rows(p_table, pivot_docs), _rows(o_table, other_docs)
    matrix.pivot_urls = [p_table.urls[r] for r in p_rows.tolist()]
    matrix.other_urls = [o_table.urls[r] for r in o_rows.tolist()]
    n_pivot, n_other = len(p_rows), len(o_rows)
    if not n_pivot or not n_other:
        return matrix

    # postings: the pivot entries grouped by dimension, in document order
    p_owner, p_dim, p_w, _ = _entries(p_table, p_rows)
    by_dim = np.argsort(p_dim, kind="stable")
    post_doc, post_dim, post_w = p_owner[by_dim], p_dim[by_dim], p_w[by_dim]

    # each other entry's postings: post_dim[first:first + hits]
    o_owner, o_dim, o_w, o_offsets = _entries(o_table, o_rows)
    first = np.searchsorted(post_dim, o_dim, side="left")
    hits = np.searchsorted(post_dim, o_dim, side="right") - first
    # products of the other documents before each one, and of all of them
    row_products = np.concatenate(([0], np.cumsum(hits)))[o_offsets]

    # a pair is other * n_pivot + pivot; a chunk of documents r0:r1 sums
    # pairs r0 * n_pivot up to r1 * n_pivot
    rows_per_chunk = max(1, PRODUCT_BUDGET // n_pivot)
    kept_pairs, kept_scores = [], []
    r0 = 0
    while r0 < n_other:
        r1 = int(np.searchsorted(row_products, row_products[r0] + PRODUCT_BUDGET,
                                 side="right")) - 1
        r1 = min(max(r1, r0 + 1), r0 + rows_per_chunk, n_other)
        e0, e1 = o_offsets[r0], o_offsets[r1]
        n = hits[e0:e1]
        # every (other entry, posting of its dimension) product, in
        # other-entry order; bincount adds each pair's products in that order
        post = np.arange(n.sum()) + np.repeat(first[e0:e1] - (np.cumsum(n) - n), n)
        prod = np.repeat(o_w[e0:e1], n) * post_w[post]
        pair = np.repeat(o_owner[e0:e1] - r0, n) * n_pivot + post_doc[post]
        bins = (r1 - r0) * n_pivot
        scored = np.flatnonzero(np.bincount(pair, minlength=bins))
        sums = np.bincount(pair, weights=prod, minlength=bins)[scored]
        matrix.scored_pairs += len(scored)
        keep = (sums >= threshold) & (sums > 0.0)
        kept_pairs.append(scored[keep] + r0 * n_pivot)
        kept_scores.append(sums[keep])
        r0 = r1
    pairs = np.concatenate(kept_pairs)
    matrix.pivot, matrix.other = pairs % n_pivot, pairs // n_pivot
    matrix.scores = np.concatenate(kept_scores)
    return matrix


def _url_ranks(urls: list[str]) -> np.ndarray:
    """Each URL's position in sorted order."""
    ranks = np.empty(len(urls), dtype=np.int64)
    ranks[sorted(range(len(urls)), key=urls.__getitem__)] = np.arange(len(urls))
    return ranks


def _ranked(matrix: ScoreMatrix, entries: np.ndarray | None = None) -> np.ndarray:
    """Entry indices by descending score, ties by pivot URL, then other URL:
    of every entry, or of those in ``entries``."""
    pivot, other, scores = matrix.pivot, matrix.other, matrix.scores
    if entries is not None:
        pivot, other, scores = pivot[entries], other[entries], scores[entries]
    order = np.lexsort((
        _url_ranks(matrix.other_urls)[other],
        _url_ranks(matrix.pivot_urls)[pivot],
        -scores,
    ))
    return order if entries is None else entries[order]


def _bands(matrix: ScoreMatrix, k: int) -> Iterator[np.ndarray]:
    """``_ranked(matrix)`` one band at a time. A band holds the ``k``
    highest-scoring entries not yet ranked plus every tie of the lowest of
    them, and ``k`` doubles from band to band. Every score of a band exceeds
    every score left after it, so the bands concatenate to the full order."""
    scores = matrix.scores
    if len(scores) <= k:  # the common tiny block: no gathers, no partition
        yield _ranked(matrix)
        return
    rest = np.arange(len(scores))
    while len(rest) > k:
        left = scores[rest]
        cut = np.partition(left, len(rest) - k)[len(rest) - k]
        yield _ranked(matrix, rest[left >= cut])
        rest = rest[left < cut]
        k *= 2
    if len(rest):
        yield _ranked(matrix, rest)


def _link(matrix: ScoreMatrix, bands: Iterable[np.ndarray]) -> list[AlignmentPair]:
    """Accept entries, band by band in order, whose two endpoints are both
    unmatched; stop once the smaller side is matched."""
    n_pivot, n_other = len(matrix.pivot_urls), len(matrix.other_urls)
    taken_pivot = bytearray(n_pivot)
    taken_other = bytearray(n_other)
    limit = min(n_pivot, n_other)
    out: list[AlignmentPair] = []
    for order in bands:
        for p, o, score in zip(matrix.pivot[order].tolist(),
                               matrix.other[order].tolist(),
                               matrix.scores[order].tolist()):
            if taken_pivot[p] or taken_other[o]:
                continue
            taken_pivot[p] = taken_other[o] = 1
            out.append(
                AlignmentPair(
                    domain=matrix.domain,
                    pivot_url=matrix.pivot_urls[p],
                    other_url=matrix.other_urls[o],
                    other_lang=matrix.other_lang,
                    score=score,
                )
            )
            if len(out) == limit:
                return out
    return out


def match_one_to_one(matrix: ScoreMatrix) -> list[AlignmentPair]:
    """Greedy competitive linking over the stored entries.

    Entries are taken in descending score order (ties by URL pair); an entry
    is accepted iff neither endpoint is matched yet. Only the score bands
    reached before the smaller side is matched are ranked.
    """
    limit = min(len(matrix.pivot_urls), len(matrix.other_urls))
    return _link(matrix, _bands(matrix, FIRST_BAND * limit))


def align_corpus(
    partitions: Mapping[str, CorpusPartition],
    vectors: Mapping[str, VectorTable],
    pivot_lang: str,
    langs: Iterable[str],
    threshold: float,
    stats: dict | None = None,
) -> list[AlignmentPair]:
    """Align every (domain, language) block independently; ``langs`` are the
    non-pivot languages.

    A pivot document matches at most one document per other language but may
    appear across languages. ``vectors`` maps lang -> vector table; the
    pivot language must be present too. When ``stats`` is given, it
    receives ``scored_pairs`` and ``possible_pairs`` totals.
    """
    langs = sorted(langs)
    for lang in [pivot_lang, *langs]:
        if lang not in vectors:
            raise ConfigError(f"no vectors supplied for language {lang!r}")

    pairs: list[AlignmentPair] = []
    scored = 0
    possible = 0
    for domain in sorted(partitions):
        part = partitions[domain]
        for lang in langs:
            matrix = score_domain(part, vectors, pivot_lang, lang, threshold)
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
