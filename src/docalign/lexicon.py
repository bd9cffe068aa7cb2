"""Lexical translation tables and the pivot lexicon alignment.

A lexicon alignment pairs every pivot word with the non-pivot word that
maximizes the summed bidirectional translation probability, and derives
from those pairs a one-to-one token map used to rewrite non-pivot
documents into the pivot lexicon.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Container, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import DocumentRecord
from .errors import ConfigError, FormatError, UsageError
from .textfile import read_lines

log = logging.getLogger(__name__)


class TranslationTable(NamedTuple):
    """Directed lexical translation probabilities between vocabulary ids:
    P(src[i] -> tgt[i]) = prob[i], each (src, tgt) pair once."""

    src: np.ndarray  # int64
    tgt: np.ndarray  # int64
    prob: np.ndarray  # float64


class PairScores(NamedTuple):
    """S(a, b) = P_fwd(a -> b) + P_bwd(b -> a) between vocabulary ids: pivot
    word ``pivot[i]`` and other word ``other[i]`` score ``score[i]``, each
    pair once."""

    pivot: np.ndarray  # int64
    other: np.ndarray  # int64
    score: np.ndarray  # float64


class Embeddings(NamedTuple):
    """Word vectors: row ``i`` of ``vectors`` belongs to ``words[i]``, and
    every word is listed once."""

    words: list[str]
    vectors: np.ndarray  # float64, one row per word


@dataclass
class LexiconAlignment:
    """Word pairs (pivot, other) plus the derived other -> pivot token map and
    the score S of each mapped pair."""

    other_lang: str
    pairs: set[tuple[str, str]] = field(default_factory=set)
    to_pivot: dict[str, str] = field(default_factory=dict)
    scores: dict[str, float] = field(default_factory=dict)


def load_translation_table(path, src_index: Mapping[str, int],
                           tgt_index: Mapping[str, int]) -> TranslationTable:
    """Read a TSV table ``src \\t tgt \\t prob``. Every line is checked, but
    only entries whose words are both in the vocabularies ``src_index`` and
    ``tgt_index`` (word -> id) are kept; later duplicates win."""
    width = len(tgt_index)
    probs: dict[int, float] = {}  # src id * width + tgt id -> probability
    for lineno, (src, tgt, raw) in read_lines(path, 3):
        try:
            p = float(raw)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-numeric probability {raw!r}") from None
        if not 0.0 <= p <= 1.0:  # nan included
            raise FormatError(f"{path}:{lineno}: probability {p} outside [0, 1]")
        i = src_index.get(src)
        if i is not None:
            j = tgt_index.get(tgt)
            if j is not None:
                probs[i * width + j] = p
    keys = np.fromiter(probs, dtype=np.int64, count=len(probs))
    return TranslationTable(*np.divmod(keys, max(width, 1)),
                            np.fromiter(probs.values(), dtype=np.float64, count=len(probs)))


def load_embeddings(path) -> Embeddings:
    """Word vectors in the common text format: ``count dim`` header, then
    ``count`` lines ``word v1 ... vdim``, which may end in a space as in
    fastText's ``.vec`` files; a word listed twice keeps its last vector. A
    file with another number of non-blank rows, or with no non-zero vector
    (no translation probability), is a ``FormatError``. The rows are read
    into one matrix, so a row with the wrong number of fields is reported
    before a bad value on an earlier row."""
    lines = read_lines(path, skip_blank=False)  # the header is line 1, even blank
    header = next(lines, (1, ""))[1].split()
    try:
        count, dim = map(int, header)
    except ValueError:
        raise FormatError(f"{path}:1: bad embeddings header {header!r}, "
                          "expected 'count dim'") from None
    words: list[str] = []
    linenos: list[int] = []
    values: list[str] = []
    for lineno, line in lines:
        if not line:
            continue
        parts = line.rstrip(" ").split(" ")
        if len(parts) != dim + 1:
            raise FormatError(f"{path}:{lineno}: expected {dim} values for {parts[0]!r}")
        words.append(parts[0])
        linenos.append(lineno)
        values += parts[1:]
    try:
        vectors = np.asarray(values, dtype=np.float64).reshape(len(words), dim)
    except ValueError:
        for row, lineno in enumerate(linenos):  # the first row that does not parse
            try:
                np.asarray(values[row * dim:(row + 1) * dim], dtype=np.float64)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
        raise
    # one nan makes every probability of the other direction nan
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise FormatError(f"{path}:{linenos[row]}: non-finite value in the vector "
                          f"for {words[row]!r}")
    if len(words) != count:  # a cut-off download
        raise FormatError(f"{path}: the header counts {count} words, "
                          f"the file has {len(words)}")
    if not vectors.any():
        raise FormatError(f"{path}: no word has a non-zero vector")
    last = {word: row for row, word in enumerate(words)}
    if len(last) < len(words):
        words, vectors = list(last), vectors[list(last.values())]
    return Embeddings(words, vectors)


def _unit_vectors(emb: Embeddings) -> tuple[list[str], np.ndarray]:
    """The words with a non-zero vector in sorted order, and their vectors,
    each divided by its own ``np.linalg.norm``."""
    order = sorted(range(len(emb.words)), key=emb.words.__getitem__)
    vectors = emb.vectors[order]
    norms = np.array([np.linalg.norm(v) for v in vectors], dtype=np.float64)
    nonzero = norms != 0
    if not nonzero.all():
        log.warning("skipped %d zero-vector embedding words",
                    len(order) - int(nonzero.sum()))
    words = [emb.words[i] for i, keep in zip(order, nonzero.tolist()) if keep]
    return words, vectors[nonzero] / norms[nonzero, None]


def _directional_table(
    src_ids: np.ndarray,
    src_mat: np.ndarray,
    tgt_ids: np.ndarray,
    tgt_mat: np.ndarray,
    top_n: int,
) -> TranslationTable:
    """The table of the rows with a vocabulary id (``src_ids`` and
    ``tgt_ids`` hold -1 for a word outside the vocabulary). Each row keeps
    its ``top_n`` over every target word, in- or outside the vocabulary, so
    its probabilities are those of the whole embedding space; entries of
    targets outside the vocabulary are dropped after that."""
    rows = np.flatnonzero(src_ids >= 0)
    # the full product, then its rows: a product of fewer rows may round
    # differently
    sims = (src_mat @ tgt_mat.T)[rows]
    k = min(top_n, len(tgt_ids))
    if k < len(tgt_ids):
        top = np.argpartition(-sims, k - 1, axis=1)[:, :k]
    else:
        top = np.broadcast_to(np.arange(len(tgt_ids)), sims.shape)
    kept = np.clip(np.take_along_axis(sims, top, axis=1), 0.0, None)
    totals = kept.sum(axis=1)
    usable = totals > 0
    probs = (kept[usable] / totals[usable, None]).ravel()
    src = np.repeat(src_ids[rows[usable]], k)
    tgt = tgt_ids[top[usable]].ravel()
    inside = tgt >= 0
    return TranslationTable(src[inside], tgt[inside], probs[inside])


def table_from_embeddings(
    emb_src: Embeddings,
    emb_tgt: Embeddings,
    src_index: Mapping[str, int],
    tgt_index: Mapping[str, int],
    top_n: int,
    src_lang: str = "src",
    tgt_lang: str = "tgt",
) -> tuple[TranslationTable, TranslationTable]:
    """Translation probabilities from normalized embedding cosine similarity.

    Per source word: cosine to every target word, keep the top_n, clamp
    negatives to 0 and renormalize to sum 1. Both directions are built
    independently. Returns (src->tgt, tgt->src) between the vocabulary ids
    of ``src_index`` and ``tgt_index`` (word -> id); the other words still
    compete for each row's top_n. A side with no non-zero vector is a
    ``FormatError``.
    """
    if top_n < 1:
        raise ConfigError(f"top_n must be >= 1, got {top_n}")
    src_words, src_mat = _unit_vectors(emb_src)
    tgt_words, tgt_mat = _unit_vectors(emb_tgt)
    for lang, words in ((src_lang, src_words), (tgt_lang, tgt_words)):
        if not words:
            raise FormatError(f"no {lang} embedding word has a non-zero vector")
    if src_mat.shape[1] != tgt_mat.shape[1]:
        raise FormatError(
            f"embedding spaces disagree: {src_mat.shape[1]} vs {tgt_mat.shape[1]} dims"
        )
    src_ids = np.array([src_index.get(w, -1) for w in src_words], dtype=np.int64)
    tgt_ids = np.array([tgt_index.get(w, -1) for w in tgt_words], dtype=np.int64)
    return (_directional_table(src_ids, src_mat, tgt_ids, tgt_mat, top_n),
            _directional_table(tgt_ids, tgt_mat, src_ids, src_mat, top_n))


def pair_scores(fwd: TranslationTable, bwd: TranslationTable) -> PairScores:
    """S(a, b) = P_fwd(a, b) + P_bwd(b, a) for every (pivot, other) pair with
    an entry in either table; a missing entry counts as probability 0."""
    width = 1 + int(max(fwd.tgt.max(initial=-1), bwd.src.max(initial=-1)))
    keys, inverse = np.unique(np.concatenate([fwd.src * width + fwd.tgt,
                                              bwd.tgt * width + bwd.src]),
                              return_inverse=True)
    # each sum starts at 0.0 and adds P_fwd before P_bwd, as 0.0 + p + q
    score = np.bincount(inverse, weights=np.concatenate([fwd.prob, bwd.prob]),
                        minlength=len(keys))
    return PairScores(*np.divmod(keys, width), score)


def _best_for_pivot(scores: PairScores) -> np.ndarray:
    """Indices of the entries with a positive score that is the largest
    of their pivot word's, ties included."""
    positive = np.flatnonzero(scores.score > 0.0)
    best = np.zeros(int(scores.pivot.max(initial=-1)) + 1)
    np.maximum.at(best, scores.pivot[positive], scores.score[positive])
    return positive[scores.score[positive] == best[scores.pivot[positive]]]


def build_alignment(
    scores: PairScores,
    other_lang: str,
    pivot_words: Sequence[str],
    other_words: Sequence[str],
) -> LexiconAlignment:
    """Pair every pivot word a with the argmax over b of S(a, b), keeping
    ties; pairs with max score 0 are dropped. ``scores`` is the
    ``pair_scores`` table of the two translation tables, over the ids of
    the vocabularies ``pivot_words`` and ``other_words``.

    to_pivot keeps, for each non-pivot word, the single best pivot word
    (ties to the lexicographically smaller one), and scores its S.
    """
    if not pivot_words or not other_words:
        raise ConfigError("alignment vocabularies must be non-empty")
    best = _best_for_pivot(scores)
    pivot, other, score = scores.pivot[best], scores.other[best], scores.score[best]
    rank = np.empty(len(pivot_words), dtype=np.int64)
    rank[sorted(range(len(pivot_words)), key=pivot_words.__getitem__)] = \
        np.arange(len(pivot_words))
    # each other word maps to its best pivot word, ties to the lexicographically first
    order = np.lexsort((rank[pivot], -score, other))
    mapped = order[np.flatnonzero(np.diff(other[order], prepend=-1))]
    mapped_others = [other_words[b] for b in other[mapped].tolist()]
    return LexiconAlignment(
        other_lang=other_lang,
        pairs={(pivot_words[a], other_words[b])
               for a, b in zip(pivot.tolist(), other.tolist())},
        to_pivot=dict(zip(mapped_others, [pivot_words[a] for a in pivot[mapped].tolist()])),
        scores=dict(zip(mapped_others, score[mapped].tolist())),
    )


def reverse_condition_violations(scores: PairScores) -> int:
    """Diagnostic: the pairs (a, b) of ``build_alignment`` over ``scores``
    for which some other pivot word w beats a on S(w, b). The forward
    construction does not guarantee this count is zero for arbitrary
    tables."""
    best = _best_for_pivot(scores)
    column_max = np.zeros(int(scores.other.max(initial=-1)) + 1)
    np.maximum.at(column_max, scores.other, scores.score)
    return int(np.count_nonzero(scores.score[best] < column_max[scores.other[best]]))


def map_document(doc: DocumentRecord, align: LexiconAlignment) -> list[str]:
    """Rewrite a non-pivot document into pivot tokens, dropping unmapped ones."""
    if doc.lang != align.other_lang:
        raise UsageError(
            f"document language {doc.lang!r} does not match alignment "
            f"language {align.other_lang!r}"
        )
    to_pivot = align.to_pivot
    return [to_pivot[t] for t in doc.tokens if t in to_pivot]


def save_alignment(align: LexiconAlignment, path) -> None:
    """TSV ``other \t pivot \t score`` sorted by other word, the score at 9
    significant digits; reproducible."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{b}\t{align.to_pivot[b]}\t{align.scores[b]:.9g}\n"
                      for b in sorted(align.to_pivot))


def load_alignment(path, other_lang: str, pivot_vocab: Container[str]) -> LexiconAlignment:
    """Inverse of ``save_alignment``. Every pivot word must be in
    ``pivot_vocab``: a lexicon built against another pivot vocabulary would
    map words outside the vector space. A score that is not a finite number
    is a ``FormatError`` naming the file and line."""
    pairs: set[tuple[str, str]] = set()
    to_pivot: dict[str, str] = {}
    scores: dict[str, float] = {}
    for lineno, (b, a, raw) in read_lines(path, 3):
        if a not in pivot_vocab:
            raise FormatError(
                f"{path}:{lineno}: pivot word {a!r} is not in the pivot vocabulary"
            )
        try:
            score = float(raw)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: score {raw!r} is not a number") from None
        if not np.isfinite(score):
            raise FormatError(f"{path}:{lineno}: score {raw!r} is not a finite number")
        pairs.add((a, b))
        to_pivot[b] = a
        scores[b] = score
    return LexiconAlignment(other_lang=other_lang, pairs=pairs, to_pivot=to_pivot,
                            scores=scores)
