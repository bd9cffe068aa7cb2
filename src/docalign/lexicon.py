"""Lexical translation tables and the pivot lexicon alignment.

A lexicon alignment pairs every pivot word with the non-pivot word that
maximizes the summed bidirectional translation probability, and derives
from those pairs a one-to-one token map used to rewrite non-pivot
documents into the pivot lexicon.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Container, Iterable, Mapping, Sequence

import numpy as np

from .corpus import DocumentRecord
from .errors import ConfigError, FormatError, UsageError
from .textfile import read_lines

log = logging.getLogger(__name__)


# Directed lexical translation probabilities P(src -> tgt), keyed (src, tgt).
TranslationTable = dict[tuple[str, str], float]


@dataclass
class LexiconAlignment:
    """Word pairs (pivot, other) plus the derived other -> pivot token map and
    the score S of each mapped pair."""

    other_lang: str
    pairs: set[tuple[str, str]] = field(default_factory=set)
    to_pivot: dict[str, str] = field(default_factory=dict)
    scores: dict[str, float] = field(default_factory=dict)


def load_translation_table(path) -> TranslationTable:
    """Read a TSV table ``src \\t tgt \\t prob``; later duplicates win."""
    probs: TranslationTable = {}
    for lineno, (src, tgt, raw) in read_lines(path, 3):
        try:
            p = float(raw)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-numeric probability {raw!r}") from None
        if not (0.0 <= p <= 1.0) or math.isnan(p):
            raise FormatError(f"{path}:{lineno}: probability {p} outside [0, 1]")
        probs[(src, tgt)] = p
    return probs


def load_embeddings(path) -> dict[str, np.ndarray]:
    """Word vectors in the common text format: ``count dim`` header, then
    ``count`` lines ``word v1 ... vdim``, which may end in a space as in
    fastText's ``.vec`` files. A file with another number of non-blank rows,
    or with no non-zero vector (no translation probability), is a ``FormatError``."""
    vectors: dict[str, np.ndarray] = {}
    usable, rows = False, 0
    lines = read_lines(path, skip_blank=False)  # the header is line 1, even blank
    header = next(lines, (1, ""))[1].split()
    try:
        count, dim = map(int, header)
    except ValueError:
        raise FormatError(f"{path}:1: bad embeddings header {header!r}, "
                          "expected 'count dim'") from None
    for lineno, line in lines:
        if not line:
            continue
        rows += 1
        parts = line.rstrip(" ").split(" ")
        if len(parts) != dim + 1:
            raise FormatError(f"{path}:{lineno}: expected {dim} values for {parts[0]!r}")
        try:
            vector = np.asarray(parts[1:], dtype=np.float64)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        # one nan makes every probability of the other direction nan
        if not np.isfinite(vector).all():
            raise FormatError(
                f"{path}:{lineno}: non-finite value in the vector for {parts[0]!r}"
            )
        vectors[parts[0]] = vector
        usable = usable or vector.any()
    if rows != count:  # a cut-off download
        raise FormatError(f"{path}: the header counts {count} words, the file has {rows}")
    if not usable:
        raise FormatError(f"{path}: no word has a non-zero vector")
    return vectors


def _directional_table(
    src: Sequence[str],
    src_mat: np.ndarray,
    tgt: Sequence[str],
    tgt_mat: np.ndarray,
    top_n: int,
) -> TranslationTable:
    sims = src_mat @ tgt_mat.T
    k = min(top_n, len(tgt))
    if k < len(tgt):
        top = np.argpartition(-sims, k - 1, axis=1)[:, :k]
    else:
        top = np.broadcast_to(np.arange(len(tgt)), sims.shape)
    kept = np.clip(np.take_along_axis(sims, top, axis=1), 0.0, None)
    totals = kept.sum(axis=1)
    rows = np.flatnonzero(totals > 0)
    probs = (kept[rows] / totals[rows, None]).ravel().tolist()
    pairs = zip([src[i] for i in np.repeat(rows, k).tolist()],
                [tgt[j] for j in top[rows].ravel().tolist()])
    return dict(zip(pairs, probs))


def table_from_embeddings(
    emb_src: Mapping[str, np.ndarray],
    emb_tgt: Mapping[str, np.ndarray],
    top_n: int,
    src_lang: str = "src",
    tgt_lang: str = "tgt",
) -> tuple[TranslationTable, TranslationTable]:
    """Translation probabilities from normalized embedding cosine similarity.

    Per source word: cosine to every target word, keep the top_n, clamp
    negatives to 0 and renormalize to sum 1. Both directions are built
    independently. Returns (src->tgt, tgt->src). A side with no non-zero
    vector is a ``FormatError``.
    """
    if top_n < 1:
        raise ConfigError(f"top_n must be >= 1, got {top_n}")

    def prepare(emb):
        words, mat, skipped = [], [], 0
        dim = None
        for w in sorted(emb):
            v = np.asarray(emb[w], dtype=np.float64)
            if dim is None:
                dim = v.shape
            elif v.shape != dim:
                raise FormatError(
                    f"embedding dimensionality mismatch for {w!r}: "
                    f"{v.shape} vs {dim}"
                )
            norm = np.linalg.norm(v)
            if norm == 0:
                skipped += 1
                continue
            words.append(w)
            mat.append(v / norm)
        if skipped:
            log.warning("skipped %d zero-vector embedding words", skipped)
        return words, np.asarray(mat)

    src_words, src_mat = prepare(emb_src)
    tgt_words, tgt_mat = prepare(emb_tgt)
    for lang, words in ((src_lang, src_words), (tgt_lang, tgt_words)):
        if not words:
            raise FormatError(f"no {lang} embedding word has a non-zero vector")
    if src_mat.shape[1] != tgt_mat.shape[1]:
        raise FormatError(
            f"embedding spaces disagree: {src_mat.shape[1]} vs {tgt_mat.shape[1]} dims"
        )
    return (_directional_table(src_words, src_mat, tgt_words, tgt_mat, top_n),
            _directional_table(tgt_words, tgt_mat, src_words, src_mat, top_n))


def pair_scores(fwd: TranslationTable,
                bwd: TranslationTable) -> dict[tuple[str, str], float]:
    """S(a, b) = P_fwd(a, b) + P_bwd(b, a) for every (pivot, other) pair with
    an entry in either table; a missing entry counts as probability 0."""
    scores = {(a, b): p + bwd.get((b, a), 0.0) for (a, b), p in fwd.items()}
    for (b, a), p in bwd.items():
        if (a, b) not in scores:
            scores[(a, b)] = 0.0 + p  # 0.0 stands for the missing P_fwd(a, b)
    return scores


def build_alignment(
    scores: Mapping[tuple[str, str], float],
    other_lang: str,
    v_alpha: Iterable[str],
    v_beta: Iterable[str],
) -> LexiconAlignment:
    """Pair every pivot word a with the argmax over b of S(a, b), keeping
    ties; pairs with max score 0 are dropped. ``scores`` is the
    ``pair_scores`` table of the two translation tables.

    to_pivot keeps, for each non-pivot word, the single best pivot word
    (ties to the lexicographically smaller one), and scores its S.
    """
    alpha, beta = set(v_alpha), set(v_beta)
    if not alpha or not beta:
        raise ConfigError("alignment vocabularies must be non-empty")

    best_for_pivot: dict[str, tuple[float, list[str]]] = {}
    for (a, b), s in scores.items():
        if s > 0.0 and a in alpha and b in beta:
            cur = best_for_pivot.get(a)
            if cur is None or s > cur[0]:
                best_for_pivot[a] = (s, [b])
            elif s == cur[0]:
                cur[1].append(b)

    best_for_other: dict[str, tuple[float, str]] = {}
    for a, (s, bs) in best_for_pivot.items():
        for b in bs:
            cur = best_for_other.get(b)
            if cur is None or s > cur[0] or (s == cur[0] and a < cur[1]):
                best_for_other[b] = (s, a)

    return LexiconAlignment(
        other_lang=other_lang,
        pairs={(a, b) for a, (_s, bs) in best_for_pivot.items() for b in bs},
        to_pivot={b: a for b, (_s, a) in best_for_other.items()},
        scores={b: s for b, (s, _a) in best_for_other.items()},
    )


def reverse_condition_violations(
    align: LexiconAlignment,
    scores: Mapping[tuple[str, str], float],
    v_alpha: Iterable[str],
) -> int:
    """Diagnostic: pairs (a, b) for which some other pivot word w beats a on
    S(w, b), the ``pair_scores`` table that ``build_alignment`` took. The
    forward construction does not guarantee this count is zero for
    arbitrary tables.

    Scores are non-negative, so a pivot word with no table entry for b
    cannot beat a: each pair is checked against the largest S(w, b) over
    the table entries with w in v_alpha."""
    alpha = set(v_alpha)
    column_max: dict[str, float] = {}
    for (w, b), s in scores.items():
        if w in alpha and s > column_max.get(b, 0.0):
            column_max[b] = s
    return sum(scores.get(pair, 0.0) < column_max.get(pair[1], 0.0)
               for pair in align.pairs)


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
    map words outside the vector space."""
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
        pairs.add((a, b))
        to_pivot[b] = a
        scores[b] = score
    return LexiconAlignment(other_lang=other_lang, pairs=pairs, to_pivot=to_pivot,
                            scores=scores)
