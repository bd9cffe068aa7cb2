"""Lexical translation tables and the pivot lexicon alignment.

A lexicon alignment pairs every pivot word with the non-pivot word that
maximizes the summed bidirectional translation probability, and derives
from those pairs a one-to-one token map used to rewrite non-pivot
documents into the pivot lexicon.
"""

from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Container, Iterable, Mapping, Sequence

import numpy as np

from .corpus import DocumentRecord
from .errors import ConfigError, FormatError, UsageError

log = logging.getLogger(__name__)


@dataclass
class TranslationTable:
    """Directed lexical translation probabilities P(src -> tgt)."""

    src_lang: str
    tgt_lang: str
    probs: dict[tuple[str, str], float] = field(default_factory=dict)

    def by_src(self) -> dict[str, list[str]]:
        index: dict[str, list[str]] = defaultdict(list)
        for (s, t) in self.probs:
            index[s].append(t)
        return index

    def by_tgt(self) -> dict[str, list[str]]:
        index: dict[str, list[str]] = defaultdict(list)
        for (s, t) in self.probs:
            index[t].append(s)
        return index

    def row_sum_violations(self, tol: float = 1e-6) -> list[str]:
        """Source words whose outgoing probabilities sum above 1 + tol.

        IBM-1 tables are proper conditional distributions; embedding-derived
        tables satisfy this by construction.
        """
        sums: dict[str, float] = defaultdict(float)
        for (s, _t), p in self.probs.items():
            sums[s] += p
        return sorted(s for s, total in sums.items() if total > 1.0 + tol)


@dataclass
class LexiconAlignment:
    """Word pairs (pivot, other) plus the derived other -> pivot token map."""

    pivot_lang: str
    other_lang: str
    pairs: set[tuple[str, str]] = field(default_factory=set)
    to_pivot: dict[str, str] = field(default_factory=dict)


def load_translation_table(path, src_lang: str, tgt_lang: str) -> TranslationTable:
    """Read a TSV table ``src \\t tgt \\t prob``; later duplicates win."""
    if not src_lang or not tgt_lang:
        raise ConfigError("translation table needs both language tags")
    probs: dict[tuple[str, str], float] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(
                    f"{path}:{lineno}: expected 3 fields, got {len(parts)}"
                )
            src, tgt, raw = parts
            try:
                p = float(raw)
            except ValueError:
                raise FormatError(
                    f"{path}:{lineno}: non-numeric probability {raw!r}"
                ) from None
            if not (0.0 <= p <= 1.0) or math.isnan(p):
                raise FormatError(
                    f"{path}:{lineno}: probability {p} outside [0, 1]"
                )
            probs[(src, tgt)] = p
    return TranslationTable(src_lang=src_lang, tgt_lang=tgt_lang, probs=probs)


def load_embeddings(path) -> dict[str, np.ndarray]:
    """Word vectors in the common text format: ``count dim`` header, then
    ``word v1 ... vdim`` per line."""
    vectors: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise FormatError(f"{path}: bad embeddings header {header!r}")
        dim = int(header[1])
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise FormatError(
                    f"{path}:{lineno}: expected {dim} values for {parts[0]!r}"
                )
            vectors[parts[0]] = np.asarray(parts[1:], dtype=np.float64)
    return vectors


def _directional_table(
    src: Sequence[str],
    src_mat: np.ndarray,
    tgt: Sequence[str],
    tgt_mat: np.ndarray,
    src_lang: str,
    tgt_lang: str,
    top_n: int,
) -> TranslationTable:
    sims = src_mat @ tgt_mat.T
    probs: dict[tuple[str, str], float] = {}
    k = min(top_n, len(tgt))
    for i, word in enumerate(src):
        row = sims[i]
        top = np.argpartition(-row, k - 1)[:k] if k < len(tgt) else np.arange(len(tgt))
        kept = np.clip(row[top], 0.0, None)
        total = kept.sum()
        if total <= 0:
            continue
        for j, score in zip(top, kept):
            probs[(word, tgt[j])] = float(score / total)
    return TranslationTable(src_lang=src_lang, tgt_lang=tgt_lang, probs=probs)


def table_from_embeddings(
    emb_src: Mapping[str, np.ndarray],
    emb_tgt: Mapping[str, np.ndarray],
    top_n: int = 20,
    src_lang: str = "src",
    tgt_lang: str = "tgt",
) -> tuple[TranslationTable, TranslationTable]:
    """Translation probabilities from normalized embedding cosine similarity.

    Per source word: cosine to every target word, keep the top_n, clamp
    negatives to 0 and renormalize to sum 1. Both directions are built
    independently. Returns (src->tgt, tgt->src).
    """

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
    if src_mat.size and tgt_mat.size and src_mat.shape[1] != tgt_mat.shape[1]:
        raise FormatError(
            f"embedding spaces disagree: {src_mat.shape[1]} vs {tgt_mat.shape[1]} dims"
        )
    fwd = _directional_table(src_words, src_mat, tgt_words, tgt_mat,
                             src_lang, tgt_lang, top_n)
    bwd = _directional_table(tgt_words, tgt_mat, src_words, src_mat,
                             tgt_lang, src_lang, top_n)
    return fwd, bwd


def build_alignment(
    p_fwd: TranslationTable,
    p_bwd: TranslationTable,
    v_alpha: Iterable[str],
    v_beta: Iterable[str],
) -> LexiconAlignment:
    """Pair every pivot word a with the argmax over b of
    P_fwd(a, b) + P_bwd(b, a); pairs with max score 0 are dropped.

    Missing table entries count as probability 0. to_pivot keeps, for each
    non-pivot word, the single best pivot word (ties to the lexicographically
    smaller one).
    """
    alpha = set(v_alpha)
    beta = set(v_beta)
    if not alpha or not beta:
        raise ConfigError("alignment vocabularies must be non-empty")

    fwd_by_src = p_fwd.by_src()
    bwd_by_tgt = p_bwd.by_tgt()  # pivot word -> non-pivot words with P_bwd(b, a) > 0

    pairs: set[tuple[str, str]] = set()
    best_for_other: dict[str, tuple[float, str]] = {}
    for a in sorted(alpha):
        candidates = set(fwd_by_src.get(a, ())) | set(bwd_by_tgt.get(a, ()))
        candidates &= beta
        if not candidates:
            continue
        best = 0.0
        best_bs: list[str] = []
        for b in sorted(candidates):
            s = p_fwd.probs.get((a, b), 0.0) + p_bwd.probs.get((b, a), 0.0)
            if s > best:
                best, best_bs = s, [b]
            elif s == best and best > 0.0:
                best_bs.append(b)
        for b in best_bs:
            pairs.add((a, b))
            s = best
            cur = best_for_other.get(b)
            if cur is None or s > cur[0] or (s == cur[0] and a < cur[1]):
                best_for_other[b] = (s, a)

    to_pivot = {b: a for b, (_s, a) in best_for_other.items()}
    return LexiconAlignment(
        pivot_lang=p_fwd.src_lang,
        other_lang=p_fwd.tgt_lang,
        pairs=pairs,
        to_pivot=to_pivot,
    )


def reverse_condition_violations(
    align: LexiconAlignment,
    p_fwd: TranslationTable,
    p_bwd: TranslationTable,
    v_alpha: Iterable[str],
) -> int:
    """Diagnostic: pairs (a, b) for which some other pivot word w beats a on
    P_fwd(w, b) + P_bwd(b, w). The forward construction does not guarantee
    this count is zero for arbitrary tables.

    Probabilities are non-negative, so a pivot word with neither entry
    scores 0 and cannot beat a; only the words that have an entry for b
    are tried, which costs O(table entries) rather than O(pairs x pivot
    vocabulary)."""
    alpha = set(v_alpha)
    fwd_by_tgt = p_fwd.by_tgt()
    bwd_by_src = p_bwd.by_src()
    violations = 0
    for a, b in align.pairs:
        s_ab = p_fwd.probs.get((a, b), 0.0) + p_bwd.probs.get((b, a), 0.0)
        rivals = [*fwd_by_tgt.get(b, ()), *bwd_by_src.get(b, ())]
        if any(w in alpha
               and p_fwd.probs.get((w, b), 0.0) + p_bwd.probs.get((b, w), 0.0) > s_ab
               for w in rivals):
            violations += 1
    return violations


def map_document(doc: DocumentRecord, align: LexiconAlignment) -> list[str]:
    """Rewrite a non-pivot document into pivot tokens, dropping unmapped ones."""
    if doc.lang != align.other_lang:
        raise UsageError(
            f"document language {doc.lang!r} does not match alignment "
            f"language {align.other_lang!r}"
        )
    to_pivot = align.to_pivot
    return [to_pivot[t] for t in doc.tokens if t in to_pivot]


def save_alignment(align: LexiconAlignment, p_fwd: TranslationTable,
                   p_bwd: TranslationTable, path) -> None:
    """TSV ``other \\t pivot \\t score`` sorted by other word; reproducible."""
    rows = []
    for b in sorted(align.to_pivot):
        a = align.to_pivot[b]
        s = p_fwd.probs.get((a, b), 0.0) + p_bwd.probs.get((b, a), 0.0)
        rows.append(f"{b}\t{a}\t{s:.9g}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(rows)


def load_alignment(path, pivot_lang: str, other_lang: str,
                   pivot_vocab: Container[str]) -> LexiconAlignment:
    """Inverse of ``save_alignment``. Every pivot word must be in
    ``pivot_vocab``: a lexicon built against another pivot vocabulary would
    map words outside the vector space."""
    pairs: set[tuple[str, str]] = set()
    to_pivot: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 fields")
            b, a, _score = parts
            if a not in pivot_vocab:
                raise FormatError(
                    f"{path}:{lineno}: pivot word {a!r} is not in the pivot vocabulary"
                )
            pairs.add((a, b))
            to_pivot[b] = a
    return LexiconAlignment(
        pivot_lang=pivot_lang, other_lang=other_lang,
        pairs=pairs, to_pivot=to_pivot,
    )
