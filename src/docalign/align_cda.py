"""Content-based document alignment: dot-product scoring over the shared
pivot space plus greedy one-to-one matching.

Each (domain, other-language) block is scored and matched independently of
every other block; ``align_corpus`` visits the blocks in sorted order and
concatenates their matches, so its output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .corpus import CorpusPartition
from .errors import ConfigError
from .vectorspace import SparseVector


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
    """Sparse pairwise scores for one domain and one other language."""

    domain: str
    other_lang: str
    scores: dict[tuple[str, str], float] = field(default_factory=dict)
    scored_pairs: int = 0  # candidate pairs actually evaluated


def score_pair(v1: SparseVector, v2: SparseVector) -> float:
    """Dot product over shared dimensions; in [0, 1] for normalized vectors."""
    a, b = v1.entries, v2.entries
    if len(a) > len(b):
        a, b = b, a
    lookup = dict(b)
    return sum(w * lookup[dim] for dim, w in a if dim in lookup)


def score_domain(
    partition: CorpusPartition,
    vectors: Mapping[str, SparseVector],
    pivot_lang: str,
    other_lang: str,
    threshold: float,
) -> ScoreMatrix:
    """Score every candidate pair in a domain via an inverted index.

    Pairs sharing no vocabulary dimension are never materialized; entries
    below the threshold are not stored.
    """
    matrix = ScoreMatrix(domain=partition.domain, other_lang=other_lang)
    pivot_docs = partition.docs(pivot_lang)
    other_docs = partition.docs(other_lang)
    if not pivot_docs or not other_docs:
        return matrix

    postings: dict[int, list[tuple[str, float]]] = {}
    for doc in pivot_docs:
        vec = vectors.get(doc.url)
        if vec is None:
            continue
        for dim, w in vec.entries:
            postings.setdefault(dim, []).append((doc.url, w))

    for doc in other_docs:
        vec = vectors.get(doc.url)
        if vec is None:
            continue
        acc: dict[str, float] = {}
        for dim, w in vec.entries:
            for purl, pw in postings.get(dim, ()):
                acc[purl] = acc.get(purl, 0.0) + w * pw
        matrix.scored_pairs += len(acc)
        for purl, s in acc.items():
            if s >= threshold and s > 0.0:
                matrix.scores[(purl, doc.url)] = s
    return matrix


def match_one_to_one(matrix: ScoreMatrix) -> list[AlignmentPair]:
    """Greedy competitive linking over the stored entries.

    Entries are taken in descending score order (ties by URL pair); an entry
    is accepted iff neither endpoint is matched yet.
    """
    entries = sorted(
        matrix.scores.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1])
    )
    taken_pivot: set[str] = set()
    taken_other: set[str] = set()
    out: list[AlignmentPair] = []
    for (purl, ourl), score in entries:
        if purl in taken_pivot or ourl in taken_other:
            continue
        taken_pivot.add(purl)
        taken_other.add(ourl)
        out.append(
            AlignmentPair(
                domain=matrix.domain,
                pivot_url=purl,
                other_url=ourl,
                other_lang=matrix.other_lang,
                score=score,
            )
        )
    return out


def match_top1_then_greedy(matrix: ScoreMatrix) -> list[AlignmentPair]:
    """Variant: keep each pivot document's single best candidate first, then
    resolve collisions with the same greedy pass."""
    best: dict[str, tuple[float, str]] = {}
    for (purl, ourl), score in matrix.scores.items():
        cur = best.get(purl)
        if cur is None or score > cur[0] or (score == cur[0] and ourl < cur[1]):
            best[purl] = (score, ourl)
    pruned = ScoreMatrix(
        domain=matrix.domain,
        other_lang=matrix.other_lang,
        scores={(p, o): s for p, (s, o) in best.items()},
        scored_pairs=matrix.scored_pairs,
    )
    return match_one_to_one(pruned)


_MATCHERS = {
    "greedy": match_one_to_one,
    "top1-then-greedy": match_top1_then_greedy,
}


def align_corpus(
    partitions: Mapping[str, CorpusPartition],
    vectors: Mapping[str, Mapping[str, SparseVector]],
    pivot_lang: str,
    langs: Iterable[str],
    threshold: float,
    matching: str = "greedy",
    stats: dict | None = None,
) -> list[AlignmentPair]:
    """Align every (domain, other-language) block independently.

    A pivot document matches at most one document per other language but may
    appear across languages. ``vectors`` maps lang -> url -> vector; the
    pivot language must be present too. When ``stats`` is given, it receives
    ``scored_pairs`` and ``possible_pairs`` totals.
    """
    langs = sorted(langs)
    if matching not in _MATCHERS:
        raise ConfigError(f"unknown matching mode {matching!r}")
    for lang in [pivot_lang, *langs]:
        if lang not in vectors:
            raise ConfigError(f"no vectors supplied for language {lang!r}")
    matcher = _MATCHERS[matching]

    merged_vectors: dict[str, SparseVector] = {}
    for lang in [pivot_lang, *langs]:
        merged_vectors.update(vectors[lang])

    pairs: list[AlignmentPair] = []
    scored = 0
    possible = 0
    for domain in sorted(partitions):
        part = partitions[domain]
        for lang in langs:
            if lang == pivot_lang:
                continue
            matrix = score_domain(part, merged_vectors, pivot_lang, lang, threshold)
            pairs.extend(matcher(matrix))
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
    out: list[AlignmentPair] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            domain, purl, ourl, lang, score, method = line.split("\t")
            out.append(
                AlignmentPair(
                    domain=domain,
                    pivot_url=purl,
                    other_url=ourl,
                    other_lang=lang,
                    score=float(score),
                    method=method,
                )
            )
    return out
