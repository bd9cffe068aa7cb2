"""Recall scoring of predicted alignments against a 1-1 gold set."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

from .align_cda import AlignmentPair
from .corpus import domain_of
from .errors import FormatError, UsageError
from .textfile import read_lines


@dataclass
class GoldSet:
    """Gold (pivot_url, other_url) pairs; 1-1 by construction."""

    pairs: set[tuple[str, str]]
    per_domain: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.per_domain:
            counts: dict[str, int] = defaultdict(int)
            for purl, _ourl in self.pairs:
                counts[domain_of(purl)] += 1
            self.per_domain = dict(counts)


@dataclass
class RecallReport:
    recall: float
    found: int
    total: int
    per_domain: dict[str, dict[str, int]]

    def as_dict(self) -> dict:
        return {
            "recall": self.recall,
            "found": self.found,
            "total": self.total,
            "per_domain": self.per_domain,
        }


def load_gold(path) -> GoldSet:
    """TSV ``pivot_url \\t other_url``; URLs lowercased for comparison."""
    pairs: set[tuple[str, str]] = set()
    seen: set[str] = set()
    for lineno, (purl, ourl) in read_lines(path, 2):
        purl, ourl = purl.lower(), ourl.lower()
        for u in (purl, ourl):
            if u in seen:
                raise FormatError(f"{path}:{lineno}: URL {u!r} appears in two gold pairs")
            seen.add(u)
        pairs.add((purl, ourl))
    return GoldSet(pairs=pairs)


def refilter_one_to_one(pairs: Iterable[AlignmentPair]) -> list[AlignmentPair]:
    """Greedy 1-1 filter by descending score within each non-pivot language:
    a pivot page keeps one partner per language, as ``align_corpus`` links
    it. Idempotent on such input."""
    taken_pivot: set[tuple[str, str]] = set()
    taken_other: set[tuple[str, str]] = set()
    out: list[AlignmentPair] = []
    ordered = sorted(pairs, key=lambda p: (-p.score, p.pivot_url, p.other_url))
    for p in ordered:
        pivot, other = (p.other_lang, p.pivot_url), (p.other_lang, p.other_url)
        if pivot in taken_pivot or other in taken_other:
            continue
        taken_pivot.add(pivot)
        taken_other.add(other)
        out.append(p)
    return out


def evaluate_recall(
    predicted: Iterable[AlignmentPair],
    gold: GoldSet,
    enforce_one_to_one: bool = True,
) -> RecallReport:
    """Percentage of gold pairs present in the (1-1 filtered) predictions.

    URLs are compared by exact string equality after lowercasing:
    ``load_gold`` lowercases the gold pairs and this function the predicted
    ones. Ingest keeps URLs as they are.
    """
    if not gold.pairs:
        raise UsageError("gold set is empty; recall is undefined")
    pairs = list(predicted)
    if enforce_one_to_one:
        pairs = refilter_one_to_one(pairs)
    predicted_set = {(p.pivot_url.lower(), p.other_url.lower()) for p in pairs}
    hits = predicted_set & gold.pairs

    found_per_domain: dict[str, int] = defaultdict(int)
    for purl, _ourl in hits:
        found_per_domain[domain_of(purl)] += 1
    per_domain = {
        dom: {"found": found_per_domain.get(dom, 0), "total": total}
        for dom, total in sorted(gold.per_domain.items())
    }
    return RecallReport(
        recall=100.0 * len(hits) / len(gold.pairs),
        found=len(hits),
        total=len(gold.pairs),
        per_domain=per_domain,
    )


def format_report(report: RecallReport) -> str:
    lines = [
        f"recall@1: {report.recall:.2f}%  ({report.found}/{report.total} gold pairs)",
        "",
        f"{'domain':<40} {'found':>6} {'total':>6}",
    ]
    for dom, row in report.per_domain.items():
        lines.append(f"{dom:<40} {row['found']:>6} {row['total']:>6}")
    return "\n".join(lines)
