"""Recall scoring of predicted alignments against a set of gold pairs."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .align_cda import AlignmentPair
from .corpus import domain_of
from .errors import FormatError, UsageError
from .textfile import read_lines


# Gold (pivot_url, other_url) pairs, URLs lowercased, each mapped to the
# domain of its pivot URL: each non-pivot page has one pivot partner, and a
# pivot page one partner per language.
Gold = dict[tuple[str, str], str]


@dataclass
class RecallReport:
    recall: float
    found: int
    total: int
    per_domain: dict[str, dict[str, int]]


def load_gold(path) -> Gold:
    """TSV ``pivot_url \\t other_url``; URLs lowercased for comparison. A
    pivot URL may be on several lines, one per language of its counterparts;
    a non-pivot URL on one line only, and no URL on both sides. A file with
    no pair is a ``FormatError``: recall over it is undefined. Each pair
    maps to the domain of its pivot URL, the domain it is reported under."""
    pairs: Gold = {}
    pivots: set[str] = set()
    others: set[str] = set()
    for lineno, (purl, ourl) in read_lines(path, 2):
        purl, ourl = purl.lower(), ourl.lower()
        if ourl in others:
            raise FormatError(f"{path}:{lineno}: URL {ourl!r} appears in two gold pairs")
        pivots.add(purl)
        others.add(ourl)
        for u in (purl, ourl):
            if u in pivots and u in others:
                raise FormatError(f"{path}:{lineno}: URL {u!r} is both a pivot and "
                                  "a non-pivot URL")
        pairs[(purl, ourl)] = domain_of(purl)
    if not pairs:
        raise FormatError(f"{path}: no gold pairs")
    return pairs


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
    gold: Mapping[tuple[str, str], str],
    enforce_one_to_one: bool = True,
) -> RecallReport:
    """Percentage of gold pairs present in the (1-1 filtered) predictions,
    per domain too: ``gold`` maps each pair to its domain, as ``load_gold``
    returns it.

    URLs are compared by exact string equality after lowercasing:
    ``load_gold`` lowercases the gold pairs and this function the predicted
    ones. Ingest keeps URLs as they are.
    """
    if not gold:
        raise UsageError("gold set is empty; recall is undefined")
    pairs = list(predicted)
    if enforce_one_to_one:
        pairs = refilter_one_to_one(pairs)
    predicted_set = {(p.pivot_url.lower(), p.other_url.lower()) for p in pairs}
    totals: Counter[str] = Counter()
    found: Counter[str] = Counter()
    for pair, domain in gold.items():
        totals[domain] += 1
        found[domain] += pair in predicted_set
    hits = sum(found.values())
    per_domain = {dom: {"found": found[dom], "total": total}
                  for dom, total in sorted(totals.items())}
    return RecallReport(
        recall=100.0 * hits / len(gold),
        found=hits,
        total=len(gold),
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
