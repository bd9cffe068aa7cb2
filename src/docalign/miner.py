"""Mine candidate language identifiers from content-aligned URL pairs.

Aligned URLs that differ in exactly one token usually differ in their
language marker; the differing tokens are emitted for human curation and,
once approved, feed the URL aligner's identifier file.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable

from .align_cda import AlignmentPair

# '-' and '_' stay inside tokens so compound identifiers (vi_vn, zh-hans)
# survive as single candidates.
MINER_SEPARATORS = "/.=?&"

_SPLIT_RE = re.compile("[" + re.escape(MINER_SEPARATORS) + "]+")


def _url_tokens(url: str) -> list[str]:
    lowered = url.strip().lower()
    if "://" in lowered:
        lowered = lowered.split("://", 1)[1]
    return [t for t in _SPLIT_RE.split(lowered) if t]


def _one_token_diff(a: list[str], b: list[str]) -> tuple[str, str] | None:
    """The tokens left of ``a`` and of ``b`` once their common prefix and
    suffix are cut, each "" if none is, when at most one is left on each
    side and not zero on both; None otherwise."""
    n = min(len(a), len(b))
    i = j = 0
    while i < n and a[i] == b[i]:
        i += 1
    while j < n - i and a[-1 - j] == b[-1 - j]:
        j += 1
    left, right = a[i:len(a) - j], b[i:len(b) - j]
    if max(len(left), len(right)) != 1:
        return None
    return "".join(left), "".join(right)  # one token or none on each side


def mine_identifiers(
    pairs: Iterable[AlignmentPair],
    min_support: int = 1,
) -> list[tuple[str, str, int]]:
    """Candidate (pivot token, other token, support) triples from URL pairs
    whose token sequences are one substitution or one insertion/deletion
    (the missing side reported as "") apart.

    Only content-aligned pairs are informative; URL-aligned pairs are skipped.
    Output is sorted by descending support, then token pair.
    """
    counts: Counter[tuple[str, str]] = Counter()
    for pair in pairs:
        if pair.method != "cda":
            continue
        diff = _one_token_diff(_url_tokens(pair.pivot_url), _url_tokens(pair.other_url))
        if diff is not None:
            counts[diff] += 1
    return sorted(
        ((a, b, n) for (a, b), n in counts.items() if n >= min_support),
        key=lambda row: (-row[2], row[0], row[1]),
    )


def save_candidates(candidates: list[tuple[str, str, int]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for a, b, n in candidates:
            fh.write(f"{a}\t{b}\t{n}\n")
