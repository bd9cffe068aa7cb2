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
from .errors import ConfigError

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
    if len(a) == len(b):
        diffs = [(x, y) for x, y in zip(a, b) if x != y]
        if len(diffs) == 1:
            return diffs[0]
        return None
    if abs(len(a) - len(b)) != 1:
        return None
    longer, shorter, flip = (a, b, False) if len(a) > len(b) else (b, a, True)
    i = 0
    while i < len(shorter) and longer[i] == shorter[i]:
        i += 1
    if longer[i + 1 :] != shorter[i:]:
        return None
    token = longer[i]
    return (token, "") if not flip else ("", token)


def mine_identifiers(
    pairs: Iterable[AlignmentPair],
    min_support: int = 1,
) -> list[tuple[str, str, int]]:
    """Candidate (pivot token, other token, support) triples from URL pairs
    whose token sequences are one substitution or one insertion/deletion
    (the missing side reported as "") apart.

    Only content-aligned pairs are informative; URL-aligned pairs are skipped.
    Output is sorted by descending support, then token pair. A
    ``min_support`` below 1 is a ``ConfigError``.
    """
    if min_support < 1:
        raise ConfigError(f"min_support must be an integer >= 1, got {min_support!r}")
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
