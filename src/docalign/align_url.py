"""URL-matching baseline: documents align when their URLs become equal
after removing a language identifier token.

Each domain is processed independently with no shared state.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable

from .align_cda import AlignmentPair
from .corpus import CorpusPartition
from .errors import ConfigError

SEPARATORS = "/_-.=?&"

# Identifiers may contain '-' or '_' (locale forms like fr-fr, vi_vn) and are
# matched as joined token spans; the remaining separators are forbidden.
_FORBIDDEN_IN_ID = set(SEPARATORS) - {"-", "_"}

_SPLIT_RE = re.compile("([" + re.escape(SEPARATORS) + "])")

# A span of up to 3 tokens covers locale forms like zh-hans-cn.
_MAX_SPAN_TOKENS = 3


@dataclass(frozen=True)
class IdentifierSet:
    """Lowercase identifier strings, and the first token of each: its part
    before the first separator, where a matching token span must start."""

    identifiers: frozenset[str] = frozenset()
    heads: frozenset[str] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.identifiers:
            raise ConfigError("identifier set must be non-empty")
        for ident in self.identifiers:
            if not ident or ident != ident.lower():
                raise ConfigError(f"identifier {ident!r} must be lowercase and non-empty")
            if any(c in _FORBIDDEN_IN_ID for c in ident):
                raise ConfigError(f"identifier {ident!r} contains a separator character")
        object.__setattr__(self, "identifiers", frozenset(self.identifiers))
        object.__setattr__(self, "heads", frozenset(
            _SPLIT_RE.split(ident, maxsplit=1)[0] for ident in self.identifiers))

    def __contains__(self, token: str) -> bool:
        return token in self.identifiers


def load_identifier_set(path) -> IdentifierSet:
    """One identifier per line; '#' comments and blank lines ignored."""
    idents: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                idents.add(line.lower())
    return IdentifierSet(identifiers=idents)


def default_identifier_set() -> IdentifierSet:
    with resources.as_file(
        resources.files("docalign.data").joinpath("identifiers.txt")
    ) as path:
        return load_identifier_set(path)


def _split_host(url: str) -> tuple[str, str]:
    """Split a lowercased URL into (scheme+host, path+query)."""
    rest = url
    scheme = ""
    if "://" in rest:
        scheme, rest = rest.split("://", 1)
        scheme += "://"
    m = re.search(r"[/?]", rest)
    if m:
        return scheme + rest[: m.start()], rest[m.start() :]
    return scheme + rest, ""


def _drop_query_param(url: str, ids: IdentifierSet) -> set[str]:
    """Variants with one whole query parameter removed when its value (or the
    bare token itself) is an identifier."""
    base, sep, query = url.partition("?")
    if not sep or not query:
        return set()
    params = query.split("&")
    out: set[str] = set()
    for i, param in enumerate(params):
        value = param.partition("=")[2] if "=" in param else param
        if value in ids:
            remaining = params[:i] + params[i + 1 :]
            out.add(base + ("?" + "&".join(remaining) if remaining else ""))
    return out


def _strip_token_spans(prefix: str, tail: str, ids: IdentifierSet) -> set[str]:
    parts = _SPLIT_RE.split(tail)
    out: set[str] = set()
    n = len(parts)
    heads = ids.heads
    for i in range(0, n, 2):
        if parts[i] not in heads:
            continue
        for j in range(i, min(i + 2 * _MAX_SPAN_TOKENS, n), 2):
            if not parts[j]:
                break
            # inner separators of a multi-token span must be - or _
            if j > i and any(parts[k] not in "-_" for k in range(i + 1, j, 2)):
                break
            span = "".join(parts[i : j + 1])
            if span not in ids:
                continue
            left = parts[i - 1] if i > 0 else None
            right = parts[j + 1] if j + 1 < n else None
            before = parts[: max(i - 1, 0)]
            after = parts[j + 2 :]
            if left is not None and right is not None:
                # doubled separator collapses to one; distinct ones both stay
                mid = [left] if left == right else [left, right]
            else:
                # span at an edge: the dangling separator goes too
                mid = []
            out.add(prefix + "".join(before + mid + after))
    return out


def strip_identifiers(
    url: str,
    ids: IdentifierSet,
    strip_query_params: bool = True,
    strip_hostname: bool = False,
) -> set[str]:
    """All normalized forms of a URL: the lowercased original plus every
    variant with one identifier token removed (one at a time)."""
    lowered = url.strip().lower()
    forms = {lowered}
    host, tail = _split_host(lowered)
    forms |= _strip_token_spans(host, tail, ids)
    if strip_query_params:
        forms |= _drop_query_param(lowered, ids)
    if strip_hostname:
        scheme = ""
        bare = host
        if "://" in bare:
            scheme, bare = bare.split("://", 1)
            scheme += "://"
        for variant in _strip_token_spans("", bare, ids):
            forms.add(scheme + variant.strip(".") + tail)
    return forms


def match_urls(
    partition: CorpusPartition,
    pivot_lang: str,
    other_lang: str,
    ids: IdentifierSet,
    strip_query_params: bool = True,
    strip_hostname: bool = False,
) -> list[AlignmentPair]:
    """Match documents whose normalized URL forms intersect; 1-1 enforced by
    first-match-wins in lexicographic URL order. Pairs carry score 1."""

    def forms(u: str) -> set[str]:
        return strip_identifiers(
            u, ids,
            strip_query_params=strip_query_params,
            strip_hostname=strip_hostname,
        )

    index: dict[str, str] = {}
    for doc in sorted(partition.docs(pivot_lang), key=lambda d: d.url):
        for form in sorted(forms(doc.url)):
            index.setdefault(form, doc.url)

    taken_pivot: set[str] = set()
    out: list[AlignmentPair] = []
    for doc in sorted(partition.docs(other_lang), key=lambda d: d.url):
        candidates = sorted(
            {
                index[form]
                for form in forms(doc.url)
                if form in index and index[form] not in taken_pivot
            }
        )
        if not candidates:
            continue
        pivot_url = candidates[0]
        taken_pivot.add(pivot_url)
        out.append(
            AlignmentPair(
                domain=partition.domain,
                pivot_url=pivot_url,
                other_url=doc.url,
                other_lang=other_lang,
                score=1.0,
                method="url",
            )
        )
    return out


def align_corpus_by_url(
    partitions: dict[str, CorpusPartition],
    pivot_lang: str,
    langs: Iterable[str],
    ids: IdentifierSet,
    **kwargs,
) -> list[AlignmentPair]:
    pairs: list[AlignmentPair] = []
    for domain in sorted(partitions):
        for lang in sorted(langs):
            if lang == pivot_lang:
                continue
            pairs.extend(
                match_urls(partitions[domain], pivot_lang, lang, ids, **kwargs)
            )
    return pairs
