"""URL baseline: documents align when their URLs become equal
after removing a language identifier token.

Each domain is processed independently with no shared state. Within a
domain, ``align_corpus_by_url`` strips each pivot URL once: it builds the
domain's index of pivot URL forms a single time and matches every other
language against it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable

from .align_cda import AlignmentPair
from .corpus import CorpusPartition, checked_langs
from .errors import ConfigError, FormatError
from .textfile import read_lines

SEPARATORS = "/_-.=?&"

# Identifiers may contain '-' or '_' (locale forms like fr-fr, vi_vn) and are
# matched as joined token spans; the remaining separators are forbidden.
_FORBIDDEN_IN_ID = re.compile(
    "[" + re.escape(SEPARATORS.replace("-", "").replace("_", "")) + "]")

_SPLIT_RE = re.compile("([" + re.escape(SEPARATORS) + "])")
# Where the path or the query of a URL without its scheme starts.
_PATH_RE = re.compile(r"[/?]")

# A span of up to 3 tokens covers locale forms like zh-hans-cn.
_MAX_SPAN_TOKENS = 3


@dataclass(frozen=True)
class IdentifierSet:
    """Lowercase identifier strings, and the first token of each: its part
    before the first separator, where a span of identifier tokens must start."""

    identifiers: frozenset[str] = frozenset()
    heads: frozenset[str] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.identifiers:
            raise ConfigError("identifier set must be non-empty")
        for ident in self.identifiers:
            _check_identifier(ident)
        object.__setattr__(self, "identifiers", frozenset(self.identifiers))
        object.__setattr__(self, "heads", frozenset(
            _SPLIT_RE.split(ident, maxsplit=1)[0] for ident in self.identifiers))

    def __contains__(self, token: str) -> bool:
        return token in self.identifiers


def _check_identifier(ident: str) -> None:
    if not ident or ident != ident.lower():
        raise ConfigError(f"identifier {ident!r} must be lowercase and non-empty")
    if _FORBIDDEN_IN_ID.search(ident):
        raise ConfigError(f"identifier {ident!r} contains a separator character")


def load_identifier_set(path) -> IdentifierSet:
    """One identifier per line, lowercased; '#' comments and blank lines
    ignored. An identifier that breaks ``IdentifierSet``'s rule, and a file
    with none, is a ``FormatError`` naming the file (and the first bad line)."""
    first_line: dict[str, int] = {}
    for lineno, line in read_lines(path):
        if ident := line.split("#", 1)[0].strip().lower():
            first_line.setdefault(ident, lineno)
    if not first_line:
        raise FormatError(f"{path}: no identifiers")
    try:
        return IdentifierSet(identifiers=frozenset(first_line))
    except ConfigError:
        for ident, lineno in first_line.items():  # in line order: the first bad line
            try:
                _check_identifier(ident)
            except ConfigError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
        raise


def default_identifier_set() -> IdentifierSet:
    with resources.as_file(
        resources.files("docalign.data").joinpath("identifiers.txt")
    ) as path:
        return load_identifier_set(path)


def _split_host(url: str) -> tuple[str, str]:
    """Split a lowercased URL into (scheme+host, path+query)."""
    m = _PATH_RE.search(url, url.find("://") + 3 if "://" in url else 0)
    cut = m.start() if m else len(url)
    return url[:cut], url[cut:]


def _drop_query_param(url: str, ids: IdentifierSet) -> set[str]:
    """Variants with one whole query parameter removed when its value (or the
    bare token itself) is an identifier."""
    base, _, query = url.partition("?")
    if not query:
        return set()
    params = query.split("&")
    out: set[str] = set()
    for i, param in enumerate(params):
        if param.split("=", 1)[-1] in ids:
            remaining = params[:i] + params[i + 1 :]
            out.add(base + ("?" + "&".join(remaining) if remaining else ""))
    return out


def _strip_token_spans(prefix: str, tail: str, ids: IdentifierSet) -> set[str]:
    parts = _SPLIT_RE.split(tail)
    out: set[str] = set()
    for i in range(0, len(parts), 2):
        if parts[i] not in ids.heads:
            continue
        for j in range(i, min(i + 2 * _MAX_SPAN_TOKENS, len(parts)), 2):
            # tokens are non-empty; inner separators of a multi-token span are - or _
            if not parts[j] or (j > i and parts[j - 1] not in "-_"):
                break
            if "".join(parts[i : j + 1]) in ids:
                left, right = parts[i - 1 : i], parts[j + 1 : j + 2]
                # a doubled separator collapses to one and distinct ones both
                # stay; a span at an edge takes its dangling separator with it
                mid = (left if left == right else left + right) if left and right else []
                out.add(prefix + "".join(parts[: max(i - 1, 0)] + mid + parts[j + 2 :]))
    return out


def strip_identifiers(url: str, ids: IdentifierSet) -> set[str]:
    """All normalized forms of a URL: the lowercased original plus every
    variant with one identifier token, or one query parameter whose value is
    an identifier, removed (one at a time). The host is never changed."""
    lowered = url.strip().lower()
    host, tail = _split_host(lowered)
    return {lowered} | _strip_token_spans(host, tail, ids) | _drop_query_param(lowered, ids)


def pivot_index(partition: CorpusPartition, pivot_lang: str,
                ids: IdentifierSet) -> dict[str, str]:
    """Each normalized form of the partition's pivot URLs, mapped to the
    lexicographically first pivot URL that has it."""
    index: dict[str, str] = {}
    for doc in sorted(partition.docs(pivot_lang), key=lambda d: d.url):
        for form in strip_identifiers(doc.url, ids):
            index.setdefault(form, doc.url)
    return index


def match_urls(
    partition: CorpusPartition,
    pivot_lang: str,
    other_lang: str,
    ids: IdentifierSet,
    index: dict[str, str] | None = None,
) -> list[AlignmentPair]:
    """Match documents whose normalized URL forms intersect; 1-1 enforced by
    first-match-wins in lexicographic URL order. Pairs carry score 1.
    ``index`` is ``pivot_index(partition, pivot_lang, ids)``, built here
    when not given. With no pivot URL form nothing can match, so no other
    URL is stripped."""
    if index is None:
        index = pivot_index(partition, pivot_lang, ids)
    if not index:
        return []

    taken_pivot: set[str] = set()
    out: list[AlignmentPair] = []
    for doc in sorted(partition.docs(other_lang), key=lambda d: d.url):
        pivot_url = min((index[form] for form in strip_identifiers(doc.url, ids)
                         if form in index and index[form] not in taken_pivot), default=None)
        if pivot_url is None:
            continue
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
) -> list[AlignmentPair]:
    """``match_urls`` of every (domain, language) block, in sorted order;
    each domain's pivot URL forms are computed once, for all its languages.
    ``langs`` listing the pivot, or a language twice, is a ``ConfigError``."""
    langs = checked_langs(pivot_lang, langs)
    pairs: list[AlignmentPair] = []
    for domain in sorted(partitions):
        part = partitions[domain]
        index = pivot_index(part, pivot_lang, ids)
        for lang in langs:
            pairs.extend(match_urls(part, pivot_lang, lang, ids, index))
    return pairs
