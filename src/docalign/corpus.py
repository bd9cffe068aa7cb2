"""Corpus ingestion: record parsing, HTML text extraction, tokenization,
language tagging and per-domain partitioning.

Parsing, extraction and tokenization are pure per-record functions; only
``group_by_domain`` accumulates state and acts as the merge point of the
ingest pipeline.
"""

from __future__ import annotations

import json
import re
import unicodedata
from collections import defaultdict
from dataclasses import dataclass, field
from html.parser import HTMLParser
from typing import Iterable, Optional
from urllib.parse import urlsplit

from .errors import FormatError, ParseError, SchemaError, UsageError

# Only text under these tags is kept; everything else is boilerplate.
TEXT_TAGS = frozenset(
    ["title", "h1", "h2", "h3", "h4", "h5", "h6", "label", "blockquote",
     "dd", "dt", "p", "pre", "q", "div"]
)

_SKIP_TAGS = frozenset(["script", "style"])

# Scripts segmented one token per code point.
_CJK_RANGES = (
    (0x2E80, 0x2EFF),    # CJK radicals
    (0x3040, 0x309F),    # hiragana
    (0x30A0, 0x30FF),    # katakana
    (0x3400, 0x4DBF),    # CJK ext A
    (0x4E00, 0x9FFF),    # CJK unified
    (0xAC00, 0xD7AF),    # hangul syllables
    (0xF900, 0xFAFF),    # CJK compatibility
    (0x20000, 0x2A6DF),  # CJK ext B
)


@dataclass
class DocumentRecord:
    """One web page after extraction: url, host, language tag and tokens."""

    url: str
    domain: str
    lang: str
    tokens: list[str]
    raw_length: int

    def serialized(self) -> str:
        """Canonical one-line JSON form, used for files and tie-breaking."""
        return json.dumps(
            {
                "url": self.url,
                "domain": self.domain,
                "lang": self.lang,
                "tokens": self.tokens,
                "raw_length": self.raw_length,
            },
            ensure_ascii=False,
            sort_keys=True,
        )

    @classmethod
    def from_serialized(cls, line: str) -> "DocumentRecord":
        obj = json.loads(line)
        return cls(
            url=obj["url"],
            domain=obj["domain"],
            lang=obj["lang"],
            tokens=list(obj["tokens"]),
            raw_length=int(obj["raw_length"]),
        )


@dataclass
class CorpusPartition:
    """All deduplicated records of one web domain, grouped by language."""

    domain: str
    by_lang: dict[str, list[DocumentRecord]] = field(default_factory=dict)

    def docs(self, lang: str) -> list[DocumentRecord]:
        return self.by_lang.get(lang, [])


def domain_of(url: str) -> str:
    """Registrable host of a URL: scheme, credentials and port stripped.

    Host-relative inputs like ``xyz.ca/fr/index.htm`` are accepted.
    """
    u = url.strip()
    if "://" not in u:
        u = "//" + u
    host = urlsplit(u).hostname or ""
    return host.lower()


class _TextExtractor(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self._keep_depth = 0
        self._skip_depth = 0
        self._open = 0
        self.pieces: list[str] = []

    def handle_starttag(self, tag, attrs):
        self._open += 1
        if tag in _SKIP_TAGS:
            self._skip_depth += 1
        elif tag in TEXT_TAGS:
            self._keep_depth += 1

    def handle_endtag(self, tag):
        if self._open:
            self._open -= 1
        if tag in _SKIP_TAGS:
            self._skip_depth = max(0, self._skip_depth - 1)
        elif tag in TEXT_TAGS:
            self._keep_depth = max(0, self._keep_depth - 1)

    def handle_data(self, data):
        if self._skip_depth:
            return
        # A text node counts once no matter how many whitelisted ancestors
        # wrap it. Text outside any element (plain-text input) is kept so
        # extraction is idempotent on its own output.
        if self._keep_depth or self._open == 0:
            text = data.strip()
            if text:
                self.pieces.append(text)


def extract_text(html: str) -> str:
    """Visible text under the tag whitelist, newline-joined in document order."""
    parser = _TextExtractor()
    try:
        parser.feed(html)
        parser.close()
    except Exception:
        # lenient: keep whatever was recovered before the parser gave up
        pass
    return "\n".join(parser.pieces)


def _is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


# ord(ch) -> what ch becomes before splitting on whitespace: itself for a
# letter, digit or mark, " ch " for a CJK character, " " for anything else.
# Kept characters map to themselves because a lookup that misses costs
# str.translate more than one that hits. Filled lazily, one entry per
# distinct character seen; scanning the whole code space up front would
# cost more than tokenizing a typical run.
_TRANSLATE: dict[int, str] = {}
# The characters that already have an entry in _TRANSLATE.
_CLASSIFIED: set[str] = set()


def tokenize(text: str) -> list[str]:
    """Lowercase and split on anything that is not a letter, digit or mark.

    CJK characters become single-codepoint tokens. Purely numeric tokens
    are kept; empty tokens never emitted.

    Each distinct character is classified once per process into a shared
    translate table. An entry depends only on the character, never on the
    text it came from, so the tokens do not depend on what filled the
    table or in which order; concurrent callers at worst classify a
    character twice, with the same result. ``str.split`` then stands in
    for a flush-on-separator loop, which holds because no letter, digit
    or mark is whitespace.
    """
    low = text.lower()
    new = set(low) - _CLASSIFIED
    for ch in new:
        if _is_cjk(ch):
            _TRANSLATE[ord(ch)] = f" {ch} "
        elif unicodedata.category(ch)[0] in ("L", "N", "M"):
            _TRANSLATE[ord(ch)] = ch
        else:
            _TRANSLATE[ord(ch)] = " "
    # only after their entries exist, so a concurrent caller never skips a
    # character that has none yet
    _CLASSIFIED.update(new)
    return low.translate(_TRANSLATE).split()


# Language tags name files under corpus/<domain>/, so they are kept to
# characters that cannot climb out of that directory.
_LANG_TAG = re.compile(r"[A-Za-z0-9_-]+")


def _unescape_tsv(value: str) -> str:
    return (
        value.replace("\\t", "\t").replace("\\n", "\n").replace("\\\\", "\\")
    )


def parse_record(line: bytes, format: str = "jsonl") -> DocumentRecord:
    """Parse one serialized input record into a DocumentRecord.

    jsonl records carry ``url``, optional ``lang`` and exactly one of
    ``html`` | ``text``. tsv records are ``url \\t lang \\t text``. The
    URL must have a host and the language tag may hold only ASCII
    letters, digits, ``-`` and ``_``: both name the record's partition file.
    The URL may hold no tab, newline or carriage return: it is a field of
    the line-based TSV artifacts.
    """
    text_line = line.decode("utf-8", errors="replace").rstrip("\r\n")
    if format == "jsonl":
        try:
            obj = json.loads(text_line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON: {exc.msg}", offset=exc.pos) from exc
        if not isinstance(obj, dict):
            raise SchemaError("record is not a JSON object")
        url = obj.get("url")
        if not url:
            raise SchemaError("record missing required field 'url'")
        has_html = "html" in obj
        has_text = "text" in obj
        if has_html == has_text:
            raise SchemaError(
                "record must carry exactly one of 'html' or 'text'"
            )
        key = "html" if has_html else "text"
        raw = obj[key]
        if not isinstance(raw, str):
            raise SchemaError(f"field {key!r} is not a string")
        if has_html:
            raw = extract_text(raw)
        lang = obj.get("lang") or "und"
    elif format == "tsv":
        parts = text_line.split("\t")
        if len(parts) != 3:
            raise ParseError(
                f"expected 3 tab-separated fields, got {len(parts)}", offset=0
            )
        url, lang, raw = parts[0], parts[1], _unescape_tsv(parts[2])
        if not url:
            raise SchemaError("record missing required field 'url'")
        lang = lang or "und"
    else:
        raise UsageError(f"unknown record format: {format!r}")

    if not isinstance(url, str):
        raise SchemaError(f"URL {url!r} is not a string")
    if "\t" in url or "\n" in url or "\r" in url:
        raise SchemaError(f"URL {url!r} contains a tab, newline or carriage return")
    domain = domain_of(url)
    if not domain:
        raise SchemaError(f"URL {url!r} has no host")
    if domain in (".", ".."):
        raise SchemaError(f"URL {url!r} has host {domain!r}, which names no domain")
    if not isinstance(lang, str) or not _LANG_TAG.fullmatch(lang):
        raise SchemaError(f"language tag {lang!r} is not made of ASCII letters, "
                          "digits, '-' and '_'")
    return DocumentRecord(
        url=url,
        domain=domain,
        lang=lang,
        tokens=tokenize(raw),
        raw_length=len(raw),
    )


def detect_language(tokens: list[str], confidence_floor: float = 0.5) -> str:
    """Language tag from the bundled trigram detector; "und" when unsure."""
    if not tokens:
        return "und"
    from .langid import default_detector

    lang, confidence = default_detector().classify(" ".join(tokens))
    if confidence < confidence_floor:
        return "und"
    return lang


def group_by_domain(
    records: Iterable[DocumentRecord],
) -> dict[str, CorpusPartition]:
    """Partition records by domain, deduplicating URLs within a domain.

    Duplicates keep the longest-text record; equal lengths break the tie
    toward the lexicographically smaller serialized record, which makes the
    result independent of input order.
    """
    best: dict[str, dict[str, DocumentRecord]] = defaultdict(dict)
    for rec in records:
        cur = best[rec.domain].get(rec.url)
        if cur is None:
            best[rec.domain][rec.url] = rec
            continue
        if rec.raw_length > cur.raw_length or (
            rec.raw_length == cur.raw_length
            and rec.serialized() < cur.serialized()
        ):
            best[rec.domain][rec.url] = rec

    partitions: dict[str, CorpusPartition] = {}
    for domain in sorted(best):
        by_lang: dict[str, list[DocumentRecord]] = defaultdict(list)
        for url in sorted(best[domain]):
            rec = best[domain][url]
            by_lang[rec.lang].append(rec)
        partitions[domain] = CorpusPartition(
            domain=domain, by_lang=dict(sorted(by_lang.items()))
        )
    return partitions


def write_partitions(partitions: dict[str, CorpusPartition], out_dir) -> None:
    """One directory per domain, one JSON-lines file per language."""
    from pathlib import Path

    out = Path(out_dir)
    for domain, part in sorted(partitions.items()):
        ddir = out / domain
        ddir.mkdir(parents=True, exist_ok=True)
        for lang, docs in sorted(part.by_lang.items()):
            with open(ddir / f"{lang}.jsonl", "w", encoding="utf-8") as fh:
                for rec in docs:
                    fh.write(rec.serialized() + "\n")


def read_partitions(corpus_dir) -> dict[str, CorpusPartition]:
    """Inverse of write_partitions. A line that is not a record raises
    ``FormatError`` naming ``file:line``."""
    from pathlib import Path

    root = Path(corpus_dir)
    partitions: dict[str, CorpusPartition] = {}
    for ddir in sorted(p for p in root.iterdir() if p.is_dir()):
        by_lang: dict[str, list[DocumentRecord]] = {}
        for f in sorted(ddir.glob("*.jsonl")):
            docs = []
            with open(f, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    if not line.strip():
                        continue
                    try:
                        docs.append(DocumentRecord.from_serialized(line))
                    except KeyError as exc:
                        raise FormatError(f"{f}:{lineno}: record lacks key {exc}") from exc
                    except (TypeError, ValueError) as exc:
                        raise FormatError(f"{f}:{lineno}: {exc}") from exc
            if docs:
                by_lang[f.stem] = docs
        if by_lang:
            partitions[ddir.name] = CorpusPartition(domain=ddir.name, by_lang=by_lang)
    return partitions
