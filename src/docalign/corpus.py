"""Corpus ingestion: record parsing, HTML text extraction, tokenization,
language tagging, per-domain partitioning and the ``corpus/`` files.

Parsing, extraction and tokenization are pure per-record functions; only
``group_by_domain`` accumulates state and acts as the merge point of the
ingest pipeline.

``corpus/`` holds the whole partitioned corpus in three files, one row per
document in (lang, domain, URL) order, the order of ``vectors/<lang>/``:

- ``docs.tsv``: ``lang``, ``domain``, ``url``, ``raw_length`` and the
  token count of each row, tab-separated;
- ``words.json``: a JSON array of the distinct tokens in first-use order,
  so any token, even one holding a tab or a newline, is kept intact;
- ``ids.npy``: one 1-D int32 array of every row's token ids (indices into
  ``words.json``), concatenated in row order.

A record read back holds its tokens as a ``TokenView`` of its ids, decoded
on first read. The stages after ingest read the ids and the words, so a
run decodes no token.
"""

from __future__ import annotations

import functools
import json
import re
import unicodedata
from collections import defaultdict
from dataclasses import dataclass, field
from html import unescape
from html.parser import HTMLParser
from itertools import chain, count
from pathlib import Path
from typing import Iterable, Optional, Sequence
from urllib.parse import urlsplit

import numpy as np

from .errors import ConfigError, FormatError, ParseError, SchemaError, UsageError
from .textfile import read_array, read_lines

# Only text under these tags is kept; everything else is boilerplate.
TEXT_TAGS = frozenset(
    ["title", "h1", "h2", "h3", "h4", "h5", "h6", "label", "blockquote",
     "dd", "dt", "p", "pre", "q", "div"]
)

_SKIP_TAGS = frozenset(["script", "style"])

# The three files of corpus/: one line per document, the distinct tokens,
# and every document's token ids concatenated.
DOCS, WORDS, IDS = "docs.tsv", "words.json", "ids.npy"

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


class TokenView(Sequence[str]):
    """The tokens of one record read back from ``corpus/``: a view of the
    record's slice of the corpus's token ids, over the corpus's one object
    array of words. The first iteration, indexing or comparison decodes the
    tokens into a list, which is kept; ``len()``, ``ids`` and ``words``
    decode nothing. It equals a list of the same tokens."""

    __slots__ = ("_ids", "_words", "_tokens")

    def __init__(self, ids: np.ndarray, words: np.ndarray):
        self._ids = ids
        self._words = words
        self._tokens: Optional[list[str]] = None

    @property
    def ids(self) -> np.ndarray:
        """The record's int32 token ids, a read-only view of ``ids.npy``."""
        return self._ids

    @property
    def words(self) -> np.ndarray:
        """The corpus's object array of words, which the ids index."""
        return self._words

    def _decoded(self) -> list[str]:
        if self._tokens is None:
            self._tokens = self._words[self._ids].tolist()
        return self._tokens

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index):
        return self._decoded()[index]

    def __iter__(self):
        return iter(self._decoded())

    def __eq__(self, other):
        if isinstance(other, TokenView):
            other = other._decoded()
        return self._decoded() == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return repr(self._decoded())


@dataclass(slots=True)
class DocumentRecord:
    """One web page after extraction: url, host, language tag and tokens,
    a list or, read back from ``corpus/``, a ``TokenView``. Slots, not a
    ``__dict__``, since a run holds one per document."""

    url: str
    domain: str
    lang: str
    tokens: Sequence[str]
    raw_length: int

    def serialized(self) -> str:
        """Canonical one-line JSON form, used to break ties between
        duplicates."""
        return json.dumps(
            {
                "url": self.url,
                "domain": self.domain,
                "lang": self.lang,
                "tokens": list(self.tokens),
                "raw_length": self.raw_length,
            },
            ensure_ascii=False,
            sort_keys=True,
        )


@dataclass
class CorpusPartition:
    """All deduplicated records of one web domain, grouped by language."""

    domain: str
    by_lang: dict[str, list[DocumentRecord]] = field(default_factory=dict)

    def docs(self, lang: str) -> list[DocumentRecord]:
        return self.by_lang.get(lang, [])


# An optional scheme, "//" and a plain ASCII host (no "@", ":", "[", "]",
# "%", whitespace or control character) that the end of the URL or a "/",
# "?" or "#" ends. For such a URL urlsplit's netloc is exactly the host, so
# its hostname is the host lowercased.
_PLAIN_HOST = re.compile(
    r"(?:[A-Za-z][A-Za-z0-9+.\-]*:)?//([A-Za-z0-9._~!$&'()*+,;=-]*)(?=[/?#]|\Z)")


def domain_of(url: str) -> str:
    """Registrable host of a URL: scheme, credentials and port stripped.

    Host-relative inputs like ``xyz.ca/fr/index.htm`` are accepted. A plain
    host (``_PLAIN_HOST``) is read without ``urlsplit``; any other URL goes
    through it, and one that urllib cannot split is a ``SchemaError`` naming
    it and the reason.
    """
    u = url.strip()
    if "://" not in u:
        u = "//" + u
    plain = _PLAIN_HOST.match(u)
    if plain:
        return plain[1].lower()
    try:
        host = urlsplit(u).hostname or ""
    except ValueError as exc:
        raise SchemaError(f"URL {url!r} cannot be split: {exc}") from None
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


def _parse_text(html: str, parser: Optional[_TextExtractor] = None) -> str:
    """``extract_text`` through the stdlib parser, for any markup at all, fed
    into ``parser`` when given, whose counters and pieces then hold the page
    before ``html``. A construct still open at the end, such as an
    unterminated tag or comment, is dropped: ``close()`` would emit it as
    text, in time quadratic in its length."""
    parser = parser or _TextExtractor()
    try:
        parser.feed(html)
        if not parser.rawdata.startswith("<"):
            parser.close()  # text held back for a trailing "&"
    except Exception:
        # lenient: keep whatever was recovered before the parser gave up
        pass
    return "\n".join(parser.pieces)


# Whitespace that ends a tag name for html.parser, a tag name, and the
# attributes of a start tag: each a plain name with an optional
# double-quoted, single-quoted or bare value. A bare value runs to
# whitespace or ">", so "<a href=x/>" is a start tag, as it is for
# html.parser, and not an empty element.
_WS = r"[ \t\n\r\f]"
_NAME = r"[A-Za-z][-.:A-Za-z0-9_]*"
_ATTRS = (rf"""(?:{_WS}+[^\s"'<>/=]+(?:{_WS}*={_WS}*"""
          rf"""(?:"[^"]*"|'[^']*'|[^\s"'=<>`][^\s"'<>`]*))?)*{_WS}*""")


def _ascii_case(word: str) -> str:
    """``word`` in any ASCII case: html.parser lowers tag names with
    ``str.lower`` and never folds "ſ" to "s" as ``re.IGNORECASE`` would."""
    return "".join(f"[{c.upper()}{c}]" for c in word)


def _cdata_element(name: str) -> str:
    """A whole script or style element: html.parser ends one at the first
    ``</name>`` with optional whitespace inside, so "</scripts>" does not
    end a script."""
    close = rf"/\s*{_ascii_case(name)}\s*>"
    return rf"{_ascii_case(name)}{_ATTRS}>[^<]*(?:<(?!{close})[^<]*)*<{close}"


# One token of markup per match, in document order: a text run (group 1),
# an end tag (name in group 2), a start tag that opens no script or style
# (name in group 3, its closing "/" in group 4), a whole script or style
# element, a comment (ended, as by html.parser, at the first "--" and ">"
# with only whitespace between) or a doctype. Group 5 takes the rest of
# the page from the first "<" that starts none of these, which alone goes
# to html.parser. No alternative that fails after a long scan is followed
# by one that can match, so the scan stays linear in the page.
_TOKEN = re.compile(
    r"([^<]+)"
    rf"|<(?:/({_NAME})\s*>"
    rf"|(?!(?:{_ascii_case('script')}|{_ascii_case('style')})[\s>])"
    rf"({_NAME}){_ATTRS}(/?)>"
    rf"|{_cdata_element('script')}|{_cdata_element('style')}"
    r"|!--[\s\S]*?--\s*>"
    rf"|!{_ascii_case('doctype')}[^>]*>)"
    r"|(<[\s\S]*)"
)


def extract_text(html: str) -> str:
    """Visible text under the tag whitelist, newline-joined in document order.

    One ``_TOKEN`` scan makes, for each piece of markup it reads, the
    handler call of ``_TextExtractor`` that html.parser makes for it. From
    the first "<" it cannot read, such as a stray "<" or an unterminated
    script, html.parser reads the rest of the page into the same extractor.
    The text is that of ``_parse_text(html)``.
    """
    parser = _TextExtractor()
    for text, end, start, slash, rest in _TOKEN.findall(html):
        if text:
            parser.handle_data(unescape(text))
        elif end:
            parser.handle_endtag(end.lower())
        elif start:
            parser.handle_starttag(start.lower(), [])
            if slash:  # <tag/>, as html.parser's handle_startendtag
                parser.handle_endtag(start.lower())
        elif rest:
            return _parse_text(rest, parser)
    return "\n".join(parser.pieces)


def _is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


def _translated(ch: str) -> str:
    """What ch becomes before splitting on whitespace: itself for a letter,
    digit or mark, " ch " for a CJK character, " " for anything else."""
    if _is_cjk(ch):
        return f" {ch} "
    return ch if unicodedata.category(ch)[0] in ("L", "N", "M") else " "


class _Translation(dict):
    """ord(ch) -> ``_translated(ch)``. Kept characters map to themselves
    because a lookup that misses costs str.translate more than one that
    hits. Filled lazily: a miss classifies the one character and stores it,
    since scanning the whole code space up front would cost more than
    tokenizing a typical run."""

    def __missing__(self, cp: int) -> str:
        self[cp] = _translated(chr(cp))
        return self[cp]


_TRANSLATE = _Translation()


@functools.cache
def _latin1_table() -> bytes:
    """``_translated`` of U+0000..U+00FF as a ``bytes.translate`` table. No
    CJK range starts below U+2E80, so each of the 256 maps to one character
    of the same range; were that to change, the table would not be 256
    bytes long and ``bytes.translate`` would refuse it."""
    return "".join(map(_translated, map(chr, range(256)))).encode("latin-1")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on anything that is not a letter, digit or mark.

    CJK characters become single-codepoint tokens. Purely numeric tokens
    are kept; empty tokens never emitted.

    Text whose lowercase form is all Latin-1 (U+0000..U+00FF), as ASCII and
    most Western European pages are, is classified one byte at a time
    through a 256-byte table; ``str.translate`` is fast only on ASCII. The
    test follows lowercasing, which can move a character into Latin-1 (the
    Kelvin sign becomes "k") or out of it ("İ" becomes "i" and a combining
    dot). Other text goes through a translate table shared by the process,
    into which each distinct character is classified once. Both tables
    hold the ``_translated`` rule, which depends only on the character, so
    the tokens do not depend on what filled a table or in which order.
    ``str.split`` then stands in for a flush-on-separator loop, which holds
    because no letter, digit or mark is whitespace.
    """
    lowered = text.lower()
    try:
        latin1 = lowered.encode("latin-1")
    except UnicodeEncodeError:
        return lowered.translate(_TRANSLATE).split()
    return latin1.translate(_latin1_table()).decode("latin-1").split()


# Language tags are fields of docs.tsv and of the TSV artifacts, and a
# configured one names files such as vocab/<lang>.txt, so they are kept to
# characters that need no quoting and cannot climb out of a directory.
LANG_TAG = re.compile(r"[A-Za-z0-9_-]+")


def checked_langs(pivot: str, langs: Iterable[str]) -> list[str]:
    """``langs`` sorted: the non-pivot languages, each once. Listing the
    pivot, or a language twice, is a ``ConfigError``."""
    langs = sorted(langs)
    if pivot in langs:
        raise ConfigError(f"langs must not list the pivot {pivot!r}")
    if len(set(langs)) < len(langs):
        raise ConfigError(f"langs must not list a language twice, got {langs!r}")
    return langs


def _unescape_tsv(value: str) -> str:
    """``\\t``, ``\\n`` and ``\\\\`` decoded left to right; any other backslash stays."""
    return re.sub(r"\\[tn\\]", lambda m: {"t": "\t", "n": "\n"}.get(m[0][1], "\\"), value)


def _field_problem(lang: str, domain: str, url: str) -> Optional[str]:
    """Why a record with these fields cannot be a ``docs.tsv`` row, or None."""
    for name, value in (("URL", url), ("domain", domain)):
        if not value:
            return f"empty {name}"
        if "\t" in value or "\n" in value or "\r" in value:
            return f"{name} {value!r} contains a tab, newline or carriage return"
        if not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate, from a JSON escape
                return f"{name} {value!r} is not valid Unicode"
    if not isinstance(lang, str) or not LANG_TAG.fullmatch(lang):
        return (f"language tag {lang!r} is not made of ASCII letters, digits, "
                "'-' and '_'")
    return None


def parse_record(line: str, format: str = "jsonl") -> DocumentRecord:
    """Parse one decoded input line into a DocumentRecord.

    jsonl records carry ``url``, optional ``lang`` and exactly one of
    ``html`` | ``text``. tsv records are ``url \\t lang \\t text``. An
    absent, null or empty ``lang`` is ``und``. The URL must have a host,
    which is the record's domain, and the language tag must be a string of
    only ASCII letters, digits, ``-`` and ``_``. The URL may hold no tab,
    newline, carriage return or lone surrogate. All three are fields of
    ``corpus/docs.tsv`` and of the other line-based TSV artifacts.
    """
    text_line = line.rstrip("\r\n")
    if format == "jsonl":
        try:
            obj = json.loads(text_line)
        except json.JSONDecodeError as exc:
            offset = len(text_line[:exc.pos].encode("utf-8", "surrogatepass"))
            raise ParseError(f"malformed JSON: {exc.msg} (byte offset {offset})") from exc
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
        lang = "und" if obj.get("lang") in (None, "") else obj["lang"]
    elif format == "tsv":
        parts = text_line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"expected 3 tab-separated fields, got {len(parts)}")
        url, lang, raw = parts[0], parts[1], _unescape_tsv(parts[2])
        if not url:
            raise SchemaError("record missing required field 'url'")
        lang = lang or "und"
    else:
        raise UsageError(f"unknown record format: {format!r}")

    if not isinstance(url, str):
        raise SchemaError(f"URL {url!r} is not a string")
    domain = domain_of(url)
    if not domain:
        raise SchemaError(f"URL {url!r} has no host")
    if domain in (".", ".."):
        raise SchemaError(f"URL {url!r} has host {domain!r}, which names no domain")
    problem = _field_problem(lang, domain, url)
    if problem:
        raise SchemaError(problem)
    return DocumentRecord(
        url=url,
        domain=domain,
        lang=lang,
        tokens=tokenize(raw),
        raw_length=len(raw),
    )


def detect_language(tokens: Sequence[str], confidence_floor: float = 0.5) -> str:
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
    """Write ``docs.tsv``, ``words.json`` and ``ids.npy`` into ``out_dir``.

    Rows go in (lang, domain) order, each partition's documents in list
    order. Tokens are interned in first-use order. A record whose URL or
    domain is empty or holds a tab, newline or carriage return, or whose
    language tag is not ``[A-Za-z0-9_-]+``, is a ``SchemaError``.
    """
    out = Path(out_dir)
    groups = sorted((lang, domain, docs) for domain, part in partitions.items()
                    for lang, docs in part.by_lang.items())
    records = [rec for *_key, docs in groups for rec in docs]
    for rec in records:
        problem = _field_problem(rec.lang, rec.domain, rec.url)
        if problem:
            raise SchemaError(f"record {rec.url!r}: {problem}")
    lines = [f"{rec.lang}\t{rec.domain}\t{rec.url}\t{rec.raw_length}\t{len(rec.tokens)}\n"
             for rec in records]
    word_ids = defaultdict(count().__next__)
    ids = np.fromiter(map(word_ids.__getitem__,
                          chain.from_iterable(rec.tokens for rec in records)),
                      dtype=np.int32)
    out.mkdir(parents=True, exist_ok=True)
    (out / DOCS).write_text("".join(lines), encoding="utf-8")
    (out / WORDS).write_text(json.dumps(list(word_ids), ensure_ascii=False),
                             encoding="utf-8")
    np.save(out / IDS, ids)


def read_partitions(corpus_dir) -> dict[str, CorpusPartition]:
    """The partitions that ``write_partitions`` wrote into ``corpus_dir``,
    domains and languages in sorted order. A ``docs.tsv`` line without five
    fields, with a length or token count that is not a non-negative integer,
    or with fields ``write_partitions`` refuses is a ``FormatError`` naming
    ``docs.tsv:<line>``. An ``ids.npy`` that is not a 1-D int32 array, holds
    an id outside ``words.json`` or not as many ids as ``docs.tsv`` counts,
    and a ``words.json`` that is missing, unreadable or not a list of
    strings, are ``FormatError``s naming the file. Every check is made here;
    each record's ``tokens`` is a ``TokenView`` that decodes them on first
    read."""
    root = Path(corpus_dir)
    rows = _read_docs(root / DOCS)
    words = _read_words(root / WORDS)
    ids = read_array(root / IDS, np.int32)
    total = sum(row[4] for row in rows)
    if total != len(ids):
        raise FormatError(f"{root / IDS}: {len(ids)} token ids, but {root / DOCS} "
                          f"counts {total}")
    if ids.size and (ids.min() < 0 or ids.max() >= len(words)):
        raise FormatError(f"{root / IDS}: token id outside the {len(words)} words "
                          f"of {root / WORDS}")
    ids.flags.writeable = False  # so that no TokenView can write through its view
    word_array = np.array(words, dtype=object)
    grouped: dict[str, dict[str, list[DocumentRecord]]] = {}
    start = 0
    shared: dict[str, str] = {}  # one str per language tag and per domain
    for lang, domain, url, raw_length, n in rows:
        lang, domain = shared.setdefault(lang, lang), shared.setdefault(domain, domain)
        doc = DocumentRecord(url=url, domain=domain, lang=lang,
                             tokens=TokenView(ids[start:start + n], word_array),
                             raw_length=raw_length)
        start += n
        grouped.setdefault(domain, {}).setdefault(lang, []).append(doc)
    return {domain: CorpusPartition(domain, dict(sorted(grouped[domain].items())))
            for domain in sorted(grouped)}


def _read_docs(path: Path) -> list[tuple[str, str, str, int, int]]:
    rows = []
    lines = read_lines(path, 5, skip_blank=False)  # a blank line has 1 field, not 5
    for lineno, (lang, domain, url, raw_length, n) in lines:
        for name, value in (("length", raw_length), ("token count", n)):
            if not (value.isascii() and value.isdigit()):
                raise FormatError(f"{path}:{lineno}: {name} {value!r} is not a "
                                  "non-negative integer")
        problem = _field_problem(lang, domain, url)
        if problem:
            raise FormatError(f"{path}:{lineno}: {problem}")
        rows.append((lang, domain, url, int(raw_length), int(n)))
    return rows


def _read_words(path: Path) -> list[str]:
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror}") from None
    try:
        words = json.loads(data)
    except ValueError as exc:  # JSON and UTF-8 errors both
        raise FormatError(f"{path}: {exc}") from exc
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise FormatError(f"{path}: not a JSON list of strings")
    return words
