import json
import re
import sys
import tempfile
import time
import unicodedata
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from docalign import corpus
from docalign.errors import FormatError, ParseError, SchemaError
from tests.conftest import (eager_token_rows, make_record, read_jsonl_partitions,
                            token_decodes, write_jsonl_partitions)


# Markup that the scan in extract_text reads itself: tags in both cases,
# quoted attribute values holding ">", bare values ending in "/", empty
# elements, whitespace before the ">" of an end tag, whole script and style
# elements whose text holds "<" or a near miss of their end tag, comments
# closed by "-- >", doctypes, character references with and without ";",
# and non-ASCII text.
_SCANNED = [
    "<p>", "</p>", "<P>", "</P >", "<div>", "</DIV>", "<title>", "</title>",
    "<h1>", "</h1>", "<span>", "</span>", "<q>", "<br/>", "<br />", "<x:y>",
    '<div class="a>b">', "<a href='x>y'>", '<a href = "x" />', "<a href=x/>",
    "<a href=/x>", "<input disabled>", "<p a=b=c>", "<script/>", "</script>",
    "<script>a<b</script>", "<SCRIPT type='t'>x</scripts></ ſcript></Script >",
    "<style>p{}</style\n>", "<!-- c -->", "<!-- a -- >", "<!---->", "-->",
    "<!DOCTYPE html>", "&amp;", "&copy", "&#60;", "&#x3c;", "&lt;p&gt;", "&",
    ">", "héllo", "中文", " word ", "\n", "\xa0",
]
# Markup that the scan leaves to html.parser: stray "<", "<!doctype"
# without its ">", "</" followed by whitespace, unterminated script and
# style elements and comments, bogus comments, processing instructions,
# "</>", a vertical tab after a tag name and attributes html.parser reads
# in its own way.
_PARSED = [
    "<", " < ", "<!doctype", "</ script >", "<script>", "<style>", "<!--",
    "<!--->", "<!x>", "<?pi?>", "<![CDATA[x]]>", "</>", "<p\x0b>", "<p \x0b>",
    "</p\x85>", "<p a==b>", '<p "x">',
]
_SCANNED_PAGES = st.lists(
    st.one_of(st.sampled_from(_SCANNED),
              st.text(st.characters(exclude_characters="<"), max_size=4)),
    max_size=24,
).map("".join)


class TestExtractText:
    def test_script_excluded(self):
        assert corpus.extract_text("<p>Hello world</p><script>var x=1;</script>") == "Hello world"

    def test_document_order(self):
        assert corpus.extract_text("<div>A</div><h1>B</h1>") == "A\nB"

    def test_empty(self):
        assert corpus.extract_text("") == ""

    def test_style_excluded(self):
        assert corpus.extract_text("<style>p{}</style><p>x</p>") == "x"

    def test_non_whitelisted_without_whitelisted_ancestor(self):
        assert corpus.extract_text("<span>hidden</span><p>kept</p>") == "kept"

    def test_non_whitelisted_inside_whitelisted(self):
        # the span's text node sits under a whitelisted div ancestor
        assert corpus.extract_text("<div>a <span>b</span> c</div>") == "a\nb\nc"

    def test_nested_whitelisted_counts_once(self):
        assert corpus.extract_text("<div><p>once</p></div>") == "once"

    def test_all_whitelisted_tags(self):
        for tag in sorted(corpus.TEXT_TAGS):
            assert corpus.extract_text(f"<{tag}>x</{tag}>") == "x", tag

    def test_broken_markup_recovers(self):
        out = corpus.extract_text("<p>ok<div<<>>junk")
        assert "ok" in out

    # html.parser raises on "<![#": the text recovered before it is kept
    def test_page_the_parser_gives_up_on(self):
        html = "<p>kept</p><![#<p>lost</p>"
        assert corpus.extract_text(html) == corpus._parse_text(html) == "kept"

    def test_idempotent_on_own_output(self):
        html = "<title>T</title><div>a<p>b</p></div><span>z</span>"
        once = corpus.extract_text(html)
        assert corpus.extract_text(once) == once

    # html.parser, through the fallback path, is the oracle of the scan
    @settings(max_examples=400, deadline=None)
    @example("<script>a</ſcript>b</script>c<script>d</ script >e</script>f")
    @example("<style>a</scripts></STYLE\n>b<a href=x/>c<script/>d")
    @example("<!-- a -- >b<!-- c --!>d-->e<!---->f")
    @example("<p\x0b>a</p>b")
    @example("<p>x<span>y</span><?pi>z</p>w")
    @given(st.lists(st.one_of(st.sampled_from(_SCANNED + _PARSED), st.text(max_size=4)),
                    max_size=24).map("".join))
    def test_matches_parser_oracle(self, html):
        assert corpus.extract_text(html) == corpus._parse_text(html)

    @settings(max_examples=200, deadline=None)
    @given(_SCANNED_PAGES)
    def test_scans_well_formed_markup_itself(self, html):
        expected = corpus._parse_text(html)
        with mock.patch.object(corpus, "_parse_text", side_effect=AssertionError):
            assert corpus.extract_text(html) == expected

    def test_crawl_page_takes_one_scan(self):
        page = (
            '<!DOCTYPE html><html><head><meta charset="utf-8">'
            "<title>Le chat</title>"
            "<script>for(var i=0;i<n.length;i++){f('</p>')}</script>"
            "<style>.nav li{padding:4px}</style></head><body>"
            '<ul class="nav"><li><a href="/a.html">a</a></li>'
            "<li><a href='/b.html'>b</a></li></ul>"
            '<div class="main"><h1>Titre &amp; co</h1><p>Un  chat\n noir.</p><br/></div>'
            "<footer>&copy; 2020 a &amp; co</footer></body></html>"
        )
        expected = corpus._parse_text(page)
        assert expected == "Le chat\nTitre & co\nUn  chat\n noir."
        with mock.patch.object(corpus, "_parse_text", side_effect=AssertionError):
            assert corpus.extract_text(page) == expected

    @pytest.mark.parametrize("html", [
        pytest.param("a" * 100_000 + " < x", id="text-then-stray-lt"),
        pytest.param("<script>" * 12_500, id="unterminated-scripts"),
        pytest.param("<a" + " b" * 50_000 + '"', id="unclosed-start-tag"),
        pytest.param('<a b="' * 17_000, id="unclosed-attribute-values"),
        pytest.param("<!-- a" * 17_000, id="unclosed-comments"),
        pytest.param("<a" * 50_000, id="unclosed-start-tags"),
    ])
    def test_page_outside_grammar_costs_one_scan(self, html):
        start = time.perf_counter()
        out = corpus.extract_text(html)
        assert time.perf_counter() - start < 1.0
        assert out == corpus._parse_text(html)

    # html.parser's close() emitted the open construct as text, so markup
    # such as "a href" became tokens
    @pytest.mark.parametrize("html, text", [
        ('<p>Hello</p><p>More<a href="foo', "Hello\nMore"),
        ("<p>a < b</p><!-- open", "a\n<\nb"),
    ])
    def test_construct_open_at_end_of_page_is_dropped(self, html, text):
        assert corpus.extract_text(html) == corpus._parse_text(html) == text


def oracle_tokenize(text: str) -> list[str]:
    """The per-character tokenizer that the table-driven one replaced."""
    tokens: list[str] = []
    buf: list[str] = []

    def flush():
        if buf:
            tokens.append("".join(buf))
            buf.clear()

    for ch in text.lower():
        if corpus._is_cjk(ch):
            flush()
            tokens.append(ch)
        elif unicodedata.category(ch)[0] in ("L", "N", "M"):
            buf.append(ch)
        else:
            flush()
    flush()
    return tokens


# CJK range ends and the first code point past the last range, a combining
# mark, a capital whose lowercase is two code points, an underscore, two
# non-ASCII spaces and a non-ASCII digit, mixed with plain letters and
# separators so that tokens form around them.
_EDGE_CHARS = [
    "\u2e80", "\u9fff", "\U00020000", "\U0002a6df", "\U0002a6e0",
    "\u0301", "İ", "_", "\u3000", "\u1680", "٣", "a", "Z", " ", "-",
]
edge_text = st.text(
    alphabet=st.one_of(st.sampled_from(_EDGE_CHARS), st.characters()),
    max_size=60,
)


class TestTokenize:
    def test_lowercase_and_punct(self):
        assert corpus.tokenize("The cat, the CAT.") == ["the", "cat", "the", "cat"]

    def test_hyphen_boundary(self):
        assert corpus.tokenize("état-unis") == ["état", "unis"]

    def test_cjk_per_codepoint(self):
        assert corpus.tokenize("日本語です") == ["日", "本", "語", "で", "す"]

    def test_numeric_kept(self):
        assert corpus.tokenize("room 42") == ["room", "42"]

    def test_no_empty_tokens(self):
        assert corpus.tokenize("  ... !! ") == []

    @given(st.text(max_size=200))
    def test_lowercase_invariance(self, s):
        assert corpus.tokenize(s.lower()) == corpus.tokenize(s)

    @given(st.text(max_size=200))
    def test_tokens_nonempty_and_lowercase(self, s):
        for tok in corpus.tokenize(s):
            assert tok
            assert tok == tok.lower()

    # Runs with the process-wide table as earlier tests and examples left it.
    @given(st.text())
    def test_matches_oracle(self, s):
        assert corpus.tokenize(s) == oracle_tokenize(s)

    # Each example starts from an empty table, so the first text fills it
    # and the second reuses the entries the first one made.
    @given(edge_text, edge_text)
    def test_matches_oracle_from_empty_table(self, first, second):
        with mock.patch.object(corpus, "_TRANSLATE", corpus._Translation()):
            assert corpus.tokenize(first) == oracle_tokenize(first)
            assert corpus.tokenize(second) == oracle_tokenize(second)
            assert corpus.tokenize(first) == oracle_tokenize(first)

    def test_no_kept_character_is_whitespace(self):
        # str.split() ends a token only at whitespace, so it agrees with the
        # oracle only if no letter, digit or mark counts as whitespace
        kept_spaces = [
            hex(cp) for cp in range(sys.maxunicode + 1)
            if chr(cp).isspace() and unicodedata.category(chr(cp))[0] in "LNM"
        ]
        assert kept_spaces == []


class TestParseRecord:
    def test_text_record(self):
        rec = corpus.parse_record('{"url":"http://a.com/x","text":"Hello World"}')
        assert rec.url == "http://a.com/x"
        assert rec.domain == "a.com"
        assert rec.tokens == ["hello", "world"]
        assert rec.lang == "und"

    def test_missing_content_is_schema_error(self):
        with pytest.raises(SchemaError):
            corpus.parse_record('{"url":"http://a.com/x"}')

    def test_html_record_with_lang(self):
        rec = corpus.parse_record(
            '{"url":"http://a.com/y","html":"<p>Bonjour</p>","lang":"fr"}'
        )
        assert rec.lang == "fr"
        assert rec.tokens == ["bonjour"]

    def test_both_content_fields_rejected(self):
        with pytest.raises(SchemaError):
            corpus.parse_record('{"url":"u","html":"<p>a</p>","text":"a"}')

    def test_missing_url(self):
        with pytest.raises(SchemaError):
            corpus.parse_record('{"text":"hi"}')

    @pytest.mark.parametrize("line, key", [
        ('{"url":"http://a.com/x","text":5}', "text"),
        ('{"url":"http://a.com/x","text":null}', "text"),
        ('{"url":"http://a.com/x","html":["a"]}', "html"),
        ('{"url":"http://a.com/x","html":{"p":"a"}}', "html"),
    ])
    def test_content_that_is_not_a_string(self, line, key):
        with pytest.raises(SchemaError, match=f"field '{key}' is not a string"):
            corpus.parse_record(line)

    @pytest.mark.parametrize("line, format, message", [
        ('["http://a.com/x"]', "jsonl", "record is not a JSON object"),
        ('"http://a.com/x"', "jsonl", "record is not a JSON object"),
        ("\tfr\tbonjour", "tsv", "record missing required field 'url'"),
    ])
    def test_record_without_url_field(self, line, format, message):
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            corpus.parse_record(line, format)

    def test_malformed_json_names_offset(self):
        with pytest.raises(ParseError, match="byte offset"):
            corpus.parse_record('{"url": oops}')

    def test_malformed_json_offset_counts_bytes(self):
        # each "é" is two bytes; json's character index said 28
        with pytest.raises(ParseError, match=r"\(byte offset 31\)$"):
            corpus.parse_record('{"url": "http://a.com/ééé", oops}')

    def test_tsv_record(self):
        rec = corpus.parse_record("http://a.com/x\tfr\tbonjour le\\tmonde", "tsv")
        assert rec.lang == "fr"
        assert rec.tokens == ["bonjour", "le", "monde"]

    # each escape was decoded in its own pass, so the TSV text \\t (an escaped
    # backslash, then t) became a backslash and a TAB
    @pytest.mark.parametrize("field, text", [
        ("a\\tb", "a\tb"),
        ("a\\nb", "a\nb"),
        ("a\\\\b", "a\\b"),
        ("a\\\\tb", "a\\tb"),
        ("a\\\\nb", "a\\nb"),
        ("a\\\\\\tb", "a\\\tb"),
        ("a\\qb\\", "a\\qb\\"),
        ("C:\\\\temp\\\\new", "C:\\temp\\new"),
    ])
    def test_tsv_escapes_decode_left_to_right(self, field, text):
        assert corpus._unescape_tsv(field) == text
        rec = corpus.parse_record(f"http://a.com/x\tfr\t{field}", "tsv")
        assert (rec.tokens, rec.raw_length) == (corpus.tokenize(text), len(text))

    def test_tsv_missing_field(self):
        with pytest.raises(ParseError):
            corpus.parse_record("http://a.com/x\tfr", "tsv")

    def test_tsv_field_count_message(self):
        with pytest.raises(ParseError, match="^expected 3 tab-separated fields, got 2$"):
            corpus.parse_record("http://a.com/x\tfr", "tsv")

    def test_raw_length_counts_extracted_chars(self):
        rec = corpus.parse_record('{"url":"u.com/a","text":"abcde"}')
        assert rec.raw_length == 5


class TestDomainOf:
    @pytest.mark.parametrize("url,host", [
        ("http://a.com/x", "a.com"),
        ("https://user:pw@b.org:8080/y?z=1", "b.org"),
        ("xyz.ca/fr/index.htm", "xyz.ca"),
        ("HTTP://UPPER.COM/Z", "upper.com"),
    ])
    def test_host(self, url, host):
        assert corpus.domain_of(url) == host

    @pytest.mark.parametrize("url", ["http://[::1/x", "http://[zz]/x", "http://x\u2100y.com/p"])
    def test_url_urllib_cannot_split(self, url):
        with pytest.raises(SchemaError, match=rf"^URL {re.escape(repr(url))} cannot be split: "):
            corpus.domain_of(url)


class TestDetectLanguage:
    def test_english(self):
        assert corpus.detect_language(["the", "quick", "brown", "fox", "jumps"]) == "en"

    def test_french(self):
        assert corpus.detect_language(["le", "chat", "est", "sur", "la", "table"]) == "fr"

    def test_empty_is_und(self):
        assert corpus.detect_language([]) == "und"

    def test_floor_yields_und(self):
        tokens = ["the", "quick", "brown", "fox"]
        assert corpus.detect_language(tokens, confidence_floor=1.1) == "und"


class TestGroupByDomain:
    def test_host_grouping(self):
        recs = [make_record("http://a.com/x", ["a"]),
                make_record("http://a.com/y", ["b"]),
                make_record("http://b.org/z", ["c"])]
        parts = corpus.group_by_domain(recs)
        assert sum(len(v) for v in parts["a.com"].by_lang.values()) == 2
        assert sum(len(v) for v in parts["b.org"].by_lang.values()) == 1

    def test_dedup_keeps_longest(self):
        short = make_record("http://a.com/x", ["a"], raw_length=5)
        long = make_record("http://a.com/x", ["a", "b"], raw_length=50)
        parts = corpus.group_by_domain([short, long])
        assert sum(len(v) for v in parts["a.com"].by_lang.values()) == 1
        assert parts["a.com"].docs("en")[0].raw_length == 50

    def test_empty(self):
        assert corpus.group_by_domain([]) == {}

    def test_order_independent(self):
        recs = [
            make_record("http://a.com/x", ["a"], raw_length=3),
            make_record("http://a.com/x", ["b"], raw_length=3),  # tie
            make_record("http://a.com/y", ["c"], lang="fr"),
        ]
        fwd = corpus.group_by_domain(recs)
        rev = corpus.group_by_domain(list(reversed(recs)))
        assert {d: {l: [r.serialized() for r in docs]
                    for l, docs in p.by_lang.items()}
                for d, p in fwd.items()} == \
               {d: {l: [r.serialized() for r in docs]
                    for l, docs in p.by_lang.items()}
                for d, p in rev.items()}
        # tie broken toward the lexicographically smaller serialization
        kept = fwd["a.com"].docs("en")[0]
        assert kept.tokens == ["a"]

    def test_doc_count_equals_distinct_urls(self):
        recs = [make_record(f"http://d{i % 3}.com/p{i % 5}", ["x"]) for i in range(30)]
        parts = corpus.group_by_domain(recs)
        distinct = {(r.domain, r.url) for r in recs}
        assert sum(len(v) for p in parts.values() for v in p.by_lang.values()) \
            == len(distinct)

    def test_partition_language_consistency(self):
        recs = [make_record("http://a.com/x", ["a"], lang="fr"),
                make_record("http://a.com/y", ["b"], lang="en")]
        part = corpus.group_by_domain(recs)["a.com"]
        for lang, docs in part.by_lang.items():
            assert all(d.lang == lang and d.domain == "a.com" for d in docs)


def _write_two(tmp_path):
    corpus.write_partitions(corpus.group_by_domain(
        [make_record("http://a.com/x", ["a", "b"], lang="fr"),
         make_record("http://a.com/y", ["b"], lang="fr")]), tmp_path)
    return tmp_path / "docs.tsv", tmp_path / "words.json", tmp_path / "ids.npy"


_URL_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r")
# tokens with spaces, quotes, tabs and newlines, and a pool that makes the
# same word turn up in several languages
_TOKENS = st.one_of(
    st.sampled_from(["chat", "le", "a b", '"q"', "x\ty", "x\ny", "ü", "猫"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6),
)


@st.composite
def partitions(draw):
    """Deduplicated partitions of up to 12 records, as ``group_by_domain``
    gives them; often none, and often with untagged records."""
    records = []
    for _ in range(draw(st.integers(0, 12))):
        domain = draw(st.sampled_from(["a.com", "b.org", "例え.jp"]))
        url = f"http://{domain}/" + draw(st.text(_URL_CHARS, max_size=8))
        records.append(corpus.DocumentRecord(
            url=url, domain=domain,
            lang=draw(st.sampled_from(["en", "fr", "und", "zh-Hant", "de_CH"])),
            tokens=draw(st.lists(_TOKENS, max_size=5)),
            raw_length=draw(st.integers(0, 10**6))))
    return corpus.group_by_domain(records)


_SLICES = [slice(None), slice(1, None), slice(None, -1), slice(1, 3), slice(-2, None),
           slice(None, None, 2), slice(None, None, -1), slice(4, 1)]


def _layout(parts):
    return [(domain, list(part.by_lang)) for domain, part in parts.items()]


class TestPartitionIO:
    def test_roundtrip(self, tmp_path):
        recs = [make_record("http://a.com/x", ["héllo"], lang="fr"),
                make_record("http://a.com/y", ["b"]),
                make_record("http://b.org/z", ["c"])]
        parts = corpus.group_by_domain(recs)
        corpus.write_partitions(parts, tmp_path)
        loaded = corpus.read_partitions(tmp_path)
        assert sorted(loaded) == ["a.com", "b.org"]
        assert loaded["a.com"].docs("fr")[0].tokens == ["héllo"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "docs.tsv", "ids.npy", "words.json"]
        # rows in (lang, domain, URL) order, as in vectors/<lang>/
        assert (tmp_path / "docs.tsv").read_text() == (
            "en\ta.com\thttp://a.com/y\t1\t1\n"
            "en\tb.org\thttp://b.org/z\t1\t1\n"
            "fr\ta.com\thttp://a.com/x\t5\t1\n")
        assert json.loads((tmp_path / "words.json").read_text()) == ["b", "c", "héllo"]
        assert np.load(tmp_path / "ids.npy").tolist() == [0, 1, 2]

    @settings(deadline=None)
    @given(parts=partitions())
    def test_roundtrip_matches_jsonl_oracle(self, parts):
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp, "new"), Path(tmp, "old")
            old.mkdir()  # ingest made it before writing
            corpus.write_partitions(parts, new)
            write_jsonl_partitions(parts, old)
            loaded = corpus.read_partitions(new)
            assert loaded == parts == read_jsonl_partitions(old)
            assert _layout(loaded) == _layout(read_jsonl_partitions(old))

    @settings(deadline=None)
    @given(parts=partitions())
    @example(parts=corpus.group_by_domain([
        make_record("http://a.com/x", ["x\ty", "x\ny", '"q"', "ü", "猫", "x\ty"]),
        make_record("http://a.com/y", [])]))
    def test_tokens_match_eager_decode(self, parts):
        """Each record read back holds the tokens the eager decode gives its
        row, as a list, by index and by slice. ``len()`` decodes nothing, and
        each record is decoded once."""
        with tempfile.TemporaryDirectory() as tmp:
            corpus.write_partitions(parts, tmp)
            rows = eager_token_rows(tmp)
            with token_decodes() as decoded:
                loaded = corpus.read_partitions(tmp)
                groups = sorted((lang, domain) for domain, part in loaded.items()
                                for lang in part.by_lang)  # the row order
                records = [rec for lang, domain in groups for rec in loaded[domain].docs(lang)]
                assert [len(rec.tokens) for rec in records] == [len(row) for row in rows]
                assert decoded == []
                for rec, row in zip(records, rows):
                    assert rec.tokens == row and row == rec.tokens
                    assert list(rec.tokens) == row
                    assert [rec.tokens[i] for i in range(-len(row), len(row))] == row * 2
                    for cut in _SLICES:
                        assert rec.tokens[cut] == row[cut]
                    with pytest.raises(IndexError):
                        rec.tokens[len(row)]
            assert len({id(view) for view in decoded}) == len(decoded) == len(records)

    @pytest.mark.parametrize("bad, message", [
        pytest.param(b"fr\ta.com\thttp://a.com/z\t5", "expected 5 tab-separated fields, got 4",
                     id="four-fields"),
        pytest.param(b"", "expected 5 tab-separated fields, got 1", id="blank"),
        pytest.param(b"fr\ta.com\thttp://a.com/z\t-5\t0",
                     "length '-5' is not a non-negative integer", id="negative-length"),
        pytest.param("fr\ta.com\thttp://a.com/z\t5\t١".encode(),
                     "token count '١' is not a non-negative integer", id="non-ascii-count"),
        pytest.param(b"fr\ta.com\t\t5\t0", "empty URL", id="empty-url"),
        pytest.param(b"fr\t\thttp://a.com/z\t5\t0", "empty domain", id="empty-domain"),
        pytest.param(b"../x\ta.com\thttp://a.com/z\t5\t0", "language tag '../x'",
                     id="lang-path"),
        pytest.param(b"fr\ta.com\thttp://a.com/z\r\t5\t0", "URL 'http://a.com/z\\r' contains",
                     id="url-carriage-return"),
        pytest.param(b"fr\ta.com\thttp://a.com/\xff\t5\t0", "not UTF-8", id="not-utf8"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, bad, message):
        docs, _words, _ids = _write_two(tmp_path)
        docs.write_bytes(docs.read_bytes() + bad + b"\n")
        with pytest.raises(FormatError, match=rf"^{re.escape(str(docs))}:3: {re.escape(message)}"):
            corpus.read_partitions(tmp_path)

    @pytest.mark.parametrize("ids, message", [
        pytest.param(np.array([0, 1], dtype=np.int32), "2 token ids, but .* counts 3",
                     id="short"),
        pytest.param(np.array([0, 1, 2], dtype=np.int32), "token id outside the 2 words",
                     id="id-past-words"),
        pytest.param(np.array([0, -1, 1], dtype=np.int32), "token id outside the 2 words",
                     id="negative-id"),
        pytest.param(np.array([[0, 1, 1]], dtype=np.int32), "2-D int32, not 1-D int32",
                     id="two-d"),
        pytest.param(np.array([0, 1, 1], dtype=np.int64), "1-D int64, not 1-D int32",
                     id="int64"),
        pytest.param(np.array(["a", "b", "b"], dtype=object), "allow_pickle=False",
                     id="pickled"),
    ])
    def test_bad_ids_names_file(self, tmp_path, ids, message):
        _docs, _words, path = _write_two(tmp_path)
        np.save(path, ids, allow_pickle=True)
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: .*{message}"):
            corpus.read_partitions(tmp_path)

    @pytest.mark.parametrize("text, message", [
        pytest.param('{"a": 0}', "not a JSON list of strings", id="object"),
        pytest.param('["a", 5]', "not a JSON list of strings", id="number"),
        pytest.param('["a", "b"', "Expecting", id="truncated"),
        pytest.param(None, "No such file or directory", id="missing"),
    ])
    def test_bad_words_names_file(self, tmp_path, text, message):
        _docs, path, _ids = _write_two(tmp_path)
        if text is None:
            path.unlink()
        else:
            path.write_text(text)
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: .*{message}"):
            corpus.read_partitions(tmp_path)

    # parse_record refuses each of these; write_partitions used to write
    # them, or fail half way on the lone surrogate
    @pytest.mark.parametrize("field, value", [
        ("url", "http://a.com/x\ty"), ("url", "http://a.com/x\ny"),
        ("domain", "a.com\n"), ("lang", "f\tr"), ("url", ""),
        ("url", "http://a.com/\ud800"),
    ])
    def test_write_refuses_unsafe_field(self, tmp_path, field, value):
        rec = make_record("http://a.com/x", ["a"])
        setattr(rec, field, value)
        part = corpus.CorpusPartition(rec.domain, {rec.lang: [rec]})
        with pytest.raises(SchemaError):
            corpus.write_partitions({rec.domain: part}, tmp_path)
        assert not list(tmp_path.iterdir())
