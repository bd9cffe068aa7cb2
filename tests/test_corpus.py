import json
import sys
import unicodedata
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from docalign import corpus
from docalign.errors import ParseError, SchemaError
from tests.conftest import make_record


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

    def test_idempotent_on_own_output(self):
        html = "<title>T</title><div>a<p>b</p></div><span>z</span>"
        once = corpus.extract_text(html)
        assert corpus.extract_text(once) == once


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
        with mock.patch.object(corpus, "_TRANSLATE", {}), \
                mock.patch.object(corpus, "_CLASSIFIED", set()):
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
        rec = corpus.parse_record(b'{"url":"http://a.com/x","text":"Hello World"}')
        assert rec.url == "http://a.com/x"
        assert rec.domain == "a.com"
        assert rec.tokens == ["hello", "world"]
        assert rec.lang == "und"

    def test_missing_content_is_schema_error(self):
        with pytest.raises(SchemaError):
            corpus.parse_record(b'{"url":"http://a.com/x"}')

    def test_html_record_with_lang(self):
        rec = corpus.parse_record(
            b'{"url":"http://a.com/y","html":"<p>Bonjour</p>","lang":"fr"}'
        )
        assert rec.lang == "fr"
        assert rec.tokens == ["bonjour"]

    def test_both_content_fields_rejected(self):
        with pytest.raises(SchemaError):
            corpus.parse_record(b'{"url":"u","html":"<p>a</p>","text":"a"}')

    def test_missing_url(self):
        with pytest.raises(SchemaError):
            corpus.parse_record(b'{"text":"hi"}')

    def test_malformed_json_names_offset(self):
        with pytest.raises(ParseError, match="byte offset"):
            corpus.parse_record(b'{"url": oops}')

    def test_tsv_record(self):
        rec = corpus.parse_record(b"http://a.com/x\tfr\tbonjour le\\tmonde", "tsv")
        assert rec.lang == "fr"
        assert rec.tokens == ["bonjour", "le", "monde"]

    def test_tsv_missing_field(self):
        with pytest.raises(ParseError):
            corpus.parse_record(b"http://a.com/x\tfr", "tsv")

    def test_raw_length_counts_extracted_chars(self):
        rec = corpus.parse_record(b'{"url":"u.com/a","text":"abcde"}')
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

    def test_custom_detector(self):
        class Fixed:
            def classify(self, text):
                return "xx", 0.9

        assert corpus.detect_language(["a"], detector=Fixed()) == "xx"


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
