import pytest
from hypothesis import given, settings, strategies as st

from docalign import align_url
from docalign.align_url import (SEPARATORS, IdentifierSet, default_identifier_set,
                                strip_identifiers)
from docalign.corpus import CorpusPartition
from docalign.errors import ConfigError
from tests.conftest import make_record


def ids_of(*identifiers):
    return IdentifierSet(identifiers=set(identifiers))


class TestIdentifierSet:
    def test_rejects_empty_set(self):
        with pytest.raises(ConfigError):
            IdentifierSet(identifiers=set())

    def test_rejects_uppercase(self):
        with pytest.raises(ConfigError):
            ids_of("FR")

    def test_rejects_hard_separators(self):
        with pytest.raises(ConfigError):
            ids_of("fr/ca")

    def test_allows_compound_locales(self):
        s = ids_of("fr-fr", "vi_vn")
        assert "fr-fr" in s

    def test_load_file_with_comments(self, tmp_path):
        path = tmp_path / "ids.txt"
        path.write_text("# header\nfr\nEN  # inline\n\ncs\n")
        s = align_url.load_identifier_set(path)
        assert s.identifiers == {"fr", "en", "cs"}

    def test_default_set_covers_common_codes(self):
        s = default_identifier_set()
        for ident in ("fr", "en", "cs", "ces", "czech", "french", "zh-cn", "vi"):
            assert ident in s


class TestStripIdentifiers:
    def test_paper_example(self):
        forms = strip_identifiers("xyz.ca/fr/index.htm", ids_of("fr"))
        assert "xyz.ca/index.htm" in forms
        assert "xyz.ca/fr/index.htm" in forms

    def test_nothing_to_strip(self):
        assert strip_identifiers("a.com/page.htm", ids_of("fr")) == {"a.com/page.htm"}

    def test_one_token_at_a_time(self):
        forms = strip_identifiers("a.com/fr/fr.htm", ids_of("fr"))
        assert "a.com/fr.htm" in forms
        assert "a.com/fr/.htm" in forms
        # both tokens are never removed simultaneously
        assert "a.com/.htm" not in forms

    def test_lowercases(self):
        forms = strip_identifiers("A.com/FR/x.htm", ids_of("fr"))
        assert "a.com/x.htm" in forms

    def test_compound_identifier_span(self):
        forms = strip_identifiers("a.com/fr-ca/x.htm", ids_of("fr-ca"))
        assert "a.com/x.htm" in forms

    def test_underscore_identifier(self):
        forms = strip_identifiers("b.com/vi_vn/x", ids_of("vi_vn"))
        assert "b.com/x" in forms

    def test_trailing_token(self):
        forms = strip_identifiers("a.com/docs/fr", ids_of("fr"))
        assert "a.com/docs" in forms

    def test_query_value_stripped(self):
        forms = strip_identifiers("a.com/x?lang=fr", ids_of("fr"))
        assert "a.com/x" in forms

    def test_query_value_kept_when_flag_off(self):
        forms = strip_identifiers("a.com/x?lang=fr", ids_of("fr"),
                                  strip_query_params=False)
        assert "a.com/x" not in forms

    def test_query_param_among_others(self):
        forms = strip_identifiers("a.com/x?id=3&lang=fr", ids_of("fr"))
        assert "a.com/x?id=3" in forms

    def test_hostname_untouched_by_default(self):
        forms = strip_identifiers("fr.example.com/x", ids_of("fr"))
        assert all(f.startswith("fr.example.com") for f in forms)

    def test_hostname_flag(self):
        forms = strip_identifiers("fr.example.com/x", ids_of("fr"),
                                  strip_hostname=True)
        assert "example.com/x" in forms

    def test_identifier_inside_word_not_stripped(self):
        forms = strip_identifiers("a.com/freight/x", ids_of("fr"))
        assert forms == {"a.com/freight/x"}

    def test_scheme_preserved(self):
        forms = strip_identifiers("http://xyz.ca/fr/index.htm", ids_of("fr"))
        assert "http://xyz.ca/index.htm" in forms


def strip_token_spans_oracle(prefix, tail, ids):
    """``_strip_token_spans`` before it skipped tokens that start no
    identifier: every non-empty token is tried as a span start."""
    parts = align_url._SPLIT_RE.split(tail)
    out = set()
    n = len(parts)
    for i in range(0, n, 2):
        if not parts[i]:
            continue
        for j in range(i, min(i + 2 * align_url._MAX_SPAN_TOKENS, n), 2):
            if not parts[j]:
                break
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
                mid = [left] if left == right else [left, right]
            else:
                mid = []
            out.add(prefix + "".join(before + mid + after))
    return out


# identifier tokens double as URL tokens; "" makes leading, trailing and
# doubled separators
_TOKENS = ["fr", "ca", "zh", "hans", "x", ""]


def _joined(tokens, seps):
    return "".join(t + s for t, s in zip(tokens, seps)) + tokens[-1]


@st.composite
def identifiers(draw):
    n = draw(st.integers(1, 3))
    tokens = draw(st.lists(st.sampled_from(_TOKENS), min_size=n, max_size=n))
    ident = _joined(tokens, draw(st.lists(st.sampled_from("-_"), min_size=n - 1,
                                          max_size=n - 1)))
    return ident or "fr"


@st.composite
def url_tails(draw):
    n = draw(st.integers(1, 10))
    tokens = draw(st.lists(st.sampled_from(_TOKENS), min_size=n, max_size=n))
    return _joined(tokens, draw(st.lists(st.sampled_from(SEPARATORS),
                                         min_size=n - 1, max_size=n - 1)))


class TestStripTokenSpansOracle:
    @settings(max_examples=400, deadline=None)
    @given(idents=st.lists(identifiers(), min_size=1, max_size=4),
           tail=url_tails(), prefix=st.sampled_from(["", "http://a.com"]))
    def test_equals_every_token_tried(self, idents, tail, prefix):
        ids = IdentifierSet(identifiers=set(idents))
        assert align_url._strip_token_spans(prefix, tail, ids) == \
            strip_token_spans_oracle(prefix, tail, ids)

    def test_heads_are_first_tokens(self):
        s = ids_of("fr", "zh-hans-cn", "vi_vn", "-x")
        assert s.heads == {"fr", "zh", "vi", ""}
        assert isinstance(s.identifiers, frozenset)


def partition(pivot_urls, other_urls, domain="xyz.ca"):
    return CorpusPartition(
        domain=domain,
        by_lang={
            "en": [make_record(u, ["x"], lang="en") for u in pivot_urls],
            "fr": [make_record(u, ["x"], lang="fr") for u in other_urls],
        },
    )


class TestMatchUrls:
    def test_paper_pair(self):
        part = partition(["xyz.ca/index.htm"], ["xyz.ca/fr/index.htm"])
        pairs = align_url.match_urls(part, "en", "fr", default_identifier_set())
        assert len(pairs) == 1
        p = pairs[0]
        assert (p.pivot_url, p.other_url) == ("xyz.ca/index.htm", "xyz.ca/fr/index.htm")
        assert p.score == 1.0
        assert p.method == "url"

    def test_no_match(self):
        part = partition(["a.com/x"], ["a.com/y"], domain="a.com")
        assert align_url.match_urls(part, "en", "fr", ids_of("fr")) == []

    def test_one_to_one_first_match_wins(self):
        part = partition(
            ["a.com/x"],
            ["a.com/fr/x", "a.com/x?lang=fr"],
            domain="a.com",
        )
        pairs = align_url.match_urls(part, "en", "fr", ids_of("fr"))
        assert [(p.pivot_url, p.other_url) for p in pairs] == \
               [("a.com/x", "a.com/fr/x")]

    def test_no_url_appears_twice(self):
        part = partition(
            ["a.com/p1", "a.com/p2"],
            ["a.com/fr/p1", "a.com/p1?lang=fr", "a.com/fr/p2"],
            domain="a.com",
        )
        pairs = align_url.match_urls(part, "en", "fr", ids_of("fr"))
        assert len({p.pivot_url for p in pairs}) == len(pairs)
        assert len({p.other_url for p in pairs}) == len(pairs)

    def test_symmetric_in_normalized_space(self):
        ids = ids_of("fr", "en")
        u, v = "s.com/en/page", "s.com/fr/page"
        assert strip_identifiers(u, ids) & strip_identifiers(v, ids)
        assert strip_identifiers(v, ids) & strip_identifiers(u, ids)

    def test_monotone_in_identifier_set(self):
        part = partition(
            ["a.com/x", "a.com/en/y"],
            ["a.com/fr/x", "a.com/francais/y"],
            domain="a.com",
        )
        small = align_url.match_urls(part, "en", "fr", ids_of("fr"))
        big = align_url.match_urls(part, "en", "fr", ids_of("fr", "francais", "en"))
        small_set = {(p.pivot_url, p.other_url) for p in small}
        big_set = {(p.pivot_url, p.other_url) for p in big}
        assert small_set <= big_set

    def test_align_corpus_by_url(self):
        parts = {
            "a.com": partition(["a.com/x"], ["a.com/fr/x"], domain="a.com"),
            "b.com": partition(["b.com/y"], ["b.com/fr/y"], domain="b.com"),
        }
        pairs = align_url.align_corpus_by_url(parts, "en", ["fr"], ids_of("fr"))
        assert [(p.domain) for p in pairs] == ["a.com", "b.com"]
