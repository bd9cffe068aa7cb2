import random

import pytest
from hypothesis import given, strategies as st

from docalign.align_cda import AlignmentPair
from docalign.miner import _one_token_diff, mine_identifiers


def pair(purl, ourl, method="cda"):
    return AlignmentPair(
        domain="d.com", pivot_url=purl, other_url=ourl,
        other_lang="xx", score=0.5, method=method,
    )


class TestMineIdentifiers:
    def test_substitution_example(self):
        pairs = [pair("www.visitsingapore.com/en/", "www.visitsingapore.com/vi_vn/")]
        assert mine_identifiers(pairs) == [("en", "vi_vn", 1)]

    def test_identical_urls(self):
        assert mine_identifiers([pair("a.com/x", "a.com/x")]) == []

    def test_two_position_diff(self):
        assert mine_identifiers([pair("a.com/en/x", "a.com/fr/y")]) == []

    @pytest.mark.parametrize("purl, ourl", [
        ("a.com/x", "a.com/en/fr/x"),  # two tokens more
        ("a.com/en/fr/x", "a.com/x"),  # two tokens fewer
        ("a.com/en/x", "a.com/fr/y/x"),  # one more, not a single insertion
        ("a.com/fr/y/x", "a.com/en/x"),  # one fewer, not a single deletion
    ])
    def test_no_single_insertion_or_deletion(self, purl, ourl):
        assert mine_identifiers([pair(purl, ourl)]) == []

    def test_insertion_case(self):
        pairs = [pair("xyz.ca/index.htm", "xyz.ca/fr/index.htm")]
        assert mine_identifiers(pairs) == [("", "fr", 1)]

    def test_deletion_case(self):
        pairs = [pair("xyz.ca/en/index.htm", "xyz.ca/index.htm")]
        assert mine_identifiers(pairs) == [("en", "", 1)]

    def test_support_counts_and_min_support(self):
        pairs = [pair(f"a.com/en/p{i}", f"a.com/cesky/p{i}") for i in range(5)]
        pairs.append(pair("a.com/en/q", "a.com/zz/q"))
        got = mine_identifiers(pairs, min_support=3)
        assert got == [("en", "cesky", 5)]

    def test_support_recount_oracle(self):
        rng = random.Random(4)
        pairs = []
        expected = {}
        for i in range(40):
            token = rng.choice(["fr", "de", "vi_vn"])
            pairs.append(pair(f"s.com/en/p{i}", f"s.com/{token}/p{i}"))
            expected[("en", token)] = expected.get(("en", token), 0) + 1
        got = {(a, b): n for a, b, n in mine_identifiers(pairs)}
        assert got == expected

    def test_order_independent(self):
        pairs = [pair(f"a.com/en/{i}", f"a.com/fr/{i}") for i in range(4)]
        pairs += [pair(f"a.com/en/x{i}", f"a.com/de/x{i}") for i in range(2)]
        fwd = mine_identifiers(pairs)
        rev = mine_identifiers(list(reversed(pairs)))
        assert fwd == rev == [("en", "fr", 4), ("en", "de", 2)]

    def test_url_pairs_ignored(self):
        pairs = [pair("a.com/en/x", "a.com/fr/x", method="url")]
        assert mine_identifiers(pairs) == []

    def test_tokens_contain_no_separators(self):
        pairs = [pair("a.com/en/x.htm?k=1", "a.com/pt-br/x.htm?k=1")]
        for a, b, _n in mine_identifiers(pairs):
            assert not set(a) & set("/.=?&")
            assert not set(b) & set("/.=?&")

    def test_scheme_ignored(self):
        pairs = [pair("http://a.com/en/x", "https://a.com/fr/x")]
        assert mine_identifiers(pairs) == [("en", "fr", 1)]


def one_token_diff_plain(a, b):
    """The substituted pair when ``a`` and ``b`` differ at one position, the
    deleted token beside "" when deleting one token of the longer list
    gives the shorter, None otherwise."""
    if len(a) == len(b):
        diffs = [(x, y) for x, y in zip(a, b) if x != y]
        return diffs[0] if len(diffs) == 1 else None
    for i in range(len(a)):
        if a[:i] + a[i + 1:] == b:
            return a[i], ""
    for i in range(len(b)):
        if b[:i] + b[i + 1:] == a:
            return "", b[i]
    return None


url_tokens = st.lists(st.sampled_from(["en", "fr", "x"]), max_size=6)


@st.composite
def token_list_pairs(draw):
    """Two token lists of length 0-6, the second either drawn on its own or
    made from the first by one edit: a token put in, cut out or replaced."""
    a, b = draw(url_tokens), draw(url_tokens)
    i = draw(st.integers(0, len(a)))
    edited = (a[:i] + b[:1] + a[i + draw(st.integers(0, 1)):])[:6]
    return a, draw(st.sampled_from([b, edited]))


@given(token_list_pairs())
def test_one_token_diff_matches_plain_definition(pair):
    a, b = pair
    assert _one_token_diff(a, b) == one_token_diff_plain(a, b)
    assert _one_token_diff(b, a) == one_token_diff_plain(b, a)
