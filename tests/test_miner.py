import random

import pytest

from docalign.align_cda import AlignmentPair
from docalign.miner import mine_identifiers


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
