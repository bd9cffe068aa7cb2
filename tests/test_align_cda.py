import itertools
import random
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from docalign import align_cda
from docalign.corpus import CorpusPartition
from docalign.errors import ConfigError, FormatError
from docalign.align_cda import ScoreMatrix
from docalign.vectorspace import VectorTable
from tests import reference
from tests.conftest import make_record, matrix_entries, score_matrix, vector_table


def vec(*entries):
    """A vector of (dimension, weight) entries, in dimension order."""
    return sorted(entries)


def tables(**by_lang):
    """{lang: VectorTable} from lang=[vector, ...] keywords."""
    return {lang: vector_table(vecs) for lang, vecs in by_lang.items()}


def domain_blocks(partitions, vectors):
    """Each domain's partition, in sorted order, with its rows of every
    table of ``vectors``, as ``align_corpus`` hands them to
    ``score_domain``."""
    start = dict.fromkeys(vectors, 0)
    for domain in sorted(partitions):
        part, block = partitions[domain], {}
        for lang, row in start.items():
            start[lang] = row + len(part.docs(lang))
            block[lang] = vectors[lang].rows(row, start[lang])
        yield part, block


def with_empty_row(table):
    """``table`` with one more row, an empty one."""
    return VectorTable(indptr=np.append(table.indptr, table.indptr[-1]),
                       indices=table.indices, data=table.data)


def triples(pairs):
    return [(p.pivot_url, p.other_url, p.score) for p in pairs]


def partition_with(pivot_urls, other_urls, domain="d.com", other_lang="fr"):
    return CorpusPartition(
        domain=domain,
        by_lang={
            "en": [make_record(u, ["x"], lang="en") for u in pivot_urls],
            other_lang: [make_record(u, ["x"], lang=other_lang) for u in other_urls],
        },
    )


def pair_score(pivot, other):
    """``score_domain``'s score of a block of two documents, or 0.0."""
    m = align_cda.score_domain(partition_with(["p"], ["o"]), tables(en=[pivot], fr=[other]),
                               "en", "fr", 0.0)
    return matrix_entries(m).get(("p", "o"), 0.0)


class TestScorePair:
    def test_self_product_is_one(self):
        v = vec((0, 0.6), (3, 0.8))
        assert pair_score(v, v) == pytest.approx(1.0, abs=1e-9)

    def test_hand_dot_product(self):
        a = vec((0, 0.70711), (1, 0.70711))
        b = vec((0, 1.0))
        assert pair_score(a, b) == pytest.approx(0.70711, abs=1e-9)


class TestScoreDomain:
    def setup_method(self):
        self.pivot = {"p1": vec((0, 1.0)), "p2": vec((0, 0.6), (1, 0.8))}
        self.other = {"o1": vec((0, 1.0)), "o2": vec((1, 1.0))}
        self.vectors = tables(en=list(self.pivot.values()), fr=list(self.other.values()))
        self.partition = partition_with(["p1", "p2"], ["o1", "o2"])

    def test_matches_brute_force(self):
        m = align_cda.score_domain(self.partition, self.vectors, "en", "fr", 0.0)
        expected, _scored = reference.block_scores(self.pivot, self.other, 0.0)
        for p, o in itertools.product(["p1", "p2"], ["o1", "o2"]):
            assert matrix_entries(m).get((p, o), 0.0) == \
                pytest.approx(expected.get((p, o), 0.0), abs=1e-12)

    def test_threshold_filters(self):
        m = align_cda.score_domain(self.partition, self.vectors, "en", "fr", 0.7)
        assert set(matrix_entries(m)) == {("p1", "o1"), ("p2", "o2")}

    def test_impossible_threshold(self):
        m = align_cda.score_domain(self.partition, self.vectors, "en", "fr", 1.0 + 1e-9)
        assert matrix_entries(m) == {}

    def test_absent_language(self):
        m = align_cda.score_domain(self.partition, self.vectors, "en", "de", 0.0)
        assert matrix_entries(m) == {}

    def test_no_shared_dim_never_scored(self):
        m = align_cda.score_domain(self.partition, self.vectors, "en", "fr", 0.0)
        # (p1, o2) shares no dimension, so it is not even a candidate
        assert ("p1", "o2") not in matrix_entries(m)
        assert m.scored_pairs == 3  # of 4 possible


class TestMatchOneToOne:
    def test_greedy_trace(self):
        m = score_matrix({("e1", "f1"): 0.9, ("e1", "f2"): 0.8, ("e2", "f2"): 0.7})
        got = [(p.pivot_url, p.other_url, p.score) for p in align_cda.match_one_to_one(m)]
        assert got == [("e1", "f1", 0.9), ("e2", "f2", 0.7)]

    def test_tie_toward_lexicographic(self):
        m = score_matrix({("e1", "f1"): 0.5, ("e2", "f1"): 0.5})
        got = [(p.pivot_url, p.other_url) for p in align_cda.match_one_to_one(m)]
        assert got == [("e1", "f1")]

    def test_empty(self):
        assert align_cda.match_one_to_one(score_matrix({})) == []

    def test_each_url_at_most_once(self):
        rng = random.Random(0)
        m = score_matrix({
            (f"p{i}", f"o{j}"): round(rng.random(), 6)
            for i in range(20) for j in range(20) if rng.random() < 0.4
        })
        pairs = align_cda.match_one_to_one(m)
        assert len({p.pivot_url for p in pairs}) == len(pairs)
        assert len({p.other_url for p in pairs}) == len(pairs)

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_brute_force_oracle(self, seed):
        rng = random.Random(seed)
        n, k = rng.randint(1, 30), rng.randint(1, 30)
        m = score_matrix({
            (f"p{i:02d}", f"o{j:02d}"): round(rng.random(), 4)
            for i in range(n) for j in range(k) if rng.random() < 0.5
        })
        got = [(p.pivot_url, p.other_url, p.score) for p in align_cda.match_one_to_one(m)]
        assert got == reference.greedy(matrix_entries(m))

    def test_output_sorted_by_descending_score(self):
        rng = random.Random(2)
        m = score_matrix({(f"p{i}", f"o{i}"): rng.random() for i in range(10)})
        scores = [p.score for p in align_cda.match_one_to_one(m)]
        assert scores == sorted(scores, reverse=True)


class TestAlignCorpus:
    def build(self, domains=("a.com", "b.com"), langs=("fr", "de")):
        """Partitions in the order of ``domains``; each table lists its
        language's documents in sorted-domain order."""
        partitions, vectors = {}, {"en": {}}
        for lang in langs:
            vectors[lang] = {}
        for di, domain in enumerate(domains):
            by_lang = {"en": []}
            for i in range(2):
                url = f"http://{domain}/en/{i}"
                by_lang["en"].append(make_record(url, ["x"], lang="en"))
                vectors["en"][url] = vec((100 * di + i, 1.0))
            for lang in langs:
                by_lang[lang] = []
                for i in range(2):
                    url = f"http://{domain}/{lang}/{i}"
                    by_lang[lang].append(make_record(url, ["x"], lang=lang))
                    vectors[lang][url] = vec((100 * di + i, 1.0))
            partitions[domain] = CorpusPartition(domain=domain, by_lang=by_lang)
        return partitions, {
            lang: vector_table(by_url[d.url] for domain in sorted(partitions)
                               for d in partitions[domain].docs(lang))
            for lang, by_url in vectors.items()}

    def test_union_of_per_language_matchings(self):
        partitions, vectors = self.build()
        pairs = align_cda.align_corpus(partitions, vectors, "en", ["fr", "de"], 0.5)
        assert len(pairs) == 8  # 2 domains x 2 langs x 2 docs
        by_key = {(p.domain, p.other_lang) for p in pairs}
        assert by_key == {(d, l) for d in ("a.com", "b.com") for l in ("fr", "de")}
        # a pivot doc may appear once per language
        for (domain, lang) in by_key:
            sub = [p for p in pairs if (p.domain, p.other_lang) == (domain, lang)]
            assert len({p.pivot_url for p in sub}) == len(sub)

    # pairs.tsv is written in this order, with no sort of its own
    def test_pairs_come_sorted_by_block_then_score(self):
        partitions, vectors = self.build(domains=("b.com", "a.com"))
        pairs = align_cda.align_corpus(partitions, vectors, "en", ["fr", "de"], 0.5)
        assert len(pairs) == 8
        assert pairs == sorted(pairs, key=lambda p: (p.domain, p.other_lang, -p.score,
                                                     p.pivot_url, p.other_url))

    def test_deterministic_across_runs(self):
        partitions, vectors = self.build()
        runs = [
            align_cda.align_corpus(partitions, vectors, "en", ["fr", "de"], 0.5)
            for _ in range(3)
        ]
        serialized = [[(p.domain, p.pivot_url, p.other_url, p.score) for p in r]
                      for r in runs]
        assert serialized[0] == serialized[1] == serialized[2]

    def test_missing_language_vectors(self):
        partitions, vectors = self.build()
        del vectors["de"]
        with pytest.raises(ConfigError, match="de"):
            align_cda.align_corpus(partitions, vectors, "en", ["fr", "de"], 0.5)

    def test_pivot_only_domain(self):
        partitions = {"a.com": partition_with(["p1"], [], other_lang="fr")}
        vectors = tables(en=[vec((0, 1.0))], fr=[])
        assert align_cda.align_corpus(partitions, vectors, "en", ["fr"], 0.1) == []

    def test_threshold_monotone_on_matrix_entries(self):
        partitions, vectors = self.build()
        for part, block in domain_blocks(partitions, vectors):
            low = align_cda.score_domain(part, block, "en", "fr", 0.1)
            high = align_cda.score_domain(part, block, "en", "fr", 0.6)
            assert set(matrix_entries(high)) <= set(matrix_entries(low))

    @pytest.mark.parametrize("lang", ["en", "fr"])
    @pytest.mark.parametrize("change, rows", [("one more", 5), ("one less", 3)])
    def test_table_without_a_row_per_document(self, lang, change, rows):
        partitions, vectors = self.build()
        table = vectors[lang]
        vectors[lang] = with_empty_row(table) if change == "one more" else table.rows(0, 3)
        with pytest.raises(FormatError, match=rf"^vectors of language '{lang}' hold "
                                              rf"{rows} rows for its 4 documents$"):
            align_cda.align_corpus(partitions, vectors, "en", ["fr", "de"], 0.1)

    @pytest.mark.parametrize("lang", ["en", "fr"])
    @pytest.mark.parametrize("change, rows", [("one more", 3), ("one less", 1)])
    def test_block_table_without_a_row_per_document(self, lang, change, rows):
        partitions, vectors = self.build()
        part, block = next(domain_blocks(partitions, vectors))
        table = block[lang]
        block[lang] = with_empty_row(table) if change == "one more" else table.rows(0, 1)
        with pytest.raises(FormatError, match=rf"^a.com: vectors of language '{lang}' "
                                              rf"hold {rows} rows for its 2 documents$"):
            align_cda.score_domain(part, block, "en", "fr", 0.1)

    # run rejects both, but the function is public: it linked each pivot
    # page to itself, and emitted every pair of a repeated language twice
    @pytest.mark.parametrize("langs, message", [
        pytest.param(["fr", "en"], "langs must not list the pivot 'en'", id="pivot"),
        pytest.param(["fr", "de", "fr"],
                     "langs must not list a language twice, got ['de', 'fr', 'fr']",
                     id="twice"),
    ])
    def test_rejects_pivot_or_repeated_language(self, langs, message):
        partitions, vectors = self.build()
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            align_cda.align_corpus(partitions, vectors, "en", langs, 0.1)

    def test_stats_reported(self):
        partitions, vectors = self.build()
        stats = {}
        align_cda.align_corpus(partitions, vectors, "en", ["fr"], 0.1, stats=stats)
        assert stats["possible_pairs"] == 8
        assert 0 < stats["scored_pairs"] <= stats["possible_pairs"]


# Few dimensions and few distinct weights make shared dimensions common and
# repeated scores frequent, so tie-breaking is exercised; a zero weight
# gives pairs that are scored but sum to 0.0 and are never stored.
_DIMS = 6
_WEIGHTS = (0.0, 0.1, 0.25, 0.3, 0.5, 1.0)

# A block's dimension ids, ascending: the pivot side uses the first _DIMS,
# the other side all _DIMS + 1, so that the last can lie above every pivot
# dimension. They are either 0 up to _DIMS or spread across 2**15 and 2**16:
# past any block's entry count, where score_domain finds postings by binary
# search, and past the ids its dimension sort can narrow to 16 bits.
_SPREAD_IDS = (0, 1, 7, (1 << 15) - 1, 1 << 15, (1 << 15) + 1,
               (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 1 << 17)
_DIM_IDS = st.just(list(range(_DIMS + 1))) | st.lists(
    st.sampled_from(_SPREAD_IDS), min_size=_DIMS + 1, max_size=_DIMS + 1,
    unique=True).map(sorted)


def _vector(n_dims):
    """A document's vector as positions in the block's dimension ids: none,
    empty, or a few (position, weight) entries."""
    return st.none() | st.lists(
        st.tuples(st.integers(0, n_dims - 1), st.sampled_from(_WEIGHTS)),
        max_size=n_dims, unique_by=lambda e: e[0])


def _documents(min_size, max_size, max_id, n_dims):
    """(URL id, vector) pairs; each document is drawn, and shrunk, whole."""
    return st.lists(st.tuples(st.integers(0, max_id), _vector(n_dims)),
                    min_size=min_size, max_size=max_size, unique_by=lambda d: d[0])


@st.composite
def blocks(draw):
    """One en/fr block of 1-40 documents per side, in an order that is not
    URL order (".../9" sorts after ".../10"), with a table of one row per
    document, and each side's vectors by URL. A document's vector is empty,
    drawn as none or as no entries, or holds a few entries over the block's
    dimension ids."""
    dims = draw(_DIM_IDS)
    by_url, tables_by_lang, docs = {}, {}, {}
    for lang, n_dims in (("en", _DIMS), ("fr", _DIMS + 1)):
        block = draw(_documents(1, 40, 999, n_dims))
        by_url[lang] = {f"http://d.com/{lang}/{i}":
                        vec(*((dims[j], w) for j, w in entries or []))
                        for i, entries in block}
        tables_by_lang[lang] = vector_table(by_url[lang].values())
        docs[lang] = [make_record(url, ["x"], lang=lang) for url in by_url[lang]]
    partition = CorpusPartition(domain="d.com", by_lang=docs)
    return partition, tables_by_lang, by_url


class TestOracleEquivalence:
    # no shrinking: a failing example is reported in seconds, where shrinking
    # these blocks took minutes
    # a block's product count, and one less, bound the budgets that score
    # it in one chunk
    @pytest.mark.parametrize("budget", [1, 50, align_cda.PRODUCT_BUDGET,
                                        "products", "products - 1"])
    @settings(max_examples=60, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
    @given(block=blocks(), threshold=st.sampled_from([0.0, 0.3, 1.5]))
    def test_array_path_equals_oracles(self, budget, block, threshold):
        partition, vectors, by_url = block
        if isinstance(budget, str):
            pivot_dims = Counter(vectors["en"].indices.tolist())
            products = sum(pivot_dims[d] for d in vectors["fr"].indices.tolist())
            budget = max(1, products - budget.endswith("- 1"))
        with mock.patch.object(align_cda, "PRODUCT_BUDGET", budget):
            m = align_cda.score_domain(partition, vectors, "en", "fr", threshold)
        scores, scored_pairs = reference.block_scores(by_url["en"], by_url["fr"], threshold)
        assert m.scored_pairs == scored_pairs
        assert type(m.scored_pairs) is int  # the benchmark's trace writes it as JSON
        assert matrix_entries(m) == scores  # exact: same sums, same order
        assert triples(align_cda.match_one_to_one(m)) == reference.greedy(scores)


# Few distinct scores, so that ties straddle the band cuts; a hub's entries
# all hold a score above them.
_LINK_SCORES = (0.2, 0.5, 0.8, 1.0)
_HUB_SCORE = 2.0


@st.composite
def linking_blocks(draw):
    """A ScoreMatrix of 0-8 documents per side, listed in an order that is
    not URL order, with any subset of the pairs stored in any order. One
    document of either side may be a hub: its entries to every document of
    the other side rank first, and only one of them can be linked."""
    n_pivot, n_other = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    pivot_urls = draw(st.permutations([f"p{i}" for i in range(n_pivot)]))
    other_urls = draw(st.permutations([f"o{i}" for i in range(n_other)]))
    cells = [(p, o) for p in range(n_pivot) for o in range(n_other)]
    scores = {}
    if cells:
        scores = draw(st.dictionaries(st.sampled_from(cells),
                                      st.sampled_from(_LINK_SCORES)))
        hub = draw(st.sampled_from(["none", "pivot", "other"]))
        if hub == "pivot":
            h = draw(st.integers(0, n_pivot - 1))
            scores.update({(h, o): _HUB_SCORE for o in range(n_other)})
        elif hub == "other":
            h = draw(st.integers(0, n_other - 1))
            scores.update({(p, h): _HUB_SCORE for p in range(n_pivot)})
    entries = draw(st.permutations(sorted(scores.items())))
    return ScoreMatrix(
        domain="d.com", other_lang="fr",
        pivot_urls=list(pivot_urls), other_urls=list(other_urls),
        pivot=np.array([p for (p, _o), _s in entries], dtype=np.int64),
        other=np.array([o for (_p, o), _s in entries], dtype=np.int64),
        scores=np.array([s for _pair, s in entries], dtype=np.float64),
    )


class TestBandedLinking:
    # a first band of 100 entries per link exceeds every block drawn, so
    # each block is linked from one band of all its entries
    @pytest.mark.parametrize("first_band", [1, align_cda.FIRST_BAND, 100])
    @settings(max_examples=150, deadline=None)
    @given(matrix=linking_blocks())
    def test_equals_full_ranking(self, first_band, matrix):
        with mock.patch.object(align_cda, "FIRST_BAND", first_band), \
                mock.patch.object(align_cda, "_ranked", wraps=align_cda._ranked) as ranked:
            got = triples(align_cda.match_one_to_one(matrix))
        assert got == reference.greedy(matrix_entries(matrix))
        if first_band == 100:
            n = len(matrix.scores)
            assert [call.args[1].tolist() for call in ranked.call_args_list] == \
                ([list(range(n))] if n else [])

    def test_links_across_three_bands(self):
        # each pivot's entries outrank the next pivot's, so p3's link is the
        # last entry: bands of 4, 8 and the remaining 4 entries
        m = score_matrix({(f"p{p}", f"o{o}"): 100.0 - 10 * p - o
                          for p in range(4) for o in range(4)})
        with mock.patch.object(align_cda, "FIRST_BAND", 1), \
                mock.patch.object(align_cda, "_ranked", wraps=align_cda._ranked) as ranked, \
                mock.patch.object(align_cda, "_url_ranks",
                                  wraps=align_cda._url_ranks) as url_ranks:
            got = triples(align_cda.match_one_to_one(m))
        assert [len(call.args[1]) for call in ranked.call_args_list] == [4, 8, 4]
        # each side's URLs are ranked once for the three bands
        assert [call.args[0] for call in url_ranks.call_args_list] == \
            [m.pivot_urls, m.other_urls]
        assert got == reference.greedy(matrix_entries(m))
        assert [(p, o) for p, o, _s in got] == [(f"p{i}", f"o{i}") for i in range(4)]

    def test_stops_once_smaller_side_is_matched(self):
        m = score_matrix({("p0", "o0"): 0.9, ("p0", "o1"): 0.8, ("p0", "o2"): 0.7})
        with mock.patch.object(align_cda, "FIRST_BAND", 1), \
                mock.patch.object(align_cda, "_ranked", wraps=align_cda._ranked) as ranked:
            got = triples(align_cda.match_one_to_one(m))
        assert got == [("p0", "o0", 0.9)]
        assert [len(call.args[1]) for call in ranked.call_args_list] == [1]


class TestPairsIO:
    def test_roundtrip_and_format(self, tmp_path):
        pairs = [
            align_cda.AlignmentPair("a.com", "http://a.com/en/1", "http://a.com/fr/1",
                                    "fr", 0.87654321, "cda"),
            align_cda.AlignmentPair("a.com", "http://a.com/en/2", "http://a.com/fr/2",
                                    "fr", 1.0, "url"),
        ]
        path = tmp_path / "pairs.tsv"
        align_cda.save_pairs(pairs, path)
        first = path.read_text().splitlines()[0].split("\t")
        assert first[4] == "0.876543"  # six decimals
        loaded = align_cda.load_pairs(path)
        assert [(p.pivot_url, p.method) for p in loaded] == \
               [(p.pivot_url, p.method) for p in pairs]

    # the refilter's sort cannot order nan, so recall depended on line order
    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_score_names_file_and_line(self, tmp_path, score):
        path = tmp_path / "pairs.tsv"
        path.write_text("a.com\thttp://a.com/en/a\thttp://a.com/fr/b\tfr\t0.400000\tcda\n"
                        f"a.com\thttp://a.com/en/a\thttp://a.com/fr/a\tfr\t{score}\tcda\n")
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:2: score "
                                              rf"'{score}' is not a finite number$"):
            align_cda.load_pairs(path)
