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
from tests.conftest import (SparseVector, greedy_oracle, make_record, matrix_entries,
                            score_matrix, vector_table)


def vec(url, *entries):
    return SparseVector(doc_url=url, entries=sorted(entries))


def tables(**by_lang):
    """{lang: VectorTable} from lang=[SparseVector, ...] keywords."""
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


# --- oracles: the per-pair dict scorer that the array code replaced, kept
# as a reference for the property tests; the greedy matcher is in conftest --


def score_pair(v1: SparseVector, v2: SparseVector) -> float:
    """Dot product over shared dimensions; in [0, 1] for normalized vectors."""
    a, b = v1.entries, v2.entries
    if len(a) > len(b):
        a, b = b, a
    lookup = dict(b)
    return sum(w * lookup[dim] for dim, w in a if dim in lookup)


def score_domain_oracle(partition, vectors, pivot_lang, other_lang, threshold):
    """Inverted index over the pivot documents, one accumulator dict per
    other document; ``vectors`` maps url -> SparseVector. Returns the
    stored {(pivot_url, other_url): score} and the number of pairs scored."""
    scores, scored_pairs = {}, 0
    pivot_docs = partition.docs(pivot_lang)
    other_docs = partition.docs(other_lang)
    if not pivot_docs or not other_docs:
        return scores, scored_pairs

    postings = {}
    for doc in pivot_docs:
        v = vectors.get(doc.url)
        if v is None:
            continue
        for dim, w in v.entries:
            postings.setdefault(dim, []).append((doc.url, w))

    for doc in other_docs:
        v = vectors.get(doc.url)
        if v is None:
            continue
        acc = {}
        for dim, w in v.entries:
            for purl, pw in postings.get(dim, ()):
                acc[purl] = acc.get(purl, 0.0) + w * pw
        scored_pairs += len(acc)
        for purl, s in acc.items():
            if s >= threshold and s > 0.0:
                scores[(purl, doc.url)] = s
    return scores, scored_pairs


def triples(pairs):
    return [(p.pivot_url, p.other_url, p.score) for p in pairs]


class TestScorePair:
    def test_self_product_is_one(self):
        v = vec("u", (0, 0.6), (3, 0.8))
        assert score_pair(v, v) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_supports(self):
        assert score_pair(vec("a", (0, 1.0)), vec("b", (1, 1.0))) == 0.0

    def test_hand_dot_product(self):
        a = vec("a", (0, 0.70711), (1, 0.70711))
        b = vec("b", (0, 1.0))
        assert score_pair(a, b) == pytest.approx(0.70711, abs=1e-9)


def partition_with(pivot_urls, other_urls, domain="d.com", other_lang="fr"):
    return CorpusPartition(
        domain=domain,
        by_lang={
            "en": [make_record(u, ["x"], lang="en") for u in pivot_urls],
            other_lang: [make_record(u, ["x"], lang=other_lang) for u in other_urls],
        },
    )


class TestScoreDomain:
    def setup_method(self):
        self.by_url = {
            "p1": vec("p1", (0, 1.0)),
            "p2": vec("p2", (0, 0.6), (1, 0.8)),
            "o1": vec("o1", (0, 1.0)),
            "o2": vec("o2", (1, 1.0)),
        }
        self.vectors = tables(en=[self.by_url["p1"], self.by_url["p2"]],
                              fr=[self.by_url["o1"], self.by_url["o2"]])
        self.partition = partition_with(["p1", "p2"], ["o1", "o2"])

    def test_matches_brute_force(self):
        m = align_cda.score_domain(self.partition, self.vectors, "en", "fr", 0.0)
        for p, o in itertools.product(["p1", "p2"], ["o1", "o2"]):
            expected = score_pair(self.by_url[p], self.by_url[o])
            assert matrix_entries(m).get((p, o), 0.0) == pytest.approx(expected, abs=1e-12)

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
        assert got == greedy_oracle(matrix_entries(m))

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
                vectors["en"][url] = vec(url, (100 * di + i, 1.0))
            for lang in langs:
                by_lang[lang] = []
                for i in range(2):
                    url = f"http://{domain}/{lang}/{i}"
                    by_lang[lang].append(make_record(url, ["x"], lang=lang))
                    vectors[lang][url] = vec(url, (100 * di + i, 1.0))
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
        vectors = tables(en=[vec("p1", (0, 1.0))], fr=[])
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


# A document's vector: none, empty, or a few (dimension, weight) entries.
_VECTOR = st.none() | st.lists(
    st.tuples(st.integers(0, _DIMS - 1), st.sampled_from(_WEIGHTS)),
    max_size=_DIMS, unique_by=lambda e: e[0])


def _documents(min_size, max_size, max_id):
    """(URL id, vector) pairs; each document is drawn, and shrunk, whole."""
    return st.lists(st.tuples(st.integers(0, max_id), _VECTOR),
                    min_size=min_size, max_size=max_size, unique_by=lambda d: d[0])


@st.composite
def blocks(draw):
    """One en/fr block of 1-40 documents per side, in an order that is not
    URL order (".../9" sorts after ".../10"), with a table of one row per
    document. A document has no vector, which the oracle sees as missing
    and the table holds as an empty row, an empty one, or a few entries."""
    by_url, tables_by_lang, docs = {}, {}, {}
    for lang in ("en", "fr"):
        block = draw(_documents(1, 40, 999))
        vecs = [vec(f"http://d.com/{lang}/{i}", *(entries or [])) for i, entries in block]
        by_url.update((v.doc_url, v) for v, (_i, entries) in zip(vecs, block)
                      if entries is not None)
        tables_by_lang[lang] = vector_table(vecs)
        docs[lang] = [make_record(v.doc_url, ["x"], lang=lang) for v in vecs]
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
        scores, scored_pairs = score_domain_oracle(partition, by_url, "en", "fr",
                                                   threshold)
        assert m.scored_pairs == scored_pairs
        assert matrix_entries(m) == scores  # exact: same sums, same order
        assert triples(align_cda.match_one_to_one(m)) == greedy_oracle(scores)


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
    @pytest.mark.parametrize("first_band", [1, align_cda.FIRST_BAND])
    @settings(max_examples=150, deadline=None)
    @given(matrix=linking_blocks())
    def test_equals_full_ranking(self, first_band, matrix):
        with mock.patch.object(align_cda, "FIRST_BAND", first_band):
            got = triples(align_cda.match_one_to_one(matrix))
        assert got == greedy_oracle(matrix_entries(matrix))
        assert got == triples(align_cda._link(matrix, [align_cda._ranked(matrix)]))

    def test_links_across_three_bands(self):
        # each pivot's entries outrank the next pivot's, so p3's link is the
        # last entry: bands of 4, 8 and the remaining 4 entries
        m = score_matrix({(f"p{p}", f"o{o}"): 100.0 - 10 * p - o
                          for p in range(4) for o in range(4)})
        with mock.patch.object(align_cda, "FIRST_BAND", 1), \
                mock.patch.object(align_cda, "_ranked", wraps=align_cda._ranked) as ranked:
            got = triples(align_cda.match_one_to_one(m))
        assert [len(call.args[1]) for call in ranked.call_args_list] == [4, 8, 4]
        assert got == greedy_oracle(matrix_entries(m))
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
