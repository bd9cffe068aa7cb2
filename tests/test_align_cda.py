import itertools
import random

import pytest

from docalign import align_cda
from docalign.align_cda import ScoreMatrix
from docalign.corpus import CorpusPartition
from docalign.errors import ConfigError
from docalign.vectorspace import SparseVector
from tests.conftest import make_record


def vec(url, *entries):
    return SparseVector(doc_url=url, entries=sorted(entries))


def matrix(scores, domain="d.com", lang="fr"):
    return ScoreMatrix(domain=domain, other_lang=lang, scores=dict(scores))


def greedy_oracle(scores):
    """Brute force: full sort + scan, independent of the implementation."""
    order = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
    used_p, used_o, out = set(), set(), []
    for (p, o), s in order:
        if p not in used_p and o not in used_o:
            used_p.add(p)
            used_o.add(o)
            out.append((p, o, s))
    return out


class TestScorePair:
    def test_self_product_is_one(self):
        v = vec("u", (0, 0.6), (3, 0.8))
        assert align_cda.score_pair(v, v) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_supports(self):
        assert align_cda.score_pair(vec("a", (0, 1.0)), vec("b", (1, 1.0))) == 0.0

    def test_hand_dot_product(self):
        a = vec("a", (0, 0.70711), (1, 0.70711))
        b = vec("b", (0, 1.0))
        assert align_cda.score_pair(a, b) == pytest.approx(0.70711, abs=1e-9)


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
        self.vectors = {
            "p1": vec("p1", (0, 1.0)),
            "p2": vec("p2", (0, 0.6), (1, 0.8)),
            "o1": vec("o1", (0, 1.0)),
            "o2": vec("o2", (1, 1.0)),
        }
        self.partition = partition_with(["p1", "p2"], ["o1", "o2"])

    def test_matches_brute_force(self):
        m = align_cda.score_domain(self.partition, self.vectors, "en", "fr", 0.0)
        for p, o in itertools.product(["p1", "p2"], ["o1", "o2"]):
            expected = align_cda.score_pair(self.vectors[p], self.vectors[o])
            assert m.scores.get((p, o), 0.0) == pytest.approx(expected, abs=1e-12)

    def test_threshold_filters(self):
        m = align_cda.score_domain(self.partition, self.vectors, "en", "fr", 0.7)
        assert set(m.scores) == {("p1", "o1"), ("p2", "o2")}

    def test_impossible_threshold(self):
        m = align_cda.score_domain(self.partition, self.vectors, "en", "fr", 1.0 + 1e-9)
        assert m.scores == {}

    def test_absent_language(self):
        m = align_cda.score_domain(self.partition, self.vectors, "en", "de", 0.0)
        assert m.scores == {}

    def test_no_shared_dim_never_scored(self):
        m = align_cda.score_domain(self.partition, self.vectors, "en", "fr", 0.0)
        # (p1, o2) shares no dimension, so it is not even a candidate
        assert ("p1", "o2") not in m.scores
        assert m.scored_pairs == 3  # of 4 possible


class TestMatchOneToOne:
    def test_greedy_trace(self):
        m = matrix({("e1", "f1"): 0.9, ("e1", "f2"): 0.8, ("e2", "f2"): 0.7})
        got = [(p.pivot_url, p.other_url, p.score) for p in align_cda.match_one_to_one(m)]
        assert got == [("e1", "f1", 0.9), ("e2", "f2", 0.7)]

    def test_tie_toward_lexicographic(self):
        m = matrix({("e1", "f1"): 0.5, ("e2", "f1"): 0.5})
        got = [(p.pivot_url, p.other_url) for p in align_cda.match_one_to_one(m)]
        assert got == [("e1", "f1")]

    def test_empty(self):
        assert align_cda.match_one_to_one(matrix({})) == []

    def test_each_url_at_most_once(self):
        rng = random.Random(0)
        m = matrix({
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
        m = matrix({
            (f"p{i:02d}", f"o{j:02d}"): round(rng.random(), 4)
            for i in range(n) for j in range(k) if rng.random() < 0.5
        })
        got = [(p.pivot_url, p.other_url, p.score) for p in align_cda.match_one_to_one(m)]
        assert got == greedy_oracle(m.scores)

    def test_output_sorted_by_descending_score(self):
        rng = random.Random(2)
        m = matrix({(f"p{i}", f"o{i}"): rng.random() for i in range(10)})
        scores = [p.score for p in align_cda.match_one_to_one(m)]
        assert scores == sorted(scores, reverse=True)


class TestTop1ThenGreedy:
    def test_keeps_only_best_per_pivot(self):
        m = matrix({("e1", "f1"): 0.9, ("e1", "f2"): 0.8,
                    ("e2", "f1"): 0.85, ("e2", "f2"): 0.7})
        got = [(p.pivot_url, p.other_url) for p in align_cda.match_top1_then_greedy(m)]
        # e1 keeps f1 (0.9); e2 keeps f1 (0.85) but loses it to e1; e2's f2
        # candidate was pruned by the top-1 cut, unlike plain greedy
        assert got == [("e1", "f1")]
        greedy = [(p.pivot_url, p.other_url) for p in align_cda.match_one_to_one(m)]
        assert greedy == [("e1", "f1"), ("e2", "f2")]


class TestAlignCorpus:
    def build(self, domains=("a.com", "b.com"), langs=("fr", "de")):
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
        return partitions, vectors

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
        vectors = {"en": {"p1": vec("p1", (0, 1.0))}, "fr": {}}
        assert align_cda.align_corpus(partitions, vectors, "en", ["fr"], 0.1) == []

    def test_threshold_monotone_on_matrix_entries(self):
        partitions, vectors = self.build()
        merged = {}
        for d in vectors.values():
            merged.update(d)
        for domain in partitions:
            low = align_cda.score_domain(partitions[domain], merged, "en", "fr", 0.1)
            high = align_cda.score_domain(partitions[domain], merged, "en", "fr", 0.6)
            assert set(high.scores) <= set(low.scores)

    def test_stats_reported(self):
        partitions, vectors = self.build()
        stats = {}
        align_cda.align_corpus(partitions, vectors, "en", ["fr"], 0.1, stats=stats)
        assert stats["possible_pairs"] == 8
        assert 0 < stats["scored_pairs"] <= stats["possible_pairs"]


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
