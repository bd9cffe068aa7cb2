import math

import pytest
from hypothesis import given, strategies as st

from docalign import vectorspace as vs
from docalign.errors import ConfigError, FormatError


def vocab_of(words):
    return vs.Vocabulary(words=list(words))


def idf_of(vocab, values):
    return vs.IdfModel(
        collection_size=1,
        doc_freq={d: 0 for d in range(len(vocab))},
        idf={vocab.index[w]: v for w, v in values.items()},
    )


class TestBuildVocabulary:
    def counts_corpus(self, counts):
        return [[w] * n for w, n in counts.items()]

    def test_skip_and_capacity(self):
        docs = self.counts_corpus({"the": 10, "a": 8, "cat": 5, "dog": 3, "bird": 1})
        v = vs.build_vocabulary(docs, skip_top_k=2, capacity=2)
        assert v.words == ["cat", "dog"]

    def test_no_filtering_keeps_frequency_order(self):
        docs = self.counts_corpus({"x": 3, "y": 5, "z": 1})
        v = vs.build_vocabulary(docs, skip_top_k=0, capacity=10**9)
        assert v.words == ["y", "x", "z"]

    def test_lexicographic_tie(self):
        docs = self.counts_corpus({"y": 5, "x": 5})
        v = vs.build_vocabulary(docs, skip_top_k=0, capacity=1)
        assert v.words == ["x"]

    def test_stopwords_removed_before_top_k(self):
        docs = self.counts_corpus({"the": 10, "a": 8, "cat": 5, "dog": 3})
        v = vs.build_vocabulary(docs, skip_top_k=1, capacity=5, stopwords={"the"})
        assert v.words == ["cat", "dog"]

    def test_empty_corpus(self):
        v = vs.build_vocabulary([], skip_top_k=0, capacity=5)
        assert v.words == []

    def test_index_is_bijection(self):
        docs = self.counts_corpus({"a": 3, "b": 2, "c": 1})
        v = vs.build_vocabulary(docs, skip_top_k=0, capacity=3)
        assert sorted(v.index.values()) == [0, 1, 2]
        assert all(v.words[i] == w for w, i in v.index.items())

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            vs.build_vocabulary([], skip_top_k=-1, capacity=1)
        with pytest.raises(ConfigError):
            vs.build_vocabulary([], skip_top_k=0, capacity=0)


class TestComputeIdf:
    def test_formula_values(self):
        vocab = vocab_of(["one", "all", "none"])
        docs = [["one", "all"], ["all"], ["all"]]
        idf = vs.compute_idf(docs, vocab)
        assert idf.idf[vocab.index["one"]] == pytest.approx(math.log(2.5), abs=1e-12)
        assert idf.idf[vocab.index["all"]] == pytest.approx(math.log(1.75), abs=1e-12)
        assert idf.idf[vocab.index["none"]] == pytest.approx(math.log(4.0), abs=1e-12)

    def test_empty_collection_rejected(self):
        with pytest.raises(ConfigError):
            vs.compute_idf([], vocab_of(["a"]))

    def test_monotonicity(self):
        vocab = vocab_of(["rare", "mid", "common"])
        docs = [["rare", "mid", "common"], ["mid", "common"], ["common"]]
        idf = vs.compute_idf(docs, vocab)
        r, m, c = (idf.idf[vocab.index[w]] for w in ("rare", "mid", "common"))
        assert r > m > c > 0

    def test_bounds(self):
        vocab = vocab_of(["a", "b"])
        docs = [["a"]] * 7
        idf = vs.compute_idf(docs, vocab)
        for v in idf.idf.values():
            assert 0 < v <= math.log(1 + 7)

    def test_multiple_occurrences_count_once(self):
        vocab = vocab_of(["a"])
        idf = vs.compute_idf([["a", "a", "a"], ["b"]], vocab)
        assert idf.doc_freq[0] == 1


class TestVectorize:
    def test_hand_computation(self):
        vocab = vocab_of(["cat", "dog"])
        idf = idf_of(vocab, {"cat": 1.0, "dog": 2.0})
        vec = vs.vectorize(["cat", "cat", "dog"], vocab, idf)
        weights = dict(vec.entries)
        assert weights[vocab.index["cat"]] == pytest.approx(0.70711, abs=1e-5)
        assert weights[vocab.index["dog"]] == pytest.approx(0.70711, abs=1e-5)
        assert vec.norm() == pytest.approx(1.0, abs=1e-9)

    def test_empty_tokens(self):
        vocab = vocab_of(["cat"])
        idf = idf_of(vocab, {"cat": 1.0})
        vec = vs.vectorize([], vocab, idf)
        assert vec.entries == []

    def test_single_word_scale_invariance(self):
        vocab = vocab_of(["cat"])
        idf = idf_of(vocab, {"cat": 0.7})
        for m in (1, 2, 17):
            vec = vs.vectorize(["cat"] * m, vocab, idf)
            assert dict(vec.entries)[0] == pytest.approx(1.0, abs=1e-12)

    def test_self_concatenation_invariant(self):
        vocab = vocab_of(["a", "b", "c"])
        idf = idf_of(vocab, {"a": 1.0, "b": 0.5, "c": 2.0})
        doc = ["a", "b", "a", "c"]
        one = vs.vectorize(doc, vocab, idf)
        two = vs.vectorize(doc + doc, vocab, idf)
        for (d1, w1), (d2, w2) in zip(one.entries, two.entries):
            assert d1 == d2
            assert w1 == pytest.approx(w2, abs=1e-12)

    def test_entries_sorted_and_positive(self):
        vocab = vocab_of([f"w{i}" for i in range(10)])
        idf = idf_of(vocab, {f"w{i}": 1.0 + i for i in range(10)})
        vec = vs.vectorize(["w7", "w2", "w9", "w2"], vocab, idf)
        dims = [d for d, _w in vec.entries]
        assert dims == sorted(dims)
        assert all(w > 0 for _d, w in vec.entries)

    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=50))
    def test_unit_norm_property(self, tokens):
        vocab = vocab_of(["a", "b", "c"])
        idf = idf_of(vocab, {"a": 1.0, "b": 0.3, "c": 2.5})
        vec = vs.vectorize(tokens, vocab, idf)
        if vec.entries:
            assert vec.norm() == pytest.approx(1.0, abs=1e-9)


class TestDeterminism:
    def test_identical_corpus_identical_models(self):
        docs = [["a", "b", "b"], ["c", "a"], ["b"]]
        v1 = vs.build_vocabulary(docs, 0, 10)
        v2 = vs.build_vocabulary(docs, 0, 10)
        assert v1.words == v2.words
        i1 = vs.compute_idf(docs, v1)
        i2 = vs.compute_idf(docs, v2)
        assert i1.idf == i2.idf
        for doc in docs:
            assert vs.vectorize(doc, v1, i1).entries == vs.vectorize(doc, v2, i2).entries


class TestIO:
    def test_vocab_roundtrip(self, tmp_path):
        v = vocab_of(["cat", "dog", "état"])
        vs.save_vocabulary(v, tmp_path / "v.txt")
        loaded = vs.load_vocabulary(tmp_path / "v.txt")
        assert loaded.words == v.words

    def test_idf_roundtrip(self, tmp_path):
        vocab = vocab_of(["a", "b"])
        idf = vs.compute_idf([["a"], ["a", "b"], ["b"]], vocab)
        vs.save_idf(idf, vocab, tmp_path / "idf.tsv")
        loaded = vs.load_idf(tmp_path / "idf.tsv", vocab)
        assert loaded.collection_size == 3
        assert loaded.doc_freq == idf.doc_freq
        for dim in idf.idf:
            assert loaded.idf[dim] == pytest.approx(idf.idf[dim], abs=1e-12)

    def test_vectors_roundtrip(self, tmp_path):
        vocab = vocab_of(["a", "b", "c"])
        idf = vs.compute_idf([["a", "b"], ["c"]], vocab)
        vecs = [vs.vectorize(["a", "b", "b"], vocab, idf, doc_url="http://x/1"),
                vs.vectorize(["c"], vocab, idf, doc_url="http://x/2")]
        vs.save_vectors(vecs, tmp_path / "v.tsv")
        loaded = vs.load_vectors(tmp_path / "v.tsv")
        assert loaded.urls == ["http://x/1", "http://x/2"]
        for vec in vecs:
            row = loaded.row[vec.doc_url]
            lo, hi = loaded.indptr[row], loaded.indptr[row + 1]
            assert loaded.indices[lo:hi].tolist() == [d for d, _ in vec.entries]
            for w1, (_, w2) in zip(loaded.data[lo:hi].tolist(), vec.entries):
                assert w1 == pytest.approx(w2, rel=1e-8)

    def test_vectors_load_empty_vector_and_reject_bad_entries(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("http://x/1\t\nhttp://x/2\t3:0.5\n")
        table = vs.load_vectors(path)
        assert table.indptr.tolist() == [0, 0, 1]
        for payload in ("3", "3:0.5:1", "a:0.5", "3:x"):
            path.write_text(f"http://x/1\t{payload}\n")
            with pytest.raises(FormatError, match="v.tsv"):
                vs.load_vectors(path)
