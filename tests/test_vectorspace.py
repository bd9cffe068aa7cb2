import math
import pickle
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from docalign import vectorspace as vs
from docalign.errors import ConfigError, FormatError
from tests import reference
from tests.conftest import interned


def vocab_of(words):
    return vs.Vocabulary(words=list(words))


def idf_of(vocab, values):
    return vs.IdfModel(
        collection_size=1,
        doc_freq=np.zeros(len(vocab), dtype=np.int64),
        idf=np.array([values[w] for w in vocab.words], dtype=np.float64),
    )


def build_vocabulary(docs, *args, **kwargs):
    """``build_vocabulary`` over token lists, interned as ``corpus/`` holds them."""
    ids, words = interned(docs)
    return vs.build_vocabulary(np.concatenate([np.zeros(0, dtype=np.int32), *ids]), words,
                               *args, **kwargs)


def count_terms(docs, vocab):
    """``count_terms`` over token lists, each mapped to dimensions through
    one lookup array over their words."""
    ids, words = interned(docs)
    lookup = vs.lookup_array(vocab.index, words)
    return vs.count_terms((lookup[doc] for doc in ids), len(vocab))


def compute_idf(docs, vocab):
    return vs.compute_idf(count_terms(docs, vocab))


def vectorize(docs, vocab, idf):
    return vs.vectorize(count_terms(docs, vocab), idf)


class TestBuildVocabulary:
    def counts_corpus(self, counts):
        return [[w] * n for w, n in counts.items()]

    def test_skip_and_capacity(self):
        docs = self.counts_corpus({"the": 10, "a": 8, "cat": 5, "dog": 3, "bird": 1})
        v = build_vocabulary(docs, skip_top_k=2, capacity=2)
        assert v.words == ["cat", "dog"]

    def test_no_filtering_keeps_frequency_order(self):
        docs = self.counts_corpus({"x": 3, "y": 5, "z": 1})
        v = build_vocabulary(docs, skip_top_k=0, capacity=10**9)
        assert v.words == ["y", "x", "z"]

    def test_lexicographic_tie(self):
        docs = self.counts_corpus({"y": 5, "x": 5})
        v = build_vocabulary(docs, skip_top_k=0, capacity=1)
        assert v.words == ["x"]

    def test_stopwords_removed_before_top_k(self):
        docs = self.counts_corpus({"the": 10, "a": 8, "cat": 5, "dog": 3})
        v = build_vocabulary(docs, skip_top_k=1, capacity=5, stopwords={"the"})
        assert v.words == ["cat", "dog"]

    def test_empty_corpus(self):
        v = build_vocabulary([], skip_top_k=0, capacity=5)
        assert v.words == []

    def test_index_is_bijection(self):
        docs = self.counts_corpus({"a": 3, "b": 2, "c": 1})
        v = build_vocabulary(docs, skip_top_k=0, capacity=3)
        assert sorted(v.index.values()) == [0, 1, 2]
        assert all(v.words[i] == w for w, i in v.index.items())

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            build_vocabulary([], skip_top_k=-1, capacity=1)
        with pytest.raises(ConfigError):
            build_vocabulary([], skip_top_k=0, capacity=0)

    def test_counts_only_the_ids_given(self):
        # words.json lists every language's words; a language counts its own ids
        v = vs.build_vocabulary(np.array([2, 0, 2], dtype=np.int32), ["a", "b", "c", "d"],
                                skip_top_k=0, capacity=10)
        assert v.words == ["c", "a"]

    # few words, so that equal counts are common, and stoplists, skips and
    # capacities that reach past the distinct words; counted 3 ids at a time
    # or all at once
    @pytest.mark.parametrize("chunk", [3, vs.CHUNK_IDS])
    @given(docs=st.lists(st.lists(st.sampled_from("abcdefg"), max_size=12), max_size=8),
           stopwords=st.sets(st.sampled_from("abcxyz")),
           skip_top_k=st.integers(0, 9), capacity=st.integers(1, 9))
    def test_matches_counter_oracle(self, chunk, docs, stopwords, skip_top_k, capacity):
        with mock.patch.object(vs, "CHUNK_IDS", chunk):
            v = build_vocabulary(docs, skip_top_k, capacity, stopwords)
        assert v.words == reference.vocabulary(docs, skip_top_k, capacity, stopwords)


class TestComputeIdf:
    def test_formula_values(self):
        vocab = vocab_of(["one", "all", "none"])
        docs = [["one", "all"], ["all"], ["all"]]
        idf = compute_idf(docs, vocab)
        assert idf.idf[vocab.index["one"]] == pytest.approx(math.log(2.5), abs=1e-12)
        assert idf.idf[vocab.index["all"]] == pytest.approx(math.log(1.75), abs=1e-12)
        assert idf.idf[vocab.index["none"]] == pytest.approx(math.log(4.0), abs=1e-12)

    def test_empty_collection(self):
        vocab = vocab_of(["a", "b"])
        idf = compute_idf([], vocab)
        assert (idf.collection_size, idf.doc_freq.tolist(), idf.idf.tolist()) == \
            reference.idf([], vocab.words)

    def test_monotonicity(self):
        vocab = vocab_of(["rare", "mid", "common"])
        docs = [["rare", "mid", "common"], ["mid", "common"], ["common"]]
        idf = compute_idf(docs, vocab)
        r, m, c = (idf.idf[vocab.index[w]] for w in ("rare", "mid", "common"))
        assert r > m > c > 0

    def test_bounds(self):
        vocab = vocab_of(["a", "b"])
        docs = [["a"]] * 7
        idf = compute_idf(docs, vocab)
        for v in idf.idf.tolist():
            assert 0 < v <= math.log(1 + 7)

    def test_multiple_occurrences_count_once(self):
        vocab = vocab_of(["a"])
        idf = compute_idf([["a", "a", "a"], ["b"]], vocab)
        assert idf.doc_freq[0] == 1


def vectorize_one(tokens, vocab, idf):
    """The (dim, weight) entries of one document's vector."""
    table = vectorize([tokens], vocab, idf)
    return list(zip(table.indices.tolist(), table.data.tolist()))


def norm(entries):
    return math.sqrt(sum(w * w for _d, w in entries))


class TestVectorize:
    def test_hand_computation(self):
        vocab = vocab_of(["cat", "dog"])
        idf = idf_of(vocab, {"cat": 1.0, "dog": 2.0})
        entries = vectorize_one(["cat", "cat", "dog"], vocab, idf)
        weights = dict(entries)
        assert weights[vocab.index["cat"]] == pytest.approx(0.70711, abs=1e-5)
        assert weights[vocab.index["dog"]] == pytest.approx(0.70711, abs=1e-5)
        assert norm(entries) == pytest.approx(1.0, abs=1e-9)

    def test_empty_tokens(self):
        vocab = vocab_of(["cat"])
        idf = idf_of(vocab, {"cat": 1.0})
        assert vectorize_one([], vocab, idf) == []

    def test_single_word_scale_invariance(self):
        vocab = vocab_of(["cat"])
        idf = idf_of(vocab, {"cat": 0.7})
        for m in (1, 2, 17):
            assert dict(vectorize_one(["cat"] * m, vocab, idf))[0] == pytest.approx(1.0, abs=1e-12)

    def test_self_concatenation_invariant(self):
        vocab = vocab_of(["a", "b", "c"])
        idf = idf_of(vocab, {"a": 1.0, "b": 0.5, "c": 2.0})
        doc = ["a", "b", "a", "c"]
        one = vectorize_one(doc, vocab, idf)
        two = vectorize_one(doc + doc, vocab, idf)
        for (d1, w1), (d2, w2) in zip(one, two):
            assert d1 == d2
            assert w1 == pytest.approx(w2, abs=1e-12)

    def test_drops_weights_not_positive(self):
        vocab = vocab_of(["a", "b", "c"])
        values = {"a": 1.5, "b": 0.0, "c": -0.5}
        idf = idf_of(vocab, values)
        docs = [["a", "b", "c", "a"], ["c", "b", "a"], ["b", "c"], ["b"]]
        table = vectorize(docs, vocab, idf)
        for i, doc in enumerate(docs):
            row = table.rows(i, i + 1)
            assert list(zip(row.indices.tolist(), row.data.tolist())) == \
                reference.tfidf(doc, vocab.words, [values[w] for w in vocab.words])
        # a document whose only vocabulary word has idf 0 gets the empty row
        assert vectorize_one(["b", "zzz"], vocab, idf) == []

    def test_entries_sorted_and_positive(self):
        vocab = vocab_of([f"w{i}" for i in range(10)])
        idf = idf_of(vocab, {f"w{i}": 1.0 + i for i in range(10)})
        entries = vectorize_one(["w7", "w2", "w9", "w2"], vocab, idf)
        dims = [d for d, _w in entries]
        assert dims == sorted(dims)
        assert all(w > 0 for _d, w in entries)

    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=50))
    def test_unit_norm_property(self, tokens):
        vocab = vocab_of(["a", "b", "c"])
        idf = idf_of(vocab, {"a": 1.0, "b": 0.3, "c": 2.5})
        entries = vectorize_one(tokens, vocab, idf)
        if entries:
            assert norm(entries) == pytest.approx(1.0, abs=1e-9)

    def test_rows_follow_documents(self):
        vocab = vocab_of(["a", "b"])
        idf = idf_of(vocab, {"a": 1.0, "b": 2.0})
        table = vectorize([["b", "a"], [], ["x"], ["b", "b"]], vocab, idf)
        assert len(table) == 4
        assert table.indptr.tolist() == [0, 2, 2, 2, 3]
        assert table.indices.tolist() == [0, 1, 1]
        assert table.data[2] == 1.0

    def test_row_range_is_a_table_of_its_rows(self):
        vocab = vocab_of(["a", "b"])
        idf = idf_of(vocab, {"a": 1.0, "b": 2.0})
        table = vectorize([["b", "a"], [], ["x"], ["b", "b"]], vocab, idf)
        bounds = table.indptr.tolist()
        for start in range(5):
            for stop in range(start, 5):
                part = table.rows(start, stop)
                assert len(part) == stop - start
                assert part.indptr.tolist() == [b - bounds[start]
                                                for b in bounds[start:stop + 1]]
                lo, hi = bounds[start], bounds[stop]
                assert part.indices.tolist() == table.indices[lo:hi].tolist()
                assert part.data.tolist() == table.data[lo:hi].tolist()
                assert part.data.base is table.data


class TestDeterminism:
    def test_identical_corpus_identical_models(self):
        docs = [["a", "b", "b"], ["c", "a"], ["b"]]
        v1 = build_vocabulary(docs, 0, 10)
        v2 = build_vocabulary(docs, 0, 10)
        assert v1.words == v2.words
        i1 = compute_idf(docs, v1)
        i2 = compute_idf(docs, v2)
        assert i1.idf.tolist() == i2.idf.tolist()
        t1, t2 = vectorize(docs, v1, i1), vectorize(docs, v2, i2)
        for name in ("indptr", "indices", "data"):
            assert getattr(t1, name).tolist() == getattr(t2, name).tolist()


def _pickle_file(path):
    path.write_bytes(pickle.dumps([0, 1, 2]))


def _npz_file(path):
    with open(path, "wb") as fh:
        np.savez(fh, a=np.zeros(3, dtype=np.int64))


# each case rewrites one file of a saved table of 3 rows with
# indptr [0, 2, 2, 3]
MALFORMED = {
    "garbage": ("data.npy", lambda p: p.write_bytes(b"not an array")),
    "empty file": ("indices.npy", lambda p: p.write_bytes(b"")),
    "truncated": ("data.npy", lambda p: p.write_bytes(p.read_bytes()[:-4])),
    "missing": ("indptr.npy", lambda p: p.unlink()),
    "pickle": ("indices.npy", _pickle_file),
    "object array": ("indices.npy",
                     lambda p: np.save(p, np.array([1, "a"], dtype=object))),
    "npz archive": ("indptr.npy", _npz_file),
    "int32 indptr": ("indptr.npy",
                     lambda p: np.save(p, np.array([0, 2, 2, 3], dtype=np.int32))),
    "float indices": ("indices.npy", lambda p: np.save(p, np.array([0.0, 1.0, 2.0]))),
    "int64 data": ("data.npy", lambda p: np.save(p, np.array([1, 1, 1]))),
    "big-endian data": ("data.npy", lambda p: np.save(p, np.ones(3, dtype=">f8"))),
    "2-D data": ("data.npy", lambda p: np.save(p, np.ones((3, 1)))),
    "indptr empty": ("indptr.npy", lambda p: np.save(p, np.zeros(0, dtype=np.int64))),
    "indptr from 1": ("indptr.npy",
                      lambda p: np.save(p, np.array([1, 2, 2, 3], dtype=np.int64))),
    "indptr decreasing": ("indptr.npy",
                          lambda p: np.save(p, np.array([0, 2, 1, 3], dtype=np.int64))),
    "indptr past entries": ("indptr.npy",
                            lambda p: np.save(p, np.array([0, 2, 2, 4], dtype=np.int64))),
    "indices short": ("indices.npy", lambda p: np.save(p, np.array([0, 1], dtype=np.int64))),
    "data long": ("data.npy", lambda p: np.save(p, np.ones(4))),
}


class TestIO:
    def test_vocab_roundtrip(self, tmp_path):
        v = vocab_of(["cat", "dog", "état"])
        vs.save_vocabulary(v, tmp_path / "v.txt")
        loaded = vs.load_vocabulary(tmp_path / "v.txt")
        assert loaded.words == v.words

    def test_save_idf_bytes(self, tmp_path):
        vocab = vocab_of(["a", "b", "c"])
        idf = compute_idf([["a"], ["a", "b"], ["b", "a", "a"]], vocab)
        vs.save_idf(idf, vocab, tmp_path / "idf.tsv")
        assert (tmp_path / "idf.tsv").read_text() == (
            "#collection_size\t3\t0\n"
            "a\t3\t0.559615787935\n"  # ln(1 + 3/4)
            "b\t2\t0.69314718056\n"  # ln(1 + 3/3)
            "c\t0\t1.38629436112\n"  # ln(1 + 3/1)
        )

    def test_vectors_roundtrip(self, tmp_path):
        vocab = vocab_of(["a", "b", "c"])
        idf = compute_idf([["a", "b"], ["c"]], vocab)
        table = vectorize([["a", "b", "b"], [], ["c"]], vocab, idf)
        vs.save_vectors(table, tmp_path / "v")
        assert sorted(f.name for f in (tmp_path / "v").iterdir()) == [
            "data.npy", "indices.npy", "indptr.npy"]
        loaded = vs.load_vectors(tmp_path / "v")
        assert len(loaded) == 3
        for name, dtype in (("indptr", "int64"), ("indices", "int64"), ("data", "float64")):
            got = getattr(loaded, name)
            assert got.dtype == dtype
            assert got.tobytes() == getattr(table, name).tobytes()
        # saving what was loaded writes the same bytes
        vs.save_vectors(loaded, tmp_path / "again")
        for f in (tmp_path / "v").iterdir():
            assert (tmp_path / "again" / f.name).read_bytes() == f.read_bytes()

    def test_vectors_load_empty_vector_and_reject_bad_entries(self, tmp_path):
        vocab = vocab_of(["a", "b", "c"])
        idf = compute_idf([["a", "b"], ["c"]], vocab)
        table = vectorize([["a", "b"], [], ["c"]], vocab, idf)
        for case, (name, damage) in MALFORMED.items():
            vs.save_vectors(table, tmp_path / case)
            assert vs.load_vectors(tmp_path / case).indptr.tolist() == [0, 2, 2, 3]
            damage(tmp_path / case / name)
            with pytest.raises(FormatError) as info:
                vs.load_vectors(tmp_path / case)
            assert str(info.value).startswith(str(tmp_path / case)), case
            assert name in str(info.value), case

    def test_empty_table_roundtrip(self, tmp_path):
        vocab = vocab_of(["a"])
        vs.save_vectors(vectorize([], vocab, compute_idf([], vocab)), tmp_path / "v")
        loaded = vs.load_vectors(tmp_path / "v")
        assert len(loaded) == 0
        assert loaded.indptr.tolist() == [0]
        assert len(loaded.indices) == len(loaded.data) == 0


WORDS = [f"w{i}" for i in range(8)]


@st.composite
def languages(draw):
    """A vocabulary in random dimension order (possibly empty) and 1-6
    documents, some empty, some with no vocabulary word, with repeated
    tokens: a document's token order and its dimension order then disagree,
    so a norm that added its squares in token order would fail the reference."""
    vocab = vocab_of(draw(st.permutations(WORDS))[:draw(st.integers(0, len(WORDS)))])
    docs = draw(st.lists(st.lists(st.sampled_from([*WORDS, "oov"]), max_size=40),
                         min_size=1, max_size=6))
    return vocab, docs


class TestOracleEquivalence:
    @given(language=languages())
    def test_files_and_weights_match_per_document_oracle(self, tmp_path_factory, language):
        vocab, docs = language
        tmp = tmp_path_factory.mktemp("lang")
        idf = compute_idf(docs, vocab)
        vs.save_idf(idf, vocab, tmp / "idf.tsv")
        vs.save_vectors(vectorize(docs, vocab, idf), tmp / "vectors")
        table = vs.load_vectors(tmp / "vectors")

        expected = reference.idf(docs, vocab.words)
        assert (idf.collection_size, idf.doc_freq.tolist(), idf.idf.tolist()) == expected
        assert (tmp / "idf.tsv").read_text() == reference.idf_file(docs, vocab.words)
        rows = [reference.tfidf(t, vocab.words, expected[2]) for t in docs]
        assert table.indptr.tolist() == [0, *accumulate(map(len, rows))]
        assert list(zip(table.indices.tolist(), table.data.tolist())) == [
            e for row in rows for e in row]

    # chunks of 1 or 7 documents: the rows and counts of the chunks join
    # up into those of one pass
    @pytest.mark.parametrize("rows", [1, 7])
    @given(language=languages())
    def test_chunked_counts_match_per_document_oracle(self, rows, language):
        vocab, docs = language
        with mock.patch.object(vs, "CHUNK_ROWS", rows):
            terms = count_terms(docs, vocab)
            idf = compute_idf(docs, vocab)
            table = vectorize(docs, vocab, idf)
        whole = count_terms(docs, vocab)  # one chunk: at most 6 documents
        assert [np.asarray(a).tolist() for a in terms] == \
            [np.asarray(a).tolist() for a in whole]
        expected = reference.idf(docs, vocab.words)
        assert (idf.collection_size, idf.doc_freq.tolist(), idf.idf.tolist()) == expected
        rows = [reference.tfidf(t, vocab.words, expected[2]) for t in docs]
        assert table.indptr.tolist() == [0, *accumulate(map(len, rows))]
        assert list(zip(table.indices.tolist(), table.data.tolist())) == [
            e for row in rows for e in row]

    def test_keys_beyond_int32(self):
        # 2**15 + 1 documents over 2**16 dimensions: the last row's
        # (row, dim) keys would pass 2**31, so int32 keys take two chunks
        vocab = vocab_of(f"w{i}" for i in range(2**16))
        docs = [[] for _ in range(2**15)] + [["w65535", "w3", "w65535"]]
        with mock.patch.object(vs, "CHUNK_ROWS", 2**20):
            idf = compute_idf(docs, vocab)
            table = vectorize(docs, vocab, idf)
        assert table.indptr[-2] == 0
        assert list(zip(table.indices.tolist(), table.data.tolist())) == \
            reference.tfidf(docs[-1], vocab.words, idf.idf.tolist())
