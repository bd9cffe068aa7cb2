import math
import random
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from docalign import lexicon
from docalign.errors import ConfigError, FormatError, UsageError
from tests import reference
from tests.conftest import id_record


def index(words):
    return {w: i for i, w in enumerate(words)}


def word_table(table, src_words, tgt_words):
    """A ``TranslationTable`` (or ``PairScores``) of vocabulary ids as
    ``{(src word, tgt word): value}``, in entry order."""
    src, tgt, value = table
    return {(src_words[i], tgt_words[j]): p
            for i, j, p in zip(src.tolist(), tgt.tolist(), value.tolist())}


def id_table(probs, src_words, tgt_words):
    """The ``TranslationTable`` that ``load_translation_table`` reads from a
    file of the ``{(src, tgt): p}`` entries ``probs``: the entries between
    the two vocabularies, as their ids."""
    src_index, tgt_index = index(src_words), index(tgt_words)
    kept = [(src_index[a], tgt_index[b], p) for (a, b), p in probs.items()
            if a in src_index and b in tgt_index]
    return lexicon.TranslationTable(np.array([e[0] for e in kept], dtype=np.int64),
                                    np.array([e[1] for e in kept], dtype=np.int64),
                                    np.array([e[2] for e in kept], dtype=np.float64))


class TestLoadTranslationTable:
    def test_single_row(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("cat\tchat\t0.9\n")
        t = lexicon.load_translation_table(path, {"cat": 0}, {"chat": 0})
        assert word_table(t, ["cat"], ["chat"]) == {("cat", "chat"): 0.9}

    # the vocabularies hold neither word: the line is checked all the same
    def test_out_of_range(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("cat\tchat\t1.5\n")
        with pytest.raises(FormatError, match=":1"):
            lexicon.load_translation_table(path, {}, {})

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("cat\tchat\tx\n")
        with pytest.raises(FormatError, match=":1"):
            lexicon.load_translation_table(path, {}, {})

    def test_duplicate_last_wins(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("cat\tchat\t0.9\ncat\tchien\t0.1\ncat\tchat\t0.2\n")
        t = lexicon.load_translation_table(path, {"cat": 0}, {"chien": 0, "chat": 1})
        assert word_table(t, ["cat"], ["chien", "chat"]) == {("cat", "chat"): 0.2,
                                                             ("cat", "chien"): 0.1}

    def test_keeps_only_entries_between_the_vocabularies(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("cat\tchat\t0.9\ncat\tminou\t0.5\ndog\tchat\t0.3\n"
                        "dog\tchien\t0.8\nbird\toiseau\t1\n")
        t = lexicon.load_translation_table(path, {"dog": 0, "cat": 1},
                                           {"chien": 0, "chat": 1, "oiseau": 2})
        assert t.src.dtype == t.tgt.dtype == np.int64
        assert word_table(t, ["dog", "cat"], ["chien", "chat", "oiseau"]) == {
            ("cat", "chat"): 0.9, ("dog", "chat"): 0.3, ("dog", "chien"): 0.8}

    def test_a_bad_line_outside_the_vocabularies_fails(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("cat\tchat\t0.9\nbird\toiseau\tnan\n")
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:2: "
                                              r"probability nan outside \[0, 1\]$"):
            lexicon.load_translation_table(path, {"cat": 0}, {"chat": 0})


def embeddings(vectors):
    """``Embeddings`` of a ``{word: vector}`` dict."""
    rows = [np.asarray(v, dtype=np.float64) for v in vectors.values()]
    return lexicon.Embeddings(list(vectors),
                              np.array(rows) if rows else np.zeros((0, 2)))


def word_tables(src, tgt, top_n, **langs):
    """``table_from_embeddings`` of two ``{word: vector}`` dicts with every
    word in its vocabulary, as two ``{(src, tgt): p}`` dicts."""
    src_words, tgt_words = sorted(src), sorted(tgt)
    fwd, bwd = lexicon.table_from_embeddings(embeddings(src), embeddings(tgt),
                                             index(src_words), index(tgt_words),
                                             top_n=top_n, **langs)
    return word_table(fwd, src_words, tgt_words), word_table(bwd, tgt_words, src_words)


class TestTableFromEmbeddings:
    def test_orthogonal(self):
        fwd, _bwd = word_tables(
            {"a": np.array([1.0, 0.0])},
            {"x": np.array([1.0, 0.0]), "y": np.array([0.0, 1.0])},
            top_n=2,
        )
        assert fwd[("a", "x")] == pytest.approx(1.0)
        assert fwd.get(("a", "y"), 0.0) == pytest.approx(0.0)

    def test_normalized_to_sum_one(self):
        # cosines 1 and cos(45deg); kept scores renormalize to sum 1
        fwd, _bwd = word_tables(
            {"a": np.array([1.0, 0.0])},
            {"x": np.array([1.0, 0.0]), "y": np.array([1.0, 1.0])},
            top_n=2,
        )
        c = math.cos(math.pi / 4)
        assert fwd[("a", "x")] == pytest.approx(1 / (1 + c), abs=1e-9)
        assert fwd[("a", "y")] == pytest.approx(c / (1 + c), abs=1e-9)

    def test_identical_spaces_argmax_is_identity(self):
        rng = np.random.default_rng(3)
        emb = {f"w{i}": rng.normal(size=8) for i in range(30)}
        fwd, bwd = word_tables(emb, emb, top_n=5)
        align = align_tables(fwd, bwd, list(emb), list(emb))
        assert align.to_pivot == {w: w for w in emb}

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        src = {f"s{i}": rng.normal(size=6) for i in range(20)}
        tgt = {f"t{i}": rng.normal(size=6) for i in range(25)}
        fwd, bwd = word_tables(src, tgt, top_n=4)
        for t in (fwd, bwd):
            sums = {}
            for (s, _w), p in t.items():
                assert p >= 0.0
                sums[s] = sums.get(s, 0.0) + p
            for s, total in sums.items():
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_dim_mismatch(self):
        with pytest.raises(FormatError):
            word_tables({"a": np.ones(3)}, {"x": np.ones(4)}, top_n=1)

    @pytest.mark.parametrize("top_n", [0, -1])
    def test_top_n_below_one(self, top_n):
        with pytest.raises(ConfigError, match=f"top_n must be >= 1, got {top_n}"):
            word_tables({"a": np.ones(2)}, {"x": np.ones(2)}, top_n=top_n)

    def test_zero_vector_skipped(self):
        fwd, _ = word_tables(
            {"a": np.array([1.0, 0.0]), "z": np.zeros(2)},
            {"x": np.array([1.0, 0.0])},
            top_n=1,
        )
        assert ("z", "x") not in fwd
        assert fwd[("a", "x")] == pytest.approx(1.0)

    @pytest.mark.parametrize("src, tgt, side", [
        pytest.param({}, {"a": np.array([1.0, 0.0])}, "en", id="src-empty"),
        pytest.param({"a": np.array([1.0, 0.0])}, {"z": np.zeros(2)}, "fr",
                     id="tgt-all-zero"),
    ])
    def test_side_with_no_usable_word(self, src, tgt, side):
        # used to be numpy's "matmul: ... core dimension 0" ValueError
        with pytest.raises(FormatError,
                           match=f"^no {side} embedding word has a non-zero vector$"):
            word_tables(src, tgt, top_n=3, src_lang="en", tgt_lang="fr")

    @pytest.mark.parametrize("text", ["0 3\n", "2 2\ncat 0 0\ndog 0 -0\n"],
                             ids=["header-only", "all-zero"])
    def test_embeddings_with_no_usable_word_name_file(self, tmp_path, text):
        path = tmp_path / "emb.txt"
        path.write_text(text)
        message = f"{path}: no word has a non-zero vector"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            lexicon.load_embeddings(path)

    def test_embeddings_file_roundtrip(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\ncat 1 0 0\ndog 0 1 0\n")
        emb = lexicon.load_embeddings(path)
        assert emb.words == ["cat", "dog"]
        assert emb.vectors.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]

    def test_embeddings_word_listed_twice_keeps_last_vector(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("3 2\ncat 1 0\ndog 0 1\ncat 0.5 0.5\n")
        emb = lexicon.load_embeddings(path)
        assert dict(zip(emb.words, emb.vectors.tolist())) == {"cat": [0.5, 0.5],
                                                               "dog": [0.0, 1.0]}

    def test_embedding_rows_may_end_in_a_space(self, tmp_path):
        # fastText's .vec writer ends every row with a space
        path = tmp_path / "emb.vec"
        path.write_text("2 2\ncat 1.0 0.0 \ndog 0.0 1.0 \n")
        emb = lexicon.load_embeddings(path)
        assert dict(zip(emb.words, emb.vectors.tolist())) == {"cat": [1.0, 0.0],
                                                               "dog": [0.0, 1.0]}

    # a cut-off file loaded as a smaller vocabulary
    @pytest.mark.parametrize("text, count, rows", [
        ("3 2\ncat 1 0\ndog 0 1\n", 3, 2),
        ("1 2\ncat 1 0\n\ndog 0 1\n", 1, 2),
    ], ids=["too-few", "too-many"])
    def test_row_count_must_match_header(self, tmp_path, text, count, rows):
        path = tmp_path / "emb.txt"
        path.write_text(text)
        message = f"{path}: the header counts {count} words, the file has {rows}"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            lexicon.load_embeddings(path)

    @pytest.mark.parametrize("text, line", [
        ("2 x\ncat 1 0 0\n", 1),
        ("2.0 3\ncat 1 0 0\n", 1),
        ("2 3 4\ncat 1 0 0\n", 1),
        ("\n", 1),
        ("2 3\ncat 1 0 0\ndog 0 x 0\n", 3),
        ("2 3\ncat 1 0 0\ndog 0 1 \n", 3),
        # a nan made every backward probability nan and the lexicon empty
        ("2 2\ncat 1 0\ndog nan 1\n", 3),
        ("2 2\ncat inf 0\ndog 0 1\n", 2),
        ("2 2\ncat 1 0\ndog 0 -inf\n", 3),
    ])
    def test_bad_embeddings_name_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "emb.txt"
        path.write_text(text)
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:{line}: "):
            lexicon.load_embeddings(path)


# the spec-scale worked example used across build_alignment and map_document
P_FWD = {("cat", "chat"): 0.9, ("cat", "chien"): 0.1, ("dog", "chien"): 0.9}
P_BWD = {("chat", "cat"): 0.8, ("chien", "cat"): 0.05, ("chien", "dog"): 0.85}


# rounded coordinates give tied similarities, and rows with no positive one
_COORD = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]) | st.floats(-1.0, 1.0, width=32)


@st.composite
def embedding_spaces(draw):
    """Source and target words with raw vectors of one dimensionality; up to
    24 targets, so that some rows sum more than 8 kept values."""
    dim = draw(st.integers(1, 3))

    def space(prefix, max_words):
        n = draw(st.integers(1, max_words))
        mat = draw(st.lists(st.lists(_COORD, min_size=dim, max_size=dim),
                            min_size=n, max_size=n))
        return [f"{prefix}{i}" for i in range(n)], np.array(mat, dtype=np.float64)

    return (*space("s", 8), *space("t", 24))


def vocabulary_of(data, words):
    """Some of ``words``, in an id order of their own."""
    return data.draw(st.permutations(words))[:data.draw(st.integers(0, len(words)))]


def restricted(table, src_vocab, tgt_vocab):
    return {(a, b): p for (a, b), p in table.items() if a in src_vocab and b in tgt_vocab}


class TestDirectionalTableOracle:
    @settings(max_examples=300, deadline=None)
    @given(spaces=embedding_spaces(), top_n=st.integers(1, 30), data=st.data())
    def test_equals_per_word_loop(self, spaces, top_n, data):
        src, src_mat, tgt, tgt_mat = spaces
        src_vocab, tgt_vocab = vocabulary_of(data, src), vocabulary_of(data, tgt)
        src_ids = np.array([index(src_vocab).get(w, -1) for w in src], dtype=np.int64)
        tgt_ids = np.array([index(tgt_vocab).get(w, -1) for w in tgt], dtype=np.int64)
        got = lexicon._directional_table(src_ids, src_mat, tgt_ids, tgt_mat, top_n)
        expected = reference.directional_table(src, src_mat, tgt, tgt_mat, top_n)
        assert list(word_table(got, src_vocab, tgt_vocab).items()) == \
            list(restricted(expected, src_vocab, tgt_vocab).items())

    # the tables between two vocabularies are the entries of the whole-space
    # tables between them, bit for bit
    @settings(max_examples=200, deadline=None)
    @given(spaces=embedding_spaces(), top_n=st.integers(1, 30), data=st.data())
    def test_vocabulary_tables_equal_whole_space_tables(self, spaces, top_n, data):
        src, src_mat, tgt, tgt_mat = spaces
        assume(src_mat.any(axis=1).any() and tgt_mat.any(axis=1).any())
        emb_src, emb_tgt = dict(zip(src, src_mat)), dict(zip(tgt, tgt_mat))
        src_vocab, tgt_vocab = vocabulary_of(data, src), vocabulary_of(data, tgt)
        fwd, bwd = lexicon.table_from_embeddings(
            embeddings(emb_src), embeddings(emb_tgt), index(src_vocab), index(tgt_vocab),
            top_n=top_n)
        o_fwd, o_bwd = reference.embedding_tables(emb_src, emb_tgt, top_n)
        assert word_table(fwd, src_vocab, tgt_vocab) == restricted(o_fwd, src_vocab, tgt_vocab)
        assert word_table(bwd, tgt_vocab, src_vocab) == restricted(o_bwd, tgt_vocab, src_vocab)


def align_tables(p_fwd, p_bwd, v_alpha, v_beta):
    """``build_alignment`` on the S(a, b) table of two ``{(src, tgt): p}``
    translation tables, over the vocabularies ``v_alpha`` and ``v_beta``
    (word lists in id order)."""
    return lexicon.build_alignment(scores_of(p_fwd, p_bwd, v_alpha, v_beta), "fr",
                                   v_alpha, v_beta)


def scores_of(p_fwd, p_bwd, v_alpha, v_beta):
    return lexicon.pair_scores(id_table(p_fwd, v_alpha, v_beta),
                               id_table(p_bwd, v_beta, v_alpha))


def pairs_of(p_fwd, p_bwd, v_alpha, v_beta):
    """The word pairs (pivot, other) that ``align_tables`` derives its map
    from: each pivot word with its argmax, ties kept."""
    scores = scores_of(p_fwd, p_bwd, v_alpha, v_beta)
    best = lexicon._best_for_pivot(scores)
    return {(v_alpha[a], v_beta[b])
            for a, b in zip(scores.pivot[best].tolist(), scores.other[best].tolist())}


def oracle_reverse_condition_violations(pairs, p_fwd, p_bwd, v_alpha):
    """The O(|pairs| x |V_pivot|) scan that the indexed version replaced."""
    alpha = sorted(set(v_alpha))
    violations = 0
    for a, b in pairs:
        s_ab = p_fwd.get((a, b), 0.0) + p_bwd.get((b, a), 0.0)
        for w in alpha:
            if p_fwd.get((w, b), 0.0) + p_bwd.get((b, w), 0.0) > s_ab:
                violations += 1
                break
    return violations


_PIVOT_WORDS = ["p0", "p1", "p2", "p3", "p4"]
_OTHER_WORDS = ["o0", "o1", "o2", "o3"]
# few distinct values, so that ties and explicit zero entries are common
_PROBS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.5, 1.0])


def tables(probs):
    """Two translation tables with probabilities drawn from ``probs`` and
    the two vocabularies. Pivot words left out of v_alpha and other words
    left out of v_beta still have table entries; each vocabulary lists its
    words in an id order of its own, which need not be the words' order."""
    return dict(
        fwd_rows=st.dictionaries(
            st.tuples(st.sampled_from(_PIVOT_WORDS), st.sampled_from(_OTHER_WORDS)), probs),
        bwd_rows=st.dictionaries(
            st.tuples(st.sampled_from(_OTHER_WORDS), st.sampled_from(_PIVOT_WORDS)), probs),
        v_alpha=st.lists(st.sampled_from(_PIVOT_WORDS), min_size=1, unique=True),
        v_beta=st.lists(st.sampled_from(_OTHER_WORDS), min_size=1, unique=True),
    )


def example_alignment():
    return align_tables(P_FWD, P_BWD, ["cat", "dog"], ["chat", "chien"])


class TestBuildAlignment:
    def test_worked_example(self):
        # by hand: s(cat,chat)=1.7, s(cat,chien)=0.15,
        # s(dog,chat)=0, s(dog,chien)=1.75
        align = example_alignment()
        assert pairs_of(P_FWD, P_BWD, ["cat", "dog"], ["chat", "chien"]) == \
            {("cat", "chat"), ("dog", "chien")}
        assert align.to_pivot == {"chat": "cat", "chien": "dog"}
        assert align.scores == {"chat": 0.9 + 0.8, "chien": 0.9 + 0.85}

    def test_all_zero_gives_empty(self):
        align = align_tables({}, {}, ["a"], ["b"])
        assert pairs_of({}, {}, ["a"], ["b"]) == set()
        assert align.to_pivot == {}

    def test_tie_broken_lexicographically(self):
        fwd = {("aa", "b"): 0.5, ("zz", "b"): 0.5}
        bwd = {}
        # by the words, whichever id each has
        for v_alpha in (["aa", "zz"], ["zz", "aa"]):
            align = align_tables(fwd, bwd, v_alpha, ["b"])
            assert pairs_of(fwd, bwd, v_alpha, ["b"]) == {("aa", "b"), ("zz", "b")}
            assert align.to_pivot == {"b": "aa"}

    def test_empty_vocab_gives_empty_alignment(self):
        fwd, bwd = {("a", "b"): 0.5}, {("b", "a"): 0.5}
        for v_alpha, v_beta in (([], ["b"]), (["a"], []), ([], [])):
            scores = scores_of(fwd, bwd, v_alpha, v_beta)
            align = lexicon.build_alignment(scores, "fr", v_alpha, v_beta)
            assert (align.to_pivot, align.scores) == ({}, {})
            assert lexicon.reverse_condition_violations(scores) == 0

    def test_forward_argmax_condition_holds(self):
        # property: every emitted pair survives an exhaustive re-scan
        rng = random.Random(5)
        v_a = [f"a{i}" for i in range(12)]
        v_b = [f"b{i}" for i in range(15)]
        fwd = {
            (a, b): round(rng.random(), 3)
            for a in v_a for b in v_b if rng.random() < 0.3
        }
        bwd = {
            (b, a): round(rng.random(), 3)
            for a in v_a for b in v_b if rng.random() < 0.3
        }
        align = align_tables(fwd, bwd, v_a, v_b)
        pairs = pairs_of(fwd, bwd, v_a, v_b)
        assert pairs

        def s(a, b):
            return fwd.get((a, b), 0.0) + bwd.get((b, a), 0.0)

        for a, b in pairs:
            assert s(a, b) > 0.0
            assert all(s(a, b) >= s(a, w) for w in v_b)
        # to_pivot is a function into the pair set
        assert len(align.to_pivot) <= len(v_b)
        for b, a in align.to_pivot.items():
            assert (a, b) in pairs

    @given(**tables(_PROBS))
    def test_matches_exhaustive_scan_oracle(self, fwd_rows, bwd_rows, v_alpha, v_beta):
        # S(a, b) over every pair of the two vocabularies, not only the
        # pairs that a table entry names
        fwd, bwd = fwd_rows, bwd_rows
        align = align_tables(fwd, bwd, v_alpha, v_beta)
        every_pair = {(a, b): fwd.get((a, b), 0.0) + bwd.get((b, a), 0.0)
                      for a in set(v_alpha) for b in set(v_beta)}
        assert (pairs_of(fwd, bwd, v_alpha, v_beta), align.to_pivot, align.scores) == \
            reference.alignment(every_pair)

    # probabilities of many values, so that a sum added in another order
    # would show
    @given(**tables(_PROBS | st.floats(0.0, 1.0)))
    def test_array_path_equals_dict_oracle(self, fwd_rows, bwd_rows, v_alpha, v_beta):
        fwd, bwd = fwd_rows, bwd_rows
        scores = scores_of(fwd, bwd, v_alpha, v_beta)
        expected = reference.pair_scores(fwd, bwd, v_alpha, v_beta)
        assert word_table(scores, v_alpha, v_beta) == expected
        align = lexicon.build_alignment(scores, "fr", v_alpha, v_beta)
        assert (pairs_of(fwd, bwd, v_alpha, v_beta), align.to_pivot, align.scores) == \
            reference.alignment(expected)

    def test_determinism(self):
        one = example_alignment()
        two = example_alignment()
        assert one.to_pivot == two.to_pivot
        assert one.scores == two.scores

    def test_reverse_condition_diagnostic(self):
        # 'big' wins b via the forward scan, but 'bad' beats it on the
        # reverse condition through the backward table
        fwd = {("big", "b"): 0.6, ("bad", "b"): 0.5}
        bwd = {("b", "bad"): 0.3}
        assert ("big", "b") in pairs_of(fwd, bwd, ["bad", "big"], ["b"])
        assert lexicon.reverse_condition_violations(
            scores_of(fwd, bwd, ["bad", "big"], ["b"])) >= 1

    @given(**tables(_PROBS))
    def test_reverse_condition_matches_oracle(self, fwd_rows, bwd_rows, v_alpha, v_beta):
        fwd, bwd = fwd_rows, bwd_rows
        assert lexicon.reverse_condition_violations(
            scores_of(fwd, bwd, v_alpha, v_beta)
        ) == oracle_reverse_condition_violations(pairs_of(fwd, bwd, v_alpha, v_beta),
                                                 fwd, bwd, v_alpha)


# the words of a corpus/ that holds the worked example's French pages, and
# the dimensions of the pivot vocabulary
WORDS = ["zz", "chien", "xyz", "chat"]
PIVOT_INDEX = {"dog": 0, "cat": 1}


def map_words(tokens, lang="fr", words=WORDS):
    """``map_document`` of a page of ``tokens`` through the example's token
    map, as the pivot words of the dimensions, and the reference's words."""
    align = example_alignment()
    doc = id_record("http://a.com/x", tokens, words, lang=lang)
    dims = lexicon.map_document(doc, lexicon.token_map(align, words, PIVOT_INDEX))
    pivot_words = list(PIVOT_INDEX)
    expected = reference.map_tokens(doc.tokens, align.to_pivot)
    return [pivot_words[d] for d in dims.tolist()], expected


class TestMapDocument:
    def test_substitution_preserves_order_and_multiplicity(self):
        mapped, oracle = map_words(["chat", "chien", "chat"])
        assert mapped == oracle == ["cat", "dog", "cat"]

    def test_oov_dropped(self):
        mapped, oracle = map_words(["xyz"])
        assert mapped == oracle == []

    def test_language_mismatch(self):
        with pytest.raises(UsageError):
            map_words(["chat"], lang="de")

    def test_output_never_longer(self):
        align = example_alignment()
        doc = id_record("http://a.com/x", ["chat", "zz", "chien"], WORDS, lang="fr")
        out = lexicon.map_document(doc, lexicon.token_map(align, WORDS, PIVOT_INDEX))
        assert len(out) < len(doc.tokens)

    def test_token_map_over_words(self):
        tokens = lexicon.token_map(example_alignment(), WORDS, PIVOT_INDEX)
        assert tokens.lang == "fr"
        assert tokens.dims.dtype == np.int32
        assert tokens.dims.tolist() == [-1, 0, -1, 1]

    @given(data=st.data())
    def test_matches_dict_oracle(self, data):
        words = data.draw(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), unique=True,
                                   min_size=1))
        pivot = ["p", "q", "r"]
        to_pivot = data.draw(st.dictionaries(st.sampled_from(words), st.sampled_from(pivot)))
        align = lexicon.LexiconAlignment("fr", to_pivot, dict.fromkeys(to_pivot, 1.0))
        doc = id_record("http://a.com/x", data.draw(st.lists(st.sampled_from(words))), words,
                        lang="fr")
        pivot_index = {w: i for i, w in enumerate(pivot)}
        dims = lexicon.map_document(doc, lexicon.token_map(align, words, pivot_index))
        expected = reference.map_tokens(doc.tokens, align.to_pivot)
        assert [pivot[d] for d in dims.tolist()] == expected


class TestAlignmentIO:
    def test_roundtrip_and_sorted(self, tmp_path):
        align = example_alignment()
        path = tmp_path / "lex.tsv"
        lexicon.save_alignment(align, path)
        lines = path.read_text().splitlines()
        assert lines == sorted(lines)
        assert lines == ["chat\tcat\t1.7", "chien\tdog\t1.75"]
        loaded = lexicon.load_alignment(path, "fr", set(align.to_pivot.values()))
        assert loaded.to_pivot == align.to_pivot
        assert loaded.scores == pytest.approx(align.scores, rel=1e-8)
        # saving a loaded lexicon rewrites the same bytes
        again = tmp_path / "again.tsv"
        lexicon.save_alignment(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_bit_exact_reproducible(self, tmp_path):
        align = example_alignment()
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        lexicon.save_alignment(align, a)
        lexicon.save_alignment(align, b)
        assert a.read_bytes() == b.read_bytes()

    # nan and inf were loaded as scores
    @pytest.mark.parametrize("score", ["high", "", "0.5x", "nan", "inf", "-inf"])
    def test_bad_score_names_file_and_line(self, tmp_path, score):
        problem = "a finite number" if score in ("nan", "inf", "-inf") else "a number"
        path = tmp_path / "lex.tsv"
        path.write_text(f"chat\tcat\t1.7\nchien\tdog\t{score}\n")
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:2: "
                                              rf"score {re.escape(repr(score))} is not "
                                              rf"{problem}$"):
            lexicon.load_alignment(path, "fr", {"cat", "dog"})
