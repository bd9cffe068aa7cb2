import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from docalign import lexicon
from docalign.errors import ConfigError, FormatError, UsageError
from docalign.lexicon import TranslationTable
from tests.conftest import make_record


def table(src_lang, tgt_lang, rows):
    return TranslationTable(src_lang, tgt_lang, probs=dict(rows))


class TestLoadTranslationTable:
    def test_single_row(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("cat\tchat\t0.9\n")
        t = lexicon.load_translation_table(path, "en", "fr")
        assert t.probs[("cat", "chat")] == 0.9

    def test_out_of_range(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("cat\tchat\t1.5\n")
        with pytest.raises(FormatError, match=":1"):
            lexicon.load_translation_table(path, "en", "fr")

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("cat\tchat\tx\n")
        with pytest.raises(FormatError, match=":1"):
            lexicon.load_translation_table(path, "en", "fr")

    def test_duplicate_last_wins(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("cat\tchat\t0.9\ncat\tchien\t0.1\ncat\tchat\t0.2\n")
        t = lexicon.load_translation_table(path, "en", "fr")
        assert len(t.probs) == 2
        assert t.probs[("cat", "chat")] == 0.2

    def test_missing_lang_tag(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tb\t0.5\n")
        with pytest.raises(ConfigError):
            lexicon.load_translation_table(path, "", "fr")


class TestTableFromEmbeddings:
    def test_orthogonal(self):
        fwd, _bwd = lexicon.table_from_embeddings(
            {"a": np.array([1.0, 0.0])},
            {"x": np.array([1.0, 0.0]), "y": np.array([0.0, 1.0])},
            top_n=2,
        )
        assert fwd.probs[("a", "x")] == pytest.approx(1.0)
        assert fwd.probs.get(("a", "y"), 0.0) == pytest.approx(0.0)

    def test_normalized_to_sum_one(self):
        # cosines 1 and cos(45deg); kept scores renormalize to sum 1
        fwd, _bwd = lexicon.table_from_embeddings(
            {"a": np.array([1.0, 0.0])},
            {"x": np.array([1.0, 0.0]), "y": np.array([1.0, 1.0])},
            top_n=2,
        )
        c = math.cos(math.pi / 4)
        assert fwd.probs[("a", "x")] == pytest.approx(1 / (1 + c), abs=1e-9)
        assert fwd.probs[("a", "y")] == pytest.approx(c / (1 + c), abs=1e-9)

    def test_identical_spaces_argmax_is_identity(self):
        rng = np.random.default_rng(3)
        emb = {f"w{i}": rng.normal(size=8) for i in range(30)}
        fwd, bwd = lexicon.table_from_embeddings(emb, emb, top_n=5)
        align = lexicon.build_alignment(fwd, bwd, emb.keys(), emb.keys())
        assert align.to_pivot == {w: w for w in emb}

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        src = {f"s{i}": rng.normal(size=6) for i in range(20)}
        tgt = {f"t{i}": rng.normal(size=6) for i in range(25)}
        fwd, bwd = lexicon.table_from_embeddings(src, tgt, top_n=4)
        for t in (fwd, bwd):
            sums = {}
            for (s, _w), p in t.probs.items():
                assert p >= 0.0
                sums[s] = sums.get(s, 0.0) + p
            for s, total in sums.items():
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_dim_mismatch(self):
        with pytest.raises(FormatError):
            lexicon.table_from_embeddings(
                {"a": np.ones(3)}, {"x": np.ones(4)}, top_n=1
            )

    @pytest.mark.parametrize("top_n", [0, -1])
    def test_top_n_below_one(self, top_n):
        with pytest.raises(ConfigError, match=f"top_n must be >= 1, got {top_n}"):
            lexicon.table_from_embeddings(
                {"a": np.ones(2)}, {"x": np.ones(2)}, top_n=top_n
            )

    def test_zero_vector_skipped(self):
        fwd, _ = lexicon.table_from_embeddings(
            {"a": np.array([1.0, 0.0]), "z": np.zeros(2)},
            {"x": np.array([1.0, 0.0])},
            top_n=1,
        )
        assert ("z", "x") not in fwd.probs
        assert fwd.probs[("a", "x")] == pytest.approx(1.0)

    def test_embeddings_file_roundtrip(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\ncat 1 0 0\ndog 0 1 0\n")
        emb = lexicon.load_embeddings(path)
        assert set(emb) == {"cat", "dog"}
        assert emb["cat"].tolist() == [1.0, 0.0, 0.0]

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


def oracle_directional_table(src, src_mat, tgt, tgt_mat, top_n):
    """The per-source-word loop that ``_directional_table`` replaced."""
    sims = src_mat @ tgt_mat.T
    probs = {}
    k = min(top_n, len(tgt))
    for i, word in enumerate(src):
        row = sims[i]
        top = np.argpartition(-row, k - 1)[:k] if k < len(tgt) else np.arange(len(tgt))
        kept = np.clip(row[top], 0.0, None)
        total = kept.sum()
        if total <= 0:
            continue
        for j, score in zip(top, kept):
            probs[(word, tgt[j])] = float(score / total)
    return probs


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


class TestDirectionalTableOracle:
    @settings(max_examples=300, deadline=None)
    @given(spaces=embedding_spaces(), top_n=st.integers(1, 30))
    def test_equals_per_word_loop(self, spaces, top_n):
        src, src_mat, tgt, tgt_mat = spaces
        got = lexicon._directional_table(src, src_mat, tgt, tgt_mat, "en", "fr", top_n)
        expected = oracle_directional_table(src, src_mat, tgt, tgt_mat, top_n)
        assert list(got.probs.items()) == list(expected.items())

    def test_no_words(self):
        empty = np.asarray([])
        got = lexicon._directional_table([], empty, [], empty, "en", "fr", 3)
        assert got.probs == {}


def oracle_reverse_condition_violations(align, p_fwd, p_bwd, v_alpha):
    """The O(|pairs| x |V_pivot|) scan that the indexed version replaced."""
    alpha = sorted(set(v_alpha))
    violations = 0
    for a, b in align.pairs:
        s_ab = p_fwd.probs.get((a, b), 0.0) + p_bwd.probs.get((b, a), 0.0)
        for w in alpha:
            if p_fwd.probs.get((w, b), 0.0) + p_bwd.probs.get((b, w), 0.0) > s_ab:
                violations += 1
                break
    return violations


def oracle_build_alignment(p_fwd, p_bwd, v_alpha, v_beta):
    """The per-pivot-word scan over the whole other vocabulary that the one
    pass over ``pair_scores`` replaced; returns (pairs, to_pivot, scores)."""
    pairs = set()
    best_for_other = {}
    for a in sorted(set(v_alpha)):
        best, best_bs = 0.0, []
        for b in sorted(set(v_beta)):
            s = p_fwd.probs.get((a, b), 0.0) + p_bwd.probs.get((b, a), 0.0)
            if s > best:
                best, best_bs = s, [b]
            elif s == best and best > 0.0:
                best_bs.append(b)
        for b in best_bs:
            pairs.add((a, b))
            cur = best_for_other.get(b)
            if cur is None or best > cur[0] or (best == cur[0] and a < cur[1]):
                best_for_other[b] = (best, a)
    return (pairs, {b: a for b, (_s, a) in best_for_other.items()},
            {b: s for b, (s, _a) in best_for_other.items()})


_PIVOT_WORDS = ["p0", "p1", "p2", "p3", "p4"]
_OTHER_WORDS = ["o0", "o1", "o2", "o3"]
# few distinct values, so that ties and explicit zero entries are common
_PROBS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.5, 1.0])


def example_alignment():
    return lexicon.build_alignment(
        table("en", "fr", P_FWD), table("fr", "en", P_BWD),
        ["cat", "dog"], ["chat", "chien"],
    )


class TestBuildAlignment:
    def test_worked_example(self):
        # exhaustive scan oracle: s(cat,chat)=1.7, s(cat,chien)=0.15,
        # s(dog,chat)=0, s(dog,chien)=1.75
        align = example_alignment()
        assert align.pairs == {("cat", "chat"), ("dog", "chien")}
        assert align.to_pivot == {"chat": "cat", "chien": "dog"}
        assert align.scores == {"chat": 0.9 + 0.8, "chien": 0.9 + 0.85}

    def test_all_zero_gives_empty(self):
        align = lexicon.build_alignment(
            table("en", "fr", {}), table("fr", "en", {}), ["a"], ["b"]
        )
        assert align.pairs == set()
        assert align.to_pivot == {}

    def test_tie_broken_lexicographically(self):
        fwd = table("en", "fr", {("aa", "b"): 0.5, ("zz", "b"): 0.5})
        bwd = table("fr", "en", {})
        align = lexicon.build_alignment(fwd, bwd, ["aa", "zz"], ["b"])
        assert align.pairs == {("aa", "b"), ("zz", "b")}
        assert align.to_pivot == {"b": "aa"}

    def test_empty_vocab_rejected(self):
        with pytest.raises(ConfigError):
            lexicon.build_alignment(table("en", "fr", {}), table("fr", "en", {}), [], ["b"])

    def test_forward_argmax_condition_holds(self):
        # property: every emitted pair survives an exhaustive re-scan
        rng = random.Random(5)
        v_a = [f"a{i}" for i in range(12)]
        v_b = [f"b{i}" for i in range(15)]
        fwd = table("en", "fr", {
            (a, b): round(rng.random(), 3)
            for a in v_a for b in v_b if rng.random() < 0.3
        })
        bwd = table("fr", "en", {
            (b, a): round(rng.random(), 3)
            for a in v_a for b in v_b if rng.random() < 0.3
        })
        align = lexicon.build_alignment(fwd, bwd, v_a, v_b)
        assert align.pairs

        def s(a, b):
            return fwd.probs.get((a, b), 0.0) + bwd.probs.get((b, a), 0.0)

        for a, b in align.pairs:
            assert s(a, b) > 0.0
            assert all(s(a, b) >= s(a, w) for w in v_b)
        # to_pivot is a function into the pair set
        assert len(align.to_pivot) <= len(v_b)
        for b, a in align.to_pivot.items():
            assert (a, b) in align.pairs

    # Pivot words left out of v_alpha and other words left out of v_beta
    # still have table entries.
    @given(
        fwd_rows=st.dictionaries(
            st.tuples(st.sampled_from(_PIVOT_WORDS), st.sampled_from(_OTHER_WORDS)),
            _PROBS),
        bwd_rows=st.dictionaries(
            st.tuples(st.sampled_from(_OTHER_WORDS), st.sampled_from(_PIVOT_WORDS)),
            _PROBS),
        v_alpha=st.sets(st.sampled_from(_PIVOT_WORDS), min_size=1),
        v_beta=st.sets(st.sampled_from(_OTHER_WORDS), min_size=1),
    )
    def test_matches_exhaustive_scan_oracle(self, fwd_rows, bwd_rows, v_alpha, v_beta):
        fwd = table("en", "fr", fwd_rows)
        bwd = table("fr", "en", bwd_rows)
        align = lexicon.build_alignment(fwd, bwd, v_alpha, v_beta)
        assert (align.pairs, align.to_pivot, align.scores) == \
            oracle_build_alignment(fwd, bwd, v_alpha, v_beta)

    def test_determinism(self):
        one = example_alignment()
        two = example_alignment()
        assert one.pairs == two.pairs
        assert one.to_pivot == two.to_pivot
        assert one.scores == two.scores

    def test_reverse_condition_diagnostic(self):
        # 'big' wins b via the forward scan, but 'bad' beats it on the
        # reverse condition through the backward table
        fwd = table("en", "fr", {("big", "b"): 0.6, ("bad", "b"): 0.5})
        bwd = table("fr", "en", {("b", "bad"): 0.3})
        align = lexicon.build_alignment(fwd, bwd, ["bad", "big"], ["b"])
        assert ("big", "b") in align.pairs
        assert lexicon.reverse_condition_violations(
            align, fwd, bwd, ["bad", "big"]) >= 1

    # Pivot words left out of v_alpha still have table entries, and pair
    # sets not built by build_alignment may hold words outside both
    # vocabularies.
    @given(
        fwd_rows=st.dictionaries(
            st.tuples(st.sampled_from(_PIVOT_WORDS), st.sampled_from(_OTHER_WORDS)),
            _PROBS),
        bwd_rows=st.dictionaries(
            st.tuples(st.sampled_from(_OTHER_WORDS), st.sampled_from(_PIVOT_WORDS)),
            _PROBS),
        v_alpha=st.sets(st.sampled_from(_PIVOT_WORDS), min_size=1),
        v_beta=st.sets(st.sampled_from(_OTHER_WORDS), min_size=1),
        extra_pairs=st.sets(st.tuples(st.sampled_from(_PIVOT_WORDS + ["x"]),
                                      st.sampled_from(_OTHER_WORDS + ["y"]))),
    )
    def test_reverse_condition_matches_oracle(self, fwd_rows, bwd_rows,
                                              v_alpha, v_beta, extra_pairs):
        fwd = table("en", "fr", fwd_rows)
        bwd = table("fr", "en", bwd_rows)
        built = lexicon.build_alignment(fwd, bwd, v_alpha, v_beta)
        arbitrary = lexicon.LexiconAlignment("en", "fr", pairs=extra_pairs)
        for align in (built, arbitrary):
            assert lexicon.reverse_condition_violations(
                align, fwd, bwd, v_alpha
            ) == oracle_reverse_condition_violations(align, fwd, bwd, v_alpha)


class TestMapDocument:
    def test_substitution_preserves_order_and_multiplicity(self):
        align = example_alignment()
        doc = make_record("http://a.com/x", ["chat", "chien", "chat"], lang="fr")
        assert lexicon.map_document(doc, align) == ["cat", "dog", "cat"]

    def test_oov_dropped(self):
        align = example_alignment()
        doc = make_record("http://a.com/x", ["xyz"], lang="fr")
        assert lexicon.map_document(doc, align) == []

    def test_language_mismatch(self):
        align = example_alignment()
        doc = make_record("http://a.com/x", ["chat"], lang="de")
        with pytest.raises(UsageError):
            lexicon.map_document(doc, align)

    def test_output_never_longer(self):
        align = example_alignment()
        doc = make_record("http://a.com/x", ["chat", "zz", "chien"], lang="fr")
        out = lexicon.map_document(doc, align)
        assert len(out) < len(doc.tokens)


class TestAlignmentIO:
    def test_roundtrip_and_sorted(self, tmp_path):
        align = example_alignment()
        path = tmp_path / "lex.tsv"
        lexicon.save_alignment(align, path)
        lines = path.read_text().splitlines()
        assert lines == sorted(lines)
        assert lines == ["chat\tcat\t1.7", "chien\tdog\t1.75"]
        loaded = lexicon.load_alignment(path, "en", "fr", set(align.to_pivot.values()))
        assert loaded.to_pivot == align.to_pivot
        assert loaded.pairs == align.pairs
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

    @pytest.mark.parametrize("score", ["high", "", "0.5x"])
    def test_bad_score_names_file_and_line(self, tmp_path, score):
        path = tmp_path / "lex.tsv"
        path.write_text(f"chat\tcat\t1.7\nchien\tdog\t{score}\n")
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:2: "
                                              rf"score {re.escape(repr(score))} is not a number$"):
            lexicon.load_alignment(path, "en", "fr", {"cat", "dog"})
