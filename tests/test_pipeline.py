import dataclasses
import json
import re
import shutil
from unittest import mock

import pytest
import yaml

from docalign import lexicon
from docalign.cli import main
from docalign.corpus import CorpusPartition, read_partitions
from docalign.errors import ConfigError
from docalign.pipeline import LanguageResource, PipelineConfig, run_pipeline
from tests.conftest import SyntheticCorpus, write_jsonl_partitions


def run_tiny(tmp_path, out_name="out", corpus=None, **overrides):
    corpus = corpus or SyntheticCorpus(n_domains=2, docs_per_domain=5,
                                       vocab_size=60, doc_len=(20, 30), seed=7)
    cfg_dict = corpus.config(tmp_path / "fixture", tmp_path / out_name, **overrides)
    cfg = PipelineConfig.from_dict(cfg_dict)
    return run_pipeline(cfg), corpus


def tree(out):
    """Every file under ``out``, stamps included, as {path: bytes}."""
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


class TestRunPipeline:
    def test_produces_artifacts(self, tmp_path):
        out, corpus = run_tiny(tmp_path, vocab_size=50)
        assert (out / "pairs.tsv").is_file()
        assert (out / "manifest.json").is_file()
        assert (out / "report.json").is_file()
        assert (out / "corpus").is_dir()
        report = json.loads((out / "report.json").read_text())
        assert report["cda"]["total"] == len(corpus.gold)
        assert report["cda"]["recall"] > 50.0

    def test_manifest_records_everything(self, tmp_path):
        out, _ = run_tiny(tmp_path, vocab_size=50)
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"parameters", "inputs", "stages", "outputs"}
        assert manifest["parameters"]["vocab_size"] == 50
        assert "pairs.tsv" in manifest["outputs"]
        assert all(len(d) == 64 for d in manifest["inputs"].values())

    def test_rerun_skips_and_reproduces(self, tmp_path, caplog):
        import logging

        out, corpus = run_tiny(tmp_path, vocab_size=50)
        pairs_one = (out / "pairs.tsv").read_bytes()
        manifest_one = (out / "manifest.json").read_bytes()
        with caplog.at_level(logging.INFO, logger="docalign.pipeline"):
            out2, _ = run_tiny(tmp_path, corpus=corpus, vocab_size=50)
        assert out2 == out
        assert (out / "pairs.tsv").read_bytes() == pairs_one
        assert (out / "manifest.json").read_bytes() == manifest_one
        skipped = [r for r in caplog.records if "skipping" in r.message]
        assert len(skipped) >= 4

    def test_separate_out_dirs_byte_identical(self, tmp_path):
        corpus = SyntheticCorpus(n_domains=2, docs_per_domain=5, vocab_size=60,
                                 doc_len=(20, 30), seed=7)
        out1, _ = run_tiny(tmp_path, out_name="run1", corpus=corpus, vocab_size=50)
        out2, _ = run_tiny(tmp_path, out_name="run2", corpus=corpus, vocab_size=50)
        assert (out1 / "pairs.tsv").read_bytes() == (out2 / "pairs.tsv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    def test_parameter_change_invalidates_stage(self, tmp_path):
        corpus = SyntheticCorpus(n_domains=2, docs_per_domain=5, vocab_size=60,
                                 doc_len=(20, 30), seed=7)
        out, _ = run_tiny(tmp_path, corpus=corpus, vocab_size=50, threshold=0.1)
        m1 = json.loads((out / "manifest.json").read_text())
        out, _ = run_tiny(tmp_path, corpus=corpus, vocab_size=50, threshold=0.9)
        m2 = json.loads((out / "manifest.json").read_text())
        assert m1["stages"]["align"] != m2["stages"]["align"]
        assert m1["stages"]["ingest"] == m2["stages"]["ingest"]

    @pytest.mark.parametrize("dropped,domains", [
        ("site01.example/", ["site00.example", "site02.example"]),
        ("site01.example/fr/", ["site00.example", "site01.example", "site02.example"]),
    ])
    def test_rerun_after_input_loses_records(self, tmp_path, dropped, domains):
        corpus = SyntheticCorpus(n_domains=3, docs_per_domain=5, vocab_size=60,
                                 doc_len=(20, 30), seed=7)
        out, _ = run_tiny(tmp_path, corpus=corpus, vocab_size=50)

        def site01_pairs():
            return [line for line in (out / "pairs.tsv").read_text().splitlines()
                    if line.startswith("site01.example\t")]

        assert site01_pairs()
        # the same input without one domain, or without one of its languages
        corpus.records = [r for r in corpus.records if dropped not in r["url"]]
        out, _ = run_tiny(tmp_path, corpus=corpus, vocab_size=50)
        parts = read_partitions(out / "corpus")
        assert sorted(parts) == domains
        assert "fr" not in parts.get("site01.example", CorpusPartition("")).by_lang
        assert not (out / "corpus.tmp").exists()
        assert (out / "pairs.tsv").read_text()
        assert site01_pairs() == []

    def test_old_corpus_layout_is_reingested(self, tmp_path, caplog):
        import logging

        out, corpus = run_tiny(tmp_path, vocab_size=50)
        pairs = (out / "pairs.tsv").read_bytes()
        # corpus/ as an earlier version wrote it, under a fresh ingest stamp
        parts = read_partitions(out / "corpus")
        shutil.rmtree(out / "corpus")
        write_jsonl_partitions(parts, out / "corpus")
        with caplog.at_level(logging.INFO, logger="docalign.pipeline"):
            run_tiny(tmp_path, corpus=corpus, vocab_size=50)
        assert "ingest: up to date, skipping" not in caplog.messages
        assert any(m.startswith("ingest: ") and "records" in m for m in caplog.messages)
        assert sorted(p.name for p in (out / "corpus").iterdir()) == [
            "docs.tsv", "ids.npy", "words.json"]
        assert read_partitions(out / "corpus") == parts
        assert (out / "pairs.tsv").read_bytes() == pairs

    def test_failed_rerun_leaves_no_fresh_stamp(self, tmp_path):
        corpus = SyntheticCorpus(n_domains=2, docs_per_domain=5, vocab_size=60,
                                 doc_len=(20, 30), seed=7)
        out, _ = run_tiny(tmp_path, corpus=corpus, vocab_size=50, threshold=0.1)
        assert len((out / "pairs.tsv").read_text().splitlines()) == 10
        # align rewrites pairs.tsv empty, then fails on the identifier file
        ids = tmp_path / "ids.txt"
        ids.write_text("fr/x\n")
        with pytest.raises(ConfigError):
            run_tiny(tmp_path, corpus=corpus, vocab_size=50, threshold=1.5,
                     url_align=True, identifiers=str(ids))
        assert (out / "FAILED").read_text() == "align\n"
        assert not (out / "manifest.json").exists()
        run_tiny(tmp_path, corpus=corpus, vocab_size=50, threshold=0.1)
        assert len((out / "pairs.tsv").read_text().splitlines()) == 10
        report = json.loads((out / "report.json").read_text())
        assert report["cda"]["found"] == report["cda"]["total"] == 10
        fresh, _ = run_tiny(tmp_path, out_name="fresh", corpus=corpus, vocab_size=50,
                            threshold=0.1)
        assert tree(out) == tree(fresh)

    @pytest.mark.parametrize("first,final", [
        ({"url_align": True, "mine": True}, {}),
        ({}, {"gold": None}),
        ({"langs": ["de", "fr"]}, {}),
    ], ids=["url-align-and-mine-off", "gold-removed", "language-dropped"])
    def test_rerun_leaves_what_a_fresh_run_leaves(self, tmp_path, first, final):
        corpus = SyntheticCorpus(n_domains=2, docs_per_domain=5, vocab_size=60,
                                 doc_len=(20, 30), seed=7)
        # German pages with the French text, aligned through the French tables
        corpus.records += [{**r, "url": r["url"].replace("/fr/", "/de/"), "lang": "de"}
                           for r in corpus.records if r["lang"] == "fr"]

        def run(out_name, **overrides):
            cfg = corpus.config(tmp_path / "fixture", tmp_path / out_name,
                                vocab_size=50, **overrides)
            cfg["resources"]["de"] = cfg["resources"]["fr"]
            return run_pipeline(PipelineConfig.from_dict(cfg))

        fresh = tree(run("fresh", **final))
        assert set(tree(run("out", **first))) - set(fresh)  # files to drop
        assert tree(run("out", **final)) == fresh

    # vectorize counted as fresh with data.npy gone, so this rerun, and every
    # later one that had to redo align, failed on the missing file
    def test_lost_output_reruns_its_stage(self, tmp_path, caplog):
        out, corpus = run_tiny(tmp_path, threshold=0.1)
        (out / "vectors" / "fr" / "data.npy").unlink()
        with caplog.at_level("INFO", logger="docalign.pipeline"):
            run_tiny(tmp_path, corpus=corpus, threshold=0.15)
        assert "vectorize: up to date, skipping" not in caplog.messages
        fresh, _ = run_tiny(tmp_path, out_name="fresh", corpus=corpus, threshold=0.15)
        assert tree(out) == tree(fresh)

    def test_stamps_list_the_files_their_stages_wrote(self, tmp_path):
        out, _ = run_tiny(tmp_path, url_align=True, mine=True)
        owns = {"ingest": ["corpus"], "lexicon": ["vocab", "lexicon"],
                "vectorize": ["vectors", "idf"], "align": ["pairs.tsv", "pairs_url.tsv"],
                "mine": ["candidates.tsv"], "evaluate": ["report.json"]}
        assert sorted(p.stem for p in (out / ".stamps").iterdir()) == sorted(owns)
        listed = []
        for stage, paths in owns.items():
            outputs = json.loads((out / ".stamps" / f"{stage}.json").read_bytes())["outputs"]
            assert outputs == sorted(name for name in tree(out) if name.split("/")[0] in paths)
            listed += outputs
        manifest = json.loads((out / "manifest.json").read_bytes())
        assert sorted(listed) == sorted(manifest["outputs"])

    # a stamp of the {"digest": ...} form, which lists no outputs
    @pytest.mark.parametrize("stage", ["ingest", "lexicon", "vectorize", "align", "mine",
                                       "evaluate"])
    def test_stamp_without_outputs_is_stale(self, tmp_path, caplog, stage):
        out, corpus = run_tiny(tmp_path, url_align=True, mine=True)
        before = tree(out)
        stamp = out / ".stamps" / f"{stage}.json"
        stamp.write_text(json.dumps({"digest": json.loads(stamp.read_bytes())["digest"]}))
        with caplog.at_level("INFO", logger="docalign.pipeline"):
            run_tiny(tmp_path, corpus=corpus, url_align=True, mine=True)
        assert f"{stage}: up to date, skipping" not in caplog.messages
        assert tree(out) == before

    # a stamp that did not decode raised UnicodeDecodeError out of the stage
    @pytest.mark.parametrize("stamp", [b"\xff", b"[]", b"{"])
    def test_unreadable_stamp_is_stale(self, tmp_path, caplog, stamp):
        out, _ = run_tiny(tmp_path)
        before = tree(out)
        (out / ".stamps" / "align.json").write_bytes(stamp)
        with caplog.at_level("INFO", logger="docalign"):
            run_tiny(tmp_path)
        assert "align: up to date" not in caplog.text
        assert "vectorize: up to date" in caplog.text
        assert tree(out) == before

    def test_missing_resource_fails_preflight(self, tmp_path):
        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=2, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        cfg_dict = corpus.config(tmp_path / "fx", tmp_path / "out")
        cfg_dict["resources"]["fr"]["table_fwd"] = str(tmp_path / "missing.tsv")
        with pytest.raises(ConfigError, match="fr"):
            run_pipeline(PipelineConfig.from_dict(cfg_dict))
        assert not (tmp_path / "out" / "pairs.tsv").exists()
        assert not (tmp_path / "out" / "corpus").exists()

    # a missing table left the earlier run's outputs with no manifest, and a
    # missing gold, identifiers or stopwords file failed later, in
    # file_digest, as a FileNotFoundError
    @pytest.mark.parametrize("key, message", [
        ("table_fwd", "language 'fr': resource file not found: {}"),
        ("gold", "gold file not found: {}"),
        ("identifiers", "identifiers file not found: {}"),
        ("stopwords", "stopwords file not found: {}"),
    ])
    def test_rerun_with_missing_file_leaves_out_unchanged(self, tmp_path, key, message):
        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=2, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        cfg_dict = corpus.config(tmp_path / "fx", tmp_path / "out")
        out = run_pipeline(PipelineConfig.from_dict(cfg_dict))
        before = tree(out)
        missing = str(tmp_path / "missing.txt")
        if key == "table_fwd":
            cfg_dict["resources"]["fr"][key] = missing
        else:
            cfg_dict[key] = missing
        with pytest.raises(ConfigError, match=f"^{re.escape(message.format(missing))}$"):
            run_pipeline(PipelineConfig.from_dict(cfg_dict))
        assert tree(out) == before

    # a resource of a language outside langs was not checked: its missing
    # file ended in file_digest's FileNotFoundError, after manifest.json was
    # deleted
    def test_rerun_with_missing_unlisted_resource_leaves_out_unchanged(self, tmp_path):
        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=2, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        cfg_dict = corpus.config(tmp_path / "fx", tmp_path / "out")
        out = run_pipeline(PipelineConfig.from_dict(cfg_dict))
        before = tree(out)
        missing = str(tmp_path / "missing.tsv")
        cfg_dict["resources"]["de"] = {**cfg_dict["resources"]["fr"], "table_fwd": missing}
        message = f"language 'de': resource file not found: {missing}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_pipeline(PipelineConfig.from_dict(cfg_dict))
        assert tree(out) == before

    # the lexicon key held the resource digests of every configured
    # language, so this edit reran lexicon and every stage after it
    def test_unlisted_resource_edit_keeps_lexicon_fresh(self, tmp_path, caplog):
        import logging

        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=2, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        cfg_dict = corpus.config(tmp_path / "fx", tmp_path / "out")
        table = tmp_path / "de_fwd.tsv"
        shutil.copy(cfg_dict["resources"]["fr"]["table_fwd"], table)
        cfg_dict["resources"]["de"] = {**cfg_dict["resources"]["fr"], "table_fwd": str(table)}
        run_pipeline(PipelineConfig.from_dict(cfg_dict))
        table.write_text(table.read_text() + "w0\tv0\t0.5\n")
        with caplog.at_level(logging.INFO, logger="docalign.pipeline"):
            run_pipeline(PipelineConfig.from_dict(cfg_dict))
        assert "lexicon: up to date, skipping" in caplog.messages

    def test_manifest_inputs_are_the_files_the_config_names(self, tmp_path):
        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=2, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text("the\n")
        identifiers = tmp_path / "identifiers.txt"
        identifiers.write_text("en\nfr\n")
        cfg_dict = corpus.config(tmp_path / "fx", tmp_path / "out", url_align=True,
                                 stopwords=str(stopwords), identifiers=str(identifiers))
        cfg_dict["resources"]["de"] = cfg_dict["resources"]["fr"]
        cfg = PipelineConfig.from_dict(cfg_dict)
        out = run_pipeline(cfg)
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["inputs"]) == sorted(cfg.input_files())
        assert {cfg.input, cfg.gold, str(stopwords), str(identifiers),
                cfg_dict["resources"]["fr"]["table_bwd"]} <= manifest["inputs"].keys()

    def test_unconfigured_language_fails(self, tmp_path):
        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=2, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        cfg_dict = corpus.config(tmp_path / "fx", tmp_path / "out")
        cfg_dict["langs"] = ["fr", "de"]
        with pytest.raises(ConfigError, match="de"):
            run_pipeline(PipelineConfig.from_dict(cfg_dict))

    def test_unknown_matching_fails_preflight(self, tmp_path, capsys):
        # the key chose between two linkers; with one left it is unknown
        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=2, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        cfg_dict = corpus.config(tmp_path / "fx", tmp_path / "out", matching="greedy")
        with pytest.raises(ConfigError, match="'matching'"):
            PipelineConfig.from_dict(cfg_dict)
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg_dict))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "'matching'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # each used to fail only after corpus/ was written, or not at all
    @pytest.mark.parametrize("name, value, low", [
        ("top_n", 0, 1), ("top_n", -1, 1), ("vocab_size", 0, 1), ("skip_top_k", -1, 0),
        ("top_n", "5", 1), ("vocab_size", 10.5, 1), ("skip_top_k", True, 0),
        ("min_support", 0, 1), ("min_support", -3, 1), ("min_support", True, 1),
    ])
    def test_out_of_range_setting_fails_preflight(self, tmp_path, name, value, low):
        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=2, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        cfg_dict = corpus.config(tmp_path / "fx", tmp_path / "out")
        cfg_dict[name] = value
        message = f"{name} must be an integer >= {low}, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_pipeline(PipelineConfig.from_dict(cfg_dict))
        assert not (tmp_path / "out" / "corpus").exists()
        assert not (tmp_path / "out" / "FAILED").exists()

    # lang_confidence above 1 turned detection off and nan let any tag stand;
    # a string threshold failed only in align, and a nan one wrote no pairs
    @pytest.mark.parametrize("name, value, rule", [
        ("lang_confidence", 1.5, "a number in [0, 1]"),
        ("lang_confidence", -0.1, "a number in [0, 1]"),
        ("lang_confidence", float("nan"), "a number in [0, 1]"),
        ("lang_confidence", "0.5", "a number in [0, 1]"),
        ("lang_confidence", True, "a number in [0, 1]"),
        ("threshold", "0.1", "a finite number"),
        ("threshold", float("nan"), "a finite number"),
        ("threshold", float("inf"), "a finite number"),
        ("threshold", True, "a finite number"),
        ("threshold", None, "a finite number"),
    ])
    def test_bad_number_fails_preflight(self, tmp_path, name, value, rule):
        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=2, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        cfg_dict = corpus.config(tmp_path / "fx", tmp_path / "out")
        cfg_dict[name] = value
        message = f"{name} must be {rule}, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_pipeline(PipelineConfig.from_dict(cfg_dict))
        assert not (tmp_path / "out" / "corpus").exists()
        assert not (tmp_path / "out" / "FAILED").exists()

    # a path-like tag wrote vocab/../../esc.txt outside out/, a language
    # listed twice wrote each of its pairs twice, the pivot listed in langs
    # got a lexicon built against itself, and format xml failed only in ingest
    @pytest.mark.parametrize("changes, message", [
        pytest.param({"langs": ["../../esc"]}, "language tag '../../esc' is not made of "
                     "ASCII letters, digits, '-' and '_'", id="path-like-lang"),
        pytest.param({"pivot": "../en"}, "language tag '../en' is not made of "
                     "ASCII letters, digits, '-' and '_'", id="path-like-pivot"),
        pytest.param({"langs": ["fr", "fr"]},
                     "langs must not list a language twice, got ['fr', 'fr']", id="twice"),
        pytest.param({"langs": ["fr", "en"]}, "langs must not list the pivot 'en'",
                     id="pivot-in-langs"),
        pytest.param({"format": "xml"}, "format must be 'jsonl' or 'tsv', got 'xml'",
                     id="format"),
    ])
    def test_bad_language_list_or_format_fails_preflight(self, tmp_path, changes, message):
        corpus = SyntheticCorpus(n_domains=2, docs_per_domain=5, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        cfg_dict = corpus.config(tmp_path / "fx", tmp_path / "out", **changes)
        # every listed language has a resource, so only the rule under test stops the run
        cfg_dict["resources"] = {lang: cfg_dict["resources"]["fr"]
                                 for lang in ["fr", *cfg_dict["langs"]]}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_pipeline(PipelineConfig.from_dict(cfg_dict))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fx"]

    def test_failed_marker_on_stage_error(self, tmp_path):
        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=2, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        cfg_dict = corpus.config(tmp_path / "fx", tmp_path / "out")
        bad_gold = tmp_path / "bad_gold.tsv"
        bad_gold.write_text("only-one-field\n")
        cfg_dict["gold"] = str(bad_gold)
        with pytest.raises(Exception):
            run_pipeline(PipelineConfig.from_dict(cfg_dict))
        marker = tmp_path / "out" / "FAILED"
        assert marker.read_text().strip() == "evaluate"
        # partial outputs are retained
        assert (tmp_path / "out" / "pairs.tsv").is_file()

    def test_url_align_and_mine(self, tmp_path):
        out, _ = run_tiny(tmp_path, vocab_size=50, url_align=True, mine=True,
                          min_support=1)
        url_pairs = (out / "pairs_url.tsv").read_text().splitlines()
        assert url_pairs  # /en/ vs /fr/ URLs match via the default identifiers
        candidates = (out / "candidates.tsv").read_text().splitlines()
        assert any(line.startswith("en\tfr\t") for line in candidates)

    def test_lexicon_scores_each_language_once(self, tmp_path):
        # the S(a, b) table feeds both the alignment and its diagnostic
        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=4, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        cfg = PipelineConfig.from_dict(corpus.config(tmp_path / "fx", tmp_path / "out"))
        with mock.patch.object(lexicon, "pair_scores", wraps=lexicon.pair_scores) as scores, \
                mock.patch.object(lexicon, "build_alignment",
                                  wraps=lexicon.build_alignment) as build, \
                mock.patch.object(lexicon, "reverse_condition_violations",
                                  wraps=lexicon.reverse_condition_violations) as check:
            run_pipeline(cfg)
        assert (scores.call_count, build.call_count, check.call_count) == (1, 1, 1)

    def test_embedding_resources(self, tmp_path):
        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=4, vocab_size=20,
                                 doc_len=(15, 25), seed=3)
        paths = corpus.write(tmp_path / "fx")
        # identical embeddings per dictionary pair: cosine 1 to the right word
        dim = 8
        import random

        rng = random.Random(0)
        vecs = {w: [rng.uniform(-1, 1) for _ in range(dim)] for w in corpus.pivot_words}
        emb_en = tmp_path / "emb_en.txt"
        emb_fr = tmp_path / "emb_fr.txt"
        with open(emb_en, "w") as efh, open(emb_fr, "w") as ffh:
            efh.write(f"{len(corpus.pivot_words)} {dim}\n")
            ffh.write(f"{len(corpus.other_words)} {dim}\n")
            for ew, fw in zip(corpus.pivot_words, corpus.other_words):
                row = " ".join(f"{x:.6f}" for x in vecs[ew])
                efh.write(f"{ew} {row}\n")
                ffh.write(f"{fw} {row}\n")
        cfg_dict = {
            "input": str(paths["input"]),
            "out": str(tmp_path / "out"),
            "pivot": "en",
            "langs": ["fr"],
            "resources": {"fr": {"embeddings_pivot": str(emb_en),
                                 "embeddings_other": str(emb_fr)}},
            "vocab_size": 20,
            "skip_top_k": 0,
            "threshold": 0.1,
            "gold": str(paths["gold"]),
            "detect_language": False,
        }
        out = run_pipeline(PipelineConfig.from_dict(cfg_dict))
        report = json.loads((out / "report.json").read_text())
        assert report["cda"]["recall"] > 50.0


class TestPipelineConfig:
    def test_from_yaml_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(
            "input: in.jsonl\nout: outdir\npivot: en\nlangs: [fr]\n"
            "resources:\n  fr: {table_fwd: f.tsv, table_bwd: b.tsv}\n"
            "threshold: 0.2\n"
        )
        cfg = PipelineConfig.from_file(cfg_file)
        assert cfg.threshold == 0.2
        assert cfg.resources["fr"].table_fwd == "f.tsv"

    def test_config_not_utf8_names_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_bytes(b"input: in.jsonl\nout: caf\xe9\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(cfg_file))}: not UTF-8: "):
            PipelineConfig.from_file(cfg_file)

    # each but the first used to end in a TypeError or AttributeError
    @pytest.mark.parametrize("raw, named", [
        pytest.param({"bogus": 1}, "'bogus'", id="top-level-key"),
        pytest.param({"resources": {"fr": {"table": "a.tsv"}}}, "'fr'.*'table'",
                     id="resource-key"),
        pytest.param({"resources": {"fr": "a.tsv"}}, "'fr'", id="resource-not-mapping"),
        pytest.param({"resources": ["fr"]}, "^resources", id="resources-not-mapping"),
        pytest.param(["input", "out"], "^config must be a mapping",
                     id="document-not-mapping"),
    ])
    def test_unknown_key_rejected(self, raw, named):
        if isinstance(raw, dict):
            raw = {"input": "x", "out": "y", **raw}
        with pytest.raises(ConfigError, match=named):
            PipelineConfig.from_dict(raw)

    # a string of languages was iterated by character, "no" was a true
    # switch and a number as a path ended in a TypeError
    @pytest.mark.parametrize("raw, named", [
        pytest.param({"langs": "fr"}, "^langs must be a list of language tags, got 'fr'$",
                     id="langs-string"),
        pytest.param({"mine": "no"}, "^mine must be true or false, got 'no'$",
                     id="switch-string"),
        pytest.param({"input": 5}, "^input must be a string, got 5$", id="path-number"),
        pytest.param({"resources": {"fr": {"table_fwd": 5, "table_bwd": 6}}},
                     "^resources of language 'fr': table_fwd must be a file path, got 5$",
                     id="resource-path-number"),
    ])
    def test_wrong_type_rejected(self, tmp_path, capsys, raw, named):
        raw = {"input": "x", "out": "y", **raw}
        with pytest.raises(ConfigError, match=named):
            PipelineConfig.from_dict(raw)
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    # a string failed only in the mine stage, after four stages had run, and
    # a negative value was read as 1
    @pytest.mark.parametrize("value", ["x", -1])
    def test_bad_min_support_fails_before_ingest(self, tmp_path, capsys, value):
        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=2, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        cfg_dict = corpus.config(tmp_path / "fx", tmp_path / "out",
                                 mine=True, min_support=value)
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg_dict))
        assert main(["run", "--config", str(cfg_path)]) == 1
        message = f"min_support must be an integer >= 1, got {value!r}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out" / "corpus").exists()
        assert not (tmp_path / "out" / "FAILED").exists()

    # a half resource passed until run_pipeline's pre-flight, and one of a
    # language outside langs was never checked
    @pytest.mark.parametrize("langs", [["fr"], []])
    def test_half_resource_rejected(self, langs):
        raw = {"input": "x", "out": "y", "langs": langs, "resources": {"fr": {"table_fwd": "x"}}}
        with pytest.raises(ConfigError, match="^language 'fr': both table directions required$"):
            PipelineConfig.from_dict(raw)

    # a config made other than by from_dict was not checked at all
    @pytest.mark.parametrize("changes, message", [
        ({"threshold": float("nan")}, "^threshold must be a finite number, got nan$"),
        ({"langs": ["fr", "fr"]}, "^langs must not list a language twice"),
        ({"top_n": 0}, r"^top_n must be an integer >= 1, got 0$"),
        ({"resources": {"fr": LanguageResource(table_fwd=3, table_bwd="b.tsv")}},
         "^resources of language 'fr': table_fwd must be a file path, got 3$"),
    ])
    def test_replace_checks_the_same_rules(self, changes, message):
        cfg = PipelineConfig.from_dict({"input": "x", "out": "y", "langs": ["fr"]})
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(cfg, **changes)

    def test_out_override(self, tmp_path):
        cfg = PipelineConfig.from_dict({"input": "x", "out": "y"},
                                       out_override="z")
        assert cfg.out == "z"

    def test_parameters_exclude_out(self):
        cfg = PipelineConfig.from_dict({"input": "x", "out": "y"})
        assert "out" not in cfg.parameters()
