import copy
import dataclasses
import hashlib
import json
import re
import shutil
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from docalign import (align_cda, align_url, corpus as corpus_io, evaluation, lexicon, miner,
                      pipeline, vectorspace)
from docalign.cli import main
from docalign.corpus import CorpusPartition, read_partitions
from docalign.errors import ConfigError, FormatError, ParseError
from docalign.pipeline import LanguageResource, PipelineConfig, run_pipeline
from tests.conftest import (MultilingualCorpus, SyntheticCorpus, token_decodes,
                            write_jsonl_partitions)


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

    def test_threshold_rerun_decodes_no_token(self, tmp_path):
        """A cold run decodes each record's tokens once. A threshold rerun
        reads ``corpus/`` once, for its URLs, decodes no token, and leaves
        what a cold run at the new threshold leaves."""
        corpus = SyntheticCorpus(n_domains=2, docs_per_domain=5, vocab_size=60,
                                 doc_len=(20, 30), seed=7)
        options = dict(corpus=corpus, vocab_size=50, url_align=True, mine=True)
        with token_decodes() as decoded:
            out, _ = run_tiny(tmp_path, threshold=0.1, **options)
        assert len({id(view) for view in decoded}) == len(decoded) == len(corpus.records)
        cold, _ = run_tiny(tmp_path, out_name="cold", threshold=0.95, **options)
        assert (cold / "pairs.tsv").read_bytes() != (out / "pairs.tsv").read_bytes()
        with token_decodes() as decoded, \
                mock.patch.object(corpus_io, "read_partitions",
                                  wraps=corpus_io.read_partitions) as read:
            run_tiny(tmp_path, threshold=0.95, **options)
        assert read.call_count == 1
        assert decoded == []
        assert tree(out) == tree(cold)

    def test_threshold_rerun_over_vectors_with_url_lists(self, tmp_path, caplog):
        """An ``out/`` whose vectors still hold ``urls.txt``, the URL list
        that once named each row, and whose vectorize stamp lists it: a
        threshold rerun keeps vectorize and the unread lists, and writes
        the pairs a cold run writes."""
        out, corpus = run_tiny(tmp_path, threshold=0.1)
        stamp_path = out / ".stamps" / "vectorize.json"
        stamp = json.loads(stamp_path.read_bytes())
        parts = read_partitions(out / "corpus")
        lists = {}
        for lang in ("en", "fr"):
            urls = out / "vectors" / lang / "urls.txt"
            urls.write_text("".join(d.url + "\n" for domain in sorted(parts)
                                    for d in parts[domain].docs(lang)), encoding="utf-8")
            lists[f"{lang}/urls.txt"] = urls.read_bytes()
            stamp["outputs"][f"vectors/{lang}/urls.txt"] = pipeline.file_digest(urls)
        stamp_path.write_text(json.dumps(stamp, sort_keys=True), encoding="utf-8")
        with caplog.at_level("INFO", logger="docalign.pipeline"):
            run_tiny(tmp_path, corpus=corpus, threshold=0.95)
        assert "vectorize: up to date, skipping" in caplog.messages
        assert "align: up to date, skipping" not in caplog.messages
        cold, _ = run_tiny(tmp_path, out_name="cold", corpus=corpus, threshold=0.95)
        assert tree(out / "vectors") == {**tree(cold / "vectors"), **lists}
        assert (out / "pairs.tsv").read_bytes() != b""
        for name in ("pairs.tsv", "report.json"):
            assert (out / name).read_bytes() == (cold / name).read_bytes()

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
        # align rewrites pairs.tsv empty, then its URL baseline fails
        with mock.patch.object(align_url, "align_corpus_by_url",
                               side_effect=FormatError("injected")), \
                pytest.raises(FormatError, match="^injected$"):
            run_tiny(tmp_path, corpus=corpus, vocab_size=50, threshold=1.5,
                     url_align=True)
        assert (out / "FAILED").read_text() == "align\n"
        assert not (out / "manifest.json").exists()
        run_tiny(tmp_path, corpus=corpus, vocab_size=50, threshold=0.1)
        assert len((out / "pairs.tsv").read_text().splitlines()) == 10
        report = json.loads((out / "report.json").read_text())
        assert report["cda"]["found"] == report["cda"]["total"] == 10
        fresh, _ = run_tiny(tmp_path, out_name="fresh", corpus=corpus, vocab_size=50,
                            threshold=0.1)
        assert tree(out) == tree(fresh)

    # ingest wrote corpus.tmp/ beside corpus/, and a failed write left it there
    @pytest.mark.parametrize("stage, module, name", [
        ("ingest", corpus_io, "write_partitions"),
        ("lexicon", lexicon, "save_alignment"),
        ("vectorize", vectorspace, "save_vectors"),
        ("align", align_cda, "save_pairs"),
        ("mine", miner, "save_candidates"),
        ("evaluate", evaluation, "evaluate_recall"),
    ])
    def test_failed_stage_leaves_only_what_run_owns(self, tmp_path, stage, module, name):
        real = getattr(module, name)

        def writes_then_fails(*args, **kwargs):
            if stage != "evaluate":  # evaluate_recall writes nothing
                real(*args, **kwargs)
            raise RuntimeError("injected")

        with mock.patch.object(module, name, writes_then_fails), \
                pytest.raises(RuntimeError, match="injected"):
            run_tiny(tmp_path, mine=True)
        out = tmp_path / "out"
        assert not (out / "manifest.json").exists()
        assert (out / "FAILED").read_text() == stage + "\n"
        owned = {"FAILED", ".stamps", "corpus", "vocab", "lexicon", "vectors", "idf",
                 "pairs.tsv", "pairs_url.tsv", "candidates.tsv", "report.json"}
        assert {p.relative_to(out).parts[0] for p in out.rglob("*")} <= owned
        run_tiny(tmp_path, mine=True)
        fresh, _ = run_tiny(tmp_path, out_name="fresh", mine=True)
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

    # vectorize counted as fresh with data.npy gone or cut short, so this
    # rerun, and every later one that had to redo align, failed on the file
    @pytest.mark.parametrize("damage", [
        lambda path: path.unlink(),
        lambda path: path.write_bytes(path.read_bytes()[:40]),
    ], ids=["lost", "cut-short"])
    def test_lost_output_reruns_its_stage(self, tmp_path, caplog, damage):
        out, corpus = run_tiny(tmp_path, threshold=0.1)
        damage(out / "vectors" / "fr" / "data.npy")
        with caplog.at_level("INFO", logger="docalign.pipeline"):
            run_tiny(tmp_path, corpus=corpus, threshold=0.15)
        assert "vectorize: up to date, skipping" not in caplog.messages
        fresh, _ = run_tiny(tmp_path, out_name="fresh", corpus=corpus, threshold=0.15)
        assert tree(out) == tree(fresh)

    # the edited lexicon was kept, and the manifest vouched for it beside
    # vectors built from the original
    def test_edited_lexicon_is_rebuilt(self, tmp_path):
        out, corpus = run_tiny(tmp_path)
        before = tree(out)
        lex = out / "lexicon" / "fr.tsv"
        lines = lex.read_bytes().splitlines(keepends=True)
        lex.write_bytes(b"".join(lines[:len(lines) // 2]))
        run_tiny(tmp_path, corpus=corpus)
        assert tree(out) == before

    # the walk of out/ listed every file in it, whoever wrote it
    def test_manifest_lists_only_stage_outputs(self, tmp_path):
        out, corpus = run_tiny(tmp_path)
        (out / "notes.txt").write_text("mine\n", encoding="utf-8")
        run_tiny(tmp_path, corpus=corpus)
        manifest = json.loads((out / "manifest.json").read_bytes())
        assert "pairs.tsv" in manifest["outputs"]
        assert "notes.txt" not in manifest["outputs"]

    # ingest deleted corpus.tmp/, its staging directory, whoever wrote it
    @pytest.mark.parametrize("name", ["notes.txt", "corpus.tmp/note.txt"])
    def test_run_keeps_a_file_it_does_not_own(self, tmp_path, name):
        note = tmp_path / "out" / name
        note.parent.mkdir(parents=True)
        note.write_text("mine\n", encoding="utf-8")
        out, corpus = run_tiny(tmp_path)
        run_tiny(tmp_path, corpus=corpus)
        assert note.read_text(encoding="utf-8") == "mine\n"
        manifest = json.loads((out / "manifest.json").read_bytes())
        assert name not in manifest["outputs"]

    def test_stamps_list_the_files_their_stages_wrote(self, tmp_path):
        out, _ = run_tiny(tmp_path, url_align=True, mine=True)
        owns = {"ingest": ["corpus"], "lexicon": ["vocab", "lexicon"],
                "vectorize": ["vectors", "idf"], "align": ["pairs.tsv", "pairs_url.tsv"],
                "mine": ["candidates.tsv"], "evaluate": ["report.json"]}
        assert sorted(p.stem for p in (out / ".stamps").iterdir()) == sorted(owns)
        listed = {}
        for stage, paths in owns.items():
            outputs = json.loads((out / ".stamps" / f"{stage}.json").read_bytes())["outputs"]
            assert outputs == {name: hashlib.sha256(data).hexdigest()
                               for name, data in tree(out).items()
                               if name.split("/")[0] in paths}
            listed.update(outputs)
        manifest = json.loads((out / "manifest.json").read_bytes())
        assert listed == manifest["outputs"]

    # stamps of the {"digest": ...} form, which lists no outputs, and of the
    # list form, which names the files but not their contents
    @pytest.mark.parametrize("stage, listed", [
        pytest.param(stage, listed, id=stage + "-listed" * listed)
        for listed in (False, True)
        for stage in ("ingest", "lexicon", "vectorize", "align", "mine", "evaluate")])
    def test_stamp_without_outputs_is_stale(self, tmp_path, caplog, stage, listed):
        out, corpus = run_tiny(tmp_path, url_align=True, mine=True)
        before = tree(out)
        stamp = out / ".stamps" / f"{stage}.json"
        written = json.loads(stamp.read_bytes())
        old = {"digest": written["digest"]}
        if listed:
            old["outputs"] = sorted(written["outputs"])
        stamp.write_text(json.dumps(old))
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

    # the rule lived in run_pipeline, so a config made for a stage command
    # could leave a language without its resource
    def test_unconfigured_language_fails(self, tmp_path):
        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=2, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        cfg_dict = corpus.config(tmp_path / "fx", tmp_path / "out")
        cfg_dict["langs"] = ["fr", "de"]
        message = "^no translation resource configured for language 'de'$"
        with pytest.raises(ConfigError, match=message):
            PipelineConfig.from_dict(cfg_dict)
        with pytest.raises(ConfigError, match=message):
            PipelineConfig(input="x", out="y", langs=["de"])
        assert not (tmp_path / "out").exists()

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

    def test_unknown_stage_touches_nothing(self, tmp_path):
        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=2, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        cfg = PipelineConfig.from_dict(corpus.config(tmp_path / "fx", tmp_path / "out"))
        with pytest.raises(ValueError, match="^no stage 'pairs'"):
            run_pipeline(cfg, through="pairs")
        assert not (tmp_path / "out").exists()

    def test_failed_marker_on_stage_error(self, tmp_path):
        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=2, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        cfg_dict = corpus.config(tmp_path / "fx", tmp_path / "out")
        # a bad gold file now fails before the first stage, a bad table in one
        bad_table = tmp_path / "bad_table.tsv"
        bad_table.write_text("only-one-field\n")
        cfg_dict["resources"]["fr"]["table_bwd"] = str(bad_table)
        with pytest.raises(FormatError, match=f"^{re.escape(str(bad_table))}:1: "):
            run_pipeline(PipelineConfig.from_dict(cfg_dict))
        marker = tmp_path / "out" / "FAILED"
        assert marker.read_text().strip() == "lexicon"
        # partial outputs are retained
        assert (tmp_path / "out" / "corpus" / "docs.tsv").is_file()

    def test_bad_gold_file_fails_before_out_is_touched(self, tmp_path):
        out, corpus = run_tiny(tmp_path)
        before = tree(out)
        gold = tmp_path / "bad_gold.tsv"
        gold.write_text("http://a.com/en/1\thttp://a.com/fr/1\nonly-one-field\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(gold))}:2: expected 2 "):
            run_tiny(tmp_path, corpus=corpus, gold=str(gold))
        assert tree(out) == before

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

    # ingest's language detection, a configured language with no page and
    # the lexicon's reverse-condition log line ran only in subprocess tests
    def test_untagged_pages_and_a_language_with_no_page(self, tmp_path, caplog):
        pages = {"en/fox": "the quick brown fox jumps over the lazy dog near the river bank",
                 "fr/chat": "le chat est sur la table et le chien dort dans le jardin",
                 "en/park": "children play in the park while their parents watch "
                            "from the bench",
                 "fr/parc": "les enfants jouent dans le parc pendant que leurs parents "
                            "regardent"}
        (tmp_path / "crawl.jsonl").write_text("".join(
            json.dumps({"url": f"http://a.example/{page}.html", "text": text}) + "\n"
            for page, text in pages.items()), encoding="utf-8")
        words = [("fox", "chat"), ("dog", "chien"), ("river", "jardin"), ("bank", "table"),
                 ("children", "enfants"), ("play", "jouent"), ("park", "parc"),
                 ("parents", "parents"), ("watch", "regardent")]
        # S(fox, chien) = 0.4 + 0.7 beats S(dog, chien) = 0.5 + 0.3, but fox
        # goes to chat and chien to dog
        fwd = [(en, fr, 1.0) for en, fr in words if en not in ("fox", "dog")]
        fwd += [("fox", "chat", 0.6), ("fox", "chien", 0.4), ("dog", "chien", 0.5)]
        bwd = [(fr, en, 1.0) for en, fr in words if en != "dog"]
        bwd += [("chien", "dog", 0.3), ("chien", "fox", 0.7)]
        tables = {"fr_fwd": fwd, "fr_bwd": bwd, "de_fwd": [("dog", "hund", 1.0)],
                  "de_bwd": [("hund", "dog", 1.0)]}
        for name, rows in tables.items():
            (tmp_path / f"{name}.tsv").write_text(
                "".join(f"{a}\t{b}\t{p}\n" for a, b, p in rows), encoding="utf-8")
        cfg = PipelineConfig.from_dict({
            "input": str(tmp_path / "crawl.jsonl"), "out": str(tmp_path / "out"),
            "langs": ["de", "fr"], "skip_top_k": 0,
            "resources": {lang: {"table_fwd": str(tmp_path / f"{lang}_fwd.tsv"),
                                 "table_bwd": str(tmp_path / f"{lang}_bwd.tsv")}
                          for lang in ("de", "fr")}})
        with caplog.at_level("INFO", logger="docalign.pipeline"):
            out = run_pipeline(cfg)
        docs = (out / "corpus" / "docs.tsv").read_text(encoding="utf-8").splitlines()
        assert [line.split("\t")[:3:2] for line in docs] == [
            ["en", "http://a.example/en/fox.html"], ["en", "http://a.example/en/park.html"],
            ["fr", "http://a.example/fr/chat.html"], ["fr", "http://a.example/fr/parc.html"]]
        assert np.load(out / "vectors" / "de" / "indptr.npy").tolist() == [0]
        assert (out / "idf" / "de.tsv").read_bytes() == b"#collection_size\t0\t0\n"
        assert (out / "lexicon" / "de.tsv").read_bytes() == b""
        assert "lexicon fr: 1 pairs violate the reverse argmax condition" in caplog.messages
        assert (out / "pairs.tsv").read_text(encoding="utf-8") == (
            "a.example\thttp://a.example/en/park.html\thttp://a.example/fr/parc.html"
            "\tfr\t0.640908\tcda\n"
            "a.example\thttp://a.example/en/fox.html\thttp://a.example/fr/chat.html"
            "\tfr\t0.518335\tcda\n")


def _artifacts(out):
    """``tree(out)`` without the stamps and the manifest, which digest the input."""
    return {path: data for path, data in tree(out).items()
            if not path.startswith(".stamps/") and path != "manifest.json"}


def _duplicate(record, kind):
    """A record with ``record``'s URL that dedup must drop in any input order:
    a copy, a shorter text, or a text of the same length whose first token
    sorts after the original's, so the tie-break keeps the original."""
    tokens = record["text"].split()
    if kind == "shorter":
        tokens = tokens[:-1]
    elif kind == "tie":
        tokens[0] = "z" * len(tokens[0])
    return {**record, "text": " ".join(tokens)}


@pytest.fixture(scope="module")
def invariance_base(tmp_path_factory):
    corpus = SyntheticCorpus(n_domains=3, docs_per_domain=5, vocab_size=60,
                             doc_len=(20, 30), seed=3)
    root = tmp_path_factory.mktemp("invariance")
    cfg = corpus.config(root / "fx", root / "out", vocab_size=50, url_align=True, mine=True)
    return corpus, _artifacts(run_pipeline(PipelineConfig.from_dict(cfg)))


class TestIngest:
    # only ASCII whitespace makes a line blank; any other line is a record
    @pytest.mark.parametrize("line, error", [
        (b" ", None),
        (b"\t\x0b\x0c \r", None),
        ("\u00a0".encode(), "malformed JSON"),
        ("\u2028".encode(), "malformed JSON"),
    ])
    def test_line_of_whitespace(self, tmp_path, line, error):
        path = tmp_path / "in.jsonl"
        path.write_bytes(b'{"url": "http://a.com/1", "lang": "en", "text": "a"}\n'
                         + line + b'\n{"url": "http://a.com/2", "lang": "fr", "text": "b"}\n')
        cfg = PipelineConfig(input=str(path), out=str(tmp_path / "out"))
        if error:
            with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:2: {error}"):
                pipeline.ingest(cfg)
            return
        pipeline.ingest(cfg)
        part = read_partitions(tmp_path / "out" / "corpus")["a.com"]
        assert [d.url for lang in ("en", "fr") for d in part.docs(lang)] == [
            "http://a.com/1", "http://a.com/2"]


class TestInvariance:
    # guards a rewrite of ingest's dedup tie-break or token handling: the
    # artifacts depend on the set of distinct records, not on their order
    @settings(max_examples=10, deadline=None)
    @given(rnd=st.randoms(use_true_random=False))
    def test_shuffled_input_with_duplicates_changes_no_artifact(self, invariance_base,
                                                                tmp_path_factory, rnd):
        corpus, expected = invariance_base
        records = corpus.records + [_duplicate(rnd.choice(corpus.records), kind)
                                    for kind in ["copy", "shorter", "tie"] * 13 + ["tie"]]
        rnd.shuffle(records)
        shuffled = copy.copy(corpus)
        shuffled.records = records
        root = tmp_path_factory.mktemp("shuffled")
        cfg = shuffled.config(root / "fx", root / "out", vocab_size=50, url_align=True,
                              mine=True)
        assert len(records) == len(corpus.records) + 40
        assert _artifacts(run_pipeline(PipelineConfig.from_dict(cfg))) == expected

    # guards a per-language rewrite of the lexicon, vectorize and align
    # stages: a language's files depend on its own pages and resource and on
    # the pivot's pages only
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_adding_a_language_changes_no_other_languages_files(self, tmp_path_factory,
                                                                data):
        langs = data.draw(st.permutations(["de", "es", "fr", "it"]))
        base = langs[:data.draw(st.integers(1, 3))]
        added = langs[len(base)]
        corpus = MultilingualCorpus(
            [*base, added], seed=data.draw(st.integers(0, 9)),
            embedding_langs=[data.draw(st.sampled_from([*base, added]))])
        root = tmp_path_factory.mktemp("langs")

        def run(name, run_langs):
            cfg = corpus.config(root / name / "fx", root / name / "out", langs=run_langs)
            out = tree(run_pipeline(PipelineConfig.from_dict(cfg)))
            pairs = [line for line in out["pairs.tsv"].decode().splitlines()
                     if line.split("\t")[3] in base]
            return out, pairs

        before, base_pairs = run("base", base)
        after, pairs = run("added", [*base, added])
        files = {path: data for path, data in before.items()
                 if path.split("/")[0] in ("vocab", "lexicon", "idf", "vectors")}
        assert {f"vocab/{lang}.txt" for lang in ["en", *base]} <= set(files)
        assert {path: after.get(path) for path in files} == files
        assert base_pairs and pairs == base_pairs

    # guards a rewrite that reads a domain's rows by name or by position: a
    # domain's name reaches the artifacts only as itself, in its URLs and
    # fields, so long as it keeps its place in sorted order
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 9), renamed=st.integers(0, 2),
           suffix=st.text("abz09-", min_size=1, max_size=6))
    def test_renaming_a_domain_changes_only_its_name(self, tmp_path_factory, seed,
                                                     renamed, suffix):
        corpus = MultilingualCorpus(["de", "fr"], embedding_langs=["de"], n_domains=3,
                                    docs_per_domain=3, seed=seed)
        old = f"site{renamed:02d}.example"
        # sorts between the domains before and after it, as the old name did
        new = f"site{renamed:02d}{suffix}.example"
        root = tmp_path_factory.mktemp("rename")

        def run(name):
            cfg = corpus.config(root / name / "fx", root / name / "out", url_align=True,
                                mine=True)
            return _artifacts(run_pipeline(PipelineConfig.from_dict(cfg)))

        before = run("before")
        corpus.pages = [(new if domain == old else domain, page, tokens)
                        for domain, page, tokens in corpus.pages]
        after = run("after")
        assert old.encode() in before["pairs.tsv"]
        assert {path: data.replace(old.encode(), new.encode())
                for path, data in before.items()} == after


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
        # an empty list and false were taken for no resources
        pytest.param({"resources": []}, "^resources", id="resources-empty-list"),
        pytest.param({"resources": False}, "^resources", id="resources-false"),
        pytest.param(["input", "out"], "^config must be a mapping",
                     id="document-not-mapping"),
    ])
    def test_unknown_key_rejected(self, raw, named):
        if isinstance(raw, dict):
            raw = {"input": "x", "out": "y", **raw}
        with pytest.raises(ConfigError, match=named):
            PipelineConfig.from_dict(raw)

    # an empty list, false or 0 as the document failed as missing arguments
    @pytest.mark.parametrize("document, kind", [("[]", "list"), ("false", "bool"),
                                                ("0", "int")])
    def test_config_document_not_mapping(self, tmp_path, document, kind):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(document + "\n")
        with pytest.raises(ConfigError, match="^config must be a mapping of keys to "
                                              f"values, got {kind}$"):
            PipelineConfig.from_file(cfg_file)

    # a missing key leaked the TypeError of the constructor
    def test_missing_input_named(self):
        with pytest.raises(ConfigError, match="^config requires 'input' and 'out'$"):
            PipelineConfig.from_dict({"out": "y"})

    def test_langs_are_kept_sorted(self):
        res = LanguageResource(table_fwd="f.tsv", table_bwd="b.tsv")
        cfg = PipelineConfig(input="x", out="y", langs=["fr", "de"],
                             resources={"de": res, "fr": res})
        assert cfg.langs == ["de", "fr"]
        assert dataclasses.replace(cfg, langs=["fr", "de"]).langs == ["de", "fr"]
        raw = {"input": "x", "out": "y", "langs": ["fr", "de"],
               "resources": {"de": vars(res), "fr": vars(res)}}
        assert PipelineConfig.from_dict(raw).langs == ["de", "fr"]

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

    @pytest.mark.parametrize("spec, message", [
        pytest.param({"table_fwd": "f.tsv", "table_bwd": "b.tsv", "embeddings_pivot": "e.vec"},
                     "give tables or embeddings, not both", id="tables-and-embeddings"),
        pytest.param({"embeddings_other": "e.vec"}, "both embedding files required",
                     id="one-embedding-file"),
        pytest.param({}, "no translation resource configured", id="empty"),
    ])
    def test_resource_spec_rules(self, spec, message):
        raw = {"input": "x", "out": "y", "langs": ["fr"], "resources": {"fr": spec}}
        with pytest.raises(ConfigError, match=f"^language 'fr': {message}$"):
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
        cfg = PipelineConfig.from_dict({"input": "x", "out": "y", "langs": ["fr"],
                                        "resources": {"fr": {"table_fwd": "f.tsv",
                                                             "table_bwd": "b.tsv"}}})
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(cfg, **changes)

    def test_out_override(self, tmp_path):
        cfg = PipelineConfig.from_dict({"input": "x", "out": "y"},
                                       out_override="z")
        assert cfg.out == "z"

    def test_parameters_exclude_out(self):
        cfg = PipelineConfig.from_dict({"input": "x", "out": "y"})
        assert "out" not in cfg.parameters()
