import json
import re

import pytest

from docalign.errors import ConfigError
from docalign.pipeline import PipelineConfig, run_pipeline
from tests.conftest import SyntheticCorpus


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
        assert sorted(p.name for p in (out / "corpus").iterdir()) == domains
        assert not (out / "corpus" / "site01.example" / "fr.jsonl").exists()
        assert not (out / "corpus.tmp").exists()
        assert (out / "pairs.tsv").read_text()
        assert site01_pairs() == []

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

    def test_missing_resource_fails_preflight(self, tmp_path):
        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=2, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        cfg_dict = corpus.config(tmp_path / "fx", tmp_path / "out")
        cfg_dict["resources"]["fr"]["table_fwd"] = str(tmp_path / "missing.tsv")
        with pytest.raises(ConfigError, match="fr"):
            run_pipeline(PipelineConfig.from_dict(cfg_dict))
        assert not (tmp_path / "out" / "pairs.tsv").exists()
        assert not (tmp_path / "out" / "corpus").exists()

    def test_unconfigured_language_fails(self, tmp_path):
        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=2, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        cfg_dict = corpus.config(tmp_path / "fx", tmp_path / "out")
        cfg_dict["langs"] = ["fr", "de"]
        with pytest.raises(ConfigError, match="de"):
            run_pipeline(PipelineConfig.from_dict(cfg_dict))

    def test_unknown_matching_fails_preflight(self, tmp_path):
        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=2, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        cfg_dict = corpus.config(tmp_path / "fx", tmp_path / "out")
        cfg_dict["matching"] = "hungarian"
        with pytest.raises(ConfigError, match="'hungarian'; choose one of greedy, "
                                              "top1-then-greedy"):
            run_pipeline(PipelineConfig.from_dict(cfg_dict))
        assert not (tmp_path / "out" / "corpus").exists()
        assert not (tmp_path / "out" / "FAILED").exists()

    # each used to fail only after corpus/ was written, or not at all
    @pytest.mark.parametrize("name, value, low", [
        ("top_n", 0, 1), ("top_n", -1, 1), ("vocab_size", 0, 1), ("skip_top_k", -1, 0),
        ("top_n", "5", 1), ("vocab_size", 10.5, 1), ("skip_top_k", True, 0),
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

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"input": "x", "out": "y", "bogus": 1})

    def test_out_override(self, tmp_path):
        cfg = PipelineConfig.from_dict({"input": "x", "out": "y"},
                                       out_override="z")
        assert cfg.out == "z"

    def test_parameters_exclude_out(self):
        cfg = PipelineConfig.from_dict({"input": "x", "out": "y"})
        assert "out" not in cfg.parameters()
