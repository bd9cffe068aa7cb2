import argparse
import importlib
import json
import logging
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import docalign
from docalign import pipeline
from docalign.cli import build_parser, main
from docalign.corpus import read_partitions
from docalign.errors import FormatError
from docalign.pipeline import PipelineConfig
from tests.conftest import SyntheticCorpus


def write_config(path, cfg):
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def fixture_config(tmp_path, **overrides):
    """A 2-domain config writing to ``tmp_path / "out"``, as a dict and as
    the file ``config.yaml``."""
    corpus = SyntheticCorpus(n_domains=2, docs_per_domain=4, vocab_size=40,
                             doc_len=(15, 25), seed=11)
    cfg = corpus.config(tmp_path / "fx", tmp_path / "out", vocab_size=40, **overrides)
    return cfg, write_config(tmp_path / "config.yaml", cfg)


def tree(root):
    """Every file under ``root`` as {path: bytes}."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


STAGE_COMMANDS = ("ingest", "build-lexicon", "vectorize", "align-cda")


class TestStageCommands:
    def test_full_stage_chain(self, tmp_path, capsys):
        _cfg, config = fixture_config(tmp_path)
        out = tmp_path / "out"

        assert main(["ingest", "--config", config]) == 0
        assert read_partitions(out / "corpus")["site00.example"].docs("en")
        assert not (out / "vocab").exists()

        assert main(["build-lexicon", "--config", config]) == 0
        assert (out / "vocab" / "en.txt").read_text()
        assert (out / "lexicon" / "fr.tsv").read_text()

        assert main(["vectorize", "--config", config]) == 0
        for lang in ("en", "fr"):
            assert {f.name for f in (out / "vectors" / lang).iterdir()} == {
                "indptr.npy", "indices.npy", "data.npy"}
        assert (out / "idf" / "fr.tsv").is_file()

        pairs_path = out / "pairs.tsv"
        assert main(["align-cda", "--config", config]) == 0
        assert pairs_path.read_text().splitlines()
        assert sorted(p.name for p in (out / ".stamps").iterdir()) == [
            "align.json", "ingest.json", "lexicon.json", "vectorize.json"]
        assert not (out / "manifest.json").exists()
        assert not (out / "report.json").exists()

        cand_path = tmp_path / "candidates.tsv"
        assert main(["mine-ids", "--pairs", str(pairs_path),
                     "--min-support", "1", "--out", str(cand_path)]) == 0
        assert any(line.startswith("en\tfr\t")
                   for line in cand_path.read_text().splitlines())

        gold = tmp_path / "fx" / "gold.tsv"
        assert main(["evaluate", "--pred", str(pairs_path), "--gold", str(gold)]) == 0
        assert "recall@1" in capsys.readouterr().out

    def test_align_cda_writes_url_pairs(self, tmp_path):
        _cfg, config = fixture_config(tmp_path, url_align=True)
        assert main(["align-cda", "--config", config]) == 0
        lines = (tmp_path / "out" / "pairs_url.tsv").read_text().splitlines()
        assert lines
        assert all(line.split("\t")[5] == "url" for line in lines)

    # align-cda --threshold cut pairs.tsv but left the manifest of the run
    # before, with the old threshold and a digest pairs.tsv no longer had
    def test_stage_command_after_run_leaves_no_manifest(self, tmp_path):
        cfg, config = fixture_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", config]) == 0
        complete = tree(out)
        pairs = len((out / "pairs.tsv").read_text().splitlines())
        strict = write_config(tmp_path / "strict.yaml", {**cfg, "threshold": 0.995})
        assert main(["align-cda", "--config", strict]) == 0
        assert len((out / "pairs.tsv").read_text().splitlines()) < pairs
        assert not (out / "manifest.json").exists()
        assert not (out / "FAILED").exists()
        assert main(["run", "--config", config]) == 0
        assert tree(out) == complete

    # --json wrote "b\\u00fccher.example", report.json of run "bücher.example"
    def test_evaluate_json_is_raw_utf8(self, tmp_path):
        host = "b\u00fccher.example"
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(f"{host}\thttp://{host}/en/1\thttp://{host}/fr/1\tfr\t0.9\tcda\n",
                         encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        gold.write_text(f"http://{host}/en/1\thttp://{host}/fr/1\n", encoding="utf-8")
        report = tmp_path / "report.json"
        assert main(["evaluate", "--pred", str(pairs), "--gold", str(gold),
                     "--json", str(report)]) == 0
        text = report.read_bytes().decode("utf-8")
        assert f'"{host}"' in text
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2,
                                  ensure_ascii=False) + "\n"

    def test_build_lexicon_without_resource_is_usage_error(self, tmp_path, capsys):
        cfg, _config = fixture_config(tmp_path)
        del cfg["resources"]["fr"]["table_bwd"]
        config = write_config(tmp_path / "half.yaml", cfg)
        assert main(["build-lexicon", "--config", config]) == 1
        assert "both table directions" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestOneExecutionPath:
    # each stage command had its own flags, 36 options in all, that repeated
    # config fields and bypassed the stamps and the pre-flight of `run`
    def test_pipeline_commands_take_only_config_and_out(self):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == {*STAGE_COMMANDS, "run", "mine-ids", "evaluate"}
        for command in (*STAGE_COMMANDS, "run"):
            options = {a.dest: a.required for a in sub.choices[command]._actions
                       if not isinstance(a, argparse._HelpAction)}
            assert options == {"config": True, "out": False}, command

    def test_align_cda_runs_the_module_stages_through_align(self, tmp_path, monkeypatch):
        # a stage list bound at import time would bypass these spies, as it
        # would bypass the benchmark tracer's wrappers
        _cfg, config = fixture_config(tmp_path)
        called = []
        for name in ("ingest", "lexicon", "vectorize", "align", "mine", "evaluate"):
            stage = getattr(pipeline, f"_stage_{name}")

            def spy(*args, name=name, stage=stage):
                called.append(name)
                return stage(*args)

            monkeypatch.setattr(pipeline, f"_stage_{name}", spy)
        assert main(["align-cda", "--config", config]) == 0
        assert called == ["ingest", "lexicon", "vectorize", "align"]


class TestChainMatchesRun:
    def test_subcommand_chain_equals_run(self, tmp_path, caplog):
        corpus = SyntheticCorpus(n_domains=3, docs_per_domain=6, vocab_size=60,
                                 doc_len=(15, 25), seed=5)
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text("".join(
            f"{w}\n" for w in corpus.pivot_words[3:13] + corpus.other_words[3:13]
        ))
        cfg = corpus.config(tmp_path / "fx", tmp_path / "run", vocab_size=60,
                            skip_top_k=2, stopwords=str(stopwords), url_align=True)
        config = write_config(tmp_path / "config.yaml", cfg)
        assert main(["run", "--config", config]) == 0

        chain = tmp_path / "chain"
        for command in STAGE_COMMANDS:
            assert main([command, "--config", config, "--out", str(chain)]) == 0
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="docalign.pipeline"):
            assert main(["run", "--config", config, "--out", str(chain)]) == 0
        skipped = [m.split(":")[0] for m in caplog.messages if m.endswith("up to date, skipping")]
        assert skipped == ["ingest", "lexicon", "vectorize", "align"]

        expected = tree(tmp_path / "run")
        assert expected["pairs.tsv"] and expected["pairs_url.tsv"]
        assert {"vocab/en.txt", "lexicon/fr.tsv", "idf/fr.tsv", "vectors/fr/data.npy",
                "manifest.json", ".stamps/align.json"} <= expected.keys()
        assert tree(chain) == expected


def _readme_blocks(lang):
    """The bodies of README's fenced ``lang`` blocks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.S | re.M)


def _readme_commands():
    """Every ``docalign ...`` line of README's fenced ``sh`` blocks, split
    into arguments, with backslash continuations joined."""
    blocks = _readme_blocks("sh")
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("docalign ")]


class TestReadme:
    def test_documented_commands_parse(self, capsys):
        commands = _readme_commands()
        assert len(commands) >= 8
        for argv in commands:
            try:
                build_parser().parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README command rejected: {' '.join(argv)}\n"
                            f"{capsys.readouterr().err}")

    def test_documented_config_loads(self):
        # a key dropped from PipelineConfig but left in README fails here
        (block,) = _readme_blocks("yaml")
        PipelineConfig.from_dict(yaml.safe_load(block))

    def test_documented_names_resolve(self):
        # a name renamed or deleted in the package but left in README fails here
        modules = {m.name for m in pkgutil.iter_modules(docalign.__path__) if not m.ispkg}
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        names = {(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)", text)
                 if module in modules}
        assert len(names) >= 18
        for module, name in sorted(names):
            assert hasattr(importlib.import_module(f"docalign.{module}"), name), \
                f"README names {module}.{name}, which does not exist"


class TestRunCommand:
    def test_run_from_config(self, tmp_path):
        corpus = SyntheticCorpus(n_domains=2, docs_per_domain=4, vocab_size=40,
                                 doc_len=(15, 25), seed=11)
        cfg = corpus.config(tmp_path / "fx", tmp_path / "out", vocab_size=40)
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["cda"]["total"] == len(corpus.gold)

    # report.json was written in the locale's encoding: a UnicodeEncodeError
    # traceback, FAILED naming evaluate and no manifest.json
    def test_run_writes_utf8_under_an_ascii_locale(self, tmp_path):
        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=2, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        for rec in corpus.records:
            rec["url"] = rec["url"].replace("site00.example", "b\u00fccher.example")
        corpus.gold = [(en.replace("site00.example", "b\u00fccher.example"),
                        fr.replace("site00.example", "b\u00fccher.example"))
                       for en, fr in corpus.gold]
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(corpus.config(tmp_path / "fx", tmp_path / "out")))
        src = str(Path(docalign.__file__).parents[1])
        env = {**os.environ, "PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "docalign.cli", "run", "--config",
                               str(cfg_path)], env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        report = json.loads((tmp_path / "out" / "report.json").read_bytes().decode("utf-8"))
        assert list(report["cda"]["per_domain"]) == ["b\u00fccher.example"]


class TestModuleEntryPoint:
    # the exit line of `python -m docalign.cli` ran in no test
    @pytest.mark.parametrize("score, code", [("0.9", 0), ("high", 2)])
    def test_python_m_exits_with_the_code_of_main(self, tmp_path, score, code):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(f"a.com\thttp://a.com/en/1\thttp://a.com/fr/1\tfr\t{score}\tcda\n")
        gold = tmp_path / "gold.tsv"
        gold.write_text("http://a.com/en/1\thttp://a.com/fr/1\n")
        env = {**os.environ, "PYTHONPATH": str(Path(docalign.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "docalign.cli", "evaluate", "--pred",
                               str(pairs), "--gold", str(gold)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert proc.stdout.startswith("recall@1: 100.00%  (1/1 gold pairs)")
        else:
            assert proc.stderr == f"error: {pairs}:1: score 'high' is not a number\n"


class TestExitCodes:
    def test_usage_error_is_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text("input: missing.jsonl\nout: outdir\n")
        (tmp_path / "missing.jsonl").touch()
        code = main(["run", "--config", str(cfg_path.with_name("nope.yaml"))])
        assert code == 2  # unreadable config file is an I/O problem

    # each used to end in a traceback
    @pytest.mark.parametrize("text", [
        pytest.param("input: x\nout: y\nresources:\n  fr: {table: a.tsv}\n",
                     id="resource-key"),
        pytest.param("input: [x\n", id="not-yaml"),
    ])
    def test_bad_config_document_is_1(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(text)
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    # one side's embeddings give no translation probability: used to end in
    # numpy's matmul ValueError
    @pytest.mark.parametrize("side, text", [
        pytest.param("embeddings_pivot", "0 3\n", id="header-only"),
        pytest.param("embeddings_other", "2 3\nun 0 0 0\ndeux 0 0 0\n", id="all-zero"),
    ])
    def test_embeddings_with_no_usable_word_fail_lexicon(self, tmp_path, capsys,
                                                          side, text):
        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=2, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        files = {}
        for key in ("embeddings_pivot", "embeddings_other"):
            files[key] = tmp_path / f"{key}.txt"
            files[key].write_text(text if key == side else "1 3\nw 1 0 0\n")
        cfg = corpus.config(tmp_path / "fx", tmp_path / "out")
        cfg["resources"] = {"fr": {k: str(v) for k, v in files.items()}}
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert (tmp_path / "out" / "FAILED").read_text() == "lexicon\n"
        assert (f"error: {files[side]}: no word has a non-zero vector"
                in capsys.readouterr().err)

    # each used to end in a UnicodeDecodeError traceback and exit 1
    def test_evaluate_gold_not_utf8_is_2(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("a.com\thttp://a.com/en/1\thttp://a.com/fr/1\tfr\t0.9\tcda\n")
        gold = tmp_path / "gold.tsv"
        gold.write_bytes(b"http://a.com/en/1\thttp://a.com/fr/1\n"
                         b"http://a.com/en/\xe9\thttp://a.com/fr/\xe9\n")
        assert main(["evaluate", "--pred", str(pairs), "--gold", str(gold)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {gold}:2: not UTF-8")

    # was "error: gold set is empty; recall is undefined", with exit 1 and,
    # for run, only after five stages; then, until run parsed the gold file
    # before its first stage, FAILED naming evaluate
    @pytest.mark.parametrize("command", ["run", "evaluate"])
    def test_empty_gold_is_2(self, tmp_path, capsys, command):
        gold = tmp_path / "empty.tsv"
        gold.write_text("")
        cfg, config = fixture_config(tmp_path, gold=str(gold))
        out = tmp_path / "out"
        argv = {"run": ["run", "--config", config],
                "evaluate": ["evaluate", "--pred", str(gold), "--gold", str(gold)]}[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {gold}: no gold pairs\n"
        if command == "run":
            assert not out.exists()

    def test_run_with_latin1_table_fails_lexicon(self, tmp_path, capsys):
        corpus = SyntheticCorpus(n_domains=1, docs_per_domain=2, vocab_size=30,
                                 doc_len=(10, 15), seed=1)
        cfg = corpus.config(tmp_path / "fx", tmp_path / "out")
        table = Path(cfg["resources"]["fr"]["table_fwd"])
        first, rest = table.read_bytes().split(b"\n", 1)
        table.write_bytes(first + b"\n" + "e0000\tété\t0.5\n".encode("latin-1") + rest)
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert (tmp_path / "out" / "FAILED").read_text() == "lexicon\n"
        assert capsys.readouterr().err.startswith(f"error: {table}:2: not UTF-8")

    # the last value was kept silently
    @pytest.mark.parametrize("key", ["threshold", "fr"])
    def test_config_key_given_twice_is_1(self, tmp_path, capsys, key):
        cfg, config = fixture_config(tmp_path)
        assert main(["run", "--config", config]) == 0
        before = tree(tmp_path / "out")
        spec = json.dumps(cfg.pop("resources")["fr"])
        lines = yaml.safe_dump(cfg).splitlines() + ["resources:", f"  fr: {spec}"]
        lines.append("threshold: 0.5" if key == "threshold" else f"  fr: {spec}")
        Path(config).write_text("\n".join(lines) + "\n")
        first = lines.index("threshold: 0.1" if key == "threshold" else f"  fr: {spec}") + 1
        assert main(["run", "--config", config]) == 1
        assert capsys.readouterr().err == (f"error: {config}:{len(lines)}: key {key!r} "
                                           f"given twice, first on line {first}\n")
        assert tree(tmp_path / "out") == before

    def test_config_merge_key_may_be_given_again(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("input: in.jsonl\nout: out\nlangs: [de, fr]\nresources:\n"
                        "  fr: &fr {table_fwd: a.tsv, table_bwd: b.tsv}\n"
                        "  de:\n    <<: *fr\n    table_fwd: c.tsv\n")
        cfg = PipelineConfig.from_file(path)
        assert cfg.resources["de"] == pipeline.LanguageResource("c.tsv", "b.tsv")
        assert cfg.resources["fr"] == pipeline.LanguageResource("a.tsv", "b.tsv")

    def test_config_not_utf8_is_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_bytes(b"input: x\nout: caf\xe9\n")
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg_path}: not UTF-8")

    def test_data_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n")
        config = write_config(tmp_path / "config.yaml",
                              {"input": str(bad), "out": str(tmp_path / "o")})
        assert main(["ingest", "--config", config]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("record", [
        pytest.param('{"url": "/fr/page.html", "lang": "fr", "text": "a"}', id="no-host"),
        pytest.param('{"url": "http://./x", "lang": "fr", "text": "a"}', id="host-dot"),
        pytest.param('{"url": "http://../x", "lang": "fr", "text": "a"}', id="host-dotdot"),
        pytest.param('{"url": "http://a.com/x", "lang": "../../x", "text": "a"}',
                     id="lang-path"),
        pytest.param('{"url": "http://a.com/x", "lang": 5, "text": "a"}', id="lang-number"),
        pytest.param('{"url": "http://a.com/x", "lang": false, "text": "a"}',
                     id="lang-false"),
        pytest.param('{"url": "http://a.com/x\\ty", "lang": "fr", "text": "a"}',
                     id="url-tab"),
        pytest.param('{"url": "http://a.com/x\\ny", "lang": "fr", "text": "a"}',
                     id="url-newline"),
        pytest.param('{"url": "http://a.com/x\\ry", "lang": "fr", "text": "a"}',
                     id="url-carriage-return"),
        pytest.param('{"url": 5, "lang": "fr", "text": "a"}', id="url-number"),
        pytest.param('{"url": "http://a.com/\\ud800", "lang": "fr", "text": "a"}',
                     id="url-lone-surrogate"),
        # urlsplit raised ValueError: a traceback and exit 1
        pytest.param('{"url": "http://[::1/x", "lang": "fr", "text": "a"}',
                     id="url-open-bracket"),
        pytest.param('{"url": "http://[zz]/x", "lang": "fr", "text": "a"}',
                     id="url-bracket-not-ip"),
        pytest.param('{"url": "http://x\u2100y.com/p", "lang": "fr", "text": "a"}',
                     id="url-not-nfkc-safe"),
        pytest.param('{"url": "http://a.com/x", "lang": "en", "text": 5}',
                     id="text-number"),
        pytest.param('{"url": "http://a.com/x", "lang": "en", "html": ["a"]}',
                     id="html-list"),
        pytest.param('{"url": "http://a.com/x", "text": "a"', id="parse-error"),
        pytest.param('{"url": "http://a.com/x"}', id="schema-error"),
    ])
    def test_bad_record_names_input_line(self, tmp_path, capsys, record):
        bad = tmp_path / "in.jsonl"
        bad.write_text('{"url": "http://a.com/ok", "lang": "en", "text": "a"}\n\n'
                       + record + "\n")
        config = write_config(tmp_path / "config.yaml",
                              {"input": str(bad), "out": str(tmp_path / "o")})
        assert main(["ingest", "--config", config]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}:3: ")
        assert tree(tmp_path) == {"config.yaml": Path(config).read_bytes(),
                                  "in.jsonl": bad.read_bytes(), "o/FAILED": b"ingest\n"}

    # a stage reading corpus/ stops at a bad docs.tsv line; a stage command
    # finds the ingest stamp stale and ingests again first
    def test_bad_corpus_line_names_file_and_line(self, tmp_path):
        _cfg, config = fixture_config(tmp_path)
        out = tmp_path / "out"
        assert main(["ingest", "--config", config]) == 0
        docs = out / "corpus" / "docs.tsv"
        good = docs.read_bytes()
        docs.write_text(docs.read_text() + "en\tsite00.example\thttp://site00.example/x\t5\n")
        lines = len(docs.read_text().splitlines())
        with pytest.raises(FormatError) as exc:
            read_partitions(out / "corpus")
        assert str(exc.value) == f"{docs}:{lines}: expected 5 tab-separated fields, got 4"
        assert main(["vectorize", "--config", config]) == 0
        assert docs.read_bytes() == good

    def test_missing_ids_file_names_it(self, tmp_path):
        # was the bare FileNotFoundError, as "error: [Errno 2] ..."
        _cfg, config = fixture_config(tmp_path)
        out = tmp_path / "out"
        assert main(["ingest", "--config", config]) == 0
        ids = out / "corpus" / "ids.npy"
        ids.unlink()
        with pytest.raises(FormatError, match=f"^{re.escape(str(ids))}: "):
            read_partitions(out / "corpus")
        assert main(["vectorize", "--config", config]) == 0
        assert ids.is_file()

    def test_vectorize_rejects_lexicon_of_another_pivot_vocabulary(self, tmp_path):
        # a build of another language with a smaller vocabulary rewrites
        # vocab/en.txt under the lexicon/fr.tsv built against the larger one
        cfg, config = fixture_config(tmp_path)
        out = tmp_path / "out"
        assert main(["build-lexicon", "--config", config]) == 0
        fr = PipelineConfig.from_dict(cfg)
        parts = read_partitions(out / "corpus")
        pipeline.build_lexicon(replace(fr, langs=["de"], resources={"de": fr.resources["fr"]},
                                       vocab_size=10), parts)
        vocab = set((out / "vocab" / "en.txt").read_text().split())
        lexicon = out / "lexicon" / "fr.tsv"
        line, word = next(
            (n, fields[1]) for n, fields in enumerate(
                (row.split("\t") for row in lexicon.read_text().splitlines()), start=1)
            if fields[1] not in vocab
        )
        with pytest.raises(FormatError) as exc:
            pipeline.vectorize_corpus(fr, parts)
        assert str(exc.value) == (
            f"{lexicon}:{line}: pivot word {word!r} is not in the pivot vocabulary")
        assert main(["vectorize", "--config", config]) == 0  # the lexicon stamp saw the change

    @pytest.mark.parametrize("bad", [-5, 10**12, None], ids=["negative", "huge", "vocab-size"])
    def test_align_rejects_dimension_outside_pivot_vocabulary(self, tmp_path, bad):
        cfg, config = fixture_config(tmp_path)
        out = tmp_path / "out"
        assert main(["vectorize", "--config", config]) == 0
        dims = len((out / "vocab" / "en.txt").read_text().splitlines())
        indices_path = out / "vectors" / "fr" / "indices.npy"
        indices = np.load(indices_path)
        indices[1] = dims if bad is None else bad
        np.save(indices_path, indices)
        with pytest.raises(FormatError) as exc:
            pipeline.align_by_content(PipelineConfig.from_dict(cfg),
                                      read_partitions(out / "corpus"))
        assert str(exc.value) == (
            f"{indices_path}: dimension outside the {dims}-word pivot vocabulary")
        assert not (out / "pairs.tsv").exists()
        assert main(["align-cda", "--config", config]) == 0  # vectorize runs again first

    @pytest.mark.parametrize("value", ["1.5", "-0.5", "nan"])
    def test_ingest_rejects_lang_confidence_outside_0_1(self, tmp_path, capsys, value):
        _cfg, config = fixture_config(tmp_path, lang_confidence=float(value))
        assert main(["ingest", "--config", config]) == 1
        assert capsys.readouterr().err == (
            f"error: lang_confidence must be a number in [0, 1], got {float(value)!r}\n")
        assert not (tmp_path / "out").exists()

    # vocab/../../x.txt and lexicon/../../x.tsv landed outside --out, and a
    # language listed twice, or the pivot listed again, was processed twice
    @pytest.mark.parametrize("command, changes, message", [
        pytest.param("build-lexicon", {"langs": ["../../x"]}, "language tag '../../x'",
                     id="build-lexicon-lang"),
        pytest.param("build-lexicon", {"pivot": "../../x"}, "language tag '../../x'",
                     id="build-lexicon-pivot"),
        pytest.param("vectorize", {"langs": ["fr", "fr"]}, "list a language twice",
                     id="vectorize-twice"),
        pytest.param("vectorize", {"langs": ["../../x"]}, "language tag '../../x'",
                     id="vectorize-lang"),
        pytest.param("align-cda", {"langs": ["fr", "en"]}, "list the pivot 'en'",
                     id="align-cda-pivot"),
    ])
    def test_bad_language_list_is_1_and_writes_nothing(self, tmp_path, capsys, command,
                                                       changes, message):
        cfg, config = fixture_config(tmp_path)
        assert main(["vectorize", "--config", config]) == 0
        bad = write_config(tmp_path / "bad.yaml", {**cfg, **changes})
        before = tree(tmp_path)
        capsys.readouterr()
        assert main([command, "--config", bad]) == 1
        assert message in capsys.readouterr().err
        assert tree(tmp_path) == before

    # each ended in the bare "error: [Errno 2] ..." with exit 2: only `run`
    # checked that the files it names exist
    @pytest.mark.parametrize("command, key", [
        pytest.param("ingest", "input", id="ingest-input"),
        pytest.param("build-lexicon", "stopwords", id="build-lexicon-stopwords"),
        pytest.param("align-cda", "identifiers", id="align-url-ids"),
        pytest.param("evaluate", "gold", id="evaluate-gold"),
    ])
    def test_missing_file_is_1_and_writes_nothing(self, tmp_path, capsys, command, key):
        cfg, config = fixture_config(tmp_path, url_align=True)
        out = tmp_path / "out"
        assert main(["run", "--config", config]) == 0
        missing = tmp_path / "missing.txt"
        bad = write_config(tmp_path / "bad.yaml", {**cfg, key: str(missing)})
        before = tree(tmp_path)
        capsys.readouterr()
        argv = {"evaluate": ["evaluate", "--pred", str(out / "pairs.tsv"),
                             "--gold", str(missing)]}.get(command, [command, "--config", bad])
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {key} file not found: {missing}\n"
        assert tree(tmp_path) == before

    # argparse's choices made it exit 2, unlike every other bad option value
    def test_ingest_rejects_unknown_format(self, tmp_path, capsys):
        _cfg, config = fixture_config(tmp_path, format="xml")
        before = tree(tmp_path)
        assert main(["ingest", "--config", config]) == 1
        assert capsys.readouterr().err == "error: format must be 'jsonl' or 'tsv', got 'xml'\n"
        assert tree(tmp_path) == before

    # each was the bare "error: [Errno 2] No such file or directory: '<path>'"
    @pytest.mark.parametrize("argv, path", [
        pytest.param(["evaluate", "--pred", "nope.tsv", "--gold", "gold.tsv"], "nope.tsv",
                     id="evaluate-pred"),
        pytest.param(["mine-ids", "--pairs", "nope.tsv", "--out", "c.tsv"], "nope.tsv",
                     id="mine-ids-pairs"),
        pytest.param(["vectorize", "--config", "nope.yaml"], "nope.yaml",
                     id="vectorize-config"),
        pytest.param(["evaluate", "--pred", "pairs.tsv", "--gold", "gold.tsv",
                      "--json", "nodir/r.json"], "nodir/r.json", id="evaluate-json"),
        pytest.param(["mine-ids", "--pairs", "pairs.tsv", "--out", "nodir/c.tsv"],
                     "nodir/c.tsv", id="mine-ids-out"),
        pytest.param(["run", "--config", "nope.yaml"], "nope.yaml", id="run-config"),
    ])
    def test_unopenable_file_names_it(self, tmp_path, monkeypatch, capsys, argv, path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "gold.tsv").write_text("http://a.com/en/1\thttp://a.com/fr/1\n")
        (tmp_path / "pairs.tsv").write_text(
            "a.com\thttp://a.com/en/1\thttp://a.com/fr/1\tfr\t0.5\tcda\n")
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: No such file or directory\n"

    # was "error: <path>: [Errno 2] No such file or directory: '<path>'"
    def test_lost_vector_array_names_it(self, tmp_path):
        cfg, config = fixture_config(tmp_path)
        out = tmp_path / "out"
        assert main(["vectorize", "--config", config]) == 0
        missing = out / "vectors" / "fr" / "data.npy"
        missing.unlink()
        with pytest.raises(FormatError) as exc:
            pipeline.align_by_content(PipelineConfig.from_dict(cfg),
                                      read_partitions(out / "corpus"))
        assert str(exc.value) == f"{missing}: No such file or directory"
        assert main(["align-cda", "--config", config]) == 0  # vectorize runs again first
        assert missing.is_file()

    # was ingested as http://a.com/caf\ufffd with the tokens caf, cr and me
    def test_input_not_utf8_is_2(self, tmp_path, capsys):
        bad = tmp_path / "in.jsonl"
        bad.write_bytes(b'{"url": "http://a.com/x", "lang": "en", "text": "a"}\n'
                        + '{"url": "http://a.com/caf\u00e9", "lang": "fr", '
                          '"text": "caf\u00e9 cr\u00e8me"}\n'.encode("latin-1"))
        config = write_config(tmp_path / "config.yaml",
                              {"input": str(bad), "out": str(tmp_path / "o")})
        assert main(["ingest", "--config", config]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}:2: not UTF-8: ")
        assert sorted(tree(tmp_path)) == ["config.yaml", "in.jsonl", "o/FAILED"]

    # align-cda aligned the documents of the old vectors/ and left the rest of
    # the new corpus/ out, with exit 0
    def test_align_rejects_vectors_of_another_corpus(self, tmp_path):
        cfg, config = fixture_config(tmp_path)
        out = tmp_path / "out"
        assert main(["vectorize", "--config", config]) == 0
        bigger = SyntheticCorpus(n_domains=3, docs_per_domain=4, vocab_size=40,
                                 doc_len=(15, 25), seed=11).write(tmp_path / "fx2")
        fr = PipelineConfig.from_dict(cfg)
        pipeline.ingest(replace(fr, input=str(bigger["input"])))
        with pytest.raises(FormatError) as exc:
            pipeline.align_by_content(fr, read_partitions(out / "corpus"))
        assert str(exc.value) == "vectors of language 'en' hold 8 rows for its 12 documents"
        assert not (out / "pairs.tsv").exists()
        assert main(["align-cda", "--config", config]) == 0  # ingest runs again first

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_align_rejects_threshold_that_is_not_finite(self, tmp_path, capsys, value):
        cfg, config = fixture_config(tmp_path)
        assert main(["vectorize", "--config", config]) == 0
        bad = write_config(tmp_path / "bad.yaml", {**cfg, "threshold": float(value)})
        capsys.readouterr()
        assert main(["align-cda", "--config", bad]) == 1
        assert capsys.readouterr().err == (
            f"error: threshold must be a finite number, got {float(value)!r}\n")
        assert not (tmp_path / "out" / "pairs.tsv").exists()

    # was read as 1
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_mine_ids_rejects_min_support_below_1(self, tmp_path, capsys, value):
        pairs_path = tmp_path / "pairs.tsv"
        pairs_path.write_text("a.com\thttp://a.com/en/x\thttp://a.com/fr/x\tfr\t0.5\tcda\n")
        cand_path = tmp_path / "candidates.tsv"
        assert main(["mine-ids", "--pairs", str(pairs_path), "--min-support", value,
                     "--out", str(cand_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: min_support must be an integer >= 1, got {int(value)}\n")
        assert not cand_path.exists()

    @pytest.mark.parametrize("command", ["evaluate", "mine-ids"])
    @pytest.mark.parametrize("line, message", [
        pytest.param("a.com\thttp://a.com/en\thttp://a.com/fr\tfr\t0.5",
                     "expected 6 tab-separated fields, got 5", id="five-fields"),
        pytest.param("a.com\thttp://a.com/en\thttp://a.com/fr\tfr\thigh\tcda",
                     "score 'high' is not a number", id="score-not-number"),
    ])
    def test_bad_pairs_line_names_file_and_line(self, tmp_path, capsys, command,
                                                line, message):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("a.com\thttp://a.com/en/1\thttp://a.com/fr/1\tfr\t0.900000\tcda\n"
                         + line + "\n")
        gold = tmp_path / "gold.tsv"
        gold.write_text("http://a.com/en/1\thttp://a.com/fr/1\n")
        argv = {"evaluate": ["evaluate", "--pred", str(pairs), "--gold", str(gold)],
                "mine-ids": ["mine-ids", "--pairs", str(pairs),
                             "--out", str(tmp_path / "candidates.tsv")]}[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {pairs}:2: {message}\n"

    def test_config_error_is_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("out: outdir\n")  # missing input
        assert main(["run", "--config", str(cfg_path)]) == 1
