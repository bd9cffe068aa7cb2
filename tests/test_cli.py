import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import docalign
from docalign.cli import build_parser, main
from docalign.corpus import read_partitions
from docalign.pipeline import PipelineConfig
from tests.conftest import SyntheticCorpus


def write_fixture(tmp_path, **kwargs):
    corpus = SyntheticCorpus(n_domains=2, docs_per_domain=4, vocab_size=40,
                             doc_len=(15, 25), seed=11, **kwargs)
    return corpus, corpus.write(tmp_path / "fx")


class TestStageCommands:
    def test_full_stage_chain(self, tmp_path, capsys):
        corpus, paths = write_fixture(tmp_path)
        out = tmp_path / "out"
        common = ["--out", str(out), "--pivot", "en"]

        assert main(["ingest", "--input", str(paths["input"]),
                     "--format", "jsonl", "--out", str(out)]) == 0
        assert read_partitions(out / "corpus")["site00.example"].docs("en")

        assert main(["build-lexicon", *common, "--lang", "fr",
                     "--table-fwd", str(paths["table_fwd"]),
                     "--table-bwd", str(paths["table_bwd"]),
                     "--vocab-size", "40", "--skip-top-k", "0"]) == 0
        assert (out / "vocab" / "en.txt").read_text()
        assert (out / "lexicon" / "fr.tsv").read_text()

        assert main(["vectorize", *common, "--langs", "fr"]) == 0
        for lang in ("en", "fr"):
            assert {f.name for f in (out / "vectors" / lang).iterdir()} == {
                "indptr.npy", "indices.npy", "data.npy", "urls.txt"}
        assert (out / "idf" / "fr.tsv").is_file()

        pairs_path = out / "pairs.tsv"
        assert main(["align-cda", *common, "--langs", "fr",
                     "--threshold", "0.1"]) == 0
        assert pairs_path.read_text().splitlines()

        cand_path = tmp_path / "candidates.tsv"
        assert main(["mine-ids", "--pairs", str(pairs_path),
                     "--min-support", "1", "--out", str(cand_path)]) == 0
        assert any(line.startswith("en\tfr\t")
                   for line in cand_path.read_text().splitlines())

        assert main(["evaluate", "--pred", str(pairs_path),
                     "--gold", str(paths["gold"])]) == 0
        assert "recall@1" in capsys.readouterr().out

    def test_align_url_command(self, tmp_path):
        corpus, paths = write_fixture(tmp_path)
        out = tmp_path / "out"
        main(["ingest", "--input", str(paths["input"]), "--out", str(out)])
        assert main(["align-url", "--out", str(out),
                     "--pivot", "en", "--langs", "fr"]) == 0
        lines = (out / "pairs_url.tsv").read_text().splitlines()
        assert lines
        assert all(line.split("\t")[5] == "url" for line in lines)

    def test_build_lexicon_without_resource_is_usage_error(self, tmp_path, capsys):
        corpus, paths = write_fixture(tmp_path)
        out = tmp_path / "out"
        main(["ingest", "--input", str(paths["input"]), "--out", str(out)])
        code = main(["build-lexicon", "--out", str(out), "--pivot", "en",
                     "--lang", "fr", "--table-fwd", str(paths["table_fwd"])])
        assert code == 1
        assert "both table directions" in capsys.readouterr().err


def _artifacts(root):
    files = {}
    for name in ("corpus", "vocab", "lexicon", "idf", "vectors",
                 "pairs.tsv", "pairs_url.tsv"):
        path = root / name
        for f in [path] if path.is_file() else sorted(path.rglob("*")):
            if f.is_file():
                files[f.relative_to(root).as_posix()] = f.read_bytes()
    return files


class TestChainMatchesRun:
    def test_subcommand_chain_equals_run(self, tmp_path):
        corpus = SyntheticCorpus(n_domains=3, docs_per_domain=6, vocab_size=60,
                                 doc_len=(15, 25), seed=5)
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text("".join(
            f"{w}\n" for w in corpus.pivot_words[3:13] + corpus.other_words[3:13]
        ))
        cfg = corpus.config(tmp_path / "fx", tmp_path / "run", vocab_size=60,
                            skip_top_k=2, stopwords=str(stopwords), url_align=True)
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 0

        chain = tmp_path / "chain"
        common = ["--out", str(chain), "--pivot", "en"]
        res = cfg["resources"]["fr"]
        assert main(["ingest", "--input", cfg["input"], "--out", str(chain),
                     "--no-detect"]) == 0
        assert main(["build-lexicon", *common, "--lang", "fr",
                     "--table-fwd", res["table_fwd"], "--table-bwd", res["table_bwd"],
                     "--vocab-size", "60", "--skip-top-k", "2",
                     "--stopwords", str(stopwords)]) == 0
        assert main(["vectorize", *common, "--langs", "fr"]) == 0
        assert main(["align-cda", *common, "--langs", "fr", "--threshold", "0.1"]) == 0
        assert main(["align-url", *common, "--langs", "fr"]) == 0

        expected = _artifacts(tmp_path / "run")
        assert expected["pairs.tsv"] and expected["pairs_url.tsv"]
        assert {"vocab/en.txt", "lexicon/fr.tsv", "idf/fr.tsv",
                "vectors/fr/data.npy", "vectors/fr/urls.txt"} <= expected.keys()
        assert _artifacts(chain) == expected


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

    def test_config_not_utf8_is_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_bytes(b"input: x\nout: caf\xe9\n")
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg_path}: not UTF-8")

    def test_data_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n")
        code = main(["ingest", "--input", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("record", [
        pytest.param('{"url": "/fr/page.html", "lang": "fr", "text": "a"}', id="no-host"),
        pytest.param('{"url": "http://./x", "lang": "fr", "text": "a"}', id="host-dot"),
        pytest.param('{"url": "http://../x", "lang": "fr", "text": "a"}', id="host-dotdot"),
        pytest.param('{"url": "http://a.com/x", "lang": "../../x", "text": "a"}',
                     id="lang-path"),
        pytest.param('{"url": "http://a.com/x", "lang": 5, "text": "a"}', id="lang-number"),
        pytest.param('{"url": "http://a.com/x\\ty", "lang": "fr", "text": "a"}',
                     id="url-tab"),
        pytest.param('{"url": "http://a.com/x\\ny", "lang": "fr", "text": "a"}',
                     id="url-newline"),
        pytest.param('{"url": "http://a.com/x\\ry", "lang": "fr", "text": "a"}',
                     id="url-carriage-return"),
        pytest.param('{"url": 5, "lang": "fr", "text": "a"}', id="url-number"),
        pytest.param('{"url": "http://a.com/\\ud800", "lang": "fr", "text": "a"}',
                     id="url-lone-surrogate"),
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
        out = tmp_path / "o"
        code = main(["ingest", "--input", str(bad), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}:3: ")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["in.jsonl"]

    def test_bad_corpus_line_names_file_and_line(self, tmp_path, capsys):
        corpus, paths = write_fixture(tmp_path)
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(paths["input"]), "--out", str(out)]) == 0
        docs = out / "corpus" / "docs.tsv"
        docs.write_text(docs.read_text() + "en\tsite00.example\thttp://site00.example/x\t5\n")
        lines = len(docs.read_text().splitlines())
        capsys.readouterr()
        assert main(["vectorize", "--out", str(out), "--pivot", "en"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {docs}:{lines}: expected 5 tab-separated fields, got 4")

    def test_missing_ids_file_names_it(self, tmp_path, capsys):
        # was the bare FileNotFoundError, as "error: [Errno 2] ..."
        corpus, paths = write_fixture(tmp_path)
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(paths["input"]), "--out", str(out)]) == 0
        ids = out / "corpus" / "ids.npy"
        ids.unlink()
        capsys.readouterr()
        assert main(["vectorize", "--out", str(out), "--pivot", "en"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {ids}: ")

    def test_vectorize_rejects_lexicon_of_another_pivot_vocabulary(self, tmp_path, capsys):
        # a second build-lexicon call rewrites vocab/en.txt with a smaller
        # vocabulary than the one lexicon/fr.tsv was built against
        corpus, paths = write_fixture(tmp_path)
        out = tmp_path / "out"
        common = ["--out", str(out), "--pivot", "en"]
        tables = ["--table-fwd", str(paths["table_fwd"]),
                  "--table-bwd", str(paths["table_bwd"]), "--skip-top-k", "0"]
        assert main(["ingest", "--input", str(paths["input"]), "--out", str(out)]) == 0
        assert main(["build-lexicon", *common, "--lang", "fr", *tables,
                     "--vocab-size", "40"]) == 0
        assert main(["build-lexicon", *common, "--lang", "de", *tables,
                     "--vocab-size", "10"]) == 0
        vocab = set((out / "vocab" / "en.txt").read_text().split())
        lexicon = out / "lexicon" / "fr.tsv"
        line, word = next(
            (n, fields[1]) for n, fields in enumerate(
                (row.split("\t") for row in lexicon.read_text().splitlines()), start=1)
            if fields[1] not in vocab
        )
        capsys.readouterr()
        assert main(["vectorize", *common, "--langs", "fr"]) == 2
        assert capsys.readouterr().err == (
            f"error: {lexicon}:{line}: pivot word {word!r} is not in the pivot vocabulary\n"
        )

    @pytest.mark.parametrize("bad", [-5, 10**12, None], ids=["negative", "huge", "vocab-size"])
    def test_align_rejects_dimension_outside_pivot_vocabulary(self, tmp_path, capsys, bad):
        corpus, paths = write_fixture(tmp_path)
        out = tmp_path / "out"
        common = ["--out", str(out), "--pivot", "en"]
        assert main(["ingest", "--input", str(paths["input"]), "--out", str(out)]) == 0
        assert main(["build-lexicon", *common, "--lang", "fr",
                     "--table-fwd", str(paths["table_fwd"]),
                     "--table-bwd", str(paths["table_bwd"]), "--skip-top-k", "0"]) == 0
        assert main(["vectorize", *common, "--langs", "fr"]) == 0
        dims = len((out / "vocab" / "en.txt").read_text().splitlines())
        indices_path = out / "vectors" / "fr" / "indices.npy"
        indices = np.load(indices_path)
        indices[1] = dims if bad is None else bad
        np.save(indices_path, indices)
        capsys.readouterr()
        assert main(["align-cda", *common, "--langs", "fr"]) == 2
        assert capsys.readouterr().err == (
            f"error: {indices_path}: dimension outside the {dims}-word pivot vocabulary\n")
        assert not (out / "pairs.tsv").exists()

    @pytest.mark.parametrize("value", ["1.5", "-0.5", "nan"])
    def test_ingest_rejects_lang_confidence_outside_0_1(self, tmp_path, capsys, value):
        corpus, paths = write_fixture(tmp_path)
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(paths["input"]), "--out", str(out),
                     "--lang-confidence", value]) == 1
        assert capsys.readouterr().err == (
            f"error: lang_confidence must be a number in [0, 1], got {float(value)!r}\n")
        assert not out.exists()

    # vocab/../../x.txt and lexicon/../../x.tsv landed outside --out, and a
    # language listed twice, or the pivot listed again, was processed twice
    @pytest.mark.parametrize("command, message", [
        pytest.param("build-lexicon --pivot en --lang ../../x", "language tag '../../x'",
                     id="build-lexicon-lang"),
        pytest.param("build-lexicon --pivot ../../x --lang fr", "language tag '../../x'",
                     id="build-lexicon-pivot"),
        pytest.param("vectorize --pivot en --langs fr,fr", "list a language twice",
                     id="vectorize-twice"),
        pytest.param("vectorize --pivot en --langs ../../x", "language tag '../../x'",
                     id="vectorize-lang"),
        pytest.param("align-cda --pivot en --langs fr,en", "list the pivot 'en'",
                     id="align-cda-pivot"),
        pytest.param("align-url --pivot en --langs ../x", "language tag '../x'",
                     id="align-url-lang"),
    ])
    def test_bad_language_list_is_1_and_writes_nothing(self, tmp_path, capsys, command,
                                                       message):
        corpus, paths = write_fixture(tmp_path)
        out = tmp_path / "out"
        common = ["--out", str(out), "--pivot", "en"]
        tables = ["--table-fwd", str(paths["table_fwd"]),
                  "--table-bwd", str(paths["table_bwd"]), "--skip-top-k", "0"]
        assert main(["ingest", "--input", str(paths["input"]), "--out", str(out)]) == 0
        assert main(["build-lexicon", *common, "--lang", "fr", *tables]) == 0
        assert main(["vectorize", *common, "--langs", "fr"]) == 0
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        capsys.readouterr()
        argv = [*command.split(), "--out", str(out)]
        assert main(argv + tables if argv[0] == "build-lexicon" else argv) == 1
        assert message in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    # each ended in the bare "error: [Errno 2] ..." with exit 2: only `run`
    # checked that the files it names exist
    @pytest.mark.parametrize("command, key", [
        pytest.param(["ingest", "--input", "{missing}", "--out", "{out}"], "input",
                     id="ingest-input"),
        pytest.param(["build-lexicon", "--out", "{out}", "--pivot", "en", "--lang", "fr",
                      "--table-fwd", "{fwd}", "--table-bwd", "{bwd}",
                      "--stopwords", "{missing}"], "stopwords", id="build-lexicon-stopwords"),
        pytest.param(["align-url", "--out", "{out}", "--pivot", "en", "--langs", "fr",
                      "--ids", "{missing}"], "identifiers", id="align-url-ids"),
        pytest.param(["evaluate", "--pred", "{out}/pairs.tsv", "--gold", "{missing}"],
                     "gold", id="evaluate-gold"),
    ])
    def test_missing_file_is_1_and_writes_nothing(self, tmp_path, capsys, command, key):
        corpus, paths = write_fixture(tmp_path)
        out = tmp_path / "out"
        common = ["--out", str(out), "--pivot", "en"]
        assert main(["ingest", "--input", str(paths["input"]), "--out", str(out)]) == 0
        assert main(["build-lexicon", *common, "--lang", "fr",
                     "--table-fwd", str(paths["table_fwd"]),
                     "--table-bwd", str(paths["table_bwd"]), "--skip-top-k", "0"]) == 0
        assert main(["vectorize", *common, "--langs", "fr"]) == 0
        assert main(["align-cda", *common, "--langs", "fr"]) == 0
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        capsys.readouterr()
        missing = tmp_path / "missing.txt"
        argv = [arg.format(missing=missing, out=out, fwd=paths["table_fwd"],
                           bwd=paths["table_bwd"]) for arg in command]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {key} file not found: {missing}\n"
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    # argparse's choices made it exit 2, unlike every other bad option value
    def test_ingest_rejects_unknown_format(self, tmp_path, capsys):
        corpus, paths = write_fixture(tmp_path)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert main(["ingest", "--input", str(paths["input"]), "--format", "xml",
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: format must be 'jsonl' or 'tsv', got 'xml'\n"
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    # each was the bare "error: [Errno 2] No such file or directory: '<path>'"
    @pytest.mark.parametrize("argv, path", [
        pytest.param(["evaluate", "--pred", "nope.tsv", "--gold", "gold.tsv"], "nope.tsv",
                     id="evaluate-pred"),
        pytest.param(["mine-ids", "--pairs", "nope.tsv", "--out", "c.tsv"], "nope.tsv",
                     id="mine-ids-pairs"),
        pytest.param(["vectorize", "--out", "empty", "--pivot", "en"],
                     str(Path("empty", "corpus", "docs.tsv")), id="vectorize-empty-out"),
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
    def test_lost_vector_array_names_it(self, tmp_path, capsys):
        corpus, paths = write_fixture(tmp_path)
        out = tmp_path / "out"
        common = ["--out", str(out), "--pivot", "en"]
        assert main(["ingest", "--input", str(paths["input"]), "--out", str(out)]) == 0
        assert main(["build-lexicon", *common, "--lang", "fr",
                     "--table-fwd", str(paths["table_fwd"]),
                     "--table-bwd", str(paths["table_bwd"]), "--skip-top-k", "0"]) == 0
        assert main(["vectorize", *common, "--langs", "fr"]) == 0
        (out / "vectors" / "fr" / "data.npy").unlink()
        capsys.readouterr()
        assert main(["align-cda", *common, "--langs", "fr"]) == 2
        missing = out / "vectors" / "fr" / "data.npy"
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"

    # was ingested as http://a.com/caf\ufffd with the tokens caf, cr and me
    def test_input_not_utf8_is_2(self, tmp_path, capsys):
        bad = tmp_path / "in.jsonl"
        bad.write_bytes(b'{"url": "http://a.com/x", "lang": "en", "text": "a"}\n'
                        + '{"url": "http://a.com/caf\u00e9", "lang": "fr", '
                          '"text": "caf\u00e9 cr\u00e8me"}\n'.encode("latin-1"))
        code = main(["ingest", "--input", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}:2: not UTF-8: ")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["in.jsonl"]

    # align-cda aligned the documents of the old vectors/ and left the rest of
    # the new corpus/ out, with exit 0
    def test_align_rejects_vectors_of_another_corpus(self, tmp_path, capsys):
        corpus, paths = write_fixture(tmp_path)
        out = tmp_path / "out"
        common = ["--out", str(out), "--pivot", "en"]
        assert main(["ingest", "--input", str(paths["input"]), "--out", str(out)]) == 0
        assert main(["build-lexicon", *common, "--lang", "fr",
                     "--table-fwd", str(paths["table_fwd"]),
                     "--table-bwd", str(paths["table_bwd"]), "--skip-top-k", "0"]) == 0
        assert main(["vectorize", *common, "--langs", "fr"]) == 0
        bigger = SyntheticCorpus(n_domains=3, docs_per_domain=4, vocab_size=40,
                                 doc_len=(15, 25), seed=11).write(tmp_path / "fx2")
        assert main(["ingest", "--input", str(bigger["input"]), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["align-cda", *common, "--langs", "fr"]) == 2
        urls = out / "vectors" / "en" / "urls.txt"
        assert capsys.readouterr().err == (
            f"error: {urls}: not the en documents of {out / 'corpus'}; run vectorize again\n")
        assert not (out / "pairs.tsv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_align_rejects_threshold_that_is_not_finite(self, tmp_path, capsys, value):
        corpus, paths = write_fixture(tmp_path)
        out = tmp_path / "out"
        common = ["--out", str(out), "--pivot", "en"]
        assert main(["ingest", "--input", str(paths["input"]), "--out", str(out)]) == 0
        assert main(["build-lexicon", *common, "--lang", "fr",
                     "--table-fwd", str(paths["table_fwd"]),
                     "--table-bwd", str(paths["table_bwd"]), "--skip-top-k", "0"]) == 0
        assert main(["vectorize", *common, "--langs", "fr"]) == 0
        capsys.readouterr()
        assert main(["align-cda", *common, "--langs", "fr", "--threshold", value]) == 1
        assert capsys.readouterr().err == (
            f"error: threshold must be a finite number, got {float(value)!r}\n")
        assert not (out / "pairs.tsv").exists()

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
