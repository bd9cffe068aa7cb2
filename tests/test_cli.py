import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
import yaml

from docalign.cli import build_parser, main
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
        assert (out / "corpus" / "site00.example" / "en.jsonl").is_file()

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


def _readme_commands():
    """Every ``docalign ...`` line of README's fenced ``sh`` blocks, split
    into arguments, with backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M)
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


class TestExitCodes:
    def test_usage_error_is_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text("input: missing.jsonl\nout: outdir\n")
        (tmp_path / "missing.jsonl").touch()
        code = main(["run", "--config", str(cfg_path.with_name("nope.yaml"))])
        assert code == 2  # unreadable config file is an I/O problem

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
        part = out / "corpus" / "site00.example" / "en.jsonl"
        part.write_text(part.read_text() + "{broken\n")
        lines = len(part.read_text().splitlines())
        capsys.readouterr()
        assert main(["vectorize", "--out", str(out), "--pivot", "en"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {part}:{lines}: ")

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
