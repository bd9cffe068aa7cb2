"""What the benchmark under ``bench/`` relies on in the package.

``bench/tracing.py`` wraps package functions by name and stops a traced
run on a name that is missing, and the benchmark times the import of
``docalign.pipeline`` as set-up. These tests catch a rename or a heavy
import before a benchmark run does, and a stage call the trace no longer
sees.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import MultilingualCorpus

ROOT = Path(__file__).resolve().parents[1]


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    unresolved = []
    for name in _tracing_module().TARGETS:
        module, _, attr = name.partition(".")
        owner = importlib.import_module(f"docalign.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(name)
    assert unresolved == []


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _fixture_config(tmp_path):
    """Two languages, German from embeddings and French from tables."""
    corpus = MultilingualCorpus(["de", "fr"], embedding_langs=["de"], n_domains=2,
                                docs_per_domain=5, vocab_size=60, doc_len=(20, 30), seed=7)
    return corpus.config(tmp_path / "fixture", tmp_path / "out", vocab_size=50,
                         url_align=True, mine=True)


def _traced_run(tmp_path, config, run):
    """One traced ``bench/child.py`` run; returns the trace's call counts."""
    job = {"config": config, "trace": True,
           "result_path": str(tmp_path / f"{run}.result.json"),
           "trace_path": str(tmp_path / f"{run}.trace.json")}
    job_path = tmp_path / f"{run}.job.json"
    job_path.write_text(json.dumps(job))
    subprocess.run([sys.executable, str(ROOT / "bench" / "child.py"), str(job_path)],
                   env=_env(), cwd=tmp_path, capture_output=True, timeout=120)
    result = json.loads(Path(job["result_path"]).read_text())
    assert "error" not in result, result.get("traceback")
    return json.loads(Path(job["trace_path"]).read_text())["counts"]


def test_traced_runs_see_every_stage(tmp_path):
    """Two traced runs of ``bench/child.py`` in one ``out``: every stage
    wrapper is called, and the second run finds every stage fresh."""
    config = _fixture_config(tmp_path)
    stages = [f"pipeline._stage_{s}" for s in _tracing_module().STAGES]
    for run in ("cold", "rerun"):
        counts = _traced_run(tmp_path, config, run)
        for name in [*stages, "pipeline._Stage.fresh", "pipeline.run_pipeline"]:
            assert counts[name]["calls"] > 0, name
    fresh = counts["pipeline._Stage.fresh"]
    assert fresh["skipped"] == fresh["calls"] == len(stages)


@pytest.fixture(scope="module")
def cold_counts(tmp_path_factory):
    """Call counts of one traced cold run with url_align, mine and gold."""
    tmp_path = tmp_path_factory.mktemp("cold")
    config = _fixture_config(tmp_path)
    assert config["gold"]
    return _traced_run(tmp_path, config, "cold")


def _never_called(counts, modules, unreachable=()):
    names = [n for n in _tracing_module().TARGETS
             if n.split(".")[0] in modules and n not in unreachable]
    return names, [n for n in names if counts[n]["calls"] == 0]


def test_traced_cold_run_calls_every_lexicon_and_vectorspace_name(cold_counts):
    """A cold run reaches every wrapped ``lexicon.*`` and ``vectorspace.*``
    name, the embedding ones included, so a rewrite that stops calling one
    fails here, not as a ``TraceCoverageError`` of ``bench/run.py --trace 1``;
    ``map_document`` is called once per non-pivot document."""
    names, missing = _never_called(cold_counts, ("lexicon", "vectorspace"))
    assert {"vectorspace.vectorize", "lexicon.table_from_embeddings"} <= set(names)
    assert missing == []
    assert cold_counts["lexicon.map_document"]["calls"] == 2 * 2 * 5


def test_traced_cold_run_calls_every_align_name(cold_counts):
    """The same for every wrapped ``align_cda.*``, ``align_url.*``,
    ``miner.*`` and ``evaluation.*`` name; ``score_domain`` also records the
    counters the per-layer scoring metrics divide."""
    names, missing = _never_called(
        cold_counts, ("align_cda", "align_url", "miner", "evaluation"))
    assert "align_url.strip_identifiers" in names
    assert missing == []
    score = cold_counts["align_cda.score_domain"]
    assert 0 < score["kept"] <= score["scored"] <= score["possible"]


def test_traced_threshold_rerun_reads_corpus_once_and_maps_nothing(tmp_path):
    """A traced rerun with a new threshold, as rerun-align makes, reads
    ``corpus/`` once, calls every wrapped ``align_cda.*`` and ``align_url.*``
    name, and maps no document through the lexicon."""
    config = _fixture_config(tmp_path)
    _traced_run(tmp_path, config, "cold")
    counts = _traced_run(tmp_path, {**config, "threshold": 0.5}, "rerun")
    names, missing = _never_called(counts, ("align_cda", "align_url"))
    assert "align_cda.score_domain" in names and "align_url.match_urls" in names
    assert missing == []
    assert counts["corpus.read_partitions"]["calls"] == 1
    assert counts["lexicon.map_document"]["calls"] == 0


def _modules_after_pipeline_import(package: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, docalign.pipeline; print(sorted(m for m in sys.modules "
         f"if m.split('.')[0] == {package!r}))"],
        env=_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    return proc.stdout.strip()


def test_pipeline_import_leaves_scipy_out():
    assert _modules_after_pipeline_import("scipy") == "[]"


def test_package_import_loads_no_submodule():
    """The package root re-exports nothing, so importing it loads no
    ``docalign.*`` module."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, docalign; print(sorted(m for m in sys.modules "
         "if m.startswith('docalign.')))"],
        env=_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_pipeline_import_leaves_yaml_out():
    # only PipelineConfig.from_file reads YAML; the benchmark uses from_dict
    assert _modules_after_pipeline_import("yaml") == "[]"


def test_cold_run_loads_only_the_data_and_langid_modules(tmp_path):
    """A cold ``run_pipeline`` with untagged pages, an embeddings-backed
    language, url_align, mine and gold loads no module beyond the bundled
    identifier data and the language detector: ``numpy.ma``, which
    ``np.unique`` imports when asked for no ``return_*`` array, costs about
    11 ms."""
    config = _fixture_config(tmp_path)
    with open(config["input"], "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"url": "http://site00.example/misc/1.html",
                             "text": "le chat est sur la table"}) + "\n")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, docalign.pipeline as p\n"
         "before = set(sys.modules)\n"
         f"p.run_pipeline(p.PipelineConfig.from_dict(json.loads({json.dumps(json.dumps(config))}"
         ") | {'detect_language': True}))\n"
         "print(sorted(set(sys.modules) - before))"],
        env=_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip() == \
        "['docalign.data', 'docalign.langid', 'encodings.utf_32_le']"


def test_first_language_detection_loads_only_langid():
    """Set-up of the bundled detector stays off ``numpy.ma``, which
    ``np.unique`` imports when asked for no ``return_*`` array."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, docalign.pipeline\n"
         "before = set(sys.modules)\n"
         "from docalign import corpus\n"
         "assert corpus.detect_language(['le', 'chat', 'est', 'sur', 'la', 'table']) == 'fr'\n"
         "print(sorted(set(sys.modules) - before))"],
        env=_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip() == "['docalign.langid', 'encodings.utf_32_le']"
