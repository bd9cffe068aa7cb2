"""How a cold run's memory grows with the corpus.

A run's peak heap, as ``tracemalloc`` sees it (numpy's arrays included),
is measured in a fresh interpreter on two corpora of one kind, and its
growth per document is bounded. The measure counts allocations, not pages,
so it does not depend on the host's load, and it varies by a few KB from
run to run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import docalign
from tests.conftest import SyntheticCorpus

# One cold run per config file named on the command line, each traced
# alone; prints the peaks in bytes.
_TRACED_RUNS = """
import json, sys, tracemalloc
from docalign.pipeline import PipelineConfig, run_pipeline
peaks = []
for path in sys.argv[1:]:
    cfg = PipelineConfig.from_dict(json.loads(open(path, encoding="utf-8").read()))
    tracemalloc.start()
    run_pipeline(cfg)
    peaks.append(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
print(json.dumps(peaks))
"""

# Bytes of peak heap per document between the 1,000- and the 4,000-document
# corpus: 2.88 KB when the stages after ingest began to read token ids
# (8.0 KB before, when every token was a str of its own), plus 25 %.
PEAK_PER_DOC = 3600


def test_peak_heap_per_document(tmp_path):
    paths, sizes = [], []
    for per_domain in (50, 200):
        corpus = SyntheticCorpus(n_domains=10, docs_per_domain=per_domain, seed=1)
        cfg = corpus.config(tmp_path / f"fx{per_domain}", tmp_path / f"out{per_domain}")
        paths.append(tmp_path / f"config{per_domain}.json")
        paths[-1].write_text(json.dumps(cfg), encoding="utf-8")
        sizes.append(len(corpus.records))
    src = str(Path(docalign.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUNS, *map(str, paths)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    small, large = json.loads(proc.stdout)
    assert sizes == [1000, 4000]
    assert (large - small) / (sizes[1] - sizes[0]) <= PEAK_PER_DOC
