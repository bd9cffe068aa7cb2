"""docalign benchmark: one workload per invocation.

Usage, from the root of a checkout:

    python3 bench/run.py --workload many-small-domains --seed 1 --seconds 40 --trace 0

It generates a seeded synthetic crawl (``crawlgen``), then for
``--seconds`` runs closed-loop operations: each is one ``run_pipeline``
call in a fresh child interpreter that imports docalign from ``src/`` of
this checkout. Every operation's outputs are checked. With ``--trace 0``
it reports the end-to-end metrics, medians over the untraced operations.
With ``--trace 1`` it alternates traced and untraced operations and reports
per-layer metrics (``tracing``), medians over the traced ones, plus the
tracing overhead. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Timings are taken at reference host speed. On a shared host the speed of
the same Python code swings by half over minutes, which no number of
operations in one run averages out. So between operations the benchmark
times a fixed piece of reference work (``cpu_ref_s``), and each operation's
``docs_per_s`` and ``setup_s`` are scaled by the reference time around it
to what they would be on a host where that work takes ``REF_S``. The wall
times are printed beside them, and ``host.cpu_ref_s`` is reported in traced
runs.

Scratch files go to ``.bench_tmp/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from urllib.parse import urlsplit

import crawlgen
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"

OP_TIMEOUT_S = 120
# A sanity floor: the generated crawls align far better than this, so a
# lower recall means broken output, not a slightly worse aligner.
RECALL_FLOOR = 50.0


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json records why each exists."""

    spec: crawlgen.CrawlSpec
    vocab_size: int
    skip_top_k: int
    # The first threshold is used by the cold runs; a rerun workload
    # alternates through all of them so each rerun must redo alignment.
    thresholds: tuple[float, ...]
    must_call: frozenset[str]
    rerun: bool = False


_WORKLOAD_SPECIFIC = {"corpus.extract_text", "corpus.detect_language",
                      "langid.NgramLanguageDetector.classify",
                      "lexicon.load_translation_table", "lexicon.load_embeddings",
                      "lexicon.table_from_embeddings"}
_COLD_CALLS = frozenset(tracing.TARGETS) - _WORKLOAD_SPECIFIC
_RERUN_CALLS = frozenset(
    ["pipeline.run_pipeline", "pipeline.file_digest", "pipeline._Stage.fresh",
     "corpus.read_partitions", "vectorspace.load_vectors",
     "align_cda.score_domain", "align_cda.align_corpus", "align_cda.save_pairs",
     "align_cda.load_pairs", "align_url.default_identifier_set",
     "align_url.strip_identifiers", "align_url.match_urls",
     "align_url.align_corpus_by_url", "miner.mine_identifiers",
     "miner.save_candidates", "evaluation.load_gold",
     "evaluation.evaluate_recall"]
    + [f"pipeline._stage_{s}" for s in tracing.STAGES]
)

# Operations are kept short (well under a second, under two seconds for the
# quadratic workload): the host's speed swings within seconds, and the
# reference readings just before and after an operation gauge the speed it
# ran at only if the host had little time to change in between.
_SMALL_DOMAINS = crawlgen.CrawlSpec(
    domains=8, pairs_per_domain=3, langs=("fr", "de"), tokens=(300, 540),
    html=True, noise_share=0.1, vocab=500,
)

WORKLOADS = {
    "many-small-domains": Workload(
        spec=_SMALL_DOMAINS, vocab_size=1000, skip_top_k=100, thresholds=(0.1,),
        must_call=_COLD_CALLS | {"corpus.extract_text", "corpus.detect_language",
                                 "langid.NgramLanguageDetector.classify",
                                 "lexicon.load_translation_table"},
    ),
    "few-large-domains": Workload(
        # Short words from a small vocabulary keep tokenizing cheap next to
        # the quadratic scoring; with skip_top_k 0 frequent words make
        # every pair a candidate.
        spec=crawlgen.CrawlSpec(
            domains=1, pairs_per_domain=500, langs=("fr", "de", "es"),
            embedding_langs=("es",), tokens=(60, 108), html=False,
            vocab=400, syllables=(1, 1, 2), dropout=0.25,
        ),
        vocab_size=1000, skip_top_k=0, thresholds=(0.3,),
        must_call=_COLD_CALLS | {"lexicon.load_translation_table",
                                 "lexicon.load_embeddings",
                                 "lexicon.table_from_embeddings"},
    ),
    "rerun-align": Workload(
        # the same kind of crawl, larger, so that a rerun does more than
        # the stamp checks
        spec=dataclasses.replace(_SMALL_DOMAINS, domains=64),
        vocab_size=1000, skip_top_k=100,
        thresholds=(0.1, 0.15), must_call=_RERUN_CALLS, rerun=True,
    ),
}

END_TO_END_UNITS = {
    "docs_per_s": "docs/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "recall_at_1": "%",
    "success_rate": "ratio",
}


def _reference_text() -> str:
    rng = random.Random(0)
    words = ["".join(rng.choice("aeioustrnl") for _ in range(rng.randint(2, 9)))
             for _ in range(2000)]
    return " ".join(rng.choice(words) for _ in range(200_000))


REF_TEXT = _reference_text()
# Nominal time of cpu_ref_s; its value only sets the scale of the scaled
# timings, which equal the wall timings when cpu_ref_s reads exactly this.
REF_S = 0.04


def cpu_ref_s() -> float:
    """Time of fixed pure-Python work like the pipeline's (splitting text,
    counting words in a dict, sorting): how fast the host runs right now.
    It runs in this process, which never imports docalign, so the program
    under test cannot change it."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for token in REF_TEXT.split():
        counts[token] = counts.get(token, 0) + 1
    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return time.perf_counter() - start


def _at_reference_speed(op: dict, ref_s: float) -> None:
    """Scale an operation's timings to a host where cpu_ref_s takes REF_S;
    ref_s is the mean of the readings just before and just after it."""
    op["wall_docs_per_s"] = op["docs_per_s"]
    op["wall_setup_s"] = op["setup_s"]
    op["docs_per_s"] *= ref_s / REF_S
    op["setup_s"] *= REF_S / ref_s


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class OperationFailed(Exception):
    """An operation raised, left a FAILED marker, or failed an output check."""


class BenchmarkError(Exception):
    """The benchmark itself cannot run; no result is printed."""


class Runner:
    """Runs and checks operations of one workload in a scratch directory."""

    def __init__(self, name: str, crawl: dict, work: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.crawl = crawl
        self.work = work
        self.langs = sorted(crawl["resources"])
        self.env = {k: v for k, v in os.environ.items() if k != "DOCALIGN_WORKERS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.reference: dict[float, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.shared_out = work / "out"

    def config(self, out: Path, threshold: float) -> dict:
        w = self.workload
        return {
            "input": self.crawl["input"],
            "out": str(out),
            "pivot": crawlgen.PIVOT,
            "langs": self.langs,
            "resources": self.crawl["resources"],
            "vocab_size": w.vocab_size,
            "skip_top_k": w.skip_top_k,
            "threshold": threshold,
            "gold": self.crawl["gold"],
            "url_align": True,
            "mine": True,
            "detect_language": True,
        }

    def operation(self, threshold: float, traced: bool) -> dict | None:
        """Run one checked operation; None when it failed (and is counted)."""
        n = self.attempted
        self.attempted += 1
        out = self.shared_out if self.workload.rerun else self.work / f"out{n}"
        job = {
            "config": self.config(out, threshold),
            "trace": traced,
            "result_path": str(self.work / f"result{n}.json"),
            "trace_path": str(self.work / f"trace{n}.json"),
        }
        job_path = self.work / f"job{n}.json"
        job_path.write_text(json.dumps(job))
        try:
            op = self._run_child(job_path, job, traced)
            op.update(self._check(out, threshold))
        except OperationFailed as exc:
            self.failures.append(f"operation {n} (threshold {threshold}): {exc}")
            return None
        finally:
            if not self.workload.rerun:
                shutil.rmtree(out, ignore_errors=True)
        if traced:
            op["layers"]["evaluation.url_recall_at_1"] = (op["url_recall_at_1"], "%")
        op["docs_per_s"] = self.crawl["records"] / op["run_s"]
        op["threshold"] = threshold
        op["traced"] = traced
        return op

    def _run_child(self, job_path: Path, job: dict, traced: bool) -> dict:
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(job_path)],
                env=self.env, cwd=self.work, capture_output=True, text=True,
                timeout=OP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise OperationFailed(f"timed out after {OP_TIMEOUT_S} s") from None
        try:
            with open(job["result_path"], encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, json.JSONDecodeError):
            raise OperationFailed(
                f"exit code {proc.returncode}, no result: {proc.stderr.strip()[-500:]}"
            ) from None
        error = result.get("error")
        if error and error.startswith("TraceCoverageError"):
            raise BenchmarkError(error)
        if error:
            raise OperationFailed(f"{error}\n{result['traceback']}")
        if proc.returncode != 0:
            raise OperationFailed(f"exit code {proc.returncode}")
        if Path(result["docalign_file"]).resolve().parent.parent != SRC.resolve():
            raise BenchmarkError(
                f"docalign was imported from {result['docalign_file']}, not {SRC}"
            )
        op = {
            "setup_s": result["ready_at"] - spawned_at,
            "run_s": result["run_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        if traced:
            with open(job["trace_path"], encoding="utf-8") as fh:
                trace = json.load(fh)
            tracing.check_called(trace, self.workload.must_call)
            op["layers"] = tracing.layer_metrics(trace, result["sizes"])
            op["purpose"] = PURPOSES[self.name](*tracing.durations(trace), op["layers"])
        return op

    def _check(self, out: Path, threshold: float) -> dict:
        failed = out / "FAILED"
        if failed.exists():
            raise OperationFailed(f"FAILED marker names stage {failed.read_text().strip()!r}")
        try:
            pairs = (out / "pairs.tsv").read_bytes()
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise OperationFailed(f"missing output: {exc}") from None
        digest = hashlib.sha256(pairs).hexdigest()
        if self.reference.setdefault(threshold, digest) != digest:
            raise OperationFailed("pairs.tsv differs from the first run at this threshold")
        self._check_pairs(pairs.decode("utf-8"), threshold)
        cda = report["cda"]
        if cda["total"] != self.crawl["gold_pairs"]:
            raise OperationFailed(f"report counts {cda['total']} gold pairs, "
                                  f"expected {self.crawl['gold_pairs']}")
        if cda["recall"] < RECALL_FLOOR:
            raise OperationFailed(f"recall@1 {cda['recall']:.2f} % below {RECALL_FLOOR} %")
        return {"recall_at_1": cda["recall"], "url_recall_at_1": report["url"]["recall"]}

    def _check_pairs(self, text: str, threshold: float) -> None:
        """Every pair lies within one domain, scores at least the threshold,
        and is one-to-one within its (domain, language) block."""
        seen: set[tuple[str, str, str]] = set()
        for line in text.splitlines():
            fields = line.split("\t")
            if len(fields) != 6:
                raise OperationFailed(f"malformed pairs.tsv line {line!r}")
            domain, purl, ourl, lang, score, method = fields
            if (method != "cda" or lang not in self.langs
                    or float(score) < threshold
                    or urlsplit(purl).hostname != domain
                    or urlsplit(ourl).hostname != domain):
                raise OperationFailed(f"invalid pair {line!r}")
            for key in ((domain, lang, "p" + purl), (domain, lang, "o" + ourl)):
                if key in seen:
                    raise OperationFailed(f"pairs.tsv is not one-to-one at {line!r}")
                seen.add(key)


def _ingest_bound(total, self_s, layers):
    share = total["pipeline._stage_ingest"] / total["pipeline.run_pipeline"]
    return f"ingest share of run: {share:.1%} (want > 50%)", share > 0.5


def _score_bound(total, self_s, layers):
    top = max(self_s, key=self_s.get)
    return f"largest self time: {top}", top == "align_cda.score_domain"


def _align_only(total, self_s, layers):
    skipped = layers["pipeline.stages_skipped"][0]
    reads = layers["corpus.read_partitions.calls"][0]
    return (f"stages_skipped={skipped} (want 3), read_partitions.calls={reads} "
            "(want 1)"), skipped == 3 and reads == 1


# What a traced run of each workload should show. Reported, not enforced:
# an optimisation may legitimately shift the balance between layers.
PURPOSES = {
    "many-small-domains": _ingest_bound,
    "few-large-domains": _score_bound,
    "rerun-align": _align_only,
}


def _warm_up(env: dict) -> None:
    """Import the package once so bytecode caches exist before timing."""
    proc = subprocess.run(
        [sys.executable, "-c", "import docalign, docalign.pipeline, docalign.langid"],
        env=env, cwd=SCRATCH, capture_output=True, text=True, timeout=OP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"cannot import docalign from {SRC}: {proc.stderr.strip()[-500:]}")


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    workload = WORKLOADS[name]
    crawl = crawlgen.generate(workload.spec, seed, work / "crawl")
    runner = Runner(name, crawl, work)
    _warm_up(runner.env)
    ops: list[dict] = []
    cold = None
    if workload.rerun:
        # untimed cold run that the timed reruns start from
        cold = runner.operation(workload.thresholds[0], traced=False)
    host = [cpu_ref_s()]
    thresholds = workload.thresholds[1:] + workload.thresholds[:1]
    needed = {True, False} if trace else {False}
    deadline = time.monotonic() + seconds
    last = 0.0
    i = 0
    while True:
        # start an operation only if it should end by the deadline; past it,
        # finish only what the report needs, a few tries at most
        if (time.monotonic() + last > deadline
                and (i >= 8 or needed <= {op["traced"] for op in ops})):
            break
        # in traced runs, traced and untraced operations alternate (a pair
        # of each when thresholds alternate) so both see the same host
        traced = trace and (i // len(thresholds)) % 2 == 0
        started = time.monotonic()
        op = runner.operation(thresholds[i % len(thresholds)], traced)
        last = time.monotonic() - started
        host.append(cpu_ref_s())
        if op is not None:
            _at_reference_speed(op, (host[-2] + host[-1]) / 2)
            ops.append(op)
            print(f"  op {i} {'traced' if traced else 'untraced'} threshold "
                  f"{op['threshold']}: setup {op['wall_setup_s']:.3f} s "
                  f"(scaled {op['setup_s']:.3f}), run {op['run_s']:.3f} s, "
                  f"{op['wall_docs_per_s']:.1f} docs/s (scaled {op['docs_per_s']:.1f}), "
                  f"rss {op['peak_rss_mb']:.1f} MB, host.cpu_ref_s {host[-1]:.4f}")
        i += 1

    print(f"workload {name} seed {seed}: {crawl['records']} records, "
          f"{crawl['gold_pairs']} gold pairs, {runner.attempted} operations, "
          f"{len(runner.failures)} failed")
    for failure in runner.failures:
        print("  FAIL", failure)
    untraced = [op for op in ops if not op["traced"]]
    if not untraced:
        raise BenchmarkError("no operation succeeded")
    q1, med, q3 = _quartiles(host)
    print(f"  host.cpu_ref_s median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} (n={len(host)})")

    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        traced = [op for op in ops if op["traced"]]
        for key, (_v, unit) in traced[0]["layers"].items():
            metrics[key] = (statistics.median(op["layers"][key][0] for op in traced), unit)
        fast = statistics.median(op["docs_per_s"] for op in untraced)
        slow = statistics.median(op["docs_per_s"] for op in traced)
        metrics["trace.untraced_docs_per_s"] = (fast, "docs/s")
        metrics["trace.traced_docs_per_s"] = (slow, "docs/s")
        metrics["trace.overhead_ratio"] = (fast / slow, "ratio")
        metrics["host.cpu_ref_s"] = (med, "s")
        print(f"  tracing overhead: {slow:.1f} docs/s traced vs {fast:.1f} untraced "
              f"({fast / slow - 1:+.1%})")
        passed = sum(ok for _text, ok in (op["purpose"] for op in traced))
        print(f"  purpose {name}: {traced[-1]['purpose'][0]}; "
              f"met in {passed} of {len(traced)} traced operations")
    else:
        primary = [op["recall_at_1"] for op in ops + [cold]
                   if op is not None and op["threshold"] == workload.thresholds[0]]
        values = {
            "docs_per_s": [op["docs_per_s"] for op in untraced],
            "peak_rss_mb": [op["peak_rss_mb"] for op in untraced],
            "setup_s": [op["setup_s"] for op in untraced],
            "recall_at_1": primary,
        }
        for key, vals in values.items():
            metrics[key] = (statistics.median(vals), END_TO_END_UNITS[key])
        wall = {key: statistics.median(op["wall_" + key] for op in untraced)
                for key in ("docs_per_s", "setup_s")}
        metrics["success_rate"] = (
            (runner.attempted - len(runner.failures)) / runner.attempted, "ratio")
    for key, (value, unit) in metrics.items():
        line = f"  {key:<42} {value:>14.6g} {unit}"
        if not trace and key in ("docs_per_s", "peak_rss_mb", "setup_s"):
            q1, _m, q3 = _quartiles(values[key])
            line += f"   q1 {q1:.6g} q3 {q3:.6g} n={len(values[key])}"
            if key in wall:
                line += f", wall median {wall[key]:.6g}"
        print(line)
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "docalign" / "__init__.py").is_file():
        print(f"error: no docalign package under {SRC}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (BenchmarkError, tracing.TraceCoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
