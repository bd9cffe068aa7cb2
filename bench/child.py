"""One benchmark operation: a single ``run_pipeline`` call in a fresh
interpreter.

Usage: ``python child.py <job.json>``. The job names the pipeline config,
whether to trace, and where to write the result. The result records the
monotonic time at which set-up ended (just before ``run_pipeline``), the
wall time of the call, the peak RSS of this process and the artifact
sizes. Any exception is reported in the result and exits with code 1.
"""

import json
import sys
import time


def _tree_bytes(path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    result: dict = {}
    try:
        import docalign
        from docalign import pipeline

        cfg = pipeline.PipelineConfig.from_dict(job["config"])
        result["ready_at"] = time.monotonic()
        result["docalign_file"] = docalign.__file__
        tracer = None
        if job["trace"]:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        start = time.perf_counter()
        out = pipeline.run_pipeline(cfg)
        result["run_s"] = time.perf_counter() - start

        import resource

        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["sizes"] = {"out_bytes": _tree_bytes(out),
                           "vectors_bytes": _tree_bytes(out / "vectors")}
        if tracer is not None:
            tracer.dump(job["trace_path"])
    except Exception as exc:  # reported to bench/run.py, which counts it
        import traceback

        result["error"] = f"{type(exc).__name__}: {exc}"
        result["traceback"] = traceback.format_exc()
    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
