"""Per-layer tracing of a docalign run from outside the package.

``Tracer.install`` replaces public functions of the docalign modules with
wrappers that record one span per call (name, start, end, parent) and
count the work at the same boundary. Spans stay in memory until ``dump``.
``layer_metrics`` turns a dump into the per-layer metrics.

Wrapping works by module attribute, so it only sees calls that look the
name up in the module at call time. ``align_cda.match_one_to_one`` is
reached through the ``_MATCHERS`` table and is therefore measured as the
self time of ``align_corpus``. Stage spans wrap ``pipeline._stage_<name>``,
the only stage boundary reachable from outside the package. Functions
called per character or per candidate pair are never wrapped: the wrapper
would cost more than the work.
"""

from __future__ import annotations

import importlib
import json
import os
import time

STAGES = ("ingest", "lexicon", "vectorize", "align", "mine", "evaluate")


# Wrapped names and the work each call counts: ``fn(args, kwargs, result)``
# returns {counter: amount}; every call also counts one ``calls``.
TARGETS = {
    "corpus.parse_record": None,
    "corpus.extract_text": lambda a, k, r: {"bytes": len(a[0].encode("utf-8"))},
    "corpus.tokenize": lambda a, k, r: {"chars": len(a[0])},
    "corpus.detect_language": lambda a, k, r: {"und": int(r == "und")},
    "corpus.group_by_domain": None,
    "corpus.write_partitions": None,
    "corpus.read_partitions": None,
    "langid.NgramLanguageDetector.classify": None,
    "lexicon.load_translation_table": None,
    "lexicon.load_embeddings": None,
    "lexicon.table_from_embeddings": None,
    "lexicon.build_alignment": None,
    "lexicon.reverse_condition_violations": None,
    "lexicon.save_alignment": None,
    "lexicon.load_alignment": None,
    "lexicon.map_document": lambda a, k, r: {"tokens": len(a[0].tokens),
                                             "mapped": len(r)},
    "vectorspace.build_vocabulary": None,
    "vectorspace.save_vocabulary": None,
    "vectorspace.load_vocabulary": None,
    "vectorspace.compute_idf": None,
    "vectorspace.save_idf": None,
    "vectorspace.vectorize": None,
    "vectorspace.save_vectors": None,
    "vectorspace.load_vectors": None,
    "align_cda.score_domain": lambda a, k, r: {
        "scored": r.scored_pairs,
        "kept": len(r.scores),
        "possible": len(a[0].docs(a[2])) * len(a[0].docs(a[3])),
    },
    "align_cda.align_corpus": lambda a, k, r: {"pairs": len(r)},
    "align_cda.save_pairs": None,
    "align_cda.load_pairs": None,
    "align_url.default_identifier_set": None,
    "align_url.strip_identifiers": None,
    "align_url.match_urls": None,
    "align_url.align_corpus_by_url": None,
    "miner.mine_identifiers": None,
    "miner.save_candidates": None,
    "evaluation.load_gold": None,
    "evaluation.evaluate_recall": None,
    "pipeline.run_pipeline": None,
    "pipeline.file_digest": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "pipeline._Stage.fresh": lambda a, k, r: {"skipped": int(bool(r))},
    **{f"pipeline._stage_{s}": None for s in STAGES},
}


class TraceCoverageError(RuntimeError):
    """A wrapped name is missing from the package or was never called."""


class Tracer:
    def __init__(self):
        self.names: list[str] = list(TARGETS)
        self.spans: list[tuple[int, float, float, int]] = []
        self.counts: dict[str, dict[str, int]] = {n: {"calls": 0} for n in self.names}
        self._stack: list[int] = []

    def install(self) -> None:
        for name_id, name in enumerate(self.names):
            module, _, attr = name.partition(".")
            try:
                owner = importlib.import_module(f"docalign.{module}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError) as exc:
                raise TraceCoverageError(f"wrapped name missing: {name} ({exc})") from exc
            setattr(owner, leaf, self._wrap(name_id, original, TARGETS[name]))

    def _wrap(self, name_id: int, original, count):
        spans, stack = self.spans, self._stack
        counts = self.counts[self.names[name_id]]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            counts["calls"] += 1
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": self.counts}, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def durations(trace: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Whole and self time per wrapped name. Self time is a span's duration
    minus the wrapped calls inside it."""
    names = trace["names"]
    spans = trace["spans"]
    inner = [0.0] * len(spans)
    for _name_id, start, end, parent in spans:
        if parent >= 0:
            inner[parent] += end - start
    total = dict.fromkeys(names, 0.0)
    self_s = dict.fromkeys(names, 0.0)
    for (name_id, start, end, _parent), nested in zip(spans, inner):
        total[names[name_id]] += end - start
        self_s[names[name_id]] += end - start - nested
    return total, self_s


def layer_metrics(trace: dict, sizes: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run: {name: (value, unit)}.

    ``*.s`` and ``*.self_s`` are self time; throughputs divide the work by
    the function's whole duration. ``sizes`` holds the artifact sizes the
    run left behind.
    """
    counts = trace["counts"]
    total, self_s = durations(trace)

    def c(name, key="calls"):
        return counts[name].get(key, 0)

    stage_total = sum(total[f"pipeline._stage_{s}"] for s in STAGES)
    sd = "align_cda.score_domain"
    return {
        "corpus.parse_record.docs_per_s": (_ratio(c("corpus.parse_record"), total["corpus.parse_record"]), "docs/s"),
        "corpus.extract_text.mb_per_s": (_ratio(c("corpus.extract_text", "bytes") / 1e6, total["corpus.extract_text"]), "MB/s"),
        "corpus.tokenize.chars_per_s": (_ratio(c("corpus.tokenize", "chars"), total["corpus.tokenize"]), "chars/s"),
        "corpus.read_partitions.calls": (c("corpus.read_partitions"), "count"),
        "corpus.read_partitions.s": (self_s["corpus.read_partitions"], "s"),
        "corpus.write_partitions.s": (self_s["corpus.write_partitions"], "s"),
        "langid.detect_language.docs_per_s": (_ratio(c("corpus.detect_language"), total["corpus.detect_language"]), "docs/s"),
        "langid.und_share": (_ratio(c("corpus.detect_language", "und"), c("corpus.detect_language")), "ratio"),
        "lexicon.load_translation_table.s": (self_s["lexicon.load_translation_table"], "s"),
        "lexicon.table_from_embeddings.s": (self_s["lexicon.table_from_embeddings"], "s"),
        "lexicon.build_alignment.s": (self_s["lexicon.build_alignment"], "s"),
        "lexicon.reverse_condition_violations.s": (self_s["lexicon.reverse_condition_violations"], "s"),
        "lexicon.map_document.tokens_per_s": (_ratio(c("lexicon.map_document", "tokens"), total["lexicon.map_document"]), "tokens/s"),
        "lexicon.token_coverage": (_ratio(c("lexicon.map_document", "mapped"), c("lexicon.map_document", "tokens")), "ratio"),
        "vectorspace.build_vocabulary.s": (self_s["vectorspace.build_vocabulary"], "s"),
        "vectorspace.compute_idf.s": (self_s["vectorspace.compute_idf"], "s"),
        "vectorspace.vectorize.docs_per_s": (_ratio(c("vectorspace.vectorize"), total["vectorspace.vectorize"]), "docs/s"),
        "vectorspace.save_vectors.s": (self_s["vectorspace.save_vectors"], "s"),
        "vectorspace.vectors_mb": (sizes["vectors_bytes"] / 1e6, "MB"),
        "vectorspace.load_vectors.s": (self_s["vectorspace.load_vectors"], "s"),
        "align_cda.score_domain.pairs_per_s": (_ratio(c(sd, "scored"), total[sd]), "pairs/s"),
        "align_cda.scored_ratio": (_ratio(c(sd, "scored"), c(sd, "possible")), "ratio"),
        "align_cda.kept_ratio": (_ratio(c(sd, "kept"), c(sd, "scored")), "ratio"),
        "align_cda.align_corpus.self_s": (self_s["align_cda.align_corpus"], "s"),
        "align_cda.pairs_emitted": (c("align_cda.align_corpus", "pairs"), "count"),
        "align_url.strip_identifiers.urls_per_s": (_ratio(c("align_url.strip_identifiers"), total["align_url.strip_identifiers"]), "urls/s"),
        "align_url.match_urls.s": (self_s["align_url.match_urls"], "s"),
        "miner.mine_identifiers.s": (self_s["miner.mine_identifiers"], "s"),
        "evaluation.evaluate_recall.s": (self_s["evaluation.evaluate_recall"], "s"),
        **{f"pipeline.stage.{s}_s": (total[f"pipeline._stage_{s}"], "s") for s in STAGES},
        "pipeline.stages_skipped": (c("pipeline._Stage.fresh", "skipped"), "count"),
        "pipeline.file_digest.mb": (c("pipeline.file_digest", "bytes") / 1e6, "MB"),
        "pipeline.file_digest.s": (self_s["pipeline.file_digest"], "s"),
        "pipeline.run_pipeline.self_s": (total["pipeline.run_pipeline"] - stage_total, "s"),
        "pipeline.out_mb": (sizes["out_bytes"] / 1e6, "MB"),
    }


def check_called(trace: dict, required) -> None:
    """Raise if any required name was never called."""
    missing = sorted(n for n in required if trace["counts"][n]["calls"] == 0)
    if missing:
        raise TraceCoverageError("never called: " + ", ".join(missing))
