"""Command-line interface.

Subcommands mirror the pipeline stages and call the same stage code as
`run`, which executes everything from a single config document. Every stage
subcommand reads and writes the artifact directory `--out` in the layout
`run` uses. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import align_cda, corpus, evaluation, miner, pipeline
from .errors import DocalignError

log = logging.getLogger("docalign")

_OUT_HELP = "artifact directory, laid out as by `run`"
# the stage options default to the values `run` takes from the config
_DEFAULTS = pipeline.PipelineConfig(input="", out="")


def _config(**fields) -> pipeline.PipelineConfig:
    """A stage subcommand's config, checked as `run`'s is, its files too."""
    cfg = replace(_DEFAULTS, **fields)
    cfg.input_files()
    return cfg


def _add_ingest(sub):
    p = sub.add_parser("ingest", help="parse records and partition by domain")
    p.add_argument("--input", required=True)
    p.add_argument("--format", default=_DEFAULTS.format, help="jsonl or tsv")
    p.add_argument("--out", required=True, help=_OUT_HELP)
    p.add_argument("--lang-confidence", type=float, default=_DEFAULTS.lang_confidence)
    p.add_argument("--no-detect", action="store_true",
                   help="keep 'und' instead of running language detection")
    p.set_defaults(func=cmd_ingest)


def cmd_ingest(args) -> int:
    pipeline.ingest(_config(input=args.input, out=args.out, format=args.format,
                            detect_language=not args.no_detect,
                            lang_confidence=args.lang_confidence))
    print(f"wrote {Path(args.out) / 'corpus'}")
    return 0


def _partitions(cfg):
    return corpus.read_partitions(Path(cfg.out) / "corpus")


def _config_with_langs(args, **fields) -> pipeline.PipelineConfig:
    """The config of `vectorize`, `align-cda` or `align-url`."""
    langs = [lang for lang in args.langs.split(",") if lang]
    return _config(out=args.out, pivot=args.pivot, langs=langs, **fields)


def _add_build_lexicon(sub):
    p = sub.add_parser("build-lexicon", help="build the pivot lexicon alignment")
    p.add_argument("--out", required=True, help=_OUT_HELP)
    p.add_argument("--pivot", required=True)
    p.add_argument("--lang", required=True)
    p.add_argument("--table-fwd", help="pivot->lang probability TSV")
    p.add_argument("--table-bwd", help="lang->pivot probability TSV")
    p.add_argument("--emb-pivot", help="pivot embeddings (text format)")
    p.add_argument("--emb-other", help="other-language embeddings")
    p.add_argument("--top-n", type=int, default=_DEFAULTS.top_n)
    p.add_argument("--vocab-size", type=int, default=_DEFAULTS.vocab_size)
    p.add_argument("--skip-top-k", type=int, default=_DEFAULTS.skip_top_k)
    p.add_argument("--stopwords", help="file of words left out of every vocabulary")
    p.set_defaults(func=cmd_build_lexicon)


def cmd_build_lexicon(args) -> int:
    res = pipeline.LanguageResource(
        table_fwd=args.table_fwd, table_bwd=args.table_bwd,
        embeddings_pivot=args.emb_pivot, embeddings_other=args.emb_other,
    )
    cfg = _config(out=args.out, pivot=args.pivot, langs=[args.lang],
                  resources={args.lang: res}, top_n=args.top_n,
                  vocab_size=args.vocab_size, skip_top_k=args.skip_top_k,
                  stopwords=args.stopwords)
    pipeline.build_lexicon(cfg, _partitions(cfg))
    print(f"wrote {Path(args.out) / 'lexicon' / (args.lang + '.tsv')}")
    return 0


def _add_vectorize(sub):
    p = sub.add_parser("vectorize", help="TF-IDF vectors in the pivot space")
    p.add_argument("--out", required=True, help=_OUT_HELP)
    p.add_argument("--pivot", required=True)
    p.add_argument("--langs", default="", help="comma-separated non-pivot languages")
    p.set_defaults(func=cmd_vectorize)


def cmd_vectorize(args) -> int:
    cfg = _config_with_langs(args)
    pipeline.vectorize_corpus(cfg, _partitions(cfg))
    print(f"wrote {Path(args.out) / 'vectors'}")
    return 0


def _add_align_cda(sub):
    p = sub.add_parser("align-cda", help="content-based alignment")
    p.add_argument("--out", required=True, help=_OUT_HELP)
    p.add_argument("--pivot", required=True)
    p.add_argument("--langs", required=True)
    p.add_argument("--threshold", type=float, default=_DEFAULTS.threshold)
    p.set_defaults(func=cmd_align_cda)


def cmd_align_cda(args) -> int:
    cfg = _config_with_langs(args, threshold=args.threshold)
    pipeline.align_by_content(cfg, _partitions(cfg))
    print(f"wrote {Path(args.out) / 'pairs.tsv'}")
    return 0


def _add_align_url(sub):
    p = sub.add_parser("align-url", help="URL baseline alignment")
    p.add_argument("--out", required=True, help=_OUT_HELP)
    p.add_argument("--pivot", required=True)
    p.add_argument("--langs", required=True)
    p.add_argument("--ids", help="identifier file (default: bundled set)")
    p.set_defaults(func=cmd_align_url)


def cmd_align_url(args) -> int:
    cfg = _config_with_langs(args, identifiers=args.ids)
    pipeline.align_by_url(cfg, _partitions(cfg))
    print(f"wrote {Path(args.out) / 'pairs_url.tsv'}")
    return 0


def _add_mine_ids(sub):
    p = sub.add_parser("mine-ids", help="mine language-identifier candidates")
    p.add_argument("--pairs", required=True)
    p.add_argument("--min-support", type=int, default=_DEFAULTS.min_support)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mine_ids)


def cmd_mine_ids(args) -> int:
    cfg = _config(min_support=args.min_support)
    pairs = align_cda.load_pairs(args.pairs)
    candidates = miner.mine_identifiers(pairs, min_support=cfg.min_support)
    miner.save_candidates(candidates, args.out)
    print(f"{len(candidates)} candidates written to {args.out} for curation")
    return 0


def _add_evaluate(sub):
    p = sub.add_parser("evaluate", help="recall against gold pairs")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--no-refilter", action="store_true",
                   help="skip the greedy 1-1 refilter before scoring")
    p.add_argument("--json", dest="json_out", help="also write the report as JSON")
    p.set_defaults(func=cmd_evaluate)


def cmd_evaluate(args) -> int:
    gold = evaluation.load_gold(_config(gold=args.gold).gold)
    report = evaluation.evaluate_recall(
        align_cda.load_pairs(args.pred), gold,
        enforce_one_to_one=not args.no_refilter,
    )
    print(evaluation.format_report(report))
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(vars(report), sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return 0


def _add_run(sub):
    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="override the config's output directory")
    p.set_defaults(func=cmd_run)


def cmd_run(args) -> int:
    cfg = pipeline.PipelineConfig.from_file(args.config, out_override=args.out)
    out = pipeline.run_pipeline(cfg)
    print(f"pipeline complete; artifacts in {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docalign",
        description="Align multilingual web documents within domains.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (_add_ingest, _add_build_lexicon, _add_vectorize, _add_align_cda,
                _add_align_url, _add_mine_ids, _add_evaluate, _add_run):
        add(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except DocalignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # an output or config path; a stage's reads are FormatErrors
        where = f"{exc.filename}: {exc.strerror}" if exc.filename is not None else exc
        print(f"error: {where}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
