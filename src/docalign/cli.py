"""Command-line interface.

`run` executes the whole pipeline from a single config document. `ingest`,
`build-lexicon`, `vectorize` and `align-cda` take the same options and run
the same stages, under the same stamps, up to their own stage; only `run`
writes `manifest.json`. `mine-ids` and `evaluate` work on any pairs file.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace

from . import align_cda, evaluation, miner, pipeline
from .errors import DocalignError

# the options of mine-ids and evaluate default to the values `run` takes from the config
_DEFAULTS = pipeline.PipelineConfig(input="", out="")

# each command of the pipeline and the last stage it runs
_PIPELINE_COMMANDS = {"ingest": "ingest", "build-lexicon": "lexicon",
                      "vectorize": "vectorize", "align-cda": "align", "run": "evaluate"}


def _config(**fields) -> pipeline.PipelineConfig:
    """The config of `mine-ids` or `evaluate`, checked as `run`'s is, its files too."""
    cfg = replace(_DEFAULTS, **fields)
    cfg.input_files()
    return cfg


def _add_pipeline(sub):
    for command, through in _PIPELINE_COMMANDS.items():
        p = sub.add_parser(command, help=f"run the config's pipeline through {through}")
        p.add_argument("--config", required=True)
        p.add_argument("--out", help="override the config's output directory")
        p.set_defaults(func=cmd_pipeline, through=through)


def cmd_pipeline(args) -> int:
    cfg = pipeline.PipelineConfig.from_file(args.config, out_override=args.out)
    out = pipeline.run_pipeline(cfg, through=args.through)
    print(f"pipeline complete through {args.through}; artifacts in {out}")
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
        pipeline.write_json(vars(report), args.json_out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docalign",
        description="Align multilingual web documents within domains.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (_add_pipeline, _add_mine_ids, _add_evaluate):
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
