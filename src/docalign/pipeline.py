"""End-to-end pipeline: ingest -> lexicon -> vectorize -> align -> mine ->
evaluate, driven by one declarative config document.

Every stage is stamped with a content hash of its parameters and inputs;
a rerun with unchanged inputs skips the stage. A stage that runs first drops
its stamp and every path it owns, so no output of an earlier config or of a
failed run is ever taken for fresh. The manifest records every
parameter and input digest, so identical configs and inputs reproduce every
artifact byte-for-byte.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import numbers
import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

from . import align_cda, align_url, corpus, evaluation, lexicon, miner, vectorspace
from .errors import ConfigError, FormatError, ParseError, SchemaError
from .textfile import read_lines

log = logging.getLogger(__name__)

Partitions = dict[str, corpus.CorpusPartition]


@dataclass
class LanguageResource:
    """Translation model source for one non-pivot language: either a pair of
    IBM-1 style TSV tables or a pair of embedding files."""

    table_fwd: Optional[str] = None  # pivot -> lang
    table_bwd: Optional[str] = None  # lang -> pivot
    embeddings_pivot: Optional[str] = None
    embeddings_other: Optional[str] = None

    def paths(self) -> list[str]:
        return [p for p in (self.table_fwd, self.table_bwd,
                            self.embeddings_pivot, self.embeddings_other) if p]

    def validate(self, lang: str) -> None:
        has_tables = bool(self.table_fwd or self.table_bwd)
        has_emb = bool(self.embeddings_pivot or self.embeddings_other)
        if has_tables and has_emb:
            raise ConfigError(f"language {lang!r}: give tables or embeddings, not both")
        if has_tables and not (self.table_fwd and self.table_bwd):
            raise ConfigError(f"language {lang!r}: both table directions required")
        if has_emb and not (self.embeddings_pivot and self.embeddings_other):
            raise ConfigError(f"language {lang!r}: both embedding files required")
        if not has_tables and not has_emb:
            raise ConfigError(f"language {lang!r}: no translation resource configured")
        for p in self.paths():
            if not Path(p).is_file():
                raise ConfigError(f"language {lang!r}: resource file not found: {p}")


@dataclass
class PipelineConfig:
    input: str
    out: str
    pivot: str = "en"
    langs: list[str] = field(default_factory=list)
    format: str = "jsonl"
    resources: dict[str, LanguageResource] = field(default_factory=dict)
    vocab_size: int = 10000
    skip_top_k: int = 100
    stopwords: Optional[str] = None
    threshold: float = 0.1
    top_n: int = 20
    lang_confidence: float = 0.5
    detect_language: bool = True
    url_align: bool = False
    identifiers: Optional[str] = None
    mine: bool = False
    min_support: int = 1
    gold: Optional[str] = None

    @classmethod
    def from_file(cls, path, out_override: Optional[str] = None) -> "PipelineConfig":
        import yaml  # here, not at the top: callers of from_dict never load it

        try:
            raw = yaml.safe_load(Path(path).read_bytes().decode("utf-8")) or {}
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8: {exc.reason}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not a YAML document: {exc}") from None
        return cls.from_dict(raw, out_override=out_override)

    @classmethod
    def from_dict(cls, raw: dict, out_override: Optional[str] = None) -> "PipelineConfig":
        """A config from a mapping of field names to values. A document that
        is not a mapping, an unknown key, a resource spec that is not a
        mapping of ``LanguageResource`` fields to paths, a path or name that
        is not a string, ``langs`` that is not a list of strings and a switch
        that is not a bool are each a ``ConfigError`` naming the key."""
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a mapping of keys to values, "
                              f"got {type(raw).__name__}")
        raw = dict(raw)
        specs = raw.pop("resources", None) or {}
        if not isinstance(specs, dict):
            raise ConfigError(f"resources must map each language to its files, "
                              f"got {type(specs).__name__}")
        resources = {}
        for lang, spec in specs.items():
            try:  # an unknown key, or a spec that is not a mapping
                resources[lang] = LanguageResource(**spec)
            except TypeError as exc:
                raise ConfigError(f"resources of language {lang!r}: {exc}") from None
            for key, value in spec.items():
                if value is not None and not isinstance(value, str):
                    raise ConfigError(f"resources of language {lang!r}: {key} must be "
                                      f"a file path, got {value!r}")
        if out_override:
            raw["out"] = out_override
        try:
            cfg = cls(resources=resources, **raw)
        except TypeError as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        for name in ("input", "out", "pivot", "format", "stopwords", "identifiers", "gold"):
            value = getattr(cfg, name)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        if not cfg.input or not cfg.out:
            raise ConfigError("config requires 'input' and 'out'")
        if not isinstance(cfg.langs, list) or not all(isinstance(x, str) for x in cfg.langs):
            raise ConfigError(f"langs must be a list of language tags, got {cfg.langs!r}")
        for name in ("detect_language", "url_align", "mine"):
            if not isinstance(getattr(cfg, name), bool):
                raise ConfigError(f"{name} must be true or false, "
                                  f"got {getattr(cfg, name)!r}")
        return cfg

    def parameters(self) -> dict[str, Any]:
        """Every field except the output location, with the unset paths of
        each language resource left out."""
        params = asdict(self)
        del params["out"]
        params["langs"] = sorted(self.langs)
        params["resources"] = {lang: {k: v for k, v in spec.items() if v}
                               for lang, spec in params["resources"].items()}
        return params


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_of(obj: Any) -> str:
    payload = json.dumps(obj, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class _Stage:
    """Content-hash stamp of one stage and the outputs it must find."""

    def __init__(self, out_dir: Path, name: str, digest: str, outputs: list[Path]):
        self.digest = digest
        self.outputs = outputs
        self.stamp_path = out_dir / ".stamps" / f"{name}.json"

    def fresh(self) -> bool:
        if not self.stamp_path.is_file():
            return False
        try:
            stamp = json.loads(self.stamp_path.read_bytes())
        except (OSError, ValueError):  # unreadable, not UTF-8 or not JSON
            return False
        if not isinstance(stamp, dict) or stamp.get("digest") != self.digest:
            return False
        return all(p.exists() for p in self.outputs)


def run_pipeline(cfg: PipelineConfig) -> Path:
    """Execute all configured stages in dependency order; returns the
    artifact directory. Fails before any work if a configured language lacks
    its translation resource, or ``top_n``, ``vocab_size``, ``skip_top_k``,
    ``min_support``, ``lang_confidence`` or ``threshold`` is out of range."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    # a run that fails leaves no manifest of an earlier run beside FAILED
    (out / "FAILED").unlink(missing_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)

    # pre-flight: every configured language must have a usable resource
    for lang in sorted(cfg.langs):
        res = cfg.resources.get(lang)
        if res is None:
            raise ConfigError(f"no translation resource configured for language {lang!r}")
        res.validate(lang)
    if not Path(cfg.input).is_file():
        raise ConfigError(f"input file not found: {cfg.input}")
    for name, low in (("top_n", 1), ("vocab_size", 1), ("skip_top_k", 0),
                      ("min_support", 1)):
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
    _check_lang_confidence(cfg.lang_confidence)
    _check_threshold(cfg.threshold)

    manifest: dict[str, Any] = {
        "parameters": cfg.parameters(),
        "inputs": {},
        "stages": {},
        "outputs": {},
    }
    manifest["inputs"][cfg.input] = file_digest(cfg.input)
    for lang, res in sorted(cfg.resources.items()):
        for p in res.paths():
            manifest["inputs"][p] = file_digest(p)
    for optional in (cfg.gold, cfg.identifiers, cfg.stopwords):
        if optional:
            manifest["inputs"][optional] = file_digest(optional)

    # read corpus/ once, by the first stage that is not fresh and needs it
    @functools.cache
    def partitions() -> Partitions:
        return corpus.read_partitions(out / "corpus")

    _stage_ingest(cfg, out, manifest)
    _stage_lexicon(cfg, out, manifest, partitions)
    _stage_vectorize(cfg, out, manifest, partitions)
    _stage_align(cfg, out, manifest, partitions)
    _stage_mine(cfg, out, manifest)
    _stage_evaluate(cfg, out, manifest)

    for path in sorted(out.rglob("*")):
        if path.is_file() and ".stamps" not in path.parts and path.name != "manifest.json":
            manifest["outputs"][path.relative_to(out).as_posix()] = file_digest(path)
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    )
    return out


def _check_lang_confidence(value) -> None:
    # above 1 no record is ever tagged; nan keeps every tag, however unsure
    if not _is_real(value) or not 0.0 <= value <= 1.0:
        raise ConfigError(f"lang_confidence must be a number in [0, 1], got {value!r}")


def _check_threshold(value) -> None:
    if not _is_real(value) or not math.isfinite(value):
        raise ConfigError(f"threshold must be a finite number, got {value!r}")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# --- stage work -----------------------------------------------------------
#
# One function per stage does the work for both ``run_pipeline`` and the
# CLI subcommand of the same stage. Each reads and writes the standard
# layout under the artifact directory ``out``; stamps and the manifest stay
# with the ``_stage_*`` wrappers below.


def ingest(input_path, out: Path, format: str, detect_language: bool,
           lang_confidence: float) -> None:
    """Parse the input records and partition them by domain into ``corpus/``,
    replacing all of it. A record that does not parse fails the ingest with
    an error that starts ``<input>:<line>:``, before anything is written."""
    _check_lang_confidence(lang_confidence)
    records = []
    with open(input_path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = corpus.parse_record(line, format)
            except (ParseError, SchemaError) as exc:
                raise type(exc)(f"{input_path}:{lineno}: {exc}") from exc
            if rec.lang == "und" and detect_language:
                rec.lang = corpus.detect_language(rec.tokens,
                                                  confidence_floor=lang_confidence)
            records.append(rec)
    partitions = corpus.group_by_domain(records)
    # written aside, then swapped in: no domain or language of an earlier
    # input survives, and corpus/ is never half written
    corpus_dir = out / "corpus"
    staging = out / "corpus.tmp"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    corpus.write_partitions(partitions, staging)
    if corpus_dir.exists():
        shutil.rmtree(corpus_dir)
    staging.rename(corpus_dir)
    log.info("ingest: %d records over %d domains", len(records), len(partitions))


def _lang_tokens(partitions, lang: str):
    for domain in sorted(partitions):
        for doc in partitions[domain].docs(lang):
            yield doc


def build_lexicon(out: Path, partitions: Partitions, pivot: str,
                  resources: dict[str, LanguageResource], vocab_size: int,
                  skip_top_k: int, stopwords: Optional[str], top_n: int) -> None:
    """Write ``vocab/<lang>.txt`` for the pivot and every language in
    ``resources``, and ``lexicon/<lang>.tsv`` for every language in
    ``resources``."""
    vocab_dir = out / "vocab"
    lex_dir = out / "lexicon"
    langs = sorted(resources)
    stoplist = _load_stopwords(stopwords)
    vocab_dir.mkdir(parents=True, exist_ok=True)
    lex_dir.mkdir(parents=True, exist_ok=True)

    vocabs: dict[str, vectorspace.Vocabulary] = {}
    for lang in [pivot, *langs]:
        docs = (d.tokens for d in _lang_tokens(partitions, lang))
        vocabs[lang] = vectorspace.build_vocabulary(
            docs, skip_top_k, vocab_size, stoplist
        )
        vectorspace.save_vocabulary(vocabs[lang], vocab_dir / f"{lang}.txt")

    for lang in langs:
        res = resources[lang]
        if res.table_fwd:
            p_fwd = lexicon.load_translation_table(res.table_fwd, pivot, lang)
            p_bwd = lexicon.load_translation_table(res.table_bwd, lang, pivot)
        else:
            emb_pivot = lexicon.load_embeddings(res.embeddings_pivot)
            emb_other = lexicon.load_embeddings(res.embeddings_other)
            p_fwd, p_bwd = lexicon.table_from_embeddings(
                emb_pivot, emb_other, top_n=top_n, src_lang=pivot, tgt_lang=lang,
            )
        if not vocabs[pivot].words or not vocabs[lang].words:
            # no documents for one side: emit an empty lexicon
            (lex_dir / f"{lang}.tsv").write_text("")
            continue
        scores = lexicon.pair_scores(p_fwd, p_bwd)
        align = lexicon.build_alignment(
            scores, pivot, lang, vocabs[pivot].words, vocabs[lang].words
        )
        violations = lexicon.reverse_condition_violations(
            align, scores, vocabs[pivot].words
        )
        if violations:
            log.info("lexicon %s: %d pairs violate the reverse argmax condition",
                     lang, violations)
        lexicon.save_alignment(align, lex_dir / f"{lang}.tsv")


def _load_stopwords(path: Optional[str]) -> Optional[set[str]]:
    if not path:
        return None
    return {word.strip().lower() for _lineno, word in read_lines(path)} - {""}


def vectorize_corpus(out: Path, partitions: Partitions, pivot: str, langs) -> None:
    """Project the pivot and every language in ``langs`` into the pivot
    space of ``vocab/<pivot>.txt`` through ``lexicon/<lang>.tsv``; writes
    ``vectors/<lang>/`` and ``idf/<lang>.tsv``."""
    vec_dir = out / "vectors"
    idf_dir = out / "idf"
    pivot_vocab = vectorspace.load_vocabulary(out / "vocab" / f"{pivot}.txt")
    vec_dir.mkdir(parents=True, exist_ok=True)
    idf_dir.mkdir(parents=True, exist_ok=True)

    for lang in [pivot, *sorted(langs)]:
        docs = list(_lang_tokens(partitions, lang))
        if lang == pivot:
            tokens = [d.tokens for d in docs]
        else:
            align = lexicon.load_alignment(out / "lexicon" / f"{lang}.tsv", pivot, lang,
                                           pivot_vocab.index)
            tokens = [lexicon.map_document(d, align) for d in docs]
        if not docs:
            vectorspace.save_vectors(vectorspace.VectorTable.empty(), vec_dir / lang)
            (idf_dir / f"{lang}.tsv").write_text("#collection_size\t0\t0\n")
            continue
        idf = vectorspace.compute_idf(tokens, pivot_vocab)
        vectorspace.save_idf(idf, pivot_vocab, idf_dir / f"{lang}.tsv")
        table = vectorspace.vectorize([d.url for d in docs], tokens, pivot_vocab, idf)
        vectorspace.save_vectors(table, vec_dir / lang)


def _sorted_pairs(pairs: list[align_cda.AlignmentPair]) -> list[align_cda.AlignmentPair]:
    return sorted(
        pairs,
        key=lambda p: (p.domain, p.other_lang, -p.score, p.pivot_url, p.other_url),
    )


def align_by_content(out: Path, partitions: Partitions, pivot: str, langs,
                     threshold: float) -> None:
    """CDA alignment of the vectors in ``vectors/`` into ``pairs.tsv``. Every
    dimension must index a word of ``vocab/<pivot>.txt``."""
    _check_threshold(threshold)
    dims = len(vectorspace.load_vocabulary(out / "vocab" / f"{pivot}.txt"))
    vectors = {}
    for lang in [pivot, *sorted(langs)]:
        vectors[lang] = table = vectorspace.load_vectors(out / "vectors" / lang)
        if table.indices.size and (table.indices.min() < 0 or table.indices.max() >= dims):
            raise FormatError(f"{out / 'vectors' / lang / 'indices.npy'}: dimension "
                              f"outside the {dims}-word pivot vocabulary")
    stats: dict = {}
    pairs = align_cda.align_corpus(partitions, vectors, pivot, langs, threshold,
                                   stats=stats)
    align_cda.save_pairs(_sorted_pairs(pairs), out / "pairs.tsv")
    log.info("align: %d pairs; scored %d of %d possible candidates",
             len(pairs), stats["scored_pairs"], stats["possible_pairs"])


def align_by_url(out: Path, partitions: Partitions, pivot: str, langs,
                 identifiers: Optional[str] = None) -> None:
    """URL-baseline alignment into ``pairs_url.tsv``; ``identifiers`` is an
    identifier file, the bundled set when None."""
    ids = (
        align_url.load_identifier_set(identifiers)
        if identifiers
        else align_url.default_identifier_set()
    )
    pairs = align_url.align_corpus_by_url(partitions, pivot, langs, ids)
    align_cda.save_pairs(_sorted_pairs(pairs), out / "pairs_url.tsv")
    log.info("align-url: %d pairs", len(pairs))


def write_report(out: Path, gold: str, url_align: bool) -> None:
    """Recall of ``pairs.tsv``, and of ``pairs_url.tsv`` when ``url_align``,
    against the gold file, into ``report.json``."""
    gold_pairs = evaluation.load_gold(gold)
    reports = {"cda": evaluation.evaluate_recall(
        align_cda.load_pairs(out / "pairs.tsv"), gold_pairs).as_dict()}
    if url_align:
        reports["url"] = evaluation.evaluate_recall(
            align_cda.load_pairs(out / "pairs_url.tsv"), gold_pairs).as_dict()
    (out / "report.json").write_text(
        json.dumps(reports, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    )


# --- stages ----------------------------------------------------------------
#
# Each ``_stage_*`` declares its digest key, the outputs a fresh stage must
# have, the paths it owns and its work; ``_run_stage`` does the rest.


def _run_stage(out: Path, manifest: dict, name: str, key: dict, outputs: list[Path],
               work: Callable[[], None], owns: Iterable[Path] = (),
               enabled: bool = True) -> None:
    """Skip the stage if it is fresh. Otherwise drop its stamp, its outputs
    and every path in ``owns``, run ``work`` and stamp. A stage the config
    turns off is only dropped. A failure leaves ``FAILED`` naming the stage."""
    stage = _Stage(out, name, digest_of({"stage": name, **key}), outputs)
    try:
        if enabled:
            manifest["stages"][name] = stage.digest
            if stage.fresh():
                log.info("%s: up to date, skipping", name)
                return
        stage.stamp_path.unlink(missing_ok=True)
        for path in [*outputs, *owns]:
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink(missing_ok=True)
        if enabled:
            work()
            stage.stamp_path.parent.mkdir(exist_ok=True)
            stage.stamp_path.write_text(json.dumps({"digest": stage.digest}))
    except Exception:
        (out / "FAILED").write_text(name + "\n")
        raise


def _stage_ingest(cfg: PipelineConfig, out: Path, manifest: dict) -> None:
    _run_stage(out, manifest, "ingest", {
        "input": manifest["inputs"][cfg.input],
        "format": cfg.format,
        "lang_confidence": cfg.lang_confidence,
        "detect_language": cfg.detect_language,
    }, [out / "corpus" / name for name in (corpus.DOCS, corpus.WORDS, corpus.IDS)],
        lambda: ingest(cfg.input, out, cfg.format, cfg.detect_language,
                       cfg.lang_confidence),
        owns=[out / "corpus"])


def _stage_lexicon(cfg: PipelineConfig, out: Path, manifest: dict,
                   partitions: Callable[[], Partitions]) -> None:
    langs = sorted(cfg.langs)
    _run_stage(out, manifest, "lexicon", {
        "ingest": manifest["stages"]["ingest"],
        "vocab_size": cfg.vocab_size,
        "skip_top_k": cfg.skip_top_k,
        "stopwords": manifest["inputs"].get(cfg.stopwords),
        "top_n": cfg.top_n,
        "resources": {lang: [manifest["inputs"][p] for p in res.paths()]
                      for lang, res in cfg.resources.items()},
        "langs": langs,
        "pivot": cfg.pivot,
    }, [out / "vocab" / f"{lang}.txt" for lang in [cfg.pivot, *langs]]
        + [out / "lexicon" / f"{lang}.tsv" for lang in langs],
        lambda: build_lexicon(out, partitions(), cfg.pivot,
                              {lang: cfg.resources[lang] for lang in langs},
                              cfg.vocab_size, cfg.skip_top_k, cfg.stopwords, cfg.top_n),
        owns=[out / "vocab", out / "lexicon"])


def _stage_vectorize(cfg: PipelineConfig, out: Path, manifest: dict,
                     partitions: Callable[[], Partitions]) -> None:
    langs = [cfg.pivot, *sorted(cfg.langs)]
    _run_stage(out, manifest, "vectorize", {
        "lexicon": manifest["stages"]["lexicon"],
    }, [out / "vectors" / lang for lang in langs]
        + [out / "idf" / f"{lang}.tsv" for lang in langs],
        lambda: vectorize_corpus(out, partitions(), cfg.pivot, cfg.langs),
        owns=[out / "vectors", out / "idf"])


def _stage_align(cfg: PipelineConfig, out: Path, manifest: dict,
                 partitions: Callable[[], Partitions]) -> None:
    def work() -> None:
        align_by_content(out, partitions(), cfg.pivot, cfg.langs, cfg.threshold)
        if cfg.url_align:
            align_by_url(out, partitions(), cfg.pivot, cfg.langs, cfg.identifiers)

    _run_stage(out, manifest, "align", {
        "vectorize": manifest["stages"]["vectorize"],
        "threshold": cfg.threshold,
        "url_align": cfg.url_align,
        "identifiers": manifest["inputs"].get(cfg.identifiers),
    }, [out / "pairs.tsv"] + ([out / "pairs_url.tsv"] if cfg.url_align else []),
        work, owns=[out / "pairs_url.tsv"])


def _stage_mine(cfg: PipelineConfig, out: Path, manifest: dict) -> None:
    candidates = out / "candidates.tsv"
    _run_stage(out, manifest, "mine", {
        "align": manifest["stages"]["align"],
        "min_support": cfg.min_support,
    }, [candidates],
        lambda: miner.save_candidates(
            miner.mine_identifiers(align_cda.load_pairs(out / "pairs.tsv"),
                                   min_support=cfg.min_support),
            candidates),
        enabled=cfg.mine)


def _stage_evaluate(cfg: PipelineConfig, out: Path, manifest: dict) -> None:
    _run_stage(out, manifest, "evaluate", {
        "align": manifest["stages"]["align"],
        "gold": manifest["inputs"].get(cfg.gold),
    }, [out / "report.json"],
        lambda: write_report(out, cfg.gold, cfg.url_align),
        enabled=bool(cfg.gold))
