"""End-to-end pipeline: ingest -> lexicon -> vectorize -> align -> mine ->
evaluate, driven by one declarative config document.

Every stage is stamped with a content hash of its parameters and inputs
and the sha256 of each file it wrote; a rerun with unchanged inputs and
every listed file unchanged skips the stage. A stage that runs first drops
its stamp and every path it owns, so no output of an earlier config or of a
failed run is ever taken for fresh. The manifest records every parameter
and input digest and, from the stamps, every output digest, so identical
configs and inputs reproduce every artifact byte-for-byte.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import numbers
import os
import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import numpy as np

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
        """File paths only; tables or embeddings, not both, and both halves
        of either."""
        for key, value in vars(self).items():
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"resources of language {lang!r}: {key} must be "
                                  f"a file path, got {value!r}")
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


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
            raw = yaml.safe_load(Path(path).read_bytes().decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8: {exc.reason}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not a YAML document: {exc}") from None
        return cls.from_dict({} if raw is None else raw, out_override=out_override)

    @classmethod
    def from_dict(cls, raw: dict, out_override: Optional[str] = None) -> "PipelineConfig":
        """A config from a mapping of field names to values. A document that
        is not a mapping, an unknown key, a resource spec that is not a
        mapping of ``LanguageResource`` fields to paths and a missing
        ``input`` or ``out`` are each a ``ConfigError``, as is a value that
        breaks a field rule of ``__post_init__``."""
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a mapping of keys to values, "
                              f"got {type(raw).__name__}")
        raw = dict(raw)
        specs = raw.pop("resources", None)
        if specs is not None and not isinstance(specs, dict):
            raise ConfigError(f"resources must map each language to its files, "
                              f"got {type(specs).__name__}")
        resources = {}
        for lang, spec in (specs or {}).items():
            try:  # an unknown key, or a spec that is not a mapping
                resources[lang] = LanguageResource(**spec)
            except TypeError as exc:
                raise ConfigError(f"resources of language {lang!r}: {exc}") from None
        if out_override:
            raw["out"] = out_override
        if any(raw.get(key) in (None, "") for key in ("input", "out")):
            raise ConfigError("config requires 'input' and 'out'")
        try:
            return cls(resources=resources, **raw)
        except TypeError as exc:
            raise ConfigError(f"bad config: {exc}") from exc

    def __post_init__(self) -> None:
        """Every field rule, so a config that exists is valid. A field that
        breaks its rule is a ``ConfigError`` naming it. ``langs`` is kept
        sorted."""
        for name in ("input", "out", "pivot", "format", "stopwords", "identifiers", "gold"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        if not isinstance(self.langs, list) or not all(isinstance(x, str) for x in self.langs):
            raise ConfigError(f"langs must be a list of language tags, got {self.langs!r}")
        # a tag names files such as vocab/<lang>.txt, which must stay in out/
        for tag in [self.pivot, *self.langs]:
            if tag is None or not corpus.LANG_TAG.fullmatch(tag):
                raise ConfigError(f"language tag {tag!r} is not made of ASCII letters, "
                                  "digits, '-' and '_'")
        self.langs = corpus.checked_langs(self.pivot, self.langs)
        if self.format not in ("jsonl", "tsv"):
            raise ConfigError(f"format must be 'jsonl' or 'tsv', got {self.format!r}")
        for name in ("detect_language", "url_align", "mine"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, "
                                  f"got {getattr(self, name)!r}")
        for name, low in (("top_n", 1), ("vocab_size", 1), ("skip_top_k", 0),
                          ("min_support", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        # above 1 no record is ever tagged; nan keeps every tag, however unsure
        if not _is_real(self.lang_confidence) or not 0.0 <= self.lang_confidence <= 1.0:
            raise ConfigError(f"lang_confidence must be a number in [0, 1], "
                              f"got {self.lang_confidence!r}")
        if not _is_real(self.threshold) or not math.isfinite(self.threshold):
            raise ConfigError(f"threshold must be a finite number, got {self.threshold!r}")
        for lang, res in self.resources.items():
            res.validate(lang)
        for lang in self.langs:
            if lang not in self.resources:
                raise ConfigError(f"no translation resource configured for language {lang!r}")

    def input_files(self) -> list[str]:
        """Every file the config names: the resource files of each configured
        language, then ``input``, ``gold``, ``identifiers`` and ``stopwords``
        when set, each once. The first that is not a file is a ``ConfigError``."""
        named = [(f"language {lang!r}: resource", path)
                 for lang, res in sorted(self.resources.items()) for path in res.paths()]
        named += [(key, getattr(self, key)) for key in ("input", "gold", "identifiers",
                                                        "stopwords") if getattr(self, key)]
        for what, path in named:
            if not Path(path).is_file():
                raise ConfigError(f"{what} file not found: {path}")
        return list(dict.fromkeys(path for _what, path in named))

    def parameters(self) -> dict[str, Any]:
        """Every field except the output location, with the unset paths of
        each language resource left out."""
        params = asdict(self)
        del params["out"]
        params["resources"] = {lang: {k: v for k, v in spec.items() if v}
                               for lang, spec in params["resources"].items()}
        return params


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):  # 64 KiB keeps peak RSS down
            h.update(chunk)
    return h.hexdigest()


def write_json(obj: Any, path) -> None:
    """``obj`` as UTF-8 JSON with sorted keys, indented by 2, ending in a newline."""
    text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def digest_of(obj: Any) -> str:
    payload = json.dumps(obj, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class _Stage:
    """Stamp of one stage: its key's hash and the sha256 of each file it wrote."""

    def __init__(self, out_dir: Path, name: str, digest: str):
        self.out_dir = out_dir
        self.digest = digest
        self.stamp_path = out_dir / ".stamps" / f"{name}.json"
        self.outputs: dict[str, str] = {}

    def fresh(self) -> bool:
        """The digest matches and every listed file is unchanged; keeps ``outputs``."""
        try:
            stamp = json.loads(self.stamp_path.read_bytes())
        except (OSError, ValueError):  # missing, unreadable, not UTF-8 or not JSON
            return False
        if not isinstance(stamp, dict) or stamp.get("digest") != self.digest:
            return False
        outputs = stamp.get("outputs")  # {POSIX path under out/: sha256}
        unchanged = isinstance(outputs, dict) and all(
            (self.out_dir / p).is_file() and file_digest(self.out_dir / p) == sha
            for p, sha in outputs.items())
        self.outputs = outputs if unchanged else {}
        return unchanged


def run_pipeline(cfg: PipelineConfig, through: str = "evaluate") -> Path:
    """Execute the stages in dependency order up to and including the one
    named ``through``; returns the artifact directory. Fails with ``out/``
    untouched if a file the config names is missing, or if the ``gold`` or
    ``identifiers`` file does not parse; every other parameter was checked
    when ``cfg`` was made. Only a run through ``evaluate`` writes
    ``manifest.json``; an earlier stop leaves the later stages' artifacts
    and stamps for the next run to judge."""
    inputs = cfg.input_files()
    # parsed once, here, so that a bad file fails no later stage
    gold = evaluation.load_gold(cfg.gold) if cfg.gold else None
    identifiers = align_url.load_identifier_set(cfg.identifiers) if cfg.identifiers else None
    out = Path(cfg.out)
    manifest: dict[str, Any] = {
        "parameters": cfg.parameters(),
        "inputs": {path: file_digest(path) for path in inputs},
        "stages": {},
        "outputs": {},
    }

    # read corpus/ once, by the first stage that is not fresh and needs it
    @functools.cache
    def partitions() -> Partitions:
        return corpus.read_partitions(out / "corpus")

    # each _stage_* is looked up when it runs, so a wrapper set on this module is called
    stages = {
        "ingest": lambda: _stage_ingest(cfg, out, manifest),
        "lexicon": lambda: _stage_lexicon(cfg, out, manifest, partitions),
        "vectorize": lambda: _stage_vectorize(cfg, out, manifest, partitions),
        "align": lambda: _stage_align(cfg, out, manifest, partitions, identifiers),
        "mine": lambda: _stage_mine(cfg, out, manifest),
        "evaluate": lambda: _stage_evaluate(cfg, out, manifest, gold),
    }
    if through not in stages:
        raise ValueError(f"no stage {through!r}; the stages are {', '.join(stages)}")

    out.mkdir(parents=True, exist_ok=True)
    # a run that fails leaves no manifest of an earlier run beside FAILED
    (out / "FAILED").unlink(missing_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    for name, stage in stages.items():
        stage()
        if name == through:
            break
    if through == "evaluate":
        write_json(manifest, out / "manifest.json")
    return out


# --- stage work -----------------------------------------------------------
#
# One function per stage does the work, with its parameters taken from one
# ``PipelineConfig``. Each reads and writes the standard layout under the
# artifact directory ``cfg.out``; stamps and the manifest stay with the
# ``_stage_*`` wrappers below. ``run_pipeline`` is their one caller in the
# package; they stay public, with their checks, for library callers.


def ingest(cfg: PipelineConfig) -> None:
    """Parse the records of ``cfg.input`` and partition them by domain into
    ``corpus/``, replacing all of it. A line that is not UTF-8 or a record
    that does not parse fails the ingest with an error that starts
    ``<input>:<line>:``, before anything is written. The records hold one
    ``str`` per distinct token, shared, not one per occurrence."""
    records = []
    shared: dict[str, str] = {}
    for lineno, line in read_lines(cfg.input):
        if not line.strip(" \t\r\v\f"):  # only ASCII whitespace makes a line blank
            continue
        try:
            rec = corpus.parse_record(line, cfg.format)
        except (ParseError, SchemaError) as exc:
            raise type(exc)(f"{cfg.input}:{lineno}: {exc}") from exc
        if rec.lang == "und" and cfg.detect_language:
            rec.lang = corpus.detect_language(rec.tokens,
                                              confidence_floor=cfg.lang_confidence)
        rec.tokens = list(map(shared.setdefault, rec.tokens, rec.tokens))
        records.append(rec)
    partitions = corpus.group_by_domain(records)
    corpus_dir = Path(cfg.out) / "corpus"
    shutil.rmtree(corpus_dir, ignore_errors=True)  # no earlier domain or language survives
    corpus.write_partitions(partitions, corpus_dir)
    kept = sum(len(docs) for part in partitions.values() for docs in part.by_lang.values())
    log.info("ingest: %d records over %d domains; %d dropped as same-URL duplicates",
             len(records), len(partitions), len(records) - kept)


def _lang_docs(partitions: Partitions, lang: str) -> list[corpus.DocumentRecord]:
    """The documents of ``lang`` in corpus order: domains sorted, then
    ``docs(lang)``, the order of the rows of ``docs.tsv``."""
    return [doc for domain in sorted(partitions) for doc in partitions[domain].docs(lang)]


def _token_ids(docs: list[corpus.DocumentRecord]) -> tuple[np.ndarray, Sequence[str]]:
    """The token ids of ``docs``, records read back from one ``corpus/``,
    concatenated, and the words of that corpus, which they index."""
    if not docs:
        return np.zeros(0, dtype=np.int32), []
    return np.concatenate([d.tokens.ids for d in docs]), docs[0].tokens.words


def build_lexicon(cfg: PipelineConfig, partitions: Partitions) -> None:
    """Write ``vocab/<lang>.txt`` for the pivot and every language of
    ``cfg.langs``, and ``lexicon/<lang>.tsv`` for every language of
    ``cfg.langs`` from its translation resource. ``partitions`` are read
    back from ``corpus/``: the vocabularies count their token ids."""
    vocab_dir = Path(cfg.out) / "vocab"
    lex_dir = Path(cfg.out) / "lexicon"
    pivot = cfg.pivot
    stoplist = _load_stopwords(cfg.stopwords)
    vocab_dir.mkdir(parents=True, exist_ok=True)
    lex_dir.mkdir(parents=True, exist_ok=True)

    vocabs: dict[str, vectorspace.Vocabulary] = {}
    for lang in [pivot, *cfg.langs]:
        ids, words = _token_ids(_lang_docs(partitions, lang))
        vocabs[lang] = vectorspace.build_vocabulary(
            ids, words, cfg.skip_top_k, cfg.vocab_size, stoplist
        )
        vectorspace.save_vocabulary(vocabs[lang], vocab_dir / f"{lang}.txt")

    # the tables keep only entries between the two vocabularies, in their ids
    for lang in cfg.langs:
        res = cfg.resources[lang]
        pivot_vocab, other_vocab = vocabs[pivot], vocabs[lang]
        if res.table_fwd:
            p_fwd = lexicon.load_translation_table(res.table_fwd, pivot_vocab.index,
                                                   other_vocab.index)
            p_bwd = lexicon.load_translation_table(res.table_bwd, other_vocab.index,
                                                   pivot_vocab.index)
        else:
            emb_pivot = lexicon.load_embeddings(res.embeddings_pivot)
            emb_other = lexicon.load_embeddings(res.embeddings_other)
            p_fwd, p_bwd = lexicon.table_from_embeddings(
                emb_pivot, emb_other, pivot_vocab.index, other_vocab.index,
                top_n=cfg.top_n, src_lang=pivot, tgt_lang=lang,
            )
        scores = lexicon.pair_scores(p_fwd, p_bwd)
        align = lexicon.build_alignment(scores, lang, pivot_vocab.words, other_vocab.words)
        violations = lexicon.reverse_condition_violations(scores)
        if violations:
            log.info("lexicon %s: %d pairs violate the reverse argmax condition",
                     lang, violations)
        lexicon.save_alignment(align, lex_dir / f"{lang}.tsv")


def _load_stopwords(path: Optional[str]) -> Optional[set[str]]:
    if not path:
        return None
    return {word.strip().lower() for _lineno, word in read_lines(path)} - {""}


def vectorize_corpus(cfg: PipelineConfig, partitions: Partitions) -> None:
    """Project the pivot and every language of ``cfg.langs`` into the pivot
    space of ``vocab/<pivot>.txt`` through ``lexicon/<lang>.tsv``; writes
    ``vectors/<lang>/`` and ``idf/<lang>.tsv``. ``partitions`` are read back
    from ``corpus/``: their token ids are mapped to dimensions."""
    out, pivot = Path(cfg.out), cfg.pivot
    vec_dir = out / "vectors"
    idf_dir = out / "idf"
    pivot_vocab = vectorspace.load_vocabulary(out / "vocab" / f"{pivot}.txt")
    vec_dir.mkdir(parents=True, exist_ok=True)
    idf_dir.mkdir(parents=True, exist_ok=True)

    for lang in [pivot, *cfg.langs]:
        if lang != pivot:
            align = lexicon.load_alignment(out / "lexicon" / f"{lang}.tsv", lang,
                                           pivot_vocab.index)
        docs = _lang_docs(partitions, lang)
        # token ids to pivot dimensions through one lookup array over the words
        words = docs[0].tokens.words if docs else []
        if lang == pivot:
            lookup = vectorspace.lookup_array(pivot_vocab.index, words)
            dims = (lookup[d.tokens.ids] for d in docs)
        else:
            tokens = lexicon.token_map(align, words, pivot_vocab.index)
            dims = (lexicon.map_document(d, tokens) for d in docs)
        _save_vectors(dims, pivot_vocab, idf_dir / f"{lang}.tsv", vec_dir / lang)


def _save_vectors(dims, pivot_vocab: vectorspace.Vocabulary, idf_path: Path,
                  vec_path: Path) -> None:
    """Count, weigh and save the vectors of one language's documents, each
    given as an array of pivot dimensions. Its arrays are freed on return,
    before the next language's are built."""
    terms = vectorspace.count_terms(dims, len(pivot_vocab))
    idf = vectorspace.compute_idf(terms)
    vectorspace.save_idf(idf, pivot_vocab, idf_path)
    vectorspace.save_vectors(vectorspace.vectorize(terms, idf), vec_path)


def align_by_content(cfg: PipelineConfig, partitions: Partitions) -> None:
    """CDA alignment of the vectors in ``vectors/`` into ``pairs.tsv``; every
    dimension must index a word of ``vocab/<pivot>.txt``, and ``align_corpus``
    checks that each table has one row per ``corpus/`` document. The log line
    counts, per tag, the documents in neither the pivot nor ``cfg.langs``."""
    out, pivot = Path(cfg.out), cfg.pivot
    dims = len(vectorspace.load_vocabulary(out / "vocab" / f"{pivot}.txt"))
    vectors = {}
    for lang in [pivot, *cfg.langs]:
        vectors[lang] = table = vectorspace.load_vectors(out / "vectors" / lang)
        if table.indices.size and (table.indices.min() < 0 or table.indices.max() >= dims):
            raise FormatError(f"{out / 'vectors' / lang / 'indices.npy'}: dimension "
                              f"outside the {dims}-word pivot vocabulary")
    stats: dict = {}
    pairs = align_cda.align_corpus(partitions, vectors, pivot, cfg.langs, cfg.threshold,
                                   stats=stats)
    align_cda.save_pairs(pairs, out / "pairs.tsv")
    outside: dict[str, int] = {}
    for part in partitions.values():
        for lang, docs in part.by_lang.items():
            if lang not in vectors:
                outside[lang] = outside.get(lang, 0) + len(docs)
    tags = ", ".join(f"{lang} {n}" for lang, n in sorted(outside.items()))
    log.info("align: %d pairs; scored %d of %d possible candidates; %d documents in "
             "languages outside pivot and langs%s", len(pairs), stats["scored_pairs"],
             stats["possible_pairs"], sum(outside.values()), f" ({tags})" if tags else "")


def align_by_url(cfg: PipelineConfig, partitions: Partitions,
                 ids: align_url.IdentifierSet) -> None:
    """URL-baseline alignment into ``pairs_url.tsv``, stripping the
    identifiers ``ids``."""
    pairs = align_url.align_corpus_by_url(partitions, cfg.pivot, cfg.langs, ids)
    pairs.sort(key=lambda p: (p.domain, p.other_lang, p.pivot_url, p.other_url))
    align_cda.save_pairs(pairs, Path(cfg.out) / "pairs_url.tsv")
    log.info("align-url: %d pairs", len(pairs))


def write_report(cfg: PipelineConfig, gold: evaluation.Gold) -> None:
    """Recall of ``pairs.tsv``, and of ``pairs_url.tsv`` when
    ``cfg.url_align``, against ``gold``, the pairs of ``cfg.gold``, into
    ``report.json``."""
    out = Path(cfg.out)
    reports = {"cda": vars(evaluation.evaluate_recall(
        align_cda.load_pairs(out / "pairs.tsv"), gold))}
    if cfg.url_align:
        reports["url"] = vars(evaluation.evaluate_recall(
            align_cda.load_pairs(out / "pairs_url.tsv"), gold))
    write_json(reports, out / "report.json")


# --- stages ----------------------------------------------------------------
#
# Each ``_stage_*`` declares its digest key, the paths it owns (every file
# its work writes is at or under one of them) and its work; ``_run_stage``
# does the rest.


def _run_stage(out: Path, manifest: dict, name: str, key: dict, owns: list[Path],
               work: Callable[[], None], enabled: bool = True) -> None:
    """Skip the stage if it is fresh. Otherwise drop its stamp and every
    path in ``owns``, run ``work`` and stamp it with the sha256 of each file
    now under ``owns``. Either way the stamp's outputs go into
    ``manifest["outputs"]``. A stage the config turns off is only dropped.
    A failure leaves ``FAILED`` naming the stage."""
    stage = _Stage(out, name, digest_of({"stage": name, **key}))
    try:
        if enabled and stage.fresh():
            log.info("%s: up to date, skipping", name)
        else:
            stage.stamp_path.unlink(missing_ok=True)
            for path in owns:
                if path.is_dir():
                    shutil.rmtree(path)
                else:
                    path.unlink(missing_ok=True)
            if not enabled:
                return
            work()
            written = [Path(top, f) for path in owns
                       for top, _dirs, files in os.walk(path) for f in files]
            written += [path for path in owns if path.is_file()]
            stage.outputs = {path.relative_to(out).as_posix(): file_digest(path)
                             for path in written}
            stamp = {"digest": stage.digest, "outputs": stage.outputs}
            stage.stamp_path.parent.mkdir(exist_ok=True)
            stage.stamp_path.write_text(json.dumps(stamp, sort_keys=True), encoding="utf-8")
        manifest["stages"][name] = stage.digest
        manifest["outputs"].update(stage.outputs)
    except Exception:
        (out / "FAILED").write_text(name + "\n", encoding="utf-8")
        raise


def _stage_ingest(cfg: PipelineConfig, out: Path, manifest: dict) -> None:
    _run_stage(out, manifest, "ingest", {
        "input": manifest["inputs"][cfg.input],
        "format": cfg.format,
        "lang_confidence": cfg.lang_confidence,
        "detect_language": cfg.detect_language,
    }, [out / "corpus"], lambda: ingest(cfg))


def _stage_lexicon(cfg: PipelineConfig, out: Path, manifest: dict,
                   partitions: Callable[[], Partitions]) -> None:
    _run_stage(out, manifest, "lexicon", {
        "ingest": manifest["stages"]["ingest"],
        "vocab_size": cfg.vocab_size,
        "skip_top_k": cfg.skip_top_k,
        "stopwords": manifest["inputs"].get(cfg.stopwords),
        "top_n": cfg.top_n,
        "resources": {lang: [manifest["inputs"][p] for p in cfg.resources[lang].paths()]
                      for lang in cfg.langs},
        "langs": cfg.langs,
        "pivot": cfg.pivot,
    }, [out / "vocab", out / "lexicon"], lambda: build_lexicon(cfg, partitions()))


def _stage_vectorize(cfg: PipelineConfig, out: Path, manifest: dict,
                     partitions: Callable[[], Partitions]) -> None:
    _run_stage(out, manifest, "vectorize", {
        "lexicon": manifest["stages"]["lexicon"],
    }, [out / "vectors", out / "idf"], lambda: vectorize_corpus(cfg, partitions()))


def _stage_align(cfg: PipelineConfig, out: Path, manifest: dict,
                 partitions: Callable[[], Partitions],
                 identifiers: Optional[align_url.IdentifierSet]) -> None:
    def work() -> None:
        align_by_content(cfg, partitions())
        if cfg.url_align:
            align_by_url(cfg, partitions(),
                         identifiers or align_url.default_identifier_set())

    _run_stage(out, manifest, "align", {
        "vectorize": manifest["stages"]["vectorize"],
        "threshold": cfg.threshold,
        "url_align": cfg.url_align,
        "identifiers": manifest["inputs"].get(cfg.identifiers),
    }, [out / "pairs.tsv", out / "pairs_url.tsv"], work)


def _stage_mine(cfg: PipelineConfig, out: Path, manifest: dict) -> None:
    candidates = out / "candidates.tsv"
    _run_stage(out, manifest, "mine", {
        "align": manifest["stages"]["align"],
        "min_support": cfg.min_support,
    }, [candidates], lambda: miner.save_candidates(miner.mine_identifiers(
        align_cda.load_pairs(out / "pairs.tsv"), min_support=cfg.min_support), candidates),
        enabled=cfg.mine)


def _stage_evaluate(cfg: PipelineConfig, out: Path, manifest: dict,
                    gold: Optional[evaluation.Gold]) -> None:
    _run_stage(out, manifest, "evaluate", {
        "align": manifest["stages"]["align"],
        "gold": manifest["inputs"].get(cfg.gold),
    }, [out / "report.json"], lambda: write_report(cfg, gold), enabled=gold is not None)
