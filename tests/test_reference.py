"""``run_pipeline`` against the reference model of ``tests/reference.py``,
end to end, and a guard that keeps the reference independent of the code it
checks."""

import ast
import json
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from docalign import align_cda, vectorspace
from docalign.corpus import domain_of, read_partitions, tokenize
from docalign.pipeline import PipelineConfig, run_pipeline
from tests import reference

PIVOT = "en"
# pages use words 0-5 of each language; the resources also know words 6 and 7
_PAGE_WORDS, _RESOURCE_WORDS = 6, 8
# few values, so that tied probabilities and coordinates are common
_PROBS = (0.25, 0.5, 1.0)
_COORDS = (-1.0, 0.0, 0.5, 1.0)


def _text(prefix, words):
    return " ".join(f"{prefix}{w}" for w in words)


def _pages(rnd, langs, silent):
    """Input records: per domain, pivot pages with a translation in most
    languages but ``silent``, which has none, under a URL of another number,
    and an untagged page; then same-URL duplicates, at least one longer, one
    shorter and one of equal length, some in another language or untagged;
    shuffled."""
    records = []
    for domain in rnd.sample(["a.com", "b.org", "c.net"], rnd.randint(1, 3)):
        n = rnd.randint(1, 4)
        numbers = {lang: rnd.sample(range(n), n) for lang in langs}
        for page in range(n):
            words = [rnd.randrange(_PAGE_WORDS) for _ in range(rnd.randint(0, 8))]
            records.append({"url": f"http://{domain}/en/{page}", "lang": PIVOT,
                            "text": _text("e", words)})
            for lang in langs:
                if lang != silent and rnd.random() < 0.8:
                    kept = [w for w in words if rnd.random() < 0.8]
                    kept += [rnd.randrange(_PAGE_WORDS) for _ in range(rnd.randint(0, 2))]
                    records.append({"url": f"http://{domain}/{lang}/{numbers[lang][page]}",
                                    "lang": lang, "text": _text(lang, kept)})
        records.append({"url": f"http://{domain}/und", "text": _text("e", words)})
    tagged = [lang for lang in langs if lang != silent]
    for kind in ["longer", "shorter", "equal"] * rnd.randint(1, 2):
        rec = rnd.choice(records)
        words = rec["text"].split()
        if kind == "longer":
            words.append(rnd.choice(words or ["e0"]))
        elif kind == "shorter":
            words = words[:-1]
        elif words:  # another word of the same length
            i = rnd.randrange(len(words))
            words[i] = words[i][:-1] + str(rnd.randrange(_PAGE_WORDS))
        dup = {"url": rec["url"], "text": " ".join(words)}
        lang = rnd.choice([rec.get("lang"), rec.get("lang"), "", None, *tagged])
        if lang is not None or rnd.random() < 0.5:
            dup["lang"] = lang
        records.append(dup)
    rnd.shuffle(records)
    return records


def _tables(rnd, lang):
    """The resource of ``lang``, P_fwd (pivot -> lang) and P_bwd (lang ->
    pivot): each word's translation and, for some words, one more entry."""
    fwd, bwd = {}, {}
    for i in range(_RESOURCE_WORDS):
        fwd[(f"e{i}", f"{lang}{i}")] = rnd.choice(_PROBS)
        bwd[(f"{lang}{i}", f"e{i}")] = rnd.choice(_PROBS)
        if rnd.random() < 0.5:
            fwd[(f"e{i}", f"{lang}{rnd.randrange(_RESOURCE_WORDS)}")] = rnd.choice(_PROBS)
        if rnd.random() < 0.5:
            bwd[(f"{lang}{i}", f"e{rnd.randrange(_RESOURCE_WORDS)}")] = rnd.choice(_PROBS)
    return {"table_fwd": fwd, "table_bwd": bwd}


def _embeddings(rnd, lang):
    """The resource of ``lang``, pivot and ``lang`` word vectors of 2
    dimensions: a translation's vector is its pivot word's, one coordinate
    changed at times; word 0 of each side is never a zero vector."""
    pivot = {f"e{i}": [rnd.choice(_COORDS), rnd.choice(_COORDS)]
             for i in range(_RESOURCE_WORDS)}
    other = {}
    for i, vector in enumerate(pivot.values()):
        vector = list(vector)
        if rnd.random() < 0.3:
            vector[rnd.randrange(2)] = rnd.choice(_COORDS)
        other[f"{lang}{i}"] = vector
    pivot["e0"][0] = other[f"{lang}0"][0] = 1.0
    return {"embeddings_pivot": pivot, "embeddings_other": other}


@st.composite
def crawls(draw):
    """Input records, the configured languages with their translation
    resources (tables, or embeddings for at most one language) and the
    config's settings. At times the records hold no pivot page, or there is
    no record at all."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    langs = sorted(draw(st.permutations(["de", "fr", "it"]))[:draw(st.integers(2, 3))])
    silent = draw(st.sampled_from(langs))
    records = _pages(rnd, langs, silent)
    kept = draw(st.sampled_from(["every record"] * 4 + ["no pivot page", "no record"]))
    event(kept)
    if kept == "no pivot page":
        records = [r for r in records if r.get("lang") != PIVOT]
    elif kept == "no record":
        records = []
    embedded = draw(st.sampled_from([None, *langs]))
    resources = {lang: _embeddings(rnd, lang) if lang == embedded else _tables(rnd, lang)
                 for lang in langs}
    config = {
        "vocab_size": draw(st.sampled_from([3, 1000])),
        "skip_top_k": draw(st.sampled_from([0, 1])),
        "stopwords": draw(st.sampled_from([(), ("e1",), ("e0", f"{langs[0]}2")])),
        "threshold": draw(st.sampled_from([0.0, 0.1, 0.3])),
        "top_n": draw(st.sampled_from([1, 2, 20])),
    }
    return records, resources, config


def _file_text(key, content):
    """A translation table or an embeddings file as text."""
    if key.startswith("table"):
        return "".join(f"{s}\t{t}\t{p!r}\n" for (s, t), p in content.items())
    return f"{len(content)} 2\n" + "".join(f"{w} {x!r} {y!r}\n" for w, (x, y) in content.items())


def _config(root, records, resources, config):
    """Write the crawl's input files under ``root``; the config of a run over
    them into ``root/out``."""
    def write(name, text):
        (root / name).write_text(text, encoding="utf-8")
        return str(root / name)

    paths = {lang: {key: write(f"{key}_{lang}.txt", _file_text(key, content))
                    for key, content in res.items()} for lang, res in resources.items()}
    stopwords = None
    if config["stopwords"]:
        stopwords = write("stopwords.txt", "".join(w + "\n" for w in config["stopwords"]))
    return PipelineConfig.from_dict({
        **config, "input": write("input.jsonl", "".join(json.dumps(r) + "\n" for r in records)),
        "out": str(root / "out"), "stopwords": stopwords, "pivot": PIVOT,
        "langs": sorted(resources), "resources": paths, "detect_language": False})


def _record(line):
    """An input record as ingest reads it, with ``detect_language`` off."""
    lang = line.get("lang") or "und"
    return {"url": line["url"], "domain": domain_of(line["url"]), "lang": lang,
            "tokens": tokenize(line["text"]), "raw_length": len(line["text"])}


def reference_artifacts(records, resources, config):
    """The text of every ``vocab/``, ``lexicon/`` and ``idf/`` file and of
    ``pairs.tsv``, the rows of each language's vectors and the links as
    ``(domain, pivot URL, other URL, language, score)``, by the reference
    model."""
    records = reference.dedupe(map(_record, records))
    langs = sorted(resources)
    docs = {lang: [r for r in records if r["lang"] == lang] for lang in [PIVOT, *langs]}
    vocab = {lang: reference.vocabulary([r["tokens"] for r in lang_docs], config["skip_top_k"],
                                        config["vocab_size"], set(config["stopwords"]))
             for lang, lang_docs in docs.items()}
    files = {f"vocab/{lang}.txt": "".join(w + "\n" for w in words)
             for lang, words in vocab.items()}

    pivot_vocab = vocab[PIVOT]
    to_pivot = {PIVOT: {w: w for w in pivot_vocab}}
    for lang, res in resources.items():
        if "table_fwd" in res:
            p_fwd, p_bwd = res["table_fwd"], res["table_bwd"]
        else:
            p_fwd, p_bwd = reference.embedding_tables(res["embeddings_pivot"],
                                                      res["embeddings_other"], config["top_n"])
        scores = reference.pair_scores(p_fwd, p_bwd, pivot_vocab, vocab[lang])
        _pairs, to_pivot[lang], best = reference.alignment(scores)
        files[f"lexicon/{lang}.tsv"] = "".join(f"{w}\t{to_pivot[lang][w]}\t{best[w]:.9g}\n"
                                               for w in sorted(to_pivot[lang]))

    vectors = {}
    for lang, lang_docs in docs.items():
        mapped = [reference.map_tokens(r["tokens"], to_pivot[lang]) for r in lang_docs]
        files[f"idf/{lang}.tsv"] = reference.idf_file(mapped, pivot_vocab)
        _n, _df, idf = reference.idf(mapped, pivot_vocab)
        vectors[lang] = [reference.tfidf(words, pivot_vocab, idf) for words in mapped]

    links = []
    for domain in sorted({r["domain"] for r in records}):
        block = {lang: {r["url"]: v for r, v in zip(docs[lang], vectors[lang])
                        if r["domain"] == domain} for lang in docs}
        for lang in langs:
            scores, _scored = reference.block_scores(block[PIVOT], block[lang],
                                                     config["threshold"])
            links += [(domain, p, o, lang, s) for p, o, s in reference.greedy(scores)]
    files["pairs.tsv"] = "".join(f"{domain}\t{p}\t{o}\t{lang}\t{s:.6f}\tcda\n"
                                 for domain, p, o, lang, s in links)
    return files, vectors, links


def _artifacts(out, langs, threshold):
    """What ``run_pipeline`` wrote: the same files and vector rows; and the
    links that ``align_corpus`` makes of its ``corpus/`` and ``vectors/``,
    with their scores at full precision, which ``pairs.tsv`` rounds.
    ``langs`` lists the pivot first."""
    files = {p.relative_to(out).as_posix(): p.read_bytes().decode("utf-8")
             for name in ("vocab", "lexicon", "idf") for p in sorted((out / name).iterdir())}
    files["pairs.tsv"] = (out / "pairs.tsv").read_bytes().decode("utf-8")
    assert sorted(p.name for p in (out / "vectors").iterdir()) == sorted(langs)
    tables = {lang: vectorspace.load_vectors(out / "vectors" / lang) for lang in langs}
    vectors = {}
    for lang, table in tables.items():
        bounds = table.indptr.tolist()
        vectors[lang] = [list(zip(table.indices[lo:hi].tolist(), table.data[lo:hi].tolist()))
                         for lo, hi in zip(bounds, bounds[1:])]
    links = [(p.domain, p.pivot_url, p.other_url, p.other_lang, p.score)
             for p in align_cda.align_corpus(read_partitions(out / "corpus"), tables,
                                             PIVOT, langs[1:], threshold)]
    return files, vectors, links


# chunks of one or a few documents, ids and products, and one band per link,
# so that every chunked and banded path runs on these small crawls
@settings(max_examples=100, deadline=None)
@given(crawl=crawls(), chunk_rows=st.sampled_from([1, 2, vectorspace.CHUNK_ROWS]),
       chunk_ids=st.sampled_from([1, 3, vectorspace.CHUNK_IDS]),
       budget=st.sampled_from([1, 7, align_cda.PRODUCT_BUDGET]),
       first_band=st.sampled_from([1, align_cda.FIRST_BAND]))
def test_run_pipeline_equals_reference(crawl, chunk_rows, chunk_ids, budget, first_band):
    records, resources, config = crawl
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(vectorspace, "CHUNK_ROWS", chunk_rows), \
            mock.patch.object(vectorspace, "CHUNK_IDS", chunk_ids), \
            mock.patch.object(align_cda, "PRODUCT_BUDGET", budget), \
            mock.patch.object(align_cda, "FIRST_BAND", first_band):
        out = run_pipeline(_config(Path(tmp), records, resources, config))
        files, vectors, links = _artifacts(out, [PIVOT, *sorted(resources)],
                                           config["threshold"])
    expected_files, expected_vectors, expected_links = \
        reference_artifacts(records, resources, config)
    # --hypothesis-show-statistics reports the share of examples with a pair
    event("a pair emitted" if files["pairs.tsv"] else "no pair emitted")
    assert files == expected_files
    assert vectors == expected_vectors  # exact: the same sums in the same order
    assert links == expected_links  # exact: the scores that pairs.tsv rounds


# --- the reference stays independent of docalign -------------------------

# the parsers of inputs that CDA does not define
_ALLOWED = {("docalign.corpus", "domain_of"), ("docalign.corpus", "tokenize"),
            ("docalign.lexicon", "load_embeddings")}


def imports_beyond_parsers(source):
    """The imports in ``source`` that may reach docalign's code other than
    the allowed parsers: any docalign name not in ``_ALLOWED``, and any module
    neither of the standard library, nor numpy, nor docalign, such as a test
    module that imports docalign itself."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = [(module, alias.name) for alias in node.names]
        else:
            continue
        for module, name in names:
            top = module.split(".")[0]
            if top == "docalign":
                if (module, name) not in _ALLOWED:
                    bad.append(f"{module}.{name}" if name else module)
            elif top not in sys.stdlib_module_names and top != "numpy":
                bad.append(module)
    return bad


def test_reference_imports_no_docalign_code():
    source = (Path(__file__).parent / "reference.py").read_text(encoding="utf-8")
    assert imports_beyond_parsers(source) == []


@pytest.mark.parametrize("line, flagged", [
    ("import docalign.vectorspace", True),
    ("from docalign import vectorspace", True),
    ("from docalign.vectorspace import idf_value", True),
    ("import docalign", True),
    ("from docalign.corpus import read_partitions", True),
    ("from tests.conftest import make_record", True),
    ("from .conftest import make_record", True),
    ("from docalign.corpus import domain_of, tokenize", False),
    ("from docalign.lexicon import load_embeddings", False),
    ("import numpy as np", False),
    ("from collections import Counter", False),
])
def test_guard_flags_imports_of_docalign_code(line, flagged):
    assert bool(imports_beyond_parsers(f"x = 1\n{line}\n")) == flagged
