import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from docalign.align_cda import ScoreMatrix
from docalign.corpus import CorpusPartition, DocumentRecord, domain_of
from docalign.vectorspace import VectorTable


def make_record(url, tokens, lang="en", raw_length=None):
    return DocumentRecord(
        url=url,
        domain=domain_of(url),
        lang=lang,
        tokens=list(tokens),
        raw_length=raw_length if raw_length is not None else len(" ".join(tokens)),
    )


def write_jsonl_partitions(partitions, out_dir):
    """The ``corpus/`` layout that the three-file format replaced, kept as
    its oracle: one directory per domain, one JSON-lines file per language,
    one ``DocumentRecord.serialized()`` line per document."""
    out = Path(out_dir)
    for domain, part in sorted(partitions.items()):
        ddir = out / domain
        ddir.mkdir(parents=True, exist_ok=True)
        for lang, docs in sorted(part.by_lang.items()):
            with open(ddir / f"{lang}.jsonl", "w", encoding="utf-8") as fh:
                for rec in docs:
                    fh.write(rec.serialized() + "\n")


def read_jsonl_partitions(corpus_dir):
    """Inverse of ``write_jsonl_partitions``."""
    partitions = {}
    for ddir in sorted(p for p in Path(corpus_dir).iterdir() if p.is_dir()):
        by_lang = {}
        for f in sorted(ddir.glob("*.jsonl")):
            with open(f, encoding="utf-8") as fh:
                docs = [DocumentRecord(**json.loads(line)) for line in fh if line.strip()]
            if docs:
                by_lang[f.stem] = docs
        if by_lang:
            partitions[ddir.name] = CorpusPartition(domain=ddir.name, by_lang=by_lang)
    return partitions


@dataclass
class SparseVector:
    """Sorted (dimension, weight) entries; weights strictly positive."""

    doc_url: str
    entries: list[tuple[int, float]]

    def norm(self) -> float:
        return math.sqrt(sum(w * w for _d, w in self.entries))


def vectorize_document(tokens, vocab, idf, doc_url=""):
    """The per-document ``Counter`` projection that ``vectorspace.vectorize``
    replaced, kept as its oracle: TF x IDF over the vocabulary,
    l2-normalized, as a SparseVector."""
    tf = Counter()
    for w in tokens:
        dim = vocab.index.get(w)
        if dim is not None:
            tf[dim] += 1
    raw = [(dim, count * idf.idf[dim]) for dim, count in tf.items()]
    raw = [(dim, w) for dim, w in raw if w > 0.0]
    norm = math.sqrt(sum(w * w for _d, w in raw))
    if norm > 0.0:
        entries = sorted((dim, w / norm) for dim, w in raw)
    else:
        entries = []
    return SparseVector(doc_url=doc_url, entries=entries)


def vector_table(vectors):
    """A VectorTable holding the given SparseVectors, in order."""
    vectors = list(vectors)
    entries = [e for v in vectors for e in v.entries]
    return VectorTable(
        urls=[v.doc_url for v in vectors],
        indptr=np.cumsum([0] + [len(v.entries) for v in vectors], dtype=np.int64),
        indices=np.array([d for d, _w in entries], dtype=np.int64),
        data=np.array([w for _d, w in entries], dtype=np.float64),
    )


def score_matrix(scores, domain="d.com", lang="fr"):
    """A ScoreMatrix holding a {(pivot_url, other_url): score} dict. URLs
    are indexed in reverse sorted order, so a matcher that broke ties by
    index instead of by URL would disagree with URL order."""
    pivot_urls = sorted({p for p, _o in scores}, reverse=True)
    other_urls = sorted({o for _p, o in scores}, reverse=True)
    p_index = {u: i for i, u in enumerate(pivot_urls)}
    o_index = {u: i for i, u in enumerate(other_urls)}
    return ScoreMatrix(
        domain=domain, other_lang=lang,
        pivot_urls=pivot_urls, other_urls=other_urls,
        pivot=np.array([p_index[p] for p, _o in scores], dtype=np.int64),
        other=np.array([o_index[o] for _p, o in scores], dtype=np.int64),
        scores=np.array(list(scores.values()), dtype=np.float64),
    )


def matrix_entries(matrix):
    """A ScoreMatrix's stored scores as {(pivot_url, other_url): score}."""
    return {
        (matrix.pivot_urls[p], matrix.other_urls[o]): s
        for p, o, s in zip(matrix.pivot.tolist(), matrix.other.tolist(),
                           matrix.scores.tolist())
    }


class SyntheticCorpus:
    """A generated multilingual corpus with known gold alignments.

    Pivot documents are sampled from a Zipf-weighted vocabulary; each
    non-pivot counterpart is produced by a dictionary (bijective unless
    ``wrong_fraction`` > 0) with a fraction of tokens dropped.
    """

    def __init__(self, n_domains=20, docs_per_domain=50, vocab_size=2000,
                 lang="fr", dropout=0.1, wrong_fraction=0.0,
                 doc_len=(80, 150), seed=0):
        rng = random.Random(seed)
        self.lang = lang
        self.pivot_words = [f"e{i:04d}" for i in range(vocab_size)]
        self.other_words = [f"f{i:04d}" for i in range(vocab_size)]
        weights = [1.0 / (r + 1) for r in range(vocab_size)]

        # dictionary: f_i -> e_i, except a fraction remapped to a wrong,
        # already-used pivot word (making it non-bijective and noisy)
        self.dictionary = dict(zip(self.other_words, self.pivot_words))
        n_wrong = int(wrong_fraction * vocab_size)
        for fw in rng.sample(self.other_words, n_wrong):
            self.dictionary[fw] = rng.choice(self.pivot_words[:200])

        to_other = dict(zip(self.pivot_words, self.other_words))

        self.records = []
        self.gold = []
        for d in range(n_domains):
            domain = f"site{d:02d}.example"
            for i in range(docs_per_domain):
                n = rng.randint(*doc_len)
                tokens = rng.choices(self.pivot_words, weights=weights, k=n)
                purl = f"http://{domain}/en/page{i:03d}.html"
                self.records.append({"url": purl, "lang": "en",
                                     "text": " ".join(tokens)})
                translated = [
                    to_other[t] for t in tokens if rng.random() >= dropout
                ]
                ourl = f"http://{domain}/{lang}/page{i:03d}.html"
                self.records.append({"url": ourl, "lang": lang,
                                     "text": " ".join(translated)})
                self.gold.append((purl, ourl))

    def write(self, root: Path):
        """Write input.jsonl, translation tables and gold.tsv under root."""
        root.mkdir(parents=True, exist_ok=True)
        inp = root / "input.jsonl"
        with open(inp, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        fwd = root / f"table_en_{self.lang}.tsv"  # pivot -> other
        bwd = root / f"table_{self.lang}_en.tsv"
        with open(fwd, "w") as ffh, open(bwd, "w") as bfh:
            for fw, ew in sorted(self.dictionary.items()):
                ffh.write(f"{ew}\t{fw}\t1.0\n")
                bfh.write(f"{fw}\t{ew}\t1.0\n")
        gold = root / "gold.tsv"
        with open(gold, "w") as fh:
            for purl, ourl in self.gold:
                fh.write(f"{purl}\t{ourl}\n")
        return {"input": inp, "table_fwd": fwd, "table_bwd": bwd, "gold": gold}

    def config(self, root: Path, out: Path, **overrides):
        paths = self.write(root)
        cfg = {
            "input": str(paths["input"]),
            "out": str(out),
            "pivot": "en",
            "langs": [self.lang],
            "resources": {
                self.lang: {
                    "table_fwd": str(paths["table_fwd"]),
                    "table_bwd": str(paths["table_bwd"]),
                }
            },
            "vocab_size": 1000,
            "skip_top_k": 0,
            "threshold": 0.1,
            "gold": str(paths["gold"]),
            "detect_language": False,
        }
        cfg.update(overrides)
        return cfg


@pytest.fixture
def tiny_corpus(tmp_path):
    """A 2-domain, 2-language corpus small enough to inspect by hand."""
    corpus = SyntheticCorpus(n_domains=2, docs_per_domain=5, vocab_size=60,
                             doc_len=(20, 30), seed=7)
    return corpus, tmp_path
