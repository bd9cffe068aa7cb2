import json
import math
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np

from docalign.align_cda import ScoreMatrix
from docalign.corpus import CorpusPartition, DocumentRecord, TokenView, domain_of
from docalign.errors import ConfigError, UsageError
from docalign.vectorspace import VectorTable, Vocabulary


def make_record(url, tokens, lang="en", raw_length=None):
    return DocumentRecord(
        url=url,
        domain=domain_of(url),
        lang=lang,
        tokens=list(tokens),
        raw_length=raw_length if raw_length is not None else len(" ".join(tokens)),
    )


def interned(docs):
    """Token lists as ``corpus/`` holds them: one int32 id array per list,
    over the distinct tokens in first-use order, and those words."""
    index = {}
    ids = [np.array([index.setdefault(t, len(index)) for t in doc], dtype=np.int32)
           for doc in docs]
    return ids, list(index)


def id_record(url, tokens, words, lang="en"):
    """A record as ``read_partitions`` gives it: its tokens a ``TokenView``
    over ``words``, which must hold every token."""
    ids = np.array([words.index(t) for t in tokens], dtype=np.int32)
    return DocumentRecord(url=url, domain=domain_of(url), lang=lang,
                          tokens=TokenView(ids, np.array(words, dtype=object)),
                          raw_length=len(" ".join(tokens)))


def counter_vocabulary(docs, skip_top_k, capacity, stopwords=None):
    """The ``Counter`` pass over token lists that ``build_vocabulary`` over
    token ids replaced, kept as its oracle."""
    if skip_top_k < 0:
        raise ConfigError("skip_top_k must be >= 0")
    if capacity <= 0:
        raise ConfigError("capacity must be > 0")
    counts = Counter()
    for tokens in docs:
        counts.update(tokens)
    for w in stopwords or ():
        counts.pop(w, None)
    ranked = sorted(counts, key=lambda w: (-counts[w], w))
    return Vocabulary(words=ranked[skip_top_k:skip_top_k + capacity])


def dict_map_document(doc, align):
    """The per-token dict lookup that ``map_document`` over a token map
    replaced, kept as its oracle: the document's pivot words."""
    if doc.lang != align.other_lang:
        raise UsageError(f"document language {doc.lang!r} does not match alignment "
                         f"language {align.other_lang!r}")
    return [align.to_pivot[t] for t in doc.tokens if t in align.to_pivot]


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


def eager_token_rows(corpus_dir):
    """Each ``docs.tsv`` row's tokens as ``read_partitions`` decoded them
    before records held a ``TokenView``, kept as its oracle: every id of
    ``ids.npy`` through one object array of the words, then one list slice
    per row."""
    root = Path(corpus_dir)
    words = json.loads((root / "words.json").read_bytes())
    tokens = np.array(words, dtype=object)[np.load(root / "ids.npy")].tolist()
    rows, start = [], 0
    for line in (root / "docs.tsv").read_bytes().decode("utf-8").split("\n")[:-1]:
        n = int(line.split("\t")[4])
        rows.append(tokens[start:start + n])
        start += n
    return rows


@contextmanager
def token_decodes():
    """The ``TokenView``s whose tokens are decoded inside the block, each
    once, in the order they were decoded."""
    decoded = []
    decode = TokenView._decoded

    def spy(view):
        if view._tokens is None:
            decoded.append(view)
        return decode(view)

    with mock.patch.object(TokenView, "_decoded", spy):
        yield decoded


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


def vectorize_document(tokens, vocab, idf, doc_url=""):
    """The per-document ``Counter`` projection that ``vectorspace.vectorize``
    replaced, kept as its oracle: TF x IDF over the vocabulary,
    l2-normalized, as a SparseVector. The norm adds the squares in ascending
    dimension order in an explicit left-to-right loop, because ``sum()``
    compensates rounding from Python 3.12 on."""
    tf = Counter()
    for w in tokens:
        dim = vocab.index.get(w)
        if dim is not None:
            tf[dim] += 1
    raw = sorted((dim, count * idf.idf[dim]) for dim, count in tf.items())
    raw = [(dim, w) for dim, w in raw if w > 0.0]
    total = 0.0
    for _dim, w in raw:
        total += w * w
    norm = math.sqrt(total)
    return SparseVector(doc_url=doc_url, entries=[(dim, w / norm) for dim, w in raw])


def vector_table(vectors):
    """A VectorTable holding the given SparseVectors, in order."""
    vectors = list(vectors)
    entries = [e for v in vectors for e in v.entries]
    return VectorTable(
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


def greedy_oracle(scores):
    """Full sort + scan: entries by descending score, ties by URL pair; an
    entry is accepted iff neither endpoint is matched yet."""
    order = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
    used_p, used_o, out = set(), set(), []
    for (p, o), s in order:
        if p not in used_p and o not in used_o:
            used_p.add(p)
            used_o.add(o)
            out.append((p, o, s))
    return out


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


class MultilingualCorpus:
    """Pivot pages, each with a counterpart in every language of ``langs``.

    Word ``e0007`` of the pivot translates to word ``fr0007`` of French, and
    so on; a counterpart drops a fraction of the tokens. The languages of
    ``embedding_langs`` get word embeddings, in which a pivot word and its
    translation have nearby vectors; the others get translation tables.
    Each language draws from a random stream of its own, so a language's
    pages and resources do not depend on which other languages there are.
    """

    def __init__(self, langs, embedding_langs=(), n_domains=2, docs_per_domain=4,
                 vocab_size=40, doc_len=(15, 25), dropout=0.1, dim=8, seed=0):
        self.langs = sorted(langs)
        self.embedding_langs = set(embedding_langs)
        self.vocab_size = vocab_size
        self.seed = seed
        rng = random.Random(f"{seed}:en")
        weights = [1.0 / (r + 1) for r in range(vocab_size)]
        self.vectors = [[rng.gauss(0.0, 1.0) for _ in range(dim)] for _ in range(vocab_size)]
        self.pages = [(f"site{d:02d}.example", f"page{i:03d}",
                       rng.choices(range(vocab_size), weights=weights, k=rng.randint(*doc_len)))
                      for d in range(n_domains) for i in range(docs_per_domain)]
        self.dropout = dropout

    def _rng(self, lang):
        return random.Random(f"{self.seed}:{lang}")

    def write(self, root: Path, langs=None):
        """Write input.jsonl, gold.tsv and the resources of ``langs`` (all
        languages by default) under root; return the config's path fields."""
        langs = self.langs if langs is None else sorted(langs)
        root.mkdir(parents=True, exist_ok=True)
        records, gold = [], []
        for domain, page, tokens in self.pages:
            purl = f"http://{domain}/en/{page}.html"
            records.append({"url": purl, "lang": "en",
                            "text": " ".join(f"e{t:04d}" for t in tokens)})
        resources = {}
        for lang in langs:
            rng = self._rng(lang)
            for domain, page, tokens in self.pages:
                ourl = f"http://{domain}/{lang}/{page}.html"
                text = " ".join(f"{lang}{t:04d}" for t in tokens if rng.random() >= self.dropout)
                records.append({"url": ourl, "lang": lang, "text": text})
                gold.append((f"http://{domain}/en/{page}.html", ourl))
            resources[lang] = (self._embeddings(root, lang, rng) if lang in self.embedding_langs
                               else self._tables(root, lang))
        (root / "input.jsonl").write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8")
        (root / "gold.tsv").write_text("".join(f"{p}\t{o}\n" for p, o in gold),
                                       encoding="utf-8")
        return {"input": str(root / "input.jsonl"), "gold": str(root / "gold.tsv"),
                "langs": langs, "resources": resources}

    def _tables(self, root, lang):
        paths = {"table_fwd": root / f"table_en_{lang}.tsv",
                 "table_bwd": root / f"table_{lang}_en.tsv"}
        n = self.vocab_size
        paths["table_fwd"].write_text("".join(
            f"e{i:04d}\t{lang}{i:04d}\t0.8\ne{i:04d}\t{lang}{(i + 1) % n:04d}\t0.2\n"
            for i in range(n)), encoding="utf-8")
        paths["table_bwd"].write_text("".join(
            f"{lang}{i:04d}\te{i:04d}\t0.9\n" for i in range(n)), encoding="utf-8")
        return {key: str(path) for key, path in paths.items()}

    def _embeddings(self, root, lang, rng):
        paths = {"embeddings_pivot": root / f"emb_en_{lang}.txt",
                 "embeddings_other": root / f"emb_{lang}.txt"}
        dim = len(self.vectors[0])
        for key, prefix, noise in (("embeddings_pivot", "e", 0.0),
                                   ("embeddings_other", lang, 0.2)):
            rows = "".join(
                f"{prefix}{i:04d} " + " ".join(f"{x + rng.gauss(0.0, noise):.6f}" for x in v)
                + "\n" for i, v in enumerate(self.vectors))
            paths[key].write_text(f"{len(self.vectors)} {dim}\n{rows}", encoding="utf-8")
        return {key: str(path) for key, path in paths.items()}

    def config(self, root: Path, out: Path, langs=None, **overrides):
        cfg = {**self.write(root, langs), "out": str(out), "pivot": "en",
               "vocab_size": 1000, "skip_top_k": 0, "threshold": 0.1,
               "detect_language": False}
        cfg.update(overrides)
        return cfg

