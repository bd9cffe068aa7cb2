import json
import random
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np

from docalign.align_cda import ScoreMatrix
from docalign.corpus import DocumentRecord, TokenView, domain_of
from docalign.vectorspace import VectorTable


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


def write_jsonl_partitions(partitions, out_dir):
    """The ``corpus/`` layout that the three-file format replaced, which a
    run must ingest again: one directory per domain, one JSON-lines file per
    language, one ``DocumentRecord.serialized()`` line per document."""
    out = Path(out_dir)
    for domain, part in sorted(partitions.items()):
        ddir = out / domain
        ddir.mkdir(parents=True, exist_ok=True)
        for lang, docs in sorted(part.by_lang.items()):
            with open(ddir / f"{lang}.jsonl", "w", encoding="utf-8") as fh:
                for rec in docs:
                    fh.write(rec.serialized() + "\n")


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


def vector_table(rows):
    """A VectorTable holding the given rows, each a list of (dimension,
    weight) entries, in order."""
    rows = list(rows)
    entries = [e for row in rows for e in row]
    return VectorTable(
        indptr=np.cumsum([0] + [len(row) for row in rows], dtype=np.int64),
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

