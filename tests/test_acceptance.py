"""Acceptance gate: one test per release criterion.

Each test prints a single ``criterion N ... PASS``/``FAIL`` line so the
suite output doubles as a release checklist.  Tolerances and runtime
budgets are pinned here and must not be loosened to make a run green.
"""

import contextlib
import json
import math
import random
import time
from collections import Counter

import numpy as np

from docalign import align_cda, align_url, vectorspace
from docalign.align_cda import AlignmentPair
from docalign.align_url import IdentifierSet, default_identifier_set, strip_identifiers
from docalign.corpus import CorpusPartition, DocumentRecord
from docalign.miner import mine_identifiers
from docalign.pipeline import PipelineConfig, run_pipeline
from tests.conftest import (SparseVector, SyntheticCorpus, greedy_oracle, interned,
                            make_record, score_matrix, vector_table)


@contextlib.contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({title}): FAIL")
        raise
    print(f"criterion {num} ({title}): PASS")


def test_criterion_1_idf_formula_exactness():
    with criterion(1, "IDF formula exactness and vector norms"):
        start = time.perf_counter()
        rng = random.Random(100)

        # randomized grid against a direct oracle evaluation
        for _ in range(2000):
            n = rng.randint(1, 10_000)
            df = rng.randint(0, n)
            oracle = math.log1p(n / (1 + df))
            assert abs(vectorspace.idf_value(n, df) - oracle) <= 1e-12

        # compute_idf on a concrete collection, same oracle
        docs = [[f"w{rng.randint(0, 50):02d}" for _ in range(rng.randint(1, 30))]
                for _ in range(200)]
        ids, words = interned(docs)
        vocab = vectorspace.build_vocabulary(np.concatenate(ids), words, skip_top_k=0,
                                             capacity=100)
        lookup = vectorspace.lookup_array(vocab.index, words)
        terms = vectorspace.count_terms([lookup[doc] for doc in ids], len(vocab))
        model = vectorspace.compute_idf(terms)
        doc_freq = Counter()
        for doc in docs:
            doc_freq.update(set(doc))
        assert model.collection_size == len(docs)
        for word, dim in vocab.index.items():
            oracle = math.log1p(len(docs) / (1 + doc_freq[word]))
            assert abs(model.idf[dim] - oracle) <= 1e-12

        # every non-empty vector is unit length
        table = vectorspace.vectorize(terms, model)
        bounds = table.indptr.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            if hi > lo:
                norm = math.sqrt(sum(w * w for w in table.data[lo:hi].tolist()))
                assert abs(norm - 1.0) <= 1e-9

        assert time.perf_counter() - start < 1.0


def test_criterion_2_matcher_oracle_equivalence():
    with criterion(2, "matcher equals brute-force greedy oracle"):
        start = time.perf_counter()
        rng = random.Random(200)
        for _ in range(500):
            n, k = rng.randint(1, 100), rng.randint(1, 100)
            density = rng.choice([0.01, 0.05, 0.2])
            scores = {
                (f"p{i:03d}", f"o{j:03d}"): round(rng.random(), 4)
                for i in range(n) for j in range(k) if rng.random() < density
            }
            matrix = score_matrix(scores, domain="d.com", lang="xx")
            got = [(p.pivot_url, p.other_url, p.score)
                   for p in align_cda.match_one_to_one(matrix)]
            assert got == greedy_oracle(scores)
        assert time.perf_counter() - start < 10.0


def test_criterion_3_synthetic_end_to_end_recall(tmp_path):
    with criterion(3, "end-to-end recall@1 >= 99% on synthetic corpus"):
        start = time.perf_counter()
        corpus = SyntheticCorpus(n_domains=20, docs_per_domain=50,
                                 vocab_size=2000, dropout=0.1, seed=0)
        cfg = PipelineConfig.from_dict(
            corpus.config(tmp_path / "fx", tmp_path / "out",
                          vocab_size=1000, threshold=0.1)
        )
        out = run_pipeline(cfg)
        report = json.loads((out / "report.json").read_text())["cda"]
        assert report["total"] == len(corpus.gold) == 1000
        assert report["recall"] >= 99.0
        assert time.perf_counter() - start < 60.0


def test_criterion_4_vocabulary_size_ordering(tmp_path):
    with criterion(4, "larger vocabulary does not hurt recall"):
        wins = 0
        for seed in range(5):
            corpus = SyntheticCorpus(n_domains=4, docs_per_domain=100,
                                     vocab_size=2000, dropout=0.3,
                                     wrong_fraction=0.5, doc_len=(30, 60),
                                     seed=seed)
            recalls = {}
            for vocab_size in (1000, 50):
                root = tmp_path / f"s{seed}v{vocab_size}"
                cfg = PipelineConfig.from_dict(
                    corpus.config(root / "fx", root / "out",
                                  vocab_size=vocab_size)
                )
                out = run_pipeline(cfg)
                report = json.loads((out / "report.json").read_text())["cda"]
                recalls[vocab_size] = report["recall"]
            assert recalls[1000] >= recalls[50]
            if recalls[1000] > recalls[50]:
                wins += 1
        assert wins >= 3


# identifiers x templates below yield exactly 200 strip/match cases
_IDENTIFIERS = [
    "fr", "en", "de", "es", "it", "pt", "nl", "cs", "pl", "ru",
    "ja", "ko", "zh", "ar", "vi", "tr", "sv", "da", "fi", "el",
    "french", "german", "czech", "zh-cn", "vi_vn",
]


def _strip_cases():
    """(url, identifier set, must-produce form | None, must-not-change)."""
    for k, ident in enumerate(_IDENTIFIERS):
        ids = IdentifierSet(identifiers={ident})
        yield (f"a{k}.com/{ident}/index.htm", ids, f"a{k}.com/index.htm", False)
        yield (f"b{k}.com/docs/{ident}/page.html", ids,
               f"b{k}.com/docs/page.html", False)
        yield (f"c{k}.com/page?lang={ident}", ids, f"c{k}.com/page", False)
        yield (f"d{k}.com/page?x=1&lang={ident}", ids,
               f"d{k}.com/page?x=1", False)
        yield (f"e{k}.com/docs/{ident}", ids, f"e{k}.com/docs", False)
        yield (f"g{k}.com/{ident}x9/page.htm", ids, None, True)
        yield (f"h{k}.com/{ident.upper()}/x.htm", ids, f"h{k}.com/x.htm", False)
        yield (f"m{k}.com/{ident}/x.htm", ids, f"m{k}.com/x.htm", False)


def test_criterion_5_url_baseline_correctness():
    with criterion(5, "URL baseline: reference pair and 200-case table"):
        start = time.perf_counter()

        # canonical pair with the shipped identifier set
        part = CorpusPartition(
            domain="xyz.ca",
            by_lang={
                "en": [make_record("xyz.ca/index.htm", ["x"], lang="en")],
                "fr": [make_record("xyz.ca/fr/index.htm", ["x"], lang="fr")],
            },
        )
        pairs = align_url.match_urls(part, "en", "fr", default_identifier_set())
        assert [(p.pivot_url, p.other_url, p.score, p.method) for p in pairs] \
            == [("xyz.ca/index.htm", "xyz.ca/fr/index.htm", 1.0, "url")]

        cases = list(_strip_cases())
        assert len(cases) == 200
        for url, ids, expected_form, must_not_change in cases:
            forms = strip_identifiers(url, ids)
            assert url.lower() in forms  # the unstripped form always survives
            if expected_form is not None:
                assert expected_form in forms, (url, forms)
            if must_not_change:
                assert forms == {url.lower()}, (url, forms)

        assert time.perf_counter() - start < 1.0


def test_criterion_6_identifier_mining():
    with criterion(6, "identifier mining recovers URL language tokens"):
        start = time.perf_counter()

        reference = [AlignmentPair(
            domain="www.visitsingapore.com",
            pivot_url="www.visitsingapore.com/en/",
            other_url="www.visitsingapore.com/vi_vn/",
            other_lang="vi", score=0.9, method="cda",
        )]
        assert mine_identifiers(reference) == [("en", "vi_vn", 1)]

        # every non-pivot URL carries the same made-up identifier token
        fake, n_pairs = "qqx", 37
        pairs = [
            AlignmentPair(domain="s.example",
                          pivot_url=f"s.example/en/p{i}",
                          other_url=f"s.example/{fake}/p{i}",
                          other_lang="xx", score=0.8, method="cda")
            for i in range(n_pairs)
        ]
        assert mine_identifiers(pairs) == [("en", fake, n_pairs)]

        assert time.perf_counter() - start < 1.0


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "two runs produce byte-identical artifacts"):
        corpus = SyntheticCorpus(n_domains=3, docs_per_domain=10,
                                 vocab_size=200, doc_len=(30, 50), seed=5)
        outputs = []
        for name in ("run_a", "run_b"):
            cfg = PipelineConfig.from_dict(
                corpus.config(tmp_path / "fx", tmp_path / name, vocab_size=150)
            )
            out = run_pipeline(cfg)
            outputs.append((
                (out / "pairs.tsv").read_bytes(),
                (out / "manifest.json").read_bytes(),
            ))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        assert outputs[0][0]  # the runs actually aligned something


def test_criterion_8_scale_smoke():
    with criterion(8, "100k docs / 10 domains / 4 languages in budget"):
        rng = random.Random(42)
        n_domains, pivot_per = 10, 5000
        langs = ["cs", "de", "fr", "tr"]
        dims, nnz = 50_000, 8

        partitions = {}
        vectors = {lang: {} for lang in ["en"] + langs}
        total_docs = 0
        for d in range(n_domains):
            domain = f"site{d}.example"
            by_lang = {"en": []}
            pivot_dims = []
            for i in range(pivot_per):
                url = f"http://{domain}/en/{i}"
                doc_dims = sorted(rng.sample(range(dims), nnz))
                w = (1.0 / nnz) ** 0.5
                vectors["en"][url] = SparseVector(url, [(x, w) for x in doc_dims])
                by_lang["en"].append(DocumentRecord(url, domain, "en", [], 0))
                pivot_dims.append(doc_dims)
                total_docs += 1
            per_lang = pivot_per // len(langs)
            for li, lang in enumerate(langs):
                by_lang[lang] = []
                for i in range(per_lang):
                    # counterpart of one pivot doc: six shared dims, two noise
                    j = li * per_lang + i
                    url = f"http://{domain}/{lang}/{i}"
                    doc_dims = sorted(set(pivot_dims[j][:6]
                                          + rng.sample(range(dims), 2)))
                    w = (1.0 / len(doc_dims)) ** 0.5
                    vectors[lang][url] = SparseVector(
                        url, [(x, w) for x in doc_dims])
                    by_lang[lang].append(DocumentRecord(url, domain, lang, [], 0))
                    total_docs += 1
            partitions[domain] = CorpusPartition(domain, by_lang)
        assert total_docs == 100_000
        tables = {lang: vector_table(v.values()) for lang, v in vectors.items()}

        start = time.perf_counter()
        stats = {}
        pairs = align_cda.align_corpus(partitions, tables, "en", langs, 0.1,
                                       stats=stats)
        elapsed = time.perf_counter() - start

        assert elapsed < 300.0
        assert len(pairs) == 50_000
        assert stats["possible_pairs"] == 250_000_000
        # inverted-index candidate generation: a small fraction of the
        # cross product is ever scored
        assert stats["scored_pairs"] * 100 < stats["possible_pairs"]
