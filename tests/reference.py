"""CDA as the paper states it, in plain Python: the reference model that the
tests check docalign against.

Content-based document alignment has two steps. It projects each page of a
web domain into a pivot TF x IDF space through a lexical translation model,
then links the pages of the domain by the similarity of their vectors. Each
function below is one step, written with dicts and loops over words and
URLs. Where docalign promises an order of floating-point additions, the loop
adds in that order, so a step gives docalign's floats bit for bit.

A record is a dict with the fields ``url``, ``domain``, ``lang``, ``tokens``
and ``raw_length``; a vocabulary is a list of words, word ``i`` being
dimension ``i``; a translation table is a ``{(source word, target word):
probability}`` dict; a vector is a list of ``(dimension, weight)`` entries
in ascending dimension order.

From docalign this module may import only the parsers of inputs that CDA
does not define: ``corpus.domain_of``, ``corpus.tokenize`` and
``lexicon.load_embeddings``. ``tests/test_reference.py`` fails if it imports
anything else of docalign, since a reference that calls the code it checks
checks nothing.
"""

import json
import math
from collections import Counter

import numpy as np


def _canonical(record):
    """The record as one line of JSON with sorted keys."""
    return json.dumps(record, ensure_ascii=False, sort_keys=True)


def dedupe(records):
    """The records left once each (domain, URL) keeps one, in (domain, URL)
    order: the one with the longest ``raw_length``, ties to the smaller
    canonical JSON record."""
    best = {}
    for rec in records:
        key = (rec["domain"], rec["url"])
        cur = best.get(key)
        if cur is None or ((-rec["raw_length"], _canonical(rec))
                           < (-cur["raw_length"], _canonical(cur))):
            best[key] = rec
    return [best[key] for key in sorted(best)]


def vocabulary(docs, skip_top_k, capacity, stopwords):
    """The vocabulary of a language's pages, each a list of tokens: its words
    ranked by count, ties to the smaller word, the stoplist dropped, then the
    ``skip_top_k`` first dropped and the next ``capacity`` kept."""
    counts = Counter()
    for tokens in docs:
        counts.update(tokens)
    ranked = sorted((w for w in counts if w not in stopwords), key=lambda w: (-counts[w], w))
    return ranked[skip_top_k:skip_top_k + capacity]


def directional_table(src, src_mat, tgt, tgt_mat, top_n):
    """P(s -> t) from the rows of ``src_mat`` (words ``src``) and of
    ``tgt_mat`` (words ``tgt``): each source row's products with every target
    row, its ``top_n`` largest kept (numpy's ``argpartition`` breaks ties at
    the cut), negatives clamped to 0 and the rest divided by their sum; a row
    whose sum is not positive gives no entry."""
    sims = src_mat @ tgt_mat.T
    probs = {}
    k = min(top_n, len(tgt))
    for i, word in enumerate(src):
        row = sims[i]
        top = np.argpartition(-row, k - 1)[:k] if k < len(tgt) else np.arange(len(tgt))
        kept = np.clip(row[top], 0.0, None)
        total = kept.sum()
        if total <= 0:
            continue
        for j, score in zip(top, kept):
            probs[(word, tgt[j])] = float(score / total)
    return probs


def embedding_tables(emb_src, emb_tgt, top_n):
    """P(s -> t) and P(t -> s) from two ``{word: vector}`` embedding spaces,
    over every word of both: cosine similarity of the vectors, each divided
    by its own ``np.linalg.norm`` (a zero vector drops its word), words in
    sorted order, through ``directional_table``."""
    def unit_rows(emb):
        words, rows = [], []
        for w in sorted(emb):
            v = np.asarray(emb[w], dtype=np.float64)
            norm = np.linalg.norm(v)
            if norm != 0:
                words.append(w)
                rows.append(v / norm)
        return words, np.asarray(rows)

    src, src_mat = unit_rows(emb_src)
    tgt, tgt_mat = unit_rows(emb_tgt)
    return (directional_table(src, src_mat, tgt, tgt_mat, top_n),
            directional_table(tgt, tgt_mat, src, src_mat, top_n))


def pair_scores(p_fwd, p_bwd, pivot_words, other_words):
    """S(a, b) = P_fwd(a -> b) + P_bwd(b -> a) for each pivot word a and
    other word b of the two vocabularies that an entry of either table
    pairs; a missing entry counts 0."""
    pivot_words, other_words = set(pivot_words), set(other_words)
    pairs = set(p_fwd) | {(a, b) for b, a in p_bwd}
    return {(a, b): p_fwd.get((a, b), 0.0) + p_bwd.get((b, a), 0.0)
            for a, b in pairs if a in pivot_words and b in other_words}


def alignment(scores):
    """The lexicon of a ``pair_scores`` table: each pivot word a is paired
    with the argmax over b of S(a, b), ties kept, when that maximum is
    positive; each paired other word then maps to its best pivot word, ties
    to the smaller word. Returns the pairs, the map ``{b: a}`` and the score
    ``{b: S(a, b)}`` of each mapped word."""
    best = {}  # pivot word -> (its largest S, the other words scoring it)
    for (a, b), s in scores.items():
        if s <= 0.0:
            continue
        if a not in best or s > best[a][0]:
            best[a] = (s, [b])
        elif s == best[a][0]:
            best[a][1].append(b)
    pairs = {(a, b) for a, (_s, bs) in best.items() for b in bs}
    mapped = {}  # other word -> (S, pivot word)
    for a, b in pairs:
        s = best[a][0]
        if b not in mapped or (-s, a) < (-mapped[b][0], mapped[b][1]):
            mapped[b] = (s, a)
    return (pairs, {b: a for b, (_s, a) in mapped.items()},
            {b: s for b, (s, _a) in mapped.items()})


def map_tokens(tokens, to_pivot):
    """A page's tokens in the pivot space: each token that ``to_pivot`` maps,
    as its pivot word, in order; the others dropped."""
    return [to_pivot[t] for t in tokens if t in to_pivot]


def idf(docs, vocab):
    """Over a language's N pages, each a list of pivot words: N, the number
    of pages holding each vocabulary word (df) and idf = ln(1 + N / (1 + df)),
    both by dimension."""
    held = Counter()
    for words in docs:
        held.update(set(words))
    n = len(docs)
    doc_freq = [held[w] for w in vocab]
    return n, doc_freq, [math.log(1 + n / (1 + df)) for df in doc_freq]


def idf_file(docs, vocab):
    """``idf`` as the text of ``idf/<lang>.tsv``."""
    n, doc_freq, values = idf(docs, vocab)
    return f"#collection_size\t{n}\t0\n" + "".join(
        f"{w}\t{df}\t{v:.12g}\n" for w, df, v in zip(vocab, doc_freq, values))


def tfidf(words, vocab, idf_values):
    """A page's vector, from its pivot words: tf x idf of each vocabulary
    word it holds, kept if positive, divided by the square root of the
    squares added from 0.0 in ascending dimension order."""
    dims = {w: i for i, w in enumerate(vocab)}
    tf = Counter(dims[w] for w in words if w in dims)
    raw = [(d, tf[d] * idf_values[d]) for d in sorted(tf)]
    raw = [(d, w) for d, w in raw if w > 0.0]
    total = 0.0
    for _d, w in raw:
        total += w * w
    norm = math.sqrt(total)
    return [(d, w / norm) for d, w in raw]


def block_scores(pivot_vectors, other_vectors, threshold):
    """The scores of one (domain, language) block, given each side's vectors
    as ``{url: vector}``: S(p, o) adds o_w * p_w over the dimensions the two
    share, from 0.0 in the order of o's dimensions. A pair sharing a
    dimension is scored; it is kept if S >= threshold and S > 0. Returns the
    kept ``{(p, o): S}`` and the number of pairs scored."""
    scores, scored = {}, 0
    for o, o_vec in other_vectors.items():
        for p, p_vec in pivot_vectors.items():
            p_weights = dict(p_vec)
            shared = [(w, p_weights[d]) for d, w in o_vec if d in p_weights]
            if not shared:
                continue
            scored += 1
            s = 0.0
            for o_w, p_w in shared:
                s += o_w * p_w
            if s >= threshold and s > 0.0:
                scores[(p, o)] = s
    return scores, scored


def greedy(scores):
    """Greedy one-to-one linking of ``{(p, o): S}``: pairs by descending S,
    ties by pivot URL, then other URL; a pair is linked when neither of its
    pages is. Returns the links as ``(p, o, S)`` in that order."""
    order = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
    linked_p, linked_o, out = set(), set(), []
    for (p, o), s in order:
        if p not in linked_p and o not in linked_o:
            linked_p.add(p)
            linked_o.add(o)
            out.append((p, o, s))
    return out
