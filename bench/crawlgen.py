"""Seeded synthetic web crawls for the docalign benchmark.

A crawl is a set of web domains. Every domain holds pivot-language pages,
each with one translated counterpart in one non-pivot language, plus
untagged noise pages that have no counterpart. The generator writes the
input records, the translation resources (TSV tables or word embeddings)
and the gold pairs. The same spec and seed always give byte-identical files.

The generator is self-contained: it does not import docalign, so it can be
run before the package is importable.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

PIVOT = "en"
_EMBEDDING_DIM = 32

# Letter inventories that give each language's pseudo-words a distinct look
# (and distinct character trigrams for the language detector).
_ONSETS = {
    "en": ["b", "c", "d", "f", "g", "h", "l", "m", "n", "p", "r", "s", "t",
           "w", "th", "sh", "ch", "st", "br", "gr"],
    "fr": ["b", "c", "d", "f", "g", "j", "l", "m", "n", "p", "r", "s", "t",
           "v", "ch", "qu", "pr", "tr"],
    "de": ["b", "d", "f", "g", "h", "k", "l", "m", "n", "r", "s", "t", "w",
           "z", "sch", "st", "pf", "kr"],
    "es": ["b", "c", "d", "f", "g", "j", "l", "ll", "m", "n", "ñ", "p", "r",
           "s", "t", "v", "z"],
    "it": ["b", "c", "d", "f", "g", "gl", "l", "m", "n", "p", "r", "s", "t",
           "v", "z", "sc"],
}
_NUCLEI = {
    "en": ["a", "e", "i", "o", "u", "ea", "oo", "ay"],
    "fr": ["a", "e", "i", "o", "u", "é", "è", "ou", "ai", "eau"],
    "de": ["a", "e", "i", "o", "u", "ä", "ö", "ü", "ei", "au"],
    "es": ["a", "e", "i", "o", "u", "á", "í", "ó", "ue", "ie"],
    "it": ["a", "e", "i", "o", "u", "à", "è", "ia", "io"],
}
_CODAS = {
    "en": ["", "", "n", "r", "s", "t", "ng", "ck"],
    "fr": ["", "", "", "n", "r", "s", "x", "t"],
    "de": ["", "n", "r", "ß", "ch", "t", "ng", "lt"],
    "es": ["", "", "n", "r", "s", "l", "z"],
    "it": ["", "", "", "n", "l", "r"],
}

_SCRIPT = (
    "window.dataLayer=window.dataLayer||[];function gtag(){dataLayer.push("
    "arguments);}gtag('js',new Date());gtag('config','UA-{n}-1');"
    "var menu=document.querySelectorAll('.nav li');for(var i=0;i<menu.length;"
    "i++){menu[i].addEventListener('click',function(e){e.preventDefault();"
    "this.classList.toggle('open');});}"
)
_STYLE = (
    "body{margin:0;font-family:Helvetica,Arial,sans-serif;color:#333}"
    ".nav{display:flex;list-style:none}.nav li{padding:4px 8px}"
    "footer{font-size:11px;color:#999;border-top:1px solid #eee}"
)


@dataclass(frozen=True)
class CrawlSpec:
    """Shape of one synthetic crawl."""

    domains: int
    pairs_per_domain: int          # pivot pages that have a counterpart
    langs: tuple[str, ...]         # non-pivot languages, round-robin per pair
    embedding_langs: tuple[str, ...] = ()  # subset backed by embeddings
    tokens: tuple[int, int] = (60, 108)    # pivot page length range
    html: bool = False
    noise_share: float = 0.0       # untagged pages, as a share of all pages
    vocab: int = 3000              # words per language
    syllables: tuple[int, ...] = (2, 2, 3, 3, 4)  # word length choices
    dropout: float = 0.1           # share of tokens a translation loses


class _Language:
    def __init__(self, lang: str, spec: CrawlSpec, rng: random.Random, taken: set[str]):
        words: list[str] = []
        while len(words) < spec.vocab:
            n_syl = rng.choice(spec.syllables)
            word = "".join(
                rng.choice(_ONSETS[lang]) + rng.choice(_NUCLEI[lang])
                for _ in range(n_syl)
            ) + rng.choice(_CODAS[lang])
            if word not in taken:
                taken.add(word)
                words.append(word)
        self.words = words


class _Sampler:
    """Zipf-weighted word sampler over a vocabulary."""

    def __init__(self, size: int):
        self.cum = list(itertools.accumulate(1.0 / (r + 1) for r in range(size)))

    def sample(self, rng: random.Random, k: int) -> list[int]:
        total = self.cum[-1]
        cum = self.cum
        return [bisect.bisect(cum, rng.random() * total) for _ in range(k)]


def _sentences(words: list[str], rng: random.Random) -> list[str]:
    out, i = [], 0
    while i < len(words):
        n = rng.randint(6, 16)
        chunk = words[i:i + n]
        i += n
        text = " ".join(chunk)
        out.append(text[:1].upper() + text[1:] + rng.choice((".", ".", ";", "!", ",")))
    return out


def _html_page(words: list[str], rng: random.Random, nav: list[str]) -> str:
    sents = _sentences(words, rng)
    title = " ".join(words[:6])
    paras, i = [], 0
    while i < len(sents):
        n = rng.randint(2, 5)
        paras.append("<p>" + " ".join(sents[i:i + n]) + "</p>")
        i += n
    menu = "".join(f'<li><a href="/{w}.html">{w}</a></li>' for w in nav)
    return (
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
        f"<title>{title}</title>"
        f"<script>{_SCRIPT.replace('{n}', str(rng.randint(1000, 9999)))}</script>"
        f"<style>{_STYLE}</style></head><body>"
        f"<ul class=\"nav\">{menu}</ul>"
        f"<div class=\"main\"><h1>{title}</h1>{''.join(paras)}"
        f"<blockquote>{sents[0]}</blockquote></div>"
        f"<footer>&copy; {rng.randint(2001, 2020)} {' '.join(nav)} &amp; co</footer>"
        "</body></html>"
    )


def _other_url(domain: str, lang: str, slug: str, other_slug: str, style: int) -> str:
    """Counterpart URL in one of several site conventions; the last one
    shares no path with the pivot URL, so only content can align it."""
    if style == 0:
        return f"http://{domain}/{lang}/{slug}.html"
    if style == 1:
        return f"http://{domain}/{slug}.html?lang={lang}"
    if style == 2:
        return f"http://{domain}/{slug}.{lang}.html"
    return f"http://{domain}/{lang}/{other_slug}.html"


def _pivot_url(domain: str, slug: str, style: int) -> str:
    if style in (1, 2):
        return f"http://{domain}/{slug}.html"
    return f"http://{domain}/{PIVOT}/{slug}.html"


def generate(spec: CrawlSpec, seed: int, root: Path) -> dict:
    """Write ``input.jsonl``, the translation resources and ``gold.tsv``
    under ``root``; return the file paths and record counts."""
    rng = random.Random(f"crawl:{seed}:{spec}")
    root.mkdir(parents=True, exist_ok=True)
    taken: set[str] = set()
    pivot = _Language(PIVOT, spec, rng, taken)
    others = {lang: _Language(lang, spec, rng, taken) for lang in spec.langs}
    noise_langs = sorted(set(_ONSETS) - set(spec.langs) - {PIVOT})
    noise = {lang: _Language(lang, spec, rng, taken) for lang in noise_langs}
    sampler = _Sampler(spec.vocab)

    # Translation model: word i of the pivot translates to word i of each
    # other language, except a few unknown words (no entry, so mapping drops
    # them) and some alternative translations that carry less weight.
    resources: dict[str, dict[str, str]] = {}
    for lang, other in others.items():
        if lang in spec.embedding_langs:
            resources[lang] = _write_embeddings(root, lang, pivot, other, rng)
        else:
            resources[lang] = _write_tables(root, lang, pivot, other, rng)

    records: list[dict] = []
    gold: list[tuple[str, str]] = []
    lo, hi = spec.tokens
    for d in range(spec.domains):
        domain = f"www.{rng.choice(pivot.words)}{d}.{rng.choice(('com', 'org', 'net', 'eu'))}"
        nav = [pivot.words[i] for i in sampler.sample(rng, 5)]
        for i in range(spec.pairs_per_domain):
            lang = spec.langs[(d + i) % len(spec.langs)]
            other = others[lang]
            ids = sampler.sample(rng, rng.randint(lo, hi))
            slug = f"{pivot.words[ids[-1]]}-{i}"
            other_slug = f"{other.words[ids[-2]]}-{i}"
            style = rng.randrange(4)
            purl = _pivot_url(domain, slug, style)
            ourl = _other_url(domain, lang, slug, other_slug, style)
            # the counterpart drops some tokens and adds ~5 % stray words
            translated = [other.words[t] for t in ids if rng.random() >= spec.dropout]
            for _ in range(len(ids) // 20):
                translated.insert(rng.randrange(len(translated) + 1),
                                  other.words[rng.randrange(spec.vocab)])
            pivot_words = [pivot.words[t] for t in ids]
            records.append(_record(purl, PIVOT, pivot_words, spec, rng, nav))
            records.append(_record(ourl, lang, translated, spec, rng, nav))
            gold.append((purl, ourl))
        n_noise = round(spec.noise_share * 2 * spec.pairs_per_domain
                        / (1 - spec.noise_share))
        for i in range(n_noise):
            words_of = noise[rng.choice(noise_langs)]
            ids = sampler.sample(rng, rng.randint(lo, hi))
            url = f"http://{domain}/misc/{words_of.words[ids[0]]}-{i}.html"
            records.append(_record(url, None, [words_of.words[t] for t in ids],
                                   spec, rng, nav))
    rng.shuffle(records)

    input_path = root / "input.jsonl"
    with open(input_path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")
    gold_path = root / "gold.tsv"
    with open(gold_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{p}\t{o}\n" for p, o in gold)
    return {
        "input": str(input_path),
        "gold": str(gold_path),
        "resources": resources,
        "records": len(records),
        "gold_pairs": len(gold),
    }


def _record(url: str, lang, words: list[str], spec: CrawlSpec,
            rng: random.Random, nav: list[str]) -> dict:
    rec: dict = {"url": url}
    if lang:
        rec["lang"] = lang
    if spec.html:
        rec["html"] = _html_page(words, rng, nav)
    else:
        rec["text"] = " ".join(_sentences(words, rng))
    return rec


def _write_tables(root: Path, lang: str, pivot: _Language, other: _Language,
                  rng: random.Random) -> dict[str, str]:
    fwd_rows, bwd_rows = [], []
    n = len(pivot.words)
    for a, b in zip(pivot.words, other.words):
        if rng.random() < 0.03:
            continue  # unknown to the translation model
        alt = other.words[rng.randrange(n)]
        back = pivot.words[rng.randrange(n)]
        fwd_rows += [(a, b, 0.8), (a, alt, 0.15)]
        bwd_rows += [(b, a, 0.7), (b, back, 0.25)]
    fwd = root / f"table_{PIVOT}_{lang}.tsv"
    bwd = root / f"table_{lang}_{PIVOT}.tsv"
    for path, rows in ((fwd, fwd_rows), (bwd, bwd_rows)):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{s}\t{t}\t{p}\n" for s, t, p in rows)
    return {"table_fwd": str(fwd), "table_bwd": str(bwd)}


def _write_embeddings(root: Path, lang: str, pivot: _Language,
                      other: _Language, rng: random.Random) -> dict[str, str]:
    """Translation pairs get nearby vectors: the other side is the pivot
    vector plus Gaussian noise."""
    dim = _EMBEDDING_DIM
    piv_vecs = [[rng.gauss(0.0, 1.0) for _ in range(dim)] for _ in pivot.words]
    oth_vecs = [[x + rng.gauss(0.0, 0.3) for x in v] for v in piv_vecs]
    paths = {}
    for key, lang_tag, words, vecs in (
        ("embeddings_pivot", PIVOT, pivot.words, piv_vecs),
        ("embeddings_other", lang, other.words, oth_vecs),
    ):
        path = root / f"emb_{lang_tag}_{lang}.txt"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"{len(words)} {dim}\n")
            for w, v in zip(words, vecs):
                fh.write(w + " " + " ".join(f"{x:.5f}" for x in v) + "\n")
        paths[key] = str(path)
    return paths
