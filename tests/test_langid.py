import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from docalign.corpus import detect_language
from docalign.langid import _SEED_TEXT, NgramLanguageDetector, default_detector

SAMPLES = {
    "en": "the quick brown fox jumps over the lazy dog near the river",
    "fr": "le chat est assis sur la table dans la maison pres du jardin",
    "de": "der hund lauft schnell durch den wald und uber die wiese",
    "es": "el perro corre por el parque y la gata duerme en la casa",
    "it": "il gatto dorme sulla sedia nella cucina della casa vecchia",
    "pt": "o cachorro corre pela rua e o gato dorme na janela da casa",
    "nl": "de hond rent door het park en de kat slaapt op de bank",
    "cs": "kocka spi na stole v kuchyni a pes bezi po zahrade domu",
}


def _ngrams(text):
    padded = f" {text.lower()} "
    return [padded[i : i + 3] for i in range(len(padded) - 2)]


class OracleDetector:
    """The per-trigram dict loop that ``NgramLanguageDetector`` replaced,
    kept as its oracle. Its sums are explicit left-to-right loops, because
    ``sum()`` compensates rounding from Python 3.12 on."""

    def __init__(self, seed_texts=None):
        self._logprob = {}
        self._floor = {}
        for lang, text in (seed_texts or _SEED_TEXT).items():
            counts = Counter(_ngrams(text))
            total = sum(counts.values())
            vocab = len(counts) + 1
            self._logprob[lang] = {
                g: math.log((c + 1) / (total + vocab)) for g, c in counts.items()
            }
            self._floor[lang] = math.log(1 / (total + vocab))

    def classify(self, text):
        grams = _ngrams(text)
        if not grams:
            return "und", 0.0
        scores = {}
        for lang, model in self._logprob.items():
            floor = self._floor[lang]
            s = 0.0
            for g in grams:
                s += model.get(g, floor)
            scores[lang] = s / len(grams)
        best = min(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        weight = min(len(grams), 40)
        z = 0.0
        for s in scores.values():
            z += math.exp((s - best[1]) * weight)
        return best[0], 1.0 / z


_ORACLE = OracleDetector()

# "İ" lowercases to two code points; then a non-BMP character and a lone
# surrogate, each one code point of the padded text.
_EDGE_CHARS = ["İ", "\U0001F600", "\ud800", "\udfff"]

# Mostly characters the seed texts have, so that trigrams hit the profiles.
_seed_chars = st.sampled_from(sorted(set("".join(_SEED_TEXT.values()))) + _EDGE_CHARS)
texts = st.text(alphabet=st.one_of(_seed_chars, _seed_chars, st.characters()),
                max_size=300)


class TestOracleEquivalence:
    @pytest.mark.parametrize("text", [
        "", "a", "é", "ab", "İ", "İstanbul", "\U0001F600", "a\U0001F600b",
        "\ud800", "x\udfff y", *_SEED_TEXT.values(),
    ])
    def test_edge_cases(self, text):
        assert default_detector().classify(text) == _ORACLE.classify(text)

    @given(texts)
    def test_default_profiles(self, text):
        assert default_detector().classify(text) == _ORACLE.classify(text)

    # "" and single characters are seed texts with no or one trigram; "?"
    # is what an encoder that replaced lone surrogates would make of them.
    @given(st.dictionaries(st.sampled_from(["aa", "bb", "cc", "dd"]),
                           st.text(alphabet="abc? İ\U0001F600\ud800", max_size=12),
                           min_size=1),
           st.text(alphabet="abcd? İ\U0001F600\ud800", max_size=30))
    def test_custom_profiles(self, seed_texts, text):
        got = NgramLanguageDetector(seed_texts).classify(text)
        assert got == OracleDetector(seed_texts).classify(text)

    def test_seed_text_without_trigrams(self):
        seed_texts = {"aa": "abab abab", "bb": ""}
        for text in ("", "x", "abab", "zzzz zz"):
            got = NgramLanguageDetector(seed_texts).classify(text)
            assert got == OracleDetector(seed_texts).classify(text)


class TestClassify:
    @pytest.mark.parametrize("lang,text", sorted(SAMPLES.items()))
    def test_identifies_each_seed_language(self, lang, text):
        got, confidence = default_detector().classify(text)
        assert got == lang
        assert confidence > 0.5

    def test_confidence_in_unit_interval(self):
        for text in list(SAMPLES.values()) + ["zzq", "x", "12345 67890"]:
            _, confidence = default_detector().classify(text)
            assert 0.0 <= confidence <= 1.0

    def test_empty_text_is_und(self):
        assert default_detector().classify("") == ("und", 0.0)

    def test_garbage_less_confident_than_real_text(self):
        d = default_detector()
        garbage = d.classify("qqq zzz xxx qqq zzz")[1]
        real = d.classify(SAMPLES["en"])[1]
        assert garbage < 0.7 < real

    def test_deterministic(self):
        d = default_detector()
        assert d.classify(SAMPLES["fr"]) == d.classify(SAMPLES["fr"])

    def test_longer_evidence_not_less_confident(self):
        d = default_detector()
        short = d.classify("the cat")[1]
        long = d.classify(SAMPLES["en"])[1]
        assert long >= short

    def test_custom_profiles(self):
        d = NgramLanguageDetector({"aa": "abab abab abab", "bb": "cdcd cdcd cdcd"})
        assert d.classify("ababab")[0] == "aa"
        assert d.classify("cdcdcd")[0] == "bb"


class TestDetectLanguage:
    def test_confident_text_gets_tag(self):
        tokens = SAMPLES["fr"].split()
        assert detect_language(tokens) == "fr"

    def test_unconfident_text_is_und(self):
        assert detect_language(["zzq"], confidence_floor=0.99) == "und"

    def test_empty_tokens_is_und(self):
        assert detect_language([]) == "und"
