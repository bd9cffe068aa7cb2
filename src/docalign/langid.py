"""Character n-gram language identification.

The default detector builds trigram log-probability profiles from small
bundled seed texts. It is deliberately lightweight: the ingest step accepts
any object with a ``classify(text) -> (lang, confidence)`` method, and
records that arrive pre-tagged bypass detection entirely.
"""

from __future__ import annotations

import math
from collections import Counter

# A couple of paragraphs of everyday prose per language is enough for
# trigram profiles to separate these eight languages reliably.
_SEED_TEXT = {
    "en": (
        "the quick brown fox jumps over the lazy dog near the river bank "
        "every morning people walk to work and talk about the weather "
        "she said that the house was on the other side of the street "
        "we have been waiting for a long time and the train is still late "
        "children play in the park while their parents watch from the bench "
        "this is not what I wanted but it will have to do for now "
        "there are many things in life that cannot be explained easily"
    ),
    "fr": (
        "le chat est sur la table et le chien dort dans le jardin "
        "tous les matins les gens vont au travail et parlent de la pluie "
        "elle a dit que la maison se trouvait de l'autre côté de la rue "
        "nous attendons depuis longtemps et le train est encore en retard "
        "les enfants jouent dans le parc pendant que leurs parents regardent "
        "ce n'est pas ce que je voulais mais il faudra faire avec "
        "il y a beaucoup de choses dans la vie qu'on ne peut pas expliquer"
    ),
    "de": (
        "der schnelle braune fuchs springt über den faulen hund am fluss "
        "jeden morgen gehen die leute zur arbeit und sprechen über das wetter "
        "sie sagte dass das haus auf der anderen seite der straße liegt "
        "wir warten schon lange und der zug ist immer noch nicht da "
        "die kinder spielen im park während ihre eltern von der bank zusehen "
        "das ist nicht was ich wollte aber es muss für jetzt reichen "
        "es gibt viele dinge im leben die man nicht leicht erklären kann"
    ),
    "es": (
        "el gato está sobre la mesa y el perro duerme en el jardín "
        "cada mañana la gente va al trabajo y habla sobre el tiempo "
        "ella dijo que la casa estaba al otro lado de la calle "
        "llevamos mucho tiempo esperando y el tren todavía no ha llegado "
        "los niños juegan en el parque mientras sus padres miran desde el banco "
        "esto no es lo que quería pero tendrá que servir por ahora "
        "hay muchas cosas en la vida que no se pueden explicar fácilmente"
    ),
    "it": (
        "il gatto è sul tavolo e il cane dorme in giardino "
        "ogni mattina la gente va al lavoro e parla del tempo "
        "lei ha detto che la casa si trovava dall'altra parte della strada "
        "aspettiamo da molto tempo e il treno è ancora in ritardo "
        "i bambini giocano nel parco mentre i genitori guardano dalla panchina "
        "questo non è quello che volevo ma per ora dovrà bastare "
        "ci sono molte cose nella vita che non si possono spiegare facilmente"
    ),
    "pt": (
        "o gato está em cima da mesa e o cão dorme no jardim "
        "todas as manhãs as pessoas vão para o trabalho e falam do tempo "
        "ela disse que a casa ficava do outro lado da rua "
        "estamos à espera há muito tempo e o comboio ainda está atrasado "
        "as crianças brincam no parque enquanto os pais observam do banco "
        "isto não é o que eu queria mas terá de servir por agora "
        "há muitas coisas na vida que não se podem explicar facilmente"
    ),
    "nl": (
        "de snelle bruine vos springt over de luie hond bij de rivier "
        "elke ochtend gaan de mensen naar hun werk en praten over het weer "
        "ze zei dat het huis aan de andere kant van de straat stond "
        "we wachten al heel lang en de trein is nog steeds te laat "
        "de kinderen spelen in het park terwijl hun ouders toekijken "
        "dit is niet wat ik wilde maar het moet voor nu maar zo "
        "er zijn veel dingen in het leven die je niet makkelijk kunt uitleggen"
    ),
    "cs": (
        "kočka je na stole a pes spí na zahradě u řeky "
        "každé ráno chodí lidé do práce a mluví o počasí "
        "řekla že dům stojí na druhé straně ulice "
        "čekáme už dlouho a vlak má pořád zpoždění "
        "děti si hrají v parku zatímco jejich rodiče se dívají z lavičky "
        "tohle není to co jsem chtěl ale prozatím to musí stačit "
        "v životě je mnoho věcí které se nedají snadno vysvětlit"
    ),
}

_NGRAM_ORDER = 3


def _ngrams(text: str, n: int) -> list[str]:
    padded = f" {text.lower()} "
    return [padded[i : i + n] for i in range(len(padded) - n + 1)]


class NgramLanguageDetector:
    """Trigram profiles scored by smoothed log-likelihood.

    Confidence is the posterior of the best language under a uniform prior,
    with per-character temperature so short inputs stay comparable to long
    ones.
    """

    def __init__(self, seed_texts: dict[str, str] | None = None,
                 order: int = _NGRAM_ORDER):
        seed_texts = seed_texts or _SEED_TEXT
        self.order = order
        self._logprob: dict[str, dict[str, float]] = {}
        self._floor: dict[str, float] = {}
        for lang, text in seed_texts.items():
            counts = Counter(_ngrams(text, order))
            total = sum(counts.values())
            vocab = len(counts) + 1
            self._logprob[lang] = {
                g: math.log((c + 1) / (total + vocab)) for g, c in counts.items()
            }
            self._floor[lang] = math.log(1 / (total + vocab))

    def languages(self) -> list[str]:
        return sorted(self._logprob)

    def classify(self, text: str) -> tuple[str, float]:
        grams = _ngrams(text, self.order)
        if not grams or not self._logprob:
            return "und", 0.0
        scores = {}
        for lang, model in self._logprob.items():
            floor = self._floor[lang]
            scores[lang] = sum(model.get(g, floor) for g in grams) / len(grams)
        best = min(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        # posterior over per-gram average log-likelihoods, sharpened by the
        # evidence length (capped so one sentence is already decisive)
        weight = min(len(grams), 40)
        z = sum(math.exp((s - best[1]) * weight) for s in scores.values())
        return best[0], 1.0 / z


_DEFAULT: NgramLanguageDetector | None = None


def default_detector() -> NgramLanguageDetector:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = NgramLanguageDetector()
    return _DEFAULT
