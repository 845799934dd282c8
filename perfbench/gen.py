"""Seeded generator of benchmark inputs for pivotsmt.

Three languages share one Zipfian concept lexicon:

* A, the low-resource source (lowercase Latin script);
* P, the pivot (lowercase Latin script, its own words, synonyms and a
  stronger word-order shift than B);
* B, the target (uppercase script). Part of B's lexicon is cognate with A:
  the B word is a character transliteration of the A word, as for a
  closely related language pair written in two scripts.

The lexicon is part of the language definition and does not depend on the
seed; every corpus drawn from it does. The same seed yields the same bytes
(see ``digest``).

A→P and P→B are drawn from separate concept streams, so the two tables
meet on the pivot vocabulary without being one table composed with itself.

Transliteration from A's script to B's is not a bijection: some letters
map to two letters (``x``→``KS``), some are ambiguous (``c``→``K``/``S``)
and some are usually deleted (``h``). Mining pairs are true transliterations
of generated names plus labelled noise pairs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

VOCAB = 2000
ZIPF_S = 1.0
LEXICON_SEED = "pivotsmt-lexicon-v1"

_A_ONSETS = ("p", "t", "k", "b", "d", "g", "m", "n", "s", "l", "r", "v",
             "c", "x", "h", "j", "sh", "ch", "th", "")
_A_VOWELS = ("a", "e", "i", "o", "u", "aa", "ai")
_A_CODAS = ("", "", "", "n", "r", "s", "l", "h")
_P_ONSETS = ("w", "f", "z", "y", "tr", "br", "st", "p", "m", "n", "l", "k", "")
_P_VOWELS = ("a", "e", "i", "o", "u", "ee", "oo", "ou")
_P_CODAS = ("", "", "t", "nd", "ng", "s", "rk")
_B_ONSETS = tuple("PTKBDGMNSLRVWZ") + ("",)
_B_VOWELS = ("A", "E", "I", "O", "U", "AA")
_B_CODAS = ("", "", "N", "R", "M")

# A letter -> weighted B realizations; "" deletes the letter.
TRANSLIT_MAP: dict[str, tuple[tuple[str, float], ...]] = {
    **{ch: ((ch.upper(), 1.0),) for ch in "abdefgiklmnoprstu"},
    "c": (("K", 0.6), ("S", 0.4)),
    "v": (("V", 0.5), ("W", 0.5)),
    "x": (("KS", 1.0),),
    "j": (("DZ", 1.0),),
    "h": (("", 0.7), ("H", 0.3)),
    "y": (("I", 0.5), ("Y", 0.5)),
    "w": (("V", 1.0),),
    "q": (("KW", 1.0),),
    "z": (("Z", 1.0),),
}

COGNATE_SHARE = 0.6      # share of concepts whose B word transliterates A's
P_SYNONYM_SHARE = 0.3    # concepts with a second pivot word
B_SYNONYM_SHARE = 0.15
PARTICLE_RANKS = 40      # frequent A words that may be particles ...
PARTICLE_SHARE = 0.25    # ... with no counterpart in P or B half the time
P_SPLIT_SHARE = 0.08     # concepts realized as two pivot words


def _choose(rng: random.Random, options: tuple[tuple[str, float], ...]) -> str:
    x = rng.random()
    acc = 0.0
    for value, weight in options:
        acc += weight
        if x < acc:
            return value
    return options[-1][0]


def transliterate_word(rng: random.Random, word: str) -> str:
    """One sampled B-script realization of an A-script word."""
    return "".join(_choose(rng, TRANSLIT_MAP[ch]) for ch in word)


def _word(rng, onsets, vowels, codas, taken: set[str]) -> str:
    while True:
        syllables = rng.choice((1, 2, 2, 3, 3, 4))
        word = "".join(rng.choice(onsets) + rng.choice(vowels) + rng.choice(codas)
                       for _ in range(syllables))
        if len(word) >= 2 and word not in taken:
            taken.add(word)
            return word


@dataclass
class Lexicon:
    """Concept inventory shared by A, P and B; index order is Zipf rank."""

    a: list[str]
    p: list[tuple[str, ...]]           # pivot realizations (1 or 2 variants)
    b: list[tuple[str, ...]]           # target realizations
    a_dropped: set[int]
    p_split: dict[int, tuple[str, str]]
    weights: list[float]

    @classmethod
    def build(cls) -> "Lexicon":
        rng = random.Random(LEXICON_SEED)
        a_taken: set[str] = set()
        p_taken: set[str] = set()
        b_taken: set[str] = set()
        a, p, b = [], [], []
        dropped: set[int] = set()
        split: dict[int, tuple[str, str]] = {}
        for idx in range(VOCAB):
            a_word = _word(rng, _A_ONSETS, _A_VOWELS, _A_CODAS, a_taken)
            a.append(a_word)
            p_words = [_word(rng, _P_ONSETS, _P_VOWELS, _P_CODAS, p_taken)]
            if rng.random() < P_SYNONYM_SHARE:
                p_words.append(_word(rng, _P_ONSETS, _P_VOWELS, _P_CODAS, p_taken))
            p.append(tuple(p_words))
            if rng.random() < COGNATE_SHARE:
                b_word = transliterate_word(rng, a_word)
                if not b_word or b_word in b_taken:
                    b_word = _word(rng, _B_ONSETS, _B_VOWELS, _B_CODAS, b_taken)
                b_taken.add(b_word)
            else:
                b_word = _word(rng, _B_ONSETS, _B_VOWELS, _B_CODAS, b_taken)
            b_words = [b_word]
            if rng.random() < B_SYNONYM_SHARE:
                b_words.append(_word(rng, _B_ONSETS, _B_VOWELS, _B_CODAS, b_taken))
            b.append(tuple(b_words))
            if idx < PARTICLE_RANKS and rng.random() < PARTICLE_SHARE:
                dropped.add(idx)
            elif rng.random() < P_SPLIT_SHARE:
                split[idx] = (_word(rng, _P_ONSETS, _P_VOWELS, _P_CODAS, p_taken),
                              _word(rng, _P_ONSETS, _P_VOWELS, _P_CODAS, p_taken))
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(VOCAB)]
        return cls(a, p, b, dropped, split, weights)


def _reorder(rng: random.Random, items: list, swap_prob: float) -> list:
    """Local reordering: swap non-overlapping adjacent pairs."""
    out = list(items)
    i = 0
    while i + 1 < len(out):
        if rng.random() < swap_prob:
            out[i], out[i + 1] = out[i + 1], out[i]
            i += 2
        else:
            i += 1
    return out


@dataclass
class Sentence:
    a: list[str]
    p: list[str]
    b: list[str]


class Generator:
    """Draws sentences, bitexts and word pairs from one seeded stream each."""

    def __init__(self, lexicon: Lexicon, seed: int, stream: str) -> None:
        self.lex = lexicon
        self.rng = random.Random(f"{seed}:{stream}")
        self._cum = []
        acc = 0.0
        for w in lexicon.weights:
            acc += w
            self._cum.append(acc)

    def concepts(self, length: int) -> list[int]:
        return self.rng.choices(range(VOCAB), cum_weights=self._cum, k=length)

    def sentence(self, length: int) -> Sentence:
        rng = self.rng
        lex = self.lex
        concepts = self.concepts(length)
        a = [lex.a[c] for c in concepts]
        p_units: list[list[str]] = []
        b_units: list[str] = []
        for c in concepts:
            if c in lex.a_dropped and rng.random() < 0.5:
                continue  # particle realized in A only
            if c in lex.p_split:
                p_units.append(list(lex.p_split[c]))
            else:
                p_units.append([rng.choice(lex.p[c])])
            variants = lex.b[c]
            b_units.append(variants[0] if len(variants) == 1 or rng.random() < 0.7
                           else variants[1])
        p = [w for unit in _reorder(rng, p_units, 0.3) for w in unit]
        b = _reorder(rng, b_units, 0.1)
        if not p:
            p = [lex.p[concepts[0]][0]]
        if not b:
            b = [lex.b[concepts[0]][0]]
        return Sentence(a, p, b)

    def names(self, count: int) -> list[str]:
        """Name-like A-script words, drawn from all letters the map knows."""
        letters_c = "bcdghjklmnprstvxz"
        letters_v = "aeiouy"
        out = []
        for _ in range(count):
            n_syl = self.rng.randint(2, 4)
            word = "".join(self.rng.choice(letters_c) + self.rng.choice(letters_v)
                           + ("h" if self.rng.random() < 0.2 else "")
                           for _ in range(n_syl))
            out.append(word)
        return out


LEXICON = Lexicon.build()


def _draw(gen: Generator, lengths: list[int], side_a: str, side_b: str):
    src, tgt = [], []
    for length in lengths:
        sent = gen.sentence(length)
        src.append(" ".join(getattr(sent, side_a)))
        tgt.append(" ".join(getattr(sent, side_b)))
    return src, tgt


def bitext(seed: int, stream: str, n_pairs: int, side_a: str, side_b: str,
           lo: int = 4, hi: int = 30) -> tuple[list[str], list[str]]:
    """Line-aligned bitext of n_pairs, every length in [lo, hi] equally often.

    Lengths cycle through the range in a seeded order, so the word count,
    and with it the work, is the same for every seed.
    """
    gen = Generator(LEXICON, seed, stream)
    lengths = [lo + k % (hi - lo + 1) for k in range(n_pairs)]
    gen.rng.shuffle(lengths)
    return _draw(gen, lengths, side_a, side_b)


def stratified(seed: int, stream: str, lengths: list[int],
               side_a: str = "a", side_b: str = "b") -> tuple[list[str], list[str]]:
    """Bitext with exactly the given sentence lengths, in that order."""
    return _draw(Generator(LEXICON, seed, stream), lengths, side_a, side_b)


def word_pairs(seed: int, n_true: int, n_noise: int) -> list[tuple[str, str, bool]]:
    """Transliteration pairs labelled True plus noise pairs labelled False.

    Noise pairs join a name with the transliteration of another name of
    similar length, so they share the script statistics of true pairs.
    """
    gen = Generator(LEXICON, seed, "translit")
    names = gen.names(n_true + n_noise)
    pairs = [(names[k], transliterate_word(gen.rng, names[k]), True)
             for k in range(n_true)]
    noise_sources = names[n_true:]
    decoys = gen.names(n_noise)
    for src, decoy in zip(noise_sources, decoys):
        pairs.append((src, transliterate_word(gen.rng, decoy), False))
    gen.rng.shuffle(pairs)
    return pairs


def gold_translations(a_word: str) -> frozenset[str]:
    """Every B word the generator can emit for an A word."""
    return _GOLD.get(a_word, frozenset())


_GOLD = {word: frozenset(LEXICON.b[idx]) for idx, word in enumerate(LEXICON.a)}


def digest(*parts) -> str:
    """sha256 over the generator output, for determinism checks."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
    return h.hexdigest()
