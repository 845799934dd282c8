"""Interpolated Kneser-Ney n-gram language models with ARPA I/O.

One absolute discount per order, estimated as D = n1 / (n1 + 2*n2) from
count-of-count statistics (0.5 when degenerate). Lower orders use
continuation counts, except n-grams starting with the sentence-start
marker, which keep raw counts (they cannot be extended to the left).
All probabilities are log base 10, following the ARPA convention.

A sentence-start marker is prepended as context; no end-of-sentence event
is modeled, so the unigram distribution covers exactly the observed word
types plus one unknown-word type.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Sequence, TextIO

from .corpus import BOS, LM_RESERVED, UNK, bad_token, number, records, write_lines
from .errors import DataError

logger = logging.getLogger(__name__)

NGram = tuple[str, ...]


@dataclass
class NGramModel:
    """Backoff table representation of an interpolated KN model."""

    order: int
    logprobs: dict[NGram, float] = field(default_factory=dict)
    backoffs: dict[NGram, float] = field(default_factory=dict)
    unk_logprob: float = -99.0
    vocab: frozenset[str] = frozenset()
    # every word of a key of `logprobs` or `backoffs`, built by the first
    # `stores`; None from __init__ on, since an attribute first set later
    # slowed `logprob` by a third (CPython 3.11)
    _stored_words: frozenset[str] | None = field(default=None, init=False, repr=False,
                                                 compare=False)

    def logprob(self, context: Sequence[str], word: str) -> float:
        """log10 p(word | context) with standard backoff recursion."""
        ctx = tuple(context)
        ctx = ctx[-(self.order - 1):] if self.order > 1 else ()
        penalty = 0.0
        while True:
            stored = self.logprobs.get(ctx + (word,))
            if stored is not None:
                return penalty + stored
            if not ctx:
                return penalty + self.unk_logprob
            penalty += self.backoffs.get(ctx, 0.0)
            ctx = ctx[1:]

    def stores(self, word: str) -> bool:
        """Whether `word` is in an n-gram of `logprobs` or `backoffs`;
        unlike `vocab`, this counts `<s>` and a word seen only as context.

        `logprob` gives a word in none unk_logprob plus the backoffs of its
        context's suffixes, and a context ending in it has no suffix in
        `backoffs`, so it adds no backoff and minimizes to (). Two targets
        of one length made only of such words thus score the same bits from
        every state and leave the same state: the LM cannot tell them apart.
        """
        if self._stored_words is None:
            self._stored_words = frozenset(word for table in (self.logprobs, self.backoffs)
                                           for gram in table for word in gram)
        return word in self._stored_words

    def minimal_state(self, context: NGram) -> NGram:
        """The longest suffix of `context` that is a key of `backoffs`.

        Every context with extensions is a key (`train_kn` gives each one a
        backoff, `read_arpa` a 0.0 where the file has none), and so is the
        prefix of every key. A longer suffix therefore stores no n-gram and
        backs off by exactly 0.0: `logprob` gives the same bits from either
        state, and the states that further words leave minimize alike.
        """
        while context and context not in self.backoffs:
            context = context[1:]
        return context


def _discount(counts: Iterable[float]) -> float:
    n1 = n2 = 0
    for c in counts:
        if c == 1:
            n1 += 1
        elif c == 2:
            n2 += 1
    if n1 == 0 or n2 == 0:
        return 0.5
    return n1 / (n1 + 2.0 * n2)


MAX_ORDER = 5
DEFAULT_ORDER = 3  # of `train-lm` and an experiment


def _count(padded: list[NGram], n: int) -> dict[NGram, int]:
    """Raw n-gram counts over BOS-padded sentences, without the bare BOS unigram."""
    grams: dict[NGram, int] = {}
    for sent in padded:
        for start in range(len(sent) - n + 1):
            gram = sent[start:start + n]
            grams[gram] = grams.get(gram, 0) + 1
    grams.pop((BOS,), None)
    return grams


def train_kn(corpus: Iterable[Sequence[str]], order: int) -> NGramModel:
    """Train an interpolated Kneser-Ney model of the given order (1..5).

    Orders are built one at a time, lowest first: order n's counts come
    from the raw counts of orders n and n + 1, its probabilities from order
    n - 1's, and only the next order's raw counts and this order's linear
    probabilities outlive the step.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}")
    padded = [(BOS, *sent) for sent in corpus]
    if all(len(sent) == 1 for sent in padded):
        raise DataError("cannot train a language model on an empty corpus")
    bad = bad_token({tok for sent in padded for tok in sent[1:]}, LM_RESERVED)
    if bad is not None:
        raise DataError(f"language-model training data cannot hold the token {bad!r}")

    counts = _count(padded, 1)
    vocab = frozenset(w for (w,) in counts)
    logprobs: dict[NGram, float] = {(BOS,): -99.0}  # context-only marker, never predicted
    backoffs: dict[NGram, float] = {}
    lower: dict[NGram, float] = {}  # order n - 1's linear probabilities
    for n in range(1, order + 1):
        upper: dict[NGram, int] = {}
        if n < order:
            # continuation counts, except for n-grams starting with BOS,
            # which cannot be extended to the left and keep their raw counts
            upper = _count(padded, n + 1)
            for gram in counts:
                if gram[0] != BOS:
                    counts[gram] = 0
            for gram in upper:
                counts[gram[1:]] += 1
        d = _discount(counts.values())
        probs: dict[NGram, float] = {}
        if n == 1:
            # interpolate with the uniform distribution over the vocabulary
            # plus one unknown type
            total = float(sum(counts.values()))
            interp_mass = d * len(counts) / total
            for gram, count in counts.items():
                p = probs[gram] = max(count - d, 0.0) / total + interp_mass / (len(vocab) + 1)
                logprobs[gram] = math.log10(p)
            unk_logprob = math.log10(interp_mass / (len(vocab) + 1))
        else:
            by_context: dict[NGram, list[NGram]] = {}
            for gram in counts:
                by_context.setdefault(gram[:-1], []).append(gram)
            for context, extensions in by_context.items():
                denom = float(sum(counts[g] for g in extensions))
                bow = d * len(extensions) / denom
                backoffs[context] = math.log10(bow)
                for gram in extensions:
                    p = probs[gram] = (max(counts[gram] - d, 0.0) / denom
                                       + bow * lower[gram[1:]])
                    logprobs[gram] = math.log10(p)
        counts, lower = upper, probs
    return NGramModel(order=order, logprobs=logprobs, backoffs=backoffs,
                      unk_logprob=unk_logprob, vocab=vocab)


@dataclass
class MixtureModel:
    """Query-time linear interpolation of two same-order models."""

    a: NGramModel
    b: NGramModel
    lam: float

    def __post_init__(self) -> None:
        if self.a.order != self.b.order:
            raise ValueError(
                f"order mismatch: {self.a.order} vs {self.b.order}"
            )
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError("lambda must be in [0, 1]")

    @property
    def order(self) -> int:
        return self.a.order

    @property
    def vocab(self) -> frozenset[str]:
        return self.a.vocab | self.b.vocab

    def logprob(self, context: Sequence[str], word: str) -> float:
        if self.lam == 1.0:
            return self.a.logprob(context, word)
        if self.lam == 0.0:
            return self.b.logprob(context, word)
        pa = 10.0 ** self.a.logprob(context, word)
        pb = 10.0 ** self.b.logprob(context, word)
        return math.log10(self.lam * pa + (1.0 - self.lam) * pb)

    def stores(self, word: str) -> bool:
        """Whether either model stores `word` (NGramModel.stores); two
        targets made only of words neither stores are the same to both."""
        return self.a.stores(word) or self.b.stores(word)

    def minimal_state(self, context: NGram) -> NGram:
        """The longer of the two models' minimal states, exact for both."""
        return max(self.a.minimal_state(context), self.b.minimal_state(context), key=len)


# --- ARPA I/O ----------------------------------------------------------------

def write_arpa(model: NGramModel, dest: str | TextIO) -> None:
    """Write `model` in ARPA format.

    A model that read_arpa would not read back as it is, a ValueError
    before anything is written: one with a token that is empty or holds
    whitespace.
    """
    # each distinct token once: a train pass writes some 43,000 n-grams
    bad = bad_token(set(chain.from_iterable(model.logprobs)))
    if bad is not None:
        raise ValueError(f"an ARPA file cannot hold the token {bad!r}: read back, "
                         "it would split or vanish")
    write_lines(dest, _arpa_lines(model))


def _arpa_lines(model: NGramModel) -> Iterator[str]:
    by_order: dict[int, list[NGram]] = {n: [] for n in range(1, model.order + 1)}
    for gram in model.logprobs:
        by_order[len(gram)].append(gram)
    yield "\\data\\"
    for n in range(1, model.order + 1):
        yield f"ngram {n}={len(by_order[n]) + (1 if n == 1 else 0)}"  # +1 for <unk>
    for n in range(1, model.order + 1):
        yield ""
        yield f"\\{n}-grams:"
        if n == 1:
            yield f"{model.unk_logprob:.7f}\t{UNK}"
        for gram in sorted(by_order[n]):
            line = f"{model.logprobs[gram]:.7f}\t{' '.join(gram)}"
            bow = model.backoffs.get(gram)
            yield line if bow is None else f"{line}\t{bow:.7f}"
    yield ""
    yield "\\end\\"


def read_arpa(path: str) -> NGramModel:
    """Parse an ARPA model; a malformed or non-finite value raises DataError with path:line.

    A line splits on runs of whitespace: an N-grams entry is a log
    probability, N tokens and an optional backoff. A repeated n-gram is a DataError.

    Every proper prefix of a stored n-gram gets a backoff, 0.0 where the
    file omits it, which is what `logprob` backs off by without one; this
    keeps `NGramModel.minimal_state` exact even for a file that leaves out
    zero backoffs or the prefixes of an n-gram.
    """
    counts: dict[int, int] = {}
    logprobs: dict[NGram, float] = {}
    backoffs: dict[NGram, float] = {}
    section = None  # None | "data" | "end" | int order
    seen: dict[int, int] = {}
    for where, fields in records(path, sep=None, widths=range(1, sys.maxsize)):
        line = " ".join(fields)
        if line in ("\\data\\", "\\end\\"):
            section = line[1:-1]
        elif line.startswith("\\") and line.endswith("-grams:"):
            try:
                section = int(line[1:-7])
            except ValueError as exc:
                raise DataError(f"{where}: malformed section header {line!r}") from exc
            if section not in counts:
                raise DataError(f"{where}: section {section} not declared in \\data\\")
            seen[section] = 0
        elif section == "data":
            if not line.startswith("ngram "):
                raise DataError(f"{where}: expected 'ngram N=count', got {line!r}")
            try:
                n_str, count_str = line[6:].split("=")
                counts[int(n_str)] = int(count_str)
            except ValueError as exc:
                raise DataError(f"{where}: malformed count line {line!r}") from exc
        elif isinstance(section, int):
            if len(fields) not in (section + 1, section + 2):
                raise DataError(f"{where}: expected {section + 1} or {section + 2} "
                                f"whitespace-separated fields, got {len(fields)}")
            gram = tuple(fields[1:section + 1])
            if gram in logprobs:
                raise DataError(f"{where}: {' '.join(gram)!r} is listed twice")
            logprobs[gram] = number(fields[0], where, "log probability")
            if len(fields) == section + 2:
                backoffs[gram] = number(fields[-1], where, "backoff")
            seen[section] += 1
        else:
            raise DataError(f"{where}: content outside any section: {line!r}")

    if not counts:
        raise DataError(f"{path}: missing \\data\\ section")
    for n, declared in counts.items():
        if declared and seen.get(n, 0) != declared:
            raise DataError(f"{path}: \\{n}-grams\\ section has {seen.get(n, 0)} entries, "
                            f"header declares {declared}")
    unk_logprob = logprobs.pop((UNK,), -99.0)
    for gram in logprobs:
        for k in range(1, len(gram)):
            backoffs.setdefault(gram[:k], 0.0)
    order = max(counts)
    vocab = frozenset(g[0] for g in logprobs if len(g) == 1 and g != (BOS,))
    return NGramModel(order=order, logprobs=logprobs, backoffs=backoffs,
                      unk_logprob=unk_logprob, vocab=vocab)


def context_normalization(model, context: Sequence[str]) -> float:
    """Sum of p(w|context) over the vocabulary plus the unknown type."""
    total = 10.0 ** model.logprob(context, "\x00unseen\x00")
    for word in model.vocab:
        total += 10.0 ** model.logprob(context, word)
    return total
