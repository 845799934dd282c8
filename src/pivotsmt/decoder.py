"""Phrase-based stack decoding with a log-linear model.

Hypotheses are organized in coverage-cardinality stacks with histogram
pruning and future-cost estimation. Recombination keeps the full arc
lattice so n-best lists are exact back-pointer enumerations. One or more
phrase tables score as separate blocks of four features; sources covered
by no table fall back to transliteration or pass-through options, so
decoding never fails for lack of coverage.

Within one sentence the search reuses work without changing its result:
each LM step is computed once per (LM state, target phrase), each future
cost once per coverage mask, and a hypothesis visits only the spans that
start inside its distortion window.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .corpus import BOS, Bitext
from .errors import DataError
from .evalkit import corpus_bleu
from .phrasetab import SCORE_FLOOR, TableSet
from .translit import CharModel, transliterate

logger = logging.getLogger(__name__)

FLOOR_LOG = math.log10(SCORE_FLOOR)  # feature value for absent-table scoring

TM_FEATURES = ("phi_fwd", "lex_fwd", "phi_bwd", "lex_bwd")
CORE_FEATURES = ("lm", "word_penalty", "phrase_penalty", "distortion")
TRANSLIT_FEATURE = "translit"

DEFAULT_WEIGHTS = {
    "tm": 0.2,
    "lm": 0.5,
    "word_penalty": 0.0,
    "phrase_penalty": 0.0,
    "distortion": 0.3,
    "translit": 0.2,
}


def feature_names(n_tables: int, use_translit: bool) -> list[str]:
    names = [f"tm{i}.{feat}" for i in range(n_tables) for feat in TM_FEATURES]
    names.extend(CORE_FEATURES)
    if use_translit:
        names.append(TRANSLIT_FEATURE)
    return names


@dataclass
class LogLinearModel:
    """Feature weights for decoding; one block of four per phrase table."""

    weights: dict[str, float]
    n_tables: int
    use_translit: bool = False

    def __post_init__(self) -> None:
        if self.n_tables < 1:
            raise ValueError("at least one phrase table must be registered")
        for name in feature_names(self.n_tables, self.use_translit):
            self.weights.setdefault(name, 0.0)
        for name, value in self.weights.items():
            if not math.isfinite(value):
                raise ValueError(f"weight {name} is not finite")

    @classmethod
    def default(cls, n_tables: int, use_translit: bool = False) -> "LogLinearModel":
        weights = {}
        for i in range(n_tables):
            for feat in TM_FEATURES:
                weights[f"tm{i}.{feat}"] = DEFAULT_WEIGHTS["tm"]
        for name in CORE_FEATURES:
            weights[name] = DEFAULT_WEIGHTS[name]
        if use_translit:
            weights[TRANSLIT_FEATURE] = DEFAULT_WEIGHTS["translit"]
        return cls(weights=weights, n_tables=n_tables, use_translit=use_translit)

    def feature_order(self) -> list[str]:
        return feature_names(self.n_tables, self.use_translit)

    def static_score(self, option: "TranslationOption") -> float:
        return sum(self.weights[name] * value
                   for name, value in option.features.items())


@dataclass
class TranslationOption:
    """One way to translate a source span."""

    start: int  # half-open span [start, end)
    end: int
    target: tuple[str, ...]
    features: dict[str, float]  # static (table/translit) log10 features
    origin: str

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("option span must be non-empty")
        for value in self.features.values():
            if not math.isfinite(value):
                raise ValueError("option features must be finite")


OptionLattice = dict[tuple[int, int], list[TranslationOption]]


def collect_options(
    sentence: Sequence[str],
    tables: TableSet,
    translit_model: CharModel | None = None,
    limit: int = 100,
    translit_k: int = 10,
    model: LogLinearModel | None = None,
) -> OptionLattice:
    """Gather per-span translation options from all registered tables.

    At most `limit` options are kept per span, ranked by weighted table
    score (unit weights unless a model is given). Any single word covered
    by no table receives k-best transliteration options when a character
    model is supplied, else one pass-through option copying the surface
    form, so every source position is coverable.
    """
    if not sentence:
        raise ValueError("cannot collect options for an empty sentence")
    n = len(sentence)
    n_tables = len(tables.tables)
    use_translit = translit_model is not None
    table_floor = {name: FLOOR_LOG
                   for name in feature_names(n_tables, use_translit)
                   if name.startswith("tm") or name == TRANSLIT_FEATURE}

    def rank_score(option: TranslationOption) -> float:
        if model is not None:
            return model.static_score(option)
        return sum(option.features.values())

    max_len = min(n, max(t.max_source_len for t in tables.tables) or 1)
    lattice: OptionLattice = {}
    for start in range(n):
        for end in range(start + 1, min(start + max_len, n) + 1):
            phrase = tuple(sentence[start:end])
            opts = []
            for t_idx, table in enumerate(tables.tables):
                for entry in table.get(phrase):
                    features = dict(table_floor)
                    for feat, score in zip(TM_FEATURES, entry.scores()):
                        features[f"tm{t_idx}.{feat}"] = math.log10(max(score, SCORE_FLOOR))
                    opts.append(TranslationOption(
                        start=start, end=end, target=entry.target,
                        features=features, origin=table.role or f"table{t_idx}",
                    ))
            if opts:
                opts.sort(key=lambda o: (-rank_score(o), o.target, o.origin))
                lattice[(start, end)] = opts[:limit]

    covered = [False] * n
    for (start, end) in lattice:
        for k in range(start, end):
            covered[k] = True
    for pos, is_covered in enumerate(covered):
        if is_covered:
            continue
        word = sentence[pos]
        opts = []
        if translit_model is not None:
            candidates = transliterate(translit_model, word, translit_k)
            # normalize relative to the best score to avoid underflow
            best = max(c.score for c in candidates)
            rel = [10.0 ** (c.score - best) for c in candidates]
            total = sum(rel)
            for cand, mass in zip(candidates, rel):
                features = dict(table_floor)
                features[TRANSLIT_FEATURE] = math.log10(max(mass / total,
                                                            SCORE_FLOOR))
                opts.append(TranslationOption(
                    start=pos, end=pos + 1, target=(cand.target,),
                    features=features, origin="translit",
                ))
        else:
            opts.append(TranslationOption(
                start=pos, end=pos + 1, target=(word,),
                features=dict(table_floor), origin="pass-through",
            ))
        lattice[(pos, pos + 1)] = opts[:limit]
    return lattice


# --- Stack decoding ----------------------------------------------------------

def _advance_lm_state(state: tuple[str, ...], tokens: Sequence[str], order: int):
    if order <= 1:
        return ()
    return (tuple(state) + tuple(tokens))[-(order - 1):]


class _Node:
    """One recombined search state; arcs keep the full derivation lattice."""

    __slots__ = ("coverage", "lm_state", "prev_end", "score", "future",
                 "arcs", "best_arc")

    def __init__(self, coverage: int, lm_state: tuple[str, ...], prev_end: int,
                 future: float) -> None:
        self.coverage = coverage
        self.lm_state = lm_state
        self.prev_end = prev_end
        self.score = -math.inf
        self.future = future
        self.arcs: list[tuple["_Node | None", TranslationOption | None, float]] = []
        self.best_arc: tuple["_Node | None", TranslationOption | None, float] | None = None

    def sort_key(self):
        return (self.coverage, self.lm_state, self.prev_end)


@dataclass
class DecodeResult:
    sentence: tuple[str, ...]
    goal: _Node
    model: LogLinearModel
    lm: object
    best_score: float
    best_derivation: list[TranslationOption]

    def best_tokens(self) -> tuple[str, ...]:
        return derivation_tokens(self.best_derivation)


def derivation_tokens(derivation: Iterable[TranslationOption]) -> tuple[str, ...]:
    tokens: list[str] = []
    for option in derivation:
        tokens.extend(option.target)
    return tuple(tokens)


def derivation_features(
    derivation: Sequence[TranslationOption],
    model: LogLinearModel,
    lm,
) -> dict[str, float]:
    """Per-feature breakdown of a derivation; weighted sum equals its score."""
    feats = {name: 0.0 for name in model.feature_order()}
    state: tuple[str, ...] = (BOS,) if lm.order > 1 else ()
    prev_end = 0
    for option in derivation:
        for name, value in option.features.items():
            feats[name] += value
        lm_sum = 0.0
        for word in option.target:
            lm_sum += lm.logprob(state, word)
            state = _advance_lm_state(state, (word,), lm.order)
        feats["lm"] += lm_sum
        feats["word_penalty"] -= len(option.target)
        feats["phrase_penalty"] -= 1.0
        feats["distortion"] -= abs(option.start - prev_end)
        prev_end = option.end
    return feats


def weighted_total(features: dict[str, float], model: LogLinearModel) -> float:
    return sum(model.weights[name] * value for name, value in features.items())


def _future_costs(n: int, lattice: OptionLattice, model: LogLinearModel, lm):
    """Best achievable weighted score per span (distortion ignored)."""
    w_lm = model.weights["lm"]
    w_wp = model.weights["word_penalty"]
    w_pp = model.weights["phrase_penalty"]
    span_best: dict[tuple[int, int], float] = {}
    unigram_cache: dict[str, float] = {}

    def unigram(word: str) -> float:
        lp = unigram_cache.get(word)
        if lp is None:
            lp = lm.logprob((), word)
            unigram_cache[word] = lp
        return lp

    for span, options in lattice.items():
        best = -math.inf
        for option in options:
            est = (model.static_score(option)
                   + w_lm * sum(unigram(w) for w in option.target)
                   - w_wp * len(option.target)
                   - w_pp)
            if est > best:
                best = est
        span_best[span] = best

    fc: dict[tuple[int, int], float] = {}
    for length in range(1, n + 1):
        for i in range(0, n - length + 1):
            j = i + length
            best = span_best.get((i, j), -math.inf)
            for k in range(i + 1, j):
                combined = fc[(i, k)] + fc[(k, j)]
                if combined > best:
                    best = combined
            fc[(i, j)] = best
    return fc


def _coverage_future(coverage: int, n: int, fc: dict[tuple[int, int], float]) -> float:
    """Sum of the future costs of the uncovered gaps, left to right."""
    total = 0.0
    gaps = ~coverage & ((1 << n) - 1)
    while gaps:
        low = gaps & -gaps
        carry = gaps + low  # clears the lowest gap and sets the bit just past it
        total += fc[(low.bit_length() - 1, (gaps ^ carry).bit_length() - 1)]
        gaps &= carry
    return total


def decode(
    sentence: Sequence[str],
    model: LogLinearModel,
    lm,
    options: OptionLattice,
    distortion_limit: int = 6,
    stack_size: int = 200,
) -> DecodeResult:
    """Find the best-scoring complete hypothesis by stack search.

    A new phrase must start within distortion_limit of the previous
    phrase's end; the distortion feature is the negated jump distance.
    """
    n = len(sentence)
    if n == 0:
        raise ValueError("cannot decode an empty sentence")
    if stack_size < 1:
        raise ValueError("stack_size must be >= 1")
    uncovered = [pos for pos in range(n)
                 if not any(s <= pos < e for (s, e) in options)]
    if uncovered:
        raise DataError(f"positions {uncovered} have no translation options")

    fc = _future_costs(n, options, model, lm)
    w_lm = model.weights["lm"]
    w_wp = model.weights["word_penalty"]
    w_pp = model.weights["phrase_penalty"]
    w_dist = model.weights["distortion"]
    order = lm.order

    # Per start position: (end, mask, length, [(option, static score, word
    # penalty, LM steps)]) in end order. LM steps are shared by every option
    # with the same target and map an LM state to (lm_sum, next state).
    lm_steps: dict[tuple[str, ...], dict[tuple[str, ...], tuple[float, tuple[str, ...]]]] = {}
    by_start: list[list[tuple[int, int, int, list]]] = [[] for _ in range(n)]
    for start, end in sorted(options):
        scored = [(option, model.static_score(option), w_wp * len(option.target),
                   lm_steps.setdefault(option.target, {}))
                  for option in options[(start, end)]]
        by_start[start].append((end, ((1 << (end - start)) - 1) << start,
                                end - start, scored))
    futures: dict[int, float] = {}

    init_state: tuple[str, ...] = (BOS,) if order > 1 else ()
    init = _Node(0, init_state, 0, _coverage_future(0, n, fc))
    init.score = 0.0
    stacks: list[dict[tuple, _Node]] = [dict() for _ in range(n + 1)]
    stacks[0][(0, init_state, 0)] = init
    full = (1 << n) - 1

    for cardinality in range(n):
        stack = stacks[cardinality]
        if not stack:
            continue
        # a stack key is its node's sort_key, so no two entries tie
        ranked = [(-(nd.score + nd.future), key, nd) for key, nd in stack.items()]
        for _, _, node in heapq.nsmallest(stack_size, ranked):
            covered = node.coverage
            node_state = node.lm_state
            node_score = node.score
            prev_end = node.prev_end
            for start in range(max(0, prev_end - distortion_limit),
                               min(n, prev_end + distortion_limit + 1)):
                dist_cost = w_dist * abs(start - prev_end)
                for end, mask, length, scored in by_start[start]:
                    if covered & mask:
                        break  # every longer span from this start overlaps too
                    coverage = covered | mask
                    child_stack = stacks[cardinality + length]
                    for option, static, wp_cost, steps in scored:
                        step = steps.get(node_state)
                        if step is None:
                            state = node_state
                            lm_sum = 0.0
                            for word in option.target:
                                lm_sum += lm.logprob(state, word)
                                state = _advance_lm_state(state, (word,), order)
                            step = steps[node_state] = (lm_sum, state)
                        lm_sum, state = step
                        inc = static + w_lm * lm_sum - wp_cost - w_pp - dist_cost
                        key = (coverage, state, end)
                        child = child_stack.get(key)
                        if child is None:
                            future = futures.get(coverage)
                            if future is None:
                                future = futures[coverage] = _coverage_future(
                                    coverage, n, fc)
                            child = _Node(coverage, state, end, future)
                            child_stack[key] = child
                        arc = (node, option, inc)
                        child.arcs.append(arc)
                        if node_score + inc > child.score:
                            child.score = node_score + inc
                            child.best_arc = arc

    complete = sorted(stacks[n].values(),
                      key=lambda nd: (-nd.score, nd.sort_key()))
    if not complete:
        raise DataError("no complete hypothesis found (search dead-ended)")
    goal = _Node(full, (), n, 0.0)
    for node in complete:
        arc = (node, None, 0.0)
        goal.arcs.append(arc)
        if node.score > goal.score:
            goal.score = node.score
            goal.best_arc = arc

    derivation = _best_derivation(goal)
    return DecodeResult(sentence=tuple(sentence), goal=goal, model=model, lm=lm,
                        best_score=goal.score, best_derivation=derivation)


def _best_derivation(goal: _Node) -> list[TranslationOption]:
    derivation: list[TranslationOption] = []
    node: _Node | None = goal
    while node is not None and node.best_arc is not None:
        pred, option, _ = node.best_arc
        if option is not None:
            derivation.append(option)
        node = pred
    derivation.reverse()
    return derivation


# --- Exact n-best ------------------------------------------------------------

@dataclass
class NBestItem:
    tokens: tuple[str, ...]
    score: float
    features: dict[str, float]


def nbest(result: DecodeResult, n: int, max_pops: int = 100000) -> list[NBestItem]:
    """Up to n distinct target strings by descending score.

    Derivations are enumerated exactly from the recombination lattice
    (lazy k-best over back-pointer arcs); duplicate strings keep their
    highest-scoring derivation.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lists: dict[int, list[tuple[float, int, int]]] = {}
    heaps: dict[int, list[tuple[float, int, int]]] = {}
    nodes: dict[int, _Node] = {}

    def ensure(node: _Node) -> None:
        nid = id(node)
        if nid in lists:
            return
        nodes[nid] = node
        lists[nid] = []
        heap: list[tuple[float, int, int]] = []
        if not node.arcs:
            # initial node: the single empty derivation
            lists[nid].append((0.0, -1, -1))
            heaps[nid] = []
            return
        for arc_idx, (pred, _, inc) in enumerate(node.arcs):
            assert pred is not None
            first = kth(pred, 0)
            if first is not None:
                heap.append((-(first[0] + inc), arc_idx, 0))
        heapq.heapify(heap)
        heaps[nid] = heap

    def kth(node: _Node, k: int):
        ensure(node)
        nid = id(node)
        entries = lists[nid]
        heap = heaps[nid]
        while len(entries) <= k and heap:
            neg, arc_idx, rank = heapq.heappop(heap)
            entries.append((-neg, arc_idx, rank))
            pred, _, inc = node.arcs[arc_idx]
            assert pred is not None
            succ = kth(pred, rank + 1)
            if succ is not None:
                heapq.heappush(heap, (-(succ[0] + inc), arc_idx, rank + 1))
        return entries[k] if k < len(entries) else None

    def path(node: _Node, k: int) -> list[TranslationOption]:
        entry = kth(node, k)
        assert entry is not None
        _, arc_idx, rank = entry
        if arc_idx < 0:
            return []
        pred, option, _ = node.arcs[arc_idx]
        assert pred is not None
        options = path(pred, rank)
        if option is not None:
            options.append(option)
        return options

    items: list[NBestItem] = []
    seen: set[tuple[str, ...]] = set()
    rank = 0
    while len(items) < n and rank < max_pops:
        entry = kth(result.goal, rank)
        if entry is None:
            break
        derivation = path(result.goal, rank)
        tokens = derivation_tokens(derivation)
        rank += 1
        if tokens in seen:
            continue
        seen.add(tokens)
        features = derivation_features(derivation, result.model, result.lm)
        items.append(NBestItem(tokens=tokens, score=entry[0], features=features))
    return items


def format_nbest_line(sent_id: int, item: NBestItem, order: Sequence[str]) -> str:
    feats = " ".join(f"{name}={item.features[name]:.6f}" for name in order)
    return f"{sent_id} ||| {' '.join(item.tokens)} ||| {feats} ||| {item.score:.6f}"


# --- System bundle and tuning ------------------------------------------------

@dataclass
class DecoderSystem:
    """Everything needed to decode: tables, models and search parameters."""

    tables: TableSet
    lm: object
    translit_model: CharModel | None = None
    option_limit: int = 20
    translit_k: int = 10
    distortion_limit: int = 6
    stack_size: int = 200

    def lattice(self, sentence: Sequence[str],
                model: LogLinearModel | None = None) -> OptionLattice:
        return collect_options(sentence, self.tables, self.translit_model,
                               limit=self.option_limit, translit_k=self.translit_k,
                               model=model)

    def default_model(self) -> LogLinearModel:
        return LogLinearModel.default(len(self.tables.tables),
                                      self.translit_model is not None)

    def decode(self, sentence: Sequence[str],
               model: LogLinearModel | None = None) -> DecodeResult:
        model = model or self.default_model()
        return decode(sentence, model, self.lm, self.lattice(sentence, model),
                      distortion_limit=self.distortion_limit,
                      stack_size=self.stack_size)

    def translate(self, sentence: Sequence[str],
                  model: LogLinearModel | None = None) -> tuple[str, ...]:
        return self.decode(sentence, model).best_tokens()


# Deterministic step grid explored around each weight during tuning.
_TUNE_STEPS = (-1.0, -0.5, -0.2, -0.05, 0.05, 0.2, 0.5, 1.0)


def tune_weights(
    dev: Bitext | Sequence[tuple[Sequence[str], Sequence[str]]],
    system: DecoderSystem,
    initial: LogLinearModel,
    rounds: int = 3,
    nbest_size: int = 50,
    seed: int = 0,
) -> LogLinearModel:
    """Coordinate ascent on corpus BLEU over pooled n-best lists.

    The dev set (a Bitext or (source, reference) token pairs) is re-decoded
    every round with the current weights; the n-best pool accumulates
    across rounds. Fully deterministic: the step grid is fixed and ties
    keep the incumbent weight (the seed is accepted for interface
    stability but no randomness is needed at this scale).
    """
    del seed
    if isinstance(dev, Bitext):
        dev = dev.token_pairs()
    if not dev:
        raise DataError("cannot tune on an empty dev set")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    weights = dict(initial.weights)
    order = initial.feature_order()
    refs = [tuple(ref) for _, ref in dev]
    pools: list[dict[tuple[str, ...], dict[str, float]]] = [dict() for _ in dev]
    # each pool's (tokens, features) in token order; pools change only while
    # decoding, so this is rebuilt once per round
    sorted_pools: list[list[tuple[tuple[str, ...], dict[str, float]]]] = []

    def rescore_bleu(candidate: dict[str, float]) -> float:
        hyps = []
        for pool in sorted_pools:
            best_tokens: tuple[str, ...] = ()
            best_score = -math.inf
            for tokens, features in pool:
                score = sum(candidate[name] * value
                            for name, value in features.items())
                if score > best_score:
                    best_score = score
                    best_tokens = tokens
            hyps.append(best_tokens)
        return corpus_bleu(hyps, refs)[0]

    best_weights = dict(weights)
    best_bleu = -1.0
    for _ in range(rounds):
        model = LogLinearModel(weights=dict(weights), n_tables=initial.n_tables,
                               use_translit=initial.use_translit)
        for (src, _), pool in zip(dev, pools):
            result = system.decode(src, model)
            for item in nbest(result, nbest_size):
                existing = pool.get(item.tokens)
                if existing is None:
                    pool[item.tokens] = item.features
                else:
                    old = sum(weights[k] * v for k, v in existing.items())
                    new = sum(weights[k] * v for k, v in item.features.items())
                    if new > old:
                        pool[item.tokens] = item.features
        sorted_pools = [sorted(pool.items()) for pool in pools]
        current = rescore_bleu(weights)
        if current > best_bleu:
            best_bleu = current
            best_weights = dict(weights)
        improved = True
        while improved:
            improved = False
            for name in order:
                base = weights[name]
                best_value = base
                best_score = rescore_bleu(weights)
                for step in _TUNE_STEPS:
                    trial = dict(weights)
                    trial[name] = base + step
                    bleu = rescore_bleu(trial)
                    if bleu > best_score + 1e-12:
                        best_score = bleu
                        best_value = base + step
                if best_value != base:
                    weights[name] = best_value
                    improved = True
                    if best_score > best_bleu:
                        best_bleu = best_score
                        best_weights = dict(weights)
    return LogLinearModel(weights=best_weights, n_tables=initial.n_tables,
                          use_translit=initial.use_translit)


# --- Weights file I/O --------------------------------------------------------

def write_weights(model: LogLinearModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for name in model.feature_order():
            handle.write(f"{name}\t{model.weights[name]:.6f}\n")


def read_weights(path: str, n_tables: int, use_translit: bool = False) -> LogLinearModel:
    weights = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 2:
                raise DataError(f"{path}:{lineno}: expected `name<TAB>weight`")
            try:
                weights[fields[0]] = float(fields[1])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad weight {fields[1]!r}") from exc
    return LogLinearModel(weights=weights, n_tables=n_tables, use_translit=use_translit)
