"""Phrase-based stack decoding with a log-linear model.

Hypotheses are organized in coverage-cardinality stacks with histogram
pruning and future-cost estimation. Each recombined node keeps a
back-pointer to the first arc that gave it its best score, and the 1-best
is read back along them from the goal. Only a search for n-best lists
also keeps every arc, the recombination lattice: n-best lists are exact
back-pointer enumerations of it, and their first derivation is the 1-best.
Each phrase table has its own block of four features, and an option
carries only the features of its own source: a table option its table's
block, a transliteration the one `translit` feature, a pass-through none.
A feature an option lacks adds 0, as in Moses (Koehn et al. 2007). Sources
covered by no table fall back to transliteration or pass-through options,
so decoding never fails for lack of coverage.

Within one sentence the search skips work that cannot change its result:
each option's static score is computed once, each weighted LM step once per
(LM state, target phrase) and each future cost once per coverage mask. A
hypothesis visits only the uncovered starts of its distortion window, and
only the spans there that the reordering constraint admits. A span keeps
an option only if it scores higher than every earlier option with the same
target; the options dropped give the same strings with no higher score, so
the nodes, the 1-best and the n-best lists equal those of a search that
keeps them all (`decode_reference` in the tests). A 1-best search also
counts as one target all targets of one length whose words the LM stores
in no n-gram (`lm.stores`): the LM scores them alike from every state and
they leave one state, so the ones dropped change no node and no 1-best.

A stack's beam is expanded one coverage at a time: its nodes of one
coverage share their uncovered starts and spans, so each span is found once
for all of them. Every predecessor that one stack gives a node reaches it
through the same span, so the node's arcs, its back-pointer and every tie
between them come out as when each hypothesis is expanded on its own.

Hypotheses recombine on the minimal LM state (`_lm_walk`), the shortest
one the LM can still tell apart: all the transliterations of a word the LM
has never seen leave one state, so they lead to one node. Every later word
scores the same bits from it as from the full state, so no score changes.
"""

from __future__ import annotations

import heapq
import logging
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from .corpus import BOS, forked_map, ltr_sum, number, records, write_lines
from .errors import DataError
# corpus_bleu stays importable from here: the benchmark's per-layer tracer
# wraps decoder.corpus_bleu by name
from .evalkit import DEFAULT_MAX_N, BleuStats, corpus_bleu, sentence_stats
from .phrasetab import SCORE_FLOOR, TableSet
from .translit import CharModel, kbest_probs, transliterate

logger = logging.getLogger(__name__)

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
        weights = {name: DEFAULT_WEIGHTS["tm" if name.startswith("tm") else name]
                   for name in feature_names(n_tables, use_translit)}
        return cls(weights=weights, n_tables=n_tables, use_translit=use_translit)

    def feature_order(self) -> list[str]:
        return feature_names(self.n_tables, self.use_translit)


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
    translit_model: CharModel | None,
    model: LogLinearModel,
    limit: int,
    translit_k: int,
) -> OptionLattice:
    """Gather per-span translation options from all registered tables.

    At most `limit` options are kept per span, ranked by the model's
    weighted table score. Any single word covered by no table receives
    k-best transliteration options when a character model is supplied,
    else one pass-through option copying the surface form, so every
    source position is coverable. An option's features are those its
    source sets (table i's `tm{i}.*` block, `translit`, or none for a
    pass-through); every feature it lacks adds 0.
    """
    if not sentence:
        raise ValueError("cannot collect options for an empty sentence")
    n = len(sentence)
    blocks = [[f"tm{i}.{feat}" for feat in TM_FEATURES] for i in range(len(tables.tables))]
    max_len = min(n, max(t.max_source_len for t in tables.tables) or 1)
    lattice: OptionLattice = {}
    for start in range(n):
        for end in range(start + 1, min(start + max_len, n) + 1):
            phrase = tuple(sentence[start:end])
            opts = []
            for t_idx, table in enumerate(tables.tables):
                for entry in table.get(phrase):
                    features = {name: math.log10(max(score, SCORE_FLOOR))
                                for name, score in zip(blocks[t_idx], entry.scores())}
                    opts.append(TranslationOption(
                        start=start, end=end, target=entry.target,
                        features=features, origin=table.role or f"table{t_idx}",
                    ))
            if opts:
                opts.sort(key=lambda o: (-weighted_total(o.features, model.weights),
                                         o.target, o.origin))
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
            for cand, prob in zip(candidates, kbest_probs(candidates)):
                opts.append(TranslationOption(
                    start=pos, end=pos + 1, target=(cand.target,),
                    features={TRANSLIT_FEATURE: math.log10(max(prob, SCORE_FLOOR))},
                    origin="translit",
                ))
        else:
            opts.append(TranslationOption(
                start=pos, end=pos + 1, target=(word,),
                features={}, origin="pass-through",
            ))
        lattice[(pos, pos + 1)] = opts[:limit]
    return lattice


# --- Stack decoding ----------------------------------------------------------

def _lm_walk(lm, state: tuple[str, ...], words: Sequence[str]) -> tuple[float, tuple[str, ...]]:
    """The summed LM log10 score of `words` after `state`, and the minimal
    state they leave (`lm.minimal_state`): the shortest one that gives every
    later word the same score, so that nodes recombine on it."""
    keep = lm.order - 1
    lm_sum = 0.0
    for word in words:
        lm_sum += lm.logprob(state, word)
        state = (state + (word,))[-keep:] if keep > 0 else ()
    return lm_sum, lm.minimal_state(state)


class _Node:
    """One recombined search state.

    `back` is the (pred, option) of the first arc of largest pred.score +
    inc, None at the initial node. `arcs` lists every (pred, option, inc)
    arc, the derivation lattice, when the search keeps it, else it is ().
    """

    __slots__ = ("coverage", "lm_state", "prev_end", "score", "future", "back", "arcs")

    def __init__(self, coverage: int, lm_state: tuple[str, ...], prev_end: int,
                 future: float, keep_arcs: bool) -> None:
        self.coverage = coverage
        self.lm_state = lm_state
        self.prev_end = prev_end
        self.score = -math.inf  # best over the arcs; final once its stack is expanded
        self.future = future
        self.back: tuple[_Node, TranslationOption | None] | None = None
        self.arcs: list[tuple[_Node, TranslationOption | None, float]] | tuple[()] = \
            [] if keep_arcs else ()


@dataclass
class DecodeResult:
    """A search's best score and options, and its goal node: the start of
    the back-pointer walk and, if the search kept arcs, of `nbest`."""

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
        lm_sum, state = _lm_walk(lm, state, option.target)
        feats["lm"] += lm_sum
        feats["word_penalty"] -= len(option.target)
        feats["phrase_penalty"] -= 1.0
        feats["distortion"] -= abs(option.start - prev_end)
        prev_end = option.end
    return feats


def weighted_total(features: dict[str, float], weights: dict[str, float]) -> float:
    """The model score of a feature vector; the one weighted sum in the decoder."""
    return ltr_sum(weights[name] * value for name, value in features.items())


def _future_costs(n: int, by_start: list, lm, w_lm: float,
                  w_pp: float) -> dict[tuple[int, int], float]:
    """Best achievable weighted score per span (distortion ignored), from the
    static scores and word penalties that `decode` holds per start."""
    span_best: dict[tuple[int, int], float] = {}
    for start, spans in enumerate(by_start):
        for end, _, _, scored in spans:
            span_best[(start, end)] = max(
                (static + w_lm * ltr_sum(lm.logprob((), w) for w in option.target)
                 - wp_cost - w_pp for option, static, wp_cost, _ in scored),
                default=-math.inf)

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
    distortion_limit: int,
    stack_size: int,
    *,
    keep_arcs: bool,
) -> DecodeResult:
    """Find the best-scoring complete hypothesis by stack search.

    With keep_arcs the result holds the recombination lattice that `nbest`
    enumerates; without it, only each node's back-pointer, which is all
    the 1-best needs.

    A new phrase must start within distortion_limit of the previous
    phrase's end, and end within distortion_limit of the first uncovered
    position, so that every gap stays reachable; the distortion feature is
    the negated jump distance.

    The beam, best first (ties by stack key), is expanded one coverage
    group at a time, each group holding its nodes in beam order. A group
    walks the uncovered starts of its nodes' windows by bitmask, low to
    high. A phrase at the first uncovered position may end anywhere before
    the next covered one; a phrase right of it must end by that position
    plus distortion_limit, so no later start is tried. Each span from a
    start is tried by every node of the group whose window holds the start,
    in beam order, with its own distortion cost. These are exactly the
    (node, span) pairs the constraints admit; only the order of the visits
    differs from a node-by-node expansion.

    That order changes no result. A node's predecessors from one stack all
    reach it through one span, since the node's previous end and the
    stack's cardinality fix the span's end and length, so they share one
    coverage and their arcs arrive in beam order, one predecessor's
    options together and in option order. Stacks are expanded by
    cardinality, so each node's arcs come in the node-major order of a
    node-by-node expansion, and the back-pointer, set only on a strictly
    higher total, is the first arc of the best total, ties included.

    Within a span, an option is dropped when an earlier option with the
    same target scores at least as high. Both lead to the same child, and
    the dropped one's increment is no higher (rounding is monotone) and its
    arc would come later. It could not raise the child's score, and the
    1-best and `nbest` reach the kept arc first, so the result is the one
    that keeping every option gives, to the last bit.

    Without arcs, "the same target" widens to any target of the same
    length made only of words the LM does not store (`lm.stores`), such as
    the transliterations of an unseen word. From every state all such
    targets score the same LM bits and word penalty and leave the same
    minimal state, so the dropped option again reaches the kept one's child
    with no higher increment and later: no node, back-pointer or 1-best
    changes. An n-best search keeps them, since their strings differ.
    """
    n = len(sentence)
    if n == 0:
        raise ValueError("cannot decode an empty sentence")
    uncovered = [pos for pos in range(n)
                 if not any(s <= pos < e for (s, e) in options)]
    if uncovered:
        raise DataError(f"positions {uncovered} have no translation options")

    w_lm = model.weights["lm"]
    w_wp = model.weights["word_penalty"]
    w_pp = model.weights["phrase_penalty"]
    w_dist = model.weights["distortion"]

    # Per start position: (end, mask, length, [(option, static score, word
    # penalty, LM steps)]) in end order. LM steps are shared by every option
    # with the same target and map an LM state to (w_lm * lm_sum, next state).
    # A span keeps an option only if it scores higher than every earlier
    # option with its target, or without arcs with a target the LM cannot
    # tell apart from it, which is its length alone (see the docstring).
    lm_steps: dict[tuple[str, ...], dict[tuple[str, ...], tuple[float, tuple[str, ...]]]] = {}
    by_start: list[list[tuple[int, int, int, list]]] = [[] for _ in range(n)]
    for start, end in sorted(options):
        scored = []
        kept: dict[tuple[str, ...] | int, float] = {}
        for option in options[(start, end)]:
            static = weighted_total(option.features, model.weights)
            same: tuple[str, ...] | int = option.target
            if not keep_arcs and not any(map(lm.stores, same)):
                same = len(same)
            if same in kept and static <= kept[same]:
                continue
            kept[same] = static
            scored.append((option, static, w_wp * len(option.target),
                           lm_steps.setdefault(option.target, {})))
        by_start[start].append((end, ((1 << (end - start)) - 1) << start,
                                end - start, scored))
    fc = _future_costs(n, by_start, lm, w_lm, w_pp)
    full = (1 << n) - 1
    reach = max(distortion_limit, 1)
    futures: dict[int, float] = {}

    init_state: tuple[str, ...] = (BOS,) if lm.order > 1 else ()
    init = _Node(0, init_state, 0, _coverage_future(0, n, fc), keep_arcs)
    init.score = 0.0
    stacks: list[dict[tuple, _Node]] = [dict() for _ in range(n + 1)]
    stacks[0][(0, init_state, 0)] = init

    for cardinality in range(n):
        # a stack key is (coverage, LM state, previous end), unique per node
        beam = sorted([(-(nd.score + nd.future), key, nd)
                       for key, nd in stacks[cardinality].items()])[:stack_size]
        # children point to parents only, so the goal can reach no node of
        # this stack outside the beam: free the rest, and their arcs, now
        stacks[cardinality] = {}
        groups: dict[int, list[_Node]] = {}
        for _, _, node in beam:
            groups.setdefault(node.coverage, []).append(node)
        for covered, nodes in groups.items():
            gaps = ~covered & full
            first_gap = (gaps & -gaps).bit_length() - 1
            # Uncovered starts in some node's distortion window, low to
            # high. None lies left of a node's prev_end - distortion_limit:
            # its last phrase either started at the old first gap, which now
            # lies past its end, or ended within distortion_limit of that
            # gap, which is still open. A span right of the first gap leaves
            # that gap open, so it must end by first_gap + distortion_limit;
            # no start from first_gap + reach on has such a span (at
            # distortion_limit 0 only the first gap itself can start one).
            window = max(node.prev_end for node in nodes) + distortion_limit + 1
            starts = gaps & ((1 << min(window, first_gap + reach)) - 1)
            while starts:
                low = starts & -starts
                starts ^= low
                start = low.bit_length() - 1
                # the nodes whose window holds start, in beam order
                reaching = [(node, node.lm_state, node.score, w_dist * abs(start - node.prev_end))
                            for node in nodes if start <= node.prev_end + distortion_limit]
                last_end = n if start == first_gap else first_gap + distortion_limit
                for end, mask, length, scored in by_start[start]:
                    if end > last_end or covered & mask:
                        break  # every longer span from this start fails too
                    coverage = covered | mask
                    child_stack = stacks[cardinality + length]
                    for node, node_state, node_score, dist_cost in reaching:
                        for option, static, wp_cost, steps in scored:
                            step = steps.get(node_state)
                            if step is None:
                                lm_sum, state = _lm_walk(lm, node_state, option.target)
                                step = steps[node_state] = (w_lm * lm_sum, state)
                            lm_score, state = step
                            inc = static + lm_score - wp_cost - w_pp - dist_cost
                            key = (coverage, state, end)
                            child = child_stack.get(key)
                            if child is None:
                                future = futures.get(coverage)
                                if future is None:
                                    future = futures[coverage] = _coverage_future(
                                        coverage, n, fc)
                                child = _Node(coverage, state, end, future, keep_arcs)
                                child_stack[key] = child
                            if keep_arcs:
                                child.arcs.append((node, option, inc))
                            total = node_score + inc
                            if total > child.score:
                                child.score = total
                                child.back = (node, option)

    # every complete hypothesis, best first, ties by stack key
    complete = sorted(stacks[n].items(), key=lambda item: (-item[1].score, item[0]))
    if not complete:
        raise DataError("no complete hypothesis found (search dead-ended)")
    best = complete[0][1]
    goal = _Node(full, (), n, 0.0, keep_arcs)
    goal.back = (best, None)
    if keep_arcs:
        goal.arcs = [(node, None, 0.0) for _, node in complete]
    goal.score = best.score
    return DecodeResult(goal=goal, model=model, lm=lm, best_score=goal.score,
                        best_derivation=_best_derivation(goal))


def _best_derivation(goal: _Node) -> list[TranslationOption]:
    """The options on the back-pointers from the goal, in sentence order.

    The search sets a back-pointer only on a strictly higher pred.score +
    inc, with pred.score already final, so each one is its node's first arc
    of largest pred.score + inc: the arc `nbest` ranks first. The result is
    the first derivation that `nbest` enumerates.
    """
    derivation: list[TranslationOption] = []
    back = goal.back
    while back is not None:
        node, option = back
        if option is not None:
            derivation.append(option)
        back = node.back
    derivation.reverse()
    return derivation


# --- Exact n-best ------------------------------------------------------------

@dataclass
class NBestItem:
    tokens: tuple[str, ...]
    score: float
    features: dict[str, float]


NBEST_MAX_POPS = 100000  # derivations nbest may enumerate in search of n distinct strings


def nbest(result: DecodeResult, n: int) -> list[NBestItem]:
    """Up to n distinct target strings by descending score.

    Derivations are enumerated exactly from the recombination lattice
    (lazy k-best over back-pointer arcs, Huang & Chiang 2005), so the result
    must come from a search that kept arcs; duplicate strings keep their
    highest-scoring derivation. A node's heap starts from its predecessors'
    final scores, the scores of their first derivations, so only the nodes
    on popped derivations get lists.

    The options `decode` drops only ever gave a string again after a
    derivation of it at least as good, so a list that NBEST_MAX_POPS cuts
    short holds every item the lattice with all options gives within that
    many pops, and possibly more.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not result.goal.arcs:
        raise ValueError("nbest needs the recombination lattice, and this result "
                         "was decoded without arcs (keep_arcs=False)")
    lists: dict[int, list[tuple[float, int, int]]] = {}
    heaps: dict[int, list[tuple[float, int, int]]] = {}

    def ensure(node: _Node) -> None:
        nid = id(node)
        if nid in lists:
            return
        if not node.arcs:
            # initial node: the single empty derivation
            lists[nid] = [(0.0, -1, -1)]
            heaps[nid] = []
            return
        lists[nid] = []
        # a predecessor's first derivation scores pred.score, final since its
        # stack was expanded, so a predecessor gets a list only once popped
        heap = [(-(pred.score + inc), arc_idx, 0)
                for arc_idx, (pred, _, inc) in enumerate(node.arcs)]
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
        options = path(pred, rank)
        if option is not None:
            options.append(option)
        return options

    items: list[NBestItem] = []
    seen: set[tuple[str, ...]] = set()
    rank = 0
    while len(items) < n and rank < NBEST_MAX_POPS:
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

SEARCH_LOWS = {"option_limit": 1, "translit_k": 1, "distortion_limit": 0, "stack_size": 1}


def check_at_least(settings: object, lows: dict[str, int]) -> None:
    """A ValueError naming the first attribute of `settings` below its entry in `lows`."""
    for name, low in lows.items():
        if getattr(settings, name) < low:
            raise ValueError(f"{name} must be >= {low}, got {getattr(settings, name)}")


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

    def __post_init__(self) -> None:
        check_at_least(self, SEARCH_LOWS)

    def lattice(self, sentence: Sequence[str], model: LogLinearModel) -> OptionLattice:
        return collect_options(sentence, self.tables, self.translit_model, model,
                               self.option_limit, self.translit_k)

    def default_model(self) -> LogLinearModel:
        return LogLinearModel.default(len(self.tables.tables),
                                      self.translit_model is not None)

    def decode(self, sentence: Sequence[str], model: LogLinearModel | None = None,
               keep_arcs: bool = True) -> DecodeResult:
        """Search `sentence`; with keep_arcs=False the result serves the
        1-best only, and `nbest` rejects it."""
        model = model or self.default_model()
        return decode(sentence, model, self.lm, self.lattice(sentence, model),
                      distortion_limit=self.distortion_limit,
                      stack_size=self.stack_size, keep_arcs=keep_arcs)

    def translate(self, sentence: Sequence[str],
                  model: LogLinearModel | None = None) -> tuple[str, ...]:
        return self.decode(sentence, model, keep_arcs=False).best_tokens()


# --- Corpus decoding ---------------------------------------------------------

def decode_corpus(
    system: DecoderSystem,
    model: LogLinearModel,
    sentences: Sequence[Sequence[str]],
    nbest_size: int = 0,
) -> list[tuple[tuple[str, ...], list[NBestItem]]]:
    """Decode sentences in order into (best tokens, n-best items) pairs.

    The n-best list is empty unless nbest_size > 0, and only then does the
    search keep the arcs of its lattice. An empty sentence, or
    one whose search dead-ends, gives ((), []); a dead-end also logs one
    warning naming its 1-based line. From four sentences on, they are
    decoded through corpus.forked_map, on every usable CPU.
    """
    def decode_one(tokens: Sequence[str]):  # None if its search dead-ends
        if not tokens:
            return (), []
        try:
            result = system.decode(tokens, model, keep_arcs=nbest_size > 0)
        except DataError:
            return None
        return result.best_tokens(), nbest(result, nbest_size) if nbest_size > 0 else []

    results = (forked_map(decode_one, sentences) if len(sentences) >= 4
               else list(map(decode_one, sentences)))
    for line, decoded in enumerate(results, start=1):
        if decoded is None:
            logger.warning("line %d: the search dead-ended; its output is empty", line)
            results[line - 1] = (), []
    return results


# Deterministic step grid explored around each weight during tuning.
_TUNE_STEPS = (-1.0, -0.5, -0.2, -0.05, 0.05, 0.2, 0.5, 1.0)
DEFAULT_TUNE_ROUNDS = 3
DEFAULT_NBEST_SIZE = 50  # n-best list size of each tuning decode


def tune_weights(
    dev: Sequence[tuple[Sequence[str], Sequence[str]]],
    system: DecoderSystem,
    initial: LogLinearModel,
    rounds: int = DEFAULT_TUNE_ROUNDS,
    nbest_size: int = DEFAULT_NBEST_SIZE,
) -> LogLinearModel:
    """Coordinate ascent on corpus BLEU over pooled n-best lists.

    The dev set of (source, reference) token pairs is re-decoded every
    round with the current weights; the n-best pool accumulates across
    rounds. Each pooled hypothesis's BLEU statistics are computed once per
    round, and a trial's corpus BLEU adds those of each pool's best
    hypothesis: they are integer counts, so the sum is exact and the score
    is corpus_bleu's. Fully deterministic: the step grid is fixed and ties
    keep the incumbent weight.
    """
    if not any(src for src, _ in dev):  # no sentence, or only blank ones
        raise DataError("cannot tune on an empty dev set")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if nbest_size < 1:
        raise ValueError("nbest_size must be >= 1")
    weights = dict(initial.weights)
    order = initial.feature_order()
    refs = [tuple(ref) for _, ref in dev]
    empty_stats = [sentence_stats((), ref, DEFAULT_MAX_N) for ref in refs]
    pools: list[dict[tuple[str, ...], dict[str, float]]] = [dict() for _ in dev]
    # each pool's (feature values in `order`, BLEU statistics) in token
    # order; pools change only while decoding, so this is rebuilt once per round
    sorted_pools: list[list[tuple[list[float], BleuStats]]] = []

    def pick(pool: list[tuple[list[float], BleuStats]], trial: list[float],
             empty: BleuStats) -> BleuStats:
        # `trial` holds the weights in `order`, the order of every pooled
        # feature dict, so each score is weighted_total's products in its order.
        # max keeps the first of equal scores; an empty pool scores as ()
        return max(pool, key=lambda entry: ltr_sum(map(operator.mul, trial, entry[0])),
                   default=(None, empty))[1]

    def rescore_bleu(trial: list[float]) -> float:
        total = BleuStats(max_n=DEFAULT_MAX_N)
        for pool, empty in zip(sorted_pools, empty_stats):
            total.add(pick(pool, trial, empty))
        return total.score()

    best_weights = dict(weights)
    best_bleu = -1.0
    for _ in range(rounds):
        model = LogLinearModel(weights=dict(weights), n_tables=initial.n_tables,
                               use_translit=initial.use_translit)
        decoded = decode_corpus(system, model, [src for src, _ in dev], nbest_size=nbest_size)
        for (_, items), pool in zip(decoded, pools):
            for item in items:
                existing = pool.get(item.tokens)
                if (existing is None or weighted_total(item.features, weights)
                        > weighted_total(existing, weights)):
                    pool[item.tokens] = item.features
        sorted_pools = [[([features[name] for name in order],
                          sentence_stats(tokens, ref, DEFAULT_MAX_N))
                         for tokens, features in sorted(pool.items())]
                        for pool, ref in zip(pools, refs)]
        # BLEU of the current weights, carried from coordinate to coordinate
        best_score = rescore_bleu([weights[name] for name in order])
        if best_score > best_bleu:
            best_bleu = best_score
            best_weights = dict(weights)
        improved = True
        while improved:
            improved = False
            for k, name in enumerate(order):
                base = weights[name]
                best_value = base
                trial = [weights[feature] for feature in order]
                # A trial changes only the k-th product of a score, so each
                # hypothesis stores the sum of its products before k and its
                # products after k, and a trial score adds them in
                # weighted_total's order. A pool with no non-zero value at k
                # scores the same under every trial: its base pick is fixed.
                fixed = BleuStats(max_n=DEFAULT_MAX_N)
                moving = []
                for pool, empty in zip(sorted_pools, empty_stats):
                    if any(values[k] for values, _ in pool):
                        moving.append([(ltr_sum(map(operator.mul, trial[:k], values)), values[k],
                                        list(map(operator.mul, trial[k + 1:], values[k + 1:])),
                                        stats) for values, stats in pool])
                    else:
                        fixed.add(pick(pool, trial, empty))
                if not moving:  # every trial would score best_score
                    continue
                for step in _TUNE_STEPS:
                    value = base + step
                    total = BleuStats(max_n=DEFAULT_MAX_N)
                    total.add(fixed)
                    for parts in moving:
                        total.add(max(parts, key=lambda part: ltr_sum(
                            part[2], part[0] + value * part[1]))[3])
                    bleu = total.score()
                    if bleu > best_score + 1e-12:
                        best_score = bleu
                        best_value = value
                if best_value != base:
                    weights[name] = best_value
                    improved = True
                    if best_score > best_bleu:
                        best_bleu = best_score
                        best_weights = dict(weights)
    return LogLinearModel(weights=best_weights, n_tables=initial.n_tables,
                          use_translit=initial.use_translit)


# --- Weights file I/O --------------------------------------------------------

def write_weights(model: LogLinearModel, dest: str | TextIO) -> None:
    write_lines(dest, (f"{name}\t{model.weights[name]:.6f}" for name in model.feature_order()))


def read_weights(path: str, n_tables: int, use_translit: bool = False) -> LogLinearModel:
    """A `feature<TAB>weight` file; a feature the system lacks is a DataError at its
    line, and one the file lacks weighs 0."""
    known = feature_names(n_tables, use_translit)
    weights = {}
    for where, (name, weight) in records(path, widths=(2,)):
        if name not in known:
            raise DataError(f"{where}: unknown feature {name!r} (known: {', '.join(known)})")
        weights[name] = number(weight, where, "weight")
    return LogLinearModel(weights=weights, n_tables=n_tables, use_translit=use_translit)
