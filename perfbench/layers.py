"""Which pivotsmt functions get spans, and the per-layer metrics built from them.

Functions imported by name into another module (``corpus_bleu`` and
``transliterate`` in ``decoder``, ``prune_table`` in ``pivot``) are wrapped
where they are looked up as well, under the same span name.
"""

from __future__ import annotations

import os

from pivotsmt import (align, corpus, decoder, evalkit, ngramlm, phrasetab,
                      pipeline, pivot, translit)
from pivotsmt.errors import DataError


def _reachable_arcs(goal) -> int:
    seen = {id(goal)}
    todo = [goal]
    arcs = 0
    while todo:
        node = todo.pop()
        arcs += len(node.arcs)
        for pred, _, _ in node.arcs:
            if pred is not None and id(pred) not in seen:
                seen.add(id(pred))
                todo.append(pred)
    return arcs


def _compositions(args) -> int:
    """Bridge x inner products triangulate evaluates, from its input tables."""
    pivot_to_tgt, src_to_pivot = args[0], args[1]
    return sum(len(pivot_to_tgt.get(bridge.target))
               for bridge in src_to_pivot)


def instrument(tracer) -> None:
    """Wrap every public entry point the workloads reach."""
    count = tracer.count
    wrap = tracer.wrap

    wrap(corpus, "ingest_bitext", "corpus.ingest_bitext",
         after=lambda r, a, k: count("corpus.pairs", len(r)))

    wrap(align, "train_model1", "align.train_model1",
         after=lambda r, a, k: count("align.em_iterations", len(r.log_likelihoods)))
    wrap(align, "viterbi_align", "align.viterbi_align")
    wrap(align, "symmetrize_gdfa", "align.symmetrize_gdfa",
         after=lambda r, a, k: count("align.links", len(r.links)))

    wrap(pipeline, "build_phrase_table", "pipeline.build_phrase_table")
    wrap(pipeline, "align_bitext", "pipeline.align_bitext")

    wrap(phrasetab, "extract_phrases", "phrasetab.extract_phrases")
    wrap(phrasetab, "score_phrase_table", "phrasetab.score_phrase_table",
         after=lambda r, a, k: count("phrasetab.entries", len(r)))
    wrap(phrasetab, "prune_table", "phrasetab.prune_table")
    wrap(pivot, "prune_table", "phrasetab.prune_table")
    wrap(phrasetab, "write_moses", "phrasetab.write_moses",
         after=lambda r, a, k: count("phrasetab.io_bytes", os.path.getsize(a[1]))
         if isinstance(a[1], str) else None)

    def after_triangulate(result, args, kwargs):
        count("pivot.compositions", _compositions(args))
        count("pivot.entries_out", len(result))
    wrap(pivot, "triangulate", "pivot.triangulate", after=after_triangulate)

    wrap(translit, "mine_transliterations", "translit.mine_transliterations",
         after=lambda r, a, k: (count("translit.mine_pairs_in", len(a[0])),
                                count("translit.mined_pairs", len(r[1]))))

    def after_kbest(result, args, kwargs):
        count("translit.kbest_words")
        count("translit.kbest_candidates", len(result))
        count("translit.kbest_unique", len({c.target for c in result}))
    wrap(translit, "transliterate", "translit.transliterate", after=after_kbest)
    wrap(decoder, "transliterate", "translit.transliterate", after=after_kbest)
    wrap(translit, "build_translit_table", "translit.build_translit_table",
         on_error=lambda e, a, k: count("translit.table_failed"))

    wrap(ngramlm, "train_kn", "ngramlm.train_kn",
         after=lambda r, a, k: count("ngramlm.ngrams", len(r.logprobs)))
    wrap(ngramlm, "write_arpa", "ngramlm.write_arpa")

    wrap(decoder.DecoderSystem, "lattice", "decoder.lattice",
         after=lambda r, a, k: count("decoder.options", sum(len(v) for v in r.values())))

    def after_decode(result, args, kwargs):
        count("decoder.words", len(args[0]))
        count("decoder.lattice_arcs", _reachable_arcs(result.goal))

    def decode_failed(exc, args, kwargs):
        count("decoder.words", len(args[0]))
        if isinstance(exc, DataError):
            count("decoder.failed")
    wrap(decoder, "decode", "decoder.decode", after=after_decode, on_error=decode_failed)
    wrap(decoder, "nbest", "decoder.nbest",
         after=lambda r, a, k: count("decoder.nbest_items", len(r)))
    wrap(decoder, "tune_weights", "decoder.tune_weights")

    wrap(evalkit, "corpus_bleu", "evalkit.corpus_bleu")
    wrap(decoder, "corpus_bleu", "evalkit.corpus_bleu")


def layer_metrics(setup_tracer, pass_tracer, traced_passes: int) -> dict[str, float]:
    """Set-up spans once plus timed-phase spans averaged per traced pass."""
    setup_spans = setup_tracer.summary()
    pass_spans = pass_tracer.summary()

    def span(name: str, field: str = "self_s") -> float:
        value = setup_spans[name][field] if name in setup_spans else 0.0
        if name in pass_spans:
            value += pass_spans[name][field] / traced_passes
        return value

    def counter(name: str) -> float:
        return (setup_tracer.counts.get(name, 0.0)
                + pass_tracer.counts.get(name, 0.0) / traced_passes)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "corpus.ingest_s": span("corpus.ingest_bitext", "total_s"),
        "corpus.pairs": counter("corpus.pairs"),
        "align.model1_s": span("align.train_model1", "total_s"),
        "align.em_iterations": counter("align.em_iterations"),
        "align.viterbi_s": span("align.viterbi_align", "total_s"),
        "align.viterbi_calls": span("align.viterbi_align", "calls"),
        "align.gdfa_s": span("align.symmetrize_gdfa", "total_s"),
        "align.links": counter("align.links"),
        "phrasetab.extract_s": span("phrasetab.extract_phrases", "total_s"),
        "phrasetab.score_s": span("phrasetab.score_phrase_table"),
        "phrasetab.entries": counter("phrasetab.entries"),
        "phrasetab.io_s": span("phrasetab.write_moses", "total_s"),
        "phrasetab.io_bytes": counter("phrasetab.io_bytes"),
        "phrasetab.prune_s": span("phrasetab.prune_table", "total_s"),
        "pivot.triangulate_s": span("pivot.triangulate"),
        "pivot.compositions": counter("pivot.compositions"),
        "pivot.entries_out": counter("pivot.entries_out"),
        "pivot.kept_ratio": ratio(counter("pivot.entries_out"),
                                  counter("pivot.compositions")),
        "translit.mine_s": span("translit.mine_transliterations", "total_s"),
        "translit.mine_pairs_in": counter("translit.mine_pairs_in"),
        "translit.mined_pairs": counter("translit.mined_pairs"),
        "translit.kbest_s": span("translit.transliterate", "total_s"),
        "translit.kbest_words": counter("translit.kbest_words"),
        "translit.kbest_candidates": counter("translit.kbest_candidates"),
        "translit.kbest_unique_ratio": ratio(counter("translit.kbest_unique"),
                                             counter("translit.kbest_candidates")),
        "translit.table_failed": counter("translit.table_failed"),
        "ngramlm.train_s": span("ngramlm.train_kn", "total_s"),
        "ngramlm.ngrams": counter("ngramlm.ngrams"),
        "ngramlm.io_s": span("ngramlm.write_arpa", "total_s"),
        "ngramlm.queries": counter("ngramlm.queries"),
        "ngramlm.queries_per_word": ratio(counter("ngramlm.queries"),
                                          counter("decoder.words")),
        "decoder.options_s": span("decoder.lattice"),
        "decoder.options": counter("decoder.options"),
        "decoder.search_s": span("decoder.decode"),
        "decoder.failed": counter("decoder.failed"),
        "decoder.lattice_arcs": counter("decoder.lattice_arcs"),
        "decoder.nbest_s": span("decoder.nbest"),
        "decoder.nbest_items": counter("decoder.nbest_items"),
        "decoder.tune_s": span("decoder.tune_weights"),
        "evalkit.bleu_s": span("evalkit.corpus_bleu", "total_s"),
        "evalkit.bleu_calls": span("evalkit.corpus_bleu", "calls"),
        "pipeline.self_s": (span("pipeline.build_phrase_table")
                            + span("pipeline.align_bitext")),
    }
