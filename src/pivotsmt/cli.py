"""Command-line interface.

Subcommands: tokenize, ingest, dict-links, align, extract, triangulate,
mine-translit, translit-table, train-lm, synthesize, tune, decode, score,
tally, experiment.
Every subcommand exits 0 on success, 1 on usage error, 2 on data error.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import align as align_mod
from . import decoder, evalkit, ngramlm, phrasetab, pipeline, pivot, translit
from .corpus import (DEFAULT_MAX_SENT_LEN, LM_RESERVED, _line_tokens, _tokens_of, forked_map,
                     mine_language_links, read_lines, read_parallel, read_sentences, records,
                     tokenize, within_length, write_lines)
from .errors import PivotSmtError

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit code 1 and one line."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pivotsmt", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log at INFO, e.g. the log-likelihood of each EM iteration")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("tokenize", help="tokenize raw text, one sentence per line")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--scheme", default="unicode-punct",
                   choices=("unicode-punct", "whitespace"))
    p.add_argument("--lowercase", action="store_true")

    p = sub.add_parser("ingest", help="pair up a parallel corpus, dropping long pairs")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--out-src", required=True)
    p.add_argument("--out-tgt", required=True)
    p.add_argument("--max-len", type=int, default=DEFAULT_MAX_SENT_LEN)

    p = sub.add_parser("dict-links", help="mine a dictionary from wiki language links")
    p.add_argument("--pages", required=True, help="pages, each under a `== <title>` line")
    p.add_argument("--lang", required=True, help="language code of the links to keep")
    p.add_argument("--out", required=True, help="source<TAB>target<TAB>provenance file")

    p = sub.add_parser("align", help="train word alignments and symmetrize")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--out", required=True, help="alignment file (i-j links per line)")
    p.add_argument("--iterations", type=int, default=align_mod.DEFAULT_EM_ITERATIONS)
    p.add_argument("--no-null", action="store_true")
    p.add_argument("--dump-tables",
                   help="prefix for t-table dumps: PREFIX.fwd holds t(tgt|src), "
                        "PREFIX.bwd t(src|tgt)")

    p = sub.add_parser("extract", help="extract and score a Moses phrase table")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--alignments", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-phrase-len", type=int, default=phrasetab.DEFAULT_MAX_PHRASE_LEN)
    p.add_argument("--iterations", type=int, default=align_mod.DEFAULT_EM_ITERATIONS,
                   help="EM iterations for the lexical-weight tables")
    p.add_argument("--top-k", type=_at_least(0), default=0,
                   help="prune per source (0 = off)")

    p = sub.add_parser("triangulate", help="compose two tables over a pivot language")
    p.add_argument("--pivot-to-tgt", required=True,
                   help="table mapping pivot phrases to target phrases")
    p.add_argument("--src-to-pivot", required=True,
                   help="table mapping source phrases to pivot phrases")
    p.add_argument("--out", required=True)
    p.add_argument("--min-score", type=float, default=pivot.TriangulationConfig.min_score)
    p.add_argument("--top-k", type=int, default=pivot.TriangulationConfig.top_k)

    p = sub.add_parser("mine-translit", help="mine transliteration pairs unsupervised")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pairs", help="TSV of src<TAB>tgt[<TAB>weight]")
    group.add_argument("--table", help="Moses table; 1-token entries become pairs")
    p.add_argument("--model-out", required=True)
    p.add_argument("--pairs-out")
    p.add_argument("--iterations", type=int, default=translit.DEFAULT_MINE_ITERATIONS)
    p.add_argument("--threshold", type=float, default=translit.DEFAULT_MINE_THRESHOLD)

    p = sub.add_parser("translit-table", help="k-best transliterations as a phrase table")
    p.add_argument("--model", required=True)
    p.add_argument("--words", required=True, help="one word per line")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=translit.DEFAULT_KBEST)

    p = sub.add_parser("train-lm", help="train a Kneser-Ney n-gram model (ARPA)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--order", type=int, default=ngramlm.DEFAULT_ORDER)

    def decoder_flags(p):
        p.add_argument("--table", action="append", required=True,
                       help="phrase table; repeat for separate feature blocks")
        p.add_argument("--lm", required=True)
        p.add_argument("--lm2", help="second ARPA model for a query-time mixture")
        p.add_argument("--lm-lambda", type=float, default=0.5)
        p.add_argument("--weights", help="feature_name<TAB>weight file")
        p.add_argument("--translit-model")
        search = decoder.DecoderSystem
        p.add_argument("--option-limit", type=int, default=search.option_limit)
        p.add_argument("--distortion-limit", type=int, default=search.distortion_limit)
        p.add_argument("--stack-size", type=int, default=search.stack_size)

    p = sub.add_parser("synthesize", help="re-source a bitext through a translation system")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--out-src", required=True)
    p.add_argument("--out-tgt", required=True)
    decoder_flags(p)

    p = sub.add_parser("tune", help="coordinate-ascent weight tuning on BLEU")
    p.add_argument("--dev-src", required=True)
    p.add_argument("--dev-ref", required=True)
    p.add_argument("--weights-out", required=True)
    p.add_argument("--rounds", type=int, default=decoder.DEFAULT_TUNE_ROUNDS)
    p.add_argument("--nbest", type=int, default=decoder.DEFAULT_NBEST_SIZE)
    decoder_flags(p)

    p = sub.add_parser("decode", help="translate a tokenized file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--nbest", type=_at_least(0), default=0)
    p.add_argument("--nbest-out")
    decoder_flags(p)

    p = sub.add_parser("score", help="corpus BLEU of a hypothesis file")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--max-n", type=int, default=evalkit.DEFAULT_MAX_N)

    p = sub.add_parser("tally", help="count and percent of each manual judgment")
    p.add_argument("--labels", required=True, help="sent_id,judge_id,category lines")

    p = sub.add_parser("experiment", help="run the B0/+Syn/+PT/+Dict mode matrix")
    p.add_argument("--config", required=True, help="key = value experiment file")

    return parser


def _load_system(args) -> tuple[decoder.DecoderSystem, decoder.LogLinearModel]:
    decoder.check_at_least(args, decoder.SEARCH_LOWS)  # before any file is read
    tables = [phrasetab.read_moses(path) for path in args.table]
    table_set = phrasetab.TableSet(tables)
    lm = ngramlm.read_arpa(args.lm)
    if args.lm2:
        lm = ngramlm.MixtureModel(lm, ngramlm.read_arpa(args.lm2), args.lm_lambda)
    translit_model = None
    if args.translit_model:
        translit_model = translit.read_char_model(args.translit_model)
    system = decoder.DecoderSystem(
        tables=table_set, lm=lm, translit_model=translit_model,
        option_limit=args.option_limit, distortion_limit=args.distortion_limit,
        stack_size=args.stack_size,
    )
    if args.weights:
        model = decoder.read_weights(args.weights, system.n_blocks)
    else:
        model = system.default_model()
    return system, model


def cmd_tokenize(args) -> int:
    lines = [" ".join(tokenize(line, args.scheme, lowercase=args.lowercase))
             for line in read_lines(args.input)]
    _line_tokens(lines, args.input)  # a `|||` token is a DataError
    write_lines(args.output, lines)
    return 0


def _write_pairs(args, pairs) -> None:
    write_lines(args.out_src, (" ".join(s) for s, _ in pairs))
    write_lines(args.out_tgt, (" ".join(t) for _, t in pairs))


def cmd_ingest(args) -> int:
    pairs = read_parallel(args.src, args.tgt)
    kept = within_length(pairs, args.max_len)
    _write_pairs(args, kept)
    print(f"kept {len(kept)} pairs, dropped {len(pairs) - len(kept)}")
    return 0


def cmd_dict_links(args) -> int:
    entries, malformed = mine_language_links(args.pages, args.lang)
    write_lines(args.out, (f"{' '.join(e.source)}\t{' '.join(e.target)}\t{e.provenance}"
                           for e in entries))
    print(f"mined {len(entries)} entries, skipped {malformed} malformed links")
    return 0


def cmd_align(args) -> int:
    matrices, tgt_given_src, src_given_tgt = pipeline.align_bitext(
        read_parallel(args.src, args.tgt), args.iterations, use_null=not args.no_null)
    align_mod.write_alignments(args.out, matrices)
    if args.dump_tables:
        align_mod.write_table(args.dump_tables + ".fwd", tgt_given_src)
        align_mod.write_table(args.dump_tables + ".bwd", src_given_tgt)
    print(f"aligned {len(matrices)} pairs")
    return 0


def cmd_extract(args) -> int:
    pairs = read_parallel(args.src, args.tgt)
    sizes = [(len(s), len(t)) for s, t in pairs]
    matrices = align_mod.read_alignments(args.alignments, sizes)
    src_given_tgt, tgt_given_src = forked_map(
        lambda bitext: align_mod.train_model1(bitext, args.iterations),
        [pairs, [(t, s) for s, t in pairs]])
    averages = phrasetab.link_averages(pairs, matrices, tgt_given_src, src_given_tgt)
    del src_given_tgt, tgt_given_src  # counting reads only the averages
    table = phrasetab.score_phrase_table(pairs, matrices, averages,
                                         max_len=args.max_phrase_len)
    if args.top_k > 0:
        table = phrasetab.prune_table(table, args.top_k)
    phrasetab.write_moses(table, args.out)
    print(f"extracted {len(table)} phrase pairs")
    return 0


def cmd_triangulate(args) -> int:
    pivot_to_tgt = phrasetab.read_moses(args.pivot_to_tgt)
    src_to_pivot = phrasetab.read_moses(args.src_to_pivot)
    config = pivot.TriangulationConfig(min_score=args.min_score, top_k=args.top_k)
    table = pivot.triangulate(pivot_to_tgt, src_to_pivot, config)
    phrasetab.write_moses(table, args.out)
    print(f"triangulated {len(table)} phrase pairs")
    return 0


def cmd_mine_translit(args) -> int:
    if args.pairs:
        corpus = translit.WordPairCorpus.from_tsv(args.pairs)
    else:
        corpus = translit.WordPairCorpus.from_phrase_table(
            phrasetab.read_moses(args.table))
    model, mined = translit.mine_transliterations(corpus, args.iterations,
                                                  args.threshold)
    translit.write_char_model(model, args.model_out)
    if args.pairs_out:
        translit.write_mined_pairs(mined, args.pairs_out)
    print(f"mined {len(mined)} of {len(corpus)} pairs "
          f"(mixture prior {model.lam:.3f})")
    return 0


def cmd_translit_table(args) -> int:
    model = translit.read_char_model(args.model)
    # a word is a table source, and may be its own target: not `|||` nor a marker
    words = [_tokens_of(word, where, LM_RESERVED)[0]
             for where, (word,) in records(args.words, sep=None, widths=(1,))]
    table = translit.build_translit_table(model, words, args.k)
    phrasetab.write_moses(table, args.out)
    print(f"built {len(table)} transliteration entries for {len(words)} words")
    return 0


def cmd_train_lm(args) -> int:
    model = ngramlm.train_kn(read_sentences(args.corpus, LM_RESERVED), args.order)
    ngramlm.write_arpa(model, args.out)
    print(f"trained order-{args.order} model over {len(model.vocab)} word types")
    return 0


def cmd_synthesize(args) -> int:
    system, model = _load_system(args)
    pairs = read_parallel(args.src, args.tgt)
    synth = pipeline.synthesize_bitext(pairs, system, model)
    _write_pairs(args, synth)
    print(f"synthesized {len(synth)} pairs, dropped {len(pairs) - len(synth)}")
    return 0


def cmd_tune(args) -> int:
    system, model = _load_system(args)
    dev = read_parallel(args.dev_src, args.dev_ref)
    tuned = decoder.tune_weights(dev, system, model, rounds=args.rounds,
                                 nbest_size=args.nbest)
    decoder.write_weights(tuned, args.weights_out)
    print(f"wrote tuned weights to {args.weights_out}")
    return 0


def cmd_decode(args) -> int:
    if (args.nbest > 0) != (args.nbest_out is not None):
        raise ValueError("--nbest N (N >= 1) and --nbest-out go together")
    system, model = _load_system(args)
    decoded = decoder.decode_corpus(system, model, read_sentences(args.input),
                                    nbest_size=args.nbest)
    write_lines(args.output, (" ".join(best) for best, _ in decoded))
    if args.nbest_out:
        order = model.feature_order()
        write_lines(args.nbest_out, (decoder.format_nbest_line(sid, item, order)
                                     for sid, (_, items) in enumerate(decoded)
                                     for item in items))
    print(f"decoded {len(decoded)} sentences")
    return 0


def cmd_score(args) -> int:
    pairs = read_parallel(args.hyp, args.ref)
    score, stats = evalkit.corpus_bleu([hyp for hyp, _ in pairs], [ref for _, ref in pairs],
                                       args.max_n)
    precisions = " ".join(
        f"{m}/{t}" for m, t in zip(stats.matches, stats.totals))
    print(f"BLEU = {score:.2f} ({precisions}, hyp_len={stats.hyp_len}, "
          f"ref_len={stats.ref_len})")
    return 0


def cmd_tally(args) -> int:
    tally = evalkit.tally_manual(evalkit.read_manual_labels(args.labels))
    percent = tally.percentages(1)
    rows = [["category", "count", "percent"]]
    rows += [[c, str(tally.counts[c]), f"{percent[c]:.1f}"] for c in evalkit.MANUAL_CATEGORIES]
    rows.append(["total", str(tally.total)])
    print(evalkit.render_columns(rows))
    return 0


def cmd_experiment(args) -> int:
    config = pipeline.ExperimentConfig.from_file(args.config)
    result = pipeline.run_experiment(config)
    print(result.report_text, end="")
    print(f"manifest: {result.manifest_path}")
    return 0


COMMANDS = {
    "tokenize": cmd_tokenize, "ingest": cmd_ingest, "dict-links": cmd_dict_links,
    "align": cmd_align, "extract": cmd_extract, "triangulate": cmd_triangulate,
    "mine-translit": cmd_mine_translit, "translit-table": cmd_translit_table,
    "train-lm": cmd_train_lm, "synthesize": cmd_synthesize, "tune": cmd_tune,
    "decode": cmd_decode, "score": cmd_score, "tally": cmd_tally,
    "experiment": cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(message)s")
    try:
        return COMMANDS[args.command](args)
    except PivotSmtError as exc:
        print(f"pivotsmt: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"pivotsmt: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # an argument outside the range the library accepts
        print(f"pivotsmt: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
