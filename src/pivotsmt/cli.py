"""Command-line interface.

Subcommands: tokenize, ingest, align, extract, triangulate, mine-translit,
translit-table, train-lm, synthesize, tune, decode, score, experiment.
Every subcommand exits 0 on success, 1 on usage error, 2 on data error.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import align as align_mod
from . import decoder, evalkit, ngramlm, phrasetab, pipeline, pivot, translit
from .corpus import ingest_bitext, read_lines, tokenize, write_lines
from .errors import PivotSmtError

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pivotsmt", description=__doc__)
    parser.add_argument("--config", help="experiment config file (key = value lines)")
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker processes for corpus decoding")
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
    p.add_argument("--max-len", type=int, default=80)

    p = sub.add_parser("align", help="train word alignments and symmetrize")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--out", required=True, help="alignment file (i-j links per line)")
    p.add_argument("--iterations", type=int, default=5)
    p.add_argument("--no-null", action="store_true")
    p.add_argument("--dump-tables", help="prefix for t-table dumps (.fwd/.bwd)")

    p = sub.add_parser("extract", help="extract and score a Moses phrase table")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--alignments", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-phrase-len", type=int, default=5)
    p.add_argument("--iterations", type=int, default=5,
                   help="EM iterations for the lexical-weight tables")
    p.add_argument("--top-k", type=int, default=0, help="prune per source (0 = off)")

    p = sub.add_parser("triangulate", help="compose two tables over a pivot language")
    p.add_argument("--src-pivot", required=True,
                   help="table mapping pivot phrases to output-target phrases")
    p.add_argument("--pivot-tgt", required=True,
                   help="table mapping output-source phrases to pivot phrases")
    p.add_argument("--out", required=True)
    p.add_argument("--min-score", type=float, default=1e-7)
    p.add_argument("--top-k", type=int, default=20)

    p = sub.add_parser("mine-translit", help="mine transliteration pairs unsupervised")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pairs", help="TSV of src<TAB>tgt[<TAB>weight]")
    group.add_argument("--table", help="Moses table; 1-token entries become pairs")
    p.add_argument("--model-out", required=True)
    p.add_argument("--pairs-out")
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--threshold", type=float, default=0.5)

    p = sub.add_parser("translit-table", help="k-best transliterations as a phrase table")
    p.add_argument("--model", required=True)
    p.add_argument("--words", required=True, help="one word per line")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=100)

    p = sub.add_parser("train-lm", help="train a Kneser-Ney n-gram model (ARPA)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--order", type=int, default=3)

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
        p.add_argument("--translit-k", type=int, default=search.translit_k)
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
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--nbest", type=int, default=50)
    decoder_flags(p)

    p = sub.add_parser("decode", help="translate a tokenized file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--nbest", type=int, default=0)
    p.add_argument("--nbest-out")
    decoder_flags(p)

    p = sub.add_parser("score", help="corpus BLEU of a hypothesis file")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--max-n", type=int, default=4)

    p = sub.add_parser("experiment", help="run the B0/+Syn/+PT/+Dict mode matrix")
    p.add_argument("--config", dest="experiment_config")

    return parser


def _load_system(args, seed: int = 0) -> tuple[decoder.DecoderSystem, decoder.LogLinearModel]:
    tables = [phrasetab.read_moses(path) for path in args.table]
    table_set = phrasetab.TableSet(tables)
    lm = ngramlm.read_arpa(args.lm)
    if args.lm2:
        lm = ngramlm.interpolate_lms(lm, ngramlm.read_arpa(args.lm2), args.lm_lambda)
    translit_model = None
    if args.translit_model:
        translit_model = translit.read_char_model(args.translit_model)
    system = decoder.DecoderSystem(
        tables=table_set, lm=lm, translit_model=translit_model,
        option_limit=args.option_limit, translit_k=args.translit_k,
        distortion_limit=args.distortion_limit, stack_size=args.stack_size,
    )
    if args.weights:
        model = decoder.read_weights(args.weights, len(tables),
                                     translit_model is not None)
    else:
        model = system.default_model()
    return system, model


def cmd_tokenize(args) -> int:
    write_lines(args.output,
                (" ".join(tokenize(line, args.scheme, lowercase=args.lowercase))
                 for line in read_lines(args.input)))
    return 0


def cmd_ingest(args) -> int:
    bitext = ingest_bitext(read_lines(args.src), read_lines(args.tgt),
                           max_len=args.max_len)
    write_lines(args.out_src, (" ".join(s) for s in bitext.source_tokens()))
    write_lines(args.out_tgt, (" ".join(t) for t in bitext.target_tokens()))
    print(f"kept {len(bitext)} pairs, dropped {bitext.dropped_pairs}")
    return 0


def cmd_align(args) -> int:
    bitext = ingest_bitext(read_lines(args.src), read_lines(args.tgt),
                           max_len=10 ** 9)
    matrices, cond_src, cond_tgt = pipeline.align_bitext(
        bitext, args.iterations, use_null=not args.no_null)
    align_mod.write_alignments(args.out, matrices)
    if args.dump_tables:
        align_mod.write_table(args.dump_tables + ".fwd", cond_src)
        align_mod.write_table(args.dump_tables + ".bwd", cond_tgt)
    print(f"aligned {len(matrices)} pairs")
    return 0


def cmd_extract(args) -> int:
    bitext = ingest_bitext(read_lines(args.src), read_lines(args.tgt),
                           max_len=10 ** 9)
    pairs = bitext.token_pairs()
    sizes = [(len(s), len(t)) for s, t in pairs]
    matrices = align_mod.read_alignments(read_lines(args.alignments), sizes)
    cond_tgt = align_mod.train_model1(pairs, args.iterations)
    cond_src = align_mod.train_model1([(t, s) for s, t in pairs], args.iterations)
    table = phrasetab.score_phrase_table(bitext, matrices, cond_src, cond_tgt,
                                         max_len=args.max_phrase_len)
    if args.top_k > 0:
        table = phrasetab.prune_table(table, args.top_k)
    phrasetab.write_moses(table, args.out)
    print(f"extracted {len(table)} phrase pairs")
    return 0


def cmd_triangulate(args) -> int:
    src_pivot = phrasetab.read_moses(args.src_pivot)
    pivot_tgt = phrasetab.read_moses(args.pivot_tgt)
    config = pivot.TriangulationConfig(min_score=args.min_score, top_k=args.top_k)
    table = pivot.triangulate(src_pivot, pivot_tgt, config)
    phrasetab.write_moses(table, args.out)
    print(f"triangulated {len(table)} phrase pairs")
    return 0


def cmd_mine_translit(args) -> int:
    if args.pairs:
        corpus = translit.WordPairCorpus.from_tsv(read_lines(args.pairs), args.pairs)
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
    words = [line.strip() for line in read_lines(args.words) if line.strip()]
    table = translit.build_translit_table(model, words, args.k)
    phrasetab.write_moses(table, args.out)
    print(f"built {len(table)} transliteration entries for {len(words)} words")
    return 0


def cmd_train_lm(args) -> int:
    corpus = [line.split() for line in read_lines(args.corpus)]
    model = ngramlm.train_kn(corpus, args.order)
    ngramlm.write_arpa(model, args.out)
    print(f"trained order-{args.order} model over {len(model.vocab)} word types")
    return 0


def cmd_synthesize(args) -> int:
    system, model = _load_system(args)
    bitext = ingest_bitext(read_lines(args.src), read_lines(args.tgt),
                           max_len=10 ** 9)
    synth = pipeline.synthesize_bitext(bitext, system, model)
    write_lines(args.out_src, (" ".join(s) for s in synth.source_tokens()))
    write_lines(args.out_tgt, (" ".join(t) for t in synth.target_tokens()))
    print(f"synthesized {len(synth)} pairs, dropped {synth.dropped_pairs}")
    return 0


def cmd_tune(args, seed: int) -> int:
    system, model = _load_system(args)
    dev_src = [line.split() for line in read_lines(args.dev_src)]
    dev_ref = [line.split() for line in read_lines(args.dev_ref)]
    if len(dev_src) != len(dev_ref):
        raise PivotSmtError(
            f"dev line count mismatch: {len(dev_src)} vs {len(dev_ref)}")
    tuned = decoder.tune_weights(list(zip(dev_src, dev_ref)), system, model,
                                 rounds=args.rounds, nbest_size=args.nbest,
                                 seed=seed)
    decoder.write_weights(tuned, args.weights_out)
    print(f"wrote tuned weights to {args.weights_out}")
    return 0


def cmd_decode(args, threads: int) -> int:
    system, model = _load_system(args)
    sentences = [line.split() for line in read_lines(args.input)]
    if args.nbest > 0 and args.nbest_out:
        # one serial decode per sentence yields both its 1-best and n-best lines
        order = model.feature_order()
        hyps = []
        nbest_lines = []
        for sid, sent in enumerate(sentences):
            if not sent:
                hyps.append(())
                continue
            result = system.decode(sent, model)
            hyps.append(result.best_tokens())
            nbest_lines.extend(decoder.format_nbest_line(sid, item, order)
                               for item in decoder.nbest(result, args.nbest))
        write_lines(args.nbest_out, nbest_lines)
    else:
        hyps = pipeline.decode_corpus(system, model, sentences, threads=threads)
    write_lines(args.output, (" ".join(h) for h in hyps))
    print(f"decoded {len(hyps)} sentences")
    return 0


def cmd_score(args) -> int:
    hyps = [line.split() for line in read_lines(args.hyp)]
    refs = [line.split() for line in read_lines(args.ref)]
    score, stats = evalkit.corpus_bleu(hyps, refs, args.max_n)
    precisions = " ".join(
        f"{m}/{t}" for m, t in zip(stats.matches, stats.totals))
    print(f"BLEU = {score:.2f} ({precisions}, hyp_len={stats.hyp_len}, "
          f"ref_len={stats.ref_len})")
    return 0


def cmd_experiment(args) -> int:
    path = args.experiment_config or args.config
    if not path:
        raise PivotSmtError("experiment requires --config")
    config = pipeline.ExperimentConfig.from_file(path)
    if args.seed:
        config.seed = args.seed
    if args.threads != 1:
        config.threads = args.threads
    result = pipeline.run_experiment(config)
    print(result.report_text, end="")
    print(f"manifest: {result.manifest_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "tokenize":
            return cmd_tokenize(args)
        if args.command == "ingest":
            return cmd_ingest(args)
        if args.command == "align":
            return cmd_align(args)
        if args.command == "extract":
            return cmd_extract(args)
        if args.command == "triangulate":
            return cmd_triangulate(args)
        if args.command == "mine-translit":
            return cmd_mine_translit(args)
        if args.command == "translit-table":
            return cmd_translit_table(args)
        if args.command == "train-lm":
            return cmd_train_lm(args)
        if args.command == "synthesize":
            return cmd_synthesize(args)
        if args.command == "tune":
            return cmd_tune(args, args.seed)
        if args.command == "decode":
            return cmd_decode(args, args.threads)
        if args.command == "score":
            return cmd_score(args)
        if args.command == "experiment":
            return cmd_experiment(args)
        parser.error(f"unknown command {args.command!r}")
        return 1
    except PivotSmtError as exc:
        print(f"pivotsmt: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"pivotsmt: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
