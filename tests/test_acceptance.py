"""Acceptance criteria, one test per criterion.

Each test enforces its numeric tolerances and wall-clock budget and prints
one PASS line (run with `pytest -s` to see them as they complete).
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from pivotsmt import align, decoder, evalkit, ngramlm, phrasetab, pipeline, \
    pivot, translit

import oracles
from fixtures import make_experiment_fixture, read_file, write_config


@contextmanager
def budget(name, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{name} took {elapsed:.2f}s (budget {seconds}s)"
    print(f"PASS {name} ({elapsed:.2f}s < {seconds}s)")


def test_criterion_01_triangulation_oracle():
    with budget("criterion 1: triangulation oracle", 5):
        rng = random.Random(101)
        loose = pivot.TriangulationConfig(min_score=0.0, top_k=10 ** 9)
        for trial in range(200):
            def random_entries(n_rows, n_cols, limit, rp, cp):
                entries = {}
                for _ in range(limit):
                    key = (f"{rp}{rng.randrange(n_rows)}",
                           f"{cp}{rng.randrange(n_cols)}")
                    entries[key] = tuple(rng.random() for _ in range(4))
                return entries

            stochastic = trial % 4 == 0
            if stochastic:
                sp_entries, pt_entries = {}, {}
                pivots = [f"e{i}" for i in range(rng.randint(1, 6))]
                for p in pivots:
                    raw = [rng.random() + 0.01 for _ in range(4)]
                    total = sum(raw)
                    for i, v in enumerate(raw):
                        sp_entries[(p, f"u{i}")] = ((v / total),) * 4
                for h in range(3):
                    raw = [rng.random() + 0.01 for _ in pivots]
                    total = sum(raw)
                    for p, v in zip(pivots, raw):
                        pt_entries[(f"h{h}", p)] = ((v / total),) * 4
            else:
                sp_entries = random_entries(10, 10, rng.randint(1, 100), "e", "u")
                pt_entries = random_entries(10, 10, rng.randint(1, 100), "h", "e")

            sp = phrasetab.PhraseTable()
            for (s, t), scores in sp_entries.items():
                sp.add(phrasetab.PhraseEntry((s,), (t,), *scores))
            pt = phrasetab.PhraseTable()
            for (s, t), scores in pt_entries.items():
                pt.add(phrasetab.PhraseEntry((s,), (t,), *scores))

            out = pivot.triangulate(sp, pt, loose)
            want = oracles.triangulate_reference(sp_entries, pt_entries)
            got = {(e.source[0], e.target[0]): e.scores() for e in out}
            assert set(got) == set(want)
            for key in got:
                for a, b in zip(got[key], want[key]):
                    assert abs(a - b) <= 1e-12
            if stochastic:
                for source in out.sources():
                    total = sum(e.phi_tgt_given_src for e in out.get(source))
                    assert total <= 1.0 + 1e-9


def test_criterion_02_model1_em():
    with budget("criterion 2: Model 1 EM", 10):
        rng = random.Random(202)
        for _ in range(50):
            vocab = rng.randint(2, 6)
            pairs = []
            for _ in range(rng.randint(2, 6)):
                pairs.append((
                    tuple(f"s{rng.randrange(vocab)}"
                          for _ in range(rng.randint(1, 4))),
                    tuple(f"t{rng.randrange(vocab)}"
                          for _ in range(rng.randint(1, 4))),
                ))
            use_null = rng.random() < 0.5
            table = align.train_model1(pairs, iterations=20, use_null=use_null)
            lls = table.log_likelihoods
            assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))
            ref, _ = oracles.em_model1_reference(pairs, 20, use_null=use_null)
            for (e, f), p in ref.items():
                assert abs(table.prob(f, e) - p) <= 1e-6
        das_haus = [(("das", "haus"), ("the", "house")),
                    (("das", "buch"), ("the", "book"))]
        table = align.train_model1(das_haus, iterations=20, use_null=False)
        assert table.prob("das", "the") > 0.99


def test_criterion_03_gdfa():
    with budget("criterion 3: GDFA", 2):
        def matrix(s, t, links):
            return align.AlignmentMatrix(s, t, frozenset(links))

        grown = align.symmetrize_gdfa(matrix(2, 2, {(0, 0), (1, 1)}),
                                      matrix(2, 2, {(0, 0), (1, 0)}))
        assert grown.links == {(0, 0), (1, 1)}
        final = align.symmetrize_gdfa(matrix(2, 2, {(0, 0)}),
                                      matrix(2, 2, {(1, 1)}))
        assert final.links == {(0, 0), (1, 1)}

        rng = random.Random(303)
        for _ in range(500):
            s_len = rng.randint(1, 7)
            t_len = rng.randint(1, 7)
            fwd = matrix(s_len, t_len,
                         {(rng.randrange(s_len), rng.randrange(t_len))
                          for _ in range(rng.randint(0, 8))})
            bwd = matrix(s_len, t_len,
                         {(rng.randrange(s_len), rng.randrange(t_len))
                          for _ in range(rng.randint(0, 8))})
            out = align.symmetrize_gdfa(fwd, bwd)
            assert fwd.links & bwd.links <= out.links <= fwd.links | bwd.links
            assert align.symmetrize_gdfa(out, out).links == out.links


def test_criterion_04_phrase_extraction():
    with budget("criterion 4: phrase extraction", 5):
        rng = random.Random(404)
        for _ in range(500):
            s_len = rng.randint(1, 6)
            t_len = rng.randint(1, 6)
            links = {(rng.randrange(s_len), rng.randrange(t_len))
                     for _ in range(rng.randint(0, 8))}
            max_len = rng.randint(1, 6)
            got = phrasetab.extract_phrases(
                align.AlignmentMatrix(s_len, t_len, frozenset(links)), max_len)
            want = oracles.enumerate_phrase_pairs(s_len, t_len, links, max_len)
            assert got == want


def test_criterion_05_kn_lm():
    with budget("criterion 5: KN language model", 5):
        rng = random.Random(505)
        words = [f"w{i}" for i in range(8)]
        corpus = []
        total = 0
        while total < 100:
            sent = [rng.choice(words) for _ in range(rng.randint(2, 7))]
            corpus.append(sent)
            total += len(sent)
        model = ngramlm.train_kn(corpus, order=3)
        # normalization on 50 random contexts
        for _ in range(50):
            ctx = tuple(rng.choice(words + ["zzz"])
                        for _ in range(rng.randint(0, 3)))
            assert abs(ngramlm.context_normalization(model, ctx) - 1.0) <= 1e-6
        # held-out log probability vs the straight-line oracle
        oracle = oracles.KNReference(corpus, order=3)
        heldout = [[rng.choice(words + ["unk-w"])
                    for _ in range(rng.randint(1, 6))] for _ in range(10)]
        for sent in heldout:
            context = ["<s>"]
            for word in sent:
                got = model.logprob(context[1:], word)
                want = math.log10(oracle.prob(tuple(context[1:]), word))
                assert abs(got - want) <= 1e-9
                context.append(word)
        # ARPA round trip
        import io
        buf = io.StringIO()
        ngramlm.write_arpa(model, buf)
        back = read_file(ngramlm.read_arpa, buf.getvalue())
        for _ in range(100):
            ctx = tuple(rng.choice(words) for _ in range(rng.randint(0, 2)))
            word = rng.choice(words + ["oov"])
            assert abs(back.logprob(ctx, word)
                       - model.logprob(ctx, word)) <= 1e-4


def test_criterion_06_decoder_optimality():
    with budget("criterion 6: decoder optimality", 30):
        rng = random.Random(606)
        lm_words = [f"x{i}" for i in range(6)]
        lm = ngramlm.train_kn(
            [[rng.choice(lm_words) for _ in range(6)] for _ in range(10)],
            order=2)
        model = decoder.LogLinearModel.default(1)
        for _ in range(200):
            n = rng.randint(1, 4)
            sentence = [f"w{i}" for i in range(n)]
            lattice = {}
            n_options = 0
            for i in range(n):
                opts = []
                for _ in range(rng.randint(1, 2)):
                    feats = {f"tm0.{f}": math.log10(rng.uniform(0.05, 1.0))
                             for f in ("phi_fwd", "lex_fwd",
                                       "phi_bwd", "lex_bwd")}
                    tgt = tuple(rng.choice(lm_words)
                                for _ in range(rng.randint(1, 2)))
                    opts.append(decoder.TranslationOption(i, i + 1, tgt,
                                                          feats, "baseline"))
                lattice[(i, i + 1)] = opts
                n_options += len(opts)
            while n_options < 10 and rng.random() < 0.5 and n > 1:
                i = rng.randrange(n - 1)
                j = rng.randint(i + 2, n)
                feats = {f"tm0.{f}": math.log10(rng.uniform(0.05, 1.0))
                         for f in ("phi_fwd", "lex_fwd", "phi_bwd", "lex_bwd")}
                lattice.setdefault((i, j), []).append(
                    decoder.TranslationOption(i, j, (rng.choice(lm_words),),
                                              feats, "baseline"))
                n_options += 1
            dlimit = rng.randint(2, 6)
            result = decoder.decode(sentence, model, lm, lattice,
                                    distortion_limit=dlimit, stack_size=5000,
                                    keep_arcs=False)
            ranked = oracles.enumerate_decodings(n, lattice, model.weights,
                                                 lm, dlimit)
            assert abs(result.best_score - ranked[0][1]) <= 1e-9
            prev_end = 0
            for option in result.best_derivation:
                assert abs(option.start - prev_end) <= dlimit
                prev_end = option.end


def test_criterion_07_bleu():
    with budget("criterion 7: BLEU", 1):
        rng = random.Random(707)
        hyps = [[rng.choice("abcdef") for _ in range(rng.randint(1, 9))]
                for _ in range(25)]
        score, _ = evalkit.corpus_bleu(hyps, hyps)
        assert score == 100.0
        hyp = "the cat is on the mat".split()
        ref = "the cat sat on the mat".split()
        worked, _ = evalkit.corpus_bleu([hyp], [ref], max_n=2)
        assert abs(worked - 70.71) <= 0.01
        refs = [[rng.choice("abcdef") for _ in range(rng.randint(1, 9))]
                for _ in range(25)]
        base, _ = evalkit.corpus_bleu(hyps, refs)
        order = list(range(len(hyps)))
        for _ in range(20):
            rng.shuffle(order)
            shuffled, _ = evalkit.corpus_bleu([hyps[i] for i in order],
                                              [refs[i] for i in order])
            assert abs(shuffled - base) <= 1e-9


def test_criterion_08_transliteration_miner():
    with budget("criterion 8: transliteration miner", 20):
        pairs, labels = oracles.make_bijection_fixture(seed=808)
        corpus = translit.WordPairCorpus(pairs)
        model, mined = translit.mine_transliterations(corpus, iterations=10,
                                                      threshold=0.5)
        mined_set = {(p.source, p.target) for p in mined}
        true_set = {(s, t) for (s, t, _), lab in zip(pairs, labels) if lab}
        tp = len(mined_set & true_set)
        fp = len(mined_set - true_set)
        fn = len(true_set - mined_set)
        assert tp / max(tp + fp, 1) >= 0.9, "precision below 0.9"
        assert tp / max(tp + fn, 1) >= 0.9, "recall below 0.9"
        words = oracles.make_heldout_words(seed=809, count=100)
        correct = sum(
            translit.transliterate(model, w, 1)[0].target
            == oracles.apply_bijection(w)
            for w in words)
        assert correct / len(words) >= 0.95, "top-1 accuracy below 0.95"


def test_criterion_09_synthetic_data_direction(tmp_path):
    with budget("criterion 9: +Syn direction check (both directions)", 180):
        fixture = make_experiment_fixture(str(tmp_path / "fix"), seed=909,
                                          vocab=50, covered=35, n_train=2000,
                                          n_synth=600, n_test=200)
        for direction in ("ab", "ba"):
            config_path = write_config(
                str(tmp_path / f"{direction}.conf"),
                str(tmp_path / f"run_{direction}"), fixture,
                direction=direction, use_synth="concat")
            result = pipeline.run_experiment(
                pipeline.ExperimentConfig.from_file(config_path))
            delta = result.scores["bleu.Syn"] - result.scores["bleu.B0"]
            assert delta > 0, f"direction {direction}: +Syn delta {delta}"


def test_criterion_10_dictionary_direction(tmp_path):
    with budget("criterion 10: +Dict direction check", 60):
        fixture = make_experiment_fixture(str(tmp_path / "fix"), seed=1010,
                                          vocab=30, covered=21, n_train=600,
                                          n_synth=100, n_test=80)
        config_path = write_config(str(tmp_path / "dict.conf"),
                                   str(tmp_path / "run_dict"), fixture,
                                   use_dict="on")
        result = pipeline.run_experiment(
            pipeline.ExperimentConfig.from_file(config_path))
        assert result.scores["oov.Dict"] < result.scores["oov.B0"]
        assert result.scores["bleu.Dict"] - result.scores["bleu.B0"] >= 0


def test_criterion_11_report_fidelity():
    with budget("criterion 11: report fidelity", 1):
        tally = evalkit.ManualTally(counts={"helpful": 354, "doubtful": 377,
                                            "misleading": 232})
        assert tally.percentages(0) == {"helpful": 37.0, "doubtful": 39.0,
                                        "misleading": 24.0}
        tally = evalkit.ManualTally(counts={"helpful": 183, "doubtful": 111,
                                            "misleading": 34})
        assert tally.percentages(1) == {"helpful": 55.8, "doubtful": 33.8,
                                        "misleading": 10.4}
        profile = evalkit.ErrorProfile(
            sample_size=100,
            counts={"missing_untranslated": 45, "wrong_translation": 74,
                    "word_order": 84, "other": 13})
        assert profile.percentages(0) == {
            "missing_untranslated": 45.0, "wrong_translation": 74.0,
            "word_order": 84.0, "other": 13.0}


def test_criterion_12_experiment_determinism(tmp_path):
    with budget("criterion 12: experiment determinism", 180):
        fixture = make_experiment_fixture(str(tmp_path / "fix"), seed=1212,
                                          vocab=20, covered=14, n_train=200,
                                          n_synth=80, n_test=40)
        config_path = write_config(str(tmp_path / "det.conf"),
                                   str(tmp_path / "run_det"), fixture,
                                   use_synth="concat", use_dict="on")
        config = pipeline.ExperimentConfig.from_file(config_path)
        first = pipeline.run_experiment(config)
        with open(first.manifest_path, "rb") as handle:
            manifest_one = handle.read()
        second = pipeline.run_experiment(
            pipeline.ExperimentConfig.from_file(config_path))
        with open(second.manifest_path, "rb") as handle:
            manifest_two = handle.read()
        assert manifest_one == manifest_two
