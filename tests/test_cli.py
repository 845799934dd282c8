import os

import pytest

from pivotsmt.cli import main

from fixtures import make_experiment_fixture, write_config


def write(path, lines):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return str(path)


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["tokenize", "--input"]) == 1

    def test_unknown_command_is_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_data_error_is_2(self, tmp_path, capsys):
        src = write(tmp_path / "s.txt", ["a", "b"])
        tgt = write(tmp_path / "t.txt", ["x"])
        code = main(["ingest", "--src", src, "--tgt", tgt,
                     "--out-src", str(tmp_path / "o.s"),
                     "--out-tgt", str(tmp_path / "o.t")])
        assert code == 2

    def test_missing_file_is_2(self, tmp_path, capsys):
        code = main(["tokenize", "--input", str(tmp_path / "absent.txt"),
                     "--output", str(tmp_path / "out.txt")])
        assert code == 2


class TestCommands:
    def test_tokenize(self, tmp_path, capsys):
        inp = write(tmp_path / "raw.txt", ["the cat.", "ok (fine)"])
        out = str(tmp_path / "tok.txt")
        assert main(["tokenize", "--input", inp, "--output", out]) == 0
        with open(out, encoding="utf-8") as handle:
            assert handle.read().splitlines() == ["the cat .", "ok ( fine )"]

    def test_ingest_reports_drops(self, tmp_path, capsys):
        src = write(tmp_path / "s.txt", ["one two", "w " * 99])
        tgt = write(tmp_path / "t.txt", ["x", "y"])
        code = main(["ingest", "--src", src, "--tgt", tgt,
                     "--out-src", str(tmp_path / "o.s"),
                     "--out-tgt", str(tmp_path / "o.t"),
                     "--max-len", "80"])
        assert code == 0
        assert "dropped 1" in capsys.readouterr().out

    def test_score(self, tmp_path, capsys):
        hyp = write(tmp_path / "h.txt", ["the cat is on the mat"])
        ref = write(tmp_path / "r.txt", ["the cat sat on the mat"])
        assert main(["score", "--hyp", hyp, "--ref", ref, "--max-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "BLEU = 70.71" in out

    def test_train_lm_and_roundtrip(self, tmp_path, capsys):
        corpus = write(tmp_path / "c.txt", ["a b c", "a b", "c a"])
        arpa = str(tmp_path / "lm.arpa")
        assert main(["train-lm", "--corpus", corpus, "--out", arpa,
                     "--order", "2"]) == 0
        from pivotsmt.ngramlm import read_arpa
        model = read_arpa(arpa)
        assert model.order == 2

    def test_full_workflow(self, tmp_path, capsys):
        src = write(tmp_path / "train.s",
                    ["das haus", "das buch", "ein haus", "ein buch"])
        tgt = write(tmp_path / "train.t",
                    ["the house", "the book", "a house", "a book"])
        aligned = str(tmp_path / "alignments.txt")
        assert main(["align", "--src", src, "--tgt", tgt, "--out", aligned,
                     "--iterations", "10"]) == 0
        table = str(tmp_path / "table.moses")
        assert main(["extract", "--src", src, "--tgt", tgt,
                     "--alignments", aligned, "--out", table,
                     "--iterations", "10"]) == 0
        arpa = str(tmp_path / "lm.arpa")
        assert main(["train-lm", "--corpus", tgt, "--out", arpa,
                     "--order", "2"]) == 0
        inp = write(tmp_path / "in.txt", ["das buch", "ein haus"])
        out = str(tmp_path / "out.txt")
        assert main(["decode", "--input", inp, "--table", table,
                     "--lm", arpa, "--output", out]) == 0
        with open(out, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines == ["the book", "a house"]

    def test_decode_nbest_output(self, tmp_path, capsys):
        table = write(tmp_path / "t.moses",
                      ["a ||| x ||| 0.6 0.6 0.6 0.6",
                       "a ||| y ||| 0.4 0.4 0.4 0.4"])
        corpus = write(tmp_path / "lmc.txt", ["x y", "y x"])
        arpa = str(tmp_path / "lm.arpa")
        main(["train-lm", "--corpus", corpus, "--out", arpa, "--order", "2"])
        inp = write(tmp_path / "in.txt", ["a"])
        nbest_path = str(tmp_path / "nbest.txt")
        assert main(["decode", "--input", inp, "--table", table,
                     "--lm", arpa, "--output", str(tmp_path / "o.txt"),
                     "--nbest", "5", "--nbest-out", nbest_path]) == 0
        with open(nbest_path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("0 ||| ")
        assert " ||| tm0.phi_fwd=" in lines[0]

    def test_decode_nbest_decodes_each_sentence_once(self, tmp_path, capsys,
                                                     monkeypatch):
        from pivotsmt import decoder
        calls = []
        real_decode = decoder.decode

        def counting_decode(*args, **kwargs):
            calls.append(args[0])
            return real_decode(*args, **kwargs)

        monkeypatch.setattr(decoder, "decode", counting_decode)
        table = write(tmp_path / "t.moses",
                      ["a ||| x ||| 0.6 0.6 0.6 0.6",
                       "a ||| y ||| 0.4 0.4 0.4 0.4",
                       "b ||| y ||| 0.9 0.9 0.9 0.9"])
        corpus = write(tmp_path / "lmc.txt", ["x y", "y x"])
        arpa = str(tmp_path / "lm.arpa")
        main(["train-lm", "--corpus", corpus, "--out", arpa, "--order", "2"])
        inp = write(tmp_path / "in.txt", ["a", "a b", "b"])
        out = str(tmp_path / "o.txt")
        nbest_path = str(tmp_path / "nbest.txt")
        assert main(["decode", "--input", inp, "--table", table,
                     "--lm", arpa, "--output", out,
                     "--nbest", "3", "--nbest-out", nbest_path]) == 0
        assert len(calls) == 3
        with open(out, encoding="utf-8") as handle:
            hyps = handle.read().splitlines()
        with open(nbest_path, encoding="utf-8") as handle:
            firsts = {}
            for line in handle.read().splitlines():
                sid, tokens = line.split(" ||| ")[:2]
                firsts.setdefault(int(sid), tokens)
        # the 1-best line is the top of the same sentence's n-best list
        assert [firsts[sid] for sid in range(3)] == hyps

    def test_align_dump_tables(self, tmp_path, capsys):
        src = write(tmp_path / "s.txt", ["das haus", "das buch"])
        tgt = write(tmp_path / "t.txt", ["the house", "the book"])
        prefix = str(tmp_path / "ttable")
        assert main(["align", "--src", src, "--tgt", tgt,
                     "--out", str(tmp_path / "a.txt"),
                     "--iterations", "10", "--dump-tables", prefix]) == 0
        from pivotsmt.align import read_table
        with open(prefix + ".bwd", encoding="utf-8") as handle:
            back = read_table(handle.read().splitlines())
        assert back.prob("das", "the") > 0.9

    def test_triangulate_command(self, tmp_path, capsys):
        sp = write(tmp_path / "sp.moses",
                   ["e1 ||| u1 ||| 0.5 0.5 0.5 0.5",
                    "e2 ||| u1 ||| 0.5 0.5 0.5 0.5"])
        pt = write(tmp_path / "pt.moses",
                   ["h1 ||| e1 ||| 0.4 0.4 0.4 0.4",
                    "h1 ||| e2 ||| 0.6 0.6 0.6 0.6"])
        out = str(tmp_path / "tri.moses")
        assert main(["triangulate", "--src-pivot", sp, "--pivot-tgt", pt,
                     "--out", out, "--min-score", "0.0"]) == 0
        with open(out, encoding="utf-8") as handle:
            assert handle.read() == "h1 ||| u1 ||| 0.5 0.5 0.5 0.5\n"

    def test_mine_and_translit_table(self, tmp_path, capsys):
        pairs = write(tmp_path / "pairs.tsv",
                      [f"{s}\t{s.upper()}" for s in
                       ("ab", "ba", "aab", "bba", "abab", "baba")])
        model_path = str(tmp_path / "char.json")
        mined_path = str(tmp_path / "mined.tsv")
        assert main(["mine-translit", "--pairs", pairs,
                     "--model-out", model_path, "--pairs-out", mined_path,
                     "--iterations", "6"]) == 0
        words = write(tmp_path / "words.txt", ["abba", "bab"])
        table_out = str(tmp_path / "translit.moses")
        assert main(["translit-table", "--model", model_path,
                     "--words", words, "--out", table_out, "--k", "3"]) == 0
        with open(table_out, encoding="utf-8") as handle:
            text = handle.read()
        assert "abba ||| ABBA |||" in text

    def test_synthesize_command(self, tmp_path, capsys):
        table = write(tmp_path / "id.moses",
                      ["u1 ||| u1 ||| 1 1 1 1", "u2 ||| u2 ||| 1 1 1 1"])
        corpus = write(tmp_path / "lmc.txt", ["u1 u2", "u2 u1"])
        arpa = str(tmp_path / "lm.arpa")
        main(["train-lm", "--corpus", corpus, "--out", arpa, "--order", "2"])
        src = write(tmp_path / "u.txt", ["u1 u2", "u2"])
        tgt = write(tmp_path / "e.txt", ["e1 e2", "e2"])
        assert main(["synthesize", "--src", src, "--tgt", tgt,
                     "--out-src", str(tmp_path / "syn.s"),
                     "--out-tgt", str(tmp_path / "syn.t"),
                     "--table", table, "--lm", arpa]) == 0
        with open(str(tmp_path / "syn.s"), encoding="utf-8") as handle:
            assert handle.read().splitlines() == ["u1 u2", "u2"]

    def test_decode_with_lm_mixture(self, tmp_path, capsys):
        table = write(tmp_path / "t.moses", ["a ||| x ||| 1 1 1 1"])
        c1 = write(tmp_path / "c1.txt", ["x x", "x"])
        c2 = write(tmp_path / "c2.txt", ["x y", "y"])
        lm1 = str(tmp_path / "lm1.arpa")
        lm2 = str(tmp_path / "lm2.arpa")
        main(["train-lm", "--corpus", c1, "--out", lm1, "--order", "2"])
        main(["train-lm", "--corpus", c2, "--out", lm2, "--order", "2"])
        inp = write(tmp_path / "in.txt", ["a a"])
        out = str(tmp_path / "o.txt")
        assert main(["decode", "--input", inp, "--table", table,
                     "--lm", lm1, "--lm2", lm2, "--lm-lambda", "0.3",
                     "--output", out]) == 0
        with open(out, encoding="utf-8") as handle:
            assert handle.read().strip() == "x x"

    def test_tune_command(self, tmp_path, capsys):
        table = write(tmp_path / "t.moses",
                      ["a ||| x ||| 0.6 0.6 0.6 0.6",
                       "a ||| y ||| 0.4 0.4 0.4 0.4"])
        corpus = write(tmp_path / "lmc.txt", ["x y", "y x"])
        arpa = str(tmp_path / "lm.arpa")
        main(["train-lm", "--corpus", corpus, "--out", arpa, "--order", "2"])
        dev_src = write(tmp_path / "d.s", ["a", "a"])
        dev_ref = write(tmp_path / "d.r", ["y", "y"])
        weights = str(tmp_path / "w.tsv")
        assert main(["tune", "--dev-src", dev_src, "--dev-ref", dev_ref,
                     "--weights-out", weights, "--table", table,
                     "--lm", arpa, "--rounds", "1"]) == 0
        assert os.path.exists(weights)

    def test_experiment_command(self, tmp_path, capsys):
        fixture = make_experiment_fixture(str(tmp_path / "fix"), seed=3,
                                          vocab=12, covered=8, n_train=60,
                                          n_synth=40, n_test=15, n_dev=5)
        config = write_config(str(tmp_path / "exp.conf"),
                              str(tmp_path / "run"), fixture,
                              use_synth="concat")
        assert main(["experiment", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "manifest:" in out
        assert os.path.exists(str(tmp_path / "run" / "run.manifest"))
