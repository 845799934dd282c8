import argparse
import json
import math
import os
import subprocess
import sys
import weakref

import pytest

from pivotsmt import align, ngramlm, phrasetab, translit
from pivotsmt.cli import build_parser, main
from pivotsmt.decoder import TM_FEATURES
from pivotsmt.phrasetab import read_moses
from pivotsmt.pipeline import ExperimentConfig

from fixtures import (PATHS, deleting_char_model, log_lines, make_experiment_fixture, usable_cpus,
                      write_config)


def write(path, lines):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return str(path)


_SYSTEM = " --table {table} --lm {lm} --lm2 {lm2} --weights {weights} --translit-model {char}"
_SYSTEM_READS = ("table", "lm", "lm2", "weights", "char")
# Every command line and the inputs it reads.
_READS = [
    ("tokenize --input {src} --output {out}", ("src",)),
    ("ingest --src {src} --tgt {tgt} --out-src {out} --out-tgt {out2}", ("src", "tgt")),
    ("dict-links --pages {pages} --lang hi --out {out}", ("pages",)),
    ("align --src {src} --tgt {tgt} --out {out}", ("src", "tgt")),
    ("extract --src {src} --tgt {tgt} --alignments {alignments} --out {out}",
     ("src", "tgt", "alignments")),
    ("triangulate --pivot-to-tgt {table} --src-to-pivot {table2} --out {out}",
     ("table", "table2")),
    ("mine-translit --pairs {pairs} --model-out {out}", ("pairs",)),
    ("mine-translit --pairs {spaced_pairs} --model-out {out}", ("spaced_pairs",)),
    ("mine-translit --table {table} --model-out {out}", ("table",)),
    ("translit-table --model {char} --words {src} --out {out}", ("char", "src")),
    ("translit-table --model {spaced_char} --words {src} --out {out}", ("spaced_char",)),
    ("translit-table --model {char} --words {marker_words} --out {out}", ("marker_words",)),
    ("train-lm --corpus {src} --out {out}", ("src",)),
    ("synthesize --src {src} --tgt {tgt} --out-src {out} --out-tgt {out2}" + _SYSTEM,
     ("src", "tgt", *_SYSTEM_READS)),
    ("tune --dev-src {src} --dev-ref {tgt} --weights-out {out}" + _SYSTEM,
     ("src", "tgt", *_SYSTEM_READS)),
    ("decode --input {src} --output {out}" + _SYSTEM, ("src", *_SYSTEM_READS)),
    ("score --hyp {src} --ref {tgt}", ("src", "tgt")),
    ("tally --labels {labels}", ("labels",)),
    ("experiment --config {config}",
     ("config", "train_src", "train_tgt", "test_src", "test_tgt", "synth_src", "synth_tgt",
      "dev_src", "dev_tgt", "dict_tsv", "lm_corpus", "translit_model")),
    ("extract --src {separator_src} --tgt {tgt} --alignments {alignments} --out {out}",
     ("separator_src",)),
    ("decode --input {separator_src} --output {out}" + _SYSTEM, ("separator_src",)),
    ("tokenize --input {separator_src} --output {out}", ("separator_src",)),
    ("train-lm --corpus {separator_src} --out {out}", ("separator_src",)),
    ("train-lm --corpus {marker_lm} --out {out}", ("marker_lm",)),
    ("experiment --config {config}", ("marker_lm",)),
    ("decode --input {src} --output {out} --table {marker_table} --lm {lm}", ("marker_table",)),
    ("decode --input {src} --output {out} --table {table} --lm {lm} --weights {twice_weights}",
     ("twice_weights",)),
    ("decode --input {src} --output {out} --table {table} --lm {lm} --weights {translit_weights}",
     ("translit_weights",)),
]
_BAD_CHAR_MODEL = (b'{"lambda": "half", "ops": {"a": {"a": 1.0}}, "src_chars": ["a"], '
                   b'"tgt_lm": {"alphabet": ["a"], "counts": {}}}')
# The inputs broken by a wrong field count, a value that is not a number or
# a token that no phrase table can hold; every other input gets a 0xff byte
# on its line 2.
_MALFORMED = {
    "table2": b"x ||| a\n",
    "lm2": b"\\data\\\nngram 1=1\n\n\\1-grams:\nlow\t<unk>\n\n\\end\\\n",
    "char": _BAD_CHAR_MODEL,
    "translit_model": _BAD_CHAR_MODEL,
    "pairs": b"ab\tAB\theavy\n",
    "spaced_pairs": b"ab\tAB\nab c\tABC\n",  # a space inside a word
    "spaced_char": (b'{"lambda": 0.5, "ops": {"a": {"A": 0.5, "A A": 0.5}}, "src_chars": ["a"], '
                    b'"tgt_lm": {"alphabet": ["A"], "counts": {}}}'),  # an operation with a space
    "alignments": b"0-0 1-1\n0-x\n",
    "dict_tsv": b"a00\tb00\n",
    "config": b"lm_order = three\n",
    "separator_src": b"a b\n||| b\n",
    "marker_lm": b"b01 b02\nb03 </s>\n",  # the experiment's lm_corpus
    "marker_table": b"a ||| x ||| 1 1 1 1\nb ||| y <s> ||| 1 1 1 1\n",  # an LM marker as target
    "marker_words": b"a\n<s>\n",  # a word that the identity fallback makes an LM marker
    "twice_weights": b"lm\t0.5\nlm\t0.7\n",  # a feature given twice
    "translit_weights": b"lm\t0.5\ntranslit\t0.2\n",  # a feature that no system weighs
}


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

    @pytest.mark.parametrize("args, code", [
        (["decode", "--stack-size", "0"], 1),
        (["train-lm", "--order", "9"], 1),
        (["decode", "--lm2", "{lm}", "--lm-lambda", "2"], 1),
        (["decode", "--weights", "{nan_weights}"], 2),
    ])
    def test_bad_value_is_one_line_not_traceback(self, tmp_path, capsys, args, code):
        table = write(tmp_path / "t.moses", ["a ||| x ||| 1 1 1 1"])
        corpus = write(tmp_path / "c.txt", ["x x", "x"])
        lm = str(tmp_path / "lm.arpa")
        assert main(["train-lm", "--corpus", corpus, "--out", lm, "--order", "2"]) == 0
        paths = {"lm": lm, "nan_weights": write(tmp_path / "w.tsv", ["lm\tnan"])}
        args = [arg.format(**paths) for arg in args]
        if args[0] == "decode":
            args += ["--input", write(tmp_path / "in.txt", ["a"]), "--table", table,
                     "--lm", lm, "--output", str(tmp_path / "o.txt")]
        else:
            args += ["--corpus", corpus, "--out", str(tmp_path / "lm9.arpa")]
        capsys.readouterr()
        assert main(args) == code
        err = capsys.readouterr().err
        assert err.startswith("pivotsmt: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", [
        ["decode", "--input", "{tmp}/in.txt", "--output", "{tmp}/out.txt"],
        ["synthesize", "--src", "{tmp}/s.txt", "--tgt", "{tmp}/t.txt",
         "--out-src", "{tmp}/o.s", "--out-tgt", "{tmp}/o.t"],
        ["tune", "--dev-src", "{tmp}/s.txt", "--dev-ref", "{tmp}/t.txt",
         "--weights-out", "{tmp}/w.tsv"],
    ])
    def test_search_settings_checked_before_any_file_is_read(self, tmp_path, capsys, command):
        # every input is missing, which would exit 2 once read
        args = [arg.format(tmp=tmp_path) for arg in command]
        args += ["--table", str(tmp_path / "t.moses"), "--lm", str(tmp_path / "lm.arpa"),
                 "--option-limit", "0", "--stack-size", "0"]
        assert main(args) == 1
        assert capsys.readouterr().err == "pivotsmt: option_limit must be >= 1, got 0\n"

    @pytest.fixture
    def inputs(self, tmp_path):
        """A well-formed file for every input of _READS, by name, plus output paths."""
        paths = {"src": write(tmp_path / "s.txt", ["a b", "b"]),
                 "separator_src": write(tmp_path / "sep.txt", ["a b", "b"]),
                 "marker_words": write(tmp_path / "words.txt", ["a", "b"]),
                 "tgt": write(tmp_path / "t.txt", ["x y", "y"]),
                 "table": write(tmp_path / "t.moses", ["a ||| x ||| 1 1 1 1",
                                                       "b ||| y ||| 1 1 1 1"]),
                 "table2": write(tmp_path / "t2.moses", ["x ||| a ||| 1 1 1 1"]),
                 "marker_table": write(tmp_path / "marker.moses", ["a ||| x ||| 1 1 1 1",
                                                                   "b ||| y ||| 1 1 1 1"]),
                 "lm": str(tmp_path / "lm.arpa"), "lm2": str(tmp_path / "lm2.arpa"),
                 "weights": write(tmp_path / "w.tsv", ["lm\t0.5", "distortion\t0.3"]),
                 "twice_weights": write(tmp_path / "w2.tsv", ["lm\t0.5", "distortion\t0.3"]),
                 "translit_weights": write(tmp_path / "w3.tsv", ["lm\t0.5", "distortion\t0.3"]),
                 "char": char_model(tmp_path / "char.json", {"a": {"a": 1.0}}),
                 "spaced_char": char_model(tmp_path / "spaced.json", {"a": {"a": 1.0}}),
                 "pairs": write(tmp_path / "pairs.tsv", ["ab\tAB", "ba\tBA\t2"]),
                 "spaced_pairs": write(tmp_path / "spaced.tsv", ["ab\tAB", "ba\tBA"]),
                 "alignments": write(tmp_path / "a.txt", ["0-0 1-1", "0-0"]),
                 "pages": write(tmp_path / "pages.txt", ["== a00", "[[hi:b00]]"]),
                 "labels": write(tmp_path / "labels.csv", ["1,j1,helpful", "2,j2,doubtful"]),
                 "out": str(tmp_path / "o1"), "out2": str(tmp_path / "o2")}
        for lm in ("lm", "lm2"):
            assert main(["train-lm", "--corpus", paths["tgt"], "--out", paths[lm]]) == 0
        fixture = make_experiment_fixture(str(tmp_path / "fix"), seed=3, vocab=12, covered=8,
                                          n_train=30, n_synth=10, n_test=5, n_dev=3)
        experiment = {"dev_src": fixture["dev"][0], "dev_tgt": fixture["dev"][1],
                      "lm_corpus": write(tmp_path / "lm.txt", ["b01 b02", "b03"]),
                      "translit_model": char_model(tmp_path / "translit.json", {"a": {"a": 1.0}})}
        paths["config"] = write_config(str(tmp_path / "exp.conf"), str(tmp_path / "run"),
                                       fixture, use_synth="concat", use_dict="on",
                                       tune_rounds=1, **experiment)
        paths.update(experiment, marker_lm=experiment["lm_corpus"],
                     train_src=fixture["train"][0], train_tgt=fixture["train"][1],
                     test_src=fixture["test"][0], test_tgt=fixture["test"][1],
                     synth_src=fixture["synth"][0], synth_tgt=fixture["synth"][1],
                     dict_tsv=fixture["dict"])
        return paths

    @pytest.mark.parametrize("template, name", [
        pytest.param(template, name, id=f"{template.split()[0]}-{name}")
        for template, names in _READS for name in names])
    def test_malformed_input_is_one_line_naming_its_path(self, capsys, inputs, template, name):
        path = inputs[name]
        if name in _MALFORMED:
            data, says = _MALFORMED[name], f"pivotsmt: {path}:"
        else:
            with open(path, "rb") as handle:
                lines = handle.read().split(b"\n")
            lines[1] = b"\xff" + lines[1]
            data, says = b"\n".join(lines), f"pivotsmt: {path}:2: invalid UTF-8"
        with open(path, "wb") as handle:
            handle.write(data)
        capsys.readouterr()
        code = main([arg.format(**inputs) for arg in template.split()])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(says) and err.count("\n") == 1, err


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
        assert capsys.readouterr().out == "kept 1 pairs, dropped 1\n"
        assert read(tmp_path / "o.s").splitlines() == ["one two"]
        assert read(tmp_path / "o.t").splitlines() == ["x"]

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

    def test_extract_frees_the_model1_tables_before_counting(self, tmp_path, monkeypatch,
                                                             capsys):
        """One usable CPU, so that both tables are trained in this process
        and can be watched through weak references."""
        src = write(tmp_path / "train.s", ["das haus", "das buch", "ein haus"])
        tgt = write(tmp_path / "train.t", ["the house", "the book", "a house"])
        aligned = str(tmp_path / "alignments.txt")
        assert main(["align", "--src", src, "--tgt", tgt, "--out", aligned]) == 0
        tables, first_extract = [], []
        train, extract = align.train_model1, phrasetab.extract_phrases

        def training(*args, **kwargs):
            table = train(*args, **kwargs)
            tables.append(weakref.ref(table))
            return table

        def extracting(*args, **kwargs):
            if not first_extract:
                first_extract.append([table() for table in tables])
            return extract(*args, **kwargs)

        monkeypatch.setattr(align, "train_model1", training)
        monkeypatch.setattr(phrasetab, "extract_phrases", extracting)
        with usable_cpus(1):
            assert main(["extract", "--src", src, "--tgt", tgt, "--alignments", aligned,
                         "--out", str(tmp_path / "table.moses")]) == 0
        assert len(tables) == 2
        assert first_extract == [[None, None]]

    # a command line with the CPU probe patched to `cpus`, printing the fork count last
    _MAIN_WITH_CPUS = """
import os, sys
from pivotsmt import cli, corpus
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
corpus._usable_cpus = lambda: {cpus}
code = cli.main(sys.argv[1:])
print("forks", len(forks))
sys.exit(code)
"""

    def run_with_cpus(self, cpus, args):
        """`pivotsmt args` in a child interpreter with the CPU probe reading
        `cpus`: (stdout lines, stderr, forks made)."""
        package = os.path.dirname(os.path.dirname(align.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [package, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", self._MAIN_WITH_CPUS.format(cpus=cpus), *args],
            env=env, capture_output=True, text=True, check=True)
        *printed, forks = done.stdout.splitlines()
        return printed, done.stderr, int(forks.removeprefix("forks "))

    def test_align_prints_the_same_on_both_paths(self, tmp_path):
        src = write(tmp_path / "s.txt", ["das haus", "ein", "das buch", "ein buch"])
        tgt = write(tmp_path / "t.txt", ["the house", "", "the book", "a book"])
        runs = []
        for cpus in (1, 2):
            out = str(tmp_path / f"cpus{cpus}")
            printed, stderr, forks = self.run_with_cpus(
                cpus, ["align", "--src", src, "--tgt", tgt, "--out", out, "--dump-tables", out])
            assert forks == (cpus > 1)
            runs.append((printed, stderr, [read(out + ext) for ext in ("", ".fwd", ".bwd")]))
        assert runs[0] == runs[1]
        assert runs[0][0] == ["aligned 4 pairs"]
        # one warning from each Model 1 direction, t(src|tgt) first
        assert runs[0][1] == "WARNING skipping sentence pair with an empty side\n" * 2

    @PATHS
    def test_verbose_align_logs_both_directions_forward_first(self, tmp_path, cpus):
        pairs = [(("das", "haus"), ("the", "house")), (("ein",), ()),
                 (("das", "buch", "buch"), ("the", "book"))]
        src = write(tmp_path / "s.txt", [" ".join(s) for s, _ in pairs])
        tgt = write(tmp_path / "t.txt", [" ".join(t) for _, t in pairs])
        args = ["align", "--src", src, "--tgt", tgt, "--out", str(tmp_path / "a.txt"),
                "--iterations", "3"]
        printed, stderr, forks = self.run_with_cpus(cpus, ["-v", *args])
        assert forks == (cpus > 1)
        expected = []
        for bitext in (pairs, [(t, s) for s, t in pairs]):
            expected.append("WARNING skipping sentence pair with an empty side")
            expected += [f"INFO model 1 iteration {k}/3: log-likelihood {ll:.6f}"
                         for k, ll in enumerate(
                             align.train_model1(bitext, 3).log_likelihoods, start=1)]
        assert stderr.splitlines() == expected
        assert expected[1] != expected[5]  # so that the order shows
        # without -v: the same output and only the warnings
        assert self.run_with_cpus(cpus, args) == (printed, "".join(
            line + "\n" for line in expected if line.startswith("WARNING")), forks)

    @PATHS
    def test_verbose_mine_translit_logs_each_iteration(self, tmp_path, cpus):
        pairs = write(tmp_path / "pairs.tsv", ["ab\tAB", "ba\tBA", "abc\tXYZ"])
        args = ["mine-translit", "--pairs", pairs, "--model-out", str(tmp_path / "c.json"),
                "--iterations", "2"]
        printed, stderr, _ = self.run_with_cpus(cpus, ["-v", *args])
        lines = stderr.splitlines()
        assert [line.rsplit(" ", 1)[0] for line in lines] == [
            "INFO mining iteration 1/2: log-likelihood",
            "INFO mining iteration 2/2: log-likelihood",
            "INFO mining, final parameters: log-likelihood"]
        assert self.run_with_cpus(cpus, args)[:2] == (printed, "")

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

    def test_decode_nbest_prints_0_for_a_table_no_option_came_from(self, tmp_path, capsys):
        # table 1 covers no input word, so no derivation holds one of its options
        table0 = write(tmp_path / "t0.moses", ["a ||| x ||| 0.6 0.6 0.6 0.6",
                                               "a ||| y ||| 0.4 0.4 0.4 0.4",
                                               "b ||| y ||| 0.9 0.9 0.9 0.9"])
        table1 = write(tmp_path / "t1.moses", ["c ||| x ||| 0.5 0.5 0.5 0.5"])
        corpus = write(tmp_path / "lmc.txt", ["x y", "y x"])
        arpa = str(tmp_path / "lm.arpa")
        assert main(["train-lm", "--corpus", corpus, "--out", arpa, "--order", "2"]) == 0
        inp = write(tmp_path / "in.txt", ["a b", "b a"])
        nbest_path = str(tmp_path / "nbest.txt")
        assert main(["decode", "--input", inp, "--table", table0, "--table", table1,
                     "--lm", arpa, "--output", str(tmp_path / "o.txt"),
                     "--nbest", "5", "--nbest-out", nbest_path]) == 0
        lines = read(nbest_path).splitlines()
        assert {line.split(" ||| ")[0] for line in lines} == {"0", "1"}
        for line in lines:
            _, _, feats, total = line.split(" ||| ")
            values = dict(feat.split("=") for feat in feats.split())
            assert [values[f"tm1.{feat}"] for feat in TM_FEATURES] == ["0.000000"] * 4, line
            assert float(values["tm0.phi_fwd"]) < 0
            assert math.isfinite(float(total)), line

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
        # .fwd holds t(tgt|src) and .bwd t(src|tgt)
        fwd, bwd = (read_table(prefix + ext) for ext in (".fwd", ".bwd"))
        assert fwd.prob("the", "das") > 0.9
        assert bwd.prob("das", "the") > 0.9

    def test_triangulate_command(self, tmp_path, capsys):
        pivot_to_tgt = write(tmp_path / "p2t.moses",
                             ["e1 ||| u1 ||| 0.5 0.5 0.5 0.5",
                              "e2 ||| u1 ||| 0.5 0.5 0.5 0.5"])
        src_to_pivot = write(tmp_path / "s2p.moses",
                             ["h1 ||| e1 ||| 0.4 0.4 0.4 0.4",
                              "h1 ||| e2 ||| 0.6 0.6 0.6 0.6"])
        out = str(tmp_path / "tri.moses")
        assert main(["triangulate", "--pivot-to-tgt", pivot_to_tgt,
                     "--src-to-pivot", src_to_pivot,
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

    def test_translit_table_rejects_a_phrase_line(self, tmp_path, capsys):
        model_path = char_model(tmp_path / "char.json", {"a": {"a": 1.0}})
        words = write(tmp_path / "words.txt", ["a", "ab ba"])
        out = str(tmp_path / "translit.moses")
        assert main(["translit-table", "--model", model_path,
                     "--words", words, "--out", out]) == 2
        err = one_line_error(capsys)
        assert f"{words}:2: expected 1 whitespace-separated fields, got 2" in err
        assert not os.path.exists(out)

    def test_translit_table_leaves_out_a_marker_the_model_writes(self, tmp_path, capsys):
        # the model writes a, b, c as <, s, >, so "abc" becomes the LM
        # marker <s>, which no table may hold: the table leaves it out
        model_path = char_model(tmp_path / "char.json",
                                {"a": {"<": 0.75, "x": 0.25}, "b": {"s": 1.0}, "c": {">": 1.0}})
        words = write(tmp_path / "words.txt", ["abc"])
        out = str(tmp_path / "translit.moses")
        assert main(["translit-table", "--model", model_path,
                     "--words", words, "--out", out, "--k", "5"]) == 0
        with open(out, encoding="utf-8") as handle:
            assert handle.read() == "abc ||| xs> ||| 1 1 1 1\n"

    def test_translit_table_leaves_out_an_empty_transliteration(self, tmp_path, capsys):
        # deleting "h" gives the candidate "", which no table may hold
        model_path = str(tmp_path / "char.json")
        translit.write_char_model(deleting_char_model(), model_path)
        words = write(tmp_path / "words.txt", ["h"])
        out = str(tmp_path / "translit.moses")
        assert main(["translit-table", "--model", model_path,
                     "--words", words, "--out", out, "--k", "10"]) == 0
        assert [(e.source, e.target, e.scores()) for e in read_moses(out)] == \
            [(("h",), ("H",), (1.0, 1.0, 1.0, 1.0))]

    def test_dict_links_writes_the_experiment_dictionary(self, tmp_path, capsys):
        fixture = make_experiment_fixture(str(tmp_path / "fix"), seed=3, vocab=12, covered=8,
                                          n_train=30, n_synth=10, n_test=5, n_dev=3)
        pages = ["intro text before any page"]
        for i in range(8, 12):
            pages += [f"== a{i:02d}", f"see [[a{i:02d}]], [[fr:c{i:02d}]] and",
                      f"[[hi:b{i:02d}]] [[hi:b{i:02d}]] [[hi:]]"]
        out = str(tmp_path / "dict.tsv")
        assert main(["dict-links", "--pages", write(tmp_path / "pages.txt", pages),
                     "--lang", "hi", "--out", out]) == 0
        assert capsys.readouterr().out == "mined 4 entries, skipped 4 malformed links\n"
        with open(out, "rb") as mined, open(fixture["dict"], "rb") as expected:
            assert mined.read() == expected.read()

    def test_dict_links_rejects_an_untitled_page(self, tmp_path, capsys):
        pages = write(tmp_path / "pages.txt", ["== a00", "[[hi:b00]]", "== ", "[[hi:b01]]"])
        assert main(["dict-links", "--pages", pages, "--lang", "hi",
                     "--out", str(tmp_path / "dict.tsv")]) == 2
        assert f"{pages}:3: page header has no title" in one_line_error(capsys)

    def test_tally_prints_counts_and_percentages(self, tmp_path, capsys):
        labels = write(tmp_path / "labels.csv",
                       [f"{i},j{i % 2},{c}" for i, c in
                        enumerate(["helpful"] * 5 + ["doubtful"] * 2 + ["misleading"])])
        assert main(["tally", "--labels", labels]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "category    count  percent",
            "helpful     5      62.5",
            "doubtful    2      25.0",
            "misleading  1      12.5",
            "total       8"]

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


def decode_setup(tmp_path):
    """A two-word table and a bigram LM, as (table, lm) paths."""
    table = write(tmp_path / "t.moses",
                  ["a ||| x ||| 0.6 0.6 0.6 0.6",
                   "a ||| y ||| 0.4 0.4 0.4 0.4",
                   "b ||| y ||| 0.9 0.9 0.9 0.9"])
    arpa = str(tmp_path / "lm.arpa")
    corpus = write(tmp_path / "lmc.txt", ["x y", "y x"])
    assert main(["train-lm", "--corpus", corpus, "--out", arpa, "--order", "2"]) == 0
    return table, arpa


def read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


class TestCorpusDecoding:
    @pytest.fixture
    def dead_end_on_b(self, monkeypatch):
        from pivotsmt import decoder
        from pivotsmt.errors import DataError
        real_decode = decoder.decode

        def decode(sentence, *args, **kwargs):
            if list(sentence) == ["b"]:
                raise DataError("no complete hypothesis found (search dead-ended)")
            return real_decode(sentence, *args, **kwargs)

        monkeypatch.setattr(decoder, "decode", decode)

    def test_decode_dead_end_is_an_empty_line(self, tmp_path, capsys, caplog,
                                              dead_end_on_b):
        table, arpa = decode_setup(tmp_path)
        out = str(tmp_path / "o.txt")
        assert main(["decode", "--input", write(tmp_path / "in.txt", ["a", "b", "a b"]),
                     "--table", table, "--lm", arpa, "--output", out]) == 0
        assert read(out).split("\n")[:3] == ["x", "", "x y"]
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and "line 2" in warnings[0]

    def test_decode_writes_no_empty_transliteration(self, tmp_path, capsys):
        # "h" is uncovered, and "" is one of its transliterations; weighing
        # the transliteration block's forward probability negatively, as
        # tuning may, would make it the best option, and an output token of
        # it would leave two spaces on the line
        model_path = str(tmp_path / "char.json")
        translit.write_char_model(deleting_char_model(), model_path)
        table = write(tmp_path / "t.moses", ["x ||| a ||| 0.5 0.5 0.5 0.5"])
        arpa = str(tmp_path / "lm.arpa")
        assert main(["train-lm", "--corpus", write(tmp_path / "lmc.txt", ["a a"]),
                     "--out", arpa, "--order", "2"]) == 0
        weights = write(tmp_path / "w.txt", ["lm\t1", "distortion\t1", "tm1.phi_fwd\t-1"])
        out = str(tmp_path / "o.txt")
        assert main(["decode", "--input", write(tmp_path / "in.txt", ["x h x", "h"]),
                     "--table", table, "--lm", arpa, "--translit-model", model_path,
                     "--weights", weights, "--output", out]) == 0
        lines = read(out).splitlines()
        assert lines == [" ".join(line.split()) for line in lines] == ["a H a", "H"]

    def test_synthesize_drops_a_dead_end(self, tmp_path, capsys, dead_end_on_b):
        table, arpa = decode_setup(tmp_path)
        assert main(["synthesize", "--src", write(tmp_path / "u.txt", ["a", "b", "a"]),
                     "--tgt", write(tmp_path / "e.txt", ["e1", "e2", "e3"]),
                     "--out-src", str(tmp_path / "syn.s"),
                     "--out-tgt", str(tmp_path / "syn.t"),
                     "--table", table, "--lm", arpa]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "synthesized 2 pairs, dropped 1"
        assert read(tmp_path / "syn.t").splitlines() == ["e1", "e3"]

    def test_tune_survives_a_dead_end(self, tmp_path, capsys, dead_end_on_b):
        table, arpa = decode_setup(tmp_path)
        weights = str(tmp_path / "w.tsv")
        assert main(["tune", "--dev-src", write(tmp_path / "d.s", ["a", "b"]),
                     "--dev-ref", write(tmp_path / "d.r", ["y", "y"]),
                     "--weights-out", weights, "--table", table,
                     "--lm", arpa, "--rounds", "1"]) == 0
        assert "lm\t" in read(weights)

    def test_tune_accepts_an_empty_dev_line(self, tmp_path, capsys):
        table, arpa = decode_setup(tmp_path)
        weights = str(tmp_path / "w.tsv")
        assert main(["tune", "--dev-src", write(tmp_path / "d.s", ["a", "", "a b"]),
                     "--dev-ref", write(tmp_path / "d.r", ["y", "x", "y y"]),
                     "--weights-out", weights, "--table", table,
                     "--lm", arpa, "--rounds", "1"]) == 0
        assert "lm\t" in read(weights)

    @pytest.mark.parametrize("flags", [["--nbest", "5"], ["--nbest-out", "{nbest}"],
                                       ["--nbest", "0", "--nbest-out", "{nbest}"]])
    def test_nbest_flags_go_together(self, tmp_path, capsys, flags):
        table, arpa = decode_setup(tmp_path)
        nbest_path = str(tmp_path / "nbest.txt")
        capsys.readouterr()
        assert main(["decode", "--input", write(tmp_path / "in.txt", ["a"]),
                     "--table", table, "--lm", arpa, "--output", str(tmp_path / "o.txt")]
                    + [flag.format(nbest=nbest_path) for flag in flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pivotsmt: ") and err.count("\n") == 1, err
        assert not os.path.exists(nbest_path)

    @PATHS
    def test_nbest_is_the_same_on_both_paths(self, tmp_path, capsys, caplog, cpus):
        table, arpa = decode_setup(tmp_path)
        inp = write(tmp_path / "in.txt", ["a", "a b", "b a", "", "b a b", "a a"])
        runs = []
        for run_cpus in (1, cpus):
            out = str(tmp_path / f"o{run_cpus}.txt")
            nbest_path = str(tmp_path / f"nbest{run_cpus}.txt")
            caplog.clear()
            with usable_cpus(run_cpus) as forks:
                assert main(["decode", "--input", inp, "--table", table, "--lm", arpa,
                             "--output", out, "--nbest", "5", "--nbest-out", nbest_path]) == 0
            assert len(forks) == run_cpus - 1
            runs.append((read(out), read(nbest_path), log_lines(caplog)))
        assert runs[0] == runs[1]
        assert runs[0][0].split("\n")[3] == ""
        assert len(runs[0][1].splitlines()) > 6

    def test_one_best_file_is_the_top_of_each_nbest_list(self, tmp_path, capsys):
        # without --nbest the search keeps back-pointers only, with it the
        # whole lattice; both must give each sentence the same best line
        fixture = make_experiment_fixture(str(tmp_path / "fix"), seed=5, vocab=12, covered=8,
                                          n_train=60, n_synth=0, n_test=20, n_dev=0)
        src, tgt = fixture["train"]
        aligned, table, arpa = (str(tmp_path / name) for name in ("a.txt", "t.moses", "lm.arpa"))
        assert main(["align", "--src", src, "--tgt", tgt, "--out", aligned]) == 0
        assert main(["extract", "--src", src, "--tgt", tgt, "--alignments", aligned,
                     "--out", table]) == 0
        assert main(["train-lm", "--corpus", tgt, "--out", arpa, "--order", "3"]) == 0
        system = ["--input", fixture["test"][0], "--table", table, "--lm", arpa]
        one_best, nbest_path = str(tmp_path / "1best.txt"), str(tmp_path / "nbest.txt")
        assert main(["decode", *system, "--output", one_best]) == 0
        assert main(["decode", *system, "--output", str(tmp_path / "o.txt"),
                     "--nbest", "5", "--nbest-out", nbest_path]) == 0
        firsts = {}
        for line in read(nbest_path).splitlines():
            sid, tokens = line.split(" ||| ")[:2]
            firsts.setdefault(int(sid), tokens)
        hyps = read(one_best).splitlines()
        assert len(hyps) == 20
        assert [firsts[sid] for sid in range(len(hyps))] == hyps

    @pytest.mark.parametrize("args", [
        ["--config", "{conf}", "score", "--hyp", "{conf}", "--ref", "{conf}"],
        ["experiment"],
    ])
    def test_config_belongs_to_experiment(self, tmp_path, capsys, args):
        conf = write(tmp_path / "x.conf", ["a"])
        assert main([arg.format(conf=conf) for arg in args]) == 1


def char_model(path, ops):
    """A hand-written character model file with the given operation rows."""
    data = {"lambda": 0.5, "ops": ops, "src_chars": ["a"],
            "tgt_lm": {"alphabet": ["a"], "counts": {}}}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return str(path)


def one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("pivotsmt") and err.count("\n") == 1, err
    return err


# (command, its bad option or config keys, exit code, what stderr says)
_OUT_OF_RANGE = [
    ("decode", ["--option-limit", "0"], 1, "option_limit must be >= 1"),
    ("decode", ["--option-limit", "-5"], 1, "option_limit must be >= 1"),
    ("decode", ["--translit-k", "3"], 1, "unrecognized arguments: --translit-k"),
    ("decode", ["--distortion-limit", "-1"], 1, "distortion_limit must be >= 0"),
    ("synthesize", ["--stack-size", "0"], 1, "stack_size must be >= 1"),
    ("tune", ["--option-limit", "0"], 1, "option_limit must be >= 1"),
    ("experiment", {"distortion_limit": -1}, 1, "distortion_limit must be >= 0"),
    ("ingest", ["--max-len", "-1"], 1, "max_len must be >= 1"),
    ("ingest", ["--max-len", "0"], 1, "max_len must be >= 1"),
    ("extract", ["--max-phrase-len", "0"], 1, "max_len must be >= 1"),
    ("extract", ["--top-k", "-1"], 1, "--top-k: must be >= 0"),
    ("experiment", {"prune_top_k": -1}, 1, "prune_top_k must be >= 0"),
    ("experiment", {"tune_rounds": -1}, 1, "tune_rounds must be >= 0"),
    ("experiment", {"max_sent_len": 0}, 1, "max_sent_len must be >= 1"),
    ("decode", ["--threads", "0"], 1, "unrecognized arguments: --threads"),
    ("synthesize", ["--threads", "-3"], 1, "unrecognized arguments: --threads"),
    ("tokenize", ["--threads", "4"], 1, "unrecognized arguments: --threads"),
    ("decode", ["--translit-model", "{tmp}/empty-row.json"], 2, "operation row 'a'"),
    ("decode", ["--translit-model", "{tmp}/half-row.json"], 2, "operation row 'a'"),
    ("experiment", {"em_iterations": 0}, 1, "em_iterations must be >= 1"),
    ("experiment", {"max_phrase_len": 0}, 1, "max_phrase_len must be >= 1"),
    ("experiment", {"nbest_size": 0}, 1, "nbest_size must be >= 1"),
    ("experiment", {"lm_order": 0}, 1, "lm_order must be in 1..5"),
    ("experiment", {"lm_order": 9}, 1, "lm_order must be in 1..5"),
    ("experiment", {"stack_size": 0}, 1, "stack_size must be >= 1"),
    ("experiment", {"option_limit": 0}, 1, "option_limit must be >= 1"),
    ("experiment", {"option_limit": -5}, 1, "option_limit must be >= 1"),
    ("decode", ["--nbest", "-1"], 1, "--nbest: must be >= 0"),
    ("mine-translit", ["--threshold", "7"], 1, "threshold must be in [0, 1]"),
    ("mine-translit", ["--threshold", "-0.5"], 1, "threshold must be in [0, 1]"),
    ("decode", ["--translit-model", "{tmp}/wrong-types.json"], 2, "is not a number"),
    ("experiment", {"work_dir": " "}, 1, "work_dir must be non-empty"),  # read as ""
    ("experiment", {"tune_rounds": 1, "dev_src": "{tmp}/empty.txt",
                    "dev_tgt": "{tmp}/empty.txt"}, 2, "dev_src is empty"),
    ("experiment", {"tune_rounds": 1, "dev_src": "{tmp}/blank.txt",
                    "dev_tgt": "{tmp}/blank.txt"}, 2, "dev_src is empty"),
    ("tune", ["--dev-src", "{tmp}/blank.txt", "--dev-ref", "{tmp}/blank.txt"], 2,
     "cannot tune on an empty dev set"),
    ("experiment", {"translit_k": 3}, 2, "unknown config key 'translit_k'"),
]


class TestBoundaries:
    """An option or config value out of range exits 1 and a malformed character
    model exits 2, each with one line of stderr and no output file."""

    @pytest.fixture
    def command(self, tmp_path):
        table, arpa = decode_setup(tmp_path)
        src = write(tmp_path / "s.txt", ["a b", "b"])
        tgt = write(tmp_path / "t.txt", ["x y", "y"])
        out, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        system = ["--table", table, "--lm", arpa]
        fixture = make_experiment_fixture(str(tmp_path / "fix"), seed=3, vocab=12,
                                          covered=8, n_train=30, n_synth=10,
                                          n_test=5, n_dev=3)
        (tmp_path / "empty.txt").write_text("", encoding="utf-8")
        (tmp_path / "blank.txt").write_text("\n\n\n", encoding="utf-8")

        def build(name, extra):
            if name == "experiment":
                values = {"work_dir": str(tmp_path / "run"),
                          **{key: str(value).format(tmp=tmp_path) for key, value in extra.items()}}
                return ["experiment", "--config", write_config(
                    str(tmp_path / "exp.conf"), values.pop("work_dir"), fixture, **values)]
            extra = [arg.format(tmp=tmp_path) for arg in extra]
            return {
                "decode": ["decode", "--input", src, "--output", out, *system],
                "synthesize": ["synthesize", "--src", src, "--tgt", tgt,
                               "--out-src", out, "--out-tgt", out2, *system],
                "tune": ["tune", "--dev-src", src, "--dev-ref", tgt,
                         "--weights-out", out, *system],
                "ingest": ["ingest", "--src", src, "--tgt", tgt,
                           "--out-src", out, "--out-tgt", out2],
                "extract": ["extract", "--src", src, "--tgt", tgt, "--alignments",
                            write(tmp_path / "a.txt", ["0-0 1-1", "0-0"]), "--out", out],
                "tokenize": ["tokenize", "--input", src, "--output", out],
                "mine-translit": ["mine-translit", "--model-out", out, "--pairs",
                                  write(tmp_path / "pairs.tsv", ["ab\tAB", "ba\tBA"])],
            }[name] + extra
        return build

    @pytest.mark.parametrize("name, extra, code, says", _OUT_OF_RANGE)
    def test_out_of_range_value_is_one_line(self, tmp_path, capsys, command,
                                            name, extra, code, says):
        char_model(tmp_path / "empty-row.json", {"a": {}})
        char_model(tmp_path / "half-row.json", {"a": {"a": 0.25, "": 0.25}})
        (tmp_path / "wrong-types.json").write_text(json.dumps(
            {"lambda": 0.5, "ops": {"a": {"a": True}}, "src_chars": "abc",
             "tgt_lm": {"alphabet": "xyz", "counts": {}}}), encoding="utf-8")
        args = command(name, extra)
        capsys.readouterr()
        assert main(args) == code
        assert says in one_line_error(capsys)
        assert not os.path.exists(str(tmp_path / "o1"))

    @pytest.mark.parametrize("extra, says", [(extra, says) for name, extra, code, says
                                             in _OUT_OF_RANGE
                                             if name == "experiment" and code == 1])
    def test_bad_experiment_value_fails_before_training(self, capsys, monkeypatch, command,
                                                         extra, says):
        def never(*args, **kwargs):
            raise AssertionError("training started before the config was checked")

        monkeypatch.setattr(ngramlm, "train_kn", never)
        monkeypatch.setattr(align, "train_model1", never)
        assert main(command("experiment", {"use_synth": "concat", "use_dict": "on",
                                           **extra})) == 1
        assert says in one_line_error(capsys)

    def test_threads_before_the_command_is_a_usage_error(self, tmp_path, capsys):
        inp = write(tmp_path / "in.txt", ["a"])
        assert main(["--threads", "4", "tokenize", "--input", inp,
                     "--output", str(tmp_path / "o.txt")]) == 1
        one_line_error(capsys)

    def test_threads_is_not_a_config_key(self, tmp_path, capsys, command):
        assert main(command("experiment", {"threads": 2})) == 2
        assert "unknown config key 'threads'" in one_line_error(capsys)

    @pytest.mark.parametrize("name", ["align", "tune", "score"])
    def test_mismatched_files_name_both_paths(self, tmp_path, capsys, name):
        table, arpa = decode_setup(tmp_path)
        one = write(tmp_path / "one.txt", ["a b", "b", "a"])
        other = write(tmp_path / "other.txt", ["x"])
        args = {
            "align": ["align", "--src", one, "--tgt", other, "--out", str(tmp_path / "o")],
            "tune": ["tune", "--dev-src", one, "--dev-ref", other, "--weights-out",
                     str(tmp_path / "o"), "--table", table, "--lm", arpa],
            "score": ["score", "--hyp", one, "--ref", other],
        }[name]
        capsys.readouterr()
        assert main(args) == 2
        err = one_line_error(capsys)
        assert f"{one} has 3 lines" in err and f"{other} has 1 lines" in err, err


# Each command flag whose setting is also a config key. `tune --rounds` (3)
# and `tune_rounds` (0) differ on purpose: an experiment keeps the default
# weights unless it asks for tuning.
_SHARED_SETTINGS = [
    ("ingest", "max_len", "max_sent_len"),
    ("align", "iterations", "em_iterations"),
    ("extract", "iterations", "em_iterations"),
    ("extract", "max_phrase_len", "max_phrase_len"),
    ("extract", "top_k", "prune_top_k"),
    ("train-lm", "order", "lm_order"),
    ("tune", "nbest", "nbest_size"),
    *((command, key, key) for command in ("synthesize", "tune", "decode")
      for key in ("option_limit", "distortion_limit", "stack_size")),
]


@pytest.mark.parametrize("command, dest, key", _SHARED_SETTINGS)
def test_flag_and_config_key_share_a_default(command, dest, key):
    subparsers, = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    default = subparsers.choices[command].get_default(dest)
    assert default is not None and default == getattr(ExperimentConfig(), key)
