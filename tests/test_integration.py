"""End-to-end data-synthesis scenario driven through the CLI.

Three toy languages: U and H are character-level transliterations of each
other (shared suffix, different leading script marker) and E is a pivot
with unrelated word shapes. The baseline U->H corpus covers only a slice
of the vocabulary; triangulating U->E and E->H tables through E widens
coverage, and an unsupervised character model mined from the triangulated
table rescues the words no table knows. BLEU must improve at each step.
"""

import random

import pytest

from pivotsmt.cli import main
from pivotsmt.evalkit import corpus_bleu

VOCAB = 30
BASE_COVER = 10    # concepts in the tiny U<->H baseline corpus
PIVOT_COVER = 25   # concepts in the U<->E and H<->E corpora
SUFFIX_CHARS = "mnpqrst"


def concept_words(seed=8):
    rng = random.Random(seed)
    suffixes = set()
    while len(suffixes) < VOCAB:
        suffixes.add("".join(rng.choice(SUFFIX_CHARS) for _ in range(3)))
    ordered = sorted(suffixes)
    u_words = [f"u{s}" for s in ordered]
    h_words = [f"h{s}" for s in ordered]
    e_words = [f"e{i:02d}" for i in range(VOCAB)]
    return u_words, h_words, e_words


def write_corpus(path_a, path_b, words_a, words_b, concepts, n_lines, seed):
    rng = random.Random(seed)
    with open(path_a, "w", encoding="utf-8") as fa, \
            open(path_b, "w", encoding="utf-8") as fb:
        for _ in range(n_lines):
            sent = [rng.choice(concepts) for _ in range(rng.randint(3, 7))]
            fa.write(" ".join(words_a[i] for i in sent) + "\n")
            fb.write(" ".join(words_b[i] for i in sent) + "\n")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("triple")
    u_words, h_words, e_words = concept_words()
    low = list(range(BASE_COVER))
    mid = list(range(PIVOT_COVER))
    full = list(range(VOCAB))

    paths = {name: str(root / name) for name in (
        "base.u", "base.h", "ue.u", "ue.e", "he.h", "he.e",
        "test.u", "test.h", "lm.h")}
    write_corpus(paths["base.u"], paths["base.h"], u_words, h_words,
                 low, 120, seed=1)
    write_corpus(paths["ue.u"], paths["ue.e"], u_words, e_words,
                 mid, 300, seed=2)
    write_corpus(paths["he.h"], paths["he.e"], h_words, e_words,
                 mid, 300, seed=3)
    write_corpus(paths["test.u"], paths["test.h"], u_words, h_words,
                 full, 60, seed=4)
    # target-side monolingual data for the language model
    with open(paths["lm.h"], "w", encoding="utf-8") as handle:
        for src in (paths["base.h"], paths["he.h"]):
            with open(src, encoding="utf-8") as part:
                handle.write(part.read())

    def run(*argv):
        assert main(list(argv)) == 0

    art = {name: str(root / name) for name in (
        "base.align", "u2h.moses", "ue.align", "u2e.moses",
        "he.align", "e2h.moses", "tri.moses", "char.json", "mined.tsv",
        "lm.arpa")}
    run("align", "--src", paths["base.u"], "--tgt", paths["base.h"],
        "--out", art["base.align"], "--iterations", "8")
    run("extract", "--src", paths["base.u"], "--tgt", paths["base.h"],
        "--alignments", art["base.align"], "--out", art["u2h.moses"],
        "--iterations", "8", "--max-phrase-len", "3")
    run("align", "--src", paths["ue.u"], "--tgt", paths["ue.e"],
        "--out", art["ue.align"], "--iterations", "8")
    run("extract", "--src", paths["ue.u"], "--tgt", paths["ue.e"],
        "--alignments", art["ue.align"], "--out", art["u2e.moses"],
        "--iterations", "8", "--max-phrase-len", "3")
    run("align", "--src", paths["he.e"], "--tgt", paths["he.h"],
        "--out", art["he.align"], "--iterations", "8")
    run("extract", "--src", paths["he.e"], "--tgt", paths["he.h"],
        "--alignments", art["he.align"], "--out", art["e2h.moses"],
        "--iterations", "8", "--max-phrase-len", "3")
    # compose U->E with E->H into U->H
    run("triangulate", "--pivot-to-tgt", art["e2h.moses"],
        "--src-to-pivot", art["u2e.moses"], "--out", art["tri.moses"],
        "--min-score", "1e-4", "--top-k", "10")
    # mine a character model from the triangulated table's word pairs
    run("mine-translit", "--table", art["tri.moses"],
        "--model-out", art["char.json"], "--pairs-out", art["mined.tsv"],
        "--iterations", "8")
    run("train-lm", "--corpus", paths["lm.h"], "--out", art["lm.arpa"],
        "--order", "3")
    return paths, art, (u_words, h_words, e_words)


def decode_bleu(workspace, tables, translit=None):
    paths, art, _ = workspace
    out = art["lm.arpa"] + f".out{len(tables)}{bool(translit)}"
    argv = ["decode", "--input", paths["test.u"], "--output", out,
            "--lm", art["lm.arpa"]]
    for table in tables:
        argv += ["--table", table]
    if translit:
        argv += ["--translit-model", translit]
    assert main(argv) == 0
    with open(out, encoding="utf-8") as handle:
        hyps = [line.split() for line in handle.read().splitlines()]
    with open(paths["test.h"], encoding="utf-8") as handle:
        refs = [line.split() for line in handle.read().splitlines()]
    return corpus_bleu(hyps, refs)[0]


class TestPivotSynthesisStory:
    def test_triangulated_table_widens_coverage(self, workspace):
        from pivotsmt.phrasetab import read_moses
        _, art, (u_words, _, _) = workspace
        base = read_moses(art["u2h.moses"])
        tri = read_moses(art["tri.moses"])
        base_words = {s[0] for s in base.sources() if len(s) == 1}
        tri_words = {s[0] for s in tri.sources() if len(s) == 1}
        assert len(tri_words) > len(base_words)
        assert set(u_words[:BASE_COVER]) <= base_words

    def test_miner_learns_script_mapping(self, workspace):
        from pivotsmt.translit import read_char_model, transliterate
        _, art, (u_words, h_words, _) = workspace
        model = read_char_model(art["char.json"])
        # held-out concepts: words no table has seen
        for idx in range(PIVOT_COVER, VOCAB):
            best = transliterate(model, u_words[idx], 1)[0]
            assert best.target == h_words[idx]

    def test_bleu_improves_at_each_step(self, workspace):
        _, art, _ = workspace
        baseline = decode_bleu(workspace, [art["u2h.moses"]])
        with_tri = decode_bleu(workspace, [art["u2h.moses"], art["tri.moses"]])
        with_translit = decode_bleu(
            workspace, [art["u2h.moses"], art["tri.moses"]],
            translit=art["char.json"])
        assert baseline < with_tri < with_translit
        assert with_translit > 90.0

    def test_synthesize_manufactures_parallel_data(self, workspace):
        paths, art, (u_words, h_words, _) = workspace
        out_src = art["lm.arpa"] + ".synth.h"
        out_tgt = art["lm.arpa"] + ".synth.e"
        assert main(["synthesize", "--src", paths["ue.u"],
                     "--tgt", paths["ue.e"],
                     "--out-src", out_src, "--out-tgt", out_tgt,
                     "--table", art["u2h.moses"], "--table", art["tri.moses"],
                     "--translit-model", art["char.json"],
                     "--lm", art["lm.arpa"]]) == 0
        with open(out_src, encoding="utf-8") as handle:
            synth = handle.read().splitlines()
        with open(paths["ue.u"], encoding="utf-8") as handle:
            original = handle.read().splitlines()
        assert len(synth) == len(original)
        # the re-sourced side should now be (almost entirely) H-language words
        h_set = set(h_words)
        tokens = [tok for line in synth for tok in line.split()]
        in_h = sum(1 for tok in tokens if tok in h_set)
        assert in_h / len(tokens) > 0.9
