import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from pivotsmt.align import AlignmentMatrix, TranslationTable, train_model1
from pivotsmt.corpus import read_lines
from pivotsmt.errors import DataError
from pivotsmt.phrasetab import (
    PhraseEntry, PhraseTable, TableSet, extract_phrases, link_averages, moses_dumps,
    prune_table, read_moses, score_phrase_table, write_moses,
)

from fixtures import read_file
from oracles import enumerate_phrase_pairs, score_phrases_reference


def matrix(src_len, tgt_len, links):
    return AlignmentMatrix(src_len, tgt_len, frozenset(links))


class TestExtract:
    def test_diagonal_two_by_two(self):
        spans = extract_phrases(matrix(2, 2, {(0, 0), (1, 1)}), max_len=2)
        assert spans == {
            ((0, 0), (0, 0)),
            ((1, 1), (1, 1)),
            ((0, 1), (0, 1)),
        }

    def test_no_links(self):
        assert extract_phrases(matrix(3, 3, set()), max_len=3) == set()

    def test_fully_crossed(self):
        # frozen from the brute-force consistency enumerator: the two
        # single-link boxes are consistent alongside the full box
        spans = extract_phrases(matrix(2, 2, {(0, 1), (1, 0)}), max_len=2)
        assert spans == enumerate_phrase_pairs(2, 2, {(0, 1), (1, 0)}, 2)
        assert spans == {
            ((0, 0), (1, 1)),
            ((1, 1), (0, 0)),
            ((0, 1), (0, 1)),
        }

    def test_equals_bruteforce_on_random(self):
        rng = random.Random(99)
        for _ in range(500):
            src_len = rng.randint(1, 6)
            tgt_len = rng.randint(1, 6)
            links = {(rng.randrange(src_len), rng.randrange(tgt_len))
                     for _ in range(rng.randint(0, 7))}
            max_len = rng.randint(1, 6)
            got = extract_phrases(matrix(src_len, tgt_len, links), max_len)
            want = enumerate_phrase_pairs(src_len, tgt_len, links, max_len)
            assert got == want

    def test_monotone_growth_in_max_len(self):
        rng = random.Random(5)
        for _ in range(50):
            src_len, tgt_len = rng.randint(2, 6), rng.randint(2, 6)
            links = {(rng.randrange(src_len), rng.randrange(tgt_len))
                     for _ in range(4)}
            m = matrix(src_len, tgt_len, links)
            previous = set()
            for max_len in range(1, 7):
                current = extract_phrases(m, max_len)
                assert previous <= current
                previous = current


def scored(pairs, alignments, w_fwd, w_bwd, max_len):
    """score_phrase_table on the link averages of the two tables."""
    averages = link_averages(pairs, alignments, w_fwd, w_bwd)
    return score_phrase_table(pairs, alignments, averages, max_len=max_len)


def uniform_table(pairs):
    """A flat t-table giving every co-occurring word pair probability 0.5."""
    probs = {}
    for src, tgt in pairs:
        for e in src:
            for f in tgt:
                probs.setdefault(e, {})[f] = 0.5
    return TranslationTable(probs=probs)


class TestScoring:
    def test_single_pair_single_phrase(self):
        pairs = [(("a",), ("x",))]
        alignments = [matrix(1, 1, {(0, 0)})]
        table = scored(pairs, alignments,
                                   uniform_table([(("a",), ("x",))]),
                                   uniform_table([(("x",), ("a",))]),
                                   max_len=2)
        entry = table.get(("a",))[0]
        assert entry.phi_tgt_given_src == pytest.approx(1.0)
        assert entry.phi_src_given_tgt == pytest.approx(1.0)

    def test_relative_frequency_split(self):
        pairs = [(("s",), ("t1",)), (("s",), ("t2",))]
        alignments = [matrix(1, 1, {(0, 0)})] * 2
        w_fwd = uniform_table([(("t1", "t2"), ("s",))])
        w_bwd = uniform_table([(("s",), ("t1", "t2"))])
        table = scored(pairs, alignments, w_fwd, w_bwd, max_len=1)
        for entry in table.get(("s",)):
            assert entry.phi_tgt_given_src == pytest.approx(0.5)
            assert entry.phi_src_given_tgt == pytest.approx(1.0)

    def test_lexical_weights_product_of_averages(self):
        # das/haus toy corpus with converged word model; hand-computed oracle
        bitext = [
            (("das", "haus"), ("the", "house")),
            (("das", "buch"), ("the", "book")),
        ]
        w_tgt_given_src = train_model1([(t, s) for s, t in bitext],
                                       iterations=25, use_null=False)
        w_src_given_tgt = train_model1(bitext, iterations=25, use_null=False)
        alignments = [matrix(2, 2, {(0, 0), (1, 1)})] * 2
        table = scored(bitext, alignments, w_tgt_given_src,
                                   w_src_given_tgt, max_len=2)
        entry = next(e for e in table.get(("das", "haus"))
                     if e.target == ("the", "house"))
        # each target word has exactly one link: lex = prod of w(t_j | s_i)
        expect_fwd = (w_tgt_given_src.prob("the", "das")
                      * w_tgt_given_src.prob("house", "haus"))
        expect_bwd = (w_src_given_tgt.prob("das", "the")
                      * w_src_given_tgt.prob("haus", "house"))
        assert entry.lex_tgt_given_src == pytest.approx(expect_fwd, abs=1e-12)
        assert entry.lex_src_given_tgt == pytest.approx(expect_bwd, abs=1e-12)

    def test_unaligned_interior_word_uses_null_row(self):
        pairs = [(("a", "b", "c"), ("x", "y"))]
        alignments = [matrix(3, 2, {(0, 0), (2, 1)})]
        w_fwd = TranslationTable(probs={"a": {"x": 0.8}, "c": {"y": 0.6},
                                        None: {"x": 0.3, "y": 0.4}},
                                 use_null=True)
        w_bwd = TranslationTable(probs={"x": {"a": 0.7}, "y": {"c": 0.9},
                                        None: {"b": 0.2}},
                                 use_null=True)
        table = scored(pairs, alignments, w_fwd, w_bwd, max_len=3)
        entry = next(e for e in table.get(("a", "b", "c"))
                     if e.target == ("x", "y"))
        # backward lex: "a"->x (0.7), interior "b" unlinked -> NULL (0.2), "c"->y (0.9)
        assert entry.lex_src_given_tgt == pytest.approx(0.7 * 0.2 * 0.9, abs=1e-12)
        assert entry.lex_tgt_given_src == pytest.approx(0.8 * 0.6, abs=1e-12)

    def test_forward_phi_normalizes_per_source(self):
        rng = random.Random(1)
        pairs = []
        alignments = []
        for _ in range(30):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            pairs.append((tuple(rng.choice("abc") for _ in range(n)),
                          tuple(rng.choice("xyz") for _ in range(m))))
            alignments.append(matrix(n, m, {(rng.randrange(n), rng.randrange(m))
                                            for _ in range(rng.randint(1, 4))}))
        w = uniform_table([(("a", "b", "c"), ("x", "y", "z"))])
        wb = uniform_table([(("x", "y", "z"), ("a", "b", "c"))])
        table = scored(pairs, alignments, w, wb, max_len=3)
        for source in table.sources():
            total = sum(e.phi_tgt_given_src for e in table.get(source))
            assert total == pytest.approx(1.0, abs=1e-9)


class TestScoringBitExact:
    """Per-sentence link averages against the per-box link re-scan, and the
    table's order against `add` in the order each pair is first seen."""

    @staticmethod
    def assert_scored_as_reference(pairs, alignments, use_null, max_len):
        w_fwd = train_model1([(t, s) for s, t in pairs], iterations=3, use_null=use_null)
        w_bwd = train_model1(pairs, iterations=3, use_null=use_null)
        table = scored(pairs, alignments, w_fwd, w_bwd, max_len=max_len)
        want = score_phrases_reference(
            pairs, [a.links for a in alignments],
            (w_fwd.probs, use_null), (w_bwd.probs, use_null), max_len=max_len)
        assert {(e.source, e.target): e.scores() for e in table} == want
        ref_table = PhraseTable()
        for (source, target), scores in want.items():
            ref_table.add(PhraseEntry(source, target, *scores))
        assert [(e.source, e.target) for e in table] \
            == [(e.source, e.target) for e in ref_table]
        assert table.max_source_len == ref_table.max_source_len
        assert moses_dumps(table) == moses_dumps(ref_table)

    def test_moses_dump_equals_per_box_scoring(self):
        rng = random.Random(31)
        for _ in range(10):
            pairs = []
            alignments = []
            for _ in range(15):
                n, m = rng.randint(1, 7), rng.randint(1, 7)
                pairs.append((tuple(f"s{rng.randrange(4)}" for _ in range(n)),
                              tuple(f"t{rng.randrange(4)}" for _ in range(m))))
                alignments.append(matrix(n, m, {(rng.randrange(n), rng.randrange(m))
                                                for _ in range(rng.randint(0, 6))}))
            for use_null in (False, True):
                self.assert_scored_as_reference(pairs, alignments, use_null, max_len=4)

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5),
                              st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                                       max_size=6),
                              st.lists(st.sampled_from(["a", "b", "c"]), min_size=10,
                                       max_size=10)),
                    min_size=1, max_size=6),
           st.booleans(), st.integers(1, 5))
    def test_drawn_bitexts_score_as_the_reference(self, drawn, use_null, max_len):
        """Three words a side, so that phrase pairs repeat across and within
        sentences; links are drawn inside each pair's box."""
        pairs, alignments = [], []
        for n, m, links, words in drawn:
            pairs.append((tuple(words[:n]), tuple(w.upper() for w in words[5:5 + m])))
            alignments.append(matrix(n, m, {(i % n, j % m) for i, j in links}))
        self.assert_scored_as_reference(pairs, alignments, use_null, max_len)

    def test_mismatched_alignments_are_a_data_error(self):
        pairs = [(("a",), ("x",))] * 2
        with pytest.raises(DataError, match="^bitext has 2 pairs but 1 alignments given$"):
            link_averages(pairs, [matrix(1, 1, {(0, 0)})], TranslationTable(),
                          TranslationTable())
        with pytest.raises(DataError, match="^bitext has 2 pairs but 1 alignments given$"):
            score_phrase_table(pairs, [matrix(1, 1, {(0, 0)})], [([1.0], [1.0])])


def make_table(entries):
    table = PhraseTable()
    for src, tgt, phi in entries:
        table.add(PhraseEntry(tuple(src.split()), tuple(tgt.split()),
                              phi, phi, phi, phi))
    return table


class TestPrune:
    def test_within_top_k_unchanged(self):
        table = make_table([("s", "a", 0.6), ("s", "b", 0.4)])
        pruned = prune_table(table, 5)
        assert len(pruned) == 2

    def test_keeps_top_two(self):
        table = make_table([("s", f"t{i}", p)
                            for i, p in enumerate((0.1, 0.4, 0.05, 0.3, 0.15))])
        pruned = prune_table(table, 2)
        kept = {e.target for e in pruned.get(("s",))}
        assert kept == {("t1",), ("t3",)}

    def test_tie_breaks_lexicographic(self):
        table = make_table([("s", "bb", 0.5), ("s", "aa", 0.5), ("s", "cc", 0.5)])
        pruned = prune_table(table, 2)
        kept = {e.target for e in pruned.get(("s",))}
        assert kept == {("aa",), ("bb",)}

    def test_matches_sort_oracle(self):
        rng = random.Random(17)
        entries = [("src", f"t{i:03d}", rng.random()) for i in range(40)]
        table = make_table(entries)
        pruned = prune_table(table, 7)
        expected = sorted(entries, key=lambda e: (-e[2], (e[1],)))[:7]
        assert {e.target for e in pruned.get(("src",))} == \
            {(name,) for _, name, _ in expected}

    def test_pruned_mass_at_most_one(self):
        rng = random.Random(29)
        raw = [rng.random() for _ in range(12)]
        total = sum(raw)
        table = make_table([("s", f"t{i:02d}", v / total)
                            for i, v in enumerate(raw)])
        assert sum(e.phi_tgt_given_src for e in table.get(("s",))) == \
            pytest.approx(1.0, abs=1e-9)
        pruned = prune_table(table, 5)
        assert sum(e.phi_tgt_given_src
                   for e in pruned.get(("s",))) <= 1.0 + 1e-9

    def test_duplicate_pair_rejected(self):
        table = make_table([("s", "t", 0.5)])
        with pytest.raises(ValueError):
            table.add(PhraseEntry(("s",), ("t",), 0.1, 0.1, 0.1, 0.1))


class TestMosesFormat:
    def test_empty_roundtrip(self):
        table = PhraseTable()
        assert moses_dumps(table) == ""
        assert len(read_file(read_moses, "")) == 0

    def test_single_entry_roundtrip(self):
        table = make_table([("ein haus", "a house", 0.25)])
        text = moses_dumps(table)
        assert text == "ein haus ||| a house ||| 0.25 0.25 0.25 0.25\n"
        back = read_file(read_moses, text)
        assert back.get(("ein", "haus"))[0].target == ("a", "house")
        # membership is by source phrase; the benchmark picks OOV words with it
        assert ("ein", "haus") in back and ["ein", "haus"] in back
        assert ("a", "house") not in back and ("ein",) not in back

    def test_thousand_random_entries_roundtrip(self):
        rng = random.Random(23)
        table = PhraseTable()
        for i in range(1000):
            scores = [rng.random() for _ in range(4)]
            table.add(PhraseEntry((f"s{i % 37}", f"w{i}"), (f"t{i}",), *scores))
        back = read_file(read_moses, moses_dumps(table))
        assert len(back) == 1000
        for entry in table:
            twin = next(e for e in back.get(entry.source)
                        if e.target == entry.target)
            for a, b in zip(entry.scores(), twin.scores()):
                assert abs(a - b) < 1e-6

    def test_score_floor_applied(self):
        table = make_table([("s", "t", 0.0)])
        text = moses_dumps(table)
        back = read_file(read_moses, text)
        assert back.get(("s",))[0].phi_tgt_given_src == pytest.approx(1e-12)

    def test_malformed_line_reports_number(self):
        with pytest.raises(DataError, match=":2"):
            read_file(read_moses, "a ||| b ||| 1 1 1 1\nbroken line\n")

    def test_bad_score_count(self):
        with pytest.raises(DataError, match="4 scores"):
            read_file(read_moses, "a ||| b ||| 1 1\n")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-0.5"])
    @pytest.mark.parametrize("column", range(4))
    def test_bad_score_value_rejected(self, bad, column):
        scores = ["0.5"] * 4
        scores[column] = bad
        text = "a ||| b ||| 1 1 1 1\nc ||| d ||| " + " ".join(scores) + "\n"
        with pytest.raises(DataError, match="pt.moses:2"):
            read_file(read_moses, text, "pt.moses")

    @pytest.mark.parametrize("column", [0, 2])
    def test_phrase_probability_above_one_rejected(self, column):
        scores = ["0.5"] * 4
        scores[column] = "1.5"
        text = "a ||| b ||| 1 1 1 1\nc ||| d ||| " + " ".join(scores) + "\n"
        with pytest.raises(DataError, match="pt.moses:2: score '1.5' is not a probability"):
            read_file(read_moses, text, "pt.moses")

    @pytest.mark.parametrize("column", [1, 3])
    def test_lexical_weight_above_one_accepted(self, column):
        # a triangulated lexical weight sums over pivot phrases
        scores = ["0.5"] * 4
        scores[column] = "2.5"
        entry, = read_file(read_moses, "c ||| d ||| " + " ".join(scores) + "\n")
        assert entry.scores()[column] == 2.5

    @pytest.mark.parametrize("line", [" ||| b ||| 1 1 1 1", "a |||  ||| 1 1 1 1"])
    def test_empty_phrase_rejected(self, line):
        text = "a ||| b ||| 1 1 1 1\n" + line + "\n"
        with pytest.raises(DataError, match="pt.moses:2: empty"):
            read_file(read_moses, text, "pt.moses")

    @pytest.mark.parametrize("line, token", [
        ("b ||| y <s> ||| 1 1 1 1", "<s>"), ("b ||| </s> ||| 1 1 1 1", "</s>"),
        ("b ||| <unk> y ||| 1 1 1 1", "<unk>"), ("b ||| ||| ||| 1 1 1 1", "|||"),
        ("||| ||| y ||| 1 1 1 1", "|||")])
    def test_reserved_token_rejected(self, line, token):
        # an LM marker as a target token, and `|||` on either side
        text = "a ||| b ||| 1 1 1 1\n" + line + "\n"
        with pytest.raises(DataError, match=f"pt.moses:2: the token {re.escape(repr(token))}"):
            read_file(read_moses, text, "pt.moses")

    def test_marker_source_token_read(self):
        # the LM never sees a source phrase
        entry, = read_file(read_moses, "<s> a ||| b ||| 1 1 1 1\n")
        assert entry.source == ("<s>", "a")

    @pytest.mark.parametrize("brk", ["\u2028", "\f"], ids=["U+2028", "form-feed"])
    def test_only_newline_ends_a_line(self, tmp_path, brk):
        # str.splitlines would make two entries of this line
        path = tmp_path / "pt.moses"
        path.write_text(f"a ||| b ||| 1 1 1 1{brk}c ||| d ||| 1 1 1 1\n", encoding="utf-8")
        assert len(read_lines(str(path))) == 1
        message = f"{path}:1: expected 3 ' ||| '-separated fields, got 5"
        with pytest.raises(DataError, match="^" + re.escape(message) + "$"):
            read_moses(str(path))


class TestTableSet:
    def test_requires_tables(self):
        with pytest.raises(ValueError):
            TableSet([])
