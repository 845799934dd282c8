import logging
import random

import pytest
from hypothesis import given, settings, strategies as st

from pivotsmt import align
from pivotsmt.align import (
    AlignmentMatrix, TranslationTable, format_alignment, parse_alignment,
    read_alignments, read_table, symmetrize_gdfa, train_both_directions, train_model1,
    viterbi_align, write_table,
)
from pivotsmt.errors import DataError

from fixtures import PATHS, assert_no_child_left, open_fds, read_file, usable_cpus
from oracles import (em_model1_reference, model1_dict_reference,
                     viterbi_reference)

DAS_HAUS = [
    (("das", "haus"), ("the", "house")),
    (("das", "buch"), ("the", "book")),
]


def random_toy_corpus(rng, n_pairs=5, vocab=6, max_len=4):
    src_words = [f"s{i}" for i in range(vocab)]
    tgt_words = [f"t{i}" for i in range(vocab)]
    pairs = []
    for _ in range(n_pairs):
        n = rng.randint(1, max_len)
        pairs.append((
            tuple(rng.choice(src_words) for _ in range(n)),
            tuple(rng.choice(tgt_words) for _ in range(rng.randint(1, max_len))),
        ))
    return pairs


class TestModel1:
    def test_single_forced_alignment(self):
        table = train_model1([(("a",), ("x",))], iterations=5, use_null=False)
        assert table.prob("a", "x") == pytest.approx(1.0)

    def test_das_haus_converges(self):
        table = train_model1(DAS_HAUS, iterations=20, use_null=False)
        assert table.prob("das", "the") > 0.99

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(7)
        for trial in range(10):
            pairs = random_toy_corpus(rng)
            for use_null in (False, True):
                table = train_model1(pairs, iterations=15, use_null=use_null)
                ref, _ = em_model1_reference(pairs, 15, use_null=use_null)
                for (e, f), p in ref.items():
                    assert table.prob(f, e) == pytest.approx(p, abs=1e-9)

    def test_loglikelihood_nondecreasing(self):
        rng = random.Random(3)
        for _ in range(5):
            pairs = random_toy_corpus(rng)
            table = train_model1(pairs, iterations=10)
            lls = table.log_likelihoods
            for before, after in zip(lls, lls[1:]):
                assert after >= before - 1e-9

    def test_rows_stochastic_each_iteration(self):
        pairs = random_toy_corpus(random.Random(5))
        for k in range(1, 6):
            table = train_model1(pairs, iterations=k, use_null=True)
            for cond, row in table.probs.items():
                assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)

    def test_logs_each_iteration(self, caplog):
        with caplog.at_level(logging.INFO, logger="pivotsmt.align"):
            table = train_model1(DAS_HAUS, iterations=3)
        lines = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert len(lines) == 3
        for k, (line, ll) in enumerate(zip(lines, table.log_likelihoods), start=1):
            assert line.startswith(f"model 1 iteration {k}/3")
            assert f"{ll:.6f}" in line

    def test_empty_bitext_rejected(self):
        with pytest.raises(DataError):
            train_model1([], iterations=1)

    def test_empty_side_skipped(self, caplog):
        table = train_model1([(("a",), ()), (("a",), ("x",))], iterations=2,
                             use_null=False)
        assert table.prob("a", "x") == pytest.approx(1.0)


def repetitive_corpus(rng, n_pairs=12, vocab=4, max_len=7):
    """Few words and long sentences, so both sides repeat words."""
    return [
        (tuple(f"s{rng.randrange(vocab)}" for _ in range(rng.randint(1, max_len))),
         tuple(f"t{rng.randrange(vocab)}" for _ in range(rng.randint(1, max_len))))
        for _ in range(n_pairs)
    ]


def nested_items(probs):
    return [(e, list(row.items())) for e, row in probs.items()]


class TestBitExact:
    """The interned-cell EM and row-lookup Viterbi against the dict walks."""

    def test_model1_equals_dict_walk(self):
        rng = random.Random(21)
        for _ in range(12):
            pairs = repetitive_corpus(rng)
            for use_null in (False, True):
                table = train_model1(pairs, iterations=6, use_null=use_null)
                probs, lls = model1_dict_reference(pairs, 6, use_null=use_null)
                assert nested_items(table.probs) == nested_items(probs)
                assert table.log_likelihoods == lls

    def test_viterbi_equals_per_cell_lookup(self):
        """Each direction's links, on every pair it trained on."""
        rng = random.Random(23)
        for _ in range(12):
            pairs = repetitive_corpus(rng)
            for use_null in (False, True):
                (src_given_tgt, forward), (tgt_given_src, backward) = \
                    train_both_directions(pairs, 4, use_null)
                assert_links_are_the_reference(pairs, use_null, src_given_tgt, forward,
                                               tgt_given_src, backward)


def link_set(links):
    """The (predicted, conditioning) index pairs of one pair's links."""
    return {(i, j) for i, j in enumerate(links) if j >= 0}


def assert_links_are_the_reference(pairs, use_null, src_given_tgt, forward,
                                   tgt_given_src, backward):
    assert len(forward) == len(backward) == len(pairs)
    for pair, src_links, tgt_links in zip(pairs, forward, backward):
        assert (len(src_links), len(tgt_links)) == tuple(map(len, pair))
        assert link_set(src_links) == viterbi_reference(
            src_given_tgt.probs, use_null, pair, "forward")
        # the backward links: a source index per target word, transposed
        assert transposed(link_set(tgt_links)) == viterbi_reference(
            tgt_given_src.probs, use_null, pair, "backward")


def transposed(links):
    return {(j, i) for i, j in links}


def both_directions(pairs, cpus, iterations=4, use_null=True):
    """train_both_directions with the CPU probe reading `cpus`; also the
    number of forks it made."""
    with usable_cpus(cpus) as forks:
        try:
            return train_both_directions(pairs, iterations, use_null), len(forks)
        finally:
            assert len(forks) == (cpus > 1)


def reverse_fails(bitext, iterations, use_null=True):
    """train_model1 that fails on the swapped DAS_HAUS bitext."""
    if bitext[0][0][0] == "the":
        raise ZeroDivisionError("no reverse table")
    return train_model1(bitext, iterations, use_null)


class TestBothDirections:
    """train_both_directions trains the swapped direction in a forked child
    with two usable CPUs and in-process with one; the probe is patched."""

    def assert_serial_tables(self, pairs, directions, use_null=True):
        expected = (train_model1(pairs, 4, use_null),
                    train_model1([(t, s) for s, t in pairs], 4, use_null))
        tables = tuple(table for table, _ in directions)
        assert tables == expected
        for got, want in zip(tables, expected):
            assert nested_items(got.probs) == nested_items(want.probs)
        (src_given_tgt, forward), (tgt_given_src, backward) = directions
        assert_links_are_the_reference(pairs, use_null, src_given_tgt, forward,
                                       tgt_given_src, backward)

    @PATHS
    def test_das_haus_tables_equal_serial_training(self, cpus):
        fds = open_fds()
        tables, _ = both_directions(DAS_HAUS, cpus)
        self.assert_serial_tables(DAS_HAUS, tables)
        assert_no_child_left()
        assert open_fds() == fds

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.tuples(*[st.lists(st.sampled_from(["a", "b", "c"]),
                                         max_size=5).map(tuple)] * 2),
                    min_size=1, max_size=6),
           st.booleans())
    def test_drawn_bitexts_give_the_same_tables_or_error(self, pairs, use_null):
        """Three words and up to five a side, so that words repeat on both
        sides and a repeated target word adds to its total at each of its
        positions, token by token. Both paths give the dict walk's tables
        and the reference's links."""
        outcomes = []
        for cpus in (1, 2):
            try:
                outcomes.append(both_directions(pairs, cpus, use_null=use_null)[0])
            except DataError as exc:  # no pair with two non-empty sides
                outcomes.append(str(exc))
            assert_no_child_left()
        assert outcomes[0] == outcomes[1]
        if isinstance(outcomes[0], str):
            return
        for directions in outcomes:
            for (table, _), bitext in zip(directions, (pairs, [(t, s) for s, t in pairs])):
                probs, lls = model1_dict_reference(bitext, 4, use_null=use_null)
                assert nested_items(table.probs) == nested_items(probs)
                assert table.log_likelihoods == lls
            (src_given_tgt, forward), (tgt_given_src, backward) = directions
            assert_links_are_the_reference(pairs, use_null, src_given_tgt, forward,
                                           tgt_given_src, backward)

    @PATHS
    def test_log_records_come_in_serial_order(self, cpus, caplog):
        pairs = DAS_HAUS + [(("ein",), ())]
        with caplog.at_level(logging.INFO, logger="pivotsmt.align"):
            (forward, _), (reverse, _) = both_directions(pairs, cpus)[0]
        got = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
        lines = [(logging.WARNING, "skipping sentence pair with an empty side")]
        for table in (forward, reverse):
            expected = lines + [(logging.INFO, f"model 1 iteration {k}/4: "
                                               f"log-likelihood {ll:.6f}")
                                for k, ll in enumerate(table.log_likelihoods, start=1)]
            assert [(level, text) for _, level, text in got[:5]] == expected
            assert {name for name, _, _ in got[:5]} == {"pivotsmt.align"}
            got = got[5:]
        assert got == []

    @PATHS
    def test_reverse_exception_comes_back(self, cpus, monkeypatch):
        monkeypatch.setattr(align, "train_model1", reverse_fails)
        fds = open_fds()
        with pytest.raises(ZeroDivisionError, match="^no reverse table$"):
            both_directions(DAS_HAUS, cpus)
        assert_no_child_left()
        assert open_fds() == fds

    @PATHS
    def test_forward_exception_reaps_the_child(self, cpus, monkeypatch):
        def never(bitext, iterations, use_null=True):
            raise DataError(f"never ({len(bitext)} pairs)")

        monkeypatch.setattr(align, "train_model1", never)
        fds = open_fds()
        with pytest.raises(DataError, match=r"^never \(2 pairs\)$"):
            both_directions(DAS_HAUS, cpus)
        assert_no_child_left()
        assert open_fds() == fds


class TestViterbi:
    """Each direction's links as train_both_directions returns them, and
    viterbi_align's rules on tables written out by hand."""

    def test_forced_link(self):
        (_, forward), (_, backward) = train_both_directions([(("a",), ("x",))], 5,
                                                            use_null=False)
        assert forward == backward == [(0,)]

    def test_das_haus_alignment(self):
        (_, forward), (_, backward) = train_both_directions(DAS_HAUS, 20, use_null=False)
        assert forward[0] == backward[0] == (0, 1)

    def test_empty_target(self):
        (_, forward), (_, backward) = train_both_directions(
            [(("a", "b"), ()), (("a",), ("x",))], 3)
        assert forward[0] == (-1, -1)
        assert backward[0] == ()

    def test_unknown_word_fallback_smallest_index(self):
        table = TranslationTable(probs={"t": {"known": 1.0}})
        assert viterbi_align(table, [(("zzz",), ("t", "u"))]) == [(0,)]

    def test_unknown_word_with_null_unaligned(self):
        table = TranslationTable(probs={None: {"w": 0.5}}, use_null=True)
        assert viterbi_align(table, [(("zzz",), ("t",))]) == [(-1,)]

    def test_null_row_scoring_higher_leaves_no_link(self):
        table = TranslationTable(probs={None: {"w": 0.5, "v": 0.25},
                                        "t": {"w": 0.25, "v": 0.5}}, use_null=True)
        assert viterbi_align(table, [(("w", "v"), ("t",))]) == [(-1, 0)]

    def test_tie_breaks_to_smaller_index(self):
        (table, forward), (_, backward) = train_both_directions([(("a",), ("t", "u"))], 3,
                                                                use_null=False)
        assert table.prob("a", "t") == table.prob("a", "u")
        assert forward == [(0,)]
        assert backward == [(0, 0)]


def matrix(src_len, tgt_len, links):
    return AlignmentMatrix(src_len, tgt_len, frozenset(links))


class TestGdfa:
    def test_identity_under_agreement(self):
        a = matrix(3, 3, {(0, 0), (1, 2), (2, 1)})
        assert symmetrize_gdfa(a, a).links == a.links

    def test_hand_trace_grow(self):
        forward = matrix(2, 2, {(0, 0), (1, 1)})
        backward = matrix(2, 2, {(0, 0), (1, 0)})
        assert symmetrize_gdfa(forward, backward).links == {(0, 0), (1, 1)}

    def test_hand_trace_final_and(self):
        forward = matrix(2, 2, {(0, 0)})
        backward = matrix(2, 2, {(1, 1)})
        assert symmetrize_gdfa(forward, backward).links == {(0, 0), (1, 1)}

    def test_many_to_one_preserved(self):
        forward = matrix(2, 1, {(0, 0), (1, 0)})
        backward = matrix(2, 1, {(0, 0)})
        assert symmetrize_gdfa(forward, backward).links == {(0, 0), (1, 0)}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            symmetrize_gdfa(matrix(2, 2, set()), matrix(2, 3, set()))

    def test_sandwich_and_idempotence_random(self):
        rng = random.Random(42)
        for _ in range(500):
            src_len = rng.randint(1, 6)
            tgt_len = rng.randint(1, 6)
            fwd = matrix(src_len, tgt_len,
                         {(rng.randrange(src_len), rng.randrange(tgt_len))
                          for _ in range(rng.randint(0, 6))})
            bwd = matrix(src_len, tgt_len,
                         {(rng.randrange(src_len), rng.randrange(tgt_len))
                          for _ in range(rng.randint(0, 6))})
            out = symmetrize_gdfa(fwd, bwd)
            inter = fwd.links & bwd.links
            union = fwd.links | bwd.links
            assert inter <= out.links <= union
            again = symmetrize_gdfa(out, out)
            assert again.links == out.links


class TestSerialization:
    def test_alignment_roundtrip(self):
        m = matrix(3, 4, {(0, 1), (2, 3), (1, 0)})
        line = format_alignment(m)
        assert line == "0-1 1-0 2-3"
        assert parse_alignment(line, 3, 4, 1, "a.txt").links == m.links

    def test_alignment_out_of_bounds(self):
        with pytest.raises(DataError):
            parse_alignment("5-0", 2, 2, 3, "a.txt")

    @pytest.mark.parametrize("bad", ["5-0", "0:1"])
    def test_alignment_error_names_file_and_line(self, bad):
        with pytest.raises(DataError, match="a.txt:2: "):
            read_file(lambda path: read_alignments(path, [(2, 2), (2, 2)]), ["0-0", bad],
                      "a.txt")

    def test_table_roundtrip(self, tmp_path):
        table = train_model1(DAS_HAUS, iterations=5, use_null=True)
        path = tmp_path / "ttable.tsv"
        write_table(str(path), table)
        back = read_table(str(path))
        assert back.use_null
        for cond, row in table.probs.items():
            for word, prob in row.items():
                assert back.prob(word, cond) == pytest.approx(prob, rel=1e-8)

    def test_table_repeated_pair_rejected(self):
        # "<null>" names the NULL row, so these two lines are one pair
        with pytest.raises(DataError, match=r"t.tsv:3: repeated pair \('<null>', 'a'\)"):
            read_file(read_table, ["<null>\ta\t0.5", "x\ta\t1", "<null>\ta\t0.5"], "t.tsv")

    def test_null_word_table_not_written(self, tmp_path):
        # a conditioning word "<null>" would read back as the NULL row
        table = train_model1([(("a",), ("<null>",))], iterations=1, use_null=True)
        path = tmp_path / "ttable.tsv"
        with pytest.raises(ValueError, match="cannot hold the word '<null>'"):
            write_table(str(path), table)
        assert not path.exists()

    def test_table_probability_above_one_rejected(self):
        with pytest.raises(DataError, match="t.tsv:2: probability '1.5' is not a probability"):
            read_file(read_table, ["x\ta\t1", "x\tb\t1.5"], "t.tsv")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-0.5"])
    def test_table_bad_probability_rejected(self, bad):
        lines = ["x\ta\t0.5", f"x\tb\t{bad}"]
        with pytest.raises(DataError, match="t.tsv:2"):
            read_file(read_table, lines, "t.tsv")
