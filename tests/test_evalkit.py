import random

import pytest

from pivotsmt.errors import DataError
from pivotsmt.evalkit import (
    ERROR_CATEGORIES, BleuStats, ErrorProfile, ManualTally, corpus_bleu, delta_report,
    read_manual_labels, render_columns, render_tsv, tally_manual,
)

from fixtures import read_file


class TestBleu:
    def test_identity_is_100(self):
        hyps = [["the", "cat"], ["a", "b", "c"]]
        score, _ = corpus_bleu(hyps, hyps)
        assert score == 100.0

    def test_worked_example(self):
        hyp = ["the", "cat", "is", "on", "the", "mat"]
        ref = ["the", "cat", "sat", "on", "the", "mat"]
        score, stats = corpus_bleu([hyp], [ref], max_n=2)
        assert stats.matches == [5, 3]
        assert stats.totals == [6, 5]
        assert score == pytest.approx(70.71, abs=0.01)

    def test_clipping(self):
        score, stats = corpus_bleu([["the", "the", "the"]], [["the", "cat"]],
                                   max_n=1)
        assert stats.matches == [1]
        assert stats.totals == [3]
        # hyp longer than ref: no brevity penalty
        assert score == pytest.approx(100.0 / 3.0, abs=0.01)

    def test_brevity_penalty_applied(self):
        import math
        score, _ = corpus_bleu([["the"]], [["the", "cat"]], max_n=1)
        assert score == pytest.approx(100.0 * math.exp(1 - 2 / 1), abs=1e-9)

    def test_zero_precision_zeroes_score(self):
        score, _ = corpus_bleu([["a", "b"]], [["c", "d"]], max_n=2)
        assert score == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            corpus_bleu([["a"]], [["a"], ["b"]])

    def test_permutation_invariance(self):
        rng = random.Random(6)
        hyps = [[rng.choice("abcd") for _ in range(rng.randint(1, 8))]
                for _ in range(30)]
        refs = [[rng.choice("abcd") for _ in range(rng.randint(1, 8))]
                for _ in range(30)]
        base, _ = corpus_bleu(hyps, refs)
        order = list(range(30))
        for _ in range(20):
            rng.shuffle(order)
            score, _ = corpus_bleu([hyps[i] for i in order],
                                   [refs[i] for i in order])
            assert score == pytest.approx(base, abs=1e-12)

    def test_stats_additive_and_monotone(self):
        a = BleuStats(max_n=2, matches=[3, 1], totals=[5, 4],
                      hyp_len=5, ref_len=6)
        b = BleuStats(max_n=2, matches=[2, 2], totals=[4, 3],
                      hyp_len=4, ref_len=4)
        before = (list(a.matches), list(a.totals), a.hyp_len, a.ref_len)
        a.add(b)
        assert a.matches == [5, 3] and a.totals == [9, 7]
        assert a.hyp_len == 9 and a.ref_len == 10
        assert all(x2 >= x1 for x1, x2 in zip(before[0], a.matches))


class TestDeltaReport:
    def test_paper_rows(self):
        assert delta_report(22.52, 23.97, "en-hi +Syn") == \
            ["en-hi +Syn", "22.52", "23.97", "+1.45"]
        assert delta_report(21.28, 22.67, "hi-en +Syn") == \
            ["hi-en +Syn", "21.28", "22.67", "+1.39"]

    def test_zero_delta(self):
        assert delta_report(10.0, 10.0, "x")[-1] == "+0.00"

    def test_half_up_rounding(self):
        assert delta_report(0.0, 0.125, "r") == ["r", "0.00", "0.13", "+0.13"]
        assert delta_report(0.005, 0.0, "r")[1] == "0.01"


class TestManualTally:
    def test_first_evaluation_percentages(self):
        tally = ManualTally(counts={"helpful": 354, "doubtful": 377,
                                    "misleading": 232})
        assert tally.percentages(0) == {
            "helpful": 37.0, "doubtful": 39.0, "misleading": 24.0,
        }

    def test_second_evaluation_percentages(self):
        tally = ManualTally(counts={"helpful": 183, "doubtful": 111,
                                    "misleading": 34})
        assert tally.percentages(1) == {
            "helpful": 55.8, "doubtful": 33.8, "misleading": 10.4,
        }

    def test_single_label(self):
        tally = tally_manual(["doubtful"])
        assert tally.percentages(0) == {
            "helpful": 0.0, "doubtful": 100.0, "misleading": 0.0,
        }

    def test_unknown_category_named(self):
        with pytest.raises(DataError, match=r"^\S+/labels\.csv:2: .*'excellent'"):
            read_file(read_manual_labels, ["1,j1,helpful", "2,j1,excellent"], "labels.csv")

    def test_percentages_sum_to_100(self):
        tally = tally_manual(["helpful"] * 7 + ["doubtful"] * 11 +
                             ["misleading"] * 3)
        total = sum(tally.percentages(1).values())
        assert abs(total - 100.0) < 0.2

    def test_csv_reader(self):
        labels = read_file(read_manual_labels, ["1,j1,helpful", "2,j2, doubtful"])
        assert labels == ["helpful", "doubtful"]
        with pytest.raises(DataError):
            read_file(read_manual_labels, ["missing fields"])


class TestErrorProfile:
    def test_paper_profile_percentages(self):
        counts = {"missing_untranslated": 45, "wrong_translation": 74,
                  "word_order": 84, "other": 13}
        profile = ErrorProfile(sample_size=100, counts=counts)
        assert profile.percentages(0) == {
            "missing_untranslated": 45.0, "wrong_translation": 74.0,
            "word_order": 84.0, "other": 13.0,
        }

    def test_all_empty(self):
        for size in (0, 5):
            profile = ErrorProfile(sample_size=size, counts=dict.fromkeys(ERROR_CATEGORIES, 0))
            assert all(v == 0.0 for v in profile.percentages().values())

    def test_all_flagged(self):
        profile = ErrorProfile(sample_size=4, counts=dict.fromkeys(ERROR_CATEGORIES, 4))
        assert all(v == 100.0 for v in profile.percentages().values())


class TestRendering:
    def test_columns_aligned(self):
        text = render_columns([["mode", "bleu"], ["B0", "21.28"],
                               ["+Syn", "22.67"]])
        lines = text.splitlines()
        assert lines[0].startswith("mode")
        assert all(line.index("2") == lines[1].index("2")
                   for line in lines[1:])

    def test_tsv(self):
        assert render_tsv([["a", "b"], ["c", "d"]]) == "a\tb\nc\td"
