import logging
import os
import re
import struct
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from pivotsmt import corpus
from pivotsmt.corpus import (
    DictionaryEntry, count_oov, extract_language_links, forked_map, ingest_bitext, ltr_sum,
    mine_language_links, parse_wiki_pages, read_dictionary_tsv, read_lines, read_sentences,
    tokenize, within_length,
)
from pivotsmt.errors import DataError

from fixtures import assert_no_child_left, deadline, log_lines, open_fds, read_file, usable_cpus
from oracles import reference_tokenize


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_split(self):
        assert tokenize("the cat.") == ["the", "cat", "."]

    def test_unicode_punctuation(self):
        assert tokenize("वह घर। ठीक") == ["वह", "घर", "।", "ठीक"]

    def test_whitespace_scheme(self):
        assert tokenize("the cat.", scheme="whitespace") == ["the", "cat."]

    def test_case_kept_by_default(self):
        assert tokenize("The Cat") == ["The", "Cat"]
        assert tokenize("The Cat", lowercase=True) == ["the", "cat"]

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            tokenize("x", scheme="nope")

    def test_matches_reference_on_fixture(self):
        lines = [
            f"line {i}: some words, punct! and (more) te-xt; ok#{i}?"
            for i in range(100)
        ]
        for line in lines:
            assert tokenize(line) == reference_tokenize(line)

    def test_idempotent_on_own_output(self):
        line = "it's a test... (really), isn't it?"
        once = tokenize(line)
        assert tokenize(" ".join(once)) == once


class TestIngest:
    def test_basic(self):
        pairs = ingest_bitext(["a b", "c", "d e f"], ["x", "y z", "w"], max_len=80)
        assert pairs == [(("a", "b"), ("x",)), (("c",), ("y", "z")), (("d", "e", "f"), ("w",))]

    def test_drop_over_limit(self, caplog):
        long_line = " ".join(f"w{i}" for i in range(81))
        with caplog.at_level(logging.INFO, logger="pivotsmt.corpus"):
            pairs = ingest_bitext([long_line, "short"], ["t", "t"], max_len=80)
        assert pairs == [(("short",), ("t",))]
        assert caplog.messages == ["ingest: dropped 1 pairs over 80 tokens"]

    def test_exactly_at_limit_kept(self):
        line = " ".join(f"w{i}" for i in range(80))
        assert len(ingest_bitext([line], ["t"], max_len=80)) == 1
        assert len(ingest_bitext(["t"], [line], max_len=80)) == 1
        assert ingest_bitext(["t"], [line], max_len=79) == []

    def test_max_len_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_len must be >= 1, got 0"):
            within_length([(("a",), ("x",))], 0)

    def test_mismatched_counts(self):
        with pytest.raises(DataError, match=r"2.*3"):
            ingest_bitext(["a", "b"], ["x", "y", "z"])

    def test_drop_filter_invariant(self):
        lines = [" ".join("w" for _ in range(n)) for n in (1, 5, 9, 12, 3)]
        pairs = ingest_bitext(lines, list(lines), max_len=8)
        assert [len(src) for src, _ in pairs] == [1, 5, 3]
        for src, tgt in pairs:
            assert len(src) <= 8 and len(tgt) <= 8

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"fine\n\xff\xfe broken\n")
        with pytest.raises(DataError, match="2"):
            read_lines(str(path))

    def test_field_separator_token_names_its_line(self, tmp_path):
        # a phrase with the token ||| could not be written as a table line;
        # inside a longer token the three bars are harmless
        with pytest.raises(DataError, match=r"^target:2: the token '\|\|\|'"):
            ingest_bitext(["a", "b c"], ["x", "y ||| z"])
        src = tmp_path / "s.txt"
        src.write_text("a\n|||\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{src}:2: "):
            ingest_bitext(str(src), ["x", "y"])
        assert ingest_bitext(["a|||b"], ["x||| |||y"]) == [(("a|||b",), ("x|||", "|||y"))]


class TestLmCorpus:
    @pytest.mark.parametrize("line, token", [
        ("b <s>", "<s>"), ("</s> a", "</s>"), ("a <unk>", "<unk>"), ("a ||| b", "|||")])
    def test_reserved_token_names_its_line(self, tmp_path, line, token):
        path = tmp_path / "lm.txt"
        path.write_text(f"a b\n{line}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{path}:2: the token '{re.escape(token)}' is "):
            read_sentences(str(path), corpus.LM_RESERVED)

    def test_markers_inside_longer_tokens_kept(self, tmp_path):
        path = tmp_path / "lm.txt"
        path.write_text("a<s> <unk>b\n\nc\n", encoding="utf-8")
        assert read_sentences(str(path), corpus.LM_RESERVED) == [("a<s>", "<unk>b"), (), ("c",)]
        assert read_sentences(str(path)) == [("a<s>", "<unk>b"), (), ("c",)]


class TestConcat:
    def test_dictionary_reduces_oov(self):
        train = ingest_bitext(["a b", "b c"], ["A B", "B C"])
        entries = [DictionaryEntry(("d",), ("D",), "wikipedia")]
        merged = train + [(entry.source, entry.target) for entry in entries]
        test_set = [("a", "d"), ("c",)]
        # oracle: plain set-difference OOV counting
        before = {w for s, _ in train for w in s}
        after = {w for s, _ in merged for w in s}
        oov_before = sum(1 for s in test_set for w in s if w not in before)
        oov_after = sum(1 for s in test_set for w in s if w not in after)
        assert count_oov(test_set, before) == oov_before == 1
        assert count_oov(test_set, after) == oov_after == 0
        assert oov_after < oov_before


class TestDictionary:
    def test_empty(self):
        assert read_file(read_dictionary_tsv, []) == []

    def test_single_entry(self):
        assert read_file(read_dictionary_tsv, ["house\thaus\twiktionary"]) == [
            DictionaryEntry(("house",), ("haus",), "wiktionary")]

    def test_collection_sized_fixture(self):
        # sizes of the three mined word-pair collections
        sizes = {"wikipedia": 40764, "wiktionary": 10352, "omegawiki": 3476}
        lines = [f"{prov[:2]}{i}\tt{prov[:2]}{i}\t{prov}"
                 for prov, size in sizes.items() for i in range(size)]
        entries = read_file(read_dictionary_tsv, lines)
        assert len(entries) == 54592
        assert entries[40764] == DictionaryEntry(("wi0",), ("twi0",), "wiktionary")

    def test_invalid_provenance(self):
        with pytest.raises(ValueError):
            DictionaryEntry(("a",), ("b",), "guesswork")

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            DictionaryEntry((), ("b",), "mesh")

    def test_tsv_roundtrip(self):
        entries = read_file(read_dictionary_tsv,
                            ["house\thaus\twikipedia", "big dog\tgros chien\tmesh"])
        assert entries[0].source == ("house",)
        assert entries[1].source == ("big", "dog")
        assert entries[1].provenance == "mesh"

    def test_tsv_malformed(self):
        with pytest.raises(DataError, match=":1"):
            read_file(read_dictionary_tsv, ["just-one-field"])

    @pytest.mark.parametrize("line", ["a ||| b\tx\tmesh", "a\t||| x\tmesh"])
    def test_tsv_field_separator_token_rejected(self, line):
        with pytest.raises(DataError, match=r"^\S+/d\.tsv:2: the token '\|\|\|'"):
            read_file(read_dictionary_tsv, ["house\thaus\twikipedia", line], "d.tsv")


class TestLanguageLinks:
    def test_simple_link(self):
        entries, bad = extract_language_links("House", "text [[hi:घर]] more", "hi")
        assert bad == 0
        assert [(e.source, e.target) for e in entries] == [(("House",), ("घर",))]

    def test_no_links(self):
        entries, bad = extract_language_links("Empty", "nothing here", "hi")
        assert entries == [] and bad == 0

    def test_other_language_skipped(self):
        entries, _ = extract_language_links("House", "[[fr:maison]]", "hi")
        assert entries == []

    def test_plain_page_link_not_malformed(self):
        entries, bad = extract_language_links("A", "see [[Other Page]]", "hi")
        assert entries == [] and bad == 0

    def test_malformed_counted(self):
        entries, bad = extract_language_links("A", "[[hi:broken [[hi:ok]] [[hi:]]", "hi")
        assert bad == 2
        assert [e.target for e in entries] == [("ok",)]

    def test_dedup(self):
        entries, _ = extract_language_links("A", "[[hi:x]] [[hi:x]]", "hi")
        assert len(entries) == 1

    def test_fixture_scan_matches_regex_oracle(self):
        import re
        pages = []
        for i in range(50):
            codes = ["hi", "fr", "ur"][i % 3], ["hi", "de"][i % 2]
            body = " ".join(f"[[{c}:title{i}{k}]]" for k, c in enumerate(codes))
            pages.append(f"== Page{i}\n{body}")
        text = "\n".join(pages).split("\n")
        entries, bad = read_file(lambda path: mine_language_links(path, "hi"), text)
        assert bad == 0
        joined = "\n".join(text)
        expected = len(re.findall(r"\[\[hi:[^\]]+\]\]", joined))
        assert len(entries) == expected
        assert all(e.provenance == "wikipedia" for e in entries)

    def test_page_parsing(self):
        pages = parse_wiki_pages(["== One", "body a", "== Two", "body b", "more"], "pages")
        assert pages == [("One", "body a"), ("Two", "body b\nmore")]

    def test_output_subset_of_wellformed(self):
        body = "[[hi:good]] [[hi:bad [[fr:x]]"
        entries, _ = extract_language_links("T", body, "hi")
        wellformed = {"good"}
        assert {e.target[0] for e in entries} <= wellformed


@settings(max_examples=300)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20),
       st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0]))
@example([1e16, 1.0, -1e16], 0.0)  # 0.0 left to right; a compensated sum gives 1.0
@example([-0.0], 0.0)
@example([], -0.0)
@example([-0.0], -0.0)
@example([1.0, -1e16], 1e16)
def test_ltr_sum_adds_left_to_right(values, start):
    for given_start in ((), (start,)):  # the default start 0.0, then `start`
        total = given_start[0] if given_start else 0.0
        for value in values:
            total += value
        bits = struct.pack("<d", total)
        assert struct.pack("<d", ltr_sum(values, *given_start)) == bits
        with mock.patch.object(corpus, "_SUM_COMPENSATES", True):  # the path from 3.12 on
            assert struct.pack("<d", ltr_sum(iter(values), *given_start)) == bits


def logged_square(x):
    logging.getLogger("pivotsmt.corpus").info("item %d", x)
    return x * x


def logged_items(items):
    return [("pivotsmt.corpus", logging.INFO, f"item {x}") for x in items]


class TestForkedMap:
    """forked_map with its CPU probe patched: the first share maps in this
    process and each later one in a forked child."""

    @pytest.fixture(autouse=True)
    def bounded(self):
        with deadline(30):  # a child left blocked on its pipe would hang the wait
            yield

    @pytest.mark.parametrize("cpus, n", [(1, 7), (2, 7), (3, 7), (3, 2), (4, 1), (3, 0)])
    def test_results_and_log_come_in_serial_order(self, caplog, cpus, n):
        fds = open_fds()
        with caplog.at_level(logging.INFO, logger="pivotsmt.corpus"), \
                usable_cpus(cpus) as forks:
            assert forked_map(logged_square, list(range(n))) == [x * x for x in range(n)]
        assert log_lines(caplog) == logged_items(range(n))
        assert len(forks) == max(min(cpus, n) - 1, 0)
        assert_no_child_left()
        assert open_fds() == fds

    def test_first_child_exception_in_share_order_is_raised_here(self, caplog):
        def fails_at_3_and_5(x):
            if x in (3, 5):
                raise ZeroDivisionError(f"item {x}")
            return logged_square(x)

        fds = open_fds()
        # shares [0, 1], [2, 3] and [4, 5]
        with caplog.at_level(logging.INFO, logger="pivotsmt.corpus"), \
                usable_cpus(3) as forks, pytest.raises(ZeroDivisionError, match="^item 3$"):
            forked_map(fails_at_3_and_5, list(range(6)))
        # as in a serial map, no item after the failing one has logged
        assert log_lines(caplog) == logged_items(range(3))
        assert len(forks) == 2
        assert_no_child_left()
        assert open_fds() == fds

    def test_parent_share_exception_reaps_every_child(self):
        parent = os.getpid()

        def fails_here(x):
            if os.getpid() == parent:
                raise DataError(f"item {x}")
            time.sleep(0.05)
            return "x" * 100_000  # more than a pipe holds, so a child's write waits

        fds = open_fds()
        with usable_cpus(3) as forks, pytest.raises(DataError, match="^item 0$"):
            forked_map(fails_here, list(range(6)))
        assert len(forks) == 2
        assert_no_child_left()
        assert open_fds() == fds

    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 4), st.integers(0, 9), st.frozensets(st.integers(0, 9)))
    def test_equals_a_serial_map(self, cpus, n, failing):
        # results, handled log records and the exception raised are a serial
        # map's, whichever items fail and however many shares there are
        def fn(x):
            logging.getLogger("pivotsmt.corpus").info("start %d", x)
            if x in failing:
                raise ValueError(f"item {x}")
            return logged_square(x)

        def run(mapper):
            handled = []
            handler = logging.Handler()
            handler.emit = lambda record: handled.append(record.getMessage())
            logger = logging.getLogger("pivotsmt.corpus")
            level = logger.level
            logger.addHandler(handler)
            logger.setLevel(logging.INFO)
            try:
                outcome = mapper(fn, list(range(n)))
            except ValueError as exc:
                outcome = exc.args
            finally:
                logger.removeHandler(handler)
                logger.setLevel(level)
            return outcome, handled

        serial = run(lambda f, items: [f(x) for x in items])
        fds = open_fds()
        with usable_cpus(cpus) as forks:
            assert run(forked_map) == serial
        assert len(forks) == max(min(cpus, n) - 1, 0)
        assert_no_child_left()
        assert open_fds() == fds

    def test_child_without_a_result_is_an_error(self):
        parent = os.getpid()

        def dies_in_child(x):
            if os.getpid() != parent:
                os._exit(3)
            return x

        with usable_cpus(3), pytest.raises(ChildProcessError, match="ended without a result"):
            forked_map(dies_in_child, list(range(6)))
        assert_no_child_left()
