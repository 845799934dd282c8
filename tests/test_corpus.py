import pytest

from pivotsmt.corpus import (
    DictionaryEntry, concat_bitexts, count_oov, dict_to_bitext,
    extract_language_links, ingest_bitext, mine_language_links,
    parse_wiki_pages, read_dictionary_tsv, read_lines, tokenize,
)
from pivotsmt.errors import DataError

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
        bitext = ingest_bitext(["a b", "c", "d e f"], ["x", "y z", "w"], max_len=80)
        assert len(bitext) == 3
        assert bitext.dropped_pairs == 0
        assert bitext.pairs[0] == (("a", "b"), ("x",))

    def test_drop_over_limit(self):
        long_line = " ".join(f"w{i}" for i in range(81))
        bitext = ingest_bitext([long_line, "short"], ["t", "t"], max_len=80)
        assert len(bitext) == 1
        assert bitext.dropped_pairs == 1

    def test_exactly_at_limit_kept(self):
        line = " ".join(f"w{i}" for i in range(80))
        bitext = ingest_bitext([line], ["t"], max_len=80)
        assert len(bitext) == 1

    def test_mismatched_counts(self):
        with pytest.raises(DataError, match=r"2.*3"):
            ingest_bitext(["a", "b"], ["x", "y", "z"])

    def test_drop_filter_invariant(self):
        lines = [" ".join("w" for _ in range(n)) for n in (1, 5, 9, 12, 3)]
        bitext = ingest_bitext(lines, list(lines), max_len=8)
        assert bitext.dropped_pairs + len(bitext) == 5
        for src, tgt in bitext.pairs:
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
        assert ingest_bitext(["a|||b"], ["x||| |||y"]).pairs == [(("a|||b",), ("x|||", "|||y"))]


class TestConcat:
    def test_empty(self):
        assert len(concat_bitexts([])) == 0

    def test_order_preserved(self):
        a = ingest_bitext([f"a{i}" for i in range(10)],
                          [f"x{i}" for i in range(10)])
        b = ingest_bitext([f"b{i}" for i in range(5)],
                          [f"y{i}" for i in range(5)])
        merged = concat_bitexts([a, b])
        assert len(merged) == 15
        assert merged.pairs[0] == (("a0",), ("x0",))
        assert merged.pairs[10] == (("b0",), ("y0",))

    def test_associative_pair_multiset(self):
        parts = [
            ingest_bitext([f"s{i}{j}" for j in range(3)],
                          [f"t{i}{j}" for j in range(3)])
            for i in range(3)
        ]
        left = concat_bitexts([concat_bitexts(parts[:2]), parts[2]])
        right = concat_bitexts([parts[0], concat_bitexts(parts[1:])])
        assert left.pairs == right.pairs

    def test_dictionary_reduces_oov(self):
        train = ingest_bitext(["a b", "b c"], ["A B", "B C"])
        entries = [DictionaryEntry(("d",), ("D",), "wikipedia")]
        merged = concat_bitexts([train, dict_to_bitext(entries)])
        test_set = [("a", "d"), ("c",)]
        # oracle: plain set-difference OOV counting
        before = {w for s, _ in train.pairs for w in s}
        after = {w for s, _ in merged.pairs for w in s}
        oov_before = sum(1 for s in test_set for w in s if w not in before)
        oov_after = sum(1 for s in test_set for w in s if w not in after)
        assert count_oov(test_set, before) == oov_before == 1
        assert count_oov(test_set, after) == oov_after == 0
        assert oov_after < oov_before


class TestDictionary:
    def test_empty(self):
        assert len(dict_to_bitext([])) == 0

    def test_single_entry(self):
        bitext = dict_to_bitext([DictionaryEntry(("house",), ("haus",), "wiktionary")])
        assert len(bitext) == 1
        assert bitext.pairs == [(("house",), ("haus",))]

    def test_collection_sized_fixture(self):
        # sizes of the three mined word-pair collections
        sizes = {"wikipedia": 40764, "wiktionary": 10352, "omegawiki": 3476}
        entries = [
            DictionaryEntry((f"{prov[:2]}{i}",), (f"t{prov[:2]}{i}",), prov)
            for prov, size in sizes.items()
            for i in range(size)
        ]
        bitext = dict_to_bitext(entries)
        assert len(bitext) == 54592

    def test_invalid_provenance(self):
        with pytest.raises(ValueError):
            DictionaryEntry(("a",), ("b",), "guesswork")

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            DictionaryEntry((), ("b",), "mesh")

    def test_tsv_roundtrip(self):
        entries = read_dictionary_tsv(["house\thaus\twikipedia", "big dog\tgros chien\tmesh"])
        assert entries[0].source == ("house",)
        assert entries[1].source == ("big", "dog")
        assert entries[1].provenance == "mesh"

    def test_tsv_malformed(self):
        with pytest.raises(DataError, match=":1"):
            read_dictionary_tsv(["just-one-field"])

    @pytest.mark.parametrize("line", ["a ||| b\tx\tmesh", "a\t||| x\tmesh"])
    def test_tsv_field_separator_token_rejected(self, line):
        with pytest.raises(DataError, match=r"^d.tsv:2: the token '\|\|\|'"):
            read_dictionary_tsv(["house\thaus\twikipedia", line], "d.tsv")


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
        entries, bad = mine_language_links(text, "hi")
        assert bad == 0
        joined = "\n".join(text)
        expected = len(re.findall(r"\[\[hi:[^\]]+\]\]", joined))
        assert len(entries) == expected
        assert all(e.provenance == "wikipedia" for e in entries)

    def test_page_parsing(self):
        pages = parse_wiki_pages(["== One", "body a", "== Two", "body b", "more"])
        assert pages == [("One", "body a"), ("Two", "body b\nmore")]

    def test_output_subset_of_wellformed(self):
        body = "[[hi:good]] [[hi:bad [[fr:x]]"
        entries, _ = extract_language_links("T", body, "hi")
        wellformed = {"good"}
        assert {e.target[0] for e in entries} <= wellformed
