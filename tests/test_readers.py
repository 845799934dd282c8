"""Properties of the file readers and writers.

Arbitrary text either parses to finite values or raises DataError, a bad
byte in a file is a DataError at its line, and whatever a line-format
writer produces through a path or an open handle is the same text, whose
file reads back to the same value.
"""

import io
import math
import os
import re
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from pivotsmt.align import (AlignmentMatrix, TranslationTable, read_alignments, read_table,
                            write_alignments, write_table)
from pivotsmt.corpus import read_dictionary_tsv
from pivotsmt.decoder import LogLinearModel, feature_names, read_weights, write_weights
from pivotsmt.errors import DataError
from pivotsmt.evalkit import read_manual_labels
from pivotsmt.ngramlm import read_arpa, train_kn, write_arpa
from pivotsmt.phrasetab import PhraseEntry, PhraseTable, read_moses, write_moses
from pivotsmt.pipeline import ExperimentConfig
from pivotsmt.translit import (MinedPair, WordPairCorpus, read_char_model, read_mined_pairs,
                               write_mined_pairs)

# Fragments of the file grammars, so that generated text gets past the
# first line often enough to reach the value checks.
_FRAGMENTS = st.sampled_from([
    "\\data\\", "ngram 1=1", "ngram 2=2", "\\1-grams:", "\\2-grams:", "\\end\\",
    " ||| ", "\t", ",", "\n", "\r\n", " ", "=", "-0.5", "0.25", "1", "nan", "inf",
    "-inf", "1e999", "a", "b c", "<unk>", "<null>", "lm", "wikipedia", "helpful",
    "0-1", "{", "}", "[", "]", '"', ":", '"ops"', '"lambda"', "lm_order", "seed",
])
# Well-formed files with arbitrary values in every number slot.
_VALUE = st.one_of(st.sampled_from(["-0.5", "0", "1", "nan", "inf", "-inf", "1e999",
                                     "1" + "0" * 400]),
                   st.text(max_size=4))
_MOSES = "a ||| b ||| {} {} {} {}\n"
_ARPA = "\\data\\\nngram 1=2\n\n\\1-grams:\n{}\t<unk>\n{}\ta\t{}\n\n\\end\\\n"
_CHAR = ('{{"lambda": {}, "ops": {{"a": {{"a": {}}}}}, "src_chars": ["a"], '
         '"tgt_lm": {{"alphabet": ["a"], "counts": {{"a\\u0000a": {{"a": {}}}}}}}}}')
_FILLED = st.one_of(
    st.tuples(*[_VALUE] * 4).map(lambda v: _MOSES.format(*v)),
    st.tuples(*[_VALUE] * 3).map(lambda v: _ARPA.format(*v)),
    _VALUE.map("a\tb\t{}\n".format),  # table, word pairs, mined pairs, dictionary
    _VALUE.map("lm\t{}\n".format),  # weights
    _VALUE.map("1,j1,{}\n".format),  # manual labels
    st.tuples(_VALUE, _VALUE).map(lambda v: "0-{} 1-1\n{}-2\n\n".format(*v)),  # alignments
    st.tuples(*[_VALUE] * 3).map(lambda v: _CHAR.format(*v)),
    _VALUE.map("lm_order = {}\n".format),  # experiment config
)
_TEXT = st.one_of(
    st.text(),
    st.lists(st.one_of(_FRAGMENTS, st.text(max_size=3)), max_size=40).map("".join),
    _FILLED,
)

# Every reader of a path, with the numbers it parsed.
_READERS = [
    (read_moses, lambda t: [x for e in t for x in e.scores()]),
    (read_arpa, lambda m: [*m.logprobs.values(), *m.backoffs.values(), m.unk_logprob]),
    (read_table, lambda t: [p for row in t.probs.values() for p in row.values()]),
    (lambda path: read_weights(path, 1), lambda m: list(m.weights.values())),
    (read_dictionary_tsv, lambda entries: []),
    (WordPairCorpus.from_tsv, lambda c: [w for _, _, w in c.pairs]),
    (read_mined_pairs, lambda pairs: [p.posterior for p in pairs]),
    (read_manual_labels, lambda labels: []),
    (lambda path: read_alignments(path, [(3, 3)] * 3), lambda matrices: []),
    (read_char_model, lambda m: [
        m.lam, *(x for rows in (m.ops, m.tgt_lm.counts) for row in rows.values()
                 for x in row.values())]),
    (ExperimentConfig.from_file, lambda config: []),
]
# A value out of range in a config is a usage error (exit 1), not a data error.
_ALSO_RAISES = {ExperimentConfig.from_file: ValueError}


def _dumps(write, obj) -> str:
    buf = io.StringIO()
    write(obj, buf)
    return buf.getvalue()


def _written(write, obj, directory: str) -> str:
    """The path `write` wrote `obj` to, once its text is checked to be what
    `write` gives an open handle."""
    path = os.path.join(directory, "out")
    write(obj, path)
    with open(path, encoding="utf-8", newline="") as handle:
        assert handle.read() == _dumps(write, obj)
    return path


@settings(deadline=None)
@given(_TEXT)
@example("[" * 100_000)  # nested deeper than the JSON decoder recurses
@example(_CHAR.format("1" + "0" * 400, 1, 1))  # an integer too large for a float
def test_arbitrary_text_parses_or_raises_data_error(text):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "in")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        for read, values in _READERS:
            try:
                parsed = read(path)
            except (DataError, _ALSO_RAISES.get(read, DataError)):
                continue
            assert all(math.isfinite(x) for x in values(parsed))


# Each file holds a 0xff byte on line 2.
_BAD_UTF8 = [
    pytest.param(read_moses, b"a ||| b ||| 1 1 1 1\n\xff ||| c ||| 1 1 1 1\n", id="moses"),
    pytest.param(read_arpa, b"\\data\\\n\xff\n", id="arpa"),
    pytest.param(lambda path: read_weights(path, 1), b"lm\t0.5\n\xff\t1\n", id="weights"),
    pytest.param(read_char_model, b'{\n"\xff": 1}\n', id="char-model"),
    pytest.param(ExperimentConfig.from_file, b"seed = 1\n\xff = 2\n", id="config"),
]


@pytest.mark.parametrize("read, data", _BAD_UTF8)
def test_bad_utf8_is_data_error_at_its_line(tmp_path, read, data):
    path = tmp_path / "bad"
    path.write_bytes(data)
    with pytest.raises(DataError, match="^" + re.escape(f"{path}:2: invalid UTF-8")):
        read(str(path))


# words over an alphabet with a space, a tab, `|` and a non-ASCII letter,
# so also empty ones, ones that whitespace splits and the field separator
# `|||`, plus the reserved markers
_MARKERS = ["<s>", "</s>", "<unk>", "<null>"]
_WORD = st.sampled_from(["a", "b", "ab", "ÿ", "x", *_MARKERS]) | st.text("aÿ |\t", max_size=3)
_PHRASE = st.lists(_WORD, min_size=1, max_size=3).map(tuple)
_SCORES = st.tuples(*[st.floats(0.0, 1.0)] * 4)


def _one_word(word: str) -> bool:
    return word.split() == [word]


@settings(deadline=None)
@given(st.dictionaries(st.tuples(_PHRASE, _PHRASE), _SCORES, min_size=1, max_size=12))
@example({(("a",), ("x\ty",)): (0.5,) * 4})
@example({(("<s>",), ("a",)): (0.5,) * 4})
@example({(("a",), ("</s>",)): (0.5,) * 4})
@example({(("b c", "<s>"), ("a",)): (0.5,) * 4, (("a",), ("<s>", "|||")): (0.5,) * 4})
def test_moses_write_read_round_trip(entries):
    # a table reads back as it was written, or the writer rejects it, and
    # only for a token that could not read back as one token, or for a
    # target token that is a language-model marker; the error names the
    # smallest such token, a source "<s>" being none
    table = PhraseTable()
    for (source, target), scores in entries.items():
        table.add(PhraseEntry(source, target, *scores))
    bad = [token for phrases in entries for side, phrase in enumerate(phrases)
           for token in phrase if not _one_word(token) or token == "|||"
           or (side == 1 and token in ("<s>", "</s>", "<unk>"))]
    with tempfile.TemporaryDirectory() as directory:
        if bad:
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"a Moses table cannot hold the token {min(bad)!r}:")):
                _written(write_moses, table, directory)
            assert not os.listdir(directory)
            return
        back = read_moses(_written(write_moses, table, directory))
    assert len(back) == len(table)
    assert _dumps(write_moses, back) == _dumps(write_moses, table)


@settings(deadline=None)
@given(st.lists(st.lists(_WORD.filter(lambda word: word not in ("<s>", "</s>", "<unk>")),
                         min_size=1, max_size=6),
                min_size=1, max_size=6),
       st.integers(1, 3))
@example([["a", "b c"], ["a"]], 2)
@example([["a", "ÿ"], ["|||", "<null>"]], 3)
def test_arpa_write_read_round_trip(corpus, order):
    # a model reads back as it was written, or the writer rejects it, and
    # only for a token that could not read back as one token (train_kn
    # rejects the language-model markers itself)
    model = train_kn(corpus, order)
    with tempfile.TemporaryDirectory() as directory:
        if not all(_one_word(token) for sentence in corpus for token in sentence):
            with pytest.raises(ValueError, match="an ARPA file cannot hold the token"):
                _written(write_arpa, model, directory)
            assert not os.listdir(directory)
            return
        back = read_arpa(_written(write_arpa, model, directory))
    assert back.order == order
    assert back.vocab == model.vocab
    assert _dumps(write_arpa, back) == _dumps(write_arpa, model)


_PROBS = st.sampled_from([0.0, 0.25, 0.5, 1.0])  # exact under either writer's format


@settings(deadline=None)
@given(st.dictionaries(_WORD | st.none(), st.dictionaries(_WORD, _PROBS, min_size=1, max_size=3),
                       max_size=4))
@example({"<null>": {"a": 0.5}, None: {"a": 0.5}})
@example({"a": {"b\tc": 0.5}})
def test_t_table_write_read_round_trip(probs):
    # a t-table reads back as it was written, or the writer rejects it, and
    # only for a word that could not read back as one word of its row
    table = TranslationTable(probs, use_null=None in probs)
    readable = all(word is None or (_one_word(word) and word != "<null>")
                   for cond, row in probs.items() for word in (cond, *row))
    def write(table, dest):
        write_table(dest, table)

    with tempfile.TemporaryDirectory() as directory:
        if not readable:
            with pytest.raises(ValueError, match="a t-table cannot hold the word"):
                _written(write, table, directory)
            assert not os.listdir(directory)
            return
        assert read_table(_written(write, table, directory)) == table


@settings(deadline=None)
@given(st.lists(st.builds(MinedPair, _WORD, _WORD, _PROBS), max_size=6))
@example([MinedPair("a", "b\tc", 0.5)])
def test_mined_pairs_write_read_round_trip(pairs):
    # mined pairs read back as they were written, or the writer rejects
    # them, and only for a side that is not one word
    with tempfile.TemporaryDirectory() as directory:
        if not all(_one_word(pair.source) and _one_word(pair.target) for pair in pairs):
            with pytest.raises(ValueError, match="is not one non-empty word"):
                _written(write_mined_pairs, pairs, directory)
            assert not os.listdir(directory)
            return
        assert read_mined_pairs(_written(write_mined_pairs, pairs, directory)) == pairs


_MATRIX = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda size: st.frozensets(st.tuples(st.integers(0, size[0] - 1),
                                         st.integers(0, size[1] - 1)), max_size=8)
    .map(lambda links: AlignmentMatrix(*size, links)))


@settings(deadline=None)
@given(st.lists(_MATRIX, max_size=6))
@example([AlignmentMatrix(1, 1, frozenset())] * 2)  # blank lines only
def test_alignments_write_read_round_trip(matrices):
    # alignments read back exactly, a pair with no links as a blank line
    def write(matrices, dest):
        write_alignments(dest, matrices)

    with tempfile.TemporaryDirectory() as directory:
        path = _written(write, matrices, directory)
        assert read_alignments(path, [(m.src_len, m.tgt_len) for m in matrices]) == matrices


_WEIGHTS = st.integers(1, 3).flatmap(
    lambda n_tables: st.lists(st.floats(allow_nan=False, allow_infinity=False),
                              min_size=len(feature_names(n_tables)),
                              max_size=len(feature_names(n_tables)))
    .map(lambda values: LogLinearModel(dict(zip(feature_names(n_tables), values)), n_tables)))


@settings(deadline=None)
@given(_WEIGHTS)
# to -0.0, to 0.0 and 0.000001, and a line of 301 digits
@example(LogLinearModel({"lm": -1e-9, "word_penalty": 2.5e-7, "distortion": 1e300}, 1))
def test_weights_write_read_round_trip(model):
    # write_weights keeps 6 decimals: a weights file reads back to each
    # weight rounded to 6 decimals, and writing that again gives the same file
    with tempfile.TemporaryDirectory() as directory:
        back = read_weights(_written(write_weights, model, directory), model.n_tables)
    assert back.weights == {name: float(f"{value:.6f}") for name, value in model.weights.items()}
    assert _dumps(write_weights, back) == _dumps(write_weights, model)


# Every other line-format writer, with a reader of what it wrote and a value
# whose numbers survive the writer's formatting exactly.
_ROUND_TRIPS = [
    pytest.param(lambda matrices, dest: write_alignments(dest, matrices),
                 lambda path: read_alignments(path, [(2, 3), (1, 1), (2, 2)]),
                 [AlignmentMatrix(2, 3, frozenset({(0, 0), (1, 2), (1, 1)})),
                  AlignmentMatrix(1, 1, frozenset()),
                  AlignmentMatrix(2, 2, frozenset({(1, 0)}))], id="alignments"),
    pytest.param(lambda table, dest: write_table(dest, table), read_table,
                 TranslationTable({None: {"a": 0.25, "ÿ": 0.75}, "x": {"a": 1.0},
                                   "y": {"b": 0.5, "a": 0.5}}, use_null=True), id="t-table"),
    pytest.param(write_weights, lambda path: read_weights(path, 2),
                 LogLinearModel({"lm": 0.5, "tm1.phi_fwd": -1.25, "tm0.lex_bwd": 3.0}, 2),
                 id="weights"),
    pytest.param(write_mined_pairs, read_mined_pairs,
                 [MinedPair("ab", "AB", 0.75), MinedPair("ÿx", "Y", 0.5)], id="mined-pairs"),
]


@pytest.mark.parametrize("write, read, value", _ROUND_TRIPS)
def test_write_read_round_trip(tmp_path, write, read, value):
    assert read(_written(write, value, str(tmp_path))) == value
