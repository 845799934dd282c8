"""Properties of the line-record readers.

Arbitrary text either parses to finite values or raises DataError, a bad
byte in a file is a DataError at its line, and whatever the Moses and ARPA
writers produce reads back to the same text through a path, a handle or a
list of lines.
"""

import io
import math
import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from pivotsmt.align import read_table
from pivotsmt.corpus import read_dictionary_tsv
from pivotsmt.decoder import read_weights
from pivotsmt.errors import DataError
from pivotsmt.evalkit import read_manual_labels
from pivotsmt.ngramlm import read_arpa, train_kn, write_arpa
from pivotsmt.phrasetab import PhraseEntry, PhraseTable, read_moses, write_moses
from pivotsmt.pipeline import ExperimentConfig
from pivotsmt.translit import WordPairCorpus, read_char_model, read_mined_pairs

# Fragments of the file grammars, so that generated text gets past the
# first line often enough to reach the value checks.
_FRAGMENTS = st.sampled_from([
    "\\data\\", "ngram 1=1", "ngram 2=2", "\\1-grams:", "\\2-grams:", "\\end\\",
    " ||| ", "\t", ",", "\n", "\r\n", " ", "=", "-0.5", "0.25", "1", "nan", "inf",
    "-inf", "1e999", "a", "b c", "<unk>", "<null>", "lm", "wikipedia", "helpful",
])
# Well-formed files with arbitrary values in every number slot.
_VALUE = st.one_of(st.sampled_from(["-0.5", "0", "nan", "inf", "-inf", "1e999"]),
                   st.text(max_size=4))
_MOSES = "a ||| b ||| {} {} {} {}\n"
_ARPA = "\\data\\\nngram 1=2\n\n\\1-grams:\n{}\t<unk>\n{}\ta\t{}\n\n\\end\\\n"
_FILLED = st.one_of(
    st.tuples(*[_VALUE] * 4).map(lambda v: _MOSES.format(*v)),
    st.tuples(*[_VALUE] * 3).map(lambda v: _ARPA.format(*v)),
    _VALUE.map("a\tb\t{}\n".format),  # table, word pairs, mined pairs, dictionary
    _VALUE.map("lm\t{}\n".format),  # weights
    _VALUE.map("1,j1,{}\n".format),  # manual labels
)
_TEXT = st.one_of(
    st.text(),
    st.lists(st.one_of(_FRAGMENTS, st.text(max_size=3)), max_size=40).map("".join),
    _FILLED,
)

# Every converted reader, how it is given its input and the numbers it parsed.
_READERS = [
    (read_moses, ("handle", "lines"), lambda t: [x for e in t for x in e.scores()]),
    (read_arpa, ("handle", "lines"),
     lambda m: [*m.logprobs.values(), *m.backoffs.values(), m.unk_logprob]),
    (read_table, ("handle", "lines"),
     lambda t: [p for row in t.probs.values() for p in row.values()]),
    (lambda path: read_weights(path, 1), ("path",), lambda m: list(m.weights.values())),
    (read_dictionary_tsv, ("handle", "lines"), lambda entries: []),
    (WordPairCorpus.from_tsv, ("handle", "lines"), lambda c: [w for _, _, w in c.pairs]),
    (read_mined_pairs, ("handle", "lines"), lambda pairs: [p.posterior for p in pairs]),
    (read_manual_labels, ("handle", "lines"), lambda labels: []),
]


def _written(write, obj, directory: str) -> list:
    """What `write` produced, as a path, an open handle and a list of lines."""
    path = os.path.join(directory, "out")
    write(obj, path)
    buf = io.StringIO()
    write(obj, buf)
    buf.seek(0)
    return [path, buf, buf.getvalue().splitlines(keepends=True)]


def _dumps(write, obj) -> str:
    buf = io.StringIO()
    write(obj, buf)
    return buf.getvalue()


@settings(deadline=None)
@given(_TEXT)
def test_arbitrary_text_parses_or_raises_data_error(text):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "in")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        for read, forms, values in _READERS:
            sources = {"path": path, "handle": io.StringIO(text),
                       "lines": text.splitlines(keepends=True)}
            for form in forms:
                try:
                    parsed = read(sources[form])
                except DataError:
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


_PHRASE = st.lists(st.sampled_from(["a", "b", "ab", "ÿ", "x"]),
                   min_size=1, max_size=3).map(tuple)
_SCORES = st.tuples(*[st.floats(0.0, 1.0)] * 4)


@settings(deadline=None)
@given(st.dictionaries(st.tuples(_PHRASE, _PHRASE), _SCORES, min_size=1, max_size=12))
def test_moses_write_read_round_trip(entries):
    table = PhraseTable()
    for (source, target), scores in entries.items():
        table.add(PhraseEntry(source, target, *scores))
    text = _dumps(write_moses, table)
    with tempfile.TemporaryDirectory() as directory:
        for src in _written(write_moses, table, directory):
            back = read_moses(src)
            assert len(back) == len(table)
            assert _dumps(write_moses, back) == text


@settings(deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=6),
                min_size=1, max_size=6),
       st.integers(1, 3))
def test_arpa_write_read_round_trip(corpus, order):
    model = train_kn(corpus, order)
    text = _dumps(write_arpa, model)
    with tempfile.TemporaryDirectory() as directory:
        for src in _written(write_arpa, model, directory):
            back = read_arpa(src)
            assert back.order == order
            assert back.vocab == model.vocab
            assert _dumps(write_arpa, back) == text
