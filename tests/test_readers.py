"""Properties of the Moses and ARPA readers.

Arbitrary text either parses or raises DataError, and whatever the writers
produce reads back to the same text through a path, a handle or a list of
lines.
"""

import io
import math
import os
import tempfile

from hypothesis import given, settings, strategies as st

from pivotsmt.errors import DataError
from pivotsmt.ngramlm import read_arpa, train_kn, write_arpa
from pivotsmt.phrasetab import PhraseEntry, PhraseTable, read_moses, write_moses

# Fragments of both file grammars, so that generated text gets past the
# first line often enough to reach the value checks.
_FRAGMENTS = st.sampled_from([
    "\\data\\", "ngram 1=1", "ngram 2=2", "\\1-grams:", "\\2-grams:", "\\end\\",
    " ||| ", "\t", "\n", "\r\n", " ", "=", "-0.5", "0.25", "1", "nan", "inf",
    "-inf", "1e999", "a", "b c", "<unk>",
])
# Well-formed files with arbitrary values in every number slot.
_VALUE = st.one_of(st.sampled_from(["-0.5", "0", "nan", "inf", "-inf", "1e999"]),
                   st.text(max_size=4))
_MOSES = "a ||| b ||| {} {} {} {}\n"
_ARPA = "\\data\\\nngram 1=2\n\n\\1-grams:\n{}\t<unk>\n{}\ta\t{}\n\n\\end\\\n"
_FILLED = st.one_of(
    st.tuples(*[_VALUE] * 4).map(lambda v: _MOSES.format(*v)),
    st.tuples(*[_VALUE] * 3).map(lambda v: _ARPA.format(*v)),
)
_TEXT = st.one_of(
    st.text(),
    st.lists(st.one_of(_FRAGMENTS, st.text(max_size=3)), max_size=40).map("".join),
    _FILLED,
)


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


def _values(parsed) -> list[float]:
    if isinstance(parsed, PhraseTable):
        return [x for entry in parsed for x in entry.scores()]
    return [*parsed.logprobs.values(), *parsed.backoffs.values(), parsed.unk_logprob]


@settings(deadline=None)
@given(_TEXT)
def test_arbitrary_text_parses_or_raises_data_error(text):
    for read in (read_moses, read_arpa):
        for src in (io.StringIO(text), text.splitlines(keepends=True)):
            try:
                parsed = read(src)
            except DataError:
                continue
            assert all(math.isfinite(x) for x in _values(parsed))


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
