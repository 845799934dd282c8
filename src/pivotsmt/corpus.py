"""Text ingestion, tokenization, parallel corpora and dictionaries.

All text is Unicode; corpora on disk are UTF-8, one tokenized sentence per
line, with line i of the source file aligned to line i of the target file.
A parallel corpus in memory is a list of TokenPair.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
import os
import pickle
import re
import sys
import threading
import unicodedata
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, Iterator, NoReturn, Sequence, TextIO, TypeVar

from .errors import DataError

logger = logging.getLogger(__name__)

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

DICTIONARY_SOURCES = ("wikipedia", "wiktionary", "omegawiki", "mesh")
TOKENIZE_SCHEMES = ("unicode-punct", "whitespace")

DEFAULT_MAX_SENT_LEN = 80

FIELD_SEP = "|||"  # separates the fields of a phrase-table line, so never a token
LM_RESERVED = (FIELD_SEP, BOS, EOS, UNK)  # tokens no language-model corpus line may hold

TokenPair = tuple[Sequence[str], Sequence[str]]  # (source tokens, target tokens)

_SUM_COMPENSATES = sys.version_info >= (3, 12)

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


@dataclass(frozen=True)
class DictionaryEntry:
    """A mined term pair with its originating source."""

    source: tuple[str, ...]
    target: tuple[str, ...]
    provenance: str

    def __post_init__(self) -> None:
        if not self.source or not self.target:
            raise ValueError("dictionary entry sides must be non-empty")
        if self.provenance not in DICTIONARY_SOURCES:
            raise ValueError(f"unknown dictionary provenance: {self.provenance!r}")


def tokenize(raw_line: str, scheme: str = "unicode-punct",
             lowercase: bool = False) -> list[str]:
    """Split a line into tokens.

    Punctuation characters (Unicode general category P) are separated from
    adjacent word characters before whitespace splitting; the "whitespace"
    scheme skips the punctuation pass. Case is kept by default (folding is
    an experiment variable and caseless scripts pass through unchanged).
    """
    if scheme not in TOKENIZE_SCHEMES:
        raise ValueError(f"unknown tokenization scheme: {scheme!r}")
    if lowercase:
        raw_line = raw_line.lower()
    if scheme == "whitespace":
        return raw_line.split()
    out: list[str] = []
    for ch in raw_line:
        if unicodedata.category(ch).startswith("P"):
            out.append(" ")
            out.append(ch)
            out.append(" ")
        else:
            out.append(ch)
    return "".join(out).split()


def read_lines(path: str) -> list[str]:
    """Read UTF-8 lines; a bad byte sequence reports its line number."""
    lines = []
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                lines.append(raw.decode("utf-8").rstrip("\n").rstrip("\r"))
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid UTF-8 ({exc})") from exc
    return lines


def write_lines(dest: str | TextIO, lines: Iterable[str]) -> None:
    """Write each line and a `\\n` to a path, opened as UTF-8 and closed, or to an
    open handle, left open; the one writer of every line-format file."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8", newline="\n") as handle:
            write_lines(handle, lines)
        return
    for line in lines:
        dest.write(line)
        dest.write("\n")


def records(path: str, sep: str | None = "\t",
            widths: Sequence[int] = (3,)) -> Iterator[tuple[str, list[str]]]:
    """Yield (`path:lineno`, fields) for every non-blank line of a line-record file.

    The file is read through read_lines, so a bad byte is a DataError at its
    line. A `sep` of None splits on runs of whitespace. A line whose field
    count is not in `widths` is a DataError.
    """
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        fields = line.split(sep)
        if len(fields) not in widths:
            expected = " or ".join(map(str, widths))
            raise DataError(f"{where}: expected {expected} "
                            f"{repr(sep) if sep else 'whitespace'}-separated fields, "
                            f"got {len(fields)}")
        yield where, fields


def number(text: str, where: str, what: str, nonneg: bool = False,
           prob: bool = False) -> float:
    """`text` as a finite float, else a DataError at `where`.

    `nonneg` also rejects a negative value; `prob` rejects one outside [0, 1].
    """
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if prob and math.isfinite(value) and not 0.0 <= value <= 1.0:
        raise DataError(f"{where}: {what} {text!r} is not a probability in [0, 1]")
    if not math.isfinite(value) or (nonneg and value < 0.0):
        kind = "finite non-negative" if nonneg else "finite"
        raise DataError(f"{where}: {what} {text!r} is not a {kind} number")
    return value


def ltr_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum, the same bits on every interpreter.

    From Python 3.12 on the builtin `sum` compensates rounding, so there
    the additions go one by one through functools.reduce. Before 3.12 the
    builtin adds left to right itself, about four times as fast.
    """
    if _SUM_COMPENSATES:
        return functools.reduce(operator.add, values, 0.0)
    return sum(values, 0.0)


def _tokens_of(text: str, where: str, reserved: Sequence[str] = (FIELD_SEP,)) -> tuple[str, ...]:
    """The whitespace tokens of `text`; a `reserved` token is a DataError at
    `where`: `|||` because no phrase table could hold a phrase with it, a
    language-model marker because the model adds its own."""
    tokens = tuple(text.split())
    for token in reserved:
        if token in tokens:
            what = ("the phrase-table field separator" if token == FIELD_SEP
                    else "a reserved language-model marker")
            raise DataError(f"{where}: the token {token!r} is {what}")
    return tokens


def read_sentences(path: str, reserved: Sequence[str] = (FIELD_SEP,)) -> list[tuple[str, ...]]:
    """The tokens of every line of a path; a `reserved` token is a DataError
    at its line (LM_RESERVED for a language-model corpus)."""
    return [_tokens_of(line, f"{path}:{lineno}", reserved)
            for lineno, line in enumerate(read_lines(path), start=1)]


def read_parallel(source: str | Iterable[str], target: str | Iterable[str]) -> list[TokenPair]:
    """Token pairs of two line-aligned inputs, line i of one with line i of the other.

    Each input is a path, read through read_lines, or a list of lines.
    Unequal line counts are a DataError naming both inputs and both counts,
    and a `|||` token one naming its input and line.
    """
    (src_name, src_lines), (tgt_name, tgt_lines) = [
        (side, read_lines(side)) if isinstance(side, str) else (name, list(side))
        for name, side in (("source", source), ("target", target))]
    if len(src_lines) != len(tgt_lines):
        raise DataError(f"line count mismatch: {src_name} has {len(src_lines)} lines, "
                        f"{tgt_name} has {len(tgt_lines)} lines")
    return [(_tokens_of(s, f"{src_name}:{lineno}"), _tokens_of(t, f"{tgt_name}:{lineno}"))
            for lineno, (s, t) in enumerate(zip(src_lines, tgt_lines), start=1)]


def within_length(pairs: Sequence[TokenPair], max_len: int) -> list[TokenPair]:
    """The pairs whose two sides have at most max_len tokens; the number
    dropped is logged."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    kept = [(src, tgt) for src, tgt in pairs if len(src) <= max_len and len(tgt) <= max_len]
    if len(kept) < len(pairs):
        logger.info("ingest: dropped %d pairs over %d tokens", len(pairs) - len(kept), max_len)
    return kept


def ingest_bitext(source: str | Iterable[str], target: str | Iterable[str],
                  max_len: int = DEFAULT_MAX_SENT_LEN) -> list[TokenPair]:
    """The pairs of two pre-tokenized line-aligned inputs (see read_parallel)
    that are within_length of max_len."""
    return within_length(read_parallel(source, target), max_len)


def read_dictionary_tsv(path: str) -> list[DictionaryEntry]:
    """Parse the `source<TAB>target<TAB>provenance` lines of a file; a `|||`
    token is a DataError at its line, as in read_parallel."""
    entries = []
    for where, (source, target, provenance) in records(path):
        try:
            entries.append(DictionaryEntry(_tokens_of(source, where), _tokens_of(target, where),
                                           provenance.strip()))
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from exc
    return entries


def count_oov(sentences: Iterable[Sequence[str]], known: Iterable[str]) -> int:
    """Count tokens not present in the known-word set."""
    known_set = set(known)
    return sum(1 for sent in sentences for tok in sent if tok not in known_set)


# --- Simplified wiki language-link extraction -------------------------------
#
# Page file format (`pivotsmt dict-links --pages`): pages are concatenated in
# one file, each introduced by a header line `== <title>`; everything until
# the next header is page text. Only inter-language links of the form
# [[code:title]] are interpreted, and each becomes a `wikipedia` entry.

# a link opening, its text up to the next `[[` or `]]`, and its closing if that is `]]`
_LINK = re.compile(r"\[\[((?:(?!\[\[|\]\]).)*)(\]\])?", re.S)
_LANG_CODE = re.compile(r"[A-Za-z][A-Za-z-]*")


def parse_wiki_pages(lines: Iterable[str], name: str) -> list[tuple[str, str]]:
    """Split a concatenated page file into (title, body) chunks; an untitled header
    is a DataError at its line."""
    pages: list[tuple[str, str]] = []
    title = None
    body: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        if line.startswith("== "):
            if title is not None:
                pages.append((title, "\n".join(body)))
            title = line[3:].strip()
            if not title:
                raise DataError(f"{name}:{lineno}: page header has no title")
            body = []
        elif title is not None:
            body.append(line)
    if title is not None:
        pages.append((title, "\n".join(body)))
    return pages


def extract_language_links(
    title: str, page_text: str, target_lang: str
) -> tuple[list[DictionaryEntry], int]:
    """Scan one page for [[target_lang:title]] links.

    Returns the deduplicated entries plus the count of malformed link
    candidates (unclosed markup, a bad language code or an empty title);
    malformed links are skipped, never fatal.
    """
    entries: list[DictionaryEntry] = []
    seen: set[str] = set()
    malformed = 0
    for link in _LINK.finditer(page_text):
        inner, closed = link.groups()
        code, colon, linked = inner.partition(":")  # no colon: a plain page link
        linked = linked.strip()
        if not closed or (colon and not (_LANG_CODE.fullmatch(code) and linked)):
            malformed += 1
        elif colon and code == target_lang and linked not in seen:
            seen.add(linked)
            entries.append(
                DictionaryEntry(tuple(title.split()), tuple(linked.split()), "wikipedia")
            )
    return entries, malformed


def mine_language_links(path: str, target_lang: str) -> tuple[list[DictionaryEntry], int]:
    """Extract language links from every page of a concatenated page file."""
    all_entries: list[DictionaryEntry] = []
    malformed = 0
    for title, body in parse_wiki_pages(read_lines(path), path):
        entries, bad = extract_language_links(title, body, target_lang)
        all_entries.extend(entries)
        malformed += bad
    return all_entries, malformed


# --- Forked map --------------------------------------------------------------

def _usable_cpus() -> int:
    """CPUs that forked_map may use: 1 where forking is unsafe or unknown
    (no os.fork or os.sched_getaffinity, or another thread running)."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return len(os.sched_getaffinity(0))


def forked_map(fn: Callable[[_Item], _Result], items: Sequence[_Item]) -> list[_Result]:
    """`[fn(item) for item in items]`, spread over the usable CPUs.

    Share k of the items is `items[k::shares]`, one share per usable CPU and
    at most one per item, so a length-sorted input gives each share a like
    load. This process maps share 0; each later one is mapped in a child
    started with os.fork, which sends its outcome back pickled through a
    pipe. Every share, this process's too, maps its items in order until one
    raises, and keeps for each item mapped the log records it emitted and
    its result or exception. Once every child is reaped, this process goes
    through the items in input order: it hands each item's records to its
    handlers and returns the results, or raises the exception of the first
    item that failed. Results, log records and exception are therefore
    exactly a serial map's, and the records of an item after a failing one
    are never handled. A child that ends without an outcome fails at its
    share's first item with a ChildProcessError.
    """
    shares = max(1, min(_usable_cpus(), len(items)))
    if shares == 1:
        return [fn(item) for item in items]
    children: list[tuple[int, BinaryIO]] = []  # (pid, read end) of each later share
    try:
        for k in range(1, shares):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _map_in_child(fn, items[k::shares], write_end,
                              [read_end] + [pipe.fileno() for _, pipe in children])
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        outcomes = [_map_share(fn, items[0::shares])]
        payloads = [pipe.read() for _, pipe in children]
    finally:
        for _, pipe in children:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for payload, status in zip(payloads, statuses):
        outcomes.append(pickle.loads(payload) if payload else [(
            [], False, ChildProcessError(f"a forked share ended without a result "
                                         f"(wait status {status})"))])
    results = []
    for i in range(len(items)):
        log_records, ok, value = outcomes[i % shares][i // shares]
        for record in log_records:
            logging.getLogger(record.name).callHandlers(record)
        if not ok:
            raise value
        results.append(value)
    return results


_Outcome = tuple[list[logging.LogRecord], bool, object]  # (log records, ok, result or exception)


def _map_share(fn: Callable[[_Item], _Result], share: Sequence[_Item]) -> list[_Outcome]:
    """One outcome per item of `share`, mapped in order up to and including
    the first that raises. The log records that pass their logger's level
    and filters are kept with their item instead of handled, their messages
    formatted."""
    outcomes: list[_Outcome] = []
    buffered: list[logging.LogRecord] = []
    call_handlers = logging.Logger.callHandlers
    # patched for the whole process, which runs no other thread here (forked_map
    # maps in shares only when _usable_cpus finds none)
    logging.Logger.callHandlers = lambda _logger, record: buffered.append(record)
    try:
        for item in share:
            try:
                value, ok = fn(item), True
            except Exception as exc:  # raised in item order; an interrupt or exit goes at once
                value, ok = exc, False
            for record in buffered:
                record.msg, record.args = record.getMessage(), None
            outcomes.append((buffered[:], ok, value))
            buffered.clear()
            if not ok:
                break
    finally:
        logging.Logger.callHandlers = call_handlers
    return outcomes


def _map_in_child(fn: Callable[[_Item], _Result], share: Sequence[_Item], write_end: int,
                  read_ends: list[int]) -> NoReturn:
    """A forked child of forked_map: it maps its share, writes the outcomes
    to `write_end`, and exits without running any cleanup of the process it
    was copied from."""
    status = 1
    try:
        for fd in read_ends:  # else a parent that stopped reading leaves the write blocked
            os.close(fd)
        payload = pickle.dumps(_map_share(fn, share))
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)
