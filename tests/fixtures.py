"""Seeded tri-lingual toy fixtures for pipeline and acceptance tests.

Language A and language B are word-bijective (a<i> <-> b<i>); baseline
training data covers only the low part of the vocabulary, test data mixes
in held-out words, and synthetic/dictionary data covers what the baseline
misses.

Also the helpers that pick and check corpus.forked_map's path, one that
hands a reader its input as a file, and a character model whose k-best
list holds an empty string.
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import tempfile
from unittest import mock

import pytest

from pivotsmt import corpus, translit

# forked_map maps in this process alone with one usable CPU, and forks with more
PATHS = pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "forked"])


@contextlib.contextmanager
def usable_cpus(cpus: int):
    """Patch forked_map's CPU probe to read `cpus`; yields a list that
    gains one entry per os.fork."""
    forks: list[int] = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    with mock.patch.object(corpus, "_usable_cpus", return_value=cpus), \
            mock.patch.object(os, "fork", counted_fork):
        yield forks


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the body, instead of hanging, after `seconds`;
    a forked child does not inherit the alarm."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def log_lines(caplog):
    """(logger, level, message) of every record caplog holds, in order."""
    return [(r.name, r.levelno, r.getMessage()) for r in caplog.records]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def read_file(read, text, name: str = "in"):
    """`read(path)` of a temporary UTF-8 file called `name` that holds `text`:
    a string, written as it is, or a list of lines, each ended by a `\\n`."""
    if not isinstance(text, str):
        text = "".join(f"{line}\n" for line in text)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return read(path)


def deleting_char_model():
    """A character model that deletes "h" with probability 0.6 and writes
    it as "H" with 0.4: the 10-best of "h" are "H" (log10 score -0.543)
    and the empty string (-1.336), which no token may be."""
    lm = translit.CharTrigramModel()
    lm.observe("H")
    return translit.CharModel(ops={"h": {"": 0.6, "H": 0.4}}, src_chars=frozenset("h"),
                              tgt_lm=lm)


def _sentence(rng, indices, min_len=3, max_len=8):
    return [rng.choice(indices) for _ in range(rng.randint(min_len, max_len))]


def make_experiment_fixture(
    directory: str,
    seed: int = 0,
    vocab: int = 50,
    covered: int = 35,
    n_train: int = 2000,
    n_synth: int = 600,
    n_test: int = 200,
    n_dev: int = 50,
):
    """Write corpus files and return their paths.

    Baseline training sentences use word indices [0, covered); test/dev
    sentences draw from the whole vocabulary, so indices [covered, vocab)
    are out of vocabulary for the baseline system. Synthetic data and the
    dictionary cover the full vocabulary.
    """
    rng = random.Random(seed)
    os.makedirs(directory, exist_ok=True)
    low = list(range(covered))
    full = list(range(vocab))
    high_heavy = list(range(covered, vocab)) * 2 + low

    def a_word(i):
        return f"a{i:02d}"

    def b_word(i):
        return f"b{i:02d}"

    def write_pair_file(name, sentences):
        a_path = os.path.join(directory, f"{name}.a")
        b_path = os.path.join(directory, f"{name}.b")
        with open(a_path, "w", encoding="utf-8") as a_handle, \
                open(b_path, "w", encoding="utf-8") as b_handle:
            for sent in sentences:
                a_handle.write(" ".join(a_word(i) for i in sent) + "\n")
                b_handle.write(" ".join(b_word(i) for i in sent) + "\n")
        return a_path, b_path

    paths = {}
    paths["train"] = write_pair_file(
        "train", [_sentence(rng, low) for _ in range(n_train)])
    paths["synth"] = write_pair_file(
        "synth", [_sentence(rng, high_heavy) for _ in range(n_synth)])
    paths["test"] = write_pair_file(
        "test", [_sentence(rng, full) for _ in range(n_test)])
    paths["dev"] = write_pair_file(
        "dev", [_sentence(rng, full) for _ in range(n_dev)])

    dict_path = os.path.join(directory, "dict.tsv")
    with open(dict_path, "w", encoding="utf-8") as handle:
        for i in range(covered, vocab):
            handle.write(f"{a_word(i)}\t{b_word(i)}\twikipedia\n")
    paths["dict"] = dict_path
    return paths


def write_config(path: str, work_dir: str, paths: dict, direction: str = "ab",
                 **overrides) -> str:
    """Write an experiment config translating A->B (or B->A with "ba")."""
    src, tgt = (0, 1) if direction == "ab" else (1, 0)
    values = {
        "work_dir": work_dir,
        "train_src": paths["train"][src],
        "train_tgt": paths["train"][tgt],
        "test_src": paths["test"][src],
        "test_tgt": paths["test"][tgt],
        "synth_src": paths["synth"][src],
        "synth_tgt": paths["synth"][tgt],
        "dict_tsv": paths["dict"] if direction == "ab" else "",
        "label": direction,
        "em_iterations": 3,
        "lm_order": 3,
        "max_phrase_len": 3,
        "option_limit": 10,
        "stack_size": 20,
        "seed": 7,
    }
    values.update(overrides)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# generated test fixture config\n")
        for key, value in values.items():
            if value != "":
                handle.write(f"{key} = {value}\n")
    return path
