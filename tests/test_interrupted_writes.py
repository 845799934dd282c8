"""An interrupted write leaves the file it was to replace, or none.

Every line-format writer goes through corpus.write_lines and the character
model through corpus.replacing: the text goes to a temporary file beside
the destination, which replaces the destination only once it is complete.
"""

import itertools
import os
import stat
import threading

import pytest

from pivotsmt import align, corpus, decoder, ngramlm, phrasetab, translit
from pivotsmt.corpus import replacing, write_lines

from fixtures import deleting_char_model

OLD = b"the old text\n"


def cut_after(lines, n):
    """The first n lines, then the interrupt that Ctrl-C raises."""
    yield from itertools.islice(lines, n)
    raise KeyboardInterrupt


def cutting(monkeypatch, module, n=1):
    """Make `module`'s writers hand write_lines a generator cut after n lines."""
    def write(dest, lines):
        return corpus.write_lines(dest, cut_after(lines, n))
    monkeypatch.setattr(module, "write_lines", write)


def table():
    out = phrasetab.PhraseTable()
    for source, target in [("a", "x"), ("a", "y"), ("b", "z")]:
        out.add(phrasetab.PhraseEntry((source,), (target,), 0.5, 0.5, 0.5, 0.5))
    return out


def t_table():
    return align.TranslationTable(probs={"a": {"x": 0.5, "y": 0.5}, "b": {"z": 1.0}})


# each writer, its module, and a call that writes more than one line to a path
WRITERS = {
    "write_moses": (phrasetab, lambda path: phrasetab.write_moses(table(), path)),
    "write_arpa": (ngramlm, lambda path: ngramlm.write_arpa(
        ngramlm.train_kn([("a", "b"), ("b", "c")], 2), path)),
    "write_weights": (decoder, lambda path: decoder.write_weights(
        decoder.LogLinearModel.default(1), path)),
    "write_alignments": (align, lambda path: align.write_alignments(
        path, [align.AlignmentMatrix(1, 1, frozenset({(0, 0)}))] * 3)),
    "write_table": (align, lambda path: align.write_table(path, t_table())),
    "write_mined_pairs": (translit, lambda path: translit.write_mined_pairs(
        [translit.MinedPair("ab", "AB", 0.9), translit.MinedPair("ba", "BA", 0.8)], path)),
}


def leftovers(directory):
    return sorted(os.listdir(directory))


class TestWriteLines:
    @pytest.mark.parametrize("old", [None, OLD], ids=["new-file", "old-file"])
    def test_interrupted_leaves_old_file_or_none(self, tmp_path, old):
        path = tmp_path / "out.txt"
        if old is not None:
            path.write_bytes(old)
        with pytest.raises(KeyboardInterrupt):
            write_lines(str(path), cut_after(iter(["a", "b", "c"]), 2))
        if old is None:
            assert leftovers(tmp_path) == []
        else:
            assert leftovers(tmp_path) == ["out.txt"]
            assert path.read_bytes() == old

    def test_complete_write_replaces_the_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(OLD)
        write_lines(str(path), ["a", "b"])
        assert path.read_bytes() == b"a\nb\n"
        assert leftovers(tmp_path) == ["out.txt"]

    def test_replaced_file_keeps_its_permission_bits(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(OLD)
        os.chmod(path, 0o640)
        write_lines(str(path), ["a"])
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640

    def test_a_symlink_keeps_naming_its_file(self, tmp_path):
        (tmp_path / "real.txt").write_bytes(OLD)
        os.symlink("real.txt", tmp_path / "link.txt")
        write_lines(str(tmp_path / "link.txt"), ["a"])
        assert os.path.islink(tmp_path / "link.txt")
        assert (tmp_path / "real.txt").read_bytes() == b"a\n"
        assert leftovers(tmp_path) == ["link.txt", "real.txt"]

    def test_missing_directory_names_the_destination(self, tmp_path):
        path = str(tmp_path / "no" / "out.txt")
        with pytest.raises(FileNotFoundError) as info:
            write_lines(path, ["a"])
        assert info.value.filename == path

    def test_a_fifo_is_written_in_place(self, tmp_path):
        """A destination that is not a regular file, such as a pipe, cannot be
        replaced, so its reader gets the lines as they are written."""
        path = tmp_path / "pipe"
        os.mkfifo(path)
        got = []
        reader = threading.Thread(target=lambda: got.append(path.read_bytes()), daemon=True)
        reader.start()
        try:
            write_lines(str(path), ["a", "b"])
        finally:
            reader.join(timeout=10)
        assert got == [b"a\nb\n"]
        assert stat.S_ISFIFO(os.stat(path).st_mode)
        assert leftovers(tmp_path) == ["pipe"]


@pytest.mark.parametrize("name", sorted(WRITERS))
@pytest.mark.parametrize("old", [None, OLD], ids=["new-file", "old-file"])
def test_interrupted_writer_leaves_old_file_or_none(monkeypatch, tmp_path, name, old):
    module, write = WRITERS[name]
    path = tmp_path / "out"
    write(str(path))  # the writer writes more than the one line it is cut after
    assert len(path.read_bytes().splitlines()) > 1
    os.remove(path)
    if old is not None:
        path.write_bytes(old)
    cutting(monkeypatch, module)
    with pytest.raises(KeyboardInterrupt):
        write(str(path))
    assert leftovers(tmp_path) == ([] if old is None else ["out"])
    if old is not None:
        assert path.read_bytes() == old


@pytest.mark.parametrize("old", [None, OLD], ids=["new-file", "old-file"])
def test_interrupted_char_model_leaves_old_file_or_none(monkeypatch, tmp_path, old):
    path = tmp_path / "char.json"
    if old is not None:
        path.write_bytes(old)

    def dump(data, handle, **kwargs):
        handle.write('{"lambda": ')
        raise KeyboardInterrupt
    monkeypatch.setattr(translit.json, "dump", dump)
    with pytest.raises(KeyboardInterrupt):
        translit.write_char_model(deleting_char_model(), str(path))
    assert leftovers(tmp_path) == ([] if old is None else ["char.json"])
    if old is not None:
        assert path.read_bytes() == old


def test_char_model_replaces_the_file(tmp_path):
    path = tmp_path / "char.json"
    path.write_bytes(OLD)
    translit.write_char_model(deleting_char_model(), str(path))
    back = translit.read_char_model(str(path))
    assert back.ops == deleting_char_model().ops
    assert leftovers(tmp_path) == ["char.json"]


def test_replacing_an_exception_after_writing_removes_the_temporary_file(tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(ValueError, match="^late$"):
        with replacing(str(path)) as handle:
            handle.write("all of it\n")
            raise ValueError("late")
    assert leftovers(tmp_path) == []
