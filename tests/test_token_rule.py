"""The token rule has one home: corpus.bad_token.

A token of a file the package reads or writes is non-empty and holds no
whitespace, `|||` is never one, and a language-model marker is never a
table target or a language-model word. Every reader, writer and trainer
asks corpus.bad_token; a module that spelled the test out again, or kept
its own tuple of markers, could drift from it, as such copies once did
when an empty transliteration reached a phrase table.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "pivotsmt"
HOME = "corpus.py"

# ways to spell "empty, or holds whitespace"
SPELLINGS = (".split() != [", "isspace")
# the markers and the field separator, by name and by value
MARKERS = {"BOS", "EOS", "UNK", "FIELD_SEP", "<s>", "</s>", "<unk>", "|||"}


def spelled_tests():
    """(module, spelling) of each way a module spells the token test."""
    return {(path.name, spelling) for path in sorted(PACKAGE.glob("*.py"))
            for spelling in SPELLINGS if spelling in path.read_text(encoding="utf-8")}


def marker_tuples():
    """(module, line) of each tuple, list or set display of two or more markers."""
    def is_marker(node):
        return ((isinstance(node, ast.Name) and node.id in MARKERS)
                or (isinstance(node, ast.Constant) and node.value in MARKERS))

    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (isinstance(node, (ast.Tuple, ast.List, ast.Set))
                    and sum(map(is_marker, node.elts)) >= 2):
                found.add((path.name, node.lineno))
    return found


def test_only_corpus_spells_the_token_test():
    spelled = spelled_tests()
    assert (HOME, ".split() != [") in spelled  # the rule itself, so the search can see one
    assert {module for module, _ in spelled} == {HOME}


def test_only_corpus_lists_the_markers():
    found = marker_tuples()
    assert any(module == HOME for module, _ in found)  # LM_RESERVED
    assert {module for module, _ in found} == {HOME}
