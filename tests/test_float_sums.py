"""Every float sum in the package goes through corpus.ltr_sum.

From Python 3.12 on the builtin `sum` compensates float rounding, so a float
sum through it can write different artifact bytes under different
interpreters. The builtin may stay only where it adds integers; each such
use is listed here by module and enclosing definition.
"""

import ast
import collections
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "pivotsmt"

# (module, enclosing definition): builtin `sum` uses there, each of integers
INTEGER_SUMS = {
    ("align.py", "train_model1"): 1,  # n_cells: co-occurrence cells per conditioning row
    ("corpus.py", "count_oov"): 1,  # out-of-vocabulary tokens
    ("corpus.py", "ltr_sum"): 1,  # the helper itself, which adds left to right before 3.12
    ("evalkit.py", "sentence_stats"): 1,  # clipped n-gram matches
    ("evalkit.py", "ManualTally.total"): 1,  # judgment counts
    ("ngramlm.py", "train_kn"): 2,  # n-gram counts, made float after the sum
    ("phrasetab.py", "PhraseTable.__len__"): 1,  # phrase pairs
}


def builtin_sums():
    """(module, enclosing definition) of every reference to the name `sum`."""
    found = collections.Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(ast.parse(path.read_text(encoding="utf-8"), str(path)), "")]
        while stack:
            node, scope = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}" if scope else node.name
            if isinstance(node, ast.Name) and node.id == "sum":
                found[(path.name, scope)] += 1
            stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    return found


def test_float_sums_go_left_to_right():
    # a listed use that is gone or moved fails too, so the list stays exact
    assert dict(builtin_sums()) == INTEGER_SUMS
