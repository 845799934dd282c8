"""Every public module-level function and class of the package has a caller.

A name counts as used when the package or the benchmark harness refers to it
(by a bare name, an attribute or an import) outside its own definition; the
tests alone do not count, so code that only tests reach is found here.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pivotsmt"

# Public names that stay without a caller, each with its reason.
ALLOWED = {
    "ErrorProfile": "criterion 11 checks the paper's error-profile percentages",
    "read_table": "the only guard of the t-table format `align --dump-tables` writes",
    "read_mined_pairs": "the only guard of the format `mine-translit --pairs-out` writes",
}


def _definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _uses(tree, skip=None):
    """Every name `tree` refers to, leaving out the subtree `skip`."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _trees(directory):
    return {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(directory.glob("*.py"))}


def test_every_public_name_has_a_caller():
    package = _trees(PACKAGE)
    trees = {**package, **_trees(ROOT / "perfbench")}
    unused = set()
    for path, tree in package.items():
        used = set().union(*(_uses(other) for key, other in trees.items() if key != path))
        unused.update(node.name for node in _definitions(tree)
                      if node.name not in used | _uses(tree, skip=node))
    # an allowed name that is gone or has gained a caller fails too
    assert unused == set(ALLOWED)
