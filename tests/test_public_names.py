"""Every public module-level function and class of the package has a caller,
and every defaulted parameter of a package function or method is passed.

A name counts as used when the package or the benchmark harness refers to it
(by a bare name, an attribute or an import) outside its own definition, and a
parameter when a call there passes it; the tests alone do not count, so code
and options that only tests reach are found here.
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

# Defaulted parameters that stay without a call passing them, each with its reason.
ALLOWED_DEFAULTS = {
    "main(argv)": "the console entry point passes nothing, so argparse reads sys.argv",
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


def _defaulted(tree):
    """(called name, parameter, position or None) of every defaulted parameter
    of a function or method in `tree`. A method's position leaves out its
    self or cls, and __init__ is called by its class's name."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                bound = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list)
                name = cls.name if cls is not None and child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                found.extend((name, arg.arg, k - bound)
                             for k, arg in enumerate(positional[first:], start=first))
                found.extend((name, arg.arg, None)
                             for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                             if default is not None)
                visit(child, None)

    visit(tree, None)
    return found


def _passed(trees):
    """(called name, keyword, None) and (called name, None, position) of every
    argument some call in `trees` passes; a `**` splat is keyword None and a
    `*` splat (name, "*", position)."""
    passed = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                passed.update((name, "*" if isinstance(arg, ast.Starred) else None, k)
                              for k, arg in enumerate(node.args))
                passed.update((name, kw.arg, None) for kw in node.keywords)
    return passed


def test_every_defaulted_parameter_is_passed():
    package = _trees(PACKAGE)
    passed = _passed([*package.values(), *_trees(ROOT / "perfbench").values()])
    unpassed = set()
    for tree in package.values():
        for name, param, pos in _defaulted(tree):
            if {(name, param, None), (name, None, None)} & passed:
                continue
            if pos is not None and ((name, None, pos) in passed or any(
                    (name, "*", k) in passed for k in range(pos + 1))):
                continue
            unpassed.add(f"{name}({param})")
    # an allowed parameter that is gone or is now passed fails too
    assert unpassed == set(ALLOWED_DEFAULTS)
