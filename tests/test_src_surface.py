"""Every module-level function and class in src/taubench has a caller there.

Code that only the tests call lives in the tests, as an oracle next to the
assertions that use it, so src/ holds what the CLI and the suite run.
"""

import ast
import collections
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "taubench"

# ROADMAP item 5 (the GL_infinity orbit of 1) gives the vertex operator its
# src/ caller, the fermionic route to Grassmannian tau-functions
EXEMPT = {("fock.py", "vertex_operator_apply")}


def referenced_names(node) -> collections.Counter:
    """Bare names, attribute names and imported names used under node."""
    names = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
    return names


def unreferenced_definitions(src: pathlib.Path) -> list[tuple[str, str]]:
    """(file, name) of each module-level def or class that no src/ code
    names outside its own body."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    everywhere = sum((referenced_names(tree) for tree in trees.values()), collections.Counter())
    return [
        (file, node.name)
        for file, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and everywhere[node.name] == referenced_names(node)[node.name]
    ]


def test_no_test_only_definitions_in_src():
    assert [entry for entry in unreferenced_definitions(SRC) if entry not in EXEMPT] == []


def test_the_guard_sees_an_unused_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "class Orphan:\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import used\n")
    assert unreferenced_definitions(tmp_path) == [("a.py", "recursive"), ("a.py", "Orphan")]
