"""Every module-level function and class in src/taubench has a caller there,
and every function the benchmark's tracer hooks still exists.

Code that only the tests call lives in the tests, as an oracle next to the
assertions that use it, so src/ holds what the CLI and the suite run.  The
tracer (perfbench/tracer.py) names its hooks as strings, so a rename in src/
would silently drop a layer's timings; the hook test reads those names.
"""

import ast
import collections
import importlib
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "taubench"

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
    assert unreferenced_definitions(SRC) == []


def test_the_guard_sees_an_unused_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "class Orphan:\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import used\n")
    assert unreferenced_definitions(tmp_path) == [("a.py", "recursive"), ("a.py", "Orphan")]


TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_hooks() -> list[tuple[str, ...]]:
    """(module, name) for each LAYERS and TALLIES entry and (module, class,
    method) for each COUNTED_METHODS entry of perfbench/tracer.py, read with
    ast so the benchmark is neither imported nor run."""
    tables = {
        node.targets[0].id: node.value
        for node in ast.parse(TRACER.read_text()).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    layers = ast.literal_eval(tables["LAYERS"])
    hooks = [(module, name) for module, names in layers.items() for name in names]
    for table in ("TALLIES", "COUNTED_METHODS"):
        hooks += [ast.literal_eval(key) for key in tables[table].keys]
    return hooks


def missing_hooks(hooks) -> list[tuple[str, ...]]:
    """The hooks whose function, class or method taubench does not define."""
    missing = []
    for module, *path in hooks:
        owner = importlib.import_module(module)
        for name in path[:-1]:
            owner = getattr(owner, name, None)
        # a method must be the class's own, not one inherited from object
        names = vars(owner) if isinstance(owner, type) else dir(owner)
        if path[-1] not in names:
            missing.append((module, *path))
    return missing


def test_every_tracer_hook_exists():
    hooks = tracer_hooks()
    assert hooks
    assert missing_hooks(hooks) == []


def test_the_hook_guard_sees_a_missing_name():
    hooks = [
        ("taubench.schur", "kp_checks"),
        ("taubench.schur", "hirota_apply"),
        ("taubench.exact", "TruncatedSeries", "__mul__"),
        ("taubench.exact", "TruncatedSeries", "__init_subclass__"),
        ("taubench.exact", "MaskedSeries", "__mul__"),
    ]
    assert missing_hooks(hooks) == hooks[1:2] + hooks[3:]
