"""Every module-level function and class in src/taubench has a caller there,
and so does every non-dunder method of a class there whose bases are all
src/ classes; every record field there (of a dataclass, a NamedTuple or a
__slots__ class) is read there; every exception class is told apart from
its base; every memo is cleared for the planted faults of the acceptance
gate or listed with the reason none reads it; and every function the
benchmark's tracer hooks still exists.

Code that only the tests call lives in the tests, as an oracle next to the
assertions that use it, so src/ holds what the CLI and the suite run; a
field nothing in src/ reads is a second copy of a fact or a dead one, and
so is an exception class that no handler catches and no payload sets apart
from its base.  A memo filled before a fault is planted serves the sound
values, so a planted-fault test that does not clear it can pass for the
wrong reason.  The tracer (perfbench/tracer.py) names its hooks as
strings, so a rename in src/ would silently drop a layer's timings; the
hook test reads those names.
"""

import ast
import collections
import importlib
import pathlib

from test_acceptance import MEMOS, UNFAULTED_MEMOS

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


def parsed_modules(src: pathlib.Path) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


def unreferenced_definitions(src: pathlib.Path) -> list[tuple[str, str]]:
    """(file, name) of each module-level def or class that no src/ code
    names outside its own body."""
    trees = parsed_modules(src)
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


def base_name(node) -> str | None:
    """The class name a base expression ends in: Base or module.Base."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def uncalled_methods(src: pathlib.Path) -> list[tuple[str, str, str]]:
    """(file, class, method) of each non-dunder method of a src/ class with
    no outside base that no src/ code names outside the method's own body.
    A class with an outside base (Exception, NamedTuple, ...) is skipped:
    that base may call its methods."""
    trees = parsed_modules(src)
    everywhere = sum((referenced_names(tree) for tree in trees.values()), collections.Counter())
    classes = [
        (file, node)
        for file, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    ]
    ours = {node.name for _, node in classes}
    return [
        (file, node.name, stmt.name)
        for file, node in classes
        if all(base_name(base) in ours for base in node.bases)
        for stmt in node.body
        if isinstance(stmt, ast.FunctionDef)
        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
        and everywhere[stmt.name] == referenced_names(stmt)[stmt.name]
    ]


def test_no_test_only_methods_in_src():
    assert uncalled_methods(SRC) == []


def test_the_method_guard_sees_an_uncalled_method(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Base:\n"
        "    def used(self):\n        return self.helper()\n\n"
        "    def helper(self):\n        return 1\n\n"
        "    def recursive(self, n):\n        return self.recursive(n - 1) if n else 0\n\n"
        "    def __len__(self):\n        return 0\n\n\n"
        "class Child(Base):\n"
        "    @property\n"
        "    def size(self):\n        return 2\n\n"
        "    def orphan(self):\n        return 3\n\n\n"
        "class Failure(Exception):\n"
        "    def hook(self):\n        return 4\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import Child\n\n\n"
        "def run(child: Child):\n    return child.used() + child.size\n"
    )
    assert uncalled_methods(tmp_path) == [
        ("a.py", "Base", "recursive"), ("a.py", "Child", "orphan"),
    ]


def is_dataclass_decorator(node) -> bool:
    """@dataclass, @dataclass(...) or @dataclasses.dataclass(...)."""
    target = node.func if isinstance(node, ast.Call) else node
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "dataclass"


def is_named_tuple_base(node) -> bool:
    """NamedTuple or typing.NamedTuple as a base class."""
    return base_name(node) == "NamedTuple"


def record_fields(node: ast.ClassDef) -> list[str]:
    """The annotated fields of a dataclass or a NamedTuple, else the names in
    the class's own __slots__ (none for any other class)."""
    if any(map(is_dataclass_decorator, node.decorator_list)) or any(
        map(is_named_tuple_base, node.bases)
    ):
        return [
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        ]
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__slots__" for target in stmt.targets
        ):
            slots = ast.literal_eval(stmt.value)
            return [slots] if isinstance(slots, str) else list(slots)
    return []


def unread_fields(src: pathlib.Path) -> list[tuple[str, str, str]]:
    """(file, class, field) of each field of a src/ record class (dataclass,
    NamedTuple or __slots__ class) that no src/ code reads as an attribute,
    the class's own methods included."""
    trees = parsed_modules(src)
    read = {
        sub.attr
        for tree in trees.values()
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    return [
        (file, node.name, name)
        for file, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for name in record_fields(node)
        if name not in read
    ]


def test_every_dataclass_field_is_read_in_src():
    assert unread_fields(SRC) == []


def test_the_field_guard_sees_an_unread_field(tmp_path):
    (tmp_path / "a.py").write_text(
        "import dataclasses\n"
        "import typing\n"
        "from dataclasses import dataclass, field\n\n\n"
        "@dataclass(frozen=True)\n"
        "class Point:\n"
        "    x: int\n"
        "    y: int\n"
        "    label: str = field(default='')\n\n"
        "    def square(self):\n"
        "        return self.x * self.x\n\n\n"
        "@dataclasses.dataclass\n"
        "class Box:\n"
        "    width: int\n\n\n"
        "class Plain:\n"
        "    depth: int\n\n\n"
        "class Pair(typing.NamedTuple):\n"
        "    left: int\n"
        "    right: int = 0\n\n\n"
        "class Slotted:\n"
        "    __slots__ = ('inner', 'outer')\n\n"
        "    def __init__(self):\n"
        "        self.inner, self.outer = 1, 2\n"
    )
    (tmp_path / "b.py").write_text(
        "def height(point):\n    return point.y\n\n\n"
        "def widen(box):\n    box.width = 2\n\n\n"
        "def sides(pair, slotted):\n    return pair.left, slotted.inner\n"
    )
    assert unread_fields(tmp_path) == [
        ("a.py", "Point", "label"), ("a.py", "Box", "width"),
        ("a.py", "Pair", "right"), ("a.py", "Slotted", "outer"),
    ]


def indistinct_exceptions(src: pathlib.Path) -> list[str]:
    """The classes of src/errors.py that nothing tells apart: no src/
    except clause names them, they define no __init__ of their own (a
    payload), and they are no base, direct or not, of a class that is told
    apart.  A caller can catch such a class only as its base."""
    trees = parsed_modules(src)
    classes = {
        node.name: node for node in trees["errors.py"].body if isinstance(node, ast.ClassDef)
    }
    caught = {
        name
        for tree in trees.values()
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
        for name in referenced_names(handler.type)
    }
    told_apart = [
        name for name, node in classes.items()
        if name in caught
        or any(isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__" for stmt in node.body)
    ]
    while told_apart:
        name = told_apart.pop()
        if name in classes:
            told_apart += [base_name(base) for base in classes.pop(name).bases]
    return list(classes)


def test_every_exception_class_is_told_apart():
    assert indistinct_exceptions(SRC) == []


def test_the_exception_guard_sees_an_orphan_class(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class Base(Exception):\n    pass\n\n\n"
        "class Caught(Base):\n    pass\n\n\n"
        "class Middle(Base):\n    pass\n\n\n"
        "class Payload(Middle):\n"
        "    def __init__(self, message, value=None):\n"
        "        super().__init__(message)\n        self.value = value\n\n\n"
        "class Orphan(Base):\n    pass\n\n\n"
        "class Leaf(Orphan):\n    pass\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import errors\n\n\n"
        "def run(step):\n"
        "    try:\n        return step()\n"
        "    except (errors.Caught, KeyError):\n        return None\n"
        "    except Exception:\n        raise errors.Orphan('raised, never caught')\n"
    )
    assert indistinct_exceptions(tmp_path) == ["Orphan", "Leaf"]


def is_memo_decorator(node) -> bool:
    """@lru_cache, @cache, @functools.lru_cache(...) and the like."""
    target = node.func if isinstance(node, ast.Call) else node
    return base_name(target) in ("lru_cache", "cache")


def unlisted_memos(src: pathlib.Path, listed) -> list[tuple[str, str]]:
    """(module, function) of each memoized function of src/ not in listed,
    the module named from the directory as src/taubench/ names taubench."""
    return [
        (f"{src.name}.{path.stem}", node.name)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        and any(map(is_memo_decorator, node.decorator_list))
        and (f"{src.name}.{path.stem}", node.name) not in listed
    ]


def test_every_memo_is_cleared_for_the_planted_faults():
    cleared = {(memo.__module__, memo.__name__) for memo in MEMOS}
    assert all(UNFAULTED_MEMOS.values())
    # the memos MEMOS leaves out are exactly the listed ones, none stale
    assert sorted(unlisted_memos(SRC, cleared)) == sorted(UNFAULTED_MEMOS)


def test_the_memo_guard_sees_an_unlisted_memo(tmp_path):
    (tmp_path / "a.py").write_text(
        "import functools\nfrom functools import cache, lru_cache\n\n\n"
        "@functools.lru_cache(maxsize=None)\ndef listed(n):\n    return n\n\n\n"
        "@lru_cache\ndef bare(n):\n    return n\n\n\n"
        "@cache\ndef planted(n):\n    return n\n\n\n"
        "@functools.wraps(listed)\ndef plain(n):\n    return n\n\n\n"
        "class Holder:\n"
        "    @functools.lru_cache(maxsize=8)\n    def method(self):\n        return 1\n"
    )
    module = f"{tmp_path.name}.a"
    assert unlisted_memos(tmp_path, {(module, "listed")}) == [
        (module, "bare"), (module, "planted"), (module, "method"),
    ]


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
