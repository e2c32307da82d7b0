"""Every definition in src/ has a caller in src/ or perfbench/: a helper that
only tests use belongs in tests/conftest.py."""

import ast
import builtins
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _identifiers(path: Path) -> list[tuple[str, int, bool]]:
    """(identifier, line, whether it can call a method) for every name,
    attribute and import alias in the file, and, in perfbench/tracing.py,
    every part of a dotted string target such as "AbelianGroup.index_of": the
    references code can make.  Only an attribute call, x.m(...), an
    attribute bound to a name that the file calls, f = x.m, and a tracing
    target can call a method: a data attribute x.m of the same name cannot.
    Comments and docstrings make none."""
    out = []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    funcs = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    called = {id(func) for func in funcs}
    called_names = {func.id for func in funcs if isinstance(func, ast.Name)}
    for node in ast.walk(tree):  # f = x.m or f, g = x.m, y.n, then f(...)
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                     and isinstance(value, ast.Tuple) else [(target, value)])
            called |= {id(v) for t, v in pairs
                       if isinstance(t, ast.Name) and t.id in called_names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno, id(node) in called))
        elif isinstance(node, ast.alias):
            names = node.name.split(".") + ([node.asname] if node.asname else [])
            out += [(name, node.lineno, False) for name in names]
        elif (path.name == "tracing.py" and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            out += [(part, node.lineno, True)
                    for part in node.value.split(".") if part.isidentifier()]
    return out


def _outside_attributes(base: ast.expr) -> set[str]:
    """The attributes of a base class defined outside src/, a builtin such as
    list or a module.Class such as argparse.ArgumentParser, which code
    outside src/ may call on a subclass that overrides them; empty for a
    class of src/."""
    module, _, name = ast.unparse(base).rpartition(".")
    try:
        owner = importlib.import_module(module) if module else builtins
    except ImportError:
        return set()
    return set(dir(getattr(owner, name))) if hasattr(owner, name) else set()


def unreferenced(root: Path) -> list[str]:
    """The functions, classes and methods of src/zerosum/*.py whose name is
    not an identifier in src/zerosum/*.py or perfbench/*.py outside their own
    definition; a method counts as called only through a call or a tracing
    target (see _identifiers).  Decorated definitions (registry entries, properties),
    dunder methods and overrides of a base class defined outside src/ are
    exempt: they are reached through a decorator, a protocol or code outside
    src/, not by name."""
    sources = sorted((root / "src" / "zerosum").glob("*.py"))
    scanned = sources + sorted((root / "perfbench").glob("*.py"))
    uses = {path: _identifiers(path) for path in scanned}
    out = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {}  # method -> whether it overrides a base defined outside src/
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                outside = set().union(*map(_outside_attributes, cls.bases))
                methods.update((node, node.name in outside) for node in cls.body
                               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if (node.decorator_list or (name.startswith("__") and name.endswith("__"))
                    or methods.get(node)):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                ident == name and (calls or node not in methods)
                and not (other == path and line in own)
                for other, found in uses.items()
                for ident, line, calls in found
            ):
                out.append(f"{path.name}:{node.lineno} {name}")
    return out


def test_every_src_definition_has_a_caller_outside_tests():
    assert unreferenced(ROOT) == []


def test_the_reference_scan_flags_a_test_only_helper(tmp_path):
    src = tmp_path / "src" / "zerosum"
    src.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (src / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def lonely():\n    return lonely()\n\n\n"
        "@register\ndef entry():\n    pass\n\n\n"
        "class Box:\n    def __len__(self):\n        return 0\n\n"
        "    def unused_method(self):\n        return 1\n\n"
        "    def traced(self):\n        return 2\n\n\n"
        "def prose():\n    \"\"\"Not even prose calls prose.\"\"\"\n",
        encoding="utf-8",
    )
    (tmp_path / "perfbench" / "run.py").write_text(
        "# prose is named here, in a comment only\nmod.used(); Box()\n", encoding="utf-8"
    )
    (tmp_path / "perfbench" / "tracing.py").write_text(
        'TARGETS = (("mod.Box.traced", "zerosum.mod", "Box.traced", "span"),)\n', encoding="utf-8"
    )
    # lonely calls only itself; entry is decorated, __len__ a dunder and
    # Box.traced a tracing target; prose is named only in a comment and in
    # its own docstring
    assert unreferenced(tmp_path) == [
        "mod.py:5 lonely", "mod.py:25 prose", "mod.py:18 unused_method"
    ]


def test_the_reference_scan_counts_a_method_only_through_an_attribute(tmp_path):
    src = tmp_path / "src" / "zerosum"
    src.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (src / "mod.py").write_text(
        "import argparse\n\n\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        raise SystemExit(3)\n\n"
        "    def shout(self):\n        return 1\n\n"
        "    def called(self):\n        return 2\n\n\n"
        "class Items(list):\n"
        "    def append(self, item):\n        return None\n\n"
        "    def zero(self):\n        return 0\n\n"
        "    def size(self):\n        return 0\n\n"
        "    def bound(self):\n        return 1\n",
        encoding="utf-8",
    )
    (tmp_path / "perfbench" / "run.py").write_text(
        "zero, shout = 0, 1\nParser().called()\nitems = Items()\n"
        "items.size = 3\nprint(items.size)\nfirst, f = items.size, items.bound\nf()\n",
        encoding="utf-8",
    )
    # zero and shout are bare names in run.py, never attributes, and size a
    # data attribute, set and read but never called; bound is called through
    # the name it is bound to; error and append override methods of
    # argparse.ArgumentParser and of list
    assert unreferenced(tmp_path) == ["mod.py:8 shout", "mod.py:19 zero", "mod.py:22 size"]
