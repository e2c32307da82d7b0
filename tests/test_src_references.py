"""Every definition in src/ has a caller in src/ or perfbench/: a helper that
only tests use belongs in tests/conftest.py."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _identifiers(path: Path) -> list[tuple[str, int]]:
    """(identifier, line) for every name, attribute and import alias in the
    file, and, in perfbench/tracing.py, every part of a dotted string target
    such as "AbelianGroup.index_of": the references code can make.  Comments
    and docstrings make none."""
    out = []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            names = node.name.split(".") + ([node.asname] if node.asname else [])
            out += [(name, node.lineno) for name in names]
        elif (path.name == "tracing.py" and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            out += [(part, node.lineno) for part in node.value.split(".") if part.isidentifier()]
    return out


def unreferenced(root: Path) -> list[str]:
    """The functions, classes and methods of src/zerosum/*.py whose name is
    not an identifier in src/zerosum/*.py or perfbench/*.py outside their own
    definition.  Decorated definitions (registry entries, properties) and
    dunder methods are exempt: they are reached through a decorator or a
    protocol, not by name."""
    sources = sorted((root / "src" / "zerosum").glob("*.py"))
    scanned = sources + sorted((root / "perfbench").glob("*.py"))
    uses = {path: _identifiers(path) for path in scanned}
    out = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if node.decorator_list or (name.startswith("__") and name.endswith("__")):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                ident == name and not (other == path and line in own)
                for other, found in uses.items()
                for ident, line in found
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
