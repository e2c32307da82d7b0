"""Every definition in src/ has a caller in src/ or perfbench/: a helper that
only tests use belongs in tests/conftest.py."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unreferenced(root: Path) -> list[str]:
    """The functions, classes and methods of src/zerosum/*.py whose name has no
    word-boundary match in src/zerosum/*.py or perfbench/*.py outside their own
    definition.  Decorated definitions (registry entries, properties) and
    dunder methods are exempt: they are reached through a decorator or a
    protocol, not by name."""
    sources = sorted((root / "src" / "zerosum").glob("*.py"))
    lines = {
        path: path.read_text(encoding="utf-8").splitlines()
        for path in sources + sorted((root / "perfbench").glob("*.py"))
    }
    out = []
    for path in sources:
        for node in ast.walk(ast.parse("\n".join(lines[path]))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if node.decorator_list or (name.startswith("__") and name.endswith("__")):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(
                word.search(line)
                for other, text in lines.items()
                for number, line in enumerate(text, 1)
                if not (other == path and number in own)
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
        "    def unused_method(self):\n        return 1\n",
        encoding="utf-8",
    )
    (tmp_path / "perfbench" / "run.py").write_text("mod.used(); Box()\n", encoding="utf-8")
    # lonely calls only itself; entry is decorated and __len__ a dunder
    assert unreferenced(tmp_path) == ["mod.py:5 lonely", "mod.py:18 unused_method"]
