"""Every public function and class of the package has a reader outside
its own definition: package code, the README or the benchmark's checks.
Test-only oracles belong in tests/oracles.py, not in the package."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "xxring").glob("*.py") if p.name != "__init__.py")
OUTSIDE = [ROOT / "README.md", ROOT / "perfbench" / "checks.py"]


def _public_definitions():
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield pytest.param(path, node.lineno, node.name, id=f"{path.stem}.{node.name}")


@pytest.mark.parametrize("path, lineno, name", list(_public_definitions()))
def test_public_name_has_a_reader_outside_tests(path, lineno, name):
    word = re.compile(rf"\b{name}\b")
    lines = [line for module in MODULES
             for k, line in enumerate(module.read_text().splitlines(), 1)
             if not (module == path and k == lineno)]
    lines += [line for other in OUTSIDE for line in other.read_text().splitlines()]
    assert any(word.search(line) for line in lines), f"{path.name}: {name} is used only by tests"
