"""Every public function and class of the package, and every public method
and property of its classes, has a reader outside its own definition:
package code, the README or the benchmark's checks. Test-only oracles belong
in tests/oracles.py, not in the package."""

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


def _public_members():
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield pytest.param(path, member.lineno, member.name,
                                           id=f"{path.stem}.{node.name}.{member.name}")


def _has_reader(path, lineno, pattern):
    lines = [line for module in MODULES
             for k, line in enumerate(module.read_text().splitlines(), 1)
             if not (module == path and k == lineno)]
    lines += [line for other in OUTSIDE for line in other.read_text().splitlines()]
    return any(pattern.search(line) for line in lines)


@pytest.mark.parametrize("path, lineno, name", list(_public_definitions()))
def test_public_name_has_a_reader_outside_tests(path, lineno, name):
    assert _has_reader(path, lineno, re.compile(rf"\b{name}\b")), \
        f"{path.name}: {name} is used only by tests"


@pytest.mark.parametrize("path, lineno, name", list(_public_members()))
def test_public_member_has_a_reader_outside_tests(path, lineno, name):
    # a member is read as an attribute, so only ".name" counts
    assert _has_reader(path, lineno, re.compile(rf"\.{name}\b")), \
        f"{path.name}: member {name} is used only by tests"
