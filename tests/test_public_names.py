"""Every public function and class of the package, and every public method
and property of its classes, has a reader outside its own definition: a code
reference (a name, an attribute or an import alias) in another statement of
a package module, or in the benchmark's checks. A mention in a docstring, a
comment or the README is not a reader. Test-only oracles belong in
tests/oracles.py, not in the package, and each of them has a reader too: a
test module or another oracle."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "xxring").glob("*.py") if p.name != "__init__.py")
CHECKS = ROOT / "perfbench" / "checks.py"
TREES = {path: ast.parse(path.read_text()) for path in MODULES + [CHECKS]}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
TESTS = sorted((ROOT / "tests").glob("test_*.py")) + [ROOT / "tests" / "conftest.py"]
ORACLES = ast.parse((ROOT / "tests" / "oracles.py").read_text())


def _public_definitions():
    for path in MODULES:
        for node in TREES[path].body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                yield pytest.param(node, node.name, id=f"{path.stem}.{node.name}")


def _public_members():
    for path in MODULES:
        for node in TREES[path].body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if isinstance(member, DEFINITIONS) and not member.name.startswith("_"):
                        yield pytest.param(member, member.name,
                                           id=f"{path.stem}.{node.name}.{member.name}")


def _references(node, own):
    """The names node reads, as (kind, name) pairs, leaving out the subtree own."""
    if node is own:
        return
    if isinstance(node, ast.Name):
        yield "name", node.id
    elif isinstance(node, ast.Attribute):
        yield "attribute", node.attr
    elif isinstance(node, ast.alias):
        yield "name", node.name.rpartition(".")[2]
    for child in ast.iter_child_nodes(node):
        yield from _references(child, own)


def _readers(own):
    """Every code reference outside own: in the statements of the package
    modules, except their module-level imports, which only bind a name, and
    anywhere in the checks."""
    roots = [node for path in MODULES for node in TREES[path].body
             if not isinstance(node, (ast.Import, ast.ImportFrom))]
    roots.append(TREES[CHECKS])
    return {reference for root in roots for reference in _references(root, own)}


def _public_oracles():
    for node in ORACLES.body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            yield pytest.param(node, node.name, id=f"oracles.{node.name}")


@pytest.mark.parametrize("own, name", list(_public_definitions()))
def test_public_name_has_a_reader_outside_tests(own, name):
    readers = _readers(own)
    assert ("name", name) in readers or ("attribute", name) in readers, \
        f"{name} is read by no package code and no benchmark check"


@pytest.mark.parametrize("own, name", list(_public_members()))
def test_public_member_has_a_reader_outside_tests(own, name):
    # a member is read as an attribute, so only ".name" counts
    assert ("attribute", name) in _readers(own), \
        f"member {name} is read by no package code and no benchmark check"


# What each top-level statement of the test modules and the oracles reads. An
# import only binds a name, so the test modules' imports are no reader.
TEST_READS = [(node, set(_references(node, None)))
              for tree in [ast.parse(path.read_text()) for path in TESTS] + [ORACLES]
              for node in tree.body if not isinstance(node, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("own, name", list(_public_oracles()))
def test_oracle_has_a_reader(own, name):
    readers = set().union(*(reads for node, reads in TEST_READS if node is not own))
    assert ("name", name) in readers or ("attribute", name) in readers, \
        f"oracle {name} is read by no test and no other oracle"
