"""No module in src/starchain or tests imports a name it never uses.

A deletion that keeps the import of what it deleted leaves a name behind
that nothing reads.  The check reads each module's syntax tree (no linter
is a dependency of the project): every name that an import statement
binds, at any depth, must be read somewhere in the module, as a name, as
the root of an attribute chain, inside a string annotation, or as a string
in `__all__`.  A `from __future__` import is a compiler directive, not a
name, and is skipped.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "starchain")
TESTS = os.path.join(ROOT, "tests")
MODULES = sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py"))
TEST_MODULES = sorted(n for n in os.listdir(TESTS) if n.endswith(".py"))


def _read_names(tree):
    """The names a tree reads, string annotations parsed."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        notes = [getattr(node, "returns", None)]
        if isinstance(node, ast.arg):
            notes.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                out |= _read_names(ast.parse(note.value, mode="eval"))
    return out


def _exported(tree):
    """The strings of a module-level `__all__` list or tuple."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            out |= {e.value for e in node.value.elts
                    if isinstance(e, ast.Constant)}
    return out


def unused_imports(source):
    """[(line, name)] for every name an import binds and nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    bound.setdefault(name, node.lineno)
    read = _read_names(tree) | _exported(tree)
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path as osp\n"
              "from a import b as c, d, e\n"
              "def f(x: 'e') -> None:\n"
              "    from g import h\n"
              "    return c.attr\n"
              "__all__ = ['d']\n")
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (6, "h")]


def assert_reads_its_imports(path):
    with open(path, encoding="utf-8") as fh:
        unused = unused_imports(fh.read())
    assert not unused, f"{path} imports names it never reads: {unused}"


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert_reads_its_imports(os.path.join(PACKAGE, module))


@pytest.mark.parametrize("module", TEST_MODULES)
def test_no_unused_import_in_tests(module):
    assert_reads_its_imports(os.path.join(TESTS, module))
