"""The degree-raising boundary B has one definition in the package.

B on one word is `cyclic._raw_connes_terms`: the degeneracy after the
last slot of each rotation, the word rotated back and kept, with the
signs of N.  Every chain vocabulary takes it there, and so does the
character table (`chern_coefficients`), which derives each block from
B of the one before it.  The check reads each module's syntax tree: no
other function has `connes_terms` in its name, `chern_coefficients`
calls `_raw_connes_terms`, and the degeneracy `_deg_key` is named only
in `_raw_connes_terms` and `CyclicChain.degeneracy`.  A second copy of
B in a private letter basis would have to break one of them.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "starchain")
MODULES = sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py"))

DEG_KEY_USERS = {"cyclic._raw_connes_terms", "cyclic.CyclicChain.degeneracy"}


def scan(source, module):
    """(defs, names, calls): the qualified name of every def in source,
    and [(qualified name of the enclosing def, name)] for every name or
    attribute it reads and for every call of a name or attribute, all
    qualified by module."""
    defs, names, calls = [], [], []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
            if not isinstance(node, ast.ClassDef):
                defs.append(".".join((module,) + scope))
        where = ".".join((module,) + scope)
        if isinstance(node, (ast.Name, ast.Attribute)):
            names.append((where, getattr(node, "attr",
                                         getattr(node, "id", None))))
        if isinstance(node, ast.Call):
            calls.append((where, getattr(node.func, "attr",
                                         getattr(node.func, "id", None))))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return defs, names, calls


def package():
    found = [], [], []
    for name in MODULES:
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            for part, more in zip(found, scan(fh.read(), name[:-3])):
                part += more
    return found


def test_the_check_finds_a_second_boundary():
    source = ("def _raw_connes_terms(ctx, key):\n"
              "    return _deg_key(ctx, key, 0)\n"
              "def _pq_connes_terms(word):\n"
              "    return ctx._deg_key(word)\n"
              "class CyclicChain:\n"
              "    def degeneracy(self, i):\n"
              "        return _deg_key\n")
    defs, names, calls = scan(source, "m")
    assert defs == ["m._raw_connes_terms", "m._pq_connes_terms",
                    "m.CyclicChain.degeneracy"]
    assert [w for w, n in names if n == "_deg_key"] == [
        "m._raw_connes_terms", "m._pq_connes_terms",
        "m.CyclicChain.degeneracy"]
    assert calls == [("m._raw_connes_terms", "_deg_key"),
                     ("m._pq_connes_terms", "_deg_key")]


def test_one_function_builds_the_degree_raising_terms():
    defs, _, _ = package()
    assert [d for d in defs if "connes_terms" in d.rsplit(".", 1)[-1]] \
        == ["cyclic._raw_connes_terms"]


def test_the_character_table_takes_the_package_boundary():
    _, _, calls = package()
    assert ("cyclic.chern_coefficients", "_raw_connes_terms") in calls


def test_degeneracies_are_inserted_in_two_places():
    _, names, _ = package()
    assert {w for w, n in names if n == "_deg_key"} == DEG_KEY_USERS
