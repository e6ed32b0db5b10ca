"""Every windowed product enters the sparse accumulator through one call.

scalars._Accumulator promises that each windowed product enters it
through `_Accumulator.add`, which holds the window rule.  The check reads
each module's syntax tree: `_into`, the accumulator's inner loop, may be
named only inside `_Accumulator.add` and `_Flat.times`, and
`_Accumulator()` may be built only by the callers that the
`_Accumulator` docstring lists.  A fast path that went around `add` would
have to name one of them somewhere else.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "starchain")
MODULES = sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py"))

INTO_USERS = {"scalars._Accumulator.add", "scalars._Flat.times"}


def uses(source, module):
    """[(qualified name of the enclosing def, what)] for every name or
    attribute `_into` (what '_into') and every call of `_Accumulator`
    (what '_Accumulator()') in source, qualified by module."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
        where = ".".join((module,) + scope)
        if getattr(node, "attr", getattr(node, "id", None)) == "_into":
            out.append((where, "_into"))
        if isinstance(node, ast.Call) and getattr(
                node.func, "attr", getattr(node.func, "id", None)) \
                == "_Accumulator":
            out.append((where, "_Accumulator()"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return out


def listed_callers():
    """The callers the `_Accumulator` docstring lists, qualified by
    module; a name with no module is in scalars."""
    from starchain.scalars import _Accumulator
    doc = " ".join(_Accumulator.__doc__.split())
    names = re.findall(r"`([\w.]+)`", doc.split("Its callers:", 1)[1])
    return {n if "." in n else f"scalars.{n}" for n in names}


def test_the_check_finds_a_way_around_add():
    source = ("class _Accumulator:\n"
              "    def add(self):\n"
              "        into = self._into\n"
              "def fast(acc):\n"
              "    acc._into({}, 4, [], [], 0, 1)\n"
              "    return _Accumulator()\n")
    assert uses(source, "m") == [("m._Accumulator.add", "_into"),
                                 ("m.fast", "_into"),
                                 ("m.fast", "_Accumulator()")]


def test_the_docstring_lists_the_callers():
    assert listed_callers() == {
        "scalars._series_products", "scalars._chain_sums",
        "cyclic.chern_character", "weyl.WeylElement.star"}


def test_every_product_enters_through_add():
    callers = listed_callers()
    stray = []
    for name in MODULES:
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            found = uses(fh.read(), name[:-3])
        for where, what in found:
            allowed = INTO_USERS if what == "_into" else callers
            if where not in allowed:
                stray.append((where, what))
    assert stray == []
