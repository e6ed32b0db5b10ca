"""Every function in src/starchain serves a check, or is listed here.

One subprocess runs the product's entry points under a call-only trace
hook (the hook returns None, so no line events fire) and reports the code
objects it saw: `verify all` and `index-check` on four pinned configs at
small windows, `index-check` on the crossed config, `emit-fixtures` on the
default config, and the CLI on a tiny config and on a malformed one.
Pytest and hypothesis never share the tracer.  These small windows reach
the same functions as every pinned config at h_trunc 1 and u_trunc 1 plus
both benchmark workloads.

A function definition (nested ones included) is matched to its code object
by file and first line, which for a decorated function is the line of its
first decorator.  A function that no run reaches must be listed in
TEST_ONLY with one of the reasons that REASON accepts:

    acceptance criterion N   tests/test_acceptance.py's criterion N needs it
    oracle for test_x        test_x checks a reached route against it
    eq/hash/repr             the value-type protocol (and its helpers)
    base hook                a hook of the Sparse base: abstract, or the
                             scalar hook of a chain (chain * scalar)
    ROADMAP item 4           kept for the canonical cyclotomic form

A nested function is covered by the entry of the function it is defined
in.  The tests fail when an unlisted function is unreached, when a listed
one is reached or gone, and when a reason is not of an accepted kind.
"""

import ast
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "starchain")
TESTS = os.path.join(ROOT, "tests")

REASON = re.compile(r"(acceptance criterion (?P<criterion>\d+)"
                    r"|oracle for (?P<test>test_\w+)"
                    r"|eq/hash/repr|base hook|ROADMAP item 4)(: |$)")

TEST_ONLY = {
    # cyclic.py
    "cyclic.ChainContext.__repr__": "eq/hash/repr",
    "cyclic.CyclicChain.__repr__": "eq/hash/repr",
    "cyclic.CyclicChain._scalar": "base hook: chain * scalar",
    "cyclic.CyclicChain._slotwise":
        "acceptance criterion 4: faces, degeneracies and rotations",
    "cyclic.CyclicChain.degeneracy":
        "acceptance criterion 4: the simplicial relations",
    "cyclic.CyclicChain.face":
        "acceptance criterion 4: the simplicial relations",
    "cyclic.CyclicChain.rotate":
        "acceptance criterion 4: the cyclic relations",
    "cyclic.CyclicChain.word": "acceptance criterion 4: builds its chains",
    "cyclic.CyclicChain.zero": "acceptance criterion 4: builds its chains",
    "cyclic.EquivariantChain.__repr__": "eq/hash/repr",
    "cyclic.EquivariantChain._scalar": "base hook: chain * scalar",
    "cyclic.EquivariantChain.group_boundary":
        "acceptance criterion 5: the free homotopy identity",
    "cyclic.EquivariantChain.prepend_unit":
        "acceptance criterion 5: the free homotopy identity",
    "cyclic.EquivariantChain.to_homogeneous":
        "acceptance criterion 5: the coordinate-change roundtrip",
    "cyclic._weyl_labels": "acceptance criterion 4: the Weyl vocabulary",
    "cyclic.alexander_whitney":
        "acceptance criterion 5: the front/back splitting is a chain map",
    # forms.py
    "forms.FormalForm.__repr__": "eq/hash/repr",
    "forms.FormalForm.monomial":
        "acceptance criterion 11: builds the forms it compares",
    "forms.FormalForm.zero":
        "acceptance criterion 11: builds the forms it compares",
    "forms._coordinate_name": "eq/hash/repr: FormalForm.__repr__",
    "forms.j_shift": "acceptance criterion 11: the u-power reindexing",
    # group_coh.py
    "group_coh.EquivariantClassCocycle.__repr__": "eq/hash/repr",
    "group_coh.EquivariantClassCocycle.total_cocycle_witness":
        "acceptance criterion 9: the twisted class data is a total cocycle",
    "group_coh.GroupCochain.__repr__": "eq/hash/repr",
    "group_coh.form_pullback":
        "acceptance criterion 9: total_cocycle_witness",
    # groups.py
    "groups.CyclicGroup.__eq__": "eq/hash/repr",
    "groups.CyclicGroup.__hash__": "eq/hash/repr",
    "groups.CyclicGroup.__repr__": "eq/hash/repr",
    "groups.CyclicGroup.sample":
        "acceptance criterion 4: draws the group labels of its chains",
    # lie_gf.py
    "lie_gf.InvariantConnection.__repr__": "eq/hash/repr",
    "lie_gf.LieCochain.__repr__": "eq/hash/repr",
    "lie_gf.gelfand_fuks_equivariant":
        "oracle for test_jet_class_data_matches_arithmetic_route: the jet "
        "route to the class data of equivariant_theta (criterion 9(c))",
    "lie_gf.i_xi":
        "oracle for test_i_xi_matches_twisted_traces: the decomposition "
        "route to TraceFunctional.pair",
    # scalars.py
    "scalars.FieldElement.__hash__": "eq/hash/repr",
    "scalars.FieldElement.__repr__": "eq/hash/repr",
    "scalars.FieldElement.__sub__":
        "oracle for test_star_against_bidifferential_oracle: the "
        "bidifferential expansion subtracts field elements",
    "scalars.FieldElement._descend":
        "ROADMAP item 4: FieldElement.__eq__ past the level bound",
    "scalars.FieldElement.inv_monomial":
        "oracle for test_translation_phases: i ** g at negative g",
    "scalars.FieldElement.is_monomial":
        "oracle for test_translation_phases: inv_monomial",
    "scalars.FieldElement.is_rational":
        "eq/hash/repr: __hash__, and __eq__ across levels",
    "scalars.FieldElement.rational_value": "eq/hash/repr: __hash__",
    "scalars.HbarLaurent.coefficient":
        "oracle for test_wave_product_phase_frozen: reads the phase of the "
        "torus star power by power",
    # sparse.py
    "sparse.Filtered._at": "base hook: abstract",
    "sparse.Sparse.__truediv__":
        "acceptance criterion 10: sp_quadratic_basis halves a sum",
    "sparse.Sparse._spawn": "base hook: abstract",
    # torus.py
    "torus.CrossedElement.__repr__": "eq/hash/repr",
    "torus.CrossedElement.component":
        "oracle for test_crossed_product_algebra: CrossedElement.trace",
    "torus.CrossedElement.trace":
        "oracle for test_crossed_product_algebra: the trace the crossed "
        "star must make cyclic",
    "torus.TorusElement.__repr__": "eq/hash/repr",
    "torus.TorusElement.partial":
        "acceptance criterion 10: TorusForm.d",
    "torus.TorusForm.__repr__": "eq/hash/repr",
    "torus.TorusForm.d":
        "acceptance criterion 10: gf_form intertwines the differentials",
    "torus.TranslationAction.__repr__": "eq/hash/repr",
    "torus.TranslationAction.translation_phase":
        "acceptance criterion 9: form_pullback",
    "torus.WeylSection.__init__":
        "acceptance criterion 9: gelfand_fuks_equivariant",
    "torus.WeylSection.__repr__": "eq/hash/repr",
    "torus.WeylSection._at": "acceptance criterion 9: gelfand_fuks_equivariant",
    "torus.WeylSection.component":
        "acceptance criterion 9: gelfand_fuks_equivariant",
    "torus.WeylSection.fiber_wave":
        "acceptance criterion 9: gelfand_fuks_equivariant",
    "torus.WeylSection.from_base":
        "acceptance criterion 9: gelfand_fuks_equivariant",
    "torus.WeylSection.global_window":
        "acceptance criterion 9: gelfand_fuks_equivariant",
    "torus.WeylSection.nabla":
        "acceptance criterion 9: gelfand_fuks_equivariant",
    "torus.WeylSection.star":
        "acceptance criterion 9: gelfand_fuks_equivariant",
    "torus._fiber_indices": "acceptance criterion 9: WeylSection.fiber_wave",
    "torus._fiber_terms": "acceptance criterion 9: WeylSection.fiber_wave",
    "torus.jet":
        "oracle for test_star_agrees_with_fiber_quantization: the fiberwise "
        "Moyal route to the torus star",
    # weyl.py
    "weyl.Derivation.__eq__": "eq/hash/repr",
    "weyl.Derivation.__hash__": "eq/hash/repr",
    "weyl.Derivation.__repr__": "eq/hash/repr",
    "weyl.Derivation.apply":
        "oracle for test_derivation_bracket_is_commutator_of_actions: the "
        "action the bracket must commute",
    "weyl.WeylElement.__repr__": "eq/hash/repr",
    "weyl.WeylElement.central":
        "oracle for test_central_embedding_roundtrip: the inverse of "
        "central_part",
    "weyl.WeylElement.one":
        "oracle for test_star_unital_and_central_hbar: the unit of the star",
    "weyl.WeylElement.poly_mul":
        "acceptance criterion 10: sp_quadratic_basis",
    "weyl._moyal_product":
        "acceptance criterion 4: the Weyl vocabulary (and criterion 9: "
        "WeylSection.star)",
    "weyl.sp_quadratic_basis":
        "acceptance criterion 10: the defect vanishes on quadratics",
}

RUNNER = r"""
import contextlib
import io
import json
import os
import sys
import tempfile

root, out = sys.argv[1], sys.argv[2]
reached = set()


def hook(frame, event, arg):
    reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.settrace(hook)
sys.path.insert(0, os.path.join(root, "src"))
from starchain import cli
from starchain.scenarios import (ScenarioConfig, emit_fixtures, index_check,
                                 run_suite)


def config(name, **overrides):
    with open(os.path.join(root, "configs", name + ".json")) as fh:
        data = json.load(fh)
    data.update(overrides)
    return data


with tempfile.TemporaryDirectory() as tmp:
    for name in ("default", "twisted", "order4", "htrunc0"):
        cfg = ScenarioConfig.from_dict(config(
            name, h_trunc=0 if name == "htrunc0" else 1, u_trunc=0,
            weyl_order=2))
        run_suite("all", cfg)
        index_check(cfg)
    index_check(ScenarioConfig.from_dict(config("crossed", u_trunc=1)))
    emit_fixtures(ScenarioConfig.from_dict(config("default")),
                  os.path.join(tmp, "fixtures"))
    tiny = os.path.join(tmp, "tiny.json")
    bad = os.path.join(tmp, "bad.json")
    with open(tiny, "w") as fh:
        json.dump(config("default", h_trunc=1, u_trunc=0, weyl_order=2), fh)
    with open(bad, "w") as fh:
        json.dump({"dim": "2"}, fh)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["index-check", "--config", tiny, "--report",
                         os.path.join(tmp, "report.json")]) == 0
        assert cli.main(["index-check", "--config", bad]) == 2
sys.settrace(None)
with open(out, "w") as fh:
    json.dump(sorted(reached), fh)
"""


def inventory():
    """{(file, first line): "module.qualname"} for every function
    definition in the package, nested ones included; the first line is
    that of the first decorator, as in the code object."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(PACKAGE, name))
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list]
                                + [child.lineno])
                    qual = prefix + child.name
                    out[path, first] = f"{name[:-3]}.{qual}"
                    walk(child, qual + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return out


@pytest.fixture(scope="module")
def unreached(tmp_path_factory):
    """The qualified names of the functions no run reaches, each nested
    function under the name of the function it is defined in."""
    out = tmp_path_factory.mktemp("reach") / "reached.json"
    subprocess.run([sys.executable, "-c", RUNNER, ROOT, str(out)],
                   check=True, cwd=ROOT, timeout=120)
    reached = {(os.path.realpath(f), line)
               for f, line in json.loads(out.read_text())}
    names = {q for key, q in inventory().items() if key not in reached}
    return {q.split(".<locals>.")[0] for q in names}


def test_every_unreached_function_is_listed(unreached):
    gaps = sorted(unreached - TEST_ONLY.keys())
    assert not gaps, ("reached by no check: serve a check, delete it, or "
                      f"list it in TEST_ONLY with its reason: {gaps}")


def test_every_listed_function_is_unreached(unreached):
    names = set(inventory().values())
    reached = sorted(q for q in TEST_ONLY
                     if q in names and q not in unreached)
    assert not reached, ("reached by a check now, drop it from TEST_ONLY: "
                         f"{reached}")


def test_every_listed_function_exists():
    names = set(inventory().values())
    missing = sorted(q for q in TEST_ONLY if q not in names)
    assert not missing, f"no such function, drop from TEST_ONLY: {missing}"


def test_every_reason_is_accepted():
    tests = ""
    for name in sorted(os.listdir(TESTS)):
        if name.endswith(".py"):
            with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
                tests += fh.read()
    bad = []
    for q, reason in TEST_ONLY.items():
        m = REASON.match(reason)
        if m is None:
            bad.append((q, reason))
        elif m["criterion"] and \
                f"def test_criterion_{int(m['criterion']):02d}_" not in tests:
            bad.append((q, f"no acceptance criterion {m['criterion']}"))
        elif m["test"] and f"def {m['test']}(" not in tests:
            bad.append((q, f"no test named {m['test']}"))
    assert not bad, bad
