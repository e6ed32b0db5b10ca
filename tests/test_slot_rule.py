"""Faces and degeneracies of every chain vocabulary against the slot rule.

Each vocabulary is two rules: the product of two adjacent slots and the
slot a degeneracy inserts.  The references here write them out in plain
Python, kind by kind, with the slot products taken from the algebra each
vocabulary stands for (the torus, crossed and Weyl stars on elements):

  group   face i omits slot i; degeneracy i duplicates slot i
  diag    face i merges the modes of slots i and i + 1 with the star
          phase under the label of slot i + 1 (the top face: slot n
          times slot 0, under the label of slot 0); degeneracy i inserts
          (zero mode, label of slot i)
  others  face i is the slot product; degeneracy i inserts the unit

Each drawn coinvariant word is its orbit representative; a reference
word moves to its representative as a chain stores it.  The hypothesis
cases draw unreduced labels over Z and Z/4.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from starchain.cyclic import (ChainContext, CyclicChain, EquivariantChain,
                              _deg_key)
from starchain.groups import CyclicGroup
from starchain.scalars import HbarLaurent
from starchain.torus import CrossedElement, TorusElement, TranslationAction
from starchain.weyl import WeylElement

H, U = 3, 2

Z_ACT = TranslationAction(1, CyclicGroup(), (Fraction(1, 3), Fraction(1, 5)))
TW_ACT = TranslationAction(1, CyclicGroup(), (Fraction(1, 3), Fraction(1, 5)),
                           (1, 2))
FIN_ACT = TranslationAction(1, CyclicGroup(4), (Fraction(1, 4), Fraction(1, 2)))

CTXS = {
    "torus": ChainContext.torus(1, h_trunc=H, u_trunc=U),
    "weyl": ChainContext.weyl(1, h_trunc=H, u_trunc=U),
    "sym": ChainContext.sym(1, h_trunc=H, u_trunc=U),
    "group-z": ChainContext.group_labels(CyclicGroup(), u_trunc=U),
    "group-z4": ChainContext.group_labels(CyclicGroup(4), u_trunc=U),
    "crossed-z": ChainContext.crossed(Z_ACT, h_trunc=H, u_trunc=U),
    "crossed-z4": ChainContext.crossed(FIN_ACT, h_trunc=H, u_trunc=U),
    "diag-honest-tw": ChainContext.diagonal(TW_ACT, H, U, coinvariant=False),
    "diag-honest-z4": ChainContext.diagonal(FIN_ACT, H, U, coinvariant=False),
    "diag-coinv-tw": ChainContext.diagonal(TW_ACT, H, U, coinvariant=True),
    "diag-coinv-z4": ChainContext.diagonal(FIN_ACT, H, U, coinvariant=True),
    "idem": ChainContext.idem(u_trunc=U),
}

ZERO = (0, 0)
UNITS = {"torus": ZERO, "weyl": ((0,), (0,)), "sym": ((0,), (0,)),
         "crossed": (ZERO, 0), "idem": 0}


def wave(mode):
    return TorusElement.plane_wave(1, mode, H)


def slot_product(ctx, x, y):
    """x times y as [(slot, HbarLaurent or None)], by the algebra of the
    vocabulary (group and diag words have their own rules)."""
    kind = ctx.kind
    if kind == "torus":
        return list(wave(x).star(wave(y)).coeffs.items())
    if kind == "crossed":
        xy = CrossedElement(ctx.action, {x[1]: wave(x[0])}).star(
            CrossedElement(ctx.action, {y[1]: wave(y[0])}))
        return [((m, g), c) for g, a in xy.coeffs.items()
                for m, c in a.coeffs.items()]
    if kind == "weyl":
        xy = WeylElement.monomial(1, *x).star(WeylElement.monomial(1, *y))
        out = {}
        for (a, b, k), fe in xy.coeffs.items():
            c = HbarLaurent.from_field(fe, H, k)
            out[a, b] = c if (a, b) not in out else out[a, b] + c
        return list(out.items())
    if kind == "sym":
        return [(((x[0][0] + y[0][0],), (x[1][0] + y[1][0],)), None)]
    # idem: e e = e, and the unit letter 0 times x is x
    return [(1 if 1 in (x, y) else 0, None)]


def face_rule(ctx, key, i):
    n = len(key) - 1
    if ctx.kind == "group":
        return [(key[:i] + key[i + 1:], None)]
    x, y = (key[i], key[i + 1]) if i < n else (key[n], key[0])
    if ctx.kind == "diag":
        merged = [((m, y[1]), c) for m, c in
                  wave(x[0]).star(wave(y[0])).coeffs.items()]
    else:
        merged = slot_product(ctx, x, y)
    if i < n:
        return [(key[:i] + (z,) + key[i + 2:], c) for z, c in merged]
    return [((z,) + key[1:n], c) for z, c in merged]


def degeneracy_rule(ctx, key, i):
    if ctx.kind == "group":
        unit = key[i]
    elif ctx.kind == "diag":
        unit = (ZERO, key[i][1])
    else:
        unit = UNITS[ctx.kind]
    return [(key[:i + 1] + (unit,) + key[i + 1:], None)]


def by_rule(ctx, words):
    """The chain of the words [(word, scalar or None)] a rule gives for a
    word with coefficient 1."""
    out = CyclicChain.zero(ctx)
    for w, c in words:
        out = out + CyclicChain.word(ctx, w, c)
    return out


def assert_slot_rule(ctx, key):
    x = CyclicChain.word(ctx, key)
    assert x.coeffs == {key: ctx.one()}     # no word moves to another
    n = len(key) - 1
    for i in range(n + 1):
        if n:
            assert x.face(i) == by_rule(ctx, face_rule(ctx, key, i)), i
        assert x.degeneracy(i) == by_rule(ctx, degeneracy_rule(ctx, key, i)), i


def rand_slot(ctx, rng):
    kind = ctx.kind
    mode = (rng.randint(-1, 1), rng.randint(-1, 1))
    if kind == "torus":
        return mode
    if kind in ("weyl", "sym"):
        return ((rng.randint(0, 2),), (rng.randint(0, 2),))
    if kind == "idem":
        return rng.randint(0, 1)
    label = ctx.group.sample(rng, 2)
    return label if kind == "group" else (mode, label)


@pytest.mark.parametrize("name", sorted(CTXS))
def test_faces_and_degeneracies_follow_the_slot_rule(name):
    ctx = CTXS[name]
    rng = random.Random(314159)
    for degree in (0, 1, 1, 2, 2, 3):
        key = tuple(rand_slot(ctx, rng) for _ in range(degree + 1))
        if ctx.coinvariant:                 # the orbit representative
            key = ((key[0][0], ctx.group.identity),) + key[1:]
        assert_slot_rule(ctx, key)


# -- unreduced labels over Z and Z/4 ---------------------------------------

LABEL_CTXS = {
    "group-z": ChainContext.group_labels(CyclicGroup(), u_trunc=U),
    "group-z4": ChainContext.group_labels(CyclicGroup(4), u_trunc=U),
    "diag-honest-z": ChainContext.diagonal(Z_ACT, 1, 1, coinvariant=False),
    "diag-honest-z4": ChainContext.diagonal(FIN_ACT, 1, 1, coinvariant=False),
    "diag-coinv-z": ChainContext.diagonal(Z_ACT, 1, 1),
    "diag-coinv-z4": ChainContext.diagonal(FIN_ACT, 1, 1),
}

LABELS = st.integers(-6, 6)
MODES = st.tuples(st.integers(-1, 1), st.integers(-1, 1))


@st.composite
def labelled_words(draw):
    ctx = LABEL_CTXS[draw(st.sampled_from(sorted(LABEL_CTXS)))]
    n = draw(st.integers(1, 4))
    labels = draw(st.lists(LABELS, min_size=n, max_size=n))
    if ctx.kind == "group":
        return ctx, tuple(labels)
    if ctx.coinvariant:
        # an identity label, unreduced over Z/4
        labels[0] = draw(st.integers(-1, 1)) * (ctx.group.order or 0)
    modes = draw(st.lists(MODES, min_size=n, max_size=n))
    return ctx, tuple(zip(modes, labels))


@settings(max_examples=80, deadline=None)
@given(labelled_words())
def test_slot_rule_on_unreduced_labels(drawn):
    assert_slot_rule(*drawn)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([Z_ACT, FIN_ACT]),
       st.lists(LABELS, min_size=1, max_size=4))
def test_normalized_chains_drop_the_degenerate_group_words(act, gw):
    # a homogeneous group word is dropped exactly when it is the image
    # of a degeneracy of the group vocabulary, labels compared reduced
    G = act.group
    gctx = ChainContext.group_labels(G)
    dctx = ChainContext.diagonal(act, 1, 1)
    gw = tuple(gw)
    reduced = tuple(map(G.normalize, gw))
    image = any(tuple(map(G.normalize, w)) == reduced
                for i in range(len(gw) - 1)
                for w, _ in _deg_key(gctx, gw[:i + 1] + gw[i + 2:], i))
    norm = EquivariantChain(dctx, act, True,
                            {(((ZERO, 0),), gw): dctx.one()},
                            normalized=True)
    assert norm.is_zero() is image
