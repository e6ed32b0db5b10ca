"""The chain operators against per-term references.

Every chain operator sums its values on single words in one integer
accumulator (scalars._chain_sums).  The references here sum the same
values as FieldElement products, per (word, u power, hbar power), in the
manner of `reference_sums` in test_torus.py: each term's windows by the
product rule, then the least window over the terms, and FieldElement
addition, which keeps the lcm of the levels of every product also where
part of a sum cancels.  Each operator's terms are read off the slot
products (`_face_key`, whose scalars are the star and face phases); on
coinvariant diagonal words b and B are taken by the slot rule written out
here, from star products of plane waves, each target moved to its orbit
representative by `CyclicChain._admit`.  The equivariant inner boundary
takes the same entries of its inner words, a moved target left-
translating the group word by the inverse of the label it was moved by;
it reads no boundary plan.  The references share no summation code with
the accumulator.  A comparison covers keys, u and hbar windows,
`to_text` and levels.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from starchain.cyclic import (ChainContext, CyclicChain, EquivariantChain,
                              _deg_key, _entry_terms, _face_key,
                              _rotate_key, chern_character,
                              chern_coefficients)
from starchain.groups import CyclicGroup
from starchain.scalars import (FieldElement, HbarLaurent, ULaurent,
                               cyclotomic_polynomial, to_text)
from starchain.scenarios import ScenarioConfig
from starchain.sparse import _acc
from starchain.torus import (CrossedElement, TorusElement,
                             TranslationAction)

H, U = 3, 2

Z_ACT = TranslationAction(1, CyclicGroup(), (Fraction(1, 3), Fraction(1, 5)))
TW_ACT = TranslationAction(1, CyclicGroup(), (Fraction(1, 3), Fraction(1, 5)),
                           (1, 2))
FIN_ACT = TranslationAction(1, CyclicGroup(4), (Fraction(1, 4), Fraction(1, 2)))

CTXS = {
    "torus": ChainContext.torus(1, h_trunc=H, u_trunc=U),
    "weyl": ChainContext.weyl(1, h_trunc=1, u_trunc=U),
    "sym": ChainContext.sym(1, h_trunc=H, u_trunc=U),
    "group-z": ChainContext.group_labels(CyclicGroup(), u_trunc=U),
    "group-z4": ChainContext.group_labels(CyclicGroup(4), u_trunc=U),
    "crossed-z": ChainContext.crossed(Z_ACT, h_trunc=H, u_trunc=U),
    "crossed-tw": ChainContext.crossed(TW_ACT, h_trunc=H, u_trunc=U),
    "crossed-z4": ChainContext.crossed(FIN_ACT, h_trunc=H, u_trunc=U),
    "diag-honest": ChainContext.diagonal(Z_ACT, H, U, coinvariant=False),
    "diag-coinv-z": ChainContext.diagonal(Z_ACT, H, U, coinvariant=True),
    "diag-coinv-tw": ChainContext.diagonal(TW_ACT, H, U, coinvariant=True),
    "diag-coinv-z4": ChainContext.diagonal(FIN_ACT, H, U, coinvariant=True),
    "idem": ChainContext.idem(u_trunc=U),
}


def at_u_window_zero(ctx):
    """A copy of ctx at u window 0, where the mixed boundary b + uB of a
    u^0 chain is b: every uB term lands at u^1 and is cut."""
    return ChainContext(ctx.kind, ctx.dim, ctx.group, ctx.action,
                        ctx.h_trunc, 0, ctx.coinvariant)


def u0_coefficients(items):
    """{word: coefficient} with each coefficient's lowest u term moved to
    u^0 at u window 0 (a u^-1 term would let uB reach u^0)."""
    return {k: ULaurent(0, {0: v.coeffs[v.low]}) for k, v in items
            if not v.is_zero()}


CTXS_U0 = {name: at_u_window_zero(ctx) for name, ctx in CTXS.items()}


# -- the reference sums ----------------------------------------------------

def reference_sums(items, u_cap=None):
    """{target: ULaurent}: items (c, entries), entries (target, sign,
    scalar, u shift) with the scalar an HbarLaurent, a FieldElement or
    None, each standing for sign * scalar * u^shift * c."""
    uwin, hwin, sums = {}, {}, {}
    for c, entries in items:
        for target, sign, s, shift in entries:
            ut = c.trunc + shift
            if shift and u_cap is not None:
                ut = min(ut, u_cap)
            uwin[target] = min(ut, uwin.get(target, ut))
            for p, h in c.coeffs.items():
                q = p + shift
                if q > ut:
                    continue
                if s is None or isinstance(s, FieldElement):
                    w = h.trunc
                    prods = [(i, a if s is None else a * s)
                             for i, a in h.coeffs.items()]
                elif s.is_zero():
                    continue
                else:
                    w = min(h.trunc + s.low, s.trunc + h.low)
                    prods = [(i + j, a * b) for i, a in h.coeffs.items()
                             for j, b in s.coeffs.items() if i + j <= w]
                hwin[target, q] = min(w, hwin.get((target, q), w))
                for k, v in prods:
                    _acc(sums.setdefault((target, q), {}), k, v * sign)
    out = {t: {} for t in uwin}
    for (t, q), w in hwin.items():
        out[t][q] = HbarLaurent(w, {k: v for k, v in
                                    sums.get((t, q), {}).items() if k <= w})
    return {t: ULaurent(ut, out[t]) for t, ut in uwin.items()}


def _series(s):
    return None if s is None else s.series


def to_representative(ctx, key, s):
    """(key, g^-1 or None, s): key, with the scalar s (None for 1), moved
    to its orbit representative as a coinvariant chain stores it
    (CyclicChain._admit), the translation phase multiplied into s; a
    moved key carries the inverse of the first label g it was moved by."""
    moved, v = CyclicChain.zero(ctx)._admit(
        key, HbarLaurent.one(ctx.h_trunc) if s is None else s)
    if moved == key:
        return key, None, s
    return moved, ctx.group.inverse(key[0][1]), v


def diag_entries(ctx, key, mode):
    """b or B on a coinvariant diagonal word by the slot rule: face i
    merges the modes of slots i and i + 1 with the star phase under the
    label of slot i + 1 (the top face: slot n times slot 0, under the
    label of slot 0); degeneracy i inserts (zero mode, label of slot i).
    Each target moves to its representative: entries (target, g^-1 or
    None, sign, scalar, 0)."""
    n = len(key) - 1
    terms = []
    if mode == "hochschild":
        for i in range(n + 1 if n else 0):
            x, y = (key[i], key[i + 1]) if i < n else (key[n], key[0])
            wx, wy = (TorusElement.plane_wave(ctx.dim, m, ctx.h_trunc)
                      for m in (x[0], y[0]))
            for m, c in wx.star(wy).coeffs.items():
                z = (m, y[1])
                k2 = key[:i] + (z,) + key[i + 2:] if i < n else \
                    (z,) + key[1:n]
                terms.append((k2, (-1) ** i, c))
    else:
        for i in range(n + 1):
            r = key[i:] + key[:i]               # rotated i places
            unit = ((0,) * (2 * ctx.dim), r[n][1])
            terms.append(((unit,) + r, (-1) ** (i * n), None))
            terms.append((r + (unit,), (-1) ** (i * n + n), None))
    out = []
    for k2, sign, s in terms:
        k2, g, s = to_representative(ctx, k2, s)
        out.append((k2, g, sign, s, 0))
    return out


def ref_entries(ctx, key, mode):
    """The terms of b ('hochschild') or B ('connes') on one word: by the
    slot rule on coinvariant diagonal words, else the faces and
    degeneracies by definition."""
    if ctx.kind == "diag" and ctx.coinvariant:
        return [(k2, sign, s, 0)
                for k2, _, sign, s, _ in diag_entries(ctx, key, mode)]
    n = len(key) - 1
    if mode == "hochschild":
        return [(k2, (-1) ** i, _series(s), 0)
                for i in range(n + 1 if n else 0)
                for k2, s in _face_key(ctx, key, i)]
    out = []
    for i in range(n + 1):
        for k1, _ in _deg_key(ctx, _rotate_key(key, i), n):
            out.append((_rotate_key(k1, -1), (-1) ** (i * n), None, 0))
            out.append((k1, (-1) ** (i * n + n), None, 0))
    return out


def ref_boundary(x, mode):
    return CyclicChain(x.ctx, reference_sums(
        (c, ref_entries(x.ctx, k, mode)) for k, c in x.coeffs.items()))


def ref_mixed(x):
    """b + uB: the two chains, each summed, then summed together."""
    b, B = ref_boundary(x, "hochschild"), ref_boundary(x, "connes")
    items = [(c, [(k, 1, None, 0)]) for k, c in b.coeffs.items()]
    items += [(c, [(k, 1, None, 1)]) for k, c in B.coeffs.items()]
    return CyclicChain(x.ctx, reference_sums(items, x.ctx.u_trunc))


def inner_entries(ctx, key, mode):
    """The terms of b ('hochschild') or b + uB ('mixed') on one inner word
    as (target, g^-1 or None, sign, scalar, u shift): the faces, then the
    degree-raising terms at u shift 1.  Coinvariant diagonal words take
    them by the slot rule (diag_entries), torus words as ref_entries does;
    a torus word never moves."""
    steps = [("hochschild", 0)]
    if mode == "mixed":
        steps.append(("connes", 1))
    out = []
    for step, shift in steps:
        if ctx.kind == "diag" and ctx.coinvariant:
            out += [(k2, g, sign, s, shift)
                    for k2, g, sign, s, _ in diag_entries(ctx, key, step)]
        else:
            out += [(k2, None, sign, s, shift)
                    for k2, sign, s, _ in ref_entries(ctx, key, step)]
    return out


def ref_inner(x, mode):
    ictx, G = x.inner_ctx, x.action.group
    items = []
    for (ik, gw), c in x.coeffs.items():
        items.append((c, [
            ((k2, gw if g is None else tuple(G.compose(g, h) for h in gw)),
             sign, s, shift)
            for k2, g, sign, s, shift in inner_entries(ictx, ik, mode)]))
    return x._spawn(reference_sums(items, ictx.u_trunc))


def ref_total(x, mode):
    inner = ref_inner(x, mode)
    items = [(c, [(k, 1, None, 0)]) for k, c in inner.coeffs.items()]
    for k, c in x.coeffs.items():
        odd = (len(k[0]) - 1) % 2
        items.append((c, [(k2, sign, _series(s), shift) for k2, sign, s, shift
                          in x._group_terms(k, c, odd)]))
    return x._spawn(reference_sums(items))


def _shape(v):
    return v.trunc, {e: (h.trunc, {k: fe.level for k, fe in h.coeffs.items()})
                     for e, h in v.coeffs.items()}


def assert_same_chain(got, want, ordered=True):
    if ordered:
        assert list(got.coeffs) == list(want.coeffs)
    else:
        assert got.coeffs.keys() == want.coeffs.keys()
    for k, v in want.coeffs.items():
        g = got.coeffs[k]
        assert to_text(g) == to_text(v), k
        assert _shape(g) == _shape(v), k


# -- drawn chains ----------------------------------------------------------

def field(level, terms):
    return FieldElement(level, {(a, b): Fraction(n, d) for a, b, n, d in terms})


@st.composite
def fields(draw):
    level = draw(st.sampled_from((4, 12, 60)))
    m = len(cyclotomic_polynomial(level)) - 1
    return FieldElement(level, draw(st.dictionaries(
        st.tuples(st.integers(0, m - 1), st.integers(0, 1)),
        st.fractions(min_value=-4, max_value=4,
                     max_denominator=6).filter(bool),
        min_size=1, max_size=2)))


@st.composite
def coefficients(draw, ctx):
    """A u series with 1-2 powers from -1 up to its window, which is drawn
    around the context's; each an hbar series of 1-2 powers."""
    ut = draw(st.integers(0, ctx.u_trunc + 1))
    out = {}
    for p in draw(st.lists(st.integers(-1, ut), min_size=1, max_size=2,
                           unique=True)):
        ht = draw(st.integers(-1, ctx.h_trunc + 1))
        powers = draw(st.lists(st.integers(-2, ht), min_size=1, max_size=2,
                               unique=True))
        out[p] = HbarLaurent(ht, {k: draw(fields()) for k in powers})
    return ULaurent(ut, out)


def labels(group):
    if group.order is None:
        return st.integers(-2, 2)
    return st.integers(0, group.order - 1)


MODES = st.tuples(st.integers(-1, 1), st.integers(-1, 1))


def slot(ctx):
    kind = ctx.kind
    if kind == "torus":
        return MODES
    if kind in ("weyl", "sym"):
        return st.tuples(st.tuples(st.integers(0, 1)),
                         st.tuples(st.integers(0, 1)))
    if kind == "group":
        return labels(ctx.group)
    if kind == "crossed":
        return st.tuples(MODES, labels(ctx.group))
    return st.integers(0, 1)                    # idem


@st.composite
def words(draw, ctx):
    n = draw(st.integers(1, 3))
    if ctx.kind != "diag":
        return tuple(draw(st.lists(slot(ctx), min_size=n, max_size=n)))
    modes = tuple(draw(st.lists(MODES, min_size=n, max_size=n)))
    grp = draw(st.lists(labels(ctx.group), min_size=n, max_size=n))
    if ctx.coinvariant:
        grp[0] = ctx.group.identity
    return tuple(zip(modes, grp))


@st.composite
def chains(draw):
    name = draw(st.sampled_from(sorted(CTXS)))
    ctx = CTXS[name]
    return name, draw(st.lists(st.tuples(words(ctx), coefficients(ctx)),
                               min_size=1, max_size=3))


def h(level, power, trunc, *terms):
    return HbarLaurent(trunc, {power: field(level, terms)})


# b of ((1, 0), (2, 0)) cancels: the two faces of modes with pairing 0 meet
# with opposite signs at level 60, at hbar^1; beside them ((1, 1), (2, -1))
# leaves a level-4 coefficient there (the odd powers of its two star
# phases), which the cancelled pair puts at level 60.  The z4 pair cancels
# between two words of one diagonal orbit.
CANCEL = [
    ("torus", [(((1, 0), (2, 0)), ULaurent(2, {0: h(60, 1, 3, (1, 0, 1, 1))})),
               (((1, 1), (2, -1)), ULaurent(2, {0: h(4, 0, 2, (0, 0, 1, 2))}))]),
    ("torus", [(((1, 1), (2, -1)), ULaurent(1, {0: h(4, 1, 3, (1, 0, 1, 1))})),
               (((1, 0), (2, 0)), ULaurent(2, {1: h(12, 0, 1, (3, 0, -1, 1))}))]),
    ("diag-coinv-z4",
     [((((1, 0), 0), ((0, 1), 1)),
       ULaurent(2, {0: h(12, 0, 2, (1, 0, 1, 1))})),
      ((((0, 1), 0), ((1, 0), 3)),
       ULaurent(2, {0: h(4, 0, 3, (0, 0, -1, 1))}))]),
    ("group-z", [((0, 1, 2), ULaurent(2, {0: h(60, 0, 1, (0, 0, 1, 1))})),
                 ((0, 2, 2), ULaurent(2, {0: h(4, 2, 3, (1, 0, 1, 1))})),
                 ((1, 1, 2), ULaurent(1, {1: h(12, 0, 2, (2, 0, 1, 3))}))]),
]


def _chain(name, items):
    return CyclicChain(CTXS[name], dict(items))


@settings(max_examples=60, deadline=None)
@given(chains())
@example(CANCEL[0])
@example(CANCEL[1])
@example(CANCEL[2])
@example(CANCEL[3])
def test_boundaries_against_reference_sums(drawn):
    x = _chain(*drawn)
    assert_same_chain(x.boundary(), ref_boundary(x, "hochschild"))
    assert_same_chain(x.connes_boundary(), ref_boundary(x, "connes"))
    assert_same_chain(x.mixed_boundary(), ref_mixed(x))


@settings(max_examples=60, deadline=None)
@given(chains())
@example(CANCEL[0])
@example(CANCEL[1])
@example(CANCEL[2])
@example(CANCEL[3])
def test_mixed_boundary_is_b_at_u_window_zero(drawn):
    # the lemma behind the one splitting mode: on u^0 chains at u window
    # 0, b + uB is b, with the same keys, printed form and windows
    name, items = drawn
    x = CyclicChain(CTXS_U0[name], u0_coefficients(items))
    assert_same_chain(x.mixed_boundary(), x.boundary())


EQ_CTXS = {
    "z": (ChainContext.diagonal(Z_ACT, H, U, coinvariant=True), Z_ACT, True),
    "tw": (ChainContext.diagonal(TW_ACT, H, U, coinvariant=True), TW_ACT,
           True),
    "z4": (ChainContext.diagonal(FIN_ACT, H, U, coinvariant=True), FIN_ACT,
           True),
    "z-torus": (ChainContext.torus(1, H, U), Z_ACT, False),
    "z4-torus": (ChainContext.torus(1, H, U), FIN_ACT, False),
}


@st.composite
def equivariant_chains(draw):
    name = draw(st.sampled_from(sorted(EQ_CTXS)))
    ictx, act, homogeneous = EQ_CTXS[name]
    G = act.group
    # a non-homogeneous group word has no identity entry
    slots = labels(G) if homogeneous else \
        labels(G).filter(lambda g: not G.is_identity(g))
    out = []
    for _ in range(draw(st.integers(1, 3))):
        gw = tuple(draw(st.lists(slots, min_size=int(homogeneous),
                                 max_size=2)))
        out.append(((draw(words(ictx)), gw), draw(coefficients(ictx))))
    return name, out


def _equivariant(name, items):
    ictx, act, homogeneous = EQ_CTXS[name]
    return EquivariantChain(ictx, act, homogeneous, dict(items))


EQ_CTXS_U0 = {name: at_u_window_zero(ictx)
              for name, (ictx, _, _) in EQ_CTXS.items()}


def _equivariant_u0(name, items):
    """The drawn chain at u window 0 with u^0 coefficients, where its
    inner boundary is the Hochschild one."""
    _, act, homogeneous = EQ_CTXS[name]
    return EquivariantChain(EQ_CTXS_U0[name], act, homogeneous,
                            u0_coefficients(dict(items).items()))


# the first two words share an inner word whose faces cancel (modes of
# pairing 0), at two levels, beside a third word that reaches one target
EQ_CANCEL = ("z", [
    (((((1, 0), 0), ((2, 0), 1)), (1,)),
     ULaurent(2, {0: h(60, 0, 3, (7, 0, 1, 1))})),
    (((((1, 0), 0), ((2, 0), 1)), (2,)),
     ULaurent(2, {1: h(4, 0, 2, (1, 0, 1, 1))})),
    (((((1, 1), 0), ((2, -1), 0)), (1,)),
     ULaurent(1, {0: h(12, 1, 2, (1, 0, 1, 1))})),
])


# B of the degree-0 word reaches a degree-1 word under group word (0,)
# before the faces of the degree-2 words do; at u window 0 it is cut
EQ_ORDER = ("tw", [
    (((((0, 0), 0),), (0,)), ULaurent(0, {0: h(4, 0, 0, (0, 0, 1, 1))})),
    (((((0, 0), 0), ((0, 0), 0), ((0, 0), 0)), (0, 0)),
     ULaurent(0, {0: h(4, 0, 0, (0, 0, 1, 1))})),
    (((((0, 0), 0), ((0, 0), 0), ((0, 0), 0)), (0,)),
     ULaurent(0, {0: h(4, 0, 0, (0, 0, 1, 1))})),
])


@settings(max_examples=50, deadline=None)
@given(equivariant_chains())
@example(EQ_CANCEL)
@example(EQ_ORDER)
def test_inner_and_total_boundary_against_reference_sums(drawn):
    x = _equivariant(*drawn)
    assert_same_chain(x.inner_boundary(), ref_inner(x, "mixed"))
    assert_same_chain(x.total_boundary(), ref_total(x, "mixed"))
    # at u window 0 the inner boundary is b: the Hochschild reference has
    # every word, coefficient, window and level.  The words come in the
    # order of b + uB, where a uB entry that the window cuts can reach a
    # word before any face does, so the order is the mixed reference's.
    x0 = _equivariant_u0(*drawn)
    for got, ref in ((x0.inner_boundary(), ref_inner),
                     (x0.total_boundary(), ref_total)):
        assert_same_chain(got, ref(x0, "hochschild"), ordered=False)
        assert_same_chain(got, ref(x0, "mixed"))


# -- sums do not depend on how their terms are grouped ---------------------

ONE = FieldElement.rational(1)
A = ULaurent(3, {0: HbarLaurent(5, {0: ONE})})
B = ULaurent(3, {0: HbarLaurent(8, {7: ONE})})


@pytest.mark.parametrize("order", [(A, -A, B), (A, B, -A), (B, A, -A)],
                         ids=["cancel-first", "cancel-around", "b-first"])
def test_chain_sum_does_not_depend_on_term_order(order):
    # A is known only through hbar^5, so A - A + B is zero there: the
    # hbar^7 of B lies above the least window of the three terms, in
    # whichever order the words meet
    ctx = ChainContext.group_labels(CyclicGroup(), u_trunc=3)
    words = [(0, 1), (0, 2), (0, 3)]
    got = CyclicChain(ctx, dict(zip(words, order))).face(1)
    want = CyclicChain(ctx, dict(zip(words, (A, -A, B)))).face(1)
    assert got == want
    assert got.is_zero()


# -- the character against the old path walk -------------------------------

def reference_chern_character(matrix, u_trunc):
    """The character as the path walk had it: each path's slot series
    multiplied as hbar series in order, times the table coefficient at
    u^n; the paths of one word summed as FieldElements (reference_sums)."""
    r = len(matrix)
    ch = chern_character(matrix, u_trunc)      # the context and checks
    if ch.ctx.kind == "crossed":
        one = CrossedElement.one(ch.ctx.action, ch.ctx.h_trunc)
    else:
        one = TorusElement.one(ch.ctx.dim, ch.ctx.h_trunc)
    unit = [[[(lab, f.series) for lab, f in _entry_terms(one)]
             if i == j else [] for j in range(r)] for i in range(r)]
    ent = [[[(lab, f.series) for lab, f in _entry_terms(matrix[i][j])]
            for j in range(r)] for i in range(r)]
    items = []

    def walk(word, n, q, i0, i, labs, scal):
        slot_ = len(labs)
        if slot_ == len(word):
            items.append((ULaurent(u_trunc, {n: scal}),
                          [(tuple(labs), 1, q, 0)]))
            return
        grid = ent if word[slot_] else unit
        last = slot_ == len(word) - 1
        for j in (i0,) if last else range(r):
            for lab, hl in grid[i][j]:
                walk(word, n, q, i0, j, labs + [lab],
                     hl if scal is None else scal * hl)

    for n in range(u_trunc + 1):
        for word, q in chern_coefficients(n).items():
            for i0 in range(r):
                walk(word, n, FieldElement.rational(q), i0, i0, [], None)
    return ch, CyclicChain(ch.ctx, reference_sums(items))


CHARACTER_CONFIGS = {
    "conjugated": {"h_trunc": 4, "u_trunc": 2},
    "crossed-conjugated": {"idempotent": "crossed-conjugated", "h_trunc": 3,
                           "u_trunc": 1},
    "twisted-crossed": {"idempotent": "crossed-conjugated", "twist": [1, 2],
                        "h_trunc": 2, "u_trunc": 1},
    "order-4-crossed": {"idempotent": "crossed-conjugated", "group_order": 4,
                        "shifts": ["1/4", "1/2"], "cochain": "trivial",
                        "h_trunc": 2, "u_trunc": 1},
    "dim-2": {"dim": 2, "h_trunc": 1, "u_trunc": 1},
}


@pytest.mark.parametrize("name", sorted(CHARACTER_CONFIGS))
def test_character_against_path_walk(name):
    cfg = ScenarioConfig(**CHARACTER_CONFIGS[name])
    ch, want = reference_chern_character(cfg.idempotent_matrix(),
                                         cfg.u_trunc)
    assert_same_chain(ch, want)
    assert ch.mixed_boundary().is_zero()
