import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from starchain.groups import CyclicGroup
from starchain.scalars import (FieldElement, HbarLaurent, _star_phase,
                               cyclotomic_polynomial, to_text)
from starchain.sparse import _acc
from starchain.torus import (
    CrossedElement,
    TorusElement,
    TorusForm,
    TranslationAction,
    WeylSection,
    jet,
    omega_pairing,
    symplectic_form,
)


I = FieldElement.i_unit()


def rand_torus(rng, dim=1, trunc=5, terms=3, span=2):
    out = TorusElement.zero(dim)
    for _ in range(terms):
        m = tuple(rng.randint(-span, span) for _ in range(2 * dim))
        c = HbarLaurent.from_rational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)), trunc,
            rng.randint(0, 1))
        out = out + TorusElement.plane_wave(dim, m, trunc, c)
    return out


def test_pairing_orientation():
    # first d slots are x-modes, last d are xi-modes
    assert omega_pairing((1, 0), (0, 1)) == -1
    assert omega_pairing((0, 1), (1, 0)) == 1
    assert omega_pairing((1, 0, 0, 0), (0, 0, 1, 0)) == -1
    assert omega_pairing((2, 3), (2, 3)) == 0


def test_wave_product_phase_frozen():
    em = TorusElement.plane_wave(1, (1, 0), 4)
    en = TorusElement.plane_wave(1, (0, 1), 4)
    c = em.star(en).coefficient((1, 1))
    # exp(2 pi^2 i hbar): linear coefficient is 2 pi^2 i
    assert c.coefficient(0) == FieldElement.rational(1)
    assert c.coefficient(1) == FieldElement.pi_power(2, 2) * I
    assert c.coefficient(2) == FieldElement.pi_power(4, -2)
    d = en.star(em).coefficient((1, 1))
    assert d.coefficient(1) == FieldElement.pi_power(2, -2) * I


def test_star_agrees_with_fiber_quantization():
    # jets multiply through the fiberwise Weyl-Moyal product, an independent
    # code path; the plane-wave phase formula must match it
    rng = random.Random(1234)
    for _ in range(8):
        a = rand_torus(rng, 1, trunc=2, terms=2)
        b = rand_torus(rng, 1, trunc=2, terms=2)
        assert jet(a, 5).star(jet(b, 5)) == jet(a.star(b), 5)


def test_star_associative_and_unital():
    rng = random.Random(911)
    one = TorusElement.one(1, 5)
    for _ in range(12):
        a, b, c = (rand_torus(rng) for _ in range(3))
        assert a.star(b).star(c) == a.star(b.star(c))
        assert one.star(a) == a and a.star(one) == a
    for _ in range(4):
        a, b, c = (rand_torus(rng, dim=2, trunc=3, terms=2, span=1)
                   for _ in range(3))
        assert a.star(b).star(c) == a.star(b.star(c))


def test_symbol_mul_is_commutative_shadow():
    rng = random.Random(13)
    for _ in range(10):
        a, b = rand_torus(rng), rand_torus(rng)
        s = a.symbol_mul(b)
        assert s == b.symbol_mul(a)
        diff = a.star(b) - s
        assert all(c.low >= 1 for c in diff.coeffs.values())


# Reference for the torus products: per (target mode, hbar power), the sum
# of the FieldElement products over every pair of plane waves, so each
# output coefficient sits at the lcm of the levels of every pair that
# reaches it, even where a partial sum cancels.  A pair's coefficient
# products are cut at the pair window before the star phase, every sum at
# its target's window, and zero sums are dropped only at the end.
# Operands are drawn with negative hbar powers and windows, so that some
# pair windows are negative and their phase is empty; with every
# coefficient at one level or at a level each; and over few modes, so that
# several pairs meet at one target, sometimes cancelling.


def reference_sums(pairs):
    """{target: HbarLaurent} from (target, cm, cn, pairing) pairs."""
    windows, prods_by_pair = {}, []
    for t, cm, cn, p in pairs:
        w = min(cm.trunc + cn.low, cn.trunc + cm.low)
        prods = [(i + j, a * b) for i, a in cm.coeffs.items()
                 for j, b in cn.coeffs.items() if i + j <= w]
        if p:
            phase = _star_phase(p, w).coeffs
            prods = [(k + s, c * f) for k, c in prods
                     for s, f in phase.items()]
            w += min(0, cm.low + cn.low)
        prods_by_pair.append((t, prods))
        windows[t] = min(w, windows.get(t, w))
    sums: dict = {}
    for t, prods in prods_by_pair:
        for k, c in prods:
            if k <= windows[t]:
                _acc(sums.setdefault(t, {}), k, c)
    return {t: HbarLaurent(w, sums.get(t, {})) for t, w in windows.items()}


def reference_product(x, y, phased):
    return TorusElement(x.dim, reference_sums(
        (tuple(a + b for a, b in zip(m, n)), cm, cn,
         omega_pairing(m, n) if phased else 0)
        for m, cm in x.coeffs.items() for n, cn in y.coeffs.items()))


@st.composite
def wave_coefficient(draw, level):
    """An hbar-series with 1-3 powers in [-3, trunc], trunc in [-2, 3];
    each coefficient has 1-2 terms, at level, or at a drawn level when
    level is None."""
    trunc = draw(st.integers(-2, 3))
    coeffs = {}
    for k in draw(st.lists(st.integers(-3, trunc), min_size=1, max_size=3,
                           unique=True)):
        lev = draw(st.sampled_from((4, 12, 60))) if level is None else level
        m = len(cyclotomic_polynomial(lev)) - 1
        coeffs[k] = FieldElement(lev, draw(st.dictionaries(
            st.tuples(st.integers(0, m - 1), st.integers(0, 2)),
            st.fractions(min_value=-9, max_value=9,
                         max_denominator=12).filter(bool),
            min_size=1, max_size=2)))
    return HbarLaurent(trunc, coeffs)


MODES = ((0, 0), (1, 0), (0, 1), (1, 1), (-1, 1))


@st.composite
def torus_operands(draw):
    """(x, y): drawn over five modes, so that pairs meet, or built so that two
    pairs meet at one target with opposite signs: with zero pairings, so
    that they cancel there, or with pairings -1 and 1, so that the even
    hbar powers of the phase cancel.  The second pair's window may be the
    smaller one.  A cancelling target may get a third, level-4 pair."""
    level = draw(st.sampled_from((4, 12, 60, None)))
    kind = draw(st.sampled_from(("drawn", "drawn", "cancel", "odd")))
    if kind == "drawn":
        def element():
            modes = draw(st.lists(st.sampled_from(MODES), min_size=1,
                                  max_size=3, unique=True))
            return TorusElement(1, {m: draw(wave_coefficient(level))
                                    for m in modes})
        return element(), element()
    c, d = draw(wave_coefficient(level)), draw(wave_coefficient(level))
    if kind == "cancel":
        # (u, u) and (2u, 0) both land on 2u, as cd and -cd
        u = draw(st.sampled_from(((1, 0), (0, 1), (1, -1))))
        m1, m2, n1, n2 = u, (2 * u[0], 2 * u[1]), u, (0, 0)
    else:
        # (1,0)+(0,1) and (0,1)+(1,0) carry exp(+-2 pi^2 i hbar)
        m1, m2, n1, n2 = (1, 0), (0, 1), (0, 1), (1, 0)
    # the second pair may have a smaller window: the sum cancels inside it
    cut = draw(st.integers(c.trunc - 2, c.trunc))
    x, y = {m1: c, m2: -c.truncate(cut)}, {n1: d, n2: d}
    if kind == "cancel" and draw(st.booleans()):
        # (0, 2u) lands on 2u too, at level 4
        x[(0, 0)], y[m2] = (draw(wave_coefficient(4)),
                            draw(wave_coefficient(4)))
    return TorusElement(1, x), TorusElement(1, y)


def assert_same_torus(got, want):
    assert got.coeffs.keys() == want.coeffs.keys()
    for m, c in got.coeffs.items():
        w = want.coeffs[m]
        assert c.trunc == w.trunc
        assert to_text(c) == to_text(w)
        assert {k: v.level for k, v in c.coeffs.items()} == \
            {k: v.level for k, v in w.coeffs.items()}


def one_term_waves(terms):
    return TorusElement(1, {m: HbarLaurent.from_field(fe, 2)
                            for m, fe in terms})


Z12 = FieldElement.zeta(12)
ONE = FieldElement.rational(1)


@settings(max_examples=200, deadline=None)
@given(torus_operands())
# at (2, 0) the level-12 pairs zeta_12 * 1 and -zeta_12 * 1 cancel beside
# the level-4 pair i * 1: the coefficient is i at level 12 (zeta^3)
@example((one_term_waves((((0, 0), Z12), ((1, 0), -Z12), ((2, 0), I))),
          one_term_waves((((2, 0), ONE), ((1, 0), ONE), ((0, 0), ONE)))))
def test_star_against_pairwise_reference(operands):
    x, y = operands
    assert_same_torus(x.star(y), reference_product(x, y, phased=True))
    assert_same_torus(x.symbol_mul(y), reference_product(x, y, phased=False))


def permuted(x, data):
    return TorusElement(x.dim, {m: x.coeffs[m] for m in
                                data.draw(st.permutations(list(x.coeffs)))})


@settings(max_examples=60, deadline=None)
@given(torus_operands(), st.data())
def test_products_ignore_term_order(operands, data):
    x, y = operands
    px, py = permuted(x, data), permuted(y, data)
    assert_same_torus(px.star(py), x.star(y))
    assert_same_torus(px.symbol_mul(py), x.symbol_mul(y))


# Reference for the crossed star: (a u_g)(b u_h) = (a * g(b)) u_gh summed as
# the torus reference sums, over every pair of plane waves of a and g(b),
# with the translation (and twist) phase from TranslationAction.apply and
# the star phase, per (target mode, gh, hbar power).


def reference_crossed(x, y):
    act, compose = x.action, x.action.group.compose
    sums = reference_sums(
        ((tuple(p + q for p, q in zip(m, n)), compose(g, h)), cm, cn,
         omega_pairing(m, n))
        for g, a in x.coeffs.items() for h, b in y.coeffs.items()
        for m, cm in a.coeffs.items()
        for n, cn in act.apply(g, b).coeffs.items())
    out: dict = {}
    for (m, gh), c in sums.items():
        out.setdefault(gh, {})[m] = c
    return CrossedElement(act, {gh: TorusElement(act.dim, waves)
                                for gh, waves in out.items()})


CROSSED_ACTIONS = (
    TranslationAction(1, CyclicGroup(None), (0, 0)),
    TranslationAction(1, CyclicGroup(None), (Fraction(1, 3), 0), twist=(0, 1)),
    TranslationAction(1, CyclicGroup(4), (Fraction(1, 4), Fraction(1, 2))),
)


@st.composite
def crossed_operands(draw):
    """(x, y) over one action, each with one to three group labels and one
    or two plane waves per label, so that several (g, h) pairs meet at one
    gh and mode."""
    act = draw(st.sampled_from(CROSSED_ACTIONS))
    level = draw(st.sampled_from((4, 12, None)))

    def element():
        labels = draw(st.lists(st.integers(-1, 2), min_size=1, max_size=3,
                               unique=True))
        return CrossedElement(act, {g: TorusElement(1, {
            m: draw(wave_coefficient(level))
            for m in draw(st.lists(st.sampled_from(MODES), min_size=1,
                                   max_size=2, unique=True))})
            for g in labels})
    return element(), element()


def assert_same_crossed(got, want):
    assert got.coeffs.keys() == want.coeffs.keys()
    for g, a in got.coeffs.items():
        assert_same_torus(a, want.coeffs[g])


def crossed_waves(act, terms):
    return CrossedElement(act, {g: one_term_waves(((m, fe),))
                                for g, m, fe in terms})


@settings(max_examples=50, deadline=None)
@given(crossed_operands())
# at gh = 2 and mode (0, 0) the level-12 pairs (0, 2) and (1, 1) cancel, and
# the level-4 pair (2, 0) lands there too: the coefficient is i at level 12
@example((crossed_waves(CROSSED_ACTIONS[0], ((0, (0, 0), Z12),
                                             (1, (0, 0), -Z12),
                                             (2, (0, 0), I))),
          crossed_waves(CROSSED_ACTIONS[0], ((2, (0, 0), ONE),
                                             (1, (0, 0), ONE),
                                             (0, (0, 0), ONE)))))
def test_crossed_star_against_pairwise_reference(operands):
    x, y = operands
    assert_same_crossed(x.star(y), reference_crossed(x, y))


def permuted_crossed(x, data):
    return CrossedElement(x.action, {
        g: permuted(x.coeffs[g], data)
        for g in data.draw(st.permutations(list(x.coeffs)))})


@settings(max_examples=30, deadline=None)
@given(crossed_operands(), st.data())
def test_crossed_star_ignores_term_order(operands, data):
    x, y = operands
    px, py = permuted_crossed(x, data), permuted_crossed(y, data)
    assert_same_crossed(px.star(py), x.star(y))


def test_trace_normalization_and_axioms():
    for d in (1, 2):
        one = TorusElement.one(d, 6)
        t = one.trace()
        # 1/(i hbar)^d
        assert t == HbarLaurent.from_field((I * (-1)) ** d, 6 - d, -d)
    rng = random.Random(515)
    for _ in range(15):
        a, b = rand_torus(rng), rand_torus(rng)
        assert a.star(b).trace() == b.star(a).trace()
    wave = TorusElement.plane_wave(1, (2, -1), 5)
    assert wave.trace().is_zero()


def test_trace_matches_symplectic_volume_integral():
    rng = random.Random(88)
    for _ in range(8):
        a = rand_torus(rng, 1, trunc=5)
        vol = symplectic_form(1, 5)
        lhs = a.trace()
        rhs = (TorusForm.from_function(a).wedge(vol)).integrate() \
            * HbarLaurent.from_field(I * (-1), 5, -1)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# group action


def test_translation_phases():
    act = TranslationAction(1, CyclicGroup(None), (Fraction(1, 4), 0))
    em = TorusElement.plane_wave(1, (1, 0), 4)
    for g in range(-4, 5):
        ph = act.apply(g, em).coefficient((1, 0)).coefficient(0)
        assert ph == I ** g
    # mode orthogonal to the translation is fixed
    en = TorusElement.plane_wave(1, (0, 3), 4)
    assert act.apply(1, en) == en


def fraction_phase(vector, g, mode):
    """exp(2 pi i g (mode . vector)) by the Fraction formula."""
    r = g * sum(Fraction(m) * Fraction(v) for m, v in zip(mode, vector))
    return FieldElement.zeta(4 * r.denominator, 4 * r.numerator)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=6),
                min_size=4, max_size=4),
       st.lists(st.integers(-5, 5), min_size=4, max_size=4),
       st.integers(-7, 7))
def test_integer_translation_phase_matches_fraction_formula(vector, mode, g):
    act = TranslationAction(2, CyclicGroup(None), vector)
    got = act.translation_phase(g, mode)
    want = fraction_phase(vector, g, mode)
    assert got.level == want.level
    assert to_text(got) == to_text(want)


def slotwise_phase(act, labels, modes, trunc):
    """The product of the slots' eigenvalues, each its translation phase
    times its twist phase exp(-4 pi^2 i hbar g <w, m>)."""
    scal = None
    for g, m in zip(labels, modes):
        ph = HbarLaurent.from_field(act.translation_phase(g, m), trunc)
        if act.twist is not None:
            ph = ph * _star_phase(2 * g * omega_pairing(act.twist, m), trunc)
        scal = ph if scal is None else scal * ph
    return scal


PHASE_ACTIONS = (
    TranslationAction(1, CyclicGroup(None), (Fraction(1, 3), Fraction(-1, 8))),
    TranslationAction(1, CyclicGroup(None), (Fraction(1, 2), Fraction(1, 6)),
                      twist=(1, -1)),
    TranslationAction(1, CyclicGroup(4), (Fraction(3, 4), Fraction(1, 2))),
)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(PHASE_ACTIONS),
       st.lists(st.tuples(st.integers(-5, 5),
                          st.tuples(st.integers(-3, 3), st.integers(-3, 3))),
                min_size=1, max_size=4),
       st.integers(0, 4))
# one label on every slot, as the action of g on a word has it
@example(PHASE_ACTIONS[1], [(2, (1, 0)), (2, (0, 1)), (2, (-1, 2))], 3)
# twist pairings of opposite sign that cancel in the sum
@example(PHASE_ACTIONS[1], [(1, (1, 0)), (-1, (1, 0))], 3)
def test_word_phase_is_slotwise_product(act, slots, trunc):
    labels, modes = zip(*slots)
    got = act.word_phase(labels, modes, trunc)
    want = slotwise_phase(act, labels, modes, trunc)
    assert got.trunc == want.trunc
    assert to_text(got) == to_text(want)
    assert {k: v.level for k, v in got.coeffs.items()} == \
        {k: v.level for k, v in want.coeffs.items()}


def test_word_phase_keeps_the_slot_level():
    # each slot is exp(2 pi i/8) at level 32; the word's phase is i, still
    # at level 32 (zeta^8), not at the level 16 of the summed mode alone
    act = TranslationAction(1, CyclicGroup(None), (Fraction(1, 8), 0))
    assert act.translation_phase(1, (1, 0)).level == 32
    ph = act.word_phase((1, 1), ((1, 0), (1, 0)), 3)
    assert ph.coefficient(0) == I and ph.coefficient(0).level == 32
    assert to_text(ph) == "(1/1)·ζ^8·π^0·ħ^0·u^0"
    assert to_text(ph) == \
        to_text(slotwise_phase(act, (1, 1), ((1, 0), (1, 0)), 3))
    # two slots of -1 at level 8 give 1 at level 8, not at level 4
    act = TranslationAction(1, CyclicGroup(None), (Fraction(1, 2), 0))
    ph = act.word_phase((1, 1), ((1, 0), (1, 0)), 3)
    assert ph.coefficient(0) == 1 and ph.coefficient(0).level == 8


def test_action_is_group_homomorphism():
    rng = random.Random(31)
    act = TranslationAction(1, CyclicGroup(None), (Fraction(1, 3), Fraction(1, 2)))
    for _ in range(10):
        a = rand_torus(rng)
        g, h = rng.randint(-3, 3), rng.randint(-3, 3)
        assert act.apply(g, act.apply(h, a)) == act.apply(g + h, a)
        b = rand_torus(rng)
        assert act.apply(g, a.star(b)) == act.apply(g, a).star(act.apply(g, b))
        assert act.apply(g, a).trace() == a.trace()


def test_finite_action_torsion():
    grp = CyclicGroup(4)
    act = TranslationAction(1, grp, (Fraction(3, 4), Fraction(1, 2)))
    rng = random.Random(7)
    a = rand_torus(rng)
    assert act.apply(4, a) == a
    assert act.apply(5, a) == act.apply(1, a)
    with pytest.raises(ValueError):
        TranslationAction(1, grp, (Fraction(1, 8), 0))


def test_twist_phase_frozen():
    act = TranslationAction(1, CyclicGroup(None), (0, 0), twist=(1, 0))
    en = TorusElement.plane_wave(1, (0, 1), 4)
    c = act.apply(1, en).coefficient((0, 1))
    # <w, n> = w_xi n_x - w_x n_xi = -1; phase exp(-4 pi^2 i hbar <w,n>)
    assert c.coefficient(0) == FieldElement.rational(1)
    assert c.coefficient(1) == FieldElement.pi_power(2, 4) * I
    ex = TorusElement.plane_wave(1, (1, 0), 4)
    assert act.apply(1, ex) == ex  # <(1,0),(1,0)> = 0


def test_twisted_action_properties():
    rng = random.Random(414)
    act = TranslationAction(1, CyclicGroup(None), (Fraction(1, 2), 0),
                            twist=(1, 1))
    for _ in range(8):
        a, b = rand_torus(rng), rand_torus(rng)
        g = rng.randint(-2, 2)
        assert act.apply(g, a.star(b)) == act.apply(g, a).star(act.apply(g, b))
        assert act.apply(-g, act.apply(g, a)) == a
        assert act.apply(g, a).trace() == a.trace()
    with pytest.raises(ValueError):
        TranslationAction(1, CyclicGroup(4), (0, 0), twist=(1, 0))


def test_crossed_product_algebra():
    rng = random.Random(101)
    act = TranslationAction(1, CyclicGroup(None), (Fraction(1, 3), 0),
                            twist=(0, 1))

    def rand_crossed():
        out = CrossedElement(act, {})
        for _ in range(2):
            out = out + CrossedElement(act, {rng.randint(-1, 1):
                                             rand_torus(rng)})
        return out

    for _ in range(8):
        A, B, C = rand_crossed(), rand_crossed(), rand_crossed()
        assert A.star(B).star(C) == A.star(B.star(C))
        one = CrossedElement.one(act, 5)
        assert one.star(A) == A and A.star(one) == A
        assert A.star(B).trace() == B.star(A).trace()
    # covariance relation
    b = rand_torus(rng)
    ug = CrossedElement(act, {1: TorusElement.one(1, 5)})
    ugi = CrossedElement(act, {-1: TorusElement.one(1, 5)})
    lhs = ug.star(CrossedElement(act, {0: b})).star(ugi)
    assert lhs == CrossedElement(act, {0: act.apply(1, b)})


# ---------------------------------------------------------------------------
# forms


def test_de_rham_complex():
    rng = random.Random(21)
    for _ in range(8):
        f = rand_torus(rng)
        F = TorusForm.from_function(f)
        assert F.d().d().is_zero()
        g = rand_torus(rng)
        G = TorusForm.basis_form(1, (0,), g)
        assert G.d().d().is_zero()
        # graded Leibniz in degree (0,1)
        assert (F.wedge(G)).d() == F.d().wedge(G) + F.wedge(G.d())


def test_wedge_antisymmetry():
    rng = random.Random(66)
    a = TorusForm.basis_form(1, (0,), rand_torus(rng))
    b = TorusForm.basis_form(1, (1,), rand_torus(rng))
    assert a.wedge(b) == -(b.wedge(a))
    assert a.wedge(a).is_zero()


def test_volume_normalization():
    for d in (1, 2):
        om = symplectic_form(d, 4)
        vol = TorusForm.from_function(TorusElement.one(d, 4))
        for _ in range(d):
            vol = vol.wedge(om)
        fact = 1
        for t in range(2, d + 1):
            fact *= t
        assert (vol * Fraction(1, fact)).integrate() == HbarLaurent.one(4)


def test_integral_kills_nonzero_modes_and_exact_forms():
    f = TorusElement.plane_wave(1, (1, 2), 4)
    top = TorusForm.basis_form(1, (0, 1), f)
    assert top.integrate().is_zero()
    g = TorusForm.basis_form(1, (1,), TorusElement.plane_wave(1, (3, 1), 4))
    assert g.d().integrate().is_zero()


# ---------------------------------------------------------------------------
# jets


def test_jet_is_star_homomorphism():
    rng = random.Random(2020)
    for _ in range(6):
        a = rand_torus(rng, trunc=2, terms=2)
        b = rand_torus(rng, trunc=2, terms=2)
        assert jet(a, 5).star(jet(b, 5)) == jet(a, 5).star(jet(b, 5))
        assert jet(a.star(b), 5) == jet(a, 5).star(jet(b, 5))
        assert jet(a, 5) + jet(b, 5) == jet(a + b, 5)


def test_jet_is_flat():
    rng = random.Random(4)
    for _ in range(5):
        a = rand_torus(rng, trunc=2, terms=2)
        for comp in jet(a, 5).nabla():
            assert comp.is_zero()


def test_fiber_wave_connection_defect():
    # the base-constant fiber wave of w has u^-1 nabla u = -2 pi i w_j in
    # direction j, the constant curvature source for twisted classes
    w = (2, -1)
    order = 5
    u = WeylSection.fiber_wave(1, w, order)
    uinv = WeylSection.fiber_wave(1, tuple(-c for c in w), order)
    assert u.star(uinv) == WeylSection.from_base(TorusElement.one(1, order // 2), order)
    for j, comp in enumerate(u.nabla()):
        val = uinv.star(comp)
        expected = WeylSection.from_base(
            TorusElement.one(1, (order - 1) // 2)
            * (FieldElement.pi_power(1, -2 * w[j]) * I), order - 1)
        assert val == expected


def test_fiber_wave_conjugation_matches_twist_phase():
    # conjugating a jet by the fiber wave reproduces exactly the twist phase
    # used by TranslationAction
    order = 6
    wvec = (1, 0)
    u = WeylSection.fiber_wave(1, wvec, order)
    uinv = WeylSection.fiber_wave(1, (-1, 0), order)
    act = TranslationAction(1, CyclicGroup(None), (0, 0), twist=wvec)
    rng = random.Random(3030)
    for _ in range(5):
        a = rand_torus(rng, trunc=2, terms=2)
        conj = u.star(jet(a, order)).star(uinv)
        assert conj == jet(act.apply(1, a), order)
