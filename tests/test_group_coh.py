import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from starchain.cyclic import ChainContext, CyclicChain, chern_character
from starchain.group_coh import (EquivariantClassCocycle, GroupCochain, cap,
                                 equivariant_ahat, equivariant_theta,
                                 form_pullback, phi_pair, TraceFunctional, trace_pair,
                                 word_to_form, _int_det)
from starchain.groups import CyclicGroup
from starchain.scalars import FieldElement, HbarLaurent, ULaurent, to_text
from starchain.torus import (CrossedElement, TorusElement, TorusForm,
                             TranslationAction, symplectic_form)

H = 5
U = 2
Z = CyclicGroup()
Z4 = CyclicGroup(4)
ACT = TranslationAction(1, Z, (Fraction(1, 3), Fraction(1, 5)))
TW_ACT = TranslationAction(1, Z, (Fraction(1, 3), Fraction(1, 5)), (1, 2))
FIN_ACT = TranslationAction(1, Z4, (Fraction(1, 4), Fraction(1, 2)))

# the carrying cocycle of Z/4, generating the degree-2 cohomology over Z
CARRY = GroupCochain.from_function(
    Z4, 2, lambda a: FieldElement.rational((a[0] + a[1]) // 4))


def inv_i_hbar(trunc=H):
    return HbarLaurent.from_field(FieldElement.i_unit() * (-1), trunc,
                                  power=-1)


def u_scalar(h, u_trunc=U, power=0):
    return ULaurent.from_hbar(h, u_trunc, power)


def rand_scalar(rng, u_trunc=U):
    num = rng.randint(-4, 4) or 1
    h = HbarLaurent.from_rational(Fraction(num, rng.choice([1, 2, 3])), H)
    return ULaurent.from_hbar(h, u_trunc, rng.randint(-1, 1))


def rand_crossed_key(rng, n, span=2):
    out = []
    for _ in range(n + 1):
        m = (rng.randint(-span, span), rng.randint(-span, span))
        out.append((m, rng.randint(-span, span)))
    return tuple(out)


def rand_crossed_chain(rng, ctx, deg, terms=3):
    coeffs = {}
    for _ in range(terms):
        coeffs[rand_crossed_key(rng, deg)] = rand_scalar(rng, ctx.u_trunc)
    return CyclicChain(ctx, coeffs)


def crossed_wave(act, m, g=0, trunc=H):
    return CrossedElement(act, {g: TorusElement.plane_wave(act.dim, m, trunc)})


def conjugated_idempotent(one, a, b):
    """V diag(1,0) V^(-1) for V = [[1,a],[0,1]] [[1,0],[b,1]]."""
    ab = a.star(b)
    return [[one + ab, -a - ab.star(a)], [b, -b.star(a)]]


# -- cochain basics --------------------------------------------------------

def test_polynomial_evaluation():
    xi = GroupCochain.polynomial(Z, 1, {(1,): 1})
    assert xi.evaluate((5,)) == FieldElement.rational(5)
    assert xi.evaluate((-2,)) == FieldElement.rational(-2)
    xi2 = GroupCochain.polynomial(Z, 2, {(1, 1): 1})
    assert xi2.evaluate((3, -4)) == FieldElement.rational(-12)
    c = GroupCochain.constant(Z, Fraction(2, 7))
    assert c.evaluate(()) == FieldElement.rational(Fraction(2, 7))


def test_coboundary_values():
    eta = GroupCochain.polynomial(Z, 1, {(2,): 1})
    d_eta = eta.coboundary()
    # n^2 - (m+n)^2 + m^2 = -2mn
    for m, n in [(2, 3), (-1, 4), (0, 5)]:
        assert d_eta.evaluate((m, n)) == FieldElement.rational(-2 * m * n)
    c = GroupCochain.constant(Z, 3)
    assert c.coboundary().evaluate((7,)).is_zero()


def test_cocycle_detection():
    assert GroupCochain.polynomial(Z, 1, {(1,): 1}).cocycle_witness() is None
    assert GroupCochain.polynomial(
        Z, 2, {(1, 1): 1}).cocycle_witness() is None
    eta = GroupCochain.polynomial(Z, 1, {(2,): Fraction(1, 2)})
    wit = eta.cocycle_witness()
    assert wit is not None
    args, val = wit
    assert eta.coboundary().evaluate(args) == val
    assert not val.is_zero()


def test_coboundary_squares_to_zero():
    rng = random.Random(11)
    for _ in range(5):
        xi = GroupCochain.polynomial(
            Z, 1, {(e,): rng.randint(-3, 3) for e in (1, 2)})
        assert xi.coboundary().cocycle_witness(span=4) is None


def test_finite_tables():
    assert CARRY.cocycle_witness() is None
    eta = GroupCochain.from_function(
        Z4, 1, lambda a: FieldElement.rational(Fraction(a[0] * (a[0] - 2), 3)))
    assert eta.coboundary().cocycle_witness() is None
    assert eta.evaluate((5,)) == eta.evaluate((1,))


def test_kind_restrictions():
    with pytest.raises(ValueError):
        GroupCochain.polynomial(Z4, 1, {(1,): 1})


def test_normalized_flag():
    assert GroupCochain.polynomial(Z, 1, {(1,): 1}).normalized
    assert not GroupCochain.polynomial(Z, 1, {(0,): 1}).normalized
    xi = GroupCochain.polynomial(Z, 2, {(1, 1): 1})
    assert xi.normalized and xi.coboundary().normalized


def test_cyclic_groups_keep_the_hash_contract():
    assert CyclicGroup(4) == CyclicGroup(4)
    assert hash(CyclicGroup(4)) == hash(CyclicGroup(4))
    assert CyclicGroup(4) != CyclicGroup(None)
    assert CyclicGroup(None) == CyclicGroup()
    assert hash(CyclicGroup(None)) == hash(CyclicGroup())


# -- form-valued cochains and class data -----------------------------------

def test_form_pullback_phases():
    f = TorusForm.from_function(TorusElement.plane_wave(1, (1, 1), H))
    g = form_pullback(ACT, 2, f)
    phase = ACT.translation_phase(2, (1, 1))
    assert g.coeffs[()].coefficient((1, 1)) == \
        HbarLaurent.from_field(phase, H)
    # translations are rigid, so pullback commutes with d
    assert form_pullback(ACT, 3, f.d()) == form_pullback(ACT, 3, f).d()


def test_theta_is_total_cocycle():
    assert equivariant_theta(ACT, H).total_cocycle_witness() is None
    assert equivariant_theta(TW_ACT, H).total_cocycle_witness() is None
    assert equivariant_theta(FIN_ACT, H).total_cocycle_witness() is None


def test_theta_components():
    th = equivariant_theta(ACT, H)
    assert th.bidegrees() == [(0, 2)]
    assert th.evaluate(0, 2, ()) == symplectic_form(1, H) * inv_i_hbar()
    tw = equivariant_theta(TW_ACT, H)
    assert tw.bidegrees() == [(0, 2), (1, 1)]
    lin = tw.evaluate(1, 1, (1,))
    # one leg per nonzero twist slot, coefficient -2 pi i w_j
    for j, wj in enumerate(TW_ACT.twist):
        c = lin.coeffs[(j,)].coefficient((0, 0))
        want = FieldElement.pi_power(1, -2 * wj) * FieldElement.i_unit()
        assert c == HbarLaurent.from_field(want, H)
    assert tw.evaluate(1, 1, (3,)) == lin * 3


def test_class_exponential():
    # at h_trunc 0 the window of theta = omega/(i hbar) is -1, below the
    # exact unit the exponential starts from
    act2 = TranslationAction(2, Z, (0, 0, 0, 0))
    for h in (H, 0):
        e1 = equivariant_theta(ACT, h).exponential()
        assert e1.bidegrees() == [(0, 0), (0, 2)]
        assert e1.evaluate(0, 2, ()) == symplectic_form(1, h) * inv_i_hbar(h)
        e2 = equivariant_theta(act2, h).exponential()
        w = symplectic_form(2, h) * inv_i_hbar(h)
        assert e2.evaluate(0, 4, ()) == w.wedge(w) * Fraction(1, 2)
        assert e2.evaluate(0, 4, ()).integrate() == \
            HbarLaurent.from_field(FieldElement.rational(-1), h).shift(-2)


def test_cup_associative():
    th = equivariant_theta(TW_ACT, H)
    ah = equivariant_ahat(TW_ACT, H)
    left = th.cup(ah).cup(th)
    right = th.cup(ah.cup(th))
    for pq in set(left.bidegrees()) | set(right.bidegrees()):
        for args in [(1,) * pq[0], (2,) * pq[0]]:
            assert left.evaluate(*pq, args) == right.evaluate(*pq, args)


def test_cup_koszul_sign():
    # two (1, 1) classes with different legs: moving the second factor's
    # group slot past the first factor's 1-form costs a sign, so at
    # (g1, g2) the (2, 2) part of the cup is -g1 g2 l1 ^ l2
    one = TorusElement.one(1, H)
    l1 = TorusForm.basis_form(1, (0,), one)
    l2 = TorusForm.basis_form(1, (1,), one * 3)
    a = EquivariantClassCocycle(ACT, {(1,): l1})
    b = EquivariantClassCocycle(ACT, {(1,): l2})
    assert a.bidegrees() == b.bidegrees() == [(1, 1)]
    ab, ba = a.cup(b), b.cup(a)
    assert ab.bidegrees() == ba.bidegrees() == [(2, 2)]
    for g1, g2 in [(2, 3), (-1, 4), (5, 1)]:
        assert ab.evaluate(2, 2, (g1, g2)) == l1.wedge(l2) * (-g1 * g2)
        assert ba.evaluate(2, 2, (g1, g2)) == l2.wedge(l1) * (-g1 * g2)
        assert ba.evaluate(2, 2, (g1, g2)) == l1.wedge(l2) * (g1 * g2)
    # an even number of group slots moves past the form with no sign
    c = EquivariantClassCocycle(ACT, {(1, 1): TorusForm.from_function(one)})
    assert a.cup(c).evaluate(3, 1, (1, 2, 3)) == l1 * 6


def test_scalar_and_form_coboundaries_agree():
    # g^2 fails the cocycle condition; as the only family of a class, times
    # a constant 0-form (which the translations fix), the total-cocycle
    # check must fail at the same arguments with the value times the form
    form = TorusForm.from_function(TorusElement.one(1, H) * 3)
    cls = EquivariantClassCocycle(ACT, {(2,): form})
    for span in (1, 2, 3):
        args, val = GroupCochain.polynomial(Z, 1, {(2,): 1}) \
            .cocycle_witness(span)
        bideg, cls_args, acc = cls.total_cocycle_witness(span)
        assert bideg == (2, 0)
        assert cls_args == args
        assert acc == form * val


def test_form_coboundary_acts_by_pullback():
    # a closed top form on a moving plane wave: d passes it, and the group
    # coboundary g^*f - f is the first failure
    f = TorusForm.basis_form(1, (0, 1), TorusElement.plane_wave(1, (1, 0), H))
    cls = EquivariantClassCocycle(ACT, {(): f})
    bideg, args, acc = cls.total_cocycle_witness()
    assert (bideg, args) == ((1, 2), (-2,))
    assert acc == form_pullback(ACT, -2, f) - f


# -- cap and the twisted traces --------------------------------------------

def test_cap_drops_leading_legs():
    from starchain.cyclic import EquivariantChain
    inner = ChainContext.torus(1, h_trunc=H, u_trunc=U)
    one = u_scalar(HbarLaurent.one(H))
    chain = EquivariantChain(inner, ACT, False, {
        (((0, 0), (1, 0)), (2, 3, -1)): one,
        (((0, 0),), (5,)): one,
    })
    xi2 = GroupCochain.polynomial(Z, 2, {(1, 1): 1})
    misses = []
    capped = cap(chain, xi2, mismatches=misses)
    assert capped.coeffs == {
        (((0, 0), (1, 0)), (-1,)): one * FieldElement.rational(6)}
    assert misses == [(((((0, 0),), (5,))), "group degree below cochain")]


def test_cap_rejects_unnormalized_cochains():
    # the non-homogeneous chains drop every word with an identity leg, so
    # a cochain that is nonzero there would lose those values
    from starchain.cyclic import EquivariantChain
    inner = ChainContext.torus(1, h_trunc=H, u_trunc=U)
    chain = EquivariantChain(inner, ACT, False, {
        (((0, 0),), (2,)): u_scalar(HbarLaurent.one(H))})
    shifted = GroupCochain.polynomial(Z, 1, {(0,): 1, (1,): 1})
    assert not shifted.normalized
    with pytest.raises(ValueError, match="normalized"):
        cap(chain, shifted)
    ctx = ChainContext.crossed(ACT, h_trunc=H, u_trunc=U)
    cls = equivariant_ahat(ACT, H)
    with pytest.raises(ValueError, match="normalized"):
        phi_pair(cls, shifted, CyclicChain.word(ctx, (((0, 0), 0),)))
    # degree 0 reads no leg, so any constant caps
    const = GroupCochain(Z, 0, "polynomial", {(): FieldElement.rational(2)})
    assert not const.normalized
    assert not cap(chain, const).is_zero()


def test_trace_functional_rejects_noncocycles():
    eta = GroupCochain.polynomial(Z, 1, {(2,): 1})
    with pytest.raises(ValueError, match="not closed"):
        TraceFunctional(eta)


def test_trace_of_unit():
    ctx = ChainContext.crossed(ACT, h_trunc=H, u_trunc=U)
    c = CyclicChain.word(ctx, (((0, 0), 0),))
    want = u_scalar(inv_i_hbar())
    assert TraceFunctional(GroupCochain.constant(Z, 1)).pair(c) == want
    assert trace_pair(c) == want
    tctx = ChainContext.torus(1, h_trunc=H, u_trunc=U)
    assert trace_pair(CyclicChain.word(tctx, ((0, 0),))) == want


def test_trace_word_fixture():
    """A two-letter word with labels g, -g pairs to xi(-g) times the
    trace of a0 * (g acting on a1)."""
    ctx = ChainContext.crossed(ACT, h_trunc=H, u_trunc=U)
    key = (((1, 1), 1), ((-1, -1), -1))
    c = CyclicChain.word(ctx, key)
    xi = GroupCochain.polynomial(Z, 1, {(1,): 1})
    t = TorusElement.plane_wave(1, (1, 1), H).star(
        ACT.apply(1, TorusElement.plane_wave(1, (-1, -1), H)))
    want = u_scalar(t.trace() * FieldElement.rational(-1))
    assert TraceFunctional(xi).pair(c) == want


def test_trace_skips_offdegree_and_nonidentity():
    ctx = ChainContext.crossed(ACT, h_trunc=H, u_trunc=U)
    T = TraceFunctional(GroupCochain.polynomial(Z, 1, {(1,): 1}))
    assert T.pair(CyclicChain.word(ctx, (((0, 0), 0),))).is_zero()
    assert T.pair(CyclicChain.word(
        ctx, (((0, 0), 1), ((0, 0), 2)))).is_zero()


def test_traces_kill_mixed_boundaries():
    rng = random.Random(501)
    ctx = ChainContext.crossed(ACT, h_trunc=H, u_trunc=U)
    fin_ctx = ChainContext.crossed(FIN_ACT, h_trunc=H, u_trunc=U)
    pairs = [
        (TraceFunctional(GroupCochain.polynomial(Z, 1, {(1,): 1})), ctx),
        (TraceFunctional(GroupCochain.polynomial(Z, 2, {(1, 1): 1})), ctx),
        (TraceFunctional(CARRY), fin_ctx),
    ]
    for T, cx in pairs:
        for _ in range(12):
            x = rand_crossed_chain(rng, cx, rng.choice([0, 1, 2]))
            assert T.pair(x.mixed_boundary()).is_zero()


def test_trace_pairing_conjugation_invariant():
    one = CrossedElement.one(ACT, H)
    E = conjugated_idempotent(one, crossed_wave(ACT, (1, 0), 1),
                              crossed_wave(ACT, (0, 1), -1))
    ch = chern_character(E, 1)
    c = crossed_wave(ACT, (1, 1), 2)
    E2 = [[E[0][0] + c.star(E[1][0]),
           E[0][1] - E[0][0].star(c) + c.star(E[1][1])
           - c.star(E[1][0]).star(c)],
          [E[1][0], E[1][1] - E[1][0].star(c)]]
    ch2 = chern_character(E2, 1)
    xi2 = GroupCochain.polynomial(Z, 2, {(1, 1): 1})
    T = TraceFunctional(xi2)
    assert T.pair(ch) == T.pair(ch2)
    T0 = TraceFunctional(GroupCochain.constant(Z, 1))
    assert T0.pair(ch) == T0.pair(ch2)
    assert T0.pair(ch) == u_scalar(inv_i_hbar(), 1)



# Oracle for the trace pairings: the element fold they ran before, which
# builds each slot as a plane wave, acts on it with TranslationAction.apply
# and multiplies with TorusElement.star.  It adds the zero trace of a word
# whose modes do not sum to zero, which can only lower the u window of the
# sum, so both sides are compared through the smaller of their windows.
# Its words are summed by the rule the pairings follow (grouping_free_sum),
# written here on FieldElements, not by a pairwise sum in word order.

def folded_trace(chain, degree, weight=None):
    ctx = chain.ctx
    h = ctx.h_trunc
    terms = []
    for key, coeff in chain.coeffs.items():
        if len(key) != degree + 1:
            continue
        if ctx.kind == "torus":
            t = TorusElement.plane_wave(ctx.dim, key[0], h)
            terms.append(coeff * t.trace())
            continue
        G = ctx.group
        labels = [g for _, g in key]
        if not G.is_identity(G.compose_all(labels)):
            continue
        t = TorusElement.plane_wave(ctx.dim, key[0][0], h)
        running = labels[0]
        for m, g in key[1:]:
            t = t.star(ctx.action.apply(
                running, TorusElement.plane_wave(ctx.dim, m, h)))
            running = G.compose(running, g)
        if weight is None:
            terms.append(coeff * t.trace())
        elif not (val := weight(labels)).is_zero():
            terms.append(coeff * (t.trace() * val))
    return grouping_free_sum(terms, ctx.u_trunc)


def grouping_free_sum(terms, u_trunc):
    """The sum of ULaurent terms by the pairings' rule, whatever their
    order: the least u window of the terms and, per u power, the least
    hbar window of those that reach it; each coefficient is summed as
    FieldElements, so it sits at the lcm of their levels also where part
    of it cancels."""
    if not terms:
        return ULaurent.zero(u_trunc)
    windows, sums = {}, {}
    for t in terms:
        for e, h in t.coeffs.items():
            windows[e] = min(windows.get(e, h.trunc), h.trunc)
            for c, fe in h.coeffs.items():
                sums[e, c] = fe if (e, c) not in sums else sums[e, c] + fe
    return ULaurent(min(t.trunc for t in terms), {
        e: HbarLaurent(w, {c: fe for (e2, c), fe in sums.items() if e2 == e})
        for e, w in windows.items()})


def assert_same_through_common_window(got, want):
    assert got == want
    w = min(got.trunc, want.trunc)
    got, want = got.truncate(w), want.truncate(w)
    assert to_text(got) == to_text(want)
    assert {k: (v.trunc, {p: fe.level for p, fe in v.coeffs.items()})
            for k, v in got.coeffs.items()} == \
        {k: (v.trunc, {p: fe.level for p, fe in v.coeffs.items()})
         for k, v in want.coeffs.items()}


FOLD_FUNCTIONALS = {
    "twisted": [TraceFunctional(xi) for xi in (
        GroupCochain.constant(Z, 3),
        GroupCochain.polynomial(Z, 1, {(1,): 1}),
        GroupCochain.polynomial(Z, 2, {(1, 1): 1}))],
    "order-4": [TraceFunctional(GroupCochain.constant(Z4, 1)),
                TraceFunctional(CARRY)],
}


@st.composite
def fold_chains(draw):
    """A chain of one to four words of degree 0-2 over twisted Z, over Z/4
    or over the torus; three words in four are closed (modes summing to
    zero, labels composing to the identity).  Coefficients carry hbar
    powers -1..1 at level 4 or 12, u powers -1..1 and u window 1 or 2."""
    kind = draw(st.sampled_from(("twisted", "order-4", "torus")))
    if kind == "torus":
        ctx = ChainContext.torus(1, h_trunc=3, u_trunc=1)
    else:
        act = TW_ACT if kind == "twisted" else FIN_ACT
        ctx = ChainContext.crossed(act, h_trunc=3, u_trunc=1)
    small = st.integers(-1, 1)
    coeffs = {}
    for _ in range(draw(st.integers(1, 4))):
        deg = 0 if kind == "torus" else draw(st.integers(0, 2))
        modes = [draw(st.tuples(small, small)) for _ in range(deg + 1)]
        labels = [draw(st.integers(-2, 2)) for _ in range(deg + 1)]
        if draw(st.sampled_from((True, True, True, False))):
            modes[-1] = tuple(-sum(c) for c in zip(*modes[:-1])) \
                if deg else (0, 0)
            labels[-1] = -sum(labels[:-1])
        key = tuple(modes) if kind == "torus" else tuple(zip(modes, labels))
        fe = FieldElement.zeta(draw(st.sampled_from((4, 12))),
                               draw(st.integers(0, 11)))
        h = HbarLaurent.from_field(fe * draw(st.sampled_from((1, -2))), 3,
                                   draw(small))
        coeffs[key] = ULaurent.from_hbar(h, draw(st.integers(1, 2)),
                                         draw(small))
    return kind, CyclicChain(ctx, coeffs)


def cancelling_fold_chain():
    """Three words whose first two pair to opposite values at level 12
    under the linear cochain and whose third pairs at level 4."""
    o = (0, 0)
    z12 = u_scalar(HbarLaurent.from_field(FieldElement.zeta(12), 3), 1)
    one = u_scalar(HbarLaurent.from_rational(1, 3), 1)
    ctx = ChainContext.crossed(TW_ACT, h_trunc=3, u_trunc=1)
    return CyclicChain(ctx, {((o, -1), (o, 1)): z12, ((o, 1), (o, -1)): z12,
                             ((o, -2), (o, 2)): one})


@settings(max_examples=100, deadline=None)
@given(fold_chains())
@example(("twisted", cancelling_fold_chain()))
def test_trace_pairings_match_the_element_fold(kind_chain):
    kind, chain = kind_chain
    assert_same_through_common_window(trace_pair(chain),
                                      folded_trace(chain, 0))
    for T in FOLD_FUNCTIONALS.get(kind, ()):
        assert_same_through_common_window(
            T.pair(chain),
            folded_trace(chain, T.xi.degree,
                         lambda labels: T.xi.evaluate(labels[1:])))


# -- pairings do not depend on word order -----------------------------------
#
# Words a and b pair to opposite values at level 12 and word c to a value
# at level 4.  A pairwise sum in insertion order drops the cancelled
# coefficient of a + b with its level, so the order a, b, c printed the
# pairing at level 4 and a, c, b at level 12.

ZERO_ACT = TranslationAction(1, Z, (Fraction(0), Fraction(0)))


def levels(x):
    return {fe.level for h in x.coeffs.values() for fe in h.coeffs.values()}


def assert_order_free(pair, ctx, words, coeffs):
    a, b, c = words
    values = []
    for order in ((a, b, c), (a, c, b)):
        chain = CyclicChain(ctx, dict(zip(order, map(coeffs.get, order))))
        assert list(chain.coeffs) == list(order)
        values.append(pair(chain))
    abc, acb = values
    assert not abc.is_zero()
    assert to_text(abc) == to_text(acb)
    assert levels(abc) == levels(acb) == {12}


def order_coeffs(words):
    z12 = u_scalar(HbarLaurent.from_field(FieldElement.zeta(12), 2), 1)
    one = u_scalar(HbarLaurent.from_rational(1, 2), 1)
    return dict(zip(words, (z12, z12, one)))


def test_trace_pairing_does_not_depend_on_word_order():
    ctx = ChainContext.crossed(ZERO_ACT, h_trunc=2, u_trunc=1)
    o = (0, 0)
    words = (((o, -1), (o, 1)), ((o, 1), (o, -1)), ((o, -2), (o, 2)))
    T = TraceFunctional(GroupCochain.polynomial(Z, 1, {(1,): 1}))
    assert_order_free(T.pair, ctx, words, order_coeffs(words))


def test_phi_pair_does_not_depend_on_word_order():
    # the word forms of a and b have opposite minors, that of c twice a's
    ctx = ChainContext.torus(1, h_trunc=2, u_trunc=1)
    words = (((-1, -1), (1, 0), (0, 1)), ((-1, -1), (0, 1), (1, 0)),
             ((-2, -1), (2, 0), (0, 1)))
    classes = equivariant_ahat(ZERO_ACT, 2).cup(
        equivariant_theta(ZERO_ACT, 2).exponential())
    xi = GroupCochain.constant(Z, 1)
    assert_order_free(lambda ch: phi_pair(classes, xi, ch), ctx, words,
                      order_coeffs(words))


# -- the transposed index pairing ------------------------------------------

def test_word_to_form_basics():
    f = word_to_form(1, ((0, 0), (1, 0), (0, 1)), H)
    dx_dxi = f.coeffs[(0, 1)]
    assert not dx_dxi.is_zero()
    assert word_to_form(1, ((2, 1),), H).coeffs[()] == \
        TorusElement.plane_wave(1, (2, 1), H)
    # three exterior derivatives exceed the surface dimension
    assert word_to_form(1, ((0, 0), (1, 0), (0, 1), (1, 1)), H).is_zero()
    # parallel rows: det 0 on the only 2-set, though no row is zero
    assert word_to_form(1, ((1, 1), (1, 2), (2, 4)), H).is_zero()
    # n = 2d at dim 3 has the one top key, on the summed mode
    word = ((0,) * 6,) + tuple(tuple(int(i == j) for i in range(6))
                               for j in range(6))
    f = word_to_form(3, word, H)
    assert list(f.coeffs) == [tuple(range(6))]
    assert list(f.coeffs[tuple(range(6))].coeffs) == [(1,) * 6]


def generic_word_to_form(dim, word, h_trunc):
    """The reference for word_to_form: (1/n!) w0 dw1 ^ ... ^ dwn built
    through the generic TorusForm.d and wedge."""
    acc = TorusForm.from_function(
        TorusElement.plane_wave(dim, word[0], h_trunc))
    for m in word[1:]:
        acc = acc.wedge(TorusForm.from_function(
            TorusElement.plane_wave(dim, m, h_trunc)).d())
        if acc.is_zero():
            return acc
    return acc * Fraction(1, math.factorial(len(word) - 1))


def form_layout(form):
    """Every key, window, printed coefficient and level of a form."""
    return {S: {m: (c.trunc, to_text(c),
                    {k: fe.level for k, fe in c.coeffs.items()})
                for m, c in v.coeffs.items()}
            for S, v in form.coeffs.items()}


@st.composite
def form_words(draw):
    dim = draw(st.integers(1, 3))
    slots = st.tuples(*[st.integers(-3, 3)] * (2 * dim))
    word = tuple(draw(st.lists(slots, min_size=1, max_size=2 * dim + 2)))
    return dim, word, draw(st.sampled_from((0, 2, 5)))


# parallel nonzero modes (every minor vanishes), a zero-mode slot, and
# n = 2d at dim 3
@settings(max_examples=150, deadline=None)
@given(form_words())
@example((1, ((1, 1), (1, 2), (2, 4)), H))
@example((2, ((1, 0, 2, 0), (0, 0, 0, 0), (1, 1, 0, 1)), H))
@example((3, ((1, -1, 0, 2, 0, 3), (1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0),
              (0, 2, 1, 0, 0, -3), (0, 0, 0, 1, 2, 0), (3, 0, 0, 0, 1, -1),
              (0, 0, 2, 0, 0, 1)), H))
def test_word_to_form_matches_the_generic_wedge(case):
    dim, word, h = case
    got = word_to_form(dim, word, h)
    want = generic_word_to_form(dim, word, h)
    assert got.dim == want.dim == dim
    assert form_layout(got) == form_layout(want)


@st.composite
def int_matrices(draw):
    n = draw(st.integers(0, 8))
    bound = draw(st.sampled_from((1, 3, 50)))
    entries = st.integers(-bound, bound)
    return [draw(st.lists(entries, min_size=n, max_size=n))
            for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(int_matrices())
@example([])
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 2, 3], [4, 5, 6]])
@example([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
@example([[0, 1, 2], [0, 3, 4], [0, 5, 6]])
def test_int_det_matches_sympy(rows):
    want = sympy.Matrix(len(rows), len(rows),
                        [x for r in rows for x in r]).det(method="berkowitz")
    assert _int_det(rows) == int(want)


def test_phi_pair_unit():
    cls = equivariant_ahat(ACT, H).cup(equivariant_theta(ACT, H).exponential())
    xi0 = GroupCochain.constant(Z, 1)
    ctx = ChainContext.crossed(ACT, h_trunc=H, u_trunc=U)
    c = CyclicChain.word(ctx, (((0, 0), 0),))
    want = u_scalar(inv_i_hbar())
    assert phi_pair(cls, xi0, c) == want
    tctx = ChainContext.torus(1, h_trunc=H, u_trunc=U)
    assert phi_pair(cls, xi0, CyclicChain.word(tctx, ((0, 0),))) == want


def test_phi_pair_unit_surface_dim_two():
    act2 = TranslationAction(2, Z, (0,) * 4)
    cls = equivariant_ahat(act2, H).cup(
        equivariant_theta(act2, H).exponential())
    tctx = ChainContext.torus(2, h_trunc=H, u_trunc=U)
    c = CyclicChain.word(tctx, ((0, 0, 0, 0),))
    want = u_scalar(HbarLaurent.from_field(
        FieldElement.rational(-1), H).shift(-2))
    assert phi_pair(cls, GroupCochain.constant(Z, 1), c) == want
    assert trace_pair(c) == want


def test_phi_pair_flags_torus_mismatch():
    cls = equivariant_ahat(ACT, H)
    tctx = ChainContext.torus(1, h_trunc=H, u_trunc=U)
    c = CyclicChain.word(tctx, ((0, 0),))
    misses = []
    out = phi_pair(cls, GroupCochain.polynomial(Z, 1, {(1,): 1}), c,
                   mismatches=misses)
    assert out.is_zero() and misses


def test_index_pairing_torus_idempotent():
    """Both trace and integral pairings of the character of a conjugated
    plane-wave idempotent give the symplectic volume of the leaf."""
    one = TorusElement.one(1, H)
    em = TorusElement.plane_wave(1, (1, 0), H)
    en = TorusElement.plane_wave(1, (0, 1), H)
    ab = em.star(en)
    E = [[one + ab, -em - ab.star(em)], [en, -en.star(em)]]
    ch = chern_character(E, U)
    want = u_scalar(inv_i_hbar())
    assert trace_pair(ch) == want
    cls = equivariant_ahat(ACT, H).cup(equivariant_theta(ACT, H).exponential())
    assert phi_pair(cls, GroupCochain.constant(Z, 1), ch) == want


def test_index_pairing_crossed_degenerates():
    one = CrossedElement.one(ACT, H)
    E = conjugated_idempotent(one, crossed_wave(ACT, (1, 0), 1),
                              crossed_wave(ACT, (0, 1), -1))
    ch = chern_character(E, U)
    assert ch.mixed_boundary().is_zero()
    cls = equivariant_ahat(ACT, H).cup(equivariant_theta(ACT, H).exponential())
    xi0 = GroupCochain.constant(Z, 1)
    lhs = TraceFunctional(xi0).pair(ch)
    rhs = phi_pair(cls, xi0, ch)
    assert lhs == u_scalar(inv_i_hbar())
    assert rhs == lhs
    xi2 = GroupCochain.polynomial(Z, 2, {(1, 1): 1})
    assert phi_pair(cls, xi2, ch) == TraceFunctional(xi2).pair(ch)


def test_equivariant_pairing_constant_idempotent():
    one = CrossedElement.one(ACT, H)
    zero = CrossedElement(ACT, {})
    ch = chern_character([[one, zero], [zero, zero]], U)
    xi = GroupCochain.polynomial(Z, 1, {(1,): 1})
    cls = equivariant_ahat(ACT, H).cup(equivariant_theta(ACT, H).exponential())
    assert TraceFunctional(xi).pair(ch).is_zero()
    assert phi_pair(cls, xi, ch).is_zero()
