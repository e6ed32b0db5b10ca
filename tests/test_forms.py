import math
import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from starchain.cyclic import ChainContext, CyclicChain
from starchain.forms import FormalForm, hkr, j_shift, mu_normalization_chain
from starchain.scalars import FieldElement, HbarLaurent, ULaurent, to_text
from starchain.scenarios import ScenarioConfig, run_suite
from starchain.sparse import _acc
from starchain.torus import _merge_directions

H, U = 3, 2
SYM = ChainContext.sym(1, h_trunc=H, u_trunc=U)
SYM2 = ChainContext.sym(2, h_trunc=H, u_trunc=U)


def one():
    return ULaurent.one(U, H)


def rat(q):
    return ULaurent.from_hbar(HbarLaurent.from_rational(Fraction(q), H), U)


def scalar_form(dim, c):
    z = (0,) * dim
    return FormalForm.monomial(dim, z, z, (), c)


def x_form(e=1):
    return FormalForm.monomial(1, (e,), (0,), (), one())


def xi_form(e=1):
    return FormalForm.monomial(1, (0,), (e,), (), one())


def rand_coeff(rng):
    q = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2))
    h = HbarLaurent.from_rational(q, H, rng.randint(0, 1))
    return ULaurent.from_hbar(h, U, rng.randint(0, 1))


def rand_form(rng, dim=2, terms=3):
    out = FormalForm.zero(dim)
    for _ in range(terms):
        a = tuple(rng.randint(0, 2) for _ in range(dim))
        b = tuple(rng.randint(0, 2) for _ in range(dim))
        legs = tuple(sorted(rng.sample(range(2 * dim),
                                       rng.randint(0, 2 * dim))))
        out = out + FormalForm.monomial(dim, a, b, legs, rand_coeff(rng))
    return out


def rand_sym_chain(rng, ctx, degree, terms=2):
    acc = CyclicChain.zero(ctx)
    for _ in range(terms):
        word = tuple(
            (tuple(rng.randint(0, 1) for _ in range(ctx.dim)),
             tuple(rng.randint(0, 1) for _ in range(ctx.dim)))
            for _ in range(degree + 1))
        acc = acc + CyclicChain.word(ctx, word, rand_coeff(rng))
    return acc


# -- exterior derivative ---------------------------------------------------

def test_d_of_coordinate():
    assert x_form().d_hat() == FormalForm.monomial(1, (0,), (0,), (0,), one())


def test_d_of_product_monomial():
    xxi = FormalForm.monomial(1, (1,), (1,), (), one())
    expect = FormalForm.monomial(1, (0,), (1,), (0,), one()) + \
        FormalForm.monomial(1, (1,), (0,), (1,), one())
    assert xxi.d_hat() == expect


def test_d_squared_on_cubic():
    phi = FormalForm.monomial(1, (2,), (1,), (), one())
    assert phi.d_hat().d_hat().is_zero()


def test_d_squared_random():
    rng = random.Random(11)
    for _ in range(25):
        phi = rand_form(rng)
        assert phi.d_hat().d_hat().is_zero()


def test_d_hat_is_known_one_degree_below_the_order():
    # the top-degree terms of the derivative would come from the unknown
    # terms above the order
    phi = FormalForm.monomial(1, (2,), (1,), (), one(), order=3)
    assert phi.d_hat().order == 2
    assert phi.d_hat().d_hat().order == 1


def test_equality_reads_terms_through_the_smaller_order():
    x = FormalForm.monomial(1, (1,), (0,), (), one(), order=2)
    top = FormalForm.monomial(1, (2,), (1,), (0,), one(), order=4)
    wide = FormalForm(1, {**x.coeffs, **top.coeffs}, order=4)
    assert wide == x and x == wide
    assert wide != FormalForm(1, x.coeffs, order=4)
    low = FormalForm.monomial(1, (0,), (2,), (), one(), order=4)
    assert FormalForm(1, {**x.coeffs, **low.coeffs}, order=4) != x


def test_forms_bridge_passes_at_dim_2():
    # one trial reaches polynomial degree 16, the default order
    report = run_suite("forms-bridge", ScenarioConfig(dim=2))
    assert [c.passed for c in report.checks] == [True, True]


# -- chains to forms -------------------------------------------------------

def test_hkr_degree_zero():
    c = CyclicChain.word(SYM, (((0,), (0,)),))
    assert hkr(c) == scalar_form(1, one())


def test_hkr_paper_two_chain():
    c = CyclicChain.word(SYM, (((0,), (0,)), ((1,), (0,)), ((0,), (1,))))
    expect = FormalForm.monomial(1, (0,), (0,), (0, 1), rat(Fraction(1, 2)))
    assert hkr(c) == expect


def test_hkr_kills_degeneracies():
    rng = random.Random(13)
    for _ in range(10):
        c = rand_sym_chain(rng, SYM2, 1)
        assert hkr(c.degeneracy(0)).is_zero()
        assert hkr(c.degeneracy(1)).is_zero()


def test_hkr_chain_map_to_u_scaled_derivative():
    rng = random.Random(14)
    for ctx in (SYM, SYM2):
        for degree in (1, 2, 3):
            for _ in range(6):
                c = rand_sym_chain(rng, ctx, degree)
                assert hkr(c.boundary()).is_zero()
                lhs = hkr(c.mixed_boundary())
                rhs = hkr(c).d_hat().shift(1).truncate(ctx.u_trunc)
                assert lhs == rhs


# oracle: hkr once built (1/n!) w0 dw1 ^ ... ^ dwn slot by slot, from
# d_hat and the wedge of forms; the closed form must give the same keys,
# printed coefficients, u and hbar windows, levels and order.


def wedge(f, g):
    out: dict = {}
    for ((a1, b1), p), c1 in f.coeffs.items():
        for ((a2, b2), q), c2 in g.coeffs.items():
            legs, sign = _merge_directions(p, q)
            if legs is None:
                continue
            mono = (tuple(x + y for x, y in zip(a1, a2)),
                    tuple(x + y for x, y in zip(b1, b2)))
            c = c1 * c2
            _acc(out, (mono, legs), -c if sign < 0 else c)
    return FormalForm(f.dim, out, min(f.order, g.order), f.shifted)


def per_slot_hkr(chain, order):
    d, unit = chain.ctx.dim, chain.ctx.one()
    out = FormalForm.zero(d, order)
    for word, coeff in chain.coeffs.items():
        n = len(word) - 1
        acc = FormalForm.monomial(d, *word[0], (),
                                  coeff * Fraction(1, math.factorial(n)),
                                  order)
        for a, b in word[1:]:
            acc = wedge(acc,
                        FormalForm.monomial(d, a, b, (), unit, order).d_hat())
            if acc.is_zero():
                break
        out = out + acc
    return out


def form_layout(phi):
    """The order, and every key with its coefficient's u window and, per
    u power, hbar window, printed series and levels."""
    return phi.order, {
        key: (c.trunc, {p: (h.trunc, to_text(h),
                            {k: fe.level for k, fe in h.coeffs.items()})
                        for p, h in c.coeffs.items()})
        for key, c in phi.coeffs.items()}


@st.composite
def hkr_chains(draw):
    """A sym or weyl chain of dim 1 or 2 with up to three words of up to
    2d + 3 slots, each coefficient a sum of u powers -1..1 over hbar
    series of their own windows, some at level 12; and an order small
    enough to cut."""
    dim = draw(st.integers(1, 2))
    h, u = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    ctx = draw(st.sampled_from((ChainContext.sym, ChainContext.weyl)))(
        dim, h_trunc=h, u_trunc=u)
    exps = st.tuples(*[st.integers(0, 1)] * dim)
    slot = st.tuples(exps, exps)
    words = draw(st.lists(st.lists(slot, min_size=1, max_size=2 * dim + 3)
                          .map(tuple), min_size=1, max_size=3, unique=True))
    coeffs = {}
    for word in words:
        c = ULaurent.zero(u)
        for p in draw(st.lists(st.integers(-1, 1), min_size=1, max_size=2,
                               unique=True)):
            fe = FieldElement.zeta(draw(st.sampled_from((4, 12))),
                                   draw(st.integers(0, 11)))
            q = draw(st.fractions(min_value=-3, max_value=3,
                                  max_denominator=4).filter(bool))
            hb = HbarLaurent.from_field(fe * q, draw(st.integers(0, h)),
                                        draw(st.integers(0, 1)))
            c = c + ULaurent.from_hbar(hb, u, p)
        coeffs[word] = c
    return CyclicChain(ctx, coeffs), draw(st.integers(0, 8))


@settings(max_examples=150, deadline=None)
@given(hkr_chains())
# the two orderings of x and xi give opposite forms that cancel, and a
# unit slot kills its word
@example((CyclicChain(SYM, {
    (((0,), (0,)), ((1,), (0,)), ((0,), (1,))): one(),
    (((0,), (0,)), ((0,), (1,)), ((1,), (0,))): one(),
    (((1,), (0,)), ((0,), (0,))): one()}), 4))
# the first two words cancel on x dx^dxi at u window 1, and the third adds
# to it at u window 2: a sum of forms drops the cancelled term, window too
@example((CyclicChain(SYM, {
    (((1,), (0,)), ((1,), (0,)), ((0,), (1,))): one(),
    (((1,), (0,)), ((0,), (1,)), ((1,), (0,))): one().truncate(1),
    (((0,), (0,)), ((2,), (0,)), ((0,), (1,))): one()}), 4))
def test_hkr_matches_the_per_slot_wedge(case):
    chain, order = case
    assert form_layout(hkr(chain, order)) == \
        form_layout(per_slot_hkr(chain, order))


def test_sym_vocabulary_closure():
    rng = random.Random(15)
    c = rand_sym_chain(rng, SYM2, 2) + rand_sym_chain(rng, SYM2, 3)
    assert c.mixed_boundary().mixed_boundary().is_zero()


# -- u-power reindexing ----------------------------------------------------

def test_j_shift_windows_at_d1():
    c = rand_coeff(random.Random(16))
    zero_form = scalar_form(1, c)
    assert j_shift(zero_form).coeffs[(((0,), (0,)), ())] == c.shift(-1)
    two_form = FormalForm.monomial(1, (0,), (0,), (0, 1), c)
    assert j_shift(two_form).coeffs[(((0,), (0,)), (0, 1))] == c.shift(-3)
    assert j_shift(two_form).shifted


def test_j_shift_intertwines_derivatives():
    rng = random.Random(17)
    for _ in range(20):
        phi = rand_form(rng)
        lhs = j_shift(phi.d_hat().shift(1))
        rhs = j_shift(phi).d_hat()
        assert lhs == rhs


# -- the normalization chain -----------------------------------------------

def test_mu_chain_d1_terms():
    mu = mu_normalization_chain(1, h_trunc=H, u_trunc=U)
    z = (0,)
    plus = ((z, z), (z, (1,)), ((1,), z))
    minus = ((z, z), ((1,), z), (z, (1,)))
    assert set(mu.coeffs) == {plus, minus}
    assert mu.coeffs[plus] == ULaurent.one(U, H)
    assert mu.coeffs[minus] == -ULaurent.one(U, H)


def test_mu_chain_d2_term_count():
    mu = mu_normalization_chain(2, h_trunc=2, u_trunc=1)
    assert len(mu.coeffs) == 24
    assert all(len(k) == 5 for k in mu.coeffs)


def test_mu_chain_boundary_is_commutator():
    mu = mu_normalization_chain(1, h_trunc=H, u_trunc=U)
    z = (0,)
    unit = (z, z)
    minus_i_hbar = ULaurent.from_hbar(
        HbarLaurent.from_field(FieldElement.i_unit() * (-1), H, 1), U)
    expect = CyclicChain(mu.ctx, {(unit, unit): minus_i_hbar})
    assert mu.boundary() == expect
