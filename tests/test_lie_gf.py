import random
from fractions import Fraction

import pytest

from starchain.cyclic import ChainContext, CyclicChain
from starchain.group_coh import (GroupCochain, equivariant_ahat,
                                 equivariant_theta, phi_pair, TraceFunctional)
from starchain.groups import CyclicGroup
from starchain.lie_gf import (TRACE, InvariantConnection, LieCochain,
                              a_hat_series, gf_form,
                              gelfand_fuks_equivariant, i_xi,
                              lie_differential, theta_hat_cochain)
from starchain.scalars import FieldElement, HbarLaurent, ULaurent
from starchain.torus import TranslationAction, symplectic_form
from starchain.weyl import Derivation, WeylElement

DIM = 1
ORDER = 10
H, U = 5, 2
Z = CyclicGroup()
ACT = TranslationAction(1, Z, (Fraction(1, 3), Fraction(1, 5)))
TW_ACT = TranslationAction(1, Z, (Fraction(1, 3), Fraction(1, 5)), (1, 2))


def fact(n):
    out = 1
    for t in range(2, n + 1):
        out *= t
    return out


def rand_weyl(rng, terms=3):
    w = WeylElement.zero(DIM, ORDER)
    for _ in range(terms):
        a = (rng.randint(0, 2),)
        b = (rng.randint(0, 2),)
        k = rng.randint(0, 1)
        c = Fraction(rng.randint(-3, 3) or 1, rng.choice([1, 2]))
        w = w + WeylElement.monomial(DIM, a, b, k, c, ORDER)
    return w


def rand_cochain(rng, arity):
    keys = [((rng.randint(0, 2),), (rng.randint(0, 2),), rng.randint(0, 1))
            for _ in range(arity)]
    return LieCochain.coefficient_product(keys)


def test_cochains_alternate():
    rng = random.Random(5)
    lam = rand_cochain(rng, 2)
    x, y = Derivation(rand_weyl(rng)), Derivation(rand_weyl(rng))
    assert lam.evaluate((x, y)) == lam.evaluate((y, x)) * (-1)
    assert lam.evaluate((x, x)).is_zero()


def test_differential_squares_to_zero():
    rng = random.Random(9)
    for arity in (1, 2):
        dd = lie_differential(lie_differential(rand_cochain(rng, arity)))
        for _ in range(4):
            xs = tuple(Derivation(rand_weyl(rng))
                       for _ in range(arity + 2))
            assert dd.evaluate(xs).is_zero()


def test_connection_flat_and_lift_values():
    conn = InvariantConnection(DIM, ORDER)
    for a in range(2 * DIM):
        for b in range(a + 1, 2 * DIM):
            assert conn.component(a).bracket(conn.component(b)).rep.is_zero()
    # x-lift sends x_hat to 1
    img = conn.component(0).apply(WeylElement.x_hat(DIM, 0, ORDER))
    assert img == WeylElement.one(DIM, ORDER) * (
        FieldElement.i_unit() * FieldElement.i_unit())


def test_defect_cochain_value():
    conn = InvariantConnection(DIM, ORDER)
    th = theta_hat_cochain()
    v = th.evaluate((conn.component(0), conn.component(1)))
    assert v == HbarLaurent.from_field(FieldElement.i_unit(), 3, power=-1)
    assert th.evaluate((conn.component(0), conn.component(0))).is_zero()


def test_gf_form_of_defect_is_scaled_symplectic():
    conn = InvariantConnection(DIM, ORDER)
    got = gf_form(theta_hat_cochain(), conn, H)
    want = symplectic_form(DIM, H) * HbarLaurent.from_field(
        FieldElement.i_unit() * (-1), H, power=-1)
    assert got == want


def test_gf_intertwines_differentials():
    """Both routes from 1-cochains to 2-forms agree; with the flat
    invariant connection both sides also vanish, which the test computes
    rather than assumes."""
    rng = random.Random(23)
    conn = InvariantConnection(DIM, ORDER)
    for _ in range(50):
        lam = rand_cochain(rng, 1)
        lhs = gf_form(lie_differential(lam), conn, H)
        rhs = gf_form(lam, conn, H).d()
        assert lhs == rhs
        assert lhs.is_zero()


def test_genus_series_against_independent_expansion():
    """Series inversion done a second way: solve the triangular system
    for (x/2)/sinh(x/2) directly, then reduce the two-root product by
    hand (t1^2 + t2^2 = e1^2 - 2 e2)."""
    n = 4
    g = [Fraction(1, 4 ** k * fact(2 * k + 1)) for k in range(n)]
    f = [Fraction(0)] * n
    f[0] = Fraction(1)
    for k in range(1, n):
        f[k] = -sum(f[j] * g[k - j] for j in range(k))
    assert f[1] == Fraction(-1, 24)
    series = a_hat_series(2)
    assert series[()] == 1
    assert series[(1,)] == f[1]
    assert series[(1, 1)] == f[2]
    assert series[(2,)] == -2 * f[2] + f[1] * f[1]
    assert series[(1, 1)] == Fraction(7, 5760)
    assert series[(2,)] == Fraction(-1, 1440)
    assert all(sum(mono) <= 2 for mono in series)
    deeper = a_hat_series(3)
    for mono, c in series.items():
        assert deeper[mono] == c


def test_jet_class_data_matches_arithmetic_route():
    for act in (ACT, TW_ACT):
        jet = gelfand_fuks_equivariant(act, H)
        arith = equivariant_theta(act, H)
        assert jet.bidegrees() == arith.bidegrees()
        for p, q in jet.bidegrees():
            for g in (1, -2, 3):
                args = (g,) * p
                assert jet.evaluate(p, q, args) == arith.evaluate(p, q, args)


def test_i_xi_matches_twisted_traces():
    rng = random.Random(321)
    ctx = ChainContext.crossed(ACT, h_trunc=H, u_trunc=U)

    def rand_chain(deg):
        coeffs = {}
        for _ in range(2):
            key = tuple(((rng.randint(-2, 2), rng.randint(-2, 2)),
                         rng.randint(-2, 2)) for _ in range(deg + 1))
            num = rng.randint(-4, 4) or 1
            coeffs[key] = ULaurent.from_hbar(
                HbarLaurent.from_rational(Fraction(num, 2), H), U,
                rng.randint(-1, 1))
        return CyclicChain(ctx, coeffs)

    cochains = [GroupCochain.constant(Z, 1),
                GroupCochain.polynomial(Z, 1, {(1,): 1}),
                GroupCochain.polynomial(Z, 2, {(1, 1): 1})]
    for k, xi in enumerate(cochains):
        T = TraceFunctional(xi)
        for _ in range(6):
            c = rand_chain(k)
            assert i_xi(TRACE, xi, c) == T.pair(c)


def test_i_xi_class_data_delegates():
    ctx = ChainContext.crossed(ACT, h_trunc=H, u_trunc=U)
    c = CyclicChain.word(ctx, (((0, 0), 0),))
    cls = equivariant_ahat(ACT, H).cup(equivariant_theta(ACT, H).exponential())
    xi0 = GroupCochain.constant(Z, 1)
    assert i_xi(cls, xi0, c) == phi_pair(cls, xi0, c)
    with pytest.raises(TypeError):
        i_xi("something else", xi0, c)
