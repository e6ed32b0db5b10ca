"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Run with -v to get one pass/fail line per criterion.  Every comparison
is an exact equality of field elements or truncated series; there are
no tolerances anywhere.  Random instances are drawn from fixed seeds,
and timed criteria assert their own wall-clock budgets.
"""

import json
import random
import time
from fractions import Fraction

from starchain.cyclic import (ChainContext, CyclicChain, EquivariantChain,
                              alexander_whitney, chern_character, d_map,
                              coinvariants_to_homogeneous,
                              homogeneous_to_coinvariants, q_map)
from starchain.forms import FormalForm, hkr, j_shift, mu_normalization_chain
from starchain.group_coh import (GroupCochain, equivariant_ahat,
                                 equivariant_theta, phi_pair, TraceFunctional,
                                 trace_pair)
from starchain.groups import CyclicGroup
from starchain.lie_gf import (InvariantConnection, LieCochain, a_hat_series,
                              gelfand_fuks_equivariant, gf_form,
                              lie_differential, theta_hat_cochain)
from starchain.scalars import FieldElement, HbarLaurent, ULaurent
from starchain.scenarios import (Report, ScenarioConfig, emit_report,
                                 index_check, run_suite)
from starchain.torus import (CrossedElement, TorusElement, TranslationAction,
                             symplectic_form)
from starchain.weyl import (Derivation, WeylElement, extension_defect,
                            sp_quadratic_basis)

H, U = 3, 2
Z = CyclicGroup()
Z4 = CyclicGroup(4)
Z_ACT = TranslationAction(1, Z, (Fraction(1, 3), Fraction(1, 5)))
TW_ACT = TranslationAction(1, Z, (Fraction(1, 3), Fraction(1, 5)), (1, 2))
FIN_ACT = TranslationAction(1, Z4, (Fraction(1, 4), Fraction(1, 2)))

I = FieldElement.i_unit()


def inv_i_hbar(trunc):
    return HbarLaurent.from_field(I * (-1), trunc, power=-1)


def rand_scalar(ctx, rng, u_power=None):
    """A one-term scalar; its u power is drawn from 0 and 1 unless given."""
    q = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2))
    hp = rng.randint(0, 1) if ctx.h_trunc > 0 else 0
    h = HbarLaurent.from_rational(q, ctx.h_trunc, hp)
    up = rng.randint(0, 1)
    return ULaurent.from_hbar(h, ctx.u_trunc, up if u_power is None
                              else u_power)


def rand_mode(ctx, rng):
    return tuple(rng.randint(-1, 1) for _ in range(2 * ctx.dim))


def rand_key(ctx, rng, degree):
    k = ctx.kind
    if k == "torus":
        return tuple(rand_mode(ctx, rng) for _ in range(degree + 1))
    if k in ("weyl", "sym"):
        return tuple(
            (tuple(rng.randint(0, 1) for _ in range(ctx.dim)),
             tuple(rng.randint(0, 1) for _ in range(ctx.dim)))
            for _ in range(degree + 1))
    if k == "group":
        return tuple(ctx.group.sample(rng, 2) for _ in range(degree + 1))
    if k == "crossed":
        return tuple((rand_mode(ctx, rng), ctx.group.sample(rng, 2))
                     for _ in range(degree + 1))
    if k == "diag":
        modes = [rand_mode(ctx, rng) for _ in range(degree + 1)]
        return tuple(zip(modes, [ctx.group.sample(rng, 2)
                                 for _ in range(degree + 1)]))
    if k == "idem":
        return tuple(rng.randint(0, 1) for _ in range(degree + 1))
    raise AssertionError(k)


def rand_chain(ctx, rng, degree, terms=1, u_power=None):
    acc = CyclicChain.zero(ctx)
    for _ in range(terms):
        acc = acc + CyclicChain.word(ctx, rand_key(ctx, rng, degree),
                                     rand_scalar(ctx, rng, u_power))
    return acc


def rand_identity_chain(ctx, rng, degree, terms=1):
    g = ctx.group
    acc = CyclicChain.zero(ctx)
    for _ in range(terms):
        labels = [g.sample(rng, 2) for _ in range(degree)]
        labels.append(g.inverse(g.compose_all(labels)))
        key = tuple((rand_mode(ctx, rng), lab) for lab in labels)
        acc = acc + CyclicChain.word(ctx, key, rand_scalar(ctx, rng))
    return acc


def rand_coinv_key(ctx, rng, degree):
    alg = tuple(rand_mode(ctx, rng) for _ in range(degree + 1))
    grp = (ctx.group.identity,) + tuple(ctx.group.sample(rng, 2)
                                        for _ in range(degree))
    return tuple(zip(alg, grp))


def rand_equivariant(ctx, act, rng, homogeneous, q, p):
    G = act.group
    if ctx.kind == "diag":
        ik = rand_coinv_key(ctx, rng, q)
    else:
        ik = rand_key(ctx, rng, q)
    if homogeneous:
        gw = tuple(G.sample(rng, 2) for _ in range(p + 1))
    else:
        gw = tuple(rng.choice([-2, -1, 1, 2]) if G.order is None
                   else rng.randrange(1, G.order) for _ in range(p))
    return EquivariantChain(ctx, act, homogeneous, {(ik, gw):
                                                    rand_scalar(ctx, rng)})


def rand_torus_elt(rng, h_trunc, span=3, terms=3):
    out = TorusElement.zero(1)
    for _ in range(terms):
        mode = (rng.randint(-span, span), rng.randint(-span, span))
        q = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 3))
        c = HbarLaurent.from_rational(q, h_trunc, rng.randint(0, 1))
        out = out + TorusElement.plane_wave(1, mode, h_trunc) * c
    return out


def rand_weyl_elt(rng, order, terms=3):
    w = WeylElement.zero(1, order)
    for _ in range(terms):
        w = w + WeylElement.monomial(
            1, (rng.randint(0, 2),), (rng.randint(0, 2),),
            rng.randint(0, 1), Fraction(rng.randint(-6, 6) or 1, 2), order)
    return w


def conjugated_idempotent(one, a, b):
    ab = a.star(b)
    return [[one + ab, -a - ab.star(a)], [b, -b.star(a)]]


# -- criterion 1: star products associate ----------------------------------

def test_criterion_01_star_associativity():
    t0 = time.monotonic()
    rng = random.Random(101)
    for _ in range(200):
        a, b, c = (rand_torus_elt(rng, 6) for _ in range(3))
        assert a.star(b).star(c) == a.star(b.star(c))
    for _ in range(200):
        a, b, c = (rand_weyl_elt(rng, 6) for _ in range(3))
        assert a.star(b).star(c) == a.star(b.star(c))
    assert time.monotonic() - t0 < 60.0


# -- criterion 2: canonical commutation ------------------------------------

def test_criterion_02_generator_commutators():
    for d in (1, 2):
        i_h = WeylElement.hbar(d, 1, 8) * I
        for j in range(d):
            x = WeylElement.x_hat(d, j, 8)
            xi = WeylElement.xi_hat(d, j, 8)
            assert xi.star(x) - x.star(xi) == i_h
            assert x.star(xi) - xi.star(x) == i_h * (-1)
        for j in range(d):
            for k in range(d):
                if j != k:
                    x = WeylElement.x_hat(d, j, 8)
                    xi = WeylElement.xi_hat(d, k, 8)
                    assert xi.star(x) == x.star(xi)


# -- criterion 3: trace normalization and vanishing on commutators ---------

def test_criterion_03_trace_properties():
    for d in (1, 2):
        one = TorusElement.one(d, 6)
        assert one.trace() == HbarLaurent.from_field((I * (-1)) ** d,
                                                     6 - d, -d)
    rng = random.Random(103)
    for _ in range(100):
        a, b = rand_torus_elt(rng, 4), rand_torus_elt(rng, 4)
        assert (a.star(b) - b.star(a)).trace().is_zero()


# -- criterion 4: operator relations in every chain vocabulary -------------

CTXS4 = [
    ChainContext.torus(1, h_trunc=H, u_trunc=U),
    ChainContext.weyl(1, h_trunc=H, u_trunc=U),
    ChainContext.group_labels(Z4, u_trunc=U),
    ChainContext.crossed(Z_ACT, h_trunc=H, u_trunc=U),
    ChainContext.crossed(FIN_ACT, h_trunc=H, u_trunc=U),
    ChainContext.diagonal(TW_ACT, H, U, coinvariant=False),
    ChainContext.idem(u_trunc=U),
]


def _full_relation_sweep(x, n):
    for j in range(1, n + 1):
        for i in range(j):
            assert x.face(j).face(i) == x.face(i).face(j - 1)
    for j in range(n + 1):
        for i in range(j + 1):
            assert x.degeneracy(j).degeneracy(i) == \
                x.degeneracy(i).degeneracy(j + 1)
    for j in range(n + 1):
        for i in range(n + 2):
            y = x.degeneracy(j).face(i)
            if i < j:
                assert y == x.face(i).degeneracy(j - 1)
            elif i in (j, j + 1):
                assert y == x
            else:
                assert y == x.face(i - 1).degeneracy(j)
    assert x.rotate(n + 1) == x
    for i in range(n):
        assert x.rotate().face(i) == x.face(i + 1).rotate()


def test_criterion_04_complex_relations():
    for ctx in CTXS4:
        rng = random.Random(1040 + hash(ctx.kind) % 97)
        x = rand_chain(ctx, rng, 2, terms=2)
        _full_relation_sweep(x, 2)
        for trial in range(100):
            n = rng.randint(1, 4)
            x = rand_chain(ctx, rng, n)
            assert x.boundary().boundary().is_zero()
            assert x.connes_boundary().connes_boundary().is_zero()
            assert (x.boundary().connes_boundary()
                    + x.connes_boundary().boundary()).is_zero()
            if n >= 2:
                j = rng.randint(1, n)
                i = rng.randrange(j)
                assert x.face(j).face(i) == x.face(i).face(j - 1)
            assert x.rotate(n + 1) == x


# -- criterion 5: splittings, coordinate changes, homotopies ---------------

def test_criterion_05_rewrites_and_chain_maps():
    small_h, small_u = 2, 1
    for act in (Z_ACT, FIN_ACT):
        xctx = ChainContext.crossed(act, h_trunc=small_h, u_trunc=small_u)
        rng = random.Random(105)
        for _ in range(50):
            x = rand_identity_chain(xctx, rng, rng.randint(0, 2))
            f = homogeneous_to_coinvariants(x)
            assert coinvariants_to_homogeneous(f) == x
            assert homogeneous_to_coinvariants(
                coinvariants_to_homogeneous(f)) == f
            assert homogeneous_to_coinvariants(x.mixed_boundary()) == \
                f.mixed_boundary()
            assert homogeneous_to_coinvariants(x.rotate()) == f.rotate()

    for act in (TW_ACT, FIN_ACT):
        tctx = ChainContext.torus(1, h_trunc=small_h, u_trunc=small_u)
        rng = random.Random(205)
        for _ in range(50):
            q, p = rng.randint(0, 2), rng.randint(0, 2)
            y = rand_equivariant(tctx, act, rng, False, q, p)
            assert y.to_homogeneous().to_nonhomogeneous() == y
            x = rand_equivariant(tctx, act, rng, True, q, p)
            z = x.to_nonhomogeneous()
            assert z.to_homogeneous().to_nonhomogeneous() == z

    for act in (TW_ACT, FIN_ACT):
        dctx = ChainContext.diagonal(act, small_h, small_u, coinvariant=True)
        rng = random.Random(305)
        for _ in range(50):
            x = rand_equivariant(dctx, act, rng, True, rng.randint(0, 1),
                                 rng.randint(1, 2))
            back = x.prepend_unit().group_boundary() \
                + x.group_boundary().prepend_unit()
            assert back == x

    for act in (Z_ACT, FIN_ACT):
        dctx = ChainContext.diagonal(act, small_h, small_u, coinvariant=True)
        rng = random.Random(405)
        for _ in range(50):
            f = rand_chain(dctx, rng, rng.randint(0, 1))
            assert q_map(f.mixed_boundary()) == q_map(f).total_boundary()

    # the front/back splitting is a map of Hochschild complexes, so it is
    # checked at u window 0 on u^0 coefficients, where the total boundary
    # b + uB is b
    for act in (Z_ACT, FIN_ACT):
        nctx = ChainContext.diagonal(act, small_h, 0, coinvariant=False)
        rng = random.Random(505)
        for _ in range(50):
            x = rand_chain(nctx, rng, rng.randint(1, 3), u_power=0)
            assert alexander_whitney(x.boundary()) == \
                alexander_whitney(x).total_boundary()

    for act in (Z_ACT, FIN_ACT):
        xctx = ChainContext.crossed(act, h_trunc=small_h, u_trunc=small_u)
        rng = random.Random(605)
        for _ in range(50):
            x = rand_chain(xctx, rng, rng.randint(0, 2))
            assert d_map(x.mixed_boundary()) == d_map(x).total_boundary()


# -- criterion 6: characters of idempotents are cycles ---------------------

def test_criterion_06_character_cycles():
    one = TorusElement.one(1, 4)
    zero = TorusElement.zero(1)
    em = TorusElement.plane_wave(1, (1, 0), 4)
    en = TorusElement.plane_wave(1, (0, 1), 4)
    for e in ([[one]],
              [[one, zero], [zero, zero]],
              conjugated_idempotent(one, em, en)):
        ch = chern_character(e, 3)
        assert ch.mixed_boundary().is_zero()


# -- criterion 7: twisted traces annihilate boundaries ---------------------

def test_criterion_07_twisted_trace_cocycle():
    xi = GroupCochain.polynomial(Z, 1, {(1,): 1})
    T = TraceFunctional(xi)
    ctx = ChainContext.crossed(Z_ACT, h_trunc=H, u_trunc=U)
    rng = random.Random(107)
    for _ in range(100):
        x = rand_chain(ctx, rng, rng.randint(0, 3), terms=2)
        assert T.pair(x.mixed_boundary()).is_zero()


# -- criterion 8: the index pairing on a conjugated idempotent -------------

def test_criterion_08_index_pairing_exact_value():
    t0 = time.monotonic()
    h_t, u_t = 6, 3
    one = TorusElement.one(1, h_t)
    em = TorusElement.plane_wave(1, (1, 0), h_t)
    en = TorusElement.plane_wave(1, (0, 1), h_t)
    e = conjugated_idempotent(one, em, en)
    ch = chern_character(e, u_t)
    want = ULaurent.from_hbar(inv_i_hbar(h_t), u_t)
    lhs = trace_pair(ch)
    assert lhs == want
    cls = equivariant_ahat(Z_ACT, h_t).cup(
        equivariant_theta(Z_ACT, h_t).exponential())
    rhs = phi_pair(cls, GroupCochain.constant(Z, 1), ch)
    assert rhs == want
    assert time.monotonic() - t0 < 300.0


# -- criterion 9: equivariant pairings -------------------------------------

def test_criterion_09_equivariant_pairings():
    h_t, u_t = 5, 2
    # (a) constant idempotent against the degree-one cochain: both sides 0
    one = CrossedElement.one(Z_ACT, h_t)
    zero = CrossedElement(Z_ACT, {})
    ch_const = chern_character([[one, zero], [zero, zero]], u_t)
    xi1 = GroupCochain.polynomial(Z, 1, {(1,): 1})
    cls = equivariant_ahat(Z_ACT, h_t).cup(
        equivariant_theta(Z_ACT, h_t).exponential())
    assert TraceFunctional(xi1).pair(ch_const).is_zero()
    assert phi_pair(cls, xi1, ch_const).is_zero()

    # (b) trivial cochain degenerates to the plain pairing value
    em = CrossedElement(Z_ACT, {1: TorusElement.plane_wave(1, (1, 0), h_t)})
    en = CrossedElement(Z_ACT, {-1: TorusElement.plane_wave(1, (0, 1), h_t)})
    e = conjugated_idempotent(one, em, en)
    ch = chern_character(e, u_t)
    xi0 = GroupCochain.constant(Z, 1)
    want = ULaurent.from_hbar(inv_i_hbar(h_t), u_t)
    lhs = TraceFunctional(xi0).pair(ch)
    rhs = phi_pair(cls, xi0, ch)
    assert lhs == want
    assert rhs == want

    # (c) twisted class data: total cocycle plus the jet-route comparison
    assert equivariant_theta(TW_ACT, h_t).total_cocycle_witness() is None
    jet = gelfand_fuks_equivariant(TW_ACT, h_t)
    arith = equivariant_theta(TW_ACT, h_t)
    assert (1, 1) in jet.bidegrees()
    for p, q in jet.bidegrees():
        for g in (1, -2, 3):
            assert jet.evaluate(p, q, (g,) * p) == \
                arith.evaluate(p, q, (g,) * p)


# -- criterion 10: Lie cochain calculus and the genus series ---------------

def test_criterion_10_lie_calculus():
    order = 14
    rng = random.Random(110)

    def rand_poly(max_deg=3):
        w = WeylElement.zero(1, order)
        for _ in range(3):
            w = w + WeylElement.monomial(
                1, (rng.randint(0, max_deg),), (rng.randint(0, max_deg),),
                0, Fraction(rng.randint(-5, 5) or 1, 2), order)
        return w

    for arity in (1, 2):
        keys = [((rng.randint(0, 2),), (rng.randint(0, 2),),
                 rng.randint(0, 1)) for _ in range(arity)]
        lam = LieCochain.coefficient_product(keys)
        dd = lie_differential(lie_differential(lam))
        for _ in range(4):
            xs = tuple(Derivation(rand_poly(2)) for _ in range(arity + 2))
            assert dd.evaluate(xs).is_zero()

    theta = theta_hat_cochain()
    for a in sp_quadratic_basis(1, order):
        for b in sp_quadratic_basis(1, order):
            assert extension_defect(Derivation(a), Derivation(b)).is_zero()
    d_theta = lie_differential(theta)
    for _ in range(6):
        xs = tuple(Derivation(rand_poly()) for _ in range(3))
        assert d_theta.evaluate(xs).is_zero()

    conn = InvariantConnection(1, 10)
    got = gf_form(theta, conn, 4)
    want = symplectic_form(1, 4) * inv_i_hbar(4)
    assert got == want
    for _ in range(50):
        keys = [((rng.randint(0, 2),), (rng.randint(0, 2),),
                 rng.randint(0, 1))]
        lam = LieCochain.coefficient_product(keys)
        lhs = gf_form(lie_differential(lam), conn, 4)
        rhs = gf_form(lam, conn, 4).d()
        assert lhs == rhs

    # independent series oracle: invert the shifted hyperbolic quotient
    # from scratch and read off the weight-one coefficient
    g = [Fraction(1)]
    for k in range(1, 3):
        den = 1
        for t in range(2, 2 * k + 2):
            den *= t
        g.append(Fraction(1, 4 ** k * den))
    inv = [Fraction(1), -g[1], g[1] * g[1] - g[2]]
    series = a_hat_series(2)
    assert inv[1] == Fraction(-1, 24)
    assert series[(1,)] == inv[1]
    assert a_hat_series(1)[(1,)] == Fraction(-1, 24)


# -- criterion 11: the bridge from chains to forms -------------------------

def test_criterion_11_forms_bridge():
    rng = random.Random(111)
    for dim in (1, 2):
        ctx = ChainContext.sym(dim, h_trunc=H, u_trunc=U)
        for _ in range(20 if dim == 1 else 6):
            c = rand_chain(ctx, rng, rng.randint(1, 3), terms=2)
            assert hkr(c.boundary()).is_zero()
            assert hkr(c.mixed_boundary()) == \
                hkr(c).d_hat().shift(1).truncate(ctx.u_trunc)

    def rand_form(r, dim=2, terms=3):
        out = FormalForm.zero(dim)
        for _ in range(terms):
            a = tuple(r.randint(0, 2) for _ in range(dim))
            b = tuple(r.randint(0, 2) for _ in range(dim))
            legs = tuple(sorted(r.sample(range(2 * dim),
                                         r.randint(0, 2 * dim))))
            q = Fraction(r.randint(-3, 3) or 1, r.randint(1, 2))
            coeff = ULaurent.from_hbar(
                HbarLaurent.from_rational(q, H, r.randint(0, 1)), U,
                r.randint(0, 1))
            out = out + FormalForm.monomial(dim, a, b, legs, coeff)
        return out

    for _ in range(20):
        phi = rand_form(rng)
        assert j_shift(phi.d_hat().shift(1)) == j_shift(phi).d_hat()

    mu1 = mu_normalization_chain(1, h_trunc=H, u_trunc=U)
    assert len(mu1.coeffs) == 2
    z = (0,)
    unit = (z, z)
    minus_i_hbar = ULaurent.from_hbar(
        HbarLaurent.from_field(I * (-1), H, 1), U)
    assert mu1.boundary() == CyclicChain(mu1.ctx,
                                         {(unit, unit): minus_i_hbar})
    mu2 = mu_normalization_chain(2, h_trunc=2, u_trunc=1)
    assert len(mu2.coeffs) == 24


# -- criterion 12: deterministic reports -----------------------------------

def test_criterion_12_deterministic_reports(tmp_path):
    cfg = ScenarioConfig(h_trunc=3, u_trunc=2, weyl_order=4,
                         idempotent="diagonal", seed=777)
    for name in ("moyal-associativity", "normalization"):
        r1, r2 = run_suite(name, cfg), run_suite(name, cfg)
        assert r1.to_json() == r2.to_json()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(r1, p1)
        emit_report(r2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text())["checks"]
    i1, i2 = index_check(cfg), index_check(cfg)
    assert i1.to_json() == i2.to_json()
    assert Report([]).to_json() == '{"checks":[]}'
