import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from starchain.scalars import (FieldElement, HbarLaurent, cyclotomic_polynomial,
                               to_text)
from starchain.sparse import _acc
from starchain.weyl import (
    Derivation,
    WeylElement,
    _deg,
    _moyal_product,
    _moyal_terms,
    commutator,
    extension_defect,
    sp_quadratic_basis,
)


I = FieldElement.i_unit()


# ---------------------------------------------------------------------------
# oracle: the star product as exp of the mixed bidifferential operator,
# computed on a two-slot tensor representation.  Completely separate from the
# per-monomial falling-factorial expansion in the library.


def _tensor_partial(t, slot, which, i):
    out = {}
    for (k1, k2), c in t.items():
        key = k1 if slot == 0 else k2
        a, b, h = key
        exps = a if which == "x" else b
        if exps[i] == 0:
            continue
        new = tuple(e - 1 if j == i else e for j, e in enumerate(exps))
        nk = (new, b, h) if which == "x" else (a, new, h)
        pair = (nk, k2) if slot == 0 else (k1, nk)
        out[pair] = out.get(pair, FieldElement.zero()) + c * exps[i]
    return {k: v for k, v in out.items() if not v.is_zero()}


def moyal_oracle(u: WeylElement, v: WeylElement, order: int) -> WeylElement:
    dim = u.dim
    tensor = {}
    for k1, c1 in u.coeffs.items():
        for k2, c2 in v.coeffs.items():
            tensor[(k1, k2)] = c1 * c2
    total = WeylElement.zero(dim, order)
    n = 0
    scale = Fraction(1)
    while tensor:
        # multiply slots commutatively, weight (i hbar / 2)^n / n!
        acc = {}
        for ((a1, b1, h1), (a2, b2, h2)), c in tensor.items():
            a = tuple(x + y for x, y in zip(a1, a2))
            b = tuple(x + y for x, y in zip(b1, b2))
            key = (a, b, h1 + h2 + n)
            acc[key] = acc.get(key, FieldElement.zero()) + c
        w = (I ** n) * Fraction(1, 2 ** n) * scale
        total = total + WeylElement(dim, order, {k: v * w for k, v in acc.items()})
        # apply P = sum_i (d_xi (x) d_x - d_x (x) d_xi) once
        nxt = {}
        for i in range(dim):
            for t in _tensor_partial(_tensor_partial(tensor, 0, "xi", i), 1, "x", i).items():
                nxt[t[0]] = nxt.get(t[0], FieldElement.zero()) + t[1]
            for t in _tensor_partial(_tensor_partial(tensor, 0, "x", i), 1, "xi", i).items():
                nxt[t[0]] = nxt.get(t[0], FieldElement.zero()) - t[1]
        tensor = {k: v for k, v in nxt.items() if not v.is_zero()}
        n += 1
        scale = scale / n
    return total


def rand_weyl(rng, dim, order=12, terms=3, max_exp=2):
    out = WeylElement.zero(dim, order)
    for _ in range(terms):
        a = tuple(rng.randint(0, max_exp) for _ in range(dim))
        b = tuple(rng.randint(0, max_exp) for _ in range(dim))
        k = rng.randint(0, 1)
        c = FieldElement.rational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        if rng.random() < 0.3:
            c = c * FieldElement.i_unit()
        out = out + WeylElement.monomial(dim, a, b, k, c, order)
    return out


def test_canonical_commutation_relations():
    for dim in (1, 2):
        h = WeylElement.hbar(dim)
        for k in range(dim):
            for j in range(dim):
                xk = WeylElement.x_hat(dim, k)
                pj = WeylElement.xi_hat(dim, j)
                c = commutator(pj, xk)
                if k == j:
                    assert c == h * I
                else:
                    assert c.is_zero()
                assert commutator(xk, WeylElement.x_hat(dim, j)).is_zero()
                assert commutator(pj, WeylElement.xi_hat(dim, k)).is_zero()


def test_star_against_bidifferential_oracle():
    rng = random.Random(1812)
    for dim in (1, 2):
        for _ in range(12):
            u = rand_weyl(rng, dim, order=14)
            v = rand_weyl(rng, dim, order=14)
            assert u.star(v) == moyal_oracle(u, v, 14)


def fraction_star(u: WeylElement, v: WeylElement) -> WeylElement:
    """Reference: the same monomial expansion as WeylElement.star, with each
    term's factor a product of Fractions times a power of i."""
    dim = u.dim
    order = u._window(v)
    out = {}
    for (a1, b1, k1), c1 in u.coeffs.items():
        for (a2, b2, k2), c2 in v.coeffs.items():
            if sum(a1) + sum(b1) + 2 * k1 + sum(a2) + sum(b2) + 2 * k2 > order:
                continue
            cc = c1 * c2
            s_bounds = [min(b1[i], a2[i]) for i in range(dim)]
            t_bounds = [min(a1[i], b2[i]) for i in range(dim)]
            for s in itertools.product(*(range(m + 1) for m in s_bounds)):
                num_s = Fraction(1)
                for i in range(dim):
                    num_s *= Fraction(
                        math.perm(b1[i], s[i]) * math.perm(a2[i], s[i]),
                        math.factorial(s[i]))
                for t in itertools.product(*(range(m + 1) for m in t_bounds)):
                    num = num_s
                    for i in range(dim):
                        num *= Fraction(
                            math.perm(a1[i], t[i]) * math.perm(b2[i], t[i]),
                            math.factorial(t[i]))
                    st = sum(s) + sum(t)
                    coeff = cc * num * Fraction((-1) ** sum(t), 2 ** st) \
                        * I ** st
                    a = tuple(a1[i] + a2[i] - s[i] - t[i] for i in range(dim))
                    b = tuple(b1[i] + b2[i] - s[i] - t[i] for i in range(dim))
                    key = (a, b, k1 + k2 + st)
                    out[key] = coeff if key not in out else out[key] + coeff
    return WeylElement(dim, order, out)


def assert_same_star(u, v, reference=None):
    got, want = u.star(v), (reference or fraction_star)(u, v)
    assert got.order == want.order
    assert got.coeffs.keys() == want.coeffs.keys()
    for key, c in got.coeffs.items():
        assert to_text(c) == to_text(want.coeffs[key])
        assert c.level == want.coeffs[key].level
        assert c.num == want.coeffs[key].num
        assert c.den == want.coeffs[key].den
    return got


def multi_term_field(rng, level):
    """A FieldElement at level with two zeta powers and a pi term."""
    return (FieldElement.zeta(level, rng.randrange(level))
            + FieldElement.zeta(level, rng.randrange(level))
            * Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
            + FieldElement.pi_power(1, Fraction(1, rng.randint(1, 4)), level))


def with_multi_term_coeffs(rng, w, level):
    return WeylElement(w.dim, w.order,
                       {k: c * multi_term_field(rng, level)
                        for k, c in w.coeffs.items()})


def test_star_against_fraction_formula():
    rng = random.Random(4711)
    for dim in (1, 2):
        for _ in range(40):
            u, v = (rand_weyl(rng, dim, order=16, terms=1, max_exp=4)
                    for _ in range(2))
            if rng.random() < 0.5:
                u = u * FieldElement.zeta(12, rng.randrange(12))
            assert_same_star(u, v)
    # multi-term elements with multi-term coefficients, all at one level
    x, xi = WeylElement.x_hat(1, 0, 16), WeylElement.xi_hat(1, 0, 16)
    for level in (4, 12):
        for dim in (1, 2):
            for _ in range(12):
                u, v = (with_multi_term_coeffs(
                    rng, rand_weyl(rng, dim, order=16, terms=3, max_exp=3),
                    level) for _ in range(2))
                assert_same_star(u, v)
        # (x + xi) * (xi - x) = xi^2 - x^2 + i hbar: the x xi terms of
        # x * xi and xi * x cancel
        c, d = multi_term_field(rng, level), multi_term_field(rng, level)
        got = assert_same_star((x + xi) * c, (xi - x) * d)
        assert ((1,), (1,), 0) not in got.coeffs and len(got.coeffs) == 3
    # one operand at level 12, the other at level 4
    u = with_multi_term_coeffs(rng, rand_weyl(rng, 2, 16, 3, 3), 12)
    v = with_multi_term_coeffs(rng, rand_weyl(rng, 2, 16, 3, 3), 4)
    assert_same_star(u, v)


# oracle: the per-pair loop WeylElement.star once ran on operands with mixed
# coefficient levels.  Each Moyal term of a pair is its own FieldElement,
# summed per output symbol, so every output coefficient sits at the lcm of
# the levels of its own pairs; the product must give the same symbols,
# window, values, levels and normal forms.


def pairwise_star(u: WeylElement, v: WeylElement) -> WeylElement:
    order = u._window(v)
    out = {}
    for (a1, b1, k1), c1 in u.coeffs.items():
        for (a2, b2, k2), c2 in v.coeffs.items():
            if _deg((a1, b1, k1)) + _deg((a2, b2, k2)) > order:
                continue
            cc = c1 * c2
            for a, b, st_, n, d in _moyal_terms(a1, b1, a2, b2):
                _acc(out, (a, b, k1 + k2 + st_),
                     cc._times_term(n, d, st_ % 2, 0, 4))
    return WeylElement(u.dim, order, out)


@st.composite
def mixed_level_weyl(draw, dim):
    """Up to four symbols, each with a coefficient of one to three terms at
    a level drawn from 4, 12 and 60."""
    exps = st.tuples(*[st.integers(0, 2)] * dim)
    keys = draw(st.lists(st.tuples(exps, exps, st.integers(0, 1)),
                         min_size=1, max_size=4, unique=True))
    coeffs = {}
    for key in keys:
        level = draw(st.sampled_from((4, 12, 60)))
        m = len(cyclotomic_polynomial(level)) - 1
        terms = draw(st.dictionaries(
            st.tuples(st.integers(0, m - 1), st.integers(0, 1)),
            st.fractions(min_value=-5, max_value=5,
                         max_denominator=6).filter(bool),
            min_size=1, max_size=3))
        coeffs[key] = FieldElement(level, terms)
    return WeylElement(dim, draw(st.integers(2, 10)), coeffs)


X1, XI1 = ((1,), (0,), 0), ((0,), (1,), 0)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 2)).flatmap(
    lambda dim: st.tuples(mixed_level_weyl(dim), mixed_level_weyl(dim))))
# (x + xi) * (xi - x) with the coefficient of x at level 12: the x xi
# terms of the level-12 pair x * xi and the level-4 pair xi * -x cancel,
# the hbar term they share sits at level 12, and xi^2 at level 4
@example((WeylElement(1, 8, {X1: FieldElement.rational(1, 12),
                             XI1: FieldElement.rational(1)}),
          WeylElement(1, 8, {XI1: FieldElement.rational(1),
                             X1: FieldElement.rational(-1)})))
def test_star_against_pairwise_oracle(uv):
    assert_same_star(*uv, reference=pairwise_star)


def test_star_associative_random():
    rng = random.Random(271828)
    for dim in (1, 2):
        for _ in range(15):
            f = rand_weyl(rng, dim)
            g = rand_weyl(rng, dim)
            h = rand_weyl(rng, dim)
            assert f.star(g).star(h) == f.star(g.star(h))


def test_star_unital_and_central_hbar():
    rng = random.Random(55)
    one = WeylElement.one(1)
    h = WeylElement.hbar(1)
    for _ in range(10):
        f = rand_weyl(rng, 1)
        assert one.star(f) == f and f.star(one) == f
        assert h.star(f) == f.star(h)


def test_weyl_symmetrized_quadratic():
    x = WeylElement.x_hat(1, 0)
    xi = WeylElement.xi_hat(1, 0)
    sym = (x.star(xi) + xi.star(x)) / 2
    assert sym == x.poly_mul(xi)
    # the symmetric Weyl-Moyal product: both orderings move off the
    # commutative symbol x xi by half of i hbar, in opposite directions
    assert x.star(xi) == x.poly_mul(xi) - WeylElement.hbar(1) * I / 2
    assert xi.star(x) == x.poly_mul(xi) + WeylElement.hbar(1) * I / 2


def test_poly_mul_is_top_symbol_of_star():
    rng = random.Random(808)
    for _ in range(10):
        u = rand_weyl(rng, 1, order=12)
        v = rand_weyl(rng, 1, order=12)
        s = u.star(v)
        p = u.poly_mul(v)
        diff = s - p
        # all corrections carry at least one hbar
        assert all(k[2] >= 1 for k in diff.coeffs)


def test_window_bookkeeping():
    u = WeylElement.x_hat(1, 0, order=6)
    v = WeylElement.monomial(1, (2,), (1,), 0, 1, order=9)
    assert u.star(v).order == min(6 + 3, 9 + 1)
    w = WeylElement.hbar(1, 2, order=9)
    assert w.divide_hbar(1).order == 7
    assert w.divide_hbar(2).coefficient((0,), (0,), 0) == FieldElement.rational(1)
    with pytest.raises(ValueError):
        WeylElement.one(1).divide_hbar(1)


def test_truncation_consistency():
    rng = random.Random(4096)
    for _ in range(10):
        u = rand_weyl(rng, 1, order=14)
        v = rand_weyl(rng, 1, order=14)
        wide = u.star(v)
        narrow = u.truncate(6).star(v.truncate(6))
        assert narrow == wide  # window-relative equality


def test_central_embedding_roundtrip():
    s = HbarLaurent.from_rational(3, 4, power=1) + HbarLaurent.from_field(I, 4, power=0)
    w = WeylElement.central(1, s, order=12)
    assert w.central_part() == s
    assert w.without_central().is_zero()
    with pytest.raises(ValueError):
        WeylElement.central(1, HbarLaurent.from_rational(1, 3, power=-1), 12)


def test_derivation_leibniz():
    rng = random.Random(1066)
    for _ in range(10):
        f = rand_weyl(rng, 1)
        u = rand_weyl(rng, 1)
        v = rand_weyl(rng, 1)
        D = Derivation(f)
        assert D.apply(u.star(v)) == D.apply(u).star(v) + u.star(D.apply(v))


def test_derivation_bracket_is_commutator_of_actions():
    rng = random.Random(9)
    for _ in range(8):
        f = rand_weyl(rng, 1, order=14)
        g = rand_weyl(rng, 1, order=14)
        u = rand_weyl(rng, 1, order=14)
        D1, D2 = Derivation(f), Derivation(g)
        lhs = D1.bracket(D2).apply(u)
        rhs = D1.apply(D2.apply(u)) - D2.apply(D1.apply(u))
        assert lhs == rhs


def test_derivation_kills_central():
    D = Derivation(WeylElement.hbar(1, 2) + WeylElement.one(1) * 5)
    assert D.rep.is_zero()


def test_derivations_compare_without_their_central_part():
    x = WeylElement.x_hat(1, 0)
    assert Derivation(x) == Derivation(x + WeylElement.hbar(1))
    assert Derivation(x) != Derivation(WeylElement.xi_hat(1, 0))
    with pytest.raises(TypeError):
        hash(Derivation(x))


def test_extension_defect_linear_generators():
    x = Derivation(WeylElement.x_hat(1, 0))
    xi = Derivation(WeylElement.xi_hat(1, 0))
    d = extension_defect(x, xi)
    assert d.coeffs == {-1: -I}
    assert extension_defect(xi, x).coeffs == {-1: I}
    assert extension_defect(x, x).is_zero()
    # the lifts that realize the flat holonomy-free connection directions
    a = Derivation(WeylElement.xi_hat(1, 0) * I)
    b = Derivation(WeylElement.x_hat(1, 0) * (-1) * I)
    assert extension_defect(a, b).coeffs == {-1: I}


def test_extension_defect_vanishes_on_quadratics():
    for dim in (1, 2):
        basis = sp_quadratic_basis(dim)
        assert len(basis) == dim * (2 * dim + 1)
        for p in basis:
            for q in basis:
                assert extension_defect(Derivation(p), Derivation(q)).is_zero()


def test_sp_bracket_closes_on_quadratics():
    basis = sp_quadratic_basis(2)
    for p in basis[:6]:
        for q in basis[:6]:
            r = Derivation(p).bracket(Derivation(q)).rep
            assert all(k == 0 and sum(a) + sum(b) == 2
                       for a, b, k in r.coeffs)


def monomials(dim, max_degree):
    for exps in itertools.product(range(max_degree + 1), repeat=2 * dim):
        if sum(exps) <= max_degree:
            yield exps[:dim], exps[dim:]


@pytest.mark.parametrize("dim", [1, 2])
def test_moyal_product_matches_monomial_star(dim):
    # the product the weyl chain faces and the jet star read, against the
    # star of the two monomials, with an order that cuts no term
    mons = list(monomials(dim, 3))
    for a1, b1 in mons:
        for a2, b2 in mons:
            order = sum(a1) + sum(b1) + sum(a2) + sum(b2)
            want = WeylElement.monomial(dim, a1, b1, order=order).star(
                WeylElement.monomial(dim, a2, b2, order=order))
            got = _moyal_product(a1, b1, a2, b2)
            assert [key for key, _ in got] == list(want.coeffs)
            for key, fe in got:
                assert to_text(fe) == to_text(want.coeffs[key])
                assert fe.level == want.coeffs[key].level
