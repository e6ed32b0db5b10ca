import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from starchain.scalars import (
    FieldElement,
    HbarLaurent,
    ULaurent,
    LevelOverflow,
    MAX_CYCLOTOMIC_LEVEL,
    cyclotomic_polynomial,
    hbar_exp,
    to_text,
    _Accumulator,
    _Flat,
    _normal,
    _series_products,
    _zeta_rows,
)
from starchain.sparse import _acc


# ---------------------------------------------------------------------------
# oracle: dense polynomial arithmetic mod Phi_L, written against the textbook
# definition (multiply as polynomials, long-divide by Phi_L).  Shares nothing
# with the incremental row tables used by FieldElement.


def dense_reduce(vec, level):
    phi = cyclotomic_polynomial(level)
    m = len(phi) - 1
    vec = list(vec) + [Fraction(0)] * max(0, m - len(vec))
    for k in range(len(vec) - 1, m - 1, -1):
        c = vec[k]
        if c:
            for j in range(m + 1):
                vec[k - m + j] -= c * phi[j]
    return tuple(vec[:m])


def dense_mul(a, b, level):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return dense_reduce(out, level)


def as_dense(fe, level):
    """Project the pi^0 part of a FieldElement to a dense vector at level."""
    fe = fe.embed(level)
    m = len(cyclotomic_polynomial(level)) - 1
    vec = [Fraction(0)] * m
    for (a, b), q in fe.coeffs.items():
        assert b == 0
        vec[a] = q
    return tuple(vec)


def rand_field(rng, level, pi_free=False):
    out = FieldElement.zero(level)
    m = len(cyclotomic_polynomial(level)) - 1
    for _ in range(rng.randint(1, 4)):
        a = rng.randrange(m)
        b = 0 if pi_free else rng.randint(0, 2)
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        out = out + FieldElement(level, {(a, b): q})
    return out


def test_cyclotomic_polynomials_known():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(20) == (1, 0, -1, 0, 1, 0, -1, 0, 1)


@pytest.mark.parametrize("level", [4, 8, 12, 20, 24])
def test_root_of_unity_relations(level):
    z = FieldElement.zeta(level)
    assert z ** level == FieldElement.rational(1, level)
    assert not any(z ** k == FieldElement.rational(1, level)
                   for k in range(1, level))
    val = FieldElement.zero(level)
    for k, c in enumerate(cyclotomic_polynomial(level)):
        val = val + FieldElement.rational(c, level) * z ** k
    assert val.is_zero()
    i = FieldElement.i_unit(level)
    assert i * i == FieldElement.rational(-1, level)


def test_multiplication_against_dense_oracle():
    rng = random.Random(20260822)
    for level in (4, 8, 12, 20):
        for _ in range(25):
            x = rand_field(rng, level, pi_free=True)
            y = rand_field(rng, level, pi_free=True)
            got = as_dense(x * y, level)
            want = dense_mul(as_dense(x, level), as_dense(y, level), level)
            assert got == want


def test_cross_level_mul_against_oracle():
    rng = random.Random(7)
    for _ in range(20):
        x = rand_field(rng, 4, pi_free=True)
        y = rand_field(rng, 12, pi_free=True)
        lev = FieldElement.common_level(x, y)
        assert lev == 12
        assert as_dense(x * y, 12) == dense_mul(as_dense(x, 12), as_dense(y, 12), 12)


def test_field_ring_axioms():
    rng = random.Random(99)
    for _ in range(30):
        lev = rng.choice([4, 8, 12])
        x, y, z = (rand_field(rng, lev) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x - x == FieldElement.zero(lev)
        assert x * 1 == x and x * 0 == FieldElement.zero(lev)


def test_pi_is_formal():
    p = FieldElement.pi_power(1)
    q = FieldElement.pi_power(3, Fraction(2, 5))
    prod = p * q
    assert prod.coeffs == {(0, 4): Fraction(2, 5)}
    assert not p.is_rational()


def test_embedding_is_ring_map():
    rng = random.Random(4242)
    for _ in range(20):
        x = rand_field(rng, 4)
        y = rand_field(rng, 4)
        assert (x * y).embed(24) == x.embed(24) * y.embed(24)
        assert (x + y).embed(24) == x.embed(24) + y.embed(24)
        assert x.embed(24) == x


def test_monomial_inverse():
    x = FieldElement.zeta(12, 7) * Fraction(3, 4)
    assert x * x.inv_monomial() == FieldElement.rational(1, 12)
    y = FieldElement.zeta(4, 1) + 1
    with pytest.raises(ValueError):
        y.inv_monomial()
    with pytest.raises(ValueError):
        FieldElement.pi_power(1).inv_monomial()


def test_level_guard():
    with pytest.raises(LevelOverflow):
        FieldElement.rational(1, MAX_CYCLOTOMIC_LEVEL + 4)
    big = FieldElement.rational(1, 1196)
    other = FieldElement.rational(1, 8)
    assert math.lcm(1196, 8) > MAX_CYCLOTOMIC_LEVEL
    with pytest.raises(LevelOverflow):
        big * other
    # rationals compare by value, with no common level to overflow
    assert big == other
    assert big != FieldElement.rational(2, 8)
    # without a common level, elements written at the gcd level (here 4)
    # compare there: both of these are i
    i_big = FieldElement(1196, {(299, 0): 1})
    assert i_big == FieldElement.i_unit(8)
    assert i_big != -FieldElement.i_unit(8)
    assert i_big != FieldElement.pi_power(1, level=8) * FieldElement.i_unit(8)
    # zeta_1196 is not written at level 4: no answer, rather than False
    with pytest.raises(LevelOverflow):
        FieldElement(1196, {(1, 0): 1}) == FieldElement.i_unit(8)


def test_rejected_zeta_level_builds_no_table():
    before = _zeta_rows.cache_info().currsize
    with pytest.raises(LevelOverflow):
        FieldElement.zeta(MAX_CYCLOTOMIC_LEVEL + 4)
    with pytest.raises(ValueError, match="multiple of 4"):
        FieldElement.zeta(6)
    assert _zeta_rows.cache_info().currsize == before


def test_level_whose_table_is_too_costly_builds_none():
    # the table at level 4620 would take seconds and tens of MiB
    before = _zeta_rows.cache_info().currsize
    with pytest.raises(LevelOverflow):
        FieldElement.zeta(4620)
    assert _zeta_rows.cache_info().currsize == before


def test_hash_agrees_with_equality_across_levels():
    quarter, eighth = FieldElement.rational(1, 4), FieldElement.rational(1, 8)
    assert quarter == eighth
    assert len({quarter, eighth}) == 1
    assert hash(FieldElement.rational(Fraction(3, 5), 12)) == hash(Fraction(3, 5))
    i = FieldElement.i_unit(4)
    assert i == i.embed(12) and hash(i) == hash(i.embed(12))


def test_level_must_be_multiple_of_four():
    for bad in (0, 1, 2, 3, 6, 10):
        with pytest.raises(ValueError):
            FieldElement.rational(1, bad)


# ---------------------------------------------------------------------------
# oracle: sympy's cyclotomic polynomials and polynomial remainder over QQ.
# An element is drawn as a raw (a, b) -> Fraction dict; the oracle keeps it
# as pi-degree -> polynomial in X = zeta_M, where zeta_L = X^(M/L).

X = sympy.Symbol("X")
LEVELS = (4, 8, 12, 20, 60)


@st.composite
def raw_elements(draw):
    level = draw(st.sampled_from(LEVELS))
    m = len(cyclotomic_polynomial(level)) - 1
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, m - 1), st.integers(0, 2)), coeff,
        max_size=4))
    return level, terms


def oracle(raw, level):
    """{pi-degree: polynomial in X reduced mod Phi_level} of a raw element."""
    lev, terms = raw
    step = level // lev
    polys = {}
    for (a, b), q in terms.items():
        term = sympy.Rational(q.numerator, q.denominator) * X ** (a * step)
        polys[b] = polys.get(b, 0) + term
    return {b: oracle_reduce(p, level) for b, p in polys.items()}


def oracle_reduce(poly, level):
    return sympy.rem(sympy.expand(poly), sympy.cyclotomic_poly(level, X), X,
                     domain=sympy.QQ)


def oracle_coeffs(polys):
    out = {}
    for b, p in polys.items():
        for (a,), c in sympy.Poly(p, X, domain=sympy.QQ).terms():
            if c:
                out[(a, b)] = Fraction(int(c.p), int(c.q))
    return out


def oracle_mul(x, y, level):
    out = {}
    for b1, p1 in x.items():
        for b2, p2 in y.items():
            out[b1 + b2] = out.get(b1 + b2, 0) + p1 * p2
    return {b: oracle_reduce(p, level) for b, p in out.items()}


def oracle_add(x, y, sign=1):
    return {b: x.get(b, 0) + sign * y.get(b, 0) for b in set(x) | set(y)}


def assert_normal(fe):
    assert fe.den > 0
    assert all(type(v) is int and v for v in fe.num.values())
    assert math.gcd(fe.den, *fe.num.values()) == 1


def assert_matches(fe, level, polys):
    assert fe.level == level
    assert_normal(fe)
    assert fe.coeffs == oracle_coeffs(polys)


@settings(max_examples=60, deadline=None)
@given(raw_elements(), raw_elements())
def test_arithmetic_against_sympy_oracle(rx, ry):
    x, y = FieldElement(*rx), FieldElement(*ry)
    lev = math.lcm(rx[0], ry[0])
    ox, oy = oracle(rx, lev), oracle(ry, lev)
    assert_matches(x * y, lev, oracle_mul(ox, oy, lev))
    assert_matches(x + y, lev, oracle_add(ox, oy))
    assert_matches(x - y, lev, oracle_add(ox, oy, -1))


@settings(max_examples=60, deadline=None)
@given(raw_elements(), st.sampled_from((1, 2, 3, 5)),
       st.fractions(max_denominator=12).filter(bool))
def test_embed_and_rational_division_against_sympy_oracle(raw, step, q):
    x = FieldElement(*raw)
    lev = raw[0] * step
    up = x.embed(lev)
    assert_matches(up, lev, oracle(raw, lev))
    assert up == x and hash(up) == hash(x)
    scaled = {b: p / sympy.Rational(q.numerator, q.denominator)
              for b, p in oracle(raw, raw[0]).items()}
    assert_matches(x / q, raw[0], scaled)


# ---------------------------------------------------------------------------
# hbar layer


def rand_hbar(rng, trunc, lowest=-2):
    out = HbarLaurent.zero(trunc)
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(lowest, trunc)
        out = out + HbarLaurent.from_field(rand_field(rng, 4), trunc, power=k)
    return out


# ---------------------------------------------------------------------------
# oracle for the hbar product: the pairwise sum of FieldElement products.
# Operands are drawn with negative powers and different windows, either with
# every coefficient at one shared level or with a level per coefficient
# (one integer convolution per pair of levels); one-coefficient operands
# are drawn too.


@st.composite
def nonzero_field(draw, level):
    m = len(cyclotomic_polynomial(level)) - 1
    coeff = st.fractions(min_value=-9, max_value=9,
                         max_denominator=12).filter(bool)
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, m - 1), st.integers(0, 2)), coeff,
        min_size=1, max_size=3))
    return FieldElement(level, terms)


@st.composite
def hbar_series(draw, shared=None, mixed=False, levels=LEVELS):
    trunc = draw(st.integers(-1, 5))
    powers = draw(st.lists(st.integers(-3, trunc), min_size=1, max_size=4,
                           unique=True))
    if shared is None and not mixed:
        shared = draw(st.sampled_from((4, 12, 60, None)))
    coeffs = {}
    for k in powers:
        lev = draw(st.sampled_from(levels)) if shared is None else shared
        coeffs[k] = draw(nonzero_field(lev))
    return HbarLaurent(trunc, coeffs)


def pairwise_product(x, y, trunc=None):
    if trunc is None:
        trunc = min(x.trunc + y.low, y.trunc + x.low)
    out = {}
    for i, a in x.coeffs.items():
        for j, b in y.coeffs.items():
            if i + j <= trunc:
                p = a * b
                out[i + j] = p if i + j not in out else out[i + j] + p
    return HbarLaurent(trunc, out)


def assert_same_product(got, want):
    assert got.trunc == want.trunc
    assert to_text(got) == to_text(want)
    assert {k: v.level for k, v in got.coeffs.items()} == \
        {k: v.level for k, v in want.coeffs.items()}
    for v in got.coeffs.values():
        assert_normal(v)


# multi-term coefficients at level 60, with a negative power, always run
@settings(max_examples=100, deadline=None)
@given(hbar_series(), hbar_series())
@example(HbarLaurent(3, {-1: FieldElement(60, {(0, 0): 1,
                                                (7, 1): Fraction(-2, 3)}),
                         1: FieldElement(60, {(15, 0): 5,
                                              (3, 2): Fraction(1, 4)})}),
         HbarLaurent(2, {0: FieldElement(60, {(1, 0): 3, (14, 0): -1}),
                         2: FieldElement(60, {(9, 1): Fraction(2, 7),
                                              (15, 1): 1})}))
# at hbar^2 the level-12 pairs zeta * 1 and -zeta * 1 cancel and the
# level-4 pair 1 * 1 is left: the coefficient is 1 at level 12; at hbar^1
# the pairs cancel too, at level 12
@example(HbarLaurent(3, {0: FieldElement(12, {(1, 0): 1}),
                         1: FieldElement(12, {(1, 0): -1}),
                         2: FieldElement.rational(1)}),
         HbarLaurent(3, {0: FieldElement.rational(1),
                         1: FieldElement.rational(1),
                         2: FieldElement.rational(1)}))
# both pairs at hbar^1 cancel (zeta * 1 and 1 * -zeta), so the power is
# absent; hbar^2 has one level-4 pair and stays at level 4
@example(HbarLaurent(3, {0: FieldElement(12, {(1, 0): 1}),
                         1: FieldElement.rational(1)}),
         HbarLaurent(3, {0: FieldElement(12, {(1, 0): -1}),
                         1: FieldElement.rational(1)}))
def test_hbar_product_against_pairwise_oracle(x, y):
    assert_same_product(x * y, pairwise_product(x, y))


# A product by a one-term monomial u hbar^k, u = (n/d) zeta^a pi^b, is a
# relabelling of each coefficient; it must agree with the general pairwise
# product of the same operands in window, text, levels and normal form.

def one_term_field(draw, level):
    """(n/d) zeta^a pi^b at level, a a power-basis index."""
    m = len(cyclotomic_polynomial(level)) - 1
    a = draw(st.integers(0, m - 1))
    b = draw(st.integers(0, 2))
    q = draw(st.fractions(min_value=-9, max_value=9,
                          max_denominator=12).filter(bool))
    return FieldElement(level, {(a, b): q})


@st.composite
def one_term_operands(draw):
    """A one-term series u hbar^k, or a one-term scalar (int, Fraction or
    FieldElement)."""
    kind = draw(st.sampled_from(("one", "root", "term", "int", "fraction")))
    if kind == "int":
        return draw(st.integers(-5, 5).filter(bool))
    if kind == "fraction":
        return draw(st.fractions(min_value=-9, max_value=9,
                                 max_denominator=12).filter(bool))
    if kind == "one":
        u = FieldElement.rational(1, draw(st.sampled_from((4, 12))))
    elif kind == "root":
        level = draw(st.sampled_from((4, 12, 20, 60)))
        m = len(cyclotomic_polynomial(level)) - 1
        u = FieldElement(level, {(draw(st.integers(0, m - 1)), 0):
                                 draw(st.sampled_from((1, -1)))})
    else:
        u = one_term_field(draw, draw(st.sampled_from(LEVELS)))
    if draw(st.booleans()):
        return u
    trunc = draw(st.integers(-2, 5))
    return HbarLaurent(trunc, {draw(st.integers(-3, trunc)): u})


@settings(max_examples=200, deadline=None)
@given(hbar_series(mixed=True), one_term_operands())
def test_one_term_product_against_pairwise(x, m):
    if isinstance(m, HbarLaurent):
        want = pairwise_product(x, m)
        assert_same_product(x * m, want)
        assert_same_product(m * x, want)
        return
    fe = m if isinstance(m, FieldElement) else FieldElement.rational(m)
    # a scalar keeps x's window
    want = pairwise_product(x, HbarLaurent.from_field(fe, 0), x.trunc)
    assert_same_product(x * m, want)
    assert_same_product(m * x, want)


# A scalar of several terms multiplies a series coefficient by coefficient
# and keeps the series' window, also when the series starts below hbar^0.
@settings(max_examples=60, deadline=None)
@given(hbar_series(mixed=True),
       st.sampled_from(LEVELS).flatmap(nonzero_field).filter(
           lambda fe: len(fe.num) > 1))
@example(HbarLaurent(1, {-2: FieldElement.rational(3),
                         0: FieldElement.zeta(12)}),
         FieldElement.zeta(12) + 1)
def test_multi_term_scalar_keeps_the_series_window(x, fe):
    want = HbarLaurent(x.trunc, {k: v * fe for k, v in x.coeffs.items()})
    assert_same_product(x * fe, want)
    assert_same_product(fe * x, want)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((4, 12, 60, None)).flatmap(
    lambda lev: st.tuples(hbar_series(lev), hbar_series(lev),
                          hbar_series(lev))))
def test_hbar_product_laws_on_common_window(xyz):
    x, y, z = xyz
    floor = x.low + y.low + z.low
    left, right = (x * y) * z, x * (y * z)
    window = min(left.trunc, right.trunc)
    # the window holds the lowest term of the product, so it decides
    assert window >= floor
    assert left.truncate(window) == right.truncate(window)
    left, right = x * (y + z), x * y + x * z
    window = min(left.trunc, right.trunc)
    assert window >= x.low + min(y.low, z.low)
    assert left.truncate(window) == right.truncate(window)


def test_hbar_ring_axioms():
    rng = random.Random(5150)
    for _ in range(30):
        x = rand_hbar(rng, rng.randint(3, 6))
        y = rand_hbar(rng, rng.randint(3, 6))
        z = rand_hbar(rng, rng.randint(3, 6))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z


def test_hbar_window_contract():
    # the reliable window of a product is exactly min over the two
    # cross terms of trunc + low
    x = HbarLaurent.from_rational(1, 5, power=-1) + HbarLaurent.from_rational(1, 5, power=2)
    y = HbarLaurent.from_rational(3, 7, power=1)
    assert (x * y).trunc == min(5 + 1, 7 + (-1))
    assert (x + y).trunc == 5
    assert x.shift(3).trunc == 8
    assert x.shift(3).low == 2


def test_truncation_is_multiplicative_within_window():
    # computing wide then truncating agrees with computing narrow, on the
    # narrow window: that is the whole point of the trunc bookkeeping
    rng = random.Random(31337)
    for _ in range(25):
        x = rand_hbar(rng, 9, lowest=0)
        y = rand_hbar(rng, 9, lowest=0)
        wide = x * y
        narrow = x.truncate(4) * y.truncate(4)
        assert narrow == wide
        assert narrow.trunc <= wide.trunc


def test_hbar_equality_is_window_relative():
    a = HbarLaurent.from_rational(1, 3, power=0)
    b = a + HbarLaurent.from_rational(1, 7, power=5)
    assert a == b  # differ only beyond the common window
    assert b.truncate(3) == a
    c = a + HbarLaurent.from_rational(1, 3, power=2)
    assert a != c


def test_hbar_exp_values_and_homomorphism():
    i = FieldElement.i_unit()
    e = hbar_exp(HbarLaurent.from_field(i, 6, power=1))
    for j in range(7):
        want = (i ** j) / Fraction(math.factorial(j))
        assert e.coefficient(j) == want
    a = HbarLaurent.from_rational(2, 5, power=1)
    b = HbarLaurent.from_field(FieldElement.zeta(8), 5, power=2)
    assert hbar_exp(a + b) == hbar_exp(a) * hbar_exp(b)
    assert hbar_exp(a) * hbar_exp(-a) == HbarLaurent.one(5)
    with pytest.raises(ValueError):
        hbar_exp(HbarLaurent.one(4))


def test_coefficient_window_guard():
    x = HbarLaurent.from_rational(1, 3)
    assert x.coefficient(3).is_zero()
    with pytest.raises(ValueError):
        x.coefficient(4)


# ---------------------------------------------------------------------------
# u layer


def rand_u(rng, utrunc, htrunc):
    out = ULaurent.zero(utrunc)
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(-2, utrunc)
        out = out + ULaurent.from_hbar(rand_hbar(rng, htrunc), utrunc, power=k)
    return out


def test_u_ring_axioms():
    rng = random.Random(616)
    for _ in range(20):
        x = rand_u(rng, 3, 4)
        y = rand_u(rng, 3, 4)
        z = rand_u(rng, 3, 4)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z


def test_u_shift_and_window():
    x = ULaurent.from_hbar(HbarLaurent.one(4), 3, power=-1)
    assert x.shift(2).low == 1 and x.shift(2).trunc == 5


def test_u_scalar_action():
    x = ULaurent.from_hbar(HbarLaurent.from_rational(3, 4), 2)
    assert x * Fraction(1, 3) == ULaurent.one(2, 4)
    assert (x / 3) == ULaurent.one(2, 4)
    i = FieldElement.i_unit()
    assert (x * i) / i == x


# oracle for the u product: per (u power, hbar power), the sum of the
# FieldElement products over every pair, cut at each pair's hbar window and
# then at its target's least window; zero sums are dropped only at the
# end, so each coefficient sits at the lcm of the levels of every pair that
# reaches it.  The operands carry negative u powers and hbar coefficients
# with their own windows and, unless one level is given, levels 4, 12 and
# 60 mixed within one series.


@st.composite
def u_series(draw, level=None):
    trunc = draw(st.integers(-1, 3))
    powers = draw(st.lists(st.integers(-2, trunc), min_size=1, max_size=3,
                           unique=True))
    coeff = hbar_series(level) if level else \
        hbar_series(mixed=True, levels=(4, 12, 60))
    return ULaurent(trunc, {k: draw(coeff) for k in powers})


def pairwise_u_product(x, y):
    trunc = min(x.trunc + y.low, y.trunc + x.low)
    windows, prods = {}, []
    for i, a in x.coeffs.items():
        for j, b in y.coeffs.items():
            if i + j <= trunc:
                w = min(a.trunc + b.low, b.trunc + a.low)
                windows[i + j] = min(w, windows.get(i + j, w))
                prods += [(i + j, k + l, c * d) for k, c in a.coeffs.items()
                          for l, d in b.coeffs.items()]
    sums: dict = {}
    for e, k, p in prods:
        if k <= windows[e]:
            _acc(sums.setdefault(e, {}), k, p)
    return ULaurent(trunc, {e: HbarLaurent(w, sums.get(e, {}))
                            for e, w in windows.items()})


def assert_same_u(got, want):
    assert got.trunc == want.trunc
    assert to_text(got) == to_text(want)
    assert {e: (h.trunc, {k: v.level for k, v in h.coeffs.items()})
            for e, h in got.coeffs.items()} == \
        {e: (h.trunc, {k: v.level for k, v in h.coeffs.items()})
         for e, h in want.coeffs.items()}


ONE = FieldElement.rational(1)


def one_term_u(terms):
    return ULaurent(2, {e: HbarLaurent.from_field(fe, 2) for e, fe in terms})


# at u^2 the level-12 pairs zeta_12 * 1 and -zeta_12 * 1 cancel beside the
# level-4 pair i * 1: the coefficient is i at level 12 (zeta^3)
@settings(max_examples=60, deadline=None)
@given(u_series(), u_series())
@example(one_term_u(((0, FieldElement.zeta(12)), (1, -FieldElement.zeta(12)),
                     (2, FieldElement.i_unit()))),
         one_term_u(((2, ONE), (1, ONE), (0, ONE))))
def test_u_product_against_pairwise_oracle(x, y):
    assert_same_u(x * y, pairwise_u_product(x, y))


# one u power on each side: the hbar product alone (HbarLaurent.__mul__),
# against the kernel route (_series_products) that it replaces there
@st.composite
def one_power_u(draw):
    trunc = draw(st.integers(-1, 3))
    power = draw(st.integers(-2, trunc))
    return ULaurent(trunc, {power: draw(hbar_series(mixed=True,
                                                     levels=(4, 12, 60)))})


@settings(max_examples=40, deadline=None)
@given(one_power_u(), one_power_u())
@example(ULaurent(2, {1: HbarLaurent(3, {-1: FieldElement.zeta(12)})}),
         ULaurent(1, {0: HbarLaurent(2, {1: FieldElement.zeta(60, 7),
                                         2: FieldElement.i_unit()})}))
@example(ULaurent(1, {1: HbarLaurent.one(2)}),
         ULaurent(0, {-1: HbarLaurent(4, {0: FieldElement.zeta(12, 5),
                                          3: FieldElement.zeta(60)})}))
def test_one_term_u_product_against_kernel(x, y):
    trunc = min(x.trunc + y.low, y.trunc + x.low)
    kernel = ULaurent(trunc, _series_products(
        x.coeffs, y.coeffs, lambda i, j: i + j if i + j <= trunc else None))
    assert_same_u(x * y, kernel)
    assert_same_u(y * x, kernel)


@settings(max_examples=40, deadline=None)
@given(u_series(), u_series(), st.data())
def test_u_product_ignores_term_order(x, y, data):
    px, py = (ULaurent(z.trunc, {k: z.coeffs[k] for k in data.draw(
        st.permutations(list(z.coeffs)))}) for z in (x, y))
    assert_same_u(px * py, x * y)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((4, 12)).flatmap(
    lambda lev: st.tuples(u_series(lev), u_series(lev), u_series(lev))))
def test_u_product_laws_on_common_window(xyz):
    x, y, z = xyz
    left, right = (x * y) * z, x * (y * z)
    window = min(left.trunc, right.trunc)
    # the window holds the lowest u term of the product, so it decides
    assert window >= x.low + y.low + z.low
    assert left.truncate(window) == right.truncate(window)
    left, right = x * (y + z), x * y + x * z
    window = min(left.trunc, right.trunc)
    assert window >= x.low + min(y.low, z.low)
    assert left.truncate(window) == right.truncate(window)


# ---------------------------------------------------------------------------
# the accumulator's one entry point: _Accumulator.add on _Flat operands


def hbar(trunc, terms, level=4):
    """HbarLaurent through trunc with (power, numerator, denominator)
    rational terms at level."""
    return HbarLaurent(trunc, {k: FieldElement(level, {(0, 0): Fraction(n, d)})
                               for k, n, d in terms})


def assert_same_series(got, want):
    assert got.trunc == want.trunc
    assert got.coeffs.keys() == want.coeffs.keys()
    for k, c in want.coeffs.items():
        assert got.coeffs[k].level == c.level and got.coeffs[k] == c


def test_add_keeps_the_least_window_of_a_key():
    x, y = hbar(5, [(0, 1, 2), (3, 1, 1)]), hbar(4, [(1, 2, 3)])
    z = hbar(2, [(0, 1, 1), (2, -1, 5)])
    acc = _Accumulator()
    acc.add("k", _Flat(x), _Flat(y))            # window min(5 + 1, 4 + 0)
    acc.add("k", _Flat(x), _Flat(z))            # window min(5 + 0, 2 + 0)
    acc.add("k", _Flat(y), _Flat(FieldElement.rational(3)))  # y's window, 4
    acc.add("other", _Flat(y))
    got = acc.freeze()
    want = x * y + x * z + y * 3
    assert want.trunc == 2
    assert_same_series(got["k"], want)
    assert_same_series(got["other"], y)


def test_add_rescales_mixed_denominators():
    x, y = hbar(3, [(0, 1, 6), (1, 5, 4)]), hbar(3, [(0, 2, 9), (2, 1, 10)])
    sx = hbar(3, [(0, 1, 7), (1, 3, 2)])
    s = _Flat(sx)
    mixed = _Accumulator()
    mixed.add("k", _Flat(x), s, 1, 3)
    mixed.add("k", _Flat(y), s, -5, 2)
    mixed.add("k", _Flat(x), None, 7, 11)
    common = _Accumulator()
    common.add("k", _Flat(x), s, 22, 66)
    common.add("k", _Flat(y), s, -165, 66)
    common.add("k", _Flat(x), None, 42, 66)
    got = mixed.freeze()["k"]
    assert_same_series(got, common.freeze()["k"])
    want = x * sx / 3 - y * sx * Fraction(5, 2) + x * Fraction(7, 11)
    assert got == want and got.trunc == want.trunc


def test_add_with_an_empty_phase_sets_a_window_and_adds_nothing():
    x = hbar(-1, [(-3, 1, 1), (-2, 2, 1)])
    empty = _Flat(HbarLaurent(-1, {}))
    acc = _Accumulator()
    acc.add("k", _Flat(x), empty)
    acc.add("both", _Flat(hbar(5, [(0, 1, 1)])))
    acc.add("both", _Flat(x), empty)
    got = acc.freeze()
    # the window of x * 0 is -1 + low(x) = -4
    assert got["k"].trunc == -4 and got["k"].is_zero()
    assert got["both"].trunc == -4 and got["both"].is_zero()


def test_add_keeps_the_lcm_level_where_a_coefficient_cancels():
    zeta = HbarLaurent(2, {0: FieldElement.zeta(12), 1: FieldElement.zeta(12)})
    acc = _Accumulator()
    acc.add("k", _Flat(zeta))
    acc.add("k", _Flat(zeta), None, -1)
    acc.add("k", _Flat(hbar(2, [(0, 1, 1)])))
    got = acc.freeze()["k"]
    # hbar^0: the level-12 terms cancel beside a level-4 one, so 1 sits
    # at level 12; hbar^1 cancels altogether and is dropped
    assert list(got.coeffs) == [0]
    assert got.coeffs[0] == 1 and got.coeffs[0].level == 12


# ---------------------------------------------------------------------------
# the kernel's branches against pairwise products
#
# _Accumulator.add, _Flat.times and freeze take one pass when every operand
# sits at one level and the route over pairs of level groups otherwise;
# _Flat.times relabels by a one-term rational factor, and _normal has a
# one-term branch.  The reference multiplies coefficient pairs as
# FieldElements and adds every product at its (key, power) by FieldElement
# addition, which keeps the lcm of the levels of every product also where
# the sum cancels, so it does not depend on how the products are grouped.

KERNEL_LEVELS = ((4,), (12,), (60,), (4, 12), (4, 60))


@st.composite
def kernel_series(draw):
    """A nonzero hbar series at one level or at two: one rational term
    q hbar^i, one term, or several terms."""
    levels = draw(st.sampled_from(KERNEL_LEVELS))
    shape = draw(st.sampled_from(("rational", "term", "several")))
    if shape == "several":
        return draw(hbar_series(mixed=True, levels=levels))
    trunc = draw(st.integers(-1, 4))
    level = draw(st.sampled_from(levels))
    if shape == "rational":
        fe = FieldElement.rational(draw(st.fractions(
            min_value=-6, max_value=6, max_denominator=4).filter(bool)), level)
    else:
        fe = one_term_field(draw, level)
    return HbarLaurent(trunc, {draw(st.integers(-2, trunc)): fe})


# an add: (key, x, s, scale, den), x a series or ("times", x1, x2) for the
# product _Flat.times makes, s None, a scalar or a series
kernel_adds = st.lists(st.tuples(
    st.sampled_from("ab"),
    st.one_of(kernel_series(),
              st.tuples(st.just("times"), kernel_series(), kernel_series())),
    st.one_of(st.none(), st.sampled_from((4, 12, 60)).flatmap(nonzero_field),
              kernel_series()),
    st.integers(-3, 3).filter(bool), st.integers(1, 4)),
    min_size=1, max_size=4)


def kernel_run(adds):
    acc = _Accumulator()
    for key, x, s, scale, den in adds:
        fx = _Flat(x) if isinstance(x, HbarLaurent) else \
            _Flat(x[1]).times(_Flat(x[2]))
        acc.add(key, fx, None if s is None else _Flat(s), scale, den)
    return acc.freeze()


def times_parts(x, y, w):
    """x * y through w as _Flat.times has it: one part per lcm level, the
    pairwise product of the coefficients of each pair of level groups, so
    a power where one group's products cancel is absent from that part."""
    cells = {}
    for i, a in x.coeffs.items():
        for j, b in y.coeffs.items():
            if i + j <= w:
                cell = cells.setdefault(math.lcm(a.level, b.level), {})
                p = a * b
                cell[i + j] = p if i + j not in cell else cell[i + j] + p
    return [HbarLaurent(w, cell) for cell in cells.values()]


def kernel_reference(adds):
    windows, sums = {}, {}
    for key, x, s, scale, den in adds:
        if isinstance(x, HbarLaurent):
            parts, xt, xl = [x], x.trunc, x.low
        else:
            _, x1, x2 = x
            xt = min(x1.trunc + x2.low, x2.trunc + x1.low)
            parts, xl = times_parts(x1, x2, xt), x1.low + x2.low
        if isinstance(s, HbarLaurent):
            w, ys = min(xt + s.low, s.trunc + xl), s.coeffs
        else:
            w, ys = xt, {0: FieldElement.rational(1) if s is None else s}
        windows[key] = min(w, windows.get(key, w))
        cell = sums.setdefault(key, {})
        q = Fraction(scale, den)
        for part in parts:
            for i, a in part.coeffs.items():
                for j, b in ys.items():
                    if i + j <= w:
                        p = a * b * q
                        cell[i + j] = p if i + j not in cell \
                            else cell[i + j] + p
    return {key: HbarLaurent(w, sums[key]) for key, w in windows.items()}


Z12 = FieldElement.zeta(12)


@settings(max_examples=150, deadline=None)
@given(kernel_adds, st.booleans())
# key a cancels at hbar^1 at level 4 beside a level-12 product at hbar^0;
# key b is reached at one level by a relabelled product
@example([("a", HbarLaurent(2, {0: Z12, 1: FieldElement.rational(2)}),
           None, 1, 1),
          ("a", HbarLaurent(3, {1: FieldElement.rational(1)}), None, -2, 1),
          ("b", ("times", HbarLaurent(2, {1: FieldElement.rational(3)}),
                 HbarLaurent(3, {0: Z12, 2: FieldElement(4, {(1, 1): 5})})),
           HbarLaurent(2, {0: FieldElement(4, {(1, 2): Fraction(1, 2)})}),
           3, 2)], False)
# operands at levels 4 and 60, and a key reached at two levels
@example([("a", HbarLaurent(2, {0: FieldElement.zeta(60, 7),
                                1: FieldElement.rational(1)}),
           FieldElement(4, {(1, 0): -1}), 1, 3),
          ("a", ("times", HbarLaurent(2, {0: FieldElement(4, {(1, 0): 2,
                                                               (0, 1): 1})}),
                 HbarLaurent(1, {0: FieldElement.zeta(12, 5)})),
           HbarLaurent(3, {0: FieldElement.rational(1, 12)}), -1, 1)], True)
def test_kernel_branches_against_pairwise_products(adds, cancel):
    if cancel:          # the first add again, negated: its products cancel
        key, x, s, scale, den = adds[0]
        adds = adds + [(key, x, s, -scale, den)]
    got, want = kernel_run(adds), kernel_reference(adds)
    assert list(got) == list(want)
    for key, v in want.items():
        assert_same_product(got[key], v)


def test_normal_form_of_one_term_and_zero():
    # a zero is {} over 1, on the one-term and the several-term branch
    for num in ({(0, 0): 0}, {(0, 0): 0, (1, 2): 0}, {}):
        x = _normal(4, dict(num), 4)
        assert (x.num, x.den) == ({}, 1)
    x = _normal(12, {(1, 2): -6}, 4)            # -6/4 -> -3/2, one gcd
    assert (x.level, x.num, x.den) == (12, {(1, 2): -3}, 2)
    x = _normal(4, {(0, 0): 6, (1, 0): -4, (0, 1): 0}, 8)
    assert (x.num, x.den) == ({(0, 0): 3, (1, 0): -2}, 4)
    x = _normal(4, {(1, 0): -6}, 4, content=False)
    assert (x.num, x.den) == ({(1, 0): -6}, 4)


# ---------------------------------------------------------------------------
# serialization


def test_canonical_text_goldens():
    i = FieldElement.i_unit()
    assert to_text(i * i) == "(-1/1)·ζ^0·π^0·ħ^0·u^0"
    assert to_text(FieldElement.zero()) == "0"
    x = HbarLaurent.from_field(i, 2, power=-1) + HbarLaurent.from_rational(Fraction(1, 2), 2, power=0)
    assert to_text(x) == "(1/1)·ζ^1·π^0·ħ^-1·u^0 + (1/2)·ζ^0·π^0·ħ^0·u^0"
    u = ULaurent.from_hbar(x, 1, power=-1) + ULaurent.one(1, 2)
    assert to_text(u) == ("(1/1)·ζ^1·π^0·ħ^-1·u^-1 + (1/2)·ζ^0·π^0·ħ^0·u^-1"
                          " + (1/1)·ζ^0·π^0·ħ^0·u^0")
    mixed = FieldElement.pi_power(2, Fraction(-3, 7), level=8) * FieldElement.zeta(8, 3)
    assert to_text(mixed) == "(-3/7)·ζ^3·π^2·ħ^0·u^0"


def test_text_term_order_is_total():
    # sort key is (u, hbar, pi, zeta) ascending
    h = HbarLaurent.zero(3)
    for k in (2, 0, 1):
        h = h + HbarLaurent.from_rational(1, 3, power=k)
    txt = to_text(h)
    assert txt.index("ħ^0") < txt.index("ħ^1") < txt.index("ħ^2")
