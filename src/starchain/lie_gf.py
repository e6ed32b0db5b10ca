"""Lie algebra cochains on formal vector fields, evaluated through their
Weyl-algebra lifts, and the bridges from them to differential forms.

A cochain here is an alternating functional on tuples of inner
derivations.  The module provides the Chevalley-Eilenberg differential
with trivial coefficients, the flat invariant connection whose
horizontal lifts turn such cochains into constant-coefficient forms on
the torus, the genus series in the Pontryagin basis, the equivariant
class data recomputed from jet-level twist waves, and the twisted-trace
pairing through the decomposition into group-decorated words.
"""

import math
from fractions import Fraction
from itertools import combinations, permutations

from .cyclic import CyclicChain, d_map
from .forms import _perm_sign
from .group_coh import (EquivariantClassCocycle, GroupCochain, _series_sum,
                        phi_pair)
from .scalars import FieldElement, HbarLaurent, ULaurent, _Flat
from .sparse import _acc
from .torus import TorusElement, TorusForm, TranslationAction, WeylSection
from .weyl import Derivation, WeylElement, extension_defect


class LieCochain:
    """Alternating p-functional on derivations; values are field scalars
    or hbar-series, whichever the evaluator produces."""

    __slots__ = ("arity", "fn")

    def __init__(self, arity: int, fn):
        self.arity = arity
        self.fn = fn

    @classmethod
    def coefficient_product(cls, keys) -> "LieCochain":
        """Antisymmetrized product of representative-coefficient
        extractions; the workhorse for randomized cochains in tests."""
        keys = [tuple(k) for k in keys]
        p = len(keys)

        def fn(xs):
            total = FieldElement.zero()
            for perm in permutations(range(p)):
                prod = FieldElement.rational(_perm_sign(perm))
                for t, (a, b, k) in enumerate(keys):
                    prod = prod * xs[perm[t]].rep.coefficient(a, b, k)
                total = total + prod
            return total

        return cls(p, fn)

    def evaluate(self, xs):
        xs = tuple(xs)
        assert len(xs) == self.arity
        return self.fn(xs)

    def __repr__(self):
        return f"LieCochain(arity={self.arity})"


def lie_differential(lam: LieCochain) -> LieCochain:
    """Chevalley-Eilenberg differential with trivial coefficients:
    sum over pairs of (-1)^(i+j) lam([X_i, X_j], ...rest...)."""
    p = lam.arity

    def fn(xs):
        total = None
        for i, j in combinations(range(p + 1), 2):
            rest = tuple(xs[t] for t in range(p + 1) if t != i and t != j)
            v = lam.evaluate((xs[i].bracket(xs[j]),) + rest)
            if (i + j) % 2 == 0:
                v = v * (-1)
            total = v if total is None else total + v
        return total if total is not None else FieldElement.zero()

    return LieCochain(p + 1, fn)


def theta_hat_cochain() -> LieCochain:
    """The central lifting defect as an alternating 2-cochain."""
    return LieCochain(2, lambda xs: extension_defect(xs[0], xs[1]))


class InvariantConnection:
    """Horizontal lifts of the coordinate fields on the torus into inner
    derivations of the fiber Weyl algebra: the x-direction lifts act
    through the conjugate momentum generators and the xi-directions
    through the position generators, with the factors of i that make the
    commutation defect central."""

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim: int, order: int = 16):
        self.dim = dim
        self.order = order
        i = FieldElement.i_unit()
        coeffs = []
        for j in range(dim):
            coeffs.append(Derivation(WeylElement.xi_hat(dim, j, order) * i))
        for j in range(dim):
            coeffs.append(
                Derivation(WeylElement.x_hat(dim, j, order) * (i * (-1))))
        self.coeffs = coeffs

    def component(self, j: int) -> Derivation:
        return self.coeffs[j]

    def __repr__(self):
        return f"InvariantConnection(dim={self.dim})"


def _as_series(v, trunc: int) -> HbarLaurent:
    if isinstance(v, HbarLaurent):
        return v
    return HbarLaurent.from_field(v, trunc)


def gf_form(lam: LieCochain, conn: InvariantConnection,
            h_trunc: int) -> TorusForm:
    """Evaluate a cochain on the horizontal lifts, direction by
    direction; over the invariant connection the output form has
    constant coefficients."""
    dim = conn.dim
    one = TorusElement.one(dim, h_trunc)
    parts: dict = {}
    for legs in combinations(range(2 * dim), lam.arity):
        val = lam.evaluate(tuple(conn.component(j) for j in legs))
        series = _as_series(val, h_trunc)
        if series.is_zero():
            continue
        parts[legs] = one * series
    return TorusForm(dim, parts)


# -- the genus series ------------------------------------------------------

def _series_log_factor(max_weight: int) -> dict:
    """Coefficients c_m of log((x/2)/sinh(x/2)) = sum c_m x^(2m)."""
    # sinh(y)/y = sum y^(2k)/(2k+1)!; work in t = y^2
    g = {k: Fraction(1, math.factorial(2 * k + 1))
         for k in range(max_weight + 1)}
    # log(1 + u) with u = g - 1, truncated in t-weight
    u = {k: v for k, v in g.items() if k > 0}
    log_g: dict = {}
    power = dict(u)
    sign = 1
    for m in range(1, max_weight + 1):
        for k, v in power.items():
            if k <= max_weight:
                _acc(log_g, k, sign * v / m)
        nxt: dict = {}
        for k1, v1 in power.items():
            for k2, v2 in u.items():
                if k1 + k2 <= max_weight:
                    _acc(nxt, k1 + k2, v1 * v2)
        power = nxt
        sign = -sign
    # substitute t = x^2/4 and negate: weight m picks up 4^(-m)
    return {m: -v / 4 ** m for m, v in log_g.items() if m > 0}


def _power_to_elementary(m: int, max_weight: int) -> dict:
    """Power sum s_m as a polynomial in elementary symmetrics, Newton's
    recursion; keys are sorted index tuples."""
    table = {0: {(): Fraction(1)}}
    for k in range(1, max_weight + 1):
        out: dict = {}

        def acc(mono, q):
            if q:
                _acc(out, mono, q)

        for i in range(1, k):
            for mono, q in table[k - i].items():
                acc(tuple(sorted(mono + (i,))), q * (-1) ** (i - 1))
        acc((k,), Fraction(k) * (-1) ** (k - 1))
        table[k] = out
    return table[m]


def _poly_mul(a: dict, b: dict, max_weight: int) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            mono = tuple(sorted(ka + kb))
            if sum(mono) > max_weight:
                continue
            _acc(out, mono, va * vb)
    return {k: v for k, v in out.items() if v}


def a_hat_series(max_weight: int) -> dict:
    """Multiplicative genus of (x/2)/sinh(x/2) expanded in the
    elementary symmetric functions of the squared roots; keys are sorted
    index tuples, so () is the constant 1, (1,) the first class, (1, 1)
    its square, and so on, graded by the index sum."""
    logs = _series_log_factor(max_weight)
    # exponent written in power sums, then pushed to elementary basis
    log_poly: dict = {}
    for m, c in logs.items():
        for mono, q in _power_to_elementary(m, max_weight).items():
            _acc(log_poly, mono, c * q)
    out = {(): Fraction(1)}
    term = {(): Fraction(1)}
    for k in range(1, max_weight + 1):
        term = _poly_mul(term, log_poly, max_weight)
        term = {mo: v / k for mo, v in term.items()}
        if not term:
            break
        for mo, v in term.items():
            _acc(out, mo, v)
    return {mo: v for mo, v in out.items() if v}


# -- equivariant class data from the jet model -----------------------------

def gelfand_fuks_equivariant(action: TranslationAction, h_trunc: int = 8,
                             order: int | None = None) -> EquivariantClassCocycle:
    """Class data of a translation action recomputed at the jet level:
    the (0, 2) part evaluates the lifting-defect cochain on horizontal
    lifts, and for twisted actions the (1, 1) part reads the logarithmic
    derivative of the twist wave under the flat connection, fiber
    computations all the way."""
    dim = action.dim
    if order is None:
        order = 2 * h_trunc + 2
    conn = InvariantConnection(dim, order)
    fams = {(): gf_form(theta_hat_cochain(), conn, h_trunc)}
    if action.twist is not None:
        w = action.twist
        wave = WeylSection.fiber_wave(dim, w, order)
        inverse = WeylSection.fiber_wave(dim, tuple(-c for c in w), order)
        grads = wave.nabla()
        parts: dict = {}
        one = TorusElement.one(dim, h_trunc)
        for j in range(2 * dim):
            log_d = inverse.star(grads[j])
            central = log_d.component((0,) * (2 * dim))
            rest = log_d - WeylSection.from_base(central, log_d.order)
            if not rest.is_zero():
                raise ArithmeticError(
                    "twist-wave logarithmic derivative is not central")
            series = central.coefficient((0,) * (2 * dim))
            if series.is_zero():
                continue
            parts[(j,)] = one * series
        fams[(1,)] = TorusForm(dim, parts)
    return EquivariantClassCocycle(action, fams)


# -- trace-side pairings ---------------------------------------------------

TRACE = "trace"


def i_xi(lam, xi: GroupCochain, chain: CyclicChain,
         mismatches=None) -> ULaurent:
    """Pair a group cochain and an inner functional against a crossed
    chain through the decomposition into group-decorated inner words.

    With lam = TRACE the inner functional is the plain trace evaluated
    on single-letter words; class data delegates to the transposed
    integral pairing.
    """
    if isinstance(lam, EquivariantClassCocycle):
        return phi_pair(lam, xi, chain, mismatches)
    if lam != TRACE:
        raise TypeError("lam must be TRACE or class data")
    assert chain.ctx.kind == "crossed"
    k = xi.degree
    dim = chain.ctx.dim
    h = chain.ctx.h_trunc
    dec = d_map(chain)
    terms = []
    for (ik, gw), v in dec.coeffs.items():
        if len(gw) != k or len(ik) != 1:
            continue
        val = xi.evaluate(gw)
        if val.is_zero():
            continue
        tr = TorusElement.plane_wave(dim, ik[0], h).trace()
        terms.append((v, [(0, 1, _Flat(tr * val), 0)]))
    return _series_sum(terms, chain.ctx.u_trunc)
