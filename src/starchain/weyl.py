"""Formal Weyl algebra on 2d generators with its star product.

Elements are polynomials in xhat_1..xhat_d, xihat_1..xihat_d and hbar with
FieldElement coefficients, stored as Weyl symbols: a key is a commutative
monomial x^a xi^b hbar^k, and star() is the symmetric Weyl-Moyal product of
symbols, so no ordering of xhat against xihat is imposed (in dim 1,
x * xi = x xi - (i/2) hbar and xi * x = x xi + (i/2) hbar); hbar counts as
degree 2, so the filtration degree of a monomial
xhat^a xihat^b hbar^k is |a| + |b| + 2k.  Every element carries `order`, the
highest filtration degree that is reliable; the star product is filtered, so
windows combine exactly like the Laurent windows in scalars.

Conventions implemented here and relied on everywhere else:
    xihat_k * xhat_j - xhat_j * xihat_k = i hbar delta_kj   (star commutator)
which is the quantization of the symplectic pairing with
omega(xihat_k, xhat_j) = delta_kj, i.e. omega = dxi ^ dx in each plane.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .scalars import (FieldElement, HbarLaurent, _Accumulator, _Flat,
                      _as_field, _min_trunc)
from .sparse import Filtered, _acc


def _deg(key) -> int:
    a, b, k = key
    return sum(a) + sum(b) + 2 * k


@lru_cache(maxsize=4096)
def _moyal_terms(a1, b1, a2, b2):
    """The terms (a, b, st, n, d) of x^a1 xi^b1 * x^a2 xi^b2: the symbol
    x^a xi^b hbar^st times (n/d) zeta_4^(st mod 2), n/d in lowest terms.

    They are the terms over multi-indices s, t of
        (i hbar / 2)^(|s|+|t|) (-1)^|t| / (s! t!)
            * (d_xi^s d_x^t u) (d_x^s d_xi^t v),
    st = |s| + |t|, with (i/2)^st (-1)^|t| = +-zeta_4^(st mod 2) / 2^st
    and i^st = (-1)^(st // 2) zeta_4^(st mod 2)."""
    dim = len(a1)
    out = []
    s_bounds = [min(b1[i], a2[i]) for i in range(dim)]
    t_bounds = [min(a1[i], b2[i]) for i in range(dim)]
    for s in itertools.product(*(range(m + 1) for m in s_bounds)):
        num_s = den_s = 1
        for i in range(dim):
            num_s *= math.perm(b1[i], s[i]) * math.perm(a2[i], s[i])
            den_s *= math.factorial(s[i])
        for t in itertools.product(*(range(m + 1) for m in t_bounds)):
            num, den = num_s, den_s
            for i in range(dim):
                num *= math.perm(a1[i], t[i]) * math.perm(b2[i], t[i])
                den *= math.factorial(t[i])
            st = sum(s) + sum(t)
            if (sum(t) + st // 2) % 2:
                num = -num
            den <<= st
            g = math.gcd(num, den)
            a = tuple(a1[i] + a2[i] - s[i] - t[i] for i in range(dim))
            b = tuple(b1[i] + b2[i] - s[i] - t[i] for i in range(dim))
            out.append((a, b, st, num // g, den // g))
    return tuple(out)


@lru_cache(maxsize=4096)
def _moyal_product(a1, b1, a2, b2):
    """x^a1 xi^b1 * x^a2 xi^b2 as ((a, b, k), FieldElement) pairs: the
    terms of _moyal_terms summed per symbol x^a xi^b and hbar power k, at
    level 4, in the order of their first term; zero sums are dropped."""
    sums: dict = {}
    for a, b, st, n, d in _moyal_terms(a1, b1, a2, b2):
        _acc(sums, (a, b, st), Fraction(n, d))
    return tuple(((a, b, k), FieldElement(4, {(k % 2, 0): q}))
                 for (a, b, k), q in sums.items() if q)


class WeylElement(Filtered):
    """Sparse element of the formal Weyl algebra, keyed by Weyl symbols."""

    __slots__ = ("dim", "order")

    _scalars = (FieldElement, int, Fraction)
    _degree = staticmethod(_deg)

    def __init__(self, dim: int, order: int,
                 coeffs: dict[tuple[tuple[int, ...], tuple[int, ...], int], FieldElement]):
        self.dim = dim
        self.order = order
        self.coeffs = {k: v for k, v in coeffs.items()
                       if _deg(k) <= order and not v.is_zero()}

    def _at(self, order, coeffs):
        return WeylElement(self.dim, order, coeffs)

    def _spawn(self, coeffs, other=None):
        assert other is None or other.dim == self.dim
        return Filtered._spawn(self, coeffs, other)

    def global_window(self) -> int:
        return self.order

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, order: int) -> "WeylElement":
        return cls(dim, order, {})

    @classmethod
    def monomial(cls, dim: int, a, b, hbar_pow: int = 0, coeff=1,
                 order: int = 16) -> "WeylElement":
        a, b = tuple(a), tuple(b)
        assert len(a) == dim and len(b) == dim
        return cls(dim, order, {(a, b, hbar_pow): _as_field(coeff, 4)})

    @classmethod
    def one(cls, dim: int, order: int = 16) -> "WeylElement":
        z = (0,) * dim
        return cls.monomial(dim, z, z, 0, 1, order)

    @classmethod
    def x_hat(cls, dim: int, i: int, order: int = 16) -> "WeylElement":
        a = tuple(1 if j == i else 0 for j in range(dim))
        return cls.monomial(dim, a, (0,) * dim, 0, 1, order)

    @classmethod
    def xi_hat(cls, dim: int, i: int, order: int = 16) -> "WeylElement":
        b = tuple(1 if j == i else 0 for j in range(dim))
        return cls.monomial(dim, (0,) * dim, b, 0, 1, order)

    @classmethod
    def hbar(cls, dim: int, power: int = 1, order: int = 16) -> "WeylElement":
        z = (0,) * dim
        return cls.monomial(dim, z, z, power, 1, order)

    @classmethod
    def central(cls, dim: int, series: HbarLaurent, order: int) -> "WeylElement":
        """Embed an hbar-series with nonnegative valuation as a central element."""
        z = (0,) * dim
        out = {}
        for k, fe in series.coeffs.items():
            if k < 0:
                raise ValueError("central embedding needs nonnegative hbar powers")
            out[(z, z, k)] = fe
        return cls(dim, min(order, 2 * series.trunc + 1), out)

    # -- queries -----------------------------------------------------------

    def coefficient(self, a, b, hbar_pow: int = 0) -> FieldElement:
        return self.coeffs.get((tuple(a), tuple(b), hbar_pow), FieldElement.zero())

    def central_part(self, h_trunc: int | None = None) -> HbarLaurent:
        """The pure-hbar component, as an hbar-series."""
        z = (0,) * self.dim
        tr = self.order // 2 if h_trunc is None else h_trunc
        return HbarLaurent(tr, {k: v for (a, b, k), v in self.coeffs.items()
                                if a == z and b == z})

    def without_central(self) -> "WeylElement":
        z = (0,) * self.dim
        return WeylElement(self.dim, self.order,
                           {key: v for key, v in self.coeffs.items()
                            if not (key[0] == z and key[1] == z)})

    # -- linear structure --------------------------------------------------

    def _scalar(self, s):
        """Scalars act as FieldElements; use star() or poly_mul() for
        algebra products."""
        return _as_field(s, 4) if isinstance(s, self._scalars) else None

    def divide_hbar(self, m: int = 1) -> "WeylElement":
        """Exact division by hbar^m; every term must carry at least hbar^m."""
        out = {}
        for (a, b, k), v in self.coeffs.items():
            if k < m:
                raise ValueError("element is not divisible by hbar^%d" % m)
            out[(a, b, k - m)] = v
        return self._at(self.order - 2 * m, out)

    # -- products ----------------------------------------------------------

    def _window(self, other) -> int:
        return _min_trunc(self.order, self.low, other.order, other.low)

    def star(self, other: "WeylElement") -> "WeylElement":
        """Weyl-Moyal product, expanded monomial against monomial.

        For monomials u, v the product is the finite sum over multi-indices
        s, t of
            (i hbar / 2)^(|s|+|t|) (-1)^|t| / (s! t!)
                * (d_xi^s d_x^t u) (d_x^s d_xi^t v)
        (_moyal_terms) and the filtration degree of every term matches
        deg(u) + deg(v).  Each pair of coefficients c1 hbar^k1, c2 hbar^k2
        within the order is multiplied once, and each of its Moyal terms
        (n/d) i^st hbar^st is one _Accumulator.add under the symbol (a, b);
        each operand is reliable through hbar^(order // 2 + its power), so
        no term within the order is cut.
        """
        assert isinstance(other, WeylElement) and other.dim == self.dim
        order = self._window(other)
        half = order // 2

        def flat(key, c):
            k = key[2]
            return _Flat.of({c.level: [(k, a, b, n)
                                       for (a, b), n in c.num.items()]},
                            c.den, half + k, k)

        ys = [(key, _deg(key), flat(key, c))
              for key, c in other.coeffs.items()]
        acc = _Accumulator()
        for (a1, b1, k1), c1 in self.coeffs.items():
            x, room = flat((a1, b1, k1), c1), order - _deg((a1, b1, k1))
            for (a2, b2, _), deg2, y in ys:
                if deg2 > room:
                    continue
                xy = x.times(y)
                for a, b, st, n, d in _moyal_terms(a1, b1, a2, b2):
                    acc.add((a, b), xy, _Flat.of({4: [(st, st % 2, 0, n)]},
                                                 d, half + st, st))
        # freeze drops the zero sums, and every term's degree is that of
        # its pair, within order: nothing is left for __init__ to drop
        out = object.__new__(WeylElement)
        out.dim, out.order = self.dim, order
        out.coeffs = {(a, b, k): fe for (a, b), h in acc.freeze().items()
                      for k, fe in h.coeffs.items()}
        return out

    def poly_mul(self, other: "WeylElement") -> "WeylElement":
        """Commutative product of the underlying symbols (no hbar corrections)."""
        assert isinstance(other, WeylElement) and other.dim == self.dim
        order = self._window(other)
        out: dict = {}
        for (a1, b1, k1), c1 in self.coeffs.items():
            for (a2, b2, k2), c2 in other.coeffs.items():
                a = tuple(x + y for x, y in zip(a1, a2))
                b = tuple(x + y for x, y in zip(b1, b2))
                key = (a, b, k1 + k2)
                if _deg(key) > order:
                    continue
                _acc(out, key, c1 * c2)
        return WeylElement(self.dim, order, out)

    def __repr__(self):
        parts = []
        for key in sorted(self.coeffs, key=lambda k: (_deg(k), k)):
            a, b, h = key
            parts.append(f"x^{a}xi^{b}h^{h}")
        return f"WeylElement<{' + '.join(parts) or '0'}; order={self.order}>"


def commutator(f: WeylElement, g: WeylElement) -> WeylElement:
    return f.star(g) - g.star(f)


class Derivation:
    """Inner derivation g -> (1/hbar)(rep*g - g*rep) of the Weyl algebra.

    The representative is stored with its central (pure-hbar) part removed,
    which makes it the canonical lift of the derivation.
    """

    __slots__ = ("rep",)

    def __init__(self, rep: WeylElement):
        self.rep = rep.without_central()

    def apply(self, g: WeylElement) -> WeylElement:
        return commutator(self.rep, g).divide_hbar(1)

    def bracket(self, other: "Derivation") -> "Derivation":
        return Derivation(commutator(self.rep, other.rep).divide_hbar(1))

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        raise TypeError("Derivation is unhashable")

    def __repr__(self):
        return f"Derivation({self.rep!r})"


def extension_defect(d1: Derivation, d2: Derivation) -> HbarLaurent:
    """Central discrepancy of the canonical lifts of two derivations.

    Lifting a derivation to hbar^-1 times its representative, the bracket of
    lifts minus the lift of the bracket is a central hbar-series; the result
    can carry an hbar^-1 term, which is the source of the 1/hbar singularity
    in the curvature-type classes built downstream.
    """
    w = commutator(d1.rep, d2.rep).divide_hbar(1)
    return w.central_part().shift(-1)


def sp_quadratic_basis(dim: int, order: int = 16) -> list[WeylElement]:
    """Representatives of a basis of the quadratic symbols: these close under
    (1/hbar)[.,.] with no central defect and act as the symplectic Lie algebra."""
    out = []
    for k in range(dim):
        for j in range(k, dim):
            xk = WeylElement.x_hat(dim, k, order)
            xj = WeylElement.x_hat(dim, j, order)
            out.append(xk.star(xj) if k != j else xk.poly_mul(xj))
            pk = WeylElement.xi_hat(dim, k, order)
            pj = WeylElement.xi_hat(dim, j, order)
            out.append(-(pk.star(pj) if k != j else pk.poly_mul(pj)))
    for k in range(dim):
        for j in range(dim):
            xk = WeylElement.x_hat(dim, k, order)
            pj = WeylElement.xi_hat(dim, j, order)
            sym = (xk.star(pj) + pj.star(xk)) / 2
            out.append(sym)
    return out
