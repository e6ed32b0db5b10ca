"""Exact scalar tower: cyclotomic rationals with a formal pi, and truncated
Laurent layers in hbar and u.

The tower is Q(zeta_L)[pi] -> hbar-Laurent series mod hbar^(N+1) -> u-Laurent
series mod u^(Nu+1).  pi is transcendental, so it is carried as a formal
power; zeta_L is a primitive L-th root of unity with L divisible by 4 (so the
imaginary unit i = zeta_L^(L/4) is always available).  All arithmetic is
exact.  A cyclotomic element holds integer numerators over one positive
common denominator in lowest terms, so its products and sums run on Python
ints with one gcd per result; an operation on two levels first embeds both
operands at the lcm level.

Every product has one route.  Products run through one sparse integer
accumulator (_Accumulator; Gilbert, Moler and Schreiber, SIAM J. Matrix
Anal. Appl. 13, 1992), and every windowed product enters it through one
call, _Accumulator.add(key, x, s, scale, den), on operands flattened once
into _Flat terms: (power, a, b, n) integer numerators over one
denominator, grouped by level.  The call holds the window rule: a product
is reliable through min(t_x + low_y, t_y + low_x) (_min_trunc), and a key
keeps the least window of its products and the lcm of their
denominators.  Each pair of level groups is lifted to the lcm of its
levels; the numerators of every product of terms are multiplied through
the zeta rows of that level and summed under (output key, level, hbar
power, zeta exponent, pi power) with no normalisation.  Freezing cuts each
key at its window and makes one FieldElement per output coefficient at the
lcm of the levels of every pair that reaches it, also where part of the
sum cancels, so that level, which is what it prints at, does not depend on
the order of the terms.  In the common case every operand sits at one
level: then an add is one pass over the two term lists, a product by a
one-term rational factor (_Flat.times) is a relabelling of the other's
terms, and a key reached at one level freezes straight from its sums, one
normal form per power; only mixed levels pair and merge level groups.
Its callers only say what to multiply: the kernel _series_products (two
hbar series, the torus star and symbol products, the crossed star, the u
product), the chain kernel _chain_sums (every chain operator, over
scalars cached as _Flat terms), the idempotent character's paths
(cyclic.chern_character) and the Weyl star (one add per coefficient pair
and Moyal term).  A product of two u-series with one power each is the
product of their hbar series.

The only other route is the product by a one-term monomial u hbar^k,
u = (n/d) zeta^a pi^b, a relabelling, not a series product; most scalars
the chain operators meet are such phases (exactly 1, or +-zeta^a).  Each
coefficient has its exponent shifted by k, is embedded at lcm(level,
u.level) only when u's level does not divide its own, and has its
numerators moved through the zeta rows by the single entry (a, b).  zeta^a
is a unit of Z[zeta], so multiplying by it is an invertible integer matrix
on the numerators of each pi-degree, and pi^b only moves the pi-degree: the
numerators' gcd is kept, the result is already in lowest terms when
n/d = +-1, and the gcd runs only otherwise.  A product by 1 at a dividing
level returns the coefficient itself.  Levels follow the lcm rule of the
pairwise product, so the printed form is the same.  A scalar of several
terms multiplies a series coefficient by coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .sparse import Filtered, Sparse, _acc


# Largest cyclotomic level.  The root-of-unity table of a level
# (_zeta_rows) builds, on a 2-vCPU host under CPython 3.11, in at most
# 0.16 s and 1.3 MiB for every multiple of 4 up to 1200, but 2.4 s and
# 70 MiB at 4620.  The shipped configs need 60 and 16.
MAX_CYCLOTOMIC_LEVEL = 1200

Rat = Union[int, Fraction]


class LevelOverflow(ValueError):
    """Raised when a least-common-multiple of cyclotomic levels would exceed
    MAX_CYCLOTOMIC_LEVEL."""


def _check_level(level: int) -> None:
    """Reject a level before anything is built at it."""
    if level < 4 or level % 4 != 0:
        raise ValueError("cyclotomic level must be a multiple of 4")
    if level > MAX_CYCLOTOMIC_LEVEL:
        raise LevelOverflow(f"level {level} exceeds bound {MAX_CYCLOTOMIC_LEVEL}")


def _poly_divide(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (coefficient lists, index = degree)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        assert c % den[-1] == 0
        q = c // den[-1]
        out[k] = q
        for j, d in enumerate(den):
            num[k + j] -= q * d
    assert all(c == 0 for c in num)
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree."""
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _zeta_rows(level: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row k expresses zeta^k over the power basis zeta^0..zeta^(m-1),
    m = phi(level), as its nonzero (index, coefficient) pairs; the rows
    k < m are the single unit entry ((k, 1),)."""
    phi = cyclotomic_polynomial(level)
    m = len(phi) - 1
    rows = [((k, 1),) for k in range(m)]
    vec = [0] * m
    vec[m - 1] = 1
    for _ in range(m, level):
        # multiply the dense vector by zeta, then rewrite zeta^m through phi
        top = vec[-1]
        vec = [0] + vec[:-1]
        if top:
            for j in range(m):
                vec[j] -= top * phi[j]
        rows.append(tuple((j, c) for j, c in enumerate(vec) if c))
    return tuple(rows)


def _mul_into(out: dict[tuple[int, int], int],
              xnum: dict[tuple[int, int], int],
              ynum: dict[tuple[int, int], int], level: int) -> None:
    """Add the product of two numerator maps at one level into out,
    reducing every zeta power through the rows of _zeta_rows(level)."""
    rows = _zeta_rows(level)
    for (a1, b1), c1 in xnum.items():
        for (a2, b2), c2 in ynum.items():
            c = c1 * c2
            bb = b1 + b2
            for a3, rc in rows[(a1 + a2) % level]:
                key = (a3, bb)
                out[key] = out.get(key, 0) + c * rc


def _lift(out: dict[tuple[int, int], int], num: dict[tuple[int, int], int],
          step: int, level: int) -> dict[tuple[int, int], int]:
    """Add the numerators num, written at level // step, into out at level
    and return out: zeta^a becomes zeta^(a step), rewritten through the rows
    of _zeta_rows(level).  Raises LevelOverflow past the level bound."""
    _check_level(level)
    rows = _zeta_rows(level)
    for (a, b), c in num.items():
        for a2, rc in rows[a * step % level]:
            key = (a2, b)
            out[key] = out.get(key, 0) + c * rc
    return out


def _normal(level: int, num: dict[tuple[int, int], int],
            den: int, content: bool = True) -> "FieldElement":
    """FieldElement with numerators num over den > 0, brought to normal
    form: zero numerators dropped, then one gcd to put it in lowest terms,
    so a zero is {} over 1; content=False skips the gcd for a caller that
    knows it is 1.  A one-term num takes one gcd of its numerator."""
    if len(num) == 1:
        (t, n), = num.items()
        g = math.gcd(den, n) if content else 1      # gcd(den, 0) = den
        if g != 1 or not n:
            den //= g
            num = {t: n // g} if n else {}
    else:
        if not all(num.values()):
            num = {k: v for k, v in num.items() if v}
        if content and den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {k: v // g for k, v in num.items()}
    x = object.__new__(FieldElement)
    x.level = level
    x.num = num
    x.den = den
    return x


class FieldElement:
    """Element of Q(zeta_L)[pi]: finite sum of (rational) * zeta^a * pi^b.

    The value is sum(num[(a, b)] * zeta^a * pi^b) / den with integer
    numerators, 0 <= a < phi(L) and b >= 0.  It is kept in normal form:
    den > 0, no zero numerator is stored, and gcd(den, *num.values()) == 1,
    so two elements at one level are equal exactly when their (num, den)
    are.  coeffs is the same value as an (a, b) -> Fraction mapping.
    Values are immutable by convention.
    """

    __slots__ = ("level", "num", "den")

    def __init__(self, level: int, coeffs: dict[tuple[int, int], Rat]):
        _check_level(level)
        coeffs = {k: Fraction(v) for k, v in coeffs.items() if v != 0}
        # over the lcm of reduced denominators the numerators are coprime
        den = math.lcm(*(v.denominator for v in coeffs.values()))
        self.level = level
        self.num = {k: v.numerator * (den // v.denominator)
                    for k, v in coeffs.items()}
        self.den = den

    @property
    def coeffs(self) -> dict[tuple[int, int], Fraction]:
        den = self.den
        return {k: Fraction(v, den) for k, v in self.num.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, q: Rat, level: int = 4) -> "FieldElement":
        return cls(level, {(0, 0): q})

    @classmethod
    def zero(cls, level: int = 4) -> "FieldElement":
        return cls(level, {})

    @classmethod
    def zeta(cls, level: int, k: int = 1) -> "FieldElement":
        """zeta_level^k, reduced to the power basis."""
        _check_level(level)
        row = _zeta_rows(level)[k % level]
        return _normal(level, {(a, 0): c for a, c in row}, 1, content=False)

    @classmethod
    def i_unit(cls, level: int = 4) -> "FieldElement":
        return cls.zeta(level, level // 4)

    @classmethod
    def pi_power(cls, b: int, coeff: Rat = 1, level: int = 4) -> "FieldElement":
        if b < 0:
            raise ValueError("pi powers are nonnegative")
        return cls(level, {(0, b): coeff})

    # -- level handling ----------------------------------------------------

    def embed(self, level: int) -> "FieldElement":
        """Reinterpret at a larger level (self.level must divide level)."""
        if level == self.level:
            return self
        if level % self.level != 0:
            raise ValueError("can only embed into a multiple of the current level")
        return _normal(level, _lift({}, self.num, level // self.level, level),
                       self.den)

    @staticmethod
    def common_level(x: "FieldElement", y: "FieldElement") -> int:
        lev = math.lcm(x.level, y.level)
        if lev > MAX_CYCLOTOMIC_LEVEL:
            raise LevelOverflow(
                f"lcm level {lev} exceeds bound {MAX_CYCLOTOMIC_LEVEL}")
        return lev

    def _aligned(self, other: "FieldElement"):
        """Both operands at their common level; same-level pairs pass as is."""
        if self.level == other.level:
            return self, other
        lev = self.common_level(self, other)
        return self.embed(lev), other.embed(lev)

    def _descend(self, level: int):
        """self at level, a divisor of self.level, when every stored zeta
        exponent is a multiple of step = self.level // level; else None.
        Each quotient is then below phi(level), since phi(self.level) <=
        phi(level) * step, so the result is in the power basis."""
        step = self.level // level
        num = {}
        for (a, b), c in self.num.items():
            if a % step:
                return None
            num[(a // step, b)] = c
        return _normal(level, num, self.den, content=False)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return all(k == (0, 0) for k in self.num)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num.get((0, 0), 0), self.den)

    def is_monomial(self) -> bool:
        """Single zeta-power term with no pi (hence invertible by inspection)."""
        return len(self.num) == 1 and next(iter(self.num))[1] == 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_field(other, self.level)
        if other is NotImplemented:
            return NotImplemented
        x, y = self._aligned(other)
        d1, d2 = x.den, y.den
        if d1 == d2:
            s1 = s2 = 1
        else:
            g = math.gcd(d1, d2)
            s1, s2 = d2 // g, d1 // g
        out = {k: v * s1 for k, v in x.num.items()}
        for k, v in y.num.items():
            out[k] = out.get(k, 0) + v * s2
        return _normal(x.level, out, d1 * s1)

    __radd__ = __add__

    def __neg__(self):
        return _normal(self.level, {k: -v for k, v in self.num.items()},
                       self.den, content=False)

    def __sub__(self, other):
        o = _as_field(other, self.level)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def _scaled(self, n: int, d: int) -> "FieldElement":
        """self * n/d for integers n and d > 0, at self's level."""
        return _normal(self.level, {k: v * n for k, v in self.num.items()},
                       self.den * d)

    def _times_term(self, n: int, d: int, a: int, b: int,
                    lu: int) -> "FieldElement":
        """self * (n/d) zeta_lu^a pi^b for integers n != 0 and d > 0, at
        lcm(self.level, lu) as the general product gives it: one relabelling
        of the numerators, with the gcd only when n/d is not +-1 (see the
        module docstring).  A product by 1 at a level dividing self.level
        is self."""
        x, lev = self, self.level
        if lev % lu:
            x = self.embed(math.lcm(lev, lu))
            lev = x.level
        if not (a or b):
            return x if n == d else x._scaled(n, d)
        out: dict[tuple[int, int], int] = {}
        _mul_into(out, x.num, {(a * (lev // lu), b): n}, lev)
        return _normal(lev, out, x.den * d,
                       content=not (d == 1 and (n == 1 or n == -1)))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            x, y = self._aligned(other)
            out: dict[tuple[int, int], int] = {}
            _mul_into(out, x.num, y.num, x.level)
            return _normal(x.level, out, x.den * y.den)
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, FieldElement):
            return self * other.inv_monomial()
        if isinstance(other, (int, Fraction)):
            n, d = other.numerator, other.denominator
            if n == 0:
                raise ZeroDivisionError("FieldElement division by zero")
            return self._scaled(-d, -n) if n < 0 else self._scaled(d, n)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            return self.inv_monomial() ** (-n)
        out = FieldElement.rational(1, self.level)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inv_monomial(self) -> "FieldElement":
        """Inverse, available when the element is q * zeta^a with q rational.

        General field inversion is deliberately not provided; every inverse the
        library needs is of this shape.
        """
        if not self.is_monomial():
            raise ValueError("only monomial scalars (q * zeta^a) are invertible here")
        ((a, _b), n), = self.num.items()
        # zeta^a appears through the reduced basis, so a is already a plain
        # power; its inverse power is level - a.
        inv = FieldElement.zeta(self.level, (self.level - a) % self.level)
        return inv / Fraction(n, self.den)

    def __eq__(self, other):
        other = _as_field(other, self.level)
        if other is NotImplemented:
            return NotImplemented
        x, y = self, other
        # a rational has the same (num, den) at every level
        if x.level != y.level and not (x.is_rational() and y.is_rational()):
            lev = math.lcm(x.level, y.level)
            if lev <= MAX_CYCLOTOMIC_LEVEL:
                x, y = x.embed(lev), y.embed(lev)
            else:
                # no common level: compare both at the gcd level, when both
                # are written there
                g = math.gcd(x.level, y.level)
                x, y = x._descend(g), y._descend(g)
                if x is None or y is None:
                    raise LevelOverflow(
                        f"lcm level {lev} exceeds bound "
                        f"{MAX_CYCLOTOMIC_LEVEL} and the elements do not "
                        f"descend to level {g}")
        return x.den == y.den and x.num == y.num

    def __hash__(self):
        # Only level-free data: embedding is injective and fixes Q, so equal
        # elements at different levels have the same pi-degrees and, when
        # rational, the same value.
        if self.is_rational():
            return hash(self.rational_value())
        return hash(frozenset(b for _a, b in self.num))

    def __repr__(self):
        return f"FieldElement({to_text(self)!r})"


def _as_field(x, level: int):
    if isinstance(x, FieldElement):
        return x
    if isinstance(x, (int, Fraction)):
        return FieldElement.rational(x, level)
    return NotImplemented


def _min_trunc(a_trunc, a_low, b_trunc, b_low):
    """Reliability window of a product, given windows and lowest exponents
    (None for a zero series): min(a_trunc + b_low, b_trunc + a_low) over
    the terms that exist."""
    if a_low is None:
        return min(a_trunc, b_trunc) if b_low is None else a_trunc + b_low
    if b_low is None:
        return b_trunc + a_low
    return min(a_trunc + b_low, b_trunc + a_low)


def _term(fe: FieldElement):
    """(n, d, a, b, level) when fe is the one term (n/d) zeta^a pi^b, else
    None."""
    if len(fe.num) != 1:
        return None
    ((a, b), n), = fe.num.items()
    return n, fe.den, a, b, fe.level


def _common_den(fes) -> int:
    """The lcm of the denominators of the FieldElements fes."""
    den = 1
    for fe in fes:
        d = fe.den
        if den % d:
            den = den // math.gcd(den, d) * d
    return den


def _flat(coeffs: dict[int, FieldElement], den: int):
    """The coefficients of {power: FieldElement}, all at one level, as flat
    (power, a, b, n) terms, every numerator n over den, a multiple of their
    denominators, in ascending powers."""
    terms = []
    for k in sorted(coeffs):
        fe = coeffs[k]
        s = den // fe.den
        terms += [(k, a, b, n * s) for (a, b), n in fe.num.items()]
    return terms


def _level_groups(coeffs: dict) -> dict:
    """{level: {key: FieldElement}}: the FieldElement values of coeffs
    grouped by their level; coeffs itself when they share one."""
    levels = {fe.level for fe in coeffs.values()}
    if len(levels) == 1:
        return {levels.pop(): coeffs}
    groups: dict = {}
    for key, fe in coeffs.items():
        groups.setdefault(fe.level, {})[key] = fe
    return groups


class _Accumulator:
    """Sparse integer accumulator for coefficient products (see the module
    docstring): integer numerators keyed by (output key, level, hbar
    power, zeta exponent, pi power), each key's over one denominator and
    under one window of its own.  Nothing is normalised while terms are
    added; `freeze` makes one FieldElement per output coefficient and
    level, with one `_normal` each.  Operands at one level take one pass
    in `add`, and a key reached at one level freezes without a merge.

    `add` is the entry point of every windowed product and holds the
    window rule (_min_trunc): a key keeps the least window of its
    products, and its denominator grows to the lcm of theirs, its sums
    rescaled when it does.  Its callers: `_series_products`, `_chain_sums`
    (every chain operator, the boundary plans and the pairings),
    `cyclic.chern_character` and `weyl.WeylElement.star`."""

    __slots__ = ("_sums",)

    def __init__(self):
        # key -> [den, window, {level: {power: {(a, b): n}}}]
        self._sums: dict = {}

    @staticmethod
    def _into(sums, level: int, xs, ys, trunc: int, scale: int) -> None:
        """Add scale times the product of the flat term lists xs and ys,
        both at level and in the power basis, ys in ascending powers, into
        sums, {power: {(a, b): n}}, keeping the powers through trunc; zeta
        powers are reduced through the rows of the level.  A factor that is
        one rational term (the unit of a sign, a rational coefficient)
        scales the other's terms instead."""
        if len(ys) == 1 and not (ys[0][1] or ys[0][2]):
            one, other = ys[0], xs
        elif len(xs) == 1 and not (xs[0][1] or xs[0][2]):
            one, other = xs[0], ys
        else:
            one = None
        if one is not None:
            i, _, _, n1 = one
            n1 *= scale
            for j, a, b, n2 in other:
                k = i + j
                if k > trunc:
                    continue
                out = sums.get(k)
                if out is None:
                    out = sums[k] = {}
                t = (a, b)
                out[t] = out.get(t, 0) + n1 * n2
            return
        rows = _zeta_rows(level)
        for i, a1, b1, n1 in xs:
            n1 *= scale
            for j, a2, b2, n2 in ys:
                k = i + j
                if k > trunc:
                    break
                out = sums.get(k)
                if out is None:
                    out = sums[k] = {}
                c = n1 * n2
                bb = b1 + b2
                for a3, rc in rows[(a1 + a2) % level]:
                    t = (a3, bb)
                    out[t] = out.get(t, 0) + c * rc

    def add(self, key, x: "_Flat", s: "_Flat" = None, scale: int = 1,
            den: int = 1) -> None:
        """Add scale * x * s / den under key, s None for 1, through the
        product's window: x's own when s is None or a scalar (no window),
        else _min_trunc of the two.  The key's window is lowered to it
        also when s has no terms (an empty phase).  When x has one level
        group and s is None or one group at that level, the two term
        lists go to `_into` once; other operands pair their level groups
        (_Flat.pairs)."""
        if s is None:
            w = x.trunc
        else:
            w = x.trunc if s.trunc is None else \
                _min_trunc(x.trunc, x.low, s.trunc, s.low)
            den *= s.den
        by_level, f = self._slot(key, x.den * den, w)
        f *= scale
        into = self._into
        if len(x.groups) == 1 and (s is None or len(s.groups) == 1):
            (lev, xs), = x.groups.items()
            ys = _UNIT if s is None else s.groups.get(lev)
            if ys is not None:
                sums = by_level.get(lev)
                if sums is None:
                    sums = by_level[lev] = {}
                return into(sums, lev, xs, ys, w, f)
        for lev, xs, ys in x.pairs(s):
            sums = by_level.get(lev)
            if sums is None:
                sums = by_level[lev] = {}
            into(sums, lev, xs, ys, w, f)

    def _slot(self, key, den: int, trunc: int):
        """(sums, f): the sums of key, {level: {power: {(a, b): n}}}, and
        the factor f that brings a numerator over den to their
        denominator, which grows to the lcm with den, the sums rescaled,
        when den does not divide it.  The key's window is lowered to
        trunc."""
        entry = self._sums.get(key)
        if entry is None:
            entry = self._sums[key] = [den, trunc, {}]
            return entry[2], 1
        if trunc < entry[1]:
            entry[1] = trunc
        old = entry[0]
        if old % den:
            entry[0] = new = old // math.gcd(old, den) * den
            f = new // old
            for sums in entry[2].values():
                for num in sums.values():
                    for t in num:
                        num[t] *= f
            old = new
        return entry[2], old // den

    def freeze(self) -> dict:
        """{key: HbarLaurent}: each key's sums through its window, a key
        with no terms as the zero series at its window.  A key whose sums
        sit at one level makes its coefficients straight from them, one
        `_normal` per power, the zero ones dropped.  The sums at one key
        and power but at several levels are added as FieldElements, so
        the coefficient sits at the lcm of the levels of its products, as
        the pairwise sum has it, also where it sums to zero.  The sums are
        consumed, each key's released once its coefficients are made."""
        out: dict = {}
        for key, (den, top, by_level) in self._sums.items():
            if len(by_level) == 1:
                (lev, sums), = by_level.items()
                coeffs = {k: fe for k, num in sums.items() if k <= top
                          and (fe := _normal(lev, num, den)).num}
            else:
                by_power: dict = {}
                for lev, sums in by_level.items():
                    for k, num in sums.items():
                        if k <= top:
                            _acc(by_power, k, _normal(lev, num, den))
                coeffs = {k: v for k, v in by_power.items() if v.num}
            by_level.clear()
            # already cut at top, the zero sums dropped
            h = out[key] = object.__new__(HbarLaurent)
            h.trunc = top
            h.coeffs = coeffs
        self._sums = {}
        return out


class _Laurent(Filtered):
    """Truncated Laurent series: key = exponent, limit = trunc.

    trunc is the highest exponent whose coefficient is reliable; terms above
    it are discarded by every operation.  The principal (negative) part is
    always finite.  Equality compares the two series over the common reliable
    range, so callers that need a guaranteed range assert on .trunc as well.
    """

    __slots__ = ("trunc",)

    def __init__(self, trunc: int, coeffs):
        self.trunc = trunc
        self.coeffs = {k: v for k, v in coeffs.items()
                       if k <= trunc and not v.is_zero()}

    def _at(self, trunc, coeffs):
        return type(self)(trunc, coeffs)

    def global_window(self) -> int:
        return self.trunc

    # The series are the hottest layer: these two read trunc and the
    # exponents directly instead of through global_window() and _degree,
    # as the generic Filtered versions do.

    def _spawn(self, coeffs, other=None):
        trunc = self.trunc if other is None else min(self.trunc, other.trunc)
        return type(self)(trunc, coeffs)

    @property
    def low(self):
        return min(self.coeffs) if self.coeffs else None

    @classmethod
    def zero(cls, trunc: int):
        return cls(trunc, {})

    def __truediv__(self, other):
        if isinstance(other, FieldElement):
            return self * other.inv_monomial()
        if isinstance(other, (int, Fraction)):
            return self._spawn({k: v / other for k, v in self.coeffs.items()})
        return NotImplemented

    def shift(self, k: int):
        """Multiply by the variable to the k; the window moves with the
        terms."""
        return self._at(self.trunc + k,
                        {e + k: v for e, v in self.coeffs.items()})


class HbarLaurent(_Laurent):
    """Truncated Laurent series in hbar with FieldElement coefficients."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_field(cls, fe: FieldElement, trunc: int, power: int = 0) -> "HbarLaurent":
        return cls(trunc, {power: fe})

    @classmethod
    def one(cls, trunc: int, level: int = 4) -> "HbarLaurent":
        return cls.from_field(FieldElement.rational(1, level), trunc)

    @classmethod
    def from_rational(cls, q: Rat, trunc: int, power: int = 0,
                      level: int = 4) -> "HbarLaurent":
        return cls.from_field(FieldElement.rational(q, level), trunc, power)

    # -- queries -----------------------------------------------------------

    def coefficient(self, k: int) -> FieldElement:
        if k > self.trunc:
            raise ValueError(f"hbar^{k} is beyond the reliable window {self.trunc}")
        return self.coeffs.get(k, FieldElement.zero())

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, HbarLaurent):
            return other
        fe = _as_field(other, 4)
        if fe is NotImplemented:
            return None
        return HbarLaurent.from_field(fe, self.trunc)

    # bound in each series class's own body: perfbench/tracer.py times
    # HbarLaurent.__add__ and ULaurent.__add__ as separate entries
    __add__ = __radd__ = Sparse.__add__

    def __mul__(self, other):
        if isinstance(other, HbarLaurent):
            trunc = _min_trunc(self.trunc, self.low, other.trunc, other.low)
            for x, y in ((self, other), (other, self)):
                if len(y.coeffs) == 1:
                    (k, fe), = y.coeffs.items()
                    term = _term(fe)
                    if term is not None:
                        return x._times_term(k, term, trunc)
            sums = _series_products({0: self}, {0: other}, lambda i, j: 0)
            return sums[0] if sums else HbarLaurent.zero(trunc)
        if isinstance(other, FieldElement):
            term = _term(other)
        elif isinstance(other, (int, Fraction)):
            term = (other.numerator, other.denominator, 0, 0, 4) if other \
                else None
        else:
            return NotImplemented
        if term is None:
            # a scalar of several terms, or zero, keeps the window of self
            return self._spawn({k: v * other for k, v in self.coeffs.items()})
        return self._times_term(0, term, self.trunc)

    __rmul__ = __mul__

    def _times_term(self, k: int, term, trunc: int) -> "HbarLaurent":
        """self * (n/d) zeta_lu^a pi^b hbar^k through trunc, for term =
        (n, d, a, b, lu): one relabelling per coefficient
        (FieldElement._times_term) instead of a series product."""
        out = object.__new__(HbarLaurent)
        out.trunc = trunc
        # already cut at trunc, and Q(zeta)[pi] has no zero divisors, so
        # there is nothing for __init__ to drop
        out.coeffs = {e + k: v._times_term(*term)
                      for e, v in self.coeffs.items() if e + k <= trunc}
        return out

    def __repr__(self):
        return f"HbarLaurent({to_text(self)!r}, trunc={self.trunc})"


def hbar_exp(x: HbarLaurent) -> HbarLaurent:
    """exp of a series with strictly positive hbar valuation (exact, finite).

    The sum is computed through the window of x; term j has valuation >= j,
    so it stops after at most trunc+1 rounds.
    """
    if not x.is_zero() and x.low <= 0:
        raise ValueError("exp needs positive hbar valuation")
    acc = HbarLaurent.one(x.trunc)
    term = acc
    j = 1
    while True:
        term = (term * x / j).truncate(x.trunc)
        if term.is_zero():
            break
        acc = acc + term
        j += 1
    return acc


@lru_cache(maxsize=None)
def _star_phase(pairing: int, trunc: int) -> HbarLaurent:
    """exp(-2 pi^2 i hbar pairing), reliable through hbar^trunc."""
    if pairing == 0:
        return HbarLaurent.one(trunc)
    arg = HbarLaurent.from_field(
        FieldElement.pi_power(2, -2 * pairing) * FieldElement.i_unit(),
        trunc, power=1)
    return hbar_exp(arg)


def _series_products(xs: dict, ys: dict, target, pairing=None) -> dict:
    """{t: HbarLaurent}: the sum of cx * cy over the pairs of a term
    kx: cx of xs and a term ky: cy of ys, both {key: HbarLaurent}, with
    t = target(kx, ky); a pair whose target is None is skipped, and a
    nonzero p = pairing(kx, ky) multiplies the pair by
    exp(-2 pi^2 i hbar p).

    Each nonzero series is flattened once (_Flat), and every pair is one
    _Accumulator.add, which settles the windows and levels.  A phased
    pair adds the product cx * cy (_Flat.times) times the phase reliable
    through that product's window w, so the pair is reliable through
    w + min(0, low_x + low_y); a phase that is empty there (w < 0) adds
    no terms but still sets its target's window."""
    acc = _Accumulator()
    fy = [(ky, _Flat(c)) for ky, c in ys.items() if c.coeffs]
    for kx, c in xs.items():
        if not c.coeffs:
            continue
        a = _Flat(c)
        for ky, b in fy:
            t = target(kx, ky)
            if t is None:
                continue
            p = pairing(kx, ky) if pairing else 0
            if p:
                ab = a.times(b)
                acc.add(t, ab, _flat_phase(p, ab.trunc))
            else:
                acc.add(t, a, b)
    return acc.freeze()


def _lift_flat(terms, step: int, level: int):
    """Flat (power, a, b, n) terms written at level // step, at level."""
    _check_level(level)
    rows = _zeta_rows(level)
    return [(k, a2, b, n * rc) for k, a, b, n in terms
            for a2, rc in rows[a * step % level]]


class _Flat:
    """An hbar series as flat integer terms, the operand of
    _Accumulator.add: its window `trunc`, lowest power `low` (None for no
    terms), and its coefficients grouped by level as (power, a, b, n)
    terms in ascending powers, every numerator over one denominator
    `den`.  Built from a series it keeps it as `series`; built from a
    FieldElement it has no window (the scalar multiplies a series
    coefficient by coefficient and keeps its window).  A group lifted to a
    higher level is kept, so a cached scalar (a star or face phase, a
    boundary plan entry) lifts each group once."""

    __slots__ = ("series", "trunc", "low", "den", "groups", "_lifts")

    def __init__(self, series):
        if isinstance(series, FieldElement):
            coeffs, trunc, low = {0: series}, None, 0
        else:
            coeffs, trunc, low = series.coeffs, series.trunc, series.low
        self.den = den = _common_den(coeffs.values())
        self.groups = {lev: _flat(g, den)
                       for lev, g in _level_groups(coeffs).items()}
        self.trunc, self.low, self.series, self._lifts = trunc, low, series, {}

    @classmethod
    def of(cls, groups: dict, den: int, trunc: int, low: int) -> "_Flat":
        """The series with the flat terms groups, {level: [(power, a, b,
        n)]} in ascending powers, over den, reliable through trunc, its
        lowest power low."""
        out = object.__new__(cls)
        out.groups, out.den, out.trunc, out.low = groups, den, trunc, low
        out.series, out._lifts = None, {}
        return out

    def _at(self, level: int, lev: int):
        """The group at level lev as flat terms at level, a multiple."""
        if level == lev:
            return self.groups[lev]
        out = self._lifts.get((lev, level))
        if out is None:
            out = self._lifts[lev, level] = _lift_flat(
                self.groups[lev], level // lev, level)
        return out

    def pairs(self, other):
        """[(level, xs, ys)]: each level group of self against each of
        other (None for 1), both as flat terms at the lcm of their levels,
        where their products sit."""
        if other is None:
            return [(lev, xs, _UNIT) for lev, xs in self.groups.items()]
        out = []
        for lx, xs in self.groups.items():
            for ly, ys in other.groups.items():
                if lx == ly:
                    out.append((lx, xs, ys))
                else:
                    lev = math.lcm(lx, ly)
                    out.append((lev, self._at(lev, lx), other._at(lev, ly)))
        return out

    def times(self, other: "_Flat") -> "_Flat":
        """self * other for two nonzero series, as the series product has
        it: the window by the product rule (_min_trunc), each pair of
        level groups at the lcm of their levels, the powers above the
        window dropped.  When both are one group at one level and a factor
        is one rational term n hbar^i, the product is the other's terms
        moved to power + i with numerator times n, in their (ascending)
        power order, which `_Accumulator._into` relies on."""
        w = _min_trunc(self.trunc, self.low, other.trunc, other.low)
        den, low = self.den * other.den, self.low + other.low
        if len(self.groups) == 1 and len(other.groups) == 1:
            (lev, xs), = self.groups.items()
            ys = other.groups.get(lev)
            if ys is not None:
                if len(xs) == 1 and not (xs[0][1] or xs[0][2]):
                    xs, ys = ys, xs
                if len(ys) == 1 and not (ys[0][1] or ys[0][2]):
                    (i, _, _, n), = ys
                    return _Flat.of({lev: [(i + j, a, b, n * m)
                                           for j, a, b, m in xs
                                           if i + j <= w]}, den, w, low)
        groups: dict = {}
        for lev, xs, ys in self.pairs(other):
            sums = groups.get(lev)
            if sums is None:
                sums = groups[lev] = {}
            _Accumulator._into(sums, lev, xs, ys, w, 1)
        for lev, sums in groups.items():
            groups[lev] = [(k, a, b, n) for k in sorted(sums)
                           for (a, b), n in sums[k].items() if n]
        return _Flat.of(groups, den, w, low)


_UNIT = ((0, 0, 0, 1),)


@lru_cache(maxsize=None)
def _flat_phase(pairing: int, trunc: int) -> _Flat:
    """_star_phase(pairing, trunc) as a _Flat."""
    return _Flat(_star_phase(pairing, trunc))


class ULaurent(_Laurent):
    """Truncated Laurent series in u (degree -2) over HbarLaurent."""

    __slots__ = ()

    _scalars = (HbarLaurent, FieldElement, int, Fraction)

    @classmethod
    def from_hbar(cls, h: HbarLaurent, trunc: int, power: int = 0) -> "ULaurent":
        return cls(trunc, {power: h})

    @classmethod
    def one(cls, u_trunc: int, h_trunc: int, level: int = 4) -> "ULaurent":
        return cls.from_hbar(HbarLaurent.one(h_trunc, level), u_trunc)

    def _coerce(self, other):
        if isinstance(other, ULaurent):
            return other
        if isinstance(other, HbarLaurent):
            return ULaurent.from_hbar(other, self.trunc)
        return None

    __add__ = __radd__ = Sparse.__add__

    def __mul__(self, other):
        if not isinstance(other, ULaurent):
            return Sparse.__mul__(self, other)
        trunc = _min_trunc(self.trunc, self.low, other.trunc, other.low)
        if len(self.coeffs) == 1 and len(other.coeffs) == 1:
            # one u power each (i + j lies inside trunc): the hbar product
            # alone, which takes the relabelling route for a one-term
            # factor; its window is the kernel's min(t_x + low_y, t_y + low_x)
            (i, x), = self.coeffs.items()
            (j, y), = other.coeffs.items()
            return ULaurent(trunc, {i + j: x * y})
        return ULaurent(trunc, _series_products(
            self.coeffs, other.coeffs,
            lambda i, j: i + j if i + j <= trunc else None))

    __rmul__ = __mul__

    def __repr__(self):
        return f"ULaurent({to_text(self)!r}, u_trunc={self.trunc})"


def _chain_sums(items, u_cap=None) -> dict:
    """{target: ULaurent}: the sum of the values of the entries of items,
    pairs (c, entries) of a ULaurent c and a list of entries (target, sign,
    scalar, u shift); a linear map of chains passes each word's coefficient
    with the map's entries on that word.

    An entry stands for sign * scalar * u^shift * c: sign is an int, and
    scalar a _Flat or None for 1.  Its u window is that of c moved by the
    shift and, for a shifted entry, cut at u_cap.  Every coefficient of
    c times the scalar is one _Accumulator.add, with the sign as its
    scale, under (target, u power), with no negated copy and no
    intermediate series; the accumulator settles the hbar windows and
    levels, and a zero scalar adds nothing, not even a window.  A target
    keeps the least u window of its entries.  A target that one entry
    with no scalar reaches takes c itself, or its negation, moved by the
    shift.  So the sums do not depend on how their terms are grouped,
    also where part of a sum cancels.  Targets keep the order in which
    they are first reached."""
    acc = _Accumulator()
    uwin: dict = {}
    # target -> its one entry so far, or None once it is a sum
    single: dict = {}

    def flat_add(target, c, box, sign, s, shift, ut):
        if s is not None and s.low is None:     # a zero scalar
            return
        parts = box[0]
        if parts is None:
            parts = box[0] = [(p, _Flat(h)) for p, h in c.coeffs.items()]
        for p, part in parts:
            q = p + shift
            if q <= ut:
                acc.add((target, q), part, s, sign)

    for c, entries in items:
        box = [None]                    # c's u powers as _Flats
        ctrunc = c.trunc
        for target, sign, s, shift in entries:
            ut = ctrunc + shift
            if shift and u_cap is not None and ut > u_cap:
                ut = u_cap
            w = uwin.get(target)
            if w is None:
                uwin[target] = ut
                single[target] = (c, box, sign, s, shift, ut)
                continue
            if ut < w:
                uwin[target] = ut
            first = single[target]
            if first is not None:
                single[target] = None
                flat_add(target, *first)
            flat_add(target, c, box, sign, s, shift, ut)
    for target, first in single.items():
        if first is not None and first[3] is not None:
            single[target] = None
            flat_add(target, *first)
    series: dict = {}
    for (target, q), h in acc.freeze().items():
        if q <= uwin[target]:
            series.setdefault(target, {})[q] = h
    out = {}
    for target, ut in uwin.items():
        first = single[target]
        if first is None:
            out[target] = ULaurent(ut, series.get(target, {}))
            continue
        c, _, sign, _, shift, _ = first
        v = c
        if sign != 1:
            v = -v if sign == -1 else v * sign
        if shift:
            v = v.shift(shift)
            if v.trunc > ut:
                v = v.truncate(ut)
        out[target] = v
    return out


# -- canonical serialization ----------------------------------------------
#
# One format for the whole tower: a sum of terms
#     (num/den)*zeta^a*pi^b*hbar^c*u^e
# written with middle dots, sorted by (e, c, b, a).  Exponents are always
# present so the form is canonical.


def canonical_terms(x) -> list[tuple[int, int, int, int, Fraction]]:
    """Flatten any tower element into sorted (e, c, b, a, coefficient) terms."""
    terms: list[tuple[int, int, int, int, Fraction]] = []
    if isinstance(x, (int, Fraction)):
        x = FieldElement.rational(x)
    if isinstance(x, FieldElement):
        for (a, b), q in x.coeffs.items():
            terms.append((0, 0, b, a, q))
    elif isinstance(x, HbarLaurent):
        for c, fe in x.coeffs.items():
            for (a, b), q in fe.coeffs.items():
                terms.append((0, c, b, a, q))
    elif isinstance(x, ULaurent):
        for e, h in x.coeffs.items():
            for c, fe in h.coeffs.items():
                for (a, b), q in fe.coeffs.items():
                    terms.append((e, c, b, a, q))
    else:
        raise TypeError(f"cannot serialize {type(x).__name__}")
    terms.sort(key=lambda t: t[:4])
    return terms


def to_text(x) -> str:
    """Canonical textual form; '0' for zero."""
    terms = canonical_terms(x)
    if not terms:
        return "0"
    parts = []
    for e, c, b, a, q in terms:
        parts.append(
            f"({q.numerator}/{q.denominator})·ζ^{a}·π^{b}·ħ^{c}·u^{e}")
    return " + ".join(parts)
