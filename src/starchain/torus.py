"""Quantized torus algebra, its differential forms, jets, and crossed products.

An element of the quantized 2d-torus is a finite sum of plane waves e_m,
m in Z^(2d), with hbar-Laurent coefficients; the first d slots of a mode are
the x-directions, the last d are the xi-directions.  The star product of
plane waves picks up the phase

    e_m * e_n = exp(c hbar <m, n>) e_(m+n),
    c = -2 pi^2 i,   <m, n> = m_xi . n_x - m_x . n_xi,

which is the plane-wave shadow of the Weyl-Moyal product for the symplectic
pairing fixed in weyl.py.  The phase is exact: pi stays formal, so exp(...)
is a polynomial in pi and hbar over the cyclotomic field within the window.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add

from .groups import CyclicGroup
from .scalars import (FieldElement, HbarLaurent, _as_field, _series_products,
                      _star_phase)
from .sparse import Filtered, Sparse, _acc
from .weyl import _moyal_product


@lru_cache(maxsize=None)
def _unit_phase(num: int, den: int) -> FieldElement:
    """exp(2 pi i num/den) as an exact root of unity at level 4*den."""
    return FieldElement.zeta(4 * den, 4 * num)


# the scalars every element over torus coefficients is multiplied by
_SCALARS = (FieldElement, HbarLaurent, int, Fraction)


def omega_pairing(m, n) -> int:
    """<m, n> = m_xi . n_x - m_x . n_xi for modes of equal even length."""
    d = len(m) // 2
    return sum(m[d + i] * n[i] - m[i] * n[d + i] for i in range(d))


def mode_add(m, n) -> tuple:
    """m + n for modes of equal length."""
    return tuple(map(add, m, n))


class TorusElement(Sparse):
    """Sparse combination of plane waves with hbar-Laurent coefficients."""

    __slots__ = ("dim",)

    _scalars = _SCALARS

    def __init__(self, dim: int, coeffs: dict[tuple[int, ...], HbarLaurent]):
        self.dim = dim
        self.coeffs = {m: c for m, c in coeffs.items() if not c.is_zero()}

    def _spawn(self, coeffs, other=None):
        assert other is None or other.dim == self.dim
        return TorusElement(self.dim, coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "TorusElement":
        return cls(dim, {})

    @classmethod
    def plane_wave(cls, dim: int, mode, trunc: int, coeff=1) -> "TorusElement":
        mode = tuple(mode)
        assert len(mode) == 2 * dim
        if isinstance(coeff, HbarLaurent):
            c = coeff.truncate(trunc)
        else:
            c = HbarLaurent.from_field(_as_field(coeff, 4), trunc)
        return cls(dim, {mode: c})

    @classmethod
    def one(cls, dim: int, trunc: int) -> "TorusElement":
        return cls.plane_wave(dim, (0,) * (2 * dim), trunc)

    # -- queries -----------------------------------------------------------

    def coefficient(self, mode) -> HbarLaurent:
        c = self.coeffs.get(tuple(mode))
        if c is not None:
            return c
        return HbarLaurent.zero(self.global_window() or 0)

    # -- products ----------------------------------------------------------

    def star(self, other: "TorusElement") -> "TorusElement":
        """Star product: each pair of plane waves gives
        exp(-2 pi^2 i hbar <m, n>) cm cn on e_(m+n).

        The one route is the product kernel (scalars._series_products),
        as for the crossed star: a pair's coefficient product is
        multiplied by the star phase, cached as integer terms, and added
        into its target mode, and each output coefficient is normalised
        once, at the lcm of the levels of every pair that reaches it."""
        return self._product(other, phased=True)

    def symbol_mul(self, other: "TorusElement") -> "TorusElement":
        """Commutative product of the underlying functions (no star phase)."""
        return self._product(other, phased=False)

    def _product(self, other: "TorusElement", phased: bool):
        assert isinstance(other, TorusElement) and other.dim == self.dim
        return TorusElement(self.dim, _series_products(
            self.coeffs, other.coeffs, mode_add,
            omega_pairing if phased else None))

    def partial(self, j: int) -> "TorusElement":
        """Derivative along coordinate j (0..2d-1); e_m goes to 2 pi i m_j e_m."""
        out = {}
        for m, c in self.coeffs.items():
            if m[j]:
                out[m] = c * (FieldElement.pi_power(1, 2 * m[j])
                              * FieldElement.i_unit())
        return TorusElement(self.dim, out)

    def trace(self) -> HbarLaurent:
        """Normalized trace: (1/(i hbar))^d times the zero-mode coefficient.

        Sends 1 to 1/(i hbar)^d, kills every nonzero mode, and is exact on
        the window shifted down by d.
        """
        z = (0,) * (2 * self.dim)
        c = self.coeffs.get(z)
        if c is None:
            c = HbarLaurent.zero(self.global_window() or 0)
        scale = (FieldElement.i_unit() * (-1)) ** self.dim
        return (c * scale).shift(-self.dim)

    def __repr__(self):
        return f"TorusElement<{len(self.coeffs)} waves, dim={self.dim}>"


class TranslationAction:
    """Action of a cyclic group on the quantized torus by a rational
    translation, optionally twisted by conjugation with a fiber plane wave.

    The generator translates by `vector` (2d rationals); mode m picks up the
    phase exp(2 pi i g (m . vector)) under the g-th power.  A twist vector
    w in Z^(2d) composes this with conjugation by the fiber wave attached to
    w, which multiplies mode m by exp(-4 pi^2 i hbar g <w, m>).

    The vector is also kept as integers over one common denominator, so a
    phase costs an integer dot product and a cached root-of-unity lookup;
    the phase of one mode sits at level 4*den(g (m . vector)).  Both phases
    are exponentials linear in the mode, so the eigenvalue on a word of
    plane waves whose slots are acted on by powers g_j is the phase of the
    summed g_j (m_j . vector) and g_j <w, m_j> (word_phase).  Its root of
    unity is written at the lcm of the slot levels, the level the
    slot-by-slot product has: two slots of exp(2 pi i/8) (level 32 each)
    give i at level 32, not at the level 16 of the summed mode alone.
    """

    __slots__ = ("dim", "group", "vector", "twist", "_num", "_den")

    def __init__(self, dim: int, group: CyclicGroup, vector,
                 twist=None):
        vector = tuple(Fraction(v) for v in vector)
        assert len(vector) == 2 * dim
        if group.order is not None:
            for v in vector:
                if (v * group.order).denominator != 1:
                    raise ValueError(
                        "translation vector is not %d-torsion" % group.order)
        if twist is not None:
            if group.order is not None:
                raise ValueError("twists are only supported over the infinite "
                                 "cyclic group")
            twist = tuple(int(w) for w in twist)
            assert len(twist) == 2 * dim
        self.dim = dim
        self.group = group
        self.vector = vector
        self.twist = twist
        self._den = math.lcm(*(v.denominator for v in vector))
        self._num = tuple(v.numerator * (self._den // v.denominator)
                          for v in vector)

    def _dot(self, g: int, mode) -> int:
        """g (mode . vector) times _den, reduced mod _den."""
        return g * sum(m * v for m, v in zip(mode, self._num)) % self._den

    def translation_phase(self, g: int, mode) -> FieldElement:
        r = self._dot(g, mode)
        d = math.gcd(r, self._den)
        return _unit_phase(r // d, self._den // d)

    def apply(self, g: int, elt: TorusElement) -> TorusElement:
        return TorusElement(elt.dim, {
            m: c * self.word_phase((g,), (m,), c.trunc)
            for m, c in elt.coeffs.items()})

    def mode_phase(self, g: int, mode, trunc: int) -> HbarLaurent:
        """Scalar the g-th power multiplies the plane wave of `mode` by.

        Plane waves are joint eigenvectors of every translation action, so
        acting on a single mode never mixes modes; this returns the full
        eigenvalue (translation phase times twist phase) in one series.
        """
        return self.word_phase((g,), (mode,), trunc)

    def word_phase(self, labels, modes, trunc: int) -> HbarLaurent:
        """Scalar a word of plane waves is multiplied by when its slot j is
        acted on by the labels[j]-th power: the product of the slots'
        eigenvalues, computed once from the summed phases and written at
        the lcm of the slot levels."""
        den = self._den
        total = 0
        slot_den = 1
        pairing = 0
        for g, m in zip(labels, modes):
            r = self._dot(g, m)
            total += r
            d = den // math.gcd(r, den)
            if slot_den % d:
                slot_den = slot_den // math.gcd(slot_den, d) * d
            if self.twist is not None:
                pairing += g * omega_pairing(self.twist, m)
        # total / den has a denominator dividing slot_den
        c = HbarLaurent.from_field(
            _unit_phase(total % den * slot_den // den, slot_den), trunc)
        if pairing:
            c = c * _star_phase(2 * pairing, trunc)
        return c

    def __repr__(self):
        return (f"TranslationAction(dim={self.dim}, group={self.group}, "
                f"vector={self.vector}, twist={self.twist})")


class CrossedElement(Sparse):
    """Finite sum a_g u_g in the crossed product of the quantized torus by a
    translation action; u_g a u_g^(-1) = (action of g on a)."""

    __slots__ = ("action",)

    _scalars = _SCALARS

    def __init__(self, action: TranslationAction,
                 coeffs: dict[int, TorusElement]):
        self.action = action
        self.coeffs = {action.group.normalize(g): a
                       for g, a in coeffs.items() if not a.is_zero()}

    def _spawn(self, coeffs, other=None):
        return CrossedElement(self.action, coeffs)

    @classmethod
    def one(cls, action: TranslationAction, trunc: int) -> "CrossedElement":
        return cls(action, {0: TorusElement.one(action.dim, trunc)})

    def component(self, g: int) -> TorusElement:
        return self.coeffs.get(self.action.group.normalize(g),
                               TorusElement.zero(self.action.dim))

    def star(self, other: "CrossedElement") -> "CrossedElement":
        """(a u_g)(b u_h) = (a * g(b)) u_gh in one call of the product
        kernel (scalars._series_products), its one route: the plane waves
        of a are keyed (m, g), those of g(b) (n, h, g) for each label g
        of self, and a pair whose g tags agree goes to (m + n, gh) with
        the star phase of <m, n>.  Each output coefficient is normalised
        once, at the lcm of the levels of every pair that reaches it."""
        assert isinstance(other, CrossedElement)
        act = self.action
        compose = act.group.compose
        xs = {(m, g): c for g, a in self.coeffs.items()
              for m, c in a.coeffs.items()}
        ys = {(n, h, g): c for g in self.coeffs
              for h, b in other.coeffs.items()
              for n, c in act.apply(g, b).coeffs.items()}
        sums = _series_products(
            xs, ys,
            lambda x, y: (mode_add(x[0], y[0]), compose(x[1], y[1]))
            if x[1] == y[2] else None,
            lambda x, y: omega_pairing(x[0], y[0]))
        out: dict = {}
        for (m, gh), c in sums.items():
            out.setdefault(gh, {})[m] = c
        return CrossedElement(act, {gh: TorusElement(act.dim, waves)
                                    for gh, waves in out.items()})

    def trace(self) -> HbarLaurent:
        """Trace of the identity-group-component; the other components are
        killed, which is what makes the trace invariant under the action."""
        return self.component(0).trace()

    def __repr__(self):
        return f"CrossedElement<components={sorted(self.coeffs)}>"


# ---------------------------------------------------------------------------
# differential forms on the torus


def _merge_directions(p: tuple[int, ...], q: tuple[int, ...]):
    """Merge two strictly increasing direction tuples; Koszul sign or None."""
    if set(p) & set(q):
        return None, 0
    merged = []
    sign = 1
    i = j = 0
    while i < len(p) and j < len(q):
        if p[i] < q[j]:
            merged.append(p[i])
            i += 1
        else:
            merged.append(q[j])
            j += 1
            if (len(p) - i) % 2:
                sign = -sign
    merged.extend(p[i:])
    merged.extend(q[j:])
    return tuple(merged), sign


class TorusForm(Sparse):
    """Differential form on the 2d-torus with TorusElement coefficients.

    Keys are strictly increasing tuples of directions 0..2d-1; direction j<d
    is dx^(j+1), direction d+j is dxi^(j+1).
    """

    __slots__ = ("dim",)

    _scalars = _SCALARS

    def __init__(self, dim: int, coeffs: dict[tuple[int, ...], TorusElement]):
        self.dim = dim
        self.coeffs = {k: v for k, v in coeffs.items() if not v.is_zero()}
        for k in self.coeffs:
            assert all(x < y for x, y in zip(k, k[1:]))

    def _spawn(self, coeffs, other=None):
        return TorusForm(self.dim, coeffs)

    @classmethod
    def zero(cls, dim: int) -> "TorusForm":
        return cls(dim, {})

    @classmethod
    def from_function(cls, f: TorusElement) -> "TorusForm":
        return cls(f.dim, {(): f})

    @classmethod
    def basis_form(cls, dim: int, directions, coeff: TorusElement) -> "TorusForm":
        return cls(dim, {tuple(directions): coeff})

    def degree_part(self, r: int) -> "TorusForm":
        return TorusForm(self.dim,
                         {k: v for k, v in self.coeffs.items() if len(k) == r})

    def wedge(self, other: "TorusForm") -> "TorusForm":
        assert isinstance(other, TorusForm) and other.dim == self.dim
        out: dict = {}
        for p, a in self.coeffs.items():
            for q, b in other.coeffs.items():
                key, sign = _merge_directions(p, q)
                if key is None:
                    continue
                _acc(out, key, a.symbol_mul(b) * sign)
        return TorusForm(self.dim, out)

    def d(self) -> "TorusForm":
        """Exterior derivative."""
        out: dict = {}
        for k, v in self.coeffs.items():
            for j in range(2 * self.dim):
                dv = v.partial(j)
                if dv.is_zero():
                    continue
                key, sign = _merge_directions((j,), k)
                if key is None:
                    continue
                _acc(out, key, dv * sign)
        return TorusForm(self.dim, out)

    def integrate(self) -> HbarLaurent:
        """Integral over the torus, normalized so the symplectic volume
        omega^d / d! integrates to 1; only the top component contributes and
        only through its zero mode."""
        d = self.dim
        top = self.coeffs.get(tuple(range(2 * d)))
        if top is None:
            return HbarLaurent.zero(self.global_window() or 0)
        sign = (-1) ** d * (-1) ** (d * (d - 1) // 2)
        return top.coefficient((0,) * (2 * d)) * sign

    def __repr__(self):
        degs = sorted({len(k) for k in self.coeffs})
        return f"TorusForm<degrees={degs}, dim={self.dim}>"


def symplectic_form(dim: int, trunc: int) -> TorusForm:
    """omega = sum_i dxi_i ^ dx_i as a constant-coefficient 2-form."""
    out = TorusForm.zero(dim)
    for i in range(dim):
        # directions: x_i is i, xi_i is dim + i; (i, dim+i) sorted carries
        # dx^i ^ dxi^i = -dxi^i ^ dx^i
        out = out + TorusForm.basis_form(
            dim, (i, dim + i), TorusElement.one(dim, trunc) * (-1))
    return out


# ---------------------------------------------------------------------------
# jets: sections of the fiberwise Weyl algebra


class WeylSection(Filtered):
    """Jet-bundle section: polynomial in 2d fiber generators with
    TorusElement coefficients, filtered by fiber degree + 2 (hbar degree).

    Multiplication is fiberwise Weyl-Moyal while base coefficients multiply
    commutatively; the full deformation sits in the fiber, which is what
    makes the flat connection below a derivation of the product.
    """

    __slots__ = ("dim", "order")

    _scalars = _SCALARS
    _degree = staticmethod(sum)

    def __init__(self, dim: int, order: int,
                 coeffs: dict[tuple[int, ...], TorusElement]):
        self.dim = dim
        self.order = order
        cleaned = {}
        for alpha, c in coeffs.items():
            w = sum(alpha)
            if w > order:
                continue
            cap = (order - w) // 2
            c = TorusElement(dim, {m: cc.truncate(min(cc.trunc, cap))
                                   for m, cc in c.coeffs.items()})
            if not c.is_zero():
                cleaned[alpha] = c
        self.coeffs = cleaned

    def _at(self, order, coeffs):
        return WeylSection(self.dim, order, coeffs)

    def global_window(self) -> int:
        return self.order

    @classmethod
    def from_base(cls, f: TorusElement, order: int) -> "WeylSection":
        return cls(f.dim, order, {(0,) * (2 * f.dim): f})

    @classmethod
    def fiber_wave(cls, dim: int, w, order: int) -> "WeylSection":
        """exp(2 pi i w . yhat): the base-constant fiber plane wave of an
        integer vector w, expanded through the fiber filtration."""
        assert len(w) == 2 * dim
        return cls(dim, order,
                   {alpha: TorusElement.one(dim, (order - sum(alpha)) // 2) * fe
                    for alpha, fe in _fiber_terms(w, order)})

    def component(self, alpha) -> TorusElement:
        return self.coeffs.get(tuple(alpha), TorusElement.zero(self.dim))

    def star(self, other: "WeylSection") -> "WeylSection":
        """Fiberwise Weyl-Moyal product of the fiber monomials
        (weyl._moyal_product) times the commutative product of their base
        coefficients; a fiber monomial above the order is not read."""
        assert isinstance(other, WeylSection) and other.dim == self.dim
        d = self.dim
        order = min(self.order, other.order)
        ys = [(b, c) for b, c in other.coeffs.items() if sum(b) <= order]
        out: dict = {}
        for alpha, ca in self.coeffs.items():
            if sum(alpha) > order:
                continue
            for beta, cb in ys:
                base = ca.symbol_mul(cb)
                for (a, b, k), scal in _moyal_product(alpha[:d], alpha[d:],
                                                      beta[:d], beta[d:]):
                    term = base * scal
                    _acc(out, a + b, term.shift(k) if k else term)
        return WeylSection(d, order, out)

    def nabla(self) -> list["WeylSection"]:
        """Flat connection: component j is (base d/dz_j - fiber d/dy_j).

        Jets of torus elements are flat; the result loses the top fiber
        filtration degree.
        """
        out = []
        for j in range(2 * self.dim):
            comp: dict = {}
            for alpha, c in self.coeffs.items():
                dc = c.partial(j)
                if not dc.is_zero():
                    _acc(comp, alpha, dc)
                if alpha[j]:
                    down = tuple(a - 1 if t == j else a
                                 for t, a in enumerate(alpha))
                    _acc(comp, down, c * (-alpha[j]))
            out.append(WeylSection(self.dim, self.order - 1, comp))
        return out

    def __repr__(self):
        return f"WeylSection<{len(self.coeffs)} fiber terms, order={self.order}>"


def _fiber_indices(slots: int, max_total: int):
    if slots == 0:
        yield ()
        return
    for head in range(max_total + 1):
        for tail in _fiber_indices(slots - 1, max_total - head):
            yield (head,) + tail


def _fiber_terms(v, order: int):
    """(alpha, coefficient) for the terms of prod_j exp(2 pi i v_j yhat_j)
    through fiber degree order: (2 pi i)^|alpha| v^alpha / alpha!, with
    the vanishing ones skipped."""
    for alpha in _fiber_indices(len(v), order):
        tot = sum(alpha)
        q = Fraction(1)
        for vj, aj in zip(v, alpha):
            q *= Fraction(vj ** aj, math.factorial(aj))
        if q:
            yield alpha, FieldElement.pi_power(tot, q * 2 ** tot) * \
                FieldElement.i_unit() ** tot


def jet(f: TorusElement, order: int) -> WeylSection:
    """Taylor expansion along the fiber: e_m goes to
    e_m * prod_j exp(2 pi i m_j yhat_j), expanded through the filtration."""
    d = f.dim
    out: dict = {}
    for m, c in f.coeffs.items():
        for alpha, fe in _fiber_terms(m, order):
            _acc(out, alpha, TorusElement(d, {m: c * fe}))
    return WeylSection(d, order, out)
