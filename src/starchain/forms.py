"""Polynomial differential forms on the 2d formal fiber disk.

A term pairs a commutative monomial in the fiber coordinates with a
strictly increasing tuple of one-form legs; leg j < d is dx_j, leg d+j
is dxi_j, matching the direction numbering used for the torus forms.
Coefficients are ULaurent scalars, so the hbar and u windows of the
chain machinery ride along unchanged.  Antisymmetry is normalized away:
legs are always stored sorted, with the reordering sign absorbed into
the coefficient.

The operations here are the chain-to-form rule (1/n!) w0 dw1 ^...^ dwn
in closed form (hkr), the exterior derivative, and the degree-dependent
u-power reindexing that turns the u-scaled derivative into the plain one.
"""

import math
from fractions import Fraction
from itertools import permutations

from .cyclic import ChainContext, CyclicChain
from .group_coh import _minors
from .scalars import FieldElement, HbarLaurent, ULaurent
from .sparse import Sparse, _acc
from .torus import _merge_directions


def _coordinate_name(dim: int, j: int) -> str:
    return f"x{j}" if j < dim else f"xi{j - dim}"


class FormalForm(Sparse):
    """Sparse form with ULaurent coefficients, capped at a polynomial
    filtration order the same way Weyl elements are."""

    __slots__ = ("dim", "order", "shifted")

    _scalars = (ULaurent, HbarLaurent, FieldElement, int, Fraction)

    def __init__(self, dim: int, coeffs, order: int = 16,
                 shifted: bool = False):
        self.dim = dim
        self.order = order
        self.shifted = shifted
        clean = {}
        for (mono, legs), c in coeffs.items():
            a, b = mono
            assert len(a) == dim and len(b) == dim
            assert all(x < y for x, y in zip(legs, legs[1:]))
            if sum(a) + sum(b) > order or c.is_zero():
                continue
            clean[(mono, legs)] = c
        self.coeffs = clean

    def _spawn(self, coeffs, other=None):
        order = self.order
        if other is not None:
            assert other.dim == self.dim and other.shifted == self.shifted
            order = min(order, other.order)
        return FormalForm(self.dim, coeffs, order, self.shifted)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, order: int = 16) -> "FormalForm":
        return cls(dim, {}, order)

    @classmethod
    def monomial(cls, dim: int, a, b, legs, coeff: ULaurent,
                 order: int = 16) -> "FormalForm":
        return cls(dim, {((tuple(a), tuple(b)), tuple(legs)): coeff}, order)

    # -- derivatives -------------------------------------------------------

    def d_hat(self) -> "FormalForm":
        """Exterior derivative in the fiber coordinates, known through
        order - 1: the unknown terms above the order feed its top degree."""
        d = self.dim
        out: dict = {}
        for ((a, b), legs), c in self.coeffs.items():
            for j in range(2 * d):
                e = a[j] if j < d else b[j - d]
                if not e:
                    continue
                if j < d:
                    mono = (tuple(v - 1 if t == j else v
                                  for t, v in enumerate(a)), b)
                else:
                    mono = (a, tuple(v - 1 if t == j - d else v
                                     for t, v in enumerate(b)))
                newlegs, sign = _merge_directions((j,), legs)
                if newlegs is None:
                    continue
                _acc(out, (mono, newlegs), c * (e * sign))
        return FormalForm(d, out, self.order - 1, self.shifted)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        """The coefficient-window rule on the terms through the smaller
        order, and both sides shifted or neither."""
        if isinstance(other, FormalForm):
            if self.shifted != other.shifted:
                return False
            self, other = (self._spawn(self.coeffs, other),
                           other._spawn(other.coeffs, self))
        return Sparse.__eq__(self, other)

    def __repr__(self):
        bits = []
        for (mono, legs) in sorted(self.coeffs):
            a, b = mono
            factors = [f"{_coordinate_name(self.dim, j)}^{e}"
                       for j, e in enumerate(a + b) if e]
            factors += [f"d{_coordinate_name(self.dim, j)}" for j in legs]
            bits.append("*".join(factors) or "1")
        tag = "[shifted]" if self.shifted else ""
        return f"FormalForm<{' + '.join(bits) or '0'}{tag}>"


def hkr(chain: CyclicChain, order: int = 16) -> FormalForm:
    """Words to forms: (1/n!) w0 dw1 ^ ... ^ dwn, extended u-linearly.

    The rule reads the slots as commutative monomials, so it accepts both
    the commutative vocabulary and the Weyl one (on the latter it is the
    symbol-level rule).  With v_j the exponents of w_j (x, then xi) and
    M their sum, a word is x^(M - e_S) dx_S times det(v_j[S])_(j>=1) / n!
    on each leg set S with a nonzero minor (group_coh._minors); a unit
    slot is a zero row, as d(1) = 0.  A word with n >= 1 is known through
    order - 1 (d_hat's window), its coefficient times the context's one.
    """
    ctx = chain.ctx
    if ctx.kind not in ("weyl", "sym"):
        raise ValueError("the chains-to-forms rule wants monomial slots, "
                         f"not kind {ctx.kind!r}")
    d = ctx.dim
    unit = ctx.one()
    top = order
    out: dict = {}
    for word, coeff in chain.coeffs.items():
        n = len(word) - 1
        vs = [a + b for a, b in word]
        total = tuple(map(sum, zip(*vs)))
        if n:
            top, coeff = order - 1, coeff * unit
        scale = Fraction(1, math.factorial(n))
        for S, det in _minors(vs[1:], 2 * d):
            mono = list(total)
            for k in S:
                mono[k] -= 1
            key = ((tuple(mono[:d]), tuple(mono[d:])), S)
            _acc(out, key, coeff * (scale * det))
            # a sum that cancels is dropped, as a sum of forms drops it
            if out[key].is_zero():
                del out[key]
    return FormalForm(d, out, top)


def j_shift(phi: FormalForm) -> FormalForm:
    """Reindex a form by u^(-d-n) in each form degree n.

    This intertwines the u-scaled exterior derivative with the plain one
    exactly, windows included, and tags the result as shifted.
    """
    out: dict = {}
    for key, c in phi.coeffs.items():
        out[key] = c.shift(-phi.dim - len(key[1]))
    return FormalForm(phi.dim, out, phi.order, shifted=True)


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def mu_normalization_chain(dim: int, h_trunc: int = 8,
                           u_trunc: int = 6) -> CyclicChain:
    """The degree-2d antisymmetrized word 1 (x) alt(xi_1 (x) x_1 (x) ...),
    with one signed term per permutation of the 2d generator slots."""
    ctx = ChainContext.weyl(dim, h_trunc, u_trunc)
    zeros = (0,) * dim
    letters = []
    for i in range(dim):
        e = tuple(1 if j == i else 0 for j in range(dim))
        letters.append((zeros, e))
        letters.append((e, zeros))
    unit = (zeros, zeros)
    coeffs = {}
    for perm in permutations(range(2 * dim)):
        word = (unit,) + tuple(letters[p] for p in perm)
        coeffs[word] = ctx.scalar(_perm_sign(perm))
    return CyclicChain(ctx, coeffs)
