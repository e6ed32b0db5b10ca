"""Group cochains and their pairings with equivariant chains.

The cochains here are functions on tuples of group elements, valued in
scalars (GroupCochain) or in torus forms (EquivariantClassCocycle, the
class data).  Over the infinite cyclic group both are stored as integer
polynomials, so coboundary identities can be certified exactly on a
finite grid (a polynomial of bounded degree vanishing on enough lattice
points vanishes identically); over a finite cyclic group the grid is
the whole group, so a cochain given by a callable is certified exactly
there.  Over the infinite group a callable's grid checks are honest
samples rather than proofs.

The two kinds share one polynomial evaluator (`_poly_eval`), one
inhomogeneous coboundary (`_coboundary`, with the first argument acting
trivially on scalars and by pullback on forms) and one certifying grid
(`_grid`).  Class data is a flat sparse sum: an exponent tuple of length
p maps to a torus form, and a form term with q legs makes a term of
bidegree (p, q) in the bicomplex of group cochains valued in forms.

On top of the cochains sit the cap against the leading group legs of an
equivariant chain, the twisted trace functionals on crossed-product
chains, and the transposed pairing that integrates a capped chain
against class data with the degree-halving u-weights.  Each pairing
hands every word's coefficient, with its scalar and u shift, to one
accumulator (scalars._chain_sums, through `_series_sum`), so a pairing's
windows and levels follow the chain sums' rule whatever the order of
its words.
"""

import math
from fractions import Fraction
from functools import partial
from itertools import combinations, product

from .cyclic import CyclicChain, EquivariantChain, _mul_labels, d_map
from .groups import CyclicGroup
from .scalars import (FieldElement, HbarLaurent, ULaurent, _chain_sums, _Flat,
                      _as_field)
from .sparse import Sparse, _acc
from .torus import (_SCALARS, TorusElement, TorusForm, TranslationAction,
                    omega_pairing, symplectic_form)


def _poly_eval(terms, args, zero):
    """Sum of c * prod_i args[i]**exps[i] over the (exps, c) terms."""
    out = zero
    for exps, c in terms:
        m = 1
        for g, e in zip(args, exps):
            m *= g ** e
        out = out + c * m
    return out


def _coboundary(evaluate, group: CyclicGroup, args, front=None):
    """Inhomogeneous coboundary of a cochain, evaluated at args: the first
    argument acts on the value at the rest (through front(g, value), or
    trivially when front is None), neighbours merge with alternating
    signs, and the back drops with the last sign."""
    k = len(args) - 1
    out = evaluate(args[1:])
    if front is not None:
        out = front(args[0], out)
    for i in range(1, k + 1):
        merged = args[:i - 1] + (group.compose(args[i - 1], args[i]),) \
            + args[i + 1:]
        val = evaluate(merged)
        out = out + (val * (-1) if i % 2 else val)
    tail = evaluate(args[:k])
    return out + (tail * (-1) if (k + 1) % 2 else tail)


def _grid(group: CyclicGroup, span: int):
    """Certifying grid: the whole group when it is finite, else
    [-span, span]."""
    if group.order is not None:
        return range(group.order)
    return range(-span, span + 1)


class GroupCochain:
    """Scalar k-cochain on a cyclic group."""

    __slots__ = ("group", "degree", "kind", "data", "normalized")

    def __init__(self, group: CyclicGroup, degree: int, kind, data,
                 normalized=False):
        self.group = group
        self.degree = degree
        self.kind = kind
        self.data = data
        self.normalized = normalized

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, group: CyclicGroup, value) -> "GroupCochain":
        return cls(group, 0, "polynomial", {(): _as_field(value, 4)},
                   normalized=True)

    @classmethod
    def polynomial(cls, group: CyclicGroup, degree: int,
                   coeffs) -> "GroupCochain":
        """Integer-polynomial cochain; exponent tuples index the monomials."""
        if group.order is not None and degree > 0:
            raise ValueError("polynomial cochains live on the infinite group")
        data = {}
        norm = True
        for exps, c in coeffs.items():
            exps = tuple(exps)
            assert len(exps) == degree
            fe = _as_field(c, 4)
            if fe.is_zero():
                continue
            data[exps] = fe
            if degree and min(exps) == 0:
                norm = False
        return cls(group, degree, "polynomial", data, normalized=norm)

    @classmethod
    def from_function(cls, group: CyclicGroup, degree: int, fn,
                      normalized=False) -> "GroupCochain":
        return cls(group, degree, "callable", fn, normalized=normalized)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, args) -> FieldElement:
        args = tuple(self.group.normalize(g) for g in args)
        assert len(args) == self.degree
        if self.kind == "polynomial":
            return _poly_eval(self.data.items(), args, FieldElement.zero())
        return self.data(args)

    # -- differential ------------------------------------------------------

    def coboundary(self) -> "GroupCochain":
        """Inhomogeneous coboundary, with the trivial action on scalars."""
        return GroupCochain.from_function(
            self.group, self.degree + 1,
            lambda args: _coboundary(self.evaluate, self.group, args),
            normalized=self.normalized)

    def cocycle_witness(self, span: int | None = None):
        """None when the coboundary vanishes on the certifying grid,
        otherwise one offending (arguments, value) pair.  Exact for the
        polynomial kind and over a finite group, sampled for callables on
        the infinite group."""
        if span is None:
            span = 3 if self.kind != "polynomial" else \
                max((sum(e) for e in self.data), default=0) + 1
        delta = self.coboundary()
        for args in product(_grid(self.group, span), repeat=delta.degree):
            v = delta.evaluate(args)
            if not v.is_zero():
                return args, v
        return None

    def __repr__(self):
        return (f"GroupCochain(degree={self.degree}, kind={self.kind!r}, "
                f"normalized={self.normalized})")


# -- the bicomplex of form-valued cochains ---------------------------------

def form_pullback(action: TranslationAction, g: int,
                  form: TorusForm) -> TorusForm:
    """Pull a torus form back along the g-th power of the translation;
    the derivative of a translation is the identity, so only the
    coefficients pick up phases."""
    g = action.group.normalize(g)
    out = {}
    for k, v in form.coeffs.items():
        out[k] = TorusElement(
            form.dim, {m: c * action.translation_phase(g, m)
                       for m, c in v.coeffs.items()})
    return TorusForm(form.dim, out)


class EquivariantClassCocycle(Sparse):
    """Class datum: a polynomial family of torus forms on the group, stored
    flat as {exponent tuple: TorusForm}.  A tuple of length p and a form
    term with q legs make a term of bidegree (p, q); the value at
    (g_1, ..., g_p) is the sum of the forms times their monomials, the
    storage convention of the polynomial scalar cochains above.  Sums,
    scalar multiples, windows and equality come from the sparse
    container; the group coboundary is the one the scalar cochains use,
    with the first argument acting by pullback."""

    __slots__ = ("action",)

    _scalars = _SCALARS

    def __init__(self, action: TranslationAction, coeffs):
        self.action = action
        self.coeffs = {tuple(e): f for e, f in coeffs.items()
                       if not f.is_zero()}

    def _spawn(self, coeffs, other=None):
        return EquivariantClassCocycle(self.action, coeffs)

    @classmethod
    def constant(cls, action: TranslationAction,
                 form: TorusForm) -> "EquivariantClassCocycle":
        return cls(action, {(): form})

    def bidegrees(self):
        return sorted({(len(e), len(k))
                       for e, f in self.coeffs.items() for k in f.coeffs})

    def evaluate(self, p: int, q: int, args) -> TorusForm:
        args = tuple(self.action.group.normalize(g) for g in args)
        assert len(args) == p
        return _poly_eval(((e, f.degree_part(q))
                           for e, f in self.coeffs.items() if len(e) == p),
                          args, TorusForm.zero(self.action.dim))

    def cup(self, other: "EquivariantClassCocycle") -> "EquivariantClassCocycle":
        """Cup on the group slots, wedge on the forms, with the Koszul sign
        (-1)^(q1 p2) for moving the second factor's p2 group slots past
        the first form's degree-q1 part."""
        out: dict = {}
        for e1, f1 in self.coeffs.items():
            odd = TorusForm(f1.dim, {k: -v if len(k) % 2 else v
                                     for k, v in f1.coeffs.items()})
            for e2, f2 in other.coeffs.items():
                _acc(out, e1 + e2, (odd if len(e2) % 2 else f1).wedge(f2))
        return EquivariantClassCocycle(self.action, out)

    def exponential(self) -> "EquivariantClassCocycle":
        """1 + c + c.cup(c)/2 + ...; terminates because every cup power
        raises the total degree.  The unit is exact, so it is built at
        least through ħ^0 even when c's window is negative (θ = ω/(iħ)
        at h_trunc 0 has window -1)."""
        dim = self.action.dim
        unit = EquivariantClassCocycle.constant(
            self.action,
            TorusForm.from_function(
                TorusElement.one(dim, max(self.global_window() or 0, 0))))
        acc = unit
        term = unit
        k = 0
        while True:
            k += 1
            term = term.cup(self) * Fraction(1, k)
            if term.is_zero():
                break
            if k > 4 * dim + 4:
                raise ArithmeticError("class exponential did not terminate")
            acc = acc + term
        return acc

    def total_cocycle_witness(self, span: int = 2):
        """Checks d(c_{P,Q-1}) + (-1)^Q delta(c_{P-1,Q}) = 0 for every
        bidegree on a grid; exact for families of per-argument
        polynomial degree below the grid span."""
        if self.is_zero():
            return None
        pts = _grid(self.action.group, span)
        degs = self.bidegrees()
        max_p = max(p for p, _ in degs)
        max_q = max(q for _, q in degs)
        pull = partial(form_pullback, self.action)
        for P in range(max_p + 2):
            for Q in range(max_q + 2):
                for args in product(pts, repeat=P):
                    acc = self.evaluate(P, Q - 1, args).d() if Q >= 1 \
                        else TorusForm.zero(self.action.dim)
                    if P >= 1:
                        delta = _coboundary(
                            lambda a: self.evaluate(P - 1, Q, a),
                            self.action.group, args, pull)
                        acc = acc + (delta * (-1) if Q % 2 else delta)
                    if not acc.is_zero():
                        return (P, Q), args, acc
        return None

    def __repr__(self):
        return f"EquivariantClassCocycle(bidegrees={self.bidegrees()})"


def equivariant_theta(action: TranslationAction,
                      h_trunc: int = 8) -> EquivariantClassCocycle:
    """Characteristic 2-class of the action: the symplectic form divided
    by i hbar in bidegree (0, 2); for a twisted action also the linear
    (1, 1) family read from the fiber-wave logarithmic derivative.  The
    twist waves compose with no defect (the skew pairing of the twist
    vector with itself vanishes), so no (2, 0) part ever appears."""
    dim = action.dim
    inv_i_hbar = HbarLaurent.from_field(FieldElement.i_unit() * (-1),
                                        h_trunc, power=-1)
    fams = {(): symplectic_form(dim, h_trunc) * inv_i_hbar}
    if action.twist is not None:
        w = action.twist
        assert omega_pairing(w, w) == 0
        parts = {}
        for j, wj in enumerate(w):
            if wj:
                parts[(j,)] = TorusElement.one(dim, h_trunc) * (
                    FieldElement.pi_power(1, -2 * wj) * FieldElement.i_unit())
        fams[(1,)] = TorusForm(dim, parts)
    return EquivariantClassCocycle(action, fams)


def equivariant_ahat(action: TranslationAction,
                     h_trunc: int = 8) -> EquivariantClassCocycle:
    """Genus datum of a translation action: the tangent bundle is flat
    and the frame action trivial, so the class is the constant 1."""
    return EquivariantClassCocycle.constant(
        action,
        TorusForm.from_function(TorusElement.one(action.dim, h_trunc)))


# -- pairings --------------------------------------------------------------

def cap(chain: EquivariantChain, xi: GroupCochain,
        mismatches=None) -> EquivariantChain:
    """Evaluate a cochain on the leading group legs and drop them.
    Keys of group degree below the cochain degree contribute zero and
    are reported through the optional mismatch list.

    The non-homogeneous chains are the normalized bar complex: a word
    with an identity leg is dropped.  So a positive-degree cochain must
    be normalized (zero when an argument is the identity), or the cap
    would lose its values there; it raises ValueError otherwise."""
    assert not chain.homogeneous
    k = xi.degree
    if k and not xi.normalized:
        raise ValueError(
            f"cap reads the normalized complex: the degree-{k} cochain must "
            "vanish when an argument is the identity")

    def terms(key, v):
        ik, gw = key
        if len(gw) < k:
            if mismatches is not None:
                mismatches.append((key, "group degree below cochain"))
            return []
        val = xi.evaluate(gw[:k])
        return [] if val.is_zero() else [((ik, gw[k:]), 1, _Flat(val), 0)]

    return chain._map(terms)


def _series_sum(items, u_trunc: int) -> ULaurent:
    """The sum of a pairing: items are pairs (c, [(0, 1, scalar, u shift)])
    of scalars._chain_sums, one a word, summed in its one accumulator, so
    the windows and levels do not depend on the order of the words; the
    zero series at u_trunc when no word reaches the target 0."""
    return _chain_sums(items).get(0, ULaurent.zero(u_trunc))


def _int_det(rows) -> int:
    """Determinant of a square integer matrix (a list of rows) by
    fraction-free (Bareiss) elimination: every division is exact, so the
    entries stay integers, in O(n^3) operations.  The 0x0 determinant is
    1."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return 0
            a[k], a[i] = a[i], a[k]
            sign = -sign
        p = a[k][k]
        for i in range(k + 1, n):
            row, f = a[i], a[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - f * a[k][j]) // prev
        prev = p
    return sign * a[-1][-1] if n else 1


def _minors(vectors, size: int):
    """(S, det) for every increasing n-set S of range(size), n the number
    of vectors, whose minor det(v_j[S]) is not zero: the coefficient of
    the legs S in the wedge of the n one-forms sum_k v_j[k] dx_k."""
    for S in combinations(range(size), len(vectors)):
        det = _int_det([v[k] for k in S] for v in vectors)
        if det:
            yield S, det


def word_to_form(dim: int, word, h_trunc: int) -> TorusForm:
    """(1/n!) w0 dw1 ^ ... ^ dwn on the plane waves w_j = e_(m_j), in
    closed form.  d e_m = 2 pi i sum_k m[k] e_m dx_k, so the form is the
    one plane wave e_M, M = m_0 + ... + m_n, with the coefficient
    (2 pi i)^n det(m_j[S])_(j=1..n) / n! on each increasing n-set S of
    the 2d directions whose minor does not vanish (_minors); zero when
    n > 2d."""
    n = len(word) - 1
    out = {}
    if n <= 2 * dim:
        total = tuple(map(sum, zip(*word)))
        scale = Fraction(2 ** n, math.factorial(n))
        unit = FieldElement.i_unit() ** n
        for S, det in _minors(word[1:], 2 * dim):
            out[S] = TorusElement.plane_wave(
                dim, total, h_trunc,
                FieldElement.pi_power(n, scale * det) * unit)
    return TorusForm(dim, out)


class TraceFunctional:
    """Cocycle-twisted trace on crossed-product chains.

    On a word (a_0 g_0, ..., a_k g_k) with k the cochain degree, the
    value is the cochain on the last k labels times the trace of
    a_0 * g_0(a_1) * (g_0 g_1)(a_2) * ..., and zero unless the labels
    compose to the identity; other degrees contribute nothing.
    """

    __slots__ = ("xi",)

    def __init__(self, xi: GroupCochain):
        wit = xi.cocycle_witness()
        if wit is not None:
            raise ValueError(
                f"cochain is not closed: coboundary at {wit[0]} is {wit[1]}")
        self.xi = xi

    def pair(self, chain: CyclicChain) -> ULaurent:
        assert chain.ctx.kind == "crossed"
        return _trace_words(chain, self.xi.degree,
                            lambda labels: self.xi.evaluate(labels[1:]))


def trace_pair(chain: CyclicChain) -> ULaurent:
    """Plain trace against the degree-0 part of a torus or crossed chain."""
    assert chain.ctx.kind in ("torus", "crossed")
    return _trace_words(chain, 0)


def _trace_words(chain: CyclicChain, degree: int, weight=None) -> ULaurent:
    """The trace pairing on the words of one degree: each coefficient
    times weight(labels), a FieldElement (1 when weight is None), times
    the word's trace, the unit trace times the scalars of its slots folded
    with _mul_labels.  A word whose modes do not sum to zero, or whose
    labels do not compose to the identity, is skipped before weight."""
    ctx = chain.ctx
    G = ctx.group
    unit = TorusElement.one(ctx.dim, ctx.h_trunc).trace()
    items = []
    for key, coeff in chain.coeffs.items():
        if len(key) != degree + 1:
            continue
        modes, labels = zip(*key) if ctx.kind == "crossed" else (key, ())
        if any(map(sum, zip(*modes))) or \
                labels and not G.is_identity(G.compose_all(labels)):
            continue
        scal = unit if weight is None else unit * weight(labels)
        if scal.is_zero():
            continue
        slot = key[0]
        for nxt in key[1:]:
            (slot, s), = _mul_labels(ctx, slot, nxt)
            scal = s.series * scal
        items.append((coeff, [(0, 1, _Flat(scal), 0)]))
    return _series_sum(items, ctx.u_trunc)


def phi_pair(classes: EquivariantClassCocycle, xi: GroupCochain,
             chain: CyclicChain, mismatches=None) -> ULaurent:
    """Transposed pairing: push the chain to group-decorated torus words,
    cap with the cochain, evaluate the class data on the remaining legs,
    integrate against the word forms, and weight each class component by
    u to half its total degree, with the dimension shift u^(-d).  Only
    the class parts whose form degree fills the top degree with the
    word's are wedged, each evaluated once per call.

    Torus chains are read as group-degree zero directly; crossed chains
    go through d_map first, which splits them in the normalized bar
    complex, and the cap then needs a normalized cochain.
    """
    dim = classes.action.dim
    h = chain.ctx.h_trunc
    if chain.ctx.kind == "torus":
        if xi.degree > 0:
            if mismatches is not None:
                mismatches.append(("torus chain", "positive cochain degree"))
            items = []
        else:
            const = xi.evaluate(())
            items = [((key, ()), v * const)
                     for key, v in chain.coeffs.items()]
    else:
        dec = cap(d_map(chain), xi, mismatches)
        items = list(dec.coeffs.items())
    parts = classes.bidegrees()
    vals: dict = {}
    terms = []
    for (ik, gw), v in items:
        p = len(gw)
        form = word_to_form(dim, ik, h)
        if form.is_zero():
            continue
        for (P, Q) in parts:
            if P != p:
                continue
            if (P + Q) % 2:
                if mismatches is not None:
                    mismatches.append(((ik, gw), "odd class degree"))
                continue
            # the integral reads only the top degree
            if Q + len(ik) - 1 != 2 * dim:
                continue
            val = vals.get((P, Q, gw))
            if val is None:
                val = vals[P, Q, gw] = classes.evaluate(P, Q, gw)
            tot = val.wedge(form).integrate()
            if tot.is_zero():
                continue
            terms.append((v, [(0, 1, _Flat(tot), (P + Q) // 2 - dim)]))
    return _series_sum(terms, chain.ctx.u_trunc)
