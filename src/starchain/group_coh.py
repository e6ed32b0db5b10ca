"""Group cochains and their pairings with equivariant chains.

The cochains here are scalar-valued functions on tuples of group
elements.  Over the infinite cyclic group they are stored as integer
polynomials, so coboundary identities can be certified exactly on a
finite grid (a polynomial of bounded degree vanishing on enough lattice
points vanishes identically); over a finite cyclic group they are
stored as exhaustive tables.  Opaque callables are also accepted, with
grid checks that are then honest samples rather than proofs.

On top of the cochains sit the cap against the leading group legs of an
equivariant chain, the twisted trace functionals on crossed-product
chains, the characteristic-class data living in the (group cochain,
torus form) bicomplex, and the transposed pairing that integrates a
capped chain against such class data with the degree-halving u-weights.
"""

from fractions import Fraction
from itertools import product

from .cyclic import CyclicChain, EquivariantChain, d_map
from .groups import CyclicGroup
from .scalars import FieldElement, HbarLaurent, ULaurent, _as_field
from .sparse import _acc
from .torus import (TorusElement, TorusForm, TranslationAction,
                    omega_pairing, symplectic_form)


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
        fe = value if isinstance(value, FieldElement) else _as_field(value, 4)
        return cls(group, 0, "polynomial", {(): fe}, normalized=True)

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
            fe = c if isinstance(c, FieldElement) else _as_field(c, 4)
            if fe.is_zero():
                continue
            data[exps] = fe
            if degree and min(exps) == 0:
                norm = False
        return cls(group, degree, "polynomial", data, normalized=norm)

    @classmethod
    def table(cls, group: CyclicGroup, degree: int, mapping) -> "GroupCochain":
        if group.order is None:
            raise ValueError("table cochains need a finite group")
        data = {}
        for args, c in mapping.items():
            args = tuple(group.normalize(g) for g in args)
            assert len(args) == degree
            data[args] = c if isinstance(c, FieldElement) else _as_field(c, 4)
        norm = all(v.is_zero() for a, v in data.items()
                   if any(group.is_identity(g) for g in a))
        return cls(group, degree, "table", data, normalized=norm)

    @classmethod
    def from_function(cls, group: CyclicGroup, degree: int, fn,
                      normalized=False) -> "GroupCochain":
        return cls(group, degree, "callable", fn, normalized=normalized)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, args) -> FieldElement:
        args = tuple(self.group.normalize(g) for g in args)
        assert len(args) == self.degree
        if self.kind == "polynomial":
            out = FieldElement.zero()
            for exps, c in self.data.items():
                m = 1
                for g, e in zip(args, exps):
                    m *= g ** e
                out = out + c * m
            return out
        if self.kind == "table":
            return self.data.get(args, FieldElement.zero())
        return self.data(args)

    def __call__(self, *args):
        return self.evaluate(args)

    # -- differential ------------------------------------------------------

    def coboundary(self) -> "GroupCochain":
        """Inhomogeneous coboundary: drop the front, merge neighbours with
        alternating signs, drop the back with the last sign."""
        k = self.degree
        G = self.group

        def fn(args):
            out = self.evaluate(args[1:])
            for i in range(1, k + 1):
                merged = args[:i - 1] + (G.compose(args[i - 1], args[i]),) \
                    + args[i + 1:]
                val = self.evaluate(merged)
                out = out + (val * (-1) if i % 2 else val)
            tail = self.evaluate(args[:k])
            out = out + (tail * (-1) if (k + 1) % 2 else tail)
            return out

        return GroupCochain.from_function(G, k + 1, fn,
                                          normalized=self.normalized)

    def _grid(self, span: int | None = None):
        if self.group.order is not None:
            return range(self.group.order)
        if span is None:
            if self.kind == "polynomial":
                top = max((sum(e) for e in self.data), default=0)
                span = top + 1
            else:
                span = 3
        return range(-span, span + 1)

    def cocycle_witness(self, span: int | None = None):
        """None when the coboundary vanishes on the certifying grid,
        otherwise one offending (arguments, value) pair.  Exact for the
        polynomial and table kinds, sampled for opaque callables."""
        delta = self.coboundary()
        pts = self._grid(span)
        for args in product(pts, repeat=delta.degree):
            v = delta.evaluate(args)
            if not v.is_zero():
                return args, v
        return None

    def is_cocycle(self, span: int | None = None) -> bool:
        return self.cocycle_witness(span) is None

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


class EquivariantClassCocycle:
    """Bigraded class datum: for each (group degree p, form degree q) a
    polynomial family of torus forms indexed by exponent tuples, the
    same storage convention as the scalar cochains above."""

    __slots__ = ("action", "components")

    def __init__(self, action: TranslationAction, components):
        self.action = action
        self.components = {}
        for (p, q), fam in components.items():
            fam = {tuple(e): f for e, f in fam.items() if not f.is_zero()}
            for exps, f in fam.items():
                assert len(exps) == p
                assert all(len(k) == q for k in f.coeffs)
            if fam:
                self.components[(p, q)] = fam

    @classmethod
    def constant(cls, action: TranslationAction,
                 form: TorusForm) -> "EquivariantClassCocycle":
        comps = {}
        for q in sorted({len(k) for k in form.coeffs}):
            comps[(0, q)] = {(): form.degree_part(q)}
        return cls(action, comps)

    def is_zero(self) -> bool:
        return not self.components

    def bidegrees(self):
        return sorted(self.components)

    def evaluate(self, p: int, q: int, args) -> TorusForm:
        args = tuple(self.action.group.normalize(g) for g in args)
        assert len(args) == p
        fam = self.components.get((p, q))
        out = TorusForm.zero(self.action.dim)
        if fam is None:
            return out
        for exps, f in fam.items():
            m = 1
            for g, e in zip(args, exps):
                m *= g ** e
            if m:
                out = out + f * m
        return out

    def __add__(self, other):
        if not isinstance(other, EquivariantClassCocycle):
            return NotImplemented
        out = {pq: dict(fam) for pq, fam in self.components.items()}
        for pq, fam in other.components.items():
            tgt = out.setdefault(pq, {})
            for e, f in fam.items():
                _acc(tgt, e, f)
        return EquivariantClassCocycle(self.action, out)

    def scale(self, s) -> "EquivariantClassCocycle":
        return EquivariantClassCocycle(
            self.action,
            {pq: {e: f * s for e, f in fam.items()}
             for pq, fam in self.components.items()})

    def cup(self, other: "EquivariantClassCocycle") -> "EquivariantClassCocycle":
        """Cup on the group slots, wedge on the forms, with the usual sign
        for moving the second factor's group slots past the first form."""
        out: dict = {}
        for (p1, q1), fam1 in self.components.items():
            for (p2, q2), fam2 in other.components.items():
                sign = -1 if (q1 * p2) % 2 else 1
                tgt = out.setdefault((p1 + p2, q1 + q2), {})
                for e1, f1 in fam1.items():
                    for e2, f2 in fam2.items():
                        _acc(tgt, e1 + e2, f1.wedge(f2) * sign)
        return EquivariantClassCocycle(self.action, out)

    def exponential(self) -> "EquivariantClassCocycle":
        """1 + c + c.cup(c)/2 + ...; terminates because every cup power
        raises the total degree."""
        dim = self.action.dim
        unit = EquivariantClassCocycle.constant(
            self.action,
            TorusForm.from_function(TorusElement.one(dim, self._window())))
        acc = unit
        term = unit
        k = 0
        while True:
            k += 1
            term = term.cup(self)
            term = term.scale(Fraction(1, k))
            if term.is_zero():
                break
            if k > 4 * dim + 4:
                raise ArithmeticError("class exponential did not terminate")
            acc = acc + term
        return acc

    def _window(self) -> int:
        wins = [f.global_window() for fam in self.components.values()
                for f in fam.values()]
        return min(wins) if wins else 0

    def _delta_eval(self, p: int, q: int, args) -> TorusForm:
        """Group coboundary of the (p, q) component, evaluated."""
        G = self.action.group
        out = form_pullback(self.action, args[0],
                            self.evaluate(p, q, args[1:]))
        for i in range(1, p + 1):
            merged = args[:i - 1] + (G.compose(args[i - 1], args[i]),) \
                + args[i + 1:]
            val = self.evaluate(p, q, merged)
            out = out + (val * (-1) if i % 2 else val)
        tail = self.evaluate(p, q, args[:p])
        out = out + (tail * (-1) if (p + 1) % 2 else tail)
        return out

    def total_cocycle_witness(self, span: int = 2):
        """Checks d(c_{P,Q-1}) + (-1)^Q delta(c_{P-1,Q}) = 0 for every
        bidegree on a grid; exact for component families of per-argument
        polynomial degree below the grid span."""
        if not self.components:
            return None
        G = self.action.group
        pts = range(G.order) if G.order is not None \
            else range(-span, span + 1)
        max_p = max(p for p, _ in self.components)
        max_q = max(q for _, q in self.components)
        for P in range(max_p + 2):
            for Q in range(max_q + 2):
                for args in product(pts, repeat=P):
                    acc = self.evaluate(P, Q - 1, args).d() if Q >= 1 \
                        else TorusForm.zero(self.action.dim)
                    if P >= 1:
                        delta = self._delta_eval(P - 1, Q, args)
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
    comps: dict = {(0, 2): {(): symplectic_form(dim, h_trunc) * inv_i_hbar}}
    if action.twist is not None:
        w = action.twist
        assert omega_pairing(w, w) == 0
        parts = {}
        for j, wj in enumerate(w):
            if wj:
                parts[(j,)] = TorusElement.one(dim, h_trunc) * (
                    FieldElement.pi_power(1, -2 * wj) * FieldElement.i_unit())
        if parts:
            comps[(1, 1)] = {(1,): TorusForm(dim, parts)}
    return EquivariantClassCocycle(action, comps)


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
    are reported through the optional mismatch list."""
    assert not chain.homogeneous
    k = xi.degree
    out: dict = {}
    for (ik, gw), v in chain.coeffs.items():
        if len(gw) < k:
            if mismatches is not None:
                mismatches.append(((ik, gw), "group degree below cochain"))
            continue
        val = xi.evaluate(gw[:k])
        if val.is_zero():
            continue
        _acc(out, (ik, gw[k:]), v * val)
    return EquivariantChain(chain.inner_ctx, chain.action, False, out)


def word_to_form(dim: int, word, h_trunc: int) -> TorusForm:
    """(1/n!) w0 dw1 ^ ... ^ dwn on plane-wave symbols."""
    fact = 1
    for t in range(2, len(word)):
        fact *= t
    acc = TorusForm.from_function(
        TorusElement.plane_wave(dim, word[0], h_trunc))
    for m in word[1:]:
        acc = acc.wedge(
            TorusForm.from_function(
                TorusElement.plane_wave(dim, m, h_trunc)).d())
        if acc.is_zero():
            return acc
    return acc * Fraction(1, fact)


class TraceFunctional:
    """Cocycle-twisted trace on crossed-product chains.

    On a word (a_0 g_0, ..., a_k g_k) with k the cochain degree, the
    value is the cochain on the last k labels times the trace of
    a_0 * g_0(a_1) * (g_0 g_1)(a_2) * ..., and zero unless the labels
    compose to the identity; other degrees contribute nothing.
    """

    __slots__ = ("xi", "action")

    def __init__(self, xi: GroupCochain, action: TranslationAction):
        wit = xi.cocycle_witness()
        if wit is not None:
            raise ValueError(
                f"cochain is not closed: coboundary at {wit[0]} is {wit[1]}")
        self.xi = xi
        self.action = action

    @property
    def degree(self) -> int:
        return self.xi.degree

    def pair(self, chain: CyclicChain) -> ULaurent:
        assert chain.ctx.kind == "crossed"
        act = self.action
        G = act.group
        k = self.xi.degree
        h = chain.ctx.h_trunc
        res = None
        for key, coeff in chain.coeffs.items():
            if len(key) - 1 != k:
                continue
            labels = [g for _, g in key]
            if not G.is_identity(G.compose_all(labels)):
                continue
            val = self.xi.evaluate(labels[1:])
            if val.is_zero():
                continue
            t = TorusElement.plane_wave(act.dim, key[0][0], h)
            running = labels[0]
            for m, g in key[1:]:
                t = t.star(act.apply(running,
                                     TorusElement.plane_wave(act.dim, m, h)))
                running = G.compose(running, g)
            term = coeff * (t.trace() * val)
            res = term if res is None else res + term
        if res is None:
            res = ULaurent.zero(chain.ctx.u_trunc)
        return res


def trace_pair(chain: CyclicChain) -> ULaurent:
    """Plain trace against the degree-0 part of a torus or crossed chain."""
    kind = chain.ctx.kind
    assert kind in ("torus", "crossed")
    res = None
    for key, coeff in chain.coeffs.items():
        if len(key) != 1:
            continue
        if kind == "torus":
            t = TorusElement.plane_wave(chain.ctx.dim, key[0],
                                        chain.ctx.h_trunc)
        else:
            m, g = key[0]
            if not chain.ctx.group.is_identity(g):
                continue
            t = TorusElement.plane_wave(chain.ctx.dim, m, chain.ctx.h_trunc)
        term = coeff * t.trace()
        res = term if res is None else res + term
    if res is None:
        res = ULaurent.zero(chain.ctx.u_trunc)
    return res


def phi_pair(classes: EquivariantClassCocycle, xi: GroupCochain,
             chain: CyclicChain, mismatches=None) -> ULaurent:
    """Transposed pairing: push the chain to group-decorated torus words,
    cap with the cochain, evaluate the class data on the remaining legs,
    integrate against the word forms, and weight each class component by
    u to half its total degree, with the dimension shift u^(-d).

    Torus chains are read as group-degree zero directly; crossed chains
    go through the full decomposition first.
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
    res = None
    for (ik, gw), v in items:
        p = len(gw)
        form = word_to_form(dim, ik, h)
        if form.is_zero():
            continue
        for (P, Q) in classes.bidegrees():
            if P != p:
                continue
            if (P + Q) % 2:
                if mismatches is not None:
                    mismatches.append(((ik, gw), "odd class degree"))
                continue
            val = classes.evaluate(P, Q, gw)
            tot = val.wedge(form).integrate()
            if tot.is_zero():
                continue
            term = (v * tot).shift((P + Q) // 2 - dim)
            res = term if res is None else res + term
    if res is None:
        res = ULaurent.zero(chain.ctx.u_trunc)
    return res
