"""Chain-level cyclic and Hochschild machinery over the scalar tower.

A chain is a finite sum of labelled tensor words with ULaurent scalars
(series in the degree -2 bookkeeping variable u over hbar-series).  One
operator set serves several slot vocabularies:

  'torus'    slots are plane-wave modes in Z^(2d); adjacent slots merge
             through the wave product e_m e_n = phase(m, n) e_{m+n}
  'weyl'     slots are monomials x^a xi^b; merging expands the
             symmetric Weyl-Moyal product of the two monomials, folding
             the resulting hbar powers into the scalar
  'sym'      the same monomial slots with the plain commutative product;
             this is the domain of the chains-to-forms rule
  'group'    slots are cyclic-group elements; g times h is h, so a face
             omits a slot, and a degeneracy duplicates one
  'crossed'  slots are (mode, group element) pairs multiplying as the
             crossed product of the quantized torus by a translation
  'diag'     slots are (mode, group element) pairs of the tensor product
             of the torus and group vocabularies: (m, g) times (n, h) is
             the wave product of the modes under the label h, and a
             degeneracy after slot (m, g) inserts (zero mode, g)
  'idem'     slots are words in {unit, e} over one abstract idempotent;
             this vocabulary backs the character coefficient table

Conventions.  A vocabulary is two rules: the product of two adjacent
slots (_mul_labels) and the slot a degeneracy inserts after a slot
(_unit_after); every word of n + 1 slots has degree n.  Face i with
0 <= i < n merges slots i and i+1 in that order; the top face folds slot
n onto slot 0 as (slot n)(slot 0).  Degeneracy i inserts the unit after
slot i, in the sense of _unit_after.  The rotation sends (x_0,
..., x_n) to (x_1, ..., x_n, x_0) without a sign.  The simplicial
boundary is the alternating face sum.  The degree-raising boundary is

    (rotate_inverse + (-1)^n) o (degeneracy n) o N,
    N = sum_i (-1)^(i n) rotate^i,

and the mixed boundary adds u times it to the simplicial one.

Diagonal chains come in two flavours.  The plain flavour is an honest
tensor; the coinvariant flavour stores one canonical representative per
orbit of the joint group action (the label of slot 0 the identity), and
every operator moves its raw entries to their representatives
(_canonical).  The translation actions used here scale a mode by a phase
without moving it, so canonicalisation only multiplies coefficients and
left-translates the labels.

Equivariant chains pair an inner chain with a word of group elements.
The homogeneous form keeps p+1 group slots modulo the diagonal action
(stored in the free normal form: inner part canonical, group word free);
the non-homogeneous form keeps p independent group slots, dropping any
word that contains the identity.  A homogeneous chain may be normalized:
it then drops every group word with two equal adjacent labels, the words
the non-homogeneous form would drop.  The total boundary is the inner one
plus (-1)^(inner degree) times the group-word one.  The inner boundary,
and with it the one splitting map q_map, is b + uB, which at u window 0
is the Hochschild boundary b.  The front/back splitting of an honest
diagonal chain is one over torus words.

Every operator is linear, given by its value on one word as a list of
entries (target word, sign, scalar or None, u shift): the value is sign *
scalar * u^shift times the word's coefficient.  `Chain._map` sums the
entries over the chain in one integer accumulator (scalars._chain_sums),
with the sign as the accumulator's scale, so no operator makes a negated
copy or an intermediate series.  Each scalar is a `scalars._Flat`, flat
integer terms grouped by level: the star phases are cached by pairing,
the crossed face phases on the context, the Moyal terms by slot pair.
Sums of chains that are themselves operator values (b + uB, the total
boundary) go through the same accumulator.  Both chain classes keep
their terms through `Chain._store`.

The inner boundary of an equivariant chain depends only on the inner word:
it acts on the group word by a left translation and on the coefficient by
one scalar per entry.  Each inner word's mixed boundary is therefore
built once per chain context, as a plan: its raw entries moved to their
representatives by `_canonical`, as (target inner word, g^-1 or None,
sign, scalar or None, u shift), each scalar the star phase times the
translation phase, built as flat terms once.  The plan is applied to
every group word that carries that inner word, and the accumulator sums
the entries of one target, so no plan sums its own values.  Only the
inner boundary reads plans: a cyclic chain's b and B take the raw entries
of each word once.  The plans live on the context, so they are cut at its
own hbar and u windows and live no longer than it.  The splitting map
composes them with its homotopy, so the inner boundary's chain is never
built there.
"""

from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, chain
from types import MappingProxyType

from .scalars import (HbarLaurent, ULaurent, _Accumulator, _chain_sums,
                      _Flat, _as_field, _flat_phase, _star_phase)
from .sparse import Chain, _acc
from .torus import (TorusElement, CrossedElement, TranslationAction,
                    mode_add, omega_pairing)
from .weyl import _moyal_product

_KINDS = ("torus", "weyl", "sym", "group", "crossed", "diag", "idem")


class ChainContext:
    """Slot vocabulary plus the scalar windows every derived coefficient
    uses (h_trunc for hbar series, u_trunc for u series)."""

    __slots__ = ("kind", "dim", "group", "action", "h_trunc", "u_trunc",
                 "coinvariant", "_plans", "_phases", "_derived")

    def __init__(self, kind, dim=None, group=None, action=None,
                 h_trunc=8, u_trunc=6, coinvariant=False):
        if kind not in _KINDS:
            raise ValueError(f"unknown chain kind {kind!r}")
        self.kind = kind
        self.dim = dim
        self.group = group
        self.action = action
        self.h_trunc = h_trunc
        self.u_trunc = u_trunc
        self.coinvariant = coinvariant
        # inner word -> its boundary plan; see _plan
        self._plans = {}
        # (g, mode, pairing) -> crossed face phase as a _Flat; see _mul_labels
        self._phases = {}
        # the as_* contexts, built once so chains derived from one context
        # share their inner boundary plans
        self._derived = {}

    @classmethod
    def torus(cls, dim, h_trunc=8, u_trunc=6):
        return cls("torus", dim=dim, h_trunc=h_trunc, u_trunc=u_trunc)

    @classmethod
    def weyl(cls, dim, h_trunc=8, u_trunc=6):
        return cls("weyl", dim=dim, h_trunc=h_trunc, u_trunc=u_trunc)

    @classmethod
    def sym(cls, dim, h_trunc=8, u_trunc=6):
        return cls("sym", dim=dim, h_trunc=h_trunc, u_trunc=u_trunc)

    @classmethod
    def group_labels(cls, group, u_trunc=6):
        return cls("group", group=group, h_trunc=0, u_trunc=u_trunc)

    @classmethod
    def crossed(cls, action: TranslationAction, h_trunc=8, u_trunc=6):
        return cls("crossed", dim=action.dim, group=action.group,
                   action=action, h_trunc=h_trunc, u_trunc=u_trunc)

    @classmethod
    def diagonal(cls, action: TranslationAction, h_trunc=8, u_trunc=6,
                 coinvariant=True):
        return cls("diag", dim=action.dim, group=action.group, action=action,
                   h_trunc=h_trunc, u_trunc=u_trunc, coinvariant=coinvariant)

    @classmethod
    def idem(cls, u_trunc=6):
        return cls("idem", h_trunc=0, u_trunc=u_trunc)

    def _derive(self, key, build, *args):
        ctx = self._derived.get(key)
        if ctx is None:
            ctx = self._derived[key] = build(*args)
        return ctx

    def as_torus(self):
        return self._derive("torus", ChainContext.torus, self.dim,
                            self.h_trunc, self.u_trunc)

    def as_diagonal(self, coinvariant=True):
        return self._derive(("diag", coinvariant), ChainContext.diagonal,
                            self.action, self.h_trunc, self.u_trunc,
                            coinvariant)

    def as_crossed(self):
        return self._derive("crossed", ChainContext.crossed, self.action,
                            self.h_trunc, self.u_trunc)

    def one(self) -> ULaurent:
        return ULaurent.one(self.u_trunc, self.h_trunc)

    def scalar(self, s) -> ULaurent | None:
        """s as a chain coefficient, or None when s is not a scalar."""
        if isinstance(s, ULaurent):
            return s
        if isinstance(s, HbarLaurent):
            return ULaurent.from_hbar(s, self.u_trunc)
        fe = _as_field(s, 4)
        if fe is NotImplemented:
            return None
        return ULaurent.from_hbar(HbarLaurent.from_field(fe, self.h_trunc),
                                  self.u_trunc)

    def __repr__(self):
        return f"ChainContext({self.kind!r}, dim={self.dim})"


# -- slot helpers ----------------------------------------------------------

def _unit_label(ctx):
    kind = ctx.kind
    if kind in ("torus", "diag"):
        return (0,) * (2 * ctx.dim)
    if kind in ("weyl", "sym"):
        z = (0,) * ctx.dim
        return (z, z)
    if kind == "crossed":
        return ((0,) * (2 * ctx.dim), ctx.group.identity)
    if kind == "idem":
        return 0
    raise ValueError(f"no unit slot for kind {ctx.kind!r}")


def _unit_after(ctx, slot):
    """The slot a degeneracy inserts after slot: the slot itself in a
    group word, the zero mode under the slot's label in a diagonal word,
    the unit in every other vocabulary."""
    kind = ctx.kind
    if kind == "group":
        return slot
    if kind == "diag":
        return (_unit_label(ctx), slot[1])
    return _unit_label(ctx)


def _mul_labels(ctx, x, y):
    """Product of two adjacent slots as [(slot, scalar or None), ...], each
    scalar a cached _Flat: the star phase by pairing, the crossed phase
    (translation times star phase) on the context, the Moyal terms by
    label pair.  A diagonal slot (m, g) times (n, h) is the wave product
    of the modes under the label h, and a group slot g times h is h: so
    face i omits group label i, and the top face keeps label 0."""
    kind = ctx.kind
    if kind == "torus":
        return [(mode_add(x, y),
                 _flat_phase(omega_pairing(x, y), ctx.h_trunc))]
    if kind == "diag":
        (m, _), (n, h) = x, y
        return [((mode_add(m, n), h),
                 _flat_phase(omega_pairing(m, n), ctx.h_trunc))]
    if kind == "group":
        return [(y, None)]
    if kind == "crossed":
        (m, g), (n, h) = x, y
        p = omega_pairing(m, n)
        ph = ctx._phases.get((g, n, p))
        if ph is None:
            ph = ctx._phases[g, n, p] = _Flat(
                ctx.action.mode_phase(g, n, ctx.h_trunc)
                * _star_phase(p, ctx.h_trunc))
        return [((mode_add(m, n), ctx.group.compose(g, h)), ph)]
    if kind == "sym":
        (a, b), (c, d) = x, y
        return [((mode_add(a, c), mode_add(b, d)), None)]
    if kind == "weyl":
        return _weyl_labels(x, y, ctx.h_trunc)
    if kind == "idem":
        return [(max(x, y), None)]
    raise ValueError(f"slots of kind {ctx.kind!r} have no product")


@lru_cache(maxsize=4096)
def _weyl_labels(x, y, h_trunc):
    """The Weyl product of two monomial slots as (label, _Flat) pairs; a
    term above the window keeps its pair with a zero scalar."""
    return tuple(((a, b), _Flat(HbarLaurent.from_field(fe, h_trunc, k)))
                 for (a, b, k), fe in _moyal_product(*x, *y))


# -- raw word operators (no coinvariant canonicalisation) ------------------

def _face_key(ctx, key, i):
    """Face i of a word: slot i times slot i + 1 in its place, or for the
    top face slot n times slot 0 in the place of slot 0."""
    n = len(key) - 1
    if not 0 <= i <= n or n < 1:
        raise ValueError(f"face {i} undefined on a word of degree {n}")
    if i < n:
        return [(key[:i] + (lab,) + key[i + 2:], s)
                for lab, s in _mul_labels(ctx, key[i], key[i + 1])]
    return [((lab,) + key[1:n], s)
            for lab, s in _mul_labels(ctx, key[n], key[0])]


def _deg_key(ctx, key, i):
    return [(key[:i + 1] + (_unit_after(ctx, key[i]),) + key[i + 1:], None)]


def _rotate_key(key, k):
    """Rotate a word k places: (x_0, ..., x_n) to (x_k, ..., x_n, x_0,
    ..., x_(k-1)); k may be negative or exceed the length."""
    return key[k % len(key):] + key[:k % len(key)]


def _translate(ctx, action, g, key):
    """Act by g^-1 on an inner word of ctx.

    Modes never move, so the word only picks up the eigenvalue of g^-1 on
    its modes; the labels of a diagonal word are left-translated by g^-1.
    Returns (key, phase)."""
    G = action.group
    ginv = G.inverse(g)
    if ctx.kind == "diag":
        modes = tuple(m for m, _ in key)
        return (tuple((m, G.compose(ginv, x)) for m, x in key),
                action.word_phase((ginv,) * len(key), modes, ctx.h_trunc))
    return key, action.word_phase((ginv,) * len(key), key, ctx.h_trunc)


def _raw_boundary_terms(ctx, key):
    """Alternating face sum of one word as entries (target, sign, scalar or
    None, 0); degree 0 contributes nothing."""
    n = len(key) - 1
    return [(k2, -1 if i % 2 else 1, s, 0)
            for i in range(n + 1 if n else 0)
            for k2, s in _face_key(ctx, key, i)]


def _raw_connes_terms(ctx, key, shift=0):
    """Degree-raising boundary of one word as entries (target, sign, None,
    shift); shift 1 is the u factor of the mixed boundary."""
    n = len(key) - 1
    out = []
    for i in range(n + 1):
        sg = -1 if (i * n) % 2 else 1
        for k1, _ in _deg_key(ctx, _rotate_key(key, i), n):
            out.append((_rotate_key(k1, -1), sg, None, shift))
            out.append((k1, -sg if n % 2 else sg, None, shift))
    return out


def _canonical(ctx, entries):
    """Entries (target, sign, scalar or None, u shift) as (target, g^-1 or
    None, sign, scalar or None, u shift): a coinvariant diagonal target
    whose first group slot g is not the identity moves to its
    representative, the translation phase multiplied into the scalar, and
    g^-1 marks the entry to left-translate a group word."""
    canon = ctx.kind == "diag" and ctx.coinvariant
    G = ctx.group
    out = []
    for k2, sign, s, shift in entries:
        ginv = None
        if canon and not G.is_identity(k2[0][1]):
            ginv = G.inverse(k2[0][1])
            k2, phase = _translate(ctx, ctx.action, k2[0][1], k2)
            s = _Flat(phase if s is None else s.series * phase)
        out.append((k2, ginv, sign, s, shift))
    return out


def _plan(ctx, ik):
    """The boundary plan of the inner word ik of ctx: its mixed boundary
    b + uB on the coefficient 1, the faces (u shift 0) then the
    degree-raising terms (u shift 1), as entries moved to their
    representatives (_canonical).  The inner boundary applies one plan to
    every group word that carries ik, so the plan is built once and kept
    on the context.  The entries of one target are kept apart; the
    accumulator that applies them sums their products, each through its
    own window."""
    plan = ctx._plans.get(ik)
    if plan is None:
        plan = ctx._plans[ik] = _canonical(
            ctx, _raw_boundary_terms(ctx, ik) + _raw_connes_terms(ctx, ik, 1))
    return plan


class CyclicChain(Chain):
    """Finite sum of labelled tensor words with ULaurent coefficients.

    Words of different simplicial degree may coexist (mixed chains carry
    u powers in the scalars).  Coinvariant diagonal chains are stored by
    canonical representatives and every operator re-canonicalises."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: ChainContext, coeffs):
        self.ctx = ctx
        self._store(coeffs)

    def _admit(self, key, value):
        """A coinvariant diagonal word moves to its orbit representative,
        the one whose first group slot is the identity."""
        ctx = self.ctx
        if ctx.kind == "diag" and ctx.coinvariant \
                and not ctx.group.is_identity(key[0][1]):
            key, s = _translate(ctx, ctx.action, key[0][1], key)
            value = value * s
        return key, value

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, {})

    @classmethod
    def word(cls, ctx, key, coeff=None):
        c = ctx.one() if coeff is None else ctx.scalar(coeff)
        if c is None:
            raise TypeError(f"a {type(coeff).__name__} is not a chain "
                            f"coefficient")
        return cls(ctx, {key: c})

    def _spawn(self, coeffs, other=None):
        return CyclicChain(self.ctx, coeffs)

    def _scalar(self, s):
        return self.ctx.scalar(s)

    def _raw_map(self, terms):
        """The map sending each word to its raw entries terms(ctx, word), a
        coinvariant context moving each target to its representative
        (_canonical)."""
        ctx = self.ctx
        if ctx.kind == "diag" and ctx.coinvariant:
            return self._map(lambda k, c: [
                (k2, sign, s, shift)
                for k2, _, sign, s, shift in _canonical(ctx, terms(ctx, k))])
        return self._map(lambda k, c: terms(ctx, k))

    def _slotwise(self, op, *args):
        """The map sending each word to op(ctx, word, *args), a list of
        (word, scalar or None) pairs."""
        return self._raw_map(lambda ctx, k: [(k2, 1, s, 0)
                                             for k2, s in op(ctx, k, *args)])

    def face(self, i: int) -> "CyclicChain":
        return self._slotwise(_face_key, i)

    def degeneracy(self, i: int) -> "CyclicChain":
        return self._slotwise(_deg_key, i)

    def rotate(self, power: int = 1) -> "CyclicChain":
        return self._slotwise(lambda ctx, k: [(_rotate_key(k, power), None)])

    def boundary(self) -> "CyclicChain":
        """Simplicial boundary b (alternating face sum)."""
        return self._raw_map(_raw_boundary_terms)

    def connes_boundary(self) -> "CyclicChain":
        """Degree-raising boundary B (no u factor; mixed_boundary adds it)."""
        return self._raw_map(_raw_connes_terms)

    def mixed_boundary(self) -> "CyclicChain":
        """Simplicial boundary plus u times the degree-raising one, kept
        inside the declared u window: the two chains summed in one
        accumulator (scalars._chain_sums).  When no coefficient is known
        beyond that window, B is taken only on the u powers below it,
        since u B of the top power lands above the window, and every
        window stays the same."""
        ut = self.ctx.u_trunc
        raised = self
        if all(c.trunc <= ut for c in self.coeffs.values()):
            raised = self.truncate(ut - 1)
        return self._spawn(_chain_sums(chain(
            _as_items(self.boundary()),
            _as_items(raised.connes_boundary(), 1)), ut))

    def __repr__(self):
        n = len(self.coeffs)
        degrees = sorted({len(k) - 1 for k in self.coeffs})
        return (f"CyclicChain({self.ctx.kind}, {n} word"
                f"{'s' if n != 1 else ''}, degrees {degrees})")


# -- crossed product <-> diagonal coinvariants -----------------------------

def homogeneous_projection(c: CyclicChain) -> CyclicChain:
    """Component of a crossed chain whose group labels multiply to the
    identity; the complement is invariant under every operator, so this
    is a projection of complexes."""
    if c.ctx.kind != "crossed":
        raise ValueError("homogeneous_projection expects a crossed chain")
    G = c.ctx.group
    return c._map(lambda k, v: [(k, 1, None, 0)]
                  if G.is_identity(G.compose_all(g for _, g in k)) else [])


def homogeneous_to_coinvariants(c: CyclicChain) -> CyclicChain:
    """Identity-product crossed words to coinvariant diagonal words.

    Slot 0 is acted on by the inverse of its own group label; slot j >= 1
    by the product of labels 1 through j-1.  Slot j keeps its mode under
    the product of labels 1 through j (the identity at slot 0), so the
    word is already canonical."""
    if c.ctx.kind != "crossed":
        raise ValueError("expected a crossed chain")
    ctx = c.ctx
    G, act = ctx.group, ctx.action

    def terms(key, v):
        labels = [g for _, g in key]
        if not G.is_identity(G.compose_all(labels)):
            raise ValueError("chain has a word outside the identity-product "
                             "component; project first")
        modes = tuple(m for m, _ in key)
        prefix = tuple(accumulate(labels[1:], G.compose, initial=G.identity))
        s = act.word_phase((G.inverse(labels[0]),) + prefix[:-1], modes,
                           ctx.h_trunc)
        return [(tuple(zip(modes, prefix)), 1, _Flat(s), 0)]

    return c._map(terms, partial(CyclicChain,
                                 ctx.as_diagonal(coinvariant=True)))


def coinvariants_to_homogeneous(c: CyclicChain) -> CyclicChain:
    """Inverse of homogeneous_to_coinvariants.

    Slot (m_j, g_j) becomes (action of g_(j-1)^-1 on m_j, g_(j-1)^-1
    g_j), slot 0 wrapping around to the last label g_n."""
    if c.ctx.kind != "diag" or not c.ctx.coinvariant:
        raise ValueError("expected a coinvariant diagonal chain")
    ctx = c.ctx
    G, act = ctx.group, ctx.action

    def terms(key, v):
        modes, grp = zip(*key)
        pinv = [G.inverse(grp[j - 1]) for j in range(len(modes))]
        slots = tuple((m, G.compose(p, g))
                      for m, p, g in zip(modes, pinv, grp))
        return [(slots, 1, _Flat(act.word_phase(pinv, modes, ctx.h_trunc)),
                 0)]

    return c._map(terms, partial(CyclicChain, ctx.as_crossed()))


# -- equivariant chains ----------------------------------------------------

class EquivariantChain(Chain):
    """Inner chain tensored with a word of group elements.

    Homogeneous keys are (inner_key, (k_0, ..., k_p)) in free normal
    form: the inner part canonical, the group word unconstrained.  The
    non-homogeneous keys carry (k_1, ..., k_p) with no identity entries
    (words acquiring one are dropped, which realises the quotient by
    degenerate words).

    A normalized homogeneous chain lives in the normalized bar complex:
    a group word with two adjacent labels that are the same element is
    degenerate and dropped as it is produced.  The degenerate words span
    a subcomplex that the free homotopy, the group boundary and the left-
    translated inner boundary all preserve (Mac Lane, Homology, IV.5), so
    every operator commutes with the quotient.  Every operator within
    the homogeneous form keeps the flag.  The coordinate changes build
    unflagged chains, as the non-homogeneous form is normalized
    already."""

    __slots__ = ("inner_ctx", "action", "homogeneous", "normalized")

    def __init__(self, inner_ctx: ChainContext, action: TranslationAction,
                 homogeneous: bool, coeffs, normalized: bool = False):
        if inner_ctx.kind not in ("diag", "torus"):
            raise ValueError("inner chains must be diagonal or torus words")
        self.inner_ctx = inner_ctx
        self.action = action
        self.homogeneous = homogeneous
        self.normalized = normalized
        self._store(coeffs)

    def _admit(self, key, value):
        """Drop a non-homogeneous word with an identity entry and, when
        normalized, a homogeneous word with two equal adjacent labels
        (compared reduced, so that -1 and 3 are one element of Z/4)."""
        gw = key[1]
        G = self.action.group
        if self.homogeneous:
            if not gw:
                raise ValueError("homogeneous keys need one group slot")
            if self.normalized and len(gw) > 1:
                labels = list(map(G.normalize, gw))
                if any(a == b for a, b in zip(labels, labels[1:])):
                    return None
        elif any(G.is_identity(g) for g in gw):
            return None
        return key, value

    def _spawn(self, coeffs, other=None):
        if other is not None and (other.homogeneous, other.normalized) != \
                (self.homogeneous, self.normalized):
            raise ValueError("cannot mix coordinate systems or the full and "
                             "normalized complexes")
        return EquivariantChain(self.inner_ctx, self.action,
                                self.homogeneous, coeffs, self.normalized)

    def _scalar(self, s):
        return self.inner_ctx.scalar(s)

    def __repr__(self):
        form = "homogeneous" if self.homogeneous else "non-homogeneous"
        return (f"EquivariantChain({self.inner_ctx.kind}, {form}, "
                f"{len(self.coeffs)} keys)")

    # -- inner (coefficient complex) operators -----------------------------

    def inner_boundary(self) -> "EquivariantChain":
        """Boundary b + uB of the inner part (b at u window 0); in free
        normal form the produced representatives are re-canonicalised and
        the correction left-translates the group word.

        The boundary of each inner word is planned once per inner context
        (`_plan`) and kept on the context, since one inner word carries
        many group words.  Per word this leaves the plan's entries, each
        with the left translation of the group word, for the one sum of
        `Chain._map`, which cuts the degree-raising entries at the u
        window.  The translation phases come from the action of the
        diagonal inner context."""
        return self._map(self._inner_terms(), u_cap=self.inner_ctx.u_trunc)

    def _inner_terms(self):
        """The entries of the inner boundary on one word: its inner word's
        plan, each target paired with the left-translated group word."""
        ctx = self.inner_ctx
        G = self.action.group

        def terms(key, c):
            ik, gw = key
            return [((k2, gw if ginv is None else
                      tuple(G.compose(ginv, x) for x in gw)), sign, s, shift)
                    for k2, ginv, sign, s, shift in _plan(ctx, ik)]

        return terms

    # -- group-word operators ----------------------------------------------

    def _group_terms(self, key, c, odd=0):
        """Alternating boundary of the group word of one word as entries,
        every sign flipped when odd is 1."""
        ik, gw = key
        G = self.action.group
        faces = []                      # (key, sign parity, scalar or None)
        if self.homogeneous:
            if len(gw) > 1:
                faces = [((ik, gw[:i] + gw[i + 1:]), i % 2, None)
                         for i in range(len(gw))]
        elif gw:
            p = len(gw)
            ik0, s0 = _translate(self.inner_ctx, self.action, gw[0], ik)
            faces.append(((ik0, gw[1:]), 0, s0))
            for i in range(1, p):
                gw2 = gw[:i - 1] + (G.compose(gw[i - 1], gw[i]),) + gw[i + 1:]
                faces.append(((ik, gw2), i % 2, None))
            faces.append(((ik, gw[:-1]), p % 2, None))
        return [(k2, -1 if sg != odd else 1, None if s is None else _Flat(s),
                 0) for k2, sg, s in faces]

    def group_boundary(self) -> "EquivariantChain":
        return self._map(self._group_terms)

    def total_boundary(self) -> "EquivariantChain":
        """Inner boundary plus (-1)^(inner degree) group-word boundary,
        summed in one accumulator (scalars._chain_sums)."""
        return self._spawn(_chain_sums(chain(
            _as_items(self.inner_boundary()),
            ((c, self._group_terms(k, c, (len(k[0]) - 1) % 2))
             for k, c in self.coeffs.items()))))

    def prepend_unit(self) -> "EquivariantChain":
        """The contracting homotopy of the free normal form: prepend the
        identity to the group word."""
        if not self.homogeneous:
            raise ValueError("the homotopy lives on homogeneous chains")
        e = self.action.group.identity
        return self._map(lambda k, v: [((k[0], (e,) + k[1]), 1, None, 0)])

    # -- coordinate changes -------------------------------------------------

    def to_nonhomogeneous(self) -> "EquivariantChain":
        """Divide out the diagonal action: act on the inner word by the
        leading group slot, then take successive quotients of the word.
        A diagonal inner word keeps only the modes of its slots in the
        same map, so the chain lands over inner_ctx.as_torus(); torus inner
        words keep inner_ctx."""
        if not self.homogeneous:
            return self
        diag = self.inner_ctx.kind == "diag"
        tctx = self.inner_ctx.as_torus() if diag else self.inner_ctx
        G = self.action.group

        def terms(key, v):
            ik, gw = key
            ik2, s = _translate(tctx, self.action, gw[0],
                                tuple(m for m, _ in ik) if diag else ik)
            word = tuple(G.compose(G.inverse(gw[i]), gw[i + 1])
                         for i in range(len(gw) - 1))
            return [((ik2, word), 1, _Flat(s), 0)]

        return self._map(terms, partial(EquivariantChain, tctx, self.action,
                                        False))

    def to_homogeneous(self) -> "EquivariantChain":
        """Section of to_nonhomogeneous with identity leading slot."""
        if self.homogeneous:
            return self
        G = self.action.group

        def terms(key, v):
            gw = accumulate(key[1], G.compose, initial=G.identity)
            return [((key[0], tuple(gw)), 1, None, 0)]

        return self._map(terms, partial(EquivariantChain, self.inner_ctx,
                                        self.action, True))


def equivariant_embed(f: CyclicChain,
                      normalized: bool = False) -> EquivariantChain:
    """A coinvariant diagonal chain as an equivariant chain with a single
    identity group slot (its canonical free coordinate), in the full or
    the normalized bar complex."""
    if f.ctx.kind != "diag" or not f.ctx.coinvariant:
        raise ValueError("expected a coinvariant diagonal chain")
    e = f.ctx.group.identity
    return f._map(lambda k, v: [((k, (e,)), 1, None, 0)],
                  partial(EquivariantChain, f.ctx, f.ctx.action, True,
                          normalized=normalized))


def _as_items(x, shift=0):
    """The words of x as items (coefficient, [entry]) of
    scalars._chain_sums, each word its own target, moved by u^shift."""
    return ((c, [(k, 1, None, shift)]) for k, c in x.coeffs.items())


def _homotopy_items(x: EquivariantChain, flip: int, inner: bool = False):
    """The items of scalars._chain_sums for the free homotopy adapted to
    the signed group differential of the total complex, applied to x or,
    when inner is set, to the inner boundary of x: prepend the identity,
    weighted by the parity of the inner word, every sign flipped when flip
    is 1.  The inner boundary's entries are composed with the homotopy,
    so its chain is never built."""
    e = x.action.group.identity
    terms = x._inner_terms() if inner else \
        (lambda key, c: [(key, 1, None, 0)])
    return ((c, [((k2, (e,) + gw2),
                  -sign if (len(k2) - 1) % 2 != flip else sign,
                  s, shift)
                 for (k2, gw2), sign, s, shift in terms(key, c)])
            for key, c in x.coeffs.items())


def q_map(f: CyclicChain, *, normalized: bool = False) -> EquivariantChain:
    """Split a chain of coinvariants into the equivariant complex.

    Staircase construction: the group-degree-zero layer is the canonical
    lift, and each further layer is the signed free homotopy applied to
    the failure of the layers so far to intertwine the differentials.
    The series stops when both running layers vanish (the u window and
    the degree floor prune everything), never at a fixed cutoff.  Each
    layer is one sum (scalars._chain_sums) of the homotopy composed with
    the inner boundary.  Layer r holds group words of length r + 1, so no
    two layers share a word, and the map is the union of its layers.  It
    splits against b + uB; the Hochschild splitting, against b, is the
    same map at u window 0, where every uB term of a u^0 chain is cut.

    By default the map lands in the full homogeneous bar complex, where
    it is a chain map word for word.  With normalized=True every layer
    lives in the normalized bar complex (see EquivariantChain): a word
    with two equal adjacent group labels is dropped as it is produced.
    That is the complex d_map and the pairings read, since
    to_nonhomogeneous drops those words anyway, and most of the full
    map's words are such words.  The full map stays the default because
    its chain-map law is the stronger statement."""
    emb = equivariant_embed(f, normalized)
    if f.is_zero():
        return emb
    V = emb
    W = equivariant_embed(f.mixed_boundary())
    layers = [emb]
    lows = [v.low for v in f.coeffs.values() if v.low is not None]
    head = min(lows) if lows else 0
    limit = max(len(k) - 1 for k in f.coeffs)
    limit += 2 * max(f.ctx.u_trunc - min(head, 0) + 1, 1) + 4
    ut = f.ctx.u_trunc
    rounds = 0
    while not (V.is_zero() and W.is_zero()):
        rounds += 1
        if rounds > limit:
            raise ArithmeticError("equivariant splitting series did not "
                                  "stabilise within its degree bound")
        V, W = (emb._spawn(_chain_sums(chain(
                    _homotopy_items(W, 0),
                    _homotopy_items(V, 1, True)), ut)),
                emb._spawn(_chain_sums(_homotopy_items(W, 1, True), ut)))
        layers.append(V)
    return emb._spawn({k: c for layer in layers
                       for k, c in layer.coeffs.items()})


# -- front/back splitting and the localisation composite -------------------

def alexander_whitney(c: CyclicChain) -> EquivariantChain:
    """Front faces of the modes against back faces of the labels of an
    honest diagonal chain, as a homogeneous equivariant chain over torus
    words; its Hochschild total boundary is the algebra boundary plus
    (-1)^(algebra degree) times the omission boundary of the group
    word."""
    if c.ctx.kind != "diag" or c.ctx.coinvariant:
        raise ValueError("expected an honest (non-coinvariant) diagonal "
                         "chain")
    tctx = c.ctx.as_torus()

    def terms(key, v):
        alg, grp = zip(*key)
        out = []
        fronts = [(alg, None)]          # (front word, its face phases)
        for p in range(len(alg) - 1, -1, -1):
            out += [((w, grp[p:]), 1, None if s is None else _Flat(s), 0)
                    for w, s in fronts]
            if p:
                fronts = [(w2, f.series if s is None else s * f.series)
                          for w, s in fronts
                          for w2, f in _face_key(tctx, w, len(w) - 1)]
        return out

    return c._map(terms, partial(EquivariantChain, tctx, c.ctx.action, True))


def d_map(c: CyclicChain) -> EquivariantChain:
    """Localise a crossed chain at the identity-product component and
    land in the non-homogeneous equivariant complex over algebra words.

    Composite of four steps: project, rewrite as coinvariant diagonal
    words, split into the equivariant complex, and convert, which forgets
    the group half of the inner words and divides out the diagonal action
    in one map (to_nonhomogeneous).  The split is taken in the normalized
    bar complex (q_map with normalized=True): dividing out the diagonal
    action drops every degenerate group word, so the output is the one
    the full split gives."""
    f = homogeneous_to_coinvariants(homogeneous_projection(c))
    return q_map(f, normalized=True).to_nonhomogeneous()


# -- idempotent character --------------------------------------------------
#
# Coefficient table for the even character of an idempotent e (Loday,
# Cyclic Homology, 8.3).  Words are idem-vocabulary words, tuples over
# {0, 1} with 1 the idempotent and 0 the unit; the degree-n block
# multiplies u^n and has word length 2n + 1.  The blocks solve
#
#     boundary(block n) = -(degree-raising boundary)(block n-1)
#
# and block n is the exact contracting homotopy of b applied to the right
# side, both on the idem vocabulary: the degree-raising boundary is
# _raw_connes_terms, and the homotopy sends a_0 (x) rest to the sum of
# (a_0 x) (x) y (x) rest over the separability element
#
#     p (x) p + q (x) q = 2 e (x) e - e (x) 1 - 1 (x) e + 1 (x) 1
#
# of the orthogonal idempotents p = e and q = 1 - e, with a_0 x the slot
# product (_mul_labels).  The first blocks are
#
#     n = 0:  (e)
#     n = 1:  -2 (e,e,e) - (e,e,1) - (1,1,e) + (1,e,e) + (e,1,e)
#
# On the normalized words (no unit after slot 0) block n is the classical
# (-1)^n (2n)!/n! (e - 1/2) (x) e^(x)2n; its other words are the unit
# letters the full character needs to be a cycle word for word.  Each
# block is derived once, from the one before it, and the table stops at
# degree _CHERN_MAX, since a block is four times the size of the last.

_CHERN_MAX = 5

# p (x) p + q (x) q as (x, y, coefficient) over the idem letters
_SEPARABILITY = ((1, 1, 2), (1, 0, -1), (0, 1, -1), (0, 0, 1))


@lru_cache(maxsize=None)
def chern_coefficients(n: int) -> MappingProxyType:
    """Block n of the character table as a read-only {word: Fraction}."""
    if not 0 <= n <= _CHERN_MAX:
        raise ValueError(f"character blocks are kept for degrees 0..{_CHERN_MAX}")
    if n == 0:
        return MappingProxyType({(1,): Fraction(1)})
    ctx = ChainContext.idem()
    out: dict = {}
    for w, q in chern_coefficients(n - 1).items():
        for k, sign, _, _ in _raw_connes_terms(ctx, w):
            for x, y, c in _SEPARABILITY:
                for a, _ in _mul_labels(ctx, k[0], x):
                    _acc(out, (a, y) + k[1:], -sign * c * q)
    return MappingProxyType({w: q for w, q in out.items() if q})


def chern_word_chain(u_trunc: int) -> CyclicChain:
    """The abstract character as an idempotent-word chain with the block
    of degree n carrying u^n, for n <= u_trunc."""
    ctx = ChainContext.idem(u_trunc=u_trunc)
    out: dict = {}
    for n in range(u_trunc + 1):
        for w, q in chern_coefficients(n).items():
            out[w] = ULaurent.from_hbar(HbarLaurent.from_rational(q, 0),
                                        u_trunc, power=n)
    return CyclicChain(ctx, out)


def _entry_terms(entry):
    """The plane waves of a matrix entry as (slot label, _Flat) pairs."""
    if isinstance(entry, CrossedElement):
        return [((m, g), _Flat(hl)) for g, tor in entry.coeffs.items()
                for m, hl in tor.coeffs.items()]
    if isinstance(entry, TorusElement):
        return [(m, _Flat(hl)) for m, hl in entry.coeffs.items()]
    raise TypeError("matrix entries must be torus or crossed elements")


def chern_character(matrix, u_trunc: int,
                    normalized: bool = False) -> CyclicChain:
    """Even character of an idempotent matrix over the quantized torus or
    its crossed product, through u^u_trunc.

    Rejects matrices that fail E*E = E, quoting a failing entry.  Unit
    letters in the coefficient table become the identity matrix; words
    are contracted along matrix index cycles.  Each path's slot series are
    multiplied as flat integer terms (scalars._Flat.times), and its last
    slot's product is one _Accumulator.add under (word, u power), scaled
    by the table coefficient; the accumulator keeps each word's least
    window and lcm denominator, and freezes each coefficient once.

    By default the character is the full chain, a cycle of the mixed
    complex.  With normalized=True it is its image in the normalized
    mixed complex (Loday, Cyclic Homology, 2.1.9): a path that puts a
    scalar letter (mode 0, with the identity label on crossed words)
    after slot 0 is dropped before it is multiplied out.  Every word kept
    has the coefficient of the full character.  The trace, the twisted
    traces with a normalized cochain and phi_pair all vanish on the
    dropped words, so they read the same value on both; the full chain
    stays the default, as only it is a cycle word for word."""
    rows = [list(r) for r in matrix]
    r = len(rows)
    if any(len(row) != r for row in rows):
        raise ValueError("the idempotent matrix must be square")
    sample = rows[0][0]
    h_trunc = min((w for row in rows for x in row
                   if (w := x.global_window()) is not None), default=8)
    if isinstance(sample, CrossedElement):
        ctx = ChainContext.crossed(sample.action, h_trunc=h_trunc,
                                   u_trunc=u_trunc)
        one = CrossedElement.one(sample.action, h_trunc)
    else:
        ctx = ChainContext.torus(sample.dim, h_trunc=h_trunc, u_trunc=u_trunc)
        one = TorusElement.one(sample.dim, h_trunc)
    for i in range(r):
        for j in range(r):
            diff = sum((rows[i][k].star(rows[k][j]) for k in range(1, r)),
                       rows[i][0].star(rows[0][j])) - rows[i][j]
            if not diff.is_zero():
                raise ValueError(
                    "matrix is not idempotent: (E*E - E) is nonzero at "
                    f"entry ({i}, {j}): {diff!r}")
    # the terms of each letter (0 the unit, 1 the idempotent) by matrix
    # entry, at slot 0 and at the later slots
    first = ([[_entry_terms(one) if i == j else [] for j in range(r)]
              for i in range(r)],
             [[_entry_terms(rows[i][j]) for j in range(r)] for i in range(r)])
    later = first
    if normalized:
        scalar = _unit_label(ctx)
        later = tuple([[[t for t in cell if t[0] != scalar] for cell in row]
                       for row in grid] for grid in first)
    # letters with no term after slot 0 (the unit, when normalized)
    void = {x for x, grid in enumerate(later) if not any(map(any, grid))}
    sums = _Accumulator()

    def walk(word, n, q, i0, i, labels, path):
        slot = len(labels)
        grid = (later if slot else first)[word[slot]]
        if slot < len(word) - 1:
            for j in range(r):
                for lab, f in grid[i][j]:
                    walk(word, n, q, i0, j, labels + [lab],
                         f if path is None else path.times(f))
            return
        for lab, f in grid[i][i0]:
            key = (tuple(labels) + (lab,), n)
            if path is None:
                sums.add(key, f, None, q.numerator, q.denominator)
            else:
                sums.add(key, path, f, q.numerator, q.denominator)

    for n in range(u_trunc + 1):
        for word, q in chern_coefficients(n).items():
            if void.intersection(word[1:]):
                continue
            for i0 in range(r):
                walk(word, n, q, i0, i0, [], None)
    walk = None                 # the recursive closure holds the sums
    return CyclicChain(ctx, {word: ULaurent(u_trunc, {n: h})
                             for (word, n), h in sums.freeze().items()})
