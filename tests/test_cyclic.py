import hashlib
import random
from fractions import Fraction
from functools import partial

import pytest

from starchain.groups import CyclicGroup
from starchain.scalars import HbarLaurent, ULaurent, to_text
from starchain.torus import CrossedElement, TorusElement, TranslationAction
from starchain.cyclic import (
    ChainContext,
    CyclicChain,
    EquivariantChain,
    _raw_terms,
    _translate,
    alexander_whitney,
    chern_character,
    chern_coefficients,
    chern_word_chain,
    coinvariants_to_homogeneous,
    d_map,
    derive_chern_coefficients,
    equivariant_embed,
    homogeneous_projection,
    homogeneous_to_coinvariants,
    q_map,
)

H, U = 3, 2

Z_ACT = TranslationAction(1, CyclicGroup(), (Fraction(1, 3), Fraction(1, 5)))
TW_ACT = TranslationAction(1, CyclicGroup(), (Fraction(1, 3), Fraction(1, 5)),
                           (1, 2))
FIN_ACT = TranslationAction(1, CyclicGroup(4), (Fraction(1, 4), Fraction(1, 2)))

CTXS = [
    ("torus", ChainContext.torus(1, h_trunc=H, u_trunc=U)),
    ("weyl", ChainContext.weyl(1, h_trunc=H, u_trunc=U)),
    ("sym", ChainContext.sym(1, h_trunc=H, u_trunc=U)),
    ("group-z", ChainContext.group_labels(CyclicGroup(), u_trunc=U)),
    ("group-z4", ChainContext.group_labels(CyclicGroup(4), u_trunc=U)),
    ("crossed-z", ChainContext.crossed(Z_ACT, h_trunc=H, u_trunc=U)),
    ("crossed-z4", ChainContext.crossed(FIN_ACT, h_trunc=H, u_trunc=U)),
    ("diag-honest-tw", ChainContext.diagonal(TW_ACT, H, U, coinvariant=False)),
    ("diag-coinv-z4", ChainContext.diagonal(FIN_ACT, H, U, coinvariant=True)),
    ("diag-coinv-tw", ChainContext.diagonal(TW_ACT, H, U, coinvariant=True)),
    ("idem", ChainContext.idem(u_trunc=U)),
]
CTX_IDS = [name for name, _ in CTXS]
CTX_ONLY = [ctx for _, ctx in CTXS]


def rand_scalar(ctx, rng):
    q = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2))
    hp = rng.randint(0, 1) if ctx.h_trunc > 0 else 0
    h = HbarLaurent.from_rational(q, ctx.h_trunc, hp)
    return ULaurent.from_hbar(h, ctx.u_trunc, rng.randint(0, 1))


def rand_mode(ctx, rng):
    return tuple(rng.randint(-1, 1) for _ in range(2 * ctx.dim))


def rand_key(ctx, rng, degree):
    k = ctx.kind
    if k == "torus":
        return tuple(rand_mode(ctx, rng) for _ in range(degree + 1))
    if k in ("weyl", "sym"):
        return tuple(
            (tuple(rng.randint(0, 1) for _ in range(ctx.dim)),
             tuple(rng.randint(0, 1) for _ in range(ctx.dim)))
            for _ in range(degree + 1))
    if k == "group":
        return tuple(ctx.group.sample(rng, 2) for _ in range(degree + 1))
    if k == "crossed":
        return tuple((rand_mode(ctx, rng), ctx.group.sample(rng, 2))
                     for _ in range(degree + 1))
    if k == "diag":
        modes = [rand_mode(ctx, rng) for _ in range(degree + 1)]
        return tuple(zip(modes, [ctx.group.sample(rng, 2)
                                 for _ in range(degree + 1)]))
    if k == "idem":
        return tuple(rng.randint(0, 1) for _ in range(degree + 1))
    raise AssertionError(k)


def rand_chain(ctx, rng, degree, terms=2):
    acc = CyclicChain.zero(ctx)
    for _ in range(terms):
        acc = acc + CyclicChain.word(ctx, rand_key(ctx, rng, degree),
                                     rand_scalar(ctx, rng))
    return acc


def at_u0(x):
    """x on a copy of its context at u window 0, each word's lowest u term
    moved to u^0.  There the mixed boundary b + uB is the Hochschild one,
    since every uB term lands at u^1 and is cut; a u^-1 term would let uB
    reach u^0."""
    coeffs = {k: ULaurent(0, {0: v.coeffs[v.low]})
              for k, v in x.coeffs.items()}
    ctx = x.inner_ctx if isinstance(x, EquivariantChain) else x.ctx
    ctx0 = ChainContext(ctx.kind, ctx.dim, ctx.group, ctx.action,
                        ctx.h_trunc, 0, ctx.coinvariant)
    if isinstance(x, EquivariantChain):
        return EquivariantChain(ctx0, x.action, x.homogeneous, coeffs,
                                x.normalized)
    return CyclicChain(ctx0, coeffs)


# -- the simplicial and cyclic operator relations --------------------------

@pytest.mark.parametrize("ctx", CTX_ONLY, ids=CTX_IDS)
def test_operator_relations(ctx):
    rng = random.Random(20260822)
    n = 2
    x = rand_chain(ctx, rng, n, terms=2)
    assert not x.is_zero()

    for j in range(1, n + 1):
        for i in range(j):
            assert x.face(j).face(i) == x.face(i).face(j - 1)

    for j in range(n + 1):
        for i in range(j + 1):
            assert x.degeneracy(j).degeneracy(i) == \
                x.degeneracy(i).degeneracy(j + 1)

    for j in range(n + 1):
        for i in range(n + 2):
            y = x.degeneracy(j).face(i)
            if i < j:
                assert y == x.face(i).degeneracy(j - 1)
            elif i in (j, j + 1):
                assert y == x
            else:
                assert y == x.face(i - 1).degeneracy(j)

    assert x.rotate(n + 1) == x
    for i in range(n):
        assert x.rotate().face(i) == x.face(i + 1).rotate()
        assert x.rotate().degeneracy(i) == x.degeneracy(i + 1).rotate()
    assert x.rotate().face(n) == x.face(0)
    assert x.rotate().degeneracy(n) == x.degeneracy(0).rotate(2)


@pytest.mark.parametrize("ctx", CTX_ONLY, ids=CTX_IDS)
def test_boundary_operators_square_to_zero(ctx):
    rng = random.Random(77)
    for _ in range(3):
        x = rand_chain(ctx, rng, 2) + rand_chain(ctx, rng, 1)
        assert x.boundary().boundary().is_zero()
        assert x.connes_boundary().connes_boundary().is_zero()
        assert (x.boundary().connes_boundary()
                + x.connes_boundary().boundary()).is_zero()
        assert x.mixed_boundary().mixed_boundary().is_zero()


def test_non_scalar_coefficient_raises_type_error():
    ctx = ChainContext.torus(1, h_trunc=H, u_trunc=U)
    for bad in (1.5, "x"):
        with pytest.raises(TypeError):
            CyclicChain.word(ctx, ((1, 0),), bad)


def test_boundary_kills_degree_zero():
    ctx = ChainContext.torus(1, h_trunc=H, u_trunc=U)
    x = CyclicChain.word(ctx, ((1, 0),))
    assert x.boundary().is_zero()
    assert not x.connes_boundary().is_zero()


# -- crossed product against diagonal coinvariants -------------------------

def rand_identity_product_chain(ctx, rng, degree, terms=2):
    G = ctx.group
    acc = CyclicChain.zero(ctx)
    for _ in range(terms):
        labels = [G.sample(rng, 2) for _ in range(degree)]
        labels.append(G.inverse(G.compose_all(labels)))
        key = tuple((rand_mode(ctx, rng), g) for g in labels)
        acc = acc + CyclicChain.word(ctx, key, rand_scalar(ctx, rng))
    return acc


@pytest.mark.parametrize("act", [Z_ACT, TW_ACT, FIN_ACT],
                         ids=["z", "z-twisted", "z4"])
def test_identity_component_is_a_subcomplex(act):
    ctx = ChainContext.crossed(act, h_trunc=H, u_trunc=U)
    rng = random.Random(5150)
    for _ in range(3):
        x = rand_chain(ctx, rng, 2, terms=3)
        assert homogeneous_projection(x.boundary()) == \
            homogeneous_projection(x).boundary()
        assert homogeneous_projection(x.connes_boundary()) == \
            homogeneous_projection(x).connes_boundary()
        p = homogeneous_projection(x)
        assert homogeneous_projection(p) == p


@pytest.mark.parametrize("act", [Z_ACT, TW_ACT, FIN_ACT],
                         ids=["z", "z-twisted", "z4"])
def test_coinvariant_rewrite_roundtrip(act):
    xctx = ChainContext.crossed(act, h_trunc=H, u_trunc=U)
    dctx = ChainContext.diagonal(act, H, U, coinvariant=True)
    rng = random.Random(31330)
    for deg in (0, 1, 2):
        x = rand_identity_product_chain(xctx, rng, deg, terms=2)
        assert coinvariants_to_homogeneous(homogeneous_to_coinvariants(x)) == x
        f = rand_chain(dctx, rng, deg, terms=2)
        assert homogeneous_to_coinvariants(coinvariants_to_homogeneous(f)) == f


@pytest.mark.parametrize("act", [TW_ACT, FIN_ACT], ids=["z-twisted", "z4"])
def test_coinvariant_rewrite_commutes_with_every_operator(act):
    # the rewrite must be an isomorphism of the whole operator calculus,
    # not just of the boundaries
    xctx = ChainContext.crossed(act, h_trunc=H, u_trunc=U)
    rng = random.Random(24601)
    n = 2
    x = rand_identity_product_chain(xctx, rng, n, terms=2)
    fwd = homogeneous_to_coinvariants
    for i in range(n + 1):
        assert fwd(x.face(i)) == fwd(x).face(i)
        assert fwd(x.degeneracy(i)) == fwd(x).degeneracy(i)
    assert fwd(x.rotate()) == fwd(x).rotate()
    assert fwd(x.boundary()) == fwd(x).boundary()
    assert fwd(x.connes_boundary()) == fwd(x).connes_boundary()
    assert fwd(x.mixed_boundary()) == fwd(x).mixed_boundary()


# -- equivariant chains: free homotopy, splitting, coordinates -------------

def rand_coinv_inner_key(ctx, rng, degree):
    alg = tuple(rand_mode(ctx, rng) for _ in range(degree + 1))
    grp = (ctx.group.identity,) + tuple(ctx.group.sample(rng, 2)
                                        for _ in range(degree))
    return tuple(zip(alg, grp))


def rand_equivariant(ctx, act, rng, homogeneous, q, p, terms=2):
    out = {}
    G = act.group
    for _ in range(terms):
        if ctx.kind == "diag":
            ik = rand_coinv_inner_key(ctx, rng, q)
        else:
            ik = rand_key(ctx, rng, q)
        if homogeneous:
            gw = tuple(G.sample(rng, 2) for _ in range(p + 1))
        else:
            gw = tuple(rand_nonidentity(G, rng) for _ in range(p))
        out[(ik, gw)] = rand_scalar(ctx, rng)
    return EquivariantChain(ctx, act, homogeneous, out)


def rand_nonidentity(G, rng):
    if G.order is None:
        return rng.choice([-2, -1, 1, 2])
    return rng.randrange(1, G.order)


@pytest.mark.parametrize("act", [TW_ACT, FIN_ACT], ids=["z-twisted", "z4"])
def test_free_homotopy_identity(act):
    dctx = ChainContext.diagonal(act, H, U, coinvariant=True)
    rng = random.Random(8128)
    for p in (1, 2):
        x = rand_equivariant(dctx, act, rng, True, q=1, p=p)
        back = x.prepend_unit().group_boundary() \
            + x.group_boundary().prepend_unit()
        assert back == x
    # in group-word degree zero the defect is the class at the identity
    ik = rand_coinv_inner_key(dctx, rng, 1)
    g = rand_nonidentity(act.group, rng)
    x = EquivariantChain(dctx, act, True, {(ik, (g,)): dctx.one()})
    defect = x - x.prepend_unit().group_boundary()
    assert defect == EquivariantChain(dctx, act, True,
                                      {(ik, (act.group.identity,)):
                                       dctx.one()})


@pytest.mark.parametrize("act", [TW_ACT, FIN_ACT], ids=["z-twisted", "z4"])
@pytest.mark.parametrize("homogeneous", [True, False], ids=["homog", "nonhom"])
def test_equivariant_total_boundary_squares_to_zero(act, homogeneous):
    rng = random.Random(1729)
    if homogeneous:
        ctx = ChainContext.diagonal(act, H, U, coinvariant=True)
    else:
        ctx = ChainContext.torus(1, h_trunc=H, u_trunc=U)
    for q, p in ((1, 1), (2, 2), (0, 2)):
        x = rand_equivariant(ctx, act, rng, homogeneous, q=q, p=p)
        for y in (at_u0(x), x):             # Hochschild, then mixed
            assert y.total_boundary().total_boundary().is_zero()
        assert x.group_boundary().group_boundary().is_zero()


@pytest.mark.parametrize("act", [TW_ACT, FIN_ACT], ids=["z-twisted", "z4"])
def test_group_coordinate_change_roundtrips(act):
    tctx = ChainContext.torus(1, h_trunc=H, u_trunc=U)
    rng = random.Random(40902)
    for q, p in ((0, 1), (1, 2), (2, 0)):
        y = rand_equivariant(tctx, act, rng, False, q=q, p=p)
        assert y.to_homogeneous().to_nonhomogeneous() == y
        x = rand_equivariant(tctx, act, rng, True, q=q, p=p)
        z = x.to_nonhomogeneous()
        assert z.to_homogeneous().to_nonhomogeneous() == z


@pytest.mark.parametrize("act", [TW_ACT, FIN_ACT], ids=["z-twisted", "z4"])
def test_group_coordinate_change_is_a_chain_map(act):
    tctx = ChainContext.torus(1, h_trunc=H, u_trunc=U)
    rng = random.Random(60902)
    for q, p in ((1, 1), (1, 2), (2, 1)):
        x = rand_equivariant(tctx, act, rng, True, q=q, p=p)
        for y in (at_u0(x), x):             # Hochschild, then mixed
            assert y.total_boundary().to_nonhomogeneous() == \
                y.to_nonhomogeneous().total_boundary()


@pytest.mark.parametrize("act", [Z_ACT, TW_ACT, FIN_ACT],
                         ids=["z", "z-twisted", "z4"])
def test_splitting_is_a_chain_map(act):
    dctx = ChainContext.diagonal(act, H, U, coinvariant=True)
    rng = random.Random(280)
    for deg in (1, 2):
        f = rand_chain(dctx, rng, deg, terms=2)
        f0 = at_u0(f)                       # the Hochschild splitting
        assert q_map(f0).total_boundary() == q_map(f0.boundary())
        assert q_map(f).total_boundary() == q_map(f.mixed_boundary())


def test_splitting_sections_the_projection():
    # the group-degree-zero part of the split chain is the canonical lift
    dctx = ChainContext.diagonal(TW_ACT, H, U, coinvariant=True)
    rng = random.Random(433494437)
    f = rand_chain(dctx, rng, 1, terms=2) + rand_chain(dctx, rng, 2)
    out = q_map(f)
    head = EquivariantChain(dctx, TW_ACT, True,
                            {k: v for k, v in out.coeffs.items()
                             if len(k[1]) == 1})
    assert head == equivariant_embed(f)


# -- the inner boundary against a per-term reference ------------------------
#
# inner_boundary applies a plan built once per inner word on the inner
# context; CyclicChain.boundary takes the raw faces of each word.  The
# reference below expands every term on its own: the raw faces and
# degree-raising terms of the inner word times the term's coefficient,
# then each output moved to its representative and the group word
# left-translated.  `_exact` also compares the u and hbar windows,
# which chain equality reads through the smaller window: the plan must
# leave every coefficient known through exactly the reference's powers.

def reference_inner_boundary(x, mode):
    ctx, act = x.inner_ctx, x.action
    G = act.group
    canon = ctx.kind == "diag" and ctx.coinvariant
    out = {}
    for (ik, gw), c in x.coeffs.items():
        for k2, sign, s, shift in _raw_terms(ctx, ik, mode):
            v = c * sign if s is None else c * sign * s.series
            if shift:
                v = v.shift(shift).truncate(ctx.u_trunc)
            gw2 = gw
            if canon and not G.is_identity(k2[0][1]):
                g = k2[0][1]
                k2, phase = _translate(ctx, act, g, k2)
                v = v * phase
                gw2 = tuple(G.compose(G.inverse(g), h) for h in gw)
            key = (k2, gw2)
            out[key] = v if key not in out else out[key] + v
    return EquivariantChain(ctx, act, x.homogeneous, out)


def _exact(chain):
    return {k: (v.trunc, {e: h.trunc for e, h in v.coeffs.items()})
            for k, v in chain.coeffs.items()}


def assert_matches_reference(x, mode):
    got, want = x.inner_boundary(), reference_inner_boundary(x, mode)
    assert got == want
    assert _exact(got) == _exact(want)


def reference_boundary(w):
    """b of a chain, summed word by word from the raw faces."""
    out = CyclicChain.zero(w.ctx)
    for k, c in w.coeffs.items():
        for k2, sign, s, _ in _raw_terms(w.ctx, k, "hochschild"):
            v = c * sign if s is None else c * sign * s.series
            out = out + CyclicChain(w.ctx, {k2: v})
    return out


def assert_plans_match(x, steps):
    """The inner boundary of x against the reference in each step.  The
    mixed step checks x and at_u0(x); the Hochschild step checks at_u0(x),
    where the inner boundary is b, after taking b of its inner words on
    the same context (CyclicChain.boundary), which builds no plans."""
    x0 = at_u0(x)
    for mode in steps:
        if mode == "hochschild":
            words = CyclicChain(x0.inner_ctx, {ik: x0.inner_ctx.one()
                                               for ik, _ in x0.coeffs})
            assert words.boundary() == reference_boundary(words)
            assert_matches_reference(x0, "hochschild")
        else:
            assert_matches_reference(x, "mixed")
            assert_matches_reference(x0, "mixed")


def shared_inner_words(ctx, act, rng, homogeneous, inner_keys, words=3):
    """An equivariant chain in which each inner key carries several group
    words with non-identity labels."""
    G = act.group
    out = {}
    for ik in inner_keys:
        for _ in range(words):
            n = 2 if homogeneous else 1
            gw = tuple(rand_nonidentity(G, rng) for _ in range(n))
            out[(ik, gw)] = rand_scalar(ctx, rng)
    return EquivariantChain(ctx, act, homogeneous, out)


@pytest.mark.parametrize("act", [Z_ACT, TW_ACT, FIN_ACT],
                         ids=["z", "z-twisted", "z4"])
@pytest.mark.parametrize("order", [("hochschild", "mixed"),
                                   ("mixed", "hochschild")],
                         ids=["hochschild-first", "mixed-first"])
def test_inner_boundary_plan_matches_reference(act, order):
    # coinvariant diagonal inner words whose faces and degree-raising
    # terms leave non-identity first group labels, so most outputs move
    # to a representative and left-translate the group word
    rng = random.Random(9973)
    G = act.group
    dctx = ChainContext.diagonal(act, H, U, coinvariant=True)
    keys = [rand_coinv_inner_key(dctx, rng, q) for q in (0, 1, 2, 2)]
    keys.append(tuple(zip(((1, 0), (0, 1), (1, 1)),
                          (G.identity, rand_nonidentity(G, rng),
                           G.identity))))
    x = shared_inner_words(dctx, act, rng, True, keys)
    # both faces of this word reach one target, with star phases whose
    # constant terms cancel: their sum starts one hbar power above them.
    # On a coefficient that starts at hbar^1 each face's product is known
    # through hbar^H, but the product of their sum through hbar^(H + 1).
    cancel = (((1, 0), G.identity), ((0, 1), G.identity))
    (k0, sg0, s0, _), (k1, sg1, s1, _) = _raw_terms(dctx, cancel,
                                                    "hochschild")
    both = s0.series * sg0 + s1.series * sg1
    assert k0 == k1 and both.low > min(s0.low, s1.low)
    gw = (rand_nonidentity(G, rng), rand_nonidentity(G, rng))
    c = ULaurent.from_hbar(HbarLaurent.from_rational(1, H, 1), U)
    x = x + EquivariantChain(dctx, act, True, {(cancel, gw): c})
    assert_plans_match(x, order + order)    # the second pass reuses plans


@pytest.mark.parametrize("act", [Z_ACT, FIN_ACT], ids=["z", "z4"])
@pytest.mark.parametrize("order", [("hochschild", "mixed"),
                                   ("mixed", "hochschild")],
                         ids=["hochschild-first", "mixed-first"])
def test_inner_boundary_plan_on_torus_words(act, order):
    # alexander_whitney of words with one algebra word and several group
    # words: every front face is an inner word shared by several group words
    rng = random.Random(271828)
    ctx = ChainContext.diagonal(act, H, U, coinvariant=False)
    G = act.group
    x = CyclicChain.zero(ctx)
    for deg in (1, 2):
        alg = tuple(rand_mode(ctx, rng) for _ in range(deg + 1))
        for _ in range(3):
            grp = tuple(G.sample(rng, 2) for _ in range(deg + 1))
            x = x + CyclicChain.word(ctx, tuple(zip(alg, grp)),
                                     rand_scalar(ctx, rng))
    t = alexander_whitney(x)
    assert len({ik for ik, _ in t.coeffs}) < len(t.coeffs)
    assert_plans_match(t, order + order)


@pytest.mark.parametrize("field", ["h_trunc", "u_trunc"])
def test_inner_boundary_plans_stay_with_their_context(field):
    # one inner word on contexts that differ only in one window, the
    # narrower first: each result must carry its own context's windows
    ik = (((1, 0), 0), ((0, 1), 1), ((-1, 1), 3))
    for act in (TW_ACT, FIN_ACT):
        for trunc in (1, 3, 2):
            windows = {"h_trunc": H, "u_trunc": U, field: trunc}
            ctx = ChainContext.diagonal(act, windows["h_trunc"],
                                        windows["u_trunc"], coinvariant=True)
            rng = random.Random(trunc)
            x = shared_inner_words(ctx, act, rng, True, [ik])
            assert_plans_match(x, ("mixed", "hochschild"))


def test_splitting_of_zero_is_zero():
    dctx = ChainContext.diagonal(Z_ACT, H, U, coinvariant=True)
    assert q_map(CyclicChain.zero(dctx)).is_zero()


# -- front/back splitting of honest diagonal chains ------------------------

@pytest.mark.parametrize("act", [Z_ACT, FIN_ACT], ids=["z", "z4"])
def test_front_back_splitting_is_a_chain_map(act):
    ctx = ChainContext.diagonal(act, H, U, coinvariant=False)
    rng = random.Random(3435)
    for deg in (1, 2, 3):
        x = at_u0(rand_chain(ctx, rng, deg, terms=2))
        assert alexander_whitney(x.boundary()) == \
            alexander_whitney(x).total_boundary()


@pytest.mark.parametrize("act", [Z_ACT, FIN_ACT], ids=["z", "z4"])
def test_capped_splitting_forgets_the_group_word(act):
    """Evaluating the single-slot part of each group word of the
    splitting at 1 recovers the algebra half of the diagonal chain."""
    ctx = ChainContext.diagonal(act, H, U, coinvariant=False)
    tctx = ctx.as_torus()
    rng = random.Random(65537)
    for deg in (0, 1, 2):
        x = rand_chain(ctx, rng, deg, terms=3)
        capped = alexander_whitney(x)._map(
            lambda k, v: [(k[0], 1, None, 0)] if len(k[1]) == 1 else [],
            partial(CyclicChain, tctx))
        algebra = x._map(lambda k, v: [(tuple(m for m, _ in k), 1, None, 0)],
                         partial(CyclicChain, tctx))
        assert capped == algebra


# -- the localisation composite --------------------------------------------

@pytest.mark.parametrize("act", [TW_ACT, FIN_ACT], ids=["z-twisted", "z4"])
def test_localisation_is_a_chain_map(act):
    xctx = ChainContext.crossed(act, h_trunc=H, u_trunc=U)
    rng = random.Random(1009)
    for deg in (1, 2):
        c = rand_identity_product_chain(xctx, rng, deg, terms=2)
        assert d_map(c.mixed_boundary()) == d_map(c).total_boundary()
        c0 = at_u0(c)                       # the Hochschild localisation
        assert d_map(c0.boundary()) == d_map(c0).total_boundary()


def test_localisation_reuses_the_plans_of_its_context():
    # every d_map of a chain on one crossed context splits on the same
    # derived diagonal context, so a second call plans no inner word again
    xctx = ChainContext.crossed(TW_ACT, h_trunc=H, u_trunc=U)
    c = rand_identity_product_chain(xctx, random.Random(4099), 1)
    first = d_map(c)
    plans = xctx.as_diagonal()._plans
    built = len(plans)
    assert built > 0
    assert d_map(c) == first
    assert len(plans) == built


def test_localisation_of_plain_element():
    # an element with the trivial group label lands as itself in group
    # word length zero, nothing else
    for act in (Z_ACT, FIN_ACT):
        xctx = ChainContext.crossed(act, h_trunc=H, u_trunc=U)
        tctx = ChainContext.torus(1, h_trunc=H, u_trunc=U)
        m = (1, -1)
        c = CyclicChain.word(xctx, ((m, act.group.identity),))
        want = EquivariantChain(tctx, act, False, {((m,), ()): tctx.one()})
        assert d_map(c) == want


def test_localisation_degree_one_component():
    # pin the group-degree-1, word-degree-0 component of the image of
    # a_0 u_g (x) a_1 u_{-g}: computed by hand through the splitting
    # series, it is -(a_0 * g(a_1)) placed at the single group leg g
    act = TW_ACT
    g = 2
    m0, m1 = (1, 0), (0, 1)
    xctx = ChainContext.crossed(act, h_trunc=H, u_trunc=U)
    tctx = ChainContext.torus(1, h_trunc=H, u_trunc=U)
    c = CyclicChain.word(xctx, ((m0, g), (m1, act.group.inverse(g))))
    out = d_map(c)
    part = EquivariantChain(tctx, act, False,
                            {k: v for k, v in out.coeffs.items()
                             if len(k[0]) == 1 and len(k[1]) == 1})
    a0 = TorusElement.plane_wave(1, m0, H)
    a1 = TorusElement.plane_wave(1, m1, H)
    w = a0.star(act.apply(g, a1))
    want = EquivariantChain(
        tctx, act, False,
        {((mm,), (g,)): -ULaurent.from_hbar(hl, U)
         for mm, hl in w.coeffs.items()})
    assert part == want


# -- the levels the split maps produce --------------------------------------
#
# Chain equality embeds both sides at a common level, so it cannot see the
# cyclotomic level an operator leaves its coefficients at, and the reports
# see one only where a value is printed.  These records pin the printed
# form and the level of every coefficient of q_map(f) and d_map(c) on one
# fixed degree-1 word each (term count, levels met, digest of the sorted
# "key | to_text | levels" lines).  A change in one means that an operator
# changed the order or the arithmetic of its terms.

SPLIT_LEVELS = {
    ("z-twisted", "q"): (23, [4, 60], "91e7c1ed51a29aec"),
    ("z-twisted", "d"): (7, [12, 60], "996935831d8a69a1"),
    ("z4", "q"): (23, [4, 16], "9eb126cba7e5a6f4"),
    ("z4", "d"): (7, [16], "3be3106217ea3c06"),
}


def _halves(key):
    """A split word with its diagonal inner word written as (modes,
    labels), the form in which the q digests are pinned."""
    ik, gw = key
    return (tuple(m for m, _ in ik), tuple(g for _, g in ik)), gw


def _level_record(chain, form=None):
    levels = set()
    lines = []
    for key, v in chain.coeffs.items():
        lv = sorted({fe.level for h in v.coeffs.values()
                     for fe in h.coeffs.values()})
        levels.update(lv)
        lines.append(f"{key if form is None else form(key)!r} | "
                     f"{to_text(v)} | {lv}")
    blob = "\n".join(sorted(lines)).encode()
    return len(lines), sorted(levels), hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("act", [TW_ACT, FIN_ACT], ids=["z-twisted", "z4"])
def test_split_maps_keep_their_levels(act):
    name = "z4" if act is FIN_ACT else "z-twisted"
    G = act.group
    dctx = ChainContext.diagonal(act, 1, 1, coinvariant=True)
    xctx = ChainContext.crossed(act, h_trunc=1, u_trunc=1)
    f = CyclicChain.word(dctx, (((1, 0), G.identity), ((0, 1), 1)))
    c = CyclicChain.word(xctx, (((1, 0), 1), ((0, 1), G.inverse(1))))
    assert _level_record(q_map(f), _halves) == SPLIT_LEVELS[(name, "q")]
    assert _level_record(d_map(c)) == SPLIT_LEVELS[(name, "d")]


# -- idempotent character --------------------------------------------------

def test_character_table_matches_fresh_derivation():
    fresh = derive_chern_coefficients(3)
    for n in range(4):
        assert chern_coefficients(n) == fresh[n]


def test_character_blocks_solve_the_descent_recursion():
    ctx = ChainContext.idem(u_trunc=4)
    tabs = derive_chern_coefficients(4)

    def blk(n):
        return CyclicChain(
            ctx, {w: ULaurent.from_hbar(HbarLaurent.from_rational(q, 0), 4)
                  for w, q in tabs[n].items()})

    for n in range(1, 5):
        assert blk(n).boundary() == -(blk(n - 1).connes_boundary())
    assert blk(0).boundary().is_zero()


def test_character_word_chain_is_closed():
    for trunc in range(4):
        assert chern_word_chain(trunc).mixed_boundary().is_zero()


def test_character_blocks_beyond_window_rejected():
    with pytest.raises(ValueError):
        chern_coefficients(6)
    with pytest.raises(ValueError):
        chern_word_chain(6)


def test_matrix_character_over_torus():
    one = TorusElement.one(1, H)
    zero = TorusElement.zero(1)
    wave = TorusElement.plane_wave(1, (1, 0), H)
    E = [[one, wave], [zero, zero]]
    ch = chern_character(E, U)
    assert ch.mixed_boundary().is_zero()
    # degree-zero block is the matrix trace of E placed in single slots
    deg0 = {k: v for k, v in ch.coeffs.items() if len(k) == 1}
    want = {(m,): ULaurent.from_hbar(hl, U)
            for m, hl in one.coeffs.items()}
    assert CyclicChain(ch.ctx, deg0) == CyclicChain(ch.ctx, want)


def test_matrix_character_over_crossed_product():
    act = FIN_ACT
    one = CrossedElement.one(act, H)
    zero = CrossedElement(act, {})
    a = CrossedElement(act, {1: TorusElement.plane_wave(1, (0, 1), H)})
    E = [[one, a], [zero, zero]]
    ch = chern_character(E, U)
    assert ch.ctx.kind == "crossed"
    assert ch.mixed_boundary().is_zero()
    deg0 = {k: v for k, v in ch.coeffs.items() if len(k) == 1}
    want = {((m, 0),): ULaurent.from_hbar(hl, U)
            for g, tor in one.coeffs.items() for m, hl in tor.coeffs.items()}
    assert CyclicChain(ch.ctx, deg0) == CyclicChain(ch.ctx, want)


def test_matrix_character_rejects_non_idempotents():
    one = TorusElement.one(1, H)
    zero = TorusElement.zero(1)
    wave = TorusElement.plane_wave(1, (1, 0), H)
    bad = [[one, wave], [zero, one]]
    with pytest.raises(ValueError, match=r"entry \(0, 1\)"):
        chern_character(bad, U)
    with pytest.raises(ValueError):
        chern_character([[one, wave]], U)
