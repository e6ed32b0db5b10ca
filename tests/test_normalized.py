"""The normalized complexes against the full ones.

`d_map` splits in the normalized bar complex (q_map with normalized=True)
and `index_check` pairs the normalized character (chern_character with
normalized=True).  Both quotients are exact for what reads them, so these
tests hold each normalized route to the full route it replaces,
coefficient by coefficient: keys, printed form, u and hbar windows and
cyclotomic levels.  The full routes keep their own laws here and in
test_cyclic.py (test_splitting_is_a_chain_map).
"""

import json
import os
import random
from fractions import Fraction

import pytest

from starchain.cyclic import (ChainContext, CyclicChain, EquivariantChain,
                              chern_character, d_map, equivariant_embed,
                              homogeneous_projection,
                              homogeneous_to_coinvariants, q_map)
from starchain.group_coh import (GroupCochain, TraceFunctional,
                                 equivariant_ahat, equivariant_theta,
                                 phi_pair, trace_pair)
from starchain.groups import CyclicGroup
from starchain.scalars import ULaurent, to_text
from starchain.scenarios import (ScenarioConfig, _identity_words,
                                 _rand_chain, _slot_words)
from starchain.torus import TranslationAction

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")


def config(name, **overrides):
    with open(os.path.join(CONFIGS, name + ".json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data.update(overrides)
    return ScenarioConfig.from_dict(data)


def record(chain):
    """{key: (printed form, u window, hbar windows, levels)} of every
    coefficient: chain equality cannot see windows or levels, and the
    reports print them."""
    return {key: (to_text(v), v.trunc,
                  tuple(sorted((p, h.trunc) for p, h in v.coeffs.items())),
                  tuple(sorted({fe.level for h in v.coeffs.values()
                                for fe in h.coeffs.values()})))
            for key, v in chain.coeffs.items()}


def at_u0(x):
    """A coinvariant chain on a copy of its context at u window 0, each
    word's lowest u term moved to u^0: there b + uB is b, since every uB
    term lands at u^1 and is cut."""
    ctx = x.ctx
    return CyclicChain(ChainContext.diagonal(ctx.action, ctx.h_trunc, 0),
                       {k: ULaurent(0, {0: v.coeffs[v.low]})
                        for k, v in x.coeffs.items()})


def degenerate(chain):
    """The words of a homogeneous equivariant chain with two equal
    adjacent group labels."""
    G = chain.action.group
    return {key for key in chain.coeffs
            if any(G.normalize(a) == G.normalize(b)
                   for a, b in zip(key[1], key[1][1:]))}


def drop_group_half(x):
    """A homogeneous chain over diagonal inner words relabelled ((m_0,
    g_0), ...) -> (m_0, ...) with a plain dict, the words that meet
    summed, as a chain over the torus words of the inner context."""
    out = {}
    for (ik, gw), v in x.coeffs.items():
        key = (tuple(m for m, _ in ik), gw)
        out[key] = v if key not in out else out[key] + v
    return EquivariantChain(x.inner_ctx.as_torus(), x.action, True, out,
                            x.normalized)


def full_d_map(c):
    """d_map's composite through the full q_map, the group half of its
    inner words dropped before the conversion."""
    f = homogeneous_to_coinvariants(homogeneous_projection(c))
    return drop_group_half(q_map(f)).to_nonhomogeneous()


# -- the normalized bar complex in the splitting ----------------------------

@pytest.mark.parametrize("name", ["default", "twisted", "order4", "dim2"])
def test_normalized_localisation_matches_the_full_split(name):
    # 16 chains per config, each taken with its mixed boundary too: every
    # coefficient of d_map must be the one the full split gives
    cfg = config(name, h_trunc=1, u_trunc=1)
    ctx = ChainContext.crossed(cfg.action(), h_trunc=cfg.h_trunc,
                               u_trunc=cfg.u_trunc)
    rng = random.Random(cfg.seed)
    for i in range(16):
        draw = _identity_words if i % 4 else _slot_words
        x = _rand_chain(rng, ctx, draw(rng, ctx, rng.choice([0, 1, 2])))
        for c in (x, x.mixed_boundary()):
            assert record(d_map(c)) == record(full_d_map(c))


@pytest.mark.parametrize("name", ["twisted", "order4"])
def test_normalized_split_is_the_projection_of_the_full_one(name):
    cfg = config(name, h_trunc=2, u_trunc=1)
    xctx = ChainContext.crossed(cfg.action(), h_trunc=cfg.h_trunc,
                                u_trunc=cfg.u_trunc)
    rng = random.Random(cfg.seed)
    for deg in (0, 1, 2):
        x = _rand_chain(rng, xctx, _identity_words(rng, xctx, deg))
        f = homogeneous_to_coinvariants(x)
        full, norm = q_map(f), q_map(f, normalized=True)
        kept = {k: v for k, v in record(full).items()
                if k not in degenerate(full)}
        assert record(norm) == kept
        assert not degenerate(norm)
        # the chain-map law in the normalized complex, Hochschild (at u
        # window 0, u^0 coefficients only) and mixed
        f0 = at_u0(f)
        assert q_map(f0, normalized=True).total_boundary() == \
            q_map(f0.boundary(), normalized=True)
        assert q_map(f, normalized=True).total_boundary() == \
            q_map(f.mixed_boundary(), normalized=True)


@pytest.mark.parametrize("name", ["default", "twisted", "order4"])
def test_conversion_forgets_the_group_half_in_one_map(name):
    # to_nonhomogeneous on diagonal inner words against dropping their
    # group half first, on the full and the normalized split
    cfg = config(name, h_trunc=2, u_trunc=1)
    xctx = ChainContext.crossed(cfg.action(), h_trunc=cfg.h_trunc,
                                u_trunc=cfg.u_trunc)
    rng = random.Random(cfg.seed)
    for deg in (0, 1, 2):
        x = _rand_chain(rng, xctx, _identity_words(rng, xctx, deg))
        f = homogeneous_to_coinvariants(x)
        # each algebra word again under another group half, so that words
        # meet once the group half is dropped
        G = f.ctx.group
        f = f + CyclicChain(f.ctx, {
            key[:1] + tuple((m, G.compose(g, 1)) for m, g in key[1:]): v
            for key, v in f.coeffs.items()})
        for normalized in (False, True):
            split = q_map(f, normalized=normalized)
            got = split.to_nonhomogeneous()
            want = drop_group_half(split).to_nonhomogeneous()
            assert got.inner_ctx is f.ctx.as_torus()
            assert list(got.coeffs) == list(want.coeffs)
            assert record(got) == record(want)


def test_unreduced_labels_are_one_element():
    # Z/4 labels may arrive unreduced: -1 and 3 are one element, so a word
    # with them adjacent is degenerate
    act = TranslationAction(1, CyclicGroup(4),
                            (Fraction(1, 4), Fraction(1, 2)))
    dctx = ChainContext.diagonal(act, 1, 1)
    ik = (((1, 0), 0),)
    one = dctx.one()
    for gw, kept in (((0, -1, 3), False), ((0, 3, -1), False),
                     ((0, -1, 2), True), ((5, 1), False), ((1,), True)):
        norm = EquivariantChain(dctx, act, True, {(ik, gw): one},
                                normalized=True)
        assert norm.is_zero() is not kept, gw
        full = EquivariantChain(dctx, act, True, {(ik, gw): one})
        assert not full.is_zero()


def test_full_and_normalized_chains_do_not_mix():
    cfg = config("default", h_trunc=1, u_trunc=0)
    dctx = ChainContext.diagonal(cfg.action(), cfg.h_trunc, cfg.u_trunc)
    f = CyclicChain.word(dctx, (((1, 0), 0), ((0, 1), 1)))
    full, norm = equivariant_embed(f), equivariant_embed(f, normalized=True)
    assert norm.normalized and not full.normalized
    assert norm.total_boundary().normalized
    with pytest.raises(ValueError, match="normalized"):
        full + norm
    with pytest.raises(ValueError, match="normalized"):
        norm == full


# -- the normalized character -----------------------------------------------

def scalar_slot_words(chain):
    """The words of a torus or crossed chain with a scalar letter (mode 0,
    and the identity label on crossed words) after slot 0."""
    ctx = chain.ctx
    if ctx.kind == "crossed":
        def scalar(lab):
            return not any(lab[0]) and ctx.group.is_identity(lab[1])
    else:
        def scalar(lab):
            return not any(lab)
    return {k for k in chain.coeffs if any(map(scalar, k[1:]))}


CHARACTERS = [
    ("default", {}),
    ("order4", {}),
    ("dim2", {"h_trunc": 1}),
    ("crossed", {}),
    ("twisted", {"idempotent": "crossed-conjugated"}),
]


def characters(name, overrides):
    cfg = config(name, **dict({"h_trunc": 2, "u_trunc": 2}, **overrides))
    matrix = cfg.idempotent_matrix()
    return (cfg, chern_character(matrix, cfg.u_trunc),
            chern_character(matrix, cfg.u_trunc, normalized=True))


@pytest.mark.parametrize("name,overrides", CHARACTERS,
                         ids=[n for n, _ in CHARACTERS])
def test_normalized_character_drops_only_scalar_slots(name, overrides):
    _, full, norm = characters(name, overrides)
    dropped = scalar_slot_words(full)
    assert dropped and not scalar_slot_words(norm)
    assert record(norm) == {k: v for k, v in record(full).items()
                            if k not in dropped}
    # a cycle of the normalized mixed complex, though not word for word
    boundary = norm.mixed_boundary()
    assert not boundary.is_zero()
    assert scalar_slot_words(boundary) == set(boundary.coeffs)


@pytest.mark.parametrize("name,overrides", CHARACTERS,
                         ids=[n for n, _ in CHARACTERS])
def test_every_pairing_reads_the_normalized_character(name, overrides):
    cfg, full, norm = characters(name, overrides)
    act = cfg.action()
    classes = equivariant_ahat(act, cfg.h_trunc).cup(
        equivariant_theta(act, cfg.h_trunc).exponential())
    G = cfg.group()
    cochains = [GroupCochain.constant(G, 1)]
    if G.order is None:
        cochains += [GroupCochain.polynomial(G, 1, {(1,): 1}),
                     GroupCochain.polynomial(G, 2, {(1, 1): 1})]
    pairings = [trace_pair]
    for xi in cochains:
        pairings.append(lambda ch, xi=xi: phi_pair(classes, xi, ch))
        if full.ctx.kind == "crossed":
            pairings.append(TraceFunctional(xi).pair)
    for pair in pairings:
        assert repr(pair(norm)) == repr(pair(full))
