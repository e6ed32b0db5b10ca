"""Fixed-input microbenchmarks of single layers, timed with warm caches.

starchain is imported inside run(), so run.py can read UNITS without it.

Inputs do not depend on the workload seed.  The large ones assert their
output sizes, so the inputs cannot silently shrink.
"""

import statistics
import time
from fractions import Fraction

# Output sizes on the full-size inputs (the default config).
Q_MAP_WORDS = 3244
CHERN_WORDS = 5706

UNITS = {
    "micro.field_mul_us": "us",
    "micro.field_add_us": "us",
    "micro.hbar_mul_us": "us",
    "micro.torus_star_us": "us",
    "micro.crossed_star_us": "us",
    "micro.weyl_star_us": "us",
    "micro.mixed_boundary_ms": "ms",
    "micro.q_map_s": "s",
    "micro.chern_character_s": "s",
    "micro.phi_pair_s": "s",
}


def _per_call(fn, batch_s=0.02, batches=7):
    """Median seconds per call of fn() over `batches` timed batches, after
    one untimed batch that fills the caches."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= batch_s:
            break
        n *= 2
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


def _once(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def run(overrides=None, batch_s=0.02):
    """All microbenchmarks on configs/default.json with `overrides`;
    returns {metric name: value in its unit}.  Without overrides it also
    asserts the output sizes of the large inputs.  `batch_s` is the
    shortest timed batch of the small ones."""
    from starchain import (CrossedElement, CyclicChain, FieldElement,
                           GroupCochain, HbarLaurent, TorusElement, ULaurent,
                           WeylElement, equivariant_ahat, equivariant_theta,
                           phi_pair)
    from starchain.cyclic import (ChainContext, chern_character,
                                  homogeneous_to_coinvariants, q_map)
    from workloads import SPLIT_SHAPES, _split_chain, config

    def field(level, terms):
        return FieldElement(level, {(a, b): Fraction(n, d)
                                    for a, b, n, d in terms})

    cfg = config(0, **(overrides or {}))
    h, u, lev = cfg.h_trunc, cfg.u_trunc, cfg.level
    out = {}

    x = field(lev, [(0, 0, 1, 2), (3, 0, -2, 3), (7, 1, 5, 1), (11, 0, 1, 7)])
    y = field(lev, [(1, 0, 3, 4), (5, 1, -1, 5), (9, 0, 2, 1), (15, 2, 1, 3)])
    us = 1e6
    out["micro.field_mul_us"] = _per_call(lambda: x * y, batch_s) * us
    out["micro.field_add_us"] = _per_call(lambda: x + y, batch_s) * us

    hx = HbarLaurent(h, {k: x * (k + 1) for k in range(h + 1)})
    hy = HbarLaurent(h, {k: y * (k - 2) for k in range(h + 1) if k != 2})
    out["micro.hbar_mul_us"] = _per_call(lambda: hx * hy, batch_s) * us

    def torus(modes):
        acc = TorusElement.zero(cfg.dim)
        for m, q in modes:
            acc = acc + TorusElement.plane_wave(cfg.dim, m, h, q)
        return acc

    ta = torus([((1, 0), 1), ((0, -2), Fraction(1, 2)), ((2, 1), -3)])
    tb = torus([((-1, 1), 2), ((1, 1), Fraction(-1, 3)), ((0, 2), 1)])
    out["micro.torus_star_us"] = _per_call(lambda: ta.star(tb), batch_s) * us

    act = cfg.action()
    ca = CrossedElement(act, {1: ta, -1: tb})
    cb = CrossedElement(act, {0: tb, 2: ta})
    out["micro.crossed_star_us"] = _per_call(lambda: ca.star(cb), batch_s) * us

    def weyl(terms):
        acc = WeylElement.zero(cfg.dim, cfg.weyl_order)
        for a, b, k, q in terms:
            acc = acc + WeylElement.monomial(cfg.dim, a, b, k, q,
                                             cfg.weyl_order)
        return acc

    wa = weyl([((2,), (1,), 0, 3), ((0,), (2,), 1, Fraction(1, 2)),
               ((1,), (1,), 0, -1)])
    wb = weyl([((1,), (2,), 0, -2), ((2,), (0,), 0, Fraction(5, 2)),
               ((0,), (1,), 1, 1)])
    out["micro.weyl_star_us"] = _per_call(lambda: wa.star(wb), batch_s) * us

    ctx = ChainContext.crossed(act, h_trunc=h, u_trunc=u)
    one = ULaurent.from_hbar(HbarLaurent.from_rational(1, h), u)
    chain = CyclicChain(ctx, {
        (((1, 0), 1), ((0, 1), -1), ((-1, 2), 0)): one,
        (((2, -1), 0), ((0, 0), 2), ((1, 1), -2)): one * Fraction(-3, 2),
    })
    out["micro.mixed_boundary_ms"] = \
        _per_call(chain.mixed_boundary, batch_s) * 1e3

    # For q_map and chern_character an untimed pass at u_trunc <= 1 fills
    # the phase caches before the timed pass.
    small = config(0, **dict(overrides or {}, u_trunc=min(u, 1)))
    for c in (small, cfg):
        sctx = ChainContext.crossed(c.action(), h_trunc=c.h_trunc,
                                    u_trunc=c.u_trunc)
        f = homogeneous_to_coinvariants(
            _split_chain(sctx, SPLIT_SHAPES[1], Fraction(1)))
        seconds, split = _once(lambda: q_map(f))
    out["micro.q_map_s"] = seconds
    words = len(split.coeffs)

    matrix = cfg.idempotent_matrix()
    chern_character(matrix, min(u, 1))
    out["micro.chern_character_s"], ch = _once(
        lambda: chern_character(matrix, u))

    classes = equivariant_ahat(act, h).cup(
        equivariant_theta(act, h).exponential())
    xi = GroupCochain.constant(cfg.group(), 1)
    out["micro.phi_pair_s"], _ = _once(lambda: phi_pair(classes, xi, ch))

    sizes = (words, len(ch.coeffs))
    if overrides is None and sizes != (Q_MAP_WORDS, CHERN_WORDS):
        raise AssertionError(
            f"micro inputs changed size: q_map gave {words} words "
            f"(want {Q_MAP_WORDS}), chern_character {len(ch.coeffs)} "
            f"(want {CHERN_WORDS})")
    return out
