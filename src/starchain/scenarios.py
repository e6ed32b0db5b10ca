"""Configuration-driven verification scenarios and JSON reports.

The runner executes named property suites against a single structured
configuration and produces deterministic reports.  `_check` runs and
records every check of every suite and of index_check: it times a
function returning (expected, actual, passed).  `_trials` builds the
randomized checks on it, summing the failures of n trials into "k
failures in n".  Only a non-idempotent matrix in index_check is recorded
directly.  Each suite draws from its own random.Random(seed), so its
records do not depend on which other suites run.

Report JSON schema (version 1): top-level keys sorted alphabetically,

    {"checks": [record, ...],
     "config_digest": "<12 hex>",
     "schema": 1,
     "seed": <int>,
     "suite": "<name>"}

where each record is {"actual": str, "expected": str, "inputs": "<12
hex>", "law": str, "name": str, "passed": bool}.  A report created with
no suite context serializes to exactly {"checks":[...]}.  Wall-clock
runtimes are kept on the in-memory objects only; serialized reports
contain nothing time- or machine-dependent, so a re-run with the same
configuration and seed is byte-identical.

Golden fixture layout (emit_fixtures): one JSON file per table in the
target directory: character_blocks.json (idempotent-word coefficients by
degree), genus_series.json (Pontryagin coefficients), and
normalization_chain.json (term counts of the order-normalization chains).
"""

import hashlib
import json
import math
import random
import time
from fractions import Fraction
from functools import partial

from .cyclic import (ChainContext, CyclicChain, _unit_label, chern_character,
                     chern_coefficients, chern_word_chain,
                     coinvariants_to_homogeneous, d_map,
                     homogeneous_to_coinvariants, q_map)
from .forms import hkr, mu_normalization_chain
from .group_coh import (GroupCochain, TraceFunctional, equivariant_ahat,
                        equivariant_theta, phi_pair, trace_pair)
from .groups import CyclicGroup
from .lie_gf import (InvariantConnection, LieCochain, a_hat_series,
                     gf_form, lie_differential, theta_hat_cochain)
from .scalars import MAX_CYCLOTOMIC_LEVEL, FieldElement, HbarLaurent, ULaurent
from .torus import CrossedElement, TorusElement, TranslationAction, \
    symplectic_form
from .weyl import Derivation, WeylElement

SCHEMA_VERSION = 1

# Allowed ranges of the window and size fields, so that every accepted
# configuration runs in bounded time and memory.  Timed on a 2-vCPU host
# under CPython 3.11, every suite and index_check each in its own process
# (spawn to exit, summed over the ten jobs), on configs/default.json
# (h_trunc 6, u_trunc 3, weyl_order 6, dim 1) with one field raised; all
# ten jobs take 2.9 s there, at most 28 MiB each.
#   h_trunc 20: 4.3 s, 30: 6.3 s (splitting-roundtrips 1.9 s,
#     character-cycles 1.6 s), at most 48 MiB.  The cost grows with the
#     window, and at 200 moyal-associativity alone had not finished after
#     20 s.
#   u_trunc 4: 5.4 s (character-cycles 2.1 s and 81 MiB); at 5,
#     index_check alone took over 150 s when it still built the full
#     character.
#   weyl_order 10, 24: 2.8 and 2.7 s, as at 6, since the drawn symbols
#     have bounded degree.
#   dim 2, 3, 4 (shifts padded with zeros): 2.6, 3.1 and 4.3 s, at most
#     62 MiB (forms-bridge at 4); at 6 forms-bridge needs more than 1.5 GiB.
#   u_trunc 4 with h_trunc 30, both at their bounds: 24 s, at most 229 MiB
#     (character-cycles 14 s of it).
FIELD_RANGES = {"dim": (1, 4), "h_trunc": (0, 30), "u_trunc": (0, 4),
                "weyl_order": (0, 24)}


class ConfigError(ValueError):
    """Invalid scenario configuration; carries (field, message) pairs."""

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "; ".join(f"{f}: {m}" for f, m in self.problems)
        super().__init__(f"invalid configuration: {lines}")


def _is_int(v) -> bool:
    """v is an int and not a bool: JSON true and false load as bools,
    which isinstance(v, int) would accept as 1 and 0."""
    return isinstance(v, int) and not isinstance(v, bool)


class ScenarioConfig:
    __slots__ = ("dim", "h_trunc", "u_trunc", "weyl_order", "level",
                 "group_order", "shifts", "twist", "cochain", "idempotent",
                 "suites", "seed")

    def __init__(self, dim=1, h_trunc=6, u_trunc=3, weyl_order=6, level=60,
                 group_order=None, shifts=None, twist=None,
                 cochain="linear", idempotent="conjugated",
                 suites=None, seed=20260822):
        self.dim = dim
        self.h_trunc = h_trunc
        self.u_trunc = u_trunc
        self.weyl_order = weyl_order
        self.level = level
        self.group_order = group_order
        if shifts is None:
            # built only from a dim that _validate accepts
            low, top = FIELD_RANGES["dim"]
            pad = 2 * dim - 2 if _is_int(dim) and low <= dim <= top else 0
            shifts = [Fraction(1, 3), Fraction(1, 5)] + [Fraction(0)] * pad
        self.shifts = [Fraction(s) for s in shifts]
        # lists are copied; anything else is kept for _validate to reject
        self.twist = list(twist) if isinstance(twist, (list, tuple)) \
            else twist
        self.cochain = cochain
        self.idempotent = idempotent
        if suites is None:
            suites = ["all"]
        self.suites = list(suites) if isinstance(suites, (list, tuple)) \
            else suites
        self.seed = seed
        self._validate()

    def _validate(self):
        problems = []
        for name, (low, top) in FIELD_RANGES.items():
            v = getattr(self, name)
            if not _is_int(v) or not low <= v <= top:
                problems.append(
                    (name, f"must be an integer from {low} to {top}"))
        dim_ok = all(field != "dim" for field, _ in problems)
        level_ok = _is_int(self.level) and self.level >= 1
        if not level_ok:
            problems.append(("level", "must be a positive integer"))
        if self.group_order is not None and (
                not _is_int(self.group_order) or self.group_order < 1):
            problems.append(("group_order", "must be null or positive"))
        if dim_ok and len(self.shifts) != 2 * self.dim:
            problems.append(("shifts", "need exactly 2*dim entries"))
        phase_level = 4 * math.lcm(*(s.denominator for s in self.shifts))
        if phase_level > MAX_CYCLOTOMIC_LEVEL:
            problems.append(
                ("shifts", f"phase level {phase_level} (4 * lcm of the "
                           f"denominators) exceeds {MAX_CYCLOTOMIC_LEVEL}"))
        if level_ok:
            for s in self.shifts:
                if self.level % s.denominator:
                    problems.append(
                        ("shifts", f"denominator of {s} does not divide "
                                   f"level {self.level}"))
        if self.twist is not None:
            if not isinstance(self.twist, list) or \
                    not all(_is_int(w) for w in self.twist):
                problems.append(("twist", "must be null or a list of integers"))
            elif dim_ok and len(self.twist) != 2 * self.dim:
                problems.append(("twist", "need exactly 2*dim entries"))
            if self.group_order is not None:
                problems.append(
                    ("twist", "twists need the infinite cyclic group"))
        if self.cochain not in ("trivial", "linear", "quadratic-product"):
            problems.append(("cochain", f"unknown kind {self.cochain!r}"))
        elif self.cochain != "trivial" and self.group_order is not None:
            problems.append(
                ("cochain", "polynomial cochains need the infinite group"))
        if self.idempotent not in ("unit", "diagonal", "conjugated",
                                   "crossed-conjugated"):
            problems.append(("idempotent", f"unknown kind {self.idempotent!r}"))
        if not isinstance(self.suites, list) or \
                not all(isinstance(s, str) for s in self.suites):
            problems.append(("suites", "must be a list of suite names"))
        else:
            for s in self.suites:
                if s != "all" and s not in _SUITES:
                    problems.append(("suites", f"unknown suite {s!r}"))
        if not _is_int(self.seed) or self.seed < 0:
            problems.append(("seed", "must be a nonnegative integer"))
        if problems:
            raise ConfigError(problems)

    @classmethod
    def from_dict(cls, data) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError([("<root>", "configuration must be an object")])
        problems = [(k, "unknown field")
                    for k in sorted(set(data) - set(cls.__slots__))]
        if problems:
            raise ConfigError(problems)
        kwargs = dict(data)
        shifts = kwargs.get("shifts")
        if shifts is not None:
            if not isinstance(shifts, list):
                raise ConfigError([("shifts", "must be null or a list")])
            try:
                kwargs["shifts"] = [Fraction(str(s)) for s in shifts]
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError([("shifts", str(exc))]) from None
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError([("<file>", f"not valid JSON: {exc}")]) \
                    from None
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        out = {k: getattr(self, k) for k in self.__slots__}
        out["shifts"] = [str(s) for s in self.shifts]
        return out

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    # -- derived objects ---------------------------------------------------

    def group(self) -> CyclicGroup:
        return CyclicGroup(self.group_order)

    def action(self) -> TranslationAction:
        return TranslationAction(self.dim, self.group(), self.shifts,
                                 None if self.twist is None
                                 else tuple(self.twist))

    def group_cochain(self) -> GroupCochain:
        g = self.group()
        if self.cochain == "trivial":
            return GroupCochain.constant(g, 1)
        if self.cochain == "linear":
            return GroupCochain.polynomial(g, 1, {(1,): 1})
        return GroupCochain.polynomial(g, 2, {(1, 1): 1})

    def idempotent_matrix(self):
        h = self.h_trunc
        if self.idempotent in ("unit", "diagonal", "conjugated"):
            one = TorusElement.one(self.dim, h)
            zero = TorusElement.zero(self.dim)
            if self.idempotent == "unit":
                return [[one]]
            if self.idempotent == "diagonal":
                return [[one, zero], [zero, zero]]
            m = (1,) + (0,) * (2 * self.dim - 1)
            n = (0,) * (2 * self.dim - 1) + (1,)
            a = TorusElement.plane_wave(self.dim, m, h)
            b = TorusElement.plane_wave(self.dim, n, h)
        else:
            act = self.action()
            one = CrossedElement.one(act, h)
            m = (1,) + (0,) * (2 * self.dim - 1)
            n = (0,) * (2 * self.dim - 1) + (1,)
            a = CrossedElement(act, {1: TorusElement.plane_wave(
                self.dim, m, h)})
            b = CrossedElement(act, {-1: TorusElement.plane_wave(
                self.dim, n, h)})
        ab = a.star(b)
        return [[one + ab, -a - ab.star(a)], [b, -b.star(a)]]


class CheckRecord:
    __slots__ = ("name", "law", "inputs", "expected", "actual", "passed",
                 "runtime")

    def __init__(self, name, law, inputs, expected, actual, passed,
                 runtime=0.0):
        self.name = name
        self.law = law
        self.inputs = inputs
        self.expected = expected
        self.actual = actual
        self.passed = passed
        self.runtime = runtime

    def to_dict(self) -> dict:
        return {"actual": self.actual, "expected": self.expected,
                "inputs": self.inputs, "law": self.law, "name": self.name,
                "passed": self.passed}


class Report:
    __slots__ = ("checks", "suite", "seed", "config_digest", "runtime")

    def __init__(self, checks=None, suite=None, seed=None,
                 config_digest=None, runtime=0.0):
        self.checks = list(checks) if checks else []
        self.suite = suite
        self.seed = seed
        self.config_digest = config_digest
        self.runtime = runtime

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        body: dict = {"checks": [c.to_dict() for c in self.checks]}
        if self.suite is not None:
            body["suite"] = self.suite
            body["schema"] = SCHEMA_VERSION
        if self.seed is not None:
            body["seed"] = self.seed
        if self.config_digest is not None:
            body["config_digest"] = self.config_digest
        return json.dumps(body, sort_keys=True, separators=(",", ":"))


def emit_report(report: Report, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")


def _digest(*parts) -> str:
    blob = "|".join(str(p) for p in parts)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _check(name, law, inputs, run) -> CheckRecord:
    """Run one check: time run(), which returns (expected, actual,
    passed), and record both sides as text under the digest of inputs."""
    t0 = time.monotonic()
    expected, actual, passed = run()
    return CheckRecord(name, law, _digest(*inputs), str(expected),
                       str(actual), bool(passed), time.monotonic() - t0)


def _trials(name, law, inputs, n, trial) -> CheckRecord:
    """A check of n random trials; trial() returns its number of failures
    (a bool counts as 0 or 1)."""
    def run():
        fails = sum(trial() for _ in range(n))
        return f"0 failures in {n}", f"{fails} failures in {n}", fails == 0
    return _check(name, law, inputs, run)


# -- random draws shared by suites -----------------------------------------

def _rand_torus(rng, cfg, terms=3, span=3):
    out = TorusElement.zero(cfg.dim)
    for _ in range(terms):
        mode = tuple(rng.randint(-span, span) for _ in range(2 * cfg.dim))
        num = rng.randint(-6, 6) or 1
        c = HbarLaurent.from_rational(
            Fraction(num, rng.choice([1, 2, 3])), cfg.h_trunc,
            rng.randint(0, min(1, cfg.h_trunc)))
        out = out + TorusElement.plane_wave(cfg.dim, mode, cfg.h_trunc) * c
    return out


def _rand_monomial(rng, dim):
    """Weyl exponents a, b in [0, 2]^dim and a nonzero numerator in
    [-6, 6]."""
    a = tuple(rng.randint(0, 2) for _ in range(dim))
    b = tuple(rng.randint(0, 2) for _ in range(dim))
    return a, b, rng.randint(-6, 6) or 1


def _rand_weyl(rng, cfg, terms=3):
    w = WeylElement.zero(cfg.dim, cfg.weyl_order)
    for _ in range(terms):
        a, b, num = _rand_monomial(rng, cfg.dim)
        w = w + WeylElement.monomial(
            cfg.dim, a, b, rng.randint(0, 1),
            Fraction(num, rng.choice([1, 2])), cfg.weyl_order)
    return w


def _rand_chain(rng, ctx, word, terms=2):
    """A chain of `terms` words drawn by word(), each with coefficient
    n/2 · u^k for a nonzero integer n in [-4, 4] and k in [-1, 1]."""
    coeffs = {}
    for _ in range(terms):
        key = word()
        num = rng.randint(-4, 4) or 1
        coeffs[key] = ULaurent.from_hbar(
            HbarLaurent.from_rational(Fraction(num, 2), ctx.h_trunc),
            ctx.u_trunc, rng.randint(-1, 1))
    return CyclicChain(ctx, coeffs)


def _slot_words(rng, ctx, deg, span=2):
    """A draw of words of deg + 1 slots over ctx: torus modes, group
    labels, or (mode, label) pairs for crossed words."""
    def slot():
        if ctx.kind == "group":
            return rng.randint(-span, span)
        mode = tuple(rng.randint(-span, span) for _ in range(2 * ctx.dim))
        return (mode, rng.randint(-span, span)) if ctx.kind == "crossed" \
            else mode
    return lambda: tuple(slot() for _ in range(deg + 1))


def _identity_words(rng, ctx, deg, span=2):
    """A draw of crossed words of deg + 1 slots whose group labels
    compose to the identity."""
    g = ctx.group

    def word():
        labels = [rng.randint(-span, span) for _ in range(deg)]
        labels.append(g.inverse(g.compose_all(labels)))
        return tuple((tuple(rng.randint(-span, span)
                            for _ in range(2 * ctx.dim)), lab)
                     for lab in labels)
    return word


def _reciprocal_volume(dim, h_trunc) -> HbarLaurent:
    """(-i)^dim ħ^-dim, the trace of the unit."""
    return HbarLaurent.from_field((FieldElement.i_unit() * (-1)) ** dim,
                                  h_trunc - dim, -dim)


# -- suites ----------------------------------------------------------------

def _suite_moyal(cfg: ScenarioConfig, rng) -> list:
    def nonassociative(draw):
        a, b, c = (draw(rng, cfg) for _ in range(3))
        return a.star(b).star(c) != a.star(b.star(c))

    def nonclassical():
        a, b = _rand_torus(rng, cfg), _rand_torus(rng, cfg)
        return a.star(b) != a.symbol_mul(b)

    trials = 40
    out = [_trials("torus-star-associativity", "star-product-associativity",
                   ("torus", cfg.dim, cfg.h_trunc, cfg.seed), trials,
                   lambda: nonassociative(_rand_torus)),
           _trials("weyl-star-associativity", "star-product-associativity",
                   ("weyl", cfg.dim, cfg.weyl_order, cfg.seed), trials,
                   lambda: nonassociative(_rand_weyl))]
    if cfg.h_trunc == 0:
        out.append(_trials("classical-limit-degeneration", "classical-limit",
                           ("torus", cfg.dim, 0, cfg.seed), trials,
                           nonclassical))
    return out


def _suite_normalization(cfg: ScenarioConfig, rng) -> list:
    d, order = cfg.dim, max(cfg.weyl_order, 2)
    i_h = WeylElement.hbar(d, 1, order) * FieldElement.i_unit()
    generators = ((WeylElement.x_hat(d, j, order),
                   WeylElement.xi_hat(d, j, order)) for j in range(d))

    def noncanonical():
        x, xi = next(generators)
        return xi.star(x) - x.star(xi) != i_h

    def unit_trace():
        got = TorusElement.one(d, cfg.h_trunc).trace()
        want = _reciprocal_volume(d, cfg.h_trunc)
        return want, got, got == want

    def commutator_trace_nonzero():
        a, b = _rand_torus(rng, cfg), _rand_torus(rng, cfg)
        return not (a.star(b) - b.star(a)).trace().is_zero()

    return [
        _trials("generator-commutator", "canonical-commutation",
                ("weyl", d, order), d, noncanonical),
        _check("unit-trace", "trace-normalization",
               ("torus", d, cfg.h_trunc), unit_trace),
        _trials("trace-kills-commutators", "trace-property",
                ("torus", d, cfg.h_trunc, cfg.seed), 25,
                commutator_trace_nonzero),
    ]


def _complex_contexts(cfg: ScenarioConfig):
    act = cfg.action()
    return [
        ChainContext.torus(cfg.dim, h_trunc=cfg.h_trunc,
                           u_trunc=cfg.u_trunc),
        ChainContext.crossed(act, h_trunc=cfg.h_trunc, u_trunc=cfg.u_trunc),
        ChainContext.group_labels(cfg.group(), u_trunc=cfg.u_trunc),
    ]


def _suite_complexes(cfg: ScenarioConfig, rng) -> list:
    def axiom_failures(ctx):
        x = _rand_chain(rng, ctx, _slot_words(rng, ctx,
                                              rng.choice([1, 2, 3])))
        b, B = x.boundary(), x.connes_boundary()
        return sum(not z.is_zero() for z in (
            b.boundary(), B.connes_boundary(),
            b.connes_boundary() + B.boundary()))

    return [_trials(f"{ctx.kind}-differential-identities",
                    "cyclic-complex-axioms", (ctx.kind, cfg.dim, cfg.seed),
                    6, partial(axiom_failures, ctx))
            for ctx in _complex_contexts(cfg)]


def _suite_splittings(cfg: ScenarioConfig, rng) -> list:
    """The coinvariant rewrite is an isomorphism of crossed chains; the
    splitting (q_map) and the decomposition (d_map) are chain maps.  The
    two chain-map laws are checked in the normalized bar complex, the one
    d_map and the pairings read: there a group word with two equal
    adjacent labels is dropped as it is produced.  The full splitting's
    law is a tier-1 test (test_splitting_is_a_chain_map)."""
    ctx = ChainContext.crossed(cfg.action(), h_trunc=cfg.h_trunc,
                               u_trunc=cfg.u_trunc)
    inputs = ("crossed", cfg.dim, cfg.seed)

    def identity_chain(degrees):
        return _rand_chain(rng, ctx, _identity_words(rng, ctx,
                                                     rng.choice(degrees)))

    def roundtrip_failures():
        x = identity_chain([0, 1, 2])
        f = homogeneous_to_coinvariants(x)
        back = coinvariants_to_homogeneous(f)
        return (back != x) + (homogeneous_to_coinvariants(back) != f)

    def unsplit():
        f = homogeneous_to_coinvariants(identity_chain([0, 1]))
        return q_map(f.mixed_boundary(), normalized=True) != \
            q_map(f, normalized=True).total_boundary()

    def undecomposed():
        x = _rand_chain(rng, ctx, _slot_words(rng, ctx,
                                              rng.choice([0, 1, 2])))
        return d_map(x.mixed_boundary()) != d_map(x).total_boundary()

    return [
        _trials("coinvariant-roundtrip", "coinvariant-isomorphism", inputs,
                6, roundtrip_failures),
        _trials("splitting-chain-map", "equivariant-splitting", inputs, 4,
                unsplit),
        _trials("decomposition-chain-map", "chain-decomposition", inputs, 6,
                undecomposed),
    ]


def _suite_characters(cfg: ScenarioConfig, rng) -> list:
    """The abstract character is a cycle word for word.  The matrix
    character is read in the normalized mixed complex, as index_check
    reads it: a word with a scalar letter after slot 0 is degenerate
    there (chern_character(normalized=True) drops those words), so the
    cycle law holds once such words of its boundary are dropped."""
    def cycle(got):
        return ("zero chain", "zero chain" if got.is_zero() else repr(got),
                got.is_zero())

    def normalized_cycle():
        chain = chern_character(cfg.idempotent_matrix(), cfg.u_trunc,
                                normalized=True)
        unit = _unit_label(chain.ctx)
        return cycle(CyclicChain(chain.ctx, {
            k: v for k, v in chain.mixed_boundary().coeffs.items()
            if unit not in k[1:]}))

    return [
        _check("abstract-character-cycle", "character-cycle",
               ("idem", cfg.u_trunc),
               lambda: cycle(chern_word_chain(min(cfg.u_trunc, 2))
                             .mixed_boundary())),
        _check(f"{cfg.idempotent}-character-cycle", "character-cycle",
               (cfg.idempotent, cfg.dim, cfg.h_trunc, cfg.u_trunc),
               normalized_cycle),
    ]


def _suite_trace_cocycles(cfg: ScenarioConfig, rng) -> list:
    act = cfg.action()
    ctx = ChainContext.crossed(act, h_trunc=cfg.h_trunc, u_trunc=cfg.u_trunc)
    T = TraceFunctional(cfg.group_cochain())

    def noncocycle():
        x = _rand_chain(rng, ctx, _slot_words(rng, ctx,
                                              rng.choice([0, 1, 2])))
        return not T.pair(x.mixed_boundary()).is_zero()

    return [_trials("twisted-trace-cocycle", "twisted-trace-cocycle",
                    (cfg.cochain, cfg.dim, cfg.seed), 20, noncocycle)]


def _suite_forms(cfg: ScenarioConfig, rng) -> list:
    sym = ChainContext.sym(cfg.dim, h_trunc=cfg.h_trunc,
                           u_trunc=cfg.u_trunc)

    def sym_word():
        return tuple((tuple(rng.randint(0, 2) for _ in range(cfg.dim)),
                      tuple(rng.randint(0, 2) for _ in range(cfg.dim)))
                     for _ in range(rng.choice([2, 3])))

    def bridge_failures():
        x = _rand_chain(rng, sym, sym_word)
        lhs = hkr(x.mixed_boundary())
        rhs = hkr(x).d_hat().shift(1).truncate(cfg.u_trunc)
        return (lhs != rhs) + (not hkr(x.boundary()).is_zero())

    def chain_size():
        terms = len(mu_normalization_chain(
            cfg.dim, h_trunc=cfg.h_trunc, u_trunc=cfg.u_trunc).coeffs)
        expected = math.factorial(2 * cfg.dim)
        return expected, terms, expected == terms

    return [
        _trials("chains-to-forms-chain-map", "derivative-bridge",
                ("sym", cfg.dim, cfg.seed), 10, bridge_failures),
        _check("normalization-chain-size", "order-normalization",
               ("weyl", cfg.dim), chain_size),
    ]


def _suite_lie(cfg: ScenarioConfig, rng) -> list:
    order = max(cfg.weyl_order, 10)

    def derivation():
        w = WeylElement.zero(cfg.dim, order)
        for _ in range(3):
            a, b, num = _rand_monomial(rng, cfg.dim)
            w = w + WeylElement.monomial(cfg.dim, a, b, 0,
                                         Fraction(num, 2), order)
        return Derivation(w)

    def dd_nonzero():
        keys = [((rng.randint(0, 2),) * cfg.dim,
                 (rng.randint(0, 2),) * cfg.dim, rng.randint(0, 1))]
        lam = LieCochain.coefficient_product(keys)
        dd = lie_differential(lie_differential(lam))
        xs = tuple(derivation() for _ in range(3))
        return not dd.evaluate(xs).is_zero()

    def defect_class():
        conn = InvariantConnection(cfg.dim, order)
        got = gf_form(theta_hat_cochain(), conn, cfg.h_trunc)
        want = symplectic_form(cfg.dim, cfg.h_trunc) * HbarLaurent.from_field(
            FieldElement.i_unit() * (-1), cfg.h_trunc, power=-1)
        return ("scaled area form",
                "scaled area form" if got == want else repr(got), got == want)

    def genus_leading():
        got = a_hat_series(1).get((1,))
        return Fraction(-1, 24), got, got == Fraction(-1, 24)

    return [
        _trials("lie-differential-squares", "chevalley-eilenberg",
                ("weyl", cfg.dim, cfg.seed), 6, dd_nonzero),
        _check("defect-class-datum", "curvature-class",
               ("weyl", cfg.dim, order), defect_class),
        _check("genus-leading-coefficient", "genus-series", ("series", 1),
               genus_leading),
    ]


def _suite_index(cfg: ScenarioConfig, rng) -> list:
    report = index_check(cfg)
    return report.checks


_SUITES = {
    "moyal-associativity": _suite_moyal,
    "normalization": _suite_normalization,
    "complex-identities": _suite_complexes,
    "splitting-roundtrips": _suite_splittings,
    "character-cycles": _suite_characters,
    "trace-cocycles": _suite_trace_cocycles,
    "forms-bridge": _suite_forms,
    "lie-cochain-calculus": _suite_lie,
    "index-identity": _suite_index,
}


def available_suites() -> list:
    return sorted(_SUITES)


def run_suite(name: str, cfg: ScenarioConfig) -> Report:
    t0 = time.monotonic()
    if name == "all":
        if "all" in cfg.suites:
            selected = available_suites()
        else:
            selected = [s for s in available_suites() if s in cfg.suites]
        checks = []
        for n in selected:
            checks.extend(_SUITES[n](cfg, random.Random(cfg.seed)))
    elif name in _SUITES:
        checks = _SUITES[name](cfg, random.Random(cfg.seed))
    else:
        raise KeyError(
            f"unknown suite {name!r}; available: "
            + ", ".join(available_suites() + ["all"]))
    return Report(checks, suite=name, seed=cfg.seed,
                  config_digest=cfg.digest(),
                  runtime=time.monotonic() - t0)


def index_check(cfg: ScenarioConfig) -> Report:
    """Both sides of the pairing identity on the configured idempotent:
    the trace side against the character, and the integral side through
    the class data with the degree-halving weights."""
    t0 = time.monotonic()
    matrix = cfg.idempotent_matrix()
    act = cfg.action()
    crossed = isinstance(matrix[0][0], CrossedElement)
    if crossed:
        xi = cfg.group_cochain()
        law = "equivariant-index-pairing"
    else:
        xi = GroupCochain.constant(cfg.group(), 1)
        law = "index-pairing"
    ch = lhs = None

    def pairing():
        # the character and both sides are built inside the check, so its
        # runtime covers the whole pairing
        nonlocal ch, lhs
        ch = chern_character(matrix, cfg.u_trunc, normalized=xi.normalized)
        lhs = TraceFunctional(xi).pair(ch) if crossed else trace_pair(ch)
        classes = equivariant_ahat(act, cfg.h_trunc).cup(
            equivariant_theta(act, cfg.h_trunc).exponential())
        rhs = phi_pair(classes, xi, ch)
        return lhs, rhs, lhs == rhs

    try:
        checks = [_check(
            "trace-side-equals-integral-side", law,
            (cfg.idempotent, cfg.cochain, cfg.dim, cfg.h_trunc, cfg.u_trunc),
            pairing)]
    except ValueError as exc:
        if ch is not None:      # raised after the character was built
            raise
        rec = CheckRecord(
            "idempotency", "character-cycle",
            _digest(cfg.idempotent, cfg.dim), "idempotent matrix",
            str(exc), False, time.monotonic() - t0)
        return Report([rec], suite="index-check", seed=cfg.seed,
                      config_digest=cfg.digest(),
                      runtime=time.monotonic() - t0)
    if not crossed:
        want = ULaurent.from_hbar(_reciprocal_volume(cfg.dim, cfg.h_trunc),
                                  cfg.u_trunc)
        checks.append(_check(
            "value-is-reciprocal-volume", "trace-normalization",
            (cfg.idempotent, cfg.dim), lambda: (want, lhs, lhs == want)))
    return Report(checks, suite="index-check", seed=cfg.seed,
                  config_digest=cfg.digest(),
                  runtime=time.monotonic() - t0)


def emit_fixtures(cfg: ScenarioConfig, directory) -> list:
    """Write the golden tables; returns the list of files written."""
    import os
    os.makedirs(directory, exist_ok=True)
    written = []

    def dump(name, payload):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        written.append(path)

    blocks = {}
    for n in range(min(cfg.u_trunc, 2) + 1):
        blocks[str(n)] = {
            "".join(map(str, w)): str(q)
            for w, q in sorted(chern_coefficients(n).items())}
    dump("character_blocks.json", blocks)
    dump("genus_series.json",
         {"-".join(map(str, mono)) or "const": str(c)
          for mono, c in sorted(a_hat_series(2).items())})
    dump("normalization_chain.json",
         {"terms": {str(d): len(mu_normalization_chain(
             d, h_trunc=2, u_trunc=1).coeffs) for d in (1, 2)}})
    return written
