"""Per-layer spans recorded from outside starchain.

`Tracer.install()` replaces each boundary function or method in
BOUNDARIES with a wrapper that times it.  Spans are aggregated per name
(the scalar layer makes millions of calls): a call count and a self time,
which is the span's duration minus the time spent in nested boundary
spans.  Every binding of the original object is replaced: class attributes
that alias it (``__rmul__ = __mul__``) and the globals of every loaded
module that imported it by name (``scenarios`` imports ``q_map``,
``phi_pair`` and others, and so do the benchmark's own workloads).
"""

import sys
import time

# layer -> [(metric name, module, "Class.attr" or "function")]
BOUNDARIES = {
    "scalars": [
        ("field_mul", "scalars", "FieldElement.__mul__"),
        ("field_add", "scalars", "FieldElement.__add__"),
        ("field_embed", "scalars", "FieldElement.embed"),
        ("hbar_mul", "scalars", "HbarLaurent.__mul__"),
        ("hbar_add", "scalars", "HbarLaurent.__add__"),
        ("ulaurent_mul", "scalars", "ULaurent.__mul__"),
        ("ulaurent_add", "scalars", "ULaurent.__add__"),
    ],
    "torus": [
        ("star", "torus", "TorusElement.star"),
        ("crossed_star", "torus", "CrossedElement.star"),
        ("mode_phase", "torus", "TranslationAction.mode_phase"),
    ],
    "weyl": [
        ("star", "weyl", "WeylElement.star"),
    ],
    "cyclic": [
        ("boundary", "cyclic", "CyclicChain.boundary"),
        ("connes_boundary", "cyclic", "CyclicChain.connes_boundary"),
        ("mixed_boundary", "cyclic", "CyclicChain.mixed_boundary"),
        ("inner_boundary", "cyclic", "EquivariantChain.inner_boundary"),
        ("total_boundary", "cyclic", "EquivariantChain.total_boundary"),
        ("q_map", "cyclic", "q_map"),
        ("d_map", "cyclic", "d_map"),
        ("homogeneous_to_coinvariants", "cyclic",
         "homogeneous_to_coinvariants"),
        ("chern_character", "cyclic", "chern_character"),
    ],
    "group_coh": [
        ("phi_pair", "group_coh", "phi_pair"),
        ("TraceFunctional.pair", "group_coh", "TraceFunctional.pair"),
        ("trace_pair", "group_coh", "trace_pair"),
        ("equivariant_ahat", "group_coh", "equivariant_ahat"),
        ("equivariant_theta", "group_coh", "equivariant_theta"),
        ("cup", "group_coh", "EquivariantClassCocycle.cup"),
        ("exponential", "group_coh", "EquivariantClassCocycle.exponential"),
    ],
    "lie_gf": [
        ("lie_differential", "lie_gf", "lie_differential"),
        ("gf_form", "lie_gf", "gf_form"),
        ("a_hat_series", "lie_gf", "a_hat_series"),
    ],
    "forms": [
        ("hkr", "forms", "hkr"),
        ("d_hat", "forms", "FormalForm.d_hat"),
    ],
}


def span_names():
    return [f"{layer}.{name}" for layer, rows in BOUNDARIES.items()
            for name, _, _ in rows]


def _level_changed(args, out):
    self, level = args
    return level != self.level


def _words_in(args, out):
    return len(args[0].coeffs)


def _words_out(args, out):
    return len(out.coeffs)


# Extra counters: span name -> (metric suffix, unit, count of one call).  A
# "frac" counter is reported as its share of the calls.
EXTRAS = {
    "scalars.field_embed": ("level_change_frac", "frac", _level_changed),
    "cyclic.mixed_boundary": ("words_in", "count", _words_in),
    "cyclic.q_map": ("words_out", "count", _words_out),
    "cyclic.chern_character": ("words_out", "count", _words_out),
}


class Tracer:
    """Aggregated spans: name -> [calls, self seconds, extra count]."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0] for name in span_names()}
        self._stack = []
        self._replaced = []

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        extra = EXTRAS[name][2] if name in EXTRAS else None

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt - child
                if stack:
                    stack[-1] += dt
            if extra is not None:
                stats[2] += extra(args, out)
            return out

        return traced

    def install(self):
        """Wrap every boundary; starchain must already be imported."""
        modules = [m for m in list(sys.modules.values()) if m is not None]
        for layer, rows in BOUNDARIES.items():
            for name, module, attr in rows:
                owner = sys.modules[f"starchain.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    wrapped = self._wrap(f"{layer}.{name}", orig)
                    for key, value in list(vars(cls).items()):
                        if value is orig:
                            self._replace(cls, key, wrapped)
                else:
                    orig = getattr(owner, attr)
                    wrapped = self._wrap(f"{layer}.{name}", orig)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is orig:
                                self._replace(mod, key, wrapped)

    def _replace(self, owner, key, wrapped):
        self._replaced.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapped)

    def uninstall(self):
        """Put every original binding back."""
        for owner, key, orig in reversed(self._replaced):
            setattr(owner, key, orig)
        self._replaced.clear()

    def metrics(self):
        """Per-span calls and self time, plus the EXTRAS counters."""
        out = {}
        for name, (calls, self_s, extra) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
            if name in EXTRAS:
                suffix, unit, _ = EXTRAS[name]
                value = extra / calls if unit == "frac" and calls else extra
                out[f"{name}.{suffix}"] = (value, unit)
        return out


def metric_units():
    """Every metric name `Tracer.metrics` reports, with its unit."""
    return {name: unit for name, (_, unit) in Tracer().metrics().items()}
