"""Per-layer tracing from outside the engine.

The tracer replaces public functions and dunder methods of the engine with
timing wrappers.  Every wrapped call pushes a frame; when it returns, its
duration is added to its group's total (outermost calls only) and, minus the
time of the wrapped calls nested in it, to the group's self time.  Calls of
the scalar field run into the hundreds of thousands, so that layer is only
aggregated in place; every other wrapped call also records a span
(name, start, end, parent span, operation id) kept in memory until the run
ends.

Internal calls go through module-level bindings, so a public function is
replaced in every ``drasp4`` namespace that holds it.  Private helpers are
never wrapped.
"""

from __future__ import annotations

import sys
import time


class Tracer:
    def __init__(self):
        self.stack = []        # frames: [child_seconds, span_id]
        self.stats = {}        # group -> [calls, total_s, self_s, depth]
        self.spans = []        # [name, start, end, parent_span, op_id]
        self.op_id = None
        self.red_in = {}       # side -> terms entering red
        self.red_out = {}      # side -> terms kept by red
        self.amb_terms_out = 0
        self.apply_p_seen = set()
        self.apply_p_repeats = 0
        self.pair_seen = set()
        self.pair_total = 0
        self.pair_repeats = 0
        self.outputs = []      # output values whose coefficients are sampled
        self.default_order = None

    def _group(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0]
        return st

    def wrap(self, name, fn, span=True, observe=None):
        """Timing wrapper for ``fn``; ``name`` is a group name or a function
        of the call arguments returning one."""
        perf = time.perf_counter
        stack = self.stack
        spans = self.spans
        group = self._group
        fixed = None if callable(name) else group(name)

        def wrapper(*args, **kwargs):
            if fixed is None:
                gname = name(*args, **kwargs)
                st = group(gname)
            else:
                gname = name
                st = fixed
            parent = stack[-1][1] if stack else None
            if span:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent
            frame = [0.0, sid]
            stack.append(frame)
            st[3] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                st[3] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                st[0] += 1
                if st[3] == 0:
                    st[1] += dur
                st[2] += dur - frame[0]
                if span:
                    spans[sid] = [gname, t0, t1, parent, self.op_id]
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    # -- installation --

    def wrap_function(self, module, attr, name, span=True, observe=None):
        """Replace ``module.attr`` in every drasp4 namespace bound to it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, span, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.split(".")[0] == "drasp4":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
        return wrapper

    def wrap_methods(self, cls, attrs, name, span=True, observe=None):
        """Replace methods on the class; aliases such as ``__radd__ =
        __add__`` share one wrapper."""
        done = {}
        for attr in attrs:
            original = cls.__dict__[attr]
            wrapper = done.get(id(original))
            if wrapper is None:
                wrapper = self.wrap(name, original, span, observe)
                done[id(original)] = wrapper
            setattr(cls, attr, wrapper)

    def install(self, d, cli=None):
        """Wrap the public boundaries of every engine layer."""
        scalars, weyl, ambient, dra, gwa, parser, verify = (
            d.scalars, d.weyl, d.ambient, d.dra, d.gwa, d.parser, d.verify)
        self.default_order = d.sp4.CONVEX_ORDER
        rf = scalars.RatFunc
        self.wrap_methods(rf, ("__add__", "__radd__", "__sub__", "__rsub__"),
                          "scalars.add", span=False)
        self.wrap_methods(rf, ("__mul__", "__rmul__", "__truediv__",
                               "__rtruediv__"), "scalars.mul", span=False)
        self.wrap_methods(rf, ("shift",), "scalars.shift", span=False)
        self.wrap_function(scalars, "poly_gcd", "scalars.gcd", span=False)

        self.wrap_methods(weyl.WeylElem, ("__mul__",), "weyl.mul")

        self.wrap_methods(ambient.AmbientElem, ("__mul__",), "ambient.mul",
                          observe=self._observe_amb_mul)
        self.wrap_function(ambient, "red", "ambient.red",
                           observe=self._observe_red)
        self.wrap_function(ambient, "ad_e", "ambient.ad_e")

        self.wrap_function(dra, "diamond", "dra.diamond",
                           observe=self._observe_diamond)
        self.wrap_function(dra, "apply_p", "dra.apply_p",
                           observe=self._observe_apply_p)
        self.wrap_function(dra, "apply_p_root",
                           lambda root, *a, **k: f"dra.apply_p_root.{root}")

        self.wrap_methods(gwa.GwaElem, ("__mul__",), "gwa.mul")
        self.wrap_methods(gwa.GwaAlgebra, ("sigma", "sigma_pow", "sigma_vec"),
                          "gwa.sigma")
        self.wrap_methods(gwa.BasePoly, ("__mul__", "__pow__"),
                          "gwa.basepoly_mul")
        self.wrap_methods(gwa.GwaRealization,
                          ("phi", "base_image", "monomial_image"), "gwa.phi")

        self.wrap_function(parser, "evaluate", "parser.evaluate")
        for attr, suite in VERIFY_SUITES.items():
            self.wrap_function(verify, attr, f"verify.{suite}")

        if cli is not None:
            self.wrap_function(
                cli, "main",
                lambda argv=None, *a, **k: f"cli.main.{argv[0]}")
            for attr in ("dra_str", "dra_json", "dra_latex", "amb_str",
                         "amb_json", "amb_latex", "rf_str", "rf_json",
                         "rf_latex", "base_str", "base_json"):
                fn = getattr(cli, attr)
                setattr(cli, attr, self._output_observer(fn))

    # -- observers --

    def _observe_amb_mul(self, args, kwargs, result):
        terms = getattr(result, "terms", None)
        if terms is not None:
            self.amb_terms_out += len(terms)

    def _observe_red(self, args, kwargs, result):
        u, side = args[0], args[1] if len(args) > 1 else kwargs["side"]
        self.red_in[side] = self.red_in.get(side, 0) + len(u.terms)
        self.red_out[side] = self.red_out.get(side, 0) + len(result.terms)

    def _observe_apply_p(self, args, kwargs, result):
        order = args[1] if len(args) > 1 else kwargs.get("order",
                                                         self.default_order)
        key = (args[0], order)
        if key in self.apply_p_seen:
            self.apply_p_repeats += 1
        else:
            self.apply_p_seen.add(key)

    def _observe_diamond(self, args, kwargs, result):
        u, v = args[0], args[1]
        seen = self.pair_seen
        for m in u.terms:
            for n in v.terms:
                self.pair_total += 1
                if (m, n) in seen:
                    self.pair_repeats += 1
                else:
                    seen.add((m, n))

    def _output_observer(self, fn):
        def observed(value, *args, **kwargs):
            self.outputs.append(value)
            return fn(value, *args, **kwargs)
        return observed


# Verify functions reached from the CLI, and the span group of each.
VERIFY_SUITES = {
    "suite_presentation": "presentation",
    "suite_lemma32": "lemma32",
    "suite_normalized": "normalized",
    "suite_appendix": "appendix",
    "suite_limit": "limit",
    "suite_triangular": "triangular",
    "sigma_commute_report": "sigma_commute",
    "gwa_iso_report": "gwa_iso",
    "weyl_example_report": "weyl_example",
}


def coefficients(value):
    """The dynamical-scalar coefficients of an engine value."""
    terms = getattr(value, "terms", None)
    if terms is None:
        return [value] if hasattr(value, "den") else []
    out = []
    for c in terms.values():
        if hasattr(c, "den"):
            out.append(c)
        else:  # a base polynomial of the generalized Weyl algebra
            out.extend(c.terms.values())
    return out


DEN_SAMPLE = 120


def coefficient_facts(d, values) -> dict:
    """Imaginary share over every output coefficient, and the share of
    sampled denominators that split into shifted coroot forms."""
    coeffs = [c for v in values for c in coefficients(v)]
    imag = sum(1 for c in coeffs
               if any(g.im for p in (c.num, c.den) for g in p.terms.values()))
    step = max(1, len(coeffs) // DEN_SAMPLE)
    sample = coeffs[::step][:DEN_SAMPLE]
    split = sum(1 for c in sample
                if d.sp4.denominator_factors(c.den) is not None)
    return {"coeffs": len(coeffs), "imag": imag,
            "den_sampled": len(sample), "den_split": split}


def summary(tracer: Tracer) -> dict:
    """Everything a traced process hands back, in plain JSON types."""
    return {
        "stats": {k: v[:3] for k, v in tracer.stats.items()},
        "red_in": tracer.red_in,
        "red_out": tracer.red_out,
        "amb_terms_out": tracer.amb_terms_out,
        "apply_p_repeats": tracer.apply_p_repeats,
        "pair_total": tracer.pair_total,
        "pair_repeats": tracer.pair_repeats,
    }


def importtime_seconds(stderr: str) -> dict:
    """Self import time of each drasp4 module from ``-X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name.startswith("drasp4.") and parts[0].strip().isdigit():
            out[name.split(".", 1)[1]] = int(parts[0]) / 1e6
    return out
