"""Instrumentation for the traced run, installed from outside the program.

``install`` wraps the public functions and methods of every loopalg
module, plus a few private ones the metrics need, and rebinds every
module-level name that refers to a wrapped function (``pbw_monomials``
imports ``letter_bracket`` by name, ``cli`` imports ``hilb_integrable``).
A wrapper either times its call as a span or only counts it; spans are
kept in memory and written out by ``dump``.  The untraced run installs
nothing.
"""

import inspect
import json
import sys
import time

LAYERS = ("scalars", "root_systems", "twisted_grading", "loop_affine",
          "pbw_monomials", "reduction_engine", "growth_harness",
          "characters", "cli")

# Called up to ~1e8 times a round: a clock read would swamp them, so they
# are counted only.  Their time stays in the caller's self time.
COUNTED = {
    "scalars.Scalar.__mul__": "scalars.mul",
    "scalars.Scalar.__rmul__": "scalars.mul",
    "scalars.Scalar.__add__": "scalars.add",
    "scalars.Scalar.__radd__": "scalars.add",
    "scalars.Scalar.__sub__": "scalars.add",
    "scalars.Scalar.__rsub__": "scalars.add",
    "scalars.Scalar.inverse": "scalars.inverse",
    "loop_affine.AlgebraSpec.letter_key": "loop_affine.letter_key",
}
# counted, and its cache misses too
LINE_BRACKET = "twisted_grading.TwistedBasis.line_bracket"

# Public helpers too small and too hot to wrap at all; no metric reads them.
BARE = {
    "scalars.Scalar.of", "scalars.Scalar.is_zero", "scalars.Scalar.is_rational",
    "scalars.Scalar.eta", "scalars.Scalar.eta_pow",
    "root_systems.RootSystem.form", "root_systems.RootSystem.height",
    "root_systems.RootSystem.eps", "root_systems.RootSystem.basis_bracket",
    "root_systems.RootSystem.cartan_index", "root_systems.RootSystem.is_cartan",
    "root_systems.RootSystem.element", "root_systems.RootSystem.basis_element",
    "root_systems.RootSystem.killing", "root_systems.RootSystem.label",
    "root_systems.ChevalleyElement.is_zero", "root_systems.ChevalleyElement.scale",
    "root_systems.ChevalleyElement.leading_index",
    "root_systems.ChevalleyElement.proportional_to",
    "twisted_grading.TwistedBasis.scalar", "twisted_grading.TwistedBasis.eta",
    "twisted_grading.TwistedBasis.component",
    "twisted_grading.TwistedBasis.root_vectors",
    "twisted_grading.TwistedBasis.line_killing",
    "loop_affine.AlgebraSpec.scalar", "loop_affine.AlgebraSpec.letter",
    "loop_affine.AlgebraSpec.check_exponent", "loop_affine.AlgebraSpec.letter_ok",
    "loop_affine.AlgebraSpec.letter_md", "loop_affine.AlgebraSpec.format_letter",
    "pbw_monomials.add_into", "pbw_monomials.elem_add", "pbw_monomials.elem_scale",
    "pbw_monomials.elem_neg", "pbw_monomials.elem_eq", "pbw_monomials.single",
    "pbw_monomials.mono_sorted", "pbw_monomials.is_standard",
    "pbw_monomials.mono_len", "pbw_monomials.mono_deg", "pbw_monomials.mono_md",
    "pbw_monomials.key_standard", "pbw_monomials.key_reverse",
    "reduction_engine.ReductionTrace.bracket",
    "reduction_engine.ReductionTrace.multiply",
    "reduction_engine.ReductionTrace.extend",
    "reduction_engine.ReductionTrace.acting_element",
    "reduction_engine.min_exponent", "reduction_engine.separating_exponent",
    "characters.PowerSeries.one", "characters.PowerSeries.dominates",
    "cli.parse_letter", "cli.main",
}

# Private names the metrics need.
EXTRA = {
    "twisted_grading.TwistedBasis.__init__", "loop_affine.AlgebraSpec.__init__",
    "growth_harness._Echelon.insert", "growth_harness._Echelon.reduce",
    "cli._emit",
}

# Timed, but not kept as one record per call (up to ~1e6 calls a round).
UNRECORDED = {
    "loop_affine.letter_bracket", "pbw_monomials.straighten",
    "root_systems.RootSystem.bracket", "twisted_grading.TwistedBasis.decompose",
    "twisted_grading.TwistedBasis.find_multiple", "scalars.format_scalar",
    "scalars.parse_scalar", "growth_harness._Echelon.insert",
    "growth_harness._Echelon.reduce", "pbw_monomials.s_product",
    "pbw_monomials.ad_lines", "cli.parse_terms", "cli.parse_element",
    "pbw_monomials.format_element",
}

# Inclusive time is summed per group, counting only the outermost call.
GROUPS = {
    "cli.build_parser": "cli.parse", "cli.parse_terms": "cli.parse",
    "cli.parse_element": "cli.parse", "cli.parse_monomial": "cli.parse",
    "cli._emit": "cli.format", "cli.trace_payload": "cli.format",
    "cli.format_chevalley": "cli.format",
    "pbw_monomials.format_element": "cli.format",
}

MAX_SPANS = 300000


class Tracer:
    def __init__(self):
        self.stack = []          # open frames: [span id, start, child time]
        self.calls = {}          # name -> calls
        self.self_s = {}         # name -> self time
        self.incl_s = {}         # group -> outermost inclusive time
        self.depth = {}          # group -> open calls
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.counts = {}         # counter -> value
        self.spans = []
        self.dropped = 0
        self.next_id = 1

    def bump(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def timed(self, name, fn, post=None, pre=None):
        layer = name.split(".")[0]
        group = GROUPS.get(name, name)
        record = name not in UNRECORDED
        self.calls[name] = 0
        self.self_s[name] = 0.0
        self.incl_s.setdefault(group, 0.0)
        self.depth.setdefault(group, 0)
        stack, calls, self_s, incl_s, depth = (
            self.stack, self.calls, self.self_s, self.incl_s, self.depth)
        layer_self, spans, clock = self.layer_self, self.spans, time.perf_counter

        def wrapper(*args, **kw):
            calls[name] += 1
            token = pre(args, kw) if pre else None
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else 0
            outer = depth[group] == 0
            depth[group] += 1
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kw)
            finally:
                end = clock()
                stack.pop()
                depth[group] -= 1
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                own = dur - frame[2]
                self_s[name] += own
                layer_self[layer] += own
                if outer:
                    incl_s[group] += dur
                if record:
                    if len(spans) < MAX_SPANS:
                        spans.append((sid, name, frame[1], end, parent))
                    else:
                        self.dropped += 1
            if post:
                post(token, args, kw, result)
            return result

        return wrapper

    def counted(self, key, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _line_bracket(self, fn):
        counts = self.counts
        counts.setdefault("twisted_grading.line_bracket", 0)
        counts.setdefault("twisted_grading.line_bracket_miss", 0)

        def wrapper(basis, k1, k2):
            counts["twisted_grading.line_bracket"] += 1
            if (k1, k2) not in basis._line_bracket_cache:
                counts["twisted_grading.line_bracket_miss"] += 1
            return fn(basis, k1, k2)

        return wrapper

    # ----------------------------------------------------- hooks on results

    def _terms(self, key):
        def post(token, args, kw, result):
            self.bump(key, len(result))
            self.bump("pbw_monomials.max_terms", 0)
            if len(result) > self.counts["pbw_monomials.max_terms"]:
                self.counts["pbw_monomials.max_terms"] = len(result)
        return post

    def _hooks(self, name):
        """(pre, post) for the wrappers whose metrics read arguments or
        results."""
        if name in ("pbw_monomials.ad_lines", "pbw_monomials.straighten",
                    "pbw_monomials.u_product", "pbw_monomials.u_commutator",
                    "pbw_monomials.s_product", "pbw_monomials.poisson"):
            return None, self._terms(name + ".terms")
        if name == "reduction_engine.kill_positive_action":
            def pre(args, kw):
                trace = args[3] if len(args) > 3 else kw.get("trace")
                return (self.calls["pbw_monomials.ad_lines"],
                        len(trace.steps) if trace is not None else 0)

            def post(token, args, kw, result):
                self.bump("kill_positive.tried",
                          self.calls["pbw_monomials.ad_lines"] - token[0])
                self.bump("kill_positive.kept", len(result[1].steps) - token[1])
            return pre, post
        if name in ("reduction_engine.construct_H_M",
                    "reduction_engine.project_to_derived"):
            def post(token, args, kw, result):
                self.bump("reduction_engine.trace_steps", len(result[1].steps))
            return None, post
        if name == "growth_harness._Echelon.insert":
            def post(token, args, kw, result):
                self.bump("growth_harness.kept", result is not None)
            return None, post
        return None, None

    # ------------------------------------------------------------- metrics

    def metrics(self):
        c = self.counts

        def calls(n):
            return self.calls.get(n, 0)

        def incl(n):
            return self.incl_s.get(n, 0.0)

        def rate(num, den):
            return num / den if den else 0.0

        ad_s = incl("pbw_monomials.ad_lines")
        st_s = incl("pbw_monomials.straighten")
        inserts = calls("growth_harness._Echelon.insert")
        out = {
            "scalars.mul_calls": (c.get("scalars.mul", 0), "count"),
            "scalars.add_calls": (c.get("scalars.add", 0), "count"),
            "scalars.inverse_calls": (c.get("scalars.inverse", 0), "count"),
            "root_systems.bracket_calls":
                (calls("root_systems.RootSystem.bracket"), "count"),
            "twisted_grading.basis_build_s":
                (incl("twisted_grading.TwistedBasis.__init__"), "s"),
            "twisted_grading.line_bracket_calls":
                (c.get("twisted_grading.line_bracket", 0), "count"),
            "twisted_grading.line_bracket_misses":
                (c.get("twisted_grading.line_bracket_miss", 0), "count"),
            "twisted_grading.decompose_s":
                (incl("twisted_grading.TwistedBasis.decompose"), "s"),
            "loop_affine.letter_key_calls":
                (c.get("loop_affine.letter_key", 0), "count"),
            "loop_affine.letter_bracket_calls":
                (calls("loop_affine.letter_bracket"), "count"),
            "loop_affine.letter_bracket_s": (incl("loop_affine.letter_bracket"), "s"),
            "pbw_monomials.ad_lines_calls": (calls("pbw_monomials.ad_lines"), "count"),
            "pbw_monomials.ad_lines_s": (ad_s, "s"),
            "pbw_monomials.ad_lines_terms_per_s":
                (rate(c.get("pbw_monomials.ad_lines.terms", 0), ad_s), "terms/s"),
            "pbw_monomials.straighten_calls":
                (calls("pbw_monomials.straighten"), "count"),
            "pbw_monomials.straighten_s": (st_s, "s"),
            "pbw_monomials.straighten_terms_per_s":
                (rate(c.get("pbw_monomials.straighten.terms", 0), st_s), "terms/s"),
            "pbw_monomials.u_product_s": (incl("pbw_monomials.u_product"), "s"),
            "pbw_monomials.s_product_s": (incl("pbw_monomials.s_product"), "s"),
            "pbw_monomials.leading_s": (incl("pbw_monomials.leading"), "s"),
            "pbw_monomials.max_terms": (c.get("pbw_monomials.max_terms", 0), "count"),
            "reduction_engine.plan_calls":
                (calls("reduction_engine.reduction_plan"), "count"),
            "reduction_engine.plan_s": (incl("reduction_engine.reduction_plan"), "s"),
            "reduction_engine.kill_positive_s":
                (incl("reduction_engine.kill_positive_action"), "s"),
            "reduction_engine.realize_class_s":
                (incl("reduction_engine.realize_congruence_class"), "s"),
            "reduction_engine.lift_leading_s":
                (incl("reduction_engine.lift_leading_term"), "s"),
            "reduction_engine.kill_positive_kept_ratio":
                (rate(c.get("kill_positive.kept", 0),
                      c.get("kill_positive.tried", 0)), "ratio"),
            "reduction_engine.trace_steps":
                (c.get("reduction_engine.trace_steps", 0), "count"),
            "reduction_engine.replay_s":
                (incl("reduction_engine.ReductionTrace.replay"), "s"),
            "reduction_engine.project_derived_s":
                (incl("reduction_engine.project_to_derived"), "s"),
            "growth_harness.saturate_s": (incl("growth_harness.saturate"), "s"),
            "growth_harness.echelon_s":
                (self.self_s.get("growth_harness._Echelon.insert", 0.0)
                 + self.self_s.get("growth_harness._Echelon.reduce", 0.0), "s"),
            "growth_harness.ambient_s": (incl("growth_harness.md_series"), "s"),
            "growth_harness.echelon_reductions":
                (calls("growth_harness._Echelon.reduce"), "count"),
            "growth_harness.vectors_kept": (c.get("growth_harness.kept", 0), "count"),
            "growth_harness.kept_ratio":
                (rate(c.get("growth_harness.kept", 0), inserts), "ratio"),
            "characters.hilb_integrable_s": (incl("characters.hilb_integrable"), "s"),
            "characters.euler_product_s": (incl("characters.euler_product"), "s"),
            "characters.count_partitions_s":
                (incl("characters.count_partitions"), "s"),
            "cli.parse_s": (incl("cli.parse"), "s"),
            "cli.format_s": (incl("cli.format"), "s"),
            "cli.command_self_s": (self.layer_self["cli"], "s"),
        }
        for layer in LAYERS[1:-1]:
            out[layer + ".self_s"] = (self.layer_self[layer], "s")
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({
                "spans": {"fields": ["id", "name", "start", "end", "parent"],
                          "rows": self.spans, "dropped": self.dropped},
                "calls": self.calls, "self_s": self.self_s,
                "inclusive_s": self.incl_s, "layer_self_s": self.layer_self,
                "counts": self.counts,
            }, fh)


def _targets(mod):
    """(qualified name, owner, attribute, function, kind) for every
    function and method defined in `mod`; kind is None, 'static' or
    'class'."""
    short = mod.__name__.split(".")[-1]
    for attr, obj in list(vars(mod).items()):
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield "%s.%s" % (short, attr), mod, attr, obj, None
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for mattr, mobj in list(vars(obj).items()):
                kind = None
                if isinstance(mobj, staticmethod):
                    kind, mobj = "static", mobj.__func__
                elif isinstance(mobj, classmethod):
                    kind, mobj = "class", mobj.__func__
                if inspect.isfunction(mobj):
                    yield ("%s.%s.%s" % (short, attr, mattr), obj, mattr, mobj,
                           kind)


def install(tracer, package="loopalg"):
    """Wrap the loopalg modules already imported."""
    mods = [sys.modules["%s.%s" % (package, layer)] for layer in LAYERS]
    replaced = {}
    for mod in mods:
        for name, owner, attr, fn, kind in _targets(mod):
            public = not attr.startswith("_")
            if name in BARE or not (public or name in EXTRA or name in COUNTED):
                continue
            if name == LINE_BRACKET:
                wrapped = tracer._line_bracket(fn)
            elif name in COUNTED:
                wrapped = tracer.counted(COUNTED[name], fn)
            else:
                pre, post = tracer._hooks(name)
                wrapped = tracer.timed(name, fn, post=post, pre=pre)
            if owner is mod:
                replaced[id(fn)] = wrapped
            elif kind == "static":
                setattr(owner, attr, staticmethod(wrapped))
            elif kind == "class":
                setattr(owner, attr, classmethod(wrapped))
            else:
                setattr(owner, attr, wrapped)
    # rebind every module-level name, in every loopalg module, that
    # refers to a wrapped function
    for modname, mod in list(sys.modules.items()):
        if modname == package or modname.startswith(package + "."):
            for attr, obj in list(vars(mod).items()):
                w = replaced.get(id(obj))
                if w is not None:
                    setattr(mod, attr, w)
