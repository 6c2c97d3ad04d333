"""Per-layer tracing from outside the engine.

``Tracer.install`` wraps public functions of each ``propnet`` module and
rebinds every name that refers to them, in every loaded ``propnet`` module,
so calls through ``from .x import f`` bindings are seen too.  Methods are
wrapped on their class.  Nothing in the engine changes; ``uninstall`` puts
every original back.

Each wrapped call outside the scalar layer records a span
``(name, start, end, parent, item, agg)``; ``agg`` is the time spent in
scalar calls directly under the span plus the tracer's own bookkeeping for
its children.  The scalar layer runs tens of thousands of times per item,
so it keeps counts and self time only.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# (module, attribute path, layer name) of every span-recorded function.
SPAN_TARGETS = (
    ("exactla", "rref", "exactla.rref"),
    ("exactla", "kernel", "exactla.kernel"),
    ("term", "evaluate", "term.evaluate"),
    ("term", "arity", "term.arity"),
    ("term", "parse_term", "term.parse"),
    ("setprops", "Corelation.compose", "setprops.compose"),
    ("setprops", "Cospan.compose", "setprops.compose"),
    ("setprops", "NatSpan.compose", "setprops.compose"),
    ("setprops", "BoolRel.compose", "setprops.compose"),
    ("circuit", "LCircuit.compose", "circuit.compose"),
    ("circuit", "circuit_from_json", "circuit.from_json"),
    ("linrel", "LinRel.compose", "linrel.compose"),
    ("linrel", "LinRel.tensor", "linrel.tensor"),
    ("linrel", "blackbox", "linrel.blackbox"),
    ("afflag", "AffRel.compose", "afflag.compose"),
    ("afflag", "AffRel.tensor", "afflag.tensor"),
    ("afflag", "aff_blackbox", "afflag.aff_blackbox"),
    ("sigflow", "translate_T", "sigflow.translate"),
    ("sigflow", "box_eval", "sigflow.box_eval"),
    ("sigflow", "square_check", "sigflow.square_check"),
    ("bondgraph", "check_naturality", "bondgraph.check_naturality"),
    ("cli", "main", "cli.main"),
)
SCALAR_TARGETS = (
    ("scalar", "RatFunc.__init__", "scalar.ratfunc"),
    ("scalar", "poly_gcd", "scalar.poly_gcd"),
)
# Self-recursive through their module global: one span for the outermost
# call, and no extra stack frame per level, so deep terms hit the
# recursion limit at the same depth as untraced.
RECURSIVE = {"term.arity", "sigflow.translate"}

# Which layers each workload must reach (count > 0) and must not (count 0).
EXPECTED = {
    "blackbox_qs": (
        {"scalar.ratfunc", "scalar.poly_gcd", "exactla.rref",
         "exactla.kernel", "linrel.blackbox", "afflag.aff_blackbox",
         "circuit.from_json"},
        {"linrel.compose", "linrel.tensor", "afflag.compose",
         "afflag.tensor", "term.evaluate", "setprops.compose",
         "circuit.compose", "sigflow.translate", "sigflow.square_check",
         "bondgraph.check_naturality", "cli.main"}),
    "terms_qs": (
        {"scalar.ratfunc", "scalar.poly_gcd", "exactla.rref",
         "exactla.kernel", "linrel.compose", "linrel.tensor",
         "linrel.blackbox", "term.evaluate", "term.arity",
         "term.parse", "circuit.compose", "sigflow.translate",
         "sigflow.box_eval", "sigflow.square_check", "cli.main"},
        {"afflag.compose", "afflag.tensor", "afflag.aff_blackbox",
         "setprops.compose", "circuit.from_json",
         "bondgraph.check_naturality"}),
    "audit_q": (
        {"exactla.rref", "exactla.kernel", "linrel.compose",
         "linrel.tensor", "afflag.compose", "term.evaluate", "term.arity",
         "term.parse", "setprops.compose", "bondgraph.check_naturality",
         "cli.main"},
        {"scalar.ratfunc", "scalar.poly_gcd", "linrel.blackbox",
         "afflag.aff_blackbox", "circuit.compose", "circuit.from_json",
         "sigflow.translate", "sigflow.square_check"}),
}


def _resolve(module, path):
    """(owner, attribute) for 'f' or 'Class.method', or None if absent."""
    owner = module
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


def _is_const(x):
    return isinstance(x, (int, Fraction)) or len(x.coeffs) <= 1


def _is_zero(x):
    return x == 0 if isinstance(x, (int, Fraction)) else not x.coeffs


def self_times(spans):
    """Self time per span: its duration minus the part of it that its
    child spans cover, minus its ``agg`` time."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_name, start, end, _parent, _item, agg) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2])
                             for c in children[idx]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered - agg)
    return out


def loglog_slope(points):
    """Least-squares slope of log(y) against log(x)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _y in pts}) < 2:
        return 0.0
    mx = sum(x for x, _y in pts) / len(pts)
    my = sum(y for _x, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _y in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


class Tracer:
    def __init__(self):
        self.spans = []
        self.open = []          # indexes of spans still running
        self.agg = [0.0]        # ``agg`` time of each open frame
        self.item = -1
        self.counts = Counter()
        self.self_s = Counter()
        self.props = Counter()
        self.missing = []
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn, hook=None):
        spans, open_, agg = self.spans, self.open, self.agg

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            agg.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[idx] = (name, start, end, parent, self.item, agg.pop())
            if hook is not None:
                hook(args, result)
            # the tracer's own bookkeeping is not the parent's self time
            agg[-1] += perf_counter() - end
            return result

        return wrapper

    def _scalar_wrapper(self, name, fn, hook):
        agg, counts, self_s = self.agg, self.counts, self.self_s

        def wrapper(*args, **kwargs):
            agg.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self_s[name] += took - agg.pop()
                agg[-1] += took
                counts[name] += 1
            mark = perf_counter()
            hook(args, kwargs, result)
            agg[-1] += perf_counter() - mark
            return result

        return wrapper

    # -- per-layer properties ---------------------------------------------

    def _ratfunc_hook(self, args, kwargs, _result):
        rf, num = args[0], args[1]
        den = args[2] if len(args) > 2 else kwargs.get("den")
        props = self.props
        props["ratfunc_const"] += (_is_zero(num) or (
            _is_const(num) and (den is None or _is_const(den))))
        coeffs = rf.num.coeffs + rf.den.coeffs
        props["max_degree"] = max(props["max_degree"],
                                  len(rf.num.coeffs) - 1,
                                  len(rf.den.coeffs) - 1)
        props["max_coeff_bits"] = max(
            props["max_coeff_bits"],
            max(max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in coeffs))

    def _gcd_hook(self, _args, _kwargs, result):
        self.props["gcd_trivial"] += (len(result.coeffs) == 1
                                      and result.coeffs[0] == 1)

    def _rref_hook(self, args, result):
        rows = [list(r) for r in args[0]]
        props = self.props
        props["rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)
        props["rref_max_cols"] = max(props["rref_max_cols"],
                                     len(rows[0]) if rows else 0)
        props["rref_noop"] += result[0] == rows

    def _ambient_hook(self, _args, result):
        self.props["max_ambient"] = max(self.props["max_ambient"],
                                        result.space.ambient)

    # -- install / uninstall ----------------------------------------------

    def install(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "propnet"
                                      or name.startswith("propnet."))]
        hooks = {"exactla.rref": self._rref_hook,
                 "linrel.compose": self._ambient_hook,
                 "linrel.tensor": self._ambient_hook}
        scalar_hooks = {"scalar.ratfunc": self._ratfunc_hook,
                        "scalar.poly_gcd": self._gcd_hook}
        for modname, path, name in SCALAR_TARGETS + SPAN_TARGETS:
            home = sys.modules.get("propnet." + modname)
            found = _resolve(home, path) if home is not None else None
            if found is None:
                self.missing.append(f"{modname}.{path}")
                continue
            owner, attr = found
            fn = vars(owner)[attr]
            if name in scalar_hooks:
                wrapper = self._scalar_wrapper(name, fn, scalar_hooks[name])
            else:
                wrapper = self._span_wrapper(name, fn, hooks.get(name))
            if name in RECURSIVE:
                wrapper = self._outermost(home, attr, fn, wrapper)
            if isinstance(owner, type):
                self._rebind(owner, attr, fn, wrapper)
                continue
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, key, fn, wrapper)

    def _outermost(self, home, attr, fn, wrapper):
        """While the call runs, the module global is the original, so the
        recursion inside it is not traced."""
        def outer(*args, **kwargs):
            before = getattr(home, attr)
            setattr(home, attr, fn)
            try:
                return wrapper(*args, **kwargs)
            finally:
                setattr(home, attr, before)
        return outer

    def _rebind(self, owner, attr, fn, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, fn))

    def uninstall(self):
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    # -- results ----------------------------------------------------------

    def take_spans(self):
        """Fold the recorded spans into the counters and return them."""
        spans = list(self.spans)
        self.spans.clear()
        selfs = self_times(spans)
        for span, own in zip(spans, selfs):
            self.counts[span[0]] += 1
            self.self_s[span[0]] += own
        return spans

    def coverage_violations(self, workload):
        """Layers the workload should reach but did not, or reached but
        should not."""
        must, must_not = EXPECTED[workload]
        out = [f"{name} never called" for name in sorted(must)
               if not self.counts[name]]
        out += [f"{name} called {self.counts[name]} times"
                for name in sorted(must_not) if self.counts[name]]
        return out
