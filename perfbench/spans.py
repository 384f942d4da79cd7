"""Spans around calls into grpd's public functions, recorded from outside.

``Tracer.install()`` wraps each listed function and rebinds every
module-level name in the ``grpd`` package that refers to it, so calls made
through names imported elsewhere (``cli`` imports ``validate_groupoid``,
``complexity`` imports ``skeletonize``) and calls within a module are both
seen.  Each call records a span: function, parent span, start, end,
whether it raised, and the op it belongs to.  Spans stay in memory; self
times are computed from the parent links when the run ends.  Names that no
longer exist are skipped and reported.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

MODULES = ("cli", "formats", "core", "groups", "homotopy", "bibundle",
           "complexity", "descent", "corpus")

# the layer boundary: public entry points only; hot helpers such as
# groups.identity_of and element_order stay unwrapped
BOUNDARY = {
    "cli": ["run"],
    "formats": ["parse_document", "parse_files", "serialize_groupoid",
                "serialize_bibundle", "serialize_datum"],
    "core": ["validate_groupoid", "validate_functor", "validate_nat",
             "cocylinder", "are_homotopic", "compose_functors"],
    "groups": ["canonical_form", "is_isomorphic", "enumerate_homs",
               "find_isomorphism"],
    "homotopy": ["skeletonize", "skeleton_equal",
                 "skeletal_equivalence_functor", "homotopy_pullback",
                 "are_morita_homotopy_equivalent"],
    "bibundle": ["validate_bibundle", "tensor", "bibundles_isomorphic",
                 "functor_to_bibundle", "unit_bibundle",
                 "are_morita_equivalent", "is_principal"],
    "complexity": ["cgeo_with_cover", "relative_cgeo", "locus_key"],
    "descent": ["validate_datum", "check_cocycle", "glue", "descend"],
    "corpus": ["inflate"],
}

FUNCTIONS = [f"{mod}.{fn}" for mod in MODULES for fn in BOUNDARY[mod]]

SIZE_COUNTERS = {
    "core.validate_groupoid.comp_entries": "count",
    "core.validate_groupoid.us_per_comp_entry": "us",
    "core.cocylinder.comp_entries_out": "count",
    "homotopy.homotopy_pullback.comp_entries_out": "count",
    "corpus.inflate.comp_entries_out": "count",
    "bibundle.validate_bibundle.carrier_points": "count",
    "groups.canonical_form.order_sum": "count",
    "groups.canonical_form.repeat_share": "share",
    "formats.parse.bytes": "B",
    "formats.serialize.bytes": "B",
    "descent.check_cocycle.overlap_triples": "count",
}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for mod in MODULES:
        units[f"layer.{mod}.self_s"] = "s"
        units[f"layer.{mod}.calls"] = "count"
        units[f"layer.{mod}.errors"] = "count"
    for name in FUNCTIONS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(SIZE_COUNTERS)
    units["trace_overhead_share"] = "share"
    return units


def _text_bytes(text):
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _overlap_triples(datum):
    """Triple-overlap points the cocycle check ranges over."""
    over = {}
    for p in datum.cover.pieces:
        for u in p.elements:
            x = p.to_base[u]
            over[x] = over.get(x, 0) + 1
    return sum(k**3 for k in over.values())


class Tracer:
    def __init__(self):
        # one list per call: [function index, parent span, start, end,
        # raised, op index]
        self.spans = []
        self.stack = []
        self.op = -1
        self.counters = {name: 0 for name in SIZE_COUNTERS}
        self.canonical_calls = 0
        self.canonical_repeats = 0
        self.seen_tables = set()
        self.missing = []
        self.active = [0] * len(FUNCTIONS)

    # -- size counters, from arguments and results as seen by the caller

    def _sizes(self, name, args, kwargs, result):
        c = self.counters
        if name == "core.validate_groupoid":
            c["core.validate_groupoid.comp_entries"] += len(args[0].comp)
        elif name == "core.cocylinder":
            c["core.cocylinder.comp_entries_out"] += len(result.groupoid.comp)
        elif name == "homotopy.homotopy_pullback":
            c["homotopy.homotopy_pullback.comp_entries_out"] += len(
                result.groupoid.comp)
        elif name == "corpus.inflate":
            c["corpus.inflate.comp_entries_out"] += len(result[0].comp)
        elif name == "bibundle.validate_bibundle":
            c["bibundle.validate_bibundle.carrier_points"] += len(
                args[0].carrier)
        elif name == "groups.canonical_form":
            table = args[0]
            c["groups.canonical_form.order_sum"] += len(table)
            self.canonical_calls += 1
            if table in self.seen_tables:
                self.canonical_repeats += 1
            else:
                self.seen_tables.add(table)
        elif name == "formats.parse_document":
            text = args[0] if args else kwargs["text"]
            c["formats.parse.bytes"] += _text_bytes(text)
        elif name.startswith("formats.serialize_"):
            c["formats.serialize.bytes"] += _text_bytes(result)
        elif name == "descent.check_cocycle":
            c["descent.check_cocycle.overlap_triples"] += _overlap_triples(
                args[0])

    def _wrap(self, index, fn):
        name = FUNCTIONS[index]
        spans, stack, active = self.spans, self.stack, self.active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, stack[-1] if stack else -1, 0.0, 0.0, False,
                    self.op]
            stack.append(len(spans))
            spans.append(span)
            active[index] += 1
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
                active[index] -= 1
            # recursive calls (homotopy_pullback of degree n) count their
            # sizes once, at the outermost call
            if not active[index]:
                self._sizes(name, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every listed function and rebind all names for it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "grpd" or key.startswith("grpd.")) and m]
        for index, name in enumerate(FUNCTIONS):
            mod_name, fn_name = name.split(".")
            fn = getattr(sys.modules.get(f"grpd.{mod_name}"), fn_name, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(index, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
        return self

    # -- results

    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        spans = self.spans
        own = [s[3] - s[2] for s in spans]
        for s in spans:
            if s[1] >= 0:
                own[s[1]] -= s[3] - s[2]
        return own

    def metrics(self):
        own = self.self_times()
        fn_self = [0.0] * len(FUNCTIONS)
        fn_calls = [0] * len(FUNCTIONS)
        fn_errors = [0] * len(FUNCTIONS)
        for s, t in zip(self.spans, own):
            fn_self[s[0]] += t
            fn_calls[s[0]] += 1
            fn_errors[s[0]] += s[4]
        out = {}
        for mod in MODULES:
            idx = [i for i, n in enumerate(FUNCTIONS)
                   if n.startswith(mod + ".")]
            out[f"layer.{mod}.self_s"] = sum(fn_self[i] for i in idx)
            out[f"layer.{mod}.calls"] = sum(fn_calls[i] for i in idx)
            out[f"layer.{mod}.errors"] = sum(fn_errors[i] for i in idx)
        for i, name in enumerate(FUNCTIONS):
            out[f"{name}.self_s"] = fn_self[i]
            out[f"{name}.calls"] = fn_calls[i]
        out.update(self.counters)
        entries = self.counters["core.validate_groupoid.comp_entries"]
        validate = FUNCTIONS.index("core.validate_groupoid")
        out["core.validate_groupoid.us_per_comp_entry"] = (
            fn_self[validate] / entries * 1e6 if entries else 0.0)
        out["groups.canonical_form.repeat_share"] = (
            self.canonical_repeats / self.canonical_calls
            if self.canonical_calls else 0.0)
        return out

    def op_self_sums(self):
        """Sum of span self times per op index."""
        sums = {}
        for s, t in zip(self.spans, self.self_times()):
            sums[s[5]] = sums.get(s[5], 0.0) + t
        return sums
