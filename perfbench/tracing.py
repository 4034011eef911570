"""Per-layer spans recorded from outside the library.

The tracer replaces each public function of the traced modules with a
wrapper, in every ``stellarpair`` module namespace that binds it (modules
bind names at import, so patching only the defining module would miss
calls such as ``pairs`` -> ``classify_pair``).  ``SimplicialComplex.validate``
is patched on the class.  Spans (name, start, end, parent) are kept in
compact arrays while the run lasts and written out when it ends; totals,
self times and the work counts that the benchmark reports are accumulated
as spans close.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

PACKAGE = "stellarpair"
TRACED_MODULES = (
    "pairs",
    "inducedness",
    "subdivision",
    "contraction",
    "complexes",
    "canonical",
    "search",
    "io",
)

# ``as_simplex`` coerces arguments on every face-membership test; wrapping it
# would turn the trace into a measurement of the wrapper itself.
UNTRACED = frozenset({"complexes.as_simplex"})


class Tracer:
    """Wraps the library's public functions; records spans while enabled."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self._stack: list[list] = []  # [span index, name, start, child seconds]
        self._originals: list[tuple[object, str, object]] = []
        self._observers = _observers(self)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = {
            name: sys.modules[f"{PACKAGE}.{name}"] for name in TRACED_MODULES
        }
        wrappers: dict[int, object] = {}
        for short, module in modules.items():
            for attr, fn in vars(module).items():
                qual = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or qual in UNTRACED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrappers[id(fn)] = self._wrap(qual, fn)
        namespaces = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None:
                    self._originals.append((ns, attr, value))
                    setattr(ns, attr, wrapped)
        cls = modules["complexes"].SimplicialComplex
        self._originals.append((cls, "validate", cls.validate))
        cls.validate = self._wrap("complexes.validate", cls.validate)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._originals):
            setattr(owner, attr, value)
        self._originals.clear()

    def _wrap(self, qual: str, fn):
        tracer = self
        enter, leave = self._enter, self._leave
        observe = self._observers.get(qual)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            enter(qual)
            try:
                out = fn(*args, **kwargs)
            finally:
                leave()
            if observe is not None:
                observe(args, out)
            return out

        return traced

    # -- spans ----------------------------------------------------------

    def _name_id(self, qual: str) -> int:
        got = self._ids.get(qual)
        if got is None:
            got = self._ids[qual] = len(self.names)
            self.names.append(qual)
        return got

    def _enter(self, qual: str) -> None:
        idx = len(self.span_name)
        self.span_name.append(self._name_id(qual))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self.active[qual] += 1
        now = time.perf_counter()
        self.span_start.append(now)
        self._stack.append([idx, qual, now, 0.0])

    def _leave(self) -> None:
        now = time.perf_counter()
        idx, qual, start, child = self._stack.pop()
        self.span_end[idx] = now
        dur = now - start
        self.active[qual] -= 1
        if self.active[qual] == 0:
            self.total_s[qual] += dur  # outermost occurrence only, so recursion is not counted twice
        self.self_s[qual] += dur - child
        self.calls[qual] += 1
        if self._stack:
            self._stack[-1][3] += dur

    def write_spans(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(
                    f"{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\n"
                )


def _observers(tracer: Tracer) -> dict:
    """Work counts recorded at the same boundaries as the spans."""
    counts = tracer.counts

    def strong(args, out):
        counts["inducedness.scan_facets"] += len(args[1].facets)
        if out.verdict == "not_strongly_induced":
            counts["inducedness.witness_returned"] += 1

    def biased(args, out):
        counts["subdivision.biased_derived.out_facets"] += len(out[0].facets)

    def validate(args, out):
        counts["complexes.validate.facets"] += len(args[0].facets)

    def valid_edge(args, out):
        counts["contraction.is_valid_edge.valid"] += bool(out)

    def form(args, out):
        if tracer.active["search.search_script"]:
            counts["search.forms_in_search"] += 1

    def found(args, out):
        counts["search.found"] += out is not None

    def serialized(args, out):
        counts["io.out_bytes"] += len(out.encode("utf-8"))

    return {
        "inducedness.is_strongly_induced": strong,
        "subdivision.biased_derived": biased,
        "complexes.validate": validate,
        "contraction.is_valid_edge": valid_edge,
        "canonical.canonical_form": form,
        "search.search_script": found,
        "io.serialize_complex_document": serialized,
        "io.serialize_script_document": serialized,
        "io.serialize_report": serialized,
    }


def layer_metrics(tracer: Tracer, ops: int, traced_ops_per_s: float, untraced_ops_per_s: float) -> dict:
    """The per-layer metrics, normalised per op of the traced passes."""
    t, s, c, n = tracer.total_s, tracer.self_s, tracer.calls, tracer.counts
    per_op = 1.0 / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def io_time(prefix: str) -> float:
        return sum(v for k, v in t.items() if k.startswith(prefix))

    values = {
        "inducedness.classify_pair.s": (t["inducedness.classify_pair"] * per_op, "s/op"),
        "inducedness.is_strongly_induced.s": (t["inducedness.is_strongly_induced"] * per_op, "s/op"),
        "inducedness.is_strongly_induced.calls": (c["inducedness.is_strongly_induced"] * per_op, "count/op"),
        "inducedness.is_induced.s": (t["inducedness.is_induced"] * per_op, "s/op"),
        "inducedness.is_induced.calls": (c["inducedness.is_induced"] * per_op, "count/op"),
        "inducedness.witness_returned": (n["inducedness.witness_returned"] * per_op, "count/op"),
        "inducedness.scan_facets": (n["inducedness.scan_facets"] * per_op, "count/op"),
        "subdivision.biased_derived.s": (t["subdivision.biased_derived"] * per_op, "s/op"),
        "subdivision.biased_derived.calls": (c["subdivision.biased_derived"] * per_op, "count/op"),
        "subdivision.biased_derived.out_facets": (n["subdivision.biased_derived.out_facets"] * per_op, "count/op"),
        "subdivision.edge_subdivide.s": (t["subdivision.edge_subdivide"] * per_op, "s/op"),
        "subdivision.derived_subdivision.s": (t["subdivision.derived_subdivision"] * per_op, "s/op"),
        "complexes.validate.s": (t["complexes.validate"] * per_op, "s/op"),
        "complexes.validate.calls": (c["complexes.validate"] * per_op, "count/op"),
        "complexes.validate.facets": (n["complexes.validate.facets"] * per_op, "count/op"),
        "complexes.f_vector.s": (t["complexes.f_vector"] * per_op, "s/op"),
        "contraction.contract_edge.s": (t["contraction.contract_edge"] * per_op, "s/op"),
        "contraction.contract_edge.calls": (c["contraction.contract_edge"] * per_op, "count/op"),
        "contraction.blocking_missing_simplices.s": (t["contraction.blocking_missing_simplices"] * per_op, "s/op"),
        "contraction.is_valid_edge.s": (t["contraction.is_valid_edge"] * per_op, "s/op"),
        "contraction.is_valid_edge.valid_ratio": (
            ratio(n["contraction.is_valid_edge.valid"], c["contraction.is_valid_edge"]),
            "ratio",
        ),
        "canonical.canonical_form.s": (t["canonical.canonical_form"] * per_op, "s/op"),
        "canonical.canonical_form.calls": (c["canonical.canonical_form"] * per_op, "count/op"),
        "canonical.isomorphism.s": (t["canonical.isomorphism"] * per_op, "s/op"),
        "search.search_script.self_s": (s["search.search_script"] * per_op, "s/op"),
        "search.forms_per_search": (
            ratio(n["search.forms_in_search"], c["search.search_script"]),
            "count/search",
        ),
        "search.found_ratio": (ratio(n["search.found"], c["search.search_script"]), "ratio"),
        "pairs.pair_biased.self_s": (s["pairs.pair_biased"] * per_op, "s/op"),
        "pairs.pair_subdivide_edge.self_s": (s["pairs.pair_subdivide_edge"] * per_op, "s/op"),
        "pairs.pair_contract_edge.self_s": (s["pairs.pair_contract_edge"] * per_op, "s/op"),
        "pairs.pipeline_run.self_s": (s["pairs.pipeline_run"] * per_op, "s/op"),
        "io.parse.s": (io_time("io.parse_") * per_op, "s/op"),
        "io.serialize.s": (io_time("io.serialize_") * per_op, "s/op"),
        "io.out_bytes": (n["io.out_bytes"] * per_op, "B/op"),
        "trace.ops_per_s": (traced_ops_per_s, "1/s"),
        "trace.overhead": (ratio(untraced_ops_per_s, traced_ops_per_s), "x"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
