"""Span tracing for the traced run, installed from outside the package.

``Tracer.install`` replaces the traced public functions wherever a module
of the package looks them up (its module attributes, including names
imported from sibling modules), so nested calls such as
``colorful_check -> find_complete_tuple`` or ``hill_climb -> max_clique``
are caught as well.  Each call records a span (operation, parent span,
name, start, end) kept in memory until ``write`` saves them; a few calls
also add work counts read from their arguments or results.
``boxes_intersect`` runs once per tested subfamily, so it is only counted.
``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
from collections import Counter, defaultdict
from time import perf_counter_ns

PACKAGE = "cliquecert"

SPANNED = {
    "cli": ("main",),
    "forbidden": ("find_complete_tuple", "verify_complete_tuple"),
    "geometry": ("build_nerve", "colorful_check", "fractional_helly_pipeline"),
    "extractor": ("extract_graph", "extract_hypergraph", "shrink_step", "score_tau"),
    "core": ("hypergraph_from_dict", "max_clique", "count_m_cliques", "greedy_extend_clique"),
    "search": ("hill_climb",),
}
COUNTED = {"geometry": ("boxes_intersect",)}
FROM_INSTANCE = "search.FrontierRecord.from_instance"

# Counts that depend only on the traced operations, never on timing: two
# traced runs of one seed must give identical values.
DETERMINISTIC = (
    "forbidden.find_complete_tuple_calls",
    "forbidden.nodes",
    "forbidden.exhausted_ratio",
    "forbidden.verify_calls",
    "geometry.build_nerve_calls",
    "geometry.intersect_tests",
    "geometry.degraded",
    "extractor.extract_hypergraph_calls",
    "extractor.shrink_step_calls",
    "extractor.family_size",
    "extractor.rounds",
    "extractor.fallback_ratio",
    "core.max_clique_calls",
    "core.count_m_cliques_calls",
    "search.iterations",
    "search.accept_ratio",
    "search.omega_reject_ratio",
    "search.tuple_reject_ratio",
    "cli.report_bytes",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # One row per span: [op, parent span or -1, name id, start ns, end ns].
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.climb_caps: dict[int, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _parent_is(self, parent: int, name: str) -> bool:
        return parent >= 0 and self.names[self.spans[parent][2]] == name

    def _observe(self, name: str, parent: int, args, result) -> None:
        c = self.counts
        if name == "forbidden.find_complete_tuple":
            c["forbidden.nodes"] += result.nodes
            c["forbidden.exhausted"] += result.verdict.value == "exhausted"
            if self._parent_is(parent, "search.hill_climb"):
                key = "accepts" if result.verdict.value == "absent" else "tuple_rejects"
                c["search." + key] += 1
        elif name == "core.max_clique" and self._parent_is(parent, "search.hill_climb"):
            c["search.omega_rejects"] += len(result.vertices) > self.climb_caps[parent]
        elif name == "extractor.extract_hypergraph":
            c["extractor.family_size"] += sum(result.trace.family_sizes)
            c["extractor.rounds"] += len(result.trace.chosen_taus)
            c["extractor.fallbacks"] += result.trace.fallback
        elif name == "geometry.fractional_helly_pipeline":
            c["geometry.degraded"] += result.degraded
        elif name == "search.hill_climb":
            config = args[0]
            c["search.iterations"] += config.iterations * config.restarts

    def _span(self, fn, name: str):
        nid = self._name_id(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            row = [self.op, parent, nid, perf_counter_ns(), 0]
            spans.append(row)
            if name == "search.hill_climb":
                self.climb_caps[sid] = args[0].omega_cap
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[4] = perf_counter_ns()
                stack.pop()
            self._observe(name, parent, args, result)
            return result

        return wrapper

    def _counter(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        wrappers = {}
        for table, make in ((SPANNED, self._span), (COUNTED, self._counter)):
            for layer, names in table.items():
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
                for attr in names:
                    fn = getattr(mod, attr)
                    wrappers[id(fn)] = (fn, make(fn, f"{layer}.{attr}"))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])
        record = importlib.import_module(f"{PACKAGE}.search").FrontierRecord
        original = vars(record)["from_instance"]
        self._restore.append((record, "from_instance", original))
        record.from_instance = classmethod(self._span(original.__func__, FROM_INSTANCE))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics over every traced span.

        Times are totals in seconds; a self time is the span's time minus
        the time of its child spans.  Ratios are 0 where their base is 0.
        """
        calls: Counter = Counter()
        total: defaultdict = defaultdict(int)
        own: defaultdict = defaultdict(int)
        for op, parent, nid, t0, t1 in self.spans:
            name = self.names[nid]
            calls[name] += 1
            total[name] += t1 - t0
            own[name] += t1 - t0
            if parent >= 0:
                own[self.names[self.spans[parent][2]]] -= t1 - t0

        def s(table, name):
            return table[name] / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        fct = "forbidden.find_complete_tuple"
        iters = c["search.iterations"]
        return {
            "forbidden.find_complete_tuple_calls": calls[fct],
            "forbidden.find_complete_tuple_s": s(total, fct),
            "forbidden.nodes": c["forbidden.nodes"],
            "forbidden.nodes_per_s": ratio(c["forbidden.nodes"], s(total, fct)),
            "forbidden.exhausted_ratio": ratio(c["forbidden.exhausted"], calls[fct]),
            "forbidden.verify_calls": calls["forbidden.verify_complete_tuple"],
            "forbidden.verify_s": s(total, "forbidden.verify_complete_tuple"),
            "geometry.build_nerve_calls": calls["geometry.build_nerve"],
            "geometry.build_nerve_s": s(total, "geometry.build_nerve"),
            "geometry.colorful_check_self_s": s(own, "geometry.colorful_check"),
            "geometry.intersect_tests": c["geometry.boxes_intersect"],
            "geometry.pipeline_self_s": s(own, "geometry.fractional_helly_pipeline"),
            "geometry.degraded": c["geometry.degraded"],
            "extractor.extract_graph_s": s(total, "extractor.extract_graph"),
            "extractor.extract_hypergraph_calls": calls["extractor.extract_hypergraph"],
            "extractor.extract_hypergraph_self_s": s(own, "extractor.extract_hypergraph"),
            "extractor.shrink_step_calls": calls["extractor.shrink_step"],
            "extractor.shrink_step_self_s": s(own, "extractor.shrink_step"),
            "extractor.score_tau_s": s(total, "extractor.score_tau"),
            "extractor.family_size": c["extractor.family_size"],
            "extractor.rounds": c["extractor.rounds"],
            "extractor.fallback_ratio": ratio(
                c["extractor.fallbacks"], calls["extractor.extract_hypergraph"]
            ),
            "core.hypergraph_from_dict_s": s(total, "core.hypergraph_from_dict"),
            "core.max_clique_calls": calls["core.max_clique"],
            "core.max_clique_s": s(total, "core.max_clique"),
            "core.count_m_cliques_calls": calls["core.count_m_cliques"],
            "core.count_m_cliques_s": s(total, "core.count_m_cliques"),
            "core.greedy_extend_clique_s": s(total, "core.greedy_extend_clique"),
            "search.hill_climb_s": s(total, "search.hill_climb"),
            "search.iterations": iters,
            "search.iters_per_s": ratio(iters, s(total, "search.hill_climb")),
            "search.accept_ratio": ratio(c["search.accepts"], iters),
            "search.omega_reject_ratio": ratio(c["search.omega_rejects"], iters),
            "search.tuple_reject_ratio": ratio(c["search.tuple_rejects"], iters),
            "cli.main_self_s": s(own, "cli.main"),
        }

    def write(self, path: str, header: dict) -> None:
        """Save the spans as JSON: a name table plus one row per span."""
        with open(path, "w") as fh:
            json.dump(
                {
                    **header,
                    "columns": ["op", "parent", "name", "start_ns", "end_ns"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
