"""Span recorder that times calls into cliquedim from outside the library.

Each traced function is replaced, in every cliquedim module namespace that
binds it, by a wrapper that records a span (name, start, end, parent span)
and reads work counts off the call's arguments and return value.  Spans stay
in memory; `write` dumps them once the run is over.  A span's self time is
its duration minus the time its direct child spans cover, with host-probe
time left out and the rest scaled to reference host speed (calibrate.py).
Calls are single threaded, so child spans never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from cliquedim import DimensionValue, EXACT, ResourceLimitError


def _lp_cells(counts, args, kwargs, result):
    counts["simplex.lp_cells"] += args[0] * len(args[1])


def _graph_size(counts, args, kwargs, result):
    counts["graph.vertices"] += result.num_vertices
    counts["graph.edges"] += result.num_edges


def _sets(counts, args, kwargs, result):
    counts["graph.sets"] += len(result)


def _exactness(counts, args, kwargs, result):
    if isinstance(result, DimensionValue):
        counts["dimensions.dimension_answers"] += 1
        counts["dimensions.exact_answers"] += result.exactness == EXACT


def _draws(counts, args, kwargs, result):
    counts["boosting.draws"] += len(result)


def _mc_trials(counts, args, kwargs, result):
    counts["boosting.mc_trials"] += result.trials


# (layer, module, function, counter or None).  `trees` and `errors` do
# negligible work and are not traced.
TRACED = (
    ("simplex", "cliquedim.simplex", "solve_packing_lp", _lp_cells),
    ("graph", "cliquedim.graph", "build_graph", _graph_size),
    ("graph", "cliquedim.graph", "independent_sets", _sets),
    ("cliques", "cliquedim.cliques", "max_clique", None),
    ("cliques", "cliquedim.cliques", "has_clique_of_size", None),
    ("cliques", "cliquedim.cliques", "tree_from_clique", None),
    ("cliques", "cliquedim.cliques", "find_balanced_point", None),
    ("fractional", "cliquedim.fractional", "omega_star", None),
    ("fractional", "cliquedim.fractional", "validate_packing", None),
    ("fractional", "cliquedim.fractional", "validate_cover", None),
    ("dimensions", "cliquedim.dimensions", "clique_dimension", _exactness),
    ("dimensions", "cliquedim.dimensions", "fractional_clique_dimension", _exactness),
    ("dimensions", "cliquedim.dimensions", "fcd_alpha_cutoff", None),
    ("dimensions", "cliquedim.dimensions", "littlestone_dimension", None),
    ("dimensions", "cliquedim.dimensions", "vc_dimension", None),
    ("dimensions", "cliquedim.dimensions", "dimension_report", None),
    ("boosting", "cliquedim.boosting", "draw_patterns", _draws),
    ("boosting", "cliquedim.boosting", "run_expert_game", None),
    ("boosting", "cliquedim.boosting", "forced_gamma_good_check", None),
    ("boosting", "cliquedim.boosting", "verify_sspfcd_bound", _mc_trials),
    ("boosting", "cliquedim.boosting", "mu_tilde", None),
    ("boosting", "cliquedim.boosting", "small_pop_err_check", None),
    ("boosting", "cliquedim.boosting", "numeric_lemma_checks", None),
    ("cli", "cliquedim.cli", "main", None),
    ("concepts", "cliquedim.concepts", "generate", None),
)

# Functions whose budget exhaustion is counted as `cliques.budget_hits`.
_BUDGETED = {"cliques.max_clique", "cliques.has_clique_of_size"}


class SpanRecorder:
    """Installs wrappers on the TRACED functions and collects their spans."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._restore: list = []  # (module, attribute, original)

    def _wrap(self, name: str, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        budgeted = name in _BUDGETED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ResourceLimitError as exc:
                if budgeted and exc.dimension == "node-budget":
                    counts["cliques.budget_hits"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of each traced function, including re-exports
        in other cliquedim modules and the package root."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "cliquedim" or key.startswith("cliquedim."))
        ]
        for layer, module_name, func, counter in TRACED:
            original = getattr(sys.modules[module_name], func)
            wrapper = self._wrap(f"{layer}.{func}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def self_times(self, span_time) -> dict:
        """Total self time per span name.  `span_time(start, end)` gives a
        span's (seconds, scale); a self time is the span's seconds less its
        children's, times the span's own scale."""
        timed = [span_time(start, end) for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += timed[i][0]
        out: dict = defaultdict(float)
        for i, (name, _, _, _) in enumerate(self.spans):
            seconds, scale = timed[i]
            out[name] += (seconds - child[i]) * scale
        return out

    def calls(self) -> dict:
        out: dict = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def write(self, path: str) -> None:
        """One tab-separated line per span: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


# Per-layer metrics of a traced run: (name, unit).  Calls, self times and
# work counts are per traced pass; `concepts.generate.self_s` adds the
# set-up's calls, where the workload's classes are generated.
_CALLS = (
    "simplex.solve_packing_lp", "graph.build_graph", "graph.independent_sets",
    "cliques.max_clique", "cliques.has_clique_of_size", "cliques.find_balanced_point",
    "fractional.omega_star", "dimensions.fcd_alpha_cutoff", "boosting.draw_patterns",
    "cli.main",
)
_SELF = (
    "simplex.solve_packing_lp", "graph.build_graph", "graph.independent_sets",
    "cliques.max_clique", "cliques.has_clique_of_size", "cliques.tree_from_clique",
    "fractional.omega_star", "fractional.validate_packing", "fractional.validate_cover",
    "dimensions.clique_dimension", "dimensions.fractional_clique_dimension",
    "dimensions.fcd_alpha_cutoff", "dimensions.littlestone_dimension",
    "dimensions.vc_dimension", "dimensions.dimension_report",
    "boosting.draw_patterns", "boosting.run_expert_game",
    "boosting.forced_gamma_good_check", "boosting.verify_sspfcd_bound",
    "boosting.mu_tilde", "boosting.small_pop_err_check", "boosting.numeric_lemma_checks",
    "cli.main",
)
_COUNTS = (
    "simplex.lp_cells", "graph.vertices", "graph.edges", "graph.sets",
    "cliques.budget_hits", "boosting.draws", "boosting.mc_trials",
)

PER_LAYER = (
    [(f"{name}.calls", "count") for name in _CALLS]
    + [(f"{name}.self_s", "s") for name in _SELF]
    + [(name, "count") for name in _COUNTS]
    + [
        ("dimensions.exact_ratio", "ratio"),
        ("concepts.generate.self_s", "s"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
    ]
)


def per_layer_metrics(setup: SpanRecorder, passes: SpanRecorder, n_passes: int,
                      overhead_s: float, span_time) -> dict:
    """name -> (value, unit) for every PER_LAYER metric, with span times
    from `span_time` as in `SpanRecorder.self_times`.  A layer the workload
    does not reach reads 0; so does `exact_ratio` when the workload asks for
    no dimension."""
    calls = passes.calls()
    self_s = passes.self_times(span_time)
    values = {}
    for name in _CALLS:
        values[f"{name}.calls"] = calls[name] / n_passes
    for name in _SELF:
        values[f"{name}.self_s"] = self_s[name] / n_passes
    for name in _COUNTS:
        values[name] = passes.counts[name] / n_passes
    answers = passes.counts["dimensions.dimension_answers"]
    values["dimensions.exact_ratio"] = (
        passes.counts["dimensions.exact_answers"] / answers if answers else 0.0
    )
    values["concepts.generate.self_s"] = (
        setup.self_times(span_time)["concepts.generate"] + self_s["concepts.generate"] / n_passes
    )
    values["trace.spans"] = len(passes.spans) / n_passes
    values["trace.overhead_s"] = overhead_s
    return {name: (values[name], unit) for name, unit in PER_LAYER}
