"""Spans around the layer calls that ``opaq.cli`` and ``opaq.crosscheck`` make.

The program is not edited.  :func:`installed` rebinds, for the duration of a
``with`` block, the names those two modules imported from the layer modules
to wrappers that record a span (name, start, end, parent, call id) and the
size of the structure returned.  Spans stay in memory; :func:`layer_metrics`
turns them into per-layer self time and counts.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

# Module-level name -> span name.  Every module in TRACED_MODULES gets a
# wrapper for each of these names it has: the layer functions it imported,
# and crosscheck's own structural-check step.
SPAN_OF = {
    "load_model": "core.load",
    "build_observer": "observer.build",
    "build_sipa": "projection.sipa_build",
    "verify_current_state_opacity": "weak.cs",
    "verify_k_step_weak": "weak.k_search",
    "verify_infinite_step_weak": "weak.inf_search",
    "build_weak_state_tree": "weak.tree_build",
    "verify_k_step_strong": "strong.k_search",
    "verify_infinite_step_strong": "strong.inf_search",
    "build_sst": "strong.sst_build",
    "build_verifier": "strong.verifier_build",
    "oracle_k_step_weak": "oracle.k_weak",
    "oracle_k_step_strong": "oracle.k_strong",
    "oracle_infinite_step_weak": "oracle.inf_weak",
    "oracle_infinite_step_strong": "oracle.inf_strong",
    "replay_weak_violation": "oracle.replay",
    "replay_strong_violation": "oracle.replay",
    "replay_infinite_strong_violation": "oracle.replay",
    "random_nfa": "oracle.random_nfa",
    "run_crosscheck": "crosscheck.run",
    "_structural_checks": "crosscheck.structural",
}
TRACED_MODULES = ("opaq.cli", "opaq.crosscheck")

# Span name -> size of the structure it returned, as {count name: value}.
SIZE_OF = {
    "observer.build": lambda obs: {"observer.estimates": len(obs.states)},
    "projection.sipa_build": lambda sipa: {
        "projection.sipa_states": len(sipa.states),
        "projection.sipa_transitions": len(sipa.transitions),
    },
    "weak.tree_build": lambda tree: {"weak.tree_nodes": tree.node_count},
    "strong.sst_build": lambda tree: {"strong.sst_nodes": tree.node_count},
    "strong.verifier_build": lambda ver: {"strong.verifier_states": len(ver.states)},
}

VERIFY_ROOT = "cli.verify"
CROSSCHECK_ROOT = "cli.crosscheck"
# Layers that only run under an `opaq crosscheck` batch.
BATCH_LAYERS = ("oracle.", "crosscheck.")

# Per-layer metrics in report order, with units.
LAYER_METRICS = (
    ("core.load_s", "s"),
    ("observer.build_s", "s"),
    ("observer.estimates", "count"),
    ("observer.us_per_estimate", "us"),
    ("observer.builds_per_verdict", "ratio"),
    ("projection.sipa_build_s", "s"),
    ("projection.sipa_states", "count"),
    ("projection.sipa_transitions", "count"),
    ("weak.cs_s", "s"),
    ("weak.k_search_s", "s"),
    ("weak.inf_search_s", "s"),
    ("weak.tree_build_s", "s"),
    ("weak.tree_nodes", "count"),
    ("strong.sst_build_s", "s"),
    ("strong.sst_nodes", "count"),
    ("cli.tree_share", "ratio"),
    ("strong.k_search_s", "s"),
    ("strong.inf_search_s", "s"),
    ("strong.verifier_build_s", "s"),
    ("strong.verifier_states", "count"),
    ("oracle.k_weak_s", "s"),
    ("oracle.k_strong_s", "s"),
    ("oracle.inf_weak_s", "s"),
    ("oracle.inf_strong_s", "s"),
    ("oracle.replay_s", "s"),
    ("oracle.random_nfa_s", "s"),
    ("crosscheck.self_s", "s"),
    ("crosscheck.structural_s", "s"),
    ("crosscheck.observer_builds_per_model", "ratio"),
    ("crosscheck.sipa_builds_per_model", "ratio"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "call", "pass_index", "sizes", "child_time")

    def __init__(self, name: str, start: float, parent: "Span | None", call: int, pass_index: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.call = call
        self.pass_index = pass_index
        self.sizes: dict[str, int] = {}
        self.child_time = 0.0

    @property
    def self_time(self) -> float:
        """Duration minus the part covered by child spans (calls are sequential)."""
        return (self.end - self.start) - self.child_time


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.passes = 0  # traced passes begun, one per `installed` block
        self._stack: list[Span] = []
        self._calls = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._calls += 1
        call = parent.call if parent else self._calls
        sp = Span(name, time.perf_counter(), parent, call, self.passes - 1)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_time += sp.end - sp.start
            self.spans.append(sp)

    def wrap(self, name: str, fn):
        size = SIZE_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if size is not None:
                    sp.sizes = size(result)
            return result

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind the traced names in opaq.cli and opaq.crosscheck for one traced
    pass; restore them on exit."""
    tracer.passes += 1
    saved = []
    try:
        for module_name in TRACED_MODULES:
            module = sys.modules[module_name]
            for attr, span_name in SPAN_OF.items():
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, tracer.wrap(span_name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(
    spans: list[Span],
    roots: tuple[str, ...],
    verify_calls: int,
    crosscheck_models: int,
    overhead_ratio: float,
) -> dict[str, float]:
    """Per-pass self time and counts per layer, plus the ratios in LAYER_METRICS.

    Times and counts cover the spans under the given root kinds, and the
    batch layers (BATCH_LAYERS) under any root.  Times are averaged over the
    traced passes.  Counts are those of the first pass, whose inputs depend on
    the seed alone, so they do not change with the number of passes that fit
    in a run.  ``verify_calls`` and ``crosscheck_models`` are the totals over
    all passes.
    """
    self_time: dict[str, float] = defaultdict(float)
    total_time: dict[str, float] = defaultdict(float)
    counts: Counter[str] = Counter()  # first pass only
    all_counts: Counter[str] = Counter()
    builds: Counter[tuple[str, str]] = Counter()
    root_kind: dict[int, str] = {}
    verify_root_time = 0.0
    verify_tree_time = 0.0
    for sp in spans:
        if sp.parent is None:
            root_kind[sp.call] = sp.name
            if sp.name == VERIFY_ROOT:
                verify_root_time += sp.end - sp.start
    for sp in spans:
        builds[(root_kind[sp.call], sp.name)] += 1
        if root_kind[sp.call] not in roots and not sp.name.startswith(BATCH_LAYERS):
            continue
        name = "cli.self" if sp.parent is None else sp.name
        self_time[name] += sp.self_time
        total_time[name] += sp.end - sp.start
        all_counts.update(sp.sizes)
        if sp.pass_index == 0:
            counts.update(sp.sizes)
        if root_kind[sp.call] == VERIFY_ROOT and sp.name in ("weak.tree_build", "strong.sst_build"):
            verify_tree_time += sp.end - sp.start

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    passes = 1 + max(sp.pass_index for sp in spans)
    out: dict[str, float] = {}
    for metric, unit in LAYER_METRICS:
        if metric.endswith("_s"):
            layer = "crosscheck.run" if metric == "crosscheck.self_s" else metric[:-2]
            out[metric] = self_time[layer] / passes
        elif unit == "count":
            out[metric] = counts[metric]
    out["observer.us_per_estimate"] = ratio(
        total_time["observer.build"] * 1e6, all_counts["observer.estimates"]
    )
    out["observer.builds_per_verdict"] = ratio(
        builds[(VERIFY_ROOT, "observer.build")], verify_calls
    )
    out["cli.tree_share"] = ratio(verify_tree_time, verify_root_time)
    out["crosscheck.observer_builds_per_model"] = ratio(
        builds[(CROSSCHECK_ROOT, "observer.build")], crosscheck_models
    )
    out["crosscheck.sipa_builds_per_model"] = ratio(
        builds[(CROSSCHECK_ROOT, "projection.sipa_build")], crosscheck_models
    )
    out["trace.overhead_ratio"] = overhead_ratio
    return {metric: out[metric] for metric, _ in LAYER_METRICS}
