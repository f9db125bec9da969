"""Spans and counts recorded around kgschema's public functions.

The package itself is not instrumented: :func:`install` rebinds a module's
global names to wrappers, so the callers that look those names up at call
time (the CLI, the benchmark worker, ``validate_graph`` calling
``validate_node``) produce one span per call. Spans stay in memory and are
written once, when the traced process ends.
"""

from __future__ import annotations

import functools
import gc
import json
import statistics
import time
from contextlib import contextmanager

# Span name prefix of each wrapped function: the module that defines it.
LAYER = {
    "parse_schema": "schema_model",
    "validate_schema": "schema_model",
    "build_closure": "hierarchy",
    "load_equivalences": "identifiers",
    "normalize_curie": "identifiers",
    "read_nodes": "kg_store",
    "read_edges": "kg_store",
    "build_graph": "kg_store",
    "normalize_graph": "kg_store",
    "write_nodes": "kg_store",
    "write_edges": "kg_store",
    "validate_graph": "validation",
    "validate_node": "validation",
    "inputs_digest": "validation",
    "to_jsonl": "validation",
    "parse_query": "query",
    "expand_query": "query",
    "match": "query",
}


class Tracer:
    """Single-threaded span recorder plus a cyclic-GC pause clock.

    A span is ``(id, name, start, end, parent id, run id)``; the run id names
    the benchmark operation (one setup, one query, one CLI verb) that caused
    it. Counts are kept per name at the same call sites.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.run_id = ""
        self._stack: list[int] = []
        self._next_id = 0
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self._gc_started = 0.0

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.run_id))

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, owner, attribute: str, on_result=None) -> None:
        """Rebind ``owner.attribute`` to a wrapper that records a span.

        ``on_result(tracer, args, result)`` runs after each call, to count.
        """
        original = getattr(owner, attribute)
        name = f"{LAYER[attribute]}.{attribute}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result

        setattr(owner, attribute, traced)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_started
            self.gc_collections += 1

    def start_gc_clock(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop_gc_clock(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def dump(self, path) -> None:
        record = {
            "spans": self.spans,
            "counts": self.counts,
            "gc_seconds": self.gc_seconds,
            "gc_collections": self.gc_collections,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


def install(tracer: Tracer, module, names, on_result=None) -> None:
    """Wrap each of ``names`` in ``module``'s namespace."""
    for name in names:
        tracer.wrap(module, name, (on_result or {}).get(name))


def count_normalize_curie(tracer: Tracer, args, result) -> None:
    """Counts per call of ``normalize_curie(table, curie, doc, index)``."""
    tracer.count("identifiers.normalize_curie_calls")
    if result != args[1]:
        tracer.count("identifiers.normalize_curie_rewrites")


# ---------------------------------------------------------------------------
# Reading a span record


class Spans:
    """Queries over a dumped span list."""

    def __init__(self, record: dict):
        self.spans = [tuple(span) for span in record["spans"]]
        self.children: dict[int, list[tuple]] = {}
        for span in self.spans:
            if span[4] is not None:
                self.children.setdefault(span[4], []).append(span)

    def named(self, name: str) -> list[tuple]:
        return [span for span in self.spans if span[1] == name]

    @staticmethod
    def duration(span: tuple) -> float:
        return span[3] - span[2]

    def self_time(self, span: tuple) -> float:
        """Duration minus the time its direct children cover."""
        return self.duration(span) - sum(self.duration(c) for c in self.children.get(span[0], []))

    def total_per_run(self, name: str) -> list[float]:
        """Summed duration of ``name`` within each run id, in run order."""
        totals: dict[str, float] = {}
        for span in self.named(name):
            totals[span[5]] = totals.get(span[5], 0.0) + self.duration(span)
        return list(totals.values())

    def median_per_run(self, name: str) -> float:
        totals = self.total_per_run(name)
        return statistics.median(totals) if totals else 0.0

    def median_duration(self, name: str) -> float:
        durations = [self.duration(span) for span in self.named(name)]
        return statistics.median(durations) if durations else 0.0
