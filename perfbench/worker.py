"""In-process library worker: set-up and normalize steps, then the query sequence.

Usage: ``python3 perfbench/worker.py PLAN.json`` with ``src`` on
``PYTHONPATH``. ``run.py`` writes the plan and starts a fresh worker in
every round of a run, so each worker's peak RSS is that of the library work
alone. Timings cover only the library calls; ``run.py`` checks the results
after the run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from kgschema import (
    build_closure,
    build_graph,
    expand_query,
    kg_store,
    load_equivalences,
    match,
    normalize_graph,
    parse_query,
    parse_schema,
    read_edges,
    read_nodes,
    validate_schema,
    write_edges,
    write_nodes,
)

import tracing

SETUP_CALLS = (
    "parse_schema", "validate_schema", "build_closure", "load_equivalences",
    "read_nodes", "read_edges", "build_graph",
)
WORK_CALLS = ("normalize_graph", "write_nodes", "write_edges", "parse_query", "expand_query", "match")


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup(plan: dict):
    """Everything before the first timed operation, as the CLI verbs load."""
    doc = parse_schema(Path(plan["schema"]).read_text(encoding="utf-8"))
    if any(v.severity == "error" for v in validate_schema(doc)):
        raise SystemExit("worker: schema has errors")
    index = build_closure(doc)
    table = load_equivalences(Path(plan["equivalences"]).read_text(encoding="utf-8"))
    nodes = read_nodes(Path(plan["nodes"]).read_text(encoding="utf-8"))
    edges = read_edges(Path(plan["edges"]).read_text(encoding="utf-8"))
    edge_rows = len(edges)
    kg = build_graph(nodes, edges)
    return doc, index, table, kg, edge_rows


def setup_and_normalize(plan: dict, out: dict, repeat: int, operation):
    """One timed set-up, then one timed normalize step; returns the set-up."""
    gc.collect()
    rss_before = _maxrss_mib()
    with operation(f"setup-{repeat}"):
        started = time.perf_counter()
        loaded = setup(plan)
        out["setup_s"].append(time.perf_counter() - started)
    if repeat == 0:
        out["graph_rss_mib"] = _maxrss_mib() - rss_before
    doc, index, table, kg, _ = loaded
    gc.collect()
    with operation(f"normalize-{repeat}"):
        started = time.perf_counter()
        normalized, report = normalize_graph(kg, table, doc, index)
        nodes_text = write_nodes(list(normalized.nodes.values()))
        edges_text = write_edges(normalized.edges)
        out["normalize_s"].append(time.perf_counter() - started)
    out["normalize"].append({
        "ids_rewritten": report.ids_rewritten,
        "nodes_merged": report.nodes_merged,
        "nodes_after": len(normalized.nodes),
    })
    out["normalize_digests"].append(
        hashlib.sha256((nodes_text + "\0" + edges_text).encode()).hexdigest()
    )
    return loaded


def main(plan_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    tracer = None
    if plan["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer, sys.modules[__name__], SETUP_CALLS + WORK_CALLS, {
            "read_nodes": lambda t, _, rows: t.count("kg_store.rows_read", len(rows)),
            "read_edges": lambda t, _, rows: t.count("kg_store.rows_read", len(rows)),
        })
        tracing.install(tracer, kg_store, ("normalize_curie",),
                        {"normalize_curie": tracing.count_normalize_curie})
        tracer.start_gc_clock()

    def operation(run_id: str):
        if tracer is None:
            return nullcontext()
        tracer.run_id = run_id
        return tracer.span("op." + run_id.rsplit("-", 1)[0])

    out: dict = {"setup_s": [], "normalize_s": [], "normalize": [], "normalize_digests": [],
                 "query_ms": [], "query_results": []}
    # Set-up and normalize alternate, so that their samples interleave. Each
    # repeat starts from the same heap: the previous graph is released and
    # collected first, so later repeats do not pay for a larger heap.
    for repeat in range(plan["repeats"]):
        loaded = None
        loaded = setup_and_normalize(plan, out, repeat, operation)
    doc, index, table, kg, edge_rows = loaded
    out["edge_rows"] = edge_rows
    out["edges_kept"] = len(kg.edges)

    queries = plan["queries"]
    for executed, position in enumerate(plan["positions"]):
        with operation(f"query-{executed}"):
            started = time.perf_counter()
            bindings = match(expand_query(parse_query(queries[position], doc), index), kg, doc, index)
            out["query_ms"].append((time.perf_counter() - started) * 1000)
        out["query_results"].append([binding.to_json() for binding in bindings])

    if tracer is not None:
        tracer.stop_gc_clock()
        tracer.dump(plan["spans_out"])
    Path(plan["result_out"]).write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
