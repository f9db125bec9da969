"""Run one kgschema CLI verb with spans around its library calls.

Usage: ``python3 perfbench/traced_cli.py SPANS.json VERB [OPTIONS...]`` with
``src`` on ``PYTHONPATH``. The verb runs exactly as ``python3 -m kgschema``
would run it; the spans and GC pauses are written to ``SPANS.json`` when it
exits.
"""

from __future__ import annotations

import sys

from kgschema import cli, validation

import tracing

CLI_CALLS = (
    "parse_schema", "validate_schema", "build_closure", "load_equivalences",
    "read_nodes", "read_edges", "build_graph", "validate_graph",
    "write_nodes", "write_edges", "parse_query", "expand_query", "match",
)


def main() -> None:
    spans_out, args = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.run_id = "cli-" + args[0]
    tracing.install(tracer, cli, [name for name in CLI_CALLS if hasattr(cli, name)])
    tracing.install(tracer, validation, ("validate_node", "inputs_digest"))
    tracing.install(tracer, validation.ValidationReport, ("to_jsonl",))
    tracer.start_gc_clock()
    try:
        cli.main(args=args, prog_name="kgschema")
    finally:
        tracer.stop_gc_clock()
        tracer.dump(spans_out)


if __name__ == "__main__":
    main()
