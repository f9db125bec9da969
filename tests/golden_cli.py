"""Golden CLI transcripts: each case's stdout, stderr and exit code, byte for byte.

A case is a name, the verb and its arguments, and its stdin. Arguments
name files through ``{schema}`` (the bundled seed schema) and ``{data}``
(``tests/data``), and ``tests/data`` reads as ``{data}`` in the outputs
too, so the expected files hold no machine-specific path.
The expected output of case ``name`` lives in ``tests/golden/name.stdout``,
``name.stderr`` and ``name.exit``.

Regenerate every expected file (only when an output change is intended)::

    PYTHONPATH=src python tests/golden_cli.py
"""

from __future__ import annotations

from importlib.resources import files
from pathlib import Path

from click.testing import CliRunner

from kgschema.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

_DEMO = ["--schema", "{schema}", "--nodes", "{data}/rhobtb2_nodes.tsv", "--edges", "{data}/rhobtb2_edges.tsv"]
_DIRTY_TSV = ["--schema", "{schema}", "--nodes", "{data}/dirty_nodes.tsv", "--edges", "{data}/dirty_edges.tsv"]
_DIRTY_JSONL = [
    "--schema", "{schema}", "--nodes", "{data}/dirty_nodes.jsonl", "--edges", "{data}/dirty_edges.jsonl",
]

CASES: list[tuple[str, list[str], str]] = [
    ("validate_demo", ["validate", *_DEMO], ""),
    ("validate_demo_close_categories", ["validate", *_DEMO, "--close-categories"], ""),
    ("stats_demo_tsv", ["stats", *_DEMO], ""),
    ("stats_demo_jsonl", ["stats", *_DEMO, "--format", "jsonl"], ""),
    ("query_demo", ["query", *_DEMO, "--query", "{data}/rhobtb2_query.txt"], ""),
    (
        "normalize_demo",
        ["normalize", "--schema", "{schema}", "--equivalences", "{data}/equivalences.tsv"],
        "HGNC:18756\nDOID:1826\nNCBIGene:6850\nFOO:1\nnot a curie\nCHEBI:66919\n\nX:a:b\n",
    ),
    ("convert_demo_nodes_jsonl", ["convert", "--nodes", "{data}/rhobtb2_nodes.tsv", "--to", "jsonl"], ""),
    ("convert_demo_edges_jsonl", ["convert", "--edges", "{data}/rhobtb2_edges.tsv", "--to", "jsonl"], ""),
    # Unknown categories, a mixin-only node, a dangling edge, malformed
    # provenance, the id X:a:b, a node id reading edge:5; the JSONL copy's
    # name holds a tab and a backslash, so its digest takes the escape path.
    ("validate_dirty_tsv", ["validate", *_DIRTY_TSV], ""),
    ("validate_dirty_jsonl", ["validate", *_DIRTY_JSONL], ""),
    ("validate_dirty_strict", ["validate", *_DIRTY_TSV, "--strict"], ""),
    ("stats_dirty_tsv", ["stats", *_DIRTY_TSV], ""),
    ("convert_dirty_edges_tsv", ["convert", "--edges", "{data}/dirty_edges.jsonl", "--to", "tsv"], ""),
    # Tool failures, exit 2: a tab TSV cannot hold, then unusable inputs.
    ("convert_dirty_nodes_tsv", ["convert", "--nodes", "{data}/dirty_nodes.jsonl", "--to", "tsv"], ""),
    ("validate_bad_graph_file", ["validate", *_DIRTY_TSV, "--nodes", "{data}/dirty_edges.tsv"], ""),
    ("validate_bad_schema", ["validate", *_DEMO, "--schema", "{data}/equivalences.tsv"], ""),
    ("query_bad_predicate", ["query", *_DEMO, "--query", "NCBIGene:23221 -[no_such]-> ?x"], ""),
    ("query_demo_bom", ["query", *_DEMO, "--query", "{data}/rhobtb2_query_bom.txt"], ""),
    ("expand_demo", ["expand", "--schema", "{schema}", "--predicate", "entity_regulates_entity"], ""),
    (
        "expand_lax",
        ["expand", "--schema", "{data}/lax_schema.kgs.yaml", "--predicate", "related_to", "--lax"],
        "",
    ),
    # A class is_a cycle, an unknown parent and widening mixin ends: the
    # schema's own errors, then exit 2.
    (
        "expand_bad_schema",
        ["expand", "--schema", "{data}/bad_hierarchy.kgs.yaml", "--predicate", "related_to"],
        "",
    ),
]


def arguments(args: list[str]) -> list[str]:
    schema = str(files("kgschema") / "data" / "seed_schema.kgs.yaml")
    return [arg.format(schema=schema, data=DATA) for arg in args]


def run(args: list[str], stdin: str) -> tuple[str, str, int]:
    """Run one case in process; returns (stdout, stderr, exit code)."""
    result = CliRunner().invoke(main, arguments(args), input=stdin, catch_exceptions=False)
    stdout, stderr = (text.replace(str(DATA), "{data}") for text in (result.stdout, result.stderr))
    return stdout, stderr, result.exit_code


def expected(name: str) -> tuple[str, str, int]:
    def read(suffix: str) -> str:
        return (GOLDEN / f"{name}.{suffix}").read_text(encoding="utf-8")

    return read("stdout"), read("stderr"), int(read("exit"))


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, args, stdin in CASES:
        stdout, stderr, code = run(args, stdin)
        for suffix, text in (("stdout", stdout), ("stderr", stderr), ("exit", f"{code}\n")):
            (GOLDEN / f"{name}.{suffix}").write_text(text, encoding="utf-8")
        print(f"{name}: exit {code}")


if __name__ == "__main__":
    regenerate()
