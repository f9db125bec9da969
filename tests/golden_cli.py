"""Golden CLI transcripts: each case's stdout, stderr and exit code, byte for byte.

A case is a name, the verb and its arguments, its stdin, and the input
files it needs in a directory of its own. Arguments name files through
``{schema}`` (the bundled seed schema), ``{data}`` (``tests/data``) and
``{tmp}`` (the case's directory, made afresh for each run and removed
after it). Each input is a copy of a ``{schema}`` or ``{data}`` file,
optionally behind a UTF-8 byte order mark. ``tests/data`` and the case's
directory read as ``{data}`` and ``{tmp}`` in the outputs, so the
expected files hold no machine-specific path. The expected output of case ``name`` lives in
``tests/golden/name.stdout``, ``name.stderr`` and ``name.exit``; each file
the run writes into ``{tmp}`` is compared with ``name.wrote.<file name>``,
and the run may write no other file nor change an input.

Regenerate every expected file (only when an output change is intended)::

    PYTHONPATH=src python tests/golden_cli.py
"""

from __future__ import annotations

import tempfile
from importlib.resources import files
from pathlib import Path
from typing import NamedTuple

from click.testing import CliRunner

from kgschema.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
BOM = "\ufeff"


class Case(NamedTuple):
    name: str
    args: list[str]
    stdin: str = ""
    # File name in {tmp} -> (source file, whether the copy starts with a BOM).
    inputs: dict[str, tuple[str, bool]] = {}


_DEMO = ["--schema", "{schema}", "--nodes", "{data}/rhobtb2_nodes.tsv", "--edges", "{data}/rhobtb2_edges.tsv"]
_DIRTY_TSV = ["--schema", "{schema}", "--nodes", "{data}/dirty_nodes.tsv", "--edges", "{data}/dirty_edges.tsv"]
_DIRTY_JSONL = [
    "--schema", "{schema}", "--nodes", "{data}/dirty_nodes.jsonl", "--edges", "{data}/dirty_edges.jsonl",
]
_TMP_GRAPH = ["--nodes", "{tmp}/nodes.jsonl", "--edges", "{tmp}/edges.jsonl"]


def _graph_inputs(nodes: str, edges: str, bom: bool = False) -> dict[str, tuple[str, bool]]:
    return {"nodes.jsonl": (nodes, bom), "edges.jsonl": (edges, bom)}


CASES: list[Case] = [
    Case("validate_demo", ["validate", *_DEMO]),
    Case("validate_demo_close_categories", ["validate", *_DEMO, "--close-categories"]),
    Case("stats_demo_tsv", ["stats", *_DEMO]),
    Case("stats_demo_jsonl", ["stats", *_DEMO, "--format", "jsonl"]),
    Case("query_demo", ["query", *_DEMO, "--query", "{data}/rhobtb2_query.txt"]),
    # Unpinned: the search starts from every node, and symmetric edges
    # match from both ends.
    Case("query_demo_unpinned", ["query", *_DEMO, "--query", "?a -[related_to]-> ?b -[related_to]-> ?c"]),
    # Three edges between one pair: JSON-text order, and a symmetric edge's
    # reversed twin with equal evidence adds no binding.
    Case(
        "query_ties",
        [
            "query", "--schema", "{schema}", "--nodes", "{data}/ties_nodes.tsv",
            "--edges", "{data}/ties_edges.tsv", "--query", "HGNC:1 -[related_to]-> ?x",
        ],
    ),
    Case(
        "normalize_demo",
        ["normalize", "--schema", "{schema}", "--equivalences", "{data}/equivalences.tsv"],
        "HGNC:18756\nDOID:1826\nNCBIGene:6850\nFOO:1\nnot a curie\nCHEBI:66919\n\nX:a:b\n",
    ),
    Case(
        "normalize_demo_bom",
        ["normalize", "--schema", "{schema}", "--equivalences", "{data}/equivalences.tsv"],
        BOM + "HGNC:18756\nDOID:1826\nNCBIGene:6850\nFOO:1\nnot a curie\nCHEBI:66919\n\nX:a:b\n",
    ),
    Case("convert_demo_nodes_jsonl", ["convert", "--nodes", "{data}/rhobtb2_nodes.tsv", "--to", "jsonl"]),
    Case("convert_demo_edges_jsonl", ["convert", "--edges", "{data}/rhobtb2_edges.tsv", "--to", "jsonl"]),
    # Unknown categories, a mixin-only node, a dangling edge, malformed
    # provenance, the id X:a:b, a node id reading edge:5; the JSONL copy's
    # name holds a tab and a backslash, so its digest takes the escape path.
    Case("validate_dirty_tsv", ["validate", *_DIRTY_TSV]),
    Case("validate_dirty_jsonl", ["validate", *_DIRTY_JSONL]),
    Case("validate_dirty_strict", ["validate", *_DIRTY_TSV, "--strict"]),
    Case("stats_dirty_tsv", ["stats", *_DIRTY_TSV]),
    Case("convert_dirty_edges_tsv", ["convert", "--edges", "{data}/dirty_edges.jsonl", "--to", "tsv"]),
    # Tool failures, exit 2: a tab TSV cannot hold, then unusable inputs.
    Case("convert_dirty_nodes_tsv", ["convert", "--nodes", "{data}/dirty_nodes.jsonl", "--to", "tsv"]),
    Case("validate_bad_graph_file", ["validate", *_DIRTY_TSV, "--nodes", "{data}/dirty_edges.tsv"]),
    Case("validate_bad_schema", ["validate", *_DEMO, "--schema", "{data}/equivalences.tsv"]),
    Case("query_bad_predicate", ["query", *_DEMO, "--query", "NCBIGene:23221 -[no_such]-> ?x"]),
    Case("query_demo_bom", ["query", *_DEMO, "--query", "{data}/rhobtb2_query_bom.txt"]),
    Case("expand_demo", ["expand", "--schema", "{schema}", "--predicate", "entity_regulates_entity"]),
    Case(
        "expand_lax",
        ["expand", "--schema", "{data}/lax_schema.kgs.yaml", "--predicate", "related_to", "--lax"],
    ),
    # A class is_a cycle, an unknown parent and widening mixin ends: the
    # schema's own errors, then exit 2.
    Case(
        "expand_bad_schema",
        ["expand", "--schema", "{data}/bad_hierarchy.kgs.yaml", "--predicate", "related_to"],
    ),
    # BOM-prefixed copies read as the originals do (see BOM_TWINS).
    Case(
        "validate_dirty_jsonl_bom",
        ["validate", "--schema", "{schema}", *_TMP_GRAPH],
        inputs=_graph_inputs("{data}/dirty_nodes.jsonl", "{data}/dirty_edges.jsonl", bom=True),
    ),
    Case(
        "validate_demo_bom_schema",
        ["validate", *_DEMO, "--schema", "{tmp}/schema.kgs.yaml"],
        inputs={"schema.kgs.yaml": ("{schema}", True)},
    ),
    # Two inputs: each output is written next to its source, named on stderr.
    Case(
        "convert_demo_two_tsv",
        ["convert", *_TMP_GRAPH, "--to", "tsv"],
        inputs=_graph_inputs("{data}/rhobtb2_nodes.jsonl", "{data}/rhobtb2_edges.jsonl"),
    ),
    # Each output would be its own input: exit 2, inputs unchanged.
    Case(
        "convert_demo_two_tsv_onto_inputs",
        ["convert", "--nodes", "{tmp}/nodes.tsv", "--edges", "{tmp}/edges.tsv", "--to", "tsv"],
        inputs={
            "nodes.tsv": ("{data}/rhobtb2_nodes.tsv", False),
            "edges.tsv": ("{data}/rhobtb2_edges.tsv", False),
        },
    ),
    # Two TSV inputs to JSONL, each made a block at a time from the read columns.
    Case(
        "convert_dirty_two_jsonl",
        ["convert", "--nodes", "{tmp}/nodes.tsv", "--edges", "{tmp}/edges.tsv", "--to", "jsonl"],
        inputs={
            "nodes.tsv": ("{data}/dirty_nodes.tsv", False),
            "edges.tsv": ("{data}/dirty_edges.tsv", False),
        },
    ),
    # The nodes cannot be TSV (a tab in a name): exit 2, and no file written.
    Case(
        "convert_dirty_two_tsv",
        ["convert", *_TMP_GRAPH, "--to", "tsv"],
        inputs=_graph_inputs("{data}/dirty_nodes.jsonl", "{data}/dirty_edges.jsonl"),
    ),
]


# Cases whose inputs differ only by a leading BOM: their outputs are equal.
BOM_TWINS = [
    ("validate_dirty_jsonl_bom", "validate_dirty_jsonl"),
    ("validate_demo_bom_schema", "validate_demo"),
    ("normalize_demo_bom", "normalize_demo"),
]


def run(case: Case) -> tuple[str, str, int, dict[str, str]]:
    """Run one case in process; returns (stdout, stderr, exit code, files written to {tmp})."""
    schema = str(files("kgschema") / "data" / "seed_schema.kgs.yaml")
    with tempfile.TemporaryDirectory() as tmp:
        places = {"schema": schema, "data": DATA, "tmp": tmp}
        copied = {}
        for name, (source, bom) in case.inputs.items():
            text = Path(source.format(**places)).read_text(encoding="utf-8")
            copied[name] = BOM + text if bom else text
            (Path(tmp) / name).write_text(copied[name], encoding="utf-8")
        args = [arg.format(**places) for arg in case.args]
        result = CliRunner().invoke(main, args, input=case.stdin, catch_exceptions=False)
        written = {
            path.name: text
            for path in sorted(Path(tmp).iterdir())
            if (text := path.read_text(encoding="utf-8")) != copied.get(path.name)
        }
    stdout, stderr = (
        text.replace(str(DATA), "{data}").replace(tmp, "{tmp}") for text in (result.stdout, result.stderr)
    )
    return stdout, stderr, result.exit_code, written


def expected(name: str) -> tuple[str, str, int, dict[str, str]]:
    def read(suffix: str) -> str:
        return (GOLDEN / f"{name}.{suffix}").read_text(encoding="utf-8")

    prefix = f"{name}.wrote."
    written = {
        path.name.removeprefix(prefix): path.read_text(encoding="utf-8")
        for path in sorted(GOLDEN.glob(f"{prefix}*"))
    }
    return read("stdout"), read("stderr"), int(read("exit")), written


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        stdout, stderr, code, written = run(case)
        for stale in GOLDEN.glob(f"{case.name}.wrote.*"):
            stale.unlink()
        outputs = {"stdout": stdout, "stderr": stderr, "exit": f"{code}\n"}
        outputs.update((f"wrote.{name}", text) for name, text in written.items())
        for suffix, text in outputs.items():
            (GOLDEN / f"{case.name}.{suffix}").write_text(text, encoding="utf-8")
        print(f"{case.name}: exit {code}")


if __name__ == "__main__":
    regenerate()
