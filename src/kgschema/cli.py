"""Command-line entry point: validate, normalize, query, expand, stats, convert.

Exit codes are uniform across verbs: 0 on success, 1 when domain-level
failures are present in the data (error-severity violations, malformed
input identifiers), 2 on tool failure (unusable inputs, bad invocation).
Every verb only reads its input files; all results go to standard output
and diagnostics to standard error.
"""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import json
import os
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

import click

from . import SCHEMA_FORMAT_VERSION, __version__

if TYPE_CHECKING:
    from .hierarchy import ClosureIndex
    from .kg_store import KnowledgeGraph
    from .schema_model import SchemaDocument


def _on_first_call(module: str, name: str):
    """A stand-in for ``module.name`` that imports ``module`` on its first call.

    A verb thus loads only the modules it calls, and each library function
    it calls stays a name of this module, looked up at the call, which a
    tracer may rebind. The first call puts the function in the stand-in's
    place unless the name was rebound; the stand-in keeps it either way.
    """
    function = None

    def stand_in(*args, **kwargs):
        nonlocal function
        if function is None:
            function = getattr(importlib.import_module(f"{__package__}.{module}"), name)
            if globals()[name] is stand_in:
                globals()[name] = function
        return function(*args, **kwargs)

    stand_in.__name__ = stand_in.__qualname__ = name
    return stand_in


build_closure = _on_first_call("hierarchy", "build_closure")
expand_predicates = _on_first_call("hierarchy", "expand_predicates")
load_equivalences = _on_first_call("identifiers", "load_equivalences")
normalize_curie = _on_first_call("identifiers", "normalize_curie")
parse_curie = _on_first_call("identifiers", "parse_curie")
_convert_to_jsonl = _on_first_call("kg_store", "_convert_to_jsonl")
_gc_paused = _on_first_call("kg_store", "_gc_paused")
_read_edges = _on_first_call("kg_store", "_read_edges")
build_graph = _on_first_call("kg_store", "build_graph")
close_categories = _on_first_call("kg_store", "close_categories")
graph_stats = _on_first_call("kg_store", "graph_stats")
read_edges = _on_first_call("kg_store", "read_edges")
read_nodes = _on_first_call("kg_store", "read_nodes")
write_edges = _on_first_call("kg_store", "write_edges")
write_nodes = _on_first_call("kg_store", "write_nodes")
expand_query = _on_first_call("query", "expand_query")
match = _on_first_call("query", "match")
parse_query = _on_first_call("query", "parse_query")
parse_schema = _on_first_call("schema_model", "parse_schema")
validate_graph = _on_first_call("validation", "validate_graph")

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_TOOL = 2


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    click.echo(f"kgschema: warning: {message}", err=True)


def _tool_errors(func):
    """Report tool failures with exit code 2 and warnings as ``kgschema: warning: ...``."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        from .errors import KgschemaError

        with warnings.catch_warnings():
            warnings.simplefilter("default")  # each distinct message once per issuing line
            warnings.showwarning = _show_warning
            try:
                return func(*args, **kwargs)
            except (KgschemaError, OSError, ValueError) as exc:
                click.echo(f"kgschema: {exc}", err=True)
                sys.exit(EXIT_TOOL)

    return wrapper


def _load_schema(
    schema_path: Path, *, lax: bool, strict: bool = False
) -> tuple[SchemaDocument, ClosureIndex]:
    """Parse and check the schema; a verb's first read, so it also rejects ``--strict --lax``."""
    from .errors import KgschemaError, SchemaNotValidError

    if strict and lax:
        raise click.UsageError("--strict and --lax are mutually exclusive")
    doc = parse_schema(schema_path.read_text(encoding="utf-8"), lax=lax)
    try:
        return doc, build_closure(doc)
    except SchemaNotValidError as exc:
        for violation in exc.violations:
            click.echo(
                f"kgschema: schema error {violation.code} at {violation.element}: "
                f"{violation.detail}",
                err=True,
            )
        raise KgschemaError(f"schema {schema_path} has {len(exc.violations)} error(s)") from exc


def _load_graph(
    nodes_path: Path, edges_path: Path, index: ClosureIndex, *, strict: bool, close: bool
) -> KnowledgeGraph:
    # The graph lives until the process exits. It is built with the GC off
    # and frozen before the GC comes back on, so no collection ever scans
    # it: not the one each library call would leave for its return, nor the
    # last one at exit. Nothing unfreezes. The edge reader starts from the
    # node ids, so an edge end that names a node is the node's id object.
    with _gc_paused():
        nodes = read_nodes(nodes_path.read_text(encoding="utf-8"))
        edges = _read_edges(
            edges_path.read_text(encoding="utf-8"), None, {node.id: node.id for node in nodes}
        )
        kg = build_graph(nodes, edges, strict=strict)
        if close:
            kg = close_categories(kg, index)
        gc.freeze()
    return kg


_input_file = click.Path(exists=True, dir_okay=False, path_type=Path)
_schema_option = click.option(
    "--schema",
    "schema_path",
    envvar="KGSCHEMA_DEFAULT_SCHEMA",
    required=True,
    type=_input_file,
    help="Schema file (.kgs.yaml); defaults to $KGSCHEMA_DEFAULT_SCHEMA.",
)
_nodes_option = click.option("--nodes", "nodes_path", required=True, type=_input_file)
_edges_option = click.option("--edges", "edges_path", required=True, type=_input_file)
_strict_option = click.option("--strict", is_flag=True, help="Fail on dangling edges at load time.")
_lax_option = click.option("--lax", is_flag=True, help="Tolerate unknown schema keys.")


@click.group(no_args_is_help=False)
@click.version_option(
    __version__,
    prog_name="kgschema",
    message=f"%(prog)s, version %(version)s (schema format {SCHEMA_FORMAT_VERSION})",
)
def main() -> None:
    """Schema-driven validation, normalization, and querying of knowledge graphs."""


@main.command()
@_schema_option
@_nodes_option
@_edges_option
@_strict_option
@_lax_option
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Accepted for compatibility; validation runs on one thread.")
@click.option("--close-categories", is_flag=True, help="Close node categories under ancestors.")
@_tool_errors
def validate(schema_path, nodes_path, edges_path, strict, lax, jobs, close_categories) -> None:
    """Check a graph against a schema and print a JSONL report."""
    doc, index = _load_schema(schema_path, lax=lax, strict=strict)
    kg = _load_graph(nodes_path, edges_path, index, strict=strict, close=close_categories)
    report = validate_graph(kg, doc, index, parallelism=jobs)
    sys.stdout.write(report.to_jsonl())
    sys.exit(EXIT_DOMAIN if report.error_count else EXIT_OK)


@main.command()
@_schema_option
@click.option(
    "--equivalences",
    "equivalences_path",
    required=True,
    type=_input_file,
    help="Clique file: categories<TAB>curie1|curie2 per line.",
)
@_lax_option
@_tool_errors
def normalize(schema_path, equivalences_path, lax) -> None:
    """Rewrite CURIEs from stdin to their preferred form, one per line."""
    from .errors import KgschemaError, MalformedCurieError

    doc, index = _load_schema(schema_path, lax=lax)
    table = load_equivalences(equivalences_path.read_text(encoding="utf-8"))
    for clique in table.cliques:
        for category in clique.categories:
            if category not in doc.classes:
                raise KgschemaError(
                    f"equivalence clique names unknown category {category!r}"
                )
    total = changed = unknown = malformed = 0
    lines = iter(sys.stdin)
    # One leading byte order mark is dropped, as from every input file.
    first = next(lines, "").removeprefix("\ufeff")
    for raw in itertools.chain((first,), lines):
        line = raw.strip()
        if not line:
            continue
        total += 1
        try:
            curie = parse_curie(line)
        except MalformedCurieError:
            malformed += 1
            sys.stdout.write(line + "\n")
            continue
        normalized = normalize_curie(table, curie, doc, index)
        if table.clique_of(curie) is None:
            unknown += 1
        elif normalized != curie:
            changed += 1
        sys.stdout.write(normalized + "\n")
    click.echo(
        f"total={total} changed={changed} unchanged={total - changed - malformed} "
        f"unknown={unknown} malformed={malformed}",
        err=True,
    )
    sys.exit(EXIT_DOMAIN if malformed else EXIT_OK)


@main.command()
@_schema_option
@_nodes_option
@_edges_option
@click.option("--query", "query_text", required=True, help="Query text, or a path to a query file.")
@_strict_option
@_lax_option
@_tool_errors
def query(schema_path, nodes_path, edges_path, query_text, strict, lax) -> None:
    """Run a pattern query and print one binding per line as JSON."""
    doc, index = _load_schema(schema_path, lax=lax, strict=strict)
    kg = _load_graph(nodes_path, edges_path, index, strict=strict, close=False)
    candidate = Path(query_text)
    try:
        is_file = candidate.is_file()
    except OSError:  # e.g. a name longer than the file system allows
        is_file = False
    if is_file:
        query_text = candidate.read_text(encoding="utf-8")
    qg = parse_query(query_text, doc)
    expanded = expand_query(qg, index)
    for binding in match(expanded, kg, doc, index):
        sys.stdout.write(binding.to_json() + "\n")
    sys.exit(EXIT_OK)


@main.command()
@_schema_option
@click.option("--predicate", required=True, help="Predicate to expand to its descendants.")
@_lax_option
@_tool_errors
def expand(schema_path, predicate, lax) -> None:
    """Print the descendant closure of a predicate, sorted, one per line."""
    _, index = _load_schema(schema_path, lax=lax)
    for name in sorted(expand_predicates(index, {predicate})):
        sys.stdout.write(name + "\n")
    sys.exit(EXIT_OK)


@main.command()
@_schema_option
@_nodes_option
@_edges_option
@click.option("--format", "output_format", type=click.Choice(["tsv", "jsonl"]), default="tsv", show_default=True)
@_strict_option
@_lax_option
@_tool_errors
def stats(schema_path, nodes_path, edges_path, output_format, strict, lax) -> None:
    """Count nodes per most specific category and edges per predicate."""
    _, index = _load_schema(schema_path, lax=lax, strict=strict)
    kg = _load_graph(nodes_path, edges_path, index, strict=strict, close=False)
    report = graph_stats(kg, index)
    if output_format == "jsonl":
        sys.stdout.write(json.dumps(report.as_dict(), sort_keys=True, ensure_ascii=False) + "\n")
    else:
        sys.stdout.write(f"nodes\t{report.num_nodes}\n")
        sys.stdout.write(f"edges\t{report.num_edges}\n")
        for category, count in sorted(report.nodes_by_category.items()):
            sys.stdout.write(f"category\t{category}\t{count}\n")
        for predicate, count in sorted(report.edges_by_predicate.items()):
            sys.stdout.write(f"predicate\t{predicate}\t{count}\n")
    sys.exit(EXIT_OK)


@main.command()
@click.option("--nodes", "nodes_path", type=_input_file)
@click.option("--edges", "edges_path", type=_input_file)
@click.option("--to", "target", required=True, type=click.Choice(["tsv", "jsonl"]))
@_tool_errors
def convert(nodes_path, edges_path, target) -> None:
    """Convert node/edge files between TSV and JSONL, losslessly.

    With a single input the result goes to standard output; with both, each
    is written next to its source with the target extension. Nothing is
    read or written when a destination is an input or both are one file.
    """
    from .errors import KgschemaError

    if nodes_path is None and edges_path is None:
        raise click.UsageError("supply --nodes and/or --edges")
    if nodes_path is not None and edges_path is not None:
        inputs = {nodes_path.resolve(), edges_path.resolve()}
        destinations = [path.with_suffix(f".{target}") for path in (nodes_path, edges_path)]
        for destination in destinations:
            if destination.resolve() in inputs:
                raise KgschemaError(f"convert would overwrite its input {destination}")
        if destinations[0].resolve() == destinations[1].resolve():
            raise KgschemaError(f"convert would write both outputs to {destinations[0]}")
    # Each output is held whole, in parts, before anything is written.
    outputs: list[list[str]] = []
    for path, kind, read, write in (
        (nodes_path, "node", read_nodes, write_nodes),
        (edges_path, "edge", read_edges, write_edges),
    ):
        if path is None:
            continue
        text = path.read_text(encoding="utf-8")
        with _gc_paused():  # as in _load_graph
            # JSONL is made a block of records at a time, so only its text
            # is held; TSV needs every property key for its header first.
            # A blank input is the JSONL an empty graph converts to.
            if target == "jsonl":
                made = _convert_to_jsonl(text, kind)
            else:
                made = read(text, "jsonl" if not text or text.isspace() else None)
            gc.freeze()
        del text
        outputs.append(made if target == "jsonl" else [write(made, fmt=target)])
        del made  # not held while the next file loads
    if len(outputs) == 1:
        sys.stdout.writelines(outputs[0])
    else:
        for destination, parts in zip(destinations, outputs):
            with destination.open("w", encoding="utf-8") as handle:
                handle.writelines(parts)
            click.echo(f"wrote {destination}", err=True)
    sys.exit(EXIT_OK)


def run() -> None:
    """Run :func:`main` as a process: the ``kgschema`` command and ``python -m kgschema``.

    On exit it flushes standard output and error and ends the process at
    once, so the loaded graph is not freed object by object. An exit code
    that is not None or an int, or a flush that fails, takes the
    interpreter's normal exit instead.
    """
    try:
        main()
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
        if not isinstance(code, int):
            raise
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except (OSError, ValueError):  # e.g. a closed pipe
            raise exc from None
        os._exit(code)


if __name__ == "__main__":
    run()
