import gc
import json
import random
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from kgschema import (
    DanglingEdgeError,
    EmptyCategorySetError,
    Edge,
    KnowledgeGraph,
    Node,
    ParseError,
    ValidationReport,
    Violation,
    build_graph,
    close_categories,
    graph_equal,
    graph_stats,
    load_equivalences,
    normalize_curie,
    normalize_graph,
    read_edges,
    read_nodes,
    write_edges,
    write_nodes,
)
from kgschema import build_closure, kg_store
from kgschema.cli import main
from kgschema.identifiers import MalformedCurieError, parse_curie
from kgschema.kg_store import EDGE_COLUMNS
from generators import dirty_graph, extended_seed_schema, max_examples, random_graph, random_schema
from oracles import (
    naive_closed_list,
    naive_jsonl_read,
    naive_jsonl_write,
    naive_normalize,
    naive_stats_bucket,
    naive_tsv_read,
    naive_tsv_write,
)

NODES_TSV = (
    "id\tcategory\tname\n"
    "NCBIGene:1\tGene\talpha\n"
    "MONDO:2\tDisease\tbeta\n"
)
EDGES_TSV = (
    "subject\tpredicate\tobject\tpublications\n"
    "NCBIGene:1\tgene_associated_with_condition\tMONDO:2\tPMID:1|PMID:2\n"
)


def test_read_demo_fixture_counts(demo_graph):
    assert len(demo_graph.nodes) == 9
    assert len(demo_graph.edges) == 9
    assert demo_graph.dangling_edge_ordinals() == []


def test_read_tsv_basics():
    nodes = read_nodes(NODES_TSV)
    assert [n.id for n in nodes] == ["NCBIGene:1", "MONDO:2"]
    assert nodes[0].categories == ["Gene"]
    edges = read_edges(EDGES_TSV)
    assert edges[0].properties["publications"] == ["PMID:1", "PMID:2"]


@pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
def test_rows_repeating_an_id_share_one_object(fmt):
    # One object per distinct id, predicate and property key within a call
    # keeps a large edge list small.
    def text(columns, rows):
        if fmt == "jsonl":
            many = ("category", "publications")
            objects = [{c: [v] if c in many else v for c, v in zip(columns, row)} for row in rows]
            return "".join(json.dumps(obj) + "\n" for obj in objects)
        return "".join("\t".join(row) + "\n" for row in [columns, *rows])

    nodes = read_nodes(
        text(
            ("id", "category", "name"),
            [("A:1", "Gene", "a"), ("B:2", "Gene", "b"), ("A:1", "Protein", "a")],
        ),
        fmt,
    )
    assert nodes[0].id is nodes[2].id
    assert nodes[0].id is not nodes[1].id
    edges = read_edges(
        text(
            ("subject", "predicate", "object", "publications"),
            [
                ("A:1", "related_to", "B:2", "PMID:1"),
                ("B:2", "related_to", "A:1", "PMID:2"),
                ("A:1", "treats", "B:2", "PMID:1"),
            ],
        ),
        fmt,
    )
    assert edges[0].subject is edges[1].object is edges[2].subject
    assert edges[0].object is edges[1].subject is edges[2].object
    assert edges[0].predicate is edges[1].predicate
    assert edges[0].predicate is not edges[2].predicate
    keys = [next(iter(edge.properties)) for edge in edges]
    assert keys[0] == "publications" and keys[0] is keys[1] is keys[2]
    # Values are not shared: each list is its record's own.
    assert edges[0].properties["publications"] is not edges[2].properties["publications"]


def test_read_jsonl_and_sniffing():
    text = (
        '{"id": "NCBIGene:1", "category": ["Gene"], "name": "alpha", "symbol": ["A1"]}\n'
        '{"id": "MONDO:2", "category": ["Disease"]}\n'
    )
    nodes = read_nodes(text)
    assert nodes[0].properties == {"symbol": ["A1"]}
    assert nodes[1].name is None
    edge_text = '{"subject": "NCBIGene:1", "predicate": "treats", "object": "MONDO:2"}\n'
    assert read_edges(edge_text)[0].predicate == "treats"


_N = "id\tcategory\tname\n"
_E = "subject\tpredicate\tobject\n"
_NJ = '{"id": "A:1", "category": ["Gene"]}\n'
_EJ = '{"subject": "A:1", "predicate": "p", "object": "B:2"}\n'

# (reader, text, exact str() of the ParseError: line, column and message),
# over both record kinds, both formats and each per-row fault. Cases with
# two faults pin which check runs first.
MALFORMED = [
    # nodes, TSV
    (read_nodes, "id\tcategory\n",
     "line 1, column 1: nodes header must start with ['id', 'category', 'name'], got ['id', 'category']"),
    (read_nodes, "category\tid\tname\n",
     "line 1, column 1: nodes header must start with ['id', 'category', 'name'], "
     "got ['category', 'id', 'name']"),
    (read_nodes, "", "line 1, column 1: missing nodes header"),
    (read_nodes, "id\tcategory\tname\tsymbol\tsymbol\nA:1\tGene\tx\ta\tb\n",
     "line 1, column 1: duplicate column 'symbol' in nodes header"),
    (read_nodes, _N + "NCBIGene:1\tGene\n", "line 2, column 1: expected 3 columns, got 2"),
    (read_nodes, _N + "A:1\tGene\tx\textra\n", "line 2, column 1: expected 3 columns, got 4"),
    (read_nodes, _N + "NCBI|Gene:1\tGene\tx\n",
     "line 2, column 1: literal '|' in single-valued column 'id'"),
    (read_nodes, _N + "NCBIGene:1\tGene\ta|b\n",
     "line 2, column 1: literal '|' in single-valued column 'name'"),
    (read_nodes, _N + "NCBIGene:1\t\tx\n", "line 2, column 1: node has no categories"),
    (read_nodes, _N + "A:1\t\ta|b\n",
     "line 2, column 1: literal '|' in single-valued column 'name'"),
    (read_nodes, "id\tcategory\tname\r\nA:1\tGene\tx\r\n\r\nB:2\t|\tx\r\n",
     "line 4, column 1: node has no categories"),
    (read_nodes, _N + "not a curie\tGene\tx\n",
     "line 2, column 1: not a prefix:local_id pair: 'not a curie'"),
    (read_nodes, _N + "A:1\tGene\tx\nA1\t\ta|b\n",
     "line 3, column 1: literal '|' in single-valued column 'name'"),
    # The reader takes the text a block of rows at a time; these faults lie
    # past the first block.
    (read_nodes, _N + "A:1\tGene\tx\n" * 7000 + "B:2\tGene\n",
     "line 7002, column 1: expected 3 columns, got 2"),
    # nodes, JSONL
    (read_nodes, '{"id": "A:1", "category": []}\n', "line 1, column 1: node has no categories"),
    (read_nodes, '{"id": "A:1"}\n', "line 1, column 1: node has no categories"),
    (read_nodes, '{"id": "A:1", "category": null}\n', "line 1, column 1: node has no categories"),
    (read_nodes, '{"id": "A:1", "category": ["Gene", 1]}\n',
     "line 1, column 1: 'category' must be an array of strings"),
    (read_nodes, '{"id": "A:1", "category": ["Gene"], "name": 5}\n',
     "line 1, column 1: 'name' must be a string"),
    (read_nodes, '{"id": "A:1", "category": ["Gene"], "name": 5, "a": 2}\n',
     "line 1, column 1: 'name' must be a string"),
    (read_nodes, '{"id": "A:1", "category": ["Gene"], "symbol": "A1"}\n',
     "line 1, column 1: 'symbol' must be an array of strings"),
    (read_nodes, '{"id": "A:1", "category": ["Gene"], "b": 1, "a": 2}\n',
     "line 1, column 1: 'a' must be an array of strings"),
    (read_nodes, '{"id": "not a curie", "category": ["Gene"]}\n',
     "line 1, column 1: not a prefix:local_id pair: 'not a curie'"),
    (read_nodes, '{"id": "", "category": ["Gene"]}\n',
     "line 1, column 1: not a prefix:local_id pair: ''"),
    (read_nodes, '{"category": []}\n', "line 1, column 1: not a prefix:local_id pair: ''"),
    (read_nodes, _NJ + "[1]\n", "line 2, column 1: each node line must be a JSON object"),
    (read_nodes, "[1]\n", "line 1, column 1: each node line must be a JSON object"),
    (read_nodes, '"x"\n' + _NJ, "line 1, column 1: each node line must be a JSON object"),
    (read_nodes, _NJ + '\n{"id": \n', "line 3, column 7: invalid JSON: Expecting value"),
    (read_nodes, r'{"id": "A:\ud800", "category": ["Gene"]}' "\n",
     "line 1, column 1: 'id' holds an unpaired surrogate escape"),
    (read_nodes, _NJ + r'{"id": "A:2", "category": ["Gene"], "name": "x\udc00"}',
     "line 2, column 1: 'name' holds an unpaired surrogate escape"),
    (read_nodes, r'{"id": "A:1", "category": ["Gene", "\udfff"]}',
     "line 1, column 1: 'category' holds an unpaired surrogate escape"),
    (read_nodes, r'{"id": "A:1", "category": ["Gene"], "xref": ["X:1", "\ud83d"]}',
     "line 1, column 1: 'xref' holds an unpaired surrogate escape"),
    (read_nodes, _NJ + '{"id": "A:2", "category": ["Gene"], "n": ' + "1" * 5000 + "}\n",
     "line 2, column 1: invalid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
     "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"),
    # edges, TSV
    (read_edges, "subject\tpredicate\n",
     "line 1, column 1: edges header must start with ['subject', 'predicate', 'object'], "
     "got ['subject', 'predicate']"),
    (read_edges, "\n", "line 1, column 1: missing edges header"),
    (read_edges, "subject\tpredicate\tobject\tp\tp\nA:1\tq\tB:2\tx\ty\n",
     "line 1, column 1: duplicate column 'p' in edges header"),
    (read_edges, _E + "A:1\ttreats\n", "line 2, column 1: expected 3 columns, got 2"),
    (read_edges, "subject\tpredicate\tobject\r\n\r\nA:1\ttreats\tB:2\tx\r\n",
     "line 3, column 1: expected 3 columns, got 4"),
    (read_edges, _E + "A:1\ttreats|affects\tB:2\n",
     "line 2, column 1: literal '|' in single-valued column 'predicate'"),
    (read_edges, _E + "A|1:1\t\tB:2\n",
     "line 2, column 1: literal '|' in single-valued column 'subject'"),
    (read_edges, _E + "A:1\t\tB:2\n", "line 2, column 1: empty predicate"),
    (read_edges, _E + "A1\t\tB:2\n", "line 2, column 1: empty predicate"),
    (read_edges, _E + "A1\ttreats\tB:2\n", "line 2, column 1: not a prefix:local_id pair: 'A1'"),
    (read_edges, _E + "A:1\ttreats\tB: 2\n",
     "line 2, column 1: whitespace in identifier: 'B: 2'"),
    (read_edges, _E + "A:1\ttreats\tB:2\n" * 5000 + "\r\n" + "A:1\ttreats\tB2\r\n",
     "line 5003, column 1: not a prefix:local_id pair: 'B2'"),
    # edges, JSONL
    (read_edges, '{"subject": "A:1", "predicate": "", "object": "B:2"}\n',
     "line 1, column 1: empty predicate"),
    (read_edges, '{"subject": "A:1", "predicate": 5, "object": "B:2"}\n',
     "line 1, column 1: 'predicate' must be a string"),
    (read_edges, '{"subject": "A1", "predicate": "", "object": "B:2"}\n',
     "line 1, column 1: empty predicate"),
    (read_edges, '{"subject": "A:1", "predicate": "p", "object": "B2"}\n',
     "line 1, column 1: not a prefix:local_id pair: 'B2'"),
    (read_edges, '{"predicate": "p", "object": "B:2"}\n',
     "line 1, column 1: not a prefix:local_id pair: ''"),
    (read_edges, '{"subject": "A:1", "predicate": "p", "object": "B:2", "publications": "PMID:1"}\n',
     "line 1, column 1: 'publications' must be an array of strings"),
    (read_edges, _EJ + '"text"\n', "line 2, column 1: each edge line must be a JSON object"),
    (read_edges, "[1]\n" + _EJ, "line 1, column 1: each edge line must be a JSON object"),
    (read_edges, '\n  "x"\n', "line 2, column 1: each edge line must be a JSON object"),
    (read_edges, _EJ + '{"subject": "A:1",}\n',
     "line 2, column 19: invalid JSON: Expecting property name enclosed in double quotes"),
    (read_edges, _EJ + '\n\n{"subject" "A:1"}\n',
     "line 4, column 12: invalid JSON: Expecting ':' delimiter"),
    (read_edges, r'{"subject": "A:1", "predicate": "p\ud800", "object": "B:2"}',
     "line 1, column 1: 'predicate' holds an unpaired surrogate escape"),
    (read_edges, _EJ + r'{"subject": "A:\udbff", "predicate": "p", "object": "B:2"}',
     "line 2, column 1: 'subject' holds an unpaired surrogate escape"),
    (read_edges, r'{"subject": "A:1", "predicate": "p", "object": "B:2", "publications": ["\ud800"]}',
     "line 1, column 1: 'publications' holds an unpaired surrogate escape"),
    (read_edges, r'{"subject": "A:1", "predicate": "p", "object": "B:2", "\ud800": ["x"]}',
     "line 1, column 1: '\\ud800' holds an unpaired surrogate escape"),
]


def _case_id(text: str) -> str:
    """A table row's test id: its text, or the text's head and length when that is long."""
    return text if len(text) <= 200 else f"{text[:60]}...({len(text)} chars)"


@pytest.mark.parametrize(
    "read, text, message", [pytest.param(*case, id=_case_id(case[1])) for case in MALFORMED]
)
def test_read_nodes_rejects_malformed(read, text, message):
    with pytest.raises(ParseError) as info:
        read(text)
    assert str(info.value) == message
    assert info.value.line == int(message.split(",")[0].removeprefix("line "))


def test_read_edges_rejects_pipe_in_core_columns():
    text = "subject\tpredicate\tobject\nA:1\ttreats|affects\tB:2\n"
    with pytest.raises(ParseError):
        read_edges(text)


def test_read_jsonl_rejects_non_array_property():
    with pytest.raises(ParseError):
        read_nodes('{"id": "A:1", "category": ["Gene"], "symbol": "A1"}\n')


def test_read_jsonl_keeps_escapes_that_utf8_can_hold():
    text = r'{"id": "A:1", "category": ["Gene"], "name": "\u00e9\ud83d\ude00", "xref": ["\\ud800"]}'
    node = read_nodes(text)[0]
    assert node.name == "\u00e9\U0001f600"
    assert node.properties == {"xref": ["\\ud800"]}
    assert read_nodes(write_nodes([node], fmt="jsonl")) == [node]


DEEP_ARRAY = "[" * 50_000 + "]" * 50_000


@pytest.mark.parametrize(
    "read, text",
    [
        (read_nodes, '{"id": "A:1", "category": ["Gene"]}\n{"id": "A:2", "category": %s}\n'),
        (read_edges, '{"subject": "A:1", "predicate": "p", "object": "A:2"}\n{"subject": %s}\n'),
    ],
    ids=["nodes", "edges"],
)
def test_read_jsonl_rejects_deep_nesting_as_parse_error(read, text):
    with pytest.raises(ParseError) as info:
        read(text % DEEP_ARRAY)
    assert info.value.line == 2


@pytest.mark.parametrize(
    "text, message",
    [
        # The decoder may read on into the next line; the fault is the first line's.
        ('{"subject": "A:1", "predicate": "p", "object": "B:2", "x": \n' + "[" * 50_000 + "\n",
         "line 1, column 59: invalid JSON: Expecting value"),
        ('{"subject": "A:1", "predicate": "p",\n"object": "B:2"}\n',
         "line 1, column 37: invalid JSON: Expecting property name enclosed in double quotes"),
        (_EJ + '{"subject": "A:1", "predicate": "p", "object": "B:2"} x\n',
         "line 2, column 55: invalid JSON: Extra data"),
    ],
    ids=["unterminated-then-deep", "continued", "trailing"],
)
def test_jsonl_object_must_end_on_its_own_line(text, message):
    with pytest.raises(ParseError) as info:
        read_edges(text)
    assert str(info.value) == message


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as info:
        read_nodes("id\tcategory\tname\nNCBIGene:1\tGene\tok\nbroken row\tGene\n")
    assert info.value.line == 3


def test_node_merge_unions_categories():
    nodes = [
        Node("NCBIGene:1", ["Gene"], "alpha"),
        Node("NCBIGene:1", ["Protein"], "beta", {"symbol": ["A1"]}),
    ]
    kg = build_graph(nodes, [])
    merged = kg.nodes["NCBIGene:1"]
    assert merged.categories == ["Gene", "Protein"]
    assert merged.name == "alpha"  # first seen wins
    assert merged.properties == {"symbol": ["A1"]}


def test_edge_merge_unions_publications():
    edge = lambda pubs: Edge(
        "A:1", "treats", "B:2", {"publications": [pubs]}
    )
    kg = build_graph(
        [Node("A:1", ["Gene"]), Node("B:2", ["Disease"])],
        [edge("PMID:1"), edge("PMID:2")],
    )
    assert len(kg.edges) == 1
    assert kg.edges[0].properties["publications"] == ["PMID:1", "PMID:2"]


def test_dedup_never_loses_provenance():
    rng = random.Random(77)
    pubs = [f"PMID:{rng.randint(1, 20)}" for _ in range(30)]
    edges = [
        Edge("A:1", "treats", "B:2", {"publications": [p]}) for p in pubs
    ]
    kg = build_graph([Node("A:1", ["Gene"]), Node("B:2", ["Disease"])], edges)
    assert set(kg.edges[0].properties["publications"]) == set(pubs)


def test_dangling_edges_collected_not_fatal():
    edges = [Edge("A:1", "treats", "GONE:9")]
    kg = build_graph([Node("A:1", ["Gene"])], edges)
    assert kg.dangling_edge_ordinals() == [0]
    with pytest.raises(DanglingEdgeError):
        build_graph([Node("A:1", ["Gene"])], edges, strict=True)


def test_tsv_jsonl_round_trips(demo_nodes_text, demo_edges_text):
    nodes = read_nodes(demo_nodes_text)
    edges = read_edges(demo_edges_text)
    original = build_graph(nodes, edges)
    for fmt in ("tsv", "jsonl"):
        nodes_rt = read_nodes(write_nodes(nodes, fmt))
        edges_rt = read_edges(write_edges(edges, fmt))
        assert graph_equal(original, build_graph(nodes_rt, edges_rt))
        # Core column names of the other record kind are ordinary properties.
        node = Node("A:1", ["Gene"], properties={"subject": ["S:1"]})
        edge = Edge("A:1", "treats", "B:2", {"id": ["I:1"], "name": ["n"]})
        assert read_nodes(write_nodes([node], fmt)) == [node]
        assert read_edges(write_edges([edge], fmt)) == [edge]


def test_writers_emit_exact_text():
    nodes = [
        Node("A:1", ["Gene", "Protein"], None, {"xref": ["X:1", "X:2"]}),
        Node("B:2", ["Disease"], "beta"),
    ]
    edges = [
        Edge("A:1", "treats", "B:2", {"publications": ["PMID:1", "PMID:2"]}),
        Edge("B:2", "affects", "A:1"),
    ]
    assert write_nodes(nodes) == (
        "id\tcategory\tname\txref\nA:1\tGene|Protein\t\tX:1|X:2\nB:2\tDisease\tbeta\t\n"
    )
    assert write_nodes(nodes, "jsonl") == (
        '{"category": ["Gene", "Protein"], "id": "A:1", "xref": ["X:1", "X:2"]}\n'
        '{"category": ["Disease"], "id": "B:2", "name": "beta"}\n'
    )
    assert write_edges(edges) == (
        "subject\tpredicate\tobject\tpublications\n"
        "A:1\ttreats\tB:2\tPMID:1|PMID:2\nB:2\taffects\tA:1\t\n"
    )
    assert write_edges(edges, "jsonl") == (
        '{"object": "B:2", "predicate": "treats", "publications": ["PMID:1", "PMID:2"], "subject": "A:1"}\n'
        '{"object": "A:1", "predicate": "affects", "subject": "B:2"}\n'
    )
    assert (write_nodes([]), write_edges([], "jsonl")) == ("id\tcategory\tname\n", "")


# Text that JSON must escape, or must pass through as it stands: lone
# surrogates and U+2028 included, and a '%' for any text template; a CR
# and a '|' that TSV cannot hold.
_ESCAPED = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\r", "|", "\u2028", "\u2029",
            "\U0001f600", "\ud800", "\udfff", "%", "%s", "\u00e9", "/"]
_json_text = st.lists(st.sampled_from(_ESCAPED) | st.characters(), max_size=4).map("".join)
# Property keys that sort before, between and after each kind's core keys.
_KEYS = ["", "a", "categoryz", "d", "ida", "m", "o", "objectz", "p", "predicatez", "s",
         "subjectz", "xref", "\u00e9", "%"]


# Lists of strings, as read; then what only a library caller makes: other
# items in a list, and values that are not lists.
def _values(text):
    return (
        st.lists(text, max_size=3)
        | st.lists(text | st.integers() | st.none(), max_size=3)
        | text
        | st.tuples(text, text)
        | st.integers()
        | st.none()
    )


def _properties(core, text):
    keys = (st.sampled_from(_KEYS) | text).filter(lambda key: key not in core)
    return st.dictionaries(keys, _values(text), max_size=4)


def _records(text):
    return {
        "node": st.builds(Node, text, st.lists(text, max_size=3) | st.tuples(text, text),
                          st.none() | text, _properties(kg_store.NODE_COLUMNS, text)),
        "edge": st.builds(Edge, text, text, text, _properties(kg_store.EDGE_COLUMNS, text)),
        "violation": st.builds(Violation, text, st.sampled_from(["error", "warning"]) | text,
                               text, text),
    }


_json_records = _records(_json_text)
# Half of the text is text that TSV can hold, so that some writes succeed.
_tsv_records = _records(st.text("ab:1 \u00e9", max_size=3) | _json_text)


@settings(max_examples=max_examples(150), deadline=None)
@given(st.sampled_from(sorted(_json_records)).flatmap(lambda kind: st.tuples(
    st.just(kind), st.lists(_json_records[kind], max_size=5))))
def test_jsonl_writers_equal_the_naive_writer(case):
    kind, records = case
    # Blocks of one and two records: each block has its own key shapes and value types.
    for block in (kg_store._RECORD_BLOCK, 1, 2):
        with patch.object(kg_store, "_RECORD_BLOCK", block):
            if kind == "violation":
                report = ValidationReport(records, {"X": len(records)}, "h")
                header, rest = report.to_jsonl().split("\n", 1)
                assert json.loads(header) == {
                    "counts": {"X": len(records)},
                    "errors": report.error_count,
                    "warnings": report.warning_count,
                    "inputs_hash": "h",
                }
                assert rest == naive_jsonl_write(records)
            else:
                write = write_nodes if kind == "node" else write_edges
                assert write(records, "jsonl") == naive_jsonl_write(records)


def _outcome(write, *args):
    """The text written, or the message of a ValueError, or that a TypeError was raised."""
    try:
        return write(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))
    except TypeError:
        return TypeError


@settings(max_examples=max_examples(300), deadline=None)
@given(st.sampled_from(["node", "edge"]).flatmap(lambda kind: st.tuples(
    st.just(kind), st.lists(_tsv_records[kind], max_size=6))))
def test_tsv_writers_equal_the_naive_writer(case):
    kind, records = case
    write = write_nodes if kind == "node" else write_edges
    expected = _outcome(naive_tsv_write, records, kind)
    # Blocks of one and two records: each column of a block has its own mix of value types.
    for block in (kg_store._TSV_BLOCK, 1, 2):
        with patch.object(kg_store, "_TSV_BLOCK", block):
            assert _outcome(write, records, "tsv") == expected


def test_tsv_writer_joins_blocks_into_one_text():
    size = kg_store._TSV_BLOCK
    edges = [
        Edge(f"A:{i}", "treats", "B:1", {"p": [f"x{i}", "y"]} if i % 3 else {"q": f"v{i}"})
        for i in range(2 * size + 1)
    ]
    text = write_edges(edges)
    assert text == naive_tsv_write(edges, "edge")
    assert text.count("\n") == 2 * size + 2
    # A bad row in a later block is named; a '|' there is counted.
    for bad in (Edge("A:x", "tre\tats", "B:1"), Edge("A:x", "treats", "B:1", {"p": ["x|y"]})):
        edges[size + 1] = bad
        assert _outcome(write_edges, edges) == _outcome(naive_tsv_write, edges, "edge")
        assert _outcome(write_edges, edges)[0] == "ValueError"


def test_write_rejects_pipe_in_name():
    with pytest.raises(ValueError):
        write_nodes([Node("A:1", ["Gene"], "bad|name")])


@pytest.mark.parametrize(
    "item",
    [
        Node("A:1", ["Gene"], "tab\tname"),
        Node("A:1", ["Gene"], "line\nbreak"),
        Node("A:1", ["Gene\r"]),
        Node("A:1", ["Gene|Protein"]),
        Node("A:1", ["Gene"], properties={"xref": ["x|y"]}),
        Node("A:1", ["Gene"], properties={"xref": ["x", "y\tz"]}),
        Node("A:1", ["Gene"], properties={"bad\tcolumn": ["x"]}),
        Edge("A:1", "treats\t", "B:2"),
        Edge("A:1", "treats", "B:2", {"publications": ["PMID:1|PMID:2"]}),
        Edge("A:1", "treats", "B:2", {"note": ["two\nlines"]}),
        # A property named like a core column cannot be written in either format.
        Node("A:1", ["Gene"], "x", {"id": ["B:2"]}),
        Node("A:1", ["Gene"], properties={"category": ["Disease"]}),
        Node("A:1", ["Gene"], properties={"name": ["y"], "xref": ["X:1"]}),
        Edge("A:1", "treats", "B:2", {"subject": ["C:3"]}),
        Edge("A:1", "treats", "B:2", {"predicate": ["affects"]}),
        Edge("A:1", "treats", "B:2", {"object": []}),
    ],
)
def test_write_tsv_rejects_what_cannot_read_back(item):
    if isinstance(item, Node):
        write, read, core = write_nodes, read_nodes, {"id", "category", "name"}
    else:
        write, read, core = write_edges, read_edges, {"subject", "predicate", "object"}
    with pytest.raises(ValueError):
        write([item], "tsv")
    if core.isdisjoint(item.properties):
        assert read(write([item], "jsonl")) == [item]
    else:
        with pytest.raises(ValueError, match="core column"):
            write([item], "jsonl")


_ids = st.sampled_from(["A:1", "A:2", "B:1", "B:2"])


@st.composite
def _jsonl_graph(draw):
    # Arbitrary Unicode strings, and one TSV delimiter spliced into one of
    # them, so that each delimiter is tried on its own.
    hostile = draw(st.sampled_from(["", "\t", "\n", "\r", "|"]))
    target = draw(st.integers(0, 15))
    drawn = 0

    def text(min_size=0):
        nonlocal drawn
        value = draw(st.text(min_size=min_size))
        if drawn == target:
            at = draw(st.integers(0, len(value)))
            value = value[:at] + hostile + value[at:]
        drawn += 1
        return value

    def values():
        return [text(1) for _ in range(draw(st.integers(1, 3)))]

    def properties():
        return {text(): values() for _ in range(draw(st.integers(0, 2)))}

    node_lines = [
        json.dumps({**properties(), "id": node_id, "category": values(), "name": text()})
        for node_id in draw(st.lists(_ids, min_size=1, max_size=4))
    ]
    edge_lines = [
        json.dumps({
            **properties(), "subject": draw(_ids), "predicate": text(1), "object": draw(_ids),
        })
        for _ in range(draw(st.integers(0, 4)))
    ]
    return "\n".join(node_lines) + "\n", "\n".join(edge_lines) + "\n"


@given(_jsonl_graph())
def test_jsonl_to_tsv_is_lossless_or_rejected(texts):
    nodes = read_nodes(texts[0], "jsonl")
    edges = read_edges(texts[1], "jsonl")
    try:
        nodes_tsv = write_nodes(nodes, "tsv")
        edges_tsv = write_edges(edges, "tsv")
    except ValueError:
        return
    round_trip = build_graph(read_nodes(nodes_tsv, "tsv"), read_edges(edges_tsv, "tsv"))
    assert graph_equal(build_graph(nodes, edges), round_trip)


# Property cells that hold no value (empty, separators only), repeated
# values and empty values between separators.
_PROPERTY_CELLS = st.sampled_from(["", "|", "||", "a||b", "a|a", "a"])


@st.composite
def _tsv_graph(draw):
    """Node and edge TSV texts whose property cells come from ``_PROPERTY_CELLS``."""
    node_extras = draw(st.lists(st.sampled_from(["xref", "symbol"]), unique=True, max_size=2))
    edge_extras = draw(st.lists(st.sampled_from(["xref", "publications"]), unique=True, max_size=2))
    node_lines = ["\t".join(["id", "category", "name", *node_extras])] + [
        "\t".join([node_id, "Gene", draw(st.sampled_from(["", "a"])),
                   *(draw(_PROPERTY_CELLS) for _ in node_extras)])
        for node_id in draw(st.lists(_ids, min_size=1, max_size=4))
    ]
    edge_lines = ["\t".join(["subject", "predicate", "object", *edge_extras])] + [
        "\t".join([draw(_ids), "p", draw(_ids), *(draw(_PROPERTY_CELLS) for _ in edge_extras)])
        for _ in range(draw(st.integers(0, 4)))
    ]
    return "\n".join(node_lines) + "\n", "\n".join(edge_lines) + "\n"


@given(_tsv_graph())
def test_tsv_to_jsonl_to_tsv_is_lossless(texts):
    """A cell that holds no value reads as no property in TSV, as ``[]`` and
    ``[""]`` do in JSONL, so each format reads back the graph it was given."""
    nodes = read_nodes(texts[0], "tsv")
    edges = read_edges(texts[1], "tsv")
    graph = build_graph(nodes, edges)
    jsonl = build_graph(read_nodes(write_nodes(nodes, "jsonl"), "jsonl"),
                        read_edges(write_edges(edges, "jsonl"), "jsonl"))
    assert graph_equal(graph, jsonl)
    nodes_tsv = write_nodes(list(jsonl.nodes.values()), "tsv")
    edges_tsv = write_edges(jsonl.edges, "tsv")
    assert graph_equal(graph, build_graph(read_nodes(nodes_tsv, "tsv"), read_edges(edges_tsv, "tsv")))


# Pieces of hostile JSONL: whitespace that str.strip drops but JSON does
# not, and whole lines that break a rule or stretch the reader's line ends.
_STRIPPED = ["", " ", "\t", "\r", "\x0b", "\x1c", "\xa0", "\u2028"]
_ODD_LINES = [
    "", " ", "\t\r", "\xa0", "\u2028", "[1]", '"x"', "1", "null", "true", "{}",
    '{"x": ' + DEEP_ARRAY + "}",
    '{"id": "A:1", "id": "B:2", "category": ["Gene"], "category": ["Protein"]}',
    '{"subject": "A:1", "subject": "B:2", "predicate": "p", "object": "A:1"}',
    '{"id": "A:1", "category": ["Gene"], "score": NaN}',
    '{"subject": "A:1", "predicate": "p", "object": "B:2", "x": [NaN, Infinity]}',
    r'{"id": "A:1", "category": ["Gene"], "name": "\ud800"}',
    r'{"id": "A:1", "category": ["Gene"], "name": "\ud83d\ude00"}',
    r'{"subject": "A:1", "predicate": "p\udc00", "object": "B:2"}',
    r'{"subject": "A:1", "predicate": "p", "object": "B:2", "\ud83d\ude00": ["\u00e9"]}',
    r'{"id": "A:1", "category": ["Gene"], "\udfff": ["x"]}',
    r'{"id": "A:1", "category": ["Gene"], "xref": ["\\ud800"]}',
    '{"n": ' + "9" * 4301 + "}",
]


_GUARD_LINES = ['{"a":[[{}', '{}]]}', '{"s":"A:1"}, {"s":"B:2"}']


@st.composite
def _hostile_jsonl(draw, kind):
    """JSONL text of ``kind`` records: mostly valid rows, some faulty, some hostile lines."""
    core = ("id", "category", "name") if kind == "node" else ("subject", "predicate", "object")
    good = {
        "id": st.sampled_from(["A:1", "B:2", "C:3"]),
        "category": st.sampled_from([["Gene"], ["Gene", "Protein"], ["Gene", "Gene", ""]]),
        "name": st.sampled_from(["a", "", "a|b", "\u00e9"]) | st.none(),
        "subject": st.sampled_from(["A:1", "B:2"]),
        "predicate": st.sampled_from(["p", "related_to"]),
        "object": st.sampled_from(["A:1", "C:3"]),
    }
    bad = st.sampled_from(["", "x", "A: 1", 5, None, [], [""], ["Gene", 1], "Gene"]) | st.text(max_size=3)
    values = st.lists(st.sampled_from(["PMID:1", "PMID:2", "", "\u00e9"]), max_size=3)
    bad_values = st.sampled_from(["PMID:1", [1], None, [["x"]], {"a": ["b"]}])

    def row() -> str:
        obj = {}
        for name in core:
            fault = draw(st.integers(0, 3 * len(core) * 3)) == 0
            if fault and draw(st.booleans()):
                continue  # absent
            obj[name] = draw(bad if fault else good[name])
        for key in draw(st.lists(st.sampled_from(["publications", "xref", "a", "\u00e9"]), max_size=3)):
            obj[key] = draw(bad_values if draw(st.integers(0, 9)) == 0 else values)
        order = draw(st.permutations(list(obj)))
        return json.dumps({key: obj[key] for key in order}, ensure_ascii=draw(st.booleans()))

    lines = []
    for _ in range(draw(st.integers(1, 5))):
        shape = draw(st.integers(0, 20))
        if shape < 12:
            lines.append(row())
        elif shape < 15:
            lines.append(draw(st.sampled_from(_STRIPPED)) + row() + draw(st.sampled_from(_STRIPPED)))
        elif shape == 15:
            lines.append(draw(st.sampled_from(_ODD_LINES)))
        elif shape == 16:
            # An object that continues onto the next line.
            text = row()
            at = draw(st.integers(1, len(text) - 1))
            lines.append(text[:at] + draw(st.sampled_from(["\n", "\r\n", "\n\n"])) + text[at:])
        elif shape == 17:
            # Unterminated, then a line the decoder cannot nest into.
            lines.append(row()[:-1] + ', "x": ')
            lines.append(draw(st.sampled_from(["[" * 50_000, DEEP_ARRAY, "1}", "]"])))
        elif shape == 18:
            lines.append(row() + draw(st.sampled_from([" x", "}", ",", " {}", "\x00"])))
        elif shape == 19:
            lines.append("\ufeff" + row())
        else:
            # Joined into one array these decode to three objects, one per
            # line, though no line reads on its own.
            lines += _GUARD_LINES
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=max_examples(150), deadline=None)
@given(st.sampled_from(["node", "edge"]).flatmap(lambda kind: st.tuples(st.just(kind), _hostile_jsonl(kind))),
       st.just(kg_store._READ_BLOCK) | st.integers(1, 48))
def test_jsonl_reader_equals_the_naive_line_reader(case, block):
    """With blocks of a few characters, blocks the screen takes and blocks it
    hands to the row loop alternate, and faults fall in later blocks."""
    kind, text = case
    read = read_nodes if kind == "node" else read_edges
    try:
        expected = naive_jsonl_read(text, kind)
    except ParseError as fault:
        with patch.object(kg_store, "_READ_BLOCK", block), pytest.raises(ParseError) as info:
            read(text, "jsonl")
        assert str(info.value) == str(fault)
    else:
        with patch.object(kg_store, "_READ_BLOCK", block):
            assert read(text, "jsonl") == expected


@pytest.mark.parametrize(
    "lines, message",
    [
        # Three objects from four "{", the first nested across two lines:
        # the count of "{" declines it.
        (_GUARD_LINES, "line 1, column 10: invalid JSON: Expecting ',' delimiter"),
        # An object that reads on into a line that does not start with "{".
        (['{"subject": "A:1", "predicate": "p", "object": "B:2", "x": ["y"]',
          '"z": ["w"]}, {"subject": "A:1", "predicate": "p", "object": "B:2"}'],
         "line 1, column 65: invalid JSON: Expecting ',' delimiter"),
        # The second line's "{" nests in the first object, whose duplicate key
        # then drops it, and a second object starts within the line.
        (['{"subject": "A:1", "predicate": "p", "object": "B:2", "x": [1',
          '{}], "x": ["y"]}, {"subject": "A:1", "predicate": "p", "object": "B:2"}'],
         "line 1, column 62: invalid JSON: Expecting ',' delimiter"),
        # One "{" per line, but one object for two lines, whose duplicate key
        # drops the nested one.
        (['{"subject": "A:1", "predicate": "p", "object": "B:2", "x": [1', '{}], "x": ["y"]}'],
         "line 1, column 62: invalid JSON: Expecting ',' delimiter"),
        # One object per line, and an array that runs from one line to the next.
        (['{"subject": "A:1", "predicate": "p", "object": "B:2"}, [5',
          '{"subject": "A:1", "predicate": "p", "object": "B:2"}]'],
         "line 1, column 54: invalid JSON: Extra data"),
    ],
    ids=["nested-across-lines", "continued", "nested-then-dropped", "one-object-two-lines", "array-across-lines"],
)
def test_jsonl_block_screen_declines_lines_that_do_not_read_alone(lines, message):
    """Joined into one array, each block decodes, yet its first line does not
    read on its own: the screen takes none of them, and the fault is line 1's."""
    block = "\n".join(lines)
    json.loads("[" + ",\n".join(lines) + "]")
    assert kg_store._jsonl_columns(block, block.split("\n"), EDGE_COLUMNS) is None
    with pytest.raises(ParseError) as info:
        read_edges(block + "\n", "jsonl")
    assert str(info.value) == message


def test_jsonl_property_keys_are_shared_within_a_block_and_sorted():
    # The decoder makes one object per distinct key in a block, and the
    # records keep the decoded objects as their properties; the keys of the
    # lines written unsorted (every other one) are sorted, as the row loop
    # sorts them.
    def line(i):
        obj = {"xref": [f"X:{i}", f"X:{i + 1}"], "subject": f"A:{i}", "predicate": "p", "object": "B:1",
               "publications": [f"PMID:{i}"]}
        if i % 3 == 0:
            obj["source"] = ["S:1"]  # six keys
        return json.dumps(obj, sort_keys=i % 2 == 0) + "\n"

    text = "".join(map(line, range(50)))
    assert len(text) < kg_store._READ_BLOCK
    assert kg_store._jsonl_columns(text, text.split("\n"), EDGE_COLUMNS) is not None
    edges = read_edges(text)
    keys = [key for edge in edges for key in edge.properties]
    assert len(keys) == 117 and len(set(map(id, keys))) == 3
    assert [list(edge.properties) for edge in edges] == [
        ["publications", "source", "xref"] if i % 3 == 0 else ["publications", "xref"] for i in range(50)
    ]
    # Each record's properties take no more room than a dict made of them.
    assert all(sys.getsizeof(edge.properties) == sys.getsizeof(dict(edge.properties.items())) for edge in edges)


@st.composite
def _hostile_tsv(draw, kind):
    """TSV text of ``kind`` records: mostly valid rows, some faulty, some hostile lines."""
    core = ["id", "category", "name"] if kind == "node" else ["subject", "predicate", "object"]
    extras = draw(st.lists(st.sampled_from(["publications", "xref"]), unique=True, max_size=2))
    header = core + extras
    if draw(st.integers(0, 29)) == 0:
        header = draw(st.sampled_from([core[:2], [*core, "xref", "xref"], [core[1], core[0], core[2]], [" "]]))
    good = {
        "id": st.sampled_from(["A:1", "B:2", "C:3"]),
        "category": st.sampled_from(["Gene", "Gene|Protein", "Gene|Gene|", "|Gene"]),
        "name": st.sampled_from(["a", "", "\u00e9", "a b"]),
        "subject": st.sampled_from(["A:1", "B:2"]),
        "predicate": st.sampled_from(["p", "related_to"]),
        "object": st.sampled_from(["A:1", "C:3"]),
    }
    bad = st.sampled_from(["", "|", "||", "x", "A: 1", " A:1", "A|1:1", "a|b"])
    values = st.sampled_from(["PMID:1", "PMID:1|PMID:2", "PMID:1|PMID:1", "", "|", "\u00e9"])

    def row() -> str:
        cells = [draw(bad if draw(st.integers(0, 39)) == 0 else good[column]) for column in core]
        cells += [draw(values) for _ in extras]
        shape = draw(st.integers(0, 29))
        if shape == 0:
            cells.pop()
        elif shape == 1:
            cells.append("x")
        return "\t".join(cells)

    lines = ["\t".join(header)]
    for _ in range(draw(st.integers(0, 16))):
        lines.append(draw(st.sampled_from(["", "\r", " "])) if draw(st.integers(0, 14)) == 0 else row())
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(map(str.__add__, lines, ends))
    if draw(st.booleans()):
        text = text.removesuffix(ends[-1])
    return draw(st.sampled_from(["", "\ufeff"])) + text


@settings(max_examples=max_examples(200), deadline=None)
@given(st.sampled_from(["node", "edge"]).flatmap(lambda kind: st.tuples(st.just(kind), _hostile_tsv(kind))),
       st.integers(1, 48))
def test_tsv_reader_equals_the_naive_line_reader(case, block):
    """With blocks of a few characters, faults fall on the first, middle and
    last rows of later blocks; ids stay one object each across blocks."""
    kind, text = case
    read = read_nodes if kind == "node" else read_edges
    try:
        expected = naive_tsv_read(text, kind)
    except ParseError as fault:
        with patch.object(kg_store, "_READ_BLOCK", block), pytest.raises(ParseError) as info:
            read(text, "tsv")
        assert str(info.value) == str(fault)
        return
    with patch.object(kg_store, "_READ_BLOCK", block):
        records = read(text, "tsv")
    assert records == expected
    if kind == "node":
        groups = [[node.id for node in records]]
    else:
        groups = [[end for edge in records for end in (edge.subject, edge.object)],
                  [edge.predicate for edge in records]]
    for values in groups:
        assert len(set(map(id, values))) == len(set(values))


def _hostile_input(kind):
    return st.sampled_from([_hostile_tsv, _hostile_jsonl]).flatmap(lambda hostile: hostile(kind))


@settings(max_examples=max_examples(200), deadline=None)
@given(st.sampled_from(["node", "edge"]).flatmap(lambda kind: st.tuples(st.just(kind), _hostile_input(kind))),
       st.integers(1, 48), st.integers(1, 3))
def test_convert_to_jsonl_equals_the_writer_on_the_readers_records(case, read_block, record_block):
    """``convert --to jsonl``, made a block at a time from the reader's checked
    columns, writes what ``write_*(read_*(text), "jsonl")`` gives, or fails with
    its message. With blocks of a few records, a JSONL block's last row, whose
    properties are read only when the next row is asked for, keeps them."""
    kind, text = case
    read, write = (read_nodes, write_nodes) if kind == "node" else (read_edges, write_edges)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / f"{kind}s.txt"
        path.write_text(text, encoding="utf-8")
        source = path.read_text(encoding="utf-8")  # as the CLI reads it: newlines translated

        def written():
            try:
                return write(read(source), "jsonl")
            except (ParseError, ValueError) as fault:
                return f"kgschema: {fault}\n"

        expected = written()
        try:
            with patch.object(kg_store, "_READ_BLOCK", read_block), \
                    patch.object(kg_store, "_RECORD_BLOCK", record_block):
                assert written() == expected  # the readers, a few records per block
                result = CliRunner().invoke(main, ["convert", f"--{kind}s", str(path), "--to", "jsonl"])
        finally:
            gc.unfreeze()  # the verb freezes what it made
    if result.exit_code == 0:
        assert result.stdout == expected and result.stderr == ""
    else:
        assert (result.exit_code, result.stdout, result.stderr) == (2, "", expected)


def test_read_edges_holds_no_list_of_every_line():
    # Beyond what it returns, the reader holds one block of rows at a time,
    # not a list of the text's lines, which alone would outweigh the text.
    ids = [f"NCBIGene:{i}" for i in range(500)]
    rng = random.Random(7)
    text = "subject\tpredicate\tobject\tpublications\n" + "".join(
        f"{rng.choice(ids)}\trelated_to\t{rng.choice(ids)}\tPMID:{i}\n" for i in range(40_000)
    )
    tracemalloc.start()
    try:
        edges = read_edges(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(edges) == 40_000
    assert peak - kept < 0.5 * len(text)


# Values TSV can hold, so that one record set renders in both formats.
_cell_text = st.text(st.characters(exclude_characters="\t\n\r|", exclude_categories=("Cs",)), max_size=4)
_values = st.lists(_cell_text.filter(bool), min_size=1, max_size=2)
_properties = st.dictionaries(st.sampled_from(["symbol", "xref"]), _values, max_size=2)
_good_curies = st.builds(
    "{}:{}".format, st.text("AB.", min_size=1, max_size=2), st.text("1:a", min_size=1, max_size=2)
)
_BAD_CURIES = ["", "A1", ":1", "A:", "A: 1", " A:1"]
_records = {
    "node": st.builds(Node, _good_curies.map(parse_curie), _values, st.none() | _cell_text, _properties),
    "edge": st.builds(Edge, _good_curies.map(parse_curie), _cell_text.filter(bool),
                      _good_curies.map(parse_curie), _properties),
}
_FAULTS = {"node": ["id", "category"], "edge": ["subject", "predicate", "object"]}
# Records whose JSONL lines the block screen takes as they are: distinct
# nonempty values, a name that is absent or nonempty, and no "{" in a string.
_clean_text = st.text(st.characters(exclude_characters="{", exclude_categories=("Cs",)), min_size=1, max_size=4)
_distinct_values = st.lists(_clean_text, min_size=1, max_size=3, unique=True)
_clean_properties = st.dictionaries(st.sampled_from(["symbol", "xref", "\u00e9"]), _distinct_values, max_size=3)
_clean_records = {
    "node": st.builds(Node, _good_curies.map(parse_curie), _distinct_values,
                      st.none() | _clean_text, _clean_properties),
    "edge": st.builds(Edge, _good_curies.map(parse_curie), _clean_text,
                      _good_curies.map(parse_curie), _clean_properties),
}


def _refuse(*args):
    raise AssertionError("the JSONL row loop ran")
    yield  # a generator, like the row loop: the screen's blocks never iterate it


@settings(max_examples=max_examples(100), deadline=None)
@given(st.sampled_from(["node", "edge"]).flatmap(
           lambda kind: st.tuples(st.just(kind), st.lists(_clean_records[kind], max_size=6))),
       st.just(kg_store._READ_BLOCK) | st.integers(1, 200))
def test_clean_jsonl_writer_output_reads_back_through_the_screen_alone(case, block):
    """What the JSONL writers make of records with distinct nonempty values
    reads back equal, with the row loop made to fail if it is ever run."""
    kind, records = case
    read, write = (read_nodes, write_nodes) if kind == "node" else (read_edges, write_edges)
    text = write(records, "jsonl")
    with patch.object(kg_store, "_READ_BLOCK", block), patch.object(kg_store, "_jsonl_rows", _refuse):
        assert read(text, "jsonl") == records


# Arrays the row loop cleans: repeated and empty strings, and empty arrays.
_unclean_values = st.lists(st.sampled_from(["PMID:1", "PMID:2", "", "é"]), max_size=4)
_unclean_core = {
    "id": st.sampled_from(["A:1", "B:2"]),
    "category": st.lists(st.sampled_from(["Gene", "Protein", ""]), max_size=3).map(lambda values: values + ["Gene"]),
    "name": st.sampled_from(["a", ""]) | st.none(),
    "subject": st.sampled_from(["A:1", "B:2"]),
    "predicate": st.just("p"),
    "object": st.sampled_from(["A:1", "C:3"]),
}


@settings(max_examples=max_examples(100), deadline=None)
@given(st.data(), st.just(kg_store._READ_BLOCK) | st.integers(1, 200))
def test_jsonl_screen_cleans_arrays_as_the_row_loop_does(data, block):
    """Lines whose arrays hold repeated or empty strings, or nothing, are
    read by the block screen alone, with the line reader's result: each
    array keeps its distinct nonempty strings, and an empty property goes."""
    kind = data.draw(st.sampled_from(["node", "edge"]))
    core = ("id", "category", "name") if kind == "node" else ("subject", "predicate", "object")
    lines = []
    for _ in range(data.draw(st.integers(1, 8))):
        obj = {name: data.draw(_unclean_core[name]) for name in core}
        for key in data.draw(st.lists(st.sampled_from(["publications", "xref", "é"]), max_size=3)):
            obj[key] = data.draw(_unclean_values)
        order = data.draw(st.permutations(list(obj)))
        lines.append(json.dumps({key: obj[key] for key in order}))
    text = "\n".join(lines) + "\n"
    read = read_nodes if kind == "node" else read_edges
    with patch.object(kg_store, "_READ_BLOCK", block), patch.object(kg_store, "_jsonl_rows", _refuse):
        assert read(text, "jsonl") == naive_jsonl_read(text, kind)


def _curie_message(text):
    with pytest.raises(MalformedCurieError) as info:
        parse_curie(text)
    return str(info.value)


@given(st.data())
def test_twin_faults_give_one_message_in_both_formats(data):
    """A field fault injected into the TSV and the JSONL rendering of one record
    set is reported with one message, in TSV's rule order, on the same record."""
    kind = data.draw(st.sampled_from(["node", "edge"]))
    read, write = (read_nodes, write_nodes) if kind == "node" else (read_edges, write_edges)
    records = data.draw(st.lists(_records[kind], min_size=1, max_size=4))
    at = data.draw(st.integers(0, len(records) - 1))
    faults = data.draw(st.lists(st.sampled_from(_FAULTS[kind]), min_size=1, max_size=2, unique=True))
    tsv_lines = write(records, "tsv").split("\n")
    jsonl_lines = write(records, "jsonl").split("\n")
    header = tsv_lines[0].split("\t")
    cells = tsv_lines[at + 1].split("\t")
    obj = json.loads(jsonl_lines[at])
    bad = {}
    for column in faults:
        if column == "category":
            cells[1] = data.draw(st.sampled_from(["", "|", "||"]))
            # JSONL may also leave the categories out or spell them null.
            spelling = data.draw(st.sampled_from([[], [""], ["", ""], None, "absent"]))
            if spelling == "absent":
                del obj[column]
            else:
                obj[column] = spelling
            continue
        bad[column] = "" if column == "predicate" else data.draw(st.sampled_from(_BAD_CURIES))
        cells[header.index(column)] = bad[column]
        # JSONL may spell an empty core value as "", null or an absent key.
        spelling = data.draw(st.sampled_from(["text", "null", "absent"]) if not bad[column] else st.just("text"))
        if spelling == "absent":
            del obj[column]
        else:
            obj[column] = None if spelling == "null" else bad[column]
    tsv_lines[at + 1] = "\t".join(cells)
    jsonl_lines[at] = json.dumps(obj)
    with pytest.raises(ParseError) as tsv_error:
        read("\n".join(tsv_lines))
    with pytest.raises(ParseError) as jsonl_error:
        read("\n".join(jsonl_lines))
    if kind == "node":
        expected = _curie_message(bad["id"]) if "id" in bad else "node has no categories"
    elif "predicate" in bad:
        expected = "empty predicate"
    else:
        expected = _curie_message(bad.get("subject", bad.get("object")))
    assert tsv_error.value.message == jsonl_error.value.message == expected
    assert tsv_error.value.line == jsonl_error.value.line + 1 == at + 2


def test_normalize_graph_fixed_point(seed_doc, seed_index, demo_graph, demo_equivalences):
    normalized, report = normalize_graph(demo_graph, demo_equivalences, seed_doc, seed_index)
    assert graph_equal(normalized, demo_graph)
    assert report.nodes_merged == 0
    assert report.edges_deduplicated == 0
    assert report.ids_rewritten == 0
    assert report.unknown_ids == len(demo_graph.nodes) - 4  # 4 ids sit in cliques


def test_normalize_graph_merges_clique_members(seed_doc, seed_index):
    table = load_equivalences("Gene\tNCBIGene:23221|HGNC:18756\n")
    disease = Node("MONDO:1", ["Disease"])
    nodes = [
        Node("HGNC:18756", ["Gene"], "by hgnc"),
        Node("NCBIGene:23221", ["Gene"], "by ncbi"),
        disease,
    ]
    edges = [
        Edge("HGNC:18756", "gene_associated_with_condition", "MONDO:1",
             {"publications": ["PMID:1"]}),
        Edge("NCBIGene:23221", "gene_associated_with_condition", "MONDO:1",
             {"publications": ["PMID:2"]}),
    ]
    kg = build_graph(nodes, edges)
    normalized, report = normalize_graph(kg, table, seed_doc, seed_index)
    gene_nodes = [n for n in normalized.nodes.values() if "Gene" in n.categories]
    assert len(gene_nodes) == 1
    assert gene_nodes[0].id == "NCBIGene:23221"
    assert len(normalized.edges) == 1
    assert set(normalized.edges[0].properties["publications"]) == {"PMID:1", "PMID:2"}
    assert report.nodes_merged == 1
    assert report.edges_deduplicated == 1
    assert report.ids_rewritten == 1
    assert report.name_conflicts == 1


def _random_table(rng, kg, seed_doc):
    ids = sorted(kg.nodes)
    lines = []
    used = set()
    for _ in range(rng.randint(0, 4)):
        pool = [i for i in ids if i not in used]
        if len(pool) < 2:
            break
        members = rng.sample(pool, 2)
        used.update(members)
        lines.append("Gene\t" + "|".join(members))
    return load_equivalences("\n".join(lines) + ("\n" if lines else ""))


def _normalize_cases(rng, seed_doc):
    """Graphs with cliques over their ids: built ones, and hand-built ones
    whose edge lists repeat triples and whose node maps miss edge ends."""
    for _ in range(80):
        nodes, edges = random_graph(rng, seed_doc, max_nodes=12, max_edges=25)
        for node in rng.sample(nodes, rng.randint(0, len(nodes))):
            nodes.append(Node(node.id, ["Gene", "Disease"], rng.choice([None, "n0", f"dup {node.name}"]),
                              {"xref": [f"X:{rng.randint(1, 3)}"]}))
        for edge in rng.sample(edges, rng.randint(0, len(edges))):
            edges.append(Edge(edge.subject, edge.predicate, edge.object,
                              {"publications": [f"PMID:{rng.randint(1, 5)}"]}))
        rng.shuffle(nodes)
        rng.shuffle(edges)
        kg = build_graph(nodes, edges)
        table = _random_table(rng, kg, seed_doc)
        yield kg, table
        kept = {node_id: node for node_id, node in kg.nodes.items() if rng.random() < 0.7}
        yield KnowledgeGraph(kept, edges), table


def test_normalize_graph_equals_the_naive_normalizer(seed_doc, seed_index, monkeypatch):
    def recording(calls):
        def normalize(table, curie, doc, index):
            calls.append(curie)
            return normalize_curie(table, curie, doc, index)
        return normalize

    def fields(kg):
        return (
            [(key, n.id, n.categories, n.name, n.properties) for key, n in kg.nodes.items()],
            [(e.subject, e.predicate, e.object, e.properties) for e in kg.edges],
        )

    for kg, table in _normalize_cases(random.Random(2024), seed_doc):
        calls, naive_calls = [], []
        monkeypatch.setattr(kg_store, "normalize_curie", recording(calls))
        normalized, report = normalize_graph(kg, table, seed_doc, seed_index)
        expected, expected_report = naive_normalize(kg, table, seed_doc, seed_index,
                                                    recording(naive_calls))
        assert fields(normalized) == fields(expected)
        assert report == expected_report
        assert calls == naive_calls
        assert (normalized is kg) == (report.ids_rewritten == 0)
        again, again_report = normalize_graph(normalized, table, seed_doc, seed_index)
        assert again is normalized and again_report.ids_rewritten == 0


def test_normalize_graph_idempotent_on_random_graphs(seed_doc, seed_index):
    rng = random.Random(88)
    for _ in range(100):
        nodes, edges = random_graph(rng, seed_doc, max_nodes=12, max_edges=25)
        kg = build_graph(nodes, edges)
        table = _random_table(rng, kg, seed_doc)
        once, _ = normalize_graph(kg, table, seed_doc, seed_index)
        twice, report = normalize_graph(once, table, seed_doc, seed_index)
        assert graph_equal(once, twice)
        assert report.ids_rewritten == 0


def _snapshot(nodes, edges):
    return (
        [(n.id, list(n.categories), n.name, {k: list(v) for k, v in n.properties.items()})
         for n in nodes],
        [(e.key(), {k: list(v) for k, v in e.properties.items()}) for e in edges],
    )


def test_graph_builders_never_mutate_their_input(seed_doc, seed_index):
    rng = random.Random(404)
    for _ in range(60):
        nodes, edges = random_graph(rng, seed_doc, max_nodes=12, max_edges=25)
        # Duplicate rows make build_graph merge, cliques make normalize_graph merge.
        for node in rng.sample(nodes, rng.randint(0, len(nodes))):
            nodes.append(Node(node.id, ["Gene", "Disease"], f"dup {node.name}",
                              {"xref": [f"X:{rng.randint(1, 3)}"]}))
        for edge in rng.sample(edges, rng.randint(0, len(edges))):
            edges.append(Edge(edge.subject, edge.predicate, edge.object,
                              {"publications": [f"PMID:{rng.randint(1, 5)}"]}))
        rng.shuffle(nodes)
        rng.shuffle(edges)
        before = _snapshot(nodes, edges)
        kg = build_graph(nodes, edges)
        assert _snapshot(nodes, edges) == before
        table = _random_table(rng, kg, seed_doc)
        for graph in (kg, close_categories(kg, seed_index)):
            held = _snapshot(graph.nodes.values(), graph.edges)
            closed = close_categories(graph, seed_index)
            normalized, _ = normalize_graph(graph, table, seed_doc, seed_index)
            normalize_graph(normalized, table, seed_doc, seed_index)
            normalize_graph(closed, table, seed_doc, seed_index)
            assert _snapshot(graph.nodes.values(), graph.edges) == held
        assert _snapshot(nodes, edges) == before


def test_normalize_graph_preserves_reachability(seed_doc, seed_index):
    rng = random.Random(13)
    for _ in range(20):
        nodes, edges = random_graph(rng, seed_doc, max_nodes=10, max_edges=20)
        kg = build_graph(nodes, edges)
        table = _random_table(rng, kg, seed_doc)
        normalized, _ = normalize_graph(kg, table, seed_doc, seed_index)

        def reachable(graph):
            adjacency = {}
            for edge in graph.edges:
                adjacency.setdefault(edge.subject, set()).add(edge.object)
            out = {}
            for start in graph.nodes:
                seen = {start}
                stack = [start]
                while stack:
                    for nxt in adjacency.get(stack.pop(), ()):
                        if nxt not in seen:
                            seen.add(nxt)
                            stack.append(nxt)
                out[start] = seen
            return out

        from kgschema import normalize_curie

        mapping = {i: normalize_curie(table, i, seed_doc, seed_index) for i in kg.nodes}
        before = reachable(kg)
        after = reachable(normalized)
        for a in kg.nodes:
            for b in before[a]:
                assert mapping[b] in after[mapping[a]]


def test_graph_stats_empty(seed_index):
    report = graph_stats(build_graph([], []), seed_index)
    assert report.num_nodes == 0 and report.num_edges == 0
    assert report.nodes_by_category == {} and report.edges_by_predicate == {}


def test_graph_stats_names_a_node_with_no_category(seed_index):
    kg = build_graph([Node("NCBIGene:1", ["Gene"]), Node("A:1", [])], [])
    with pytest.raises(EmptyCategorySetError, match="'A:1'"):
        graph_stats(kg, seed_index)


def test_graph_stats_demo_tally(demo_graph, seed_index):
    report = graph_stats(demo_graph, seed_index)
    assert report.num_nodes == 9 and report.num_edges == 9
    assert report.nodes_by_category == {
        "Gene": 2,
        "Protein": 1,
        "SmallMolecule": 4,
        "Disease": 1,
        "PhenotypicFeature": 1,
    }
    assert report.edges_by_predicate == {
        "entity_regulates_entity": 1,
        "genetically_interacts_with": 1,
        "interacts_with": 2,
        "negatively_regulates": 1,
        "gene_associated_with_condition": 1,
        "has_phenotype": 1,
        "treats": 1,
        "affects": 1,
    }


def test_graph_stats_invariant_under_row_permutation(
    demo_nodes_text, demo_edges_text, seed_index
):
    rng = random.Random(3)
    header_n, *rows_n = [ln for ln in demo_nodes_text.split("\n") if ln]
    header_e, *rows_e = [ln for ln in demo_edges_text.split("\n") if ln]
    baseline = None
    for _ in range(4):
        rng.shuffle(rows_n)
        rng.shuffle(rows_e)
        kg = build_graph(
            read_nodes("\n".join([header_n] + rows_n) + "\n"),
            read_edges("\n".join([header_e] + rows_e) + "\n"),
        )
        stats = graph_stats(kg, seed_index).as_dict()
        if baseline is None:
            baseline = stats
        assert stats == baseline


def test_close_categories_adds_ancestors(demo_graph, seed_index):
    closed = close_categories(demo_graph, seed_index)
    gene = closed.nodes["NCBIGene:23221"]
    assert gene.categories[0] == "Gene"
    assert {"Gene", "GenomicEntity", "BiologicalEntity", "NamedThing"} <= set(gene.categories)
    # idempotent
    assert graph_equal(close_categories(closed, seed_index), closed)


def test_graph_stats_and_close_categories_equal_naive_oracle(seed_doc, seed_index):
    """Dirty graphs under the seed, extended and random schemas: unknown
    ``Sickness``, mixins, one to three names, now and then one twice, and
    many nodes sharing one list."""
    extended = extended_seed_schema(seed_doc)
    schemas = [(seed_doc, seed_index), (extended, build_closure(extended))]
    rng = random.Random(1111)
    for trial in range(150):
        if trial % 3 == 2:
            doc = random_schema(rng, max_classes=12)
            while len(doc.classes) < 2:  # dirty_graph draws up to three names
                doc = random_schema(rng, max_classes=12)
            index = build_closure(doc)
        else:
            doc, index = schemas[trial % 3]
        nodes, edges = dirty_graph(rng, doc)
        for node in nodes:
            if rng.random() < 0.5:
                node.categories = list(rng.choice(nodes).categories)
            elif rng.random() < 0.1:
                node.categories.append(rng.choice(node.categories))
        kg = build_graph(nodes, edges)

        stats = graph_stats(kg, index)
        expected: dict[str, int] = {}
        for node in kg.nodes.values():
            bucket = naive_stats_bucket(doc, node.categories)
            expected[bucket] = expected.get(bucket, 0) + 1
        assert stats.nodes_by_category == expected, trial
        assert stats.num_nodes == len(kg.nodes)

        closed = close_categories(kg, index)
        assert list(closed.nodes) == list(kg.nodes)
        for node_id, node in kg.nodes.items():
            assert closed.nodes[node_id].categories == naive_closed_list(doc, node.categories)
        # Each node gets a list of its own.
        lists = [node.categories for node in (*kg.nodes.values(), *closed.nodes.values())]
        assert len({id(categories) for categories in lists}) == len(lists)
        assert closed.edges == kg.edges


def test_categories_and_values_deduplicated_at_read():
    nodes = read_nodes("id\tcategory\tname\nNCBIGene:1\tGene|Gene|Protein\tx\n")
    assert nodes[0].categories == ["Gene", "Protein"]
    edges = read_edges(
        "subject\tpredicate\tobject\tpublications\nA:1\ttreats\tB:2\tPMID:1|PMID:1\n"
    )
    assert edges[0].properties["publications"] == ["PMID:1"]


def test_crlf_line_endings_accepted():
    text = "id\tcategory\tname\r\nNCBIGene:1\tGene\talpha\r\n"
    nodes = read_nodes(text)
    assert nodes[0].name == "alpha"


def test_duplicate_header_column_rejected():
    with pytest.raises(ParseError):
        read_nodes("id\tcategory\tname\tsymbol\tsymbol\nNCBIGene:1\tGene\tx\ta\tb\n")


@pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
def test_leading_byte_order_mark_is_ignored(fmt):
    nodes_text = write_nodes(read_nodes(NODES_TSV), fmt=fmt)
    edges_text = write_edges(read_edges(EDGES_TSV), fmt=fmt)
    assert read_nodes("\ufeff" + nodes_text) == read_nodes(nodes_text)
    assert read_edges("\ufeff" + edges_text) == read_edges(edges_text)


@pytest.fixture()
def gc_restored():
    """Start with nothing frozen; restore the GC's state and unfreeze afterwards."""
    enabled = gc.isenabled()
    gc.unfreeze()
    yield
    gc.unfreeze()
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_bulk_builders_pause_gc_and_restore_the_callers_state(
    enabled, gc_restored, seed_doc, seed_index, monkeypatch
):
    # Readers, build_graph and a rewriting normalize_graph run with the GC
    # off and leave it as they found it, also when they raise; none freezes.
    states = []

    def probe(original):
        def probed(*args):
            states.append(gc.isenabled())
            return original(*args)
        return probed

    monkeypatch.setattr(kg_store, "parse_curie", probe(kg_store.parse_curie))
    monkeypatch.setattr(kg_store, "_merge", probe(kg_store._merge))
    table = load_equivalences("Gene\tNCBIGene:1|HGNC:1\n")
    hgnc = build_graph(read_nodes(_N + "HGNC:1\tGene\tx\n"), read_edges(_E + "HGNC:1\tp\tHGNC:1\n"))
    calls = [
        (lambda: read_nodes(NODES_TSV), None),
        (lambda: read_nodes(_NJ), None),
        (lambda: read_edges(EDGES_TSV), None),
        (lambda: read_edges(_EJ), None),
        (lambda: build_graph(read_nodes(NODES_TSV), read_edges(EDGES_TSV)), None),
        (lambda: normalize_graph(hgnc, table, seed_doc, seed_index), None),
        (lambda: read_nodes(_NJ + "[1]\n"), ParseError),
        (lambda: read_edges(_E + "A:1\tp\tB:2\nA1\tp\tB:2\n"), ParseError),
        (lambda: build_graph([], read_edges(EDGES_TSV), strict=True), DanglingEdgeError),
    ]
    (gc.enable if enabled else gc.disable)()
    for call, error in calls:
        states.clear()
        if error is None:
            call()
        else:
            with pytest.raises(error):
                call()
        assert states and not any(states), call
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == 0
    assert normalize_graph(hgnc, table, seed_doc, seed_index)[1].ids_rewritten == 1
