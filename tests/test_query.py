import copy
import json
import random
import sys
import threading
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from kgschema import (
    DisconnectedQueryError,
    ParseError,
    UnknownClassError,
    UnknownPredicateError,
    build_closure,
    build_graph,
    expand_predicates,
    expand_query,
    match,
    parse_query,
    read_edges,
    read_nodes,
)
from kgschema import query
from kgschema.hierarchy import ClosureIndex
from kgschema.cli import main
from kgschema.kg_store import Edge, KnowledgeGraph, Node
from kgschema.query import Binding, EdgeEvidence, QEdge, QNode, QueryGraph, _edge_order
from generators import (
    ABSENT,
    QUERY_SHAPES,
    dirty_graph,
    max_examples,
    random_graph,
    random_query,
    random_schema,
    untangled_schema,
)
from oracles import bindings_as_dicts, brute_force_match, greedy_edge_order

DATA = Path(__file__).parent / "data"
TWO_HOP = (
    "NCBIGene:23221 -[entity_regulates_entity|genetically_interacts_with]-> "
    "?g:Gene|Protein -[related_to]-> ?c:SmallMolecule"
)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_two_hop_chain(seed_doc):
    qg = parse_query(TWO_HOP, seed_doc)
    assert len(qg.qnodes) == 3
    assert len(qg.qedges) == 2
    pinned = qg.qnodes["_0"]
    assert pinned.id == "NCBIGene:23221"
    assert qg.qnodes["g"].categories == {"Gene", "Protein"}
    assert qg.qedges[0].predicates == {
        "entity_regulates_entity",
        "genetically_interacts_with",
    }


def test_parse_single_pinned_node(seed_doc):
    qg = parse_query("MONDO:0005027", seed_doc)
    assert len(qg.qnodes) == 1
    assert qg.qedges == []


def test_parse_edge_lines_for_non_chain_shapes(seed_doc):
    qg = parse_query(
        "?a:Gene -[interacts_with]-> ?b:Gene\n"
        "EDGE ?a -[interacts_with]-> ?c:Protein\n",
        seed_doc,
    )
    assert set(qg.qnodes) == {"a", "b", "c"}
    assert len(qg.qedges) == 2
    assert qg.qnodes["c"].categories == {"Protein"}


def test_records_from_parse_and_expand_are_the_public_records(seed_doc, seed_index):
    """``parse_query`` and ``expand_query`` make their records without calling the
    classes; they equal, print and hash as the constructors' records, and stay frozen."""
    qg = parse_query(TWO_HOP + "\nEDGE ?g -[interacts_with]-> ?x", seed_doc)
    expanded = expand_query(qg, seed_index)
    for graph in (qg, expanded):
        for ours in graph.qnodes.values():
            theirs = QNode(ours.var, ours.id, ours.categories)
            assert ours == theirs and repr(ours) == repr(theirs) and hash(ours) == hash(theirs)
            assert list(vars(ours).items()) == list(vars(theirs).items())
            with pytest.raises(FrozenInstanceError):
                ours.var = "z"
        for ours in graph.qedges:
            theirs = QEdge(ours.subject_var, ours.predicates, ours.object_var)
            assert ours == theirs and repr(ours) == repr(theirs) and hash(ours) == hash(theirs)
            assert list(vars(ours).items()) == list(vars(theirs).items())
            with pytest.raises(FrozenInstanceError):
                del ours.predicates
    assert {qnode.id for qnode in qg.qnodes.values()} == {"NCBIGene:23221", None}
    assert expanded.qedges[1].predicates > qg.qedges[1].predicates


def test_parse_unknown_predicate(seed_doc):
    with pytest.raises(UnknownPredicateError):
        parse_query("?a -[does_a_thing]-> ?b", seed_doc)


def test_parse_node_property_is_not_a_predicate(seed_doc):
    with pytest.raises(UnknownPredicateError):
        parse_query("?a -[symbol]-> ?b", seed_doc)


def test_parse_unknown_category(seed_doc):
    with pytest.raises(UnknownClassError):
        parse_query("?a:Gadget -[related_to]-> ?b", seed_doc)


def test_parse_disconnected_query(seed_doc):
    with pytest.raises(DisconnectedQueryError) as info:
        parse_query("?a:Gene -[related_to]-> ?b\n?x:Disease -[related_to]-> ?y\n", seed_doc)
    assert str(info.value) == "variables not connected to the pattern: ['x', 'y']"


def test_parse_checks_connectivity_of_two_or_more_chains_only(seed_doc, monkeypatch):
    """One chain is connected as written; a second chain may not join it."""
    def refuse(qnodes, qedges):
        raise AssertionError("one chain checked for connectivity")

    monkeypatch.setattr(query, "_check_connected", refuse)
    for text in (TWO_HOP, "MONDO:0005027", "# a comment\n\n?a -[related_to]-> ?a\n",
                 "EDGE ?a -[related_to]-> ?b", "?a:Gene"):
        parse_query(text, seed_doc)
    with pytest.raises(AssertionError):
        parse_query("?a -[related_to]-> ?b\nEDGE ?b -[related_to]-> ?c", seed_doc)


def test_parse_rejects_too_many_variables(seed_doc):
    chain = " -[related_to]-> ".join(f"?v{i}" for i in range(9))
    with pytest.raises(ParseError):
        parse_query(chain, seed_doc)


def test_parse_rejects_category_redeclaration(seed_doc):
    with pytest.raises(ParseError):
        parse_query(
            "?a:Gene -[related_to]-> ?b\nEDGE ?a:Protein -[related_to]-> ?b\n", seed_doc
        )


def test_parse_comments_and_reuse_of_pinned_node(seed_doc):
    qg = parse_query(
        "# chains may share a pinned node\n"
        "MONDO:0005027 -[has_phenotype]-> ?p:PhenotypicFeature\n"
        "EDGE MONDO:0005027 -[has_phenotype]-> ?q:PhenotypicFeature\n",
        seed_doc,
    )
    assert len(qg.qnodes) == 3  # one shared pinned node


def test_parse_query_ignores_a_leading_bom(seed_doc, demo_query_text):
    for text in (TWO_HOP, demo_query_text):
        assert parse_query("\ufeff" + text, seed_doc) == parse_query(text, seed_doc)


# ---------------------------------------------------------------------------
# Expansion


def test_expand_related_to_covers_all_predicates(seed_doc, seed_index):
    qg = parse_query("?a -[related_to]-> ?b", seed_doc)
    expanded = expand_query(qg, seed_index)
    assert expanded.qedges[0].predicates == frozenset(seed_doc.predicate_names())


def test_expand_leaf_only_query_is_fixed_point(seed_doc, seed_index):
    qg = parse_query("?a:SmallMolecule -[has_phenotype]-> ?b:PhenotypicFeature", seed_doc)
    expanded = expand_query(qg, seed_index)
    assert expanded.qedges[0].predicates == {"has_phenotype"}
    assert expanded.qnodes["a"].categories == {"SmallMolecule"}
    assert expanded.qnodes["b"].categories == {"PhenotypicFeature"}


def test_expand_mixin_category_to_carriers(seed_doc, seed_index):
    qg = parse_query("?g:GeneOrGeneProduct -[related_to]-> ?x", seed_doc)
    expanded = expand_query(qg, seed_index)
    assert expanded.qnodes["g"].categories == {"Gene", "Protein"}
    assert expanded.qnodes["x"].categories is None


def test_expand_instantiable_category_to_descendants(seed_doc, seed_index):
    qg = parse_query("?c:ChemicalEntity -[related_to]-> ?x", seed_doc)
    expanded = expand_query(qg, seed_index)
    assert expanded.qnodes["c"].categories == {
        "ChemicalEntity",
        "MolecularEntity",
        "SmallMolecule",
        "Drug",
    }


# ---------------------------------------------------------------------------
# Matching


def _expanded_two_hop(seed_doc, seed_index):
    return expand_query(parse_query(TWO_HOP, seed_doc), seed_index)


def test_two_hop_query_finds_both_chemicals(seed_doc, seed_index, demo_graph):
    bindings = match(_expanded_two_hop(seed_doc, seed_index), demo_graph, seed_doc, seed_index)
    chemicals = {b.assignments["c"] for b in bindings}
    assert chemicals == {
        "CHEMBL.COMPOUND:CHEMBL3989516",
        "CHEMBL.COMPOUND:CHEMBL1789941",
    }
    for binding in bindings:
        for evidence in binding.evidence.values():
            assert evidence.publications


def test_empty_graph_yields_no_bindings(seed_doc, seed_index):
    empty = build_graph([], [])
    assert match(_expanded_two_hop(seed_doc, seed_index), empty, seed_doc, seed_index) == []


def test_zero_edge_query_matches_single_node(seed_doc, seed_index, demo_graph):
    qg = expand_query(parse_query("MONDO:0005027", seed_doc), seed_index)
    bindings = match(qg, demo_graph, seed_doc, seed_index)
    assert len(bindings) == 1
    assert bindings[0].assignments["_0"] == "MONDO:0005027"
    qg_absent = expand_query(parse_query("MONDO:9999999", seed_doc), seed_index)
    assert match(qg_absent, demo_graph, seed_doc, seed_index) == []


def test_symmetric_predicate_matches_reversed_edge(seed_doc, seed_index):
    nodes = [Node("A:1", ["Gene"]), Node("B:2", ["Gene"])]
    edges = [Edge("A:1", "genetically_interacts_with", "B:2")]
    kg = build_graph(nodes, edges)
    qg = expand_query(parse_query("B:2 -[genetically_interacts_with]-> ?x", seed_doc), seed_index)
    bindings = match(qg, kg, seed_doc, seed_index)
    assert [b.assignments["x"] for b in bindings] == ["A:1"]
    # Non-symmetric predicates stay directional.
    edges2 = [Edge("A:1", "entity_regulates_entity", "B:2")]
    kg2 = build_graph(nodes, edges2)
    qg2 = expand_query(parse_query("B:2 -[entity_regulates_entity]-> ?x", seed_doc), seed_index)
    assert match(qg2, kg2, seed_doc, seed_index) == []


def test_symmetric_predicates_come_from_the_document_not_the_index(seed_doc):
    """Two schemas that differ only in one predicate's ``symmetric`` flag,
    sharing one closure index, give different bindings, in either order."""
    assert "genetically_interacts_with" in seed_doc.symmetric_predicates  # read before the copy
    directed = copy.deepcopy(seed_doc)
    directed.slots["genetically_interacts_with"].symmetric = False
    assert directed != seed_doc
    index = build_closure(seed_doc)
    kg = build_graph([Node("A:1", ["Gene"]), Node("B:2", ["Gene"])],
                     [Edge("A:1", "genetically_interacts_with", "B:2")])
    qg = expand_query(parse_query("B:2 -[genetically_interacts_with]-> ?x", seed_doc), index)
    for _ in range(2):
        assert [b.assignments["x"] for b in match(qg, kg, seed_doc, index)] == ["A:1"]
        assert match(qg, kg, directed, index) == []
    assert "genetically_interacts_with" not in directed.symmetric_predicates


def test_match_makes_no_category_profile(seed_doc, demo_graph, monkeypatch):
    """Category tests read ``ClosureIndex.below``: with ``profile`` refusing,
    a category-filtered pinned query and an unpinned one still match."""
    index = build_closure(seed_doc)

    def refuse(self, categories):
        raise AssertionError(f"match made a category profile of {categories}")

    monkeypatch.setattr(ClosureIndex, "profile", refuse)
    for text in (TWO_HOP, "?g:Gene|Protein -[related_to]-> ?c:SmallMolecule"):
        qg = expand_query(parse_query(text, seed_doc), index)
        ours = bindings_as_dicts(match(qg, demo_graph, seed_doc, index))
        assert ours and ours == brute_force_match(qg, demo_graph, seed_doc), text


def test_homomorphism_allows_two_variables_on_one_node(seed_doc, seed_index):
    nodes = [Node("A:1", ["Gene"]), Node("B:2", ["Gene"])]
    edges = [
        Edge("A:1", "interacts_with", "B:2"),
        Edge("B:2", "interacts_with", "B:2"),
    ]
    kg = build_graph(nodes, edges)
    qg = expand_query(
        parse_query("?x:Gene -[interacts_with]-> ?y:Gene -[interacts_with]-> ?y", seed_doc),
        seed_index,
    )
    bindings = match(qg, kg, seed_doc, seed_index)
    assert {(b.assignments["x"], b.assignments["y"]) for b in bindings} == {
        ("A:1", "B:2"),
        ("B:2", "B:2"),
    }


@pytest.mark.parametrize(
    "qnodes, qedges",
    [
        ("abcd", [("a", "b"), ("c", "d")]),
        ("abz", [("a", "b")]),
        ("az", []),
        # Two pinned parts: every variable is reached, from one pin or the other.
        ("pbqd", [("p", "b"), ("q", "d")]),
    ],
    ids=["two-edges", "isolated-variable", "no-edge", "two-pinned-parts"],
)
def test_match_rejects_a_disconnected_query_built_in_code(
    seed_doc, seed_index, demo_graph, qnodes, qedges
):
    pins = {"p": "NCBIGene:23221", "q": "MONDO:0005027"}
    qg = expand_query(
        QueryGraph(
            {var: QNode(var, id=pins.get(var)) for var in qnodes},
            [QEdge(s, frozenset({"related_to"}), o) for s, o in qedges],
        ),
        seed_index,
    )
    with pytest.raises(DisconnectedQueryError):
        match(qg, demo_graph, seed_doc, seed_index)


@st.composite
def _edge_order_cases(draw):
    """A query graph of 1-8 variables and 0-12 edges, connected or not, and
    0-2 initially bound variables."""
    variables = [f"v{i}" for i in range(draw(st.integers(1, 8)))]
    var = st.sampled_from(variables)
    pairs = draw(st.lists(st.tuples(var, var), max_size=12))
    qg = QueryGraph(
        {name: QNode(name) for name in variables},
        [QEdge(s, frozenset({"related_to"}), o) for s, o in pairs],
    )
    return qg, draw(st.sets(var, max_size=2))


@settings(max_examples=max_examples(300), deadline=None)
@given(_edge_order_cases())
def test_edge_order_equals_the_one_edge_per_step_oracle(case):
    qg, bound = case
    assert _edge_order(qg, set(bound)) == greedy_edge_order(qg, bound)


def test_match_runs_more_query_edges_than_the_recursion_limit(
    seed_doc, seed_index, demo_graph, seed_path
):
    # The second count is wide enough that a search order quadratic in the
    # query edges would take seconds.
    one = "EDGE NCBIGene:23221 -[related_to]-> ?g\n"
    single = match(expand_query(parse_query(one, seed_doc), seed_index), demo_graph, seed_doc, seed_index)
    assert len(single) == 3
    for count in (sys.getrecursionlimit() + 100, 4400):
        many = one * count
        qg = expand_query(parse_query(many, seed_doc), seed_index)
        bindings = match(qg, demo_graph, seed_doc, seed_index)
        assert [b.assignments for b in bindings] == [b.assignments for b in single]
        for binding in bindings:
            assert len(binding.evidence) == len(qg.qedges) == count
        result = CliRunner().invoke(
            main,
            [
                "query", "--schema", str(seed_path),
                "--nodes", str(DATA / "rhobtb2_nodes.tsv"),
                "--edges", str(DATA / "rhobtb2_edges.tsv"),
                "--query", many,
            ],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        assert [json.loads(line) for line in result.stdout.splitlines()] == [
            b.as_dict() for b in bindings
        ]


def test_match_sees_edges_and_nodes_changed_after_a_match(seed_doc, seed_index):
    a, b, c, d, e = (f"{prefix}:{i}" for i, prefix in enumerate("ABCDE"))
    genes = {x: Node(x, ["Gene"]) for x in (a, b, c, d, e)}
    kg = build_graph([genes[a], genes[b], genes[c]], [Edge(a, "interacts_with", b)])
    qg = expand_query(parse_query("A:0 -[related_to]-> ?x", seed_doc), seed_index)

    def found() -> list[str]:
        return [binding.assignments["x"] for binding in match(qg, kg, seed_doc, seed_index)]

    assert found() == ["B:1"]
    kg.edges.append(Edge(a, "interacts_with", c))
    assert found() == ["B:1", "C:2"]
    kg.edges.append(Edge(a, "interacts_with", d))  # dangling until D:3 exists
    assert found() == ["B:1", "C:2"]
    kg.nodes[d] = genes[d]
    assert found() == ["B:1", "C:2", "D:3"]
    # Replaced by objects of the same length.
    kg.edges = [Edge(b, "interacts_with", a), Edge(a, "interacts_with", e), Edge(c, "interacts_with", d)]
    assert found() == ["B:1"]  # symmetric, so the first edge matches reversed
    kg.nodes = {x: genes[x] for x in (a, b, c, e)}
    assert found() == ["B:1", "E:4"]


def test_match_sees_a_node_swapped_in_the_same_map(seed_doc, seed_index):
    a, b, c, d = (f"{prefix}:{i}" for i, prefix in enumerate("ABCD"))
    genes = {x: Node(x, ["Gene"]) for x in (a, b, c, d)}
    kg = build_graph(
        [genes[a], genes[b], genes[c]],
        [Edge(a, "interacts_with", b), Edge(a, "interacts_with", d)],
    )
    qg = expand_query(parse_query("A:0 -[related_to]-> ?x", seed_doc), seed_index)

    def found() -> list[str]:
        return [binding.assignments["x"] for binding in match(qg, kg, seed_doc, seed_index)]

    assert found() == ["B:1"]
    # Same dict, same node count: only the edge to D:3 stops dangling.
    del kg.nodes[c]
    kg.nodes[d] = genes[d]
    assert found() == ["B:1", "D:3"]


def test_match_sees_a_node_swapped_for_one_with_other_categories(seed_doc, seed_index):
    a, b = "A:0", "B:1"
    kg = build_graph([Node(a, ["Gene"]), Node(b, ["Gene"])], [Edge(a, "interacts_with", b)])
    diseases = expand_query(parse_query("A:0 -[related_to]-> ?x:Disease", seed_doc), seed_index)
    genes = expand_query(parse_query("A:0 -[related_to]-> ?x:GeneOrGeneProduct", seed_doc), seed_index)

    def found(qg) -> list[str]:
        return [binding.assignments["x"] for binding in match(qg, kg, seed_doc, seed_index)]

    assert (found(diseases), found(genes)) == ([], ["B:1"])
    # Same dict, same node id: only the category list of B:1 changes.
    kg.nodes[b] = Node(b, ["Disease"])
    assert (found(diseases), found(genes)) == (["B:1"], [])
    kg.nodes[b] = Node(b, ["Sickness"])
    assert (found(diseases), found(genes)) == ([], [])


def _generated_docs(rng: random.Random, count: int):
    """``count`` (doc, index) pairs, half random and half untangled schemas,
    each with an instantiable class, mixins and symmetric predicates allowed."""
    docs = []
    while len(docs) < count:
        doc = random_schema(rng, max_classes=12) if len(docs) % 2 else untangled_schema(rng)
        if any(not cls.is_mixin for cls in doc.classes.values()):
            docs.append((doc, build_closure(doc)))
    return docs


def _raw_categories(rng: random.Random, doc, qg: QueryGraph) -> QueryGraph:
    """``qg`` with some unpinned nodes' categories made raw names, never
    expanded: classes, mixins, or a name the schema does not declare."""
    pool = sorted(doc.classes) + ["Sickness"]
    qnodes = {
        var: QNode(var, categories=frozenset(rng.sample(pool, rng.randint(1, 2))))
        if qnode.id is None and rng.random() < 0.7
        else qnode
        for var, qnode in qg.qnodes.items()
    }
    return QueryGraph(qnodes, qg.qedges)


def test_matcher_equals_brute_force_on_random_graphs(seed_doc, seed_index):
    """The seed schema over clean graphs, then generated schemas over dirty
    graphs, with expanded queries and with raw-category queries built in code."""
    rng = random.Random(2024)
    for _ in range(40):
        nodes, edges = random_graph(rng, seed_doc, max_nodes=10, max_edges=20)
        kg = build_graph(nodes, edges)
        qg = expand_query(random_query(rng, seed_doc, nodes), seed_index)
        ours = bindings_as_dicts(match(qg, kg, seed_doc, seed_index))
        oracle = brute_force_match(qg, kg, seed_doc)
        assert ours == oracle
    for trial, (doc, index) in enumerate(_generated_docs(rng, 8) * 16):
        nodes, edges = dirty_graph(rng, doc, max_nodes=6, max_edges=40)
        kg = build_graph(nodes, edges)
        rounds, shape = divmod(trial, len(QUERY_SHAPES))
        qg = random_query(rng, doc, nodes, edges, QUERY_SHAPES[shape])
        qg = expand_query(qg, index) if rounds % 2 else _raw_categories(rng, doc, qg)
        ours = bindings_as_dicts(match(qg, kg, doc, index))
        assert ours == brute_force_match(qg, kg, doc), trial


def test_matcher_equals_brute_force_on_one_node_and_unpinned_queries(seed_doc, seed_index):
    """One-node queries of every kind and unpinned chains, over clean and dirty graphs,
    on the seed schema and on generated ones.

    Dirty graphs bring unknown categories, mixin-only nodes and dangling edges.
    The ``raw`` kinds are query graphs built in code whose categories are
    unexpanded, mixin or unknown names.
    """
    rng = random.Random(2025)
    kinds = ("present", "absent", "categories", "bare", "unpinned", "raw", "raw_unpinned")
    cases = [(seed_doc, seed_index)] * 100 + _generated_docs(rng, 10) * 5
    for trial, (doc, index) in enumerate(cases):
        classes = sorted(doc.classes)  # mixins included
        make = random_graph if trial % 2 and doc is seed_doc else dirty_graph
        nodes, edges = make(rng, doc, max_nodes=10, max_edges=20)
        kg = build_graph(nodes, edges)
        kind = kinds[trial % len(kinds)]
        if kind.endswith("unpinned"):
            qg = random_query(rng, doc, nodes, edges, "unpinned")
        else:
            qnode = {
                "present": QNode("a", id=rng.choice(nodes).id if nodes else ABSENT),
                "absent": QNode("a", id=ABSENT),
                "categories": QNode("a", categories=frozenset(rng.sample(classes, rng.randint(1, 2)))),
                "bare": QNode("a"),
                "raw": QNode("a"),
            }[kind]
            qg = QueryGraph({"a": qnode}, [])
        qg = _raw_categories(rng, doc, qg) if kind.startswith("raw") else expand_query(qg, index)
        ours = bindings_as_dicts(match(qg, kg, doc, index))
        assert ours == brute_force_match(qg, kg, doc), (trial, kind)


def test_expansion_soundness(seed_doc, seed_index, demo_graph):
    qg = parse_query(TWO_HOP, seed_doc)
    expanded = expand_query(qg, seed_index)
    bindings = match(expanded, demo_graph, seed_doc, seed_index)
    for binding in bindings:
        for ordinal, evidence in binding.evidence.items():
            original = qg.qedges[ordinal].predicates
            allowed = expand_predicates(seed_index, set(original))
            assert evidence.matched_predicate in allowed


def test_adding_predicate_never_removes_bindings(seed_doc, seed_index):
    rng = random.Random(71)
    predicates = seed_doc.predicate_names()
    for _ in range(15):
        nodes, edges = random_graph(rng, seed_doc, max_nodes=10, max_edges=20)
        kg = build_graph(nodes, edges)
        qg = random_query(rng, seed_doc, nodes)
        extra = rng.choice(predicates)
        bigger = QueryGraph(
            dict(qg.qnodes),
            [
                QEdge(qg.qedges[0].subject_var,
                      qg.qedges[0].predicates | {extra},
                      qg.qedges[0].object_var),
                qg.qedges[1],
            ],
        )
        small = {b.to_json() for b in match(expand_query(qg, seed_index), kg, seed_doc, seed_index)}
        large = {b.to_json() for b in match(expand_query(bigger, seed_index), kg, seed_doc, seed_index)}
        assert small <= large


def test_granularity_containment(seed_doc, seed_index):
    rng = random.Random(73)
    nodes, edges = random_graph(rng, seed_doc, max_nodes=15, max_edges=40)
    kg = build_graph(nodes, edges)
    for predicate in seed_doc.predicate_names():
        broad = QueryGraph(
            {"a": QNode("a"), "b": QNode("b")},
            [QEdge("a", frozenset({predicate}), "b")],
        )
        broad_bindings = {
            b.to_json() for b in match(expand_query(broad, seed_index), kg, seed_doc, seed_index)
        }
        for descendant in seed_index.predicate_descendants[predicate]:
            narrow = QueryGraph(
                {"a": QNode("a"), "b": QNode("b")},
                [QEdge("a", frozenset({descendant}), "b")],
            )
            narrow_bindings = {
                b.to_json()
                for b in match(expand_query(narrow, seed_index), kg, seed_doc, seed_index)
            }
            assert narrow_bindings <= broad_bindings


def test_evidence_matches_edge_properties_exactly(seed_doc, seed_index, demo_graph):
    qg = expand_query(
        parse_query("MONDO:0005027 -[has_phenotype]-> ?p:PhenotypicFeature", seed_doc),
        seed_index,
    )
    bindings = match(qg, demo_graph, seed_doc, seed_index)
    assert len(bindings) == 1
    evidence = bindings[0].evidence[0]
    assert evidence.matched_predicate == "has_phenotype"
    assert evidence.publications == ("PMID:29050398",)
    assert evidence.has_evidence == ()


def test_results_sorted_by_bound_id_tuples(seed_doc, seed_index, demo_graph):
    qg = expand_query(parse_query("?a -[related_to]-> ?b", seed_doc), seed_index)
    bindings = match(qg, demo_graph, seed_doc, seed_index)
    keys = [tuple(b.assignments[v] for v in ("a", "b")) for b in bindings]
    assert keys == sorted(keys)


def _in_output_order(qg: QueryGraph, oracle: list[dict]) -> list[str]:
    """The oracle's bindings as JSON text, in ``match``'s documented order.

    That order is the assignment tuple in ``qg.qnodes`` order, then the
    binding's JSON text.
    """
    texts = {json.dumps(d, sort_keys=True, ensure_ascii=False): d for d in oracle}
    return sorted(texts, key=lambda text: (tuple(texts[text]["assignments"][var] for var in qg.qnodes), text))


def _graph_with_ties(rng: random.Random, doc) -> tuple[list[Node], list[Edge]]:
    """A random graph plus edges that make bindings tie on their assignments.

    One node pair gets parallel edges under three predicates. Each
    symmetric edge may get a reversed twin, whose evidence is either equal
    (the same values in reverse order) or not (one more publication).
    """
    nodes, edges = random_graph(rng, doc, max_nodes=4, max_edges=12)
    subject, object_id = rng.choice(nodes).id, rng.choice(nodes).id
    for predicate in rng.sample(doc.predicate_names(), 3):
        properties = {"publications": rng.sample(["PMID:1", "PMID:2", "PMID:3"], rng.randint(1, 2))}
        if rng.random() < 0.5:
            properties["has_evidence"] = [f"ECO:{rng.randint(1, 2)}"]
        edges.append(Edge(subject, predicate, object_id, properties))
    for edge in list(edges):
        if doc.slots[edge.predicate].symmetric and rng.random() < 0.7:
            properties = {key: values[::-1] for key, values in edge.properties.items()}
            if rng.random() < 0.5:
                properties["publications"] = [*properties.get("publications", []), "PMID:4"]
            edges.append(Edge(edge.object, edge.predicate, edge.subject, properties))
    return nodes, edges


def test_match_order_equals_the_sorted_oracle_on_graphs_with_ties(seed_doc, seed_index):
    """``match`` output, in order, is the oracle sorted by assignment tuple, then JSON text."""
    rng = random.Random(2026)
    ties = 0
    for trial in range(200):
        nodes, edges = _graph_with_ties(rng, seed_doc)
        kg = build_graph(nodes, edges)
        shape = QUERY_SHAPES[trial % len(QUERY_SHAPES)]
        qg = expand_query(random_query(rng, seed_doc, nodes, edges, shape), seed_index)
        ours = [binding.to_json() for binding in match(qg, kg, seed_doc, seed_index)]
        assert ours == _in_output_order(qg, brute_force_match(qg, kg, seed_doc)), (trial, shape)
        assignments = [tuple(json.loads(text)["assignments"].values()) for text in ours]
        ties += sum(a == b for a, b in zip(assignments, assignments[1:]))
    assert ties > 0  # the graphs do make bindings tie on their assignments


def test_tied_bindings_follow_json_text_and_equal_symmetric_twins_collapse(seed_doc, seed_index):
    """Three edges from HGNC:1 to HGNC:2 give three bindings in JSON-text order.

    ``has_evidence`` sorts before ``matched_predicate`` in that text, so
    ECO:1 comes before ECO:2 whatever the predicates. The reversed twin of
    the symmetric edge carries the same evidence in another order and adds
    no binding.
    """
    kg = build_graph(
        read_nodes((DATA / "ties_nodes.tsv").read_text(encoding="utf-8")),
        read_edges((DATA / "ties_edges.tsv").read_text(encoding="utf-8")),
    )
    qg = expand_query(parse_query("HGNC:1 -[related_to]-> ?x", seed_doc), seed_index)
    bindings = match(qg, kg, seed_doc, seed_index)
    assert [b.assignments for b in bindings] == [{"_0": "HGNC:1", "x": "HGNC:2"}] * 3
    assert [
        (ev.matched_predicate, ev.has_evidence, ev.publications)
        for b in bindings
        for ev in b.evidence.values()
    ] == [
        ("genetically_interacts_with", ("ECO:1",), ("PMID:1", "PMID:2")),
        ("interacts_with", ("ECO:1",), ("PMID:1",)),
        ("entity_regulates_entity", ("ECO:2",), ("PMID:1",)),
    ]


def test_matches_with_distinct_ids_are_never_serialized(seed_doc, seed_index, monkeypatch):
    """With no two matches on equal ids, no dedup or JSON-text ordering can
    apply: ``match`` never calls ``to_json`` and still gives the oracle's
    bindings in the documented order."""
    def refuse(binding):
        raise AssertionError("to_json called without tied ids")

    rng = random.Random(2027)
    checked = 0
    for trial in range(300):
        make = random_graph if trial % 2 else dirty_graph
        nodes, edges = make(rng, seed_doc, max_nodes=10, max_edges=20)
        kg = build_graph(nodes, edges)
        shape = QUERY_SHAPES[trial % len(QUERY_SHAPES)]
        qg = expand_query(random_query(rng, seed_doc, nodes, edges, shape), seed_index)
        oracle = brute_force_match(qg, kg, seed_doc)
        ids = [tuple(d["assignments"][var] for var in qg.qnodes) for d in oracle]
        if not oracle or len(set(ids)) < len(ids):
            continue
        with monkeypatch.context() as patched:
            patched.setattr(Binding, "to_json", refuse)
            ours = match(qg, kg, seed_doc, seed_index)
        texts = [json.dumps(b.as_dict(), sort_keys=True, ensure_ascii=False) for b in ours]
        assert texts == _in_output_order(qg, oracle), (trial, shape)
        checked += 1
    assert checked >= 15  # enough tie-free queries that find bindings


class _Unhashable(str):
    """A provenance value that the value dedup, which hashes evidence, cannot take."""

    __hash__ = None


def test_matches_with_distinct_ids_skip_the_value_dedup(seed_doc, seed_index):
    nodes = {node_id: Node(node_id, ["Gene"]) for node_id in ("A:1", "B:2", "C:3")}
    edges = [
        Edge("A:1", "interacts_with", "B:2",
             {"publications": [_Unhashable("PMID:2"), _Unhashable("PMID:1")]}),
        Edge("A:1", "interacts_with", "C:3", {"publications": [_Unhashable("PMID:3")]}),
    ]
    qg = expand_query(parse_query("A:1 -[interacts_with]-> ?x", seed_doc), seed_index)
    bindings = match(qg, KnowledgeGraph(nodes, edges), seed_doc, seed_index)
    assert [(b.assignments["x"], b.evidence[0].publications) for b in bindings] == [
        ("B:2", ("PMID:1", "PMID:2")),
        ("C:3", ("PMID:3",)),
    ]
    # A second edge to B:2 ties two matches on their ids, so the dedup runs.
    edges.append(
        Edge("A:1", "genetically_interacts_with", "B:2", {"publications": [_Unhashable("PMID:4")]})
    )
    with pytest.raises(TypeError):
        match(qg, KnowledgeGraph(nodes, edges), seed_doc, seed_index)


def test_records_from_match_are_the_public_records(seed_doc, seed_index, demo_graph):
    """``match`` makes its records without calling the classes; they equal and
    print as the constructors' records, and stay frozen."""
    bindings = match(_expanded_two_hop(seed_doc, seed_index), demo_graph, seed_doc, seed_index)
    assert bindings
    for binding in bindings:
        evidence = {
            ordinal: EdgeEvidence(ev.matched_predicate, ev.publications, ev.has_evidence)
            for ordinal, ev in binding.evidence.items()
        }
        for ours, theirs in zip(binding.evidence.values(), evidence.values()):
            assert ours == theirs and repr(ours) == repr(theirs) and hash(ours) == hash(theirs)
            assert list(vars(ours).items()) == list(vars(theirs).items())
            with pytest.raises(FrozenInstanceError):
                ours.publications = ()
        public = Binding(dict(binding.assignments), evidence)
        assert binding == public and repr(binding) == repr(public)
        assert list(vars(binding)) == list(vars(public)) == ["assignments", "evidence"]
        assert binding.to_json() == public.to_json()
        with pytest.raises(FrozenInstanceError):
            binding.assignments = {}
        with pytest.raises(FrozenInstanceError):
            del binding.evidence


def test_binding_dicts_keep_the_search_order(seed_doc, seed_index, demo_graph):
    """Assignments list the pinned variable, then each variable as the search
    binds it; evidence lists the query edges in search order, not declaration order."""
    qg = expand_query(
        parse_query("?b -[related_to]-> ?a\nEDGE NCBIGene:23221 -[related_to]-> ?a", seed_doc),
        seed_index,
    )
    bindings = match(qg, demo_graph, seed_doc, seed_index)
    assert len(bindings) == 7
    assert {(tuple(b.assignments), tuple(b.evidence)) for b in bindings} == {(("_0", "a", "b"), (1, 0))}


def test_threads_sharing_a_graph_and_an_index_get_what_one_thread_gets(seed_doc):
    """Four threads run every query shape on one graph and one index, both
    cold, so that they race to build the adjacency, the expansions and the
    ``below`` sets."""
    rng = random.Random(4321)
    nodes, edges = random_graph(rng, seed_doc, max_nodes=40, max_edges=120)
    queries = [random_query(rng, seed_doc, nodes, edges, shape) for shape in QUERY_SHAPES * 4]

    def answers(kg, index, order):
        out = {}
        for position in order:
            qg = expand_query(queries[position], index)
            out[position] = [binding.to_json() for binding in match(qg, kg, seed_doc, index)]
        return [out[position] for position in range(len(queries))]

    expected = answers(build_graph(nodes, edges), build_closure(seed_doc), range(len(queries)))
    assert sum(map(bool, expected)) >= len(QUERY_SHAPES)  # the queries do find bindings
    kg, index = build_graph(nodes, edges), build_closure(seed_doc)
    got: dict[int, object] = {}

    def work(worker: int) -> None:
        order = [(position + worker * 5) % len(queries) for position in range(len(queries))]
        try:
            got[worker] = [answers(kg, index, order) for _ in range(3)]
        except Exception as exc:  # reported by the assertion below
            got[worker] = exc

    threads = [threading.Thread(target=work, args=(worker,)) for worker in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == {worker: [expected] * 3 for worker in range(4)}
