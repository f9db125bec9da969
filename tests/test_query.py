import random

import pytest

from kgschema import (
    Curie,
    DisconnectedQueryError,
    ParseError,
    UnknownClassError,
    UnknownPredicateError,
    build_graph,
    expand_predicates,
    expand_query,
    match,
    parse_query,
)
from kgschema.kg_store import Edge, Node
from kgschema.query import QEdge, QNode, QueryGraph
from generators import ABSENT, dirty_graph, random_graph, random_query
from oracles import bindings_as_dicts, brute_force_match

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
    assert pinned.id == Curie("NCBIGene", "23221")
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
    with pytest.raises(DisconnectedQueryError):
        parse_query("?a:Gene -[related_to]-> ?b\n?x:Disease -[related_to]-> ?y\n", seed_doc)


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
    chemicals = {b.assignments["c"].text for b in bindings}
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
    assert bindings[0].assignments["_0"] == Curie("MONDO", "0005027")
    qg_absent = expand_query(parse_query("MONDO:9999999", seed_doc), seed_index)
    assert match(qg_absent, demo_graph, seed_doc, seed_index) == []


def test_symmetric_predicate_matches_reversed_edge(seed_doc, seed_index):
    nodes = [Node(Curie("A", "1"), ["Gene"]), Node(Curie("B", "2"), ["Gene"])]
    edges = [Edge(Curie("A", "1"), "genetically_interacts_with", Curie("B", "2"))]
    kg = build_graph(nodes, edges)
    qg = expand_query(parse_query("B:2 -[genetically_interacts_with]-> ?x", seed_doc), seed_index)
    bindings = match(qg, kg, seed_doc, seed_index)
    assert [b.assignments["x"].text for b in bindings] == ["A:1"]
    # Non-symmetric predicates stay directional.
    edges2 = [Edge(Curie("A", "1"), "entity_regulates_entity", Curie("B", "2"))]
    kg2 = build_graph(nodes, edges2)
    qg2 = expand_query(parse_query("B:2 -[entity_regulates_entity]-> ?x", seed_doc), seed_index)
    assert match(qg2, kg2, seed_doc, seed_index) == []


def test_homomorphism_allows_two_variables_on_one_node(seed_doc, seed_index):
    nodes = [Node(Curie("A", "1"), ["Gene"]), Node(Curie("B", "2"), ["Gene"])]
    edges = [
        Edge(Curie("A", "1"), "interacts_with", Curie("B", "2")),
        Edge(Curie("B", "2"), "interacts_with", Curie("B", "2")),
    ]
    kg = build_graph(nodes, edges)
    qg = expand_query(
        parse_query("?x:Gene -[interacts_with]-> ?y:Gene -[interacts_with]-> ?y", seed_doc),
        seed_index,
    )
    bindings = match(qg, kg, seed_doc, seed_index)
    assert {(b.assignments["x"].text, b.assignments["y"].text) for b in bindings} == {
        ("A:1", "B:2"),
        ("B:2", "B:2"),
    }


def test_match_sees_edges_and_nodes_changed_after_a_match(seed_doc, seed_index):
    a, b, c, d, e = (Curie(prefix, str(i)) for i, prefix in enumerate("ABCDE"))
    genes = {x: Node(x, ["Gene"]) for x in (a, b, c, d, e)}
    kg = build_graph([genes[a], genes[b], genes[c]], [Edge(a, "interacts_with", b)])
    qg = expand_query(parse_query("A:0 -[related_to]-> ?x", seed_doc), seed_index)

    def found() -> list[str]:
        return [binding.assignments["x"].text for binding in match(qg, kg, seed_doc, seed_index)]

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
    a, b, c, d = (Curie(prefix, str(i)) for i, prefix in enumerate("ABCD"))
    genes = {x: Node(x, ["Gene"]) for x in (a, b, c, d)}
    kg = build_graph(
        [genes[a], genes[b], genes[c]],
        [Edge(a, "interacts_with", b), Edge(a, "interacts_with", d)],
    )
    qg = expand_query(parse_query("A:0 -[related_to]-> ?x", seed_doc), seed_index)

    def found() -> list[str]:
        return [binding.assignments["x"].text for binding in match(qg, kg, seed_doc, seed_index)]

    assert found() == ["B:1"]
    # Same dict, same node count: only the edge to D:3 stops dangling.
    del kg.nodes[c]
    kg.nodes[d] = genes[d]
    assert found() == ["B:1", "D:3"]


def test_matcher_equals_brute_force_on_random_graphs(seed_doc, seed_index):
    rng = random.Random(2024)
    for _ in range(40):
        nodes, edges = random_graph(rng, seed_doc, max_nodes=10, max_edges=20)
        kg = build_graph(nodes, edges)
        qg = expand_query(random_query(rng, seed_doc, nodes), seed_index)
        ours = bindings_as_dicts(match(qg, kg, seed_doc, seed_index))
        oracle = brute_force_match(qg, kg, seed_doc)
        assert ours == oracle


def test_matcher_equals_brute_force_on_one_node_and_unpinned_queries(seed_doc, seed_index):
    """One-node queries of every kind and unpinned chains, over clean and dirty graphs.

    Dirty graphs bring unknown categories, mixin-only nodes and dangling edges.
    """
    rng = random.Random(2025)
    classes = sorted(seed_doc.classes)  # mixins included
    kinds = ("present", "absent", "categories", "bare", "unpinned")
    for trial in range(100):
        make = random_graph if trial % 2 else dirty_graph
        nodes, edges = make(rng, seed_doc, max_nodes=10, max_edges=20)
        kg = build_graph(nodes, edges)
        kind = kinds[trial % len(kinds)]
        if kind == "unpinned":
            qg = random_query(rng, seed_doc, nodes, edges, "unpinned")
        else:
            qnode = {
                "present": QNode("a", id=rng.choice(nodes).id if nodes else ABSENT),
                "absent": QNode("a", id=ABSENT),
                "categories": QNode("a", categories=frozenset(rng.sample(classes, rng.randint(1, 2)))),
                "bare": QNode("a"),
            }[kind]
            qg = QueryGraph({"a": qnode}, [])
        qg = expand_query(qg, seed_index)
        ours = bindings_as_dicts(match(qg, kg, seed_doc, seed_index))
        assert ours == brute_force_match(qg, kg, seed_doc), (trial, kind)


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
    keys = [tuple(b.assignments[v].text for v in ("a", "b")) for b in bindings]
    assert keys == sorted(keys)
