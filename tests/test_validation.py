import copy
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgschema import (
    Edge,
    KnowledgeGraph,
    Node,
    build_graph,
    validate_edge,
    validate_graph,
    validate_node,
)
from kgschema.schema_model import (
    AssociationDefinition,
    ClassDefinition,
    SchemaDocument,
    SlotDefinition,
)
from kgschema import build_closure
from kgschema.validation import VIOLATION_CODES, inputs_digest
from generators import dirty_graph, extended_seed_schema, random_graph, random_schema
from oracles import json_inputs_digest, naive_validate


def _node(id_text, categories, **properties):
    prefix, local = id_text.split(":", 1)
    return Node(f"{prefix}:{local}", list(categories), properties.pop("name", None), properties)


def _edge(subject, predicate, obj, **properties):
    sp, sl = subject.split(":", 1)
    op, ol = obj.split(":", 1)
    return Edge(f"{sp}:{sl}", predicate, f"{op}:{ol}", {k: list(v) for k, v in properties.items()})


def _codes(violations):
    return sorted(v.code for v in violations)


def _edge_codes(seed_doc, seed_index, subject_cat, predicate, object_cat, **properties):
    nodes = [_node("X:1", [subject_cat]), _node("Y:2", [object_cat])]
    kg = build_graph(nodes, [_edge("X:1", predicate, "Y:2", **properties)])
    return _codes(validate_edge(kg.edges[0], kg, seed_doc, seed_index, ordinal=0))


# ---------------------------------------------------------------------------
# Node checks


def test_valid_disease_node_clean(seed_doc, seed_index):
    node = _node("MONDO:0005737", ["Disease"])
    assert validate_node(node, seed_doc, seed_index) == []


def test_known_category_not_flagged(seed_doc, seed_index):
    node = _node("OMIM:164040", ["Gene"])
    codes = _codes(validate_node(node, seed_doc, seed_index))
    assert "UNKNOWN_CATEGORY" not in codes
    assert codes == ["ID_PREFIX_NOT_ALLOWED"]  # OMIM is not a Gene prefix


def test_listed_nonpreferred_prefix_allowed(seed_doc, seed_index):
    node = _node("DOID:4325", ["Disease"])
    assert validate_node(node, seed_doc, seed_index) == []


def test_unknown_category_error(seed_doc, seed_index):
    node = _node("NCBIGene:1", ["Gene", "Sickness"])
    violations = validate_node(node, seed_doc, seed_index)
    assert _codes(violations) == ["UNKNOWN_CATEGORY"]
    assert violations[0].severity == "error"


def test_mixin_only_node_error(seed_doc, seed_index):
    node = _node("FAKE:1", ["GeneOrGeneProduct"])
    assert _codes(validate_node(node, seed_doc, seed_index)) == ["ABSTRACT_MIXIN_INSTANTIATED"]


def test_node_without_prefix_constraint_clean(seed_doc, seed_index):
    # GenomicEntity and its ancestors declare no id_prefixes.
    node = _node("WHATEVER:1", ["GenomicEntity"])
    assert validate_node(node, seed_doc, seed_index) == []


# ---------------------------------------------------------------------------
# Edge checks


def test_valid_phenotype_edge_matches_association(seed_doc, seed_index):
    codes = _edge_codes(
        seed_doc, seed_index, "Disease", "has_phenotype", "PhenotypicFeature",
        publications=["PMID:1"],
    )
    assert codes == []


def test_unknown_predicate(seed_doc, seed_index):
    codes = _edge_codes(seed_doc, seed_index, "Gene", "causes_xyzzy", "Disease")
    assert codes == ["UNKNOWN_PREDICATE"]


def test_reversed_phenotype_edge_violates_domain_and_range(seed_doc, seed_index):
    codes = _edge_codes(
        seed_doc, seed_index, "PhenotypicFeature", "has_phenotype", "Disease",
        publications=["PMID:1"],
    )
    assert codes == ["DOMAIN_VIOLATION", "RANGE_VIOLATION"]


def test_dangling_edge_short_circuits(seed_doc, seed_index):
    kg = build_graph([_node("X:1", ["Gene"])], [_edge("X:1", "has_phenotype", "GONE:2")])
    codes = _codes(validate_edge(kg.edges[0], kg, seed_doc, seed_index, ordinal=0))
    assert codes == ["DANGLING_EDGE"]


def test_missing_required_publications(seed_doc, seed_index):
    codes = _edge_codes(seed_doc, seed_index, "Disease", "has_phenotype", "PhenotypicFeature")
    assert codes == ["MISSING_REQUIRED_EDGE_PROPERTY"]


def test_malformed_publications_warning(seed_doc, seed_index):
    codes = _edge_codes(
        seed_doc, seed_index, "Disease", "has_phenotype", "PhenotypicFeature",
        publications=["PMID:1", "see lab notebook"],
    )
    assert codes == ["MALFORMED_PROVENANCE_CURIE"]


def test_has_evidence_checked_only_for_declared_prefixes(seed_doc, seed_index):
    clean = _edge_codes(
        seed_doc, seed_index, "SmallMolecule", "interacts_with", "Gene",
        has_evidence=["manually curated"],
    )
    assert clean == []
    flagged = _edge_codes(
        seed_doc, seed_index, "SmallMolecule", "interacts_with", "Gene",
        has_evidence=["ECO:bad code"],
    )
    assert flagged == ["MALFORMED_PROVENANCE_CURIE"]


def test_inherited_range_through_predicate_chain(seed_doc, seed_index):
    # negatively_regulates inherits range GeneOrGeneProduct from its parent.
    ok = _edge_codes(seed_doc, seed_index, "SmallMolecule", "negatively_regulates", "Protein")
    assert ok == []
    bad = _edge_codes(seed_doc, seed_index, "SmallMolecule", "negatively_regulates", "Disease")
    assert bad == ["RANGE_VIOLATION"]


def test_mixin_as_domain_accepts_any_carrier(seed_doc, seed_index):
    for carrier in ("Gene", "Protein"):
        codes = _edge_codes(
            seed_doc, seed_index, carrier, "gene_associated_with_condition", "Disease",
            publications=["PMID:1"],
        )
        assert codes == []


def test_no_matching_association_when_candidates_fail(seed_doc, seed_index):
    # treats is governed by an association requiring a SmallMolecule subject.
    codes = _edge_codes(
        seed_doc, seed_index, "ChemicalEntity", "treats", "Disease",
        publications=["PMID:1"],
    )
    assert codes == ["NO_MATCHING_ASSOCIATION"]


def test_predicate_family_without_associations_is_silent(seed_doc, seed_index):
    codes = _edge_codes(seed_doc, seed_index, "Gene", "interacts_with", "Disease")
    assert codes == []


def test_most_specific_association_wins():
    doc = SchemaDocument(name="t", version="0")
    doc.classes["NamedThing"] = ClassDefinition(name="NamedThing")
    doc.classes["Chemical"] = ClassDefinition(name="Chemical", is_a="NamedThing")
    doc.classes["Disease"] = ClassDefinition(name="Disease", is_a="NamedThing")
    doc.slots["related_to"] = SlotDefinition(name="related_to", slot_kind="predicate")
    doc.slots["treats"] = SlotDefinition(
        name="treats", slot_kind="predicate", is_a="related_to"
    )
    doc.slots["publications"] = SlotDefinition(name="publications", slot_kind="edge_property")
    doc.slots["has_evidence"] = SlotDefinition(name="has_evidence", slot_kind="edge_property")
    doc.associations["BroadAssociation"] = AssociationDefinition(
        name="BroadAssociation",
        subject="NamedThing",
        predicate="related_to",
        object="NamedThing",
        required_edge_properties=["has_evidence"],
    )
    doc.associations["TreatmentAssociation"] = AssociationDefinition(
        name="TreatmentAssociation",
        subject="Chemical",
        predicate="treats",
        object="Disease",
        required_edge_properties=["publications"],
    )
    index = build_closure(doc)
    kg = build_graph(
        [_node("C:1", ["Chemical"]), _node("D:1", ["Disease"])],
        [_edge("C:1", "treats", "D:1")],
    )
    violations = validate_edge(kg.edges[0], kg, doc, index, ordinal=0)
    # The deeper association decides the requirements, not the broad one.
    assert _codes(violations) == ["MISSING_REQUIRED_EDGE_PROPERTY"]
    assert "TreatmentAssociation" in violations[0].detail


# ---------------------------------------------------------------------------
# Whole-graph checks


def test_demo_graph_validates_clean(demo_graph, seed_doc, seed_index):
    report = validate_graph(demo_graph, seed_doc, seed_index)
    assert report.violations == []
    assert report.counts == {}
    assert len(report.inputs_hash) == 64


def test_parallelism_does_not_change_report(seed_doc, seed_index):
    rng = random.Random(31)
    nodes, edges = random_graph(rng, seed_doc, max_nodes=25, max_edges=60)
    kg = build_graph(nodes, edges)
    reports = [
        validate_graph(kg, seed_doc, seed_index, parallelism=jobs).to_jsonl()
        for jobs in (1, 2, 8)
    ]
    assert reports[0] == reports[1] == reports[2]


def test_report_sorted_and_counts_match(seed_doc, seed_index):
    rng = random.Random(37)
    nodes, edges = random_graph(rng, seed_doc, max_nodes=20, max_edges=50)
    kg = build_graph(nodes, edges)
    report = validate_graph(kg, seed_doc, seed_index)
    keys = [(v.code, v.subject) for v in report.violations]
    assert keys == sorted(keys, key=lambda k: (k[0], k[1].startswith("edge:"), k[1]))
    tally = {}
    for violation in report.violations:
        tally[violation.code] = tally.get(violation.code, 0) + 1
    assert tally == report.counts


def test_node_ids_that_read_like_edge_labels(seed_doc, seed_index):
    # A node id may read "edge:5" or "edge:x": its violations still sort by
    # id text, as in the oracle, and the report does not depend on node order.
    ids = ["edge:x", "edge:5", "edge:05", "A:1"]
    reports = set()
    for order in itertools.permutations(ids):
        nodes = [_node(node_id, ["NoSuchClass"]) for node_id in order]
        kg = build_graph(nodes, [_edge("edge:5", "treats", "edge:x")])
        report = validate_graph(kg, seed_doc, seed_index).to_jsonl()
        assert report == naive_validate(kg, seed_doc)
        reports.add(report)
    assert len(reports) == 1


def test_report_order_is_code_then_node_id_text_or_edge_ordinal_then_detail(seed_doc, seed_index):
    # Node ids sort as text ("edge:10" before "edge:9"), edge labels by
    # ordinal (edge:2 before edge:10), and one edge's findings by detail,
    # though it raises them in another order.
    genes = [_node(f"NCBIGene:{k}", ["Gene"]) for k in range(12)]
    nodes = [_node("edge:9", ["NoSuchClass"]), _node("edge:10", ["NoSuchClass"]), *genes]
    edges = [_edge("NCBIGene:11", "interacts_with", f"NCBIGene:{k}") for k in range(11)]
    edges[2] = _edge("NCBIGene:11", "interacts_with", "NCBIGene:2", publications=["z z", "a a"])
    edges[10] = _edge("NCBIGene:11", "interacts_with", "NCBIGene:10", publications=["y y", "b b"])
    edges[5] = _edge("NCBIGene:11", "treats", "NCBIGene:5", publications=["m m"])
    kg = build_graph(nodes, edges)
    report = validate_graph(kg, seed_doc, seed_index)
    treats = "NCBIGene:11 -treats-> NCBIGene:5"
    unknown = "category 'NoSuchClass' is not in the schema"
    assert [(v.code, v.subject, v.detail) for v in report.violations] == [
        ("DOMAIN_VIOLATION", "edge:5", f"{treats}: subject is not a 'ChemicalEntity'"),
        ("MALFORMED_PROVENANCE_CURIE", "edge:2", "publications value 'a a' is not a CURIE"),
        ("MALFORMED_PROVENANCE_CURIE", "edge:2", "publications value 'z z' is not a CURIE"),
        ("MALFORMED_PROVENANCE_CURIE", "edge:5", "publications value 'm m' is not a CURIE"),
        ("MALFORMED_PROVENANCE_CURIE", "edge:10", "publications value 'b b' is not a CURIE"),
        ("MALFORMED_PROVENANCE_CURIE", "edge:10", "publications value 'y y' is not a CURIE"),
        ("RANGE_VIOLATION", "edge:5", f"{treats}: object is not a 'Disease'"),
        ("UNKNOWN_CATEGORY", "edge:10", unknown),
        ("UNKNOWN_CATEGORY", "edge:9", unknown),
    ]
    assert report.counts == {
        "DOMAIN_VIOLATION": 1,
        "MALFORMED_PROVENANCE_CURIE": 5,
        "RANGE_VIOLATION": 1,
        "UNKNOWN_CATEGORY": 2,
    }
    assert report.to_jsonl() == naive_validate(kg, seed_doc)


def test_inputs_hash_and_findings_stable_under_input_permutation(seed_doc, seed_index):
    # Edge ordinals follow input order, so reports are compared as multisets
    # of (code, core triple); the content digest must not move at all.
    rng = random.Random(53)
    nodes, edges = random_graph(rng, seed_doc, max_nodes=15, max_edges=30)
    kg1 = build_graph(nodes, edges)
    shuffled_nodes = nodes[:]
    shuffled_edges = edges[:]
    rng.shuffle(shuffled_nodes)
    rng.shuffle(shuffled_edges)
    kg2 = build_graph(shuffled_nodes, shuffled_edges)
    r1 = validate_graph(kg1, seed_doc, seed_index)
    r2 = validate_graph(kg2, seed_doc, seed_index)
    assert r1.inputs_hash == r2.inputs_hash
    assert r1.counts == r2.counts

    def keyed(report, graph):
        out = []
        for violation in report.violations:
            if violation.subject.startswith("edge:"):
                edge = graph.edges[int(violation.subject[5:])]
                out.append((violation.code, edge.subject, edge.predicate, edge.object))
            else:
                out.append((violation.code, violation.subject))
        return sorted(out)

    assert keyed(r1, kg1) == keyed(r2, kg2)


def test_report_byte_identical_across_runs(seed_doc, seed_index):
    rng = random.Random(59)
    nodes, edges = random_graph(rng, seed_doc, max_nodes=20, max_edges=40)
    kg = build_graph(nodes, edges)
    first = validate_graph(kg, seed_doc, seed_index).to_jsonl()
    second = validate_graph(kg, seed_doc, seed_index).to_jsonl()
    assert first == second


def test_monotone_under_edge_removal(seed_doc, seed_index):
    rng = random.Random(61)
    for _ in range(10):
        nodes, edges = random_graph(rng, seed_doc, max_nodes=10, max_edges=15)
        if not edges:
            continue
        kg = build_graph(nodes, edges)

        def edge_violation_multiset(graph):
            report = validate_graph(graph, seed_doc, seed_index)
            out = {}
            for violation in report.violations:
                if violation.subject.startswith("edge:"):
                    edge = graph.edges[int(violation.subject[5:])]
                    key = (violation.code, edge.subject, edge.predicate, edge.object)
                    out[key] = out.get(key, 0) + 1
            return out

        before = edge_violation_multiset(kg)
        victim = rng.randrange(len(kg.edges))
        removed = kg.edges[victim]
        remaining = [e for i, e in enumerate(kg.edges) if i != victim]
        smaller = build_graph([kg.nodes[i] for i in kg.nodes], remaining)
        after = edge_violation_multiset(smaller)
        for key, count in after.items():
            assert before.get(key, 0) >= count
        removed_keys = {
            key for key in before if key[1:] == (removed.subject, removed.predicate, removed.object)
        }
        for key in before:
            if key not in removed_keys:
                assert after.get(key, 0) == before[key]


def _closed(seed_index, category):
    return set(seed_index.class_ancestors[category]) | set(
        seed_index.mixin_membership[category]
    )


def test_specialization_soundness_enumerated(seed_doc, seed_index):
    classes = [n for n, c in seed_doc.classes.items() if not c.is_mixin]
    predicates = seed_doc.predicate_names()
    results = {}
    for predicate in predicates:
        for s_cat in classes:
            for o_cat in classes:
                codes = _edge_codes(seed_doc, seed_index, s_cat, predicate, o_cat)
                results[(predicate, s_cat, o_cat)] = {
                    c for c in codes if c in ("DOMAIN_VIOLATION", "RANGE_VIOLATION")
                }

    def inherited(predicate):
        domain = rng_ = None
        for ancestor in seed_index.predicate_ancestors[predicate]:
            slot = seed_doc.slots[ancestor]
            if domain is None and slot.domain is not None:
                domain = slot.domain
            if rng_ is None and slot.range is not None and slot.range in seed_doc.classes:
                rng_ = slot.range
        return domain, rng_

    for predicate in predicates:
        dp, rp = inherited(predicate)
        for ancestor in seed_index.predicate_ancestors[predicate][1:]:
            da, ra = inherited(ancestor)
            domain_ok = da is None or (dp is not None and da in _closed(seed_index, dp))
            range_ok = ra is None or (rp is not None and ra in _closed(seed_index, rp))
            if not (domain_ok and range_ok):
                continue
            for s_cat in classes:
                for o_cat in classes:
                    if not results[(predicate, s_cat, o_cat)]:
                        assert not results[(ancestor, s_cat, o_cat)], (
                            predicate, ancestor, s_cat, o_cat,
                        )


def test_mixin_as_range_enumerated(seed_doc, seed_index):
    # entity_regulates_entity constrains objects to GeneOrGeneProduct carriers.
    classes = [n for n, c in seed_doc.classes.items() if not c.is_mixin]
    for o_cat in classes:
        codes = _edge_codes(seed_doc, seed_index, "SmallMolecule", "entity_regulates_entity", o_cat)
        carries = "GeneOrGeneProduct" in seed_index.mixin_membership[o_cat]
        assert ("RANGE_VIOLATION" in codes) == (not carries), o_cat


def test_emitted_codes_stay_within_documented_catalog(seed_doc, seed_index):
    from kgschema.validation import VIOLATION_CODES

    rng = random.Random(97)
    seen = set()
    for _ in range(20):
        nodes, edges = random_graph(rng, seed_doc, max_nodes=20, max_edges=50)
        report = validate_graph(build_graph(nodes, edges), seed_doc, seed_index)
        seen.update(v.code for v in report.violations)
    assert seen <= set(VIOLATION_CODES)


def test_validate_graph_equals_naive_oracle(seed_doc, seed_index):
    extended = extended_seed_schema(seed_doc)
    schemas = [(seed_doc, seed_index), (extended, build_closure(extended))]
    rng = random.Random(4004)
    seen = set()
    for trial in range(300):
        doc, index = schemas[trial % 2]
        kg = build_graph(*dirty_graph(rng, doc))
        report = validate_graph(kg, doc, index)
        assert report.to_jsonl() == naive_validate(kg, doc), trial
        seen.update(report.counts)
    assert seen == set(VIOLATION_CODES)
    # Several nodes share each faulty list, under different ids and prefixes.
    faulty = (
        ["Gene", "Sickness"],
        ["Sickness", "Protein", "Sickness"],
        ["GeneOrGeneProduct"],
        ["DiseaseOrPhenotypicFeature", "Sickness"],
        ["Gene"],
        ["Disease", "PhenotypicFeature"],
    )
    prefixes = ("NCBIGene", "MONDO", "HP", "XX", "UniProtKB")
    nodes = [
        Node(f"{prefix}:{serial}", list(categories))
        for serial, (categories, prefix) in enumerate(
            itertools.product(faulty * 2, prefixes)
        )
    ]
    edges = [Edge(a.id, "related_to", b.id) for a, b in zip(nodes, nodes[7:])]
    kg = build_graph(nodes, edges)
    for doc, index in schemas:
        report = validate_graph(kg, doc, index)
        assert report.to_jsonl() == naive_validate(kg, doc)
    assert {"UNKNOWN_CATEGORY", "ABSTRACT_MIXIN_INSTANTIATED", "ID_PREFIX_NOT_ALLOWED"} <= set(
        report.counts
    )
    # Hostile provenance on signatures with and without a required
    # ``publications``, each edge twice so that the second meets a decided
    # signature: a line break, U+2028, U+0085 or U+001C inside a value, an
    # empty side of the colon, good and bad values mixed, ``has_evidence``
    # under declared and undeclared prefixes, and a required list present
    # but empty.
    hostile = (
        {"publications": ["PMID:1\n2"]},
        {"publications": ["PMID:"]},
        {"publications": [":1"]},
        {"publications": ["PMID:1\u20282", "PMID:1\x852", "PMID:1\x1c2"]},
        {"publications": ["PMID:1", "PMID: 3", "PMID:22"]},
        {"publications": ["PMID:1"], "has_evidence": ["ECO:1", "ECO:bad code", "ECO:", ":1"]},
        {"publications": ["PMID:1"], "has_evidence": ["YY:bad code", "YY:1\n", "ECO:1\u2028"]},
        {"has_evidence": ["ECO:1\x85", "manually curated"]},
        {"publications": []},
        {"publications": [], "has_evidence": []},
        {"publications": ["PMID:1"]},
        {},
    )
    ends = {
        "MONDO": "Disease", "HP": "PhenotypicFeature", "CHEBI": "SmallMolecule", "NCBIGene": "Gene"
    }
    signatures = (
        ("MONDO", "has_phenotype", "HP"),
        ("NCBIGene", "gene_associated_with_condition", "MONDO"),
        ("CHEBI", "interacts_with", "NCBIGene"),
    )
    edges = [
        Edge(f"{subject}:{serial}", predicate, f"{obj}:{serial}", copy.deepcopy(properties))
        for serial, ((subject, predicate, obj), properties) in enumerate(
            itertools.product(signatures, hostile * 2)
        )
    ]
    nodes = [Node(f"{prefix}:{n}", [ends[prefix]]) for prefix in ends for n in range(len(edges))]
    kg = build_graph(nodes, edges)
    assert len(kg.edges) == len(edges)
    assert "YY" not in seed_doc.prefixes and "ECO" in seed_doc.prefixes
    for doc, index in schemas:
        report = validate_graph(kg, doc, index)
        assert report.to_jsonl() == naive_validate(kg, doc)
        assert {"MALFORMED_PROVENANCE_CURIE", "MISSING_REQUIRED_EDGE_PROPERTY"} <= set(
            report.counts
        )


def test_one_graph_validated_under_several_schemas_in_turn(seed_doc, seed_index):
    """Nothing one validation works out about a category list outlives it."""
    rng = random.Random(4141)
    extended = extended_seed_schema(seed_doc)
    unrelated = random_schema(rng)
    schemas = [
        (seed_doc, seed_index),
        (extended, build_closure(extended)),
        (unrelated, build_closure(unrelated)),
    ]
    for trial in range(30):
        kg = build_graph(*dirty_graph(rng, seed_doc))
        for doc, index in (*schemas, schemas[0]):
            assert validate_graph(kg, doc, index).to_jsonl() == naive_validate(kg, doc), trial


def test_validate_graph_calls_the_module_global_validate_node_once_per_node(
    seed_doc, seed_index, monkeypatch
):
    """A tracer that wraps ``validation.validate_node`` sees every node check."""
    import kgschema.validation as validation

    calls = []
    original = validation.validate_node

    def counting(node, *args, **kwargs):
        calls.append(node.id)
        return original(node, *args, **kwargs)

    monkeypatch.setattr(validation, "validate_node", counting)
    kg = build_graph(*dirty_graph(random.Random(5), seed_doc, max_nodes=30))
    report = validate_graph(kg, seed_doc, seed_index)
    assert sorted(calls) == sorted(kg.nodes)
    assert report.to_jsonl() == naive_validate(kg, seed_doc)


# ---------------------------------------------------------------------------
# Input digest

# Few, short texts, rich in the characters a tab-joined line must escape or
# that look like its escapes, so that distinct graphs often nearly collide.
_text = st.sampled_from(
    ["", "a", "0", "1", "\t", "\\t", "\\", "\n", "\x00", "|", '"', "-", "+"]
) | st.text(alphabet="a01\t\\\n\x00|\"-+", max_size=3)
_properties = st.dictionaries(_text, st.lists(_text, max_size=3), max_size=2)
_names = st.none() | st.sampled_from(["", "-", "+"]) | _text
_curies = st.builds("{}:{}".format, _text, _text)
_nodes = st.builds(Node, _curies, st.lists(_text, max_size=3), _names, _properties)
_edges = st.builds(Edge, _curies, _text, _curies, _properties)


def _graph(nodes, edges):
    return KnowledgeGraph({node.id: node for node in nodes}, edges)


_graphs = st.builds(_graph, st.lists(_nodes, max_size=3), st.lists(_edges, max_size=3))

# Texts that a careless line format would confuse with each other.
_CONFUSABLE = [
    ("x\\t", "x\t"),
    ("x\\n", "x\n"),
    ("x\\0", "x\x00"),
    ("x\\\\", "x\\"),
    ("a|b", "a\tb"),
    ('"a"', "a"),
]


def _put(record, slot: str, text: str):
    """``record`` with ``text`` in one of its fields."""
    if slot == "value":
        return replace(record, properties={**record.properties, "k": [text]})
    if slot == "key":
        return replace(record, properties={**record.properties, text: ["v"]})
    if isinstance(record, Node):
        if slot == "id":
            return replace(record, id=f"{text}:1")
        if slot == "name":
            return replace(record, name=text)
        return replace(record, categories=[text])
    if slot == "id":
        return replace(record, subject=f"{text}:1")
    return replace(record, predicate=text)


def _near_misses(record, a: str, b: str, c: str):
    """Pairs of forms of ``record`` that differ in content by one small step."""

    def pair(left: dict, right: dict):
        return replace(record, **left), replace(record, **right)

    yield pair({"properties": {a: [b + "\t" + c]}}, {"properties": {a: [b, c]}})
    yield pair({"properties": {a: [a + "\t" + b, c]}}, {"properties": {a: [a, b + "\t" + c]}})
    for slot in ("value", "key", "id", "name", "category"):
        for left, right in _CONFUSABLE:
            yield _put(record, slot, left), _put(record, slot, right)
    yield pair({"properties": {a: [b, c], b: []}}, {"properties": {a: [b], b: [c]}})
    yield pair({"properties": {a: [b, c]}}, {"properties": {a: [], b: [c]}})
    if isinstance(record, Node):
        for left, right in itertools.permutations([None, "", "-", "+"], 2):
            yield pair({"name": left}, {"name": right})
        yield pair(
            {"categories": [a, b, c], "properties": {}},
            {"categories": [a], "properties": {b: [c]}},
        )
        yield pair(
            {"categories": [a, b], "properties": {}},
            {"categories": [], "properties": {a: []}},
        )


def _with(kg: KnowledgeGraph, record) -> KnowledgeGraph:
    if isinstance(record, Node):
        return KnowledgeGraph({**kg.nodes, record.id: record}, kg.edges)
    return KnowledgeGraph(kg.nodes, [*kg.edges, record])


def _shuffled(kg: KnowledgeGraph, rng) -> KnowledgeGraph:
    """``kg`` with nodes, edges, categories, property keys and values in a new order."""

    def mixed(items):
        items = list(items)
        rng.shuffle(items)
        return items

    def properties(record):
        return {key: mixed(record.properties[key]) for key in mixed(record.properties)}

    nodes = {
        node.id: Node(node.id, mixed(node.categories), node.name, properties(node))
        for node in mixed(kg.nodes.values())
    }
    edges = [Edge(e.subject, e.predicate, e.object, properties(e)) for e in mixed(kg.edges)]
    return KnowledgeGraph(nodes, edges)


@st.composite
def _graph_pairs(draw):
    """Graph pairs: two drawn apart, one reordered, and each near miss of one record."""
    kg = draw(_graphs)
    pairs = [(kg, draw(_graphs)), (kg, _shuffled(kg, draw(st.randoms(use_true_random=False))))]
    record = draw(_nodes | _edges)
    for left, right in _near_misses(record, *draw(st.lists(_text, min_size=3, max_size=3))):
        pairs.append((_with(kg, left), _with(kg, right)))
    return pairs


def _node_pair(left: dict, right: dict):
    """Two one-node graphs: one node with the ``left`` and with the ``right`` field values."""
    base = Node("A:1", ["Gene"])
    return _graph([replace(base, **left)], []), _graph([replace(base, **right)], [])


def _edge_pair(left: dict, right: dict):
    """Two one-edge graphs: one edge with the ``left`` and with the ``right`` properties."""
    base = Edge("A:1", "p", "B:2")
    left_kg = _graph([], [replace(base, properties=left)])
    return left_kg, _graph([], [replace(base, properties=right)])


# Hand-picked near misses, each one a collision of some simpler line format.
_NEAR_MISS_EXAMPLES = [
    _node_pair({"properties": {"k": ["a\tb"]}}, {"properties": {"k": ["a", "b"]}}),
    _node_pair({"properties": {"k": ["a\tb", "c"]}}, {"properties": {"k": ["a", "b\tc"]}}),
    _node_pair({"properties": {"k": ["x\\t"]}}, {"properties": {"k": ["x\t"]}}),
    _node_pair({"name": "x\\n"}, {"name": "x\n"}),
    _node_pair({"id": "A:x\\0"}, {"id": "A:x\x00"}),
    _node_pair({"properties": {"k\\": ["v"]}}, {"properties": {"k\t": ["v"]}}),
    _node_pair({"name": None}, {"name": ""}),
    _node_pair({"name": None}, {"name": "-"}),
    _node_pair({"name": ""}, {"name": "+"}),
    _node_pair({"properties": {"k": ["m", "v"]}}, {"properties": {"k": [], "m": ["v"]}}),
    _node_pair({"properties": {"k": ["v"], "m": []}}, {"properties": {"k": [], "m": ["v"]}}),
    _node_pair({"categories": ["", "1", "x"]}, {"categories": [], "properties": {"": ["x"]}}),
    _node_pair({"categories": ["Gene", "x"]}, {"properties": {"x": []}}),
    # One category and no property: the one-step node line.
    _node_pair({"name": "x\t1\tC", "categories": ["D"]}, {"name": "x", "categories": ["C\t1\tD"]}),
    _node_pair({"name": "x\\t"}, {"name": "x\t"}),
    _node_pair({"name": "x\\0"}, {"name": "x\x00"}),
    _node_pair({"categories": ["G\\t"]}, {"categories": ["G\t"]}),
    _node_pair({"categories": ["G\\n"]}, {"categories": ["G\n"]}),
    _node_pair({"categories": ["G\\0"]}, {"categories": ["G\x00"]}),
    _edge_pair({"k": ["a\tb"]}, {"k": ["a", "b"]}),
    _edge_pair({"k\\": ["v"]}, {"k\t": ["v"]}),
    _edge_pair({"k": ["x\\n"]}, {"k": ["x\n"]}),
    _edge_pair({"k": [""]}, {}),
    (
        _graph([], [Edge("A:1", "p", "B:2", {"k": ["1\ty"]})]),
        _graph([], [Edge("A:1", "p", "B:2\tk", {"1": ["y"]})]),
    ),
]


# The schema only prefixes the hashed text; a small one keeps examples cheap.
_DOC = SchemaDocument("digest", "1")


@given(_graph_pairs())
def test_inputs_digest_equal_exactly_when_json_reference_equal(pairs):
    for a, b in pairs:
        same = inputs_digest(a, _DOC) == inputs_digest(b, _DOC)
        assert same == (json_inputs_digest(a, _DOC) == json_inputs_digest(b, _DOC))


@pytest.mark.parametrize("pair", _NEAR_MISS_EXAMPLES)
def test_inputs_digest_tells_near_misses_apart(pair):
    a, b = pair
    assert json_inputs_digest(a, _DOC) != json_inputs_digest(b, _DOC)
    assert inputs_digest(a, _DOC) != inputs_digest(b, _DOC)


def test_inputs_digest_of_confusable_texts_in_one_step_lines_is_pinned():
    # Nodes of one category and no property, and edges of one single-valued
    # property, take the one-step lines; each confusable text goes in a
    # name, a category and a property value. The digest is the one the
    # field-by-field lines give.
    texts = [text for pair in _CONFUSABLE for text in pair]
    nodes = [Node(f"N:{i}", [text], text) for i, text in enumerate(texts)]
    edges = [Edge("N:0", "p", f"N:{i}", {"k": [text]}) for i, text in enumerate(texts)]
    digest = inputs_digest(_graph(nodes, edges), _DOC)
    assert digest == "b287dfc95cb76bd969afbd3c3525ac9761b38172dc4e588fa46b462923f24061"


@given(_graphs, st.randoms(use_true_random=False))
def test_inputs_digest_ignores_every_order(kg, rng):
    assert inputs_digest(_shuffled(kg, rng), _DOC) == inputs_digest(kg, _DOC)
