import random
from collections import Counter

import pytest

from kgschema import hierarchy, schema_model
from kgschema import (
    ClassDefinition,
    EmptyCategorySetError,
    IncomparableCategoriesWarning,
    SchemaDocument,
    SchemaNotValidError,
    UnknownClassError,
    UnknownPredicateError,
    build_closure,
    build_graph,
    close_categories,
    expand_query,
    graph_stats,
    match,
    validate_graph,
    validate_schema,
    expand_predicates,
    is_subclass_of,
    most_specific_category,
)
from generators import (
    QUERY_SHAPES,
    deep_chain_schema,
    dirty_graph,
    mixin_association_schema,
    random_graph,
    random_query,
    random_schema,
)
from oracles import dfs_ancestors, dfs_descendants, mixin_reach, naive_carriers


def test_regulation_predicates_descend_from_root(seed_index):
    descendants = seed_index.predicate_descendants["related_to"]
    assert "positively_regulates" in descendants
    assert "negatively_regulates" in descendants


def test_single_class_reflexive_closure():
    doc = SchemaDocument(name="one", version="0")
    doc.classes["Only"] = ClassDefinition(name="Only")
    index = build_closure(doc)
    assert index.class_ancestors["Only"] == ["Only"]
    assert index.class_descendants["Only"] == {"Only"}


def test_closure_matches_dfs_oracle_on_random_schemas():
    rng = random.Random(303)
    for _ in range(50):
        doc = random_schema(rng)
        index = build_closure(doc)
        class_parents = {n: c.is_a for n, c in doc.classes.items()}
        for name in doc.classes:
            assert index.class_ancestors[name] == dfs_ancestors(class_parents, name)
            assert index.class_descendants[name] == dfs_descendants(class_parents, name)
            expected_mixins = {
                m for m in mixin_reach(doc, name) if doc.classes[m].is_mixin
            }
            assert index.mixin_membership[name] == expected_mixins
            inherited = {
                p for a in dfs_ancestors(class_parents, name) for p in doc.classes[a].id_prefixes
            }
            assert index.id_prefixes[name] == inherited
        predicate_parents = {
            n: s.is_a for n, s in doc.slots.items() if s.slot_kind == "predicate"
        }
        for name in predicate_parents:
            assert index.predicate_ancestors[name] == dfs_ancestors(predicate_parents, name)
            assert index.predicate_descendants[name] == dfs_descendants(
                predicate_parents, name
            )


def test_closure_of_deep_child_first_class_chain():
    # The predicate chain is exercised through the CLI's expand verb.
    depth = 3000
    index = build_closure(deep_chain_schema(depth, 0))
    assert index.class_ancestors[f"C{depth}"] == [f"C{i}" for i in range(depth, -1, -1)]
    assert index.class_descendants["C0"] == {f"C{i}" for i in range(depth + 1)}


def test_mixin_reach_of_a_schema_with_many_mixin_subject_associations():
    doc = mixin_association_schema(classes=300, mixins=40, predicates=200, associations=150)
    assert validate_schema(doc) == []
    index = build_closure(doc)
    reach = {name: mixin_reach(doc, name) for name in doc.classes}
    assert index.mixin_membership == reach
    assert index.mixin_carriers == naive_carriers(doc, reach)


def test_closure_invariants_on_seed(seed_doc, seed_index):
    for name, cls in seed_doc.classes.items():
        ancestors = seed_index.class_ancestors[name]
        assert ancestors[0] == name
        if cls.is_a is not None:
            assert ancestors[1] == cls.is_a
        for ancestor in ancestors:
            assert name in seed_index.class_descendants[ancestor]
    assert seed_index.predicate_descendants["related_to"] == set(seed_doc.predicate_names())


def test_build_closure_rejects_invalid_schema():
    doc = SchemaDocument(name="bad", version="0")
    doc.classes["A"] = ClassDefinition(name="A", is_a="B")
    doc.classes["B"] = ClassDefinition(name="B", is_a="A")
    with pytest.raises(SchemaNotValidError):
        build_closure(doc)


def test_build_closure_walks_the_schema_once(seed_doc, monkeypatch):
    walks = []

    class CountingWalk(schema_model._Walk):
        def __init__(self, doc):
            walks.append(doc)
            super().__init__(doc)

    monkeypatch.setattr(schema_model, "_Walk", CountingWalk)
    monkeypatch.setattr(hierarchy, "_Walk", CountingWalk)
    index = build_closure(seed_doc)
    assert len(walks) == 1
    assert index.predicate_descendants["related_to"] == set(seed_doc.predicate_names())


def test_is_subclass_of_seed_cases(seed_index):
    assert is_subclass_of(seed_index, "Disease", "NamedThing")
    assert is_subclass_of(seed_index, "Disease", "Disease")
    assert is_subclass_of(seed_index, "Gene", "GeneOrGeneProduct", use_mixins=True)
    assert not is_subclass_of(seed_index, "Gene", "GeneOrGeneProduct", use_mixins=False)
    assert not is_subclass_of(seed_index, "NamedThing", "Disease")
    with pytest.raises(UnknownClassError):
        is_subclass_of(seed_index, "Gene", "Nope")


def test_is_subclass_of_is_partial_order_on_random_forests():
    rng = random.Random(99)
    for _ in range(20):
        doc = random_schema(rng, max_classes=15)
        index = build_closure(doc)
        names = list(doc.classes)
        for a in names:
            assert is_subclass_of(index, a, a)
        for a in names:
            for b in names:
                ab = is_subclass_of(index, a, b)
                if ab and is_subclass_of(index, b, a):
                    assert a == b  # antisymmetry
                for c in names:
                    if ab and is_subclass_of(index, b, c):
                        assert is_subclass_of(index, a, c)  # transitivity


def test_expand_predicates_seed_cases(seed_doc, seed_index):
    assert expand_predicates(seed_index, {"related_to"}) == set(seed_doc.predicate_names())
    assert expand_predicates(seed_index, {"has_phenotype"}) == {"has_phenotype"}
    assert expand_predicates(seed_index, {"entity_regulates_entity"}) == {
        "entity_regulates_entity",
        "positively_regulates",
        "negatively_regulates",
    }
    with pytest.raises(UnknownPredicateError) as caught:
        expand_predicates(seed_index, {"does_a_thing"})
    assert caught.value.name == "does_a_thing"
    assert str(caught.value) == "unknown predicate 'does_a_thing'"


def test_expansion_monotone_and_idempotent(seed_doc, seed_index):
    rng = random.Random(17)
    predicates = seed_doc.predicate_names()
    for _ in range(50):
        smaller = set(rng.sample(predicates, rng.randint(1, 5)))
        larger = smaller | set(rng.sample(predicates, rng.randint(1, 5)))
        expanded_small = expand_predicates(seed_index, smaller)
        expanded_large = expand_predicates(seed_index, larger)
        assert smaller <= expanded_small
        assert expanded_small <= expanded_large
        assert expand_predicates(seed_index, expanded_small) == expanded_small


def test_most_specific_category_chain(seed_index):
    assert (
        most_specific_category(seed_index, {"NamedThing", "BiologicalEntity", "Gene"}) == "Gene"
    )
    assert most_specific_category(seed_index, {"Disease"}) == "Disease"


def test_most_specific_category_incomparable_warns(seed_index):
    with pytest.warns(IncomparableCategoriesWarning):
        chosen = most_specific_category(seed_index, {"Gene", "Disease"})
    assert chosen == "Disease"


def test_most_specific_category_mixin_carrier_is_more_specific(seed_index):
    # A carrier counts as below its mixin, so no incomparability warning.
    assert most_specific_category(seed_index, {"Gene", "GeneOrGeneProduct"}) == "Gene"


def test_most_specific_category_errors(seed_index):
    with pytest.raises(EmptyCategorySetError):
        most_specific_category(seed_index, set())
    with pytest.raises(UnknownClassError):
        most_specific_category(seed_index, {"Gene", "Nope"})


def test_shared_index_gives_what_fresh_indexes_give(seed_doc, monkeypatch):
    """One index serves interleaved validate, match, stats and close calls on
    two graphs, with the results of a fresh index per call, and makes at most
    one category profile per distinct category list."""
    built = Counter()

    class CountedProfile(hierarchy.CategoryProfile):
        def __init__(self, categories, index):
            built[id(index), categories] += 1
            super().__init__(categories, index)

    monkeypatch.setattr(hierarchy, "CategoryProfile", CountedProfile)
    rng = random.Random(2121)
    graphs = [random_graph(rng, seed_doc), dirty_graph(rng, seed_doc, max_nodes=30, max_edges=60)]
    shared = build_closure(seed_doc)
    fresh_indexes = []  # kept alive, so that no two share an id()

    def fresh():
        fresh_indexes.append(build_closure(seed_doc))
        return fresh_indexes[-1]

    kgs = [build_graph(nodes, edges) for nodes, edges in graphs]
    for _ in range(3):
        for (nodes, edges), kg in zip(graphs, kgs):
            report = validate_graph(kg, seed_doc, shared).to_jsonl()
            assert report == validate_graph(kg, seed_doc, fresh()).to_jsonl()
            for shape in QUERY_SHAPES:
                qg = random_query(rng, seed_doc, nodes, edges, shape)
                ours = match(expand_query(qg, shared), kg, seed_doc, shared)
                index = fresh()
                assert ours == match(expand_query(qg, index), kg, seed_doc, index), shape
            assert graph_stats(kg, shared) == graph_stats(kg, fresh())
            assert close_categories(kg, shared) == close_categories(kg, fresh())
    assert built and max(built.values()) == 1
    distinct = {tuple(node.categories) for kg in kgs for node in kg.nodes.values()}
    assert {categories for index_id, categories in built if index_id == id(shared)} == distinct
