import dataclasses
import random
import tracemalloc

import pytest

import kgschema.schema_model as sm
from kgschema import (
    ClassDefinition,
    DuplicateNameError,
    ParseError,
    SchemaDocument,
    SchemaFormatWarning,
    SlotDefinition,
    UnknownClassError,
    effective_slots,
    parse_schema,
    serialize_schema,
    validate_schema,
)
from kgschema.schema_model import AssociationDefinition, Mapping, TypeDefinition

from generators import deep_chain_schema, random_schema, tangled_schema
from oracles import (
    dfs_ancestors,
    mixin_reach,
    naive_carriers,
    naive_hierarchy_violations,
    naive_shadowed,
    recursive_slot_union,
)

MINIMAL = "name: minimal\nversion: 0.0.1\n"


def codes(violations):
    return [v.code for v in violations]


# ---------------------------------------------------------------------------
# Parsing


def test_disease_id_prefixes_preserve_declaration_order():
    doc = parse_schema(
        MINIMAL
        + "prefixes:\n"
        + "  MONDO: http://purl.obolibrary.org/obo/MONDO_\n"
        + "  DOID: http://purl.obolibrary.org/obo/DOID_\n"
        + "classes:\n"
        + "  Disease:\n"
        + "    id_prefixes:\n"
        + "      - MONDO\n"
        + "      - DOID\n"
    )
    assert doc.classes["Disease"].id_prefixes == ["MONDO", "DOID"]


def test_empty_document_with_headers_only():
    doc = parse_schema(MINIMAL)
    assert doc.name == "minimal"
    assert doc.version == "0.0.1"
    assert doc.classes == {} and doc.slots == {}


def _scan_section_names(text: str, section: str) -> list[str]:
    # Independent of the parser: names sit at two-space indentation under
    # their section header.
    names = []
    inside = False
    for line in text.split("\n"):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if not line.startswith(" "):
            inside = line == f"{section}:"
            continue
        if inside and line.startswith("  ") and not line.startswith("   "):
            names.append(line.strip().rstrip(":"))
    return names


def test_seed_schema_counts(seed_text, seed_doc):
    # Text-scan oracle first, then the frozen expectations.
    assert len(_scan_section_names(seed_text, "classes")) == 14
    assert seed_text.count("    slot_kind: predicate") == 12
    assert seed_text.count("    slot_kind: edge_property") == 4
    assert len(_scan_section_names(seed_text, "associations")) == 3

    assert len(seed_doc.classes) == 14
    assert len(seed_doc.predicate_names()) == 12
    assert sum(1 for s in seed_doc.slots.values() if s.slot_kind == "edge_property") == 4
    assert len(seed_doc.associations) == 3


def test_duplicate_class_name_rejected():
    source = MINIMAL + "classes:\n  Gene:\n    description: a\n  Gene:\n    description: b\n"
    with pytest.raises(DuplicateNameError) as info:
        parse_schema(source)
    assert info.value.name == "Gene"
    assert info.value.kind == "class"


def test_unknown_key_strict_vs_lax():
    source = MINIMAL + "classes:\n  Gene:\n    colour: green\n"
    with pytest.raises(ParseError) as info:
        parse_schema(source)
    assert "colour" in str(info.value)
    with pytest.warns(SchemaFormatWarning):
        doc = parse_schema(source, lax=True)
    assert "Gene" in doc.classes


def test_leading_bom_is_ignored(seed_text, seed_doc):
    assert parse_schema("\ufeff" + seed_text) == seed_doc


def test_missing_headers_rejected():
    with pytest.raises(ParseError):
        parse_schema("name: only\n")


def test_overlong_identifier_in_list_rejected():
    long_name = "X" * 300
    source = MINIMAL + f"classes:\n  Gene:\n    mixins:\n      - {long_name}\n"
    with pytest.raises(ParseError):
        parse_schema(source)


def test_bad_boolean_rejected():
    source = MINIMAL + "classes:\n  Gene:\n    is_mixin: yes\n"
    with pytest.raises(ParseError):
        parse_schema(source)


def test_slot_requires_slot_kind():
    source = MINIMAL + "slots:\n  treats:\n    description: no kind\n"
    with pytest.raises(ParseError):
        parse_schema(source)


# ---------------------------------------------------------------------------
# Schema validation


def test_seed_schema_is_valid(seed_doc):
    assert validate_schema(seed_doc) == []


def test_two_cycle_detected():
    doc = parse_schema(
        MINIMAL
        + "slots:\n"
        + "  related_to:\n"
        + "    slot_kind: predicate\n"
        + "  affects:\n"
        + "    is_a: regulates\n"
        + "    slot_kind: predicate\n"
        + "  regulates:\n"
        + "    is_a: affects\n"
        + "    slot_kind: predicate\n"
    )
    assert sm.CYCLE_IN_IS_A in codes(validate_schema(doc))


def test_predicate_without_root_parent_flagged():
    doc = parse_schema(MINIMAL + "slots:\n  treats:\n    slot_kind: predicate\n")
    report = validate_schema(doc)
    assert codes(report) == [sm.PREDICATE_NOT_UNDER_RELATED_TO]


def test_root_predicate_with_parent_flagged():
    doc = SchemaDocument(name="x", version="0")
    doc.slots["other"] = SlotDefinition(name="other", slot_kind="predicate", is_a="related_to")
    doc.slots["related_to"] = SlotDefinition(
        name="related_to", slot_kind="predicate", is_a="other"
    )
    assert sm.CYCLE_IN_IS_A in codes(validate_schema(doc))
    doc2 = SchemaDocument(name="x", version="0")
    doc2.slots["p"] = SlotDefinition(name="p", slot_kind="node_property")
    doc2.slots["related_to"] = SlotDefinition(name="related_to", slot_kind="predicate", is_a="p")
    found = codes(validate_schema(doc2))
    assert sm.PREDICATE_NOT_UNDER_RELATED_TO in found
    assert sm.SLOT_KIND_MISMATCH in found


def test_undeclared_and_duplicate_prefixes():
    doc = SchemaDocument(name="x", version="0")
    doc.classes["Gene"] = ClassDefinition(name="Gene", id_prefixes=["HGNC", "HGNC", "NOPE"])
    found = codes(validate_schema(doc))
    assert sm.DUPLICATE_ID_PREFIX in found
    assert found.count(sm.UNDECLARED_PREFIX) == 3  # HGNC twice + NOPE


def test_mixin_rules():
    doc = SchemaDocument(name="x", version="0")
    doc.classes["Plain"] = ClassDefinition(name="Plain")
    doc.classes["Mix"] = ClassDefinition(name="Mix", is_mixin=True, is_a="Plain")
    doc.classes["Other"] = ClassDefinition(name="Other", is_a="Mix")
    doc.classes["User"] = ClassDefinition(name="User", mixins=["Plain", "Absent"])
    found = codes(validate_schema(doc))
    assert sm.MIXIN_IS_A_NOT_MIXIN in found
    assert sm.CLASS_IS_A_MIXIN in found
    assert sm.MIXIN_NOT_MIXIN in found
    assert sm.UNKNOWN_CLASS_REF in found


def test_namespace_collision():
    doc = SchemaDocument(name="x", version="0")
    doc.classes["thing"] = ClassDefinition(name="thing")
    doc.slots["thing"] = SlotDefinition(name="thing", slot_kind="node_property")
    found = codes(validate_schema(doc))
    assert sm.NAMESPACE_COLLISION in found


def test_mapping_relation_and_type_base_enums():
    doc = SchemaDocument(name="x", version="0")
    doc.classes["Gene"] = ClassDefinition(
        name="Gene", mappings=[Mapping("sorta", "X:1"), Mapping("exact", "no curie here")]
    )
    doc.types["weird"] = TypeDefinition(name="weird", base="complex")
    found = codes(validate_schema(doc))
    assert sm.INVALID_MAPPING_RELATION in found
    assert sm.MALFORMED_MAPPING_TARGET in found
    assert sm.INVALID_TYPE_BASE in found


def test_association_reference_and_narrowing_checks():
    doc = SchemaDocument(name="x", version="0")
    doc.classes["NamedThing"] = ClassDefinition(name="NamedThing")
    doc.classes["Disease"] = ClassDefinition(name="Disease", is_a="NamedThing")
    doc.classes["Gene"] = ClassDefinition(name="Gene", is_a="NamedThing")
    doc.slots["related_to"] = SlotDefinition(name="related_to", slot_kind="predicate")
    doc.slots["affects"] = SlotDefinition(name="affects", slot_kind="predicate", is_a="related_to")
    doc.slots["pubs"] = SlotDefinition(name="pubs", slot_kind="edge_property")
    doc.associations["BaseAssociation"] = AssociationDefinition(
        name="BaseAssociation", subject="Disease", predicate="affects", object="NamedThing"
    )
    doc.associations["WideAssociation"] = AssociationDefinition(
        name="WideAssociation",
        is_a="BaseAssociation",
        subject="NamedThing",  # wider than parent's Disease
        predicate="related_to",  # ancestor of parent's predicate, not descendant
        object="Disease",
        required_edge_properties=["pubs", "missing_prop"],
    )
    found = codes(validate_schema(doc))
    assert found.count(sm.ASSOCIATION_WIDENS_PARENT) == 2
    assert sm.UNKNOWN_SLOT_REF in found


def test_naming_style_warnings():
    doc = SchemaDocument(name="x", version="0")
    doc.classes["bad_name"] = ClassDefinition(name="bad_name")
    doc.slots["BadSlot"] = SlotDefinition(name="BadSlot", slot_kind="node_property")
    doc.associations["NotSuffixed"] = AssociationDefinition(
        name="NotSuffixed", subject="bad_name", predicate="BadSlot", object="bad_name"
    )
    report = validate_schema(doc)
    styles = [v for v in report if v.code.endswith("_STYLE")]
    assert {v.severity for v in styles} == {"warning"}
    assert {v.code for v in styles} == {
        sm.CLASS_NAME_STYLE,
        sm.SLOT_NAME_STYLE,
        sm.ASSOCIATION_NAME_STYLE,
    }


def test_mixin_slot_shadowing_warning():
    doc = SchemaDocument(name="x", version="0")
    doc.slots["s"] = SlotDefinition(name="s", slot_kind="node_property")
    doc.classes["M1"] = ClassDefinition(name="M1", is_mixin=True, slots=["s"])
    doc.classes["M2"] = ClassDefinition(name="M2", is_mixin=True, slots=["s"])
    doc.classes["User"] = ClassDefinition(name="User", mixins=["M1", "M2"])
    report = validate_schema(doc)
    shadowed = [v for v in report if v.code == sm.MIXIN_SLOT_SHADOWED]
    assert len(shadowed) == 1
    assert shadowed[0].severity == "warning"
    assert "M1" in shadowed[0].detail


def test_validation_is_order_independent(seed_text):
    base = parse_schema(seed_text)
    # Break the schema, then permute top-level maps and compare multisets.
    base.classes["Disease"].is_a = "Nowhere"
    base.slots["treats"].is_a = None
    expected = sorted((v.code, v.element) for v in validate_schema(base))
    rng = random.Random(5)
    for _ in range(5):
        shuffled = SchemaDocument(name=base.name, version=base.version, prefixes=base.prefixes)
        for field in ("classes", "slots", "associations", "types"):
            items = list(getattr(base, field).items())
            rng.shuffle(items)
            setattr(shuffled, field, dict(items))
        assert sorted((v.code, v.element) for v in validate_schema(shuffled)) == expected


# ---------------------------------------------------------------------------
# effective_slots


def test_effective_slots_identity():
    doc = SchemaDocument(name="x", version="0")
    doc.slots["id"] = SlotDefinition(name="id", slot_kind="node_property")
    doc.slots["name"] = SlotDefinition(name="name", slot_kind="node_property")
    doc.classes["Thing"] = ClassDefinition(name="Thing", slots=["id", "name"])
    assert effective_slots(doc, "Thing") == ["id", "name"]


def test_effective_slots_gene_gets_symbol_from_mixin(seed_doc):
    slots = effective_slots(seed_doc, "Gene")
    assert "symbol" in slots
    # Inherited from NamedThing along the is_a chain:
    assert "id" in slots and "name" in slots
    # Own/inherited slots come before mixin contributions:
    assert slots.index("id") < slots.index("symbol")


def test_effective_slots_superset_of_parent(seed_doc):
    for name, cls in seed_doc.classes.items():
        if cls.is_a and not cls.is_mixin:
            assert set(effective_slots(seed_doc, name)) >= set(
                effective_slots(seed_doc, cls.is_a)
            )


def test_effective_slots_order_own_inherited_mixin():
    doc = SchemaDocument(name="x", version="0")
    for slot in ("own", "inherited", "contributed"):
        doc.slots[slot] = SlotDefinition(name=slot, slot_kind="node_property")
    doc.classes["Mix"] = ClassDefinition(name="Mix", is_mixin=True, slots=["contributed"])
    doc.classes["Parent"] = ClassDefinition(name="Parent", slots=["inherited"])
    doc.classes["Child"] = ClassDefinition(
        name="Child", is_a="Parent", mixins=["Mix"], slots=["own"]
    )
    assert effective_slots(doc, "Child") == ["own", "inherited", "contributed"]


def test_effective_slots_unknown_class(seed_doc):
    with pytest.raises(UnknownClassError):
        effective_slots(seed_doc, "Nope")


def _effective_slots_from_a_walk(doc, class_name):
    """``effective_slots`` as read from a whole-schema ``_Walk``: chain slots, then mixin contributions."""
    walk = sm._Walk(doc)
    chain = sm._chain(walk.class_parents, class_name)
    slots = [slot for name in chain for slot in doc.classes[name].slots]
    slots += [slot for name in chain for mixin in doc.classes[name].mixins for slot in walk.contribution(mixin)]
    return list(dict.fromkeys(slots))


def test_effective_slots_walks_only_the_class_chain(monkeypatch):
    """No whole-schema cycle search: the result is the walk's, with ``_find_cycles`` gone."""
    rng = random.Random(31)
    docs = [random_schema(rng, max_classes=12, max_mixins=4) for _ in range(30)]
    docs += [tangled_schema(rng) for _ in range(60)]
    expected = [{name: _effective_slots_from_a_walk(doc, name) for name in doc.classes} for doc in docs]

    def refuse(parents):
        raise AssertionError("effective_slots searched the whole schema for cycles")

    monkeypatch.setattr(sm, "_find_cycles", refuse)
    for doc, slots in zip(docs, expected):
        assert {name: effective_slots(doc, name) for name in doc.classes} == slots


def test_effective_slots_matches_recursive_union_oracle():
    rng = random.Random(11)
    for _ in range(40):
        doc = random_schema(rng, max_classes=12, max_mixins=4)
        for name in doc.classes:
            assert set(effective_slots(doc, name)) == recursive_slot_union(doc, name), name


# ---------------------------------------------------------------------------
# Round trip


def test_seed_round_trip(seed_doc):
    assert parse_schema(serialize_schema(seed_doc)) == seed_doc


def test_random_schema_round_trip():
    rng = random.Random(23)
    for _ in range(25):
        doc = random_schema(rng, max_classes=10)
        assert parse_schema(serialize_schema(doc)) == doc


def test_serialize_rejects_unrepresentable_description():
    doc = SchemaDocument(name="x", version="0")
    doc.classes["Gene"] = ClassDefinition(name="Gene", description="bad # marker")
    with pytest.raises(ValueError):
        serialize_schema(doc)


def test_effective_slots_terminates_on_deep_hierarchies():
    doc = SchemaDocument(name="deep", version="0")
    doc.slots["s0"] = SlotDefinition(name="s0", slot_kind="node_property")
    depth = 300
    for i in range(depth):
        doc.classes[f"C{i}"] = ClassDefinition(
            name=f"C{i}", is_a=f"C{i - 1}" if i else None, slots=["s0"] if i == 0 else []
        )
    doc.classes["M0"] = ClassDefinition(name="M0", is_mixin=True, slots=["s0"])
    for i in range(1, depth):
        doc.classes[f"M{i}"] = ClassDefinition(name=f"M{i}", is_mixin=True, is_a=f"M{i - 1}")
    doc.classes["Leafy"] = ClassDefinition(
        name="Leafy", is_a=f"C{depth - 1}", mixins=[f"M{depth - 1}"]
    )
    assert effective_slots(doc, "Leafy") == ["s0"]


def test_deep_mixin_chain_validates_in_pre_order():
    # M0 is_a M1 is_a ... M2999; each mixin contributes its own slot.
    doc = SchemaDocument(name="deep", version="0")
    depth = 3000
    for i in range(depth):
        doc.slots[f"s{i}"] = SlotDefinition(name=f"s{i}", slot_kind="node_property")
        doc.classes[f"M{i}"] = ClassDefinition(
            name=f"M{i}", is_mixin=True, is_a=f"M{i + 1}" if i + 1 < depth else None,
            slots=[f"s{i}"],
        )
    doc.classes["Carrier"] = ClassDefinition(name="Carrier", mixins=["M0"])
    assert not [v for v in validate_schema(doc) if v.severity == "error"]
    assert effective_slots(doc, "Carrier") == [f"s{i}" for i in range(depth)]


def test_mixin_contribution_order_own_then_is_a_then_mixins():
    doc = SchemaDocument(name="x", version="0")
    for slot in ("own", "up", "first", "second", "shared"):
        doc.slots[slot] = SlotDefinition(name=slot, slot_kind="node_property")
    doc.classes["Shared"] = ClassDefinition(name="Shared", is_mixin=True, slots=["shared"])
    doc.classes["Up"] = ClassDefinition(name="Up", is_mixin=True, slots=["up"], mixins=["Shared"])
    doc.classes["First"] = ClassDefinition(name="First", is_mixin=True, slots=["first"])
    doc.classes["Second"] = ClassDefinition(
        name="Second", is_mixin=True, slots=["second"], mixins=["Shared"]
    )
    doc.classes["Mix"] = ClassDefinition(
        name="Mix", is_mixin=True, is_a="Up", mixins=["First", "Second"], slots=["own"]
    )
    doc.classes["User"] = ClassDefinition(name="User", mixins=["Mix"])
    assert effective_slots(doc, "User") == ["own", "up", "shared", "first", "second"]


def _slot_schema(*slots: tuple[str, str, str | None]) -> SchemaDocument:
    """A schema of (name, slot kind, is_a) slots, declared in the given order."""
    doc = SchemaDocument(name="x", version="0")
    for name, kind, parent in slots:
        doc.slots[name] = SlotDefinition(name=name, slot_kind=kind, is_a=parent)
    return doc


def _triples(violations):
    return [(v.code, v.element, v.detail) for v in violations]


NOT_UNDER = "predicate does not reach 'related_to' via is_a"


def test_predicate_root_check_skips_cycle_members():
    doc = _slot_schema(
        ("related_to", "predicate", None),
        ("a", "predicate", "b"),
        ("b", "predicate", "a"),
        ("loop", "predicate", "loop"),
    )
    assert _triples(validate_schema(doc)) == [
        (sm.CYCLE_IN_IS_A, "a", "slot is_a cycle: a -> b"),
        (sm.CYCLE_IN_IS_A, "loop", "slot is_a cycle: loop"),
    ]


def test_chain_into_a_cycle_goes_once_round_it_from_where_it_enters():
    # related_to and x form a cycle, entered at x by p and at related_to by
    # q: p's chain ends at related_to, q's at x.
    doc = _slot_schema(
        ("related_to", "predicate", "x"),
        ("x", "predicate", "related_to"),
        ("p", "predicate", "x"),
        ("q", "predicate", "related_to"),
    )
    doc.classes["Thing"] = ClassDefinition(name="Thing")
    for name, parent, predicate in (
        ("BaseAssociation", None, "related_to"),
        ("EnteringAssociation", "BaseAssociation", "p"),
        ("MemberAssociation", "BaseAssociation", "x"),
    ):
        doc.associations[name] = AssociationDefinition(
            name=name, is_a=parent, subject="Thing", predicate=predicate, object="Thing"
        )
    assert _triples(validate_schema(doc)) == [
        (sm.CYCLE_IN_IS_A, "related_to", "slot is_a cycle: related_to -> x"),
        (sm.PREDICATE_NOT_UNDER_RELATED_TO, "q", NOT_UNDER),
    ]


def test_predicate_under_an_unknown_parent_does_not_reach_the_root():
    doc = _slot_schema(
        ("related_to", "predicate", None),
        ("child", "predicate", "orphan"),
        ("orphan", "predicate", "ghost"),
    )
    assert _triples(validate_schema(doc)) == [
        (sm.PREDICATE_NOT_UNDER_RELATED_TO, "child", NOT_UNDER),
        (sm.PREDICATE_NOT_UNDER_RELATED_TO, "orphan", NOT_UNDER),
        (sm.UNKNOWN_IS_A, "orphan", "is_a target 'ghost' is not a slot"),
    ]


def test_predicate_chain_ending_at_a_non_predicate_slot():
    doc = _slot_schema(
        ("related_to", "node_property", None),
        ("p", "predicate", "related_to"),
        ("q", "predicate", "note"),
        ("note", "node_property", None),
    )
    assert _triples(validate_schema(doc)) == [
        (sm.PREDICATE_NOT_UNDER_RELATED_TO, "p", NOT_UNDER),
        (sm.PREDICATE_NOT_UNDER_RELATED_TO, "q", NOT_UNDER),
        (sm.SLOT_KIND_MISMATCH, "p", "predicate slot extends node_property slot 'related_to'"),
        (sm.SLOT_KIND_MISMATCH, "q", "predicate slot extends node_property slot 'note'"),
    ]


def test_chain_and_slot_tops_equal_chain_walks_with_cycles_and_unknown_parents():
    rng = random.Random(7)
    for _ in range(300):
        names = [f"s{i}" for i in range(rng.randint(1, 12))]
        parents = {
            name: rng.choice(names + ["ghost", None, None]) for name in names
        }
        doc = SchemaDocument(name="walk", version="0")
        doc.slots = {n: SlotDefinition(name=n, slot_kind="predicate", is_a=p) for n, p in parents.items()}
        tops = sm._Walk(doc).slot_tops
        for name in names:
            expected = dfs_ancestors(parents, name)
            assert sm._chain(parents, name) == expected, parents
            assert tops[name] == expected[-1], parents


def test_validate_schema_on_deep_predicate_chain_is_clean():
    assert validate_schema(deep_chain_schema(0, 6000)) == []


def _class_chain_with_child_association(depth):
    # The leaf's association narrows the root's, so validate_schema walks
    # the leaf's class chain to check it.
    doc = deep_chain_schema(depth, 0)
    leaf = f"C{depth}"
    doc.associations = {
        "RootAssociation": AssociationDefinition("RootAssociation", "C0", "related_to", "C0"),
        "LeafAssociation": AssociationDefinition(
            "LeafAssociation", leaf, "related_to", leaf, is_a="RootAssociation"
        ),
    }
    return doc


@pytest.mark.parametrize(
    "schema",
    [lambda depth: deep_chain_schema(0, depth), _class_chain_with_child_association],
    ids=["predicate-chain", "class-chain"],
)
def test_validate_schema_peak_memory_grows_linearly_with_chain_depth(schema):
    # A ratio of peaks does not depend on host speed: about 2 when the
    # memory is linear in the depth, about 4 when it is quadratic.
    peaks = []
    for depth in (1500, 3000):
        doc = schema(depth)
        tracemalloc.start()
        try:
            assert validate_schema(doc) == []
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 3 * peaks[0], peaks


def test_walk_reach_and_carriers_equal_oracle_on_tangled_schemas():
    rng = random.Random(1314)
    for _ in range(500):
        doc = tangled_schema(rng)
        walk = sm._Walk(doc)
        reach = {name: mixin_reach(doc, name) for name in doc.classes}
        assert walk.reach == reach, serialize_schema(doc)
        assert walk.carriers == naive_carriers(doc, reach)


def test_hierarchy_checks_equal_naive_oracle_on_tangled_schemas():
    # is_a cycles, unknown parents, mixin declaration loops, and associations
    # with a mixin at either end, often under a mixin or class parent end.
    checked = {sm.CYCLE_IN_IS_A, sm.PREDICATE_NOT_UNDER_RELATED_TO, sm.ASSOCIATION_WIDENS_PARENT}
    rng = random.Random(1313)
    for _ in range(2000):
        doc = tangled_schema(rng)
        found = [(v.code, v.element, v.detail) for v in validate_schema(doc) if v.code in checked]
        assert found == naive_hierarchy_violations(doc), serialize_schema(doc)


def test_mixin_slot_shadowing_equals_naive_oracle_on_tangled_schemas():
    # Classes share a few slot names, so mixins that reach each other, or
    # loop, often give one slot twice.
    rng = random.Random(1717)
    warned = 0
    for _ in range(1000):
        doc = tangled_schema(rng)
        for cls in doc.classes.values():
            cls.slots = rng.sample(["s0", "s1", "s2"], rng.randint(0, 2))
        found = [(v.element, v.detail) for v in validate_schema(doc) if v.code == sm.MIXIN_SLOT_SHADOWED]
        assert found == naive_shadowed(doc), serialize_schema(doc)
        warned += len(found)
    assert warned > 100


# ---------------------------------------------------------------------------
# Canonical text and the definition fault table


def test_seed_schema_serializes_to_its_file_without_the_leading_comment(seed_doc, seed_text):
    lines = seed_text.split("\n")
    assert lines[:2] == [
        "# Seed schema: core biomedical categories, relationship hierarchy, and",
        "# association rules used by the bundled fixtures and tests.",
    ]
    assert serialize_schema(seed_doc) == "\n".join(lines[2:])


def _every_field_schema() -> SchemaDocument:
    doc = SchemaDocument(name="full", version="2.0", prefixes={"EX": "http://example.org/"})
    doc.classes["Thing"] = ClassDefinition(
        name="Thing",
        description="a thing",
        is_a="Root",
        mixins=["M1", "M2"],
        is_mixin=True,
        slots=["s1"],
        id_prefixes=["EX"],
        mappings=[Mapping("exact", "EX:1"), Mapping("broad", "EX:9")],
    )
    doc.slots["s1"] = SlotDefinition(
        name="s1",
        slot_kind="predicate",
        description="a slot",
        is_a="related_to",
        domain="Thing",
        range="Thing",
        multivalued=True,
        required=True,
        symmetric=True,
        mappings=[Mapping("close", "EX:2")],
    )
    doc.associations["ThingAssociation"] = AssociationDefinition(
        name="ThingAssociation",
        subject="Thing",
        predicate="s1",
        object="Thing",
        is_a="BaseAssociation",
        required_edge_properties=["e1"],
        optional_edge_properties=["e2", "e3"],
    )
    doc.types["quotient"] = TypeDefinition(name="quotient", base="float", description="a ratio")
    return doc


EVERY_FIELD_TEXT = """\
name: full
version: 2.0
prefixes:
  EX: http://example.org/
classes:
  Thing:
    description: a thing
    is_a: Root
    is_mixin: true
    mixins:
      - M1
      - M2
    slots:
      - s1
    id_prefixes:
      - EX
    mappings:
      - relation: exact
        target: EX:1
      - relation: broad
        target: EX:9
slots:
  s1:
    description: a slot
    is_a: related_to
    slot_kind: predicate
    domain: Thing
    range: Thing
    multivalued: true
    required: true
    symmetric: true
    mappings:
      - relation: close
        target: EX:2
associations:
  ThingAssociation:
    is_a: BaseAssociation
    subject: Thing
    predicate: s1
    object: Thing
    required_edge_properties:
      - e1
    optional_edge_properties:
      - e2
      - e3
types:
  quotient:
    base: float
    description: a ratio
"""


def test_every_field_of_every_kind_serializes_to_exact_text():
    doc = _every_field_schema()
    assert serialize_schema(doc) == EVERY_FIELD_TEXT
    assert parse_schema(EVERY_FIELD_TEXT) == doc


def test_definitions_at_their_defaults_serialize_to_exact_text():
    doc = SchemaDocument(name="bare", version="0")
    doc.classes["Bare"] = ClassDefinition(name="Bare")
    doc.slots["s"] = SlotDefinition(name="s", slot_kind="node_property")
    doc.associations["A"] = AssociationDefinition(name="A", subject="Bare", predicate="s", object="Bare")
    doc.types["t"] = TypeDefinition(name="t", base="string")
    text = (
        "name: bare\nversion: 0\n"
        "classes:\n  Bare:\n    is_mixin: false\n"
        "slots:\n  s:\n    slot_kind: node_property\n"
        "associations:\n  A:\n    subject: Bare\n    predicate: s\n    object: Bare\n"
        "types:\n  t:\n    base: string\n"
    )
    assert serialize_schema(doc) == text
    assert parse_schema(text) == doc


_LONG = "X" * 257
# The required keys of each kind, so that a block reaches its value checks.
_REQUIRED = {
    "classes": "",
    "slots": "    slot_kind: predicate\n",
    "associations": "    subject: A\n    predicate: p\n    object: B\n",
    "types": "    base: string\n",
}


def _definition(section: str, body: str, required: bool = True) -> str:
    """A schema whose one definition, ``x`` in ``section``, starts its body at line 5."""
    return MINIMAL + f"{section}:\n  x:\n" + body + (_REQUIRED[section] if required else "")


# (section, body, exact str() of the ParseError). The body starts at line 5;
# every row has one malformed value per key and reader, or one missing key.
DEFINITION_FAULTS = [
    ("classes", "    description:\n      - a\n", "line 6, column 7: description must be a single value"),
    ("classes", f"    is_a: {_LONG}\n", "line 5, column 11: identifier longer than 256 bytes"),
    ("classes", "    is_mixin: yes\n", "line 5, column 15: is_mixin must be 'true' or 'false', got 'yes'"),
    ("classes", "    mixins: M1\n", "line 5, column 13: mixins must be a sequence"),
    ("classes", "    slots:\n      - s\n      - k: v\n", "line 7, column 9: slots must be a single value"),
    ("classes", f"    id_prefixes:\n      - {_LONG}\n", "line 6, column 9: identifier longer than 256 bytes"),
    ("classes", "    mappings: exact\n", "line 5, column 15: mappings must be a sequence"),
    ("classes", "    mappings:\n      - exact\n",
     "line 6, column 9: each mapping must have relation and target keys"),
    ("classes", "    mappings:\n      - relation: exact\n", "line 6, column 9: mapping missing 'target'"),
    ("classes", "    mappings:\n      - target: X:1\n", "line 6, column 9: mapping missing 'relation'"),
    ("classes", "    mappings:\n      - relation: exact\n        target: X:1\n        note: n\n",
     "line 8, column 9: unknown key 'note' in mappings"),
    ("classes", "    mappings:\n      - relation:\n          - exact\n        target: X:1\n",
     "line 7, column 11: relation must be a single value"),
    ("classes", f"    mappings:\n      - relation: exact\n        target: {_LONG}\n",
     "line 7, column 17: identifier longer than 256 bytes"),
    ("classes", "    colour: green\n", "line 5, column 5: unknown key 'colour' in class 'x'"),
    ("slots", "    description:\n      - a\n", "line 6, column 7: description must be a single value"),
    ("slots", "    is_a:\n      - a\n", "line 6, column 7: is_a must be a single value"),
    ("slots", "    domain:\n      k: v\n", "line 6, column 7: domain must be a single value"),
    ("slots", f"    range: {_LONG}\n", "line 5, column 12: identifier longer than 256 bytes"),
    ("slots", "    multivalued: 1\n", "line 5, column 18: multivalued must be 'true' or 'false', got '1'"),
    ("slots", "    required: True\n", "line 5, column 15: required must be 'true' or 'false', got 'True'"),
    ("slots", "    symmetric: no\n", "line 5, column 16: symmetric must be 'true' or 'false', got 'no'"),
    ("slots", "    mappings: close\n", "line 5, column 15: mappings must be a sequence"),
    ("slots", "    colour: green\n", "line 5, column 5: unknown key 'colour' in slot 'x'"),
    ("associations", f"    is_a: {_LONG}\n", "line 5, column 11: identifier longer than 256 bytes"),
    ("associations", "    required_edge_properties: e\n",
     "line 5, column 31: required_edge_properties must be a sequence"),
    ("associations", "    optional_edge_properties:\n      k: v\n",
     "line 6, column 7: optional_edge_properties must be a sequence"),
    ("associations", "    colour: green\n", "line 5, column 5: unknown key 'colour' in association 'x'"),
    ("types", "    description:\n      - a\n", "line 6, column 7: description must be a single value"),
    ("types", "    colour: green\n", "line 5, column 5: unknown key 'colour' in type 'x'"),
]

# Required values, malformed or missing; the row's other keys are valid.
REQUIRED_FAULTS = [
    ("slots", "    slot_kind:\n      - predicate\n",
     "line 6, column 7: slot_kind must be a single value"),
    ("slots", "    description: no kind\n", "line 5, column 5: slot 'x' is missing 'slot_kind'"),
    ("associations", f"    subject: {_LONG}\n    predicate: p\n    object: B\n",
     "line 5, column 14: identifier longer than 256 bytes"),
    ("associations", "    subject: A\n    predicate:\n      - p\n    object: B\n",
     "line 7, column 7: predicate must be a single value"),
    ("associations", f"    subject: A\n    predicate: p\n    object: {_LONG}\n",
     "line 7, column 13: identifier longer than 256 bytes"),
    ("associations", "    predicate: p\n    object: B\n",
     "line 5, column 5: association 'x' is missing 'subject'"),
    ("associations", "    subject: A\n    object: B\n",
     "line 5, column 5: association 'x' is missing 'predicate'"),
    ("associations", "    subject: A\n    predicate: p\n",
     "line 5, column 5: association 'x' is missing 'object'"),
    ("associations", "    is_a: Base\n", "line 5, column 5: association 'x' is missing 'subject'"),
    ("types", f"    base: {_LONG}\n", "line 5, column 11: identifier longer than 256 bytes"),
    ("types", "    description: no base\n", "line 5, column 5: type 'x' is missing 'base'"),
    # Two faults in one block: a missing required key comes first, then the
    # first malformed value in canonical key order.
    ("associations", f"    is_a: {_LONG}\n    predicate: p\n    object: B\n",
     "line 5, column 5: association 'x' is missing 'subject'"),
    ("classes", "    mixins: M1\n    is_mixin: yes\n",
     "line 6, column 15: is_mixin must be 'true' or 'false', got 'yes'"),
    ("slots", "    slot_kind:\n      - p\n    description:\n      - a\n",
     "line 8, column 7: description must be a single value"),
    ("slots", "    slot_kind:\n      - p\n    is_a:\n      - a\n",
     "line 8, column 7: is_a must be a single value"),
]


def test_each_kind_lists_exactly_its_dataclass_fields():
    for section, (kind, cls) in sm._SECTIONS.items():
        names = [spec.name for spec in dataclasses.fields(cls)]
        assert names[0] == "name", section
        assert sorted(sm._FIELDS[kind]) == sorted(names[1:]), section
        assert getattr(SchemaDocument(name="x", version="0"), section) == {}


@pytest.mark.parametrize(("section", "body", "expected"), DEFINITION_FAULTS)
def test_definition_fault_table(section, body, expected):
    with pytest.raises(ParseError) as info:
        parse_schema(_definition(section, body))
    assert str(info.value) == expected


@pytest.mark.parametrize(("section", "body", "expected"), REQUIRED_FAULTS)
def test_required_key_fault_table(section, body, expected):
    with pytest.raises(ParseError) as info:
        parse_schema(_definition(section, body, required=False))
    assert str(info.value) == expected


@pytest.mark.parametrize(
    ("section", "kind"),
    [("classes", "class"), ("slots", "slot"), ("associations", "association"), ("types", "type")],
)
def test_lax_parsing_skips_an_unknown_key_of_each_kind(section, kind):
    with pytest.warns(SchemaFormatWarning) as record:
        lax = parse_schema(_definition(section, "    colour: green\n    shade:\n      - dark\n"), lax=True)
    assert [str(w.message) for w in record] == [
        f"ignoring unknown key 'colour' in {kind} 'x' (line 5)",
        f"ignoring unknown key 'shade' in {kind} 'x' (line 6)",
    ]
    strict = parse_schema(_definition(section, "" if section != "classes" else "    is_mixin: false\n"))
    assert lax == strict


def test_lax_parsing_skips_an_unknown_mapping_key():
    text = _definition("slots", "    mappings:\n      - relation: exact\n        target: X:1\n        note: n\n")
    with pytest.warns(SchemaFormatWarning, match=r"^ignoring unknown key 'note' in mappings \(line 8\)$"):
        doc = parse_schema(text, lax=True)
    assert doc.slots["x"].mappings == [Mapping("exact", "X:1")]
