"""Seeded random generators for schemas, graphs, cliques, and queries.

Also the example count of property tests that set their own.
"""

from __future__ import annotations

import copy
import random
from collections.abc import Sequence

from hypothesis import settings

from kgschema import (
    AssociationDefinition,
    ClassDefinition,
    Edge,
    Node,
    SchemaDocument,
    SlotDefinition,
    validate_schema,
)
from kgschema.query import QEdge, QNode, QueryGraph

# Examples per property test under the deep profile (HYPOTHESIS_PROFILE=deep).
DEEP_EXAMPLES = 1000


def max_examples(tier1: int) -> int:
    """``tier1``, or ``DEEP_EXAMPLES`` when the deep profile is loaded."""
    return DEEP_EXAMPLES if settings.default.max_examples >= DEEP_EXAMPLES else tier1


def random_schema(
    rng: random.Random,
    max_classes: int = 40,
    max_mixins: int = 6,
    max_predicates: int = 12,
    mixin_edge_budget: int = 20,
) -> SchemaDocument:
    """A random valid schema: is_a forests plus random mixin declarations."""
    doc = SchemaDocument(name="random", version="0")
    doc.prefixes = {f"P{i}": f"http://example.org/p{i}/" for i in range(4)}

    n_mixins = rng.randint(0, max_mixins)
    mixin_names = [f"M{i}" for i in range(n_mixins)]
    for i, name in enumerate(mixin_names):
        parent = rng.choice(mixin_names[:i]) if i and rng.random() < 0.5 else None
        doc.classes[name] = ClassDefinition(name=name, is_a=parent, is_mixin=True)

    n_classes = rng.randint(1, max_classes)
    class_names = [f"C{i}" for i in range(n_classes)]
    mixin_edges = 0
    for i, name in enumerate(class_names):
        parent = rng.choice(class_names[:i]) if i and rng.random() < 0.7 else None
        mixins = []
        if mixin_names and mixin_edges < mixin_edge_budget and rng.random() < 0.4:
            mixins = rng.sample(mixin_names, rng.randint(1, min(2, len(mixin_names))))
            mixin_edges += len(mixins)
        id_prefixes = (
            rng.sample(sorted(doc.prefixes), rng.randint(1, 3)) if rng.random() < 0.5 else []
        )
        doc.classes[name] = ClassDefinition(
            name=name, is_a=parent, mixins=mixins, id_prefixes=id_prefixes
        )

    for i in range(rng.randint(0, 6)):
        owner = rng.choice(class_names + mixin_names)
        slot_name = f"prop_{i}"
        doc.slots[slot_name] = SlotDefinition(name=slot_name, slot_kind="node_property")
        doc.classes[owner].slots.append(slot_name)

    doc.slots["related_to"] = SlotDefinition(name="related_to", slot_kind="predicate")
    predicate_names = ["related_to"]
    for i in range(rng.randint(0, max_predicates - 1)):
        name = f"pred_{i}"
        parent = rng.choice(predicate_names)
        symmetric = rng.random() < 0.25
        doc.slots[name] = SlotDefinition(
            name=name, slot_kind="predicate", is_a=parent, symmetric=symmetric
        )
        predicate_names.append(name)

    assert not [v for v in validate_schema(doc) if v.severity == "error"]
    return doc


def deep_chain_schema(class_depth: int, predicate_depth: int) -> SchemaDocument:
    """Straight class and predicate is_a chains, each declared child-first."""
    doc = SchemaDocument(name="deep", version="0")
    for i in range(class_depth, 0, -1):
        doc.classes[f"C{i}"] = ClassDefinition(name=f"C{i}", is_a=f"C{i - 1}")
    doc.classes["C0"] = ClassDefinition(name="C0")
    for i in range(predicate_depth, 0, -1):
        doc.slots[f"pred_{i}"] = SlotDefinition(
            name=f"pred_{i}", slot_kind="predicate", is_a=f"pred_{i - 1}" if i > 1 else "related_to"
        )
    doc.slots["related_to"] = SlotDefinition(name="related_to", slot_kind="predicate")
    return doc


def tangled_schema(rng: random.Random) -> SchemaDocument:
    """A random schema, often invalid: is_a cycles and unknown parents among classes,
    slots and associations, loops in mixin declarations, and associations with a
    mixin or a class at either end."""
    doc = SchemaDocument(name="tangled", version="0")

    def parent(names: list[str], i: int) -> str | None:
        roll = rng.random()
        if roll < 0.5 and i:
            return rng.choice(names[:i])
        if roll < 0.65:
            return rng.choice(names)  # may close a cycle
        return "Ghost" if roll < 0.75 else None

    classes = [f"C{i}" for i in range(rng.randint(1, 10))]
    for i, name in enumerate(classes):
        doc.classes[name] = ClassDefinition(
            name=name, is_a=parent(classes, i), is_mixin=rng.random() < 0.4
        )
    mixins = [name for name in classes if doc.classes[name].is_mixin]
    for cls in doc.classes.values():
        pool = mixins + ["Ghost"] if rng.random() < 0.8 else classes
        cls.mixins = rng.sample(pool, rng.randint(0, min(2, len(pool))))

    slots = ["related_to"] + [f"p{i}" for i in range(rng.randint(0, 6))]
    for i, name in enumerate(slots):
        kind = "node_property" if rng.random() < 0.1 else "predicate"
        is_a = parent(slots, i) if name != "related_to" or rng.random() < 0.1 else None
        doc.slots[name] = SlotDefinition(name=name, slot_kind=kind, is_a=is_a)

    associations = [f"A{i}Association" for i in range(rng.randint(0, 8))]
    for i, name in enumerate(associations):
        doc.associations[name] = AssociationDefinition(
            name=name,
            is_a=parent(associations, i),
            subject=rng.choice(classes),
            predicate=rng.choice(slots),
            object=rng.choice(classes),
        )
    return doc


def untangled_schema(rng: random.Random) -> SchemaDocument:
    """A :func:`tangled_schema` with its errors taken out, so that it has a closure index.

    Each ``is_a`` that names no class of its own kind, or closes a cycle,
    is dropped, and so is each mixin declaration that names no mixin. Every
    slot becomes a predicate under an earlier one, a third of them
    symmetric, and the associations go. Mixin loops, mixins of mixins and
    classes that carry several mixins stay.
    """
    doc = tangled_schema(rng)
    classes = doc.classes
    for cls in classes.values():
        parent = classes.get(cls.is_a)
        if parent is None or parent.is_mixin != cls.is_mixin:
            cls.is_a = None
        cls.mixins = [name for name in cls.mixins if name in classes and classes[name].is_mixin]
    for name, cls in classes.items():  # the is_a that closes a cycle, one per cycle
        seen, current = {name}, cls.is_a
        while current is not None and current not in seen:
            seen.add(current)
            current = classes[current].is_a
        if current == name:
            cls.is_a = None
    earlier: list[str] = []
    for name, slot in doc.slots.items():  # related_to first
        slot.slot_kind = "predicate"
        slot.is_a = (slot.is_a if slot.is_a in earlier else "related_to") if earlier else None
        slot.symmetric = rng.random() < 0.3
        earlier.append(name)
    doc.associations.clear()
    assert not [v for v in validate_schema(doc) if v.severity == "error"]
    return doc


def mixin_association_schema(
    classes: int, mixins: int, predicates: int, associations: int, seed: int = 0
) -> SchemaDocument:
    """A valid schema whose child associations take a mixin subject.

    One class tree under C0, each class declaring 0-3 mixins; a mixin tree
    whose members may declare earlier mixins; a predicate tree under
    related_to. Each child association ``is_a`` a root association whose
    subject and object are C0.
    """
    rng = random.Random(seed)
    doc = SchemaDocument(name="mixin-associations", version="0")
    mixin_names = [f"M{i}" for i in range(mixins)]
    for i, name in enumerate(mixin_names):
        doc.classes[name] = ClassDefinition(
            name=name,
            is_mixin=True,
            is_a=rng.choice(mixin_names[:i]) if i and rng.random() < 0.5 else None,
            mixins=rng.sample(mixin_names[:i], min(i, rng.randint(0, 1))),
        )
    class_names = [f"C{i}" for i in range(classes)]
    for i, name in enumerate(class_names):
        doc.classes[name] = ClassDefinition(
            name=name,
            is_a=rng.choice(class_names[:i]) if i else None,
            mixins=rng.sample(mixin_names, min(mixins, rng.randint(0, 3))),
        )
    doc.slots["related_to"] = SlotDefinition(name="related_to", slot_kind="predicate")
    predicate_names = ["related_to"]
    for i in range(predicates):
        name = f"pred_{i}"
        doc.slots[name] = SlotDefinition(name=name, slot_kind="predicate", is_a=rng.choice(predicate_names))
        predicate_names.append(name)
    roots = ["RootAssociation", "OtherRootAssociation"]
    for name in roots:
        doc.associations[name] = AssociationDefinition(
            name=name, subject="C0", predicate="related_to", object="C0"
        )
    for i in range(associations):
        name = f"Child{i}Association"
        doc.associations[name] = AssociationDefinition(
            name=name,
            is_a=rng.choice(roots),
            subject=rng.choice(mixin_names),
            predicate=rng.choice(predicate_names),
            object=rng.choice(class_names),
        )
    return doc


def random_graph(
    rng: random.Random,
    doc: SchemaDocument,
    max_nodes: int = 30,
    max_edges: int = 60,
    prefix_pool: tuple[str, ...] = ("NCBIGene", "MONDO", "CHEBI", "HP", "XX"),
) -> tuple[list[Node], list[Edge]]:
    """Random nodes over the schema's instantiable classes, random edges."""
    instantiable = [n for n, c in doc.classes.items() if not c.is_mixin]
    predicates = [n for n, s in doc.slots.items() if s.slot_kind == "predicate"]
    n_nodes = rng.randint(1, max_nodes)
    nodes = []
    for i in range(n_nodes):
        curie = f"{rng.choice(prefix_pool)}:{i}"
        categories = rng.sample(instantiable, rng.randint(1, min(2, len(instantiable))))
        nodes.append(Node(curie, categories, name=f"n{i}"))
    ids = [n.id for n in nodes]
    edges = []
    for i in range(rng.randint(0, max_edges)):
        properties = {}
        if rng.random() < 0.7:
            properties["publications"] = [f"PMID:{rng.randint(1, 99)}"]
        if rng.random() < 0.3:
            properties["has_evidence"] = [f"ECO:{rng.randint(1, 9):07d}"]
        edges.append(Edge(rng.choice(ids), rng.choice(predicates), rng.choice(ids), properties))
    return nodes, edges


QUERY_SHAPES = ("chain", "fork", "triangle", "self_loop", "symmetric_into", "unpinned")
ABSENT = "ABSENT:0"


def random_query(
    rng: random.Random,
    doc: SchemaDocument,
    nodes: list[Node],
    edges: Sequence[Edge] = (),
    shape: str | None = None,
) -> QueryGraph:
    """A connected pattern over ``?a``, ``?b``, ``?c``; a chain or a fork when ``shape`` is unset.

    Shapes: ``chain`` a->b->c, ``fork`` a->b and a->c, ``triangle``
    a->b->c->a, ``self_loop`` a->a and a->b, ``symmetric_into`` c->b and
    a->b over symmetric predicates with ``?b`` pinned to the subject of a
    symmetric edge in ``edges`` (so it matches from its object end), and
    ``unpinned``, a chain with no pinned node. In the other shapes each
    node is sometimes pinned, now and then to :data:`ABSENT`, which no
    generated graph holds.
    """
    instantiable = [n for n, c in doc.classes.items() if not c.is_mixin]
    predicates = [n for n, s in doc.slots.items() if s.slot_kind == "predicate"]
    symmetric = [n for n in predicates if doc.slots[n].symmetric]
    if shape is None:
        shape = "chain" if rng.random() < 0.5 else "fork"

    def predicate_set(pool: list[str]) -> frozenset[str]:
        return frozenset(rng.sample(pool, rng.randint(1, min(3, len(pool)))))

    def qnode(var: str) -> QNode:
        roll = rng.random()
        if shape != "unpinned":
            if roll < 0.25 and nodes:
                return QNode(var, id=rng.choice(nodes).id)
            if roll < 0.3:
                return QNode(var, id=ABSENT)
        if roll < 0.7:
            return QNode(
                var,
                categories=frozenset(
                    rng.sample(instantiable, rng.randint(1, min(2, len(instantiable))))
                ),
            )
        return QNode(var)

    qnodes = {var: qnode(var) for var in ("a", "b", "c")}
    arcs = {
        "chain": [("a", "b"), ("b", "c")],
        "unpinned": [("a", "b"), ("b", "c")],
        "fork": [("a", "b"), ("a", "c")],
        "triangle": [("a", "b"), ("b", "c"), ("c", "a")],
        "self_loop": [("a", "a"), ("a", "b")],
        "symmetric_into": [("c", "b"), ("a", "b")],
    }[shape]
    if shape == "symmetric_into" and symmetric:
        subjects = [e.subject for e in edges if e.predicate in symmetric]
        if subjects:
            qnodes["b"] = QNode("b", id=rng.choice(subjects))
        qedges = [QEdge(s, predicate_set(symmetric), o) for s, o in arcs]
    else:
        qedges = [QEdge(s, predicate_set(predicates), o) for s, o in arcs]
    if shape == "self_loop":
        del qnodes["c"]
    return QueryGraph(qnodes, qedges)


def random_cliques(
    rng: random.Random,
    categories: list[str],
    count: int,
    prefixes: tuple[str, ...] = ("NCBIGene", "HGNC", "MONDO", "DOID", "CHEBI", "ZZZ"),
) -> list[str]:
    """Equivalence-file lines with disjoint members across all cliques."""
    lines = []
    serial = 0
    for _ in range(count):
        n_members = rng.randint(1, 4)
        members = []
        for _ in range(n_members):
            members.append(f"{rng.choice(prefixes)}:{serial}")
            serial += 1
        cats = rng.sample(categories, rng.randint(1, 2))
        lines.append("|".join(cats) + "\t" + "|".join(members))
    return lines


def dirty_graph(
    rng: random.Random,
    doc: SchemaDocument,
    max_nodes: int = 12,
    max_edges: int = 30,
) -> tuple[list[Node], list[Edge]]:
    """Random nodes and edges that break every node and edge rule now and then.

    Nodes take one to three categories, mixins and an unknown category
    included; some node ids are left out so edges dangle; predicates include
    an unknown name and an edge property; provenance values are sometimes
    malformed, and property lists sometimes empty.
    """
    categories = sorted(doc.classes) + ["Sickness"]
    predicates = [n for n, s in doc.slots.items() if s.slot_kind == "predicate"]
    predicates += ["causes_xyzzy", "publications"]
    prefixes = ("NCBIGene", "UniProtKB", "MONDO", "HP", "CHEBI", "XX")
    ids = [f"{rng.choice(prefixes)}:{i}" for i in range(rng.randint(1, max_nodes))]
    nodes = [
        Node(curie, rng.sample(categories, rng.randint(1, 3)))
        for curie in ids
        if rng.random() < 0.85
    ]
    values = {
        "publications": ("PMID:1", "PMID:22", "see lab notebook", "PMID: 3"),
        "has_evidence": ("ECO:0000001", "ECO:bad code", "manually curated", "XX:bad code"),
        "knowledge_source": ("infores:a",),
    }
    edges = []
    for _ in range(rng.randint(0, max_edges)):
        properties = {
            key: rng.sample(pool, rng.randint(0, min(2, len(pool))))
            for key, pool in values.items()
            if rng.random() < 0.6
        }
        edges.append(Edge(rng.choice(ids), rng.choice(predicates), rng.choice(ids), properties))
    return nodes, edges


def extended_seed_schema(seed_doc: SchemaDocument) -> SchemaDocument:
    """The seed schema plus what it lacks: a domain overridden below an inherited one,
    a type-valued range above a class range, tied associations, and an association
    that wins only by its predicate's depth."""
    doc = copy.deepcopy(seed_doc)
    doc.slots["affects"].domain = "BiologicalEntity"
    doc.slots["regulates_level"] = SlotDefinition(
        name="regulates_level",
        slot_kind="predicate",
        is_a="entity_regulates_entity",
        domain="ChemicalEntity",
        range="quotient",
    )
    doc.slots["measured_in"] = SlotDefinition(
        name="measured_in", slot_kind="predicate", is_a="related_to", range="unit"
    )
    for name, required in (
        ("AlphaRegulationAssociation", ["has_evidence"]),
        ("BetaRegulationAssociation", ["knowledge_source"]),
    ):
        doc.associations[name] = AssociationDefinition(
            name=name,
            subject="ChemicalEntity",
            predicate="regulates_level",
            object="Gene",
            required_edge_properties=required,
        )
    doc.associations["RegulationAssociation"] = AssociationDefinition(
        name="RegulationAssociation",
        subject="NamedThing",
        predicate="entity_regulates_entity",
        object="GeneOrGeneProduct",
        required_edge_properties=["knowledge_source"],
    )
    doc.associations["BiologicalToGeneAssociation"] = AssociationDefinition(
        name="BiologicalToGeneAssociation",
        subject="BiologicalEntity",
        predicate="related_to",
        object="GeneOrGeneProduct",
        required_edge_properties=["has_evidence"],
    )
    return doc
