"""Hierarchy-expanded pattern matching over a knowledge graph.

A query is a small pattern graph written as arrow chains, e.g.::

    NCBIGene:23221 -[entity_regulates_entity|genetically_interacts_with]-> ?g:Gene|Protein
    EDGE ?g -[related_to]-> ?c:SmallMolecule

Predicates expand to all descendants and categories to all descendant
classes (a mixin expands to the classes that carry it) before matching.
Matching enumerates homomorphisms: distinct variables may bind one node.
An edge matches in the stored direction, or reversed when its own predicate
is declared symmetric.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace

from .errors import (
    DisconnectedQueryError,
    MalformedCurieError,
    ParseError,
    UnknownClassError,
    UnknownPredicateError,
)
from .hierarchy import ClosureIndex, expand_predicates
from .identifiers import Curie, parse_curie
from .kg_store import KnowledgeGraph
from .schema_model import PREDICATE, SchemaDocument

MAX_QNODES = 8

_ARROW_RE = re.compile(r"^-\[([^\[\]]+)\]->$")
_VAR_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class QNode:
    var: str
    id: Curie | None = None
    categories: frozenset[str] | None = None


@dataclass(frozen=True)
class QEdge:
    subject_var: str
    predicates: frozenset[str]
    object_var: str


@dataclass
class QueryGraph:
    qnodes: dict[str, QNode] = field(default_factory=dict)
    qedges: list[QEdge] = field(default_factory=list)


@dataclass(frozen=True)
class EdgeEvidence:
    """What supported one matched hop: the edge's predicate and provenance."""

    matched_predicate: str
    publications: tuple[str, ...]
    has_evidence: tuple[str, ...]


@dataclass(frozen=True)
class Binding:
    """One solution: variable assignments plus per-hop evidence."""

    assignments: dict[str, Curie]
    evidence: dict[int, EdgeEvidence]

    def as_dict(self) -> dict:
        return {
            "assignments": {var: curie.text for var, curie in self.assignments.items()},
            "evidence": {
                str(ordinal): {
                    "matched_predicate": ev.matched_predicate,
                    "publications": list(ev.publications),
                    "has_evidence": list(ev.has_evidence),
                }
                for ordinal, ev in self.evidence.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, ensure_ascii=False)


# ---------------------------------------------------------------------------
# Parsing


class _QueryBuilder:
    def __init__(self, doc: SchemaDocument):
        self.doc = doc
        self.qnodes: dict[str, QNode] = {}
        self.qedges: list[QEdge] = []
        self.pinned_vars: dict[str, str] = {}  # curie text -> variable name

    def node(self, token: str, line: int) -> str:
        if token.startswith("?"):
            return self._variable_node(token, line)
        return self._pinned_node(token, line)

    def _pinned_node(self, token: str, line: int) -> str:
        try:
            curie = parse_curie(token)
        except MalformedCurieError as exc:
            raise ParseError(f"bad node {token!r}: {exc}", line, 1) from exc
        var = self.pinned_vars.get(curie.text)
        if var is None:
            var = f"_{len(self.pinned_vars)}"
            self.pinned_vars[curie.text] = var
            self._add(QNode(var, id=curie), line)
        return var

    def _variable_node(self, token: str, line: int) -> str:
        name, sep, cats = token[1:].partition(":")
        if not _VAR_RE.match(name):
            raise ParseError(f"bad variable name {token!r}", line, 1)
        categories: frozenset[str] | None = None
        if sep:
            names = [c for c in cats.split("|") if c]
            if not names:
                raise ParseError(f"empty category list in {token!r}", line, 1)
            for category in names:
                if category not in self.doc.classes:
                    raise UnknownClassError(category)
            categories = frozenset(names)
        existing = self.qnodes.get(name)
        if existing is None:
            self._add(QNode(name, categories=categories), line)
        elif categories is not None and existing.categories != categories:
            raise ParseError(
                f"variable ?{name} redeclared with different categories", line, 1
            )
        return name

    def _add(self, qnode: QNode, line: int) -> None:
        if len(self.qnodes) >= MAX_QNODES:
            raise ParseError(f"more than {MAX_QNODES} query nodes", line, 1)
        self.qnodes[qnode.var] = qnode

    def edge(self, subject_var: str, arrow: str, object_var: str, line: int) -> None:
        matched = _ARROW_RE.match(arrow)
        if not matched:
            raise ParseError(f"expected -[predicates]->, got {arrow!r}", line, 1)
        predicates = [p for p in matched.group(1).split("|") if p]
        if not predicates:
            raise ParseError("empty predicate list", line, 1)
        for predicate in predicates:
            slot = self.doc.slots.get(predicate)
            if slot is None or slot.slot_kind != PREDICATE:
                raise UnknownPredicateError(predicate)
        self.qedges.append(QEdge(subject_var, frozenset(predicates), object_var))


def parse_query(source_text: str, doc: SchemaDocument) -> QueryGraph:
    """Parse the arrow-notation query format against a loaded schema.

    Every line is a chain ``node -[p1|p2]-> node (...)`` or a single-hop
    ``EDGE node -[..]-> node`` line. Unknown predicate or category names
    fail at parse time; the pattern must be weakly connected.
    """
    builder = _QueryBuilder(doc)
    for number, raw in enumerate(source_text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "EDGE":
            tokens = tokens[1:]
            if len(tokens) != 3:
                raise ParseError("EDGE lines take exactly: node -[..]-> node", number, 1)
        if len(tokens) % 2 == 0 or len(tokens) < 1:
            raise ParseError("chain must alternate node, arrow, node, ...", number, 1)
        previous = builder.node(tokens[0], number)
        for position in range(1, len(tokens), 2):
            nxt = builder.node(tokens[position + 1], number)
            builder.edge(previous, tokens[position], nxt, number)
            previous = nxt
    if not builder.qnodes:
        raise ParseError("empty query", 1, 1)
    _check_connected(builder.qnodes, builder.qedges)
    return QueryGraph(builder.qnodes, builder.qedges)


def _check_connected(qnodes: dict[str, QNode], qedges: list[QEdge]) -> None:
    variables = list(qnodes)
    component = {variables[0]}
    grew = True
    while grew:
        grew = False
        for qedge in qedges:
            joined = {qedge.subject_var, qedge.object_var}
            if joined & component and not joined <= component:
                component.update(joined)
                grew = True
    if component != set(variables):
        missing = sorted(set(variables) - component)
        raise DisconnectedQueryError(f"variables not connected to the pattern: {missing}")


# ---------------------------------------------------------------------------
# Expansion


def expand_query(qg: QueryGraph, index: ClosureIndex) -> QueryGraph:
    """Expand predicates to descendants and categories down the hierarchy.

    An instantiable category expands to its descendant classes; a mixin
    expands to every instantiable class that carries it.
    """
    qnodes = {}
    for var, qnode in qg.qnodes.items():
        categories = qnode.categories
        if categories is not None:
            expanded: set[str] = set()
            for category in categories:
                if category not in index.class_ancestors:
                    raise UnknownClassError(category)
                if category in index.mixins:
                    expanded.update(index.mixin_carriers[category])
                else:
                    expanded.update(index.class_descendants[category])
            categories = frozenset(expanded)
        qnodes[var] = replace(qnode, categories=categories)
    qedges = [
        replace(qedge, predicates=frozenset(expand_predicates(index, set(qedge.predicates))))
        for qedge in qg.qedges
    ]
    return QueryGraph(qnodes, qedges)


# ---------------------------------------------------------------------------
# Matching


def _node_match_sets(kg: KnowledgeGraph, index: ClosureIndex | None):
    """Ancestor-closed category set per graph node, computed lazily."""
    closed: dict[Curie, frozenset[str]] = {}

    def get(node_id: Curie) -> frozenset[str]:
        cached = closed.get(node_id)
        if cached is None:
            gathered: set[str] = set()
            for category in kg.nodes[node_id].categories:
                if index is not None and category in index.class_ancestors:
                    gathered.update(index.class_ancestors[category])
                else:
                    gathered.add(category)
            cached = frozenset(gathered)
            closed[node_id] = cached
        return cached

    return get


def _satisfies(qnode: QNode, node_id: Curie, kg: KnowledgeGraph, closed) -> bool:
    if qnode.id is not None:
        return node_id == qnode.id
    if qnode.categories is None:
        return node_id in kg.nodes
    return node_id in kg.nodes and bool(closed(node_id) & qnode.categories)


def match(
    qg: QueryGraph,
    kg: KnowledgeGraph,
    doc: SchemaDocument | None = None,
    index: ClosureIndex | None = None,
) -> list[Binding]:
    """Enumerate all bindings of an (already expanded) query graph.

    ``doc`` supplies symmetric-predicate declarations; without it every
    edge matches only in its stored direction. ``index`` closes node
    categories under ancestors during category tests. Results are sorted by
    the tuple of bound identifiers in variable declaration order and are
    identical regardless of exploration order.

    The search binds pinned nodes first; a pinned identifier absent from
    the graph matches nothing. It then extends the binding one query edge
    at a time, always along an edge with a bound end, and reads only the
    graph edges incident to that node from :meth:`KnowledgeGraph.adjacency`,
    so a pinned query touches only incident edges. The first match on a
    graph builds that index in O(edges). A query with no pinned node seeds
    its first edge with every node that satisfies the edge's subject, once.
    The index covers every edge, dangling ones included, and is rebuilt when
    ``kg.edges`` is replaced or changes length; nodes may change freely.
    Editing an edge of a matched graph in place, with the edge count
    unchanged, is not supported.
    """
    symmetric: set[str] = set()
    if doc is not None:
        symmetric = {
            name
            for name, slot in doc.slots.items()
            if slot.slot_kind == PREDICATE and slot.symmetric
        }
    closed = _node_match_sets(kg, index)

    if not qg.qedges:
        # Zero-edge query: connectivity means a single qnode.
        qnode = next(iter(qg.qnodes.values()))
        bindings = [
            Binding({qnode.var: node_id}, {})
            for node_id in kg.nodes
            if _satisfies(qnode, node_id, kg, closed)
        ]
        return _finalize(qg, bindings)

    assignment: dict[str, Curie] = {}
    for var, qnode in qg.qnodes.items():
        if qnode.id is not None:
            if qnode.id not in kg.nodes:
                return []
            assignment[var] = qnode.id
    order = _edge_order(qg, set(assignment))
    by_subject, by_object = kg.adjacency()
    edges = kg.edges

    def candidates(qedge: QEdge) -> list[tuple[int, Curie, Curie]]:
        """(edge ordinal, subject binding, object binding) under ``assignment``."""
        subject_q = qg.qnodes[qedge.subject_var]
        object_q = qg.qnodes[qedge.object_var]
        predicates = qedge.predicates
        bound_subject = assignment.get(qedge.subject_var)
        bound_object = assignment.get(qedge.object_var)
        found: list[tuple[int, Curie, Curie]] = []
        if bound_subject is None and bound_object is None:
            # The first edge of a query without pinned nodes: seed its
            # subject with every node that satisfies it.
            for node_id in kg.nodes:
                if _satisfies(subject_q, node_id, kg, closed):
                    assignment[qedge.subject_var] = node_id
                    found.extend(candidates(qedge))
                    del assignment[qedge.subject_var]
            return found

        from_subject = bound_subject is not None
        if from_subject:
            anchor, other_q, stored, reverse = bound_subject, object_q, by_subject, by_object
        else:
            anchor, other_q, stored, reverse = bound_object, subject_q, by_object, by_subject
        bound_other = assignment.get(other_q.var)

        def take(ordinal: int, other: Curie) -> None:
            if bound_other is not None:
                if other != bound_other:
                    return
            elif not _satisfies(other_q, other, kg, closed):
                return
            if from_subject:
                found.append((ordinal, anchor, other))
            else:
                found.append((ordinal, other, anchor))

        for ordinal in stored.get(anchor, ()):
            edge = edges[ordinal]
            if edge.predicate in predicates:
                take(ordinal, edge.object if from_subject else edge.subject)
        for ordinal in reverse.get(anchor, ()):
            edge = edges[ordinal]
            if (
                edge.predicate in predicates
                and edge.predicate in symmetric
                and edge.subject != edge.object
            ):
                take(ordinal, edge.subject if from_subject else edge.object)
        return found

    bindings: list[Binding] = []
    chosen: dict[int, int] = {}

    def extend(position: int) -> None:
        if position == len(order):
            evidence = {}
            for qedge_ordinal, edge_ordinal in chosen.items():
                edge = edges[edge_ordinal]
                evidence[qedge_ordinal] = EdgeEvidence(
                    matched_predicate=edge.predicate,
                    publications=tuple(sorted(edge.properties.get("publications", []))),
                    has_evidence=tuple(sorted(edge.properties.get("has_evidence", []))),
                )
            bindings.append(Binding(dict(assignment), evidence))
            return
        qedge_ordinal = order[position]
        qedge = qg.qedges[qedge_ordinal]
        for edge_ordinal, subject_id, object_id in candidates(qedge):
            added = []
            for var, node_id in ((qedge.subject_var, subject_id), (qedge.object_var, object_id)):
                if var not in assignment:
                    assignment[var] = node_id
                    added.append(var)
            chosen[qedge_ordinal] = edge_ordinal
            extend(position + 1)
            del chosen[qedge_ordinal]
            for var in added:
                del assignment[var]

    extend(0)
    return _finalize(qg, bindings)


def _edge_order(qg: QueryGraph, bound: set[str]) -> list[int]:
    """Query edge positions in search order, given the initially bound variables.

    Each edge after the first has a bound end, since the pattern is
    connected. Edges with both ends bound go first: they only filter.
    Ties keep declaration order.
    """
    remaining = list(range(len(qg.qedges)))
    order: list[int] = []
    while remaining:
        best = max(
            remaining,
            key=lambda i: (qg.qedges[i].subject_var in bound) + (qg.qedges[i].object_var in bound),
        )
        remaining.remove(best)
        order.append(best)
        bound.update((qg.qedges[best].subject_var, qg.qedges[best].object_var))
    return order


def _finalize(qg: QueryGraph, bindings: list[Binding]) -> list[Binding]:
    """Bindings deduplicated by their JSON text, sorted by assignment, that text breaking ties."""
    variables = list(qg.qnodes)
    unique: dict[str, Binding] = {}
    for binding in bindings:
        unique.setdefault(binding.to_json(), binding)

    def key(item: tuple[str, Binding]):
        text, binding = item
        return tuple(binding.assignments[var].text for var in variables), text

    return [binding for _, binding in sorted(unique.items(), key=key)]
