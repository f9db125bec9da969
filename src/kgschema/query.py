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
    ``EDGE node -[..]-> node`` line. One leading byte order mark (U+FEFF)
    is dropped. Unknown predicate or category names fail at parse time; the
    pattern must be weakly connected.
    """
    builder = _QueryBuilder(doc)
    for number, raw in enumerate(source_text.removeprefix("\ufeff").split("\n"), start=1):
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


def _node_match_sets(kg: KnowledgeGraph, index: ClosureIndex):
    """Ancestor-closed category set per graph node, computed lazily.

    An unknown category is kept as it is.
    """
    closed: dict[Curie, frozenset[str]] = {}

    def get(node_id: Curie) -> frozenset[str]:
        cached = closed.get(node_id)
        if cached is None:
            gathered: set[str] = set()
            for category in kg.nodes[node_id].categories:
                if category in index.class_ancestors:
                    gathered.update(index.class_ancestors[category])
                else:
                    gathered.add(category)
            cached = frozenset(gathered)
            closed[node_id] = cached
        return cached

    return get


def match(
    qg: QueryGraph, kg: KnowledgeGraph, doc: SchemaDocument, index: ClosureIndex
) -> list[Binding]:
    """Enumerate all bindings of an (already expanded) query graph.

    ``doc`` supplies symmetric-predicate declarations and ``index`` closes
    node categories under ancestors during category tests. Results are
    sorted by the tuple of bound identifiers in variable declaration order
    and are identical regardless of exploration order.

    The search binds every pinned node first; a pinned identifier absent
    from the graph matches nothing. A query with no pinned node starts once
    from each node that satisfies the subject of its first edge, or, with
    no edge, its only node. Each step then follows a query edge out of a
    bound end, reading only the graph edges at that node from
    :meth:`KnowledgeGraph.adjacency`, so a pinned query touches only
    incident edges. The first match on a graph builds that index in
    O(edges). The index covers every edge, dangling ones included, and is
    rebuilt when ``kg.edges`` is replaced or changes length; nodes may
    change freely. Editing an edge of a matched graph in place, with the
    edge count unchanged, is not supported.
    """
    symmetric = {
        name for name, slot in doc.slots.items() if slot.slot_kind == PREDICATE and slot.symmetric
    }
    nodes = kg.nodes
    closed = _node_match_sets(kg, index)

    def satisfies(qnode: QNode, node_id: Curie) -> bool:
        return node_id in nodes and (
            qnode.categories is None or not closed(node_id).isdisjoint(qnode.categories)
        )

    assignment = {var: qnode.id for var, qnode in qg.qnodes.items() if qnode.id is not None}
    if any(node_id not in nodes for node_id in assignment.values()):
        return []
    order = _edge_order(qg, set(assignment))
    by_subject, by_object = kg.adjacency()
    edges = kg.edges
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
        predicates = qedge.predicates
        if qedge.subject_var in assignment:
            anchor, other_var = assignment[qedge.subject_var], qedge.object_var
            stored, mirrored = by_subject.get(anchor, ()), by_object.get(anchor, ())
        else:
            anchor, other_var = assignment[qedge.object_var], qedge.subject_var
            stored, mirrored = by_object.get(anchor, ()), by_subject.get(anchor, ())
        bound_other = assignment.get(other_var)
        other_q = qg.qnodes[other_var]
        # The stored-direction edges at the anchor, then the reversed ones
        # of a symmetric predicate; a self-loop is in both and counts once.
        for hop, edge_ordinal in enumerate((*stored, *mirrored)):
            edge = edges[edge_ordinal]
            predicate = edge.predicate
            if predicate not in predicates or hop >= len(stored) and (
                predicate not in symmetric or edge.subject == edge.object
            ):
                continue
            other = edge.object if edge.subject == anchor else edge.subject
            if bound_other is None:
                if not satisfies(other_q, other):
                    continue
                assignment[other_var] = other
            elif other != bound_other:
                continue
            chosen[qedge_ordinal] = edge_ordinal
            extend(position + 1)
            del chosen[qedge_ordinal]
            if bound_other is None:
                del assignment[other_var]

    if assignment:
        extend(0)
    else:  # no pinned node: start from the first edge's subject, or the only node
        start = qg.qedges[order[0]].subject_var if order else next(iter(qg.qnodes))
        for node_id in nodes:
            if satisfies(qg.qnodes[start], node_id):
                assignment[start] = node_id
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
