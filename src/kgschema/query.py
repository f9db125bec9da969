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
from dataclasses import dataclass, field
from itertools import compress, count
from operator import itemgetter, ne

from .errors import (
    DisconnectedQueryError,
    MalformedCurieError,
    ParseError,
    UnknownClassError,
    UnknownPredicateError,
)
from .hierarchy import ClosureIndex, expand_predicates
from .identifiers import Curie, parse_curie
from .kg_store import Edge, KnowledgeGraph
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
            "assignments": dict(self.assignments),
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
        self.pinned_vars: dict[Curie, str] = {}  # pinned id -> variable name

    def node(self, token: str, line: int) -> str:
        if token.startswith("?"):
            return self._variable_node(token, line)
        return self._pinned_node(token, line)

    def _pinned_node(self, token: str, line: int) -> str:
        try:
            curie = parse_curie(token)
        except MalformedCurieError as exc:
            raise ParseError(f"bad node {token!r}: {exc}", line, 1) from exc
        var = self.pinned_vars.get(curie)
        if var is None:
            var = f"_{len(self.pinned_vars)}"
            self.pinned_vars[curie] = var
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
            if not self.doc.is_predicate(predicate):
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
    component = {next(iter(qnodes))}
    size = 0
    # Until a pass over the edges joins no variable, or every variable is joined.
    while size < len(component) < len(qnodes):
        size = len(component)
        for qedge in qedges:
            if qedge.subject_var in component or qedge.object_var in component:
                component.update((qedge.subject_var, qedge.object_var))
    missing = sorted(set(qnodes) - component)
    if missing:
        raise DisconnectedQueryError(f"variables not connected to the pattern: {missing}")


# ---------------------------------------------------------------------------
# Expansion


def expand_query(qg: QueryGraph, index: ClosureIndex) -> QueryGraph:
    """Expand predicates to descendants and categories down the hierarchy.

    An instantiable category expands to its descendant classes; a mixin
    expands to every instantiable class that carries it. A query node or
    edge that expansion leaves as it was is reused, not copied.
    """
    qnodes = {}
    for var, qnode in qg.qnodes.items():
        if qnode.categories is not None:
            expanded: set[str] = set()
            for category in qnode.categories:
                if category not in index.class_ancestors:
                    raise UnknownClassError(category)
                if category in index.mixins:
                    expanded.update(index.mixin_carriers[category])
                else:
                    expanded.update(index.class_descendants[category])
            if expanded != qnode.categories:
                qnode = QNode(var, qnode.id, frozenset(expanded))
        qnodes[var] = qnode
    qedges = []
    for qedge in qg.qedges:
        predicates = expand_predicates(index, qedge.predicates)
        if predicates != qedge.predicates:
            qedge = QEdge(qedge.subject_var, frozenset(predicates), qedge.object_var)
        qedges.append(qedge)
    return QueryGraph(qnodes, qedges)


# ---------------------------------------------------------------------------
# Matching


def match(
    qg: QueryGraph, kg: KnowledgeGraph, doc: SchemaDocument, index: ClosureIndex
) -> list[Binding]:
    """Enumerate all bindings of an (already expanded) query graph.

    ``doc`` supplies symmetric-predicate declarations and ``index`` closes
    node categories under ancestors during category tests. Two matches are
    one binding when their assignments are equal and so is each hop's
    evidence: its predicate, publications and evidence codes, the last two
    as sorted values. Results are sorted by the tuple of bound identifiers
    in variable declaration order, bindings with equal tuples by their
    JSON text (:meth:`Binding.to_json`), and are identical regardless of
    exploration order.

    The search goes level by level. Its first list of partial matches
    holds the pinned nodes, none if one is absent from the graph, or, with
    no pinned node, each node that satisfies the subject of the first edge
    (with no edge, the only node). Each step follows one query edge out of
    a bound end and replaces each partial match by its extensions, in the
    order of the graph edges at that node in :meth:`KnowledgeGraph.adjacency`,
    so a pinned query touches only incident edges. A query graph that is
    not connected raises :class:`DisconnectedQueryError`. The first match
    on a graph builds that index in O(edges). The index covers every edge,
    dangling ones included, and is rebuilt when ``kg.edges`` is replaced or
    changes length; nodes may change freely. Editing an edge of a matched
    graph in place, with the edge count unchanged, is not supported.
    """
    slots = doc.slots
    nodes = kg.nodes
    profile = index.profile
    pinned = {var: qnode.id for var, qnode in qg.qnodes.items() if qnode.id is not None}
    order = _edge_order(qg, set(pinned))
    by_subject, by_object = kg.adjacency()
    edges = kg.edges
    # Each partial match: its node ids in ``bound`` order, the variables in
    # the order the search binds them, and its edge ordinals in ``order``.
    if pinned:
        bound, ids = list(pinned), tuple(pinned.values())
        partial = [(ids, ())] if all(node_id in nodes for node_id in ids) else []
    else:  # start from the first edge's subject, or the only node
        bound = [qg.qedges[order[0]].subject_var if order else next(iter(qg.qnodes))]
        categories = qg.qnodes[bound[0]].categories
        partial = [
            ((node_id,), ())
            for node_id, node in nodes.items()
            if categories is None or not categories.isdisjoint(profile(node.categories).closure)
        ]
    for qedge_ordinal in order:
        qedge = qg.qedges[qedge_ordinal]
        predicates = qedge.predicates
        if qedge.subject_var in bound:
            anchor_at, other_var = bound.index(qedge.subject_var), qedge.object_var
            forward, backward = by_subject, by_object
        elif qedge.object_var in bound:
            anchor_at, other_var = bound.index(qedge.object_var), qedge.subject_var
            forward, backward = by_object, by_subject
        else:  # neither end bound: the pattern is not connected
            break
        other_at = bound.index(other_var) if other_var in bound else None
        categories = qg.qnodes[other_var].categories
        reversible = {
            name
            for name in predicates
            if (slot := slots.get(name)) is not None and slot.slot_kind == PREDICATE and slot.symmetric
        }
        extended = []
        for ids, ordinals in partial:
            anchor = ids[anchor_at]
            stored = forward.get(anchor, ())
            stored_count = len(stored)
            # The stored-direction edges at the anchor, then, when the query
            # edge takes a symmetric predicate, the reversed ones of such a
            # predicate; a self-loop is in both and counts once.
            for hop, edge_ordinal in enumerate(
                (*stored, *backward.get(anchor, ())) if reversible else stored
            ):
                edge = edges[edge_ordinal]
                predicate = edge.predicate
                if predicate not in predicates or hop >= stored_count and (
                    predicate not in reversible or edge.subject == edge.object
                ):
                    continue
                other = edge.object if edge.subject == anchor else edge.subject
                if other_at is not None:
                    if other == ids[other_at]:
                        extended.append((ids, ordinals + (edge_ordinal,)))
                elif other in nodes and (
                    categories is None
                    or not categories.isdisjoint(profile(nodes[other].categories).closure)
                ):
                    extended.append((ids + (other,), ordinals + (edge_ordinal,)))
        partial = extended
        if other_at is None:
            bound.append(other_var)
    variables = list(qg.qnodes)
    if len(bound) < len(variables) or len(pinned) > 1:  # the latter may join separate parts
        _check_connected(qg.qnodes, qg.qedges)
    if bound != variables:  # in place: a second list would double the peak
        in_declaration_order = itemgetter(*map(bound.index, variables))
        for position, (ids, ordinals) in enumerate(partial):
            partial[position] = (in_declaration_order(ids), ordinals)
    return _finalize(variables, bound, order, partial, edges)


def _edge_order(qg: QueryGraph, bound: set[str]) -> list[int]:
    """Query edge positions in search order, given the initially bound variables.

    Each edge after the first has a bound end, since the pattern is
    connected. Edges with both ends bound go first: they only filter.
    Ties keep declaration order. A round takes every remaining edge with
    both ends bound or, with none, the first with the most bound ends,
    which binds a new variable; so there are at most two rounds per
    variable.
    """
    remaining = list(enumerate(qg.qedges))
    order: list[int] = []
    while remaining:
        ends = [(q.subject_var in bound) + (q.object_var in bound) for _, q in remaining]
        if 2 in ends:
            order += [i for (i, _), n in zip(remaining, ends) if n == 2]
            remaining = [pair for pair, n in zip(remaining, ends) if n < 2]
        else:
            i, qedge = remaining.pop(ends.index(max(ends)))
            order.append(i)
            bound.update((qedge.subject_var, qedge.object_var))
    return order


def _finalize(
    variables: list[str],
    bound: list[str],
    order: list[int],
    found: list[tuple[tuple[Curie, ...], tuple[int, ...]]],
    edges: list[Edge],
) -> list[Binding]:
    """The search's matches as bindings, deduplicated on values and sorted.

    ``found`` holds each match's node ids in ``variables`` (declaration)
    order and its edge ordinals in search ``order``. One
    :class:`EdgeEvidence` is built per distinct edge. Matches with equal ids
    and equal evidence per hop (edges with equal values count as one) are
    one binding: the key that their equal JSON texts would give. Bindings
    sort by the ids; only those whose ids tie are serialized, to be ordered
    by their JSON text. A :class:`Binding` is made for each unique match
    only, its assignments in ``bound`` order and its evidence in search
    order, as the search filled them.
    """
    evidence: dict[int, EdgeEvidence] = {}
    number: dict[int, int] = {}  # edge ordinal -> number of its evidence value
    values: dict[tuple[str, tuple[str, ...], tuple[str, ...]], int] = {}
    for edge_ordinal in {edge_ordinal for _, ordinals in found for edge_ordinal in ordinals}:
        edge = edges[edge_ordinal]
        properties = edge.properties
        publications = properties.get("publications", ())
        codes = properties.get("has_evidence", ())
        hop = (  # a list of none or one value is already sorted
            edge.predicate,
            tuple(sorted(publications)) if len(publications) > 1 else tuple(publications),
            tuple(sorted(codes)) if len(codes) > 1 else tuple(codes),
        )
        evidence[edge_ordinal] = EdgeEvidence(*hop)
        number[edge_ordinal] = values.setdefault(hop, len(values))
    unique = {}
    for result in found:
        unique.setdefault((result[0], tuple(map(number.__getitem__, result[1]))), result)
    ids_of = itemgetter(0)
    ranked = sorted(unique.values(), key=ids_of)
    del unique  # its keys are freed before the bindings are made
    in_bound_order = tuple if bound == variables else itemgetter(*map(variables.index, bound))
    bindings = [
        Binding(
            dict(zip(bound, in_bound_order(ids))),
            dict(zip(order, map(evidence.__getitem__, ordinals))),
        )
        for ids, ordinals in ranked
    ]
    # Bindings with equal ids sit side by side; each run of two or more is
    # ordered by JSON text. A run ends where the next ids differ.
    ranked_ids = list(map(ids_of, ranked))
    start = 0
    for end in compress(count(1), map(ne, ranked_ids, ranked_ids[1:] + [None])):
        if end - start > 1:
            bindings[start:end] = sorted(bindings[start:end], key=Binding.to_json)
        start = end
    return bindings
