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
from itertools import compress, count, islice
from operator import eq, itemgetter, ne

from .errors import (
    DisconnectedQueryError,
    MalformedCurieError,
    ParseError,
    UnknownClassError,
    UnknownPredicateError,
)
from .hierarchy import ClosureIndex
from .identifiers import Curie, parse_curie
from .kg_store import Edge, KnowledgeGraph
from .schema_model import SchemaDocument

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


# The parser and ``match`` make their records as the generated frozen
# ``__init__`` does, one ``object.__setattr__`` per field in field order,
# without the cost of calling the class and that ``__init__``. The
# instances are the same: equal, with the same repr and hash, and frozen.
_new = object.__new__
_set = object.__setattr__


def _qnode(var: str, id: Curie | None, categories: frozenset[str] | None) -> QNode:
    record = _new(QNode)
    _set(record, "var", var)
    _set(record, "id", id)
    _set(record, "categories", categories)
    return record


def _qedge(subject_var: str, predicates: frozenset[str], object_var: str) -> QEdge:
    record = _new(QEdge)
    _set(record, "subject_var", subject_var)
    _set(record, "predicates", predicates)
    _set(record, "object_var", object_var)
    return record


# ---------------------------------------------------------------------------
# Parsing


def parse_query(source_text: str, doc: SchemaDocument) -> QueryGraph:
    """Parse the arrow-notation query format against a loaded schema.

    Every line is a chain ``node -[p1|p2]-> node (...)`` or a single-hop
    ``EDGE node -[..]-> node`` line. One leading byte order mark (U+FEFF)
    is dropped. Unknown predicate or category names fail at parse time; the
    pattern must be weakly connected.

    One pass reads each chain left to right and checks each arrow after
    the node that follows it, so the first fault in that order is the one
    raised. Pinned nodes are the variables ``_0``, ``_1``, ... in order of
    first use. One chain is connected as it is written, so only a text of
    two or more chains is checked for connectivity.
    """
    classes = doc.classes
    is_predicate = doc.is_predicate
    qnodes: dict[str, QNode] = {}
    qedges: list[QEdge] = []
    pinned_vars: dict[Curie, str] = {}  # pinned id -> variable name
    chains = 0
    for number, raw in enumerate(source_text.removeprefix("\ufeff").split("\n"), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        tokens = line.split()
        if tokens[0] == "EDGE":
            del tokens[0]
            if len(tokens) != 3:
                raise ParseError("EDGE lines take exactly: node -[..]-> node", number, 1)
        if not len(tokens) % 2:
            raise ParseError("chain must alternate node, arrow, node, ...", number, 1)
        chains += 1
        previous = ""
        for position in range(0, len(tokens), 2):
            token = tokens[position]
            qnode = None
            if token[0] != "?":
                try:
                    curie = parse_curie(token)
                except MalformedCurieError as exc:
                    raise ParseError(f"bad node {token!r}: {exc}", number, 1) from exc
                var = pinned_vars.get(curie)
                if var is None:
                    var = pinned_vars[curie] = f"_{len(pinned_vars)}"
                    qnode = _qnode(var, curie, None)
            else:
                var, sep, cats = token[1:].partition(":")
                if not _VAR_RE.match(var):
                    raise ParseError(f"bad variable name {token!r}", number, 1)
                categories: frozenset[str] | None = None
                if sep:
                    names = [c for c in cats.split("|") if c]
                    if not names:
                        raise ParseError(f"empty category list in {token!r}", number, 1)
                    for category in names:
                        if category not in classes:
                            raise UnknownClassError(category)
                    categories = frozenset(names)
                existing = qnodes.get(var)
                if existing is None:
                    qnode = _qnode(var, None, categories)
                elif categories is not None and existing.categories != categories:
                    raise ParseError(f"variable ?{var} redeclared with different categories", number, 1)
            if qnode is not None:
                if len(qnodes) >= MAX_QNODES:
                    raise ParseError(f"more than {MAX_QNODES} query nodes", number, 1)
                qnodes[var] = qnode
            if position:
                arrow = tokens[position - 1]
                matched = _ARROW_RE.match(arrow)
                if not matched:
                    raise ParseError(f"expected -[predicates]->, got {arrow!r}", number, 1)
                predicates = [p for p in matched.group(1).split("|") if p]
                if not predicates:
                    raise ParseError("empty predicate list", number, 1)
                for predicate in predicates:
                    if not is_predicate(predicate):
                        raise UnknownPredicateError(predicate)
                qedges.append(_qedge(previous, frozenset(predicates), var))
            previous = var
    if not qnodes:
        raise ParseError("empty query", 1, 1)
    if chains > 1:
        _check_connected(qnodes, qedges)
    return QueryGraph(qnodes, qedges)


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
    edge that expansion leaves as it was is reused, not copied. Each
    distinct category or predicate set is expanded once per index (see
    :meth:`ClosureIndex.category_expansion`), and equal expanded sets are
    one frozenset.
    """
    category_expansion, predicate_expansion = index.category_expansion, index.predicate_expansion
    qnodes = {}
    for var, qnode in qg.qnodes.items():
        if qnode.categories is not None:
            expanded = category_expansion(qnode.categories)
            if expanded != qnode.categories:
                qnode = _qnode(var, qnode.id, expanded)
        qnodes[var] = qnode
    qedges = []
    for qedge in qg.qedges:
        predicates = predicate_expansion(qedge.predicates)
        if predicates != qedge.predicates:
            qedge = _qedge(qedge.subject_var, predicates, qedge.object_var)
        qedges.append(qedge)
    return QueryGraph(qnodes, qedges)


# ---------------------------------------------------------------------------
# Matching


def match(
    qg: QueryGraph, kg: KnowledgeGraph, doc: SchemaDocument, index: ClosureIndex
) -> list[Binding]:
    """Enumerate all bindings of an (already expanded) query graph.

    ``doc`` supplies the symmetric predicates
    (:attr:`SchemaDocument.symmetric_predicates`). ``index`` answers the
    category tests: a node meets a query node's categories when its own
    list shares a name with :meth:`ClosureIndex.below` of them, which is
    worked out once per distinct category set, so no node's list is closed
    under ancestors.

    Two matches are one binding when their assignments are equal and so is
    each hop's evidence: its predicate, publications and evidence codes,
    the last two as sorted values. Results are sorted by the tuple of bound identifiers
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
    symmetric = doc.symmetric_predicates
    below = index.below
    nodes = kg.nodes
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
        wanted = None if categories is None else below(categories)
        partial = [
            ((node_id,), ())
            for node_id, node in nodes.items()
            if wanted is None or not wanted.isdisjoint(node.categories)
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
        wanted = None if categories is None else below(categories)
        reversible = symmetric.intersection(predicates)
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
                elif other in nodes and (wanted is None or not wanted.isdisjoint(nodes[other].categories)):
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


def _evidence(
    matched_predicate: str, publications: tuple[str, ...], has_evidence: tuple[str, ...]
) -> EdgeEvidence:
    record = _new(EdgeEvidence)
    _set(record, "matched_predicate", matched_predicate)
    _set(record, "publications", publications)
    _set(record, "has_evidence", has_evidence)
    return record


def _binding(assignments: dict[str, Curie], evidence: dict[int, EdgeEvidence]) -> Binding:
    record = _new(Binding)
    _set(record, "assignments", assignments)
    _set(record, "evidence", evidence)
    return record


def _finalize(
    variables: list[str],
    bound: list[str],
    order: list[int],
    found: list[tuple[tuple[Curie, ...], tuple[int, ...]]],
    edges: list[Edge],
) -> list[Binding]:
    """The search's matches as bindings, deduplicated on values and sorted.

    ``found`` holds each match's node ids in ``variables`` (declaration)
    order and its edge ordinals in search ``order``; it is sorted by the
    ids in place. One :class:`EdgeEvidence` is built per distinct edge.
    Matches with equal ids and equal evidence per hop (edges with equal
    values count as one) are one binding: the key that their equal JSON
    texts would give. Only when two matches' ids tie are the evidence
    values numbered, the matches deduplicated on that key and each run of
    equal ids ordered by JSON text; with distinct ids no two matches can
    share a key. A :class:`Binding` is made for each unique match only,
    its assignments in ``bound`` order and its evidence in search order,
    as the search filled them.
    """
    ids_of = itemgetter(0)
    found.sort(key=ids_of)
    tied = any(map(eq, map(ids_of, found), map(ids_of, islice(found, 1, None))))
    evidence: dict[int, EdgeEvidence] = {}
    for edge_ordinal in {edge_ordinal for _, ordinals in found for edge_ordinal in ordinals}:
        edge = edges[edge_ordinal]
        properties = edge.properties
        publications = properties.get("publications", ())
        codes = properties.get("has_evidence", ())
        evidence[edge_ordinal] = _evidence(  # a list of none or one value is already sorted
            edge.predicate,
            tuple(sorted(publications)) if len(publications) > 1 else tuple(publications),
            tuple(sorted(codes)) if len(codes) > 1 else tuple(codes),
        )
    if tied:
        values: dict[EdgeEvidence, int] = {}  # each distinct evidence value -> its number
        number = {edge_ordinal: values.setdefault(ev, len(values)) for edge_ordinal, ev in evidence.items()}
        unique = {}
        for result in found:  # the first of each key, so still sorted by the ids
            unique.setdefault((result[0], tuple(map(number.__getitem__, result[1]))), result)
        found = list(unique.values())
        del unique  # its keys are freed before the bindings are made
    in_bound_order = tuple if bound == variables else itemgetter(*map(variables.index, bound))
    bindings = [
        _binding(
            dict(zip(bound, in_bound_order(ids))),
            dict(zip(order, map(evidence.__getitem__, ordinals))),
        )
        for ids, ordinals in found
    ]
    if tied:
        # Bindings with equal ids sit side by side; each run of two or more
        # is ordered by JSON text. A run ends where the next ids differ.
        ranked_ids = list(map(ids_of, found))
        start = 0
        for end in compress(count(1), map(ne, ranked_ids, ranked_ids[1:] + [None])):
            if end - start > 1:
                bindings[start:end] = sorted(bindings[start:end], key=Binding.to_json)
            start = end
    return bindings
