"""Output checks, run outside every timed region.

Each check compares what the program produced with what the generator
knows about its inputs, or with an independent reference: validation
counts fixed by fault injection, a lossless convert read back, the clique
count normalization must rewrite and merge, and query bindings against the
brute-force matcher of the test suite.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from kgschema import (
    KnowledgeGraph,
    build_graph,
    expand_query,
    graph_equal,
    parse_query,
    read_edges,
    read_nodes,
)

from workloads import WARNING_CODES


def load_graph(nodes: Path, edges: Path) -> KnowledgeGraph:
    return build_graph(
        read_nodes(nodes.read_text(encoding="utf-8")), read_edges(edges.read_text(encoding="utf-8"))
    )


def check_report(path: Path, exit_code: int, expected: dict[str, int]) -> bool:
    """Exit code, per-code counts and line count of a ``validate`` report."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        return False
    header = json.loads(lines[0])
    errors = sum(n for code, n in expected.items() if code not in WARNING_CODES)
    warnings = sum(n for code, n in expected.items() if code in WARNING_CODES)
    return (
        exit_code == (1 if errors else 0)
        and header["counts"] == expected
        and header["errors"] == errors
        and header["warnings"] == warnings
        and len(lines) == 1 + errors + warnings
    )


def check_convert(original: KnowledgeGraph, nodes_out: Path, edges_out: Path) -> bool:
    """The converted files read back to the same graph."""
    return graph_equal(original, load_graph(nodes_out, edges_out))


def check_normalize(entry: dict, cliques: int, nodes_before: int) -> bool:
    """Every clique rewrites one identifier and merges one node."""
    return (
        entry["ids_rewritten"] == cliques
        and entry["nodes_merged"] == cliques
        and entry["nodes_after"] == nodes_before - cliques
    )


def load_oracles(root: Path):
    """The test suite's reference implementations, loaded by path."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("kgschema_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class QueryOracle:
    """Expected bindings from ``brute_force_match`` on a restricted graph.

    Brute force enumerates every assignment of nodes to variables, which is
    out of reach on the whole graph. Every query here pins a node, so the
    oracle first narrows each variable to a domain by arc consistency: a
    node stays in a variable's domain only if an edge matching some query
    edge joins it to a node in the domain of the variable at the other end.
    That never drops a node of a solution, so brute force on the subgraph
    induced by the domains enumerates exactly the bindings of the whole
    graph.
    """

    def __init__(self, kg: KnowledgeGraph, doc, index, oracles):
        self.kg, self.doc, self.index = kg, doc, index
        self.brute_force_match = oracles.brute_force_match
        self.symmetric = {
            name for name, slot in doc.slots.items()
            if slot.slot_kind == "predicate" and slot.symmetric
        }
        self.incident: dict = {}
        for edge in kg.edges:
            if edge.subject in kg.nodes and edge.object in kg.nodes:
                self.incident.setdefault(edge.subject, []).append(edge)
                if edge.object != edge.subject:
                    self.incident.setdefault(edge.object, []).append(edge)

    def _closed(self, node_id) -> set[str]:
        closed: set[str] = set()
        for category in self.kg.nodes[node_id].categories:
            current = category
            closed.add(current)
            while current in self.doc.classes and self.doc.classes[current].is_a is not None:
                current = self.doc.classes[current].is_a
                closed.add(current)
        return closed

    def _node_ok(self, qnode, node_id) -> bool:
        if qnode.id is not None:
            return node_id == qnode.id
        return qnode.categories is None or bool(self._closed(node_id) & qnode.categories)

    def _domains(self, qg) -> dict:
        domains = {
            var: ({q.id} & self.kg.nodes.keys() if q.id is not None else None)
            for var, q in qg.qnodes.items()
        }
        changed = True
        while changed:
            changed = False
            for qedge in qg.qedges:
                for near, far, forward in (
                    (qedge.subject_var, qedge.object_var, True),
                    (qedge.object_var, qedge.subject_var, False),
                ):
                    if domains[near] is None:
                        continue
                    reach = set()
                    for node_id in domains[near]:
                        for edge in self.incident.get(node_id, ()):
                            if edge.predicate not in qedge.predicates:
                                continue
                            pairs = [(edge.subject, edge.object)]
                            if edge.predicate in self.symmetric:
                                pairs.append((edge.object, edge.subject))
                            for subject, obj in pairs:
                                if forward and subject == node_id:
                                    reach.add(obj)
                                elif not forward and obj == node_id:
                                    reach.add(subject)
                    reach = {n for n in reach if self._node_ok(qg.qnodes[far], n)}
                    narrowed = reach if domains[far] is None else domains[far] & reach
                    if narrowed != domains[far]:
                        domains[far] = narrowed
                        changed = True
        if any(domain is None for domain in domains.values()):
            raise ValueError("query has no pinned node; brute force is out of reach")
        return domains

    def expected(self, text: str) -> list[str]:
        """Sorted binding JSON lines of query ``text``."""
        qg = expand_query(parse_query(text, self.doc), self.index)
        keep = set().union(*self._domains(qg).values())
        predicates = set().union(*(qedge.predicates for qedge in qg.qedges))
        sub = KnowledgeGraph(
            nodes={node_id: self.kg.nodes[node_id] for node_id in keep},
            edges=[
                edge for edge in self.kg.edges
                if edge.subject in keep and edge.object in keep and edge.predicate in predicates
            ],
        )
        return sorted(
            json.dumps(binding, sort_keys=True, ensure_ascii=False)
            for binding in self.brute_force_match(qg, sub, self.doc)
        )


def edge_signatures(kg: KnowledgeGraph, doc, index) -> tuple[int, int]:
    """Distinct (predicate, closed subject, closed object) signatures.

    Counts the edges the validator types: both endpoints present and a
    schema predicate. Returns (signatures, typed edges).
    """
    closed: dict = {}

    def close(node_id):
        found = closed.get(node_id)
        if found is None:
            gathered: set[str] = set()
            for category in kg.nodes[node_id].categories:
                if category in index.class_ancestors:
                    gathered.update(index.class_ancestors[category])
                    gathered.update(index.mixin_membership[category])
            found = closed[node_id] = frozenset(gathered)
        return found

    signatures = set()
    typed = 0
    for edge in kg.edges:
        if edge.subject in kg.nodes and edge.object in kg.nodes and doc.is_predicate(edge.predicate):
            typed += 1
            signatures.add((edge.predicate, close(edge.subject), close(edge.object)))
    return len(signatures), typed
