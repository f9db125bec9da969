"""Graph-against-schema validation with a severity-graded, stable report.

Checks per node: category existence, mixin-only categorization, identifier
prefix conformance. Checks per edge: predicate existence, inherited
domain/range constraints, association matching with required edge
properties, and provenance identifier shape. Domain, range and association
depend only on the edge's type signature (predicate, closed subject
categories, closed object categories) and are decided once per signature.
Violations are data; the report is deterministic across input order.
Checks run on one thread.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .hierarchy import ClosureIndex, minimal_categories
from .identifiers import MalformedCurieError, parse_curie
from .kg_store import Edge, KnowledgeGraph, Node
from .schema_model import AssociationDefinition, SchemaDocument, serialize_schema

UNKNOWN_CATEGORY = "UNKNOWN_CATEGORY"
ABSTRACT_MIXIN_INSTANTIATED = "ABSTRACT_MIXIN_INSTANTIATED"
ID_PREFIX_NOT_ALLOWED = "ID_PREFIX_NOT_ALLOWED"
UNKNOWN_PREDICATE = "UNKNOWN_PREDICATE"
DOMAIN_VIOLATION = "DOMAIN_VIOLATION"
RANGE_VIOLATION = "RANGE_VIOLATION"
NO_MATCHING_ASSOCIATION = "NO_MATCHING_ASSOCIATION"
MISSING_REQUIRED_EDGE_PROPERTY = "MISSING_REQUIRED_EDGE_PROPERTY"
DANGLING_EDGE = "DANGLING_EDGE"
MALFORMED_PROVENANCE_CURIE = "MALFORMED_PROVENANCE_CURIE"

VIOLATION_CODES = (
    UNKNOWN_CATEGORY,
    ABSTRACT_MIXIN_INSTANTIATED,
    ID_PREFIX_NOT_ALLOWED,
    UNKNOWN_PREDICATE,
    DOMAIN_VIOLATION,
    RANGE_VIOLATION,
    NO_MATCHING_ASSOCIATION,
    MISSING_REQUIRED_EDGE_PROPERTY,
    DANGLING_EDGE,
    MALFORMED_PROVENANCE_CURIE,
)


@dataclass(frozen=True)
class Violation:
    """One rule breach; ``subject`` is a node id or ``edge:<ordinal>``."""

    code: str
    severity: str
    subject: str
    detail: str

    def as_dict(self) -> dict[str, str]:
        return {
            "code": self.code,
            "severity": self.severity,
            "subject": self.subject,
            "detail": self.detail,
        }


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    inputs_hash: str = ""

    @property
    def error_count(self) -> int:
        return sum(1 for v in self.violations if v.severity == "error")

    @property
    def warning_count(self) -> int:
        return sum(1 for v in self.violations if v.severity == "warning")

    def to_jsonl(self) -> str:
        header = {
            "counts": dict(sorted(self.counts.items())),
            "errors": self.error_count,
            "warnings": self.warning_count,
            "inputs_hash": self.inputs_hash,
        }
        lines = [json.dumps(header, sort_keys=True, ensure_ascii=False)]
        lines.extend(
            json.dumps(v.as_dict(), sort_keys=True, ensure_ascii=False) for v in self.violations
        )
        return "\n".join(lines) + "\n"


def validate_node(node: Node, doc: SchemaDocument, index: ClosureIndex) -> list[Violation]:
    """Category existence, mixin-only check, and id-prefix conformance."""
    out: list[Violation] = []
    subject = node.id.text
    known: list[str] = []
    for category in node.categories:
        if category in index.class_ancestors:
            known.append(category)
        else:
            out.append(
                Violation(
                    UNKNOWN_CATEGORY,
                    "error",
                    subject,
                    f"category {category!r} is not in the schema",
                )
            )
    if not known:
        return out
    if all(category in index.mixins for category in known):
        out.append(
            Violation(
                ABSTRACT_MIXIN_INSTANTIATED,
                "error",
                subject,
                f"only mixin categories: {sorted(known)}",
            )
        )
    most_specific = minimal_categories(index, set(known))[0]
    allowed: set[str] = set()
    for ancestor in index.class_ancestors[most_specific]:
        allowed.update(doc.classes[ancestor].id_prefixes)
    if allowed and node.id.prefix not in allowed:
        out.append(
            Violation(
                ID_PREFIX_NOT_ALLOWED,
                "warning",
                subject,
                f"prefix {node.id.prefix!r} is not among {sorted(allowed)} "
                f"inherited by {most_specific!r}",
            )
        )
    return out


def _triple(edge: Edge) -> str:
    return f"{edge.subject.text} -{edge.predicate}-> {edge.object.text}"


def _signature_verdict(
    predicate: str,
    subject_closed: frozenset[str],
    object_closed: frozenset[str],
    doc: SchemaDocument,
    index: ClosureIndex,
) -> tuple[list[tuple[str, str, str]], AssociationDefinition | None]:
    """What holds for every edge with this predicate and these closed end categories.

    Returns the ``(code, severity, detail suffix)`` of each domain, range and
    association violation, and the most specific matching association or
    None. Domain and range come from the nearest ancestor predicate that
    sets them; association ties break by summed depth, then by name.
    """
    ancestors = index.predicate_ancestors[predicate]
    domain = rng = None
    for name in ancestors:
        slot = doc.slots[name]
        if domain is None:
            domain = slot.domain
        # Type-valued ranges impose no constraint on edges.
        if rng is None and slot.range in doc.classes:
            rng = slot.range
    faults = []
    if domain is not None and domain not in subject_closed:
        faults.append((DOMAIN_VIOLATION, "error", f"subject is not a {domain!r}"))
    if rng is not None and rng not in object_closed:
        faults.append((RANGE_VIOLATION, "error", f"object is not a {rng!r}"))
    governing = [assoc for assoc in doc.associations.values() if assoc.predicate in ancestors]
    matched = [
        assoc
        for assoc in governing
        if assoc.subject in subject_closed and assoc.object in object_closed
    ]
    best = None
    if matched:
        best = min(
            matched,
            key=lambda assoc: (
                -index.depth(assoc.subject)
                - index.predicate_depth(assoc.predicate)
                - index.depth(assoc.object),
                assoc.name,
            ),
        )
    elif governing and not faults:
        # A domain/range failure already explains the non-match; only a
        # well-typed edge earns the separate warning.
        faults.append(
            (NO_MATCHING_ASSOCIATION, "warning", "no association accepts this subject/object pair")
        )
    return faults, best


def _edge_checker(kg: KnowledgeGraph, doc: SchemaDocument, index: ClosureIndex):
    """``check(edge, label)``: every edge-level check, each type signature decided once."""
    nodes = kg.nodes
    closed: dict[tuple[str, ...], frozenset[str]] = {}
    verdicts: dict[tuple, tuple] = {}

    def closed_categories(categories: list[str]) -> frozenset[str]:
        key = tuple(categories)
        found = closed.get(key)
        if found is None:
            gathered: set[str] = set()
            for category in categories:
                if category in index.class_ancestors:
                    gathered.update(index.class_ancestors[category])
                    gathered.update(index.mixin_membership[category])
            found = closed[key] = frozenset(gathered)
        return found

    def check(edge: Edge, label: str) -> list[Violation]:
        out: list[Violation] = []
        properties = edge.properties
        if edge.subject not in nodes or edge.object not in nodes:
            missing = [c.text for c in (edge.subject, edge.object) if c not in nodes]
            out.append(
                Violation(DANGLING_EDGE, "error", label, f"{_triple(edge)}: absent node(s) {missing}")
            )
            return out

        for value in properties.get("publications", ()):
            try:
                parse_curie(value)
            except MalformedCurieError:
                out.append(
                    Violation(
                        MALFORMED_PROVENANCE_CURIE,
                        "warning",
                        label,
                        f"publications value {value!r} is not a CURIE",
                    )
                )
        for value in properties.get("has_evidence", ()):
            prefix, sep, _ = value.partition(":")
            if not sep or prefix not in doc.prefixes:
                continue
            try:
                parse_curie(value)
            except MalformedCurieError:
                out.append(
                    Violation(
                        MALFORMED_PROVENANCE_CURIE,
                        "warning",
                        label,
                        f"has_evidence value {value!r} is not a CURIE",
                    )
                )

        if not doc.is_predicate(edge.predicate):
            out.append(
                Violation(
                    UNKNOWN_PREDICATE,
                    "error",
                    label,
                    f"{edge.predicate!r} is not a predicate in the schema",
                )
            )
            return out

        signature = (
            edge.predicate,
            closed_categories(nodes[edge.subject].categories),
            closed_categories(nodes[edge.object].categories),
        )
        verdict = verdicts.get(signature)
        if verdict is None:
            verdict = verdicts[signature] = _signature_verdict(*signature, doc, index)
        faults, best = verdict
        for code, severity, suffix in faults:
            out.append(Violation(code, severity, label, f"{_triple(edge)}: {suffix}"))
        if best is not None:
            for prop in best.required_edge_properties:
                if not properties.get(prop):
                    out.append(
                        Violation(
                            MISSING_REQUIRED_EDGE_PROPERTY,
                            "error",
                            label,
                            f"{_triple(edge)}: {best.name} requires {prop!r}",
                        )
                    )
        return out

    return check


def validate_edge(
    edge: Edge,
    kg: KnowledgeGraph,
    doc: SchemaDocument,
    index: ClosureIndex,
    ordinal: int | None = None,
) -> list[Violation]:
    """All edge-level checks for one edge.

    ``ordinal`` labels the violation subject; without it the core triple
    text is used.
    """
    label = f"edge:{ordinal}" if ordinal is not None else _triple(edge)
    return _edge_checker(kg, doc, index)(edge, label)


def _sort_key(violation: Violation) -> tuple:
    subject = violation.subject
    if subject.startswith("edge:"):
        return (violation.code, 1, int(subject[5:]), "", violation.detail)
    return (violation.code, 0, 0, subject, violation.detail)


def inputs_digest(kg: KnowledgeGraph, doc: SchemaDocument) -> str:
    """Content hash of schema plus graph, independent of declaration order."""
    digest = hashlib.sha256()
    digest.update(serialize_schema(doc).encode("utf-8"))
    node_lines = sorted(
        json.dumps(
            {
                "id": node.id.text,
                "category": sorted(node.categories),
                "name": node.name,
                "properties": {k: sorted(v) for k, v in sorted(node.properties.items())},
            },
            sort_keys=True,
            ensure_ascii=False,
        )
        for node in kg.nodes.values()
    )
    edge_lines = sorted(
        json.dumps(
            {
                "subject": edge.subject.text,
                "predicate": edge.predicate,
                "object": edge.object.text,
                "properties": {k: sorted(v) for k, v in sorted(edge.properties.items())},
            },
            sort_keys=True,
            ensure_ascii=False,
        )
        for edge in kg.edges
    )
    for line in node_lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    digest.update(b"\x00")
    for line in edge_lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def validate_graph(
    kg: KnowledgeGraph,
    doc: SchemaDocument,
    index: ClosureIndex,
    parallelism: int = 1,
) -> ValidationReport:
    """Validate every node and edge; the report is byte-stable.

    Violations are sorted by (code, subject, detail). ``parallelism`` is
    accepted for compatibility and ignored: the checks are pure Python,
    which threads cannot speed up.
    """
    check = _edge_checker(kg, doc, index)
    violations: list[Violation] = []
    for node_id in sorted(kg.nodes, key=lambda c: c.text):
        violations.extend(validate_node(kg.nodes[node_id], doc, index))

    for ordinal, edge in enumerate(kg.edges):
        violations.extend(check(edge, f"edge:{ordinal}"))
    violations.sort(key=_sort_key)
    counts: dict[str, int] = {}
    for violation in violations:
        counts[violation.code] = counts.get(violation.code, 0) + 1
    return ValidationReport(
        violations=violations,
        counts=counts,
        inputs_hash=inputs_digest(kg, doc),
    )
