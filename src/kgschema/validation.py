"""Graph-against-schema validation with a severity-graded, stable report.

Checks per node: category existence, mixin-only categorization, identifier
prefix conformance. Checks per edge: predicate existence, inherited
domain/range constraints, association matching with required edge
properties, and provenance identifier shape. Violations are data; the
report is deterministic across input order. Checks run on one thread.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .hierarchy import ClosureIndex, minimal_categories
from .identifiers import Curie, MalformedCurieError, parse_curie
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


class _Caches:
    """Per-run lookup tables; all entries are pure functions of the inputs."""

    def __init__(self, kg: KnowledgeGraph, doc: SchemaDocument, index: ClosureIndex):
        self.kg = kg
        self.doc = doc
        self.index = index
        self.closed: dict[Curie, frozenset[str]] = {}
        self.constraints: dict[str, tuple[str | None, str | None]] = {}
        self.candidates: dict[str, list[AssociationDefinition]] = {}
        self.specificity: dict[str, int] = {}
        self.matches: dict[tuple, AssociationDefinition | None] = {}
        self.curie_ok: dict[str, bool] = {}

    def closed_categories(self, node: Node) -> frozenset[str]:
        closed = self.closed.get(node.id)
        if closed is None:
            gathered: set[str] = set()
            for category in node.categories:
                ancestors = self.index.class_ancestors.get(category)
                if ancestors is None:
                    continue
                gathered.update(ancestors)
                gathered.update(self.index.mixin_membership[category])
            closed = frozenset(gathered)
            self.closed[node.id] = closed
        return closed

    def inherited_constraints(self, predicate: str) -> tuple[str | None, str | None]:
        cached = self.constraints.get(predicate)
        if cached is None:
            domain = None
            rng = None
            for ancestor in self.index.predicate_ancestors[predicate]:
                slot = self.doc.slots[ancestor]
                if domain is None and slot.domain is not None:
                    domain = slot.domain
                if rng is None and slot.range is not None:
                    # Type-valued ranges impose no constraint on edges.
                    if slot.range in self.doc.classes:
                        rng = slot.range
                if domain is not None and rng is not None:
                    break
            cached = (domain, rng)
            self.constraints[predicate] = cached
        return cached

    def association_candidates(self, predicate: str) -> list[AssociationDefinition]:
        cached = self.candidates.get(predicate)
        if cached is None:
            ancestors = set(self.index.predicate_ancestors[predicate])
            cached = [
                assoc
                for assoc in self.doc.associations.values()
                if assoc.predicate in ancestors
            ]
            self.candidates[predicate] = cached
        return cached

    def association_specificity(self, assoc: AssociationDefinition) -> int:
        cached = self.specificity.get(assoc.name)
        if cached is None:
            cached = (
                self.index.depth(assoc.subject)
                + self.index.predicate_depth(assoc.predicate)
                + self.index.depth(assoc.object)
            )
            self.specificity[assoc.name] = cached
        return cached

    def match_association(
        self, predicate: str, subject_closed: frozenset[str], object_closed: frozenset[str]
    ) -> AssociationDefinition | None:
        """Most specific matching association, or None (also when no candidate
        association governs the predicate family at all)."""
        key = (predicate, subject_closed, object_closed)
        if key in self.matches:
            return self.matches[key]
        matched = [
            assoc
            for assoc in self.association_candidates(predicate)
            if assoc.subject in subject_closed and assoc.object in object_closed
        ]
        best = None
        if matched:
            best = min(matched, key=lambda a: (-self.association_specificity(a), a.name))
        self.matches[key] = best
        return best

    def curie_shaped(self, value: str) -> bool:
        ok = self.curie_ok.get(value)
        if ok is None:
            try:
                parse_curie(value)
                ok = True
            except MalformedCurieError:
                ok = False
            self.curie_ok[value] = ok
        return ok


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


def _validate_edge(edge: Edge, ordinal_label: str, caches: _Caches) -> list[Violation]:
    out: list[Violation] = []
    kg, doc = caches.kg, caches.doc
    properties = edge.properties

    if edge.subject not in kg.nodes or edge.object not in kg.nodes:
        missing = [c.text for c in (edge.subject, edge.object) if c not in kg.nodes]
        out.append(
            Violation(
                DANGLING_EDGE,
                "error",
                ordinal_label,
                f"{_triple(edge)}: absent node(s) {missing}",
            )
        )
        return out

    if "publications" in properties:
        for value in properties["publications"]:
            if not caches.curie_shaped(value):
                out.append(
                    Violation(
                        MALFORMED_PROVENANCE_CURIE,
                        "warning",
                        ordinal_label,
                        f"publications value {value!r} is not a CURIE",
                    )
                )
    if "has_evidence" in properties:
        for value in properties["has_evidence"]:
            prefix, sep, _ = value.partition(":")
            if sep and prefix in doc.prefixes and not caches.curie_shaped(value):
                out.append(
                    Violation(
                        MALFORMED_PROVENANCE_CURIE,
                        "warning",
                        ordinal_label,
                        f"has_evidence value {value!r} is not a CURIE",
                    )
                )

    if not doc.is_predicate(edge.predicate):
        out.append(
            Violation(
                UNKNOWN_PREDICATE,
                "error",
                ordinal_label,
                f"{edge.predicate!r} is not a predicate in the schema",
            )
        )
        return out

    subject_closed = caches.closed_categories(kg.nodes[edge.subject])
    object_closed = caches.closed_categories(kg.nodes[edge.object])
    domain, rng = caches.inherited_constraints(edge.predicate)
    if domain is not None and domain not in subject_closed:
        out.append(
            Violation(
                DOMAIN_VIOLATION,
                "error",
                ordinal_label,
                f"{_triple(edge)}: subject is not a {domain!r}",
            )
        )
    if rng is not None and rng not in object_closed:
        out.append(
            Violation(
                RANGE_VIOLATION,
                "error",
                ordinal_label,
                f"{_triple(edge)}: object is not a {rng!r}",
            )
        )

    typed_ok = not out or all(
        v.code not in (DOMAIN_VIOLATION, RANGE_VIOLATION) for v in out
    )
    if caches.association_candidates(edge.predicate):
        best = caches.match_association(edge.predicate, subject_closed, object_closed)
        if best is None:
            # A domain/range failure already explains the non-match; only a
            # well-typed edge earns the separate warning.
            if typed_ok:
                out.append(
                    Violation(
                        NO_MATCHING_ASSOCIATION,
                        "warning",
                        ordinal_label,
                        f"{_triple(edge)}: no association accepts this subject/object pair",
                    )
                )
        else:
            for prop in best.required_edge_properties:
                if not properties.get(prop):
                    out.append(
                        Violation(
                            MISSING_REQUIRED_EDGE_PROPERTY,
                            "error",
                            ordinal_label,
                            f"{_triple(edge)}: {best.name} requires {prop!r}",
                        )
                    )
    return out


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
    label = f"edge:{ordinal}" if ordinal is not None else (
        f"{edge.subject.text} -{edge.predicate}-> {edge.object.text}"
    )
    return _validate_edge(edge, label, _Caches(kg, doc, index))


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
    caches = _Caches(kg, doc, index)
    violations: list[Violation] = []
    for node_id in sorted(kg.nodes, key=lambda c: c.text):
        violations.extend(validate_node(kg.nodes[node_id], doc, index))

    for ordinal, edge in enumerate(kg.edges):
        violations.extend(_validate_edge(edge, f"edge:{ordinal}", caches))
    violations.sort(key=_sort_key)
    counts: dict[str, int] = {}
    for violation in violations:
        counts[violation.code] = counts.get(violation.code, 0) + 1
    return ValidationReport(
        violations=violations,
        counts=counts,
        inputs_hash=inputs_digest(kg, doc),
    )
