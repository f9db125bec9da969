"""Graph-against-schema validation with a severity-graded, stable report.

Checks per node: category existence, mixin-only categorization, identifier
prefix conformance. Checks per edge: predicate existence, inherited
domain/range constraints, association matching with required edge
properties, and provenance identifier shape. Domain, range and association
depend only on the edge's type signature (predicate, closed subject
categories, closed object categories) and are decided once per signature.
An edge whose signature is decided and raises nothing passes on one memo
lookup when it has the properties that signature requires and every
``publications`` and ``has_evidence`` value is CURIE-shaped; only an edge
whose signature or provenance can raise is fully checked. Violations are
data; the report is deterministic across input order. Checks run on one
thread.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter

from .hierarchy import ClosureIndex
from .identifiers import _CURIE_RE, Curie, is_curie
from .kg_store import Edge, KnowledgeGraph, Node, _json_records
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


_VIOLATION_FIELDS = ("code", "severity", "subject", "detail")
_violation_values = attrgetter(*_VIOLATION_FIELDS)


@dataclass(frozen=True)
class Violation:
    """One rule breach; ``subject`` is a node id or ``edge:<ordinal>``."""

    code: str
    severity: str
    subject: str
    detail: str

    def as_dict(self) -> dict[str, str]:
        return dict(zip(_VIOLATION_FIELDS, _violation_values(self)))


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
        body = _json_records(
            self.violations,
            _VIOLATION_FIELDS,
            lambda block: list(zip(*map(_violation_values, block))),
            lambda v: {},
        )
        return json.dumps(header, sort_keys=True, ensure_ascii=False) + "\n" + body


def validate_node(node: Node, doc: SchemaDocument, index: ClosureIndex) -> list[Violation]:
    """Category existence, mixin-only check, and id-prefix conformance."""
    profile = index.profile(node.categories)
    out = [
        Violation(UNKNOWN_CATEGORY, "error", node.id, f"category {c!r} is not in the schema")
        for c in profile.unknown
    ]
    if not profile.known:
        return out
    if index.mixins.issuperset(profile.known):
        detail = f"only mixin categories: {sorted(profile.known)}"
        out.append(Violation(ABSTRACT_MIXIN_INSTANTIATED, "error", node.id, detail))
    prefix = node.id.partition(":")[0]
    allowed = index.id_prefixes[profile.most_specific]
    if allowed and prefix not in allowed:
        detail = (
            f"prefix {prefix!r} is not among {sorted(allowed)} "
            f"inherited by {profile.most_specific!r}"
        )
        out.append(Violation(ID_PREFIX_NOT_ALLOWED, "warning", node.id, detail))
    return out


def _triple(edge: Edge) -> str:
    return f"{edge.subject} -{edge.predicate}-> {edge.object}"


def _signature_verdict(
    predicate: str,
    subject_closed: frozenset[str],
    object_closed: frozenset[str],
    governing: list[AssociationDefinition],
    doc: SchemaDocument,
    index: ClosureIndex,
) -> tuple[list[tuple[str, str, str]], Sequence[str], str | None]:
    """What holds for every edge with this predicate and these closed end categories.

    ``governing`` lists the associations whose predicate is this predicate
    or one of its ancestors. Returns the ``(code, severity, detail suffix)``
    of each domain, range and association violation, then the properties
    the most specific matching association requires and its name, or
    ``()`` and None without one. Domain and range come from the nearest
    ancestor predicate that sets them; association ties break by summed
    depth, then by name.
    """
    domain = rng = None
    for name in index.predicate_ancestors[predicate]:
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
    if best is None:
        return faults, (), None
    return faults, best.required_edge_properties, best.name


def _typed_closures(nodes: dict[Curie, Node], profile: Callable) -> dict[Curie, frozenset[str]]:
    """Each node's id to the typed closure of its category list."""
    return {node_id: profile(node.categories).typed_closure for node_id, node in nodes.items()}


def _edge_checker(
    kg: KnowledgeGraph,
    doc: SchemaDocument,
    index: ClosureIndex,
    closed: dict[Curie, frozenset[str]],
) -> tuple[Callable, dict[tuple, tuple]]:
    """``check(edge, ordinal)``, every edge-level check, and its signature memo.

    ``closed`` maps the id of each node an edge may end at to its typed
    closure. The memo maps each decided ``(predicate, subject closure,
    object closure)`` to its :func:`_signature_verdict`.
    """
    nodes = kg.nodes
    predicates = set(doc.predicate_names())
    # Per predicate, the associations set on it or on one of its ancestors.
    governing: dict[str, list[AssociationDefinition]] = {}
    for assoc in doc.associations.values():
        for name in index.predicate_descendants.get(assoc.predicate, ()):
            governing.setdefault(name, []).append(assoc)
    verdicts: dict[tuple, tuple] = {}

    def check(edge: Edge, ordinal: int | None) -> list[Violation]:
        """Violations of ``edge``, labelled ``edge:<ordinal>``, or by its triple without one."""
        faults: list[tuple[str, str, str]] = []
        subject_closed = closed.get(edge.subject)
        object_closed = closed.get(edge.object)
        if subject_closed is None or object_closed is None:
            missing = [c for c in (edge.subject, edge.object) if c not in nodes]
            faults.append((DANGLING_EDGE, "error", f"{_triple(edge)}: absent node(s) {missing}"))
            return _labelled(edge, ordinal, faults)

        properties = edge.properties
        for value in properties.get("publications", ()):
            if not is_curie(value):
                detail = f"publications value {value!r} is not a CURIE"
                faults.append((MALFORMED_PROVENANCE_CURIE, "warning", detail))
        for value in properties.get("has_evidence", ()):
            # Only values that name a declared prefix claim to be CURIEs.
            if not is_curie(value):
                prefix, sep, _ = value.partition(":")
                if sep and prefix in doc.prefixes:
                    detail = f"has_evidence value {value!r} is not a CURIE"
                    faults.append((MALFORMED_PROVENANCE_CURIE, "warning", detail))

        predicate = edge.predicate
        if predicate not in predicates:
            detail = f"{predicate!r} is not a predicate in the schema"
            faults.append((UNKNOWN_PREDICATE, "error", detail))
            return _labelled(edge, ordinal, faults)

        signature = (predicate, subject_closed, object_closed)
        verdict = verdicts.get(signature)
        if verdict is None:
            verdict = verdicts[signature] = _signature_verdict(
                *signature, governing.get(predicate, []), doc, index
            )
        signature_faults, required, name = verdict
        for code, severity, suffix in signature_faults:
            faults.append((code, severity, f"{_triple(edge)}: {suffix}"))
        for prop in required:
            if not properties.get(prop):
                detail = f"{_triple(edge)}: {name} requires {prop!r}"
                faults.append((MISSING_REQUIRED_EDGE_PROPERTY, "error", detail))
        return _labelled(edge, ordinal, faults)

    return check, verdicts


def _labelled(edge: Edge, ordinal: int | None, faults: list[tuple]) -> list[Violation]:
    """``(code, severity, detail)`` faults as violations; the label is built only for a fault."""
    if not faults:
        return []
    label = f"edge:{ordinal}" if ordinal is not None else _triple(edge)
    return [Violation(code, severity, label, detail) for code, severity, detail in faults]


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
    ends = {end: kg.nodes[end] for end in (edge.subject, edge.object) if end in kg.nodes}
    closed = _typed_closures(ends, index.profile)
    return _edge_checker(kg, doc, index, closed)[0](edge, ordinal)


def _escape(field: str) -> str:
    field = field.replace("\\", "\\\\").replace("\t", "\\t")
    return field.replace("\n", "\\n").replace("\x00", "\\0")


def _canonical_line(fields: list[str]) -> str:
    """``fields`` joined by tabs; all escaped when one holds a backslash, tab, newline or NUL.

    The check counts on the joined line, as the TSV writer does, so a line
    with none of them costs no pass per field.
    """
    line = "\t".join(fields)
    if line.count("\t") != len(fields) - 1 or "\\" in line or "\n" in line or "\x00" in line:
        line = "\t".join(map(_escape, fields))
    return line


def _add_properties(fields: list[str], properties: dict[str, list[str]]) -> list[str]:
    # Keys and values are sorted only when there are two or more of them.
    for key in sorted(properties) if len(properties) > 1 else properties:
        values = properties[key]
        if len(values) == 1:
            fields += (key, "1", values[0])
        else:
            fields.append(key)
            fields.append(str(len(values)))
            fields.extend(sorted(values))
    return fields


def _node_line(node: Node) -> str:
    name = "-" if node.name is None else "+" + node.name
    categories = node.categories
    if len(categories) == 1 and not node.properties:
        # One category and no property, the common shape, in one step, under
        # the escape test of ``_canonical_line``.
        line = f"{node.id}\t{name}\t1\t{categories[0]}"
        if line.count("\t") == 3 and "\\" not in line and "\n" not in line and "\x00" not in line:
            return line
    fields = [node.id, name, str(len(categories)), *sorted(categories)]
    return _canonical_line(_add_properties(fields, node.properties))


def _edge_line(edge: Edge) -> str:
    properties = edge.properties
    if len(properties) == 1:
        # One key with one value, the common shape, in one step, under the
        # escape test of ``_canonical_line``.
        [key] = properties
        values = properties[key]
        if len(values) == 1:
            line = f"{edge.subject}\t{edge.predicate}\t{edge.object}\t{key}\t1\t{values[0]}"
            if (
                line.count("\t") == 5
                and "\\" not in line
                and "\n" not in line
                and "\x00" not in line
            ):
                return line
    fields = [edge.subject, edge.predicate, edge.object]
    return _canonical_line(_add_properties(fields, properties))


# Lines hashed per joined text. One join of every line would hold a second
# copy of the graph's lines, and joins of 4,096 lines raised the peak memory
# of validate; a join of a few lines already halves the per-line update cost.
_HASH_BLOCK = 64


def _hash_sorted(digest, lines: list[str]) -> None:
    """Sort ``lines`` in place, then hash each one and a newline."""
    lines.sort()
    update = digest.update
    for start in range(0, len(lines), _HASH_BLOCK):
        update(("\n".join(lines[start:start + _HASH_BLOCK]) + "\n").encode("utf-8"))


def inputs_digest(kg: KnowledgeGraph, doc: SchemaDocument) -> str:
    """Content hash of schema plus graph, independent of declaration order.

    SHA-256 over the serialized schema, the sorted canonical lines of the
    nodes, a NUL, then the sorted canonical lines of the edges. A node's
    line holds its id, ``-`` for no name or ``+`` and the name, its
    category count and sorted categories; an edge's holds its subject,
    predicate and object. Both go on with each sorted property key, its
    value count and its sorted values. The counts and the escaping make a
    line decode to exactly one record.
    """
    digest = hashlib.sha256()
    digest.update(serialize_schema(doc).encode("utf-8"))
    _hash_sorted(digest, list(map(_node_line, kg.nodes.values())))
    digest.update(b"\x00")
    _hash_sorted(digest, list(map(_edge_line, kg.edges)))
    return digest.hexdigest()


def validate_graph(
    kg: KnowledgeGraph,
    doc: SchemaDocument,
    index: ClosureIndex,
    parallelism: int = 1,
) -> ValidationReport:
    """Validate every node and edge; the report is byte-stable.

    Violations are sorted by code, then node id text or edge ordinal, then
    detail, and the report is built in that order. ``parallelism`` is
    accepted for compatibility and ignored: the checks are pure Python,
    which threads cannot speed up.
    """
    # The digest first: its sorted line lists, the peak of a run, are then
    # not held beside the checks' maps and violations.
    inputs_hash = inputs_digest(kg, doc)
    closed = _typed_closures(kg.nodes, index.profile)
    check, verdicts = _edge_checker(kg, doc, index, closed)
    violations: list[Violation] = []
    for node in kg.nodes.values():
        violations.extend(validate_node(node, doc, index))
    # Node and edge checks raise disjoint codes, so the stable sort by code
    # below keeps node violations by id text and edge ones by ordinal.
    violations.sort(key=attrgetter("subject", "detail"))
    by_code_and_detail = attrgetter("code", "detail")
    closure = closed.get
    verdict_of = verdicts.get
    curie = _CURIE_RE.fullmatch
    for ordinal, edge in enumerate(kg.edges):
        # An edge of a decided signature that raises nothing, with its
        # required properties and CURIE-shaped provenance, raises nothing;
        # any other goes through ``check``.
        verdict = verdict_of((edge.predicate, closure(edge.subject), closure(edge.object)))
        if verdict is not None and not verdict[0]:
            properties = edge.properties
            required = verdict[1]
            publications = properties.get("publications", ())
            evidence = properties.get("has_evidence", ())
            if (
                (not required or all(map(properties.get, required)))
                # One value, the common case, is tested without a map.
                and (
                    curie(publications[0])
                    if len(publications) == 1
                    else all(map(curie, publications))
                )
                and (not evidence or all(map(curie, evidence)))
            ):
                continue
        found = check(edge, ordinal)
        if len(found) > 1:
            found.sort(key=by_code_and_detail)
        violations.extend(found)
    violations.sort(key=attrgetter("code"))
    counts = {code: len(list(same)) for code, same in groupby(violations, attrgetter("code"))}
    return ValidationReport(
        violations=violations,
        counts=counts,
        inputs_hash=inputs_hash,
    )
