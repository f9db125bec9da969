"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: plain depth-first searches, recursive
set unions, and exhaustive enumeration over all variable assignments. These
stay separate from the code paths they verify.
"""

from __future__ import annotations

import hashlib
import itertools
import json

from kgschema import (
    Curie,
    Edge,
    KnowledgeGraph,
    MalformedCurieError,
    Node,
    NormalizationReport,
    ParseError,
    SchemaDocument,
    Violation,
    normalize_curie,
    parse_curie,
)
from kgschema.query import Binding, EdgeEvidence, QueryGraph
from kgschema.schema_model import serialize_schema
from kgschema.validation import inputs_digest


def dfs_ancestors(parents: dict[str, str | None], start: str) -> list[str]:
    """Walk the parent chain from ``start``; reflexive, nearest first."""
    chain = [start]
    seen = {start}
    current = parents.get(start)
    while current is not None and current in parents and current not in seen:
        chain.append(current)
        seen.add(current)
        current = parents.get(current)
    return chain


def dfs_descendants(parents: dict[str, str | None], start: str) -> set[str]:
    """All nodes whose parent chain reaches ``start``; reflexive."""
    return {name for name in parents if start in dfs_ancestors(parents, name)}


def recursive_slot_union(doc: SchemaDocument, class_name: str, seen: set[str] | None = None) -> set[str]:
    """Set-union semantics of slot applicability via parents and mixins."""
    if seen is None:
        seen = set()
    if class_name in seen or class_name not in doc.classes:
        return set()
    seen.add(class_name)
    cls = doc.classes[class_name]
    union = set(cls.slots)
    if cls.is_a is not None:
        union |= recursive_slot_union(doc, cls.is_a, seen)
    for mixin in cls.mixins:
        union |= recursive_slot_union(doc, mixin, seen)
    return union


def mixin_reach(doc: SchemaDocument, start: str) -> set[str]:
    """Mixins reachable from ``start`` via is_a and mixin declarations."""
    reach: set[str] = set()
    stack = [start]
    seen = {start}
    while stack:
        current = stack.pop()
        cls = doc.classes.get(current)
        if cls is None:
            continue
        if cls.is_mixin:
            reach.add(current)
        for nxt in ([cls.is_a] if cls.is_a else []) + list(cls.mixins):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return reach


def naive_carriers(doc: SchemaDocument, reach: dict[str, set[str]]) -> dict[str, set[str]]:
    """Per mixin, the instantiable classes whose ``reach`` (class to mixin reach) holds it."""
    return {
        mixin: {name for name, cls in doc.classes.items() if not cls.is_mixin and mixin in reach[name]}
        for mixin, cls in doc.classes.items()
        if cls.is_mixin
    }


def naive_cycles(parents: dict[str, str | None]) -> list[tuple[str, ...]]:
    """Each is_a cycle once, as its sorted members: the names whose chain leads back to them."""
    cycles = set()
    for name in parents:
        chain = dfs_ancestors(parents, name)
        if parents[chain[-1]] == name:
            cycles.add(tuple(sorted(chain)))
    return sorted(cycles)


def naive_narrows(doc: SchemaDocument, child: str, parent: str) -> bool:
    """Whether association end ``child`` narrows ``parent``: the same class; for a
    mixin parent, a child that reaches it; for a class parent, a child class under
    it, or a mixin child whose instantiable carriers are all under it."""
    if child == parent:
        return True
    if doc.classes[parent].is_mixin:
        return parent in mixin_reach(doc, child)
    carriers = [child]
    if doc.classes[child].is_mixin:
        carriers = [
            name
            for name, cls in doc.classes.items()
            if not cls.is_mixin and child in mixin_reach(doc, name)
        ]
    parents = {name: cls.is_a for name, cls in doc.classes.items()}
    return all(parent in dfs_ancestors(parents, carrier) for carrier in carriers)


def naive_hierarchy_violations(doc: SchemaDocument) -> list[tuple[str, str, str]]:
    """The is_a cycle, root predicate and association narrowing violations of
    ``doc`` as sorted (code, element, detail) triples."""
    out = []
    slot_parents = {name: slot.is_a for name, slot in doc.slots.items()}
    for kind, parents in (
        ("class", {name: cls.is_a for name, cls in doc.classes.items()}),
        ("slot", slot_parents),
        ("association", {name: assoc.is_a for name, assoc in doc.associations.items()}),
    ):
        for members in naive_cycles(parents):
            out.append(("CYCLE_IN_IS_A", members[0], f"{kind} is_a cycle: " + " -> ".join(members)))
    on_cycle = {name for members in naive_cycles(slot_parents) for name in members}
    for name, slot in doc.slots.items():
        if slot.slot_kind != "predicate" or name in on_cycle:
            continue
        if name == "related_to":
            if slot.is_a is not None:
                out.append(
                    ("PREDICATE_NOT_UNDER_RELATED_TO", name, "the root predicate must have no parent")
                )
            continue
        top = dfs_ancestors(slot_parents, name)[-1]
        if top != "related_to" or doc.slots[top].slot_kind != "predicate":
            out.append(
                ("PREDICATE_NOT_UNDER_RELATED_TO", name, "predicate does not reach 'related_to' via is_a")
            )
    for name, assoc in doc.associations.items():
        parent = doc.associations.get(assoc.is_a)
        if parent is None:
            continue
        ends = (assoc.subject, assoc.object, parent.subject, parent.object)
        if any(end not in doc.classes for end in ends):
            continue
        if assoc.predicate not in doc.slots or parent.predicate not in doc.slots:
            continue
        for side, child_end, parent_end in (
            ("subject", assoc.subject, parent.subject),
            ("object", assoc.object, parent.object),
        ):
            if not naive_narrows(doc, child_end, parent_end):
                detail = f"{side} {child_end!r} is not a specialization of {parent_end!r}"
                out.append(("ASSOCIATION_WIDENS_PARENT", name, detail))
        if parent.predicate not in dfs_ancestors(slot_parents, assoc.predicate):
            detail = f"predicate {assoc.predicate!r} is not a descendant of {parent.predicate!r}"
            out.append(("ASSOCIATION_WIDENS_PARENT", name, detail))
    return sorted(out)


def naive_shadowed(doc: SchemaDocument) -> list[tuple[str, str]]:
    """``(class, detail)`` of each MIXIN_SLOT_SHADOWED warning, sorted, by recursive walks.

    A declared mixin contributes the slots of every class it reaches, in
    pre-order: a class's own slots, then what its is_a reaches, then what
    each of its mixins reaches; each class once, unknown names skipped. A
    slot that an earlier declared mixin of the same class already gave is
    shadowed.
    """

    def contribution(mixin: str) -> list[str]:
        slots: list[str] = []
        seen: set[str] = set()

        def visit(name: str | None) -> None:
            if name is None or name in seen or name not in doc.classes:
                return
            seen.add(name)
            cls = doc.classes[name]
            slots.extend(cls.slots)
            visit(cls.is_a)
            for parent in cls.mixins:
                visit(parent)

        visit(mixin)
        return slots

    found = []
    for name, cls in doc.classes.items():
        first_source: dict[str, str] = {}
        for mixin in cls.mixins:
            for slot in contribution(mixin):
                if slot in first_source and first_source[slot] != mixin:
                    shadow = first_source[slot]
                    found.append((name, f"slot {slot!r} from {mixin!r} is shadowed by {shadow!r}"))
                else:
                    first_source.setdefault(slot, mixin)
    return sorted(found)


def naive_minimal(doc: SchemaDocument, known: set[str]) -> list[str]:
    """Members of ``known`` with no other member below them, sorted.

    A class is below another when its is_a chain reaches it, or, when the
    other is a mixin, when it is an instantiable class that reaches it.
    """
    parents = {name: cls.is_a for name, cls in doc.classes.items()}

    def below(category: str) -> set[str]:
        found = {name for name in doc.classes if category in dfs_ancestors(parents, name)}
        if doc.classes[category].is_mixin:
            found |= {
                name
                for name, cls in doc.classes.items()
                if not cls.is_mixin and category in mixin_reach(doc, name)
            }
        return found

    return sorted(
        category
        for category in known
        if not any(other != category and other in below(category) for other in known)
    )


def naive_stats_bucket(doc: SchemaDocument, categories: list[str]) -> str:
    """Where ``graph_stats`` counts a node: its lexicographically first minimal
    known category, or else its first declared one."""
    known = {category for category in categories if category in doc.classes}
    return naive_minimal(doc, known)[0] if known else categories[0]


def naive_closed_list(doc: SchemaDocument, categories: list[str]) -> list[str]:
    """The declared categories, then each known one's ancestors nearest first;
    an ancestor already in the list is not added again."""
    parents = {name: cls.is_a for name, cls in doc.classes.items()}
    closed = list(categories)
    for category in categories:
        if category in doc.classes:
            for ancestor in dfs_ancestors(parents, category):
                if ancestor not in closed:
                    closed.append(ancestor)
    return closed


def scan_preferred(
    members: set[Curie], category: str, doc: SchemaDocument
) -> tuple[Curie, str | None]:
    """Brute-force preference scan: try every inherited prefix in rank order."""
    chain = dfs_ancestors({n: c.is_a for n, c in doc.classes.items()}, category)
    preference: list[str] = []
    for ancestor in chain:
        if doc.classes[ancestor].id_prefixes:
            preference = doc.classes[ancestor].id_prefixes
            break
    for prefix in preference:
        sharing = sorted(
            (m for m in members if m.partition(":")[0] == prefix), key=lambda m: m.partition(":")[2]
        )
        if sharing:
            return sharing[0], prefix
    return min(members), None


def _naive_closed_categories(doc: SchemaDocument, categories: list[str]) -> set[str]:
    closed: set[str] = set()
    for category in categories:
        if category not in doc.classes:
            closed.add(category)
            continue
        current: str | None = category
        while current is not None and current in doc.classes:
            closed.add(current)
            current = doc.classes[current].is_a
    return closed


def brute_force_match(
    qg: QueryGraph, kg: KnowledgeGraph, doc: SchemaDocument | None
) -> list[dict]:
    """Enumerate every assignment of variables to nodes, then edge choices.

    Returns the same JSON shapes as ``Binding.as_dict()``, sorted by their
    JSON text, duplicates removed.
    """
    symmetric: set[str] = set()
    if doc is not None:
        symmetric = {
            name
            for name, slot in doc.slots.items()
            if slot.slot_kind == "predicate" and slot.symmetric
        }
    variables = list(qg.qnodes)
    node_ids = list(kg.nodes)

    def node_ok(var: str, node_id: Curie) -> bool:
        qnode = qg.qnodes[var]
        if qnode.id is not None:
            return node_id == qnode.id
        if qnode.categories is None:
            return True
        if doc is None:
            return bool(set(kg.nodes[node_id].categories) & qnode.categories)
        closed = _naive_closed_categories(doc, kg.nodes[node_id].categories)
        return bool(closed & qnode.categories)

    results: dict[str, dict] = {}
    for combo in itertools.product(node_ids, repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        if not all(node_ok(var, node_id) for var, node_id in assignment.items()):
            continue
        per_edge_options: list[list[int]] = []
        dead = False
        for qedge in qg.qedges:
            subject_id = assignment[qedge.subject_var]
            object_id = assignment[qedge.object_var]
            option_set: set[int] = set()
            for ordinal, edge in enumerate(kg.edges):
                if edge.predicate not in qedge.predicates:
                    continue
                if edge.subject not in kg.nodes or edge.object not in kg.nodes:
                    continue
                if edge.subject == subject_id and edge.object == object_id:
                    option_set.add(ordinal)
                elif (
                    edge.predicate in symmetric
                    and edge.subject == object_id
                    and edge.object == subject_id
                ):
                    option_set.add(ordinal)
            if not option_set:
                dead = True
                break
            per_edge_options.append(sorted(option_set))
        if dead:
            continue
        for choice in itertools.product(*per_edge_options):
            evidence = {}
            for qedge_ordinal, edge_ordinal in enumerate(choice):
                edge = kg.edges[edge_ordinal]
                evidence[qedge_ordinal] = EdgeEvidence(
                    matched_predicate=edge.predicate,
                    publications=tuple(sorted(edge.properties.get("publications", []))),
                    has_evidence=tuple(sorted(edge.properties.get("has_evidence", []))),
                )
            binding = Binding(dict(assignment), evidence)
            results[binding.to_json()] = binding.as_dict()
    return [results[key] for key in sorted(results)]


def greedy_edge_order(qg: QueryGraph, bound: set[str]) -> list[int]:
    """Query edge positions in search order, one edge per step.

    Each step takes the first remaining edge with the most bound ends and
    binds both of its ends; ``bound`` is not changed.
    """
    bound = set(bound)
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


def bindings_as_dicts(bindings: list[Binding]) -> list[dict]:
    """Matcher output in the oracle's canonical shape for comparison."""
    return sorted((b.as_dict() for b in bindings), key=lambda d: json.dumps(d, sort_keys=True))


def naive_validate(kg: KnowledgeGraph, doc: SchemaDocument) -> str:
    """The validation report as JSONL, rule by rule, with no caches and no closure index.

    Every node and edge walks its own class, predicate and mixin chains. The
    header's ``inputs_hash`` comes from the package's ``inputs_digest``: it
    is a content hash, not a validation rule.
    """
    class_parents = {name: cls.is_a for name, cls in doc.classes.items()}
    predicate_parents = {
        name: slot.is_a for name, slot in doc.slots.items() if slot.slot_kind == "predicate"
    }
    mixins = {name for name, cls in doc.classes.items() if cls.is_mixin}

    def closed(categories: list[str]) -> set[str]:
        out: set[str] = set()
        for category in categories:
            if category in doc.classes:
                out.update(dfs_ancestors(class_parents, category))
                out.update(mixin_reach(doc, category))
        return out

    def curie_shaped(value: str) -> bool:
        try:
            parse_curie(value)
        except MalformedCurieError:
            return False
        return True

    def depth(parents: dict[str, str | None], name: str) -> int:
        return len(dfs_ancestors(parents, name)) - 1

    rows: list[tuple] = []  # (sort key, code, severity, subject, detail)

    def node_row(code: str, severity: str, subject: str, detail: str) -> None:
        rows.append(((code, 0, 0, subject, detail), code, severity, subject, detail))

    def edge_row(code: str, severity: str, ordinal: int, detail: str) -> None:
        rows.append(((code, 1, ordinal, "", detail), code, severity, f"edge:{ordinal}", detail))

    for node in kg.nodes.values():
        subject = node.id
        for category in node.categories:
            if category not in doc.classes:
                node_row(
                    "UNKNOWN_CATEGORY", "error", subject,
                    f"category {category!r} is not in the schema",
                )
        known = {category for category in node.categories if category in doc.classes}
        if not known:
            continue
        if known <= mixins:
            node_row(
                "ABSTRACT_MIXIN_INSTANTIATED", "error", subject,
                f"only mixin categories: {sorted(known)}",
            )
        most_specific = naive_minimal(doc, known)[0]
        allowed: set[str] = set()
        for ancestor in dfs_ancestors(class_parents, most_specific):
            allowed.update(doc.classes[ancestor].id_prefixes)
        prefix = node.id.partition(":")[0]
        if allowed and prefix not in allowed:
            node_row(
                "ID_PREFIX_NOT_ALLOWED",
                "warning",
                subject,
                f"prefix {prefix!r} is not among {sorted(allowed)} "
                f"inherited by {most_specific!r}",
            )

    for ordinal, edge in enumerate(kg.edges):
        triple = f"{edge.subject} -{edge.predicate}-> {edge.object}"
        missing = [end for end in (edge.subject, edge.object) if end not in kg.nodes]
        if missing:
            edge_row("DANGLING_EDGE", "error", ordinal, f"{triple}: absent node(s) {missing}")
            continue
        for value in edge.properties.get("publications", []):
            if not curie_shaped(value):
                edge_row(
                    "MALFORMED_PROVENANCE_CURIE", "warning", ordinal,
                    f"publications value {value!r} is not a CURIE",
                )
        for value in edge.properties.get("has_evidence", []):
            prefix, sep, _ = value.partition(":")
            if sep and prefix in doc.prefixes and not curie_shaped(value):
                edge_row(
                    "MALFORMED_PROVENANCE_CURIE", "warning", ordinal,
                    f"has_evidence value {value!r} is not a CURIE",
                )
        if edge.predicate not in predicate_parents:
            edge_row(
                "UNKNOWN_PREDICATE", "error", ordinal,
                f"{edge.predicate!r} is not a predicate in the schema",
            )
            continue
        chain = dfs_ancestors(predicate_parents, edge.predicate)
        domains = [doc.slots[p].domain for p in chain if doc.slots[p].domain is not None]
        ranges = [doc.slots[p].range for p in chain if doc.slots[p].range in doc.classes]
        subject_closed = closed(kg.nodes[edge.subject].categories)
        object_closed = closed(kg.nodes[edge.object].categories)
        typed = True
        if domains and domains[0] not in subject_closed:
            typed = False
            edge_row(
                "DOMAIN_VIOLATION", "error", ordinal, f"{triple}: subject is not a {domains[0]!r}"
            )
        if ranges and ranges[0] not in object_closed:
            typed = False
            edge_row(
                "RANGE_VIOLATION", "error", ordinal, f"{triple}: object is not a {ranges[0]!r}"
            )
        governing = [assoc for assoc in doc.associations.values() if assoc.predicate in chain]
        if not governing:
            continue
        matched = [
            assoc
            for assoc in governing
            if assoc.subject in subject_closed and assoc.object in object_closed
        ]
        if not matched:
            if typed:
                edge_row(
                    "NO_MATCHING_ASSOCIATION", "warning", ordinal,
                    f"{triple}: no association accepts this subject/object pair",
                )
            continue
        best = min(
            matched,
            key=lambda assoc: (
                -(
                    depth(class_parents, assoc.subject)
                    + depth(predicate_parents, assoc.predicate)
                    + depth(class_parents, assoc.object)
                ),
                assoc.name,
            ),
        )
        for prop in best.required_edge_properties:
            if not edge.properties.get(prop):
                edge_row(
                    "MISSING_REQUIRED_EDGE_PROPERTY", "error", ordinal,
                    f"{triple}: {best.name} requires {prop!r}",
                )

    rows.sort(key=lambda row: row[0])
    counts: dict[str, int] = {}
    for row in rows:
        counts[row[1]] = counts.get(row[1], 0) + 1
    header = {
        "counts": dict(sorted(counts.items())),
        "errors": sum(1 for row in rows if row[2] == "error"),
        "warnings": sum(1 for row in rows if row[2] == "warning"),
        "inputs_hash": inputs_digest(kg, doc),
    }
    lines = [json.dumps(header, sort_keys=True, ensure_ascii=False)]
    lines.extend(
        json.dumps(
            {"code": code, "severity": severity, "subject": subject, "detail": detail},
            sort_keys=True,
            ensure_ascii=False,
        )
        for _, code, severity, subject, detail in rows
    )
    return "\n".join(lines) + "\n"


def json_inputs_digest(kg: KnowledgeGraph, doc: SchemaDocument) -> str:
    """A content hash with one ``json.dumps(sort_keys=True)`` object per node and per edge.

    The reference for ``inputs_digest``: JSON is injective by construction,
    so two graphs must share a package digest exactly when they share this
    one.
    """
    digest = hashlib.sha256()
    digest.update(serialize_schema(doc).encode("utf-8"))
    node_lines = sorted(
        json.dumps(
            {
                "id": node.id,
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
                "subject": edge.subject,
                "predicate": edge.predicate,
                "object": edge.object,
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


def naive_jsonl_read(text: str, kind: str) -> list[Node] | list[Edge]:
    """The records of JSONL ``text``, read one split line at a time in the README's rule order.

    ``kind`` is ``"node"`` or ``"edge"``. The reference for ``read_nodes``
    and ``read_edges`` on JSONL: one leading byte order mark is dropped,
    the text is split on ``\\n``, each line is stripped, blank lines are
    skipped and ``json.loads`` reads the rest. Per line come the syntax
    (the JSON, an object, unpaired surrogate escapes on lines with a
    ``\\u``, the core types), then the field rules, then the properties.
    The first fault raises the ``ParseError`` the reader must raise.
    """
    core = ("id", "category", "name") if kind == "node" else ("subject", "predicate", "object")
    records = []
    for number, raw in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue

        def fault(message: str, column: int = 1) -> ParseError:
            return ParseError(message, number, column)

        def strings(key: str, value) -> list[str]:
            if not isinstance(value, list) or any(not isinstance(item, str) for item in value):
                raise fault(f"{key!r} must be an array of strings")
            return [item for i, item in enumerate(value) if item and item not in value[:i]]

        def curie(value: str) -> Curie:
            try:
                return parse_curie(value)
            except MalformedCurieError as exc:
                raise fault(str(exc)) from None

        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise fault(f"invalid JSON: {exc.msg}", exc.colno) from None
        except RecursionError:
            raise fault("invalid JSON: nested too deeply") from None
        except ValueError as exc:  # an integer with more digits than int() takes
            raise fault(f"invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise fault(f"each {kind} line must be a JSON object")
        if "\\u" in line:
            for key, value in obj.items():
                for item in [key, *value] if isinstance(value, list) else [key, value]:
                    if isinstance(item, str) and any(0xD800 <= ord(c) <= 0xDFFF for c in item):
                        raise fault(f"{key!r} holds an unpaired surrogate escape")
        fields = {}
        for name in core:
            value = obj.get(name)
            if name == "category":
                value = [] if value is None else strings(name, value)
            elif value is None:
                value = ""
            elif not isinstance(value, str):
                raise fault(f"{name!r} must be a string")
            fields[name] = value
        if kind == "node":
            node_id = curie(fields["id"])
            if not fields["category"]:
                raise fault("node has no categories")
        else:
            if not fields["predicate"]:
                raise fault("empty predicate")
            subject, object_id = curie(fields["subject"]), curie(fields["object"])
        properties = {}
        for key in sorted(obj):
            if key not in core:
                values = strings(key, obj[key])
                if values:
                    properties[key] = values
        if kind == "node":
            records.append(Node(node_id, fields["category"], fields["name"] or None, properties))
        else:
            records.append(Edge(subject, fields["predicate"], object_id, properties))
    return records


def naive_tsv_read(text: str, kind: str) -> list[Node] | list[Edge]:
    """The records of TSV ``text``, read one split line at a time in the README's rule order.

    ``kind`` is ``"node"`` or ``"edge"``. The reference for ``read_nodes``
    and ``read_edges`` on TSV: one leading byte order mark is dropped, the
    whole text is split on ``\\n`` and each line's trailing CRs are dropped.
    The header must start with the core columns and repeat no column. Per
    nonblank row come the syntax (its width, then a ``|`` in a
    single-valued core cell), then the field rules; properties cannot
    fault. The first fault raises the ``ParseError`` the reader must raise.
    """
    core = ["id", "category", "name"] if kind == "node" else ["subject", "predicate", "object"]
    lines = text.removeprefix("\ufeff").split("\n")
    if not lines[0].strip():
        raise ParseError(f"missing {kind}s header", 1, 1)
    header = lines[0].rstrip("\r").split("\t")
    if header[:3] != core:
        raise ParseError(f"{kind}s header must start with {core}, got {header[:3]}", 1, 1)
    for name in header:
        if header.count(name) > 1:
            raise ParseError(f"duplicate column {name!r} in {kind}s header", 1, 1)

    def values(cell: str) -> list[str]:
        return [value for i, value in enumerate(cell.split("|")) if value and value not in cell.split("|")[:i]]

    records = []
    for number, raw in enumerate(lines, start=1):
        row = raw.rstrip("\r")
        if number == 1 or not row:
            continue

        def fault(message: str) -> ParseError:
            return ParseError(message, number, 1)

        def curie(value: str) -> Curie:
            try:
                return parse_curie(value)
            except MalformedCurieError as exc:
                raise fault(str(exc)) from None

        cells = row.split("\t")
        if len(cells) != len(header):
            raise fault(f"expected {len(header)} columns, got {len(cells)}")
        for column, cell in zip(core, cells):
            if column != "category" and "|" in cell:
                raise fault(f"literal '|' in single-valued column {column!r}")
        if kind == "node":
            node_id = curie(cells[0])
            if not values(cells[1]):
                raise fault("node has no categories")
        else:
            if not cells[1]:
                raise fault("empty predicate")
            subject, object_id = curie(cells[0]), curie(cells[2])
        # A cell that holds no value, empty or separators only ("|"), is no property.
        properties = {key: values(cell) for key, cell in zip(header[3:], cells[3:]) if values(cell)}
        if kind == "node":
            records.append(Node(node_id, values(cells[1]), cells[2] or None, properties))
        else:
            records.append(Edge(subject, cells[1], object_id, properties))
    return records


def naive_jsonl_write(records: list[Node] | list[Edge] | list[Violation]) -> str:
    """JSONL text of nodes, edges or violations, one ``dict`` and one ``json.dumps`` per record.

    The reference for ``write_nodes`` and ``write_edges`` with ``"jsonl"``
    and for the violation lines of ``ValidationReport.to_jsonl``. A record's
    object holds its properties, then each core value that is not None;
    ``sort_keys=True`` orders the keys and ``ensure_ascii=False`` leaves
    non-ASCII text as it is.
    """
    lines = []
    for record in records:
        if isinstance(record, Node):
            obj = {**record.properties, "id": record.id, "category": record.categories}
            if record.name is not None:
                obj["name"] = record.name
        elif isinstance(record, Edge):
            obj = {
                **record.properties,
                "subject": record.subject,
                "predicate": record.predicate,
                "object": record.object,
            }
        else:
            obj = {
                "code": record.code,
                "severity": record.severity,
                "subject": record.subject,
                "detail": record.detail,
            }
        lines.append(json.dumps(obj, sort_keys=True, ensure_ascii=False) + "\n")
    return "".join(lines)


def naive_tsv_write(records: list[Node] | list[Edge], kind: str) -> str:
    """TSV text of nodes or edges, one list of cells and one ``join`` per record.

    The reference for ``write_nodes`` and ``write_edges`` with ``"tsv"``:
    its checks and their messages are the writer's. A core value that is
    not a string is joined with ``|``; a property value is joined with
    ``|`` whatever it is. The text is checked whole: its tabs and line
    breaks against the row count, and its ``|`` against the header's and
    the separators counted while joining.
    """
    columns = ("id", "category", "name") if kind == "node" else ("subject", "predicate", "object")

    def core(record):
        if kind == "node":
            return (record.id, record.categories, record.name)
        return (record.subject, record.predicate, record.object)

    keys = {key for record in records for key in record.properties}
    if not keys.isdisjoint(columns):
        clash = sorted(keys.intersection(columns))
        raise ValueError(f"a property cannot be named like a core column: {clash}")
    extras = sorted(keys)
    rows = ["\t".join((*columns, *extras))]
    separators = 0
    for record in records:
        cells = []
        for value in core(record):
            if value and not isinstance(value, str):
                separators += len(value) - 1
                value = "|".join(value)
            cells.append(value or "")
        for values in map(record.properties.get, extras):
            if values:
                separators += len(values) - 1
            cells.append("|".join(values or ()))
        rows.append("\t".join(cells))
    text = "\n".join(rows) + "\n"
    width = len(columns) + len(extras)
    if text.count("\t") != len(rows) * (width - 1) or text.count("\n") != len(rows) or "\r" in text:
        bad = next(r for r in rows if r.count("\t") != width - 1 or "\n" in r or "\r" in r)
        raise ValueError(f"TSV cannot hold a tab or a line break inside a value: {bad!r}")
    if text.count("|") != rows[0].count("|") + separators:
        raise ValueError("TSV cannot hold '|' inside a value")
    return text


def _naive_union(target: list[str], extra: list[str]) -> None:
    for value in extra:
        if value not in target:
            target.append(value)


def naive_normalize(kg: KnowledgeGraph, table, doc: SchemaDocument, index, normalize=normalize_curie):
    """``normalize_graph``'s result, resolving ids one record at a time and merging by copy.

    Each node id, then each edge's subject and object, goes to
    ``normalize(table, curie, doc, index)`` on its first sight. With no id
    rewritten the input graph itself comes back. Otherwise every record is
    renamed, and records that meet on one key merge into a copy of the
    first: categories and property values by ordered union, the first name
    kept and each other differing name counted as a conflict.
    """
    report = NormalizationReport()
    mapping: dict[Curie, Curie] = {}
    for curie in [*kg.nodes, *(end for edge in kg.edges for end in (edge.subject, edge.object))]:
        if curie in mapping:
            continue
        mapping[curie] = normalize(table, curie, doc, index)
        if table.clique_of(curie) is None:
            report.unknown_ids += 1
        elif mapping[curie] != curie:
            report.ids_rewritten += 1
    if report.ids_rewritten == 0:
        return kg, report

    def merge_properties(target: dict, extra: dict) -> None:
        for key, values in extra.items():
            if key in target:
                _naive_union(target[key], values)
            else:
                target[key] = list(values)

    nodes: dict[Curie, Node] = {}
    for node in kg.nodes.values():
        node_id = mapping[node.id]
        kept = nodes.get(node_id)
        if kept is None:
            nodes[node_id] = Node(node_id, list(node.categories), node.name,
                                  {k: list(v) for k, v in node.properties.items()})
            continue
        _naive_union(kept.categories, node.categories)
        if kept.name is None:
            kept.name = node.name
        elif node.name is not None and node.name != kept.name:
            report.name_conflicts += 1
        merge_properties(kept.properties, node.properties)
    edges: dict[tuple, Edge] = {}
    for edge in kg.edges:
        key = (mapping[edge.subject], edge.predicate, mapping[edge.object])
        if key in edges:
            merge_properties(edges[key].properties, edge.properties)
        else:
            edges[key] = Edge(*key, {k: list(v) for k, v in edge.properties.items()})
    report.nodes_merged = len(kg.nodes) - len(nodes)
    report.edges_deduplicated = len(kg.edges) - len(edges)
    return KnowledgeGraph(nodes, list(edges.values())), report
