"""Schema metamodel: domain types, document parsing, validation, serialization.

A schema document declares prefixes, classes (including mixins), slots
(predicates, node properties, edge properties), associations, and custom
types, in the block-style text format implemented by
:mod:`kgschema.blockyaml`. Parsing is strict about structure and key names;
referential and hierarchy rules are checked separately by
:func:`validate_schema`, which reports violations as data instead of raising.
"""

from __future__ import annotations

import dataclasses
import re
import warnings
from collections.abc import Callable, Container
from dataclasses import dataclass, field
from functools import cached_property

from . import blockyaml
from .blockyaml import MappingNode, Scalar, Sequence, YamlNode
from .errors import DuplicateNameError, ParseError, SchemaFormatWarning, UnknownClassError

PREDICATE = "predicate"
NODE_PROPERTY = "node_property"
EDGE_PROPERTY = "edge_property"
SLOT_KINDS = (PREDICATE, NODE_PROPERTY, EDGE_PROPERTY)

ROOT_PREDICATE = "related_to"

MAPPING_RELATIONS = ("exact", "close", "broad", "narrow", "related")
TYPE_BASES = ("string", "integer", "float", "boolean", "curie", "iri")

SCHEMA_FORMAT_VERSION = "1"

_CAMEL_RE = re.compile(r"^[A-Z][A-Za-z0-9]*$")
_SNAKE_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_WHITESPACE_RE = re.compile(r"\s")
# The one CURIE shape rule: the first colon has text on both sides, and no
# character is whitespace. Loops over many values map its ``fullmatch``.
_CURIE_RE = re.compile(r"[^:\s]+:\S+")


def is_curie(text: str) -> bool:
    """Whether ``text`` has the CURIE shape of ``_CURIE_RE``."""
    return _CURIE_RE.fullmatch(text) is not None


@dataclass
class Mapping:
    """Cross-vocabulary link from a schema element to an external term."""

    relation: str
    target: str


@dataclass
class ClassDefinition:
    name: str
    description: str = ""
    is_a: str | None = None
    mixins: list[str] = field(default_factory=list)
    is_mixin: bool = False
    slots: list[str] = field(default_factory=list)
    id_prefixes: list[str] = field(default_factory=list)
    mappings: list[Mapping] = field(default_factory=list)


@dataclass
class SlotDefinition:
    name: str
    slot_kind: str
    description: str = ""
    is_a: str | None = None
    domain: str | None = None
    range: str | None = None
    multivalued: bool = False
    required: bool = False
    symmetric: bool = False
    mappings: list[Mapping] = field(default_factory=list)


@dataclass
class AssociationDefinition:
    name: str
    subject: str
    predicate: str
    object: str
    is_a: str | None = None
    required_edge_properties: list[str] = field(default_factory=list)
    optional_edge_properties: list[str] = field(default_factory=list)


@dataclass
class TypeDefinition:
    name: str
    base: str
    description: str = ""


@dataclass
class SchemaDocument:
    """A parsed schema. Treat as immutable once constructed."""

    name: str
    version: str
    prefixes: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassDefinition] = field(default_factory=dict)
    slots: dict[str, SlotDefinition] = field(default_factory=dict)
    associations: dict[str, AssociationDefinition] = field(default_factory=dict)
    types: dict[str, TypeDefinition] = field(default_factory=dict)

    def predicate_names(self) -> list[str]:
        return [n for n, s in self.slots.items() if s.slot_kind == PREDICATE]

    def is_predicate(self, name: str) -> bool:
        slot = self.slots.get(name)
        return slot is not None and slot.slot_kind == PREDICATE


@dataclass(frozen=True)
class SchemaViolation:
    """One broken schema rule; ``severity`` is ``error`` or ``warning``."""

    code: str
    severity: str
    element: str
    detail: str


# Violation codes emitted by validate_schema.
CYCLE_IN_IS_A = "CYCLE_IN_IS_A"
PREDICATE_NOT_UNDER_RELATED_TO = "PREDICATE_NOT_UNDER_RELATED_TO"
UNDECLARED_PREFIX = "UNDECLARED_PREFIX"
DUPLICATE_ID_PREFIX = "DUPLICATE_ID_PREFIX"
MIXIN_NOT_MIXIN = "MIXIN_NOT_MIXIN"
MIXIN_IS_A_NOT_MIXIN = "MIXIN_IS_A_NOT_MIXIN"
CLASS_IS_A_MIXIN = "CLASS_IS_A_MIXIN"
UNKNOWN_IS_A = "UNKNOWN_IS_A"
UNKNOWN_CLASS_REF = "UNKNOWN_CLASS_REF"
UNKNOWN_SLOT_REF = "UNKNOWN_SLOT_REF"
NOT_A_PREDICATE = "NOT_A_PREDICATE"
SLOT_NOT_EDGE_PROPERTY = "SLOT_NOT_EDGE_PROPERTY"
SLOT_KIND_MISMATCH = "SLOT_KIND_MISMATCH"
NAMESPACE_COLLISION = "NAMESPACE_COLLISION"
INVALID_MAPPING_RELATION = "INVALID_MAPPING_RELATION"
MALFORMED_MAPPING_TARGET = "MALFORMED_MAPPING_TARGET"
INVALID_TYPE_BASE = "INVALID_TYPE_BASE"
INVALID_SLOT_KIND = "INVALID_SLOT_KIND"
ASSOCIATION_WIDENS_PARENT = "ASSOCIATION_WIDENS_PARENT"
CLASS_NAME_STYLE = "CLASS_NAME_STYLE"
SLOT_NAME_STYLE = "SLOT_NAME_STYLE"
ASSOCIATION_NAME_STYLE = "ASSOCIATION_NAME_STYLE"
MIXIN_SLOT_SHADOWED = "MIXIN_SLOT_SHADOWED"

_TOP_KEYS = ("name", "version", "prefixes", "classes", "slots", "associations", "types")

MAX_IDENTIFIER_BYTES = blockyaml.MAX_KEY_BYTES


# ---------------------------------------------------------------------------
# Parsing


def _err(message: str, node: YamlNode) -> ParseError:
    return ParseError(message, node.line, node.column)


def _scalar(node: YamlNode, what: str) -> str:
    if not isinstance(node, Scalar):
        raise _err(f"{what} must be a single value", node)
    return node.value


def _ident(node: YamlNode, what: str) -> str:
    value = _scalar(node, what)
    if len(value.encode("utf-8")) > MAX_IDENTIFIER_BYTES:
        raise _err(f"identifier longer than {MAX_IDENTIFIER_BYTES} bytes", node)
    return value


def _bool(node: YamlNode, what: str) -> bool:
    value = _scalar(node, what)
    if value == "true":
        return True
    if value == "false":
        return False
    raise _err(f"{what} must be 'true' or 'false', got {value!r}", node)


def _ident_list(node: YamlNode, what: str) -> list[str]:
    if not isinstance(node, Sequence):
        raise _err(f"{what} must be a sequence", node)
    return [_ident(item, what) for item in node.items]


def _check_keys(block: MappingNode, allowed: Container[str], what: str, lax: bool) -> None:
    for key in block.entries:
        if key not in allowed:
            line, column = block.key_positions[key]
            if lax:
                warnings.warn(
                    f"ignoring unknown key {key!r} in {what} (line {line})",
                    SchemaFormatWarning,
                    stacklevel=3,
                )
            else:
                raise ParseError(f"unknown key {key!r} in {what}", line, column)


def _mapping_list(node: YamlNode, what: str, lax: bool) -> list[Mapping]:
    if not isinstance(node, Sequence):
        raise _err(f"{what} must be a sequence", node)
    out = []
    for item in node.items:
        if not isinstance(item, MappingNode):
            raise _err("each mapping must have relation and target keys", item)
        _check_keys(item, ("relation", "target"), what, lax)
        for required in ("relation", "target"):
            if required not in item.entries:
                raise _err(f"mapping missing {required!r}", item)
        out.append(
            Mapping(
                relation=_ident(item.entries["relation"], "relation"),
                target=_ident(item.entries["target"], "target"),
            )
        )
    return out


def _named_blocks(node: YamlNode, what: str) -> dict[str, MappingNode]:
    if not isinstance(node, MappingNode):
        raise _err(f"{what} must be a mapping of names to definition blocks", node)
    out: dict[str, MappingNode] = {}
    for name, block in node.entries.items():
        if not isinstance(block, MappingNode):
            raise _err(f"definition of {name!r} must be a mapping", block)
        out[name] = block
    return out


# Each definition kind's keys in canonical order, each with the reader that
# converts its value and whether it is required. Parsing, the unknown-key
# check and serialization all follow these tables.
_FIELDS: dict[str, dict[str, tuple[Callable, bool]]] = {
    "class": {
        "description": (_scalar, False),
        "is_a": (_ident, False),
        "is_mixin": (_bool, False),
        "mixins": (_ident_list, False),
        "slots": (_ident_list, False),
        "id_prefixes": (_ident_list, False),
        "mappings": (_mapping_list, False),
    },
    "slot": {
        "description": (_scalar, False),
        "is_a": (_ident, False),
        "slot_kind": (_ident, True),
        "domain": (_ident, False),
        "range": (_ident, False),
        "multivalued": (_bool, False),
        "required": (_bool, False),
        "symmetric": (_bool, False),
        "mappings": (_mapping_list, False),
    },
    "association": {
        "is_a": (_ident, False),
        "subject": (_ident, True),
        "predicate": (_ident, True),
        "object": (_ident, True),
        "required_edge_properties": (_ident_list, False),
        "optional_edge_properties": (_ident_list, False),
    },
    "type": {
        "base": (_ident, True),
        "description": (_scalar, False),
    },
}

# Each definition section of a document: its kind and its dataclass.
_SECTIONS: dict[str, tuple[str, type]] = {
    "classes": ("class", ClassDefinition),
    "slots": ("slot", SlotDefinition),
    "associations": ("association", AssociationDefinition),
    "types": ("type", TypeDefinition),
}


def _build(kind: str, cls: type, name: str, block: MappingNode, lax: bool):
    fields = _FIELDS[kind]
    _check_keys(block, fields, f"{kind} {name!r}", lax)
    entries = block.entries
    for key, (_, required) in fields.items():
        if required and key not in entries:
            raise _err(f"{kind} {name!r} is missing {key!r}", block)
    values = {}
    for key, (reader, _) in fields.items():
        if key in entries:
            node = entries[key]
            values[key] = _mapping_list(node, key, lax) if reader is _mapping_list else reader(node, key)
    return cls(name=name, **values)


def parse_schema(source_text: str, *, lax: bool = False) -> SchemaDocument:
    """Parse a schema document from its textual form.

    One leading byte order mark (U+FEFF) is dropped. Declaration order of
    prefixes and of every list field is preserved. Unknown keys raise
    :class:`ParseError` unless ``lax`` is set, in which case they are
    reported as :class:`SchemaFormatWarning` and skipped.
    """
    try:
        root = blockyaml.parse(source_text.removeprefix("\ufeff"))
    except DuplicateNameError as exc:
        section = exc.path[0] if len(exc.path) == 1 else None
        if section == "prefixes" or section in _SECTIONS:
            kind = _SECTIONS[section][0] if section in _SECTIONS else "prefix"
            raise DuplicateNameError(kind, exc.name, exc.line, exc.column) from exc
        raise
    _check_keys(root, _TOP_KEYS, "document", lax)
    for required in ("name", "version"):
        if required not in root.entries:
            raise ParseError(f"document is missing the {required!r} header", root.line, root.column)
    doc = SchemaDocument(
        name=_scalar(root.entries["name"], "name"),
        version=_scalar(root.entries["version"], "version"),
    )
    if "prefixes" in root.entries:
        block = root.entries["prefixes"]
        if not isinstance(block, MappingNode):
            raise _err("prefixes must be a mapping", block)
        for prefix, base in block.entries.items():
            doc.prefixes[prefix] = _scalar(base, f"prefix {prefix!r}")
    for section, (kind, cls) in _SECTIONS.items():
        if section in root.entries:
            definitions = getattr(doc, section)
            for name, block in _named_blocks(root.entries[section], section).items():
                definitions[name] = _build(kind, cls, name, block, lax)
    return doc


# ---------------------------------------------------------------------------
# Serialization


def serialize_schema(doc: SchemaDocument) -> str:
    """Render ``doc`` in canonical textual form.

    ``parse_schema(serialize_schema(doc))`` equals ``doc`` field for field.
    Raises :class:`ValueError` if a value cannot be written as a plain scalar.
    """
    out: list[str] = []
    blockyaml.emit_entry(out, 0, "name", doc.name)
    blockyaml.emit_entry(out, 0, "version", doc.version)
    if doc.prefixes:
        out.append("prefixes:")
        for prefix, base in doc.prefixes.items():
            blockyaml.emit_entry(out, 2, prefix, base)
    for section, (kind, cls) in _SECTIONS.items():
        definitions = getattr(doc, section)
        if not definitions:
            continue
        out.append(f"{section}:")
        defaults = {
            spec.name: spec.default if spec.default_factory is dataclasses.MISSING else spec.default_factory()
            for spec in dataclasses.fields(cls)
        }
        for definition in definitions.values():
            out.append(f"  {definition.name}:")
            written = len(out)
            for key, (reader, required) in _FIELDS[kind].items():
                value = getattr(definition, key)
                if not required and value == defaults[key]:
                    continue
                if reader is _bool:
                    blockyaml.emit_entry(out, 4, key, "true" if value else "false")
                elif reader is _ident_list:
                    blockyaml.emit_seq_of_scalars(out, 4, key, value)
                elif reader is _mapping_list:
                    _emit_mappings(out, value)
                else:
                    blockyaml.emit_entry(out, 4, key, value)
            if len(out) == written:
                # A definition block cannot be empty in the text format, and
                # only a class, which has no required key, can have every
                # field at its default: the explicit default keeps the round
                # trip faithful.
                blockyaml.emit_entry(out, 4, "is_mixin", "false")
    return "\n".join(out) + "\n"


def _emit_mappings(out: list[str], mappings: list[Mapping]) -> None:
    out.append("    mappings:")
    for m in mappings:
        blockyaml.check_emit_scalar(m.relation)
        blockyaml.check_emit_scalar(m.target)
        out.append(f"      - relation: {m.relation}")
        out.append(f"        target: {m.target}")


# ---------------------------------------------------------------------------
# Validation


def _find_cycles(parents: dict[str, str | None]) -> list[tuple[str, ...]]:
    """Distinct is_a cycles, each as a canonical sorted member tuple."""
    cycles: set[tuple[str, ...]] = set()
    state: dict[str, int] = {}  # 1 = in progress, 2 = done
    for start in parents:
        if state.get(start) == 2:
            continue
        path: list[str] = []
        node: str | None = start
        while node is not None and node in parents and state.get(node) != 2:
            if state.get(node) == 1:
                cycles.add(tuple(sorted(path[path.index(node):])))
                break
            state[node] = 1
            path.append(node)
            node = parents[node]
        for visited in path:
            state[visited] = 2
    return sorted(cycles)


def _fill_down(parents: dict[str, str | None], empty, extend, cache: dict) -> dict:
    """``extend(name, value of its parent)`` for every name, parents first.

    Each name climbs to the first name whose value is known, in ``cache``
    or computed, or past a root, and the values are filled back down the
    path, so a chain costs one pass. ``cache`` must hold every cycle member.
    """
    for name in parents:
        path: list[str] = []
        current = name
        while current in parents and current not in cache:
            path.append(current)
            current = parents[current]
        above = cache.get(current, empty)
        for member in reversed(path):
            above = extend(member, above)
            cache[member] = above
    return cache


def _chain(parents: dict[str, str | None], name: str) -> list[str]:
    """The is_a chain of ``name``, self first.

    It stops at a root, before an unknown parent, or once round the cycle
    it runs into.
    """
    chain = {name: None}  # an ordered set
    current = parents[name]
    while current in parents and current not in chain:
        chain[current] = None
        current = parents[current]
    return list(chain)


def _reachable(doc: SchemaDocument, start: str) -> list[str]:
    """Classes reachable from ``start`` through is_a and mixin links, in pre-order.

    A class comes first, then what its is_a reaches, then what each of its
    mixins reaches in declaration order. Unknown names are skipped, and
    each class is listed once.
    """
    out: list[str] = []
    seen: set[str] = set()
    stack = [start]
    while stack:
        current = stack.pop()
        if current in seen or current not in doc.classes:
            continue
        seen.add(current)
        out.append(current)
        cls = doc.classes[current]
        stack.extend(reversed(cls.mixins))
        if cls.is_a is not None:
            stack.append(cls.is_a)
    return out


class _Walk:
    """Each hierarchy of ``doc`` walked once, for validation and the closure.

    Cycles are found up front; slot chain tops, mixin reach, carriers and the
    classes reachable from each declared mixin on first use.
    """

    def __init__(self, doc: SchemaDocument):
        self.doc = doc
        self.class_parents = {n: c.is_a for n, c in doc.classes.items()}
        self.slot_parents = {n: s.is_a for n, s in doc.slots.items()}
        self.class_cycles = _find_cycles(self.class_parents)
        self.slot_cycles = _find_cycles(self.slot_parents)
        self._narrowing: dict[tuple[str, str], bool] = {}
        self._reached: dict[str, list[str]] = {}

    def reachable(self, start: str) -> list[str]:
        """``_reachable(doc, start)``, walked once per start."""
        found = self._reached.get(start)
        if found is None:
            found = self._reached[start] = _reachable(self.doc, start)
        return found

    def contribution(self, mixin: str) -> list[str]:
        """Slots of ``mixin`` in pre-order: own slots, then is_a, then mixins."""
        classes = self.doc.classes
        return [slot for name in self.reachable(mixin) for slot in classes[name].slots]

    @cached_property
    def slot_tops(self) -> dict[str, str]:
        """Per slot, the last name of its is_a chain (see :func:`_chain`).

        On a cycle that is the member whose parent is where the chain came in.
        """
        parents = self.slot_parents
        tops = {parents[m]: m for members in self.slot_cycles for m in members}
        return _fill_down(parents, None, lambda name, top: name if top is None else top, tops)

    @cached_property
    def reach(self) -> dict[str, frozenset[str]]:
        """Per class, the mixins reachable through is_a and mixin declarations.

        A class adds itself, when a mixin, and each declared mixin's reach,
        walked once per mixin, to its parent's set, and shares that set when
        it adds nothing. A cycle's members all reach what the cycle adds.
        """
        classes = self.doc.classes
        declared: dict[str, set[str]] = {}

        def own(name: str) -> set[str]:
            cls = classes[name]
            added = {name} if cls.is_mixin else set()
            for mixin in cls.mixins:
                if mixin not in declared:
                    declared[mixin] = {n for n in self.reachable(mixin) if classes[n].is_mixin}
                added |= declared[mixin]
            return added

        def extend(name: str, above: frozenset[str]) -> frozenset[str]:
            added = own(name)
            return above if added <= above else above | added

        cache: dict[str, frozenset[str]] = {}
        for members in self.class_cycles:
            cache.update(dict.fromkeys(members, frozenset().union(*map(own, members))))
        return _fill_down(self.class_parents, frozenset(), extend, cache)

    @cached_property
    def carriers(self) -> dict[str, frozenset[str]]:
        """Per mixin, the instantiable classes that reach it."""
        classes = self.doc.classes
        carriers: dict[str, set[str]] = {n: set() for n, c in classes.items() if c.is_mixin}
        for name, reach in self.reach.items():
            if not classes[name].is_mixin:
                for mixin in reach:
                    carriers[mixin].add(name)
        return {m: frozenset(c) for m, c in carriers.items()}

    def narrows(self, child: str, parent: str) -> bool:
        """True when class ``child`` denotes a subset of class ``parent`` for association checks.

        A mixin parent is narrowed by what reaches it, a class parent by its
        descendants, and by a mixin whose instantiable carriers all descend
        from it. Each class reaches itself or is its own first ancestor.
        Worked out once per pair.
        """
        known = self._narrowing.get((child, parent))
        if known is None:
            classes = self.doc.classes
            if classes[parent].is_mixin:
                known = parent in self.reach[child]
            elif classes[child].is_mixin:
                known = all(self.narrows(c, parent) for c in self.carriers[child])
            else:
                known = parent in _chain(self.class_parents, child)
            self._narrowing[(child, parent)] = known
        return known


def effective_slots(doc: SchemaDocument, class_name: str) -> list[str]:
    """All slots applicable to instances of ``class_name``.

    Order: the class's own slots, then slots inherited along the is_a chain
    (nearest ancestor first), then mixin contributions in declaration order
    (the class's own mixins before inherited ones). Duplicates keep their
    first position. Mixins only add slots here; they never affect ancestor
    queries on the instantiable tree.
    """
    if class_name not in doc.classes:
        raise UnknownClassError(class_name)
    ordered: list[str] = []
    seen: set[str] = set()

    def add(slots: list[str]) -> None:
        for slot in slots:
            if slot not in seen:
                seen.add(slot)
                ordered.append(slot)

    walk = _Walk(doc)
    chain = _chain(walk.class_parents, class_name)
    for name in chain:
        add(doc.classes[name].slots)
    for name in chain:
        for mixin in doc.classes[name].mixins:
            add(walk.contribution(mixin))
    return ordered


def validate_schema(doc: SchemaDocument) -> list[SchemaViolation]:
    """Check every structural rule; an empty result means the schema is valid.

    Violations are data, never exceptions, and are returned in a canonical
    order that does not depend on declaration order.
    """
    return _schema_violations(doc, _Walk(doc))


def _schema_violations(doc: SchemaDocument, walk: _Walk) -> list[SchemaViolation]:
    """:func:`validate_schema` on a walk of ``doc`` that the caller goes on to read."""
    out: list[SchemaViolation] = []

    def err(code: str, element: str, detail: str) -> None:
        out.append(SchemaViolation(code, "error", element, detail))

    def warn(code: str, element: str, detail: str) -> None:
        out.append(SchemaViolation(code, "warning", element, detail))

    # Disjoint namespaces for classes and slots.
    for name in sorted(set(doc.classes) & set(doc.slots)):
        err(NAMESPACE_COLLISION, name, "name is declared both as a class and as a slot")

    # Classes.
    for name, cls in doc.classes.items():
        if not _CAMEL_RE.match(name):
            warn(CLASS_NAME_STYLE, name, "class names should be UpperCamelCase")
        if cls.is_a is not None:
            parent = doc.classes.get(cls.is_a)
            if parent is None:
                err(UNKNOWN_IS_A, name, f"is_a target {cls.is_a!r} is not a class")
            elif cls.is_mixin and not parent.is_mixin:
                err(MIXIN_IS_A_NOT_MIXIN, name, f"mixin extends non-mixin {cls.is_a!r}")
            elif not cls.is_mixin and parent.is_mixin:
                err(CLASS_IS_A_MIXIN, name, f"class extends mixin {cls.is_a!r}")
        for mixin in cls.mixins:
            target = doc.classes.get(mixin)
            if target is None:
                err(UNKNOWN_CLASS_REF, name, f"mixin {mixin!r} is not a class")
            elif not target.is_mixin:
                err(MIXIN_NOT_MIXIN, name, f"mixin list names non-mixin {mixin!r}")
        seen_prefixes: set[str] = set()
        for prefix in cls.id_prefixes:
            if prefix in seen_prefixes:
                err(DUPLICATE_ID_PREFIX, name, f"prefix {prefix!r} listed twice")
            seen_prefixes.add(prefix)
            if prefix not in doc.prefixes:
                err(UNDECLARED_PREFIX, name, f"prefix {prefix!r} is not declared")
        for slot in cls.slots:
            if slot not in doc.slots:
                err(UNKNOWN_SLOT_REF, name, f"slot {slot!r} is not declared")
        _check_mappings(cls.mappings, name, err)

    for members in walk.class_cycles:
        err(CYCLE_IN_IS_A, members[0], "class is_a cycle: " + " -> ".join(members))

    # Slots.
    for name, slot in doc.slots.items():
        if not _SNAKE_RE.match(name):
            warn(SLOT_NAME_STYLE, name, "slot names should be snake_case")
        if slot.slot_kind not in SLOT_KINDS:
            err(INVALID_SLOT_KIND, name, f"slot_kind {slot.slot_kind!r} is not one of {SLOT_KINDS}")
        if slot.is_a is not None:
            parent = doc.slots.get(slot.is_a)
            if parent is None:
                err(UNKNOWN_IS_A, name, f"is_a target {slot.is_a!r} is not a slot")
            elif parent.slot_kind != slot.slot_kind:
                err(
                    SLOT_KIND_MISMATCH,
                    name,
                    f"{slot.slot_kind} slot extends {parent.slot_kind} slot {slot.is_a!r}",
                )
        if slot.domain is not None and slot.domain not in doc.classes:
            err(UNKNOWN_CLASS_REF, name, f"domain {slot.domain!r} is not a class")
        if slot.range is not None and not (
            slot.range in doc.classes or slot.range in doc.types or slot.range in TYPE_BASES
        ):
            err(UNKNOWN_CLASS_REF, name, f"range {slot.range!r} is not a class or type")
        _check_mappings(slot.mappings, name, err)

    for members in walk.slot_cycles:
        err(CYCLE_IN_IS_A, members[0], "slot is_a cycle: " + " -> ".join(members))
    on_cycle = {name for members in walk.slot_cycles for name in members}

    # Every predicate must sit under the root predicate.
    for name, slot in doc.slots.items():
        if slot.slot_kind != PREDICATE or name in on_cycle:
            continue
        if name == ROOT_PREDICATE:
            if slot.is_a is not None:
                err(PREDICATE_NOT_UNDER_RELATED_TO, name, "the root predicate must have no parent")
            continue
        top = walk.slot_tops[name]
        if top != ROOT_PREDICATE or doc.slots[top].slot_kind != PREDICATE:
            err(
                PREDICATE_NOT_UNDER_RELATED_TO,
                name,
                f"predicate does not reach {ROOT_PREDICATE!r} via is_a",
            )

    # Associations.
    for name, assoc in doc.associations.items():
        if not name.endswith("Association") or not _CAMEL_RE.match(name):
            warn(
                ASSOCIATION_NAME_STYLE,
                name,
                "association names should be UpperCamelCase and end in 'Association'",
            )
        if assoc.is_a is not None and assoc.is_a not in doc.associations:
            err(UNKNOWN_IS_A, name, f"is_a target {assoc.is_a!r} is not an association")
        for side, target in (("subject", assoc.subject), ("object", assoc.object)):
            if target not in doc.classes:
                err(UNKNOWN_CLASS_REF, name, f"{side} {target!r} is not a class")
        pred = doc.slots.get(assoc.predicate)
        if pred is None:
            err(UNKNOWN_SLOT_REF, name, f"predicate {assoc.predicate!r} is not a slot")
        elif pred.slot_kind != PREDICATE:
            err(NOT_A_PREDICATE, name, f"{assoc.predicate!r} is a {pred.slot_kind}, not a predicate")
        for prop in assoc.required_edge_properties + assoc.optional_edge_properties:
            target_slot = doc.slots.get(prop)
            if target_slot is None:
                err(UNKNOWN_SLOT_REF, name, f"edge property {prop!r} is not a slot")
            elif target_slot.slot_kind != EDGE_PROPERTY:
                err(SLOT_NOT_EDGE_PROPERTY, name, f"{prop!r} is a {target_slot.slot_kind}")

    for members in _find_cycles({n: a.is_a for n, a in doc.associations.items()}):
        err(CYCLE_IN_IS_A, members[0], "association is_a cycle: " + " -> ".join(members))

    # Child associations may only narrow their parent's constraints. The
    # check runs per association, only when both ends' references resolve.
    for name, assoc in doc.associations.items():
        parent = doc.associations.get(assoc.is_a) if assoc.is_a else None
        if parent is None:
            continue
        refs = (assoc.subject, assoc.object, parent.subject, parent.object)
        if any(ref not in doc.classes for ref in refs):
            continue
        if assoc.predicate not in doc.slots or parent.predicate not in doc.slots:
            continue
        for side, child_t, parent_t in (
            ("subject", assoc.subject, parent.subject),
            ("object", assoc.object, parent.object),
        ):
            if not walk.narrows(child_t, parent_t):
                err(
                    ASSOCIATION_WIDENS_PARENT,
                    name,
                    f"{side} {child_t!r} is not a specialization of {parent_t!r}",
                )
        if parent.predicate not in _chain(walk.slot_parents, assoc.predicate):
            err(
                ASSOCIATION_WIDENS_PARENT,
                name,
                f"predicate {assoc.predicate!r} is not a descendant of {parent.predicate!r}",
            )

    # Types.
    for name, typ in doc.types.items():
        if typ.base not in TYPE_BASES:
            err(INVALID_TYPE_BASE, name, f"base {typ.base!r} is not one of {TYPE_BASES}")

    # Two declared mixins contributing the same slot: first declaration wins.
    for name, cls in doc.classes.items():
        first_source: dict[str, str] = {}
        for mixin in cls.mixins:
            for slot in walk.contribution(mixin):
                if slot in first_source and first_source[slot] != mixin:
                    warn(
                        MIXIN_SLOT_SHADOWED,
                        name,
                        f"slot {slot!r} from {mixin!r} is shadowed by {first_source[slot]!r}",
                    )
                else:
                    first_source.setdefault(slot, mixin)

    out.sort(key=lambda v: (v.code, v.element, v.detail))
    return out


def _check_mappings(mappings: list[Mapping], element: str, err) -> None:
    for m in mappings:
        if m.relation not in MAPPING_RELATIONS:
            err(
                INVALID_MAPPING_RELATION,
                element,
                f"mapping relation {m.relation!r} is not one of {MAPPING_RELATIONS}",
            )
        if not is_curie(m.target):
            err(MALFORMED_MAPPING_TARGET, element, f"mapping target {m.target!r} is not a CURIE")
