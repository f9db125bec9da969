"""Knowledge-graph schema toolkit.

Parse a hierarchical schema of classes, predicates, mixins, and
associations; normalize entity identifiers by preference order; validate
graph nodes and edges against the schema; and answer multi-hop pattern
queries with hierarchy-based predicate and category expansion.
"""

import importlib

# Each public name's defining module. The package imports a name's module
# when the name is first read (PEP 562), so a command loads only the
# modules it uses.
_HOMES = {
    "errors": (
        "DanglingEdgeError",
        "DisconnectedQueryError",
        "DuplicateNameError",
        "EmptyCategorySetError",
        "EmptyCliqueError",
        "IncomparableCategoriesWarning",
        "KgschemaError",
        "MalformedCurieError",
        "NoMatchingBaseError",
        "OverlappingCliquesError",
        "ParseError",
        "SchemaFormatWarning",
        "SchemaNotValidError",
        "UndeclaredPrefixError",
        "UnknownClassError",
        "UnknownPredicateError",
    ),
    "hierarchy": (
        "ClosureIndex",
        "build_closure",
        "expand_predicates",
        "is_subclass_of",
        "most_specific_category",
    ),
    "identifiers": (
        "Curie",
        "EquivalenceTable",
        "contract_iri",
        "expand_iri",
        "load_equivalences",
        "normalize_curie",
        "parse_curie",
        "preferred_identifier",
    ),
    "kg_store": (
        "Edge",
        "KnowledgeGraph",
        "Node",
        "NormalizationReport",
        "StatsReport",
        "build_graph",
        "close_categories",
        "graph_equal",
        "graph_stats",
        "normalize_graph",
        "read_edges",
        "read_nodes",
        "write_edges",
        "write_nodes",
    ),
    "query": ("Binding", "QueryGraph", "expand_query", "match", "parse_query"),
    "schema_model": (
        "AssociationDefinition",
        "ClassDefinition",
        "Mapping",
        "SchemaDocument",
        "SchemaViolation",
        "SlotDefinition",
        "TypeDefinition",
        "effective_slots",
        "parse_schema",
        "serialize_schema",
        "validate_schema",
    ),
    "validation": (
        "ValidationReport",
        "Violation",
        "validate_edge",
        "validate_graph",
        "validate_node",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"
# The version of the schema file format (``.kgs.yaml``) this package reads.
SCHEMA_FORMAT_VERSION = "1"

__all__ = [
    "AssociationDefinition",
    "Binding",
    "ClassDefinition",
    "ClosureIndex",
    "Curie",
    "DanglingEdgeError",
    "DisconnectedQueryError",
    "DuplicateNameError",
    "Edge",
    "EmptyCategorySetError",
    "EmptyCliqueError",
    "EquivalenceTable",
    "IncomparableCategoriesWarning",
    "KgschemaError",
    "KnowledgeGraph",
    "MalformedCurieError",
    "Mapping",
    "Node",
    "NoMatchingBaseError",
    "NormalizationReport",
    "OverlappingCliquesError",
    "ParseError",
    "QueryGraph",
    "SchemaDocument",
    "SchemaFormatWarning",
    "SchemaNotValidError",
    "SchemaViolation",
    "SlotDefinition",
    "StatsReport",
    "TypeDefinition",
    "UndeclaredPrefixError",
    "UnknownClassError",
    "UnknownPredicateError",
    "ValidationReport",
    "Violation",
    "build_closure",
    "build_graph",
    "close_categories",
    "contract_iri",
    "effective_slots",
    "expand_iri",
    "expand_predicates",
    "expand_query",
    "graph_equal",
    "graph_stats",
    "is_subclass_of",
    "load_equivalences",
    "match",
    "most_specific_category",
    "normalize_curie",
    "normalize_graph",
    "parse_curie",
    "parse_query",
    "parse_schema",
    "preferred_identifier",
    "read_edges",
    "read_nodes",
    "serialize_schema",
    "validate_edge",
    "validate_graph",
    "validate_node",
    "validate_schema",
    "write_edges",
    "write_nodes",
]


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
