"""Compact identifiers, IRI expansion, and preference-order normalization.

A clique groups identifiers asserted to denote one real-world entity; the
preferred member is chosen from the ``id_prefixes`` of the clique's most
specific category, walking up the class hierarchy when a class declares
none. Identifiers outside every clique pass through unchanged so that
pipelines never fail on unmapped vocabulary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import (
    EmptyCliqueError,
    MalformedCurieError,
    NoMatchingBaseError,
    OverlappingCliquesError,
    ParseError,
    UndeclaredPrefixError,
    UnknownClassError,
)

if TYPE_CHECKING:
    from .hierarchy import ClosureIndex
    from .schema_model import SchemaDocument

NO_PREFERENCE_MATCH = "NO_PREFERENCE_MATCH"

_WHITESPACE_RE = re.compile(r"\s")
# The one CURIE shape rule: the first colon has text on both sides, and no
# character is whitespace. Loops over many values map its ``fullmatch``.
_CURIE_RE = re.compile(r"[^:\s]+:\S+")


# A compact identifier ``prefix:local_id``: the text parse_curie accepted.
# The prefix ends at the first colon; the local id may hold more colons.
Curie = str


def is_curie(text: str) -> bool:
    """Whether ``text`` has the CURIE shape of ``_CURIE_RE``."""
    return _CURIE_RE.fullmatch(text) is not None


def parse_curie(text: str) -> Curie:
    """Return ``text`` itself when :func:`is_curie` accepts it.

    Leading or trailing whitespace is an error, not trimmed. The error
    names the missing ``prefix:local_id`` shape first, then whitespace.
    """
    if is_curie(text):
        return text
    # Whitespace made into another character keeps the shape: if that
    # passes, whitespace alone failed.
    if is_curie(_WHITESPACE_RE.sub("_", text)):
        raise MalformedCurieError(f"whitespace in identifier: {text!r}")
    raise MalformedCurieError(f"not a prefix:local_id pair: {text!r}")


def expand_iri(curie: Curie, prefixes: dict[str, str]) -> str:
    """Concatenate the declared base for the prefix of ``curie`` with its local id."""
    prefix, _, local_id = curie.partition(":")
    base = prefixes.get(prefix)
    if base is None:
        raise UndeclaredPrefixError(prefix)
    return base + local_id


def contract_iri(iri: str, prefixes: dict[str, str]) -> Curie:
    """Invert :func:`expand_iri`, preferring the longest matching base.

    If two prefixes declare the same base, the first declared wins.
    """
    best: Curie | None = None
    best_len = -1
    for prefix, base in prefixes.items():
        if iri.startswith(base) and len(base) > best_len and len(iri) > len(base):
            best = f"{prefix}:{iri[len(base):]}"
            best_len = len(base)
    if best is None:
        raise NoMatchingBaseError(f"no declared IRI base matches {iri!r}")
    return best


@dataclass(frozen=True)
class Clique:
    members: frozenset[Curie]
    categories: frozenset[str]


@dataclass
class EquivalenceTable:
    """Disjoint cliques of equivalent identifiers, indexed by member."""

    cliques: list[Clique] = field(default_factory=list)
    member_index: dict[Curie, int] = field(default_factory=dict)

    def clique_of(self, curie: Curie) -> Clique | None:
        ordinal = self.member_index.get(curie)
        if ordinal is None:
            return None
        return self.cliques[ordinal]


def load_equivalences(source_text: str) -> EquivalenceTable:
    """Read the one-clique-per-line equivalence format.

    Each line is ``category1|category2<TAB>curie1|curie2``; ``#`` starts a
    comment line. Empty list values are skipped, as in graph cells. One
    leading byte order mark (U+FEFF) is dropped. An identifier appearing in
    two cliques raises :class:`OverlappingCliquesError`.
    """
    table = EquivalenceTable()
    for number, raw in enumerate(source_text.removeprefix("\ufeff").split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(
                f"expected 'categories<TAB>curies', got {len(parts)} field(s)", number, 1
            )
        categories = frozenset(c for c in parts[0].split("|") if c)
        if not categories:
            raise ParseError("clique has no categories", number, 1)
        members: dict[Curie, None] = {}  # in line order: an overlap names its first member
        for chunk in filter(None, parts[1].split("|")):
            try:
                members[parse_curie(chunk)] = None
            except MalformedCurieError as exc:
                raise ParseError(str(exc), number, 1) from exc
        if not members:
            raise ParseError("clique has no members", number, 1)
        ordinal = len(table.cliques)
        for member in members:
            if member in table.member_index:
                raise OverlappingCliquesError(
                    f"identifier {member} already belongs to another clique", number, 1
                )
            table.member_index[member] = ordinal
        table.cliques.append(Clique(frozenset(members), categories))
    return table


def preferred_identifier(
    clique_members: set[Curie],
    category: str,
    doc: SchemaDocument,
    index: ClosureIndex,
) -> tuple[Curie, str]:
    """Pick the member whose prefix ranks highest for ``category``.

    Returns the chosen identifier and a provenance note: either
    ``PREFERENCE_MATCH:<class>:<prefix>`` naming the class whose id_prefixes
    decided, or ``NO_PREFERENCE_MATCH`` with the lexicographically smallest
    member as fallback. Among members sharing the winning prefix the
    smallest local id wins.
    """
    if not clique_members:
        raise EmptyCliqueError("empty clique")
    if category not in index.class_ancestors:
        raise UnknownClassError(category)
    # The nearest ancestor (the class itself first) with id_prefixes decides.
    for owner in index.class_ancestors[category]:
        preference = doc.classes[owner].id_prefixes
        if preference:
            rank = {prefix: position for position, prefix in enumerate(preference)}
            ranked = []
            for member in clique_members:
                prefix, _, local_id = member.partition(":")
                if prefix in rank:
                    ranked.append((rank[prefix], local_id, member))
            if ranked:
                position, _, best = min(ranked)
                return best, f"PREFERENCE_MATCH:{owner}:{preference[position]}"
            break
    fallback = min(clique_members)
    return fallback, NO_PREFERENCE_MATCH


def normalize_curie(
    table: EquivalenceTable,
    curie: Curie,
    doc: SchemaDocument,
    index: ClosureIndex,
) -> Curie:
    """Map ``curie`` to its clique's preferred identifier.

    Identity on identifiers that belong to no clique. The clique's category
    for preference lookup is the most specific of its declared categories.
    """
    clique = table.clique_of(curie)
    if clique is None:
        return curie
    category = index.most_specific_category(set(clique.categories))
    preferred, _ = preferred_identifier(set(clique.members), category, doc, index)
    return preferred
