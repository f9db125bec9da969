"""Transitive-closure indexes over class, mixin, and predicate hierarchies.

The closure is materialized eagerly: the schema is small and read-mostly,
while validation and querying consult it per edge. Mixin reachability is
kept in its own map so that mixins never change a class's position in the
instantiable tree.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import filterfalse

from .errors import (
    EmptyCategorySetError,
    IncomparableCategoriesWarning,
    SchemaNotValidError,
    UnknownClassError,
    UnknownPredicateError,
)
from .schema_model import PREDICATE, SchemaDocument, _fill_down, _schema_violations, _Walk


@dataclass
class ClosureIndex:
    """Precomputed reachability over one schema. Immutable after build,
    apart from the caches of :meth:`profile`, :meth:`category_expansion`,
    :meth:`predicate_expansion` and :meth:`below`, which never change a result.

    Ancestor lists are reflexive and ordered self-first, then nearest to
    farthest. Descendant sets are the exact duals of the ancestor lists.
    ``mixin_membership`` maps every class to the mixins reachable through
    its own mixin declarations and those of its ancestors, and
    ``id_prefixes`` to the id prefixes it and its ancestors declare.
    """

    class_ancestors: dict[str, list[str]] = field(default_factory=dict)
    class_descendants: dict[str, frozenset[str]] = field(default_factory=dict)
    predicate_ancestors: dict[str, list[str]] = field(default_factory=dict)
    predicate_descendants: dict[str, frozenset[str]] = field(default_factory=dict)
    mixin_membership: dict[str, frozenset[str]] = field(default_factory=dict)
    mixins: frozenset[str] = frozenset()
    mixin_carriers: dict[str, frozenset[str]] = field(default_factory=dict)
    id_prefixes: dict[str, frozenset[str]] = field(default_factory=dict)

    # Caches made on first use: category tuple -> CategoryProfile, and one
    # dict per kind of name-set answer (see _remember). Not fields, so they
    # stay out of __init__, equality and repr.
    _profiles = None

    def profile(self, categories: Sequence[str]) -> CategoryProfile:
        """What ``categories`` means under this index; one profile per distinct list.

        The profiles are a cache, kept for the life of this index: one
        entry per distinct category list looked up.
        """
        key = tuple(categories)
        profiles = self._profiles
        if profiles is None:  # threads that race here get one dict
            profiles = self.__dict__.setdefault("_profiles", {})
        found = profiles.get(key)
        if found is None:
            found = profiles.setdefault(key, CategoryProfile(key, self))
        return found

    def category_expansion(self, categories: frozenset[str]) -> frozenset[str]:
        """The classes a query's category set stands for; one answer per distinct set.

        A class stands for its descendants, a mixin for the classes that
        carry it. A name that is neither raises :class:`UnknownClassError`,
        on every call: a failure is not kept.
        """
        return _remember(self, "_category_expansions", categories, _expand_categories)

    def predicate_expansion(self, predicates: frozenset[str]) -> frozenset[str]:
        """:func:`expand_predicates` of ``predicates``, frozen; one answer per distinct set.

        An unknown name raises :class:`UnknownPredicateError` on every call.
        """
        return _remember(self, "_predicate_expansions", predicates, _expand_predicates)

    def below(self, categories: frozenset[str]) -> frozenset[str]:
        """The names at or below ``categories`` by ``is_a``; one answer per distinct set.

        Each class's descendants, and a name that is not a class kept as
        itself. A node category list meets ``categories`` under ancestors
        (shares a name with its profile's ``closure``) exactly when it
        shares a name with this set, since the descendant sets are the
        duals of the reflexive ancestor lists.
        """
        return _remember(self, "_below", categories, _below)

    def depth(self, class_name: str) -> int:
        return len(self.class_ancestors[class_name]) - 1

    def predicate_depth(self, predicate: str) -> int:
        return len(self.predicate_ancestors[predicate]) - 1


def _remember(index: ClosureIndex, cache_name: str, key: frozenset[str], make: Callable) -> frozenset[str]:
    """``make(index, key)``, kept in the index's cache ``cache_name``; a raise keeps nothing."""
    cache = index.__dict__.get(cache_name)
    if cache is None:  # threads that race here get one dict
        cache = index.__dict__.setdefault(cache_name, {})
    found = cache.get(key)
    if found is None:
        found = cache.setdefault(key, make(index, key))
    return found


def _expand_categories(index: ClosureIndex, categories: frozenset[str]) -> frozenset[str]:
    expanded: set[str] = set()
    for category in categories:
        if category not in index.class_ancestors:
            raise UnknownClassError(category)
        if category in index.mixins:
            expanded.update(index.mixin_carriers[category])
        else:
            expanded.update(index.class_descendants[category])
    return frozenset(expanded)


def _expand_predicates(index: ClosureIndex, predicates: frozenset[str]) -> frozenset[str]:
    return frozenset(expand_predicates(index, predicates))


def _below(index: ClosureIndex, categories: frozenset[str]) -> frozenset[str]:
    descendants = index.class_descendants
    return frozenset().union(*(descendants.get(name, (name,)) for name in categories))


def _invert(ancestors: dict[str, list[str]]) -> dict[str, frozenset[str]]:
    """Descendant sets from ancestor lists that follow one parent per name.

    Deepest names first, each name's set joins its parent's set, so a set
    is copied once per level instead of filled one member at a time.
    """
    down: dict[str, set[str]] = {name: {name} for name in ancestors}
    for name in sorted(ancestors, key=lambda n: len(ancestors[n]), reverse=True):
        ups = ancestors[name]
        if len(ups) > 1:
            down[ups[1]] |= down[name]
    return {name: frozenset(members) for name, members in down.items()}


def build_closure(doc: SchemaDocument) -> ClosureIndex:
    """Materialize ancestor/descendant reachability for ``doc``.

    Raises :class:`SchemaNotValidError`, holding the error-severity
    violations, if the schema has any (warnings are tolerated).
    """
    walk = _Walk(doc)
    errors = [v for v in _schema_violations(doc, walk) if v.severity == "error"]
    if errors:
        summary = ", ".join(sorted({v.code for v in errors}))
        raise SchemaNotValidError(f"schema has {len(errors)} error(s): {summary}", errors)
    # A valid schema has no is_a cycle, and a predicate's parent is a predicate.
    def prepend(name: str, above: list[str]) -> list[str]:
        return [name] + above

    def inherit(name: str, above: frozenset[str]) -> frozenset[str]:
        own = doc.classes[name].id_prefixes
        return above.union(own) if own else above

    class_ancestors = _fill_down(walk.class_parents, [], prepend, {})
    predicate_parents = {n: s.is_a for n, s in doc.slots.items() if s.slot_kind == PREDICATE}
    predicate_ancestors = _fill_down(predicate_parents, [], prepend, {})
    return ClosureIndex(
        class_ancestors=class_ancestors,
        class_descendants=_invert(class_ancestors),
        predicate_ancestors=predicate_ancestors,
        predicate_descendants=_invert(predicate_ancestors),
        mixin_membership=walk.reach,
        mixins=frozenset(walk.carriers),
        mixin_carriers=walk.carriers,
        id_prefixes=_fill_down(walk.class_parents, frozenset(), inherit, {}),
    )


def is_subclass_of(index: ClosureIndex, a: str, b: str, use_mixins: bool = False) -> bool:
    """True when ``b`` is an ancestor of ``a`` (reflexively).

    With ``use_mixins`` the mixins carried by ``a`` count as ancestors too.
    """
    ancestors = index.class_ancestors.get(a)
    if ancestors is None:
        raise UnknownClassError(a)
    if b not in index.class_ancestors:
        raise UnknownClassError(b)
    if b in ancestors:
        return True
    return use_mixins and b in index.mixin_membership[a]


def expand_predicates(index: ClosureIndex, predicates: set[str] | frozenset[str]) -> set[str]:
    """Union of descendant sets over ``predicates``; always a superset."""
    expanded: set[str] = set()
    for predicate in predicates:
        descendants = index.predicate_descendants.get(predicate)
        if descendants is None:
            raise UnknownPredicateError(predicate)
        expanded.update(descendants)
    return expanded


def minimal_categories(index: ClosureIndex, categories: set[str]) -> list[str]:
    """Members of ``categories`` with no other member below them, sorted.

    A member counts as below another when it descends from it in the
    instantiable tree or carries it as a mixin.
    """
    if not categories:
        raise EmptyCategorySetError("no categories given")
    for category in categories:
        if category not in index.class_ancestors:
            raise UnknownClassError(category)
    minimal = []
    for candidate in categories:
        descendants = index.class_descendants[candidate]
        carriers = index.mixin_carriers.get(candidate, frozenset())
        if not any(o in descendants or o in carriers for o in categories if o != candidate):
            minimal.append(candidate)
    return sorted(minimal)


def most_specific_category(index: ClosureIndex, categories: set[str]) -> str:
    """The category with no other member among its descendants or carriers.

    Ties between incomparable categories are broken by lexicographic order
    and reported with :class:`IncomparableCategoriesWarning`.
    """
    minimal = minimal_categories(index, categories)
    if len(minimal) > 1:
        warnings.warn(
            f"incomparable categories {minimal}; choosing {minimal[0]!r} lexicographically",
            IncomparableCategoriesWarning,
            stacklevel=2,
        )
    return minimal[0]


# identifiers, which loads none of the schema stack, reaches this through the
# index it is given. A plain function as a class attribute adds no frame, so
# the warning still names the line of its caller.
ClosureIndex.most_specific_category = most_specific_category


class CategoryProfile:
    """What one node category list means under one schema.

    ``known`` and ``unknown`` split the list in order, repeats kept.
    ``closure``, read by ``close_categories``, is the list, then each
    known name's ancestors nearest first, each added name once.
    ``most_specific`` and ``typed_closure`` are worked out on first use.
    """

    def __init__(self, categories: tuple[str, ...], index: ClosureIndex):
        ancestors = index.class_ancestors
        self.known = tuple(filter(ancestors.__contains__, categories))
        self.unknown = tuple(filterfalse(ancestors.__contains__, categories))
        declared = set(categories)
        added = dict.fromkeys(a for c in self.known for a in ancestors[c] if a not in declared)
        self.closure = categories + tuple(added)
        self._index = index

    @cached_property
    def most_specific(self) -> str | None:
        """The first of :func:`minimal_categories` over the known names; None if none is known."""
        return minimal_categories(self._index, set(self.known))[0] if self.known else None

    @cached_property
    def typed_closure(self) -> frozenset[str]:
        """The ancestors and carried mixins of the known names; validation reads it."""
        ancestors, mixins = self._index.class_ancestors, self._index.mixin_membership
        return frozenset().union(*(mixins[c].union(ancestors[c]) for c in self.known))
