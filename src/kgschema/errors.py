"""Exception and warning types shared across the package."""

from __future__ import annotations


class KgschemaError(Exception):
    """Base class for every error raised by this package."""


class ParseError(KgschemaError):
    """A source document violates its format.

    Carries the 1-based line and column of the offending token when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(str(self))

    def __str__(self) -> str:
        where = ""
        if self.line is not None:
            where = f"line {self.line}"
            if self.column is not None:
                where += f", column {self.column}"
            where += ": "
        return where + self.message


class DuplicateNameError(ParseError):
    """The same name declared twice for one kind of element.

    ``path`` holds the key path of the enclosing block when known, so
    callers can attribute the duplicate to an element kind.
    """

    path: tuple[str, ...] = ()

    def __init__(self, kind: str, name: str, line: int | None = None, column: int | None = None):
        self.kind = kind
        self.name = name
        super().__init__(f"duplicate {kind} name {name!r}", line, column)

    def __reduce__(self):
        return type(self), (self.kind, self.name, self.line, self.column), self.__dict__


class OverlappingCliquesError(ParseError):
    """An identifier appears in more than one equivalence clique."""


class MalformedCurieError(KgschemaError):
    """Text does not have the prefix:local_id shape of a compact identifier."""


class UndeclaredPrefixError(KgschemaError):
    """A compact identifier uses a prefix absent from the prefix map."""


class NoMatchingBaseError(KgschemaError):
    """No declared IRI base is a prefix of the given IRI."""


class _UnknownNameError(KgschemaError):
    """A name is not declared in the schema; ``name`` holds it."""

    kind = ""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown {self.kind} {name!r}")

    def __reduce__(self):
        return type(self), (self.name,)


class UnknownClassError(_UnknownNameError):
    """A class name is not declared in the schema."""

    kind = "class"


class UnknownPredicateError(_UnknownNameError):
    """A predicate name is not declared in the schema."""

    kind = "predicate"


class EmptyCliqueError(KgschemaError):
    """An equivalence clique with no members was supplied."""


class EmptyCategorySetError(KgschemaError):
    """An operation requiring at least one category received none."""


class SchemaNotValidError(KgschemaError):
    """An operation requiring a validated schema received one with errors.

    ``violations`` holds the error-severity violations found.
    """

    def __init__(self, message: str, violations=()):
        self.violations = list(violations)
        super().__init__(message)


class DanglingEdgeError(KgschemaError):
    """Strict graph construction found an edge referencing an absent node."""


class DisconnectedQueryError(KgschemaError):
    """A query graph is not weakly connected."""


class IncomparableCategoriesWarning(UserWarning):
    """Most-specific-category selection had to break a tie between unrelated names."""


class SchemaFormatWarning(UserWarning):
    """Lax parsing encountered a tolerated irregularity, e.g. an unknown key."""
