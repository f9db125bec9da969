"""Reader and writer for a strict block-style subset of YAML.

The accepted grammar is deliberately small: block mappings, block sequences,
and single-line plain scalars. Anything else that full YAML would accept is
rejected with a position-carrying :class:`~kgschema.errors.ParseError`:

* no flow style (``{...}``, ``[...]``), anchors/aliases (``&``, ``*``),
  tags (``!``), or quoted/block scalars (``"``, ``'``, ``|``, ``>``)
* no directives or document markers (``%``, ``---``, ``...``)
* no tab characters anywhere
* no duplicate keys within one mapping
* nesting deeper than ``MAX_DEPTH`` blocks is rejected

Comments start at a ``#`` that is at the start of content or preceded by a
space. A sequence item may open a mapping on the dash line
(``- key: value``); its continuation lines must be indented exactly two
columns past the dash. All scalars are returned as raw strings; callers do
any typed interpretation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, Union

from .errors import DuplicateNameError, ParseError

MAX_KEY_BYTES = 256
MAX_DEPTH = 8  # the document root is depth 1

# Where a mapping key ends: the first ':' followed by a space or the line end.
_KEY_END_RE = re.compile(r":(?: |\Z)")

# Characters that would select a YAML feature outside the subset when they
# start a scalar.
_FORBIDDEN_SCALAR_START = set('"\'{[&*!|>%@`')


@dataclass(slots=True)
class Scalar:
    value: str
    line: int
    column: int


@dataclass(slots=True)
class Sequence:
    items: list["YamlNode"] = field(default_factory=list)
    line: int = 0
    column: int = 0


@dataclass(slots=True)
class MappingNode:
    entries: dict[str, "YamlNode"] = field(default_factory=dict)
    key_positions: dict[str, tuple[int, int]] = field(default_factory=dict)
    line: int = 0
    column: int = 0


YamlNode = Union[Scalar, Sequence, MappingNode]


class _Line(NamedTuple):
    number: int
    indent: int  # 0-based column where content starts
    text: str


def _strip_comment(text: str) -> str:
    if text.startswith("#"):
        return ""
    pos = text.find(" #")
    if pos >= 0:
        return text[:pos]
    return text


def _prepare(source: str) -> list[_Line]:
    lines: list[_Line] = []
    for number, raw in enumerate(source.split("\n"), start=1):
        if raw.endswith("\r"):
            raw = raw[:-1]
        if "\t" in raw:
            raise ParseError("tab character not allowed", number, raw.index("\t") + 1)
        stripped = raw.lstrip(" ")
        indent = len(raw) - len(stripped)
        content = _strip_comment(stripped).rstrip(" ")
        if not content:
            continue
        if content.startswith("---") or content.startswith("...") or content.startswith("%"):
            raise ParseError(
                f"document markers and directives are not supported: {content.split()[0]!r}",
                number,
                indent + 1,
            )
        lines.append(_Line(number, indent, content))
    return lines


def _check_scalar(value: str, line: int, column: int) -> Scalar:
    if value[0] in _FORBIDDEN_SCALAR_START:
        raise ParseError(
            f"unsupported scalar syntax starting with {value[0]!r} (plain scalars only)",
            line,
            column,
        )
    return Scalar(value, line, column)


def _split_key(text: str, line: int, column: int) -> tuple[str, str]:
    """Split a mapping-entry line where its key ends."""
    end = _KEY_END_RE.search(text)
    if end is None:
        raise ParseError(f"expected 'key: value' or 'key:', got {text!r}", line, column)
    key = text[: end.start()]
    if not key:
        raise ParseError("empty mapping key", line, column)
    if " " in key:
        raise ParseError(f"mapping key {key!r} contains a space", line, column)
    if len(key.encode("utf-8")) > MAX_KEY_BYTES:
        raise ParseError(f"identifier longer than {MAX_KEY_BYTES} bytes", line, column)
    return key, text[end.end() :].lstrip(" ")


class _Parser:
    def __init__(self, lines: list[_Line]):
        self.lines = lines
        self.pos = 0
        self.path: list[str] = []  # key path to the block being parsed

    def _peek(self) -> _Line | None:
        if self.pos < len(self.lines):
            return self.lines[self.pos]
        return None

    def parse_block(self, indent: int, depth: int) -> YamlNode:
        if depth > MAX_DEPTH:
            cur = self.lines[self.pos]
            raise ParseError(f"nesting depth exceeds {MAX_DEPTH}", cur.number, cur.indent + 1)
        cur = self.lines[self.pos]
        if cur.text == "-" or cur.text.startswith("- "):
            return self.parse_sequence(indent, depth)
        return self.parse_mapping(indent, depth)

    def parse_mapping(self, indent: int, depth: int) -> MappingNode:
        start = self.lines[self.pos]
        node = MappingNode(line=start.number, column=start.indent + 1)
        while True:
            cur = self._peek()
            if cur is None or cur.indent < indent:
                break
            if cur.indent > indent:
                raise ParseError("unexpected indentation", cur.number, cur.indent + 1)
            if cur.text == "-" or cur.text.startswith("- "):
                raise ParseError(
                    "sequence item where a mapping entry was expected",
                    cur.number,
                    cur.indent + 1,
                )
            key, rest = _split_key(cur.text, cur.number, cur.indent + 1)
            if key in node.entries:
                error = DuplicateNameError("key", key, cur.number, cur.indent + 1)
                error.path = tuple(self.path)
                raise error
            if rest:
                value_col = cur.indent + len(key) + 3
                node.entries[key] = _check_scalar(rest, cur.number, value_col)
                self.pos += 1
            else:
                self.pos += 1
                child = self._peek()
                if child is None or child.indent <= indent:
                    raise ParseError(
                        f"missing value for key {key!r}", cur.number, cur.indent + 1
                    )
                self.path.append(key)
                node.entries[key] = self.parse_block(child.indent, depth + 1)
                self.path.pop()
            node.key_positions[key] = (cur.number, cur.indent + 1)
        return node

    def parse_sequence(self, indent: int, depth: int) -> Sequence:
        start = self.lines[self.pos]
        node = Sequence(line=start.number, column=start.indent + 1)
        while True:
            cur = self._peek()
            if cur is None or cur.indent < indent:
                break
            if cur.indent > indent:
                raise ParseError("unexpected indentation", cur.number, cur.indent + 1)
            if not (cur.text == "-" or cur.text.startswith("- ")):
                raise ParseError(
                    "mapping entry where a sequence item was expected",
                    cur.number,
                    cur.indent + 1,
                )
            rest = cur.text[2:].lstrip(" ") if cur.text != "-" else ""
            if rest:
                if _looks_like_entry(rest):
                    # Compact form: the mapping starts on the dash line and
                    # continues at dash column + 2.
                    self.lines[self.pos] = _Line(cur.number, indent + 2, rest)
                    node.items.append(self.parse_mapping(indent + 2, depth + 1))
                else:
                    node.items.append(_check_scalar(rest, cur.number, cur.indent + 3))
                    self.pos += 1
            else:
                self.pos += 1
                child = self._peek()
                if child is None or child.indent <= indent:
                    raise ParseError("empty sequence item", cur.number, cur.indent + 1)
                node.items.append(self.parse_block(child.indent, depth + 1))
        return node


def _looks_like_entry(text: str) -> bool:
    end = _KEY_END_RE.search(text)
    return end is not None and end.start() > 0 and " " not in text[: end.start()]


def parse(source: str) -> MappingNode:
    """Parse ``source`` into a tree of mappings, sequences, and scalars.

    The document root must be a mapping. Raises :class:`ParseError` on any
    construct outside the subset, and on nesting deeper than ``MAX_DEPTH``.
    """
    lines = _prepare(source)
    if not lines:
        raise ParseError("empty document", 1, 1)
    first = lines[0]
    if first.indent != 0:
        raise ParseError("top-level content must start at column 1", first.number, first.indent + 1)
    parser = _Parser(lines)
    root = parser.parse_block(0, 1)
    if not isinstance(root, MappingNode):
        raise ParseError("document root must be a mapping", first.number, 1)
    leftover = parser._peek()
    if leftover is not None:
        raise ParseError("unexpected content after document", leftover.number, leftover.indent + 1)
    return root


# ---------------------------------------------------------------------------
# Emission

def _representable(value: str) -> bool:
    if not value:
        return False
    if value[0] in _FORBIDDEN_SCALAR_START:
        return False
    if "\t" in value or "\n" in value or " #" in value:
        return False
    if value[0] == "#" or value != value.strip(" "):
        return False
    return True


def check_emit_scalar(value: str, *, as_item: bool = False) -> str:
    """Validate that ``value`` survives a round trip as a plain scalar."""
    if not _representable(value):
        raise ValueError(f"value not representable as a plain scalar: {value!r}")
    if as_item and (_looks_like_entry(value) or value == "-" or value.startswith("- ")):
        raise ValueError(f"sequence item would reparse as a mapping: {value!r}")
    return value


def emit_entry(out: list[str], indent: int, key: str, value: str) -> None:
    check_emit_scalar(value)
    out.append(" " * indent + f"{key}: {value}")


def emit_seq_of_scalars(out: list[str], indent: int, key: str, values: list[str]) -> None:
    out.append(" " * indent + f"{key}:")
    for value in values:
        check_emit_scalar(value, as_item=True)
        out.append(" " * (indent + 2) + f"- {value}")
