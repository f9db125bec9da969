"""In-memory knowledge graph with TSV/JSONL ingestion and normalization.

Nodes are deduplicated by identifier and edges by their core triple;
property values merge by order-preserving union so provenance is never
dropped. The tabular format uses ``|`` to separate multiple values in a
cell, with no escaping: a literal ``|`` in a single-valued cell is a syntax
error. The writer raises ``ValueError`` rather than emit a tab, a line break
or a ``|`` inside a value, none of which would read back, or a property that
shares its name with a core column (``NODE_COLUMNS``, ``EDGE_COLUMNS``).
"""

from __future__ import annotations

import gc
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice, repeat
from operator import attrgetter, gt, is_, itemgetter, ne, or_
from typing import TYPE_CHECKING

from .errors import DanglingEdgeError, EmptyCategorySetError, MalformedCurieError, ParseError
from .identifiers import Curie, EquivalenceTable, normalize_curie, parse_curie

if TYPE_CHECKING:
    from .hierarchy import ClosureIndex
    from .schema_model import SchemaDocument

NODE_COLUMNS = ("id", "category", "name")
EDGE_COLUMNS = ("subject", "predicate", "object")


@dataclass(slots=True)
class Node:
    id: Curie
    categories: list[str]
    name: str | None = None
    properties: dict[str, list[str]] = field(default_factory=dict)


@dataclass(slots=True)
class Edge:
    subject: Curie
    predicate: str
    object: Curie
    properties: dict[str, list[str]] = field(default_factory=dict)

    def key(self) -> tuple[Curie, str, Curie]:
        return (self.subject, self.predicate, self.object)


@dataclass
class KnowledgeGraph:
    """Node map keyed by identifier plus an ordered, deduplicated edge list.

    The first :func:`~kgschema.query.match` on a graph caches an adjacency
    index of its edges on it (see :meth:`adjacency`). The index is rebuilt
    when ``edges`` is replaced or changes length; editing an edge of a
    matched graph in place, with the edge count unchanged, is not
    supported. Nodes may change freely.
    """

    nodes: dict[Curie, Node] = field(default_factory=dict)
    edges: list[Edge] = field(default_factory=list)

    # (edges, len(edges), by_subject, by_object); not a field, so it stays
    # out of __init__, equality and repr.
    _adjacency = None

    def adjacency(self) -> tuple[dict[Curie, list[int]], dict[Curie, list[int]]]:
        """Ordinals of every edge per node id, by stored subject and by stored object.

        Built in O(edges) on the first call and kept on this instance until
        ``edges`` is replaced or changes length. Dangling edges are indexed
        too: readers check that an end is in ``nodes``. An id with no edge
        is absent from the maps.
        """
        edges = self.edges
        cached = self._adjacency
        if cached is None or cached[0] is not edges or cached[1] != len(edges):
            by_subject: dict[Curie, list[int]] = {}
            by_object: dict[Curie, list[int]] = {}
            for ordinal, edge in enumerate(edges):
                by_subject.setdefault(edge.subject, []).append(ordinal)
                by_object.setdefault(edge.object, []).append(ordinal)
            cached = self._adjacency = (edges, len(edges), by_subject, by_object)
        return cached[2], cached[3]

    def dangling_edge_ordinals(self) -> list[int]:
        return [
            ordinal
            for ordinal, edge in enumerate(self.edges)
            if edge.subject not in self.nodes or edge.object not in self.nodes
        ]


@dataclass
class NormalizationReport:
    nodes_merged: int = 0
    edges_deduplicated: int = 0
    ids_rewritten: int = 0
    unknown_ids: int = 0
    name_conflicts: int = 0


@dataclass
class StatsReport:
    num_nodes: int
    num_edges: int
    nodes_by_category: dict[str, int]
    edges_by_predicate: dict[str, int]

    def as_dict(self) -> dict:
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "nodes_by_category": dict(sorted(self.nodes_by_category.items())),
            "edges_by_predicate": dict(sorted(self.edges_by_predicate.items())),
        }


@contextmanager
def _gc_paused():
    """Run the block with the cyclic GC off, then restore the caller's state.

    Bulk construction allocates millions of containers and frees almost
    none, so the collections it would trigger rescan a growing heap for
    nothing. A caller that had the GC off keeps it off; an exception
    restores the state too. Also a decorator.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Reading


def _distinct(values: list[str]) -> list[str]:
    """The nonempty values, first occurrences only: merged cells have union semantics."""
    found = dict.fromkeys(values)
    found.pop("", None)
    return list(found)


def _split_cell(cell: str) -> list[str]:
    if "|" not in cell:
        return [cell] if cell else []
    return _distinct(cell.split("|"))


def _split_column(cells) -> list[list[str]]:
    """``_split_cell`` of each cell; a column with no ``|`` and no empty cell in one pass."""
    if all(cells) and "|" not in "\t".join(cells):
        return [[cell] for cell in cells]
    return list(map(_split_cell, cells))


def _new_id(cache: dict[str, Curie], text: str, line: int) -> Curie:
    """``text`` checked as an id at ``line``, then kept in ``cache`` as the one object of its text."""
    try:
        cache[text] = parse_curie(text)
    except MalformedCurieError as exc:
        raise ParseError(str(exc), line, 1) from exc
    return text


def _new_ids_pass(cache: dict[str, Curie], *columns) -> bool:
    """Whether each id of ``columns`` that ``cache`` lacks is a CURIE; ``cache`` gains them as they pass."""
    new = set(columns[0]).union(*columns[1:]).difference(cache)
    try:
        cache.update(zip(new, map(parse_curie, new)))
    except MalformedCurieError:
        return False
    return True


def _rows(source_text: str, fmt: str | None, core: tuple[str, ...], what: str):
    """The blocks of the records of TSV or JSONL text, as ``(rows, columns)`` pairs.

    One leading byte order mark (U+FEFF) is dropped, then the format is
    sniffed when unset: JSONL when the first non-blank character starts a
    JSON object, array or string. Each format checks only its own syntax.
    ``rows`` yields ``(line number, core values, properties)`` per record
    of the block: core values in ``core`` order, the ``category`` value as
    a list of strings and every other one as a string, empty when absent.
    ``columns`` is None or holds the same records a column at a time, the
    syntax already checked (see ``_tsv_read_blocks`` and ``_jsonl_columns``);
    a reader then reads ``rows`` only when its screen of the columns finds
    a fault, to report it.
    """
    source_text = source_text.removeprefix("\ufeff")
    if fmt is None:
        fmt = "jsonl" if source_text.lstrip().startswith(("{", "[", '"')) else "tsv"
    if fmt == "jsonl":
        return (
            (_jsonl_rows(lines, number, core, what), _jsonl_columns(block, lines, core))
            for number, block, lines in _text_blocks(source_text, 0, 1)
        )
    return _tsv_read_blocks(source_text, core, f"{what}s")


# Characters of TSV or JSONL text that a reader screens at once; a block
# ends at the first line break past them. The row lists or decoded objects
# of a much larger block would outweigh the one list of every line that
# blocks replace.
_READ_BLOCK = 1 << 16


def _text_blocks(text: str, start: int, number: int):
    """Each block of ``text`` from ``start`` as ``(its first line's number, block, its lines)``.

    ``number`` is the number of the line at ``start``. A block is the lines
    that start within ``_READ_BLOCK`` characters of its first one, without
    the line break that ends the last.
    """
    size = len(text)
    while start < size:
        end = text.find("\n", start + _READ_BLOCK)
        if end < 0:
            end = size
        block = text[start:end]
        lines = block.split("\n")
        yield number, block, lines
        number += len(lines)
        start = end + 1


def _tsv_read_blocks(source_text: str, core: tuple[str, ...], what: str):
    """Check the header, then yield ``(rows, columns)`` per block of rows.

    ``rows`` is the block's row loop, ``_tsv_rows``, the one place of
    each syntax check and its message. ``columns`` is the screen: each
    core column as a sequence of cells, the ``category`` cells split into
    lists, and last each record's properties; or None when a row has the
    wrong width or a ``|`` in a single-valued core cell, or when the block
    holds blank lines only. Like the row loop, it drops trailing CRs and
    blank lines.
    """
    end = source_text.find("\n")
    if end < 0:
        end = len(source_text)
    first = source_text[:end]
    if not first.strip():
        raise ParseError(f"missing {what} header", 1, 1)
    header = first.rstrip("\r").split("\t")
    leading = len(core)
    if tuple(header[:leading]) != core:
        raise ParseError(f"{what} header must start with {list(core)}, got {header[:leading]}", 1, 1)
    if len(set(header)) != len(header):
        duplicate = next(name for name in header if header.count(name) > 1)
        raise ParseError(f"duplicate column {duplicate!r} in {what} header", 1, 1)
    width = len(header)
    extras = header[leading:]
    multi = core.index("category") if "category" in core else -1
    single = [i for i in range(leading) if i != multi]
    for number, block, lines in _text_blocks(source_text, end + 1, 2):
        rows = _tsv_rows(lines, number, core, extras)
        if "\r" in block:
            lines = [line.rstrip("\r") for line in lines]
        if "" in lines:
            lines = list(filter(None, lines))
        columns = None
        if set(map(str.count, lines, repeat("\t"))) == {width - 1}:
            cells = "\t".join(lines).split("\t")
            columns = [cells[i::width] for i in range(width)]
            if "|" in block and any("|" in "\t".join(columns[i]) for i in single):
                columns = None
            else:
                if multi >= 0:
                    columns[multi] = _split_column(columns[multi])
                columns[leading:] = [_tsv_properties(extras, columns[leading:], len(columns[0]))]
        yield rows, columns


def _tsv_properties(keys: list[str], columns: list, count: int) -> list[dict[str, list[str]]]:
    """Each of ``count`` rows' properties: each key whose cell in its column splits into values."""
    if not keys:
        return [{} for _ in range(count)]
    columns = list(map(_split_column, columns))
    if any([] in column for column in columns):  # an empty or separator-only cell
        return [{key: values for key, values in zip(keys, row) if values} for row in zip(*columns)]
    first, *rest = columns
    properties = [{keys[0]: values} for values in first]
    for key, column in zip(keys[1:], rest):
        for record, values in zip(properties, column):
            record[key] = values
    return properties


def _tsv_rows(lines: list[str], number: int, core: tuple[str, ...], extras: list[str]):
    """Check each row's width and its single-valued core cells; ``number`` is the first line's.

    A trailing CR is dropped. A ``|`` splits the ``category`` cell into
    values and is an error in any other core cell. Properties map each
    cell past ``core`` that holds a value to its values; a cell of
    separators only, like an empty one, gives no property. The yielded
    cells may run past ``core``.
    """
    leading = len(core)
    width = leading + len(extras)
    multi = core.index("category") if "category" in core else -1
    single = [(i, column) for i, column in enumerate(core) if i != multi]
    for number, raw in enumerate(lines, start=number):
        row = raw.rstrip("\r")
        if not row:
            continue
        cells = row.split("\t")
        if len(cells) != width:
            raise ParseError(f"expected {width} columns, got {len(cells)}", number, 1)
        if "|" in row:
            for i, column in single:
                if "|" in cells[i]:
                    raise ParseError(f"literal '|' in single-valued column {column!r}", number, 1)
        if multi >= 0:
            cells[multi] = _split_cell(cells[multi])
        properties = {}
        for column, cell in zip(extras, cells[leading:]):
            if cell and (values := _split_cell(cell)):
                properties[column] = values
        yield number, cells, properties


def _jsonl_columns(block: str, lines: list[str], core: tuple[str, ...]) -> list | None:
    """The screen of a block of JSONL lines: its records a column at a time, or None.

    The block's nonblank lines are decoded as one JSON array, taken only
    when every line starts with ``{``, the block holds no other ``{``,
    and the array holds one object per line. Strict JSON has no raw line
    break inside a string, so each line's ``{`` then opens its own
    top-level object, the only one on the line, and no line holds
    anything else: each object is the one ``json.loads`` gives for its
    line alone. The columns are the core values in ``core`` order, absent
    or null read as ``""``, then each record's object, which keeps its
    other keys as its properties, sorted when they were not. A block is
    taken only when each core value but ``category`` is a string,
    ``category`` and each property an array of strings, and no key or
    string holds an unpaired surrogate. Arrays are then cleaned as the row
    loop cleans them: each keeps its distinct nonempty strings, and a
    property left with none is dropped. Equal property keys of a block are
    one object each, as the decoder makes them.
    """
    if "" in lines:
        lines = list(filter(None, lines))
    if not lines or set(map(itemgetter(0), lines)) != {"{"} or block.count("{") != len(lines):
        return None
    try:
        records = json.loads("[" + ",\n".join(lines) + "]")
    except (ValueError, RecursionError):  # a decode error, or an integer too long for int()
        return None
    if len(records) != len(lines) or set(map(type, records)) != {dict}:
        return None
    if "\\" in block and "\\u" in block:  # the one-character test is the fast one
        try:
            for record in records:
                _reject_surrogates(record, 0)
        except ParseError:
            return None
    sizes = list(map(len, records))
    columns = [list(map(dict.pop, records, repeat(name), repeat(None))) for name in core]
    multi = -1
    for i, name in enumerate(core):
        kinds = set(map(type, columns[i]))
        if name == "category":
            if kinds != {list}:
                return None
            multi = i
        elif kinds != {str}:
            if not kinds <= {str, type(None)}:
                return None
            columns[i] = ["" if value is None else value for value in columns[i]]
    arrays = list(chain.from_iterable(map(dict.values, records)))
    if multi >= 0:
        arrays += columns[multi]
    if not set(map(type, arrays)) <= {list}:
        return None
    items = list(chain.from_iterable(arrays))
    try:
        "".join(items)  # raises on an item that is not a string
    except TypeError:
        return None
    if not _json_arrays_clean(arrays, items):
        if multi >= 0:
            columns[multi] = list(map(_distinct, columns[multi]))
        records = [
            {key: kept for key, values in record.items() if (kept := _distinct(values))} for record in records
        ]
        sizes = ()  # made just now, at their size
    if any(list(shape) != sorted(shape) for shape in set(map(tuple, records))):
        records = [
            record if list(record) == sorted(record) else dict(sorted(record.items())) for record in records
        ]
    # A dict keeps the table it grew for every key it held, and past five
    # keys that table doubles: an object that held more is made again from
    # its properties alone (184 bytes for three, against 272 as decoded).
    for i in compress(count(), map(gt, sizes, repeat(5))):
        records[i] = dict(records[i].items())
    columns.append(records)
    return columns


def _json_arrays_clean(arrays: list[list[str]], items: list[str]) -> bool:
    """Whether each of ``arrays`` holds one or more strings, all distinct and nonempty.

    ``items`` is every string of ``arrays``, in order.
    """
    lengths = list(map(len, arrays))
    if 0 in lengths or not all(items):
        return False
    if len(items) == len(arrays):  # one string each
        return True
    many = list(compress(arrays, map(gt, lengths, repeat(1))))
    return sum(map(len, map(set, many))) == sum(map(len, many))


# Decodes one JSON value at an index of a text, with ``json.loads``' rules.
_scan_once = json.JSONDecoder().scan_once


def _jsonl_rows(lines: list[str], number: int, core: tuple[str, ...], what: str):
    """Check each nonblank line's JSON, that it is an object, and its core types.

    ``number`` is the first line's number. A line that starts with ``{``
    is decoded as it stands when only whitespace follows its object; any
    other line, and any such line that fails, goes stripped to
    ``json.loads``, whose verdict stands. An unpaired surrogate escape is
    checked before the types, and only on lines with a ``\\u``.
    ``category`` must be an array of strings and every other core value a
    string; an absent or null core value reads as an empty cell would.
    Properties hold the object's other keys in sorted order, equal keys
    of the block one object each. They are read when the caller asks for the next line,
    after its field rules, so a field fault is the one reported. A
    one-string array is kept as it is.
    """
    multi = core.index("category") if "category" in core else -1
    absent = (None,) * len(core)
    kinds = [list if i == multi else str for i in range(len(core))]
    keys: dict[str, str] = {}
    for number, line in enumerate(lines, start=number):
        obj = None
        if line.startswith("{"):
            try:
                obj, end = _scan_once(line, 0)
            except (ValueError, StopIteration, RecursionError):
                pass  # json.loads below gives the verdict and the error's position
            else:
                if line[end:].strip():
                    obj = None
        if obj is None:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", number, exc.colno) from exc
            except RecursionError as exc:
                raise ParseError("invalid JSON: nested too deeply", number, 1) from exc
            except ValueError as exc:  # an integer with more digits than int() takes
                raise ParseError(f"invalid JSON: {exc}", number, 1) from exc
            if not isinstance(obj, dict):
                raise ParseError(f"each {what} line must be a JSON object", number, 1)
        if "\\u" in line:
            _reject_surrogates(obj, number)
        values = list(map(obj.pop, core, absent))
        if list(map(type, values)) != kinds:
            _json_core(values, core, multi, number)
        elif multi >= 0:
            categories = values[multi]
            if len(categories) != 1 or type(categories[0]) is not str or not categories[0]:
                values[multi] = _json_values(categories, "category", number)
        properties: dict[str, list[str]] = {}
        yield number, values, properties
        for key in sorted(obj):
            value = obj[key]
            if type(value) is list and len(value) == 1 and type(value[0]) is str:
                if value[0]:
                    properties[keys.setdefault(key, key)] = value
                continue
            found = _json_values(value, key, number)
            if found:
                properties[keys.setdefault(key, key)] = found


def _json_core(values: list, core: tuple[str, ...], multi: int, line: int) -> None:
    """Check the JSON types of a line's core values, in place: absent or null is empty."""
    for i, value in enumerate(values):
        if i == multi:
            values[i] = [] if value is None else _json_values(value, "category", line)
        elif type(value) is not str:
            if value is not None:
                raise ParseError(f"{core[i]!r} must be a string", line, 1)
            values[i] = ""


def _reject_surrogates(obj: dict, line: int) -> None:
    """Raise when a key or a string value holds an unpaired ``\\uD800``-``\\uDFFF`` escape.

    ``json.loads`` decodes such an escape to a lone surrogate, which no
    writer can encode as UTF-8; a valid escaped pair decodes to one
    character and passes.
    """
    for key, value in obj.items():
        texts = [key, *value] if isinstance(value, list) else [key, value]
        for text in texts:
            if not isinstance(text, str):
                continue
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(f"{key!r} holds an unpaired surrogate escape", line, 1) from None


def _json_values(value, key: str, line: int) -> list[str]:
    """``value``'s distinct nonempty strings; it must be an array of strings."""
    if type(value) is list:
        if len(value) == 1 and type(value[0]) is str:
            return value if value[0] else []
        found = {}
        for item in value:
            if type(item) is not str:
                break
            found[item] = None
        else:
            found.pop("", None)
            return list(found)
    raise ParseError(f"{key!r} must be an array of strings", line, 1)


# Records per block of a reader's row loop and of the JSONL writer, so
# neither holds more than one block of rows beside what it returns.
_RECORD_BLOCK = 1024


def _node_blocks(source_text: str, fmt: str | None):
    """The nodes of TSV or JSONL text a block at a time, checked, as columns.

    Each block is ``[ids, categories, names, properties]``, one sequence
    per field with one value per record; an empty name is None. After each
    format's syntax, the id must be a CURIE and the categories nonempty.
    Equal ids are one object per call. A block whose screened columns
    pass these rules at once is taken as it is; any other goes through its
    row loop, which reports the first fault at its line and yields blocks
    of at most ``_RECORD_BLOCK`` records.
    """
    cache: dict[str, Curie] = {}
    limit = _RECORD_BLOCK
    for rows, columns in _rows(source_text, fmt, NODE_COLUMNS, "node"):
        if columns is not None:
            ids, categories, names, properties = columns
            if all(categories) and _new_ids_pass(cache, ids):
                if "" in names:
                    names = [name or None for name in names]
                yield [list(map(cache.__getitem__, ids)), categories, names, properties]
                continue
        checked = []
        append = checked.append
        for number, values, record in rows:
            node_id = cache.get(values[0]) or _new_id(cache, values[0], number)
            if not values[1]:
                raise ParseError("node has no categories", number, 1)
            append((node_id, values[1], values[2] or None, record))
            if len(checked) > limit:
                # The last row waits for the next block: a JSONL row's
                # properties are filled when the row after it is asked for.
                yield list(zip(*checked[:-1]))
                del checked[:-1]
        if checked:
            yield list(zip(*checked))


def _edge_blocks(source_text: str, fmt: str | None, cache: dict[str, Curie]):
    """The edges of TSV or JSONL text a block at a time, checked, as columns.

    Each block is ``[subjects, predicates, objects, properties]``, as
    ``_node_blocks`` gives nodes. After each format's syntax, the predicate
    must be nonempty, then the subject and the object must be CURIEs.
    Equal predicates are one object per call. ``cache`` is the id cache to
    start from: each key a checked CURIE, its value the key. An end equal
    to a key is that value, and the cache gains the new ids.
    """
    predicates: dict[str, str] = {}
    limit = _RECORD_BLOCK
    for rows, columns in _rows(source_text, fmt, EDGE_COLUMNS, "edge"):
        if columns is not None:
            subjects, labels, objects, properties = columns
            if all(labels) and _new_ids_pass(cache, subjects, objects):
                yield [
                    list(map(cache.__getitem__, subjects)),
                    list(map(predicates.setdefault, labels, labels)),
                    list(map(cache.__getitem__, objects)),
                    properties,
                ]
                continue
        checked = []
        append = checked.append
        for number, values, record in rows:
            predicate = values[1]
            if not predicate:
                raise ParseError("empty predicate", number, 1)
            append((
                cache.get(values[0]) or _new_id(cache, values[0], number),
                predicates.setdefault(predicate, predicate),
                cache.get(values[2]) or _new_id(cache, values[2], number),
                record,
            ))
            if len(checked) > limit:  # as in _node_blocks
                yield list(zip(*checked[:-1]))
                del checked[:-1]
        if checked:
            yield list(zip(*checked))


@_gc_paused()
def read_nodes(source_text: str, fmt: str | None = None) -> list[Node]:
    """Parse nodes from TSV or JSONL text; the format is sniffed when unset.

    One leading UTF-8 byte order mark (U+FEFF) is ignored. After each
    format's syntax, the id must be a CURIE and the categories nonempty.
    """
    nodes = []
    for block in _node_blocks(source_text, fmt):
        nodes += map(Node, *block)
    return nodes


@_gc_paused()
def read_edges(source_text: str, fmt: str | None = None) -> list[Edge]:
    """Parse edges from TSV or JSONL text; the format is sniffed when unset.

    One leading UTF-8 byte order mark (U+FEFF) is ignored. After each
    format's syntax, the predicate must be nonempty, then the subject and
    the object must be CURIEs. Equal predicates are one object per call.
    """
    return _read_edges(source_text, fmt, {})


def _read_edges(source_text: str, fmt: str | None, cache: dict[str, Curie]) -> list[Edge]:
    """``read_edges`` with an id cache to start from (see ``_edge_blocks``).

    A loader that passes its node ids makes every edge end that names a
    node the node's own id object.
    """
    edges = []
    for block in _edge_blocks(source_text, fmt, cache):
        edges += map(Edge, *block)
    return edges


@_gc_paused()
def _convert_to_jsonl(source_text: str, kind: str) -> list[str]:
    """``write_nodes(read_nodes(source_text), "jsonl")`` in parts, or the edges' for ``kind`` "edge".

    The text is made a block at a time: each block of checked columns
    (``_node_blocks``, ``_edge_blocks``) goes straight to ``_json_block``,
    so no record is made and only the output text is held, one part per
    block, never joined into one string. A fault in the input raises
    before any part is returned.
    """
    if kind == "node":
        names, blocks = NODE_COLUMNS, _node_blocks(source_text, None)
    else:
        names, blocks = EDGE_COLUMNS, _edge_blocks(source_text, None, {})
    return [_json_block(names, block[:3], block[3]) for block in blocks]


# ---------------------------------------------------------------------------
# Writing


# The stdlib's C string encoder, the one json.dumps(ensure_ascii=False) uses.
_encode_string = json.encoder.encode_basestring
_encode_object = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
_properties = attrgetter("properties")


def _batches(records, size: int):
    """``records`` as lists of ``size`` records, the last one shorter."""
    remaining = iter(records)
    while block := list(islice(remaining, size)):
        yield block


def _json_column(values) -> tuple[list[str], bool]:
    """The JSON text of each value of a column, and whether the texts go between brackets.

    A column of strings gives each string's text; a column of lists of
    strings, each list's items joined, one-string lists in one pass. Any
    other column raises TypeError.
    """
    kinds = set(map(type, values))
    if kinds == {str}:
        return list(map(_encode_string, values)), False
    if kinds != {list}:
        raise TypeError("a column of values that are not all strings or all lists")
    if set(map(len, values)) == {1}:
        return list(map(_encode_string, chain.from_iterable(values))), True
    return list(map(", ".join, map(map, repeat(_encode_string), values))), True


def _json_rows(keys: list, values: list, count: int):
    """Per object, the pieces of its line: ``values[k][r]`` is key ``keys[k]``'s value in object ``r``.

    The pieces are the text before, between and after the values' texts,
    the keys in ``sort_keys`` order; joined, they make the line
    ``json.dumps(obj, sort_keys=True, ensure_ascii=False) + "\\n"``. A key
    that is not a string raises TypeError.
    """
    texts, arrays = zip(*map(_json_column, values)) if keys else ((), ())
    ranks = sorted(range(len(keys)), key=keys.__getitem__)
    parts = []
    close = "{"
    for i in ranks:
        parts += [repeat(close + _encode_string(keys[i]) + (": [" if arrays[i] else ": "), count), texts[i]]
        close = "], " if arrays[i] else ", "
    parts.append(repeat(close.removesuffix(", ") + "}\n", count))
    return zip(*parts)


def _json_lines(names: tuple[str, ...], columns: list, properties: list) -> str:
    """The line ``json.dumps(obj, sort_keys=True, ensure_ascii=False)`` per record, each ending in ``\\n``.

    A record's ``obj`` holds its properties, then each of ``names`` whose
    value in ``columns`` is not None. This is what ``_json_block`` gives
    too; it runs for the blocks whose values ``_json_block`` cannot take.
    """
    lines = []
    for values, extra in zip(zip(*columns), properties):
        obj = dict(extra)
        obj.update((name, value) for name, value in zip(names, values) if value is not None)
        lines.append(_encode_object(obj) + "\n")
    return "".join(lines)


def _json_block(names: tuple[str, ...], columns: list, properties: list) -> str:
    """``_json_lines`` of one block of records, made a column at a time.

    ``columns`` holds the values of ``names``, one list per name with one
    value per record, and ``properties`` each record's property dict. The
    records are grouped by shape: their property keys, and which core
    values are None, so absent. Each shape's key text is made once
    (``_json_rows``), and ``_encode_string`` is mapped over each of its
    columns at once. A block with a value that is not a string or a list
    of strings, or a key that is not a string, goes to ``_json_lines``,
    which gives the same text or raises.
    """
    count = len(properties)
    if not count:
        return ""
    shapes = list(map(tuple, properties))
    missing = [i for i, column in enumerate(columns) if None in column]
    if missing:
        shapes = list(zip(shapes, *[list(map(is_, columns[i], repeat(None))) for i in missing]))
    if shapes.count(shapes[0]) == count:
        groups = {shapes[0]: None}  # every record
    else:
        groups = defaultdict(list)
        for row, shape in enumerate(shapes):
            groups[shape].append(row)
    lines = [None] * count
    try:
        for shape, rows in groups.items():
            keys, flags = (shape[0], shape[1:]) if missing else (shape, ())
            absent = [i for i, flag in zip(missing, flags) if flag]
            present = [i for i in range(len(names)) if i not in absent]
            extra, core = properties, columns
            if rows is not None:
                pick = itemgetter(*rows) if len(rows) > 1 else lambda values, row=rows[0]: (values[row],)
                extra = pick(properties)
                core = list(map(pick, columns))
            pieces = _json_rows(
                [*keys, *[names[i] for i in present]],
                [*[list(map(itemgetter(key), extra)) for key in keys], *[core[i] for i in present]],
                len(extra),
            )
            if rows is None:
                return "".join(chain.from_iterable(pieces))
            for row, line in zip(rows, map("".join, pieces)):
                lines[row] = line
    except TypeError:
        return _json_lines(names, columns, properties)
    return "".join(lines)


def _json_records(records, names: tuple[str, ...], core, properties=_properties) -> str:
    """The JSONL text of ``records``, ``_RECORD_BLOCK`` records at a time (see ``_write``)."""
    return "".join([
        _json_block(names, core(block), list(map(properties, block)))
        for block in _batches(records, _RECORD_BLOCK)
    ])


# Records per block of the TSV writer: a block's cells are made a column
# at a time and its rows joined into one text.
_TSV_BLOCK = 4096


def _tsv_cells(values: list, core: bool) -> tuple[list, int]:
    """The cells of one column of a block, and the ``|`` separators joined into them.

    A core value that is a string stays as it is; any other is joined with
    ``|``, or empty when falsy. A property value is joined with ``|``
    whatever it is, a string too, and is empty when falsy.
    """
    kinds = set(map(type, values))
    if core and kinds == {str}:
        return values, 0
    if kinds <= {list, tuple}:
        return list(map("|".join, values)), sum(map(len, values)) - sum(map(bool, values))
    cells = []
    separators = 0
    for value in values:
        if core and (not value or isinstance(value, str)):
            cells.append(value or "")
            continue
        if value:
            separators += len(value) - 1
        cells.append("|".join(value or ()))
    return cells, separators


def _tsv_blocks(records, core, extras: list[str]):
    """Per block of ``records``, an iterator of its rows and the ``|`` separators joined into them.

    A row has no line break of its own; one column of a block is made at
    a time, by ``_tsv_cells``.
    """
    for block in _batches(records, _TSV_BLOCK):
        columns = []
        separators = 0
        for values in core(block):
            cells, joined = _tsv_cells(values, True)
            columns.append(cells)
            separators += joined
        properties = list(map(_properties, block))
        for key in extras:
            cells, joined = _tsv_cells(list(map(dict.get, properties, repeat(key), repeat(()))), False)
            columns.append(cells)
            separators += joined
        yield map("\t".join, zip(*columns)), separators


def _write(records: list, fmt: str, columns: tuple[str, ...], core) -> str:
    """Serialize ``records``; ``core(block)`` gives the values of ``columns`` for a block.

    A block is a list of records, and ``core`` gives one list per column,
    with one value per record. A value is a string, a list for a
    multivalued column, or None when absent. JSONL is made by
    ``_json_block``. TSV output is made a block of records at a time and
    joined once, then checked as a whole: a ``|`` beyond the header's and
    the separators counted while joining would split a value on reading,
    as would a tab or a line break. Only a failed check makes the rows
    again, to name the first bad one.
    """
    keys = set(chain.from_iterable(map(_properties, records)))
    if not keys.isdisjoint(columns):
        clash = sorted(keys.intersection(columns))
        raise ValueError(f"a property cannot be named like a core column: {clash}")
    if fmt == "jsonl":
        return _json_records(records, columns, core)
    extras = sorted(keys)
    header = "\t".join((*columns, *extras))
    parts = [header]
    separators = 0
    for rows, joined in _tsv_blocks(records, core, extras):
        parts.append("\n".join(rows))
        separators += joined
    parts.append("")
    text = "\n".join(parts)
    lines = len(records) + 1
    tabs = len(columns) + len(extras) - 1
    if text.count("\t") != lines * tabs or text.count("\n") != lines or "\r" in text:
        rows = chain((header,), chain.from_iterable(rows for rows, _ in _tsv_blocks(records, core, extras)))
        bad = next(r for r in rows if r.count("\t") != tabs or "\n" in r or "\r" in r)
        raise ValueError(f"TSV cannot hold a tab or a line break inside a value: {bad!r}")
    if text.count("|") != header.count("|") + separators:
        raise ValueError("TSV cannot hold '|' inside a value")
    return text


def write_nodes(nodes: list[Node], fmt: str = "tsv") -> str:
    """Serialize nodes; extra property columns appear sorted by name."""
    return _write(
        nodes,
        fmt,
        NODE_COLUMNS,
        # Comprehensions read slot fields faster than attrgetter.
        lambda block: (
            [node.id for node in block],
            [node.categories for node in block],
            [node.name for node in block],
        ),
    )


def write_edges(edges: list[Edge], fmt: str = "tsv") -> str:
    """Serialize edges; extra property columns appear sorted by name."""
    return _write(
        edges,
        fmt,
        EDGE_COLUMNS,
        lambda block: (
            [edge.subject for edge in block],
            [edge.predicate for edge in block],
            [edge.object for edge in block],
        ),
    )


# ---------------------------------------------------------------------------
# Graph construction


def _merge_values(target: list[str], extra: list[str]) -> None:
    seen = set(target)
    target.extend(value for value in dict.fromkeys(extra) if value not in seen)


def _merge_properties(kept: Node | Edge, record: Node | Edge) -> None:
    target = kept.properties
    for key, values in record.properties.items():
        if key in target:
            _merge_values(target[key], values)
        else:
            target[key] = list(values)


def _copy_properties(record: Node | Edge) -> dict[str, list[str]]:
    return {key: list(values) for key, values in record.properties.items()}


def _copy_node(node: Node) -> Node:
    return Node(node.id, list(node.categories), node.name, _copy_properties(node))


def _copy_edge(edge: Edge) -> Edge:
    return Edge(edge.subject, edge.predicate, edge.object, _copy_properties(edge))


def _merge(records: list, key, copy, absorb) -> dict:
    """Records by ``key(record)``, each later duplicate folded in by ``absorb(kept, record)``.

    Kept records alias the input until a merge forces a private ``copy``, so
    the input is never mutated.
    """
    merged: dict = {}
    owned: set = set()
    for record in records:
        record_key = key(record)
        kept = merged.get(record_key)
        if kept is None:
            merged[record_key] = record
            continue
        if record_key not in owned:
            kept = merged[record_key] = copy(kept)
            owned.add(record_key)
        absorb(kept, record)
    return merged


def _merge_nodes(nodes: list[Node], report: NormalizationReport | None = None) -> dict[Curie, Node]:
    def absorb(kept: Node, node: Node) -> None:
        _merge_values(kept.categories, node.categories)
        if kept.name is None:
            kept.name = node.name
        elif node.name is not None and node.name != kept.name and report is not None:
            report.name_conflicts += 1
        _merge_properties(kept, node)

    return _merge(nodes, attrgetter("id"), _copy_node, absorb)


def _merge_edges(edges: list[Edge]) -> list[Edge]:
    return list(_merge(edges, Edge.key, _copy_edge, _merge_properties).values())


@_gc_paused()
def build_graph(nodes: list[Node], edges: list[Edge], *, strict: bool = False) -> KnowledgeGraph:
    """Assemble a graph, merging duplicate nodes and duplicate core triples.

    Category and property values merge by union; the first-seen name wins.
    Edges referencing absent nodes are kept (validation reports them) unless
    ``strict``, which raises :class:`DanglingEdgeError`. The graph takes
    ownership of the given nodes and edges; callers must not mutate them
    afterwards.
    """
    kg = KnowledgeGraph(nodes=_merge_nodes(nodes), edges=_merge_edges(edges))
    if strict:
        dangling = kg.dangling_edge_ordinals()
        if dangling:
            first = kg.edges[dangling[0]]
            raise DanglingEdgeError(
                f"{len(dangling)} edge(s) reference absent nodes, e.g. "
                f"{first.subject} -{first.predicate}-> {first.object}"
            )
    return kg


def close_categories(kg: KnowledgeGraph, index: ClosureIndex) -> KnowledgeGraph:
    """Return a graph whose node categories are closed under class ancestors.

    Unknown category names are kept as-is; ancestors are appended in
    nearest-first order after the declared categories. Edges and property
    lists are shared with ``kg``.
    """
    profile = index.profile
    closed_nodes = {
        node_id: Node(node_id, list(profile(node.categories).closure), node.name, node.properties)
        for node_id, node in kg.nodes.items()
    }
    return KnowledgeGraph(nodes=closed_nodes, edges=list(kg.edges))


def normalize_graph(
    kg: KnowledgeGraph,
    table: EquivalenceTable,
    doc: SchemaDocument,
    index: ClosureIndex,
) -> tuple[KnowledgeGraph, NormalizationReport]:
    """Rewrite every identifier to its preferred form and re-merge.

    Nodes that normalize to the same identifier are merged; edges are
    rewritten to normalized endpoints and re-deduplicated by core triple.
    Identifiers outside every clique pass through unchanged and are counted.
    The result may share node and edge objects with the input graph; both
    are immutable by contract.
    """
    report = NormalizationReport()
    # Each edge's subject and object in turn (a comprehension reads a slot
    # faster than attrgetter), then each distinct id once in first-seen
    # order: node ids, then edge ends. Equal ends are mostly one object, so
    # they are made distinct among themselves first.
    ends = [None] * (2 * len(kg.edges))
    ends[::2] = [edge.subject for edge in kg.edges]
    ends[1::2] = [edge.object for edge in kg.edges]
    ids = dict.fromkeys(kg.nodes)
    ids.update(dict.fromkeys(ends))
    preferred = list(map(normalize_curie, repeat(table), ids, repeat(doc), repeat(index)))
    # An id outside every clique is its own preferred form.
    report.unknown_ids = len(ids) - sum(map(table.member_index.__contains__, ids))
    renamed = dict(compress(zip(ids, preferred), map(ne, ids, preferred)))
    report.ids_rewritten = len(renamed)
    if not renamed:
        # Fixed point: nothing to rewrite or merge.
        return kg, report

    # Only records that touch a renamed id are made again; they share their
    # value lists with the input, and a merge copies an object before it
    # mutates it.
    with _gc_paused():
        nodes = list(kg.nodes.values())
        for i in compress(count(), [node.id in renamed for node in nodes]):
            node = nodes[i]
            nodes[i] = Node(renamed[node.id], node.categories, node.name, node.properties)
        edges = list(kg.edges)
        hits = list(map(renamed.__contains__, ends))
        del ends  # not held through the merges
        for i in compress(count(), map(or_, hits[::2], hits[1::2])):
            edge = edges[i]
            edges[i] = Edge(
                renamed.get(edge.subject, edge.subject),
                edge.predicate,
                renamed.get(edge.object, edge.object),
                edge.properties,
            )
        del hits
        merged_nodes = _merge_nodes(nodes, report)
        merged_edges = _merge_edges(edges)
    report.nodes_merged = len(kg.nodes) - len(merged_nodes)
    report.edges_deduplicated = len(kg.edges) - len(merged_edges)
    return KnowledgeGraph(nodes=merged_nodes, edges=merged_edges), report


def graph_stats(kg: KnowledgeGraph, index: ClosureIndex) -> StatsReport:
    """Node and edge counts, bucketed by most specific category and predicate.

    A node with no known category is bucketed by its first declared one;
    one with no category at all raises :class:`EmptyCategorySetError`.
    """
    profile = index.profile
    by_category: Counter[str] = Counter()
    for node in kg.nodes.values():
        most_specific = profile(node.categories).most_specific
        if most_specific is None:
            if not node.categories:
                raise EmptyCategorySetError(f"node {node.id!r} has no categories")
            most_specific = node.categories[0]
        by_category[most_specific] += 1
    by_predicate: Counter[str] = Counter()
    for edge in kg.edges:
        by_predicate[edge.predicate] += 1
    return StatsReport(
        num_nodes=len(kg.nodes),
        num_edges=len(kg.edges),
        nodes_by_category=dict(by_category),
        edges_by_predicate=dict(by_predicate),
    )


def graph_equal(a: KnowledgeGraph, b: KnowledgeGraph) -> bool:
    """Equality on node set, deduplicated edge set, and property maps.

    Category order and property-value order are not significant.
    """

    def properties(record: Node | Edge) -> frozenset:
        return frozenset((k, frozenset(v)) for k, v in record.properties.items())

    def node_map(kg: KnowledgeGraph) -> dict:
        return {
            node_id: (frozenset(node.categories), node.name, properties(node))
            for node_id, node in kg.nodes.items()
        }

    def edge_map(kg: KnowledgeGraph) -> dict:
        return {edge.key(): properties(edge) for edge in kg.edges}

    return node_map(a) == node_map(b) and edge_map(a) == edge_map(b)
