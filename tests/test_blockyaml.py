import pytest

from kgschema import blockyaml
from kgschema.blockyaml import MappingNode, Scalar, Sequence
from kgschema.errors import DuplicateNameError, ParseError


def test_parses_nested_mappings_sequences_scalars():
    root = blockyaml.parse(
        "name: demo\n"
        "things:\n"
        "  alpha:\n"
        "    items:\n"
        "      - one\n"
        "      - two\n"
    )
    assert isinstance(root, MappingNode)
    assert root.entries["name"].value == "demo"
    alpha = root.entries["things"].entries["alpha"]
    items = alpha.entries["items"]
    assert isinstance(items, Sequence)
    assert [item.value for item in items.items] == ["one", "two"]


def test_compact_sequence_item_mapping():
    root = blockyaml.parse(
        "mappings:\n"
        "  - relation: exact\n"
        "    target: X:1\n"
        "  - relation: close\n"
        "    target: Y:2\n"
    )
    items = root.entries["mappings"].items
    assert [i.entries["relation"].value for i in items] == ["exact", "close"]
    assert [i.entries["target"].value for i in items] == ["X:1", "Y:2"]


def test_sequence_item_is_a_mapping_only_with_a_plain_key():
    # A key ends at the first ':' followed by a space or the line end; an
    # empty key or one holding a space leaves the item a scalar.
    root = blockyaml.parse("a:\n  - : x\n  - :\n  - b c: d\n  - x:y\n  - e: f\n")
    items = root.entries["a"].items
    assert [item.value for item in items[:4]] == [": x", ":", "b c: d", "x:y"]
    assert items[4].entries["e"].value == "f"
    for value in ("k: v", "k:"):
        with pytest.raises(ValueError):
            blockyaml.check_emit_scalar(value, as_item=True)
    assert blockyaml.check_emit_scalar(": v", as_item=True) == ": v"


def test_comments_and_blank_lines_ignored():
    root = blockyaml.parse(
        "# leading comment\n"
        "\n"
        "a: 1  # trailing comment\n"
        "b: http://x/page#frag\n"
    )
    assert root.entries["a"].value == "1"
    # '#' not preceded by a space stays part of the scalar
    assert root.entries["b"].value == "http://x/page#frag"


def test_value_may_contain_colon_space():
    root = blockyaml.parse("description: time limit: ten seconds\n")
    assert root.entries["description"].value == "time limit: ten seconds"


def test_error_carries_line_and_column():
    with pytest.raises(ParseError) as info:
        blockyaml.parse("a: 1\nb:\n")
    assert info.value.line == 2
    assert info.value.column == 1


@pytest.mark.parametrize(
    "source",
    [
        "a: {x: 1}\n",
        "a: [1, 2]\n",
        "a: &anchor\n",
        "a: *alias\n",
        "a: !tag v\n",
        'a: "quoted"\n',
        "a: 'quoted'\n",
        "a: |\n  block\n",
        "a: >\n  folded\n",
    ],
)
def test_rejects_yaml_features_outside_subset(source):
    with pytest.raises(ParseError):
        blockyaml.parse(source)


@pytest.mark.parametrize("source", ["--- doc\na: 1\n", "%YAML 1.2\na: 1\n", "...\n"])
def test_rejects_document_markers_and_directives(source):
    with pytest.raises(ParseError):
        blockyaml.parse(source)


def test_rejects_tabs():
    with pytest.raises(ParseError) as info:
        blockyaml.parse("a:\n\tb: 1\n")
    assert info.value.line == 2


def test_rejects_duplicate_keys():
    with pytest.raises(DuplicateNameError) as info:
        blockyaml.parse("a: 1\na: 2\n")
    assert info.value.name == "a"
    assert info.value.line == 2


def test_rejects_empty_document():
    with pytest.raises(ParseError):
        blockyaml.parse("# nothing here\n\n")


def test_rejects_overlong_key():
    key = "k" * 300
    with pytest.raises(ParseError):
        blockyaml.parse(f"{key}: 1\n")


def test_depth_limit_default_eight():
    def nested(blocks):
        # ``blocks`` mappings, each the value of the one before.
        lines = ["  " * level + f"k{level}:" for level in range(blocks - 1)]
        return "\n".join([*lines, "  " * (blocks - 1) + "leaf: 1"]) + "\n"

    assert blockyaml.parse(nested(8))
    with pytest.raises(ParseError, match="nesting depth exceeds 8") as info:
        blockyaml.parse(nested(9))
    assert info.value.line == 9


def test_rejects_mixed_sequence_and_mapping_block():
    with pytest.raises(ParseError):
        blockyaml.parse("a:\n  - item\n  key: value\n")


def test_missing_value_is_error():
    with pytest.raises(ParseError):
        blockyaml.parse("a: 1\nb:\nc: 2\n")


def test_scalar_positions():
    root = blockyaml.parse("outer:\n  inner: value\n")
    inner = root.entries["outer"].entries["inner"]
    assert isinstance(inner, Scalar)
    assert (inner.line, inner.column) == (2, 10)


def test_emit_scalar_rejects_unrepresentable_values():
    with pytest.raises(ValueError):
        blockyaml.check_emit_scalar("has # comment marker")
    with pytest.raises(ValueError):
        blockyaml.check_emit_scalar("{flow}")
    with pytest.raises(ValueError):
        blockyaml.check_emit_scalar("")
    with pytest.raises(ValueError):
        blockyaml.check_emit_scalar("key: value", as_item=True)
    assert blockyaml.check_emit_scalar("plain") == "plain"


def test_crlf_line_endings_accepted():
    root = blockyaml.parse("a: 1\r\nb:\r\n  c: 2\r\n")
    assert root.entries["a"].value == "1"
    assert root.entries["b"].entries["c"].value == "2"
