import gc
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kgschema
from kgschema import cli, hierarchy, serialize_schema, validate_schema
from kgschema.cli import main

from generators import deep_chain_schema, max_examples

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def runner():
    return CliRunner()


def _invoke(runner, *args, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


def _demo_args(seed_path):
    return [
        "--schema", str(seed_path),
        "--nodes", str(DATA / "rhobtb2_nodes.tsv"),
        "--edges", str(DATA / "rhobtb2_edges.tsv"),
    ]


def test_no_arguments_is_usage_error(runner):
    result = runner.invoke(main, [])
    assert result.exit_code == 2
    assert "Usage" in result.stderr or "Usage" in result.output


def test_version_mentions_schema_format(runner):
    result = _invoke(runner, "--version")
    assert result.exit_code == 0
    assert "kgschema" in result.output
    assert "schema format 1" in result.output


def test_validate_clean_fixture_exits_zero(runner, seed_path):
    result = _invoke(runner, "validate", *_demo_args(seed_path))
    assert result.exit_code == 0
    header = json.loads(result.stdout.splitlines()[0])
    assert header["errors"] == 0
    assert header["warnings"] == 0
    assert len(header["inputs_hash"]) == 64


def test_validate_reports_errors_with_exit_one(runner, seed_path, tmp_path):
    edges = (DATA / "rhobtb2_edges.tsv").read_text()
    broken = edges.replace("affects", "causes_xyzzy")
    edges_path = tmp_path / "edges.tsv"
    edges_path.write_text(broken)
    result = _invoke(
        runner,
        "validate",
        "--schema", str(seed_path),
        "--nodes", str(DATA / "rhobtb2_nodes.tsv"),
        "--edges", str(edges_path),
    )
    assert result.exit_code == 1
    lines = result.stdout.splitlines()
    assert json.loads(lines[0])["counts"] == {"UNKNOWN_PREDICATE": 1}
    violation = json.loads(lines[1])
    assert violation["code"] == "UNKNOWN_PREDICATE"
    assert violation["severity"] == "error"


def test_validate_deeply_nested_jsonl_is_tool_error(runner, seed_path, tmp_path):
    nodes_path = tmp_path / "nodes.jsonl"
    nodes_path.write_text('{"id": "A:1", "category": %s}\n' % ("[" * 50_000 + "]" * 50_000))
    result = runner.invoke(
        main,
        [
            "validate", "--schema", str(seed_path),
            "--nodes", str(nodes_path), "--edges", str(DATA / "rhobtb2_edges.tsv"),
        ],
    )
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "nested too deeply" in result.stderr


def test_validate_output_deterministic_and_pure(runner, seed_path):
    before = (DATA / "rhobtb2_nodes.tsv").read_bytes()
    first = _invoke(runner, "validate", *_demo_args(seed_path))
    second = _invoke(runner, "validate", *_demo_args(seed_path))
    assert first.stdout == second.stdout
    assert (DATA / "rhobtb2_nodes.tsv").read_bytes() == before


def test_validate_jobs_flag_does_not_change_output(runner, seed_path):
    one = _invoke(runner, "validate", *_demo_args(seed_path), "--jobs", "1")
    eight = _invoke(runner, "validate", *_demo_args(seed_path), "--jobs", "8")
    assert one.stdout == eight.stdout


def test_strict_and_lax_conflict(runner, seed_path):
    result = runner.invoke(main, ["validate", *_demo_args(seed_path), "--strict", "--lax"])
    assert result.exit_code == 2


def test_missing_schema_file_is_tool_error(runner):
    result = runner.invoke(
        main,
        [
            "expand",
            "--schema", "nowhere.kgs.yaml",
            "--predicate", "related_to",
        ],
    )
    assert result.exit_code == 2


def test_expand_prints_sorted_descendants(runner, seed_path, seed_doc):
    result = _invoke(runner, "expand", "--schema", str(seed_path), "--predicate", "related_to")
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines == sorted(seed_doc.predicate_names())
    narrow = _invoke(
        runner, "expand", "--schema", str(seed_path), "--predicate", "entity_regulates_entity"
    )
    assert narrow.stdout.splitlines() == [
        "entity_regulates_entity",
        "negatively_regulates",
        "positively_regulates",
    ]


def test_lax_prints_an_ignored_key_as_a_warning(runner, seed_path, seed_text, tmp_path):
    lines = seed_text.splitlines(keepends=True)
    slot = lines.index("  related_to:\n")
    lines.insert(slot + 1, "    colour: red\n")
    schema = tmp_path / "colour.kgs.yaml"
    schema.write_text("".join(lines), encoding="utf-8")
    expected = _invoke(runner, "expand", "--schema", str(seed_path), "--predicate", "related_to")
    result = _invoke(runner, "expand", "--schema", str(schema), "--predicate", "related_to", "--lax")
    assert result.exit_code == 0
    assert result.stdout == expected.stdout
    assert result.stderr == (
        f"kgschema: warning: ignoring unknown key 'colour' in slot 'related_to' (line {slot + 2})\n"
    )
    strict = _invoke(runner, "expand", "--schema", str(schema), "--predicate", "related_to")
    assert strict.exit_code == 2


def test_expand_unknown_predicate_is_tool_error(runner, seed_path):
    result = _invoke(runner, "expand", "--schema", str(seed_path), "--predicate", "nope")
    assert result.exit_code == 2


def test_schema_from_environment_variable(runner, seed_path, seed_doc):
    result = runner.invoke(
        main,
        ["expand", "--predicate", "related_to"],
        env={"KGSCHEMA_DEFAULT_SCHEMA": str(seed_path)},
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    assert result.stdout.splitlines() == sorted(seed_doc.predicate_names())


def test_normalize_stdin_to_stdout(runner, seed_path):
    stdin = "HGNC:18756\nDOID:1826\nFOO:1\n"
    result = _invoke(
        runner,
        "normalize",
        "--schema", str(seed_path),
        "--equivalences", str(DATA / "equivalences.tsv"),
        input=stdin,
    )
    assert result.exit_code == 0
    assert result.stdout.splitlines() == ["NCBIGene:23221", "MONDO:0005027", "FOO:1"]
    assert "total=3 changed=2 unchanged=1 unknown=1 malformed=0" in result.stderr


def test_normalize_prints_an_incomparable_clique_warning_once(runner, seed_path, tmp_path):
    table = tmp_path / "eq.tsv"
    table.write_text("Gene|Disease\tNCBIGene:1|MONDO:2\n")
    for _ in range(2):  # each invocation prints it afresh
        result = _invoke(
            runner,
            "normalize",
            "--schema", str(seed_path),
            "--equivalences", str(table),
            input="NCBIGene:1\nMONDO:2\nNCBIGene:1\n",
        )
        assert result.exit_code == 0
        assert result.stdout == "MONDO:2\n" * 3
        assert result.stderr == (
            "kgschema: warning: incomparable categories ['Disease', 'Gene']; "
            "choosing 'Disease' lexicographically\n"
            "total=3 changed=2 unchanged=1 unknown=0 malformed=0\n"
        )


def test_normalize_malformed_line_exits_one(runner, seed_path):
    result = _invoke(
        runner,
        "normalize",
        "--schema", str(seed_path),
        "--equivalences", str(DATA / "equivalences.tsv"),
        input="not a curie\n",
    )
    assert result.exit_code == 1
    assert result.stdout == "not a curie\n"
    assert "malformed=1" in result.stderr


def test_normalize_rejects_equivalences_with_unknown_category(runner, seed_path, tmp_path):
    bad = tmp_path / "eq.tsv"
    bad.write_text("Gadget\tA:1|B:2\n")
    result = _invoke(
        runner,
        "normalize",
        "--schema", str(seed_path),
        "--equivalences", str(bad),
        input="",
    )
    assert result.exit_code == 2


def test_query_verb_returns_both_chemicals(runner, seed_path):
    result = _invoke(
        runner,
        "query",
        *_demo_args(seed_path),
        "--query", str(DATA / "rhobtb2_query.txt"),
    )
    assert result.exit_code == 0
    bindings = [json.loads(line) for line in result.stdout.splitlines()]
    assert {b["assignments"]["c"] for b in bindings} == {
        "CHEMBL.COMPOUND:CHEMBL3989516",
        "CHEMBL.COMPOUND:CHEMBL1789941",
    }


def test_query_file_with_a_leading_bom_reads_as_without_it(runner, seed_path, tmp_path):
    pattern = (DATA / "rhobtb2_query.txt").read_text(encoding="utf-8").splitlines()[-1]
    assert pattern.startswith("NCBIGene:23221 ")
    outputs = []
    for name, text in (("plain.txt", pattern), ("marked.txt", "\ufeff" + pattern)):
        (tmp_path / name).write_text(text + "\n", encoding="utf-8")
        result = _invoke(runner, "query", *_demo_args(seed_path), "--query", str(tmp_path / name))
        assert result.exit_code == 0
        outputs.append(result.stdout)
    assert len(outputs[0].splitlines()) == 2
    assert outputs[1] == outputs[0]


def test_query_accepts_inline_text(runner, seed_path):
    result = _invoke(
        runner,
        "query",
        *_demo_args(seed_path),
        "--query", "MONDO:0005027 -[has_phenotype]-> ?p:PhenotypicFeature",
    )
    assert result.exit_code == 0
    assert len(result.stdout.splitlines()) == 1


def test_query_accepts_inline_text_longer_than_a_file_name(runner, seed_path):
    predicates = "|".join(["related_to"] * 30)
    text = f"MONDO:0005027 -[{predicates}|has_phenotype]-> ?p:PhenotypicFeature"
    assert len(text.encode()) > 255
    result = _invoke(runner, "query", *_demo_args(seed_path), "--query", text)
    assert result.exit_code == 0
    assert len(result.stdout.splitlines()) == 1


def test_query_empty_result_is_success(runner, seed_path):
    result = _invoke(
        runner,
        "query",
        *_demo_args(seed_path),
        "--query", "?v:SequenceVariant -[related_to]-> ?d:Disease",
    )
    assert result.exit_code == 0
    assert result.stdout == ""


def test_query_bad_pattern_is_tool_error(runner, seed_path):
    result = _invoke(
        runner, "query", *_demo_args(seed_path), "--query", "?a -[does_a_thing]-> ?b"
    )
    assert result.exit_code == 2


def test_stats_tsv_and_jsonl(runner, seed_path):
    tsv = _invoke(runner, "stats", *_demo_args(seed_path))
    assert tsv.exit_code == 0
    lines = tsv.stdout.splitlines()
    assert lines[0] == "nodes\t9"
    assert lines[1] == "edges\t9"
    assert "category\tSmallMolecule\t4" in lines
    assert "predicate\tinteracts_with\t2" in lines
    jsonl = _invoke(runner, "stats", *_demo_args(seed_path), "--format", "jsonl")
    payload = json.loads(jsonl.stdout)
    assert payload["nodes"] == 9
    assert payload["nodes_by_category"]["SmallMolecule"] == 4


def test_convert_single_input_to_stdout_round_trip(runner, tmp_path):
    result = _invoke(runner, "convert", "--nodes", str(DATA / "rhobtb2_nodes.tsv"), "--to", "jsonl")
    assert result.exit_code == 0
    first = json.loads(result.stdout.splitlines()[0])
    assert first["id"] == "NCBIGene:23221"
    back_path = tmp_path / "nodes.jsonl"
    back_path.write_text(result.stdout)
    back = _invoke(runner, "convert", "--nodes", str(back_path), "--to", "tsv")
    assert back.exit_code == 0
    original = (DATA / "rhobtb2_nodes.tsv").read_text()
    assert sorted(back.stdout.splitlines()) == sorted(original.splitlines())


def test_convert_two_inputs_write_sibling_files(runner, tmp_path):
    nodes = tmp_path / "n.tsv"
    edges = tmp_path / "e.tsv"
    nodes.write_text((DATA / "rhobtb2_nodes.tsv").read_text())
    edges.write_text((DATA / "rhobtb2_edges.tsv").read_text())
    result = _invoke(
        runner, "convert", "--nodes", str(nodes), "--edges", str(edges), "--to", "jsonl"
    )
    assert result.exit_code == 0
    assert result.stdout == ""
    assert (tmp_path / "n.jsonl").exists()
    assert (tmp_path / "e.jsonl").exists()
    assert "wrote" in result.stderr


def test_convert_requires_an_input(runner):
    result = runner.invoke(main, ["convert", "--to", "jsonl"])
    assert result.exit_code == 2


def test_validate_close_categories_flag(runner, seed_path):
    result = _invoke(runner, "validate", *_demo_args(seed_path), "--close-categories")
    assert result.exit_code == 0
    assert json.loads(result.stdout.splitlines()[0])["errors"] == 0


def test_jobs_must_be_positive(runner, seed_path):
    result = runner.invoke(main, ["validate", *_demo_args(seed_path), "--jobs", "0"])
    assert result.exit_code == 2


def test_query_and_stats_byte_identical_across_runs(runner, seed_path):
    for verb_args in (
        ["query", *_demo_args(seed_path), "--query", str(DATA / "rhobtb2_query.txt")],
        ["stats", *_demo_args(seed_path), "--format", "jsonl"],
    ):
        first = _invoke(runner, *verb_args)
        second = _invoke(runner, *verb_args)
        assert first.stdout == second.stdout
        assert first.exit_code == second.exit_code == 0


def test_expand_on_deep_child_first_chain(runner, tmp_path):
    depth = 3000
    schema = tmp_path / "deep.kgs.yaml"
    schema.write_text(serialize_schema(deep_chain_schema(0, depth)), encoding="utf-8")
    result = _invoke(runner, "expand", "--schema", str(schema), "--predicate", "related_to")
    assert result.exit_code == 0
    assert result.stdout.split() == sorted(["related_to"] + [f"pred_{i}" for i in range(1, depth + 1)])


def test_verb_validates_the_schema_once(runner, seed_path, monkeypatch):
    calls = []

    def counting(doc):
        calls.append(doc)
        return validate_schema(doc)

    monkeypatch.setattr(hierarchy, "validate_schema", counting)
    result = _invoke(runner, "stats", *_demo_args(seed_path))
    assert result.exit_code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("value", ["x|y", "tab\there", "two\nlines"])
def test_convert_to_tsv_rejects_unrepresentable_value(runner, tmp_path, value):
    nodes = tmp_path / "nodes.jsonl"
    edges = tmp_path / "edges.jsonl"
    nodes.write_text(json.dumps({"id": "A:1", "category": ["Gene"], "xref": [value]}) + "\n")
    edges.write_text(json.dumps({"subject": "A:1", "predicate": "treats", "object": "A:1"}) + "\n")
    result = runner.invoke(main, ["convert", "--nodes", str(nodes), "--edges", str(edges), "--to", "tsv"])
    assert result.exit_code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edges.jsonl", "nodes.jsonl"]
    single = runner.invoke(main, ["convert", "--nodes", str(nodes), "--to", "tsv"])
    assert single.exit_code == 2
    assert single.stdout == ""


_ids = st.sampled_from(["NCBIGene:23221", "NCBIGene:6850", "UniProtKB:O60674", "CHEBI:1", "A:1"])
_hostile = st.sampled_from(["", "x|y", "a b", "not a curie", ":", "{", "\ufeff", "\r"]) | st.text(max_size=4)
_categories = st.sampled_from(["Gene", "Protein|Gene", "SmallMolecule", "Disease", "NoSuchClass"])
_predicates = st.sampled_from(
    ["entity_regulates_entity", "genetically_interacts_with", "treats", "related_to", "no_such"]
)
_pubs = st.sampled_from(["PMID:1", "PMID:1|PMID:2", "not a curie", ""])


def _record_file(columns, values, demo):
    """Node or edge file text, TSV or JSONL, of well-formed records; in half
    the files some records have one hostile cell, and arbitrary lines and
    headers are mixed in."""
    header, *demo_rows = (DATA / demo).read_text(encoding="utf-8").splitlines()
    clean = st.tuples(*values).map(list)
    json_value = st.one_of(
        st.integers(), st.none(), st.lists(st.text(max_size=3) | st.integers(), max_size=2)
    )

    def splice(row, at, value):
        row[at] = value
        return row

    def as_json(row):
        return json.dumps({
            column: value.split("|") if column in ("category", "symbol", "publications")
            and isinstance(value, str) else value
            for column, value in zip(columns, row)
        })

    def lines(hostile):
        if not hostile:
            return (
                st.lists(st.sampled_from(demo_rows) | clean.map("\t".join), max_size=6).map(
                    lambda rows: [header, *rows]
                )
                | st.lists(clean.map(as_json), max_size=6)
            )
        at = st.integers(0, len(columns) - 1)
        tsv_rows = clean.map("\t".join) | st.builds(splice, clean, at, _hostile).map("\t".join)
        json_rows = clean.map(as_json) | st.builds(splice, clean, at, _hostile | json_value).map(as_json)
        junk = st.text(max_size=6)
        tsv = st.tuples(
            st.sampled_from([header, "\t".join(columns), "\t".join(columns[:2])]),
            st.lists(st.sampled_from(demo_rows) | tsv_rows | junk, max_size=6),
        ).map(lambda parts: [parts[0], *parts[1]])
        return tsv | st.lists(json_rows | junk, max_size=6)

    return st.tuples(
        st.sampled_from(["", "\ufeff"]), st.booleans().flatmap(lines), st.sampled_from(["\n", "\r\n"])
    ).map(lambda parts: parts[0] + parts[2].join(parts[1]))


_nodes_text = _record_file(("id", "category", "name", "symbol"), (_ids, _categories, _ids, _ids),
                           "rhobtb2_nodes.tsv")
_edges_text = _record_file(("subject", "predicate", "object", "publications"),
                           (_ids, _predicates, _ids, _pubs), "rhobtb2_edges.tsv")


@settings(
    max_examples=max_examples(40), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(nodes_text=_nodes_text, edges_text=_edges_text)
def test_any_input_file_exits_cleanly(seed_path, nodes_text, edges_text):
    # Exit 0 or 1 for data, 2 for a tool failure; never a traceback.
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as scratch:
        nodes = Path(scratch) / "nodes.txt"
        edges = Path(scratch) / "edges.txt"
        nodes.write_text(nodes_text, encoding="utf-8")
        edges.write_text(edges_text, encoding="utf-8")
        graph = ["--schema", str(seed_path), "--nodes", str(nodes), "--edges", str(edges)]
        for args in (
            ["validate", *graph],
            ["stats", *graph],
            ["query", *graph, "--query", str(DATA / "rhobtb2_query.txt")],
            ["convert", "--nodes", str(nodes), "--edges", str(edges), "--to", "tsv"],
            ["convert", "--nodes", str(nodes), "--to", "jsonl"],
        ):
            result = runner.invoke(main, args)
            assert result.exception is None or isinstance(result.exception, SystemExit), args
            assert result.exit_code in (0, 1, 2), args


def _demo_verbs(seed_path):
    return [
        ["validate", *_demo_args(seed_path)],
        ["query", *_demo_args(seed_path), "--query", str(DATA / "rhobtb2_query.txt")],
        ["convert", "--nodes", str(DATA / "rhobtb2_nodes.tsv"), "--to", "jsonl"],
        ["convert", "--edges", str(DATA / "rhobtb2_edges.tsv"), "--to", "jsonl"],
    ]


def test_verb_leaves_gc_enabled_and_freezes_the_loaded_input(runner, seed_path, tmp_path):
    broken = tmp_path / "broken.tsv"
    broken.write_text("id\tcategory\tname\nA:1\n", encoding="utf-8")
    gc.unfreeze()
    try:
        for args in _demo_verbs(seed_path):
            before = gc.get_freeze_count()
            assert _invoke(runner, *args).exit_code == 0
            assert gc.isenabled()
            assert gc.get_freeze_count() > before, args
        for args in (
            ["validate", "--schema", str(seed_path), "--nodes", str(broken), "--edges", str(broken)],
            ["convert", "--nodes", str(broken), "--to", "jsonl"],
        ):
            assert _invoke(runner, *args).exit_code == 2
            assert gc.isenabled()
    finally:
        gc.unfreeze()


def test_real_process_matches_in_process_run(runner, seed_path, tmp_path):
    # CliRunner never reaches interpreter exit, whose last collection skips
    # the frozen heap; the bytes a real process writes must be the same.
    # Besides the demo verbs: a data failure (exit 1) and a tool failure (2).
    dirty = tmp_path / "dirty.tsv"
    dirty.write_text("id\tcategory\tname\nNCBIGene:23221\tNoSuchClass\tx\n", encoding="utf-8")
    surrogate = tmp_path / "surrogate.jsonl"
    surrogate.write_text('{"id": "A:1", "category": ["Gene"], "name": "\\ud800"}\n', encoding="utf-8")
    edges = ["--edges", str(DATA / "rhobtb2_edges.tsv")]
    failing = [
        ["validate", "--schema", str(seed_path), "--nodes", str(dirty), *edges],
        ["validate", "--schema", str(seed_path), "--nodes", str(surrogate), *edges],
        ["convert", "--nodes", str(surrogate), "--to", "tsv"],
    ]
    source = str(Path(kgschema.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
    codes = []
    for args in _demo_verbs(seed_path) + failing:
        expected = _invoke(runner, *args)
        process = subprocess.run(
            [sys.executable, "-m", "kgschema", *args], capture_output=True, env=env, timeout=120
        )
        assert process.returncode == expected.exit_code, args
        assert process.stdout == expected.stdout_bytes, args
        assert process.stderr == expected.stderr_bytes, args
        codes.append(process.returncode)
    assert codes == [0, 0, 0, 0, 1, 2, 2]
