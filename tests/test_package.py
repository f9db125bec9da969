"""The package's import graph, its lazily bound public names, and the CLI's
library names that a tracer rebinds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import kgschema
from kgschema import cli

DATA = Path(__file__).parent / "data"
SOURCE = str(Path(kgschema.__file__).parents[1])

# The library modules; ``cli`` is the command line and the package itself
# holds only its names.
LIBRARY = {"blockyaml", "errors", "hierarchy", "identifiers", "kg_store", "query", "schema_model", "validation"}
SCHEMA_STACK = {"schema_model", "blockyaml", "hierarchy"}

# The CLI's library calls that a tracer wraps, found by ``hasattr(cli, name)``
# and rebound with ``setattr``; a copy of perfbench/traced_cli.py's list.
CLI_CALLS = (
    "parse_schema", "validate_schema", "build_closure", "load_equivalences",
    "read_nodes", "read_edges", "build_graph", "validate_graph",
    "write_nodes", "write_edges", "parse_query", "expand_query", "match",
)

# Runs the CLI in a fresh interpreter, then writes the kgschema modules it
# loaded to the file named first. ``main`` ends with SystemExit, hence the
# ``finally``.
VERB_CHILD = """
import json, sys
from kgschema.cli import main
try:
    main(args=sys.argv[2:], prog_name="kgschema")
finally:
    with open(sys.argv[1], "w") as out:
        json.dump(sorted(sys.modules), out)
"""


def _library_loaded(modules) -> set[str]:
    return {name.removeprefix("kgschema.") for name in modules if name.startswith("kgschema.")} & LIBRARY


def _child(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SOURCE, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )


def _verb_loads(tmp_path: Path, *args: str) -> set[str]:
    """The library modules a successful run of the CLI with ``args`` loads."""
    listing = tmp_path / "modules.json"
    result = _child(VERB_CHILD, str(listing), *args)
    assert result.returncode == 0, result.stderr
    return _library_loaded(json.loads(listing.read_text(encoding="utf-8")))


def _copies(directory: Path, suffix: str) -> list[str]:
    """Copies of the demo node and edge files in ``suffix``'s format, in ``directory``."""
    directory.mkdir()
    paths = []
    for name in (f"rhobtb2_nodes{suffix}", f"rhobtb2_edges{suffix}"):
        paths.append(directory / name)
        paths[-1].write_bytes((DATA / name).read_bytes())
    return ["--nodes", str(paths[0]), "--edges", str(paths[1])]


def _demo_args(seed_path):
    return [
        "--schema", str(seed_path),
        "--nodes", str(DATA / "rhobtb2_nodes.tsv"),
        "--edges", str(DATA / "rhobtb2_edges.tsv"),
    ]


def test_importing_the_package_loads_no_submodule_and_from_import_gives_submodules():
    code = (
        "import json, sys, kgschema\n"
        "loaded = sorted(sys.modules)\n"
        "from kgschema import kg_store\n"
        "print(json.dumps([loaded, kg_store is sys.modules['kgschema.kg_store']]))\n"
    )
    result = _child(code)
    assert result.returncode == 0, result.stderr
    loaded, is_submodule = json.loads(result.stdout)
    assert [name for name in loaded if name.startswith("kgschema.")] == []
    assert is_submodule


def test_version_loads_no_library_module(tmp_path):
    assert _verb_loads(tmp_path, "--version") == set()


def test_convert_loads_only_the_graph_store_and_identifiers(tmp_path):
    for args in (
        ["convert", *_copies(tmp_path / "tsv", ".tsv"), "--to", "jsonl"],
        ["convert", *_copies(tmp_path / "jsonl", ".jsonl"), "--to", "tsv"],
        ["convert", "--edges", str(DATA / "rhobtb2_edges.tsv"), "--to", "jsonl"],
        ["convert", "--nodes", str(DATA / "rhobtb2_nodes.jsonl"), "--to", "tsv"],
    ):
        assert _verb_loads(tmp_path, *args) == {"errors", "kg_store", "identifiers"}, args


def test_validate_loads_no_query_module_and_query_no_validation_module(tmp_path, seed_path):
    validate = _verb_loads(tmp_path, "validate", *_demo_args(seed_path))
    assert "query" not in validate
    assert SCHEMA_STACK | {"validation"} <= validate
    query = _verb_loads(tmp_path, "query", *_demo_args(seed_path), "--query", str(DATA / "rhobtb2_query.txt"))
    assert "validation" not in query
    assert SCHEMA_STACK | {"query"} <= query


def test_star_import_binds_exactly_all_each_from_its_defining_module():
    namespace: dict = {}
    exec("from kgschema import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(kgschema.__all__) == sorted(kgschema._HOME_OF)
    for name, value in namespace.items():
        home = sys.modules[f"kgschema.{kgschema._HOME_OF[name]}"]
        assert getattr(home, name) is value, name
        if getattr(value, "__module__", "").startswith("kgschema."):  # not an alias such as Curie
            assert value.__module__ == home.__name__, name


def test_package_names_and_dir():
    assert set(kgschema.__all__) <= set(dir(kgschema))
    assert "__all__" in dir(kgschema) and "__version__" in dir(kgschema)
    assert not hasattr(kgschema, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        kgschema.no_such_name


def test_each_cli_library_call_stays_a_name_of_cli_that_the_verb_looks_up(monkeypatch, seed_path, tmp_path):
    called: set[str] = set()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            called.add(name)
            return function(*args, **kwargs)
        return wrapper

    wrapped = [name for name in CLI_CALLS if hasattr(cli, name)]
    assert set(wrapped) == set(CLI_CALLS) - {"validate_schema"}  # build_closure calls it
    for name in wrapped:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    runner = CliRunner()
    for args in (
        ["validate", *_demo_args(seed_path)],
        ["convert", *_copies(tmp_path / "jsonl", ".jsonl"), "--to", "tsv"],
        ["query", *_demo_args(seed_path), "--query", str(DATA / "rhobtb2_query.txt")],
    ):
        assert runner.invoke(cli.main, args, catch_exceptions=False).exit_code == 0, args
    args = ["normalize", "--schema", str(seed_path), "--equivalences", str(DATA / "equivalences.tsv")]
    assert runner.invoke(cli.main, args, input="NCBIGene:23221\n", catch_exceptions=False).exit_code == 0
    assert called == set(wrapped)
