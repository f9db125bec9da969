from __future__ import annotations

import os
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import settings

from kgschema import (
    ClosureIndex,
    KnowledgeGraph,
    SchemaDocument,
    build_closure,
    build_graph,
    load_equivalences,
    parse_schema,
    read_edges,
    read_nodes,
)

from generators import DEEP_EXAMPLES

DATA = Path(__file__).parent / "data"

# HYPOTHESIS_PROFILE=deep runs every property test at DEEP_EXAMPLES examples;
# without it each test keeps its tier-1 count.
settings.register_profile("deep", max_examples=DEEP_EXAMPLES)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def seed_path() -> Path:
    return Path(str(files("kgschema") / "data" / "seed_schema.kgs.yaml"))


@pytest.fixture(scope="session")
def seed_text(seed_path: Path) -> str:
    return seed_path.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def seed_doc(seed_text: str) -> SchemaDocument:
    return parse_schema(seed_text)


@pytest.fixture(scope="session")
def seed_index(seed_doc: SchemaDocument) -> ClosureIndex:
    return build_closure(seed_doc)


@pytest.fixture(scope="session")
def demo_nodes_text() -> str:
    return (DATA / "rhobtb2_nodes.tsv").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def demo_edges_text() -> str:
    return (DATA / "rhobtb2_edges.tsv").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def demo_query_text() -> str:
    return (DATA / "rhobtb2_query.txt").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def demo_graph(demo_nodes_text: str, demo_edges_text: str) -> KnowledgeGraph:
    return build_graph(read_nodes(demo_nodes_text), read_edges(demo_edges_text))


@pytest.fixture(scope="session")
def demo_equivalences():
    return load_equivalences((DATA / "equivalences.tsv").read_text(encoding="utf-8"))
