"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Each criterion is a single test; a failing test is the FAIL line.
"""

import random
import resource
import time
from pathlib import Path

from kgschema import (
    build_closure,
    build_graph,
    expand_predicates,
    expand_query,
    graph_equal,
    load_equivalences,
    match,
    normalize_curie,
    normalize_graph,
    parse_query,
    parse_schema,
    read_edges,
    read_nodes,
    serialize_schema,
    validate_graph,
    write_edges,
    write_nodes,
)
from generators import QUERY_SHAPES, random_cliques, random_graph, random_query, random_schema
from oracles import bindings_as_dicts, brute_force_match, dfs_ancestors, dfs_descendants

DATA = Path(__file__).parent / "data"

FOSTAMATINIB = "CHEMBL.COMPOUND:CHEMBL3989516"
RUXOLITINIB = "CHEMBL.COMPOUND:CHEMBL1789941"
DECOYS = {"CHEBI:39867", "CHEBI:27732"}


def _ok(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_two_hop_reproduction(seed_doc, seed_index, demo_graph, demo_query_text):
    assert len(demo_graph.nodes) <= 12 and len(demo_graph.edges) <= 15
    assert "NCBIGene:23221" in demo_graph.nodes
    started = time.perf_counter()
    qg = parse_query(demo_query_text, seed_doc)
    bindings = match(expand_query(qg, seed_index), demo_graph, seed_doc, seed_index)
    elapsed = time.perf_counter() - started
    chemicals = {binding.assignments["c"] for binding in bindings}
    assert chemicals == {FOSTAMATINIB, RUXOLITINIB}
    assert not chemicals & DECOYS
    for binding in bindings:
        for evidence in binding.evidence.values():
            assert evidence.publications or evidence.has_evidence
    assert elapsed < 1.0, f"query took {elapsed:.3f}s"
    _ok(1, "two-hop drug-regulator reproduction")


def test_criterion_2_predicate_expansion(seed_doc, seed_index):
    started = time.perf_counter()
    full = expand_predicates(seed_index, {"related_to"})
    regulation = expand_predicates(seed_index, {"entity_regulates_entity"})
    elapsed = time.perf_counter() - started
    assert full == set(seed_doc.predicate_names())
    assert regulation == {
        "entity_regulates_entity",
        "positively_regulates",
        "negatively_regulates",
    }
    assert elapsed < 0.010, f"expansion took {elapsed * 1000:.2f}ms"
    _ok(2, "predicate expansion")


def test_criterion_3_closure_oracle_equivalence():
    rng = random.Random(1003)
    mismatches = 0
    for _ in range(200):
        doc = random_schema(rng)  # <= 40 classes, is_a edges well under 60
        index = build_closure(doc)
        class_parents = {n: c.is_a for n, c in doc.classes.items()}
        predicate_parents = {
            n: s.is_a for n, s in doc.slots.items() if s.slot_kind == "predicate"
        }
        for parents, ancestors, descendants in (
            (class_parents, index.class_ancestors, index.class_descendants),
            (predicate_parents, index.predicate_ancestors, index.predicate_descendants),
        ):
            for name in parents:
                if ancestors[name] != dfs_ancestors(parents, name):
                    mismatches += 1
                if descendants[name] != dfs_descendants(parents, name):
                    mismatches += 1
    assert mismatches == 0
    _ok(3, "closure equals DFS reachability on 200 random schemas")


def test_criterion_4_matcher_oracle_equivalence(seed_doc, seed_index):
    rng = random.Random(1004)
    mismatches = 0
    answered = dict.fromkeys(QUERY_SHAPES, 0)
    for trial in range(240):
        nodes, edges = random_graph(rng, seed_doc, max_nodes=10, max_edges=24)
        # Half the graphs lose some nodes, leaving their edges dangling.
        kept = nodes if rng.random() < 0.5 else [n for n in nodes if rng.random() < 0.8]
        kg = build_graph(kept, edges)
        shape = QUERY_SHAPES[trial % len(QUERY_SHAPES)]
        qg = expand_query(random_query(rng, seed_doc, nodes, edges, shape), seed_index)
        ours = bindings_as_dicts(match(qg, kg, seed_doc, seed_index))
        oracle = brute_force_match(qg, kg, seed_doc)
        if ours != oracle:
            mismatches += 1
        answered[shape] += bool(oracle)
    assert mismatches == 0
    assert all(answered.values()), answered
    _ok(4, "matcher equals brute-force enumeration on 240 random graphs and six query shapes")


def test_criterion_5_normalization_properties(seed_doc, seed_index):
    rng = random.Random(1005)
    categories = [n for n, c in seed_doc.classes.items() if not c.is_mixin]
    lines = random_cliques(rng, categories, count=1000)
    table = load_equivalences("\n".join(lines) + "\n")
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        for clique in table.cliques:
            normalized = {
                normalize_curie(table, member, seed_doc, seed_index)
                for member in clique.members
            }
            assert len(normalized) == 1  # clique coherence
            target = normalized.pop()
            assert normalize_curie(table, target, seed_doc, seed_index) == target

    mondo_table = load_equivalences("Disease\tMONDO:0005737|DOID:4325\n")
    assert normalize_curie(
        mondo_table, "DOID:4325", seed_doc, seed_index
    ) == "MONDO:0005737"
    _ok(5, "normalization idempotence, coherence, and Mondo preference")


def _mutations(nodes_text: str, edges_text: str) -> list[tuple[str, str, str, dict[str, int]]]:
    """Ten single-fault variants of the demo fixture and their exact findings."""
    phen_row = "MONDO:0005027\thas_phenotype\tHP:0001250\tPMID:29050398\t"
    return [
        (
            "unknown predicate",
            nodes_text,
            edges_text.replace("\taffects\t", "\tcauses_xyzzy\t"),
            {"UNKNOWN_PREDICATE": 1},
        ),
        (
            "reversed has_phenotype edge",
            nodes_text,
            edges_text.replace(phen_row, "HP:0001250\thas_phenotype\tMONDO:0005027\tPMID:29050398\t"),
            {"DOMAIN_VIOLATION": 1, "RANGE_VIOLATION": 1},
        ),
        (
            "missing required publications on matched association",
            nodes_text,
            edges_text.replace(phen_row, "MONDO:0005027\thas_phenotype\tHP:0001250\t\t"),
            {"MISSING_REQUIRED_EDGE_PROPERTY": 1},
        ),
        (
            "dangling edge",
            "\n".join(
                line for line in nodes_text.split("\n") if not line.startswith("CHEBI:39867\t")
            ),
            edges_text,
            {"DANGLING_EDGE": 1},
        ),
        (
            "unknown category",
            nodes_text.replace("NCBIGene:23221\tGene\t", "NCBIGene:23221\tGene|Sickness\t"),
            edges_text,
            {"UNKNOWN_CATEGORY": 1},
        ),
        (
            "identifier prefix not allowed for category",
            nodes_text + "OMIM:164040\tGene\tRHOBTB2 by OMIM\tRHOBTB2\n",
            edges_text,
            {"ID_PREFIX_NOT_ALLOWED": 1},
        ),
        (
            "node categorized only by a mixin",
            nodes_text + "FAKE:1\tGeneOrGeneProduct\tabstract thing\t\n",
            edges_text,
            {"ABSTRACT_MIXIN_INSTANTIATED": 1},
        ),
        (
            "malformed provenance identifier",
            nodes_text,
            edges_text.replace("PMID:28289970", "see lab notebook"),
            {"MALFORMED_PROVENANCE_CURIE": 1},
        ),
        (
            "no association accepts the pair",
            nodes_text + "CHEBI:24431\tChemicalEntity\tchemical entity\t\n",
            edges_text + "CHEBI:24431\ttreats\tMONDO:0005027\tPMID:1\t\n",
            {"NO_MATCHING_ASSOCIATION": 1},
        ),
        (
            "range violation alone",
            nodes_text,
            edges_text.replace(
                "CHEMBL.COMPOUND:CHEMBL1789941\tnegatively_regulates\tNCBIGene:23221",
                "CHEMBL.COMPOUND:CHEMBL1789941\tnegatively_regulates\tMONDO:0005027",
            ),
            {"RANGE_VIOLATION": 1},
        ),
    ]


def test_criterion_6_validation_determinism_and_fault_injection(
    seed_doc, seed_index, demo_nodes_text, demo_edges_text
):
    clean = build_graph(read_nodes(demo_nodes_text), read_edges(demo_edges_text))
    clean_report = validate_graph(clean, seed_doc, seed_index)
    assert clean_report.error_count == 0
    assert clean_report.violations == []

    mutations = _mutations(demo_nodes_text, demo_edges_text)
    assert len(mutations) == 10
    for name, nodes_text, edges_text, expected in mutations:
        assert (nodes_text, edges_text) != (demo_nodes_text, demo_edges_text), name
        kg = build_graph(read_nodes(nodes_text), read_edges(edges_text))
        report = validate_graph(kg, seed_doc, seed_index)
        assert report.counts == expected, f"{name}: {report.counts}"
        sequential = validate_graph(kg, seed_doc, seed_index, parallelism=1).to_jsonl()
        parallel = validate_graph(kg, seed_doc, seed_index, parallelism=8).to_jsonl()
        assert sequential == parallel, name
    _ok(6, "zero-error fixture, ten exact single-fault findings, jobs-invariant reports")


def test_criterion_7_round_trips(seed_doc, demo_nodes_text, demo_edges_text):
    assert parse_schema(serialize_schema(seed_doc)) == seed_doc

    nodes = read_nodes(demo_nodes_text)
    edges = read_edges(demo_edges_text)
    original = build_graph(nodes, edges)
    via_jsonl = build_graph(
        read_nodes(write_nodes(nodes, "jsonl")), read_edges(write_edges(edges, "jsonl"))
    )
    assert graph_equal(original, via_jsonl)
    back_to_tsv = build_graph(
        read_nodes(write_nodes(read_nodes(write_nodes(nodes, "jsonl")), "tsv")),
        read_edges(write_edges(read_edges(write_edges(edges, "jsonl")), "tsv")),
    )
    assert graph_equal(original, back_to_tsv)
    _ok(7, "schema and tabular format round trips")


def _scale_fixture(rng: random.Random, n_nodes: int, n_edges: int) -> tuple[str, str, str]:
    pools = {
        "Gene": [f"NCBIGene:{i}" for i in range(int(n_nodes * 0.25))]
        + [f"HGNC:{i}" for i in range(int(n_nodes * 0.05))],
        "Protein": [f"UniProtKB:P{i:05d}" for i in range(int(n_nodes * 0.10))],
        "Disease": [f"MONDO:{i:07d}" for i in range(int(n_nodes * 0.20))],
        "PhenotypicFeature": [f"HP:{i:07d}" for i in range(int(n_nodes * 0.20))],
        "SmallMolecule": [f"CHEBI:{i}" for i in range(int(n_nodes * 0.20))],
    }
    node_rows = ["id\tcategory\tname"]
    for category, pool in pools.items():
        for ident in pool:
            node_rows.append(f"{ident}\t{category}\tentity {ident}")
    gene_like = pools["Gene"] + pools["Protein"]
    plan = [
        ("entity_regulates_entity", gene_like, gene_like),
        ("negatively_regulates", pools["SmallMolecule"], gene_like),
        ("interacts_with", pools["SmallMolecule"], gene_like),
        ("gene_associated_with_condition", gene_like, pools["Disease"]),
        ("has_phenotype", pools["Disease"], pools["PhenotypicFeature"]),
        ("treats", pools["SmallMolecule"], pools["Disease"]),
        ("affects", pools["SmallMolecule"], pools["Disease"]),
        ("genetically_interacts_with", gene_like, gene_like),
    ]
    edge_rows = ["subject\tpredicate\tobject\tpublications"]
    for i in range(n_edges):
        predicate, s_pool, o_pool = plan[i % len(plan)]
        subject = s_pool[rng.randrange(len(s_pool))]
        obj = o_pool[rng.randrange(len(o_pool))]
        edge_rows.append(f"{subject}\t{predicate}\t{obj}\tPMID:{i % 99999}")
    # Cliques join every HGNC gene to its NCBIGene twin, forcing rewrites
    # and node merges during normalization.
    eq_lines = [f"Gene\tNCBIGene:{i}|HGNC:{i}" for i in range(int(n_nodes * 0.05))]
    return (
        "\n".join(node_rows) + "\n",
        "\n".join(edge_rows) + "\n",
        "\n".join(eq_lines) + "\n",
    )


def test_criterion_8_scale_smoke(seed_doc, seed_index):
    rng = random.Random(1008)
    nodes_text, edges_text, eq_text = _scale_fixture(rng, n_nodes=100_000, n_edges=500_000)
    table = load_equivalences(eq_text)
    started = time.perf_counter()
    nodes = read_nodes(nodes_text)
    edges = read_edges(edges_text)
    kg = build_graph(nodes, edges)
    report = validate_graph(kg, seed_doc, seed_index)
    normalized, norm_report = normalize_graph(kg, table, seed_doc, seed_index)
    elapsed = time.perf_counter() - started
    assert len(kg.nodes) == 100_000
    assert len(kg.edges) > 490_000  # random duplicates merge
    assert report.error_count == 0
    assert norm_report.ids_rewritten == 5000  # every HGNC id rewrites
    assert norm_report.nodes_merged == 5000  # each onto its NCBIGene twin
    assert len(normalized.nodes) == 95_000
    assert elapsed < 60.0, f"scale run took {elapsed:.1f}s"
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert peak_mb < 4096, f"peak RSS {peak_mb:.0f} MiB"
    _ok(8, f"100k nodes / 500k edges validated and normalized in {elapsed:.1f}s")
