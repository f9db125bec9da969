"""Seeded input generators for the benchmark workloads.

Each generator writes the files the program reads and returns what the
checks need to know about them: the expected validation counts, the clique
count that normalization must rewrite and merge, the query pool and the
query sequence, and the input properties recorded with every run. The
program under test only ever sees the generated files.

Usage: ``python3 perfbench/workloads.py SHAPE DIRECTORY SEED NODES EDGES
QUERY_SET SCHEMA`` with ``src`` on ``PYTHONPATH`` writes one workload's
files and ``DIRECTORY/inputs.json``, which :func:`load_inputs` reads back.
``run.py`` generates in such a child process because a process starts with
its parent's peak RSS as its own: generating in the process that starts the
program would put a floor under the program's measured peak RSS.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

# Why each workload exists; printed with every run and listed in METRICS.md.
WHY = {
    "ingest-clean": (
        "bulk load, validate, normalize and convert of a clean criterion-8-shape graph: "
        "load path, GC, input digest and per-signature validation dominate, few signatures"
    ),
    "ingest-dirty": (
        "same layers on JSONL input with multi-category nodes, extra property columns and "
        "one injected fault on about 10% of edges: many signatures, a large report"
    ),
    "query-mix": (
        "smaller criterion-8-shape graph loaded once, then a seeded closed-loop sequence of "
        "hierarchy-expanded queries: match dominates"
    ),
    "c8-reference": (
        "the criterion-8 fixture at 100k nodes / 500k edges for the traced reference run; "
        "not gated"
    ),
}

# Edge plan of the criterion-8 fixture: predicate, subject pool, object pool.
C8_PLAN = (
    ("entity_regulates_entity", "gene_like", "gene_like"),
    ("negatively_regulates", "SmallMolecule", "gene_like"),
    ("interacts_with", "SmallMolecule", "gene_like"),
    ("gene_associated_with_condition", "gene_like", "Disease"),
    ("has_phenotype", "Disease", "PhenotypicFeature"),
    ("treats", "SmallMolecule", "Disease"),
    ("affects", "SmallMolecule", "Disease"),
    ("genetically_interacts_with", "gene_like", "gene_like"),
)

# The dirty workload adds three unconstrained predicates to the same plan.
DIRTY_PLAN = C8_PLAN + (
    ("positively_regulates", "gene_like", "gene_like"),
    ("contributes_to", "gene_like", "Disease"),
    ("associated_with", "PhenotypicFeature", "Disease"),
)

EDGE_FAULTS = (
    "DANGLING_EDGE",
    "UNKNOWN_PREDICATE",
    "DOMAIN_VIOLATION",
    "RANGE_VIOLATION",
    "NO_MATCHING_ASSOCIATION",
    "MISSING_REQUIRED_EDGE_PROPERTY",
    "MALFORMED_PROVENANCE_CURIE",
)
NODE_FAULTS = ("UNKNOWN_CATEGORY", "ABSTRACT_MIXIN_INSTANTIATED", "ID_PREFIX_NOT_ALLOWED")
WARNING_CODES = {"ID_PREFIX_NOT_ALLOWED", "NO_MATCHING_ASSOCIATION", "MALFORMED_PROVENANCE_CURIE"}
EDGE_FAULT_SHARE = 0.10
NODE_FAULT_SHARE = 0.03
UNKNOWN_CLASS = "Widget"
UNKNOWN_PREDICATE = "regulates_xyzzy"
# Distinct pinned queries, spread evenly over the shapes: many pinned nodes
# keep the query cost of one seed close to that of another. A run takes its
# percentiles over the distinct queries, so there are at least 100, and ten
# or more lie beyond the 90th percentile.
POOL_SIZE = 105


@dataclass
class Inputs:
    """Generated files plus everything the checks know about them."""

    nodes: Path
    edges: Path
    equivalences: Path
    fmt: str
    cliques: int
    expected_counts: dict[str, int]
    queries: list[str]
    sequence: list[int]
    properties: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Criterion-8 shape (ingest-clean, query-mix, c8-reference)


def c8_fixture(rng: random.Random, n_nodes: int, n_edges: int):
    """The criterion-8 fixture generator of the acceptance suite.

    Returns node TSV, edge TSV, equivalence text and the edge triples. With
    ``random.Random(1008)`` at 100k/500k it produces the suite's fixture.
    """
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
    pools["gene_like"] = pools["Gene"] + pools["Protein"]
    edge_rows = ["subject\tpredicate\tobject\tpublications"]
    triples = []
    for i in range(n_edges):
        predicate, s_pool, o_pool = C8_PLAN[i % len(C8_PLAN)]
        subject = pools[s_pool][rng.randrange(len(pools[s_pool]))]
        obj = pools[o_pool][rng.randrange(len(pools[o_pool]))]
        edge_rows.append(f"{subject}\t{predicate}\t{obj}\tPMID:{i % 99999}")
        triples.append((subject, predicate, obj))
    eq_lines = [f"Gene\tNCBIGene:{i}|HGNC:{i}" for i in range(int(n_nodes * 0.05))]
    return (
        "\n".join(node_rows) + "\n",
        "\n".join(edge_rows) + "\n",
        "\n".join(eq_lines) + "\n",
        triples,
    )


def generate_c8(directory: Path, seed: int, n_nodes: int, n_edges: int, query_set: str) -> Inputs:
    nodes_text, edges_text, eq_text, triples = c8_fixture(random.Random(seed), n_nodes, n_edges)
    queries, sequence = make_queries(random.Random(f"queries-{seed}"), triples, query_set)
    return Inputs(
        *_write(directory, "tsv", nodes_text, edges_text, eq_text),
        fmt="tsv",
        cliques=int(n_nodes * 0.05),
        expected_counts={},
        queries=queries,
        sequence=sequence,
        properties={"node_rows": nodes_text.count("\n") - 1, "edge_rows": n_edges,
                    "faulted_edge_share": {}},
    )


# ---------------------------------------------------------------------------
# Dirty shape (ingest-dirty)


class SchemaFacts:
    """Naive readings of the schema rules the dirty generator must predict.

    Walks the is_a chains and mixin declarations directly, so expected
    violation counts do not come from the validator being checked.
    """

    def __init__(self, doc):
        self.classes = doc.classes
        self.mixins = {name for name, cls in doc.classes.items() if cls.is_mixin}
        self.chains = {name: self._chain(name) for name in self.classes}
        self.reach = {name: self._mixin_reach(name) for name in self.classes}

    def _chain(self, name: str) -> list[str]:
        out = [name]
        current = self.classes[name].is_a
        while current is not None and current in self.classes and current not in out:
            out.append(current)
            current = self.classes[current].is_a
        return out

    def _mixin_reach(self, name: str) -> set[str]:
        reach, stack, seen = set(), [name], {name}
        while stack:
            cls = self.classes[stack.pop()]
            if cls.is_mixin:
                reach.add(cls.name)
            for nxt in ([cls.is_a] if cls.is_a else []) + list(cls.mixins):
                if nxt in self.classes and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return reach

    def closed(self, categories: list[str]) -> frozenset[str]:
        """Ancestors plus carried mixins of every known category."""
        out: set[str] = set()
        for category in categories:
            if category in self.classes:
                out.update(self.chains[category])
                out.update(self.reach[category])
        return frozenset(out)

    def most_specific(self, known: list[str]) -> str:
        """Lexicographically first category with no other category below it."""

        def below(other: str, category: str) -> bool:
            if category in self.chains[other]:
                return True
            return category in self.mixins and other not in self.mixins and category in self.reach[other]

        minimal = [
            c for c in known if not any(o != c and below(o, c) for o in known)
        ]
        return sorted(minimal)[0]

    def allowed_prefixes(self, category: str) -> list[str]:
        allowed: set[str] = set()
        for ancestor in self.chains[category]:
            allowed.update(self.classes[ancestor].id_prefixes)
        return sorted(allowed)


def generate_dirty(directory: Path, seed: int, n_nodes: int, n_edges: int, doc) -> Inputs:
    rng = random.Random(seed)
    facts = SchemaFacts(doc)
    every_category = sorted(facts.classes)
    serial = iter(range(10**9))
    node_objs: list[dict] = []
    closed: dict[str, frozenset[str]] = {}
    expected: dict[str, int] = {}

    def new_node(primary: str, fault: str | None = None) -> str:
        while True:
            if fault == "ABSTRACT_MIXIN_INSTANTIATED":
                categories = rng.sample(sorted(facts.mixins), rng.randint(1, len(facts.mixins)))
            else:
                others = [c for c in every_category if c != primary]
                categories = [primary] + rng.sample(others, rng.randint(0, 2))
            allowed = facts.allowed_prefixes(facts.most_specific(categories))
            # A wrong prefix is only a violation where some prefix is allowed.
            if allowed or fault != "ID_PREFIX_NOT_ALLOWED":
                break
        if fault == "ID_PREFIX_NOT_ALLOWED":
            outside = [p for p in sorted(doc.prefixes) if p not in allowed]
            prefix = rng.choice(outside)
        else:
            prefix = rng.choice(allowed or facts.allowed_prefixes(primary) or ["XX"])
        if fault == "UNKNOWN_CATEGORY":
            categories.insert(rng.randint(0, len(categories)), UNKNOWN_CLASS)
        ident = f"{prefix}:{next(serial)}"
        obj: dict = {"id": ident, "category": categories}
        if rng.random() < 0.9:
            obj["name"] = f"entity {ident}"
        xrefs = [f"UMLS:C{rng.randrange(10**7):07d}" for _ in range(rng.randint(0, 3))]
        if xrefs:
            obj["xref"] = xrefs
        node_objs.append(obj)
        closed[ident] = facts.closed(categories)
        return ident

    # Clique pairs: single-category genes that normalization merges.
    cliques = int(n_nodes * 0.05)
    for i in range(cliques):
        for ident in (f"NCBIGene:{i}", f"HGNC:{i}"):
            node_objs.append({"id": ident, "category": ["Gene"], "name": f"gene {i}"})
            closed[ident] = facts.closed(["Gene"])
    for _ in range(cliques):
        next(serial)
    shares = {"Gene": 0.20, "Protein": 0.10, "Disease": 0.20, "PhenotypicFeature": 0.20,
              "SmallMolecule": 0.20}
    pools: dict[str, list[str]] = {}
    for primary, share in shares.items():
        pools[primary] = [new_node(primary) for _ in range(int(n_nodes * share))]
    pools["Gene"] += [f"NCBIGene:{i}" for i in range(cliques)] + [f"HGNC:{i}" for i in range(cliques)]
    pools["gene_like"] = pools["Gene"] + pools["Protein"]
    node_faults = max(1, int(n_nodes * NODE_FAULT_SHARE / len(NODE_FAULTS)))
    for code in NODE_FAULTS:
        for _ in range(node_faults):
            new_node(rng.choice(sorted(shares)), fault=code)
        expected[code] = node_faults

    def provenance() -> dict:
        props: dict = {
            "publications": [f"PMID:{rng.randrange(10**8)}" for _ in range(rng.randint(1, 3))]
        }
        if rng.random() < 0.6:
            props["has_evidence"] = [f"ECO:{rng.randrange(10**7):07d}" for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.5:
            props["knowledge_source"] = [f"infores:source{rng.randrange(40)}"]
        return props

    def pick(pool: str, lacking: str | None = None) -> str:
        while True:
            ident = rng.choice(pools[pool])
            if lacking is None or lacking not in closed[ident]:
                return ident

    n_faulted = int(n_edges * EDGE_FAULT_SHARE)
    n_duplicates = int(n_edges * 0.05)
    rows: list[dict] = []
    clean_triples: set[tuple[str, str, str]] = set()
    pinnable: list[tuple[str, str, str]] = []
    for i in range(n_edges - n_faulted - n_duplicates):
        predicate, s_pool, o_pool = DIRTY_PLAN[i % len(DIRTY_PLAN)]
        triple = (pick(s_pool), predicate, pick(o_pool))
        rows.append({"subject": triple[0], "predicate": predicate, "object": triple[2], **provenance()})
        clean_triples.add(triple)
        pinnable.append(triple)
    for _ in range(n_duplicates):
        row = dict(rng.choice(rows))
        row.update(provenance())
        rows.append(row)

    used = set(clean_triples)
    per_code = n_faulted // len(EDGE_FAULTS)

    def fault_row(code: str) -> dict:
        props = provenance()
        if code == "DANGLING_EDGE":
            predicate, s_pool, _ = rng.choice(DIRTY_PLAN)
            triple = (pick(s_pool), predicate, f"MONDO:absent{next(serial)}")
        elif code == "UNKNOWN_PREDICATE":
            triple = (pick("gene_like"), UNKNOWN_PREDICATE, pick("Disease"))
        elif code == "DOMAIN_VIOLATION":
            triple = (pick(rng.choice(("gene_like", "SmallMolecule")), lacking="Disease"),
                      "has_phenotype", pick("PhenotypicFeature"))
        elif code == "RANGE_VIOLATION":
            triple = (pick("gene_like"), "entity_regulates_entity",
                      pick(rng.choice(("Disease", "SmallMolecule")), lacking="GeneOrGeneProduct"))
        elif code == "NO_MATCHING_ASSOCIATION":
            triple = (pick("gene_like"), "gene_associated_with_condition",
                      pick("PhenotypicFeature", lacking="Disease"))
        elif code == "MISSING_REQUIRED_EDGE_PROPERTY":
            triple = (pick("Disease"), "has_phenotype", pick("PhenotypicFeature"))
            props.pop("publications")
        else:  # MALFORMED_PROVENANCE_CURIE: exactly one bad value
            predicate, s_pool, o_pool = rng.choice(DIRTY_PLAN)
            triple = (pick(s_pool), predicate, pick(o_pool))
            if rng.random() < 0.5:
                props["publications"].append(f"PMID {rng.randrange(10**6)}")
            else:
                props["has_evidence"] = [f"ECO:{rng.randrange(10**4)} x"]
        if triple in used:
            return fault_row(code)
        used.add(triple)
        return {"subject": triple[0], "predicate": triple[1], "object": triple[2], **props}

    for code in EDGE_FAULTS:
        rows.extend(fault_row(code) for _ in range(per_code))
        expected[code] = expected.get(code, 0) + per_code
    rng.shuffle(rows)
    rng.shuffle(node_objs)

    nodes_text = "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in node_objs)
    edges_text = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    eq_text = "".join(f"Gene\tNCBIGene:{i}|HGNC:{i}\n" for i in range(cliques))
    queries, sequence = make_queries(random.Random(f"queries-{seed}"), pinnable, "light")
    return Inputs(
        *_write(directory, "jsonl", nodes_text, edges_text, eq_text),
        fmt="jsonl",
        cliques=cliques,
        expected_counts=expected,
        queries=queries,
        sequence=sequence,
        properties={"node_rows": len(node_objs), "edge_rows": len(rows),
                    "faulted_edge_share": {code: round(per_code / len(rows), 5) for code in EDGE_FAULTS}},
    )


# ---------------------------------------------------------------------------
# Queries


def make_queries(rng: random.Random, triples, query_set: str) -> tuple[list[str], list[int]]:
    """Pin each query shape on nodes taken from generated edges.

    The ``light`` set holds one-predicate hops, each costing one scan of the
    edges, and a fork of two such hops; the ``mix`` set adds the related_to
    hop and the 2-hop chain. Returns the query texts, the last of which is
    the CLI's query, and the shuffled sequence of pooled query positions.
    """
    by_predicate: dict[str, list[tuple[str, str, str]]] = {}
    for triple in triples:
        by_predicate.setdefault(triple[1], []).append(triple)

    def subject_of(predicate: str) -> str:
        return rng.choice(by_predicate[predicate])[0]

    def object_of(predicate: str) -> str:
        return rng.choice(by_predicate[predicate])[2]

    shapes = {
        "treats-object-pinned": lambda: f"?c:SmallMolecule -[treats]-> {object_of('treats')}",
        "symmetric-hop": lambda: (
            f"{object_of('genetically_interacts_with')} -[genetically_interacts_with]-> ?p"
        ),
        "mixin-subject": lambda: (
            "?g:GeneOrGeneProduct -[gene_associated_with_condition]-> "
            f"{object_of('gene_associated_with_condition')}"
        ),
        "mixin-object": lambda: (
            f"{subject_of('gene_associated_with_condition')} -[gene_associated_with_condition]-> "
            "?d:DiseaseOrPhenotypicFeature"
        ),
    }

    def fork() -> str:
        gene = subject_of("gene_associated_with_condition")
        return (
            f"{gene} -[gene_associated_with_condition]-> ?d:Disease\n"
            f"EDGE {gene} -[entity_regulates_entity]-> ?t"
        )

    def rhobtb2(start: str | None = None) -> str:
        # The demo query's shape: a pinned 2-hop chain.
        return (
            f"{start or subject_of('entity_regulates_entity')} "
            "-[entity_regulates_entity|genetically_interacts_with]-> ?g:Gene|Protein "
            "-[related_to]-> ?c:SmallMolecule"
        )

    def typical_chain_start() -> str:
        # The match time of a 2-hop chain grows with the pinned node's
        # first-hop edge count. The CLI runs a single such query per seed, so
        # it pins a node whose count is the median one, the same for every seed.
        hops = Counter(s for s, _, _ in by_predicate["entity_regulates_entity"])
        for s, _, o in by_predicate["genetically_interacts_with"]:
            hops[s] += 1
            if o != s:
                hops[o] += 1
        starts = sorted({s for s, _, _ in by_predicate["entity_regulates_entity"]})
        typical = statistics.median_low(hops[s] for s in starts)
        return rng.choice([s for s in starts if hops[s] == typical])

    shapes["fork"] = fork
    if query_set == "mix":
        shapes["related-1hop"] = lambda: (
            f"{subject_of('entity_regulates_entity')} -[related_to]-> ?x"
        )
        shapes["rhobtb2-2hop"] = rhobtb2
    pool = [shapes[name]() for name in sorted(shapes) for _ in range(POOL_SIZE // len(shapes))]
    # Every pooled query runs equally often, so the mix of shapes, and with
    # it the rank the percentiles fall on, is the same for every seed.
    sequence = list(range(len(pool)))
    rng.shuffle(sequence)
    return pool + [rhobtb2(typical_chain_start())], sequence


def _write(directory: Path, fmt: str, nodes_text: str, edges_text: str, eq_text: str):
    paths = (directory / f"nodes.{fmt}", directory / f"edges.{fmt}", directory / "equivalences.tsv")
    for path, text in zip(paths, (nodes_text, edges_text, eq_text)):
        path.write_text(text, encoding="utf-8")
    return paths


def load_inputs(path: Path) -> Inputs:
    """The ``Inputs`` that :func:`main` wrote to ``path``."""
    record = json.loads(path.read_text(encoding="utf-8"))
    for key in ("nodes", "edges", "equivalences"):
        record[key] = Path(record[key])
    return Inputs(**record)


def main(argv: list[str]) -> None:
    shape, directory, seed, nodes, edges, query_set, schema = argv
    directory = Path(directory)
    if shape == "dirty":
        from kgschema import parse_schema

        doc = parse_schema(Path(schema).read_text(encoding="utf-8"))
        inputs = generate_dirty(directory, int(seed), int(nodes), int(edges), doc)
    else:
        inputs = generate_c8(directory, int(seed), int(nodes), int(edges), query_set)
    (directory / "inputs.json").write_text(json.dumps(asdict(inputs), default=str), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
