"""kgschema benchmark: CLI verbs and library calls, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload ingest-dirty --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process generates the inputs from ``--seed`` into a scratch directory
inside the checkout, then runs the program one process at a time, in
rounds: a fresh library worker (``worker.py``: set-ups, normalize steps,
queries), then the ``kgschema`` CLI verbs ``validate``, ``convert`` and
``query`` as subprocesses. Outputs are checked outside the timed regions. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, with the end-to-end metrics under ``--trace 0``
and the per-layer metrics of a traced run under ``--trace 1``. A table with
medians, quartiles and sample counts goes to standard error. METRICS.md
lists every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = SRC / "kgschema" / "data" / "seed_schema.kgs.yaml"
WORK = ROOT / ".perfbench_work"
SUBPROCESS_TIMEOUT_S = 150
# A run repeats rounds until --seconds have passed, and at least this many.
# A round starts a fresh library worker (WORKER_REPEATS set-ups, each with a
# normalize step, then the whole query sequence), then runs the verbs
# validate, convert and query. Rounds spread every metric's samples over
# the whole run.
MIN_ROUNDS = 3
WORKER_REPEATS = 3
# How a run turns a metric's samples into one value. The shared host runs
# the benchmark at two speeds about 1.5x apart, in phases of seconds, and the
# share of time at the slower one drifts from minute to minute. A run's
# median jumps between the two speeds when that share crosses one half; the
# mean moves only in proportion to it. So a timing reports the mean of its
# samples less the lowest and highest tenth, which also drops single
# stalls, and a query percentile is taken over each distinct query's such
# mean. Set-up time and peak memory report the median.
MEDIAN_METRICS = ("setup_s", "validate_rss_mib", "peak_rss_mib")
# Phases of the slower speed also last whole runs, and then move every
# statistic of a run alike. So before each operation a run also times a
# fixed job that does not use kgschema (reference_job), and every timing is
# reported at the host speed at which that job takes REFERENCE_S: it is
# multiplied by REFERENCE_S over the job's trimmed mean in the same run.
# REFERENCE_S is about the job's time on the host this benchmark was built on.
REFERENCE_S = 0.03
TIMINGS = ("setup_s", "validate_s", "convert_s", "normalize_s", "query_cli_s", "query_p50_ms",
           "query_p90_ms")


@dataclass(frozen=True)
class Workload:
    shape: str  # "c8" (criterion-8 generator) or "dirty"
    nodes: int
    edges: int
    queries: str  # "light": one-predicate hops only; "mix": every shape


WORKLOADS = {
    "ingest-dirty": Workload("dirty", 3_000, 15_000, "light"),
    "query-mix": Workload("c8", 3_000, 15_000, "mix"),
    # Not in BENCHMARK.json: the clean ingest job, which query-mix's clean
    # graph also covers, and the traced reference at the ROADMAP size.
    "ingest-clean": Workload("c8", 6_000, 30_000, "light"),
    "c8-reference": Workload("c8", 100_000, 500_000, "light"),
}
GATED = ("ingest-dirty", "query-mix")


def declared_units(kind: str) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values left after dropping the lowest and highest tenth."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def reference_job() -> float:
    """Wall time of a fixed pure-Python job: text parsing, dicts, sets, sort."""
    import gc
    import random

    gc.collect()
    started = time.perf_counter()
    rng = random.Random(0)
    lines = [f"NCBIGene:{rng.randrange(10**6)}\tGene|Protein\tentity {i}" for i in range(5_000)]
    nodes = {}
    for line in lines:
        ident, categories, name = line.split("\t")
        nodes[ident] = (ident, tuple(categories.split("|")), name)
    keys = sorted(nodes)
    edges: dict[str, list] = {}
    for _ in range(10_000):
        subject, obj = keys[rng.randrange(len(keys))], keys[rng.randrange(len(keys))]
        edges.setdefault(subject, []).append((subject, obj, frozenset(nodes[obj][1])))
    "\n".join(f"{subject}\t{len(out)}" for subject, out in sorted(edges.items()))
    return time.perf_counter() - started


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def require_program() -> None:
    """Refuse to run without the package source and the test oracles."""
    for needed in (SRC / "kgschema" / "__init__.py", SCHEMA, ROOT / "tests" / "oracles.py",
                   ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            fail(f"missing {needed.relative_to(ROOT)}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import kgschema

    if Path(kgschema.__file__).resolve().parent != SRC / "kgschema":
        fail(f"imported kgschema from {kgschema.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Processes


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("KGSCHEMA_DEFAULT_SCHEMA", None)
    return env


def spawn(argv: list[str], stdout: Path) -> tuple[float, int, float]:
    """Run one process to completion: (wall seconds, exit code, peak RSS MiB)."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        killer = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


def kgschema_argv(args: list[str], spans: Path | None = None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "kgschema", *args]
    return [sys.executable, str(HERE / "traced_cli.py"), str(spans), *args]


def digest(*paths: Path) -> str:
    hasher = hashlib.sha256()
    for path in paths:
        hasher.update(path.read_bytes())
        hasher.update(b"\0")
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# One run


class Run:
    def __init__(self, name: str, seed: int, seconds: float, directory: Path):
        from kgschema import build_closure, parse_schema

        self.name, self.seed, self.seconds = name, seed, seconds
        self.workload = WORKLOADS[name]
        self.dir = directory
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.doc = parse_schema(SCHEMA.read_text(encoding="utf-8"))
        self.index = build_closure(self.doc)
        w = self.workload
        argv = [sys.executable, str(HERE / "workloads.py"), w.shape, str(directory), str(seed),
                str(w.nodes), str(w.edges), w.queries, str(SCHEMA)]
        if spawn(argv, directory / "generate.out")[1] != 0:
            err = (directory / "generate.err").read_text(encoding="utf-8", errors="replace")
            raise RuntimeError(f"input generation failed:\n{err[-2000:]}")
        self.inputs = workloads.load_inputs(directory / "inputs.json")
        self.why = workloads.WHY[name]
        target = "tsv" if self.inputs.fmt == "jsonl" else "jsonl"
        self.convert_out = (
            self.inputs.nodes.with_suffix(f".{target}"),
            self.inputs.edges.with_suffix(f".{target}"),
        )
        self.convert_target = target
        self.samples: dict[str, list[float]] = {}
        self.query_ms: dict[int, list[float]] = {}  # per pooled query position
        self.first: dict[str, str] = {}
        self.pending: list = []  # first CLI outputs, fully checked after the run
        self.normalize_reports: list[dict] = []
        self.query_results: dict[int, list[str]] = {}

    def fault(self, what: str) -> None:
        """Count a failed check against an operation already attempted."""
        self.failed += 1
        self.failures.append(what)

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    # -- CLI verbs ----------------------------------------------------------

    def graph_args(self) -> list[str]:
        return ["--schema", str(SCHEMA), "--nodes", str(self.inputs.nodes),
                "--edges", str(self.inputs.edges)]

    def verb(self, kind: str, args: list[str], expected_exit: int, outputs, spans=None):
        """Run one verb; keep the first output for a full check, compare later ones."""
        out = self.dir / f"{kind}.out"
        wall, code, rss = spawn(kgschema_argv(args, spans), out)
        self.attempted += 1
        produced = [out] + list(outputs)
        if kind not in self.first:
            keep = self.dir / f"first-{kind}"
            keep.mkdir()
            kept = [keep / path.name for path in produced]
            for source, dest in zip(produced, kept):
                shutil.copyfile(source, dest)
            self.first[kind] = digest(*produced)
            self.pending.append((kind, code, kept))
        elif code != expected_exit or digest(*produced) != self.first[kind]:
            self.fault(f"{kind}: exit {code} or output differs from the first run")
        return wall, code, rss

    def validate(self, spans=None, jobs: int = 1):
        errors = any(c not in workloads.WARNING_CODES for c in self.inputs.expected_counts)
        args = ["validate", *self.graph_args(), "--jobs", str(jobs)]
        return self.verb("validate", args, 1 if errors else 0, (), spans)

    def convert(self, spans=None):
        args = ["convert", "--nodes", str(self.inputs.nodes), "--edges", str(self.inputs.edges),
                "--to", self.convert_target]
        return self.verb("convert", args, 0, self.convert_out, spans)

    def query_cli(self, spans=None):
        query_file = self.dir / "cli-query.txt"
        query_file.write_text(self.inputs.queries[-1] + "\n", encoding="utf-8")
        args = ["query", *self.graph_args(), "--query", str(query_file)]
        return self.verb("query", args, 0, (), spans)

    # -- library worker -----------------------------------------------------

    def worker(self, positions: list[int], trace: bool = False) -> tuple[dict, float, float]:
        """One fresh worker process; its results are compared with earlier rounds."""
        plan = {
            "schema": str(SCHEMA),
            "nodes": str(self.inputs.nodes),
            "edges": str(self.inputs.edges),
            "equivalences": str(self.inputs.equivalences),
            "queries": self.inputs.queries,
            "positions": positions,
            "repeats": WORKER_REPEATS,
            "trace": trace,
            "spans_out": str(self.dir / "worker-spans.json"),
            "result_out": str(self.dir / "worker-result.json"),
        }
        plan_path = self.dir / "worker-plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        wall, code, rss = spawn([sys.executable, str(HERE / "worker.py"), str(plan_path)],
                                self.dir / "worker.out")
        if code != 0:
            err = (self.dir / "worker.err").read_text(encoding="utf-8", errors="replace")
            raise RuntimeError(f"worker exited {code}:\n{err[-2000:]}")
        result = json.loads(Path(plan["result_out"]).read_text(encoding="utf-8"))
        self.attempted += 2 * WORKER_REPEATS + len(positions)
        self.normalize_reports.extend(result["normalize"])
        for written in result["normalize_digests"]:
            if self.first.setdefault("normalize", written) != written:
                self.fault("normalize: written outputs differ from the first run")
        for position, lines in zip(positions, result["query_results"]):
            if self.query_results.setdefault(position, lines) != lines:
                self.fault(f"query {position}: bindings differ from its first run")
        return result, wall, rss

    def round(self) -> None:
        """One worker and one run of each verb, samples for every metric."""
        positions = self.inputs.sequence
        self.sample("reference_s", reference_job())
        result, _, worker_rss = self.worker(positions)
        self.samples.setdefault("setup_s", []).extend(result["setup_s"])
        self.samples.setdefault("normalize_s", []).extend(result["normalize_s"])
        for position, ms in zip(positions, result["query_ms"]):
            self.query_ms.setdefault(position, []).append(ms)
        self.sample("peak_rss_mib", worker_rss)
        self.sample("reference_s", reference_job())
        wall, _, rss = self.validate()
        self.sample("validate_s", wall)
        self.sample("validate_rss_mib", rss)
        self.sample("reference_s", reference_job())
        self.sample("convert_s", self.convert()[0])
        self.sample("reference_s", reference_job())
        self.sample("query_cli_s", self.query_cli()[0])

    # -- checks ---------------------------------------------------------------

    def check(self) -> dict:
        """Run the deferred full checks; return the input properties."""
        import checks

        graph = checks.load_graph(self.inputs.nodes, self.inputs.edges)
        oracle = checks.QueryOracle(graph, self.doc, self.index, checks.load_oracles(ROOT))
        expected_lines: dict[int, list[str]] = {}

        def expected(position: int) -> list[str]:
            if position not in expected_lines:
                expected_lines[position] = oracle.expected(self.inputs.queries[position])
            return expected_lines[position]

        for kind, first, kept in self.pending:
            if kind == "validate":
                if not checks.check_report(kept[0], first, self.inputs.expected_counts):
                    self.fault("validate: report or exit code differs from the injected faults")
            elif kind == "convert":
                if first != 0 or not checks.check_convert(graph, kept[1], kept[2]):
                    self.fault("convert: output does not read back to the input graph")
            elif kind == "query":
                lines = kept[0].read_text(encoding="utf-8").splitlines()
                if first != 0 or sorted(lines) != expected(len(self.inputs.queries) - 1):
                    self.fault("query CLI: bindings differ from brute force")
        for entry in self.normalize_reports:
            if not checks.check_normalize(entry, self.inputs.cliques, len(graph.nodes)):
                self.fault("normalize: rewrites or merges differ from the clique count")
        for position, lines in self.query_results.items():
            if sorted(lines) != expected(position):
                self.fault(f"query {position}: bindings differ from brute force")
        signatures, typed = checks.edge_signatures(graph, self.doc, self.index)
        rows = self.inputs.properties["edge_rows"]
        return {
            **self.inputs.properties,
            "nodes_bytes": self.inputs.nodes.stat().st_size,
            "edges_bytes": self.inputs.edges.stat().st_size,
            "duplicate_edge_row_share": 1 - len(graph.edges) / rows,
            "edge_signatures": signatures,
            "typed_edges": typed,
            "distinct_queries": len(set(self.inputs.sequence)),
        }

    # -- the two kinds of run -----------------------------------------------

    def typical_query_ms(self) -> list[float]:
        return [trimmed_mean(times) for times in self.query_ms.values()]

    def host_scale(self) -> float:
        return REFERENCE_S / trimmed_mean(self.samples["reference_s"])

    def measure(self) -> tuple[dict, dict]:
        """Untraced run: end-to-end samples."""
        started = time.perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() - started < self.seconds:
            self.round()
            rounds += 1
        properties = self.check()
        metrics = {name: (statistics.median if name in MEDIAN_METRICS else trimmed_mean)(values)
                   for name, values in self.samples.items() if name != "reference_s"}
        query_ms = self.typical_query_ms()
        metrics["query_p50_ms"] = statistics.median(query_ms)
        metrics["query_p90_ms"] = statistics.quantiles(query_ms, n=10, method="inclusive")[8]
        scale = self.host_scale()
        for name in TIMINGS:
            metrics[name] *= scale
        return metrics, properties

    def measure_traced(self) -> tuple[dict, dict]:
        """Traced run: per-layer numbers, and the tracing overhead."""
        startup = []
        for _ in range(MIN_ROUNDS):
            wall, code, _ = spawn(kgschema_argv(["--version"]), self.dir / "version.out")
            self.attempted += 1
            if code != 0:
                self.fault("--version failed")
            startup.append(wall)
        spans = {kind: self.dir / f"spans-{kind}.json" for kind in ("validate", "jobs2", "convert", "query")}
        # Plain and traced verbs alternate; the overhead compares the medians
        # of their summed walls. The span files keep the last traced run.
        plain, traced_cli, traced_walls = [], [], {}
        for _ in range(MIN_ROUNDS):
            plain.append(self.validate()[0] + self.convert()[0] + self.query_cli()[0])
            traced_walls["validate"] = self.validate(spans["validate"])[0]
            traced_walls["convert"] = self.convert(spans["convert"])[0]
            traced_walls["query"] = self.query_cli(spans["query"])[0]
            traced_cli.append(sum(traced_walls.values()))
        traced_walls["jobs2"] = self.validate(spans["jobs2"], jobs=2)[0]
        result, worker_wall, _ = self.worker(self.inputs.sequence, trace=True)
        properties = self.check()

        records = {kind: json.loads(path.read_text(encoding="utf-8")) for kind, path in spans.items()}
        records["worker"] = json.loads((self.dir / "worker-spans.json").read_text(encoding="utf-8"))
        worker = tracing.Spans(records["worker"])
        validate = tracing.Spans(records["validate"])
        counts = records["worker"]["counts"]
        curie_calls = counts.get("identifiers.normalize_curie_calls", 0)
        graph_spans = validate.named("validation.validate_graph")
        gc_s = sum(record["gc_seconds"] for record in records.values())
        traced_wall = sum(traced_walls.values()) + worker_wall
        report = self.dir / "first-validate" / "validate.out"
        with open(report, "rb") as handle:
            violations = sum(1 for _ in handle) - 1
        metrics = {
            "cli.startup_s": statistics.median(startup),
            "schema_model.parse_schema_s": worker.median_per_run("schema_model.parse_schema"),
            "hierarchy.build_closure_s": worker.median_per_run("hierarchy.build_closure"),
            "kg_store.read_nodes_s": worker.median_per_run("kg_store.read_nodes"),
            "kg_store.read_edges_s": worker.median_per_run("kg_store.read_edges"),
            "kg_store.build_graph_s": worker.median_per_run("kg_store.build_graph"),
            "kg_store.rows_read": counts.get("kg_store.rows_read", 0) / len(result["setup_s"]),
            "kg_store.dedup_ratio": result["edges_kept"] / result["edge_rows"],
            "kg_store.graph_rss_mib": result["graph_rss_mib"],
            "kg_store.normalize_graph_s": worker.median_per_run("kg_store.normalize_graph"),
            "kg_store.write_nodes_s": worker.median_per_run("kg_store.write_nodes"),
            "kg_store.write_edges_s": worker.median_per_run("kg_store.write_edges"),
            "identifiers.load_equivalences_s": worker.median_per_run("identifiers.load_equivalences"),
            "identifiers.normalize_curie_calls": curie_calls / len(result["normalize_s"]),
            "identifiers.normalize_curie_s": worker.median_per_run("identifiers.normalize_curie"),
            "identifiers.rewrite_ratio": (
                counts.get("identifiers.normalize_curie_rewrites", 0) / curie_calls if curie_calls else 0.0
            ),
            "validation.validate_graph_s": sum(map(validate.duration, graph_spans)),
            "validation.node_checks_s": validate.median_per_run("validation.validate_node"),
            "validation.inputs_digest_s": validate.median_per_run("validation.inputs_digest"),
            "validation.edge_checks_s": sum(map(validate.self_time, graph_spans)),
            "validation.report_s": validate.median_per_run("validation.to_jsonl"),
            "validation.violations": violations,
            "validation.report_bytes": report.stat().st_size,
            "validation.edge_signatures": properties["edge_signatures"],
            "validation.edges_per_signature": properties["typed_edges"] / max(1, properties["edge_signatures"]),
            "validation.validate_graph_jobs2_s": tracing.Spans(records["jobs2"]).median_per_run(
                "validation.validate_graph"
            ),
            "query.parse_query_s": worker.median_duration("query.parse_query"),
            "query.expand_query_s": worker.median_duration("query.expand_query"),
            "query.match_s": worker.median_duration("query.match"),
            "query.bindings": sum(map(len, result["query_results"])),
            "runtime.gc_s": gc_s,
            "runtime.gc_collections": sum(record["gc_collections"] for record in records.values()),
            "runtime.gc_share": gc_s / traced_wall,
            "trace.overhead_s": statistics.median(traced_cli) - statistics.median(plain),
            "trace.overhead_share": statistics.median(traced_cli) / statistics.median(plain) - 1,
        }
        return metrics, properties


# ---------------------------------------------------------------------------
# Entry points


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    WORK.mkdir(exist_ok=True)
    directory = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir()
    try:
        run = Run(name, seed, seconds, directory)
        metrics, properties = run.measure_traced() if trace else run.measure()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    units = declared_units("per_layer" if trace else "end_to_end")
    if set(units) != set(metrics):
        fail(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    _report(run, metrics, properties, units, trace)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0


def _report(run: Run, metrics: dict, properties: dict, units: dict, trace: bool) -> None:
    err = sys.stderr
    print(f"workload {run.name} (seed {run.seed}): {run.why}", file=err)
    print("inputs " + json.dumps(properties, sort_keys=True), file=err)
    print(f"operations attempted={run.attempted} failed={run.failed} "
          f"error_rate={run.failed / run.attempted:.4f}", file=err)
    for failure in run.failures:
        print(f"  FAILED {failure}", file=err)
    if trace:
        for name, value in metrics.items():
            print(f"  {name:40s} {value:14.6f} {units[name]}", file=err)
        return
    scale = run.host_scale()
    print(f"  reference job {REFERENCE_S / scale:.4f} s, so timings are scaled by {scale:.4f}", file=err)
    # "value" is what the result line reports and "measured" the same before
    # scaling; the median and quartiles of the samples show how much the
    # host spread them.
    print(f"  {'metric':18s} {'unit':5s} {'value':>12s} {'measured':>12s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'n':>4s}", file=err)
    for name, unit in units.items():
        values = run.typical_query_ms() if name.startswith("query_p") else run.samples[name]
        measured = metrics[name] / scale if name in TIMINGS else metrics[name]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        print(f"  {name:18s} {unit:5s} {metrics[name]:12.4f} {measured:12.4f} {median:12.4f} "
              f"{q1:12.4f} {q3:12.4f} {len(values):4d}", file=err)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every gated workload, one child process at a time."""
    ok = True
    for name in GATED:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        last = child.stdout.strip().splitlines()[-1] if child.stdout.strip() else "{}"
        print(f"{name}: {last}")
        ok = ok and child.returncode == 0 and json.loads(last).get("correct", False)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    require_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
