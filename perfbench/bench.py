"""Measurement loops of the benchmark: set-up, build jobs, cuboid reads.

Every call into graphcube goes through a module attribute
(``engine.compute_cube``, ``core.load_graph``, ...) so that the traced run can
swap in the timing wrappers of ``spans.Tracer``. Correctness checks from
``gate`` run after each operation, outside its timed region.
"""

from __future__ import annotations

import bisect
import gc
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

import gate
from graphcube import core, engine, measures, oracle
from spans import Tracer

MIN_BUILDS = 3  # build jobs per run, even when --seconds has passed
SETUPS_PER_ROUND = 3  # build workloads: set-ups are short, so each round makes several
MIN_QUERIES = 1000  # reads per query run, so that p99 has ten samples beyond it
SERVE_ROUNDS = 8  # set-ups per query run, each followed by an eighth of the reads
ZIPF_EXPONENT = 1.2  # query weight of the cuboid of rank k is 1 / k ** ZIPF_EXPONENT
SCORE_SAMPLES = 4  # random vertices whose scores are checked exactly, besides hub vertices
OTHER_STRATEGY = {"level-by-level": "steps-up", "steps-up": "level-by-level"}


@dataclass(frozen=True)
class Workload:
    name: str
    vertices: int
    edges: int
    dims: int
    cardinality: int
    hub_fraction: float
    hot_weight: float  # see gen.py: weight of the first half of each dimension's values
    policy: str
    strategy: str
    serve: bool  # closed-loop read_cuboid traffic on a cube built during set-up
    read_passes: int = 1  # build workloads: full read passes over each built cube

    @property
    def hub_size(self) -> int:
        return round(self.hub_fraction * self.vertices)


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Run:
    """State and samples of one benchmark run."""

    wl: Workload
    seed: int
    seconds: float
    inputs: Path
    workdir: Path
    tracer: Tracer | None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    build_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    untraced_s: list[float] = field(default_factory=list)
    read_ms: list[float] = field(default_factory=list)
    verify_s: list[float] = field(default_factory=list)
    cube_bytes: int = 0
    timings: list[tuple[int, float]] = field(default_factory=list)
    scores_checked: bool = False

    def __post_init__(self) -> None:
        self.gate_rng = random.Random(f"{self.seed}-gate")
        self.read_rng = random.Random(f"{self.seed}-reads")

    def op(self, kind: str, traced: bool):
        return self.tracer.op(kind) if traced and self.tracer else nullcontext()

    def attempt(self, what: str, fn, *args):
        """Run one operation; an exception counts it as failed and returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation must not end the run
            self.failed += 1
            self.problems.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def check(self, fn, *args) -> None:
        """Apply a gate check to the last attempted operation, untimed by it."""
        t0 = time.perf_counter()
        problems = fn(*args)
        self.verify_s.append(time.perf_counter() - t0)
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def build_job(g, idx, wl: Workload, out: Path):
    """significance_table -> apply_policy -> compute_cube -> write_cube."""
    table = measures.apply_policy(
        measures.significance_table(g, idx), measures.PrunePolicy(kind=wl.policy)
    )
    cube = engine.compute_cube(g, idx, table, strategy=engine.Strategy(wl.strategy))
    engine.write_cube(cube, out)
    return table, cube


def check_cube(g, table, cube, rng: random.Random) -> list[str]:
    return gate.check_all_cuboids(g, table, cube) + gate.check_sampled_cuboids(g, table, cube, rng)


def install_wrappers(tracer: Tracer) -> None:
    def policy_counts(args, kwargs, t):
        return {"kept": sum(row.keep for row in t.rows.values()), "values": len(t.rows)}

    def cube_counts(args, kwargs, cube):
        return {
            "combines": cube.meta.combines_attempted,
            "nodes": cube.meta.nodes_emitted,
            "joined_cuboids": sum(1 for sig in cube.cuboids if len(sig) >= 2),
        }

    def edge_counts(args, kwargs, net):
        g = args[0] if args else kwargs["g"]
        return {"classified": len(g.edges), "kept": net.total_edge_weight()}

    def write_counts(args, kwargs, result):
        return {"bytes": dir_bytes(args[1] if len(args) > 1 else kwargs["directory"])}

    tracer.wrap(core, "load_graph", "core.load_graph")
    tracer.wrap(core, "build_inverted_index", "core.build_inverted_index")
    tracer.wrap(core.MultidimGraph, "fingerprint", "core.fingerprint")
    tracer.wrap(measures, "significance_table", "measures.significance_table")
    tracer.wrap(measures, "apply_policy", "measures.apply_policy", policy_counts)
    tracer.wrap(engine, "compute_cube", "engine.compute_cube", cube_counts)
    tracer.wrap(engine, "aggregate_edges", "engine.aggregate_edges", edge_counts)
    tracer.wrap(engine, "write_cube", "engine.write_cube", write_counts)
    tracer.wrap(engine, "read_cuboid", "engine.read_cuboid", io=True)
    tracer.wrap(engine, "read_cube_meta", "engine.read_cube_meta")


# ---------------------------------------------------------------------------
# Phases.
# ---------------------------------------------------------------------------


def built(r: Run, g, table, cube, out: Path) -> None:
    """Gate a freshly built cube and record its size and pass timings."""
    r.check(check_cube, g, table, cube, r.gate_rng)
    if not r.scores_checked:
        r.check(gate.check_scores, g, table, score_sample(g, r.wl, r.gate_rng))
        r.scores_checked = True
    r.cube_bytes = dir_bytes(out)
    r.timings = list(cube.meta.timings)


def setup_once(r: Run, out: Path | None):
    """Load + index; a serving workload also runs its build job into ``out``.
    Returns (g, idx, table, cube), table and cube None on build workloads."""
    wl = r.wl
    gc.collect()

    def once():
        with r.op("setup", traced=True):
            t0 = time.perf_counter()
            g = core.load_graph(r.inputs / "vertices.csv", r.inputs / "edges.csv")
            idx = core.build_inverted_index(g)
            t1 = time.perf_counter()
            table, cube = build_job(g, idx, wl, out) if wl.serve else (None, None)
            t2 = time.perf_counter()
        return g, idx, table, cube, t2 - t0, t2 - t1

    res = r.attempt("set-up", once)
    if res is None:
        return None
    g, idx, table, cube, total, build = res
    r.setup_s.append(total)
    if wl.serve:
        r.build_s.append(build)
        built(r, g, table, cube, out)
    return g, idx, table, cube


def score_sample(g, wl: Workload, rng: random.Random) -> list[int]:
    hubs = list(range(1, wl.hub_size + 1))[:2]
    others = rng.sample(sorted(v for v in g.vertices if v > wl.hub_size), SCORE_SAMPLES)
    return hubs + others


def compare_strategy(r: Run, g, idx, table, cube) -> None:
    """Traced run only: build with the other strategy; the cubes must agree."""
    other = OTHER_STRATEGY[r.wl.strategy]

    def once():
        with r.op("compare", traced=True):
            return engine.compute_cube(g, idx, table, strategy=engine.Strategy(other))

    alt = r.attempt(f"{other} build", once)
    if alt is not None:
        r.check(lambda: [] if oracle.compare(cube, alt).empty()
                else [f"{other} build differs from {r.wl.strategy} build"])


def timed_build(r: Run, g, idx, out: Path, traced: bool):
    gc.collect()

    def once():
        with r.op("build", traced):
            t0 = time.perf_counter()
            table, cube = build_job(g, idx, r.wl, out)
            return table, cube, time.perf_counter() - t0

    res = r.attempt("build", once)
    if res is None:
        return None
    table, cube, seconds = res
    (r.traced_s if traced else r.untraced_s).append(seconds)
    if not traced:
        r.build_s.append(seconds)
    built(r, g, table, cube, out)
    return table, cube


def read_once(r: Run, cube_dir: Path, cube, sig, traced: bool) -> float | None:
    names = [cube.meta.dims[d] for d in sig]
    r.read_rng.shuffle(names)

    def once():
        with r.op("read", traced):
            t0 = time.perf_counter()
            net = engine.read_cuboid(cube_dir, names)
            return net, time.perf_counter() - t0

    res = r.attempt(f"read {sig}", once)
    if res is None:
        return None
    net, seconds = res
    r.check(gate.check_read, sig, cube.cuboids[sig], net)
    return seconds


def build_rounds(r: Run):
    """Until --seconds have passed: SETUPS_PER_ROUND set-ups, a build job, then
    ``read_passes`` passes that read every cuboid once in shuffled order, each
    pass on its own copy of the freshly written cube. No key repeats within a cube directory,
    so a read cache cannot help. A traced run builds twice per round, untraced
    then traced, and follows the traced build with an other-strategy build."""
    variants = (False, True) if r.tracer else (False,)
    last = None
    start = time.perf_counter()
    i = 0
    while i < MIN_BUILDS or time.perf_counter() - start < r.seconds:
        i += 1
        last = None  # drop the previous graph and cube first
        for _ in range(SETUPS_PER_ROUND):
            got = None  # and the previous set-up's graph
            got = setup_once(r, None)
        if got is None:
            continue
        g, idx, _, _ = got
        for traced in variants:
            out = r.workdir / f"cube{i}-{int(traced)}"
            last = None
            res = timed_build(r, g, idx, out, traced)
            if res is None:
                continue
            table, cube = res
            if traced:
                compare_strategy(r, g, idx, table, cube)
            last = (g, table, cube, out)
            del res, table, cube
        if last is not None:
            read_passes(r, last[2], last[3])
        for stale in r.workdir.glob("cube*"):
            shutil.rmtree(stale, ignore_errors=True)
    return last


def read_passes(r: Run, cube, out: Path) -> None:
    for p in range(r.wl.read_passes):
        cube_dir = out if p == 0 else shutil.copytree(out, out.with_name(f"{out.name}-copy{p}"))
        order = sorted(cube.cuboids)
        r.read_rng.shuffle(order)
        gc.collect()
        gc.freeze()  # keep the harness's graph and cube out of collections during reads
        for sig in order:
            seconds = read_once(r, cube_dir, cube, sig, r.tracer is not None)
            if seconds is not None:
                r.read_ms.append(seconds * 1000.0)
        gc.unfreeze()


def serve_rounds(r: Run):
    """SERVE_ROUNDS times: set-up (which builds and writes the cube), then a
    closed loop of one client for --seconds / SERVE_ROUNDS. The cuboid of rank
    k, by (level, signature), is read with weight 1 / k ** ZIPF_EXPONENT, its
    dimension names shuffled. A traced run alternates traced and untraced reads."""
    last = None
    for k in range(SERVE_ROUNDS):
        last = None  # drop the previous graph and cube first
        out = r.workdir / f"setup-cube{k}"
        got = setup_once(r, out)
        if got is None:
            continue
        g, idx, table, cube = got
        if r.tracer and k == 0:
            compare_strategy(r, g, idx, table, cube)
        ranked = sorted(cube.cuboids, key=lambda s: (len(s), s))
        cum = list(accumulate(1.0 / rank ** ZIPF_EXPONENT for rank in range(1, len(ranked) + 1)))
        gc.collect()
        gc.freeze()  # keep the harness's graph and cube out of collections during reads
        start = time.perf_counter()
        n = 0
        while n < MIN_QUERIES / SERVE_ROUNDS or time.perf_counter() - start < r.seconds / SERVE_ROUNDS:
            sig = ranked[bisect.bisect_left(cum, r.read_rng.random() * cum[-1])]
            traced = r.tracer is not None and n % 2 == 1
            n += 1
            seconds = read_once(r, out, cube, sig, traced)
            if seconds is None:
                continue
            if r.tracer:
                (r.traced_s if traced else r.untraced_s).append(seconds)
            if not traced:
                r.read_ms.append(seconds * 1000.0)
        gc.unfreeze()
        shutil.rmtree(out, ignore_errors=True)
        last = (g, table, cube, out)
        del got, g, idx, table, cube
    return last


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def end_to_end_metrics(r: Run) -> dict[str, dict]:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reads = r.read_ms
    values = {
        "setup_s": (statistics.median(r.setup_s), "s"),
        "build_s": (statistics.median(r.build_s), "s"),
        "cube_mb": (r.cube_bytes / 1e6, "MB"),
        "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
        "query_p50_ms": (statistics.median(reads), "ms"),
        "query_p99_ms": (percentile(reads, 99), "ms"),
        "queries_per_s": (len(reads) / (sum(reads) / 1000.0), "1/s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer_metrics(r: Run) -> dict[str, dict]:
    t = r.tracer
    assert t is not None
    wl = r.wl
    builds = ("build", "setup") if wl.serve else ("build",)

    def med(name, kinds=builds, self_time=False):
        return t.median_per_op(name, kinds, self_time)

    def counts(name, key, kinds=builds):
        return [s.counts[key] for s in t.spans_named(name, kinds)]

    main, other = wl.strategy, OTHER_STRATEGY[wl.strategy]
    policy_kept, policy_values = counts("measures.apply_policy", "kept"), counts("measures.apply_policy", "values")
    combines = counts("engine.compute_cube", "combines")
    joined = counts("engine.compute_cube", "joined_cuboids")
    nodes = counts("engine.compute_cube", "nodes")
    edge_ops = t.per_op("engine.aggregate_edges", builds)
    classified = counts("engine.aggregate_edges", "classified")
    kept = counts("engine.aggregate_edges", "kept")
    reads = t.spans_named("engine.read_cuboid", ("read",))
    meta_calls = t.spans_named("engine.read_cube_meta", ("read",))
    cube_ops = t.per_op("engine.compute_cube", builds)
    values = {
        "core.load_graph_s": (med("core.load_graph", ("setup",)), "s"),
        "core.build_inverted_index_s": (med("core.build_inverted_index", ("setup",)), "s"),
        "core.fingerprint_s": (med("core.fingerprint"), "s"),
        "measures.significance_table_s": (med("measures.significance_table"), "s"),
        "measures.apply_policy_s": (med("measures.apply_policy"), "s"),
        "measures.keep_ratio": (sum(policy_kept) / sum(policy_values), "ratio"),
        "engine.lattice_s": (med("engine.compute_cube", self_time=True), "s"),
        "engine.combines_attempted": (statistics.median(combines), "count"),
        "engine.join_useful_ratio": (sum(joined) / sum(combines), "ratio"),
        "engine.nodes_emitted": (statistics.median(nodes), "count"),
        "engine.aggregate_edges_s": (statistics.median(edge_ops), "s"),
        "engine.edges_classified": (sum(classified) / len(cube_ops), "count"),
        "engine.edges_kept_ratio": (sum(kept) / sum(classified), "ratio"),
        "engine.write_cube_s": (med("engine.write_cube"), "s"),
        "engine.bytes_written": (statistics.median(counts("engine.write_cube", "bytes")), "bytes"),
        "engine.read_cuboid_ms": (statistics.median(s.duration for s in reads) * 1000.0, "ms"),
        "engine.read_cube_meta_calls_per_query": (len(meta_calls) / len(reads), "count"),
        "engine.bytes_read_per_query": (sum(s.counts["bytes_read"] for s in reads) / len(reads), "bytes"),
        f"engine.compute_cube_s.{main}": (med("engine.compute_cube"), "s"),
        f"engine.compute_cube_s.{other}": (med("engine.compute_cube", ("compare",)), "s"),
        f"engine.combines_attempted.{main}": (statistics.median(combines), "count"),
        f"engine.combines_attempted.{other}":
            (statistics.median(counts("engine.compute_cube", "combines", ("compare",))), "count"),
        "oracle.verify_s": (statistics.median(r.verify_s), "s"),
        "oracle.mismatches": (float(r.failed), "count"),
        "trace.overhead_ratio": (statistics.median(r.traced_s) / statistics.median(r.untraced_s), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}


def report_lines(r: Run, g, table, cube) -> list[str]:
    """Human-readable summary: input properties, sample counts, error rate."""
    wl = r.wl
    kept = sum(row.keep for row in table.rows.values())
    weight = sum(net.total_edge_weight() for net in cube.cuboids.values())
    lines = [
        f"workload {wl.name} seed {r.seed}: |V| {len(g.vertices)}, |E| {len(g.edges)}, "
        f"mean degree {2 * len(g.edges) / len(g.vertices):.2f}, dims {g.dim_count}, "
        f"cardinality {wl.cardinality}, hub {wl.hub_size}, policy {wl.policy}, strategy {wl.strategy}, "
        f"cuboids {len(cube.cuboids)}, keep_ratio {kept / len(table.rows):.3f} ({kept}/{len(table.rows)}), "
        f"edges_kept_ratio {weight / (len(cube.cuboids) * len(g.edges)):.4f}",
        f"samples: {len(r.setup_s)} set-ups, {len(r.build_s)} build jobs, {len(r.read_ms)} reads",
        "compute_cube passes (CubeMeta.timings, in order): "
        + ", ".join(f"{label}:{ms:.1f}ms" for label, ms in r.timings),
        f"error_rate {r.failed / max(r.attempted, 1):.6f} ({r.failed} failed of {r.attempted} attempted)",
    ]
    return lines


def trace_lines(r: Run, metrics: dict[str, dict]) -> list[str]:
    m = {k: v["value"] for k, v in metrics.items()}
    heavy = m["engine.lattice_s"] + m["engine.write_cube_s"]
    lines = [
        f"lattice_s + write_cube_s = {heavy:.3f} s vs significance_table_s = "
        f"{m['measures.significance_table_s']:.3f} s",
    ]
    if r.wl.serve:
        spans = sum(s.duration for s in r.tracer.spans_named("engine.read_cuboid", ("read",)))
        lines.append(f"read_cuboid spans cover {spans / sum(r.traced_s):.3f} of the traced reads' loop time")
    return lines


def run(wl: Workload, seed: int, seconds: float, trace: bool, inputs: Path, workdir: Path,
        trace_out: Path) -> tuple[dict, list[str]]:
    tracer = Tracer() if trace else None
    if tracer:
        install_wrappers(tracer)
    r = Run(wl, seed, seconds, inputs, workdir, tracer)
    last = serve_rounds(r) if wl.serve else build_rounds(r)
    if last is None:
        raise RuntimeError(f"the last round failed: {r.problems[-1:]}")
    g, table, cube, _ = last
    lines = report_lines(r, g, table, cube)
    if r.failed:
        for p in r.problems[:10]:
            print(f"check failed: {p}", file=sys.stderr)
        metrics = {}
    elif trace:
        metrics = per_layer_metrics(r)
        lines += trace_lines(r, metrics)
        tracer.dump(trace_out)
        lines.append(f"{len(tracer.spans)} spans written to {trace_out}")
    else:
        metrics = end_to_end_metrics(r)
    result = {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": metrics,
    }
    return result, lines
