"""Self-tests of the benchmark: tiny workload runs and planted faults.

    python3 perfbench/selftest.py

Each workload runs at ``--scale tiny`` with and without tracing and must print
every metric named in BENCHMARK.json with its unit. The correctness gate must
reject a cuboid with one edge weight changed and a read result with one
member dropped.
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import gate  # noqa: E402
import gen  # noqa: E402
from graphcube import core, engine, measures  # noqa: E402
from workloads import TINY  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORK = ROOT / ".perfbench_work"
RUN_TIMEOUT_S = 170


def setUpModule():
    WORK.mkdir(exist_ok=True)


def run_tiny(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def tiny_cube(policy: str):
    g = core.generate_synthetic(core.GenParams(
        vertex_count=150, edge_count=900, dim_count=4, cardinality=4, seed=5, hub_fraction=0.1))
    idx = core.build_inverted_index(g)
    table = measures.apply_policy(measures.significance_table(g, idx), measures.PrunePolicy(kind=policy))
    return g, table, engine.compute_cube(g, idx, table)


def bump_one_weight(net: engine.AggregateNetwork) -> None:
    weights = net.self_edges if net.self_edges else net.cross_edges
    key = sorted(weights, key=repr)[0]
    weights[key] += 1


class WorkloadRuns(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            for workload in sorted(TINY):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_tiny(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, unit in want.items():
                        self.assertRegex(proc.stdout, rf"(?m)^{name} = \S+ {unit}$")
                    self.assertIn("error_rate 0.000000", proc.stdout)

    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_tiny("full-cube", 0, cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class PlantedFaults(unittest.TestCase):
    def test_changed_edge_weight_without_pruning(self):
        g, table, cube = tiny_cube("none")
        self.assertEqual(gate.check_all_cuboids(g, table, cube), [])
        bump_one_weight(cube.cuboids[(1, 3)])
        self.assertTrue(gate.check_all_cuboids(g, table, cube))

    def test_changed_edge_weight_with_pruning(self):
        g, table, cube = tiny_cube("ss-mean")
        every = len(cube.cuboids)  # sample every cuboid of each level
        self.assertEqual(gate.check_sampled_cuboids(g, table, cube, random.Random(0), every), [])
        bump_one_weight(cube.cuboids[(0, 2)])
        self.assertTrue(gate.check_sampled_cuboids(g, table, cube, random.Random(0), every))

    def test_dropped_member_in_read_result(self):
        g, table, cube = tiny_cube("none")
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            engine.write_cube(cube, tmp)
            sig = (0, 1, 2)
            net = engine.read_cuboid(tmp, [g.dims[d] for d in sig])
        self.assertEqual(gate.check_read(sig, cube.cuboids[sig], net), [])
        node = max(net.nodes, key=lambda nd: len(nd.members))
        net.nodes[net.nodes.index(node)] = replace(node, members=node.members[1:])
        self.assertTrue(gate.check_read(sig, cube.cuboids[sig], net))

    def test_faulty_edge_aggregation_fails_the_run(self):
        original = engine.aggregate_edges

        def faulty(g, net):
            out = original(g, net)
            if out.self_edges:
                bump_one_weight(out)
            return out

        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            wl = TINY["full-cube"]
            gen.write(Path(tmp) / "input", wl.dims, *gen.generate(
                wl.vertices, wl.edges, wl.dims, wl.cardinality, wl.hub_fraction, wl.hot_weight, 1))
            engine.aggregate_edges = faulty
            try:
                result, lines = bench.run(wl, 1, 0.1, False, Path(tmp) / "input", Path(tmp), Path(tmp) / "t")
            finally:
                engine.aggregate_edges = original
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertEqual(result["metrics"], {})


if __name__ == "__main__":
    unittest.main()
