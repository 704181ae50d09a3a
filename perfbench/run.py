"""Cube-build and cuboid-read benchmark for graphcube.

    python3 perfbench/run.py --workload full-cube --seed 1 --seconds 30 --trace 0

Run from the repository root. The input graph is generated from ``--seed`` in
a child process before measuring starts. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a run with timing wrappers
around graphcube's public functions. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 only when
every operation succeeded and passed the correctness gate. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GEN_TIMEOUT_S = 120


def parse_args(argv: list[str] | None, names: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny runs a small instance of the workload, for the self-tests")
    return p.parse_args(argv)


def generate(wl, seed: int, out: Path) -> None:
    cmd = [sys.executable, str(HERE / "gen.py"), str(out), str(wl.vertices), str(wl.edges),
           str(wl.dims), str(wl.cardinality), str(wl.hub_fraction), str(wl.hot_weight), str(seed)]
    subprocess.run(cmd, check=True, timeout=GEN_TIMEOUT_S)


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "graphcube" / "__init__.py").is_file():
        print(f"error: graphcube sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    from workloads import TINY, WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # clean up on kill
    wl = (TINY if args.scale == "tiny" else WORKLOADS)[args.workload]
    workdir = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    trace_out = WORK / f"trace-{wl.name}-{args.scale}-seed{args.seed}.json"
    try:
        generate(wl, args.seed, workdir / "input")
        result, lines = bench.run(wl, args.seed, args.seconds, bool(args.trace),
                                  workdir / "input", workdir, trace_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
