"""Check that two checkouts write the same cubes from the benchmark's inputs.

    python3 tools/samecube.py BASE CHANGE [--seed 5]

BASE and CHANGE are checkout directories, for example a copy of the parent
commit and the working tree. The input graph of every workload in CHANGE's
``perfbench/workloads.py`` is generated from ``--seed`` once, by running
CHANGE's ``perfbench/gen.py``. Each checkout then builds a cube from each
input with ``graphcube cube``, in its own subprocess, under both strategies
and the policies ``none`` and ``ss-mean``: 12 cubes per checkout for three
workloads. Every file is compared byte for byte, ``meta`` with each
``level,<k>,<millis>`` line cut to ``level,<k>``: the milliseconds are the
build's wall-clock timings, but a lost or repeated level line still differs.

One line is printed per cube. The exit code is 1 if any cube differs between
the checkouts or any build fails, and 0 otherwise. Everything is written to a
temporary directory, which is deleted at the end; subprocesses run with
PYTHONDONTWRITEBYTECODE=1, so neither checkout gains a file.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

STRATEGIES = ("level", "steps")
POLICIES = ("none", "ss-mean")


def workloads(checkout: Path) -> dict:
    """The full-size workloads of ``checkout``'s benchmark, by name."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(checkout / "perfbench"), str(checkout / "src")]
    from workloads import WORKLOADS

    return WORKLOADS


def build(checkout: Path, graph: Path, out: Path, strategy: str, policy: str) -> str | None:
    """Build one cube with ``checkout``'s CLI; None on success, else its error."""
    cmd = [sys.executable, "-m", "graphcube.cli", "cube", str(graph / "vertices.csv"),
           str(graph / "edges.csv"), str(out), "--strategy", strategy, "--policy", policy]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    return None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"


def contents(path: Path) -> bytes:
    """A cube file's bytes; for meta, each level line without its milliseconds."""
    data = path.read_bytes()
    if path.name == "meta":
        data = re.sub(rb"(?m)^(level,\d+),.*$", rb"\1", data)
    return data


def differences(a: Path, b: Path) -> list[str]:
    """Names of the files that are not the same in both cubes."""
    names = {f.name for d in (a, b) for f in d.iterdir()}
    return sorted(n for n in names if not ((a / n).is_file() and (b / n).is_file()
                                           and contents(a / n) == contents(b / n)))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--seed", type=int, default=5, help="seed of the generated inputs")
    args = p.parse_args(argv)
    base, change = args.base.resolve(), args.change.resolve()
    failures = 0
    with tempfile.TemporaryDirectory(prefix="samecube-") as tmp:
        for name, wl in workloads(change).items():
            graph = Path(tmp) / name / "input"
            subprocess.run([sys.executable, str(change / "perfbench" / "gen.py"), str(graph), str(wl.vertices),
                            str(wl.edges), str(wl.dims), str(wl.cardinality), str(wl.hub_fraction),
                            str(wl.hot_weight), str(args.seed)],
                           check=True, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
            for strategy in STRATEGIES:
                for policy in POLICIES:
                    label = f"{name} seed {args.seed} --strategy {strategy} --policy {policy}"
                    outs = [Path(tmp) / name / f"{side}-{strategy}-{policy}" for side in ("base", "change")]
                    errors = [build(c, graph, out, strategy, policy) for c, out in zip((base, change), outs)]
                    if any(errors):
                        line = "; ".join(f"{side} {e}" for side, e in zip(("base", "change"), errors) if e)
                        print(f"{label}: BUILD FAILED ({line})", flush=True)
                        failures += 1
                        continue
                    diff = differences(*outs)
                    files = sum(1 for f in outs[1].iterdir() if f.name != "meta")
                    if diff:
                        print(f"{label}: {len(diff)} of {files} cuboid files and meta DIFFER: {' '.join(diff[:8])}",
                              flush=True)
                        failures += 1
                    else:
                        print(f"{label}: {files} cuboid files and meta identical", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
