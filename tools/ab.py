"""Alternate perfbench runs between two checkouts and compare their end-to-end metrics.

    python3 tools/ab.py BASE CHANGE [--workload NAME ...] [--pairs 10] [--seconds 30] [--seed 811]

BASE and CHANGE are checkout directories, for example a ``git worktree`` of
the parent commit and the working tree. Each pair runs
``python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0``
once in each checkout, on the same seed, and flips which side runs first from
one pair to the next; pair i uses seed ``--seed + i``. The metric names and
which direction is better come from CHANGE's BENCHMARK.json.

Each run's metrics are printed as it finishes. At the end, for each workload
and metric, the table gives each side's median and quartiles, CHANGE's median
against BASE's as a signed percentage (``-12.3%`` is 12.3% below BASE's
median, whichever direction is better; one decimal), the number of
pairs CHANGE won (ties count for neither side) and a verdict: WORSE when
CHANGE's median is worse than BASE's by more than the metric's ``bound`` in
CHANGE's BENCHMARK.json, as a fraction of BASE's median. A row is marked GAIN
when a gain may be claimed: CHANGE won at least 9 in 10 of all the pairs
run, a pair with a failed run counting as no win, and its median is better
than BASE's by more than BASE's interquartile distance (q3 - q1). GAIN does
not change the exit code. A run that exits non-zero or prints no result
counts as failed. The exit code is 1 if any run
failed or any metric is WORSE, else 0. This script writes no file: the runs start
with PYTHONDONTWRITEBYTECODE=1, and perfbench/run.py deletes its own work
directory after each run; its own `.perfbench_work/` parent directory
(git-ignored) stays.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One untraced perfbench run in ``checkout``: its metrics, or None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  run failed (exit {proc.returncode}): {proc.stderr.strip()[-500:]}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def relative_change(base: float, change: float) -> str:
    """CHANGE's median against BASE's, signed, in percent to one decimal;
    ``n/a`` when BASE's median is 0."""
    return f"{(change - base) / base:+.1%}" if base else "n/a"


def summarize(metrics: list[dict], runs: list[tuple[dict | None, dict | None]]) -> tuple[list[str], list[str]]:
    """The table for one workload, and the names of the metrics whose change
    median is worse than the base median by more than the metric's bound."""
    lines = [f"{'metric':<16} {'base median [q1, q3]':>30} {'change median [q1, q3]':>30} {'vs base':>8} "
             f"{'gain':>4} {'change wins':>12}  verdict"]
    breached = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(b[name], c[name]) for b, c in runs if b and c and name in b and name in c]
        if not pairs:
            continue
        cols, stats = [], []
        for side in (0, 1):
            q1, q2, q3 = quartiles([p[side] for p in pairs])
            cols.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] {m['unit']}")
            stats.append((q1, q2, q3))
        wins = sum((c < b) if lower else (c > b) for b, c in pairs)
        (base_q1, base, base_q3), (_, change, _) = stats
        worse = change > base * (1 + m["bound"]) if lower else change < base * (1 - m["bound"])
        if worse:
            breached.append(name)
        gain = 10 * wins >= 9 * len(runs) and (base - change if lower else change - base) > base_q3 - base_q1
        verdict = f"WORSE by more than {m['bound']:.0%}" if worse else "within bound"
        lines.append(f"{name:<16} {cols[0]:>30} {cols[1]:>30} {relative_change(base, change):>8} "
                     f"{'GAIN' if gain else '':>4} {wins:>7} of {len(pairs)}  {verdict}")
    return lines, breached


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", action="append", help="repeatable; default: every workload in BENCHMARK.json")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--seed", type=int, default=811, help="seed of the first pair")
    args = p.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    report, bad = [], 0
    for workload in workloads:
        runs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            got = {}
            for side in order:
                got[side] = run_once(getattr(args, side), workload, seed, args.seconds)
                shown = " ".join(f"{k}={v:.4g}" for k, v in (got[side] or {}).items()) or "FAILED"
                print(f"{workload} pair {i + 1} seed {seed} {side}: {shown}", flush=True)
            runs.append((got["base"], got["change"]))
        failed = [sum(r[side] is None for r in runs) for side in (0, 1)]
        report += ["", f"{workload}: {args.pairs} pairs, --seconds {args.seconds:g}, "
                   f"failed runs base {failed[0]} change {failed[1]}"]
        lines, worse = summarize(spec["end_to_end"], runs)
        report += lines
        bad += sum(failed) + len(worse)
    print("\n".join(report))
    print(f"verdict: {'FAIL' if bad else 'PASS'} ({bad} failed runs and metrics beyond their bounds)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
