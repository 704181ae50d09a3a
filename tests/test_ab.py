"""tools/ab.py's verdict, on hand-made runs: no perfbench process starts."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = [
    {"name": "build_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def runs(base_build, change_build, base_qps, change_qps):
    return [({"build_s": b, "queries_per_s": bq}, {"build_s": c, "queries_per_s": cq})
            for b, c, bq, cq in zip(base_build, change_build, base_qps, change_qps)]


def verdicts(lines):
    return {line.split()[0]: line.endswith("within bound") for line in lines[1:]}


def test_within_bounds():
    lines, breached = ab.summarize(METRICS, runs([1.0, 1.1, 0.9], [1.2, 1.3, 1.1], [100, 90, 110], [80, 76, 90]))
    assert breached == []
    assert verdicts(lines) == {"build_s": True, "queries_per_s": True}
    assert lines[1].split()[-5:-2] == ["0", "of", "3"]  # change wins no pair


def test_worse_than_the_bound_in_each_direction():
    # medians: build_s 1.0 -> 1.26 (+26%), queries_per_s 100 -> 74 (-26%)
    lines, breached = ab.summarize(METRICS, runs([1.0, 1.0, 1.0], [1.26, 1.3, 1.2], [100] * 3, [74, 70, 80]))
    assert breached == ["build_s", "queries_per_s"]
    assert verdicts(lines) == {"build_s": False, "queries_per_s": False}
    assert "WORSE by more than 25%" in lines[1]


def test_relative_change_column():
    """The column after the change median is the change median against the
    base median, signed whichever direction is better, to one decimal."""
    # medians: build_s 1.0 -> 1.23456 (+23.456%), queries_per_s 100 -> 74 (-26%)
    lines, _ = ab.summarize(METRICS, runs([1.0] * 3, [1.23456] * 3, [100] * 3, [74] * 3))
    assert [line.split()[9] for line in lines[1:]] == ["+23.5%", "-26.0%"]
    assert ab.relative_change(2.0, 1.9999) == "-0.0%"  # a fall too small to show keeps its sign
    assert ab.relative_change(2.0, 2.0) == "+0.0%"
    assert ab.relative_change(0.0, 1.0) == "n/a"


def test_better_is_never_worse():
    lines, breached = ab.summarize(METRICS, runs([1.0] * 2, [0.1] * 2, [100] * 2, [1000] * 2))
    assert breached == []
    assert lines[1].split()[-5:-2] == ["2", "of", "2"]


def test_failed_runs_are_left_out_of_the_medians():
    rows = runs([1.0, 1.0, 9.0], [1.0, 1.0, 1.0], [100] * 3, [100] * 3)
    rows[2] = (rows[2][0], None)  # the change's third run failed
    lines, breached = ab.summarize(METRICS, rows)
    assert breached == []
    assert "of 2" in lines[1]


def test_bounds_come_from_the_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"]]
    base = {name: 1.0 for name in names}
    lines, breached = ab.summarize(spec["end_to_end"], [(base, dict(base))])
    assert breached == [] and len(lines) == 1 + len(names)


def gains(lines):
    return {line.split()[0]: "GAIN" in line.split() for line in lines[1:]}


def test_gain_needs_nine_in_ten_wins_and_a_gap_beyond_the_base_spread():
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]  # median 1.2, q1 1.1, q3 1.3
    # build_s: 10 of 10 wins, gap 0.3 > spread 0.2. queries_per_s: 10 of 10 wins, gap 1 < spread 2.
    lines, breached = ab.summarize(METRICS, runs(base, [b - 0.3 for b in base], [100, 101, 102, 98, 99] * 2,
                                                 [101, 102, 103, 99, 100] * 2))
    assert breached == []
    assert gains(lines) == {"build_s": True, "queries_per_s": False}
    assert lines[1].split()[-5:-2] == ["10", "of", "10"]
    # 8 of 10 wins is not enough, however wide the gap.
    lines, _ = ab.summarize(METRICS, runs(base, [b - 0.5 for b in base[:8]] + [9.0, 9.0], [100] * 10, [100] * 10))
    assert gains(lines) == {"build_s": False, "queries_per_s": False}
    # 9 of 10 is, and a worse change never gains.
    lines, _ = ab.summarize(METRICS, runs(base, [b - 0.5 for b in base[:9]] + [9.0], [100] * 10, [50] * 10))
    assert gains(lines) == {"build_s": True, "queries_per_s": False}


def test_gain_counts_pairs_with_a_failed_run():
    """9 in 10 is of all pairs run: 8 wins with the change's other 2 runs
    failed are 8 of 10, not 8 of 8."""
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    rows = runs(base, [b - 0.5 for b in base], [100] * 10, [100] * 10)
    rows[8:] = [(b, None) for b, _ in rows[8:]]  # the change's last two runs failed
    lines, breached = ab.summarize(METRICS, rows)
    assert breached == []
    assert lines[1].split()[-5:-2] == ["8", "of", "8"]
    assert gains(lines) == {"build_s": False, "queries_per_s": False}
