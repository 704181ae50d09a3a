"""Correctness gate for the benchmark, run outside every timed region.

The expected cuboids come from a plain group-by over the vertex table and a
plain loop over ``g.edges`` written here, not from ``graphcube.oracle``:
``oracle_cuboid`` classifies edges with ``engine.aggregate_edges``, so a faulty
optimisation of that function would change both sides of its comparison.
Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb

from gen import HUB_VALUE
from graphcube import measures, oracle
from graphcube.core import MultidimGraph
from graphcube.engine import AggregateNetwork, GraphCube
from graphcube.measures import SignificanceTable

# Cuboid in comparable form: cells (value tuple -> members), self weights
# (value tuple -> count) and cross weights ({cell a, cell b} -> count).
Cells = dict[tuple[str, ...], tuple[int, ...]]
View = tuple[Cells, dict[tuple[str, ...], int], dict[frozenset, int]]

SCORE_TOL = 1e-9


def view(net: AggregateNetwork) -> View:
    cells = {nd.values: tuple(nd.members) for nd in net.nodes}
    self_w = {k: w for k, w in net.self_edges.items() if w}
    cross_w: dict[frozenset, int] = {}
    for (a, b), w in net.cross_edges.items():
        if w:
            key = frozenset((a, b))
            cross_w[key] = cross_w.get(key, 0) + w
    return cells, self_w, cross_w


def expected_view(g: MultidimGraph, sig: tuple[int, ...], table: SignificanceTable) -> View:
    """Group vertices by their values on ``sig``, dropping cells that carry a
    pruned value, then count every edge whose endpoints both fall in cells."""
    cell_of: dict[int, tuple[str, ...]] = {}
    groups: dict[tuple[str, ...], list[int]] = {}
    for vid in sorted(g.vertices):
        values = tuple(g.vertices[vid][d] for d in sig)
        if all(table.keep(d, v) for d, v in zip(sig, values)):
            cell_of[vid] = values
            groups.setdefault(values, []).append(vid)
    self_w: dict[tuple[str, ...], int] = {}
    cross_w: dict[frozenset, int] = {}
    for u, w in g.edges:
        cu, cw = cell_of.get(u), cell_of.get(w)
        if cu is None or cw is None:
            continue
        if cu == cw:
            self_w[cu] = self_w.get(cu, 0) + 1
        else:
            key = frozenset((cu, cw))
            cross_w[key] = cross_w.get(key, 0) + 1
    return {k: tuple(m) for k, m in groups.items()}, self_w, cross_w


def diff_views(where: str, want: View, got: View) -> list[str]:
    problems = []
    for part, a, b in zip(("cells", "self weights", "cross weights"), want, got):
        if a == b:
            continue
        keys = sorted((k for k in a.keys() | b.keys() if a.get(k) != b.get(k)), key=repr)
        problems.append(f"{where}: {part} differ at {len(keys)} keys, first {keys[0]!r}: "
                        f"expected {a.get(keys[0])!r}, got {b.get(keys[0])!r}")
    return problems


def sample_signatures(dim_count: int, max_level: int, rng: random.Random, per_level: int = 1) -> list[tuple[int, ...]]:
    """``per_level`` random signatures of every level 1..max_level."""
    out = []
    for k in range(1, max_level + 1):
        sigs = list(combinations(range(dim_count), k))
        out.extend(rng.sample(sigs, min(per_level, len(sigs))))
    return out


def check_sampled_cuboids(g: MultidimGraph, table: SignificanceTable, cube: GraphCube,
                          rng: random.Random, per_level: int = 1) -> list[str]:
    problems = []
    for sig in sample_signatures(g.dim_count, cube.meta.max_level, rng, per_level):
        net = cube.cuboids.get(sig)
        if net is None:
            problems.append(f"cuboid {sig}: missing from cube")
            continue
        problems += diff_views(f"cuboid {sig}", expected_view(g, sig, table), view(net))
    return problems


def check_all_cuboids(g: MultidimGraph, table: SignificanceTable, cube: GraphCube) -> list[str]:
    """Cube-wide invariants. Without pruning every cuboid partitions V and
    carries all |E| edges; with pruning no cell carries a pruned value."""
    problems = []
    want_count = sum(comb(g.dim_count, k) for k in range(1, cube.meta.max_level + 1))
    if len(cube.cuboids) != want_count:
        problems.append(f"cube has {len(cube.cuboids)} cuboids, expected {want_count}")
    all_vertices = sorted(g.vertices)
    pruning = any(not row.keep for row in table.rows.values())
    for sig, net in cube.cuboids.items():
        if pruning:
            for nd in net.nodes:
                bad = [v for d, v in zip(sig, nd.values) if not table.keep(d, v)]
                if bad:
                    problems.append(f"cuboid {sig}: cell {nd.values} carries pruned value {bad[0]!r}")
                    break
            continue
        members = sorted(v for nd in net.nodes for v in nd.members)
        if members != all_vertices:
            problems.append(f"cuboid {sig}: members do not partition V "
                            f"({len(members)} listed, {len(all_vertices)} vertices)")
        if net.total_edge_weight() != len(g.edges):
            problems.append(f"cuboid {sig}: edge weight {net.total_edge_weight()} != |E| {len(g.edges)}")
    return problems


def check_scores(g: MultidimGraph, table: SignificanceTable, vertices: list[int]) -> list[str]:
    """Float vertex scores against exact rational ones; the hub value is kept."""
    problems = []
    for v in vertices:
        got = measures.vertex_score(g, v)
        alpha, cc, density, total = oracle.rational_vertex_score(g, v)
        for part, a, b in (("alpha", got.alpha, alpha), ("cc", got.cc, cc),
                           ("density", got.density, density), ("score", got.score, total)):
            if abs(Fraction(a) - b) > SCORE_TOL:
                problems.append(f"vertex {v}: {part} {a!r} != exact {float(b)!r}")
    if (0, HUB_VALUE) in table.rows and not table.keep(0, HUB_VALUE):
        problems.append(f"planted value {HUB_VALUE!r} of dimension 0 was pruned")
    return problems


def check_read(sig: tuple[int, ...], want: AggregateNetwork, got: AggregateNetwork) -> list[str]:
    if tuple(got.signature) != sig:
        return [f"read of {sig}: got signature {got.signature}"]
    if (got.nodes == want.nodes and got.self_edges == want.self_edges
            and got.cross_edges == want.cross_edges):
        return []  # identical; otherwise compare order- and orientation-free
    return diff_views(f"read of {sig}", view(want), view(got))
