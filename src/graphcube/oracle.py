"""Brute-force reference computations used to validate the engine.

Everything here works directly off the vertex table and edge list: cuboids are
computed by a plain group-by with a per-edge loop, and significance scores are
re-derived in exact rational arithmetic. The inverted index, the engine's join
and its edge kernel are deliberately never used, so agreement between the two
paths is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .core import MultidimGraph
from .engine import (
    AggregateNetwork,
    AggregateNode,
    CubeMeta,
    GraphCube,
    _top_level,
    lws_valid,
)
from .errors import ParameterError, VerificationError

__all__ = [
    "CubeDiff",
    "oracle_cuboid",
    "oracle_cube",
    "compare",
    "rational_vertex_score",
    "rational_significance",
]


def oracle_cuboid(g: MultidimGraph, dims: Sequence[int]) -> AggregateNetwork:
    """Group vertices by their value tuple on dims, then classify every edge."""
    sig = tuple(dims)
    if not lws_valid(sig) or any(d < 0 or d >= g.dim_count for d in sig):
        raise ParameterError(f"invalid signature {dims}")
    groups: dict[tuple[str, ...], list[int]] = {}
    for vid in sorted(g.vertices):
        key = tuple(g.vertices[vid][d] for d in sig)
        groups.setdefault(key, []).append(vid)
    nodes = [
        AggregateNode(values=values, members=tuple(members))
        for values, members in groups.items()
    ]
    nodes.sort(key=lambda nd: nd.values)
    assign = {v: nd.values for nd in nodes for v in nd.members}
    self_edges: dict[tuple[str, ...], int] = {}
    cross_edges: dict[tuple[tuple[str, ...], tuple[str, ...]], int] = {}
    for u, w in g.edges:
        cu, cw = assign[u], assign[w]
        if cu == cw:
            self_edges[cu] = self_edges.get(cu, 0) + 1
        else:
            key = (cu, cw) if cu < cw else (cw, cu)
            cross_edges[key] = cross_edges.get(key, 0) + 1
    return AggregateNetwork(
        signature=sig, nodes=nodes, self_edges=self_edges, cross_edges=cross_edges
    )


def oracle_cube(g: MultidimGraph, max_level: int | None = None) -> GraphCube:
    n = g.dim_count
    max_level = _top_level(n, max_level)
    cuboids = {}
    for k in range(1, max_level + 1):
        for sig in combinations(range(n), k):
            cuboids[sig] = oracle_cuboid(g, sig)
    meta = CubeMeta(
        fingerprint=g.fingerprint(),
        policy="none",
        strategy="oracle",
        max_level=max_level,
        dims=g.dims,
    )
    return GraphCube(cuboids=cuboids, meta=meta)


@dataclass
class CubeDiff:
    """Structural difference between two cubes; empty means equal."""

    missing_nodes: list[tuple[tuple[int, ...], str, str]] = field(default_factory=list)
    extra_nodes: list[tuple[tuple[int, ...], str, str]] = field(default_factory=list)
    member_mismatches: list[tuple[tuple[int, ...], str, str]] = field(default_factory=list)
    weight_mismatches: list[tuple[tuple[int, ...], str, str]] = field(default_factory=list)

    def empty(self) -> bool:
        return not (
            self.missing_nodes
            or self.extra_nodes
            or self.member_mismatches
            or self.weight_mismatches
        )

    def __bool__(self) -> bool:  # truthy when a difference exists
        return not self.empty()


def compare(a: GraphCube, b: GraphCube) -> CubeDiff:
    """Diff two cubes cuboid by cuboid; nodes missing from b vs extra in b are
    reported distinctly. Refuses to compare cubes of different graphs."""
    if a.meta.fingerprint != b.meta.fingerprint:
        raise VerificationError("cannot compare cubes with different graph fingerprints")
    diff = CubeDiff()
    for sig in sorted(set(a.cuboids) | set(b.cuboids), key=lambda s: (len(s), s)):
        net_a = a.cuboids.get(sig)
        net_b = b.cuboids.get(sig)
        if net_a is None:
            diff.extra_nodes.append((sig, "*", "cuboid only in second cube"))
            continue
        if net_b is None:
            diff.missing_nodes.append((sig, "*", "cuboid only in first cube"))
            continue
        nodes_a = {nd.values: nd for nd in net_a.nodes}
        nodes_b = {nd.values: nd for nd in net_b.nodes}
        for values in sorted(nodes_a.keys() - nodes_b.keys()):
            diff.missing_nodes.append((sig, "|".join(values), "node absent in second cube"))
        for values in sorted(nodes_b.keys() - nodes_a.keys()):
            diff.extra_nodes.append((sig, "|".join(values), "node absent in first cube"))
        for values in sorted(nodes_a.keys() & nodes_b.keys()):
            ma, mb = nodes_a[values].members, nodes_b[values].members
            if ma != mb:
                diff.member_mismatches.append(
                    (sig, "|".join(values), f"members {list(ma)} != {list(mb)}")
                )
        if net_a.self_edges == net_b.self_edges and net_a.cross_edges == net_b.cross_edges:
            continue  # no weight differs; views over the same cells compare by cell number
        self_a, self_b = dict(net_a.self_edges.items()), dict(net_b.self_edges.items())
        for key in sorted(self_a.keys() | self_b.keys()):
            wa = self_a.get(key, 0)
            wb = self_b.get(key, 0)
            if wa != wb:
                diff.weight_mismatches.append((sig, "|".join(key), f"self {wa} != {wb}"))
        cross_a, cross_b = dict(net_a.cross_edges.items()), dict(net_b.cross_edges.items())
        for pair in sorted(cross_a.keys() | cross_b.keys()):
            wa = cross_a.get(pair, 0)
            wb = cross_b.get(pair, 0)
            if wa != wb:
                label = "|".join(pair[0]) + "--" + "|".join(pair[1])
                diff.weight_mismatches.append((sig, label, f"cross {wa} != {wb}"))
    return diff


# ---------------------------------------------------------------------------
# Exact rational recomputation of the structural scores, built from scratch on
# the edge list so it stays independent of the measures module's float path.
# ---------------------------------------------------------------------------


def _adjacency(g: MultidimGraph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for u, w in g.edges:
        adj[u].add(w)
        adj[w].add(u)
    return adj


def rational_vertex_score(g: MultidimGraph, v: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(diversity, clustering, density, total) as exact fractions."""
    return _rational_vertex_score(g, _adjacency(g), v)


def _rational_vertex_score(
    g: MultidimGraph, adj: dict[int, set[int]], v: int
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    nbrs = adj[v]
    d = len(nbrs)
    if d == 0:
        alpha = Fraction(0)
    else:
        alpha = Fraction(0)
        for j in range(g.dim_count):
            alpha += Fraction(len({g.vertices[u][j] for u in nbrs}), d)
        alpha /= g.dim_count
    if d < 2:
        cc = Fraction(0)
    else:
        links = sum(1 for x, y in combinations(sorted(nbrs), 2) if y in adj[x])
        cc = Fraction(links, d * (d - 1) // 2)
    closed = sorted(nbrs | {v})
    if len(closed) < 2:
        density = Fraction(0)
    else:
        links = sum(1 for x, y in combinations(closed, 2) if y in adj[x])
        density = Fraction(links, len(closed) * (len(closed) - 1) // 2)
    return alpha, cc, density, alpha * cc + density


def rational_significance(g: MultidimGraph) -> dict[tuple[int, str], Fraction]:
    """Exact per-(dimension, value) score sums straight off the vertex table."""
    adj = _adjacency(g)
    totals: dict[tuple[int, str], Fraction] = {}
    for vid in sorted(g.vertices):
        score = _rational_vertex_score(g, adj, vid)[3]
        for d, value in enumerate(g.vertices[vid]):
            key = (d, value)
            totals[key] = totals.get(key, Fraction(0)) + score
    return totals
