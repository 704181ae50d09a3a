"""Cube materialization: aggregate nodes, both traversal strategies, edges, I/O.

A cuboid is identified by a strictly ascending tuple of dimension indices (its
canonical signature). Level-1 cells come from the inverted index. Every cuboid
of level k >= 2 is then built by exactly one join: the cells of its length-p
prefix cuboid intersected with the cells of its length-p suffix cuboid. The
two strategies differ only in the level p that each target is read from:
level-by-level reads level k-1, steps-up reads level ceil(k/2), so each level L
feeds every level up to 2L. Both strategies must emit identical cubes.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, combinations, repeat
from pathlib import Path
from typing import Iterable, Sequence

from .core import InvertedIndex, MultidimGraph
from .errors import (
    CubeFormatError,
    NotMaterializedError,
    ParameterError,
    QueryError,
)
from .measures import SignificanceTable

__all__ = [
    "Strategy",
    "AggregateNode",
    "AggregateNetwork",
    "CubeMeta",
    "GraphCube",
    "lws_valid",
    "level1_nodes",
    "compute_cube",
    "aggregate_edges",
    "query_cuboid",
    "write_cube",
    "locate_cuboid",
    "read_cuboid",
    "read_cube_meta",
]

LABEL_SEP = "|"


class Strategy(str, Enum):
    LEVEL_BY_LEVEL = "level-by-level"
    STEPS_UP = "steps-up"


def lws_valid(dims: Sequence[int]) -> bool:
    """True iff the signature is non-empty, duplicate-free, strictly ascending."""
    if not dims:
        return False
    return all(a < b for a, b in zip(dims, dims[1:]))


def _label(values: Sequence[str]) -> str:
    return LABEL_SEP.join(values)


@dataclass(frozen=True)
class AggregateNode:
    """One cell of a cuboid: value tuple plus its member vertex ids."""

    dims: tuple[int, ...]
    values: tuple[str, ...]
    members: tuple[int, ...]

    @property
    def level(self) -> int:
        return len(self.dims)

    @property
    def label(self) -> str:
        return _label(self.values)


def level1_nodes(idx: InvertedIndex, table: SignificanceTable) -> list[AggregateNode]:
    """One node per kept (dimension, value); pruned values produce nothing."""
    nodes = []
    for (d, value), members in sorted(idx.entries.items()):
        if table.keep(d, value):
            nodes.append(AggregateNode(dims=(d,), values=(value,), members=tuple(members)))
    return nodes


@dataclass
class AggregateNetwork:
    """Summary graph for one cuboid: nodes plus self/cross edge weights."""

    signature: tuple[int, ...]
    nodes: list[AggregateNode]
    self_edges: dict[tuple[str, ...], int] = field(default_factory=dict)
    cross_edges: dict[tuple[tuple[str, ...], tuple[str, ...]], int] = field(default_factory=dict)

    def self_weight(self, values: tuple[str, ...]) -> int:
        return self.self_edges.get(values, 0)

    def cross_weight(self, a: tuple[str, ...], b: tuple[str, ...]) -> int:
        key = (a, b) if _label(a) < _label(b) else (b, a)
        return self.cross_edges.get(key, 0)

    def total_edge_weight(self) -> int:
        return sum(self.self_edges.values()) + sum(self.cross_edges.values())


@dataclass
class CubeMeta:
    fingerprint: str
    policy: str
    strategy: str
    max_level: int
    dims: tuple[str, ...]
    timings: list[tuple[int, float]] = field(default_factory=list)
    combines_attempted: int = 0
    nodes_emitted: int = 0


@dataclass
class GraphCube:
    cuboids: dict[tuple[int, ...], AggregateNetwork]
    meta: CubeMeta


def aggregate_edges(g: MultidimGraph, net: AggregateNetwork) -> AggregateNetwork:
    """Classify every graph edge by its endpoints' cells.

    Each undirected edge counts once; edges with an endpoint outside all cells
    (pruned away) contribute nothing. Zero-weight entries are omitted.

    Only the forward edges (u, w), u < w, of member vertices u are scanned:
    cells are numbered, each vertex position holds its cell number (-1 for
    none), and the (cell of u, cell of w) pairs are counted in one C-level
    pass before being decoded into value tuples.
    """
    pos, fwd = g.forward_adjacency()
    cell = [-1] * len(fwd)
    for c, node in enumerate(net.nodes):
        for v in node.members:
            cell[pos[v]] = c
    us = [p for p, c in enumerate(cell) if c >= 0]
    u_fwd = list(map(fwd.__getitem__, us))
    pairs = Counter(
        zip(
            chain.from_iterable(map(repeat, map(cell.__getitem__, us), map(len, u_fwd))),
            map(cell.__getitem__, chain.from_iterable(u_fwd)),
        )
    )
    values = [node.values for node in net.nodes]
    labels = [node.label for node in net.nodes]
    self_edges: dict[tuple[str, ...], int] = {}
    cross_edges: dict[tuple[tuple[str, ...], tuple[str, ...]], int] = {}
    for (cu, cw), n in pairs.items():
        if cw < 0:
            continue
        if cu == cw:
            self_edges[values[cu]] = n
        else:
            # Orientation as for a single edge (u, w), u < w: equal labels keep (w, u).
            key = (values[cu], values[cw]) if labels[cu] < labels[cw] else (values[cw], values[cu])
            cross_edges[key] = cross_edges.get(key, 0) + n
    return AggregateNetwork(
        signature=net.signature,
        nodes=net.nodes,
        self_edges=self_edges,
        cross_edges=cross_edges,
    )


def _join(
    a_nodes: list[AggregateNode],
    b_cells: dict[int, tuple[str, ...]],
    a_sig: tuple[int, ...],
    b_sig: tuple[int, ...],
    target_sig: tuple[int, ...],
) -> list[AggregateNode]:
    """Intersect every compatible cell pair of two parent cuboids in one sweep.

    For each member of an A-cell, its B-cell values (if any) are looked up in
    ``b_cells`` ({vertex: values} of the B cuboid), so all non-empty pairwise
    intersections fall out of a single scan. Semantics match the pairwise
    oracle.combine(). Returns the target cuboid's nodes in label order.
    """
    a_pick = {d: i for i, d in enumerate(a_sig)}
    b_pick = {d: i for i, d in enumerate(b_sig)}
    sel = [(0, a_pick[d]) if d in a_pick else (1, b_pick[d]) for d in target_sig]
    target: list[AggregateNode] = []
    for a in a_nodes:
        groups: dict[tuple[str, ...], list[int]] = {}
        for v in a.members:
            bvals = b_cells.get(v)
            if bvals is not None:
                groups.setdefault(bvals, []).append(v)
        for bvals, members in groups.items():
            values = tuple((a.values if side == 0 else bvals)[i] for side, i in sel)
            target.append(AggregateNode(dims=target_sig, values=values, members=tuple(members)))
    target.sort(key=lambda nd: nd.label)
    return target


def compute_cube(
    g: MultidimGraph,
    idx: InvertedIndex,
    table: SignificanceTable,
    strategy: Strategy = Strategy.LEVEL_BY_LEVEL,
    max_level: int | None = None,
) -> GraphCube:
    """Materialize every canonical cuboid of size <= max_level."""
    n = g.dim_count
    if max_level is None:
        max_level = n
    if not 1 <= max_level <= n:
        raise ParameterError(f"max_level must be in [1, {n}], got {max_level}")

    meta = CubeMeta(
        fingerprint=g.fingerprint(),
        policy=table.policy,
        strategy=strategy.value,
        max_level=max_level,
        dims=g.dims,
    )

    t0 = time.perf_counter()
    # signature -> its nodes in label order, levels ascending. A fully pruned
    # dimension still emits its (empty) level-1 cuboid.
    store: dict[tuple[int, ...], list[AggregateNode]] = {(d,): [] for d in range(n)}
    for node in level1_nodes(idx, table):
        store[node.dims].append(node)
    meta.timings.append((1, (time.perf_counter() - t0) * 1000.0))

    cells: dict[tuple[int, ...], dict[int, tuple[str, ...]]] = {}  # B side: {vertex: values}
    for k in range(2, max_level + 1):
        # Prefix and suffix of length p cover every level-k signature: 2p >= k.
        p = k - 1 if strategy is Strategy.LEVEL_BY_LEVEL else (k + 1) // 2
        t0 = time.perf_counter()
        for sig in combinations(range(n), k):
            meta.combines_attempted += 1
            b_sig = sig[k - p:]
            if b_sig not in cells:
                cells[b_sig] = {v: nd.values for nd in store[b_sig] for v in nd.members}
            store[sig] = _join(store[sig[:p]], cells[b_sig], sig[:p], b_sig, sig)
        meta.timings.append((k, (time.perf_counter() - t0) * 1000.0))

    cuboids: dict[tuple[int, ...], AggregateNetwork] = {}
    for sig, nodes in store.items():
        meta.nodes_emitted += len(nodes)
        cuboids[sig] = aggregate_edges(g, AggregateNetwork(signature=sig, nodes=nodes))
    return GraphCube(cuboids=cuboids, meta=meta)


def _resolve_signature(dims: tuple[str, ...], names: Iterable[str]) -> tuple[int, ...]:
    indices = []
    for name in names:
        if name not in dims:
            raise QueryError(f"unknown dimension {name}")
        indices.append(dims.index(name))
    if len(set(indices)) != len(indices):
        raise QueryError("duplicate dimension in query")
    return tuple(sorted(indices))


def query_cuboid(cube: GraphCube, dims: Sequence[str]) -> AggregateNetwork:
    """Look up one cuboid by dimension names; name order is irrelevant."""
    sig = _resolve_signature(cube.meta.dims, dims)
    net = cube.cuboids.get(sig)
    if net is None:
        raise NotMaterializedError(
            f"cuboid {{{','.join(cube.meta.dims[d] for d in sig)}}} is not materialized"
        )
    return net


# ---------------------------------------------------------------------------
# Serialization. One tab-separated file per cuboid plus a comma-separated meta
# file; every section is sorted so identical cubes serialize byte-identically.
# ---------------------------------------------------------------------------

CUBOID_EXT = ".tsv"
META_NAME = "meta"


def _cuboid_filename(dims: tuple[str, ...], sig: tuple[int, ...]) -> str:
    return "_".join(dims[d] for d in sig) + CUBOID_EXT


def _render_cuboid(net: AggregateNetwork) -> str:
    """N, S, E and M sections, each sorted; every cell's label is joined once."""
    labels: dict[tuple[str, ...], str] = {}
    n_lines, m_lines = [], []
    for nd in net.nodes:
        label = labels[nd.values] = nd.label
        n_lines.append(f"N\t{label}\t{len(nd.members)}")
        m_lines.append(f"M\t{label}\t{','.join(map(str, nd.members))}")
    s_lines = [f"S\t{labels[k]}\t{w}" for k, w in net.self_edges.items()]
    e_lines = [f"E\t{labels[a]}\t{labels[b]}\t{w}" for (a, b), w in net.cross_edges.items()]
    sections = sorted(n_lines) + sorted(s_lines) + sorted(e_lines) + sorted(m_lines)
    return "\n".join(sections) + ("\n" if sections else "")


def _check_readable(cube: GraphCube) -> None:
    """Raise CubeFormatError if the cube would not read back as it was written.

    File names join dimension names with '_' and labels join values with '|',
    so two cuboids may share a file and a value may split apart on reading;
    a tab or a line break in a value breaks its record. Every value of every
    cell appears in a level-1 cell, so checking level 1 covers the cube.
    """
    dims = cube.meta.dims
    files: dict[str, tuple[int, ...]] = {}
    for sig, net in cube.cuboids.items():
        name = _cuboid_filename(dims, sig)
        if "/" in name or "\0" in name:
            raise CubeFormatError(f"cuboid file name {name!r} is not a plain file name")
        if name in files:
            raise CubeFormatError(
                f"cuboids {[dims[d] for d in files[name]]} and {[dims[d] for d in sig]} "
                f"would both be written to {name}"
            )
        files[name] = sig
        if len(sig) == 1:
            for nd in net.nodes:
                value = nd.values[0]
                # A line break is anything str.splitlines() splits on.
                if LABEL_SEP in value or "\t" in value or "".join(value.splitlines()) != value:
                    raise CubeFormatError(
                        f"value {value!r} of dimension {dims[sig[0]]} contains '|', a tab "
                        f"or a line break"
                    )


def write_cube(cube: GraphCube, directory: str | Path) -> None:
    """Write one file per cuboid plus meta; refuses, before writing anything,
    a cube that would not read back as written."""
    _check_readable(cube)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = cube.meta
    for sig, net in sorted(cube.cuboids.items(), key=lambda kv: (len(kv[0]), kv[0])):
        path = directory / _cuboid_filename(meta.dims, sig)
        path.write_text(_render_cuboid(net), encoding="utf-8")
    lines = [
        f"fingerprint,{meta.fingerprint}",
        f"policy,{meta.policy}",
        f"strategy,{meta.strategy}",
        f"max_level,{meta.max_level}",
        "dims," + ",".join(meta.dims),
        f"combines_attempted,{meta.combines_attempted}",
        f"nodes_emitted,{meta.nodes_emitted}",
    ]
    for level, millis in meta.timings:
        lines.append(f"level,{level},{millis:.3f}")
    (directory / META_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_cube_meta(directory: str | Path) -> dict[str, str | tuple[str, ...]]:
    path = Path(directory) / META_NAME
    if not path.is_file():
        raise NotMaterializedError(f"no cube meta file in {directory}")
    out: dict[str, str | tuple[str, ...]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, rest = line.partition(",")
        if not sep:
            raise CubeFormatError(f"{path}: meta line {line!r} has no comma")
        if key == "dims":
            out["dims"] = tuple(rest.split(","))
        elif key != "level":
            out[key] = rest
    if "dims" not in out:
        raise CubeFormatError(f"{path}: no dims line")
    return out


def locate_cuboid(
    directory: str | Path, signature: Sequence[str] | Sequence[int]
) -> tuple[tuple[int, ...], Path]:
    """Resolve a cuboid of a cube directory to its canonical signature and file.

    ``signature`` may be dimension names or indices, in any order. Raises
    QueryError for an unknown, duplicate or out-of-range dimension and
    NotMaterializedError when the cube has no file for the cuboid.
    """
    directory = Path(directory)
    dims = read_cube_meta(directory)["dims"]
    assert isinstance(dims, tuple)
    if signature and isinstance(next(iter(signature)), str):
        sig = _resolve_signature(dims, signature)  # type: ignore[arg-type]
    else:
        sig = tuple(sorted(int(d) for d in signature))
        if not all(0 <= d < len(dims) for d in sig):
            raise QueryError(f"dimension index out of range in {signature}")
        if not lws_valid(sig):
            raise QueryError(f"invalid signature {signature}")
    path = directory / _cuboid_filename(dims, sig)
    if not path.is_file():
        raise NotMaterializedError(
            f"cuboid {{{','.join(dims[d] for d in sig)}}} is not materialized"
        )
    return sig, path


def read_cuboid(directory: str | Path, signature: Sequence[str] | Sequence[int]) -> AggregateNetwork:
    """Read one cuboid back from a cube directory.

    ``signature`` is resolved by locate_cuboid(). Every N record needs exactly
    one M record with as many members as its count.
    """
    sig, path = locate_cuboid(directory, signature)
    counts: dict[str, int] = {}
    members: dict[str, tuple[int, ...]] = {}
    self_edges: dict[tuple[str, ...], int] = {}
    cross_edges: dict[tuple[tuple[str, ...], tuple[str, ...]], int] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        parts = line.split("\t")
        kind = parts[0]
        try:
            if kind == "N" and len(parts) == 3 and parts[1] not in counts:
                counts[parts[1]] = int(parts[2])
            elif kind == "S" and len(parts) == 3:
                self_edges[tuple(parts[1].split(LABEL_SEP))] = int(parts[2])
            elif kind == "E" and len(parts) == 4:
                a = tuple(parts[1].split(LABEL_SEP))
                b = tuple(parts[2].split(LABEL_SEP))
                cross_edges[(a, b)] = int(parts[3])
            elif kind == "M" and len(parts) == 3 and parts[1] not in members:
                members[parts[1]] = tuple(map(int, parts[2].split(",")))
            else:
                raise ValueError("unrecognized or repeated record")
        except ValueError as exc:
            raise CubeFormatError(f"{path.name} line {lineno}: {line!r} ({exc})") from None
    if counts.keys() != members.keys():
        raise CubeFormatError(f"{path.name}: N and M records name different cells")
    nodes = []
    for label in sorted(counts):
        if len(members[label]) != counts[label]:
            raise CubeFormatError(f"{path.name}: member list of {label!r} does not match its count")
        values = tuple(label.split(LABEL_SEP))
        nodes.append(AggregateNode(dims=sig, values=values, members=members[label]))
    return AggregateNetwork(signature=sig, nodes=nodes, self_edges=self_edges, cross_edges=cross_edges)
