"""Cube materialization: aggregate nodes, both traversal strategies, edges, I/O.

A cuboid is identified by a strictly ascending tuple of dimension indices (its
canonical signature). Level-1 cells come from the inverted index. Every cuboid
of level k >= 2 is then built by exactly one join: the cells of its length-p
prefix cuboid intersected with the cells of its length-p suffix cuboid. The
two strategies differ only in the level p that each target is read from:
level-by-level reads level k-1, steps-up reads level ceil(k/2), so each level L
feeds every level up to 2L. Both strategies must emit identical cubes. Each
cuboid's edges are counted as soon as it is joined, into the cube being built.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from array import array
from collections import Counter
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, combinations, compress, count, repeat
from operator import add, attrgetter, eq, lt, mul, ne
from pathlib import Path
from typing import Sequence

from .core import LINE_BREAKS, InvertedIndex, MultidimGraph
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
    "parse_cuboid",
    "read_cube_meta",
]

class Strategy(str, Enum):
    LEVEL_BY_LEVEL = "level-by-level"
    STEPS_UP = "steps-up"


def lws_valid(dims: Sequence[int]) -> bool:
    """True iff the signature is non-empty, duplicate-free, strictly ascending."""
    if not dims:
        return False
    return all(a < b for a, b in zip(dims, dims[1:]))


@dataclass(frozen=True, slots=True)
class AggregateNode:
    """One cell of a cuboid: value tuple plus its member vertex ids."""

    values: tuple[str, ...]
    members: tuple[int, ...]


_values = attrgetter("values")
_members = attrgetter("members")


def level1_nodes(idx: InvertedIndex, table: SignificanceTable) -> dict[tuple[int], list[AggregateNode]]:
    """{(d,): one node per kept value of dimension d, in value order}; pruned
    values produce nothing, and a dimension with no kept value no entry."""
    store: dict[tuple[int], list[AggregateNode]] = {}
    for (d, value), members in sorted(idx.entries.items()):
        if table.keep(d, value):
            store.setdefault((d,), []).append(AggregateNode((value,), tuple(members)))
    return store


class AggregateNetwork:
    """Summary graph for one cuboid: its cells and the edge weights between them.

    The weights are three columns. Row r says that ``weight[r]`` edges join
    cells ``nodes[lo[r]]`` and ``nodes[hi[r]]``, with lo <= hi, and lo == hi
    for the edges inside a cell; no two rows name the same pair. The nodes
    are in strictly ascending value-tuple order, so no two cells share a value
    tuple and the lower cell number holds the lower values.

    ``self_edges`` ({values: weight}) and ``cross_edges`` ({(lower values,
    higher values): weight}) are live views of the rows, keyed by value
    tuples. ``items()``, ``len`` and ``==`` read the columns in one pass; the
    first keyed access on a view indexes its rows, and any key it reads after
    that takes O(1). Assigning to a key changes that row's weight; no row is
    added or removed through a view.
    """

    __slots__ = ("signature", "nodes", "lo", "hi", "weight")

    def __init__(
        self,
        signature: tuple[int, ...],
        nodes: list[AggregateNode],
        self_edges: Mapping[tuple[str, ...], int] | None = None,
        cross_edges: Mapping[tuple[tuple[str, ...], tuple[str, ...]], int] | None = None,
    ) -> None:
        """Numbers the cells once and turns the value-keyed weights into rows;
        a cross edge given in both orientations is summed. ValueError if a
        cell has no members or not one value per dimension of the signature
        (the file format holds neither), if the nodes' value tuples do not
        strictly ascend, if a key names no cell or if a cross-edge key names
        one cell twice."""
        keys = list(map(_values, nodes))
        if not all(map(len, map(_members, nodes))):
            raise ValueError(f"cell {next(nd.values for nd in nodes if not nd.members)!r} has no members")
        if not set(map(len, keys)) <= {len(signature)}:
            values = next(v for v in keys if len(v) != len(signature))
            raise ValueError(f"cell {values!r} has {len(values)} values, not one per dimension of {signature!r}")
        if not all(map(lt, keys, keys[1:])):
            raise ValueError("nodes are not in strictly ascending value-tuple order (or repeat a value tuple)")
        self.signature = signature
        self.nodes = nodes
        rows: dict[tuple[int, int], int] = {}
        if self_edges or cross_edges:
            number = {v: i for i, v in enumerate(keys)}
            try:
                for values, w in (self_edges or {}).items():
                    i = number[values]
                    rows[i, i] = w
                for (a, b), w in (cross_edges or {}).items():
                    i, j = sorted((number[a], number[b]))
                    if i == j:
                        raise ValueError(f"cross-edge key {(a, b)!r} names one cell twice")
                    rows[i, j] = rows.get((i, j), 0) + w
            except KeyError as exc:
                raise ValueError(f"edge weight names no cell: {exc.args[0]!r}") from None
        self.lo, self.hi, self.weight = _columns(rows)

    @classmethod
    def _from_columns(
        cls, signature: tuple[int, ...], nodes: list[AggregateNode], lo: array, hi: array, weight: array
    ) -> AggregateNetwork:
        """A network over rows already numbered by position in ``nodes``; the
        caller vouches that the nodes are in strictly ascending value order."""
        net = cls.__new__(cls)
        net.signature, net.nodes, net.lo, net.hi, net.weight = signature, nodes, lo, hi, weight
        return net

    @property
    def self_edges(self) -> _EdgeView:
        """{values: weight of the edges inside that cell}"""
        return _EdgeView(self, eq)

    @property
    def cross_edges(self) -> _EdgeView:
        """{(lower values, higher values): weight of the edges between the two
        cells}; a lookup takes the two value tuples in either order."""
        return _EdgeView(self, ne)

    def total_edge_weight(self) -> int:
        return sum(self.weight)

    def _weights(self, mask: list[bool] | None = None) -> dict[int, int]:
        """{lo * len(nodes) + hi: weight} over the rows ``mask`` selects, all by
        default. Its keys are ints, so comparing two networks' rows builds no
        tuple for the garbage collector to track."""
        lo, hi, weight = self.lo, self.hi, self.weight
        if mask is not None:
            lo, hi, weight = compress(lo, mask), compress(hi, mask), compress(weight, mask)
        return dict(zip(map(add, map(mul, lo, repeat(len(self.nodes))), hi), weight))

    def __eq__(self, other: object) -> bool:
        """Same signature, the same nodes in the same order, and the same rows
        in any order."""
        if not isinstance(other, AggregateNetwork):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.nodes == other.nodes
            and len(self.weight) == len(other.weight)
            and self._weights() == other._weights()
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"AggregateNetwork(signature={self.signature!r}, nodes={self.nodes!r}, "
            f"self_edges={dict(self.self_edges.items())!r}, cross_edges={dict(self.cross_edges.items())!r})"
        )


def _columns(rows: dict[tuple[int, int], int]) -> tuple[array, array, array]:
    """The lo, hi and weight columns of {(lo, hi): weight}, in the dict's order.
    Each is made from a list, so it is allocated at its final size."""
    return array("i", [i for i, _ in rows]), array("i", [j for _, j in rows]), array("q", list(rows.values()))


class _EdgeView(Mapping):
    """The rows of one network inside cells (``eq``: lo == hi, keyed by value
    tuple) or between them (``ne``: keyed by (lower values, higher values)).

    ``items()``, ``len`` and ``==`` read the columns. The first keyed access
    indexes the rows by key, a cross key in both orders; assignment changes
    an existing row's weight. No row is added or removed through a view.
    """

    __slots__ = ("_net", "_inside", "_rows")

    def __init__(self, net: AggregateNetwork, inside: Callable[[int, int], bool]) -> None:
        self._net = net
        self._inside = inside
        self._rows: dict | None = None

    def _mask(self) -> list[bool]:
        """Per row, whether it belongs to this view."""
        net = self._net
        return list(map(self._inside, net.lo, net.hi))

    def _row(self, key) -> int:
        """The row a key names; KeyError if it names none."""
        if self._rows is None:
            rows = {k: r for (k, _), r in zip(self.items(), compress(count(), self._mask()))}
            if self._inside is ne:
                rows.update({(b, a): r for (a, b), r in rows.items()})
            self._rows = rows
        return self._rows[key]

    def __getitem__(self, key) -> int:
        return self._net.weight[self._row(key)]

    def __setitem__(self, key, weight: int) -> None:
        self._net.weight[self._row(key)] = weight

    def __len__(self) -> int:
        net = self._net
        return sum(map(self._inside, net.lo, net.hi))

    def __eq__(self, other: object) -> bool:
        """Views of the same kind over the same cells in the same order compare
        their rows by cell number; anything else compares as a dict."""
        if type(other) is _EdgeView and other._inside is self._inside:
            a, b = self._net, other._net
            if list(map(_values, a.nodes)) == list(map(_values, b.nodes)):
                return a._weights(self._mask()) == b._weights(other._mask())
        return super().__eq__(other)

    def __iter__(self) -> Iterator:
        return (key for key, _ in self.items())

    def items(self) -> list[tuple]:  # type: ignore[override]
        net, mask = self._net, self._mask()
        values = list(map(_values, net.nodes))
        keys = map(values.__getitem__, compress(net.lo, mask))
        if self._inside is ne:
            keys = zip(keys, map(values.__getitem__, compress(net.hi, mask)))
        return list(zip(keys, compress(net.weight, mask)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


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


class _BuildNetwork(AggregateNetwork):
    """The cells of one cuboid on their way from compute_cube to
    aggregate_edges, carrying the build's edge groups (see _edge_groups)."""

    __slots__ = ("groups",)

    def __init__(self, signature: tuple[int, ...], nodes: list[AggregateNode], groups: dict) -> None:
        super().__init__(signature, nodes)
        self.groups = groups


def _edge_groups(fwd: list[tuple[int, ...]], kept: list[int]) -> dict[int, tuple[list[int], list[int]]]:
    """The forward edges (u, w) grouped by the bits both endpoints carry:
    {kept[u] & kept[w]: (lower positions, higher positions)}, with the edges
    whose endpoints share no bit left out."""
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for u, row in enumerate(fwd):
        ku = kept[u]
        if ku:
            for w in row:
                m = ku & kept[w]
                if m:
                    if m not in groups:
                        groups[m] = ([], [])
                    lows, highs = groups[m]
                    lows.append(u)
                    highs.append(w)
    return groups


def aggregate_edges(g: MultidimGraph, net: AggregateNetwork) -> AggregateNetwork:
    """Classify every graph edge by its endpoints' cells.

    Each undirected edge counts once; edges with an endpoint outside all cells
    (pruned away) contribute nothing. Zero-weight entries are omitted.

    The edges come grouped by mask (_edge_groups), and only the groups whose
    mask holds every bit asked for are counted. Under compute_cube, the
    groups are made once per build: a vertex carries one bit per dimension on
    which its value is kept, and the cuboid asks for its signature's bits. An
    edge (u, w) joins two cells of cuboid S exactly when both u and w keep
    their values on every dimension of S, so no other group holds one. On
    any other network, the groups come from its own cells: bit 1 for the
    members, none for the rest.

    Cells are numbered by position in ``net.nodes`` and each vertex position
    holds its cell number. The (cell of u, cell of w) pairs of the chosen
    groups are counted in one C-level pass over the chained groups, and the
    counts of (i, j) and (j, i) are summed into the row (min, max); no value
    tuple is built.
    """
    nodes = net.nodes
    pos, fwd = g.forward_adjacency()
    cell = [-1] * len(fwd)
    for c, node in enumerate(nodes):
        for v in node.members:
            cell[pos[v]] = c
    if isinstance(net, _BuildNetwork):
        groups, want = net.groups, sum(1 << d for d in net.signature)
    else:
        groups, want = _edge_groups(fwd, [0 if c < 0 else 1 for c in cell]), 1
    chosen = [grp for m, grp in groups.items() if m & want == want]
    pairs = Counter(
        zip(
            map(cell.__getitem__, chain.from_iterable(lows for lows, _ in chosen)),
            map(cell.__getitem__, chain.from_iterable(highs for _, highs in chosen)),
        )
    )
    rows: dict[tuple[int, int], int] = {}
    for key, n in pairs.items():
        cu, cw = key
        if cu > cw:
            key = (cw, cu)
        rows[key] = rows.get(key, 0) + n
    return AggregateNetwork._from_columns(net.signature, nodes, *_columns(rows))


def _join(
    a_nodes: list[AggregateNode],
    b_nodes: list[AggregateNode],
    b_cell: dict[int, int],
    overlap: int,
) -> list[AggregateNode]:
    """Intersect every compatible cell pair of two parent cuboids in one sweep.

    The members of each A cell are grouped by their B cell number, looked up
    in ``b_cell`` ({vertex: cell number} of the B cuboid), so all non-empty
    pairwise intersections fall out of a single scan. The first ``overlap``
    dimensions of B are A's last ones. The result is checked against
    oracle.oracle_cuboid(), which groups the vertex table directly.

    Returns the target cuboid's nodes in value-tuple order, with no sort:
    A cells come in value-tuple order, and the B cells that one A cell meets
    agree on the overlap, so B cell number order is the order of the values
    they add.
    """
    target: list[AggregateNode] = []
    get = b_cell.get
    for a in a_nodes:
        groups: dict[int, list[int]] = {}
        for v in a.members:
            j = get(v)
            if j is not None:
                if j in groups:
                    groups[j].append(v)
                else:
                    groups[j] = [v]
        for j in sorted(groups):
            values = a.values + b_nodes[j].values[overlap:]
            target.append(AggregateNode(values, tuple(groups[j])))
    return target


def compute_cube(
    g: MultidimGraph,
    idx: InvertedIndex,
    table: SignificanceTable,
    strategy: Strategy = Strategy.LEVEL_BY_LEVEL,
    max_level: int | None = None,
) -> GraphCube:
    """Materialize every canonical cuboid of size <= max_level, level by level.

    Each cuboid is joined from cuboids already in the cube, and its edges are
    counted, before the next one starts; a B-side map lives for one level.
    A level's timing covers its joins and edge counts, level 1's also the grouping.
    """
    n = g.dim_count
    max_level = _top_level(n, max_level)
    meta = CubeMeta(
        fingerprint=g.fingerprint(),
        policy=table.policy,
        strategy=strategy.value,
        max_level=max_level,
        dims=g.dims,
    )

    # A vertex is in a cell of cuboid S iff its value is kept on every dimension
    # of S, so the forward edges are grouped once by the dimensions on which
    # both endpoints keep their values, and each cuboid counts only its groups.
    t0 = time.perf_counter()
    level1 = level1_nodes(idx, table)
    pos, fwd = g.forward_adjacency()
    kept = [0] * len(fwd)
    for (d,), nodes in level1.items():
        for v in chain.from_iterable(map(_members, nodes)):
            kept[pos[v]] |= 1 << d
    groups = _edge_groups(fwd, kept)

    cuboids: dict[tuple[int, ...], AggregateNetwork] = {}  # levels ascending
    for k in range(1, max_level + 1):
        # Prefix and suffix of length p cover every level-k signature: 2p >= k.
        p = k - 1 if strategy is Strategy.LEVEL_BY_LEVEL else (k + 1) // 2
        cells: dict[tuple[int, ...], dict[int, int]] = {}  # B side: {vertex: cell number}
        for sig in combinations(range(n), k):
            if k == 1:  # a fully pruned dimension still emits its empty cuboid
                nodes = level1.get(sig, [])
            else:
                meta.combines_attempted += 1
                b_sig = sig[k - p:]
                if b_sig not in cells:
                    cells[b_sig] = {v: i for i, nd in enumerate(cuboids[b_sig].nodes) for v in nd.members}
                nodes = _join(cuboids[sig[:p]].nodes, cuboids[b_sig].nodes, cells[b_sig], 2 * p - k)
            meta.nodes_emitted += len(nodes)
            cuboids[sig] = aggregate_edges(g, _BuildNetwork(sig, nodes, groups))
        t0, start = time.perf_counter(), t0
        meta.timings.append((k, (t0 - start) * 1000.0))
    return GraphCube(cuboids=cuboids, meta=meta)


def _top_level(n: int, max_level: int | None) -> int:
    """The top level of a cube over n dimensions: max_level, n for None.
    ParameterError outside [1, n]."""
    if max_level is not None and not 1 <= max_level <= n:
        raise ParameterError(f"max_level must be in [1, {n}], got {max_level}")
    return n if max_level is None else max_level


def _canonical_signature(
    dims: tuple[str, ...], max_level: int, signature: Sequence[str] | Sequence[int]
) -> tuple[int, ...]:
    """The canonical signature of a lookup in a cube over ``dims``: ``signature``
    is all dimension names or all int indices (a bool is not one), in any order.
    QueryError for a bare str, a mix, an empty signature and an unknown, repeated
    or out-of-range dimension; NotMaterializedError above max_level."""
    if isinstance(signature, str):
        raise QueryError(f"invalid signature {signature!r}: a str, not a sequence of dimensions")
    if signature and all(isinstance(d, str) for d in signature):
        indices = []
        for name in signature:
            if name not in dims:
                raise QueryError(f"unknown dimension {name}")
            indices.append(dims.index(name))
    elif all(isinstance(d, int) and not isinstance(d, bool) for d in signature):
        indices = list(signature)  # type: ignore[arg-type]
        if not all(0 <= d < len(dims) for d in indices):
            raise QueryError(f"dimension index out of range in {signature}")
    else:
        raise QueryError(f"invalid signature {signature!r}: not all dimension names or all dimension indices")
    if not indices:
        raise QueryError("invalid signature: no dimension")
    sig = tuple(sorted(indices))
    if len(set(sig)) != len(sig):
        raise QueryError("duplicate dimension in query")
    if len(sig) > max_level:
        raise NotMaterializedError(f"cuboid {{{','.join(dims[d] for d in sig)}}} is not materialized")
    return sig


def query_cuboid(cube: GraphCube, signature: Sequence[str] | Sequence[int]) -> AggregateNetwork:
    """Look up one cuboid by the rule read_cuboid follows (_canonical_signature)."""
    return cube.cuboids[_canonical_signature(cube.meta.dims, cube.meta.max_level, signature)]


# ---------------------------------------------------------------------------
# Serialization, format 2. One tab-separated file per cuboid, named by its
# index signature, plus a comma-separated meta file written last. Cell i of a
# cuboid is its i-th N record; S, E and M records name cells by number. Every
# section has a canonical order, so identical cubes serialize byte-identically.
# ---------------------------------------------------------------------------

CUBOID_EXT = ".tsv"
META_NAME = "meta"
FORMAT = "2"


def _cuboid_filename(sig: tuple[int, ...]) -> str:
    return "_".join(map(str, sig)) + CUBOID_EXT


def _escape(value: str) -> str:
    """A value as one field: verbatim unless it holds a backslash or a character
    that str.isprintable() rejects (tabs, line breaks, other control
    characters, lone surrogates); such a value is written as its printable
    ASCII unicode_escape form."""
    if value.isprintable() and "\\" not in value:
        return value
    return value.encode("unicode_escape").decode("ascii")


def _unescape(field: str) -> str:
    """Inverse of _escape; raises ValueError for a malformed escape."""
    return field.encode("ascii").decode("unicode_escape") if "\\" in field else field


class _Fields(dict):
    """{value: field}, filled as values are met, so each distinct value is
    escaped once per write."""

    def __missing__(self, value: str) -> str:
        field = self[value] = _escape(value)
        return field


def _render_cuboid(net: AggregateNetwork, fields: _Fields) -> str:
    """N records in value-tuple order, S and E records sorted as strings, and M
    records in cell order. A network's nodes are in value-tuple order, so a
    row's cell numbers are the file's."""
    nodes = net.nodes
    names = list(map(str, range(len(nodes))))
    field = fields.__getitem__
    lines = ["\t".join(("N", *map(field, nd.values), str(len(nd.members)))) for nd in nodes]
    s_lines, e_lines = [], []
    for i, j, w in zip(net.lo, net.hi, net.weight):
        if i == j:
            s_lines.append(f"S\t{names[i]}\t{w}")
        else:
            e_lines.append(f"E\t{names[i]}\t{names[j]}\t{w}")
    lines += sorted(s_lines)
    lines += sorted(e_lines)
    lines += [f"M\t{names[i]}\t{','.join(map(str, nd.members))}" for i, nd in enumerate(nodes)]
    return "\n".join(lines) + ("\n" if lines else "")


def write_cube(cube: GraphCube, directory: str | Path) -> None:
    """Write one file per cuboid, then meta.

    meta is the commit record. An existing one is deleted before the first
    cuboid file is written, and the new one goes to a temporary file that is
    moved into place last, so a write that stops part-way leaves a directory
    that reads as no cube, never as a valid one.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta_path = directory / META_NAME
    meta_path.unlink(missing_ok=True)
    fields = _Fields()
    for sig, net in sorted(cube.cuboids.items(), key=lambda kv: (len(kv[0]), kv[0])):
        (directory / _cuboid_filename(sig)).write_bytes(_render_cuboid(net, fields).encode("utf-8"))
    meta = cube.meta
    lines = [
        f"format,{FORMAT}",
        f"fingerprint,{meta.fingerprint}",
        f"policy,{meta.policy}",
        f"strategy,{meta.strategy}",
        f"max_level,{meta.max_level}",
        "dims," + "\t".join(map(_escape, meta.dims)),
        f"combines_attempted,{meta.combines_attempted}",
        f"nodes_emitted,{meta.nodes_emitted}",
    ]
    for level, millis in meta.timings:
        lines.append(f"level,{level},{millis:012.3f}")  # fixed width: the size of meta does not depend on the time
    tmp = directory / (META_NAME + ".tmp")
    tmp.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    os.replace(tmp, meta_path)


def _decode(data: bytes, name: str) -> str:
    """The text of cube file ``name``; CubeFormatError if it is not UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CubeFormatError(f"{name}: byte {exc.start} is not UTF-8") from None


def _read_bytes(path: Path, what: str) -> bytes:
    """The bytes of a cube file; NotMaterializedError naming ``what`` if opening it finds no file."""
    try:
        return path.read_bytes()
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        raise NotMaterializedError(f"no {what} in {path.parent}") from None


def read_cube_meta(directory: str | Path) -> dict[str, str | tuple[str, ...]]:
    """The meta of a format-2 cube; ``dims`` is a tuple of names, which the
    dims line holds as tab-separated fields escaped like values.

    The file is read on every call and parsed by _parse_meta, which keeps its
    last result; each call returns a new dict. Raises NotMaterializedError
    without a meta file and CubeFormatError for a malformed meta or format.
    """
    path = Path(directory) / META_NAME
    return dict(_parse_meta(_read_bytes(path, "cube meta file"), str(path)))


@functools.lru_cache(maxsize=1)
def _parse_meta(data: bytes, path: str) -> dict[str, str | tuple[str, ...]]:
    """Parse meta's bytes; ``path`` labels errors. The cache keeps the last
    successful parse, keyed by bytes and path; callers copy the result."""
    text = _decode(data, META_NAME)
    if any(map(text.__contains__, _OTHER_BREAKS)):
        raise CubeFormatError(f"{path}: meta holds a line break other than \\n")
    out: dict[str, str | tuple[str, ...]] = {}
    for line in text.splitlines():
        key, sep, rest = line.partition(",")
        if not sep:
            raise CubeFormatError(f"{path}: meta line {line!r} has no comma")
        if key != "level":
            out[key] = rest
    if out.get("format") != FORMAT:
        raise CubeFormatError(
            f"{path}: cube format {out.get('format', '1')}; only format {FORMAT} is read"
        )
    for key in ("dims", "max_level"):
        if key not in out:
            raise CubeFormatError(f"{path}: no {key} line")
    if not str(out["max_level"]).isdecimal():
        raise CubeFormatError(f"{path}: max_level {out['max_level']!r} is not a number")
    try:
        out["dims"] = tuple(map(_unescape, str(out["dims"]).split("\t")))
    except ValueError:
        raise CubeFormatError(f"{path}: malformed dimension name in {out['dims']!r}") from None
    return out


def locate_cuboid(directory: str | Path, signature: Sequence[str] | Sequence[int]) -> tuple[tuple[int, ...], Path]:
    """Resolve a cuboid of a cube directory to its canonical signature and file.

    ``signature`` follows _canonical_signature, with the cube's meta giving
    the dimensions and max_level, so a file left by an earlier cube above
    max_level is not materialized. It does not check the file; the read
    that opens it does.
    """
    directory = Path(directory)
    meta = read_cube_meta(directory)
    sig = _canonical_signature(meta["dims"], int(meta["max_level"]), signature)  # type: ignore[arg-type]
    return sig, directory / _cuboid_filename(sig)


def read_cuboid(directory: str | Path, signature: Sequence[str] | Sequence[int]) -> AggregateNetwork:
    """Read one cuboid back from a cube directory.

    ``signature`` is resolved by locate_cuboid(). The file is read in full on
    every call; that one open raises NotMaterializedError for a missing file.
    Its bytes are decoded, checked and parsed by parse_cuboid(), unless the
    network parsed from identical bytes is kept (see _OpenCube), so the
    result always equals parse_cuboid() of the file as it is now. Each call
    returns a new network, with its own nodes list and columns.
    """
    sig, path = locate_cuboid(directory, signature)
    return _open_cube.read(path, sig)[1]


# Cuboids kept per open cube. Reads in a zipf-like loop concentrate on a few
# coarse cuboids; see CHANGES.md for the measurement that set it.
_KEPT_CUBOIDS = 8


class _OpenCube:
    """What read_cuboid keeps of the cube directory it read last.

    It counts the reads of each cuboid file there, and from a file's second
    read on it keeps the parsed network with the exact bytes it was parsed
    from, as one (bytes, network) tuple. A kept network is used only for
    identical bytes, so no file timestamp is trusted. At most _KEPT_CUBOIDS
    are kept: when all places are full, a new one replaces the kept cuboid
    with the fewest reads, and only if it has been read more often. A read
    from another directory drops the counts and every kept cuboid. One lock
    covers the counting, the byte check, the parse, the admission and the
    copy.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._directory: Path | None = None
        self._reads: dict[str, int] = {}
        self._kept: dict[str, tuple[bytes, AggregateNetwork]] = {}

    def read(self, path: Path, sig: tuple[int, ...]) -> tuple[bytes, AggregateNetwork]:
        """The file's bytes and a network of its own parsed from them."""
        data, name = _read_bytes(path, f"cuboid file {path.name}"), path.name
        with self._lock:
            if path.parent != self._directory:
                self._directory, self._reads, self._kept = path.parent, {}, {}
            kept, counts = self._kept, self._reads
            reads = counts[name] = counts.get(name, 0) + 1
            entry = kept.get(name)
            if entry is None or entry[0] != data:
                entry = (data, parse_cuboid(_decode(data, name), sig, name))
                if reads < 2:
                    return entry
                if name not in kept and len(kept) >= _KEPT_CUBOIDS:
                    victim = min(kept, key=counts.__getitem__)
                    if counts[victim] >= reads:
                        return entry
                    del kept[victim]
                kept[name] = entry
            net = entry[1]
            return data, AggregateNetwork._from_columns(sig, list(net.nodes), net.lo[:], net.hi[:], net.weight[:])


_open_cube = _OpenCube()


# Record kinds in the order the writer emits sections.
_KINDS = "NSEM"
# The line breaks of str.splitlines() other than "\n". The writer escapes values
# holding one, so no record of a written file contains one.
_OTHER_BREAKS = LINE_BREAKS.replace("\n", "")


def _widths(level: int) -> tuple[int, ...]:
    """Fields per N, S, E and M record of a cuboid of ``level`` dimensions."""
    return (level + 2, 3, 4, 3)


def _integers(numbers: list[str], member_lists: list[str]) -> tuple[list[int], list[tuple[int, ...]]]:
    """Read number fields and comma-separated member fields in one JSON pass.

    Fields may hold ASCII digits and '-' (and ',' between members); that check
    keeps JSON's other literals out, and JSON refuses empty or malformed
    integers. One JSON pass reads integers about twice as fast as int() per
    field. Raises ValueError.
    """
    chars = "".join(chain(numbers, member_lists))
    if not chars.isascii() or chars.encode().translate(None, b"0123456789,-") or "" in member_lists:
        raise ValueError("not an integer")
    members = f"[{'],['.join(member_lists)}]" if member_lists else ""
    try:
        ints, lists = json.loads(f"[[{','.join(numbers)}],[{members}]]")
    except json.JSONDecodeError:
        raise ValueError("not an integer") from None
    if len(ints) != len(numbers) or len(lists) != len(member_lists):
        raise ValueError("not an integer")  # a number field held a comma
    return ints, list(map(tuple, lists))


def parse_cuboid(text: str, signature: tuple[int, ...], name: str) -> AggregateNetwork:
    """Check and parse the text of one cuboid file; ``name`` labels errors.

    The N, S, E and M sections must come in that order. Each section is
    checked and converted with whole-list operations: every line must have the
    section's kind and field count, and its columns are sliced from one flat
    field list. N records hold one value per dimension, in strictly ascending
    value-tuple order; only fields holding a backslash are unescaped. S, E and
    M records name cells by number: every number must name an N record, an E
    record names the lower cell first, and no record is repeated. Every N
    record needs one M record with as many members as its count. Raises
    CubeFormatError naming the first offending line or cell.
    """
    t = "\n" + text  # every line now starts after a "\n"
    end = len(t) - 1 if t.endswith("\n") else len(t)
    # The "\n" before each section's first line; an empty section starts where
    # the next one does. A line in the wrong section fails that section's check.
    bounds = [0, -1, -1, -1, end]
    pos = 0
    for j, kind in enumerate(_KINDS[1:], 1):
        i = t.find(f"\n{kind}\t", pos, end)
        if i >= 0:
            bounds[j] = pos = i
    for j in (3, 2, 1):
        if bounds[j] < 0:
            bounds[j] = bounds[j + 1]
    try:
        if any(map(text.__contains__, _OTHER_BREAKS)):
            raise ValueError
        columns = []
        for kind, width, lo, hi in zip(_KINDS, _widths(len(signature)), bounds, bounds[1:]):
            # "\nS\t0\t3\nS\t1\t1" -> ["", "\nS", "0", "3", "\nS", "1", "1"]. Only a
            # line's first field starts with "\n", so if every width-th field is
            # "\n" + kind and there are as many as lines, every line has the
            # section's kind and field count.
            section = t[lo:hi]
            rows = section.count("\n")
            fields = section.replace("\n", "\t\n").split("\t")
            if len(fields) != 1 + width * rows or fields[1::width].count("\n" + kind) != rows:
                raise ValueError
            columns.append([fields[i::width] for i in range(2, width + 1)])
        *value_columns, counts = columns[0]
        if t.find("\\", 0, bounds[1]) >= 0:
            value_columns = [list(map(_unescape, column)) for column in value_columns]
        values = list(zip(*value_columns))
        (s_cells, s_weights), (e_low, e_high, e_weights), (m_cells, m_lists) = columns[1:]
        ints, lists = _integers(counts + s_weights + e_weights, m_lists)
        n = len(values)
        counts = ints[:n]
        # Cell numbers as the writer writes them; any other field raises KeyError.
        numbers = list(map(str, range(n)))
        cells = dict(zip(numbers, range(n)))
        cell = cells.__getitem__
        s_lo = list(map(cell, s_cells))
        e_lo, e_hi = list(map(cell, e_low)), list(map(cell, e_high))
        # Value tuples strictly ascend, so cells are distinct and the lower
        # cell of an E record has the lower tuple.
        if not all(map(lt, values, values[1:])) or not all(map(lt, e_lo, e_hi)):
            raise ValueError
        members = dict(zip(m_cells, lists))
        if (len(set(s_cells)), len(set(zip(e_low, e_high))), len(members)) != (len(s_cells), len(e_low), len(m_cells)):
            raise ValueError  # a repeated record
        if not members.keys() <= cells.keys():
            raise ValueError  # an M record that names no N record
        lo, hi = array("i", s_lo + e_lo), array("i", s_lo + e_hi)
        weight = array("q", ints[n:])  # S weights, then E weights
    except (ValueError, KeyError, OverflowError):
        raise _first_bad_line(text, name, len(signature)) from None
    ordered = list(map(members.get, numbers))
    if None in ordered:
        raise CubeFormatError(f"{name}: N and M records name different cells")
    if list(map(len, ordered)) != counts:
        i = next(i for i, m in enumerate(ordered) if len(m) != counts[i])
        raise CubeFormatError(f"{name}: member list of cell {i} {values[i]!r} does not match its count")
    nodes = list(map(AggregateNode, values, ordered))
    return AggregateNetwork._from_columns(signature, nodes, lo, hi, weight)


def _first_bad_line(text: str, name: str, level: int) -> CubeFormatError:
    """Error path of parse_cuboid: scan the lines one at a time for the first
    one it refuses, so the error can name it and its number."""
    width = dict(zip(_KINDS, _widths(level)))
    section = 0
    numbers: dict[str, int] = {}  # cell number as written -> cell, for the N records so far
    last: tuple[str, ...] | None = None
    seen: set[tuple[str, ...]] = set()
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        parts = line.split("\t")
        kind = parts[0]
        try:
            if any(map(line.__contains__, _OTHER_BREAKS)):
                raise ValueError("line break inside a record")
            if kind not in width:
                raise ValueError("unknown record kind")
            if _KINDS.index(kind) < section:
                raise ValueError(f"{kind} record after the {_KINDS[section]} section")
            section = _KINDS.index(kind)
            if len(parts) != width[kind]:
                raise ValueError(f"{len(parts)} fields, not {width[kind]}")
            if kind == "M":
                _integers([], parts[2:])
            elif not -(2**63) <= _integers(parts[-1:], [])[0][0] < 2**63:
                raise ValueError("number out of the 64-bit range")
            if kind == "N":
                values = tuple(map(_unescape, parts[1:-1]))
                if last is not None and not last < values:
                    raise ValueError("repeated record" if last == values else "N records out of order")
                last = values
                i = len(numbers)
                numbers[str(i)] = i
                continue
            cells = parts[1:2] if kind == "M" else parts[1:-1]
            if not all(map(numbers.__contains__, cells)):
                raise ValueError("cell number names no N record")
            if kind == "E" and not numbers[cells[0]] < numbers[cells[1]]:
                raise ValueError("cell numbers out of order")
            key = (kind, *cells)
            if key in seen:
                raise ValueError("repeated record")
            seen.add(key)
        except ValueError as exc:
            return CubeFormatError(f"{name} line {lineno}: {line!r} ({exc})")
    return CubeFormatError(f"{name}: malformed cuboid file")
