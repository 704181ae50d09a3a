"""Graph data model, CSV ingestion, synthetic generation, and the inverted index.

A multidimensional graph is an undirected simple graph whose vertices carry one
string value per dimension. All downstream computation (significance scoring,
cube materialization) reads the graph through this module; graphs and indices
are immutable after construction.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Iterator, Set
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

from .errors import LoadError, ParameterError, UnknownVertexError

__all__ = [
    "MultidimGraph",
    "InvertedIndex",
    "GenParams",
    "LoadReport",
    "load_graph",
    "load_graph_with_report",
    "write_graph",
    "build_inverted_index",
    "generate_synthetic",
]


class EdgeView(Set):
    """The edges of a graph as a read-only set of (lower id, higher id) pairs.

    A view over the graph's forward adjacency; it holds no pairs of its own.
    Iteration yields each edge once, in ascending order, and membership is a
    binary search in the lower endpoint's forward row, so a reversed pair
    or a key that is not a pair is not a member. Compares equal to any set of
    the same pairs, frozensets included, and set operations such as
    ``g.edges - {e}`` return frozensets.
    """

    __slots__ = ("_pos", "_ids", "_fwd", "_len")

    def __init__(self, pos: dict[int, int], ids: list[int], fwd: list[tuple[int, ...]], count: int) -> None:
        self._pos, self._ids, self._fwd, self._len = pos, ids, fwd, count

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[tuple[int, int]]:
        ids, fwd = self._ids, self._fwd
        return zip(
            chain.from_iterable(map(repeat, ids, map(len, fwd))),
            map(ids.__getitem__, chain.from_iterable(fwd)),
        )

    def __contains__(self, edge: object) -> bool:
        if not isinstance(edge, tuple) or len(edge) != 2:
            return False
        p, q = map(self._pos.get, edge)
        if p is None or q is None or p >= q:
            return False
        targets = self._fwd[p]
        i = bisect_left(targets, q)
        return i < len(targets) and targets[i] == q

    def __repr__(self) -> str:
        return f"EdgeView({list(self)!r})"


def _positions(vertices: dict[int, tuple[str, ...]]) -> dict[int, int]:
    """Vertex id -> position, numbering the vertices in ascending id order."""
    return {v: i for i, v in enumerate(sorted(vertices))}


def _rows(codes: list[int], ints: list[int]) -> list[tuple[int, ...]]:
    """Split ascending codes ``row * n + column`` into n tuples of columns,
    n = len(ints). Column c is the object ints[c], so every row holding c
    shares one int."""
    n = len(ints)
    columns = list(map(ints.__getitem__, [c % n for c in codes]))
    bounds = [bisect_left(codes, row * n) for row in range(n + 1)]
    return list(map(tuple, map(columns.__getitem__, map(slice, bounds, bounds[1:]))))


class MultidimGraph:
    """Undirected simple graph with one attribute value per dimension per vertex.

    ``dims`` fixes the canonical dimension order used for cuboid signatures.
    The constructor takes the edges as pairs normalized to (min, max). The
    graph stores them once, as rows over vertex positions (0..|V|-1 in
    ascending id order): per position, a tuple of the ascending positions of
    its higher-id neighbors (the forward adjacency) and one of its lower-id
    ones. All rows share one int object per position, so a row costs a
    pointer per neighbor, and iterating it boxes nothing (an ``array`` row
    would box every element it yields, on the edge-counting hot path).
    ``edges`` is a read-only set view over the forward rows. Instances are
    treated as immutable after construction; two graphs are equal when their
    dims, vertices and edges are.
    """

    def __init__(
        self, dims: tuple[str, ...], vertices: dict[int, tuple[str, ...]], edges: Iterable[tuple[int, int]]
    ) -> None:
        self.dims = dims
        self.vertices = vertices
        self._validate()
        pos = _positions(vertices)
        n = len(pos)
        codes = set()
        for u, w in edges:
            if u == w:
                raise ParameterError(f"self-loop on vertex {u}")
            if u > w:
                raise ParameterError(f"edge ({u},{w}) not normalized")
            if u not in pos or w not in pos:
                raise ParameterError(f"edge ({u},{w}) references unknown vertex")
            codes.add(pos[u] * n + pos[w])
        self._link(pos, sorted(codes))

    @classmethod
    def _from_codes(
        cls, dims: tuple[str, ...], vertices: dict[int, tuple[str, ...]], pos: dict[int, int], codes: list[int]
    ) -> MultidimGraph:
        """A graph from checked vertices, their ``_positions`` and the ascending,
        distinct codes ``p * |V| + q`` of its edges, positions p < q."""
        g = cls.__new__(cls)
        g.dims, g.vertices = dims, vertices
        g._link(pos, codes)
        return g

    def _validate(self) -> None:
        if len(set(self.dims)) != len(self.dims):
            raise ParameterError("dimension names must be unique")
        n = len(self.dims)
        for vid, attrs in self.vertices.items():
            if len(attrs) != n:
                raise ParameterError(
                    f"vertex {vid}: expected {n} attributes, got {len(attrs)}"
                )
            if any(not a for a in attrs):
                raise ParameterError(f"vertex {vid}: empty attribute value")

    def _link(self, pos: dict[int, int], codes: list[int]) -> None:
        n = len(pos)
        positions = list(pos.values())
        self._pos = pos
        self._ids = list(pos)
        self._fwd = _rows(codes, positions)
        self._bwd = _rows(sorted([c % n * n + c // n for c in codes]), positions)
        self._edges = EdgeView(pos, self._ids, self._fwd, len(codes))
        self._triangles: dict[int, int] | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultidimGraph):
            return NotImplemented
        return self.dims == other.dims and self.vertices == other.vertices and self._fwd == other._fwd

    def __repr__(self) -> str:
        return f"MultidimGraph(dims={self.dims!r}, vertices={self.vertices!r}, edges={self.edges!r})"

    @property
    def edges(self) -> EdgeView:
        return self._edges

    @property
    def dim_count(self) -> int:
        return len(self.dims)

    def _position(self, v: int) -> int:
        try:
            return self._pos[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex id {v}") from None

    def neighbors(self, v: int) -> frozenset[int]:
        """Open neighborhood N(v); never contains v itself."""
        p = self._position(v)
        return frozenset(map(self._ids.__getitem__, chain(self._bwd[p], self._fwd[p])))

    def degree(self, v: int) -> int:
        p = self._position(v)
        return len(self._bwd[p]) + len(self._fwd[p])

    def _neighbor_attributes(self, v: int) -> list[tuple[str, ...]]:
        """The attribute tuple of each neighbor of v, one per neighbor; cheaper
        than ``neighbors(v)``, which builds a frozenset."""
        p = self._position(v)
        ids = chain(self._bwd[p], self._fwd[p])
        return list(map(self.vertices.__getitem__, map(self._ids.__getitem__, ids)))

    def forward_adjacency(self) -> tuple[dict[int, int], list[tuple[int, ...]]]:
        """Vertex positions and, per position, the ascending positions of its
        higher-id neighbors.

        Positions number the vertices 0..|V|-1 in ascending id order, so each
        edge appears exactly once, under its lower endpoint. This is the
        graph's own storage: callers must not modify it.
        """
        return self._pos, self._fwd

    def triangle_counts(self) -> dict[int, int]:
        """Per vertex, the number of triangles through it: the links among its
        neighbors.

        Every triangle u < w < x is listed once, from its lowest edge, as x in
        F(u) & F(w), where F(v) holds the neighbors above v (forward
        adjacency, Schank and Wagner 2005). The third corners x of each u are
        counted before the next u. Built on the first call and kept; it takes
        no part in equality.
        """
        if self._triangles is None:
            fwd = self._fwd
            fsets = list(map(frozenset, fwd))
            counts = [0] * len(fwd)
            thirds: Counter[int] = Counter()
            for u, fu in enumerate(fsets):
                commons = []
                for w in fwd[u]:
                    common = fu & fsets[w]
                    if common:
                        n = len(common)
                        counts[u] += n
                        counts[w] += n
                        commons.append(common)
                thirds.update(chain.from_iterable(commons))
            for x, n in thirds.items():
                counts[x] += n
            self._triangles = dict(zip(self._ids, counts))
        return self._triangles

    def attributes(self, v: int) -> tuple[str, ...]:
        try:
            return self.vertices[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex id {v}") from None

    def fingerprint(self) -> str:
        """SHA-256 of the JSON document [dims, vertices, forward]: ``vertices``
        lists [id, *values] by ascending id, and ``forward`` lists, per vertex
        in that order, the ascending positions of its higher-id neighbors.

        JSON quotes and escapes every string, so no name or value can pass for
        a separator, and distinct graphs serialize differently. The document is
        ASCII: other characters, lone surrogates included, are escaped.
        """
        vertices = self.vertices
        doc = [self.dims, [(vid, *vertices[vid]) for vid in self._ids], self._fwd]
        return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode("ascii")).hexdigest()


@dataclass
class InvertedIndex:
    """Per (dimension index, value): strictly ascending list of vertex ids."""

    entries: dict[tuple[int, str], list[int]]


@dataclass
class LoadReport:
    self_loops_dropped: int = 0
    duplicate_edges_dropped: int = 0


@dataclass
class GenParams:
    """Settings for the synthetic generator, including the planted hub community."""

    vertex_count: int
    edge_count: int
    dim_count: int
    cardinality: int
    seed: int = 0
    hub_fraction: float = 0.0

    def validate(self) -> None:
        if self.vertex_count < 1 or self.edge_count < 0:
            raise ParameterError("vertex_count must be >= 1 and edge_count >= 0")
        if self.dim_count < 1 or self.cardinality < 1:
            raise ParameterError("dim_count and cardinality must be >= 1")
        if not 0.0 <= self.hub_fraction <= 1.0:
            raise ParameterError("hub_fraction must be in [0, 1]")
        max_edges = self.vertex_count * (self.vertex_count - 1) // 2
        if self.edge_count > max_edges:
            raise ParameterError(
                f"edge_count {self.edge_count} exceeds C({self.vertex_count},2) = {max_edges}"
            )
        hub = self.hub_size()
        if hub * (hub - 1) // 2 > self.edge_count:
            raise ParameterError("edge_count too small for the planted hub clique")

    def hub_size(self) -> int:
        return int(round(self.hub_fraction * self.vertex_count))


def _read_text(path: Path, kind: str) -> str:
    """The text of a UTF-8 input file; LoadError if it cannot be read or decoded."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LoadError(f"cannot read {kind} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise LoadError(f"{kind} file {path}: byte {exc.start} is not UTF-8") from None


def _edge_codes(text: str, pos: dict[int, int], edge_file: Path) -> tuple[list[int], int, int]:
    """Parse an edge file: the ascending distinct edge codes ``p * |V| + q``
    (positions p < q), the number of self-loops dropped and the number of
    duplicates dropped. Blank lines are skipped and endpoints are read by
    int(); raises LoadError naming the first line it refuses. No tuple is
    kept per edge."""
    n = len(pos)
    codes: set[int] = set()
    loops = duplicates = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split(",")
        if len(parts) != 2:
            if not line.strip():
                continue
            raise LoadError(f"edge file {edge_file}: line {lineno}: expected 'src,dst', got {line!r}")
        try:
            u, w = int(parts[0]), int(parts[1])
        except ValueError:
            raise LoadError(f"edge file {edge_file}: line {lineno}: non-integer endpoint in {line!r}") from None
        try:
            p, q = pos[u], pos[w]
        except KeyError:
            raise LoadError(f"edge file {edge_file}: line {lineno}: edge {u},{w} references unknown vertex") from None
        if p == q:
            loops += 1
            continue
        code = p * n + q if p < q else q * n + p
        if code in codes:
            duplicates += 1
        else:
            codes.add(code)
    return sorted(codes), loops, duplicates


def load_graph_with_report(vertex_file: str | Path, edge_file: str | Path) -> tuple[MultidimGraph, LoadReport]:
    """Load a graph from the vertex/edge CSV pair, reporting dropped input."""
    vertex_file = Path(vertex_file)
    edge_file = Path(edge_file)
    vlines = _read_text(vertex_file, "vertex").splitlines()
    if not vlines:
        raise LoadError(f"vertex file {vertex_file}: empty, no header line")
    header = vlines[0].split(",")
    if len(header) < 2 or header[0] != "id":
        raise LoadError(f"vertex file {vertex_file}: header must be 'id,<dim1>,...': got {vlines[0]!r}")
    dims = tuple(header[1:])
    if len(set(dims)) != len(dims):
        raise LoadError(f"vertex file {vertex_file}: header repeats a dimension name: {vlines[0]!r}")
    n = len(dims)

    vertices: dict[int, tuple[str, ...]] = {}
    for line in vlines[1:]:
        if not line.strip():
            continue
        parts = line.split(",")
        label = parts[0]
        try:
            vid = int(label)
        except ValueError:
            raise LoadError(f"vertex file {vertex_file}: row {label}: vertex id is not an integer") from None
        if vid < 0:
            raise LoadError(f"vertex file {vertex_file}: row {label}: vertex id must be non-negative")
        if len(parts) - 1 != n:
            raise LoadError(f"vertex file {vertex_file}: row {label}: expected {n} attributes, got {len(parts) - 1}")
        if vid in vertices:
            raise LoadError(f"vertex file {vertex_file}: row {label}: duplicate vertex id")
        if any(not p for p in parts[1:]):
            raise LoadError(f"vertex file {vertex_file}: row {label}: empty attribute value")
        vertices[vid] = tuple(parts[1:])

    pos = _positions(vertices)
    text = _read_text(edge_file, "edge")
    codes, loops, duplicates = _edge_codes(text, pos, edge_file)
    report = LoadReport(self_loops_dropped=loops, duplicate_edges_dropped=duplicates)
    return MultidimGraph._from_codes(dims, vertices, pos, codes), report


def load_graph(vertex_file: str | Path, edge_file: str | Path) -> MultidimGraph:
    g, _ = load_graph_with_report(vertex_file, edge_file)
    return g


# The line breaks of str.splitlines(), in code point order.
LINE_BREAKS = "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"
# What one field of a CSV file cannot hold: a comma, a line break, or a lone
# surrogate, which UTF-8 cannot encode.
_NOT_IN_FIELD = re.compile(f"[,{LINE_BREAKS}\ud800-\udfff]")


def _refuse_unwritable(texts: Iterable[str], what: str) -> None:
    """ParameterError naming ``what`` and the first of ``texts`` that one CSV
    field cannot hold."""
    bad = next(filter(_NOT_IN_FIELD.search, texts), None)
    if bad is not None:
        raise ParameterError(f"{what} {bad!r} holds a comma, a line break or a lone surrogate")


def write_graph(g: MultidimGraph, vertex_file: str | Path, edge_file: str | Path) -> None:
    """Emit the two CSV formats bit-deterministically (sorted ids / edge pairs).

    Raises ParameterError, before any file is opened, for a graph that
    load_graph would not read back: one without dimensions, with a negative
    vertex id, or with a dimension name or value that a field cannot hold.
    """
    if not g.dims:
        raise ParameterError("a graph without dimensions has no vertex file header")
    _refuse_unwritable(g.dims, "dimension name")
    vlines = ["id," + ",".join(g.dims)]
    for vid in sorted(g.vertices):
        if vid < 0:
            raise ParameterError(f"vertex {vid}: negative id")
        values = g.vertices[vid]
        _refuse_unwritable(values, f"vertex {vid}: value")
        vlines.append(f"{vid}," + ",".join(values))
    Path(vertex_file).write_text("\n".join(vlines) + "\n", encoding="utf-8")
    elines = [f"{u},{w}" for u, w in g.edges]  # in ascending order
    Path(edge_file).write_text("\n".join(elines) + ("\n" if elines else ""), encoding="utf-8")


def build_inverted_index(g: MultidimGraph) -> InvertedIndex:
    entries: dict[tuple[int, str], list[int]] = {}
    for vid in sorted(g.vertices):
        attrs = g.vertices[vid]
        for d, value in enumerate(attrs):
            entries.setdefault((d, value), []).append(vid)
    return InvertedIndex(entries=entries)


HUB_VALUE = "hub"


def generate_synthetic(p: GenParams) -> MultidimGraph:
    """Deterministic random graph with an optional planted near-clique community.

    Hub vertices (ids 1..hub_size) form a full clique and all carry the
    reserved value ``hub`` in dimension 0; every other attribute is drawn
    uniformly from the dimension's value pool. The final edge count is exact.
    """
    p.validate()
    rng = random.Random(p.seed)
    dims = tuple(f"dim{j}" for j in range(p.dim_count))
    values = [f"v{k}" for k in range(p.cardinality)]
    hub = p.hub_size()

    vertices: dict[int, tuple[str, ...]] = {}
    for vid in range(1, p.vertex_count + 1):
        attrs = [rng.choice(values) for _ in range(p.dim_count)]
        if vid <= hub:
            attrs[0] = HUB_VALUE
        vertices[vid] = tuple(attrs)

    edges: set[tuple[int, int]] = set()
    for u in range(1, hub + 1):
        for w in range(u + 1, hub + 1):
            edges.add((u, w))
    while len(edges) < p.edge_count:
        u = rng.randint(1, p.vertex_count)
        w = rng.randint(1, p.vertex_count)
        if u == w:
            continue
        edges.add((u, w) if u < w else (w, u))

    return MultidimGraph(dims=dims, vertices=vertices, edges=edges)
