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
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
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


@dataclass
class MultidimGraph:
    """Undirected simple graph with one attribute value per dimension per vertex.

    ``dims`` fixes the canonical dimension order used for cuboid signatures.
    ``edges`` holds unordered pairs normalized to (min, max). Instances are
    treated as immutable after construction.
    """

    dims: tuple[str, ...]
    vertices: dict[int, tuple[str, ...]]
    edges: frozenset[tuple[int, int]]
    _adj: dict[int, frozenset[int]] = field(init=False, repr=False)
    _forward: tuple[dict[int, int], list[tuple[int, ...]]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _triangles: dict[int, int] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._validate()
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, w in self.edges:
            adj[u].add(w)
            adj[w].add(u)
        self._adj = {v: frozenset(ns) for v, ns in adj.items()}

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
        for u, w in self.edges:
            if u == w:
                raise ParameterError(f"self-loop on vertex {u}")
            if u > w:
                raise ParameterError(f"edge ({u},{w}) not normalized")
            if u not in self.vertices or w not in self.vertices:
                raise ParameterError(f"edge ({u},{w}) references unknown vertex")

    @property
    def dim_count(self) -> int:
        return len(self.dims)

    def neighbors(self, v: int) -> frozenset[int]:
        """Open neighborhood N(v); never contains v itself."""
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex id {v}") from None

    def forward_adjacency(self) -> tuple[dict[int, int], list[tuple[int, ...]]]:
        """Vertex positions and, per position, the positions of higher-id neighbors.

        Positions number the vertices 0..|V|-1 in ascending id order, so each
        edge appears exactly once, under its lower endpoint. Built on the first
        call and kept; it takes no part in equality.
        """
        if self._forward is None:
            order = sorted(self.vertices)
            pos = {v: i for i, v in enumerate(order)}
            fwd = [tuple(pos[w] for w in self._adj[v] if w > v) for v in order]
            self._forward = (pos, fwd)
        return self._forward

    def triangle_counts(self) -> dict[int, int]:
        """Per vertex, the number of triangles through it: the links among its
        neighbors.

        Every triangle u < w < x is listed once, from its lowest edge, as x in
        F(u) & F(w), where F(v) holds the neighbors above v (forward
        adjacency, Schank and Wagner 2005). Built on the first call and kept;
        it takes no part in equality.
        """
        if self._triangles is None:
            pos, fwd = self.forward_adjacency()
            fsets = list(map(frozenset, fwd))
            counts = [0] * len(fwd)
            thirds = []
            for u, fu in enumerate(fsets):
                for w in fu:
                    common = fu & fsets[w]
                    if common:
                        n = len(common)
                        counts[u] += n
                        counts[w] += n
                        thirds.append(common)
            for x, n in Counter(chain.from_iterable(thirds)).items():
                counts[x] += n
            self._triangles = dict(zip(pos, counts))
        return self._triangles

    def has_edge(self, u: int, w: int) -> bool:
        if u == w:
            return False
        return ((u, w) if u < w else (w, u)) in self.edges

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
        _, fwd = self.forward_adjacency()
        vertices = self.vertices
        doc = [self.dims, [(vid, *vertices[vid]) for vid in sorted(vertices)], list(map(sorted, fwd))]
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


def _read_lines(path: Path, kind: str) -> list[str]:
    """The lines of a UTF-8 input file; LoadError if it cannot be read or decoded."""
    try:
        return path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise LoadError(f"cannot read {kind} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise LoadError(f"{kind} file {path}: byte {exc.start} is not UTF-8") from None


def load_graph_with_report(vertex_file: str | Path, edge_file: str | Path) -> tuple[MultidimGraph, LoadReport]:
    """Load a graph from the vertex/edge CSV pair, reporting dropped input."""
    vertex_file = Path(vertex_file)
    edge_file = Path(edge_file)
    vlines = _read_lines(vertex_file, "vertex")
    if not vlines:
        raise LoadError(f"vertex file {vertex_file} is empty")
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

    report = LoadReport()
    edges: set[tuple[int, int]] = set()
    elines = _read_lines(edge_file, "edge")
    for lineno, line in enumerate(elines, start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise LoadError(f"edge file {edge_file}: line {lineno}: expected 'src,dst', got {line!r}")
        try:
            u, w = int(parts[0]), int(parts[1])
        except ValueError:
            raise LoadError(f"edge file {edge_file}: line {lineno}: non-integer endpoint in {line!r}") from None
        if u not in vertices or w not in vertices:
            raise LoadError(f"edge file {edge_file}: line {lineno}: edge {u},{w} references unknown vertex")
        if u == w:
            report.self_loops_dropped += 1
            continue
        e = (u, w) if u < w else (w, u)
        if e in edges:
            report.duplicate_edges_dropped += 1
        else:
            edges.add(e)

    return MultidimGraph(dims=dims, vertices=vertices, edges=frozenset(edges)), report


def load_graph(vertex_file: str | Path, edge_file: str | Path) -> MultidimGraph:
    g, _ = load_graph_with_report(vertex_file, edge_file)
    return g


def write_graph(g: MultidimGraph, vertex_file: str | Path, edge_file: str | Path) -> None:
    """Emit the two CSV formats bit-deterministically (sorted ids / edge pairs)."""
    vlines = ["id," + ",".join(g.dims)]
    for vid in sorted(g.vertices):
        vlines.append(f"{vid}," + ",".join(g.vertices[vid]))
    Path(vertex_file).write_text("\n".join(vlines) + "\n", encoding="utf-8")
    elines = [f"{u},{w}" for u, w in sorted(g.edges)]
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

    return MultidimGraph(dims=dims, vertices=vertices, edges=frozenset(edges))
