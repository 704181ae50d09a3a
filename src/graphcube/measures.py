"""Per-vertex structural scores and the per-value significance table.

Each vertex gets a score ``diversity * clustering + density``; the score of a
dimensional value is the sum over the vertices carrying it. Values scoring
below their dimension's mean are pruned under the default policy; a plain
support-count policy is provided as the iceberg baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .core import InvertedIndex, MultidimGraph, _refuse_unwritable
from .errors import ParameterError

__all__ = [
    "VertexScore",
    "SignificanceRow",
    "SignificanceTable",
    "POLICY_KINDS",
    "PrunePolicy",
    "clustering_coefficient",
    "local_density",
    "attribute_diversity",
    "vertex_score",
    "significance_table",
    "apply_policy",
    "write_significance_csv",
]


@dataclass(frozen=True)
class VertexScore:
    alpha: float
    cc: float
    density: float
    score: float


@dataclass(frozen=True)
class SignificanceRow:
    ss: float
    support: int
    keep: bool


@dataclass
class SignificanceTable:
    rows: dict[tuple[int, str], SignificanceRow]
    thresholds: dict[int, float]
    policy: str = "ss-mean"

    def keep(self, dim: int, value: str) -> bool:
        return self.rows[(dim, value)].keep


POLICY_KINDS = ("none", "ss-mean", "support")


@dataclass(frozen=True)
class PrunePolicy:
    kind: str = "ss-mean"  # one of POLICY_KINDS
    min_support: int = 1

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ParameterError(f"unknown policy kind {self.kind!r}")
        if self.min_support < 1:
            raise ParameterError("min_support must be >= 1")


def _cc_and_density(g: MultidimGraph, v: int, d: int) -> tuple[float, float]:
    """Clustering coefficient and closed-neighborhood density of v, of degree
    d, from one count.

    The links inside the closed neighborhood are the links among the
    neighbors plus v's own d edges, so one count of the former gives both.
    That count is the number of triangles through v, which the graph lists
    for all its vertices at once on the first call.
    """
    if d == 0:
        return 0.0, 0.0
    links = g.triangle_counts()[v]
    cc = links / (d * (d - 1) / 2) if d >= 2 else 0.0
    return cc, (links + d) / ((d + 1) * d / 2)


def clustering_coefficient(g: MultidimGraph, v: int) -> float:
    """Fraction of neighbor pairs of v that are adjacent; 0 when deg(v) < 2."""
    return _cc_and_density(g, v, g.degree(v))[0]


def local_density(g: MultidimGraph, v: int) -> float:
    """Edge density of the induced subgraph on the closed neighborhood of v."""
    return _cc_and_density(g, v, g.degree(v))[1]


def _diversity(g: MultidimGraph, rows: list[tuple[str, ...]]) -> float:
    """Mean over dimensions of distinct values / len(rows), for the attribute
    tuples of a vertex's neighbors."""
    if not rows:
        return 0.0
    total = 0.0
    for column in zip(*rows):
        total += len(set(column)) / len(rows)
    return total / g.dim_count


def attribute_diversity(g: MultidimGraph, v: int) -> float:
    """Mean over dimensions of (distinct neighbor values / neighbor count)."""
    return _diversity(g, g._neighbor_attributes(v))


def vertex_score(g: MultidimGraph, v: int) -> VertexScore:
    rows = g._neighbor_attributes(v)
    alpha = _diversity(g, rows)
    cc, density = _cc_and_density(g, v, len(rows))
    return VertexScore(alpha=alpha, cc=cc, density=density, score=alpha * cc + density)


def significance_table(g: MultidimGraph, idx: InvertedIndex) -> SignificanceTable:
    """Sum per-vertex scores into each value's row and set per-dimension mean
    thresholds; keep flags follow the ss-mean policy."""
    scores = {v: vertex_score(g, v).score for v in g.vertices}
    raw: dict[tuple[int, str], tuple[float, int]] = {}
    for (d, value), members in idx.entries.items():
        raw[(d, value)] = (sum(scores[v] for v in members), len(members))

    per_dim: dict[int, list[float]] = {}
    for (d, _), (ss, _) in raw.items():
        per_dim.setdefault(d, []).append(ss)
    thresholds = {d: sum(vals) / len(vals) for d, vals in per_dim.items()}

    rows = {
        key: SignificanceRow(ss=ss, support=sup, keep=ss >= thresholds[key[0]])
        for key, (ss, sup) in raw.items()
    }
    return SignificanceTable(rows=rows, thresholds=thresholds, policy="ss-mean")


def apply_policy(t: SignificanceTable, p: PrunePolicy) -> SignificanceTable:
    """Recompute keep flags under the given policy; scores stay untouched."""
    def keep(key: tuple[int, str], row: SignificanceRow) -> bool:
        if p.kind == "none":
            return True
        if p.kind == "ss-mean":
            return row.ss >= t.thresholds[key[0]]
        return row.support >= p.min_support

    rows = {key: replace(row, keep=keep(key, row)) for key, row in t.rows.items()}
    return SignificanceTable(rows=rows, thresholds=dict(t.thresholds), policy=p.kind)


def write_significance_csv(t: SignificanceTable, dims: tuple[str, ...], path: str | Path) -> None:
    """One row per dimensional value. Raises ParameterError, before the file is
    opened, for a dimension name or value that one CSV field cannot hold."""
    rows = sorted(t.rows.items())
    _refuse_unwritable(dims, "dimension name")
    _refuse_unwritable((value for (_, value), _ in rows), "value")
    lines = ["dimension,value,ss,support,keep"]
    for (d, value), row in rows:
        lines.append(f"{dims[d]},{value},{row.ss:.12g},{row.support},{str(row.keep).lower()}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
