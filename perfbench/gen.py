"""Write one workload's input graph as vertex/edge CSVs, deterministically from a seed.

    python3 perfbench/gen.py OUT_DIR VERTICES EDGES DIMS CARDINALITY HUB_FRACTION HOT_WEIGHT SEED

The generator is the benchmark's own, so the inputs do not change when the
program's synthetic generator does. Vertex ids run from 1 to VERTICES.

The first ``round(HUB_FRACTION * VERTICES)`` vertices form a clique, a
community that carries the value ``hub`` in dimension 0 and ``v0`` in every
other dimension. In each dimension the first half of the values ``v0, v1, ...``
is *hot*: HOT_WEIGHT times as frequent as each value of the cold half (1 gives
uniform values). The other vertices are dealt rather than drawn: every
combination of hot and cold dimensions gets its expected share of them, and
every value its share of the hot or cold vertices of its dimension. The seed
only decides which vertex gets what. Cuboid sizes and the set of values a
frequency-driven policy keeps therefore barely depend on the seed. The
remaining edges are distinct random pairs.

run.py starts this as its own process, so generating counts towards neither
the measured time nor the measured memory.
"""

import random
import sys
from itertools import product
from pathlib import Path

HUB_VALUE = "hub"


def deal(rng: random.Random, n: int, items: list, weights: list[float]) -> list:
    """``n`` items, each in proportion to its weight (largest remainder), shuffled."""
    exact = [n * w / sum(weights) for w in weights]
    counts = [int(x) for x in exact]
    for k in sorted(range(len(items)), key=lambda k: counts[k] - exact[k])[: n - sum(counts)]:
        counts[k] += 1
    out = [item for item, c in zip(items, counts) for _ in range(c)]
    rng.shuffle(out)
    return out


def generate(vertices: int, edges: int, dims: int, cardinality: int, hub_fraction: float,
             hot_weight: float, seed: int) -> tuple[dict[int, list[str]], list[tuple[int, int]]]:
    rng = random.Random(seed)
    hub = round(hub_fraction * vertices)
    if hub * (hub - 1) // 2 > edges or edges > vertices * (vertices - 1) // 2:
        raise ValueError("edge count does not fit the vertex count and hub clique")
    hot_values = [f"v{k}" for k in range(cardinality) if 2 * k < cardinality]
    cold_values = [f"v{k}" for k in range(len(hot_values), cardinality)]
    p_hot = hot_weight * len(hot_values) / (hot_weight * len(hot_values) + len(cold_values))
    patterns = list(product((True, False), repeat=dims))
    masks = deal(rng, vertices - hub, patterns,
                 [p_hot ** sum(m) * (1 - p_hot) ** (dims - sum(m)) for m in patterns])
    rows = [[""] * dims for _ in masks]
    for d in range(dims):
        hot = iter(deal(rng, sum(m[d] for m in masks), hot_values, [1.0] * len(hot_values)))
        cold = iter(deal(rng, sum(not m[d] for m in masks), cold_values, [1.0] * len(cold_values)))
        for row, m in zip(rows, masks):
            row[d] = next(hot) if m[d] else next(cold)
    attrs = {vid: [HUB_VALUE] + ["v0"] * (dims - 1) for vid in range(1, hub + 1)}
    attrs.update(zip(range(hub + 1, vertices + 1), rows))
    pairs = {(u, w) for u in range(1, hub + 1) for w in range(u + 1, hub + 1)}
    while len(pairs) < edges:
        u, w = rng.randint(1, vertices), rng.randint(1, vertices)
        if u != w:
            pairs.add((min(u, w), max(u, w)))
    return attrs, sorted(pairs)


def write(out: Path, dims: int, attrs: dict[int, list[str]], pairs: list[tuple[int, int]]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    header = "id," + ",".join(f"dim{j}" for j in range(dims))
    rows = [f"{vid},{','.join(row)}" for vid, row in attrs.items()]
    (out / "vertices.csv").write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    (out / "edges.csv").write_text("".join(f"{u},{w}\n" for u, w in pairs), encoding="utf-8")


def main(argv: list[str]) -> int:
    out, vertices, edges, dims, card, hub, hot, seed = argv
    attrs, pairs = generate(int(vertices), int(edges), int(dims), int(card), float(hub), float(hot), int(seed))
    write(Path(out), int(dims), attrs, pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
