"""Score, prune and cube multidimensional graphs: gen, ss, cube, query.

Exit codes: 0 success, 1 usage or parameter error, 2 input error (a file
that cannot be read, is not UTF-8 or is malformed), 3 query miss.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import GenParams, generate_synthetic, load_graph_with_report, write_graph, build_inverted_index
from .engine import (
    Strategy,
    _open_cube,
    _resolve_cuboid,
    compute_cube,
    write_cube,
)
from .errors import CubeFormatError, LoadError, NotMaterializedError, ParameterError, QueryError
from .measures import POLICY_KINDS, PrunePolicy, apply_policy, significance_table, write_significance_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_QUERY = 3

STRATEGIES = {"level": Strategy.LEVEL_BY_LEVEL, "steps": Strategy.STEPS_UP}


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--policy", choices=POLICY_KINDS, default="ss-mean")
    p.add_argument("--min-support", type=int, default=None,
                   help="smallest support a value keeps under --policy support (default 1)")


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("vertex_csv", help="vertex CSV with header id,<dim1>,...,<dimn>")
    p.add_argument("edge_csv", help="edge CSV with src,dst lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphcube", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic multidimensional graph")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--dims", type=int, default=2)
    p.add_argument("--card", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hub", type=float, default=0.0, help="planted hub community fraction")
    p.add_argument("--out", required=True, help="output directory for vertices.csv/edges.csv")

    p = sub.add_parser("ss", help="compute the significance table for a graph")
    _add_graph_args(p)
    p.add_argument("--out", required=True, help="output CSV path")
    _add_policy_flags(p)

    p = sub.add_parser("cube", help="materialize the graph cube")
    _add_graph_args(p)
    p.add_argument("out_dir", help="cube output directory")
    p.add_argument("--strategy", choices=sorted(STRATEGIES), default="level")
    _add_policy_flags(p)
    p.add_argument("--max-level", type=int, default=0, help="0 means all dimensions")

    p = sub.add_parser("query", help="print one cuboid from a materialized cube")
    p.add_argument("cube_dir")
    p.add_argument("--dims", required=True, help="comma-separated dimension names")

    return parser


def _policy(args: argparse.Namespace) -> PrunePolicy:
    if args.min_support is None:
        return PrunePolicy(kind=args.policy)
    if args.policy != "support":
        raise ParameterError(f"--min-support applies only to --policy support, not {args.policy}")
    return PrunePolicy(kind=args.policy, min_support=args.min_support)


def _load_pipeline(args: argparse.Namespace):
    policy = _policy(args)  # refuse bad flags before reading any file
    g, report = load_graph_with_report(args.vertex_csv, args.edge_csv)
    if report.self_loops_dropped or report.duplicate_edges_dropped:
        print(
            f"warning: dropped {report.self_loops_dropped} self-loops, "
            f"{report.duplicate_edges_dropped} duplicate edges",
            file=sys.stderr,
        )
    idx = build_inverted_index(g)
    table = apply_policy(significance_table(g, idx), policy)
    return g, idx, table


def cmd_gen(args: argparse.Namespace) -> int:
    params = GenParams(
        vertex_count=args.vertices,
        edge_count=args.edges,
        dim_count=args.dims,
        cardinality=args.card,
        seed=args.seed,
        hub_fraction=args.hub,
    )
    g = generate_synthetic(params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_graph(g, out / "vertices.csv", out / "edges.csv")
    hub = params.hub_size()
    print(
        f"generated {len(g.vertices)} vertices, {len(g.edges)} edges, "
        f"{g.dim_count} dims, hub {hub} ({100.0 * hub / len(g.vertices):g}% of vertices) -> {out}"
    )
    return EXIT_OK


def cmd_ss(args: argparse.Namespace) -> int:
    g, _, table = _load_pipeline(args)
    write_significance_csv(table, g.dims, args.out)
    kept = sum(1 for row in table.rows.values() if row.keep)
    print(f"wrote {len(table.rows)} rows ({kept} kept) -> {args.out}")
    return EXIT_OK


def cmd_cube(args: argparse.Namespace) -> int:
    g, idx, table = _load_pipeline(args)
    cube = compute_cube(g, idx, table, strategy=STRATEGIES[args.strategy], max_level=args.max_level or None)
    write_cube(cube, args.out_dir)
    by_level: dict[int, int] = {}
    for sig, net in cube.cuboids.items():
        by_level[len(sig)] = by_level.get(len(sig), 0) + len(net.nodes)
    timing = dict(cube.meta.timings)
    for level in sorted(by_level):
        millis = timing.get(level, 0.0)
        print(f"level {level}: {by_level[level]} nodes ({millis:.1f} ms)")
    print(
        f"cube with {len(cube.cuboids)} cuboids, {cube.meta.nodes_emitted} nodes, "
        f"{cube.meta.combines_attempted} combines -> {args.out_dir}"
    )
    return EXIT_OK


def cmd_query(args: argparse.Namespace) -> int:
    names = [n for n in args.dims.split(",") if n]
    sig = _resolve_cuboid(args.cube_dir, names)
    data, _ = _open_cube.read(args.cube_dir, sig)  # print only what read_cuboid accepts
    sys.stdout.buffer.write(data)
    return EXIT_OK


COMMANDS = {
    "gen": cmd_gen,
    "ss": cmd_ss,
    "cube": cmd_cube,
    "query": cmd_query,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return COMMANDS[args.command](args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LoadError, CubeFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (QueryError, NotMaterializedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUERY


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
