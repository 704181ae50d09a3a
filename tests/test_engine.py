import functools
import re
import time
import tracemalloc
from dataclasses import replace
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcube import (
    AggregateNetwork,
    AggregateNode,
    GenParams,
    MultidimGraph,
    NotMaterializedError,
    ParameterError,
    PrunePolicy,
    QueryError,
    SignificanceTable,
    Strategy,
    aggregate_edges,
    apply_policy,
    build_inverted_index,
    compare,
    compute_cube,
    engine,
    generate_synthetic,
    level1_nodes,
    lws_valid,
    oracle_cube,
    oracle_cuboid,
    query_cuboid,
    read_cuboid,
    significance_table,
    write_cube,
)
from graphcube.engine import CubeFormatError, read_cube_meta


def build_cube(g, policy="none", strategy=Strategy.LEVEL_BY_LEVEL, max_level=None, **kw):
    idx = build_inverted_index(g)
    table = apply_policy(significance_table(g, idx), PrunePolicy(kind=policy, min_support=kw.pop("min_support", 1)))
    return compute_cube(g, idx, table, strategy=strategy, max_level=max_level, **kw)


class TestLws:
    def test_ascending_valid(self):
        assert lws_valid([0, 1, 2])

    def test_out_of_order_invalid(self):
        assert not lws_valid([0, 2, 1])

    def test_singleton_valid(self):
        assert lws_valid([0])

    def test_empty_invalid(self):
        assert not lws_valid([])

    def test_duplicate_invalid(self):
        assert not lws_valid([1, 1, 2])


class TestLevel1Nodes:
    def test_policy_none_copies_index(self, g0, g0_idx, g0_table):
        table = apply_policy(g0_table, PrunePolicy(kind="none"))
        store = level1_nodes(g0_idx, table)
        cells = {(sig[0], n.values[0]): n.members for sig, nodes in store.items() for n in nodes}
        assert cells == {
            (0, "M"): (1, 3, 5),
            (0, "F"): (2, 4, 6),
            (1, "NY"): (1, 2, 3),
            (1, "LA"): (4, 5, 6),
        }

    def test_ss_mean_prunes_f_and_la(self, g0_idx, g0_table):
        store = level1_nodes(g0_idx, g0_table)
        assert {(sig[0], n.values[0]) for sig, nodes in store.items() for n in nodes} == {(0, "M"), (1, "NY")}

    def test_every_dimension_contributes_under_mean(self, g0, g0_idx, g0_table):
        store = level1_nodes(g0_idx, g0_table)
        assert sorted(store) == [(d,) for d in range(g0.dim_count)]


class TestComputeCubeG0:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_two_dim_cuboid(self, g0, strategy):
        cube = build_cube(g0, strategy=strategy)
        net = cube.cuboids[(0, 1)]
        cells = {n.values: n.members for n in net.nodes}
        assert cells == {
            ("M", "NY"): (1, 3),
            ("F", "NY"): (2,),
            ("M", "LA"): (5,),
            ("F", "LA"): (4, 6),
        }

    def test_max_level_one(self, g0):
        cube = build_cube(g0, max_level=1)
        assert set(cube.cuboids) == {(0,), (1,)}

    def test_max_level_out_of_range(self, g0, g0_idx, g0_table):
        with pytest.raises(ParameterError):
            compute_cube(g0, g0_idx, g0_table, max_level=0)
        with pytest.raises(ParameterError):
            compute_cube(g0, g0_idx, g0_table, max_level=3)

    def test_ss_mean_prunes_cells(self, g0):
        cube = build_cube(g0, policy="ss-mean")
        for net in cube.cuboids.values():
            for node in net.nodes:
                assert "F" not in node.values and "LA" not in node.values

    def test_edge_aggregation_gender(self, g0):
        net = build_cube(g0).cuboids[(0,)]
        assert net.self_edges.get(("M",), 0) == 1
        assert net.self_edges.get(("F",), 0) == 0
        assert net.cross_edges.get((("M",), ("F",)), 0) == 5

    def test_edge_aggregation_gender_city(self, g0):
        net = build_cube(g0).cuboids[(0, 1)]
        assert net.self_edges.get(("M", "NY"), 0) == 1
        assert net.cross_edges.get((("M", "NY"), ("F", "NY")), 0) == 2
        assert net.cross_edges.get((("M", "NY"), ("F", "LA")), 0) == 1
        assert net.cross_edges.get((("F", "LA"), ("M", "LA")), 0) == 2

    def test_edgeless_graph_has_no_edges(self):
        from graphcube import MultidimGraph

        g = MultidimGraph(
            dims=("D",), vertices={1: ("x",), 2: ("y",)}, edges=frozenset()
        )
        net = build_cube(g).cuboids[(0,)]
        assert not net.self_edges and not net.cross_edges

    def test_edge_conservation_policy_none(self, g0):
        cube = build_cube(g0)
        for net in cube.cuboids.values():
            assert net.total_edge_weight() == len(g0.edges)

    def test_members_disjoint_and_complete_policy_none(self, g0):
        cube = build_cube(g0)
        for net in cube.cuboids.values():
            seen = [v for n in net.nodes for v in n.members]
            assert sorted(seen) == sorted(g0.vertices)


class TestStrategies:
    def test_steps_up_precomputes_higher_levels(self):
        g = generate_synthetic(
            GenParams(vertex_count=60, edge_count=150, dim_count=4, cardinality=2, seed=3)
        )
        lbl = build_cube(g, strategy=Strategy.LEVEL_BY_LEVEL)
        steps = build_cube(g, strategy=Strategy.STEPS_UP)
        assert compare(lbl, steps).empty()

    def test_combine_counts_four_dims(self):
        g = generate_synthetic(
            GenParams(vertex_count=40, edge_count=80, dim_count=4, cardinality=2, seed=5)
        )
        lbl = build_cube(g, strategy=Strategy.LEVEL_BY_LEVEL)
        steps = build_cube(g, strategy=Strategy.STEPS_UP)
        # 4 dims: one join per cuboid of level >= 2, C(4,2) + C(4,3) + C(4,4) = 11
        assert lbl.meta.combines_attempted == 11
        assert steps.meta.combines_attempted == 11

    def test_combine_counts_equal_two_dims(self, g0):
        lbl = build_cube(g0, strategy=Strategy.LEVEL_BY_LEVEL)
        steps = build_cube(g0, strategy=Strategy.STEPS_UP)
        assert lbl.meta.combines_attempted == steps.meta.combines_attempted == 1

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("max_level", [1, 2, 4])
    def test_one_timing_per_level(self, strategy, max_level):
        g = generate_synthetic(
            GenParams(vertex_count=40, edge_count=80, dim_count=4, cardinality=2, seed=5)
        )
        cube = build_cube(g, strategy=strategy, max_level=max_level)
        assert [k for k, _ in cube.meta.timings] == list(range(1, max_level + 1))

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_level_timings_cover_edge_counting(self, monkeypatch, strategy):
        """On a clock that moves only while a cuboid's edges are counted, one
        second per cuboid, each level's timing is one second per cuboid of
        that level."""
        g = generate_synthetic(
            GenParams(vertex_count=40, edge_count=80, dim_count=4, cardinality=2, seed=5)
        )
        clock = [0.0]
        original = engine.aggregate_edges

        def counted(g, net, /):
            clock[0] += 1.0
            return original(g, net)

        monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
        monkeypatch.setattr(engine, "aggregate_edges", counted)
        cube = build_cube(g, strategy=strategy)
        assert cube.meta.timings == [(k, 1000.0 * comb(4, k)) for k in range(1, 5)]

    @pytest.mark.parametrize("policy", ["none", "ss-mean", "support"])
    def test_equivalence_on_seeded_graphs(self, policy):
        for seed in range(8):
            g = generate_synthetic(
                GenParams(
                    vertex_count=50, edge_count=120, dim_count=4, cardinality=3, seed=seed
                )
            )
            lbl = build_cube(g, policy=policy, strategy=Strategy.LEVEL_BY_LEVEL, min_support=5)
            steps = build_cube(g, policy=policy, strategy=Strategy.STEPS_UP, min_support=5)
            assert compare(lbl, steps).empty()

    def test_oracle_equivalence_policy_none(self):
        for seed in range(5):
            g = generate_synthetic(
                GenParams(vertex_count=40, edge_count=90, dim_count=3, cardinality=3, seed=seed)
            )
            assert compare(build_cube(g), oracle_cube(g)).empty()


class TestPruningAntiMonotonicity:
    @pytest.mark.parametrize("policy,min_support", [("ss-mean", 1), ("support", 8)])
    def test_no_pruned_value_materialized(self, policy, min_support):
        g = generate_synthetic(
            GenParams(vertex_count=60, edge_count=140, dim_count=3, cardinality=3, seed=11)
        )
        idx = build_inverted_index(g)
        table = apply_policy(
            significance_table(g, idx), PrunePolicy(kind=policy, min_support=min_support)
        )
        cube = compute_cube(g, idx, table)
        for sig, net in cube.cuboids.items():
            for node in net.nodes:
                for d, value in zip(sig, node.values):
                    assert table.keep(d, value)
                    assert set(node.members) <= set(idx.entries[(d, value)])


class TestQuery:
    def test_name_order_irrelevant(self, g0):
        cube = build_cube(g0)
        assert query_cuboid(cube, ["City", "Gender"]) is query_cuboid(cube, ["Gender", "City"])

    def test_single_dim(self, g0):
        net = query_cuboid(build_cube(g0), ["Gender"])
        assert len(net.nodes) == 2
        assert net.cross_edges.get((("M",), ("F",)), 0) == 5

    def test_unknown_dimension(self, g0):
        with pytest.raises(QueryError, match="unknown dimension Bogus"):
            query_cuboid(build_cube(g0), ["Bogus"])

    def test_not_materialized(self, g0):
        cube = build_cube(g0, max_level=1)
        with pytest.raises(NotMaterializedError):
            query_cuboid(cube, ["Gender", "City"])

    def test_empty_query_is_an_invalid_signature(self, tmp_path, g0):
        """In memory and on disk, a query that names no dimension is refused
        the same way, not reported as an unmaterialized cuboid."""
        cube = build_cube(g0)
        write_cube(cube, tmp_path)
        with pytest.raises(QueryError, match="invalid signature"):
            query_cuboid(cube, [])
        with pytest.raises(QueryError, match="invalid signature"):
            read_cuboid(tmp_path, [])

    @pytest.mark.parametrize(
        "signature, match",
        [
            (["Gender", "Gender"], "duplicate dimension in query"),
            ([2], r"dimension index out of range in \[2\]"),
            ([-1, 0], r"dimension index out of range in \[-1, 0\]"),
        ],
        ids=["repeated-name", "index-too-large", "negative-index"],
    )
    def test_signature_refused(self, tmp_path, g0, signature, match):
        cube = build_cube(g0)
        write_cube(cube, tmp_path)
        with pytest.raises(QueryError, match=match):
            read_cuboid(tmp_path, signature)
        with pytest.raises(QueryError, match=match):
            query_cuboid(cube, signature)

    @pytest.mark.parametrize("signature", [[0], [1], [1, 0], (0, 1), (1,)])
    def test_indices_read_the_same_cuboid_in_memory_and_on_disk(self, tmp_path, g0, signature):
        cube = build_cube(g0)
        write_cube(cube, tmp_path)
        assert query_cuboid(cube, signature) == read_cuboid(tmp_path, signature)

    def test_bare_str_refused(self, tmp_path):
        """A str is not split into one-letter dimension names: on dims
        ('ab', 'a', 'b'), "ab" is not cuboid {a,b}, nor {ab}. Nor are bytes
        taken as indices: b"\\x00\\x02" is not cuboid (0, 2), nor is a
        memoryview of those bytes."""
        g = MultidimGraph(dims=("ab", "a", "b"), vertices={1: ("x", "y", "z")}, edges=())
        cube = build_cube(g)
        write_cube(cube, tmp_path)
        assert query_cuboid(cube, ["ab"]) == read_cuboid(tmp_path, ["ab"]) == cube.cuboids[(0,)]
        for lookup in (functools.partial(query_cuboid, cube), functools.partial(read_cuboid, tmp_path)):
            with pytest.raises(QueryError, match=r"invalid signature 'ab': a str, not a sequence of dimensions"):
                lookup("ab")
            with pytest.raises(QueryError, match=r"invalid signature b'\\x00\\x02': a bytes, not a sequence"):
                lookup(b"\x00\x02")
            with pytest.raises(QueryError, match=r"invalid signature bytearray\(b'\\x01'\): a bytearray, not a"):
                lookup(bytearray(b"\x01"))
            with pytest.raises(QueryError, match=r"invalid signature <memory at .*>: a memoryview, not a"):
                lookup(memoryview(b"\x00\x02"))


class TestSerialization:
    def test_roundtrip(self, tmp_path, g0):
        cube = build_cube(g0)
        write_cube(cube, tmp_path / "cube")
        for sig, net in cube.cuboids.items():
            loaded = read_cuboid(tmp_path / "cube", sig)
            assert loaded == net

    def test_read_by_names(self, tmp_path, g0):
        cube = build_cube(g0)
        write_cube(cube, tmp_path / "cube")
        net = read_cuboid(tmp_path / "cube", ["City", "Gender"])
        assert net == cube.cuboids[(0, 1)]

    def test_deterministic_bytes(self, tmp_path, g0):
        """Every file, meta too once each level line is cut to its label: the
        milliseconds are wall-clock timings."""
        for name in ("a", "b"):
            write_cube(build_cube(g0), tmp_path / name)
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == sorted(p.name for p in (tmp_path / "b").iterdir())
        for f in sorted((tmp_path / "a").iterdir()):
            a, b = f.read_bytes(), (tmp_path / "b" / f.name).read_bytes()
            if f.name == "meta":
                a, b = (re.sub(rb"(?m)^(level,\d+),.*$", rb"\1", d) for d in (a, b))
                assert a.startswith(b"format,2\n") and b"\nnodes_emitted," in a
                assert a.endswith(b"\nlevel,1\nlevel,2\n")
            assert a == b

    def test_missing_cuboid(self, tmp_path, g0):
        write_cube(build_cube(g0, max_level=1), tmp_path / "cube")
        with pytest.raises(NotMaterializedError):
            read_cuboid(tmp_path / "cube", ["Gender", "City"])

    def test_tampered_weight_is_parse_error(self, tmp_path, g0):
        write_cube(build_cube(g0), tmp_path / "cube")
        path = tmp_path / "cube" / "0.tsv"  # Gender
        path.write_text(path.read_text().replace("S\t1\t1", "S\t1\tx"))
        with pytest.raises(CubeFormatError, match="line"):
            read_cuboid(tmp_path / "cube", ["Gender"])

    def test_weight_beyond_64_bits_is_parse_error(self, tmp_path, g0):
        write_cube(build_cube(g0), tmp_path / "cube")
        path = tmp_path / "cube" / "0.tsv"  # Gender
        path.write_text(path.read_text().replace("S\t1\t1", f"S\t1\t{2**63}"))
        with pytest.raises(CubeFormatError, match="0.tsv line 3: .* out of the 64-bit range"):
            read_cuboid(tmp_path / "cube", ["Gender"])

    def test_meta_contents(self, tmp_path, g0):
        write_cube(build_cube(g0, strategy=Strategy.STEPS_UP), tmp_path / "cube")
        meta = read_cube_meta(tmp_path / "cube")
        assert meta["strategy"] == "steps-up"
        assert meta["policy"] == "none"
        assert meta["dims"] == ("Gender", "City")
        assert meta["fingerprint"] == g0.fingerprint()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), dims=st.integers(2, 4), card=st.integers(2, 3))
def test_strategy_and_oracle_equivalence_property(seed, dims, card):
    g = generate_synthetic(
        GenParams(vertex_count=30, edge_count=60, dim_count=dims, cardinality=card, seed=seed)
    )
    lbl = build_cube(g, strategy=Strategy.LEVEL_BY_LEVEL)
    steps = build_cube(g, strategy=Strategy.STEPS_UP)
    assert compare(lbl, steps).empty()
    assert compare(lbl, oracle_cube(g)).empty()
    for net in lbl.cuboids.values():
        assert net.total_edge_weight() == len(g.edges)


def edge_loop(g, nodes):
    """Reference classification: one pass over g.edges, endpoints outside all cells skipped."""
    assign = {v: nd.values for nd in nodes for v in nd.members}
    self_edges, cross_edges = {}, {}
    for u, w in g.edges:
        if u not in assign or w not in assign:
            continue
        cu, cw = assign[u], assign[w]
        if cu == cw:
            self_edges[cu] = self_edges.get(cu, 0) + 1
        else:
            key = (cu, cw) if cu < cw else (cw, cu)
            cross_edges[key] = cross_edges.get(key, 0) + 1
    return self_edges, cross_edges


@st.composite
def pruned_cuboids(draw):
    """A graph on sparse large ids, inserted unsorted, plus the cells of cuboid
    (0, 1) over a subset of its vertices, in value order. Values containing
    '|' give distinct cells one display label, e.g. ('a|b', 'a') and ('a', 'b|a'),
    which must not matter: cells are ordered by value tuple."""
    ids = draw(st.lists(st.integers(0, 10**12), min_size=1, max_size=25, unique=True))
    value = st.sampled_from(["a", "b", "a|b", "b|a"])
    vertices = {v: (draw(value), draw(value)) for v in ids}
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=80))
    edges = frozenset((min(u, w), max(u, w)) for u, w in pairs if u != w)
    g = MultidimGraph(dims=("x", "y"), vertices=vertices, edges=edges)
    kept = [v for v in ids if draw(st.booleans())]
    cells = {}
    for v in sorted(kept):
        cells.setdefault(vertices[v], []).append(v)
    nodes = [AggregateNode(values=vals, members=tuple(m)) for vals, m in sorted(cells.items())]
    return g, nodes


def test_cross_weight_of_cells_with_one_label():
    # ('a|b', 'c') and ('a', 'b|c') both display as 'a|b|c'.
    vertices = {1: ("a|b", "c"), 2: ("a", "b|c"), 3: ("a", "b|c"), 4: ("a|b", "c")}
    g = MultidimGraph(dims=("x", "y"), vertices=vertices, edges=frozenset({(1, 2), (3, 4)}))
    net = build_cube(g).cuboids[(0, 1)]
    assert net.total_edge_weight() == 2
    assert len(net.cross_edges) == 1
    assert net.cross_edges.get((("a|b", "c"), ("a", "b|c")), 0) == 2
    assert net.cross_edges.get((("a", "b|c"), ("a|b", "c")), 0) == 2


@settings(max_examples=200, deadline=None)
@given(case=pruned_cuboids())
def test_aggregate_edges_matches_edge_loop_property(case):
    g, nodes = case
    g2 = MultidimGraph(dims=g.dims, vertices=dict(g.vertices), edges=g.edges)
    net = aggregate_edges(g, AggregateNetwork(signature=(0, 1), nodes=nodes))
    assert (net.self_edges, net.cross_edges) == edge_loop(g, nodes)
    assert net.nodes == nodes
    for view in (net.self_edges, net.cross_edges):
        items = dict(view.items())
        assert dict(view) == items
        assert len(view) == len(items)
        for key, w in items.items():
            assert view[key] == w
    cross = net.cross_edges
    for (a, b), w in cross.items():
        assert a < b and cross[b, a] == w and net.cross_edges.get((b, a), 0) == w
    assert g == g2  # aggregate_edges leaves the graph as it was


@st.composite
def partly_pruned_builds(draw):
    """A graph whose vertices keep their values on some dimensions and not on
    others, with the table that says which, a strategy and a max_level.

    Dimension 0 gives every vertex its own value, so ``support`` with
    min_support 2 prunes all of it; ``dead`` prunes one whole dimension under
    any policy."""
    n = draw(st.integers(2, 4))
    ids = draw(st.lists(st.integers(0, 10**9), min_size=1, max_size=20, unique=True))
    value = st.sampled_from(["a", "b", "c"])
    vertices = {v: (f"u{v}", *(draw(value) for _ in range(n - 1))) for v in ids}
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=60))
    g = MultidimGraph(
        dims=tuple(f"d{j}" for j in range(n)),
        vertices=vertices,
        edges=frozenset((min(u, w), max(u, w)) for u, w in pairs if u != w),
    )
    idx = build_inverted_index(g)
    kind = draw(st.sampled_from(["none", "support", "ss-mean"]))
    min_support = draw(st.integers(1, 3)) if kind == "support" else 1
    table = apply_policy(significance_table(g, idx), PrunePolicy(kind=kind, min_support=min_support))
    dead = draw(st.none() | st.integers(0, n - 1))
    if dead is not None:
        rows = {key: replace(row, keep=row.keep and key[0] != dead) for key, row in table.rows.items()}
        table = SignificanceTable(rows=rows, thresholds=table.thresholds, policy=table.policy)
    strategy = draw(st.sampled_from(list(Strategy)))
    return g, idx, table, strategy, draw(st.integers(1, n))


@settings(max_examples=300, deadline=None)
@given(case=partly_pruned_builds())
def test_grouped_edge_count_matches_oracle_property(case):
    """Each cuboid of a pruned build holds the vertices that keep their values
    on all its dimensions, and exactly the edges among them: the oracle's
    cuboid of that induced subgraph, and what aggregate_edges counts for the
    same cells without the build's edge groups."""
    g, idx, table, strategy, max_level = case
    cube = compute_cube(g, idx, table, strategy=strategy, max_level=max_level)
    assert sorted(cube.cuboids) == sorted(
        sig for k in range(1, max_level + 1) for sig in combinations(range(g.dim_count), k)
    )
    for sig, net in cube.cuboids.items():
        kept = {v: vals for v, vals in g.vertices.items() if all(table.keep(d, vals[d]) for d in sig)}
        sub = MultidimGraph(g.dims, kept, frozenset(e for e in g.edges if e[0] in kept and e[1] in kept))
        assert net == oracle_cuboid(sub, sig)
        assert net == aggregate_edges(g, AggregateNetwork(sig, net.nodes))


def test_compute_cube_counts_edges_through_the_module_seam(monkeypatch, g0):
    """compute_cube calls the module attribute aggregate_edges once per cuboid,
    with two positional arguments, and keeps what it returns."""
    original = engine.aggregate_edges
    calls = []

    def wrapper(g, net, /):
        out = original(g, net)
        calls.append((net.signature, out))
        return out

    monkeypatch.setattr(engine, "aggregate_edges", wrapper)
    cube = build_cube(g0, strategy=Strategy.STEPS_UP)
    assert sorted(sig for sig, _ in calls) == sorted(cube.cuboids) == [(0,), (0, 1), (1,)]
    for sig, out in calls:
        assert cube.cuboids[sig] is out


class TestEdgeColumns:
    """The weights live in the lo/hi/weight columns; self_edges and cross_edges
    are value-keyed views that change existing rows' weights and add or remove
    no row."""

    def test_cross_write_through(self, tmp_path, g0):
        cube = build_cube(g0)
        net = cube.cuboids[(0,)]
        rows = len(net.weight)
        net.cross_edges[("M",), ("F",)] += 1
        assert len(net.weight) == rows
        assert net.total_edge_weight() == len(g0.edges) + 1
        assert net.cross_edges.get((("F",), ("M",)), 0) == 6
        write_cube(cube, tmp_path / "cube")
        assert "E\t0\t1\t6\n" in (tmp_path / "cube" / "0.tsv").read_text()
        assert read_cuboid(tmp_path / "cube", (0,)) == net

    def test_delete_and_missing_keys(self, g0):
        net = build_cube(g0).cuboids[(0,)]
        columns = (net.lo[:], net.hi[:], net.weight[:])
        for view, key in ((net.self_edges, ("X",)), (net.cross_edges, (("M",), ("X",))),
                          (net.cross_edges, (("M",), ("M",))), (net.cross_edges, ("M",))):
            # no cell, one cell twice, or not a pair
            assert key not in view and view.get(key) is None
            with pytest.raises(KeyError):
                view[key]
            with pytest.raises(KeyError):
                view[key] = 1
        assert (net.lo, net.hi, net.weight) == columns
        with pytest.raises((AttributeError, TypeError)):
            del net.cross_edges[("F",), ("M",)]  # no row is removed through a view
        assert (net.lo, net.hi, net.weight) == columns

    def test_equality_ignores_row_order(self, g0):
        net = build_cube(g0).cuboids[(0, 1)]
        flipped = AggregateNetwork._from_columns(
            net.signature, net.nodes, net.lo[::-1], net.hi[::-1], net.weight[::-1]
        )
        assert list(zip(flipped.lo, flipped.hi)) != list(zip(net.lo, net.hi))
        assert flipped == net
        assert flipped.self_edges == net.self_edges and flipped.cross_edges == net.cross_edges
        flipped.self_edges[("M", "NY")] = 2
        assert flipped != net
        assert flipped.self_edges != net.self_edges

    def test_constructor_refuses_unsorted_nodes(self, g0):
        net = build_cube(g0).cuboids[(0, 1)]
        with pytest.raises(ValueError, match="strictly ascending"):
            AggregateNetwork(net.signature, net.nodes[::-1], dict(net.self_edges.items()))

    def test_constructor_refuses_repeated_value_tuple(self, g0):
        """Two cells with one value tuple: the writer would write them, and the
        reader would refuse the file (a repeated N record)."""
        first, second = build_cube(g0).cuboids[(0,)].nodes
        with pytest.raises(ValueError, match="strictly ascending"):
            AggregateNetwork((0,), [first, replace(second, values=first.values)])

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"members": ()}, r"cell \('M',\) has no members"),
            ({"values": ("M", "NY")}, r"cell \('M', 'NY'\) has 2 values, not one per dimension of \(0,\)"),
            ({"values": ()}, r"cell \(\) has 0 values"),
        ],
        ids=["no-members", "too-many-values", "no-values"],
    )
    def test_constructor_refuses_cells_the_format_cannot_hold(self, g0, change, match):
        """The writer would write such a cell, and the reader would refuse the
        file: 'M\\t1\\t' is not an integer, and an N record would have the
        wrong field count."""
        first, second = build_cube(g0).cuboids[(0,)].nodes
        with pytest.raises(ValueError, match=match):
            AggregateNetwork((0,), [first, replace(second, **change)])

    def test_dict_constructor(self, g0):
        net = build_cube(g0).cuboids[(0,)]
        rebuilt = AggregateNetwork(
            net.signature, net.nodes,
            self_edges={("M",): 1}, cross_edges={(("M",), ("F",)): 2, (("F",), ("M",)): 3},
        )
        assert rebuilt == net  # a pair given in both orientations is summed
        with pytest.raises(ValueError, match="names no cell"):
            AggregateNetwork(net.signature, net.nodes, self_edges={("X",): 1})

    @pytest.mark.parametrize(
        "weights, match",
        [
            ({"cross_edges": {(("M",), ("X",)): 1}}, r"edge weight names no cell: \('X',\)"),
            ({"cross_edges": {(("M",), ("M",)): 1}}, r"cross-edge key .* names one cell twice"),
        ],
        ids=["cross-key-names-no-cell", "cross-key-names-one-cell-twice"],
    )
    def test_dict_constructor_refuses(self, g0, weights, match):
        net = build_cube(g0).cuboids[(0,)]
        with pytest.raises(ValueError, match=match):
            AggregateNetwork(net.signature, net.nodes, **weights)

    def test_retained_memory(self):
        """Every cuboid's weights are columns, and comparing views leaves
        nothing behind. Bytes traced after the build and the comparisons: 48.2 MB
        with value-keyed dicts, 17.9 MB with the columns."""
        g = generate_synthetic(
            GenParams(vertex_count=2000, edge_count=8000, dim_count=6, cardinality=10)
        )
        idx = build_inverted_index(g)
        table = apply_policy(significance_table(g, idx), PrunePolicy(kind="none"))
        tracemalloc.start()
        try:
            cube = compute_cube(g, idx, table)
            for net in cube.cuboids.values():
                assert net.self_edges == net.self_edges and net.cross_edges == net.cross_edges
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 28_000_000
