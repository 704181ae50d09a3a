import pytest

from graphcube import (
    AggregateNetwork,
    AggregateNode,
    GenParams,
    MultidimGraph,
    ParameterError,
    VerificationError,
    compare,
    generate_synthetic,
    oracle_cube,
    oracle_cuboid,
)
from graphcube.oracle import _adjacency, _rational_vertex_score, rational_vertex_score


class TestOracleCuboid:
    def test_g0_gender(self, g0):
        net = oracle_cuboid(g0, (0,))
        cells = {n.values: n.members for n in net.nodes}
        assert cells == {("M",): (1, 3, 5), ("F",): (2, 4, 6)}
        assert net.self_edges.get(("M",), 0) == 1
        assert net.cross_edges.get((("M",), ("F",)), 0) == 5

    def test_g0_gender_city(self, g0):
        net = oracle_cuboid(g0, (0, 1))
        cells = {n.values: n.members for n in net.nodes}
        assert cells == {
            ("M", "NY"): (1, 3),
            ("F", "NY"): (2,),
            ("M", "LA"): (5,),
            ("F", "LA"): (4, 6),
        }

    def test_constant_dimension(self):
        g = MultidimGraph(
            dims=("D",),
            vertices={i: ("v",) for i in range(1, 5)},
            edges=frozenset({(1, 2), (2, 3)}),
        )
        net = oracle_cuboid(g, (0,))
        assert len(net.nodes) == 1
        assert net.self_edges.get(("v",), 0) == len(g.edges)

    def test_invalid_signature(self, g0):
        with pytest.raises(ParameterError):
            oracle_cuboid(g0, (1, 0))
        with pytest.raises(ParameterError):
            oracle_cuboid(g0, (0, 5))


class TestOracleCube:
    def test_g0_cuboid_count(self, g0):
        assert set(oracle_cube(g0, 2).cuboids) == {(0,), (1,), (0, 1)}

    def test_three_dims_full(self):
        g = generate_synthetic(
            GenParams(vertex_count=20, edge_count=30, dim_count=3, cardinality=2, seed=1)
        )
        assert len(oracle_cube(g).cuboids) == 7

    def test_five_dims_level_two(self):
        g = generate_synthetic(
            GenParams(vertex_count=20, edge_count=30, dim_count=5, cardinality=2, seed=1)
        )
        assert len(oracle_cube(g, 2).cuboids) == 15


class TestCompare:
    def test_reflexive(self, g0):
        cube = oracle_cube(g0)
        assert compare(cube, cube).empty()

    def test_planted_weight_fault(self, g0):
        a = oracle_cube(g0)
        b = oracle_cube(g0)
        key = next(iter(b.cuboids[(0,)].cross_edges))
        b.cuboids[(0,)].cross_edges[key] += 1
        diff = compare(a, b)
        assert len(diff.weight_mismatches) == 1
        assert not diff.missing_nodes and not diff.extra_nodes

    def test_missing_vs_extra_distinct(self, g0):
        a = oracle_cube(g0)
        b = oracle_cube(g0)
        # Rebuild cuboid (0,) without its last node and the weights that name it.
        net = b.cuboids[(0,)]
        dropped = net.nodes[-1]
        b.cuboids[(0,)] = AggregateNetwork(
            net.signature,
            net.nodes[:-1],
            self_edges={k: w for k, w in net.self_edges.items() if k != dropped.values},
            cross_edges={k: w for k, w in net.cross_edges.items() if dropped.values not in k},
        )
        diff = compare(a, b)
        assert any(label == dropped.values for _, label, _ in diff.missing_nodes)
        assert not diff.extra_nodes
        # symmetric direction
        diff2 = compare(b, a)
        assert any(label == dropped.values for _, label, _ in diff2.extra_nodes)
        assert not diff2.missing_nodes

    @pytest.mark.parametrize("dropped", [("a", "b|c"), ("a|b", "c")])
    def test_cells_are_named_by_value_tuple(self, dropped):
        """Two cells whose values join to the same string, 'a|b|c', are
        each reported under their own value tuple."""
        g = MultidimGraph(
            dims=("D1", "D2"), vertices={1: ("a|b", "c"), 2: ("a", "b|c")}, edges=frozenset({(1, 2)})
        )
        a, b = oracle_cube(g), oracle_cube(g)
        net = b.cuboids[(0, 1)]
        b.cuboids[(0, 1)] = AggregateNetwork(net.signature, [nd for nd in net.nodes if nd.values != dropped])
        diff = compare(a, b)
        assert diff.missing_nodes == [((0, 1), dropped, "node absent in second cube")]
        assert diff.weight_mismatches == [((0, 1), (("a", "b|c"), ("a|b", "c")), "cross 1 != 0")]
        assert not diff.extra_nodes and not diff.member_mismatches

    @pytest.mark.parametrize("side", ["first", "second"])
    def test_cuboid_in_one_cube_only(self, g0, side):
        a, b = oracle_cube(g0), oracle_cube(g0)
        del (b if side == "first" else a).cuboids[(0, 1)]
        diff = compare(a, b)
        found = diff.missing_nodes if side == "first" else diff.extra_nodes
        assert found == [((0, 1), None, f"cuboid only in {side} cube")]
        assert not (diff.extra_nodes if side == "first" else diff.missing_nodes)
        assert not diff.member_mismatches and not diff.weight_mismatches

    def test_member_list_mismatch(self, g0):
        a, b = oracle_cube(g0), oracle_cube(g0)
        net = b.cuboids[(0,)]
        first, second = net.nodes
        # The first member of F moves to M; no edge weight changes.
        moved = (
            AggregateNode(first.values, first.members[1:]),
            AggregateNode(second.values, second.members + first.members[:1]),
        )
        b.cuboids[(0,)] = AggregateNetwork(
            net.signature, list(moved), dict(net.self_edges.items()), dict(net.cross_edges.items())
        )
        diff = compare(a, b)
        assert [(sig, label) for sig, label, _ in diff.member_mismatches] == [((0,), ("F",)), ((0,), ("M",))]
        assert diff.member_mismatches[0][2] == f"members {list(first.members)} != {list(moved[0].members)}"
        assert not diff.missing_nodes and not diff.extra_nodes and not diff.weight_mismatches

    def test_fingerprint_mismatch_refused(self, g0):
        other = MultidimGraph(
            dims=("D",), vertices={1: ("x",), 2: ("y",)}, edges=frozenset({(1, 2)})
        )
        with pytest.raises(VerificationError):
            compare(oracle_cube(g0), oracle_cube(other))


def test_relabeling_invariance():
    g = generate_synthetic(
        GenParams(vertex_count=15, edge_count=25, dim_count=2, cardinality=2, seed=9)
    )
    offset = 1000
    relabeled = MultidimGraph(
        dims=g.dims,
        vertices={v + offset: attrs for v, attrs in g.vertices.items()},
        edges=frozenset((u + offset, w + offset) for u, w in g.edges),
    )
    for sig in ((0,), (1,), (0, 1)):
        net_a = oracle_cuboid(g, sig)
        net_b = oracle_cuboid(relabeled, sig)
        assert {n.values: tuple(v + offset for v in n.members) for n in net_a.nodes} == {
            n.values: n.members for n in net_b.nodes
        }
        assert net_a.self_edges == net_b.self_edges
        assert net_a.cross_edges == net_b.cross_edges


def test_vertex_score_reads_the_closed_neighborhood(g0):
    """rational_vertex_score, which reads v's closed neighborhood only, equals
    the score on the whole graph's adjacency."""
    g = generate_synthetic(
        GenParams(vertex_count=60, edge_count=240, dim_count=3, cardinality=3, seed=4, hub_fraction=0.1)
    )
    for graph in (g0, g):
        adj = _adjacency(graph)
        for v in graph.vertices:
            assert rational_vertex_score(graph, v) == _rational_vertex_score(graph, adj, v)
