from fractions import Fraction

import pytest

from graphcube import (
    GenParams,
    MultidimGraph,
    ParameterError,
    PrunePolicy,
    apply_policy,
    attribute_diversity,
    build_inverted_index,
    clustering_coefficient,
    generate_synthetic,
    local_density,
    significance_table,
    vertex_score,
)
from graphcube.measures import write_significance_csv
from graphcube.oracle import rational_significance, rational_vertex_score

EPS = 1e-12


class TestComponentMeasures:
    def test_cc_triangle_vertex(self, g0):
        assert clustering_coefficient(g0, 1) == 1.0

    def test_cc_path_vertex(self, g0):
        assert clustering_coefficient(g0, 4) == 0.0

    def test_cc_partial(self, g0):
        assert clustering_coefficient(g0, 3) == pytest.approx(1 / 3, abs=EPS)

    def test_density_closed_triangle(self, g0):
        assert local_density(g0, 1) == 1.0

    def test_density_path_vertex(self, g0):
        assert local_density(g0, 4) == pytest.approx(2 / 3, abs=EPS)

    def test_density_isolated(self):
        g = MultidimGraph(dims=("D",), vertices={1: ("x",), 2: ("y",)}, edges=frozenset())
        assert local_density(g, 1) == 0.0
        assert clustering_coefficient(g, 1) == 0.0
        assert attribute_diversity(g, 1) == 0.0

    def test_diversity_g0(self, g0):
        assert attribute_diversity(g0, 1) == pytest.approx(3 / 4, abs=EPS)

    def test_diversity_single_neighbor(self, g0):
        assert attribute_diversity(g0, 6) == 1.0

    def test_diversity_uniform_neighbors(self):
        # hub 0 with 4 neighbors all sharing both values: (1/4 + 1/4) / 2
        vertices = {0: ("a", "b")} | {i: ("x", "y") for i in range(1, 5)}
        edges = frozenset((0, i) for i in range(1, 5))
        g = MultidimGraph(dims=("D1", "D2"), vertices=vertices, edges=edges)
        assert attribute_diversity(g, 0) == pytest.approx(1 / 4, abs=EPS)

    def test_measures_within_unit_interval(self, g0):
        for v in g0.vertices:
            s = vertex_score(g0, v)
            assert 0.0 <= s.alpha <= 1.0
            assert 0.0 <= s.cc <= 1.0
            assert 0.0 <= s.density <= 1.0
            assert s.score == pytest.approx(s.alpha * s.cc + s.density, abs=EPS)


class TestVertexScore:
    def test_g0_vertex1(self, g0):
        s = vertex_score(g0, 1)
        assert (s.alpha, s.cc, s.density) == (0.75, 1.0, 1.0)
        assert s.score == pytest.approx(7 / 4, abs=EPS)

    def test_g0_vertex3(self, g0):
        s = vertex_score(g0, 3)
        assert s.alpha == pytest.approx(2 / 3, abs=EPS)
        assert s.cc == pytest.approx(1 / 3, abs=EPS)
        assert s.density == pytest.approx(2 / 3, abs=EPS)
        assert s.score == pytest.approx(8 / 9, abs=EPS)

    def test_matches_rational_recomputation(self, g0):
        for v in g0.vertices:
            s = vertex_score(g0, v)
            alpha, cc, density, score = rational_vertex_score(g0, v)
            assert s.alpha == pytest.approx(float(alpha), abs=EPS)
            assert s.cc == pytest.approx(float(cc), abs=EPS)
            assert s.density == pytest.approx(float(density), abs=EPS)
            assert s.score == pytest.approx(float(score), abs=EPS)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cc_and_density_correctly_rounded(self, seed):
        # Both sides are one correctly rounded quotient of the same two integers,
        # so they agree bit for bit; a change in the float path shows as inequality.
        g = generate_synthetic(GenParams(vertex_count=80, edge_count=400, dim_count=2,
                                         cardinality=3, seed=seed, hub_fraction=0.1))
        for v in g.vertices:
            _, cc, density, _ = rational_vertex_score(g, v)
            s = vertex_score(g, v)
            assert s.cc == clustering_coefficient(g, v) == float(cc)
            assert s.density == local_density(g, v) == float(density)


class TestSignificanceTable:
    def test_g0_exact_values(self, g0_table):
        assert g0_table.rows[(0, "M")].ss == pytest.approx(float(Fraction(119, 36)), abs=EPS)
        assert g0_table.rows[(0, "F")].ss == pytest.approx(float(Fraction(19, 6)), abs=EPS)
        assert g0_table.thresholds[0] == pytest.approx(float(Fraction(233, 72)), abs=EPS)
        assert g0_table.rows[(0, "M")].keep is True
        assert g0_table.rows[(0, "F")].keep is False

    def test_additivity_against_rational_oracle(self, g0, g0_table):
        exact = rational_significance(g0)
        for key, row in g0_table.rows.items():
            assert row.ss == pytest.approx(float(exact[key]), abs=EPS)

    def test_single_value_dimension_kept(self):
        g = MultidimGraph(
            dims=("D",), vertices={1: ("x",), 2: ("x",)}, edges=frozenset({(1, 2)})
        )
        t = significance_table(g, build_inverted_index(g))
        assert t.rows[(0, "x")].keep is True
        assert t.rows[(0, "x")].ss == pytest.approx(t.thresholds[0], abs=EPS)

    def test_tied_values_both_kept(self):
        # two disjoint triangles with symmetric attributes score identically
        vertices = {i: ("x",) for i in (1, 2, 3)} | {i: ("y",) for i in (4, 5, 6)}
        edges = frozenset({(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)})
        g = MultidimGraph(dims=("D",), vertices=vertices, edges=edges)
        t = significance_table(g, build_inverted_index(g))
        assert t.rows[(0, "x")].keep and t.rows[(0, "y")].keep

    def test_mean_keeps_at_least_one_per_dimension(self, g0_table):
        for d in g0_table.thresholds:
            assert any(row.keep for (dd, _), row in g0_table.rows.items() if dd == d)

    def test_support_sums_to_vertex_count(self, g0, g0_table):
        for d in range(g0.dim_count):
            total = sum(row.support for (dd, _), row in g0_table.rows.items() if dd == d)
            assert total == len(g0.vertices)


def reference_vertex_score(g, v):
    """The per-vertex formulas before links were counted by triangle listing:
    links from neighbor-set intersections, diversity one dimension at a time."""
    nbrs = g.neighbors(v)
    d = len(nbrs)
    if d == 0:
        return 0.0
    links = sum(len(g.neighbors(u) & nbrs) for u in nbrs) // 2
    cc = links / (d * (d - 1) / 2) if d >= 2 else 0.0
    density = (links + d) / ((d + 1) * d / 2)
    attrs = [g.attributes(u) for u in nbrs]
    total = 0.0
    for j in range(g.dim_count):
        total += len({a[j] for a in attrs}) / len(nbrs)
    return total / g.dim_count * cc + density


def reference_table(g, idx):
    scores = {v: reference_vertex_score(g, v) for v in g.vertices}
    ss = {key: sum(scores[v] for v in members) for key, members in idx.entries.items()}
    per_dim = {}
    for (d, _), x in ss.items():
        per_dim.setdefault(d, []).append(x)
    return ss, {d: sum(xs) / len(xs) for d, xs in per_dim.items()}


@pytest.mark.parametrize("seed,hub", [(1, 0.0), (2, 0.05), (3, 0.1), (4, 0.2)])
def test_table_bit_identical_to_per_vertex_formulas(seed, hub):
    g = generate_synthetic(GenParams(vertex_count=150, edge_count=900, dim_count=3,
                                     cardinality=4, seed=seed, hub_fraction=hub))
    idx = build_inverted_index(g)
    t = significance_table(g, idx)
    ss, thresholds = reference_table(g, idx)
    assert {k: row.ss.hex() for k, row in t.rows.items()} == {k: x.hex() for k, x in ss.items()}
    assert {d: x.hex() for d, x in t.thresholds.items()} == {d: x.hex() for d, x in thresholds.items()}
    assert {k: row.keep for k, row in t.rows.items()} == {k: x >= thresholds[k[0]] for k, x in ss.items()}


class TestApplyPolicy:
    def test_support_three_keeps_all(self, g0_table):
        t = apply_policy(g0_table, PrunePolicy(kind="support", min_support=3))
        assert all(row.keep for row in t.rows.values())

    def test_support_four_prunes_all(self, g0_table):
        t = apply_policy(g0_table, PrunePolicy(kind="support", min_support=4))
        assert not any(row.keep for row in t.rows.values())

    def test_none_keeps_all(self, g0_table):
        t = apply_policy(g0_table, PrunePolicy(kind="none"))
        assert all(row.keep for row in t.rows.values())

    def test_scores_unchanged(self, g0_table):
        t = apply_policy(g0_table, PrunePolicy(kind="support", min_support=2))
        for key in g0_table.rows:
            assert t.rows[key].ss == g0_table.rows[key].ss
            assert t.rows[key].support == g0_table.rows[key].support

    def test_invalid_policy(self):
        import pytest as _pytest
        from graphcube import ParameterError
        with _pytest.raises(ParameterError):
            PrunePolicy(kind="bogus")

    def test_scaling_leaves_partition_unchanged(self, g0, g0_idx, g0_table):
        # scaling all per-vertex scores scales ss and the mean identically
        for scale in (0.5, 3.0, 17.25):
            scaled_keep = {
                key: row.ss * scale >= g0_table.thresholds[key[0]] * scale
                for key, row in g0_table.rows.items()
            }
            assert scaled_keep == {key: row.keep for key, row in g0_table.rows.items()}


def test_csv_export(tmp_path, g0, g0_table):
    out = tmp_path / "ss.csv"
    write_significance_csv(g0_table, g0.dims, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "dimension,value,ss,support,keep"
    assert len(lines) == 5
    assert lines[1].startswith("Gender,F,3.16666666667,3,false")
    assert lines[2].startswith("Gender,M,3.30555555556,3,true")


@pytest.mark.parametrize(
    "dims, value, match",
    [
        (("a,b",), "x", r"dimension name 'a,b' holds a comma"),
        (("a",), "x,y", r"value 'x,y' holds a comma"),
        (("a",), "x\ny", r"value 'x\\ny' holds a comma, a line break"),
    ],
    ids=["comma-in-name", "comma-in-value", "newline-in-value"],
)
def test_csv_export_refuses_unwritable_fields(tmp_path, dims, value, match):
    """A name or value that one field cannot hold is refused before the file
    is opened, as write_graph refuses it, instead of a row with extra fields
    or one split across two lines."""
    g = MultidimGraph(dims=dims, vertices={1: (value,), 2: (value,)}, edges={(1, 2)})
    table = significance_table(g, build_inverted_index(g))
    out = tmp_path / "ss.csv"
    with pytest.raises(ParameterError, match=match):
        write_significance_csv(table, g.dims, out)
    assert not out.exists()
