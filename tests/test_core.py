import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphcube import (
    GenParams,
    LoadError,
    ParameterError,
    UnknownVertexError,
    build_inverted_index,
    generate_synthetic,
    load_graph,
    load_graph_with_report,
    write_graph,
)
from graphcube import core
from graphcube.core import _SLICE, HUB_VALUE, LINE_BREAKS, LoadReport, MultidimGraph

from conftest import G0_DIMS, G0_EDGES, G0_VERTICES

ROOT = Path(__file__).resolve().parent.parent


class TestLoadGraph:
    def test_g0_files(self, g0_files):
        g = load_graph(*g0_files)
        assert g.dims == ("Gender", "City")
        assert len(g.vertices) == 6
        assert len(g.edges) == 6

    def test_ragged_row_error(self, tmp_path):
        (tmp_path / "v.csv").write_text("id,Gender,City\n7,M\n")
        (tmp_path / "e.csv").write_text("")
        with pytest.raises(LoadError, match="row 7: expected 2 attributes, got 1"):
            load_graph(tmp_path / "v.csv", tmp_path / "e.csv")

    def test_undirected_dedup(self, tmp_path):
        (tmp_path / "v.csv").write_text("id,D\n1,x\n2,y\n")
        (tmp_path / "e.csv").write_text("1,2\n2,1\n")
        g, report = load_graph_with_report(tmp_path / "v.csv", tmp_path / "e.csv")
        assert g.edges == frozenset({(1, 2)})
        assert report.duplicate_edges_dropped == 1

    def test_self_loop_dropped_with_report(self, tmp_path):
        (tmp_path / "v.csv").write_text("id,D\n1,x\n2,y\n")
        (tmp_path / "e.csv").write_text("1,1\n1,2\n")
        g, report = load_graph_with_report(tmp_path / "v.csv", tmp_path / "e.csv")
        assert g.edges == frozenset({(1, 2)})
        assert report.self_loops_dropped == 1

    def test_unknown_endpoint_error(self, tmp_path):
        (tmp_path / "v.csv").write_text("id,D\n1,x\n")
        (tmp_path / "e.csv").write_text("1,9\n")
        with pytest.raises(LoadError, match="edge 1,9"):
            load_graph(tmp_path / "v.csv", tmp_path / "e.csv")

    def test_duplicate_vertex_id_error(self, tmp_path):
        (tmp_path / "v.csv").write_text("id,D\n1,x\n1,y\n")
        (tmp_path / "e.csv").write_text("")
        with pytest.raises(LoadError, match="duplicate vertex id"):
            load_graph(tmp_path / "v.csv", tmp_path / "e.csv")

    def test_repeated_dimension_name(self, tmp_path):
        (tmp_path / "v.csv").write_text("id,a,a\n1,x,y\n")
        (tmp_path / "e.csv").write_text("")
        with pytest.raises(LoadError, match=r"vertex file .*v\.csv: header repeats a dimension name"):
            load_graph(tmp_path / "v.csv", tmp_path / "e.csv")

    def test_roundtrip_idempotent(self, tmp_path, g0):
        write_graph(g0, tmp_path / "v.csv", tmp_path / "e.csv")
        g1 = load_graph(tmp_path / "v.csv", tmp_path / "e.csv")
        write_graph(g1, tmp_path / "v2.csv", tmp_path / "e2.csv")
        assert (tmp_path / "v.csv").read_bytes() == (tmp_path / "v2.csv").read_bytes()
        assert (tmp_path / "e.csv").read_bytes() == (tmp_path / "e2.csv").read_bytes()
        assert g1.fingerprint() == g0.fingerprint()

    @pytest.mark.parametrize(
        "vertices, edges, bad",
        [
            ("", "", "v"),
            ("vid,D\n1,x\n", "", "v"),
            ("id,D\nx,a\n", "", "v"),
            ("id,D\n-1,a\n", "", "v"),
            ("id,D\n1,a,b\n", "", "v"),
            ("id,D\n1,a\n1,b\n", "", "v"),
            ("id,D\n1,\n", "", "v"),
            ("id,D\n1,a\n2,b\n", "1,2,3\n", "e"),
            ("id,D\n1,a\n2,b\n", "1,x\n", "e"),
            ("id,D\n1,a\n2,b\n", "1,2\n1,9\n", "e"),
        ],
        ids=["empty", "header", "id-not-integer", "negative-id", "ragged-row", "duplicate-id", "empty-value",
             "edge-fields", "edge-endpoint", "unknown-vertex"],
    )
    def test_error_names_its_file(self, tmp_path, vertices, edges, bad):
        (tmp_path / "v.csv").write_text(vertices)
        (tmp_path / "e.csv").write_text(edges)
        with pytest.raises(LoadError) as info:
            load_graph(tmp_path / "v.csv", tmp_path / "e.csv")
        assert str(info.value).startswith(("vertex" if bad == "v" else "edge") + f" file {tmp_path / bad}.csv: ")

    @pytest.mark.parametrize("which", ["vertex", "edge"])
    def test_not_utf8(self, tmp_path, which):
        (tmp_path / "v.csv").write_text("id,D\n1,x\n2,y\n")
        (tmp_path / "e.csv").write_text("1,2\n")
        with open(tmp_path / f"{which[0]}.csv", "ab") as f:
            f.write(b"\xff\n")
        with pytest.raises(LoadError, match=rf"{which} file .*: byte \d+ is not UTF-8"):
            load_graph(tmp_path / "v.csv", tmp_path / "e.csv")


def reference_load(dims, vertices, edge_file):
    """The edge parser as it was before the graph stored position codes, the
    reference for load_graph_with_report: the graph on ``vertices`` and the
    report, or the LoadError for the first line it refuses. It builds a set of
    (min, max) id pairs."""
    edge_file = Path(edge_file)
    report = LoadReport()
    edges = set()
    for lineno, line in enumerate(edge_file.read_text(encoding="utf-8").splitlines(), start=1):
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


LOADER_VERTICES = {v: (f"x{v % 3}",) for v in (0, 1, 2, 3, 7, 10, 12)}
# Endpoint spellings: the ids as written, spellings of them that int() also
# reads (a sign, leading zeros or spaces, an underscore, a non-ASCII digit),
# and spellings it refuses.
ENDPOINTS = [str(v) for v in LOADER_VERTICES] + [
    "+1", "01", " 1", "1 ", "1_0", "\u0661", "1e3", "1.0", "true", "-1", "", "99", "0x1", "[1]",
]
PLAIN_LINES = st.tuples(st.sampled_from(sorted(LOADER_VERTICES)), st.sampled_from(sorted(LOADER_VERTICES))).map(
    lambda pair: "%d,%d" % pair
)
ANY_LINES = st.one_of(
    PLAIN_LINES,
    st.tuples(st.sampled_from(ENDPOINTS), st.sampled_from(ENDPOINTS)).map(",".join),
    st.sampled_from(["", "  ", "1,2,3", "1", ",", "1,2,", "2,1\t"]),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lines=st.one_of(st.lists(PLAIN_LINES, max_size=30), st.lists(ANY_LINES, max_size=12)),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    trailing=st.booleans(),
)
def test_loader_matches_reference(tmp_path, lines, newline, trailing):
    """The loader and the reference parser agree on every edge file: the
    same graph, fingerprint and report, or the same LoadError text."""
    assert_loads_like_reference(tmp_path, newline.join(lines) + (newline if trailing and lines else ""))


def assert_loads_like_reference(tmp_path, edge_text):
    """load_graph_with_report and reference_load agree on an edge file of
    ``edge_text`` over LOADER_VERTICES: the same graph, fingerprint and
    report, or the same LoadError text."""
    vfile, efile = tmp_path / "v.csv", tmp_path / "e.csv"
    write_graph(MultidimGraph(("D",), LOADER_VERTICES, frozenset()), vfile, efile)
    efile.write_bytes(edge_text.encode("utf-8"))
    try:
        expected = reference_load(("D",), LOADER_VERTICES, efile)
    except LoadError as exc:
        with pytest.raises(LoadError) as info:
            load_graph_with_report(vfile, efile)
        assert str(info.value) == str(exc)
        return
    g, report = load_graph_with_report(vfile, efile)
    assert (g, report) == expected
    assert g.fingerprint() == expected[0].fingerprint()


def filler(length, newline="\n"):
    """Exactly ``length`` characters of edge lines, each ending in
    ``newline``: edge 0,1 over and over (duplicates after the first) and a
    last, blank line of spaces."""
    k, r = divmod(length - len(newline), 3 + len(newline))
    return ("0,1" + newline) * k + " " * r + newline


# Edge text is split into lines one slice at a time, each cut just after the
# first LF at or beyond _SLICE characters into it. These files are larger
# than one slice and put what a cut could break at and around the first cut.
@pytest.mark.parametrize("offset", range(-2, 3))
def test_crlf_at_a_slice_cut(tmp_path, offset):
    """A CRLF line break whose CR lies near the first cut (at the cut's
    nominal place for offset 0), in a file of CRLF lines."""
    head = filler(_SLICE - 4 + offset, "\r\n")
    assert_loads_like_reference(tmp_path, head + "0,2\r\n" + "2,3\r\n" * (_SLICE // 5) + "3,7\r\n")


@pytest.mark.parametrize("offset", range(-2, 3))
def test_refused_line_after_the_first_slice(tmp_path, offset):
    """The LoadError of a line in a later slice names the file's line number."""
    for bad in ("1,x", "1,2,3", "1,99"):
        assert_loads_like_reference(tmp_path, filler(_SLICE + offset) + "1,2\n" + bad + "\n1,3\n")
        assert_loads_like_reference(tmp_path, filler(2 * _SLICE + offset) + bad)


@pytest.mark.parametrize("offset", range(-2, 3))
def test_blank_line_at_a_slice_cut(tmp_path, offset):
    """A blank line just before or after the first cut counts towards the line
    numbers of the lines after it."""
    text = filler(_SLICE + offset) + "\n\n" + "1,2\n" * 10 + "2,1\n1,1\n"
    assert_loads_like_reference(tmp_path, text)
    assert_loads_like_reference(tmp_path, text + "\n1,x\n")


def test_carriage_return_only_file(tmp_path):
    """A file larger than a slice with only CR line breaks, so no LF to cut
    at, is read as one slice."""
    text = filler(2 * _SLICE, "\r") + "1,2\r3,7\r"
    assert "\n" not in text
    assert_loads_like_reference(tmp_path, text)
    assert_loads_like_reference(tmp_path, text + "7,12\r7,x\r")


@pytest.fixture(scope="module")
def seed5_inputs(tmp_path_factory):
    """The benchmark's seed-5 input files, per workload: (vertex file, edge file)."""
    out = tmp_path_factory.mktemp("seed5")
    # gen.py's arguments for each workload of perfbench/workloads.py.
    sizes = {"full-cube": (2000, 8000, 6, 10, 0.0, 1.0), "pruned-cube": (3000, 45000, 6, 10, 0.02, 2.0),
             "query-zipf": (600, 2400, 7, 6, 0.0, 1.0)}
    inputs = {}
    for name, size in sizes.items():
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "gen.py"), str(out / name), *map(str, size), "5"],
                       check=True, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
        inputs[name] = (out / name / "vertices.csv", out / name / "edges.csv")
    return inputs


def test_constructor_matches_loader(seed5_inputs):
    """MultidimGraph(dims, vertices, edges) builds the same rows as the loader
    on the benchmark's seed-5 inputs, backward rows and fingerprint included."""
    for files in seed5_inputs.values():
        g = load_graph(*files)
        built = MultidimGraph(g.dims, g.vertices, list(g.edges))
        assert built == g
        assert built._bwd == g._bwd
        assert built.fingerprint() == g.fingerprint()


def test_loader_keeps_one_string_per_value(seed5_inputs):
    """The loaded graph holds one str object per distinct attribute value,
    not one per vertex and dimension."""
    g = load_graph(*seed5_inputs["pruned-cube"])
    values = [a for attrs in g.vertices.values() for a in attrs]
    assert len(values) == 3000 * 6
    assert len(set(map(id, values))) == len(set(values))


def test_line_breaks_are_those_of_splitlines():
    """LINE_BREAKS, which the vertex-field check and the cube reader both use,
    is every code point that str.splitlines() breaks a line at."""
    breaks = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if len(("x" + c + "x").splitlines()) == 2)
    assert LINE_BREAKS == breaks


def test_load_memory(tmp_path):
    """Bytes traced while loading a 3,000-vertex, 45,000-edge graph: retained
    13.4 MB and peak 25.6 MB with an edge frozenset, per-vertex neighbor
    frozensets and a set of id pairs while parsing; 2.7 MB and 8.8 MB with
    one adjacency over positions and a set of position codes; 2.0 MB and
    3.2 MB with per-position lists of higher neighbors, parsed a slice of
    lines at a time and sorted once; 1.3 MB and 2.4 MB with one str object
    per distinct attribute value. Retained bytes depend on what came before:
    a tuple taken from CPython's free lists is not traced, and with those
    lists drained the load retains 1.75 MB (2.66 MB before values were
    shared)."""
    g = generate_synthetic(GenParams(vertex_count=3000, edge_count=45000, dim_count=6, cardinality=10, seed=3))
    write_graph(g, tmp_path / "v.csv", tmp_path / "e.csv")
    del g
    tracemalloc.start()
    try:
        g = load_graph(tmp_path / "v.csv", tmp_path / "e.csv")
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.edges) == 45000
    assert retained < 1_900_000
    assert peak < 2_600_000


class TestEdgeView:
    def test_len_and_iteration(self, g0):
        assert len(g0.edges) == len(G0_EDGES)
        assert list(g0.edges) == sorted(G0_EDGES)  # each pair once, ascending

    def test_membership(self, g0):
        assert all(e in g0.edges for e in G0_EDGES)
        assert (2, 1) not in g0.edges  # pairs are (lower, higher)
        for key in [(1, 6), (1, 1), (1, 99), (99, 1), (1,), (1, 2, 3), 1, "12", None]:
            assert key not in g0.edges

    def test_equality_with_frozensets(self, g0):
        assert g0.edges == G0_EDGES and G0_EDGES == g0.edges
        other = G0_EDGES - {(5, 6)} | {(4, 6)}
        assert g0.edges != other and other != g0.edges
        assert g0.edges != frozenset() and frozenset() != g0.edges

    def test_set_operations_return_frozensets(self, g0):
        changed = g0.edges - {(5, 6)} | {(4, 6)}
        assert type(changed) is frozenset
        assert changed == G0_EDGES - {(5, 6)} | {(4, 6)}
        assert g0.edges & {(1, 2), (2, 1)} == {(1, 2)}

    def test_graph_equality_ignores_edge_order(self, g0):
        again = MultidimGraph(G0_DIMS, dict(G0_VERTICES), sorted(G0_EDGES, reverse=True))
        assert again == g0 and again.fingerprint() == g0.fingerprint()
        assert MultidimGraph(G0_DIMS, dict(G0_VERTICES), G0_EDGES - {(5, 6)}) != g0


# g0's fingerprint, pinned so that a change of digest or document fails even
# where the reference below would change with it.
G0_FINGERPRINT = "898c31a9a9c1ce6a28f403f89cde8bb896484c5247860971001a3e9efa0a27a1"
# Joined with commas, both graphs would read "a,b" / "1,x,y".
SEPARATOR_GRAPHS = (
    MultidimGraph(dims=("a,b",), vertices={1: ("x,y",)}, edges=frozenset()),
    MultidimGraph(dims=("a", "b"), vertices={1: ("x", "y")}, edges=frozenset()),
)


def reference_fingerprint(g: MultidimGraph) -> str:
    """hashlib's SHA-256 of the document fingerprint() describes, built from
    the public graph: dims, [id, *values] per vertex by ascending id, and per
    vertex in that order the ascending positions of its higher-id
    neighbors."""
    ids = sorted(g.vertices)
    pos = {v: i for i, v in enumerate(ids)}
    forward = [sorted(pos[w] for w in g.neighbors(v) if w > v) for v in ids]
    doc = [list(g.dims), [[v, *g.vertices[v]] for v in ids], forward]
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode("ascii")).hexdigest()


class TestFingerprint:
    def test_separators_inside_names_and_values(self):
        one, two = SEPARATOR_GRAPHS
        assert one.fingerprint() != two.fingerprint()

    def test_edges_and_ids_count(self, g0):
        other_edge = MultidimGraph(g0.dims, g0.vertices, g0.edges - {(5, 6)} | {(4, 6)})
        shifted = MultidimGraph(
            g0.dims, {v + 1: a for v, a in g0.vertices.items()},
            frozenset((u + 1, w + 1) for u, w in g0.edges),
        )
        prints = {g.fingerprint() for g in (g0, other_edge, shifted)}
        assert len(prints) == 3

    def test_digest_of_the_documented_json(self, g0):
        synthetic = generate_synthetic(GenParams(vertex_count=300, edge_count=1200, dim_count=3, cardinality=4,
                                                 seed=7, hub_fraction=0.05))
        for g in (g0, *SEPARATOR_GRAPHS, synthetic):
            assert g.fingerprint() == reference_fingerprint(g)
        assert g0.fingerprint() == G0_FINGERPRINT

    def test_hashlib_fallback_gives_the_same_digest(self, monkeypatch):
        """Without CPython's built-in SHA-256 modules, core takes hashlib's
        sha256, and the digest does not change. core is executed afresh as a
        module of its own, so the classes other modules hold stay as they
        are."""
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        spec = importlib.util.spec_from_file_location("graphcube._core_on_hashlib", core.__file__)
        fallback = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, fallback)  # dataclasses look their module up there
        spec.loader.exec_module(fallback)
        assert fallback.sha256 is hashlib.sha256
        g = fallback.MultidimGraph(G0_DIMS, dict(G0_VERTICES), G0_EDGES)
        assert g.fingerprint() == G0_FINGERPRINT


# Run in a fresh interpreter: import graphcube, build, write and read a cube,
# then report whether OpenSSL's hashlib backend was loaded.
FLOOR_SCRIPT = textwrap.dedent("""
    import importlib.util
    import sys
    import tempfile

    if "_hashlib" in sys.modules:
        sys.exit("skip: _hashlib is loaded at start-up")
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        sys.exit("skip: no built-in SHA-256 module")
    import graphcube as gc

    g = gc.generate_synthetic(gc.GenParams(200, 800, 3, 4, seed=1, hub_fraction=0.05))
    idx = gc.build_inverted_index(g)
    cube = gc.compute_cube(g, idx, gc.significance_table(g, idx))
    with tempfile.TemporaryDirectory() as out:
        gc.write_cube(cube, out)
        gc.read_cuboid(out, (0,))
    print("_hashlib" in sys.modules)
""")


def test_a_build_leaves_openssl_unloaded():
    """A build, a write and a read through graphcube load no _hashlib, so the
    process does not map OpenSSL."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", FLOOR_SCRIPT], env=env, capture_output=True, text=True)
    if proc.stderr.startswith("skip: "):
        pytest.skip(proc.stderr.strip()[len("skip: "):])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def reference_triangles(g: MultidimGraph, v: int) -> int:
    """Links among v's neighbors, each seen once from each of its ends."""
    nbrs = g.neighbors(v)
    return sum(len(g.neighbors(u) & nbrs) for u in nbrs) // 2


@st.composite
def shaped_graphs(draw):
    """Disjoint cliques, stars, paths (degree-1 ends) and isolated vertices,
    with random extra edges, on shuffled ids."""
    blocks = draw(st.lists(st.tuples(st.sampled_from(["clique", "star", "path", "isolated"]),
                                     st.integers(1, 7)), min_size=1, max_size=5))
    edges: set[tuple[int, int]] = set()
    n = 0
    for kind, size in blocks:
        ids = range(n, n + size)
        if kind == "clique":
            edges.update((u, w) for u in ids for w in ids if u < w)
        elif kind == "star":
            edges.update((n, w) for w in ids[1:])
        elif kind == "path":
            edges.update(zip(ids, ids[1:]))
        n += size
    if n >= 2:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        edges.update(tuple(sorted(p)) for p in draw(st.lists(pairs, max_size=2 * n)))
    ids = draw(st.permutations(range(n)))
    edges = {tuple(sorted((ids[u], ids[w]))) for u, w in edges}
    return MultidimGraph(dims=("D",), vertices={i: ("x",) for i in ids}, edges=frozenset(edges))


@settings(max_examples=200, deadline=None)
@given(g=shaped_graphs())
def test_triangle_counts_property(g):
    counts = g.triangle_counts()
    assert counts == {v: reference_triangles(g, v) for v in g.vertices}
    assert g.triangle_counts() is counts


def test_triangle_counts_g0(g0):
    assert g0.triangle_counts() == {1: 1, 2: 1, 3: 1, 4: 0, 5: 0, 6: 0}


class TestInvertedIndex:
    def test_g0_entries(self, g0_idx):
        assert g0_idx.entries[(0, "M")] == [1, 3, 5]
        assert g0_idx.entries[(0, "F")] == [2, 4, 6]
        assert g0_idx.entries[(1, "NY")] == [1, 2, 3]
        assert g0_idx.entries[(1, "LA")] == [4, 5, 6]

    def test_single_vertex(self):
        g = MultidimGraph(dims=("D1",), vertices={1: ("x",)}, edges=frozenset())
        assert build_inverted_index(g).entries == {(0, "x"): [1]}

    def test_constant_dimension(self):
        g = MultidimGraph(
            dims=("D1",), vertices={i: ("v",) for i in range(5)}, edges=frozenset()
        )
        assert build_inverted_index(g).entries == {(0, "v"): [0, 1, 2, 3, 4]}

    def test_partition_per_dimension(self, g0, g0_idx):
        for d in range(g0.dim_count):
            ids = [v for (dd, _), mem in g0_idx.entries.items() if dd == d for v in mem]
            assert sorted(ids) == sorted(g0.vertices)

    def test_roundtrip_reproduces_attributes(self, g0, g0_idx):
        rebuilt = {v: [None] * g0.dim_count for v in g0.vertices}
        for (d, value), members in g0_idx.entries.items():
            for v in members:
                rebuilt[v][d] = value
        assert {v: tuple(a) for v, a in rebuilt.items()} == g0.vertices


class TestNeighbors:
    def test_g0_values(self, g0):
        assert g0.neighbors(3) == {1, 2, 4}
        assert g0.neighbors(6) == {5}

    def test_isolated(self):
        g = MultidimGraph(dims=("D",), vertices={1: ("x",), 2: ("y",)}, edges=frozenset())
        assert g.neighbors(1) == frozenset()

    def test_unknown_vertex(self, g0):
        with pytest.raises(UnknownVertexError):
            g0.neighbors(99)

    def test_degree_and_neighbor_attributes(self, g0):
        for v in g0.vertices:
            assert g0.degree(v) == len(g0.neighbors(v))
            assert sorted(g0._neighbor_attributes(v)) == sorted(g0.vertices[u] for u in g0.neighbors(v))
        with pytest.raises(UnknownVertexError):
            g0.degree(99)
        with pytest.raises(UnknownVertexError):
            g0._neighbor_attributes(99)

    def test_symmetry(self, g0):
        for v in g0.vertices:
            for u in g0.neighbors(v):
                assert v in g0.neighbors(u)


@pytest.mark.parametrize(
    "dims, vertices, edges, match",
    [
        (("D",), {1: ("x",), 2: ("y",)}, [(1, 1)], "self-loop on vertex 1"),
        (("D",), {1: ("x",), 2: ("y",)}, [(2, 1)], r"edge \(2,1\) not normalized"),
        (("D",), {1: ("x",), 2: ("y",)}, [(1, 3)], r"edge \(1,3\) references unknown vertex"),
        (("D", "D"), {1: ("x", "y")}, [], "dimension names must be unique"),
        (("D", "E"), {1: ("x", "y"), 2: ("z",)}, [], "vertex 2: expected 2 attributes, got 1"),
        (("D",), {1: ("x",), 2: ("",)}, [], "vertex 2: empty attribute value"),
    ],
    ids=["self-loop", "unnormalized-pair", "unknown-endpoint", "repeated-dimension", "attribute-count", "empty-value"],
)
def test_constructor_refusals(dims, vertices, edges, match):
    with pytest.raises(ParameterError, match=match):
        MultidimGraph(dims=dims, vertices=vertices, edges=edges)


class TestGenerateSynthetic:
    def test_determinism(self):
        p = GenParams(vertex_count=10, edge_count=15, dim_count=2, cardinality=3, seed=42)
        a, b = generate_synthetic(p), generate_synthetic(p)
        assert a.vertices == b.vertices
        assert a.edges == b.edges

    def test_exact_edge_count(self):
        p = GenParams(vertex_count=30, edge_count=100, dim_count=3, cardinality=4, seed=1)
        assert len(generate_synthetic(p).edges) == 100

    def test_hub_clique(self):
        p = GenParams(
            vertex_count=1000, edge_count=3000, dim_count=2, cardinality=3,
            seed=7, hub_fraction=0.05,
        )
        g = generate_synthetic(p)
        hub = [v for v in g.vertices if g.vertices[v][0] == HUB_VALUE]
        assert len(hub) == 50
        for i, u in enumerate(hub):
            for w in hub[i + 1:]:
                assert (u, w) in g.edges

    def test_infeasible_edge_count(self):
        p = GenParams(vertex_count=10, edge_count=100, dim_count=2, cardinality=2, seed=0)
        with pytest.raises(ParameterError):
            generate_synthetic(p)

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"vertex_count": 0}, "vertex_count must be >= 1 and edge_count >= 0"),
            ({"edge_count": -1}, "vertex_count must be >= 1 and edge_count >= 0"),
            ({"dim_count": 0}, "dim_count and cardinality must be >= 1"),
            ({"cardinality": 0}, "dim_count and cardinality must be >= 1"),
            ({"hub_fraction": 1.5}, r"hub_fraction must be in \[0, 1\]"),
            ({"hub_fraction": 1.0}, "edge_count too small for the planted hub clique"),
        ],
        ids=["no-vertices", "negative-edges", "no-dimensions", "no-values", "hub-fraction", "hub-clique"],
    )
    def test_parameters_refused(self, change, match):
        p = replace(GenParams(vertex_count=10, edge_count=15, dim_count=2, cardinality=3), **change)
        with pytest.raises(ParameterError, match=match):
            generate_synthetic(p)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    v=st.integers(2, 40),
    dims=st.integers(1, 4),
    card=st.integers(1, 4),
    frac=st.floats(0.0, 1.0),
)
def test_generated_graph_properties(seed, v, dims, card, frac):
    max_edges = v * (v - 1) // 2
    e = int(frac * max_edges)
    p = GenParams(vertex_count=v, edge_count=e, dim_count=dims, cardinality=card, seed=seed)
    g = generate_synthetic(p)
    assert len(g.edges) == e
    idx = build_inverted_index(g)
    for d in range(dims):
        members = [x for (dd, _), mem in idx.entries.items() if dd == d for x in mem]
        assert sorted(members) == sorted(g.vertices)
    for (_, _), mem in idx.entries.items():
        assert mem == sorted(set(mem)) and len(mem) >= 1
