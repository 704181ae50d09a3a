"""The cube's file format: pinned bytes, write/read round trip, the reader's
refusals, and a failed write."""

import functools
import hashlib
import os
import random
import re
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcube import (
    AggregateNetwork,
    AggregateNode,
    CubeFormatError,
    GenParams,
    GraphCube,
    MultidimGraph,
    NotMaterializedError,
    ParameterError,
    QueryError,
    Strategy,
    engine,
    generate_synthetic,
    load_graph,
    parse_cuboid,
    query_cuboid,
    read_cuboid,
    write_cube,
    write_graph,
)
from graphcube.engine import CubeMeta, read_cube_meta
from tests.conftest import make_g0
from tests.test_engine import build_cube


def tsv_files(directory):
    return sorted(directory.glob("*.tsv")) if directory.exists() else []


def decode(field):
    return field.encode("ascii").decode("unicode_escape") if "\\" in field else field


def cuboid_file(directory, signature):
    """The canonical signature and file of a cuboid, resolved as read_cuboid resolves it."""
    sig = engine._resolve_cuboid(os.fspath(directory), signature)
    return sig, Path(directory) / engine._cuboid_filename(sig)


def reference_read(directory, signature):
    """A line-at-a-time reader of cuboid files, the reference for read_cuboid's
    section parser.

    It checks less: it ignores section order and the order of N records, and
    int() takes numbers the writer never writes (a '+' sign, leading zeros).
    """
    sig, path = cuboid_file(directory, signature)
    values, counts, members, self_edges, cross_edges = [], [], {}, {}, {}

    def cell(field):
        i = int(field)
        if not 0 <= i < len(values):
            raise ValueError("names no N record")
        return i

    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        kind, *fields = line.split("\t")
        try:
            if kind == "N" and len(fields) == len(sig) + 1:
                values.append(tuple(map(decode, fields[:-1])))
                counts.append(int(fields[-1]))
            elif kind == "S" and len(fields) == 2 and values[cell(fields[0])] not in self_edges:
                self_edges[values[cell(fields[0])]] = int(fields[1])
            elif kind == "E" and len(fields) == 3 and cell(fields[0]) < cell(fields[1]):
                key = (values[cell(fields[0])], values[cell(fields[1])])
                if key in cross_edges:
                    raise ValueError("repeated record")
                cross_edges[key] = int(fields[2])
            elif kind == "M" and len(fields) == 2 and cell(fields[0]) not in members:
                members[cell(fields[0])] = tuple(map(int, fields[1].split(",")))
            else:
                raise ValueError("unrecognized, repeated or reversed record")
        except ValueError as exc:
            raise CubeFormatError(f"{path.name} line {lineno}: {line!r} ({exc})") from None
    if len(set(values)) != len(values):
        raise CubeFormatError(f"{path.name}: repeated N record")
    if members.keys() != set(range(len(values))):
        raise CubeFormatError(f"{path.name}: N and M records name different cells")
    nodes = []
    for i, count in enumerate(counts):
        if len(members[i]) != count:
            raise CubeFormatError(f"{path.name}: member list of cell {i} does not match its count")
        nodes.append(AggregateNode(values=values[i], members=members[i]))
    nodes.sort(key=lambda nd: nd.values)
    return AggregateNetwork(signature=sig, nodes=nodes, self_edges=self_edges, cross_edges=cross_edges)


GRAPHS = {
    "g0": make_g0,
    "gen": lambda: generate_synthetic(
        GenParams(vertex_count=200, edge_count=800, dim_count=4, cardinality=3, seed=3)
    ),
}

# SHA-256 of every cuboid file (meta carries wall-clock timings and is left out);
# files are named by index signature.
GOLDEN = {
    ("g0", "none"): {  # 4/4 values kept
        "0.tsv": "77f0f5b3fd175fa5f9c4c33832207858b9b3a848f4c3c1220ab020922a063cde",
        "1.tsv": "22d6c5dd36f7b593318fabf37d4cd0fec98666a78947dd049ebf03fae351f3a4",
        "0_1.tsv": "6e7b7b1892cc5fe75558fe978ca4afd8de2f014d1f755f451145046fe0b06811",
    },
    ("g0", "ss-mean"): {  # 2/4 values kept
        "0.tsv": "05a4e2461e3ec76d2d3032d7976c8619922c1090ea0eb6914073cbcc19cc5195",
        "1.tsv": "4388d73b2c4e2b3d42f6e11edc78d5bf4005fbced6ccaf654b589ea21009f115",
        "0_1.tsv": "4afe2344b7f6aa37d589858aaf8773f650b2a75604de69ca108ce9071481fbfc",
    },
    ("gen", "none"): {  # 12/12 values kept
        "0.tsv": "9b55f588bbf8cac41ae3e101672a917a1f62b019feee237f004b9868efaa7d83",
        "1.tsv": "35b1a98412101709dcbe393267ed70f6c8effc88695072c04e641c9895d574f1",
        "2.tsv": "c8be6cc7612ed5adb6b886dc281253f5e771d97a8f51d481fd1a32570a41fe10",
        "3.tsv": "a15a3bf355be1baa58631800cbbcea378a7e7d8be2120cfa590d2b8582059bf5",
        "0_1.tsv": "7757fe90b480571f84838cc1b4edd0917aab5852feb484108e97bfc559f1e97b",
        "0_2.tsv": "b55d6560930f0c51f55229a10cdac6e0556153af2600876a28cfcd59da0f177f",
        "0_3.tsv": "055c99982c231296543cdeed630967875fdf2a4f420e57df5569e669a4ed29fe",
        "1_2.tsv": "753b3a6afa69de2c839869ab07cb98eccfb8e6074c659986cd020ec821a5ee20",
        "1_3.tsv": "eb23db455733848498ade1fa21d11df0bb3971a190438410273639c7aa5c03ac",
        "2_3.tsv": "ce645b24941647e0a156e495cea51e958c1c8a4940e2a050e2e4cf38e67f53fe",
        "0_1_2.tsv": "5e07393c76904e1ff4bf015846b273c40d30e36e91206858a3f78d85255482c9",
        "0_1_3.tsv": "cf1e6a45691e577236b38134e254b1930afbabbfa7d0811e171455bf73ec2fb3",
        "0_2_3.tsv": "7359965651ce3b9d55db7b03e8800538981612fcfee1a899a7a3da62bcb73aef",
        "1_2_3.tsv": "1cbd8a112cf5941ff0a94e6fa8dce4f18d49b551d654d57801bdee9cd1a2decf",
        "0_1_2_3.tsv": "82f3bf938fa688fe2a854f800e31b81fcf32b140548852d5b71a51ade34c1a4e",
    },
    ("gen", "ss-mean"): {  # 6/12 values kept
        "0.tsv": "08ef67d7359ca2988ec5a9a5351dd14bb899514c0c3cadc8195e0da9e90eb148",
        "1.tsv": "d801c845cebc93a1547046ffad23fb4b45cc38186ae499cc472ba7ae07427f24",
        "2.tsv": "23b2c8b54fa9dbaabbe6dd44027c5d81bd379c215ac5d47f8fe414c4c832ce0c",
        "3.tsv": "d1b28eae10a774ebb4b6f63c4c425b5954aabb807138aa5a0651fad2d835b16c",
        "0_1.tsv": "0ff83a6426d6011103efa4e04c7fad07c5326c3b5d7c2985027eaa9a6f63379f",
        "0_2.tsv": "8c0025254c561a25d03b2e4cad0234deb7dce966ec0333b436559078c9d780df",
        "0_3.tsv": "a95805b1f72be160c981df1386aeb0d47af6da162b48b627522eac33dcbe650d",
        "1_2.tsv": "8431c756d165fb1cbffbc63ebe996d823a0b39bd0e2801a08dec19f7397a36d4",
        "1_3.tsv": "8040081cc6411b696e3977fd5b905c2141a1a14403ff7c5db62850031d3d0ed0",
        "2_3.tsv": "164e69e7b456276e1777567e65496b3a2968a0277c17ade72c90b4fce380ebe0",
        "0_1_2.tsv": "c5ee28ed0352c319b2974f695799f2d88dc93a50263e615c86684ee64bdf3a98",
        "0_1_3.tsv": "c1473593e40a5d3d5df9c9accb6b0f1f289059580e7acaf64a92bb91f5905e1a",
        "0_2_3.tsv": "4d006d20dcf024d335c49b53f0fa534cabf0037cc8b0630bef8727a1536f7217",
        "1_2_3.tsv": "1212cc8279e812b19eceb93d7765cf2964a1abe3b15de2c41bda63c9d0fcaff8",
        "0_1_2_3.tsv": "ebc70a4daebfd96ae829d38d6434db43047f5b4e515b6194405c0a078f66605f",
    },
}


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("graph, policy", sorted(GOLDEN))
def test_golden_bytes(tmp_path, graph, policy, strategy):
    write_cube(build_cube(GRAPHS[graph](), policy, strategy), tmp_path)
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tsv_files(tmp_path)}
    assert digests == GOLDEN[(graph, policy)]


# Any name: files are named by index signature and meta holds the names as
# JSON. "a", "b" and "a_b" would clash if names were joined into file names.
names = st.one_of(
    st.sampled_from(["a", "b", "a_b", "_", "a/b", "a|b", "a,b", "d" * 101, "\u00e9" * 130]),
    st.text(max_size=4),
)
values = st.one_of(
    st.sampled_from(
        ["a", "b", "a|b", "x\ty", "n\n", "r\r", "\x85", "\u2028", "\\", "a\\nb", "\u00e9",
         "\u65e5\u672c", "\ud800", "x\udfffy", "\x00", "\xa0"]
    ),
    st.text(min_size=1, max_size=3),
)


@st.composite
def small_graphs(draw, names=names, values=values):
    dims = tuple(draw(st.lists(names, min_size=1, max_size=3, unique=True)))
    pool = draw(st.lists(values, min_size=1, max_size=4))
    n = draw(st.integers(1, 12))
    vertices = {v: tuple(draw(st.sampled_from(pool)) for _ in dims) for v in range(n)}
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    edges = frozenset((min(u, w), max(u, w)) for u, w in pairs if u != w)
    return MultidimGraph(dims=dims, vertices=vertices, edges=edges)


def assert_reads_back(cube, out):
    write_cube(cube, out)
    for sig, net in cube.cuboids.items():
        assert read_cuboid(out, sig) == net


@settings(max_examples=150, deadline=None)
@given(g=small_graphs(), policy=st.sampled_from(["none", "ss-mean"]))
def test_write_read_roundtrip_property(tmp_path_factory, g, policy):
    assert_reads_back(build_cube(g, policy), tmp_path_factory.mktemp("cube"))


# What a vertex CSV can hold: no commas, no line breaks, no lone surrogates.
csv_text = st.characters(blacklist_characters=",\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", blacklist_categories=("Cs",))
csv_names = st.one_of(st.sampled_from(["a", "a_b", "a/b", "a|b", "d" * 101]), st.text(csv_text, max_size=4))
csv_values = st.one_of(st.sampled_from(["a|b", "x\ty", "\\", "a\\nb", "\u00e9", "\x00"]), st.text(csv_text, min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(g=small_graphs(csv_names, csv_values), policy=st.sampled_from(["none", "ss-mean"]))
def test_loaded_graph_roundtrip_property(tmp_path_factory, g, policy):
    """Every graph the loader accepts is written and read back unchanged."""
    tmp = tmp_path_factory.mktemp("graph")
    write_graph(g, tmp / "v.csv", tmp / "e.csv")
    loaded = load_graph(tmp / "v.csv", tmp / "e.csv")
    assert loaded == g
    assert_reads_back(build_cube(loaded, policy), tmp / "cube")


@settings(max_examples=150, deadline=None)
@given(g=small_graphs())
def test_written_graph_loads_or_is_refused_property(tmp_path_factory, g):
    """write_graph refuses a graph that load_graph would not read back, before
    it opens a file; every other graph loads back unchanged."""
    tmp = tmp_path_factory.mktemp("graph")
    try:
        write_graph(g, tmp / "v.csv", tmp / "e.csv")
    except ParameterError:
        assert not any(tmp.iterdir())
        return
    assert load_graph(tmp / "v.csv", tmp / "e.csv") == g


@pytest.mark.parametrize(
    "dims, vertices, match",
    [
        (("a",), {1: ("x,y",)}, "vertex 1: value 'x,y'"),
        (("a",), {1: ("x",), 2: ("x\ny",)}, "vertex 2: value"),
        (("a",), {1: ("x\u2028",)}, "vertex 1: value"),
        (("a",), {1: ("x\ud800",)}, "vertex 1: value"),
        (("a",), {-1: ("x",)}, "vertex -1: negative id"),
        (("a,b",), {1: ("x",)}, "dimension name 'a,b'"),
        (("a", "b\r"), {1: ("x", "y")}, "dimension name 'b"),
        ((), {1: ()}, "without dimensions"),
    ],
    ids=["comma", "newline", "u2028", "lone-surrogate", "negative-id", "comma-in-name", "cr-in-name", "no-dims"],
)
def test_write_graph_refuses_what_load_graph_refuses(tmp_path, dims, vertices, match):
    g = MultidimGraph(dims=dims, vertices=vertices, edges=frozenset())
    with pytest.raises(ParameterError, match=match):
        write_graph(g, tmp_path / "v.csv", tmp_path / "e.csv")
    assert not any(tmp_path.iterdir())


cell_values = st.sampled_from(["a", "b", "a|b", "", "x\ty", "\\", "\ud800", "\u00e9"])


@st.composite
def constructed_networks(draw):
    """Arguments for AggregateNetwork of a cuboid of 1 to 3 dimensions: cells
    drawn in any order and possibly repeated, or sorted and made distinct,
    with self and cross weights on the drawn cells. Some networks may hold
    cells the format cannot: a value tuple of another length than the
    signature's, or no members."""
    sig = tuple(range(draw(st.integers(1, 3))))
    widths = st.integers(0, 4) if draw(st.booleans()) else st.just(len(sig))
    values = widths.flatmap(lambda n: st.tuples(*[cell_values] * n))
    members = st.lists(st.integers(-5, 10**12), min_size=draw(st.sampled_from([0, 1])), max_size=4)
    cells = draw(st.lists(st.tuples(values, members), max_size=6))
    if draw(st.booleans()):
        cells = sorted(dict(cells).items())
    nodes = [AggregateNode(values, tuple(members)) for values, members in cells]
    keys = [nd.values for nd in nodes]
    weight = st.integers(-(2**61), 2**61)
    self_edges = draw(st.dictionaries(st.sampled_from(keys), weight)) if keys else {}
    pairs = st.tuples(st.sampled_from(keys), st.sampled_from(keys)).filter(lambda p: p[0] != p[1])
    cross_edges = draw(st.dictionaries(pairs, weight, max_size=6)) if len(set(keys)) > 1 else {}
    return sig, nodes, self_edges, cross_edges


@settings(max_examples=200, deadline=None)
@given(args=constructed_networks())
def test_constructed_network_roundtrip_property(tmp_path_factory, args):
    """The constructor takes cells exactly when each has one value per
    dimension and at least one member and their value tuples strictly
    ascend, and every network it takes is written and read back equal."""
    sig, nodes, self_edges, cross_edges = args
    keys = [nd.values for nd in nodes]
    holdable = keys == sorted(set(keys)) and all(len(k) == len(sig) and nd.members for k, nd in zip(keys, nodes))
    try:
        net = AggregateNetwork(sig, nodes, self_edges, cross_edges)
    except ValueError:
        assert not holdable
        return
    assert holdable
    out = tmp_path_factory.mktemp("cube")
    meta = CubeMeta(fingerprint="", policy="none", strategy="level-by-level", max_level=len(sig),
                    dims=tuple(f"d{d}" for d in sig))
    write_cube(GraphCube(cuboids={sig: net}, meta=meta), out)
    assert read_cuboid(out, sig) == net


@settings(max_examples=150, deadline=None)
@given(g=small_graphs(), policy=st.sampled_from(["none", "ss-mean"]))
def test_reader_matches_reference_property(tmp_path_factory, g, policy):
    out = tmp_path_factory.mktemp("cube")
    cube = build_cube(g, policy)
    write_cube(cube, out)
    for sig, net in cube.cuboids.items():
        assert read_cuboid(out, sig) == reference_read(out, sig) == net


def drop(lines, i, j, k, field):
    del lines[i]


def duplicate(lines, i, j, k, field):
    lines.insert(j, lines[i])


def move(lines, i, j, k, field):
    lines.insert(j, lines.pop(i))


def replace_field(lines, i, j, k, field):
    parts = lines[i].split("\t")
    parts[k % len(parts)] = field
    lines[i] = "\t".join(parts)


def out_of_range_cell(lines, i, j, k, field):
    """Point an S, E or M record at cell n + k of a cuboid with n cells."""
    cells = sum(line.startswith("N\t") for line in lines)
    parts = lines[i].split("\t")
    if parts[0] in ("S", "E", "M"):
        parts[1 + (k % 2 if parts[0] == "E" else 0)] = str(cells + k)
        lines[i] = "\t".join(parts)


def swap_e_pair(lines, i, j, k, field):
    for n, line in enumerate(lines[i:] + lines[:i]):
        kind, a, b, w = (line.split("\t") + [""] * 4)[:4]
        if kind == "E":
            lines[(i + n) % len(lines)] = "\t".join((kind, b, a, w))
            return


synthetic_graphs = st.builds(
    lambda seed, dims: generate_synthetic(
        GenParams(vertex_count=20, edge_count=40, dim_count=dims, cardinality=3, seed=seed)
    ),
    st.integers(0, 10_000),
    st.integers(1, 3),
)


@settings(max_examples=300, deadline=None)
@given(
    g=st.one_of(small_graphs(), synthetic_graphs),
    data=st.data(),
    mutate=st.sampled_from([drop, duplicate, move, replace_field, out_of_range_cell, swap_e_pair]),
    field=st.one_of(
        st.sampled_from(["x", "", "-", "1.5", "1e3", "+3", " 3", "03", "[1]", "1,2", "ZZ", "\\", "\\x4"]),
        st.integers(-2, 20).map(str),
        st.text(max_size=4),
    ),
)
def test_mutated_cuboid_property(tmp_path_factory, g, data, mutate, field):
    """A damaged file is refused, or read as the line-at-a-time reader reads it."""
    out = tmp_path_factory.mktemp("cube")
    cube = build_cube(g, "none")
    write_cube(cube, out)
    sig = data.draw(st.sampled_from(sorted(cube.cuboids)))
    _, path = cuboid_file(out, sig)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        return
    i, j = data.draw(st.lists(st.integers(0, len(lines) - 1), min_size=2, max_size=2))
    mutate(lines, i, j, data.draw(st.integers(0, 3)), field)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8", errors="surrogatepass")
    try:
        got = read_cuboid(out, sig)
    except CubeFormatError:
        return
    assert got == reference_read(out, sig)
    if mutate in (out_of_range_cell, swap_e_pair):
        assert got == cube.cuboids[sig]  # the file had no record the mutation could damage


def assert_roundtrip_no_joined_names(g, out):
    assert_reads_back(build_cube(g), out)
    assert all(f.stem.replace("_", "").isdigit() for f in tsv_files(out))


@pytest.mark.parametrize(
    "dims, hazard",
    [
        (("a", "a_b", "b"), "a_b.tsv"),  # names joined with "_": {a_b} and {a,b} would share it
        (("a/b", "c"), "not a plain file name"),
        (("a\0", "c"), "not a plain file name"),
    ],
)
def test_unusable_file_names_refused(tmp_path, dims, hazard):
    """Dimension names that would make unusable file names (``hazard``) are
    written and read back, because files are named by index signature."""
    g = MultidimGraph(dims=dims, vertices={1: tuple("xyz"[: len(dims)])}, edges=frozenset())
    assert_roundtrip_no_joined_names(g, tmp_path / "cube")
    assert hazard not in [f.name for f in tsv_files(tmp_path / "cube")]


def test_file_name_too_long_refused(tmp_path):
    """Names whose join would be 306 bytes long, more than Linux file systems
    allow, are written and read back."""
    dims = tuple(c * 100 for c in "abc")
    g = MultidimGraph(dims=dims, vertices={1: ("x", "y", "z")}, edges=frozenset())
    assert_roundtrip_no_joined_names(g, tmp_path / "cube")
    assert (tmp_path / "cube" / "0_1_2.tsv").is_file()


@pytest.mark.parametrize("value", ["x|q", "x\tq", "x\nq", "x\rq"])
def test_value_the_format_cannot_hold_refused(tmp_path, value):
    """Values holding a '|', a tab or a line break are written and read back."""
    vertices = {1: (value, "y"), 2: ("w", "y")}
    g = MultidimGraph(dims=("d", "e"), vertices=vertices, edges=frozenset({(1, 2)}))
    assert_reads_back(build_cube(g), tmp_path / "cube")
    assert len((tmp_path / "cube" / "0.tsv").read_text().splitlines()) == 5  # 2 N, 1 E, 2 M


def test_values_escaped_only_where_needed(tmp_path):
    vertices = {1: ("plain \u00e9|x",), 2: ("tab\there",), 3: ("back\\slash",), 4: ("\ud800",)}
    g = MultidimGraph(dims=("d",), vertices=vertices, edges=frozenset())
    write_cube(build_cube(g), tmp_path)
    n_fields = [line.split("\t")[1] for line in (tmp_path / "0.tsv").read_text().splitlines()[:4]]
    # In value order; all but the plain one are escaped.
    assert n_fields == ["back\\\\slash", "plain \u00e9|x", "tab\\there", "\\ud800"]


def test_dimension_names_with_commas(tmp_path):
    g = MultidimGraph(dims=("a,b", "c"), vertices={1: ("x", "y")}, edges=frozenset())
    cube = build_cube(g)
    write_cube(cube, tmp_path)
    assert read_cube_meta(tmp_path)["dims"] == ("a,b", "c")
    assert read_cuboid(tmp_path, ["c"]).signature == (1,)
    assert read_cuboid(tmp_path, [0]) == cube.cuboids[(0,)]
    assert read_cuboid(tmp_path, ["c", "a,b"]) == cube.cuboids[(0, 1)]


def test_meta_of_another_format_refused(tmp_path):
    write_cube(build_cube(make_g0()), tmp_path)
    meta = tmp_path / "meta"
    meta.write_text("".join(line for line in meta.read_text().splitlines(True) if not line.startswith("format,")))
    with pytest.raises(CubeFormatError, match="cube format 1; only format 2 is read"):
        read_cuboid(tmp_path, ["Gender"])


@pytest.mark.parametrize("fail_at", range(3))
@pytest.mark.parametrize("over_a_cube", [False, True], ids=["fresh", "over-a-cube"])
def test_failed_write_leaves_no_cube(tmp_path, monkeypatch, fail_at, over_a_cube):
    cube = build_cube(make_g0())  # 3 cuboids
    if over_a_cube:
        write_cube(cube, tmp_path)
    render = engine._render_cuboid
    calls = []

    def failing(net, fields):
        calls.append(net.signature)
        if len(calls) > fail_at:
            raise OSError("disk full")
        return render(net, fields)

    monkeypatch.setattr(engine, "_render_cuboid", failing)
    with pytest.raises(OSError, match="disk full"):
        write_cube(cube, tmp_path)
    for sig in cube.cuboids:
        with pytest.raises(NotMaterializedError):
            read_cuboid(tmp_path, sig)
    assert not (tmp_path / "meta").exists()


def test_file_of_an_earlier_larger_cube_not_read(tmp_path):
    write_cube(build_cube(make_g0()), tmp_path)
    write_cube(build_cube(make_g0(), max_level=1), tmp_path)
    assert (tmp_path / "0_1.tsv").is_file()
    with pytest.raises(NotMaterializedError):
        read_cuboid(tmp_path, ["Gender", "City"])


# A directory as a caller may give it: a Path, a str with a trailing slash,
# or a path relative to the working directory.
SPELLINGS = ["path", "slash", "relative"]


def spelled(hazards):
    """(hazard, spelling) cases; a Path keeps the hazard's own id."""
    return [pytest.param(h, s, id=h if s == "path" else f"{h}-{s}") for s in SPELLINGS for h in hazards]


def spell(directory, spelling, monkeypatch):
    """``directory`` as ``spelling`` gives it, and as error messages name it."""
    if spelling == "relative":
        monkeypatch.chdir(directory.parent)
        return directory.name, directory.name
    return (f"{directory}/" if spelling == "slash" else directory), str(directory)


@pytest.mark.parametrize("hazard, spelling", spelled(["meta-is-a-directory", "cube-is-a-file"]))
def test_no_meta_file_is_not_materialized(tmp_path, monkeypatch, hazard, spelling):
    """A meta that is a directory, or a cube directory that is a regular
    file, holds no cube; the message names the directory without a trailing
    slash, and a relative one as given."""
    cube_dir = tmp_path / "cube"
    write_cube(build_cube(make_g0()), cube_dir)
    if hazard == "meta-is-a-directory":
        (cube_dir / "meta").unlink()
        (cube_dir / "meta").mkdir()
    else:
        cube_dir = cube_dir / "0.tsv"
    directory, shown = spell(cube_dir, spelling, monkeypatch)
    message = re.escape(f"no cube meta file in {shown}") + "$"
    with pytest.raises(NotMaterializedError, match=message):
        read_cube_meta(directory)
    with pytest.raises(NotMaterializedError, match=message):
        read_cuboid(directory, ["Gender"])


@pytest.mark.parametrize("hazard, spelling", spelled(["deleted", "deleted-after-locate", "directory"]))
def test_no_cuboid_file_is_not_materialized(tmp_path, monkeypatch, hazard, spelling):
    """Within max_level, the read's one open decides whether a cuboid is
    there, also for a kept cuboid: a file deleted before the read or after
    its signature was resolved, or a directory at its name, holds none."""
    write_cube(build_cube(make_g0()), tmp_path)
    path = tmp_path / "0.tsv"
    directory, shown = spell(tmp_path, spelling, monkeypatch)
    for _ in range(2):
        read_cuboid(directory, ["Gender"])
    assert "0.tsv" in kept_names()
    if hazard == "deleted-after-locate":
        resolve = engine._resolve_cuboid

        def resolve_then_delete(directory, signature):
            sig = resolve(directory, signature)
            path.unlink()
            return sig

        monkeypatch.setattr(engine, "_resolve_cuboid", resolve_then_delete)
    else:
        path.unlink()
        if hazard == "directory":
            path.mkdir()
    with pytest.raises(NotMaterializedError, match=re.escape(f"no cuboid file 0.tsv in {shown}") + "$"):
        read_cuboid(directory, ["Gender"])
    assert not path.is_file()


@pytest.mark.parametrize(
    "old, new, match",
    [
        (b"\n", b"\r\n", r"meta holds a line break other than \\n"),
        (b"\n", b"\x1e", r"meta holds a line break other than \\n"),
        (b"dims,Gender", b"dims,Gender\\x4", r"malformed dimension name in 'Gender\\\\x4\\tCity'"),
    ],
    ids=["crlf-line-ends", "record-separator", "bad-dims-escape"],
)
def test_meta_refused(tmp_path, old, new, match):
    """meta follows the line rule of cuboid files: lines end in \\n alone."""
    write_cube(build_cube(make_g0()), tmp_path)
    meta = tmp_path / "meta"
    meta.write_bytes(meta.read_bytes().replace(old, new))
    with pytest.raises(CubeFormatError, match=re.escape(f"{tmp_path / 'meta'}: ") + match):
        read_cube_meta(tmp_path)
    with pytest.raises(CubeFormatError, match=match):
        read_cuboid(tmp_path, ["Gender"])


class TestReader:
    @pytest.fixture
    def gender(self, tmp_path):
        write_cube(build_cube(make_g0()), tmp_path)
        return tmp_path / "0.tsv"

    def test_n_record_without_m_record(self, gender):
        lines = gender.read_text().splitlines()
        gender.write_text("\n".join(line for line in lines if not line.startswith("M\t0\t")) + "\n")
        with pytest.raises(CubeFormatError, match="N and M"):
            read_cuboid(gender.parent, ["Gender"])

    def test_member_count_mismatch(self, gender):
        gender.write_text(gender.read_text().replace("N\tF\t3", "N\tF\t2"))
        with pytest.raises(CubeFormatError, match="does not match its count"):
            read_cuboid(gender.parent, ["Gender"])

    def test_repeated_m_record(self, gender):
        text = gender.read_text()
        gender.write_text(text + text.splitlines()[-1] + "\n")
        with pytest.raises(CubeFormatError, match="repeated"):
            read_cuboid(gender.parent, ["Gender"])

    @pytest.mark.parametrize(
        "after, record, match",
        [
            ("S\t1\t1", "S\t2\t7", "names no N record"),
            ("E\t0\t1\t5", "E\t5\t6\t9", "names no N record"),
            ("S\t1\t1", "S\t1\t2", "repeated"),
            ("E\t0\t1\t5", "E\t0\t1\t9", "repeated"),
            ("E\t0\t1\t5", "E\t1\t0\t9", "out of order"),  # the same pair, reversed
        ],
        ids=["unknown-S-label", "unknown-E-labels", "repeated-S", "repeated-E", "reversed-E"],
    )
    def test_record_refused(self, gender, after, record, match):
        gender.write_text(gender.read_text().replace(after + "\n", f"{after}\n{record}\n"))
        with pytest.raises(CubeFormatError, match=f"line [0-9].*{match}"):
            read_cuboid(gender.parent, ["Gender"])

    @pytest.mark.parametrize(
        "old, new, match",
        [
            ("N\tF\t3\nN\tM\t3", "N\tM\t3\nN\tF\t3", "line 2: .*N records out of order"),
            ("N\tM\t3", "N\tF\t3", "line 2: .*repeated"),
            ("N\tF\t3", "N\tF\\x4\t3", "line 1: .*escape"),
            ("S\t1\t1", "S\t-1\t1", "line 3: .*names no N record"),
            ("N\tF\t3", "N\tF\t3,1", r"line 1: 'N\\tF\\t3,1' \(not an integer\)"),
        ],
        ids=["n-out-of-order", "repeated-n", "bad-escape", "negative-cell", "count-holds-comma"],
    )
    def test_n_and_cell_numbers_refused(self, gender, old, new, match):
        gender.write_text(gender.read_text().replace(old, new))
        with pytest.raises(CubeFormatError, match=match):
            read_cuboid(gender.parent, ["Gender"])

    def test_not_utf8(self, gender):
        with gender.open("ab") as f:
            f.write(b"N\t\xff\t1\n")
        with pytest.raises(CubeFormatError, match=r"0\.tsv: byte 48 is not UTF-8"):
            read_cuboid(gender.parent, ["Gender"])

    def test_crlf_line_ends(self, gender):
        """A file with \\r\\n line ends is refused with the message that
        parse_cuboid gives for its bytes."""
        gender.write_bytes(gender.read_bytes().replace(b"\n", b"\r\n"))
        message = r"0\.tsv line 1: 'N\\tF\\t3\\r' \(line break inside a record\)"
        with pytest.raises(CubeFormatError, match=message) as got:
            read_cuboid(gender.parent, ["Gender"])
        with pytest.raises(CubeFormatError) as want:
            parse_cuboid(gender.read_bytes().decode("utf-8"), (0,), gender.name)
        assert str(got.value) == str(want.value)

    def test_section_out_of_order(self, gender):
        with gender.open("a") as f:
            f.write("S\t0\t7\n")
        with pytest.raises(CubeFormatError, match="line 7: 'S.*after the M section"):
            read_cuboid(gender.parent, ["Gender"])

    def test_empty_cuboid(self, gender):
        gender.write_text("")
        assert read_cuboid(gender.parent, ["Gender"]).nodes == []

    def test_field_count_checked_per_line(self, gender):
        # A 5-field and a 3-field line have as many fields as two E records,
        # and every fourth field is still "E".
        path = gender.parent / "0_1.tsv"
        path.write_text(path.read_text().replace("E\t0\t3\t1\n", "E\t0\t3\t1\tE\n1\t2\t3\n"))
        with pytest.raises(CubeFormatError, match="line 7: .*5 fields, not 4"):
            read_cuboid(gender.parent, ["Gender", "City"])


@pytest.mark.parametrize(
    "signature",
    [[0, "City"], ["Gender", 1], [0.7], [True], [False, 1], (1.5, 0), [None]],
    ids=["int-and-name", "name-and-int", "float", "bool", "bool-and-int", "floats", "none"],
)
def test_signature_of_names_or_indices_only(tmp_path, signature):
    """A signature is all dimension names or all int indices, in memory and
    on disk; no entry is converted, so 0.7 does not read cuboid (0,) nor True
    cuboid (1,)."""
    cube = build_cube(make_g0())
    write_cube(cube, tmp_path)
    with pytest.raises(QueryError, match="invalid signature"):
        read_cuboid(tmp_path, signature)
    with pytest.raises(QueryError, match="invalid signature"):
        query_cuboid(cube, signature)


# ---------------------------------------------------------------------------
# What read_cuboid keeps between calls (engine._OpenCube). Every read must
# equal parse_cuboid of the file's text at that moment.
# ---------------------------------------------------------------------------


def parse_now(directory, sig):
    _, path = cuboid_file(directory, sig)
    return parse_cuboid(path.read_bytes().decode("utf-8"), sig, path.name)


def kept_names():
    return set(engine._open_cube._kept)


class TestReadCache:
    @pytest.fixture
    def g0_cube(self, tmp_path):
        cube = build_cube(make_g0())
        write_cube(cube, tmp_path)
        return cube

    def test_same_length_tamper_after_admission(self, tmp_path, g0_cube):
        path = tmp_path / "0.tsv"
        for _ in range(2):
            assert read_cuboid(tmp_path, ["Gender"]) == g0_cube.cuboids[(0,)]
        assert "0.tsv" in kept_names()
        text = path.read_text()
        path.write_text(text.replace("S\t1\t1", "S\t1\t2"))
        net = read_cuboid(tmp_path, ["Gender"])
        assert net.self_edges[("M",)] == 2
        assert net == parse_now(tmp_path, (0,))
        path.write_text(text.replace("S\t1\t1", "S\t1\tx"))
        with pytest.raises(CubeFormatError, match="0.tsv line 3"):
            read_cuboid(tmp_path, ["Gender"])
        path.write_text(text)
        assert read_cuboid(tmp_path, ["Gender"]) == g0_cube.cuboids[(0,)]

    def test_another_cube_written_into_the_directory(self, tmp_path, g0_cube):
        for _ in range(2):
            for sig in g0_cube.cuboids:
                read_cuboid(tmp_path, sig)
        assert kept_names() == {"0.tsv", "1.tsv", "0_1.tsv"}
        other = build_cube(make_g0(), "ss-mean")
        assert other.cuboids != g0_cube.cuboids
        write_cube(other, tmp_path)
        for sig, net in other.cuboids.items():
            assert read_cuboid(tmp_path, sig) == net

    def test_changing_a_result_leaves_the_kept_network(self, tmp_path, g0_cube):
        want = g0_cube.cuboids[(0, 1)]
        for _ in range(3):
            net = read_cuboid(tmp_path, (0, 1))
            assert net == want
            net.self_edges[("M", "NY")] = 99
            net.cross_edges[("F", "LA"), ("M", "LA")] = 99
            net.nodes[0] = replace(net.nodes[0], members=net.nodes[0].members[1:])
            net.nodes.pop()
        assert "0_1.tsv" in kept_names()
        assert read_cuboid(tmp_path, (0, 1)) == want == parse_now(tmp_path, (0, 1))

    def test_each_call_returns_a_new_network(self, tmp_path, g0_cube):
        a, b = read_cuboid(tmp_path, (0,)), read_cuboid(tmp_path, (0,))
        c = read_cuboid(tmp_path, (0,))
        for x, y in ((a, b), (b, c), (a, c)):
            assert x == y and x is not y
            assert x.nodes is not y.nodes
            assert x.lo is not y.lo and x.hi is not y.hi and x.weight is not y.weight

    def test_one_read_pass_keeps_nothing(self, tmp_path):
        cube = build_cube(GRAPHS["gen"]())  # 15 cuboids
        write_cube(cube, tmp_path)
        for sig, net in cube.cuboids.items():
            assert read_cuboid(tmp_path, sig) == net
        assert kept_names() == set()
        for sig, net in cube.cuboids.items():
            assert read_cuboid(tmp_path, sig) == net
        assert len(kept_names()) == engine._KEPT_CUBOIDS < len(cube.cuboids)

    def test_a_full_cache_admits_only_a_more_read_cuboid(self, tmp_path):
        cube = build_cube(GRAPHS["gen"]())
        write_cube(cube, tmp_path)
        sigs = sorted(cube.cuboids, key=lambda s: (len(s), s))
        names = [engine._cuboid_filename(s) for s in sigs]
        k = engine._KEPT_CUBOIDS
        for sig in sigs[: k + 1]:
            read_cuboid(tmp_path, sig)
            read_cuboid(tmp_path, sig)
        assert kept_names() == set(names[:k])  # the (k+1)-th, read as often, waits
        read_cuboid(tmp_path, sigs[1])
        read_cuboid(tmp_path, sigs[k])  # now read more often than sigs[0]
        assert kept_names() == set(names[1 : k + 1])
        assert read_cuboid(tmp_path, sigs[k]) == cube.cuboids[sigs[k]]

    def test_a_kept_read_opens_two_files_and_parses_none(self, tmp_path, g0_cube, monkeypatch):
        """A kept read reads meta, then the cuboid, and parses nothing; a Path,
        its str and another os.PathLike of one directory share what is kept."""

        class CubeDir:
            def __fspath__(self):
                return str(tmp_path)

        for _ in range(2):
            read_cuboid(tmp_path, (0,))
        assert kept_names() == {"0.tsv"}
        read_bytes, parse = engine._read_bytes, engine.parse_cuboid
        opened, parsed = [], []

        def counted_read_bytes(path, what):
            opened.append(path)
            return read_bytes(path, what)

        def counted_parse(*args):
            parsed.append(args)
            return parse(*args)

        monkeypatch.setattr(engine, "_read_bytes", counted_read_bytes)
        monkeypatch.setattr(engine, "parse_cuboid", counted_parse)
        for directory in (tmp_path, str(tmp_path), CubeDir()):
            opened.clear()
            assert read_cuboid(directory, (0,)) == g0_cube.cuboids[(0,)]
            assert [os.path.basename(p) for p in opened] == ["meta", "0.tsv"]
            assert parsed == []
            assert kept_names() == {"0.tsv"}

    def test_another_directory_drops_everything(self, tmp_path, g0_cube):
        other = tmp_path / "other"
        write_cube(g0_cube, other)
        for _ in range(2):
            read_cuboid(tmp_path, (0,))
        assert kept_names() == {"0.tsv"}
        read_cuboid(other, (1,))
        assert kept_names() == set()
        read_cuboid(tmp_path, (0,))  # its count started again
        assert kept_names() == set()

    def test_meta_text_parsed_again_when_it_changes(self, tmp_path, g0_cube):
        meta = read_cube_meta(tmp_path)
        meta["dims"] = ("changed",)
        assert read_cube_meta(tmp_path)["dims"] == ("Gender", "City")
        path = tmp_path / "meta"
        text = path.read_text()
        path.write_text(text.replace("strategy,level-by-level", "strategy,steps-up"))
        assert read_cube_meta(tmp_path)["strategy"] == "steps-up"
        path.write_text(text.replace("max_level,2", "max_level,x"))
        with pytest.raises(CubeFormatError, match="max_level 'x' is not a number"):
            read_cube_meta(tmp_path)
        path.write_text(text)
        assert read_cube_meta(tmp_path)["max_level"] == "2"


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (CubeFormatError, NotMaterializedError) as exc:
        return type(exc), str(exc)


@functools.cache
def gen_cubes():
    g = GRAPHS["gen"]()
    return [build_cube(g, policy, max_level=level) for policy, level in (("none", 4), ("ss-mean", 4), ("none", 2))]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reads_follow_the_files_property(tmp_path_factory, data):
    """Reads, rewrites of the cube, same-length tampers and reads from another
    directory, interleaved: every read returns what parse_cuboid makes of the
    file's text at that moment, or raises the same error."""
    root = tmp_path_factory.mktemp("cache")
    dirs = [root / "a", root / "b"]
    cubes = gen_cubes()
    for d in dirs:
        write_cube(cubes[0], d)
    every = sorted(cubes[0].cuboids)
    sigs = st.one_of(st.sampled_from(every[:3]), st.sampled_from(every))  # some hot, all more than kept
    where = st.sampled_from(dirs[:1] * 4 + dirs[1:])  # mostly one directory, so something is kept
    read = st.tuples(st.just("read"), where, sigs)
    ops = st.one_of(
        read,
        read,
        st.tuples(st.just("rewrite"), where, st.sampled_from(range(len(cubes)))),
        st.tuples(st.just("tamper"), where, sigs),
    )
    for kind, d, arg in data.draw(st.lists(ops, min_size=10, max_size=40)):
        if kind == "rewrite":
            write_cube(cubes[arg], d)
        elif kind == "tamper":
            path = d / engine._cuboid_filename(arg)
            text = path.read_text(encoding="utf-8")
            if text:
                i = data.draw(st.integers(0, len(text) - 1))
                c = data.draw(st.sampled_from("0123456789x"))
                path.write_text(text[:i] + c + text[i + 1:], encoding="utf-8")
        else:
            assert outcome(read_cuboid, d, arg) == outcome(parse_now, d, arg)


def test_threads_reading_two_directories(tmp_path):
    """Threads read the cuboids of one directory, and now and then the same
    files of another directory that holds another cube, which drops what is
    kept. Every result must be the cube of the directory it was read from,
    and at most _KEPT_CUBOIDS networks are kept."""
    cubes = gen_cubes()[:2]
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d, cube in zip(dirs, cubes):
        write_cube(cube, d)
    sigs = sorted(cubes[0].cuboids)
    wrong = []

    def client(seed):
        rng = random.Random(seed)
        try:
            for n in range(150):
                i, sig = int(n % 50 == 49), sigs[min(rng.randrange(len(sigs)), rng.randrange(len(sigs)))]
                if read_cuboid(dirs[i], sig) != cubes[i].cuboids[sig]:
                    wrong.append((i, sig))
        except Exception as exc:  # a thread's exception would not fail the test
            wrong.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(5):
            threads = [threading.Thread(target=client, args=(4 * r + i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert len(kept_names()) <= engine._KEPT_CUBOIDS
