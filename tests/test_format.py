"""The cube's file format: pinned bytes, write/read round trip, and refusals."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcube import (
    CubeFormatError,
    GenParams,
    MultidimGraph,
    Strategy,
    generate_synthetic,
    read_cuboid,
    write_cube,
)
from tests.conftest import make_g0
from tests.test_engine import build_cube


def tsv_files(directory):
    return sorted(directory.glob("*.tsv")) if directory.exists() else []


GRAPHS = {
    "g0": make_g0,
    "gen": lambda: generate_synthetic(
        GenParams(vertex_count=200, edge_count=800, dim_count=4, cardinality=3, seed=3)
    ),
}

# SHA-256 of every cuboid file (meta carries wall-clock timings and is left out).
GOLDEN = {
    ("g0", "none"): {  # 4/4 values kept
        "City.tsv": "134f21c399aba9eaf5ce9f466ceb5cd25fd46c8df1405cf29f15a755edf48f63",
        "Gender.tsv": "9fdde34fa4b441f53ede5b59d39ff6b85161f1c1fafeb49c9665d3ead2c21040",
        "Gender_City.tsv": "a34f3f507270fce0ca44b0d37d063cebf7ec566309af67a6b5a935c32f1993ff",
    },
    ("g0", "ss-mean"): {  # 2/4 values kept
        "City.tsv": "7010133e43789e738d0d456587cbbac9f799e55c2c8d3599bbd2225e8a3bc921",
        "Gender.tsv": "8794758484b7648cd72a6d8c6229f90a2cb0fa8fcf291add5b01364cfed5d5b6",
        "Gender_City.tsv": "93697e3aff2c84525f0825a82713ba9fdc034a3d338d028d44b09328458e1719",
    },
    ("gen", "none"): {  # 12/12 values kept
        "dim0.tsv": "8088c451dc8aa9c44ba04ef593432936ea0cde251a262e420d4ad60c0dc2802e",
        "dim0_dim1.tsv": "524ab9f49eda661c8ef6600eba486587ef1f13d21a04ce09c328b5777264f17a",
        "dim0_dim1_dim2.tsv": "9e2d45deb8a1ff40367293c101b76f2eb2ecba3759d2208f08442b44f4d3f21e",
        "dim0_dim1_dim2_dim3.tsv": "09af51c27fe1cc14aa5a02bef3ff0b3dc51af3fbd067f517f2efa9ba1dc7e0d4",
        "dim0_dim1_dim3.tsv": "7ac17ac94ed6cd7ab2b723b94864b6a190827fe802e1580e24e14a23925e2aa8",
        "dim0_dim2.tsv": "ae3242937ea5991b592124992bf9b5151d4c03072de921498864622f7129a960",
        "dim0_dim2_dim3.tsv": "dae7560beaeee7009a632543d817f661af3ead551c459684f3ecb397c0debe90",
        "dim0_dim3.tsv": "4166d4839d635f07fce706823ae87ca4fcc1f229afe3d085fd7707358d654b2d",
        "dim1.tsv": "673ea5d3565af3795ae1dde58f5ea06673c1f5e12be31f530d35ad8e80787a07",
        "dim1_dim2.tsv": "cd3d38dc477b55830a5f038207b87036017cbf9a389015db4c0442b25f61bcdc",
        "dim1_dim2_dim3.tsv": "085161e4156a6d7fbed91c2b3e194882adcac5d5c266ed3e7fc0991db3d8a9a1",
        "dim1_dim3.tsv": "9c803bac6ea8f7b3afda55825243c14907b04cf24da179a9d6cb62740cbd497b",
        "dim2.tsv": "08d50a0d13e21e115e4b34746c8cde48bd064211e64cb577ce0c5afae6867d66",
        "dim2_dim3.tsv": "f90f812abd41f14509c96721a8d9aa68a61e2af3eac54246add9b999dcc9578d",
        "dim3.tsv": "ffb889dfeaa435638002cbc551360c689f5d8f9b91378d4f93509322670ae39f",
    },
    ("gen", "ss-mean"): {  # 6/12 values kept
        "dim0.tsv": "925542e9f86723324214e717c689cab31674ee1b1a41d833056bb71fdf80c7df",
        "dim0_dim1.tsv": "07871f29fbb4d8952937c877359087b706b69c5aaaa3053194c9a6586a4c0da9",
        "dim0_dim1_dim2.tsv": "8d41b7c5f18907e5827279ac3515499525b9c08a4c58db53bca9c91fc737bec0",
        "dim0_dim1_dim2_dim3.tsv": "9fbcb74ce2ff20067db6a138cbe59c2854c08260ec4549d9fc74a3813b837d75",
        "dim0_dim1_dim3.tsv": "e6222428e46a0a7c004588d5d93f0db2f52c6736a375a86ede168b79b764dd04",
        "dim0_dim2.tsv": "26c4f855a1e6040cb0159012c46b63d9982b45d99e824b38ca648979c491253b",
        "dim0_dim2_dim3.tsv": "73eac25eda4da0fc52abfda52067879244f5bc3f469c8638037eb18afddb3998",
        "dim0_dim3.tsv": "809643a65d820a0f354136c953632e1c86b8557b0ce5deb62d34ba897449efcc",
        "dim1.tsv": "7217b17d1892ed5e83bc94d2932c0cd13e227e6526bbaa35abc6bd2d050707a4",
        "dim1_dim2.tsv": "057df6ef1c49c3389c08826bb06b31d0498e90140173d85ef0e7d9ef6c07fedd",
        "dim1_dim2_dim3.tsv": "d5f6c8e4dcefedae4370e3af2ef364461f47e3f931bdddc82faf8a377158ca59",
        "dim1_dim3.tsv": "4a4172dc3b13726254bce5c976639bb24b2593d15e5eb15f3ada5f31bc6980e1",
        "dim2.tsv": "3bd3251a12435e8da9748ae921376e2fef6af6f69ce90acb5b90416ead50a0de",
        "dim2_dim3.tsv": "9e78010afe4a78f82e65830bb13560ee0098e81685498270df92035fbce27128",
        "dim3.tsv": "78e894ae72beb26b36f3f3ebbb117c13a23a622673b756c5cea8890324ff6209",
    },
}


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("graph, policy", sorted(GOLDEN))
def test_golden_bytes(tmp_path, graph, policy, strategy):
    write_cube(build_cube(GRAPHS[graph](), policy, strategy), tmp_path)
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tsv_files(tmp_path)}
    assert digests == GOLDEN[(graph, policy)]


# Names without commas, line breaks or surrogates, as a UTF-8 vertex CSV header
# gives them;
# "a", "b" and "a_b" make file names clash.
names = st.one_of(
    st.sampled_from(["a", "b", "a_b"]),
    st.text(
        st.characters(blacklist_characters=",", blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
        min_size=1,
        max_size=4,
    ),
)
values = st.one_of(
    st.sampled_from(["a", "b", "a|b", "x\ty", "n\n", "r\r", "\u2028"]),
    st.text(min_size=1, max_size=3),
)


@st.composite
def small_graphs(draw):
    dims = tuple(draw(st.lists(names, min_size=1, max_size=3, unique=True)))
    pool = draw(st.lists(values, min_size=1, max_size=4))
    n = draw(st.integers(1, 12))
    vertices = {v: tuple(draw(st.sampled_from(pool)) for _ in dims) for v in range(n)}
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    edges = frozenset((min(u, w), max(u, w)) for u, w in pairs if u != w)
    return MultidimGraph(dims=dims, vertices=vertices, edges=edges)


@settings(max_examples=150, deadline=None)
@given(g=small_graphs(), policy=st.sampled_from(["none", "ss-mean"]))
def test_write_read_roundtrip_property(tmp_path_factory, g, policy):
    out = tmp_path_factory.mktemp("cube")
    cube = build_cube(g, policy)
    try:
        write_cube(cube, out)
    except CubeFormatError:
        assert tsv_files(out) == []
        return
    for sig, net in cube.cuboids.items():
        assert read_cuboid(out, sig) == net


@pytest.mark.parametrize(
    "dims, match",
    [
        (("a", "a_b", "b"), "a_b.tsv"),  # {a_b} and {a,b} would share a_b.tsv
        (("a/b", "c"), "not a plain file name"),
        (("a\0", "c"), "not a plain file name"),
    ],
)
def test_unusable_file_names_refused(tmp_path, dims, match):
    g = MultidimGraph(dims=dims, vertices={1: tuple("xyz"[: len(dims)])}, edges=frozenset())
    with pytest.raises(CubeFormatError, match=match):
        write_cube(build_cube(g), tmp_path / "cube")
    assert tsv_files(tmp_path / "cube") == []


@pytest.mark.parametrize("value", ["x|q", "x\tq", "x\nq", "x\rq"])
def test_value_the_format_cannot_hold_refused(tmp_path, value):
    vertices = {1: (value, "y"), 2: ("w", "y")}
    g = MultidimGraph(dims=("d", "e"), vertices=vertices, edges=frozenset({(1, 2)}))
    with pytest.raises(CubeFormatError, match="value"):
        write_cube(build_cube(g), tmp_path / "cube")
    assert tsv_files(tmp_path / "cube") == []


class TestReader:
    @pytest.fixture
    def gender(self, tmp_path):
        write_cube(build_cube(make_g0()), tmp_path)
        return tmp_path / "Gender.tsv"

    def test_n_record_without_m_record(self, gender):
        lines = gender.read_text().splitlines()
        gender.write_text("\n".join(line for line in lines if not line.startswith("M\tF\t")) + "\n")
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
