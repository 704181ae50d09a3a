import filecmp
import re

import pytest

from graphcube import load_graph, read_cuboid
from graphcube.cli import main
from tests.test_engine import build_cube


def run(*args):
    return main([str(a) for a in args])


class TestGen:
    def test_deterministic_files(self, tmp_path):
        for name in ("a", "b"):
            code = run(
                "gen", "--vertices", 100, "--edges", 300, "--dims", 3,
                "--card", 4, "--seed", 7, "--out", tmp_path / name,
            )
            assert code == 0
        for fname in ("vertices.csv", "edges.csv"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_infeasible_edges(self, tmp_path, capsys):
        code = run("gen", "--vertices", 10, "--edges", 100, "--out", tmp_path / "g")
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_hub_summary(self, tmp_path, capsys):
        code = run(
            "gen", "--vertices", 200, "--edges", 400, "--dims", 2,
            "--card", 3, "--hub", 0.05, "--out", tmp_path / "g",
        )
        assert code == 0
        assert "hub 10 (5% of vertices)" in capsys.readouterr().out


class TestSs:
    def test_g0_rows(self, tmp_path, g0_files, capsys):
        out = tmp_path / "ss.csv"
        code = run("ss", *g0_files, "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        keep = {tuple(line.split(",")[:2]): line.split(",")[4] for line in lines[1:]}
        assert keep[("Gender", "M")] == "true"
        assert keep[("Gender", "F")] == "false"

    def test_support_policy(self, tmp_path, g0_files):
        out = tmp_path / "ss.csv"
        assert run("ss", *g0_files, "--out", out, "--policy", "support", "--min-support", 3) == 0
        assert all(line.endswith("true") for line in out.read_text().splitlines()[1:])

    @pytest.mark.parametrize("min_support", [0, -5])
    def test_min_support_below_one(self, tmp_path, g0_files, min_support, capsys):
        out = tmp_path / "ss.csv"
        code = run("ss", *g0_files, "--out", out, "--policy", "support", "--min-support", min_support)
        assert code == 1
        assert "min_support must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_min_support_default_under_support(self, tmp_path, g0_files):
        out = tmp_path / "ss.csv"
        assert run("ss", *g0_files, "--out", out, "--policy", "support") == 0
        assert all(line.endswith("true") for line in out.read_text().splitlines()[1:])

    def test_repeated_dimension_name(self, tmp_path, capsys):
        (tmp_path / "v.csv").write_text("id,a,a\n1,x,y\n")
        (tmp_path / "e.csv").write_text("")
        assert run("ss", tmp_path / "v.csv", tmp_path / "e.csv", "--out", tmp_path / "ss.csv") == 2
        assert "v.csv: header repeats a dimension name" in capsys.readouterr().err

    def test_missing_edge_file(self, tmp_path, g0_files, capsys):
        code = run("ss", g0_files[0], tmp_path / "nope.csv", "--out", tmp_path / "ss.csv")
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestCube:
    def test_strategies_identical_directories(self, tmp_path, g0_files):
        for strat, name in (("level", "a"), ("steps", "b")):
            code = run(
                "cube", *g0_files, tmp_path / name, "--strategy", strat, "--policy", "none",
            )
            assert code == 0
        cmp = filecmp.dircmp(tmp_path / "a", tmp_path / "b")
        differing = set(cmp.diff_files) - {"meta"}  # meta holds strategy + timings
        assert not differing
        assert not cmp.left_only and not cmp.right_only

    def test_ss_mean_drops_pruned_cells(self, tmp_path, g0_files):
        assert run("cube", *g0_files, tmp_path / "c", "--policy", "ss-mean") == 0
        for f in (tmp_path / "c").iterdir():
            if f.name != "meta":
                assert "F" not in f.read_text()

    def test_max_level_zero_defaults_to_all(self, tmp_path, g0_files):
        assert run("cube", *g0_files, tmp_path / "c", "--max-level", 0) == 0
        assert (tmp_path / "c" / "0_1.tsv").is_file()  # Gender, City

    def test_max_level_out_of_range(self, tmp_path, g0_files, capsys):
        assert run("cube", *g0_files, tmp_path / "c", "--max-level", 9) == 1

    @pytest.mark.parametrize("strat", ["level", "steps"])
    def test_meta_has_one_timing_line_per_level(self, tmp_path, strat, capsys):
        gdir = tmp_path / "g"
        assert run(
            "gen", "--vertices", 40, "--edges", 80, "--dims", 4,
            "--card", 2, "--seed", 5, "--out", gdir,
        ) == 0
        out = tmp_path / "c"
        assert run(
            "cube", gdir / "vertices.csv", gdir / "edges.csv", out, "--strategy", strat,
            "--policy", "none",
        ) == 0
        meta = (out / "meta").read_text().splitlines()
        levels = [line.split(",")[1] for line in meta if line.startswith("level,")]
        assert levels == ["1", "2", "3", "4"]
        printed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert printed[-5:-1] == ["level 1", "level 2", "level 3", "level 4"]

    @pytest.mark.parametrize(
        "header, row",
        [
            ("id,a,a_b,b", "1,x,y,z"),
            ("id,a,b", "1,x|q,y"),
            ("id," + ",".join(c * 100 for c in "abc"), "1,x,y,z"),
        ],
        ids=["clashing-file-names", "separator-in-value", "file-name-too-long"],
    )
    def test_unreadable_cube_refused(self, tmp_path, header, row, capsys):
        """Names and values that joined file names and labels could not hold
        are written and read back."""
        (tmp_path / "v.csv").write_text(f"{header}\n{row}\n")
        (tmp_path / "e.csv").write_text("")
        assert run("cube", tmp_path / "v.csv", tmp_path / "e.csv", tmp_path / "c", "--policy", "none") == 0
        assert "error:" not in capsys.readouterr().err
        cube = build_cube(load_graph(tmp_path / "v.csv", tmp_path / "e.csv"))
        for sig, net in cube.cuboids.items():
            assert read_cuboid(tmp_path / "c", sig) == net


class TestQuery:
    @pytest.fixture
    def cube_dir(self, tmp_path, g0_files):
        out = tmp_path / "cube"
        assert run("cube", *g0_files, out, "--policy", "none") == 0
        return out

    def test_order_canonicalized(self, cube_dir, capsys):
        assert run("query", cube_dir, "--dims", "City,Gender") == 0
        first = capsys.readouterr().out
        assert run("query", cube_dir, "--dims", "Gender,City") == 0
        assert capsys.readouterr().out == first

    def test_gender_network(self, cube_dir, capsys):
        assert run("query", cube_dir, "--dims", "Gender") == 0
        out = capsys.readouterr().out
        assert out == (cube_dir / "0.tsv").read_bytes().decode("utf-8")
        assert out.startswith("N\tF\t3\nN\tM\t3\n")  # cell 0 is F, cell 1 is M
        assert "S\t1\t1" in out
        assert "E\t0\t1\t5" in out

    def test_damaged_cuboid_prints_nothing(self, cube_dir, capsys):
        path = cube_dir / "0.tsv"  # Gender
        data = path.read_bytes()
        path.write_bytes(data.replace(b"S\t1\t1", b"S\t1\tx"))
        assert run("query", cube_dir, "--dims", "Gender") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0.tsv line 3" in captured.err
        path.write_bytes(data.replace(b"\n", b"\r\n"))
        assert run("query", cube_dir, "--dims", "Gender") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0.tsv line 1: 'N\\tF\\t3\\r' (line break inside a record)" in captured.err

    def test_unknown_dimension(self, cube_dir, capsys):
        assert run("query", cube_dir, "--dims", "Bogus") == 3
        assert "unknown dimension Bogus" in capsys.readouterr().err

    def test_not_materialized(self, tmp_path, g0_files, capsys):
        out = tmp_path / "cube1"
        assert run("cube", *g0_files, out, "--max-level", 1) == 0
        assert run("query", out, "--dims", "Gender,City") == 3
        assert "Gender,City" in capsys.readouterr().err

    @pytest.mark.parametrize("hazard", ["meta-is-a-directory", "cube-is-a-file"])
    def test_no_meta_file(self, cube_dir, hazard, capsys):
        if hazard == "meta-is-a-directory":
            (cube_dir / "meta").unlink()
            (cube_dir / "meta").mkdir()
        else:
            cube_dir = cube_dir / "0.tsv"
        assert run("query", cube_dir, "--dims", "Gender") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no cube meta file" in captured.err

    def test_blank_meta_line(self, cube_dir, capsys):
        with (cube_dir / "meta").open("a") as f:
            f.write("\n")
        assert run("query", cube_dir, "--dims", "Gender") == 2
        assert "no comma" in capsys.readouterr().err

    def test_meta_of_another_format(self, cube_dir, capsys):
        meta = cube_dir / "meta"
        meta.write_text(meta.read_text().replace("format,2\n", "format,1\n"))
        assert run("query", cube_dir, "--dims", "Gender") == 2
        assert "cube format 1" in capsys.readouterr().err

    def test_meta_without_dims_line(self, cube_dir, capsys):
        meta = cube_dir / "meta"
        lines = meta.read_text().splitlines(keepends=True)
        meta.write_text("".join(line for line in lines if not line.startswith("dims,")))
        assert run("query", cube_dir, "--dims", "Gender") == 2
        assert "no dims line" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, target",
    [("ss", "vertices.csv"), ("cube", "edges.csv"), ("query", "0.tsv"), ("query", "meta")],
    ids=["ss-vertex-csv", "cube-edge-csv", "query-cuboid", "query-meta"],
)
def test_file_not_utf8_is_input_error(tmp_path, g0_files, command, target, capsys):
    """Every file the CLI reads is decoded through a check that names the file.
    The bad byte sits inside a well-formed record: a vertex row, an edge line,
    an N record, a meta line."""
    cube_dir = tmp_path / "cube"
    assert run("cube", *g0_files, cube_dir, "--policy", "none") == 0
    record = {"vertices.csv": b"7,\xff,NY\n", "edges.csv": b"1,\xff\n", "0.tsv": b"N\t\xff\t1\n",
              "meta": b"policy,\xff\n"}[target]
    with (tmp_path / target if target.endswith(".csv") else cube_dir / target).open("ab") as f:
        f.write(record)
    capsys.readouterr()
    args = {
        "ss": ("ss", *g0_files, "--out", tmp_path / "ss.csv"),
        "cube": ("cube", *g0_files, tmp_path / "cube2"),
        "query": ("query", cube_dir, "--dims", "Gender"),
    }[command]
    assert run(*args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(rf"{re.escape(target)}: byte \d+ is not UTF-8", captured.err)


@pytest.mark.parametrize("command", ["ss", "cube"])
@pytest.mark.parametrize("policy", [None, "ss-mean", "none"])
def test_min_support_needs_support_policy(tmp_path, g0_files, command, policy, capsys):
    """--min-support does nothing under another policy, so it is refused
    before any file is read or written."""
    out = tmp_path / "out"
    args = {"ss": ("ss", *g0_files, "--out", out), "cube": ("cube", *g0_files, out)}[command]
    policy_args = () if policy is None else ("--policy", policy)
    assert run(*args, *policy_args, "--min-support", 3) == 1
    assert "--min-support applies only to --policy support" in capsys.readouterr().err
    assert not out.exists()


def test_bench_is_not_a_subcommand():
    assert main(["bench", "v.csv", "e.csv", "--out", "b.csv"]) == 1


def test_unknown_subcommand_is_usage_error():
    assert main(["bogus"]) == 1


def test_help_exits_zero():
    assert main(["--help"]) == 0
