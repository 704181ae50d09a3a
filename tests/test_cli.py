import filecmp

import pytest

from graphcube.cli import main


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
        assert (tmp_path / "c" / "Gender_City.tsv").is_file()

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
        [("id,a,a_b,b", "1,x,y,z"), ("id,a,b", "1,x|q,y")],
        ids=["clashing-file-names", "separator-in-value"],
    )
    def test_unreadable_cube_refused(self, tmp_path, header, row, capsys):
        (tmp_path / "v.csv").write_text(f"{header}\n{row}\n")
        (tmp_path / "e.csv").write_text("")
        assert run("cube", tmp_path / "v.csv", tmp_path / "e.csv", tmp_path / "c", "--policy", "none") == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.tsv"))


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
        assert "S\tM\t1" in out
        assert "E\tF\tM\t5" in out

    def test_unknown_dimension(self, cube_dir, capsys):
        assert run("query", cube_dir, "--dims", "Bogus") == 3
        assert "unknown dimension Bogus" in capsys.readouterr().err

    def test_not_materialized(self, tmp_path, g0_files, capsys):
        out = tmp_path / "cube1"
        assert run("cube", *g0_files, out, "--max-level", 1) == 0
        assert run("query", out, "--dims", "Gender,City") == 3
        assert "Gender,City" in capsys.readouterr().err

    def test_blank_meta_line(self, cube_dir, capsys):
        with (cube_dir / "meta").open("a") as f:
            f.write("\n")
        assert run("query", cube_dir, "--dims", "Gender") == 2
        assert "no comma" in capsys.readouterr().err

    def test_meta_without_dims_line(self, cube_dir, capsys):
        meta = cube_dir / "meta"
        lines = meta.read_text().splitlines(keepends=True)
        meta.write_text("".join(line for line in lines if not line.startswith("dims,")))
        assert run("query", cube_dir, "--dims", "Gender") == 2
        assert "no dims line" in capsys.readouterr().err


class TestBench:
    def test_report_rows(self, tmp_path, g0_files):
        out = tmp_path / "bench.csv"
        assert run("bench", *g0_files, "--repeats", 3, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# environment=")
        assert lines[1] == "strategy,policy,max_level,wall_millis,nodes_emitted,combines_attempted"
        assert len(lines) == 2 + 6  # 2 strategies x 3 repeats

    def test_matched_combines_invariant(self, tmp_path):
        gdir = tmp_path / "g"
        assert run(
            "gen", "--vertices", 80, "--edges", 200, "--dims", 4,
            "--card", 2, "--seed", 3, "--out", gdir,
        ) == 0
        out = tmp_path / "bench.csv"
        assert run(
            "bench", gdir / "vertices.csv", gdir / "edges.csv", "--repeats", 2, "--out", out
        ) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        by_strategy = {}
        for row in rows:
            by_strategy.setdefault(row[0], []).append(row)
            assert float(row[3]) > 0
        for lvl_row, steps_row in zip(by_strategy["level-by-level"], by_strategy["steps-up"]):
            assert int(steps_row[5]) <= int(lvl_row[5])
            assert lvl_row[4] == steps_row[4]  # same node count

    def test_usage_error_on_bad_repeats(self, tmp_path, g0_files):
        assert run("bench", *g0_files, "--repeats", 0, "--out", tmp_path / "b.csv") == 1


def test_unknown_subcommand_is_usage_error():
    assert main(["bogus"]) == 1


def test_help_exits_zero():
    assert main(["--help"]) == 0
