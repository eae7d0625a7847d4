import re
import shlex
import weakref
from pathlib import Path

import numpy as np
import pytest

import pathidw.cli as cli
from pathidw import ConsistencyError, make_scene
from pathidw.cli import main
from pathidw.fileio import (
    read_ascii_grid,
    read_error_report,
    read_points,
    write_points,
    write_polygons,
)


def write_scene_inputs(tmp_path, *, scene="two-basin", seed=1, step=10.0, noise=0.5,
                       ncols=40, nrows=40):
    out = tmp_path / "scene"
    rc = main([
        "synth", "--scene", scene, "--seed", str(seed), "--step", str(step),
        "--noise", str(noise), "--ncols", str(ncols), "--nrows", str(nrows),
        "--out-dir", str(out),
    ])
    assert rc == 0
    return out


def run_pipeline(tmp_path, *, seed=1, ncols=40, nrows=40):
    """synth -> costraster -> split -> interpolate x2 -> crossval x2."""
    scene_dir = write_scene_inputs(tmp_path, seed=seed, ncols=ncols, nrows=nrows)
    extent = f"0,0,{ncols * 60},{nrows * 60}"
    cost = tmp_path / "cost.asc"
    assert main([
        "costraster", "--polygons", str(scene_dir / "polygons.txt"),
        "--extent", extent, "--cellsize", "60", "--out", str(cost),
    ]) == 0
    train, valid = tmp_path / "train.csv", tmp_path / "valid.csv"
    assert main([
        "split", "--points", str(scene_dir / "track.csv"),
        "--mesh-cellsize", "1095.4", "--per-cell", "1", "--seed", str(seed),
        "--train-out", str(train), "--valid-out", str(valid),
    ]) == 0
    reports = {}
    for method in ("ipdw", "idw"):
        pred = tmp_path / f"pred_{method}.asc"
        assert main([
            "interpolate", "--method", method, "--train", str(train),
            "--cost", str(cost), "--out", str(pred),
        ]) == 0
        report = tmp_path / f"report_{method}.csv"
        assert main([
            "crossval", "--pred", str(pred), "--valid", str(valid),
            "--out", str(report),
        ]) == 0
        reports[method] = report
    return reports


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_walkthrough():
    """README's walkthrough: its ``pathidw`` commands and the notes it quotes."""
    section = README.read_text().split("## Command line walkthrough\n", 1)[1]
    commands, notes = re.findall(r"```[a-z]*\n(.*?)```", section, re.S)[:2]
    commands = [shlex.split(line) for line in commands.replace("\\\n", " ").splitlines()]
    return commands, notes.splitlines()


class TestReadmeWalkthrough:
    def test_commands_write_the_quoted_notes(self, tmp_path, monkeypatch, capsys):
        commands, quoted = readme_walkthrough()
        assert len(commands) == 7
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert argv[0] == "pathidw"
            assert main(argv[1:]) == 0, argv
        notes = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("wrote demo/report_")]
        assert len(quoted) == 2
        assert notes == quoted


class TestSynth:
    def test_writes_three_files(self, tmp_path):
        out = write_scene_inputs(tmp_path)
        assert (out / "polygons.txt").is_file()
        assert (out / "truth.asc").is_file()
        assert (out / "track.csv").is_file()

    def test_truth_matches_library_scene(self, tmp_path):
        out = write_scene_inputs(tmp_path, seed=3, ncols=30, nrows=20)
        scene = make_scene("two-basin", ncols=30, nrows=20, seed=3)
        truth = read_ascii_grid(out / "truth.asc")
        assert np.allclose(truth.values, scene.truth.values, atol=5e-7)
        track, _ = read_points(out / "track.csv")
        assert np.array_equal(track.x, scene.track.x)
        assert np.array_equal(track.values, scene.track.values)

    def test_rerun_is_byte_identical(self, tmp_path):
        a = write_scene_inputs(tmp_path / "a", seed=9)
        b = write_scene_inputs(tmp_path / "b", seed=9)
        for name in ("polygons.txt", "truth.asc", "track.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_stdout_stays_clean(self, tmp_path, capsys):
        write_scene_inputs(tmp_path)
        out = capsys.readouterr()
        assert out.out == ""
        assert "track points" in out.err


class TestCostraster:
    def test_two_valued_output(self, tmp_path):
        scene_dir = write_scene_inputs(tmp_path)
        cost_path = tmp_path / "cost.asc"
        assert main([
            "costraster", "--polygons", str(scene_dir / "polygons.txt"),
            "--extent", "0,0,2400,2400", "--cellsize", "60",
            "--out", str(cost_path),
        ]) == 0
        grid = read_ascii_grid(cost_path)
        assert set(np.unique(grid.values)) == {1.0, 10000.0}
        # One full-height wall column of land cells.
        assert np.count_nonzero(grid.values == 10000.0) == 40

    def test_extent_must_be_well_formed(self, tmp_path, capsys):
        scene_dir = write_scene_inputs(tmp_path)
        rc = main([
            "costraster", "--polygons", str(scene_dir / "polygons.txt"),
            "--extent", "0,0,10", "--cellsize", "60",
            "--out", str(tmp_path / "cost.asc"),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_polygon_file(self, tmp_path, capsys):
        rc = main([
            "costraster", "--polygons", str(tmp_path / "nope.txt"),
            "--extent", "0,0,100,100", "--cellsize", "10",
            "--out", str(tmp_path / "cost.asc"),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestSplit:
    def test_partition_and_determinism(self, tmp_path):
        scene_dir = write_scene_inputs(tmp_path)
        track, _ = read_points(scene_dir / "track.csv")
        t1, v1 = tmp_path / "t1.csv", tmp_path / "v1.csv"
        t2, v2 = tmp_path / "t2.csv", tmp_path / "v2.csv"
        for t, v in ((t1, v1), (t2, v2)):
            assert main([
                "split", "--points", str(scene_dir / "track.csv"),
                "--mesh-cellsize", "500", "--seed", "7",
                "--train-out", str(t), "--valid-out", str(v),
            ]) == 0
        assert t1.read_bytes() == t2.read_bytes()
        assert v1.read_bytes() == v2.read_bytes()
        train, _ = read_points(t1)
        valid, _ = read_points(v1)
        assert len(train) + len(valid) == len(track)

    def test_seed_changes_pick(self, tmp_path):
        scene_dir = write_scene_inputs(tmp_path)
        outs = []
        for seed in (1, 2):
            t = tmp_path / f"t{seed}.csv"
            assert main([
                "split", "--points", str(scene_dir / "track.csv"),
                "--mesh-cellsize", "500", "--seed", str(seed),
                "--train-out", str(t), "--valid-out", str(tmp_path / f"v{seed}.csv"),
            ]) == 0
            outs.append(t.read_bytes())
        assert outs[0] != outs[1]


class TestInterpolateAndCrossval:
    def test_path_method_beats_straight_line_on_two_basin(self, tmp_path):
        reports = run_pipeline(tmp_path, seed=1)
        ipdw = read_error_report(reports["ipdw"])
        idw = read_error_report(reports["idw"])
        assert ipdw.mae < idw.mae

    def test_reports_carry_counts(self, tmp_path):
        reports = run_pipeline(tmp_path, seed=2)
        report = read_error_report(reports["ipdw"])
        assert report.n_evaluated > 100
        assert report.n_nodata == 0

    def test_rerun_gives_identical_bytes(self, tmp_path):
        r1 = run_pipeline(tmp_path / "a", seed=3)
        r2 = run_pipeline(tmp_path / "b", seed=3)
        for method in ("ipdw", "idw"):
            pred = f"pred_{method}.asc"
            assert (tmp_path / "a" / pred).read_bytes() == (tmp_path / "b" / pred).read_bytes()
            # Report preambles embed input paths, so compare parsed content.
            a, b = read_error_report(r1[method]), read_error_report(r2[method])
            for column in ("index", "observed", "predicted", "residual"):
                assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_single_power_flag_serves_both_methods(self):
        parser = cli._build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        interp = sub.choices["interpolate"]
        options = [s for action in interp._actions for s in action.option_strings]
        assert options.count("--power") == 1
        assert options.count("--neighbors") == 1
        assert not any("ipdw-power" in s or "idw-power" in s for s in options)

    def test_cost_raster_with_three_values_rejected(self, tmp_path, capsys):
        bad = tmp_path / "cost.asc"
        bad.write_text(
            "ncols 3\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 60\n"
            "NODATA_value -9999\n1 2 3\n"
        )
        train = tmp_path / "train.csv"
        write_points(read_points_from_rows([[30, 30, 1.0]]), train)
        rc = main([
            "interpolate", "--method", "ipdw", "--train", str(train),
            "--cost", str(bad), "--out", str(tmp_path / "pred.asc"),
        ])
        assert rc == 1
        assert "two-valued" in capsys.readouterr().err


def read_points_from_rows(rows):
    from pathidw import PointSet

    arr = np.asarray(rows, dtype=float)
    return PointSet(x=arr[:, 0], y=arr[:, 1], values=arr[:, 2])


class TestCompare:
    def make_reports(self, tmp_path, n=3, better="a"):
        paths_a, paths_b = [], []
        rng = np.random.default_rng(0)
        for i in range(n):
            obs = rng.uniform(0, 10, size=6)
            shift_a = 0.1 if better == "a" else 0.4
            shift_b = 0.4 if better == "a" else 0.1
            for tag, shift, bucket in (("a", shift_a, paths_a), ("b", shift_b, paths_b)):
                path = tmp_path / f"report_{tag}{i}.csv"
                rows = "\n".join(
                    f"{j},{float(o)!r},{float(o + shift)!r},{shift!r}"
                    for j, o in enumerate(obs)
                )
                path.write_text(
                    "point_index,observed,predicted,residual\n" + rows + "\n"
                )
                bucket.append(str(path))
        return paths_a, paths_b

    def test_paired_outputs(self, tmp_path):
        paths_a, paths_b = self.make_reports(tmp_path)
        out_test = tmp_path / "test.csv"
        out_table = tmp_path / "table.csv"
        assert main([
            "compare", "--reports-a", *paths_a, "--reports-b", *paths_b,
            "--out-test", str(out_test), "--out-table", str(out_table),
        ]) == 0
        lines = out_test.read_text().splitlines()
        assert lines[-1] == "-6.0,0.25,3,0,exact"
        table = out_table.read_text().splitlines()
        assert table[-4] == "survey,range,mae_a,mae_b"
        for i, (row, path_a, path_b) in enumerate(zip(table[-3:], paths_a, paths_b)):
            a, b = read_error_report(path_a), read_error_report(path_b)
            assert row == f"{i},{a.observed_range()!r},{a.mae!r},{b.mae!r}"

    def test_holds_one_report_at_a_time(self, tmp_path, monkeypatch):
        paths_a, paths_b = self.make_reports(tmp_path, n=4)
        earlier = []

        def spy(path):
            assert all(ref() is None for ref in earlier), "an earlier report is still held"
            report = read_error_report(path)
            earlier.append(weakref.ref(report))
            return report

        monkeypatch.setattr(cli, "read_error_report", spy)
        assert main([
            "compare", "--reports-a", *paths_a, "--reports-b", *paths_b,
            "--out-test", str(tmp_path / "t.csv"), "--out-table", str(tmp_path / "tab.csv"),
        ]) == 0
        assert len(earlier) == 8

    def test_bad_index_names_the_report_and_line(self, tmp_path, capsys):
        paths_a, paths_b = self.make_reports(tmp_path)
        bad = Path(paths_b[1])
        lines = bad.read_text().splitlines()
        lines[2] = "1.0" + lines[2][1:]
        bad.write_text("\n".join(lines) + "\n")
        rc = main([
            "compare", "--reports-a", *paths_a, "--reports-b", *paths_b,
            "--out-test", str(tmp_path / "t.csv"), "--out-table", str(tmp_path / "tab.csv"),
        ])
        assert rc == 1
        assert (f"error: {bad}, line 3, column 1: point index is not an integer: '1.0'"
                in capsys.readouterr().err)

    def test_mismatched_report_lists(self, tmp_path, capsys):
        paths_a, paths_b = self.make_reports(tmp_path)
        rc = main([
            "compare", "--reports-a", *paths_a, "--reports-b", *paths_b[:-1],
            "--out-test", str(tmp_path / "t.csv"),
            "--out-table", str(tmp_path / "tab.csv"),
        ])
        assert rc == 1
        assert "pair up" in capsys.readouterr().err


class TestScalogramCommand:
    def test_writes_rows_and_knee_note(self, tmp_path):
        land = tmp_path / "land.txt"
        from pathidw import PolygonSet

        def ring(x0, y0, x1, y1):
            return np.array(
                [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], dtype=float
            )

        write_polygons(
            PolygonSet((ring(100, 100, 800, 500), ring(1500, 900, 2100, 1900))),
            land,
        )
        out = tmp_path / "scalo.csv"
        assert main([
            "scalogram", "--polygons", str(land), "--extent", "0,0,2500,2500",
            "--cellsizes", "50..100:10", "--out", str(out),
        ]) == 0
        text = out.read_text()
        assert "# grain_choice: advisory only" in text
        assert "cellsize,edge_density_m_per_ha" in text
        data_rows = [
            line for line in text.splitlines()
            if line and not line.startswith("#") and not line.startswith("cellsize")
        ]
        assert len(data_rows) == 6
        assert data_rows[0].startswith("50,")

    def test_bad_cellsizes(self, tmp_path, capsys):
        land = tmp_path / "land.txt"
        land.write_text("")
        rc = main([
            "scalogram", "--polygons", str(land), "--extent", "0,0,100,100",
            "--cellsizes", "100..50:10", "--out", str(tmp_path / "s.csv"),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestExitStatus:
    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_version_text(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "pathidw" in out
        assert "power=2.0" in out

    def test_internal_failure_maps_to_exit_2(self, tmp_path, monkeypatch, capsys):
        def boom(args):
            raise ConsistencyError("forced for the test")

        monkeypatch.setattr(cli, "_cmd_synth", boom)
        rc = main([
            "synth", "--scene", "gradient", "--seed", "0",
            "--out-dir", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert "internal consistency failure" in capsys.readouterr().err
