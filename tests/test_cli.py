import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from sipf import cli, descriptors
from sipf.cli import (
    EXIT_INVARIANCE,
    EXIT_OK,
    EXIT_VALIDATION,
    INVARIANCE_THRESHOLD,
    _build_parser,
    _field_inputs,
    _usable_edges,
    load_config,
    main,
)
from sipf.cloudio import _CSV_CHUNK_ROWS, load_cloud
from sipf.descriptors import MASK_SIPF, ShadowCloud, sipf_field
from sipf.errors import InvalidInputError
from sipf.geometry import PointCloud, knn_graph, random_rotation
from sipf.training import ToyTaskConfig

from conftest import sipf_stack

# SHA-256 of the features CSV for the grid in test_golden_csv_bytes.
GOLDEN_FEATURES_SHA256 = "5cd1c552c9fde81cbd41f4c3de3d75e19c34499a944eacad7690c5cb30eb601f"
# ... for the 600-point cloud in test_golden_csv_bytes_several_chunks.
GOLDEN_FEATURES_600_SHA256 = "1fb306ff1609e22c104cd658d408b8cfd8517ebab9c87e3f44c1a18bfe9f3a2c"
# ... for the 2,500-point lattice of _write_lattice_cloud, with normals (three field blocks).
GOLDEN_FEATURES_LATTICE_SHA256 = "fa289d84c802925b62364c036dd3003ef179d2c2f451895f71bd16605357b79c"
# The 3-trial verify-invariance reports on that lattice without normals, without and with --break-shadow.
GOLDEN_LATTICE_REPORTS = {
    False: '{\n  "trials": 3,\n  "max_abs_deviation": 5.467848396278896e-14,\n  "threshold": 1e-08,\n'
    '  "break_shadow": false,\n  "pass": true\n}\n',
    True: '{\n  "trials": 3,\n  "max_abs_deviation": 1.9938802141994079,\n  "threshold": 1e-08,\n'
    '  "break_shadow": true,\n  "pass": false\n}\n',
}
# ... of `bingham sample -n 2000 --seed 3`.
GOLDEN_BINGHAM_SAMPLE_SHA256 = "b7e78a6ad6c33aae861b52e320cb7ad24acae061a541874ed5cb92b8c88d9613"

TOY_CLOUD = "0 0 1\n1 0 1\n0 1 1\n0.2 0.3 1.4\n1.1 0.9 0.6\n"


@pytest.fixture
def cloud_file(tmp_path):
    path = tmp_path / "toy.xyz"
    path.write_text(TOY_CLOUD)
    return str(path)


@pytest.fixture
def coincident_cloud_file(tmp_path):
    """Forty random points with point 7 a copy of point 5."""
    pts = np.random.default_rng(0).uniform(-1, 1, (40, 3))
    pts[7] = pts[5]
    path = tmp_path / "coincident.xyz"
    path.write_text("".join(" ".join(format(v, ".17g") for v in row) + "\n" for row in pts))
    return str(path)


def _write_lattice_cloud(path, normals):
    """2,500 points on a 1/256 lattice, with integer normals if ``normals``, so the file text is
    exact.  Points 0-3 lie on the z axis, which the shadow rotation 0.6,0,0,0.8 (about z) leaves
    fixed: the row policy drops them.  The 2,496 kept rows span three of sipf_field's blocks,
    one of them on the second lane, and the kept-row gathers run."""
    rng = np.random.default_rng(2500)
    pts = rng.integers(-1024, 1025, size=(2500, 3)) / 256
    dirs = rng.integers(-3, 4, size=(2500, 3))
    dirs[:, 2] = rng.integers(1, 4, size=2500)
    pts[:4] = [(0.0, 0.0, 0.0), (0.0, 0.0, 1.5), (0.0, 0.0, -2.25), (0.0, 0.0, 3.75)]
    rows = [
        f"{x!r} {y!r} {z!r}" + (f" {a} {b} {c}" if normals else "")
        for (x, y, z), (a, b, c) in zip(pts.tolist(), dirs.tolist())
    ]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


LATTICE_WARNINGS = "".join(
    f"warning: shadow coincides with point {i}; rows omitted\n" for i in range(4)
) + "warning: 4 point(s) omitted\n"


COINCIDENT_WARNINGS = "warning: coincident points 5 and 7; rows omitted\nwarning: 2 point(s) omitted\n"


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"epochs": 3, "k": 8, "seed": 1}))
    return str(path)


class TestConfig:
    def test_defaults(self):
        config = ToyTaskConfig()
        assert config.k == 20
        assert config.delta == 0.8
        assert config.descriptor_mask == "sipf"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"k": 20, "verbosity": 3}')
        with pytest.raises(InvalidInputError) as excinfo:
            load_config(str(path))
        assert "verbosity" in str(excinfo.value)

    def test_wrong_type_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"k": "twenty"}')
        with pytest.raises(InvalidInputError) as excinfo:
            load_config(str(path))
        assert "k" in str(excinfo.value)

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"k": 0}')
        with pytest.raises(InvalidInputError):
            load_config(str(path))

    def test_negative_seed_flag_is_a_validation_error(self, cloud_file, capsys):
        assert main(["features", "--input", cloud_file, "--seed", "-1"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be")
        assert "Traceback" not in err

    def test_negative_config_seed_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"seed": -3}')
        with pytest.raises(InvalidInputError):
            load_config(str(path))
        assert main(["bingham", "mode", "--config", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: config field seed must be")

    def test_bad_json_exit_code(self, tmp_path, cloud_file, capsys):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        code = main(["features", "--input", cloud_file, "--config", str(path)])
        assert code == EXIT_VALIDATION


class TestFeatures:
    def test_three_point_toy_matches_library(self, tmp_path, capsys):
        path = tmp_path / "tri.xyz"
        path.write_text("0 0 1\n1 0 1\n0 1 1\n")
        out = tmp_path / "features.csv"
        code = main(["features", "--input", str(path), "--k", "1", "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "ref_index,nbr_index,ppf1,ppf2,ppf3,ppf4,sippf1,sippf2,sippf3,sippf4"
        assert len(lines) == 4  # header + one row per point at k=1

        from sipf.cli import _seeded_shadow_rotation
        from sipf.cloudio import load_cloud
        from sipf.descriptors import shadow_of, sipf_field
        from sipf.geometry import knn_graph
        from sipf.lrf import FRAME_MODE_BARYCENTER, build_all_lrfs

        cloud = load_cloud(str(path))
        graph = knn_graph(cloud, 1)
        axes = build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        shadow = shadow_of(cloud, axes, _seeded_shadow_rotation(3))
        field = sipf_field(cloud, axes, graph, shadow)
        for line in lines[1:]:
            fields = line.split(",")
            r, j = int(fields[0]), int(fields[1])
            values = np.array([float(v) for v in fields[2:]])
            assert graph.indices[r][0] == j
            # Bitwise round trip against the in-memory values ...
            assert np.array_equal(values, field[r, 0])
            # ... and agreement with the per-pair reference route.
            assert np.abs(values - sipf_stack(cloud, axes, graph, shadow, r)[0]).max() < 1e-12

    def test_byte_identical_across_runs(self, cloud_file, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            assert main(["features", "--input", cloud_file, "--k", "2", "--seed", "7", "--out", str(out)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_explicit_rotation_flag(self, cloud_file, tmp_path):
        out = tmp_path / "f.csv"
        code = main([
            "features", "--input", cloud_file, "--k", "2",
            "--rotation", "0.7071067811865476,0.7071067811865476,0,0", "--out", str(out),
        ])
        assert code == EXIT_OK

    def test_cloud_with_normals_uses_normal_frames(self, tmp_path):
        path = tmp_path / "n.xyz"
        path.write_text(
            "1 1 1 0 0 1\n2 1 1 0 0 1\n1 2 1 0 0 1\n1.4 1.7 1.1 0 1 0\n"
        )
        out = tmp_path / "n.csv"
        assert main(["features", "--input", str(path), "--k", "2", "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().strip().split("\n")) == 9  # header + 4*2 rows

    def test_golden_csv_bytes(self, tmp_path, capsys):
        # A 5 x 5 grid lifted by integer patterns, with tilted normals.  Every
        # input value is an exact ratio of small integers, so the file text is
        # the same on every platform.  The hash pins the CSV bytes, number
        # formatting included; it was computed with numpy 2.4 on x86-64.
        rows = []
        for i in range(5):
            for j in range(5):
                z = ((3 * i + 2 * j * j) % 7) / 10
                normal = f"{(i + 2 * j) % 5 - 2} {(2 * i + j) % 3 - 1} 4"
                rows.append(f"{(i + 1) / 4!r} {(j + 1) / 4 + i / 16!r} {z!r} {normal}")
        path = tmp_path / "golden.xyz"
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "golden.csv"
        code = main([
            "features", "--input", str(path), "--k", "6",
            "--rotation=0.8,0.36,0.48,0", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        data = out.read_bytes()
        assert data.count(b"\n") == 1 + 25 * 6
        assert hashlib.sha256(data).hexdigest() == GOLDEN_FEATURES_SHA256

    def test_golden_csv_bytes_several_chunks(self, tmp_path, capsys):
        # 600 points on a 1/128 lattice with integer normals, so the file text
        # is exact.  Points 0-2 lie on the z axis, which the shadow rotation
        # (about z) leaves fixed: the row policy drops them.  The CSV spans
        # several formatting chunks.
        rng = np.random.default_rng(600)
        pts = rng.integers(-512, 513, size=(600, 3)) / 128
        normals = rng.integers(-3, 4, size=(600, 3))
        normals[:, 2] = rng.integers(1, 4, size=600)
        pts[:3] = [(0.0, 0.0, 0.0), (0.0, 0.0, 1.5), (0.0, 0.0, -2.25)]
        rows = [
            f"{x!r} {y!r} {z!r} {a} {b} {c}"
            for (x, y, z), (a, b, c) in zip(pts.tolist(), normals.tolist())
        ]
        path = tmp_path / "golden600.xyz"
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "golden600.csv"
        code = main([
            "features", "--input", str(path), "--k", "20",
            "--rotation=0.6,0,0,0.8", "--out", str(out),
        ])
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert err.endswith("warning: 3 point(s) omitted\n")
        data = out.read_bytes()
        assert data.count(b"\n") - 1 > 2 * _CSV_CHUNK_ROWS
        assert hashlib.sha256(data).hexdigest() == GOLDEN_FEATURES_600_SHA256

    def test_golden_csv_bytes_several_field_blocks(self, tmp_path, capsys):
        path = _write_lattice_cloud(tmp_path / "lattice.xyz", normals=True)
        out = tmp_path / "lattice.csv"
        code = main([
            "features", "--input", path, "--k", "12", "--rotation=0.6,0,0,0.8", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert capsys.readouterr().err == LATTICE_WARNINGS
        data = out.read_bytes()
        assert len({row.split(b",")[0] for row in data.splitlines()[1:]}) > 2 * descriptors._FIELD_ROWS
        assert hashlib.sha256(data).hexdigest() == GOLDEN_FEATURES_LATTICE_SHA256

    def test_stdout_matches_file_output(self, cloud_file, tmp_path, capsysbinary):
        out = tmp_path / "f.csv"
        argv = ["features", "--input", cloud_file, "--k", "2", "--seed", "7"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        capsysbinary.readouterr()
        assert main(argv) == EXIT_OK
        assert capsysbinary.readouterr().out == out.read_bytes()

    def test_malformed_input_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.xyz"
        path.write_text("0 0 0\noops\n")
        code = main(["features", "--input", str(path)])
        assert code == EXIT_VALIDATION
        assert "line 2" in capsys.readouterr().err

    def test_origin_point_warns_and_omits(self, tmp_path, capsys):
        # The world origin coincides with its own shadow for every rotation.
        path = tmp_path / "origin.xyz"
        path.write_text("0 0 0\n1 0 0\n0 1 0\n0.4 0.7 0.1\n")
        out = tmp_path / "origin.csv"
        code = main(["features", "--input", str(path), "--k", "2", "--out", str(out)])
        assert code == EXIT_OK
        assert "shadow coincides with point 0" in capsys.readouterr().err
        for row in out.read_text().strip().split("\n")[1:]:
            r, j = map(int, row.split(",")[:2])
            assert 0 not in (r, j)

    def test_degenerate_frames_warn_and_omit(self, tmp_path, capsys):
        # Point 0 sits exactly between two opposite neighbors.
        path = tmp_path / "deg.xyz"
        path.write_text("0 0 0\n1 0 0\n-1 0 0\n0 5 0\n0 -5 0\n")
        out = tmp_path / "deg.csv"
        code = main(["features", "--input", str(path), "--k", "2", "--out", str(out)])
        assert code == EXIT_OK
        # Only point 0's primary axis is undefined; its neighbours' barycenter axes are not.
        assert capsys.readouterr().err == (
            "warning: degenerate frame at point 0; rows omitted\nwarning: 1 point(s) omitted\n"
        )
        rows = out.read_text().strip().split("\n")[1:]
        assert [tuple(map(int, row.split(",")[:2])) for row in rows] == [(1, 2), (2, 1), (3, 1), (4, 1)]

    def test_planar_grid_with_normals_keeps_every_row(self, tmp_path, capsys):
        # A 30 x 30 unit grid in the plane z = 3 with unit normals.  An interior
        # point's barycenter axis is zero, but its primary axis is its normal: no
        # point is dropped, and all 900 x 20 rows are written.
        path = tmp_path / "grid.xyz"
        xs, ys = np.meshgrid(np.arange(30.0) + 0.5, np.arange(30.0) - 7.25)
        path.write_text("".join(f"{x!r} {y!r} 3.0 0 0 1\n" for x, y in zip(xs.ravel().tolist(), ys.ravel().tolist())))
        out, report = tmp_path / "grid.csv", tmp_path / "grid.json"
        assert main(["features", "--input", str(path), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert len(out.read_text().splitlines()) == 1 + 900 * 20
        assert main(["verify-invariance", "--input", str(path), "--trials", "3", "--out", str(report)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert json.loads(report.read_text())["pass"] is True

    def test_coincident_points_warn_and_omit(self, coincident_cloud_file, tmp_path, capsys):
        out = tmp_path / "coincident.csv"
        code = main(["features", "--input", coincident_cloud_file, "--k", "4", "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == COINCIDENT_WARNINGS
        pairs = [tuple(map(int, row.split(",")[:2])) for row in out.read_text().strip().split("\n")[1:]]
        # Every edge between the 38 kept points is written, and no other.
        indices = knn_graph(load_cloud(coincident_cloud_file), 4).indices.tolist()
        expected = [(r, j) for r, row in enumerate(indices) for j in row if {r, j}.isdisjoint({5, 7})]
        assert pairs == expected


class TestPathErrors:
    """Unreadable input and unwritable output paths exit 1 with one error line naming the path."""

    def _assert_one_error(self, argv, path, capsys):
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    @pytest.mark.parametrize("name", ["missing.xyz", "missing.ply"])
    def test_missing_input(self, tmp_path, capsys, name):
        path = tmp_path / name
        self._assert_one_error(["features", "--input", str(path)], path, capsys)

    def test_directory_input(self, tmp_path, capsys):
        path = tmp_path / "dir.xyz"
        path.mkdir()
        self._assert_one_error(["features", "--input", str(path)], path, capsys)

    def test_undecodable_input(self, tmp_path, capsys):
        path = tmp_path / "noise.xyz"
        path.write_bytes(np.random.default_rng(0).integers(0, 256, 4096, dtype=np.uint8).tobytes())
        self._assert_one_error(["features", "--input", str(path)], path, capsys)

    def test_output_in_missing_directory(self, cloud_file, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.csv"
        self._assert_one_error(["features", "--input", cloud_file, "--k", "2", "--out", str(out)], out, capsys)
        assert not (tmp_path / "nodir").exists()

    def test_demo_output_directory_under_a_file(self, fast_config, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "demo"
        self._assert_one_error(["demo-wingtip", "--config", fast_config, "--out", str(out)], out, capsys)


def _rotate_field_inputs(cloud, axes, shadow, rotation):
    """Positions, primary axes and shadow under one joint rotation; the field reads no normals."""
    m = rotation.matrix
    shadow_r = ShadowCloud(points=shadow.points @ m, axes=shadow.axes @ m)
    return PointCloud(points=cloud.points @ m), axes @ m, shadow_r


class TestVerifyInvariance:
    def test_passes_on_valid_cloud(self, cloud_file, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "verify-invariance", "--input", cloud_file, "--k", "2",
            "--trials", "20", "--seed", "5", "--out", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["max_abs_deviation"] < 1e-8

    def test_break_shadow_negative_control(self, cloud_file, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "verify-invariance", "--input", cloud_file, "--k", "2",
            "--trials", "5", "--seed", "5", "--break-shadow", "--out", str(out),
        ])
        assert code == EXIT_INVARIANCE
        report = json.loads(out.read_text())
        assert report["pass"] is False
        assert report["max_abs_deviation"] > 1e-3

    @staticmethod
    def _report_from_gathered_edges(argv):
        """The report with every trial compared as ``np.abs(rotated[keep] - base).max()``.

        Also returns keep and the largest deviation over all edges, dropped ones included.
        """
        args = _build_parser().parse_args(argv)
        config, cloud, graph, axes, shadow, valid = _field_inputs(args)
        keep = _usable_edges(graph, valid)
        base = sipf_field(cloud, axes, graph, shadow, mask=MASK_SIPF, valid=valid)
        rng = np.random.default_rng([config.seed, 1])
        worst = worst_all = 0.0
        for _ in range(args.trials):
            cloud_r, axes_r, shadow_r = _rotate_field_inputs(cloud, axes, shadow, random_rotation(rng))
            if args.break_shadow:
                shadow_r = shadow
            rotated = sipf_field(cloud_r, axes_r, graph, shadow_r, mask=MASK_SIPF, valid=valid)
            worst = max(worst, float(np.abs(rotated[keep] - base[keep]).max()))
            worst_all = max(worst_all, float(np.abs(rotated - base).max()))
        report = {
            "trials": args.trials,
            "max_abs_deviation": worst,
            "threshold": INVARIANCE_THRESHOLD,
            "break_shadow": bool(args.break_shadow),
            "pass": worst <= INVARIANCE_THRESHOLD,
        }
        return report, keep, worst_all

    @pytest.mark.parametrize(
        "with_origin, break_shadow", [(False, False), (True, False), (False, True), (True, True)]
    )
    def test_report_matches_gathered_edge_comparison(self, tmp_path, with_origin, break_shadow):
        pts = np.random.default_rng(16).uniform(-1.0, 1.0, (8, 3))
        if with_origin:
            pts[0] = 0.0  # on its own shadow for every rotation: its rows and edges are dropped
        path = tmp_path / "cloud.xyz"
        np.savetxt(path, pts, fmt="%.17g")
        out = tmp_path / "report.json"
        argv = ["verify-invariance", "--input", str(path), "--k", "3", "--trials", "3", "--seed", "4"]
        argv += ["--break-shadow"] * break_shadow
        expected, keep, worst_all = self._report_from_gathered_edges(argv)
        assert keep.all() != with_origin
        if with_origin and break_shadow:
            # A dropped edge deviates most, so the comparison must leave it out.
            assert worst_all > expected["max_abs_deviation"]
        code = main([*argv, "--out", str(out)])
        assert code == (EXIT_INVARIANCE if break_shadow else EXIT_OK)
        assert out.read_text() == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.parametrize("break_shadow", [False, True])
    def test_golden_report_bytes_several_field_blocks(self, tmp_path, capsys, break_shadow):
        path = _write_lattice_cloud(tmp_path / "lattice.xyz", normals=False)
        out = tmp_path / "report.json"
        argv = [
            "verify-invariance", "--input", path, "--k", "12", "--rotation=0.6,0,0,0.8",
            "--trials", "3", "--seed", "3", "--out", str(out),
        ]
        assert main(argv + ["--break-shadow"] * break_shadow) == (EXIT_INVARIANCE if break_shadow else EXIT_OK)
        assert capsys.readouterr().err == LATTICE_WARNINGS
        assert out.read_text() == GOLDEN_LATTICE_REPORTS[break_shadow]

    @pytest.mark.parametrize("bad_trial, value", [(0, np.nan), (2, np.nan), (1, np.inf)])
    def test_non_finite_deviation_fails(self, cloud_file, tmp_path, monkeypatch, bad_trial, value):
        # One usable edge of one trial's field block is non-finite.  The deviation is then NaN
        # or inf: the command fails whichever trial it is, and the report stays strict JSON.
        # The trials run on two lanes, so a block's trial is told by its rotated points, the
        # first three of its stacked planes.
        points = load_cloud(cloud_file).points
        drawn = []
        draw = cli.random_rotation

        def recorded(rng):
            rotation = draw(rng)
            drawn.append(rotation.matrix)
            return rotation

        blocks = []
        field_rows = descriptors._field_rows

        def spoiled(*args):
            f = field_rows(*args)
            trials = [t for t, m in enumerate(drawn) if np.array_equal(args[0][:3], (points @ m).T)]
            if trials == [bad_trial]:
                f[5, 0, 0] = value
            blocks.append((trials, f.shape))
            return f

        monkeypatch.setattr(cli, "random_rotation", recorded)
        monkeypatch.setattr(descriptors, "_field_rows", spoiled)
        out = tmp_path / "report.json"
        argv = ["verify-invariance", "--input", cloud_file, "--k", "2", "--trials", "3", "--seed", "5"]
        assert main([*argv, "--out", str(out)]) == EXIT_INVARIANCE
        # One block for the unrotated field, which no trial's rotation gives, and one a trial.
        assert sorted(blocks) == [([], (8, 5, 2)), ([0], (8, 5, 2)), ([1], (8, 5, 2)), ([2], (8, 5, 2))]
        report = json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(f"{name} in the report"))
        assert report == {
            "trials": 3, "max_abs_deviation": None, "threshold": INVARIANCE_THRESHOLD,
            "break_shadow": False, "pass": False,
        }

    def test_zero_trials_usage_error(self, cloud_file):
        assert main(["verify-invariance", "--input", cloud_file, "--trials", "0"]) == EXIT_VALIDATION

    def _stderr_of_both(self, path, capsys, tmp_path, *options):
        """stderr of ``features`` and of ``verify-invariance`` on one cloud, and the latter's exit code."""
        common = ["--input", str(path), "--k", "2", *options]
        assert main(["features", *common, "--out", str(tmp_path / "f.csv")]) == EXIT_OK
        features_err = capsys.readouterr().err
        code = main(["verify-invariance", *common, "--trials", "4", "--out", str(tmp_path / "r.json")])
        return features_err, capsys.readouterr().err, code

    def test_origin_point_warns_like_features(self, tmp_path, capsys):
        path = tmp_path / "origin.xyz"
        path.write_text("0 0 0\n1 0 0\n0 1 0\n0.4 0.7 0.1\n")
        features_err, err, code = self._stderr_of_both(path, capsys, tmp_path)
        assert err == features_err == (
            "warning: shadow coincides with point 0; rows omitted\nwarning: 1 point(s) omitted\n"
        )
        assert code == EXIT_OK
        report = json.loads((tmp_path / "r.json").read_text())
        assert set(report) == {"trials", "max_abs_deviation", "threshold", "break_shadow", "pass"}
        assert report["trials"] == 4 and report["pass"] is True and report["break_shadow"] is False
        assert report["max_abs_deviation"] <= 1e-8

    def test_coincident_points_warn_like_features(self, coincident_cloud_file, tmp_path, capsys):
        features_err, err, code = self._stderr_of_both(coincident_cloud_file, capsys, tmp_path)
        assert err == features_err == COINCIDENT_WARNINGS
        assert code == EXIT_OK
        assert json.loads((tmp_path / "r.json").read_text())["pass"] is True

    def test_degenerate_frame_warns_like_features(self, tmp_path, capsys):
        # The TestFeatures cloud plus a generic patch, so some rows stay usable.
        path = tmp_path / "deg.xyz"
        path.write_text(
            "0 0 0\n1 0 0\n-1 0 0\n0 5 0\n0 -5 0\n3 3 3\n3.5 3.2 3.1\n3.1 3.6 2.9\n3.3 3.1 3.7\n"
        )
        features_err, err, code = self._stderr_of_both(path, capsys, tmp_path)
        assert err == features_err
        assert err.startswith("warning: degenerate frame at point 0; rows omitted\n")
        assert err.endswith(" point(s) omitted\n")
        assert code == EXIT_OK
        assert json.loads((tmp_path / "r.json").read_text())["pass"] is True

    def test_no_usable_row_is_a_validation_error(self, tmp_path, capsys):
        # Every point of the TestFeatures cloud is dropped or has only dropped
        # neighbors: point 0's frame is degenerate, and a quarter turn about x
        # puts points 1 and 2 on their own shadows.
        path = tmp_path / "deg.xyz"
        path.write_text("0 0 0\n1 0 0\n-1 0 0\n0 5 0\n0 -5 0\n")
        features_err, err, code = self._stderr_of_both(
            path, capsys, tmp_path, "--rotation=0.7071067811865476,0.7071067811865476,0,0")
        assert code == EXIT_VALIDATION
        assert err.startswith(features_err)
        assert err[len(features_err):].startswith("error: no descriptor row is usable")
        assert (tmp_path / "f.csv").read_text().count("\n") == 1  # features: header only

    def test_identity_rotation_leaves_no_usable_row(self, cloud_file, capsys):
        # The identity puts every point on its own shadow.
        code = main([
            "verify-invariance", "--input", cloud_file, "--trials", "2", "--k", "2",
            "--rotation=1,0,0,0",
        ])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("shadow coincides with point") == 5
        assert "warning: 5 point(s) omitted\nerror: no descriptor row is usable" in err
        assert "Traceback" not in err


class TestBingham:
    def test_entropy_reports_softplus_lambdas(self, tmp_path):
        out = tmp_path / "entropy.json"
        code = main(["bingham", "entropy", "--z1", "1,0,0,0", "--z2", "0,0,0", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert np.allclose(report["lambda"][:3], [-2.0794, -1.3863, -0.6931], atol=1e-3)
        assert report["F"] > 0

    def test_entropy_near_uniform_limit(self, tmp_path):
        out = tmp_path / "entropy.json"
        code = main(["bingham", "entropy", "--z1", "1,0,0,0", "--z2=-14,-14,-14", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert abs(report["entropy"] - np.log(2 * np.pi**2)) < 1e-3

    def test_sample_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["bingham", "sample", "-n", "50", "--seed", "9", "--out", str(out)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        rows = a.read_text().strip().split("\n")
        assert rows[0] == "w,x,y,z"
        assert len(rows) == 51
        q = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        assert np.abs(np.linalg.norm(q, axis=1) - 1.0).max() < 1e-12

    def test_golden_sample_bytes(self, tmp_path):
        out = tmp_path / "samples.csv"
        assert main(["bingham", "sample", "-n", "2000", "--seed", "3", "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_BINGHAM_SAMPLE_SHA256

    def test_entropy_runs_one_quadrature(self, tmp_path, monkeypatch):
        from sipf import bingham

        calls = []
        moments = bingham._moments

        def counted(*args, **kwargs):
            calls.append(args)
            return moments(*args, **kwargs)

        monkeypatch.setattr(bingham, "_moments", counted)
        out = tmp_path / "entropy.json"
        assert main(["bingham", "entropy", "--seed", "2", "--out", str(out)]) == EXIT_OK
        assert len(calls) == 1

    def test_mode_json(self, tmp_path):
        out = tmp_path / "mode.json"
        assert main(["bingham", "mode", "--z1", "1,0,0,0", "--z2", "0,0,0", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["quaternion"] == [0.0, 0.0, 0.0, 1.0]
        assert np.allclose(report["matrix"], np.diag([-1.0, -1.0, 1.0]), atol=1e-12)

    def test_zero_z1_invalid(self):
        assert main(["bingham", "mode", "--z1", "0,0,0,0", "--z2", "0,0,0"]) == EXIT_VALIDATION

    def test_lonely_z1_invalid(self):
        assert main(["bingham", "mode", "--z1", "1,0,0,0"]) == EXIT_VALIDATION

    def test_k_flag_is_a_usage_error(self, capsys):
        # The bingham commands build no neighbor graph, so they take no --k.
        with pytest.raises(SystemExit) as excinfo:
            main(["bingham", "mode", "--k", "5"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --k 5" in capsys.readouterr().err

    def test_numeric_failure_exit_code(self, capsys):
        # Concentration so extreme that the true F underflows.
        from sipf.cli import EXIT_NUMERIC

        code = main(["bingham", "entropy", "--z1", "1,0,0,0", "--z2", "1e250,1,1"])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("error: ")

    def test_sharp_concentration_matches_laplace(self, tmp_path):
        # At |lambda| ~ 1e9 F is tiny but representable; the Laplace value
        # 2 pi^(3/2) / sqrt|l1 l2 l3| is exact to O(1/|lambda|) there.
        out = tmp_path / "entropy.json"
        code = main(["bingham", "entropy", "--z1", "1,0,0,0", "--z2", "1e9,1,1", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        laplace = 2.0 * np.pi**1.5 / np.sqrt(np.abs(np.prod(report["lambda"][:3])))
        assert abs(report["F"] / laplace - 1.0) < 1e-3

    def test_identity_mode_warns_in_one_line(self, tmp_path, capsys):
        out = tmp_path / "mode.json"
        code = main(["bingham", "mode", "--z1", "0,0,0,1", "--z2", "0,0,0", "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == (
            "warning: Bingham mode is the identity rotation; shadow generation degenerates\n"
        )
        assert json.loads(out.read_text())["quaternion"] == [1.0, 0.0, 0.0, 0.0]


class TestTrainToy:
    def test_metrics_log_deterministic(self, fast_config, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["train-toy", "--config", fast_config, "--out", str(out)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().split("\n")
        assert len(lines) == 3
        entry = json.loads(lines[0])
        assert set(entry) == {"epoch", "task_loss", "bingham_loss", "total_loss", "accuracy", "rg_quaternion"}

    def test_mask_override(self, fast_config, tmp_path):
        out = tmp_path / "ppf.jsonl"
        assert main(["train-toy", "--config", fast_config, "--mask", "ppf", "--out", str(out)]) == EXIT_OK
        accs = [json.loads(line)["accuracy"] for line in out.read_text().strip().split("\n")]
        assert max(accs) <= 0.6


class TestDemoWingtip:
    def test_short_demo_outputs(self, fast_config, tmp_path, capsys):
        out_dir = tmp_path / "demo"
        code = main(["demo-wingtip", "--config", fast_config, "--out", str(out_dir)])
        assert code == EXIT_OK
        summary = json.loads((out_dir / "summary.json").read_text())
        for key in (
            "sipf_accuracy",
            "ppf_accuracy",
            "collapse_confirmed",
            "b1_max_score",
            "b2_min_distance_rad",
            "degeneracy_flagged",
        ):
            assert key in summary
        assert (out_dir / "metrics-sipf.jsonl").exists()
        assert (out_dir / "metrics-ppf.jsonl").exists()
        # At noise zero the plain-pair run is pinned to chance at every epoch.
        assert summary["ppf_accuracy"] == 0.5

    def test_deterministic_summary(self, fast_config, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            assert main(["demo-wingtip", "--config", fast_config, "--out", str(d)]) == EXIT_OK
        assert (a_dir / "summary.json").read_bytes() == (b_dir / "summary.json").read_bytes()
        assert (a_dir / "metrics-sipf.jsonl").read_bytes() == (b_dir / "metrics-sipf.jsonl").read_bytes()

    def test_extra_mask_run(self, fast_config, tmp_path, capsys):
        out_dir = tmp_path / "demo"
        code = main([
            "demo-wingtip", "--config", fast_config, "--mask", "sipf-no-direction",
            "--out", str(out_dir),
        ])
        assert code == EXIT_OK
        summary = json.loads((out_dir / "summary.json").read_text())
        assert "sipf_no_direction_accuracy" in summary
        assert (out_dir / "metrics-sipf-no-direction.jsonl").exists()


def _sipf(cwd, *args, one_cpu=False):
    """``python -m sipf *args`` in a child process in ``cwd``, as the installed console script runs.

    ``one_cpu`` pins the child to the lowest CPU this process may use with ``taskset``, and skips the
    calling test, saying why, where ``taskset`` is not installed.
    """
    prefix = []
    if one_cpu:
        if shutil.which("taskset") is None:
            pytest.skip("taskset is not installed, so the one-CPU comparison did not run")
        prefix = ["taskset", "-c", str(min(os.sched_getaffinity(0)))]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([*prefix, sys.executable, "-m", "sipf", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def _succeeds(cwd, *args, one_cpu=False):
    """Run ``python -m sipf *args`` and assert that it exits 0."""
    child = _sipf(cwd, *args, one_cpu=one_cpu)
    assert child.returncode == EXIT_OK, (args, child.stderr)
    return child


@pytest.fixture(scope="class")
def command_inputs(tmp_path_factory):
    """A directory with 1,500 uniform points (c1500.xyz), the same points as CRLF text with a comment
    and blank lines (c1500-crlf.xyz), and a 30 x 30 planar grid with unit normals (grid.xyz)."""
    directory = tmp_path_factory.mktemp("commands")
    np.savetxt(directory / "c1500.xyz", np.random.default_rng(0).uniform(-1, 1, (1500, 3)), fmt="%.17g")
    text = (directory / "c1500.xyz").read_text()
    with open(directory / "c1500-crlf.xyz", "w", newline="") as handle:
        handle.write("# 1,500 points\r\n\r\n" + text.replace("\n", "\r\n\r\n"))
    x, y = np.meshgrid(np.arange(30.0) + 0.5, np.arange(30.0) - 7.25)
    o = np.ones(x.size)
    np.savetxt(directory / "grid.xyz", np.column_stack([x.ravel(), y.ravel(), 3 * o, 0 * o, 0 * o, o]), fmt="%.17g")
    return directory


class TestPythonDashM:
    """The commands' checks through ``python -m sipf`` in child processes, as on the command line."""

    def test_features_and_verify_invariance_drop_three_points_alike(self, tmp_path):
        # 2,100 points, three field blocks: point 0 lies on its own shadow and point 1500 on point
        # 1400, so both commands drop the three, warn alike and exit 0.
        pts = np.random.default_rng(0).uniform(-1, 1, (2100, 3))
        pts[0] = 0.0
        pts[1500] = pts[1400]
        np.savetxt(tmp_path / "c2100.xyz", pts, fmt="%.17g")
        expected = (
            "warning: shadow coincides with point 0; rows omitted\n"
            "warning: coincident points 1400 and 1500; rows omitted\n"
            "warning: 3 point(s) omitted\n"
        )
        for args in (
            ["features", "--input", "c2100.xyz", "--seed", "0", "--out", "f2100.csv"],
            ["verify-invariance", "--input", "c2100.xyz", "--trials", "3", "--seed", "0"],
        ):
            child = _sipf(tmp_path, *args)
            assert (child.returncode, child.stderr) == (EXIT_OK, expected), args

    def test_crlf_comment_and_blank_lines_read_as_the_same_cloud(self, command_inputs, tmp_path):
        for name in ("c1500", "c1500-crlf"):
            _succeeds(tmp_path, "features", "--input", str(command_inputs / f"{name}.xyz"), "--seed", "0",
                      "--out", f"f-{name}.csv")
        assert (tmp_path / "f-c1500.csv").read_bytes() == (tmp_path / "f-c1500-crlf.csv").read_bytes()

    def test_verify_invariance_passes_and_break_shadow_exits_2(self, command_inputs):
        args = ["verify-invariance", "--input", "c1500.xyz", "--trials", "3", "--seed", "0"]
        _succeeds(command_inputs, *args)
        assert _sipf(command_inputs, *args, "--break-shadow").returncode == 2

    def test_one_and_five_trials_and_five_on_one_cpu(self, command_inputs, tmp_path):
        # One trial leaves lane 1 empty; five split 3 : 2 over the lanes, on two CPUs and on one.
        cloud = str(command_inputs / "c1500.xyz")
        for trials, out, one_cpu in (("1", "r1.json", False), ("5", "r5.json", False), ("5", "r5-one-cpu.json", True)):
            _succeeds(tmp_path, "verify-invariance", "--input", cloud, "--trials", trials, "--seed", "0",
                      "--out", out, one_cpu=one_cpu)
        assert (tmp_path / "r5.json").read_bytes() == (tmp_path / "r5-one-cpu.json").read_bytes()

    def test_planar_grid_keeps_every_point_and_writes_the_same_csv_on_one_cpu(self, command_inputs, tmp_path):
        # The grid's normals give normal-mode axes: no point is dropped, nothing reaches stderr,
        # all 900 x 20 rows are written, and one CPU writes the same CSV.
        grid = str(command_inputs / "grid.xyz")
        child = _succeeds(tmp_path, "features", "--input", grid, "--seed", "0", "--out", "grid.csv")
        assert child.stderr == ""
        text = (tmp_path / "grid.csv").read_bytes()
        assert text.count(b"\n") == 18001
        _succeeds(tmp_path, "features", "--input", grid, "--seed", "0", "--out", "grid-one-cpu.csv", one_cpu=True)
        assert (tmp_path / "grid-one-cpu.csv").read_bytes() == text

    def test_train_toy_twice_writes_the_same_bytes(self, tmp_path):
        (tmp_path / "train3.json").write_text('{"epochs": 3}\n')
        for out in ("train-a.jsonl", "train-b.jsonl"):
            _succeeds(tmp_path, "train-toy", "--config", "train3.json", "--out", out)
        text = (tmp_path / "train-a.jsonl").read_bytes()
        assert text.count(b"\n") == 3
        assert (tmp_path / "train-b.jsonl").read_bytes() == text
