import os
import sys

import numpy as np
import pytest

from sipf.cloudio import _CSV_CHUNK_ROWS, format_rows, load_cloud, write_text_atomic
from sipf.errors import ParseError

from conftest import format_float


def oracle_rows(table, n_int):
    """format_rows written one value at a time: integers, then format_float."""
    return "".join(
        ",".join([str(int(v)) for v in row[:n_int]] + [format_float(v) for v in row[n_int:]]) + "\n"
        for row in np.asarray(table, dtype=np.float64).tolist()
    )


class TestXyz:
    def test_three_columns(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("0 0 0\n1 0 0\n0 1 0\n")
        cloud = load_cloud(str(path))
        assert cloud.points.shape == (3, 3)
        assert cloud.normals is None

    def test_six_columns_with_comments(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("# header\n0 0 0 1 0 0\n1 0 0 0 1 0\n\n")
        cloud = load_cloud(str(path))
        assert cloud.normals.shape == (2, 3)

    def test_normals_renormalized(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("0 0 0 2 0 0\n1 0 0 0 3 0\n")
        cloud = load_cloud(str(path))
        assert np.abs(np.linalg.norm(cloud.normals, axis=1) - 1.0).max() < 1e-12

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("0 0 0\n1 0\n")
        with pytest.raises(ParseError) as excinfo:
            load_cloud(str(path))
        assert excinfo.value.line == 2

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("0 0 0\n1 zero 0\n")
        with pytest.raises(ParseError) as excinfo:
            load_cloud(str(path))
        assert excinfo.value.line == 2

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("0 0 0\n1 inf 0\n")
        with pytest.raises(ParseError):
            load_cloud(str(path))

    def test_single_point_rejected(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("0 0 0\n")
        with pytest.raises(ParseError):
            load_cloud(str(path))


PLY_BASIC = """ply
format ascii 1.0
comment demo
element vertex 3
property float x
property float y
property float z
end_header
0 0 0
1 0 0
0 1 0
"""

PLY_NORMALS = """ply
format ascii 1.0
element vertex 2
property float x
property float y
property float z
property float nx
property float ny
property float nz
end_header
0 0 0 0 0 1
1 0 0 0 1 0
"""


class TestPly:
    def test_basic(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text(PLY_BASIC)
        cloud = load_cloud(str(path))
        assert cloud.points.shape == (3, 3)
        assert cloud.normals is None

    def test_with_normals(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text(PLY_NORMALS)
        cloud = load_cloud(str(path))
        assert cloud.normals.shape == (2, 3)

    def test_binary_rejected(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text(PLY_BASIC.replace("format ascii 1.0", "format binary_little_endian 1.0"))
        with pytest.raises(ParseError) as excinfo:
            load_cloud(str(path))
        assert "binary" in str(excinfo.value)

    def test_missing_coordinate_property(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text(PLY_BASIC.replace("property float z\n", ""))
        with pytest.raises(ParseError):
            load_cloud(str(path))

    def test_vertex_count_mismatch(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text(PLY_BASIC.replace("element vertex 3", "element vertex 4"))
        with pytest.raises(ParseError):
            load_cloud(str(path))

    def test_sniffed_without_extension(self, tmp_path):
        path = tmp_path / "cloud.dat"
        path.write_text(PLY_BASIC)
        assert load_cloud(str(path)).points.shape == (3, 3)


class TestFormatting:
    def test_format_float_round_trips_bitwise(self, rng):
        values = rng.standard_normal(1000) * 10.0 ** rng.integers(-20, 20, size=1000)
        text = format_rows(values.reshape(-1, 4), n_int=0)
        parsed = np.array([float(v) for v in text.replace("\n", ",").split(",")[:-1]])
        assert np.array_equal(parsed.view(np.int64), values.view(np.int64))

    def test_awkward_doubles_match_oracle(self):
        big = sys.float_info.max
        values = [0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e17, 1.0, -1.0, big, -big, 0.1, 1 / 3]
        table = np.array(values).reshape(-1, 4)
        text = format_rows(table, n_int=0)
        assert text == oracle_rows(table, 0)
        assert text.split("\n")[0] == "0,-0,4.9406564584124654e-324,-4.9406564584124654e-324"
        assert text.split("\n")[1] == "1.0000000000000001e-05,1e+17,1,-1"
        assert text.split("\n")[2].startswith("1.7976931348623157e+308,")

    def test_index_columns_print_as_integers(self):
        table = np.array([[0, 2**53 - 1, 0.5], [17, 3, -0.0]])
        assert format_rows(table, n_int=2) == "0,9007199254740991,0.5\n17,3,-0\n"

    def test_empty_table_gives_empty_text(self):
        assert format_rows(np.empty((0, 10)), n_int=2) == ""

    @pytest.mark.parametrize("n_rows", [_CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1])
    def test_chunk_boundary_matches_oracle(self, rng, n_rows):
        # Shaped like the features CSV: two index columns, then 8 doubles.
        idx = rng.integers(0, 100_000, size=(n_rows, 2))
        values = rng.standard_normal((n_rows, 8)) * 10.0 ** rng.integers(-20, 20, size=(n_rows, 8))
        table = np.column_stack([idx, values])
        text = format_rows(table, n_int=2)
        assert text.count("\n") == n_rows
        assert text == oracle_rows(table, 2)

    def test_atomic_write(self, tmp_path):
        path = tmp_path / "out.csv"
        write_text_atomic(str(path), "hello\n")
        assert path.read_text() == "hello\n"
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
        assert not leftovers
