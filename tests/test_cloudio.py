import os
import signal
import stat
import sys
import tempfile
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sipf import cloudio, lanes
from sipf.cloudio import _CSV_CHUNK_ROWS, format_rows, load_cloud, write_text_atomic
from sipf.errors import InvalidArgumentError, InvalidInputError, ParseError

from conftest import format_float, oracle_parse_ply_body, oracle_parse_xyz


def oracle_rows(table):
    """format_rows written one value at a time with format_float."""
    return "".join(
        ",".join(format_float(v) for v in row) + "\n" for row in np.asarray(table, dtype=np.float64).tolist()
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


# Tokens that fail or parse oddly: float() takes "1_0", "nan" and "inf", and
# U+FFFD stands for an undecodable byte.  "#1" starts a comment row in xyz.
_ODD_TOKENS = ["abc", "1_0", "\ufffd", "nan", "inf", "-inf", "#1", "1e400", "-0"]
_NUMBERS = st.one_of(st.floats(-1e3, 1e3).map(repr), st.integers(-9, 9).map(str))
_BLANK_OR_COMMENT = ["", "  ", "\t", "# comment", "  #x 1 2"]


@st.composite
def _token(draw):
    """A number, or now and then one of the odd tokens."""
    if draw(st.integers(0, 29)) == 0:
        return draw(st.sampled_from(_ODD_TOKENS))
    return draw(_NUMBERS)


@st.composite
def _row(draw, width):
    sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
    lead = draw(st.sampled_from(["", " ", "\t"]))
    return lead + sep.join(draw(_token()) for _ in range(width))


def _join_lines(draw, lines):
    """The lines with CRLF, LF or lone-CR endings, the last one sometimes without."""
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@st.composite
def _xyz_texts(draw):
    width = draw(st.sampled_from([3, 6]))
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(_BLANK_OR_COMMENT)))
        else:
            # Now and then the width changes mid-file.
            lines.append(draw(_row(width if kind > 1 else draw(st.sampled_from([2, 3, 4, 6, 7])))))
    return _join_lines(draw, lines)


_PLY_PROPERTIES = [
    ["x", "y", "z"],
    ["x", "y", "z", "nx", "ny", "nz"],
    ["nx", "x", "ny", "y", "nz", "z"],
    ["x", "y", "z", "intensity"],
]


@st.composite
def _ply_texts(draw):
    """(text, vertex properties, declared vertex count) of an ascii PLY."""
    properties = draw(st.sampled_from(_PLY_PROPERTIES))
    n_rows = draw(st.integers(1, 8))
    declared = n_rows + draw(st.sampled_from([0, 0, 0, 1, -1, -n_rows, -n_rows - 1]))
    faces = draw(st.booleans())
    header = ["ply", "format ascii 1.0", "comment generated", f"element vertex {declared}"]
    header += [f"property double {name}" for name in properties]
    if faces:
        header += ["element face 1", "property list uchar int vertex_indices"]
    body = []
    for _ in range(n_rows):
        if draw(st.integers(0, 9)) == 0:
            body.append(draw(st.sampled_from(["", " \t"])))
        odd_width = draw(st.integers(0, 19)) == 0
        body.append(draw(_row(draw(st.integers(2, 7)) if odd_width else len(properties))))
    if faces:
        body.append("3 0 1 2")
    return _join_lines(draw, header + ["end_header"] + body), properties, declared


def _outcome(load):
    """The bits of a loaded cloud, or the type and text of the error it raises."""
    try:
        cloud = load()
    except InvalidInputError as exc:
        return type(exc).__name__, str(exc)
    normals = None if cloud.normals is None else (cloud.normals.shape, cloud.normals.tobytes())
    return cloud.points.shape, cloud.points.tobytes(), normals


def _loaded_and_oracle(text, name, oracle):
    """Outcomes of load_cloud and of ``oracle(lines, path)``."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        with open(path, "r", errors="replace") as handle:
            lines = handle.readlines()
        return _outcome(lambda: load_cloud(path)), _outcome(lambda: oracle(lines, path))


# Clean inputs of both formats: (file name, text, points, unit normals or None).
_CLEAN_FILES = [
    ("comments.xyz", "# 3 points\n\n0 0 0\n  # indented comment\n1 2 3\n\t\n-4 5e-1 6\n",
     [[0, 0, 0], [1, 2, 3], [-4, 0.5, 6]], None),
    ("crlf-normals.xyz", "# x y z nx ny nz\r\n0 0 0 0 0 2\r\n\r\n1 0 0 0 3 0\r\n",
     [[0, 0, 0], [1, 0, 0]], [[0, 0, 1], [0, 1, 0]]),
    ("basic.ply", PLY_BASIC, [[0, 0, 0], [1, 0, 0], [0, 1, 0]], None),
    ("normals.ply", PLY_NORMALS, [[0, 0, 0], [1, 0, 0]], [[0, 0, 1], [0, 1, 0]]),
    ("face.ply", "ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\nproperty float y\n"
     "property float z\nelement face 1\nproperty list uchar int vertex_indices\nend_header\n"
     "0 0 0\n\n1 0 0\n3 0 1 2\n", [[0, 0, 0], [1, 0, 0]], None),
]


class TestLoaderOracle:
    """load_cloud against the line-by-line parsers."""

    @settings(deadline=None)
    @given(_xyz_texts())
    @example("1 2 3\n")  # one point
    @example("# c\r\n\r\n0 0 0 1 0 0\r1\t2 3\n4 5 6\n")  # 6 columns, then 3
    @example("0 0 0\n1 1_0 nan\n")
    def test_xyz_matches_line_by_line_parser(self, text):
        loaded, expected = _loaded_and_oracle(text, "cloud.xyz", oracle_parse_xyz)
        assert loaded == expected

    @settings(deadline=None)
    @given(_ply_texts())
    @example(
        ("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\nproperty float y\n"
         "property float z\nelement face 1\nproperty list uchar int vertex_indices\nend_header\n"
         "0 0 0\n1 0 0\n3 0 1 2\n", ["x", "y", "z"], 2),
    )  # a face after the vertices
    @example(("ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
              "property float z\nend_header\n0 0 0\n1 0 0\n", ["x", "y", "z"], 3))
    def test_ply_matches_line_by_line_parser(self, ply):
        text, properties, declared = ply

        def oracle(lines, path):
            header_end = [line.strip() for line in lines].index("end_header") + 1
            return oracle_parse_ply_body(lines, header_end, properties, declared, path)

        loaded, expected = _loaded_and_oracle(text, "cloud.ply", oracle)
        assert loaded == expected

    def test_errors_after_thousands_of_rows_report_their_line(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        rows = ["0 0 0", "1 0 0", "", "# c", "0 1 0"] * 500
        for bad, message in [("1 x 0", "non-numeric field"), ("1 0", "expected 3 or 6 columns"),
                             ("1 inf 0", "non-finite value"), ("1 0 0 0 0 1", "inconsistent column count")]:
            path.write_text("\n".join(rows + [bad, "0 0 1"]) + "\n")
            with pytest.raises(ParseError, match=message) as excinfo:
                load_cloud(str(path))
            assert excinfo.value.line == len(rows) + 1

    def test_text_numpy_rejects_loads_with_the_values_of_float(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("1_0 2 3\n\u0661 0 0\n")
        for row in ("1_0 2 3", "\u0661 0 0"):
            with pytest.raises(ValueError):
                np.loadtxt([row], comments=None, ndmin=2)
        assert load_cloud(str(path)).points.tolist() == [[10.0, 2.0, 3.0], [1.0, 0.0, 0.0]]

    def test_a_trailing_comment_is_a_wrong_width(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("0 0 0\n1 2 3 # note\n")
        with pytest.raises(ParseError, match="expected 3 or 6 columns, found 5") as excinfo:
            load_cloud(str(path))
        assert excinfo.value.line == 2

    @pytest.mark.parametrize("name, text, n_points", [
        ("blank-lines.ply", "ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
         "property float z\nelement face 1\nproperty list uchar int vertex_indices\nend_header\n"
         "0 0 0\n\n1 0 0\n \n0 1 0\n3 0 1 2\n", 3),
        ("late-comment.xyz", "\n".join([f"{i} 0 1" for i in range(2000)] + ["# late", "0 5 0"]) + "\n", 2001),
    ])
    def test_no_numpy_warning_escapes(self, tmp_path, name, text, n_points):
        path = tmp_path / name
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cloud = load_cloud(str(path))
        assert len(cloud.points) == n_points

    @pytest.mark.parametrize("name, text, points, normals", _CLEAN_FILES, ids=[case[0] for case in _CLEAN_FILES])
    def test_clean_files_load_in_one_numpy_call(self, tmp_path, monkeypatch, name, text, points, normals):
        # The line-by-line reader gives the same values, so only its absence shows
        # that numpy's reader took these rows: a row filter that let a comment,
        # blank line or face row through would fall back to it here.
        def no_fallback(*args):
            raise AssertionError("clean rows went to the line-by-line reader")

        monkeypatch.setattr(cloudio, "_read_rows", no_fallback)
        path = tmp_path / name
        path.write_bytes(text.encode())
        cloud = load_cloud(str(path))
        assert cloud.points.tolist() == points
        assert (cloud.normals is None if normals is None else cloud.normals.tolist() == normals)

    def test_no_data_rows_raise_without_a_numpy_warning(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("# only a comment\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="file contains no data rows"):
                load_cloud(str(path))


class TestFormatting:
    def test_format_float_round_trips_bitwise(self, rng):
        values = rng.standard_normal(1000) * 10.0 ** rng.integers(-20, 20, size=1000)
        text = format_rows(values.reshape(-1, 4))
        parsed = np.array([float(v) for v in text.replace("\n", ",").split(",")[:-1]])
        assert np.array_equal(parsed.view(np.int64), values.view(np.int64))

    def test_awkward_doubles_match_oracle(self):
        big = sys.float_info.max
        values = [0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e17, 1.0, -1.0, big, -big, 0.1, 1 / 3]
        table = np.array(values).reshape(-1, 4)
        text = format_rows(table)
        assert text == oracle_rows(table)
        assert text.split("\n")[0] == "0,-0,4.9406564584124654e-324,-4.9406564584124654e-324"
        assert text.split("\n")[1] == "1.0000000000000001e-05,1e+17,1,-1"
        assert text.split("\n")[2].startswith("1.7976931348623157e+308,")

    def test_index_columns_print_as_integers(self):
        table = np.array([[0, 2**53 - 1, 0.5], [17, 3, -0.0]])
        assert format_rows(table) == "0,9007199254740991,0.5\n17,3,-0\n"

    @pytest.mark.parametrize("value,printed", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
    def test_non_finite_index_column_prints_and_does_not_raise(self, value, printed):
        # Every column is %.17g, so a non-finite index prints as a float column's does.
        table = np.array([[value, 3.0, 0.5], [4.0, value, -0.0]])
        text = format_rows(table)
        assert text == f"{printed},3,0.5\n4,{printed},-0\n"
        assert text == oracle_rows(table)

    def test_integers_print_as_percent_d_up_to_2_53(self):
        # Every block is read as float64: |v| <= 2**53 prints as %d prints it, and 2**53 + 1,
        # which no double holds, prints as its nearest double.
        exact = [2**53, -(2**53), 2**53 - 1]
        assert format_rows(np.array(exact)) == "".join("%d\n" % v for v in exact)
        assert format_rows(np.array([2**53 + 1])) == "9007199254740992\n"
        assert "%d" % (2**53 + 1) == "9007199254740993"

    def test_index_columns_are_not_truncated(self):
        # Fractional and out-of-range values print in full, not cut to an integer.
        table = np.array([[2.7, -0.5, 2.0**53 + 2], [1e17, -3.25, 1.0]])
        text = format_rows(table)
        assert text == "2.7000000000000002,-0.5,9007199254740994\n1e+17,-3.25,1\n"
        assert text == oracle_rows(table)

    def test_empty_table_gives_empty_text(self):
        assert format_rows(np.empty((0, 10))) == ""
        # n = 0 is one empty block, whose slot in the parts list follows the header's.
        assert format_rows(np.empty((0, 10)), header="a,b\n") == "a,b\n"

    # One chunk and one row past it; then 4096 rows, a whole number of chunks,
    # and one row past that.
    @pytest.mark.parametrize("n_rows", [_CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1, 4096, 4097])
    def test_chunk_boundary_matches_oracle(self, rng, n_rows):
        assert 4096 % _CSV_CHUNK_ROWS == 0
        # Shaped like the features CSV: two index columns, then 8 doubles.
        idx = rng.integers(0, 100_000, size=(n_rows, 2))
        values = rng.standard_normal((n_rows, 8)) * 10.0 ** rng.integers(-20, 20, size=(n_rows, 8))
        table = np.column_stack([idx, values])
        text = format_rows(table)
        assert text.count("\n") == n_rows
        assert text == oracle_rows(table)

    def test_fast_path_chunks_on_both_lanes_match_oracle(self, rng):
        # Features-like values, none of which falls back: every chunk takes the compaction path.
        n_rows = 2 * _CSV_CHUNK_ROWS + 1
        table = np.column_stack([rng.integers(0, 5000, size=(n_rows, 2)), rng.uniform(-1, 1, (n_rows, 8))])
        assert format_rows(table) == oracle_rows(table)

    # No rows, one row, one chunk and one row past it, and three chunks (both lanes).
    @pytest.mark.parametrize("n_rows", [0, 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1, 2 * _CSV_CHUNK_ROWS + 1])
    def test_column_blocks_match_the_stacked_table(self, rng, n_rows):
        ref = rng.integers(0, 100_000, size=n_rows)
        nbr = rng.integers(-(2**53), 2**53, size=(n_rows, 1))
        values = rng.standard_normal((n_rows, 8)) * 10.0 ** rng.integers(-20, 20, size=(n_rows, 8))
        values[::97, 3] = np.inf
        single = rng.standard_normal(n_rows)
        expected = oracle_rows(np.column_stack([ref, nbr, values, single]))
        assert format_rows(ref, nbr, values, single) == expected
        assert format_rows(ref, nbr, values, single, header="h\n") == "h\n" + expected

    def test_one_dimensional_block_is_one_column(self):
        assert format_rows(np.array([3, -1])) == "3\n-1\n"

    @pytest.mark.parametrize("columns", [
        (np.zeros(3), np.zeros((4, 2))),
        (np.zeros((3, 8)), np.zeros(2, dtype=np.int64)),
        (),
    ])
    def test_bad_column_blocks_are_refused(self, columns):
        with pytest.raises(InvalidArgumentError):
            format_rows(*columns)

    def test_atomic_write(self, tmp_path):
        path = tmp_path / "out.csv"
        write_text_atomic(str(path), "hello\n")
        assert path.read_text() == "hello\n"
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
        assert not leftovers


def _printed(x):
    """(significant digits, decimal exponent) of x at 17 significant digits, as %.17g rounds it."""
    mantissa, exponent = ("%.16e" % x).split("e")
    return mantissa.replace(".", "").lstrip("-").rstrip("0") or "0", int(exponent)


_EXPONENT_FIELD = np.uint64(0x7FF << 52)


def _bit_patterns(raw):
    """float64 values from raw bytes; every other one gets its exponent field
    moved into the window around [1e-6, 1e17) that the vectorised path covers."""
    bits = np.frombuffer(raw[: len(raw) // 8 * 8], dtype=np.uint64).copy()
    exponent = (bits[::2] & _EXPONENT_FIELD) >> np.uint64(52)
    window = (exponent % np.uint64(78) + np.uint64(1003)) << np.uint64(52)
    bits[::2] = (bits[::2] & ~_EXPONENT_FIELD) | window
    return bits.view(np.float64)


class TestFormattingParity:
    """format_rows against the one-value oracle, at the edges of its vectorised path."""

    def test_every_decimal_layout_matches_oracle(self):
        # One double for each decimal exponent d in [-6, 16] and each count of
        # significant digits that %.17g prints, found among decimal strings.
        rng = np.random.default_rng(7)
        found = {}
        for d in range(-6, 17):
            for s in range(1, 18):
                for _ in range(200):
                    digits = str(rng.integers(10 ** (s - 1), 10**s))
                    x = float(f"{digits[0]}.{digits[1:]}e{d}")
                    digits_printed, exponent = _printed(x)
                    if exponent == d and len(digits_printed) == s:
                        found[d, s] = x
                        break
        # No double prints one digit at exponent -6 or -5: the double nearest
        # each k * 10**d already prints 17.
        for d in (-6, -5):
            assert all(len(_printed(float(f"{k}e{d}"))[0]) == 17 for k in range(1, 10))
        unreachable = {(-6, 1), (-5, 1)}
        assert set(found) == {(d, s) for d in range(-6, 17) for s in range(1, 18)} - unreachable
        values = np.array(list(found.values()))
        values = np.concatenate([values, -values, np.zeros((-2 * len(values)) % 6)])
        table = values.reshape(-1, 6)
        assert format_rows(table) == oracle_rows(table)

    def test_powers_of_ten_and_their_neighbours_match_oracle(self):
        powers = np.array([float(f"1e{p}") for p in range(-8, 19)])
        values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        table = np.concatenate([values, -values]).reshape(-1, 3)
        assert format_rows(table) == oracle_rows(table)

    def test_exact_half_way_ties_round_to_even(self):
        # 18 significant digits ending in 5: the 17th digit rounds half to even.
        ties = np.array([1234567890123456.25, 1234567890123456.75, 2000000000000000.25, 2000000000000001.75])
        table = np.stack([ties, -ties])
        text = format_rows(table)
        assert text.split("\n")[0] == (
            "1234567890123456.2,1234567890123456.8,2000000000000000.2,2000000000000001.8"
        )
        assert text == oracle_rows(table)

    def test_just_below_a_power_of_ten_where_log10_rounds_up(self):
        values = np.array([9.9999999999999974e-07, 9.9999999999999991e-06, 9.9999999999999991e-05,
                           0.099999999999999992, 99.999999999999986, 9999999999999998.0])
        # log10 rounds each to the next integer: the first exponent estimate is one too high.
        assert np.floor(np.log10(values)).tolist() == [-6, -5, -4, -1, 2, 16]
        text = format_rows(values.reshape(1, -1))
        assert text == ("9.9999999999999974e-07,9.9999999999999991e-06,9.9999999999999991e-05,"
                        "0.099999999999999992,99.999999999999986,9999999999999998\n")
        assert text == oracle_rows(values.reshape(1, -1))

    def test_special_values_in_float_columns(self):
        big = sys.float_info.max
        table = np.array(
            [[0.0, -0.0, 5e-324, -5e-324], [big, -big, np.inf, -np.inf], [np.nan, 1e-6, -1e17, 1.0]]
        )
        text = format_rows(table)
        assert text.split("\n")[1] == "1.7976931348623157e+308,-1.7976931348623157e+308,inf,-inf"
        assert text.split("\n")[2].startswith("nan,")
        assert text == oracle_rows(table)

    def test_fallbacks_in_every_chunk_of_both_lanes_match_oracle(self, rng):
        # Chunks 0 and 2 run on lane 0, chunk 1 on lane 1.
        n_rows = 2 * _CSV_CHUNK_ROWS + 1
        idx = rng.integers(0, 100_000, size=(n_rows, 2)).astype(np.float64)
        table = np.column_stack([idx, rng.standard_normal((n_rows, 8))])
        fallbacks = [5e-324, -2.5e-320, 1e300, np.inf, -np.inf, np.nan]
        for start in range(0, n_rows, _CSV_CHUNK_ROWS):
            rows = start + rng.integers(0, min(_CSV_CHUNK_ROWS, n_rows - start), size=len(fallbacks))
            table[rows, 2 + rng.integers(0, 8, size=len(fallbacks))] = fallbacks
            table[rows[:2], [0, 1]] = [2.0**53, -1e300]
        text = format_rows(table)
        assert text.count("\n") == n_rows
        assert text == oracle_rows(table)

    def test_bit_patterns_on_every_chunk_of_both_lanes_match_oracle(self):
        # The property below draws at most 16 rows, one chunk; these 10-column rows fill
        # chunks 0 and 2 on lane 0 and chunk 1 on lane 1.
        n_rows = 2 * _CSV_CHUNK_ROWS + 1
        raw = np.random.default_rng(2024).bytes(n_rows * 10 * 8)
        table = _bit_patterns(raw).reshape(n_rows, 10)
        assert format_rows(table) == oracle_rows(table)

    @settings(deadline=None)
    @given(st.binary(min_size=8, max_size=512))
    def test_matches_percent_operator_on_any_bit_pattern(self, raw):
        values = _bit_patterns(raw)
        table = np.concatenate([values, np.zeros((-len(values)) % 4)]).reshape(-1, 4)
        assert format_rows(table) == oracle_rows(table)


def _features_table(rng, n_rows, width):
    """A fast-path table shaped like the features CSV: two index columns, then floats."""
    floats = rng.uniform(1e-3, 1.0, (n_rows, width - 2)) * rng.choice([-1.0, 1.0], (n_rows, width - 2))
    return np.column_stack([rng.integers(0, 5000, size=(n_rows, 2)), floats])


def _wait_for_child(pid, seconds=60):
    """The child's exit status; a child still running after ``seconds`` is killed and fails."""
    status = None
    try:
        deadline = time.monotonic() + seconds
        while status is None and time.monotonic() < deadline:
            done, wait_status = os.waitpid(pid, os.WNOHANG)
            status = wait_status if done else None
            time.sleep(0.01)
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    assert status is not None, f"the forked child did not finish within {seconds} s"
    return status


class TestBlockCalls:
    # One chunk on this thread, then three chunks: two on this thread's lane, one on the executor's.
    @pytest.mark.parametrize("n_rows", [100, 2 * _CSV_CHUNK_ROWS + 1])
    def test_chunk_code_calls_no_python_wrappers(self, rng, n_rows):
        # The per-block rule of sipf.lanes: a fast-path chunk calls ufuncs and C-level methods,
        # not the Python functions of numpy's _methods and fromnumeric modules (np.take,
        # np.clip, ndarray.all).  Both lanes' threads are profiled.
        modules = [sys.modules.get(f"numpy._core.{name}") or sys.modules[f"numpy.core.{name}"]
                   for name in ("_methods", "fromnumeric")]
        wrappers = {module.__file__ for module in modules}
        block_code = {"fill", "_fields", "_decimal", "_exact_scaled", "_exponent_error"}
        ran, offenders = set(), []

        def profile(frame, event, arg):
            if event != "call":
                return
            ran.add(frame.f_code.co_name)
            caller = frame.f_back.f_code.co_name if frame.f_back is not None else None
            if caller in block_code and frame.f_code.co_filename in wrappers:
                offenders.append((caller, frame.f_code.co_name))

        table = _features_table(rng, n_rows, 10)
        lanes._executor.submit(sys.setprofile, profile).result()
        sys.setprofile(profile)
        try:
            text = format_rows(table)
        finally:
            sys.setprofile(None)
            lanes._executor.submit(sys.setprofile, None).result()
        assert block_code <= ran and "_insert_fallbacks" not in ran
        assert offenders == []
        assert text == oracle_rows(table)


class TestWorkspace:
    """format_rows' lane arrays outlive a call: one set for each thread that runs a lane."""

    def test_a_second_call_of_the_same_shape_makes_no_array(self, rng, monkeypatch):
        caller = threading.current_thread()
        made = []
        empty = np.empty

        def recorded_empty(*args, **kwargs):
            made.append(threading.current_thread() is caller)
            return empty(*args, **kwargs)

        n_rows = 2 * _CSV_CHUNK_ROWS + 1
        format_rows(_features_table(rng, n_rows, 9))
        table = _features_table(rng, n_rows, 10)
        monkeypatch.setattr(np, "empty", recorded_empty)
        # Another width makes each lane's five arrays anew, each on its lane's thread ...
        text = format_rows(table)
        assert sorted(made) == [False] * 5 + [True] * 5
        # ... and a second call of that shape makes none on either thread.
        made.clear()
        assert format_rows(table) == text == oracle_rows(table)
        assert made == []

    def test_a_table_wider_than_the_kept_columns_makes_its_arrays_each_call(self, rng, monkeypatch):
        made = []
        empty = np.empty

        def recorded_empty(*args, **kwargs):
            made.append(args)
            return empty(*args, **kwargs)

        table = _features_table(rng, 2 * _CSV_CHUNK_ROWS + 1, cloudio._KEPT_COLUMNS + 1)
        text = format_rows(table)
        monkeypatch.setattr(np, "empty", recorded_empty)
        # Each lane makes its five arrays in every call: none outlives the call.
        for _ in range(2):
            made.clear()
            assert format_rows(table) == text == oracle_rows(table)
            assert len(made) == 10

    def test_threads_give_the_serial_bytes(self):
        # More threads than cores format tables of other widths and chunk row counts, switching
        # often: each runs lane 0 in its own arrays, and every lane 1 runs in the executor's.
        rng = np.random.default_rng(12)
        shapes = [(2 * _CSV_CHUNK_ROWS + 1, 10), (3 * _CSV_CHUNK_ROWS, 4), (_CSV_CHUNK_ROWS + 7, 7), (1000, 10)]
        tables = [_features_table(rng, n_rows, width) for n_rows, width in shapes]
        serial = [oracle_rows(table) for table in tables]
        mismatches, done = [], []

        def run(i):
            for _ in range(5):
                if format_rows(tables[i]) != serial[i]:
                    mismatches.append(i)
            done.append(i)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(tables))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == list(range(len(tables)))
        assert mismatches == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_writes_the_parents_bytes(self, rng):
        # The child inherits this thread's filled arrays and gets a new executor, whose arrays
        # it makes anew; a table of another width then remakes this thread's.
        table = _features_table(rng, 2 * _CSV_CHUNK_ROWS + 1, 10)
        text = format_rows(table)
        narrow = oracle_rows(table[:, :7])
        with warnings.catch_warnings():
            # Python 3.12 on warns that forking a process with threads may deadlock.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if format_rows(table) == text and format_rows(table[:, :7]) == narrow else 2
            finally:
                os._exit(code)
        status = _wait_for_child(pid)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


class TestAtomicWriteMode:
    def test_new_file_gets_0666_less_the_umask(self, tmp_path):
        previous = os.umask(0o027)
        try:
            write_text_atomic(str(tmp_path / "new.csv"), "a\n")
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o640

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        path.chmod(0o644)
        previous = os.umask(0o077)
        try:
            write_text_atomic(str(path), "new\n")
        finally:
            os.umask(previous)
        assert path.read_text() == "new\n"
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
