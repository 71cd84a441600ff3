"""Point-cloud file ingestion (xyz and ascii PLY), CSV row formatting and atomic text output.

xyz rows carry 3 (positions) or 6 (positions + normals) whitespace-separated
finite numbers.  PLY support covers the ascii subset with float/double
vertex properties x, y, z and optionally nx, ny, nz; binary PLY is rejected.
Normals are re-normalized on load since scan data is noisy.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from .errors import InvalidInputError, ParseError
from .geometry import PointCloud

__all__ = ["load_cloud", "format_rows", "write_text_atomic"]

# Rows formatted per ``%`` call: bounds the boxed floats alive at once.
_CSV_CHUNK_ROWS = 4096


def format_rows(table, n_int: int) -> str:
    """CSV lines of a 2-D table: the first ``n_int`` columns as integers, the rest as ``%.17g``.

    17 significant digits round-trip any double bitwise.  Integer columns may
    be stored as float64; ``%d`` prints them exactly below 2**53.
    """
    table = np.asarray(table, dtype=np.float64)
    n_rows, n_cols = table.shape
    line = ",".join(["%d"] * n_int + ["%.17g"] * (n_cols - n_int)) + "\n"
    chunks = []
    for start in range(0, n_rows, _CSV_CHUNK_ROWS):
        chunk = table[start : start + _CSV_CHUNK_ROWS]
        chunks.append((line * len(chunk)) % tuple(chunk.ravel().tolist()))
    return "".join(chunks)


def write_text_atomic(path: str, content: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(content)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _read_lines(path):
    """All lines of a text file; undecodable bytes become U+FFFD and fail as fields."""
    try:
        with open(path, "r", errors="replace") as handle:
            return handle.readlines()
    except OSError as exc:
        raise ParseError(str(exc), path=path) from exc


def _row_values(fields, path, lineno):
    try:
        values = [float(f) for f in fields]
    except ValueError as exc:
        raise ParseError(f"non-numeric field: {exc}", path=path, line=lineno) from exc
    if not all(map(math.isfinite, values)):
        raise ParseError("non-finite value", path=path, line=lineno)
    return values


def _finish(points, normals, path):
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) < 2:
        raise ParseError("a point cloud needs at least 2 points", path=path)
    if normals is not None:
        normals = np.asarray(normals, dtype=np.float64)
        lengths = np.linalg.norm(normals, axis=1)
        if np.any(lengths == 0):
            bad = int(np.nonzero(lengths == 0)[0][0])
            raise ParseError(f"zero-length normal for point {bad}", path=path)
        normals = normals / lengths[:, None]
    return PointCloud(points=pts, normals=normals)


def _parse_xyz(lines, path):
    points = []
    normals = []
    expect = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) not in (3, 6):
            raise ParseError(
                f"expected 3 or 6 columns, found {len(fields)}", path=path, line=lineno
            )
        if expect is None:
            expect = len(fields)
        elif len(fields) != expect:
            raise ParseError(
                f"inconsistent column count (expected {expect}, found {len(fields)})",
                path=path,
                line=lineno,
            )
        values = _row_values(fields, path, lineno)
        points.append(values[:3])
        if expect == 6:
            normals.append(values[3:])
    if expect is None:
        raise ParseError("file contains no data rows", path=path)
    return _finish(points, normals if normals else None, path)


def _parse_ply(lines, path):
    if not lines or lines[0].strip() != "ply":
        raise ParseError("missing 'ply' magic line", path=path, line=1)
    n_vertices = None
    properties = []
    in_vertex_element = False
    header_end = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if line.startswith("format"):
            if "ascii" not in line:
                raise ParseError(
                    "only ascii PLY is supported; binary PLY is rejected", path=path, line=lineno
                )
        elif line.startswith("comment"):
            continue
        elif line.startswith("element"):
            fields = line.split()
            in_vertex_element = len(fields) == 3 and fields[1] == "vertex"
            if in_vertex_element:
                try:
                    n_vertices = int(fields[2])
                except ValueError as exc:
                    raise ParseError("bad vertex count", path=path, line=lineno) from exc
        elif line.startswith("property") and in_vertex_element:
            fields = line.split()
            if len(fields) != 3 or fields[1] not in ("float", "float32", "double", "float64"):
                raise ParseError(
                    f"unsupported vertex property {line!r}", path=path, line=lineno
                )
            properties.append(fields[2])
        elif line == "end_header":
            header_end = lineno
            break
    if header_end is None:
        raise ParseError("missing end_header", path=path)
    if n_vertices is None:
        raise ParseError("missing vertex element", path=path)
    for name in ("x", "y", "z"):
        if name not in properties:
            raise ParseError(f"vertex property {name!r} not declared", path=path)
    has_normals = all(name in properties for name in ("nx", "ny", "nz"))
    col = {name: i for i, name in enumerate(properties)}
    points = []
    normals = [] if has_normals else None
    row = 0
    for lineno, raw in enumerate(lines[header_end:], start=header_end + 1):
        line = raw.strip()
        if not line:
            continue
        if row >= n_vertices:
            break
        fields = line.split()
        if len(fields) != len(properties):
            raise ParseError(
                f"expected {len(properties)} vertex fields, found {len(fields)}",
                path=path,
                line=lineno,
            )
        values = _row_values(fields, path, lineno)
        points.append([values[col["x"]], values[col["y"]], values[col["z"]]])
        if has_normals:
            normals.append([values[col["nx"]], values[col["ny"]], values[col["nz"]]])
        row += 1
    if row != n_vertices:
        raise ParseError(f"expected {n_vertices} vertices, found {row}", path=path)
    return _finish(points, normals, path)


def load_cloud(path: str) -> PointCloud:
    """Parse an .xyz or ascii .ply file into a point cloud."""
    lines = _read_lines(path)
    lower = path.lower()
    if lower.endswith(".ply"):
        return _parse_ply(lines, path)
    if lower.endswith(".xyz") or lower.endswith(".txt"):
        return _parse_xyz(lines, path)
    # Sniff: a PLY magic line wins, anything else is treated as xyz.
    if lines and lines[0].strip() == "ply":
        return _parse_ply(lines, path)
    return _parse_xyz(lines, path)
