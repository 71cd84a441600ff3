"""Point-cloud file ingestion (xyz and ascii PLY), CSV row formatting and atomic text output.

xyz rows carry 3 (positions) or 6 (positions + normals) whitespace-separated
finite numbers.  PLY support covers the ascii subset with float/double
vertex properties x, y, z and optionally nx, ny, nz; binary PLY is rejected.
Normals are re-normalized on load since scan data is noisy.

The data rows of both formats go through one ``np.loadtxt`` call, whose C
reader splits a line on the whitespace of ``str.split`` and reads a number
with the bits of ``float``; its result is checked for the width and for
finite values.  Only when that call raises, or a check fails, are the lines
read again one by one with ``float``, which raises the error a line-by-line
reader raises first (width, then non-numeric, then non-finite, with its line
number) or returns the values of text that ``float`` reads and numpy does
not, such as ``1_0``.

CSV rows are written by one vectorised numpy kernel that emits exactly the
bytes of ``"%.17g"``, with an exact fast path for almost every value and a
per-value fallback for the rest, as in Grisu (Loitsch, "Printing
floating-point numbers quickly and accurately", PLDI 2010).

* Digits.  A double x with 10**d <= |x| < 10**(d+1) is scaled by 10**(16 - d),
  an exact double for d in [-6, 16].  Dekker's two-product gives the scaled
  value exactly as ph + pl, so the estimate of d from ``log10`` is checked
  and corrected exactly, and the 17-digit integer is rounded half to even,
  as ``%.17g`` rounds, by comparing pl with floor(pl) + 0.5.
* Fast path: d in [-6, 16] after rounding, and ±0.  Every other double
  (subnormals, |x| < 1e-6 or >= 1e17, inf, nan) is written by
  ``"%.17g" % x``, which never raises.
* Layout.  Each value gets a fixed-width field of bytes: a row of a small
  table chosen by (separator, sign, d, significant-digit count) holds the
  constant bytes and marks where digits go, the digits come from a table of
  four-digit groups, and zero bytes are padding that compacting the chunk
  drops.

``format_rows`` takes column blocks, (n,) or (n, c) arrays side by side, and
copies each chunk's rows of them into one lane buffer, so a caller with
index columns and a field block never stacks a whole table.
"""

from __future__ import annotations

import functools
import math
import os
import secrets
import stat

import numpy as np

from .errors import InvalidArgumentError, InvalidInputError, ParseError
from .geometry import PointCloud
from .lanes import Workspace, run_blocks

__all__ = ["load_cloud", "format_rows", "write_text_atomic"]

# Rows formatted per pass of the kernel, one chunk a block of the two lanes.
# Each lane's work buffers take about 350 KB a column, 3.6 MB for the
# ten-column features table, small beside its ~17 MB text at 5k points.  At
# 512 rows the two lanes were slower than one: the GIL changed hands around
# ~40 small numpy calls a chunk.
_CSV_CHUNK_ROWS = 2048
# A table of at most _KEPT_COLUMNS columns formats in _WORKSPACE, whose lane
# buffers stay between calls, so a process that formats again does not
# page-fault them again: at most 3.6 MB a lane for each thread that has
# formatted (the executor's included), held until the thread ends, and none
# for a thread that never formats.  A wider table's buffers go with its call.
_KEPT_COLUMNS = 10
_WORKSPACE = Workspace()

# Every field is _FIELD bytes, six uint64 words: byte 0 the sign, 1-5 the lead
# "0.000" of d in [-4, -1], 6 + 2i digit i with a point slot at 7 + 2i after
# it (i = 0..16), 40-43 the exponent "e-0N" of d in {-6, -5}, 47 the
# separator.  A layout row holds each kept constant byte, 0xFF under each kept
# digit and 0 elsewhere; ANDed with the digit words of a value it becomes the
# field.
_FIELD = 48
_KEEP = 0xFF
_MAX_TEXT = 24  # the longest field text, "-0.00012345678901234567", and its separator
_D_MIN, _D_MAX = -6, 16  # decimal exponents of the fast path
_N_D = _D_MAX - _D_MIN + 2  # the exponents, then the row of a fallback field
_LEAD = 10_000  # digit-word index of leading digit 0
_ALL_KEPT = _LEAD + 10  # digit-word index of eight 0xFF bytes


def _layout_table():
    """uint64 layout rows indexed by (line end, negative, d - _D_MIN, significant digits - 1).

    Index _N_D - 1 in place of d - _D_MIN gives the field of a fallback
    value: only its separator.  Also returns the text length of each row.
    """
    rows = bytearray(_N_D * 17 * _FIELD)
    for d in range(_D_MIN, _D_MAX + 1):
        for s in range(1, 18):
            at = ((d - _D_MIN) * 17 + s - 1) * _FIELD
            if d < -4:  # D0[.D1...]e-0N
                digits, point = s, 0
                rows[at + 40 : at + 44] = f"e-0{-d}".encode("ascii")
            elif d < 0:  # 0.000D0D1...
                digits, point = s, None
                rows[at + 1 : at + 2 - d] = b"0.000"[: 1 - d]
            else:  # D0...Dd[.Dd+1...]
                digits, point = max(s, d + 1), d
            rows[at + 6 : at + 6 + 2 * digits : 2] = bytes([_KEEP]) * digits
            if point is not None and s > point + 1:
                rows[at + 7 + 2 * point] = ord(".")
    table = np.empty((2, 2, _N_D * 17, _FIELD), dtype=np.uint8)
    table[...] = np.frombuffer(rows, dtype=np.uint8).reshape(-1, _FIELD)
    table[:, 1, : -17, 0] = ord("-")
    table[0, ..., -1] = ord(",")
    table[1, ..., -1] = ord("\n")
    table = table.reshape(-1, _FIELD)
    return table.view(np.uint64), np.count_nonzero(table, axis=1).astype(np.intp)


def _digit_tables():
    """Digit words, and significant-digit counts of the four-digit groups of a 17-digit integer.

    Word g < 10**4 interleaves the four digits of g with 0xFF point slots;
    word _LEAD + k holds six 0xFF bytes (they keep the sign and lead bytes),
    the leading digit k and a point slot; word _ALL_KEPT is all 0xFF.  Count
    [c, g] is how many digits the integer has up to the last non-zero one of
    group c (1 to 4, after the leading digit) when that group is g, or 0 for
    g = 0.
    """
    g = np.arange(_LEAD, dtype=np.int16)
    group_digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8)
    words = np.full((_ALL_KEPT + 1, 8), _KEEP, dtype=np.uint8)
    words[:_LEAD, 0::2] = group_digits + np.uint8(ord("0"))
    words[_LEAD:_ALL_KEPT, 6] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    last = np.where(group_digits != 0, np.arange(1, 5, dtype=np.uint8), np.uint8(0)).max(axis=1)
    counts = np.zeros((5, _LEAD), dtype=np.uint8)
    for c in range(1, 5):
        counts[c] = np.where(last > 0, last + np.uint8(4 * (c - 1) + 1), np.uint8(0))
    return words.view(np.uint64).ravel(), counts


@functools.cache
def _tables():
    """(layout rows, their text lengths, digit words, significant-digit counts).

    Built on the first call, so that a process that writes no CSV holds
    none of them: built at import, they and their temporaries raised the
    peak RSS of a training run by about 0.45 MB.
    """
    return (*_layout_table(), *_digit_tables())


_LAYOUT_BLOCK = _N_D * 17  # rows per (line end, negative) pair
_FALLBACK = (_N_D - 1) * 17

# 10**p for p in 0..22: each is an exact double.  Veltkamp's split of each
# into two 26-bit halves serves Dekker's two-product.
_SPLIT = 134217729.0  # 2**27 + 1
_POW10 = np.array([float(10**p) for p in range(23)], dtype=np.float64)
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_WRITE_SLICE = 1 << 20  # characters encoded and written at a time by write_text_atomic


def _exact_scaled(a, d):
    """|x| * 10**(16 - d) exactly, as ph + pl (Dekker's two-product, no FMA needed)."""
    p = 16 - d
    ph = a * _POW10[p]
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[p], _POW10_LO[p]
    pl = ((a_hi * b_hi - ph) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return ph, pl


def _exponent_error(ph, pl):
    """-1 where ph + pl < 1e16, +1 where it is >= 1e17, else 0: the error of the decimal exponent."""
    low = (ph < 1e16) | ((ph == 1e16) & (pl < 0.0))
    high = (ph > 1e17) | ((ph == 1e17) & (pl >= 0.0))
    return high.astype(np.intp) - low.astype(np.intp)


def _clamp(d):
    """d clipped to [_D_MIN, _D_MAX] in place (it holds no nan)."""
    return np.minimum(np.maximum(d, _D_MIN, out=d), _D_MAX, out=d)


def _decimal(x):
    """17-digit decimal of each double: (digits, d, fast).

    digits is the int64 n in [10**16, 10**17) with |x| = n * 10**(d - 16)
    rounded half to even, or 0 for ±0 (with d = 0).  fast is False where x
    is off the fast path (the other outputs are then meaningless).
    """
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= 1e-6) & (a < 1e17)  # False for nan
    a = np.fmin(np.fmax(a, 1e-6), 1e17)  # fmax and fmin drop nan
    d = _clamp(np.floor(np.log10(a))).astype(np.intp)
    ph, pl = _exact_scaled(a, d)
    # log10 misses the exponent by at most one, next to a power of ten.
    step = _exponent_error(ph, pl) * fast
    redo = step.nonzero()[0]
    d[redo] = _clamp(d[redo] + step[redo])
    ph[redo], pl[redo] = _exact_scaled(a[redo], d[redo])
    fast[redo] = _exponent_error(ph[redo], pl[redo]) == 0
    # ph >= 2**53 is an even integer, so ph + pl rounds half to even on pl
    # alone, which is compared with floor(pl) + 0.5 (exact), not subtracted.
    floor = np.floor(pl)
    half = floor + 0.5
    low = floor.astype(np.int64)
    up = (pl > half) | ((pl == half) & (low & 1).astype(bool))
    n = ph.astype(np.int64) + low + up
    # Rounding up to 10**17 would carry into the exponent.  No double of the
    # fast path does: 10**(d+1) is itself a double for d >= -1, and the
    # largest double below each of 1e-5, ..., 0.1 stays below it at 17
    # digits.  Were one to, the fallback would write it.
    fast &= n < 10**17
    n *= ~zero
    d *= ~zero
    return n, d, fast | zero


def _fields(x, line_end, out, groups, words):
    """Write the ``%.17g`` field of each double of x into the rows of ``out`` (len(x), 6) uint64.

    ``line_end`` is the layout offset of each value's separator; ``groups``
    (6, len(x)) intp and ``words`` (len(x), 6) uint64 are work buffers, the
    last row of ``groups`` holding _ALL_KEPT.  Returns (layout, fast); a fallback
    value gets an empty field that holds only its separator.
    """
    layout_rows, _, digit_words, counts = _tables()
    n, d, fast = _decimal(x)
    hi = (n // 10**8).astype(np.uint32)
    lo = (n - hi.astype(np.int64) * 10**8).astype(np.uint32)
    lead = hi // np.uint32(10**8)
    groups[0] = lead + np.uint32(_LEAD)
    for row, half in ((1, hi - lead * np.uint32(10**8)), (3, lo)):
        high = half // np.uint32(10**4)
        groups[row] = high
        groups[row + 1] = half - high * np.uint32(10**4)
    significant = np.ones(len(n), dtype=np.intp)
    for c in range(1, 5):
        np.maximum(significant, counts[c].take(groups[c]), out=significant)
    layout = np.where(fast, (d - _D_MIN) * 17 + significant - 1, _FALLBACK)
    layout += line_end + (np.signbit(x) & fast).astype(np.intp) * _LAYOUT_BLOCK
    # The indices are in range; mode="clip" lets take write ``out`` unbuffered.
    layout_rows.take(layout, axis=0, out=out, mode="clip")
    out &= digit_words.take(groups.T, out=words, mode="clip")
    return layout, fast


def format_rows(*columns, header: str = "") -> str:
    """``header``, then the CSV lines of the column blocks side by side, every value as ``%.17g``.

    Each column block is an (n,) or (n, c) array, all with the same n; a
    bare 2-D table is one block.  A chunk copies its rows of every block
    into one (rows, columns) float64 buffer of its lane, so the caller forms
    no whole table.  17 significant digits round-trip any double bitwise.
    Every block is read as float64, so an integer prints as ``%d`` would
    print it only for |v| <= 2**53, which holds any index column; 2**53 + 1
    prints as 9007199254740992, its nearest double.  The text is byte for
    byte that of ``"%.17g" % float(v)``.  The vectorised kernel of the
    module docstring writes every value with a decimal exponent in [-6, 16],
    and ±0; ``"%.17g" % v`` writes the others.

    Chunks of ``_CSV_CHUNK_ROWS`` rows run on the two lanes of
    ``sipf.lanes.run_blocks``, and each chunk is decoded into its own slot
    of the parts list.  A lane's buffers take about 350 KB a column.  For a
    table of at most ``_KEPT_COLUMNS`` (10) columns, such as the features
    table, they come from the module's ``_WORKSPACE`` and stay between
    calls, one set for each thread that runs a lane (the caller's for lane
    0, the executor's for lane 1) until that thread ends: at most 3.6 MB a
    lane, none for a thread that never formats.  A later call with the same
    width and chunk row count reuses them; another makes them anew.  A wider
    table's buffers are the call's own and go when it returns.
    ``header`` is the first part, so the caller's header is joined in place
    instead of being prepended to a second copy of the text.
    """
    blocks = [b[:, None] if b.ndim == 1 else b for b in map(np.asarray, columns)]
    if len({len(b) for b in blocks}) != 1:
        raise InvalidArgumentError(f"column blocks need one row count, got {[len(b) for b in blocks]}")
    n_rows = len(blocks[0])
    n_cols = sum(b.shape[1] for b in blocks)
    _tables()  # built here, not by both lanes at once
    rows = min(n_rows, _CSV_CHUNK_ROWS)
    size = rows * n_cols
    line_end = np.resize(np.arange(n_cols, dtype=np.intp) == n_cols - 1, size) * (2 * _LAYOUT_BLOCK)
    parts = [header] + [""] * max(1, -(-n_rows // _CSV_CHUNK_ROWS))

    def fill(lane, alloc, start, stop):
        table = alloc("table", (rows, n_cols), np.float64)[: stop - start]
        np.concatenate([b[start:stop] for b in blocks], axis=1, out=table)
        k = table.size
        fields = alloc("fields", (size, _FIELD // 8), np.uint64)[:k]
        # The digit words, then the keep mask: both are k * _FIELD bytes.
        scratch = alloc("scratch", (size, _FIELD // 8), np.uint64)
        groups = alloc("groups", (6, size), np.intp)
        groups[-1] = _ALL_KEPT
        layout, fast = _fields(table.ravel(), line_end[:k], fields, groups[:, :k], scratch[:k])
        raw = fields.view(np.uint8).ravel()
        kept = np.not_equal(raw, 0, out=scratch.view(bool).ravel()[: len(raw)])
        if np.logical_and.reduce(fast):
            text = alloc("text", (size * _MAX_TEXT,), np.uint8)
            chunk = raw.compress(kept, out=text[: np.count_nonzero(kept)])
        else:
            chunk = _insert_fallbacks(raw.compress(kept), table, layout, fast)
        parts[1 + start // _CSV_CHUNK_ROWS] = str(memoryview(chunk), "ascii")

    run_blocks(n_rows, _CSV_CHUNK_ROWS, fill, workspace=_WORKSPACE if n_cols <= _KEPT_COLUMNS else None)
    return "".join(parts)


def _insert_fallbacks(text, block, layout, fast):
    """Insert ``"%.17g" % v`` into the empty field of each fallback value of ``block``.

    The layout lengths give where each field starts in the compacted text.
    """
    lengths = _tables()[1][layout]
    starts = np.cumsum(lengths) - lengths
    slow = np.flatnonzero(~fast)
    pieces = [("%.17g" % block.flat[i]).encode("ascii") for i in slow]
    sizes = np.array([len(p) for p in pieces], dtype=np.intp)
    inserted = np.frombuffer(b"".join(pieces), dtype=np.uint8)
    return np.insert(text, np.repeat(starts[slow], sizes), inserted)


def write_text_atomic(path: str, content: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partial output.

    The file keeps the mode of the file it replaces; a new file gets 0o666
    less the umask, as ``open`` gives it.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}.part")
    try:
        # O_EXCL refuses an existing name; the OS applies the umask to 0o666.
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as handle:
                # Slices: writing the whole text at once encodes a full copy of it.
                for start in range(0, len(content), _WRITE_SLICE):
                    handle.write(content[start : start + _WRITE_SLICE])
            try:
                os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
            except FileNotFoundError:
                pass
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


def _read_rows(lines, lineno, path, width_error, limit, comment):
    """The first ``limit`` data rows of ``lines``, read one line at a time with ``float``.

    Raises the ParseError of the first bad row, checked in this order:
    width, then non-numeric, then non-finite, with its line number.
    """
    rows = []
    for number, line in enumerate(lines, start=lineno):
        if len(rows) == limit:
            break
        fields = line.split()
        if not fields or fields[0][0] == comment:
            continue
        message = width_error(len(fields), len(rows[0]) if rows else len(fields))
        if message:
            raise ParseError(message, path=path, line=number)
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise ParseError(f"non-numeric field: {exc}", path=path, line=number) from exc
        if not all(map(math.isfinite, values)):
            raise ParseError("non-finite value", path=path, line=number)
        rows.append(values)
    return np.array(rows)


def _convert_rows(lines, lineno, path, width_error, limit, comment=None):
    """The first ``limit`` data rows of ``lines`` as one (rows, width) float64 array, or None.

    A data row is a line with a field whose first field does not start with
    ``comment``; ``lineno`` is the line number of ``lines[0]``.  The first
    row's width is the expected one, and ``width_error(found, expected)``
    gives the message of a bad width, or None.  The rows go through one
    ``np.loadtxt`` call; ``_read_rows`` reads the lines again only when it
    raises or its result has a bad width or a non-finite value.
    """
    rows = [line for line in lines if (text := line.lstrip()) and text[0] != comment][:limit]
    if not rows:
        return None
    try:
        values = np.loadtxt(rows, comments=None, ndmin=2)
    except ValueError:
        values = None
    if values is None or width_error(values.shape[1], values.shape[1]) or not np.isfinite(values).all():
        values = _read_rows(lines, lineno, path, width_error, limit, comment)
    return values


def _finish(points, normals, path):
    pts = np.ascontiguousarray(points)
    if len(pts) < 2:
        raise ParseError("a point cloud needs at least 2 points", path=path)
    if normals is not None:
        lengths = np.linalg.norm(normals, axis=1)
        if np.any(lengths == 0):
            bad = int(np.nonzero(lengths == 0)[0][0])
            raise ParseError(f"zero-length normal for point {bad}", path=path)
        normals = normals / lengths[:, None]
    return PointCloud(points=pts, normals=normals)


def _xyz_width_error(found, expect):
    if found not in (3, 6):
        return f"expected 3 or 6 columns, found {found}"
    if found != expect:
        return f"inconsistent column count (expected {expect}, found {found})"


def _parse_xyz(lines, path):
    values = _convert_rows(lines, 1, path, _xyz_width_error, len(lines), comment="#")
    if values is None:
        raise ParseError("file contains no data rows", path=path)
    return _finish(values[:, :3], values[:, 3:] if values.shape[1] == 6 else None, path)


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

    def width_error(found, expect):
        return None if found == len(properties) else f"expected {len(properties)} vertex fields, found {found}"

    # The data rows are the first n_vertices non-blank lines; faces and the like follow them.
    values = _convert_rows(lines[header_end:], header_end + 1, path, width_error, max(n_vertices, 0))
    if values is None:
        values = np.empty((0, len(properties)))
    if len(values) != n_vertices:
        raise ParseError(f"expected {n_vertices} vertices, found {len(values)}", path=path)
    points = values[:, [col["x"], col["y"], col["z"]]]
    normals = values[:, [col["nx"], col["ny"], col["nz"]]] if has_normals else None
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
