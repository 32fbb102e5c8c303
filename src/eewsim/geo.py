"""Geodesy primitives, regular lat/lon rasters, population exposure, and
the one path each for reading an input file, cutting a data file's text
into blocks of lines and writing a CSV.

Grids follow the ESRI ASCII layout: a regular cell matrix anchored at the
lower-left corner, stored row-major with row 0 as the northernmost row.
All distances are great-circle distances on a sphere of radius 6371 km,
which is accurate to well below the ~1 km resolution of the rasters this
package consumes.
"""

from __future__ import annotations

import io
import math
import os
import threading
import warnings
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import EewsimError, in_range

EARTH_RADIUS_KM = 6371.0

T = TypeVar("T")

# threads that read blocks of input text: the calling thread and at most one
# more, on the CPUs this process may run on
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
# characters per block of data file text (rasters, the catalog, runs.csv);
# bounds a reader's memory
_BLOCK_CHARS = 2**19


def normalize_lon(lon):
    """Wrap longitudes into [-180, 180), leaving in-range values untouched.

    ``lon`` is a float or a float64 array, and comes back as the same kind.
    Input that is all in range is returned as is, after one range test;
    otherwise the out-of-range values of a copy are wrapped.
    """
    outside = (lon < -180.0) | (lon >= 180.0)
    if outside is False or not np.any(outside):
        return lon
    out = np.array(lon, dtype=np.float64)
    out[outside] = (out[outside] + 180.0) % 360.0 - 180.0
    # (lon + 180) mod 360 rounds up to 360 for lon just below -180
    out[out == 180.0] = -180.0
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class GeoPoint:
    """WGS-84 coordinate. Longitude is normalized to [-180, 180)."""

    lat: float
    lon: float

    def __post_init__(self):
        object.__setattr__(self, "lat", float(in_range("latitude", self.lat, -90, 90)))
        object.__setattr__(self, "lon", normalize_lon(float(in_range("longitude", self.lon))))


@dataclass(frozen=True, eq=False)
class Grid:
    """Regular lat/lon raster with a nodata sentinel.

    ``values`` has shape (nrows, ncols); row 0 is the northernmost row, as
    in the file layout. The array is made read-only on construction.
    """

    ncols: int
    nrows: int
    xll: float
    yll: float
    cellsize: float
    nodata: float
    values: np.ndarray

    def __post_init__(self):
        in_range("ncols", self.ncols, 1)
        in_range("nrows", self.nrows, 1)
        in_range("cellsize", self.cellsize, 0, lo_open=True)
        in_range("NODATA_value", self.nodata)
        in_range("xllcorner", self.xll, -360, 360)  # either longitude convention, and a turn more
        # every cell center lies on the globe, and no two of them coincide there
        in_range("top row latitude", self.row_lat(0), hi=90)
        in_range("bottom row latitude", self.row_lat(self.nrows - 1), lo=-90)
        in_range("column center span", (self.ncols - 1) * self.cellsize, hi=360, hi_open=True)
        vals = np.array(self.values, dtype=np.float64)
        if vals.size != self.nrows * self.ncols:
            raise EewsimError(f"expected {self.nrows * self.ncols} values, got {vals.size}")
        vals = vals.reshape(self.nrows, self.ncols)
        if not np.isfinite(vals[vals != self.nodata]).all():
            raise EewsimError("grid contains non-finite values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return (
            (self.ncols, self.nrows, self.xll, self.yll, self.cellsize, self.nodata)
            == (other.ncols, other.nrows, other.xll, other.yll, other.cellsize, other.nodata)
            and np.array_equal(self.values, other.values)
        )

    @property
    def mask(self) -> np.ndarray:
        """Boolean array, True where the cell holds data."""
        return self.values != self.nodata

    @property
    def cell_area_deg2(self) -> float:
        return self.cellsize * self.cellsize

    def row_lat(self, row, f=0.5):
        """Latitude a fraction ``f`` of a cell north of row ``row``'s south edge.

        f = 0.5 is the center. Works elementwise on arrays of rows and
        fractions; row 0 is the northernmost row.
        """
        return self.yll + (self.nrows - 1 - row + f) * self.cellsize

    def col_lon(self, col, f=0.5):
        """Longitude a fraction ``f`` of a cell east of column ``col``'s west edge."""
        return self.xll + (col + f) * self.cellsize

    def lat_centers(self) -> np.ndarray:
        """Per-row center latitudes, row 0 (north) first."""
        return self.row_lat(np.arange(self.nrows))

    def lon_centers(self) -> np.ndarray:
        return self.col_lon(np.arange(self.ncols))

    def center_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(lat, lon) arrays of shape (nrows, ncols) holding every cell center."""
        return np.meshgrid(self.lat_centers(), self.lon_centers(), indexing="ij")


def check_population_grid(grid: Grid) -> Grid:
    """Population rasters must carry counts in [0, 2**53], none subnormal.

    In the products of a population-weighted mean of S arrivals (each below
    2**54 s) a subnormal count (0 < p < 2**-1022) underflows; none overflows.
    """
    data = grid.values[grid.mask]
    for x in (data.min(), data.max()) if data.size else ():
        in_range("population grid value", float(x), 0, 2**53)
    if ((data > 0) & (data < np.finfo(np.float64).tiny)).any():
        raise EewsimError("population grid holds subnormal values (0 < p < 2**-1022)")
    return grid


def check_mmi_grid(grid: Grid) -> Grid:
    """Intensity rasters must stay on the 0..12 scale."""
    data = grid.values[grid.mask]
    for x in (data.min(), data.max()) if data.size else ():
        in_range("MMI grid value", float(x), 0, 12)
    return grid


def haversine_km_points(origin: GeoPoint, lats, lons) -> np.ndarray:
    """Great-circle distance in km from ``origin`` to each (lat, lon) pair."""
    lat0 = math.radians(origin.lat)
    return _haversine_km(lat0, math.radians(origin.lon), math.cos(lat0),
                         np.radians(np.asarray(lats, dtype=np.float64)),
                         np.radians(np.asarray(lons, dtype=np.float64)))


def haversine_km_from(lats, lons, to: GeoPoint) -> np.ndarray:
    """``haversine_km(GeoPoint(lat, lon), to)`` for each (lat, lon) pair, bit for bit.

    ``haversine_km`` works on numpy scalars, whose ``** 2`` is libm's
    ``pow``, where an array's is ``x * x``, correctly rounded; they differ
    in the last bit for about 1 in 1000 values, so the squares here take
    ``pow``.
    """
    lat0 = np.radians(lats)
    return _haversine_km(lat0, np.radians(lons), np.cos(lat0),
                         np.radians(np.asarray(to.lat)), np.radians(np.asarray(to.lon)),
                         square=lambda x: np.array([v**2 for v in x.tolist()]))


def _haversine_km(lat0, lon0, cos_lat0, lat, lon, square=lambda x: x**2) -> np.ndarray:
    """Haversine in radians from origins (lat0, lon0) to (lat, lon); either side may be arrays."""
    a = square(np.sin((lat - lat0) / 2.0)) + cos_lat0 * np.cos(lat) * square(np.sin((lon - lon0) / 2.0))
    # clip guards rounding slightly above 1 for antipodal pairs
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in km between two points (spherical Earth)."""
    return float(haversine_km_points(a, b.lat, b.lon))


# --- ESRI ASCII grid I/O ----------------------------------------------------

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


def fold_newlines(text: str) -> str:
    """``text`` with each ``\\r\\n`` and ``\\r`` line end made ``\\n``."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def text_blocks(source: str | IO[str]) -> Iterator[str]:
    """The text of ``source``, a ``str`` or a text stream, in blocks of whole lines.

    The rasters, the catalog and runs.csv are read through here. The text
    is read ``_BLOCK_CHARS`` characters at a time, and each read is cut
    after its last line end: a ``\\n``, or a ``\\r`` that is not its last
    character (a ``\\n`` may follow). A line ends at ``\\n``, ``\\r\\n`` or
    ``\\r``, whether or not the stream translated newlines, and each block
    gets ``\\n`` for all three, a last line without one too.
    ``str.splitlines`` would also end lines at ``\\v``, ``\\f``,
    ``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028`` and ``\\u2029``, which would
    shift the line an error names.
    """
    fh = io.StringIO(source) if isinstance(source, str) else source
    rest = ""
    while block := fh.read(_BLOCK_CHARS):
        cut = max(block.rfind("\n"), block.rfind("\r", 0, -1)) + 1
        if cut:
            yield fold_newlines(rest + block[:cut])
            rest = block[cut:]
        else:
            rest += block
    if rest:
        yield fold_newlines(rest + "\n")


def read_input(path: Path, what: str, parse: Callable[[IO[str]], T]) -> T:
    """``parse`` applied to the UTF-8 text file at ``path``.

    Every failure is an EewsimError that names the file once: a missing
    file (``<what> file not found: <path>``), a byte that is not UTF-8
    (``<path>: not UTF-8 text (byte 0x..: reason)``), and any EewsimError
    that ``parse`` raises, prefixed with ``<path>: ``.
    """
    if not path.is_file():
        raise EewsimError(f"{what} file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh)
    except UnicodeDecodeError as e:
        raise EewsimError(
            f"{path}: not UTF-8 text (byte {e.object[e.start]:#x}: {e.reason})"
        ) from None
    except EewsimError as e:
        raise EewsimError(f"{path}: {e}") from None


def _csv_field(x) -> str:
    if isinstance(x, float):  # first: floats are nearly every field written
        return float.__repr__(x)
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    s = str(x)
    return f'"{s}"' if "," in s else s


def format_csv(header: str, rows: Iterable[Sequence]) -> str:
    """CSV text: ``header``, then one line per row, each ended by ``\\n``.

    Every field is written by one rule: a float as its round-trip repr,
    None as an empty field, a bool as ``true`` or ``false``, anything else
    by ``str``, in double quotes when that holds a comma, as every MMI bin
    label does (``(7.5,8]``). No field may hold a double quote or newline.
    """
    lines = [header]
    lines += [",".join(map(_csv_field, row)) for row in rows]
    return "\n".join(lines) + "\n"


def format_csv_columns(header: str, columns: Sequence[Iterable[str]]) -> str:
    """``format_csv`` text from columns of fields already written by its rule.

    A float column is ``map(float.__repr__, a.tolist())``: one pass per
    column, not one ``_csv_field`` call per value.
    """
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


def parse_ascii_grid(source: str | IO[str]) -> Grid:
    """Parse an ESRI ASCII grid.

    The six headers (ncols, nrows, xllcorner, yllcorner, cellsize,
    NODATA_value, case-insensitive) must each appear exactly once, followed
    by nrows * ncols whitespace-separated numbers with row 1 of the body
    being the northernmost row.

    ``source`` is a ``str`` or a text stream, read in blocks of whole lines
    (:func:`text_blocks`). The header lines are read one at a time from the
    first blocks, and the body's blocks are read on up to two threads
    (:func:`map_blocks`) by :func:`_grid_values`. The blocks' values are
    counted before any token is converted, so a wrong count is reported
    before a token that is not a number.
    """
    blocks = text_blocks(source)
    header, body = _read_header(blocks)
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise EewsimError(f"missing header(s): {', '.join(missing)}")
    for key in ("ncols", "nrows"):
        if in_range(f"header {key}", header[key], 1) % 1:
            raise EewsimError(f"header {key} must be an integer, got {header[key]}")

    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    parts = map_blocks(_grid_values, ((text, ncols) for text in chain([body] if body else [], blocks)))
    count = sum(map(len, parts))
    if count != nrows * ncols:
        raise EewsimError(f"expected {nrows * ncols} values for a {nrows}x{ncols} grid, got {count}")
    try:
        values = np.concatenate([np.asarray(p, dtype=np.float64) for p in parts])
    except ValueError:
        bad = next(t for p in parts if isinstance(p, list) for t in p if not _is_number(t))
        raise EewsimError(f"grid value {bad!r} is not a number") from None
    del parts  # the blocks' arrays go before the Grid makes its copy
    return Grid(
        ncols=ncols,
        nrows=nrows,
        xll=header["xllcorner"],
        yll=header["yllcorner"],
        cellsize=header["cellsize"],
        nodata=header["nodata_value"],
        values=values,
    )


def _read_header(blocks: Iterator[str]) -> tuple[dict[str, float], str]:
    """A raster's header, read line by line from its first blocks, and the
    rest of the block where its body starts (empty where there is no body)."""
    header: dict[str, float] = {}
    lineno = 0
    for block in blocks:
        end = 0
        while end < len(block):
            at, end = end, block.index("\n", end) + 1
            line = block[at:end - 1]
            lineno += 1
            parts = line.split()
            if not parts:
                continue
            key = parts[0].lower()
            if key not in _HEADER_KEYS:
                return header, block[at:]
            if len(parts) != 2:
                raise EewsimError(f"header line {lineno}: expected 'key value', got {line!r}")
            if key in header:
                raise EewsimError(f"duplicate header {parts[0]!r}")
            try:
                header[key] = float(parts[1])
            except ValueError:
                raise EewsimError(f"header {parts[0]!r}: cannot parse {parts[1]!r}") from None
    return header, ""


def _grid_values(text: str, ncols: int) -> np.ndarray | list[str]:
    """A block of raster body lines as its values in order: floats, or tokens for ``float``.

    A block of lines of ``ncols`` plain decimals split by single spaces is
    read by :func:`_read_decimal_rows`; any other by numpy's C reader, and
    where that rejects it (rows of unequal length, a number only ``float``
    takes) it is split at whitespace. Each path reads a block to the same
    values, so they do not depend on where the blocks were cut.
    """
    vals = _read_decimal_rows(text, ncols, " ")
    if vals is None:
        vals = read_float_rows(text.split("\n"))
    return text.split() if vals is None else vals.ravel()


def map_blocks(read: Callable[..., T], blocks: Iterable[tuple]) -> list[T]:
    """``[read(*block) for block in blocks]``, run on the calling thread and ``_WORKERS - 1`` more.

    The calling thread takes the first block and then starts the others;
    a thread takes the next block when it is free, so at most one block a
    thread is in flight, and the results are returned in block order. Once
    a block fails, no thread takes another, and the error of the first
    block that failed is raised, as the loop would raise it; an error in
    ``blocks`` itself counts as one of the block it was to give. Every
    thread is joined before this returns or raises.
    """
    blocks = iter(blocks)
    lock = threading.Lock()
    results: dict[int, T] = {}
    errors: list[tuple[int, BaseException]] = []
    threads: list[threading.Thread] = []
    taken = 0

    def work():
        nonlocal taken
        while not errors:
            try:
                with lock:
                    i, taken = taken, taken + 1
                    block = next(blocks, None)
                if block is None:
                    return
                if i == 0:  # only the calling thread takes block 0: one block starts no thread
                    for _ in range(_WORKERS - 1):
                        t = threading.Thread(target=work)
                        t.start()
                        threads.append(t)
                results[i] = read(*block)
            except BaseException as e:
                errors.append((i, e))

    try:
        work()
    finally:
        for t in threads:
            t.join()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    # popped: ``work`` starts threads on itself, a reference cycle that would
    # keep ``results`` alive until the garbage collector runs
    return [results.pop(i) for i in range(len(results))]


# one thread at a time in read_float_rows: warnings.catch_warnings swaps
# process-wide state
_LOADTXT_LOCK = threading.Lock()


def read_float_rows(lines: Iterable[str], delimiter: str | None = None) -> np.ndarray | None:
    """Lines parsed by numpy's C reader as a 2-D float64 array, or None if it fails.

    Empty lines are skipped. The reader fails on rows of unequal length and
    on any field but an ASCII number, some of which ``float`` takes (``1_0``,
    full-width digits): a caller re-parses a failed text with ``float``.
    """
    with _LOADTXT_LOCK, warnings.catch_warnings():  # no data lines is no error: the array is empty
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2)
        except ValueError:
            return None


def _wide_float(dtype) -> tuple[type, int, np.ndarray]:
    """The decimal reader's constants for a float type of P significand bits.

    Returns the type; the bound on mantissas, 2**min(P, 64) - 1, below
    which a uint64 mantissa is exact in it and not saturated; and the
    powers 10**0 .. 10**K for the largest K with 5**K < 2**P, each exact
    in it, as products of exact factors.
    """
    bits = np.finfo(dtype).nmant + 1
    k_max = max(k for k in range(bits) if 5**k < 2**bits)
    return dtype, 2 ** min(bits, 64) - 1, np.cumprod(np.r_[1, [10] * k_max].astype(dtype))


# x87 extended precision (P = 64) on x86-64 Linux; a plain double elsewhere
_WIDE = _wide_float(np.longdouble)
# x87's 80 bits stored in 16 bytes: the low 8 are the significand, integer bit included
_X87 = np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16


def _read_decimal_rows(text: str, ncols: int, sep: str) -> np.ndarray | None:
    """Rows of plain decimals as an (m, ncols) float64 array, or None for any other text.

    Every line of ``text`` must end in ``\\n`` and hold ``ncols`` ASCII
    fields ``-?d*.?d*`` with at least one digit, split by the one character
    ``sep`` (``,`` or a space): no blank line, other whitespace, repeated
    or trailing ``sep``, ``+`` or exponent. Each value has the bits
    ``float`` gives its field. A field with digits m and k of them after
    the point is m / 10**k, one division in the wide type, where m and
    10**k are exact (Clinger's fast path widened to its significand),
    then rounded to float64. That double rounding is one correct rounding
    unless the quotient q falls on the midpoint of two doubles; such
    fields, and those where m or k is too large to be exact, are read with
    ``float``. On x87, q is a midpoint where the 11 significand bits that
    rounding to float64 drops are 10000000000 (q, 0 or at least 10**-27
    and below 2**64, is a normal double); with any other wide type, where
    2q - x is a double. The sign is applied last, so ``-0`` gives -0.0.
    """
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    b = np.frombuffer(raw, np.uint8)
    if not b.size or b[-1] != 10 or (b > 57).any():
        return None
    # the bytes below '0' in order: the separators (sep and '\n'), then
    # '-', '.' and the others, which decline the block
    at = np.flatnonzero(b < 48)
    kind = b[at]
    at_sep = np.flatnonzero(kind < 45)
    nf = at_sep.size
    if nf % ncols or not (kind[at_sep].reshape(-1, ncols) == [ord(sep)] * (ncols - 1) + [10]).all():
        return None
    ends = at[at_sep]
    # a field's '.' must be its last byte below '0', so the counts below
    # catch a second '.' or a '-' after it; for the first field, index -1
    # reads the final '\n'
    at_sep -= 1
    dotted = kind[at_sep] == 46
    k = at[at_sep]  # digits after the point: the '.' to the field's end
    np.subtract(ends, k, out=k)
    k -= 1
    k[~dotted] = 0
    neg = np.empty(nf, bool)  # each field's first byte is '-'
    neg[0] = b[0] == 45
    neg[1:] = b[ends[:-1] + 1] == 45
    if (np.count_nonzero(kind == 45) != np.count_nonzero(neg)
            or np.count_nonzero(kind == 46) != np.count_nonzero(dotted)
            or np.count_nonzero(kind == 47)):
        return None
    # each array is dropped once read: a block's arrays are a reader thread's
    # working memory, which stays with the process after the thread ends
    del at, kind, at_sep, dotted
    digits = raw.translate(bytes.maketrans(b"\n" + sep.encode(), b",,"), b"-.")
    try:  # a field without a digit is left empty, which np.fromstring rejects
        m = np.fromstring(digits, np.uint64, sep=",")
    except ValueError:
        return None
    del digits
    if m.size != nf:
        return None

    wide, m_limit, pow10 = _WIDE
    slow = (k >= pow10.size) | (m >= m_limit)
    q = pow10.take(k, mode="clip")
    del k
    np.divide(m, q, out=q)
    del m
    x = q.astype(np.float64)
    if wide is np.longdouble and _X87:
        slow |= (q.view(np.uint64)[::2] & 0x7FF) == 0x400
    else:
        y = 2 * q - x  # exact, and a double, where q is the midpoint between x and y
        slow |= (q != x) & (y == y.astype(np.float64))
    del q
    for i in np.flatnonzero(slow).tolist():
        x[i] = float(raw[(ends[i - 1] + 1 if i else 0) + neg[i]:ends[i]])
    np.negative(x, out=x, where=neg)
    return x.reshape(-1, ncols)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def format_ascii_grid(grid: Grid) -> str:
    """Serialize a grid so that parse(format(g)) == g exactly.

    Floats are written with repr, which round-trips ASCII <-> float64,
    except +0.0 (all float64 bits zero), which is written as repr's ``0.0``
    without calling it: a flushed density grid is mostly +0.0. The test is
    on the bits, as -0.0 == 0.0 but repr gives ``-0.0``; -0.0, subnormals
    and nodata cells go through repr.
    """
    out = [
        f"ncols {grid.ncols}",
        f"nrows {grid.nrows}",
        f"xllcorner {grid.xll!r}",
        f"yllcorner {grid.yll!r}",
        f"cellsize {grid.cellsize!r}",
        f"NODATA_value {grid.nodata!r}",
    ]
    zero_row = " ".join(["0.0"] * grid.ncols)
    nonzero = grid.values.view(np.uint64) != 0
    for row, mask, count in zip(grid.values, nonzero, nonzero.sum(axis=1).tolist()):
        if count == grid.ncols:
            out.append(" ".join(map(repr, row.tolist())))
        elif count:
            tokens = ["0.0"] * grid.ncols
            for j, v in zip(np.flatnonzero(mask).tolist(), row[mask].tolist()):
                tokens[j] = repr(v)
            out.append(" ".join(tokens))
        else:
            out.append(zero_row)
    return "\n".join(out) + "\n"


# --- cell addressing --------------------------------------------------------

def cell_center(grid: Grid, row: int, col: int) -> GeoPoint:
    """Center coordinate of the cell at (row, col), row 0 being northernmost."""
    if not (0 <= row < grid.nrows and 0 <= col < grid.ncols):
        raise EewsimError(f"cell ({row}, {col}) outside {grid.nrows}x{grid.ncols} grid")
    return GeoPoint(grid.row_lat(row), grid.col_lon(col))


def cell_indices(grid: Grid, lats, lons) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized point -> (row, col) mapping with an inside-grid mask.

    Points on a shared cell edge land in the cell with the larger row/col
    index: columns are measured from the left edge and rows from the top
    edge, so flooring pushes boundary points east and south. Points on the
    outer south or east edge therefore fall outside the grid. A row or
    column outside the grid is given as 0: its index may not fit int64, or
    be inf. Rows keep the shape of ``lats`` and columns that of ``lons``,
    so a column of latitudes and a row of longitudes give a column of rows
    and a row of columns; the mask has their broadcast shape.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    ytop = grid.yll + grid.nrows * grid.cellsize
    with np.errstate(over="ignore"):
        cols = np.floor((lons - grid.xll) / grid.cellsize)
        rows = np.floor((ytop - lats) / grid.cellsize)
    col_in = (cols >= 0) & (cols < grid.ncols)
    row_in = (rows >= 0) & (rows < grid.nrows)
    rows, cols = np.where(row_in, rows, 0), np.where(col_in, cols, 0)
    return rows.astype(np.int64), cols.astype(np.int64), row_in & col_in


def sample_values(grid: Grid, lats, lons) -> np.ndarray:
    """Nearest-cell values at the given points; NaN marks nodata/outside.

    ``lats`` and ``lons`` broadcast against each other, so a column of
    latitudes and a row of longitudes sample a whole mesh.
    """
    rows, cols, inside = cell_indices(grid, lats, lons)
    vals = grid.values[rows, cols]  # an outside point reads a cell in row or column 0
    return np.where(inside & (vals != grid.nodata), vals, np.nan)


# the last match_cells arguments and result
_last_match: list = [None, None, None]


def match_cells(pop: Grid, mmi: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Match every population cell to the intensity at its center.

    Returns ``(lat2, lon2, mmi_at, matched)``, each of the population
    grid's shape: the cell centers, the intensity sampled there (NaN
    outside the intensity grid or on its nodata) and the mask of valid
    population cells whose center got an intensity. The two grids need
    not share geometry. The arrays are read-only, the centers broadcast
    views of the row and column centers: a grid cannot change, so the
    last result is returned again for the same two grid objects, and
    ``eewsim all`` matches the cells once for exposure and warn.
    """
    last_pop, last_mmi, result = _last_match
    if pop is not last_pop or mmi is not last_mmi:
        lats, lons = pop.lat_centers()[:, None], pop.lon_centers()
        mmi_at = sample_values(mmi, lats, lons)
        shape = pop.values.shape
        result = (np.broadcast_to(lats, shape), np.broadcast_to(lons, shape), mmi_at,
                  pop.mask & np.isfinite(mmi_at))
        for a in result:
            a.setflags(write=False)
        _last_match[:] = pop, mmi, result
    return result


# --- intensity bins and exposure --------------------------------------------

@dataclass(frozen=True)
class MmiBin:
    """Half-open or closed intensity interval, e.g. (7.5, 8]."""

    lo: float
    hi: float
    lo_open: bool = True
    hi_open: bool = False

    def __post_init__(self):
        in_range("bin lo", self.lo)
        in_range("bin hi", self.hi, self.lo, lo_open=True)

    def contains(self, m):
        """Membership test; works elementwise on numpy arrays."""
        above = (m > self.lo) if self.lo_open else (m >= self.lo)
        below = (m < self.hi) if self.hi_open else (m <= self.hi)
        return above & below

    def __str__(self):
        """Interval notation that :meth:`parse` reads back to an equal bin.

        An edge is written with ``:g`` (``8``) where that keeps its value,
        else with ``repr``, as ``:g`` keeps only 6 significant digits.
        """
        lo_b = "(" if self.lo_open else "["
        hi_b = ")" if self.hi_open else "]"
        return f"{lo_b}{_edge(self.lo)},{_edge(self.hi)}{hi_b}"

    @classmethod
    def parse(cls, text: str) -> "MmiBin":
        """Parse the interval notation used in config files, e.g. ``(7.5,8]``."""
        s = text.strip()
        if len(s) < 5 or s[0] not in "([" or s[-1] not in ")]":
            raise EewsimError(f"cannot parse intensity bin {text!r}")
        inner = s[1:-1].split(",")
        if len(inner) != 2:
            raise EewsimError(f"cannot parse intensity bin {text!r}")
        try:
            lo, hi = float(inner[0]), float(inner[1])
        except ValueError:
            raise EewsimError(f"cannot parse intensity bin {text!r}") from None
        return cls(lo=lo, hi=hi, lo_open=s[0] == "(", hi_open=s[-1] == ")")


def _edge(x: float) -> str:
    s = f"{x:g}"
    return s if float(s) == x else repr(x)


DEFAULT_MMI_BINS = (
    MmiBin(7.5, 8.0),
    MmiBin(8.0, 8.5),
    MmiBin(8.5, 9.0),
)


def check_disjoint_bins(bins: Sequence[MmiBin]) -> None:
    """Raise EewsimError when any two bins overlap."""
    ordered = sorted(bins, key=lambda b: (b.lo, b.hi))
    for a, b in zip(ordered, ordered[1:]):
        if b.lo < a.hi or (b.lo == a.hi and not a.hi_open and not b.lo_open):
            raise EewsimError(f"intensity bins {a} and {b} overlap")


@dataclass(frozen=True)
class ExposureResult:
    """Population totals per intensity bin plus the exceedance curve.

    ``total_population`` counts the population of cells that could be
    matched to an intensity value (valid population cell whose center falls
    on a valid intensity cell); the exceedance curve is normalized by it.
    """

    bins: tuple[MmiBin, ...]
    populations: tuple[float, ...]
    total_population: float
    _mmi_sorted: np.ndarray = field(repr=False)
    _pop_suffix: np.ndarray = field(repr=False)

    def exceedance(self, mmi: float) -> float:
        """Fraction of matched population exposed to intensity >= ``mmi``."""
        if self.total_population <= 0:
            return 0.0
        i = int(np.searchsorted(self._mmi_sorted, mmi, side="left"))
        return float(self._pop_suffix[i] / self.total_population)


def exposure_histogram(
    mmi: Grid, pop: Grid, bins: Sequence[MmiBin]
) -> ExposureResult:
    """Population exposed to each intensity bin.

    Every valid population cell is matched to the intensity at its center
    by :func:`match_cells`; cells falling outside the intensity grid or on
    a nodata intensity cell are excluded.
    """
    if not bins:
        raise EewsimError("exposure_histogram needs at least one bin")
    check_disjoint_bins(bins)

    _, _, samples, matched = match_cells(pop, mmi)
    pops = pop.values[matched]
    samples = samples[matched]

    totals = tuple(float(pops[b.contains(samples)].sum()) for b in bins)
    order = np.argsort(samples, kind="stable")
    mmi_sorted = samples[order]
    pop_sorted = pops[order]
    suffix = np.concatenate([np.cumsum(pop_sorted[::-1])[::-1], [0.0]])
    # the grand total comes from the same accumulation as the suffix sums,
    # so exceedance(min) is exactly 1
    return ExposureResult(
        bins=tuple(bins),
        populations=totals,
        total_population=float(suffix[0]),
        _mmi_sorted=mmi_sorted,
        _pop_suffix=suffix,
    )
