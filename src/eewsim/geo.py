"""Geodesy primitives, regular lat/lon rasters and population exposure.

Grids follow the ESRI ASCII layout: a regular cell matrix anchored at the
lower-left corner, stored row-major with row 0 as the northernmost row.
All distances are great-circle distances on a sphere of radius 6371 km,
which is accurate to well below the ~1 km resolution of the rasters this
package consumes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyBins,
    IndexOutOfRange,
    MalformedHeader,
    NonFiniteValue,
    OutOfRangeCoordinate,
)

EARTH_RADIUS_KM = 6371.0


def normalize_lon(lon: float) -> float:
    """Wrap a longitude into [-180, 180), leaving in-range values untouched."""
    if -180.0 <= lon < 180.0:
        return lon
    lon = (lon + 180.0) % 360.0 - 180.0
    # (lon + 180) % 360 rounds up to 360 for lon just below -180
    return -180.0 if lon == 180.0 else lon


@dataclass(frozen=True)
class GeoPoint:
    """WGS-84 coordinate. Longitude is normalized to [-180, 180)."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise OutOfRangeCoordinate(
                f"non-finite coordinate ({self.lat}, {self.lon})"
            )
        if not -90.0 <= self.lat <= 90.0:
            raise OutOfRangeCoordinate(f"latitude {self.lat} outside [-90, 90]")
        object.__setattr__(self, "lat", float(self.lat))
        object.__setattr__(self, "lon", normalize_lon(float(self.lon)))


@dataclass(frozen=True, eq=False)
class Grid:
    """Regular lat/lon raster with a nodata sentinel.

    ``values`` has shape (nrows, ncols); row 0 is the northernmost row, as
    in the file layout. The array is made read-only on construction so
    grids can be shared freely across threads.
    """

    ncols: int
    nrows: int
    xll: float
    yll: float
    cellsize: float
    nodata: float
    values: np.ndarray

    def __post_init__(self):
        if self.ncols < 1 or self.nrows < 1:
            raise DimensionMismatch(
                f"grid dimensions must be positive, got {self.nrows}x{self.ncols}"
            )
        if not (math.isfinite(self.cellsize) and self.cellsize > 0):
            raise ValueError(f"cellsize must be positive, got {self.cellsize}")
        if not math.isfinite(self.nodata):
            raise NonFiniteValue(f"nodata sentinel must be finite, got {self.nodata}")
        vals = np.array(self.values, dtype=np.float64)
        if vals.size != self.nrows * self.ncols:
            raise DimensionMismatch(
                f"expected {self.nrows * self.ncols} values, got {vals.size}"
            )
        vals = vals.reshape(self.nrows, self.ncols)
        if not np.isfinite(vals[vals != self.nodata]).all():
            raise NonFiniteValue("grid contains non-finite values")
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

    def lat_centers(self) -> np.ndarray:
        """Per-row center latitudes, row 0 (north) first."""
        return self.yll + (self.nrows - 1 - np.arange(self.nrows) + 0.5) * self.cellsize

    def lon_centers(self) -> np.ndarray:
        return self.xll + (np.arange(self.ncols) + 0.5) * self.cellsize

    def center_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(lat, lon) arrays of shape (nrows, ncols) holding every cell center."""
        return np.meshgrid(self.lat_centers(), self.lon_centers(), indexing="ij")


def check_population_grid(grid: Grid) -> Grid:
    """Population rasters must carry non-negative counts."""
    data = grid.values[grid.mask]
    if data.size and data.min() < 0:
        raise ValueError("population grid holds negative values")
    return grid


def check_mmi_grid(grid: Grid) -> Grid:
    """Intensity rasters must stay on the 0..12 scale."""
    data = grid.values[grid.mask]
    if data.size and (data.min() < 0 or data.max() > 12):
        raise ValueError("MMI grid holds values outside [0, 12]")
    return grid


def haversine_km_points(origin: GeoPoint, lats, lons) -> np.ndarray:
    """Great-circle distance in km from ``origin`` to each (lat, lon) pair."""
    lat0 = math.radians(origin.lat)
    lon0 = math.radians(origin.lon)
    lat = np.radians(np.asarray(lats, dtype=np.float64))
    lon = np.radians(np.asarray(lons, dtype=np.float64))
    a = (
        np.sin((lat - lat0) / 2.0) ** 2
        + math.cos(lat0) * np.cos(lat) * np.sin((lon - lon0) / 2.0) ** 2
    )
    # clip guards rounding slightly above 1 for antipodal pairs
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in km between two points (spherical Earth)."""
    return float(haversine_km_points(a, b.lat, b.lon))


# --- ESRI ASCII grid I/O ----------------------------------------------------

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


def _as_text(source: str | IO[str] | Iterable[str]) -> str:
    if isinstance(source, str):
        return source
    if hasattr(source, "read"):
        return source.read()
    return "\n".join(source)


def parse_ascii_grid(source: str | IO[str] | Iterable[str]) -> Grid:
    """Parse an ESRI ASCII grid.

    The six headers (ncols, nrows, xllcorner, yllcorner, cellsize,
    NODATA_value, case-insensitive) must each appear exactly once, followed
    by nrows * ncols whitespace-separated numbers with row 1 of the body
    being the northernmost row.
    """
    lines = _as_text(source).splitlines()
    header: dict[str, float] = {}
    body_start = 0
    for i, line in enumerate(lines):
        parts = line.split()
        if not parts:
            continue
        key = parts[0].lower()
        if key not in _HEADER_KEYS:
            body_start = i
            break
        if len(parts) != 2:
            raise MalformedHeader(f"header line {i + 1}: expected 'key value', got {line!r}")
        if key in header:
            raise MalformedHeader(f"duplicate header {parts[0]!r}")
        try:
            header[key] = float(parts[1])
        except ValueError:
            raise MalformedHeader(f"header {parts[0]!r}: cannot parse {parts[1]!r}") from None
        body_start = i + 1

    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise MalformedHeader(f"missing header(s): {', '.join(missing)}")
    for key in ("ncols", "nrows"):
        if header[key] != int(header[key]) or header[key] < 1:
            raise MalformedHeader(f"header {key} must be a positive integer")

    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    values = read_float_rows(lines[body_start:])
    # where numpy's reader fails (ragged rows, a number only float takes), split into tokens
    values = "\n".join(lines[body_start:]).split() if values is None else values.ravel()
    if len(values) != nrows * ncols:
        raise DimensionMismatch(
            f"expected {nrows * ncols} values for a {nrows}x{ncols} grid, got {len(values)}"
        )
    try:
        values = np.asarray(values, dtype=np.float64)
    except ValueError:
        bad = next(t for t in values if not _is_number(t))
        raise NonFiniteValue(f"grid value {bad!r} is not a number") from None
    return Grid(
        ncols=ncols,
        nrows=nrows,
        xll=header["xllcorner"],
        yll=header["yllcorner"],
        cellsize=header["cellsize"],
        nodata=header["nodata_value"],
        values=values,
    )


def read_float_rows(lines: Iterable[str], delimiter: str | None = None) -> np.ndarray | None:
    """Lines parsed by numpy's C reader as a 2-D float64 array, or None if it fails.

    Empty lines are skipped. The reader fails on rows of unequal length and
    on any field but an ASCII number, some of which ``float`` takes (``1_0``,
    full-width digits): a caller re-parses a failed text with ``float``.
    """
    with warnings.catch_warnings():  # no data lines is no error: the array is empty
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2)
        except ValueError:
            return None


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def format_ascii_grid(grid: Grid) -> str:
    """Serialize a grid so that parse(format(g)) == g exactly.

    Floats are written with repr, which round-trips ASCII <-> float64.
    """
    out = [
        f"ncols {grid.ncols}",
        f"nrows {grid.nrows}",
        f"xllcorner {grid.xll!r}",
        f"yllcorner {grid.yll!r}",
        f"cellsize {grid.cellsize!r}",
        f"NODATA_value {grid.nodata!r}",
    ]
    for row in grid.values.tolist():
        out.append(" ".join(map(repr, row)))
    return "\n".join(out) + "\n"


# --- cell addressing --------------------------------------------------------

def cell_center(grid: Grid, row: int, col: int) -> GeoPoint:
    """Center coordinate of the cell at (row, col), row 0 being northernmost."""
    if not (0 <= row < grid.nrows and 0 <= col < grid.ncols):
        raise IndexOutOfRange(
            f"cell ({row}, {col}) outside {grid.nrows}x{grid.ncols} grid"
        )
    lon = grid.xll + (col + 0.5) * grid.cellsize
    lat = grid.yll + (grid.nrows - 1 - row + 0.5) * grid.cellsize
    return GeoPoint(lat, lon)


def cell_indices(grid: Grid, lats, lons) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized point -> (row, col) mapping with an inside-grid mask.

    Points on a shared cell edge land in the cell with the larger row/col
    index: columns are measured from the left edge and rows from the top
    edge, so flooring pushes boundary points east and south. Points on the
    outer south or east edge therefore fall outside the grid.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    cols = np.floor((lons - grid.xll) / grid.cellsize)
    ytop = grid.yll + grid.nrows * grid.cellsize
    rows = np.floor((ytop - lats) / grid.cellsize)
    inside = (cols >= 0) & (cols < grid.ncols) & (rows >= 0) & (rows < grid.nrows)
    return rows.astype(np.int64), cols.astype(np.int64), inside


def sample_values(grid: Grid, lats, lons) -> np.ndarray:
    """Nearest-cell values at the given points; NaN marks nodata/outside."""
    rows, cols, inside = cell_indices(grid, lats, lons)
    out = np.full(rows.shape, np.nan)
    vals = grid.values[rows[inside], cols[inside]]
    out[inside] = np.where(vals == grid.nodata, np.nan, vals)
    return out


def sample_at(grid: Grid, p: GeoPoint) -> float | None:
    """Value of the cell containing ``p``; None if outside or nodata."""
    col = math.floor((p.lon - grid.xll) / grid.cellsize)
    row = math.floor((grid.yll + grid.nrows * grid.cellsize - p.lat) / grid.cellsize)
    if not (0 <= row < grid.nrows and 0 <= col < grid.ncols):
        return None
    v = float(grid.values[row, col])
    return None if v == grid.nodata else v


# --- intensity bins and exposure --------------------------------------------

@dataclass(frozen=True)
class MmiBin:
    """Half-open or closed intensity interval, e.g. (7.5, 8]."""

    lo: float
    hi: float
    lo_open: bool = True
    hi_open: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("bin edges must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"bin lo must be < hi, got [{self.lo}, {self.hi}]")

    def contains(self, m):
        """Membership test; works elementwise on numpy arrays."""
        above = (m > self.lo) if self.lo_open else (m >= self.lo)
        below = (m < self.hi) if self.hi_open else (m <= self.hi)
        return above & below

    def __str__(self):
        lo_b = "(" if self.lo_open else "["
        hi_b = ")" if self.hi_open else "]"
        return f"{lo_b}{self.lo:g},{self.hi:g}{hi_b}"

    @classmethod
    def parse(cls, text: str) -> "MmiBin":
        """Parse the interval notation used in config files, e.g. ``(7.5,8]``."""
        s = text.strip()
        if len(s) < 5 or s[0] not in "([" or s[-1] not in ")]":
            raise ValueError(f"cannot parse intensity bin {text!r}")
        inner = s[1:-1].split(",")
        if len(inner) != 2:
            raise ValueError(f"cannot parse intensity bin {text!r}")
        try:
            lo, hi = float(inner[0]), float(inner[1])
        except ValueError:
            raise ValueError(f"cannot parse intensity bin {text!r}") from None
        return cls(lo=lo, hi=hi, lo_open=s[0] == "(", hi_open=s[-1] == ")")


DEFAULT_MMI_BINS = (
    MmiBin(7.5, 8.0),
    MmiBin(8.0, 8.5),
    MmiBin(8.5, 9.0),
)


def check_disjoint_bins(bins: Sequence[MmiBin]) -> None:
    """Raise ValueError when any two bins overlap."""
    ordered = sorted(bins, key=lambda b: (b.lo, b.hi))
    for a, b in zip(ordered, ordered[1:]):
        if b.lo < a.hi or (b.lo == a.hi and not a.hi_open and not b.lo_open):
            raise ValueError(f"intensity bins {a} and {b} overlap")


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

    Every valid population cell is matched to the intensity grid by
    sampling the intensity at the population cell center (the grids need
    not share geometry); cells falling outside the intensity grid or on a
    nodata intensity cell are excluded.
    """
    if not bins:
        raise EmptyBins("exposure_histogram needs at least one bin")
    check_disjoint_bins(bins)

    lat2, lon2 = pop.center_mesh()
    valid_pop = pop.mask
    pops = pop.values[valid_pop]
    samples = sample_values(mmi, lat2[valid_pop], lon2[valid_pop])
    matched = np.isfinite(samples)
    pops = pops[matched]
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
