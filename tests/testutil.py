"""Shared helpers and independent oracles used across the test suite."""

from __future__ import annotations

import math
from fractions import Fraction
from statistics import fmean

import numpy as np

from eewsim.detection import Triggers
from eewsim.errors import EewsimError
from eewsim.geo import _HEADER_KEYS, GeoPoint, Grid, _is_number
from eewsim.montecarlo import RUNS_DTYPE, _runs, percentile, silverman_bandwidth_deg
from eewsim.network import Catalog
from eewsim.scenario import hypocentral_km_points, p_arrivals_s, s_arrivals_s
from eewsim.warning import WarningBand, weighted_percentile


# the characters besides \n and \r at which str.splitlines ends a line
LINE_BREAKS_NOT_NEWLINES = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _as_text(source) -> str:
    """The whole text of a ``str`` or a text stream."""
    return source if isinstance(source, str) else source.read()


def make_grid(values, xll=0.0, yll=0.0, cellsize=1.0, nodata=-9999.0) -> Grid:
    values = np.asarray(values, dtype=float)
    return Grid(
        ncols=values.shape[1], nrows=values.shape[0],
        xll=xll, yll=yll, cellsize=cellsize, nodata=nodata, values=values,
    )


def midpoint_text(x: float) -> str:
    """The exact decimal expansion of the midpoint between |x| and the next double up."""
    lo = abs(x)
    mid = (Fraction(lo) + Fraction(math.nextafter(lo, math.inf))) / 2
    e = mid.denominator.bit_length() - 1  # the denominator is 2**e
    digits = str(mid.numerator * 5**e).rjust(e + 1, "0")
    return f"{digits[:-e]}.{digits[-e:]}" if e else digits


def cut_significant(text: str, sig: int) -> str:
    """``text`` up to its ``sig``-th significant digit; it must hold a '.' within them."""
    seen = 0
    for i, c in enumerate(text):
        seen += c.isdigit() and (seen > 0 or c != "0")
        if seen == sig:
            return text[: i + 1]
    return text


def normalize_lon_scalar(lon: float) -> float:
    """The longitude wrap in Python float arithmetic, kept as the oracle of ``normalize_lon``."""
    if -180.0 <= lon < 180.0:
        return lon
    lon = (lon + 180.0) % 360.0 - 180.0
    # (lon + 180) % 360 rounds up to 360 for lon just below -180
    return -180.0 if lon == 180.0 else lon


def sample_at(grid: Grid, p: GeoPoint) -> float | None:
    """Value of the cell containing ``p``; None if outside or nodata.

    The scalar form of ``sample_values``, kept as its oracle.
    """
    col = math.floor((p.lon - grid.xll) / grid.cellsize)
    row = math.floor((grid.yll + grid.nrows * grid.cellsize - p.lat) / grid.cellsize)
    if not (0 <= row < grid.nrows and 0 <= col < grid.ncols):
        return None
    v = float(grid.values[row, col])
    return None if v == grid.nodata else v


def catalog_point(cat: Catalog, i: int) -> GeoPoint:
    return GeoPoint(float(cat.lats[i]), float(cat.lons[i]))


# one-point forms of the scenario's array functions, kept as their oracles
def hypocentral_km(eq, p: GeoPoint) -> float:
    return float(hypocentral_km_points(eq, p.lat, p.lon))


def p_arrival_s(eq, vm, p: GeoPoint) -> float:
    return float(p_arrivals_s(eq, vm, p.lat, p.lon))


def s_arrival_s(eq, vm, p: GeoPoint) -> float:
    return float(s_arrivals_s(eq, vm, p.lat, p.lon))


def _middle(sorted_vals):
    m = len(sorted_vals)
    if m % 2:
        return sorted_vals[m // 2]
    return (sorted_vals[m // 2 - 1] + sorted_vals[m // 2]) / 2


def detect_oracle(triggers, k_min, window_s):
    """Brute-force detector: try every trigger as the window-closing candidate.

    Returns (time, contributing indices, median lat, median lon) or None.
    Windows are resolved by time, so equal-time triggers after the
    candidate index still count.
    """
    times = triggers.times.tolist()
    lats = triggers.lats.tolist()
    lons = triggers.lons.tolist()
    for j in range(len(triggers)):
        in_window = [
            i for i in range(len(triggers))
            if times[j] - window_s < times[i] <= times[j]
        ]
        if len(in_window) >= k_min:
            chosen = in_window[:k_min]
            lat = _middle(sorted(lats[i] for i in chosen))
            lon = _middle(sorted(lons[i] for i in chosen))
            return times[j], tuple(chosen), lat, lon
    return None


def sorted_triggers(times, lats, lons) -> Triggers:
    """Triggers from unordered columns, put in canonical (time, lat, lon) order."""
    times, lats, lons = (np.asarray(a, dtype=float) for a in (times, lats, lons))
    order = np.lexsort((lons, lats, times))
    return Triggers(times[order], lats[order], lons[order])


def random_triggers(rng: np.random.Generator, count: int) -> Triggers:
    """Random sorted triggers with occasional exact time ties."""
    times = np.round(rng.uniform(0.0, 30.0, size=count), 1)  # coarse => ties
    lats = rng.uniform(17.0, 21.0, size=count)
    lons = rng.uniform(-75.0, -71.0, size=count)
    return sorted_triggers(times, lats, lons)


def dense_sample_indices(rng: np.random.Generator, N: int, n: int) -> np.ndarray:
    """Partial Fisher-Yates over a materialized index array of size N.

    The straightforward form of the network sampler, kept as its oracle:
    same swap targets, same swaps, but O(N) memory per draw.
    """
    js = rng.integers(np.arange(n), N)
    idx = np.arange(N)
    for i in range(n):
        j = js[i]
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:n].copy()


def sparse_sample_indices(rng: np.random.Generator, N: int, n: int) -> np.ndarray:
    """Partial Fisher-Yates that stores only the positions its swaps moved.

    The step-by-step form of the vectorized network sampler, kept as its
    oracle: same swap targets, same swaps, one dict update per step.
    """
    js = rng.integers(np.arange(n), N).tolist()
    moved: dict[int, int] = {}
    chosen = []
    for i, j in enumerate(js):
        chosen.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return np.array(chosen, dtype=np.int64)


def load_catalog_oracle(source, origin: str = "catalog") -> Catalog:
    """Catalog CSV reader that parses one row at a time with ``float``.

    The straightforward form of ``load_catalog``, kept as its oracle: it
    holds the whole text and checks and converts each line in turn.
    """
    lines = _as_text(source).splitlines()

    rows = [(i + 1, line.strip()) for i, line in enumerate(lines) if line.strip()]
    if not rows:
        raise EewsimError(f"{origin}: file is empty")
    header_no, header = rows[0]
    if [c.strip().lower() for c in header.split(",")] != ["lat", "lon"]:
        raise EewsimError(f"{origin} line {header_no}: expected header 'lat,lon', got {header!r}")
    body = rows[1:]
    if not body:
        raise EewsimError(f"{origin}: no data rows")

    lats = np.empty(len(body))
    lons = np.empty(len(body))
    for k, (lineno, line) in enumerate(body):
        parts = line.split(",")
        if len(parts) != 2:
            raise EewsimError(f"{origin} line {lineno}: expected 'lat,lon', got {line!r}")
        try:
            lat, lon = float(parts[0]), float(parts[1])
        except ValueError:
            raise EewsimError(f"{origin} line {lineno}: cannot parse {line!r}") from None
        if not -90.0 <= lat <= 90.0:
            raise EewsimError(f"{origin} line {lineno}: latitude must be in [-90, 90], got {lat}")
        if not math.isfinite(lon):
            raise EewsimError(f"{origin} line {lineno}: longitude must be finite, got {lon}")
        lats[k] = lat
        lons[k] = normalize_lon_scalar(lon)
    return Catalog(lats=lats, lons=lons)


def parse_ascii_grid_oracle(source) -> Grid:
    """ESRI ASCII grid reader that splits the whole body into tokens.

    The straightforward form of ``parse_ascii_grid``, kept as its oracle:
    one numpy str -> float64 cast of the tokens, which calls ``float`` on
    each, and a second pass with ``float`` to name a bad token.
    """
    lines = _as_text(source).replace("\r\n", "\n").replace("\r", "\n").split("\n")
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
            raise EewsimError(f"header line {i + 1}: expected 'key value', got {line!r}")
        if key in header:
            raise EewsimError(f"duplicate header {parts[0]!r}")
        try:
            header[key] = float(parts[1])
        except ValueError:
            raise EewsimError(f"header {parts[0]!r}: cannot parse {parts[1]!r}") from None
        body_start = i + 1
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise EewsimError(f"missing header(s): {', '.join(missing)}")
    for key in ("ncols", "nrows"):
        if not (math.isfinite(header[key]) and header[key] >= 1):
            rule = ">= 1" if math.isfinite(header[key]) else "finite and >= 1"
            raise EewsimError(f"header {key} must be {rule}, got {header[key]}")
        if header[key] != int(header[key]):
            raise EewsimError(f"header {key} must be an integer, got {header[key]}")

    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    tokens = "\n".join(lines[body_start:]).split()
    if len(tokens) != nrows * ncols:
        raise EewsimError(
            f"expected {nrows * ncols} values for a {nrows}x{ncols} grid, got {len(tokens)}"
        )
    try:
        values = np.array(tokens, dtype=np.float64)
    except ValueError:
        bad = next(t for t in tokens if not _is_number(t))
        raise EewsimError(f"grid value {bad!r} is not a number") from None
    return Grid(
        ncols=ncols, nrows=nrows, xll=header["xllcorner"], yll=header["yllcorner"],
        cellsize=header["cellsize"], nodata=header["nodata_value"], values=values,
    )


def format_ascii_grid_oracle(grid: Grid) -> str:
    """ESRI ASCII grid writer that calls repr on every cell.

    The straightforward form of ``format_ascii_grid``, kept as its oracle.
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


def inv_cdf_percentile(values, p) -> float:
    """Unweighted left-continuous inverse-CDF percentile, exact rationals."""
    v = sorted(float(x) for x in values)
    target = Fraction(p) * len(v) / 100  # Fraction(float) is the exact binary value
    rank = max(1, math.ceil(target))
    return v[min(rank, len(v)) - 1]


def linear_percentile_oracle(values, p) -> float:
    """Linear-interpolation percentile on Python floats, kept as the oracle of ``percentile``.

    With sorted v[0..m-1] and h = (m-1) * p / 100, returns
    v[floor(h)] + (h - floor(h)) * (v[floor(h) + 1] - v[floor(h)]).
    """
    v = sorted(float(x) for x in values)
    h = (len(v) - 1) * p / 100.0
    i = math.floor(h)
    if i >= len(v) - 1:
        return v[-1]
    return v[i] + (h - i) * (v[i + 1] - v[i])


def runs_array(rows) -> np.recarray:
    """Read-only runs array from (n, replica, metrics) rows.

    ``metrics`` is (delay_s, distance_km, lat, lon) for a detected replica
    and None for an undetected one, which holds NaN in those fields.
    """
    undetected = (math.nan,) * 4
    return _runs([(n, r, m is not None, *(undetected if m is None else m)) for n, r, m in rows])


def assert_runs_equal(got: np.recarray, want: np.recarray) -> None:
    """Same dtype and equal columns, NaN equal to NaN."""
    assert got.dtype == want.dtype
    for name in RUNS_DTYPE.names:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


def density_oracle(runs, like: Grid, bandwidth_deg=None) -> tuple[np.ndarray, float]:
    """Per-detection kernel sum: one exp per (detection, cell).

    The straightforward form of the detection-location density, kept as
    its oracle. Returns the normalized density array and the bandwidth.
    """
    lats = runs.lat[runs.detected].copy()
    lons = runs.lon[runs.detected].copy()
    h = bandwidth_deg if bandwidth_deg is not None else silverman_bandwidth_deg(lats, lons)
    if not (math.isfinite(h) and h > 0):
        h = like.cellsize
    lat_c = like.lat_centers()
    lon_c = like.lon_centers()
    inv = 1.0 / (2.0 * h * h)
    dens = np.zeros((like.nrows, like.ncols))
    for k in range(lats.size):
        dlat2 = (lat_c - lats[k]) ** 2
        dlon2 = (lon_c - lons[k]) ** 2
        dens += np.exp(-(dlat2[:, None] + dlon2[None, :]) * inv)
    return dens / (dens.sum() * like.cell_area_deg2), float(h)


def density_full_grid(runs, like: Grid, bandwidth_deg=None, cut=False) -> np.ndarray:
    """The density as one full-grid ``einsum`` of its two exp factor matrices.

    With ``cut=False`` it is the form ``detection_density`` had before it cut
    the factors' tails, kept as its tolerance oracle. With ``cut=True`` each
    factor row first loses its entries below eps/m times the row's maximum,
    and ``detection_density`` must give the same bits. Both flush cells below
    eps times the maximum to 0.0 and renormalize; EewsimError when no mass
    is left.
    """
    lats = runs.lat[runs.detected].copy()
    lons = runs.lon[runs.detected].copy()
    h = bandwidth_deg if bandwidth_deg is not None else silverman_bandwidth_deg(lats, lons)
    if not (math.isfinite(h) and h > 0):
        h = like.cellsize
    inv = 1.0 / (2.0 * h * h)
    eps = np.finfo(np.float64).eps
    factors = []
    for centers, points in ((like.lat_centers(), lats), (like.lon_centers(), lons)):
        f = np.exp(-((centers[None, :] - points[:, None]) ** 2) * inv)
        if cut:
            f = np.where(f >= eps / lats.size * f.max(axis=1)[:, None], f, 0.0)
        factors.append(f)
    dens = np.einsum("ki,kj->ij", *factors)
    dens[dens < eps * dens.max()] = 0.0
    total = dens.sum() * like.cell_area_deg2
    if total <= 0:
        raise EewsimError("no density mass left on the grid")
    return dens / total


def warning_vs_n_oracle(runs, eq, ap, field) -> list[WarningBand]:
    """Warning-vs-n rows with both weighted percentiles taken per replica.

    The straightforward form of ``warning_vs_n``, kept as its oracle: it
    builds every replica's warning times and sorts them afresh.
    """
    per_bin = list(zip(field.bins, field.s_arrivals, field.pops))
    times_by_n: dict[int, list[float]] = {}
    for n, detected, delay_s in zip(runs.n.tolist(), runs.detected.tolist(),
                                    runs.delay_s.tolist()):
        times_by_n.setdefault(n, [])
        if detected:
            times_by_n[n].append(eq.origin_time_s + delay_s)
    stats = ("p2_5", "mean", "p97_5")
    rows = []
    for n, times in times_by_n.items():
        for b, s_vals, pops in per_bin:
            if not times or s_vals.size == 0:
                rows += [WarningBand(n, b, stat, None, None, None) for stat in stats]
                continue
            samples = {stat: [] for stat in stats}
            for t in times:
                wv = s_vals - t - ap.dissemination_latency_s
                samples["p2_5"].append(weighted_percentile(wv, pops, 2.5))
                samples["mean"].append(float(np.average(wv, weights=pops)))
                samples["p97_5"].append(weighted_percentile(wv, pops, 97.5))
            for stat in stats:
                vals = samples[stat]
                rows.append(WarningBand(n, b, stat, fmean(vals), percentile(vals, 2.5),
                                        percentile(vals, 97.5)))
    return rows
