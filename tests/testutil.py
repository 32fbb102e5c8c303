"""Shared helpers and independent oracles used across the test suite."""

from __future__ import annotations

import math
from fractions import Fraction
from statistics import fmean

import numpy as np

from eewsim.detection import Triggers
from eewsim.errors import (
    DimensionMismatch,
    EmptyCatalog,
    MalformedHeader,
    MalformedRow,
    NonFiniteValue,
    OutOfRangeCoordinate,
)
from eewsim.geo import _HEADER_KEYS, Grid, _as_text, _is_number, normalize_lon
from eewsim.montecarlo import percentile, silverman_bandwidth_deg
from eewsim.network import Catalog
from eewsim.scenario import s_arrivals_s
from eewsim.warning import WarningBand, _bin_selections, weighted_percentile


def make_grid(values, xll=0.0, yll=0.0, cellsize=1.0, nodata=-9999.0) -> Grid:
    values = np.asarray(values, dtype=float)
    return Grid(
        ncols=values.shape[1], nrows=values.shape[0],
        xll=xll, yll=yll, cellsize=cellsize, nodata=nodata, values=values,
    )


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
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, str):
        text = source
    else:
        text = "\n".join(source)
    lines = text.splitlines()

    rows = [(i + 1, line.strip()) for i, line in enumerate(lines) if line.strip()]
    if not rows:
        raise EmptyCatalog(f"{origin}: file is empty")
    header_no, header = rows[0]
    if [c.strip().lower() for c in header.split(",")] != ["lat", "lon"]:
        raise MalformedRow(f"{origin} line {header_no}: expected header 'lat,lon', got {header!r}")
    body = rows[1:]
    if not body:
        raise EmptyCatalog(f"{origin}: no data rows")

    lats = np.empty(len(body))
    lons = np.empty(len(body))
    for k, (lineno, line) in enumerate(body):
        parts = line.split(",")
        if len(parts) != 2:
            raise MalformedRow(f"{origin} line {lineno}: expected 'lat,lon', got {line!r}")
        try:
            lat, lon = float(parts[0]), float(parts[1])
        except ValueError:
            raise MalformedRow(f"{origin} line {lineno}: cannot parse {line!r}") from None
        if not (math.isfinite(lat) and math.isfinite(lon)):
            raise OutOfRangeCoordinate(f"{origin} line {lineno}: non-finite coordinate")
        if not -90.0 <= lat <= 90.0:
            raise OutOfRangeCoordinate(
                f"{origin} line {lineno}: latitude {lat} outside [-90, 90]"
            )
        lats[k] = lat
        lons[k] = normalize_lon(lon)
    return Catalog(lats=lats, lons=lons, source=origin)


def parse_ascii_grid_oracle(source) -> Grid:
    """ESRI ASCII grid reader that splits the whole body into tokens.

    The straightforward form of ``parse_ascii_grid``, kept as its oracle:
    one numpy str -> float64 cast of the tokens, which calls ``float`` on
    each, and a second pass with ``float`` to name a bad token.
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
    tokens = "\n".join(lines[body_start:]).split()
    if len(tokens) != nrows * ncols:
        raise DimensionMismatch(
            f"expected {nrows * ncols} values for a {nrows}x{ncols} grid, got {len(tokens)}"
        )
    try:
        values = np.array(tokens, dtype=np.float64)
    except ValueError:
        bad = next(t for t in tokens if not _is_number(t))
        raise NonFiniteValue(f"grid value {bad!r} is not a number") from None
    return Grid(
        ncols=ncols, nrows=nrows, xll=header["xllcorner"], yll=header["yllcorner"],
        cellsize=header["cellsize"], nodata=header["nodata_value"], values=values,
    )


def inv_cdf_percentile(values, p) -> float:
    """Unweighted left-continuous inverse-CDF percentile, exact rationals."""
    v = sorted(float(x) for x in values)
    target = Fraction(p) * len(v) / 100  # Fraction(float) is the exact binary value
    rank = max(1, math.ceil(target))
    return v[min(rank, len(v)) - 1]


def linear_percentile_oracle(values, p) -> float:
    """Reference for the linear-interpolation percentile (numpy's default)."""
    return float(np.percentile(np.asarray(values, dtype=float), p))


def density_oracle(results, like: Grid, bandwidth_deg=None) -> tuple[np.ndarray, float]:
    """Per-detection kernel sum: one exp per (detection, cell).

    The straightforward form of the detection-location density, kept as
    its oracle. Returns the normalized density array and the bandwidth.
    """
    lats = np.array([r.detection_location.lat for r in results if r.detected])
    lons = np.array([r.detection_location.lon for r in results if r.detected])
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


def warning_vs_n_oracle(results, eq, vm, ap, mmi, pop, bins) -> list[WarningBand]:
    """Warning-vs-n rows with both weighted percentiles taken per replica.

    The straightforward form of ``warning_vs_n``, kept as its oracle: it
    builds every replica's warning times and sorts them afresh.
    """
    lat2, lon2 = pop.center_mesh()
    s_arr = s_arrivals_s(eq, vm, lat2, lon2)
    per_bin = [(b, s_arr[sel], pop.values[sel]) for b, sel in _bin_selections(mmi, pop, bins)]
    times_by_n: dict[int, list[float]] = {}
    for r in results:
        times_by_n.setdefault(r.n, [])
        if r.detected:
            times_by_n[r.n].append(eq.origin_time_s + r.delay_s)
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
