"""Replication engine over random network geometries.

One replica = sample a network, simulate its triggers, run the detector,
measure delay and separation. Replicas are keyed by (master_seed, n,
replica) so a campaign is a pure function of its inputs: execution order
never changes the result. Campaign outputs are per-n summaries with
empirical 95% bands plus a kernel density of the detection locations.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace
from itertools import chain
from typing import IO, Iterable, Sequence

import numpy as np

from .detection import (
    DetectorParams, PhoneParams, detect, detect_rows, detection_metrics, simulate_triggers, trigger_times,
)
from .errors import EewsimError, in_range
from .geo import (
    GeoPoint, Grid, cell_center, format_csv, format_csv_columns, haversine_km_from, normalize_lon, text_blocks,
)
from .network import Catalog, SeedSpec, check_network_size, sample_network, sample_networks
from .scenario import Earthquake, VelocityModel, p_arrivals_s


RUNS_HEADER = "n,replica,detected,delay_s,distance_km,det_lat,det_lon"

# One record per replica, in (n-grid order, replica order); an undetected
# replica holds NaN in the four metric fields.
RUNS_DTYPE = np.dtype(
    [("n", np.int64), ("replica", np.int64), ("detected", np.bool_), ("delay_s", np.float64),
     ("distance_km", np.float64), ("lat", np.float64), ("lon", np.float64)],
    align=True,
)
_UNDETECTED = (False, math.nan, math.nan, math.nan, math.nan)

# raw trigger-stream words per block of replicas, 2n per replica: bounds
# the size of every array the campaign kernel holds at once
_BLOCK_WORDS = 2**18


def _runs(rows: list[tuple]) -> np.recarray:
    """Read-only record array of ``RUNS_DTYPE`` rows."""
    runs = np.rec.fromrecords(rows, dtype=RUNS_DTYPE)
    runs.flags.writeable = False
    return runs


@dataclass(frozen=True)
class McSummary:
    """Per-n aggregate: detection rate, mean and 95% percentile band.

    Bands are empirical 2.5th/97.5th percentiles over detected replicas;
    all statistics are None when no replica detected.
    """

    n: int
    replicas: int
    detect_rate: float
    delay_mean_s: float | None
    delay_lo_s: float | None
    delay_hi_s: float | None
    dist_mean_km: float | None
    dist_lo_km: float | None
    dist_hi_km: float | None


def percentile(values: Iterable[float], p: float) -> float:
    """Linear-interpolation empirical percentile.

    With sorted v[0..m-1] and h = (m-1) * p / 100, returns
    v[floor(h)] + (h - floor(h)) * (v[floor(h) + 1] - v[floor(h)]).
    """
    in_range("percentile", p, 0, 100)
    # stable, so that -0.0 and 0.0 keep their input order, as sorted() keeps them
    v = np.sort(np.fromiter(values, np.float64), kind="stable")
    if not v.size:
        raise EewsimError("percentile of an empty collection")
    h = (v.size - 1) * p / 100.0
    i = math.floor(h)
    if i >= v.size - 1:
        return float(v[-1])
    lo, hi = v[i : i + 2].tolist()
    return lo + (h - i) * (hi - lo)


def mean(values: list[float]) -> float:
    """``statistics.fmean`` of finite ``values``, also where their sum leaves float range.

    That is ``math.fsum(values) / len(values)``, CPython's own formula, which
    spares every command the import of ``statistics``.
    """
    try:
        return math.fsum(values) / len(values)
    except OverflowError:  # their mean does not: take it on values scaled by 2**-k <= 1/(2n)
        k = len(values).bit_length() + 1
        return math.ldexp(math.fsum([math.ldexp(v, -k) for v in values]) / len(values), k)


def mean_band(values: list[float]) -> tuple[float | None, float | None, float | None]:
    """(mean, 2.5th, 97.5th percentile) of ``values``; three Nones when there are none."""
    if not values:
        return None, None, None
    return mean(values), percentile(values, 2.5), percentile(values, 97.5)


def run_replica(
    cat: Catalog,
    eq: Earthquake,
    vm: VelocityModel,
    pp: PhoneParams,
    dp: DetectorParams,
    n: int,
    replica: int,
    master_seed: int,
) -> tuple[float, float, float, float] | None:
    """Run one seeded replica: (delay_s, distance_km, lat, lon), or None if nothing detects."""
    seed = SeedSpec(master_seed=master_seed, n=n, replica=replica)
    net = sample_network(cat, n, seed)
    triggers = simulate_triggers(net, eq, vm, pp, seed)
    det = detect(triggers, dp)
    if det is None:
        return None
    return (*detection_metrics(det, eq), det.location.lat, det.location.lon)


def summarize(n: int, runs: np.recarray) -> McSummary:
    """Fold one n's replicas into an McSummary (replica order independent)."""
    detected = runs[runs.detected]
    rate = len(detected) / len(runs) if len(runs) else 0.0
    return McSummary(n, len(runs), rate, *mean_band(detected.delay_s.tolist()),
                     *mean_band(detected.distance_km.tolist()))


def run_campaign(
    cat: Catalog,
    eq: Earthquake,
    vm: VelocityModel,
    pp: PhoneParams,
    dp: DetectorParams,
    n_grid: Sequence[int],
    replicas: int,
    master_seed: int,
) -> tuple[list[McSummary], np.recarray]:
    """Run replicas for every n in the grid; return per-n summaries and the runs array.

    Each row equals :func:`run_replica` for its (n, replica), bit for bit.
    The replicas of one n run as blocks of (replicas x n) arrays: sampling
    (:func:`sample_networks`), triggers (:func:`trigger_times`) and the
    detector (:func:`detect_rows`). Each catalog point's P arrival is
    computed once, when a network first holds it. An n with zero
    detections yields a summary with rate 0 and absent statistics rather
    than failing the campaign.
    """
    in_range("replicas", replicas, 1)
    runs = np.zeros(len(n_grid) * replicas, RUNS_DTYPE)
    for name in ("delay_s", "distance_km", "lat", "lon"):
        runs[name] = math.nan
    arrivals = np.empty(len(cat))
    held = np.zeros(len(cat), bool)  # points some network has held
    known = np.zeros(len(cat), bool)  # points whose arrival is computed
    for i, n in enumerate(n_grid):
        SeedSpec(master_seed, n, 0)  # the checks of run_replica, in its order
        check_network_size(n, len(cat))
        out = runs[i * replicas:(i + 1) * replicas]
        out["n"] = n
        out["replica"] = np.arange(replicas)
        block = max(1, _BLOCK_WORDS // (2 * n))
        for start in range(0, replicas, block):
            reps = np.arange(start, min(start + block, replicas))
            idx = sample_networks(len(cat), n, master_seed, reps)
            held[idx] = True
            fresh = np.flatnonzero(held > known)
            arrivals[fresh] = p_arrivals_s(eq, vm, cat.lats[fresh], cat.lons[fresh])
            known[fresh] = True
            times = trigger_times(arrivals[idx], pp, master_seed, reps)
            fired, time_s, lat, lon = detect_rows(times, idx, cat, dp)
            hit = reps[fired]
            out["detected"][hit] = True
            out["delay_s"][hit] = time_s - eq.origin_time_s
            out["distance_km"][hit] = haversine_km_from(lat, lon, eq.epicenter)
            out["lat"][hit], out["lon"][hit] = lat, lon
    runs = runs.view(np.recarray)
    runs.flags.writeable = False
    return [summarize(n, runs[runs.n == n]) for n in n_grid], runs


# --- detection-location density ----------------------------------------------

@dataclass(frozen=True)
class DensityGrid:
    """Kernel density of detection locations, normalized over its grid."""

    grid: Grid
    bandwidth_deg: float
    mode: GeoPoint


def silverman_bandwidth_deg(lats: np.ndarray, lons: np.ndarray) -> float:
    """Isotropic 2-D rule-of-thumb bandwidth: per-axis Silverman, averaged.

    For d=2 the Silverman factor is m**(-1/6). Returns NaN for degenerate
    inputs (fewer than two points or zero spread); callers fall back to the
    evaluation cell size.
    """
    m = lats.size
    if m < 2:
        return float("nan")
    factor = m ** (-1.0 / 6.0)
    h = 0.5 * (np.std(lons, ddof=1) + np.std(lats, ddof=1)) * factor
    return float(h) if h > 0 else float("nan")


def detection_density(
    runs: np.recarray,
    like: Grid,
    bandwidth_deg: float | None = None,
) -> DensityGrid:
    """Gaussian-kernel density of the detected replicas' locations on the geometry of ``like``.

    The isotropic kernel is separable: exp(-(dlat² + dlon²)·inv) is
    exp(-dlat²·inv) · exp(-dlon²·inv), so the m detections give two factor
    matrices, m × nrows and m × ncols, and the grid is their contraction
    over detections. ``einsum`` without ``optimize`` does the contraction
    without BLAS, whose result bytes depend on its thread count.

    Each factor row keeps only its entries at or above eps/m times the
    row's maximum (eps = 2**-52); the rest are set to 0.0. A product with a
    cut-off factor is then below eps/m of its kernel's peak on the grid,
    which is at most the grid maximum, so a cell loses less than eps times
    the grid maximum over all m kernels. The contraction runs only on the
    box of the rows and columns where some factor is still non-zero, and
    every cell outside it is 0.0: the box is the same, bit for bit, as that
    part of the full-grid contraction of the cut-off factors, and it spares
    the Gaussian tails, whose subnormal products are slow.

    Every cell below float64 eps times the grid maximum is then set to
    0.0: such a cell is below the resolution of the peak, since adding it
    to the peak cell leaves the peak unchanged. Each flushed cell moves by
    less than eps of the maximum, and the maximum cell, hence the mode, is
    kept. It also spares the grid writer, ``format_ascii_grid``, the long
    repr of the Gaussian tail, whose values reach down to 1e-308: the
    writer puts a literal ``0.0`` for each flushed cell.

    The density is then renormalized so cell-sum * cell-area == 1 over the
    grid; EewsimError is raised when no kernel mass is left on it, and
    when the bandwidth is so narrow that 2h² underflows or 1/(2h²)
    overflows. The mode is the center of the maximum-density cell; ties
    resolve to the smallest row, then column.
    """
    detected = runs[runs.detected]
    if not len(detected):
        raise EewsimError("no detected replica to estimate a density from")
    lats, lons = detected.lat.copy(), detected.lon.copy()

    h = bandwidth_deg if bandwidth_deg is not None else silverman_bandwidth_deg(lats, lons)
    if not (math.isfinite(h) and h > 0):
        h = like.cellsize
    if not 2.0 * h * h:
        raise EewsimError(f"density bandwidth {h!r} deg underflows to zero when squared")
    inv = 1.0 / (2.0 * h * h)
    if math.isinf(inv):
        raise EewsimError(f"density bandwidth {h!r} deg is too narrow: 1/(2 h**2) overflows")
    a = _cut_tail(np.exp(-((like.lat_centers()[None, :] - lats[:, None]) ** 2) * inv))
    b = _cut_tail(np.exp(-((like.lon_centers()[None, :] - lons[:, None]) ** 2) * inv))
    rows, cols = _support(a), _support(b)
    dens = np.zeros((like.nrows, like.ncols))
    dens[rows, cols] = np.einsum("ki,kj->ij", a[:, rows], b[:, cols])
    dens[dens < np.finfo(np.float64).eps * dens.max()] = 0.0

    total = dens.sum() * like.cell_area_deg2
    if total <= 0:
        raise EewsimError(
            f"density kernel mass underflowed to zero on the evaluation grid "
            f"(bandwidth {h!r} deg)"
        )
    dens /= total

    flat_mode = int(np.argmax(dens))
    row, col = divmod(flat_mode, like.ncols)
    grid = replace(like, nodata=-9999.0, values=dens)
    return DensityGrid(grid=grid, bandwidth_deg=float(h), mode=cell_center(grid, row, col))


def _cut_tail(factors: np.ndarray) -> np.ndarray:
    """Set every entry below eps/m times its row's maximum to 0.0, in place (m rows)."""
    cut = np.finfo(np.float64).eps / len(factors)
    factors[factors < cut * factors.max(axis=1, keepdims=True)] = 0.0
    return factors


def _support(factors: np.ndarray) -> slice:
    """The columns from the first to the last one that holds a non-zero entry."""
    nonzero = np.flatnonzero(factors.any(axis=0))
    return slice(nonzero[0], nonzero[-1] + 1) if nonzero.size else slice(0, 0)


# --- CSV emission --------------------------------------------------------------

def write_runs_csv(runs: np.recarray) -> str:
    """One row per replica; an undetected row leaves its four metric fields empty.

    The text is ``format_csv``'s, written a column at a time.
    """
    detected = runs.detected.tolist()
    metrics = [
        [field if d else "" for field, d in zip(map(float.__repr__, runs[name].tolist()), detected)]
        for name in RUNS_DTYPE.names[3:]
    ]
    return format_csv_columns(RUNS_HEADER, [
        map(str, runs.n.tolist()), map(str, runs.replica.tolist()),
        ["true" if d else "false" for d in detected], *metrics,
    ])


def read_runs_csv(stream: IO[str] | str) -> np.recarray:
    """Parse a runs.csv produced by :func:`write_runs_csv` into a runs array.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``. Blank lines are skipped,
    and line numbers count them. Raises EewsimError on a file without data
    rows, and, naming the line, on a row that does not parse or holds an
    unprintable character (such as ``\\f``), an undetected row with a
    metric, a number outside its domain and a repeated (n, replica). The
    domains: n >= 1 and replica >= 0, both below 2**63; on a detected row
    every metric is finite, delay_s >= 0 and distance_km >= 0, since every
    trigger follows the origin, and det_lat in [-90, 90]. Longitudes are
    wrapped into [-180, 180).
    """
    lines = chain.from_iterable(block[:-1].split("\n") for block in text_blocks(stream))
    lines = [(i, ln) for i, ln in enumerate(lines, start=1) if ln.strip()]
    if not lines or lines[0][1] != RUNS_HEADER:
        raise EewsimError("not a runs.csv file (bad or missing header)")
    if len(lines) == 1:
        raise EewsimError("runs.csv has no data rows")
    rows = []
    first_line: dict[tuple[int, int], int] = {}
    for lineno, line in lines[1:]:
        try:
            rows.append(_parse_run(line))
        except EewsimError as e:
            raise EewsimError(f"runs.csv line {lineno}: {e}") from None
        key = rows[-1][:2]
        if first_line.setdefault(key, lineno) != lineno:
            raise EewsimError(
                f"runs.csv line {lineno}: n={key[0]} replica={key[1]} repeats line {first_line[key]}"
            )
    return _runs(rows)


def _parse_run(line: str) -> tuple:
    f = line.split(",")
    if len(f) != 7 or f[2] not in ("true", "false") or not line.isprintable():
        raise EewsimError(f"cannot parse {line!r}")
    try:
        n, replica = int(f[0]), int(f[1])
        metrics = [float(x) for x in f[3:]] if f[2] == "true" else None
    except ValueError:
        raise EewsimError(f"cannot parse {line!r}") from None
    in_range("n", n, 1, 2**63, hi_open=True)
    in_range("replica", replica, 0, 2**63, hi_open=True)
    if metrics is None:
        if any(f[3:]):
            raise EewsimError(f"undetected row carries metrics in {line!r}")
        return (n, replica, *_UNDETECTED)
    delay_s, distance_km, lat, lon = metrics
    return (n, replica, True, in_range("delay_s", delay_s, 0),
            in_range("distance_km", distance_km, 0), in_range("det_lat", lat, -90, 90),
            normalize_lon(in_range("det_lon", lon)))


def write_summary_csv(summaries: Sequence[McSummary]) -> str:
    """One row per n, its fields in McSummary order; absent statistics are empty."""
    return format_csv(",".join(f.name for f in fields(McSummary)), map(astuple, summaries))
