"""Replication engine over random network geometries.

One replica = sample a network, simulate its triggers, run the detector,
measure delay and separation. Replicas are keyed by (master_seed, n,
replica) so a campaign is a pure function of its inputs: execution order
never changes the result. Campaign outputs are per-n summaries with
empirical 95% bands plus a kernel density of the detection locations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import fmean
from typing import IO, Iterable, Sequence

import numpy as np

from .detection import DetectorParams, PhoneParams, detect, detection_metrics, simulate_triggers
from .errors import EmptyInput, KernelUnderflow, NoDetections
from .geo import GeoPoint, Grid, cell_center
from .network import Catalog, SeedSpec, sample_network
from .scenario import Earthquake, VelocityModel


@dataclass(frozen=True)
class RunResult:
    """Outcome of a single replica."""

    n: int
    replica: int
    detected: bool
    delay_s: float | None = None
    distance_km: float | None = None
    detection_location: GeoPoint | None = None

    def __post_init__(self):
        if not self.detected and not (
            self.delay_s is None and self.distance_km is None and self.detection_location is None
        ):
            raise ValueError("undetected replica must carry no metrics")


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
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    v = sorted(float(x) for x in values)
    if not v:
        raise EmptyInput("percentile of an empty collection")
    h = (len(v) - 1) * p / 100.0
    i = math.floor(h)
    if i >= len(v) - 1:
        return v[-1]
    return v[i] + (h - i) * (v[i + 1] - v[i])


def run_replica(
    cat: Catalog,
    eq: Earthquake,
    vm: VelocityModel,
    pp: PhoneParams,
    dp: DetectorParams,
    n: int,
    replica: int,
    master_seed: int,
) -> RunResult:
    """Run one seeded replica end to end."""
    seed = SeedSpec(master_seed=master_seed, n=n, replica=replica)
    net = sample_network(cat, n, seed)
    triggers = simulate_triggers(net, eq, vm, pp, seed)
    det = detect(triggers, dp)
    if det is None:
        return RunResult(n=n, replica=replica, detected=False)
    delay_s, distance_km = detection_metrics(det, eq)
    return RunResult(
        n=n,
        replica=replica,
        detected=True,
        delay_s=delay_s,
        distance_km=distance_km,
        detection_location=det.location,
    )


def summarize(n: int, results: Sequence[RunResult]) -> McSummary:
    """Fold one n's replicas into an McSummary (replica order independent)."""
    detected = [r for r in results if r.detected]
    rate = len(detected) / len(results) if results else 0.0
    if not detected:
        return McSummary(
            n=n, replicas=len(results), detect_rate=rate,
            delay_mean_s=None, delay_lo_s=None, delay_hi_s=None,
            dist_mean_km=None, dist_lo_km=None, dist_hi_km=None,
        )
    detected.sort(key=lambda r: r.replica)
    delays = [r.delay_s for r in detected]
    dists = [r.distance_km for r in detected]
    return McSummary(
        n=n,
        replicas=len(results),
        detect_rate=rate,
        delay_mean_s=fmean(delays),
        delay_lo_s=percentile(delays, 2.5),
        delay_hi_s=percentile(delays, 97.5),
        dist_mean_km=fmean(dists),
        dist_lo_km=percentile(dists, 2.5),
        dist_hi_km=percentile(dists, 97.5),
    )


def run_campaign(
    cat: Catalog,
    eq: Earthquake,
    vm: VelocityModel,
    pp: PhoneParams,
    dp: DetectorParams,
    n_grid: Sequence[int],
    replicas: int,
    master_seed: int,
) -> tuple[list[McSummary], list[RunResult]]:
    """Run replicas for every n in the grid and summarize per n.

    An n with zero detections yields a summary with rate 0 and absent
    statistics rather than failing the campaign.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    results = [
        run_replica(cat, eq, vm, pp, dp, n, r, master_seed)
        for n in n_grid for r in range(replicas)
    ]
    # deterministic fold in (n-grid order, replica order)
    summaries = []
    by_n: dict[int, list[RunResult]] = {}
    for res in results:
        by_n.setdefault(res.n, []).append(res)
    for n in n_grid:
        summaries.append(summarize(n, by_n[n]))
    return summaries, results


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
    results: Sequence[RunResult],
    like: Grid,
    bandwidth_deg: float | None = None,
) -> DensityGrid:
    """Gaussian-kernel density of detection locations on the geometry of ``like``.

    The isotropic kernel is separable: exp(-(dlat² + dlon²)·inv) is
    exp(-dlat²·inv) · exp(-dlon²·inv), so the m detections give two factor
    matrices, m × nrows and m × ncols, and the grid is their contraction
    over detections. ``einsum`` without ``optimize`` does the contraction
    without BLAS, whose result bytes depend on its thread count.

    Every cell below float64 eps (2**-52) times the grid maximum is then
    set to 0.0: such a cell is below the resolution of the peak, since
    adding it to the peak cell leaves the peak unchanged. Each flushed cell
    moves by less than eps of the maximum, and the maximum cell, hence the
    mode, is kept. It also spares the grid writer, ``format_ascii_grid``,
    the long repr of the Gaussian tail, whose values reach down to 1e-308:
    the writer puts a literal ``0.0`` for each flushed cell.

    The density is then renormalized so cell-sum * cell-area == 1 over the
    grid; KernelUnderflow is raised when no kernel mass is left on it.
    The mode is the center of the maximum-density cell; ties resolve to the
    smallest row, then column.
    """
    pts = [r.detection_location for r in results if r.detected]
    if not pts:
        raise NoDetections("no detected replica to estimate a density from")
    lats = np.array([p.lat for p in pts])
    lons = np.array([p.lon for p in pts])

    h = bandwidth_deg if bandwidth_deg is not None else silverman_bandwidth_deg(lats, lons)
    if not (math.isfinite(h) and h > 0):
        h = like.cellsize

    inv = 1.0 / (2.0 * h * h)
    a = np.exp(-((like.lat_centers()[None, :] - lats[:, None]) ** 2) * inv)
    b = np.exp(-((like.lon_centers()[None, :] - lons[:, None]) ** 2) * inv)
    dens = np.einsum("ki,kj->ij", a, b)
    dens[dens < np.finfo(np.float64).eps * dens.max()] = 0.0

    total = dens.sum() * like.cell_area_deg2
    if total <= 0:
        raise KernelUnderflow(
            f"density kernel mass underflowed to zero on the evaluation grid "
            f"(bandwidth {h!r} deg)"
        )
    dens /= total

    flat_mode = int(np.argmax(dens))
    row, col = divmod(flat_mode, like.ncols)
    grid = replace(like, nodata=-9999.0, values=dens)
    return DensityGrid(grid=grid, bandwidth_deg=float(h), mode=cell_center(grid, row, col))


# --- CSV emission --------------------------------------------------------------

def _fmt(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def write_runs_csv(stream: IO[str], results: Sequence[RunResult]) -> None:
    stream.write("n,replica,detected,delay_s,distance_km,det_lat,det_lon\n")
    for r in results:
        loc = r.detection_location
        stream.write(
            f"{r.n},{r.replica},{'true' if r.detected else 'false'},"
            f"{_fmt(r.delay_s)},{_fmt(r.distance_km)},"
            f"{_fmt(loc.lat if loc else None)},{_fmt(loc.lon if loc else None)}\n"
        )


def read_runs_csv(stream: IO[str] | str) -> list[RunResult]:
    """Parse a runs.csv produced by :func:`write_runs_csv`.

    Raises ValueError on a file without data rows and on a detected row
    whose delay, distance or location is not finite.
    """
    text = stream if isinstance(stream, str) else stream.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "n,replica,detected,delay_s,distance_km,det_lat,det_lon":
        raise ValueError("not a runs.csv file (bad or missing header)")
    if len(lines) == 1:
        raise ValueError("runs.csv has no data rows")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        f = line.split(",")
        if len(f) != 7 or f[2] not in ("true", "false"):
            raise ValueError(f"runs.csv line {lineno}: cannot parse {line!r}")
        detected = f[2] == "true"
        delay_s = distance_km = location = None
        if detected:
            delay_s, distance_km, lat, lon = (float(x) for x in f[3:])
            if not all(math.isfinite(x) for x in (delay_s, distance_km, lat, lon)):
                raise ValueError(f"runs.csv line {lineno}: non-finite value in {line!r}")
            location = GeoPoint(lat, lon)
        out.append(
            RunResult(
                n=int(f[0]),
                replica=int(f[1]),
                detected=detected,
                delay_s=delay_s,
                distance_km=distance_km,
                detection_location=location,
            )
        )
    return out


def write_summary_csv(stream: IO[str], summaries: Sequence[McSummary]) -> None:
    stream.write(
        "n,replicas,detect_rate,delay_mean_s,delay_lo_s,delay_hi_s,"
        "dist_mean_km,dist_lo_km,dist_hi_km\n"
    )
    for s in summaries:
        stream.write(
            f"{s.n},{s.replicas},{repr(s.detect_rate)},"
            f"{_fmt(s.delay_mean_s)},{_fmt(s.delay_lo_s)},{_fmt(s.delay_hi_s)},"
            f"{_fmt(s.dist_mean_km)},{_fmt(s.dist_lo_km)},{_fmt(s.dist_hi_km)}\n"
        )
