"""Population-weighted warning-time distributions per intensity bin.

The warning time at a place is the S-wave arrival minus the alert time
(detection time plus dissemination latency). Negative values are
first-class: they mark the blind zone where shaking outruns the alert.

Weighted percentiles use the left-continuous inverse CDF: the smallest
warning time whose cumulative normalized population weight reaches the
requested fraction. Stated explicitly because weighted quantiles have
several conventions; this one degenerates to the plain inverse-CDF
empirical quantile under equal weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detection import Detection
from .errors import EewsimError, in_range
from .geo import Grid, MmiBin, check_disjoint_bins, format_csv, match_cells
from .montecarlo import DensityGrid, detection_density, mean, mean_band
from .scenario import Earthquake, VelocityModel, s_arrivals_s


@dataclass(frozen=True)
class AlertParams:
    """Alert-side timing; latency 0 models instantaneous dissemination."""

    dissemination_latency_s: float = 0.0

    def __post_init__(self):
        in_range("dissemination_latency_s", self.dissemination_latency_s, 0)


@dataclass(frozen=True)
class WarningStats:
    """Warning-time distribution for the population inside one MMI bin."""

    bin: MmiBin
    population: float
    p2_5_s: float | None
    mean_s: float | None
    p97_5_s: float | None
    histogram: tuple[tuple[float, float, float], ...]


@dataclass(frozen=True)
class WarningBand:
    """One (n, bin, statistic) row of the warning-vs-network-size table."""

    n: int
    bin: MmiBin
    stat: str  # 'p2_5' | 'mean' | 'p97_5'
    value_s: float | None
    band_lo_s: float | None
    band_hi_s: float | None


def weighted_percentile(values, weights, p: float) -> float:
    """Left-continuous inverse-CDF weighted percentile.

    Returns the smallest value whose cumulative normalized weight is
    >= p/100. Zero-weight entries are ignored.
    """
    in_range("percentile", p, 0, 100)
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if v.shape != w.shape or v.ndim != 1:
        raise EewsimError("values and weights must be 1-D arrays of equal length")
    if (w < 0).any():
        raise EewsimError("weights must be non-negative")
    keep = w > 0
    v, w = v[keep], w[keep]
    if v.size == 0:
        raise EewsimError("weighted percentile of an empty collection")
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(w[order])
    # compare cum/total >= p/100 as cum*100 >= total*p: single products keep
    # exact-boundary cases (equal weights, round p) bit-stable
    idx = min(int(np.searchsorted(cum * 100.0, cum[-1] * p, side="left")), v.size - 1)
    return float(v[order][idx])


@dataclass(frozen=True)
class WarningField:
    """S arrivals and populations of the cells in each intensity bin.

    A cell takes part when it has positive population and its center falls
    on a valid cell of the intensity grid (``geo.match_cells``). Its warning
    time for an alert raised at time t is its S arrival shifted by one
    constant: w = s_arrival - t - dissemination_latency.
    """

    bins: tuple[MmiBin, ...]
    s_arrivals: tuple[np.ndarray, ...]
    pops: tuple[np.ndarray, ...]


def warning_field(
    eq: Earthquake,
    vm: VelocityModel,
    mmi: Grid,
    pop: Grid,
    bins: Sequence[MmiBin],
) -> WarningField:
    """Each bin's cells that take part, in row-major order, and their S arrivals."""
    if not bins:
        raise EewsimError("need at least one intensity bin")
    check_disjoint_bins(bins)
    lat2, lon2, samples, matched = match_cells(pop, mmi)
    usable = matched & (pop.values > 0)
    sels = [usable & b.contains(samples) for b in bins]
    # S arrivals only where some bin keeps the cell, in row-major order
    keep = np.logical_or.reduce(sels)
    s_arr = s_arrivals_s(eq, vm, lat2[keep], lon2[keep])
    return WarningField(
        bins=tuple(bins),
        s_arrivals=tuple(s_arr[sel[keep]] for sel in sels),
        pops=tuple(pop.values[sel] for sel in sels),
    )


def _histogram(w: np.ndarray, pops: np.ndarray, width: float) -> tuple[tuple[float, float, float], ...]:
    """Fixed-width histogram aligned to multiples of ``width``.

    Buckets are contiguous from the lowest to the highest occupied bucket;
    bucket populations sum to exactly the same total the stats use. Every
    bucket index is below 2**53 in magnitude, so the int64 cast is exact.
    """
    in_range("|warning time / hist_width_s|", float(np.abs(w).max()) / width, hi=2**53, hi_open=True)
    k = np.floor(w / width).astype(np.int64)
    k_min = int(k.min())
    counts = np.bincount(k - k_min, weights=pops)
    return tuple(
        (float((k_min + i) * width), float((k_min + i + 1) * width), float(c))
        for i, c in enumerate(counts.tolist())
    )


def _s_stats(field: WarningField) -> list[tuple[float, float, float] | None]:
    """Per bin, the weighted p2.5, mean and p97.5 of its S arrivals; None for an empty bin.

    A warning time is the S arrival shifted by one constant, -(t + latency).
    A shift keeps the order of the cells, so the weighted percentiles pick
    the same cell as they would among shifted cells, and it moves the
    weighted mean by the same constant. So the three statistics are taken
    once and shifted per alert time: the percentiles bit for bit as if
    every cell were shifted, the mean within rounding (a few ulp) of the
    weighted mean of shifted cells.
    """
    return [
        None if s_vals.size == 0 else (
            weighted_percentile(s_vals, pops, 2.5),
            float(np.average(s_vals, weights=pops)),
            weighted_percentile(s_vals, pops, 97.5),
        )
        for s_vals, pops in zip(field.s_arrivals, field.pops)
    ]


def warning_stats(
    field: WarningField,
    time_s: float | None,
    ap: AlertParams,
    hist_width_s: float = 1.0,
) -> list[WarningStats]:
    """Population-weighted warning-time statistics per bin for one alert time.

    ``time_s`` is the alert's detection time, or None when no alert was
    raised. A bin with no cell that takes part, and every bin when no
    alert was raised, yields population 0 and absent statistics.
    """
    in_range("hist_width_s", hist_width_s, 0, lo_open=True)
    latency = ap.dissemination_latency_s
    consts = [None] * len(field.bins) if time_s is None else _s_stats(field)
    out = []
    for b, s_vals, pops, c in zip(field.bins, field.s_arrivals, field.pops, consts):
        if c is None:
            out.append(WarningStats(b, 0.0, None, None, None, ()))
            continue
        hist = _histogram(s_vals - time_s - latency, pops, hist_width_s)
        p2_5, mean, p97_5 = (x - time_s - latency for x in c)
        out.append(WarningStats(b, float(sum(h[2] for h in hist)), p2_5, mean, p97_5, hist))
    return out


def warning_vs_n(
    runs: np.recarray,
    eq: Earthquake,
    ap: AlertParams,
    field: WarningField,
) -> list[WarningBand]:
    """Warning summaries per network size with replica-spread bands.

    For each detected replica the three warning statistics are computed
    with that replica's detection time; rows carry their mean over
    replicas plus empirical 2.5/97.5 percentile bands across replicas.
    The n values come in the order they first appear in ``runs``. An n
    with no detections (or a bin with no population) yields rows with
    absent values.

    Each bin's three statistics are taken once on its S arrivals
    (``_s_stats``) and shifted per replica, as in :func:`warning_stats`, so
    a one-replica row equals a ``warning_stats`` call at its alert time.
    """
    n_values, first = np.unique(runs.n, return_index=True)
    n_order = n_values[np.argsort(first)].tolist()
    stats = ("p2_5", "mean", "p97_5")
    s_stats = _s_stats(field)
    rows: list[WarningBand] = []
    for n in n_order:
        times = eq.origin_time_s + runs.delay_s[(runs.n == n) & runs.detected]
        for b, consts in zip(field.bins, s_stats):
            for stat, c in zip(stats, consts or (None, None, None)):
                vals = [] if c is None else (c - times - ap.dissemination_latency_s).tolist()
                rows.append(WarningBand(n, b, stat, *mean_band(vals)))
    return rows


def mode_conditioned_detection(
    runs: np.recarray,
    n: int,
    eq: Earthquake,
    like: Grid,
    bandwidth_deg: float | None = None,
) -> tuple[Detection, DensityGrid]:
    """The 'expected detection' for one n: density mode + mean detection time.

    The detection location is the mode of the kernel density over the n's
    detected replicas; the detection time is the replica-mean detection
    time.
    """
    mine = runs[runs.n == n]
    delays = mine.delay_s[mine.detected]
    if not delays.size:
        raise EewsimError(f"no detected replica at n={n}")
    density = detection_density(mine, like, bandwidth_deg)
    mean_time = eq.origin_time_s + mean(delays.tolist())
    det = Detection(time_s=mean_time, location=density.mode, contributing=())
    return det, density


# --- CSV emission -------------------------------------------------------------

def write_warning_hist_csv(stats: Sequence[WarningStats]) -> str:
    """Histogram rows per bin; an empty bin emits a single population-0 row."""
    rows = []
    for ws in stats:
        rows += [(ws.bin, *h) for h in ws.histogram] or [(ws.bin, None, None, 0.0)]
    return format_csv("bin,edge_lo_s,edge_hi_s,population", rows)


def write_warning_vs_n_csv(rows: Sequence[WarningBand]) -> str:
    return format_csv(
        "n,bin,stat,value_s,band_lo_s,band_hi_s",
        ((r.n, r.bin, r.stat, r.value_s, r.band_lo_s, r.band_hi_s) for r in rows),
    )
