"""Shared helpers and independent oracles used across the test suite."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from eewsim.detection import Triggers
from eewsim.geo import Grid


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


def inv_cdf_percentile(values, p) -> float:
    """Unweighted left-continuous inverse-CDF percentile, exact rationals."""
    v = sorted(float(x) for x in values)
    target = Fraction(p) * len(v) / 100  # Fraction(float) is the exact binary value
    rank = max(1, math.ceil(target))
    return v[min(rank, len(v)) - 1]


def linear_percentile_oracle(values, p) -> float:
    """Reference for the linear-interpolation percentile (numpy's default)."""
    return float(np.percentile(np.asarray(values, dtype=float), p))
