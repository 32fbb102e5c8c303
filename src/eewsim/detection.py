"""Two-step earthquake detection simulation.

Step one draws per-phone triggers on a network of n phones (sampled from
the catalog in O(n log n) by a sparse Fisher-Yates, whatever the catalog
size): each phone independently notices the P wave with probability
``p_detect`` and reports it after a uniform random delay. The triggers
are kept as columns sorted by (time, lat, lon). Step two is the
server-side declaration: scanning triggers in time order, a detection
fires at the first trigger that closes a time window holding at least
``k_min`` triggers. With no background (false) triggers in the
simulation, this count threshold is the whole detector; its location
estimate is the coordinate-wise median of the contributing triggers,
robust against a stray distant phone.

The scan has a closed form. At the first firing trigger j the window held
fewer than k_min triggers one step earlier, so it now holds exactly
k_min: triggers j-k_min+1..j. The detector therefore fires at the first j
with t[j-k_min+1] > t[j] - window_s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EewsimError, in_range
from .geo import GeoPoint, haversine_km
from .network import Catalog, Network, SeedSpec, STREAM_TRIGGERS, philox_raws, random_doubles, seed_keys
from .scenario import Earthquake, VelocityModel, p_arrivals_s


@dataclass(frozen=True)
class PhoneParams:
    """Per-phone behaviour: detection probability and reporting delay."""

    p_detect: float = 0.7
    delay_lo_s: float = 0.5
    delay_hi_s: float = 3.5

    def __post_init__(self):
        in_range("p_detect", self.p_detect, 0, 1)
        in_range("delay_lo_s", self.delay_lo_s, 0)
        in_range("delay_hi_s", self.delay_hi_s, self.delay_lo_s)


@dataclass(frozen=True)
class DetectorParams:
    """Server-side declaration rule: k_min triggers within window_s seconds."""

    k_min: int = 5
    window_s: float = 10.0

    def __post_init__(self):
        in_range("k_min", self.k_min, 2)
        in_range("window_s", self.window_s, 0, lo_open=True)


@dataclass(frozen=True, eq=False)
class Triggers:
    """One earthquake's phone triggers as columns sorted by (time, lat, lon)."""

    times: np.ndarray
    lats: np.ndarray
    lons: np.ndarray

    def __len__(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True)
class Detection:
    """Server detection: declaration time, epicenter estimate, evidence."""

    time_s: float
    location: GeoPoint
    contributing: tuple[int, ...]


def simulate_triggers(
    net: Network,
    eq: Earthquake,
    vm: VelocityModel,
    pp: PhoneParams,
    seed: SeedSpec,
) -> Triggers:
    """Draw the triggers one earthquake produces on one network.

    Each phone is included with probability ``p_detect``; an included phone
    triggers at its P arrival plus a uniform delay. The result is sorted by
    (time, lat, lon) so downstream processing is order-stable. Distinct
    times fix that order alone, so the (lat, lon) keys are sorted on only
    when two times are exactly equal.
    """
    rng = seed.generator(STREAM_TRIGGERS)
    n = len(net)
    included = rng.random(n) < pp.p_detect
    delays = rng.uniform(pp.delay_lo_s, pp.delay_hi_s, size=n)
    arrivals = p_arrivals_s(eq, vm, net.lats, net.lons)

    times = arrivals[included] + delays[included]
    lats = net.lats[included]
    lons = net.lons[included]
    order = np.argsort(times)
    ranked = times[order]
    if (ranked[1:] == ranked[:-1]).any():
        order = np.lexsort((lons, lats, times))
    return Triggers(times[order], lats[order], lons[order])


def trigger_times(arrivals: np.ndarray, pp: PhoneParams, master_seed: int, replicas: np.ndarray) -> np.ndarray:
    """Each replica's trigger times on its network, as :func:`simulate_triggers` draws them, unsorted.

    ``arrivals`` holds the P arrival of each replica's n phones, one row
    per replica. Each row takes its trigger stream's first 2n raw words:
    ``random(n)`` picks the phones that notice, ``uniform(delay_lo_s,
    delay_hi_s, n)`` their delays. A phone that does not trigger gets
    time inf.
    """
    n = arrivals.shape[1]
    raws = philox_raws(seed_keys(master_seed, n, replicas, STREAM_TRIGGERS), 2 * n)
    times = arrivals + (pp.delay_lo_s + (pp.delay_hi_s - pp.delay_lo_s) * random_doubles(raws[:, n:]))
    times[random_doubles(raws[:, :n]) >= pp.p_detect] = np.inf
    return times


def detect_rows(
    times: np.ndarray, idx: np.ndarray, cat: Catalog, dp: DetectorParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`detect` on each row of trigger times from :func:`trigger_times`.

    ``idx`` holds the rows' catalog indices. Each row is put in (time, lat,
    lon) order: by time alone, unless the row holds two equal finite
    times. A time of inf never fires, since inf - window_s is inf. Returns
    which rows fired, and for those rows the detection time and the
    coordinate-wise median of the k_min contributors.
    """
    k = dp.k_min
    rows, n = times.shape
    if n < k:
        nothing = np.empty(0)
        return np.zeros(rows, bool), nothing, nothing, nothing
    order = np.argsort(times, axis=1)
    ranked = np.take_along_axis(times, order, axis=1)
    tied = np.flatnonzero(((ranked[:, 1:] == ranked[:, :-1]) & (ranked[:, 1:] < np.inf)).any(axis=1))
    if tied.size:
        at = idx[tied]
        order[tied] = np.lexsort((cat.lons[at], cat.lats[at], times[tied]))
        ranked[tied] = np.take_along_axis(times[tied], order[tied], axis=1)
    fire = ranked[:, : n - k + 1] > ranked[:, k - 1 :] - dp.window_s
    first = fire.argmax(axis=1)
    fired = fire[np.arange(rows), first]
    hit, first = np.flatnonzero(fired), first[fired]
    contributors = np.take_along_axis(idx[hit], order[hit[:, None], first[:, None] + np.arange(k)], axis=1)
    return (fired, ranked[hit, first + k - 1],
            _median_rows(cat.lats[contributors]), _median_rows(cat.lons[contributors]))


def _median_rows(values: np.ndarray) -> np.ndarray:
    """:func:`_median` of each row; the stable sort keeps -0.0 and 0.0 in row order, as ``sorted`` does."""
    v = np.sort(values, axis=1, kind="stable")
    i = v.shape[1] // 2
    return v[:, i] if v.shape[1] % 2 else (v[:, i - 1] + v[:, i]) / 2


def _median(values: list[float]) -> float:
    """``statistics.median``: the middle value, or the mean of the middle two."""
    v = sorted(values)
    i = len(v) // 2
    return v[i] if len(v) % 2 else (v[i - 1] + v[i]) / 2


def detect(triggers: Triggers, dp: DetectorParams) -> Detection | None:
    """Apply the sliding-window count detector to time-sorted triggers.

    Scanning in time order, the detection is declared at the first trigger
    t_j with at least k_min triggers inside the half-open window
    (t_j - window_s, t_j]; the contributing set is the earliest k_min
    triggers in that window, which are j-k_min+1..j. Returns None when no
    window ever fills.
    """
    t = triggers.times
    if (t[1:] < t[:-1]).any():
        raise EewsimError("triggers must be sorted ascending by time")
    k = dp.k_min
    if t.size < k:
        return None
    fired = np.flatnonzero(t[: t.size - k + 1] > t[k - 1 :] - dp.window_s)
    if fired.size == 0:
        return None
    first = int(fired[0])
    last = first + k - 1
    return Detection(
        time_s=float(t[last]),
        location=GeoPoint(
            _median(triggers.lats[first : last + 1].tolist()),
            _median(triggers.lons[first : last + 1].tolist()),
        ),
        contributing=tuple(range(first, last + 1)),
    )


def detection_metrics(det: Detection, eq: Earthquake) -> tuple[float, float]:
    """(delay since origin in s, great-circle separation from epicenter in km)."""
    delay_s = det.time_s - eq.origin_time_s
    distance_km = haversine_km(det.location, eq.epicenter)
    return delay_s, distance_km
