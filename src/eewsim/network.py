"""Phone-location catalogs, reproducible seeding and network sampling.

All randomness in a simulation flows through :class:`SeedSpec`. Each
(master_seed, n, replica) triple keys an independent substream via numpy's
SeedSequence entropy mixing on top of the counter-based Philox generator,
so replicas can run in any order, or in parallel, with bit-identical
results. Separate stream tags keep network sampling and trigger simulation
decorrelated within one replica.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .errors import (
    AllZeroPopulation,
    EmptyCatalog,
    MalformedRow,
    NTooLarge,
    NZero,
    OutOfRangeCoordinate,
)
from .geo import GeoPoint, Grid, normalize_lon

# substream tags; never reuse a value for a new purpose
STREAM_NETWORK = 1
STREAM_TRIGGERS = 2
STREAM_SYNTH = 3

_U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class SeedSpec:
    """Keys one replica's random substreams."""

    master_seed: int
    n: int
    replica: int

    def __post_init__(self):
        if not 0 <= self.master_seed <= _U64_MAX:
            raise ValueError(f"master_seed must fit in 64 bits, got {self.master_seed}")
        if self.n < 0 or self.replica < 0:
            raise ValueError("n and replica must be non-negative")

    def generator(self, stream: int) -> np.random.Generator:
        ss = np.random.SeedSequence((self.master_seed, self.n, self.replica, stream))
        return np.random.Generator(np.random.Philox(ss))


def _coord_arrays(lats, lons) -> tuple[np.ndarray, np.ndarray]:
    # private copies: the arrays are frozen and must not alias caller state
    lats = np.array(lats, dtype=np.float64, order="C", copy=True)
    lons = np.array(lons, dtype=np.float64, order="C", copy=True)
    if lats.shape != lons.shape or lats.ndim != 1:
        raise ValueError("lats and lons must be 1-D arrays of equal length")
    if not (np.isfinite(lats).all() and np.isfinite(lons).all()):
        raise OutOfRangeCoordinate("non-finite coordinate in catalog")
    if lats.size and (lats.min() < -90.0 or lats.max() > 90.0):
        raise OutOfRangeCoordinate("latitude outside [-90, 90] in catalog")
    lons = np.where((lons >= -180.0) & (lons < 180.0), lons, (lons + 180.0) % 360.0 - 180.0)
    lats.setflags(write=False)
    lons.setflags(write=False)
    return lats, lons


@dataclass(frozen=True, eq=False)
class Catalog:
    """All candidate phone locations (the opt-in population)."""

    lats: np.ndarray
    lons: np.ndarray
    source: str = ""

    def __post_init__(self):
        lats, lons = _coord_arrays(self.lats, self.lons)
        if lats.size < 1:
            raise EmptyCatalog("catalog holds no points")
        object.__setattr__(self, "lats", lats)
        object.__setattr__(self, "lons", lons)

    def __len__(self) -> int:
        return int(self.lats.size)

    def point(self, i: int) -> GeoPoint:
        return GeoPoint(float(self.lats[i]), float(self.lons[i]))


@dataclass(frozen=True, eq=False)
class Network:
    """A size-n subset of the catalog: the phones monitoring right now.

    A plain holder: :func:`sample_network` fills it from an already
    validated catalog with distinct indices, so it checks nothing again.
    """

    lats: np.ndarray
    lons: np.ndarray
    catalog_indices: np.ndarray

    def __len__(self) -> int:
        return int(self.lats.size)


# --- catalog I/O -------------------------------------------------------------

def load_catalog(source: str | IO[str] | Iterable[str], origin: str = "catalog") -> Catalog:
    """Read a catalog CSV: header ``lat,lon``, one point per line."""
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


def format_catalog(cat: Catalog) -> str:
    """Serialize a catalog to CSV with full round-trip float precision."""
    out = ["lat,lon"]
    for la, lo in zip(cat.lats.tolist(), cat.lons.tolist()):
        out.append(f"{la!r},{lo!r}")
    return "\n".join(out) + "\n"


# --- catalog synthesis and network sampling ----------------------------------

def synth_catalog(pop: Grid, n_points: int, seed: int) -> Catalog:
    """Draw a synthetic catalog of phones placed where people live.

    Cells are chosen with replacement with probability proportional to
    population; each point is then jittered uniformly within its cell.
    Deterministic for a given (grid, n_points, seed).
    """
    if n_points < 1:
        raise EmptyCatalog(f"n_points must be >= 1, got {n_points}")
    weights = np.where(pop.mask & (pop.values > 0), pop.values, 0.0).ravel()
    total = weights.sum()
    if total <= 0:
        raise AllZeroPopulation("population grid has no cell with positive population")

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, STREAM_SYNTH))))
    flat = rng.choice(weights.size, size=n_points, replace=True, p=weights / total)
    rows, cols = np.divmod(flat, pop.ncols)
    u = rng.random(n_points)
    v = rng.random(n_points)
    lons = pop.xll + (cols + u) * pop.cellsize
    lats = pop.yll + (pop.nrows - 1 - rows + v) * pop.cellsize
    return Catalog(lats=lats, lons=lons, source=f"synthetic(N={n_points}, seed={seed})")


def sample_network(cat: Catalog, n: int, seed: SeedSpec) -> Network:
    """Sample n distinct catalog points, uniformly over all n-subsets.

    Partial Fisher-Yates over the index array; all swap targets are drawn
    in one vectorized call so the result is a pure function of the seed.
    The index array stays virtual: only the positions a swap moved are
    stored, so a replica costs O(n) whatever the catalog size. Step i
    fixes position i for good (later swaps touch only positions > i).
    """
    N = len(cat)
    if n < 1:
        raise NZero(f"network size must be >= 1, got {n}")
    if n > N:
        raise NTooLarge(f"network size {n} exceeds catalog size {N}")
    rng = seed.generator(STREAM_NETWORK)
    js = rng.integers(np.arange(n), N).tolist()
    moved: dict[int, int] = {}
    chosen = []
    for i, j in enumerate(js):
        chosen.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    idx = np.array(chosen, dtype=np.int64)
    return Network(lats=cat.lats[idx], lons=cat.lons[idx], catalog_indices=idx)
