"""Phone-location catalogs, reproducible seeding and network sampling.

All randomness in a simulation flows through :class:`SeedSpec`. Each
(master_seed, n, replica) triple keys an independent substream via numpy's
SeedSequence entropy mixing on top of the counter-based Philox generator,
so replicas can run in any order with bit-identical results. Separate
stream tags keep network sampling and trigger simulation decorrelated
within one replica.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import islice
from typing import IO, Iterable

import numpy as np

from .errors import EewsimError, in_range
from .geo import Grid, normalize_lon, read_float_rows

# substream tags; never reuse a value for a new purpose
STREAM_NETWORK = 1
STREAM_TRIGGERS = 2
STREAM_SYNTH = 3

# catalog CSV body lines parsed per vectorized step; bounds the loader's memory
_CHUNK_LINES = 2**16


@dataclass(frozen=True)
class SeedSpec:
    """Keys one replica's random substreams."""

    master_seed: int
    n: int
    replica: int

    def __post_init__(self):
        in_range("master_seed", self.master_seed, 0, 2**64, hi_open=True)
        in_range("n", self.n, 0)
        in_range("replica", self.replica, 0)

    def generator(self, stream: int) -> np.random.Generator:
        ss = np.random.SeedSequence((self.master_seed, self.n, self.replica, stream))
        return np.random.Generator(np.random.Philox(ss))


def _coord_arrays(lats, lons) -> tuple[np.ndarray, np.ndarray]:
    # private copies: the arrays are frozen and must not alias caller state
    lats = np.array(lats, dtype=np.float64, order="C", copy=True)
    lons = np.array(lons, dtype=np.float64, order="C", copy=True)
    if lats.shape != lons.shape or lats.ndim != 1:
        raise EewsimError("lats and lons must be 1-D arrays of equal length")
    for x in (lats.min(), lats.max()) if lats.size else ():  # a NaN is the min and max
        in_range("catalog latitude", float(x), -90, 90)
    for x in (lons.min(), lons.max()) if lons.size else ():
        in_range("catalog longitude", float(x))
    lons = normalize_lon(lons)
    lats.setflags(write=False)
    lons.setflags(write=False)
    return lats, lons


@dataclass(frozen=True, eq=False)
class Catalog:
    """All candidate phone locations (the opt-in population)."""

    lats: np.ndarray
    lons: np.ndarray

    def __post_init__(self):
        lats, lons = _coord_arrays(self.lats, self.lons)
        if lats.size < 1:
            raise EewsimError("catalog holds no points")
        object.__setattr__(self, "lats", lats)
        object.__setattr__(self, "lons", lons)

    def __len__(self) -> int:
        return int(self.lats.size)


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
    """Read a catalog CSV: header ``lat,lon``, one point per line.

    The text is streamed. A ``str`` is read through universal newlines
    (lines end at ``\\n``, ``\\r\\n`` or ``\\r``); a file handle or any
    other iterable yields one line per item. Body lines are taken
    ``_CHUNK_LINES`` at a time and each chunk is parsed by numpy's C
    reader (once more without its whitespace-only lines, which that reader
    rejects), or line by line with ``float`` where that reader fails, so
    working memory is one chunk plus the output arrays. Blank lines are
    skipped, and an error names its 1-based line.
    """
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else iter(source)
    for header_no, line in enumerate(lines, 1):
        header = line.strip()
        if header:
            break
    else:
        raise EewsimError(f"{origin}: file is empty")
    if [c.strip().lower() for c in header.split(",")] != ["lat", "lon"]:
        raise EewsimError(f"{origin} line {header_no}: expected header 'lat,lon', got {header!r}")

    chunks = []
    first_lineno = header_no + 1
    while chunk := list(islice(lines, _CHUNK_LINES)):
        chunks.append(_parse_chunk(chunk, first_lineno, origin))
        first_lineno += len(chunk)
    vals = np.concatenate(chunks) if chunks else np.empty((0, 2))
    if not vals.size:
        raise EewsimError(f"{origin}: no data rows")
    return Catalog(lats=vals[:, 0], lons=vals[:, 1])


def _parse_chunk(chunk: list[str], first_lineno: int, origin: str) -> np.ndarray:
    """Parse body lines into an (m, 2) array of lat, lon rows."""
    vals = read_float_rows(chunk, delimiter=",")
    if vals is None:  # numpy's reader rejects whitespace-only lines: retry without them
        vals = read_float_rows([ln for ln in chunk if ln.strip()], delimiter=",")
    if vals is not None and vals.shape[1] == 2 and np.isfinite(vals).all():
        if (np.abs(vals[:, 0]) <= 90.0).all():
            return vals
    return _parse_lines(chunk, first_lineno, origin)


def _parse_lines(chunk: list[str], first_lineno: int, origin: str) -> np.ndarray:
    """Parse body lines one by one with float, which takes ``1_0``; errors name the line."""
    rows = []
    for lineno, line in enumerate(map(str.strip, chunk), first_lineno):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise EewsimError(f"{origin} line {lineno}: expected 'lat,lon', got {line!r}")
        try:
            lat, lon = map(float, parts)
        except ValueError:
            raise EewsimError(f"{origin} line {lineno}: cannot parse {line!r}") from None
        rows.append((in_range(f"{origin} line {lineno}: latitude", lat, -90, 90),
                     in_range(f"{origin} line {lineno}: longitude", lon)))
    return np.array(rows, dtype=np.float64).reshape(-1, 2)


# --- catalog synthesis and network sampling ----------------------------------

def synth_catalog(pop: Grid, n_points: int, seed: int) -> Catalog:
    """Draw a synthetic catalog of phones placed where people live.

    Cells are chosen with replacement with probability proportional to
    population; each point is then jittered uniformly within its cell.
    Deterministic for a given (grid, n_points, seed).
    """
    in_range("n_points", n_points, 1)
    weights = np.where(pop.mask & (pop.values > 0), pop.values, 0.0).ravel()
    total = weights.sum()
    if total <= 0:
        raise EewsimError("population grid has no cell with positive population")

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, STREAM_SYNTH))))
    flat = rng.choice(weights.size, size=n_points, replace=True, p=weights / total)
    rows, cols = np.divmod(flat, pop.ncols)
    u = rng.random(n_points)
    v = rng.random(n_points)
    return Catalog(lats=pop.row_lat(rows, v), lons=pop.col_lon(cols, u))


def sample_network(cat: Catalog, n: int, seed: SeedSpec) -> Network:
    """Sample n distinct catalog points, uniformly over all n-subsets.

    Partial Fisher-Yates over a virtual index array: all swap targets
    js[i] >= i are drawn in one vectorized call, so the result is a pure
    function of the seed, and a replica costs O(n log n) whatever the
    catalog size. Step i takes the value at position js[i]: js[i] itself,
    unless an earlier step wrote there. The last such step, prev[i], wrote
    the value its own position held at its turn, which is prev[i] unless an
    earlier step g[prev[i]] wrote there (g[k] is the last k' < k with
    js[k'] == k), and so on down the chain. Pointer doubling resolves all
    chains at once.
    """
    N = len(cat)
    in_range("network size", n, 1)
    if n > N:
        raise EewsimError(f"network size {n} exceeds catalog size {N}")
    rng = seed.generator(STREAM_NETWORK)
    steps = np.arange(n)
    js = rng.integers(steps, N)

    # the steps grouped by target in step order, as a stable argsort of js
    # gives them, from one faster sort of the distinct keys js * n + step
    # (below N**2, which int64 holds for any catalog that fits in memory)
    targets, by_target = np.divmod(np.sort(js * n + steps), n)
    dup = np.flatnonzero(targets[1:] == targets[:-1])
    idx = js
    if dup.size:  # else no step found its position written: idx is js
        g = np.full(n, -1)
        writes = (js < n) & (js != steps)
        np.maximum.at(g, js[writes], steps[writes])
        root = np.where(g < 0, steps, g)
        while not np.array_equal(hop := root[root], root):
            root = hop
        # by_target[d + 1] repeats the target of by_target[d], its prev
        idx[by_target[dup + 1]] = root[by_target[dup]]
    return Network(lats=cat.lats[idx], lons=cat.lons[idx], catalog_indices=idx)
