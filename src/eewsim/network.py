"""Phone-location catalogs, reproducible seeding and network sampling.

All randomness in a simulation flows through :class:`SeedSpec`. Each
(master_seed, n, replica) triple keys an independent substream: numpy's
SeedSequence hash of (master_seed, n, replica, stream) gives the key of a
counter-based Philox generator, so replicas can run in any order with
bit-identical results. Separate stream tags keep network sampling and
trigger simulation decorrelated within one replica.

The campaign draws all replicas of one n at once. :func:`seed_keys`
computes the SeedSequence hash on arrays, :func:`philox_raws` reads each
key's raw Philox words, and the draws are formulas on those words, bit for
bit as ``Generator.random``, ``uniform`` and ``integers`` give them. So
output bytes depend on SeedSequence, Philox and these formulas, not on
``Generator`` method internals, which NumPy's NEP 19 does not promise to
keep across releases; only a replica whose network draw meets a Lemire
rejection takes ``Generator.integers`` (:func:`sample_networks`).
``SeedSpec.generator`` is the one-replica reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterator

import numpy as np

from .errors import EewsimError, in_range
from .geo import Grid, _read_decimal_rows, map_blocks, normalize_lon, read_float_rows, text_blocks

# substream tags; never reuse a value for a new purpose
STREAM_NETWORK = 1
STREAM_TRIGGERS = 2
STREAM_SYNTH = 3


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


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_MASK32 = 0xFFFFFFFF


def _uint32_words(x: int) -> list[int]:
    """``x`` >= 0 as SeedSequence reads an int: its uint32 words, least significant first."""
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def seed_keys(master_seed: int, n: int, replicas: np.ndarray, stream: int) -> np.ndarray:
    """The Philox key of ``SeedSpec(master_seed, n, r).generator(stream)`` for each replica r.

    That key is ``SeedSequence((master_seed, n, r, stream)).generate_state(2,
    np.uint64)``, here computed for all r at once by the same uint32 hash:
    the tuple's words are mixed into a pool of four, and the pool is hashed
    into four output words, read as two little-endian uint64. Returns a
    (len(replicas), 2) uint64 array.
    """
    r = np.asarray(replicas, dtype=np.uint64)
    keys = np.empty((r.size, 2), np.uint64)
    for wide in (False, True):  # r takes one uint32 word below 2**32, two from there
        rows = (r > _MASK32) == wide
        if rows.any():
            rr = r[rows]
            replica_words = [rr & _MASK32, rr >> 32] if wide else [rr]
            entropy = [np.full(rr.size, w, np.uint32) for w in _uint32_words(master_seed) + _uint32_words(n)]
            entropy += [w.astype(np.uint32) for w in replica_words]
            entropy += [np.full(rr.size, w, np.uint32) for w in _uint32_words(stream)]
            keys[rows] = _seed_sequence_key(entropy)
    return keys


def _seed_sequence_key(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(words).generate_state(2, np.uint64)`` for each row of the word columns."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return out ^ (out >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for word in pool:
        word = word ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * np.uint32(hash_const)
        state.append((word ^ (word >> 16)).astype(np.uint64))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def philox_raws(keys: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` raw 64-bit words of ``Philox(key=k)`` for each key row k.

    One Philox is re-keyed through its ``state`` for each row, which gives
    the stream of a fresh generator (counter 0, empty buffer) at a fraction
    of the cost of building one. Returns a (len(keys), count) uint64 array.
    """
    bitgen = np.random.Philox(0)
    state = bitgen.state  # a fresh generator's counter, buffer and flags
    out = np.empty((len(keys), count), np.uint64)
    for row, key in zip(out, keys):
        state["state"]["key"] = key
        bitgen.state = state
        row[:] = bitgen.random_raw(count)
    return out


def random_doubles(raws: np.ndarray) -> np.ndarray:
    """``Generator.random`` from its raw words: the top 53 bits of each, times 2**-53.

    ``Generator.uniform(lo, hi)`` is ``lo + (hi - lo) * random`` on the next words.
    """
    return (raws >> 11) * 2.0**-53


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

def load_catalog(source: str | IO[str], origin: str = "catalog") -> Catalog:
    """Read a catalog CSV: header ``lat,lon``, one point per line.

    ``source`` is a ``str`` or a text stream. Its text is streamed in
    blocks of whole lines (:func:`geo.text_blocks`), which also give the
    header: the first non-blank line. The blocks are parsed on up to two
    threads (:func:`geo.map_blocks`), with the same result on one. A block
    of plain decimals is read by :func:`geo._read_decimal_rows`. Numpy's C
    reader parses any other block once, on its non-blank lines, and where
    it fails, ``float`` parses the block line by line; so working memory is
    a block a thread plus the output arrays. Blank lines are skipped, and
    an error names its 1-based line.
    """
    blocks = text_blocks(source)
    header_no = 1
    for text in blocks:
        body = text.lstrip()
        header_no += text.count("\n", 0, len(text) - len(body))
        if body:
            break
    else:
        raise EewsimError(f"{origin}: file is empty")
    header, _, body = body.partition("\n")
    header = header.rstrip()
    if [c.strip().lower() for c in header.split(",")] != ["lat", "lon"]:
        raise EewsimError(f"{origin} line {header_no}: expected header 'lat,lon', got {header!r}")

    def numbered() -> Iterator[tuple[str, int, str]]:
        first_lineno = header_no + 1
        for text in chain([body] if body else [], blocks):
            yield text, first_lineno, origin
            first_lineno += text.count("\n")

    chunks = map_blocks(_parse_chunk, numbered())
    vals = np.concatenate(chunks) if chunks else np.empty((0, 2))
    if not vals.size:
        raise EewsimError(f"{origin}: no data rows")
    return Catalog(lats=vals[:, 0], lons=vals[:, 1])


def _in_domain(vals: np.ndarray) -> bool:
    """Every value finite and every latitude in [-90, 90]; else the line parser names the line."""
    return bool(np.isfinite(vals).all() and (np.abs(vals[:, 0]) <= 90.0).all())


def _parse_chunk(text: str, first_lineno: int, origin: str) -> np.ndarray:
    """Parse a block of body lines, each ended by ``\\n``, into an (m, 2) array
    of lat, lon rows; an error names the line, counted from ``first_lineno``."""
    vals = _read_decimal_rows(text, 2, ",")
    if vals is not None and _in_domain(vals):
        return vals
    lines = text.split("\n")[:-1]
    # numpy's reader rejects whitespace-only lines
    vals = read_float_rows([ln for ln in lines if ln.strip()], delimiter=",")
    if vals is None or vals.shape[1] != 2 or not _in_domain(vals):
        vals = _parse_lines(lines, first_lineno, origin)
    return vals


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

    The one-replica form of :func:`sample_networks`: the swap targets come
    from ``seed.generator(STREAM_NETWORK).integers``.
    """
    N = len(cat)
    check_network_size(n, N)
    js = seed.generator(STREAM_NETWORK).integers(np.arange(n), N)
    idx = _fisher_yates(js[None])[0]
    return Network(lats=cat.lats[idx], lons=cat.lons[idx], catalog_indices=idx)


def check_network_size(n: int, N: int) -> None:
    """The network size rule: 1 <= n <= N for a catalog of N points."""
    in_range("network size", n, 1)
    if n > N:
        raise EewsimError(f"network size {n} exceeds catalog size {N}")


def sample_networks(N: int, n: int, master_seed: int, replicas: np.ndarray) -> np.ndarray:
    """The catalog indices :func:`sample_network` draws for each replica, one row each.

    Step i's swap target is ``integers(i, N)``, which ``Generator`` draws
    by Lemire's method from the stream's uint32 halves, low half first:
    u * (N - i) >> 32 for the next half u, unless its low 32 bits fall
    below (2**32 - (N - i)) mod (N - i), when it rejects u and takes the
    next. A step with one value, i = N - 1, draws nothing; it is the last
    step, so taking it as a draw with bound 1, which gives i whatever u
    is, changes no value. A row with a rejection, and every row of a
    catalog of 2**32 points or more, where ``Generator`` takes other paths,
    draws from ``SeedSpec.generator``. Returns a (len(replicas), n) int64
    array.
    """
    check_network_size(n, N)
    steps = np.arange(n)
    if N <= _MASK32:
        bound = (N - steps).astype(np.uint64)
        raws = philox_raws(seed_keys(master_seed, n, replicas, STREAM_NETWORK), (n + 1) // 2)
        scaled = raws.astype("<u8", copy=False).view("<u4")[:, :n] * bound
        rejected = ((scaled & _MASK32) < (2**32 - bound) % bound).any(axis=1)
        scaled >>= 32
        js = scaled.view(np.int64)
        js += steps
    else:
        js = np.empty((len(replicas), n), np.int64)
        rejected = np.ones(len(replicas), bool)
    for row in np.flatnonzero(rejected).tolist():
        js[row] = SeedSpec(master_seed, n, int(replicas[row])).generator(STREAM_NETWORK).integers(steps, N)
    return _fisher_yates(js)


def _fisher_yates(js: np.ndarray) -> np.ndarray:
    """Each row's partial Fisher-Yates sample from its swap targets js[:, i] >= i.

    Partial Fisher-Yates over a virtual index array, so a row costs
    O(n log n) whatever the catalog size. Step i takes the value at
    position js[i]: js[i] itself, unless an earlier step wrote there. The
    last such step, prev[i], wrote the value its own position held at its
    turn, which is prev[i] unless an earlier step g[prev[i]] wrote there
    (g[k] is the last k' < k with js[k'] == k), and so on down the chain.
    Pointer doubling resolves all chains of all rows at once. ``js`` is
    overwritten with the result.
    """
    rows, n = js.shape
    steps = np.arange(n)
    # the steps grouped by target in step order, as a stable argsort of js
    # gives them, from one faster sort of the distinct keys js * n + step
    # (below N**2, which int64 holds for any catalog that fits in memory)
    # (built in place and dropped once read: this is the largest working
    # set of the campaign kernel)
    keys = js * n
    keys += steps
    keys.sort(axis=1)
    targets, by_target = np.divmod(keys, n)
    del keys
    row, dup = np.nonzero(targets[:, 1:] == targets[:, :-1])
    del targets
    if row.size:  # else no step found its position written: js is the sample
        # g and root index the rows' steps as one flat array, row r at r * n
        r, k = np.nonzero((js < n) & (js != steps))
        root = np.full(rows * n, -1)  # g, then each step's root
        np.maximum.at(root, r * n + js[r, k], r * n + k)
        del r, k
        root[root < 0] = np.flatnonzero(root < 0)
        # by_target[d + 1] repeats the target of by_target[d], its prev
        base = row * n
        step, prev = by_target[row, dup + 1], base + by_target[row, dup]
        del by_target
        while not np.array_equal(hop := root[root], root):
            root = hop
        js[row, step] = root[prev] - base
    return js
