"""Benchmark workloads and their seeded input generator.

Each workload is a fixed shape (raster geometry, catalog size, n grid,
replicas, detector) plus a workload seed. The seed derives the campaign
``master_seed``, the catalog synthesis seed and a multiplicative noise
field on the population raster, so different seeds give different inputs
with the same amount of work. ``write_inputs`` writes the rasters, the
catalog (when the workload reads one from CSV) and ``run.ini`` into a
directory; eewsim sees only those files.

The generator is self-contained (it does not import eewsim), so the inputs
for a seed stay the same bytes whatever the program under test does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NODATA = -9999.0

# scenario anchor: a 2010-like event west of a Port-au-Prince-like capital
EPICENTER_LAT = 18.457
EPICENTER_LON = -72.533
DEPTH_KM = 10.0
V_P_KM_S = 6.5
V_S_KM_S = 3.5

# population clusters: (lat, lon, sigma_deg, peak per 0.02-degree cell)
_CLUSTERS = (
    (18.55, -72.32, 0.09, 9000.0),
    (18.50, -72.63, 0.05, 3500.0),
    (19.76, -72.20, 0.05, 2500.0),
    (19.45, -72.69, 0.05, 1800.0),
    (19.11, -72.70, 0.045, 1500.0),
    (18.20, -73.75, 0.045, 1500.0),
    (18.23, -72.53, 0.04, 1200.0),
)
_RURAL_BASE = 15.0
_LAND_CENTER = (19.0, -73.1)
_LAND_SEMI = (1.25, 1.6)  # (lat, lon) semi-axes in degrees
_KM_PER_DEG = 111.195
_POP_NOISE_SIGMA = 0.1  # log-normal per-cell population noise

MMI_BINS = "(7.5,8] (8,8.5] (8.5,9]"


@dataclass(frozen=True)
class RasterShape:
    ncols: int
    nrows: int
    xll: float
    yll: float
    cellsize: float

    def __str__(self) -> str:
        return f"{self.ncols}x{self.nrows}@{self.cellsize}deg"


DEMO_POP = RasterShape(150, 120, -74.6, 17.8, 0.02)
DEMO_MMI = RasterShape(128, 104, -74.7, 17.7, 0.025)
FINE = RasterShape(600, 480, -74.6, 17.8, 0.005)


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int  # mixes into the seed so workloads never share random streams
    pop: RasterShape
    mmi: RasterShape
    catalog_n: int
    catalog_from_csv: bool  # True: [catalog] path; False: [catalog] synth_n
    n_grid: tuple[int, ...]
    replicas: int
    k_min: int
    window_s: float
    why: str

    def sizes(self) -> dict:
        return {
            "pop_raster": str(self.pop),
            "mmi_raster": str(self.mmi),
            "catalog_N": self.catalog_n,
            "catalog": "csv" if self.catalog_from_csv else "synth",
            "n_grid": f"{self.n_grid[0]}..{self.n_grid[-1]} ({len(self.n_grid)} values)",
            "replicas": self.replicas,
            "k_min": self.k_min,
            "window_s": self.window_s,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper_grid", tag=1, pop=DEMO_POP, mmi=DEMO_MMI,
            catalog_n=6202, catalog_from_csv=False,
            n_grid=tuple(range(300, 3001, 100)), replicas=8,
            k_min=5, window_s=10.0,
            why="the paper's campaign shape; the replica loop dominates",
        ),
        Workload(
            name="fine_raster", tag=2, pop=FINE, mmi=FINE,
            catalog_n=6202, catalog_from_csv=False,
            n_grid=(300, 400), replicas=120,
            k_min=5, window_s=10.0,
            why="fine rasters, small networks; KDE, warning and grid I/O dominate",
        ),
        Workload(
            name="big_catalog", tag=3, pop=DEMO_POP, mmi=DEMO_MMI,
            catalog_n=500_000, catalog_from_csv=True,
            n_grid=(15, 30, 60), replicas=300,
            k_min=6, window_s=1.5,
            why="large CSV catalog, tiny networks, strict detector; catalog I/O and sampling dominate",
        ),
    )
}


def seeded_rng(workload: Workload, seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, workload.tag, stream))))


def derived_seeds(workload: Workload, seed: int) -> tuple[int, int]:
    """(master_seed, synth_seed) for a workload seed."""
    rng = seeded_rng(workload, seed, 0)
    return int(rng.integers(2**63)), int(rng.integers(2**31))


def _centers(shape: RasterShape) -> tuple[np.ndarray, np.ndarray]:
    lat = shape.yll + (shape.nrows - 1 - np.arange(shape.nrows) + 0.5) * shape.cellsize
    lon = shape.xll + (np.arange(shape.ncols) + 0.5) * shape.cellsize
    return np.meshgrid(lat, lon, indexing="ij")


def population_values(shape: RasterShape, rng: np.random.Generator) -> np.ndarray:
    """Clustered population per cell, log-normal noise, nodata offshore."""
    lat2, lon2 = _centers(shape)
    area = (shape.cellsize / 0.02) ** 2  # peaks are per 0.02-degree cell
    pop = np.full(lat2.shape, _RURAL_BASE * area)
    for clat, clon, sigma, peak in _CLUSTERS:
        d2 = (lat2 - clat) ** 2 + (lon2 - clon) ** 2
        pop += peak * area * np.exp(-d2 / (2.0 * sigma * sigma))
    pop *= np.exp(_POP_NOISE_SIGMA * rng.standard_normal(pop.shape))
    land = (
        ((lat2 - _LAND_CENTER[0]) / _LAND_SEMI[0]) ** 2
        + ((lon2 - _LAND_CENTER[1]) / _LAND_SEMI[1]) ** 2
    ) <= 1.0
    return np.where(land, pop, NODATA)


def mmi_values(shape: RasterShape) -> np.ndarray:
    """Intensity decaying from the epicenter, elongated along a fault strike."""
    lat2, lon2 = _centers(shape)
    dx = (lon2 - EPICENTER_LON) * _KM_PER_DEG * math.cos(math.radians(EPICENTER_LAT))
    dy = (lat2 - EPICENTER_LAT) * _KM_PER_DEG
    theta = math.radians(20.0)
    along = dx * math.cos(theta) + dy * math.sin(theta)
    across = -dx * math.sin(theta) + dy * math.cos(theta)
    return np.clip(9.4 - 0.05 * np.sqrt(along**2 + (2.2 * across) ** 2), 1.0, 12.0)


def format_grid(shape: RasterShape, values: np.ndarray) -> str:
    """ESRI ASCII grid text, floats written with repr (round-trip exact)."""
    out = [
        f"ncols {shape.ncols}",
        f"nrows {shape.nrows}",
        f"xllcorner {shape.xll!r}",
        f"yllcorner {shape.yll!r}",
        f"cellsize {shape.cellsize!r}",
        f"NODATA_value {NODATA!r}",
    ]
    out.extend(" ".join(map(repr, row)) for row in values.tolist())
    return "\n".join(out) + "\n"


def catalog_csv(pop_shape: RasterShape, pop: np.ndarray, n_points: int,
                rng: np.random.Generator) -> str:
    """Population-proportional phone locations, jittered within their cells."""
    weights = np.where(pop != NODATA, pop, 0.0).ravel()
    flat = rng.choice(weights.size, size=n_points, p=weights / weights.sum())
    rows, cols = np.divmod(flat, pop_shape.ncols)
    lons = pop_shape.xll + (cols + rng.random(n_points)) * pop_shape.cellsize
    lats = pop_shape.yll + (pop_shape.nrows - 1 - rows + rng.random(n_points)) * pop_shape.cellsize
    body = "\n".join(f"{la!r},{lo!r}" for la, lo in zip(lats.tolist(), lons.tolist()))
    return "lat,lon\n" + body + "\n"


_CONFIG = """\
[scenario]
epicenter_lat = {ep_lat!r}
epicenter_lon = {ep_lon!r}
depth_km = {depth!r}
magnitude = 7.0
origin_time_s = 0.0
v_p_km_s = {vp!r}
v_s_km_s = {vs!r}

[inputs]
population_grid = pop.asc
mmi_grid = mmi.asc

[catalog]
{catalog}

[phone]
p_detect = 0.7
delay_lo_s = 0.5
delay_hi_s = 3.5

[detector]
k_min = {k_min}
window_s = {window_s!r}

[alert]
dissemination_latency_s = 0.0

[campaign]
n_grid = {n_grid}
replicas = {replicas}
master_seed = {master_seed}

[warning]
mmi_bins = {bins}
hist_width_s = 1.0

[density]
bandwidth_deg = auto

[output]
directory = out
"""


def _write(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_inputs(workload: Workload, seed: int, directory: Path) -> Path:
    """Write pop.asc, mmi.asc, (phones.csv) and run.ini; return run.ini."""
    directory.mkdir(parents=True, exist_ok=True)
    master_seed, synth_seed = derived_seeds(workload, seed)
    pop = population_values(workload.pop, seeded_rng(workload, seed, 1))
    _write(directory / "pop.asc", format_grid(workload.pop, pop))
    _write(directory / "mmi.asc", format_grid(workload.mmi, mmi_values(workload.mmi)))
    if workload.catalog_from_csv:
        text = catalog_csv(workload.pop, pop, workload.catalog_n, seeded_rng(workload, seed, 2))
        _write(directory / "phones.csv", text)
        catalog = "path = phones.csv"
    else:
        catalog = f"synth_n = {workload.catalog_n}\nsynth_seed = {synth_seed}"
    config = _CONFIG.format(
        ep_lat=EPICENTER_LAT, ep_lon=EPICENTER_LON, depth=DEPTH_KM,
        vp=V_P_KM_S, vs=V_S_KM_S, catalog=catalog,
        k_min=workload.k_min, window_s=workload.window_s,
        n_grid=",".join(map(str, workload.n_grid)), replicas=workload.replicas,
        master_seed=master_seed, bins=MMI_BINS,
    )
    path = directory / "run.ini"
    _write(path, config)
    return path
