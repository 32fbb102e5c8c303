"""Synthetic Haiti-like demo inputs.

Builds a population raster from Gaussian clusters around a
Port-au-Prince-like centroid, an anisotropic intensity field elongated
along a fault azimuth, and a ready-to-run configuration file. Real GPW
population and USGS intensity rasters can be dropped in with the same
layout; these synthetic ones exist so the package runs out of the box.

Usage: ``python -m eewsim.demo <output-dir>``
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .geo import Grid, format_ascii_grid

NODATA = -9999.0

# scenario anchor: a 2010-like event west of the capital
EPICENTER_LAT = 18.457
EPICENTER_LON = -72.533
DEPTH_KM = 10.0
MAGNITUDE = 7.0

# population clusters: (lat, lon, sigma_deg, peak per cell)
_CLUSTERS = (
    (18.55, -72.32, 0.09, 9000.0),   # capital metro
    (18.50, -72.63, 0.05, 3500.0),   # coastal town near the epicenter
    (19.76, -72.20, 0.05, 2500.0),   # northern port city
    (19.45, -72.69, 0.05, 1800.0),
    (19.11, -72.70, 0.045, 1500.0),
    (18.20, -73.75, 0.045, 1500.0),  # southwestern city
    (18.23, -72.53, 0.04, 1200.0),   # southern coast
)
_RURAL_BASE = 15.0

# rough landmass ellipse; outside is nodata (sea)
_LAND_CENTER = (19.0, -73.1)
_LAND_SEMI = (1.25, 1.6)  # (lat, lon) semi-axes in degrees

_KM_PER_DEG = 111.195


def build_population_grid() -> Grid:
    """Clustered population on a 0.02 degree raster, nodata offshore."""
    grid = Grid(ncols=150, nrows=120, xll=-74.6, yll=17.8, cellsize=0.02,
                nodata=NODATA, values=np.zeros((120, 150)))
    lat2, lon2 = grid.center_mesh()

    pop = np.full(grid.values.shape, _RURAL_BASE)
    for clat, clon, sigma, peak in _CLUSTERS:
        d2 = (lat2 - clat) ** 2 + (lon2 - clon) ** 2
        pop += peak * np.exp(-d2 / (2.0 * sigma * sigma))

    land = (
        ((lat2 - _LAND_CENTER[0]) / _LAND_SEMI[0]) ** 2
        + ((lon2 - _LAND_CENTER[1]) / _LAND_SEMI[1]) ** 2
    ) <= 1.0
    return replace(grid, values=np.where(land, pop, NODATA))


def build_mmi_grid() -> Grid:
    """Anisotropic intensity field decaying from the epicenter.

    Distance is measured in a rotated frame elongated along an ENE fault
    azimuth, so equal intensities stretch along-strike, as observed fields
    do. Deliberately on a different geometry than the population raster.
    """
    grid = Grid(ncols=128, nrows=104, xll=-74.7, yll=17.7, cellsize=0.025,
                nodata=NODATA, values=np.zeros((104, 128)))
    lat2, lon2 = grid.center_mesh()

    dx = (lon2 - EPICENTER_LON) * _KM_PER_DEG * math.cos(math.radians(EPICENTER_LAT))
    dy = (lat2 - EPICENTER_LAT) * _KM_PER_DEG
    theta = math.radians(20.0)  # fault strike, measured from east
    along = dx * math.cos(theta) + dy * math.sin(theta)
    across = -dx * math.sin(theta) + dy * math.cos(theta)
    r_eff = np.sqrt(along**2 + (2.2 * across) ** 2)
    return replace(grid, values=np.clip(9.4 - 0.05 * r_eff, 1.0, 12.0))


_CONFIG_TEMPLATE = """\
# Demo run: synthetic Haiti-like scenario
[scenario]
epicenter_lat = {ep_lat}
epicenter_lon = {ep_lon}
depth_km = {depth}
magnitude = {mag}
origin_time_s = 0.0
v_p_km_s = 6.5
v_s_km_s = 3.5

[inputs]
population_grid = pop.asc
mmi_grid = mmi.asc

[catalog]
synth_n = 6202
synth_seed = 20100112

[phone]
p_detect = 0.7
delay_lo_s = 0.5
delay_hi_s = 3.5

[detector]
k_min = 5
window_s = 10.0

[alert]
dissemination_latency_s = 0.0

[campaign]
n_grid = {n_grid}
replicas = {replicas}
master_seed = 42

[warning]
mmi_bins = (7.5,8] (8,8.5] (8.5,9]
hist_width_s = 1.0

[density]
bandwidth_deg = auto

[output]
directory = out
"""


def write_demo(
    directory: str | Path,
    n_grid: tuple[int, ...] = (300, 600, 1200, 2400, 3000),
    replicas: int = 200,
) -> Path:
    """Write pop.asc, mmi.asc and run.ini under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "pop.asc", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_ascii_grid(build_population_grid()))
    with open(directory / "mmi.asc", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_ascii_grid(build_mmi_grid()))
    config = _CONFIG_TEMPLATE.format(
        ep_lat=EPICENTER_LAT, ep_lon=EPICENTER_LON, depth=DEPTH_KM, mag=MAGNITUDE,
        n_grid=",".join(str(n) for n in n_grid), replicas=replicas,
    )
    path = directory / "run.ini"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(config)
    return path


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m eewsim.demo <output-dir>", file=sys.stderr)
        return 2
    path = write_demo(argv[0])
    print(f"demo inputs written; next: eewsim all --config {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
