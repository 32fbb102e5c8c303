"""Earthquake event description and a constant-velocity travel-time model.

Propagation uses a homogeneous half-space: straight-line slant distance
from the hypocenter divided by a constant P or S speed. Defaults of
6.5 / 3.5 km/s are configurable per run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import in_range
from .geo import EARTH_RADIUS_KM, GeoPoint, haversine_km_points

# the slowest wave whose longest travel, hypot(pi R, R) km, takes under 2**53 s
MIN_SPEED_KM_S = (np.pi**2 + 1) ** 0.5 * EARTH_RADIUS_KM / 2**53


@dataclass(frozen=True)
class Earthquake:
    epicenter: GeoPoint
    depth_km: float
    magnitude: float = 0.0  # informational only
    origin_time_s: float = 0.0

    def __post_init__(self):
        in_range("depth_km", self.depth_km, 0, EARTH_RADIUS_KM)
        in_range("magnitude", self.magnitude)
        in_range("origin_time_s", self.origin_time_s, -2**53, 2**53, lo_open=True, hi_open=True)


@dataclass(frozen=True)
class VelocityModel:
    v_p_km_s: float = 6.5
    v_s_km_s: float = 3.5

    def __post_init__(self):
        in_range("v_s_km_s", self.v_s_km_s, MIN_SPEED_KM_S, lo_open=True)
        in_range("v_p_km_s", self.v_p_km_s, self.v_s_km_s, lo_open=True)


def hypocentral_km_points(eq: Earthquake, lats, lons) -> np.ndarray:
    """Slant distance in km from the hypocenter to surface points."""
    return np.hypot(haversine_km_points(eq.epicenter, lats, lons), eq.depth_km)


def p_arrivals_s(eq: Earthquake, vm: VelocityModel, lats, lons) -> np.ndarray:
    """P-wave arrival times (absolute, origin time included)."""
    return eq.origin_time_s + hypocentral_km_points(eq, lats, lons) / vm.v_p_km_s


def s_arrivals_s(eq: Earthquake, vm: VelocityModel, lats, lons) -> np.ndarray:
    """S-wave arrival times (absolute, origin time included)."""
    return eq.origin_time_s + hypocentral_km_points(eq, lats, lons) / vm.v_s_km_s
