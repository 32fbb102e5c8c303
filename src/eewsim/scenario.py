"""Earthquake event description and a constant-velocity travel-time model.

Propagation uses a homogeneous half-space: straight-line slant distance
from the hypocenter divided by a constant P or S speed. Defaults of
6.5 / 3.5 km/s are configurable per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geo import GeoPoint, haversine_km_points


@dataclass(frozen=True)
class Earthquake:
    epicenter: GeoPoint
    depth_km: float
    magnitude: float = 0.0  # informational only
    origin_time_s: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.depth_km) and self.depth_km >= 0):
            raise ValueError(f"depth_km must be >= 0, got {self.depth_km}")
        if not math.isfinite(self.magnitude):
            raise ValueError("magnitude must be finite")
        if not math.isfinite(self.origin_time_s):
            raise ValueError("origin_time_s must be finite")


@dataclass(frozen=True)
class VelocityModel:
    v_p_km_s: float = 6.5
    v_s_km_s: float = 3.5

    def __post_init__(self):
        if not (math.inf > self.v_p_km_s > self.v_s_km_s > 0):
            raise ValueError(
                f"need inf > v_p > v_s > 0, got v_p={self.v_p_km_s}, v_s={self.v_s_km_s}"
            )


def hypocentral_km_points(eq: Earthquake, lats, lons) -> np.ndarray:
    """Slant distance in km from the hypocenter to surface points."""
    return np.hypot(haversine_km_points(eq.epicenter, lats, lons), eq.depth_km)


def p_arrivals_s(eq: Earthquake, vm: VelocityModel, lats, lons) -> np.ndarray:
    """P-wave arrival times (absolute, origin time included)."""
    return eq.origin_time_s + hypocentral_km_points(eq, lats, lons) / vm.v_p_km_s


def s_arrivals_s(eq: Earthquake, vm: VelocityModel, lats, lons) -> np.ndarray:
    """S-wave arrival times (absolute, origin time included)."""
    return eq.origin_time_s + hypocentral_km_points(eq, lats, lons) / vm.v_s_km_s
