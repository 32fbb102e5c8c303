"""Monte Carlo simulator for the alerting performance of smartphone-based
earthquake early warning networks: detection delay, detection location and
population-weighted warning-time distributions over random network
geometries."""

from .detection import Detection, DetectorParams, PhoneParams, Triggers, detect, detection_metrics, simulate_triggers
from .geo import GeoPoint, Grid, MmiBin, exposure_histogram, haversine_km, parse_ascii_grid
from .montecarlo import DensityGrid, McSummary, detection_density, percentile, run_campaign, run_replica
from .network import Catalog, Network, SeedSpec, load_catalog, sample_network, synth_catalog
from .scenario import Earthquake, VelocityModel
from .warning import AlertParams, WarningBand, WarningStats, warning_field, warning_stats, warning_vs_n, weighted_percentile

__version__ = "0.1.0"

__all__ = [
    "AlertParams", "Catalog", "Detection", "DensityGrid", "DetectorParams",
    "Earthquake", "GeoPoint", "Grid", "McSummary", "MmiBin",
    "Network", "PhoneParams", "SeedSpec", "Triggers",
    "VelocityModel", "WarningBand", "WarningStats",
    "detect", "detection_density", "detection_metrics", "exposure_histogram",
    "haversine_km", "load_catalog", "parse_ascii_grid", "percentile",
    "run_campaign", "run_replica", "sample_network", "simulate_triggers",
    "synth_catalog", "warning_field", "warning_stats", "warning_vs_n",
    "weighted_percentile",
]
