"""Run configuration: one INI-style file per batch run.

Sections mirror the parameter blocks of the simulation: [scenario],
[inputs], [catalog], [phone], [detector], [alert], [campaign], [warning],
[density], [output]. Relative paths are resolved against the directory of
the config file. Unknown sections or keys are rejected so typos fail loud.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from configparser import ConfigParser, Error as ConfigParserError

from .detection import DetectorParams, PhoneParams
from .errors import ConfigError
from .geo import DEFAULT_MMI_BINS, GeoPoint, MmiBin, check_disjoint_bins, read_input
from .scenario import Earthquake, VelocityModel
from .warning import AlertParams

DEFAULT_N_GRID = tuple(range(300, 3001, 100))
DEFAULT_REPLICAS = 1000

_KNOWN_KEYS = {
    "scenario": {
        "epicenter_lat", "epicenter_lon", "depth_km", "magnitude",
        "origin_time_s", "v_p_km_s", "v_s_km_s",
    },
    "inputs": {"population_grid", "mmi_grid"},
    "catalog": {"path", "synth_n", "synth_seed"},
    "phone": {"p_detect", "delay_lo_s", "delay_hi_s"},
    "detector": {"k_min", "window_s"},
    "alert": {"dissemination_latency_s"},
    "campaign": {"n_grid", "replicas", "master_seed"},
    "warning": {"mmi_bins", "hist_width_s"},
    "density": {"bandwidth_deg"},
    "output": {"directory"},
}


@dataclass(frozen=True)
class RunConfig:
    earthquake: Earthquake
    velocity: VelocityModel
    phone: PhoneParams
    detector: DetectorParams
    alert: AlertParams
    population_grid: Path
    mmi_grid: Path
    catalog_path: Path | None
    synth_n: int | None
    synth_seed: int
    n_grid: tuple[int, ...]
    replicas: int
    master_seed: int
    mmi_bins: tuple[MmiBin, ...]
    hist_width_s: float
    density_bandwidth_deg: float | None  # None = Silverman rule
    out_dir: Path


class _Reader:
    """Typed key lookup over a ConfigParser with path-aware diagnostics."""

    def __init__(self, parser: ConfigParser, path: Path):
        self.parser = parser
        self.path = path

    def _raw(self, section: str, key: str) -> str | None:
        if self.parser.has_option(section, key):
            return self.parser.get(section, key)
        return None

    def get_float(self, section: str, key: str, default: float | None = None) -> float:
        raw = self._raw(section, key)
        if raw is None:
            if default is None:
                raise ConfigError(f"{self.path}: missing required key [{section}] {key}")
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(
                f"{self.path}: [{section}] {key} must be a number, got {raw!r}"
            ) from None

    def get_int(self, section: str, key: str, default: int | None = None) -> int:
        raw = self._raw(section, key)
        if raw is None:
            if default is None:
                raise ConfigError(f"{self.path}: missing required key [{section}] {key}")
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(
                f"{self.path}: [{section}] {key} must be an integer, got {raw!r}"
            ) from None


def _parse_n_grid(raw: str, path: Path) -> tuple[int, ...]:
    tokens = raw.replace(",", " ").split()
    try:
        values = tuple(int(t) for t in tokens)
    except ValueError:
        raise ConfigError(f"{path}: [campaign] n_grid must be a list of integers") from None
    if not values:
        raise ConfigError(f"{path}: [campaign] n_grid is empty")
    if any(v < 1 for v in values):
        raise ConfigError(f"{path}: [campaign] n_grid values must be >= 1")
    if len(set(values)) != len(values):
        raise ConfigError(f"{path}: [campaign] n_grid contains duplicates")
    return values


def _parse_bins(raw: str, path: Path) -> tuple[MmiBin, ...]:
    try:
        bins = tuple(MmiBin.parse(tok) for tok in raw.split())
        if not bins:
            raise ValueError("no bins given")
        check_disjoint_bins(bins)
    except ValueError as e:
        raise ConfigError(f"{path}: [warning] mmi_bins: {e}") from None
    return bins


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration file."""
    path = Path(path)
    parser = ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read_input(path, "config", lambda fh: parser.read_file(fh, source=str(path)))
    except ConfigParserError as e:
        raise ConfigError(f"{path}: {e}") from None

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser.options(section):
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"{path}: unknown key [{section}] {key}")

    r = _Reader(parser, path)
    base = path.resolve().parent

    def _path(section: str, key: str, required: bool) -> Path | None:
        raw = r._raw(section, key)
        if raw is None:
            if required:
                raise ConfigError(f"{path}: missing required key [{section}] {key}")
            return None
        p = Path(raw)
        return p if p.is_absolute() else base / p

    try:
        earthquake = Earthquake(
            epicenter=GeoPoint(
                r.get_float("scenario", "epicenter_lat"),
                r.get_float("scenario", "epicenter_lon"),
            ),
            depth_km=r.get_float("scenario", "depth_km"),
            magnitude=r.get_float("scenario", "magnitude", 0.0),
            origin_time_s=r.get_float("scenario", "origin_time_s", 0.0),
        )
        velocity = VelocityModel(
            v_p_km_s=r.get_float("scenario", "v_p_km_s", VelocityModel().v_p_km_s),
            v_s_km_s=r.get_float("scenario", "v_s_km_s", VelocityModel().v_s_km_s),
        )
        phone = PhoneParams(
            p_detect=r.get_float("phone", "p_detect", PhoneParams().p_detect),
            delay_lo_s=r.get_float("phone", "delay_lo_s", PhoneParams().delay_lo_s),
            delay_hi_s=r.get_float("phone", "delay_hi_s", PhoneParams().delay_hi_s),
        )
        detector = DetectorParams(
            k_min=r.get_int("detector", "k_min", DetectorParams().k_min),
            window_s=r.get_float("detector", "window_s", DetectorParams().window_s),
        )
        alert = AlertParams(
            dissemination_latency_s=r.get_float("alert", "dissemination_latency_s", 0.0),
        )
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None

    catalog_path = _path("catalog", "path", required=False)
    synth_n = None if r._raw("catalog", "synth_n") is None else r.get_int("catalog", "synth_n")
    if catalog_path is not None and synth_n is not None:
        raise ConfigError(f"{path}: [catalog] give either path or synth_n, not both")
    if catalog_path is None and synth_n is None:
        raise ConfigError(f"{path}: [catalog] needs a path or a synth_n")
    if synth_n is not None and synth_n < 1:
        raise ConfigError(f"{path}: [catalog] synth_n must be >= 1")
    synth_seed = r.get_int("catalog", "synth_seed", 0)
    if synth_seed < 0:
        raise ConfigError(f"{path}: [catalog] synth_seed must be >= 0")

    raw_n_grid = r._raw("campaign", "n_grid")
    n_grid = DEFAULT_N_GRID if raw_n_grid is None else _parse_n_grid(raw_n_grid, path)
    replicas = r.get_int("campaign", "replicas", DEFAULT_REPLICAS)
    if replicas < 1:
        raise ConfigError(f"{path}: [campaign] replicas must be >= 1")
    master_seed = r.get_int("campaign", "master_seed", 0)
    if not 0 <= master_seed < 2**64:
        raise ConfigError(f"{path}: [campaign] master_seed must fit in 64 bits")

    raw_bins = r._raw("warning", "mmi_bins")
    mmi_bins = DEFAULT_MMI_BINS if raw_bins is None else _parse_bins(raw_bins, path)
    hist_width_s = r.get_float("warning", "hist_width_s", 1.0)
    if not 0 < hist_width_s < math.inf:
        raise ConfigError(f"{path}: [warning] hist_width_s must be finite and > 0")

    raw_bw = r._raw("density", "bandwidth_deg")
    if raw_bw is None or raw_bw.strip().lower() == "auto":
        bandwidth = None
    else:
        bandwidth = r.get_float("density", "bandwidth_deg")
        if not 0 < bandwidth < math.inf:
            raise ConfigError(f"{path}: [density] bandwidth_deg must be finite and > 0, or 'auto'")

    out_dir = _path("output", "directory", required=False) or (base / "out")

    return RunConfig(
        earthquake=earthquake,
        velocity=velocity,
        phone=phone,
        detector=detector,
        alert=alert,
        population_grid=_path("inputs", "population_grid", required=True),
        mmi_grid=_path("inputs", "mmi_grid", required=True),
        catalog_path=catalog_path,
        synth_n=synth_n,
        synth_seed=synth_seed,
        n_grid=n_grid,
        replicas=replicas,
        master_seed=master_seed,
        mmi_bins=mmi_bins,
        hist_width_s=hist_width_s,
        density_bandwidth_deg=bandwidth,
        out_dir=out_dir,
    )


def apply_overrides(
    cfg: RunConfig,
    seed: int | None = None,
    out: str | Path | None = None,
    replicas: int | None = None,
) -> RunConfig:
    """Fold command-line overrides into a loaded config."""
    if seed is not None:
        if not 0 <= seed < 2**64:
            raise ConfigError(f"--seed must fit in 64 bits, got {seed}")
        cfg = replace(cfg, master_seed=seed)
    if out is not None:
        cfg = replace(cfg, out_dir=Path(out))
    if replicas is not None:
        if replicas < 1:
            raise ConfigError(f"--replicas must be >= 1, got {replicas}")
        cfg = replace(cfg, replicas=replicas)
    return cfg
