"""Run configuration: one INI-style file per batch run.

Sections mirror the parameter blocks of the simulation: [scenario],
[inputs], [catalog], [phone], [detector], [alert], [campaign], [warning],
[density], [output]. Relative paths are resolved against the directory of
the config file. Unknown sections or keys are rejected so typos fail loud.

The number fields of the parameter dataclasses in ``_PARAMS`` are their
section's keys: each one's name, type and default is its field's.
"""

from __future__ import annotations

import configparser
from configparser import ConfigParser
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import IO, get_type_hints

from .detection import DetectorParams, PhoneParams
from .errors import EewsimError, in_range
from .geo import DEFAULT_MMI_BINS, GeoPoint, MmiBin, check_disjoint_bins, read_input
from .scenario import Earthquake, VelocityModel
from .warning import AlertParams

DEFAULT_N_GRID = tuple(range(300, 3001, 100))
DEFAULT_REPLICAS = 1000

# the dataclasses whose int and float fields are their section's keys; the
# epicenter, a GeoPoint, is read from the epicenter_lat and epicenter_lon keys
_PARAMS = {
    "scenario": (Earthquake, VelocityModel),
    "phone": (PhoneParams,),
    "detector": (DetectorParams,),
    "alert": (AlertParams,),
}

# the keys that name no field of a _PARAMS dataclass
_KNOWN_KEYS = {
    "scenario": {"epicenter_lat", "epicenter_lon"},
    "inputs": {"population_grid", "mmi_grid"},
    "catalog": {"path", "synth_n", "synth_seed"},
    "campaign": {"n_grid", "replicas", "master_seed"},
    "warning": {"mmi_bins", "hist_width_s"},
    "density": {"bandwidth_deg"},
    "output": {"directory"},
}

_KINDS = {  # each _PARAMS dataclass -> its int and float fields by name, with their types
    cls: {name: kind for name, kind in get_type_hints(cls).items() if kind in (int, float)}
    for classes in _PARAMS.values() for cls in classes
}

_KEYS = {  # section -> every key it accepts
    section: _KNOWN_KEYS.get(section, set()).union(*(_KINDS[c] for c in _PARAMS.get(section, ())))
    for section in _KNOWN_KEYS.keys() | _PARAMS.keys()
}

_REQUIRED = object()  # _value default: an absent key is an error


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


def _value(parser: ConfigParser, section: str, key: str, kind=str, default=None, **bounds):
    """``[section] key`` read by ``kind`` (a type or a parser), or ``default`` when absent.

    A value read is checked against ``bounds``, the keywords of ``in_range``.
    """
    if not parser.has_option(section, key):
        if default is _REQUIRED:
            raise EewsimError(f"missing required key [{section}] {key}")
        return default
    raw = parser.get(section, key)
    try:
        value = kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise EewsimError(f"[{section}] {key} must be {noun}, got {raw!r}") from None
    return in_range(f"[{section}] {key}", value, **bounds) if bounds else value


def _params(parser: ConfigParser, section: str, cls, **fixed):
    """``cls(**fixed, **given)``, ``given`` holding the number fields ``section`` sets.

    A field the file leaves out keeps its default, or is a missing
    required key when it has none.
    """
    kinds = _KINDS[cls]
    given = {
        f.name: _value(parser, section, f.name, kinds[f.name], _REQUIRED)
        for f in fields(cls)
        if f.name in kinds and (parser.has_option(section, f.name) or f.default is MISSING)
    }
    return cls(**fixed, **given)


def _parse_n_grid(raw: str) -> tuple[int, ...]:
    try:
        values = tuple(in_range("[campaign] n_grid value", int(t), 1)
                       for t in raw.replace(",", " ").split())
    except ValueError:
        raise EewsimError("[campaign] n_grid must be a list of integers") from None
    if not values:
        raise EewsimError("[campaign] n_grid is empty")
    if len(set(values)) != len(values):
        raise EewsimError("[campaign] n_grid contains duplicates")
    return values


def _parse_bins(raw: str) -> tuple[MmiBin, ...]:
    try:
        bins = tuple(MmiBin.parse(tok) for tok in raw.split())
        if not bins:
            raise EewsimError("no bins given")
        check_disjoint_bins(bins)
    except EewsimError as e:
        raise EewsimError(f"[warning] mmi_bins: {e}") from None
    return bins


def _parse_bandwidth(raw: str) -> float | None:
    if raw.strip().lower() == "auto":
        return None  # Silverman's rule
    return in_range("[density] bandwidth_deg", float(raw), 0, lo_open=True)


def _read_ini(fh: IO[str]) -> ConfigParser:
    """The sections of ``fh``, each syntax error one ``line N: ...`` message.

    Values are literal: ``%`` is no interpolation marker. ``[DEFAULT]`` is
    an ordinary, hence unknown, section, and a value that an indented line
    continues is rejected.
    """
    lines = fh.readlines()
    # no file line can be the section name "\n", so no section holds defaults
    parser = ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None,
                          default_section="\n")
    try:
        parser.read_file(lines)
    except configparser.DuplicateSectionError as e:
        raise EewsimError(f"line {e.lineno}: duplicate section [{e.section}]") from None
    except configparser.DuplicateOptionError as e:
        raise EewsimError(f"line {e.lineno}: duplicate key [{e.section}] {e.option}") from None
    except configparser.MissingSectionHeaderError as e:
        raise EewsimError(
            f"line {e.lineno}: expected a [section] header, got {e.line.strip()!r}"
        ) from None
    except configparser.ParsingError as e:
        lineno = e.errors[0][0]
        raise EewsimError(
            f"line {lineno}: expected 'key = value', got {lines[lineno - 1].strip()!r}"
        ) from None
    for section in parser.sections():
        if section not in _KEYS:
            raise EewsimError(f"unknown section [{section}]")
        for key, value in parser.items(section):
            if key not in _KEYS[section]:
                raise EewsimError(f"unknown key [{section}] {key}")
            if "\n" in value:
                raise EewsimError(
                    f"[{section}] {key}: an indented line continues its value, got {value!r}"
                )
    return parser


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration file.

    Every error is an EewsimError that names the file once (see
    ``geo.read_input``).
    """
    path = Path(path)
    return read_input(path, "config", lambda fh: _parse(fh, path.resolve().parent))


def _parse(fh: IO[str], base: Path) -> RunConfig:
    p = _read_ini(fh)

    def path_of(section: str, key: str, default=None) -> Path | None:
        raw = _value(p, section, key, str, default)
        return None if raw is None else base / raw  # an absolute raw path stays as is

    epicenter = GeoPoint(_value(p, "scenario", "epicenter_lat", float, _REQUIRED),
                         _value(p, "scenario", "epicenter_lon", float, _REQUIRED))
    catalog_path = path_of("catalog", "path")
    synth_n = _value(p, "catalog", "synth_n", int, lo=1)
    if catalog_path is not None and synth_n is not None:
        raise EewsimError("[catalog] give either path or synth_n, not both")
    if catalog_path is None and synth_n is None:
        raise EewsimError("[catalog] needs a path or a synth_n")

    return RunConfig(
        earthquake=_params(p, "scenario", Earthquake, epicenter=epicenter),
        velocity=_params(p, "scenario", VelocityModel),
        phone=_params(p, "phone", PhoneParams),
        detector=_params(p, "detector", DetectorParams),
        alert=_params(p, "alert", AlertParams),
        population_grid=path_of("inputs", "population_grid", _REQUIRED),
        mmi_grid=path_of("inputs", "mmi_grid", _REQUIRED),
        catalog_path=catalog_path,
        synth_n=synth_n,
        synth_seed=_value(p, "catalog", "synth_seed", int, 0, lo=0),
        n_grid=_value(p, "campaign", "n_grid", _parse_n_grid, DEFAULT_N_GRID),
        replicas=_value(p, "campaign", "replicas", int, DEFAULT_REPLICAS, lo=1),
        master_seed=_value(p, "campaign", "master_seed", int, 0, lo=0, hi=2**64, hi_open=True),
        mmi_bins=_value(p, "warning", "mmi_bins", _parse_bins, DEFAULT_MMI_BINS),
        hist_width_s=_value(p, "warning", "hist_width_s", float, 1.0, lo=0, lo_open=True),
        density_bandwidth_deg=_value(p, "density", "bandwidth_deg", _parse_bandwidth),
        out_dir=path_of("output", "directory", "out"),
    )


def apply_overrides(
    cfg: RunConfig,
    seed: int | None = None,
    out: str | Path | None = None,
    replicas: int | None = None,
) -> RunConfig:
    """Fold command-line overrides into a loaded config."""
    if seed is not None:
        cfg = replace(cfg, master_seed=in_range("--seed", seed, 0, 2**64, hi_open=True))
    if out is not None:
        cfg = replace(cfg, out_dir=Path(out))
    if replicas is not None:
        cfg = replace(cfg, replicas=in_range("--replicas", replicas, 1))
    return cfg
