"""Command-line front end for reproducible batch runs.

Every command is a pure function of (config file, input files,
master_seed): reruns produce byte-identical outputs. Exit codes: 0 success,
1 internal error, 2 invalid input or configuration.
"""

from __future__ import annotations

import argparse
import io
import sys
import traceback
from pathlib import Path
from typing import Sequence

from . import montecarlo, warning
from .config import RunConfig, apply_overrides, load_config
from .errors import ConfigError, EewsimError, NoDetections, NTooLarge
from .geo import (
    Grid,
    check_mmi_grid,
    check_population_grid,
    exposure_histogram,
    format_ascii_grid,
    parse_ascii_grid,
)
from .montecarlo import read_runs_csv, run_campaign
from .network import Catalog, format_catalog, load_catalog, synth_catalog

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message, file=sys.stderr)


def _load_grid(path: Path, what: str, check=None) -> Grid:
    if not path.is_file():
        raise ConfigError(f"{what} file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            grid = parse_ascii_grid(fh)
        return check(grid) if check else grid
    except (EewsimError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from None


def _load_pop(cfg: RunConfig) -> Grid:
    return _load_grid(cfg.population_grid, "population grid", check_population_grid)


def _load_mmi(cfg: RunConfig) -> Grid:
    return _load_grid(cfg.mmi_grid, "MMI grid", check_mmi_grid)


def _load_or_synth_catalog(cfg: RunConfig, pop: Grid) -> Catalog:
    if cfg.catalog_path is not None:
        if not cfg.catalog_path.is_file():
            raise ConfigError(f"catalog file not found: {cfg.catalog_path}")
        with open(cfg.catalog_path, encoding="utf-8") as fh:
            try:
                return load_catalog(fh, origin=str(cfg.catalog_path))
            except UnicodeDecodeError as e:
                raise ConfigError(
                    f"{cfg.catalog_path}: not UTF-8 text (byte {e.object[e.start]:#x}: {e.reason})"
                ) from None
    return synth_catalog(pop, cfg.synth_n, cfg.synth_seed)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


class _OutputSet:
    """Track files written by one command so failures leave no partial run."""

    def __init__(self):
        self.paths: list[Path] = []

    def write(self, path: Path, text: str) -> None:
        _write_text(path, text)
        self.paths.append(path)

    def discard_all(self) -> None:
        for p in self.paths:
            try:
                p.unlink()
            except OSError:
                pass


def cmd_exposure(
    cfg: RunConfig, quiet: bool = False, mmi: Grid | None = None, pop: Grid | None = None
) -> None:
    """Write exposure.csv: population per MMI bin plus the exceedance curve."""
    mmi = _load_mmi(cfg) if mmi is None else mmi
    pop = _load_pop(cfg) if pop is None else pop
    result = exposure_histogram(mmi, pop, cfg.mmi_bins)
    lines = ["mmi_bin,population,exceedance_fraction"]
    for b, p in zip(result.bins, result.populations):
        lines.append(f'"{b}",{float(p)!r},{result.exceedance(b.lo)!r}')
    out = cfg.out_dir / "exposure.csv"
    _write_text(out, "\n".join(lines) + "\n")
    _say(quiet, f"wrote {out} ({len(result.bins)} bins, matched population "
                f"{result.total_population:.0f})")


def cmd_synth(cfg: RunConfig, quiet: bool = False, pop: Grid | None = None) -> Catalog:
    """Write a synthetic catalog CSV drawn from the population raster."""
    if cfg.synth_n is None:
        raise ConfigError("cmd synth needs a [catalog] synth_n in the config")
    pop = _load_pop(cfg) if pop is None else pop
    cat = synth_catalog(pop, cfg.synth_n, cfg.synth_seed)
    out = cfg.out_dir / "catalog.csv"
    _write_text(out, format_catalog(cat))
    _say(quiet, f"wrote {out} ({len(cat)} points)")
    return cat


def cmd_simulate(
    cfg: RunConfig,
    quiet: bool = False,
    catalog: Catalog | None = None,
    pop: Grid | None = None,
) -> None:
    """Run the campaign; write runs.csv, summary.csv and density grids."""
    pop = _load_pop(cfg) if pop is None else pop
    cat = catalog if catalog is not None else _load_or_synth_catalog(cfg, pop)
    if max(cfg.n_grid) > len(cat):
        raise NTooLarge(
            f"n_grid contains {max(cfg.n_grid)} but the catalog holds only {len(cat)} points"
        )

    outputs = _OutputSet()
    try:
        summaries, results = run_campaign(
            cat, cfg.earthquake, cfg.velocity, cfg.phone, cfg.detector,
            cfg.n_grid, cfg.replicas, cfg.master_seed,
        )
        buf = io.StringIO()
        montecarlo.write_runs_csv(buf, results)
        outputs.write(cfg.out_dir / "runs.csv", buf.getvalue())
        buf = io.StringIO()
        montecarlo.write_summary_csv(buf, summaries)
        outputs.write(cfg.out_dir / "summary.csv", buf.getvalue())

        for n in cfg.n_grid:
            subset = [r for r in results if r.n == n]
            try:
                density = montecarlo.detection_density(subset, pop, cfg.density_bandwidth_deg)
            except NoDetections:
                _say(quiet, f"n={n}: no detections, skipping density grid")
                continue
            outputs.write(cfg.out_dir / f"density_n{n}.asc", format_ascii_grid(density.grid))
    except BaseException:
        outputs.discard_all()
        raise
    _say(quiet, f"wrote {len(outputs.paths)} files to {cfg.out_dir} "
                f"({len(results)} replicas over {len(cfg.n_grid)} network sizes)")


def cmd_warn(
    cfg: RunConfig, quiet: bool = False, mmi: Grid | None = None, pop: Grid | None = None
) -> None:
    """Derive warning-time outputs from an existing runs.csv."""
    runs_path = cfg.out_dir / "runs.csv"
    if not runs_path.is_file():
        raise ConfigError(f"runs.csv not found in {cfg.out_dir}; run simulate first")
    with open(runs_path, encoding="utf-8") as fh:
        try:
            results = read_runs_csv(fh)
        except ValueError as e:
            raise ConfigError(f"{runs_path}: {e}") from None
    mmi = _load_mmi(cfg) if mmi is None else mmi
    pop = _load_pop(cfg) if pop is None else pop

    rows = warning.warning_vs_n(
        results, cfg.earthquake, cfg.velocity, cfg.alert, mmi, pop, cfg.mmi_bins
    )
    vs_n = io.StringIO()
    warning.write_warning_vs_n_csv(vs_n, rows)

    # single-detection histograms, conditioned on the expected detection
    # (density mode, mean detection time) at the largest simulated n
    n_max = max({r.n for r in results})
    try:
        det, _ = warning.mode_conditioned_detection(
            results, n_max, cfg.earthquake, pop, cfg.density_bandwidth_deg
        )
    except NoDetections:
        _say(quiet, f"n={n_max}: no detections, writing empty warning_hist.csv")
        stats = [
            warning.WarningStats(b, 0.0, None, None, None, ()) for b in cfg.mmi_bins
        ]
    else:
        w = warning.warning_field(det, cfg.earthquake, cfg.velocity, cfg.alert, pop)
        stats = warning.warning_stats(w, mmi, pop, cfg.mmi_bins, cfg.hist_width_s)
    hist = io.StringIO()
    warning.write_warning_hist_csv(hist, stats)
    # both tables are built before either is written: a failed step writes neither
    _write_text(cfg.out_dir / "warning_vs_n.csv", vs_n.getvalue())
    _write_text(cfg.out_dir / "warning_hist.csv", hist.getvalue())
    _say(quiet, f"wrote {cfg.out_dir / 'warning_vs_n.csv'} and "
                f"{cfg.out_dir / 'warning_hist.csv'}")


def cmd_all(cfg: RunConfig, quiet: bool = False) -> None:
    """Full pipeline: exposure, synth (when configured), simulate, warn."""
    # parse each raster once, in the order the stand-alone commands do
    mmi = _load_mmi(cfg)
    pop = _load_pop(cfg)
    cmd_exposure(cfg, quiet, mmi=mmi, pop=pop)
    # the CSV round trip is exact, so simulate takes the synthesized catalog as is
    catalog = cmd_synth(cfg, quiet, pop=pop) if cfg.synth_n is not None else None
    cmd_simulate(cfg, quiet, catalog=catalog, pop=pop)
    cmd_warn(cfg, quiet, mmi=mmi, pop=pop)


_COMMANDS = {
    "exposure": cmd_exposure,
    "synth": cmd_synth,
    "simulate": cmd_simulate,
    "warn": cmd_warn,
    "all": cmd_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eewsim",
        description="Monte Carlo simulator for smartphone-network earthquake early warning",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=(fn.__doc__ or "").splitlines()[0])
        p.add_argument("--config", required=True, help="path to the run configuration file")
        p.add_argument("--seed", type=int, default=None, help="override [campaign] master_seed")
        p.add_argument("--out", default=None, help="override [output] directory")
        p.add_argument("--replicas", type=int, default=None, help="override [campaign] replicas")
        p.add_argument("--quiet", action="store_true", help="suppress progress messages")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = apply_overrides(cfg, seed=args.seed, out=args.out, replicas=args.replicas)
        _COMMANDS[args.command](cfg, quiet=args.quiet)
    except (EewsimError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
