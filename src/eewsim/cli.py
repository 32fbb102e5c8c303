"""Command-line front end for reproducible batch runs.

Every command is a pure function of (config file, input files,
master_seed): reruns produce byte-identical outputs. Exit codes: 0 success,
1 internal error, 2 invalid input or configuration, or a run whose arrays
do not fit in memory (``MemoryError``).

A command's outputs appear together or not at all. Each output goes to a
hidden temp file beside its target (``.<name>.tmp``) as soon as it is
built; only once the command has returned does one ``os.replace`` per
output move them into place. A command that fails leaves every file in the
output directory as it was, and removes the directories it created. A crash
between two ``os.replace`` calls is out of scope.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import montecarlo, warning
from .config import RunConfig, apply_overrides, load_config
from .errors import EewsimError
from .geo import (
    Grid,
    check_mmi_grid,
    check_population_grid,
    exposure_histogram,
    format_ascii_grid,
    format_csv,
    format_csv_columns,
    parse_ascii_grid,
    read_input,
)
from .montecarlo import read_runs_csv, run_campaign
from .network import Catalog, load_catalog, synth_catalog

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2


class _Run:
    """One command's inputs, each loaded at first use, and its staged outputs."""

    def __init__(self, cfg: RunConfig, quiet: bool):
        self.cfg = cfg
        self.quiet = quiet
        self.staged: list[str] = []
        self.created: list[Path] = []  # directories write() made, deepest first

    def say(self, message: str) -> None:
        if not self.quiet:
            print(message, file=sys.stderr)

    @cached_property
    def pop(self) -> Grid:
        return read_input(self.cfg.population_grid, "population grid",
                          lambda fh: check_population_grid(parse_ascii_grid(fh)))

    @cached_property
    def mmi(self) -> Grid:
        return read_input(self.cfg.mmi_grid, "MMI grid",
                          lambda fh: check_mmi_grid(parse_ascii_grid(fh)))

    @cached_property
    def catalog(self) -> Catalog:
        if self.cfg.catalog_path is None:
            return synth_catalog(self.pop, self.cfg.synth_n, self.cfg.synth_seed)
        return read_input(self.cfg.catalog_path, "catalog", load_catalog)

    @cached_property
    def runs(self) -> np.recarray:
        return read_input(self.cfg.out_dir / "runs.csv", "simulate output", read_runs_csv)

    def _temp(self, name: str) -> Path:
        return self.cfg.out_dir / f".{name}.tmp"

    def write(self, name: str, text: str) -> None:
        """Stage one output; commit() moves it into place."""
        out = self.cfg.out_dir
        if not out.is_dir():
            self.created = [d for d in (out, *out.parents) if not d.exists()]
            out.mkdir(parents=True)
        self.staged.append(name)
        with open(self._temp(name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)

    def commit(self) -> None:
        for name in self.staged:
            os.replace(self._temp(name), self.cfg.out_dir / name)
        self.say(f"wrote {len(self.staged)} files to {self.cfg.out_dir}")

    def discard(self) -> None:
        """Remove the temp files, and the directories write() made unless they hold an output."""
        for name in self.staged:
            self._temp(name).unlink(missing_ok=True)
        for d in self.created:
            if any(d.iterdir()):
                break
            d.rmdir()


def cmd_exposure(run: _Run) -> None:
    """Write exposure.csv: population per MMI bin plus the exceedance curve."""
    result = exposure_histogram(run.mmi, run.pop, run.cfg.mmi_bins)
    run.write("exposure.csv", format_csv(
        "mmi_bin,population,exceedance_fraction",
        ((b, p, result.exceedance(b.lo)) for b, p in zip(result.bins, result.populations)),
    ))
    run.say(f"built exposure.csv ({len(result.bins)} bins, matched population "
            f"{result.total_population:.0f})")


def cmd_synth(run: _Run) -> None:
    """Write a synthetic catalog CSV drawn from the population raster."""
    if run.cfg.synth_n is None:
        raise EewsimError("cmd synth needs a [catalog] synth_n in the config")
    # the CSV round trip is exact, so a later simulate takes this catalog as is
    cat = run.catalog
    run.write("catalog.csv", format_csv_columns(
        "lat,lon", [map(float.__repr__, cat.lats.tolist()), map(float.__repr__, cat.lons.tolist())]))
    run.say(f"built catalog.csv ({len(cat)} points)")


def cmd_simulate(run: _Run) -> None:
    """Run the campaign; write runs.csv, summary.csv and density grids."""
    cfg, pop, cat = run.cfg, run.pop, run.catalog
    if max(cfg.n_grid) > len(cat):
        raise EewsimError(
            f"n_grid contains {max(cfg.n_grid)} but the catalog holds only {len(cat)} points"
        )
    summaries, run.runs = run_campaign(
        cat, cfg.earthquake, cfg.velocity, cfg.phone, cfg.detector,
        cfg.n_grid, cfg.replicas, cfg.master_seed,
    )
    run.write("runs.csv", montecarlo.write_runs_csv(run.runs))
    run.write("summary.csv", montecarlo.write_summary_csv(summaries))

    for n in cfg.n_grid:
        mine = run.runs[run.runs.n == n]
        if not mine.detected.any():
            run.say(f"n={n}: no detections, skipping density grid")
            continue
        density = montecarlo.detection_density(mine, pop, cfg.density_bandwidth_deg)
        run.write(f"density_n{n}.asc", format_ascii_grid(density.grid))
    run.say(f"built runs.csv, summary.csv and density grids ({len(run.runs)} replicas "
            f"over {len(cfg.n_grid)} network sizes)")


def cmd_warn(run: _Run) -> None:
    """Derive warning-time outputs from an existing runs.csv."""
    cfg, runs = run.cfg, run.runs
    field = warning.warning_field(cfg.earthquake, cfg.velocity, run.mmi, run.pop, cfg.mmi_bins)
    rows = warning.warning_vs_n(runs, cfg.earthquake, cfg.alert, field)
    run.write("warning_vs_n.csv", warning.write_warning_vs_n_csv(rows))

    # single-detection histograms at the mean detection time of the largest n
    n_max = int(runs.n.max())
    delays = runs.delay_s[(runs.n == n_max) & runs.detected]
    if delays.size:
        time_s = cfg.earthquake.origin_time_s + montecarlo.mean(delays.tolist())
    else:
        time_s = None
        run.say(f"n={n_max}: no detections, writing empty warning_hist.csv")
    stats = warning.warning_stats(field, time_s, cfg.alert, cfg.hist_width_s)
    run.write("warning_hist.csv", warning.write_warning_hist_csv(stats))
    run.say("built warning_vs_n.csv and warning_hist.csv")


def cmd_all(run: _Run) -> None:
    """Full pipeline: exposure, synth (when configured), simulate, warn."""
    cmd_exposure(run)
    if run.cfg.synth_n is not None:
        cmd_synth(run)
    cmd_simulate(run)
    cmd_warn(run)


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
        run = _Run(cfg, args.quiet)
        try:
            _COMMANDS[args.command](run)
            run.commit()
        finally:
            run.discard()
    except (EewsimError, OSError, MemoryError) as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
