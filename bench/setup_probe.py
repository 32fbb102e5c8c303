"""Set-up cost every eewsim command pays, in a fresh interpreter.

Imports eewsim, loads the config, parses and checks both grids and builds
the catalog (read from CSV or synthesized), then prints what it built so
the caller can verify the work was done::

    python3 bench/setup_probe.py <run.ini>
"""

import json
import sys

import eewsim
from eewsim.config import load_config
from eewsim.geo import check_mmi_grid, check_population_grid, parse_ascii_grid
from eewsim.network import load_catalog, synth_catalog


def main(config_path: str) -> None:
    cfg = load_config(config_path)
    with open(cfg.population_grid, encoding="utf-8") as fh:
        pop = check_population_grid(parse_ascii_grid(fh))
    with open(cfg.mmi_grid, encoding="utf-8") as fh:
        mmi = check_mmi_grid(parse_ascii_grid(fh))
    if cfg.catalog_path is not None:
        with open(cfg.catalog_path, encoding="utf-8") as fh:
            catalog = load_catalog(fh, origin=str(cfg.catalog_path))
    else:
        catalog = synth_catalog(pop, cfg.synth_n, cfg.synth_seed)
    print(json.dumps({
        "eewsim": eewsim.__file__,
        "pop": [pop.nrows, pop.ncols],
        "mmi": [mmi.nrows, mmi.ncols],
        "catalog": len(catalog),
    }))


if __name__ == "__main__":
    main(sys.argv[1])
