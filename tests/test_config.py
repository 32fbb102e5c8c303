import re
from configparser import ConfigParser
from pathlib import Path

import pytest

from eewsim import config
from eewsim.config import DEFAULT_N_GRID, apply_overrides, load_config
from eewsim.errors import EewsimError
from eewsim.geo import MmiBin

MINIMAL = """\
[scenario]
epicenter_lat = 18.457
epicenter_lon = -72.533
depth_km = 10.0

[inputs]
population_grid = pop.asc
mmi_grid = mmi.asc

[catalog]
synth_n = 100
"""


def write_config(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return path


def assert_rejected(tmp_path: Path, text: str, message: str) -> None:
    """load_config on ``text`` raises EewsimError saying exactly ``<path>: <message>``."""
    path = write_config(tmp_path, text)
    with pytest.raises(EewsimError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_config(path)


class TestLoadConfig:
    def test_minimal_with_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.earthquake.epicenter.lat == 18.457
        assert cfg.n_grid == DEFAULT_N_GRID
        assert cfg.replicas == 1000
        assert cfg.master_seed == 0
        assert cfg.mmi_bins == (MmiBin(7.5, 8.0), MmiBin(8.0, 8.5), MmiBin(8.5, 9.0))
        assert cfg.phone.p_detect == 0.7
        assert cfg.detector.k_min == 5
        assert cfg.density_bandwidth_deg is None
        assert cfg.out_dir == tmp_path / "out"

    def test_paths_resolved_relative_to_config(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.population_grid == tmp_path / "pop.asc"
        assert cfg.mmi_grid == tmp_path / "mmi.asc"

    def test_explicit_values(self, tmp_path):
        text = MINIMAL + """
[campaign]
n_grid = 10, 20, 30
replicas = 7
master_seed = 99

[warning]
mmi_bins = (6,7] (7,8]
hist_width_s = 0.5

[density]
bandwidth_deg = 0.05

[output]
directory = results
"""
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.n_grid == (10, 20, 30)
        assert cfg.replicas == 7
        assert cfg.master_seed == 99
        assert cfg.mmi_bins == (MmiBin(6.0, 7.0), MmiBin(7.0, 8.0))
        assert cfg.hist_width_s == 0.5
        assert cfg.density_bandwidth_deg == 0.05
        assert cfg.out_dir == tmp_path / "results"

    def test_missing_file(self, tmp_path):
        missing = tmp_path / "nope.ini"
        message = f"config file not found: {missing}"
        with pytest.raises(EewsimError, match=f"^{re.escape(message)}$"):
            load_config(missing)

    def test_missing_required_key(self, tmp_path):
        bad = MINIMAL.replace("epicenter_lat = 18.457\n", "")
        assert_rejected(tmp_path, bad, "missing required key [scenario] epicenter_lat")

    def test_unknown_key_rejected(self, tmp_path):
        assert_rejected(tmp_path, MINIMAL + "\n[phone]\ntypo = 1\n", "unknown key [phone] typo")

    def test_unknown_section_rejected(self, tmp_path):
        assert_rejected(tmp_path, MINIMAL + "\n[phones]\np_detect = 1\n",
                        "unknown section [phones]")

    def test_indented_comment_is_no_continuation(self, tmp_path):
        text = MINIMAL.replace("mmi_grid = mmi.asc\n", "mmi_grid = mmi.asc\n  # a note\n")
        assert load_config(write_config(tmp_path, text)).mmi_grid == tmp_path / "mmi.asc"

    def test_catalog_path_and_synth_conflict(self, tmp_path):
        text = MINIMAL.replace("synth_n = 100", "synth_n = 100\npath = cat.csv")
        assert_rejected(tmp_path, text, "[catalog] give either path or synth_n, not both")

    def test_catalog_required(self, tmp_path):
        text = MINIMAL.replace("[catalog]\nsynth_n = 100\n", "")
        assert_rejected(tmp_path, text, "[catalog] needs a path or a synth_n")

    def test_negative_synth_seed_rejected(self, tmp_path):
        text = MINIMAL.replace("synth_n = 100", "synth_n = 100\nsynth_seed = -1")
        assert_rejected(tmp_path, text, "[catalog] synth_seed must be >= 0, got -1")
        text = MINIMAL.replace("synth_n = 100", "synth_n = 100\nsynth_seed = 0")
        assert load_config(write_config(tmp_path, text)).synth_seed == 0

    def test_overlapping_bins_rejected(self, tmp_path):
        text = MINIMAL + "\n[warning]\nmmi_bins = (6,8] (7,9]\n"
        assert_rejected(tmp_path, text,
                        "[warning] mmi_bins: intensity bins (6,8] and (7,9] overlap")

    def test_duplicate_n_grid_rejected(self, tmp_path):
        text = MINIMAL + "\n[campaign]\nn_grid = 10, 10\n"
        assert_rejected(tmp_path, text, "[campaign] n_grid contains duplicates")

    def test_bad_number_diagnostic_names_key(self, tmp_path):
        text = MINIMAL.replace("depth_km = 10.0", "depth_km = ten")
        assert_rejected(tmp_path, text, "[scenario] depth_km must be a number, got 'ten'")

    @pytest.mark.parametrize("raw", ["cat%1.csv", "a%%b.csv", "%(x)s.csv"])
    def test_percent_is_literal(self, tmp_path, raw):
        # '%' once started configparser interpolation, and 'out%1' crashed
        text = MINIMAL.replace("synth_n = 100", f"path = {raw}")
        assert load_config(write_config(tmp_path, text)).catalog_path == tmp_path / raw

    def test_readme_lists_every_accepted_key(self):
        # the README's [Configuration] block is the key reference: a new
        # parameter field becomes a key, so it must appear there too
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"## Configuration\n.*?```ini\n(.*?)```", readme, re.S).group(1)
        doc = ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
        doc.read_string(block)
        documented = {(s, k) for s in doc.sections() for k in doc.options(s)}
        accepted = {(s, k) for s, keys in config._KEYS.items() for k in keys}
        assert documented == accepted


class TestOverrides:
    def test_overrides_apply(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        cfg = apply_overrides(cfg, seed=123, out=tmp_path / "elsewhere", replicas=5)
        assert cfg.master_seed == 123
        assert cfg.out_dir == tmp_path / "elsewhere"
        assert cfg.replicas == 5

    def test_bad_overrides(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        with pytest.raises(EewsimError, match=r"^--replicas must be >= 1, got 0$"):
            apply_overrides(cfg, replicas=0)
        with pytest.raises(EewsimError,
                           match=r"^--seed must be in \[0, 18446744073709551616\), got -1$"):
            apply_overrides(cfg, seed=-1)
