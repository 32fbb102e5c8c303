"""End-to-end command tests on a small synthetic scenario."""

import csv
import os
from pathlib import Path

import numpy as np
import pytest

import eewsim.cli
import eewsim.geo
import eewsim.warning
from eewsim.cli import main
from eewsim.errors import EewsimError
from eewsim.geo import format_ascii_grid, parse_ascii_grid
from eewsim.montecarlo import RUNS_HEADER
from testutil import make_grid

POP = """\
ncols 3
nrows 3
xllcorner -73.0
yllcorner 18.0
cellsize 0.2
NODATA_value -9999
100 400 100
400 2000 400
100 400 -9999
"""

MMI = """\
ncols 3
nrows 3
xllcorner -73.0
yllcorner 18.0
cellsize 0.2
NODATA_value -9999
7.6 7.9 7.6
8.2 8.8 8.2
7.6 7.9 7.6
"""

CONFIG = """\
[scenario]
epicenter_lat = 18.3
epicenter_lon = -72.7
depth_km = 5.0
magnitude = 7.0

[inputs]
population_grid = pop.asc
mmi_grid = mmi.asc

[catalog]
synth_n = 40

[detector]
k_min = 3
window_s = 10.0

[campaign]
n_grid = 10
replicas = 5
master_seed = 77

[output]
directory = out
"""
APPENDED = len(CONFIG.splitlines()) + 1  # the number of a line added after CONFIG


@pytest.fixture
def rundir(tmp_path):
    (tmp_path / "pop.asc").write_text(POP, encoding="utf-8")
    (tmp_path / "mmi.asc").write_text(MMI, encoding="utf-8")
    (tmp_path / "run.ini").write_text(CONFIG, encoding="utf-8")
    return tmp_path


def run(rundir, *argv):
    return main([*argv, "--config", str(rundir / "run.ini"), "--quiet"])


def read(rundir, name):
    return (rundir / "out" / name).read_text(encoding="utf-8")


def snapshot(out):
    """Every file in ``out``, hidden ones included, by name with its bytes."""
    return {p.name: p.read_bytes() for p in out.iterdir()}


class TestExposure:
    def test_writes_csv(self, rundir):
        assert run(rundir, "exposure") == 0
        lines = read(rundir, "exposure.csv").splitlines()
        assert lines[0] == "mmi_bin,population,exceedance_fraction"
        assert len(lines) == 4  # three default bins

    def test_hand_enumerated_totals(self, rundir):
        assert run(rundir, "exposure") == 0
        body = read(rundir, "exposure.csv")
        # cells at MMI 7.6/7.9: 100+400+100+100+400 (the nodata pop cell at
        # MMI 7.6 is excluded); 8.2 cells: 400+400; 8.8 cell: 2000
        assert '"(7.5,8]",1100.0' in body
        assert '"(8,8.5]",800.0' in body
        assert '"(8.5,9]",2000.0' in body
        # exceedance at 8.0 covers the 8.2 and 8.8 cells: 2800 / 3900
        assert f'"(8,8.5]",800.0,{2800 / 3900!r}' in body

    def test_missing_mmi_file_exit_2(self, rundir, capsys):
        (rundir / "mmi.asc").unlink()
        assert run(rundir, "exposure") == 2
        assert "mmi.asc" in capsys.readouterr().err

    def test_bin_labels_keep_every_digit(self, rundir):
        # ':g' alone labelled the second bin "(7.5,7.5]"
        bins = "(7.0,7.5000001] (7.5000001,7.5000002]"
        (rundir / "run.ini").write_text(CONFIG + f"\n[warning]\nmmi_bins = {bins}\n",
                                        encoding="utf-8")
        assert run(rundir, "exposure") == 0
        rows = list(csv.reader(read(rundir, "exposure.csv").splitlines()[1:]))
        assert [r[0] for r in rows] == ["(7,7.5000001]", "(7.5000001,7.5000002]"]

    def test_uniform_mmi_single_row_nonzero(self, tmp_path):
        (tmp_path / "pop.asc").write_text(POP, encoding="utf-8")
        uniform = make_grid(np.full((3, 3), 8.0), xll=-73.0, yll=18.0, cellsize=0.2)
        (tmp_path / "mmi.asc").write_text(format_ascii_grid(uniform), encoding="utf-8")
        (tmp_path / "run.ini").write_text(CONFIG, encoding="utf-8")
        assert run(tmp_path, "exposure") == 0
        rows = [l for l in read(tmp_path, "exposure.csv").splitlines()[1:]]
        populations = [float(r.split('",')[1].split(",")[0]) for r in rows]
        assert sum(1 for p in populations if p > 0) == 1


class TestSynth:
    def test_rows_and_determinism(self, rundir):
        assert run(rundir, "synth") == 0
        first = read(rundir, "catalog.csv")
        assert first.splitlines()[0] == "lat,lon"
        assert len(first.splitlines()) == 41
        assert run(rundir, "synth") == 0
        assert read(rundir, "catalog.csv") == first

    def test_all_zero_population_exit_2(self, rundir, capsys):
        zero = make_grid(np.zeros((2, 2)), xll=-73.0, yll=18.0, cellsize=0.2)
        (rundir / "pop.asc").write_text(format_ascii_grid(zero), encoding="utf-8")
        assert run(rundir, "synth") == 2
        assert "population" in capsys.readouterr().err


class TestSimulate:
    def test_row_accounting(self, rundir):
        assert run(rundir, "simulate") == 0
        assert len(read(rundir, "runs.csv").splitlines()) == 1 + 5
        assert len(read(rundir, "summary.csv").splitlines()) == 1 + 1
        assert (rundir / "out" / "density_n10.asc").is_file()

    def test_rerun_byte_identical(self, rundir):
        assert run(rundir, "simulate") == 0
        first = snapshot(rundir / "out")
        assert run(rundir, "simulate") == 0
        second = snapshot(rundir / "out")
        assert first == second

    def test_seed_override_changes_outputs(self, rundir):
        assert run(rundir, "simulate") == 0
        first = read(rundir, "runs.csv")
        assert run(rundir, "simulate", "--seed", "78") == 0
        assert read(rundir, "runs.csv") != first

    def test_n_too_large_exit_2_no_partial_outputs(self, rundir, capsys):
        cfg = CONFIG.replace("n_grid = 10", "n_grid = 10000")
        (rundir / "run.ini").write_text(cfg, encoding="utf-8")
        assert run(rundir, "simulate") == 2
        assert "catalog" in capsys.readouterr().err
        out = rundir / "out"
        assert not out.exists() or not any(out.iterdir())

    def test_undetectable_n_skips_its_density_grid(self, rundir, capsys):
        # three phones can never give k_min = 5 triggers, so no n=3 replica detects
        cfg = CONFIG.replace("k_min = 3", "k_min = 5").replace("n_grid = 10", "n_grid = 3,10")
        (rundir / "run.ini").write_text(cfg, encoding="utf-8")
        assert main(["simulate", "--config", str(rundir / "run.ini")]) == 0
        assert "n=3: no detections, skipping density grid" in capsys.readouterr().err.splitlines()
        assert not (rundir / "out" / "density_n3.asc").exists()
        assert (rundir / "out" / "density_n10.asc").is_file()
        summary = read(rundir, "summary.csv").splitlines()
        assert summary[1] == "3,5,0.0,,,,,,"
        assert summary[2].startswith("10,5,")

    def test_density_grid_normalized(self, rundir):
        assert run(rundir, "simulate") == 0
        g = parse_ascii_grid(read(rundir, "density_n10.asc"))
        assert g.values.sum() * g.cell_area_deg2 == pytest.approx(1.0, abs=1e-3)


class TestWarn:
    def test_missing_runs_exit_2(self, rundir, capsys):
        assert run(rundir, "warn") == 2
        assert "runs.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", ["", "10,0,true,nan,1.5,18.3,-72.7\n"])
    def test_unusable_runs_exit_2(self, rundir, capsys, rows):
        out = rundir / "out"
        out.mkdir()
        (out / "runs.csv").write_text(
            "n,replica,detected,delay_s,distance_km,det_lat,det_lon\n" + rows, encoding="utf-8"
        )
        assert run(rundir, "warn") == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "runs.csv" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["runs.csv"]

    @pytest.mark.parametrize("body, message", [
        ("\n\n10,0,true,3.25,7.5,18.1\n", "line 4: cannot parse '10,0,true,3.25,7.5,18.1'"),
        ("10,x,false,,,,\n", "line 2: cannot parse '10,x,false,,,,'"),
        ("10,0,true,,1.5,18.3,-72.7\n", "line 2: cannot parse '10,0,true,,1.5,18.3,-72.7'"),
        ("10,0,true,2.0,1.5,95,-72.7\n", "line 2: det_lat must be in [-90, 90], got 95.0"),
        ("10,0,false,2.0,,,\n", "line 2: undetected row carries metrics in '10,0,false,2.0,,,'"),
        ("10,0,false,,,,\n\n10,0,false,,,,\n", "line 4: n=10 replica=0 repeats line 2"),
    ])
    def test_bad_runs_row_names_file_and_line(self, rundir, capsys, body, message):
        out = rundir / "out"
        out.mkdir()
        path = out / "runs.csv"
        path.write_text(RUNS_HEADER + "\n" + body, encoding="utf-8")
        assert run(rundir, "warn") == 2
        assert capsys.readouterr().err == f"error: {path}: runs.csv {message}\n"
        assert sorted(p.name for p in out.iterdir()) == ["runs.csv"]

    def test_outputs(self, rundir):
        assert run(rundir, "simulate") == 0
        assert run(rundir, "warn") == 0
        hist = read(rundir, "warning_hist.csv").splitlines()
        assert hist[0] == "bin,edge_lo_s,edge_hi_s,population"
        vs_n = read(rundir, "warning_vs_n.csv").splitlines()
        assert vs_n[0] == "n,bin,stat,value_s,band_lo_s,band_hi_s"
        assert len(vs_n) == 1 + 3 * 3  # one n, three bins, three stats

    def test_failure_leaves_outputs_untouched(self, rundir, capsys, monkeypatch):
        # warning_vs_n.csv is staged by then; the histogram then fails
        assert run(rundir, "simulate") == 0
        out = rundir / "out"
        before = snapshot(out)

        def fail(*args, **kwargs):
            raise EewsimError("warning_stats failed")

        monkeypatch.setattr(eewsim.warning, "warning_stats", fail)
        assert run(rundir, "warn") == 2
        assert capsys.readouterr().err.startswith("error:")
        assert snapshot(out) == before

    def test_density_bandwidth_does_not_reach_warn(self, rundir):
        # warn reads no density kernel, so a bandwidth that underflows it
        # changes nothing
        assert run(rundir, "simulate") == 0
        assert run(rundir, "warn") == 0
        before = snapshot(rundir / "out")
        (rundir / "run.ini").write_text(CONFIG + "\n[density]\nbandwidth_deg = 1e-6\n",
                                        encoding="utf-8")
        assert run(rundir, "warn") == 0
        assert snapshot(rundir / "out") == before

    def test_runs_no_density_kernel(self, rundir, monkeypatch):
        assert run(rundir, "simulate") == 0

        def fail(*args, **kwargs):
            raise AssertionError("warn ran the density kernel")

        monkeypatch.setattr(eewsim.warning, "detection_density", fail)
        assert run(rundir, "warn") == 0

    def test_samples_mmi_once(self, rundir, monkeypatch):
        assert run(rundir, "simulate") == 0
        calls = []
        match_cells = eewsim.warning.match_cells

        def counting(*args):
            calls.append(args)
            return match_cells(*args)

        monkeypatch.setattr(eewsim.warning, "match_cells", counting)
        assert run(rundir, "warn") == 0
        assert len(calls) == 1

    def test_all_matches_cells_once(self, rundir, monkeypatch):
        # exposure and warn share one match of the population cells to the
        # intensity grid
        calls = []
        sample_values = eewsim.geo.sample_values

        def counting(*args):
            calls.append(args)
            return sample_values(*args)

        monkeypatch.setattr(eewsim.geo, "sample_values", counting)
        assert run(rundir, "all") == 0
        assert len(calls) == 1

    def test_empty_bin_emits_population_zero_row(self, rundir):
        cfg = CONFIG + "\n[warning]\nmmi_bins = (7.5,8] (11,12]\n"
        (rundir / "run.ini").write_text(cfg, encoding="utf-8")
        assert run(rundir, "simulate") == 0
        assert run(rundir, "warn") == 0
        assert '"(11,12]",,,0.0' in read(rundir, "warning_hist.csv")

    def test_latency_shift_metamorphic(self, rundir):
        assert run(rundir, "simulate") == 0
        assert run(rundir, "warn") == 0
        base = read(rundir, "warning_vs_n.csv")
        cfg = CONFIG + "\n[alert]\ndissemination_latency_s = 1.0\n"
        (rundir / "run.ini").write_text(cfg, encoding="utf-8")
        assert run(rundir, "warn") == 0
        shifted = read(rundir, "warning_vs_n.csv")

        rows_a = base.splitlines()[1:]
        rows_b = shifted.splitlines()[1:]
        for a, b in zip(rows_a, rows_b):
            head_a, tail_a = a.rsplit(",", 3)[0], a.split(",")[-3:]
            head_b, tail_b = b.rsplit(",", 3)[0], b.split(",")[-3:]
            assert head_a == head_b
            for va, vb in zip(tail_a, tail_b):
                if va == "":
                    assert vb == ""
                else:
                    assert float(vb) == pytest.approx(float(va) - 1.0, abs=1e-9)


class TestAll:
    def test_full_pipeline_and_determinism(self, rundir):
        assert run(rundir, "all") == 0
        # the exact listing also shows that no hidden temp file is left
        names = sorted(p.name for p in (rundir / "out").iterdir())
        assert names == [
            "catalog.csv", "density_n10.asc", "exposure.csv", "runs.csv",
            "summary.csv", "warning_hist.csv", "warning_vs_n.csv",
        ]
        first = snapshot(rundir / "out")
        assert run(rundir, "all") == 0
        second = snapshot(rundir / "out")
        assert first == second

    def test_equals_its_parts(self, rundir):
        assert main(["all", "--config", str(rundir / "run.ini"), "--out",
                     str(rundir / "whole"), "--quiet"]) == 0
        for command in ("exposure", "synth", "simulate", "warn"):
            assert main([command, "--config", str(rundir / "run.ini"), "--out",
                         str(rundir / "parts"), "--quiet"]) == 0
        whole = snapshot(rundir / "whole")
        parts = snapshot(rundir / "parts")
        assert len(whole) == 7
        assert whole == parts

    def test_parses_each_raster_once(self, rundir, monkeypatch):
        sources = []

        def counting(fh):
            sources.append(Path(fh.name).name)
            return parse_ascii_grid(fh)

        def no_catalog_read(*args, **kwargs):
            raise AssertionError("the synthesized catalog was read back from CSV")

        def no_runs_read(*args, **kwargs):
            raise AssertionError("the campaign's replicas were read back from runs.csv")

        monkeypatch.setattr(eewsim.cli, "parse_ascii_grid", counting)
        monkeypatch.setattr(eewsim.cli, "load_catalog", no_catalog_read)
        monkeypatch.setattr(eewsim.cli, "read_runs_csv", no_runs_read)
        assert run(rundir, "all") == 0
        assert sources == ["mmi.asc", "pop.asc"]
        sources.clear()
        assert run(rundir, "simulate") == 0
        assert sources == ["pop.asc"]

    def test_out_override(self, rundir, tmp_path):
        other = tmp_path / "custom_out"
        assert main(["all", "--config", str(rundir / "run.ini"), "--out", str(other),
                     "--quiet"]) == 0
        assert (other / "runs.csv").is_file()

    def test_replicas_override(self, rundir):
        assert main(["simulate", "--config", str(rundir / "run.ini"), "--replicas", "3",
                     "--quiet"]) == 0
        assert len(read(rundir, "runs.csv").splitlines()) == 1 + 3


class TestAtomicOutputs:
    """A command's outputs appear together or not at all."""

    @pytest.mark.parametrize("error, code", [(EewsimError, 2), (RuntimeError, 1)])
    @pytest.mark.parametrize("module, name", [
        (eewsim.cli, "exposure_histogram"),
        (eewsim.cli, "synth_catalog"),
        (eewsim.cli, "run_campaign"),
        (eewsim.warning, "warning_vs_n"),
        (eewsim.warning, "warning_stats"),
    ])
    def test_failed_all_keeps_previous_outputs(self, rundir, monkeypatch, module, name,
                                               error, code):
        assert run(rundir, "all") == 0
        out = rundir / "out"
        before = snapshot(out)
        # a new seed and a denser city centre change every output of the rerun
        (rundir / "pop.asc").write_text(POP.replace(" 2000 ", " 2500 "), encoding="utf-8")

        def fail(*args, **kwargs):
            raise error(f"{name} failed")

        with monkeypatch.context() as m:
            m.setattr(module, name, fail)
            assert run(rundir, "all", "--seed", "78") == code
        assert snapshot(out) == before
        assert run(rundir, "all", "--seed", "78") == 0
        after = snapshot(out)
        assert after.keys() == before.keys()
        assert all(after[k] != before[k] for k in before)

    def test_failed_simulate_rerun_keeps_previous_outputs(self, rundir, capsys):
        assert run(rundir, "simulate") == 0
        out = rundir / "out"
        before = snapshot(out)
        (rundir / "run.ini").write_text(CONFIG + "\n[density]\nbandwidth_deg = 1e-6\n",
                                        encoding="utf-8")
        assert run(rundir, "simulate", "--seed", "78") == 2
        assert "bandwidth 1e-06" in capsys.readouterr().err
        assert snapshot(out) == before

    def test_failed_first_run_leaves_no_directory(self, rundir):
        (rundir / "run.ini").write_text(CONFIG + "\n[density]\nbandwidth_deg = 1e-6\n",
                                        encoding="utf-8")
        fresh = rundir / "fresh"
        assert main(["all", "--config", str(rundir / "run.ini"), "--out", str(fresh / "out"),
                     "--quiet"]) == 2
        assert not fresh.exists()

    def test_first_run_keeps_its_directories(self, rundir):
        out = rundir / "fresh" / "out"
        assert main(["all", "--config", str(rundir / "run.ini"), "--out", str(out),
                     "--quiet"]) == 0
        assert len(snapshot(out)) == 7

    def test_failed_commit_leaves_no_temp_file(self, rundir, monkeypatch, capsys):
        replace = os.replace
        calls = []

        def replace_once(src, dst):
            calls.append(dst)
            if len(calls) > 1:
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_once)
        assert run(rundir, "simulate") == 2
        assert "disk full" in capsys.readouterr().err
        assert sorted(p.name for p in (rundir / "out").iterdir()) == ["runs.csv"]


class TestBadConfig:
    def test_config_error_exit_2(self, rundir, capsys):
        (rundir / "run.ini").write_text("[scenario]\n", encoding="utf-8")
        assert run(rundir, "simulate") == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_population_rejected(self, rundir, capsys):
        bad = make_grid([[5.0, -2.0]], xll=-73.0, yll=18.0, cellsize=0.2)
        (rundir / "pop.asc").write_text(format_ascii_grid(bad), encoding="utf-8")
        assert run(rundir, "exposure") == 2
        assert capsys.readouterr().err == (
            f"error: {rundir / 'pop.asc'}: population grid value must be in [0, 9007199254740992], got -2.0\n"
        )

    def test_subnormal_population_rejected(self, rundir, capsys):
        bad = make_grid([[5.0, 5e-324]], xll=-73.0, yll=18.0, cellsize=0.2)
        (rundir / "pop.asc").write_text(format_ascii_grid(bad), encoding="utf-8")
        assert run(rundir, "exposure") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "pop.asc" in err[0] and "subnormal" in err[0]
        assert not (rundir / "out").exists()

    def test_negative_synth_seed_exit_2(self, rundir, capsys):
        (rundir / "run.ini").write_text(CONFIG.replace("synth_n = 40", "synth_n = 40\nsynth_seed = -1"),
                                        encoding="utf-8")
        assert run(rundir, "synth") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "synth_seed" in err[0]
        assert not (rundir / "out").exists()

    def test_off_scale_mmi_rejected(self, rundir, capsys):
        bad = make_grid([[14.0]], xll=-73.0, yll=18.0, cellsize=0.2)
        (rundir / "mmi.asc").write_text(format_ascii_grid(bad), encoding="utf-8")
        assert run(rundir, "exposure") == 2
        assert capsys.readouterr().err == (
            f"error: {rundir / 'mmi.asc'}: MMI grid value must be in [0, 12], got 14.0\n"
        )

    def test_non_utf8_catalog_exit_2(self, rundir, capsys):
        (rundir / "run.ini").write_text(CONFIG.replace("synth_n = 40", "path = cat.csv"),
                                        encoding="utf-8")
        good = b"".join(b"18.%d,-72.%d\n" % (k, k) for k in range(1000, 3000))
        (rundir / "cat.csv").write_bytes(b"lat,lon\n" + good + b"18.4,-72.\xff\n" + good)
        assert run(rundir, "simulate") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "cat.csv" in err[0] and "UTF-8" in err[0]
        assert err[0].endswith(": not UTF-8 text (byte 0xff: invalid start byte)")
        assert not (rundir / "out" / "runs.csv").exists()

    @pytest.mark.parametrize("name", ["pop.asc", "mmi.asc", "out/runs.csv"])
    def test_non_utf8_input_exit_2(self, rundir, capsys, name):
        # each input file gives the same message, naming the file and the byte
        assert run(rundir, "simulate") == 0
        path = rundir / name
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2] + b"\xff" + data[len(data) // 2:])
        before = snapshot(rundir / "out")
        capsys.readouterr()
        assert run(rundir, "warn") == 2
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text (byte 0xff: invalid start byte)\n"
        )
        assert snapshot(rundir / "out") == before

    def test_bad_catalog_row_names_file_once_and_line(self, rundir, capsys):
        (rundir / "run.ini").write_text(CONFIG.replace("synth_n = 40", "path = cat.csv"),
                                        encoding="utf-8")
        path = rundir / "cat.csv"
        path.write_text("lat,lon\n18.3,-72.7\n\n18.4\n", encoding="utf-8")
        assert run(rundir, "simulate") == 2
        assert capsys.readouterr().err == (
            f"error: {path}: catalog line 4: expected 'lat,lon', got '18.4'\n"
        )
        assert not (rundir / "out").exists()

    def test_non_utf8_config_exit_2(self, rundir, capsys):
        (rundir / "run.ini").write_bytes(CONFIG.encode() + b"# caf\xe9\n")
        assert run(rundir, "exposure") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "run.ini" in err[0] and "UTF-8" in err[0]
        assert err[0].endswith(": not UTF-8 text (byte 0xe9: invalid continuation byte)")

    @pytest.mark.parametrize("text, message", [
        (CONFIG + "[scenario]\n", f"line {APPENDED}: duplicate section [scenario]"),
        (CONFIG.replace("depth_km = 5.0\n", "depth_km = 5.0\ndepth_km = 6.0\n"),
         "line 5: duplicate key [scenario] depth_km"),
        ("garbage\n" + CONFIG, "line 1: expected a [section] header, got 'garbage'"),
        (CONFIG + "junk line\n", f"line {APPENDED}: expected 'key = value', got 'junk line'"),
        (CONFIG.replace("epicenter_lat = 18.3", "epicenter_lat = 91"),
         "latitude must be in [-90, 90], got 91.0"),
        (CONFIG.replace("epicenter_lon = -72.7", "epicenter_lon = inf"),
         "longitude must be finite, got inf"),
        (CONFIG.replace("depth_km = 5.0", "depth_km = 5%"),
         "[scenario] depth_km must be a number, got '5%'"),
        ("[DEFAULT]\nk_min = 3\n" + CONFIG, "unknown section [DEFAULT]"),
        ("[DEFAULT]\n" + CONFIG, "unknown section [DEFAULT]"),
        (CONFIG.replace("mmi_grid = mmi.asc\n", "mmi_grid = mmi.asc\n  extra\n"),
         "[inputs] mmi_grid: an indented line continues its value, got 'mmi.asc\\nextra'"),
    ], ids=["duplicate-section", "duplicate-key", "no-header", "junk-line", "latitude-91",
            "longitude-inf", "percent-in-number", "default-section", "empty-default-section",
            "continuation-line"])
    def test_config_error_names_file_once(self, rundir, capsys, text, message):
        path = rundir / "run.ini"
        path.write_text(text, encoding="utf-8")
        assert run(rundir, "exposure") == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (rundir / "out").exists()

    def test_percent_in_catalog_path_loads_that_file(self, rundir):
        (rundir / "run.ini").write_text(CONFIG.replace("synth_n = 40", "path = cat%1.csv"),
                                        encoding="utf-8")
        (rundir / "cat%1.csv").write_text(
            "lat,lon\n" + "".join(f"18.{k},-72.{k}\n" for k in range(10, 50)), encoding="utf-8")
        assert run(rundir, "simulate") == 0
        assert read(rundir, "runs.csv").count("\n") == 6  # header and five replicas

    @pytest.mark.parametrize("section, key", [
        ("phone", "delay_hi_s"),
        ("warning", "hist_width_s"),
        ("alert", "dissemination_latency_s"),
        ("scenario", "v_p_km_s"),
        ("density", "bandwidth_deg"),
    ])
    def test_infinite_parameter_exit_2(self, rundir, capsys, section, key):
        # each once gave a traceback or wrote nan, -inf or instant-P outputs
        header = f"[{section}]\n"
        text = CONFIG if header in CONFIG else CONFIG + "\n" + header
        (rundir / "run.ini").write_text(text.replace(header, f"{header}{key} = inf\n"),
                                        encoding="utf-8")
        assert run(rundir, "all") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "run.ini" in err[0]
        assert not (rundir / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "all"])
    def test_underflowed_kernel_exit_2(self, rundir, capsys, command):
        (rundir / "run.ini").write_text(CONFIG + "\n[density]\nbandwidth_deg = 1e-6\n",
                                        encoding="utf-8")
        assert run(rundir, command) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "bandwidth 1e-06" in err[0]
