"""Tests of the benchmark itself: input generator, oracle and tracing wrappers.

    python3 -m pytest bench
"""

import importlib
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import oracle
import tracing
import workloads
from run import ROOT, SRC, child_env

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    w = workloads.WORKLOADS[name]
    a = workloads.write_inputs(w, 7, tmp_path / "a").parent
    b = workloads.write_inputs(w, 7, tmp_path / "b").parent
    c = workloads.write_inputs(w, 8, tmp_path / "c").parent
    assert oracle.digests(a) == oracle.digests(b)
    differs = {k for k, v in oracle.digests(a).items() if oracle.digests(c)[k] != v}
    assert {"pop.asc", "run.ini"} <= differs


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """Outputs of a small clean campaign: (workload, output dir, min P travel)."""
    w = replace(workloads.WORKLOADS["paper_grid"], n_grid=(300, 400), replicas=4)
    work = tmp_path_factory.mktemp("small")
    config = workloads.write_inputs(w, 5, work / "inputs")
    out = work / "out"
    subprocess.run(
        [sys.executable, "-m", "eewsim", "all", "--config", str(config), "--quiet", "--out", str(out)],
        env=child_env(), cwd=ROOT, check=True, timeout=120,
    )
    return w, out, oracle.min_p_travel_s(out / "catalog.csv")


def _copy(small_run, tmp_path):
    w, out, min_travel = small_run
    return w, shutil.copytree(out, tmp_path / "out"), min_travel


def _change_digit(text: str, start: int) -> str:
    """Replace the first digit at or after ``start`` with another digit."""
    i = next(k for k in range(start, len(text)) if text[k].isdigit())
    return text[:i] + str((int(text[i]) + 3) % 10) + text[i + 1:]


def test_oracle_accepts_clean_run(small_run):
    w, out, min_travel = small_run
    assert oracle.check_outputs(out, w, min_travel) == []


@pytest.mark.parametrize("column", ["delay_s", "distance_km", "det_lat", "det_lon"])
def test_oracle_flags_one_digit_in_runs_csv(small_run, tmp_path, column):
    w, out, min_travel = _copy(small_run, tmp_path)
    path = out / "runs.csv"
    lines = path.read_text().splitlines(keepends=True)
    row = next(k for k, ln in enumerate(lines) if ",true," in ln)
    fields = lines[row].split(",")
    col = oracle.RUNS_HEADER.index(column)
    fields[col] = _change_digit(fields[col], fields[col].index(".") - 1)
    lines[row] = ",".join(fields)
    path.write_text("".join(lines))
    assert oracle.check_outputs(out, w, min_travel)


def test_oracle_flags_one_density_cell(small_run, tmp_path):
    w, out, min_travel = _copy(small_run, tmp_path)
    path = out / "density_n300.asc"
    header, values = oracle.read_grid(path)
    peak = repr(float(values.max()))
    text = path.read_text()
    at = text.index(peak)
    path.write_text(text[:at] + _change_digit(peak, 0) + text[at + len(peak):])
    assert oracle.check_outputs(out, w, min_travel)


def test_fingerprint_tolerates_last_digits_only(small_run, tmp_path):
    _, out, _ = small_run
    ref = oracle.fingerprint(out)
    assert oracle.compare_fingerprints(ref, oracle.fingerprint(out)) == []

    nudged = oracle.fingerprint(out)
    nudged["runs.csv"]["delay_s"]["sum"] *= 1 + 1e-12
    assert oracle.compare_fingerprints(ref, nudged) == []
    nudged["runs.csv"]["delay_s"]["sum"] *= 1 + 1e-6
    assert oracle.compare_fingerprints(ref, nudged)

    moved = oracle.fingerprint(out)
    moved["density_n300.asc"]["mode"][1] += 1
    assert oracle.compare_fingerprints(ref, moved)


def test_every_trace_target_exists():
    for module_name, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_wrapped_functions_return_what_unwrapped_ones_do():
    from eewsim import detection, montecarlo, network, warning
    from eewsim.detection import DetectorParams, PhoneParams
    from eewsim.geo import GeoPoint
    from eewsim.scenario import Earthquake, VelocityModel

    tracer = tracing.Tracer()
    values, weights = np.linspace(-3.0, 9.0, 41), np.arange(41.0) % 5
    wp = tracer.wrap("warning.weighted_percentile", warning.weighted_percentile)
    assert wp(values, weights, 97.5) == warning.weighted_percentile(values, weights, 97.5)

    rng = np.random.default_rng(3)
    cat = network.Catalog(lats=18.0 + rng.random(500), lons=-73.0 + rng.random(500))
    seed = network.SeedSpec(master_seed=9, n=50, replica=2)
    sample = tracer.wrap("network.sample_network", network.sample_network, tracing._catalog_size)
    assert np.array_equal(sample(cat, 50, seed).catalog_indices,
                          network.sample_network(cat, 50, seed).catalog_indices)

    eq = Earthquake(epicenter=GeoPoint(18.457, -72.533), depth_km=10.0)
    args = (cat, eq, VelocityModel(), PhoneParams(), DetectorParams(), 50, 2, 9)
    replica = tracer.wrap("montecarlo.run_replica", montecarlo.run_replica)
    assert replica(*args) == montecarlo.run_replica(*args)

    net = network.sample_network(cat, 50, seed)
    triggers = detection.simulate_triggers(net, eq, VelocityModel(), PhoneParams(), seed)
    det = tracer.wrap("detection.detect", detection.detect, tracing._detect_usage)
    assert det(triggers, DetectorParams()) == detection.detect(triggers, DetectorParams())

    names = [s[0] for s in tracer.spans]
    assert names == ["warning.weighted_percentile", "network.sample_network",
                     "montecarlo.run_replica", "detection.detect"]
    assert tracer.spans[1][5] == 500 and tracer.spans[3][5][2] == len(triggers)


def test_self_time_subtracts_direct_children():
    spans = [
        {"name": "cli.main", "start": 0.0, "end": 10.0, "parent": -1, "run": 0, "count": None},
        {"name": "montecarlo.run_replica", "start": 1.0, "end": 5.0, "parent": 0, "run": 0, "count": None},
        {"name": "network.sample_network", "start": 1.5, "end": 2.5, "parent": 1, "run": 0, "count": 100},
        {"name": "detection.detect", "start": 3.0, "end": 4.0, "parent": 1, "run": 0, "count": [1, 2, 8]},
    ]
    m = tracing.layer_metrics(spans, traced_wall_s=12.5)
    assert m["montecarlo.run_replica.self_s"] == pytest.approx(2.0)
    assert m["network.sample_network.self_s"] == pytest.approx(1.0)
    assert m["cli.self_s"] == pytest.approx(6.0)
    assert m["network.sample_network.index_elems"] == 100
    assert m["detection.trigger_use_ratio"] == pytest.approx(0.25)
    assert m["trace.coverage"] == pytest.approx(0.8)
