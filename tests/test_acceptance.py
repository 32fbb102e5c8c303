"""Acceptance suite: one test per verification criterion.

Each test prints a single [PASS]/[FAIL] line (run with -s or check the
captured output) and asserts the criterion at its stated tolerance,
including runtime budgets. Statistical criteria run on the bundled
synthetic Haiti-like scenario with fixed master seeds, so the whole suite
is deterministic on a given platform.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

import eewsim
from eewsim.cli import main as cli_main
from eewsim.demo import write_demo
from eewsim.detection import DetectorParams, PhoneParams, detect, simulate_triggers
from eewsim.geo import GeoPoint, MmiBin, cell_center, parse_ascii_grid
from eewsim.montecarlo import detection_density, run_campaign, run_replica
from eewsim.network import Catalog, SeedSpec, sample_network
from eewsim.scenario import Earthquake, p_arrivals_s, s_arrival_s
from eewsim.warning import (
    AlertParams,
    mode_conditioned_detection,
    warning_field,
    warning_stats,
    warning_vs_n,
    weighted_percentile,
)
from testutil import detect_oracle, inv_cdf_percentile, make_grid, random_triggers

DEFAULT_BINS = (MmiBin(7.5, 8.0), MmiBin(8.0, 8.5), MmiBin(8.5, 9.0))


def report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} {name}: {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def campaign4(demo_catalog, demo_quake, vmodel):
    """Shared campaign for the monotonicity and ordering criteria."""
    t0 = time.perf_counter()
    summaries, results = run_campaign(
        demo_catalog, demo_quake, vmodel, PhoneParams(), DetectorParams(),
        [300, 600, 1200, 2400], 300, master_seed=4242,
    )
    return summaries, results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full in-process `all` run shared by criteria 9 and 10."""
    root = tmp_path_factory.mktemp("pipeline")
    config = write_demo(root, n_grid=(300, 1200), replicas=60)
    out1 = root / "out1"
    t0 = time.perf_counter()
    code = cli_main(["all", "--config", str(config), "--out", str(out1), "--quiet"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    return config, out1, elapsed


def test_criterion_01_trigger_rate_law(demo_catalog, demo_quake, vmodel):
    t0 = time.perf_counter()
    n, replicas, p = 1000, 200, 0.7
    total = 0
    for replica in range(replicas):
        spec = SeedSpec(1001, n, replica)
        net = sample_network(demo_catalog, n, spec)
        total += len(simulate_triggers(net, demo_quake, vmodel, PhoneParams(p_detect=p), spec))
    lo, hi = scipy_stats.binom.ppf([0.005, 0.995], replicas * n, p)
    mean = total / replicas
    elapsed = time.perf_counter() - t0
    ok = (lo <= total <= hi) and elapsed < 5.0
    report(1, "trigger-rate law", ok,
           f"mean triggers {mean:.2f}, exact 99% interval "
           f"[{lo / replicas:.2f}, {hi / replicas:.2f}], {elapsed:.2f}s")


def test_criterion_02_delay_floor(demo_catalog, demo_quake, vmodel):
    t0 = time.perf_counter()
    pp = PhoneParams(p_detect=1.0, delay_lo_s=1.0, delay_hi_s=1.0)
    dp = DetectorParams()
    floor_ok = True
    for replica in range(25):
        spec = SeedSpec(2002, 500, replica)
        net = sample_network(demo_catalog, 500, spec)
        det = detect(simulate_triggers(net, demo_quake, vmodel, pp, spec), dp)
        min_travel = float(
            p_arrivals_s(demo_quake, vmodel, net.lats, net.lons).min()
        ) - demo_quake.origin_time_s
        floor_ok &= det is not None and (det.time_s - demo_quake.origin_time_s) >= min_travel + 1.0

    epi = GeoPoint(18.4, -72.5)
    eq0 = Earthquake(epicenter=epi, depth_km=0.0)
    colocated = Catalog(lats=np.full(dp.k_min, epi.lat), lons=np.full(dp.k_min, epi.lon))
    res = run_replica(colocated, eq0, vmodel, pp, dp, n=dp.k_min, replica=0, master_seed=7)
    exact_ok = res.detected and abs(res.delay_s - 1.0) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok = floor_ok and exact_ok and elapsed < 1.0
    report(2, "delay floor", ok,
           f"floor respected on 25 replicas, co-located delay {res.delay_s!r}, {elapsed:.2f}s")


def test_criterion_03_detector_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3003)
    detections = 0
    ok = True
    for _ in range(1000):
        triggers = random_triggers(rng, int(rng.integers(0, 21)))
        dp = DetectorParams(k_min=int(rng.integers(2, 8)), window_s=float(rng.uniform(0.5, 15.0)))
        got = detect(triggers, dp)
        want = detect_oracle(triggers, dp.k_min, dp.window_s)
        if want is None:
            ok &= got is None
            continue
        detections += 1
        ok &= (
            got is not None
            and got.time_s == want[0]
            and got.contributing == want[1]
            and (got.location.lat, got.location.lon) == (want[2], want[3])
        )
    elapsed = time.perf_counter() - t0
    ok = ok and detections > 100 and elapsed < 5.0
    report(3, "detector oracle equivalence", ok,
           f"1000 instances, {detections} detections, exact match, {elapsed:.2f}s")


def test_criterion_04_monotone_performance_in_n(campaign4):
    summaries, _, elapsed = campaign4
    delays = [s.delay_mean_s for s in summaries]
    dists = [s.dist_mean_km for s in summaries]
    monotone = all(a >= b for a, b in zip(delays, delays[1:]))
    monotone &= all(a >= b for a, b in zip(dists, dists[1:]))
    # diminishing returns: the 1200 -> 2400 gain is smaller than 300 -> 1200
    dim_delay = (delays[2] - delays[3]) < (delays[0] - delays[2])
    dim_dist = (dists[2] - dists[3]) < (dists[0] - dists[2])
    ok = monotone and dim_delay and dim_dist and elapsed < 60.0
    report(4, "monotone performance in n", ok,
           f"delay {['%.3f' % d for d in delays]}, dist {['%.2f' % d for d in dists]}, "
           f"{elapsed:.1f}s")


def test_criterion_05_density_contraction(demo_catalog, demo_quake, vmodel, demo_pop):
    t0 = time.perf_counter()
    def area95(master_seed, n):
        _, results = run_campaign(
            demo_catalog, demo_quake, vmodel, PhoneParams(), DetectorParams(),
            [n], 150, master_seed,
        )
        dg = detection_density(results, demo_pop)
        masses = np.sort((dg.grid.values * dg.grid.cell_area_deg2).ravel())[::-1]
        cells = int(np.searchsorted(np.cumsum(masses), 0.95) + 1)
        return cells * dg.grid.cell_area_deg2

    ok = True
    details = []
    for master_seed in (1, 2, 3):
        sparse = area95(master_seed, 300)
        dense = area95(master_seed, 3000)
        details.append(f"seed {master_seed}: {dense:.4f} < {sparse:.4f} deg^2")
        ok &= dense < sparse
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(5, "density contraction", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_06_warning_time_identity(demo_quake, vmodel, demo_pop):
    t0 = time.perf_counter()
    rng = np.random.default_rng(6006)
    worst = 0.0
    fixtures = [(demo_quake, demo_pop)]
    for _ in range(5):
        eq = Earthquake(
            epicenter=GeoPoint(rng.uniform(18, 19), rng.uniform(-73.5, -72)),
            depth_km=rng.uniform(0, 30),
            origin_time_s=rng.uniform(0, 10),
        )
        pop = make_grid(rng.uniform(0, 100, size=(12, 15)),
                        xll=rng.uniform(-74, -73), yll=rng.uniform(17.5, 18.0),
                        cellsize=rng.uniform(0.05, 0.2))
        fixtures.append((eq, pop))
    for eq, pop in fixtures:
        from eewsim.detection import Detection

        det = Detection(time_s=eq.origin_time_s + rng.uniform(1, 8),
                        location=eq.epicenter, contributing=())
        ap = AlertParams(dissemination_latency_s=float(rng.uniform(0, 3)))
        w = warning_field(det, eq, vmodel, ap, pop)
        delay = det.time_s - eq.origin_time_s
        for row in range(pop.nrows):
            for col in range(pop.ncols):
                if not pop.mask[row, col]:
                    continue
                travel = s_arrival_s(eq, vmodel, cell_center(pop, row, col)) - eq.origin_time_s
                lhs = w.values[row, col] + delay + ap.dissemination_latency_s
                worst = max(worst, abs(lhs - travel))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9
    report(6, "warning-time identity", ok,
           f"max |w + delay + latency - s_travel| = {worst:.2e} s over "
           f"{len(fixtures)} fixtures, {elapsed:.1f}s")


def test_criterion_07_percentile_ordering(campaign4, demo_quake, vmodel, demo_mmi, demo_pop):
    _, results, _ = campaign4
    rows = warning_vs_n(results, demo_quake, vmodel, AlertParams(), demo_mmi, demo_pop,
                        DEFAULT_BINS)
    by_key = {}
    for r in rows:
        by_key.setdefault((r.n, str(r.bin)), {})[r.stat] = r.value_s
    ordering_ok = True
    populated = 0
    for stats in by_key.values():
        if stats["mean"] is None:
            continue
        populated += 1
        ordering_ok &= stats["p2_5"] <= stats["mean"] <= stats["p97_5"]

    # per-replica spot check through the full warning_stats path
    for r in results[::211]:
        if not r.detected:
            continue
        from eewsim.detection import Detection

        det = Detection(time_s=demo_quake.origin_time_s + r.delay_s,
                        location=r.detection_location, contributing=())
        w = warning_field(det, demo_quake, vmodel, AlertParams(), demo_pop)
        for ws in warning_stats(w, demo_mmi, demo_pop, DEFAULT_BINS):
            if ws.population > 0:
                ordering_ok &= ws.p2_5_s <= ws.mean_s <= ws.p97_5_s

    rng = np.random.default_rng(7007)
    degeneracy_ok = True
    for _ in range(100):
        m = int(rng.integers(1, 80))
        vals = rng.normal(scale=10, size=m).tolist()
        p_val = float(rng.choice([0.0, 2.5, 50.0, 97.5, 100.0, rng.uniform(0, 100)]))
        degeneracy_ok &= (
            weighted_percentile(vals, [1.0] * m, p_val) == inv_cdf_percentile(vals, p_val)
        )
    ok = ordering_ok and degeneracy_ok and populated > 0
    report(7, "percentile ordering", ok,
           f"{populated} populated (n, bin) rows ordered; equal-weight degeneracy on "
           f"100 fixtures")


def test_criterion_08_positive_warning_regime(demo_catalog, demo_quake, vmodel,
                                              demo_mmi, demo_pop):
    t0 = time.perf_counter()
    _, results = run_campaign(
        demo_catalog, demo_quake, vmodel, PhoneParams(), DetectorParams(),
        [3000], 200, master_seed=8008,
    )
    det, _ = mode_conditioned_detection(results, 3000, demo_quake, demo_pop)
    w = warning_field(det, demo_quake, vmodel, AlertParams(), demo_pop)
    stats = warning_stats(w, demo_mmi, demo_pop, DEFAULT_BINS)
    means = {str(ws.bin): ws.mean_s for ws in stats}
    target = [means.get("(7.5,8]"), means.get("(8,8.5]")]
    elapsed = time.perf_counter() - t0
    ok = any(m is not None and m > 0 for m in target)
    report(8, "positive-warning regime", ok,
           f"mean warning (7.5,8] = {means.get('(7.5,8]'):.2f} s, "
           f"(8,8.5] = {means.get('(8,8.5]'):.2f} s at the density mode, {elapsed:.1f}s")


def test_criterion_09_determinism_across_threads(pipeline):
    # BLAS reads its thread count at import, so the second run is a fresh
    # `python -m eewsim` process with two BLAS threads
    config, out1, elapsed1 = pipeline
    out2 = out1.parent / "out2"
    src = str(Path(eewsim.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-m", "eewsim", "all", "--config", str(config), "--out", str(out2),
         "--quiet"],
        env=env, capture_output=True, text=True,
    )
    elapsed2 = time.perf_counter() - t0
    first = {p.name: p.read_bytes() for p in out1.iterdir()}
    second = {p.name: p.read_bytes() for p in out2.iterdir()} if out2.is_dir() else {}
    total = elapsed1 + elapsed2
    ok = child.returncode == 0 and first == second and len(first) >= 7 and total < 120.0
    detail = f"{len(first)} files byte-identical (in-process vs 2 BLAS threads), {total:.1f}s"
    if child.returncode:
        detail += f"; the child exited {child.returncode}: {child.stderr.strip()}"
    report(9, "determinism across threads", ok, detail)


def test_criterion_10_kde_normalization(pipeline):
    _, out1, _ = pipeline
    density_files = sorted(out1.glob("density_n*.asc"))
    ok = len(density_files) > 0
    details = []
    for path in density_files:
        g = parse_ascii_grid(path.read_text(encoding="utf-8"))
        mass = float(g.values.sum() * g.cell_area_deg2)
        details.append(f"{path.name}: {mass:.6f}")
        ok &= abs(mass - 1.0) <= 1e-3
    report(10, "KDE normalization", ok, "; ".join(details))
