import math
import re
import tracemalloc
from statistics import fmean

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eewsim import montecarlo
from eewsim.detection import DetectorParams, PhoneParams
from eewsim.errors import EewsimError
from eewsim.geo import GeoPoint, cell_center, format_csv, haversine_km, haversine_km_points
from eewsim.montecarlo import (
    DensityGrid,
    RUNS_DTYPE,
    RUNS_HEADER,
    McSummary,
    detection_density,
    mean,
    percentile,
    read_runs_csv,
    run_campaign,
    run_replica,
    summarize,
    write_runs_csv,
    write_summary_csv,
)
from eewsim.network import Catalog
from eewsim.scenario import Earthquake, VelocityModel, p_arrivals_s
from testutil import (
    LINE_BREAKS_NOT_NEWLINES,
    assert_runs_equal,
    density_full_grid,
    density_oracle,
    linear_percentile_oracle,
    make_grid,
    runs_array,
)


def colocated_catalog(point, n):
    return Catalog(lats=np.full(n, point.lat), lons=np.full(n, point.lon))


def deterministic_setup(k=3):
    """p_detect 1, fixed delay, all phones on the epicenter: fully forced."""
    epi = GeoPoint(18.0, -72.0)
    eq = Earthquake(epicenter=epi, depth_km=0.0)
    cat = colocated_catalog(epi, k)
    pp = PhoneParams(p_detect=1.0, delay_lo_s=1.0, delay_hi_s=1.0)
    dp = DetectorParams(k_min=k, window_s=10.0)
    return cat, eq, VelocityModel(), pp, dp


class TestPercentile:
    def test_forced_by_definition(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_single_element(self):
        for p in (0, 2.5, 50, 97.5, 100):
            assert percentile([7.25], p) == 7.25

    def test_hand_rank_formula(self):
        assert percentile(list(range(100)), 2.5) == 2.475

    def test_extremes_are_min_max(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=37).tolist()
        assert percentile(vals, 0) == min(vals)
        assert percentile(vals, 100) == max(vals)

    def test_matches_numpy_linear(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            vals = rng.normal(size=int(rng.integers(1, 40))).tolist()
            p = float(rng.uniform(0, 100))
            assert percentile(vals, p) == pytest.approx(np.percentile(vals, p), rel=1e-12, abs=1e-12)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=16) | st.sampled_from([0.0, -0.0]),
                    min_size=1, max_size=50),
           st.sampled_from([0.0, 2.5, 50.0, 97.5, 100.0]) | st.floats(0.0, 100.0))
    def test_equal_bits_to_the_oracle(self, vals, p):
        # few distinct values, so equal ones meet; -0.0 and 0.0 keep input order
        assert percentile(vals, p).hex() == linear_percentile_oracle(vals, p).hex()

    def test_signed_zeros_keep_input_order(self):
        # the maximum is the last zero in input order; 34 values are enough
        # for an unstable sort to move zeros
        for zeros in ([0.0, -0.0], [-0.0, 0.0]):
            assert percentile(zeros, 100).hex() == zeros[-1].hex()
            assert percentile(zeros * 17, 100).hex() == zeros[-1].hex()

    def test_errors(self):
        with pytest.raises(EewsimError, match=r"^percentile of an empty collection$"):
            percentile([], 50)
        with pytest.raises(EewsimError, match=r"^percentile must be in \[0, 100\], got 101$"):
            percentile([1.0], 101)


class TestRunReplica:
    def test_fully_deterministic_composition(self):
        cat, eq, vm, pp, dp = deterministic_setup()
        res = run_replica(cat, eq, vm, pp, dp, n=3, replica=0, master_seed=1)
        assert res is not None
        delay_s, distance_km, lat, lon = res
        assert delay_s == pytest.approx(1.0, abs=1e-12)
        assert distance_km == 0.0
        assert (lat, lon) == (18.0, -72.0)

    def test_p_detect_zero(self):
        cat, eq, vm, _, dp = deterministic_setup()
        assert run_replica(cat, eq, vm, PhoneParams(p_detect=0.0), dp, 3, 0, 1) is None

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        cat = Catalog(lats=rng.uniform(17, 20, 60), lons=rng.uniform(-74, -71, 60))
        eq = Earthquake(epicenter=GeoPoint(18.4, -72.5), depth_km=10.0)
        args = (cat, eq, VelocityModel(), PhoneParams(), DetectorParams(), 30, 4, 99)
        assert run_replica(*args) is not None
        assert run_replica(*args) == run_replica(*args)

    def test_n_too_large_propagates(self):
        cat, eq, vm, pp, dp = deterministic_setup()
        with pytest.raises(EewsimError, match=r"^network size 4 exceeds catalog size 3$"):
            run_replica(cat, eq, vm, pp, dp, n=4, replica=0, master_seed=1)


class TestCampaign:
    @pytest.mark.parametrize("n, master_seed, message", [
        (4, 1, "network size 4 exceeds catalog size 3"),
        (0, 1, "network size must be >= 1, got 0"),
        (-1, 1, "n must be >= 0, got -1"),
        (3, 2**64, "master_seed must be in [0, 18446744073709551616), got 18446744073709551616"),
    ])
    def test_bad_n_or_seed_fails_as_run_replica_does(self, n, master_seed, message):
        cat, eq, vm, pp, dp = deterministic_setup()
        with pytest.raises(EewsimError, match=f"^{re.escape(message)}$"):
            run_replica(cat, eq, vm, pp, dp, n=n, replica=0, master_seed=master_seed)
        with pytest.raises(EewsimError, match=f"^{re.escape(message)}$"):
            run_campaign(cat, eq, vm, pp, dp, [3, n], 2, master_seed)

    def test_zero_width_bands_when_deterministic(self):
        cat, eq, vm, pp, dp = deterministic_setup()
        summaries, results = run_campaign(cat, eq, vm, pp, dp, [3], 20, 5)
        (s,) = summaries
        assert s.detect_rate == 1.0
        assert s.delay_lo_s == s.delay_mean_s == s.delay_hi_s
        assert s.dist_lo_km == s.dist_mean_km == s.dist_hi_km
        assert len(results) == 20

    def test_runs_array_rows_and_columns(self):
        rng = np.random.default_rng(8)
        cat = Catalog(lats=rng.uniform(17, 20, 200), lons=rng.uniform(-74, -71, 200))
        eq = Earthquake(epicenter=GeoPoint(18.4, -72.5), depth_km=10.0)
        args = (cat, eq, VelocityModel(), PhoneParams(p_detect=0.3), DetectorParams())
        _, runs = run_campaign(*args, [8, 40], 6, 13)
        assert not runs.flags.writeable
        assert runs.n.tolist() == [8] * 6 + [40] * 6
        assert runs.replica.tolist() == list(range(6)) * 2
        assert 0 < runs.detected.sum() < len(runs)  # both kinds of row are checked
        for n, replica, detected, *metrics in runs.tolist():
            want = run_replica(*args, n, replica, 13)
            assert detected == (want is not None)
            if detected:
                assert tuple(metrics) == want
            else:
                assert all(math.isnan(x) for x in metrics)

    def test_no_detections_summary(self):
        cat, eq, vm, _, dp = deterministic_setup()
        summaries, _ = run_campaign(cat, eq, vm, PhoneParams(p_detect=0.0), dp, [3], 5, 5)
        (s,) = summaries
        assert s.detect_rate == 0.0
        assert s.delay_mean_s is None and s.dist_mean_km is None

    def test_bands_ordered(self):
        rng = np.random.default_rng(10)
        cat = Catalog(lats=rng.uniform(17, 20, 300), lons=rng.uniform(-74, -71, 300))
        eq = Earthquake(epicenter=GeoPoint(18.4, -72.5), depth_km=10.0)
        summaries, _ = run_campaign(
            cat, eq, VelocityModel(), PhoneParams(), DetectorParams(), [50, 150], 80, 3
        )
        for s in summaries:
            assert s.delay_lo_s <= s.delay_mean_s <= s.delay_hi_s
            assert s.dist_lo_km <= s.dist_mean_km <= s.dist_hi_km

    def test_band_estimates_converge_with_replicas(self):
        # Monte Carlo error of the band endpoints shrinks as replicas grow
        rng = np.random.default_rng(12)
        cat = Catalog(lats=rng.uniform(17.8, 19.2, 500), lons=rng.uniform(-73.2, -71.8, 500))
        eq = Earthquake(epicenter=GeoPoint(18.5, -72.5), depth_km=10.0)
        vm, pp, dp = VelocityModel(), PhoneParams(), DetectorParams()

        def band_lo(replicas, seed):
            s, _ = run_campaign(cat, eq, vm, pp, dp, [100], replicas, seed)
            return s[0].delay_lo_s

        reference = band_lo(4000, 1)
        err_small = abs(band_lo(100, 2) - reference)
        err_large = abs(band_lo(1000, 2) - reference)
        assert err_large < err_small

    def test_saturated_detection_rate_is_one(self):
        # p_detect 1, k_min <= n and a window wider than the delay spread
        # plus the P-arrival spread: every replica must detect
        rng = np.random.default_rng(20)
        cat = Catalog(lats=rng.uniform(18.0, 19.0, 150), lons=rng.uniform(-73.0, -72.0, 150))
        eq = Earthquake(epicenter=GeoPoint(18.5, -72.5), depth_km=10.0)
        summaries, _ = run_campaign(
            cat, eq, VelocityModel(), PhoneParams(p_detect=1.0),
            DetectorParams(k_min=5, window_s=60.0), [5, 40], 50, 2,
        )
        assert all(s.detect_rate == 1.0 for s in summaries)

    def test_delay_decreases_with_n_radial_scenario(self):
        rng = np.random.default_rng(14)
        # phones uniform on a disc around the epicenter
        r = np.sqrt(rng.uniform(0, 1, 800)) * 0.8
        th = rng.uniform(0, 2 * np.pi, 800)
        cat = Catalog(lats=18.5 + r * np.sin(th), lons=-72.5 + r * np.cos(th))
        eq = Earthquake(epicenter=GeoPoint(18.5, -72.5), depth_km=10.0)
        summaries, _ = run_campaign(
            cat, eq, VelocityModel(), PhoneParams(), DetectorParams(), [50, 200, 700], 150, 21
        )
        delays = [s.delay_mean_s for s in summaries]
        assert delays[0] > delays[1] > delays[2]


LATTICE = [i / 10 for i in range(-3, 4)] + [-0.0]


@st.composite
def campaign_cases(draw):
    """A campaign on a small lattice catalog, and a block size for its kernel.

    Points repeat, and with the epicenter on the lattice's centre distinct
    points share a P arrival, so with equal delays trigger times tie
    exactly, also between points with different coordinates.
    """
    N = draw(st.integers(1, 30))
    points = draw(st.lists(st.tuples(st.sampled_from(LATTICE), st.sampled_from(LATTICE)),
                           min_size=N, max_size=N))
    lats, lons = map(np.array, zip(*points))
    eq = Earthquake(epicenter=draw(st.sampled_from([GeoPoint(0.0, 0.0), GeoPoint(0.05, -0.13)])),
                    depth_km=draw(st.sampled_from([0.0, 10.0])))
    lo = draw(st.sampled_from([0.0, 0.5]))
    pp = PhoneParams(p_detect=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
                     delay_lo_s=lo, delay_hi_s=lo + draw(st.sampled_from([0.0, 0.01, 3.0])))
    dp = DetectorParams(k_min=draw(st.integers(2, 6)),
                        window_s=draw(st.sampled_from([0.01, 0.3, 2.0, 100.0])))
    n_grid = draw(st.lists(st.integers(1, N), min_size=1, max_size=4, unique=True))
    args = (Catalog(lats=lats, lons=lons), eq, VelocityModel(), pp, dp)
    return (args, n_grid, draw(st.integers(1, 12)), draw(st.integers(0, 2**64 - 1)),
            draw(st.integers(1, 400)))


def row_bits(row) -> tuple:
    """A runs row with each float as its hex form, which tells -0.0 from 0.0."""
    return tuple(x.hex() if isinstance(x, float) else x for x in row)


def ring_case():
    """Four points at equal distance around the epicenter trigger at one time:
    k_min = 2 takes the first two in (lat, lon) order, not in network order."""
    ring = Catalog(lats=np.array([0.1, 0.0, -0.1, 0.0]), lons=np.array([0.0, 0.1, 0.0, -0.1]))
    eq = Earthquake(epicenter=GeoPoint(0.0, 0.0), depth_km=5.0)
    pp = PhoneParams(p_detect=1.0, delay_lo_s=1.0, delay_hi_s=1.0)
    return (ring, eq, VelocityModel(), pp, DetectorParams(k_min=2, window_s=1.0)), [4, 3], 12, 1, 40


class TestCampaignKernel:
    @given(campaign_cases())
    @example(ring_case())
    def test_rows_equal_run_replica(self, case):
        args, n_grid, replicas, master_seed, block_words = case
        with pytest.MonkeyPatch.context() as mp:
            # small blocks: replica counts cross block boundaries
            mp.setattr(montecarlo, "_BLOCK_WORDS", block_words)
            _, runs = run_campaign(*args, n_grid, replicas, master_seed)
            _, first = run_campaign(*args, n_grid, 1, master_seed)
        for n, replica, detected, *metrics in runs.tolist():
            want = run_replica(*args, n, replica, master_seed)
            assert detected == (want is not None)
            want = (math.nan,) * 4 if want is None else want
            assert row_bits(metrics) == row_bits(want), (n, replica)
        # replica r's row does not depend on how many replicas run
        assert list(map(row_bits, first.tolist())) == [
            row_bits(row) for row in runs.tolist() if row[1] == 0
        ]

    def test_memory_bounded_by_blocks(self, demo_catalog, demo_quake, vmodel):
        # 3000 phones x 1000 replicas: unblocked, the raw trigger words alone
        # take 48 MB and the kernel peaks near 160 MiB; in blocks of 2**18
        # words (2 MiB) it peaks near 8 MiB
        tracemalloc.start()
        try:
            run_campaign(demo_catalog, demo_quake, vmodel, PhoneParams(), DetectorParams(),
                         [3000], 1000, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @given(st.lists(st.tuples(st.floats(-90, 90), st.floats(-180, 180, exclude_max=True)),
                    min_size=1, max_size=40),
           st.floats(-90, 90), st.floats(-180, 180, exclude_max=True))
    # libm's pow(x, 2), a numpy scalar's ** 2, and x * x differ here; the
    # kernel's distances and the reference's both square with np.square
    @example([(50.821964642777516, 0.0)], 0.0, 4.0)
    def test_distances_equal_haversine_km(self, points, lat, lon):
        to = GeoPoint(lat, lon)
        lats, lons = map(np.array, zip(*points))
        want = [haversine_km(to, GeoPoint(a, b)) for a, b in points]
        assert haversine_km_points(to, lats, lons).tolist() == want

    def test_arrivals_of_any_subset_equal_the_network_ones(self, demo_catalog, demo_quake, vmodel):
        # the kernel computes each P arrival once, on the points not seen
        # before; simulate_triggers computes them on each network
        rng = np.random.default_rng(5)
        every = p_arrivals_s(demo_quake, vmodel, demo_catalog.lats, demo_catalog.lons)
        for size in (1, 7, 8, 9, 63, 500):
            sel = rng.choice(len(demo_catalog), size, replace=False)
            got = p_arrivals_s(demo_quake, vmodel, demo_catalog.lats[sel], demo_catalog.lons[sel])
            assert got.tobytes() == every[sel].tobytes()


class TestDetectionDensity:
    def spec(self):
        return make_grid(np.zeros((8, 10)), xll=-73.0, yll=18.0, cellsize=0.1)

    def detected(self, lat, lon, n=300, replica=0):
        return (n, replica, (3.0, 1.0, lat, lon))

    def test_point_mass_mode(self):
        results = runs_array([self.detected(18.55, -72.45, replica=i) for i in range(5)])
        dg = detection_density(results, self.spec(), bandwidth_deg=0.05)
        assert dg.mode == GeoPoint(18.55, -72.45)

    def test_normalization(self):
        rng = np.random.default_rng(16)
        results = runs_array([
            self.detected(rng.uniform(18.1, 18.7), rng.uniform(-72.9, -72.2), replica=i)
            for i in range(40)
        ])
        dg = detection_density(results, self.spec())
        mass = dg.grid.values.sum() * dg.grid.cell_area_deg2
        assert 0.999 <= mass <= 1.001

    def test_two_cluster_mode_in_heavy_cluster(self):
        results = [self.detected(18.25, -72.75, replica=i) for i in range(90)]
        results += [self.detected(18.65, -72.15, replica=90 + i) for i in range(10)]
        dg = detection_density(runs_array(results), self.spec(), bandwidth_deg=0.05)
        assert dg.mode == GeoPoint(18.25, -72.75)

    def test_mode_tie_breaks_to_first_row_major_cell(self):
        # one detection exactly on a 4-cell corner: 4 equal-density cells
        spec = make_grid(np.zeros((4, 4)))
        results = runs_array([self.detected(2.0, 2.0)])
        dg = detection_density(results, spec, bandwidth_deg=0.7)
        assert dg.mode == cell_center(dg.grid, 1, 1)

    def test_mode_invariant_under_rescaling(self):
        rng = np.random.default_rng(18)
        results = runs_array([
            self.detected(rng.uniform(18.1, 18.7), rng.uniform(-72.9, -72.2), replica=i)
            for i in range(25)
        ])
        a = detection_density(results, self.spec(), bandwidth_deg=0.08)
        b = detection_density(results, self.spec(), bandwidth_deg=0.08)
        assert a.mode == b.mode
        flat = np.argmax(a.grid.values)
        assert flat == np.argmax(a.grid.values * 1000.0)

    def test_no_detections(self):
        undetected = runs_array([(300, 0, None)])
        with pytest.raises(EewsimError, match=r"^no detected replica to estimate a density from$"):
            detection_density(undetected, self.spec())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bandwidth_whose_kernel_scale_overflows(self):
        # below about 5.3e-155 deg, 1/(2h^2) is inf, and a detection on a cell
        # center gave 0 * inf = NaN
        p = cell_center(self.spec(), 2, 3)
        results = runs_array([self.detected(p.lat, p.lon)])
        with pytest.raises(EewsimError, match=r"^density bandwidth 1e-160 deg is too narrow: "
                                              r"1/\(2 h\*\*2\) overflows$"):
            detection_density(results, self.spec(), bandwidth_deg=1e-160)

    def test_degenerate_bandwidth_falls_back(self):
        results = runs_array([self.detected(18.55, -72.45)])
        dg = detection_density(results, self.spec())
        assert dg.bandwidth_deg == self.spec().cellsize

    @pytest.mark.parametrize("seed, m, bandwidth", [
        (60, 1, None),     # one detection: degenerate bandwidth, cell-size fallback
        (61, 40, None),    # Silverman bandwidth
        (62, 200, 0.08),
        (63, 7, 0.02),     # narrow kernel, cells far from every detection underflow
    ])
    def test_matches_per_point_oracle(self, seed, m, bandwidth):
        rng = np.random.default_rng(seed)
        spec = make_grid(np.zeros((23, 31)), xll=-73.0, yll=18.0, cellsize=0.03)
        results = [
            self.detected(rng.uniform(18.0, 18.7), rng.uniform(-73.0, -72.07), replica=i)
            for i in range(m)
        ]
        results.append(self.detected(18.9, -72.0, replica=m))  # outside the grid
        results.append((300, m + 1, None))
        results = runs_array(results)
        want, h = density_oracle(results, spec, bandwidth)
        dg = detection_density(results, spec, bandwidth)
        assert dg.bandwidth_deg == h
        assert np.max(np.abs(dg.grid.values - want)) <= 1e-12 * want.max()
        assert np.argmax(dg.grid.values) == np.argmax(want)
        # the sub-resolution tail, below eps of the maximum, is flushed to 0.0
        eps, got = np.finfo(np.float64).eps, dg.grid.values
        assert np.all((got == 0.0) | (got >= eps * got.max()))
        assert np.all(got[want < eps * want.max()] == 0.0)
        assert abs(got.sum() * spec.cell_area_deg2 - 1.0) <= 1e-12

    @given(
        nrows=st.integers(1, 25),
        ncols=st.integers(1, 25),
        layout=st.sampled_from(["cluster", "corners", "outside", "single"]),
        bandwidth=st.none() | st.floats(0.001, 0.1),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(nrows=25, ncols=25, layout="cluster", bandwidth=1e-3, seed=0)  # a one-cell box
    def test_cut_factors_match_full_grid(self, nrows, ncols, layout, bandwidth, seed):
        rng = np.random.default_rng(seed)
        spec = make_grid(np.zeros((nrows, ncols)), xll=-73.0, yll=18.0, cellsize=0.03)
        south, north = 18.0, 18.0 + nrows * 0.03
        west, east = -73.0, -73.0 + ncols * 0.03
        m = 1 if layout == "single" else int(rng.integers(2, 60))
        if layout == "cluster":
            lats = rng.uniform(south, north) + rng.normal(0.0, 0.003, m)
            lons = rng.uniform(west, east) + rng.normal(0.0, 0.003, m)
        elif layout == "corners":  # detections in opposite corners: the box is the grid
            corner = rng.integers(0, 2, (2, m))
            corner[:, :2] = [[0, 1], [0, 1]]
            lats = np.where(corner[0] == 1, north, south)
            lons = np.where(corner[1] == 1, east, west)
        elif layout == "outside":  # up to 0.1 deg beyond the north or east edge
            lats = rng.uniform(south, north + 0.1, m)
            lons = np.where(lats > north, rng.uniform(west, east, m), rng.uniform(east, east + 0.1, m))
        else:
            lats, lons = rng.uniform(south, north, 1), rng.uniform(west, east, 1)
        results = runs_array([self.detected(lat, lon, replica=i)
                              for i, (lat, lon) in enumerate(zip(lats.tolist(), lons.tolist()))])
        try:
            want = density_full_grid(results, spec, bandwidth, cut=True)
        except EewsimError:
            with pytest.raises(EewsimError, match="underflowed to zero"):
                detection_density(results, spec, bandwidth)
            return
        got = detection_density(results, spec, bandwidth).grid.values
        assert got.tobytes() == want.tobytes()
        # the cut moves the parent's full-factor grid by less than (m + 2) eps of its maximum
        full = density_full_grid(results, spec, bandwidth)
        tol = (m + 2) * np.finfo(np.float64).eps * full.max()
        assert np.max(np.abs(got - full)) <= tol
        top = np.sort(full, axis=None)[::-1][:2]
        if top.size < 2 or top[0] - top[1] > tol:
            assert np.argmax(got) == np.argmax(full)


class TestCsvRoundTrip:
    def test_runs_csv(self):
        runs = runs_array([
            (10, 0, (3.25, 7.5, 18.123456789, -72.987654321)),
            (10, 1, None),
        ])
        text = write_runs_csv(runs)
        assert text.splitlines()[1:] == [
            "10,0,true,3.25,7.5,18.123456789,-72.987654321", "10,1,false,,,,",
        ]
        assert_runs_equal(read_runs_csv(text), runs)

    @given(st.lists(
        st.tuples(
            st.integers(1, 2**63 - 1),
            st.integers(0, 2**63 - 1),
            st.none() | st.tuples(
                st.floats(0.0, allow_infinity=False),
                st.floats(0.0, allow_infinity=False),
                st.floats(-90.0, 90.0),
                st.floats(-180.0, 180.0, exclude_max=True),
            ),
        ),
        min_size=1, max_size=20, unique_by=lambda row: row[:2],
    ))
    def test_runs_csv_round_trip_property(self, rows):
        runs = runs_array(rows)
        text = write_runs_csv(runs)
        back = read_runs_csv(text)
        assert_runs_equal(back, runs)
        assert not back.flags.writeable
        assert write_runs_csv(back) == text

    def test_runs_csv_is_format_csv_by_rows(self):
        # the column writer gives the text of format_csv's rule, row by row
        runs = runs_array([
            (300, 0, (-0.0, 1e-05, 5e-324, -72.5)),
            (300, 1, None),
            (2**62, 2**63 - 1, (1e16, 0.1, -90.0, -180.0)),
            (5, 2, None),
        ])
        rows = [(n, r, d, *(m if d else (None,) * 4))
                for n, r, d, *m in zip(*(runs[name].tolist() for name in RUNS_DTYPE.names))]
        assert write_runs_csv(runs) == format_csv(RUNS_HEADER, rows)
        assert "300,0,true,-0.0,1e-05,5e-324,-72.5\n300,1,false,,,,\n" in write_runs_csv(runs)

    def test_summary_csv_header_and_blanks(self):
        s = McSummary(n=5, replicas=3, detect_rate=0.0,
                      delay_mean_s=None, delay_lo_s=None, delay_hi_s=None,
                      dist_mean_km=None, dist_lo_km=None, dist_hi_km=None)
        lines = write_summary_csv([s]).splitlines()
        assert lines[0].startswith("n,replicas,detect_rate")
        assert lines[1] == "5,3,0.0,,,,,,"

    def test_rejects_foreign_file(self):
        with pytest.raises(EewsimError, match=r"^not a runs.csv file \(bad or missing header\)$"):
            read_runs_csv("a,b\n1,2\n")

    def test_rejects_header_only_file(self):
        with pytest.raises(EewsimError, match="no data rows"):
            read_runs_csv("n,replica,detected,delay_s,distance_km,det_lat,det_lon\n")

    NON_FINITE = {  # row -> the rule it breaks
        "10,0,true,nan,7.5,18.1,-72.9": "delay_s must be finite and >= 0, got nan",
        "10,0,true,3.25,inf,18.1,-72.9": "distance_km must be finite and >= 0, got inf",
        "10,0,true,3.25,7.5,nan,-72.9": "det_lat must be in [-90, 90], got nan",
        "10,0,true,3.25,7.5,18.1,-inf": "det_lon must be finite, got -inf",
    }

    @pytest.mark.parametrize("row", list(NON_FINITE))
    def test_rejects_non_finite_detected_row(self, row):
        text = "n,replica,detected,delay_s,distance_km,det_lat,det_lon\n" + row + "\n"
        message = f"runs.csv line 2: {self.NON_FINITE[row]}"
        with pytest.raises(EewsimError, match=f"^{re.escape(message)}$"):
            read_runs_csv(text)

    @pytest.mark.parametrize("row, message", [
        ("10,0,true,-1e308,7.5,18.1,-72.9", "delay_s must be >= 0, got -1e+308"),
        ("10,0,true,-5e-324,7.5,18.1,-72.9", "delay_s must be >= 0, got -5e-324"),
        ("10,0,true,3.25,-0.5,18.1,-72.9", "distance_km must be >= 0, got -0.5"),
    ])
    def test_rejects_negative_delay_or_distance(self, row, message):
        # every trigger follows the origin, and a distance is never negative
        with pytest.raises(EewsimError, match=f"^{re.escape(f'runs.csv line 2: {message}')}$"):
            read_runs_csv(RUNS_HEADER + "\n" + row + "\n")

    @pytest.mark.parametrize("body, match", [
        # line numbers count blank lines
        ("\n\n10,0,true,3.25,7.5,18.1\n", r"^runs.csv line 4: cannot parse '10,0,true,3.25,7.5,18.1'$"),
        ("10,x,false,,,,\n", r"^runs.csv line 2: cannot parse '10,x,false,,,,'$"),
        ("10,0,true,3.25,,18.1,-72.9\n", r"^runs.csv line 2: cannot parse '10,0,true,3.25,,18.1,-72.9'$"),
        ("10,0,yes,,,,\n", r"^runs.csv line 2: cannot parse"),
        ("\n10,0,true,3.25,7.5,95,-72.9\n", r"^runs.csv line 3: det_lat must be in \[-90, 90\], got 95.0$"),
        ("0,0,false,,,,\n", r"^runs.csv line 2: n must be in \[1, 9223372036854775808\), got 0$"),
        ("10,-1,false,,,,\n", r"^runs.csv line 2: replica must be in \[0, 9223372036854775808\), got -1$"),
        (f"{2**63},0,false,,,,\n",
         r"^runs.csv line 2: n must be in \[1, 9223372036854775808\), got 9223372036854775808$"),
        # the writer leaves every metric of an undetected row empty
        ("10,0,false,,,,\n10,1,false,3.25,,,\n", r"^runs.csv line 3: undetected row carries"),
        ("10,1,false,,,,-72.9\n", r"^runs.csv line 2: undetected row carries metrics"),
        ("10,1,false, ,,,\n", r"^runs.csv line 2: undetected row carries metrics"),
        # and writes each (n, replica) once
        ("10,0,false,,,,\n10,1,false,,,,\n\n10,0,true,3.0,1.0,18.0,-72.0\n",
         r"^runs.csv line 5: n=10 replica=0 repeats line 2$"),
    ])
    def test_rejected_row_names_its_line(self, body, match):
        with pytest.raises(EewsimError, match=match):
            read_runs_csv(RUNS_HEADER + "\n" + body)

    @pytest.mark.parametrize("brk", LINE_BREAKS_NOT_NEWLINES)
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_lines_end_only_at_newlines(self, brk, newline):
        # str.splitlines would end a line at brk as well, and so shift the
        # line number of every later row or split a row in two
        head = RUNS_HEADER + newline + "10,0,false,,,," + newline
        with pytest.raises(EewsimError, match=r"^runs.csv line 4: cannot parse '10,x,"):
            read_runs_csv(head + brk + newline + "10,x,false,,,," + newline)
        for row in ("10,1,false,,,," + brk, "10,1,true,3.0," + brk + "1.0,18.0,-72.0"):
            with pytest.raises(EewsimError, match=r"^runs.csv line 3: cannot parse '10,1,"):
                read_runs_csv(head + row + newline)

    def test_same_replica_at_another_n_is_no_repeat(self):
        runs = read_runs_csv(RUNS_HEADER + "\n10,0,false,,,,\n20,0,false,,,,\n")
        assert runs.n.tolist() == [10, 20] and runs.replica.tolist() == [0, 0]

    def test_longitude_wrapped(self):
        runs = read_runs_csv(RUNS_HEADER + "\n10,0,true,3.0,1.0,18.0,190.0\n")
        assert runs.lon.tolist() == [-170.0]


class TestMean:
    def test_equals_fmean(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            vals = rng.normal(scale=1e3, size=int(rng.integers(1, 40))).tolist()
            assert mean(vals) == fmean(vals)

    def test_sum_beyond_float_range(self):
        # fmean raises OverflowError here, though the mean of finite values is finite
        big = np.finfo(np.float64).max.item()
        assert mean([big] * 3) == big
        assert mean([big, big, -big]) == big / 3
        assert mean([-big] * 1000 + [0.0]) == pytest.approx(-(big / 1001) * 1000, rel=1e-15)


class TestSummarize:
    def test_replica_order_independent(self):
        results = runs_array([(3, i, (float(i), float(i), 18.0, -72.0)) for i in range(10)])
        forward = summarize(3, results)
        assert summarize(3, results[::-1]) == forward
