from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eewsim.detection import Detection
from eewsim.errors import EewsimError
from eewsim.geo import DEFAULT_MMI_BINS, GeoPoint, MmiBin, cell_center, match_cells
from eewsim.scenario import Earthquake, VelocityModel, s_arrivals_s
from eewsim.warning import (
    AlertParams,
    WarningStats,
    mode_conditioned_detection,
    warning_field,
    warning_stats,
    warning_vs_n,
    weighted_percentile,
)
from testutil import inv_cdf_percentile, make_grid, runs_array, s_arrival_s, warning_vs_n_oracle

# A mean row differs from the oracle's only by rounding. Each of the two
# weighted means (np.average over at most 64 cells, summed pairwise in at
# most 11 steps) rounds by under 24 eps times the largest magnitude it
# averages, and the shift and the fmean over replicas add a few eps more,
# so 64 eps of (max |S arrival| + max detection time + latency) bounds it.
MEAN_EPS = 64 * np.finfo(np.float64).eps


def detection(time_s=3.0, lat=18.4, lon=-72.5):
    return Detection(time_s=time_s, location=GeoPoint(lat, lon), contributing=())


def quake(lat=18.4, lon=-72.5, depth=10.0):
    return Earthquake(epicenter=GeoPoint(lat, lon), depth_km=depth)


class TestWeightedPercentile:
    def test_hand_case_tiny_tail_weight(self):
        # 0.1% of weight at -5 never reaches the 2.5% threshold
        assert weighted_percentile([10.0, -5.0], [999.0, 1.0], 2.5) == 10.0

    def test_extremes(self):
        v = [3.0, 1.0, 2.0]
        w = [1.0, 5.0, 2.0]
        assert weighted_percentile(v, w, 0) == 1.0
        assert weighted_percentile(v, w, 100) == 3.0

    def test_left_continuous_convention(self):
        # cumulative weights 0.5 / 1.0: p=50 lands exactly on the first value
        assert weighted_percentile([1.0, 2.0], [1.0, 1.0], 50) == 1.0
        assert weighted_percentile([1.0, 2.0], [1.0, 1.0], 50.0001) == 2.0

    def test_degenerates_to_unweighted(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            m = int(rng.integers(1, 60))
            vals = rng.normal(size=m).tolist()
            p = float(rng.choice([0.0, 2.5, 25.0, 50.0, 97.5, 100.0, rng.uniform(0, 100)]))
            got = weighted_percentile(vals, [1.0] * m, p)
            assert got == inv_cdf_percentile(vals, p)

    def test_zero_weights_ignored(self):
        assert weighted_percentile([5.0, 1.0], [0.0, 2.0], 50) == 1.0
        with pytest.raises(EewsimError, match=r"^weighted percentile of an empty collection$"):
            weighted_percentile([1.0], [0.0], 50)

    def test_negative_weights_rejected(self):
        with pytest.raises(EewsimError, match=r"^weights must be non-negative$"):
            weighted_percentile([1.0], [-1.0], 50)


def uniform_mmi(pop, value=8.0):
    """An intensity grid with ``pop``'s geometry and one value in every cell."""
    return make_grid(np.full((pop.nrows, pop.ncols), value), xll=pop.xll, yll=pop.yll,
                     cellsize=pop.cellsize)


def field_with_warnings(w, mmi, pop, bins):
    """``warning_field`` of the grids, its S arrivals replaced by the cells of ``w``.

    At detection time 0 and latency 0 the field's warning times are then the
    values of ``w``. ``mmi`` shares ``pop``'s geometry and holds no nodata,
    so a cell takes part in a bin when its population is positive and its
    intensity lies in the bin.
    """
    field = warning_field(quake(), VelocityModel(), mmi, pop, bins)
    sels = [(pop.values > 0) & b.contains(mmi.values) for b in bins]
    assert all(np.array_equal(p, pop.values[sel]) for p, sel in zip(field.pops, sels))
    return replace(field, s_arrivals=tuple(w.values[sel] for sel in sels))


def fine_grids():
    """600x480 rasters at 0.005 deg over the demo's extent.

    Population peaks near the demo epicentre, with zero cells where it
    rounds down and nodata in the west; intensity falls off from the peak.
    """
    base = make_grid(np.zeros((480, 600)), xll=-74.6, yll=17.8, cellsize=0.005)
    lat2, lon2 = base.center_mesh()
    r = np.hypot(lat2 - 18.5, lon2 + 72.5)
    pop = np.where(lon2 < -74.3, -9999.0, np.floor(1000.0 * np.exp(-r * r / 0.2)))
    return replace(base, values=pop), replace(base, values=np.clip(9.5 - 3.0 * r, 0.0, 12.0))


class TestWarningField:
    ALL = [MmiBin(0.0, 12.0)]

    def test_cell_arithmetic(self):
        # cell at hypocentral 35 km (epicenter cell, depth 35), v_s 3.5 -> w = 10 - t
        eq = Earthquake(epicenter=GeoPoint(18.4, -72.5), depth_km=35.0)
        pop = make_grid([[100.0]], xll=-73.0, yll=17.9, cellsize=1.0)
        # cell center is exactly the epicenter
        assert cell_center(pop, 0, 0) == eq.epicenter
        field = warning_field(eq, VelocityModel(), uniform_mmi(pop), pop, self.ALL)
        (ws,) = warning_stats(field, 0.0, AlertParams())
        assert ws.mean_s == pytest.approx(10.0, abs=1e-12)

    def test_blind_zone_sign(self):
        eq = quake(depth=0.0)
        pop = make_grid([[50.0]], xll=-73.0, yll=17.9, cellsize=1.0)
        field = warning_field(eq, VelocityModel(), uniform_mmi(pop), pop, self.ALL)
        (ws,) = warning_stats(field, 2.5, AlertParams(dissemination_latency_s=0.5))
        assert ws.mean_s == pytest.approx(-3.0, abs=1e-12)

    def test_identity_everywhere(self):
        rng = np.random.default_rng(35)
        eq = quake(depth=8.0)
        vm = VelocityModel()
        pop = make_grid(rng.uniform(0, 500, size=(9, 11)), xll=-73.0, yll=17.8, cellsize=0.1)
        det = detection(time_s=4.2)
        ap = AlertParams(dissemination_latency_s=0.7)
        (s_arr,) = warning_field(eq, vm, uniform_mmi(pop), pop, self.ALL).s_arrivals
        w = s_arr - det.time_s - ap.dissemination_latency_s
        delay = det.time_s - eq.origin_time_s
        # every cell is populated and on the intensity grid, so all take part, row-major
        cells = [(row, col) for row in range(pop.nrows) for col in range(pop.ncols)]
        assert w.size == len(cells)
        for k, (row, col) in enumerate(cells):
            cellpt = cell_center(pop, row, col)
            travel = s_arrival_s(eq, vm, cellpt) - eq.origin_time_s
            lhs = w[k] + delay + ap.dissemination_latency_s
            assert lhs == pytest.approx(travel, abs=1e-9)

    def test_nodata_cells_stay_nodata(self):
        # nodata or empty population, or nodata intensity: the cell takes no part
        pop = make_grid([[10.0, -9999.0, 0.0, 4.0]])
        mmi = make_grid([[8.0, 8.0, 8.0, -9999.0]])
        field = warning_field(quake(), VelocityModel(), mmi, pop, self.ALL)
        assert field.pops[0].tolist() == [10.0]
        assert field.s_arrivals[0].shape == (1,)

    def test_cells_go_to_their_bin(self):
        pop = make_grid([[1.0, 2.0, 3.0, 4.0]])
        mmi = make_grid([[7.6, 8.2, 7.9, 9.5]])
        bins = [MmiBin(7.5, 8.0), MmiBin(8.0, 8.5), MmiBin(10.0, 11.0)]
        field = warning_field(quake(), VelocityModel(), mmi, pop, bins)
        assert field.bins == tuple(bins)
        assert [p.tolist() for p in field.pops] == [[1.0, 3.0], [2.0], []]

    @pytest.mark.parametrize("grids", ["demo", "600x480"])
    def test_s_arrivals_match_full_mesh(self, grids, demo_pop, demo_mmi, demo_quake, vmodel):
        # S arrivals are taken only on the cells some bin keeps; each must
        # carry the bits the whole centre mesh gives it, also where a SIMD
        # kernel's tail ends at another cell. The bins leave gaps.
        pop, mmi = (demo_pop, demo_mmi) if grids == "demo" else fine_grids()
        eq, vm = demo_quake, vmodel
        bins = [MmiBin(5.0, 6.0), *DEFAULT_MMI_BINS]
        lat2, lon2, samples, matched = match_cells(pop, mmi)
        full = s_arrivals_s(eq, vm, lat2, lon2)
        field = warning_field(eq, vm, mmi, pop, bins)
        for b, s_arr in zip(bins, field.s_arrivals):
            want = full[matched & (pop.values > 0) & b.contains(samples)]
            assert s_arr.tobytes() == want.tobytes()
        assert sum(s_arr.size for s_arr in field.s_arrivals) > 1000

    def test_overlapping_bins_rejected(self):
        pop = make_grid([[1.0]])
        with pytest.raises(EewsimError, match=r"^intensity bins \(7,8\.5\] and \(8,9\] overlap$"):
            warning_field(quake(), VelocityModel(), uniform_mmi(pop), pop,
                          [MmiBin(7.0, 8.5), MmiBin(8.0, 9.0)])


class TestWarningStats:
    def one_bin_setup(self, w_value=7.0):
        pop = make_grid([[100.0, 300.0]], xll=0, yll=0)
        mmi = make_grid([[8.0, 8.0]], xll=0, yll=0)
        w = make_grid([[w_value, w_value]], xll=0, yll=0)
        return w, mmi, pop

    def test_uniform_w_collapses(self):
        w, mmi, pop = self.one_bin_setup(7.0)
        field = field_with_warnings(w, mmi, pop, [MmiBin(0.0, 12.0)])
        (ws,) = warning_stats(field, 0.0, AlertParams())
        assert ws.population == 400.0
        assert ws.p2_5_s == ws.mean_s == ws.p97_5_s == 7.0

    def test_weighted_tail_hand_case(self):
        pop = make_grid([[999.0, 1.0]])
        mmi = make_grid([[8.0, 8.0]])
        w = make_grid([[10.0, -5.0]])
        field = field_with_warnings(w, mmi, pop, [MmiBin(7.5, 8.5)])
        (ws,) = warning_stats(field, 0.0, AlertParams())
        assert ws.p2_5_s == 10.0

    def test_empty_bin_row(self):
        w, mmi, pop = self.one_bin_setup()
        field = field_with_warnings(w, mmi, pop, [MmiBin(7.5, 8.5), MmiBin(10.0, 11.0)])
        out = warning_stats(field, 0.0, AlertParams())
        assert out[1].population == 0.0
        assert out[1].p2_5_s is None and out[1].mean_s is None
        assert out[1].histogram == ()

    def test_no_alert_rows(self):
        # no alert raised: every bin, populated or not, is an empty row
        w, mmi, pop = self.one_bin_setup()
        field = field_with_warnings(w, mmi, pop, [MmiBin(7.5, 8.5), MmiBin(10.0, 11.0)])
        assert warning_stats(field, None, AlertParams()) == [
            WarningStats(b, 0.0, None, None, None, ()) for b in field.bins
        ]

    def test_statistics_of_shifted_cells(self):
        rng = np.random.default_rng(45)
        pop, mmi = small_scenario(rng)
        bins = [MmiBin(6.0, 8.0), MmiBin(8.0, 9.5)]
        field = warning_field(quake(), VelocityModel(), mmi, pop, bins)
        t, ap = 4.2, AlertParams(0.3)
        for ws, s_arr, pops in zip(warning_stats(field, t, ap), field.s_arrivals, field.pops):
            w = s_arr - t - ap.dissemination_latency_s
            assert ws.p2_5_s == weighted_percentile(w, pops, 2.5)
            assert ws.p97_5_s == weighted_percentile(w, pops, 97.5)
            assert ws.mean_s == pytest.approx(np.average(w, weights=pops),
                                              rel=0, abs=MEAN_EPS * (s_arr.max() + t + 0.3))

    def test_histogram_accounting_exact(self):
        rng = np.random.default_rng(37)
        pop = make_grid(rng.uniform(0, 50, size=(6, 6)))
        mmi = make_grid(rng.uniform(6.0, 9.5, size=(6, 6)))
        w = make_grid(rng.uniform(-10, 30, size=(6, 6)))
        field = field_with_warnings(w, mmi, pop, [MmiBin(6.0, 8.0), MmiBin(8.0, 10.0)])
        for ws in warning_stats(field, 0.0, AlertParams(), 2.5):
            assert sum(h[2] for h in ws.histogram) == ws.population
            for (lo, hi, _), (lo2, _, _) in zip(ws.histogram, ws.histogram[1:]):
                assert hi == lo2  # contiguous buckets

    def test_zero_population_cells_excluded(self):
        pop = make_grid([[0.0, 10.0]])
        mmi = make_grid([[8.0, 8.0]])
        w = make_grid([[100.0, 2.0]])
        field = field_with_warnings(w, mmi, pop, [MmiBin(7.5, 8.5)])
        (ws,) = warning_stats(field, 0.0, AlertParams())
        assert ws.population == 10.0
        assert ws.mean_s == 2.0

    def test_warning_time_equal_to_nodata_counts(self):
        # S travel to the epicenter cell is 7 km / 3.5 km/s = 2 s, so an
        # alert at 2 s gives that cell a warning time of exactly 0.0, the
        # population raster's nodata value
        eq = Earthquake(epicenter=GeoPoint(18.4, -72.5), depth_km=7.0)
        pop = make_grid([[50.0, 30.0]], xll=-73.0, yll=17.9, cellsize=1.0, nodata=0.0)
        assert cell_center(pop, 0, 0) == eq.epicenter
        field = warning_field(eq, VelocityModel(), uniform_mmi(pop), pop, [MmiBin(0.0, 12.0)])
        (ws,) = warning_stats(field, 2.0, AlertParams())
        assert ws.population == 80.0
        assert ws.p2_5_s == 0.0

    def test_ordering_invariant(self):
        rng = np.random.default_rng(39)
        pop = make_grid(rng.uniform(0, 100, size=(8, 8)))
        mmi = make_grid(rng.uniform(5.0, 10.0, size=(8, 8)))
        w = make_grid(rng.normal(5, 10, size=(8, 8)))
        field = field_with_warnings(w, mmi, pop, [MmiBin(5.0, 7.5), MmiBin(7.5, 10.0)])
        for ws in warning_stats(field, 0.0, AlertParams()):
            if ws.population > 0:
                assert ws.p2_5_s <= ws.mean_s <= ws.p97_5_s

    def test_latency_shift_metamorphic(self):
        rng = np.random.default_rng(43)
        eq = quake(depth=9.0)
        vm = VelocityModel()
        pop = make_grid(rng.uniform(1, 100, size=(7, 7)), xll=-73.0, yll=17.9, cellsize=0.15)
        mmi = make_grid(rng.uniform(6, 10, size=(7, 7)), xll=-73.0, yll=17.9, cellsize=0.15)
        bins = [MmiBin(6.0, 8.0), MmiBin(8.0, 10.0)]
        field = warning_field(eq, vm, mmi, pop, bins)
        base = warning_stats(field, detection().time_s, AlertParams(0.0))
        shifted = warning_stats(field, detection().time_s, AlertParams(1.0))
        for a, b in zip(base, shifted):
            assert b.mean_s == pytest.approx(a.mean_s - 1.0, abs=1e-9)
            assert b.p2_5_s == pytest.approx(a.p2_5_s - 1.0, abs=1e-9)
            assert b.p97_5_s == pytest.approx(a.p97_5_s - 1.0, abs=1e-9)

    def test_empty_bins(self):
        w, mmi, pop = self.one_bin_setup()
        with pytest.raises(EewsimError, match=r"^need at least one intensity bin$"):
            warning_field(quake(), VelocityModel(), mmi, pop, [])


def small_scenario(rng):
    pop = make_grid(rng.uniform(1, 100, size=(10, 10)), xll=-73.0, yll=17.9, cellsize=0.12)
    mmi = make_grid(rng.uniform(6.0, 9.5, size=(10, 10)), xll=-73.1, yll=17.8, cellsize=0.13)
    return pop, mmi


def result(n, replica, delay=None):
    return (n, replica, None if delay is None else (delay, 1.0, 18.4, -72.5))


class TestWarningVsN:
    def test_composition_identity_exact(self):
        # rows for a single detected replica equal a direct warning_stats call
        rng = np.random.default_rng(47)
        pop, mmi = small_scenario(rng)
        eq, vm, ap = quake(), VelocityModel(), AlertParams(0.25)
        bins = [MmiBin(6.0, 8.0), MmiBin(8.0, 9.5)]
        results = [result(300, 0, delay=4.5)]
        field = warning_field(eq, vm, mmi, pop, bins)
        rows = warning_vs_n(runs_array(results), eq, ap, field)
        direct = warning_stats(field, eq.origin_time_s + 4.5, ap)
        by_key = {(r.bin, r.stat): r for r in rows}
        for ws in direct:
            assert by_key[(ws.bin, "p2_5")].value_s == ws.p2_5_s
            assert by_key[(ws.bin, "mean")].value_s == ws.mean_s
            assert by_key[(ws.bin, "p97_5")].value_s == ws.p97_5_s

    def test_deterministic_scenario_zero_width_bands(self):
        rng = np.random.default_rng(49)
        pop, mmi = small_scenario(rng)
        results = [result(300, i, delay=4.5) for i in range(10)]
        field = warning_field(quake(), VelocityModel(), mmi, pop, [MmiBin(6.0, 9.5)])
        rows = warning_vs_n(runs_array(results), quake(), AlertParams(), field)
        for r in rows:
            assert r.band_lo_s == r.value_s == r.band_hi_s

    def test_undetected_n_and_empty_bin_rows(self):
        rng = np.random.default_rng(51)
        pop, mmi = small_scenario(rng)
        results = [result(300, 0), result(600, 0, delay=3.0)]
        bins = [MmiBin(6.0, 9.5), MmiBin(11.0, 12.0)]
        field = warning_field(quake(), VelocityModel(), mmi, pop, bins)
        rows = warning_vs_n(runs_array(results), quake(), AlertParams(), field)
        assert len(rows) == 2 * 2 * 3  # two n, two bins, three stats
        for r in rows:
            if r.n == 300 or r.bin == bins[1]:
                assert r.value_s is None and r.band_lo_s is None
            else:
                assert r.value_s is not None

    def test_detection_time_shift_metamorphic(self):
        rng = np.random.default_rng(53)
        pop, mmi = small_scenario(rng)
        eq, vm, ap = quake(), VelocityModel(), AlertParams()
        field = warning_field(eq, vm, mmi, pop, [MmiBin(6.0, 9.5)])
        base = runs_array([result(300, i, delay=3.0 + 0.2 * i) for i in range(5)])
        shifted = runs_array([result(300, i, delay=4.0 + 0.2 * i) for i in range(5)])
        base = warning_vs_n(base, eq, ap, field)
        shifted = warning_vs_n(shifted, eq, ap, field)
        for a, b in zip(base, shifted):
            assert b.value_s == pytest.approx(a.value_s - 1.0, abs=1e-9)

    def test_more_phones_never_hurts_mean_warning(self):
        # earlier detection (smaller delays at larger n) => larger warning times
        rng = np.random.default_rng(55)
        pop, mmi = small_scenario(rng)
        results = [result(300, i, delay=5.0 + 0.1 * i) for i in range(10)]
        results += [result(1200, i, delay=3.0 + 0.1 * i) for i in range(10)]
        field = warning_field(quake(), VelocityModel(), mmi, pop, [MmiBin(6.0, 9.5)])
        rows = warning_vs_n(runs_array(results), quake(), AlertParams(), field)
        means = {r.n: r.value_s for r in rows if r.stat == "mean"}
        assert means[1200] > means[300]


    @pytest.mark.parametrize("latency", [0.0, 1.5])
    def test_matches_per_replica_oracle(self, latency):
        rng = np.random.default_rng(57)
        pop, mmi = small_scenario(rng)
        eq, vm, ap = quake(), VelocityModel(), AlertParams(latency)
        bins = [MmiBin(6.0, 7.0), MmiBin(7.0, 8.0), MmiBin(8.0, 9.5), MmiBin(11.0, 12.0)]
        results = [result(n, i, delay=rng.uniform(2.0, 25.0)) for n in (300, 600)
                   for i in range(12)]
        results += [result(600, 12), result(900, 0)]
        field = warning_field(eq, vm, mmi, pop, bins)
        rows = warning_vs_n(runs_array(results), eq, ap, field)
        want = warning_vs_n_oracle(runs_array(results), eq, ap, field)
        assert [(r.n, r.bin, r.stat) for r in rows] == [(r.n, r.bin, r.stat) for r in want]
        for got, ref in zip(rows, want):
            for field in ("value_s", "band_lo_s", "band_hi_s"):
                a, b = getattr(got, field), getattr(ref, field)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a == pytest.approx(b, rel=0.0, abs=1e-12)
        # the blind zone is covered: some replicas warn some cells too late
        p2_5 = [r.band_lo_s for r in rows if r.stat == "p2_5" and r.value_s is not None]
        p97_5 = [r.band_hi_s for r in rows if r.stat == "p97_5" and r.value_s is not None]
        assert min(p2_5) < 0 < max(p97_5)


@st.composite
def warning_cases(draw):
    """A field with one empty bin, and runs with repeated delays over a few n."""
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = nrows * ncols
    # populations stay normal floats: a subnormal weight (5e-324) makes
    # np.average lose its digits in both forms of the mean
    pops = draw(st.lists(st.sampled_from([0.0, 1.0, 3.5]) | st.floats(1e-3, 1e4),
                         min_size=cells, max_size=cells))
    mmis = draw(st.lists(st.floats(6.0, 9.5), min_size=cells, max_size=cells))
    cellsize = draw(st.floats(0.001, 0.5))
    pop = make_grid(np.reshape(pops, (nrows, ncols)), xll=-73.0, yll=17.9, cellsize=cellsize)
    mmi = make_grid(np.reshape(mmis, (nrows, ncols)), xll=-73.0, yll=17.9, cellsize=cellsize)
    cut = draw(st.floats(6.0, 9.5, exclude_min=True, exclude_max=True))
    bins = [MmiBin(6.0, cut, lo_open=False), MmiBin(cut, 9.5), MmiBin(11.0, 12.0)]
    eq = quake(depth=draw(st.floats(0.0, 40.0)))
    field = warning_field(eq, VelocityModel(), mmi, pop, bins)
    pool = draw(st.lists(st.floats(0.0, 60.0), min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.sampled_from([300, 600, 900]),
                                    st.none() | st.sampled_from(pool)),
                          min_size=1, max_size=15))
    runs = runs_array([result(n, i, delay=d) for i, (n, d) in enumerate(picks)])
    latency = draw(st.just(0.0) | st.floats(0.0, 10.0))
    return eq, field, runs, AlertParams(latency)


@given(warning_cases())
def test_warning_vs_n_matches_oracle_by_shift_identity(case):
    eq, field, runs, ap = case
    rows = warning_vs_n(runs, eq, ap, field)
    want = warning_vs_n_oracle(runs, eq, ap, field)
    assert [(r.n, r.bin, r.stat) for r in rows] == [(r.n, r.bin, r.stat) for r in want]
    s_max = max((float(np.abs(s).max()) for s in field.s_arrivals if s.size), default=0.0)
    scale = s_max + float(np.nanmax(runs.delay_s, initial=0.0)) + ap.dissemination_latency_s
    for got, ref in zip(rows, want):
        for name in ("value_s", "band_lo_s", "band_hi_s"):
            a, b = getattr(got, name), getattr(ref, name)
            if got.stat == "mean" and a is not None and b is not None:
                assert abs(a - b) <= MEAN_EPS * scale
            else:
                assert a == b


@pytest.mark.parametrize("ns, replicas", [((300,), 1), ((300, 600, 900), 7)])
def test_weighted_percentiles_run_once_per_bin(monkeypatch, ns, replicas):
    rng = np.random.default_rng(59)
    pop, mmi = small_scenario(rng)
    bins = [MmiBin(6.0, 7.5), MmiBin(7.5, 9.5), MmiBin(11.0, 12.0)]
    field = warning_field(quake(), VelocityModel(), mmi, pop, bins)
    nonempty = sum(s.size > 0 for s in field.s_arrivals)
    assert nonempty == 2
    calls = []

    def counting(*args):
        calls.append(args)
        return weighted_percentile(*args)

    monkeypatch.setattr("eewsim.warning.weighted_percentile", counting)
    runs = runs_array([result(n, i, delay=rng.uniform(2.0, 25.0))
                       for n in ns for i in range(replicas)])
    rows = warning_vs_n(runs, quake(), AlertParams(0.5), field)
    assert len(rows) == len(ns) * len(bins) * 3
    assert len(calls) == 2 * nonempty


class TestModeConditioned:
    def test_uses_density_mode_and_mean_time(self):
        spec = make_grid(np.zeros((10, 10)), xll=-73.0, yll=17.9, cellsize=0.12)
        results = runs_array([(300, i, (2.0 + i, 1.0, 18.43, -72.49)) for i in range(3)])
        det, density = mode_conditioned_detection(results, 300, quake(), spec, 0.05)
        assert det.time_s == pytest.approx(3.0)
        assert det.location == density.mode

    def test_no_detections(self):
        with pytest.raises(EewsimError, match=r"^no detected replica at n=300$"):
            mode_conditioned_detection(
                runs_array([(300, 0, None)]), 300, quake(),
                make_grid(np.zeros((4, 4))),
            )
