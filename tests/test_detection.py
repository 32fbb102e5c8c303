import numpy as np
import pytest
from scipy import stats

from eewsim.detection import (
    Detection,
    DetectorParams,
    PhoneParams,
    Triggers,
    detect,
    detection_metrics,
    simulate_triggers,
)
from eewsim.errors import EewsimError
from eewsim.geo import GeoPoint
from eewsim.network import Catalog, Network, SeedSpec, sample_network
from eewsim.scenario import Earthquake, VelocityModel, p_arrivals_s
from testutil import detect_oracle, p_arrival_s, random_triggers, sorted_triggers


def quake(depth=0.0, origin=0.0, lat=18.0, lon=-72.0):
    return Earthquake(epicenter=GeoPoint(lat, lon), depth_km=depth, origin_time_s=origin)


def net_of(points):
    return Network(
        lats=np.array([p.lat for p in points]),
        lons=np.array([p.lon for p in points]),
        catalog_indices=np.arange(len(points)),
    )


def triggers_at(times):
    # deliberately unsorted-capable: the caller's order is kept
    m = len(times)
    return Triggers(np.asarray(times, dtype=float), np.full(m, 18.0), np.full(m, -72.0))


class TestParams:
    def test_phone_params_validated(self):
        with pytest.raises(ValueError):
            PhoneParams(p_detect=1.5)
        with pytest.raises(ValueError):
            PhoneParams(delay_lo_s=2.0, delay_hi_s=1.0)
        with pytest.raises(ValueError):
            PhoneParams(delay_lo_s=-0.1)

    def test_detector_params_validated(self):
        with pytest.raises(ValueError):
            DetectorParams(k_min=1)
        with pytest.raises(ValueError):
            DetectorParams(window_s=0.0)


class TestSimulateTriggers:
    def test_p_detect_zero_gives_nothing(self):
        net = net_of([GeoPoint(18.1, -72.1)] * 5)
        out = simulate_triggers(net, quake(), VelocityModel(), PhoneParams(p_detect=0.0),
                                SeedSpec(1, 5, 0))
        assert len(out) == 0

    def test_degenerate_delay_exact_time(self):
        # phone at hypocentral 65 km (depth 65, at epicenter), v_p 6.5, delay 1.0
        eq = quake(depth=65.0)
        net = net_of([eq.epicenter])
        pp = PhoneParams(p_detect=1.0, delay_lo_s=1.0, delay_hi_s=1.0)
        out = simulate_triggers(net, eq, VelocityModel(), pp, SeedSpec(1, 1, 0))
        assert len(out) == 1
        assert out.times[0] == pytest.approx(11.0, abs=1e-12)

    def test_sorted_with_tie_break(self):
        rng = np.random.default_rng(17)
        cat = Catalog(lats=rng.uniform(17, 20, 400), lons=rng.uniform(-74, -71, 400))
        spec = SeedSpec(7, 200, 0)
        net = sample_network(cat, 200, spec)
        out = simulate_triggers(net, quake(depth=10), VelocityModel(), PhoneParams(),
                                spec)
        keys = list(zip(out.times.tolist(), out.lats.tolist(), out.lons.tolist()))
        assert keys == sorted(keys)

    def test_exact_time_ties_sorted_by_lat_lon(self):
        # phones mirrored in longitude about an epicenter at lon 0 share
        # their exact P arrival; with a fixed delay their trigger times tie
        # exactly, so (lat, lon) must break the ties. The east phone comes
        # first in the network, so keeping network order would be wrong.
        lats = np.repeat([0.5, 0.2, 0.9, 0.2], 2)
        lons = np.array([0.3, -0.3, 0.7, -0.7, 0.1, -0.1, 0.4, -0.4])
        net = Network(lats=lats, lons=lons, catalog_indices=np.arange(lats.size))
        eq = quake(depth=8.0, lat=0.0, lon=0.0)
        pp = PhoneParams(p_detect=1.0, delay_lo_s=1.5, delay_hi_s=1.5)
        out = simulate_triggers(net, eq, VelocityModel(), pp, SeedSpec(3, lats.size, 0))
        times = p_arrivals_s(eq, VelocityModel(), lats, lons) + 1.5
        assert np.unique(times).size == lats.size // 2
        order = np.lexsort((lons, lats, times))
        for got, want in zip((out.times, out.lats, out.lons), (times, lats, lons)):
            assert got.tolist() == want[order].tolist()

    def test_deterministic(self):
        net = net_of([GeoPoint(18.1, -72.1), GeoPoint(18.2, -72.2), GeoPoint(18.3, -72.3)])
        args = (net, quake(depth=10), VelocityModel(), PhoneParams(), SeedSpec(9, 3, 2))
        a, b = simulate_triggers(*args), simulate_triggers(*args)
        for col in ("times", "lats", "lons"):
            assert np.array_equal(getattr(a, col), getattr(b, col))

    def test_trigger_floor_respected(self):
        eq = quake(depth=12.0)
        vm = VelocityModel()
        pp = PhoneParams()
        rng = np.random.default_rng(31)
        pts = [GeoPoint(rng.uniform(17, 20), rng.uniform(-74, -71)) for _ in range(50)]
        out = simulate_triggers(net_of(pts), eq, vm, pp, SeedSpec(3, 50, 1))
        for t, lat, lon in zip(out.times, out.lats, out.lons):
            floor = p_arrival_s(eq, vm, GeoPoint(lat, lon)) + pp.delay_lo_s
            assert t >= floor - 1e-12

    def test_trigger_count_binomial(self):
        # n=1000 at p_detect=0.7: total over 100 seeds within the exact 99% interval
        rng = np.random.default_rng(41)
        cat = Catalog(lats=rng.uniform(17, 20, 1500), lons=rng.uniform(-74, -71, 1500))
        eq, vm, pp = quake(depth=10), VelocityModel(), PhoneParams()
        total = 0
        for replica in range(100):
            spec = SeedSpec(555, 1000, replica)
            net = sample_network(cat, 1000, spec)
            total += len(simulate_triggers(net, eq, vm, pp, spec))
        lo, hi = stats.binom.ppf([0.005, 0.995], 100 * 1000, 0.7)
        assert lo <= total <= hi


class TestDetect:
    def test_three_in_window(self):
        det = detect(triggers_at([1, 2, 3]), DetectorParams(k_min=3, window_s=10))
        assert det is not None
        assert det.time_s == 3.0
        assert det.contributing == (0, 1, 2)

    def test_sparse_no_detection(self):
        assert detect(triggers_at([1, 5, 9]), DetectorParams(k_min=3, window_s=1)) is None

    def test_empty_input(self):
        assert detect(triggers_at([]), DetectorParams(k_min=2, window_s=5)) is None

    def test_window_half_open(self):
        # (t_j - W, t_j]: a trigger exactly W before t_j is outside
        dp = DetectorParams(k_min=2, window_s=1.0)
        assert detect(triggers_at([0.0, 1.0]), dp) is None
        assert detect(triggers_at([0.0, 0.999]), dp) is not None

    def test_unsorted_rejected(self):
        with pytest.raises(EewsimError, match=r"^triggers must be sorted ascending by time$"):
            detect(triggers_at([2, 1, 3]), DetectorParams(k_min=2, window_s=5))

    def test_median_location_odd_and_even(self):
        trig = sorted_triggers([1.0, 2.0, 3.0], [18.0, 18.2, 18.6], [-72.0, -72.4, -72.2])
        det = detect(trig, DetectorParams(k_min=3, window_s=10))
        assert det.location == GeoPoint(18.2, -72.2)
        trig2 = sorted_triggers([1.0, 2.0, 3.0, 4.0], [18.0, 18.2, 18.4, 18.8],
                                [-72.0, -72.4, -72.3, -72.1])
        det2 = detect(trig2, DetectorParams(k_min=4, window_s=10))
        assert det2.location == GeoPoint((18.2 + 18.4) / 2, (-72.3 + -72.1) / 2)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(101)
        checked_detections = 0
        for _ in range(300):
            trig = random_triggers(rng, int(rng.integers(0, 21)))
            k_min = int(rng.integers(2, 7))
            # times are multiples of 0.1, so these windows land exactly on
            # trigger spacings and probe the half-open window's closed end
            if rng.random() < 0.3:
                window = float(rng.choice([0.5, 1.0, 2.0]))
            else:
                window = float(rng.uniform(0.5, 12.0))
            got = detect(trig, DetectorParams(k_min=k_min, window_s=window))
            want = detect_oracle(trig, k_min, window)
            if want is None:
                assert got is None
                continue
            checked_detections += 1
            assert got.time_s == want[0]
            assert got.contributing == want[1]
            assert (got.location.lat, got.location.lon) == (want[2], want[3])
        assert checked_detections > 50

    def test_equal_time_permutation_invariance(self):
        # after the canonical (time, lat, lon) sort, the original order of
        # simultaneous triggers cannot matter
        rng = np.random.default_rng(59)
        base = random_triggers(rng, 12)
        dp = DetectorParams(k_min=3, window_s=4.0)
        want = detect(base, dp)
        for _ in range(20):
            perm = rng.permutation(len(base))
            shuffled = sorted_triggers(base.times[perm], base.lats[perm], base.lons[perm])
            assert detect(shuffled, dp) == want

    def test_adding_trigger_never_delays_detection(self):
        rng = np.random.default_rng(67)
        dp = DetectorParams(k_min=3, window_s=5.0)
        for _ in range(100):
            trig = random_triggers(rng, int(rng.integers(3, 15)))
            before = detect(trig, dp)
            extra = random_triggers(rng, 1)
            augmented = sorted_triggers(
                *(np.concatenate([getattr(trig, c), getattr(extra, c)])
                  for c in ("times", "lats", "lons"))
            )
            after = detect(augmented, dp)
            if before is not None:
                assert after is not None
                assert after.time_s <= before.time_s


class TestDetectionMetrics:
    def test_delay(self):
        det = Detection(time_s=12.0, location=GeoPoint(18, -72), contributing=(0,))
        delay, dist = detection_metrics(det, quake(origin=0.0))
        assert delay == 12.0
        assert dist == 0.0

    def test_distance_half_degree_north(self):
        det = Detection(time_s=5.0, location=GeoPoint(18.5, -72.0), contributing=(0,))
        _, dist = detection_metrics(det, quake())
        assert dist == pytest.approx(111.19492664455873 / 2, abs=1e-3)
