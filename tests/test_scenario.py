import numpy as np
import pytest

from eewsim.geo import GeoPoint, haversine_km
from eewsim.scenario import Earthquake, VelocityModel, p_arrivals_s, s_arrivals_s
from testutil import hypocentral_km, p_arrival_s, s_arrival_s


def quake(lat=18.0, lon=-72.0, depth=10.0, origin=0.0):
    return Earthquake(epicenter=GeoPoint(lat, lon), depth_km=depth, origin_time_s=origin)


class TestValidation:
    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            quake(depth=-1.0)

    def test_velocity_ordering_enforced(self):
        with pytest.raises(ValueError):
            VelocityModel(v_p_km_s=3.0, v_s_km_s=3.5)
        with pytest.raises(ValueError):
            VelocityModel(v_p_km_s=6.5, v_s_km_s=0.0)


class TestHypocentral:
    def test_pythagorean_triple(self):
        # find a surface point ~3 km from the epicenter, depth 4 -> 5
        eq = quake(depth=4.0)
        p = GeoPoint(18.0 + 3.0 / 111.19492664455873, -72.0)
        assert haversine_km(eq.epicenter, p) == pytest.approx(3.0, abs=1e-9)
        assert hypocentral_km(eq, p) == pytest.approx(5.0, abs=1e-9)

    def test_at_epicenter_equals_depth(self):
        eq = quake(depth=10.0)
        assert hypocentral_km(eq, eq.epicenter) == 10.0

    def test_zero_depth_degenerates_to_haversine(self):
        eq = quake(depth=0.0)
        p = GeoPoint(18.7, -72.4)
        assert hypocentral_km(eq, p) == haversine_km(eq.epicenter, p)


class TestArrivals:
    def test_p_arrival_arithmetic(self):
        # hypocentral 65 km: depth 65, point at epicenter
        eq = quake(depth=65.0)
        vm = VelocityModel(v_p_km_s=6.5, v_s_km_s=3.5)
        assert p_arrival_s(eq, vm, eq.epicenter) == pytest.approx(10.0, abs=1e-12)

    def test_p_arrival_with_origin_offset(self):
        eq = quake(depth=13.0, origin=5.0)
        vm = VelocityModel(v_p_km_s=6.5, v_s_km_s=3.5)
        assert p_arrival_s(eq, vm, eq.epicenter) == pytest.approx(7.0, abs=1e-12)

    def test_s_arrival_arithmetic(self):
        eq = quake(depth=35.0)
        vm = VelocityModel(v_p_km_s=6.5, v_s_km_s=3.5)
        assert s_arrival_s(eq, vm, eq.epicenter) == pytest.approx(10.0, abs=1e-12)

    def test_zero_distance_gives_origin_time(self):
        eq = quake(depth=0.0, origin=3.25)
        vm = VelocityModel()
        assert p_arrival_s(eq, vm, eq.epicenter) == 3.25
        assert s_arrival_s(eq, vm, eq.epicenter) == 3.25

    def test_s_after_p_everywhere(self):
        rng = np.random.default_rng(23)
        eq = quake(depth=8.0)
        vm = VelocityModel()
        for _ in range(100):
            p = GeoPoint(rng.uniform(17, 21), rng.uniform(-75, -70))
            tp = p_arrival_s(eq, vm, p)
            ts = s_arrival_s(eq, vm, p)
            assert ts > tp  # depth > 0 so hypocentral distance never vanishes
            gap = hypocentral_km(eq, p) * (1 / vm.v_s_km_s - 1 / vm.v_p_km_s)
            assert ts - tp == pytest.approx(gap, rel=1e-12)

    def test_monotone_in_epicentral_distance(self):
        eq = quake(depth=12.0)
        vm = VelocityModel()
        lats = 18.0 + np.linspace(0.0, 2.0, 40)
        tp = p_arrivals_s(eq, vm, lats, np.full_like(lats, -72.0))
        ts = s_arrivals_s(eq, vm, lats, np.full_like(lats, -72.0))
        assert (np.diff(tp) >= 0).all()
        assert (np.diff(ts) >= 0).all()

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(29)
        eq = quake(depth=7.0, origin=1.0)
        vm = VelocityModel()
        lats = rng.uniform(17, 21, size=30)
        lons = rng.uniform(-75, -70, size=30)
        tp = p_arrivals_s(eq, vm, lats, lons)
        ts = s_arrivals_s(eq, vm, lats, lons)
        for i in range(30):
            p = GeoPoint(lats[i], lons[i])
            assert tp[i] == p_arrival_s(eq, vm, p)
            assert ts[i] == s_arrival_s(eq, vm, p)
