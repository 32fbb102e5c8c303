import math
import re

import numpy as np
import pytest

from eewsim.errors import EewsimError
from eewsim.geo import GeoPoint, haversine_km
from eewsim.scenario import Earthquake, VelocityModel, p_arrivals_s, s_arrivals_s
from testutil import hypocentral_km, p_arrival_s, s_arrival_s


def quake(lat=18.0, lon=-72.0, depth=10.0, origin=0.0):
    return Earthquake(epicenter=GeoPoint(lat, lon), depth_km=depth, origin_time_s=origin)


class TestValidation:
    def test_negative_depth_rejected(self):
        with pytest.raises(EewsimError, match=r"^depth_km must be in \[0, 6371\.0\], got -1\.0$"):
            quake(depth=-1.0)
        # no hypocenter lies below the center of the Earth
        with pytest.raises(EewsimError, match=r"^depth_km must be in \[0, 6371\.0\], got 1e\+308$"):
            quake(depth=1e308)

    def test_origin_time_resolves_a_second(self):
        rule = r"origin_time_s must be in \(-9007199254740992, 9007199254740992\)"
        for t in (2.0**53, -1e308, math.inf):
            with pytest.raises(EewsimError, match=rf"^{rule}, got {re.escape(str(t))}$"):
                quake(origin=t)
        assert quake(origin=2.0**53 - 1).origin_time_s == 2.0**53 - 1

    def test_velocity_ordering_enforced(self):
        with pytest.raises(EewsimError, match=r"^v_p_km_s must be > 3\.5, got 3\.0$"):
            VelocityModel(v_p_km_s=3.0, v_s_km_s=3.5)
        # the slowest speed crosses hypot(pi R, R) km in under 2**53 s
        rule = r"v_s_km_s must be > 2\.331979369570763e-12"
        with pytest.raises(EewsimError, match=rf"^{rule}, got 0\.0$"):
            VelocityModel(v_p_km_s=6.5, v_s_km_s=0.0)
        with pytest.raises(EewsimError, match=rf"^{rule}, got 5e-324$"):
            VelocityModel(v_p_km_s=6.5, v_s_km_s=5e-324)
        VelocityModel(v_p_km_s=6.5, v_s_km_s=2.4e-12)


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
