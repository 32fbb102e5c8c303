import os

import pytest
from hypothesis import settings

from eewsim.demo import build_mmi_grid, build_population_grid
from eewsim.geo import GeoPoint
from eewsim.network import synth_catalog
from eewsim.scenario import Earthquake, VelocityModel

# CI runs the property tests with HYPOTHESIS_PROFILE=ci: the same examples on
# every run, and no per-example deadline to trip on a slow runner
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def demo_pop():
    return build_population_grid()


@pytest.fixture(scope="session")
def demo_mmi():
    return build_mmi_grid()


@pytest.fixture(scope="session")
def demo_catalog(demo_pop):
    return synth_catalog(demo_pop, 6202, 20100112)


@pytest.fixture(scope="session")
def demo_quake():
    return Earthquake(
        epicenter=GeoPoint(18.457, -72.533), depth_km=10.0, magnitude=7.0
    )


@pytest.fixture(scope="session")
def vmodel():
    return VelocityModel()
