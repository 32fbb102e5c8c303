"""Golden digests of the demo run: any change to an output byte fails here.

Reruns being byte-identical only shows that a run is deterministic; these
digests also catch a change that moves every run the same way. A change
that alters outputs on purpose must update the digests and say why.

Recorded with numpy 2.4.6 on Python 3.11 (x86-64). Another numpy release
may draw different random streams or round differently, and then fail
here without any change to eewsim.
"""

import hashlib

import pytest

from eewsim.cli import main
from eewsim.demo import write_demo

GOLDEN_SHA256 = {
    "catalog.csv": "d64a6de396984edaf33de7aeb9f16cf6a4237afb264af838c2d870803c94d100",
    "density_n300.asc": "5a802b06f5a6a020528de406f43bf621a99a3e7b7b533efda4033f7b6786f02d",
    "density_n600.asc": "37d9adf294caa5213e4aa2c99264e570bcb8162850a15ffb3cc9ee3494775539",
    "density_n1200.asc": "8e06344cdf744071d6c5e1b2bc4da959aeaa154d623771ebca90f9f71392332e",
    "density_n2400.asc": "33563a2990b4a5e96dc5d3417980d2ddb41dc1a39f6fa2551ef09b4e17432dd7",
    "density_n3000.asc": "dc1aa50c4c75cc93cb5dd824d8c7cf85f2ebaf14409950dd26a934528893c96b",
    "exposure.csv": "b6fe4d07e14896aa74873acc76afed7de0c6c582f4540f66559185487a485392",
    "runs.csv": "1feb1da24f41603923eb63ebfb71e082289ce4623a95c96985ea65879c4084cc",
    "summary.csv": "74b15a14e16fdb08ccf06cb4f222d809020939e51fd001650812bb213fef01d8",
    "warning_hist.csv": "4773af6fb2f870cfa2533d75252b62b929c03cf8a946a1b3e498bfa3404dfa13",
    "warning_vs_n.csv": "f5e9e9d6cba1f495cec1bf2654460b4ec1aef155a70983c22b1f45f16dcf173f",
}


@pytest.fixture(scope="module")
def demo_outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    config = write_demo(root)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("EEWSIM_THREADS", "1")
        assert main(["all", "--config", str(config), "--quiet"]) == 0
    return root / "out"


def test_demo_output_set(demo_outputs):
    assert sorted(p.name for p in demo_outputs.iterdir()) == sorted(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_demo_output_digest(demo_outputs, name):
    digest = hashlib.sha256((demo_outputs / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name]
