"""Golden digests of the demo run: any change to an output byte fails here.

Reruns being byte-identical only shows that a run is deterministic; these
digests also catch a change that moves every run the same way. A change
that alters outputs on purpose must update the digests and say why.

Recorded with numpy 2.4.6 on Python 3.11 (x86-64). The random draws
depend on numpy's SeedSequence hash, the Philox cipher and the formulas
in ``eewsim.network`` on its raw words, not on ``Generator`` method
internals, which NumPy's NEP 19 does not promise to keep across
releases; only a replica whose network draw meets a Lemire rejection
takes ``Generator.integers``. Another numpy release may still round
``exp``, ``sin`` or ``arcsin`` differently, and then fail here without
any change to eewsim.
"""

import hashlib

import pytest

from eewsim.cli import main
from eewsim.demo import write_demo

# The five density_n*.asc digests were re-recorded when the detection
# density moved to the separable kernel (two exp factor matrices contracted
# with einsum instead of one exp per detection and cell). That moved cell
# values by at most 4e-16 of the grid maximum and no mode cell; every other
# digest is unchanged. They were re-recorded again when the density began
# to flush cells below float64 eps x the grid peak to 0.0 before it
# renormalizes: again only the density cells moved, by at most 4e-16 of
# the grid maximum, and no mode cell. The warning_vs_n.csv digest was
# re-recorded when its mean rows began to take each bin's weighted mean S
# arrival once and shift it per replica, instead of averaging the shifted
# cells per replica: 33 of the 45 mean-row values moved, by at most
# 2.7e-15 s; every other digest is unchanged.
GOLDEN_SHA256 = {
    "catalog.csv": "d64a6de396984edaf33de7aeb9f16cf6a4237afb264af838c2d870803c94d100",
    "density_n300.asc": "ede0c4a9178df4e6d03d64d65d22ee0bca583e74ec57a27a92eee5ceff358ce7",
    "density_n600.asc": "8ed6131e1c73c5b4cc7ee1a77f17a4ea47ba3af44235e054010044f5b6f1bfcc",
    "density_n1200.asc": "0ac3c92ffaba5ae0274a5b3c1ff53f39eb01e69617e247914733fef47f15dc18",
    "density_n2400.asc": "344efd731a10a9ad465ebe94ba99502974ba31e85cd607a963e1f62a97859fb8",
    "density_n3000.asc": "13289be89c0a1ead431edeead1cd1240b7745f9ce44b27aaa33315d6ee3480cc",
    "exposure.csv": "b6fe4d07e14896aa74873acc76afed7de0c6c582f4540f66559185487a485392",
    "runs.csv": "1feb1da24f41603923eb63ebfb71e082289ce4623a95c96985ea65879c4084cc",
    "summary.csv": "74b15a14e16fdb08ccf06cb4f222d809020939e51fd001650812bb213fef01d8",
    "warning_hist.csv": "4773af6fb2f870cfa2533d75252b62b929c03cf8a946a1b3e498bfa3404dfa13",
    "warning_vs_n.csv": "d36e0546d0c9b0eec1630efd6959caa090d855ef2184801d3794f596ac6ceffe",
}


@pytest.fixture(scope="module")
def demo_outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    config = write_demo(root)
    assert main(["all", "--config", str(config), "--quiet"]) == 0
    return root / "out"


def test_demo_output_set(demo_outputs):
    assert sorted(p.name for p in demo_outputs.iterdir()) == sorted(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_demo_output_digest(demo_outputs, name):
    digest = hashlib.sha256((demo_outputs / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name]
