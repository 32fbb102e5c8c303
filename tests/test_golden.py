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
# the grid maximum, and no mode cell. They were re-recorded a third time
# when each factor row began to drop its entries below eps/m of the row's
# maximum, with the contraction run only on the box of rows and columns
# that still hold a non-zero factor: cells moved by at most 1.8e-19 of the
# grid maximum, and no mode cell and no zero cell changed. The
# warning_vs_n.csv digest was re-recorded when its mean rows began to take
# each bin's weighted mean S arrival once and shift it per replica, instead
# of averaging the shifted cells per replica: 33 of the 45 mean-row values
# moved, by at most 2.7e-15 s; every other digest is unchanged.
GOLDEN_SHA256 = {
    "catalog.csv": "d64a6de396984edaf33de7aeb9f16cf6a4237afb264af838c2d870803c94d100",
    "density_n300.asc": "06131496e0e2edf29f011f9b93be049d894d62611ee97f605defe4185c71791c",
    "density_n600.asc": "c1e518f2d93fd7b20d563ee792cd14d967ca6d23a797b44d3ae78cbae15532d4",
    "density_n1200.asc": "be47fa150268c6aad0e7570822c866d2fd781afb5d399c100889e343b55c2000",
    "density_n2400.asc": "1142b8ff5509168cdbcfae93fc59329ee777f5131809324bb5651b2bbd91f09f",
    "density_n3000.asc": "5748b8bb701afbf18c8efbde51df764c6dd1afc8125a741e007748c4b895ac7d",
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
