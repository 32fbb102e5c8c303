"""Hostile numbers in any input file: exit 0, or exit 2 with one line.

Each example makes 1-3 edits to one input of the demo run (``n_grid =
300,600``, 3 replicas, the catalog read from a CSV): it replaces a token
with a hostile value, or deletes or duplicates a line. Then ``eewsim all``
(``warn`` for an edited ``runs.csv``) runs in process with every warning an
error. It must exit 0, or exit 2 with exactly one stderr line and leave the
output directory as it was.
"""

import contextlib
import io
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from eewsim.cli import main
from eewsim.demo import write_demo

HOSTILE = (
    "1e309", "-1e309", "inf", "-inf", "nan", "-nan", "5e-324", "-5e-324", "1e308", "-1e308",
    "1.7976931348623157e308", "1e-300", "0", "-0.0", "-1", "2.5", "1_0", "0x10", "1e16",
    "99999999999999999999", "18446744073709551616", "-9223372036854775809", "1" + "0" * 400,
    "\x00", "\ufeff", "\ufeff1", "\uff11", "", "abc", "true", "-9999", "=", "[x]", "%", " ",
)

FILES = ("run.ini", "pop.asc", "mmi.asc", "catalog.csv", "out/runs.csv")

# (kind, line, token, value): a line index and a token index taken modulo
# the counts in the text the edit meets
EDIT = st.tuples(
    st.sampled_from(["replace", "replace", "replace", "delete", "duplicate"]),
    st.integers(0, 10**6), st.integers(0, 10), st.sampled_from(HOSTILE),
)

_TOKEN = re.compile(r"[^\s,=]+")


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The demo inputs with a CSV catalog, and the runs.csv ``simulate`` wrote."""
    d = tmp_path_factory.mktemp("hostile")
    write_demo(d, n_grid=(300, 600), replicas=3)
    assert main(["synth", "--config", str(d / "run.ini"), "--quiet"]) == 0
    shutil.move(d / "out" / "catalog.csv", d / "catalog.csv")
    config = (d / "run.ini").read_text(encoding="utf-8")
    config = re.sub(r"synth_n = .*\nsynth_seed = .*\n", "path = catalog.csv\n", config)
    (d / "run.ini").write_text(config, encoding="utf-8")
    assert main(["simulate", "--config", str(d / "run.ini"), "--quiet"]) == 0
    return d


def edit(text: str, edits) -> str:
    lines = text.split("\n")
    for kind, i, j, value in edits:
        i %= len(lines)
        if kind == "delete":
            del lines[i]
            lines = lines or [""]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            spans = [m.span() for m in _TOKEN.finditer(lines[i])] or [(0, len(lines[i]))]
            a, b = spans[j % len(spans)]
            lines[i] = lines[i][:a] + value + lines[i][b:]
    return "\n".join(lines)


def snapshot(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out.iterdir()}


def run_edited(base: Path, name: str, edits, argv=()) -> tuple[int, str, bool]:
    """(exit code, stderr, whether out/ is unchanged) of one edited run.

    The run's directory reads ``<dir>`` in stderr.
    """
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "run"
        shutil.copytree(base, d)
        path = d / name
        text = edit(path.read_text(encoding="utf-8"), edits)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        before = snapshot(d / "out")
        command = "warn" if name == "out/runs.csv" else "all"
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main([command, "--config", str(d / "run.ini"), "--replicas", "3", "--quiet",
                         *argv])
        return code, stderr.getvalue().replace(str(d), "<dir>"), snapshot(d / "out") == before


SEED_RULE = "must be in [0, 18446744073709551616)"
TIME_RULE = "must be in (-9007199254740992, 9007199254740992)"

# (file, edits, extra argv, message) of inputs that exit 2: first the four
# hostile classes that once exited 0 or 1, then other numbers that once
# raised, warned or wrote a meaningless geometry
REJECTED = {
    "nrows-1e309": ("pop.asc", [("replace", 1, 1, "1e309")], [],
                    "<dir>/pop.asc: header nrows must be finite and >= 1, got inf"),
    "xllcorner-inf": ("pop.asc", [("replace", 2, 1, "-inf")], [],
                      "<dir>/pop.asc: xllcorner must be in [-360, 360], got -inf"),
    "negative-delay": ("out/runs.csv", [("replace", 1, 3, "-1e308")], [],
                       "<dir>/out/runs.csv: runs.csv line 2: delay_s must be >= 0, got -1e+308"),
    "v_s-5e-324": ("run.ini", [("replace", 8, 1, "5e-324")], [],
                   "<dir>/run.ini: v_s_km_s must be > 2.331979369570763e-12, got 5e-324"),
    "cellsize-1e20": ("pop.asc", [("replace", 4, 1, "99999999999999999999")], [],
                      "<dir>/pop.asc: top row latitude must be <= 90, got 1.195e+22"),
    "mmi-xllcorner-1e20": ("mmi.asc", [("replace", 2, 1, "99999999999999999999")], [],
                           "<dir>/mmi.asc: xllcorner must be in [-360, 360], got 1e+20"),
    "origin-1e308": ("run.ini", [("replace", 6, 1, "1e308")], [],
                     f"<dir>/run.ini: origin_time_s {TIME_RULE}, got 1e+308"),
    "latency-1e308": ("run.ini", [("replace", 27, 1, "1e308")], [],  # an fsum overflow
                      "|warning time / hist_width_s| must be < 9007199254740992, got 1e+308"),
    "bandwidth-5e-324": ("run.ini", [("replace", 39, 1, "5e-324")], [],  # a ZeroDivisionError
                         "density bandwidth 5e-324 deg underflows to zero when squared"),
    # v_s_km_s, then v_p_km_s: the P arrivals overflowed in every replica
    "v_p-5e-320": ("run.ini", [("replace", 8, 1, "1e-320"), ("replace", 7, 1, "5e-320")], [],
                   "<dir>/run.ini: v_s_km_s must be > 2.331979369570763e-12, got 1e-320"),
    # ints are compared exactly, never converted to float
    "master_seed-2**64": ("run.ini", [("replace", 32, 1, str(2**64))], [],
                          f"<dir>/run.ini: [campaign] master_seed {SEED_RULE}, got {2**64}"),
    "seed-minus-1": ("run.ini", [], ["--seed", "-1"], f"--seed {SEED_RULE}, got -1"),
}


@pytest.mark.parametrize("case", list(REJECTED))
def test_rejected_input_exits_2_with_its_message(base, case):
    name, edits, argv, message = REJECTED[case]
    code, err, unchanged = run_edited(base, name, edits, argv)
    assert (code, err, unchanged) == (2, f"error: {message}\n", True)


@pytest.mark.parametrize("name, edits, argv", [
    ("run.ini", [("replace", 23, 1, "1" + "0" * 400)], []),  # k_min: no window ever fills
    ("run.ini", [], ["--seed", str(2**64 - 1)]),
    ("mmi.asc", [("replace", 4, 1, "5e-324")], []),  # no population cell lands on it
], ids=["k_min-1e400", "seed-2**64-1", "mmi-cellsize-5e-324"])
def test_extreme_valid_input_exits_0(base, name, edits, argv):
    code, err, _ = run_edited(base, name, edits, argv)
    assert (code, err) == (0, "")


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(FILES), edits=st.lists(EDIT, min_size=1, max_size=3))
@example(*REJECTED["nrows-1e309"][:2])
@example(*REJECTED["xllcorner-inf"][:2])
@example(*REJECTED["negative-delay"][:2])
@example(*REJECTED["v_s-5e-324"][:2])
def test_hostile_input_exits_0_or_2_with_one_line(base, name, edits):
    code, err, unchanged = run_edited(base, name, edits)
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert unchanged
