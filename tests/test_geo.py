import csv
import io
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from eewsim import geo
from eewsim.errors import EewsimError
from eewsim.geo import (
    EARTH_RADIUS_KM,
    GeoPoint,
    Grid,
    MmiBin,
    cell_center,
    cell_indices,
    check_disjoint_bins,
    check_mmi_grid,
    check_population_grid,
    exposure_histogram,
    format_ascii_grid,
    format_csv,
    format_csv_columns,
    haversine_km,
    haversine_km_points,
    map_blocks,
    normalize_lon,
    parse_ascii_grid,
    read_float_rows,
    sample_values,
)
from testutil import (
    LINE_BREAKS_NOT_NEWLINES,
    cut_significant,
    format_ascii_grid_oracle,
    make_grid,
    midpoint_text,
    normalize_lon_scalar,
    parse_ascii_grid_oracle,
    sample_at,
)

ASC_2X2 = """\
ncols 2
nrows 2
xllcorner 0.0
yllcorner 0.0
cellsize 1.0
NODATA_value -9999
1 2
3 4
"""


def _flushed_gaussian() -> np.ndarray:
    """A grid shaped like a detection density: a Gaussian bump whose cells
    below float64 eps of the peak are flushed to +0.0. It holds rows with
    no zero cell, rows with some and rows of zeros only."""
    lat, lon = np.arange(60.0)[:, None], np.arange(50.0)[None, :]
    vals = np.exp(-((lat - 12.3) ** 2 + (lon - 30.7) ** 2) / (2 * 4.0**2))
    vals[vals < np.finfo(np.float64).eps * vals.max()] = 0.0
    return vals / vals.sum()


# grids on which the writer must give the repr-per-cell oracle's text
_WRITER_GRIDS = {
    "all +0.0": np.zeros((3, 4)),
    "all -0.0": np.full((3, 4), -0.0),
    "signed zeros in one row": [[0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, 0.0, 0.0], [0.0] * 4],
    "subnormals": [[5e-324, 0.0, -5e-324], [0.0, -5e-324, 0.0], [5e-324, 5e-324, 5e-324]],
    "nodata": [[-9999.0, 0.0, 0.0], [0.0, -9999.0, -9999.0], [-9999.0] * 3],
    "1x1 +0.0": [[0.0]],
    "1x1 -0.0": [[-0.0]],
    "1x1 value": [[2.5]],
    "1xN": [[0.0, 1e-308, 0.0, 0.0, 3.0, -0.0]],
    "Nx1": [[0.0], [1e-308], [0.0], [-0.0], [7.25]],
    "dense random": np.random.default_rng(8).uniform(-1e3, 1e3, size=(12, 15)),
    "flushed gaussian": _flushed_gaussian(),
}
_CELL = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-308, 1.0, -9999.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestGeoPoint:
    def test_lon_normalized(self):
        assert GeoPoint(0.0, 190.0).lon == -170.0
        assert GeoPoint(0.0, 180.0).lon == -180.0
        assert GeoPoint(0.0, -180.0).lon == -180.0

    def test_in_range_lon_untouched(self):
        assert GeoPoint(18.457, -72.533).lon == -72.533

    def test_lon_just_below_minus_180(self):
        # (lon + 180) % 360 rounds up to 360.0 here, which would give 180.0
        assert normalize_lon(-180.00000000000003) == -180.0
        assert GeoPoint(0.0, -180.00000000000003).lon == -180.0

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-180.00000000000003)
    @example(180.0)
    @example(-1e300)
    def test_normalize_lon_lands_in_range(self, lon):
        out = normalize_lon(lon)
        assert -180.0 <= out < 180.0
        if -180.0 <= lon < 180.0:
            assert out == lon

    def test_array_wrap_equals_scalar_rule(self):
        # every double within 50,000 ulps of +-180 and +-540, and a wide spread
        ulps = np.arange(-50_000, 50_001)
        near = [(np.float64(c).view(np.int64) + ulps).view(np.float64)
                for c in (-540.0, -180.0, 180.0, 540.0)]
        spread = np.random.default_rng(3).uniform(-2000.0, 2000.0, size=20_000)
        lons = np.concatenate([*near, spread])
        want = np.array([normalize_lon_scalar(x) for x in lons.tolist()])
        got = normalize_lon(lons)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        scalar = np.array([normalize_lon(x) for x in lons[::7].tolist()])
        assert np.array_equal(scalar.view(np.uint64), want[::7].view(np.uint64))

    def test_in_range_array_returned_as_is(self):
        lons = np.array([-180.0, -72.5, 0.0, 179.99999999999997])
        assert normalize_lon(lons) is lons
        assert normalize_lon(np.array([])).size == 0

    def test_lat_out_of_range(self):
        with pytest.raises(EewsimError, match=r"^latitude must be in \[-90, 90\], got 91\.0$"):
            GeoPoint(91.0, 0.0)
        with pytest.raises(EewsimError, match=r"^latitude must be in \[-90, 90\], got nan$"):
            GeoPoint(float("nan"), 0.0)


class TestHaversine:
    def test_identity(self):
        assert haversine_km(GeoPoint(10, -72), GeoPoint(10, -72)) == 0.0

    def test_one_degree_equator(self):
        # R * (pi / 180), computed independently
        expected = EARTH_RADIUS_KM * math.pi / 180.0
        assert abs(expected - 111.195) < 1e-3
        assert haversine_km(GeoPoint(0, 0), GeoPoint(0, 1)) == pytest.approx(expected, abs=1e-3)

    def test_quarter_meridian(self):
        expected = EARTH_RADIUS_KM * math.pi / 2.0
        assert haversine_km(GeoPoint(0, 0), GeoPoint(90, 0)) == pytest.approx(expected, abs=1e-2)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            pts = [GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179)) for _ in range(3)]
            a, b, c = pts
            assert haversine_km(a, b) == haversine_km(b, a)
            assert haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + 1e-9

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(11)
        origin = GeoPoint(18.5, -72.3)
        lats = rng.uniform(-89, 89, size=50)
        lons = rng.uniform(-179, 179, size=50)
        vec = haversine_km_points(origin, lats, lons)
        for i in range(50):
            assert vec[i] == haversine_km(origin, GeoPoint(lats[i], lons[i]))


class TestAsciiGrid:
    def test_round_trip_2x2(self):
        g = parse_ascii_grid(ASC_2X2)
        assert (g.ncols, g.nrows) == (2, 2)
        assert g.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert parse_ascii_grid(format_ascii_grid(g)) == g

    def test_round_trip_random_with_nodata(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(-1000, 1000, size=(7, 5))
        vals[rng.random((7, 5)) < 0.2] = -9999.0
        g = make_grid(vals, xll=-74.61, yll=17.83, cellsize=0.0217)
        assert parse_ascii_grid(format_ascii_grid(g)) == g

    def test_round_trip_keeps_signed_zeros(self):
        # Grid equality cannot tell -0.0 from 0.0, so compare the bytes
        vals = [[0.0, -0.0, 1.5], [-0.0, -0.0, -0.0], [0.0, 0.0, 0.0], [5e-324, -5e-324, -9999.0]]
        g = make_grid(vals)
        assert parse_ascii_grid(format_ascii_grid(g)).values.tobytes() == g.values.tobytes()

    @pytest.mark.parametrize("name", list(_WRITER_GRIDS))
    def test_writer_matches_repr_oracle(self, name):
        g = make_grid(_WRITER_GRIDS[name], xll=-74.61, yll=17.83, cellsize=0.0217)
        assert format_ascii_grid(g) == format_ascii_grid_oracle(g)

    @given(st.integers(1, 5).flatmap(
        lambda ncols: st.lists(st.lists(_CELL, min_size=ncols, max_size=ncols), min_size=1, max_size=4)
    ))
    def test_writer_matches_repr_oracle_on_small_grids(self, rows):
        g = make_grid(rows)
        assert format_ascii_grid(g) == format_ascii_grid_oracle(g)

    def test_headers_case_insensitive(self):
        text = ASC_2X2.replace("ncols", "NCOLS").replace("NODATA_value", "nodata_VALUE")
        assert parse_ascii_grid(text) == parse_ascii_grid(ASC_2X2)

    def test_wrong_value_count(self):
        bad = ASC_2X2.replace("3 4", "3")
        with pytest.raises(EewsimError, match=r"^expected 4 values for a 2x2 grid, got 3$"):
            parse_ascii_grid(bad)

    def test_missing_header(self):
        bad = ASC_2X2.replace("cellsize 1.0\n", "")
        with pytest.raises(EewsimError, match=r"^missing header\(s\): cellsize$"):
            parse_ascii_grid(bad)

    def test_duplicate_header(self):
        bad = ASC_2X2.replace("nrows 2", "nrows 2\nnrows 2")
        with pytest.raises(EewsimError, match=r"^duplicate header 'nrows'$"):
            parse_ascii_grid(bad)

    @pytest.mark.parametrize("brk", LINE_BREAKS_NOT_NEWLINES)
    def test_header_error_names_its_physical_line(self, brk):
        # str.splitlines would end ncols's line at brk too and report line 5
        text = ASC_2X2.replace("ncols 2", "ncols 2" + brk)
        with pytest.raises(EewsimError, match=r"^header line 4: "):
            parse_ascii_grid(text.replace("yllcorner 0.0", "yllcorner 0 0"))
        # inside a line it still separates values
        assert parse_ascii_grid(text.replace("1 2", "1" + brk + "2")) == parse_ascii_grid(ASC_2X2)

    def test_non_numeric_value(self):
        bad = ASC_2X2.replace("3 4", "3 x")
        with pytest.raises(EewsimError, match=r"^grid value 'x' is not a number$"):
            parse_ascii_grid(bad)

    def test_non_finite_value(self):
        bad = ASC_2X2.replace("3 4", "3 inf")
        with pytest.raises(EewsimError, match=r"^grid contains non-finite values$"):
            parse_ascii_grid(bad)

    def test_nodata_cells_preserved(self):
        text = ASC_2X2.replace("3 4", "-9999 4")
        g = parse_ascii_grid(text)
        assert g.values[1, 0] == -9999.0
        assert not g.mask[1, 0]
        assert g.mask.sum() == 3

    @pytest.mark.filterwarnings("error::UserWarning")
    @pytest.mark.parametrize("body", [
        "0.1 -2.5e-3 3\n4 5 6.02\n",
        "\n  1 2 3 \n \t\n4\t5 6\n\n",
        "1 2\n3 4 5 6\n",  # ragged rows
        "1\n2\n3\n4\n5\n6\n",  # one value per line
        "1 2\n3\n4 5 6\n",  # the first row split over two lines
        "1_0 2 3\n4 5 6\n",  # float takes these two, numpy's reader does not
        "\uff11 2 3\n4 5 6\n",
        "1 2 #\n4 5 6\n",
        "1 2 3 #\n4 5 6\n",
        "nan 2 3\n4 5 6\n",
        "1 2 3\n4 5 x\n",
        "1,2,3\n4,5,6\n",
        "1 2 3\n4 5\n",  # one value too few
        "1 2 3\n4 5 6 7\n",  # one value too many
        "1 2 3 4\n5 6 7 8\n",  # too many in rows numpy's reader takes
        "",
    ])
    def test_body_matches_split_oracle(self, body):
        head = "ncols 3\nnrows 2\nxllcorner 0.0\nyllcorner 0.0\ncellsize 1.0\nNODATA_value -9999\n"

        def outcome(parse):
            try:
                g = parse(head + body)
            except EewsimError as e:
                return type(e), str(e)
            return g.values.shape, g.values.tobytes()

        assert outcome(parse_ascii_grid) == outcome(parse_ascii_grid_oracle)


def _grid_text(ncols: int, nrows: int, body: str) -> str:
    return (f"ncols {ncols}\nnrows {nrows}\nxllcorner 0.0\nyllcorner 0.0\ncellsize 1.0\n"
            f"NODATA_value -9999\n{body}")


def _grid_outcome(parse, text: str):
    """A parse's grid shape and value bytes, or its error type and message."""
    try:
        g = parse(text)
    except EewsimError as e:
        return type(e), str(e)
    return g.values.shape, g.values.tobytes()


def _parse_in_blocks(text: str, block_chars: int, path, workers: int = geo._WORKERS) -> list:
    """What ``parse_ascii_grid`` makes of ``text`` in blocks of ``block_chars``
    as a str, as an ``io.StringIO`` and as a file read with untranslated newlines."""
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geo, "_BLOCK_CHARS", block_chars)
        mp.setattr(geo, "_WORKERS", workers)
        got = [_grid_outcome(parse_ascii_grid, source) for source in (text, io.StringIO(text))]
        with open(path, encoding="utf-8", newline="") as fh:
            return got + [_grid_outcome(parse_ascii_grid, fh)]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# doubles in [1e-3, 1e15] drawn by their bits, so most have all 53 of them
_SPREAD = st.integers(*np.array([1e-3, 1e15]).view(np.int64).tolist()).map(
    lambda bits: float(np.int64(bits).view(np.float64)))
# raster fields: as repr, %.17g and %.20f write a double; signed zeros,
# nodata and integers without a '.'; fields of 20 digits and more; and
# decimals at or next to the midpoint of two doubles, where rounding the
# decimal reader's wide quotient again to float64 can miss
_RASTER_FIELD = st.one_of(
    _FINITE.map(repr),
    _FINITE.map(lambda x: "%.17g" % x),
    st.floats(-1e9, 1e9).map(lambda x: "%.20f" % x),
    st.sampled_from(["-0", "-0.0", "0", "0.0", "-9999", "-9999.0", "7", "-12", "007"]),
    st.integers(-(10**30), 10**30).map(str),
    st.text("0123456789", min_size=20, max_size=30).map(lambda d: f"{d[:8]}.{d[8:]}"),
    st.floats(2.0**53, 1e25).map(midpoint_text),
    st.tuples(_SPREAD.map(midpoint_text), st.integers(17, 20)).map(lambda ms: cut_significant(*ms)),
)


class TestGridBodyReader:
    """``parse_ascii_grid`` reads plain bodies with the decimal reader, in blocks on threads."""

    @given(st.integers(1, 4).flatmap(lambda ncols: st.lists(
        st.lists(_RASTER_FIELD, min_size=ncols, max_size=ncols), min_size=1, max_size=5)),
        st.sampled_from([1, 8, 2**19]), st.sampled_from([1, 2]))
    @example([["18.47485606619456", "-72.1862122923906"], ["-0", "-9999"]], 1, 2)
    def test_matches_split_oracle(self, tmp_path_factory, rows, block_chars, workers):
        # a block of 1 character is cut after its first line: one line a
        # block, each header line in a block of its own
        text = _grid_text(len(rows[0]), len(rows), "".join(" ".join(r) + "\n" for r in rows))
        got = _parse_in_blocks(text, block_chars, tmp_path_factory.getbasetemp() / "grid.asc", workers)
        assert got == [_grid_outcome(parse_ascii_grid_oracle, text)] * 3

    @given(st.integers(1, 5).flatmap(
        lambda ncols: st.lists(st.lists(_CELL, min_size=ncols, max_size=ncols), min_size=1, max_size=4)
    ), st.sampled_from([1, 2**19]))
    def test_written_grids_match_split_oracle(self, tmp_path_factory, rows, block_chars):
        text = format_ascii_grid(make_grid(rows))
        got = _parse_in_blocks(text, block_chars, tmp_path_factory.getbasetemp() / "grid.asc")
        assert got == [_grid_outcome(parse_ascii_grid_oracle, text)] * 3

    @pytest.mark.parametrize("block_chars", [1, 8, 2**18])
    @pytest.mark.parametrize("body", [
        "1 2 3\n4 5\n",  # one value too few
        "1 2 3\n4 5 6\n7 8 9\n",  # one row too many
        "1 2 3\n4 x 6\n",
        "1 2 3\n4 5 6 7\n",
        "1 2\n3 4 5 6\n",  # ragged rows, the right count
        "1 2 3 \n4 5 6 \n",  # trailing spaces
        "1  2 3\n4 5 6\n",  # a repeated space
        " 1 2 3\n4 5 6\n",  # a leading space
        "1\t2 3\n4 5 6\n",
        "1 2 3\r\n4 5 6\r\n",
        "1 2 3\r4 5 6\r",
        "1 2 3\n4 5 6",  # no final line end
        "1 2 3\n4 5 6\n\n\n",
        "\n1 2 3\n\n4 5 6\n",
        "+1 2 3\n4 5 6\n",
        "1e2 2 3\n4 5 6\n",
        "1 2 3\n4 5 6E-1\n",
        "1 2 3\n4 5 -\n",
        "1 2 3\n4 5 .\n",
        "1 2 3\n4 5 1.2.3\n",
        "1 2 3\n4 5 1-2\n",
        "1 2 3\n4 5 1/2\n",
        "1,2,3\n4,5,6\n",
        "1 2 3\n4 5 \uff16\n",
        "1 2 3\n4 5 inf\n",
        "",
        "\n",
    ])
    def test_declined_bodies_match_split_oracle(self, tmp_path, body, block_chars):
        text = _grid_text(3, 2, body)
        got = _parse_in_blocks(text, block_chars, tmp_path / "grid.asc")
        assert got == [_grid_outcome(parse_ascii_grid_oracle, text)] * 3

    def test_plain_grid_stays_on_the_decimal_reader(self, monkeypatch):
        def fallback(*args, **kwargs):
            raise AssertionError("body parsed by a fallback")

        monkeypatch.setattr(geo, "read_float_rows", fallback)
        monkeypatch.setattr(geo, "_BLOCK_CHARS", 64)
        rng = np.random.default_rng(27)
        vals = rng.uniform(-1e3, 1e3, size=(40, 7))
        vals[rng.random(vals.shape) < 0.2] = -9999.0
        vals[0, :3] = [0.0, -0.0, 5.0]
        g = make_grid(vals)
        text = format_ascii_grid(g)
        assert parse_ascii_grid(text).values.tobytes() == g.values.tobytes()
        assert parse_ascii_grid(text.rstrip("\n")).values.tobytes() == g.values.tobytes()

    @pytest.mark.parametrize("block_chars", [16, 2**18])
    def test_thread_count_does_not_change_the_bytes(self, tmp_path, block_chars):
        rng = np.random.default_rng(5)
        g = make_grid(rng.uniform(-1e6, 1e6, size=(60, 9)))
        text = format_ascii_grid(g)
        one, two = (_parse_in_blocks(text, block_chars, tmp_path / "grid.asc", workers) for workers in (1, 2))
        assert one == two == [(g.values.shape, g.values.tobytes())] * 3

    def test_error_in_a_block_reaches_the_caller(self, monkeypatch):
        # one line a block: the reader raises on the fourth block, body row 3
        read = geo._read_decimal_rows

        def failing(text, ncols, sep):
            if text.startswith("3 "):
                raise KeyError("block 3")
            return read(text, ncols, sep)

        monkeypatch.setattr(geo, "_read_decimal_rows", failing)
        monkeypatch.setattr(geo, "_BLOCK_CHARS", 1)
        text = _grid_text(2, 6, "".join(f"{r} {r}.5\n" for r in range(6)))
        before = threading.active_count()
        with pytest.raises(KeyError, match="block 3"):
            parse_ascii_grid(text)
        assert threading.active_count() == before

    def test_memory_bounded_by_one_block(self, monkeypatch, tmp_path):
        # The output is 8 bytes a value. Building the Grid holds the parsed
        # values, its private copy, and its finite check's mask and copy of
        # the data cells: under four times that. A block of text and its
        # working arrays take under 64 bytes a character. The whole text, at
        # about 19 characters a value, would not fit beside them.
        monkeypatch.setattr(geo, "_BLOCK_CHARS", 2**15)
        vals = np.random.default_rng(3).uniform(-1e3, 1e3, size=(400, 1000))
        text = format_ascii_grid(make_grid(vals, cellsize=0.01))
        path = tmp_path / "big.asc"
        bound = 4 * 8 * vals.size + 64 * geo._BLOCK_CHARS
        for end, newline in [("\n", None), ("\r\n", "")]:
            path.write_text(text.replace("\n", end), encoding="utf-8", newline="")
            tracemalloc.start()
            try:
                with open(path, encoding="utf-8", newline=newline) as fh:
                    g = parse_ascii_grid(fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert g.values.tobytes() == vals.tobytes()
            assert peak < bound, (end, peak, bound)


class TestMapBlocks:
    def test_worker_count_is_one_or_two(self):
        assert 1 <= geo._WORKERS <= 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_in_block_order(self, monkeypatch, workers):
        # blocks that finish out of order still come back in order
        monkeypatch.setattr(geo, "_WORKERS", workers)

        def read(i):
            time.sleep(0.002 * (i % 3))
            return i * i

        assert map_blocks(read, ((i,) for i in range(20))) == [i * i for i in range(20)]
        assert map_blocks(read, iter([])) == []

    def test_one_block_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(geo, "_WORKERS", 2)
        before = threading.active_count()
        seen = []

        def read(i):
            seen.append(threading.active_count())
            time.sleep(0.005)
            return i

        assert map_blocks(read, [(0,)]) == [0]
        assert seen == [before]
        assert map_blocks(read, [(0,), (1,), (2,)]) == [0, 1, 2]
        assert max(seen[1:]) == before + 1
        assert threading.active_count() == before

    def test_stress_every_block_read_once_in_order(self, monkeypatch):
        # more threads than cores and a short switch interval: a lost update
        # of the shared block counter would read a block twice or skip one
        monkeypatch.setattr(geo, "_WORKERS", 8)
        reads = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = map_blocks(lambda i: reads.append(i) or -i, ((i,) for i in range(3000)))
        finally:
            sys.setswitchinterval(interval)
        assert got == [-i for i in range(3000)]
        assert sorted(reads) == list(range(3000))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("failing", [{3}, {3, 5}, {0, 3}])
    def test_first_failing_block_raises_in_the_caller(self, monkeypatch, workers, failing):
        monkeypatch.setattr(geo, "_WORKERS", workers)

        def read(i):
            time.sleep(0.002 * (i % 2))
            if i in failing:
                raise ValueError(f"block {i}")
            return i

        before = threading.active_count()
        with pytest.raises(ValueError, match=f"^block {min(failing)}$"):
            map_blocks(read, ((i,) for i in range(10)))
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_in_the_blocks_counts_at_its_place(self, monkeypatch, workers):
        monkeypatch.setattr(geo, "_WORKERS", workers)

        def blocks():
            yield from ((i,) for i in range(4))
            raise OSError("read failed")

        with pytest.raises(OSError, match="read failed"):
            map_blocks(lambda i: i, blocks())
        with pytest.raises(ValueError, match="block 2"):  # an earlier block's error comes first
            map_blocks(lambda i: i if i != 2 else int("block 2"), blocks())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocks_in_flight_bounded(self, monkeypatch, workers):
        # a block is in flight from when it is made until its read returns
        monkeypatch.setattr(geo, "_WORKERS", workers)
        lock = threading.Lock()
        live, most = 0, 0

        def blocks():
            nonlocal live, most
            for i in range(30):
                with lock:
                    live += 1
                    most = max(most, live)
                yield (i,)

        def read(i):
            nonlocal live
            time.sleep(0.001)
            with lock:
                live -= 1
            return i

        assert map_blocks(read, blocks()) == list(range(30))
        assert most <= workers + 1


class TestReadFloatRows:
    def test_rows_parsed(self):
        got = read_float_rows(["1.5,-2\n", "\n", " 3 , 4e1"], delimiter=",")
        assert got.tolist() == [[1.5, -2.0], [3.0, 40.0]]

    @pytest.mark.parametrize("lines", [
        ["1,2", "3"], ["1,2", "  ", "3,4"], ["1_0,2"], ["\uff11,2"], ["1,2 #"], ["1,"],
    ])
    def test_rejects_what_it_cannot_read(self, lines):
        assert read_float_rows(lines, delimiter=",") is None


class TestGridRoleChecks:
    def test_population_must_be_non_negative(self):
        check_population_grid(make_grid([[0.0, 5.0], [-9999.0, 1e6]]))
        rule = r"population grid value must be in \[0, 9007199254740992\]"
        with pytest.raises(EewsimError, match=rf"^{rule}, got -2\.0$"):
            check_population_grid(make_grid([[1.0, -2.0]]))
        with pytest.raises(EewsimError, match=rf"^{rule}, got 1e\+16$"):
            check_population_grid(make_grid([[1.0, 1e16]]))

    def test_population_must_not_be_subnormal(self):
        tiny = np.finfo(np.float64).tiny
        check_population_grid(make_grid([[0.0, -0.0, tiny, -9999.0]]))
        for v in (5e-324, np.nextafter(tiny, 0.0)):
            with pytest.raises(EewsimError, match="subnormal"):
                check_population_grid(make_grid([[1.0, v]]))

    def test_mmi_must_stay_on_scale(self):
        check_mmi_grid(make_grid([[0.0, 12.0], [-9999.0, 7.5]]))
        with pytest.raises(EewsimError, match=r"^MMI grid value must be in \[0, 12\], got 13\.0$"):
            check_mmi_grid(make_grid([[13.0]]))
        with pytest.raises(EewsimError, match=r"^MMI grid value must be in \[0, 12\], got -0\.5$"):
            check_mmi_grid(make_grid([[-0.5]]))


class TestCellAddressing:
    def test_cell_center_forced_by_formula(self):
        g = make_grid([[1, 2], [3, 4]])
        assert cell_center(g, 1, 0) == GeoPoint(0.5, 0.5)
        assert cell_center(g, 0, 1) == GeoPoint(1.5, 1.5)

    def test_cell_center_out_of_range(self):
        g = make_grid([[1, 2], [3, 4]])
        with pytest.raises(EewsimError, match=r"^cell \(2, 0\) outside 2x2 grid$"):
            cell_center(g, 2, 0)

    def test_sample_at_center(self):
        g = make_grid([[1, 2], [3, 4]])
        lat2, lon2 = g.center_mesh()
        np.testing.assert_array_equal(sample_values(g, lat2, lon2), g.values)
        for row in range(2):
            for col in range(2):
                p = cell_center(g, row, col)
                assert sample_values(g, p.lat, p.lon) == g.values[row, col]

    def test_sample_outside_is_none(self):
        g = make_grid([[1, 2], [3, 4]])
        assert np.isnan(sample_values(g, [3.5, 0.5], [0.5, -1.5])).all()

    def test_sample_nodata_is_none(self):
        g = make_grid([[1, -9999], [3, 4]])
        assert np.isnan(sample_values(g, 1.5, 1.5))

    def test_edge_tie_breaks_toward_larger_index(self):
        g = make_grid([[1, 2], [3, 4]])
        cases = [
            (0.5, 1.0, 4.0),  # vertical interior edge: eastern cell (larger col) wins
            (1.0, 0.5, 3.0),  # horizontal interior edge: southern cell (larger row) wins
            # outer south/east edges fall outside; north/west stay inside
            (0.0, 0.5, math.nan),
            (0.5, 2.0, math.nan),
            (2.0, 0.5, 1.0),
            (0.5, 0.0, 3.0),
        ]
        lats, lons, want = zip(*cases)
        np.testing.assert_array_equal(sample_values(g, lats, lons), want)

    @given(
        nrows=st.integers(1, 30),
        ncols=st.integers(1, 30),
        xll=st.floats(-360.0, 360.0),
        yll=st.floats(-90.0, 90.0),
        cellsize=st.floats(1e-3, 5.0),
        v=st.floats(0.01, 0.99),
        u=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cell_points_map_back_to_their_cell(self, nrows, ncols, xll, yll, cellsize, v, u, seed):
        assume(yll + nrows * cellsize <= 90.0)  # every row center on the globe
        g = Grid(ncols=ncols, nrows=nrows, xll=xll, yll=yll, cellsize=cellsize,
                 nodata=-9999.0, values=np.zeros((nrows, ncols)))
        rows, cols = np.indices((nrows, ncols))
        per_cell = np.random.default_rng(seed).uniform(0.01, 0.99, size=(2, nrows, ncols))
        # the centers, one fraction for all cells, and one fraction per cell
        for fv, fu in ((0.5, 0.5), (v, u), tuple(per_cell)):
            got_rows, got_cols, inside = cell_indices(g, g.row_lat(rows, fv), g.col_lon(cols, fu))
            assert inside.all()
            np.testing.assert_array_equal(got_rows, rows)
            np.testing.assert_array_equal(got_cols, cols)
        lat2, lon2 = g.center_mesh()
        np.testing.assert_array_equal(lat2, g.row_lat(rows))
        np.testing.assert_array_equal(lon2, g.col_lon(cols))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_points_are_outside_without_overflow(self):
        # an index beyond int64, or inf, names no cell: it reads 0, outside
        g = make_grid([[1.0, 2.0]], cellsize=5e-324)
        rows, cols, inside = cell_indices(g, [0.5, 1e-300, -80.0], [0.5, 1e-300, 359.0])
        assert not inside.any()
        assert rows.tolist() == cols.tolist() == [0, 0, 0]

    def test_axes_keep_their_shapes(self):
        # a column of latitudes and a row of longitudes give a column of rows
        # and a row of columns, with points outside the grid on either axis
        g = make_grid(np.zeros((3, 4)))
        lats = np.array([[-1.0], [0.5], [1.5], [2.5], [9.0]])
        lons = np.array([[-1.0, 0.5, 3.5, 7.0]])
        rows, cols, inside = cell_indices(g, lats, lons)
        assert (rows.shape, cols.shape, inside.shape) == ((5, 1), (1, 4), (5, 4))
        assert rows.ravel().tolist() == [0, 2, 1, 0, 0] and cols.ravel().tolist() == [0, 0, 3, 0]
        mesh_rows, mesh_cols, mesh_inside = cell_indices(g, *np.broadcast_arrays(lats, lons))
        np.testing.assert_array_equal(inside, mesh_inside)
        np.testing.assert_array_equal(np.broadcast_to(rows, inside.shape)[inside], mesh_rows[inside])
        np.testing.assert_array_equal(np.broadcast_to(cols, inside.shape)[inside], mesh_cols[inside])

    def test_sample_values_on_axes_equals_on_mesh(self):
        # a column of latitudes and a row of longitudes give the mesh's bytes,
        # with points outside the grid, on nodata and on a -0.0 cell
        values = np.random.default_rng(7).uniform(size=(5, 7))
        values[1, 2], values[3, 4] = -9999.0, -0.0
        g = make_grid(values, xll=-1.0, yll=2.0, cellsize=0.5)
        pts = make_grid(np.zeros((12, 16)), xll=-1.3, yll=1.6, cellsize=0.25)
        lat2, lon2 = pts.center_mesh()
        on_mesh = sample_values(g, lat2, lon2)
        on_axes = sample_values(g, pts.lat_centers()[:, None], pts.lon_centers())
        assert on_axes.tobytes() == on_mesh.tobytes()
        # 52 points outside and 4 on nodata read NaN; 4 read the -0.0 cell
        assert np.isnan(on_mesh).sum() == 56 and np.signbit(on_mesh[on_mesh == 0]).sum() == 4

    def test_sample_values_matches_sample_at(self):
        rng = np.random.default_rng(5)
        g = make_grid(rng.uniform(size=(4, 6)), xll=-2.0, yll=1.0, cellsize=0.5)
        lats = rng.uniform(0.0, 4.0, size=100)
        lons = rng.uniform(-3.0, 2.0, size=100)
        vec = sample_values(g, lats, lons)
        for i in range(100):
            scalar = sample_at(g, GeoPoint(lats[i], lons[i]))
            if scalar is None:
                assert math.isnan(vec[i])
            else:
                assert vec[i] == scalar


_EDGES = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def mmi_bins(draw):
    lo, hi = sorted((draw(_EDGES), draw(_EDGES)))
    assume(lo < hi)
    return MmiBin(lo, hi, lo_open=draw(st.booleans()), hi_open=draw(st.booleans()))


class TestMmiBin:
    def test_parse_and_format(self):
        b = MmiBin.parse("(7.5,8]")
        assert (b.lo, b.hi, b.lo_open, b.hi_open) == (7.5, 8.0, True, False)
        assert str(b) == "(7.5,8]"
        assert MmiBin.parse("[8,8.5)") == MmiBin(8.0, 8.5, lo_open=False, hi_open=True)

    def test_label_keeps_every_digit(self):
        # ':g' alone keeps 6 significant digits and wrote this bin as (7.5,7.5]
        assert str(MmiBin(7.5000001, 7.5000002)) == "(7.5000001,7.5000002]"
        assert str(MmiBin(0.0, 12.0, lo_open=False, hi_open=True)) == "[0,12)"

    @given(mmi_bins())
    @example(MmiBin(7.5000001, 7.5000002))
    @example(MmiBin(-0.0, 5e-324, lo_open=False, hi_open=True))
    @example(MmiBin(-1.7976931348623157e308, 1e16))
    def test_str_parse_round_trip(self, b):
        assert MmiBin.parse(str(b)) == b

    def test_contains_boundaries(self):
        b = MmiBin(7.5, 8.0)  # (7.5, 8]
        assert not b.contains(7.5)
        assert b.contains(8.0)
        assert b.contains(7.75)
        closed = MmiBin(7.5, 8.0, lo_open=False, hi_open=True)  # [7.5, 8)
        assert closed.contains(7.5)
        assert not closed.contains(8.0)

    def test_disjoint_check(self):
        check_disjoint_bins([MmiBin(7.5, 8.0), MmiBin(8.0, 8.5)])
        with pytest.raises(EewsimError, match=r"^intensity bins \(7\.5,8\] and \(7\.9,8\.5\] overlap$"):
            check_disjoint_bins([MmiBin(7.5, 8.0), MmiBin(7.9, 8.5)])
        with pytest.raises(EewsimError, match=r"^intensity bins \(7\.5,8\] and \[8,8\.5\] overlap$"):
            # shared edge closed on both sides overlaps at the point
            check_disjoint_bins(
                [MmiBin(7.5, 8.0), MmiBin(8.0, 8.5, lo_open=False)]
            )


_CSV_FIELDS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**63, 2**63 - 1), st.floats(allow_nan=False),
    mmi_bins(),
)


class TestFormatCsv:
    # rows hold at least two fields: a lone empty field writes a blank line
    @given(st.lists(st.lists(_CSV_FIELDS, min_size=2, max_size=6), max_size=8))
    @example([[-0.0, 5e-324, 1e308, None, True, 7, MmiBin(7.5, 8.0)], [False, 0.1]])
    def test_fields_read_back(self, rows):
        text = format_csv("a,b", rows)
        assert text.endswith("\n")
        header, *lines = text[:-1].split("\n")
        assert header == "a,b"
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            (fields,) = csv.reader([line])
            assert len(fields) == len(row)
            for got, x in zip(fields, row):
                if x is None:
                    assert got == ""
                elif isinstance(x, bool):
                    assert got == ("true" if x else "false")
                elif isinstance(x, int):
                    assert got == str(x)
                elif isinstance(x, float):
                    assert float(got).hex() == x.hex()
                else:
                    assert got == str(x) and MmiBin.parse(got) == x
                    assert f'"{x}"' in line

    def test_no_rows(self):
        assert format_csv("lat,lon", []) == "lat,lon\n"

    @given(st.lists(st.tuples(_FINITE, _FINITE), max_size=8))
    @example([(-0.0, 1e-05), (5e-324, -5e-324), (0.0, 1e16)])
    def test_columns_match_rows(self, rows):
        cols = np.array(rows, dtype=np.float64).reshape(-1, 2).T
        text = format_csv_columns("lat,lon", [map(float.__repr__, c.tolist()) for c in cols])
        assert text == format_csv("lat,lon", rows)


class TestExposure:
    def test_uniform_mmi_single_bin(self):
        mmi = make_grid([[8.0, 8.0], [8.0, 8.0]])
        pop = make_grid([[250.0, 250.0], [250.0, 250.0]])
        res = exposure_histogram(mmi, pop, [MmiBin(7.5, 8.0), MmiBin(8.0, 8.5)])
        assert res.populations == (1000.0, 0.0)

    def test_all_nodata_population(self):
        mmi = make_grid([[8.0, 8.0], [8.0, 8.0]])
        pop = make_grid([[-9999.0, -9999.0], [-9999.0, -9999.0]])
        res = exposure_histogram(mmi, pop, [MmiBin(7.5, 8.0)])
        assert res.populations == (0.0,)
        assert res.total_population == 0.0
        assert res.exceedance(5.0) == 0.0

    def test_two_cell_exceedance_hand_enumeration(self):
        # cells: pop (300, 700), MMI (6.0, 9.0) -> exceedance(7) = 700/1000
        mmi = make_grid([[6.0, 9.0]])
        pop = make_grid([[300.0, 700.0]])
        res = exposure_histogram(mmi, pop, [MmiBin(5.0, 7.0), MmiBin(7.0, 10.0)])
        assert res.exceedance(7.0) == pytest.approx(0.7)
        assert res.populations == (300.0, 700.0)

    def test_bin_totals_bounded_and_exact_when_covering(self):
        rng = np.random.default_rng(9)
        mmi = make_grid(rng.uniform(0.5, 11.5, size=(6, 6)))
        pop = make_grid(rng.uniform(0, 500, size=(6, 6)))
        partial = [MmiBin(4.0, 6.0), MmiBin(6.0, 8.0)]
        res = exposure_histogram(mmi, pop, partial)
        assert sum(res.populations) <= res.total_population + 1e-9
        covering = [MmiBin(0.0, 6.0, lo_open=False), MmiBin(6.0, 12.0)]
        res2 = exposure_histogram(mmi, pop, covering)
        assert sum(res2.populations) == pytest.approx(res2.total_population, rel=1e-12)

    def test_exceedance_monotone_and_bounded(self):
        rng = np.random.default_rng(13)
        mmi = make_grid(rng.uniform(0, 12, size=(8, 8)))
        pop = make_grid(rng.uniform(0, 100, size=(8, 8)))
        res = exposure_histogram(mmi, pop, [MmiBin(0.0, 12.0, lo_open=False)])
        values = [res.exceedance(m) for m in np.linspace(-1, 13, 57)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert res.exceedance(-1.0) == 1.0

    def test_mismatched_geometry_sampling(self):
        # population cells outside the MMI grid are excluded from matching
        mmi = make_grid([[8.0]])  # covers lon [0,1], lat [0,1]
        pop = make_grid([[10.0, 20.0]], cellsize=1.0)  # centers at lon 0.5, 1.5
        res = exposure_histogram(mmi, pop, [MmiBin(7.5, 8.0)])
        assert res.total_population == 10.0
        assert res.populations == (10.0,)

    def test_empty_bins(self):
        g = make_grid([[1.0]])
        with pytest.raises(EewsimError, match=r"^exposure_histogram needs at least one bin$"):
            exposure_histogram(g, g, [])
