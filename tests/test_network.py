import io
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eewsim import geo, network
from eewsim.errors import EewsimError
from eewsim.geo import GeoPoint, format_csv
from eewsim.network import (
    STREAM_NETWORK,
    STREAM_TRIGGERS,
    Catalog,
    SeedSpec,
    load_catalog,
    philox_raws,
    random_doubles,
    sample_network,
    sample_networks,
    seed_keys,
    synth_catalog,
)
from testutil import (
    catalog_point,
    cut_significant,
    dense_sample_indices,
    load_catalog_oracle,
    make_grid,
    midpoint_text,
    sparse_sample_indices,
)


class TestLoadCatalog:
    def test_file_order_preserved(self):
        cat = load_catalog("lat,lon\n10,20\n-5,30\n0,0\n")
        assert len(cat) == 3
        assert catalog_point(cat, 0) == GeoPoint(10, 20)
        assert catalog_point(cat, 1) == GeoPoint(-5, 30)
        assert catalog_point(cat, 2) == GeoPoint(0, 0)

    def test_out_of_range_latitude(self):
        with pytest.raises(EewsimError,
                           match=r"^catalog line 2: latitude must be in \[-90, 90\], got 91\.0$"):
            load_catalog("lat,lon\n91,0\n")

    def test_empty_body(self):
        with pytest.raises(EewsimError, match=r"^catalog: no data rows$"):
            load_catalog("lat,lon\n")
        with pytest.raises(EewsimError, match=r"^catalog: file is empty$"):
            load_catalog("")

    def test_malformed_rows(self):
        with pytest.raises(EewsimError,
                           match=r"^catalog line 2: expected 'lat,lon', got '1,2,3'$"):
            load_catalog("lat,lon\n1,2,3\n")
        with pytest.raises(EewsimError, match=r"^catalog line 2: cannot parse 'abc,def'$"):
            load_catalog("lat,lon\nabc,def\n")
        with pytest.raises(EewsimError, match=r"^catalog line 1: expected header 'lat,lon', "
                                              r"got 'latitude,longitude'$"):
            load_catalog("latitude,longitude\n1,2\n")

    def test_lon_normalized(self):
        cat = load_catalog("lat,lon\n0,190\n")
        assert catalog_point(cat, 0).lon == -170.0

    def test_round_trip(self):
        cat = load_catalog("lat,lon\n10.25,20.125\n-5.5,30.75\n")
        again = load_catalog(format_csv("lat,lon", zip(cat.lats.tolist(), cat.lons.tolist())))
        assert np.array_equal(cat.lats, again.lats)
        assert np.array_equal(cat.lons, again.lons)


# longitudes the loader must wrap, incl. ones just below -180 where
# (lon + 180) % 360 rounds up to 360
_WRAP_LONS = ("180", "190.5", "-180.00000000000003", "-540.0000000000001", "1e6", "-725.25")


def _messy_catalog(rng: np.random.Generator, rows: int) -> str:
    """Catalog text with blank lines, mixed line endings and padded fields."""
    out = ["lat,lon\n"]
    for k in range(rows):
        lat = rng.choice(["90", "-90.0"]) if k % 11 == 0 else repr(rng.uniform(-90, 90))
        lon = rng.choice(_WRAP_LONS) if k % 5 == 0 else repr(rng.uniform(-180, 180))
        pad = rng.choice(["", " ", "\t "])
        out.append(f"{pad}{lat}{pad},{pad}{lon}{pad}" + rng.choice(["\n", "\r\n", "\r"]))
        if k % 7 == 0:
            out.append(rng.choice(["\n", "   \n", "\t\r\n", "\r"]))
    return "".join(out)


def _outcome(loader, source):
    """The arrays' bytes ``loader`` reads from ``source``, or its error's type and message."""
    try:
        cat = loader(source, origin="cat.csv")
    except EewsimError as e:
        return type(e), str(e)
    return cat.lats.tobytes(), cat.lons.tobytes()


def _outcomes(loader, text: str, path) -> list:
    """What ``loader`` makes of ``text`` as a str, a file read with universal and
    with untranslated newlines, and an ``io.StringIO``."""
    path.write_text(text, encoding="utf-8", newline="")
    got = [_outcome(loader, text)]
    for newline in (None, ""):
        with open(path, encoding="utf-8", newline=newline) as fh:
            got.append(_outcome(loader, fh))
    return got + [_outcome(loader, io.StringIO(text))]


# catalog lines: good rows numpy's reader takes, good rows only float takes
# (``1_0``, full-width digits), whitespace-only lines, and bad rows
_LAT = st.one_of(st.floats(-90, 90).map(repr), st.sampled_from(["18.5", " -0.0\t", "1e1", "7."]))
_LON = st.one_of(st.floats(-400, 400).map(repr), st.sampled_from(["-72.25", "180", "-1e3 "]))
_FLOAT_ONLY = st.sampled_from(["1_0", "\uff11\uff18.5", "-7_2.5"])
_BAD = st.sampled_from(["#", "nan", "inf", "91", "-90.5", "", " ", "1e999"])
_GOOD_LINE = st.one_of(
    st.tuples(_LAT, _LON).map(",".join),
    st.tuples(st.one_of(_LAT, _FLOAT_ONLY), st.one_of(_LON, _FLOAT_ONLY)).map(",".join),
    st.sampled_from(["", "   ", "\t"]),
)
_ANY_LINE = st.one_of(
    _GOOD_LINE,
    st.tuples(st.one_of(_LAT, _BAD), st.one_of(_LON, _BAD)).map(",".join),
    st.lists(st.one_of(_LAT, _LON, _BAD), min_size=1, max_size=3).map(",".join),
)

# catalog texts without a data row, and each one's error
_HEADER_ERRORS = {
    "": "cat.csv: file is empty",
    "\n \r\n": "cat.csv: file is empty",
    "lat,lon\n": "cat.csv: no data rows",
    "lat,lon\n\n  \n": "cat.csv: no data rows",
    "latitude,longitude\n1,2\n":
        "cat.csv line 1: expected header 'lat,lon', got 'latitude,longitude'",
    "\n lat , LON \n": "cat.csv: no data rows",
}


class TestLoadCatalogStreaming:
    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_matches_row_oracle(self, monkeypatch, tmp_path, chunk):
        monkeypatch.setattr(geo, "_BLOCK_CHARS", 8 * chunk)
        text = _messy_catalog(np.random.default_rng(chunk), 300)
        got = _outcomes(load_catalog, text, tmp_path / "cat.csv")
        assert got == _outcomes(load_catalog_oracle, text, tmp_path / "cat.csv")
        lats, lons = (np.frombuffer(b) for b in got[0])
        assert lats.size == 300
        assert (lons >= -180.0).all() and (lons < 180.0).all()

    @pytest.mark.parametrize("bad", [
        "18.5",
        "18.5,-72.1,0",
        "18.5\n18.5,-72.1,0",  # one field then three: the comma total still matches
        "18.5,abc",
        " , ",
        "nan,-72.1",
        "18.5,inf",
        "91,-72.1",
        "-90.000001,-72.1",
    ])
    def test_bad_row_in_later_chunk_matches_oracle(self, monkeypatch, tmp_path, bad):
        monkeypatch.setattr(geo, "_BLOCK_CHARS", 32)
        good = "".join(f"18.{k},-72.{k}\n" for k in range(1, 10))
        text = f"lat,lon\n{good}\n{bad}\r\n{good}"
        got = _outcomes(load_catalog, text, tmp_path / "cat.csv")
        assert got == _outcomes(load_catalog_oracle, text, tmp_path / "cat.csv")
        assert all(isinstance(g[1], str) and "cat.csv line 12:" in g[1] for g in got)

    @pytest.mark.parametrize("text", list(_HEADER_ERRORS))
    def test_header_and_empty_cases_match_oracle(self, monkeypatch, tmp_path, text):
        monkeypatch.setattr(geo, "_BLOCK_CHARS", 8)
        got = _outcomes(load_catalog, text, tmp_path / "cat.csv")
        assert got == _outcomes(load_catalog_oracle, text, tmp_path / "cat.csv")
        assert got == [(EewsimError, _HEADER_ERRORS[text])] * 4

    @pytest.mark.filterwarnings("error::UserWarning")
    @given(
        st.one_of(st.lists(_GOOD_LINE, max_size=80), st.lists(_ANY_LINE, max_size=80)),
        st.sampled_from(["\n", "\r\n"]),
        st.sampled_from([1, 3, 64]),
    )
    def test_reader_fallback_matches_row_oracle(self, lines, newline, chunk):
        # chunks numpy's reader rejects are parsed again line by line: they
        # must give the oracle's values, or its error for the same line
        text = newline.join(["lat,lon", *lines, ""])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geo, "_BLOCK_CHARS", 8 * chunk)
            got = [_outcome(load_catalog, text), _outcome(load_catalog, io.StringIO(text))]
        want = _outcome(load_catalog_oracle, text)
        assert got == [want, want]

    @pytest.mark.parametrize("blank", ["  ", "\t", " \t "])
    def test_whitespace_only_lines_stay_on_the_reader(self, monkeypatch, blank):
        # numpy's reader rejects a whitespace-only line; the block is read
        # by it without such lines, not line by line with float
        def per_line(*args):
            raise AssertionError("block parsed line by line")

        monkeypatch.setattr(geo, "_BLOCK_CHARS", 128)
        monkeypatch.setattr(network, "_parse_lines", per_line)
        rng = np.random.default_rng(len(blank))
        lines = ["lat,lon"]
        for k, (lat, lon) in enumerate(zip(rng.uniform(-90, 90, 60).tolist(),
                                           rng.uniform(-180, 180, 60).tolist())):
            lines += [f"{lat!r},{lon!r}"] + [blank] * (k % 3 == 0)
        for newline in ("\n", "\r\n"):
            text = newline.join(lines + [""])
            got = _outcome(load_catalog, text)
            assert got == _outcome(load_catalog_oracle, text)
            assert np.frombuffer(got[0]).size == 60

    @pytest.mark.parametrize("bad", [None, "18.5,abc"])
    def test_thread_count_does_not_change_the_outcome(self, monkeypatch, tmp_path, bad):
        monkeypatch.setattr(geo, "_BLOCK_CHARS", 256)
        text = _messy_catalog(np.random.default_rng(9), 600)
        if bad:  # the same error from the first bad block whichever thread reads it
            text = text.replace("\n", f"\n{bad}\n", 40).replace(f"\n{bad}\n", "\n", 20)
        got = []
        for workers in (1, 2):
            monkeypatch.setattr(geo, "_WORKERS", workers)
            got.append(_outcomes(load_catalog, text, tmp_path / "cat.csv"))
        assert got[0] == got[1] == [_outcome(load_catalog_oracle, text)] * 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_in_a_block_reaches_the_caller(self, monkeypatch, workers):
        parse = network._parse_chunk
        first_linenos = []
        fail_at = None  # block 3's first line, once a clean read has shown it

        def failing(text, first_lineno, origin):
            first_linenos.append(first_lineno)
            if first_lineno == fail_at:
                raise KeyError("block 3")
            return parse(text, first_lineno, origin)

        monkeypatch.setattr(geo, "_WORKERS", workers)
        monkeypatch.setattr(geo, "_BLOCK_CHARS", 40)
        monkeypatch.setattr(network, "_parse_chunk", failing)
        text = "lat,lon\n" + "".join(f"1{k}.25,-7{k}.5\n" for k in range(10)) * 3
        load_catalog(text)
        assert len(first_linenos) > 5
        fail_at = sorted(first_linenos)[3]
        before = threading.active_count()
        with pytest.raises(KeyError, match="block 3"):
            load_catalog(text)
        assert threading.active_count() == before

    def test_memory_bounded_by_one_chunk(self, monkeypatch, tmp_path):
        # The output is 16 bytes a row. At the end the block arrays, their
        # concatenation and the Catalog's private lat/lon copies coexist:
        # three times that. One block of text, its lines, their stripped
        # copies and its tokens take under 128 bytes a character. A file
        # whose lines end in \r alone, read without newline translation, is
        # cut into blocks at its \r's too.
        monkeypatch.setattr(geo, "_BLOCK_CHARS", 2**15)
        n = 200_000
        rng = np.random.default_rng(0)
        path = tmp_path / "cat.csv"
        rows = list(zip(rng.uniform(17.9, 19.9, n).tolist(), rng.uniform(-74.4, -71.7, n).tolist()))
        bound = 3 * 16 * n + 128 * geo._BLOCK_CHARS
        for end, newline in [("\n", None), ("\r", "")]:
            path.write_text(f"lat,lon{end}" + "".join(f"{a!r},{b!r}{end}" for a, b in rows),
                            newline="")
            tracemalloc.start()
            try:
                with open(path, encoding="utf-8", newline=newline) as fh:
                    cat = load_catalog(fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(cat) == n
            assert peak < bound, f"{end!r}: peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


# doubles in [1e-3, 1e15] drawn by their bits, so most have all 53 of them
_SPREAD_FLOATS = st.integers(*np.array([1e-3, 1e15]).view(np.int64).tolist()).map(
    lambda bits: float(np.int64(bits).view(np.float64)))

# fields of the form -?d*.?d* with a digit: up to 25 integer digits with
# leading zeros and up to 30 fraction digits; integers halfway between two
# doubles; and decimals cut from the midpoint of two doubles, where one
# rounding in a wider type and a second to float64 can differ from one
# correct rounding
_PLAIN_DECIMAL = st.tuples(
    st.sampled_from(["", "-"]),
    st.one_of(
        st.tuples(st.text("0123456789", max_size=25), st.sampled_from(["", "."]),
                  st.text("0123456789", max_size=30)).map("".join),
        st.sampled_from([".5", "5.", "0.0", "0", "9007199254740993", "18.47485606619456"]),
        st.floats(2.0**53, 1e25).map(midpoint_text),
        # 19 or 20 significant digits: near enough to the midpoint that the
        # wide quotient often lands on it, few enough for a uint64 mantissa
        st.tuples(_SPREAD_FLOATS.map(midpoint_text), st.integers(19, 20)).map(
            lambda mid_sig: cut_significant(*mid_sig)),
    ),
).map("".join).filter(lambda f: any(c.isdigit() for c in f))


def _rows_text(fields: list[str], ncols: int) -> str:
    return "".join(",".join(fields[i:i + ncols]) + "\n" for i in range(0, len(fields), ncols))


def _read_as(wide: str, text: str, ncols: int):
    """``_read_decimal_rows`` with the platform's long double, or with a plain double as the wide type."""
    with pytest.MonkeyPatch.context() as mp:
        if wide == "double":
            mp.setattr(geo, "_WIDE", geo._wide_float(np.float64))
        return geo._read_decimal_rows(text, ncols, ",")


class TestReadDecimalRows:
    @given(st.lists(_PLAIN_DECIMAL, min_size=1, max_size=40), st.integers(1, 3),
           st.sampled_from(["long double", "double"]))
    @example(["18.47485606619456", "-72.1862122923906", "0.999990000000000101",
              "-2077473.807332680909"], 2, "long double")
    def test_matches_float_bit_for_bit(self, fields, ncols, wide):
        fields = fields[: len(fields) - len(fields) % ncols] or fields[:1] * ncols
        got = _read_as(wide, _rows_text(fields, ncols), ncols)
        assert got is not None and got.shape == (len(fields) // ncols, ncols)
        assert got.tobytes() == np.array([float(f) for f in fields]).tobytes(), fields

    @pytest.mark.parametrize("wide", ["long double", "double"])
    def test_midpoint_cuts_match_float(self, wide):
        # 3,000 decimals cut to 17-19 significant digits from the midpoints
        # of random doubles: where the wide type has 64 bits, rounding its
        # quotient once more to float64 misses one correct rounding on dozens
        rng = np.random.default_rng(3)
        bits = rng.integers(*np.array([1e-3, 1e15]).view(np.int64).tolist(), 3000)
        fields = [cut_significant(midpoint_text(x), int(sig))
                  for x, sig in zip(bits.view(np.float64).tolist(), rng.integers(17, 20, 3000))]
        got = _read_as(wide, _rows_text(fields, 1), 1)
        want = np.array([float(f) for f in fields])
        assert got.tobytes() == want.tobytes()
        wide_type, _, pow10 = geo._WIDE
        if wide == "long double" and np.finfo(wide_type).nmant == 63:
            m = np.array([int(f.replace(".", "")) for f in fields], dtype=np.uint64)
            k = np.array([len(f.partition(".")[2]) for f in fields])
            twice_rounded = (m.astype(wide_type) / pow10[k]).astype(np.float64)
            assert np.count_nonzero(twice_rounded != want) > 30

    @pytest.mark.skipif(not geo._X87, reason="the bit test applies to x87 long doubles only")
    def test_x87_bit_test_finds_the_midpoints_the_arithmetic_test_finds(self):
        # 3,000 midpoint cuts and their exact midpoints, where both tests flag
        # a quotient on the midpoint of two doubles
        rng = np.random.default_rng(4)
        bits = rng.integers(*np.array([1e-3, 1e15]).view(np.int64).tolist(), 3000)
        fields = [cut_significant(midpoint_text(x), int(sig))
                  for x, sig in zip(bits.view(np.float64).tolist(), rng.integers(17, 21, 3000))]
        fields += [midpoint_text(x) for x in rng.uniform(2.0**53, 2.0**63, 300).tolist()]
        wide, m_limit, pow10 = geo._WIDE
        fields = [f for f in fields if int(f.replace(".", "")) < m_limit]
        m = np.array([int(f.replace(".", "")) for f in fields], dtype=np.uint64)
        k = np.array([len(f.partition(".")[2]) for f in fields])
        q = m.astype(wide) / pow10[np.minimum(k, pow10.size - 1)]
        x = q.astype(np.float64)
        y = 2 * q - x
        arithmetic = (q != x) & (y == y.astype(np.float64))
        bit_test = (q.view(np.uint64)[::2] & 0x7FF) == 0x400
        assert np.array_equal(bit_test, arithmetic)
        assert np.count_nonzero(bit_test) > 30

    @pytest.mark.parametrize("wide", ["long double", "double"])
    @pytest.mark.parametrize("token", [
        # the x87 quotients of these two lie on midpoints of two doubles, and
        # a second rounding to float64 puts each 1 ulp off
        pytest.param("18.47485606619456", id="midpoint-quotient-up"),
        pytest.param("-72.1862122923906", id="midpoint-quotient-down"),
        pytest.param("9007199254740993", id="integer-midpoint"),
        pytest.param("-0.0", id="negative-zero"),
        pytest.param(".5", id="no-integer-digits"),
        pytest.param("5.", id="no-fraction-digits"),
        pytest.param("123456789012345678901234567890", id="mantissa-saturates"),
        pytest.param("0." + "0" * 29 + "1", id="fraction-beyond-exact-powers"),
    ])
    def test_regression_tokens(self, token, wide):
        got = _read_as(wide, f"{token},{token}\n", 2)
        assert got.tobytes() == np.array([float(token)] * 2).tobytes()

    @pytest.mark.parametrize("text", [
        "", "1", "1,2", "1,2\n3\n", "\n", "1,2\n\n", "1,2\r\n", " 1,2\n", "+1,2\n",
        "1e5,2\n", "1/2,3\n", "inf,2\n", "nan,2\n", "1_0,2\n", "\uff11,2\n", "1\t,2\n",
        "1.2.3,4\n", "-,2\n", ".,2\n", ",2\n", "1-,2\n", "--1,2\n", ".-1,2\n", "1,2\n3;4\n",
        "1\n2,3\n", "1,2,3\n4\n",
    ])
    def test_declines_other_text(self, text):
        assert geo._read_decimal_rows(text, 2, ",") is None

    def test_wide_constants(self):
        # P significand bits; the largest K with 5**K < 2**P; 10**0..10**K exact
        for dtype in (np.float64, np.longdouble):
            bits = np.finfo(dtype).nmant + 1
            wide, m_limit, pow10 = geo._wide_float(dtype)
            assert wide is dtype and m_limit == 2 ** min(bits, 64) - 1
            assert 5 ** (pow10.size - 1) < 2**bits < 5**pow10.size
            assert [int(p) for p in pow10] == [10**k for k in range(pow10.size)]
        assert geo._wide_float(np.float64)[2].size == 23  # Clinger's 10**22
        assert geo._WIDE[0] is np.longdouble

    @pytest.mark.parametrize("source", ["str", "file", "crlf-file"])
    def test_clean_catalog_stays_on_the_decimal_reader(self, monkeypatch, tmp_path, source):
        def fallback(*args, **kwargs):
            raise AssertionError("block parsed by a fallback")

        monkeypatch.setattr(network, "read_float_rows", fallback)
        monkeypatch.setattr(network, "_parse_lines", fallback)
        rng = np.random.default_rng(50)
        lats, lons = rng.uniform(-90, 90, 50_000), rng.uniform(-180, 180, 50_000)
        text = format_csv("lat,lon", zip(lats.tolist(), lons.tolist()))
        if source == "str":
            cat = load_catalog(text)
        else:
            crlf = source == "crlf-file"  # read without newline translation
            (tmp_path / "cat.csv").write_text(text, encoding="utf-8",
                                              newline="\r\n" if crlf else None)
            with open(tmp_path / "cat.csv", encoding="utf-8", newline="" if crlf else None) as fh:
                cat = load_catalog(fh)
        assert cat.lats.tobytes() == lats.tobytes()
        assert cat.lons.tobytes() == lons.tobytes()

    @pytest.mark.parametrize("source", ["str", "StringIO"])
    def test_lone_cr_after_header(self, source):
        # io.StringIO does not translate newlines; its header line still
        # ends at the \r, as a str's does
        text = "lat,lon\r18.5,-72.3\n"
        cat = load_catalog(text if source == "str" else io.StringIO(text))
        assert cat.lats.tolist() == [18.5] and cat.lons.tolist() == [-72.3]

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_untranslated_line_ends_match_row_oracle(self, monkeypatch, tmp_path, chunk):
        # a handle opened with newline="" keeps each \r and \r\n; its lines
        # still end at \n, \r\n or \r
        monkeypatch.setattr(geo, "_BLOCK_CHARS", 8 * chunk)
        text = _messy_catalog(np.random.default_rng(chunk + 1), 300)
        path = tmp_path / "cat.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8", newline="") as fh:
            got = _outcome(load_catalog, fh)
        assert got == _outcome(load_catalog_oracle, text)
        assert np.frombuffer(got[0]).size == 300


class TestSynthCatalog:
    def test_single_cell_support(self):
        pop = make_grid([[0.0, 100.0], [0.0, 0.0]])  # hot cell: lon [1,2], lat [1,2]
        cat = synth_catalog(pop, 5, seed=1)
        assert len(cat) == 5
        assert (cat.lats >= 1.0).all() and (cat.lats <= 2.0).all()
        assert (cat.lons >= 1.0).all() and (cat.lons <= 2.0).all()

    def test_population_proportional_shares(self):
        # two cells with populations 900 / 100: binomial 99% interval around 0.9
        pop = make_grid([[900.0, 100.0]])
        cat = synth_catalog(pop, 10000, seed=2024)
        first_share = float((cat.lons < 1.0).mean())
        assert 0.88 <= first_share <= 0.92

    def test_deterministic(self):
        pop = make_grid([[1.0, 2.0], [3.0, 4.0]])
        a = synth_catalog(pop, 50, seed=7)
        b = synth_catalog(pop, 50, seed=7)
        assert np.array_equal(a.lats, b.lats) and np.array_equal(a.lons, b.lons)
        c = synth_catalog(pop, 50, seed=8)
        assert not np.array_equal(a.lats, c.lats)

    def test_all_zero_population(self):
        message = r"^population grid has no cell with positive population$"
        with pytest.raises(EewsimError, match=message):
            synth_catalog(make_grid([[0.0, 0.0]]), 5, seed=1)
        with pytest.raises(EewsimError, match=message):
            synth_catalog(make_grid([[-9999.0, -9999.0]]), 5, seed=1)


class TestSampleNetwork:
    def cat(self, n=10):
        return Catalog(lats=np.linspace(-10, 10, n), lons=np.linspace(30, 40, n))

    def test_exhaustive_sample(self):
        cat = self.cat(6)
        net = sample_network(cat, 6, SeedSpec(1, 6, 0))
        assert sorted(net.catalog_indices.tolist()) == list(range(6))

    def test_indices_distinct_and_in_range(self):
        cat = self.cat(40)
        for replica in range(50):
            net = sample_network(cat, 17, SeedSpec(3, 17, replica))
            idx = net.catalog_indices
            assert len(set(idx.tolist())) == 17
            assert idx.min() >= 0 and idx.max() < 40
            assert np.array_equal(cat.lats[idx], net.lats)

    def test_two_point_coin_flip(self):
        # n=1 of N=2 over 10000 seeds: each point in [0.47, 0.53] of runs
        cat = self.cat(2)
        hits = sum(
            int(sample_network(cat, 1, SeedSpec(s, 1, 0)).catalog_indices[0] == 0)
            for s in range(10000)
        )
        assert 0.47 <= hits / 10000 <= 0.53

    def test_inclusion_probability(self):
        # each point included with frequency n/N within 3 sigma (fixed seeds)
        N, n, runs = 25, 5, 3000
        cat = self.cat(N)
        counts = np.zeros(N)
        for replica in range(runs):
            counts[sample_network(cat, n, SeedSpec(99, n, replica)).catalog_indices] += 1
        p = n / N
        sigma = np.sqrt(p * (1 - p) / runs)
        assert (np.abs(counts / runs - p) <= 3 * sigma).all()

    def test_deterministic_per_seedspec(self):
        cat = self.cat(30)
        a = sample_network(cat, 10, SeedSpec(5, 10, 3))
        b = sample_network(cat, 10, SeedSpec(5, 10, 3))
        assert np.array_equal(a.catalog_indices, b.catalog_indices)
        c = sample_network(cat, 10, SeedSpec(5, 10, 4))
        assert not np.array_equal(a.catalog_indices, c.catalog_indices)

    def test_matches_dense_fisher_yates(self):
        # the sparse sampler makes the same swaps as the O(N) array version
        rng = np.random.default_rng(2024)
        cases = [(1, 1), (7, 7), (50, 50), (2, 1), (200_000, 40)]
        cases += [(int(N), int(rng.integers(1, N + 1))) for N in rng.integers(1, 400, 60)]
        for k, (N, n) in enumerate(cases):
            cat = self.cat(N)
            spec = SeedSpec(int(rng.integers(2**63)), n, k)
            got = sample_network(cat, n, spec).catalog_indices
            want = dense_sample_indices(spec.generator(STREAM_NETWORK), N, n)
            assert got.tolist() == want.tolist(), (N, n)

    @given(st.data(), st.integers(1, 64), st.integers(0, 2**64 - 1))
    def test_matches_step_by_step_oracle(self, data, N, master_seed):
        # small catalogs make swap targets repeat, so the chains of moved
        # positions get long
        n = data.draw(st.integers(1, N))
        spec = SeedSpec(master_seed, n, data.draw(st.integers(0, 2**32)))
        got = sample_network(self.cat(N), n, spec).catalog_indices
        want = sparse_sample_indices(spec.generator(STREAM_NETWORK), N, n)
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("n", [15, 30, 60])
    def test_matches_step_by_step_oracle_on_large_catalog(self, n):
        N = 500_000
        cat = self.cat(N)
        for replica in range(300):
            spec = SeedSpec(11, n, replica)
            got = sample_network(cat, n, spec).catalog_indices
            want = sparse_sample_indices(spec.generator(STREAM_NETWORK), N, n)
            assert got.tolist() == want.tolist(), replica

    def test_errors(self):
        cat = self.cat(4)
        with pytest.raises(EewsimError, match=r"^network size 5 exceeds catalog size 4$"):
            sample_network(cat, 5, SeedSpec(0, 5, 0))
        with pytest.raises(EewsimError, match=r"^network size must be >= 1, got 0$"):
            sample_network(cat, 0, SeedSpec(0, 0, 0))


class TestSeedSpec:
    def test_master_seed_range(self):
        SeedSpec(2**64 - 1, 1, 0)
        rule = r"master_seed must be in \[0, 18446744073709551616\)"
        with pytest.raises(EewsimError, match=rf"^{rule}, got -1$"):
            SeedSpec(-1, 1, 0)
        with pytest.raises(EewsimError, match=rf"^{rule}, got 18446744073709551616$"):
            SeedSpec(2**64, 1, 0)

    def test_distinct_triples_distinct_streams(self):
        base = SeedSpec(42, 100, 0).generator(1).random(8)
        for other in (SeedSpec(43, 100, 0), SeedSpec(42, 101, 0), SeedSpec(42, 100, 1)):
            assert not np.array_equal(base, other.generator(1).random(8))

    def test_stream_tags_decorrelate(self):
        spec = SeedSpec(42, 100, 0)
        assert not np.array_equal(spec.generator(1).random(8), spec.generator(2).random(8))



class TestPhiloxFormulas:
    """The batched seeding and draws against numpy's own SeedSequence and Generator calls."""

    @staticmethod
    def numpy_key(master_seed, n, replica, stream):
        return np.random.SeedSequence((master_seed, n, replica, stream)).generate_state(2, np.uint64)

    @pytest.mark.parametrize("master_seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("n", [1, 3000, 2**32 - 1, 2**32, 2**40])
    def test_keys_match_seed_sequence(self, master_seed, n):
        replicas = np.array([0, 1, 999, 2**32 - 1, 2**32, 2**63 + 5], np.uint64)
        for stream in (STREAM_NETWORK, STREAM_TRIGGERS):
            want = [self.numpy_key(master_seed, n, int(r), stream) for r in replicas]
            np.testing.assert_array_equal(seed_keys(master_seed, n, replicas, stream), want)

    @given(st.integers(0, 2**64 - 1), st.integers(1, 2**48),
           st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
    def test_keys_match_seed_sequence_property(self, master_seed, n, replicas):
        got = seed_keys(master_seed, n, np.array(replicas, np.uint64), STREAM_TRIGGERS)
        want = [self.numpy_key(master_seed, n, r, STREAM_TRIGGERS) for r in replicas]
        np.testing.assert_array_equal(got, want)

    @given(st.integers(0, 2**64 - 1), st.integers(1, 300), st.integers(0, 2**33),
           st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    def test_random_and_uniform_match_generator(self, master_seed, n, replica, lo, width):
        hi = lo + width
        gen = SeedSpec(master_seed, n, replica).generator(STREAM_TRIGGERS)
        want_u, want_d = gen.random(n), gen.uniform(lo, hi, n)
        keys = seed_keys(master_seed, n, np.array([replica]), STREAM_TRIGGERS)
        u = random_doubles(philox_raws(keys, 2 * n))[0]
        assert u[:n].tobytes() == want_u.tobytes()
        assert (lo + (hi - lo) * u[n:]).tobytes() == want_d.tobytes()

    @given(st.data(), st.integers(1, 5000), st.integers(0, 2**64 - 1))
    def test_integers_match_generator(self, data, N, master_seed):
        # sample_networks draws integers(arange(n), N) by Lemire's method;
        # sample_network takes them from Generator.integers
        n = data.draw(st.integers(1, min(N, 200)))
        replicas = np.arange(data.draw(st.integers(1, 4)))
        got = sample_networks(N, n, master_seed, replicas)
        cat = Catalog(lats=np.zeros(N), lons=np.zeros(N))
        for r in replicas.tolist():
            want = sample_network(cat, n, SeedSpec(master_seed, n, r)).catalog_indices
            assert got[r].tolist() == want.tolist()

    def test_lemire_rejection_falls_back_to_generator(self, monkeypatch):
        # recorded: replica 213 of (master_seed 11, n 60) rejects a draw on
        # a 500,000-point catalog, so its later draws shift by one half-word
        calls = []
        generator = SeedSpec.generator
        monkeypatch.setattr(SeedSpec, "generator", lambda spec, stream: calls.append(spec) or generator(spec, stream))
        N, n = 500_000, 60
        got = sample_networks(N, n, 11, np.arange(300))
        assert calls == [SeedSpec(11, n, 213)]
        for r in range(300):
            want = sparse_sample_indices(generator(SeedSpec(11, n, r), STREAM_NETWORK), N, n)
            assert got[r].tolist() == want.tolist(), r

    @pytest.mark.parametrize("N", [2**31 + 1, 2**32 - 1, 2**32, 2**32 + 7])
    def test_huge_catalogs_match_generator(self, N):
        # near 2**32 about half the draws reject; from 2**32 every row takes
        # Generator.integers, whose draws there are no longer 32-bit Lemire
        got = sample_networks(N, 5, 3, np.arange(6))
        for r in range(6):
            want = sparse_sample_indices(SeedSpec(3, 5, r).generator(STREAM_NETWORK), N, 5)
            assert got[r].tolist() == want.tolist()

    def test_errors_match_sample_network(self):
        with pytest.raises(EewsimError, match=r"^network size 5 exceeds catalog size 4$"):
            sample_networks(4, 5, 0, np.arange(2))
        with pytest.raises(EewsimError, match=r"^network size must be >= 1, got 0$"):
            sample_networks(4, 0, 0, np.arange(2))
