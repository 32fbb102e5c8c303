import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eewsim import network
from eewsim.errors import EewsimError
from eewsim.geo import GeoPoint, format_csv
from eewsim.network import (
    STREAM_NETWORK,
    Catalog,
    SeedSpec,
    load_catalog,
    sample_network,
    synth_catalog,
)
from testutil import (
    catalog_point,
    dense_sample_indices,
    load_catalog_oracle,
    make_grid,
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
    """What ``loader`` makes of ``text`` as a str, a file handle and a list of lines."""
    path.write_text(text, encoding="utf-8", newline="")
    with open(path, encoding="utf-8") as fh:
        from_file = _outcome(loader, fh)
    return [_outcome(loader, text), from_file, _outcome(loader, text.splitlines())]


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
        monkeypatch.setattr(network, "_CHUNK_LINES", chunk)
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
        monkeypatch.setattr(network, "_CHUNK_LINES", 4)
        good = "".join(f"18.{k},-72.{k}\n" for k in range(1, 10))
        text = f"lat,lon\n{good}\n{bad}\r\n{good}"
        got = _outcomes(load_catalog, text, tmp_path / "cat.csv")
        assert got == _outcomes(load_catalog_oracle, text, tmp_path / "cat.csv")
        assert all(isinstance(g[1], str) and "cat.csv line 12:" in g[1] for g in got)

    @pytest.mark.parametrize("text", list(_HEADER_ERRORS))
    def test_header_and_empty_cases_match_oracle(self, monkeypatch, tmp_path, text):
        monkeypatch.setattr(network, "_CHUNK_LINES", 1)
        got = _outcomes(load_catalog, text, tmp_path / "cat.csv")
        assert got == _outcomes(load_catalog_oracle, text, tmp_path / "cat.csv")
        assert got == [(EewsimError, _HEADER_ERRORS[text])] * 3

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
            mp.setattr(network, "_CHUNK_LINES", chunk)
            got = [_outcome(load_catalog, text), _outcome(load_catalog, text.splitlines())]
        want = _outcome(load_catalog_oracle, text)
        assert got == [want, want]

    @pytest.mark.parametrize("blank", ["  ", "\t", " \t "])
    def test_whitespace_only_lines_stay_on_the_reader(self, monkeypatch, blank):
        # numpy's reader rejects a whitespace-only line; the chunk is read
        # again without such lines, not line by line with float
        def per_line(*args):
            raise AssertionError("chunk parsed line by line")

        monkeypatch.setattr(network, "_CHUNK_LINES", 16)
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

    def test_memory_bounded_by_one_chunk(self, monkeypatch, tmp_path):
        # The output is 16 bytes a row. At the end the chunk arrays, their
        # concatenation and the Catalog's private lat/lon copies coexist:
        # three times that. One chunk of lines, their stripped copies, the
        # joined text and its tokens take under 1 KB a line of this length.
        monkeypatch.setattr(network, "_CHUNK_LINES", 2**12)
        n = 200_000
        rng = np.random.default_rng(0)
        path = tmp_path / "cat.csv"
        rows = zip(rng.uniform(17.9, 19.9, n).tolist(), rng.uniform(-74.4, -71.7, n).tolist())
        path.write_text("lat,lon\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))
        bound = 3 * 16 * n + 1024 * network._CHUNK_LINES
        tracemalloc.start()
        try:
            with open(path, encoding="utf-8") as fh:
                cat = load_catalog(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cat) == n
        assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


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

