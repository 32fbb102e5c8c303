"""Output oracle for one eewsim run.

``check_outputs`` verifies one output directory on its own: the expected
files exist, ``runs.csv`` covers the n grid x replicas exactly, every
detected row is self-consistent (distance matches the detection location,
delay is no shorter than the fastest P travel time to any catalog phone),
``summary.csv`` agrees with ``runs.csv``, bands are ordered lo <= mean <=
hi, and every ``density_n*.asc`` integrates to 1.

``digests`` pins the exact bytes, so runs of one workload and seed can be
required to agree byte for byte. ``fingerprint`` reduces every output to
numbers (per-column sums and extrema, density mode cells); compared with
``compare_fingerprints`` they tolerate a last-digit change of the floats
(1e-9 relative) but no change to detected flags, counts or mode cells.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path
from statistics import fmean

import numpy as np

from workloads import DEPTH_KM, EPICENTER_LAT, EPICENTER_LON, V_P_KM_S, Workload

EARTH_RADIUS_KM = 6371.0
REL_TOL = 1e-9
RUNS_HEADER = ["n", "replica", "detected", "delay_s", "distance_km", "det_lat", "det_lon"]
FIXED_OUTPUTS = ("exposure.csv", "runs.csv", "summary.csv", "warning_vs_n.csv", "warning_hist.csv")


def haversine_km(lat, lon):
    """Great-circle distance from the epicenter, spherical Earth."""
    lat0, lon0 = math.radians(EPICENTER_LAT), math.radians(EPICENTER_LON)
    lat, lon = np.radians(lat), np.radians(lon)
    a = np.sin((lat - lat0) / 2) ** 2 + math.cos(lat0) * np.cos(lat) * np.sin((lon - lon0) / 2) ** 2
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def min_p_travel_s(catalog_csv: Path) -> float:
    """Fastest P travel time from the hypocenter to any catalog phone."""
    data = np.loadtxt(catalog_csv, delimiter=",", skiprows=1, ndmin=2)
    return float(np.hypot(haversine_km(data[:, 0], data[:, 1]), DEPTH_KM).min() / V_P_KM_S)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def read_grid(path: Path) -> tuple[dict[str, float], np.ndarray]:
    header: dict[str, float] = {}
    with open(path, encoding="utf-8") as fh:
        for _ in range(6):
            key, value = fh.readline().split()
            header[key.lower()] = float(value)
        values = np.array(fh.read().split(), dtype=np.float64)
    return header, values.reshape(int(header["nrows"]), int(header["ncols"]))


def _close(a: float, b: float, scale: float | None = None) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale or 0.0)


def _percentile(sorted_values: list[float], p: float) -> float:
    h = (len(sorted_values) - 1) * p / 100.0
    i = math.floor(h)
    if i >= len(sorted_values) - 1:
        return sorted_values[-1]
    return sorted_values[i] + (h - i) * (sorted_values[i + 1] - sorted_values[i])


def _check_runs(rows, workload: Workload, min_travel_s: float, problems: list[str]):
    """Parse runs.csv rows; return {n: [(delay, distance) of detected replicas]}."""
    expected = [(n, r) for n in workload.n_grid for r in range(workload.replicas)]
    got = [(int(row[0]), int(row[1])) for row in rows]
    if got != expected:
        problems.append(f"runs.csv: {len(rows)} rows do not cover the n grid x "
                        f"{workload.replicas} replicas ({len(expected)} rows) in order")
    detected: dict[int, list[tuple[float, float]]] = {n: [] for n in workload.n_grid}
    for row in rows:
        if row[2] == "false":
            if any(row[3:]):
                problems.append(f"runs.csv: undetected row carries metrics: {row}")
            continue
        if row[2] != "true":
            problems.append(f"runs.csv: bad detected flag: {row}")
            continue
        delay, dist, lat, lon = map(float, row[3:])
        if not delay >= min_travel_s:
            problems.append(f"runs.csv: delay {delay} below the minimum P travel time {min_travel_s}")
        if not _close(dist, float(haversine_km(lat, lon)), 1e-6):
            problems.append(f"runs.csv: distance {dist} does not match location ({lat}, {lon})")
        detected.setdefault(int(row[0]), []).append((delay, dist))
    return detected


def _check_summary(rows, workload: Workload, detected, problems: list[str]) -> None:
    if [int(row[0]) for row in rows] != list(workload.n_grid):
        problems.append("summary.csv: rows do not follow the n grid")
        return
    for row in rows:
        n, found = int(row[0]), detected.get(int(row[0]), [])
        if int(row[1]) != workload.replicas or float(row[2]) != len(found) / workload.replicas:
            problems.append(f"summary.csv n={n}: replicas/detect rate disagree with runs.csv")
        if not found:
            if any(row[3:]):
                problems.append(f"summary.csv n={n}: statistics without detections")
            continue
        for k, col in ((0, 3), (1, 6)):
            values = [f[k] for f in found]
            mean, lo, hi = map(float, row[col:col + 3])
            ordered = sorted(values)
            ref = (_percentile(ordered, 2.5), fmean(values), _percentile(ordered, 97.5))
            if not all(_close(a, b) for a, b in zip((lo, mean, hi), ref)):
                problems.append(f"summary.csv n={n}: band {lo, mean, hi} disagrees with runs.csv {ref}")
            if not lo <= mean <= hi:
                problems.append(f"summary.csv n={n}: band not ordered: {lo, mean, hi}")


def check_outputs(out_dir: Path, workload: Workload, min_travel_s: float) -> list[str]:
    """Every problem found in one run's outputs; empty when the run is correct."""
    problems: list[str] = []
    names = set(FIXED_OUTPUTS) | (set() if workload.catalog_from_csv else {"catalog.csv"})
    missing = sorted(f for f in names if not (out_dir / f).is_file())
    if missing:
        return [f"missing outputs: {', '.join(missing)}"]

    header, rows = read_csv(out_dir / "runs.csv")
    if header != RUNS_HEADER:
        return [f"runs.csv: bad header {header}"]
    detected = _check_runs(rows, workload, min_travel_s, problems)
    _check_summary(read_csv(out_dir / "summary.csv")[1], workload, detected, problems)

    want = {f"density_n{n}.asc" for n, found in detected.items() if found}
    have = {p.name for p in out_dir.glob("density_n*.asc")}
    if want != have:
        problems.append(f"density grids {sorted(have)} != expected {sorted(want)}")
    for name in sorted(want & have):
        header_, values = read_grid(out_dir / name)
        mass = float(values.sum()) * header_["cellsize"] ** 2
        if not abs(mass - 1.0) <= REL_TOL:
            problems.append(f"{name}: density integrates to {mass!r}, not 1")

    _, rows = read_csv(out_dir / "warning_vs_n.csv")
    for row in rows:
        if row[3] and not float(row[4]) <= float(row[3]) <= float(row[5]):
            problems.append(f"warning_vs_n.csv: band not ordered: {row}")
    return problems


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(out_dir: Path) -> dict[str, str]:
    return {p.name: sha256_file(p) for p in sorted(out_dir.iterdir()) if p.is_file()}


# --- numeric fingerprints ------------------------------------------------------

def _column_fingerprint(cells: list[str]):
    try:
        values = [float(c) for c in cells if c != ""]
    except ValueError:  # text column: compared exactly
        return {"sha256": hashlib.sha256("\n".join(cells).encode()).hexdigest()}
    if not values:
        return {"count": 0}
    a = np.array(values)
    return {"count": len(values), "sum": float(a.sum()), "sum_abs": float(np.abs(a).sum()),
            "min": float(a.min()), "max": float(a.max())}


def fingerprint(out_dir: Path) -> dict:
    """Numbers that summarize every output file of one run."""
    out: dict = {}
    for path in sorted(out_dir.glob("*.csv")):
        header, rows = read_csv(path)
        out[path.name] = {
            col: _column_fingerprint([row[i] for row in rows]) for i, col in enumerate(header)
        }
    for path in sorted(out_dir.glob("density_n*.asc")):
        header, values = read_grid(path)
        row, col = divmod(int(np.argmax(values)), values.shape[1])
        out[path.name] = {
            "shape": list(values.shape),
            "origin": [header["xllcorner"], header["yllcorner"], header["cellsize"]],
            "sum": float(values.sum()), "max": float(values.max()), "mode": [row, col],
        }
    return out


def compare_fingerprints(ref: dict, got: dict) -> list[str]:
    """Differences beyond 1e-9 relative on floats; anything else must be equal."""
    problems = []
    if set(ref) != set(got):
        return [f"output files {sorted(got)} != reference {sorted(ref)}"]
    for name, r in ref.items():
        g = got[name]
        if name.endswith(".asc"):
            exact_ok = all(r[k] == g[k] for k in ("shape", "origin", "mode"))
            if not (exact_ok and _close(r["sum"], g["sum"]) and _close(r["max"], g["max"])):
                problems.append(f"{name}: fingerprint {g} != reference {r}")
            continue
        for col, rc in r.items():
            gc = g.get(col)
            if gc is None or set(gc) != set(rc):
                problems.append(f"{name}:{col}: column missing or of another kind")
            elif "sha256" in rc or rc.get("count", 0) == 0:
                if gc != rc:
                    problems.append(f"{name}:{col}: {gc} != reference {rc}")
            else:
                extreme = max(abs(rc["min"]), abs(rc["max"]))
                if not (gc["count"] == rc["count"]
                        and _close(gc["sum"], rc["sum"], rc["sum_abs"])
                        and _close(gc["sum_abs"], rc["sum_abs"])
                        and _close(gc["min"], rc["min"], extreme)
                        and _close(gc["max"], rc["max"], extreme)):
                    problems.append(f"{name}:{col}: {gc} != reference {rc}")
    return problems
