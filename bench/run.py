"""eewsim benchmark: one workload, one workload seed, one run.

    python3 bench/run.py --workload paper_grid --seed 0 --seconds 35 --trace 0

The run writes the workload's inputs (rasters, catalog, run.ini) from the
seed under ``.bench_work/`` in the checkout, compiles eewsim's bytecode,
then repeats measurement cycles until ``--seconds`` are used up (at least
three cycles). Every command is a fresh ``python3 -m eewsim`` child with
``EEWSIM_THREADS=1`` (and BLAS threads pinned to 1), one child at a time,
so each wall time includes interpreter start-up, as a user sees it.

``--trace 0`` cycle: set-up probe (``setup_probe.py``), ``eewsim all``,
then ``eewsim warn`` re-run on that run's ``runs.csv``. End-to-end metrics
are medians over cycles:

    all_s         wall time of ``eewsim all --quiet``
    warn_s        wall time of ``eewsim warn`` on the existing runs.csv
    setup_s       wall time to import eewsim, load the config, parse and
                  check both grids and build the catalog
    peak_rss_mb   peak RSS of the ``all`` child (os.wait4, that child only)
    success_frac  command runs that passed / command runs attempted

``--trace 1`` cycle: untraced ``eewsim all``, then the same command traced
in-process by ``tracing.py``; per-layer metrics are medians over cycles.

Every command's outputs go through the oracle (``oracle.py``): a run that
exits non-zero or fails a check counts as failed and is never dropped. All
runs of one workload and seed must produce byte-identical outputs, and on
seeds listed in ``fingerprints.json`` the outputs must match the recorded
fingerprints within 1e-9 relative. The last line of stdout is one JSON
object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
import tracing
from workloads import WORKLOADS, Workload, write_inputs

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
FINGERPRINTS = BENCH / "fingerprints.json"
MIN_CYCLES = 3
HARD_LIMIT_S = 165.0  # no child is started or left running past this
PINNED_ENV = {
    "EEWSIM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Launch:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def launch(args: list[str], log_dir: Path, timeout_s: float) -> Launch:
    """Run ``python3 <args>`` to completion; time it and take its peak RSS.

    ``os.wait4`` reaps exactly this child, so its rusage is this child's
    alone. A child still running after ``timeout_s`` is killed.
    """
    out_path, err_path = log_dir / "child.out", log_dir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=err, env=child_env(), cwd=ROOT
        )
        watchdog = threading.Timer(max(timeout_s, 0.1), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(
        code=proc.returncode,
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


class Run:
    """One benchmark run: inputs, launches, oracle verdicts and samples."""

    def __init__(self, workload: Workload, seed: int, work: Path, use_fingerprints: bool = True):
        self.workload = workload
        self.work = work
        self.config = write_inputs(workload, seed, work / "inputs")
        self.start = perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.cycles = 0
        self._digests: dict[str, str] | None = None
        self._min_travel_s: float | None = None
        self._fingerprint = None
        if use_fingerprints:
            ref = json.loads(FINGERPRINTS.read_text()).get(workload.name, {}).get(str(seed))
            if ref is not None and ref["inputs"] != oracle.digests(self.config.parent):
                raise RuntimeError(f"{FINGERPRINTS.name} was recorded for other {workload.name} inputs")
            self._fingerprint = None if ref is None else ref["outputs"]

    def remaining_s(self) -> float:
        return HARD_LIMIT_S - (perf_counter() - self.start)

    def run(self, what: str, args: list[str]) -> Launch | None:
        """Launch one command; count it; None (and a failure) if it exits non-zero."""
        self.attempted += 1
        result = launch(args, self.work, self.remaining_s())
        if result.code != 0:
            self.failed += 1
            tail = result.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            self.failures.append(f"{what}: exit code {result.code}: {tail[0]}")
            return None
        return result

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def fail(self, what: str, problems: list[str]) -> bool:
        """Count ``what`` failed if there are problems; True when there were none."""
        self.failed += bool(problems)
        self.failures.extend(f"{what}: {p}" for p in problems[:5])
        return not problems

    def cli_args(self, command: str, out: Path) -> list[str]:
        return [command, "--config", str(self.config), "--quiet", "--out", str(out)]

    def eewsim(self, command: str, out: Path) -> list[str]:
        return ["-m", "eewsim", *self.cli_args(command, out)]

    def verify(self, what: str, out: Path) -> bool:
        """Oracle, determinism and (on recorded seeds) fingerprint checks."""
        catalog = (self.config.parent / "phones.csv" if self.workload.catalog_from_csv
                   else out / "catalog.csv")
        try:
            if self._min_travel_s is None:
                self._min_travel_s = oracle.min_p_travel_s(catalog)
            problems = oracle.check_outputs(out, self.workload, self._min_travel_s)
        except (OSError, ValueError, IndexError, KeyError) as e:
            return self.fail(what, [f"unreadable outputs: {e!r}"])
        digests = oracle.digests(out)
        if self._digests is None:
            if not problems and self._fingerprint is not None:
                problems = oracle.compare_fingerprints(self._fingerprint, oracle.fingerprint(out))
            if not problems:
                self._digests = digests
        elif digests != self._digests:
            problems.append("outputs differ from the first run of this workload and seed")
        return self.fail(what, problems)

    def setup(self) -> None:
        result = self.run("setup", [str(BENCH / "setup_probe.py"), str(self.config)])
        if result is None:
            return
        try:
            built = json.loads(result.stdout)
        except ValueError:
            built = result.stdout
        w = self.workload
        expected = {
            "eewsim": str(SRC / "eewsim" / "__init__.py"),
            "pop": [w.pop.nrows, w.pop.ncols],
            "mmi": [w.mmi.nrows, w.mmi.ncols],
            "catalog": w.catalog_n,
        }
        if self.fail("setup", [] if built == expected else [f"built {built}, expected {expected}"]):
            self.add("setup_s", result.wall_s)

    def all_and_warn(self, out: Path) -> None:
        result = self.run("all", self.eewsim("all", out))
        if result is None or not self.verify("all", out):
            return
        self.add("all_s", result.wall_s)
        self.add("peak_rss_mb", result.rss_mb)
        result = self.run("warn", self.eewsim("warn", out))
        if result is not None and self.verify("warn", out):
            self.add("warn_s", result.wall_s)

    def traced_pair(self, cycle: int, out: Path) -> None:
        plain = self.run("all", self.eewsim("all", out))
        if plain is None or not self.verify("all", out):
            return
        shutil.rmtree(out)
        spans_path = self.work / "spans.json"
        traced = self.run("traced all", [str(BENCH / "tracing.py"), str(spans_path), str(cycle),
                                         *self.cli_args("all", out)])
        if traced is None or not self.verify("traced all", out):
            return
        spans = json.loads(spans_path.read_text())
        for name, value in tracing.layer_metrics(spans, traced.wall_s).items():
            self.add(name, value)
        self.add("trace.all_s", traced.wall_s)
        self.add("trace.overhead_s", traced.wall_s - plain.wall_s)

    def measure(self, seconds: float, trace: bool) -> None:
        # build: bytecode for every module, so no timed child compiles
        # sources, whatever PYTHONDONTWRITEBYTECODE says
        self.run("compile", ["-m", "compileall", "-q", str(SRC / "eewsim")])
        self.setup()  # warm-up: fills the file cache; not sampled
        self.samples.clear()
        begin = perf_counter()
        while True:
            out = self.work / f"out{self.cycles}"
            if trace:
                self.traced_pair(self.cycles, out)
            else:
                self.setup()
                self.all_and_warn(out)
            shutil.rmtree(out, ignore_errors=True)
            self.cycles += 1
            per_cycle = (perf_counter() - begin) / self.cycles
            if self.cycles >= MIN_CYCLES and (perf_counter() - begin) + per_cycle > seconds:
                break
            if 2 * per_cycle > self.remaining_s():
                break


# --- reporting -----------------------------------------------------------------

def environment() -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        cpu = ""
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = git.stdout.strip() or commit
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "src_lines": src_lines,
        "pinned_env": PINNED_ENV,
    }


def summarize(samples: dict[str, list[float]], names: list[str], units: dict[str, str]) -> dict:
    metrics = {}
    for name in names:
        values = samples[name]
        metrics[name] = {"value": statistics.median(values), "unit": units[name]}
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        print(f"{name:48s} {metrics[name]['value']:14.6g} {units[name]:6s} "
              f"q1 {q[0]:.6g} q3 {q[2]:.6g} (median of {len(values)})")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eewsim" / "__init__.py").is_file():
        print(f"error: no eewsim sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = Run(workload, args.seed, work)
        run.measure(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it

    print(f"environment {json.dumps(environment())}")
    print(f"workload {workload.name} seed {args.seed}: {json.dumps(workload.sizes())}")
    print(f"cycles {run.cycles}, command runs {run.attempted}, failed {run.failed}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    run.samples["success_frac"] = [1.0 - run.failed / run.attempted]
    missing = [name for name in units if not run.samples.get(name)]
    if missing:
        print(f"error: no successful sample of {', '.join(missing)}", file=sys.stderr)
        return 1
    if args.trace:
        wall = statistics.median(run.samples["trace.all_s"])
        shares = {k: round(v, 4) for k, v in tracing.layer_shares(
            {k: statistics.median(v) for k, v in run.samples.items()}, wall).items()}
        print(f"layer self-time shares of the traced all: {json.dumps(shares)}")
    metrics = summarize(run.samples, list(units), units)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
