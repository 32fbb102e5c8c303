"""Timing spans around eewsim's public functions, and the traced run.

``from .x import y`` binds ``y`` once per importing module, so each wrapper
is installed on the name the consuming module actually calls (for example
``eewsim.montecarlo.sample_network``, not ``eewsim.network.sample_network``).
A span records (name, start, end, parent, run id) plus an optional count.
The import of ``eewsim.cli`` is a span too (``startup.import``), so spans
cover the traced run except interpreter start-up. Spans stay in memory and
are written out when the run ends. The program runs single-threaded
(``EEWSIM_THREADS=1``), so one stack gives every span its parent.

Traced run, in a fresh interpreter so no wrapper outlives it::

    python3 bench/tracing.py <spans.json> <run id> <eewsim cli args...>
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter


class Tracer:
    """In-memory span store; ``wrap`` returns a timing wrapper for one function."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, run_id, count]
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return wrapper

    def records(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "run", "count")
        return [dict(zip(keys, s)) for s in self.spans]


# --- counters: (positional args, result) -> number or list ---------------------

def _source_bytes(args, _result):
    source = args[0]
    if isinstance(source, str):
        return len(source)
    return os.fstat(source.fileno()).st_size


def _length(_args, result):
    return len(result)


def _catalog_size(args, _result):
    return len(args[0])


def _detect_usage(args, result):
    """[fired, triggers used, triggers simulated].

    A detection uses the triggers up to its last contributing one; a
    detector that never fires has scanned them all.
    """
    total = len(args[0])
    if result is None:
        return [0, total, total]
    return [1, max(result.contributing) + 1, total]


def _kernel_evals(args, _result):
    detected = sum(1 for r in args[0] if r.detected)
    return detected * args[1].nrows * args[1].ncols


# (module, attribute, span name, counter)
TARGETS = (
    ("eewsim.cli", "parse_ascii_grid", "geo.parse_ascii_grid", _source_bytes),
    ("eewsim.cli", "format_ascii_grid", "geo.format_ascii_grid", _length),
    ("eewsim.cli", "exposure_histogram", "geo.exposure_histogram", None),
    ("eewsim.cli", "load_catalog", "network.load_catalog", _length),
    ("eewsim.cli", "synth_catalog", "network.synth_catalog", None),
    ("eewsim.montecarlo", "sample_network", "network.sample_network", _catalog_size),
    ("eewsim.montecarlo", "simulate_triggers", "detection.simulate_triggers", _length),
    ("eewsim.montecarlo", "detect", "detection.detect", _detect_usage),
    ("eewsim.montecarlo", "run_replica", "montecarlo.run_replica", None),
    ("eewsim.cli", "run_campaign", "montecarlo.run_campaign", None),
    ("eewsim.montecarlo", "detection_density", "montecarlo.detection_density", _kernel_evals),
    ("eewsim.warning", "detection_density", "montecarlo.detection_density", _kernel_evals),
    ("eewsim.montecarlo", "write_runs_csv", "montecarlo.write_runs_csv", None),
    ("eewsim.cli", "read_runs_csv", "montecarlo.read_runs_csv", None),
    ("eewsim.warning", "warning_vs_n", "warning.warning_vs_n", None),
    ("eewsim.warning", "weighted_percentile", "warning.weighted_percentile", None),
    ("eewsim.warning", "mode_conditioned_detection", "warning.mode_conditioned_detection", None),
    ("eewsim.warning", "warning_field", "warning.warning_field", None),
    ("eewsim.warning", "warning_stats", "warning.warning_stats", None),
    ("eewsim.cli", "cmd_exposure", "cli.cmd_exposure", None),
    ("eewsim.cli", "cmd_synth", "cli.cmd_synth", None),
    ("eewsim.cli", "cmd_simulate", "cli.cmd_simulate", None),
    ("eewsim.cli", "cmd_warn", "cli.cmd_warn", None),
)


def install(tracer: Tracer) -> None:
    """Replace every target name with a wrapper recording into ``tracer``."""
    for module_name, attr, span_name, count in TARGETS:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(span_name, getattr(module, attr), count))


# --- aggregation ---------------------------------------------------------------

def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending list."""
    h = (len(sorted_values) - 1) * q
    i = int(h)
    if i + 1 >= len(sorted_values):
        return sorted_values[-1]
    return sorted_values[i] + (h - i) * (sorted_values[i + 1] - sorted_values[i])


def layer_metrics(spans: list[dict], traced_wall_s: float) -> dict[str, float]:
    """Per-layer self times and counts from one traced run's spans.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap because the run is single-threaded.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_s[s["parent"]] += s["end"] - s["start"]
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, list] = {}
    for s, c in zip(spans, child_s):
        name, dur = s["name"], s["end"] - s["start"]
        self_s[name] = self_s.get(name, 0.0) + dur - c
        total_s[name] = total_s.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        if s["count"] is not None:
            counts.setdefault(name, []).append(s["count"])

    def sum_of(name, k=None):
        vals = counts.get(name, [])
        return float(sum(v if k is None else v[k] for v in vals))

    m: dict[str, float] = {}
    for name in dict.fromkeys(t[2] for t in TARGETS if not t[2].startswith("cli.")):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    m["geo.parse_ascii_grid.bytes"] = sum_of("geo.parse_ascii_grid")
    m["geo.format_ascii_grid.bytes"] = sum_of("geo.format_ascii_grid")
    m["network.load_catalog.rows"] = sum_of("network.load_catalog")
    m["network.sample_network.calls"] = float(calls.get("network.sample_network", 0))
    m["network.sample_network.index_elems"] = sum_of("network.sample_network")
    m["detection.simulate_triggers.triggers"] = sum_of("detection.simulate_triggers")
    n_detect = calls.get("detection.detect", 0)
    m["detection.detect.fired_frac"] = sum_of("detection.detect", 0) / n_detect if n_detect else 0.0
    simulated = sum_of("detection.detect", 2)
    m["detection.trigger_use_ratio"] = sum_of("detection.detect", 1) / simulated if simulated else 0.0

    replica_ms = sorted(
        (s["end"] - s["start"]) * 1e3 for s in spans if s["name"] == "montecarlo.run_replica"
    )
    m["montecarlo.run_replica.calls"] = float(len(replica_ms))
    m["montecarlo.run_replica.p50_ms"] = _quantile(replica_ms, 0.50) if replica_ms else 0.0
    m["montecarlo.run_replica.p99_ms"] = _quantile(replica_ms, 0.99) if replica_ms else 0.0
    m["montecarlo.detection_density.kernel_evals"] = sum_of("montecarlo.detection_density")
    m["warning.weighted_percentile.calls"] = float(calls.get("warning.weighted_percentile", 0))

    for cmd in ("cmd_exposure", "cmd_synth", "cmd_simulate", "cmd_warn"):
        m[f"cli.{cmd}.total_s"] = total_s.get(f"cli.{cmd}", 0.0)
    m["cli.self_s"] = sum(v for k, v in self_s.items() if k.startswith("cli."))
    m["startup.import_s"] = total_s.get("startup.import", 0.0)
    m["trace.coverage"] = sum(self_s.values()) / traced_wall_s
    return m


LAYERS = ("startup", "geo", "network", "detection", "montecarlo", "warning", "cli")


def layer_shares(metrics: dict[str, float], traced_wall_s: float) -> dict[str, float]:
    """Share of the traced wall time spent in each layer's own code."""
    shares = {layer: 0.0 for layer in LAYERS}
    for key, value in metrics.items():
        layer = key.split(".", 1)[0]
        if layer in shares and key.endswith("_s") and not key.endswith("total_s"):
            shares[layer] += value / traced_wall_s
    return shares


def main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(run_id)
    cli = tracer.wrap("startup.import", importlib.import_module)("eewsim.cli")
    install(tracer)
    code = tracer.wrap("cli.main", cli.main)(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.records(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
