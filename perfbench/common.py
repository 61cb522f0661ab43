"""Shared pieces of the benchmark: timing, statistics, checks, output."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

#: Checkout root (the benchmark's parent directory); it writes only below it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Set-up is repeated this many times per run; its median is ``setup_s``.
SETUP_REPEATS = 3

#: ``PYTHONHASHSEED`` for the benchmark and every interpreter it starts.
#: With randomized string hashing the same stream run took 4.0 ms or
#: 4.6 ms a feed depending on the process, a 14% spread over seeds; with
#: a fixed hash seed it was 4%.
HASH_SEED = "0"

#: The modules a fresh interpreter imports before any workload can start.
PROGRAM_MODULES = (
    "repro.traces.suites",
    "repro.cache.profile",
    "repro.sim.runner",
    "repro.campaign.executor",
    "repro.service.client",
)


def program_env() -> Dict[str, str]:
    """Environment for child interpreters: the program on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def time_fresh_import(modules: Sequence[str] = PROGRAM_MODULES) -> float:
    """Host seconds for a fresh interpreter to import the program."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        env=program_env(),
        cwd=str(ROOT),
        check=True,
    )
    return time.perf_counter() - start


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest of p50/p90/p95/p99/p99.9 with ten samples beyond it."""
    n = len(values)
    chosen = None
    for q in (50.0, 90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - q / 100.0) >= 10.0:
            chosen = q
    if chosen is None:
        return {"p": None, "value": None, "n": n}
    return {"p": chosen, "value": percentile(values, chosen), "n": n}


def peak_rss_mb(own: bool = True) -> float:
    """Largest resident set of any child this process waited for, and of
    this process itself when ``own``."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    mine = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if own else 0
    return max(mine, children) / 1024.0  # ru_maxrss is in KiB on Linux


def digest(records: Iterable[object]) -> str:
    """SHA-256 over the canonical JSON of ``records``."""
    text = json.dumps(list(records), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def window_accesses(trace, warmup_s: float, duration_s: float) -> int:
    """Accesses a run must account for: those inside [warmup_s, duration_s)."""
    times = trace.times
    return int(((times >= warmup_s) & (times < duration_s)).sum())


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failures."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)

    def check(self, passed: bool, what: str) -> bool:
        if passed:
            self.ok()
        else:
            self.fail(what)
        return passed


@dataclass
class Outcome:
    """Everything one workload run reports."""

    workload: str
    tally: Tally
    e2e: Dict[str, float]
    layers: Dict[str, float]
    detail: Dict[str, object]
    digest: str


def result_line(outcome: Outcome, trace: bool, spec: dict) -> dict:
    """The final JSON object: end-to-end or per-layer metrics by name."""
    group = "per_layer" if trace else "end_to_end"
    values = outcome.layers if trace else outcome.e2e
    metrics = {}
    for entry in spec[group]:
        name = entry["name"]
        metrics[name] = {"value": float(values[name]), "unit": entry["unit"]}
    return {
        "correct": outcome.tally.failed == 0,
        "attempted": outcome.tally.attempted,
        "failed": outcome.tally.failed,
        "metrics": metrics,
    }


def result_dict(result) -> Dict[str, object]:
    """A SimResult's simulated outcome in the daemon's wire format."""
    from repro.service.daemon import result_to_dict

    return result_to_dict(result)


def sim_layers(results: Sequence[Dict[str, object]], layers: Dict[str, float]) -> None:
    """Fill the simulated per-layer figures from wire-format results."""
    accesses = sum(int(r["total_accesses"]) for r in results)
    misses = sum(int(r["disk_page_accesses"]) for r in results)
    layers["sim.hit_ratio"] = 1.0 - misses / accesses if accesses else 0.0
    layers["disk.requests"] = float(sum(int(r["disk_requests"]) for r in results))
    layers["disk.spin_down_cycles"] = float(
        sum(int(r["spin_down_cycles"]) for r in results)
    )
    for r in results:
        mode = str(r["replay_mode"]).replace("stream-", "")
        key = f"sim.mode.{mode}"
        if key in layers:
            layers[key] += 1.0


def span_layers(summary: Dict[str, Dict[str, float]], layers: Dict[str, float],
                accesses: int) -> None:
    """Fill the host-time per-layer figures from a span summary."""
    from tracing import layer_total

    layers["traces.generate_s"] = layer_total(summary, "traces")
    layers["cache.profile_s"] = layer_total(summary, "cache.build_profile")
    layers["cache.profile_builds"] = layer_total(summary, "cache.build_profile", "calls")
    layers["cache.tracker_s"] = layer_total(summary, "cache.tracker")
    layers["cache.predict_s"] = layer_total(summary, "cache.predict")
    layers["sim.run_self_s"] = layer_total(summary, "sim.run_method", "self_s")
    layers["sim.audit_s"] = layer_total(summary, "sim.audit")
    layers["memory.run_calls"] = layer_total(summary, "memory.run", "calls")
    layers["memory.run_s"] = layer_total(summary, "memory.run")
    access_calls = layer_total(summary, "memory.access", "calls")
    layers["memory.access_calls_per_access"] = access_calls / accesses if accesses else 0.0
    layers["memory.access_s"] = layer_total(summary, "memory.access")
    layers["disk.submit_calls"] = layer_total(summary, "disk.submit", "calls")
    layers["disk.submit_run_calls"] = layer_total(summary, "disk.submit_run", "calls")
    layers["disk.submit_s"] = layer_total(summary, "disk.submit") + layer_total(
        summary, "disk.submit_run"
    )
    layers["core.end_period_calls"] = layer_total(summary, "core.end_period", "calls")
    layers["core.end_period_s"] = layer_total(summary, "core.end_period")
    layers["service.feed_server_s"] = layer_total(summary, "service.feed")
