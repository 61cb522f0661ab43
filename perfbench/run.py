"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cold-run --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with no instrumentation.  ``--trace 1`` runs the timed phase
twice, untraced and then with span wrappers installed, and reports the
per-layer metrics of the traced phase together with the tracing
overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every correctness check passed.

Metric names, units and bounds live in ``BENCHMARK.json``; which layer
each per-layer metric belongs to, whether a value is host time or
simulated, and each workload's loop type and client count are in
``perfbench/spec.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from pathlib import Path

from speed import TickProbe
from common import (
    HASH_SEED,
    OUT,
    ROOT,
    SETUP_REPEATS,
    SRC,
    Outcome,
    Tally,
    digest,
    peak_rss_mb,
    percentile,
    result_line,
    sim_layers,
    span_layers,
    tail,
    time_fresh_import,
)

WORKLOADS = ("cold-run", "warm-grid", "stream", "campaign")


def make_workload(name: str, seed: int, **overrides):
    if name == "cold-run":
        from wl_cold_run import Workload
    elif name == "warm-grid":
        from wl_warm_grid import Workload
    elif name == "stream":
        from wl_stream import Workload
    elif name == "campaign":
        from wl_campaign import Workload
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(seed, **overrides)


def measure(name: str, seed: int, seconds: float, trace: bool, spec: dict,
            **overrides) -> Outcome:
    """Set up, run the timed phase (twice when tracing), check, report.

    The campaign runs its timed phase once, untraced, either way: its
    per-layer figures come from the campaign's own task records, and a
    second campaign would double the longest run.  The untraced phase
    probes the machine's speed inside each operation; the traced one
    only around them, so that no probe lands inside a span.
    """
    from tracing import SpanRecorder, install, merge_summaries, uninstall

    workload = make_workload(name, seed, **overrides)
    tally = Tally()
    setup_s, setup_ref_s = [], []
    recorder = SpanRecorder()
    traced = None
    # One core for the benchmark and every process it starts, so that the
    # probes run where the work runs and displace it while they run.
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
    if mask is not None:
        os.sched_setaffinity(0, {min(mask)})
    try:
        speed = TickProbe()
        for rep in range(SETUP_REPEATS):
            with speed.measure() as timing:
                # The stream set-up starts the daemon, a fresh interpreter itself.
                if name != "stream":
                    time_fresh_import()
                workload.setup(rep)
            setup_s.append(timing.host_s)
            setup_ref_s.append(timing.ref_s)

        phase = workload.timed(seconds, recorder, tally, speed)
        if trace and name != "campaign":
            patches = install(recorder)
            try:
                if name == "stream":
                    workload.restart_daemon(traced=True)
                recorder.active = True
                traced = workload.timed(seconds, recorder, tally, TickProbe(tick_s=0))
            finally:
                recorder.active = False
                uninstall(patches)
        workload.verify(phase, tally)
        if traced is not None:
            workload.verify(traced, tally)
    finally:
        daemon_summary = workload.close() or {}
        if mask is not None:
            os.sched_setaffinity(0, mask)

    run_digest = digest(phase["digest_results"])
    detail = {"workload": name, "seed": seed, "seconds": seconds,
              **spec_meta()["workloads"][name]}
    detail.update(phase_detail(name, phase))
    if traced is not None:
        traced_digest = digest(traced["digest_results"])
        tally.check(traced_digest == run_digest,
                    "the traced phase changed the simulated results")
        detail["traced"] = phase_detail(name, traced)
        detail["traced_digest_equal"] = traced_digest == run_digest
    detail["failed_share"] = {
        "failed": tally.failed, "attempted": tally.attempted,
        "value": tally.failed / tally.attempted if tally.attempted else 0.0,
    }
    detail["errors"] = tally.errors

    # On stream the daemon serves the workload; the benchmark process
    # itself holds the tenants' traces and replays them offline to check.
    rss_mb = peak_rss_mb(own=name != "stream")
    e2e = end_to_end(phase, statistics.median(setup_ref_s), "ref_s", rss_mb)
    detail["raw"] = end_to_end(phase, statistics.median(setup_s), "host_s", rss_mb)
    detail["probe_s"] = {"n": len(speed.samples), "median": statistics.median(speed.samples)}
    layers = {metric["name"]: 0.0 for metric in spec["per_layer"]}
    if trace and name == "campaign":
        campaign_layers(phase, layers)
    elif traced is not None:
        summary = merge_summaries(recorder.summary(), daemon_summary)
        fill_layers(name, traced, summary, layers)
        layers["trace.overhead_share"] = (
            _time_per_access(fastest(traced["ops"], "ref_s"), "ref_s")
            / _time_per_access(fastest(phase["ops"], "ref_s"), "ref_s") - 1.0
        )
        if name == "cold-run":
            detail["profile_share"] = profile_share(
                recorder.share_by_root("cache.build_profile"), phase["ops"]
            )
        detail["spans"] = dict(sorted(summary.items()))
        OUT.mkdir(exist_ok=True)
        recorder.write(OUT / f"spans-{name}-{seed}.npz")
    detail["setup_s"] = setup_s
    return Outcome(name, tally, e2e, layers, detail, run_digest)


def profile_share(by_root: dict, untraced_ops) -> dict:
    """Per method: the profile pass's share of a cold run.

    ``traced`` divides by the traced operation.  The wrappers add time
    around memory and disk calls but none inside the profile pass, so
    ``untraced`` divides the same profile time by the mean untraced
    operation of that method instead.
    """
    untraced = {}
    for op in untraced_ops:
        untraced.setdefault(op["label"], []).append(op["host_s"])
    out = {}
    for root, row in by_root.items():
        method = root.rsplit(".", 1)[-1]
        profile_s = row["child_s"] / row["count"]
        out[method] = {
            "traced": row["child_s"] / row["total_s"] if row["total_s"] else 0.0,
            "untraced": profile_s / statistics.fmean(untraced[method])
            if method in untraced else None,
        }
    return out


def fastest(ops, clock: str) -> list:
    """Each operation's fastest repetition in the run, by ``clock``.

    Every workload repeats identical work within a run.  Other load on
    the machine only ever adds time, so the least of the repetitions is
    the steadiest estimate of what the work itself costs.
    """
    best = {}
    for op in ops:
        if op["key"] not in best or op[clock] < best[op["key"]][clock]:
            best[op["key"]] = op
    return list(best.values())


def _time_per_access(ops, clock: str) -> float:
    accesses = sum(_work(op) for op in ops)
    return sum(op[clock] for op in ops) / accesses if accesses else float("nan")


def _work(op: dict) -> int:
    """Accesses an operation replayed (its measured window when unknown)."""
    return op.get("replayed", op["accesses"])


def _rate(ops, clock: str) -> float:
    host_s = sum(op[clock] for op in ops)
    return sum(_work(op) for op in ops) / host_s if host_s > 0 else 0.0


def end_to_end(phase: dict, setup_s: float, clock: str, rss_mb: float) -> dict:
    """The gated metrics, from ``clock``: raw ``host_s`` or reference ``ref_s``."""
    ops = fastest(phase["ops"], clock)
    return {
        "setup_s": setup_s,
        "readonly_accesses_per_s": _rate([op for op in ops if not op["writes"]], clock),
        # A geometric mean, not the pooled median: the operations are a fixed
        # mix of unlike kinds, and a pooled median jumps between kinds.
        "op_ms_geomean": math.exp(
            statistics.fmean(math.log(op[clock] * 1e3) for op in ops)
        ),
        "peak_rss_mb": rss_mb,
    }


def phase_detail(name: str, phase: dict) -> dict:
    """Workload-specific figures, each percentile with its sample count."""
    ops = phase["ops"]
    by_label = {}
    for op in ops:
        by_label.setdefault(op["label"], []).append(op["host_s"])
    writes = fastest([op for op in ops if op["writes"]], "ref_s")
    out = {
        "elapsed_s": phase["elapsed_s"],
        "ops": len(ops),
        "writemix_accesses_per_s": {"value": _rate(writes, "ref_s"), "n": len(writes)},
        "op_ms_p50": {"value": percentile([op["host_s"] * 1e3 for op in ops], 50),
                      "n": len(ops)},
        "op_ms_tail": _scaled_tail([op["host_s"] for op in ops], 1e3),
        "op_s_p50_by_label": {
            label: {"value": percentile(v, 50), "n": len(v)}
            for label, v in sorted(by_label.items())
        },
        "digest": digest(phase["digest_results"]),
    }
    if name in ("cold-run", "warm-grid"):
        runs = [op["host_s"] for op in ops]
        out["run_s_p50"] = {"value": percentile(runs, 50), "n": len(runs)}
    if name == "warm-grid":
        out["passes"] = phase["passes"]
        out.update(phase["joint"])
    if name == "stream":
        feeds = [op["host_s"] * 1e3 for op in ops]
        out["rounds"] = phase["rounds"]
        out["sessions"] = len(phase["sessions"])
        out["feed_ms_p50"] = {"value": percentile(feeds, 50), "n": len(feeds)}
        out["feed_ms_tail"] = tail(feeds)
        out["feed_probe_s"] = phase["probe_s"]
    if name == "campaign":
        stats = phase["cold"].stats
        tasks = [op["host_s"] for op in ops]
        out["campaign_cold_s"] = phase["cold_s"]
        out["campaign_warm_s"] = phase["warm_s"]
        out["campaign_cpu_s"] = phase["cold_cpu_s"]
        out["campaign_task_s"] = stats.busy_s
        out["fleet_wall_s"] = phase["fleet_s"]
        out["tasks"] = {"total": stats.tasks, "executed": stats.executed,
                        "dedup": stats.dedup_hits}
        out["task_s_p50"] = {"value": percentile(tasks, 50), "n": len(tasks)}
        out["task_s_p95"] = {"value": percentile(tasks, 95), "n": len(tasks)}
        out["replay_modes"] = phase["cold"].replay_mode_counts()
        out["task_probe_s"] = phase["probe_s"]
        if phase["fleet_report"] is not None:
            out["fleet"] = phase["fleet_report"].render().splitlines()
    else:
        modes = {}
        for result in phase["results"]:
            modes[result["replay_mode"]] = modes.get(result["replay_mode"], 0) + 1
        out["replay_modes"] = modes
    return out


def _scaled_tail(values, factor: float) -> dict:
    row = tail(values)
    if row["value"] is not None:
        row["value"] *= factor
    return row


def fill_layers(name: str, phase: dict, summary: dict, layers: dict) -> None:
    span_layers(summary, layers, sum(_work(op) for op in phase["ops"]))
    sim_layers(phase["results"], layers)
    if name == "stream":
        feeds = phase["ops"]
        if feeds:
            client_ms = sum(op["host_s"] for op in feeds) * 1e3 / len(feeds)
            server_ms = layers["service.feed_server_s"] * 1e3 / len(feeds)
            layers["service.wire_ms"] = client_ms - server_ms
        layers["service.max_pending"] = float(phase["max_pending"])


def campaign_layers(phase: dict, layers: dict) -> None:
    cold, warm = phase["cold"], phase["warm"]
    stats = cold.stats
    layers["campaign.busy_s"] = stats.busy_s
    layers["campaign.overhead_s"] = stats.elapsed_s * stats.jobs - stats.busy_s
    layers["campaign.worker_utilization"] = stats.utilization
    layers["campaign.executed"] = float(stats.executed)
    layers["campaign.dedup_hits"] = float(stats.dedup_hits)
    layers["campaign.warm_hit_ratio"] = warm.stats.hit_ratio
    for record in cold.records + phase["fleet"].records:
        kind = "fleet" if record.kind.startswith("fleet") else record.kind
        key = f"campaign.task_s.{kind}"
        if key in layers and not record.cached:
            layers[key] += record.wall_s
    layers["fleet.task_s"] = layers["campaign.task_s.fleet"]
    for mode, count in cold.replay_mode_counts().items():
        key = f"sim.mode.{mode}"
        if key in layers:
            layers[key] += float(count)
    summaries = [
        p["summary"] for p in cold.payloads() if p is not None and "summary" in p
    ]
    accesses = sum(int(s["total_accesses"]) for s in summaries)
    misses = sum(int(s["disk_page_accesses"]) for s in summaries)
    layers["sim.hit_ratio"] = 1.0 - misses / accesses if accesses else 0.0
    report = phase["fleet_report"]
    if report is not None:
        layers["fleet.pages_migrated"] = float(report.pages_migrated)
        layers["fleet.sleeping_disks"] = float(report.sleeping_disks)
        layers["disk.spin_down_cycles"] = float(report.spin_down_cycles)


def report(outcome: Outcome, trace: bool, spec: dict) -> dict:
    """Print the human-readable block and the detail line; return the result."""
    meta = spec_meta()["metrics"]
    line = result_line(outcome, trace, spec)
    print(f"perfbench {outcome.workload}: {outcome.tally.attempted} operation(s), "
          f"{outcome.tally.failed} failed")
    for metric, row in line["metrics"].items():
        kind = meta.get(metric, {}).get("kind", "?")
        print(f"  {metric:<34} {row['value']:>16.6g} {row['unit']:<8} {kind}")
    print(f"digest {outcome.digest}")
    print("detail " + json.dumps(outcome.detail, sort_keys=True, default=str))
    return line


def spec_meta() -> dict:
    return json.loads((Path(__file__).with_name("spec.json")).read_text())


def main(argv=None) -> int:
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Start over under the fixed hash seed; the exec keeps this process.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    line = report(outcome, bool(args.trace), spec)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
