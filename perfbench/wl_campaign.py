"""``campaign``: regenerate every experiment from a cold cache.

One cold ``full``-profile campaign of every registered experiment with
one worker into a fresh result cache, a warm re-run against the same
cache, and one migrating multi-disk fleet plan through the same
executor.  The work is fixed, so this workload runs once whatever
``--seconds`` says.

The experiments run at their own configuration, the one EXPERIMENTS.md
is generated from; the benchmark seed draws the fleet's tenants.  Under
other experiment seeds some sweep points are infeasible: seed 410, for
one, makes the ablation's 4-GB trace generator reject popularity 0.1
with a TraceError.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time

from common import OUT, Tally
from speed import ProgressProbe

#: One worker: on a 2-core box two workers took 1.6 times the task time
#: of one for the same tasks, and their times moved with the other's load.
JOBS = 1
#: At scale 256 the fleet's largest shard, whose size the seed sets,
#: decided the campaign's peak resident set (170 to 197 MB over seeds);
#: at 1024 the fleet stays below the cold campaign's own peak (143 MB).
FLEET_SCALE = 1024
FLEET_TENANTS = 8
FLEET_SHARDS = 4
FLEET_PERIODS = 6
#: Least host seconds between two speed probes in a campaign.
PROBE_EVERY_S = 2.0


class Workload:
    name = "campaign"

    def __init__(self, seed: int, experiments=None, fleet_scale: int = FLEET_SCALE,
                 fleet_periods: int = FLEET_PERIODS, config=None) -> None:
        self.seed = seed
        self.experiments = experiments
        self.fleet_scale = fleet_scale
        self.fleet_periods = fleet_periods
        self.config = config

    def setup(self, rep: int = 0) -> None:
        del rep  # every set-up builds the same state
        from repro.campaign.tasks import WorkloadSpec
        from repro.config.machine import scaled_machine
        from repro.experiments.base import full_config
        from repro.experiments.registry import get_plan, list_experiments
        from repro.fleet.sharding import FleetSpec, fleet_plan
        from repro.policies.registry import parse_method

        config = self.config or full_config()
        names = self.experiments or list_experiments()
        self.plans = [(name, get_plan(name, config)) for name in names]
        self.tasks = [task for _, plan in self.plans for task in plan.tasks]
        machine = scaled_machine(self.fleet_scale)
        duration = self.fleet_periods * machine.manager.period_s
        tenants = tuple(
            WorkloadSpec.for_machine(
                machine, dataset_gb=1.0, rate_mb=40.0, popularity=0.8,
                duration_s=duration, seed=self.seed * 100 + i,
            )
            for i in range(FLEET_TENANTS)
        )
        self.fleet_spec = FleetSpec(
            machine=machine, method=parse_method("PTNAP"), tenants=tenants,
            num_shards=FLEET_SHARDS, duration_s=duration, disks_per_shard=2,
            layout="migrating",
        )
        self.fleet = fleet_plan(self.fleet_spec)

    def timed(self, seconds: float, recorder, tally: Tally, speed) -> dict:
        from repro.campaign.cache import ResultCache
        from repro.campaign.executor import run_campaign

        # Fixed work.  One worker runs the tasks in this process, one at a
        # time, so the single-core speed probe, taken between tasks at
        # most every PROBE_EVERY_S, scales each task's time.
        del seconds, recorder, speed
        OUT.mkdir(exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="campaign-", dir=str(OUT))
        try:
            cache = ResultCache(cache_dir)
            probes = ProgressProbe(PROBE_EVERY_S)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            cold = run_campaign(self.tasks, jobs=JOBS, cache=cache, on_progress=probes.note)
            probes.finish()
            cold_s = time.perf_counter() - t0 - probes.spent_s
            cold_cpu_s = time.process_time() - cpu0 - probes.spent_s
            t0 = time.perf_counter()
            warm = run_campaign(self.tasks, jobs=JOBS, cache=cache)
            warm_s = time.perf_counter() - t0
            fleet_probes = ProgressProbe(PROBE_EVERY_S)
            t0 = time.perf_counter()
            fleet = run_campaign(self.fleet.tasks, jobs=JOBS, on_progress=fleet_probes.note)
            fleet_probes.finish()
            fleet_s = time.perf_counter() - t0 - fleet_probes.spent_s
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

        ops = []
        for task, record, scale in (
            [(t, r, probes) for t, r in zip(self.tasks, cold.records)]
            + [(t, r, fleet_probes) for t, r in zip(self.fleet.tasks, fleet.records)]
        ):
            if not tally.check(record.ok, f"{record.label}: {record.error}"):
                continue
            if record.cached:
                continue
            ops.append({
                "key": record.key,
                "label": record.kind,
                "host_s": record.wall_s,
                "ref_s": record.wall_s * scale.factor(record.key),
                "accesses": _accesses(record.payload),
                "writes": getattr(getattr(task, "workload", None), "write_fraction", 0.0) > 0,
            })
        tally.check(
            warm.payloads() == cold.payloads() and warm.stats.hit_ratio == 1.0,
            "warm re-run did not reproduce the cold payloads from the cache",
        )
        report = None
        try:
            report = self.fleet.assemble(fleet.payloads())
            tally.ok()
        except Exception as exc:  # noqa: BLE001 - counted as failed
            tally.fail(f"fleet assembly: {exc!r}")
        lo = 0
        for name, plan in self.plans:
            hi = lo + len(plan.tasks)
            try:
                plan.assemble(cold.payloads()[lo:hi])
                tally.ok()
            except Exception as exc:  # noqa: BLE001 - counted as failed
                tally.fail(f"assemble {name}: {exc!r}")
            lo = hi
        return {
            "elapsed_s": cold_s,
            "cold": cold,
            "warm": warm,
            "fleet": fleet,
            "fleet_report": report,
            "cold_s": cold_s,
            "warm_s": warm_s,
            "fleet_s": fleet_s,
            "cold_cpu_s": cold_cpu_s,
            "probe_s": {"n": len(probes.samples), "median": statistics.median(probes.samples)},
            "ops": ops,
            "digest_results": cold.payloads() + fleet.payloads(),
        }

    def verify(self, phase: dict, tally: Tally) -> None:
        del phase, tally  # every check runs inside the timed phase

    def close(self) -> None:
        pass


def _accesses(payload) -> int:
    if payload is None:
        return 0
    if "summary" in payload:
        return int(payload["summary"]["total_accesses"])
    if "fleet" in payload:
        return int(payload["fleet"]["total_accesses"])
    return 0
