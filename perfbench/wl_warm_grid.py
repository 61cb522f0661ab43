"""``warm-grid``: many runs sharing one profile, as campaigns use them.

Set-up builds four read-only and four write-heavy traces from the seed,
and their profiles; every set-up builds the same traces from a cleared
memo, so each does the same work.  A pass of the timed phase replays a
method grid over the traces, one run at a time, with ``audit=True``;
the timed phase runs whole passes, at least two, so every run is
repeated.  The profiles come from the memo, so the profile pass does no
timed work.  The grid covers all six replay modes.

The cost of a grid moves with its traces' seed, and how much depends on
the scale.  Over twelve seeds, the 1200-s ``paper-default`` traces
touched 4,487 to 24,291 distinct pages at scale 128 (interquartile range
36% of the median) but 9,503 to 12,230 at scale 256 (14%), and one
trace's read-only grid rate spread by 13% at scale 256 and 8% at 512
over 32 seeds.  The ``write-heavy`` traces go the other way: 19% at
scale 128, 33% at 256.  So the read-only traces are four at scale 512,
as many accesses as one at 128, and the write-heavy ones four at 128.
In ten-seed sets the read-only rate and the geometric mean spread by
20% and 13% with one ``paper-default`` trace at 128 and two
``write-heavy``, and by 5% and 7% with these eight.
"""

from __future__ import annotations

import time

from common import Tally, result_dict, window_accesses

WARMUP_S = 600.0
#: (suite, trace length in seconds, scale)
SUITES = (
    ("paper-default", 1200.0, 512),
    ("paper-default", 1200.0, 512),
    ("paper-default", 1200.0, 512),
    ("paper-default", 1200.0, 512),
    ("write-heavy", 1200.0, 128),
    ("write-heavy", 1200.0, 128),
    ("write-heavy", 1200.0, 128),
    ("write-heavy", 1200.0, 128),
)
GRID = (
    "JOINT", "ALWAYS-ON", "2TFM-4GB", "2TFM-32GB", "PTFM-16GB",
    "EAFM-32GB", "2TPD-128GB", "PTPD-128GB", "2TDS-128GB",
)


class Workload:
    name = "warm-grid"

    def __init__(self, seed: int, suites=SUITES, warmup_s: float = WARMUP_S,
                 trace_seeds=None) -> None:
        self.seed = seed
        #: One trace seed per suite; by default drawn from the benchmark seed.
        self.trace_seeds = trace_seeds or [seed * 100 + k for k in range(len(suites))]
        self.suites = suites
        self.warmup_s = warmup_s
        self.traces = []

    def setup(self, rep: int = 0) -> None:
        """Build the traces and their profiles into a cleared memo."""
        del rep  # every set-up builds the same state
        import repro.cache.profile as profile_mod
        from repro.config.machine import scaled_machine
        from repro.traces import suites

        profile_mod.clear_memo()
        self.traces = []
        for (suite, duration_s, scale), seed in zip(self.suites, self.trace_seeds):
            machine = scaled_machine(scale)
            trace = suites.build(suite, machine, duration_s, seed=seed)
            profile_mod.get_profile(trace)
            self.traces.append((suite, duration_s, machine, trace))

    def timed(self, seconds: float, recorder, tally: Tally, speed) -> dict:
        import repro.sim.runner as runner

        ops, results = [], []
        start = time.perf_counter()
        first_pass = None
        passes = 0
        while True:
            for k, (suite, duration_s, machine, trace) in enumerate(self.traces):
                expected = window_accesses(trace, self.warmup_s, duration_s)
                for method in GRID:
                    with recorder.span(f"op.{suite}.{method}", "op"):
                        try:
                            with speed.measure() as timing:
                                result = runner.run_method(
                                    method, trace, machine,
                                    duration_s=duration_s,
                                    warmup_s=self.warmup_s, audit=True,
                                )
                        except Exception as exc:  # noqa: BLE001 - counted as failed
                            tally.fail(f"{suite}/{method}: {exc!r}")
                            continue
                    tally.check(
                        result.total_accesses == expected,
                        f"{suite}/{method}: accounted {result.total_accesses} "
                        f"of {expected} accesses",
                    )
                    record = result_dict(result)
                    record["suite"] = suite
                    ops.append({
                        "key": (k, method),
                        "label": f"{suite}/{method}",
                        "host_s": timing.host_s,
                        "ref_s": timing.ref_s,
                        "accesses": result.total_accesses,
                        "replayed": trace.num_accesses,
                        "writes": suite == "write-heavy",
                    })
                    results.append(record)
            passes += 1
            if first_pass is None:
                first_pass = list(results)
            if passes >= 2 and time.perf_counter() - start >= seconds:
                break
        return {
            "elapsed_s": time.perf_counter() - start,
            "passes": passes,
            "ops": ops,
            "results": results,
            "digest_results": first_pass,
            "joint": joint_figures(first_pass),
        }

    def verify(self, phase: dict, tally: Tally) -> None:
        del phase, tally  # every check runs inside the operation

    def close(self) -> None:
        self.traces = []


def joint_figures(results) -> dict:
    """JOINT against ALWAYS-ON on the first read-only trace (simulated values)."""
    by_label = {}
    for r in results:
        if r["suite"] == "paper-default":
            by_label.setdefault(r["label"], r)
    joint, always_on = by_label.get("JOINT"), by_label.get("ALWAYS-ON")
    if joint is None or always_on is None:
        return {}
    return {
        "joint_energy_ratio": joint["total_energy_j"] / always_on["total_energy_j"],
        "joint_long_latency_per_s": joint["long_latency"] / joint["duration_s"],
    }
