"""``cold-run``: what a user pays for one new simulation run.

A closed loop of cold single runs, one at a time.  Each operation builds
its trace, clears the profile memo, and calls ``run_method`` with
``audit=True`` -- so the stack-distance profile pass is part of every
operation except the ``2TDS`` one, whose ``disable`` replay needs none.
The loop runs whole rotations of :data:`ROTATION`, so every run sees
the same mix.  Each rotation runs :data:`REPEATS` times on the same
seeds, so every operation is repeated, cold each time, and a run covers
:data:`SEED_GROUPS` sets of seeds.  Rotations after those cycle through
the same seeds again, so a faster machine adds repetitions, not seeds.
"""

from __future__ import annotations

import time

from common import Tally, result_dict, window_accesses

SCALE = 64
DURATION_S = 300.0
REPEATS = 2
#: Rotations on distinct seeds per run: seeds change the cost of a run
#: as much as the machine does, so a run averages over several.
SEED_GROUPS = 2
SUITE = "paper-default"
ROTATION = ("JOINT", "2TFM-16GB", "2TPD-128GB", "2TDS-128GB")


class Workload:
    name = "cold-run"

    def __init__(self, seed: int, scale: int = SCALE, duration_s: float = DURATION_S) -> None:
        self.seed = seed
        self.scale = scale
        self.duration_s = duration_s

    def setup(self, rep: int = 0) -> None:
        del rep  # every set-up builds the same state
        from repro.config.machine import scaled_machine

        self.machine = scaled_machine(self.scale)

    def timed(self, seconds: float, recorder, tally: Tally, speed) -> dict:
        import repro.cache.profile as profile_mod
        import repro.sim.runner as runner
        from repro.traces import suites

        ops, results = [], []
        start = time.perf_counter()
        rotation = 0
        while True:
            for k, method in enumerate(ROTATION):
                i = (rotation // REPEATS) % SEED_GROUPS * len(ROTATION) + k
                with recorder.span(f"op.{SUITE}.{method}", "op"):
                    try:
                        with speed.measure() as timing:
                            trace = suites.build(
                                SUITE, self.machine, self.duration_s,
                                seed=self.seed * 1000 + i,
                            )
                            profile_mod.clear_memo()
                            result = runner.run_method(
                                method, trace, self.machine,
                                duration_s=self.duration_s, audit=True,
                            )
                    except Exception as exc:  # noqa: BLE001 - counted as failed
                        tally.fail(f"{method} #{i}: {exc!r}")
                        continue
                expected = window_accesses(trace, 0.0, self.duration_s)
                tally.check(
                    result.total_accesses == expected,
                    f"{method} #{i}: accounted {result.total_accesses} "
                    f"of {expected} accesses",
                )
                record = result_dict(result)
                ops.append({
                    "key": i,
                    "label": method,
                    "host_s": timing.host_s,
                    "ref_s": timing.ref_s,
                    "accesses": result.total_accesses,
                    "replayed": trace.num_accesses,
                    "writes": False,
                })
                results.append(record)
            rotation += 1
            if (
                rotation >= REPEATS * SEED_GROUPS
                and time.perf_counter() - start >= seconds
            ):
                break
        return {
            "elapsed_s": time.perf_counter() - start,
            "ops": ops,
            "results": results,
            # Every run replays the first rotation; later ones depend on time.
            "digest_results": results[: len(ROTATION)],
        }

    def verify(self, phase: dict, tally: Tally) -> None:
        del phase, tally  # every check runs inside the operation

    def close(self) -> None:
        pass
