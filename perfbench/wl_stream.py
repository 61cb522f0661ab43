"""``stream``: tenants streaming to the ``repro serve`` daemon.

Eight tenants share one client connection, a closed loop: it sends one
tenant's next feed of :data:`BATCH` accesses, waits for the reply, then
moves to the next tenant.  A round streams every tenant's whole trace
through one session and closes it; the timed phase runs whole rounds,
at least :data:`MIN_ROUNDS`.  After the timed phase every closed
session's result is compared with offline ``run_method`` on the same
trace and prefill.

The client and the daemon share the one core the benchmark pins itself
to (the daemon inherits it), where they take turns.
After every :data:`PROBE_EVERY` feeds the client runs a short speed
probe on that core, and each feed is scaled by the mean of the two
probes around its window.  The machine's speed moves by a third within
seconds: probes between rounds, one every few seconds, left the round
times spreading by 15% over eight minutes of rounds of one stream,
while the probes inside the rounds followed the round times with a
correlation of 0.98 and left 4%.  One connection, rather than two, keeps
a feed's round trip free of queueing behind another connection's feed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import OUT, ROOT, Tally, program_env, result_dict
from speed import SHORT_ITERATIONS, SHORT_REFERENCE_S, probe

SCALE = 256
DURATION_S = 900.0
BATCH = 512
STATS_EVERY = 64
#: A fresh daemon's first round ran up to a third slower than its later
#: ones; each feed is taken at its fastest round, so two more follow it.
MIN_ROUNDS = 3
#: Feeds between two short speed probes: about 60 ms of feeds.
PROBE_EVERY = 16
#: (suite, method, expect_writes)
TENANTS = (
    ("paper-default", "JOINT", False),
    ("paper-default", "JOINT", False),
    ("paper-default", "2TFM-16GB", False),
    ("paper-default", "2TPD-128GB", False),
    ("paper-default", "2TDS-128GB", False),
    ("low-rate", "JOINT", False),
    ("write-heavy", "2TFM-16GB", True),
    ("write-heavy", "2TFM-16GB", True),
)



class Daemon:
    """A benchmark-owned ``repro serve`` process (see ``serve.py``)."""

    def __init__(self, traced: bool) -> None:
        OUT.mkdir(exist_ok=True)
        self.spans_out = OUT / f"serve-spans-{time.monotonic_ns()}.json"
        command = [sys.executable, str(Path(__file__).with_name("serve.py")),
                   "--spans-out", str(self.spans_out)]
        if traced:
            command.append("--trace")
        self.proc = subprocess.Popen(
            command, cwd=str(ROOT), env=program_env(),
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("listening "):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.split()[1])

    def stop(self) -> dict:
        """Shut the daemon down, wait for it, return its span summary."""
        from repro.service.client import ServiceClient, ServiceError

        try:
            with ServiceClient(port=self.port) as client:
                client.shutdown()
        except (ServiceError, OSError):
            self.proc.kill()  # the daemon no longer answers
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        summary = {}
        if self.spans_out.exists():
            summary = json.loads(self.spans_out.read_text())
            self.spans_out.unlink()
        return summary


class _Tenant:
    def __init__(self, index: int, suite: str, method: str, writes: bool, trace) -> None:
        from repro.sim.prefill import warm_start_pages

        self.index = index
        self.suite = suite
        self.method = method
        self.expect_writes = writes
        self.trace = trace
        self.prefill = warm_start_pages(trace)
        self.times = trace.times.tolist()
        self.pages = trace.pages.tolist()
        self.writes = trace.writes.tolist() if writes else None


class Workload:
    name = "stream"

    def __init__(self, seed: int, scale: int = SCALE, duration_s: float = DURATION_S) -> None:
        self.seed = seed
        self.scale = scale
        self.duration_s = duration_s
        self.daemon = None
        #: tenant index -> offline result, or the error offline replay raised.
        self.reference = None

    def setup(self, rep: int = 0) -> None:
        del rep  # every set-up builds the same state
        from repro.config.machine import scaled_machine
        from repro.traces import suites

        if self.daemon is not None:
            self.daemon.stop()
        self.daemon = Daemon(traced=False)
        self.machine = scaled_machine(self.scale)
        self.tenants = [
            _Tenant(k, suite, method, writes,
                    suites.build(suite, self.machine, self.duration_s, seed=self.seed * 100 + k))
            for k, (suite, method, writes) in enumerate(TENANTS)
        ]

    def restart_daemon(self, traced: bool) -> dict:
        summary = self.daemon.stop()
        self.daemon = Daemon(traced=traced)
        return summary

    def _round(self, feeds, sessions, pending, probes) -> None:
        """Stream every tenant's whole trace through one session each.

        Appends ``(tenant, lo, accesses, host_s, factor)`` per feed to
        ``feeds`` and every short probe's time to ``probes``.
        """
        from repro.service.client import ServiceClient

        window = []

        def rescale() -> None:
            probes.append(probe(SHORT_ITERATIONS))
            factor = SHORT_REFERENCE_S / ((probes[-2] + probes[-1]) / 2.0)
            feeds.extend((*feed, factor) for feed in window)
            window.clear()

        with ServiceClient(port=self.daemon.port) as client:
            state = {}
            for tenant in self.tenants:
                state[tenant.index] = [
                    client.open_session(
                        tenant.method, scale=self.scale, prefill=tenant.prefill,
                        expect_writes=tenant.expect_writes,
                    ),
                    0,
                ]
            sent = 0
            probes.append(probe(SHORT_ITERATIONS))
            while state:
                for tenant in self.tenants:
                    if tenant.index not in state:
                        continue
                    session, lo = state[tenant.index]
                    hi = min(lo + BATCH, len(tenant.times))
                    writes = tenant.writes[lo:hi] if tenant.writes else None
                    t0 = time.perf_counter()
                    client.feed(session, tenant.times[lo:hi], tenant.pages[lo:hi], writes)
                    window.append((tenant.index, lo, hi - lo, time.perf_counter() - t0))
                    sent += 1
                    if sent % PROBE_EVERY == 0:
                        rescale()
                    if sent % STATS_EVERY == 0:
                        live = client.stats()["sessions"].values()
                        pending.append(sum(int(s["pending_accesses"]) for s in live))
                    if hi >= len(tenant.times):
                        sessions.append((tenant.index, client.close(session)))
                        del state[tenant.index]
                    else:
                        state[tenant.index][1] = hi
            if window:
                rescale()

    def timed(self, seconds: float, recorder, tally: Tally, speed) -> dict:
        # The daemon records its own spans; the rounds probe the shared core.
        del recorder, speed
        ops, sessions, pending, probes = [], [], [], []
        start = time.perf_counter()
        rounds = 0
        first_round = None
        while True:
            feeds = []
            try:
                self._round(feeds, sessions, pending, probes)
            except Exception as exc:  # noqa: BLE001 - reported as a failed operation
                tally.fail(f"connection: {exc!r}")
                break
            ops.extend(
                {
                    "key": (index, lo),
                    "label": self.tenants[index].method,
                    "host_s": host_s,
                    "ref_s": host_s * factor,
                    "accesses": accesses,
                    "writes": self.tenants[index].expect_writes,
                }
                for index, lo, accesses, host_s, factor in feeds
            )
            rounds += 1
            if first_round is None:
                first_round = sorted(sessions, key=lambda s: s[0])
            if rounds >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
                break
        return {
            "elapsed_s": time.perf_counter() - start,
            "rounds": rounds,
            "probe_s": {"n": len(probes), "median": statistics.median(probes)}
            if probes else None,
            "ops": ops,
            "sessions": sessions,
            "results": [result for _, result in sessions],
            "digest_results": [result for _, result in first_round or []],
            "max_pending": max(pending, default=0),
        }

    def verify(self, phase: dict, tally: Tally) -> None:
        """Every closed session equals offline ``run_method`` on its trace."""
        from repro.sim.runner import run_method

        if self.reference is None:
            self.reference = {}
            for tenant in self.tenants:
                try:
                    result = run_method(tenant.method, tenant.trace, self.machine, audit=True)
                except Exception as exc:  # noqa: BLE001 - fails that tenant's sessions
                    self.reference[tenant.index] = repr(exc)
                else:
                    self.reference[tenant.index] = _comparable(result_dict(result))
        for index, result in phase["sessions"]:
            tenant = self.tenants[index]
            reference = self.reference[index]
            what = f"tenant {index} ({tenant.suite}/{tenant.method})"
            if isinstance(reference, str):
                tally.fail(f"{what}: offline run_method failed: {reference}")
                continue
            tally.check(
                _comparable(result) == reference,
                f"{what}: streamed result differs from offline run_method",
            )

    def close(self) -> dict:
        summary = self.daemon.stop() if self.daemon is not None else {}
        self.daemon = None
        return summary


def _comparable(result: dict) -> dict:
    """The simulated outcome; the replay-mode name differs by design."""
    return {k: v for k, v in result.items() if k != "replay_mode"}
