"""The trace-driven simulation engine.

Replays a disk-cache access trace through a memory system (LRU cache +
memory power policy), a simulated drive and a disk power policy -- or the
joint manager, which owns both knobs.  Mirrors the paper's evaluation
pipeline (Fig. 6(b)): synthesized traces -> disk-cache simulation -> disk
simulation + power managers.

Misses are priced individually; a miss that continues the previous miss's
sequential run within a short merge window is charged the sequential
service time (track-to-track positioning), which reproduces what request
clustering/read-ahead achieves while keeping submissions in time order.
The merged *request count* statistics still come from a
:class:`~repro.cache.readahead.ReadaheadClusterer` fed with the same miss
stream.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.cache.profile import TraceProfile
from repro.cache.readahead import ReadaheadClusterer
from repro.config.machine import MachineConfig
from repro.core.joint import JointPowerManager
from repro.disk.drive import SimDisk
from repro.disk.service import ServiceModel
from repro.errors import SimulationError
from repro.memory.system import MemorySystem
from repro.policies.base import NO_CHANGE, DiskPolicy
from repro.sim import kernels
from repro.sim.metrics import MetricsCollector
from repro.sim.results import SimResult
from repro.traces.trace import Trace

#: Misses this close in time to the previous, next-page miss are priced as
#: sequential continuations (the block layer would have merged them).
SEQUENTIAL_MERGE_WINDOW_S = 0.05

#: Default write-back flush cadence (Linux pdflush-style sweep).
FLUSH_INTERVAL_S = 30.0


class _ReplayState:
    """Mutable per-run bookkeeping of the replay core.

    The span bodies (:mod:`repro.sim.kernels`), the event drainer and the
    post-loop tail all read and mutate this one place, whichever driver
    -- an offline run or a stream -- feeds the accesses.
    """

    __slots__ = (
        "metrics",
        "clusterer",
        "mode",
        "batch_misses",
        "resident",
        "has_writes",
        "duration_s",
        "warmup_s",
        "period_s",
        "next_flush",
        "next_boundary",
        "last_flush_page",
        "last_miss_page",
        "last_miss_time",
        "current_timeout",
        "mem_mark",
        "disk_mark",
    )


class SimulationEngine:
    """One configured run: machine + memory system + disk policy/manager."""

    def __init__(
        self,
        machine: MachineConfig,
        memory: MemorySystem,
        disk_policy: Optional[DiskPolicy] = None,
        joint_manager: Optional[JointPowerManager] = None,
        idle_hints: Optional[np.ndarray] = None,
        label: str = "run",
        use_geometry: bool = False,
        flush_interval_s: float = FLUSH_INTERVAL_S,
        record_events: bool = False,
    ) -> None:
        if (disk_policy is None) == (joint_manager is None):
            raise SimulationError(
                "provide exactly one of disk_policy or joint_manager"
            )
        if joint_manager is not None and not memory.resizable:
            raise SimulationError("the joint manager needs a resizable memory")
        self.machine = machine
        self.memory = memory
        self.policy = disk_policy
        self.manager = joint_manager
        self.label = label
        self.service = ServiceModel(machine.disk, machine.page_bytes)
        positioned = None
        if use_geometry:
            from repro.disk.positioned import PositionedServiceModel

            positioned = PositionedServiceModel(
                machine.disk, machine.page_bytes
            )
        events = None
        if record_events:
            from repro.disk.events import DiskEventLog

            events = DiskEventLog()
        self.disk = SimDisk(
            machine.disk, self.service, positioned=positioned, events=events
        )
        self.idle_hints = (
            None if idle_hints is None else np.asarray(idle_hints, dtype=float)
        )
        if flush_interval_s <= 0:
            raise SimulationError("flush interval must be positive")
        self.flush_interval_s = flush_interval_s
        #: Which replay loop the most recent :meth:`run` used.
        self.last_replay_mode = kernels.MODE_SCALAR

    # --- helpers ---------------------------------------------------------------

    def _initial_timeout(self) -> Optional[float]:
        if self.manager is not None:
            return self.manager.timeout_s
        assert self.policy is not None
        return self.policy.initial_timeout()

    def _next_hint(self, after_s: float) -> Optional[float]:
        if self.idle_hints is None or self.idle_hints.size == 0:
            return None
        index = int(np.searchsorted(self.idle_hints, after_s, side="right"))
        if index >= self.idle_hints.size:
            return None
        return float(self.idle_hints[index])

    # --- main loop ----------------------------------------------------------------

    def run(
        self,
        trace: Trace,
        duration_s: Optional[float] = None,
        warmup_s: float = 0.0,
        profile: Optional[TraceProfile] = None,
    ) -> SimResult:
        """Replay ``trace`` and return the run's result.

        ``warmup_s`` (a whole number of periods) excludes the cold-start
        window from every reported metric and energy figure: the cache
        fills and the managers adapt during warm-up, but observation
        starts at its end.

        ``profile`` (a :class:`repro.cache.profile.TraceProfile` computed
        for this exact trace *and* the prefill actually applied to the
        memory system) enables the vectorized replay kernels when the run
        is eligible (:func:`repro.sim.kernels.fast_path_reason`); results
        are bit-identical either way.
        """
        period = self.machine.manager.period_s
        if duration_s is None:
            periods = max(int(np.ceil(trace.duration_s / period)), 1)
            duration_s = periods * period
        if duration_s <= 0:
            raise SimulationError("duration must be positive")
        if warmup_s < 0 or warmup_s >= duration_s:
            raise SimulationError("warm-up must be within the duration")
        if warmup_s and abs(warmup_s / period - round(warmup_s / period)) > 1e-9:
            raise SimulationError("warm-up must be a whole number of periods")

        if self.manager is not None and (
            self.memory.capacity_bytes != self.manager.memory_bytes
        ):
            raise SimulationError(
                "memory system and joint manager disagree on the initial size"
            )

        has_writes = kernels.trace_has_writes(trace)
        depths = kernels.profile_depths(trace, profile)
        mode, _ = kernels.select_mode(self, has_writes, depths is not None)
        st = self._begin_run(duration_s, warmup_s, has_writes, mode)
        # The scalar loop's `now >= duration_s` cutoff.
        n = int(np.searchsorted(trace.times, duration_s, side="left"))
        kernels.replay(self, st, trace.times, trace.pages, trace.writes, depths, 0, n)
        return self._finish_run(st, mode)

    # --- the run's set-up and tail ------------------------------------------

    def _begin_run(
        self, duration_s: float, warmup_s: float, has_writes: bool, mode: str
    ) -> _ReplayState:
        """Arm the disk timeout and return fresh replay state.

        A stream passes ``duration_s=math.inf`` and pins the duration
        down when it closes.
        """
        period = self.machine.manager.period_s
        disk = self.disk
        memory = self.memory
        disk.set_timeout(0.0, self._initial_timeout())
        st = _ReplayState()
        st.metrics = self._new_metrics(0.0)
        st.clusterer = ReadaheadClusterer(
            merge_window_s=SEQUENTIAL_MERGE_WINDOW_S
        )
        st.mode = mode
        st.batch_misses = kernels.batches_misses(self, mode)
        st.has_writes = has_writes
        st.duration_s = duration_s
        st.warmup_s = warmup_s
        st.period_s = period
        st.next_flush = self.flush_interval_s
        st.next_boundary = period
        st.last_flush_page = -2
        st.last_miss_page = -2
        st.last_miss_time = -np.inf
        st.current_timeout = disk.timeout_s
        st.resident = len(memory.cache)
        st.mem_mark = memory.energy.snapshot() if warmup_s == 0 else None
        st.disk_mark = disk.energy.snapshot() if warmup_s == 0 else None
        return st

    def _finish_run(
        self, st: _ReplayState, replay_mode: str, final_request=None
    ) -> SimResult:
        """Run the post-loop tail at ``st.duration_s``; build the result.

        ``final_request`` is the ``(collector, period)`` pair that counts
        the request of a read-ahead cluster still open after the last
        access.  None counts it in the live period, which is right when
        no event has fired since that access.
        """
        memory = self.memory
        disk = self.disk
        manager = self.manager
        duration_s = st.duration_s
        if st.clusterer.flush() is not None:
            collector, period = final_request or (
                st.metrics,
                st.metrics.current_period,
            )
            collector.total_disk_requests += 1
            period.disk_requests += 1

        # Fire the trailing events (flushes and periods in the idle tail).
        self._drain_events(st, duration_s)
        metrics = st.metrics
        last_closed = (
            metrics.periods[-1].end_s
            if metrics.periods
            else metrics.current_period_start
        )
        if not metrics.periods or last_closed < duration_s - 1e-9:
            # Close the trailing (possibly partial) window so the period
            # spans always tile the measured window exactly.
            metrics.close_period(
                duration_s,
                memory_bytes=memory.capacity_bytes,
                timeout_s=st.current_timeout,
            )

        if st.has_writes:
            # Final write-back sweep: everything still dirty goes to disk.
            remaining = memory.take_pending_flushes() + memory.flush_all()
            if remaining:
                self._flush(duration_s, remaining, metrics, st.last_flush_page)

        disk.finalize(duration_s)
        memory.finalize(duration_s)

        if st.mem_mark is None or st.disk_mark is None:
            raise SimulationError("warm-up window never closed")
        memory_energy = memory.energy.minus(st.mem_mark)
        disk_energy = disk.energy.minus(st.disk_mark)
        observed_s = duration_s - st.warmup_s
        self.last_replay_mode = replay_mode

        return SimResult(
            label=self.label,
            duration_s=observed_s,
            memory_energy_j=memory_energy.total_j,
            disk_energy_j=disk_energy.total_joules(self.machine.disk),
            memory_energy=memory_energy,
            disk_energy=disk_energy,
            total_accesses=metrics.total_accesses,
            disk_page_accesses=metrics.total_disk_pages,
            disk_requests=metrics.total_disk_requests,
            disk_write_pages=metrics.total_flush_pages,
            mean_latency_s=metrics.mean_latency_s,
            long_latency=metrics.total_long_latency,
            wake_long_latency=metrics.total_wake_long_latency,
            spin_down_cycles=disk_energy.spin_down_cycles,
            utilization=disk_energy.utilization(observed_s),
            periods=metrics.periods,
            decisions=list(manager.decisions) if manager is not None else [],
            replay_mode=replay_mode,
        )

    # --- per-access paths ---------------------------------------------------

    def _serve_miss(self, st: _ReplayState, now: float, page: int) -> None:
        """One disk page access: pricing, metrics, policy callbacks."""
        disk = self.disk
        sequential = (
            page == st.last_miss_page + 1
            and now - st.last_miss_time <= SEQUENTIAL_MERGE_WINDOW_S
        )
        st.last_miss_page = page
        st.last_miss_time = now

        idle_before = max(now - disk.busy_until, 0.0)
        result = disk.submit(now, 1, sequential=sequential, page=page)
        st.metrics.on_miss(now, result.latency_s, result.wake_delay_s)
        if st.clusterer.add(now, page) is not None:
            st.metrics.on_request()

        policy = self.policy
        if policy is not None:
            update = policy.on_request(
                now, result.latency_s, result.wake_delay_s, idle_before
            )
            if update is not NO_CHANGE:
                disk.set_timeout(now, update)
                st.current_timeout = disk.timeout_s
            hint = self._next_hint(now)
            update = policy.on_idle_start(result.finish_s, hint)
            if update is not NO_CHANGE:
                disk.set_timeout(now, update)
                st.current_timeout = disk.timeout_s

    def _drain_events(self, st: _ReplayState, until_s: float) -> None:
        """Fire pending flush/boundary events in time order up to
        ``until_s`` (inclusive, capped at the run's duration)."""
        while True:
            flush_at = st.next_flush if st.has_writes else math.inf
            event_at = min(flush_at, st.next_boundary)
            if event_at > until_s or event_at > st.duration_s:
                break
            if flush_at <= st.next_boundary:
                st.last_flush_page = self._flush(
                    flush_at,
                    self.memory.flush_all(),
                    st.metrics,
                    st.last_flush_page,
                )
                st.next_flush += self.flush_interval_s
            else:
                st.current_timeout = self._handle_boundary(
                    st.next_boundary, st.metrics, st.current_timeout
                )
                # The epoch body's resident count sees a down-resize.
                st.resident = min(st.resident, self.memory.capacity_pages)
                if st.mem_mark is None and st.next_boundary >= st.warmup_s - 1e-9:
                    st.metrics, st.mem_mark, st.disk_mark = (
                        self._begin_measurement(st.next_boundary)
                    )
                st.next_boundary += st.period_s

    def _new_metrics(self, start_s: float) -> MetricsCollector:
        manager_cfg = self.machine.manager
        return MetricsCollector(
            period_s=manager_cfg.period_s,
            long_latency_threshold_s=manager_cfg.long_latency_threshold_s,
            aggregation_window_s=manager_cfg.aggregation_window_s,
            start_s=start_s,
        )

    def _begin_measurement(self, at_s: float):
        """Close the warm-up window: snapshot energies, fresh metrics."""
        self.memory.checkpoint(at_s)
        self.disk.checkpoint(at_s)
        metrics = self._new_metrics(at_s)
        return metrics, self.memory.energy.snapshot(), self.disk.energy.snapshot()

    def _flush(
        self,
        now: float,
        dirty_pages,
        metrics: MetricsCollector,
        last_flush_page: int,
    ) -> int:
        """Write dirty pages back; contiguous runs stream sequentially."""
        for page in sorted(dirty_pages):
            sequential = page == last_flush_page + 1
            self.disk.submit(now, 1, sequential=sequential, page=page)
            last_flush_page = page
        metrics.on_flush(len(dirty_pages))
        return last_flush_page

    def _handle_boundary(
        self,
        boundary_s: float,
        metrics: MetricsCollector,
        current_timeout: Optional[float],
    ) -> Optional[float]:
        """Period housekeeping; returns the timeout now in effect."""
        disk = self.disk
        disk.advance(boundary_s)
        metrics.close_period(
            boundary_s,
            memory_bytes=self.memory.capacity_bytes,
            timeout_s=current_timeout,
        )
        if self.manager is not None:
            self.manager.avg_request_pages = metrics.avg_request_pages
            decision = self.manager.end_period(boundary_s)
            self.memory.resize(boundary_s, decision.memory_bytes)
            disk.set_timeout(boundary_s, decision.timeout_s)
            return disk.timeout_s
        assert self.policy is not None
        update = self.policy.on_period(boundary_s)
        if update is not NO_CHANGE:
            disk.set_timeout(boundary_s, update)
        return disk.timeout_s
