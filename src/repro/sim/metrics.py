"""Performance metrics collected during a simulation run.

Latency accounting follows the paper: every disk-cache access has a
latency (hits are free -- "we ignore the memory access time because the
disk cache's data rate is considerably lower than the memory's
bandwidth"); an access is *long-latency* when it exceeds the half-second
threshold (Section IV-D).  Wake-attributed long latencies (those whose
delay includes a spin-up) are tracked separately as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import SimulationError


@dataclass
class PeriodMetrics:
    """Per-period observation record (drives Fig. 9 and Table IV)."""

    index: int
    start_s: float
    end_s: float
    accesses: int = 0
    disk_page_accesses: int = 0
    disk_requests: int = 0
    long_latency: int = 0
    wake_long_latency: int = 0
    latency_sum_s: float = 0.0
    #: Mean filtered idle-interval length observed in the period.
    mean_idle_s: float = 0.0
    #: Memory size in effect during this period, bytes.
    memory_bytes: int = 0
    #: Disk timeout in effect during this period (None = never).
    timeout_s: Optional[float] = None

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def long_latency_per_s(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.long_latency / self.duration_s


class MetricsCollector:
    """Streaming collection of latency, miss and per-period statistics."""

    def __init__(
        self,
        period_s: float,
        long_latency_threshold_s: float = 0.5,
        aggregation_window_s: float = 0.1,
        start_s: float = 0.0,
    ) -> None:
        if period_s <= 0:
            raise SimulationError("period must be positive")
        self.period_s = period_s
        self.threshold_s = long_latency_threshold_s
        self.window_s = aggregation_window_s

        self.total_accesses = 0
        self.total_disk_pages = 0
        self.total_disk_requests = 0
        self.total_writes = 0
        self.total_flush_pages = 0
        self.total_long_latency = 0
        self.total_wake_long_latency = 0
        self.latency_sum_s = 0.0
        self.max_latency_s = 0.0

        self.periods: List[PeriodMetrics] = []
        self._current = PeriodMetrics(
            index=0, start_s=start_s, end_s=start_s + period_s
        )
        self._idle_lengths: List[float] = []
        self._last_disk_access: Optional[float] = None

    # --- events ---------------------------------------------------------------

    def on_hit(self, now: float) -> None:
        del now
        self.total_accesses += 1
        self._current.accesses += 1

    def on_hits(self, count: int) -> None:
        """``count`` memory hits at once (vectorized hit runs).

        Hits carry no latency and no timestamp-dependent state, so a
        whole run of consecutive hits inside one period folds into two
        integer additions -- exactly equivalent to ``count`` calls to
        :meth:`on_hit`.
        """
        self.total_accesses += count
        self._current.accesses += count

    def on_miss(self, now: float, latency_s: float, wake_delay_s: float) -> None:
        """One disk page access with its observed latency."""
        self.total_accesses += 1
        self.total_disk_pages += 1
        self.latency_sum_s += latency_s
        self.max_latency_s = max(self.max_latency_s, latency_s)
        self._current.accesses += 1
        self._current.disk_page_accesses += 1
        self._current.latency_sum_s += latency_s
        if latency_s > self.threshold_s:
            self.total_long_latency += 1
            self._current.long_latency += 1
            if wake_delay_s > 0.0:
                self.total_wake_long_latency += 1
                self._current.wake_long_latency += 1
        if self._last_disk_access is not None:
            gap = now - self._last_disk_access
            if gap >= self.window_s:
                self._idle_lengths.append(gap)
        self._last_disk_access = now

    def on_miss_run(self, times, latencies, wake_delays) -> None:
        """A run of disk page accesses with their observed latencies.

        Equivalent to one :meth:`on_miss` call per element.  The integer
        counters and comparisons are order-free, but the float latency
        sums are not, so they advance element by element in the scalar
        call order on local accumulators (the miss-run kernel contract:
        bit-identical totals, see :mod:`repro.sim.kernels`).
        """
        n = len(times)
        total_latency = self.latency_sum_s
        current_latency = self._current.latency_sum_s
        max_latency = self.max_latency_s
        long_total = 0
        wake_total = 0
        threshold = self.threshold_s
        window = self.window_s
        last = self._last_disk_access
        idle_lengths = self._idle_lengths
        for i in range(n):
            latency_s = latencies[i]
            total_latency += latency_s
            if latency_s > max_latency:
                max_latency = latency_s
            current_latency += latency_s
            if latency_s > threshold:
                long_total += 1
                if wake_delays[i] > 0.0:
                    wake_total += 1
            now = times[i]
            if last is not None:
                gap = now - last
                if gap >= window:
                    idle_lengths.append(gap)
            last = now
        self.total_accesses += n
        self.total_disk_pages += n
        self.latency_sum_s = total_latency
        self.max_latency_s = max_latency
        self._current.accesses += n
        self._current.disk_page_accesses += n
        self._current.latency_sum_s = current_latency
        self.total_long_latency += long_total
        self._current.long_latency += long_total
        self.total_wake_long_latency += wake_total
        self._current.wake_long_latency += wake_total
        self._last_disk_access = last

    def on_request(self) -> None:
        """One merged disk request began (request-size statistics)."""
        self.total_disk_requests += 1
        self._current.disk_requests += 1

    def on_requests(self, count: int) -> None:
        """``count`` merged disk requests at once (batched miss runs)."""
        self.total_disk_requests += count
        self._current.disk_requests += count

    def on_write(self, now: float) -> None:
        """One write access absorbed by the cache (no disk read)."""
        del now
        self.total_accesses += 1
        self.total_writes += 1
        self._current.accesses += 1

    def on_flush(self, num_pages: int) -> None:
        """``num_pages`` dirty pages written back to disk."""
        self.total_flush_pages += num_pages

    # --- periods -----------------------------------------------------------------

    def close_period(
        self,
        now: float,
        memory_bytes: int = 0,
        timeout_s: Optional[float] = None,
    ) -> PeriodMetrics:
        """Finish the current period at ``now`` and start the next."""
        current = self._current
        current.end_s = now
        current.memory_bytes = memory_bytes
        current.timeout_s = timeout_s
        if self._idle_lengths:
            current.mean_idle_s = float(np.mean(self._idle_lengths))
        self.periods.append(current)
        self._idle_lengths = []
        self._current = PeriodMetrics(
            index=current.index + 1, start_s=now, end_s=now + self.period_s
        )
        return current

    # --- summary --------------------------------------------------------------------

    @property
    def current_period(self) -> PeriodMetrics:
        """The open period's record (closed into :attr:`periods` later)."""
        return self._current

    @property
    def current_period_start(self) -> float:
        return self._current.start_s

    @property
    def current_period_accesses(self) -> int:
        return self._current.accesses

    @property
    def mean_latency_s(self) -> float:
        """Average latency over *all* disk-cache accesses (hits are free)."""
        if self.total_accesses == 0:
            return 0.0
        return self.latency_sum_s / self.total_accesses

    def long_latency_per_s(self, duration_s: float) -> float:
        if duration_s <= 0:
            return 0.0
        return self.total_long_latency / duration_s

    @property
    def avg_request_pages(self) -> float:
        if self.total_disk_requests == 0:
            return 1.0
        return self.total_disk_pages / self.total_disk_requests
