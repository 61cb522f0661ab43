"""Sequential-miss clustering into disk requests.

The disk cache issues page-sized reads, but the block layer merges
sequential misses into one larger disk request (Linux read-ahead).  The
clusterer groups a page miss with the previous one when it is the next
page in sequence *and* arrives within a small merge window; the resulting
request sizes feed the disk's bandwidth table (the paper indexes disk
bandwidth by request size, Section V-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import SimulationError


@dataclass(frozen=True)
class DiskRequest:
    """One merged disk request."""

    #: Arrival time of the first miss in the cluster, seconds.
    time_s: float
    #: First page of the run.
    start_page: int
    #: Number of sequential pages covered.
    num_pages: int

    def size_bytes(self, page_size: int) -> int:
        return self.num_pages * page_size


class ReadaheadClusterer:
    """Streaming merger of sequential page misses.

    Feed misses in time order via :meth:`add`; completed requests come
    back from :meth:`add` (when a miss breaks the run) and :meth:`flush`.
    """

    def __init__(self, merge_window_s: float = 0.005, max_pages: int = 64) -> None:
        if merge_window_s < 0:
            raise SimulationError("merge window must be non-negative")
        if max_pages < 1:
            raise SimulationError("a request covers at least one page")
        self.merge_window_s = merge_window_s
        self.max_pages = max_pages
        self._pending: Optional[DiskRequest] = None
        self._last_time = float("-inf")

    @property
    def pending(self) -> Optional[DiskRequest]:
        """The in-flight request that later misses may still extend."""
        return self._pending

    def add(self, time_s: float, page: int) -> Optional[DiskRequest]:
        """Add one page miss; return a completed request if one closed."""
        if time_s < self._last_time:
            raise SimulationError("misses must arrive in time order")
        self._last_time = time_s
        pending = self._pending
        if pending is not None:
            is_next = page == pending.start_page + pending.num_pages
            in_window = time_s - pending.time_s <= self.merge_window_s
            if is_next and in_window and pending.num_pages < self.max_pages:
                self._pending = DiskRequest(
                    time_s=pending.time_s,
                    start_page=pending.start_page,
                    num_pages=pending.num_pages + 1,
                )
                return None
        self._pending = DiskRequest(time_s=time_s, start_page=page, num_pages=1)
        return pending

    def add_run(self, times, pages) -> int:
        """Add a run of page misses; return how many requests closed.

        Equivalent to one :meth:`add` call per element, with the pending
        request held in locals for the whole run.  The caller only needs
        the *count* of completed requests (it feeds
        :meth:`repro.sim.metrics.MetricsCollector.on_requests`), so the
        closed requests themselves are not materialised.
        """
        n = len(times)
        if n == 0:
            return 0
        last_time = self._last_time
        merge_window_s = self.merge_window_s
        max_pages = self.max_pages
        pending = self._pending
        # The pending request lives in three scalars for the whole run;
        # one frozen DiskRequest is built at write-back (p_num == 0 is
        # the no-pending sentinel, impossible for a live request).
        if pending is not None:
            p_time = pending.time_s
            p_page = pending.start_page
            p_num = pending.num_pages
        else:
            p_time = 0.0
            p_page = 0
            p_num = 0
        completed = 0
        for i in range(n):
            time_s = times[i]
            page = pages[i]
            if time_s < last_time:
                raise SimulationError("misses must arrive in time order")
            last_time = time_s
            if p_num:
                if (
                    page == p_page + p_num
                    and time_s - p_time <= merge_window_s
                    and p_num < max_pages
                ):
                    p_num += 1
                    continue
                completed += 1
            p_time = time_s
            p_page = page
            p_num = 1
        self._pending = DiskRequest(
            time_s=p_time, start_page=p_page, num_pages=p_num
        )
        self._last_time = last_time
        return completed

    def flush(self) -> Optional[DiskRequest]:
        """Close and return the in-flight request, if any."""
        pending, self._pending = self._pending, None
        return pending

    def cluster(self, times: List[float], pages: List[int]) -> List[DiskRequest]:
        """Batch helper: cluster a whole miss stream."""
        if len(times) != len(pages):
            raise SimulationError("times and pages must align")
        requests = []
        for t, p in zip(times, pages):
            done = self.add(t, p)
            if done is not None:
                requests.append(done)
        tail = self.flush()
        if tail is not None:
            requests.append(tail)
        return requests
