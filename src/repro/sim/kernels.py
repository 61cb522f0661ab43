"""The replay core: one epoch walk, one span dispatcher, six span bodies.

Two drivers replay accesses through this module.
:meth:`SimulationEngine.run` hands over a whole trace at once, with the
stack depths of its :class:`repro.cache.profile.TraceProfile`;
:class:`repro.service.streaming.StreamingManager` hands over an
incremental stream span by span, with the depths of its incremental
Mattson tracker.  An offline run is a stream whose trace arrives in one
batch, so both drivers share every piece of the replay:

* :func:`select_mode` picks the replay mode from the engine, whether the
  input carries writes, and whether per-access depths exist;
* the engine's ``_begin_run`` and ``_finish_run`` set up the mutable
  replay state and run the post-loop tail into a ``SimResult``;
* :func:`replay` walks accesses ``[lo, hi)`` epoch by epoch: each span
  below the next period boundary replays through :func:`replay_span`,
  and the boundary itself fires on its own through the scalar
  ``_drain_events`` -- only once an access at or past it remains, so
  every resize and timeout change is observed before the next epoch is
  classified;
* :func:`replay_span` replays one span that no period boundary
  interrupts through the body of the run's mode.

The streaming driver adds only what a stream needs on top: buffering,
the rule for when an epoch is proven complete, and the tracker.

The scalar body dispatches one Python call chain per access and is the
reference every fast body must match.  The fast bodies exploit that the
outcome of every access is known before it is replayed: the depths and
the LRU inclusion property decide hit or miss (``0 <= depth <
capacity``), so *runs of consecutive hits replay as single segments* --
two integer additions (metrics) plus one batched energy charge.  Misses,
boundaries, flushes, policy callbacks and disk accounting run through
the exact scalar code paths (:meth:`SimulationEngine._serve_miss` /
``_drain_events``) in the same order with the same floating-point
operations, so a fast replay is bit-identical to the scalar one -- the
``kernels``, ``missrun``, ``writes``, ``epoch`` and ``stream`` checks and
``tests/sim/test_kernels.py`` assert as much.

The modes:

* ``"vectorized"`` -- fixed-capacity read-only runs (no joint manager)
  under a memory system that opted into profiled replay (nap,
  power-down): the depths decide every access, misses replay one at a
  time through the scalar ``_serve_miss``.
* ``"missrun"`` -- the vectorized mode plus *batched misses*: when the
  disk policy is request-blind (it overrides neither ``on_request`` nor
  ``on_idle_start``, so the timeout can only change at period
  boundaries) and the drive has no positioned service model, runs of
  consecutive misses replay through :meth:`SimDisk.submit_run` -- the
  per-miss busy/spin/wake recurrence advanced on local accumulators in
  the scalar loop's exact float64 operation order -- with the
  sequential-merge flags resolved by one vectorized compare, the
  clusterer advanced by :meth:`ReadaheadClusterer.add_run`, and metrics
  by :meth:`MetricsCollector.on_miss_run`.
* ``"epoch"`` -- joint-manager runs.  Between two period boundaries the
  cache capacity is fixed, so each epoch's ``(times, depths)`` slice
  feeds the manager's per-period log as one batch
  (:meth:`JointPowerManager.record_profiled` -- the depths are exactly
  what the manager's own tracker would compute) and hits collapse into
  segments at the epoch's capacity.  Because the joint manager may
  resize *up*, the cache is not always full; the body tracks the
  resident-page count ``r`` analytically (hit iff ``0 <= depth < r``;
  each miss grows ``r`` to capacity; a down-resize clamps it), which is
  exactly the LRU stack's inclusion behaviour.  The manager only moves
  the timeout at boundaries, so miss runs batch exactly as in
  ``"missrun"`` whenever the drive qualifies -- offline and streaming
  alike.
* ``"writes"`` -- fixed-capacity *write-carrying* runs under a
  profiled-replay memory.  Write-back is write-allocate, so the LRU
  evolves exactly as in a read-only replay and the depths stay valid;
  hit runs keep the live cache and dirty set in sync through
  :meth:`MemorySystem.consume_hit_run_rw` (hits never evict, so no flush
  can arise inside a run), and every miss, periodic flush sweep and
  dirty eviction runs through the exact scalar
  ``access_rw``/``_flush``/``_drain_events`` path.
* ``"disable"`` -- the disable-state (2TDS) model on fixed-capacity
  read-only runs.  Bank invalidations make stack depths unusable (true
  reuse depths shrink when banks drop their pages), so this mode needs
  *no depths*: the live ``_page_bank`` map is the residency oracle, and
  :meth:`DisableMemorySystem.consume_hit_run` consumes maximal pure-hit
  prefixes in a tight loop, falling back to the scalar ``access`` at
  every miss/invalidation/resurrection.
* ``"scalar"`` -- the per-access reference loop.

Fallback conditions (any one selects ``"scalar"``):

* the ``$REPRO_KERNELS`` kill switch is set;
* the memory system did not opt into profiled replay
  (:data:`MemorySystem.profiled_replay`) and is not the disable model;
* a joint run under anything but the nap model (only nap is resizable);
* a joint run that carries writes (flushes interleave with resizes
  under the live manager);
* a disable-model run that carries writes (invalidation spills
  interleave with the flush cadence);
* no per-access depths (offline: no profile covering the trace), except
  for the disable mode, which replays from live bank state alone.

Additional conditions demote ``"missrun"`` to plain ``"vectorized"``:

* the disk policy overrides ``on_request`` or ``on_idle_start`` (it may
  change the timeout mid-run, which the batched recurrence assumes
  cannot happen);
* the drive prices requests from geometry (a positioned service model);
* the drive instance carries a ``submit``/``submit_run`` attribute
  override (e.g. the runner's miss-time recorder), which the batch path
  would bypass.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

import numpy as np

from repro.cache.profile import TraceProfile, kernels_enabled
from repro.cache.stack_distance import COLD
from repro.errors import SimulationError
from repro.memory.system import (
    DisableMemorySystem,
    NapMemorySystem,
    supports_profiled_replay,
)
from repro.policies.base import DiskPolicy

#: SimResult.replay_mode values.
MODE_SCALAR = "scalar"
MODE_VECTORIZED = "vectorized"
MODE_MISSRUN = "missrun"
MODE_EPOCH = "epoch"
MODE_WRITES = "writes"
MODE_DISABLE = "disable"

#: The modes whose span bodies classify accesses from per-access depths.
DEPTH_MODES = frozenset((MODE_VECTORIZED, MODE_MISSRUN, MODE_EPOCH, MODE_WRITES))


def _policy_is_request_blind(policy) -> bool:
    """True when ``policy`` never reacts to individual requests.

    A request-blind policy overrides neither hook the engine fires per
    miss -- the base implementations discard their arguments and return
    ``NO_CHANGE`` -- so between two period boundaries the disk timeout
    is a constant and the whole per-miss policy round trip (including
    the idle-hint lookup feeding ``on_idle_start``) can be skipped.
    Checked on the concrete class so any override opts out.
    """
    cls = type(policy)
    return (
        cls.on_request is DiskPolicy.on_request
        and cls.on_idle_start is DiskPolicy.on_idle_start
    )


def _batchable_disk(disk) -> bool:
    """True when ``disk`` may serve miss runs through ``submit_run``.

    A positioned service model prices each request from the head
    position, which the precomputed sequential/first split cannot
    express; and an instance-level ``submit``/``submit_run`` override
    (e.g. :func:`repro.sim.runner._collect_miss_times`'s recorder) would
    be silently bypassed by the batch path.  Class-level patches (the
    mutation tests) still take effect through ``submit_run`` itself.
    """
    return (
        disk.positioned is None
        and "submit" not in disk.__dict__
        and "submit_run" not in disk.__dict__
    )


def select_mode(
    engine, has_writes: bool, has_depths: bool
) -> Tuple[str, Optional[str]]:
    """Pick the replay mode for ``engine``'s next run.

    ``has_writes`` says whether the input carries writes, ``has_depths``
    whether per-access stack depths are available.  Returns ``(mode,
    reason)``: ``reason`` explains a scalar fallback and is None when a
    fast mode applies.
    """
    if not kernels_enabled():
        return MODE_SCALAR, "the $REPRO_KERNELS kill switch disables the fast paths"
    memory = engine.memory
    if engine.manager is None and type(memory) is DisableMemorySystem:
        # The disable mode replays from live bank state: no depths needed.
        if has_writes:
            return (
                MODE_SCALAR,
                "write-back flushing under disable-model invalidations "
                "needs the live scalar loop",
            )
        return MODE_DISABLE, None
    if not has_depths:
        return MODE_SCALAR, "no per-access stack depths (no profile covers the trace)"
    if engine.manager is not None:
        if has_writes:
            return (
                MODE_SCALAR,
                "write-back traces interleave flushes with resizes under "
                "the joint manager",
            )
        if type(memory) is not NapMemorySystem:
            return (
                MODE_SCALAR,
                "joint replay supports only the nap memory model, not "
                f"{type(memory).__name__}",
            )
        return MODE_EPOCH, None
    if not supports_profiled_replay(memory):
        return (
            MODE_SCALAR,
            f"{type(memory).__name__} hit/miss outcomes depend on "
            "state the profile cannot predict",
        )
    if has_writes:
        return MODE_WRITES, None
    if _policy_is_request_blind(engine.policy) and _batchable_disk(engine.disk):
        return MODE_MISSRUN, None
    return MODE_VECTORIZED, None


def batches_misses(engine, mode: str) -> bool:
    """True when ``mode`` serves miss runs through ``SimDisk.submit_run``.

    Nothing may move the disk timeout between two boundaries:
    ``"missrun"`` eligibility guarantees it, and the joint manager
    (``"epoch"``) only acts at boundaries, so its runs batch whenever the
    drive qualifies.
    """
    return mode == MODE_MISSRUN or (
        mode == MODE_EPOCH and _batchable_disk(engine.disk)
    )


def trace_has_writes(trace) -> bool:
    return trace.writes is not None and bool(trace.writes.any())


def profile_depths(trace, profile: Optional[TraceProfile]) -> Optional[np.ndarray]:
    """``profile``'s per-access depths when it covers ``trace``, else None."""
    if profile is None or len(profile) != trace.num_accesses:
        return None
    return profile.depths


def fast_path_reason(engine, trace, profile: Optional[TraceProfile]) -> Optional[str]:
    """Why this run cannot take a fast path (None = it can)."""
    has_depths = profile_depths(trace, profile) is not None
    return select_mode(engine, trace_has_writes(trace), has_depths)[1]


# --- the walk and the dispatcher ------------------------------------------


def replay(engine, st, times, pages, writes, depths, lo: int, hi: int) -> None:
    """Replay accesses ``[lo, hi)`` epoch by epoch.

    ``times``/``pages``/``writes``/``depths`` are the driver's arrays,
    sorted by time over ``[0, hi)``; ``writes`` may be None for
    read-only input and ``depths`` None for modes that need none.  An
    access exactly at a boundary belongs to the next epoch: the scalar
    loop drains events before recording it.  A boundary fires only when
    an access at or past it remains; trailing ones are the tail's.
    """
    drain = engine._drain_events
    while lo < hi:
        boundary = st.next_boundary
        if boundary > st.duration_s:
            end = hi
        else:
            end = lo + int(np.searchsorted(times[lo:hi], boundary, side="left"))
        if end > lo:
            replay_span(engine, st, times, pages, writes, depths, lo, end)
            lo = end
            if lo >= hi:
                break
        drain(st, boundary)


def replay_span(engine, st, times, pages, writes, depths, lo: int, hi: int) -> None:
    """Replay ``[lo, hi)`` through the body of ``st.mode``.

    Every fast body requires that no period boundary falls inside the
    span; the scalar body drains events per access and takes any span.
    """
    mode = st.mode
    memory = engine.memory
    if mode == MODE_SCALAR:
        _replay_scalar_span(engine, st, times, pages, writes, lo, hi)
        return
    if mode == MODE_DISABLE:
        _replay_disable_span(engine, st, memory, times, pages, lo, hi)
        return
    window = depths[lo:hi]
    if mode == MODE_EPOCH:
        # Feed the whole epoch's per-period log in one batch.  The manager
        # only reads it at end_period, so batching ahead of the misses is
        # equivalent to the scalar loop's interleaved record_access calls.
        engine.manager.record_profiled(times[lo:hi], window)
        misses, st.resident = _epoch_misses(
            depths, lo, hi, st.resident, memory.capacity_pages
        )
    else:
        # TraceProfile.hit_mask's rule: hit iff 0 <= depth < capacity.
        capacity = memory.capacity_pages
        misses = np.flatnonzero((window < 0) | (window >= capacity)) + lo
    if mode == MODE_WRITES:
        _replay_writes_span(engine, st, memory, times, pages, writes, misses, lo, hi)
    else:
        _replay_read_span(engine, st, memory, times, pages, misses, lo, hi)


# --- span bodies -----------------------------------------------------------


def _replay_read_span(
    engine, st, memory, times, pages, misses, lo: int, hi: int
) -> None:
    """Replay the read-only span ``[lo, hi)`` given its miss indices.

    Hit runs collapse into segment charges; misses serve one at a time
    through the scalar ``_serve_miss``, or -- ``st.batch_misses`` -- in
    runs through :func:`_serve_miss_run`.  A read-only span inside one
    epoch has no pending event before any of its accesses, so nothing
    drains here.
    """
    pos = lo
    if st.batch_misses:
        for run_lo, run_hi in _miss_runs(misses):
            if pos < run_lo:
                _consume_hits(st, memory, times, pages, pos, run_lo)
            _serve_miss_run(engine, st, memory, times, pages, run_lo, run_hi)
            pos = run_hi
    else:
        serve_miss = engine._serve_miss
        for m in misses.tolist():
            if pos < m:
                _consume_hits(st, memory, times, pages, pos, m)
            now = float(times[m])
            page = int(pages[m])
            memory.charge_page_access(now, page)
            serve_miss(st, now, page)
            pos = m + 1
    if pos < hi:
        _consume_hits(st, memory, times, pages, pos, hi)


def _consume_hits(st, memory, times, pages, lo: int, hi: int) -> None:
    """Account the read-only hit run ``times[lo:hi]`` as one segment."""
    memory.charge_hit_run(times, pages, lo, hi)
    st.metrics.on_hits(hi - lo)


def _miss_runs(miss_indices: np.ndarray):
    """Yield ``(lo, hi)`` half-open spans of consecutive miss indices."""
    if miss_indices.size == 0:
        return
    breaks = np.flatnonzero(np.diff(miss_indices) != 1) + 1
    starts = miss_indices[np.concatenate(([0], breaks))].tolist()
    ends = miss_indices[np.concatenate((breaks - 1, [miss_indices.size - 1]))].tolist()
    for lo, hi in zip(starts, ends):
        yield lo, hi + 1


def _serve_miss_run(engine, st, memory, times, pages, lo: int, hi: int) -> None:
    """Serve the event-free all-miss stretch ``[lo, hi)`` batched.

    Exactly what ``hi - lo`` iterations of ``charge_page_access`` +
    ``_serve_miss`` would do.  The scalar loop interleaves four objects
    per miss -- memory energy, the drive, metrics, the clusterer -- but
    their accumulators are disjoint, so advancing each object over the
    whole stretch in its own pass preserves every object's internal
    floating-point operation order bit-exactly.  The per-miss policy
    hooks are skipped entirely: eligibility guarantees they are the
    base-class no-ops.
    """
    # Deferred: engine.py imports this module at its own top level.
    from repro.sim.engine import SEQUENTIAL_MERGE_WINDOW_S

    run_times = times[lo:hi]
    run_pages = pages[lo:hi]
    n = hi - lo
    # The scalar flag: next page in sequence, within the merge window.
    # Element 0 continues the previous miss (possibly many hit runs and
    # boundaries ago); the rest compare against their left neighbour.
    seq = np.empty(n, dtype=bool)
    seq[0] = (
        int(run_pages[0]) == st.last_miss_page + 1
        and float(run_times[0]) - st.last_miss_time <= SEQUENTIAL_MERGE_WINDOW_S
    )
    if n > 1:
        np.logical_and(
            run_pages[1:] == run_pages[:-1] + 1,
            run_times[1:] - run_times[:-1] <= SEQUENTIAL_MERGE_WINDOW_S,
            out=seq[1:],
        )
    services = _miss_run_services(engine.disk.service, seq)
    times_list = run_times.tolist()

    memory.charge_miss_run(times, pages, lo, hi)
    latencies, wake_delays = engine.disk.submit_run(times_list, services)
    st.metrics.on_miss_run(times_list, latencies, wake_delays)
    completed = st.clusterer.add_run(times_list, run_pages.tolist())
    if completed:
        st.metrics.on_requests(completed)
    st.last_miss_page = int(run_pages[n - 1])
    st.last_miss_time = times_list[n - 1]


def _miss_run_services(service, seq: np.ndarray):
    """Per-miss service times for a run given its sequential flags.

    ``ServiceModel.service_time`` is a pure function of its arguments,
    so the two single-page prices are computed once -- bit-identical to
    the scalar loop's per-miss calls -- and spread by the flags.
    """
    svc_first = service.service_time(1, False)
    svc_seq = service.service_time(1, True)
    return np.where(seq, svc_seq, svc_first).tolist()


def _epoch_misses(
    depths, lo: int, hi: int, resident: int, capacity: int
) -> Tuple[np.ndarray, int]:
    """Miss indices within ``[lo, hi)`` at fixed ``capacity``.

    Returns ``(global_miss_indices, resident_after)``.  Invariant: the
    resident set is the top-``resident`` pages of the full-history LRU
    stack, so an access hits iff ``0 <= depth < resident``.  It holds
    after prefill (the warm start keeps the hottest tail -- the stack
    top) and is maintained here and by the boundary clamp: hits reorder
    within the top, each miss loads at the top (growing the set until it
    reaches capacity), and a shrink evicts from the bottom.

    With the cache full (``resident == capacity``) the Mattson rule
    vectorizes directly.  After an up-resize the cache is partially
    filled: only accesses that are cold or reach at least the starting
    resident count can miss, and each miss grows the resident set by one
    until it hits capacity -- walk exactly those candidates, then
    vectorize the rest.
    """
    window = depths[lo:hi]
    if resident >= capacity:
        miss = (window == COLD) | (window >= capacity)
        return np.flatnonzero(miss) + lo, resident

    candidates = np.flatnonzero((window == COLD) | (window >= resident))
    cand_depths = window[candidates].tolist()
    cand_list = candidates.tolist()
    misses = []
    for j, depth in enumerate(cand_depths):
        if resident >= capacity:
            # Filled up mid-epoch: the remaining candidates follow the
            # full-cache rule.
            rest = candidates[j:]
            rest_d = window[rest]
            rest_miss = rest[(rest_d == COLD) | (rest_d >= capacity)]
            return (
                np.concatenate(
                    [np.asarray(misses, dtype=np.int64), rest_miss]
                ) + lo,
                resident,
            )
        if depth != COLD and depth < resident:
            # The cache grew past this depth since the candidate scan.
            continue
        misses.append(cand_list[j])
        resident += 1
    return np.asarray(misses, dtype=np.int64) + lo, resident


def _replay_writes_span(
    engine, st, memory, times, pages, writes, misses, lo: int, hi: int
) -> None:
    """Replay ``[lo, hi)`` of a write-carrying input given its misses.

    Write-back is write-allocate: :meth:`MemorySystem.access_rw` loads
    on every miss (read or write), so the depths classify every access.
    Hit runs go through :func:`_consume_write_hits`; misses, dirty
    evictions and periodic flush sweeps run the exact scalar path.
    """
    drain = engine._drain_events
    serve_miss = engine._serve_miss
    flush = engine._flush
    pos = lo
    for m in misses.tolist():
        if pos < m:
            _consume_write_hits(engine, st, memory, times, pages, writes, pos, m)
        now = float(times[m])
        page = int(pages[m])
        is_write = bool(writes[m])
        drain(st, now)
        hit = memory.access_rw(now, page, is_write)
        pending = memory.take_pending_flushes()
        if pending:
            st.last_flush_page = flush(now, pending, st.metrics, st.last_flush_page)
        if is_write:
            if hit:
                st.metrics.on_hit(now)
            else:
                st.metrics.on_write(now)
        elif hit:
            st.metrics.on_hit(now)
        else:
            serve_miss(st, now, page)
        pos = m + 1
    if pos < hi:
        _consume_write_hits(engine, st, memory, times, pages, writes, pos, hi)


def _consume_write_hits(
    engine, st, memory, times, pages, writes, lo: int, hi: int
) -> None:
    """Account the write-carrying hit run ``[lo, hi)``, firing flushes in order.

    :meth:`MemorySystem.consume_hit_run_rw` keeps the live cache order
    and dirty set in step.  Each pending flush sweep splits the run with
    one ``searchsorted``, so a sweep at ``flush_at`` sees exactly the
    dirty marks of accesses before it; an access at exactly the sweep
    time fires the sweep first (matching the scalar ``_drain_events``
    ordering), hence ``side='left'``.
    """
    while lo < hi:
        event_at = min(st.next_flush, st.next_boundary)
        if event_at > st.duration_s:
            cut = hi
        else:
            cut = min(max(int(np.searchsorted(times, event_at, side="left")), lo), hi)
        if cut > lo:
            memory.consume_hit_run_rw(times, pages, writes, lo, cut)
            st.metrics.on_hits(cut - lo)
            lo = cut
        if lo < hi:
            engine._drain_events(st, float(times[lo]))
            if min(st.next_flush, st.next_boundary) == event_at:
                raise SimulationError(
                    "write replay made no progress at a pending event"
                )


def _replay_disable_span(engine, st, memory, times, pages, lo: int, hi: int) -> None:
    """Replay ``[lo, hi)`` of a disable-model run via pure-hit prefixes.

    Read-only and inside one epoch, so no event is pending before any
    access of the span.
    """
    serve_miss = engine._serve_miss
    pos = lo
    while pos < hi:
        stop = memory.consume_hit_run(times, pages, pos, hi)
        if stop > pos:
            st.metrics.on_hits(stop - pos)
            pos = stop
            if pos >= hi:
                break
        now = float(times[pos])
        page = int(pages[pos])
        if memory.access(now, page):
            st.metrics.on_hit(now)
        else:
            serve_miss(st, now, page)
        pos += 1


def _replay_scalar_span(engine, st, times, pages, writes, lo: int, hi: int) -> None:
    """The per-access reference loop over ``[lo, hi)``.

    Joint write-back runs, runs without depths, and the
    ``REPRO_KERNELS=0`` kill switch replay here.
    """
    memory = engine.memory
    manager = engine.manager
    has_writes = st.has_writes
    drain_events = engine._drain_events
    serve_miss = engine._serve_miss
    # Write-free input (the common case) iterates a constant instead of
    # materializing a [False] * n list or a tolist() copy.
    flags = writes[lo:hi].tolist() if has_writes else itertools.repeat(False)

    for now, page, is_write in zip(times[lo:hi].tolist(), pages[lo:hi].tolist(), flags):
        drain_events(st, now)

        if manager is not None:
            manager.record_access(now, page)

        if has_writes:
            hit = memory.access_rw(now, page, is_write)
            pending = memory.take_pending_flushes()
            if pending:
                st.last_flush_page = engine._flush(
                    now, pending, st.metrics, st.last_flush_page
                )
            if is_write:
                # Write-back: the cache absorbs the write (allocate
                # without fetch on a miss) -- no disk read, no
                # user-visible disk latency.
                if hit:
                    st.metrics.on_hit(now)
                else:
                    st.metrics.on_write(now)
                continue
        else:
            hit = memory.access(now, page)
        if hit:
            st.metrics.on_hit(now)
            continue
        serve_miss(st, now, page)
