"""Host time at a reference machine speed.

On a shared machine the same deterministic work can take 40% longer
for tens of minutes at a time, and its speed also moves by a third
within seconds.  So the benchmark times a fixed pure-Python kernel of
its own, :func:`probe`, while timed work runs, and scales the work's
host seconds by the reference time of the probe over its measured time.
A machine that slows down slows the probe with the program and leaves
the scaled time where it was; a commit that makes the program faster
lowers it.  The kernel belongs to the benchmark and never changes.

Work that runs in the benchmark's own thread is timed with
:class:`TickProbe`, which runs a short probe every :data:`TICK_S` from a
timer signal, inside the work.  The ``stream`` workload probes between
feeds instead (its work runs in the daemon), and ``campaign`` between
tasks (:class:`ProgressProbe`).
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

#: Sets the unit: about the probe's time on a 2-vCPU 2.0 GHz Xeon VM,
#: where it ranged from 0.055 s to 0.075 s with the machine's other load.
REFERENCE_S = 0.06
#: Iterations of the kernel in one full probe, the one ``REFERENCE_S`` times.
ITERATIONS = 30000


def probe(iterations: int = ITERATIONS, clock=time.perf_counter) -> float:
    """Host seconds of one run of the fixed kernel (a Fenwick-tree loop).

    A shorter probe runs the first ``iterations`` of the same loop; its
    reference time is ``REFERENCE_S * iterations / ITERATIONS``.
    ``clock`` is the wall clock, or ``time.thread_time`` for the CPU time
    of the probing thread alone.
    """
    start = clock()
    tree = [0] * 4097
    total = 0
    for i in range(1, iterations + 1):
        j = (i * 2654435761) % 4096 + 1
        while j <= 4096:
            tree[j] += 1
            j += j & -j
        k = (i * 40503) % 4096 + 1
        while k > 0:
            total += tree[k]
            k -= k & -k
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return clock() - start


#: Kernel iterations in a short probe: about 4 ms.
SHORT_ITERATIONS = 2000
#: The reference time of a short probe.
SHORT_REFERENCE_S = REFERENCE_S * SHORT_ITERATIONS / ITERATIONS
#: Host seconds between two short probes inside timed work; the probes
#: take some 7% of it.
TICK_S = 0.06


class Timing:
    """One piece of work's host seconds, less the probes inside it, and
    those seconds at the reference speed."""

    host_s = float("nan")
    ref_s = float("nan")


class TickProbe:
    """Short probes on an interval timer while a piece of work runs.

    ``with ticks.measure() as timing:`` probes once before the block,
    every :attr:`tick_s` inside it from ``SIGALRM``, and once after it.
    The timer's handler runs in the thread that does the work, between
    two of its bytecodes, so each probe sees the core the work runs on
    when it runs there.  Must be used from the main thread.

    The probes are timed in the thread's CPU time.  When the work runs in
    a child process on the same core, as the fresh interpreter of a
    set-up does, the child preempts a probe now and then: in wall time
    that both slowed the probe and took the child's progress out of the
    work's time, and set-up times spread by 63% over five seeds.

    With ``tick_s=0`` it probes only before and after each block, so
    that no probe lands inside the spans of a traced phase.
    """

    def __init__(self, tick_s: float = TICK_S) -> None:
        self.tick_s = tick_s
        #: Every short probe's CPU seconds, for the run's detail.
        self.samples = []

    @contextlib.contextmanager
    def measure(self):
        timing = Timing()
        samples = [probe(SHORT_ITERATIONS, time.thread_time)]

        def tick(signum, frame) -> None:
            del signum, frame
            samples.append(probe(SHORT_ITERATIONS, time.thread_time))

        if self.tick_s:
            previous = signal.signal(signal.SIGALRM, tick)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)  # 0 arms none
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = time.perf_counter() - start
            inside = sum(samples[1:])
            if self.tick_s:
                signal.signal(signal.SIGALRM, previous)
            samples.append(probe(SHORT_ITERATIONS, time.thread_time))
            self.samples.extend(samples)
            timing.host_s = elapsed - inside
            timing.ref_s = timing.host_s * SHORT_REFERENCE_S / statistics.fmean(samples)


class ProgressProbe:
    """Probe times between the tasks of a serial campaign.

    Pass :meth:`note` as ``run_campaign``'s ``on_progress``: after a
    task it probes if :attr:`every_s` have passed since the last probe,
    so a task's factor comes from the probes that bracket it.  Call
    :meth:`finish` when the campaign returns.
    """

    def __init__(self, every_s: float = 2.0) -> None:
        self.every_s = every_s
        self.samples = [probe()]
        self._last = time.perf_counter()
        self._slot = {}

    def note(self, record, *progress) -> None:
        del progress
        self._slot[record.key] = len(self.samples) - 1
        if time.perf_counter() - self._last >= self.every_s:
            self.finish()

    def finish(self) -> None:
        self.samples.append(probe())
        self._last = time.perf_counter()

    @property
    def spent_s(self) -> float:
        """Host seconds the probes took after the first."""
        return sum(self.samples[1:])

    def factor(self, key: str) -> float:
        """Multiplier from the raw host seconds of task ``key`` to reference seconds."""
        i = self._slot[key]
        return REFERENCE_S / ((self.samples[i] + self.samples[i + 1]) / 2.0)
