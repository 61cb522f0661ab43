"""CHECKS["kernels"], ["epoch"] and ["writes"] can fail.

Each test injects one bug into a piece of the shared replay core through
a class- or module-level seam and asserts that the check guarding that
piece reports a divergence on some seed in ``range(20)``:

* ``kernels`` -- a hit run that forgets to charge its last access;
* ``epoch`` -- a partially filled joint cache whose resident count never
  grows, so every access past the starting fill is classified a miss;
* ``writes`` -- a write-carrying hit run that drops its last dirty mark.
"""

from __future__ import annotations

import numpy as np

import repro.sim.kernels as kernels
from repro.cache.stack_distance import COLD
from repro.memory.system import MemorySystem, NapMemorySystem
from repro.verify.differential import CHECKS
from repro.verify.strategies import random_case

SEEDS = range(20)


def _first_divergence(check: str):
    for seed in SEEDS:
        diff = CHECKS[check](random_case(seed))
        if diff is not None:
            return seed, diff
    return None, None


def test_kernels_check_catches_dropped_last_hit(monkeypatch):
    original = NapMemorySystem.charge_hit_run

    def buggy(self, times, pages, lo, hi):
        if hi - lo > 1:
            original(self, times, pages, lo, hi - 1)

    monkeypatch.setattr(NapMemorySystem, "charge_hit_run", buggy)
    seed, diff = _first_divergence("kernels")
    assert diff is not None, "a dropped hit-run access escaped the kernels check"


def test_epoch_check_catches_frozen_resident_count(monkeypatch):
    def buggy(depths, lo, hi, resident, capacity):
        window = depths[lo:hi]
        limit = min(resident, capacity)
        miss = (window == COLD) | (window >= limit)
        return np.flatnonzero(miss) + lo, resident

    monkeypatch.setattr(kernels, "_epoch_misses", buggy)
    seed, diff = _first_divergence("epoch")
    assert diff is not None, "a frozen resident count escaped the epoch check"


def test_writes_check_catches_dropped_last_write_flag(monkeypatch):
    def buggy(self, times, pages, writes, lo, hi):
        self.charge_hit_run(times, pages, lo, hi)
        run_pages = pages[lo:hi]
        self.cache.touch_run(run_pages.tolist())
        flags = writes[lo:hi].copy()
        flags[-1] = False
        if flags.any():
            self._dirty.update(run_pages[flags].tolist())

    monkeypatch.setattr(MemorySystem, "consume_hit_run_rw", buggy)
    seed, diff = _first_divergence("writes")
    assert diff is not None, "a dropped write flag escaped the writes check"
