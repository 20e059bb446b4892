"""Host-speed calibration: times reported at a fixed reference speed.

The benchmark runs on shared hosts whose speed drifts by up to 2x, from
one second to the next and over minutes, far more than any change to the
program it should detect.  So every timed phase also times a fixed probe
kernel that uses nothing of the program, and the phase's seconds are
scaled by ``PROBE_REF_S / probe``: the figure the phase would have taken on
the reference host.  A slower program still reads slower, because the
probe does not change with the program.

Where the probe runs decides how well it follows the phase:

* Set-up and serial phases are sampled from inside: a ``SIGALRM`` every
  ``PERIOD_S`` runs the probe in the phase's own process, on the CPU it
  runs on, at the moment it runs (:class:`Sampler`).  The handler's time is
  taken out of the phase's time.
* Phases that spread over processes (a worker pool, the service loop) are
  bracketed instead: the probe runs on every usable CPU in turn, pinned to
  it, just before and just after the phase (:func:`calibration_s`).  A
  probe taken inside them, in the waiting parent or client, shares a CPU
  with the workers or the daemon, and read up to twice as slow as the
  same host's serial probe.  Each virtual CPU drifts on its own, so one
  CPU's probe does not speak for the other's.

The probe mixes pure-Python dictionary and tuple work (like protocol
construction) with NumPy array passes (like the engines).  It runs twice
per sample with the garbage collector off and only the second run counts,
so neither the caches the program left cold nor the program's live
objects change its time: in phases as different as protocol construction,
a pure-Python loop and large-array NumPy work it read within 6% of each
other on the reference host.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import time
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["PROBE_REF_S", "Sampler", "calibration_s"]

#: Mean seconds of one warm probe run on the reference host: a 2-vCPU
#: "Intel(R) Xeon(R) Processor" VM at 2.1 GHz, Python 3.11, NumPy 2, quiet.
PROBE_REF_S = 0.00030

#: Seconds between two probe samples of a serial phase.
PERIOD_S = 0.05

#: Samples a phase's speed is averaged over at least; a phase too short to
#: collect them is topped up right after it ends.
MIN_SAMPLES = 8


def _kernel() -> int:
    acc = 0
    table = {}
    for i in range(1000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        acc ^= hash((key, i & 63))
    a = np.arange(8192, dtype=np.int64)
    b = (a * 2654435761) % 1021
    return acc + int(np.cumsum(b < 512).argmax())


def _probe() -> Tuple[float, float]:
    """``(seconds of the warm kernel run, seconds spent in all)``."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    try:
        _kernel()
        t1 = time.perf_counter()
        _kernel()
        t2 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return t2 - t1, time.perf_counter() - t0


class Sampler:
    """Probe samples taken from a ``SIGALRM`` handler while the block runs.

    ``spent`` is the seconds the handler took, to be taken out of any time
    measured across the block.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    def sample(self, *_) -> None:
        seconds, spent = _probe()
        self.samples.append(seconds)
        self.spent += spent

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe_s(self) -> float:
        """Mean probe seconds over the block, topped up to ``MIN_SAMPLES``."""
        while len(self.samples) < MIN_SAMPLES:
            self.sample()
        return statistics.fmean(self.samples)


def calibration_s(cpus: Sequence[int], samples: int) -> float:
    """Mean of ``samples`` probe seconds on each of ``cpus`` in turn, pinned to it.

    The process's CPU affinity is restored afterwards.
    """
    mask = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            sampler = Sampler()
            for _ in range(samples):
                sampler.sample()
            per_cpu.append(statistics.fmean(sampler.samples))
    finally:
        os.sched_setaffinity(0, mask)
    return statistics.fmean(per_cpu)
