"""Campaign: a protocol, a horizon and a seed, bound for one engine call.

A *campaign* is the unit of empirical confidence: thousands of wake-up
patterns pushed through one protocol.  :meth:`Campaign.run` is exactly one
:func:`~repro.engine.batch.run_batch` call; the seed reaches the engine only
for randomized policies, whose per-pattern streams it spawns.

Example
-------
>>> from repro.core.round_robin import RoundRobin
>>> from repro.engine import Campaign
>>> from repro.workloads import WorkloadSuite
>>> patterns = WorkloadSuite().generate("uniform", n=64, k=8, batch=32, seed=0)
>>> result = Campaign(RoundRobin(64)).run(patterns)
>>> len(result), bool(result.solved.all())
(32, True)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro._util import RngLike
from repro.channel.protocols import RandomizedPolicy
from repro.channel.simulator import DEFAULT_MAX_SLOTS
from repro.channel.wakeup import WakeupPattern
from repro.engine.batch import BatchResult, run_batch

__all__ = ["Campaign"]


@dataclass(frozen=True)
class Campaign:
    """``run_batch`` with its protocol, horizon and seed bound.

    Kept only because the end-to-end benchmark (``perfbench/shim.py``) times
    ``Campaign.run`` inside :func:`~repro.sweeps.runner.resolve_config` as its
    engine layer; it goes in the next change to the benchmark, and callers
    should use :func:`~repro.engine.batch.run_batch`.
    """

    protocol: object
    max_slots: int = DEFAULT_MAX_SLOTS
    seed: RngLike = None

    def run(self, patterns: Sequence[WakeupPattern]) -> BatchResult:
        """Resolve every pattern; rows align with the input order."""
        seed = self.seed if isinstance(self.protocol, RandomizedPolicy) else None
        return run_batch(self.protocol, patterns, seed=seed, max_slots=self.max_slots)
