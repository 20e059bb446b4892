"""Batched simulation engine: resolve many wake-up patterns per call.

All bounds in the paper are worst-case over the adversary's choice of wake-up
pattern, so empirical confidence scales with how many patterns the harness
can push through the channel simulator.  This package is the batch-execution
layer on top of :mod:`repro.channel`, with **one** entry point for every
protocol kind:

* :func:`~repro.engine.batch.run_batch` — checks the protocol kind and the
  universe size, spawns one ``SeedSequence`` child generator per pattern for
  randomized policies, cuts the batch into fixed blocks of
  :data:`~repro.engine.batch.SCAN_BLOCK_ROWS` patterns and resolves each
  block with the scan for the protocol's kind:

  - deterministic protocols: one vectorized chunked scan (2-D
    transmit-count accumulation, per-row first-success extraction) over
    each protocol's native per-chunk ``batch_transmit_slots`` query —
    periodic schedules (round-robin, TDMA), family schedules and their
    cyclic / interleaved combinators (scenarios A and B, Komlós–Greenberg),
    and the Scenario C waking-matrix protocols via one batched
    :meth:`~repro.core.waking_matrix.TransmissionMatrix.membership_for_pairs`
    hash evaluation; only ad-hoc user protocols fall back to the
    pair-by-pair loop;
  - oblivious randomized policies: the same scan fed by Bernoulli samples
    over each policy's
    :meth:`~repro.channel.protocols.RandomizedPolicy.transmit_probability_matrix`;
  - feedback-driven policies (binary exponential backoff, tree splitting):
    the slot-synchronous scan of :mod:`repro.engine.feedback_batch`, which
    advances a block per slot with vectorized state arrays through the
    :class:`~repro.channel.protocols.FeedbackVectorizedPolicy` surface
    (policies without it fall back to the slot loop per pattern).

  Randomized outcomes are bit-for-bit those of the slot-loop engine given
  the same per-pattern generators;
* :class:`~repro.engine.batch.BatchResult` — column-oriented results with
  summary statistics, convertible row-by-row to
  :class:`~repro.channel.simulator.WakeupResult`;
* :class:`~repro.engine.campaign.Campaign` — ``run_batch`` with its
  protocol, horizon and seed bound; kept for the end-to-end benchmark only.

The scenario generators that feed this engine live in
:mod:`repro.workloads`; the layer above it — whole config grids sharded
across worker *processes*, with an on-disk resumable store — is
:mod:`repro.sweeps`.
"""

from repro.engine.batch import BatchResult, run_batch
from repro.engine.campaign import Campaign

__all__ = ["BatchResult", "run_batch", "Campaign"]
