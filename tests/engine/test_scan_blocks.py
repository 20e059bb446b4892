"""``run_batch`` cuts every batch into fixed scan blocks of 256 patterns.

Outcomes are block-invariant: row by row they equal the per-pattern scalar
engines at every batch size around the block boundary.  The deterministic
``slots_examined`` column is not — it is the window a block co-scanned — so
it is pinned to the block layout, both structurally (against per-block
scans) and by the digest of a batch whose long rows expose the layout.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro._util import spawn_generators
from repro.baselines import BinaryExponentialBackoff
from repro.channel.simulator import run_deterministic, run_randomized
from repro.core.randomized import RepeatedProbabilityDecrease
from repro.core.round_robin import RoundRobin
from repro.engine import run_batch
from repro.engine.batch import SCAN_BLOCK_ROWS, _deterministic_scan, _flatten_patterns
from repro.workloads import WorkloadSuite

N, K, SEED, MAX_SLOTS = 32, 4, 11, 5_000
BATCH_SIZES = (255, 256, 257, 513)


def _patterns(batch: int):
    return WorkloadSuite().generate("staggered", n=N, k=K, batch=batch, seed=SEED)


def _columns(result):
    return np.stack(
        [
            result.solved.astype(np.int64),
            result.k,
            result.first_wake,
            result.success_slot,
            result.winner,
            result.latency,
            result.slots_examined,
        ]
    )


def test_block_is_256_rows():
    assert SCAN_BLOCK_ROWS == 256


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_deterministic_rows_match_scalar_engine(batch):
    protocol = RoundRobin(N)
    patterns = _patterns(batch)
    result = run_batch(protocol, patterns, max_slots=MAX_SLOTS)
    assert len(result) == batch
    for i, pattern in enumerate(patterns):
        reference = run_deterministic(protocol, pattern, max_slots=MAX_SLOTS)
        assert bool(result.solved[i]) == reference.solved
        assert int(result.success_slot[i]) == reference.success_slot
        assert int(result.winner[i]) == reference.winner
        assert int(result.latency[i]) == reference.latency
    # slots_examined is each block's own co-scanned window.
    blocks = [
        _deterministic_scan(
            protocol, _flatten_patterns(patterns[start : start + 256], MAX_SLOTS)
        ).slots_examined
        for start in range(0, batch, 256)
    ]
    np.testing.assert_array_equal(result.slots_examined, np.concatenate(blocks))


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize(
    "factory",
    [lambda: RepeatedProbabilityDecrease(N, k=K), lambda: BinaryExponentialBackoff(N)],
    ids=["oblivious-rpd", "feedback-beb"],
)
def test_randomized_rows_match_slot_loop(factory, batch):
    policy = factory()
    patterns = _patterns(batch)
    result = run_batch(policy, patterns, seed=SEED, max_slots=MAX_SLOTS)
    assert len(result) == batch
    generators = spawn_generators(SEED, batch, "campaign")
    for i, (pattern, rng) in enumerate(zip(patterns, generators)):
        reference = run_randomized(policy, pattern, rng=rng, max_slots=MAX_SLOTS)
        assert bool(result.solved[i]) == reference.solved
        assert int(result.success_slot[i]) == reference.success_slot
        assert int(result.winner[i]) == reference.winner
        assert int(result.latency[i]) == reference.latency
        assert int(result.slots_examined[i]) == reference.slots_examined


def test_round_robin_long_rows_digest():
    # n=32768 with two uniform wakers per row: rows with latency > 8064 are
    # scanned in chunks capped by the block's active rows, so their
    # slots_examined depends on the block layout (an unblocked scan changes
    # 598 of the 1024 rows).  The digest was recorded from the sharded
    # campaign path that the 256-row block replaces.
    patterns = WorkloadSuite().generate("uniform", n=32768, k=2, batch=1024, seed=0)
    result = run_batch(RoundRobin(32768), patterns, max_slots=200_000)
    digest = hashlib.sha256(_columns(result).tobytes()).hexdigest()
    assert digest == "d918de1cc1dfe9fab6510cf5fcf56c3123633abadb6fb6e0f59d3019cc3347f9"
