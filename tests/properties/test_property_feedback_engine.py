"""Property-based equivalence of the feedback batch engine and the slot loop.

The contract of the feedback scan behind :func:`repro.engine.run_batch` is
that, given the same per-pattern child generators, its outcome columns —
including ``slots_examined`` — are *bit-for-bit* identical to running
:func:`repro.channel.simulator.run_randomized` pattern by pattern, for any
batch of wake-up patterns and any horizon (including rows that never solve).
The engine earns this by consuming each pattern's stream in the slot loop's
exact order: slots ascending; within a slot, one burned uniform per
transmitting station (the transmit decisions of a 0/1-probability policy),
then the observe draws (backoff windows, splitting coins) for exactly the
stations whose scalar ``observe`` would draw, in pattern order.  These tests
pin the contract down for both native implementations (binary exponential
backoff across exponent caps, tree splitting), the batch-size/shard
invariance that follows from per-pattern streams, the dispatch through
``run_batch``, and the ``__init_subclass__`` consistency guard.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import BinaryExponentialBackoff, TreeSplitting
from repro.channel.feedback import CollisionDetection, NoCollisionDetection
from repro._util import spawn_generators
from repro.channel.simulator import run_randomized
from repro.channel.wakeup import WakeupPattern
from repro.engine import run_batch
from repro.engine.batch import _flatten_patterns, _randomized_scan
from repro.engine.feedback_batch import _feedback_scan

N = 16

POLICY_FACTORIES = {
    "beb": lambda: BinaryExponentialBackoff(N),
    "beb_tiny_window": lambda: BinaryExponentialBackoff(N, max_exponent=1),
    "beb_uncapped_ish": lambda: BinaryExponentialBackoff(N, max_exponent=20),
    "tree": lambda: TreeSplitting(N),
}

wake_dicts = st.dictionaries(
    keys=st.integers(min_value=1, max_value=N),
    values=st.integers(min_value=0, max_value=40),
    min_size=1,
    max_size=6,
)

batches = st.lists(wake_dicts, min_size=1, max_size=8)


def _twin_generators(count, seed_base):
    """Two independent lists of identically seeded per-pattern generators."""
    a = [np.random.default_rng(seed_base + i) for i in range(count)]
    b = [np.random.default_rng(seed_base + i) for i in range(count)]
    return a, b


def _assert_rows_match(batch_result, patterns, policy, reference_gens, max_slots):
    for i, pattern in enumerate(patterns):
        reference = run_randomized(
            policy, pattern, rng=reference_gens[i], max_slots=max_slots
        )
        assert bool(batch_result.solved[i]) == reference.solved
        assert int(batch_result.k[i]) == reference.k
        assert int(batch_result.first_wake[i]) == reference.first_wake
        assert int(batch_result.slots_examined[i]) == reference.slots_examined
        if reference.solved:
            assert int(batch_result.success_slot[i]) == reference.success_slot
            assert int(batch_result.winner[i]) == reference.winner
            assert int(batch_result.latency[i]) == reference.latency
        else:
            assert int(batch_result.success_slot[i]) == -1
            assert int(batch_result.winner[i]) == -1
            assert int(batch_result.latency[i]) == -1


class TestBatchMatchesSlotLoop:
    @given(
        wake_lists=batches,
        name=st.sampled_from(sorted(POLICY_FACTORIES)),
        seed_base=st.integers(min_value=0, max_value=1_000_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_outcomes_bit_for_bit_under_identical_child_streams(
        self, wake_lists, name, seed_base
    ):
        policy = POLICY_FACTORIES[name]()
        patterns = [WakeupPattern(N, wakes) for wakes in wake_lists]
        batch_gens, reference_gens = _twin_generators(len(patterns), seed_base)
        max_slots = 500
        result = run_batch(policy, patterns, rngs=batch_gens, max_slots=max_slots)
        _assert_rows_match(result, patterns, policy, reference_gens, max_slots)

    @given(
        wake_lists=batches,
        name=st.sampled_from(sorted(POLICY_FACTORIES)),
        max_slots=st.integers(min_value=1, max_value=24),
        seed_base=st.integers(min_value=0, max_value=1_000_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_tight_horizons_and_unsolved_rows_match(
        self, wake_lists, name, max_slots, seed_base
    ):
        policy = POLICY_FACTORIES[name]()
        patterns = [WakeupPattern(N, wakes) for wakes in wake_lists]
        batch_gens, reference_gens = _twin_generators(len(patterns), seed_base)
        result = run_batch(policy, patterns, rngs=batch_gens, max_slots=max_slots)
        _assert_rows_match(result, patterns, policy, reference_gens, max_slots)

    @given(
        wake_lists=st.lists(wake_dicts, min_size=2, max_size=8),
        name=st.sampled_from(sorted(POLICY_FACTORIES)),
        split=st.integers(min_value=1, max_value=7),
        seed_base=st.integers(min_value=0, max_value=1_000_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_shard_boundaries_never_change_outcomes(
        self, wake_lists, name, split, seed_base
    ):
        # Per-pattern streams make outcomes independent of how a batch is
        # cut into shards: resolving two shards separately and resolving
        # the whole batch at once agree bit for bit.
        policy = POLICY_FACTORIES[name]()
        patterns = [WakeupPattern(N, wakes) for wakes in wake_lists]
        split = min(split, len(patterns) - 1)
        whole_gens, shard_gens = _twin_generators(len(patterns), seed_base)
        whole = run_batch(policy, patterns, rngs=whole_gens, max_slots=300)
        front = run_batch(
            policy, patterns[:split], rngs=shard_gens[:split], max_slots=300
        )
        back = run_batch(
            policy, patterns[split:], rngs=shard_gens[split:], max_slots=300
        )
        sharded_slots = list(front.success_slot) + list(back.success_slot)
        sharded_winners = list(front.winner) + list(back.winner)
        np.testing.assert_array_equal(whole.success_slot, sharded_slots)
        np.testing.assert_array_equal(whole.winner, sharded_winners)

    @pytest.mark.parametrize("name", sorted(POLICY_FACTORIES))
    def test_simultaneous_contention_bit_for_bit(self, name):
        # Heavy contention from slot 0 drives long collision cascades — the
        # regime where the burned transmit draws and the observe draws
        # interleave most densely.
        policy = POLICY_FACTORIES[name]()
        patterns = [
            WakeupPattern(N, {s: 0 for s in range(1, 9)}),
            WakeupPattern(N, {s: 0 for s in range(5, 13)}),
        ]
        batch_gens, reference_gens = _twin_generators(len(patterns), 777)
        result = run_batch(policy, patterns, rngs=batch_gens, max_slots=2_000)
        _assert_rows_match(result, patterns, policy, reference_gens, 2_000)

    @given(seed_base=st.integers(min_value=0, max_value=1_000_000))
    @settings(max_examples=20, deadline=None)
    def test_explicit_feedback_model_matches_slot_loop(self, seed_base):
        # Under the paper's no-collision-detection channel BEB never learns
        # of its collisions (QUIET covers them), so it degenerates — but the
        # engine must still mirror the slot loop exactly, whatever model is
        # plugged in.
        policy = BinaryExponentialBackoff(N)
        patterns = [WakeupPattern(N, {1: 0, 2: 0}), WakeupPattern(N, {3: 1})]
        batch_gens, reference_gens = _twin_generators(len(patterns), seed_base)
        model = NoCollisionDetection()
        rows = _flatten_patterns(patterns, 50, batch_gens)
        result = _feedback_scan(policy, rows, feedback=model)
        for i, pattern in enumerate(patterns):
            reference = run_randomized(
                policy, pattern, rng=reference_gens[i], max_slots=50, feedback=model
            )
            assert bool(result.solved[i]) == reference.solved
            if reference.solved:
                assert int(result.success_slot[i]) == reference.success_slot

    def test_default_feedback_model_is_collision_detection(self):
        # Equivalent to what run_randomized picks for a policy that
        # requires collision detection.
        policy = TreeSplitting(N)
        patterns = [WakeupPattern(N, {1: 0, 2: 0, 3: 2})]
        default_gens, explicit_gens = _twin_generators(1, 31)
        default = run_batch(policy, patterns, rngs=default_gens, max_slots=200)
        explicit = _feedback_scan(
            policy,
            _flatten_patterns(patterns, 200, explicit_gens),
            feedback=CollisionDetection(),
        )
        np.testing.assert_array_equal(default.success_slot, explicit.success_slot)
        np.testing.assert_array_equal(default.winner, explicit.winner)

    def test_empty_batch(self):
        result = run_batch(BinaryExponentialBackoff(N), [])
        assert len(result) == 0


class TestDispatchThroughRunBatch:
    PATTERNS = [
        WakeupPattern(N, {1: 0, 2: 0, 5: 3}),
        WakeupPattern(N, {3: 1, 4: 1}),
        WakeupPattern(N, {7: 0}),
    ]

    @pytest.mark.parametrize(
        "factory",
        [lambda: BinaryExponentialBackoff(N), lambda: TreeSplitting(N)],
    )
    def test_run_batch_routes_to_feedback_scan(self, factory):
        # Same seed, same patterns: the entry point and the feedback scan
        # over the streams it spawns must produce identical columns.
        via_entry = run_batch(factory(), self.PATTERNS, seed=9, max_slots=500)
        rows = _flatten_patterns(
            self.PATTERNS, 500, spawn_generators(9, len(self.PATTERNS), "campaign")
        )
        via_scan = _feedback_scan(factory(), rows)
        np.testing.assert_array_equal(via_entry.success_slot, via_scan.success_slot)
        np.testing.assert_array_equal(via_entry.winner, via_scan.winner)
        np.testing.assert_array_equal(via_entry.slots_examined, via_scan.slots_examined)

    def test_oblivious_policy_routes_to_chunked_scan(self):
        # A policy that is not feedback-driven never reaches the feedback
        # scan: run_batch resolves it with the chunked Bernoulli scan.
        from repro.core.randomized import RepeatedProbabilityDecrease

        policy = RepeatedProbabilityDecrease(N)
        assert not policy.feedback_driven
        via_entry = run_batch(policy, self.PATTERNS, seed=9, max_slots=500)
        rows = _flatten_patterns(
            self.PATTERNS, 500, spawn_generators(9, len(self.PATTERNS), "campaign")
        )
        via_scan = _randomized_scan(policy, rows)
        np.testing.assert_array_equal(via_entry.success_slot, via_scan.success_slot)
        np.testing.assert_array_equal(via_entry.winner, via_scan.winner)


class TestSubclassConsistencyGuard:
    def test_scalar_override_disables_the_vectorized_surface(self):
        class StubbornBackoff(BinaryExponentialBackoff):
            def observe(self, state, slot, signal, transmitted, rng=None):
                super().observe(state, slot, signal, transmitted, rng=rng)

        # Inheriting BEB's batch_observe would answer batch queries with the
        # base's update rule; the guard routes the subclass to the slot loop.
        assert StubbornBackoff.feedback_vectorized is False
        policy = StubbornBackoff(N)
        # run_batch resolves it through the slot-loop fallback instead,
        # bit-for-bit against the reference engine.
        patterns = [WakeupPattern(N, {1: 0, 2: 0})]
        batch_gens, reference_gens = _twin_generators(1, 12)
        result = run_batch(policy, patterns, rngs=batch_gens, max_slots=300)
        reference = run_randomized(
            policy, patterns[0], rng=reference_gens[0], max_slots=300
        )
        assert int(result.success_slot[0]) == reference.success_slot

    def test_batch_override_keeps_the_vectorized_surface(self):
        class Renamed(TreeSplitting):
            name = "tree-renamed"

        assert Renamed.feedback_vectorized is True

        class Rebalanced(TreeSplitting):
            def observe(self, state, slot, signal, transmitted, rng=None):
                super().observe(state, slot, signal, transmitted, rng=rng)

            def batch_observe(self, state, slot, signals, transmitted, awake, draw):
                super().batch_observe(state, slot, signals, transmitted, awake, draw)

        assert Rebalanced.feedback_vectorized is True

    def test_explicit_opt_in_survives_scalar_override(self):
        class TunedButVectorized(BinaryExponentialBackoff):
            feedback_vectorized = True

            def create_state(self, station, wake_time):
                return super().create_state(station, wake_time)

        assert TunedButVectorized.feedback_vectorized is True
