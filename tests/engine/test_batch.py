"""Unit tests for :mod:`repro.engine.batch` (container behaviour and edges)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.channel.simulator import WakeupResult, run_deterministic, run_randomized
from repro.channel.wakeup import WakeupPattern
from repro.core.randomized import FixedProbabilityPolicy, RepeatedProbabilityDecrease
from repro.core.round_robin import RoundRobin
from repro.engine import BatchResult, run_batch
from repro.engine.batch import _deterministic_scan, _flatten_patterns


@pytest.fixture
def batch_result():
    protocol = RoundRobin(16)
    patterns = [
        WakeupPattern(16, {5: 0, 9: 3}),
        WakeupPattern(16, {2: 1, 3: 1}),
        WakeupPattern(16, {11: 4}),
    ]
    return run_batch(protocol, patterns), protocol, patterns


class TestRunBatchDeterministic:
    def test_empty_batch(self):
        result = run_batch(RoundRobin(8), [])
        assert len(result) == 0
        assert result.solved_fraction == 1.0

    def test_rejects_stray_streams(self):
        # A deterministic run consumes no randomness: streams passed to it
        # would be silently dropped, so either one is an error.
        with pytest.raises(ValueError, match="deterministic"):
            run_batch(RoundRobin(8), [], seed=0)
        with pytest.raises(ValueError, match="deterministic"):
            run_batch(RoundRobin(8), [], rngs=[])

    def test_rejects_mismatched_universe(self):
        with pytest.raises(ValueError, match="does not match"):
            run_batch(RoundRobin(8), [WakeupPattern(16, {3: 0})])

    def test_single_station_solves_at_its_slot(self):
        result = run_batch(RoundRobin(16), [WakeupPattern(16, {11: 4})])
        reference = run_deterministic(RoundRobin(16), WakeupPattern(16, {11: 4}))
        assert result.success_slot[0] == reference.success_slot
        assert result.winner[0] == 11

    def test_rows_with_distant_first_wakes_share_one_scan(self):
        patterns = [WakeupPattern(16, {3: 0}), WakeupPattern(16, {5: 10_000})]
        result = run_batch(RoundRobin(16), patterns)
        for i, pattern in enumerate(patterns):
            reference = run_deterministic(RoundRobin(16), pattern)
            assert result.success_slot[i] == reference.success_slot
            assert result.latency[i] == reference.latency

    def test_scratch_reuse_gauge_reports_saved_allocations(self):
        """The scan reuses its per-chunk buffers and reports the bytes saved."""
        n = 1024
        # High station ids force round-robin successes far past the first
        # chunk, so the scan spans many chunks and the scratch buffers are
        # reused (the gauge only counts chunks after the first).
        patterns = [
            WakeupPattern(n, {n - 1 - offset: 0, n - 2 - offset: 0})
            for offset in range(0, 64, 2)
        ]
        with obs.capture() as state:
            _deterministic_scan(RoundRobin(n), _flatten_patterns(patterns), chunk=16)
            snapshot = state.snapshot()
        assert snapshot["counters"].get("engine.chunks", 0) > 1
        assert snapshot["gauges"].get("engine.scratch_bytes_reused", 0) > 0


class TestRunBatchRandomized:
    def test_empty_batch(self):
        result = run_batch(RepeatedProbabilityDecrease(8), [])
        assert len(result) == 0
        assert result.solved_fraction == 1.0

    def test_rejects_mismatched_universe(self):
        with pytest.raises(ValueError, match="does not match"):
            run_batch(RepeatedProbabilityDecrease(8), [WakeupPattern(16, {3: 0})])

    def test_rejects_wrong_generator_count(self):
        with pytest.raises(ValueError, match="one generator per pattern"):
            run_batch(
                RepeatedProbabilityDecrease(8),
                [WakeupPattern(8, {3: 0})],
                rngs=[np.random.default_rng(0), np.random.default_rng(1)],
            )

    def test_rejects_rngs_and_seed_together(self):
        # rngs fixes every pattern's stream; a seed passed alongside would be
        # silently dropped, so the pair is an error.
        with pytest.raises(ValueError, match="not both"):
            run_batch(
                RepeatedProbabilityDecrease(8),
                [WakeupPattern(8, {3: 0})],
                rngs=[np.random.default_rng(0)],
                seed=0,
            )

    def test_seed_spawns_campaign_streams(self):
        # seed= spawns one child per pattern under the "campaign" key: the
        # same outcomes as passing those streams explicitly, and as Campaign.
        from repro._util import spawn_generators
        from repro.engine import Campaign
        from repro.workloads import WorkloadSuite

        policy = RepeatedProbabilityDecrease(64)
        patterns = WorkloadSuite().generate("uniform", n=64, k=6, batch=20, seed=4)
        seeded = run_batch(policy, patterns, seed=123)
        explicit = run_batch(
            policy, patterns, rngs=spawn_generators(123, len(patterns), "campaign")
        )
        campaign = Campaign(policy, seed=123).run(patterns)
        for other in (explicit, campaign):
            np.testing.assert_array_equal(seeded.success_slot, other.success_slot)
            np.testing.assert_array_equal(seeded.winner, other.winner)
            np.testing.assert_array_equal(seeded.latency, other.latency)

    def test_rejects_bad_probability_matrix_shape(self):
        class Misshapen(FixedProbabilityPolicy):
            def transmit_probability_matrix(self, stations, wakes, start, stop):
                return np.zeros((len(stations), 1))

        with pytest.raises(ValueError, match="probability matrix of shape"):
            run_batch(Misshapen(8, 0.5), [WakeupPattern(8, {3: 0})], seed=0, max_slots=32)

    def test_rejects_out_of_range_probabilities(self):
        class TooEager(FixedProbabilityPolicy):
            def transmit_probability_matrix(self, stations, wakes, start, stop):
                return np.full((len(stations), stop - start), 1.5)

        with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
            run_batch(TooEager(8, 0.5), [WakeupPattern(8, {3: 0})], seed=0, max_slots=32)

    def test_single_certain_transmitter_wins_at_wake(self):
        result = run_batch(
            FixedProbabilityPolicy(8, 1.0), [WakeupPattern(8, {5: 7})], seed=0
        )
        assert bool(result.solved[0])
        assert int(result.success_slot[0]) == 7
        assert int(result.winner[0]) == 5
        assert int(result.latency[0]) == 0
        assert int(result.slots_examined[0]) == 1


class TestRunBatchDispatch:
    """One entry point: every protocol kind in, one error for anything else."""

    @pytest.mark.parametrize("patterns", [[], [WakeupPattern(4, {1: 0})]])
    def test_rejects_non_protocols(self, patterns):
        with pytest.raises(TypeError, match="DeterministicProtocol or RandomizedPolicy"):
            run_batch(object(), patterns)

    def test_each_kind_matches_its_scalar_engine(self):
        from repro._util import spawn_generators
        from repro.baselines import BinaryExponentialBackoff

        patterns = [WakeupPattern(16, {5: 0, 9: 3}), WakeupPattern(16, {2: 1, 3: 1})]
        for protocol in (
            RoundRobin(16),
            RepeatedProbabilityDecrease(16),
            BinaryExponentialBackoff(16),
        ):
            if isinstance(protocol, RoundRobin):
                result = run_batch(protocol, patterns, max_slots=1000)
                references = [run_deterministic(protocol, p, max_slots=1000) for p in patterns]
                # The deterministic slots_examined is the block's co-scanned
                # window, not the scalar engine's; every other field agrees.
                rows = [replace(row, slots_examined=0) for row in result]
                references = [replace(r, slots_examined=0) for r in references]
            else:
                result = run_batch(protocol, patterns, seed=1, max_slots=1000)
                rows = list(result)
                references = [
                    run_randomized(protocol, p, rng=rng, max_slots=1000)
                    for p, rng in zip(patterns, spawn_generators(1, 2, "campaign"))
                ]
            assert rows == references

    def test_feedback_policy_without_vectorized_surface_uses_the_slot_loop(self):
        # A feedback-driven policy that lacks the vectorized feedback surface
        # still resolves through run_batch, row by row in the slot loop.
        from repro._util import spawn_generators

        class Sticky(FixedProbabilityPolicy):
            def observe(self, state, slot, signal, transmitted, rng=None):
                pass

        policy = Sticky(8, 0.5)
        assert policy.feedback_driven
        patterns = [WakeupPattern(8, {1: 0, 2: 0}), WakeupPattern(8, {3: 4})]
        result = run_batch(policy, patterns, seed=2, max_slots=200)
        references = [
            run_randomized(policy, p, rng=rng, max_slots=200)
            for p, rng in zip(patterns, spawn_generators(2, 2, "campaign"))
        ]
        assert list(result) == references


class TestBatchResultContainer:
    def test_len_iter_getitem(self, batch_result):
        result, protocol, patterns = batch_result
        assert len(result) == 3
        rows = list(result)
        assert all(isinstance(row, WakeupResult) for row in rows)
        for i, pattern in enumerate(patterns):
            reference = run_deterministic(protocol, pattern)
            assert rows[i].success_slot == reference.success_slot
            assert rows[i].winner == reference.winner
            assert rows[i].k == pattern.k
        assert result[-1].winner == result[2].winner

    def test_getitem_out_of_range(self, batch_result):
        result, _, _ = batch_result
        with pytest.raises(IndexError):
            result[3]
        with pytest.raises(IndexError):
            result[-4]

    def test_summary_and_statistics(self, batch_result):
        result, _, _ = batch_result
        assert result.solved_count == 3
        summary = result.summary()
        assert summary["patterns"] == 3.0
        assert summary["max_latency"] == result.max_latency()
        assert result.mean_latency() == pytest.approx(float(result.latency.mean()))

    def test_require_all_solved_raises_on_unsolved_rows(self):
        result = run_batch(
            RoundRobin(16), [WakeupPattern(16, {3: 0, 5: 0})], max_slots=1
        )
        assert not result.solved[0]
        with pytest.raises(RuntimeError, match="did not solve"):
            result.require_all_solved()
        assert result.summary() == {"patterns": 1.0, "solved": 0.0}

    def test_concat_preserves_order(self, batch_result):
        result, _, _ = batch_result
        merged = BatchResult.concat([result, result])
        assert len(merged) == 6
        np.testing.assert_array_equal(merged.latency[:3], result.latency)
        np.testing.assert_array_equal(merged.latency[3:], result.latency)

    def test_concat_rejects_empty_and_mismatched(self, batch_result):
        result, _, _ = batch_result
        with pytest.raises(ValueError):
            BatchResult.concat([])
        other = run_batch(RoundRobin(8), [WakeupPattern(8, {3: 0})])
        with pytest.raises(ValueError, match="different protocols"):
            BatchResult.concat([result, other])
