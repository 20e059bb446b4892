"""Tests for :class:`repro.engine.Campaign` and ``run_batch``'s seeded streams.

``Campaign.run`` is one ``run_batch`` call with the protocol, horizon and
seed bound; the per-pattern stream contracts it relied on live in
``run_batch`` and are checked here through it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.channel.wakeup import WakeupPattern
from repro.core.randomized import RepeatedProbabilityDecrease
from repro.core.round_robin import RoundRobin
from repro.engine import Campaign, run_batch
from repro.experiments.cache import FamilyCache
from repro.sweeps.protocols import build_protocol
from repro.workloads import WorkloadSuite

COLUMNS = ("solved", "k", "first_wake", "success_slot", "winner", "latency", "slots_examined")


@pytest.fixture(scope="module")
def patterns():
    return WorkloadSuite().generate("uniform", n=64, k=8, batch=30, seed=5)


def _assert_same(result, expected):
    for column in COLUMNS:
        np.testing.assert_array_equal(getattr(result, column), getattr(expected, column))


class TestCampaign:
    def test_binds_protocol_horizon_and_seed_only(self):
        # run is defined in the class body: the end-to-end benchmark wraps
        # and restores it through vars(Campaign)["run"].
        assert [f.name for f in dataclasses.fields(Campaign)] == [
            "protocol",
            "max_slots",
            "seed",
        ]
        assert "run" in vars(Campaign)
        with pytest.raises(dataclasses.FrozenInstanceError):
            Campaign(RoundRobin(8)).seed = 1

    def test_rejects_non_protocols(self):
        with pytest.raises(TypeError):
            Campaign(object()).run([])

    def test_empty_run_is_empty_for_both_protocol_kinds(self):
        # Deterministic and randomized campaigns agree on the empty batch:
        # an empty result, not an error.
        for protocol in (RoundRobin(8), RepeatedProbabilityDecrease(8)):
            result = Campaign(protocol, seed=0).run([])
            assert len(result) == 0
            assert result.protocol == protocol.describe()
            assert result.solved_fraction == 1.0

    def test_deterministic_run_is_run_batch_without_the_seed(self, patterns):
        # A deterministic protocol consumes no randomness; the campaign's seed
        # is not forwarded (run_batch would reject it).
        protocol = RoundRobin(64)
        result = Campaign(protocol, max_slots=500, seed=7).run(patterns)
        _assert_same(result, run_batch(protocol, patterns, max_slots=500))

    def test_randomized_run_is_run_batch_with_the_seed(self, patterns):
        policy = RepeatedProbabilityDecrease(64)
        result = Campaign(policy, max_slots=500, seed=3).run(patterns)
        _assert_same(result, run_batch(policy, patterns, seed=3, max_slots=500))


class TestSeededStreams:
    def test_matches_per_pattern_slot_loop(self, patterns):
        # The randomized path is the batched scan; its outcomes must be
        # bit-for-bit the slot-loop engine's under the same child streams
        # (spawned exactly as run_batch spawns them from a seed).
        from repro._util import spawn_generators
        from repro.channel.simulator import run_randomized

        policy = RepeatedProbabilityDecrease(64)
        result = run_batch(policy, patterns, seed=9)
        generators = spawn_generators(9, len(patterns), "campaign")
        for i, (pattern, gen) in enumerate(zip(patterns, generators)):
            reference = run_randomized(policy, pattern, rng=gen)
            assert bool(result.solved[i]) == reference.solved
            assert int(result.success_slot[i]) == reference.success_slot
            assert int(result.winner[i]) == reference.winner
            assert int(result.latency[i]) == reference.latency
            assert int(result.slots_examined[i]) == reference.slots_examined

    def test_seed_streams_stable_under_batch_extension(self, patterns):
        # Child generators are spawned per pattern index before the batch is
        # cut into blocks, so the outcome of pattern i is a prefix property:
        # running a longer batch must not disturb it.
        policy = RepeatedProbabilityDecrease(64)
        prefix = run_batch(policy, patterns[:12], seed=5)
        full = run_batch(policy, patterns, seed=5)
        np.testing.assert_array_equal(full.success_slot[:12], prefix.success_slot)
        np.testing.assert_array_equal(full.winner[:12], prefix.winner)
        np.testing.assert_array_equal(full.latency[:12], prefix.latency)

    def test_unsolved_rows_carry_sentinels_and_full_horizon(self):
        # k >= 2 stations transmitting with probability 1 collide forever:
        # every row exhausts max_slots and must report the unsolved columns.
        from repro.core.randomized import FixedProbabilityPolicy

        policy = FixedProbabilityPolicy(16, 1.0)
        patterns = [
            WakeupPattern(16, {1: 0, 2: 0}),
            WakeupPattern(16, {3: 2, 4: 2, 5: 2}),
        ]
        result = run_batch(policy, patterns, seed=0, max_slots=40)
        assert not result.solved.any()
        np.testing.assert_array_equal(result.success_slot, [-1, -1])
        np.testing.assert_array_equal(result.winner, [-1, -1])
        np.testing.assert_array_equal(result.latency, [-1, -1])
        np.testing.assert_array_equal(result.slots_examined, [40, 40])
        with pytest.raises(RuntimeError, match="did not solve"):
            result.require_all_solved()

    def test_seed_changes_outcomes(self, patterns):
        policy = RepeatedProbabilityDecrease(64)
        a = run_batch(policy, patterns, seed=1)
        b = run_batch(policy, patterns, seed=2)
        assert not np.array_equal(a.success_slot, b.success_slot)

    def test_row_alignment_with_patterns(self, patterns):
        policy = RepeatedProbabilityDecrease(64)
        result = run_batch(policy, patterns, seed=0)
        assert len(result) == len(patterns)
        np.testing.assert_array_equal(result.k, [p.k for p in patterns])
        np.testing.assert_array_equal(result.first_wake, [p.first_wake for p in patterns])


class TestCachedScenarioB:
    def test_registry_protocol_uses_the_given_cache(self, patterns):
        # Scenario B built through the registry takes its selective families
        # from the cache it is given, and run_batch resolves it.
        cache = FamilyCache()
        protocol = build_protocol("scenario-b", 64, 8, seed=0, cache=cache)
        result = run_batch(protocol, patterns)
        assert bool(result.solved.all())
        assert cache.concatenation(64, 8, seed=0) == protocol.wait_and_go_arm.families
