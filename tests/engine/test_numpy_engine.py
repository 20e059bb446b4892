"""The batch engines' NumPy scan, checked against independent references.

Every engine path runs its per-chunk kernels as plain NumPy expressions
(live mask, scan keys, bincount, singles mask, Bernoulli compare, feedback
outcome codes) written into reused scratch buffers.  These tests pin those
paths down: every registered protocol agrees with the per-pattern slot loop,
outcomes do not depend on the chunk layout, unsolved rows keep their
sentinels, and the probability and membership tables the engines consume
agree with their scalar definitions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import spawn_generators
from repro.baselines import BinaryExponentialBackoff
from repro.channel.protocols import DeterministicProtocol, zero_before_wake
from repro.channel.simulator import run_deterministic, run_randomized
from repro.channel.wakeup import WakeupPattern
from repro.core.randomized import DecayPolicy, RepeatedProbabilityDecrease
from repro.core.round_robin import RoundRobin
from repro.core.scenario_c import WakeupProtocol
from repro.core.waking_matrix import (
    ExplicitTransmissionMatrix,
    HashedTransmissionMatrix,
    matrix_batch_transmit_slots,
    matrix_parameters,
)
from repro.engine import run_batch
from repro.engine.batch import _deterministic_scan, _flatten_patterns, _randomized_scan
from repro.engine.backend import get_backend
from repro.sweeps.protocols import build_protocol, protocol_names
from repro.workloads import WorkloadSuite

N, K, BATCH = 32, 4, 12
SEED = 7
OUTCOMES = ("solved", "success_slot", "winner", "latency")
COLUMNS = (*OUTCOMES, "slots_examined")


def _patterns(workload: str):
    return WorkloadSuite().generate(workload, n=N, k=K, batch=BATCH, seed=SEED)


def _assert_identical(result, reference, context, columns=COLUMNS):
    for column in columns:
        np.testing.assert_array_equal(
            getattr(result, column),
            getattr(reference, column),
            err_msg=f"{context}: column {column!r} diverged",
        )


class TestEveryRegisteredProtocolMatchesSlotLoop:
    """``run_batch`` reproduces the per-pattern reference engine, row by row."""

    @pytest.mark.parametrize("workload", ["staggered", "simultaneous"])
    @pytest.mark.parametrize("name", protocol_names())
    def test_rows_match(self, name, workload):
        protocol = build_protocol(name, N, K, seed=SEED)
        patterns = _patterns(workload)
        max_slots = 20_000
        if isinstance(protocol, DeterministicProtocol):
            result = run_batch(protocol, patterns, max_slots=max_slots)
            references = [
                run_deterministic(protocol, p, max_slots=max_slots) for p in patterns
            ]
        else:
            result = run_batch(
                protocol,
                patterns,
                rngs=spawn_generators(SEED, BATCH, "campaign"),
                max_slots=max_slots,
            )
            references = [
                run_randomized(protocol, p, rng=rng, max_slots=max_slots)
                for p, rng in zip(patterns, spawn_generators(SEED, BATCH, "campaign"))
            ]
        for i, reference in enumerate(references):
            context = f"{name}/{workload} row {i}"
            assert bool(result.solved[i]) == reference.solved, context
            if reference.solved:
                assert int(result.success_slot[i]) == reference.success_slot, context
                assert int(result.winner[i]) == reference.winner, context
                assert int(result.latency[i]) == reference.latency, context


class TestChunkLayoutInvariance:
    """Scratch buffers are reused across chunks; results must not notice."""

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    @pytest.mark.parametrize(
        "factory",
        [lambda: RoundRobin(N), lambda: WakeupProtocol(N, seed=SEED)],
        ids=["round-robin", "scenario-c"],
    )
    def test_deterministic(self, factory, chunk):
        protocol = factory()
        patterns = _patterns("staggered")
        reference = run_batch(protocol, patterns)
        result = _deterministic_scan(protocol, _flatten_patterns(patterns), chunk=chunk)
        # slots_examined is the scanned window, which follows the chunk
        # layout by design; the outcome columns must not.
        _assert_identical(result, reference, f"chunk={chunk}", OUTCOMES)

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    @pytest.mark.parametrize(
        "factory",
        [lambda: RepeatedProbabilityDecrease(N, k=K), lambda: DecayPolicy(N)],
        ids=["rpd", "decay"],
    )
    def test_randomized(self, factory, chunk):
        policy = factory()
        patterns = _patterns("staggered")
        reference = run_batch(policy, patterns, seed=SEED)
        rows = _flatten_patterns(
            patterns, generators=spawn_generators(SEED, BATCH, "campaign")
        )
        result = _randomized_scan(policy, rows, chunk=chunk)
        _assert_identical(result, reference, f"chunk={chunk}")


class TestUnsolvedRows:
    """Rows that never see a lone transmitter keep their ``-1`` sentinels."""

    @staticmethod
    def _assert_unsolved(result, horizon):
        assert not result.solved.any()
        for column in ("success_slot", "winner", "latency"):
            np.testing.assert_array_equal(getattr(result, column), -1)
        np.testing.assert_array_equal(result.slots_examined, horizon)

    def test_deterministic(self):
        patterns = [WakeupPattern(N, {20: 0, 30: 0}), WakeupPattern(N, {25: 3, 31: 3})]
        result = run_batch(RoundRobin(N), patterns, max_slots=1)
        self._assert_unsolved(result, 1)

    def test_randomized(self):
        # Every station transmits with probability 1/2 in its first slot; with
        # 32 simultaneous wakers this seed's draws give no lone transmitter
        # (the slot loop agrees), so a one-slot horizon leaves the row unsolved.
        patterns = [WakeupPattern(N, {u: 0 for u in range(1, N + 1)})]
        policy = RepeatedProbabilityDecrease(N)
        result = run_batch(policy, patterns, seed=SEED, max_slots=1)
        reference = run_randomized(
            policy,
            patterns[0],
            rng=spawn_generators(SEED, 1, "campaign")[0],
            max_slots=1,
        )
        assert not reference.solved
        self._assert_unsolved(result, 1)

    def test_feedback(self):
        # Every station transmits in its first slot under BEB, so a
        # simultaneous pair collides and a one-slot horizon leaves it unsolved.
        patterns = [WakeupPattern(N, {3: 0, 9: 0}), WakeupPattern(N, {4: 2, 5: 2})]
        result = run_batch(BinaryExponentialBackoff(N), patterns, seed=SEED, max_slots=1)
        self._assert_unsolved(result, 1)


class TestFeedbackOutcomes:
    """Silence, success and collision are told apart from transmit counts."""

    def test_collision_then_backoff_matches_slot_loop(self):
        policy = BinaryExponentialBackoff(N)
        patterns = [
            WakeupPattern(N, {3: 0, 9: 0}),
            WakeupPattern(N, {1: 0, 2: 0, 3: 0, 4: 0}),
            WakeupPattern(N, {7: 5}),
        ]
        result = run_batch(policy, patterns, rngs=spawn_generators(SEED, 3, "campaign"))
        for i, (pattern, rng) in enumerate(
            zip(patterns, spawn_generators(SEED, 3, "campaign"))
        ):
            reference = run_randomized(policy, pattern, rng=rng)
            assert bool(result.solved[i]) == reference.solved
            assert int(result.success_slot[i]) == reference.success_slot
            assert int(result.winner[i]) == reference.winner
        # A lone station succeeds in its wake slot; a pair must first collide.
        assert int(result.latency[2]) == 0
        assert int(result.latency[0]) > 0


class TestMatrixBatchTransmitSlots:
    """The matrix engines' transmit enumeration, against cell-by-cell lookup."""

    @staticmethod
    def _brute_force(matrix, stations, starts, start, stop, local_columns):
        params = matrix.params
        expected = set()
        for j, (station, begin) in enumerate(zip(stations, starts)):
            for slot in range(max(start, int(begin)), stop):
                offset = slot - int(begin)
                row = params.row_at_offset(offset)
                if row is None:
                    continue
                column = offset if local_columns else slot
                if matrix.contains(row, column % params.length, int(station)):
                    expected.add((j, slot))
        return expected

    @staticmethod
    def _matrices():
        params = matrix_parameters(16)
        return {
            "hashed": HashedTransmissionMatrix(params, seed=3),
            "explicit": ExplicitTransmissionMatrix.sample(params, rng=5),
        }

    @pytest.mark.parametrize("local_columns", [False, True], ids=["global", "local"])
    @pytest.mark.parametrize("kind", ["hashed", "explicit"])
    def test_matches_cell_lookup(self, kind, local_columns):
        matrix = self._matrices()[kind]
        stations = np.array([1, 5, 9, 16, 5], dtype=np.int64)
        starts = np.array([0, 3, 17, 40, 90], dtype=np.int64)
        start, stop = 2, 2 + matrix.params.total_span + 50
        idx, slots = matrix_batch_transmit_slots(
            matrix, stations, starts, start, stop, local_columns=local_columns
        )
        assert idx.dtype == np.int64 and slots.dtype == np.int64
        emitted = {(int(j), int(s)) for j, s in zip(idx, slots)}
        assert len(emitted) == idx.size
        assert emitted == self._brute_force(
            matrix, stations, starts, start, stop, local_columns
        )

    def test_empty_window_is_empty(self):
        matrix = self._matrices()["hashed"]
        idx, slots = matrix_batch_transmit_slots(
            matrix, np.array([1, 2]), np.array([10, 20]), 0, 5
        )
        assert idx.size == 0 and slots.size == 0
        assert idx.dtype == np.int64 and slots.dtype == np.int64


class TestProbabilityTables:
    """The randomized engine's probability matrices, against the scalar rule."""

    def test_zero_before_wake_zeroes_exactly_the_pre_wake_cells(self):
        slots = np.arange(10, 20, dtype=np.int64)
        wakes = np.array([8, 12, 19, 25], dtype=np.int64)
        matrix = np.full((wakes.size, slots.size), 0.5)
        out = zero_before_wake(matrix, slots, wakes)
        expected = np.where(slots[None, :] < wakes[:, None], 0.0, 0.5)
        np.testing.assert_array_equal(out, expected)

    def test_zero_before_wake_leaves_awake_windows_alone(self):
        slots = np.arange(10, 20, dtype=np.int64)
        matrix = np.full((2, slots.size), 0.25)
        out = zero_before_wake(matrix, slots, np.array([3, 10]))
        assert out is matrix
        np.testing.assert_array_equal(out, 0.25)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: RepeatedProbabilityDecrease(N),
            lambda: RepeatedProbabilityDecrease(N, k=K),
            lambda: DecayPolicy(N),
        ],
        ids=["rpd", "rpd-known-k", "decay"],
    )
    def test_matrix_matches_scalar_probability(self, factory):
        policy = factory()
        stations = np.array([1, 4, 7, 30], dtype=np.int64)
        wakes = np.array([0, 5, 13, 41], dtype=np.int64)
        start, stop = 3, 60
        matrix = policy.transmit_probability_matrix(stations, wakes, start, stop)
        assert matrix.shape == (stations.size, stop - start)
        for i, (station, wake) in enumerate(zip(stations, wakes)):
            state = policy.create_state(int(station), int(wake))
            for slot in range(start, stop):
                expected = (
                    policy.transmit_probability(state, slot) if slot >= wake else 0.0
                )
                assert matrix[i, slot - start] == expected, (station, wake, slot)


def test_backend_name_is_numpy():
    assert get_backend().name == "numpy"
    assert get_backend() is get_backend()
