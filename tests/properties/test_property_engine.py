"""Property-based equivalence of the batch engine and the per-pattern engine.

The contract of the deterministic scan behind :func:`repro.engine.run_batch` is
that its outcome columns are *bit-identical* to running
:func:`repro.channel.simulator.run_deterministic` pattern by pattern — for any
protocol, any batch of wake-up patterns, any chunk size, and any horizon
(including rows that do not solve wake-up within it).  These tests pin that
contract down with randomized batches across every protocol family that
overrides the vectorized ``batch_transmit_slots`` path, plus one that relies
on the generic fallback.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines import TDMA, KomlosGreenberg
from repro.channel.simulator import run_deterministic
from repro.channel.wakeup import WakeupPattern
from repro.core.round_robin import RoundRobin
from repro.core.scenario_a import WakeupWithS
from repro.core.scenario_b import WaitAndGo, WakeupWithK
from repro.core.scenario_c import WakeupProtocol
from repro.core.selective import concatenated_families
from repro.engine import run_batch
from repro.engine.batch import _deterministic_scan, _flatten_patterns

N = 16
_FAMILIES_K4 = concatenated_families(N, 4, rng=3)
_FAMILIES_FULL = concatenated_families(N, N, rng=3)

PROTOCOL_FACTORIES = {
    "round_robin": lambda: RoundRobin(N),
    "tdma": lambda: TDMA(N),
    "wakeup_with_s": lambda: WakeupWithS(N, s=0, families=_FAMILIES_FULL),
    "wakeup_with_k": lambda: WakeupWithK(N, 4, families=_FAMILIES_K4),
    "wait_and_go": lambda: WaitAndGo(N, 4, families=_FAMILIES_K4),
    "komlos_greenberg": lambda: KomlosGreenberg(N, 4, families=_FAMILIES_K4),
    # Native batched-membership fast path (see test_property_wakeup_engine
    # for the dedicated Scenario C suite incl. the generic-fallback cross-check).
    "scenario_c": lambda: WakeupProtocol(N, seed=11),
}

wake_dicts = st.dictionaries(
    keys=st.integers(min_value=1, max_value=N),
    values=st.integers(min_value=0, max_value=40),
    min_size=1,
    max_size=6,
)

batches = st.lists(wake_dicts, min_size=1, max_size=8)


def _assert_rows_match(batch_result, patterns, protocol, max_slots):
    for i, pattern in enumerate(patterns):
        reference = run_deterministic(protocol, pattern, max_slots=max_slots)
        assert bool(batch_result.solved[i]) == reference.solved
        assert int(batch_result.k[i]) == reference.k
        assert int(batch_result.first_wake[i]) == reference.first_wake
        if reference.solved:
            assert int(batch_result.success_slot[i]) == reference.success_slot
            assert int(batch_result.winner[i]) == reference.winner
            assert int(batch_result.latency[i]) == reference.latency
        else:
            assert int(batch_result.success_slot[i]) == -1
            assert int(batch_result.winner[i]) == -1
            assert int(batch_result.latency[i]) == -1


class TestBatchMatchesPerPattern:
    @given(
        wake_lists=batches,
        name=st.sampled_from(sorted(PROTOCOL_FACTORIES)),
        chunk=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_solved_rows_match_slot_for_slot(self, wake_lists, name, chunk):
        protocol = PROTOCOL_FACTORIES[name]()
        patterns = [WakeupPattern(N, wakes) for wakes in wake_lists]
        max_slots = 3000
        rows = _flatten_patterns(patterns, max_slots)
        result = _deterministic_scan(protocol, rows, chunk=chunk)
        _assert_rows_match(result, patterns, protocol, max_slots)

    @given(
        wake_lists=batches,
        name=st.sampled_from(sorted(PROTOCOL_FACTORIES)),
        chunk=st.integers(min_value=1, max_value=64),
        max_slots=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_tight_horizons_and_unsolved_rows_match(self, wake_lists, name, chunk, max_slots):
        # Horizons this tight leave many rows unsolved, and different rows
        # finish in different chunks — the regime where batch bookkeeping
        # (per-row horizons, winner extraction, row retirement) can diverge.
        protocol = PROTOCOL_FACTORIES[name]()
        patterns = [WakeupPattern(N, wakes) for wakes in wake_lists]
        rows = _flatten_patterns(patterns, max_slots)
        result = _deterministic_scan(protocol, rows, chunk=chunk)
        _assert_rows_match(result, patterns, protocol, max_slots)

    @given(wake_lists=batches, chunks=st.tuples(
        st.integers(min_value=1, max_value=100), st.integers(min_value=1, max_value=100)
    ))
    @settings(max_examples=40, deadline=None)
    def test_chunk_size_never_changes_outcomes(self, wake_lists, chunks):
        protocol = WakeupWithK(N, 4, families=_FAMILIES_K4)
        patterns = [WakeupPattern(N, wakes) for wakes in wake_lists]
        rows = _flatten_patterns(patterns, 500)
        a = _deterministic_scan(protocol, rows, chunk=chunks[0])
        b = _deterministic_scan(protocol, rows, chunk=chunks[1])
        np.testing.assert_array_equal(a.solved, b.solved)
        np.testing.assert_array_equal(a.success_slot, b.success_slot)
        np.testing.assert_array_equal(a.winner, b.winner)
        np.testing.assert_array_equal(a.latency, b.latency)


class TestSubclassConsistencyGuard:
    def test_scalar_override_resets_inherited_vectorized_path(self):
        class Never(RoundRobin):
            def transmits(self, station, wake_time, slot):
                return False

            def transmit_slots(self, station, wake_time, start, stop):
                return np.empty(0, dtype=np.int64)

        patterns = [WakeupPattern(N, {3: 0, 7: 2})]
        result = run_batch(Never(N), patterns, max_slots=100)
        assert not result.solved[0]
