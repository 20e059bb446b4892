"""Property-based equivalence of the native Scenario C batch path.

:class:`~repro.core.scenario_c.WakeupProtocol` (and its local-clock
counterpart) override ``batch_transmit_slots`` with one batched
``membership_for_pairs`` evaluation over ``searchsorted`` row geometry.  The
contract is *bit-for-bit* equivalence with the pair-by-pair paths it
replaced, for any wake-up pattern, any chunk layout, any window
(``[start, stop)`` may cut row segments, µ-waits and matrix wrap-arounds
anywhere), and any of the E10-style ``window=`` / ``c=`` parameter overrides
— including rows that never solve wake-up within their horizon.  These tests
pin that contract, plus the ``__init_subclass__`` consistency guard for
matrix-backed subclasses that override the scalar queries.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.channel.protocols import DeterministicProtocol
from repro.channel.simulator import run_deterministic
from repro.channel.wakeup import WakeupPattern
from repro.core.local_clock import LocalClockScenarioC
from repro.core.scenario_c import WakeupProtocol
from repro.engine import run_batch
from repro.engine.batch import _deterministic_scan, _flatten_patterns

N = 16

#: The protocol variants under test: the default geometry, the E10-style
#: window and c overrides (window=1 degenerates µ to the identity; a large
#: window stretches the waiting phase), and the local-clock counterpart.
PROTOCOL_FACTORIES = {
    "wakeup_default": lambda: WakeupProtocol(N, seed=11),
    "wakeup_window_1": lambda: WakeupProtocol(N, window=1, seed=5),
    "wakeup_window_7": lambda: WakeupProtocol(N, window=7, seed=3),
    "wakeup_c_1": lambda: WakeupProtocol(N, c=1, seed=2),
    "wakeup_c_3_window_3": lambda: WakeupProtocol(N, c=3, window=3, seed=8),
    "local_clock": lambda: LocalClockScenarioC(N, seed=11),
    "local_clock_window_5": lambda: LocalClockScenarioC(N, window=5, seed=4),
}

wake_dicts = st.dictionaries(
    keys=st.integers(min_value=1, max_value=N),
    values=st.integers(min_value=0, max_value=40),
    min_size=1,
    max_size=6,
)

batches = st.lists(wake_dicts, min_size=1, max_size=8)


class TestBatchTransmitSlotsMatchesPairByPair:
    @given(
        wakes_dict=wake_dicts,
        name=st.sampled_from(sorted(PROTOCOL_FACTORIES)),
        start=st.integers(min_value=0, max_value=400),
        length=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_generic_fallback_slot_for_slot(self, wakes_dict, name, start, length):
        # The generic base-class implementation resolves the same query by
        # calling transmit_slots pair by pair; the native override must emit
        # exactly the same (pair, slot) set for arbitrary windows — including
        # windows cutting µ-waits, row-segment boundaries and matrix wrap.
        protocol = PROTOCOL_FACTORIES[name]()
        stations = np.fromiter(wakes_dict.keys(), np.int64, count=len(wakes_dict))
        wakes = np.fromiter(wakes_dict.values(), np.int64, count=len(wakes_dict))
        stop = start + length
        native_idx, native_slots = protocol.batch_transmit_slots(stations, wakes, start, stop)
        generic_idx, generic_slots = DeterministicProtocol.batch_transmit_slots(
            protocol, stations, wakes, start, stop
        )
        for j in range(len(stations)):
            np.testing.assert_array_equal(
                np.sort(native_slots[native_idx == j]),
                np.sort(generic_slots[generic_idx == j]),
                err_msg=f"{name}: pair {j} (station {stations[j]}, wake {wakes[j]})",
            )

    @given(
        wakes_dict=wake_dicts,
        name=st.sampled_from(sorted(PROTOCOL_FACTORIES)),
        start=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_transmissions_before_wake_or_duplicates(self, wakes_dict, name, start):
        protocol = PROTOCOL_FACTORIES[name]()
        stations = np.fromiter(wakes_dict.keys(), np.int64, count=len(wakes_dict))
        wakes = np.fromiter(wakes_dict.values(), np.int64, count=len(wakes_dict))
        idx, slots = protocol.batch_transmit_slots(stations, wakes, start, start + 200)
        assert bool((slots >= wakes[idx]).all())
        assert bool((slots >= start).all()) and bool((slots < start + 200).all())
        # Each (pair, slot) combination at most once — the engine's contract.
        assert len({(int(i), int(s)) for i, s in zip(idx, slots)}) == idx.size


class TestEngineMatchesPerPattern:
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
        self._assert_rows_match(result, patterns, protocol, max_slots)

    @given(
        wake_lists=batches,
        name=st.sampled_from(sorted(PROTOCOL_FACTORIES)),
        chunk=st.integers(min_value=1, max_value=64),
        max_slots=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_tight_horizons_and_unsolved_rows_match(self, wake_lists, name, chunk, max_slots):
        # Horizons this tight leave many rows unsolved (often inside the
        # µ-wait), and different rows finish in different chunks — the regime
        # where batch bookkeeping can diverge from the per-pattern engine.
        protocol = PROTOCOL_FACTORIES[name]()
        patterns = [WakeupPattern(N, wakes) for wakes in wake_lists]
        rows = _flatten_patterns(patterns, max_slots)
        result = _deterministic_scan(protocol, rows, chunk=chunk)
        self._assert_rows_match(result, patterns, protocol, max_slots)

    @staticmethod
    def _assert_rows_match(batch_result, patterns, protocol, max_slots):
        for i, pattern in enumerate(patterns):
            reference = run_deterministic(protocol, pattern, max_slots=max_slots)
            assert bool(batch_result.solved[i]) == reference.solved
            if reference.solved:
                assert int(batch_result.success_slot[i]) == reference.success_slot
                assert int(batch_result.winner[i]) == reference.winner
                assert int(batch_result.latency[i]) == reference.latency
            else:
                assert int(batch_result.success_slot[i]) == -1
                assert int(batch_result.winner[i]) == -1
                assert int(batch_result.latency[i]) == -1

    @given(wake_lists=batches, chunks=st.tuples(
        st.integers(min_value=1, max_value=100), st.integers(min_value=1, max_value=100)
    ))
    @settings(max_examples=40, deadline=None)
    def test_chunk_size_never_changes_outcomes(self, wake_lists, chunks):
        protocol = WakeupProtocol(N, seed=11)
        patterns = [WakeupPattern(N, wakes) for wakes in wake_lists]
        rows = _flatten_patterns(patterns, 1500)
        a = _deterministic_scan(protocol, rows, chunk=chunks[0])
        b = _deterministic_scan(protocol, rows, chunk=chunks[1])
        np.testing.assert_array_equal(a.solved, b.solved)
        np.testing.assert_array_equal(a.success_slot, b.success_slot)
        np.testing.assert_array_equal(a.winner, b.winner)
        np.testing.assert_array_equal(a.latency, b.latency)


class TestCellBudgetSlicing:
    def test_tiny_budget_never_changes_the_emitted_slots(self, monkeypatch):
        # The shared helper slices the window so pairs × slice-length stays
        # within the cells-per-chunk budget; slicing must be invisible in the
        # output.  Force single-digit slice lengths and compare.
        import repro.core.waking_matrix as wm

        protocol = WakeupProtocol(N, seed=11)
        stations = np.asarray([3, 7, 7, 12], dtype=np.int64)
        wakes = np.asarray([0, 5, 31, 2], dtype=np.int64)
        reference = protocol.batch_transmit_slots(stations, wakes, 0, 500)
        monkeypatch.setattr(wm, "MAX_CELLS_PER_CHUNK", 16)
        sliced = protocol.batch_transmit_slots(stations, wakes, 0, 500)
        for j in range(len(stations)):
            np.testing.assert_array_equal(
                np.sort(reference[1][reference[0] == j]),
                np.sort(sliced[1][sliced[0] == j]),
            )


class TestSubclassConsistencyGuard:
    def test_scalar_override_resets_inherited_native_path(self):
        # A matrix-backed subclass that changes the scalar schedule but not
        # batch_transmit_slots would answer batch queries with the *base's*
        # matrix schedule; the guard must reset it to the generic fallback.
        class OddStationsOnly(WakeupProtocol):
            def transmits(self, station, wake_time, slot):
                return station % 2 == 1 and super().transmits(station, wake_time, slot)

            def transmit_slots(self, station, wake_time, start, stop):
                if station % 2 == 0:
                    return np.empty(0, dtype=np.int64)
                return super().transmit_slots(station, wake_time, start, stop)

        assert (
            OddStationsOnly.batch_transmit_slots
            is DeterministicProtocol.batch_transmit_slots
        )
        protocol = OddStationsOnly(N, seed=11)
        patterns = [WakeupPattern(N, {2: 0, 4: 1}), WakeupPattern(N, {3: 0, 8: 2})]
        result = run_batch(protocol, patterns, max_slots=2000)
        for i, pattern in enumerate(patterns):
            reference = run_deterministic(protocol, pattern, max_slots=2000)
            assert bool(result.solved[i]) == reference.solved
            if reference.solved:
                assert int(result.winner[i]) == reference.winner
                assert int(result.success_slot[i]) == reference.success_slot
        # Even-station-only patterns never solve: every transmitter is muted.
        assert not result.solved[0]

    def test_explicit_batch_override_is_kept(self):
        class PinnedFallback(WakeupProtocol):
            batch_transmit_slots = DeterministicProtocol.batch_transmit_slots

        assert (
            PinnedFallback.batch_transmit_slots
            is DeterministicProtocol.batch_transmit_slots
        )
        # And the plain protocol keeps its native override.
        assert (
            WakeupProtocol.batch_transmit_slots
            is not DeterministicProtocol.batch_transmit_slots
        )
        assert (
            LocalClockScenarioC.batch_transmit_slots
            is not DeterministicProtocol.batch_transmit_slots
        )
