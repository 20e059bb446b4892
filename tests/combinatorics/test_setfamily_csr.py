"""Property tests of the CSR representation behind :class:`SetFamily`.

The frozenset tuple a family used to store is the reference here: every CSR
family must round-trip to it, concatenate like it, reject what it cannot
represent, and transpose (for schedules) exactly as the dict-of-lists
bucketing that schedules used to build from it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.combinatorics.selectors import SetFamily
from repro.core.schedules import station_offsets
from repro.core.selective import random_selective_family, selective_family_target_length


@st.composite
def frozenset_families(draw, min_n: int = 1, max_n: int = 24):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    sets = draw(
        st.lists(st.frozensets(st.integers(min_value=1, max_value=n), max_size=n), max_size=12)
    )
    return n, tuple(sets)


def _offsets_oracle(family: SetFamily) -> dict:
    """Per-station ascending set indices, bucketed set by set (the old transpose)."""
    buckets: dict = {}
    for idx, s in enumerate(family.sets):
        for u in s:
            buckets.setdefault(u, []).append(idx)
    return {u: np.asarray(idxs, dtype=np.int64) for u, idxs in buckets.items()}


class TestRoundTrip:
    @given(frozenset_families())
    @settings(max_examples=80, deadline=None)
    def test_frozensets_round_trip_through_csr(self, family_input):
        n, sets = family_input
        fam = SetFamily(n, sets)
        assert fam.sets == sets
        assert fam.length == len(sets)
        assert fam.total_membership() == sum(len(s) for s in sets)
        assert fam.max_set_size() == max((len(s) for s in sets), default=0)
        clone = SetFamily.from_csr(n, fam.indptr, fam.stations)
        assert clone == fam and clone.sets == sets

    @given(frozenset_families())
    @settings(max_examples=60, deadline=None)
    def test_membership_matrix_matches_sets(self, family_input):
        n, sets = family_input
        mat = SetFamily(n, sets).membership_matrix()
        expected = np.zeros((len(sets), n), dtype=bool)
        for j, s in enumerate(sets):
            for u in s:
                expected[j, u - 1] = True
        assert np.array_equal(mat, expected)

    @given(frozenset_families(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_concatenate_equals_tuple_concatenation(self, family_input, data):
        n, sets_a = family_input
        sets_b = data.draw(
            st.lists(st.frozensets(st.integers(min_value=1, max_value=n)), max_size=8)
        )
        a = SetFamily(n, sets_a)
        b = SetFamily(n, tuple(sets_b))
        assert a.concatenate(b) == SetFamily(n, a.sets + b.sets)
        assert a.concatenate(b).sets == sets_a + tuple(sets_b)


class TestFromCsrRejects:
    def test_non_monotone_indptr(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            SetFamily.from_csr(4, [0, 2, 1, 3], [1, 2, 3])

    def test_indptr_not_starting_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            SetFamily.from_csr(4, [1, 2], [1, 2])
        with pytest.raises(ValueError, match="start at 0"):
            SetFamily.from_csr(4, [], [])

    @pytest.mark.parametrize("end", [1, 3])
    def test_indptr_end_differs_from_stations_size(self, end):
        with pytest.raises(ValueError, match="stations.size"):
            SetFamily.from_csr(4, [0, end], [1, 2])

    @pytest.mark.parametrize("station", [0, 5, -1])
    def test_out_of_range_station(self, station):
        with pytest.raises(ValueError, match=r"set #1 .*outside \[1, 4\]"):
            SetFamily.from_csr(4, [0, 1, 2], [1, station])

    @pytest.mark.parametrize("row", [[2, 2], [3, 1]], ids=["duplicate", "descending"])
    def test_row_not_strictly_ascending(self, row):
        with pytest.raises(ValueError, match="set #1 is not strictly ascending"):
            SetFamily.from_csr(4, [0, 1, 3], [4] + row)

    def test_descent_across_a_set_boundary_is_allowed(self):
        fam = SetFamily.from_csr(4, [0, 2, 2, 3], [3, 4, 1])
        assert fam.sets == (frozenset({3, 4}), frozenset(), frozenset({1}))

    def test_two_dimensional_arrays(self):
        with pytest.raises(ValueError, match="1-D"):
            SetFamily.from_csr(4, [0, 2], [[1, 2]])

    @given(frozenset_families(min_n=2))
    @settings(max_examples=60, deadline=None)
    def test_any_duplicate_in_a_row_is_rejected(self, family_input):
        n, sets = family_input
        fam = SetFamily(n, sets + (frozenset({1, 2}),))
        stations = fam.stations.copy()
        # Turn the last set {1, 2} into [1, 1].
        stations[-1] = 1
        with pytest.raises(ValueError, match="not strictly ascending"):
            SetFamily.from_csr(n, fam.indptr, stations)


def _assert_transpose_matches_oracle(fam: SetFamily) -> None:
    offsets = station_offsets(fam)
    oracle = _offsets_oracle(fam)
    assert offsets.ptr.shape == (fam.n + 2,)
    for u in range(0, fam.n + 1):
        expected = oracle.get(u, np.empty(0, dtype=np.int64))
        assert np.array_equal(offsets.of(u), expected), u
    # keys = station * L + offset, station by station: the order the
    # batch queries binary-search.
    expected_keys = [u * fam.length + int(i) for u in sorted(oracle) for i in oracle[u]]
    assert offsets.keys.tolist() == expected_keys
    assert offsets.flat.tolist() == [int(i) for u in sorted(oracle) for i in oracle[u]]


class TestStationOffsets:
    @given(frozenset_families())
    @settings(max_examples=80, deadline=None)
    def test_transpose_equals_dict_of_lists(self, family_input):
        n, sets = family_input
        _assert_transpose_matches_oracle(SetFamily(n, sets))

    def test_transpose_with_station_ids_beyond_uint16(self):
        # n >= 2**16 sorts the int64 IDs themselves instead of uint16 keys.
        n = 2**16 + 3
        sets = (frozenset({n, 3, 2**16}), frozenset({2**16 + 1}), frozenset(), frozenset({n, 3}))
        _assert_transpose_matches_oracle(SetFamily(n, sets))


class TestRandomSelectiveFamily:
    @given(
        n=st.integers(min_value=2, max_value=96),
        k=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_draws_as_row_by_row_frozensets(self, n, k, seed):
        k = min(k, n)
        family = random_selective_family(n, k, rng=seed).family
        # Reference: the seed derivation and per-set draws of the construction,
        # materialized as frozensets row by row.
        draw = np.random.default_rng(int(np.random.default_rng(seed).integers(0, 2**63 - 1)))
        length = selective_family_target_length(n, k)
        expected = tuple(
            frozenset(int(u) + 1 for u in np.flatnonzero(draw.random(n) < 1.0 / k))
            for _ in range(length)
        )
        assert family.sets == expected
