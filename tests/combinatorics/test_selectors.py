"""Tests for repro.combinatorics.selectors (SetFamily and explicit constructions)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.combinatorics.selectors import (
    SetFamily,
    binary_selector,
    power_of_two_blocks,
    singleton_family,
    strongly_selective_family,
)
from repro.combinatorics.verification import (
    is_selective_for,
    is_strongly_selective_for,
)


class TestSetFamily:
    def test_rejects_out_of_range_station(self):
        with pytest.raises(ValueError):
            SetFamily(4, (frozenset({5}),))
        with pytest.raises(ValueError):
            SetFamily(4, (frozenset({0}),))

    @pytest.mark.parametrize(
        "members",
        [{2.7}, {2.0}, {"2"}, {True, 3}, {False}, {np.float64(3.0)}, {None}],
        ids=["float", "integral-float", "str", "bool-with-int", "bool", "np-float", "none"],
    )
    def test_rejects_non_integer_station(self, members):
        with pytest.raises(TypeError):
            SetFamily(4, (frozenset({1}), frozenset(members)))

    def test_accepts_numpy_integer_stations(self):
        fam = SetFamily(4, (frozenset({np.int64(2), np.uint8(3)}), {np.int32(1)}))
        assert fam.sets == (frozenset({2, 3}), frozenset({1}))

    @pytest.mark.parametrize(
        "stations",
        [np.array([1.0, 2.0]), np.array(["1", "2"]), np.array([True, False])],
        ids=["float", "str", "bool"],
    )
    def test_from_csr_rejects_non_integer_dtype(self, stations):
        with pytest.raises(TypeError):
            SetFamily.from_csr(4, [0, 2], stations)

    def test_from_csr_rejects_float_indptr(self):
        with pytest.raises(TypeError):
            SetFamily.from_csr(4, np.array([0.0, 2.0]), [1, 2])

    def test_is_immutable_and_read_only(self):
        fam = SetFamily(4, (frozenset({1, 2}),))
        with pytest.raises(AttributeError):
            fam.n = 5
        with pytest.raises(ValueError):
            fam.stations[0] = 3

    def test_equality_and_hash_by_value(self):
        a = SetFamily(4, (frozenset({1, 2}), frozenset()), label="x")
        b = SetFamily.from_csr(4, [0, 2, 2], [1, 2], label="x")
        assert a == b and hash(a) == hash(b)
        assert a != SetFamily.from_csr(4, [0, 2, 2], [1, 2], label="y")
        assert a != SetFamily.from_csr(4, [0, 1, 2], [1, 2], label="x")

    def test_pickle_round_trip(self):
        import pickle

        fam = SetFamily(5, (frozenset({1, 5}), frozenset({3})), label="p")
        clone = pickle.loads(pickle.dumps(fam))
        assert clone == fam and clone.sets == fam.sets

    def test_length_and_indexing(self):
        fam = SetFamily(4, (frozenset({1}), frozenset({2, 3})))
        assert len(fam) == 2
        assert fam.length == 2
        assert fam[1] == frozenset({2, 3})
        assert fam.contains(2, 1)
        assert not fam.contains(4, 1)

    def test_membership_matrix_shape_and_content(self):
        fam = SetFamily(4, (frozenset({1, 3}), frozenset({2})))
        mat = fam.membership_matrix()
        assert mat.shape == (2, 4)
        assert mat[0].tolist() == [True, False, True, False]
        assert mat[1].tolist() == [False, True, False, False]

    def test_concatenate(self):
        a = SetFamily(4, (frozenset({1}),), label="a")
        b = SetFamily(4, (frozenset({2}),), label="b")
        c = a.concatenate(b)
        assert c.length == 2
        assert c.sets == (frozenset({1}), frozenset({2}))

    def test_concatenate_rejects_mismatched_universe(self):
        a = SetFamily(4, (frozenset({1}),))
        b = SetFamily(5, (frozenset({2}),))
        with pytest.raises(ValueError):
            a.concatenate(b)

    def test_restricted_to(self):
        fam = SetFamily(6, (frozenset({1, 2, 3}), frozenset({4, 5})))
        restricted = fam.restricted_to([2, 4])
        assert restricted.sets == (frozenset({2}), frozenset({4}))

    def test_max_set_size_and_total_membership(self):
        fam = SetFamily(6, (frozenset({1, 2, 3}), frozenset({4, 5}), frozenset()))
        assert fam.max_set_size() == 3
        assert fam.total_membership() == 5

    def test_empty_family_statistics(self):
        fam = SetFamily(3, ())
        assert fam.max_set_size() == 0
        assert fam.total_membership() == 0


class TestSingletonFamily:
    def test_is_round_robin(self):
        fam = singleton_family(5)
        assert fam.length == 5
        assert fam.sets == tuple(frozenset({u}) for u in range(1, 6))

    def test_selective_for_any_subset(self):
        fam = singleton_family(8)
        assert is_selective_for(fam, [3, 5, 7])
        assert is_strongly_selective_for(fam, [1, 2, 3, 4, 5, 6, 7, 8])


class TestBinarySelector:
    def test_length(self):
        assert binary_selector(8).length == 2 * 3
        assert binary_selector(9).length == 2 * 4
        assert binary_selector(1).length == 1

    def test_selects_any_pair(self):
        fam = binary_selector(16)
        for a in range(1, 17):
            for b in range(a + 1, 17):
                assert is_selective_for(fam, [a, b]), (a, b)

    def test_every_station_appears(self):
        fam = binary_selector(10)
        appearing = set()
        for s in fam:
            appearing |= s
        assert appearing == set(range(1, 11))


class TestPowerOfTwoBlocks:
    def test_blocks_cover_and_double(self):
        blocks = power_of_two_blocks(20)
        assert blocks[0] == (1, 1)
        assert blocks[1] == (2, 3)
        assert blocks[2] == (4, 7)
        # Coverage without overlap.
        covered = []
        for lo, hi in blocks:
            covered.extend(range(lo, hi + 1))
        assert covered == list(range(1, 21))


class TestStronglySelectiveFamily:
    def test_small_instance_is_strongly_selective(self):
        fam = strongly_selective_family(12, 3)
        rng = np.random.default_rng(0)
        for _ in range(50):
            size = int(rng.integers(1, 4))
            subset = rng.choice(12, size=size, replace=False) + 1
            assert is_strongly_selective_for(fam, subset.tolist())

    def test_k_equal_one_falls_back_to_singletons(self):
        fam = strongly_selective_family(6, 1)
        assert fam.length == 6

    def test_universe_of_one(self):
        fam = strongly_selective_family(1, 1)
        assert fam.length == 1
        assert fam.contains(1, 0)
