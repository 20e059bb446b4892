"""Set families, binary selectors and strongly selective families.

A *set family* over the universe ``[n] = {1..n}`` is simply an ordered list of
subsets; each subset is a *transmission set*: the stations allowed to transmit
in the corresponding time slot.  This is the representation shared by
selective families (Section 3 of the paper), the concatenated schedules of
``wait_and_go`` (Section 4), and each row of the transmission matrix
(Section 5).

This module provides the :class:`SetFamily` container plus a few classical
explicit constructions used as baselines and as fallbacks when the randomized
constructions of :mod:`repro.core.selective` are not wanted:

* :func:`singleton_family` — the round-robin family ``{1},{2},...,{n}``;
* :func:`binary_selector` — the bit-wise family that isolates any station out
  of *two* contenders (a ``(n, 2)``-selective family of length ``2⌈log n⌉``);
* :func:`strongly_selective_family` — an explicit ``(n, k)``-strongly-selective
  family built from a Kautz–Singleton superimposed code, of length
  ``O(k² log²_k n)`` (quadratically worse than the existential bound but fully
  constructive);
* :func:`power_of_two_blocks` — utility partitioning used by ablations.
"""

from __future__ import annotations

from itertools import chain
from typing import FrozenSet, Iterable, Iterator, List, Tuple

import numpy as np

from repro._util import ceil_log2, is_integer_id, validate_k_n, validate_positive_int

__all__ = [
    "SetFamily",
    "singleton_family",
    "binary_selector",
    "strongly_selective_family",
    "power_of_two_blocks",
]


def _int_array(values, name: str) -> np.ndarray:
    """Copy ``values`` into a fresh int64 array, refusing non-integer dtypes.

    ``bool`` arrays are refused as well (their dtype kind is ``"b"``); an
    empty input of any dtype is accepted since it holds no value to coerce.
    """
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise TypeError(f"{name} must hold integers, got dtype {arr.dtype}")
    return np.array(arr, dtype=np.int64)


class SetFamily:
    """An ordered family of subsets of the station universe ``[1, n]``.

    Stored in compressed-sparse-row form: set ``j`` is
    ``stations[indptr[j]:indptr[j + 1]]``, 1-based and strictly ascending.
    Both arrays are read-only, and every construction — the public
    ``SetFamily(n, sets, label)``, :meth:`from_csr` and :meth:`concatenate` —
    ends in the same vectorised validation.

    Parameters
    ----------
    n:
        Size of the universe; station IDs are ``1..n``.
    sets:
        The ordered transmission sets, as iterables of integer station IDs
        (``int`` or NumPy integers; ``bool``, floats and strings are refused).
    label:
        Optional human-readable description (e.g. ``"(1024, 8)-selective"``).

    Notes
    -----
    The family doubles as a transmission schedule fragment: station ``u``
    transmits in local slot ``j`` (0-based) iff ``u in sets[j]``.
    :class:`repro.core.schedules.FamilySchedule` wraps a family into a full
    :class:`~repro.core.schedules.TransmissionSchedule`.  :attr:`sets` is a
    lazily built tuple of frozensets kept for the scalar reference paths
    (verification, the greedy construction, per-slot ``transmits``).
    Equality and hashing are by value, so families can sit inside frozen
    dataclasses such as :class:`~repro.core.selective.SelectiveFamily`.
    """

    __slots__ = ("n", "indptr", "stations", "label", "_sets")

    n: int
    indptr: np.ndarray
    stations: np.ndarray
    label: str

    def __init__(self, n: int, sets: Iterable[Iterable[int]], label: str = "") -> None:
        rows = [frozenset(s) for s in sets]
        for idx, row in enumerate(rows):
            for station in row:
                if not is_integer_id(station):
                    raise TypeError(
                        f"set #{idx} contains {station!r} of type {type(station).__name__}; "
                        "station IDs must be integers"
                    )
        indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
        stations = np.fromiter(
            chain.from_iterable(sorted(row) for row in rows), dtype=np.int64, count=int(indptr[-1])
        )
        self._init(n, indptr, stations, label)

    @classmethod
    def from_csr(cls, n: int, indptr, stations, label: str = "") -> "SetFamily":
        """Build a family from its CSR arrays (copied; integer dtypes only)."""
        family = cls.__new__(cls)
        family._init(n, _int_array(indptr, "indptr"), _int_array(stations, "stations"), label)
        return family

    def _init(self, n: int, indptr: np.ndarray, stations: np.ndarray, label: str) -> None:
        n = validate_positive_int(n, "n")
        _validate_csr(n, indptr, stations)
        indptr.setflags(write=False)
        stations.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "stations", stations)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_sets", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"SetFamily is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"SetFamily is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (SetFamily.from_csr, (self.n, self.indptr, self.stations, self.label))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetFamily):
            return NotImplemented
        return (
            self.n == other.n
            and self.label == other.label
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.stations, other.stations)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.label, self.indptr.tobytes(), self.stations.tobytes()))

    def __repr__(self) -> str:
        return f"SetFamily(n={self.n}, length={self.length}, label={self.label!r})"

    @property
    def sets(self) -> Tuple[FrozenSet[int], ...]:
        """The transmission sets as a tuple of frozensets (built once, on first use)."""
        if self._sets is None:
            flat = self.stations.tolist()
            ptr = self.indptr.tolist()
            sets = tuple(frozenset(flat[a:b]) for a, b in zip(ptr, ptr[1:]))
            object.__setattr__(self, "_sets", sets)
        return self._sets

    def __len__(self) -> int:
        return self.indptr.size - 1

    def __iter__(self) -> Iterator[FrozenSet[int]]:
        return iter(self.sets)

    def __getitem__(self, index: int) -> FrozenSet[int]:
        return self.sets[index]

    @property
    def length(self) -> int:
        """Number of transmission sets (= number of time slots consumed)."""
        return self.indptr.size - 1

    def contains(self, station: int, index: int) -> bool:
        """Return True iff ``station`` transmits in local slot ``index``."""
        return station in self.sets[index]

    def row_of(self) -> np.ndarray:
        """Set index of every entry of :attr:`stations` (aligned with it)."""
        return np.repeat(np.arange(self.length, dtype=np.int64), np.diff(self.indptr))

    def membership_matrix(self) -> np.ndarray:
        """Return a boolean matrix ``B`` with ``B[j, u-1] = (u in sets[j])``.

        Shape is ``(length, n)``.  Useful for vectorized simulation: a slot's
        transmitter count over an awake-set bitmask is a single matrix-vector
        product.
        """
        mat = np.zeros((self.length, self.n), dtype=bool)
        mat[self.row_of(), self.stations - 1] = True
        return mat

    def concatenate(self, other: "SetFamily") -> "SetFamily":
        """Concatenate two families over the same universe."""
        if other.n != self.n:
            raise ValueError(
                f"cannot concatenate families over different universes ({self.n} vs {other.n})"
            )
        return SetFamily.from_csr(
            self.n,
            np.concatenate([self.indptr, other.indptr[1:] + self.indptr[-1]]),
            np.concatenate([self.stations, other.stations]),
            label=f"{self.label}+{other.label}" if self.label or other.label else "",
        )

    def restricted_to(self, stations: Iterable[int]) -> "SetFamily":
        """Return the family with every set intersected with ``stations``."""
        keep = frozenset(int(s) for s in stations)
        return SetFamily(
            self.n,
            tuple(s & keep for s in self.sets),
            label=f"{self.label}|restricted" if self.label else "restricted",
        )

    def max_set_size(self) -> int:
        """Size of the largest transmission set (0 for an empty family)."""
        return int(np.diff(self.indptr).max(initial=0))

    def total_membership(self) -> int:
        """Sum of set sizes — total number of (station, slot) transmit grants."""
        return int(self.stations.size)


def _validate_csr(n: int, indptr: np.ndarray, stations: np.ndarray) -> None:
    """Check the CSR invariants of a :class:`SetFamily`, raising ``ValueError``.

    ``indptr`` is 1-D, starts at 0, is non-decreasing and ends at
    ``stations.size``; every station lies in ``[1, n]``; and each set's
    stations are strictly ascending (sorted, no duplicates).
    """
    if indptr.ndim != 1 or stations.ndim != 1:
        raise ValueError("indptr and stations must be 1-D arrays")
    if indptr.size == 0 or indptr[0] != 0:
        raise ValueError("indptr must start at 0")
    if indptr[-1] != stations.size:
        raise ValueError(
            f"indptr must end at stations.size ({stations.size}), got {int(indptr[-1])}"
        )
    if np.any(indptr[1:] < indptr[:-1]):
        raise ValueError("indptr must be non-decreasing")
    if stations.size == 0:
        return

    def set_of(position: int) -> int:
        return int(np.searchsorted(indptr, position, side="right")) - 1

    outside = (stations < 1) | (stations > n)
    if outside.any():
        pos = int(np.argmax(outside))
        raise ValueError(
            f"set #{set_of(pos)} contains station {int(stations[pos])} outside [1, {n}]"
        )
    # Consecutive entries must rise, except across a set boundary.
    rises = stations[1:] > stations[:-1]
    starts = indptr[1:-1]
    rises[starts[(starts > 0) & (starts < stations.size)] - 1] = True
    if not rises.all():
        pos = int(np.argmin(rises)) + 1
        raise ValueError(
            f"set #{set_of(pos)} is not strictly ascending at station {int(stations[pos])} "
            "(duplicate or unsorted)"
        )


def singleton_family(n: int) -> SetFamily:
    """Return the round-robin family ``({1}, {2}, ..., {n})``.

    This is trivially an ``(n, k)``-selective family for every ``k`` and is the
    building block of the round-robin arm that the paper interleaves with the
    selective-family arm in Scenarios A and B.
    """
    n = validate_positive_int(n, "n")
    return SetFamily.from_csr(
        n, np.arange(n + 1), np.arange(1, n + 1), label=f"round-robin({n})"
    )


def binary_selector(n: int) -> SetFamily:
    """Return the bit-selector family of length ``2 * ceil(log2 n)``.

    For each bit position ``b`` it contains the set of stations whose ID has
    bit ``b`` equal to 1, and the complementary set.  For any two distinct
    awake stations there is a bit on which they differ, hence a set containing
    exactly one of them: the family is ``(n, 2)``-selective.
    """
    n = validate_positive_int(n, "n")
    if n == 1:
        return SetFamily.from_csr(1, [0, 1], [1], label="binary-selector(1)")
    ids = np.arange(1, n + 1, dtype=np.int64)
    rows: List[np.ndarray] = []
    for b in range(ceil_log2(n)):
        bit = ((ids >> b) & 1).astype(bool)
        rows.append(ids[bit])
        rows.append(ids[~bit])
    indptr = np.cumsum([0] + [row.size for row in rows])
    return SetFamily.from_csr(n, indptr, np.concatenate(rows), label=f"binary-selector({n})")


def power_of_two_blocks(n: int) -> List[Tuple[int, int]]:
    """Partition ``[1, n]`` into blocks of doubling size.

    Returns a list of ``(lo, hi)`` inclusive ranges: ``(1,1), (2,3), (4,7)...``
    Used by ablation schedules that replace selective families with plain
    block scans.
    """
    n = validate_positive_int(n, "n")
    blocks: List[Tuple[int, int]] = []
    lo = 1
    size = 1
    while lo <= n:
        hi = min(n, lo + size - 1)
        blocks.append((lo, hi))
        lo = hi + 1
        size *= 2
    return blocks


def strongly_selective_family(n: int, k: int) -> SetFamily:
    """Explicit ``(n, k)``-strongly-selective family via Kautz–Singleton codes.

    A family is *strongly selective* for ``k`` if for every subset ``X`` of at
    most ``k`` stations and every ``x ∈ X`` there is a set ``F`` with
    ``X ∩ F = {x}`` — every member of every small subset gets isolated, which
    is stronger than the paper's selectivity requirement (some member gets
    isolated).  Strong selectivity is what a ``(k-1)``-cover-free family
    provides, and Kautz–Singleton superimposed codes give an explicit one of
    length ``q²`` with ``q = O(k log_k n)``, i.e. ``O(k² log²_k n)``.

    The construction is deterministic and needs no verification, at the price
    of a quadratically longer family than the existential
    ``O(k log(n/k))`` bound; it is exposed both as a baseline for experiment
    E8 and as a fallback when deterministic explicitness matters more than
    length.
    """
    k, n = validate_k_n(k, n)
    # Importing here avoids a circular import at package load time
    # (superimposed.py imports SetFamily from this module).
    from repro.combinatorics.superimposed import code_to_set_family, kautz_singleton_code

    if k == 1 or n == 1:
        return singleton_family(n)
    code = kautz_singleton_code(n=n, k=k)
    family = code_to_set_family(code)
    return SetFamily.from_csr(
        n, family.indptr, family.stations, label=f"kautz-singleton({n},{k})"
    )
