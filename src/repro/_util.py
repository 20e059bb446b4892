"""Shared internal utilities for the :mod:`repro` package.

This module collects small helpers used throughout the library:

* integer math used by the paper's bounds (``log2`` variants that are safe at
  the boundary values the paper glosses over with "we omit floors/ceilings"),
* validation helpers that convert user errors into clear exceptions,
* deterministic random-generator plumbing (every stochastic construction in
  the library takes a seed or an ``numpy.random.Generator`` so results are
  reproducible bit-for-bit).

Seed-derivation convention
--------------------------

Whenever one seed has to fan out into several independent streams — the
per-pattern streams of :func:`repro.engine.run_batch`, per-pattern draws in
:mod:`repro.workloads`, per-candidate evaluation in :mod:`repro.adversary` —
child generators MUST
be derived with :meth:`numpy.random.SeedSequence.spawn` (wrapped here as
:func:`spawn_generators` / :func:`derived_generator`), never with ad-hoc
integer offsets such as ``seed + i``.  Offset seeds produce correlated
streams (neighbouring seeds of the same bit-generator share state-setup
structure) and collide across call sites (two loops both using ``seed + i``
reuse each other's streams); ``SeedSequence`` hashes the parent entropy with
the spawn key, which guarantees independence and gives every derivation site
its own namespace.

Nothing in here is part of the public API; the public surface re-exports only
what is documented in :mod:`repro`.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "RngLike",
    "as_generator",
    "spawn_generators",
    "derived_generator",
    "stable_key",
    "ragged_arange",
    "MAX_CELLS_PER_CHUNK",
    "ceil_log2",
    "floor_log2",
    "ceil_div",
    "log2_safe",
    "loglog2_safe",
    "is_integer_id",
    "validate_station_id",
    "validate_station_ids",
    "validate_positive_int",
    "validate_k_n",
    "ensure_sorted_unique",
]

#: Anything acceptable as a source of randomness: ``None`` (fresh entropy),
#: an integer seed, or an already-constructed :class:`numpy.random.Generator`.
RngLike = Union[None, int, np.random.Generator]


def as_generator(rng: RngLike) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed-like value.

    Parameters
    ----------
    rng:
        ``None`` for OS entropy, an ``int`` seed for reproducible streams, or
        an existing generator (returned unchanged).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def stable_key(name: str) -> int:
    """Map a string to a stable non-negative integer usable as seed entropy.

    Python's built-in ``hash`` is salted per process, so it cannot be used to
    derive reproducible seeds from workload names; this uses SHA-256 instead.
    """
    import hashlib

    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def spawn_generators(seed: RngLike, count: int, *keys: Union[int, str]) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from one seed.

    This is the library's only sanctioned way to fan a seed out into multiple
    streams (see the module docstring): it builds a
    :class:`numpy.random.SeedSequence` from ``seed`` and the optional
    namespace ``keys`` (strings are hashed with :func:`stable_key`) and calls
    :meth:`~numpy.random.SeedSequence.spawn`.  Passing a ``Generator`` draws a
    fresh 64-bit parent seed from it, so generator-valued seeds stay usable.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    entropy: list[int] = [stable_key(k) if isinstance(k, str) else int(k) for k in keys]
    if isinstance(seed, np.random.Generator):
        parent = int(seed.integers(0, 2**63))
    elif seed is None:
        # Match as_generator(None): an unseeded spawn draws fresh OS entropy
        # (namespace keys alone must not make the streams deterministic).
        parent = np.random.SeedSequence().entropy
    else:
        parent = seed
    sequence = np.random.SeedSequence([int(parent)] + entropy)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def derived_generator(seed: RngLike, *keys: Union[int, str]) -> np.random.Generator:
    """Derive one child generator from ``seed`` namespaced by ``keys``.

    Equivalent to ``spawn_generators(seed, 1, *keys)[0]``; use it when a call
    site needs a single independent stream (e.g. the pattern draw for shard
    ``i`` of workload ``"heavy-tailed"``).
    """
    return spawn_generators(seed, 1, *keys)[0]


#: Cap on the cells (pairs × slots, or rows × slots) a vectorized chunked
#: scan materializes at once — bounds the transient working set of the batch
#: engine's bincount scans and of the matrix-geometry enumerations in
#: :mod:`repro.core.waking_matrix`, which must agree on the budget.
MAX_CELLS_PER_CHUNK = 1 << 22


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange`` per row: ``[0..c0), [0..c1), ...`` flattened.

    The building block for vectorized ragged expansion: paired with
    ``np.repeat(values, counts)`` it enumerates, without a Python loop, the
    ``j``-th element of every variable-length run.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    run_starts = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - run_starts


def ceil_log2(x: int) -> int:
    """Return ``ceil(log2(x))`` for a positive integer ``x``.

    ``ceil_log2(1) == 0``.  Raises :class:`ValueError` for ``x < 1``.
    """
    if x < 1:
        raise ValueError(f"ceil_log2 requires x >= 1, got {x}")
    return (x - 1).bit_length()


def floor_log2(x: int) -> int:
    """Return ``floor(log2(x))`` for a positive integer ``x``."""
    if x < 1:
        raise ValueError(f"floor_log2 requires x >= 1, got {x}")
    return x.bit_length() - 1


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division ``ceil(a / b)`` for ``b > 0``."""
    if b <= 0:
        raise ValueError(f"ceil_div requires b > 0, got {b}")
    return -(-a // b)


def log2_safe(x: float) -> float:
    """``log2(x)`` clamped to be at least 1.

    The paper's bounds use expressions such as ``k log(n/k)`` that collapse to
    zero at ``k == n``; following the paper's convention (``Θ(k log(n/k)+1)``)
    we never let the logarithmic factor drop below 1 so that bound formulas
    stay positive and comparable.
    """
    if x <= 1.0:
        return 1.0
    return math.log2(x)


def loglog2_safe(x: float) -> float:
    """``log2(log2(x))`` clamped to be at least 1 (see :func:`log2_safe`)."""
    return log2_safe(log2_safe(x))


def validate_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive ``int`` and return it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def is_integer_id(value: object) -> bool:
    """True iff ``value`` has a station-ID type: ``int`` or a NumPy integer, not ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def validate_station_id(station: int, n: int) -> int:
    """Validate a station ID against the universe ``[1, n]``.

    The paper indexes stations ``1..n``; the library follows that convention
    everywhere in the public API (internal arrays are 0-based).
    """
    if not is_integer_id(station):
        raise TypeError(f"station ID must be an integer, got {type(station).__name__}")
    station = int(station)
    if not 1 <= station <= n:
        raise ValueError(f"station ID must be in [1, {n}], got {station}")
    return station


def validate_station_ids(stations: Iterable[int], n: int) -> list[int]:
    """Validate a collection of station IDs, returning them as a list."""
    out = [validate_station_id(s, n) for s in stations]
    if len(set(out)) != len(out):
        raise ValueError("station IDs must be distinct")
    return out


def validate_k_n(k: int, n: int) -> tuple[int, int]:
    """Validate the pair ``(k, n)`` with ``1 <= k <= n``."""
    n = validate_positive_int(n, "n")
    k = validate_positive_int(k, "k")
    if k > n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    return k, n


def ensure_sorted_unique(values: Sequence[int], name: str = "values") -> list[int]:
    """Return a sorted list of distinct integers, validating uniqueness."""
    out = sorted(int(v) for v in values)
    for a, b in zip(out, out[1:]):
        if a == b:
            raise ValueError(f"{name} must be distinct; {a} appears more than once")
    return out
