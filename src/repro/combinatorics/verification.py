"""Verification of selectivity and cover-freeness properties.

The paper's algorithms rest on combinatorial properties that our randomized
constructions only satisfy with high probability, so this module provides the
checking machinery used by :mod:`repro.core.selective` (construct–verify–retry
loops), by the test suite, and by experiment E8:

* :func:`is_selective_for` — exact check of the paper's selectivity property
  for a single contender set ``X``;
* :func:`selectivity_violations` — exhaustive search for violating sets of a
  given size range (feasible for small ``n``/``k``);
* :func:`monte_carlo_selectivity` — sampled estimate of the violation rate for
  larger instances;
* :func:`is_strongly_selective_for` / :func:`is_cover_free` — the stronger
  properties guaranteed by explicit superimposed-code constructions.
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro._util import RngLike, as_generator, validate_k_n, validate_station_id
from repro.combinatorics.selectors import SetFamily

__all__ = [
    "is_selective_for",
    "hits_exactly_one",
    "selectivity_violations",
    "exhaustive_selectivity_check",
    "monte_carlo_selectivity",
    "is_strongly_selective_for",
    "is_cover_free",
]


def hits_exactly_one(family: SetFamily, contenders: Iterable[int]) -> Optional[int]:
    """Return the index of the first set intersecting ``contenders`` in exactly one element.

    Returns ``None`` when no such set exists.  This is the basic "isolation"
    event: the slot at which exactly one awake station transmits.
    """
    return _first_isolating(family.sets, _contender_set(family, contenders))


def _contender_set(family: SetFamily, contenders: Iterable[int]) -> FrozenSet[int]:
    """Validate contender IDs against the family's universe (same rule as set members)."""
    return frozenset(validate_station_id(x, family.n) for x in contenders)


def _first_isolating(sets: Sequence[FrozenSet[int]], contenders: FrozenSet[int]) -> Optional[int]:
    """Index of the first set meeting ``contenders`` in exactly one station, else ``None``."""
    for idx, s in enumerate(sets):
        if len(s & contenders) == 1:
            return idx
    return None


def is_selective_for(family: SetFamily, contenders: Iterable[int]) -> bool:
    """Return True iff some set of ``family`` intersects ``contenders`` in exactly one element."""
    return hits_exactly_one(family, contenders) is not None


def selectivity_violations(
    family: SetFamily,
    k: int,
    *,
    min_size: Optional[int] = None,
    max_sets: Optional[int] = None,
) -> List[Tuple[int, ...]]:
    """Exhaustively find contender sets that the family fails to select.

    Checks every subset ``X ⊆ [n]`` with ``min_size <= |X| <= k`` (the paper's
    definition uses ``k/2 <= |X| <= k``; pass ``min_size=k//2`` — the default —
    to match it).  Exponential in ``n``; intended for the small instances used
    in unit tests.

    Parameters
    ----------
    family:
        Candidate family.
    k:
        Upper bound of the contender-set size range.
    min_size:
        Lower bound of the range (defaults to ``max(1, k // 2)``).
    max_sets:
        If given, stop after collecting this many violations.

    Returns
    -------
    list of tuples
        Each violating contender set, as a sorted tuple of station IDs.
    """
    k, n = validate_k_n(k, family.n)
    lo = max(1, k // 2) if min_size is None else max(1, min_size)
    violations: List[Tuple[int, ...]] = []
    universe = range(1, n + 1)
    sets = family.sets
    for size in range(lo, k + 1):
        for subset in combinations(universe, size):
            if _first_isolating(sets, frozenset(subset)) is None:
                violations.append(subset)
                if max_sets is not None and len(violations) >= max_sets:
                    return violations
    return violations


def exhaustive_selectivity_check(family: SetFamily, k: int) -> bool:
    """Return True iff ``family`` is an ``(n, k)``-selective family (exact check).

    Uses the paper's definition: for every ``X`` with ``k/2 <= |X| <= k`` some
    set intersects ``X`` in exactly one element.  Exponential; use only for
    small ``n``.
    """
    return not selectivity_violations(family, k, max_sets=1)


def monte_carlo_selectivity(
    family: SetFamily,
    k: int,
    *,
    trials: int = 1000,
    rng: RngLike = None,
    min_size: Optional[int] = None,
) -> float:
    """Estimate the fraction of random contender sets that the family selects.

    Samples ``trials`` subsets with sizes uniform in ``[min_size, k]`` (default
    ``[max(1, k//2), k]``) and members uniform without replacement, and returns
    the fraction for which the selectivity property holds.  A correct selective
    family returns 1.0; randomized constructions that have not been verified
    may return slightly less.
    """
    k, n = validate_k_n(k, family.n)
    lo = max(1, k // 2) if min_size is None else max(1, min_size)
    if lo > k:
        raise ValueError(f"min_size {lo} exceeds k {k}")
    gen = as_generator(rng)
    sets = family.sets
    successes = 0
    for _ in range(trials):
        size = int(gen.integers(lo, k + 1))
        size = min(size, n)
        contenders = gen.choice(n, size=size, replace=False) + 1
        if _first_isolating(sets, frozenset(contenders.tolist())) is not None:
            successes += 1
    return successes / trials


def is_strongly_selective_for(family: SetFamily, contenders: Iterable[int]) -> bool:
    """Return True iff *every* contender is isolated by some set of the family.

    Strong selectivity means: for every ``x`` in the contender set ``X`` there
    exists a set ``F`` with ``X ∩ F = {x}``.  Explicit superimposed-code
    constructions guarantee this for all ``|X| <= k + 1``.
    """
    contender_set = _contender_set(family, contenders)
    isolated: Set[int] = set()
    for s in family.sets:
        inter = s & contender_set
        if len(inter) == 1:
            isolated.add(next(iter(inter)))
            if len(isolated) == len(contender_set):
                return True
    return isolated == contender_set


def is_cover_free(family: SetFamily, k: int, *, exhaustive_limit: int = 2**16) -> bool:
    """Check the k-cover-freeness of the *dual* code of a set family.

    Interpreting the family as a code (station ``u``'s codeword is its
    membership vector across sets), the family is ``k``-cover-free iff no
    codeword is covered by the union of any ``k`` others.  The check is
    exhaustive over all ``(k+1)``-subsets and is guarded by
    ``exhaustive_limit`` on the number of subsets examined.
    """
    k, n = validate_k_n(k, family.n)
    matrix = family.membership_matrix()  # (length, n) boolean
    codewords = matrix.T  # (n, length)
    from math import comb

    total = comb(n, 1) * comb(n - 1, min(k, n - 1)) if n > 1 else 1
    if total > exhaustive_limit:
        raise ValueError(
            f"exhaustive cover-freeness check would examine ~{total} subsets, "
            f"exceeding exhaustive_limit={exhaustive_limit}"
        )
    stations = list(range(n))
    for target in stations:
        others = [s for s in stations if s != target]
        for cover in combinations(others, min(k, len(others))):
            union = np.zeros(codewords.shape[1], dtype=bool)
            for c in cover:
                union |= codewords[c]
            if bool(np.all(union[codewords[target]])):
                return False
    return True
