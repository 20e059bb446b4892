"""Adversarial and stochastic wake-up pattern generators.

The wake-up problem is a game against an adversary who chooses *which* (at
most ``k``) stations wake up and *when*.  All bounds in the paper are
worst-case over this choice, so the benchmark harness needs a library of
adversarial strategies:

* structured patterns targeting the weak points of specific algorithms
  (waking just after a selective-family boundary to maximize the wait of
  ``wait_and_go``; waking inside a window so Scenario C stations must idle
  until the next window boundary);
* stochastic patterns (uniform, bursty/batched) for average-case curves;
* a randomized *search* over patterns that reports the worst latency found;
* the adaptive replacement adversary from the proof of Theorem 2.1, which
  certifies an empirical lower bound against any deterministic protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._util import RngLike, as_generator, validate_k_n
from repro.channel.protocols import DeterministicProtocol
from repro.channel.simulator import WakeupResult, run_deterministic
from repro.channel.wakeup import WakeupPattern

__all__ = [
    "simultaneous_pattern",
    "staggered_pattern",
    "batched_pattern",
    "uniform_random_pattern",
    "window_boundary_pattern",
    "family_boundary_pattern",
    "random_station_subset",
    "worst_case_search",
    "AdaptiveLowerBoundAdversary",
    "PATTERN_GENERATORS",
]


def random_station_subset(n: int, k: int, rng: RngLike = None) -> List[int]:
    """Pick ``k`` distinct station IDs uniformly at random from ``[1, n]``."""
    k, n = validate_k_n(k, n)
    gen = as_generator(rng)
    return sorted(int(u) + 1 for u in gen.choice(n, size=k, replace=False))


def simultaneous_pattern(
    n: int, k: int, *, start: int = 0, stations: Optional[Sequence[int]] = None, rng: RngLike = None
) -> WakeupPattern:
    """All ``k`` stations wake at the same slot (the classical synchronized case)."""
    k, n = validate_k_n(k, n)
    chosen = list(stations) if stations is not None else random_station_subset(n, k, rng)
    return WakeupPattern(n, {u: start for u in chosen})


def staggered_pattern(
    n: int,
    k: int,
    *,
    start: int = 0,
    gap: int = 1,
    stations: Optional[Sequence[int]] = None,
    rng: RngLike = None,
) -> WakeupPattern:
    """Stations wake one after another, ``gap`` slots apart.

    With a large ``gap`` this stresses the non-synchronized aspect of the
    model: late wakers join while the early ones are already deep into their
    schedules.
    """
    k, n = validate_k_n(k, n)
    if gap < 0:
        raise ValueError(f"gap must be >= 0, got {gap}")
    chosen = list(stations) if stations is not None else random_station_subset(n, k, rng)
    return WakeupPattern(n, {u: start + i * gap for i, u in enumerate(chosen)})


def batched_pattern(
    n: int,
    k: int,
    *,
    start: int = 0,
    batch_size: int = 4,
    batch_gap: int = 16,
    stations: Optional[Sequence[int]] = None,
    rng: RngLike = None,
) -> WakeupPattern:
    """Stations wake in bursts of ``batch_size``, bursts separated by ``batch_gap`` slots."""
    k, n = validate_k_n(k, n)
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if batch_gap < 0:
        raise ValueError(f"batch_gap must be >= 0, got {batch_gap}")
    chosen = list(stations) if stations is not None else random_station_subset(n, k, rng)
    times = {}
    for i, u in enumerate(chosen):
        batch = i // batch_size
        times[u] = start + batch * batch_gap
    return WakeupPattern(n, times)


def uniform_random_pattern(
    n: int,
    k: int,
    *,
    start: int = 0,
    window: int = 128,
    stations: Optional[Sequence[int]] = None,
    rng: RngLike = None,
) -> WakeupPattern:
    """Stations wake at independent uniform times in ``[start, start + window)``.

    One station is pinned to ``start`` so that ``s`` is deterministic and the
    latency of different runs is comparable.
    """
    k, n = validate_k_n(k, n)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    gen = as_generator(rng)
    chosen = list(stations) if stations is not None else random_station_subset(n, k, gen)
    times = {u: start + int(gen.integers(0, window)) for u in chosen}
    times[chosen[0]] = start
    return WakeupPattern(n, times)


def window_boundary_pattern(
    n: int,
    k: int,
    *,
    window_length: int,
    start: int = 0,
    stations: Optional[Sequence[int]] = None,
    rng: RngLike = None,
) -> WakeupPattern:
    """Wake each station one slot *after* a window boundary.

    Targets Scenario C: the protocol makes stations that wake inside a window
    of ``log log n`` slots idle until the next boundary (the map ``µ(σ)``), so
    waking at ``p·loglog n + 1`` maximizes the forced idle time.  Stations are
    spread over consecutive windows.
    """
    k, n = validate_k_n(k, n)
    if window_length < 1:
        raise ValueError(f"window_length must be >= 1, got {window_length}")
    chosen = list(stations) if stations is not None else random_station_subset(n, k, rng)
    offset = 1 if window_length > 1 else 0
    times = {u: start + i * window_length + offset for i, u in enumerate(chosen)}
    return WakeupPattern(n, times)


def family_boundary_pattern(
    n: int,
    k: int,
    *,
    boundaries: Sequence[int],
    start: int = 0,
    stations: Optional[Sequence[int]] = None,
    rng: RngLike = None,
) -> WakeupPattern:
    """Wake each station one slot after a selective-family boundary.

    Targets Scenario B's ``wait_and_go``: a station waking just after the
    first slot of a family must stay silent until the next family starts,
    which is the worst case for its waiting time.  ``boundaries`` are the
    absolute slots at which families begin (obtainable from
    :meth:`repro.core.scenario_b.WaitAndGo.family_boundaries`).
    """
    k, n = validate_k_n(k, n)
    if not boundaries:
        raise ValueError("boundaries must be non-empty")
    chosen = list(stations) if stations is not None else random_station_subset(n, k, rng)
    sorted_bounds = sorted(int(b) for b in boundaries)
    times = {}
    for i, u in enumerate(chosen):
        b = sorted_bounds[i % len(sorted_bounds)]
        times[u] = max(start, b + 1)
    # Ensure at least one station defines s = start for comparability.
    times[chosen[0]] = start
    return WakeupPattern(n, times)


#: Registry of the named stochastic/structured generators used by experiments.
PATTERN_GENERATORS: Dict[str, Callable[..., WakeupPattern]] = {
    "simultaneous": simultaneous_pattern,
    "staggered": staggered_pattern,
    "batched": batched_pattern,
    "uniform": uniform_random_pattern,
}


def worst_case_search(
    protocol: DeterministicProtocol,
    n: int,
    k: int,
    *,
    trials: int = 32,
    window: int = 256,
    max_slots: int = 200_000,
    rng: RngLike = None,
    include_structured: bool = True,
) -> Tuple[WakeupResult, WakeupPattern]:
    """Randomized search for a bad wake-up pattern for a given protocol.

    Draws ``trials`` random patterns (uniform wake times over ``window``,
    random station subsets, plus — when ``include_structured`` — the
    simultaneous and fully staggered patterns), runs the protocol on each, and
    returns the run with the largest latency together with its pattern.

    This does not certify the true worst case (that is what the theory is
    for); it provides the empirical "max over adversary moves" column in the
    experiment tables.  All candidates are resolved in one call to the batch
    engine (:func:`repro.engine.run_batch`), so raising ``trials`` is cheap.
    """
    from repro.engine import run_batch

    if not isinstance(protocol, DeterministicProtocol):
        # A randomized latency is a random variable, not a property of the
        # pattern: there is no single worst run to return.
        raise TypeError(
            f"expected a DeterministicProtocol, got {type(protocol).__name__}"
        )
    k, n = validate_k_n(k, n)
    gen = as_generator(rng)
    candidates: List[WakeupPattern] = []
    if include_structured:
        candidates.append(simultaneous_pattern(n, k, rng=gen))
        candidates.append(staggered_pattern(n, k, gap=1, rng=gen))
        candidates.append(staggered_pattern(n, k, gap=max(1, window // max(k, 1)), rng=gen))
    for _ in range(trials):
        candidates.append(uniform_random_pattern(n, k, window=window, rng=gen))

    batch = run_batch(protocol, candidates, max_slots=max_slots)
    # Unsolved rows count as max_slots; ties keep the earliest candidate,
    # matching the sequential search this replaced.
    effective = np.where(batch.solved, batch.latency, max_slots)
    worst_index = int(np.argmax(effective))
    return batch[worst_index], candidates[worst_index]


@dataclass
class AdaptiveLowerBoundAdversary:
    """The replacement adversary from the proof of Theorem 2.1.

    Given a deterministic protocol and the synchronized setting (all chosen
    stations wake at slot 0 — the lower bound holds even there), the adversary
    maintains a contender set ``X`` of size ``k``.  It repeatedly:

    1. runs the protocol on ``X`` and finds the first isolating slot ``r`` and
       isolated station ``x``;
    2. replaces ``x`` with a fresh station ``y`` from the complement that has
       not been used before, obtaining ``X'``;
    3. repeats, for up to ``min(k, n - k)`` iterations.

    Each iteration forces the protocol to "spend" a distinct isolating slot,
    which is the counting at the heart of the ``min{k, n-k+1}`` lower bound.
    The adversary reports the set of distinct isolating slots observed and the
    worst (largest) first-isolation latency among the constructed contender
    sets — an empirical certificate that the protocol cannot beat the bound.

    Parameters
    ----------
    protocol:
        Any deterministic protocol.
    max_slots:
        Horizon per run.
    """

    protocol: DeterministicProtocol
    max_slots: int = 500_000

    def run(
        self, k: int, *, initial: Optional[Sequence[int]] = None, rng: RngLike = None
    ) -> "AdversaryReport":
        """Execute the replacement process and return a report."""
        n = self.protocol.n
        k, n = validate_k_n(k, n)
        gen = as_generator(rng)
        if initial is not None:
            current = sorted(int(u) for u in initial)
            if len(current) != k:
                raise ValueError(f"initial set must have size k={k}, got {len(current)}")
        else:
            current = random_station_subset(n, k, gen)
        fresh = [u for u in range(1, n + 1) if u not in set(current)]
        gen.shuffle(fresh)

        isolating_slots: List[int] = []
        latencies: List[int] = []
        histories: List[Tuple[int, ...]] = []
        iterations = min(k, n - k) if n > k else 1
        iterations = max(1, iterations)

        for _ in range(iterations):
            pattern = WakeupPattern(n, {u: 0 for u in current})
            result = run_deterministic(self.protocol, pattern, max_slots=self.max_slots)
            histories.append(tuple(current))
            if not result.solved:
                # The protocol never isolates this set within the horizon: the
                # adversary has already won; record a sentinel latency.
                latencies.append(self.max_slots)
                break
            assert result.success_slot is not None and result.winner is not None
            isolating_slots.append(result.success_slot)
            latencies.append(result.require_solved())
            if not fresh:
                break
            # Following the proof, prefer a replacement that does NOT transmit at
            # the isolating round: then the old round cannot isolate the new set,
            # forcing the protocol to reserve a different round for it.
            transmitting_at_r = {
                u
                for u in fresh
                if self.protocol.transmits(u, 0, result.success_slot)
            }
            preferred = [u for u in fresh if u not in transmitting_at_r]
            replacement = preferred[-1] if preferred else fresh[-1]
            fresh.remove(replacement)
            current = sorted(set(current) - {result.winner} | {replacement})

        return AdversaryReport(
            n=n,
            k=k,
            protocol=self.protocol.describe(),
            distinct_isolating_slots=len(set(isolating_slots)),
            max_latency=max(latencies) if latencies else 0,
            latencies=tuple(latencies),
            contender_sets=tuple(histories),
        )


@dataclass(frozen=True)
class AdversaryReport:
    """Result of one run of :class:`AdaptiveLowerBoundAdversary`."""

    n: int
    k: int
    protocol: str
    distinct_isolating_slots: int
    max_latency: int
    latencies: Tuple[int, ...]
    contender_sets: Tuple[Tuple[int, ...], ...]

    @property
    def theoretical_bound(self) -> int:
        """The paper's ``min{k, n-k+1}`` lower bound for these parameters."""
        return min(self.k, self.n - self.k + 1)
