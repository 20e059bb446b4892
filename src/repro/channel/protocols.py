"""Protocol interfaces: the contract between algorithms and the simulator.

Two kinds of protocols exist in the paper's landscape:

* **Deterministic protocols** (all three scenarios of the paper): a station's
  decision to transmit at global slot ``t`` is a deterministic function of its
  ID, its wake-up time and ``t``.  They are *oblivious* — no feedback other
  than "has a success happened yet" (which merely stops the protocol) is used.
  The simulator exploits this: it asks each awake station for its transmit
  slots over a horizon and finds the first slot with exactly one transmitter,
  without a slot-by-slot Python loop.

* **Randomized policies** (Section 6 and the stochastic baselines): a station
  transmits with some probability that may depend on its ID, wake-up time,
  the global slot, and — for feedback-dependent baselines such as binary
  exponential backoff — the history of signals it observed.  Oblivious
  policies (no feedback dependence) expose their probabilities as a matrix
  over ``(station, slot)`` via :meth:`RandomizedPolicy.transmit_probability_matrix`,
  which is the query the batched randomized engine
  (:func:`repro.engine.run_batch`) issues once per chunk;
  feedback-driven policies declare :attr:`RandomizedPolicy.feedback_driven`
  and are resolved slot by slot instead.

Concrete deterministic protocols live in :mod:`repro.core`; randomized ones in
:mod:`repro.core.randomized` and :mod:`repro.baselines`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional

import numpy as np

from repro._util import validate_positive_int
from repro.channel.feedback import FeedbackSignal

__all__ = [
    "DeterministicProtocol",
    "RandomizedPolicy",
    "FeedbackVectorizedPolicy",
    "StationState",
    "zero_before_wake",
]


def zero_before_wake(matrix: np.ndarray, slots: np.ndarray, wakes) -> np.ndarray:
    """Zero the entries of a (pairs × slots) probability matrix before wake-up.

    Support helper for vectorized
    :meth:`RandomizedPolicy.transmit_probability_matrix` overrides, enforcing
    the contract that a sleeping station transmits with probability 0.
    Short-circuits when every pair is already awake at the window start (the
    common case in every chunk after the first).
    """
    wakes = np.asarray(wakes, dtype=np.int64)
    if slots.size == 0 or wakes.size == 0 or int(wakes.max()) <= int(slots[0]):
        return matrix
    matrix[slots[None, :] < wakes[:, None]] = 0.0
    return matrix


class DeterministicProtocol(ABC):
    """A deterministic, oblivious transmission protocol over universe ``[1, n]``.

    Subclasses must implement :meth:`transmits`; they *should* override
    :meth:`transmit_slots` with a vectorized implementation when the protocol
    is used at scale (the default implementation calls :meth:`transmits` once
    per slot, which is correct but slow).  Protocols on the batch engine's hot
    path additionally override :meth:`batch_transmit_slots`, the multi-station
    query :mod:`repro.engine` issues once per chunk.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # A subclass that overrides the scalar queries but inherits a
        # vectorized batch_transmit_slots from an intermediate base would
        # answer batch queries with the *base's* schedule.  Reset such
        # subclasses to the generic fallback, which routes through their own
        # transmit_slots and is always consistent.
        overrides_scalar = "transmits" in cls.__dict__ or "transmit_slots" in cls.__dict__
        inherits_vectorized = (
            "batch_transmit_slots" not in cls.__dict__
            and cls.batch_transmit_slots is not DeterministicProtocol.batch_transmit_slots
        )
        if overrides_scalar and inherits_vectorized:
            cls.batch_transmit_slots = DeterministicProtocol.batch_transmit_slots

    def __init__(self, n: int) -> None:
        self.n = validate_positive_int(n, "n")

    #: Human-readable name used in reports and experiment tables.
    name: str = "deterministic"

    @abstractmethod
    def transmits(self, station: int, wake_time: int, slot: int) -> bool:
        """Return True iff ``station`` (woken at ``wake_time``) transmits at ``slot``.

        Implementations must return ``False`` for every ``slot < wake_time``
        (a sleeping station cannot transmit); the test suite enforces this
        invariant for every protocol in the library.
        """

    def transmit_slots(
        self, station: int, wake_time: int, start: int, stop: int
    ) -> np.ndarray:
        """Absolute slots in ``[start, stop)`` at which the station transmits.

        The default implementation evaluates :meth:`transmits` slot by slot.
        """
        lo = max(int(start), int(wake_time))
        hi = int(stop)
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        slots = [t for t in range(lo, hi) if self.transmits(station, wake_time, t)]
        return np.asarray(slots, dtype=np.int64)

    def batch_transmit_slots(
        self, stations: np.ndarray, wakes: np.ndarray, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Transmit slots for many ``(station, wake_time)`` pairs at once.

        The batch engine (:mod:`repro.engine`) resolves B executions in one
        chunked scan; this is the query it issues per chunk.  ``stations`` and
        ``wakes`` are aligned int arrays describing the pairs; the window
        ``[start, stop)`` is shared by all of them.

        Returns two aligned int64 arrays ``(pair_index, slots)``: pair
        ``pair_index[i]`` transmits at absolute slot ``slots[i]``.  No
        ordering is guaranteed across pairs; a pair may appear zero or many
        times.  Each (pair, slot) combination must appear at most once —
        duplicates would corrupt the engine's transmitter counts.

        The default evaluates :meth:`transmit_slots` pair by pair, which is
        correct for every protocol; schedule-backed protocols and the
        matrix-backed Scenario C protocols (via
        :meth:`~repro.core.waking_matrix.TransmissionMatrix.membership_for_pairs`)
        override it with a fully vectorized computation.
        """
        idx_pieces = []
        slot_pieces = []
        for j in range(len(stations)):
            slots = self.transmit_slots(int(stations[j]), int(wakes[j]), start, stop)
            if slots.size:
                idx_pieces.append(np.full(slots.size, j, dtype=np.int64))
                slot_pieces.append(slots)
        if not slot_pieces:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(idx_pieces), np.concatenate(slot_pieces)

    def describe(self) -> str:
        """One-line description used in experiment tables."""
        return f"{self.name}(n={self.n})"


class StationState:
    """Mutable per-station state owned by a :class:`RandomizedPolicy`.

    A plain attribute bag; policies may subclass or just stuff attributes in.
    """

    def __init__(self, station: int, wake_time: int) -> None:
        self.station = station
        self.wake_time = wake_time
        self.transmission_count = 0
        self.collision_count = 0
        self.extra: dict[str, Any] = {}


class RandomizedPolicy(ABC):
    """A (possibly feedback-driven) randomized transmission policy.

    Subclasses must implement the scalar :meth:`transmit_probability`.
    Oblivious policies — probability a function of ``(station, wake_time,
    slot)`` only — *should* override :meth:`transmit_probability_matrix` with
    a closed-form vectorized implementation when used at scale; it is the
    query the batched randomized engine (:func:`repro.engine.run_batch`)
    issues once per chunk.  Policies whose probabilities react to channel
    feedback must carry :attr:`feedback_driven` (set automatically for
    subclasses that override :meth:`observe`), which makes the batch engine
    fall back to the exact slot-loop per pattern.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Mirror of the DeterministicProtocol guard: a subclass that overrides
        # the scalar probability but inherits a vectorized matrix from an
        # intermediate base would answer batch queries with the *base's*
        # probabilities.  Reset such subclasses to the generic derivation,
        # which routes through their own transmit_probability.
        overrides_scalar = "transmit_probability" in cls.__dict__
        inherits_vectorized = (
            "transmit_probability_matrix" not in cls.__dict__
            and cls.transmit_probability_matrix
            is not RandomizedPolicy.transmit_probability_matrix
        )
        if overrides_scalar and inherits_vectorized:
            cls.transmit_probability_matrix = RandomizedPolicy.transmit_probability_matrix
        # A subclass that reacts to feedback (overrides observe) almost
        # certainly feeds it back into its probabilities; treat it as
        # feedback-driven unless it explicitly declares otherwise.
        if "observe" in cls.__dict__ and "feedback_driven" not in cls.__dict__:
            cls.feedback_driven = True

    def __init__(self, n: int) -> None:
        self.n = validate_positive_int(n, "n")

    #: Human-readable name used in reports and experiment tables.
    name: str = "randomized"

    #: Whether the policy requires collision detection to behave as intended.
    requires_collision_detection: bool = False

    #: Whether transmit probabilities depend on channel feedback (signals seen
    #: via :meth:`observe`).  Feedback-driven policies cannot be resolved from
    #: a precomputed probability matrix; the batch engine runs them through
    #: the slot-loop reference engine, one independent generator per pattern.
    feedback_driven: bool = False

    def create_state(self, station: int, wake_time: int) -> StationState:
        """Create the per-station state at wake-up time."""
        return StationState(station, wake_time)

    @abstractmethod
    def transmit_probability(self, state: StationState, slot: int) -> float:
        """Probability that the station transmits at global slot ``slot``.

        Must be in ``[0, 1]``; called only for slots at or after the station's
        wake-up.
        """

    def transmit_probability_matrix(
        self, stations: np.ndarray, wakes: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        """Transmit probabilities for many ``(station, wake_time)`` pairs at once.

        The batched randomized engine (:func:`repro.engine.run_batch`)
        resolves B patterns in one chunked scan; this is the query it issues
        per chunk.  ``stations`` and ``wakes`` are aligned int arrays
        describing the pairs; the window ``[start, stop)`` is shared by all of
        them.

        Returns a float array of shape ``(len(stations), stop - start)``:
        entry ``[j, t - start]`` is the probability that pair ``j`` transmits
        at absolute slot ``t``.  Entries at slots before a pair's wake-up must
        be ``0.0`` (a sleeping station cannot transmit); all entries must lie
        in ``[0, 1]``.

        The default derives the matrix from the scalar
        :meth:`transmit_probability` with a fresh state per pair, which is
        correct exactly for oblivious policies (probability a function of
        station, wake time and slot only).  Feedback-driven policies
        (:attr:`feedback_driven`) are never asked for a matrix.
        """
        start, stop = int(start), int(stop)
        length = max(0, stop - start)
        matrix = np.zeros((len(stations), length), dtype=np.float64)
        for j in range(len(stations)):
            wake = int(wakes[j])
            state = self.create_state(int(stations[j]), wake)
            for slot in range(max(start, wake), stop):
                matrix[j, slot - start] = self.transmit_probability(state, slot)
        return matrix

    def observe(
        self,
        state: StationState,
        slot: int,
        signal: FeedbackSignal,
        transmitted: bool,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Update per-station state after a slot (default: book-keeping only).

        ``rng`` is the *pattern's own* generator — the same per-pattern child
        stream the simulator draws the transmit decisions from.  Policies
        whose updates are stochastic (backoff windows, splitting coins) must
        draw from it when it is provided, so that a pattern's outcome is a
        function of its own stream alone; drawing from a policy-owned
        generator instead couples every pattern resolved through one policy
        instance, making batched outcomes order-dependent.  The simulator
        always passes it; direct callers may omit it.
        """
        if transmitted:
            state.transmission_count += 1
            if signal is FeedbackSignal.COLLISION:
                state.collision_count += 1

    def describe(self) -> str:
        """One-line description used in experiment tables."""
        return f"{self.name}(n={self.n})"


class FeedbackVectorizedPolicy(ABC):
    """Mixin interface: a feedback-driven policy the batch engine can vectorize.

    Feedback-driven policies cannot be resolved from a precomputed
    probability matrix — each slot's decisions depend on the previous slots'
    outcomes.  They *can* still be batched across patterns, because one
    pattern's state never influences another's: the engine
    (:mod:`repro.engine.feedback_batch`) advances B patterns one slot at
    a time, and this mixin is the per-slot vectorized query surface it uses
    instead of per-station :class:`StationState` dicts.

    State lives in arrays aligned with the engine's flattened ``(pattern,
    station, wake)`` pair arrays — conceptually one row of per-station
    counters per pattern — allocated by :meth:`batch_create_state` and
    treated as opaque by the engine.  The contract mirrors the scalar
    surface exactly:

    * :meth:`batch_transmit_mask` answers "who transmits at this slot" for
      every pair at once.  It must be *deterministic given the state* — the
      vectorized surface covers policies whose per-state transmit
      probability is 0 or 1 (binary exponential backoff, tree splitting:
      the classical feedback protocols), with the engine burning the slot
      loop's one-uniform-per-transmitter draws to keep streams aligned.
    * :meth:`batch_observe` applies one slot of feedback to every pair at
      once, drawing any randomness through the engine-provided ``draw``
      callable, which consumes each pattern's child stream in exactly the
      slot loop's order.

    Subclasses that override the scalar behaviour (``transmit_probability``,
    ``observe`` or ``create_state``) without overriding the vectorized trio
    would answer batch queries with the *base's* semantics; an
    ``__init_subclass__`` guard (mirroring the deterministic and randomized
    ones) clears :attr:`feedback_vectorized` on such subclasses, so the
    engine falls back to the slot-loop reference path, which is always
    consistent.
    """

    #: Whether the engine may use the vectorized surface for this class.
    #: Cleared automatically on subclasses that override scalar behaviour
    #: but inherit the vectorized methods.
    feedback_vectorized: bool = True

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        overrides_scalar = any(
            name in cls.__dict__
            for name in ("transmit_probability", "observe", "create_state")
        )
        inherits_vectorized = not any(
            name in cls.__dict__
            for name in ("batch_create_state", "batch_transmit_mask", "batch_observe")
        )
        if overrides_scalar and inherits_vectorized and "feedback_vectorized" not in cls.__dict__:
            cls.feedback_vectorized = False

    @abstractmethod
    def batch_create_state(
        self, pair_row: np.ndarray, pair_station: np.ndarray, pair_wake: np.ndarray
    ) -> Any:
        """Allocate vectorized state for the given pairs (at their wake times).

        The arrays are the engine's flattened batch: ``pair_row[i]`` is the
        pattern index of pair ``i``, ``pair_station[i]`` its station ID and
        ``pair_wake[i]`` its wake-up slot; pairs are row-major and, within a
        row, in the pattern's own station order.  Every per-pair entry must
        equal what :meth:`RandomizedPolicy.create_state` produces for a
        freshly woken station.  The returned object is passed back verbatim
        to the other two queries.
        """

    @abstractmethod
    def batch_transmit_mask(self, state: Any, slot: int, awake: np.ndarray) -> np.ndarray:
        """Boolean mask over pairs: who transmits at ``slot``.

        ``awake`` marks the pairs whose station is awake at ``slot`` in a
        still-unresolved pattern; entries outside it are ignored by the
        engine.  The mask must be exactly the pairs whose scalar
        ``transmit_probability`` would return 1.0 (the engine burns one
        uniform per masked pair from the pair's pattern stream, matching the
        slot loop's draw discipline).
        """

    @abstractmethod
    def batch_observe(
        self,
        state: Any,
        slot: int,
        signals: np.ndarray,
        transmitted: np.ndarray,
        awake: np.ndarray,
        draw,
    ) -> None:
        """Apply one slot of feedback to every awake pair at once.

        ``signals`` is an int8 array of per-pair
        :attr:`~repro.channel.feedback.FeedbackSignal.code` values (already
        mapped through the channel's feedback model); ``transmitted`` and
        ``awake`` are boolean masks over pairs.  Only awake pairs may be
        updated — the scalar loop never calls ``observe`` for sleeping
        stations.

        ``draw(pair_indices)`` returns one uniform in ``[0, 1)`` per
        requested pair, drawn from each pair's own pattern stream in
        ascending pair order — exactly where the slot loop's scalar
        ``observe(..., rng=...)`` calls would have drawn them.  Implementations
        must request draws for exactly the pairs whose scalar counterpart
        would draw, in the same order (pass indices ascending).
        """
