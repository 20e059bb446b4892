"""Binary exponential backoff (BEB) — the Ethernet-style baseline.

BEB is the contention-resolution strategy of classical Ethernet: after its
``c``-th collision a station waits a uniformly random number of slots from
``{0, ..., 2^c - 1}`` before transmitting again.  Two modelling notes matter
for a fair comparison with the paper's algorithms:

* BEB is **feedback-driven**: a station must learn that its transmission
  collided.  The paper's channel provides no collision detection, so BEB is
  run under the :class:`~repro.channel.feedback.CollisionDetection` model
  (``requires_collision_detection = True``) and the comparison tables flag it
  as using a strictly stronger channel.
* BEB never terminates by itself; the simulation ends at the first successful
  slot, exactly as for every other protocol (the wake-up problem only asks
  for one success).

The backoff draws come from the *pattern's* generator (the ``rng`` the
simulator passes to :meth:`~BinaryExponentialBackoff.observe`), not from a
policy-owned stream, so each pattern's outcome is a function of its own
``SeedSequence`` child stream alone — the property that lets
:mod:`repro.engine.feedback_batch` resolve whole batches through the
native vectorized surface (:class:`~repro.channel.protocols.FeedbackVectorizedPolicy`)
with bit-for-bit the slot loop's outcomes.  A window draw consumes one
uniform ``u`` and backs off ``floor(u * 2^c)`` slots, which is exactly
uniform over the window (the window is a power of two well below 2^53).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro._util import RngLike, as_generator
from repro.channel.feedback import FeedbackSignal
from repro.channel.protocols import (
    FeedbackVectorizedPolicy,
    RandomizedPolicy,
    StationState,
)

__all__ = ["BinaryExponentialBackoff"]

_COLLISION_CODE = FeedbackSignal.COLLISION.code


class BinaryExponentialBackoff(FeedbackVectorizedPolicy, RandomizedPolicy):
    """Binary exponential backoff over the slotted channel.

    Parameters
    ----------
    n:
        Universe size.
    max_exponent:
        Cap on the backoff exponent (Ethernet uses 10); the contention window
        after ``c`` collisions is ``2^min(c, max_exponent)``.  At most 62 so
        the window and the resulting next-attempt slot stay exactly
        representable in the engine's int64 state arrays (the vectorized and
        scalar paths must agree bit for bit).
    rng:
        Fallback seed for the backoff draws, used only when the caller
        invokes :meth:`observe` without a pattern generator (the simulator
        always passes one, so simulated outcomes never depend on it).
    """

    name = "binary-exponential-backoff"
    requires_collision_detection = True
    # Probabilities depend on observed collisions: the batch engine resolves
    # BEB through the feedback scan (or the slot loop), never a matrix.
    feedback_driven = True

    def __init__(self, n: int, *, max_exponent: int = 10, rng: RngLike = None) -> None:
        super().__init__(n)
        if not 0 <= max_exponent <= 62:
            raise ValueError(f"max_exponent must be in [0, 62], got {max_exponent}")
        self.max_exponent = int(max_exponent)
        self._rng = as_generator(rng)

    # -- scalar surface (the slot-loop reference path) -----------------------

    def create_state(self, station: int, wake_time: int) -> StationState:
        state = super().create_state(station, wake_time)
        state.extra["collisions"] = 0
        # A freshly awake station transmits immediately (backoff 0).
        state.extra["next_attempt"] = wake_time
        return state

    def transmit_probability(self, state: StationState, slot: int) -> float:
        return 1.0 if slot >= state.extra["next_attempt"] else 0.0

    def observe(
        self,
        state: StationState,
        slot: int,
        signal: FeedbackSignal,
        transmitted: bool,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().observe(state, slot, signal, transmitted, rng=rng)
        if transmitted and signal is FeedbackSignal.COLLISION:
            state.extra["collisions"] = min(
                state.extra["collisions"] + 1, self.max_exponent
            )
            window = 2 ** state.extra["collisions"]
            draw = (rng if rng is not None else self._rng).random()
            state.extra["next_attempt"] = slot + 1 + int(draw * window)

    # -- vectorized surface (engine.feedback_batch) --------------------------

    def batch_create_state(
        self, pair_row: np.ndarray, pair_station: np.ndarray, pair_wake: np.ndarray
    ) -> Dict[str, np.ndarray]:
        return {
            "collisions": np.zeros(pair_wake.shape[0], dtype=np.int64),
            "next_attempt": pair_wake.astype(np.int64, copy=True),
        }

    def batch_transmit_mask(self, state: Any, slot: int, awake: np.ndarray) -> np.ndarray:
        return awake & (slot >= state["next_attempt"])

    def batch_observe(
        self,
        state: Any,
        slot: int,
        signals: np.ndarray,
        transmitted: np.ndarray,
        awake: np.ndarray,
        draw,
    ) -> None:
        backing_off = np.flatnonzero(transmitted & (signals == _COLLISION_CODE))
        if backing_off.size == 0:
            return
        collisions = np.minimum(state["collisions"][backing_off] + 1, self.max_exponent)
        state["collisions"][backing_off] = collisions
        window = np.int64(1) << collisions
        # floor(u * 2^c) — elementwise identical to the scalar observe.
        backoff = (draw(backing_off) * window).astype(np.int64)
        state["next_attempt"][backing_off] = slot + 1 + backoff

    def describe(self) -> str:
        return f"{self.name}(n={self.n}, max_exponent={self.max_exponent})"
