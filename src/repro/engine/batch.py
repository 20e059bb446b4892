"""Vectorized batch execution: one chunked scan resolving B patterns.

The per-pattern engines in :mod:`repro.channel.simulator` resolve one wake-up
pattern per call; every empirical estimate in the library is a maximum (or
mean) over *many* patterns, so the per-call Python overhead — one
:func:`numpy.add.at` per awake station per chunk for deterministic protocols,
one ``transmit_probability`` call per awake station per *slot* for randomized
policies — dominates at scale.  :func:`run_batch`, the engine's one entry
point, resolves a whole batch against either protocol kind:

1. the batch is cut into fixed blocks of :data:`SCAN_BLOCK_ROWS` patterns, and
   every ``(pattern, station, wake_time)`` triple of a block is flattened into
   aligned *pair* arrays;
2. per chunk of the shared absolute timeline, one vectorized query yields the
   transmit events of all pairs at once —
   :meth:`~repro.channel.protocols.DeterministicProtocol.batch_transmit_slots`
   for deterministic protocols, or a Bernoulli sample over
   :meth:`~repro.channel.protocols.RandomizedPolicy.transmit_probability_matrix`
   (one draw block per pattern from its own child generator) for randomized
   policies;
3. transmitter counts are accumulated into a 2-D ``(rows × slots)`` array with
   a single :func:`numpy.bincount`, and each row's first count-1 slot (its
   first success) is extracted vectorized;
4. resolved rows drop out of subsequent chunks, so the scan cost tracks the
   *unsolved* rows only.

Feedback-driven policies take the slot-synchronous scan of
:mod:`repro.engine.feedback_batch` instead (or the slot loop, if they lack
its vectorized surface).

The results are identical — same ``solved``/``success_slot``/``winner``/
``latency`` per pattern — to running the per-pattern engine pattern by
pattern.  For deterministic protocols this is structural; for randomized
policies it holds *bit for bit* given the same per-pattern child generators,
because a scan consumes each pattern's stream in exactly the slot-loop's
order: slots ascending, stations in pattern order within a slot, one uniform
draw per awake station with positive probability.  The property suite in
``tests/properties`` asserts both equivalences slot for slot; only the
diagnostic ``slots_examined`` of a deterministic batch differs, because rows
of one block share chunk boundaries.

Example
-------
>>> from repro.core.round_robin import RoundRobin
>>> from repro.channel.wakeup import WakeupPattern
>>> from repro.engine import run_batch
>>> patterns = [WakeupPattern(16, {5: 0, 9: 3}), WakeupPattern(16, {2: 1, 3: 1})]
>>> result = run_batch(RoundRobin(16), patterns)
>>> bool(result.solved.all()), result.latency.tolist()
(True, [4, 0])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro._util import MAX_CELLS_PER_CHUNK, RngLike, spawn_generators
from repro.channel.protocols import (
    DeterministicProtocol,
    FeedbackVectorizedPolicy,
    RandomizedPolicy,
)
from repro.channel.simulator import DEFAULT_MAX_SLOTS, WakeupResult, run_randomized
from repro.channel.wakeup import WakeupPattern
from repro.engine.feedback_batch import _feedback_scan

__all__ = [
    "BatchResult",
    "run_batch",
    "SCAN_BLOCK_ROWS",
    "DEFAULT_BATCH_CHUNK",
    "DEFAULT_RANDOMIZED_CHUNK",
]

#: Patterns resolved together by one scan.  Fixed, not an option: a
#: deterministic row's ``slots_examined`` is the window its block co-scanned
#: (the chunk length is capped by the block's active rows), and every stored
#: sweep record holds that column, so changing the block changes stored bytes.
SCAN_BLOCK_ROWS = 256

#: Initial chunk length of the shared batch scan.  Smaller than the
#: per-pattern engine's default because the per-chunk fixed cost is amortized
#: over all B rows, while every extra slot costs work proportional to the
#: number of *unsolved* rows — and most batches resolve within tens of slots.
DEFAULT_BATCH_CHUNK = 128

#: Initial chunk length of the randomized scan.  Expected randomized
#: latencies are O(log n) (the whole point of Section 6), so a short first
#: chunk avoids sampling Bernoulli matrices far past the typical success
#: slot; pathological batches still grow geometrically.  Chunk layout never
#: affects outcomes — only wasted work.
DEFAULT_RANDOMIZED_CHUNK = 16

#: Cap on the geometric chunk growth, matching the per-pattern engine.
_MAX_CHUNK = 1 << 20


@dataclass(frozen=True)
class BatchResult:
    """Column-oriented outcome of one batched simulation.

    Every attribute is an array of length B (the number of patterns), aligned
    with the input order.  Unsolved rows carry ``-1`` in ``success_slot``,
    ``winner`` and ``latency``.

    Attributes
    ----------
    protocol:
        Name of the protocol that produced the batch.
    n:
        Universe size shared by all patterns.
    solved:
        Boolean column: did the row find a successful slot within its horizon?
    k, first_wake:
        Per-row pattern characteristics.
    success_slot, winner, latency:
        Per-row outcome columns (``-1`` where unsolved).
    slots_examined:
        Per-row count of slots the engine examined.  For deterministic
        batches this is the window the row's scan block co-scanned
        (diagnostic; block- and chunk-layout dependent, unlike the outcome
        columns); for randomized batches it
        matches the slot-loop engine exactly (``latency + 1`` when solved,
        the full horizon otherwise).
    """

    protocol: str
    n: int
    solved: np.ndarray
    k: np.ndarray
    first_wake: np.ndarray
    success_slot: np.ndarray
    winner: np.ndarray
    latency: np.ndarray
    slots_examined: np.ndarray

    # -- container behaviour -------------------------------------------------

    def __len__(self) -> int:
        return int(self.solved.shape[0])

    def __iter__(self) -> Iterator[WakeupResult]:
        return (self[i] for i in range(len(self)))

    def __getitem__(self, index: int) -> WakeupResult:
        """Materialize row ``index`` as a scalar :class:`WakeupResult`."""
        index = int(index)
        if not -len(self) <= index < len(self):
            raise IndexError(f"row {index} out of range for batch of {len(self)}")
        index %= len(self)
        solved = bool(self.solved[index])
        return WakeupResult(
            solved=solved,
            n=self.n,
            k=int(self.k[index]),
            first_wake=int(self.first_wake[index]),
            success_slot=int(self.success_slot[index]) if solved else None,
            winner=int(self.winner[index]) if solved else None,
            latency=int(self.latency[index]) if solved else None,
            slots_examined=int(self.slots_examined[index]),
            protocol=self.protocol,
        )

    # -- summary statistics --------------------------------------------------

    @property
    def solved_count(self) -> int:
        """Number of rows that solved wake-up within the horizon."""
        return int(np.count_nonzero(self.solved))

    @property
    def solved_fraction(self) -> float:
        """Fraction of rows solved (1.0 for an empty batch)."""
        return 1.0 if len(self) == 0 else self.solved_count / len(self)

    def require_all_solved(self) -> np.ndarray:
        """Return the latency column, raising if any row is unsolved."""
        if not bool(self.solved.all()):
            unsolved = int(np.count_nonzero(~self.solved))
            raise RuntimeError(
                f"protocol {self.protocol!r} did not solve wake-up within the "
                f"horizon on {unsolved} of {len(self)} patterns"
            )
        return self.latency

    def max_latency(self) -> int:
        """Largest latency among solved rows (the worst-case estimate)."""
        return int(self.require_all_solved().max())

    def mean_latency(self) -> float:
        """Mean latency over all rows (requires every row solved)."""
        return float(self.require_all_solved().mean())

    def summary(self) -> Dict[str, float]:
        """Summary statistics over the solved rows (empty dict if none)."""
        if self.solved_count == 0:
            return {"patterns": float(len(self)), "solved": 0.0}
        lat = self.latency[self.solved]
        return {
            "patterns": float(len(self)),
            "solved": float(self.solved_count),
            "min_latency": float(lat.min()),
            "mean_latency": float(lat.mean()),
            "median_latency": float(np.median(lat)),
            "max_latency": float(lat.max()),
        }

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, protocol) -> "BatchResult":
        """Zero-row result for any protocol kind (``.describe()`` and ``.n``)."""
        none = np.empty(0, dtype=np.int64)
        return cls(protocol.describe(), protocol.n, np.empty(0, dtype=bool), *[none] * 6)

    @classmethod
    def concat(cls, results: Sequence["BatchResult"]) -> "BatchResult":
        """Concatenate block results (in order) into one batch result."""
        if not results:
            raise ValueError("cannot concatenate an empty sequence of BatchResults")
        first = results[0]
        for other in results[1:]:
            if other.protocol != first.protocol or other.n != first.n:
                raise ValueError(
                    "cannot concatenate results from different protocols/universes: "
                    f"{first.protocol!r} (n={first.n}) vs {other.protocol!r} (n={other.n})"
                )
        return cls(
            protocol=first.protocol,
            n=first.n,
            solved=np.concatenate([r.solved for r in results]),
            k=np.concatenate([r.k for r in results]),
            first_wake=np.concatenate([r.first_wake for r in results]),
            success_slot=np.concatenate([r.success_slot for r in results]),
            winner=np.concatenate([r.winner for r in results]),
            latency=np.concatenate([r.latency for r in results]),
            slots_examined=np.concatenate([r.slots_examined for r in results]),
        )


# ---------------------------------------------------------------------------
# The shared chunked scan
# ---------------------------------------------------------------------------


class _ScanScratch:
    """Reusable per-chunk buffers for one scan invocation.

    The scan's per-chunk masks and index buffers have batch-constant shapes
    (B rows, P pairs) or monotone-bounded ones (the singles mask), so one
    allocation per batch serves every chunk.  ``reused_bytes`` tallies the
    allocations avoided from the second chunk on, reported once per scan as
    the ``engine.scratch_bytes_reused`` gauge.
    """

    def __init__(self, n_rows: int, n_pairs: int) -> None:
        self.row_pos = np.empty(n_rows, dtype=np.int64)
        self.success_col = np.empty(n_rows, dtype=np.int64)
        self.done = np.empty(n_pairs, dtype=bool)
        self.live = np.empty(n_pairs, dtype=bool)
        self.tmp = np.empty(n_pairs, dtype=bool)
        self._singles = np.empty(0, dtype=bool)
        self._fixed_bytes = (
            self.row_pos.nbytes
            + self.success_col.nbytes
            + self.done.nbytes
            + self.live.nbytes
            + self.tmp.nbytes
        )
        self.chunks = 0
        self.reused_bytes = 0

    def singles(self, rows: int, cols: int) -> np.ndarray:
        """A ``(rows, cols)`` bool view over the growable singles buffer."""
        needed = rows * cols
        if self._singles.size < needed:
            self._singles = np.empty(needed, dtype=bool)
        return self._singles[:needed].reshape(rows, cols)

    def mark_chunk(self) -> None:
        self.chunks += 1
        if self.chunks > 1:
            self.reused_bytes += self._fixed_bytes + self._singles.nbytes


@dataclass(frozen=True)
class _Rows:
    """One block of patterns, flattened into the arrays every scan consumes.

    ``pair_row``/``pair_station``/``pair_wake`` hold one entry per
    ``(pattern, station, wake_time)`` triple, row-major and, within a row, in
    the pattern's own station order — the order the slot-loop engine iterates
    stations in, which the randomized draw discipline relies on.  ``k``,
    ``first_wake`` and ``horizon`` are per-row columns; ``generators`` holds
    each row's stream for randomized policies (deterministic scans ignore
    it).
    """

    patterns: List[WakeupPattern]
    generators: Optional[List[np.random.Generator]]
    max_slots: int
    pair_row: np.ndarray
    pair_station: np.ndarray
    pair_wake: np.ndarray
    k: np.ndarray
    first_wake: np.ndarray
    horizon: np.ndarray

    def result(
        self,
        protocol,
        solved: np.ndarray,
        success_slot: np.ndarray,
        winner: np.ndarray,
        latency: np.ndarray,
        slots_examined: Optional[np.ndarray] = None,
    ) -> "BatchResult":
        """Assemble a scan's outcome columns into this block's result.

        ``slots_examined`` defaults to the slot loop's accounting — a solved
        run examines ``latency + 1`` slots, an unsolved run the full horizon —
        which the randomized scans match exactly.
        """
        if slots_examined is None:
            slots_examined = np.where(solved, latency + 1, np.int64(self.max_slots))
        return BatchResult(
            protocol=protocol.describe(),
            n=protocol.n,
            solved=solved,
            k=self.k,
            first_wake=self.first_wake,
            success_slot=success_slot,
            winner=winner,
            latency=latency,
            slots_examined=slots_examined,
        )


def _flatten_patterns(
    patterns: List[WakeupPattern],
    max_slots: int = DEFAULT_MAX_SLOTS,
    generators: Optional[List[np.random.Generator]] = None,
) -> _Rows:
    """Flatten a (non-empty) block of patterns for the scans."""
    B = len(patterns)
    k = np.fromiter((p.k for p in patterns), dtype=np.int64, count=B)
    first_wake = np.fromiter((p.first_wake for p in patterns), dtype=np.int64, count=B)
    return _Rows(
        patterns=patterns,
        generators=generators,
        max_slots=int(max_slots),
        pair_row=np.repeat(np.arange(B, dtype=np.int64), k),
        pair_station=np.concatenate(
            [np.fromiter(p.wake_times.keys(), np.int64, p.k) for p in patterns]
        ),
        pair_wake=np.concatenate(
            [np.fromiter(p.wake_times.values(), np.int64, p.k) for p in patterns]
        ),
        k=k,
        first_wake=first_wake,
        horizon=first_wake + int(max_slots),
    )


def _chunked_first_success_scan(
    rows: _Rows,
    emit: Callable[[np.ndarray, int, int], Tuple[np.ndarray, np.ndarray]],
    *,
    chunk: int,
    cost_per_pair: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resolve every row's first singleton-transmitter slot in one shared scan.

    ``emit(live_pairs, chunk_start, chunk_stop)`` produces the transmit events
    of the given pairs within the chunk as two aligned int64 arrays
    ``(pair_index, slots)`` — ``pair_index`` into the block's pair arrays —
    with each (pair, slot) combination appearing at most once.  Everything
    else (2-D transmit counts, per-row first-success extraction, winner
    recovery, horizon bookkeeping, chunk growth) is shared by the
    deterministic and randomized scans.

    ``cost_per_pair`` switches the chunk-length cap from rows × slots to
    pairs × slots — the randomized scan materializes a dense probability
    matrix over live pairs, so its working set scales with pairs.

    Returns ``(solved, success_slot, winner, latency, slots_examined)``
    columns; ``slots_examined`` accounts the scanned window per row (the
    deterministic diagnostic — the randomized scan discards it).
    """
    pair_row, pair_station, pair_wake = rows.pair_row, rows.pair_station, rows.pair_wake
    first_wake, horizon = rows.first_wake, rows.horizon
    B = int(first_wake.shape[0])
    solved = np.zeros(B, dtype=bool)
    success_slot = np.full(B, -1, dtype=np.int64)
    winner = np.full(B, -1, dtype=np.int64)
    latency = np.full(B, -1, dtype=np.int64)
    slots_examined = np.zeros(B, dtype=np.int64)
    row_done = np.zeros(B, dtype=bool)

    scratch = _ScanScratch(B, int(pair_row.shape[0]))
    pair_horizon = horizon[pair_row]

    chunk_start = int(first_wake.min())
    chunk_len = max(16, int(chunk))
    chunk_index = 0

    while not row_done.all():
        active_rows = np.flatnonzero(~row_done)
        scan_stop = int(horizon[active_rows].max())
        if chunk_start >= scan_stop:
            break
        A = active_rows.shape[0]
        scratch.mark_chunk()
        pair_done = np.take(row_done, pair_row, out=scratch.done)
        # Keep the per-chunk working set bounded regardless of batch size.
        if cost_per_pair:
            weight = max(1, pair_done.size - int(np.count_nonzero(pair_done)))
        else:
            weight = A
        length = min(chunk_len, max(16, MAX_CELLS_PER_CHUNK // weight))
        chunk_stop = min(scan_stop, chunk_start + length)
        length = chunk_stop - chunk_start

        with obs.span("engine.chunk_scan", chunk=chunk_index, slots=length, rows=A):
            row_pos = scratch.row_pos
            row_pos.fill(-1)
            row_pos[active_rows] = np.arange(A, dtype=np.int64)

            # live = (~done) & (wake < stop) & (horizon > start), in scratch.
            live = np.less(pair_wake, chunk_stop, out=scratch.live)
            live &= np.greater(pair_horizon, chunk_start, out=scratch.tmp)
            live &= np.logical_not(pair_done, out=scratch.tmp)
            live_pairs = np.flatnonzero(live)
            if live_pairs.size:
                entry_global, entry_slot = emit(live_pairs, chunk_start, chunk_stop)
                entry_pos = row_pos[pair_row[entry_global]]
                keys = entry_pos * length + (entry_slot - chunk_start)
                counts = np.bincount(keys, minlength=A * length).reshape(A, length)
                # A slot only counts for a row inside the row's own horizon
                # window.  Horizon-valid columns form a per-row prefix, so it
                # suffices to find the first singleton column and check it
                # against the prefix length — no 2-D validity mask needed.
                singles = np.equal(counts, 1, out=scratch.singles(A, length))
                first_col = np.argmax(singles, axis=1)
                prefix = horizon[active_rows] - chunk_start
                has_success = singles[np.arange(A), first_col] & (first_col < prefix)
            else:
                entry_global = np.empty(0, dtype=np.int64)
                entry_slot = np.empty(0, dtype=np.int64)
                entry_pos = np.empty(0, dtype=np.int64)
                # No transmit events: argmax over all-zero counts selects
                # column 0 everywhere and no row can have a success.
                first_col = np.zeros(A, dtype=np.int64)
                has_success = np.zeros(A, dtype=bool)

            if has_success.any():
                won_pos = np.flatnonzero(has_success)
                won_rows = active_rows[won_pos]
                won_slots = chunk_start + first_col[won_pos]
                solved[won_rows] = True
                success_slot[won_rows] = won_slots
                latency[won_rows] = won_slots - first_wake[won_rows]
                # The unique transmitter of each winning slot is recovered from the
                # chunk's own (pair, slot) entries: counts said "exactly one", so
                # exactly one entry matches per newly solved row.
                success_col = scratch.success_col[:A]
                success_col.fill(-1)
                success_col[won_pos] = first_col[won_pos]
                match = entry_slot - chunk_start == success_col[entry_pos]
                matched = np.flatnonzero(match)
                if matched.size != won_pos.size:
                    raise RuntimeError(
                        "internal inconsistency: 2-D transmit counts found singleton "
                        f"slots for {won_pos.size} rows but {matched.size} transmitter "
                        "entries matched them"
                    )
                winner[pair_row[entry_global[matched]]] = pair_station[entry_global[matched]]
                row_done[won_rows] = True

            # Account the scanned window per still-active row (diagnostic).
            windows = np.minimum(chunk_stop, horizon[active_rows]) - np.maximum(
                chunk_start, first_wake[active_rows]
            )
            slots_examined[active_rows] += np.maximum(windows, 0)

        obs.add("engine.chunks")
        obs.add("engine.slots_scanned", int(np.maximum(windows, 0).sum()))
        chunk_index += 1

        # Rows whose horizon is fully scanned are finished (unsolved).
        row_done[np.flatnonzero(~solved & (horizon <= chunk_stop))] = True

        chunk_start = chunk_stop
        chunk_len = min(chunk_len * 2, _MAX_CHUNK)

    obs.add("engine.patterns", B)
    obs.add("engine.patterns_solved", int(np.count_nonzero(solved)))
    obs.gauge("engine.scratch_bytes_reused", scratch.reused_bytes)
    return solved, success_slot, winner, latency, slots_examined


# ---------------------------------------------------------------------------
# Per-kind scans over one flattened block
# ---------------------------------------------------------------------------


def _deterministic_scan(
    protocol: DeterministicProtocol, rows: _Rows, *, chunk: int = DEFAULT_BATCH_CHUNK
) -> BatchResult:
    """Resolve one block against a deterministic protocol.

    ``chunk`` is the scan's initial chunk length (chunks double as the scan
    advances); it changes only the diagnostic ``slots_examined``.
    """
    pair_station, pair_wake = rows.pair_station, rows.pair_wake

    def emit(live_pairs: np.ndarray, chunk_start: int, chunk_stop: int):
        entry_pair, entry_slot = protocol.batch_transmit_slots(
            pair_station[live_pairs], pair_wake[live_pairs], chunk_start, chunk_stop
        )
        return live_pairs[entry_pair], entry_slot

    return rows.result(protocol, *_chunked_first_success_scan(rows, emit, chunk=chunk))


def _randomized_scan(
    policy: RandomizedPolicy, rows: _Rows, *, chunk: int = DEFAULT_RANDOMIZED_CHUNK
) -> BatchResult:
    """Resolve one block against an oblivious randomized policy.

    The same chunked scan as the deterministic kind, fed by Bernoulli samples
    over :meth:`~repro.channel.protocols.RandomizedPolicy.transmit_probability_matrix`,
    each row drawing from its own generator in the slot loop's order, so the
    outcome columns (``slots_examined`` included) do not depend on ``chunk``.
    """
    B = len(rows.patterns)
    pair_row, pair_station, pair_wake = rows.pair_row, rows.pair_station, rows.pair_wake
    horizon, generators = rows.horizon, rows.generators

    def emit(live_pairs: np.ndarray, chunk_start: int, chunk_stop: int):
        slots = np.arange(chunk_start, chunk_stop, dtype=np.int64)
        live_wake = pair_wake[live_pairs]
        probabilities = np.asarray(
            policy.transmit_probability_matrix(
                pair_station[live_pairs], live_wake, chunk_start, chunk_stop
            ),
            dtype=np.float64,
        )
        if probabilities.shape != (live_pairs.size, slots.size):
            raise ValueError(
                f"{policy.describe()} returned a probability matrix of shape "
                f"{probabilities.shape}, expected {(live_pairs.size, slots.size)}"
            )
        p_min = float(probabilities.min()) if probabilities.size else 0.0
        p_max = float(probabilities.max()) if probabilities.size else 0.0
        if p_min < 0.0 or p_max > 1.0:
            raise ValueError(
                f"{policy.describe()} returned probabilities outside [0, 1]"
            )
        rows_of_live = pair_row[live_pairs]

        # Fast path: when every live pair is awake for the whole chunk, no
        # row's horizon intersects it, every probability is positive, and
        # rows contribute equal pair counts (the shape of every simultaneous
        # or fully-woken batch), each row's draw block is one contiguous
        # ``gen.random`` fill in (slot, station) row-major order — no cell
        # enumeration, no regrouping.
        L = slots.size
        counts_live = np.bincount(rows_of_live, minlength=B)
        live_row_ids = np.flatnonzero(counts_live)
        k0 = live_pairs.size // live_row_ids.size
        if (
            p_min > 0.0
            and live_pairs.size == k0 * live_row_ids.size
            and int(counts_live[live_row_ids].max()) == k0
            and int(live_wake.max()) <= chunk_start
            and int(horizon[live_row_ids].min()) >= chunk_stop
        ):
            draws = np.empty((live_row_ids.size, L * k0), dtype=np.float64)
            for r, row in enumerate(live_row_ids):
                generators[int(row)].random(out=draws[r])
            # (row, slot, station) layout on both sides of the Bernoulli compare.
            row_probabilities = probabilities.reshape(-1, k0, L).transpose(0, 2, 1)
            hits = draws.reshape(-1, L, k0) < row_probabilities
            row_idx, slot_idx, j_idx = np.nonzero(hits)
            return (
                live_pairs[row_idx * k0 + j_idx],
                chunk_start + slot_idx,
            )
        # A cell consumes one uniform draw exactly when the slot-loop engine
        # would: the station is awake, the slot is inside the row's horizon,
        # and the probability is positive.  Built directly in (slot × pair)
        # layout so that C-order enumeration yields cells in (slot,
        # pair-position) order — within any one row exactly the slot loop's
        # draw order (slots ascending, stations in pattern order).
        drawable = (
            (slots[:, None] >= live_wake[None, :])
            & (slots[:, None] < horizon[rows_of_live][None, :])
            & (probabilities.T > 0.0)
        )
        empty = np.empty(0, dtype=np.int64)
        cell_flat = np.flatnonzero(drawable)
        if cell_flat.size == 0:
            return empty, empty
        m = live_pairs.size
        cell_pos = cell_flat % m
        cell_slot = cell_flat // m
        cell_row = rows_of_live[cell_pos]
        # Group the cells by row without disturbing their in-row order, then
        # fill each row's group from its own generator in one block draw —
        # the uniforms land exactly where the slot loop would have drawn them.
        order = np.argsort(cell_row, kind="stable")
        draws_per_row = np.bincount(cell_row, minlength=B)
        grouped = np.empty(cell_flat.size, dtype=np.float64)
        offset = 0
        for row in np.flatnonzero(draws_per_row):
            count = int(draws_per_row[row])
            generators[row].random(out=grouped[offset : offset + count])
            offset += count
        draws = np.empty_like(grouped)
        draws[order] = grouped
        hits = draws < probabilities[cell_pos, cell_slot]
        if not hits.any():
            return empty, empty
        return live_pairs[cell_pos[hits]], chunk_start + cell_slot[hits]

    solved, success_slot, winner, latency, _ = _chunked_first_success_scan(
        rows, emit, chunk=chunk, cost_per_pair=True
    )
    return rows.result(policy, solved, success_slot, winner, latency)


def _slot_loop_scan(policy: RandomizedPolicy, rows: _Rows) -> BatchResult:
    """Resolve one block through the slot-loop reference engine, row by row.

    The fallback for feedback-driven policies without the vectorized
    feedback surface: their probabilities react to channel signals, so slots
    cannot be sampled ahead of the outcomes they depend on.
    """
    results = [
        run_randomized(policy, pattern, rng=gen, max_slots=rows.max_slots)
        for pattern, gen in zip(rows.patterns, rows.generators)
    ]
    solved = np.array([r.solved for r in results], dtype=bool)
    latency = np.array([r.latency if r.solved else -1 for r in results], dtype=np.int64)
    winner = np.array([r.winner if r.solved else -1 for r in results], dtype=np.int64)
    success_slot = np.where(solved, rows.first_wake + latency, -1)
    return rows.result(policy, solved, success_slot, winner, latency)


# ---------------------------------------------------------------------------
# The entry point
# ---------------------------------------------------------------------------


def run_batch(
    protocol: Union[DeterministicProtocol, RandomizedPolicy],
    patterns: Sequence[WakeupPattern],
    *,
    rngs: Optional[Sequence[np.random.Generator]] = None,
    seed: RngLike = None,
    max_slots: int = DEFAULT_MAX_SLOTS,
) -> BatchResult:
    """Resolve B wake-up patterns against one protocol of any kind.

    The engine's one entry point.  It checks the protocol kind and the
    universe size, spawns the per-pattern streams of randomized policies,
    cuts the batch into blocks of :data:`SCAN_BLOCK_ROWS` patterns, resolves
    each block with the scan for the protocol's kind — the chunked scan for
    deterministic protocols and oblivious randomized policies, the
    slot-synchronous scan of :mod:`repro.engine.feedback_batch` for
    feedback-driven policies with the vectorized feedback surface, the slot
    loop for any other feedback-driven policy — and returns the blocks'
    columns in input order.

    Parameters
    ----------
    protocol:
        A :class:`~repro.channel.protocols.DeterministicProtocol` or a
        :class:`~repro.channel.protocols.RandomizedPolicy` over the same
        universe size as every pattern.
    patterns:
        The batch; rows of the result align with this order.
    rngs, seed:
        Per-pattern streams of a randomized policy: either ``rngs`` (one
        generator per pattern, consumed in order) or ``seed``, from which one
        child generator per pattern is spawned under the ``"campaign"`` key
        before the batch is cut, so pattern ``i``'s outcome depends on
        neither the batch size nor the block layout.  Passing both is an
        error, and so is passing either for a deterministic protocol (it
        consumes no randomness, so the streams would be silently dropped).
    max_slots:
        Per-row horizon, measured from each row's own first wake-up (the same
        convention as the per-pattern engines).

    Returns
    -------
    BatchResult
        Outcome columns identical to running
        :func:`~repro.channel.simulator.run_deterministic` or
        :func:`~repro.channel.simulator.run_randomized` per pattern (with the
        same generators); for randomized policies ``slots_examined`` matches
        too.
    """
    if isinstance(protocol, DeterministicProtocol):
        if rngs is not None or seed is not None:
            raise ValueError(
                f"{type(protocol).__name__} is deterministic: it consumes no "
                "randomness, so rngs/seed must not be passed"
            )
        scan = _deterministic_scan
    elif isinstance(protocol, RandomizedPolicy):
        if rngs is not None and seed is not None:
            raise ValueError(
                "pass either rngs or seed, not both: rngs already fixes every "
                "pattern's stream, so seed would be silently dropped"
            )
        if not protocol.feedback_driven:
            scan = _randomized_scan
        elif (
            isinstance(protocol, FeedbackVectorizedPolicy)
            and protocol.feedback_vectorized
        ):
            scan = _feedback_scan
        else:
            scan = _slot_loop_scan
    else:
        raise TypeError(
            "expected a DeterministicProtocol or RandomizedPolicy, got "
            f"{type(protocol).__name__}"
        )
    patterns = list(patterns)
    for pattern in patterns:
        if pattern.n != protocol.n:
            raise ValueError(
                f"protocol universe n={protocol.n} does not match pattern n={pattern.n}"
            )
    if not patterns:
        return BatchResult.empty(protocol)
    if isinstance(protocol, RandomizedPolicy) and rngs is None:
        rngs = spawn_generators(seed, len(patterns), "campaign")
    streams = [None] * len(patterns) if rngs is None else list(rngs)
    if len(streams) != len(patterns):
        raise ValueError(
            f"rngs must provide one generator per pattern: got {len(streams)} "
            f"for {len(patterns)} patterns"
        )
    blocks = []
    for start in range(0, len(patterns), SCAN_BLOCK_ROWS):
        stop = start + SCAN_BLOCK_ROWS
        rows = _flatten_patterns(patterns[start:stop], max_slots, streams[start:stop])
        blocks.append(scan(protocol, rows))
    return blocks[0] if len(blocks) == 1 else BatchResult.concat(blocks)
