"""Process-parallel sweep execution: shard config grids across workers.

The batch engine (:mod:`repro.engine`) made a *single* config fast; this
module makes a *grid* of configs fast.  A :class:`SweepRunner` partitions the
pending configs of a :class:`~repro.sweeps.spec.SweepSpec` across
:class:`concurrent.futures.ProcessPoolExecutor` workers — the library's one
level of parallelism; separate processes sidestep the GIL for the
Python-side share of pattern generation and protocol construction, and
isolate per-config memory — and merges the finished
:class:`~repro.sweeps.store.ConfigRecord` rows back in grid order.

Worker-count invariance
-----------------------

Sweep results are bit-for-bit identical no matter how the grid is sharded
(serial, 4 workers, resumed across sessions), because every config is
resolved from its own content alone:

* patterns come from ``WorkloadSuite.generate(workload, n, k, batch, seed)``,
  whose per-row generators are ``SeedSequence``-spawned from the config seed
  keyed by the workload name (see :mod:`repro._util`);
* randomized policies draw from per-pattern child streams that
  :func:`~repro.engine.run_batch` spawns from the config seed inside the
  worker, before it cuts the batch into scan blocks;
* protocol construction is deterministic in ``(name, n, k, seed)``
  (:mod:`repro.sweeps.protocols`).

No shared mutable stream crosses configs, so scheduling order cannot leak
into outcomes.  ``tests/sweeps`` asserts the invariance explicitly.

Resumability
------------

With a :class:`~repro.sweeps.store.SweepStore` attached, every record is
persisted the moment its config completes and already-stored configs are
never recomputed, so an interrupted ``repro sweep run`` picks up where it
left off and overlapping sweeps share work across sessions.

One portability caveat: workers resolve workload and protocol *names*
against their own process's registries.  Extensions registered in-process
(``register_workload`` / ``register_protocol``) are visible to forked
workers (Linux) but not to spawned ones (macOS/Windows default start
method) — ship cross-platform extensions as ``repro.workloads`` entry
points, which every worker loads on import, or run with ``workers <= 1``.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TypeVar, Union

from repro import obs
from repro.engine import BatchResult, Campaign
from repro.sweeps.spec import SweepConfig, SweepSpec
from repro.sweeps.store import ConfigRecord, SweepStore

__all__ = ["SweepRunner", "SweepResult", "SweepStatus", "resolve_config", "map_jobs"]

_Job = TypeVar("_Job")
_Out = TypeVar("_Out")


def resolve_config(config: SweepConfig) -> ConfigRecord:
    """Resolve one config end to end; the unit of work a sweep worker runs.

    Builds the protocol from the config's name axes, draws the pattern batch
    through the workload suite, resolves it with one engine call
    (:class:`~repro.engine.Campaign`, i.e. :func:`~repro.engine.run_batch`;
    parallelism lives at the config level), and returns the full-outcome
    :class:`~repro.sweeps.store.ConfigRecord`.
    """
    from repro.sweeps.protocols import build_protocol
    from repro.workloads import WorkloadSuite

    protocol = build_protocol(
        config.protocol,
        config.n,
        config.k,
        seed=config.seed,
        **dict(config.protocol_params),
    )
    patterns = WorkloadSuite().generate(
        config.workload,
        n=config.n,
        k=config.k,
        batch=config.batch,
        seed=config.seed,
        **dict(config.params),
    )
    campaign = Campaign(protocol, max_slots=config.max_slots, seed=config.seed)
    return ConfigRecord.from_batch(config, campaign.run(patterns))


class _InstrumentedJob:
    """Picklable wrapper running one job under :func:`repro.obs.capture`.

    Workers (or the serial path, for uniformity) collect the job's counters,
    gauges and span timings into a fresh in-memory state and ship the
    snapshot back with the result; the parent folds snapshots into its own
    session with :func:`repro.obs.merge_snapshot`.  Because the aggregates
    are additive and the capture state has no sink, trace files see no
    interleaved worker writes and counter totals are worker-count invariant.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[_Job], _Out]) -> None:
        self.fn = fn

    def __getstate__(self):
        return self.fn

    def __setstate__(self, fn) -> None:
        self.fn = fn

    def __call__(self, job: _Job):
        t0 = time.perf_counter()
        with obs.capture() as state:
            result = self.fn(job)
            obs.gauge("sweeps.job_seconds", time.perf_counter() - t0)
            snap = state.snapshot()
        return result, snap


def map_jobs(
    fn: Callable[[_Job], _Out],
    jobs: Sequence[_Job],
    *,
    workers: int = 0,
    on_result: Optional[Callable[[int, _Out], None]] = None,
) -> List[_Out]:
    """Map a picklable function over jobs, serially or across processes.

    The process-sharding primitive shared by :class:`SweepRunner`, the
    worst-case grid driver (:mod:`repro.sweeps.search`) and the experiment
    registry's sweeps.  ``workers <= 1`` (or a single job) runs serially in
    the calling process; results always come back in job order, and callers
    must guarantee ``fn`` is order-independent (pure in its job) so the two
    paths agree bit for bit.

    ``on_result(index, result)`` fires as each job finishes (completion
    order) — the hook the sweep store uses to persist records incrementally.

    When an observability session is active (:func:`repro.obs.enabled`), each
    job runs under a capture (see :class:`_InstrumentedJob`) and its snapshot
    is merged back here, on both the serial and the process path, so counter
    totals do not depend on ``workers``.  One ``job`` trace event is emitted
    per job with its duration and per-job aggregates.
    """
    jobs = list(jobs)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    instrumented = obs.enabled()
    run: Callable = _InstrumentedJob(fn) if instrumented else fn

    def _deliver(index: int, raw) -> _Out:
        if instrumented:
            result, snap = raw
            obs.merge_snapshot(snap)
            obs.event(
                "job",
                index=index,
                counters=snap["counters"],
                gauges=snap["gauges"],
            )
        else:
            result = raw
        if on_result is not None:
            on_result(index, result)
        return result

    if workers <= 1 or len(jobs) <= 1:
        return [_deliver(index, run(job)) for index, job in enumerate(jobs)]
    out: Dict[int, _Out] = {}
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        pending = {pool.submit(run, job): index for index, job in enumerate(jobs)}
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                index = pending.pop(future)
                out[index] = _deliver(index, future.result())
    return [out[index] for index in range(len(jobs))]


@dataclass
class _ProgressMeter:
    """Format one progress line per resolved config.

    Lines keep the historical ``resolved <...>`` prefix and add live
    counts from the run's :class:`SweepStatus` view plus throughput and an
    ETA over the *fresh* configs (store-reused records complete instantly
    and would skew a naive rate).  Counts are exact at any worker count —
    they advance one per delivered record in the parent process; only the
    rate/ETA figures are wall-clock estimates.
    """

    total: int
    completed: int
    emit: Callable[[str], None]
    _t0: float = field(default_factory=time.perf_counter)
    _fresh: int = 0

    def step(self, label: str) -> None:
        self.completed += 1
        self._fresh += 1
        elapsed = time.perf_counter() - self._t0
        rate = self._fresh / elapsed if elapsed > 0 else 0.0
        status = SweepStatus(total=self.total, completed=self.completed)
        line = f"resolved {label} [{status.completed}/{status.total}"
        if rate > 0:
            line += f", {rate:.2f} configs/s"
            if status.pending:
                line += f", eta ~{status.pending / rate:.0f}s"
        self.emit(line + "]")


@dataclass(frozen=True)
class SweepStatus:
    """Progress of a spec against a store: what is done, what remains."""

    total: int
    completed: int

    @property
    def pending(self) -> int:
        return self.total - self.completed

    def describe(self) -> str:
        return f"{self.completed}/{self.total} configs completed, {self.pending} pending"


@dataclass
class SweepResult:
    """Ordered per-config records of one sweep run.

    ``records`` aligns with the spec's grid order regardless of how many
    workers resolved it or how many records came from the store.
    """

    records: List[ConfigRecord] = field(default_factory=list)
    reused: int = 0

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def all_solved(self) -> bool:
        """True iff every pattern of every config solved within its horizon."""
        return all(record.all_solved for record in self.records)

    def rows(self) -> List[Dict[str, object]]:
        """Flat export rows (one per config) for ``repro.reporting.export``."""
        return [record.row() for record in self.records]

    def batch_results(self) -> List[BatchResult]:
        """Reconstructed :class:`BatchResult` per config, in grid order."""
        return [record.to_batch_result() for record in self.records]


@dataclass
class SweepRunner:
    """Shard a config grid across worker processes, with store-backed resume.

    Parameters
    ----------
    workers:
        Worker processes; ``0`` or ``1`` resolves configs serially in the
        calling process (identical results — sharding is scheduling only).
    store:
        Optional :class:`~repro.sweeps.store.SweepStore`.  When set, stored
        configs are served from disk instead of recomputed and fresh records
        are persisted as they complete, making the sweep resumable.
    """

    workers: int = 0
    store: Optional[SweepStore] = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")

    def _expand(self, spec: Union[SweepSpec, Sequence[SweepConfig]]) -> List[SweepConfig]:
        if isinstance(spec, SweepSpec):
            return spec.configs()
        return list(spec)

    def run(
        self,
        spec: Union[SweepSpec, Sequence[SweepConfig]],
        *,
        progress: Optional[Callable[[str], None]] = None,
    ) -> SweepResult:
        """Resolve every config of ``spec`` (a spec or an explicit config list).

        Already-stored configs are reused; the rest are sharded across the
        worker pool.  ``progress`` (if given) receives one line per resolved
        config, in completion order.
        """
        configs = self._expand(spec)
        records: Dict[int, ConfigRecord] = {}
        pending: List[SweepConfig] = []
        pending_indices: List[int] = []
        for index, config in enumerate(configs):
            stored = self.store.load(config) if self.store is not None else None
            if stored is not None:
                records[index] = stored
            else:
                pending.append(config)
                pending_indices.append(index)
        reused = len(records)
        obs.add("sweeps.configs_total", len(configs))
        obs.add("sweeps.configs_reused", reused)
        if self.store is not None:
            # Store traffic, counted parent-side in the partition above so the
            # totals stay worker-count invariant (workers never touch the
            # store).  A warm rerun of a campaign reads as misses == 0.
            obs.add("store.hits", reused)
            obs.add("store.misses", len(pending))
        meter = (
            None
            if progress is None
            else _ProgressMeter(total=len(configs), completed=reused, emit=progress)
        )

        def _finished(position: int, record: ConfigRecord) -> None:
            if self.store is not None:
                self.store.save(record)
            obs.add("sweeps.configs_resolved")
            if meter is not None:
                meter.step(record.config.label())

        with obs.span(
            "sweeps.run", total=len(configs), pending=len(pending), workers=self.workers
        ):
            fresh = map_jobs(
                resolve_config, pending, workers=self.workers, on_result=_finished
            )
        for index, record in zip(pending_indices, fresh):
            records[index] = record
        return SweepResult(
            records=[records[index] for index in range(len(configs))], reused=reused
        )

    def status(self, spec: Union[SweepSpec, Sequence[SweepConfig]]) -> SweepStatus:
        """How much of ``spec`` the attached store already covers."""
        configs = self._expand(spec)
        if self.store is None:
            return SweepStatus(total=len(configs), completed=0)
        return SweepStatus(
            total=len(configs), completed=len(self.store.completed(configs))
        )
