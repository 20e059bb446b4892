"""Tracing shim: nested spans around the program's public layer functions.

The benchmark measures end-to-end figures with nothing installed.  For the
per-layer numbers it runs one extra repetition with this shim installed: it
replaces a fixed list of public functions and methods with wrappers that
time each call as a span, so a layer's *self time* is its span minus the
spans of the layers it called.  A ``build_protocol`` call made inside an
experiment's render therefore counts toward ``protocols``, not toward
``experiments``.

Spans nest per thread and aggregate by name (calls, total, self); counts
(patterns, pairs, bytes, hits, ...) are added next to them.  Nothing is
written until the caller asks for :meth:`Tracer.snapshot`, except in worker
processes forked while the shim is installed (sweep and service pools):
they start from empty aggregates and spool them to a directory after each
``resolve_config`` job, and :func:`merge_spool` folds them back in.  The
program's own ``repro.obs`` tracing is not used and stays off.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

__all__ = ["Tracer", "installed", "merge_spool"]


class _Span:
    __slots__ = ("tracer", "name", "start", "child_s", "dur")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.child_s = 0.0
        self.dur = 0.0

    def __enter__(self) -> "_Span":
        self.tracer._stack().append(self)
        self.start = self.tracer.clock()
        return self

    def __exit__(self, *exc) -> None:
        self.dur = self.tracer.clock() - self.start
        stack = self.tracer._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += self.dur
        self.tracer._record(self.name, self.dur, self.dur - self.child_s)


class Tracer:
    """In-memory span and count aggregates, by name.

    ``clock`` is injectable so the self-time arithmetic can be tested with a
    scripted clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: The process that reports these aggregates; forks spool theirs.
        self.owner = os.getpid()
        self.reset()

    def reset(self) -> None:
        """Empty aggregates, as a forked worker starts with."""
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, total: float, self_time: float) -> None:
        with self._lock:
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += total
            entry[2] += self_time

    def span(self, name: str) -> _Span:
        """A span context; its ``name`` may be changed before it exits."""
        return _Span(self, name)

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def count(self, name: str) -> float:
        return self.counts.get(name, 0)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-data aggregates (JSON-ready)."""
        with self._lock:
            return {
                "spans": {
                    name: {"calls": int(c), "total_s": t, "self_s": s}
                    for name, (c, t, s) in self.spans.items()
                },
                "counts": dict(self.counts),
            }

    def merge(self, snap: Dict[str, Dict[str, object]]) -> None:
        """Add another tracer's :meth:`snapshot` to these aggregates."""
        with self._lock:
            for name, entry in snap["spans"].items():
                mine = self.spans.setdefault(name, [0, 0.0, 0.0])
                mine[0] += entry["calls"]
                mine[1] += entry["total_s"]
                mine[2] += entry["self_s"]
            for name, value in snap["counts"].items():
                self.counts[name] = self.counts.get(name, 0) + value

    @classmethod
    def from_snapshot(cls, snap: Dict[str, Dict[str, object]]) -> "Tracer":
        tracer = cls()
        tracer.merge(snap)
        return tracer


#: A span name, or ``(args, kwargs, result) -> name`` decided when it exits.
SpanName = Union[str, Callable[[tuple, dict, object], str]]
#: ``(tracer, span, args, kwargs, result)``, run after the span has closed.
After = Callable[["Tracer", _Span, tuple, dict, object], None]


def traced(
    tracer: Tracer, fn: Callable, name: SpanName, after: Optional[After] = None
) -> Callable:
    """Wrap ``fn`` so every call is one span of ``tracer``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name if isinstance(name, str) else "") as span:
            result = fn(*args, **kwargs)
            if not isinstance(name, str):
                span.name = name(args, kwargs, result)
        if after is not None:
            after(tracer, span, args, kwargs, result)
        return result

    return wrapper


# -- per-layer hooks ----------------------------------------------------------


def _count_patterns(tracer, span, args, kwargs, result) -> None:
    tracer.add("workloads.patterns", len(result))


def _count_engine(tracer, span, args, kwargs, result) -> None:
    solved = result.solved
    tracer.add("engine.patterns", len(solved))
    tracer.add("engine.pairs", int(result.k.sum()))
    tracer.add("engine.unsolved", int((~solved).sum()))
    tracer.add("engine.useful_slots", int((result.latency[solved] + 1).sum()))
    tracer.add("engine.slots_examined", int(result.slots_examined.sum()))


def _count_write(tracer, span, args, kwargs, result) -> None:
    tracer.add("store.writes")
    tracer.add("store.bytes_written", result.stat().st_size)


def _count_read(tracer, span, args, kwargs, result) -> None:
    tracer.add("store.reads")
    tracer.add("store.hits" if result is not None else "store.misses")


def _count_build(tracer, span, args, kwargs, result) -> None:
    tracer.add("family_cache.builds")


def _map_jobs_name(args, kwargs, result) -> str:
    # A parallel map_jobs spends its self time waiting on worker processes
    # (whose own spans are spooled back): keep that wait apart from the
    # runner's orchestration time.
    jobs = args[1] if len(args) > 1 else kwargs["jobs"]
    workers = kwargs.get("workers", 0)
    return "runner" if workers <= 1 or len(jobs) <= 1 else "runner.pool_wait"


def _resolve_name(args, kwargs, result) -> str:
    return "service.resolve_hit" if result[1] else "service.resolve_miss"


class _RequestClock:
    """Server-side time of each query, attributed to its cache outcome.

    A query is ``normalize_query`` → ``ResultsService.resolve`` →
    ``render_response`` in one handler thread; the outcome is only known
    after ``resolve``, so the thread carries the running total until the
    render closes it.
    """

    def __init__(self) -> None:
        self.local = threading.local()

    def normalized(self, tracer, span, args, kwargs, result) -> None:
        self.local.server_s = span.dur

    def resolved(self, tracer, span, args, kwargs, result) -> None:
        self.local.server_s = getattr(self.local, "server_s", 0.0) + span.dur
        self.local.cache = "hit" if result[1] else "miss"

    def rendered(self, tracer, span, args, kwargs, result) -> None:
        cache = getattr(self.local, "cache", "miss")
        tracer.add(f"service.server_{cache}_s", self.local.server_s + span.dur)
        self.local.server_s = 0.0


def _spooled(tracer: Tracer, spool: Path, fn: Callable) -> Callable:
    """Wrap a worker job so a forked worker spools its aggregates after it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if os.getpid() != tracer.owner:
            path = spool / f"{os.getpid()}.json"
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(tracer.snapshot()))
            os.replace(tmp, path)
        return result

    return wrapper


def merge_spool(tracer: Tracer, spool: Path) -> None:
    """Fold the workers' spooled aggregates into ``tracer``.

    ``workers.self_s`` counts the self time that ran in worker processes,
    concurrently with this one.
    """
    for path in sorted(spool.glob("*.json")):
        snap = json.loads(path.read_text())
        tracer.merge(snap)
        tracer.add("workers.self_s", sum(e["self_s"] for e in snap["spans"].values()))


def _targets(tracer: Tracer, spool: Path) -> List[Tuple[object, str, Callable]]:
    """``(owner, attribute, replacement)`` for every wrapped function."""
    import repro.experiments.cache as cache_module
    import repro.service.daemon as daemon_module
    import repro.sweeps as sweeps_package
    import repro.sweeps.protocols as protocols_module
    import repro.sweeps.runner as runner_module
    from repro.engine import Campaign
    from repro.experiments import FamilyCache, PaperCampaign
    from repro.service import ResultsService
    from repro.sweeps import ConfigRecord, SweepRunner, SweepStore
    from repro.workloads import WorkloadSuite

    def method(cls, attr, name, after=None):
        return (cls, attr, traced(tracer, getattr(cls, attr), name, after))

    build = traced(tracer, protocols_module.build_protocol, "protocols")
    from_batch = vars(ConfigRecord)["from_batch"].__func__
    request = _RequestClock()
    # Jobs are pickled by name, so both modules must hold the same wrapper.
    job = _spooled(tracer, spool, runner_module.resolve_config)
    return [
        (runner_module, "resolve_config", job),
        (daemon_module, "resolve_config", job),
        method(PaperCampaign, "plan", "experiments.plan"),
        (protocols_module, "build_protocol", build),
        (sweeps_package, "build_protocol", build),
        method(FamilyCache, "concatenation", "family_cache"),
        (
            cache_module,
            "concatenated_families",
            traced(
                tracer, cache_module.concatenated_families, "family_cache.build", _count_build
            ),
        ),
        method(WorkloadSuite, "generate", "workloads", _count_patterns),
        method(Campaign, "run", "engine", _count_engine),
        (
            ConfigRecord,
            "from_batch",
            classmethod(traced(tracer, from_batch, "store.encode")),
        ),
        method(SweepStore, "save", "store.write", _count_write),
        method(SweepStore, "load", "store.read", _count_read),
        method(SweepRunner, "run", "runner"),
        (
            runner_module,
            "map_jobs",
            traced(tracer, runner_module.map_jobs, _map_jobs_name),
        ),
        (
            daemon_module,
            "normalize_query",
            traced(tracer, daemon_module.normalize_query, "service.normalize", request.normalized),
        ),
        method(ResultsService, "resolve", _resolve_name, request.resolved),
        (
            daemon_module,
            "render_response",
            traced(tracer, daemon_module.render_response, "service.render", request.rendered),
        ),
    ]


def _traced_definitions(tracer: Tracer) -> Dict[str, object]:
    """Experiment definitions whose ``render`` is one span per experiment."""
    from repro.experiments import DEFINITIONS

    return {
        key: dataclasses.replace(
            definition,
            render=traced(tracer, definition.render, f"experiments.render.{key}"),
        )
        for key, definition in DEFINITIONS.items()
    }


@contextlib.contextmanager
def installed(tracer: Tracer, spool: Path):
    """Install the shim for the duration of the ``with`` block.

    Worker processes forked meanwhile inherit it with empty aggregates and
    spool them to ``spool`` (see :func:`merge_spool`).
    """
    from repro.experiments import DEFINITIONS

    spool.mkdir(parents=True, exist_ok=True)
    os.register_at_fork(after_in_child=tracer.reset)
    targets = _targets(tracer, spool)
    # vars(), not getattr(): a classmethod must be restored as the descriptor.
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
    original_definitions = dict(DEFINITIONS)
    for owner, attr, replacement in targets:
        setattr(owner, attr, replacement)
    DEFINITIONS.update(_traced_definitions(tracer))
    try:
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
        DEFINITIONS.update(original_definitions)
