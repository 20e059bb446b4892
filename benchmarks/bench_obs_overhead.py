"""Cost of the observability layer: disabled no-ops and enabled trace volume.

The engine's hot loops call :func:`repro.obs.add` and :func:`repro.obs.span`
unconditionally, so the disabled path must be invisible in the throughput
gates.  Direct A/B timing of an instrumented vs. uninstrumented engine would
be noise-dominated at the 2% level, so the gate bounds the overhead
analytically instead:

* count the obs API calls one ``run_batch`` actually makes
  (deterministic — measured once under an in-memory session);
* microbenchmark the per-call cost of the *disabled* no-op paths;
* assert ``calls x per_call_cost < 2%`` of the engine's wall time.

A second gate holds the *enabled* mode to its design contract: tracing a
16-config sweep must emit O(configs) JSONL events (one ``job`` event per
config plus constant framing), never O(patterns) or O(chunks) — workers
collect under :func:`repro.obs.capture` and only snapshots reach the sink.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -s
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.core.round_robin import RoundRobin
from repro.engine import run_batch
from repro.sweeps import SweepRunner, SweepSpec
from repro.workloads import WorkloadSuite

#: Disabled-mode overhead bar: obs no-op cost below 2% of engine wall time.
MAX_OVERHEAD_FRACTION = 0.02

#: The traced grid: 16 configs (1 protocol x 2 n x 2 k x 4 seeds).
TRACE_SPEC = SweepSpec(
    protocols=("scenario-b",),
    n_values=(128, 256),
    k_values=(8, 16),
    seeds=(0, 1, 2, 3),
    batch=32,
    max_slots=200_000,
)

#: Enabled-mode event bound: constant framing (begin, sweeps.run span,
#: manifest, slack) plus one ``job`` event per config.
MAX_EVENTS_PER_CONFIG = 2
MAX_FRAMING_EVENTS = 8


def _engine_workload():
    patterns = WorkloadSuite().generate("uniform", n=256, k=8, batch=256, seed=0)
    protocol = RoundRobin(256)
    return lambda: run_batch(protocol, patterns, max_slots=4096)


def _best_of(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _per_call_cost(fn, iterations=200_000):
    """Seconds per call of a disabled-mode no-op, amortized over a tight loop."""
    t0 = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - t0) / iterations


def test_disabled_obs_overhead_is_under_2_percent(record_gate):
    """Regression gate: disabled-mode obs cost < 2% of the batch engine."""
    if obs.enabled():
        pytest.skip("REPRO_OBS is set; the disabled-mode gate needs obs off")
    run = _engine_workload()
    engine_time = _best_of(run, repeats=3)

    # The call counts are a property of the work, not the timing: replay the
    # same batch under an in-memory session and read the call tallies.
    state = obs.enable(None, argv=["bench_obs_overhead"])
    run()
    span_calls, counter_calls = state.span_calls, state.counter_calls
    obs.disable()
    assert span_calls > 0 and counter_calls > 0, "engine is not instrumented"

    def _null_span():
        with obs.span("bench.noop", chunk=0):
            pass

    per_span = _per_call_cost(_null_span)
    per_add = _per_call_cost(lambda: obs.add("bench.noop"))
    overhead = span_calls * per_span + counter_calls * per_add
    fraction = overhead / engine_time
    print(
        f"obs disabled-mode: {span_calls} spans x {per_span * 1e9:.0f}ns + "
        f"{counter_calls} adds x {per_add * 1e9:.0f}ns = {overhead * 1e6:.1f}us "
        f"over {engine_time * 1e3:.1f}ms engine time ({fraction:.4%})"
    )
    # Record before asserting so a regression still lands in the trajectory.
    # ``overhead_fraction`` is context, not a compared metric (see
    # repro.obs.bench): its baseline is microseconds-level noise.
    record_gate(
        "obs_overhead",
        threshold=MAX_OVERHEAD_FRACTION,
        unit="fraction of engine wall time",
        measurements=[
            {
                "engine": "deterministic_batch",
                "overhead_fraction": round(fraction, 6),
                "span_calls": span_calls,
                "counter_calls": counter_calls,
            }
        ],
    )
    assert fraction < MAX_OVERHEAD_FRACTION, (
        f"disabled-mode obs cost is {fraction:.3%} of engine time "
        f"({span_calls} span + {counter_calls} counter calls); "
        f"the no-op paths must stay under {MAX_OVERHEAD_FRACTION:.0%}"
    )


def test_enabled_trace_event_count_is_linear_in_configs(record_gate, tmp_path):
    """Regression gate: tracing a 16-config sweep emits O(configs) events."""
    if obs.enabled():
        pytest.skip("REPRO_OBS is set; the trace-volume gate owns its session")
    configs = TRACE_SPEC.configs()
    assert len(configs) == 16
    trace = tmp_path / "sweep-trace.jsonl"
    obs.enable(trace, argv=["bench_obs_overhead", "trace"])
    try:
        result = SweepRunner(workers=0).run(TRACE_SPEC)
    finally:
        manifest = obs.disable()
    assert result.all_solved
    events = manifest["events"]
    bound = MAX_FRAMING_EVENTS + MAX_EVENTS_PER_CONFIG * len(configs)
    print(
        f"obs enabled-mode: {events} trace events for {len(configs)} configs "
        f"(bound {bound})"
    )
    record_gate(
        "obs_trace_volume",
        threshold=float(bound),
        unit="events per traced 16-config sweep",
        measurements=[
            {
                "grid": f"{len(configs)} configs, serial",
                "trace_events": int(events),
            }
        ],
    )
    assert events <= bound, (
        f"traced sweep emitted {events} events for {len(configs)} configs; "
        f"the sink must see O(configs) events (bound {bound}), not O(patterns)"
    )
