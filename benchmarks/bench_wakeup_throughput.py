"""Throughput of the native Scenario C batch path vs. the pair-by-pair fallback.

Mirror of ``bench_batch_throughput.py`` and ``bench_randomized_throughput.py``
for the waking-matrix protocol: at the reference configuration B = 256
patterns, n = 1024, k = 16 uniform wake-ups, record the patterns/sec of

* the pair-by-pair fallback (``run_deterministic`` per pattern — the path
  Scenario C ran through before it became a native fast-path protocol),
* one ``run_batch`` call with the generic
  ``DeterministicProtocol.batch_transmit_slots`` fallback pinned (the engine
  without the native override), and
* one ``run_batch`` call on the native path (batched
  ``membership_for_pairs`` over one ``searchsorted`` row-geometry pass),

as ``extra_info["patterns_per_sec"]`` — plus hard regression gates asserting
the native path stays at least 10× over the per-pattern pair-by-pair loop and
at least 3× over the engine-with-generic-fallback, and that all three resolve
every pattern identically (same matrix, so outcomes must be bit-for-bit
equal).  At landing time the native path measured ~38× over the loop and
~5× over the generic engine fallback.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_wakeup_throughput.py --benchmark-only
"""

from __future__ import annotations

import time

import numpy as np

from repro.channel.protocols import DeterministicProtocol
from repro.channel.simulator import run_deterministic
from repro.core.scenario_c import WakeupProtocol
from repro.engine import run_batch
from repro.workloads import WorkloadSuite

N, K, BATCH = 1024, 16, 256
SEED = 7


class FallbackWakeup(WakeupProtocol):
    """WakeupProtocol pinned to the generic pair-by-pair batch fallback."""

    batch_transmit_slots = DeterministicProtocol.batch_transmit_slots


def _patterns():
    return WorkloadSuite().generate("uniform", n=N, k=K, batch=BATCH, seed=0, window=256)


def _protocols():
    native = WakeupProtocol(N, seed=SEED)
    # Same matrix object, so the two engines resolve identical schedules.
    return native, FallbackWakeup(N, matrix=native.matrix)


def _best_of(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_benchmark_per_pattern_loop(benchmark):
    """Baseline: the per-pattern pair-by-pair loop at the reference configuration."""
    native, _ = _protocols()
    patterns = _patterns()

    def loop():
        return [run_deterministic(native, p) for p in patterns]

    results = benchmark(loop)
    assert all(r.solved for r in results)
    benchmark.extra_info["patterns_per_sec"] = BATCH / benchmark.stats["mean"]


def test_benchmark_native_batch(benchmark):
    """One batched scan on the native membership_for_pairs path."""
    native, _ = _protocols()
    patterns = _patterns()

    result = benchmark(lambda: run_batch(native, patterns))
    assert bool(result.solved.all())
    benchmark.extra_info["patterns_per_sec"] = BATCH / benchmark.stats["mean"]


def test_native_and_fallback_agree_bit_for_bit():
    """All three paths resolve every pattern to the same outcome columns."""
    native, generic = _protocols()
    patterns = _patterns()
    a = run_batch(native, patterns)
    b = run_batch(generic, patterns)
    for column in ("solved", "success_slot", "winner", "latency", "slots_examined"):
        np.testing.assert_array_equal(getattr(a, column), getattr(b, column), err_msg=column)
    for i, pattern in enumerate(patterns[:32]):
        reference = run_deterministic(native, pattern)
        assert bool(a.solved[i]) == reference.solved
        assert int(a.success_slot[i]) == reference.success_slot
        assert int(a.winner[i]) == reference.winner


def test_wakeup_batch_speedup_is_at_least_10x(record_gate):
    """Regression gate: native batch >= 10x over the pair-by-pair loop.

    Plus a secondary gate: the native override must stay >= 3x over running
    the engine with the generic ``batch_transmit_slots`` fallback (both sides
    pay the same hash cost, so this ratio is pure per-pair Python overhead).
    """
    native, generic = _protocols()
    patterns = _patterns()
    # Warm up all paths (page faults and lazy caches) before timing best-of-3.
    run_batch(native, patterns[:16])
    run_batch(generic, patterns[:16])
    [run_deterministic(native, p) for p in patterns[:16]]

    native_time = _best_of(lambda: run_batch(native, patterns))
    generic_time = _best_of(lambda: run_batch(generic, patterns))
    loop_time = _best_of(lambda: [run_deterministic(native, p) for p in patterns])
    loop_speedup = loop_time / native_time
    generic_speedup = generic_time / native_time
    print(f"wakeup-scenario-c: native {BATCH / native_time:,.0f} patterns/s, "
          f"generic fallback {BATCH / generic_time:,.0f} patterns/s, "
          f"loop {BATCH / loop_time:,.0f} patterns/s, "
          f"speedup {loop_speedup:.1f}x over loop / {generic_speedup:.1f}x over generic")
    record_gate(
        "wakeup_matrix_batch",
        threshold=10.0,
        unit="patterns/sec",
        measurements=[
            {
                "protocol": "wakeup-scenario-c",
                "config": f"B={BATCH} n={N} k={K}",
                "speedup": round(loop_speedup, 2),
                "speedup_over_generic": round(generic_speedup, 2),
                "batch_rate": round(BATCH / native_time, 1),
                "loop_rate": round(BATCH / loop_time, 1),
            }
        ],
    )
    assert loop_speedup >= 10.0, (
        f"native Scenario C batch only {loop_speedup:.1f}x over the pair-by-pair loop "
        f"(batch {native_time:.4f}s, loop {loop_time:.4f}s for {BATCH} patterns)"
    )
    assert generic_speedup >= 3.0, (
        f"native Scenario C batch only {generic_speedup:.1f}x over the generic "
        f"batch_transmit_slots fallback ({native_time:.4f}s vs {generic_time:.4f}s)"
    )
