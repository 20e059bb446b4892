"""Throughput of the batch engine vs. the per-pattern loop.

The batch engine exists to raise patterns/sec — the currency of empirical
confidence for worst-case bounds.  These benchmarks record, for the reference
configuration B = 256 patterns at n = 1024, k = 16, the patterns/sec of

* the per-pattern loop (``run_deterministic`` per pattern, the pre-engine
  path), and
* one ``run_batch`` call over the same patterns,

as ``extra_info["patterns_per_sec"]`` so BENCH_*.json files track the
speedup over time, plus a hard regression gate asserting the batch path stays
at least 10× over the loop (the bar set when the engine landed; at landing
time it measured ~14× on round-robin and ~75× on wakeup-with-k).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_batch_throughput.py --benchmark-only
"""

from __future__ import annotations

import time

from repro.channel.simulator import run_deterministic
from repro.core.round_robin import RoundRobin
from repro.core.scenario_b import WakeupWithK
from repro.engine import run_batch
from repro.workloads import WorkloadSuite

N, K, BATCH = 1024, 16, 256


def _patterns():
    return WorkloadSuite().generate("uniform", n=N, k=K, batch=BATCH, seed=0, window=256)


def _protocols():
    return {
        "round_robin": RoundRobin(N),
        "wakeup_with_k": WakeupWithK(N, K, rng=1),
    }


def test_benchmark_per_pattern_loop(benchmark):
    """Baseline: the per-pattern loop at the reference configuration."""
    protocol = _protocols()["wakeup_with_k"]
    patterns = _patterns()

    def loop():
        return [run_deterministic(protocol, p) for p in patterns]

    results = benchmark(loop)
    assert all(r.solved for r in results)
    benchmark.extra_info["patterns_per_sec"] = BATCH / benchmark.stats["mean"]


def test_benchmark_batch_engine(benchmark):
    """One batched scan over the same patterns."""
    protocol = _protocols()["wakeup_with_k"]
    patterns = _patterns()

    result = benchmark(lambda: run_batch(protocol, patterns))
    assert bool(result.solved.all())
    benchmark.extra_info["patterns_per_sec"] = BATCH / benchmark.stats["mean"]


def test_batch_speedup_is_at_least_10x(record_gate):
    """Regression gate: batch >= 10x patterns/sec over the per-pattern loop."""
    patterns = _patterns()
    measurements = []
    for name, protocol in _protocols().items():
        # Warm up both paths (page faults and lazy caches), then time best-of-3.
        run_batch(protocol, patterns[:16])
        [run_deterministic(protocol, p) for p in patterns[:16]]

        def best_of(fn, repeats=3):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        batch_time = best_of(lambda: run_batch(protocol, patterns))
        loop_time = best_of(lambda: [run_deterministic(protocol, p) for p in patterns])
        speedup = loop_time / batch_time
        print(f"{name}: batch {BATCH / batch_time:,.0f} patterns/s, "
              f"loop {BATCH / loop_time:,.0f} patterns/s, speedup {speedup:.1f}x")
        measurements.append(
            {
                "protocol": name,
                "config": f"B={BATCH} n={N} k={K}",
                "speedup": round(speedup, 2),
                "batch_rate": round(BATCH / batch_time, 1),
                "loop_rate": round(BATCH / loop_time, 1),
            }
        )
    # Record before asserting so a regression still lands in the trajectory.
    record_gate(
        "deterministic_batch",
        threshold=10.0,
        unit="patterns/sec",
        measurements=measurements,
    )
    for entry in measurements:
        assert entry["speedup"] >= 10.0, (
            f"{entry['protocol']}: batch engine only {entry['speedup']:.1f}x over "
            f"the per-pattern loop at {entry['config']}"
        )
