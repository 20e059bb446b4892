"""Throughput of the randomized batch engine vs. the per-pattern slot loop.

Mirror of ``bench_batch_throughput.py`` for the randomized path: at the
reference configuration B = 256 patterns, n = 1024, k = 64 simultaneous
wake-ups — the heavy-contention regime the Section-6 randomized protocols
exist for, where the slot loop pays ``k`` scalar probability calls and draws
per slot until the first success — record the patterns/sec of

* the per-pattern slot loop (``run_randomized`` per pattern, the pre-engine
  path), and
* one ``run_batch`` call over the same patterns,

both fed the same ``SeedSequence``-spawned child generators so the outcomes
are bit-for-bit identical, as ``extra_info["patterns_per_sec"]`` — plus a
hard regression gate asserting the batch path stays at least 10× over the
loop (the bar set when the randomized engine landed; at landing time it
measured ~16× on both RPD and Decay).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_randomized_throughput.py --benchmark-only
"""

from __future__ import annotations

import time

import numpy as np

from repro._util import spawn_generators
from repro.channel.simulator import run_randomized
from repro.core.randomized import DecayPolicy, RepeatedProbabilityDecrease
from repro.engine import run_batch
from repro.workloads import WorkloadSuite

N, K, BATCH = 1024, 64, 256
SEED = 0


def _patterns():
    return WorkloadSuite().generate("simultaneous", n=N, k=K, batch=BATCH, seed=0)


def _policies():
    return {
        "rpd": RepeatedProbabilityDecrease(N),
        "decay": DecayPolicy(N),
    }


def _generators(count=BATCH):
    # Fresh, identically derived child streams for every timed call so the
    # loop and the batch resolve the very same executions.
    return spawn_generators(SEED, count, "campaign")


def _run_loop(policy, patterns):
    gens = _generators(len(patterns))
    return [
        run_randomized(policy, pattern, rng=gen)
        for pattern, gen in zip(patterns, gens)
    ]


def _run_batch(policy, patterns):
    return run_batch(policy, patterns, rngs=_generators(len(patterns)))


def test_benchmark_per_pattern_slot_loop(benchmark):
    """Baseline: the slot loop at the reference configuration."""
    policy = _policies()["rpd"]
    patterns = _patterns()

    results = benchmark(lambda: _run_loop(policy, patterns))
    assert all(r.solved for r in results)
    benchmark.extra_info["patterns_per_sec"] = BATCH / benchmark.stats["mean"]


def test_benchmark_randomized_batch_engine(benchmark):
    """One batched scan over the same patterns and child streams."""
    policy = _policies()["rpd"]
    patterns = _patterns()

    result = benchmark(lambda: _run_batch(policy, patterns))
    assert bool(result.solved.all())
    benchmark.extra_info["patterns_per_sec"] = BATCH / benchmark.stats["mean"]


def test_randomized_batch_speedup_is_at_least_10x(record_gate):
    """Regression gate: batch >= 10x patterns/sec over the slot loop."""
    patterns = _patterns()
    measurements = []
    for name, policy in _policies().items():
        # Warm up both paths (page faults and lazy caches), then time best-of-3.
        _run_batch(policy, patterns[:16])
        _run_loop(policy, patterns[:16])

        def best_of(fn, repeats=3):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        batch_time = best_of(lambda: _run_batch(policy, patterns))
        loop_time = best_of(lambda: _run_loop(policy, patterns))
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
        "randomized_batch",
        threshold=10.0,
        unit="patterns/sec",
        measurements=measurements,
    )
    for entry in measurements:
        assert entry["speedup"] >= 10.0, (
            f"{entry['protocol']}: randomized batch engine only "
            f"{entry['speedup']:.1f}x over the slot loop at {entry['config']}"
        )


def test_batch_and_loop_agree_bit_for_bit():
    """The speed comparison is honest: same streams, same outcomes."""
    policy = _policies()["rpd"]
    patterns = _patterns()
    batch = _run_batch(policy, patterns)
    loop = _run_loop(policy, patterns)
    np.testing.assert_array_equal(batch.success_slot, [r.success_slot for r in loop])
    np.testing.assert_array_equal(batch.winner, [r.winner for r in loop])
    np.testing.assert_array_equal(batch.latency, [r.latency for r in loop])
