"""Benchmarks E1–E11 — every registry experiment, DESIGN.md's experiment index.

Each experiment is regenerated once at the harness scale and timed.  The
benchmark doubles as a correctness check: every bound certificate must hold
(if, say, E1's measured worst latencies stop being O(k log(n/k) + 1) the run
fails, not just slows down), and experiments without certificates assert
their own invariant from :data:`CHECKS`.
"""

from __future__ import annotations

import pytest

from repro.core.selective import random_selective_family
from repro.experiments.registry import DEFINITIONS, run_experiment

#: Rows of the deterministic baselines in E9 (each must solve).
_E9_DETERMINISTIC = ("wakeup_with_k", "wakeup_scenario_c", "tdma")


def _check_e5(result, scale):
    assert all(row["latency_c"] >= 1 for row in result.rows)


def _check_e7(result, scale):
    agreement_rows = [r for r in result.rows if "agreement" in r]
    assert agreement_rows and agreement_rows[0]["agreement"]


def _check_e8(result, scale):
    assert all(row["random_selectivity"] >= 0.99 for row in result.rows)


def _check_e9(result, scale):
    assert all(r["solved"] for r in result.rows if r["protocol"] in _E9_DETERMINISTIC)


def _check_e10(result, scale):
    ablations = {row["ablation"] for row in result.rows}
    assert ablations == {"window_length", "constant_c", "waiting_rule", "interleaving"}


def _check_e11(result, scale):
    # Every global-clock run must have finished within the horizon.
    for row in result.rows:
        assert row["wait_and_go_global"] < scale.max_slots
        assert row["scenario_c_global"] < scale.max_slots


#: Per-experiment invariants checked on top of the bound certificates.
CHECKS = {
    "E5": _check_e5,
    "E7": _check_e7,
    "E8": _check_e8,
    "E9": _check_e9,
    "E10": _check_e10,
    "E11": _check_e11,
}


@pytest.mark.parametrize("experiment", list(DEFINITIONS))
def test_benchmark_experiment(experiment, run_once, scale, family_cache):
    """One registry experiment end to end: plan, resolve, render."""
    result = run_once(run_experiment, experiment, scale, cache=family_cache)
    assert result.all_certificates_hold, result.summary()
    if experiment in CHECKS:
        CHECKS[experiment](result, scale)
    print()
    print(result.summary())


def test_benchmark_family_construction_microbench(benchmark):
    """Micro-benchmark: cost of constructing one (256, 16)-selective family."""
    benchmark(lambda: random_selective_family(256, 16, rng=0))
