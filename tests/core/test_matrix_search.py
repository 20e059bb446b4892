"""Tests for repro.core.matrix_search (waking-matrix verification and seed search)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.simulator import run_deterministic
from repro.core.lower_bounds import scenario_c_bound
from repro.core.matrix_search import (
    MatrixVerificationReport,
    adversarial_pattern_battery,
    find_waking_matrix_seed,
    verify_matrix,
)
from repro.core.waking_matrix import (
    ExplicitTransmissionMatrix,
    HashedTransmissionMatrix,
    matrix_parameters,
)
from repro.core.scenario_c import WakeupProtocol


def _per_pattern_report(matrix, *, ks, patterns_per_k, budget_factor, rng):
    """The scalar reference: one ``run_deterministic`` per battery pattern."""
    protocol = WakeupProtocol(matrix.n, matrix=matrix)
    battery = adversarial_pattern_battery(
        matrix.n, ks=ks, window_length=matrix.params.window,
        patterns_per_k=patterns_per_k, rng=rng,
    )
    failures = []
    worst = 0
    for pattern in battery:
        budget = int(np.ceil(budget_factor * scenario_c_bound(matrix.n, pattern.k)))
        result = run_deterministic(protocol, pattern, max_slots=budget)
        if result.solved:
            worst = max(worst, result.latency)
        else:
            failures.append((pattern.k, pattern.first_wake, budget))
    return MatrixVerificationReport(
        n=matrix.n, seed=getattr(matrix, "seed", None), patterns_checked=len(battery),
        failures=tuple(failures), worst_latency=worst, budget_factor=budget_factor,
    )


class TestPatternBattery:
    def test_contains_all_requested_ks(self):
        battery = adversarial_pattern_battery(32, ks=(1, 2, 4), patterns_per_k=1, rng=0)
        observed_ks = {p.k for p in battery}
        assert observed_ks == {1, 2, 4}
        # simultaneous + staggered + window-boundary + 1 random per k
        assert len(battery) == 3 * 4

    def test_k_capped_at_n(self):
        battery = adversarial_pattern_battery(4, ks=(8,), patterns_per_k=0, rng=0)
        assert all(p.k <= 4 for p in battery)


class TestVerifyMatrix:
    def test_good_matrix_passes(self):
        params = matrix_parameters(32)
        matrix = HashedTransmissionMatrix(params, seed=1)
        report = verify_matrix(matrix, ks=(1, 2, 4), patterns_per_k=1, rng=0)
        assert isinstance(report, MatrixVerificationReport)
        assert report.passed
        assert report.seed == 1
        assert report.worst_latency >= 0
        assert "PASS" in report.describe()

    def test_empty_matrix_fails(self):
        params = matrix_parameters(16, c=1)
        matrix = ExplicitTransmissionMatrix(params, {})
        report = verify_matrix(matrix, ks=(2,), patterns_per_k=0, budget_factor=2.0, rng=0)
        assert not report.passed
        assert report.failures
        assert "FAIL" in report.describe()


    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("budget_factor", [16.0, 0.25])
    @pytest.mark.parametrize("n", [32, 64])
    def test_report_equals_the_per_pattern_loop(self, n, budget_factor, seed):
        matrix = HashedTransmissionMatrix(matrix_parameters(n), seed=seed)
        kwargs = dict(ks=(1, 2, 4, 8), patterns_per_k=2, budget_factor=budget_factor)
        report = verify_matrix(matrix, rng=seed, **kwargs)
        assert report == _per_pattern_report(matrix, rng=seed, **kwargs)
        if budget_factor < 1:
            assert report.failures  # the tight budget exercises the failure path


class TestFindSeed:
    def test_finds_a_passing_seed(self):
        seed, report = find_waking_matrix_seed(
            32, max_attempts=4, ks=(1, 2, 4), patterns_per_k=1, rng=3
        )
        assert report.passed
        assert isinstance(seed, int)

    def test_impossible_budget_raises(self):
        with pytest.raises(RuntimeError):
            find_waking_matrix_seed(
                32,
                max_attempts=2,
                ks=(4,),
                patterns_per_k=1,
                budget_factor=0.001,  # nothing can isolate this fast
                rng=0,
            )
