"""Tests of the top-level public API surface (repro.__init__)."""

from __future__ import annotations

import importlib


import repro


class TestPublicSurface:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_scenario_classes_exported(self):
        assert repro.WakeupWithS.name == "wakeup-with-s"
        assert repro.WakeupWithK.name == "wakeup-with-k"
        assert repro.WakeupProtocol.name == "wakeup-scenario-c"

    def test_quickstart_docstring_flow(self):
        protocol = repro.WakeupWithK(n=64, k=8, rng=0)
        pattern = repro.WakeupPattern(64, {5: 0, 17: 3, 40: 9})
        result = repro.run_deterministic(protocol, pattern)
        assert result.solved and result.winner is not None

    def test_submodules_importable(self):
        for module in (
            "repro.channel",
            "repro.combinatorics",
            "repro.core",
            "repro.baselines",
            "repro.analysis",
            "repro.reporting",
            "repro.experiments",
            "repro.engine",
            "repro.workloads",
            "repro.sweeps",
            "repro.adversary",
            "repro.service",
            "repro.cli",
        ):
            assert importlib.import_module(module) is not None

    def test_bound_helpers_exported(self):
        assert repro.trivial_lower_bound(16, 4) == 4
        assert repro.scenario_ab_bound(64, 4) > 0
        assert repro.scenario_c_bound(64, 4) > repro.scenario_ab_bound(64, 4)

    def test_engine_has_one_entry_point(self):
        import repro.channel
        import repro.engine

        assert sorted(repro.engine.__all__) == ["BatchResult", "Campaign", "run_batch"]
        assert repro.run_batch is repro.engine.run_batch
        removed = (
            "run_deterministic_batch",
            "run_randomized_batch",
            "run_feedback_batch",
            "Simulator",
        )
        for module in (repro, repro.engine, repro.channel):
            for name in removed:
                assert not hasattr(module, name), f"{module.__name__}.{name}"

    def test_experiment_registry_exported(self):
        assert "E1" in repro.DEFINITIONS
        assert callable(repro.run_experiment)
        assert repro.QUICK.name == "quick"
