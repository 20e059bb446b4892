"""The repro.obs collection core: spans, counters, sink, manifest, capture.

The contracts under test are the ones the rest of the stack leans on:

* disabled mode is a true no-op — no events, no sink file, no aggregates;
* spans nest, and their timing aggregates are monotone and consistent;
* counter totals are worker-count invariant when a sweep merges snapshots
  (1 worker vs. 4 workers: bit-identical integers);
* the manifest round-trips through JSON and validate_manifest;
* REPRO_OBS enables a session at import time without code changes.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.core import _enable_from_env
from repro.sweeps import SweepRunner, SweepSpec


@pytest.fixture(autouse=True)
def _fresh_session():
    """Every test starts and ends with observability disabled."""
    obs.disable()
    yield
    obs.disable()


SPEC = SweepSpec(
    protocols=("round-robin",),
    n_values=(32,),
    k_values=(2, 4),
    workloads=("uniform",),
    seeds=(0, 1),
    batch=8,
    max_slots=2_000,
)


class TestDisabledMode:
    def test_disabled_is_the_default(self):
        assert not obs.enabled()

    def test_noops_record_nothing_and_touch_no_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with obs.span("engine.chunk_scan", chunk=0):
            obs.add("engine.chunks")
            obs.gauge("family_cache.hits")
            obs.event("job", index=0)
            obs.annotate("key", "value")
        assert obs.snapshot() is None
        assert obs.disable() is None
        assert list(tmp_path.iterdir()) == []

    def test_span_returns_the_shared_null_span(self):
        # The disabled path must not allocate: every call hands back the
        # module-level singleton.
        assert obs.span("a", x=1) is obs.span("b")

    def test_traced_run_then_disabled_run_emits_nothing_new(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.enable(trace, argv=["t"])
        obs.add("engine.chunks")
        obs.event("job", index=0)
        obs.disable()
        events_after_close = len(trace.read_text().splitlines())
        obs.add("engine.chunks")
        obs.event("job", index=1)
        assert len(trace.read_text().splitlines()) == events_after_close


class TestSpans:
    def test_spans_nest_and_record_depth(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.enable(trace, argv=["t"])
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        obs.disable()
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        spans = {e["name"]: e for e in events if e["type"] == "span"}
        assert spans["outer"]["depth"] == 1
        assert spans["inner"]["depth"] == 2
        # Inner closes first: JSONL order is completion order.
        names = [e["name"] for e in events if e["type"] == "span"]
        assert names == ["inner", "outer"]

    def test_timing_aggregates_are_monotone_and_consistent(self):
        state = obs.enable(None, argv=["t"])
        for _ in range(5):
            with obs.span("work"):
                pass
        with obs.span("work"):
            sum(range(10_000))
        snap = state.snapshot()
        count, total_s, max_s = snap["timings"]["work"]
        assert count == 6
        assert 0 <= max_s <= total_s
        # The nested-span invariant: a parent's total covers its children.
        with obs.span("parent"):
            with obs.span("child"):
                sum(range(10_000))
        snap = state.snapshot()
        assert snap["timings"]["parent"][1] >= snap["timings"]["child"][1]

    def test_span_attrs_land_in_the_event(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.enable(trace, argv=["t"])
        with obs.span("engine.chunk_scan", chunk=3, slots=64):
            pass
        obs.disable()
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        (span,) = [e for e in events if e["type"] == "span"]
        assert span["attrs"] == {"chunk": 3, "slots": 64}


class TestCountersAndMerge:
    def test_add_and_gauge_accumulate(self):
        state = obs.enable(None, argv=["t"])
        obs.add("c", 2)
        obs.add("c", 3)
        obs.gauge("g", 0.5)
        obs.gauge("g", 0.25)
        snap = state.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 0.75

    def test_merge_snapshot_is_additive(self):
        state = obs.enable(None, argv=["t"])
        obs.add("c", 1)
        with obs.capture() as worker:
            obs.add("c", 41)
            with obs.span("w"):
                pass
            snap = worker.snapshot()
        obs.merge_snapshot(snap)
        merged = state.snapshot()
        assert merged["counters"]["c"] == 42
        assert merged["timings"]["w"][0] == 1

    def test_capture_isolates_and_restores(self):
        state = obs.enable(None, argv=["t"])
        with obs.capture() as worker:
            obs.add("only.in.worker")
            assert obs.snapshot() == worker.snapshot()
        assert "only.in.worker" not in state.snapshot()["counters"]
        obs.add("back.in.parent")
        assert "back.in.parent" in state.snapshot()["counters"]

    def test_capture_state_never_opens_a_sink(self, tmp_path):
        obs.enable(tmp_path / "t.jsonl", argv=["t"])
        with obs.capture():
            obs.event("job", index=0)  # swallowed: capture has no sink
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_sweep_counter_totals_are_worker_count_invariant(self, workers):
        obs.enable(None, argv=["t"])
        SweepRunner(workers=workers).run(SPEC)
        snap = obs.snapshot()
        # The exact totals of the reference micro-grid, independent of how
        # many processes resolved it.  Gauges are exempt from this contract
        # (per-process cache state, per-worker seconds).
        assert snap["counters"] == {
            "sweeps.configs_total": 4,
            "sweeps.configs_reused": 0,
            "sweeps.configs_resolved": 4,
            "engine.chunks": 4,
            "engine.slots_scanned": 4096,
            "engine.patterns": 32,
            "engine.patterns_solved": 32,
        }
        assert snap["gauges"]["sweeps.job_seconds"] > 0


class TestManifest:
    def test_manifest_round_trips_through_json_and_validates(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.enable(trace, argv=["repro", "sweep", "run"])
        obs.add("engine.chunks", 7)
        obs.gauge("family_cache.hits", 2)
        obs.annotate("config_hashes", ["abc", "def"])
        with obs.span("sweeps.run"):
            pass
        manifest = obs.disable()
        assert obs.validate_manifest(manifest) is manifest
        # The sidecar file carries the same document, modulo the trailing
        # manifest event it counts.
        sidecar = json.loads(obs.manifest_path_for(trace).read_text())
        obs.validate_manifest(sidecar)
        assert sidecar["counters"] == {"engine.chunks": 7}
        assert sidecar["gauges"] == {"family_cache.hits": 2.0}
        assert sidecar["meta"] == {"config_hashes": ["abc", "def"]}
        assert sidecar["argv"] == ["repro", "sweep", "run"]
        assert sidecar["timings"]["sweeps.run"]["count"] == 1
        # And validates after a full serialization round-trip.
        obs.validate_manifest(json.loads(json.dumps(manifest)))

    def test_validate_manifest_rejects_broken_documents(self):
        obs.enable(None, argv=["t"])
        manifest = obs.disable()
        with pytest.raises(ValueError, match="missing required key"):
            obs.validate_manifest({k: v for k, v in manifest.items() if k != "argv"})
        with pytest.raises(ValueError, match="schema"):
            obs.validate_manifest({**manifest, "schema": 999})
        with pytest.raises(ValueError, match="integer"):
            obs.validate_manifest({**manifest, "counters": {"c": 1.5}})
        with pytest.raises(ValueError, match="JSON object"):
            obs.validate_manifest([])

    def test_in_memory_session_writes_no_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        obs.enable(None, argv=["t"])
        obs.add("c")
        manifest = obs.disable()
        assert manifest["trace"] is None
        assert list(tmp_path.iterdir()) == []


class TestEnableDisable:
    def test_double_enable_is_refused(self):
        obs.enable(None, argv=["t"])
        with pytest.raises(RuntimeError, match="already enabled"):
            obs.enable(None, argv=["t"])

    def test_env_values_enable_the_right_session(self, tmp_path):
        state = _enable_from_env({"REPRO_OBS": "1"})
        assert state is not None and state.trace_path is None
        obs.disable()
        trace = tmp_path / "env-trace.jsonl"
        environ = {"REPRO_OBS": str(trace)}
        state = _enable_from_env(environ)
        assert state is not None and state.trace_path == trace
        # The variable is downgraded so child processes collect in-memory
        # instead of truncating this process's trace file.
        assert environ["REPRO_OBS"] == "1"
        obs.disable()

    def test_env_off_values_do_not_enable(self):
        assert _enable_from_env({}) is None
        assert _enable_from_env({"REPRO_OBS": ""}) is None
        assert _enable_from_env({"REPRO_OBS": "0"}) is None
        assert not obs.enabled()
