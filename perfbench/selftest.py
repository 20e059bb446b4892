"""Self-tests of the benchmark: span arithmetic, shim install, host-speed probe, smoke runs.

Run from the root of a checkout (seconds, not minutes)::

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
from rep import Rep  # noqa: E402
from shim import Tracer, installed, merge_spool, traced  # noqa: E402
from speed import Sampler  # noqa: E402

SCRATCH = ROOT / ".perfbench" / "tmp"


class ScriptedClock:
    """Returns the given instants in order, one per call."""

    def __init__(self, *instants: float) -> None:
        self.instants = list(instants)

    def __call__(self) -> float:
        return self.instants.pop(0)


def test_self_time_is_span_minus_children():
    # render [0, 10] calls build_protocol [2, 5], which reaches the family
    # cache [3, 4]; render then generates a workload [6, 8].
    tracer = Tracer(clock=ScriptedClock(0, 2, 3, 4, 5, 6, 8, 10))
    family = traced(tracer, lambda: None, "family_cache")

    def build():
        family()

    protocols = traced(tracer, build, "protocols")
    workloads = traced(tracer, lambda: None, "workloads")

    def render_body():
        protocols()
        workloads()

    traced(tracer, render_body, "experiments.render.E4")()
    assert tracer.self_s("experiments.render.E4") == 10 - 3 - 2
    assert tracer.total_s("experiments.render.E4") == 10
    assert tracer.self_s("protocols") == 3 - 1
    assert tracer.self_s("family_cache") == 1
    assert tracer.self_s("workloads") == 2
    assert tracer.calls("protocols") == 1


def test_span_name_decided_at_exit_and_after_hook():
    tracer = Tracer(clock=ScriptedClock(0, 1))
    seen = []
    fn = traced(
        tracer,
        lambda hit: ("record", hit),
        lambda args, kwargs, result: "hit" if result[1] else "miss",
        after=lambda t, span, args, kwargs, result: seen.append(span.dur),
    )
    assert fn(True) == ("record", True)
    assert tracer.calls("hit") == 1 and tracer.calls("miss") == 0
    assert seen == [1]


def test_installed_traces_build_protocol_inside_render_and_restores():
    import repro.sweeps as sweeps
    import repro.sweeps.protocols as protocols
    from repro.experiments import DEFINITIONS
    from repro.sweeps import ConfigRecord, SweepStore

    build_before = protocols.build_protocol
    definitions_before = dict(DEFINITIONS)
    from_batch_before = vars(ConfigRecord)["from_batch"]
    save_before = SweepStore.save
    tracer = Tracer()
    with installed(tracer, SCRATCH / "selftest-spool"):
        assert DEFINITIONS["E4"] is not definitions_before["E4"]
        with tracer.span("experiments.render.E4"):
            sweeps.build_protocol("round-robin", 8, 1)
    assert tracer.calls("protocols") == 1
    assert tracer.self_s("experiments.render.E4") <= tracer.total_s("experiments.render.E4")
    assert protocols.build_protocol is build_before
    assert sweeps.build_protocol is build_before
    assert vars(ConfigRecord)["from_batch"] is from_batch_before
    assert dict(DEFINITIONS) == definitions_before
    assert SweepStore.save is save_before


def test_pool_workers_spool_their_spans():
    from repro.sweeps import SweepRunner, SweepSpec

    spool = SCRATCH / "selftest-workers"
    shutil.rmtree(spool, ignore_errors=True)
    spec = SweepSpec(protocols=("round-robin", "scenario-b"), n_values=(32,), k_values=(4,), batch=4)
    tracer = Tracer()
    with installed(tracer, spool):
        SweepRunner(workers=2).run(spec)
    assert tracer.calls("protocols") == 0 and tracer.calls("runner.pool_wait") == 1
    merge_spool(tracer, spool)
    shutil.rmtree(spool, ignore_errors=True)
    assert tracer.calls("protocols") == 2
    assert tracer.count("engine.patterns") == 8
    assert 0 < tracer.count("workers.self_s")


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _run(argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(workload, trace):
    proc = _run(
        ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_exits_nonzero_without_result():
    bare = ROOT / ".perfbench" / "tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(["--workload", "paper-quick", "--seed", "0", "--seconds", "1"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _busy(seconds: float) -> None:
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        pass


def test_sampler_probes_inside_the_block_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with Sampler() as sampler:
        _busy(0.3)
    assert len(sampler.samples) >= 3
    assert sampler.spent >= sum(sampler.samples) > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    short = Sampler()
    short.probe_s()
    assert len(short.samples) == speed.MIN_SAMPLES


def test_timed_takes_probe_time_out_and_scales_to_reference():
    rep = Rep(argparse.Namespace(seed=0, index=0, size="tiny", tmp=str(SCRATCH), trace=0))
    _busy(0.1)
    rep.ready()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert rep.setup_spent > 0
    with rep.timed(None):
        with rep.op("warm"):
            _busy(0.2)
    (raw,) = rep.samples["warm"]
    (probe,) = rep.probes
    # The loop ran 0.2 s by the wall clock, the probes included.
    assert 0.15 < raw < 0.2
    assert rep.scaled["warm"] == [pytest.approx(raw * speed.PROBE_REF_S / probe)]
