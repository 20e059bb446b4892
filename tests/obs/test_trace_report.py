"""Trace summarization: JSONL in, ranked spans and counter totals out."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.report import render_summary, summarize_trace


@pytest.fixture(autouse=True)
def _fresh_session():
    obs.disable()
    yield
    obs.disable()


def _write_trace(path, events):
    path.write_text("".join(json.dumps(e) + "\n" for e in events))


def _real_trace(tmp_path):
    trace = tmp_path / "t.jsonl"
    obs.enable(trace, argv=["repro", "sweep", "run"])
    with obs.span("sweeps.run", total=2):
        with obs.span("engine.chunk_scan", chunk=0):
            pass
        with obs.span("engine.chunk_scan", chunk=1):
            pass
    obs.add("sweeps.configs_resolved", 2)
    obs.gauge("sweeps.job_seconds", 0.5)
    obs.disable()
    return trace


class TestSummarizeTrace:
    def test_summarizes_a_real_trace(self, tmp_path):
        summary = summarize_trace(_real_trace(tmp_path))
        assert not summary.truncated
        assert summary.argv == ["repro", "sweep", "run"]
        assert summary.counters == {"sweeps.configs_resolved": 2}
        assert summary.gauges == {"sweeps.job_seconds": 0.5}
        assert summary.spans["engine.chunk_scan"]["count"] == 2
        assert summary.duration_s is not None
        assert summary.configs_per_sec == pytest.approx(2 / summary.duration_s)

    def test_top_spans_rank_by_cumulative_time(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        _write_trace(
            trace,
            [
                {"type": "span", "name": "slow", "dur_s": 2.0},
                {"type": "span", "name": "fast", "dur_s": 0.1},
                {"type": "span", "name": "fast", "dur_s": 0.2},
            ],
        )
        summary = summarize_trace(trace)
        assert [name for name, *_ in summary.top_spans()] == ["slow", "fast"]
        (_, count, total_s, max_s) = summary.top_spans()[1]
        assert (count, total_s, max_s) == (2, pytest.approx(0.3), 0.2)
        assert summary.top_spans(limit=1) == [("slow", 1, 2.0, 2.0)]

    def test_truncated_trace_falls_back_to_job_events(self, tmp_path):
        # A crashed run has no manifest and may end mid-line.
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            json.dumps({"type": "job", "index": 0, "counters": {"c": 3}})
            + "\n"
            + json.dumps({"type": "job", "index": 1, "counters": {"c": 4}})
            + "\n"
            + '{"type": "spa'  # torn final line
        )
        summary = summarize_trace(trace)
        assert summary.truncated
        assert summary.counters == {"c": 7}
        assert summary.duration_s is None

    def test_parallel_run_ranks_worker_spans(self, tmp_path):
        # Worker processes write no span events; their spans reach the
        # report only through the manifest's merged timings.
        from repro.sweeps import SweepRunner, SweepSpec

        trace = tmp_path / "t.jsonl"
        obs.enable(trace, argv=["repro", "sweep", "run", "--workers", "2"])
        spec = SweepSpec(
            protocols=("scenario-b",), n_values=(128,), k_values=(4, 8), batch=8
        )
        SweepRunner(workers=2).run(spec)
        obs.disable()
        top = [name for name, *_ in summarize_trace(trace).top_spans()]
        assert "sweeps.run" in top
        assert "engine.chunk_scan" in top
        assert "campaign.run" in top

    def test_manifest_timings_replace_span_events(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        timings = {
            "parent": {"count": 1, "total_s": 1.0, "max_s": 1.0},
            "worker": {"count": 3, "total_s": 2.5, "max_s": 1.5},
        }
        _write_trace(
            trace,
            [
                {"type": "span", "name": "parent", "dur_s": 1.0},
                {"type": "manifest", "duration_s": 1.0, "timings": timings},
            ],
        )
        summary = summarize_trace(trace)
        assert not summary.truncated
        assert summary.top_spans() == [
            ("worker", 3, 2.5, 1.5),
            ("parent", 1, 1.0, 1.0),
        ]

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            summarize_trace(tmp_path / "nope.jsonl")


class TestRenderSummary:
    def test_render_covers_all_sections(self, tmp_path):
        text = render_summary(summarize_trace(_real_trace(tmp_path)))
        assert "repro sweep run" in text
        assert "top spans by cumulative time:" in text
        assert "engine.chunk_scan" in text
        assert "counter totals:" in text
        assert "sweeps.configs_resolved" in text
        assert "gauge totals:" in text
        assert "WARNING" not in text

    def test_render_warns_on_truncated_trace(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        _write_trace(trace, [{"type": "span", "name": "s", "dur_s": 1.0}])
        text = render_summary(summarize_trace(trace))
        assert "WARNING" in text
