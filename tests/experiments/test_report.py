"""Tests for repro.experiments.report (EXPERIMENTS.md generation)."""

from __future__ import annotations

from repro.experiments.config import ExperimentScale
from repro.experiments.report import PAPER_CLAIMS, generate_experiments_report, main

TINY = ExperimentScale(
    name="tiny",
    n_values=(32,),
    k_fractions=(0.5,),
    seeds=1,
    patterns_per_seed=1,
    max_slots=50_000,
    adversary_trials=2,
)


class TestPaperClaims:
    def test_every_experiment_has_a_claim(self):
        from repro.experiments.registry import DEFINITIONS

        assert set(PAPER_CLAIMS) == set(DEFINITIONS)


class TestGenerateReport:
    def test_subset_generation(self, tmp_path):
        out = tmp_path / "EXPERIMENTS.md"
        content = generate_experiments_report(TINY, experiment_ids=["E8"], output=out)
        assert out.exists()
        assert "E8" in content
        assert "Paper claim" in content
        assert "```text" in content

    def test_report_mentions_scale(self):
        content = generate_experiments_report(TINY, experiment_ids=["E8"])
        assert "tiny" in content


class TestMain:
    def test_cli_writes_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        exit_code = main(["--scale", "quick", "--experiments", "E8", "--output", str(out)])
        assert exit_code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_unknown_id_is_a_usage_error_before_anything_runs(self, tmp_path, capsys):
        # E1 is valid and listed first: nothing may run, and nothing may be
        # written, before the unknown E99 is rejected.
        out = tmp_path / "report.md"
        for ids in (["E99"], ["E1", "E99"]):
            exit_code = main(["--scale", "quick", "--experiments", *ids, "--output", str(out)])
            assert exit_code == 2
            err = capsys.readouterr().err
            assert "error:" in err and "E99" in err
            assert not out.exists()

    def test_ids_are_case_insensitive(self, tmp_path):
        out = tmp_path / "report.md"
        assert main(["--scale", "quick", "--experiments", "e8", "--output", str(out)]) == 0
        assert "## E8 —" in out.read_text()
