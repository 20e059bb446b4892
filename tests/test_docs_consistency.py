"""Docs-consistency checks: the documentation must cover the real surface.

Cheap text-level assertions keeping README.md and docs/ in lockstep with the
code: every CLI subcommand and every registered workload must be mentioned
where a user would look for it, and the CLI module docstring must not go
stale again (it once advertised "Five subcommands" after the sixth landed).
CI runs this file as a dedicated step so a docs drift fails loudly.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import cli
from repro.workloads import WORKLOADS

REPO_ROOT = Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"
DOCS = REPO_ROOT / "docs"


def _subcommands() -> list:
    """The registered CLI subcommands, introspected from the real parser."""
    parser = cli.build_parser()
    actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    (subparsers,) = actions
    return sorted(subparsers.choices)


@pytest.fixture(scope="module")
def readme_text() -> str:
    assert README.is_file(), "README.md must exist at the repository root"
    return README.read_text()


class TestReadme:
    def test_every_cli_subcommand_is_documented(self, readme_text):
        for command in _subcommands():
            assert command in readme_text, f"README.md does not mention `{command}`"

    def test_every_workload_is_documented(self, readme_text):
        docs_text = readme_text + (DOCS / "workloads.md").read_text()
        for name in WORKLOADS:
            assert name in docs_text, f"workload {name!r} missing from README/docs"

    def test_gated_benchmarks_are_listed(self, readme_text):
        for bench in (
            "bench_batch_throughput.py",
            "bench_randomized_throughput.py",
            "bench_feedback_throughput.py",
            "bench_wakeup_throughput.py",
            "bench_sweep_throughput.py",
            "bench_obs_overhead.py",
            "bench_paper_campaign.py",
            "bench_adversary_search.py",
            "bench_service.py",
        ):
            assert bench in readme_text, f"README.md speedup table misses {bench}"

    def test_paper_campaign_is_documented(self, readme_text):
        # `paper` alone would match prose; require the actual command string
        # and a pointer to the campaign doc.
        assert "repro paper" in readme_text
        assert "docs/campaign.md" in readme_text

    def test_documented_modules_exist(self, readme_text):
        # Every `src/repro/...` path the module map names must exist on disk.
        for match in re.findall(r"`(?:src/repro/|)([a-z_]+)/`", readme_text):
            assert (REPO_ROOT / "src" / "repro" / match).is_dir(), match


class TestDocsDirectory:
    def test_architecture_and_workloads_docs_exist(self):
        assert (DOCS / "architecture.md").is_file()
        assert (DOCS / "workloads.md").is_file()

    def test_workloads_doc_has_a_section_per_generator(self):
        text = (DOCS / "workloads.md").read_text()
        for name in WORKLOADS:
            assert f"### `{name}`" in text, f"docs/workloads.md misses a section for {name!r}"

    def test_campaign_doc_covers_the_contract(self):
        # docs/campaign.md documents the plan/resolve/render pipeline and the
        # resumable store; the anchors below are its load-bearing concepts.
        text = (DOCS / "campaign.md").read_text()
        for anchor in (
            "repro paper",
            "PaperCampaign",
            "MeasurementSpec",
            "config_hash",
            "campaign_manifest.json",
            "store.hits",
            "store.misses",
            "schema",
        ):
            assert anchor in text, f"docs/campaign.md misses {anchor!r}"

    def test_adversary_doc_covers_the_contract(self):
        # docs/adversary.md documents the guided search; the anchors below
        # are its load-bearing concepts — strategies, budget/seed semantics,
        # the certificate format and the replay contract.
        text = (DOCS / "adversary.md").read_text()
        for anchor in (
            "repro adversary",
            "SearchSpec",
            "adversarial_search",
            "SearchCertificate",
            "replay_certificate",
            "anneal",
            "evolution",
            "bandit",
            "budget",
            "spec_hash",
            "config_hash",
            "StoreSchemaError",
            "CertificateSchemaError",
            "worst_case_search",
        ):
            assert anchor in text, f"docs/adversary.md misses {anchor!r}"

    def test_service_doc_covers_the_contract(self):
        # docs/service.md documents the results service; the anchors below
        # are its load-bearing concepts — the four CLI actions, the query
        # normalization gate, the warm/cold semantics and the obs counters.
        text = (DOCS / "service.md").read_text()
        for anchor in (
            "repro service start",
            "repro service query",
            "repro service status",
            "repro service stop",
            "normalize_query",
            "ResultsService",
            "config_hash",
            "X-Repro-Cache",
            "service.hits",
            "service.misses",
            "service.requests",
            "service.request_seconds",
            "service/endpoint.json",
            "single-flight",
            "last-writer-wins",
            "bench_service.py",
        ):
            assert anchor in text, f"docs/service.md misses {anchor!r}"

    def test_architecture_doc_names_the_three_layers(self):
        text = (DOCS / "architecture.md").read_text()
        for anchor in (
            "batch_transmit_slots",
            "run_batch",
            "SCAN_BLOCK_ROWS",
            "SweepRunner",
            "SeedSequence.spawn",
        ):
            assert anchor in text, f"docs/architecture.md misses {anchor!r}"

    def test_every_engine_entry_point_is_documented(self):
        # The engine is the execution core: every public entry point of
        # repro.engine must be covered by the architecture doc, so a new
        # engine cannot land undocumented.
        import repro.engine

        text = (DOCS / "architecture.md").read_text()
        for name in repro.engine.__all__:
            assert name in text, (
                f"docs/architecture.md does not document repro.engine.{name}"
            )


class TestCliDocstring:
    def test_docstring_counts_subcommands_correctly(self):
        commands = _subcommands()
        number_words = {
            4: "Four", 5: "Five", 6: "Six", 7: "Seven", 8: "Eight", 9: "Nine",
            10: "Ten", 11: "Eleven",
        }
        expected = number_words.get(len(commands), str(len(commands)))
        assert f"{expected} subcommands" in cli.__doc__, (
            "cli module docstring is stale: expected it to advertise "
            f"'{expected} subcommands' for {commands}"
        )

    def test_docstring_documents_every_subcommand(self):
        for command in _subcommands():
            assert f"``{command}``" in cli.__doc__, (
                f"cli module docstring does not document `{command}`"
            )

    def test_help_epilog_names_every_subcommand(self):
        # `repro --help` ends with a one-line-per-subcommand epilog; a new
        # subparser must appear there or the top-level help goes stale.
        parser = cli.build_parser()
        assert parser.epilog, "repro parser must carry a subcommand epilog"
        for command in _subcommands():
            assert re.search(
                rf"^\s{{2}}{re.escape(command)}\s{{2,}}\S", parser.epilog, re.M
            ), f"`repro --help` epilog does not list `{command}`"
