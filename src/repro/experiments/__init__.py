"""Experiment orchestration: configurations, the E1–E11 registry, and the campaign.

The experiment index in ``DESIGN.md`` maps every claim of the paper to an
experiment; this package contains the code that runs them.  Each experiment is
an :class:`~repro.experiments.campaign.ExperimentDefinition` in
:data:`~repro.experiments.registry.DEFINITIONS` — a ``plan`` function stating
its measurement demand as content-hashable specs, plus a pure ``render`` over
the resolved records.  :func:`~repro.experiments.registry.run_experiment` runs
one of them by ID at an
:class:`~repro.experiments.config.ExperimentScale` and returns an
:class:`~repro.experiments.runner.ExperimentResult` with raw rows, rendered
tables/figures, and bound certificates.
:class:`~repro.experiments.campaign.PaperCampaign` runs all of E1–E11 against
one shared, resumable :class:`~repro.sweeps.store.SweepStore` (``repro paper``
on the command line).  The ``benchmarks/`` tree and ``EXPERIMENTS.md`` are
both generated from this registry so that the numbers in the documentation are
always reproducible by re-running the benchmarks.
"""

from repro.experiments.config import ExperimentScale, QUICK, STANDARD, FULL
from repro.experiments.cache import FamilyCache, shared_cache
from repro.experiments.runner import ExperimentResult
from repro.experiments.campaign import (
    CampaignResult,
    ExperimentDefinition,
    MeasurementSpec,
    PaperCampaign,
    ResolvedSpecs,
    dedup_specs,
    render_campaign_report,
    resolve_specs,
)
from repro.experiments.registry import DEFINITIONS, get_definition, run_experiment
from repro.experiments.report import generate_experiments_report

__all__ = [
    "ExperimentScale",
    "QUICK",
    "STANDARD",
    "FULL",
    "FamilyCache",
    "shared_cache",
    "ExperimentResult",
    "CampaignResult",
    "ExperimentDefinition",
    "MeasurementSpec",
    "PaperCampaign",
    "ResolvedSpecs",
    "dedup_specs",
    "render_campaign_report",
    "resolve_specs",
    "DEFINITIONS",
    "get_definition",
    "run_experiment",
    "generate_experiments_report",
]
