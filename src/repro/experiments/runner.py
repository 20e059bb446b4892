"""The common result container for experiments.

An experiment produces an :class:`ExperimentResult`: the raw per-configuration
rows (flat dictionaries suitable for CSV export), the rendered tables and
figures destined for EXPERIMENTS.md, and the bound certificates that encode
the pass/fail verdicts.  The "worst/mean latency over a batch of patterns"
conventions live on :class:`~repro.experiments.campaign.ResolvedSpecs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.certificates import BoundCertificate

__all__ = ["ExperimentResult"]


@dataclass
class ExperimentResult:
    """Everything an experiment produced.

    Attributes
    ----------
    experiment:
        Identifier (``"E1"`` ... ``"E11"``).
    title:
        Human-readable title (matches DESIGN.md's experiment index).
    scale:
        Name of the :class:`~repro.experiments.config.ExperimentScale` used.
    rows:
        Flat per-configuration dictionaries (exported to CSV by the harness).
    tables:
        Rendered text tables keyed by a short name.
    figures:
        Rendered ASCII figures keyed by a short name.
    certificates:
        Bound certificates produced by the experiment.
    notes:
        Free-form remarks (e.g. which substitutions were exercised).
    """

    experiment: str
    title: str
    scale: str
    rows: List[Dict] = field(default_factory=list)
    tables: Dict[str, str] = field(default_factory=dict)
    figures: Dict[str, str] = field(default_factory=dict)
    certificates: List[BoundCertificate] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def all_certificates_hold(self) -> bool:
        """True iff every certificate attached to the experiment holds."""
        return all(cert.holds for cert in self.certificates)

    def summary(self) -> str:
        """Multi-line summary: title, certificates, then tables."""
        lines = [f"{self.experiment}: {self.title} (scale={self.scale})"]
        for cert in self.certificates:
            lines.append("  " + cert.describe())
        for note in self.notes:
            lines.append("  note: " + note)
        for name, table in self.tables.items():
            lines.append("")
            lines.append(f"-- {name} --")
            lines.append(table)
        for name, figure in self.figures.items():
            lines.append("")
            lines.append(f"-- {name} --")
            lines.append(figure)
        return "\n".join(lines)
