"""Runner helpers and the common result container for experiments.

An experiment produces an :class:`ExperimentResult`: the raw per-configuration
rows (flat dictionaries suitable for CSV export), the rendered tables and
figures destined for EXPERIMENTS.md, and the bound certificates that encode
the pass/fail verdicts.  The measurement helpers wrap the simulator with the
"max/mean over a batch of patterns" conventions every experiment shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro._util import RngLike
from repro.analysis.certificates import BoundCertificate
from repro.channel.protocols import DeterministicProtocol, RandomizedPolicy
from repro.channel.wakeup import WakeupPattern

__all__ = [
    "ExperimentResult",
    "resolve_batch",
    "capped_latencies",
    "measure_latency",
    "worst_latency",
    "mean_latency",
]


@dataclass
class ExperimentResult:
    """Everything an experiment produced.

    Attributes
    ----------
    experiment:
        Identifier (``"E1"`` ... ``"E10"``).
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


def resolve_batch(
    protocol,
    patterns: Sequence[WakeupPattern],
    *,
    max_slots: int = 1_000_000,
    rng: RngLike = None,
):
    """Resolve a pattern batch through the engine for the protocol's kind.

    This is the experiments' single dispatch onto :mod:`repro.engine`:
    deterministic protocols route through
    :func:`~repro.engine.run_deterministic_batch`, randomized policies
    through :func:`~repro.engine.run_randomized_batch` (one
    ``SeedSequence``-spawned child generator per pattern, derived from
    ``rng``).  Returns the columnar :class:`~repro.engine.BatchResult`.
    """
    patterns = list(patterns)
    if isinstance(protocol, DeterministicProtocol):
        from repro.engine import run_deterministic_batch

        return run_deterministic_batch(protocol, patterns, max_slots=max_slots)
    if isinstance(protocol, RandomizedPolicy):
        from repro.engine import run_randomized_batch

        return run_randomized_batch(protocol, patterns, seed=rng, max_slots=max_slots)
    raise TypeError(f"unsupported protocol type {type(protocol).__name__}")


def capped_latencies(
    protocol,
    patterns: Sequence[WakeupPattern],
    *,
    max_slots: int = 1_000_000,
    rng: RngLike = None,
) -> List[int]:
    """Per-pattern latency, with unsolved rows capped at ``max_slots``.

    The forgiving counterpart to :func:`measure_latency` for comparisons that
    include protocols allowed to time out (baseline tables, lower-bound
    probes): instead of raising on an unsolved row it records the horizon as
    the latency, which keeps maxima and ratios well-defined.
    """
    batch = resolve_batch(protocol, patterns, max_slots=max_slots, rng=rng)
    return [
        int(latency) if solved else int(max_slots)
        for solved, latency in zip(batch.solved, batch.latency)
    ]


def measure_latency(
    protocol,
    patterns: Sequence[WakeupPattern],
    *,
    max_slots: int = 1_000_000,
    rng: RngLike = None,
) -> List[int]:
    """Latency (slots from first wake-up to first success) for each pattern.

    Both protocol kinds route through the vectorized batch engine via
    :func:`resolve_batch` (bit-identical outcomes to per-pattern simulation,
    resolved in one shared scan).  A run that does not solve wake-up within
    the horizon raises, because every protocol in the library is supposed to
    succeed and a silent truncation would corrupt the tables.
    """
    batch = resolve_batch(protocol, patterns, max_slots=max_slots, rng=rng)
    return [int(latency) for latency in batch.require_all_solved()]


def worst_latency(
    protocol,
    patterns: Sequence[WakeupPattern],
    *,
    max_slots: int = 1_000_000,
    rng: RngLike = None,
) -> int:
    """Maximum latency over a batch of patterns (the worst-case estimate)."""
    return max(measure_latency(protocol, patterns, max_slots=max_slots, rng=rng))


def mean_latency(
    protocol,
    patterns: Sequence[WakeupPattern],
    *,
    max_slots: int = 1_000_000,
    rng: RngLike = None,
) -> float:
    """Mean latency over a batch of patterns (used for randomized protocols)."""
    return float(np.mean(measure_latency(protocol, patterns, max_slots=max_slots, rng=rng)))
