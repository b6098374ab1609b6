"""Experiment report containers and JSON export."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Union


@dataclass
class ExperimentReport:
    """One regenerated table or figure.

    Attributes
    ----------
    experiment_id:
        Stable identifier, e.g. ``'table1'`` or ``'fig2'``.
    title:
        Human-readable description.
    text:
        The formatted report (what the paper's table would print).
    measured:
        Raw measured values, JSON-serializable.
    paper:
        The paper's reference values for the same quantities (where
        they exist), for side-by-side comparison.
    checks:
        Name -> bool for each reproduction ordering verified.
    provenance:
        Lineage of the pipeline graph that produced the report: one
        :meth:`~repro.orchestration.provenance.Provenance.as_dict`
        record per artifact, in production order (content digests,
        seeds, executor shape, cache traffic).
    """

    experiment_id: str
    title: str
    text: str
    measured: Dict = field(default_factory=dict)
    paper: Dict = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    provenance: List[Dict] = field(default_factory=list)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values()) if self.checks else True

    def failed_checks(self) -> List[str]:
        return [name for name, ok in self.checks.items() if not ok]

    def to_dict(self) -> Dict:
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "text": self.text,
            "measured": self.measured,
            "paper": self.paper,
            "checks": self.checks,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentReport":
        return cls(
            experiment_id=data["experiment_id"],
            title=data["title"],
            text=data["text"],
            measured=data.get("measured", {}),
            paper=data.get("paper", {}),
            checks=data.get("checks", {}),
            provenance=data.get("provenance", []),
        )

    def save_json(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2)
        return path


@dataclass
class ReportRegistry:
    """An ordered collection of experiment reports."""

    reports: List[ExperimentReport] = field(default_factory=list)

    def add(self, report: ExperimentReport) -> None:
        self.reports.append(report)

    def get(self, experiment_id: str) -> ExperimentReport:
        for report in self.reports:
            if report.experiment_id == experiment_id:
                return report
        raise KeyError(f"no report with id {experiment_id!r}")

    @property
    def all_checks_pass(self) -> bool:
        return all(r.all_checks_pass for r in self.reports)

    def render(self) -> str:
        blocks = []
        for report in self.reports:
            status = "OK" if report.all_checks_pass else "CHECKS FAILED"
            blocks.append(
                f"===== {report.experiment_id}: {report.title} [{status}] =====\n"
                f"{report.text}"
            )
        return "\n\n".join(blocks)

    def save_json(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump([r.to_dict() for r in self.reports], f, indent=2)
        return path

    @classmethod
    def load_json(cls, path: Union[str, Path]) -> "ReportRegistry":
        """Reload a registry previously written by :meth:`save_json`."""
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
        return cls(reports=[ExperimentReport.from_dict(d) for d in data])

    def save_provenance(self, path: Union[str, Path]) -> Path:
        """Write only the lineage: ``{experiment_id: [provenance, ...]}``.

        The digests are content-addressed and exclude wall times and
        cache hit/miss counts, so a same-seed re-run of the same code
        reproduces every digest even though its timing fields differ.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lineage = {r.experiment_id: r.provenance for r in self.reports}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(lineage, f, indent=2)
        return path
