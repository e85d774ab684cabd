"""Transmission counting and multi-trial aggregation.

Overhead is sender-side only: every trace record is one transmission, and
deliveries are never counted. Wired infrastructure sends are included by
default and tagged so they can be excluded for sensitivity analysis.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .domain import ActionSource, MessageKind, RoleKind

DETAIL_HEADER = "scenario,policy,vehicles,trial,total_transmissions"
AGGREGATE_HEADER = "scenario,policy,vehicles,mean,stddev"

CounterKey = Tuple[MessageKind, RoleKind, ActionSource]


@dataclass
class TrialMetrics:
    counters: Dict[CounterKey, int] = field(default_factory=dict)
    total: int = 0

    def count(self, kind: MessageKind, sender_class: RoleKind, source: ActionSource) -> None:
        key = (kind, sender_class, source)
        self.counters[key] = self.counters.get(key, 0) + 1
        self.total += 1

    def total_excluding_wired(self) -> int:
        return self.total - sum(
            n for (_, _, source), n in self.counters.items()
            if source is ActionSource.WIRED
        )


def aggregate(trials: Sequence[int]) -> Tuple[float, float]:
    """Mean and sample standard deviation of per-trial totals; a single
    trial has stddev 0 by convention."""
    if not trials:
        raise ValueError("aggregate requires at least one trial")
    totals = [float(t) for t in trials]
    mean = statistics.fmean(totals)
    stddev = statistics.stdev(totals) if len(totals) > 1 else 0.0
    return mean, stddev


@dataclass(frozen=True)
class SweepRow:
    scenario: str
    policy: str
    vehicles: int
    trial: int
    total: int


@dataclass
class SweepResult:
    rows: List[SweepRow] = field(default_factory=list)

    def add(self, row: SweepRow) -> None:
        self.rows.append(row)

    def cells(self) -> List[Tuple[str, str, int]]:
        order: List[Tuple[str, str, int]] = []
        for row in self.rows:
            cell = (row.scenario, row.policy, row.vehicles)
            if cell not in order:
                order.append(cell)
        return order

    def totals(self, scenario: str, policy: str, vehicles: int) -> List[int]:
        return [
            r.total
            for r in self.rows
            if (r.scenario, r.policy, r.vehicles) == (scenario, policy, vehicles)
        ]

    def aggregates(self) -> List[Tuple[str, str, int, float, float]]:
        out = []
        for scenario, policy, vehicles in self.cells():
            mean, stddev = aggregate(self.totals(scenario, policy, vehicles))
            out.append((scenario, policy, vehicles, mean, stddev))
        return out

    def mean(self, scenario: str, policy: str, vehicles: int) -> float:
        return aggregate(self.totals(scenario, policy, vehicles))[0]


def export_csv(sweep: SweepResult, path) -> None:
    """Write the detail rows and the aggregate section with fixed headers."""
    lines = [DETAIL_HEADER]
    for row in sweep.rows:
        lines.append(
            f"{row.scenario},{row.policy},{row.vehicles},{row.trial},{row.total}"
        )
    lines.append(AGGREGATE_HEADER)
    for scenario, policy, vehicles, mean, stddev in sweep.aggregates():
        lines.append(f"{scenario},{policy},{vehicles},{mean!r},{stddev!r}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path}: {exc}") from exc


def parse_csv(path) -> Tuple[SweepResult, List[Tuple[str, str, int, float, float]]]:
    """Read a sweep CSV back; raises ValueError with a line number on junk:
    a row of other than five fields, a non-finite mean or stddev, or a
    (scenario, policy, vehicles) aggregate given twice."""
    sweep = SweepResult()
    aggregates: List[Tuple[str, str, int, float, float]] = []
    cells = set()
    section = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line == DETAIL_HEADER:
                section = "detail"
                continue
            if line == AGGREGATE_HEADER:
                section = "aggregate"
                continue
            parts = line.split(",")
            try:
                if len(parts) != 5:
                    raise ValueError(f"{len(parts)} fields, not 5")
                if section == "detail":
                    sweep.add(
                        SweepRow(parts[0], parts[1], int(parts[2]), int(parts[3]), int(parts[4]))
                    )
                    continue
                if section != "aggregate":
                    raise ValueError("data before any section header")
                row = (parts[0], parts[1], int(parts[2]), float(parts[3]), float(parts[4]))
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed row: {line!r}") from exc
            # a NaN mean compares false both ways, so it would pass any check
            if not (math.isfinite(row[3]) and math.isfinite(row[4])):
                raise ValueError(f"{path}:{lineno}: non-finite mean or stddev: {line!r}")
            if row[:3] in cells:
                raise ValueError(f"{path}:{lineno}: aggregate given twice: {line!r}")
            cells.add(row[:3])
            aggregates.append(row)
    return sweep, aggregates
