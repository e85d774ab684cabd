"""The incident scenario catalogue and the trace-conformance checker.

Each catalogue entry is a declarative script (who reports what, and who
clears the road) that carries its sequence specification: a partial order
of message patterns with repetition bounds. Every script reports its one
incident at ``REPORT_TIME``, and a scripted clearance runs at
``CLEAR_TIME``. A trial runs on one road, so no script names it. The
checker validates a finished trace against a spec; relayed copies may
interleave freely, so ordering constraints compare first occurrences only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

from .domain import ActionSource, IdentityEnum, MessageKind, RoleKind, role_of_label


REPORT_TIME = 550.0     # seconds: the reporter originates its report
CLEAR_TIME = 850.0      # seconds: a scripted clearance runs


class Clearance(IdentityEnum):
    """Who clears the road at ``CLEAR_TIME``."""

    COORDINATOR = "coordinator"  # the first RSU to hear the report
    REPORTER = "reporter"        # the reporter originates CLEARED_ROAD


# ---------------------------------------------------------------------------
# sequence specifications


@dataclass(frozen=True)
class Step:
    key: str
    kind: MessageKind
    from_role: Optional[RoleKind] = None
    to_role: Optional[RoleKind] = None      # matched against wired receivers
    source: Optional[ActionSource] = None
    min_count: int = 1
    max_count: Optional[int] = None
    after: Tuple[str, ...] = ()


@dataclass(frozen=True)
class SequenceSpec:
    name: str
    steps: Tuple[Step, ...]


@dataclass(frozen=True)
class StepResult:
    key: str
    satisfied: bool
    count: int
    first_index: Optional[int]
    reason: str = ""


@dataclass(frozen=True)
class ConformanceReport:
    name: str
    results: Tuple[StepResult, ...]
    passed: bool

    def summary(self) -> str:
        lines = [f"sequence {self.name}: {'PASS' if self.passed else 'FAIL'}"]
        for result in self.results:
            mark = "ok " if result.satisfied else "VIOLATION"
            lines.append(
                f"  [{mark}] {result.key}: count={result.count}"
                + (f" ({result.reason})" if result.reason else "")
            )
        return "\n".join(lines)


def _matches(record, step: Step) -> bool:
    """Whether a record of ``step.kind`` matches the step's other fields."""
    if step.from_role is not None and record.sender_class is not step.from_role:
        return False
    if step.source is not None and record.source is not step.source:
        return False
    if step.to_role is not None:
        if record.receiver == "*":
            return False
        if role_of_label(record.receiver) is not step.to_role:
            return False
    return True


def check_conformance(trace, spec: SequenceSpec) -> ConformanceReport:
    """Validate a finished trace against a sequence spec.

    Violations are data, not errors: the report lists each constraint with
    the first offending trace index where applicable. One pass over the
    trace tests each record against the steps of its own kind only, and
    keeps nothing per record.
    """
    steps = spec.steps
    of_kind: Dict[MessageKind, List[int]] = {}  # step positions by kind
    for n, step in enumerate(steps):
        of_kind.setdefault(step.kind, []).append(n)
    step_firsts: List[Optional[int]] = [None] * len(steps)
    step_counts = [0] * len(steps)
    for i, record in enumerate(trace):
        for n in of_kind.get(record.kind, ()):
            if _matches(record, steps[n]):
                step_counts[n] += 1
                if step_firsts[n] is None:
                    step_firsts[n] = i
    firsts = {step.key: first for step, first in zip(steps, step_firsts)}
    counts = {step.key: count for step, count in zip(steps, step_counts)}

    results: List[StepResult] = []
    for step in spec.steps:
        n = counts[step.key]
        first = firsts[step.key]
        satisfied = True
        reason = ""
        if n < step.min_count:
            satisfied = False
            reason = f"expected at least {step.min_count}, saw {n}"
        elif step.max_count is not None and n > step.max_count:
            satisfied = False
            reason = f"expected at most {step.max_count}, saw {n}"
        else:
            for prior in step.after:
                prior_first = firsts.get(prior)
                if prior_first is None:
                    satisfied = False
                    reason = f"must follow {prior!r}, which never occurred"
                    break
                if first is not None and first < prior_first:
                    satisfied = False
                    reason = f"occurred at index {first} before {prior!r} at {prior_first}"
                    break
        results.append(StepResult(step.key, satisfied, n, first, reason))
    passed = all(r.satisfied for r in results)
    return ConformanceReport(spec.name, tuple(results), passed)


# ---------------------------------------------------------------------------
# spec catalogue

V = RoleKind.REGULAR_VEHICLE
O = RoleKind.OFFICIAL_VEHICLE
R = RoleKind.RSU
T = RoleKind.TA
ORIGIN = ActionSource.ORIGIN
RELAY = ActionSource.RELAY
BURST = ActionSource.BURST
WIRED = ActionSource.WIRED


def _escalation_steps(report: MessageKind, resolved: MessageKind) -> Tuple[Step, ...]:
    return (
        Step("report", report, from_role=V, source=ORIGIN, max_count=1),
        Step("escalate", report, from_role=R, to_role=T, source=WIRED, after=("report",)),
        Step("resolve", resolved, from_role=T, to_role=R, source=WIRED, after=("escalate",)),
        Step("cleared", MessageKind.CLEARED_ROAD, from_role=R, source=BURST,
             min_count=3, after=("resolve",)),
    )


def _report_steps(report: MessageKind, origin_role: RoleKind = V) -> Tuple[Step, ...]:
    return (
        Step("report", report, from_role=origin_role, source=ORIGIN, max_count=1),
        Step("announce", report, from_role=R, source=BURST, min_count=3, after=("report",)),
        Step("peer-notify", report, from_role=R, to_role=R, source=WIRED,
             min_count=1, after=("report",)),
    )


def _reporter_clear_steps(report: MessageKind) -> Tuple[Step, ...]:
    return _report_steps(report) + (
        Step("clear", MessageKind.CLEARED_ROAD, from_role=V, source=ORIGIN,
             max_count=1, after=("announce",)),
        Step("cleared", MessageKind.CLEARED_ROAD, from_role=R, source=BURST,
             min_count=3, after=("clear",)),
    )


def _attended_steps(report: MessageKind, done: Step) -> Tuple[Step, ...]:
    """A broadcast report an official vehicle addresses, attends and closes
    with ``done``, after which the RSU bursts the road clear."""
    return _report_steps(report) + (
        Step("addressing", MessageKind.ADDRESSING_INCIDENT, from_role=O,
             source=ORIGIN, max_count=1, after=("report",)),
        Step("attending", MessageKind.ATTENDING, from_role=O, source=ORIGIN,
             after=("addressing",)),
        done,
        Step("cleared", MessageKind.CLEARED_ROAD, from_role=R, source=BURST,
             min_count=3, after=(done.key,)),
    )


# ---------------------------------------------------------------------------
# scenario catalogue


@dataclass(frozen=True)
class ScenarioScript:
    """Who reports what, who clears the road, and the trace it must leave.

    Every script reports at ``REPORT_TIME``. With a
    ``clearance`` the road is cleared at ``CLEAR_TIME``; without one an
    official vehicle or the TA resolves the incident, or nothing does.
    """

    name: str
    reporter: str                  # entity label, e.g. "V17" or "P0"
    kind: MessageKind
    spec: SequenceSpec
    clearance: Optional[Clearance] = None
    reporter_index: int = 17       # slot after which officials are spawned
    min_police: int = 0
    responder: Optional[str] = None
    blockage: bool = False
    payload: Optional[str] = None
    services: FrozenSet[str] = frozenset()  # categories the RSUs can name


SCENARIOS: Dict[str, ScenarioScript] = {
    script.name: script
    for script in (
        ScenarioScript(
            name="accident",
            reporter="V17",
            kind=MessageKind.ACCIDENT,
            spec=SequenceSpec("accident-announce", (
                Step("report", MessageKind.ACCIDENT, from_role=V, source=ORIGIN,
                     max_count=1),
                Step("vehicle-relay", MessageKind.ACCIDENT, from_role=V, source=RELAY,
                     after=("report",)),
                Step("rsu-announce", MessageKind.ACCIDENT, from_role=R, source=BURST,
                     min_count=3, after=("report",)),
                Step("avoid", MessageKind.AVOID_ROAD, from_role=R, source=BURST,
                     min_count=3, after=("report",)),
                Step("peer-notify", MessageKind.ACCIDENT, from_role=R, to_role=R,
                     source=WIRED, min_count=1, after=("report",)),
                Step("cleared", MessageKind.CLEARED_ROAD, from_role=R, source=BURST,
                     min_count=3, after=("rsu-announce",)),
                Step("cleared-peer", MessageKind.CLEARED_ROAD, from_role=R, to_role=R,
                     source=WIRED, min_count=1, after=("cleared",)),
            )),
            clearance=Clearance.COORDINATOR,
            blockage=True,
        ),
        ScenarioScript(
            name="accident-police",
            reporter="V17",
            kind=MessageKind.ACCIDENT,
            spec=SequenceSpec("accident-official", (
                Step("report", MessageKind.ACCIDENT, from_role=V, source=ORIGIN,
                     max_count=1),
                Step("addressing", MessageKind.ADDRESSING_INCIDENT, from_role=O,
                     source=ORIGIN, max_count=1, after=("report",)),
                Step("ack", MessageKind.ACK, from_role=R, after=("addressing",)),
                Step("restricted", MessageKind.RESTRICTED_MOVEMENT, from_role=R,
                     after=("addressing",)),
                Step("free-road", MessageKind.FREE_ROAD, from_role=O, source=ORIGIN,
                     after=("ack",)),
                Step("attending", MessageKind.ATTENDING, from_role=O, source=ORIGIN,
                     after=("ack",)),
                Step("sorted", MessageKind.SORTED_ROAD, from_role=O, source=ORIGIN,
                     max_count=1, after=("attending",)),
                Step("cleared", MessageKind.CLEARED_ROAD, from_role=R, source=BURST,
                     min_count=3, after=("sorted",)),
            )),
            min_police=1,
            responder="P0",
            blockage=True,
        ),
        ScenarioScript(
            name="traffic-jam",
            reporter="V17",
            kind=MessageKind.TRAFFIC_JAM,
            spec=SequenceSpec(
                "traffic-jam", _reporter_clear_steps(MessageKind.TRAFFIC_JAM)
            ),
            clearance=Clearance.REPORTER,
        ),
        ScenarioScript(
            name="congestion",
            reporter="V17",
            kind=MessageKind.CONGESTION,
            spec=SequenceSpec(
                "congestion", _reporter_clear_steps(MessageKind.CONGESTION)
            ),
            clearance=Clearance.REPORTER,
        ),
        ScenarioScript(
            name="obstacle",
            reporter="V17",
            kind=MessageKind.OBSTACLE,
            spec=SequenceSpec("obstacle", _attended_steps(
                MessageKind.OBSTACLE,
                Step("removed", MessageKind.OBSTACLE_CLEARED, from_role=O,
                     source=ORIGIN, max_count=1, after=("attending",)),
            )),
            min_police=1,
            responder="P0",
        ),
        ScenarioScript(
            name="diversion",
            reporter="P0",
            kind=MessageKind.DIVERSION,
            spec=SequenceSpec(
                "diversion",
                _report_steps(MessageKind.DIVERSION, origin_role=O) + (
                    Step("cleared", MessageKind.CLEARED_ROAD, from_role=R,
                         source=BURST, min_count=3, after=("announce",)),
                ),
            ),
            clearance=Clearance.COORDINATOR,
            min_police=1,
        ),
        ScenarioScript(
            name="stranded-vehicle",
            reporter="V17",
            kind=MessageKind.STRANDED_VEHICLE,
            spec=SequenceSpec("stranded-vehicle", _attended_steps(
                MessageKind.STRANDED_VEHICLE,
                Step("official-clear", MessageKind.CLEARED_ROAD, from_role=O,
                     source=ORIGIN, max_count=1, after=("attending",)),
            )),
            min_police=1,
            responder="P0",
        ),
        ScenarioScript(
            name="debris",
            reporter="V17",
            kind=MessageKind.DEBRIS,
            spec=SequenceSpec("debris", _escalation_steps(
                MessageKind.DEBRIS, MessageKind.DEBRIS_RESOLVED
            )),
        ),
        ScenarioScript(
            name="service-discovery",
            reporter="V17",
            kind=MessageKind.SERVICE_QUERY,
            spec=SequenceSpec("service-lookup-petrol", (
                Step("query", MessageKind.SERVICE_QUERY, from_role=V, source=ORIGIN,
                     max_count=1),
                Step("reply", MessageKind.SERVICE_REPLY, from_role=R, source=ORIGIN,
                     after=("query",)),
            )),
            payload="petrol-pump",
            services=frozenset({"petrol-pump"}),
        ),
        ScenarioScript(
            name="road-defect",
            reporter="V17",
            kind=MessageKind.ROAD_DEFECT,
            spec=SequenceSpec("road-defect", _escalation_steps(
                MessageKind.ROAD_DEFECT, MessageKind.DEFECT_RESOLVED
            )),
        ),
        ScenarioScript(
            name="flood",
            reporter="V17",
            kind=MessageKind.FLOOD,
            spec=SequenceSpec("flood", _escalation_steps(
                MessageKind.FLOOD, MessageKind.FLOOD_RESOLVED
            )),
        ),
        ScenarioScript(
            name="signal-malfunction",
            reporter="V17",
            kind=MessageKind.SIGNAL_MALFUNCTION,
            spec=SequenceSpec("signal-malfunction", _escalation_steps(
                MessageKind.SIGNAL_MALFUNCTION, MessageKind.SIGNAL_RESOLVED
            )),
        ),
    )
}


def build_scenario(name: str, **overrides) -> ScenarioScript:
    """Look up a catalogue scenario, optionally overriding script fields."""
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; valid names: {known}")
    script = SCENARIOS[name]
    return replace(script, **overrides) if overrides else script


def spec_for(script: ScenarioScript) -> SequenceSpec:
    return script.spec
