import pytest

from vanetim.domain import ActionSource, MessageKind, RoleKind
from vanetim.netsim import ROAD, Engine, TraceRecord, TrialSetup
from vanetim.relay import HOP4
from vanetim.scenarios import (
    REPORT_TIME,
    SCENARIOS,
    Clearance,
    SequenceSpec,
    Step,
    build_scenario,
    check_conformance,
    spec_for,
)


def rec(kind, sender="V17", source=ActionSource.ORIGIN, receiver="*", time=550.0):
    from vanetim.domain import role_of_label

    return TraceRecord(
        time=time,
        sender=sender,
        sender_class=role_of_label(sender),
        receiver=receiver,
        msg_id="m00000",
        kind=kind,
        hops=0,
        source=source,
    )


class TestCatalogue:
    def test_twelve_scenarios(self):
        assert len(SCENARIOS) == 12

    def test_every_scenario_has_a_spec(self):
        for script in SCENARIOS.values():
            assert spec_for(script) is script.spec
            assert script.spec.steps

    def test_accident_script_shape(self):
        script = build_scenario("accident")
        assert script.reporter == "V17"
        assert script.clearance is Clearance.COORDINATOR
        assert (ROAD, REPORT_TIME) == ("X", 550.0)

    def test_clearances(self):
        clearances = {name: script.clearance for name, script in SCENARIOS.items()}
        assert {n for n, c in clearances.items() if c is Clearance.COORDINATOR} == {
            "accident", "diversion"
        }
        assert {n for n, c in clearances.items() if c is Clearance.REPORTER} == {
            "traffic-jam", "congestion"
        }

    def test_flood_is_authority_resolved(self):
        # no scripted clearance: the TA's resolution notice closes it
        assert build_scenario("flood").clearance is None

    def test_service_discovery_has_no_resolution(self):
        script = build_scenario("service-discovery")
        assert script.clearance is None
        assert script.kind is MessageKind.SERVICE_QUERY
        assert script.payload == "petrol-pump"

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(KeyError, match="accident"):
            build_scenario("earthquake")

    def test_overrides(self):
        script = build_scenario("accident", reporter="V3")
        assert script.reporter == "V3"
        assert build_scenario("accident").reporter == "V17"  # catalogue intact


@pytest.fixture(scope="module")
def accident_trace():
    setup = TrialSetup(script=build_scenario("accident"), policy=HOP4, vehicles=19)
    trace, _ = Engine(setup, 1).run()
    return trace


class TestConformance:
    def test_valid_accident_trace_passes(self, accident_trace):
        report = check_conformance(
            accident_trace, SCENARIOS["accident"].spec
        )
        assert report.passed, report.summary()

    def test_summary_mentions_each_step(self, accident_trace):
        report = check_conformance(
            accident_trace, SCENARIOS["accident"].spec
        )
        text = report.summary()
        for step in SCENARIOS["accident"].spec.steps:
            assert step.key in text

    def test_cleared_before_report_is_a_violation(self):
        trace = [
            rec(MessageKind.CLEARED_ROAD, sender="RSU0", source=ActionSource.BURST),
            rec(MessageKind.ACCIDENT),
        ]
        spec = SequenceSpec(
            "toy",
            (
                Step("report", MessageKind.ACCIDENT, from_role=RoleKind.REGULAR_VEHICLE),
                Step("cleared", MessageKind.CLEARED_ROAD, after=("report",)),
            ),
        )
        report = check_conformance(trace, spec)
        assert not report.passed
        failing = {r.key for r in report.results if not r.satisfied}
        assert failing == {"cleared"}

    def test_repetition_bound_violation(self):
        # an RSU repeating a derived warning four times where two are allowed
        trace = [rec(MessageKind.ACCIDENT)] + [
            rec(MessageKind.AVOID_ROAD, sender="RSU0", source=ActionSource.BURST)
            for _ in range(4)
        ]
        spec = SequenceSpec(
            "toy",
            (
                Step("report", MessageKind.ACCIDENT),
                Step(
                    "avoid",
                    MessageKind.AVOID_ROAD,
                    from_role=RoleKind.RSU,
                    min_count=2,
                    max_count=2,
                    after=("report",),
                ),
            ),
        )
        report = check_conformance(trace, spec)
        assert not report.passed
        (violation,) = [r for r in report.results if not r.satisfied]
        assert violation.count == 4
        assert "at most 2" in violation.reason

    def test_missing_step_is_a_violation(self):
        trace = [rec(MessageKind.ACCIDENT)]
        spec = SequenceSpec(
            "toy",
            (
                Step("report", MessageKind.ACCIDENT),
                Step("cleared", MessageKind.CLEARED_ROAD, after=("report",)),
            ),
        )
        report = check_conformance(trace, spec)
        assert not report.passed

    def test_wired_step_matches_receiver_role(self):
        trace = [
            rec(MessageKind.ACCIDENT),
            rec(
                MessageKind.DEBRIS,
                sender="RSU0",
                receiver="TA",
                source=ActionSource.WIRED,
            ),
        ]
        step = Step(
            "escalate",
            MessageKind.DEBRIS,
            from_role=RoleKind.RSU,
            to_role=RoleKind.TA,
            source=ActionSource.WIRED,
        )
        report = check_conformance(trace, SequenceSpec("toy", (step,)))
        assert report.passed
        # a radio broadcast of the same kind must not satisfy a wired step
        radio = [rec(MessageKind.DEBRIS, sender="RSU0", source=ActionSource.WIRED)]
        assert not check_conformance(radio, SequenceSpec("toy", (step,))).passed
