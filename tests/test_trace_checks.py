"""Each rule of ``trace_faults`` catches the fault it names."""

import pytest

from trace_checks import trace_faults
from vanetim.domain import ActionSource, MessageKind, role_of_label
from vanetim.netsim import TraceRecord
from vanetim.relay import FRESH60, HOP4

ORIGIN, RELAY, BURST, WIRED = (
    ActionSource.ORIGIN, ActionSource.RELAY, ActionSource.BURST, ActionSource.WIRED
)
ACCIDENT, CLEARED = MessageKind.ACCIDENT, MessageKind.CLEARED_ROAD


def record(time, sender, msg_id, kind=ACCIDENT, hops=0, source=ORIGIN,
           receiver="*", road="X"):
    return TraceRecord(
        time=time, sender=sender, sender_class=role_of_label(sender),
        receiver=receiver, msg_id=msg_id, kind=kind, road=road, hops=hops,
        source=source,
    )


#: a report, an RSU's burst of it, two relays and the road's clearance
SOUND = [
    record(550.0, "V17", "m00000"),
    record(550.01, "RSU6", "m00000", hops=1, source=BURST),
    record(550.01, "RSU6", "m00000", hops=1, source=WIRED, receiver="RSU5"),
    record(585.0, "V3", "m00000", hops=1, source=RELAY),
    record(600.0, "V4", "m00000", hops=2, source=RELAY),
    record(850.0, "V17", "m00001", kind=CLEARED),
]


@pytest.mark.parametrize("policy", [HOP4, FRESH60])
def test_a_sound_trace_has_no_faults(policy):
    assert trace_faults(SOUND, policy) == []


@pytest.mark.parametrize("fault, policy, expected", [
    # an RSU relays the report it burst
    (record(610.0, "RSU6", "m00000", hops=2, source=RELAY), HOP4,
     "relays an id its sender has sent before"),
    # the reporter relays its own report
    (record(610.0, "V17", "m00000", hops=2, source=RELAY), HOP4,
     "relays an id its sender has sent before"),
    (record(610.0, "V5", "m00000", hops=4, source=RELAY), HOP4,
     "relay not admitted"),
    # 60 s after the report's first record
    (record(610.0, "V5", "m00000", hops=1, source=RELAY), FRESH60,
     "relay not admitted"),
    (record(610.0, "RSU6", "m00000", hops=1, source=WIRED, receiver="RSU5"), HOP4,
     "repeats a wired send"),
    (record(549.0, "V5", "m00002"), HOP4, "time goes back"),
    (record(610.0, "RSU6", "m00002", kind=CLEARED, road="Y"), HOP4,
     "resolution before any report on its road"),
])
def test_each_rule_catches_its_fault(fault, policy, expected):
    trace = SOUND[:-1] + [fault]
    (found,) = trace_faults(trace, policy)
    assert expected in found
    assert fault.to_line() in found


def test_an_official_id_passes_either_bound():
    trace = [
        record(600.0, "P0", "m00003", kind=MessageKind.ATTENDING),
        record(700.0, "V5", "m00003", kind=MessageKind.ATTENDING, hops=9,
               source=RELAY),
    ]
    assert trace_faults(trace, HOP4) == trace_faults(trace, FRESH60) == []


def test_other_senders_and_receivers_are_not_repeats():
    trace = SOUND + [
        record(860.0, "RSU6", "m00001", kind=CLEARED, source=WIRED, receiver="RSU5"),
        record(860.0, "RSU6", "m00001", kind=CLEARED, source=WIRED, receiver="RSU7"),
        record(860.01, "RSU7", "m00001", kind=CLEARED, source=WIRED, receiver="RSU6"),
        record(880.0, "V3", "m00001", kind=CLEARED, hops=1, source=RELAY),
    ]
    assert trace_faults(trace, HOP4) == []
