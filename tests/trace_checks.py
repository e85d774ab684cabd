"""The invariants every trace must keep, checked record by record.

``conftest.run_cell`` runs :func:`trace_faults` on each trial it runs, so
every acceptance trial and every golden cell is checked. A trace keeps:

- no ``RELAY`` of an id its sender has already sent, whatever the earlier
  send was (origin, burst, wired or relay): duplicate suppression;
- no ``WIRED`` (sender, id, receiver) triple twice;
- every ``RELAY`` admissible under the policy: hops below a hop bound, or
  age below a freshness bound. The age is measured from the id's first
  record, which is never earlier than its creation, so the check never
  reads a copy as older than it is. Ids first sent by an official vehicle
  are exempt, as official priority lifts both bounds;
- record times that never decrease;
- no resolution kind before the trial's first report.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from vanetim.domain import (
    ActionSource,
    RESOLUTION_KINDS,
    RoleKind,
    TA_REPORT_KINDS,
)
from vanetim.netsim import TraceRecord
from vanetim.protocol import BROADCAST_REPORT_KINDS, OFFICIAL_RESPONSE_KINDS
from vanetim.relay import HopLimit, RelayPolicy

#: the kinds a script reports an incident with
REPORT_KINDS = TA_REPORT_KINDS | BROADCAST_REPORT_KINDS | set(OFFICIAL_RESPONSE_KINDS)


def _admitted(policy: RelayPolicy, relay: TraceRecord, first: TraceRecord) -> bool:
    if first.sender_class is RoleKind.OFFICIAL_VEHICLE:
        return True
    if isinstance(policy, HopLimit):
        return relay.hops < policy.max_hops
    return relay.time - first.time < policy.max_age


def _fault(i: int, record: TraceRecord, broken: str) -> str:
    """A fault's line: where in the trace, the record, and what it broke;
    built only for a fault, since formatting every record costs more than
    the checks."""
    return f"record {i} [{record.to_line()}]: {broken}"


def trace_faults(trace: List[TraceRecord], policy: RelayPolicy) -> List[str]:
    """One line per broken invariant, in trace order; empty for a sound trace."""
    faults: List[str] = []
    sent: Set[Tuple[str, str]] = set()
    wired: Set[Tuple[str, str, str]] = set()
    first: Dict[str, TraceRecord] = {}
    reported = False  # whether a report has been sent so far
    last = float("-inf")
    for i, record in enumerate(trace):
        if record.time < last:
            faults.append(_fault(i, record, f"time goes back from {last}"))
        last = record.time
        origin = first.setdefault(record.msg_id, record)
        key = (record.sender, record.msg_id)
        if record.source is ActionSource.RELAY:
            if key in sent:
                faults.append(_fault(i, record, "relays an id its sender has sent before"))
            if not _admitted(policy, record, origin):
                faults.append(_fault(i, record, f"relay not admitted by {policy}"))
        elif record.source is ActionSource.WIRED:
            triple = key + (record.receiver,)
            if triple in wired:
                faults.append(_fault(i, record, "repeats a wired send"))
            wired.add(triple)
        sent.add(key)
        if record.kind in REPORT_KINDS:
            reported = True
        elif record.kind in RESOLUTION_KINDS and not reported:
            faults.append(_fault(i, record, "resolution before any report"))
    return faults
