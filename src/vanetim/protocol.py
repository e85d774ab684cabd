"""Per-role message handlers.

Handlers are pure functions of (state, event): they mutate only the state
they are given and return a list of outgoing actions for the engine to
execute. No handler performs I/O or touches the event queue directly.

A timer names its callback: an :class:`Arm` carries the function, and its
arguments, that the engine calls back on the arming entity's state when the
timer fires.

Handlers address other entities by their engine slot: a ``Wired`` target,
an RSU's two backbone peers, its TA and the TA's reporting RSU are ints.
An RSU handler is told only the sender's :class:`RoleKind`.

Every trial runs on one road, so no message, state or timer names it. An
RSU keeps one :class:`IncidentStatus` (``None`` until a report opens an
incident), and an official vehicle at most one incident. The status moves
forward only, except that a resolved road may open a fresh incident.

Timings that the source material leaves open (burst spacing, periodic
announcement intervals, authority service delay, official-vehicle travel
and on-site service time) are module constants, the same in every run.

A state holds no identity of its own: the engine keeps each slot's role
and label, and a handler originates a message as its own
:class:`RoleKind`. Only RSUs and official vehicles keep a state. No handler
reads or writes the ids an entity has sent or received: the engine keeps
them, and tells ``handle_rsu`` whether a receipt is the first of its id.
The TA's handler and the relay decision run on first receipts only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple, Union,
)

from .domain import (
    ActionSource,
    IdentityEnum,
    Message,
    MessageIdSource,
    MessageKind,
    RESOLUTION_FOR,
    RESOLUTION_KINDS,
    RoleKind,
    TA_REPORT_KINDS,
    make_message,
)
from .relay import RelayPolicy, should_relay


class ProtocolOrderError(RuntimeError):
    """An event arrived out of the order the incident lifecycle allows."""


# ---------------------------------------------------------------------------
# outgoing actions


class Broadcast(NamedTuple):
    message: Message
    at: float
    source: ActionSource
    downstream_only: bool = False


class Wired(NamedTuple):
    message: Message
    to: int  # slot of the receiving RSU or TA
    at: float


class Arm(NamedTuple):
    """Request a timer: at ``at`` the engine calls
    ``fn(state, *args, at, ids=ids)`` on the arming entity's state."""

    at: float
    fn: Callable[..., List["OutgoingAction"]]
    args: tuple


OutgoingAction = Union[Broadcast, Wired, Arm]


BURST_INTERVAL = 2.0       # spacing between repeats within one burst
CLEARED_REPEATS = 3        # road-clear re-announcements per RSU
ATTENDING_PERIOD = 5.0     # official-vehicle periodic announcements
RESTRICTED_PERIOD = 10.0   # restricted-movement re-announcements
REPORT_PERIOD = 10.0       # RSU re-announcement of open reports
TA_SERVICE_DELAY = 60.0    # authority turnaround for escalations
TRAVEL_TIME = 60.0         # official vehicle: acknowledgement -> arrival
SERVICE_TIME = 120.0       # official vehicle: arrival -> resolution


# ---------------------------------------------------------------------------
# incident status and RSU rebroadcast rule table


class IncidentStatus(IdentityEnum):
    OPEN = "open"
    BEING_ATTENDED = "being-attended"
    RESOLVED = "resolved"


_FORWARD = {
    IncidentStatus.OPEN: {IncidentStatus.BEING_ATTENDED, IncidentStatus.RESOLVED},
    IncidentStatus.BEING_ATTENDED: {IncidentStatus.RESOLVED},
    IncidentStatus.RESOLVED: set(),
}


#: ``(same, avoid_road)`` burst counts per (incoming kind, sender class,
#: first-receipt flag): repeats of the received copy, then of a derived
#: AVOID_ROAD notice. A receipt with no row is not rebroadcast.
DEFAULT_RULE_ROWS: Dict[Tuple[MessageKind, RoleKind, bool], Tuple[int, int]] = {
    (MessageKind.ACCIDENT, RoleKind.REGULAR_VEHICLE, True): (3, 3),
    (MessageKind.ACCIDENT, RoleKind.REGULAR_VEHICLE, False): (2, 0),
    (MessageKind.ACCIDENT, RoleKind.RSU, True): (2, 2),
    (MessageKind.AVOID_ROAD, RoleKind.REGULAR_VEHICLE, True): (2, 0),
    (MessageKind.AVOID_ROAD, RoleKind.RSU, True): (3, 0),
}


#: Report kinds an RSU announces itself rather than escalating or relaying.
BROADCAST_REPORT_KINDS = frozenset(
    {
        MessageKind.TRAFFIC_JAM,
        MessageKind.CONGESTION,
        MessageKind.OBSTACLE,
        MessageKind.STRANDED_VEHICLE,
        MessageKind.DIVERSION,
    }
)


# ---------------------------------------------------------------------------
# entity state


@dataclass
class RsuState:
    ta: int                           # slot of the TA
    neighbours: Tuple[int, ...] = ()  # slots of the backbone ring's two peers
    services: FrozenSet[str] = frozenset()  # service categories it can name
    status: Optional[IncidentStatus] = None  # None: no incident yet
    reburst: Set[str] = field(default_factory=set)  # accident ids re-burst on a repeat
    announcing: Optional[Message] = None
    restricted: Optional[Message] = None


class OfficialPhase(IdentityEnum):
    ADDRESSING = "addressing"
    EN_ROUTE = "en-route"
    ON_SITE = "on-site"
    DONE = "done"


@dataclass
class OfficialIncident:
    report: Message
    addressing_id: str
    phase: OfficialPhase = OfficialPhase.ADDRESSING


@dataclass
class OfficialState:
    responder: bool = True
    incident: Optional[OfficialIncident] = None


#: kinds an official vehicle responds to in person
OFFICIAL_RESPONSE_KINDS = {
    MessageKind.ACCIDENT: MessageKind.SORTED_ROAD,
    MessageKind.OBSTACLE: MessageKind.OBSTACLE_CLEARED,
    MessageKind.STRANDED_VEHICLE: MessageKind.CLEARED_ROAD,
}


# ---------------------------------------------------------------------------
# shared relay decision


def relay_decision(
    msg: Message, policy: RelayPolicy, now: float
) -> List[OutgoingAction]:
    """Forward a first-received copy if the policy admits it.

    The engine calls this at most once per (entity, id): only an entity's
    first receipt of an id, one it has not sent either, schedules it. The
    copy is retransmitted as received: its hop count was already advanced
    when the radio delivery happened, so a hop-limit policy sees the number
    of transmissions the copy has traversed.
    """
    if not should_relay(policy, msg, now):
        return []
    return [Broadcast(msg, at=now, source=ActionSource.RELAY)]


# ---------------------------------------------------------------------------
# RSU handlers


def _burst(msg: Message, count: int, now: float) -> List[OutgoingAction]:
    return [
        Broadcast(msg, at=now + i * BURST_INTERVAL, source=ActionSource.BURST)
        for i in range(count)
    ]


def handle_rsu(
    state: RsuState,
    msg: Message,
    sender: RoleKind,
    first: bool,
    now: float,
    *,
    ids: MessageIdSource,
) -> List[OutgoingAction]:
    """Dispatch one received message of a kind in ``RSU_HANDLERS`` through
    the RSU's announcement rules; ``first`` says that the RSU has neither
    sent nor received its id before. Any other kind is a plain relay
    candidate, which the engine holds instead."""
    return RSU_HANDLERS[msg.kind](state, msg, sender, first, now, ids)


def _open(state: RsuState) -> None:
    """Open an incident; a resolved road starts a fresh episode."""
    if state.status in (None, IncidentStatus.RESOLVED):
        state.status = IncidentStatus.OPEN


def advance_incident(state: RsuState, to: IncidentStatus) -> None:
    """Move the incident forward to ``to``; a backward transition, or one
    with no incident open, is out of order."""
    current = state.status
    if current is None:
        raise ProtocolOrderError("no incident open")
    if to is current:
        return
    if to not in _FORWARD[current]:
        raise ProtocolOrderError(f"illegal transition {current.value} -> {to.value}")
    state.status = to


def _rsu_table_driven(
    state: RsuState,
    msg: Message,
    sender: RoleKind,
    first: bool,
    now: float,
    ids: MessageIdSource,
) -> List[OutgoingAction]:
    """Burst as the rule table says. The one repeat with a row, an accident
    heard again from a vehicle, re-bursts once per id."""
    if state.status is IncidentStatus.RESOLVED:
        return []
    row = DEFAULT_RULE_ROWS.get((msg.kind, sender, first))
    if row is None:
        return []
    if not first:
        if msg.id in state.reburst:
            return []
        state.reburst.add(msg.id)

    same, avoid = row
    if msg.kind is MessageKind.ACCIDENT:
        _open(state)
    actions: List[OutgoingAction] = list(_burst(msg, same, now))
    if avoid:
        derived = make_message(
            MessageKind.AVOID_ROAD, RoleKind.RSU, now, ids=ids, correlation=msg.id
        )
        actions.extend(_burst(derived, avoid, now + same * BURST_INTERVAL))
    if msg.kind is MessageKind.ACCIDENT and first and sender is not RoleKind.RSU:
        actions.extend(Wired(msg, to=n, at=now) for n in state.neighbours)
    return actions


def _rsu_escalate(
    state: RsuState,
    msg: Message,
    sender: RoleKind,
    first: bool,
    now: float,
    ids: MessageIdSource,
) -> List[OutgoingAction]:
    """Authority-class reports go straight to the TA over the wired link."""
    if not first:
        return []
    _open(state)
    return [Wired(msg, to=state.ta, at=now)]


def _rsu_announce_report(
    state: RsuState,
    msg: Message,
    sender: RoleKind,
    first: bool,
    now: float,
    ids: MessageIdSource,
) -> List[OutgoingAction]:
    """Announce an open report three times, notify peers, then re-announce
    periodically until the road is cleared."""
    if state.status is IncidentStatus.RESOLVED:
        return []
    if not first:
        return []
    _open(state)
    state.announcing = msg
    actions: List[OutgoingAction] = list(_burst(msg, 3, now))
    # flood along the backbone ring so every zone learns of the incident;
    # message-id dedup terminates the flood after one lap
    actions.extend(Wired(msg, to=n, at=now) for n in state.neighbours)
    actions.append(Arm(now + 3 * BURST_INTERVAL, rsu_report_tick, ()))
    return actions


def _rsu_acknowledge_official(
    state: RsuState,
    msg: Message,
    sender: RoleKind,
    first: bool,
    now: float,
    ids: MessageIdSource,
) -> List[OutgoingAction]:
    """Acknowledge an official vehicle's own addressing notice, and announce
    restricted movement on a road not yet restricted."""
    if not first or sender is not RoleKind.OFFICIAL_VEHICLE:
        return []
    ack = make_message(MessageKind.ACK, RoleKind.RSU, now, ids=ids, correlation=msg.id)
    actions: List[OutgoingAction] = [
        Broadcast(ack, at=now, source=ActionSource.ORIGIN)
    ]
    _open(state)
    advance_incident(state, IncidentStatus.BEING_ATTENDED)
    if state.restricted is None:
        restricted = make_message(
            MessageKind.RESTRICTED_MOVEMENT,
            RoleKind.RSU,
            now,
            ids=ids,
            correlation=msg.id,
        )
        state.restricted = restricted
        actions.append(Broadcast(restricted, at=now, source=ActionSource.ORIGIN))
        actions.append(Arm(now + RESTRICTED_PERIOD, rsu_restricted_tick, ()))
    return actions


def _rsu_resolution(
    state: RsuState,
    msg: Message,
    sender: RoleKind,
    first: bool,
    now: float,
    ids: MessageIdSource,
) -> List[OutgoingAction]:
    """Close the incident and spread the road-clear status.

    A first-received clearance is flooded along the backbone ring so every
    zone hears it (message-id dedup terminates the flood). If this RSU
    holds an open incident, it also resolves the incident and announces the
    road-clear status ``CLEARED_REPEATS`` times; a clearance with no open
    incident is only forwarded.
    """
    actions: List[OutgoingAction] = []
    if first:
        actions.extend(Wired(msg, to=n, at=now) for n in state.neighbours)
    if state.status in (None, IncidentStatus.RESOLVED):
        return actions
    if msg.kind is MessageKind.CLEARED_ROAD:
        return actions + _close(state, msg, now)
    cleared = make_message(
        MessageKind.CLEARED_ROAD, RoleKind.RSU, now, ids=ids, correlation=msg.id
    )
    actions.extend(_close(state, cleared, now))
    actions.extend(Wired(cleared, to=n, at=now) for n in state.neighbours)
    return actions


def _close(state: RsuState, cleared: Message, now: float) -> List[OutgoingAction]:
    """Resolve the incident, stop re-announcing it, and burst ``cleared``
    ``CLEARED_REPEATS`` times."""
    advance_incident(state, IncidentStatus.RESOLVED)
    state.announcing = None
    state.restricted = None
    return _burst(cleared, CLEARED_REPEATS, now)


def _rsu_service_query(
    state: RsuState,
    msg: Message,
    sender: RoleKind,
    first: bool,
    now: float,
    ids: MessageIdSource,
) -> List[OutgoingAction]:
    """Answer a service lookup: the reply carries the category if it is
    registered, ``no-result`` otherwise."""
    if not first:
        return []
    category = msg.payload or ""
    reply = make_message(
        MessageKind.SERVICE_REPLY,
        RoleKind.RSU,
        now,
        ids=ids,
        correlation=msg.id,
        payload=category if category in state.services else "no-result",
    )
    return [Broadcast(reply, at=now, source=ActionSource.ORIGIN)]


#: what an RSU does itself on receipt, by kind; any other kind is a plain relay
RSU_HANDLERS: Dict[MessageKind, Callable[..., List[OutgoingAction]]] = {
    MessageKind.ACCIDENT: _rsu_table_driven,
    MessageKind.AVOID_ROAD: _rsu_table_driven,
    MessageKind.ADDRESSING_INCIDENT: _rsu_acknowledge_official,
    MessageKind.SERVICE_QUERY: _rsu_service_query,
    **dict.fromkeys(RESOLUTION_KINDS, _rsu_resolution),
    **dict.fromkeys(TA_REPORT_KINDS, _rsu_escalate),
    **dict.fromkeys(BROADCAST_REPORT_KINDS, _rsu_announce_report),
}


def rsu_scripted_resolution(
    state: RsuState, now: float, *, ids: MessageIdSource
) -> List[OutgoingAction]:
    """Timed clearance for runs with no attending entity: the coordinating
    RSU originates the road-clear flow itself."""
    if state.status in (None, IncidentStatus.RESOLVED):
        return []
    cleared = make_message(MessageKind.CLEARED_ROAD, RoleKind.RSU, now, ids=ids)
    actions = _close(state, cleared, now)
    actions.extend(Wired(cleared, to=n, at=now) for n in state.neighbours)
    return actions


def rsu_report_tick(
    state: RsuState, now: float, *, ids: MessageIdSource
) -> List[OutgoingAction]:
    """Re-announce an open report until the road is cleared."""
    msg = state.announcing
    if msg is None or state.status is IncidentStatus.RESOLVED:
        return []
    return [
        Broadcast(msg, at=now, source=ActionSource.BURST),
        Arm(now + REPORT_PERIOD, rsu_report_tick, ()),
    ]


def rsu_restricted_tick(
    state: RsuState, now: float, *, ids: MessageIdSource
) -> List[OutgoingAction]:
    """Re-announce restricted movement while the incident is attended."""
    msg = state.restricted
    if msg is None or state.status is not IncidentStatus.BEING_ATTENDED:
        return []
    return [
        Broadcast(msg, at=now, source=ActionSource.BURST),
        Arm(now + RESTRICTED_PERIOD, rsu_restricted_tick, ()),
    ]


# ---------------------------------------------------------------------------
# official vehicles


def handle_official(
    state: OfficialState, msg: Message, now: float, *, ids: MessageIdSource
) -> List[OutgoingAction]:
    """Address a report this vehicle responds to; set off on the RSU's
    acknowledgement of the addressing notice."""
    if msg.kind in OFFICIAL_RESPONSE_KINDS and state.responder:
        if state.incident is not None:
            return []
        addressing = make_message(
            MessageKind.ADDRESSING_INCIDENT,
            RoleKind.OFFICIAL_VEHICLE,
            now,
            ids=ids,
            correlation=msg.id,
        )
        state.incident = OfficialIncident(report=msg, addressing_id=addressing.id)
        return [Broadcast(addressing, at=now, source=ActionSource.ORIGIN)]
    if msg.kind is MessageKind.ACK:
        incident = state.incident
        if (
            incident is None
            or msg.correlation != incident.addressing_id
            or incident.phase is not OfficialPhase.ADDRESSING
        ):
            return []
        incident.phase = OfficialPhase.EN_ROUTE
        return [
            Arm(now, official_announce, ()),
            Arm(now + TRAVEL_TIME, official_arrival, ()),
        ]
    return []


def official_announce(
    state: OfficialState, now: float, *, ids: MessageIdSource
) -> List[OutgoingAction]:
    """Periodic free-road notice downstream, plus an attending notice while
    en route, until the incident is done."""
    incident = state.incident
    if incident is None or incident.phase is OfficialPhase.DONE:
        return []
    actions: List[OutgoingAction] = []
    free = make_message(
        MessageKind.FREE_ROAD,
        RoleKind.OFFICIAL_VEHICLE,
        now,
        ids=ids,
        correlation=incident.report.id,
    )
    actions.append(
        Broadcast(free, at=now, source=ActionSource.ORIGIN, downstream_only=True)
    )
    if incident.phase is OfficialPhase.EN_ROUTE:
        attending = make_message(
            MessageKind.ATTENDING,
            RoleKind.OFFICIAL_VEHICLE,
            now,
            ids=ids,
            correlation=incident.report.id,
        )
        actions.append(Broadcast(attending, at=now, source=ActionSource.ORIGIN))
    actions.append(Arm(now + ATTENDING_PERIOD, official_announce, ()))
    return actions


def official_arrival(
    state: OfficialState, now: float, *, ids: MessageIdSource
) -> List[OutgoingAction]:
    """On site: the incident is resolved after the service time."""
    incident = state.incident
    if incident is None:
        raise ProtocolOrderError("arrival with no incident")
    incident.phase = OfficialPhase.ON_SITE
    return [Arm(now + SERVICE_TIME, official_resolve, ())]


def official_resolve(
    state: OfficialState, now: float, *, ids: MessageIdSource
) -> List[OutgoingAction]:
    """Announce the incident's resolution notice once."""
    incident = state.incident
    if incident is None or incident.phase is OfficialPhase.DONE:
        raise ProtocolOrderError("resolution with no open incident")
    incident.phase = OfficialPhase.DONE
    done_kind = OFFICIAL_RESPONSE_KINDS[incident.report.kind]
    done = make_message(
        done_kind,
        RoleKind.OFFICIAL_VEHICLE,
        now,
        ids=ids,
        correlation=incident.report.id,
    )
    return [Broadcast(done, at=now, source=ActionSource.ORIGIN)]


# ---------------------------------------------------------------------------
# traffic authority


def handle_ta(msg: Message, now: float, *, reporting_rsu: int) -> List[OutgoingAction]:
    """Schedule a resolution notice for a first-received report back to the
    reporting RSU, the authority's service delay later; non-authority kinds
    are dropped."""
    if msg.kind not in TA_REPORT_KINDS:
        return []
    args = (msg.kind, msg.id, reporting_rsu)
    return [Arm(now + TA_SERVICE_DELAY, ta_resolve, args)]


def ta_resolve(
    state: None,
    kind: MessageKind,
    report_id: str,
    reporting_rsu: int,
    now: float,
    *,
    ids: MessageIdSource,
) -> List[OutgoingAction]:
    """The authority's resolution notice, wired to the reporting RSU; the
    TA keeps no state, so ``state`` is None."""
    resolution = make_message(
        RESOLUTION_FOR[kind], RoleKind.TA, now, ids=ids, correlation=report_id
    )
    return [Wired(resolution, to=reporting_rsu, at=now)]


# ---------------------------------------------------------------------------
# local condition detectors


class SpeedHistory:
    """Incremental run tracking over time-ordered speed samples.

    Keeps only when the current stationary and slow-band episodes began, and
    whether each episode already produced a report, so each episode reports
    at most once.
    """

    STATIONARY_SPEED = 0.1   # m/s
    BAND_LOW = 1.0           # m/s
    BAND_HIGH = 13.0         # m/s

    def __init__(self) -> None:
        self.last_time: Optional[float] = None
        self.stationary_since: Optional[float] = None
        self.band_since: Optional[float] = None
        self.jam_reported = False
        self.congestion_reported = False

    def record(self, now: float, speed: float) -> None:
        if self.last_time is not None and now <= self.last_time:
            raise ValueError("samples must be strictly increasing in time")
        self.last_time = now

        if speed < self.STATIONARY_SPEED:
            if self.stationary_since is None:
                self.stationary_since = now
        else:
            self.stationary_since = None
            self.jam_reported = False

        if self.BAND_LOW <= speed <= self.BAND_HIGH:
            if self.band_since is None:
                self.band_since = now
        else:
            self.band_since = None
            self.congestion_reported = False


def detect_jam(
    history: SpeedHistory,
    queue_ahead: bool,
    now: float,
    *,
    origin: RoleKind = RoleKind.REGULAR_VEHICLE,
    ids: MessageIdSource,
) -> Optional[Message]:
    """One report per stop: stationary strictly longer than 30 s with a
    queue ahead."""
    if history.jam_reported or not queue_ahead:
        return None
    if history.stationary_since is None:
        return None
    if now - history.stationary_since <= 30.0:
        return None
    history.jam_reported = True
    return make_message(MessageKind.TRAFFIC_JAM, origin, now, ids=ids)


def detect_congestion(
    history: SpeedHistory,
    now: float,
    *,
    origin: RoleKind = RoleKind.REGULAR_VEHICLE,
    ids: MessageIdSource,
) -> Optional[Message]:
    """One report per episode: speed inside the slow band continuously for
    60 to 90 seconds."""
    if history.congestion_reported:
        return None
    if history.band_since is None:
        return None
    duration = now - history.band_since
    if not (60.0 <= duration <= 90.0):
        return None
    history.congestion_reported = True
    return make_message(MessageKind.CONGESTION, origin, now, ids=ids)
