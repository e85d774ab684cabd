"""Per-role message handlers.

Handlers are pure functions of (state, event): they mutate only the state
they are given and return a list of outgoing actions for the engine to
execute. No handler performs I/O or touches the event queue directly.

A timer names its callback: an :class:`Arm` carries the function, and its
arguments, that the engine calls back on the arming entity's state when the
timer fires.

Timings that the source material leaves open (burst spacing, periodic
announcement intervals, authority service delay, official-vehicle travel
and on-site service time) are module constants, the same in every run.

Each entity's ``seen`` set records every message id it has handled, and is
the one record of a first receipt: an RSU escalates, answers or announces
an id, and the TA schedules its resolution, only on the receipt that adds
the id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from .domain import (
    ActionSource,
    EntityId,
    Message,
    MessageIdSource,
    MessageKind,
    RESOLUTION_FOR,
    RESOLUTION_KINDS,
    Role,
    RoleKind,
    TA_REPORT_KINDS,
    make_message,
)
from .relay import RelayPolicy, should_relay


class ProtocolOrderError(RuntimeError):
    """An event arrived out of the order the incident lifecycle allows."""


# ---------------------------------------------------------------------------
# outgoing actions


@dataclass(frozen=True)
class Broadcast:
    message: Message
    at: float
    source: ActionSource
    downstream_only: bool = False


@dataclass(frozen=True)
class Wired:
    message: Message
    to: EntityId
    at: float


@dataclass(frozen=True)
class Arm:
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
# incident lifecycle ledger


class IncidentStatus(Enum):
    OPEN = "open"
    BEING_ATTENDED = "being-attended"
    RESOLVED = "resolved"


_FORWARD = {
    IncidentStatus.OPEN: {IncidentStatus.BEING_ATTENDED, IncidentStatus.RESOLVED},
    IncidentStatus.BEING_ATTENDED: {IncidentStatus.RESOLVED},
    IncidentStatus.RESOLVED: set(),
}


class IncidentLedger:
    """Per-road incident status with timestamped, forward-only transitions."""

    def __init__(self) -> None:
        self._history: Dict[str, List[Tuple[IncidentStatus, float]]] = {}

    def status(self, road: str) -> Optional[IncidentStatus]:
        entries = self._history.get(road)
        return entries[-1][0] if entries else None

    def history(self, road: str) -> List[Tuple[IncidentStatus, float]]:
        return list(self._history.get(road, []))

    def open(self, road: str, now: float) -> None:
        current = self.status(road)
        if current in (IncidentStatus.OPEN, IncidentStatus.BEING_ATTENDED):
            return
        # a resolved road may see a fresh incident episode
        self._history.setdefault(road, []).append((IncidentStatus.OPEN, now))

    def _advance(self, road: str, to: IncidentStatus, now: float) -> None:
        current = self.status(road)
        if current is None:
            raise ProtocolOrderError(f"no incident open on road {road!r}")
        if to is current:
            return
        if to not in _FORWARD[current]:
            raise ProtocolOrderError(
                f"illegal transition {current.value} -> {to.value} on road {road!r}"
            )
        self._history[road].append((to, now))

    def attend(self, road: str, now: float) -> None:
        self._advance(road, IncidentStatus.BEING_ATTENDED, now)

    def resolve(self, road: str, now: float) -> None:
        self._advance(road, IncidentStatus.RESOLVED, now)


# ---------------------------------------------------------------------------
# RSU rebroadcast rule table


@dataclass(frozen=True)
class RuleRow:
    same_count: int
    derived_count: int = 0
    derived_kind: Optional[MessageKind] = None


#: Burst counts per (incoming kind, sender class, first-receipt flag). The
#: rows cover the accident lifecycle exactly; other incident kinds are
#: handled by the generic announcement path.
DEFAULT_RULE_ROWS: Dict[tuple, RuleRow] = {
    (MessageKind.ACCIDENT, RoleKind.REGULAR_VEHICLE, True): RuleRow(
        3, 3, MessageKind.AVOID_ROAD
    ),
    (MessageKind.ACCIDENT, RoleKind.REGULAR_VEHICLE, False): RuleRow(2),
    (MessageKind.ACCIDENT, RoleKind.RSU, True): RuleRow(2, 2, MessageKind.AVOID_ROAD),
    (MessageKind.AVOID_ROAD, RoleKind.REGULAR_VEHICLE, True): RuleRow(2),
    (MessageKind.AVOID_ROAD, RoleKind.RSU, True): RuleRow(3),
    (MessageKind.SORTED_ROAD, RoleKind.OFFICIAL_VEHICLE, True): RuleRow(
        0, 3, MessageKind.CLEARED_ROAD
    ),
    (MessageKind.CLEARED_ROAD, RoleKind.OFFICIAL_VEHICLE, True): RuleRow(3),
    (MessageKind.CLEARED_ROAD, RoleKind.RSU, True): RuleRow(3),
    (MessageKind.ADDRESSING_INCIDENT, RoleKind.OFFICIAL_VEHICLE, True): RuleRow(
        0, 1, MessageKind.ACK
    ),
}


def _rule_row(kind: MessageKind, sender: RoleKind, first: bool) -> RuleRow:
    """The row for one receipt; an unpopulated row yields zero repeats."""
    return DEFAULT_RULE_ROWS.get((kind, sender, first), RuleRow(0))


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
# service directory


@dataclass(frozen=True)
class ServiceEntry:
    category: str
    road: str
    position: float  # arc metres along the route


@dataclass(frozen=True)
class ServiceDirectory:
    entries: Tuple[ServiceEntry, ...] = ()
    route_length: float = 4000.0

    def nearest(self, category: str, origin: float) -> Optional[ServiceEntry]:
        candidates = [e for e in self.entries if e.category == category]
        if not candidates:
            return None

        def ring_distance(entry: ServiceEntry) -> float:
            d = abs(entry.position - origin) % self.route_length
            return min(d, self.route_length - d)

        return min(candidates, key=lambda e: (ring_distance(e), e.road))


# ---------------------------------------------------------------------------
# entity state


@dataclass
class EntityState:
    entity: EntityId
    seen: Set[str] = field(default_factory=set)
    relayed: Set[str] = field(default_factory=set)

    @property
    def role(self) -> Role:
        return self.entity.role


@dataclass
class VehicleState(EntityState):
    pass


@dataclass
class RsuState(EntityState):
    neighbours: Tuple[EntityId, ...] = ()
    ta: Optional[EntityId] = None
    position: float = 0.0  # arc metres along the route
    services: ServiceDirectory = ServiceDirectory()
    ledger: IncidentLedger = field(default_factory=IncidentLedger)
    applied: Set[Tuple[str, RoleKind]] = field(default_factory=set)
    announcing: Dict[str, Message] = field(default_factory=dict)
    restricted: Dict[str, Message] = field(default_factory=dict)


class OfficialPhase(Enum):
    ADDRESSING = "addressing"
    EN_ROUTE = "en-route"
    ON_SITE = "on-site"
    DONE = "done"


@dataclass
class OfficialIncident:
    road: str
    report: Message
    addressing_id: str
    phase: OfficialPhase = OfficialPhase.ADDRESSING


@dataclass
class OfficialState(EntityState):
    responder: bool = True
    incidents: Dict[str, OfficialIncident] = field(default_factory=dict)


@dataclass
class TaState(EntityState):
    pass


#: kinds an official vehicle responds to in person
OFFICIAL_RESPONSE_KINDS = {
    MessageKind.ACCIDENT: MessageKind.SORTED_ROAD,
    MessageKind.OBSTACLE: MessageKind.OBSTACLE_CLEARED,
    MessageKind.STRANDED_VEHICLE: MessageKind.CLEARED_ROAD,
}


# ---------------------------------------------------------------------------
# shared relay decision


def relay_decision(
    state: EntityState, msg: Message, policy: RelayPolicy, now: float
) -> List[OutgoingAction]:
    """Forward an unseen copy if the policy admits it; dedup is permanent.

    The copy is retransmitted as received: its hop count was already
    advanced when the radio delivery happened, so a hop-limit policy sees
    the number of transmissions the copy has traversed.
    """
    if not should_relay(policy, msg, now, state.relayed):
        return []
    state.relayed.add(msg.id)
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
    sender_role: Role,
    now: float,
    *,
    ids: MessageIdSource,
) -> List[OutgoingAction]:
    """Dispatch one received message through the RSU's announcement rules."""
    if state.role.kind is not RoleKind.RSU:
        raise ValueError("handle_rsu requires an RSU")
    handler = RSU_HANDLERS.get(msg.kind)
    if handler is None:  # a plain relay candidate, held by the engine
        return []
    return handler(state, msg, sender_role, now, ids)


def _first_receipt(state: RsuState, msg: Message) -> bool:
    return msg.id not in state.seen


def _apply_once(state: RsuState, msg: Message, sender: RoleKind, first: bool) -> bool:
    key = (msg.id, sender, first)
    if key in state.applied:
        return False
    state.applied.add(key)
    return True


def _rsu_table_driven(
    state: RsuState,
    msg: Message,
    sender_role: Role,
    now: float,
    ids: MessageIdSource,
) -> List[OutgoingAction]:
    if state.ledger.status(msg.road) is IncidentStatus.RESOLVED:
        return []
    first = _first_receipt(state, msg)
    state.seen.add(msg.id)
    if not _apply_once(state, msg, sender_role.kind, first):
        return []
    row = _rule_row(msg.kind, sender_role.kind, first)
    if row.same_count == 0 and row.derived_count == 0:
        return []

    actions: List[OutgoingAction] = []
    if msg.kind is MessageKind.ACCIDENT:
        state.ledger.open(msg.road, now)
    actions.extend(_burst(msg, row.same_count, now))
    if row.derived_count and row.derived_kind is not None:
        derived = make_message(
            row.derived_kind, msg.road, state.entity, now, ids=ids, correlation=msg.id
        )
        offset = row.same_count * BURST_INTERVAL
        actions.extend(_burst(derived, row.derived_count, now + offset))
    if (
        msg.kind is MessageKind.ACCIDENT
        and first
        and sender_role.kind is not RoleKind.RSU
    ):
        actions.extend(Wired(msg, to=n, at=now) for n in state.neighbours)
    return actions


def _rsu_escalate(
    state: RsuState, msg: Message, sender_role: Role, now: float, ids: MessageIdSource
) -> List[OutgoingAction]:
    """Authority-class reports go straight to the TA over the wired link."""
    first = _first_receipt(state, msg)
    state.seen.add(msg.id)
    if not first or state.ta is None:
        return []
    state.ledger.open(msg.road, now)
    return [Wired(msg, to=state.ta, at=now)]


def _rsu_announce_report(
    state: RsuState, msg: Message, sender_role: Role, now: float, ids: MessageIdSource
) -> List[OutgoingAction]:
    """Announce an open report three times, notify peers, then re-announce
    periodically until the road is cleared."""
    if state.ledger.status(msg.road) is IncidentStatus.RESOLVED:
        return []
    first = _first_receipt(state, msg)
    state.seen.add(msg.id)
    if not first:
        return []
    state.ledger.open(msg.road, now)
    state.announcing[msg.road] = msg
    actions: List[OutgoingAction] = list(_burst(msg, 3, now))
    # flood along the backbone ring so every zone learns of the incident;
    # message-id dedup terminates the flood after one lap
    actions.extend(Wired(msg, to=n, at=now) for n in state.neighbours)
    actions.append(Arm(now + 3 * BURST_INTERVAL, rsu_report_tick, (msg.road,)))
    return actions


def _rsu_acknowledge_official(
    state: RsuState,
    msg: Message,
    sender_role: Role,
    now: float,
    ids: MessageIdSource,
) -> List[OutgoingAction]:
    first = _first_receipt(state, msg)
    state.seen.add(msg.id)
    if not _apply_once(state, msg, sender_role.kind, first):
        return []
    row = _rule_row(msg.kind, sender_role.kind, first)
    if row.derived_count == 0:
        return []
    ack = make_message(
        MessageKind.ACK, msg.road, state.entity, now, ids=ids, correlation=msg.id
    )
    actions: List[OutgoingAction] = [
        Broadcast(ack, at=now, source=ActionSource.ORIGIN)
    ]
    state.ledger.open(msg.road, now)
    if state.ledger.status(msg.road) is IncidentStatus.OPEN:
        state.ledger.attend(msg.road, now)
    if msg.road not in state.restricted:
        restricted = make_message(
            MessageKind.RESTRICTED_MOVEMENT,
            msg.road,
            state.entity,
            now,
            ids=ids,
            correlation=msg.id,
        )
        state.restricted[msg.road] = restricted
        actions.append(Broadcast(restricted, at=now, source=ActionSource.ORIGIN))
        actions.append(Arm(now + RESTRICTED_PERIOD, rsu_restricted_tick, (msg.road,)))
    return actions


def _rsu_resolution(
    state: RsuState,
    msg: Message,
    sender_role: Role,
    now: float,
    ids: MessageIdSource,
) -> List[OutgoingAction]:
    """Close the incident and spread the road-clear status.

    A first-seen clearance is flooded along the backbone ring so every
    zone hears it (message-id dedup terminates the flood). If this RSU
    holds an open incident for the road, it also resolves the incident and
    announces the road-clear status ``CLEARED_REPEATS`` times; clearances
    for roads with no open incident are only forwarded.
    """
    first = _first_receipt(state, msg)
    state.seen.add(msg.id)
    actions: List[OutgoingAction] = []
    if first:
        actions.extend(Wired(msg, to=n, at=now) for n in state.neighbours)
    status = state.ledger.status(msg.road)
    if status in (None, IncidentStatus.RESOLVED):
        return actions
    state.ledger.resolve(msg.road, now)
    state.announcing.pop(msg.road, None)
    state.restricted.pop(msg.road, None)

    repeats = CLEARED_REPEATS
    row = _rule_row(msg.kind, sender_role.kind, first)
    if row.same_count or row.derived_count:
        repeats = max(row.same_count, row.derived_count)

    if msg.kind is MessageKind.CLEARED_ROAD:
        cleared = msg
    else:
        cleared = make_message(
            MessageKind.CLEARED_ROAD,
            msg.road,
            state.entity,
            now,
            ids=ids,
            correlation=msg.id,
        )
    actions.extend(_burst(cleared, repeats, now))
    if cleared is not msg:
        actions.extend(Wired(cleared, to=n, at=now) for n in state.neighbours)
    return actions


def _rsu_service_query(
    state: RsuState, msg: Message, sender_role: Role, now: float, ids: MessageIdSource
) -> List[OutgoingAction]:
    """Answer a service lookup with the nearest registered entry."""
    first = _first_receipt(state, msg)
    state.seen.add(msg.id)
    if not first:
        return []
    category = msg.payload or ""
    entry = state.services.nearest(category, state.position)
    reply = make_message(
        MessageKind.SERVICE_REPLY,
        entry.road if entry else msg.road,
        state.entity,
        now,
        ids=ids,
        correlation=msg.id,
        payload=category if entry else "no-result",
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
    state: RsuState, road: str, now: float, *, ids: MessageIdSource
) -> List[OutgoingAction]:
    """Timed clearance for runs with no attending entity: the coordinating
    RSU originates the road-clear flow itself."""
    status = state.ledger.status(road)
    if status in (None, IncidentStatus.RESOLVED):
        return []
    state.ledger.resolve(road, now)
    state.announcing.pop(road, None)
    state.restricted.pop(road, None)
    cleared = make_message(MessageKind.CLEARED_ROAD, road, state.entity, now, ids=ids)
    state.seen.add(cleared.id)
    actions: List[OutgoingAction] = list(_burst(cleared, CLEARED_REPEATS, now))
    actions.extend(Wired(cleared, to=n, at=now) for n in state.neighbours)
    return actions


def rsu_report_tick(
    state: RsuState, road: str, now: float, *, ids: MessageIdSource
) -> List[OutgoingAction]:
    """Re-announce an open report until the road is cleared."""
    msg = state.announcing.get(road)
    if msg is None or state.ledger.status(road) is IncidentStatus.RESOLVED:
        return []
    return [
        Broadcast(msg, at=now, source=ActionSource.BURST),
        Arm(now + REPORT_PERIOD, rsu_report_tick, (road,)),
    ]


def rsu_restricted_tick(
    state: RsuState, road: str, now: float, *, ids: MessageIdSource
) -> List[OutgoingAction]:
    """Re-announce restricted movement while the incident is attended."""
    msg = state.restricted.get(road)
    if msg is None or state.ledger.status(road) is not IncidentStatus.BEING_ATTENDED:
        return []
    return [
        Broadcast(msg, at=now, source=ActionSource.BURST),
        Arm(now + RESTRICTED_PERIOD, rsu_restricted_tick, (road,)),
    ]


# ---------------------------------------------------------------------------
# official vehicles


def handle_official(
    state: OfficialState, msg: Message, now: float, *, ids: MessageIdSource
) -> List[OutgoingAction]:
    """Address a report this vehicle responds to; set off on the RSU's
    acknowledgement of the addressing notice."""
    if state.role.kind is not RoleKind.OFFICIAL_VEHICLE:
        raise ValueError("handle_official requires an official vehicle")
    if msg.kind in OFFICIAL_RESPONSE_KINDS and state.responder:
        if msg.road in state.incidents:
            return []
        addressing = make_message(
            MessageKind.ADDRESSING_INCIDENT,
            msg.road,
            state.entity,
            now,
            ids=ids,
            correlation=msg.id,
        )
        state.seen.add(addressing.id)
        state.relayed.add(addressing.id)
        state.incidents[msg.road] = OfficialIncident(
            road=msg.road, report=msg, addressing_id=addressing.id
        )
        return [Broadcast(addressing, at=now, source=ActionSource.ORIGIN)]
    if msg.kind is MessageKind.ACK:
        incident = _incident_for_ack(state, msg)
        if incident is None or incident.phase is not OfficialPhase.ADDRESSING:
            return []
        incident.phase = OfficialPhase.EN_ROUTE
        return [
            Arm(now, official_announce, (incident.road,)),
            Arm(now + TRAVEL_TIME, official_arrival, (incident.road,)),
        ]
    return []


def _incident_for_ack(state: OfficialState, ack: Message) -> Optional[OfficialIncident]:
    for incident in state.incidents.values():
        if ack.correlation == incident.addressing_id:
            return incident
    return None


def official_announce(
    state: OfficialState, road: str, now: float, *, ids: MessageIdSource
) -> List[OutgoingAction]:
    """Periodic free-road notice downstream, plus an attending notice while
    en route, until the incident is done."""
    incident = state.incidents.get(road)
    if incident is None or incident.phase is OfficialPhase.DONE:
        return []
    actions: List[OutgoingAction] = []
    free = make_message(
        MessageKind.FREE_ROAD,
        road,
        state.entity,
        now,
        ids=ids,
        correlation=incident.report.id,
    )
    state.seen.add(free.id)
    state.relayed.add(free.id)
    actions.append(
        Broadcast(free, at=now, source=ActionSource.ORIGIN, downstream_only=True)
    )
    if incident.phase is OfficialPhase.EN_ROUTE:
        attending = make_message(
            MessageKind.ATTENDING,
            road,
            state.entity,
            now,
            ids=ids,
            correlation=incident.report.id,
        )
        state.seen.add(attending.id)
        state.relayed.add(attending.id)
        actions.append(Broadcast(attending, at=now, source=ActionSource.ORIGIN))
    actions.append(Arm(now + ATTENDING_PERIOD, official_announce, (road,)))
    return actions


def official_arrival(
    state: OfficialState, road: str, now: float, *, ids: MessageIdSource
) -> List[OutgoingAction]:
    """On site: the incident is resolved after the service time."""
    incident = state.incidents.get(road)
    if incident is None:
        raise ProtocolOrderError(f"arrival with no incident on {road!r}")
    incident.phase = OfficialPhase.ON_SITE
    return [Arm(now + SERVICE_TIME, official_resolve, (road,))]


def official_resolve(
    state: OfficialState, road: str, now: float, *, ids: MessageIdSource
) -> List[OutgoingAction]:
    """Announce the incident's resolution notice once."""
    incident = state.incidents.get(road)
    if incident is None or incident.phase is OfficialPhase.DONE:
        raise ProtocolOrderError(f"resolution with no open incident on {road!r}")
    incident.phase = OfficialPhase.DONE
    done_kind = OFFICIAL_RESPONSE_KINDS[incident.report.kind]
    done = make_message(
        done_kind,
        road,
        state.entity,
        now,
        ids=ids,
        correlation=incident.report.id,
    )
    state.seen.add(done.id)
    state.relayed.add(done.id)
    return [Broadcast(done, at=now, source=ActionSource.ORIGIN)]


# ---------------------------------------------------------------------------
# traffic authority


def handle_ta(
    state: TaState, msg: Message, now: float, *, reporting_rsu: Optional[EntityId] = None
) -> List[OutgoingAction]:
    """Schedule one resolution notice per report id back to the reporting
    RSU, the authority's service delay after the first receipt;
    non-authority kinds are dropped."""
    if state.role.kind is not RoleKind.TA:
        raise ValueError("handle_ta requires the TA")
    if msg.kind not in TA_REPORT_KINDS or msg.id in state.seen:
        return []
    state.seen.add(msg.id)
    args = (msg.road, msg.kind, msg.id, reporting_rsu)
    return [Arm(now + TA_SERVICE_DELAY, ta_resolve, args)]


def ta_resolve(
    state: TaState,
    road: str,
    kind: MessageKind,
    report_id: str,
    reporting_rsu: Optional[EntityId],
    now: float,
    *,
    ids: MessageIdSource,
) -> List[OutgoingAction]:
    """The authority's resolution notice, wired to the reporting RSU."""
    resolution = make_message(
        RESOLUTION_FOR[kind], road, state.entity, now, ids=ids, correlation=report_id
    )
    if reporting_rsu is None:
        return []
    return [Wired(resolution, to=reporting_rsu, at=now)]


# ---------------------------------------------------------------------------
# local condition detectors


class SpeedHistory:
    """Time-ordered speed samples with incremental run tracking.

    Keeps enough history to cover both the stationary window and the
    slow-band window, and remembers whether the current episode already
    produced a report so each episode reports at most once.
    """

    STATIONARY_SPEED = 0.1   # m/s
    BAND_LOW = 1.0           # m/s
    BAND_HIGH = 13.0         # m/s

    def __init__(self, window: float = 120.0) -> None:
        self.window = window
        self.samples: List[Tuple[float, float]] = []
        self.stationary_since: Optional[float] = None
        self.band_since: Optional[float] = None
        self.jam_reported = False
        self.congestion_reported = False

    def span(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        return self.samples[-1][0] - self.samples[0][0]

    def record(self, now: float, speed: float) -> None:
        if self.samples and now <= self.samples[-1][0]:
            raise ValueError("samples must be strictly increasing in time")
        self.samples.append((now, speed))
        while self.samples and now - self.samples[0][0] > self.window:
            self.samples.pop(0)

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
    origin: Optional[EntityId] = None,
    road: str = "X",
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
    if origin is None:
        origin = EntityId(0)
    return make_message(MessageKind.TRAFFIC_JAM, road, origin, now, ids=ids)


def detect_congestion(
    history: SpeedHistory,
    now: float,
    *,
    origin: Optional[EntityId] = None,
    road: str = "X",
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
    if origin is None:
        origin = EntityId(0)
    return make_message(MessageKind.CONGESTION, road, origin, now, ids=ids)
