"""Deterministic discrete-event engine.

One engine instance runs one trial: a seeded event queue drives mobility
steps, radio broadcasts with range-limited delivery, wired infrastructure
links, protocol timers, and scripted incident events. Identical
(setup, seed) pairs produce byte-identical traces. Only events schedule
events, so the mobility tick stops once no event is due by the end of the
run: a later step could not reach the trace. An event due before the
current time is an error, not a reordering.

Every entity has a dense int slot fixed at set-up: the spawn queue (so a
vehicle's slot is its index in ``world.vehicles``), then the RSUs, then
the TA. State is a slot-indexed list and events carry slots; an
:class:`EntityId` appears only in handler state, message origins,
``Wired`` targets and trace labels.

A radio broadcast is one event, one hop latency after the send, that hands
the shared relayed copy to its receivers in order. Per-receiver events
would have had consecutive sequence numbers, and whatever a receipt
schedules runs after the whole batch, so the receipts run in the same
order. A regular vehicle drops a copy it has seen at once; RSUs and
official vehicles run their handlers on every receipt.

Relays are store-carry-forward: a vehicle holds a newly received message
for a jittered hold time before the forwarding decision runs, so
dissemination advances at roughly one hop per hold period. High-priority
official messages use a much shorter hold.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import scenarios as _scenarios
from .domain import (
    ActionSource,
    EntityId,
    Message,
    MessageIdSource,
    MessageKind,
    POLICE,
    Priority,
    RESOLUTION_KINDS,
    RSU as RSU_ROLE,
    RoleKind,
    TA as TA_ROLE,
    VEHICLE,
    make_message,
    relayed_copy,
)
from .metrics import TrialMetrics
from .mobility import CircularWorld, MobilityConfig
from .protocol import (
    Arm,
    Broadcast,
    EntityState,
    OfficialState,
    RSU_HANDLERS,
    RsuState,
    ServiceDirectory,
    TaState,
    VehicleState,
    Wired,
    handle_official,
    handle_rsu,
    handle_ta,
    relay_decision,
    rsu_scripted_resolution,
)
from .relay import RelayPolicy


RADIO_RANGE = 300.0     # metres
HOP_LATENCY = 0.01      # seconds from a radio send to its delivery
WIRED_LATENCY = 0.005   # seconds from a wired send to its delivery
RELAY_JITTER = 0.2      # +/- fraction applied to the relay hold
OFFICIAL_HOLD = 0.5     # hold for high-priority messages


@dataclass(frozen=True)
class NetConfig:
    loss: float = 0.0
    relay_hold: float = 35.0       # store-carry-forward hold before relaying


@dataclass(frozen=True)
class TrialSetup:
    script: "_scenarios.ScenarioScript"
    policy: RelayPolicy
    vehicles: int
    police: int = 0
    duration: float = 1500.0
    warmup: float = 500.0
    net: NetConfig = NetConfig()
    mobility: MobilityConfig = MobilityConfig()

    def validate(self) -> None:
        if self.vehicles < 0:
            raise ValueError("vehicle count must not be negative")
        if not (math.isfinite(self.duration) and math.isfinite(self.warmup)):
            raise ValueError("duration and warm-up must be finite")
        if self.warmup >= self.duration:
            raise ValueError("warm-up must end before the run does")
        mob = self.mobility
        for name, value in (("step dt", mob.dt), ("route length", mob.route_length)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")
        if not (math.isfinite(self.net.relay_hold) and self.net.relay_hold >= 0):
            raise ValueError("relay hold must be finite and not negative")
        reporter = self.script.reporter
        if reporter.startswith("V") and reporter[1:].isdigit():
            needed = int(reporter[1:]) + 1
            if self.vehicles < needed:
                raise ValueError(
                    f"scenario reporter {reporter} requires at least {needed} vehicles"
                )
        if self.police < self.script.min_police:
            raise ValueError(
                f"scenario {self.script.name!r} requires at least "
                f"{self.script.min_police} police vehicles"
            )
        if self.script.report_time < self.warmup:
            raise ValueError("incident report must not fall inside the warm-up")
        fleet = self.vehicles + self.police
        footprint = mob.vehicle_length + mob.standstill_gap
        if fleet * footprint > mob.route_length:
            raise ValueError(
                f"{fleet} vehicles of {footprint} m each do not fit on a "
                f"{mob.route_length} m route"
            )
        if (fleet - 1) * mob.entry_headway >= self.warmup:
            raise ValueError(
                f"{fleet} vehicles at a {mob.entry_headway} s entry headway cannot all "
                f"spawn before the {self.warmup} s warm-up ends"
            )


@dataclass(frozen=True)
class TraceRecord:
    time: float
    sender: str
    sender_class: RoleKind
    receiver: str  # "*" for radio broadcasts
    msg_id: str
    kind: MessageKind
    road: str
    hops: int
    source: ActionSource

    def to_line(self) -> str:
        return (
            f"{self.time:.6f},{self.sender},{self.receiver},{self.msg_id},"
            f"{self.kind.value},{self.road},{self.hops},{self.source.value}"
        )


def write_trace(trace: List[TraceRecord], path) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            for record in trace:
                handle.write(record.to_line() + "\n")
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def parse_trace(path) -> List[TraceRecord]:
    from .domain import role_of_label

    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            t, sender, receiver, msg_id, kind, road, hops, source = raw.strip().split(",")
            records.append(
                TraceRecord(
                    time=float(t),
                    sender=sender,
                    sender_class=role_of_label(sender),
                    receiver=receiver,
                    msg_id=msg_id,
                    kind=MessageKind(kind),
                    road=road,
                    hops=int(hops),
                    source=ActionSource(source),
                )
            )
    return records


class Engine:
    """One trial's executor; single logical thread, fully isolated state."""

    def __init__(self, setup: TrialSetup, seed: int) -> None:
        setup.validate()
        self.setup = setup
        self.seed = seed
        self.rng = random.Random(seed)
        self.ids = MessageIdSource()
        self.trace: List[TraceRecord] = []
        self.metrics = TrialMetrics()
        self.now = 0.0
        self._queue: List[tuple] = []
        self._seq = 0
        self._steps = int(setup.duration / setup.mobility.dt)
        self.coordinator: Optional[int] = None  # slot of the coordinating RSU
        self._report_ids: set = set()

        script = setup.script
        regulars = [EntityId(i, VEHICLE) for i in range(setup.vehicles)]
        officials = [EntityId(i, POLICE) for i in range(setup.police)]
        split = min(script.reporter_index + 1, len(regulars))
        spawn_queue = regulars[:split] + officials + regulars[split:]
        self.world = CircularWorld(setup.mobility, spawn_queue)
        services = ServiceDirectory(
            entries=tuple(script.services), route_length=setup.mobility.route_length
        )

        self.ta = EntityId(0, TA_ROLE)
        rsus = [EntityId(i, RSU_ROLE) for i in range(len(self.world.rsus))]
        #: slot -> entity: the spawn queue, then the RSUs, then the TA
        self.entities: List[EntityId] = spawn_queue + rsus + [self.ta]
        #: entity label -> slot, for scripted reporters and wired targets
        self.slot_of: Dict[str, int] = {
            entity.label: slot for slot, entity in enumerate(self.entities)
        }
        self._kinds: List[RoleKind] = [entity.role.kind for entity in self.entities]
        self.states: List[EntityState] = []
        for entity in self.entities:
            kind = entity.role.kind
            if kind is RoleKind.REGULAR_VEHICLE:
                state = VehicleState(entity=entity)
            elif kind is RoleKind.OFFICIAL_VEHICLE:
                state = OfficialState(
                    entity=entity, responder=(entity.label == script.responder)
                )
            elif kind is RoleKind.RSU:
                i = entity.index
                state = RsuState(
                    entity=entity,
                    neighbours=(rsus[i - 1], rsus[(i + 1) % len(rsus)]),
                    ta=self.ta,
                    position=self.world.rsus[i][1],
                    services=services,
                )
            else:
                state = TaState(entity=entity)
            self.states.append(state)

    # -- scheduling --------------------------------------------------------

    def _schedule(self, at: float, fn, *args) -> None:
        """Queue ``fn(*args)`` to run at ``at``; ties run in scheduling order.
        An event due before the current time would run out of causal order."""
        if not at >= self.now:
            raise RuntimeError(f"event due at {at} s scheduled at {self.now} s")
        self._seq += 1
        heapq.heappush(self._queue, (at, self._seq, fn, args))

    # -- transmissions -----------------------------------------------------

    def _record(
        self,
        msg: Message,
        sender: int,
        receiver: str,
        source: ActionSource,
    ) -> None:
        kind = self._kinds[sender]
        record = TraceRecord(
            time=self.now,
            sender=self.entities[sender].label,
            sender_class=kind,
            receiver=receiver,
            msg_id=msg.id,
            kind=msg.kind,
            road=msg.road,
            hops=msg.hops,
            source=source,
        )
        self.trace.append(record)
        self.metrics.count(msg.kind, kind, source)
        script = self.setup.script
        if (
            script.blockage
            and msg.kind in RESOLUTION_KINDS
            and msg.road == script.road
            and self.world.blockages
        ):
            self.world.blockages.clear()

    def broadcast(
        self,
        msg: Message,
        sender: int,
        now: float,
        source: ActionSource = ActionSource.ORIGIN,
        downstream_only: bool = False,
    ) -> List[Tuple[float, int]]:
        """Transmit once; one event delivers the copy to every in-range
        receiver, in receiver order. Returns each delivery's time and slot."""
        self._record(msg, sender, "*", source)
        # a radio hop is counted at delivery: the receivers' copy carries
        # one more hop than the sender's, so a hop-limit policy cuts off
        # after exactly max_hops transmissions from the origin; messages are
        # immutable, so every receiver shares the one copy
        copy = relayed_copy(msg)
        receivers = self.world.neighbours_within(sender, RADIO_RANGE)
        if downstream_only:
            kinds, world = self._kinds, self.world
            receivers = [
                receiver for receiver in receivers
                if kinds[receiver] is not RoleKind.RSU
                and world.downstream_of(sender, receiver)
            ]
        loss = self.setup.net.loss
        if loss > 0:
            rng = self.rng
            receivers = [receiver for receiver in receivers if not rng.random() < loss]
        at = now + HOP_LATENCY
        if receivers:
            self._schedule(at, self._deliver, copy, receivers, sender)
        return [(at, receiver) for receiver in receivers]

    def wired_send(
        self, msg: Message, sender: int, to: EntityId, now: float
    ) -> Tuple[float, EntityId]:
        for kind in (self._kinds[sender], to.role.kind):
            if kind not in (RoleKind.RSU, RoleKind.TA):
                raise ValueError("wired links join infrastructure nodes only")
        self._record(msg, sender, to.label, ActionSource.WIRED)
        at = now + WIRED_LATENCY
        self._schedule(at, self._deliver, msg, (self.slot_of[to.label],), sender)
        return at, to

    def _hold_delay(self, msg: Message) -> float:
        if msg.priority is Priority.OFFICIAL:
            return OFFICIAL_HOLD
        jitter = self.rng.uniform(1 - RELAY_JITTER, 1 + RELAY_JITTER)
        return self.setup.net.relay_hold * jitter

    # -- action execution --------------------------------------------------

    def _execute(self, slot: int, actions) -> None:
        for action in actions:
            if isinstance(action, Broadcast):
                at = max(action.at, self.now)
                self._schedule(
                    at, self.broadcast, action.message, slot, at, action.source,
                    action.downstream_only,
                )
            elif isinstance(action, Wired):
                at = max(action.at, self.now)
                self._schedule(at, self.wired_send, action.message, slot, action.to, at)
            elif isinstance(action, Arm):
                self._schedule(action.at, self._fire_timer, slot, action)
            else:
                raise TypeError(f"unknown action: {action!r}")

    # -- delivery dispatch -------------------------------------------------

    def _deliver(self, msg: Message, receivers: Sequence[int], sender: int) -> None:
        """Hand one transmission to each receiver slot, in order."""
        states, kinds = self.states, self._kinds
        msg_id = msg.id
        for receiver in receivers:
            state = states[receiver]
            kind = kinds[receiver]
            if kind is RoleKind.REGULAR_VEHICLE:
                # a regular vehicle only relays, and only an unseen copy
                if msg_id not in state.seen:
                    self._schedule_relay(receiver, state, msg)
            elif kind is RoleKind.OFFICIAL_VEHICLE:
                self._execute(
                    receiver, handle_official(state, msg, self.now, ids=self.ids)
                )
                self._schedule_relay(receiver, state, msg)
            elif kind is RoleKind.RSU:
                if msg_id in self._report_ids and self.coordinator is None:
                    self.coordinator = receiver
                if msg.kind in RSU_HANDLERS:
                    role = self.entities[sender].role
                    self._execute(
                        receiver, handle_rsu(state, msg, role, self.now, ids=self.ids)
                    )
                else:
                    self._schedule_relay(receiver, state, msg)
            else:
                reporting = self.entities[sender] if kinds[sender] is RoleKind.RSU else None
                self._execute(
                    receiver, handle_ta(state, msg, self.now, reporting_rsu=reporting)
                )

    def _schedule_relay(self, slot: int, state: EntityState, msg: Message) -> None:
        """Hold a first-seen copy, then run the relay decision on it."""
        if msg.id in state.seen:
            return
        state.seen.add(msg.id)
        self._schedule(self.now + self._hold_delay(msg), self._relay, slot, state, msg)

    def _relay(self, slot: int, state: EntityState, msg: Message) -> None:
        self._execute(slot, relay_decision(state, msg, self.setup.policy, self.now))

    # -- timers ------------------------------------------------------------

    def _fire_timer(self, slot: int, timer: Arm) -> None:
        """Call the timer's callback on the state of the entity that armed it."""
        state = self.states[slot]
        self._execute(slot, timer.fn(state, *timer.args, self.now, ids=self.ids))

    # -- scripted events ---------------------------------------------------

    def originate(
        self,
        slot: int,
        kind: MessageKind,
        road: str,
        now: float,
        *,
        payload: Optional[str] = None,
    ) -> Message:
        """Create and broadcast a fresh report from the entity in ``slot``."""
        msg = make_message(
            kind, road, self.entities[slot], now, ids=self.ids, payload=payload
        )
        state = self.states[slot]
        state.seen.add(msg.id)
        state.relayed.add(msg.id)
        self.broadcast(msg, slot, now, ActionSource.ORIGIN)
        return msg

    def _report(self) -> None:
        script = self.setup.script
        reporter = self.slot_of[script.reporter]
        if script.blockage and reporter < self.world.spawned_count:
            self.world.add_blockage(self.world.arc_of(reporter))
        msg = self.originate(
            reporter, script.kind, script.road, self.now, payload=script.payload
        )
        self._report_ids.add(msg.id)

    def _timed_resolution(self) -> None:
        rsu = self.coordinator
        if rsu is None:
            return
        state = self.states[rsu]
        self._execute(
            rsu, rsu_scripted_resolution(state, self.setup.script.road, self.now, ids=self.ids)
        )

    def _vehicle_clear(self) -> None:
        script = self.setup.script
        reporter = self.slot_of[script.reporter]
        self.originate(reporter, MessageKind.CLEARED_ROAD, script.road, self.now)

    # -- main loop ---------------------------------------------------------

    def _tick(self, i: int) -> None:
        """Mobility step i at i * dt; it schedules step i + 1 while an event
        is still due by the end of the run. Only events schedule events, so
        once none is left a further step cannot reach the trace."""
        world = self.world
        if world.spawned_count < world.fleet_size:
            world.inject_flow(self.now)
        world.step(self.setup.mobility.dt)
        queue = self._queue
        if i < self._steps and queue and queue[0][0] <= self.setup.duration:
            self._push_tick(i + 1)

    def _push_tick(self, i: int) -> None:
        # seq -i sorts each step before every other event due at its time
        heapq.heappush(
            self._queue, (i * self.setup.mobility.dt, -i, self._tick, (i,))
        )

    def run(self) -> Tuple[List[TraceRecord], TrialMetrics]:
        setup = self.setup
        script = setup.script
        self._push_tick(0)
        self._schedule(script.report_time, self._report)
        resolution = script.resolution
        if isinstance(resolution, _scenarios.TimedResolution):
            self._schedule(resolution.at, self._timed_resolution)
        elif isinstance(resolution, _scenarios.VehicleClearResolution):
            self._schedule(resolution.at, self._vehicle_clear)
        # official and authority resolutions are event-driven, not scheduled

        while self._queue:
            at, _, fn, args = heapq.heappop(self._queue)
            if at > setup.duration:
                break
            self.now = at
            fn(*args)
        return self.trace, self.metrics


def run_trial(setup: TrialSetup, seed: int) -> Tuple[List[TraceRecord], TrialMetrics]:
    """Execute one seeded trial; pure function of (setup, seed)."""
    return Engine(setup, seed).run()
