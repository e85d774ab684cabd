"""Deterministic discrete-event engine.

One engine instance runs one trial: a seeded event queue drives radio
broadcasts with range-limited delivery, wired infrastructure links,
protocol timers, and scripted incident events. Identical (setup, seed)
pairs produce byte-identical traces. The road is read only by events, so
it moves only in the event loop: before an event at ``at``,
:meth:`Engine.run` takes every mobility step due by ``at`` (step ``i`` is
due at ``i * dt``, up to the end of the run). The last step a trial takes
is thus the last one due by its last event. An event due before the
current time, a send or a timer alike, is an error, not a reordering.

A road depends only on route length, fleet size, ``dt`` and its blockage
history; trials of one density read one recorded road while their
histories agree. Before the report the history is empty, so trials that
share those three start from one :func:`warm_world`. After it, a trial
changes its road only through its blockage history: the reporter's
blockage, added at the report, and its removal at the first resolution
notice sent. The trials of a :func:`road_for` log read the steps it
records while the histories agree; ``Engine(setup, seed)`` steps its own
:func:`warm_world`, which the tests take as the reference. A warm road has
spawned its whole fleet, or :func:`warm_world` refuses it, so no trial's
road spawns.

Every trial runs on one road, so messages, states and timers name none; the
trace format writes ``ROAD`` in its road column, and :func:`parse_trace`
rejects any other. The script's reporter reports at ``REPORT_TIME``; the
first RSU to receive that report is the trial's coordinator. A script's
``Clearance`` runs at ``CLEAR_TIME``: the coordinator or the reporter
clears the road. Without one, the handlers' own events resolve the
incident.

Every entity is a dense int slot fixed at set-up: the vehicles in spawn
order (a vehicle's slot indexes ``world.positions`` and ``world.speeds``),
then the RSUs, then the TA. :meth:`TrialSetup.fleet` lays out the vehicle
labels in that order; ``Engine.labels`` adds the RSUs and the TA, and
``_kinds`` and the states are read off those labels. States (RSUs and
official vehicles only), ``seen`` sets, trace labels and role kinds are
slot-indexed lists; events, ``Wired`` targets and handler addresses are
slots. A slot's role lives only in ``_kinds`` and its label only in
``labels``. The kinematics are :mod:`vanetim.mobility` constants; a set-up
varies only the route length and the step ``dt``.

Only the engine writes ``seen``, a set per slot of every id the entity has
sent or received: :meth:`Engine._record` adds each sender's id, radio or
wired, and :meth:`Engine._deliver` decides once per receipt whether it is
the first, then adds the id. So an entity hearing its own message back
takes it as a repeat.

A radio broadcast is one event, one hop latency after the send, that hands
the shared relayed copy to its receivers in order. Per-receiver events
would have had consecutive sequence numbers, and whatever a receipt
schedules runs after the whole batch, so the receipts run in the same
order. A regular vehicle drops a repeat at once; an official vehicle runs
its handler on every receipt and an RSU on every receipt of a kind it
handles, told whether it is first; the TA handles first receipts only.
Only a first receipt is held for the relay decision, so no entity relays
an id twice.

Relays are store-carry-forward: an entity holds a newly received message
for a jittered hold time, drawn at receipt, and then forwards it, so
dissemination advances at roughly one hop per hold period. High-priority
official messages use a much shorter hold. The relay policy reads only the
copy and the relay time, so the decision is made at receipt for the end of
the hold: an admitted copy schedules its broadcast then, and a refused one
schedules nothing. A relay's broadcast thus takes its sequence number, and
its place among events due at the same instant, at its copy's arrival.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from .domain import (
    ActionSource,
    Message,
    MessageIdSource,
    MessageKind,
    Priority,
    RESOLUTION_KINDS,
    RoleKind,
    _new_tuple,
    label_of,
    make_message,
    relayed_copy,
    role_of_label,
)
from .metrics import TrialMetrics
from .mobility import STANDSTILL_GAP, VEHICLE_LENGTH, CircularWorld
from .protocol import (
    Arm,
    Broadcast,
    OfficialState,
    RSU_HANDLERS,
    RsuState,
    Wired,
    handle_official,
    handle_rsu,
    handle_ta,
    rsu_scripted_resolution,
)
from .relay import RelayPolicy, should_relay
from .roadlog import RoadLog
from .scenarios import CLEAR_TIME, REPORT_TIME, Clearance, ScenarioScript


ROAD = "X"              # the road column of every trace line
RADIO_RANGE = 300.0     # metres
HOP_LATENCY = 0.01      # seconds from a radio send to its delivery
WIRED_LATENCY = 0.005   # seconds from a wired send to its delivery
RELAY_JITTER = 0.2      # +/- fraction applied to the relay hold
OFFICIAL_HOLD = 0.5     # hold for high-priority messages


class ConfigError(ValueError):
    """A set-up the model cannot honour; the command line exits 2 for it."""


@dataclass(frozen=True)
class TrialSetup:
    script: ScenarioScript
    policy: RelayPolicy
    vehicles: int
    police: int = 0
    duration: float = 1500.0
    loss: float = 0.0
    relay_hold: float = 35.0       # store-carry-forward hold before relaying
    route_length: float = 4000.0
    dt: float = 0.5

    def fleet(self) -> List[str]:
        """The vehicle labels in spawn order, which is slot order: the
        officials spawn right behind ``V{reporter_index}``, or after the
        whole fleet when it is smaller."""
        regulars = [label_of(RoleKind.REGULAR_VEHICLE, i) for i in range(self.vehicles)]
        officials = [label_of(RoleKind.OFFICIAL_VEHICLE, i) for i in range(self.police)]
        split = self.script.reporter_index + 1
        return regulars[:split] + officials + regulars[split:]

    def validate(self) -> List[str]:
        """Check the set-up and return its :meth:`fleet`. Whether the fleet
        spawns by the report is :func:`warm_world`'s check."""
        if self.vehicles < 0:
            raise ConfigError("vehicle count must not be negative")
        if self.police < 0:
            raise ConfigError("police count must not be negative")
        # a non-finite duration slips past every comparison
        if not (math.isfinite(self.duration) and self.duration > REPORT_TIME):
            raise ConfigError(
                f"duration must be finite and end after the report at {REPORT_TIME} s"
            )
        for name, value in (("step dt", self.dt), ("route length", self.route_length)):
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive")
        if not (math.isfinite(self.relay_hold) and self.relay_hold >= 0):
            raise ConfigError("relay hold must be finite and not negative")
        if not 0.0 <= self.loss < 1.0:  # NaN fails too
            raise ConfigError("loss must be in [0, 1)")
        script = self.script
        if self.police < script.min_police:
            raise ConfigError(
                f"scenario {script.name!r} requires at least "
                f"{script.min_police} police vehicles"
            )
        labels = self.fleet()
        responder = script.responder
        for name, label, known in (
            ("reporter", script.reporter, script.reporter in labels),
            ("responder", responder, responder is None or (
                responder in labels
                and role_of_label(responder) is RoleKind.OFFICIAL_VEHICLE
            )),
        ):
            if not known:
                raise ConfigError(
                    f"scenario {name} {label} names no entity in a fleet of "
                    f"{self.vehicles} vehicles and {self.police} police"
                )
        fleet = len(labels)
        footprint = VEHICLE_LENGTH + STANDSTILL_GAP
        if fleet * footprint > self.route_length:
            raise ConfigError(
                f"{fleet} vehicles of {footprint} m each do not fit on a "
                f"{self.route_length} m route"
            )
        return labels


class TraceRecord(NamedTuple):
    time: float
    sender: str
    sender_class: RoleKind
    receiver: str  # "*" for radio broadcasts
    msg_id: str
    kind: MessageKind
    hops: int
    source: ActionSource

    def to_line(self) -> str:
        return (
            f"{self.time:.6f},{self.sender},{self.receiver},{self.msg_id},"
            f"{self.kind._value_},{ROAD},{self.hops},{self.source._value_}"
        )


def write_trace(trace: List[TraceRecord], path) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            for record in trace:
                handle.write(record.to_line() + "\n")
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def parse_trace(path) -> List[TraceRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            t, sender, receiver, msg_id, kind, road, hops, source = raw.strip().split(",")
            if road != ROAD:
                raise ValueError(f"{path}: road {road!r} is not {ROAD!r}")
            records.append(
                TraceRecord(
                    time=float(t),
                    sender=sender,
                    sender_class=role_of_label(sender),
                    receiver=receiver,
                    msg_id=msg_id,
                    kind=MessageKind(kind),
                    hops=int(hops),
                    source=ActionSource(source),
                )
            )
    return records


class Engine:
    """One trial's executor; single logical thread, fully isolated state."""

    def __init__(
        self, setup: TrialSetup, seed: int, road: Optional[RoadLog] = None
    ) -> None:
        """``road``, if given, is a log for ``setup``'s road whose warm road
        is stepped no further than the first event, such as a
        :func:`road_for`; the trial reads it through its own cursor and
        leaves the log's warm road and recorded rows as they were. Without
        one, the trial builds its own :func:`warm_world`, which validates
        ``setup``; either way it is validated once."""
        if road is None:
            self.world: CircularWorld = warm_world(setup)
            labels = setup.fleet()
        else:
            labels = setup.validate()
            warm, fleet = road.warm, len(labels)
            route_length, dt = setup.route_length, setup.dt
            if (warm.route_length, warm.fleet_size, road.dt) != (route_length, fleet, dt):
                raise ValueError(
                    f"a road of {warm.fleet_size} vehicles on a {warm.route_length} m "
                    f"route at dt {road.dt} s cannot host {fleet} vehicles on a "
                    f"{route_length} m route at dt {dt} s"
                )
            self.world = road.cursor()
        self.setup = setup
        self.seed = seed
        self.rng = random.Random(seed)
        self.ids = MessageIdSource()
        self.trace: List[TraceRecord] = []
        self.metrics = TrialMetrics()
        self.now = 0.0
        self._queue: List[tuple] = []
        self._seq = 0
        self._steps = int(setup.duration / setup.dt)
        self.coordinator: Optional[int] = None  # slot of the coordinating RSU
        self._report_id: Optional[str] = None

        script = setup.script
        fleet = len(labels)
        n_rsus = len(self.world.rsus)
        labels += [label_of(RoleKind.RSU, i) for i in range(n_rsus)] + ["TA"]
        ta = fleet + n_rsus
        #: slot -> trace label and slot -> role: the fleet, the RSUs, the TA
        self.labels: List[str] = labels
        self._kinds: List[RoleKind] = []
        self._reporter = labels.index(script.reporter)
        #: slot -> the ids the entity has sent or received
        self.seen: List[Set[str]] = [set() for _ in labels]
        self.states: List[Union[OfficialState, RsuState, None]] = []
        for slot, label in enumerate(labels):
            kind = role_of_label(label)
            self._kinds.append(kind)
            state = None
            if kind is RoleKind.OFFICIAL_VEHICLE:
                state = OfficialState(responder=(label == script.responder))
            elif kind is RoleKind.RSU:
                # the backbone is a ring: RSU0's predecessor is the last RSU
                i = slot - fleet
                state = RsuState(
                    neighbours=(fleet + (i - 1) % n_rsus, fleet + (i + 1) % n_rsus),
                    ta=ta,
                    services=script.services,
                )
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
        # every field is the engine's own, so the generated constructor's
        # argument handling is skipped
        self.trace.append(_new_tuple(TraceRecord, (
            self.now, self.labels[sender], kind, receiver, msg.id, msg.kind,
            msg.hops, source,
        )))
        self.seen[sender].add(msg.id)
        self.metrics.count(msg.kind, kind, source)
        # only a blockage script parks the reporter, and a trial has one
        # road, so any resolution notice lifts the blockage
        if msg.kind in RESOLUTION_KINDS:
            self.world.clear_blockages()

    def broadcast(
        self,
        msg: Message,
        sender: int,
        source: ActionSource = ActionSource.ORIGIN,
        downstream_only: bool = False,
    ) -> List[int]:
        """Transmit once, now; one event delivers the copy to every in-range
        receiver, in receiver order. Returns the receivers' slots: the list
        that event holds, so a caller must not write it."""
        self._record(msg, sender, "*", source)
        receivers = self.world.neighbours_within(sender, RADIO_RANGE)
        if downstream_only:
            kinds, world = self._kinds, self.world
            receivers = [
                receiver for receiver in receivers
                if kinds[receiver] is not RoleKind.RSU
                and world.downstream_of(sender, receiver)
            ]
        loss = self.setup.loss
        if loss > 0:
            rng = self.rng
            receivers = [receiver for receiver in receivers if not rng.random() < loss]
        if receivers:
            # a radio hop is counted at delivery: the receivers' copy carries
            # one more hop than the sender's, so a hop-limit policy cuts off
            # after exactly max_hops transmissions from the origin; messages
            # are immutable, so every receiver shares the one copy
            self._schedule(
                self.now + HOP_LATENCY, self._deliver, relayed_copy(msg), receivers, sender
            )
        return receivers

    def wired_send(self, msg: Message, sender: int, to: int) -> None:
        for kind in (self._kinds[sender], self._kinds[to]):
            if kind not in (RoleKind.RSU, RoleKind.TA):
                raise ValueError("wired links join infrastructure nodes only")
        self._record(msg, sender, self.labels[to], ActionSource.WIRED)
        self._schedule(self.now + WIRED_LATENCY, self._deliver, msg, (to,), sender)

    # -- action execution --------------------------------------------------

    def _execute(self, slot: int, actions) -> None:
        for action in actions:
            if isinstance(action, Broadcast):
                self._schedule(
                    action.at, self.broadcast, action.message, slot,
                    action.source, action.downstream_only,
                )
            elif isinstance(action, Wired):
                self._schedule(action.at, self.wired_send, action.message, slot, action.to)
            elif isinstance(action, Arm):
                self._schedule(action.at, self._fire_timer, slot, action)
            else:
                raise TypeError(f"unknown action: {action!r}")

    # -- delivery dispatch -------------------------------------------------

    def _deliver(self, msg: Message, receivers: Sequence[int], sender: int) -> None:
        """Hand one transmission to each receiver slot, in order."""
        states, kinds, seen, ids = self.states, self._kinds, self.seen, self.ids
        now, msg_id = self.now, msg.id
        regular = RoleKind.REGULAR_VEHICLE
        for receiver in receivers:
            held = seen[receiver]
            first = msg_id not in held
            kind = kinds[receiver]
            if kind is regular:
                # a regular vehicle only relays, and only a first copy; most
                # receipts are its repeats, dropped here
                if first:
                    held.add(msg_id)
                    self._schedule_relay(receiver, msg)
                continue
            held.add(msg_id)
            if kind is RoleKind.OFFICIAL_VEHICLE:
                state = states[receiver]
                self._execute(receiver, handle_official(state, msg, now, ids=ids))
                if first:
                    self._schedule_relay(receiver, msg)
            elif kind is RoleKind.RSU:
                if msg_id == self._report_id and self.coordinator is None:
                    self.coordinator = receiver
                if msg.kind in RSU_HANDLERS:
                    state = states[receiver]
                    actions = handle_rsu(state, msg, kinds[sender], first, now, ids=ids)
                    self._execute(receiver, actions)
                elif first:
                    self._schedule_relay(receiver, msg)
            elif first:
                # only an RSU's wired link reaches the TA
                self._execute(receiver, handle_ta(msg, now, reporting_rsu=sender))

    def _schedule_relay(self, slot: int, msg: Message) -> None:
        """Hold a first-received copy, and schedule its broadcast at the end
        of the hold if the policy admits it then. The copy is sent as it
        arrived: its hop count was advanced at delivery, so a hop-limit
        policy sees the transmissions it has traversed."""
        setup = self.setup
        if msg.priority is Priority.OFFICIAL:
            at = self.now + OFFICIAL_HOLD
        else:
            jitter = self.rng.uniform(1 - RELAY_JITTER, 1 + RELAY_JITTER)
            at = self.now + setup.relay_hold * jitter
        if should_relay(setup.policy, msg, at):
            self._schedule(at, self.broadcast, msg, slot, ActionSource.RELAY)

    # -- timers ------------------------------------------------------------

    def _fire_timer(self, slot: int, timer: Arm) -> None:
        """Call the timer's callback on the arming entity's state (None for the TA)."""
        state = self.states[slot]
        self._execute(slot, timer.fn(state, *timer.args, self.now, ids=self.ids))

    # -- scripted events ---------------------------------------------------

    def originate(
        self,
        slot: int,
        kind: MessageKind,
        *,
        payload: Optional[str] = None,
    ) -> Message:
        """Create and broadcast, now, a fresh message from the entity in ``slot``."""
        msg = make_message(kind, self._kinds[slot], self.now, ids=self.ids, payload=payload)
        self.broadcast(msg, slot)
        return msg

    def _report(self) -> None:
        script = self.setup.script
        reporter = self._reporter
        if script.blockage:
            self.world.add_blockage(self.world.arc_of(reporter))
        msg = self.originate(reporter, script.kind, payload=script.payload)
        self._report_id = msg.id

    def _coordinator_clear(self) -> None:
        rsu = self.coordinator
        if rsu is None:
            return
        actions = rsu_scripted_resolution(self.states[rsu], self.now, ids=self.ids)
        self._execute(rsu, actions)

    def _reporter_clear(self) -> None:
        self.originate(self._reporter, MessageKind.CLEARED_ROAD)

    # -- main loop ---------------------------------------------------------

    def run(self) -> Tuple[List[TraceRecord], TrialMetrics]:
        setup = self.setup
        self._schedule(REPORT_TIME, self._report)
        clearance = setup.script.clearance
        if clearance is Clearance.COORDINATOR:
            self._schedule(CLEAR_TIME, self._coordinator_clear)
        elif clearance is Clearance.REPORTER:
            self._schedule(CLEAR_TIME, self._reporter_clear)
        # an official vehicle or the TA resolves the rest when events say so

        dt = setup.dt
        first = self._queue[0][0]
        world = self.world
        last = (world.next_step - 1) * dt
        if last > first:
            raise ValueError(
                f"the world has stepped to {last} s, past the first event at {first} s"
            )
        end = self._steps * dt
        while self._queue:
            at, _, fn, args = heapq.heappop(self._queue)
            if at > setup.duration:
                break
            # step i, due at i * dt up to step _steps, runs before every
            # event due at its time
            if world.next_step * dt <= at:
                world.advance(min(at, end), dt)
            self.now = at
            fn(*args)
        return self.trace, self.metrics


def warm_world(setup: TrialSetup) -> CircularWorld:
    """The road as every trial of ``setup`` finds it at ``REPORT_TIME``: a
    trial runs nothing but mobility steps before the report, so this road
    depends only on the route length, the fleet size and ``dt``. A fleet
    not all spawned by then is a :class:`ConfigError`. It is a copy of the
    road the warm-up stepped, without that step's state: every trial of a
    sweep reads it and none steps it, and a lone trial's first step
    computes every vehicle."""
    world = CircularWorld(setup.route_length, len(setup.validate()))
    world.advance(REPORT_TIME, setup.dt)
    if world.spawned_count < world.fleet_size:
        raise ConfigError(
            f"only {world.spawned_count} of {world.fleet_size} vehicles have "
            f"spawned by the report at {REPORT_TIME} s"
        )
    return world.copy()


def road_for(setup: TrialSetup) -> RoadLog:
    """The road the trials of ``setup``'s density read: a :class:`RoadLog`
    of its :func:`warm_world`, so that each step after the report is taken
    once while their blockage histories agree."""
    return RoadLog(warm_world(setup), setup.dt)
