import heapq
from dataclasses import replace

import pytest

import vanetim.netsim as netsim
from conftest import POLICIES, run_cell
from road_oracle import bits, oracle_advance
from test_golden import GOLDEN, GOLDEN_LOSSY
from vanetim.domain import (
    ActionSource,
    Message,
    MessageKind,
    Priority,
    RoleKind,
    make_message,
    relayed_copy,
    role_of_label,
)
from vanetim.cli import RunConfig, run_sweep
from vanetim.mobility import ROUTE_LENGTH, STEP, CircularWorld
from vanetim.netsim import (
    ConfigError,
    Engine,
    TraceRecord,
    TrialSetup,
    parse_trace,
    road_for,
    warm_world,
    write_trace,
)
from vanetim.protocol import Arm, Broadcast, Wired
from vanetim.relay import FRESH60, HOP4
from vanetim.scenarios import Clearance, build_scenario

VEHICLE = RoleKind.REGULAR_VEHICLE
POLICE = RoleKind.OFFICIAL_VEHICLE
RSU = RoleKind.RSU
TA = RoleKind.TA


def tiny_engine(vehicles=4, seed=1, scenario="accident", police=0, policy=HOP4,
                route_length=None, **setup_kwargs):
    """An engine on its warm road, whose fleet has spawned and is
    repositionable by hand; V0 is slot 0 and any police follow it. Given
    ``route_length``, the engine reads a bare world of that length instead,
    its fleet at rest on the entry point, at the warm road's step: on a
    40 000 m loop the RSUs stand 4 000 m apart, with road between them that
    no RSU reaches."""
    script = build_scenario(scenario, reporter="V0", reporter_index=0)
    setup = TrialSetup(
        script=script,
        policy=policy,
        vehicles=vehicles,
        police=police,
        **setup_kwargs,
    )
    engine = Engine(setup, seed)
    if route_length is not None:
        warm = engine.world
        world = engine.world = CircularWorld(route_length, warm.fleet_size)
        world.positions = [0.0] * warm.fleet_size
        world.speeds = [0.0] * warm.fleet_size
        world.next_step = warm.next_step
    return engine


def run_until(engine, t):
    """Run the queued events due by ``t``, without moving the road."""
    queue = engine._queue
    while queue and queue[0][0] <= t:
        at, _, fn, args = heapq.heappop(queue)
        engine.now = at
        fn(*args)


def spy_on(monkeypatch, engine, name):
    """Record ``(receiver's label, message id, other arguments, actions)``
    per call of the handler ``vanetim.netsim`` calls by ``name``. The TA
    keeps no state, so a handler given none is the TA's."""
    calls = []
    handler = getattr(netsim, name)

    def wrapper(*args, **kwargs):
        actions = handler(*args, **kwargs)
        if isinstance(args[0], Message):
            label, (msg, *rest) = "TA", args
        else:
            state, msg, *rest = args
            slot = next(i for i, known in enumerate(engine.states) if known is state)
            label = engine.labels[slot]
        calls.append((label, msg.id, (tuple(rest), kwargs), actions))
        return actions

    monkeypatch.setattr(netsim, name, wrapper)
    return calls


def place(engine, arcs):
    for slot, arc in enumerate(arcs):
        engine.world.positions[slot] = arc


class TestBroadcast:
    def test_three_neighbours_three_deliveries_one_transmission(self):
        engine = tiny_engine(4)
        # sender V0 at arc 200: both flanking RSUs and V1 in range, rest far
        place(engine, [200.0, 300.0, 2200.0, 2300.0])
        sender = 0
        assert len(engine.world.neighbours_within(sender, 300.0)) == 3
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 10.0, ids=engine.ids)
        engine.now = 10.0
        deliveries = engine.broadcast(msg, sender)
        assert len(deliveries) == 3
        assert len(engine.trace) == 1
        assert engine.metrics.total == 1  # counted per send, not per receipt

    def test_zero_neighbours_still_one_transmission(self):
        engine = tiny_engine(1, route_length=40000.0)
        place(engine, [2000.0])  # midway between RSU0 and RSU1, 4000 m apart
        sender = 0
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 10.0, ids=engine.ids)
        engine.now = 10.0
        assert engine.broadcast(msg, sender) == []
        assert engine.metrics.total == 1

    @pytest.mark.parametrize("arcs, loss, copies", [
        ([2000.0, 2200.0], 0.0, 1),   # V1 in range, midway between two RSUs
        ([2000.0, 2700.0], 0.0, 0),   # no one in range
        ([2000.0, 2200.0], 0.99, 0),  # V1 in range, its copy lost at seed 1
    ], ids=["receiver", "out-of-range", "lost"])
    def test_a_broadcast_with_no_receiver_makes_no_copy(
        self, monkeypatch, arcs, loss, copies
    ):
        made = []

        def counting_copy(msg):
            made.append(msg.id)
            return relayed_copy(msg)

        monkeypatch.setattr(netsim, "relayed_copy", counting_copy)
        engine = tiny_engine(2, route_length=40000.0, loss=loss)
        place(engine, arcs)
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 10.0, ids=engine.ids)
        engine.now = 10.0
        assert len(engine.broadcast(msg, 0)) == copies
        assert len(made) == copies
        assert engine.metrics.total == 1

    def test_lossless_delivery_set_matches_adjacency(self):
        engine = tiny_engine(5)
        place(engine, [0.0, 200.0, 400.0, 600.0, 800.0])
        sender = 2
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 10.0, ids=engine.ids)
        engine.now = 10.0
        delivered = set(engine.broadcast(msg, sender))
        oracle = set(engine.world.neighbours_within(sender, 300.0))
        assert delivered == oracle

    def test_loss_prunes_deliveries_deterministically(self):
        def delivered(seed, loss):
            engine = tiny_engine(5, seed=seed, loss=loss)
            place(engine, [0.0, 150.0, 300.0, 450.0, 600.0])
            sender = 2
            msg = make_message(MessageKind.ACCIDENT, VEHICLE, 10.0, ids=engine.ids)
            engine.now = 10.0
            return list(engine.broadcast(msg, sender))

        full = delivered(1, 0.0)
        lossy = delivered(1, 0.6)
        assert set(lossy) <= set(full)
        assert len(lossy) < len(full)
        assert lossy == delivered(1, 0.6)  # same seed, same outcome


def slots(engine, *labels):
    return [engine.labels.index(label) for label in labels]


class TestWired:
    def test_rsu_to_rsu_and_rsu_to_ta(self):
        engine = tiny_engine(1)
        rsu3, rsu4, ta = slots(engine, "RSU3", "RSU4", "TA")
        msg = make_message(MessageKind.ACCIDENT, RSU, 10.0, ids=engine.ids)
        engine.now = 10.0
        engine.wired_send(msg, rsu3, rsu4)
        engine.wired_send(msg, rsu3, ta)
        at = 10.0 + netsim.WIRED_LATENCY
        assert [(when, args) for when, _, _, args in sorted(engine._queue)] == [
            (at, (msg, (rsu4,), rsu3)), (at, (msg, (ta,), rsu3))
        ]
        assert engine._kinds[ta] is TA
        assert [record.receiver for record in engine.trace] == ["RSU4", "TA"]

    def test_wired_to_vehicle_rejected(self):
        engine = tiny_engine(1)
        (rsu3,) = slots(engine, "RSU3")
        msg = make_message(MessageKind.ACCIDENT, RSU, 10.0, ids=engine.ids)
        with pytest.raises(ValueError):
            engine.wired_send(msg, rsu3, 0)  # slot 0 is V0

    def test_wired_target_receives(self, monkeypatch):
        engine = tiny_engine(1)
        rsu3, rsu4, ta = slots(engine, "RSU3", "RSU4", "TA")
        by_rsu = spy_on(monkeypatch, engine, "handle_rsu")
        by_ta = spy_on(monkeypatch, engine, "handle_ta")
        accident = make_message(MessageKind.ACCIDENT, RSU, 10.0, ids=engine.ids)
        debris = make_message(MessageKind.DEBRIS, RSU, 10.0, ids=engine.ids)
        engine.now = 10.0
        engine.wired_send(accident, rsu3, rsu4)
        engine.wired_send(debris, rsu3, ta)
        run_until(engine, 10.0 + netsim.WIRED_LATENCY)
        assert [call[:3] for call in by_rsu] == [
            ("RSU4", accident.id, ((RSU, True, 10.005), {"ids": engine.ids}))
        ]
        assert [call[:3] for call in by_ta] == [
            ("TA", debris.id, ((10.005,), {"reporting_rsu": rsu3}))
        ]


class TestTrialSetupValidation:
    def test_the_run_must_end_after_the_report(self):
        # a non-finite duration slips past every comparison; a run that ends
        # at the report or before it never reports
        for duration in (400.0, netsim.REPORT_TIME - 30.0, netsim.REPORT_TIME,
                         float("nan"), float("inf")):
            setup = TrialSetup(
                script=build_scenario("accident"),
                policy=HOP4,
                vehicles=19,
                duration=duration,
            )
            with pytest.raises(ConfigError, match="end after the report"):
                setup.validate()
        replace(setup, duration=netsim.REPORT_TIME + 0.5).validate()

    def test_reporter_must_exist(self):
        setup = TrialSetup(script=build_scenario("accident"), policy=HOP4, vehicles=10)
        with pytest.raises(ValueError, match="V17"):
            setup.validate()

    def test_police_reporter_must_exist(self):
        # with one police vehicle, P1 would first be looked up at the report
        script = build_scenario("diversion", reporter="P1")
        setup = TrialSetup(script=script, policy=HOP4, vehicles=19, police=1)
        with pytest.raises(ValueError, match="reporter P1"):
            setup.validate()

    @pytest.mark.parametrize("responder", ["P3", "V0"])
    def test_responder_must_be_a_police_vehicle_in_the_fleet(self, responder):
        # otherwise no official vehicle attends and the accident never clears
        script = build_scenario("accident-police", responder=responder)
        setup = TrialSetup(script=script, policy=HOP4, vehicles=21, police=1)
        with pytest.raises(ValueError, match=f"responder {responder}"):
            setup.validate()

    @pytest.mark.parametrize("scenario", ["accident", "diversion"])
    def test_negative_police_rejected(self, scenario):
        # not measured against the scenario's minimum, 0 or 1 police
        setup = TrialSetup(
            script=build_scenario(scenario), policy=HOP4, vehicles=19, police=-1
        )
        with pytest.raises(ValueError, match="must not be negative"):
            setup.validate()

    def test_minimum_police(self):
        setup = TrialSetup(
            script=build_scenario("accident-police"), policy=HOP4, vehicles=21, police=0
        )
        with pytest.raises(ValueError, match="police"):
            setup.validate()

    @pytest.mark.parametrize("loss", [1.5, float("nan"), -0.2])
    def test_loss_must_lie_in_the_unit_interval(self, loss):
        # otherwise 1.5 drops every copy and NaN or -0.2 runs lossless
        setup = TrialSetup(
            script=build_scenario("accident"),
            policy=HOP4,
            vehicles=19,
            loss=loss,
        )
        with pytest.raises(ValueError, match="loss"):
            setup.validate()

    def test_fleet_must_fit_on_the_route(self):
        # 615 vehicles of 4.5 m plus a 2 m gap take 3 997.5 m of the 4 000 m
        # route, 616 take 4 004 m
        def setup(vehicles):
            return TrialSetup(
                script=build_scenario("accident"),
                policy=HOP4,
                vehicles=vehicles,
            )

        assert 615 * 6.5 <= ROUTE_LENGTH < 616 * 6.5
        setup(615).validate()
        with pytest.raises(ValueError, match="do not fit"):
            setup(616).validate()

    def test_fleet_must_spawn_before_the_report(self):
        # the entry defers a spawn while it is not clear, so the 220th
        # vehicle has not entered by 550 s
        def setup(vehicles, police=0):
            return TrialSetup(
                script=build_scenario("accident-police"),
                policy=HOP4,
                vehicles=vehicles,
                police=police,
            )

        assert warm_world(setup(218, police=1)).spawned_count == 219
        for fleet in (setup(219, police=1), setup(218, police=2), setup(249, police=1)):
            # the nominal 2 s headway would pass every one of them
            fleet.validate()
            with pytest.raises(ConfigError, match=(
                f"only 219 of {fleet.vehicles + fleet.police} vehicles have "
                "spawned by the report at 550.0 s"
            )):
                warm_world(fleet)
            with pytest.raises(ConfigError, match="only 219"):
                Engine(fleet, 1)

    def test_an_engine_validates_its_set_up_once(self, monkeypatch):
        setup = TrialSetup(script=build_scenario("accident"), policy=HOP4, vehicles=19)
        road = road_for(setup)
        calls = []
        validate = TrialSetup.validate

        def counted(self):
            calls.append(self)
            return validate(self)

        monkeypatch.setattr(TrialSetup, "validate", counted)
        for log in (None, road):
            del calls[:]
            Engine(setup, 1, log)
            assert calls == [setup]


class TestRunProperties:
    def test_deterministic_rerun_is_byte_identical(self):
        setup = TrialSetup(script=build_scenario("accident"), policy=HOP4, vehicles=19)
        trace_a, metrics_a = Engine(setup, 1).run()
        trace_b, metrics_b = Engine(setup, 1).run()
        assert [r.to_line() for r in trace_a] == [r.to_line() for r in trace_b]
        assert metrics_a.total == metrics_b.total

    def test_different_seed_differs(self):
        setup = TrialSetup(script=build_scenario("accident"), policy=HOP4, vehicles=19)
        trace_a, _ = Engine(setup, 1).run()
        trace_b, _ = Engine(setup, 2).run()
        assert [r.to_line() for r in trace_a] != [r.to_line() for r in trace_b]

    def test_nothing_is_sent_before_the_report(self):
        setup = TrialSetup(script=build_scenario("accident"), policy=HOP4, vehicles=19)
        trace, _ = Engine(setup, 3).run()
        assert trace  # the incident does produce traffic
        assert min(record.time for record in trace) == netsim.REPORT_TIME

    def test_official_exchange_causal_order(self):
        setup = TrialSetup(
            script=build_scenario("accident-police"), policy=HOP4, vehicles=21, police=1
        )
        trace, _ = Engine(setup, 1).run()

        def first(kind):
            return next(i for i, r in enumerate(trace) if r.kind is kind)

        addressing = first(MessageKind.ADDRESSING_INCIDENT)
        ack = first(MessageKind.ACK)
        free = first(MessageKind.FREE_ROAD)
        cleared = first(MessageKind.CLEARED_ROAD)
        assert addressing < ack < free < cleared


class CountingEngine(Engine):
    """The engine, counting the mobility steps its world takes."""

    @property
    def steps_taken(self):
        return self.world.next_step


class LastEventEngine(CountingEngine):
    """The engine, noting the time of the last scheduled event that ran."""

    last_at = None

    def _schedule(self, at, fn, *args):
        super()._schedule(at, self._noted, fn, args)

    def _noted(self, fn, args):
        self.last_at = self.now
        fn(*args)


class AlwaysStepEngine(CountingEngine):
    """The oracle for the stop rule: on a road of its own that it steps from
    0 s, not the warm road, every mobility step 0.._steps is its own queue
    event at ``i * STEP`` with sequence number ``-i``, so it sorts before
    every other event due at its time, and every one of them runs, whether or
    not any event is left."""

    def run(self):
        setup = self.setup
        self.world = CircularWorld(ROUTE_LENGTH, self.world.fleet_size)
        self._schedule(netsim.REPORT_TIME, self._report)
        clearance = setup.script.clearance
        if clearance is Clearance.COORDINATOR:
            self._schedule(netsim.CLEAR_TIME, self._coordinator_clear)
        elif clearance is Clearance.REPORTER:
            self._schedule(netsim.CLEAR_TIME, self._reporter_clear)
        for i in range(self._steps + 1):
            heapq.heappush(self._queue, (i * STEP, -i, self._step, ()))
        while self._queue:
            at, _, fn, args = heapq.heappop(self._queue)
            if at > setup.duration:
                break
            self.now = at
            fn(*args)
        return self.trace, self.metrics

    def _step(self):
        world = self.world
        if world.spawned_count < world.fleet_size:
            world.inject_flow(self.now)
        world.step()


def lines(trace):
    return [record.to_line() for record in trace]


class TestStopRule:
    """A trial takes the steps due by each event it runs, and no more."""

    @pytest.mark.parametrize("scenario, policy, vehicles, police", [
        ("accident", HOP4, 19, 0),
        ("accident", FRESH60, 19, 0),
        ("accident", HOP4, 79, 0),
        ("accident", FRESH60, 79, 0),
        ("accident-police", HOP4, 21, 2),
        ("debris", HOP4, 19, 0),
        ("service-discovery", FRESH60, 19, 0),
        # no blockage: the trial glides, the oracle steps one by one
        ("traffic-jam", HOP4, 19, 0),
    ])
    def test_matches_the_always_step_oracle(self, scenario, policy, vehicles, police):
        setup = TrialSetup(
            script=build_scenario(scenario), policy=policy, vehicles=vehicles,
            police=police,
        )
        trace, metrics = CountingEngine(setup, 1).run()
        expected, expected_metrics = AlwaysStepEngine(setup, 1).run()
        assert lines(trace) == lines(expected)
        assert metrics.total == expected_metrics.total

    @staticmethod
    def accident():
        return TrialSetup(script=build_scenario("accident"), policy=HOP4, vehicles=19)

    def test_the_oracle_takes_every_step(self):
        oracle = AlwaysStepEngine(self.accident(), 1)
        oracle.run()
        assert oracle.steps_taken == oracle._steps + 1 == 3001

    def test_an_event_at_the_end_keeps_every_step(self):
        setup = self.accident()
        engine = CountingEngine(setup, 1)
        engine._schedule(setup.duration, lambda: None)
        engine.run()
        assert engine.steps_taken == 3001

    @pytest.mark.parametrize("scenario, vehicles, police", [
        ("accident", 19, 0),
        ("accident-police", 21, 2),
    ])
    def test_the_last_step_is_the_last_one_due_by_the_last_event(
        self, scenario, vehicles, police
    ):
        setup = TrialSetup(
            script=build_scenario(scenario), policy=HOP4, vehicles=vehicles,
            police=police,
        )
        engine = LastEventEngine(setup, 1)
        engine.run()
        assert 0 < engine.last_at < setup.duration
        expected = min(int(engine.last_at / STEP), engine._steps) + 1
        assert engine.steps_taken == expected

    def test_an_event_after_the_end_adds_no_step(self):
        setup = self.accident()
        plain = CountingEngine(setup, 1)
        plain.run()
        engine = CountingEngine(setup, 1)
        engine._schedule(setup.duration + STEP, lambda: None)
        engine.run()
        # and the plain trial stops well before the end
        assert engine.steps_taken == plain.steps_taken < 3001


#: (scenario, policy, vehicles, police, loss)
SHARED_WORLD_CELLS = [
    ("accident", policy, vehicles, 0, 0.0)
    for vehicles in (19, 79, 139) for policy in ("hop4", "fresh60")
] + [
    ("accident-police", "hop4", 21, 2, 0.0),
    ("accident", "hop4", 79, 0, 0.3),
]
#: cells whose lost notices move the clearance, so that some trials'
#: blockage histories differ and they leave the log
DIVERGING_CELLS = [
    ("accident-police", "fresh60", 81, 2, 0.3),
    ("accident-police", "hop4", 21, 2, 0.6),
]


def blockage_changes(log):
    """The log's blockage history: (step, blockages) at each change."""
    return [
        (log.start + i, blockages)
        for i, blockages in enumerate(log.blockages)
        if i == 0 or blockages != log.blockages[i - 1]
    ]


def count_steps(monkeypatch):
    """Record each step a world takes from here on, one by one or in a
    glide, a log's frontier included: a list of (world, first step, next
    step, blockages the steps were taken under)."""
    taken = []

    def counting(take):
        def counted(world, *args):
            before, blockages = world.next_step, list(world.blockages)
            done = take(world, *args)
            if world.next_step > before:
                taken.append((world, before, world.next_step, blockages))
            return done
        return counted

    for name in ("step", "_glide"):
        monkeypatch.setattr(CircularWorld, name, counting(getattr(CircularWorld, name)))
    return taken


def world_lists(world):
    """A road's state; one whose fleet has spawned never reads its next
    spawn time."""
    return (list(world.positions), list(world.speeds), list(world.blockages),
            world.next_step)


class TestSharedWorld:
    """Trials that read one recorded road trace as if each stepped its own
    road from 0 s."""

    @staticmethod
    def read_in_both_orders(setup, seeds):
        """Run every seed's trial on one fresh log per order, forwards and
        backwards, and check each trace against its unshared run and that no
        trial changes the warm road or the rows recorded before it; the
        cursors of both orders and the logs come back."""
        unshared = {seed: lines(Engine(setup, seed).run()[0]) for seed in seeds}
        cursors, logs = [], []
        for order in (seeds, seeds[::-1]):
            log = road_for(setup)
            warm = world_lists(log.warm)
            for seed in order:
                rows = [bytes(row) for row in log.rows]
                engine = Engine(setup, seed, log)
                assert lines(engine.run()[0]) == unshared[seed]
                assert [bytes(row) for row in log.rows[:len(rows)]] == rows
                cursors.append(engine.world)
            assert world_lists(log.warm) == warm
            logs.append(log)
        return cursors, logs

    @pytest.mark.parametrize(
        "scenario,policy,vehicles,police,loss",
        SHARED_WORLD_CELLS + DIVERGING_CELLS,
        ids=[f"{s}-{p}-{v}v-{n}p-loss{loss}"
             for s, p, v, n, loss in SHARED_WORLD_CELLS + DIVERGING_CELLS],
    )
    def test_shared_traces_equal_unshared(self, scenario, policy, vehicles, police, loss):
        setup = TrialSetup(
            script=build_scenario(scenario), policy=POLICIES[policy],
            vehicles=vehicles, police=police, loss=loss,
        )
        cursors, logs = self.read_in_both_orders(setup, (1, 3, 5))
        left = any(cursor.log is None for cursor in cursors)
        assert left == ((scenario, policy, vehicles, police, loss) in DIVERGING_CELLS)
        if not left:
            # one history, so the log holds the steps of the longest trial
            for log in logs:
                assert len(log.rows) == max(c.next_step for c in cursors) - log.start

    @pytest.mark.parametrize("vehicles", [19, 139])
    def test_an_accident_density_has_one_history(self, vehicles):
        log = road_for(TrialSetup(script=build_scenario("accident"), policy=HOP4,
                                  vehicles=vehicles))
        for policy, seed in ((HOP4, 1), (FRESH60, 2)):
            setup = TrialSetup(script=build_scenario("accident"), policy=policy,
                               vehicles=vehicles)
            engine = Engine(setup, seed, log)
            engine.run()
            assert engine.world.log is log
        # the report's blockage, then the clearance
        (added, (arc,)), cleared = blockage_changes(log)
        assert (added, cleared) == (1101, (1701, []))

    def test_a_lone_trial_starts_from_its_warm_road(self):
        setup = TrialSetup(script=build_scenario("accident"), policy=HOP4, vehicles=19)
        world, warm = Engine(setup, 1).world, warm_world(setup)
        assert (world.positions, world.speeds, world.next_step) == (
            warm.positions, warm.speeds, warm.next_step
        )
        assert world.next_step * STEP > netsim.REPORT_TIME

    def test_a_run_that_ends_before_the_report_is_refused_either_way(self):
        setup = TrialSetup(
            script=build_scenario("accident"), policy=HOP4, vehicles=19,
            duration=netsim.REPORT_TIME - 10.0,
        )
        with pytest.raises(ConfigError, match="end after the report"):
            Engine(setup, 1)
        with pytest.raises(ConfigError, match="end after the report"):
            road_for(setup)

    def test_a_blockage_standing_at_the_end_stays_in_its_trial(self):
        # the run ends between the report and the clearance, so the
        # reporter's blockage is still on the trial's road when it ends
        setup = TrialSetup(
            script=build_scenario("accident"), policy=HOP4, vehicles=19,
            duration=netsim.CLEAR_TIME - 100.0,
        )
        log = road_for(setup)
        before = world_lists(log.warm)
        for seed in (1, 3):
            engine = Engine(setup, seed, log)
            assert lines(engine.run()[0]) == lines(Engine(setup, seed).run()[0])
            assert engine.world.blockages
        assert world_lists(log.warm) == before

    @pytest.mark.parametrize("other", [
        dict(vehicles=20),
        dict(police=2),
    ], ids=["fleet", "police"])
    def test_a_world_for_another_road_is_refused(self, other):
        setup = TrialSetup(script=build_scenario("accident"), policy=HOP4, vehicles=19)
        log = road_for(replace(setup, **other))
        with pytest.raises(ValueError, match="cannot host"):
            Engine(setup, 1, log)

    def test_a_world_stepped_past_the_first_event_is_refused(self):
        setup = TrialSetup(script=build_scenario("accident"), policy=HOP4, vehicles=19)
        engine = Engine(setup, 1, road_for(setup))
        engine._schedule(100.0, lambda: None)
        with pytest.raises(ValueError, match="past the first event"):
            engine.run()

    def test_a_later_trial_extends_the_frontier(self):
        accident = build_scenario("accident")
        short = TrialSetup(script=accident, policy=HOP4, vehicles=79,
                           duration=netsim.CLEAR_TIME - 100.0)
        full = replace(short, duration=1500.0)
        log = road_for(short)
        warm = world_lists(log.warm)
        # the short trial ends with its blockage standing, so its history
        # lacks the clearance the full trials have
        assert lines(Engine(short, 1, log).run()[0]) == lines(Engine(short, 1).run()[0])
        before = [bytes(row) for row in log.rows]
        frontier = log.start + len(before)
        for seed in (1, 3):
            engine = Engine(full, seed, log)
            assert lines(engine.run()[0]) == lines(Engine(full, seed).run()[0])
            assert engine.world.log is log
            assert engine.world.next_step > frontier
        assert [bytes(row) for row in log.rows[:len(before)]] == before
        assert len(log.rows) > len(before)
        assert world_lists(log.warm) == warm

    def test_a_cursor_shows_the_row_of_the_last_step_taken(self):
        setup = TrialSetup(script=build_scenario("accident"), policy=HOP4, vehicles=19)
        log = road_for(setup)
        for _ in range(2):
            # the first cursor steps the frontier, the second reads its rows
            cursor, private = log.cursor(), log.warm.copy()
            for until, blockage in ((551.0, 500.0), (600.2, None), (650.0, None)):
                for world in (cursor, private):
                    world.advance(until)
                    if blockage is not None:
                        world.add_blockage(blockage)
                    elif world.blockages:
                        world.clear_blockages()
                assert list(cursor.positions) == private.positions
                assert cursor.next_step == private.next_step
                assert cursor.blockages == private.blockages
            assert cursor.log is log
        assert blockage_changes(log) == [(1101, []), (1103, [500.0]), (1201, [])]

    def test_a_speeds_read_keeps_the_cursor_on_its_log(self):
        setup = TrialSetup(script=build_scenario("accident"), policy=HOP4, vehicles=19)
        log = road_for(setup)
        warm, cursors = world_lists(log.warm), []
        for _ in range(2):
            # the first cursor steps the frontier, the second reads its rows;
            # a blockage parked from the report on changes speeds
            cursor, private = log.cursor(), log.warm.copy()
            for until in (551.0, 580.0, 600.2, 700.0):
                for world in (cursor, private):
                    world.advance(until)
                    if not world.blockages:
                        world.add_blockage(500.0)
                assert world_lists(cursor) == world_lists(private)
                assert cursor.log is log
            assert cursor.speeds != warm[1]
            cursors.append(cursor)
        assert world_lists(log.warm) == warm
        # each cursor's speeds are its own
        first, second = cursors
        for other in (second, log.warm, log._frontier):
            assert first.speeds is not other.speeds

    @pytest.mark.parametrize("act", [
        lambda world: world.step(),
    ], ids=["step"])
    def test_a_cursor_leaves_the_log_before_its_speeds_or_writes(self, act):
        setup = TrialSetup(script=build_scenario("accident"), policy=HOP4, vehicles=19)
        log = road_for(setup)
        log.cursor().advance(600.0)
        rows, warm = [bytes(row) for row in log.rows], world_lists(log.warm)
        cursor, private = log.cursor(), log.warm.copy()
        for world in (cursor, private):
            world.advance(580.0)
            act(world)
        # it goes on as a private world, and the rows others read stay put
        assert cursor.log is None
        assert world_lists(cursor) == world_lists(private)
        assert [bytes(row) for row in log.rows] == rows
        assert world_lists(log.warm) == warm

    @pytest.mark.parametrize("vehicles", [79, 139])
    def test_a_cursor_that_leaves_under_the_logs_blockage_steps_like_the_two_loop_step(
        self, vehicles
    ):
        setup = TrialSetup(script=build_scenario("accident"), policy=HOP4,
                           vehicles=vehicles)
        log = road_for(setup)
        arc = log.warm.positions[17]
        # the log records a blockage parked at a vehicle from the report to
        # 700 s
        first = log.cursor()
        first.advance(550.0)
        first.add_blockage(arc)
        first.advance(700.0)
        first.clear_blockages()
        first.advance(800.0)
        assert first.log is log
        # this trial clears it at 600 s, so it leaves the log at a step the
        # log took under the blockage, with a queue standing behind it
        cursor, oracle = log.cursor(), log.warm.copy()
        for until in (550.0, 600.0, 650.3, 700.0, 800.0):
            cursor.advance(until)
            oracle_advance(oracle, until)
            assert cursor.next_step == oracle.next_step
            assert bits(cursor) == bits(oracle), f"at {until} s"
            for world in (cursor, oracle):
                if until == 550.0:
                    world.add_blockage(arc)
                elif until == 600.0:
                    world.clear_blockages()
        assert cursor.log is None

    def test_a_sweep_takes_each_post_report_step_once_per_density(self, monkeypatch):
        config = RunConfig(scenario="accident", seed=1, trials=2, densities=(19, 79))
        policies = ("hop4", "fresh60")
        # a density's road takes as many steps as its longest trial
        expected = 0
        for vehicles in config.densities:
            longest = 0
            for policy in policies:
                for trial in range(config.trials):
                    setup = TrialSetup(script=build_scenario("accident"),
                                       policy=POLICIES[policy], vehicles=vehicles)
                    engine = CountingEngine(setup, config.seed + trial)
                    engine.run()
                    longest = max(longest, engine.steps_taken)
            expected += longest
        taken = count_steps(monkeypatch)
        run_sweep(config, policies)
        assert sum(after - before for _, before, after, _ in taken) == expected

    @pytest.mark.parametrize(
        "scenario,policy,vehicles,police,loss", DIVERGING_CELLS,
        ids=[f"{s}-{p}-{v}v-{n}p-loss{loss}" for s, p, v, n, loss in DIVERGING_CELLS],
    )
    def test_a_cursor_that_leaves_takes_no_recorded_step(
        self, monkeypatch, scenario, policy, vehicles, police, loss
    ):
        setup = TrialSetup(
            script=build_scenario(scenario), policy=POLICIES[policy],
            vehicles=vehicles, police=police, loss=loss,
        )
        log = road_for(setup)
        taken = count_steps(monkeypatch)
        cursors = []
        for seed in (1, 3, 5):
            engine = Engine(setup, seed, log)
            engine.run()
            cursors.append(engine.world)
        left = [cursor for cursor in cursors if cursor.log is None]
        assert left
        # the steps each world took: the frontier's are the recorded ones,
        # and only a cursor that left the log steps on its own
        steps = {id(world): [] for world in [log._frontier] + left}
        for world, before, after, blockages in taken:
            assert id(world) in steps, "a step of neither the frontier nor a cursor that left"
            steps[id(world)].append((before, after, blockages))
        for world in [log._frontier] + left:
            runs = steps[id(world)]
            # one step after another, none taken twice
            for (_, after, _), (before, _, _) in zip(runs, runs[1:]):
                assert before == after
        assert len(log.rows) == sum(a - b for b, a, _ in steps[id(log._frontier)])
        for cursor in left:
            # it read every recorded step before its first own one, which
            # its history takes under other blockages than the log's
            (first, _, blockages), *_ = steps[id(cursor)]
            assert log.blockages[first - log.start] != blockages


class PerReceiverEngine(Engine):
    """The oracle for batched delivery: one delivery event per receiver,
    each with its own sequence number."""

    def broadcast(self, msg, sender, source=ActionSource.ORIGIN, downstream_only=False):
        self._record(msg, sender, "*", source)
        loss = self.setup.loss
        copy = relayed_copy(msg)
        deliveries = []
        for receiver in self.world.neighbours_within(sender, netsim.RADIO_RANGE):
            if downstream_only:
                if self._kinds[receiver] is RoleKind.RSU:
                    continue
                if not self.world.downstream_of(sender, receiver):
                    continue
            if loss > 0 and self.rng.random() < loss:
                continue
            at = self.now + netsim.HOP_LATENCY
            self._schedule(at, self._deliver, copy, (receiver,), sender)
            deliveries.append((at, receiver))
        return deliveries


class TestBatchedDelivery:
    """One event per broadcast runs the receipts the per-receiver events ran,
    in the same order, with the same loss and hold-jitter draws."""

    @pytest.mark.parametrize("scenario, policy, vehicles, police, loss", [
        ("accident", HOP4, 19, 0, 0.0),
        ("accident", FRESH60, 19, 0, 0.0),
        ("accident", HOP4, 79, 0, 0.0),
        ("accident", FRESH60, 79, 0, 0.0),
        ("accident", HOP4, 139, 0, 0.0),
        ("accident", FRESH60, 139, 0, 0.0),
        ("accident-police", HOP4, 21, 2, 0.0),
        ("debris", HOP4, 19, 0, 0.0),
        ("service-discovery", FRESH60, 19, 0, 0.0),
        ("accident", HOP4, 79, 0, 0.3),
    ])
    def test_matches_the_per_receiver_oracle(self, scenario, policy, vehicles, police,
                                             loss):
        setup = TrialSetup(
            script=build_scenario(scenario), policy=policy, vehicles=vehicles,
            police=police, loss=loss,
        )
        trace, metrics = Engine(setup, 1).run()
        expected, expected_metrics = PerReceiverEngine(setup, 1).run()
        assert lines(trace) == lines(expected)
        assert metrics.total == expected_metrics.total

    def test_one_event_per_broadcast(self):
        engine = tiny_engine(4)
        place(engine, [200.0, 300.0, 2200.0, 2300.0])
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 10.0, ids=engine.ids)
        engine.now = 10.0
        deliveries = engine.broadcast(msg, 0)
        assert len(deliveries) == 3
        assert len(engine._queue) == 1


class TestDuplicateReceipts:
    """Only a regular vehicle drops a copy it has seen unread; RSUs and
    official vehicles act on every receipt."""

    def test_second_accident_copy_makes_the_rsu_burst_twice(self, monkeypatch):
        engine = tiny_engine(2)
        place(engine, [200.0, 2200.0])  # V0 between RSU0 and RSU1
        calls = spy_on(monkeypatch, engine, "handle_rsu")
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 10.0, ids=engine.ids)
        engine.now = 10.0
        engine.broadcast(msg, 0)
        engine.broadcast(msg, 0)  # a second copy of the same report
        run_until(engine, 10.0 + netsim.HOP_LATENCY)
        rsu0 = [actions for label, _, _, actions in calls if label == "RSU0"]
        assert len(rsu0) == 2
        # the (ACCIDENT, REGULAR_VEHICLE, False) row: a burst of 2 repeats
        repeat = rsu0[1]
        assert len(repeat) == 2
        assert all(isinstance(action, Broadcast) for action in repeat)
        assert {action.message.id for action in repeat} == {msg.id}
        assert {action.source for action in repeat} == {ActionSource.BURST}

    def test_duplicate_reaches_the_official_handler(self, monkeypatch):
        engine = tiny_engine(2, scenario="accident-police", police=1)
        place(engine, [1000.0, 1100.0, 3000.0])  # slot 1 is P0, beside V0
        assert engine.labels[1] == "P0"
        calls = spy_on(monkeypatch, engine, "handle_official")
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 10.0, ids=engine.ids)
        engine.now = 10.0
        engine.broadcast(msg, 0)
        engine.broadcast(msg, 0)
        run_until(engine, 10.0 + netsim.HOP_LATENCY)
        assert [(label, msg_id) for label, msg_id, _, _ in calls] == [
            ("P0", msg.id), ("P0", msg.id)
        ]
        assert msg.id in engine.seen[1]

    def test_official_copy_delivered_twice_is_relayed_once(self):
        # official priority lifts the hop and age bounds, not duplicate
        # suppression: copies after the first, before or after its relay,
        # are dropped
        engine = tiny_engine(2)
        place(engine, [1000.0, 1100.0])
        msg = make_message(MessageKind.ATTENDING, POLICE, 10.0, ids=engine.ids)
        assert msg.priority is Priority.OFFICIAL
        engine.now = 10.0
        engine.broadcast(msg, 0)
        engine.broadcast(msg, 0)
        run_until(engine, 20.0)
        engine.now = 20.0
        engine.broadcast(msg, 0)
        run_until(engine, 30.0)
        relays = [
            (record.time, record.msg_id) for record in engine.trace
            if record.sender == "V1" and record.source is ActionSource.RELAY
        ]
        assert relays == [(10.0 + netsim.HOP_LATENCY + netsim.OFFICIAL_HOLD, msg.id)]

    def test_an_rsu_that_hears_its_own_avoid_road_bursts_nothing_more(self):
        # RSU0 derives an AVOID_ROAD notice from V0's report and bursts it
        # three times; V0 relays the notice, and RSU0 hears it back
        engine = tiny_engine(1)
        place(engine, [50.0])  # in range of RSU0 only
        report = make_message(MessageKind.ACCIDENT, VEHICLE, 10.0, ids=engine.ids)
        engine.now = 10.0
        engine.broadcast(report, 0)
        run_until(engine, 200.0)
        notice = next(
            record.msg_id for record in engine.trace
            if record.kind is MessageKind.AVOID_ROAD and record.sender == "RSU0"
        )
        sends = [
            (record.sender, record.source) for record in engine.trace
            if record.msg_id == notice
        ]
        assert ("V0", ActionSource.RELAY) in sends
        assert sends.count(("RSU0", ActionSource.BURST)) == 3



class TestRelayAtReceipt:
    """A first receipt decides its relay for the end of its hold: an
    admitted copy schedules its broadcast, and nothing else, at once."""

    def test_a_relay_precedes_same_instant_events_scheduled_after_its_receipt(self):
        engine = tiny_engine(2, route_length=40000.0)
        place(engine, [2000.0, 2200.0])  # V0 and V1 in range, no RSU
        msg = make_message(MessageKind.ATTENDING, POLICE, 10.0, ids=engine.ids)
        engine.now = 10.0
        engine.broadcast(msg, 0)
        run_until(engine, 10.0 + netsim.HOP_LATENCY)  # V1's first receipt
        seen_by_marker = []
        engine._schedule(
            engine.now + netsim.OFFICIAL_HOLD,
            lambda: seen_by_marker.append([(r.sender, r.source) for r in engine.trace]),
        )
        run_until(engine, 20.0)
        # the relay is due at the marker's instant, and takes its place by
        # the copy's arrival, before the marker was scheduled
        assert seen_by_marker == [[("V0", ActionSource.ORIGIN), ("V1", ActionSource.RELAY)]]

    @pytest.mark.parametrize("policy", [HOP4, FRESH60], ids=["hop4", "fresh60"])
    def test_an_admitted_copy_schedules_only_its_broadcast(self, policy):
        engine = tiny_engine(2, route_length=40000.0, policy=policy)
        copy = relayed_copy(make_message(MessageKind.ACCIDENT, VEHICLE, 10.0, ids=engine.ids))
        engine.now = 10.0
        engine._deliver(copy, (1,), 0)
        ((at, _, fn, args),) = engine._queue
        assert fn == engine.broadcast
        assert args == (copy, 1, ActionSource.RELAY)
        hold, jitter = engine.setup.relay_hold, netsim.RELAY_JITTER
        assert 10.0 + hold * (1 - jitter) <= at <= 10.0 + hold * (1 + jitter)

    def test_a_copy_fresh_at_receipt_but_stale_at_its_relay_time_schedules_nothing(self):
        engine = tiny_engine(2, route_length=40000.0, policy=FRESH60)
        copy = relayed_copy(make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=engine.ids))
        # 50 s old at receipt; the hold of at least 28 s takes it past 60 s
        engine.now = 600.0
        engine._deliver(copy, (1,), 0)
        assert engine._queue == []
        assert copy.id in engine.seen[1]

    def test_the_relayed_copy_keeps_the_hop_count_it_arrived_with(self):
        # a hop is counted at radio delivery, not again at the relay
        engine = tiny_engine(2, route_length=40000.0)
        place(engine, [2000.0, 2200.0])
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 10.0, ids=engine.ids)
        engine.now = 10.0
        engine.broadcast(msg, 0)
        run_until(engine, 100.0)
        assert [
            (record.sender, record.msg_id, record.hops) for record in engine.trace
        ] == [("V0", msg.id, 0), ("V1", msg.id, 1)]


#: every golden cell, lossy ones with their loss rate
RELAY_ONCE_CELLS = [
    (scenario, policy, vehicles, police, seed, 0.0)
    for scenario, policy, vehicles, police, seed, _ in GOLDEN
] + [
    (scenario, policy, vehicles, 0, seed, loss)
    for scenario, policy, vehicles, seed, loss, _ in GOLDEN_LOSSY
]


@pytest.mark.parametrize(
    "scenario,policy,vehicles,police,seed,loss",
    RELAY_ONCE_CELLS,
    ids=[f"{s}-{p}-{v}v-{n}p-s{seed}-loss{loss}"
         for s, p, v, n, seed, loss in RELAY_ONCE_CELLS],
)
def test_no_sender_relays_an_id_twice(scenario, policy, vehicles, police, seed, loss):
    # run_cell checks each trace with trace_faults, whose first rule is this
    # test's; here each golden cell must also give that rule relays to check
    ((_, trace, _),) = run_cell(
        scenario, policy, vehicles, (seed,), police=police, loss=loss
    )
    assert any(record.source is ActionSource.RELAY for record in trace)


class TestSlots:
    def test_vehicle_slots_map_back_to_their_labels(self):
        engine = tiny_engine(5, scenario="accident-police", police=2)
        fleet = engine.world.fleet_size
        assert engine.world.spawned_count == fleet
        # the officials spawn right after the reporter, V0
        assert engine.labels[:fleet] == ["V0", "P0", "P1", "V1", "V2", "V3", "V4"]
        for slot, label in enumerate(engine.labels[:fleet]):
            assert engine._kinds[slot] is role_of_label(label)

    @pytest.mark.parametrize("scenario, vehicles, police, fleet", [
        ("accident-police", 21, 2,
         [f"V{i}" for i in range(18)] + ["P0", "P1", "V18", "V19", "V20"]),
        ("diversion", 19, 1, [f"V{i}" for i in range(18)] + ["P0", "V18"]),
        ("diversion", 0, 1, ["P0"]),
    ])
    def test_catalogue_fleet_layout(self, scenario, vehicles, police, fleet):
        # catalogue scripts spawn the officials right behind V17, or after
        # the whole fleet when it is smaller
        setup = TrialSetup(
            script=build_scenario(scenario), policy=HOP4, vehicles=vehicles,
            police=police,
        )
        assert setup.fleet() == setup.validate() == fleet
        engine = Engine(setup, 1)
        assert engine.labels[:engine.world.fleet_size] == fleet

    def test_infrastructure_follows_the_fleet(self):
        engine = tiny_engine(3)
        for i, (slot, _) in enumerate(engine.world.rsus):
            assert engine._kinds[slot] is RSU
            assert engine.labels[slot] == f"RSU{i}"
        assert engine._kinds[-1] is TA
        assert engine.labels[-1] == "TA"
        assert len(engine.states) == len(engine.labels) == 3 + 10 + 1

    @pytest.mark.parametrize("police", [0, 2])
    def test_backbone_ring_and_authority(self, police):
        scenario = "accident-police" if police else "accident"
        engine = tiny_engine(3, scenario=scenario, police=police)
        rsus = [slot for slot, _ in engine.world.rsus]
        (ta,) = slots(engine, "TA")
        for i, slot in enumerate(rsus):
            state = engine.states[slot]
            # ring predecessor and successor, RSU0 <-> RSU9 included
            assert state.neighbours == (rsus[i - 1], rsus[(i + 1) % len(rsus)])
            assert [engine.labels[peer] for peer in state.neighbours] == [
                f"RSU{(i - 1) % 10}", f"RSU{(i + 1) % 10}"
            ]
            assert state.ta == ta


class TestCausalOrder:
    def test_timer_armed_in_the_past_raises(self):
        def done(state, now, *, ids):
            return []

        def rewind(state, now, *, ids):
            return [Arm(now - 1.0, done, ())]

        engine = tiny_engine(1)
        engine._execute(engine.labels.index("TA"), [Arm(600.0, rewind, ())])
        with pytest.raises(RuntimeError, match="scheduled at 600"):
            engine.run()

    def test_broadcast_sent_in_the_past_raises(self):
        def rewind(state, now, *, ids):
            msg = make_message(MessageKind.ACCIDENT, VEHICLE, now, ids=ids)
            return [Broadcast(msg, at=now - 1.0, source=ActionSource.ORIGIN)]

        engine = tiny_engine(1)
        engine._execute(0, [Arm(600.0, rewind, ())])
        with pytest.raises(RuntimeError, match="scheduled at 600"):
            engine.run()

    def test_wired_send_in_the_past_raises(self):
        engine = tiny_engine(1)
        rsu = engine.labels.index("RSU0")

        def rewind(state, now, *, ids):
            msg = make_message(MessageKind.DEBRIS_RESOLVED, TA, now, ids=ids)
            return [Wired(msg, to=rsu, at=now - 1.0)]

        engine._execute(engine.labels.index("TA"), [Arm(600.0, rewind, ())])
        with pytest.raises(RuntimeError, match="scheduled at 600"):
            engine.run()

    def test_nan_time_raises(self):
        engine = tiny_engine(1)
        with pytest.raises(RuntimeError):
            engine._schedule(float("nan"), lambda: None)


class TestTraceFiles:
    def test_round_trip(self, tmp_path):
        setup = TrialSetup(script=build_scenario("accident"), policy=HOP4, vehicles=19)
        trace, _ = Engine(setup, 1).run()
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        parsed = parse_trace(path)
        # times are serialized at microsecond precision, so compare lines
        assert [r.to_line() for r in parsed] == [r.to_line() for r in trace]

    def test_line_format(self):
        record = TraceRecord(
            time=550.01,
            sender="V17",
            sender_class=VEHICLE,
            receiver="*",
            msg_id="m00000",
            kind=MessageKind.ACCIDENT,
            hops=0,
            source=ActionSource.ORIGIN,
        )
        assert record.to_line() == "550.010000,V17,*,m00000,accident,X,0,origin"

    def test_other_road_rejected(self, tmp_path):
        # a trial runs on one road, which the trace format writes as X
        path = tmp_path / "trace.csv"
        path.write_text("550.000000,V17,*,m00000,accident,Y,0,origin\n")
        with pytest.raises(ValueError, match="trace.csv: road 'Y' is not 'X'"):
            parse_trace(path)

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError, match="cannot write"):
            write_trace([], tmp_path / "no-dir" / "trace.csv")
