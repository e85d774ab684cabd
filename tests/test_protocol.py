import pytest

from conftest import (
    RSU0_SLOT,
    RSU1_SLOT,
    RSU9_SLOT,
    TA_SLOT,
    broadcasts,
    fresh_rsu,
    rsu_receive,
    wired,
)
from vanetim.domain import (
    ActionSource,
    MessageIdSource,
    MessageKind,
    RoleKind,
    make_message,
    relayed_copy,
)
from vanetim.protocol import (
    ATTENDING_PERIOD,
    Arm,
    BURST_INTERVAL,
    Broadcast,
    DEFAULT_RULE_ROWS,
    IncidentStatus,
    OfficialPhase,
    OfficialState,
    ProtocolOrderError,
    REPORT_PERIOD,
    RESTRICTED_PERIOD,
    ServiceDirectory,
    ServiceEntry,
    SpeedHistory,
    TA_SERVICE_DELAY,
    Wired,
    advance_incident,
    detect_congestion,
    detect_jam,
    handle_official,
    handle_rsu,
    handle_ta,
    official_announce,
    official_arrival,
    official_resolve,
    relay_decision,
    rsu_report_tick,
    rsu_restricted_tick,
    ta_resolve,
)
from vanetim.netsim import Engine, TrialSetup
from vanetim.relay import FRESH60, HOP4
from vanetim.scenarios import build_scenario

VEHICLE = RoleKind.REGULAR_VEHICLE
POLICE = RoleKind.OFFICIAL_VEHICLE
RSU = RoleKind.RSU


class TestRuleTable:
    def test_exactly_five_populated_rows(self):
        assert len(DEFAULT_RULE_ROWS) == 5

    def test_unpopulated_rows_yield_zero(self, ids):
        # no row covers an accident first heard from an official vehicle
        assert (MessageKind.ACCIDENT, POLICE, True) not in DEFAULT_RULE_ROWS
        state = fresh_rsu()
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=ids)
        assert handle_rsu(state, msg, POLICE, True, 550.0, ids=ids) == []

    def test_accident_from_vehicle_first_receipt(self, ids):
        state = fresh_rsu()
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=ids)
        actions = handle_rsu(state, msg, VEHICLE, True, 550.0, ids=ids)
        assert len(broadcasts(actions, MessageKind.ACCIDENT)) == 3
        assert len(broadcasts(actions, MessageKind.AVOID_ROAD)) == 3
        assert len(wired(actions, MessageKind.ACCIDENT)) == 2  # both neighbours
        assert state.status is IncidentStatus.OPEN

    def test_accident_from_rsu(self, ids):
        state = fresh_rsu()
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=ids)
        actions = handle_rsu(state, msg, RSU, True, 551.0, ids=ids)
        assert len(broadcasts(actions, MessageKind.ACCIDENT)) == 2
        assert len(broadcasts(actions, MessageKind.AVOID_ROAD)) == 2
        assert wired(actions) == []

    def test_avoid_road_from_rsu(self, ids):
        state = fresh_rsu()
        msg = make_message(MessageKind.AVOID_ROAD, RSU, 551.0, ids=ids)
        actions = handle_rsu(state, msg, RSU, True, 551.0, ids=ids)
        assert len(broadcasts(actions, MessageKind.AVOID_ROAD)) == 3
        assert len(actions) == 3

    def test_avoid_road_from_vehicle(self, ids):
        state = fresh_rsu()
        msg = make_message(MessageKind.AVOID_ROAD, RSU, 551.0, ids=ids)
        actions = handle_rsu(state, msg, VEHICLE, True, 560.0, ids=ids)
        assert len(broadcasts(actions, MessageKind.AVOID_ROAD)) == 2
        assert len(actions) == 2

    def test_stale_accident_from_vehicle(self, ids):
        state, seen = fresh_rsu(), set()
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=ids)
        rsu_receive(state, seen, msg, VEHICLE, 550.0, ids)
        # the same report arrives again from another vehicle; incident open
        actions = rsu_receive(state, seen, msg, VEHICLE, 580.0, ids)
        assert len(broadcasts(actions, MessageKind.ACCIDENT)) == 2
        assert broadcasts(actions, MessageKind.AVOID_ROAD) == []
        third = rsu_receive(state, seen, msg, VEHICLE, 590.0, ids)
        assert third == []  # stale row fires once

    def test_accident_from_rsu_reburst_once_on_vehicle_repeat(self, ids):
        # first heard over the wire: repeats from the backbone or a police
        # vehicle do nothing; the first repeat from a vehicle re-bursts twice
        state, seen = fresh_rsu(), set()
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=ids)
        rsu_receive(state, seen, msg, RSU, 551.0, ids)
        assert rsu_receive(state, seen, msg, RSU, 555.0, ids) == []
        assert rsu_receive(state, seen, msg, POLICE, 556.0, ids) == []
        actions = rsu_receive(state, seen, msg, VEHICLE, 560.0, ids)
        assert len(broadcasts(actions, MessageKind.ACCIDENT)) == 2
        assert len(actions) == 2
        assert rsu_receive(state, seen, msg, VEHICLE, 570.0, ids) == []
        assert rsu_receive(state, seen, msg, RSU, 571.0, ids) == []

    def test_accident_on_resolved_road_ignored(self, ids):
        state = fresh_rsu()
        state.status = IncidentStatus.RESOLVED
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=ids)
        assert handle_rsu(state, msg, VEHICLE, True, 550.0, ids=ids) == []


class TestRsuResolution:
    def test_sorted_road_from_police(self, ids):
        state = fresh_rsu()
        state.status = IncidentStatus.OPEN
        msg = make_message(MessageKind.SORTED_ROAD, POLICE, 700.0, ids=ids)
        actions = handle_rsu(state, msg, POLICE, True, 700.0, ids=ids)
        assert len(broadcasts(actions, MessageKind.CLEARED_ROAD)) == 3
        assert len(wired(actions, MessageKind.CLEARED_ROAD)) == 2
        assert state.status is IncidentStatus.RESOLVED

    def test_derived_notice_flooded_despite_colliding_ids(self, ids):
        state = fresh_rsu()
        state.status = IncidentStatus.OPEN
        msg = make_message(MessageKind.SORTED_ROAD, POLICE, 700.0, ids=ids)
        # a second, fresh source hands the derived notice the input's id
        actions = handle_rsu(state, msg, POLICE, True, 700.0, ids=MessageIdSource())
        notices = wired(actions, MessageKind.CLEARED_ROAD)
        assert [a.to for a in notices] == [RSU9_SLOT, RSU1_SLOT]
        assert all(a.message.id == msg.id for a in notices)

    def test_cleared_road_from_rsu(self, ids):
        state = fresh_rsu()
        state.status = IncidentStatus.OPEN
        msg = make_message(MessageKind.CLEARED_ROAD, RSU, 700.0, ids=ids)
        actions = handle_rsu(state, msg, RSU, True, 700.0, ids=ids)
        assert len(broadcasts(actions, MessageKind.CLEARED_ROAD)) == 3

    def test_clearance_without_open_incident_not_rebroadcast(self, ids):
        state = fresh_rsu()
        msg = make_message(MessageKind.CLEARED_ROAD, RSU, 700.0, ids=ids)
        actions = handle_rsu(state, msg, RSU, True, 700.0, ids=ids)
        assert broadcasts(actions) == []  # only forwarded along the backbone
        assert all(isinstance(a, Wired) for a in actions)


class TestRsuTimers:
    def _fire(self, state, arm, ids):
        return arm.fn(state, *arm.args, arm.at, ids=ids)

    def test_open_report_reannounced_until_cleared(self, ids):
        state = fresh_rsu()
        msg = make_message(MessageKind.OBSTACLE, VEHICLE, 550.0, ids=ids)
        (arm,) = [a for a in handle_rsu(state, msg, VEHICLE, True, 550.0, ids=ids)
                  if isinstance(a, Arm)]
        assert (arm.fn, arm.args) == (rsu_report_tick, ())
        assert arm.at == 550.0 + 3 * BURST_INTERVAL
        announce, rearm = self._fire(state, arm, ids)
        assert announce.message is msg
        assert announce.source is ActionSource.BURST
        assert (rearm.fn, rearm.args) == (rsu_report_tick, ())
        assert rearm.at == arm.at + REPORT_PERIOD
        state.status = IncidentStatus.RESOLVED
        assert self._fire(state, rearm, ids) == []

    def test_restricted_movement_reannounced_while_attended(self, ids):
        state = fresh_rsu()
        msg = make_message(MessageKind.ADDRESSING_INCIDENT, POLICE, 560.0, ids=ids)
        (arm,) = [a for a in handle_rsu(state, msg, POLICE, True, 560.0, ids=ids)
                  if isinstance(a, Arm)]
        assert (arm.fn, arm.args) == (rsu_restricted_tick, ())
        assert arm.at == 560.0 + RESTRICTED_PERIOD
        announce, rearm = self._fire(state, arm, ids)
        assert announce.message is state.restricted
        assert announce.message.kind is MessageKind.RESTRICTED_MOVEMENT
        assert (rearm.fn, rearm.args) == (rsu_restricted_tick, ())
        assert rearm.at == arm.at + RESTRICTED_PERIOD
        state.status = IncidentStatus.RESOLVED
        assert self._fire(state, rearm, ids) == []


class TestRsuAcknowledgement:
    def test_addressing_first_heard_from_vehicle_never_acked(self, ids):
        # the RSU acknowledges only an official vehicle's own first copy;
        # that copy arrives here as a repeat, so no ACK is ever sent
        state, seen = fresh_rsu(), set()
        msg = make_message(MessageKind.ADDRESSING_INCIDENT, POLICE, 560.0, ids=ids)
        copy = relayed_copy(msg)
        assert rsu_receive(state, seen, copy, VEHICLE, 561.0, ids) == []
        assert rsu_receive(state, seen, msg, POLICE, 562.0, ids) == []
        assert state.restricted is None

    def test_second_addressing_on_attended_road_acked_only(self, ids):
        state, seen = fresh_rsu(), set()
        first = make_message(MessageKind.ADDRESSING_INCIDENT, POLICE, 560.0, ids=ids)
        rsu_receive(state, seen, first, POLICE, 560.0, ids)
        second = make_message(
            MessageKind.ADDRESSING_INCIDENT, POLICE, 565.0, ids=ids
        )
        (ack,) = rsu_receive(state, seen, second, POLICE, 565.0, ids)
        assert ack.message.kind is MessageKind.ACK
        assert ack.message.correlation == second.id


class TestIncidentLedger:
    """The one incident status an RSU keeps."""

    def test_lifecycle(self, ids):
        # report -> addressing notice -> clearance, through the handlers
        state, seen = fresh_rsu(), set()
        report = make_message(MessageKind.OBSTACLE, VEHICLE, 550.0, ids=ids)
        rsu_receive(state, seen, report, VEHICLE, 550.0, ids)
        assert state.status is IncidentStatus.OPEN
        addressing = make_message(
            MessageKind.ADDRESSING_INCIDENT, POLICE, 560.0, ids=ids
        )
        rsu_receive(state, seen, addressing, POLICE, 560.0, ids)
        assert state.status is IncidentStatus.BEING_ATTENDED
        done = make_message(MessageKind.OBSTACLE_CLEARED, POLICE, 700.0, ids=ids)
        rsu_receive(state, seen, done, POLICE, 700.0, ids)
        assert state.status is IncidentStatus.RESOLVED

    def test_resolve_without_open_raises(self):
        with pytest.raises(ProtocolOrderError):
            advance_incident(fresh_rsu(), IncidentStatus.RESOLVED)

    def test_backward_transition_raises(self):
        state = fresh_rsu()
        state.status = IncidentStatus.RESOLVED
        with pytest.raises(ProtocolOrderError):
            advance_incident(state, IncidentStatus.BEING_ATTENDED)
        assert state.status is IncidentStatus.RESOLVED

    def test_reopen_after_resolution(self, ids):
        state = fresh_rsu()
        state.status = IncidentStatus.RESOLVED
        # a fresh report on the same road opens a new episode
        report = make_message(MessageKind.DEBRIS, VEHICLE, 600.0, ids=ids)
        handle_rsu(state, report, VEHICLE, True, 600.0, ids=ids)
        assert state.status is IncidentStatus.OPEN

    def test_double_open_is_noop(self, ids):
        # a second report on a road with an incident leaves its status be
        state, seen = fresh_rsu(), set()
        for now, status in ((600.0, IncidentStatus.OPEN),
                            (610.0, IncidentStatus.BEING_ATTENDED)):
            state.status = status
            report = make_message(MessageKind.DEBRIS, VEHICLE, now, ids=ids)
            rsu_receive(state, seen, report, VEHICLE, now, ids)
            assert state.status is status


class TestOfficialFlow:
    def _respond(self, ids):
        state = OfficialState(responder=True)
        report = make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=ids)
        actions = handle_official(state, report, 551.0, ids=ids)
        return state, report, actions

    def test_report_triggers_addressing(self):
        ids = MessageIdSource()
        state, _, actions = self._respond(ids)
        assert len(actions) == 1
        assert actions[0].message.kind is MessageKind.ADDRESSING_INCIDENT
        assert state.incident.phase is OfficialPhase.ADDRESSING

    def test_ack_starts_travel_and_announcements(self):
        ids = MessageIdSource()
        state, _, actions = self._respond(ids)
        addressing = actions[0].message
        ack = make_message(
            MessageKind.ACK, RSU, 552.0, ids=ids, correlation=addressing.id
        )
        out = handle_official(state, ack, 552.0, ids=ids)
        assert {a.fn for a in out if isinstance(a, Arm)} == {
            official_announce,
            official_arrival,
        }
        assert all(a.args == () for a in out if isinstance(a, Arm))
        assert state.incident.phase is OfficialPhase.EN_ROUTE

    def test_ack_of_another_notice_ignored(self):
        ids = MessageIdSource()
        state, report, _ = self._respond(ids)
        ack = make_message(MessageKind.ACK, RSU, 552.0, ids=ids, correlation=report.id)
        assert handle_official(state, ack, 552.0, ids=ids) == []
        assert state.incident.phase is OfficialPhase.ADDRESSING

    def test_announce_timer_sends_free_road_and_attending(self):
        ids = MessageIdSource()
        state, _, actions = self._respond(ids)
        addressing = actions[0].message
        ack = make_message(
            MessageKind.ACK, RSU, 552.0, ids=ids, correlation=addressing.id
        )
        handle_official(state, ack, 552.0, ids=ids)
        out = official_announce(state, 552.0, ids=ids)
        kinds = [a.message.kind for a in out if isinstance(a, Broadcast)]
        assert kinds == [MessageKind.FREE_ROAD, MessageKind.ATTENDING]
        free = [a for a in out if isinstance(a, Broadcast)][0]
        assert free.downstream_only  # free-road clears the path ahead only
        (rearm,) = [a for a in out if isinstance(a, Arm)]  # periodic re-arm
        assert rearm.fn is official_announce and rearm.args == ()
        assert rearm.at == 552.0 + ATTENDING_PERIOD

    def test_arrival_then_resolution(self):
        ids = MessageIdSource()
        state, report, actions = self._respond(ids)
        addressing = actions[0].message
        ack = make_message(
            MessageKind.ACK, RSU, 552.0, ids=ids, correlation=addressing.id
        )
        handle_official(state, ack, 552.0, ids=ids)
        arrival = official_arrival(state, 612.0, ids=ids)
        assert state.incident.phase is OfficialPhase.ON_SITE
        assert [(a.fn, a.args) for a in arrival] == [(official_resolve, ())]
        done = official_resolve(state, 732.0, ids=ids)
        assert len(done) == 1
        assert done[0].message.kind is MessageKind.SORTED_ROAD
        assert done[0].message.correlation == report.id
        assert state.incident.phase is OfficialPhase.DONE

    def test_resolution_without_incident_is_order_violation(self, ids):
        state = OfficialState(responder=True)
        with pytest.raises(ProtocolOrderError):
            official_resolve(state, 700.0, ids=ids)
        with pytest.raises(ProtocolOrderError):
            official_arrival(state, 640.0, ids=ids)

    def test_non_responder_ignores_reports(self, ids):
        state = OfficialState(responder=False)
        report = make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=ids)
        assert handle_official(state, report, 551.0, ids=ids) == []


class TestTrafficAuthority:
    def test_flood_resolved_after_delay(self):
        ids = MessageIdSource()
        report = make_message(MessageKind.FLOOD, VEHICLE, 600.0, ids=ids)
        actions = handle_ta(report, 600.0, reporting_rsu=RSU0_SLOT)
        assert len(actions) == 1
        arm = actions[0]
        assert arm.at == 600.0 + TA_SERVICE_DELAY
        assert arm.fn is ta_resolve
        out = arm.fn(None, *arm.args, arm.at, ids=ids)
        assert len(out) == 1
        assert out[0].message.kind is MessageKind.FLOOD_RESOLVED
        assert out[0].to == RSU0_SLOT

    def test_signal_malfunction_resolution_kind(self):
        ids = MessageIdSource()
        report = make_message(
            MessageKind.SIGNAL_MALFUNCTION, VEHICLE, 600.0, ids=ids
        )
        (arm,) = handle_ta(report, 600.0, reporting_rsu=RSU0_SLOT)
        (out,) = ta_resolve(None, *arm.args, arm.at, ids=ids)
        assert out.message.kind is MessageKind.SIGNAL_RESOLVED

    def test_non_authority_kind_dropped(self, ids):
        report = make_message(MessageKind.ACCIDENT, VEHICLE, 600.0, ids=ids)
        assert handle_ta(report, 600.0, reporting_rsu=RSU0_SLOT) == []

    def test_duplicate_report_scheduled_once(self):
        # the engine hands the TA the first copy of a report id only
        setup = TrialSetup(script=build_scenario("flood"), policy=HOP4, vehicles=19)
        engine = Engine(setup, 1)
        ta, rsu0, rsu1 = (engine.labels.index(name) for name in ("TA", "RSU0", "RSU1"))
        report = make_message(MessageKind.FLOOD, VEHICLE, 600.0, ids=engine.ids)
        engine.now = 600.0
        engine._deliver(report, (ta,), rsu0)
        engine.now = 601.0
        engine._deliver(report, (ta,), rsu1)
        assert [(at, fn) for at, _, fn, _ in engine._queue] == [
            (600.0 + TA_SERVICE_DELAY, engine._fire_timer)
        ]

    def test_rsu_escalates_each_report_once(self, ids):
        # one wired send to the TA per message id, however many copies
        # arrive and whichever role sends them
        state, seen = fresh_rsu(), set()
        report = make_message(MessageKind.DEBRIS, VEHICLE, 600.0, ids=ids)
        assert rsu_receive(state, seen, report, VEHICLE, 600.0, ids) == [
            Wired(report, to=TA_SLOT, at=600.0)
        ]
        for now, role in ((601.0, VEHICLE), (602.0, RSU), (603.0, POLICE)):
            copy = relayed_copy(report)
            assert rsu_receive(state, seen, copy, role, now, ids) == []
        again = make_message(MessageKind.DEBRIS, VEHICLE, 610.0, ids=ids)
        assert rsu_receive(state, seen, again, RSU, 610.0, ids) == [
            Wired(again, to=TA_SLOT, at=610.0)
        ]


class TestServiceDirectory:
    def test_empty_registry_gives_empty_reply(self, ids):
        state = fresh_rsu()
        query = make_message(
            MessageKind.SERVICE_QUERY, VEHICLE, 600.0, payload="parking", ids=ids
        )
        (reply,) = handle_rsu(state, query, VEHICLE, True, 600.0, ids=ids)
        assert reply.message.payload == "no-result"

    def test_nearest_by_route_distance(self):
        # brute-force oracle over the registry entries
        entries = (
            ServiceEntry("restaurant", 1200.0),
            ServiceEntry("restaurant", 3600.0),
        )
        registry = ServiceDirectory(entries, route_length=4000.0)
        origin = 3900.0

        def ring(p):
            d = abs(p - origin) % 4000.0
            return min(d, 4000.0 - d)

        oracle = min(entries, key=lambda e: ring(e.position))
        assert registry.nearest("restaurant", origin) == oracle
        assert oracle.position == 3600.0

    def test_first_registered_wins_a_tie(self):
        # 1000 m from each entry, one each way round the ring
        entries = (ServiceEntry("garage", 3000.0), ServiceEntry("garage", 1000.0))
        for order in (entries, entries[::-1]):
            registry = ServiceDirectory(order, route_length=4000.0)
            assert registry.nearest("garage", 0.0) is order[0]

    def test_query_answered_once(self, ids):
        registry = ServiceDirectory((ServiceEntry("petrol-pump", 500.0),))
        state = fresh_rsu(services=registry)
        query = make_message(
            MessageKind.SERVICE_QUERY, VEHICLE, 600.0, payload="petrol-pump", ids=ids
        )
        seen = set()
        (reply,) = rsu_receive(state, seen, query, VEHICLE, 600.0, ids)
        assert reply.message.kind is MessageKind.SERVICE_REPLY
        assert reply.message.payload == "petrol-pump"
        assert rsu_receive(state, seen, query, VEHICLE, 601.0, ids) == []


class TestDetectors:
    def _history(self, speed, seconds, dt=1.0):
        history = SpeedHistory()
        t = 0.0
        while t <= seconds:
            history.record(t, speed)
            t += dt
        return history, t - dt

    def test_jam_after_31s_with_queue(self, ids):
        history, now = self._history(0.05, 31.0)
        msg = detect_jam(history, True, now, origin=VEHICLE, ids=ids)
        assert msg is not None and msg.kind is MessageKind.TRAFFIC_JAM
        # once per episode
        assert detect_jam(history, True, now + 1.0, origin=VEHICLE, ids=ids) is None

    def test_jam_requires_queue_ahead(self, ids):
        history, now = self._history(0.05, 31.0)
        assert detect_jam(history, False, now, origin=VEHICLE, ids=ids) is None

    def test_jam_boundary_is_strict(self, ids):
        history, now = self._history(0.0, 30.0)
        assert detect_jam(history, True, now, origin=VEHICLE, ids=ids) is None

    def test_congestion_in_window(self, ids):
        history, now = self._history(5.0, 70.0)
        msg = detect_congestion(history, now, origin=VEHICLE, ids=ids)
        assert msg is not None and msg.kind is MessageKind.CONGESTION
        assert detect_congestion(history, now + 1.0, origin=VEHICLE, ids=ids) is None

    def test_congestion_below_window(self, ids):
        history, now = self._history(5.0, 59.0)
        assert detect_congestion(history, now, origin=VEHICLE, ids=ids) is None

    def test_crawl_speed_is_jam_path_not_congestion(self, ids):
        history, now = self._history(0.5, 70.0)
        assert detect_congestion(history, now, origin=VEHICLE, ids=ids) is None

    def test_moving_again_resets_episode(self, ids):
        history = SpeedHistory()
        for t in range(0, 32):
            history.record(float(t), 0.0)
        assert detect_jam(history, True, 31.0, origin=VEHICLE, ids=ids) is not None
        history.record(32.0, 5.0)   # moving again ends the episode
        for t in range(33, 90):
            history.record(float(t), 0.0)
        assert detect_jam(history, True, 89.0, origin=VEHICLE, ids=ids) is not None

    def test_samples_must_advance_in_time(self):
        history = SpeedHistory()
        history.record(1.0, 0.0)
        with pytest.raises(ValueError):
            history.record(1.0, 0.0)


class TestRelayDecision:
    def test_copy_forwarded_as_received(self, ids):
        # hop counting happens at radio delivery, so the relayed copy keeps
        # the hop count it arrived with
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=ids)
        (out,) = relay_decision(relayed_copy(msg), HOP4, 551.0)
        assert out.message.hops == 1
        assert out.message.id == msg.id

    def test_policy_block_yields_no_action(self, ids):
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=ids)
        assert relay_decision(msg, FRESH60, 650.0) == []
        # a blocked copy leaves no record that would stop a later decision
        assert relay_decision(msg, HOP4, 651.0) != []
