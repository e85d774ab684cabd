import pytest

from vanetim.domain import (
    ActionSource,
    EntityId,
    MessageIdSource,
    MessageKind,
    POLICE,
    RSU,
    TA,
    VEHICLE,
    make_message,
    relayed_copy,
)
from vanetim.protocol import (
    ATTENDING_PERIOD,
    Arm,
    BURST_INTERVAL,
    Broadcast,
    DEFAULT_RULE_ROWS,
    IncidentLedger,
    IncidentStatus,
    OfficialPhase,
    OfficialState,
    ProtocolOrderError,
    REPORT_PERIOD,
    RESTRICTED_PERIOD,
    RsuState,
    ServiceDirectory,
    ServiceEntry,
    SpeedHistory,
    TA_SERVICE_DELAY,
    TaState,
    VehicleState,
    Wired,
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
from vanetim.relay import FRESH60, HOP4

V17 = EntityId(17, VEHICLE)
P0 = EntityId(0, POLICE)
RSU0 = EntityId(0, RSU)
RSU1 = EntityId(1, RSU)
RSU9 = EntityId(9, RSU)
TA0 = EntityId(0, TA)


def fresh_rsu(index=0, services=ServiceDirectory()):
    return RsuState(
        entity=EntityId(index, RSU), neighbours=(RSU9, RSU1), ta=TA0, services=services
    )


def broadcasts(actions, kind=None):
    out = [a for a in actions if isinstance(a, Broadcast)]
    if kind is not None:
        out = [a for a in out if a.message.kind is kind]
    return out


def wired(actions, kind=None):
    out = [a for a in actions if isinstance(a, Wired)]
    if kind is not None:
        out = [a for a in out if a.message.kind is kind]
    return out


class TestRuleTable:
    def test_exactly_nine_populated_rows(self):
        assert len(DEFAULT_RULE_ROWS) == 9

    def test_unpopulated_rows_yield_zero(self, ids):
        # no row covers an accident first heard from an official vehicle
        assert (MessageKind.ACCIDENT, POLICE.kind, True) not in DEFAULT_RULE_ROWS
        state = fresh_rsu()
        msg = make_message(MessageKind.ACCIDENT, "X", V17, 550.0, ids=ids)
        assert handle_rsu(state, msg, POLICE, 550.0, ids=ids) == []

    def test_accident_from_vehicle_first_receipt(self, ids):
        state = fresh_rsu()
        msg = make_message(MessageKind.ACCIDENT, "X", V17, 550.0, ids=ids)
        actions = handle_rsu(state, msg, VEHICLE, 550.0, ids=ids)
        assert len(broadcasts(actions, MessageKind.ACCIDENT)) == 3
        assert len(broadcasts(actions, MessageKind.AVOID_ROAD)) == 3
        assert len(wired(actions, MessageKind.ACCIDENT)) == 2  # both neighbours
        assert state.ledger.status("X") is IncidentStatus.OPEN

    def test_accident_from_rsu(self, ids):
        state = fresh_rsu()
        msg = make_message(MessageKind.ACCIDENT, "X", V17, 550.0, ids=ids)
        actions = handle_rsu(state, msg, RSU, 551.0, ids=ids)
        assert len(broadcasts(actions, MessageKind.ACCIDENT)) == 2
        assert len(broadcasts(actions, MessageKind.AVOID_ROAD)) == 2
        assert wired(actions) == []

    def test_avoid_road_from_rsu(self, ids):
        state = fresh_rsu()
        msg = make_message(MessageKind.AVOID_ROAD, "X", RSU1, 551.0, ids=ids)
        actions = handle_rsu(state, msg, RSU, 551.0, ids=ids)
        assert len(broadcasts(actions, MessageKind.AVOID_ROAD)) == 3
        assert len(actions) == 3

    def test_avoid_road_from_vehicle(self, ids):
        state = fresh_rsu()
        msg = make_message(MessageKind.AVOID_ROAD, "X", RSU1, 551.0, ids=ids)
        actions = handle_rsu(state, msg, VEHICLE, 560.0, ids=ids)
        assert len(broadcasts(actions, MessageKind.AVOID_ROAD)) == 2
        assert len(actions) == 2

    def test_stale_accident_from_vehicle(self, ids):
        state = fresh_rsu()
        msg = make_message(MessageKind.ACCIDENT, "X", V17, 550.0, ids=ids)
        handle_rsu(state, msg, VEHICLE, 550.0, ids=ids)
        # the same report arrives again from another vehicle; incident open
        actions = handle_rsu(state, msg, VEHICLE, 580.0, ids=ids)
        assert len(broadcasts(actions, MessageKind.ACCIDENT)) == 2
        assert broadcasts(actions, MessageKind.AVOID_ROAD) == []
        third = handle_rsu(state, msg, VEHICLE, 590.0, ids=ids)
        assert third == []  # stale row fires once

    def test_accident_on_resolved_road_ignored(self, ids):
        state = fresh_rsu()
        state.ledger.open("X", 500.0)
        state.ledger.resolve("X", 540.0)
        msg = make_message(MessageKind.ACCIDENT, "X", V17, 550.0, ids=ids)
        assert handle_rsu(state, msg, VEHICLE, 550.0, ids=ids) == []


class TestRsuResolution:
    def test_sorted_road_from_police(self, ids):
        state = fresh_rsu()
        state.ledger.open("X", 550.0)
        msg = make_message(MessageKind.SORTED_ROAD, "X", P0, 700.0, ids=ids)
        actions = handle_rsu(state, msg, POLICE, 700.0, ids=ids)
        assert len(broadcasts(actions, MessageKind.CLEARED_ROAD)) == 3
        assert len(wired(actions, MessageKind.CLEARED_ROAD)) == 2
        assert state.ledger.status("X") is IncidentStatus.RESOLVED

    def test_derived_notice_flooded_despite_colliding_ids(self, ids):
        state = fresh_rsu()
        state.ledger.open("X", 550.0)
        msg = make_message(MessageKind.SORTED_ROAD, "X", P0, 700.0, ids=ids)
        # a second, fresh source hands the derived notice the input's id
        actions = handle_rsu(state, msg, POLICE, 700.0, ids=MessageIdSource())
        notices = wired(actions, MessageKind.CLEARED_ROAD)
        assert [a.to for a in notices] == [RSU9, RSU1]
        assert all(a.message.id == msg.id for a in notices)

    def test_cleared_road_from_rsu(self, ids):
        state = fresh_rsu()
        state.ledger.open("X", 550.0)
        msg = make_message(MessageKind.CLEARED_ROAD, "X", RSU1, 700.0, ids=ids)
        actions = handle_rsu(state, msg, RSU, 700.0, ids=ids)
        assert len(broadcasts(actions, MessageKind.CLEARED_ROAD)) == 3

    def test_clearance_without_open_incident_not_rebroadcast(self, ids):
        state = fresh_rsu()
        msg = make_message(MessageKind.CLEARED_ROAD, "X", RSU1, 700.0, ids=ids)
        actions = handle_rsu(state, msg, RSU, 700.0, ids=ids)
        assert broadcasts(actions) == []  # only forwarded along the backbone
        assert all(isinstance(a, Wired) for a in actions)


class TestRsuTimers:
    def _fire(self, state, arm, ids):
        return arm.fn(state, *arm.args, arm.at, ids=ids)

    def test_open_report_reannounced_until_cleared(self, ids):
        state = fresh_rsu()
        msg = make_message(MessageKind.OBSTACLE, "X", V17, 550.0, ids=ids)
        (arm,) = [a for a in handle_rsu(state, msg, VEHICLE, 550.0, ids=ids)
                  if isinstance(a, Arm)]
        assert (arm.fn, arm.args) == (rsu_report_tick, ("X",))
        assert arm.at == 550.0 + 3 * BURST_INTERVAL
        announce, rearm = self._fire(state, arm, ids)
        assert announce.message is msg
        assert announce.source is ActionSource.BURST
        assert (rearm.fn, rearm.args) == (rsu_report_tick, ("X",))
        assert rearm.at == arm.at + REPORT_PERIOD
        state.ledger.resolve("X", 600.0)
        assert self._fire(state, rearm, ids) == []

    def test_restricted_movement_reannounced_while_attended(self, ids):
        state = fresh_rsu()
        msg = make_message(MessageKind.ADDRESSING_INCIDENT, "X", P0, 560.0, ids=ids)
        (arm,) = [a for a in handle_rsu(state, msg, POLICE, 560.0, ids=ids)
                  if isinstance(a, Arm)]
        assert (arm.fn, arm.args) == (rsu_restricted_tick, ("X",))
        assert arm.at == 560.0 + RESTRICTED_PERIOD
        announce, rearm = self._fire(state, arm, ids)
        assert announce.message is state.restricted["X"]
        assert announce.message.kind is MessageKind.RESTRICTED_MOVEMENT
        assert (rearm.fn, rearm.args) == (rsu_restricted_tick, ("X",))
        assert rearm.at == arm.at + RESTRICTED_PERIOD
        state.ledger.resolve("X", 600.0)
        assert self._fire(state, rearm, ids) == []


class TestIncidentLedger:
    def test_lifecycle(self):
        ledger = IncidentLedger()
        ledger.open("X", 550.0)
        ledger.attend("X", 560.0)
        ledger.resolve("X", 700.0)
        assert ledger.status("X") is IncidentStatus.RESOLVED
        assert [s for s, _ in ledger.history("X")] == [
            IncidentStatus.OPEN,
            IncidentStatus.BEING_ATTENDED,
            IncidentStatus.RESOLVED,
        ]

    def test_resolve_without_open_raises(self):
        with pytest.raises(ProtocolOrderError):
            IncidentLedger().resolve("X", 1.0)

    def test_backward_transition_raises(self):
        ledger = IncidentLedger()
        ledger.open("X", 1.0)
        ledger.resolve("X", 2.0)
        with pytest.raises(ProtocolOrderError):
            ledger.attend("X", 3.0)

    def test_reopen_after_resolution(self):
        ledger = IncidentLedger()
        ledger.open("X", 1.0)
        ledger.resolve("X", 2.0)
        ledger.open("X", 3.0)  # a fresh episode on the same road
        assert ledger.status("X") is IncidentStatus.OPEN

    def test_double_open_is_noop(self):
        ledger = IncidentLedger()
        ledger.open("X", 1.0)
        ledger.open("X", 2.0)
        assert len(ledger.history("X")) == 1


class TestOfficialFlow:
    def _respond(self, ids):
        state = OfficialState(entity=P0, responder=True)
        report = make_message(MessageKind.ACCIDENT, "X", V17, 550.0, ids=ids)
        actions = handle_official(state, report, 551.0, ids=ids)
        return state, report, actions

    def test_report_triggers_addressing(self):
        ids = MessageIdSource()
        state, _, actions = self._respond(ids)
        assert len(actions) == 1
        assert actions[0].message.kind is MessageKind.ADDRESSING_INCIDENT
        assert state.incidents["X"].phase is OfficialPhase.ADDRESSING

    def test_ack_starts_travel_and_announcements(self):
        ids = MessageIdSource()
        state, _, actions = self._respond(ids)
        addressing = actions[0].message
        ack = make_message(
            MessageKind.ACK, "X", RSU0, 552.0, ids=ids, correlation=addressing.id
        )
        out = handle_official(state, ack, 552.0, ids=ids)
        assert {a.fn for a in out if isinstance(a, Arm)} == {
            official_announce,
            official_arrival,
        }
        assert all(a.args == ("X",) for a in out if isinstance(a, Arm))
        assert state.incidents["X"].phase is OfficialPhase.EN_ROUTE

    def test_announce_timer_sends_free_road_and_attending(self):
        ids = MessageIdSource()
        state, _, actions = self._respond(ids)
        addressing = actions[0].message
        ack = make_message(
            MessageKind.ACK, "X", RSU0, 552.0, ids=ids, correlation=addressing.id
        )
        handle_official(state, ack, 552.0, ids=ids)
        out = official_announce(state, "X", 552.0, ids=ids)
        kinds = [a.message.kind for a in out if isinstance(a, Broadcast)]
        assert kinds == [MessageKind.FREE_ROAD, MessageKind.ATTENDING]
        free = [a for a in out if isinstance(a, Broadcast)][0]
        assert free.downstream_only  # free-road clears the path ahead only
        (rearm,) = [a for a in out if isinstance(a, Arm)]  # periodic re-arm
        assert rearm.fn is official_announce and rearm.args == ("X",)
        assert rearm.at == 552.0 + ATTENDING_PERIOD

    def test_arrival_then_resolution(self):
        ids = MessageIdSource()
        state, report, actions = self._respond(ids)
        addressing = actions[0].message
        ack = make_message(
            MessageKind.ACK, "X", RSU0, 552.0, ids=ids, correlation=addressing.id
        )
        handle_official(state, ack, 552.0, ids=ids)
        arrival = official_arrival(state, "X", 612.0, ids=ids)
        assert state.incidents["X"].phase is OfficialPhase.ON_SITE
        assert [(a.fn, a.args) for a in arrival] == [(official_resolve, ("X",))]
        done = official_resolve(state, "X", 732.0, ids=ids)
        assert len(done) == 1
        assert done[0].message.kind is MessageKind.SORTED_ROAD
        assert done[0].message.correlation == report.id
        assert state.incidents["X"].phase is OfficialPhase.DONE

    def test_resolution_without_incident_is_order_violation(self, ids):
        state = OfficialState(entity=P0, responder=True)
        with pytest.raises(ProtocolOrderError):
            official_resolve(state, "X", 700.0, ids=ids)
        with pytest.raises(ProtocolOrderError):
            official_arrival(state, "X", 640.0, ids=ids)

    def test_non_responder_ignores_reports(self, ids):
        state = OfficialState(entity=P0, responder=False)
        report = make_message(MessageKind.ACCIDENT, "X", V17, 550.0, ids=ids)
        assert handle_official(state, report, 551.0, ids=ids) == []


class TestTrafficAuthority:
    def test_flood_resolved_after_delay(self):
        ids = MessageIdSource()
        state = TaState(entity=TA0)
        report = make_message(MessageKind.FLOOD, "X", V17, 600.0, ids=ids)
        actions = handle_ta(state, report, 600.0, reporting_rsu=RSU0)
        assert len(actions) == 1
        arm = actions[0]
        assert arm.at == 600.0 + TA_SERVICE_DELAY
        assert arm.fn is ta_resolve
        out = arm.fn(state, *arm.args, arm.at, ids=ids)
        assert len(out) == 1
        assert out[0].message.kind is MessageKind.FLOOD_RESOLVED
        assert out[0].to == RSU0

    def test_signal_malfunction_resolution_kind(self):
        ids = MessageIdSource()
        state = TaState(entity=TA0)
        report = make_message(MessageKind.SIGNAL_MALFUNCTION, "X", V17, 600.0, ids=ids)
        (arm,) = handle_ta(state, report, 600.0, reporting_rsu=RSU0)
        (out,) = ta_resolve(state, *arm.args, arm.at, ids=ids)
        assert out.message.kind is MessageKind.SIGNAL_RESOLVED

    def test_non_authority_kind_dropped(self, ids):
        state = TaState(entity=TA0)
        report = make_message(MessageKind.ACCIDENT, "X", V17, 600.0, ids=ids)
        assert handle_ta(state, report, 600.0, reporting_rsu=RSU0) == []

    def test_duplicate_report_scheduled_once(self, ids):
        state = TaState(entity=TA0)
        report = make_message(MessageKind.FLOOD, "X", V17, 600.0, ids=ids)
        assert len(handle_ta(state, report, 600.0, reporting_rsu=RSU0)) == 1
        assert handle_ta(state, report, 601.0, reporting_rsu=RSU1) == []

    def test_rsu_escalates_each_report_once(self, ids):
        # one wired send to the TA per message id, however many copies
        # arrive and whichever role sends them
        state = fresh_rsu()
        report = make_message(MessageKind.DEBRIS, "X", V17, 600.0, ids=ids)
        assert handle_rsu(state, report, VEHICLE, 600.0, ids=ids) == [
            Wired(report, to=TA0, at=600.0)
        ]
        for now, role in ((601.0, VEHICLE), (602.0, RSU), (603.0, POLICE)):
            copy = relayed_copy(report)
            assert handle_rsu(state, copy, role, now, ids=ids) == []
        again = make_message(MessageKind.DEBRIS, "X", V17, 610.0, ids=ids)
        assert handle_rsu(state, again, RSU, 610.0, ids=ids) == [
            Wired(again, to=TA0, at=610.0)
        ]


class TestServiceDirectory:
    def test_query_returns_registered_road(self, ids):
        registry = ServiceDirectory((ServiceEntry("petrol-pump", "X", 500.0),))
        state = fresh_rsu(services=registry)
        query = make_message(
            MessageKind.SERVICE_QUERY, "Y", V17, 600.0, payload="petrol-pump", ids=ids
        )
        (reply,) = handle_rsu(state, query, VEHICLE, 600.0, ids=ids)
        assert reply.message.kind is MessageKind.SERVICE_REPLY
        assert reply.message.road == "X"

    def test_empty_registry_gives_empty_reply(self, ids):
        state = fresh_rsu()
        query = make_message(
            MessageKind.SERVICE_QUERY, "Y", V17, 600.0, payload="parking", ids=ids
        )
        (reply,) = handle_rsu(state, query, VEHICLE, 600.0, ids=ids)
        assert reply.message.payload == "no-result"

    def test_nearest_by_route_distance(self):
        # brute-force oracle over the registry entries
        entries = (
            ServiceEntry("restaurant", "Y", 1200.0),
            ServiceEntry("restaurant", "W", 3600.0),
        )
        registry = ServiceDirectory(entries, route_length=4000.0)
        origin = 3900.0

        def ring(p):
            d = abs(p - origin) % 4000.0
            return min(d, 4000.0 - d)

        oracle = min(entries, key=lambda e: ring(e.position))
        assert registry.nearest("restaurant", origin) == oracle
        assert oracle.road == "W"

    def test_query_answered_once(self, ids):
        registry = ServiceDirectory((ServiceEntry("petrol-pump", "X", 500.0),))
        state = fresh_rsu(services=registry)
        query = make_message(
            MessageKind.SERVICE_QUERY, "Y", V17, 600.0, payload="petrol-pump", ids=ids
        )
        assert len(handle_rsu(state, query, VEHICLE, 600.0, ids=ids)) == 1
        assert handle_rsu(state, query, VEHICLE, 601.0, ids=ids) == []


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
        msg = detect_jam(history, True, now, origin=V17, ids=ids)
        assert msg is not None and msg.kind is MessageKind.TRAFFIC_JAM
        # once per episode
        assert detect_jam(history, True, now + 1.0, origin=V17, ids=ids) is None

    def test_jam_requires_queue_ahead(self, ids):
        history, now = self._history(0.05, 31.0)
        assert detect_jam(history, False, now, origin=V17, ids=ids) is None

    def test_jam_boundary_is_strict(self, ids):
        history, now = self._history(0.0, 30.0)
        assert detect_jam(history, True, now, origin=V17, ids=ids) is None

    def test_congestion_in_window(self, ids):
        history, now = self._history(5.0, 70.0)
        msg = detect_congestion(history, now, origin=V17, ids=ids)
        assert msg is not None and msg.kind is MessageKind.CONGESTION
        assert detect_congestion(history, now + 1.0, origin=V17, ids=ids) is None

    def test_congestion_below_window(self, ids):
        history, now = self._history(5.0, 59.0)
        assert detect_congestion(history, now, origin=V17, ids=ids) is None

    def test_crawl_speed_is_jam_path_not_congestion(self, ids):
        history, now = self._history(0.5, 70.0)
        assert detect_congestion(history, now, origin=V17, ids=ids) is None

    def test_moving_again_resets_episode(self, ids):
        history = SpeedHistory()
        for t in range(0, 32):
            history.record(float(t), 0.0)
        assert detect_jam(history, True, 31.0, origin=V17, ids=ids) is not None
        history.record(32.0, 5.0)   # moving again ends the episode
        for t in range(33, 90):
            history.record(float(t), 0.0)
        assert detect_jam(history, True, 89.0, origin=V17, ids=ids) is not None

    def test_samples_must_advance_in_time(self):
        history = SpeedHistory()
        history.record(1.0, 0.0)
        with pytest.raises(ValueError):
            history.record(1.0, 0.0)


class TestRelayDecision:
    def test_copy_forwarded_as_received(self, ids):
        # hop counting happens at radio delivery, so the relayed copy keeps
        # the hop count it arrived with
        state = VehicleState(entity=EntityId(3, VEHICLE))
        msg = make_message(MessageKind.ACCIDENT, "X", V17, 550.0, ids=ids)
        (out,) = relay_decision(state, relayed_copy(msg), HOP4, 551.0)
        assert out.message.hops == 1
        assert out.message.id == msg.id

    def test_dedup_is_permanent(self, ids):
        state = VehicleState(entity=EntityId(3, VEHICLE))
        msg = make_message(MessageKind.ACCIDENT, "X", V17, 550.0, ids=ids)
        relay_decision(state, msg, HOP4, 551.0)
        assert relay_decision(state, msg, HOP4, 560.0) == []

    def test_policy_block_yields_no_action(self, ids):
        state = VehicleState(entity=EntityId(3, VEHICLE))
        msg = make_message(MessageKind.ACCIDENT, "X", V17, 550.0, ids=ids)
        assert relay_decision(state, msg, FRESH60, 650.0) == []
        # a blocked message is recorded only on actual relay
        assert relay_decision(state, msg, HOP4, 651.0) != []
