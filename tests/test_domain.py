import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vanetim.domain import (
    ClockInversionError,
    EntityId,
    Message,
    MessageIdSource,
    MessageKind,
    Priority,
    RoleKind,
    age,
    make_message,
    relayed_copy,
    role_of_label,
)

VEHICLE = RoleKind.REGULAR_VEHICLE
POLICE = RoleKind.OFFICIAL_VEHICLE
RSU = RoleKind.RSU
TA = RoleKind.TA


class TestRolesAndLabels:
    def test_labels(self):
        assert EntityId(17, VEHICLE).label == "V17"
        assert EntityId(0, POLICE).label == "P0"
        assert EntityId(3, RSU).label == "RSU3"
        assert EntityId(0, TA).label == "TA"

    def test_role_of_label_round_trip(self):
        for entity in (
            EntityId(17, VEHICLE),
            EntityId(0, POLICE),
            EntityId(3, RSU),
            EntityId(0, TA),
        ):
            assert role_of_label(entity.label) is entity.kind

    def test_role_of_label_rejects_junk(self):
        with pytest.raises(ValueError):
            role_of_label("X99")

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            EntityId(-1, VEHICLE)


class TestMakeMessage:
    def test_vehicle_accident_report(self, ids):
        # reporter vehicle's accident announcement at the scripted time
        msg = make_message(MessageKind.ACCIDENT, "X", VEHICLE, 550.0, ids=ids)
        assert msg.hops == 0
        assert msg.created_at == 550.0
        assert msg.priority is Priority.NORMAL
        assert msg.road == "X"

    def test_official_message_is_high_priority(self, ids):
        msg = make_message(MessageKind.FREE_ROAD, "X", POLICE, 600.0, ids=ids)
        assert msg.priority is Priority.OFFICIAL

    def test_zero_time_boundary(self, ids):
        msg = make_message(MessageKind.ACCIDENT, "X", VEHICLE, 0.0, ids=ids)
        assert msg.created_at == 0.0

    def test_invalid_inputs(self, ids):
        with pytest.raises(ValueError):
            make_message("accident", "X", VEHICLE, 0.0, ids=ids)
        # a message is originated by a role, not by a named entity
        for origin in ("V0", EntityId(0, VEHICLE)):
            with pytest.raises(ValueError):
                make_message(MessageKind.ACCIDENT, "X", origin, 0.0, ids=ids)
        with pytest.raises(ValueError):
            make_message(MessageKind.ACCIDENT, "X", VEHICLE, -1.0, ids=ids)
        with pytest.raises(ValueError):
            Message("m1", MessageKind.ACCIDENT, "", 0.0)
        with pytest.raises(ValueError):
            Message("m1", MessageKind.ACCIDENT, "X", 0.0, hops=-1)


class TestAge:
    def test_freshness_limit_boundary(self, ids):
        msg = make_message(MessageKind.ACCIDENT, "X", VEHICLE, 550.0, ids=ids)
        assert age(msg, 610.0) == 60.0

    def test_identity(self, ids):
        msg = make_message(MessageKind.ACCIDENT, "X", VEHICLE, 550.0, ids=ids)
        assert age(msg, 550.0) == 0.0

    def test_arithmetic(self, ids):
        msg = make_message(MessageKind.ACCIDENT, "X", VEHICLE, 500.0, ids=ids)
        assert age(msg, 609.9) == pytest.approx(109.9)

    def test_clock_inversion(self, ids):
        msg = make_message(MessageKind.ACCIDENT, "X", VEHICLE, 550.0, ids=ids)
        with pytest.raises(ClockInversionError):
            age(msg, 549.9)

    @given(created=st.floats(0, 1e6), delta=st.floats(0, 1e6))
    def test_age_is_nonnegative_difference(self, created, delta):
        msg = make_message(
            MessageKind.ACCIDENT, "X", VEHICLE, created, ids=MessageIdSource()
        )
        assert age(msg, created + delta) == pytest.approx(delta, abs=1e-6)


class TestRelayedCopy:
    def test_increments_hops_only(self, ids):
        msg = make_message(MessageKind.ACCIDENT, "X", VEHICLE, 550.0, ids=ids)
        copy = relayed_copy(msg)
        assert copy.hops == msg.hops + 1
        assert copy.id == msg.id
        assert copy.created_at == msg.created_at
        assert msg.hops == 0  # original untouched

    def test_message_is_immutable(self, ids):
        msg = make_message(MessageKind.ACCIDENT, "X", VEHICLE, 550.0, ids=ids)
        with pytest.raises(dataclasses.FrozenInstanceError):
            msg.hops = 5

    @given(n=st.integers(1, 50))
    def test_chain_of_relays_accumulates(self, n):
        msg = make_message(
            MessageKind.ACCIDENT, "X", VEHICLE, 0.0, ids=MessageIdSource()
        )
        for _ in range(n):
            msg = relayed_copy(msg)
        assert msg.hops == n


class TestMessageIdSource:
    def test_format_and_uniqueness(self):
        ids = MessageIdSource()
        first = ids.next()
        assert first == "m00000"
        seen = {first}
        for _ in range(100):
            nxt = ids.next()
            assert nxt not in seen
            seen.add(nxt)

    def test_independent_sources_restart(self):
        assert MessageIdSource().next() == MessageIdSource().next()
