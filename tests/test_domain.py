import enum
import importlib
import pkgutil

import pytest
from hypothesis import given
from hypothesis import strategies as st

import vanetim
from vanetim.domain import (
    ClockInversionError,
    Message,
    MessageIdSource,
    MessageKind,
    Priority,
    RoleKind,
    age,
    label_of,
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
        assert label_of(VEHICLE, 17) == "V17"
        assert label_of(POLICE, 0) == "P0"
        assert label_of(RSU, 3) == "RSU3"
        assert label_of(TA, 0) == "TA"

    def test_role_of_label_round_trip(self):
        for kind, index in ((VEHICLE, 17), (POLICE, 0), (RSU, 3), (TA, 0)):
            assert role_of_label(label_of(kind, index)) is kind

    def test_role_of_label_rejects_junk(self):
        with pytest.raises(ValueError):
            role_of_label("X99")


class TestMakeMessage:
    def test_vehicle_accident_report(self, ids):
        # reporter vehicle's accident announcement at the scripted time
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=ids)
        assert msg.hops == 0
        assert msg.created_at == 550.0
        assert msg.priority is Priority.NORMAL

    def test_official_message_is_high_priority(self, ids):
        msg = make_message(MessageKind.FREE_ROAD, POLICE, 600.0, ids=ids)
        assert msg.priority is Priority.OFFICIAL

    def test_zero_time_boundary(self, ids):
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 0.0, ids=ids)
        assert msg.created_at == 0.0

    def test_invalid_inputs(self, ids):
        with pytest.raises(ValueError):
            make_message("accident", VEHICLE, 0.0, ids=ids)
        # a message is originated by a role, not by a named entity
        with pytest.raises(ValueError):
            make_message(MessageKind.ACCIDENT, "V0", 0.0, ids=ids)
        with pytest.raises(ValueError):
            make_message(MessageKind.ACCIDENT, VEHICLE, -1.0, ids=ids)
        # the constructor's own checks, by position and by keyword
        with pytest.raises(ValueError):
            Message("m1", MessageKind.ACCIDENT, 0.0, hops=-1)
        with pytest.raises(ValueError):
            Message("m1", MessageKind.ACCIDENT, -1.0)
        with pytest.raises(ValueError):
            Message(id="m1", kind=MessageKind.ACCIDENT, created_at=0.0, hops=-1)


class TestAge:
    def test_freshness_limit_boundary(self, ids):
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=ids)
        assert age(msg, 610.0) == 60.0

    def test_identity(self, ids):
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=ids)
        assert age(msg, 550.0) == 0.0

    def test_arithmetic(self, ids):
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 500.0, ids=ids)
        assert age(msg, 609.9) == pytest.approx(109.9)

    def test_clock_inversion(self, ids):
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=ids)
        with pytest.raises(ClockInversionError):
            age(msg, 549.9)

    @given(created=st.floats(0, 1e6), delta=st.floats(0, 1e6))
    def test_age_is_nonnegative_difference(self, created, delta):
        msg = make_message(
            MessageKind.ACCIDENT, VEHICLE, created, ids=MessageIdSource()
        )
        assert age(msg, created + delta) == pytest.approx(delta, abs=1e-6)


class TestRelayedCopy:
    def test_increments_hops_only(self, ids):
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=ids)
        copy = relayed_copy(msg)
        assert copy.hops == msg.hops + 1
        assert copy.id == msg.id
        assert copy.created_at == msg.created_at
        assert msg.hops == 0  # original untouched

    def test_message_is_immutable(self, ids):
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=ids)
        with pytest.raises(AttributeError):
            msg.hops = 5

    def test_copy_is_a_message(self, ids):
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=ids)
        copy = relayed_copy(msg)
        assert type(copy) is Message
        assert copy == Message(msg.id, msg.kind, msg.created_at, hops=1)

    @given(n=st.integers(1, 50))
    def test_chain_of_relays_accumulates(self, n):
        msg = make_message(
            MessageKind.ACCIDENT, VEHICLE, 0.0, ids=MessageIdSource()
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


class TestEnums:
    def test_every_member_hashes_by_identity(self):
        # a new enum that forgets IdentityEnum would fall back to the
        # Python-level Enum.__hash__ on every set or dict lookup
        enums = set()
        for info in pkgutil.walk_packages(vanetim.__path__, "vanetim."):
            module = importlib.import_module(info.name)
            enums.update(
                value for value in vars(module).values()
                if isinstance(value, type) and issubclass(value, enum.Enum)
            )
        assert {cls.__name__ for cls in enums} >= {
            "RoleKind", "MessageKind", "Priority", "ActionSource",
            "IncidentStatus", "OfficialPhase", "Clearance",
        }
        for cls in enums:
            for member in cls:
                assert type(member).__hash__ is object.__hash__, member
                assert hash(member) == object.__hash__(member), member
