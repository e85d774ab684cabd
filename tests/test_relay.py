import pytest
from hypothesis import given
from hypothesis import strategies as st

from vanetim.domain import (
    MessageIdSource,
    MessageKind,
    RoleKind,
    make_message,
    relayed_copy,
)
from vanetim.relay import (
    FRESH60,
    Freshness,
    HOP4,
    HopLimit,
    should_relay,
)

VEHICLE = RoleKind.REGULAR_VEHICLE
POLICE = RoleKind.OFFICIAL_VEHICLE


def _at_hops(msg, hops):
    for _ in range(hops):
        msg = relayed_copy(msg)
    return msg


class TestPolicyConstruction:
    def test_defaults(self):
        assert HOP4 == HopLimit(4)
        assert FRESH60 == Freshness(60.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            HopLimit(0)
        with pytest.raises(ValueError):
            Freshness(0.0)
        with pytest.raises(ValueError):
            Freshness(-1.0)
        with pytest.raises(ValueError):
            Freshness(float("nan"))


class TestShouldRelay:
    def test_hop_limit_admits_below_bound(self, ids):
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=ids)
        msg = _at_hops(msg, 3)
        assert should_relay(HOP4, msg, 551.0)

    def test_hop_limit_boundary(self, ids):
        # relaying a hop-4 copy would create a 5th hop
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=ids)
        msg = _at_hops(msg, 4)
        assert not should_relay(HOP4, msg, 551.0)

    def test_hops_two_admitted(self, ids):
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=ids)
        msg = _at_hops(msg, 2)
        assert should_relay(HOP4, msg, 551.0)

    def test_freshness_boundary_is_strict(self, ids):
        msg = make_message(MessageKind.ACCIDENT, VEHICLE, 550.0, ids=ids)
        assert not should_relay(FRESH60, msg, 610.0)
        assert should_relay(FRESH60, msg, 609.99)

    def test_official_priority_bypasses_both_bounds(self, ids):
        msg = make_message(MessageKind.FREE_ROAD, POLICE, 300.0, ids=ids)
        msg = _at_hops(msg, 7)
        assert should_relay(HOP4, msg, 600.0)
        assert should_relay(FRESH60, msg, 600.0)

    @given(hops=st.integers(0, 20), bound=st.integers(1, 20))
    def test_hop_rule_matches_arithmetic(self, hops, bound):
        msg = _at_hops(
            make_message(MessageKind.ACCIDENT, VEHICLE, 0.0, ids=MessageIdSource()),
            hops,
        )
        assert should_relay(HopLimit(bound), msg, 1.0) == (
            hops < bound
        )

    @given(
        age_s=st.floats(0, 500, allow_nan=False),
        bound=st.floats(1, 500, allow_nan=False),
    )
    def test_freshness_rule_matches_arithmetic(self, age_s, bound):
        msg = make_message(
            MessageKind.ACCIDENT, VEHICLE, 100.0, ids=MessageIdSource()
        )
        now = 100.0 + age_s
        actual_age = now - 100.0  # the float difference the policy sees
        assert should_relay(Freshness(bound), msg, now) == (
            actual_age < bound
        )

