import pytest
from hypothesis import given
from hypothesis import strategies as st

from vanetim.domain import (
    EntityId,
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

V0 = EntityId(0, RoleKind.REGULAR_VEHICLE)
P0 = EntityId(0, RoleKind.OFFICIAL_VEHICLE)


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
        msg = _at_hops(make_message(MessageKind.ACCIDENT, "X", V0, 550.0, ids=ids), 3)
        assert should_relay(HOP4, msg, 551.0, set())

    def test_hop_limit_boundary(self, ids):
        # relaying a hop-4 copy would create a 5th hop
        msg = _at_hops(make_message(MessageKind.ACCIDENT, "X", V0, 550.0, ids=ids), 4)
        assert not should_relay(HOP4, msg, 551.0, set())

    def test_hops_two_admitted(self, ids):
        msg = _at_hops(make_message(MessageKind.ACCIDENT, "X", V0, 550.0, ids=ids), 2)
        assert should_relay(HOP4, msg, 551.0, set())

    def test_freshness_boundary_is_strict(self, ids):
        msg = make_message(MessageKind.ACCIDENT, "X", V0, 550.0, ids=ids)
        assert not should_relay(FRESH60, msg, 610.0, set())
        assert should_relay(FRESH60, msg, 609.99, set())

    def test_seen_always_blocks(self, ids):
        msg = make_message(MessageKind.ACCIDENT, "X", V0, 550.0, ids=ids)
        seen = set()
        seen.add(msg.id)
        assert not should_relay(HOP4, msg, 551.0, seen)
        assert not should_relay(FRESH60, msg, 551.0, seen)

    def test_official_priority_bypasses_both_bounds(self, ids):
        msg = _at_hops(make_message(MessageKind.FREE_ROAD, "X", P0, 300.0, ids=ids), 7)
        assert should_relay(HOP4, msg, 600.0, set())
        assert should_relay(FRESH60, msg, 600.0, set())

    def test_official_priority_never_bypasses_dedup(self, ids):
        msg = make_message(MessageKind.FREE_ROAD, "X", P0, 300.0, ids=ids)
        seen = set()
        seen.add(msg.id)
        assert not should_relay(HOP4, msg, 301.0, seen)

    @given(hops=st.integers(0, 20), bound=st.integers(1, 20))
    def test_hop_rule_matches_arithmetic(self, hops, bound):
        msg = _at_hops(
            make_message(MessageKind.ACCIDENT, "X", V0, 0.0, ids=MessageIdSource()), hops
        )
        assert should_relay(HopLimit(bound), msg, 1.0, set()) == (
            hops < bound
        )

    @given(
        age_s=st.floats(0, 500, allow_nan=False),
        bound=st.floats(1, 500, allow_nan=False),
    )
    def test_freshness_rule_matches_arithmetic(self, age_s, bound):
        msg = make_message(MessageKind.ACCIDENT, "X", V0, 100.0, ids=MessageIdSource())
        now = 100.0 + age_s
        actual_age = now - 100.0  # the float difference the policy sees
        assert should_relay(Freshness(bound), msg, now, set()) == (
            actual_age < bound
        )

