import pytest
from hypothesis import given
from hypothesis import strategies as st

from vanetim.domain import (
    EntityId,
    MessageIdSource,
    MessageKind,
    POLICE,
    VEHICLE,
    make_message,
    relayed_copy,
)
from vanetim.relay import (
    FRESH60,
    Freshness,
    HOP4,
    HopLimit,
    SeenStore,
    should_relay,
)

V0 = EntityId(0, VEHICLE)
P0 = EntityId(0, POLICE)


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
        assert should_relay(HOP4, msg, 551.0, SeenStore())

    def test_hop_limit_boundary(self, ids):
        # relaying a hop-4 copy would create a 5th hop
        msg = _at_hops(make_message(MessageKind.ACCIDENT, "X", V0, 550.0, ids=ids), 4)
        assert not should_relay(HOP4, msg, 551.0, SeenStore())

    def test_hops_two_admitted(self, ids):
        msg = _at_hops(make_message(MessageKind.ACCIDENT, "X", V0, 550.0, ids=ids), 2)
        assert should_relay(HOP4, msg, 551.0, SeenStore())

    def test_freshness_boundary_is_strict(self, ids):
        msg = make_message(MessageKind.ACCIDENT, "X", V0, 550.0, ids=ids)
        assert not should_relay(FRESH60, msg, 610.0, SeenStore())
        assert should_relay(FRESH60, msg, 609.99, SeenStore())

    def test_seen_always_blocks(self, ids):
        msg = make_message(MessageKind.ACCIDENT, "X", V0, 550.0, ids=ids)
        seen = SeenStore()
        seen.add(msg.id, 550.0)
        assert not should_relay(HOP4, msg, 551.0, seen)
        assert not should_relay(FRESH60, msg, 551.0, seen)

    def test_official_priority_bypasses_both_bounds(self, ids):
        msg = _at_hops(make_message(MessageKind.FREE_ROAD, "X", P0, 300.0, ids=ids), 7)
        assert should_relay(HOP4, msg, 600.0, SeenStore())
        assert should_relay(FRESH60, msg, 600.0, SeenStore())

    def test_official_priority_never_bypasses_dedup(self, ids):
        msg = make_message(MessageKind.FREE_ROAD, "X", P0, 300.0, ids=ids)
        seen = SeenStore()
        seen.add(msg.id, 300.0)
        assert not should_relay(HOP4, msg, 301.0, seen)

    @given(hops=st.integers(0, 20), bound=st.integers(1, 20))
    def test_hop_rule_matches_arithmetic(self, hops, bound):
        msg = _at_hops(
            make_message(MessageKind.ACCIDENT, "X", V0, 0.0, ids=MessageIdSource()), hops
        )
        assert should_relay(HopLimit(bound), msg, 1.0, SeenStore()) == (
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
        assert should_relay(Freshness(bound), msg, now, SeenStore()) == (
            actual_age < bound
        )


class TestSeenStore:
    def test_insert_grows_by_one(self):
        store = SeenStore()
        store.add("m00001", 1.0)
        assert len(store) == 1
        assert "m00001" in store

    def test_reinsert_is_idempotent(self):
        store = SeenStore()
        store.add("m00001", 1.0)
        store.add("m00001", 9.0)
        assert len(store) == 1
        assert store.first_seen("m00001") == 1.0  # original time kept

    def test_no_eviction(self):
        store = SeenStore()
        for i in range(10_000):
            store.add(f"m{i:05d}", float(i))
        assert len(store) == 10_000

    @given(ids=st.lists(st.text(min_size=1, max_size=8), max_size=200))
    def test_size_equals_distinct_ids(self, ids):
        store = SeenStore()
        for i, msg_id in enumerate(ids):
            store.add(msg_id, float(i))
        assert len(store) == len(set(ids))
