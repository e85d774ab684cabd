"""Relay-admission policies.

Two policies are supported: a hop bound (a copy received at hop count h may
be forwarded iff h is below the bound) and a freshness bound (forwarding is
allowed only while the message's age is strictly below the bound, evaluated
at the relay time). High-priority messages from official vehicles bypass
both bounds but not duplicate suppression: the engine decides only an
entity's first receipt of an id, and only if the entity has not sent that
id itself. It decides at receipt, for the relay time at the end of the
copy's hold, and schedules the broadcast only if the policy admits it. The
engine keeps every id an entity has sent or received until the run ends,
so no id is judged twice by one entity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .domain import Message, Priority, age


@dataclass(frozen=True)
class HopLimit:
    max_hops: int

    def __post_init__(self) -> None:
        if self.max_hops < 1:
            raise ValueError("hop limit must be positive")


@dataclass(frozen=True)
class Freshness:
    max_age: float

    def __post_init__(self) -> None:
        if not self.max_age > 0:  # NaN compares false both ways
            raise ValueError("freshness limit must be positive")


RelayPolicy = Union[HopLimit, Freshness]

HOP4 = HopLimit(4)
FRESH60 = Freshness(60.0)


def should_relay(policy: RelayPolicy, msg: Message, now: float) -> bool:
    """Decide whether a first-received copy may be forwarded at ``now``,
    its relay time."""
    if msg.priority is Priority.OFFICIAL:
        return True
    if isinstance(policy, HopLimit):
        return msg.hops < policy.max_hops
    return age(msg, now) < policy.max_age
