"""Core vocabulary shared by every module: roles, trace labels, message kinds,
messages.

This module owns the label format in both directions: :func:`label_of`
writes an entity's label from its role and its index within the role, and
:func:`role_of_label` reads the role back. Messages are plain immutable
named tuples; they carry no behaviour beyond construction-time validation
and can be copied freely between simulation contexts. A message names no
road: every trial runs on one, which only the trace format writes.

Every vanetim enum derives from :class:`IdentityEnum`: its members hash by
identity, in C, so no set or dict keyed by them calls the Python-level
``Enum.__hash__``. Identity hashes follow object addresses, so the order of
a set of members may differ from run to run, and nothing a run reports may
depend on it.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import NamedTuple, Optional


class ClockInversionError(ValueError):
    """A timestamp earlier than a message's creation time was supplied."""


class IdentityEnum(Enum):
    """An enum whose members hash by identity. Members are singletons and
    ``Enum.__eq__`` is ``object.__eq__``, so equal members hash alike."""

    __hash__ = object.__hash__


class RoleKind(IdentityEnum):
    REGULAR_VEHICLE = "vehicle"
    OFFICIAL_VEHICLE = "official"
    RSU = "rsu"
    TA = "ta"


_LABEL_PREFIX = {
    RoleKind.REGULAR_VEHICLE: "V",
    RoleKind.OFFICIAL_VEHICLE: "P",
    RoleKind.RSU: "RSU",
}


def label_of(kind: RoleKind, index: int) -> str:
    """The trace label of the ``index``-th entity of ``kind``, such as ``V17``
    or ``RSU3``; the TA, the only one of its kind, is ``TA``."""
    if kind is RoleKind.TA:
        return "TA"
    return f"{_LABEL_PREFIX[kind]}{index}"


def role_of_label(label: str) -> RoleKind:
    """Recover the role class from a trace label such as ``V17`` or ``RSU3``;
    the commonest role is tested first."""
    if label.startswith("V"):
        return RoleKind.REGULAR_VEHICLE
    if label.startswith("P") and label[1:].isdigit():
        return RoleKind.OFFICIAL_VEHICLE
    if label.startswith("RSU"):
        return RoleKind.RSU
    if label == "TA":
        return RoleKind.TA
    raise ValueError(f"unrecognised entity label: {label!r}")


class MessageKind(IdentityEnum):
    ACCIDENT = "accident"
    AVOID_ROAD = "avoid-road"
    RESTRICTED_MOVEMENT = "restricted-movement"
    ATTENDING = "attending"
    SORTED_ROAD = "sorted-road"
    CLEARED_ROAD = "cleared-road"
    TRAFFIC_JAM = "traffic-jam"
    CONGESTION = "congestion"
    OBSTACLE = "obstacle"
    OBSTACLE_CLEARED = "obstacle-cleared"
    DIVERSION = "diversion"
    STRANDED_VEHICLE = "stranded-vehicle"
    DEBRIS = "debris"
    DEBRIS_RESOLVED = "debris-resolved"
    SERVICE_QUERY = "service-query"
    SERVICE_REPLY = "service-reply"
    ROAD_DEFECT = "road-defect"
    DEFECT_RESOLVED = "defect-resolved"
    FLOOD = "flood"
    FLOOD_RESOLVED = "flood-resolved"
    SIGNAL_MALFUNCTION = "signal-malfunction"
    SIGNAL_RESOLVED = "signal-resolved"
    ADDRESSING_INCIDENT = "addressing-incident"
    ACK = "ack"
    FREE_ROAD = "free-road"


#: Incident reports that infrastructure escalates straight to the authority.
TA_REPORT_KINDS = frozenset(
    {
        MessageKind.DEBRIS,
        MessageKind.ROAD_DEFECT,
        MessageKind.FLOOD,
        MessageKind.SIGNAL_MALFUNCTION,
    }
)

#: Resolution notices matched to the report kind they close out.
RESOLUTION_FOR = {
    MessageKind.DEBRIS: MessageKind.DEBRIS_RESOLVED,
    MessageKind.ROAD_DEFECT: MessageKind.DEFECT_RESOLVED,
    MessageKind.FLOOD: MessageKind.FLOOD_RESOLVED,
    MessageKind.SIGNAL_MALFUNCTION: MessageKind.SIGNAL_RESOLVED,
}

#: Every kind that marks a road incident as closed when an RSU receives it.
RESOLUTION_KINDS = frozenset(
    {
        MessageKind.SORTED_ROAD,
        MessageKind.CLEARED_ROAD,
        MessageKind.OBSTACLE_CLEARED,
        MessageKind.DEBRIS_RESOLVED,
        MessageKind.DEFECT_RESOLVED,
        MessageKind.FLOOD_RESOLVED,
        MessageKind.SIGNAL_RESOLVED,
    }
)


class Priority(IdentityEnum):
    NORMAL = "normal"
    OFFICIAL = "official"


class ActionSource(IdentityEnum):
    """Why a transmission happened, recorded per trace line."""

    ORIGIN = "origin"
    RELAY = "relay"
    BURST = "burst"
    WIRED = "wired"


class _MessageFields(NamedTuple):
    id: str
    kind: MessageKind
    created_at: float
    hops: int = 0
    priority: Priority = Priority.NORMAL
    correlation: Optional[str] = None
    payload: Optional[str] = None


class Message(_MessageFields):
    """One message; its constructor rejects a negative creation time or
    hop count."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Message:
        msg = super().__new__(cls, *args, **kwargs)
        if msg.created_at < 0:
            raise ValueError("creation time must be non-negative")
        if msg.hops < 0:
            raise ValueError("hop count must be non-negative")
        return msg


class MessageIdSource:
    """Per-run allocator of unique message ids; deterministic given call order."""

    def __init__(self) -> None:
        self._counter = itertools.count()

    def next(self) -> str:
        return f"m{next(self._counter):05d}"


def make_message(
    kind: MessageKind,
    origin: RoleKind,
    now: float,
    *,
    ids: MessageIdSource,
    correlation: Optional[str] = None,
    payload: Optional[str] = None,
) -> Message:
    """Originate a fresh message; priority follows the originating role."""
    if not isinstance(origin, RoleKind):
        raise ValueError(f"unknown origin role: {origin!r}")
    if not isinstance(kind, MessageKind):
        raise ValueError(f"unknown message kind: {kind!r}")
    if now < 0:
        raise ValueError("origination time must be non-negative")
    priority = (
        Priority.OFFICIAL if origin is RoleKind.OFFICIAL_VEHICLE else Priority.NORMAL
    )
    return Message(
        id=ids.next(),
        kind=kind,
        created_at=now,
        hops=0,
        priority=priority,
        correlation=correlation,
        payload=payload,
    )


def age(msg: Message, now: float) -> float:
    """Seconds elapsed since the message was originated."""
    if now < msg.created_at:
        raise ClockInversionError(
            f"clock inversion: now={now} precedes created_at={msg.created_at}"
        )
    return now - msg.created_at


_new_tuple = tuple.__new__


def relayed_copy(msg: Message) -> Message:
    """The copy a forwarder transmits: identical except for one more hop.
    A copy of a checked message passes the constructor's checks, so it is
    built without them."""
    id_, kind, created_at, hops, priority, correlation, payload = msg
    return _new_tuple(
        Message, (id_, kind, created_at, hops + 1, priority, correlation, payload)
    )
