"""Road geometry, vehicle flow, and car-following kinematics.

The road network is a parameterised circular loop; vehicles enter
one after another from a fixed point and keep a safe gap behind their
leader with a simple accelerate-or-brake rule. A vehicle's leader is the
one spawned before it (the previous entry of ``vehicles``), which keeps
leader lookup O(1). :meth:`CircularWorld.step` is one pass over the list:
every vehicle reads its leader's position from before the step, then moves.

Inside the world every entity is a dense int *slot*: a vehicle's slot is
its place in the spawn queue, which is also its index in ``vehicles``,
and RSU ``i`` has slot ``fleet_size + i``. Queries take and return slots,
so none of them hashes or compares an :class:`EntityId`.

:meth:`CircularWorld.neighbours_within` decides by arc distance from the
centre where the arc settles it, before any trigonometry: an entity beyond
the arc of a chord as long as the radio range (plus 1 m) is out of range,
and one within the arc of a chord 1 m shorter than the range is in range.
Only the entities in the 2 m band between take the exact Euclidean test;
receivers come back in list order (vehicles, then RSUs), which fixes
delivery order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import List, Sequence, Tuple

from .domain import EntityId

#: metres of slack between the neighbour query's arcs and the radio range,
#: far above float rounding
_ARC_WINDOW_MARGIN = 1.0


@dataclass(frozen=True)
class MobilityConfig:
    route_length: float = 4000.0
    target_speed: float = 13.0
    accel: float = 2.0
    standstill_gap: float = 2.0
    vehicle_length: float = 4.5
    entry_headway: float = 2.0
    dt: float = 0.5
    rsu_count: int = 10
    queue_lookahead: float = 50.0  # downstream window for queue detection


@dataclass
class VehicleKinematics:
    entity: EntityId
    position: float  # arc metres along the route
    speed: float = 0.0
    target_speed: float = 13.0
    length: float = 4.5


class CircularWorld:
    """Mutable mobility state for one trial."""

    def __init__(self, cfg: MobilityConfig, spawn_queue: Sequence[EntityId]) -> None:
        self.cfg = cfg
        self.route_length = cfg.route_length
        self.spawn_queue: List[EntityId] = list(spawn_queue)
        self.next_spawn_index = 0
        self.next_spawn_time = 0.0
        # in spawn order, so a vehicle's slot is its index here
        self.vehicles: List[VehicleKinematics] = []
        self.blockages: List[float] = []
        n = max(1, cfg.rsu_count)
        #: (slot, arc) of each RSU, in RSU index order
        self.rsus: List[Tuple[int, float]] = [
            (self.fleet_size + i, i * cfg.route_length / n) for i in range(n)
        ]
        self.check_invariants = False

    # -- geometry ----------------------------------------------------------

    def _radius(self) -> float:
        return self.route_length / (2 * math.pi)

    def point_of_arc(self, arc: float) -> Tuple[float, float]:
        theta = 2 * math.pi * (arc % self.route_length) / self.route_length
        r = self._radius()
        return (r * math.cos(theta), r * math.sin(theta))

    def arc_of(self, slot: int) -> float:
        if slot < len(self.vehicles):
            return self.vehicles[slot].position
        rsu = slot - len(self.spawn_queue)
        if rsu < 0:
            raise KeyError(f"vehicle slot {slot} has not spawned")
        return self.rsus[rsu][1]

    def entities(self) -> List[int]:
        """The slots on the road: spawned vehicles in list order, then RSUs."""
        return list(range(len(self.vehicles))) + [slot for slot, _ in self.rsus]

    def arc_gap(self, behind: float, ahead: float) -> float:
        return (ahead - behind) % self.route_length

    def chord_for_radius(self, radius: float) -> float:
        """Arc length whose chord equals ``radius`` (radio range on the loop)."""
        r = self._radius()
        half = min(1.0, radius / (2 * r))
        return 2 * r * math.asin(half)

    # -- spawning ----------------------------------------------------------

    @property
    def fleet_size(self) -> int:
        return len(self.spawn_queue)

    @property
    def spawned_count(self) -> int:
        return len(self.vehicles)

    def inject_flow(self, now: float) -> None:
        """Spawn the next queued vehicle at the entry point when the entry
        gap is clear; deferred spawns retry on the next step."""
        while (
            self.next_spawn_index < len(self.spawn_queue)
            and now >= self.next_spawn_time
        ):
            if not self._entry_clear():
                return
            entity = self.spawn_queue[self.next_spawn_index]
            vehicle = VehicleKinematics(
                entity=entity,
                position=0.0,
                speed=0.0,
                target_speed=self.cfg.target_speed,
                length=self.cfg.vehicle_length,
            )
            self.vehicles.append(vehicle)
            self.next_spawn_index += 1
            self.next_spawn_time = now + self.cfg.entry_headway

    def _entry_clear(self) -> bool:
        required = self.cfg.vehicle_length + self.cfg.standstill_gap
        for vehicle in self.vehicles:
            ahead = self.arc_gap(0.0, vehicle.position)
            if ahead < required or self.route_length - ahead < required:
                return False
        return True

    # -- kinematics --------------------------------------------------------

    def step(self, dt: float) -> None:
        """Advance every vehicle by ``dt`` in one pass; each follows its
        leader's position from before the step (vehicle 0 follows the last)."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        cfg = self.cfg
        vehicles = self.vehicles
        length = self.route_length
        blockages = self.blockages
        accel_dt = cfg.accel * dt
        standstill = cfg.standstill_gap
        followed = len(vehicles) > 1
        if vehicles:
            ahead, ahead_length = vehicles[-1].position, vehicles[-1].length
        # each comparison below picks the operand min() or max() would, ties
        # included, so speeds and positions are the same floats as theirs
        for vehicle in vehicles:
            position = vehicle.position
            speed = vehicle.speed + accel_dt
            if not speed < vehicle.target_speed:
                speed = vehicle.target_speed
            # clear distance ahead: the leader's tail, or a nearer blockage
            gap = (ahead - position) % length - ahead_length if followed else math.inf
            for blockage in blockages:
                arc = (blockage - position) % length
                if arc < gap:
                    gap = arc
            if gap < math.inf:
                # cap the advance so the standstill gap survives even if the
                # leader does not move this step
                cap = (gap - standstill) / dt
                if not cap > 0.0:
                    cap = 0.0
                if cap < speed:
                    speed = cap
            ahead, ahead_length = position, vehicle.length
            vehicle.speed = speed
            vehicle.position = (position + speed * dt) % length
        if self.check_invariants:
            self._assert_no_overlap()

    def _assert_no_overlap(self) -> None:
        n = len(self.vehicles)
        if n < 2:
            return
        for i, vehicle in enumerate(self.vehicles):
            leader = self.vehicles[i - 1]
            gap = self.arc_gap(vehicle.position, leader.position) - leader.length
            if gap < self.cfg.standstill_gap - 1e-9:
                raise AssertionError(
                    f"gap violation: {vehicle.entity} at {gap:.3f} m behind {leader.entity}"
                )

    # -- protocol-facing queries ------------------------------------------

    def neighbours_within(self, center: int, radius: float) -> List[int]:
        """The slots of all entities within Euclidean range of slot
        ``center``, excluding it, vehicles in list order then RSUs. Chord
        length rises with arc length, so entities beyond
        ``chord_for_radius(radius)`` of arc are skipped, and those within
        ``chord_for_radius(radius - 1)`` are in range without the Euclidean
        test."""
        if radius <= 0:
            raise ValueError("radius must be positive")
        length = self.route_length
        center_arc = self.arc_of(center)
        cx, cy = self.point_of_arc(center_arc)
        window = self.chord_for_radius(radius) + _ARC_WINDOW_MARGIN
        far = length - window
        # within this arc the chord is at most radius - 1 m (or the arc is 0)
        sure = self.chord_for_radius(max(radius - _ARC_WINDOW_MARGIN, 0.0))
        sure_far = length - sure
        found: List[int] = []
        vehicles = enumerate([v.position for v in self.vehicles])
        for slot, arc in chain(vehicles, self.rsus):
            offset = (arc - center_arc) % length
            # more than the window of arc away, one way round or the other
            if window < offset < far or slot == center:
                continue
            # in range, whatever the rounding of the Euclidean test
            if offset <= sure or offset >= sure_far:
                found.append(slot)
                continue
            x, y = self.point_of_arc(arc)
            if math.hypot(x - cx, y - cy) <= radius:
                found.append(slot)
        return found

    def downstream_of(self, a: int, b: int) -> bool:
        """True iff vehicle slot b lies ahead of vehicle slot a along the
        travel direction, within half the loop; the diametrically-opposite
        tie resolves to False."""
        fleet = len(self.spawn_queue)
        if a >= fleet or b >= fleet:
            raise ValueError("downstream ordering is defined for vehicles only")
        ahead = self.arc_gap(self.arc_of(a), self.arc_of(b))
        return 0.0 < ahead < self.route_length / 2

    def queue_ahead(self, slot: int) -> bool:
        """A slower or stopped obstruction within the lookahead window."""
        vehicle = self.vehicles[slot]
        for blockage in self.blockages:
            if self.arc_gap(vehicle.position, blockage) <= self.cfg.queue_lookahead:
                return True
        if len(self.vehicles) < 2:
            return False
        leader = self.vehicles[slot - 1]
        ahead = self.arc_gap(vehicle.position, leader.position) - leader.length
        if ahead > self.cfg.queue_lookahead:
            return False
        return leader.speed < vehicle.speed or leader.speed < 0.1

    # -- incidents ---------------------------------------------------------

    def add_blockage(self, arc: float) -> None:
        self.blockages.append(arc % self.route_length)
