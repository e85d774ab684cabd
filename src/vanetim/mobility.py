"""Road geometry, vehicle flow, and car-following kinematics.

The road network is a parameterised circular loop; vehicles enter
one after another from a fixed point and keep a safe gap behind their
leader with a simple accelerate-or-brake rule. Speed target, acceleration,
length, gaps, entry headway and RSU count are module constants, the same
for every vehicle and every trial; only the route length varies.

Inside the world every entity is a dense int *slot*: a vehicle's slot is
its place in the spawn order, and RSU ``i`` has slot ``fleet_size + i``.
A spawned vehicle is its slot's entries in ``positions`` and ``speeds``.
Queries take and return slots, so none of them hashes or compares an
entity id. A vehicle's leader is the slot before it, which keeps leader
lookup O(1). :meth:`CircularWorld.step` is one pass over the slots: every
vehicle reads its leader's position from before the step, then moves.

Step ``i`` runs at ``i * dt``, and the world counts the steps it has taken,
so :meth:`CircularWorld.advance` can run every step due by a time and
resume where it stopped. A road with no incident on it depends only on the
route length, the fleet size and ``dt``: :meth:`CircularWorld.copy` lets
several trials start from one road stepped once.

:meth:`CircularWorld.neighbours_within` decides by arc distance from the
centre where the arc settles it, before any trigonometry: an entity beyond
the arc of a chord as long as the radio range (plus 1 m) is out of range,
and one within the arc of a chord 1 m shorter than the range is in range.
Only the entities in the 2 m band between take the exact Euclidean test;
receivers come back in slot order (vehicles, then RSUs), which fixes
delivery order.
"""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass
from itertools import chain
from typing import List, Tuple

#: metres of slack between the neighbour query's arcs and the radio range,
#: far above float rounding
_ARC_WINDOW_MARGIN = 1.0

# the kinematics the model fixes, the same for every vehicle
TARGET_SPEED = 13.0     # m/s a vehicle accelerates towards
ACCEL = 2.0             # m/s^2
STANDSTILL_GAP = 2.0    # metres a vehicle keeps behind its leader's tail
VEHICLE_LENGTH = 4.5    # metres
ENTRY_HEADWAY = 2.0     # seconds between two spawns at the entry point
RSU_COUNT = 10          # RSUs, equally spaced round the loop
QUEUE_LOOKAHEAD = 50.0  # metres downstream that queue detection looks


@dataclass(frozen=True)
class MobilityConfig:
    route_length: float = 4000.0
    dt: float = 0.5


class CircularWorld:
    """Mutable mobility state for one trial."""

    def __init__(self, route_length: float, fleet_size: int) -> None:
        self.route_length = route_length
        self.fleet_size = fleet_size
        self.next_spawn_time = 0.0
        #: index of the next step, which runs at ``next_step * dt``
        self.next_step = 0
        #: arc metres along the route and speed of each spawned vehicle, by slot
        self.positions: List[float] = []
        self.speeds: List[float] = []
        self.blockages: List[float] = []
        #: (slot, arc) of each RSU, in RSU index order
        self.rsus: List[Tuple[int, float]] = [
            (fleet_size + i, i * route_length / RSU_COUNT) for i in range(RSU_COUNT)
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
        if slot < len(self.positions):
            return self.positions[slot]
        rsu = slot - self.fleet_size
        if rsu < 0:
            raise KeyError(f"vehicle slot {slot} has not spawned")
        return self.rsus[rsu][1]

    def entities(self) -> List[int]:
        """The slots on the road: spawned vehicles, then RSUs."""
        return list(range(len(self.positions))) + [slot for slot, _ in self.rsus]

    def arc_gap(self, behind: float, ahead: float) -> float:
        return (ahead - behind) % self.route_length

    def chord_for_radius(self, radius: float) -> float:
        """Arc length whose chord equals ``radius`` (radio range on the loop)."""
        r = self._radius()
        half = min(1.0, radius / (2 * r))
        return 2 * r * math.asin(half)

    # -- spawning ----------------------------------------------------------

    @property
    def spawned_count(self) -> int:
        return len(self.positions)

    def inject_flow(self, now: float) -> None:
        """Spawn the next slot's vehicle at rest on the entry point when the
        entry gap is clear; deferred spawns retry on the next step."""
        while len(self.positions) < self.fleet_size and now >= self.next_spawn_time:
            if not self._entry_clear():
                return
            self.positions.append(0.0)
            self.speeds.append(0.0)
            self.next_spawn_time = now + ENTRY_HEADWAY

    def _entry_clear(self) -> bool:
        required = VEHICLE_LENGTH + STANDSTILL_GAP
        for position in self.positions:
            ahead = self.arc_gap(0.0, position)
            if ahead < required or self.route_length - ahead < required:
                return False
        return True

    # -- kinematics --------------------------------------------------------

    def advance(self, until: float, dt: float) -> None:
        """Run every step due by ``until``, from the next one on: step ``i``
        at ``i * dt`` spawns what it can first, then moves the fleet."""
        while self.next_step * dt <= until:
            if len(self.positions) < self.fleet_size:
                self.inject_flow(self.next_step * dt)
            self.step(dt)

    def copy(self) -> CircularWorld:
        """An independent world in the same state: its own positions, speeds
        and blockages."""
        twin = copy(self)
        twin.positions = self.positions[:]
        twin.speeds = self.speeds[:]
        twin.blockages = self.blockages[:]
        return twin

    def step(self, dt: float) -> None:
        """Advance every vehicle by ``dt`` in one pass; each follows its
        leader's position from before the step (vehicle 0 follows the last)."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        positions, speeds = self.positions, self.speeds
        length = self.route_length
        blockages = self.blockages
        accel_dt = ACCEL * dt
        target, standstill, car_length = TARGET_SPEED, STANDSTILL_GAP, VEHICLE_LENGTH
        followed = len(positions) > 1
        if positions:
            ahead = positions[-1]
        # each comparison below picks the operand min() or max() would, ties
        # included, so speeds and positions are the same floats as theirs
        for slot, position in enumerate(positions):
            speed = speeds[slot] + accel_dt
            if not speed < target:
                speed = target
            # clear distance ahead: the leader's tail, or a nearer blockage
            gap = (ahead - position) % length - car_length if followed else math.inf
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
            ahead = position
            speeds[slot] = speed
            positions[slot] = (position + speed * dt) % length
        self.next_step += 1
        if self.check_invariants:
            self._assert_no_overlap()

    def _assert_no_overlap(self) -> None:
        positions = self.positions
        n = len(positions)
        if n < 2:
            return
        for slot, position in enumerate(positions):
            leader = (slot - 1) % n
            gap = self.arc_gap(position, positions[leader]) - VEHICLE_LENGTH
            if gap < STANDSTILL_GAP - 1e-9:
                raise AssertionError(
                    f"gap violation: slot {slot} at {gap:.3f} m behind slot {leader}"
                )

    # -- protocol-facing queries ------------------------------------------

    def neighbours_within(self, center: int, radius: float) -> List[int]:
        """The slots of all entities within Euclidean range of slot
        ``center``, excluding it, in slot order (vehicles, then RSUs). Chord
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
        for slot, arc in chain(enumerate(self.positions), self.rsus):
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
        fleet = self.fleet_size
        if a >= fleet or b >= fleet:
            raise ValueError("downstream ordering is defined for vehicles only")
        ahead = self.arc_gap(self.arc_of(a), self.arc_of(b))
        return 0.0 < ahead < self.route_length / 2

    def queue_ahead(self, slot: int) -> bool:
        """A slower or stopped obstruction within the lookahead window."""
        positions, speeds = self.positions, self.speeds
        position = positions[slot]
        for blockage in self.blockages:
            if self.arc_gap(position, blockage) <= QUEUE_LOOKAHEAD:
                return True
        if len(positions) < 2:
            return False
        ahead = self.arc_gap(position, positions[slot - 1]) - VEHICLE_LENGTH
        if ahead > QUEUE_LOOKAHEAD:
            return False
        leader_speed = speeds[slot - 1]
        return leader_speed < speeds[slot] or leader_speed < 0.1

    # -- incidents ---------------------------------------------------------

    def add_blockage(self, arc: float) -> None:
        self.blockages.append(arc % self.route_length)
