"""Road geometry, vehicle flow, and car-following kinematics.

The road network is a parameterised circular loop; vehicles enter
one after another from a fixed point and keep a safe gap behind their
leader with a simple accelerate-or-brake rule. Speed target, acceleration,
length, gaps, entry headway and RSU count are module constants, the same
for every vehicle and every trial; only the route length varies.

Inside the world every entity is a dense int *slot*: a vehicle's slot is
its place in the spawn order, and RSU ``i`` has slot ``fleet_size + i``.
A spawned vehicle is its slot's entries in ``positions`` and ``speeds``.
Queries take and return slots, so none of them hashes or compares a
label. A vehicle's leader is the slot before it, which keeps leader
lookup O(1). :meth:`CircularWorld.step` is one pass over the slots: every
vehicle reads its leader's position from before the step, then moves. A
vehicle cruising on clear road, or standing at the standstill gap, skips the
car-following arithmetic, which would give it the same floats.

Step ``i`` runs at ``i * dt``, and the world counts the steps it has taken,
so :meth:`CircularWorld.advance` runs every step due by a time and resumes
where it stopped. The engine calls it before each event, and a trial's
road moves no other way. A blockage added or cleared once ``i`` steps are
taken acts from step ``i`` on.

A free-flowing fleet glides: when every vehicle has spawned, no blockage is
parked, every speed is the target, every clear gap passes the step's own cap
test ``(gap - STANDSTILL_GAP) / dt >= TARGET_SPEED``, and every position, the
move ``TARGET_SPEED * dt`` and the route length lie on the grid of multiples
of ``2**(e - 53)`` with ``2 * route_length < 2**e``, ``advance`` takes all the
steps due at once as one shift of the fleet. On that grid every move the step
would make is exact, so each gap stays the same float and every step moves
every vehicle by ``TARGET_SPEED * dt``: a vehicle cruises, or, with a cap
within the cruising margin of the target, takes the car-following arithmetic,
whose speed clamps to the target and which moves it by the same float. So the
shift gives the step's floats bit for bit. At the default ``dt`` of 0.5 s the
speeds are whole m/s and the positions multiples of 0.5 m, so a fleet on clear
road glides once it cruises; at ``dt = 0.1`` the move is off the grid and the
road steps one step at a time.

A road depends only on route length, fleet size, ``dt`` and its blockage
history. :meth:`CircularWorld.copy` lets trials start from one road stepped
once, and :mod:`vanetim.roadlog` records its steps past that for every
trial whose history agrees.

:meth:`CircularWorld.neighbours_within` decides by arc distance from the
centre where the arc settles it, before any trigonometry: an entity beyond
the arc of a chord as long as the radio range (plus 1 m) is out of range,
and one within the arc of a chord 1 m shorter than the range is in range.
Only the entities in the 2 m band between take the exact Euclidean test,
and a query computes the centre's point only once one of them needs it;
receivers come back in slot order (vehicles, then RSUs), which fixes
delivery order. The world keeps the two arcs of the last radius asked for,
so a run at one radio range computes them once.

Every position and every arc lies in ``[0, route_length)``. So the step and
the neighbour query wrap a difference of two arcs, or a position one move
past the wrap point, by comparison, and get the float that ``%`` would.
"""

from __future__ import annotations

import math
from copy import copy
from typing import List, Tuple

#: metres of slack between the neighbour query's arcs and the radio range,
#: far above float rounding
_ARC_WINDOW_MARGIN = 1.0
#: metres of clear road, past one target-speed move and the standstill gap, a
#: cruising vehicle needs to skip the car-following arithmetic; far above the
#: rounding of ``/ dt`` for any ``dt`` below 1e12 s
_CRUISE_MARGIN = 1.0

# the kinematics the model fixes, the same for every vehicle
TARGET_SPEED = 13.0     # m/s a vehicle accelerates towards
ACCEL = 2.0             # m/s^2
STANDSTILL_GAP = 2.0    # metres a vehicle keeps behind its leader's tail
VEHICLE_LENGTH = 4.5    # metres
ENTRY_HEADWAY = 2.0     # seconds between two spawns at the entry point
RSU_COUNT = 10          # RSUs, equally spaced round the loop
QUEUE_LOOKAHEAD = 50.0  # metres downstream that queue detection looks


def glide_grid(route_length: float, move: float) -> float:
    """The glide's grid, ``2**(e - 53)`` with ``2 * route_length < 2**e``, if
    ``move`` is shorter than the route and both lie on it; else 0.0."""
    grid = math.ldexp(1.0, math.frexp(2.0 * route_length)[1] - 53)
    if 0.0 < move < route_length and not (move % grid or route_length % grid):
        return grid
    return 0.0


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
        #: the neighbour query's (radius, window arc, sure arc) of the last
        #: radius asked for; no query has radius 0
        self._arcs: Tuple[float, float, float] = (0.0, 0.0, 0.0)

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
        """No vehicle within a car length and a standstill gap of the entry
        point: ``route_length - p`` does not rise with ``p``, so the nearest
        each way are the lowest and the highest position."""
        positions = self.positions
        required = VEHICLE_LENGTH + STANDSTILL_GAP
        return not positions or (
            min(positions) >= required
            and self.route_length - max(positions) >= required
        )

    # -- kinematics --------------------------------------------------------

    def advance(self, until: float, dt: float) -> None:
        """Run every step due by ``until``, from the next one on: step ``i``
        at ``i * dt`` spawns what it can first, then moves the fleet. Once
        the whole fleet has spawned and two or more steps are due, a fleet
        that glides (see :meth:`_glide`) takes them all at once."""
        while self.next_step * dt <= until:
            if len(self.positions) < self.fleet_size:
                self.inject_flow(self.next_step * dt)
            elif (self.next_step + 1) * dt <= until and self._glide(until, dt):
                return
            self.step(dt)

    def _glide(self, until: float, dt: float) -> bool:
        """Take every step due by ``until`` as one shift of the fleet if it
        is in free flow on the grid (see the module docstring); return
        whether it did. The grid makes every sum or difference of two of the
        positions, the move and the route length that stays below twice the
        route length exact, and a move shorter than the route wraps by one
        subtraction. So every clear gap stays the float it is, and a gap that
        passes the step's cap test now passes it at each of the ``k`` steps,
        where the step moves its vehicle by ``TARGET_SPEED * dt`` whether it
        cruises or not. Together the steps come to one shift by ``k`` moves
        modulo the route length, built by ``k`` exact additions."""
        positions, length = self.positions, self.route_length
        move = TARGET_SPEED * dt
        if self.blockages or self.speeds.count(TARGET_SPEED) != len(positions):
            return False
        grid = glide_grid(length, move)
        if not grid:
            return False
        if len(positions) > 1:
            ahead = positions[-1]
            for position in positions:
                gap = ahead - position
                if gap < 0.0:
                    gap += length
                gap -= VEHICLE_LENGTH
                # the step caps the speed at this; at or above the target
                # it keeps the target
                if not (gap - STANDSTILL_GAP) / dt >= TARGET_SPEED or position % grid:
                    return False
                ahead = position
        elif positions and positions[0] % grid:
            return False
        steps, shift = self.next_step, 0.0
        while steps * dt <= until:
            shift += move
            if shift >= length:
                shift -= length
            steps += 1
        for slot, position in enumerate(positions):
            position += shift
            if position >= length:
                position -= length
            positions[slot] = position
        self.next_step = steps
        return True

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
        leader's position from before the step (vehicle 0 follows the last).

        A vehicle at the target speed with at least ``STANDSTILL_GAP +
        TARGET_SPEED * dt`` and a margin of clear road moves by
        ``TARGET_SPEED * dt``; one with at most ``STANDSTILL_GAP`` gets speed
        0 and stays. The full rule gives the same floats: for the first the
        speed clamps to the target and the cap exceeds it; for the second
        ``gap - STANDSTILL_GAP <= 0`` holds exactly, the cap is 0, and
        ``position + 0.0 * dt == position``. Every other vehicle takes it."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        positions, speeds = self.positions, self.speeds
        length = self.route_length
        blockages = self.blockages
        accel_dt = ACCEL * dt
        target, standstill, car_length = TARGET_SPEED, STANDSTILL_GAP, VEHICLE_LENGTH
        cruise = target * dt
        cruise_gap = standstill + cruise + _CRUISE_MARGIN
        inf = math.inf
        followed = len(positions) > 1
        if positions:
            ahead = positions[-1]
        # each comparison below picks the operand min() or max() would, ties
        # included, and each wrap gives the float % would, so speeds and
        # positions are the same floats as theirs
        for slot, position in enumerate(positions):
            # clear distance ahead: the leader's tail, or a nearer blockage
            if followed:
                gap = ahead - position
                if gap < 0.0:
                    gap += length
                gap -= car_length
            else:
                gap = inf
            if blockages:
                for blockage in blockages:
                    arc = blockage - position
                    if arc < 0.0:
                        arc += length
                    if arc < gap:
                        gap = arc
            ahead = position
            if gap >= cruise_gap and speeds[slot] == target:
                position += cruise
            elif gap <= standstill:
                speeds[slot] = 0.0
                continue
            else:
                speed = speeds[slot] + accel_dt
                if not speed < target:
                    speed = target
                if gap < inf:
                    # cap the advance so the standstill gap survives even if
                    # the leader does not move this step
                    cap = (gap - standstill) / dt
                    if not cap > 0.0:
                        cap = 0.0
                    if cap < speed:
                        speed = cap
                speeds[slot] = speed
                position += speed * dt
            if position >= length:
                position %= length
            positions[slot] = position
        self.next_step += 1

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
        centre = None  # the centre's point, computed for the first band entity
        arcs = self._arcs
        if arcs[0] != radius:
            window = self.chord_for_radius(radius) + _ARC_WINDOW_MARGIN
            # within this arc the chord is at most radius - 1 m (or the arc is 0)
            sure = self.chord_for_radius(max(radius - _ARC_WINDOW_MARGIN, 0.0))
            arcs = self._arcs = (radius, window, sure)
        _, window, sure = arcs
        far, sure_far = length - window, length - sure
        found: List[int] = []
        for pairs in (enumerate(self.positions), self.rsus):
            for slot, arc in pairs:
                offset = arc - center_arc
                if offset < 0.0:
                    offset += length
                # more than the window of arc away, one way round or the other
                if window < offset < far:
                    continue
                # in range, whatever the rounding of the Euclidean test; the
                # centre itself is here, at offset 0
                if offset <= sure or offset >= sure_far:
                    found.append(slot)
                    continue
                if centre is None:
                    centre = self.point_of_arc(center_arc)
                x, y = self.point_of_arc(arc)
                if math.hypot(x - centre[0], y - centre[1]) <= radius:
                    found.append(slot)
        found.remove(center)
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

    def clear_blockages(self) -> None:
        self.blockages = []
