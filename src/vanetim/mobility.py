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
lookup O(1).

:meth:`CircularWorld.step` is the road's one car-following step: every
vehicle follows its leader's position from before the step. The world keeps
each vehicle's last move, and the step runs the rule, with its arithmetic,
only for the vehicles whose inputs may have changed; every other vehicle
repeats its last move, which gives the floats the rule would, and the new
row is the last one plus the moves, added in one pass in C. After a report
most vehicles cruise or stand just as at the step before, so on the
accident sweep's roads of 19, 79 and 139 vehicles the rule runs for about
0.7, 2.5 and 3.7 vehicles a step. That state describes the road as the
world's own steps, glides and spawns left it: code that writes
``positions`` or ``speeds`` in place between two steps must step a
:meth:`CircularWorld.copy`, whose first step computes every vehicle.

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
shift gives the step's floats bit for bit, and it leaves the step's state as
the shifted steps would: each vehicle repeated its move. At the default ``dt``
of 0.5 s the speeds are whole m/s and the positions multiples of 0.5 m, so a
fleet on clear road glides once it cruises; at ``dt = 0.1`` the move is off
the grid, the road steps one step at a time, and each step computes every
vehicle.

A road depends only on route length, fleet size, ``dt`` and its blockage
history. :meth:`CircularWorld.copy` lets trials start from one road stepped
once, and :mod:`vanetim.roadlog` records its steps past that for every
trial whose history agrees.

:meth:`CircularWorld.neighbours_within` decides range by arc. On a loop of
radius ``R`` the chord between two points, ``2R sin(s / 2R)``, rises
strictly with their shorter arc ``s`` up to half the loop, so an entity is
within radio range ``r`` of the centre exactly when its arc from the centre,
one way round or the other, is at most :meth:`CircularWorld.chord_for_radius`
of ``r``. So the query takes every slot in the closed window of that arc
either side of the centre's arc, and computes no point and no distance. Two
rules keep the window's float bounds true to the loop. A radius of the
diameter or more, which every chord is within, gets the whole route as its
window: ``chord_for_radius`` would give half the route, rounded, which can
drop the entity exactly opposite the centre. And the slice is clipped to one
lap, so a window that covers the loop returns each slot once. Below the
diameter, ``asin`` keeps the window short of half the route by far more than
rounding. The query reads an arc index of the road, every slot sorted by
arc, which the first query at a step builds. The index is keyed by the step
count, the spawned count and the ``positions`` list's ``id``, and every
writer of the road changes one of the counts: ``step`` and the glide count
steps, ``inject_flow`` appends, and a road cursor counts steps as it assigns
a new list. So no writer invalidates an index, and none is stale. A list
assigned at the same step has another ``id``, as it is built while the
indexed one lives; code that writes ``positions`` in place must not query
again before the next step. A query bisects the index for its window's two
bounds and takes the slots between as one slice. Receivers come back in slot
order (vehicles, then RSUs), which fixes delivery order. The world keeps the
window of the last radius asked for, so a run at one radio range computes it
once.

Every position and every arc lies in ``[0, route_length)``. So the step
wraps a difference of two arcs, or a position one move past the wrap point,
by comparison, and gets the float that ``%`` would; the neighbour query wraps
a window bound past 0 or past the route length by one route length.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from copy import copy
from heapq import heappop, heappush
from operator import add
from typing import Dict, List, Optional, Set, Tuple

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

#: the neighbour query's index of one road state: the ``id`` of the
#: ``positions`` list it was built from, the step count and the spawned count
#: then, every slot sorted by arc (vehicles and RSUs, ties in slot order)
#: twice over, so a window across the wrap point is one slice, and the sorted
#: arcs. It keeps the list's ``id``, not the list: a road cursor's last row
#: would otherwise stay alive beside its new one
_ArcIndex = Tuple[int, int, int, List[int], List[float]]
#: the index of no road: no object's ``id`` is 0
_NO_INDEX: _ArcIndex = (0, 0, 0, [], [])


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
        #: the neighbour query's (radius, window arc) of the last radius asked
        #: for; no query has radius 0
        self._arcs: Tuple[float, float] = (0.0, 0.0)
        #: the neighbour query's arc index, built by its first query at a step
        #: (see the module docstring)
        self._index: _ArcIndex = _NO_INDEX
        #: the step's own state (see :meth:`step`): the ``dt`` and a copy of
        #: the blockages of its last step, the glide's grid for that ``dt`` (0.0
        #: off the grid), each vehicle's last move by slot, the slots the next
        #: step computes (None for every slot), a heap of (step, slot): a
        #: cruiser to compute at that step, and the step of each slot's live
        #: entry there
        self._dt = math.nan
        self._under: List[float] = []
        self._grid = 0.0
        self._moves: List[float] = []
        self._due: Optional[Set[int]] = None
        self._wake: List[Tuple[int, int]] = []
        self._wake_at: Dict[int, int] = {}

    # -- geometry ----------------------------------------------------------

    def _radius(self) -> float:
        return self.route_length / (2 * math.pi)

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
            if self._due is not None:
                # the new slot, and slot 0, which follows it
                self._due.update((0, len(self.positions) - 1))
                self._moves.append(0.0)
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
        and blockages, and none of the step's state, so its first step
        computes every vehicle."""
        twin = copy(self)
        twin._due, twin._moves, twin._wake, twin._wake_at = None, [], [], {}
        twin.positions = self.positions[:]
        twin.speeds = self.speeds[:]
        twin.blockages = self.blockages[:]
        return twin

    def step(self, dt: float) -> Dict[int, float]:
        """Take the next step: move every vehicle by the car-following rule,
        each after its leader's position from before the step (vehicle 0
        follows the last); return the speeds the step changed, by slot.

        A vehicle at the target speed with at least ``STANDSTILL_GAP +
        TARGET_SPEED * dt`` and a margin of clear road moves by
        ``TARGET_SPEED * dt``; one with at most ``STANDSTILL_GAP`` gets speed
        0 and stays. The full rule gives the same floats: for the first the
        speed clamps to the target and the cap exceeds it; for the second
        ``gap - STANDSTILL_GAP <= 0`` holds exactly, the cap is 0, and
        ``position + 0.0 * dt == position``. Every other vehicle takes it.

        The step keeps each vehicle's last move, and a vehicle takes the
        rule, with its arithmetic, only when its inputs may have changed;
        any other repeats its last move, which gives the floats the rule
        would:

        - a stander keeps standing while its leader stands, or while a
          blockage within the standstill gap holds it: its gap is unchanged;
        - a cruiser, one left at the target speed, keeps it while its gap
          stays at or above the one it moved on (or the cruising threshold,
          if lower), since the cap rises with the gap. On the grid of
          :meth:`_glide`, which its position, its leader's position and
          move, ``TARGET_SPEED * dt`` and the route length lie on, every
          move and wrap is exact, and the gap to its leader changes by the
          difference of their moves at each step. So it is woken, computed
          again, two steps before that gap or the arc to its nearest
          blockage could fall below that bound, and a step before it could
          reach the route length, unless an earlier wake is due for it.
          Waking a vehicle early gives the same floats. Off the grid the
          step computes every vehicle at every step.

        Every other vehicle is computed at the next step, as is one whose
        leader's move changed. A spawn marks the new slot and slot 0, and
        every vehicle is computed at a step taken under other blockages or
        another ``dt`` than the last, and at the first step of a world or of
        a copy. Each new position is the old one plus the move; one that
        reaches the route length, always a computed one, is wrapped by
        ``%``."""
        positions, speeds = self.positions, self.speeds
        length, blockages = self.route_length, self.blockages
        if dt != self._dt or blockages != self._under:
            if dt <= 0:
                raise ValueError("dt must be positive")
            self._dt, self._under, self._due = dt, blockages[:], None
            self._grid = glide_grid(length, TARGET_SPEED * dt)
        step, count, grid = self.next_step, len(positions), self._grid
        due, wake, wake_at, moves = self._due, self._wake, self._wake_at, self._moves
        if due is None:
            due = range(count)
            wake, wake_at = self._wake, self._wake_at = [], {}
            moves = self._moves = [0.0] * count
        while wake and wake[0][0] <= step:
            at, slot = heappop(wake)
            # an entry that a later one for its slot replaced is stale
            if wake_at.get(slot) == at:
                del wake_at[slot]
                due.add(slot)
        accel_dt = ACCEL * dt
        target, standstill, car_length = TARGET_SPEED, STANDSTILL_GAP, VEHICLE_LENGTH
        cruise = target * dt
        cruise_gap = standstill + cruise + _CRUISE_MARGIN
        inf = math.inf
        followed = count > 1
        changes: Dict[int, float] = {}
        next_due: Set[int] = set()
        wrapped: List[Tuple[int, float]] = []
        # each comparison below picks the operand min() or max() would, ties
        # included, and each wrap gives the float % would, so speeds and
        # positions are the same floats as theirs
        for slot in due:
            # clear distance ahead: the leader's tail, or a nearer blockage
            position = positions[slot]
            if followed:
                ahead = positions[slot - 1] - position
                if ahead < 0.0:
                    ahead += length
                ahead -= car_length
            else:
                ahead = inf
            gap = ahead
            nearest = inf
            if blockages:
                for blockage in blockages:
                    arc = blockage - position
                    if arc < 0.0:
                        arc += length
                    if arc < nearest:
                        nearest = arc
                if nearest < gap:
                    gap = nearest
            speed = speeds[slot]
            if gap >= cruise_gap and speed == target:
                move = cruise
            elif gap <= standstill:
                move = 0.0
                if speed != 0.0:
                    speed = speeds[slot] = changes[slot] = 0.0
            else:
                last = speed
                speed += accel_dt
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
                if speed != last:
                    speeds[slot] = changes[slot] = speed
                move = speed * dt
            moved = position + move
            if moved >= length:
                wrapped.append((slot, moved % length))
            if not grid:
                # off the grid the next step computes every vehicle
                moves[slot] = move
                continue
            if move != moves[slot]:
                moves[slot] = move
                # its follower: computed at the next step
                next_due.add(slot + 1 if slot + 1 < count else 0)
            # a leader computed later in this loop whose move changes marks
            # this vehicle too, so its leader's move as it reads now serves
            if speed == target:
                # the cap, monotone in the gap, stays at or above the target
                # on any gap at least this one
                lead = moves[slot - 1]
                if position % grid or positions[slot - 1] % grid or lead % grid:
                    next_due.add(slot)
                    continue
                least = gap if gap < cruise_gap else cruise_gap
                # the steps it may repeat its move for: until it reaches the
                # route length, its nearest blockage or its leader, less two
                later = int((length - position) / cruise) - 1
                if nearest < inf:
                    later = min(later, int((nearest - least) / cruise) - 2)
                if lead < cruise:
                    later = min(later, int((ahead - least) / (cruise - lead)) - 2)
                if later <= 1:
                    next_due.add(slot)
                elif wake_at.get(slot, inf) > step + later:
                    # no entry wakes it by then already
                    wake_at[slot] = step + later
                    heappush(wake, (step + later, slot))
            elif gap > standstill or (nearest > standstill and moves[slot - 1]):
                # a blockage within the standstill gap holds a stander
                # whatever its leader does
                next_due.add(slot)
        self._due = next_due if grid else None
        moved = list(map(add, positions, moves))
        for slot, position in wrapped:
            moved[slot] = position
        self.positions = moved
        self.next_step = step + 1
        return changes

    # -- protocol-facing queries ------------------------------------------

    def _index_arcs(self) -> _ArcIndex:
        """The arc index of the road as it stands: every slot sorted by arc,
        twice over, and the sorted arcs; see :meth:`neighbours_within`. The
        old index goes first, and the new one is built in its own lists, so
        a build holds no more than one index at a time."""
        self._index = _NO_INDEX
        positions = self.positions
        count = len(positions)
        arcs = positions + [arc for _, arc in self.rsus]
        order = sorted(range(len(arcs)), key=arcs.__getitem__)
        arcs.sort()
        if count < self.fleet_size:
            # an RSU's place in ``arcs`` is not its slot until all have spawned
            unspawned = self.fleet_size - count
            order = [k if k < count else k + unspawned for k in order]
        order *= 2
        index = self._index = (id(positions), self.next_step, count, order, arcs)
        return index

    def neighbours_within(self, center: int, radius: float) -> List[int]:
        """The slots of all entities within Euclidean range of slot
        ``center``, excluding it, in slot order (vehicles, then RSUs): every
        slot whose arc lies in the closed window ``[c - w, c + w]`` on the
        loop, where ``c`` is the centre's arc and ``w`` the arc of a chord
        as long as ``radius`` (see the module docstring). Two bisections of
        the road's arc index find the window; a bound past 0 or past the
        route length wraps by one route length and reads into the second
        copy of the order. The window is one slice, clipped to one lap."""
        if radius <= 0:
            raise ValueError("radius must be positive")
        length = self.route_length
        arcs = self._arcs
        if arcs[0] != radius:
            # a radius of the diameter or more reaches every slot
            window = (self.chord_for_radius(radius) if radius < 2 * self._radius()
                      else length)
            arcs = self._arcs = (radius, window)
        window = arcs[1]
        positions, index = self.positions, self._index
        if (index[0] != id(positions) or index[1] != self.next_step
                or index[2] != len(positions)):
            index = self._index_arcs()
        order, keys = index[3], index[4]
        count = len(keys)
        center_arc = self.arc_of(center)
        low, high = center_arc - window, center_arc + window
        if low < 0.0:
            start = bisect_left(keys, low + length)
            stop = bisect_right(keys, high) + count
        elif high >= length:
            start = bisect_left(keys, low)
            stop = bisect_right(keys, high - length) + count
        else:
            start = bisect_left(keys, low)
            stop = bisect_right(keys, high)
        # a window of a lap or more would take a slot twice
        found = order[start:min(stop, start + count)]
        found.sort()
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
