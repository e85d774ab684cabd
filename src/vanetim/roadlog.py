"""A road recorded once and read by every trial whose history agrees.

A road depends only on route length, fleet size, ``dt`` and its blockage
history, so trials of one density read one recorded road while their
histories agree. A :class:`RoadLog` steps one frontier world past a warm
road and records, per step, the positions as one row, the speeds the step
changed and the blockages it was taken under. Each trial reads it through
its own :class:`RoadCursor`, which copies the row of each step it reads into
its ``positions`` and applies the step's speed changes to its own copy of
the warm speeds, so it always holds its last step's whole state. The first
trial to need a step not yet recorded steps the frontier under its own
blockages. A cursor whose history differs from the log's at a step it
needs, or that takes a step other than through ``advance``, drops the log
and steps on from its own lists, replaying nothing. A log records only a
warm road whose whole fleet has spawned, so neither its frontier nor a
cursor ever spawns. Most speeds hold from step to step (a whole accident
sweep's pass at 19, 79 and 139 vehicles changes 283, 1 087 and 1 378), so
the log records the changes, not a row of speeds per step.

The frontier takes each step with the log's own step, which keeps every
vehicle's last move and runs the car-following rule of
:meth:`vanetim.mobility.CircularWorld.step`, with its arithmetic, only for
the vehicles whose inputs may have changed; the next row is the last one
plus the moves, added in one pass in C. After a report
most vehicles cruise or stand just as at the step before, so on the
accident sweep's roads of 19, 79 and 139 vehicles the rule runs for about
0.7, 2.5 and 3.7 vehicles a recorded step. The frontier is the log's own,
so no other code reads or writes its lists. ``CircularWorld``'s ``step``,
``advance`` and ``_glide`` step warm-ups, lone trials and cursors that leave
the log, and are the reference the log is tested against.

The log has a module of its own, apart from :mod:`vanetim.mobility`:
CPython compiles a module on its first import from a fresh checkout, and
that compile's memory peak, which grows with the module, counts towards the
process's peak resident size.
"""

from __future__ import annotations

import math
from array import array
from heapq import heappop, heappush
from operator import add
from typing import List, Optional, Set, Tuple

from .mobility import (
    ACCEL,
    STANDSTILL_GAP,
    TARGET_SPEED,
    VEHICLE_LENGTH,
    _CRUISE_MARGIN,
    CircularWorld,
    glide_grid,
)


class RoadLog:
    """One road stepped once past ``warm`` and recorded for every trial that
    reads it through a :class:`RoadCursor`.

    ``rows[i]`` holds the vehicle positions after step ``start + i``, and
    ``blockages[i]`` the blockages that step was taken under: the history
    of the trials that stepped the frontier, each the first to need a step.
    The speeds the step changed are recorded beside them. ``warm`` is never
    stepped, and nothing is written once recorded.

    The frontier takes the steps of :meth:`CircularWorld.advance` with the
    log's own step, which keeps each vehicle's last move and computes a move
    by the car-following rule only for a vehicle whose inputs may have
    changed (see :meth:`_step`); every other vehicle repeats its last move.
    """

    def __init__(self, warm: CircularWorld, dt: float) -> None:
        if warm.spawned_count < warm.fleet_size:
            raise ValueError(
                f"a warm road with {warm.spawned_count} of {warm.fleet_size} "
                "vehicles spawned cannot be recorded: a recorded road never spawns"
            )
        self.warm = warm
        self.dt = dt
        self.start = warm.next_step
        self.rows: List[array] = []
        self.blockages: List[List[float]] = []
        #: each speed a recorded step changed, in step order: its slot and its
        #: new value; the changes of step ``start + i`` are those from
        #: ``speed_ends[i]`` up to ``speed_ends[i + 1]``
        self.speed_slots = array("i")
        self.speed_values = array("d")
        self.speed_ends = array("i", [0])
        self._frontier = warm.copy()
        #: each vehicle's move at the frontier's last step, by slot
        self._moves: List[float] = [0.0] * len(warm.positions)
        #: the slots whose move the next step computes; None for every slot
        self._due: Optional[Set[int]] = None
        #: a heap of (step, slot): a cruiser to compute at that step, before
        #: its gap could close below the one it moved on or it could reach
        #: the route length
        self._wake: List[Tuple[int, int]] = []
        #: the grid of :meth:`CircularWorld._glide` if the move and the route
        #: length lie on it, else 0.0: no cruiser repeats its move
        self._grid = glide_grid(warm.route_length, TARGET_SPEED * dt)

    def cursor(self) -> RoadCursor:
        return RoadCursor(self)

    def extend(self, until: float, blockages: List[float]) -> None:
        """Take every step due by ``until`` on the frontier under
        ``blockages``, recording each."""
        frontier, dt = self._frontier, self.dt
        if frontier.blockages != blockages:
            # a new list, so the rows already recorded keep theirs
            frontier.blockages = list(blockages)
            self._due = None
        while frontier.next_step * dt <= until:
            self._step()
            self.rows.append(array("d", frontier.positions))
            self.blockages.append(frontier.blockages)
            self.speed_ends.append(len(self.speed_slots))

    def _step(self) -> None:
        """The frontier's next step, as :meth:`CircularWorld.advance` takes
        it on a fleet that has spawned: move every vehicle.

        A vehicle takes the rule of :meth:`CircularWorld.step`, with its
        arithmetic, only when its inputs may have changed; any other repeats
        its last move, which gives the floats the rule would:

        - a stander keeps standing while its leader stands, or while a
          blockage within the standstill gap holds it: its gap is unchanged;
        - a cruiser, one left at the target speed, keeps it while its gap
          stays at or above the one it moved on (or the cruising threshold,
          if lower), since the cap rises with the gap. On the grid of
          :meth:`CircularWorld._glide`, which its position, its leader's
          position and move, ``TARGET_SPEED * dt`` and the route length lie
          on, every move and wrap is exact, and the gap to its leader changes
          by the difference of their moves at each step. So it is woken,
          computed again, two steps before that gap or the arc to its
          nearest blockage could fall below that bound, and a step before it
          could reach the route length. Off the grid it is computed at every
          step. Waking a vehicle early gives the same floats.

        Every other vehicle is computed at the next step, as is one whose
        leader's move changed, and every vehicle is after a change of
        blockages. Each new position is the old one plus the move;
        one that reaches the route length, always a computed one, is wrapped
        by ``%`` as in :meth:`CircularWorld.step`."""
        frontier, dt = self._frontier, self.dt
        positions, speeds, moves = frontier.positions, frontier.speeds, self._moves
        step = frontier.next_step
        count = len(positions)
        due, wake = self._due, self._wake
        speed_slots, speed_values = self.speed_slots, self.speed_values
        if due is None:
            due = range(count)
            del wake[:]
        while wake and wake[0][0] <= step:
            due.add(heappop(wake)[1])
        length, blockages, grid = frontier.route_length, frontier.blockages, self._grid
        accel_dt = ACCEL * dt
        target, standstill, car_length = TARGET_SPEED, STANDSTILL_GAP, VEHICLE_LENGTH
        cruise = target * dt
        cruise_gap = standstill + cruise + _CRUISE_MARGIN
        inf = math.inf
        followed = count > 1
        next_due: Set[int] = set()
        changed: List[int] = []
        standers: List[int] = []
        #: (slot, position, clear distance to the leader, arc to the nearest
        #: blockage, the least gap it may repeat its move on)
        cruisers: List[Tuple[int, float, float, float, float]] = []
        wrapped: List[Tuple[int, float]] = []
        for slot in due:
            # CircularWorld.step's arithmetic, on the positions from before
            # the step
            position = positions[slot]
            if followed:
                ahead = positions[slot - 1] - position
                if ahead < 0.0:
                    ahead += length
                ahead -= car_length
            else:
                ahead = inf
            nearest = inf
            for blockage in blockages:
                arc = blockage - position
                if arc < 0.0:
                    arc += length
                if arc < nearest:
                    nearest = arc
            gap = nearest if nearest < ahead else ahead
            last = speed = speeds[slot]
            if gap >= cruise_gap and speed == target:
                move = cruise
            elif gap <= standstill:
                speed = move = 0.0
            else:
                speed += accel_dt
                if not speed < target:
                    speed = target
                if gap < inf:
                    cap = (gap - standstill) / dt
                    if not cap > 0.0:
                        cap = 0.0
                    if cap < speed:
                        speed = cap
                move = speed * dt
            if speed != last:
                speeds[slot] = speed
                speed_slots.append(slot)
                speed_values.append(speed)
            if move != moves[slot]:
                moves[slot] = move
                changed.append(slot)
            if speed == target:
                # the cap, monotone in the gap, stays at or above the target
                # on any gap at least this one
                cruisers.append((slot, position, ahead, nearest,
                                 gap if gap < cruise_gap else cruise_gap))
            elif gap <= standstill:
                # a blockage this close holds it whatever its leader does
                if nearest > standstill:
                    standers.append(slot)
            else:
                next_due.add(slot)
            position += move
            if position >= length:
                wrapped.append((slot, position % length))
        for slot in changed:
            next_due.add(slot + 1 if slot + 1 < count else 0)
        for slot in standers:
            if moves[slot - 1]:
                next_due.add(slot)
        for slot, position, ahead, nearest, least in cruisers:
            lead = moves[slot - 1]
            if not grid or position % grid or positions[slot - 1] % grid or lead % grid:
                next_due.add(slot)
                continue
            # the steps it may repeat its move for: until it reaches the
            # route length, its nearest blockage or its leader, less two
            later = int((length - position) / cruise) - 1
            if nearest < inf:
                later = min(later, int((nearest - least) / cruise) - 2)
            if lead < cruise:
                later = min(later, int((ahead - least) / (cruise - lead)) - 2)
            if later > 1:
                heappush(wake, (step + later, slot))
            else:
                next_due.add(slot)
        self._due = next_due
        moved = list(map(add, positions, moves))
        for slot, position in wrapped:
            moved[slot] = position
        frontier.positions = moved
        frontier.next_step = step + 1


class RoadCursor(CircularWorld):
    """One trial's road, read from a :class:`RoadLog`. While the trial's
    blockages agree with those each recorded step was taken under, each
    step it reads makes ``positions`` its own copy of the step's row and
    applies the step's recorded speed changes to its own ``speeds``, so it
    always holds the whole state of the last step taken. At the first step
    where they differ, or at a call of :meth:`step`, it drops the log and
    steps on from its own lists as a plain :class:`CircularWorld`; nothing
    is replayed or copied. Its whole fleet has spawned, so it never spawns,
    on the log or off it. No cursor holds a list or row that another
    reads."""

    def __init__(self, log: RoadLog) -> None:
        warm = log.warm
        super().__init__(warm.route_length, warm.fleet_size)
        self.log: Optional[RoadLog] = log
        self.next_step = warm.next_step
        self.positions = warm.positions[:]
        self.speeds = warm.speeds[:]
        self.blockages = list(warm.blockages)

    def step(self, dt: float) -> None:
        self.log = None
        super().step(dt)

    def advance(self, until: float, dt: float) -> None:
        if self.next_step * dt > until:
            return
        log = self.log
        if log is not None:
            # read every recorded step due by ``until`` taken under this
            # trial's blockages, stepping the frontier past the last one
            start, read = log.start, self.next_step - log.start
            while (start + read) * dt <= until:
                if read == len(log.rows):
                    log.extend(until, self.blockages)
                    read = len(log.rows)
                elif log.blockages[read] == self.blockages:
                    read += 1
                else:
                    break
            if start + read > self.next_step:
                speeds, slots, values = self.speeds, log.speed_slots, log.speed_values
                for i in range(log.speed_ends[self.next_step - start], log.speed_ends[read]):
                    speeds[slots[i]] = values[i]
                self.next_step = start + read
                self.positions = log.rows[read - 1].tolist()
            if (start + read) * dt > until:
                return
            # the next step due was taken under other blockages
            self.log = None
        super().advance(until, dt)
