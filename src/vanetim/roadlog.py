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

The frontier is a plain :class:`vanetim.mobility.CircularWorld`, a copy of
the warm road that only the log reads or writes. It takes each step with
:meth:`vanetim.mobility.CircularWorld.step`, the one step every road takes,
which returns the speeds it changed; the log records them with the row. A
change of blockages makes the step compute every vehicle, and a cursor that
leaves the log starts from a state in which the step computes every vehicle.

The log has a module of its own, apart from :mod:`vanetim.mobility`:
CPython compiles a module on its first import from a fresh checkout, and
that compile's memory peak, which grows with the module, counts towards the
process's peak resident size.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from .mobility import CircularWorld


class RoadLog:
    """One road stepped once past ``warm`` and recorded for every trial that
    reads it through a :class:`RoadCursor`.

    ``rows[i]`` holds the vehicle positions after step ``start + i``, and
    ``blockages[i]`` the blockages that step was taken under: the history
    of the trials that stepped the frontier, each the first to need a step.
    The speeds the step changed are recorded beside them. ``warm`` is never
    stepped, and nothing is written once recorded. The frontier is a copy
    of ``warm``, stepped by :meth:`CircularWorld.step`.
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

    def cursor(self) -> RoadCursor:
        return RoadCursor(self)

    def extend(self, until: float, blockages: List[float]) -> None:
        """Take every step due by ``until`` on the frontier under
        ``blockages``, recording each."""
        frontier, dt = self._frontier, self.dt
        if frontier.blockages != blockages:
            # a new list, so the rows already recorded keep theirs
            frontier.blockages = list(blockages)
        while frontier.next_step * dt <= until:
            changes = frontier.step(dt)
            self.rows.append(array("d", frontier.positions))
            self.blockages.append(frontier.blockages)
            if changes:
                self.speed_slots.extend(changes)
                self.speed_values.extend(changes.values())
            self.speed_ends.append(len(self.speed_slots))


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

    def step(self, dt: float) -> Dict[int, float]:
        self.log = None
        return super().step(dt)

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
