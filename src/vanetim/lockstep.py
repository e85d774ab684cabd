"""The trials of one density, run in lockstep on one shared road.

A road depends only on fleet size and its blockage history, so the trials
of one density (every policy and seed of a sweep's density, every trial of
``vanetim run --trials N``) read one :class:`vanetim.mobility.CircularWorld`
while their histories agree. A :class:`SharedRoad` is that world, their
warm road at the report, and the trials that join it. The first of them to
run runs them all, repeating one round:

- every trial runs its events due before the road's next step time;
- the road takes every step due by the earliest time a trial needs it to
  reach, gliding where it can, under the blockage list of the first
  trial still running;
- a trial whose list differs leaves first with a :meth:`CircularWorld.copy`
  of the road, and finishes alone on it.

So each step is taken once per road, and the trials that query the road
at one step share one arc index. A lone trial is a road joined by one
trial. The trials' events only read the road, and each trial's blockage
list is its own, replaced and never written; the runner hands it to the
road just before a step. Every step of a round
falls before every trial's next event, and the road never steps past the
end of a trial still running, so each trial sees the steps it would see on
a road of its own.

A trial is any object with these members, as
:class:`vanetim.netsim.Engine` has them: ``world``, the road its events
read, which the runner replaces when the trial leaves; ``blockages``;
``begin()``, which queues its first events and returns the earliest's
time; and ``run_before(limit)``, which runs its events due before
``limit`` and returns the time the road must reach before its next one, or
``inf`` once the trial has ended.

The runner has a module of its own, apart from :mod:`vanetim.netsim`:
CPython compiles a module on its first import from a fresh checkout, and
that compile's memory peak, which grows with the module, counts towards the
process's peak resident size.
"""

from __future__ import annotations

import math
from typing import List

from .mobility import STEP, CircularWorld


class SharedRoad:
    """One road and the trials that have joined it and not yet run."""

    def __init__(self, world: CircularWorld) -> None:
        self.world = world
        self._joined: List = []

    def join(self, trial, fleet: int) -> None:
        """Add ``trial``, whose fleet has ``fleet`` vehicles, to the trials
        the next :meth:`run` runs."""
        if self.world.fleet_size != fleet:
            raise ValueError(
                f"a road of {self.world.fleet_size} vehicles cannot host {fleet} vehicles"
            )
        self._joined.append(trial)

    def run(self) -> None:
        """Run every trial that has joined since the last run to its end,
        in lockstep. A road stepped past a trial's first event is refused."""
        trials, self._joined = self._joined, []
        last = (self.world.next_step - 1) * STEP
        for trial in trials:
            first = trial.begin()
            if last > first:
                raise ValueError(
                    f"the world has stepped to {last} s, past the first event at {first} s"
                )
        _lockstep(self.world, trials)


def _lockstep(world: CircularWorld, trials: List) -> None:
    """Run the rounds of ``trials`` on ``world`` until every one has ended."""
    inf = math.inf
    while trials:
        limit = world.next_step * STEP
        due = {trial: trial.run_before(limit) for trial in trials}
        trials = [trial for trial in trials if due[trial] < inf]
        if not trials:
            return
        blockages = trials[0].blockages
        left = [trial for trial in trials if trial.blockages != blockages]
        if left:
            trials = [trial for trial in trials if trial.blockages == blockages]
            for trial in left:
                trial.world = world.copy()
                _lockstep(trial.world, [trial])
        world.blockages = blockages
        world.advance(min(due[trial] for trial in trials))
