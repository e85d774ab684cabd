"""The car-following rule as two plain loops: the oracle of the road's step.

``oracle_step`` computes every new speed from the old state, then moves
every vehicle, with ``min``, ``max`` and ``%``, and keeps no state between
steps. ``CircularWorld.step`` computes a vehicle only when its inputs may
have changed, ``advance`` glides a free-flowing fleet, and a shared road
steps for several trials at once; the tests in ``tests/test_mobility.py``
and ``tests/test_netsim.py`` check all three against these loops bit for
bit, a shared road through :class:`ProbeTrial` and :func:`oracle_notes`.
"""

import math

from vanetim.mobility import ACCEL, STANDSTILL_GAP, STEP, TARGET_SPEED, VEHICLE_LENGTH


def oracle_leader_gap(world, i):
    """The clear distance ahead of vehicle i, as the two-loop step found it."""
    position = world.positions[i]
    gap = math.inf
    if world.spawned_count > 1:
        gap = world.arc_gap(position, world.positions[i - 1]) - VEHICLE_LENGTH
    for blockage in world.blockages:
        gap = min(gap, world.arc_gap(position, blockage))
    return gap


def oracle_step(world):
    """The two-loop step: every new speed from the old state, then every move."""
    dt = STEP
    speeds = []
    for i, speed in enumerate(world.speeds):
        desired = min(TARGET_SPEED, speed + ACCEL * dt)
        gap = oracle_leader_gap(world, i)
        if math.isfinite(gap):
            desired = min(desired, max(0.0, (gap - STANDSTILL_GAP) / dt))
        speeds.append(desired)
    for i, speed in enumerate(speeds):
        world.speeds[i] = speed
        world.positions[i] = (world.positions[i] + speed * dt) % world.route_length


def oracle_advance(world, until):
    """``advance`` one step at a time: spawn at ``i * STEP``, then the
    two-loop step."""
    while world.next_step * STEP <= until:
        if world.spawned_count < world.fleet_size:
            world.inject_flow(world.next_step * STEP)
        oracle_step(world)
        world.next_step += 1


def bits(world):
    """A road's positions and speeds as exact hex floats, by slot."""
    return [(p.hex(), s.hex()) for p, s in zip(world.positions, world.speeds)]


class ProbeTrial:
    """A trial of the shared road's runner with no engine. ``events`` is a
    list of (time, blockages) in time order: at each time the probe notes
    the road as it stands, as (time, next step, :func:`bits`), then takes
    the blockage list given, if not None. It starts with the road's own
    blockages and ends after its last event."""

    def __init__(self, road, events):
        self.world = road.world
        self.blockages = list(road.world.blockages)
        self.events = list(events)
        self.notes = []
        road.join(self, road.world.fleet_size)

    def begin(self):
        return self.events[0][0]

    def run_before(self, limit):
        events = self.events
        while events and events[0][0] < limit:
            at, blockages = events.pop(0)
            self.notes.append((at, self.world.next_step, bits(self.world)))
            if blockages is not None:
                self.blockages = blockages
        return events[0][0] if events else math.inf


def oracle_notes(warm, events):
    """What a :class:`ProbeTrial` with ``events`` notes on a road of its own
    that starts as ``warm`` and takes the two-loop step."""
    world, notes = warm.copy(), []
    for at, blockages in events:
        oracle_advance(world, at)
        notes.append((at, world.next_step, bits(world)))
        if blockages is not None:
            world.blockages = list(blockages)
    return notes
