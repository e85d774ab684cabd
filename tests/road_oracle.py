"""The car-following rule as two plain loops: the oracle of the road's step.

``oracle_step`` computes every new speed from the old state, then moves
every vehicle, with ``min``, ``max`` and ``%``, and keeps no state between
steps. ``CircularWorld.step`` computes a vehicle only when its inputs may
have changed, and ``advance`` glides a free-flowing fleet; the tests in
``tests/test_mobility.py`` and ``tests/test_netsim.py`` check both against
these loops bit for bit.
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
