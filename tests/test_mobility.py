import math
import struct
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import examples
from road_oracle import bits, oracle_advance, oracle_step
from static_world import StaticWorld
from vanetim.mobility import (
    ACCEL,
    STANDSTILL_GAP,
    TARGET_SPEED,
    VEHICLE_LENGTH,
    CircularWorld,
)
from vanetim.protocol import SpeedHistory, detect_jam
from vanetim.roadlog import RoadLog

#: the default road: ``TrialSetup``'s route length and step
ROUTE_LENGTH = 4000.0
DT = 0.5


def make_world(fleet=1):
    return CircularWorld(ROUTE_LENGTH, fleet)


def spawn_all(world, until=500.0):
    t = 0.0
    while t <= until and world.spawned_count < world.fleet_size:
        world.inject_flow(t)
        world.step(DT)
        t += DT
    return t


def assert_no_overlap(world):
    positions = world.positions
    n = len(positions)
    if n < 2:
        return
    for slot, position in enumerate(positions):
        leader = (slot - 1) % n
        gap = world.arc_gap(position, positions[leader]) - VEHICLE_LENGTH
        if gap < STANDSTILL_GAP - 1e-9:
            raise AssertionError(
                f"gap violation: slot {slot} at {gap:.3f} m behind slot {leader}"
            )


def place(world, arcs):
    for slot, arc in enumerate(arcs):
        world.positions[slot] = arc % world.route_length


class TestFreeFlow:
    def test_single_vehicle_ramps_to_target(self):
        world = make_world(1)
        world.inject_flow(0.0)
        speeds = []
        for _ in range(10):
            world.step(1.0)
            speeds.append(world.speeds[0])
        # accelerates 2 m/s^2 up to the 13 m/s target, then holds
        assert speeds[:6] == [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
        assert all(s == 13.0 for s in speeds[7:])


class TestCarFollowing:
    def test_follower_stops_behind_stopped_leader(self):
        world = make_world(2)
        world.inject_flow(0.0)
        leader, follower = 0, 1
        world.positions[leader] = 100.0
        world.speeds[leader] = 0.0
        world.add_blockage(102.0)  # parked: it must not pull away
        world.inject_flow(10.0)
        world.positions[follower] = 90.0  # 10 m behind a stopped leader
        for _ in range(100):
            world.step(0.5)
            assert_no_overlap(world)
        assert world.positions[leader] == 100.0
        assert world.speeds[follower] == 0.0
        gap = world.arc_gap(world.positions[follower], world.positions[leader])
        assert gap - VEHICLE_LENGTH >= STANDSTILL_GAP - 1e-9

    def test_no_overlap_through_a_long_run(self):
        world = make_world(30)
        world.add_blockage(900.0)
        t = 0.0
        while t < 300.0:
            world.inject_flow(t)
            world.step(0.5)
            assert_no_overlap(world)  # raises on any gap violation
            t += 0.5

    def test_blockage_stops_the_column(self):
        world = make_world(5)
        world.add_blockage(200.0)
        spawn_all(world)
        for _ in range(400):
            world.step(0.5)
        assert world.speeds[0] == 0.0
        assert world.arc_gap(world.positions[0], 200.0) >= STANDSTILL_GAP - 1e-9

    def test_step_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            make_world(1).step(0.0)


def arcs_on(length, move):
    """Arcs in ``[0, length)``, as the step keeps every position."""
    exact = [0.0, 6.5, 13.0, length / 2, length - 6.5, length - move]
    return st.one_of(
        st.floats(0.0, length, exclude_max=True),
        st.floats(0.0, min(120.0, length), exclude_max=True),  # a crowded stretch
        # within one move of the wrap point: the new position wraps
        st.floats(max(0.0, length - move), length, exclude_max=True),
        st.sampled_from([a for a in exact if 0.0 <= a < length]),  # exact and zero gaps
    )


@st.composite
def rings(draw):
    """A world in any state the step can meet: unordered, crowded, stopped,
    exactly one acceleration step below the target speed, on a short route
    near its capacity, or within one move of the wrap point."""
    dt = draw(st.one_of(st.sampled_from([0.5, 0.25, 1.0]), st.floats(0.05, 1.0)))
    n = draw(st.integers(1, 40))
    footprint = VEHICLE_LENGTH + STANDSTILL_GAP
    length = draw(st.one_of(
        st.just(ROUTE_LENGTH),
        # from a ring the fleet exactly fills to half as much again
        st.floats(1.0, 1.5).map(lambda slack: n * footprint * slack),
    ))
    arcs = arcs_on(length, TARGET_SPEED * dt)
    edge = TARGET_SPEED - ACCEL * dt
    speed = st.one_of(
        st.floats(0.0, TARGET_SPEED, allow_nan=False),
        st.sampled_from([0.0, edge, TARGET_SPEED]),
    )
    states = draw(st.lists(st.tuples(arcs, speed), min_size=n, max_size=n))
    blockages = draw(st.lists(arcs, max_size=3))
    return length, dt, states, blockages


def nudge(arc, steps):
    """``arc`` moved by ``steps`` ulps, up or down."""
    for _ in range(abs(steps)):
        arc = math.nextafter(arc, math.copysign(math.inf, steps))
    return arc


@st.composite
def cruising_rings(draw):
    """A fleet all at the target speed whose clear gaps, to the leader or to
    a blockage, lie a few ulps either side of the step's branch points: the
    standstill gap, one target-speed move past it (where the cap equals the
    target) and the cruising threshold a margin beyond, or between them."""
    dt = draw(st.one_of(st.sampled_from([0.5, 0.25, 1.0]), st.floats(0.05, 1.0)))
    length = draw(st.one_of(
        st.just(ROUTE_LENGTH), st.floats(200.0, 4000.0)
    ))
    move = TARGET_SPEED * dt
    points = [STANDSTILL_GAP, STANDSTILL_GAP + move, STANDSTILL_GAP + move + 1.0]
    gaps = st.one_of(
        st.sampled_from(points),
        st.floats(STANDSTILL_GAP - 1.0, STANDSTILL_GAP + move + 2.0),
    )
    ulps = st.integers(-4, 4)
    n = draw(st.integers(1, 30))
    arcs = [draw(st.floats(0.0, length, exclude_max=True))]
    for _ in range(n - 1):
        arc = arcs[-1] - VEHICLE_LENGTH - draw(gaps)
        if arc < 0.0:
            arc += length
        arcs.append(nudge(arc, draw(ulps)))
    blockages = []
    for _ in range(draw(st.integers(0, 2))):
        arc = arcs[draw(st.integers(0, n - 1))] + draw(gaps)
        if arc >= length:
            arc -= length
        blockages.append(nudge(arc, draw(ulps)))
    assume(all(0.0 <= arc < length for arc in arcs + blockages))
    return length, dt, [(arc, TARGET_SPEED) for arc in arcs], blockages


def build_ring(ring):
    """The world of a ``(route length, dt, states, blockages)`` ring."""
    length, _, states, blockages = ring
    world = CircularWorld(length, len(states))
    for arc, speed in states:
        world.positions.append(arc)
        world.speeds.append(speed)
    for arc in blockages:
        world.add_blockage(arc)
    return world


def assert_steps_like_the_oracle(ring, steps):
    dt = ring[1]
    fused, oracle = build_ring(ring), build_ring(ring)
    for _ in range(steps):
        fused.step(dt)
        oracle_step(oracle, dt)
        assert bits(fused) == bits(oracle)
    return fused


@pytest.mark.floats
class TestStepExactness:
    @settings(max_examples=examples(200), deadline=None)
    @given(ring=rings())
    def test_one_pass_step_equals_two_loop_step(self, ring):
        assert_steps_like_the_oracle(ring, 3)

    @settings(max_examples=examples(200), deadline=None)
    @given(ring=cruising_rings())
    def test_cruising_and_standing_fleets_match_the_two_loop_step(self, ring):
        assert_steps_like_the_oracle(ring, 3)

    def test_blocked_fleet_of_139_in_lockstep_with_the_two_loop_step(self):
        # a bare world at 139 spawns followers exactly 13 m behind their
        # leaders, a clear gap on which the cap equals the target speed
        fused, oracle = make_world(139), make_world(139)
        exact = 0
        for i in range(1800):
            now = i * DT
            for world in (fused, oracle):
                if now == 550.0:
                    world.add_blockage(2000.0)
                elif now == 850.0:
                    world.clear_blockages()
                world.inject_flow(now)
            positions = oracle.positions
            exact += sum(
                positions[slot - 1] - position == 13.0
                and oracle.speeds[slot] == TARGET_SPEED
                for slot, position in enumerate(positions)
            )
            fused.step(DT)
            oracle_step(oracle, DT)
            assert bits(fused) == bits(oracle), f"step {i}"
        assert exact > 0, "no follower cruised exactly 13 m behind its leader"

    def test_edge_speed_reaches_target_exactly(self):
        edge = TARGET_SPEED - ACCEL * DT
        assert edge + ACCEL * DT == TARGET_SPEED
        world = build_ring((ROUTE_LENGTH, DT, [(0.0, edge)], []))
        world.step(DT)
        assert world.speeds[0] == TARGET_SPEED

    def test_move_onto_the_wrap_point_gives_plus_zero(self):
        start = ROUTE_LENGTH - TARGET_SPEED * DT
        assert start + TARGET_SPEED * DT == ROUTE_LENGTH
        world = build_ring((ROUTE_LENGTH, DT, [(start, TARGET_SPEED)], []))
        world.step(DT)
        # +0.0, as (start + move) % route_length gives, never -0.0 or 4000.0
        assert world.positions[0].hex() == "0x0.0p+0"

    def test_leader_across_the_wrap_point_caps_the_follower(self):
        # slot 1 follows slot 0, which sits 9 m ahead, past the wrap point
        ring = (ROUTE_LENGTH, DT, [(1.0, 0.0), (3992.0, TARGET_SPEED)], [])
        fused = assert_steps_like_the_oracle(ring, 1)
        # (9 m - car length - standstill gap) / dt
        assert fused.speeds[1] == (9.0 - VEHICLE_LENGTH - STANDSTILL_GAP) / DT


class TestAdvance:
    def test_advance_takes_the_ticks_steps(self):
        # the reference takes one step at a time: spawn at i * dt, then the
        # two-loop step
        ticked = make_world(19)
        oracle_advance(ticked, 550.0, DT)
        advanced = make_world(19)
        advanced.advance(100.0, DT)
        assert advanced.next_step == 201
        advanced.advance(550.0, DT)
        assert advanced.next_step == ticked.next_step == 1101
        assert bits(advanced) == bits(ticked)
        assert advanced.next_spawn_time == ticked.next_spawn_time

    def test_advance_to_a_past_time_takes_no_step(self):
        world = make_world(3)
        world.advance(10.0, DT)
        before = bits(world)
        world.advance(5.0, DT)
        assert world.next_step == 21
        assert bits(world) == before

    def test_copy_is_independent(self):
        world = make_world(5)
        world.add_blockage(900.0)
        world.advance(60.0, DT)
        twin = world.copy()
        assert bits(twin) == bits(world)
        assert (twin.next_step, twin.next_spawn_time, twin.blockages) == (
            world.next_step, world.next_spawn_time, world.blockages
        )
        before = (bits(world), list(world.blockages), world.next_step)
        twin.advance(120.0, DT)
        twin.blockages.clear()
        assert (bits(world), world.blockages, world.next_step) == before


@st.composite
def gliding_rings(draw):
    """A spawned fleet at the target speed on clear road, with its route,
    ``dt``, spacing and positions on the 0.5 m grid; or the same with one
    flaw: a move off the grid, a route off it, spacings anywhere from a car
    length and the standstill gap up, spacings at the glide's threshold a
    few ulps either side, one position off the grid, one vehicle below the
    target speed, or a blockage. Returns the ring, the first step and the
    time to advance to."""
    flaw = draw(st.sampled_from([
        None, None, None, "dt", "length", "spacing", "threshold", "position",
        "speed", "blockage",
    ]))
    dt = draw(st.sampled_from([0.5, 0.25]))
    if flaw == "dt":
        dt = draw(st.one_of(st.just(0.1), st.floats(0.05, 1.0)))
    length = draw(st.one_of(
        st.just(ROUTE_LENGTH), st.integers(100, 4000).map(float)
    ))
    if flaw == "length":
        length = draw(st.floats(100.0, 4000.0))
    n = draw(st.integers(0, 12))
    move = TARGET_SPEED * dt
    # from the front of a leader to the front of its follower
    threshold = VEHICLE_LENGTH + STANDSTILL_GAP + move
    roomy = max(threshold, length / max(n, 1))
    least = math.ceil(2 * threshold)
    spacings = st.integers(least, max(least, math.floor(2 * roomy))).map(lambda h: h / 2)
    ulps = st.just(0)
    if flaw == "spacing":
        spacings = st.floats(VEHICLE_LENGTH + STANDSTILL_GAP, roomy)
    elif flaw == "threshold":
        spacings, ulps = st.just(threshold), st.integers(-4, 4)
    arcs = [draw(st.integers(0, 2 * int(length) - 1)) / 2] if n else []
    for _ in range(n - 1):
        arc = arcs[-1] - draw(spacings)
        if arc < 0.0:
            arc += length
        arcs.append(nudge(arc, draw(ulps)))
    speeds = [TARGET_SPEED] * n
    blockages = []
    if n and flaw == "position":
        slot = draw(st.integers(0, n - 1))
        arcs[slot] = nudge(arcs[slot], draw(st.integers(-4, 4)))
    elif n and flaw == "speed":
        speeds[draw(st.integers(0, n - 1))] = draw(st.one_of(
            st.sampled_from([0.0, TARGET_SPEED - ACCEL * dt]),
            st.floats(0.0, TARGET_SPEED),
        ))
    elif flaw == "blockage":
        blockages.append(draw(st.floats(0.0, length, exclude_max=True)))
    assume(all(0.0 <= arc < length for arc in arcs))
    first = draw(st.integers(0, 2000))
    due = draw(st.one_of(st.integers(0, 3), st.integers(0, 3000)))
    until = (first + due) * dt - draw(st.floats(0.0, dt, exclude_max=True))
    return (length, dt, list(zip(arcs, speeds)), blockages), first, until


def count_steps(monkeypatch):
    """The ``step`` calls every world makes from here on, as a list."""
    calls = []
    step = CircularWorld.step

    def counted(world, dt):
        calls.append(world.next_step)
        return step(world, dt)

    monkeypatch.setattr(CircularWorld, "step", counted)
    return calls


# changes to TestGlide.fleet, each of which stops its glide

def off_grid(ring):
    states = ring[2]
    states[5] = (math.nextafter(states[5][0], 0.0), TARGET_SPEED)
    return ring


def slower(ring):
    _, dt, states, _ = ring
    states[5] = (states[5][0], TARGET_SPEED - ACCEL * dt)
    return ring


def close(ring):
    # 8 m clear behind slot 4: less than one target-speed move and the
    # standstill gap, so the step caps the speed below the target
    states = ring[2]
    states[5] = (states[4][0] - VEHICLE_LENGTH - 8.0, TARGET_SPEED)
    return ring


def tailgating(ring):
    states = ring[2]
    states[5] = (states[4][0] - VEHICLE_LENGTH - 3.0, TARGET_SPEED)
    return ring


def blocked(ring):
    ring[3].append(100.0)
    return ring


@pytest.mark.floats
class TestGlide:
    @settings(max_examples=examples(200), deadline=None)
    @given(case=gliding_rings())
    def test_advance_equals_stepping_one_step_at_a_time(self, case):
        ring, first, until = case
        dt = ring[1]
        glided, oracle = build_ring(ring), build_ring(ring)
        for world in (glided, oracle):
            world.next_step = first
        glided.advance(until, dt)
        oracle_advance(oracle, until, dt)
        assert glided.next_step == oracle.next_step
        assert bits(glided) == bits(oracle)

    def test_a_bare_fleet_glides_once_it_cruises(self, monkeypatch):
        glided, oracle = make_world(19), make_world(19)
        calls = count_steps(monkeypatch)
        glided.advance(1500.0, DT)
        # 3001 steps are due; the fleet spawns by about 40 s and reaches the
        # target speed a few seconds later
        assert len(calls) < 200
        oracle_advance(oracle, 1500.0, DT)
        assert glided.next_step == oracle.next_step == 3001
        assert bits(glided) == bits(oracle)
        assert glided.next_spawn_time == oracle.next_spawn_time

    @staticmethod
    def fleet(dt=DT):
        """19 vehicles 200 m apart at the target speed: a gliding fleet."""
        states = [(3900.0 - 200.0 * slot, TARGET_SPEED) for slot in range(19)]
        return ROUTE_LENGTH, dt, states, []

    def test_the_fleet_glides(self, monkeypatch):
        ring = self.fleet()
        glided, oracle = build_ring(ring), build_ring(ring)
        calls = count_steps(monkeypatch)
        glided.advance(300.0, DT)
        assert calls == []
        oracle_advance(oracle, 300.0, DT)
        assert glided.next_step == 601
        assert bits(glided) == bits(oracle)

    # a fleet off the grid or blocked never glides; a slower or closer
    # vehicle stops a glide only until it recovers, so that fleet is
    # advanced over two due steps, the fewest a glide takes
    @pytest.mark.parametrize("change, dt, until", [
        (off_grid, DT, 50.0),
        (lambda ring: ring, 0.1, 50.0),
        (blocked, DT, 50.0),
        (slower, DT, DT),
        (close, DT, DT),
        (tailgating, DT, DT),
    ], ids=["off-grid", "dt-0.1", "blocked", "slower", "close", "tailgating"])
    def test_a_fleet_that_does_not_glide_takes_every_step(
        self, monkeypatch, change, dt, until
    ):
        ring = change(self.fleet(dt))
        stepped, oracle = build_ring(ring), build_ring(ring)
        calls = count_steps(monkeypatch)
        stepped.advance(until, dt)
        oracle_advance(oracle, until, dt)
        assert len(calls) == stepped.next_step == oracle.next_step
        assert bits(stepped) == bits(oracle)

    def test_a_fleet_at_the_exact_cap_glides(self, monkeypatch):
        # 13.0 m from front to front leaves 8.5 m clear: one move and the
        # standstill gap, so the step's cap is exactly the target speed and
        # the step takes the car-following arithmetic, moving each vehicle
        # as a cruise would
        gap = VEHICLE_LENGTH + STANDSTILL_GAP + TARGET_SPEED * DT
        assert gap == 13.0
        states = [(3900.0 - gap * slot, TARGET_SPEED) for slot in range(19)]
        ring = (ROUTE_LENGTH, DT, states, [])
        glided, oracle = build_ring(ring), build_ring(ring)
        calls = count_steps(monkeypatch)
        glided.advance(300.0, DT)
        assert calls == []
        oracle_advance(oracle, 300.0, DT)
        assert glided.next_step == 601
        assert bits(glided) == bits(oracle)

    def test_a_bare_warm_up_of_139_ends_on_the_two_loop_steps_bits(self, monkeypatch):
        # the fleet of 139 glides with followers exactly 13 m behind their
        # leaders, where the spawn-wrap overlap leaves them
        glided, oracle = make_world(139), make_world(139)
        calls = count_steps(monkeypatch)
        glided.advance(550.0, DT)
        oracle_advance(oracle, 550.0, DT)
        assert glided.next_step == oracle.next_step == 1101
        assert len(calls) < 1101 - 300
        n = oracle.fleet_size
        for attribute in ("positions", "speeds"):
            assert struct.pack(f"{n}d", *getattr(glided, attribute)) == struct.pack(
                f"{n}d", *getattr(oracle, attribute)
            ), attribute

    def test_a_glide_onto_the_wrap_point_gives_plus_zero(self, monkeypatch):
        start = ROUTE_LENGTH - 2 * TARGET_SPEED * DT
        world = build_ring((ROUTE_LENGTH, DT, [(start, TARGET_SPEED)], []))
        calls = count_steps(monkeypatch)
        world.advance(DT, DT)
        assert calls == [] and world.next_step == 2
        # +0.0, as two steps give, never route_length
        assert world.positions[0].hex() == "0x0.0p+0"

    def test_an_empty_fleet_counts_its_steps(self):
        world = CircularWorld(4000.0, 0)
        world.advance(1500.0, DT)
        assert world.next_step == 3001 and world.positions == []


class TestBareRoads:
    """A bare road stepped from 0 s as a trial steps it, through spawning, a
    glide once its fleet cruises on the grid, a blockage parked at a vehicle
    at the report and its clearance, checked against the two-loop step at
    each event time: every time the step keeps its state for changes."""

    @pytest.mark.parametrize("dt", [DT, 0.1])
    @pytest.mark.parametrize("fleet", [1, 2, 19, 79, 139])
    def test_steps_like_the_two_loop_step(self, monkeypatch, fleet, dt):
        world, oracle = make_world(fleet), make_world(fleet)
        calls = count_steps(monkeypatch)
        # events between steps, and the report and the clearance
        times = sorted({round(7.3 * k, 1) for k in range(1, 110)} | {550.0, 650.0})
        for until in times:
            world.advance(until, dt)
            oracle_advance(oracle, until, dt)
            assert world.next_step == oracle.next_step
            assert bits(world) == bits(oracle), f"at {until} s"
            if until == 550.0:
                # at a vehicle's position, as a report parks its reporter
                for road in (world, oracle):
                    road.add_blockage(oracle.positions[fleet // 2])
            elif until == 650.0:
                for road in (world, oracle):
                    road.clear_blockages()
        assert world.spawned_count == fleet
        if dt == DT:
            assert len(calls) < world.next_step, "no step glided"


#: bare roads stepped from 0 s, by (fleet, dt, time), each stepped once
_BARE_ROADS = {}


def bare_road(fleet, dt, until):
    """``CircularWorld(ROUTE_LENGTH, fleet)`` advanced to ``until``; shared,
    so never to be stepped."""
    key = (fleet, dt, until)
    if key not in _BARE_ROADS:
        world = make_world(fleet)
        world.advance(until, dt)
        _BARE_ROADS[key] = world
    return _BARE_ROADS[key]


@st.composite
def straddling_rings(draw):
    """A few vehicles at the target speed on a route of 2**52 m or more,
    one behind the other with clear gaps from the cruising threshold up,
    about the point 2**52 where the spacing of floats doubles. The move is
    off the grid: a vehicle behind that point can move by a float up to half
    a metre longer than one ahead of it, so a gap shrinks while the two
    straddle it."""
    dt = draw(st.one_of(st.just(0.1), st.floats(0.05, 1.0)))
    length = draw(st.floats(2.0**52 + 1e6, 2.0**53, exclude_max=True))
    threshold = STANDSTILL_GAP + TARGET_SPEED * dt + 1.0
    arcs = [2.0**52 + draw(st.floats(0.0, 30.0))]
    for _ in range(draw(st.integers(1, 5))):
        gap = draw(st.floats(threshold, threshold + 4.0))
        arcs.append(arcs[-1] - VEHICLE_LENGTH - gap)
    return length, dt, [(arc, TARGET_SPEED) for arc in arcs], []


@st.composite
def logged_roads(draw):
    """A warm road to record a log from, its ``dt``, and a history: the
    steps to record, the step at which a blockage is added at a vehicle or
    at any arc, the step from which the blockages are cleared, and the steps
    at which a trial stops extending the log. The road is a drawn ring
    (unordered, crowded, near the step's branch points, or straddling a
    doubling of the float spacing) or a bare road of the default route
    stepped from 0 s until its whole fleet has spawned, or on to the report,
    with ``dt`` on the grid or off it; the 139-vehicle warm road overlaps at
    the spawn wrap."""
    source = draw(st.sampled_from(["ring", "cruising", "straddling", "bare", "bare"]))
    if source == "bare":
        dt = draw(st.sampled_from([DT, DT, 0.1]))
        fleet = draw(st.sampled_from([1, 2, 19, 79, 139]))
        # a log records only a road that has spawned its whole fleet
        warm = bare_road(fleet, dt, draw(st.sampled_from([
            until for until in (15.0, 100.0, 550.0)
            if bare_road(fleet, dt, until).spawned_count == fleet
        ])))
    else:
        strategy = {"ring": rings, "cruising": cruising_rings,
                    "straddling": straddling_rings}[source]
        ring = draw(strategy())
        warm, dt = build_ring(ring), ring[1]
    steps = draw(st.one_of(st.just(300), st.integers(1, 300)))
    added = draw(st.integers(0, steps))
    cleared = draw(st.integers(added, steps))
    at = draw(st.one_of(
        st.floats(0.0, warm.route_length, exclude_max=True),
        st.integers(0, max(warm.fleet_size - 1, 0)),
    ))
    cuts = draw(st.sets(st.integers(1, steps), max_size=4))
    return warm, dt, steps, added, cleared, at, sorted(cuts | {steps})


@pytest.mark.floats
class TestRoadLog:
    @settings(max_examples=examples(200), deadline=None)
    @given(case=logged_roads())
    def test_records_the_rows_of_a_world_stepped_by_step(self, case):
        warm, dt, steps, added, cleared, at, cuts = case
        # the reference: the two-loop step, step by step, as advance on a
        # spawned fleet
        world, history, rows, speeds = warm.copy(), [], [], []
        for i in range(steps):
            if i == added:
                # at a vehicle's position, as a report parks its reporter
                if isinstance(at, int):
                    at = world.positions[at] if at < world.spawned_count else 0.0
                world.add_blockage(at)
            if i == cleared:
                world.clear_blockages()
            history.append(list(world.blockages))
            oracle_step(world, dt)
            world.next_step += 1
            rows.append(array("d", world.positions).tobytes())
            speeds.append(array("d", world.speeds).tobytes())
        log = RoadLog(warm, dt)
        taken = 0
        for cut in cuts:
            # a trial extends the log up to a step under its own blockages
            while taken < cut:
                end = taken + 1
                while end < cut and history[end] == history[taken]:
                    end += 1
                log.extend((log.start + end - 1) * dt, history[taken])
                taken = end
        assert len(log.rows) == steps
        for i, row in enumerate(log.rows):
            assert row.tobytes() == rows[i], f"step {i}"
        assert log.blockages == history
        # the warm speeds plus each step's recorded changes are the stepped
        # world's speeds, bit for bit: no change is lost, a signed zero's
        # included
        read, ends = array("d", warm.speeds), log.speed_ends
        assert len(ends) == steps + 1
        for i in range(steps):
            for j in range(ends[i], ends[i + 1]):
                read[log.speed_slots[j]] = log.speed_values[j]
            assert read.tobytes() == speeds[i], f"step {i}"
        assert bits(log._frontier) == bits(world)

    @pytest.mark.parametrize("fleet, until", [
        (19, 0.0), (19, 15.0), (139, 100.0), (220, 550.0),
    ])
    def test_refuses_a_road_still_spawning(self, fleet, until):
        warm = bare_road(fleet, DT, until)
        assert warm.spawned_count < fleet
        with pytest.raises(ValueError, match=(
            f"a warm road with {warm.spawned_count} of {fleet} vehicles spawned "
            "cannot be recorded"
        )):
            RoadLog(warm, DT)


def oracle_entry_clear(world):
    """The entry check as a scan of every vehicle's gaps to the entry point."""
    required = VEHICLE_LENGTH + STANDSTILL_GAP
    for position in world.positions:
        ahead = world.arc_gap(0.0, position)
        if ahead < required or world.route_length - ahead < required:
            return False
    return True


@pytest.mark.floats
class TestInjectFlow:
    @settings(max_examples=examples(200), deadline=None)
    @given(data=st.data())
    def test_entry_check_matches_a_scan_of_every_vehicle(self, data):
        length = data.draw(st.one_of(
            st.just(ROUTE_LENGTH), st.floats(20.0, 4000.0)
        ))
        required = VEHICLE_LENGTH + STANDSTILL_GAP
        arcs = st.one_of(
            st.floats(0.0, length, exclude_max=True),
            # within the entry's reach ahead of it and behind it
            st.floats(0.0, required),
            st.floats(length - required, length, exclude_max=True),
            st.sampled_from([0.0, required, length - required]),
        )
        parked = data.draw(st.lists(arcs, max_size=8))
        world = CircularWorld(length, len(parked) + 1)
        world.positions.extend(parked)
        world.speeds.extend([0.0] * len(parked))
        clear = oracle_entry_clear(world)
        world.inject_flow(0.0)
        assert world.spawned_count == len(parked) + clear


    def test_fleet_enters_well_before_warmup(self):
        world = make_world(19)
        finished = spawn_all(world)
        assert world.spawned_count == 19
        # 2 s headway gives 38 s of scheduled spawns; the entry-clear check
        # defers a few early spawns while the first vehicles pull away, so
        # allow a small margin — still two orders below the 500 s warm-up
        assert finished <= 46.0

    def test_blocked_entry_defers_spawn(self):
        self.check_entry_blocked_by(1.0)  # parked just ahead of the entry point

    def test_entry_blocked_from_behind_across_the_wrap(self):
        # 2 m behind the entry point: within VEHICLE_LENGTH + STANDSTILL_GAP
        self.check_entry_blocked_by(3998.0)

    @staticmethod
    def check_entry_blocked_by(parked):
        world = make_world(2)
        world.inject_flow(0.0)
        world.positions[0] = parked
        world.speeds[0] = 0.0
        world.inject_flow(10.0)
        assert world.spawned_count == 1  # second spawn deferred
        world.positions[0] = 500.0
        world.inject_flow(10.5)
        assert world.spawned_count == 2

    def test_complete_fleet_is_noop(self):
        world = make_world(1)
        world.inject_flow(0.0)
        world.inject_flow(100.0)
        assert world.spawned_count == 1


def linear_neighbours(world, center, radius):
    """The neighbour query as one pass over every entity, with the window and
    the float bounds of :meth:`CircularWorld.neighbours_within`: the oracle
    for its arc index."""
    length = world.route_length
    center_arc = world.arc_of(center)
    if radius < 2 * world._radius():
        window = world.chord_for_radius(radius)
    else:
        window = length
    low, high = center_arc - window, center_arc + window
    found = [
        slot
        for pairs in (enumerate(world.positions), world.rsus)
        for slot, arc in pairs
        if low <= arc <= high
        or (low < 0.0 and arc >= low + length)
        or (high >= length and arc <= high - length)
    ]
    found.remove(center)
    return found


def point_of_arc(world, arc):
    """The point in the plane of an arc of ``world``'s loop, centred on the
    origin: the Euclidean oracle's geometry."""
    theta = 2 * math.pi * (arc % world.route_length) / world.route_length
    r = world._radius()
    return (r * math.cos(theta), r * math.sin(theta))


#: metres either side of the radio range within which a ``math.dist`` of two
#: points of the loop may round to the other side of the range
EUCLID_TOLERANCE = 1e-6


def assert_euclidean(world, center, radius, found):
    """``found`` holds every other entity that a ``math.dist`` scan of the
    loop's points puts within ``radius`` of ``center`` and none that it puts
    beyond, save those within ``EUCLID_TOLERANCE`` of the radius; each once,
    in slot order."""
    assert found == sorted(set(found))
    origin = point_of_arc(world, world.arc_of(center))
    for entity in world.entities():
        distance = math.dist(point_of_arc(world, world.arc_of(entity)), origin)
        if entity == center or abs(distance - radius) <= EUCLID_TOLERANCE:
            continue
        assert (entity in found) == (distance < radius), (entity, distance)


@st.composite
def neighbour_roads(draw):
    """A road to query and a radius. The route is 4 000 m or any other; the
    fleet is wholly or partly spawned, in no order, at arcs anywhere, in a
    crowded stretch, within 5 m of either side of the wrap point, on an RSU
    or on an earlier vehicle's arc. The radius runs from 1 m or less to
    three times the route, past the loop's diameter."""
    length = draw(st.one_of(st.just(ROUTE_LENGTH), st.floats(123.25, 40000.0)))
    fleet = draw(st.integers(1, 30))
    world = CircularWorld(length, fleet)
    arc = st.one_of(
        st.floats(0.0, length, exclude_max=True),
        st.floats(0.0, 120.0),
        st.floats(0.0, 5.0),
        st.floats(length - 5.0, length, exclude_max=True),
        st.sampled_from([arc for _, arc in world.rsus]),
    )
    arcs = []
    for _ in range(draw(st.integers(0, fleet))):
        if arcs and draw(st.booleans()):
            arcs.append(draw(st.sampled_from(arcs)))
        else:
            arcs.append(draw(arc))
    world.positions = arcs
    world.speeds = [0.0] * len(arcs)
    radius = draw(st.one_of(
        st.floats(0.01, 1.0),
        st.just(300.0),
        st.floats(1.0, length),
        st.floats(length / 2, 3 * length),
    ))
    return world, radius


def answers(world, radii=(3.0, 300.0)):
    """Every entity's neighbours at each radius, by the query and by the
    linear oracle."""
    keys = [(center, radius) for center in world.entities() for radius in radii]
    return (
        {key: world.neighbours_within(*key) for key in keys},
        {key: linear_neighbours(world, *key) for key in keys},
    )


@pytest.mark.floats
class TestNeighbours:
    def line(self, spacing, count):
        return StaticWorld(
            {i: (i * spacing, 0.0) for i in range(count)}
        )

    def test_in_range_pair(self):
        world = self.line(200.0, 2)
        a, b = world.entities()
        assert world.neighbours_within(a, 300.0) == [b]
        assert world.neighbours_within(b, 300.0) == [a]

    def test_out_of_range_boundary(self):
        world = self.line(301.0, 2)
        a, b = world.entities()
        assert world.neighbours_within(a, 300.0) == []

    def test_line_of_five_query_middle(self):
        world = self.line(200.0, 5)
        middle = 2
        found = set(world.neighbours_within(middle, 300.0))
        # brute-force pairwise oracle
        oracle = {
            e
            for e in world.entities()
            if e != middle
            and math.dist(world.position_of(e), world.position_of(middle)) <= 300.0
        }
        assert found == oracle
        assert len(found) == 2

    def test_radius_must_be_positive(self):
        world = self.line(100.0, 2)
        with pytest.raises(ValueError):
            world.neighbours_within(world.entities()[0], 0.0)

    @settings(max_examples=examples(25), deadline=None)
    @given(
        arcs=st.lists(
            st.floats(0, 3999.9, allow_nan=False), min_size=2, max_size=12, unique=True
        ),
        radius=st.floats(1.0, 3000.0, allow_nan=False),
    )
    def test_circular_world_matches_brute_force(self, arcs, radius):
        world = make_world(len(arcs))
        spawn_all(world)
        # list order need not be ring order
        place(world, arcs)
        for center in world.entities():
            assert_euclidean(
                world, center, radius, world.neighbours_within(center, radius)
            )

    @settings(max_examples=examples(100), deadline=None)
    @given(road=neighbour_roads())
    def test_indexed_query_equals_the_linear_one(self, road):
        world, radius = road
        for center in world.entities():
            assert world.neighbours_within(center, radius) == linear_neighbours(
                world, center, radius
            )

    @settings(max_examples=examples(100), deadline=None)
    @given(road=neighbour_roads())
    def test_query_agrees_with_euclid_off_the_range(self, road):
        world, radius = road
        for center in world.entities():
            assert_euclidean(
                world, center, radius, world.neighbours_within(center, radius)
            )

    def test_a_second_query_at_a_step_reuses_the_index(self):
        world = make_world(19)
        world.advance(300.0, DT)
        world.neighbours_within(0, 300.0)
        index = world._index
        world.neighbours_within(7, 300.0)
        world.neighbours_within(world.rsus[3][0], 120.0)
        assert world._index is index

    @staticmethod
    def step(world, monkeypatch):
        world.step(DT)

    @staticmethod
    def glide(world, monkeypatch):
        calls = count_steps(monkeypatch)
        world.advance(300.0, DT)
        assert calls == []

    @staticmethod
    def read_the_log(cursor, monkeypatch):
        cursor.advance(160.0, DT)
        assert cursor.log is not None

    @staticmethod
    def spawn(world, monkeypatch):
        world.inject_flow(5.0)
        assert world.spawned_count == 2

    @staticmethod
    def assign(world, monkeypatch):
        # a new list at the same step, as a test may assign one
        world.positions = [403.5]

    @pytest.mark.parametrize(
        "writer", ["step", "glide", "read_the_log", "spawn", "assign"]
    )
    def test_the_index_follows_every_writer(self, writer, monkeypatch):
        if writer in ("step", "assign"):
            # a lone cruiser 3 m short of RSU1, 3.5 m past it a step later
            world = build_ring((ROUTE_LENGTH, DT, [(397.0, TARGET_SPEED)], []))
        elif writer == "glide":
            world = build_ring(TestGlide.fleet())
        elif writer == "read_the_log":
            world = RoadLog(bare_road(19, DT, 100.0), DT).cursor()
        else:
            world = make_world(2)
            world.inject_flow(0.0)
            for _ in range(10):
                world.step(DT)
        stale, _ = answers(world)
        getattr(self, writer)(world, monkeypatch)
        found, oracle = answers(world)
        assert found == oracle
        assert found != stale

    def test_each_radius_gets_its_own_arcs(self):
        world = make_world(8)
        spawn_all(world)
        place(world, [0.0, 100.0, 140.0, 160.0, 250.0, 310.0, 3850.0, 3700.0])
        answers = []
        for radius in (300.0, 150.0, 300.0):
            for center in world.entities():
                found = world.neighbours_within(center, radius)
                assert_euclidean(world, center, radius, found)
            answers.append(world.neighbours_within(0, radius))
        # the middle query reaches fewer: a window kept from 300 m would fail it
        assert answers[0] == answers[2] != answers[1]

    # 0.5 m up to a hair below the loop's diameter (about 1273.24 m); at 0.0
    # the window's near bound wraps, at 3999.5 its far one
    @pytest.mark.parametrize("radius", [0.5, 1.0, 300.0, 637.0, 1273.0, 1273.2])
    @pytest.mark.parametrize("center_arc", [0.0, 150.0, 3999.5])
    def test_vehicle_at_window_edge(self, radius, center_arc):
        world = make_world(5)
        spawn_all(world)
        length = world.route_length
        window = world.chord_for_radius(radius)
        # the window's bounds, each wrapped by one route length as the
        # query wraps it
        low, high = center_arc - window, center_arc + window
        low = low + length if low < 0.0 else low
        high = high - length if high >= length else high
        beyond = [math.nextafter(high, math.inf), math.nextafter(low, -math.inf)]
        place(world, [center_arc, high, low] + beyond)
        found = world.neighbours_within(0, radius)
        assert 1 in found and 2 in found
        assert 3 not in found and 4 not in found
        assert found == linear_neighbours(world, 0, radius)

    @pytest.mark.parametrize("times", [1, 3])
    def test_a_diameter_reaches_the_slot_opposite(self, times):
        # on a 272 m loop the arc of a chord as long as the diameter,
        # 2R asin(1), rounds below the half route from RSU7 to RSU2
        world = CircularWorld(272.0, 2)
        world.positions, world.speeds = [10.0, 200.0], [0.0, 0.0]
        (rsu2, opposite), (rsu7, center_arc) = world.rsus[2], world.rsus[7]
        assert center_arc - opposite == world.route_length / 2
        radius = times * 2 * world._radius()
        found = world.neighbours_within(rsu7, radius)
        assert rsu2 in found
        assert found == [slot for slot in world.entities() if slot != rsu7]

    # vehicles on the wrap point, opposite it and just before it; radii a
    # hair below the diameter, the diameter and three routes
    @pytest.mark.parametrize("center", [0, 1, 2])
    @pytest.mark.parametrize("reach", ["below", "diameter", "beyond"])
    def test_no_slot_comes_back_twice(self, center, reach):
        world = make_world(3)
        length = world.route_length
        world.positions = [0.0, length / 2, math.nextafter(length, 0.0)]
        world.speeds = [0.0] * 3
        diameter = 2 * world._radius()
        radius = {
            "below": math.nextafter(diameter, 0.0),
            "diameter": diameter,
            "beyond": 3 * length,
        }[reach]
        found = world.neighbours_within(center, radius)
        assert len(found) == len(set(found))
        assert found == linear_neighbours(world, center, radius)


class TestDownstream:
    def test_ahead_and_behind(self):
        world = make_world(2)
        spawn_all(world)
        a, b = 1, 0
        world.positions[1] = 100.0
        world.positions[0] = 150.0  # b is 50 m ahead of a
        assert world.downstream_of(a, b)
        assert not world.downstream_of(b, a)

    def test_diametric_tie_is_false(self):
        world = make_world(2)
        spawn_all(world)
        world.positions[1] = 0.0
        world.positions[0] = 2000.0  # half of the 4000 m loop
        a, b = 1, 0
        # arc-length oracle: exactly half the loop is not "ahead"
        assert world.arc_gap(0.0, 2000.0) == world.route_length / 2
        assert not world.downstream_of(a, b)
        assert not world.downstream_of(b, a)

    def test_rsu_arguments_rejected(self):
        world = make_world(1)
        spawn_all(world)
        with pytest.raises(ValueError):
            world.downstream_of(0, world.rsus[0][0])


class TestGeometry:
    def test_chord_of_small_radius(self):
        world = make_world(1)
        radius = 300.0
        arc = world.chord_for_radius(radius)
        r = world.route_length / (2 * math.pi)
        assert arc == pytest.approx(2 * r * math.asin(radius / (2 * r)))
        assert arc > radius  # arcs are longer than their chords

    def test_chord_beyond_diameter_covers_half_loop(self):
        world = make_world(1)
        assert world.chord_for_radius(10_000.0) == pytest.approx(
            world.route_length / 2
        )

    def test_rsus_equally_spaced(self):
        world = make_world(1)
        arcs = [arc for _, arc in world.rsus]
        assert len(arcs) == 10
        gaps = {round(world.arc_gap(a, b), 6) for a, b in zip(arcs, arcs[1:])}
        assert gaps == {400.0}

    def test_rsu_slots_follow_the_fleet(self):
        world = make_world(3)
        spawn_all(world)
        assert world.entities() == [0, 1, 2] + [3 + i for i in range(10)]
        for i, (slot, arc) in enumerate(world.rsus):
            assert slot == 3 + i
            assert world.arc_of(slot) == arc == i * 400.0

    def test_unspawned_vehicle_slot_has_no_arc(self):
        world = make_world(3)
        world.inject_flow(0.0)
        assert world.arc_of(0) == world.positions[0]
        with pytest.raises(KeyError, match="slot 1"):
            world.arc_of(1)


class TestPlatoonJam:
    def test_tail_of_blocked_platoon_reports_jam(self, ids):
        """A 20-vehicle column stalls behind a blockage; the tail vehicle's
        speed history satisfies the jam detector once it has been stationary
        for more than 30 s with the queue ahead of it.

        Oracle for the firing window: the tail enters at ~38 s, needs at most
        ~900 m / 13 m/s ~ 70 s to reach the queue, a few seconds to brake,
        then 30 s of standstill, so the report must fire well before 300 s.
        """
        world = make_world(20)
        world.add_blockage(1000.0)
        history = SpeedHistory()
        tail = 19  # the last slot of the spawn queue
        t = 0.0
        fired_at = None
        while t < 300.0:
            world.inject_flow(t)
            world.step(0.5)
            t += 0.5
            if tail < world.spawned_count:
                history.record(t, world.speeds[tail])
                msg = detect_jam(history, world.queue_ahead(tail), t, ids=ids)
                if msg is not None:
                    fired_at = t
                    break
        assert fired_at is not None
        # cannot fire before entry + 30 s of standstill
        assert fired_at > 38.0 + 30.0
