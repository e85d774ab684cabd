"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import List, Tuple

import pytest
from hypothesis import settings

from trace_checks import trace_faults
from vanetim.domain import MessageIdSource
from vanetim.lockstep import SharedRoad
from vanetim.netsim import Engine, TraceRecord, TrialSetup, warm_world
from vanetim.protocol import Broadcast, RsuState, Wired, handle_rsu
from vanetim.relay import FRESH60, HOP4
from vanetim.scenarios import build_scenario

POLICIES = {"hop4": HOP4, "fresh60": FRESH60}

# engine slots of a ten-RSU backbone after a 20-vehicle fleet, then the TA
RSU0_SLOT, RSU1_SLOT, RSU9_SLOT, TA_SLOT = 20, 21, 29, 30

#: ``-m floats --hypothesis-profile floats`` runs the tests marked ``floats``,
#: the float-exactness properties (the mobility step and the glide of a
#: free-flowing fleet against the two-loop step, a shared road against the
#: two-loop step, the neighbour query and the entry check against
#: brute-force scans), at 2 000 examples each
settings.register_profile("floats", max_examples=2000)


def examples(tier1: int) -> int:
    """A property's example count: ``tier1``, unless the loaded profile asks
    for more examples than the default profile does."""
    loaded = settings.default.max_examples
    if loaded > settings.get_profile("default").max_examples:
        return max(tier1, loaded)
    return tier1


@pytest.fixture
def ids() -> MessageIdSource:
    """A fresh message-id source for one test."""
    return MessageIdSource()


def cell_setup(
    scenario: str, policy: str, vehicles: int, police: int = 0, **setup_kwargs
) -> TrialSetup:
    script = build_scenario(scenario)
    return TrialSetup(
        script=script,
        policy=POLICIES[policy],
        vehicles=vehicles,
        police=max(police, script.min_police),
        **setup_kwargs,
    )


def join_cell(
    scenario: str,
    policy: str,
    vehicles: int,
    seeds,
    police: int = 0,
    road=None,
    **setup_kwargs,
) -> Tuple[TrialSetup, List[Tuple[int, Engine]]]:
    """One trial of a (scenario, policy, density) cell per seed, each joined
    to ``road``, a ``SharedRoad``, if given. The trials of a road run in
    lockstep when the first of them runs, so every trial that is to share
    the road joins it before any runs. If not given, several seeds join one
    warm road, as a sweep's trials do, and a single seed joins a road of its
    own.

    Returns the cell's set-up and one (seed, engine) pair per trial.
    """
    setup = cell_setup(scenario, policy, vehicles, police, **setup_kwargs)
    if road is None and len(seeds) > 1:
        road = SharedRoad(warm_world(setup))
    return setup, [(seed, Engine(setup, seed, road)) for seed in seeds]


def run_joined(
    setup: TrialSetup, trials: List[Tuple[int, Engine]]
) -> List[Tuple[int, List[TraceRecord], int]]:
    """Run the trials :func:`join_cell` joined, in order. Each trace must
    pass ``trace_faults``.

    Returns one (seed, trace, total transmissions) triple per trial.
    """
    out = []
    for seed, engine in trials:
        trace, metrics = engine.run()
        faults = trace_faults(trace, setup.policy)
        assert not faults, (
            f"{setup.script.name}/{setup.policy}/{setup.vehicles}/seed {seed}: "
            f"{len(faults)} faults\n" + "\n".join(faults[:10])
        )
        out.append((seed, trace, metrics.total))
    return out


def run_cell(
    scenario: str,
    policy: str,
    vehicles: int,
    seeds,
    police: int = 0,
    **setup_kwargs,
) -> List[Tuple[int, List[TraceRecord], int]]:
    """Run one (scenario, policy, density) cell over the given seeds, several
    in lockstep on one warm road (see :func:`join_cell` and
    :func:`run_joined`)."""
    return run_joined(*join_cell(scenario, policy, vehicles, seeds, police, **setup_kwargs))


def replay_count(trace) -> int:
    """Independent transmission counter: one per trace record, by replay."""
    return sum(1 for _ in trace)


def fresh_rsu(services=frozenset()) -> RsuState:
    """RSU0's state: backbone peers RSU9 and RSU1, and the TA."""
    return RsuState(
        neighbours=(RSU9_SLOT, RSU1_SLOT),
        ta=TA_SLOT,
        services=services,
    )


def rsu_receive(state: RsuState, seen: set, msg, sender, now: float, ids):
    """One receipt at an RSU, first unless ``seen`` holds its id, as
    ``Engine._deliver`` decides; the id joins ``seen``."""
    first = msg.id not in seen
    seen.add(msg.id)
    return handle_rsu(state, msg, sender, first, now, ids=ids)


def broadcasts(actions, kind=None):
    """The broadcast actions, of one message kind if given."""
    out = [a for a in actions if isinstance(a, Broadcast)]
    if kind is not None:
        out = [a for a in out if a.message.kind is kind]
    return out


def wired(actions, kind=None):
    """The wired-send actions, of one message kind if given."""
    out = [a for a in actions if isinstance(a, Wired)]
    if kind is not None:
        out = [a for a in out if a.message.kind is kind]
    return out
