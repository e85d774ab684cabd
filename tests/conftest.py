"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import List, Tuple

import pytest

from vanetim.domain import MessageIdSource
from vanetim.netsim import Engine, TraceRecord, TrialSetup, warm_world
from vanetim.protocol import Broadcast, RsuState, ServiceDirectory, Wired
from vanetim.relay import FRESH60, HOP4
from vanetim.scenarios import build_scenario

POLICIES = {"hop4": HOP4, "fresh60": FRESH60}

# engine slots of a ten-RSU backbone after a 20-vehicle fleet, then the TA
RSU0_SLOT, RSU1_SLOT, RSU9_SLOT, TA_SLOT = 20, 21, 29, 30


@pytest.fixture
def ids() -> MessageIdSource:
    """A fresh message-id source for one test."""
    return MessageIdSource()


def run_cell(
    scenario: str,
    policy: str,
    vehicles: int,
    seeds,
    police: int = 0,
    **setup_kwargs,
) -> List[Tuple[int, List[TraceRecord], int]]:
    """Run one (scenario, policy, density) cell over the given seeds.

    Several seeds start from one warm world, as a sweep's trials do; a
    single seed steps its own, as a lone trial does.

    Returns one (seed, trace, total transmissions) triple per trial.
    """
    script = build_scenario(scenario)
    setup = TrialSetup(
        script=script,
        policy=POLICIES[policy],
        vehicles=vehicles,
        police=max(police, script.min_police),
        **setup_kwargs,
    )
    world = warm_world(setup) if len(seeds) > 1 else None
    out = []
    for seed in seeds:
        trace, metrics = Engine(setup, seed, world).run()
        out.append((seed, trace, metrics.total))
    return out


def replay_count(trace) -> int:
    """Independent transmission counter: one per trace record, by replay."""
    return sum(1 for _ in trace)


def fresh_rsu(services=ServiceDirectory()) -> RsuState:
    """RSU0's state: backbone peers RSU9 and RSU1, and the TA."""
    return RsuState(
        neighbours=(RSU9_SLOT, RSU1_SLOT),
        ta=TA_SLOT,
        services=services,
    )


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
