"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import List, Tuple

import pytest

from vanetim.domain import MessageIdSource
from vanetim.netsim import Engine, TraceRecord, TrialSetup
from vanetim.relay import FRESH60, HOP4
from vanetim.scenarios import build_scenario

POLICIES = {"hop4": HOP4, "fresh60": FRESH60}


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

    Returns one (seed, trace, total transmissions) triple per trial.
    """
    script = build_scenario(scenario)
    out = []
    for seed in seeds:
        setup = TrialSetup(
            script=script,
            policy=POLICIES[policy],
            vehicles=vehicles,
            police=max(police, script.min_police),
            **setup_kwargs,
        )
        trace, metrics = Engine(setup, seed).run()
        out.append((seed, trace, metrics.total))
    return out


def replay_count(trace) -> int:
    """Independent transmission counter: one per trace record, by replay."""
    return sum(1 for _ in trace)
