"""Golden traces: the sha1 of each cell's trace file must not change.

The 19- and 21-vehicle digests were recorded before the engine's event
routing was rewritten, the 79-vehicle ones before the mobility step was
fused and the neighbour query windowed (the window skips the most entities
at high density); any change to event order, message ids, relay timing or
receiver order shows up here. A change that alters traces on purpose must
update these digests and say why. Cells of 131 vehicles or more are left
out: their traces are expected to change once spawns are inserted in ring
order.

The police-attended accident at 81 vehicles covers the official-vehicle
flow at density, and the lossy cell covers the loss draw in the radio
delivery; both were recorded before the per-entity dedup sets were merged
into one.

Every digest but traffic-jam, congestion and diversion was re-pinned when
the engine became the only writer of each entity's set of sent and received
ids. Until then an RSU did not mark the ids it made (ACK,
RESTRICTED_MOVEMENT, SERVICE_REPLY, derived AVOID_ROAD and CLEARED_ROAD),
so one that heard its own message back relayed it, burst it again or wired
it again. The three unchanged scripts make none of those five; the
coordinator's scripted clearance in diversion marked its id already.
"""

import hashlib

import pytest

from conftest import run_cell
from vanetim.netsim import NetConfig

GOLDEN = [
    # (scenario, policy, vehicles, police, seed, sha1 of the trace file)
    ("accident", "hop4", 19, 0, 1, "272ea783835b804198861777075c14bb2d2a8770"),
    ("accident", "fresh60", 19, 0, 1, "51bf518c9f7640f9d47151f073c500e2fd53d71c"),
    ("accident", "hop4", 79, 0, 1, "5f4883a32cc6536f1946e6d020fa5d8fa0e7d8e2"),
    ("accident", "fresh60", 79, 0, 1, "5d065caa7f92e64056acce12062794277234ced1"),
    ("accident-police", "hop4", 21, 2, 1, "84899bde092700f2fe5f6850278b291232e83c8f"),
    ("accident-police", "hop4", 19, 0, 1, "dfa09d13060f82b9602a600f0757d7f9a293ba1d"),
    ("traffic-jam", "hop4", 19, 0, 1, "aa199994a76060782bd44d975aaf989106fe2e8e"),
    ("congestion", "hop4", 19, 0, 1, "d5114cec771202bf272f21f577d4bb53b2ef86ea"),
    ("obstacle", "hop4", 19, 0, 1, "fec95d480007c90ec1b72376967df9e6d2624988"),
    ("diversion", "hop4", 19, 0, 1, "b8d8031a9470aae27f412c0eebc32ce72194ecfb"),
    ("stranded-vehicle", "hop4", 19, 0, 1, "b5707951daa423ddfc2d885b2f7fd0188d84c951"),
    ("debris", "hop4", 19, 0, 1, "eeead7d22c9aee1f9f6c8eed64ad058dc75cd2e6"),
    ("service-discovery", "hop4", 19, 0, 1, "68a3a620e2d12857365dfa64c497f2a833e18c41"),
    ("road-defect", "hop4", 19, 0, 1, "2fc0421fdbdd2ed4b2b78cd28678054a17c1b81f"),
    ("flood", "hop4", 19, 0, 1, "44af9ba0713ec06f59cd0226ec2b41661540427f"),
    ("signal-malfunction", "hop4", 19, 0, 1, "5ad454194293121dbf904a35da18dc41d5ab6ac4"),
    ("accident-police", "hop4", 81, 2, 1, "f0bfe06ae79c4f97bafbd4893db0022e2aa3cba5"),
    ("accident-police", "fresh60", 81, 2, 1, "b78130467d7f0c4ecf132a48f47f30974dd30004"),
]

GOLDEN_LOSSY = [
    # (scenario, policy, vehicles, seed, loss, sha1 of the trace file)
    ("accident", "hop4", 79, 1, 0.3, "e4699ae5cbca26a1df3c5b33fe80dd44424794a4"),
]


def _digest(trace) -> str:
    return hashlib.sha1(
        "".join(record.to_line() + "\n" for record in trace).encode("utf-8")
    ).hexdigest()


@pytest.mark.parametrize(
    "scenario,policy,vehicles,police,seed,expected",
    GOLDEN,
    ids=[f"{s}-{p}-{v}v-{n}p-s{seed}" for s, p, v, n, seed, _ in GOLDEN],
)
def test_trace_digest_unchanged(scenario, policy, vehicles, police, seed, expected):
    ((_, trace, total),) = run_cell(scenario, policy, vehicles, (seed,), police=police)
    assert _digest(trace) == expected
    assert total == len(trace)


@pytest.mark.parametrize(
    "scenario,policy,vehicles,seed,loss,expected",
    GOLDEN_LOSSY,
    ids=[f"{s}-{p}-{v}v-s{seed}-loss{loss}" for s, p, v, seed, loss, _ in GOLDEN_LOSSY],
)
def test_lossy_trace_digest_unchanged(scenario, policy, vehicles, seed, loss, expected):
    ((_, trace, _),) = run_cell(
        scenario, policy, vehicles, (seed,), net=NetConfig(loss=loss)
    )
    assert _digest(trace) == expected
