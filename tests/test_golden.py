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
"""

import hashlib

import pytest

from conftest import run_cell
from vanetim.netsim import NetConfig

GOLDEN = [
    # (scenario, policy, vehicles, police, seed, sha1 of the trace file)
    ("accident", "hop4", 19, 0, 1, "e307a17a357eb5cc511ce50b749abc0db119ca61"),
    ("accident", "fresh60", 19, 0, 1, "d9b0c164a6f526d805944755e1176284a163f28b"),
    ("accident", "hop4", 79, 0, 1, "e6c76de27fac59b05e7789ea728499ed24ff9193"),
    ("accident", "fresh60", 79, 0, 1, "0181c175410837e30473d47353d457841cc8a28c"),
    ("accident-police", "hop4", 21, 2, 1, "929ce0a7b4885a420c221b7035fa6c63783ab393"),
    ("accident-police", "hop4", 19, 0, 1, "b261178c101f7c20a2ea4597dd08619e8f8f2175"),
    ("traffic-jam", "hop4", 19, 0, 1, "aa199994a76060782bd44d975aaf989106fe2e8e"),
    ("congestion", "hop4", 19, 0, 1, "d5114cec771202bf272f21f577d4bb53b2ef86ea"),
    ("obstacle", "hop4", 19, 0, 1, "171a4a271268ca7b2d039faf2686cdb52051f883"),
    ("diversion", "hop4", 19, 0, 1, "b8d8031a9470aae27f412c0eebc32ce72194ecfb"),
    ("stranded-vehicle", "hop4", 19, 0, 1, "0586567c4410f3bab2eb3648e84d0cfb15796011"),
    ("debris", "hop4", 19, 0, 1, "c36a5b90b2fed6f4e1f381d8114c5da4b3860579"),
    ("service-discovery", "hop4", 19, 0, 1, "fc03bcaa64b138e688e4bf1a0b04a7d04f9a3fe5"),
    ("road-defect", "hop4", 19, 0, 1, "d81bf4e96f76c43b4cfb6acd43c07f6520117d5e"),
    ("flood", "hop4", 19, 0, 1, "228266091548c81a338b957019d947835c4159f5"),
    ("signal-malfunction", "hop4", 19, 0, 1, "527e0a8d89e5e655c726ac506238cf5054db60d6"),
    ("accident-police", "hop4", 81, 2, 1, "49feb9c23df434e3a2022c8bc50dabc4be90543b"),
    ("accident-police", "fresh60", 81, 2, 1, "6e9a0739935a5d70aa091e8446607ab81f762f32"),
]

GOLDEN_LOSSY = [
    # (scenario, policy, vehicles, seed, loss, sha1 of the trace file)
    ("accident", "hop4", 79, 1, 0.3, "eee5cd62c4b9a57d8ed175cc22045ebfacad7b93"),
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
