#!/usr/bin/env python3
"""Print the sha1 of every trace in a fixed matrix of cells and seeds.

One line per trace: ``scenario policy vehicles police loss seed sha1``.
The matrix covers the accident density sweep, the police-attended accident
at density, every catalogue scenario at 19 vehicles and five lossy cells,
each at seeds 1, 3 and 5 (123 traces; accident at 19 vehicles is in both
the density and the catalogue group). The two lossy police cells at 131
vehicles hold relays due at the same instant as other events (a fixed
0.5 s official hold and 0.01 s hop latency), so they pin the tie rule. It pins no digest: compare its
output between two commits, or between two ``PYTHONHASHSEED`` values, to
show that a change leaves every trace byte-identical.

Each cell's three seeds then run again on one recorded road
(``road_for``), as a sweep's trials do. If any of those traces differs from
its lone trial's, the script names the cell on stderr and exits 1. The
lossy ``accident-police fresh60 81`` cell's trials leave the recorded road,
so the check covers that path too.

Usage: python scripts/trace_digests.py > digests.txt
"""

import hashlib
import sys

from vanetim.netsim import Engine, TrialSetup, road_for
from vanetim.relay import FRESH60, HOP4
from vanetim.scenarios import SCENARIOS, build_scenario

POLICIES = {"hop4": HOP4, "fresh60": FRESH60}
SEEDS = (1, 3, 5)

#: (scenario, policy, vehicles, police, loss)
CELLS = (
    [("accident", p, v, 0, 0.0) for v in (19, 79, 139) for p in POLICIES]
    + [("accident-police", p, v, 2, 0.0) for v in (21, 81, 131) for p in POLICIES]
    + [(s, p, 19, 0, 0.0) for s in SCENARIOS for p in POLICIES]
    + [
        ("accident", "hop4", 79, 0, 0.3),
        ("accident-police", "fresh60", 81, 2, 0.3),
        ("debris", "hop4", 19, 0, 0.3),
        ("accident-police", "hop4", 131, 2, 0.3),
        ("accident-police", "fresh60", 131, 2, 0.3),
    ]
)


def digest(trace) -> str:
    return hashlib.sha1(
        "".join(record.to_line() + "\n" for record in trace).encode("utf-8")
    ).hexdigest()


def main() -> int:
    differ = []
    for cell in CELLS:
        scenario, policy, vehicles, police, loss = cell
        script = build_scenario(scenario)
        setup = TrialSetup(
            script=script,
            policy=POLICIES[policy],
            vehicles=vehicles,
            police=max(police, script.min_police),
            loss=loss,
        )
        lone = {}
        for seed in SEEDS:
            lone[seed] = digest(Engine(setup, seed).run()[0])
            print(scenario, policy, vehicles, setup.police, loss, seed, lone[seed])
        road = road_for(setup)
        shared = {seed: digest(Engine(setup, seed, road).run()[0]) for seed in SEEDS}
        if shared != lone:
            differ.append(cell)
    for scenario, policy, vehicles, police, loss in differ:
        print(f"shared-road traces differ from lone ones: {scenario} {policy} "
              f"{vehicles} {police} {loss}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
