#!/usr/bin/env python3
"""Print the sha1 of every trace in a fixed matrix of cells and seeds.

One line per trace: ``scenario policy vehicles police loss seed sha1``.
The matrix covers the accident density sweep, the police-attended accident
at density, every catalogue scenario at 19 vehicles and three lossy cells,
each at seeds 1, 3 and 5 (117 traces; accident at 19 vehicles is in both
the density and the catalogue group). It pins no digest: compare its
output between two commits, or between two ``PYTHONHASHSEED`` values, to
show that a change leaves every trace byte-identical.

Usage: python scripts/trace_digests.py > digests.txt
"""

import hashlib
import sys

from vanetim.netsim import Engine, TrialSetup
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
    ]
)


def main() -> int:
    for scenario, policy, vehicles, police, loss in CELLS:
        script = build_scenario(scenario)
        setup = TrialSetup(
            script=script,
            policy=POLICIES[policy],
            vehicles=vehicles,
            police=max(police, script.min_police),
            loss=loss,
        )
        for seed in SEEDS:
            trace, _ = Engine(setup, seed).run()
            digest = hashlib.sha1(
                "".join(record.to_line() + "\n" for record in trace).encode("utf-8")
            ).hexdigest()
            print(scenario, policy, vehicles, setup.police, loss, seed, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
