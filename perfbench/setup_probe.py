"""Set-up time of one workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds from just before ``import vanetim`` to just after the
workload's first ``TrialSetup`` and ``Engine`` are built, before any
``run()``. ``run.py`` starts this several times and reports the median.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from workloads import WORKLOADS, cells  # noqa: E402  (imports no vanetim)


def main() -> None:
    first = cells(WORKLOADS[sys.argv[1]], int(sys.argv[2]))[0]
    t0 = time.perf_counter()
    from vanetim.cli import RunConfig, make_setup
    from vanetim.netsim import Engine

    Engine(make_setup(RunConfig(**first.config_fields())), first.seed)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
