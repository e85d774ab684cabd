"""vanetim benchmark: one workload, one seed, one measured run.

Usage (from the repository root):

    python3 perfbench/run.py --workload accident-sweep --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it reports the end-to-end metrics (``wall_ref_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` the per-layer metrics of
a traced run. Every trial is checked; see ``workloads.py``. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See README.md for how to read it.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from tracing import SpanRecorder, layer_metrics, traced  # noqa: E402
from yardstick import rescale, time_kernel  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, CellRecord, Pass, cell_line, cells, count_failures, reference_pass,
    reference_trial, trace_digest,
)

#: fresh interpreters started to time set-up; the median is reported
SETUP_PROBES = 11
#: timed passes made even when one pass outlasts --seconds
MIN_PASSES = 3


class Tally:
    """Trials attempted and the messages of those whose check failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: List[str] = []

    def add(self, attempted: int, problems: List[str]) -> None:
        self.attempted += attempted
        self.problems.extend(problems)


def measure_setup(workload: str, seed: int) -> float:
    probe = str(HERE / "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, probe, workload, str(seed)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def timed_pass(workload, seed: int, reference: List[CellRecord], tally: Tally) -> float:
    """One untraced pass through the public entry point; returns its wall time."""
    p = Pass(workload, seed, OUT)
    try:
        t0 = time.perf_counter()
        p.run()
        wall = time.perf_counter() - t0
        tally.add(len(p.cells), count_failures(p.outputs(), reference, p.error))
    finally:
        p.cleanup()
    return wall


def traced_pass(workload, seed: int, reference: List[CellRecord], tally: Tally,
                rec: SpanRecorder) -> tuple:
    """One pass with every entry point wrapped; its per-cell digests must
    equal the untraced reference's. Returns (wall, missing entry points)."""
    digests: List[str] = []
    rec.clear()
    p = Pass(workload, seed, OUT)
    try:
        with traced(rec, on_run=lambda result: digests.append(trace_digest(result[0]))) \
                as missing:
            t0 = time.perf_counter()
            p.run()
            wall = time.perf_counter() - t0
        problems = count_failures(p.outputs(), reference, p.error)
    finally:
        p.cleanup()
    for i, ref in enumerate(reference):
        got = digests[i] if i < len(digests) else None
        if got != ref.digest:
            problems.append(f"{ref.scenario}/{ref.policy}/{ref.vehicles}: traced "
                            f"digest {got} != untraced {ref.digest}")
    tally.add(len(p.cells), problems)
    return wall, missing


def untraced_run(workload, seed: int, seconds: float, reference, tally) -> Dict[str, float]:
    """Timed passes, each between two timings of the yardstick kernel."""
    walls: List[float] = []
    rescaled: List[float] = []
    deadline = time.perf_counter() + seconds
    before = time_kernel()
    while (len(walls) < MIN_PASSES
           or time.perf_counter() + statistics.median(walls) + before <= deadline):
        wall = timed_pass(workload, seed, reference, tally)
        after = time_kernel()
        walls.append(wall)
        rescaled.append(rescale(wall, before, after))
        print(f"pass {len(walls)} wall_s={wall:.4f} kernel_s={after:.4f} "
              f"wall_ref_s={rescaled[-1]:.4f}")
        before = after
    print(f"host wall_s median={statistics.median(walls):.4f} over {len(walls)} passes")
    return {
        "wall_ref_s": statistics.median(rescaled),
        "setup_s": measure_setup(workload.name, seed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(workload, seed: int, seconds: float, reference, tally) -> Dict[str, float]:
    """Alternate untraced and traced passes; per-layer medians over the traced ones."""
    rec = SpanRecorder()
    plain: List[float] = []
    walls: List[float] = []
    layers: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() + plain[-1] + walls[-1] <= deadline:
        plain.append(timed_pass(workload, seed, reference, tally))
        wall, missing = traced_pass(workload, seed, reference, tally, rec)
        walls.append(wall)
        layers.append(layer_metrics(rec.calls(), rec.self_times(), rec.counters))
        print(f"pair {len(walls)} untraced wall_s={plain[-1]:.4f} traced wall_s={wall:.4f} "
              f"spans={len(rec)}")
    spans_file = OUT / f"spans-{workload.name}.csv"
    rec.write_csv(spans_file)
    print(f"spans of the last traced pass: {spans_file.relative_to(ROOT)}")
    for name in missing:
        print(f"missing entry point: {name}")
    for counter, n in sorted(rec.counters.items()):
        if counter.endswith(".uncounted"):
            print(f"count skipped on {n:g} calls: {counter}")
    print("note: the simulator is single-threaded; no layer waits, so no wait time is reported")
    metrics = {name: _median([layer[name] for layer in layers]) for name in layers[0]}
    metrics["host.wall_s"] = statistics.median(plain)
    metrics["trace.wall_s"] = statistics.median(walls)
    metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(plain)
    metrics["trace.missing_entry_points"] = len(missing)
    return metrics


def _median(values: list) -> float:
    """The median; for counts, the lower middle value, so a count stays whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "per_broadcast", "fanout")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "vanetim" / "__init__.py").is_file():
        print(f"error: no vanetim sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload]
    tally = Tally()
    reference = reference_pass(workload, args.seed)
    for record in reference:
        print(cell_line(record))
    tally.add(len(reference), [f"{r.scenario}/{r.policy}/{r.vehicles}: {r.problem}"
                               for r in reference if not r.ok])
    # determinism contract: the same cell and seed again gives the same digest
    again = reference_trial(cells(workload, args.seed)[0])
    tally.add(1, [] if again.ok and again.digest == reference[0].digest
              else [f"re-run of {again.scenario}/{again.policy}/{again.vehicles} "
                    f"gave digest {again.digest}, first run {reference[0].digest}"])

    run = traced_run if args.trace else untraced_run
    values = run(workload, args.seed, args.seconds, reference, tally)
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": len(tally.problems),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
