"""The benchmark's workloads, their per-trial output check and their
per-cell records.

A workload is a fixed list of cells (scenario, policy, vehicles, police,
seed), each one trial. A *pass* runs every cell of the workload through
vanetim's public entry points (``vanetim.cli.run_sweep`` or
``vanetim.cli.main(["run", ...])``), one trial at a time in this process.

Before any timed pass, :func:`reference_pass` runs every cell once through
``vanetim.netsim.Engine`` directly and checks the trace: it must pass
``check_conformance`` against its scenario's spec, and ``metrics.total``
must equal its length. Every later pass is then checked cell by cell
against that reference (transmission totals for sweeps; exit code, trace
digest and totals for the CLI runs). A trial that raises or disagrees is
counted as failed; it never aborts the run.

This module imports vanetim only inside functions, so that the set-up
probe can time the import itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: the twelve catalogue scenarios, listed here so that a scenario added to
#: vanetim later does not change what this workload measures
CATALOGUE = (
    "accident", "accident-police", "traffic-jam", "congestion", "obstacle",
    "diversion", "stranded-vehicle", "debris", "road-defect", "flood",
    "signal-malfunction", "service-discovery",
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "sweep" (run_sweep) or "catalogue" (main run)
    scenarios: Tuple[str, ...]
    densities: Tuple[int, ...]
    policies: Tuple[str, ...]
    police: int = 0


#: why each workload exists is recorded in BENCHMARK.json
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="accident-sweep",
            kind="sweep",
            scenarios=("accident",),
            densities=(19, 79, 139),
            policies=("hop4", "fresh60"),
        ),
        Workload(
            name="police-sweep",
            kind="sweep",
            scenarios=("accident-police",),
            densities=(21, 81),
            policies=("hop4", "fresh60"),
            police=2,
        ),
        Workload(
            name="catalogue-run",
            kind="catalogue",
            scenarios=CATALOGUE,
            densities=(19,),
            policies=("hop4",),
        ),
    )
}


@dataclass(frozen=True)
class Cell:
    workload: str
    scenario: str
    policy: str
    vehicles: int
    police: int
    seed: int

    @property
    def key(self) -> Tuple[str, str, int]:
        return (self.scenario, self.policy, self.vehicles)

    def config_fields(self) -> dict:
        """Keyword arguments of the ``vanetim.cli.RunConfig`` for this cell."""
        return dict(scenario=self.scenario, policy=self.policy,
                    vehicles=self.vehicles, police=self.police,
                    seed=self.seed, trials=1)

    def cli_args(self, out_dir: Path) -> List[str]:
        return ["run", "--scenario", self.scenario, "--policy", self.policy,
                "--vehicles", str(self.vehicles), "--police", str(self.police),
                "--trials", "1", "--seed", str(self.seed),
                "--out-dir", str(out_dir)]

    def trace_name(self) -> str:
        """File name ``vanetim run`` gives this cell's single trace."""
        return f"trace_{self.scenario}_{self.policy}_{self.vehicles}v_t0.csv"


def cells(workload: Workload, seed: int) -> List[Cell]:
    """The cells of one pass, in the order the public entry point runs them."""
    return [
        Cell(workload.name, scenario, policy, vehicles, workload.police, seed)
        for scenario in workload.scenarios
        for vehicles in workload.densities
        for policy in workload.policies
    ]


@dataclass
class CellRecord:
    """What one reference trial produced; printed so two commits can be diffed."""

    workload: str
    scenario: str
    policy: str
    vehicles: int
    seed: int
    digest: str
    transmissions: int
    deliveries: Optional[int]
    ok: bool
    problem: str = ""


def trace_digest(trace) -> str:
    """sha1 over the trace's lines, byte-equal to the file write_trace writes."""
    h = hashlib.sha1()
    for record in trace:
        h.update((record.to_line() + "\n").encode("utf-8"))
    return h.hexdigest()


def _delivery_counting_engine():
    """An ``Engine`` subclass that sums the receivers each broadcast reaches."""
    from vanetim.netsim import Engine

    class DeliveryCountingEngine(Engine):
        deliveries: Optional[int] = 0

        def broadcast(self, *args, **kwargs):
            result = super().broadcast(*args, **kwargs)
            try:
                self.deliveries += len(result)
            except TypeError:
                self.deliveries = None  # the engine no longer reports receivers
            return result

    return DeliveryCountingEngine


def reference_trial(cell: Cell) -> CellRecord:
    """Run one cell directly on the engine and check its trace."""
    from vanetim.cli import RunConfig, make_setup
    from vanetim.scenarios import check_conformance, spec_for

    record = CellRecord(cell.workload, cell.scenario, cell.policy, cell.vehicles,
                        cell.seed, digest="", transmissions=-1, deliveries=None,
                        ok=False)
    try:
        setup = make_setup(RunConfig(**cell.config_fields()))
        engine = _delivery_counting_engine()(setup, cell.seed)
        trace, metrics = engine.run()
        record.digest = trace_digest(trace)
        record.transmissions = metrics.total
        record.deliveries = engine.deliveries
        if metrics.total != len(trace):
            record.problem = f"metrics.total {metrics.total} != trace length {len(trace)}"
        elif not check_conformance(trace, spec_for(setup.script)).passed:
            record.problem = "trace fails its sequence spec"
        else:
            record.ok = True
    except Exception as exc:  # a failing trial is counted, never fatal
        record.problem = f"{type(exc).__name__}: {exc}"
    return record


def reference_pass(workload: Workload, seed: int) -> List[CellRecord]:
    return [reference_trial(cell) for cell in cells(workload, seed)]


def cell_line(record: CellRecord) -> str:
    fields = asdict(record)
    if not fields["problem"]:
        del fields["problem"]
    return "cell " + " ".join(f"{k}={v}" for k, v in fields.items())


# ---------------------------------------------------------------------------
# timed passes through the public entry points


class Pass:
    """One pass over a workload through vanetim's public entry points.

    ``run()`` is the part a user waits for and is the only part timed;
    ``outputs()`` then reads what the pass produced, per cell, for
    :func:`count_failures`.
    """

    def __init__(self, workload: Workload, seed: int, scratch: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.cells = cells(workload, seed)
        self.scratch = scratch
        self.error: Optional[str] = None
        self._sweep = None
        self._exits: Dict[Tuple[str, str, int], object] = {}
        self._out_dir: Optional[Path] = None

    def run(self) -> None:
        if self.workload.kind == "sweep":
            self._run_sweep()
        else:
            self._run_catalogue()

    def _run_sweep(self) -> None:
        from vanetim.cli import RunConfig, run_sweep

        w = self.workload
        config = RunConfig(scenario=w.scenarios[0], police=w.police, seed=self.seed,
                           trials=1, densities=w.densities)
        try:
            self._sweep = run_sweep(config, policies=w.policies)
        except Exception as exc:  # counted against every cell of the pass
            self.error = f"{type(exc).__name__}: {exc}"

    def _run_catalogue(self) -> None:
        from vanetim.cli import main

        self._out_dir = Path(tempfile.mkdtemp(prefix="catalogue-", dir=self.scratch))
        sink = io.StringIO()
        for cell in self.cells:
            try:
                with contextlib.redirect_stdout(sink):
                    self._exits[cell.key] = main(cell.cli_args(self._out_dir))
            except (Exception, SystemExit) as exc:  # SystemExit: argparse rejected
                self._exits[cell.key] = f"{type(exc).__name__}: {exc}"

    def outputs(self) -> Dict[Tuple[str, str, int], dict]:
        """Per cell, what the pass produced, in the form the check compares."""
        if self.workload.kind == "sweep":
            totals = {}
            if self._sweep is not None:
                totals = {(r.scenario, r.policy, r.vehicles): r.total
                          for r in self._sweep.rows}
            return {c.key: {"transmissions": totals.get(c.key)} for c in self.cells}
        out = {}
        for cell in self.cells:
            trace_file = self._out_dir / cell.trace_name()
            metrics_file = self._out_dir / f"metrics_{cell.scenario}_{cell.policy}.csv"
            out[cell.key] = {
                "exit": self._exits.get(cell.key),
                "digest": _file_sha1(trace_file),
                "transmissions": _metrics_csv_total(metrics_file),
            }
        return out

    def cleanup(self) -> None:
        if self._out_dir is not None:
            shutil.rmtree(self._out_dir, ignore_errors=True)


def _file_sha1(path: Path) -> Optional[str]:
    try:
        return hashlib.sha1(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _metrics_csv_total(path: Path) -> Optional[int]:
    """Trial 0's total from a ``vanetim run`` metrics CSV (second line)."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        return int(lines[1].rsplit(",", 1)[1])
    except (OSError, IndexError, ValueError):
        return None


def count_failures(outputs: Dict[Tuple[str, str, int], dict],
                   reference: List[CellRecord],
                   error: Optional[str] = None) -> List[str]:
    """One message per trial of a pass that disagrees with its checked reference."""
    problems = []
    for ref in reference:
        key = (ref.scenario, ref.policy, ref.vehicles)
        if error is not None:
            problems.append(f"{key}: {error}")
            continue
        if not ref.ok:
            problems.append(f"{key}: reference trial failed: {ref.problem}")
            continue
        expected = {"exit": 0, "digest": ref.digest, "transmissions": ref.transmissions}
        got = outputs.get(key, {})
        for name, value in sorted(got.items()):
            if value != expected[name]:
                problems.append(f"{key}: {name} {value!r} != {expected[name]!r}")
                break
        else:
            if not got:
                problems.append(f"{key}: no output")
    return problems
