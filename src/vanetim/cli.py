"""Command-line entry point: run one scenario, sweep the relaying
experiments across traffic densities, or summarise a sweep CSV.

Exit codes: 0 success, 1 conformance failure, 2 configuration error,
3 I/O error, a closed stdout included.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import suppress
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Collection, List, Optional, Sequence, Tuple

from .metrics import SweepResult, SweepRow, export_csv, parse_csv
from .netsim import ConfigError, Engine, TrialSetup, road_for, warm_world, write_trace
from .relay import FRESH60, HOP4, Freshness, HopLimit, RelayPolicy
from .roadlog import RoadLog
from .scenarios import build_scenario, check_conformance, spec_for

EXIT_OK = 0
EXIT_CONFORMANCE = 1
EXIT_CONFIG = 2
EXIT_IO = 3


@dataclass(frozen=True)
class RunConfig:
    scenario: str = "accident"
    policy: str = "hop4"
    vehicles: int = 19
    police: int = 0
    seed: int = 1
    trials: int = 5
    duration: float = 1500.0
    loss: float = 0.0
    include_wired: bool = True
    out_dir: str = "out"
    densities: Tuple[int, ...] = ()
    relay_hold: float = 35.0

    def validate(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials: must be at least 1")
        if self.police < 0:
            raise ConfigError("police: must not be negative")
        for i, vehicles in enumerate(self.densities):
            # a sweep would run it twice and count its trials twice over
            if vehicles in self.densities[:i]:
                raise ConfigError(f"densities: {vehicles} is repeated")
        parse_policy(self.policy)

    # -- flat key=value round trip ----------------------------------------

    def to_text(self) -> str:
        """The keys whose values differ from the defaults, one a line: a
        file that either command reads unless it sets a key the command
        does not read (see :meth:`from_text`)."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value == f.default:
                continue
            if f.name == "densities":
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, unread: Collection[str] = ()) -> "RunConfig":
        """Parse a flat ``key = value`` file; a key in ``unread``, one the
        command reading the file does not read, is refused like an unknown
        one, and so is a key given twice."""
        known = {f.name for f in fields(cls)}
        values, given_on = {}, {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in known:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in unread:
                raise ConfigError(f"line {lineno}: this command does not read {key!r}")
            if key in given_on:
                raise ConfigError(
                    f"line {lineno}: {key!r} is already given on line {given_on[key]}"
                )
            given_on[key] = lineno
            values[key] = _coerce(key, value, f"line {lineno}: {key}")
        return cls(**values)


#: the spellings a config file may give a boolean, in any case
_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
#: what a value of each type of :class:`RunConfig` default must spell
_EXPECTED = {
    tuple: "comma-separated integers",
    bool: "true/false/yes/no/1/0",
    int: "an integer",
    float: "a number",
}


def _coerce(key: str, value: str, where: str) -> object:
    """Parse ``value`` as the type of ``key``'s default in :class:`RunConfig`;
    a value that does not parse is a :class:`ConfigError` that names
    ``where`` it was given and what was expected."""
    default = getattr(RunConfig, key)
    try:
        if isinstance(default, tuple):
            return tuple(int(v) for v in value.split(",") if v)
        if isinstance(default, bool):
            return _BOOLEANS[value.lower()]
        return type(default)(value)
    except (KeyError, ValueError):
        raise ConfigError(
            f"{where}: expected {_EXPECTED[type(default)]}, got {value!r}"
        ) from None


#: the parameterised policies: key, then how its value parses and the policy
_LIMITS = {"hops": (int, HopLimit), "age": (float, Freshness)}


def parse_policy(name: str) -> RelayPolicy:
    """hop4, fresh60, hops=N, or age=SECONDS."""
    if name == "hop4":
        return HOP4
    if name == "fresh60":
        return FRESH60
    key, _, value = name.partition("=")
    if key in _LIMITS:
        parse, policy = _LIMITS[key]
        try:
            limit = parse(value)
        except ValueError:
            pass
        else:
            return policy(limit)
    raise ConfigError(
        f"policy: expected hop4, fresh60, hops=N or age=SECONDS, got {name!r}"
    )


def make_setup(config: RunConfig, *, policy: Optional[str] = None,
               vehicles: Optional[int] = None) -> TrialSetup:
    script = build_scenario(config.scenario)
    return TrialSetup(
        script=script,
        policy=parse_policy(policy or config.policy),
        vehicles=vehicles if vehicles is not None else config.vehicles,
        police=max(config.police, script.min_police),
        duration=config.duration,
        loss=config.loss,
        relay_hold=config.relay_hold,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_run(config: RunConfig, setup: TrialSetup) -> int:
    # the trials differ only in their seed, so several read one road; a lone
    # trial warms its own. Either is warmed, and so checked, before any write
    road = road_for(setup) if config.trials > 1 else None
    engine = Engine(setup, config.seed, road)
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {out_dir}: {exc}", file=sys.stderr)
        return EXIT_IO

    spec = spec_for(setup.script)
    sweep = SweepResult()
    all_pass = True
    report_lines = []
    for trial in range(config.trials):
        seed = config.seed + trial
        if trial:
            engine = Engine(setup, seed, road)
        trace, metrics = engine.run()
        name = f"trace_{config.scenario}_{config.policy}_{setup.vehicles}v_t{trial}.csv"
        try:
            write_trace(trace, out_dir / name)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        total = metrics.total if config.include_wired else metrics.total_excluding_wired()
        sweep.add(SweepRow(config.scenario, config.policy, setup.vehicles, trial, total))
        report = check_conformance(trace, spec)
        report_lines.append(f"trial {trial} (seed {seed}):")
        report_lines.append(report.summary())
        all_pass = all_pass and report.passed

    try:
        export_csv(sweep, out_dir / f"metrics_{config.scenario}_{config.policy}.csv")
        (out_dir / f"conformance_{config.scenario}.txt").write_text(
            "\n".join(report_lines) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print("\n".join(report_lines))
    return EXIT_OK if all_pass else EXIT_CONFORMANCE


def run_sweep(config: RunConfig, policies: Sequence[str] = ("hop4", "fresh60")) -> SweepResult:
    """Run both policies across all densities; library form of cmd_sweep.
    Every trial of a density reads one road (see ``road_for``); every
    density is warmed, and so checked, before the first trial."""
    config.validate()
    warm = [warm_world(make_setup(config, vehicles=v)) for v in config.densities]
    sweep = SweepResult()
    for vehicles, world in zip(config.densities, warm):
        # one density's recorded rows at a time
        road = RoadLog(world)
        for policy in policies:
            setup = make_setup(config, policy=policy, vehicles=vehicles)
            for trial in range(config.trials):
                _, metrics = Engine(setup, config.seed + trial, road).run()
                total = (
                    metrics.total
                    if config.include_wired
                    else metrics.total_excluding_wired()
                )
                sweep.add(SweepRow(config.scenario, policy, vehicles, trial, total))
    return sweep


def cmd_sweep(config: RunConfig) -> int:
    # every road is warmed, and so checked, before anything is written
    sweep = run_sweep(config)
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {out_dir}: {exc}", file=sys.stderr)
        return EXIT_IO
    path = out_dir / f"sweep_{config.scenario}.csv"
    try:
        export_csv(sweep, path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    for vehicles in config.densities:
        hop = sweep.mean(config.scenario, "hop4", vehicles)
        fresh = sweep.mean(config.scenario, "fresh60", vehicles)
        marker = ">=" if hop >= fresh else "<"
        print(f"{vehicles:4d} vehicles: mean(hop4)={hop:.1f} {marker} mean(fresh60)={fresh:.1f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_report(csv_path: str) -> int:
    try:
        _, aggregates = parse_csv(csv_path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not aggregates:
        print("no data: aggregate section is empty", file=sys.stderr)
        return EXIT_CONFIG

    means = {}
    for scenario, policy, vehicles, mean, _ in aggregates:
        means.setdefault(scenario, {})[(policy, vehicles)] = mean
    compared_any = False
    for scenario, cells in means.items():
        # only a density with both policies can be compared
        both = sorted(v for (p, v) in cells if p == "hop4" and ("fresh60", v) in cells)
        compared_any = compared_any or bool(both)
        inverted = []
        for vehicles in both:
            hop, fresh = cells[("hop4", vehicles)], cells[("fresh60", vehicles)]
            print(f"{scenario} {vehicles:4d} vehicles: "
                  f"mean(hop4)={hop:.1f} mean(fresh60)={fresh:.1f}")
            if hop < fresh:
                inverted.append(vehicles)
        if not both:
            print(f"{scenario}: no density has both hop4 and fresh60; nothing compared")
        elif inverted:
            print(f"{scenario}: hop4 >= fresh60 violated at densities: "
                  + ", ".join(str(v) for v in inverted))
        else:
            print(f"{scenario}: hop4 >= fresh60 at all densities: PASS")
    if not compared_any:
        print("no data: no density has both hop4 and fresh60", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    """The flags both ``run`` and ``sweep`` read; each adds its own."""
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--scenario")
    parser.add_argument("--police", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--duration", type=float)
    parser.add_argument("--loss", type=float)
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument(
        "--include-wired", dest="include_wired", action="store_true", default=None
    )
    parser.add_argument(
        "--exclude-wired", dest="include_wired", action="store_false"
    )


#: the config keys each command does not read, as it takes no flag for them
_UNREAD_KEYS = {"run": ("densities",), "sweep": ("policy", "vehicles")}


def _build_config(args: argparse.Namespace) -> RunConfig:
    if args.config:
        try:
            config = RunConfig.from_text(
                Path(args.config).read_text(encoding="utf-8"), _UNREAD_KEYS[args.command]
            )
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    else:
        config = RunConfig()
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if isinstance(value, str):
            value = _coerce(f.name, value, "--" + f.name.replace("_", "-"))
        if value is not None:
            overrides[f.name] = value
    return replace(config, **overrides)


def main(argv: Optional[List[str]] = None) -> int:
    """Run a command; a stdout whose reader has gone, such as a pipe into
    ``head``, is an I/O error."""
    try:
        code = _main(argv)
        sys.stdout.flush()  # what a pipe buffers is written now, not at exit
    except BrokenPipeError:
        # the flush at interpreter exit writes what is left to devnull; a
        # stdout with no file descriptor has nothing to redirect
        with suppress(OSError):
            stdout = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout)
            os.close(devnull)
        return EXIT_IO
    return code


def _main(argv: Optional[List[str]]) -> int:
    parser = argparse.ArgumentParser(
        prog="vanetim",
        description="VANET traffic-incident dissemination simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one scenario for N seeded trials")
    _add_common(run_parser)
    run_parser.add_argument("--policy")
    run_parser.add_argument("--vehicles", type=int)
    sweep_parser = sub.add_parser("sweep", help="sweep both policies over densities")
    _add_common(sweep_parser)
    sweep_parser.add_argument("--densities", help="comma-separated vehicle counts")
    report_parser = sub.add_parser("report", help="summarise a sweep CSV")
    report_parser.add_argument("csv", help="path to a sweep CSV")

    args = parser.parse_args(argv)
    if args.command == "report":
        return cmd_report(args.csv)
    # building the set-up, and warming its road before the first trial, are
    # config errors; a fault raised while a trial runs is not the user's input
    try:
        config = _build_config(args)
        config.validate()
        setup = make_setup(config)  # for a sweep, it checks the scenario only
        if args.command == "run":
            setup.validate()
        elif not config.densities:
            raise ConfigError("sweep requires --densities")
    except (ValueError, KeyError) as exc:  # a ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return cmd_run(config, setup) if args.command == "run" else cmd_sweep(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
