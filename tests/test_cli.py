from dataclasses import fields

import pytest

from vanetim.cli import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    RunConfig,
    main,
    make_setup,
    parse_policy,
    run_sweep,
)
from vanetim.netsim import parse_trace
from vanetim.relay import FRESH60, Freshness, HOP4, HopLimit


def stub_runs(monkeypatch):
    """Make ``Engine.run`` an empty trial; the list it returns gains each
    engine that runs."""
    from vanetim.netsim import Engine

    runs = []

    def run(engine):
        runs.append(engine)
        return [], engine.metrics

    monkeypatch.setattr(Engine, "run", run)
    return runs


class TestRunConfig:
    def test_round_trip(self):
        config = RunConfig(
            scenario="obstacle",
            policy="fresh60",
            vehicles=59,
            police=2,
            seed=7,
            trials=3,
            duration=1200.0,
            loss=0.1,
            include_wired=False,
            out_dir="results",
            densities=(19, 39, 59),
            route_length=3000.0,
            dt=0.25,
            relay_hold=20.0,
        )
        assert all(
            getattr(config, f.name) != f.default for f in fields(RunConfig)
        )
        assert RunConfig.from_text(config.to_text()) == config

    @pytest.mark.parametrize("value, expected", [
        ("true", True), ("YES", True), ("1", True),
        ("False", False), ("no", False), ("0", False),
    ])
    def test_include_wired_spellings(self, value, expected):
        config = RunConfig.from_text(f"include_wired = {value}\n")
        assert config.include_wired is expected

    @pytest.mark.parametrize("value", ["ture", "2", ""])
    def test_bad_include_wired_rejected(self, value):
        with pytest.raises(ConfigError, match="include_wired"):
            RunConfig.from_text(f"include_wired = {value}\n")

    def test_default_round_trip(self):
        assert RunConfig.from_text(RunConfig().to_text()) == RunConfig()

    def test_comments_and_blanks_ignored(self):
        config = RunConfig.from_text("# a comment\n\nvehicles = 42  # inline\n")
        assert config.vehicles == 42

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            RunConfig.from_text("vehicles = 5\nwheels = 4\n")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ConfigError, match="line 3: 'loss' is already given on line 1"):
            RunConfig.from_text("loss = 0.1\ntrials = 2\nloss = 0.2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            RunConfig.from_text("vehicles 5\n")

    def test_validate(self):
        with pytest.raises(ConfigError):
            RunConfig(trials=0).validate()
        # the duration and loss bounds are model bounds, checked with the
        # trial set-up
        with pytest.raises(ConfigError, match="end after the report"):
            make_setup(RunConfig(duration=400.0)).validate()
        with pytest.raises(ConfigError, match="loss"):
            make_setup(RunConfig(loss=1.0)).validate()
        with pytest.raises(ConfigError):
            RunConfig(policy="carrier-pigeon").validate()


class TestParsePolicy:
    def test_named_policies(self):
        assert parse_policy("hop4") == HOP4
        assert parse_policy("fresh60") == FRESH60

    def test_parameterised_policies(self):
        assert parse_policy("hops=6") == HopLimit(6)
        assert parse_policy("age=30") == Freshness(30.0)

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            parse_policy("ttl")

    @pytest.mark.parametrize("value", ["hops=abc", "age=x", "hops=", "hops=2.5"])
    def test_a_malformed_limit_names_the_policy_key(self, tmp_path, capsys, value):
        code = main(["run", "--policy", value, "--trials", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: policy: expected hop4, fresh60, hops=N or age=SECONDS, "
            f"got {value!r}\n"
        )


class TestRunCommand:
    def test_run_writes_traces_and_csv(self, tmp_path):
        code = main(
            [
                "run",
                "--scenario", "accident",
                "--trials", "2",
                "--seed", "7",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        traces = sorted(tmp_path.glob("trace_accident_hop4_*"))
        assert len(traces) == 2
        assert (tmp_path / "metrics_accident_hop4.csv").exists()
        assert (tmp_path / "conformance_accident.txt").exists()

    def test_seed_derivation_is_base_plus_trial(self, tmp_path):
        from vanetim.netsim import Engine, TrialSetup
        from vanetim.scenarios import build_scenario

        main(
            [
                "run",
                "--scenario", "accident",
                "--trials", "2",
                "--seed", "7",
                "--out-dir", str(tmp_path),
            ]
        )
        setup = TrialSetup(script=build_scenario("accident"), policy=HOP4, vehicles=19)
        for trial, seed in ((0, 7), (1, 8)):
            expected, _ = Engine(setup, seed).run()
            got = parse_trace(tmp_path / f"trace_accident_hop4_19v_t{trial}.csv")
            assert [r.to_line() for r in got] == [r.to_line() for r in expected]

    def test_missing_reporter_is_config_error(self, tmp_path):
        code = main(
            [
                "run",
                "--scenario", "accident",
                "--vehicles", "10",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == EXIT_CONFIG

    def test_config_file_with_flag_override(self, tmp_path):
        config_file = tmp_path / "run.cfg"
        config_file.write_text(
            RunConfig(scenario="accident", trials=1, out_dir=str(tmp_path)).to_text()
        )
        code = main(["run", "--config", str(config_file), "--seed", "3"])
        assert code == EXIT_OK
        assert (tmp_path / "trace_accident_hop4_19v_t0.csv").exists()

    def test_unreadable_config(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "absent.cfg")])
        assert code == EXIT_CONFIG

    def test_unknown_scenario_is_config_error(self, tmp_path):
        code = main(["run", "--scenario", "meteor", "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_negative_vehicle_count_is_config_error(self, tmp_path):
        # diversion is reported by P0, so it needs no regular vehicle
        args = ["run", "--scenario", "diversion", "--trials", "1",
                "--out-dir", str(tmp_path)]
        assert main(args + ["--vehicles", "-3"]) == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []
        assert main(args + ["--vehicles", "0"]) == EXIT_OK

    @pytest.mark.parametrize("trials", ["1", "2"])
    @pytest.mark.parametrize("vehicles", ["220", "250", "251"])
    def test_fleet_not_spawned_by_the_report_is_config_error(
        self, tmp_path, capsys, monkeypatch, vehicles, trials
    ):
        # the entry defers spawns while it is not clear, so only 219 of
        # them have entered the default route by the report
        runs = stub_runs(monkeypatch)
        out_dir = tmp_path / "new"
        code = main(["run", "--vehicles", vehicles, "--trials", trials,
                     "--out-dir", str(out_dir)])
        assert code == EXIT_CONFIG
        assert f"only 219 of {vehicles} vehicles have spawned" in capsys.readouterr().err
        assert runs == []
        assert not out_dir.exists()

    def test_the_largest_fleet_that_spawns_by_the_report_runs(self, tmp_path):
        code = main(["run", "--vehicles", "219", "--trials", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK

    @pytest.mark.parametrize("scenario", ["accident", "accident-police"])
    def test_negative_police_is_config_error(self, tmp_path, scenario):
        # not raised to the scenario's minimum: the count cannot be honoured
        code = main(["run", "--scenario", scenario, "--police", "-1", "--trials", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("flag, value", [
        ("--duration", "nan"),
        ("--duration", "inf"),
        ("--policy", "age=nan"),
    ])
    def test_non_finite_input_is_config_error(self, tmp_path, flag, value):
        code = main(["run", flag, value, "--trials", "1", "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("duration", ["400", "520", "550"])
    def test_a_run_that_ends_by_the_report_is_config_error(self, tmp_path, duration):
        # the report at 550 s would fall outside the run or at its very end
        code = main(["run", "--duration", duration, "--trials", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("loss", ["1.5", "-0.2", "nan"])
    def test_loss_outside_unit_interval_is_config_error(self, tmp_path, loss):
        code = main(["run", "--loss", loss, "--trials", "1", "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("key, value", [
        ("dt", "0"),
        ("dt", "-0.5"),
        ("dt", "nan"),
        ("route_length", "nan"),
        ("route_length", "inf"),
        ("relay_hold", "-10"),
        ("relay_hold", "nan"),
        ("include_wired", "ture"),
    ])
    def test_config_value_the_model_cannot_honour_is_config_error(
        self, tmp_path, key, value
    ):
        config_file = tmp_path / "run.cfg"
        config_file.write_text(
            RunConfig(trials=1, out_dir=str(tmp_path)).to_text() + f"{key} = {value}\n"
        )
        assert main(["run", "--config", str(config_file)]) == EXIT_CONFIG

    def test_a_malformed_file_value_names_its_line_and_key(self, tmp_path, capsys):
        config_file = tmp_path / "run.cfg"
        config_file.write_text("trials = 1\nvehicles = abc\n")
        code = main(["run", "--config", str(config_file), "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: line 2: vehicles: expected an integer, got 'abc'\n"
        )
        assert list(tmp_path.iterdir()) == [config_file]

    def test_engine_fault_is_not_a_config_error(self, tmp_path, monkeypatch):
        from vanetim.netsim import Engine

        def fault(self):
            raise ValueError("engine fault")

        monkeypatch.setattr(Engine, "run", fault)
        with pytest.raises(ValueError, match="engine fault"):
            main(["run", "--trials", "1", "--out-dir", str(tmp_path)])


class TestSweepAndReport:
    def test_minimal_sweep_and_report(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--scenario", "accident",
                "--densities", "19",
                "--trials", "1",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        csv_path = tmp_path / "sweep_accident.csv"
        lines = csv_path.read_text().splitlines()
        # 2 detail rows (one per policy) and 2 aggregate rows
        from vanetim.metrics import AGGREGATE_HEADER

        split = lines.index(AGGREGATE_HEADER)
        assert split - 1 == 2
        assert len(lines) - split - 1 == 2

        capsys.readouterr()
        assert main(["report", str(csv_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "hop4 >= fresh60 at all densities: PASS" in out

    def test_sweep_rows_equal_lone_trials(self):
        # each density's trials share one warm world; a lone trial steps its own
        from vanetim.metrics import SweepRow
        from vanetim.netsim import Engine

        config = RunConfig(densities=(19, 25), trials=2, seed=3)
        expected = [
            SweepRow("accident", policy, vehicles, trial, Engine(
                make_setup(config, policy=policy, vehicles=vehicles), 3 + trial
            ).run()[1].total)
            for vehicles in (19, 25) for policy in ("hop4", "fresh60")
            for trial in range(2)
        ]
        assert run_sweep(config).rows == expected

    def test_negative_density_is_config_error(self, tmp_path):
        code = main(["sweep", "--scenario", "diversion", "--densities=-5,19",
                     "--trials", "1", "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []

    def test_a_malformed_density_names_its_flag(self, tmp_path, capsys):
        code = main(["sweep", "--scenario", "accident", "--densities", "19,x",
                     "--trials", "1", "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: --densities: expected comma-separated integers, got '19,x'\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_repeated_density_is_config_error(self, tmp_path, capsys):
        # run twice, 19 would write each detail row and summary line twice
        # and read its stddev off four trials instead of two
        code = main(["sweep", "--scenario", "accident", "--densities", "19,19",
                     "--trials", "2", "--seed", "1", "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "densities: 19 is repeated" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_a_density_not_spawned_by_the_report_is_config_error(self, tmp_path, capsys):
        out_dir = tmp_path / "new"
        code = main(["sweep", "--scenario", "accident", "--densities", "19,230",
                     "--trials", "1", "--out-dir", str(out_dir)])
        assert code == EXIT_CONFIG
        assert "only 219 of 230 vehicles have spawned" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_run_sweep_warms_every_density_before_any_trial(self, monkeypatch):
        runs = stub_runs(monkeypatch)
        config = RunConfig(densities=(19, 79, 230), trials=1)
        with pytest.raises(ConfigError, match="only 219 of 230"):
            run_sweep(config)
        assert runs == []

    @pytest.mark.parametrize("argv, warmed", [
        (["run", "--trials", "1"], [19]),
        (["run", "--trials", "3"], [19]),
        (["sweep", "--densities", "19,25", "--trials", "2"], [19, 25]),
    ])
    def test_each_road_is_warmed_once(self, tmp_path, monkeypatch, argv, warmed):
        from vanetim import cli, netsim

        calls, warm_world = [], netsim.warm_world

        def counting(setup):
            calls.append(setup.vehicles)
            return warm_world(setup)

        for module in (cli, netsim):
            monkeypatch.setattr(module, "warm_world", counting)
        assert main(argv + ["--out-dir", str(tmp_path)]) == EXIT_OK
        assert calls == warmed

    def test_run_sweep_rejects_a_repeated_density(self):
        # the library path validates as `vanetim sweep` does, before any trial
        config = RunConfig(scenario="diversion", densities=(19, 19), trials=1)
        with pytest.raises(ConfigError, match="densities: 19 is repeated"):
            run_sweep(config)

    @pytest.mark.parametrize("args", [
        ["run", "--trials", "1", "--warmup", "500"],
        ["sweep", "--densities", "19", "--trials", "1", "--policy", "hop4"],
        ["sweep", "--densities", "19", "--trials", "1", "--vehicles", "50"],
        ["run", "--trials", "1", "--densities", "19"],
    ], ids=["run-warmup", "sweep-policy", "sweep-vehicles", "run-densities"])
    def test_a_flag_the_command_does_not_read_is_rejected(self, tmp_path, args):
        with pytest.raises(SystemExit) as exit_:
            main(args + ["--out-dir", str(tmp_path)])
        assert exit_.value.code == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, read, unread", [
        ("run", "trials = 1", "densities = 19"),
        ("sweep", "densities = 19\ntrials = 1", "policy = fresh60"),
        ("sweep", "densities = 19\ntrials = 1", "vehicles = 50"),
    ], ids=["run-densities", "sweep-policy", "sweep-vehicles"])
    def test_a_config_key_the_command_does_not_read_is_rejected(
        self, tmp_path, capsys, command, read, unread
    ):
        config_file = tmp_path / "unread.cfg"
        config_file.write_text(f"{read}\n{unread}\n")
        out_dir = tmp_path / "out"
        assert main([command, "--config", str(config_file),
                     "--out-dir", str(out_dir)]) == EXIT_CONFIG
        key = unread.split()[0]
        line = read.count("\n") + 2
        assert f"line {line}: this command does not read {key!r}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command, text", [
        ("run", "trials = 1\nloss = 0.1\nloss = 0.2\n"),
        ("sweep", "densities = 19\ntrials = 1\nloss = 0.1\nloss = 0.2\n"),
    ], ids=["run", "sweep"])
    def test_a_config_key_given_twice_is_rejected(self, tmp_path, capsys, command, text):
        config_file = tmp_path / "twice.cfg"
        config_file.write_text(text)
        out_dir = tmp_path / "out"
        assert main([command, "--config", str(config_file),
                     "--out-dir", str(out_dir)]) == EXIT_CONFIG
        last = text.count("\n")
        assert f"line {last}: 'loss' is already given on line {last - 1}" in (
            capsys.readouterr().err)
        assert not out_dir.exists()

    def test_sweep_requires_densities(self, tmp_path):
        code = main(["sweep", "--scenario", "accident", "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_report_flags_inverted_cell(self, tmp_path, capsys):
        from vanetim.metrics import AGGREGATE_HEADER, DETAIL_HEADER

        csv_path = tmp_path / "inverted.csv"
        csv_path.write_text(
            DETAIL_HEADER
            + "\n"
            + AGGREGATE_HEADER
            + "\naccident,hop4,19,100.0,0.0\naccident,fresh60,19,150.0,0.0\n"
        )
        assert main(["report", str(csv_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "violated at densities: 19" in out

    def test_report_keeps_scenarios_apart(self, tmp_path, capsys):
        from vanetim.metrics import AGGREGATE_HEADER, DETAIL_HEADER

        csv_path = tmp_path / "two.csv"
        csv_path.write_text(
            DETAIL_HEADER
            + "\n"
            + AGGREGATE_HEADER
            + "\naccident,hop4,19,200.0,0.0\naccident,fresh60,19,150.0,0.0"
            + "\nflood,hop4,19,100.0,0.0\nflood,fresh60,19,120.0,0.0\n"
        )
        assert main(["report", str(csv_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "accident   19 vehicles: mean(hop4)=200.0 mean(fresh60)=150.0" in out
        assert "flood   19 vehicles: mean(hop4)=100.0 mean(fresh60)=120.0" in out
        assert "accident: hop4 >= fresh60 at all densities: PASS" in out
        assert "flood: hop4 >= fresh60 violated at densities: 19" in out

    def test_report_passes_no_scenario_it_could_not_compare(self, tmp_path, capsys):
        from vanetim.metrics import AGGREGATE_HEADER, DETAIL_HEADER

        hop4_only = "\naccident,hop4,19,100.0,0.0"
        csv_path = tmp_path / "hop4.csv"
        csv_path.write_text(DETAIL_HEADER + "\n" + AGGREGATE_HEADER + hop4_only + "\n")
        assert main(["report", str(csv_path)]) == EXIT_CONFIG
        out = capsys.readouterr().out
        assert "accident: no density has both hop4 and fresh60; nothing compared" in out
        assert "PASS" not in out

        # one comparable scenario is enough to report
        csv_path.write_text(
            DETAIL_HEADER + "\n" + AGGREGATE_HEADER + hop4_only
            + "\nflood,hop4,19,130.0,0.0\nflood,fresh60,19,120.0,0.0\n"
        )
        assert main(["report", str(csv_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "accident: hop4 >= fresh60" not in out
        assert "flood: hop4 >= fresh60 at all densities: PASS" in out

    @pytest.mark.parametrize("mean, stddev", [
        ("nan", "0.0"), ("inf", "0.0"), ("200.0", "nan"),
    ], ids=["nan-mean", "inf-mean", "nan-stddev"])
    def test_report_rejects_a_non_finite_aggregate(self, tmp_path, capsys, mean, stddev):
        from vanetim.metrics import AGGREGATE_HEADER, DETAIL_HEADER

        # a NaN mean compares false both ways, so it would read as a PASS
        csv_path = tmp_path / "nan.csv"
        csv_path.write_text(
            DETAIL_HEADER + "\n" + AGGREGATE_HEADER
            + f"\naccident,hop4,19,{mean},{stddev}\naccident,fresh60,19,150.0,0.0\n"
        )
        assert main(["report", str(csv_path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"{csv_path}:3: non-finite mean or stddev" in captured.err
        assert "PASS" not in captured.out

    def test_report_rejects_an_aggregate_given_twice(self, tmp_path, capsys):
        from vanetim.metrics import AGGREGATE_HEADER, DETAIL_HEADER

        # the failing first row must not be hidden by a later one
        csv_path = tmp_path / "twice.csv"
        csv_path.write_text(
            DETAIL_HEADER + "\n" + AGGREGATE_HEADER
            + "\naccident,hop4,19,100.0,0.0\naccident,fresh60,19,150.0,0.0"
            + "\naccident,hop4,19,200.0,0.0\n"
        )
        assert main(["report", str(csv_path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"{csv_path}:5: aggregate given twice" in captured.err
        assert "PASS" not in captured.out

    def test_report_rejects_an_aggregate_its_detail_rows_contradict(
        self, tmp_path, capsys
    ):
        from vanetim.metrics import AGGREGATE_HEADER, DETAIL_HEADER

        # the details give hop4 100 and fresh60 150; the aggregates would pass
        csv_path = tmp_path / "contradicted.csv"
        csv_path.write_text(
            DETAIL_HEADER
            + "\naccident,hop4,19,0,100\naccident,fresh60,19,0,150\n"
            + AGGREGATE_HEADER
            + "\naccident,hop4,19,200.0,0.0\naccident,fresh60,19,150.0,0.0\n"
        )
        assert main(["report", str(csv_path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"{csv_path}:5: aggregate 200.0, 0.0 is not the mean and stddev" in (
            captured.err)
        assert "PASS" not in captured.out

    def test_report_empty_aggregates(self, tmp_path):
        from vanetim.metrics import AGGREGATE_HEADER, DETAIL_HEADER

        csv_path = tmp_path / "empty.csv"
        csv_path.write_text(DETAIL_HEADER + "\n" + AGGREGATE_HEADER + "\n")
        assert main(["report", str(csv_path)]) == EXIT_CONFIG

    def test_report_missing_file(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.csv")]) == EXIT_IO
