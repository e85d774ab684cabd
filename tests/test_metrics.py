import pytest

from vanetim.domain import ActionSource, MessageKind, RoleKind
from vanetim.metrics import (
    AGGREGATE_HEADER,
    DETAIL_HEADER,
    SweepResult,
    SweepRow,
    TrialMetrics,
    aggregate,
    export_csv,
    parse_csv,
)

RSU = RoleKind.RSU
VEH = RoleKind.REGULAR_VEHICLE


class TestCounting:
    def test_rsu_burst_of_three(self):
        metrics = TrialMetrics()
        for _ in range(3):
            metrics.count(MessageKind.AVOID_ROAD, RSU, ActionSource.BURST)
        assert metrics.total == 3
        key = (MessageKind.AVOID_ROAD, RSU, ActionSource.BURST)
        assert metrics.counters == {key: 3}

    def test_vehicle_relay_increments_once(self):
        metrics = TrialMetrics()
        metrics.count(MessageKind.ACCIDENT, VEH, ActionSource.RELAY)
        assert metrics.total == 1

    def test_wired_excludable(self):
        metrics = TrialMetrics()
        metrics.count(MessageKind.ACCIDENT, RSU, ActionSource.WIRED)
        metrics.count(MessageKind.ACCIDENT, RSU, ActionSource.BURST)
        assert metrics.total == 2
        assert metrics.total_excluding_wired() == 1


class TestAggregate:
    def test_constant_series(self):
        assert aggregate([100, 100, 100, 100, 100]) == (100.0, 0.0)

    def test_hand_checkable(self):
        mean, stddev = aggregate([90, 100, 110])
        assert mean == 100.0
        assert stddev == pytest.approx(10.0)

    def test_single_trial_stddev_zero(self):
        assert aggregate([42]) == (42.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


def make_sweep(policies=2, densities=3, trials=5):
    sweep = SweepResult()
    for p in range(policies):
        for d in range(densities):
            for t in range(trials):
                sweep.add(
                    SweepRow("accident", f"policy{p}", 19 + 20 * d, t, 100 + 10 * p + t)
                )
    return sweep


class TestSweepCsv:
    def test_row_arithmetic(self, tmp_path):
        sweep = make_sweep()
        path = tmp_path / "sweep.csv"
        export_csv(sweep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == DETAIL_HEADER
        assert lines.count(AGGREGATE_HEADER) == 1
        split = lines.index(AGGREGATE_HEADER)
        assert split - 1 == 30  # 2 policies x 3 densities x 5 trials
        assert len(lines) - split - 1 == 6  # one aggregate row per cell

    def test_empty_sweep_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_csv(SweepResult(), path)
        assert path.read_text().splitlines() == [DETAIL_HEADER, AGGREGATE_HEADER]

    def test_round_trip(self, tmp_path):
        sweep = make_sweep()
        path = tmp_path / "sweep.csv"
        export_csv(sweep, path)
        parsed, aggregates = parse_csv(path)
        assert parsed.rows == sweep.rows
        assert aggregates == sweep.aggregates()

    def test_mean_matches_totals(self):
        sweep = make_sweep(trials=3)
        assert sweep.mean("accident", "policy0", 19) == pytest.approx(
            sum(sweep.totals("accident", "policy0", 19)) / 3
        )

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(DETAIL_HEADER + "\naccident,hop4,not-a-number,0,5\n")
        with pytest.raises(ValueError, match=":2:"):
            parse_csv(path)

    @pytest.mark.parametrize("header, row", [
        (DETAIL_HEADER, "accident,hop4,19,0,211,junk"),
        (DETAIL_HEADER, "accident,hop4,19,0"),
        (AGGREGATE_HEADER, "accident,hop4,19,211.0,3.5,junk"),
    ], ids=["detail-extra", "detail-short", "aggregate-extra"])
    def test_row_with_other_than_five_fields_rejected(self, tmp_path, header, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(ValueError, match=":2: malformed row"):
            parse_csv(path)

    def test_data_before_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("accident,hop4,19,0,5\n")
        with pytest.raises(ValueError, match=":1:"):
            parse_csv(path)

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError, match="cannot write"):
            export_csv(SweepResult(), tmp_path / "missing-dir" / "x.csv")
