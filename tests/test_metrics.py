"""Measurement, energy probes, unit conversions, CSV, Pareto frontier."""

import random
import time

import pytest

from ppcstore.errors import ReportFieldError
from ppcstore.metrics import (
    CSV_HEADER,
    Measurement,
    NullProbe,
    PowercapProbe,
    ReportRow,
    auto_probe,
    efficiency_mb_j,
    measure,
    pareto_frontier,
    read_report_csv,
    throughput_mib_s,
    write_report_csv,
)

from conftest import FakeProbe


class TestMeasure:
    def test_sleep_phase_with_null_probe_is_time_only(self):
        def phase() -> int:
            time.sleep(0.1)
            return 12345

        m = measure(phase, probe=NullProbe(), repeats=1)
        assert m.joules is None
        assert m.bytes_processed == 12345
        assert 0.08 <= m.wall_seconds <= 0.5  # scheduler noise allowed upward

    def test_no_probe_at_all(self):
        m = measure(lambda: 1, probe=None)
        assert m.joules is None and m.run_count == 1

    def test_repeats_average(self):
        calls = []

        def phase() -> int:
            calls.append(1)
            return 100

        m = measure(phase, probe=NullProbe(), repeats=5)
        assert m.run_count == 5 and len(calls) == 5

    def test_fake_probe_delta(self):
        # two reads per run: 1_000_000 uJ apart -> 1 J per run
        probe = FakeProbe([5_000_000, 6_000_000], wrap_range_uj=2**32)
        m = measure(lambda: 10, probe=probe, repeats=1)
        assert m.joules == pytest.approx(1.0)

    def test_counter_wrap_yields_positive_injected_delta(self):
        # raw counter wraps at 2^32 uJ between the two reads; the true
        # consumption is (range - first) + second = 3_000_000 uJ = 3 J
        wrap = 2**32
        probe = FakeProbe([wrap - 2_000_000, 1_000_000], wrap_range_uj=wrap)
        m = measure(lambda: 1, probe=probe, repeats=1)
        assert m.joules == pytest.approx(3.0)
        assert m.joules > 0

    def test_probe_reads_are_monotone_across_wrap(self):
        wrap = 1_000_000
        probe = FakeProbe([900_000, 100_000, 300_000], wrap_range_uj=wrap)
        readings = [probe.read() for _ in range(3)]
        assert readings == sorted(readings)

    def test_zero_repeats_rejected(self):
        with pytest.raises(ValueError):
            measure(lambda: 1, repeats=0)


class TestUnits:
    def test_one_gib_in_two_seconds_is_512_mib_s(self):
        m = Measurement(wall_seconds=2.0, bytes_processed=1 << 30, joules=None, run_count=1)
        assert throughput_mib_s(m) == pytest.approx(512.0)

    def test_efficiency_uses_decimal_megabytes(self):
        m = Measurement(wall_seconds=1.0, bytes_processed=10_000_000, joules=5.0, run_count=1)
        assert efficiency_mb_j(m) == pytest.approx(2.0)

    def test_efficiency_undefined_without_energy(self):
        m = Measurement(wall_seconds=1.0, bytes_processed=100, joules=None, run_count=1)
        assert efficiency_mb_j(m) is None


class TestProbes:
    def test_auto_off_is_null(self):
        assert isinstance(auto_probe("off"), NullProbe)

    def test_auto_probe_is_usable_by_measure(self):
        probe = auto_probe("auto")
        assert isinstance(probe.available, bool)
        m = measure(lambda: 7, probe=probe, repeats=2)
        assert m.bytes_processed == 7
        assert (m.joules is None) == (not probe.available)

    def test_auto_falls_back_to_null_when_no_counters(self, tmp_path):
        probe = PowercapProbe(base=str(tmp_path))  # empty dir: no domains
        assert not probe.available

    def test_powercap_parses_package_domains(self, tmp_path):
        domain = tmp_path / "intel-rapl:0"
        domain.mkdir()
        (domain / "name").write_text("package-0\n")
        (domain / "energy_uj").write_text("123456\n")
        (domain / "max_energy_range_uj").write_text("262143328850\n")
        other = tmp_path / "intel-rapl:0:0"
        other.mkdir()
        (other / "name").write_text("core\n")  # non-package: ignored
        (other / "energy_uj").write_text("1\n")
        (other / "max_energy_range_uj").write_text("100\n")
        probe = PowercapProbe(base=str(tmp_path))
        assert probe.available
        probe.read()
        (domain / "energy_uj").write_text("234567\n")
        assert probe.read() == pytest.approx((234567 - 123456) * 1e-6)


def row(ratio: float, thr: float, phase: str = "build") -> ReportRow:
    return ReportRow(
        phase=phase, codec="zstd", level=3, block_kib=64, threads=1,
        distribution="", batch=1, runs=1, bytes=1000, seconds=1.0,
        joules=None, mib_per_s=thr, mb_per_j=None, ratio=ratio,
    )


OBJECTIVES = (("ratio", "min"), ("mib_per_s", "max"))


class TestParetoFrontier:
    def test_build_metric_three_row_example(self):
        # ratios/throughputs of the three published build configurations;
        # the third is dominated by the first (worse ratio, lower speed)
        rows = [row(0.1905, 446.67), row(0.1549, 157.75), row(0.1985, 190.28)]
        frontier = pareto_frontier(rows, OBJECTIVES)
        assert frontier == rows[:2]

    def test_single_row_is_its_own_frontier(self):
        rows = [row(0.5, 10.0)]
        assert pareto_frontier(rows, OBJECTIVES) == rows

    def test_identical_rows_both_retained(self):
        rows = [row(0.3, 100.0), row(0.3, 100.0)]
        assert pareto_frontier(rows, OBJECTIVES) == rows

    def test_idempotent(self):
        rnd = random.Random(17)
        rows = [row(rnd.uniform(0.1, 0.9), rnd.uniform(10, 500)) for _ in range(200)]
        frontier = pareto_frontier(rows, OBJECTIVES)
        assert pareto_frontier(frontier, OBJECTIVES) == frontier

    def test_every_excluded_row_is_dominated_by_a_retained_row(self):
        """Brute-force dominance oracle over random rows."""
        rnd = random.Random(23)
        rows = [row(rnd.uniform(0.1, 0.9), rnd.uniform(10, 500)) for _ in range(300)]
        frontier = pareto_frontier(rows, OBJECTIVES)
        retained = set(map(id, frontier))

        def dominates(a: ReportRow, b: ReportRow) -> bool:
            return (
                a.ratio <= b.ratio
                and a.mib_per_s >= b.mib_per_s
                and (a.ratio < b.ratio or a.mib_per_s > b.mib_per_s)
            )

        for candidate in rows:
            if id(candidate) in retained:
                assert not any(dominates(other, candidate) for other in rows)
            else:
                assert any(dominates(keeper, candidate) for keeper in frontier)

    def test_stable_input_order(self):
        rows = [row(0.2, 100.0), row(0.1, 50.0), row(0.15, 75.0)]
        frontier = pareto_frontier(rows, OBJECTIVES)
        assert frontier == [rows[0], rows[1], rows[2]]

    def test_missing_field_reported(self):
        rows = [row(0.2, 100.0), row(None, 50.0)]
        with pytest.raises(ReportFieldError):
            pareto_frontier(rows, OBJECTIVES)

    def test_three_objectives(self):
        a = row(0.2, 100.0)
        a.joules = 10.0
        b = row(0.2, 100.0)
        b.joules = 5.0
        frontier = pareto_frontier([a, b], OBJECTIVES + (("joules", "min"),))
        assert frontier == [b]

    def test_works_on_dicts(self):
        rows = [{"x": 1, "y": 5}, {"x": 2, "y": 4}, {"x": 3, "y": 5}]
        frontier = pareto_frontier(rows, [("x", "min"), ("y", "max")])
        assert frontier == [{"x": 1, "y": 5}]


class TestCsv:
    def test_roundtrip_with_and_without_energy(self, tmp_path):
        rows = [row(0.25, 123.4), row(None, 5.0, phase="get")]
        rows[1].joules = 7.5
        rows[1].mb_per_j = 2.5
        path = tmp_path / "report.csv"
        write_report_csv(path, rows)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_HEADER)
        loaded = read_report_csv(path)
        assert loaded == rows
        assert loaded[0].ratio == pytest.approx(0.25)
        assert loaded[0].joules is None
        assert loaded[1].joules == pytest.approx(7.5)
        assert loaded[1].ratio is None

    def test_measured_floats_round_trip_exactly(self, tmp_path):
        measured = row(0.2748951757898419, 146.31415926535)
        measured.seconds = 0.123456789
        path = tmp_path / "r.csv"
        write_report_csv(path, [measured])
        assert read_report_csv(path) == [measured]

    def test_empty_energy_fields_are_empty_strings(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report_csv(path, [row(0.5, 10.0)])
        line = path.read_text().splitlines()[1]
        cells = line.split(",")
        assert cells[CSV_HEADER.index("joules")] == ""
        assert cells[CSV_HEADER.index("mb_per_j")] == ""

    @pytest.mark.parametrize(
        "column, cell", [("level", "x3"), ("level", ""), ("threads", ""), ("seconds", "fast")]
    )
    def test_bad_or_empty_required_cell_names_row_and_column(self, tmp_path, column, cell):
        path = tmp_path / "r.csv"
        write_report_csv(path, [row(0.5, 10.0), row(0.4, 20.0)])
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[CSV_HEADER.index(column)] = cell
        path.write_text("\n".join(lines[:2] + [",".join(cells)]) + "\n")
        with pytest.raises(ReportFieldError, match=f"row 2, column '{column}'"):
            read_report_csv(path)
