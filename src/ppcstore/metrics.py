"""Wall-time and energy measurement, derived rates, and Pareto analysis.

Energy comes from PowercapProbe, the package-level counters the kernel
exposes under /sys/class/powercap; where there are none, NullProbe keeps
every measurement time-only, so the whole benchmark pipeline runs on
machines without counter access.
Units follow the split convention: MiB/s (2^20) for throughput and MB/J
(10^6) for energy efficiency.
"""

import csv
import glob
import os
import time
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence, get_args

from .errors import ReportFieldError

MICROJOULE = 1e-6


class NullProbe:
    """No energy counter: measure() stays time-only."""

    available = False

    def read(self) -> float:
        return 0.0


class PowercapProbe:
    """Package-domain energy from /sys/class/powercap (RAPL-style).

    read() is a cumulative joule count that never decreases: each domain's
    raw microjoule counter wraps at its range, and deltas are accumulated
    with modular wrap correction. _read_raw() returns the raw
    (value_uj, range_uj) pairs, one per domain.
    """

    def __init__(self, base: str = "/sys/class/powercap"):
        self._last: list[int] | None = None
        self._total_uj = 0
        self._domains: list[tuple[str, int]] = []
        for name_path in sorted(glob.glob(os.path.join(base, "*", "name"))):
            try:
                with open(name_path) as f:
                    domain_name = f.read().strip()
                if not domain_name.startswith("package"):
                    continue
                domain_dir = os.path.dirname(name_path)
                energy_path = os.path.join(domain_dir, "energy_uj")
                with open(energy_path) as f:
                    int(f.read().strip())
                with open(os.path.join(domain_dir, "max_energy_range_uj")) as f:
                    wrap_range = int(f.read().strip())
                self._domains.append((energy_path, wrap_range))
            except (OSError, ValueError):
                continue
        self.available = bool(self._domains)

    def read(self) -> float:
        raws = self._read_raw()
        values = [v for v, _ in raws]
        if self._last is not None:
            for (value, wrap_range), last in zip(raws, self._last):
                if value >= last:
                    self._total_uj += value - last
                else:
                    # counter wrapped between reads
                    self._total_uj += (wrap_range - last) + value
        self._last = values
        return self._total_uj * MICROJOULE

    def _read_raw(self) -> list[tuple[int, int]]:
        out = []
        for energy_path, wrap_range in self._domains:
            with open(energy_path) as f:
                out.append((int(f.read().strip()), wrap_range))
        return out


def auto_probe(mode: str = "auto") -> NullProbe | PowercapProbe:
    """'auto' picks powercap when readable, otherwise the null probe."""
    if mode == "off":
        return NullProbe()
    probe = PowercapProbe()
    return probe if probe.available else NullProbe()


@dataclass(slots=True)
class Measurement:
    """Averaged timing/energy for one benchmark phase."""

    wall_seconds: float
    bytes_processed: int
    joules: float | None
    run_count: int


def measure(
    phase: Callable[[], int],
    probe: NullProbe | PowercapProbe | None = None,
    repeats: int = 1,
) -> Measurement:
    """Run phase() repeats times; report mean wall time and energy delta.

    The phase returns its own byte count. A missing or unavailable probe
    yields a time-only measurement, never a failure.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    use_energy = probe is not None and probe.available
    times: list[float] = []
    joules: list[float] = []
    bytes_processed = 0
    for _ in range(repeats):
        e0 = probe.read() if use_energy else 0.0
        t0 = time.perf_counter()
        bytes_processed = phase()
        elapsed = time.perf_counter() - t0
        if use_energy:
            joules.append(probe.read() - e0)
        times.append(max(elapsed, 1e-9))
    return Measurement(
        wall_seconds=sum(times) / repeats,
        bytes_processed=bytes_processed,
        joules=(sum(joules) / repeats) if use_energy else None,
        run_count=repeats,
    )


def throughput_mib_s(m: Measurement) -> float:
    return m.bytes_processed / (1 << 20) / m.wall_seconds


def efficiency_mb_j(m: Measurement) -> float | None:
    if m.joules is None or m.joules <= 0:
        return None
    return m.bytes_processed / 1e6 / m.joules


@dataclass(slots=True)
class ReportRow:
    """One cell of the benchmark matrix, as persisted to CSV."""

    phase: str
    codec: str
    level: int
    block_kib: float
    threads: int
    distribution: str
    batch: int
    runs: int
    bytes: int
    seconds: float
    joules: float | None
    mib_per_s: float
    mb_per_j: float | None
    ratio: float | None

    @classmethod
    def from_measurement(
        cls,
        m: Measurement,
        *,
        phase: str,
        codec: str,
        level: int,
        block_kib: float,
        threads: int = 1,
        distribution: str = "",
        batch: int = 1,
        ratio: float | None = None,
    ) -> "ReportRow":
        return cls(
            phase=phase,
            codec=codec,
            level=level,
            block_kib=block_kib,
            threads=threads,
            distribution=distribution,
            batch=batch,
            runs=m.run_count,
            bytes=m.bytes_processed,
            seconds=m.wall_seconds,
            joules=m.joules,
            mib_per_s=throughput_mib_s(m),
            mb_per_j=efficiency_mb_j(m),
            ratio=ratio,
        )


CSV_HEADER = [f.name for f in fields(ReportRow)]

# (column, type, may be empty): a field typed T | None reads an empty cell
# as None; every other cell must parse as its field's type.
_COLUMNS = [(f.name, (get_args(f.type) or (f.type,))[0], bool(get_args(f.type))) for f in fields(ReportRow)]


def _format_cell(value) -> str:
    # str(float) is the shortest text that reads back as the same float
    return "" if value is None else str(value)


def write_report_csv(path, rows: Iterable[ReportRow]) -> None:
    with open(path, "w", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([_format_cell(getattr(row, name)) for name in CSV_HEADER])


def read_report_csv(path) -> list[ReportRow]:
    rows: list[ReportRow] = []
    with open(path, newline="") as f:
        for number, record in enumerate(csv.DictReader(f), start=1):
            values = {}
            for name, kind, optional in _COLUMNS:
                cell = record.get(name) or ""  # a short row's missing cells are empty
                try:
                    values[name] = None if optional and not cell else kind(cell)
                except ValueError:
                    raise ReportFieldError(
                        f"{path}: row {number}, column {name!r}: cannot read {cell!r} as {kind.__name__}"
                    ) from None
            rows.append(ReportRow(**values))
    return rows


def _objective_value(row, name: str):
    if isinstance(row, dict):
        value = row.get(name)
    else:
        value = getattr(row, name, None)
    if value is None:
        raise ReportFieldError(f"row {row!r} is missing objective field {name!r}")
    return value


def pareto_frontier(rows: Sequence, objectives: Sequence[tuple[str, str]]) -> list:
    """Rows not dominated on the given (field, 'min'|'max') objectives.

    A row dominates another when it is at least as good on every objective
    and strictly better on one; identical rows never dominate each other.
    Input order is preserved.
    """
    for _, direction in objectives:
        if direction not in ("min", "max"):
            raise ValueError(f"objective direction must be 'min' or 'max', got {direction!r}")
    values = [
        tuple(
            _objective_value(row, name) if direction == "min" else -_objective_value(row, name)
            for name, direction in objectives
        )
        for row in rows
    ]

    def dominates(a: tuple, b: tuple) -> bool:
        return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))

    return [
        row
        for i, row in enumerate(rows)
        if not any(dominates(values[j], values[i]) for j in range(len(rows)) if j != i)
    ]
