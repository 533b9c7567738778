"""End-to-end benchmark phases: sorted bulk build, threaded retrieval,
byte-equality verification, and report formatting.

The build phase external-sorts the corpus by encoded key before insertion,
so similar files land adjacently regardless of input order. Retrieval starts
exactly p worker threads and thread i runs queries i, i + p, i + 2p, ...;
every query executes exactly once, so total returned bytes are independent
of p. The configuration matrix is composed by the CLI (`build`, then
`query --csv` per workload and thread count, then `report`).
"""

import logging
import threading
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import extsort
from .corpus import canonical_filename, parse_record_stream
from .engine import Engine, StoreConfig, open_store
from .errors import IntegrityError
from .keys import derive_key
from .metrics import NullProbe, PowercapProbe, ReportRow, measure
from .workload import Distribution, WorkloadSpec, make_batches, sample

logger = logging.getLogger(__name__)

KIB = 1024

# A failed verify names at most this many missing or mismatched content ids.
VERIFY_DETAIL_IDS = 20


def corpus_key_value_pairs(corpus_path) -> Iterable[tuple[bytes, bytes]]:
    """Stream (encoded key, content) pairs from a JSONL corpus."""
    with open(corpus_path, "rb") as stream:
        for record in parse_record_stream(stream):
            name = canonical_filename(record.filename_candidates)
            key = derive_key(name, record.content_id)
            yield key.encoded(), record.content


def build_store(
    corpus_path,
    config: StoreConfig,
    *,
    probe: NullProbe | PowercapProbe | None = None,
    tmp_dir=None,
    keep_open: bool = False,
) -> tuple[ReportRow, Engine | None]:
    """Sort the corpus by key, bulk-insert into a fresh store, flush+compact.

    Returns the build report row and, when keep_open is set, the live engine
    (otherwise it is closed and None is returned).
    """
    engine_holder: list[Engine] = []

    def phase() -> int:
        engine = open_store(config)
        engine_holder.append(engine)
        inserted = 0
        for key, content in extsort.sorted_pairs(
            corpus_key_value_pairs(corpus_path), tmp_dir=tmp_dir
        ):
            engine.put_encoded(key, content)
            inserted += len(content)
        engine.flush()
        engine.compact()
        return inserted

    measurement = measure(phase, probe=probe, repeats=1)
    engine = engine_holder[-1]
    stats = engine.stats()
    if measurement.bytes_processed == 0:
        logger.warning("corpus %s contained no records; store is empty", corpus_path)
    row = ReportRow.from_measurement(
        measurement,
        phase="build",
        codec=config.codec.algorithm.label,
        level=config.codec.level,
        block_kib=config.target_block_size / KIB,
        threads=config.compaction_threads,
        ratio=stats["ratio"],
    )
    if keep_open:
        return row, engine
    engine.close()
    return row, None


def _run_queries(engine: Engine, items: Sequence, threads: int, batched: bool) -> int:
    """Run each item once on exactly `threads` threads, thread i taking
    items[i::threads], and return the value bytes read. An item is one key,
    or a list of keys when batched. A failure in any thread is raised once
    all threads have finished."""
    totals = [0] * threads
    failure: list[BaseException] = []

    def worker(slot: int) -> None:
        try:
            for item in items[slot::threads]:
                values = engine.multi_get_encoded(item) if batched else [engine.get_encoded(item)]
                for value in values:
                    if value is None:
                        raise IntegrityError("hit-only workload got an absent key")
                    totals[slot] += len(value)
        except BaseException as exc:
            failure.append(exc)

    workers = [threading.Thread(target=worker, args=(slot,), daemon=True) for slot in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    if failure:
        raise failure[0]
    return sum(totals)


def query_store(
    engine: Engine,
    *,
    distribution: Distribution,
    num_queries: int,
    batch_size: int = 1,
    threads: int = 1,
    seed: int = 1,
    repeats: int = 1,
    probe: NullProbe | PowercapProbe | None = None,
    universe: Sequence[bytes] | None = None,
) -> ReportRow:
    """Sample a hit-only workload from live keys and run it on p threads."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if universe is None:
        universe = list(engine.live_keys())
    spec = WorkloadSpec(
        distribution=distribution,
        num_queries=num_queries,
        seed=seed,
        batch_size=batch_size,
        universe=universe,
    )
    keys = sample(spec)
    batched = batch_size > 1
    items: Sequence = make_batches(keys, batch_size) if batched else keys
    measurement = measure(
        lambda: _run_queries(engine, items, threads, batched), probe=probe, repeats=repeats
    )
    stats = engine.stats()
    codec_spec, block_size = engine.effective_codec()
    return ReportRow.from_measurement(
        measurement,
        phase="multi_get" if batched else "get",
        codec=codec_spec.algorithm.label,
        level=codec_spec.level,
        block_kib=block_size / KIB,
        threads=threads,
        distribution=distribution.value,
        batch=batch_size,
        ratio=stats["ratio"],
    )


@dataclass
class VerifyReport:
    checked: int = 0
    missing: list[str] = field(default_factory=list)
    mismatched: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.missing and not self.mismatched

    def summary(self) -> str:
        if self.ok:
            return f"ok: {self.checked} values byte-identical"
        return (
            f"DIFF: {self.checked} checked, {len(self.missing)} missing, "
            f"{len(self.mismatched)} mismatched; first ids: "
            f"{(self.missing + self.mismatched)[:VERIFY_DETAIL_IDS]}"
        )


def verify_store(engine: Engine, corpus_path) -> VerifyReport:
    """Byte-equality audit of every corpus value against the store."""
    report = VerifyReport()
    with open(corpus_path, "rb") as stream:
        for record in parse_record_stream(stream):
            name = canonical_filename(record.filename_candidates)
            key = derive_key(name, record.content_id)
            value = engine.get(key)
            report.checked += 1
            if value is None:
                report.missing.append(record.content_id)
            elif value != record.content:
                report.mismatched.append(record.content_id)
    return report


def format_table(rows: Sequence[ReportRow]) -> str:
    """Human-readable aligned table of report rows."""
    headers = [
        "phase", "codec", "level", "block_kib", "threads", "dist", "batch",
        "mib_per_s", "mb_per_j", "ratio",
    ]
    grid = [headers]
    for r in rows:
        grid.append(
            [
                r.phase,
                r.codec,
                str(r.level),
                f"{r.block_kib:g}",
                str(r.threads),
                r.distribution or "-",
                str(r.batch),
                f"{r.mib_per_s:.2f}",
                f"{r.mb_per_j:.2f}" if r.mb_per_j is not None else "-",
                f"{r.ratio:.4f}" if r.ratio is not None else "-",
            ]
        )
    widths = [max(len(row[i]) for row in grid) for i in range(len(headers))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in grid
    ]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)

