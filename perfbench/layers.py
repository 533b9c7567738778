"""Per-layer metrics of a traced run, from span aggregates and the
workload's own counters.

Read-path figures (sstable.get, pread, CRC, decompress) use only spans whose
op started at Engine.get_encoded (single gets) or, for decompression, at
Engine.multi_get_encoded as well; that keeps the block reads of compaction
and key scans out of them. Write-path figures use every span of their name.
"""

from spans import analyze

US, S = 1e-3, 1e-9  # ns -> us, ns -> s

GET_ROOTS = ("engine.get",)
READ_ROOTS = ("engine.get", "engine.multiget")

# name -> (unit, better); BENCHMARK.json lists the same names and units.
LAYER_METRICS = {
    "engine.get.self_us": ("us", "lower"),
    "engine.get.tables_probed": ("count", "lower"),
    "engine.l0_tables": ("count", "lower"),
    "engine.multiget.self_us": ("us", "lower"),
    "engine.put.self_us": ("us", "lower"),
    "engine.flush.s": ("s", "lower"),
    "engine.flush.count": ("count", "lower"),
    "engine.compact.self_s": ("s", "lower"),
    "sstable.get.self_us": ("us", "lower"),
    "sstable.load_block.self_us": ("us", "lower"),
    "sstable.blocks_per_get": ("count", "lower"),
    "sstable.decompressed_per_returned_byte": ("ratio", "lower"),
    "sstable.multiget_keys_per_block": ("count", "higher"),
    "sstable.build_table.self_s": ("s", "lower"),
    "sstable.pread_us": ("us", "lower"),
    "sstable.crc_us": ("us", "lower"),
    "bloom.might_contain_us": ("us", "lower"),
    "bloom.negative_ratio": ("ratio", "higher"),
    "bloom.false_positive_ratio": ("ratio", "lower"),
    "bloom.build_s": ("s", "lower"),
    "codec.decompress_us": ("us", "lower"),
    "codec.decompress_mib_s": ("MiB/s", "higher"),
    "codec.compress_busy_s": ("s", "lower"),
    "codec.compress_mib_s": ("MiB/s", "higher"),
    "wal.append_us": ("us", "lower"),
    "wal.bytes_per_user_byte": ("ratio", "lower"),
    "extsort.self_s": ("s", "lower"),
    "corpus.parse_s": ("s", "lower"),
    "keys.derive_key_s": ("s", "lower"),
    "process.cpu_per_wall": ("ratio", "higher"),
    "process.invol_cs_per_kop": ("count", "lower"),
    "io.read_syscalls_per_get": ("count", "lower"),
    "trace.spans": ("count", "lower"),
}

# end-to-end name -> unit
END_TO_END = {
    "setup_s": "s",
    "mib_per_cpu_s": "MiB/cpu-s",
    "ratio": "ratio",
    "write_amp": "ratio",
    "peak_rss_mib": "MiB",
    "get_mib_s_p1": "MiB/s",
    "get_mib_s_p2": "MiB/s",
    "get_p50_us": "us",
    "get_p90_us": "us",
    "multiget_mib_s": "MiB/s",
}

# Tracing overhead is reported for these as trace.overhead.<name> = traced
# value - untraced value, in the metric's unit; ratio and write_amp do not
# depend on timing.
OVERHEAD = [name for name in END_TO_END if name not in ("ratio", "write_amp")]


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


class _Spans:
    def __init__(self, by_name):
        self._by_name = by_name

    def total(self, name: str, field: str, roots=None) -> float:
        return sum(
            getattr(agg, field)
            for (n, root), agg in self._by_name.items()
            if n == name and (roots is None or root in roots)
        )

    def mean(self, name: str, field: str = "dur", roots=None, per: str = "count") -> float:
        return _div(self.total(name, field, roots), self.total(name, per, roots))


def layer_metrics(tracer, counters: dict) -> dict[str, float]:
    analysis = analyze(tracer)
    sp, extra, c = _Spans(analysis["by_name"]), analysis["extra"], counters
    builds = sp.total("bench.build_store", "count")
    table_builds = sp.total("sstable.build_table", "count")
    bloom_true = sp.total("bloom.might_contain", "aux")
    bloom_calls = sp.total("bloom.might_contain", "count")
    return {
        "engine.get.self_us": sp.mean("engine.get", "self") * US,
        "engine.get.tables_probed": _div(extra.get("engine.get.sstable_probes", 0),
                                         sp.total("engine.get", "count")),
        "engine.l0_tables": _div(c.get("l0_sum", 0), c.get("l0_n", 0)),
        "engine.multiget.self_us": sp.mean("engine.multiget", "self") * US,
        "engine.put.self_us": sp.mean("engine.put", "self") * US,
        "engine.flush.s": sp.mean("engine.flush", "parent_dur", per="parents") * S,
        "engine.flush.count": sp.total("engine.flush", "parents"),
        "engine.compact.self_s": sp.mean("engine.compact", "parent_self", per="parents") * S,
        "sstable.get.self_us": sp.mean("sstable.get", "self", GET_ROOTS) * US,
        "sstable.load_block.self_us": sp.mean("sstable.load_block", "self") * US,
        "sstable.blocks_per_get": _div(c.get("get_blocks", 0), c.get("get_ops", 0)),
        "sstable.decompressed_per_returned_byte": _div(c.get("get_raw_bytes", 0),
                                                       c.get("get_returned_bytes", 0)),
        "sstable.multiget_keys_per_block": _div(c.get("multiget_distinct_found", 0),
                                                c.get("multiget_blocks", 0)),
        "sstable.build_table.self_s": sp.mean("sstable.build_table", "self") * S,
        "sstable.pread_us": sp.mean("sstable.pread", roots=GET_ROOTS) * US,
        "sstable.crc_us": sp.mean("sstable.crc", roots=GET_ROOTS) * US,
        "bloom.might_contain_us": sp.mean("bloom.might_contain") * US,
        "bloom.negative_ratio": _div(bloom_calls - bloom_true, bloom_calls),
        "bloom.false_positive_ratio": _div(extra.get("bloom.false_positives", 0), bloom_true),
        "bloom.build_s": sp.mean("bloom.build") * S,
        "codec.decompress_us": sp.mean("codec.decompress", roots=READ_ROOTS) * US,
        "codec.decompress_mib_s": _div(sp.total("codec.decompress", "aux", READ_ROOTS) / (1 << 20),
                                       sp.total("codec.decompress", "dur", READ_ROOTS) * S),
        "codec.compress_busy_s": _div(sp.total("codec.compress", "dur") * S, table_builds),
        "codec.compress_mib_s": _div(sp.total("codec.compress", "aux") / (1 << 20),
                                     sp.total("codec.compress", "dur") * S),
        "wal.append_us": sp.mean("wal.append") * US,
        "wal.bytes_per_user_byte": _div(sp.total("wal.append", "aux"),
                                        sp.total("engine.put", "aux")),
        "extsort.self_s": _div(sp.total("extsort", "self") * S, builds),
        "corpus.parse_s": _div(sp.total("corpus.parse", "dur") * S, builds),
        "keys.derive_key_s": _div(sp.total("keys.derive_key", "dur") * S, builds),
        "process.cpu_per_wall": _div(c.get("p2_cpu_s", 0), c.get("p2_wall_s", 0)),
        "process.invol_cs_per_kop": _div(c.get("p2_invol_cs", 0), c.get("p2_ops", 0) / 1000),
        "io.read_syscalls_per_get": _div(c.get("pass_syscr", 0), c.get("pass_gets", 0)),
        "trace.spans": tracer.span_count(),
    }
