"""Engine semantics: durability, shadowing, capacity, compaction, counters."""

import gc
import hashlib
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import threading
from bisect import bisect_right
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ppcstore import engine as engine_mod
from ppcstore.bloom import BloomFilter
from ppcstore.codec import Algorithm, CodecSpec
from ppcstore.engine import KIB, MIB, VALUE_CACHE_BYTES, Engine, StoreConfig, open_store
from ppcstore.errors import (
    CapacityError,
    ConfigError,
    IntegrityError,
    RecoveryError,
    SortViolationError,
    StoreError,
)
from ppcstore.keys import PpcKey
from ppcstore.sstable import SSTable, build_table

from conftest import V1_TABLE, add_crash_leftovers, file_digests, make_store_config


def key(i: int, ext: bytes = b"py") -> PpcKey:
    return PpcKey(ext, b"module_%05d" % i, b"id%05d" % i)


def fill(engine: Engine, n: int, value_size: int = 100, seed: int = 0) -> dict[PpcKey, bytes]:
    rnd = random.Random(seed)
    data = {}
    for i in range(n):
        value = rnd.randbytes(value_size)
        engine.put(key(i), value)
        data[key(i)] = value
    return data


class TestOpenAndConfig:
    def test_open_empty_dir_serves_nothing(self, store):
        assert store.get(key(1)) is None
        assert store.stats()["entry_count"] == 0

    def test_capacity_below_write_buffer_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            StoreConfig(
                data_dir=tmp_path,
                write_buffer_bytes=4 * MIB,
                capacity_m=2 * MIB,
            )

    def test_tiny_write_buffer_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            StoreConfig(data_dir=tmp_path, write_buffer_bytes=1024)

    def test_tiny_block_size_rejected_before_any_file_is_written(self, tmp_path):
        # a store that accepted it would ack WAL writes and then fail every flush
        d = tmp_path / "store"
        with pytest.raises(ConfigError):
            open_store(make_store_config(d, target_block_size=512))
        assert not d.exists()

    def test_corrupt_manifest_raises_recovery_error(self, tmp_path):
        d = tmp_path / "store"
        with open_store(make_store_config(d)) as engine:
            engine.put(key(1), b"x")
        (d / "MANIFEST").write_text("not a manifest\n")
        with pytest.raises(RecoveryError):
            open_store(make_store_config(d))

    def test_manifest_referencing_missing_table_raises(self, tmp_path):
        d = tmp_path / "store"
        with open_store(make_store_config(d)) as engine:
            engine.put(key(1), b"x")
            engine.flush()
        for entry in os.listdir(d):
            if entry.endswith(".ppcs"):
                os.unlink(d / entry)
                missing = entry
        with pytest.raises(RecoveryError, match=missing):
            open_store(make_store_config(d))

    def test_manifest_naming_a_table_outside_the_store_raises(self, tmp_path):
        other = tmp_path / "other"
        with open_store(make_store_config(other)) as engine:
            engine.put(key(1), b"other store's value")
            engine.flush()
        (foreign,) = [n for n in os.listdir(other) if n.endswith(".ppcs")]
        d = tmp_path / "store"
        with open_store(make_store_config(d)) as engine:
            engine.put(key(2), b"x")
            engine.flush()
        (d / "tbl-000900.ppcs").write_bytes(b"orphan")
        with open(d / "MANIFEST", "a") as f:
            f.write(f"l0 ../other/{foreign}\n")
        files = file_digests(d)
        with pytest.raises(RecoveryError, match="bad table name"):
            open_store(make_store_config(d))
        assert file_digests(d) == files
        assert (other / foreign).exists()

    @pytest.mark.parametrize("fault", ["reversed", "empty"])
    def test_manifest_listing_l1_out_of_key_order_raises(self, tmp_path, fault):
        d = tmp_path / "store"
        with open_store(make_store_config(d, write_buffer_bytes=1 * MIB)) as engine:
            fill(engine, 2_000, value_size=2_000)
            engine.flush()
            engine.compact()
            assert len(engine._tables[1]) >= 3
        lines = (d / "MANIFEST").read_text().splitlines()
        head = [line for line in lines if not line.startswith("l1 ")]
        l1 = [line for line in lines if line.startswith("l1 ")]
        if fault == "reversed":
            l1.reverse()
        else:
            build_table(d / "tbl-000950.ppcs", [], target_block_size=4096, codec=CodecSpec.parse("zstd:3"))
            l1.insert(1, "l1 tbl-000950.ppcs")
        (d / "MANIFEST").write_text("\n".join(head + l1) + "\n")
        (d / "tbl-000900.ppcs").write_bytes(b"orphan")
        files = file_digests(d)
        with pytest.raises(RecoveryError, match="empty or out of key order"):
            open_store(make_store_config(d))
        assert file_digests(d) == files

    @pytest.mark.parametrize("second", ["l0", "l1"])
    def test_manifest_naming_a_table_twice_raises(self, tmp_path, second):
        d = tmp_path / "store"
        with open_store(make_store_config(d)) as engine:
            engine.put(key(1), b"x")
            engine.flush()
        lines = (d / "MANIFEST").read_text().splitlines()
        (l0,) = [line for line in lines if line.startswith("l0 ")]
        with open(d / "MANIFEST", "a") as f:
            f.write(second + l0[2:] + "\n")
        (d / "tbl-000900.ppcs").write_bytes(b"orphan")
        files = file_digests(d)
        with pytest.raises(RecoveryError, match="named twice"):
            open_store(make_store_config(d))
        assert file_digests(d) == files

    def test_orphan_table_removed_at_next_flush(self, tmp_path):
        # a table written just before a crash, never committed to the manifest
        d = tmp_path / "store"
        with open_store(make_store_config(d)) as engine:
            engine.put(key(1), b"x")
            engine.flush()
        orphan = d / "tbl-000900.ppcs"
        orphan.write_bytes(b"leftover junk from a crashed flush")
        files = file_digests(d)
        with open_store(make_store_config(d)) as engine:
            assert engine.get(key(1)) == b"x"
            assert orphan.name not in engine.stats()["tables"]
        assert file_digests(d) == files  # a read session deletes nothing
        with open_store(make_store_config(d)) as engine:
            engine.put(key(2), b"y")
            engine.flush()
            assert not orphan.exists()
            assert engine.get(key(1)) == b"x" and engine.get(key(2)) == b"y"

    def test_manifest_listing_a_v1_table_raises_recovery_error(self, tmp_path):
        d = tmp_path / "store"
        d.mkdir()
        shutil.copy(V1_TABLE, d / "tbl-000001.ppcs")
        (d / "MANIFEST").write_text("ppcs-manifest v1\nseq 2\nl0 tbl-000001.ppcs\n")
        with pytest.raises(RecoveryError, match="version 1"):
            open_store(make_store_config(d))

    def test_effective_codec_reflects_stored_tables(self, tmp_path):
        d = tmp_path / "store"
        from ppcstore.codec import CodecSpec

        built = make_store_config(d, codec=CodecSpec.parse("zstd:9"), target_block_size=128 * KIB)
        with open_store(built) as engine:
            fill(engine, 50)
            engine.flush()
        # reopen with defaults: tables still report their build configuration
        with open_store(make_store_config(d)) as engine:
            codec, block = engine.effective_codec()
            assert str(codec) == "zstd:9" and block == 128 * KIB


class TestPutGetDelete:
    def test_put_then_get(self, store):
        store.put(key(1), b"hello")
        assert store.get(key(1)) == b"hello"

    def test_last_writer_wins(self, store):
        store.put(key(1), b"v1")
        store.put(key(1), b"v2")
        assert store.get(key(1)) == b"v2"

    def test_overwrite_survives_flush_boundary(self, store):
        store.put(key(1), b"old")
        store.flush()
        store.put(key(1), b"new")
        assert store.get(key(1)) == b"new"
        store.flush()
        assert store.get(key(1)) == b"new"

    def test_empty_value_round_trips(self, store):
        store.put(key(2), b"")
        assert store.get(key(2)) == b""
        store.flush()
        assert store.get(key(2)) == b""

    def test_delete_makes_absent(self, store):
        store.put(key(3), b"x")
        store.delete(key(3))
        assert store.get(key(3)) is None

    def test_delete_of_never_inserted_key_is_idempotent_ack(self, store):
        store.delete(key(99))
        assert store.get(key(99)) is None

    def test_delete_shadows_flushed_version(self, store):
        store.put(key(4), b"x")
        store.flush()
        store.delete(key(4))
        assert store.get(key(4)) is None
        store.flush()
        assert store.get(key(4)) is None

    def test_memtable_hit_shadows_older_table_version(self, store):
        store.put(key(5), b"table-version")
        store.flush()
        store.put(key(5), b"memtable-version")
        assert store.get(key(5)) == b"memtable-version"


class TestDurability:
    def test_reopen_after_clean_close(self, tmp_path):
        d = tmp_path / "store"
        with open_store(make_store_config(d)) as engine:
            data = fill(engine, 500)
        with open_store(make_store_config(d)) as engine:
            for k, v in data.items():
                assert engine.get(k) == v

    def test_abandoned_engine_recovers_from_wal(self, tmp_path):
        d = tmp_path / "store"
        engine = open_store(make_store_config(d))
        data = fill(engine, 200)
        del engine  # simulated crash: no close, no flush
        with open_store(make_store_config(d)) as engine:
            for k, v in data.items():
                assert engine.get(k) == v

    def test_kill_minus_nine_and_reopen(self, tmp_path):
        """1000 acknowledged puts survive a hard process exit (no cleanup)."""
        d = tmp_path / "store"
        script = f"""
import os, sys
from ppcstore.engine import StoreConfig, open_store
from ppcstore.keys import PpcKey
engine = open_store(StoreConfig(data_dir={str(d)!r}, write_buffer_bytes=64*1024*1024))
for i in range(1000):
    engine.put(PpcKey(b"py", b"m%05d" % i, b"id%05d" % i), b"payload-%05d" % i)
os._exit(9)  # no atexit, no buffers flushed, no close()
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 9, proc.stderr
        with open_store(make_store_config(d)) as engine:
            for i in range(1000):
                assert engine.get(PpcKey(b"py", b"m%05d" % i, b"id%05d" % i)) == b"payload-%05d" % i

    def test_read_session_changes_no_file(self, tmp_path):
        d = tmp_path / "store"
        with open_store(make_store_config(d)) as engine:
            data = fill(engine, 50)
            engine.flush()
        newer = {key(i): b"newer-%d" % i for i in range(0, 60, 5)}
        add_crash_leftovers(
            d, {k.encoded(): v for k, v in newer.items()}, stale={key(1).encoded(): b"stale"}
        )
        data.update(newer)
        files = file_digests(d)
        with open_store(make_store_config(d)) as engine:
            for k, v in data.items():
                assert engine.get(k) == v
            keys = list(data) + [key(999)]
            assert engine.multi_get(keys) == [data.get(k) for k in keys]
            assert dict(engine.live_entries()) == {k.encoded(): v for k, v in data.items()}
        assert file_digests(d) == files

    def test_two_engines_open_at_once_serve_the_wal(self, tmp_path):
        d = tmp_path / "store"
        writer = open_store(make_store_config(d))
        data = fill(writer, 100)
        del writer  # abandoned: its records live only in its WAL
        files = file_digests(d)
        first, second = open_store(make_store_config(d)), open_store(make_store_config(d))
        for k, v in data.items():
            assert first.get(k) == v and second.get(k) == v
        first.close()
        assert second.multi_get(list(data)) == list(data.values())
        second.close()
        assert file_digests(d) == files

    def test_deletes_survive_crash(self, tmp_path):
        d = tmp_path / "store"
        engine = open_store(make_store_config(d))
        engine.put(key(1), b"x")
        engine.delete(key(1))
        del engine
        with open_store(make_store_config(d)) as engine:
            assert engine.get(key(1)) is None


class TestCapacity:
    def test_overflowing_put_rejected_and_store_unchanged(self, tmp_path):
        config = make_store_config(
            tmp_path / "store",
            write_buffer_bytes=1 * MIB,
            capacity_m=1 * MIB,
        )
        with open_store(config) as engine:
            inserted = 0
            with pytest.raises(CapacityError):
                for i in range(10_000):
                    engine.put(key(i), b"v" * 10_000)
                    inserted += 1
            assert inserted < 200  # rejected around the 1 MiB mark
            # the overflowing key is absent; earlier keys still readable
            assert engine.get(key(inserted)) is None
            assert engine.get(key(0)) is not None

    def test_compressed_bytes_never_exceed_capacity(self, tmp_path):
        config = make_store_config(
            tmp_path / "store",
            write_buffer_bytes=1 * MIB,
            capacity_m=2 * MIB,
        )
        with open_store(config) as engine:
            with pytest.raises(CapacityError):
                for i in range(100_000):
                    engine.put(key(i), os.urandom(2_000))  # incompressible
            assert engine.stats()["compressed_bytes"] <= config.capacity_m

    def test_ingest_over_capacity_installs_nothing(self, tmp_path):
        d = tmp_path / "store"
        config = make_store_config(d, write_buffer_bytes=1 * MIB, capacity_m=1 * MIB)
        rnd = random.Random(5)
        pairs = [(key(i).encoded(), rnd.randbytes(2_000)) for i in range(1_500)]  # incompressible
        with open_store(config) as engine:
            with pytest.raises(CapacityError):
                engine.ingest_sorted(pairs)
            assert engine.stats()["tables"] == {}
        assert file_digests(d) == []
        # the budget counts compressed bytes: 3 MiB of repeated bytes fit
        with open_store(config) as engine:
            engine.ingest_sorted((key(i).encoded(), b"v" * 2_000) for i in range(1_500))
            assert engine.stats()["compressed_bytes"] <= config.capacity_m
            assert engine.get(key(1_499)) == b"v" * 2_000


class TestFlushAndCompact:
    def test_flush_moves_memtable_to_table(self, store):
        data = fill(store, 300)
        store.flush()
        assert store.stats()["memtable_bytes"] == 0
        assert len(store.stats()["tables"]) == 1
        for k, v in data.items():
            assert store.get(k) == v

    def test_auto_flush_at_write_buffer(self, tmp_path):
        config = make_store_config(tmp_path / "store", write_buffer_bytes=1 * MIB)
        with open_store(config) as engine:
            fill(engine, 30, value_size=50_000)
            assert len(engine.stats()["tables"]) >= 1

    def test_compact_on_empty_store_is_noop(self, store):
        store.compact()
        assert store.stats()["entry_count"] == 0

    def test_compact_preserves_every_value_and_dedupes(self, store):
        data = fill(store, 400, seed=1)
        store.flush()
        data.update(fill(store, 400, seed=2))  # overwrite all with new values
        store.flush()
        assert len(store.stats()["tables"]) == 2
        store.compact()
        stats = store.stats()
        assert all(t["level"] == 1 for t in stats["tables"].values())
        assert stats["entry_count"] == 400
        for k, v in data.items():
            assert store.get(k) == v

    def test_compacted_l1_ranges_are_disjoint(self, tmp_path):
        config = make_store_config(tmp_path / "store", write_buffer_bytes=1 * MIB)
        with open_store(config) as engine:
            fill(engine, 2_000, value_size=2_000)
            engine.flush()
            engine.compact()
            l0, l1, _ = engine._tables
            assert not l0
            assert len(l1) >= 2  # split across multiple output tables
            for a, b in zip(l1, l1[1:]):
                assert a.last_key < b.first_key

    def test_tombstones_purged_by_compaction(self, tmp_path):
        d = tmp_path / "store"
        with open_store(make_store_config(d)) as engine:
            engine.put(key(7), b"doomed")
            engine.flush()
            engine.delete(key(7))
            engine.flush()
            engine.compact()
            encoded = key(7).encoded()
            for name in engine.stats()["tables"]:
                with SSTable(d / name) as t:
                    assert all(k != encoded for k, _ in t.scan())

    def test_overwrites_reclaim_space_after_compaction(self, store):
        for round_seed in (1, 2, 3):
            fill(store, 1_000, value_size=500, seed=round_seed)
            store.flush()
        before = store.stats()["compressed_bytes"]
        store.compact()
        assert store.stats()["compressed_bytes"] <= before

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_retired_tables_close_once_no_snapshot_holds_them(self, tmp_path):
        def open_paths() -> set[str]:
            paths = set()
            for fd in os.listdir("/proc/self/fd"):
                try:
                    paths.add(os.readlink(f"/proc/self/fd/{fd}").removesuffix(" (deleted)"))
                except OSError:
                    pass  # the fd of the listing itself, closed by now
            return paths

        with open_store(make_store_config(tmp_path / "store")) as engine:
            for i in range(5):
                engine.put(key(i), b"value-%d" % i)
                engine.flush()
            snapshot = engine._tables
            retired = {os.path.realpath(t.path) for t in snapshot[0]}
            assert len(retired) == 5 and retired <= open_paths()
            engine.compact()
            assert retired <= open_paths() and not any(map(os.path.exists, retired))
            # a reader holding the old snapshot still reads the unlinked files
            assert engine_mod._lookup(key(3).encoded(), {}, snapshot, SSTable.get) == b"value-3"
            del snapshot
            assert not retired & open_paths()
            assert engine.get(key(3)) == b"value-3"

    def test_obsolete_files_deleted_after_compaction(self, tmp_path):
        d = tmp_path / "store"
        with open_store(make_store_config(d)) as engine:
            fill(engine, 100, seed=1)
            engine.flush()
            fill(engine, 100, seed=2)
            engine.flush()
            engine.compact()
            live = set(engine.stats()["tables"])
            on_disk = {n for n in os.listdir(d) if n.endswith(".ppcs")}
            assert on_disk == live


class TestMultiGet:
    def test_matches_individual_gets(self, store):
        data = fill(store, 500)
        store.flush()
        rnd = random.Random(3)
        keys = [key(rnd.randrange(600)) for _ in range(100)]  # some misses
        assert store.multi_get(keys) == [store.get(k) for k in keys]

    def test_empty_key_list(self, store):
        assert store.multi_get([]) == []

    def test_duplicate_keys_in_batch(self, store):
        store.put(key(1), b"one")
        assert store.multi_get([key(1), key(1)]) == [b"one", b"one"]

    def test_sorted_batches_decompress_fewer_blocks(self, tmp_path):
        config = make_store_config(tmp_path / "store", target_block_size=8 * KIB)
        with open_store(config) as engine:
            fill(engine, 2_000, value_size=500)
            engine.flush()
            engine.compact()
            rnd = random.Random(5)
            batch = [key(rnd.randrange(2_000)) for _ in range(200)]
            sorted_batch = sorted(batch, key=lambda k: k.encoded())

            before = engine.read_counters()[0]
            engine.multi_get(sorted_batch)
            sorted_reads = engine.read_counters()[0] - before

            shuffled = list(batch)
            rnd.shuffle(shuffled)
            before = engine.read_counters()[0]
            engine.multi_get(shuffled)
            shuffled_reads = engine.read_counters()[0] - before
            assert sorted_reads <= shuffled_reads

    def test_values_from_several_blocks_of_one_table_stay_intact(self, tmp_path):
        # the batch keeps each block's decompressed bytes while later blocks
        # are decompressed on the same thread, so none may share a buffer
        config = make_store_config(tmp_path / "store", target_block_size=4 * KIB)
        with open_store(config) as engine:
            data = fill(engine, 300, value_size=1000, seed=9)
            engine.flush()
            (table,) = engine._tables[0]
            batch = [key(i) for i in range(0, 300, 7)] + [key(3), key(150), key(297)]
            blocks = {bisect_right(table.first_keys, k.encoded()) - 1 for k in batch}
            assert len(blocks) > 10
            values = engine.multi_get(batch)
            engine.multi_get([key(i) for i in range(1, 300, 5)])
            assert values == [data[k] for k in batch]

    def test_integrity_error_aborts_batch(self, tmp_path):
        d = tmp_path / "store"
        with open_store(make_store_config(d)) as engine:
            fill(engine, 50)
            engine.flush()
            table_name = next(iter(engine.stats()["tables"]))
            blob = bytearray((d / table_name).read_bytes())
            blob[40] ^= 0xFF  # corrupt first data block
            (d / table_name).write_bytes(bytes(blob))
            with pytest.raises(IntegrityError):
                engine.multi_get([key(i) for i in range(50)])


class TestReadPath:
    def test_every_block_load_goes_through_load_block(self, tmp_path, monkeypatch):
        loads = []
        load_block = SSTable.load_block

        def counted(table, idx):
            loads.append(idx)
            return load_block(table, idx)

        monkeypatch.setattr(SSTable, "load_block", counted)
        config = make_store_config(tmp_path / "store", target_block_size=4 * KIB)
        with open_store(config) as engine:
            fill(engine, 300, value_size=1000)
            engine.flush()
            (table,) = engine._tables[0]
            ops = {
                "get": lambda: engine.get(key(150)),
                "multi_get": lambda: engine.multi_get([key(i) for i in range(0, 300, 7)]),
                "scan": lambda: list(table.scan()),
                "compact": engine.compact,
            }
            for name, op in ops.items():
                loads.clear()
                before = table.blocks_read
                op()
                assert len(loads) == table.blocks_read - before > 0, name

    def test_keys_outside_every_l1_range_read_no_block(self, tmp_path, monkeypatch):
        # with every bloom saying "maybe", only the L1 routing keeps these
        # keys away from the tables
        monkeypatch.setattr(BloomFilter, "might_contain", lambda self, key: True)
        config = make_store_config(tmp_path / "store", write_buffer_bytes=1 * MIB)
        with open_store(config) as engine:
            fill(engine, 2_000, value_size=2_000)
            engine.flush()
            engine.compact()
            l0, l1, _ = engine._tables
            assert not l0 and len(l1) >= 2
            inside = l1[0].first_key + b"\x00"
            gap = l1[0].last_key + b"\x00"
            above = l1[-1].last_key + b"\x00"
            assert inside < l1[0].last_key and gap < l1[1].first_key
            before = engine.read_counters()
            assert engine.get_encoded(gap) is None
            assert engine.get_encoded(above) is None
            assert engine.multi_get_encoded([gap, above]) == [None, None]
            assert engine.read_counters() == before
            assert engine.get_encoded(inside) is None
            assert engine.read_counters()[0] == before[0] + 1


class TestBloomAtEngineLevel:
    def test_misses_read_zero_blocks(self, tmp_path):
        with open_store(make_store_config(tmp_path / "s", bits_per_key=10.0)) as engine:
            fill(engine, 5_000, value_size=200)
            engine.flush()
            engine.compact()
            zero = 0
            probes = 5_000
            for i in range(probes):
                before = engine.read_counters()[0]
                assert engine.get(PpcKey(b"py", b"module_%05d" % i, b"missing%05d" % i)) is None
                if engine.read_counters()[0] == before:
                    zero += 1
            assert zero / probes >= 0.98


class TestStats:
    def test_ratio_tracks_table_totals(self, store):
        fill(store, 200, value_size=1_000)
        store.flush()
        stats = store.stats()
        assert stats["raw_bytes"] > 0
        assert stats["ratio"] == pytest.approx(stats["compressed_bytes"] / stats["raw_bytes"])

    def test_counters_accumulate(self, store):
        fill(store, 100)
        store.flush()
        store.get(key(5))
        blocks, data = store.read_counters()
        assert blocks >= 1 and data > 0


class TestConcurrency:
    def test_readers_during_writes_see_consistent_values(self, tmp_path):
        config = make_store_config(tmp_path / "store", write_buffer_bytes=1 * MIB)
        engine = open_store(config)
        fill(engine, 200, value_size=100, seed=1)
        stop = threading.Event()
        failures = []

        def reader():
            rnd = random.Random(7)
            while not stop.is_set():
                i = rnd.randrange(200)
                value = engine.get(key(i))
                # value is either the v1 payload or the v2 payload, never garbage
                if value is None or len(value) not in (100, 333):
                    failures.append((i, value))
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for seed in (2, 3):
            for i in range(200):
                engine.put(key(i), random.Random(seed * 1000 + i).randbytes(333))
            engine.flush()
        engine.compact()
        stop.set()
        for t in threads:
            t.join()
        engine.close()
        assert not failures

    def test_live_entries_matches_puts(self, store):
        data = fill(store, 300)
        store.flush()
        store.delete(key(5))
        live = dict(store.live_entries())
        assert len(live) == 299
        assert key(5).encoded() not in live
        assert live[key(6).encoded()] == data[key(6)]


class TestValueCache:
    def test_admits_on_second_miss_within_its_bound(self, tmp_path):
        config = make_store_config(tmp_path / "store", codec=CodecSpec(Algorithm.IDENTITY))
        with open_store(config) as engine:
            rnd = random.Random(4)
            data = {}
            for i in range(12):  # 100 to 800 KiB: one eviction may not make room
                data[key(i)] = rnd.randbytes(100 * KIB * (1 + i * 5 % 8))
                engine.put(key(i), data[key(i)])
            big = key(99)
            data[big] = b"b" * VALUE_CACHE_BYTES  # the state byte takes it past the bound
            engine.put(big, data[big])
            engine.flush()

            for k in data:
                assert engine.get(k) == data[k]
            cache = engine.stats()["value_cache"]
            assert (cache["entries"], cache["bytes"], cache["admissions"]) == (0, 0, 0)

            for _ in range(3):
                for k in data:
                    assert engine.get(k) == data[k]
                    assert engine.stats()["value_cache"]["bytes"] <= VALUE_CACHE_BYTES
            cache = engine.stats()["value_cache"]
            assert cache["capacity"] == VALUE_CACHE_BYTES
            assert cache["admissions"] > 8 and cache["evictions"] > 0
            assert cache["entries"] == cache["admissions"] - cache["evictions"]

            engine.get(big)
            cache = engine.stats()["value_cache"]
            blocks = engine.read_counters()[0]
            assert engine.get(big) == data[big]
            assert engine.read_counters()[0] == blocks + 1  # never cached
            assert engine.stats()["value_cache"] == cache  # and evicts nothing

            hot = key(3)
            engine.get(hot)
            blocks = engine.read_counters()[0]
            assert engine.get(hot) == data[hot]
            assert engine.read_counters()[0] == blocks  # served from the cache
            assert set(engine.stats()["tables"].popitem()[1]) == {"level", "entries"}

            # the ghost of keys read once is bounded: 600 later first reads
            # push the first key out, while the last is still remembered
            cold = [key(i, ext=b"c") for i in range(600)]
            for k in cold:
                engine.put(k, b"cold")
            engine.flush()
            for k in cold:
                assert engine.get(k) == b"cold"
            admitted = engine.stats()["value_cache"]["admissions"]
            assert engine.get(cold[0]) == b"cold"
            assert engine.stats()["value_cache"]["admissions"] == admitted
            assert engine.get(cold[-1]) == b"cold"
            assert engine.stats()["value_cache"]["admissions"] == admitted + 1

    def test_overwrites_through_retired_tables_never_go_stale(self, tmp_path):
        # compaction frees the tables it replaces, and a new table may take
        # the memory, and so the id(), of one that held an older value
        keys = [key(j) for j in range(1, 7)]
        with open_store(make_store_config(tmp_path / "store")) as engine:
            for i in range(100):
                for k in keys:
                    engine.put(k, b"%s-version-%03d" % (k.basename, i))
                engine.flush()
                engine.compact()
                gc.collect()
                # key(j) is read in every j-th cycle only, so its cached
                # entry names a table retired j - 1 compactions before
                for j, k in enumerate(keys, 1):
                    if i % j == 0:
                        for _ in range(3):
                            assert engine.get(k) == b"%s-version-%03d" % (k.basename, i)
            cache = engine.stats()["value_cache"]
            assert cache["bytes"] == sum(len(e[1]) for e in engine._values._entries.values())

    def test_readers_see_written_values_during_flushes_and_compactions(self, tmp_path):
        config = make_store_config(tmp_path / "store", write_buffer_bytes=1 * MIB)
        keys = [key(i) for i in range(300)]
        hot = keys[:4]

        def value(i: int, version: int) -> bytes:
            return b"%05d:%05d:" % (i, version) + bytes([version % 251]) * 16_000

        published = [0] * len(keys)  # versions whose put has returned
        with open_store(config) as engine:
            for i, k in enumerate(keys):
                engine.put(k, value(i, 0))
            stop = threading.Event()
            failures = []

            def reader(seed: int):
                rnd = random.Random(seed)
                while not stop.is_set() and not failures:
                    i = rnd.randrange(4) if rnd.random() < 0.7 else rnd.randrange(len(keys))
                    oldest = published[i]
                    try:
                        got = engine.get(keys[i])
                        version = int(got.split(b":")[1])
                        if got != value(i, version) or version < oldest:
                            failures.append((i, oldest, got[:12]))
                    except Exception as exc:
                        failures.append((i, oldest, repr(exc)))

            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            threads = [threading.Thread(target=reader, args=(s,)) for s in range(4)]
            try:
                for t in threads:
                    t.start()
                rnd = random.Random(5)
                for version in range(1, 13):
                    for i in rnd.sample(range(len(keys)), 100) + list(range(len(hot))):
                        engine.put(keys[i], value(i, version))
                        published[i] = version
                    engine.flush()
                    if version % 3 == 0:
                        engine.compact()
            finally:
                stop.set()
                for t in threads:
                    t.join(timeout=60)
                sys.setswitchinterval(switch)
            assert not any(t.is_alive() for t in threads)
            assert not failures, failures[:5]
            cache = engine.stats()["value_cache"]
            assert cache["evictions"] > 0
            assert cache["bytes"] == sum(len(e[1]) for e in engine._values._entries.values())


class TestWalRetirement:
    def test_wal_files_cleaned_after_flush(self, tmp_path):
        d = tmp_path / "store"
        with open_store(make_store_config(d)) as engine:
            fill(engine, 100)
            assert len([n for n in os.listdir(d) if n.startswith("wal-")]) == 1
            engine.flush()
            assert not [n for n in os.listdir(d) if n.startswith("wal-")]

    def test_wal_that_outlives_its_flush_is_not_replayed(self, tmp_path, monkeypatch):
        d = tmp_path / "store"
        real_unlink = os.unlink

        def unlink_keeping_wals(path, *args, **kwargs):
            if str(path).endswith(".log"):
                raise OSError("unlink refused")
            real_unlink(path, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(os, "unlink", unlink_keeping_wals)
            with open_store(make_store_config(d)) as engine:
                engine.put(key(1), b"old")
                engine.flush()
                engine.put(key(1), b"new")  # close() flushes it
        stale = sorted(n for n in os.listdir(d) if n.startswith("wal-"))
        assert len(stale) == 2
        with open_store(make_store_config(d)) as engine:
            assert engine.get(key(1)) == b"new"
            assert engine.stats()["memtable_bytes"] == 0  # neither WAL was replayed
            engine.put(key(2), b"x")
            engine.flush()
        assert not set(stale) & set(os.listdir(d))
        with open_store(make_store_config(d)) as engine:
            assert engine.get(key(1)) == b"new" and engine.get(key(2)) == b"x"

    def test_wal_cap_forces_flush(self, tmp_path, monkeypatch):
        monkeypatch.setattr(engine_mod, "MAX_WAL_BYTES", 1 * MIB)
        config = make_store_config(tmp_path / "store", write_buffer_bytes=64 * MIB)
        with open_store(config) as engine:
            fill(engine, 40, value_size=50_000)
            assert len(engine.stats()["tables"]) >= 1


class TestCompactionOutput:
    def test_l1_tables_equal_an_independent_build(self, tmp_path):
        """Each L1 table is build_table over the live entries, cut where the
        key plus state-prefixed value bytes first reach write_buffer_bytes."""
        identity = CodecSpec(Algorithm.IDENTITY)
        config = make_store_config(tmp_path / "store", codec=identity, write_buffer_bytes=1 * MIB)
        rnd = random.Random(11)
        model: dict[bytes, bytes] = {}
        with open_store(config) as engine:
            for _ in range(4):
                for _ in range(900):
                    k = key(rnd.randrange(3_000)).encoded()
                    if rnd.random() < 0.15:
                        engine.delete_encoded(k)
                        model.pop(k, None)
                    else:
                        model[k] = rnd.randbytes(rnd.randrange(500, 2_500))
                        engine.put_encoded(k, model[k])
                engine.flush()
            # the first 1024 live entries then hold exactly 1 MiB: the first
            # table must close on that boundary, not one entry later
            for i in range(1_024):
                k = key(i).encoded()
                model[k] = rnd.randbytes(1_023 - len(k))
                engine.put_encoded(k, model[k])
            engine.flush()
            engine.compact()
            l1_paths = [Path(t.path) for t in engine._tables[1]]
        assert len(l1_paths) >= 3

        runs, run, size = [], [], 0
        for k in sorted(model):
            wrapped = b"\x00" + model[k]  # live-value state byte
            run.append((k, wrapped))
            size += len(k) + len(wrapped)
            if size >= config.write_buffer_bytes:
                runs.append(run)
                run, size = [], 0
        if run:
            runs.append(run)
        assert len(runs) == len(l1_paths)
        for i, (path, run) in enumerate(zip(l1_paths, runs)):
            oracle = tmp_path / f"oracle-{i}.ppcs"
            build_table(
                oracle,
                run,
                target_block_size=config.target_block_size,
                codec=identity,
                bits_per_key=config.bits_per_key,
            )
            assert path.read_bytes() == oracle.read_bytes(), path.name

    def test_failed_compaction_leaves_nothing_behind(self, tmp_path):
        d = tmp_path / "store"
        rnd = random.Random(12)
        model: dict[bytes, bytes] = {}
        with open_store(make_store_config(d, write_buffer_bytes=1 * MIB)) as engine:
            for i in range(3_000):
                model[key(i).encoded()] = rnd.randbytes(1_000)
                engine.put_encoded(key(i).encoded(), model[key(i).encoded()])
            engine.flush()
            engine.compact()
            l1 = engine._tables[1]
            assert len(l1) >= 3
            # a middle block of a later table: the merge opens every input's
            # first block, and completes an output table, before reaching it
            victim = l1[1]
            mid = len(victim.block_offsets) // 2
            bad_lo, bad_hi = victim.first_keys[mid], victim.first_keys[mid + 1]
            with open(victim.path, "r+b") as f:
                f.seek((victim.block_offsets[mid] + victim.block_offsets[mid + 1]) // 2)
                byte = f.read(1)
                f.seek(-1, os.SEEK_CUR)
                f.write(bytes([byte[0] ^ 0xFF]))
            for i in range(0, 3_000, 7):
                model[key(i).encoded()] = b"newer-%05d" % i
                engine.put_encoded(key(i).encoded(), model[key(i).encoded()])
            engine.flush()

            listing = sorted(os.listdir(d))
            manifest = (d / "MANIFEST").read_bytes()
            with pytest.raises(IntegrityError):
                engine.compact()
            assert sorted(os.listdir(d)) == listing
            assert (d / "MANIFEST").read_bytes() == manifest
            for k, v in model.items():
                if not bad_lo <= k < bad_hi:
                    assert engine.get_encoded(k) == v


def _sorted_pairs(n: int, seed: int, dupes: int = 0) -> list[tuple[bytes, bytes]]:
    """n key-ascending pairs of 1000-byte random values; the first dupes keys
    come twice, the second time with another value."""
    rnd = random.Random(seed)
    pairs = []
    for i in range(n):
        pairs.append((key(i).encoded(), rnd.randbytes(1_000)))
        if i < dupes:
            pairs.append((key(i).encoded(), rnd.randbytes(1_000)))
    return pairs


def _l1_digests(engine: Engine) -> list[str]:
    return [hashlib.sha256(Path(t.path).read_bytes()).hexdigest() for t in engine._tables[1]]


class TestIngestSorted:
    @pytest.mark.parametrize("buffer_mib", [1, 4])
    def test_tables_equal_a_put_flush_compact_build(self, tmp_path, buffer_mib):
        pairs = _sorted_pairs(3_000, seed=21, dupes=40)
        def config(name):
            return make_store_config(tmp_path / name, write_buffer_bytes=buffer_mib * MIB)

        with open_store(config("put")) as engine:
            for k, v in pairs:
                engine.put_encoded(k, v)
            engine.flush()
            engine.compact()
            expected = _l1_digests(engine)
        with open_store(config("ingest")) as engine:
            engine.ingest_sorted(iter(pairs))
            assert engine._tables[0] == ()
            assert _l1_digests(engine) == expected
        assert len(expected) == (3 if buffer_mib == 1 else 1)
        assert not list((tmp_path / "ingest").glob("wal-*.log"))

    def test_equal_keys_keep_the_last_value(self, store):
        a, b = key(1).encoded(), key(2).encoded()
        store.ingest_sorted([(a, b"first"), (a, b"last"), (b, b"x"), (b, b"y"), (b, b"z")])
        assert store.get_encoded(a) == b"last"
        assert store.get_encoded(b) == b"z"
        assert store.stats()["entry_count"] == 2

    # entries of 23 key + 1 state + 1000 value bytes: 1024 of them fill the
    # first 1 MiB table, so at=1024 puts the descent across the cut
    @pytest.mark.parametrize(
        "at", [1, 1_024, 2_000], ids=["first-table", "at-the-cut", "after-a-table"]
    )
    def test_descending_input_raises_and_leaves_nothing(self, tmp_path, at):
        d = tmp_path / "store"
        pairs = _sorted_pairs(3_000, seed=22)
        pairs[at - 1], pairs[at] = pairs[at], pairs[at - 1]  # one key above its successor
        with open_store(make_store_config(d, write_buffer_bytes=1 * MIB)) as engine:
            files = file_digests(d)
            with pytest.raises(SortViolationError):
                engine.ingest_sorted(pairs)
            assert file_digests(d) == files
            assert not list(d.glob("tbl-*.ppcs"))
            assert engine.stats()["tables"] == {}

    def test_store_holding_a_table_is_refused(self, tmp_path):
        d = tmp_path / "store"
        with open_store(make_store_config(d)) as engine:
            fill(engine, 20)
            engine.flush()
        files = file_digests(d)
        with open_store(make_store_config(d)) as engine:
            with pytest.raises(StoreError, match=re.escape(str(d))):
                engine.ingest_sorted(_sorted_pairs(10, seed=23))
        assert file_digests(d) == files

    def test_store_with_replayed_wal_records_is_refused(self, tmp_path):
        d = tmp_path / "store"
        writer = open_store(make_store_config(d))
        data = fill(writer, 20)
        del writer  # abandoned: its records live only in its WAL
        files = file_digests(d)
        with open_store(make_store_config(d)) as engine:
            with pytest.raises(StoreError, match=re.escape(str(d))):
                engine.ingest_sorted(_sorted_pairs(10, seed=24))
            assert engine.get(key(3)) == data[key(3)]
        assert file_digests(d) == files

    def test_failing_input_after_a_table_leaves_nothing(self, tmp_path):
        d = tmp_path / "store"
        built = []

        def pairs():
            yield from _sorted_pairs(2_000, seed=25)
            built.extend(d.glob("tbl-*.ppcs"))
            raise RuntimeError("corpus read failed")

        with open_store(make_store_config(d, write_buffer_bytes=1 * MIB)) as engine:
            files = file_digests(d)
            with pytest.raises(RuntimeError, match="corpus read failed"):
                engine.ingest_sorted(pairs())
        assert len(built) >= 2  # one complete table, one being written
        assert file_digests(d) == files
        with open_store(make_store_config(d)) as engine:
            assert list(engine.live_entries()) == []

    def test_abandoned_engine_after_ingest_reopens_with_every_value(self, tmp_path):
        d = tmp_path / "store"
        pairs = _sorted_pairs(2_500, seed=26)
        engine = open_store(make_store_config(d, write_buffer_bytes=1 * MIB))
        engine.ingest_sorted(pairs)
        del engine  # no close
        with open_store(make_store_config(d)) as engine:
            assert len(engine._tables[1]) >= 2
            assert list(engine.live_entries()) == pairs


# Dict-model property test: a few keys so versions collide across the
# memtable, L0 and L1; values that span 8 KiB blocks, two of which fill the
# 1 MiB write buffer and so split compaction output into several L1 tables.
_MODEL_KEYS = [b"py\x00m%02d\x00id" % i for i in range(6)]
_MODEL_MISSES = [b"", b"a", b"py\x00m05", b"py\x00m99\x00id"]
_VALUE_SIZES = [0, 100, 9_000, 700_000]
_model_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.sampled_from(_MODEL_KEYS),
            st.sampled_from(_VALUE_SIZES),
            st.integers(0, 255),
        ),
        st.tuples(st.just("delete"), st.sampled_from(_MODEL_KEYS)),
        st.sampled_from([("flush",), ("compact",), ("reopen",), ("crash",)]),
    ),
    min_size=10,
    max_size=40,
)


def _assert_matches_model(engine: Engine, model: dict[bytes, bytes]) -> None:
    for _ in range(3):  # the second read admits a value, the third is a cache hit
        for k in _MODEL_KEYS + _MODEL_MISSES:
            assert engine.get_encoded(k) == model.get(k)
    batch = _MODEL_KEYS[::-1] + _MODEL_MISSES + _MODEL_KEYS[::3]  # misses, duplicates
    assert engine.multi_get_encoded(batch) == [model.get(k) for k in batch]
    assert dict(engine.live_entries()) == model


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_model_ops)
def test_engine_matches_dict_model(ops):
    model: dict[bytes, bytes] = {}
    with tempfile.TemporaryDirectory() as d:
        config = make_store_config(d, write_buffer_bytes=1 * MIB)
        engine = open_store(config)
        try:
            for op in ops:
                if op[0] == "put":
                    _, k, size, fill_byte = op
                    model[k] = bytes([fill_byte]) * size
                    engine.put_encoded(k, model[k])
                elif op[0] == "delete":
                    model.pop(op[1], None)
                    engine.delete_encoded(op[1])
                elif op[0] == "flush":
                    engine.flush()
                elif op[0] == "compact":
                    engine.compact()
                elif op[0] == "crash":
                    # abandoned: no close, so recovery replays what only its WAL holds
                    engine = open_store(config)
                else:
                    engine.close()
                    engine = open_store(config)
                _assert_matches_model(engine, model)
        finally:
            engine.close()
