"""Dynamic store over sorted tables: memtable + WAL + flush + compaction.

Two levels: L0 holds fresh flushes (possibly overlapping, newest first),
L1 holds non-overlapping sorted runs. One logical writer at a time;
readers never take the writer lock — they snapshot the (L0, L1) table
tuple and the memtable reference, both swapped atomically.

Directory layout: MANIFEST (text), wal-<seq>.log, tbl-<seq>.ppcs. The
manifest's "log <seq>" line names the oldest WAL whose records are not all in
tables. An open only reads: recovery replays the WALs at or above that line
and deletes nothing. A session's first write creates its WAL, and close()
flushes only what the session wrote. Each manifest write deletes the tables
it does not name and the WALs below its log line, so an orphan table from a
crash, or a file whose unlink failed, goes at the next flush or compaction.

Durability covers a process crash only: nothing is fsynced, not WAL records,
table files, the manifest's tmp file nor the directory, so an OS crash or a
power loss can lose acknowledged writes or the last manifest replace.
"""

import heapq
import itertools
import os
import re
import threading
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

from . import wal as wal_mod
from .codec import CodecSpec
from .errors import (
    BatchAbortedError,
    CapacityError,
    ConfigError,
    IntegrityError,
    RecoveryError,
    StoreError,
)
from .keys import PpcKey
from .sstable import MIN_BLOCK_SIZE, SSTable, build_table

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

MANIFEST_NAME = "MANIFEST"
_MANIFEST_HEADER = "ppcs-manifest v1"
_TABLE_RE = re.compile(r"^tbl-(\d+)\.ppcs$")
_WAL_RE = re.compile(r"^wal-(\d+)\.log$")

# A write flushes the memtable once the WAL reaches this size, even below
# write_buffer_bytes.
MAX_WAL_BYTES = 64 * GIB

# Table values carry a 1-byte state prefix so deletions shadow older
# versions until compaction drops both.
_LIVE = b"\x00"
_TOMB = b"\x01"

# Single gets keep stored values of hot keys in a cache of this many value
# bytes. A value is admitted when a table returns it again while its key is
# in a ghost set of up to _GHOST_KEYS keys read once, emptied when full, so
# keys read once never displace it.
VALUE_CACHE_BYTES = 4 * MIB
_GHOST_KEYS = 512


class _Tombstone:
    __slots__ = ()

    def __repr__(self):
        return "<tombstone>"


TOMBSTONE = _Tombstone()


@dataclass
class StoreConfig:
    """Tunable knobs; defaults target a large box, tests scale them down."""

    data_dir: str | Path
    codec: CodecSpec = field(default_factory=lambda: CodecSpec.parse("zstd:3"))
    target_block_size: int = 64 * KIB
    write_buffer_bytes: int = 2 * GIB
    compaction_threads: int = 6
    bits_per_key: float = 10.0
    capacity_m: int | None = None

    def __post_init__(self):
        if self.target_block_size < MIN_BLOCK_SIZE:
            raise ConfigError(f"target_block_size must be at least {MIN_BLOCK_SIZE}")
        if self.write_buffer_bytes < 1 * MIB:
            raise ConfigError("write_buffer_bytes must be at least 1 MiB")
        if self.compaction_threads < 1:
            raise ConfigError("compaction_threads must be >= 1")
        if self.capacity_m is not None and self.capacity_m < self.write_buffer_bytes:
            raise ConfigError("capacity_m must be >= write_buffer_bytes")


def _numbered(names: Iterable[str], pattern: re.Pattern) -> dict[int, str]:
    """Seq to name of each name that pattern (_TABLE_RE or _WAL_RE) matches."""
    return {int(m.group(1)): m.group(0) for m in map(pattern.match, names) if m}


def _wrap(value: bytes | _Tombstone) -> bytes:
    return _TOMB if value is TOMBSTONE else _LIVE + value


def _unwrap(wrapped: bytes) -> bytes | None:
    return None if wrapped[:1] == _TOMB else wrapped[1:]


class Engine:
    """Open with open_store(config)."""

    def __init__(self, config: StoreConfig):
        self.config = config
        self.dir = Path(config.data_dir)
        self._writer_lock = threading.RLock()
        self._memtable: dict[bytes, bytes | _Tombstone] = {}
        self._memtable_raw = 0
        # (l0 tuple newest-first, l1 tuple ascending, l1 first keys)
        self._tables: tuple[tuple[SSTable, ...], tuple[SSTable, ...], tuple[bytes, ...]] = ((), (), ())
        self._seq = 0
        self._wal: wal_mod.WalWriter | None = None
        self._log_floor = 0  # no WAL below this seq holds a record missing from tables
        self._values = _ValueCache(VALUE_CACHE_BYTES)
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def _recover(self) -> None:
        # A missing directory is made empty; an existing store is only read.
        self.dir.mkdir(parents=True, exist_ok=True)
        listing = os.listdir(self.dir)
        l0_names: list[str] = []
        l1_names: list[str] = []
        manifest = self.dir / MANIFEST_NAME
        if MANIFEST_NAME in listing:
            l0_names, l1_names, self._seq, self._log_floor = self._parse_manifest(manifest)
        try:
            l0 = tuple(SSTable(self.dir / name) for name in l0_names)
            l1 = tuple(SSTable(self.dir / name) for name in l1_names)
        except (OSError, StoreError) as exc:
            raise RecoveryError(f"cannot open tables from manifest: {exc}") from exc
        for prev, table in zip((None,) + l1, l1):
            if table.first_key is None or (prev is not None and table.first_key <= prev.last_key):
                raise RecoveryError(f"{manifest}: L1 table {table.path} is empty or out of key order")
        self._install_tables(l0, l1)

        tables, wals = _numbered(listing, _TABLE_RE), _numbered(listing, _WAL_RE)
        self._seq = max(self._seq, max(tables | wals, default=-1) + 1)
        for seq in sorted(wals):
            if seq < self._log_floor:
                continue  # retired by a flush whose unlink failed: its records are in tables
            for op, key, value in wal_mod.replay_wal(self.dir / wals[seq]):
                if op == wal_mod.OP_PUT:
                    self._memtable_insert(key, value)
                elif op == wal_mod.OP_DELETE:
                    self._memtable_insert(key, TOMBSTONE)

    def _parse_manifest(self, path: Path) -> tuple[list[str], list[str], int, int]:
        l0: list[str] = []
        l1: list[str] = []
        numbers = {"seq": 0, "log": 0}
        try:
            lines = path.read_text().splitlines()
        except OSError as exc:
            raise RecoveryError(f"cannot read manifest: {exc}") from exc
        if not lines or lines[0] != _MANIFEST_HEADER:
            raise RecoveryError(f"{path}: bad manifest header")
        for line in lines[1:]:
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 2 or parts[0] not in ("seq", "log", "l0", "l1"):
                raise RecoveryError(f"{path}: bad manifest line {line!r}")
            if parts[0] in numbers:
                try:
                    numbers[parts[0]] = int(parts[1])
                except ValueError:
                    raise RecoveryError(f"{path}: bad {parts[0]} number {parts[1]!r}") from None
            elif not _TABLE_RE.fullmatch(parts[1]):
                raise RecoveryError(f"{path}: bad table name {parts[1]!r}")
            elif parts[1] in l0 + l1:
                raise RecoveryError(f"{path}: table {parts[1]} is named twice")
            else:
                (l0 if parts[0] == "l0" else l1).append(parts[1])
        for name in l0 + l1:
            if not (self.dir / name).exists():
                raise RecoveryError(f"{path}: manifest references missing table {name}")
        return l0, l1, numbers["seq"], numbers["log"]

    def _write_manifest(self) -> None:
        """Commit the tables and log floor, then delete every file outside
        them: tables the manifest does not name and WALs below its log line.
        Retired table objects stay open until readers drop them; their files
        can go at once (POSIX keeps data reachable by fd)."""
        l0, l1, _ = self._tables
        lines = [_MANIFEST_HEADER, f"seq {self._seq}", f"log {self._log_floor}"]
        lines += [f"l0 {os.path.basename(t.path)}" for t in l0]
        lines += [f"l1 {os.path.basename(t.path)}" for t in l1]
        tmp = self.dir / (MANIFEST_NAME + ".tmp")
        tmp.write_text("\n".join(lines) + "\n")
        os.replace(tmp, self.dir / MANIFEST_NAME)
        listing = os.listdir(self.dir)
        named = {os.path.basename(t.path) for t in l0 + l1}
        dead = [n for n in _numbered(listing, _TABLE_RE).values() if n not in named]
        dead += [n for seq, n in _numbered(listing, _WAL_RE).items() if seq < self._log_floor]
        _unlink_quietly(self.dir / n for n in dead)

    def _install_tables(self, l0: tuple[SSTable, ...], l1: tuple[SSTable, ...]) -> None:
        self._tables = (l0, l1, tuple(t.first_key for t in l1))

    def close(self) -> None:
        """Graceful shutdown: flush this session's writes and release files.
        Records only replayed stay in their WALs for the next open."""
        if self._closed:
            return
        with self._writer_lock:
            if self._wal is not None:
                self.flush()
            self._closed = True
            l0, l1, _ = self._tables
            for t in l0 + l1:
                t.close()
            self._values = _ValueCache(VALUE_CACHE_BYTES)  # drop cached values

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise StoreError("store is closed")

    # -- write path --------------------------------------------------------

    def _memtable_insert(self, key: bytes, value: bytes | _Tombstone) -> None:
        old = self._memtable.get(key)
        new_size = len(key) + (1 if value is TOMBSTONE else len(value))
        if old is not None:
            self._memtable_raw -= len(key) + (1 if old is TOMBSTONE else len(old))
        self._memtable[key] = value
        self._memtable_raw += new_size

    def _check_capacity(self, extra_raw: int) -> None:
        cap = self.config.capacity_m
        if cap is None:
            return
        raw, comp = self._table_totals()
        est_ratio = comp / raw if raw > 0 else 1.0
        projected = comp + est_ratio * (self._memtable_raw + extra_raw)
        if projected > cap:
            raise CapacityError(
                f"projected compressed size {projected:.0f} exceeds capacity {cap}"
            )

    def _table_totals(self) -> tuple[int, int]:
        l0, l1, _ = self._tables
        raw = sum(t.raw_bytes_total for t in l0 + l1)
        comp = sum(t.compressed_bytes_total for t in l0 + l1)
        return raw, comp

    def put(self, key: PpcKey, value: bytes) -> None:
        self.put_encoded(key.encoded(), value)

    def put_encoded(self, key: bytes, value: bytes) -> None:
        """Bulk-load path for callers that already hold encoded keys."""
        with self._writer_lock:
            self._check_open()
            self._check_capacity(len(key) + len(value))
            self._log(wal_mod.OP_PUT, key, value)
            self._memtable_insert(key, value)
            self._maybe_flush()

    def delete(self, key: PpcKey) -> None:
        self.delete_encoded(key.encoded())

    def delete_encoded(self, key: bytes) -> None:
        with self._writer_lock:
            self._check_open()
            self._check_capacity(len(key) + 1)
            self._log(wal_mod.OP_DELETE, key)
            self._memtable_insert(key, TOMBSTONE)
            self._maybe_flush()

    def _log(self, op: int, key: bytes, value: bytes = b"") -> None:
        """Append to this session's WAL, which its first write creates."""
        if self._wal is None:
            self._wal = wal_mod.WalWriter(self.dir / f"wal-{self._seq:06d}.log")
            self._seq += 1
        self._wal.append(op, key, value)

    def _maybe_flush(self) -> None:
        if (
            self._memtable_raw >= self.config.write_buffer_bytes
            or self._wal.size >= MAX_WAL_BYTES
        ):
            self.flush()

    def flush(self) -> None:
        """Write the memtable as a new L0 table and retire every WAL."""
        with self._writer_lock:
            self._check_open()
            if not self._memtable:
                return
            entries = ((k, _wrap(v)) for k, v in sorted(self._memtable.items()))
            table = self._build_new_table(entries)
            l0, l1, _ = self._tables
            self._install_tables((table,) + l0, l1)
            if self._wal is not None:
                self._wal.close()
                self._wal = None
            self._log_floor = self._seq  # every WAL so far is in tables now
            self._write_manifest()
            self._memtable = {}
            self._memtable_raw = 0

    def _build_new_table(self, entries: Iterable[tuple[bytes, bytes]]) -> SSTable:
        """Write entries as the next table file; a failed build removes it."""
        path = self.dir / f"tbl-{self._seq:06d}.ppcs"
        self._seq += 1
        try:
            build_table(
                path,
                entries,
                target_block_size=self.config.target_block_size,
                codec=self.config.codec,
                bits_per_key=self.config.bits_per_key,
                compress_threads=self.config.compaction_threads,
            )
        except BaseException:
            path.unlink(missing_ok=True)
            raise
        return SSTable(path)

    def compact(self) -> None:
        """Merge L0 into L1: newest version wins, tombstones drop out.

        The merge streams into build_table, closing a table after the entry
        that brings its key plus stored-value bytes to write_buffer_bytes. On
        failure every output file, a partly written one too, is removed.
        """
        with self._writer_lock:
            self._check_open()
            l0, l1, _ = self._tables
            if not l0:
                return
            inputs = l0 + l1
            live = _newest_wins([t.scan() for t in inputs])
            new_tables: list[SSTable] = []
            try:
                for first in live:  # each pass builds one table from the shared stream
                    run = _run(itertools.chain((first,), live), self.config.write_buffer_bytes)
                    new_tables.append(self._build_new_table(run))
            except BaseException:
                for t in new_tables:
                    t.close()
                _unlink_quietly(t.path for t in new_tables)
                raise

            self._install_tables((), tuple(new_tables))
            self._write_manifest()

    # -- read path ---------------------------------------------------------

    def get(self, key: PpcKey) -> bytes | None:
        return self.get_encoded(key.encoded())

    def get_encoded(self, key: bytes) -> bytes | None:
        return _lookup(key, self._memtable, self._tables, self._values.fetch)

    def multi_get(self, keys: list[PpcKey]) -> list[bytes | None]:
        return self.multi_get_encoded([k.encoded() for k in keys])

    def multi_get_encoded(self, keys: list[bytes]) -> list[bytes | None]:
        """Positionally aligned gets; distinct keys are fetched once, in
        sorted order, sharing decompressed blocks within the call."""
        memtable, tables = self._memtable, self._tables
        caches: dict[int, dict] = {}

        def fetch(table: SSTable, key: bytes) -> bytes | None:
            return table.get(key, caches.setdefault(table.uid, {}))

        results: dict[bytes, bytes | None] = {}
        completed = 0
        for key in sorted(set(keys)):
            try:
                results[key] = _lookup(key, memtable, tables, fetch)
            except IntegrityError as exc:
                raise BatchAbortedError(
                    f"batch aborted after {completed} keys: {exc}", completed
                ) from exc
            completed += 1
        return [results[k] for k in keys]

    # -- maintenance / introspection ----------------------------------------

    def live_entries(self) -> Iterator[tuple[bytes, bytes]]:
        """Merged (encoded key, value) stream of live data, key-ascending.

        Takes the writer lock briefly to snapshot the memtable; intended for
        read-only phases (verification, workload universe construction).
        """
        with self._writer_lock:
            mem_items = sorted(self._memtable.items())
            l0, l1, _ = self._tables

        memtable = ((k, _wrap(v)) for k, v in mem_items)
        for key, wrapped in _newest_wins([memtable] + [t.scan() for t in l0 + l1]):
            yield key, wrapped[1:]

    def live_keys(self) -> Iterator[bytes]:
        for key, _ in self.live_entries():
            yield key

    def stats(self) -> dict:
        l0, l1, _ = self._tables
        raw, comp = self._table_totals()
        mem_live = sum(1 for v in self._memtable.values() if v is not TOMBSTONE)
        per_table = {
            os.path.basename(t.path): {
                "level": 0 if t in l0 else 1,
                "entries": t.entry_count,
            }
            for t in l0 + l1
        }
        return {
            "entry_count": mem_live + sum(t.entry_count for t in l0 + l1),
            "raw_bytes": raw,
            "compressed_bytes": comp,
            "ratio": (comp / raw) if raw > 0 else None,
            "memtable_bytes": self._memtable_raw,
            "tables": per_table,
            "value_cache": self._values.stats(),
        }

    def read_counters(self) -> tuple[int, int]:
        """(data blocks decompressed, raw bytes decompressed) across live tables."""
        l0, l1, _ = self._tables
        blocks = sum(t.blocks_read for t in l0 + l1)
        data = sum(t.bytes_decompressed for t in l0 + l1)
        return blocks, data

    def effective_codec(self) -> tuple[CodecSpec, int]:
        """Codec and target block size of the stored tables.

        Table files are self-describing, so a store reopened with a default
        config still reports the configuration it was built with; an empty
        store falls back to the open config.
        """
        l0, l1, _ = self._tables
        for table in list(l1) + list(l0):
            return table.codec, table.target_block_size
        return self.config.codec, self.config.target_block_size


def _lookup(key: bytes, memtable: dict, tables: tuple, fetch) -> bytes | None:
    """Newest version of key; fetch(table, key) reads one table's stored value."""
    value = memtable.get(key)
    if value is not None:
        return None if value is TOMBSTONE else value
    l0, l1, l1_firsts = tables
    idx = bisect_right(l1_firsts, key) - 1
    if idx >= 0 and l1[idx].covers(key):
        l0 += (l1[idx],)
    for table in l0:
        wrapped = fetch(table, key)
        if wrapped is not None:
            return _unwrap(wrapped)
    return None


class _ValueCache:
    """Bounded map of key to [uid, wrapped, referenced]: the stored value,
    tombstones included, that the table with that uid holds for key. A hit
    needs both to match, and tables are immutable, so no entry goes stale;
    a key keeps one entry, replaced when a newer table's value is admitted.

    A hit is a dict read without a lock. Inserts and CLOCK (second chance)
    evictions take one lock, which also guards the counters.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: dict[bytes, list] = {}
        self._clock: deque[bytes] = deque()
        self._ghost: set[bytes] = set()  # keys read once since it last filled
        self._lock = threading.Lock()
        self._bytes = 0
        self._admissions = 0
        self._evictions = 0

    def fetch(self, table: SSTable, key: bytes) -> bytes | None:
        entry = self._entries.get(key)
        if entry is not None and entry[0] == table.uid:
            entry[2] = True
            return entry[1]
        wrapped = table.get(key)
        if wrapped is not None and len(wrapped) <= self.capacity:
            if key in self._ghost:
                self._admit(table.uid, key, wrapped)
            else:
                # races between threads only change which keys the ghost
                # holds, so it takes no lock
                if len(self._ghost) >= _GHOST_KEYS:
                    self._ghost.clear()
                self._ghost.add(key)
        return wrapped

    def _admit(self, uid: int, key: bytes, wrapped: bytes) -> None:
        with self._lock:
            old = self._entries.get(key)
            if old is None:
                self._clock.append(key)
            else:  # another table's value, or another thread's admission
                self._bytes -= len(old[1])
            # a new list, never an update in place, so a hit reads one
            # consistent entry; referenced, so this pass cannot evict it
            self._entries[key] = [uid, wrapped, True]
            self._bytes += len(wrapped)
            while self._bytes > self.capacity:
                victim = self._clock.popleft()
                entry = self._entries[victim]
                if entry[2]:
                    entry[2] = False
                    self._clock.append(victim)
                else:
                    del self._entries[victim]
                    self._bytes -= len(entry[1])
                    self._evictions += 1
            self._admissions += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "bytes": self._bytes,
                "entries": len(self._entries),
                "admissions": self._admissions,
                "evictions": self._evictions,
            }


def _newest_wins(streams: list[Iterable[tuple[bytes, bytes]]]) -> Iterator[tuple[bytes, bytes]]:
    """Live entries of key-ascending streams: for a key in several, the one
    earliest in the list wins, since heapq.merge yields equal keys in stream
    order; a key whose winner is a tombstone drops out."""
    prev = None
    for key, wrapped in heapq.merge(*streams, key=itemgetter(0)):
        if key == prev:
            continue
        prev = key
        if wrapped[:1] != _TOMB:
            yield key, wrapped


def _unlink_quietly(paths: Iterable) -> None:
    """Unlink each path, ignoring OSError: a file left behind is one the next
    manifest write removes (an orphan table, or a WAL below its log line)."""
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            pass


def _run(entries: Iterator[tuple[bytes, bytes]], limit: int) -> Iterator[tuple[bytes, bytes]]:
    """Entries through the one that brings their key plus value bytes to limit."""
    size = 0
    for key, value in entries:
        yield key, value
        size += len(key) + len(value)
        if size >= limit:
            return


def open_store(config: StoreConfig) -> Engine:
    engine = Engine(config)
    engine._recover()
    return engine
