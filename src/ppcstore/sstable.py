"""Immutable sorted table files: compressed blocks + index + bloom filter.

On-disk layout, format version 2 (all integers little-endian, no timestamps,
constant-seeded hashing — building the same entries twice yields
byte-identical files):

    [data block]*[bloom section][index block][footer]

    data block   [4B raw length][compressed payload]
                 [4B CRC32 of the raw length and the payload]
    raw payload  sequence of entries: [4B key len][4B value len][key][value]
    bloom        [8B m bits][4B k][8B n keys][bit array]
    index        [8B block count]
                 per block: [8B file offset][4B first-key length][first key]
                 [4B last-key length][last key of the table]
    footer       fixed 64 bytes: index/bloom handles, entry count, raw and
                 compressed byte totals, target block size, codec tag+level,
                 format version, a CRC32 of every byte from the bloom offset
                 up to this CRC field, and the magic bytes "PPCS"

Block i spans from its offset to the next block's, the last one to the bloom
section, and every block is compressed with the footer's codec. Version 1
tables (per-block codec bytes, stored payload lengths, unchecked metadata)
are rejected with FormatError.

Blocks close when their raw payload reaches the target size; an entry never
splits across blocks, so a single oversized entry forms its own block.
"""

import itertools
import os
import struct
import threading
import zlib
from bisect import bisect_right
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Iterator

from . import codec as codec_mod
from .bloom import BloomFilter
from .codec import CodecSpec
from .errors import CodecConfigError, ConfigError, FormatError, IntegrityError, SortViolationError

MAGIC = b"PPCS"
FORMAT_VERSION = 2
MIN_BLOCK_SIZE = 1024

_ENTRY_HEADER = struct.Struct("<II")
_BLOCK_HEADER = struct.Struct("<I")  # raw length
_CRC = struct.Struct("<I")
_BLOCK_OVERHEAD = _BLOCK_HEADER.size + _CRC.size
_INDEX_ENTRY = struct.Struct("<QI")  # block offset, first-key length
# The footer's fields; the metadata CRC and the magic follow them.
_FOOTER = struct.Struct("<QIQIQQQIBBH")
_FOOTER_SIZE = _FOOTER.size + _CRC.size + len(MAGIC)
assert _FOOTER_SIZE == 64

# Process-unique reader ids: unlike id(), never reused once a table is gone.
_UIDS = itertools.count()


def build_table(
    path,
    entries: Iterable[tuple[bytes, bytes]],
    *,
    target_block_size: int,
    codec: CodecSpec,
    bits_per_key: float = 10.0,
    compress_threads: int = 1,
) -> None:
    """Write a table from strictly key-increasing (encoded key, value) pairs.

    entries is read once, while writing, so it may be a generator; on an
    exception the partly written file is left for the caller to remove. Blocks
    are compressed by a pool of compress_threads workers (the codec bindings
    release the GIL), at most 3 per worker ahead of the writer, and written in
    order. Returns None: the footer holds the entry, block and byte totals.
    """
    if target_block_size < MIN_BLOCK_SIZE:
        raise ConfigError(f"target_block_size {target_block_size} below {MIN_BLOCK_SIZE}")

    keys: list[bytes] = []
    index: list[tuple[int, bytes]] = []  # offset, first key
    offset = 0
    entry_count = 0
    raw_total = 0
    comp_total = 0

    def raw_blocks() -> Iterator[tuple[bytes, bytes]]:
        nonlocal entry_count, raw_total
        prev_key: bytes | None = None
        cur = bytearray()
        first_key: bytes | None = None
        for key, value in entries:
            if prev_key is not None and key <= prev_key:
                raise SortViolationError(
                    f"key {key!r} not strictly greater than {prev_key!r}"
                )
            prev_key = key
            keys.append(key)
            entry_count += 1
            if first_key is None:
                first_key = key
            cur += _ENTRY_HEADER.pack(len(key), len(value))
            cur += key
            cur += value
            if len(cur) >= target_block_size:
                raw_total += len(cur)
                yield first_key, bytes(cur)
                cur = bytearray()
                first_key = None
        if cur:
            raw_total += len(cur)
            yield first_key, bytes(cur)

    def compressed_blocks() -> Iterator[tuple[bytes, int, bytes]]:
        with ThreadPoolExecutor(max_workers=compress_threads) as pool:
            pending = deque()
            for first_key, raw in raw_blocks():
                pending.append((first_key, len(raw), pool.submit(codec_mod.compress, raw, codec)))
                if len(pending) > compress_threads * 3:
                    fk, rl, fut = pending.popleft()
                    yield fk, rl, fut.result()
            for fk, rl, fut in pending:
                yield fk, rl, fut.result()

    with open(path, "wb") as out:
        for first_key, raw_len, payload in compressed_blocks():
            index.append((offset, first_key))
            comp_total += len(payload)
            header = _BLOCK_HEADER.pack(raw_len)
            out.write(header + payload + _CRC.pack(zlib.crc32(payload, zlib.crc32(header))))
            offset += _BLOCK_OVERHEAD + len(payload)

        bloom_offset = offset
        bloom_bytes = BloomFilter.build(keys, bits_per_key).to_bytes()
        out.write(bloom_bytes)

        index_offset = bloom_offset + len(bloom_bytes)
        index_buf = bytearray(struct.pack("<Q", len(index)))
        for block_offset, first_key in index:
            index_buf += _INDEX_ENTRY.pack(block_offset, len(first_key))
            index_buf += first_key
        last_key = keys[-1] if keys else b""
        index_buf += struct.pack("<I", len(last_key))
        index_buf += last_key
        out.write(index_buf)

        footer = _FOOTER.pack(
            index_offset,
            len(index_buf),
            bloom_offset,
            len(bloom_bytes),
            entry_count,
            raw_total,
            comp_total,
            target_block_size,
            codec.algorithm.tag,
            codec.level,
            FORMAT_VERSION,
        )
        meta_crc = zlib.crc32(footer, zlib.crc32(index_buf, zlib.crc32(bloom_bytes)))
        out.write(footer + _CRC.pack(meta_crc) + MAGIC)


class SSTable:
    """Reader over one table file; immutable, safe for concurrent readers.

    Every read is a pread on the one file descriptor the reader holds open
    until close(). Every data-block decompression bumps blocks_read /
    bytes_decompressed, which the lookup tests use to prove blooms and the
    index keep point reads to at most one block. uid is unique in the
    process, so caches of values read from a table can key on it.
    """

    def __init__(self, path):
        self.path = str(path)
        self.uid = next(_UIDS)
        self._fd = os.open(self.path, os.O_RDONLY)
        self._counter_lock = threading.Lock()
        self.blocks_read = 0
        self.bytes_decompressed = 0
        try:
            size = os.fstat(self._fd).st_size
            if size < _FOOTER_SIZE:
                raise FormatError(f"{self.path}: file too small for a table footer")
            meta_end = size - _FOOTER_SIZE
            tail = self._read_at(meta_end, _FOOTER_SIZE)
            (
                index_offset,
                index_length,
                bloom_offset,
                bloom_length,
                self.entry_count,
                self.raw_bytes_total,
                self.compressed_bytes_total,
                self.target_block_size,
                algo_tag,
                level,
                version,
            ) = _FOOTER.unpack_from(tail)
            (meta_crc,) = _CRC.unpack_from(tail, _FOOTER.size)
            magic = tail[-len(MAGIC) :]
            if magic != MAGIC:
                raise FormatError(f"{self.path}: bad magic {magic!r}")
            if version != FORMAT_VERSION:
                raise FormatError(f"{self.path}: unsupported format version {version}")
            if bloom_offset + bloom_length != index_offset or index_offset + index_length != meta_end:
                raise FormatError(f"{self.path}: bloom and index handles do not meet the footer")
            try:
                self.codec = codec_mod.spec_from_tag(algo_tag, level)
            except (CodecConfigError, IntegrityError) as exc:
                raise FormatError(f"{self.path}: footer names no codec: {exc}") from exc
            meta = self._read_at(bloom_offset, meta_end - bloom_offset)
            if zlib.crc32(tail[: _FOOTER.size], zlib.crc32(meta)) != meta_crc:
                raise IntegrityError(f"{self.path}: CRC mismatch in bloom, index or footer")
            self.bloom = BloomFilter.from_bytes(meta[:bloom_length])
            self._parse_index(meta[bloom_length:], bloom_offset)
        except Exception:
            self.close()
            raise

    def _parse_index(self, buf: bytes, data_end: int) -> None:
        try:
            (count,) = struct.unpack_from("<Q", buf, 0)
            pos = 8
            self.block_offsets: list[int] = []
            self.first_keys: list[bytes] = []
            prev_key: bytes | None = None
            for _ in range(count):
                off, klen = _INDEX_ENTRY.unpack_from(buf, pos)
                pos += _INDEX_ENTRY.size
                key = buf[pos : pos + klen]
                pos += klen
                if prev_key is not None and key <= prev_key:
                    raise FormatError(f"{self.path}: index keys not strictly increasing")
                prev_key = key
                self.block_offsets.append(off)
                self.first_keys.append(key)
            (lklen,) = struct.unpack_from("<I", buf, pos)
            pos += 4
            self.last_key: bytes | None = buf[pos : pos + lklen] if lklen else None
            if count and self.last_key is None:
                raise FormatError(f"{self.path}: missing last key")
        except struct.error as exc:
            raise FormatError(f"{self.path}: index block truncated") from exc
        # Block i ends where block i + 1 starts; the blocks tile [0, data_end).
        self._block_ends = self.block_offsets[1:] + [data_end]
        if (self.block_offsets or [data_end])[0] != 0 or any(
            end - start < _BLOCK_OVERHEAD for start, end in zip(self.block_offsets, self._block_ends)
        ):
            raise FormatError(f"{self.path}: index offsets leave a gap or a block too short")

    @property
    def first_key(self) -> bytes | None:
        return self.first_keys[0] if self.first_keys else None

    def _read_at(self, offset: int, length: int) -> bytes:
        data = os.pread(self._fd, length, offset)
        if len(data) != length:
            raise FormatError(f"{self.path}: short read at offset {offset}")
        return data

    def load_block(self, idx: int) -> tuple[bytes, list[bytes], list[int]]:
        """Block idx, CRC-checked and decompressed, as (raw, keys, bounds):
        entry i (header, key, value) is raw[bounds[i]:bounds[i + 1]], so no
        value is copied until a caller slices it. The one block reader:
        gets, multi-gets, scans and compaction all load blocks here."""
        start = self.block_offsets[idx]
        record = self._read_at(start, self._block_ends[idx] - start)
        body_end = len(record) - _CRC.size
        (stored_crc,) = _CRC.unpack_from(record, body_end)
        if zlib.crc32(memoryview(record)[:body_end]) != stored_crc:
            raise IntegrityError(f"{self.path}: CRC mismatch in block {idx} at offset {start}")
        (raw_len,) = _BLOCK_HEADER.unpack_from(record, 0)
        raw = codec_mod.decompress(record[_BLOCK_HEADER.size : body_end], self.codec, raw_len)
        with self._counter_lock:
            self.blocks_read += 1
            self.bytes_decompressed += raw_len
        keys: list[bytes] = []
        bounds = [0]
        pos = 0
        end = len(raw)
        while pos < end:
            if pos + _ENTRY_HEADER.size > end:
                raise IntegrityError(f"{self.path}: truncated entry in block {idx}")
            klen, vlen = _ENTRY_HEADER.unpack_from(raw, pos)
            pos += _ENTRY_HEADER.size
            if pos + klen + vlen > end:
                raise IntegrityError(f"{self.path}: entry overruns block {idx}")
            keys.append(raw[pos : pos + klen])
            pos += klen + vlen
            bounds.append(pos)
        return raw, keys, bounds

    def get(self, key: bytes, block_cache: dict | None = None) -> bytes | None:
        """Point lookup: bloom first, then exactly one data block, of which
        only the matched value is copied. A block_cache dict (one per table)
        keeps parsed blocks by index for later lookups, as in a multi-get."""
        if not self.bloom.might_contain(key):
            return None
        idx = bisect_right(self.first_keys, key) - 1
        if idx < 0:
            return None
        cache = {} if block_cache is None else block_cache
        if idx not in cache:
            cache[idx] = self.load_block(idx)
        raw, keys, bounds = cache[idx]
        pos = bisect_right(keys, key) - 1
        if pos >= 0 and keys[pos] == key:
            return raw[bounds[pos] + _ENTRY_HEADER.size + len(key) : bounds[pos + 1]]
        return None

    def scan(self) -> Iterator[tuple[bytes, bytes]]:
        """All entries in key order."""
        head = _ENTRY_HEADER.size
        for idx in range(len(self.block_offsets)):
            raw, keys, bounds = self.load_block(idx)
            for k, b, e in zip(keys, bounds, bounds[1:]):
                yield k, raw[b + head + len(k) : e]

    def close(self) -> None:
        if self._fd is not None and self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> "SSTable":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
