"""Immutable sorted table files: compressed blocks + index + bloom filter.

On-disk layout (all integers little-endian, no timestamps, constant-seeded
hashing — building the same entries twice yields byte-identical files):

    [data block]*[bloom section][index block][footer]

    data block   [1B algo tag][1B level][4B raw length]
                 [compressed payload][4B CRC32 of compressed payload]
    raw payload  sequence of entries: [4B key len][4B value len][key][value]
    bloom        [8B m bits][4B k][8B n keys][bit array]
    index        [8B block count]
                 per block: [8B file offset][8B compressed payload length]
                            [4B first-key length][first key]
                 [4B last-key length][last key of the table]
    footer       fixed 64 bytes: index/bloom handles, entry count, raw and
                 compressed byte totals, target block size, codec tag+level,
                 format version, ending in the magic bytes "PPCS"

Blocks close when their raw payload reaches the target size; an entry never
splits across blocks, so a single oversized entry forms its own block.
"""

import itertools
import os
import struct
import threading
import zlib
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Iterator

from . import codec as codec_mod
from .bloom import BloomFilter
from .codec import CodecSpec
from .errors import CodecConfigError, ConfigError, FormatError, IntegrityError, SortViolationError

MAGIC = b"PPCS"
FORMAT_VERSION = 1
MIN_BLOCK_SIZE = 1024

_ENTRY_HEADER = struct.Struct("<II")
_BLOCK_HEADER = struct.Struct("<BBI")  # algo tag, level, raw length
_CRC = struct.Struct("<I")
_FOOTER = struct.Struct("<QIQIQQQIBBH4x4s")
assert _FOOTER.size == 64

# Process-unique reader ids: unlike id(), never reused once a table is gone.
_UIDS = itertools.count()


def _pack_block(payload: bytes, spec: CodecSpec, raw_len: int) -> bytes:
    return (
        _BLOCK_HEADER.pack(spec.algorithm.tag, spec.level, raw_len)
        + payload
        + _CRC.pack(zlib.crc32(payload))
    )


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
    exception the partly written file is left for the caller to remove. Block
    compression runs on up to compress_threads workers (the codec bindings
    release the GIL); blocks are written in order either way. Returns None:
    the footer holds the entry, block and byte totals.
    """
    if target_block_size < MIN_BLOCK_SIZE:
        raise ConfigError(f"target_block_size {target_block_size} below {MIN_BLOCK_SIZE}")

    keys: list[bytes] = []
    index: list[tuple[int, int, bytes]] = []  # offset, payload length, first key
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
        source = raw_blocks()
        if compress_threads <= 1:
            for first_key, raw in source:
                yield first_key, len(raw), codec_mod.compress(raw, codec)
            return
        with ThreadPoolExecutor(max_workers=compress_threads) as pool:
            pending = []
            for first_key, raw in source:
                pending.append((first_key, len(raw), pool.submit(codec_mod.compress, raw, codec)))
                if len(pending) > compress_threads * 3:
                    fk, rl, fut = pending.pop(0)
                    yield fk, rl, fut.result()
            for fk, rl, fut in pending:
                yield fk, rl, fut.result()

    with open(path, "wb") as out:
        for first_key, raw_len, payload in compressed_blocks():
            index.append((offset, len(payload), first_key))
            comp_total += len(payload)
            out.write(_pack_block(payload, codec, raw_len))
            offset += _BLOCK_HEADER.size + len(payload) + _CRC.size

        bloom_offset = offset
        bloom_bytes = BloomFilter.build(keys, bits_per_key).to_bytes()
        out.write(bloom_bytes)

        index_offset = bloom_offset + len(bloom_bytes)
        index_buf = bytearray(struct.pack("<Q", len(index)))
        for block_offset, payload_len, first_key in index:
            index_buf += struct.pack("<QQI", block_offset, payload_len, len(first_key))
            index_buf += first_key
        last_key = keys[-1] if keys else b""
        index_buf += struct.pack("<I", len(last_key))
        index_buf += last_key
        out.write(index_buf)

        out.write(
            _FOOTER.pack(
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
                MAGIC,
            )
        )


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
            if size < _FOOTER.size:
                raise FormatError(f"{self.path}: file too small for a table footer")
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
                magic,
            ) = _FOOTER.unpack(self._read_at(size - _FOOTER.size, _FOOTER.size))
            if magic != MAGIC:
                raise FormatError(f"{self.path}: bad magic {magic!r}")
            if version != FORMAT_VERSION:
                raise FormatError(f"{self.path}: unsupported format version {version}")
            if index_offset + index_length > size or bloom_offset + bloom_length > size:
                raise FormatError(f"{self.path}: section handles beyond end of file")
            try:
                self.codec = codec_mod.spec_from_tag(algo_tag, level)
            except (CodecConfigError, IntegrityError) as exc:
                raise FormatError(f"{self.path}: footer names no codec: {exc}") from exc
            self._block_codec = (algo_tag, level)
            self.bloom = BloomFilter.from_bytes(self._read_at(bloom_offset, bloom_length))
            self._parse_index(self._read_at(index_offset, index_length))
            self._data_end = bloom_offset
        except Exception:
            self.close()
            raise

    def _parse_index(self, buf: bytes) -> None:
        try:
            (count,) = struct.unpack_from("<Q", buf, 0)
            pos = 8
            self.block_offsets: list[int] = []
            self.block_payload_lengths: list[int] = []
            self.first_keys: list[bytes] = []
            prev_offset = -1
            prev_key: bytes | None = None
            for _ in range(count):
                off, plen, klen = struct.unpack_from("<QQI", buf, pos)
                pos += 20
                key = buf[pos : pos + klen]
                pos += klen
                if off <= prev_offset or (prev_key is not None and key <= prev_key):
                    raise FormatError(f"{self.path}: index not strictly increasing")
                prev_offset, prev_key = off, key
                self.block_offsets.append(off)
                self.block_payload_lengths.append(plen)
                self.first_keys.append(key)
            (lklen,) = struct.unpack_from("<I", buf, pos)
            pos += 4
            self.last_key: bytes | None = buf[pos : pos + lklen] if lklen else None
            if count and self.last_key is None:
                raise FormatError(f"{self.path}: missing last key")
        except struct.error as exc:
            raise FormatError(f"{self.path}: index block truncated") from exc

    @property
    def first_key(self) -> bytes | None:
        return self.first_keys[0] if self.first_keys else None

    @property
    def block_count(self) -> int:
        return len(self.block_offsets)

    def _read_at(self, offset: int, length: int) -> bytes:
        data = os.pread(self._fd, length, offset)
        if len(data) != length:
            raise FormatError(f"{self.path}: short read at offset {offset}")
        return data

    def _read_block(self, idx: int) -> tuple[bytes, list[bytes], list[int]]:
        """Block idx, CRC-checked and decompressed, as (raw, keys, bounds):
        entry i (header, key, value) is raw[bounds[i]:bounds[i + 1]], so no
        value is copied until a caller slices it. The one entry parser."""
        payload_len = self.block_payload_lengths[idx]
        record = self._read_at(
            self.block_offsets[idx], _BLOCK_HEADER.size + payload_len + _CRC.size
        )
        algo_tag, level, raw_len = _BLOCK_HEADER.unpack_from(record, 0)
        payload = record[_BLOCK_HEADER.size : _BLOCK_HEADER.size + payload_len]
        (stored_crc,) = _CRC.unpack_from(record, _BLOCK_HEADER.size + payload_len)
        if zlib.crc32(payload) != stored_crc:
            raise IntegrityError(
                f"{self.path}: CRC mismatch in block {idx} at offset {self.block_offsets[idx]}"
            )
        # The CRC covers only the payload, so a block naming another codec
        # than the footer's is corrupt, not a configuration to obey.
        if (algo_tag, level) != self._block_codec:
            raise IntegrityError(
                f"{self.path}: block {idx} names codec tag {algo_tag} level {level}, "
                f"table is {self.codec}"
            )
        raw = codec_mod.decompress(payload, self.codec, raw_len)
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

    def load_block(self, idx: int) -> tuple[list[bytes], list[bytes]]:
        """Decompress block idx into parallel (keys, values) lists."""
        raw, keys, bounds = self._read_block(idx)
        head = _ENTRY_HEADER.size
        return keys, [raw[b + head + len(k) : e] for k, b, e in zip(keys, bounds, bounds[1:])]

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
            cache[idx] = self._read_block(idx)
        raw, keys, bounds = cache[idx]
        pos = bisect_right(keys, key) - 1
        if pos >= 0 and keys[pos] == key:
            return raw[bounds[pos] + _ENTRY_HEADER.size + len(key) : bounds[pos + 1]]
        return None

    def scan(self) -> Iterator[tuple[bytes, bytes]]:
        """All entries in key order."""
        for idx in range(len(self.block_offsets)):
            keys, values = self.load_block(idx)
            yield from zip(keys, values)

    def covers(self, key: bytes) -> bool:
        return (
            self.first_key is not None
            and self.last_key is not None
            and self.first_key <= key <= self.last_key
        )

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
