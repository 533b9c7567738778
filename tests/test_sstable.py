"""Table format: packing rule, lookups, scans, blooms, bit-exactness."""

import hashlib
import random
import struct
import zlib

import pytest

from ppcstore.codec import Algorithm, CodecSpec
from ppcstore.errors import ConfigError, FormatError, IntegrityError, SortViolationError
from ppcstore.sstable import SSTable, build_table

from conftest import V1_TABLE

ZSTD3 = CodecSpec.parse("zstd:3")
IDENTITY = CodecSpec(Algorithm.IDENTITY)


def entries_of(count: int, value_size: int = 100, prefix: bytes = b"key") -> list[tuple[bytes, bytes]]:
    return [
        (b"%s-%06d" % (prefix, i), bytes([i % 251]) * value_size)
        for i in range(count)
    ]


def reseal(blob: bytearray) -> None:
    """Recompute the footer's CRC32 of everything from the bloom offset up
    to that CRC field, after a deliberate edit of the metadata."""
    (bloom_offset,) = struct.unpack_from("<Q", blob, len(blob) - 64 + 12)
    struct.pack_into("<I", blob, len(blob) - 8, zlib.crc32(blob[bloom_offset:-8]))


def simulate_packing(entries, target: int) -> list[int]:
    """Independent oracle for the block-close rule: entries per block."""
    blocks, current, size = [], 0, 0
    for key, value in entries:
        current += 1
        size += 8 + len(key) + len(value)  # 8-byte entry header
        if size >= target:
            blocks.append(current)
            current, size = 0, 0
    if current:
        blocks.append(current)
    return blocks


class TestBuildPacking:
    def test_ten_1k_entries_in_4k_blocks_make_3_blocks(self, tmp_path):
        entries = entries_of(10, value_size=1024)
        expected = simulate_packing(entries, 4096)
        assert expected == [4, 4, 2]  # frozen from the oracle
        path = tmp_path / "t.ppcs"
        build_table(path, entries, target_block_size=4096, codec=IDENTITY)
        with SSTable(path) as table:
            assert len(table.block_offsets) == 3
            per_block = [len(table.load_block(i)[1]) for i in range(len(table.block_offsets))]
            assert per_block == expected

    def test_oversized_entry_gets_own_block(self, tmp_path):
        entries = [(b"big", b"z" * (1 << 20))]
        build_table(tmp_path / "t.ppcs", entries, target_block_size=4096, codec=ZSTD3)
        with SSTable(tmp_path / "t.ppcs") as table:
            assert len(table.block_offsets) == 1
            assert table.get(b"big") == b"z" * (1 << 20)

    def test_empty_table_is_valid(self, tmp_path):
        path = tmp_path / "empty.ppcs"
        build_table(path, [], target_block_size=4096, codec=ZSTD3)
        with SSTable(path) as table:
            assert len(table.block_offsets) == 0 and table.entry_count == 0
            assert table.get(b"anything") is None
            assert table.blocks_read == 0
            assert list(table.scan()) == []

    def test_out_of_order_keys_rejected(self, tmp_path):
        with pytest.raises(SortViolationError):
            build_table(
                tmp_path / "bad.ppcs",
                [(b"b", b"1"), (b"a", b"2")],
                target_block_size=4096,
                codec=ZSTD3,
            )

    def test_duplicate_keys_rejected(self, tmp_path):
        with pytest.raises(SortViolationError):
            build_table(
                tmp_path / "dup.ppcs",
                [(b"a", b"1"), (b"a", b"2")],
                target_block_size=4096,
                codec=ZSTD3,
            )

    def test_tiny_block_size_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            build_table(tmp_path / "t.ppcs", [], target_block_size=512, codec=ZSTD3)


class TestBitExactness:
    @pytest.mark.parametrize("threads", [1, 3])
    def test_same_input_same_bytes(self, tmp_path, threads):
        entries = entries_of(500, value_size=300)
        a, b = tmp_path / "a.ppcs", tmp_path / "b.ppcs"
        build_table(a, entries, target_block_size=4096, codec=ZSTD3, compress_threads=threads)
        build_table(b, entries, target_block_size=4096, codec=ZSTD3, compress_threads=1)
        assert hashlib.sha256(a.read_bytes()).digest() == hashlib.sha256(b.read_bytes()).digest()


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables") / "t.ppcs"
    entries = entries_of(2_000, value_size=150)
    build_table(path, entries, target_block_size=4096, codec=ZSTD3)
    with SSTable(path) as t:
        yield t, entries


class TestGet:

    def test_every_key_round_trips(self, table):
        t, entries = table
        for key, value in entries:
            assert t.get(key) == value

    def test_each_get_touches_at_most_one_block(self, table):
        t, entries = table
        rnd = random.Random(0)
        for key, _ in rnd.sample(entries, 200):
            before = t.blocks_read
            t.get(key)
            assert t.blocks_read - before <= 1

    def test_absent_key_before_first(self, table):
        t, _ = table
        assert t.get(b"A-before-everything") is None

    def test_bloom_skips_data_blocks_on_misses(self, tmp_path):
        path = tmp_path / "bloom.ppcs"
        entries = [(b"present-%06d" % i, b"v" * 40) for i in range(10_000)]
        build_table(path, entries, target_block_size=4096, codec=ZSTD3, bits_per_key=10)
        with SSTable(path) as t:
            zero_block = 0
            probes = 10_000
            for i in range(probes):
                before = t.blocks_read
                assert t.get(b"absent-%06d" % i) is None
                if t.blocks_read == before:
                    zero_block += 1
            assert zero_block / probes >= 0.98
            # no false negatives anywhere
            assert all(t.bloom.might_contain(k) for k, _ in entries)


class TestScan:
    def test_full_scan_returns_build_input(self, tmp_path):
        entries = entries_of(1_000, value_size=80)
        path = tmp_path / "scan.ppcs"
        build_table(path, entries, target_block_size=4096, codec=ZSTD3)
        with SSTable(path) as t:
            assert list(t.scan()) == entries


class TestBlockSizeTradeoff:
    @staticmethod
    def _similar_entries(n=800):
        # same-extension-style entries sharing heavy template content
        rnd = random.Random(8)
        template = b"shared template body " * 40
        out = []
        for i in range(n):
            unique = rnd.getrandbits(400 * 8).to_bytes(400, "little")
            out.append((b"py\x00mod%05d\x00id%05d" % (i, i), template + unique))
        return out

    def test_ratio_improves_with_block_size(self, tmp_path):
        entries = self._similar_entries()
        ratios = {}
        for kib in (4, 16, 64, 128):
            path = tmp_path / f"b{kib}.ppcs"
            build_table(path, entries, target_block_size=kib * 1024, codec=CodecSpec.parse("zstd:6"))
            with SSTable(path) as t:
                ratios[kib] = t.compressed_bytes_total / t.raw_bytes_total
        assert ratios[128] <= ratios[64] <= ratios[16] <= ratios[4]

    def test_larger_blocks_decompress_more_per_get(self, tmp_path):
        entries = self._similar_entries()
        means = {}
        rnd = random.Random(9)
        sample_keys = [k for k, _ in rnd.sample(entries, 100)]
        for kib in (4, 128):
            path = tmp_path / f"g{kib}.ppcs"
            build_table(path, entries, target_block_size=kib * 1024, codec=ZSTD3)
            with SSTable(path) as t:
                for key in sample_keys:
                    assert t.get(key) is not None
                means[kib] = t.bytes_decompressed / len(sample_keys)
        assert means[128] > means[4]


class TestCorruptionAndFormat:
    def _build(self, tmp_path, name="c.ppcs"):
        path = tmp_path / name
        build_table(path, entries_of(200, value_size=200), target_block_size=4096, codec=ZSTD3)
        return path

    def test_flipped_data_byte_raises_integrity_error(self, tmp_path):
        path = self._build(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF  # inside the first data block
        path.write_bytes(bytes(blob))
        with SSTable(path) as t:
            with pytest.raises(IntegrityError):
                for i in range(len(t.block_offsets)):
                    t.load_block(i)

    @pytest.mark.parametrize("raw_len", [0, 4143, 1 << 31, (1 << 32) - 1],
                             ids=["zero", "plus1", "2gib", "max"])
    def test_corrupt_raw_length_raises_integrity_error(self, tmp_path, raw_len):
        # the block CRC covers the [4B raw length] header, so a bad one is
        # caught before it sizes a decompression buffer
        path = self._build(tmp_path)
        blob = bytearray(path.read_bytes())
        assert struct.unpack_from("<I", blob, 0) == (19 * (8 + 10 + 200),)  # 19 entries
        struct.pack_into("<I", blob, 0, raw_len)
        path.write_bytes(bytes(blob))
        with SSTable(path) as t:
            with pytest.raises(IntegrityError, match="CRC mismatch in block 0"):
                t.get(t.first_key)

    def test_index_offset_leaving_a_short_block_raises_format_error(self, tmp_path):
        path = self._build(tmp_path)
        blob = bytearray(path.read_bytes())
        (index_offset,) = struct.unpack_from("<Q", blob, len(blob) - 64)
        # the second index entry follows [8B count][8B offset][4B key len][key]
        (first_key_len,) = struct.unpack_from("<I", blob, index_offset + 16)
        second = index_offset + 20 + first_key_len
        struct.pack_into("<Q", blob, second, 7)  # block 0 spans 7 bytes: less than header + CRC
        reseal(blob)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="too short"):
            SSTable(path)

    def test_metadata_crc_mismatch_raises_integrity_error(self, tmp_path):
        # zeroed bloom bits would turn every present key absent
        path = self._build(tmp_path)
        blob = bytearray(path.read_bytes())
        _, _, bloom_offset, bloom_length = struct.unpack_from("<QIQI", blob, len(blob) - 64)
        blob[bloom_offset + 20 : bloom_offset + bloom_length] = bytes(bloom_length - 20)
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="bloom, index or footer"):
            SSTable(path)

    def test_v1_table_raises_format_error(self):
        with pytest.raises(FormatError, match="version 1"):
            SSTable(V1_TABLE)

    @pytest.mark.parametrize("offset,value", [(-11, 0), (-11, 30), (-12, 0), (-12, 200)],
                             ids=["level0", "level30", "algo0", "algo200"])
    def test_footer_codec_bytes_without_a_codec_raise_format_error(self, tmp_path, offset, value):
        # the footer's algo tag and level sit 12 and 11 bytes before its end;
        # tag 0 is identity, which takes no level, and no codec has tag 200
        path = self._build(tmp_path)
        blob = bytearray(path.read_bytes())
        assert blob[-12:-10] == bytes([ZSTD3.algorithm.tag, ZSTD3.level])
        blob[offset] = value
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            SSTable(path)

    def test_truncated_file_raises_format_error(self, tmp_path):
        path = self._build(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            SSTable(path)

    def test_bad_magic_raises_format_error(self, tmp_path):
        path = self._build(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            SSTable(path)

    def test_not_a_table_raises_format_error(self, tmp_path):
        path = tmp_path / "junk.ppcs"
        path.write_bytes(b"tiny")
        with pytest.raises(FormatError):
            SSTable(path)


SWEEP_CODECS = ["identity", "deflate:6", "zstd:3", "snappy"]


@pytest.mark.parametrize("codec", SWEEP_CODECS)
def test_every_single_byte_flip_is_detected(tmp_path, codec):
    """Flip each byte of a small multi-block table in turn: opening raises
    FormatError or IntegrityError, or a full scan raises IntegrityError.
    Wrong or missing data, an undetected flip or any other error fails."""
    rnd = random.Random(4)
    words = [b"def", b"return", b"self", b"import", b"value", b"(x)", b"\n    "]
    entries = [
        (b"py\x00mod%03d" % i, b" ".join(rnd.choice(words) for _ in range(30)))
        for i in range(50)
    ]
    path = tmp_path / "sweep.ppcs"
    build_table(path, entries, target_block_size=1024, codec=CodecSpec.parse(codec))
    clean = path.read_bytes()
    with SSTable(path) as t:
        assert len(t.block_offsets) >= 4 and list(t.scan()) == entries
    assert len(clean) <= 10 * 1024
    undetected = []
    with open(path, "r+b") as f:
        for pos in range(len(clean)):
            f.seek(pos)
            f.write(bytes([clean[pos] ^ 0xFF]))
            f.flush()
            try:
                with SSTable(path) as t:
                    try:
                        scanned = list(t.scan())
                    except IntegrityError:
                        scanned = None
            except (FormatError, IntegrityError):
                scanned = None
            if scanned is not None:
                undetected.append((pos, scanned == entries))
            f.seek(pos)
            f.write(clean[pos : pos + 1])
    assert undetected == [], f"{len(undetected)} of {len(clean)} flips went undetected"
