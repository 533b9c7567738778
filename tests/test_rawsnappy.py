"""Pure-Python snappy raw-format codec: hand-built streams, malformed
streams and arbitrary input, following snappy's format_description.txt."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcstore import rawsnappy
from ppcstore.codec import MAX_REASONABLE_RAW, Algorithm, CodecSpec, decompress
from ppcstore.errors import IntegrityError

SNAPPY = CodecSpec(Algorithm.SNAPPY)


def varint(n: int) -> bytes:
    out = bytearray()
    while n >= 0x80:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


def literal(data: bytes, extra: int = 0) -> bytes:
    """Literal element; extra = 0 keeps length-1 in the tag, 1..4 uses that
    many little-endian length bytes after it."""
    if extra == 0:
        assert len(data) <= 60
        return bytes([(len(data) - 1) << 2]) + data
    return bytes([(59 + extra) << 2]) + (len(data) - 1).to_bytes(extra, "little") + data


def copy1(offset: int, length: int) -> bytes:
    assert 4 <= length <= 11 and offset < 2048
    return bytes([(offset >> 8) << 5 | (length - 4) << 2 | 1, offset & 0xFF])


def copy2(offset: int, length: int) -> bytes:
    return bytes([(length - 1) << 2 | 2]) + offset.to_bytes(2, "little")


def copy4(offset: int, length: int) -> bytes:
    return bytes([(length - 1) << 2 | 3]) + offset.to_bytes(4, "little")


def decode(stream: bytes) -> bytes:
    return rawsnappy.decompress(stream, MAX_REASONABLE_RAW)


TEXT = bytes(range(32, 127)) * 4  # 380 distinct-enough bytes


class TestHandBuiltStreams:
    def test_empty_stream(self):
        assert decode(b"\x00") == b""

    @pytest.mark.parametrize(
        "size,extra", [(1, 0), (60, 0), (61, 1), (256, 1), (300, 2), (70, 3), (80, 4)]
    )
    def test_literal_length_forms(self, size, extra):
        data = TEXT[:size]
        assert decode(varint(size) + literal(data, extra)) == data

    def test_copy_1_byte_offset_with_high_offset_bits(self):
        head = TEXT[:300]
        stream = varint(311) + literal(head, 2) + copy1(300, 11)
        assert decode(stream) == head + head[:11]

    def test_copy_2_byte_offset(self):
        head = TEXT[:300]
        stream = varint(364) + literal(head, 2) + copy2(290, 64)
        assert decode(stream) == head + head[10:74]

    def test_copy_4_byte_offset(self):
        head = TEXT[:100]
        stream = varint(120) + literal(head, 1) + copy4(70, 20)
        assert decode(stream) == head + head[30:50]

    @pytest.mark.parametrize("copy", [copy1, copy2, copy4])
    def test_overlapping_copy_repeats_the_pattern(self, copy):
        stream = varint(12) + literal(b"abc") + copy(3, 9)
        assert decode(stream) == b"abc" * 4

    def test_offset_one_is_a_run(self):
        assert decode(varint(11) + literal(b"z") + copy2(1, 10)) == b"z" * 11

    def test_codec_decompress_uses_the_same_format(self):
        stream = varint(12) + literal(b"abc") + copy1(3, 9)
        assert decompress(stream, SNAPPY, expected_size=12) == b"abc" * 4


ABCD = literal(b"abcd")

# (id, stream, words the IntegrityError must carry)
MALFORMED = [
    ("empty", b"", "varint"),
    ("truncated-varint", b"\x80", "varint"),
    ("varint-over-5-bytes", b"\x80\x80\x80\x80\x80\x01", "varint"),
    ("truncated-literal", varint(5) + bytes([4 << 2]) + b"hel", "literal truncated"),
    ("truncated-literal-length", varint(70) + bytes([61 << 2]) + b"\x45", "length truncated"),
    ("truncated-copy-1", varint(8) + ABCD + b"\x01", "copy truncated"),
    ("truncated-copy-2", varint(8) + ABCD + b"\x0e\x04", "copy truncated"),
    ("truncated-copy-4", varint(8) + ABCD + b"\x0f\x04\x00\x00", "copy truncated"),
    ("offset-0-copy-1", varint(8) + ABCD + copy1(0, 4), "offset 0"),
    ("offset-0-copy-2", varint(8) + ABCD + copy2(0, 4), "offset 0"),
    ("offset-past-output", varint(9) + ABCD + copy1(5, 5), "offset 5"),
    ("copy-before-any-output", varint(4) + copy4(1, 4), "offset 1"),
    ("literal-longer-than-declared", varint(3) + literal(b"abcde"), "overruns"),
    ("copy-longer-than-declared", varint(6) + literal(b"ab") + copy1(2, 5), "overruns"),
    ("shorter-than-declared", varint(10) + literal(b"abcde"), "holds 5 bytes"),
    ("declared-too-large", varint(MAX_REASONABLE_RAW + 1) + literal(b"a"), "above"),
]


class TestMalformedStreams:
    @pytest.mark.parametrize(
        "stream,reason", [pytest.param(s, r, id=i) for i, s, r in MALFORMED]
    )
    def test_raises_integrity_error(self, stream, reason):
        with pytest.raises(IntegrityError, match=reason):
            decode(stream)

    def test_declared_length_checked_against_the_callers_limit(self):
        with pytest.raises(IntegrityError, match="above 9"):
            rawsnappy.decompress(varint(10) + literal(TEXT[:10]), 9)

    def test_codec_rejects_declared_length_above_limit(self):
        # the limit is the size the caller expects
        with pytest.raises(IntegrityError):
            decompress(varint(MAX_REASONABLE_RAW + 1) + literal(b"a"), SNAPPY, 1)


class TestEncoder:
    def test_deterministic_and_finds_matches(self):
        raw = (b"def parse(self, line):\n    return line.split()\n" * 400)[:10_000]
        first = rawsnappy.compress(raw)
        assert first == rawsnappy.compress(raw)
        assert len(first) < len(raw) // 10
        assert decode(first) == raw

    def test_round_trip_across_fragment_boundaries(self):
        rnd = random.Random(5)
        words = [rnd.randbytes(rnd.randrange(3, 12)) for _ in range(200)]
        raw = b" ".join(rnd.choice(words) for _ in range(60_000))
        assert len(raw) > 3 * rawsnappy.FRAGMENT
        assert decode(rawsnappy.compress(raw)) == raw

    def test_long_runs_split_into_valid_copies(self):
        for size in (5, 67, 68, 69, 131, 5000):
            raw = b"q" * size
            assert decode(rawsnappy.compress(raw)) == raw


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=400))
def test_arbitrary_bytes_decode_or_raise_integrity_error(blob):
    try:
        out = decode(blob)
    except IntegrityError:
        return
    assert isinstance(out, bytes)


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=1, max_size=600), st.data())
def test_bit_flips_decode_or_raise_integrity_error(raw, data):
    stream = bytearray(rawsnappy.compress(raw))
    i = data.draw(st.integers(0, len(stream) - 1))
    stream[i] ^= 1 << data.draw(st.integers(0, 7))
    try:
        out = decode(bytes(stream))
    except IntegrityError:
        return
    assert isinstance(out, bytes)
