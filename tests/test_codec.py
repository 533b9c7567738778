"""Compression layer: round trips, corruption handling, relative sizes."""

import collections
import logging
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcstore import codec as codec_mod
from ppcstore import rawsnappy
from ppcstore.codec import (
    MAX_REASONABLE_RAW,
    REUSED_BUFFER_LIMIT,
    Algorithm,
    CodecSpec,
    compress,
    decompress,
)
from ppcstore.errors import CodecConfigError, IntegrityError
from ppcstore.sstable import build_table

BLOCK = 16 * 1024
SIZES = [0, 1, BLOCK - 1, BLOCK, 4 * BLOCK]


def random_payload(size: int, seed: int) -> bytes:
    rnd = random.Random(seed)
    # mixed compressibility: repeated phrases with random filler
    parts = []
    total = 0
    while total < size:
        if rnd.random() < 0.5:
            chunk = b"the quick brown fox %d " % rnd.randrange(100)
        else:
            chunk = rnd.getrandbits(256).to_bytes(32, "little")
        parts.append(chunk)
        total += len(chunk)
    return b"".join(parts)[:size]


def all_specs() -> list[CodecSpec]:
    specs = [CodecSpec(Algorithm.IDENTITY), CodecSpec(Algorithm.SNAPPY)]
    specs += [CodecSpec(Algorithm.ZSTD, lvl) for lvl in range(1, 23)]
    specs += [CodecSpec(Algorithm.DEFLATE, lvl) for lvl in range(1, 10)]
    return specs


class TestSpecParsing:
    @pytest.mark.parametrize(
        "text,algo,level",
        [
            ("identity", Algorithm.IDENTITY, 0),
            ("snappy", Algorithm.SNAPPY, 0),
            ("zstd:3", Algorithm.ZSTD, 3),
            ("deflate:9", Algorithm.DEFLATE, 9),
        ],
    )
    def test_parse_and_str(self, text, algo, level):
        spec = CodecSpec.parse(text)
        assert spec.algorithm is algo and spec.level == level
        assert str(spec) == text

    @pytest.mark.parametrize(
        "text",
        ["zstd:0", "zstd:23", "deflate:0", "deflate:10", "snappy:2", "zstd", "nope", "identity:1"],
    )
    def test_bad_specs_rejected(self, text):
        with pytest.raises(CodecConfigError):
            CodecSpec.parse(text)

    def test_constructor_validates_levels(self):
        with pytest.raises(CodecConfigError):
            CodecSpec(Algorithm.ZSTD, 99)
        with pytest.raises(CodecConfigError):
            CodecSpec(Algorithm.SNAPPY, 3)


class TestRoundTrip:
    @pytest.mark.parametrize("spec", all_specs(), ids=str)
    def test_all_levels_all_sizes(self, spec):
        for size in SIZES:
            payload = random_payload(size, seed=size)
            assert decompress(compress(payload, spec), spec, size) == payload

    def test_identity_returns_input_unchanged(self):
        assert compress(b"abc", CodecSpec(Algorithm.IDENTITY)) == b"abc"

    def test_zero_byte_payload_all_algorithms(self):
        for spec in all_specs():
            assert decompress(compress(b"", spec), spec, 0) == b""

    def test_expected_size_hint_is_verified(self):
        for text in ("zstd:1", "deflate:6", "snappy", "identity"):
            spec = CodecSpec.parse(text)
            comp = compress(b"x" * 100, spec)
            assert decompress(comp, spec, expected_size=100) == b"x" * 100
            for wrong in (0, 99, 101):
                with pytest.raises(IntegrityError):
                    decompress(comp, spec, expected_size=wrong)

    def test_compress_never_errors_on_arbitrary_bytes(self):
        rnd = random.Random(0)
        for spec in (CodecSpec.parse("zstd:3"), CodecSpec.parse("deflate:6"),
                     CodecSpec(Algorithm.SNAPPY), CodecSpec(Algorithm.IDENTITY)):
            for _ in range(20):
                blob = rnd.randbytes(rnd.randrange(0, 5000))
                decompress(compress(blob, spec), spec, len(blob))


class TestCorruption:
    def test_zstd_byte_flip_raises_integrity_error(self):
        spec = CodecSpec.parse("zstd:3")
        comp = bytearray(compress(random_payload(BLOCK, 1), spec))
        comp[len(comp) // 2] ^= 0xFF
        with pytest.raises(IntegrityError):
            decompress(bytes(comp), spec, expected_size=BLOCK)

    def test_deflate_byte_flip_raises_integrity_error(self):
        spec = CodecSpec.parse("deflate:6")
        comp = bytearray(compress(random_payload(BLOCK, 2), spec))
        comp[len(comp) // 2] ^= 0xFF
        with pytest.raises(IntegrityError):
            decompress(bytes(comp), spec, BLOCK)

    def test_zstd_garbage_frame_rejected(self):
        with pytest.raises(IntegrityError):
            decompress(b"not a zstd frame at all", CodecSpec.parse("zstd:3"), 100)


def flip_bit(frame: bytes, bit: int) -> bytes:
    out = bytearray(frame)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()


@pytest.fixture
def live_zstd_contexts(monkeypatch):
    """Counts, by kind, the zstd contexts made from here on and not yet freed."""
    lib = codec_mod._zstd()
    live = collections.Counter()
    lock = threading.Lock()
    for kind in ("CCtx", "DCtx"):
        create = getattr(lib, f"ZSTD_create{kind}")
        free = getattr(lib, f"ZSTD_free{kind}")

        def counted_create(create=create, kind=kind):
            ctx = create()
            with lock:
                live[kind] += 1
            return ctx

        def counted_free(ctx, free=free, kind=kind):
            with lock:
                live[kind] -= 1
            return free(ctx)

        monkeypatch.setattr(lib, f"ZSTD_create{kind}", counted_create)
        monkeypatch.setattr(lib, f"ZSTD_free{kind}", counted_free)
    return live


class TestPerThreadZstdState:
    SPEC = CodecSpec.parse("zstd:3")

    def test_contexts_freed_when_threads_exit(self, live_zstd_contexts):
        payload = random_payload(BLOCK, seed=6)
        results = []

        def work(_):
            for _ in range(3):
                frame = compress(payload, self.SPEC)
                results.append(decompress(frame, self.SPEC, BLOCK) == payload)

        for _ in range(5):
            run_threads(work, 4)
        assert results == [True] * 60
        assert live_zstd_contexts == {"CCtx": 0, "DCtx": 0}

    def test_table_builds_leave_no_contexts_behind(self, tmp_path, live_zstd_contexts):
        # each build starts its own compression pool, whose threads exit with it
        entries = [(b"k%04d" % i, random_payload(300, seed=i)) for i in range(200)]
        for i in range(40):
            build_table(tmp_path / f"t{i}.ppcs", entries, target_block_size=4096,
                        codec=self.SPEC, compress_threads=2)
        assert live_zstd_contexts == {"CCtx": 0}

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 3 * BLOCK), st.integers(0, 2**32 - 1), st.booleans()),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([1, 3, 9]),
    )
    def test_reuse_never_aliases_and_still_rejects_corruption(self, ops, level):
        spec = CodecSpec(Algorithm.ZSTD, level)
        kept = []
        for size, seed, corrupt in ops:
            payload = random_payload(size, seed)
            frame = compress(payload, spec)
            assert type(frame) is bytes
            if corrupt:
                bad = flip_bit(frame, seed % (len(frame) * 8))
                try:
                    out = decompress(bad, spec, expected_size=size)
                except IntegrityError:
                    continue
                # zstd ignores a few bits, such as the frame header's unused
                # bit; a flip there may decode, but only to the exact input
                assert out == payload
                continue
            out = decompress(frame, spec, expected_size=size)
            assert type(out) is bytes and out == payload
            kept.append((out, payload, frame))
        for out, payload, frame in kept:
            assert out == payload
            assert decompress(frame, spec, len(payload)) == payload

    def test_output_above_reuse_limit(self):
        size = REUSED_BUFFER_LIMIT + 12_345
        payload = random_payload(size, seed=11)
        small = random_payload(BLOCK, seed=12)
        small_out = decompress(compress(small, self.SPEC), self.SPEC, BLOCK)
        frame = compress(payload, self.SPEC)
        assert decompress(frame, self.SPEC, expected_size=size) == payload
        with pytest.raises(IntegrityError):
            decompress(flip_bit(frame, len(frame) * 8 - 3), self.SPEC, expected_size=size)
        assert small_out == small
        assert len(codec_mod._zstd_state().buf) <= REUSED_BUFFER_LIMIT

    def test_threads_round_trip_concurrently(self):
        spec = CodecSpec.parse("zstd:1")
        failures = []

        def work(worker):
            rnd = random.Random(worker)
            for i in range(300):
                payload = random_payload(rnd.randrange(4 * BLOCK), seed=worker * 1000 + i)
                if decompress(compress(payload, spec), spec, expected_size=len(payload)) != payload:
                    failures.append((worker, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(work, 4)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []


class TestCompressionBehaviour:
    def test_megabyte_of_one_byte_shrinks_below_5k(self):
        comp = compress(b"a" * (1 << 20), CodecSpec.parse("zstd:3"))
        assert len(comp) < 5 * 1024

    def test_levels_dominate_on_redundant_data(self):
        line = b"x" * 40 + b"line of the corpus body\n"
        assert len(line) == 64
        raw = line * ((1 << 20) // 64)
        r9 = len(compress(raw, CodecSpec.parse("zstd:9"))) / len(raw)
        r3 = len(compress(raw, CodecSpec.parse("zstd:3"))) / len(raw)
        rs = len(compress(raw, CodecSpec(Algorithm.SNAPPY))) / len(raw)
        assert r9 <= r3 <= rs


class TestSnappyFallback:
    @pytest.fixture
    def no_libsnappy(self, monkeypatch):
        """A host where libsnappy cannot be loaded; counts the library probes."""
        probes = []

        def find_library(name):
            probes.append(name)
            return None

        def cdll(name, *args, **kwargs):
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(codec_mod.ctypes.util, "find_library", find_library)
        monkeypatch.setattr(codec_mod.ctypes, "CDLL", cdll)
        codec_mod._snappy.cache_clear()
        yield probes
        codec_mod._snappy.cache_clear()

    def test_probe_runs_once_and_warns_once(self, no_libsnappy, caplog):
        spec = CodecSpec(Algorithm.SNAPPY)
        payload = random_payload(BLOCK, seed=4)
        with caplog.at_level(logging.WARNING, logger=codec_mod.__name__):
            for _ in range(5):
                assert decompress(compress(payload, spec), spec, BLOCK) == payload
        assert no_libsnappy == ["snappy"]
        warnings = [r for r in caplog.records if "libsnappy not available" in r.getMessage()]
        assert len(warnings) == 1


@pytest.mark.skipif(codec_mod._snappy() is None, reason="libsnappy cannot be loaded")
class TestSnappyInterop:
    """The fallback and libsnappy read each other's output."""

    SPEC = CodecSpec(Algorithm.SNAPPY)

    @pytest.mark.parametrize("size", SIZES)
    def test_libsnappy_decodes_fallback_output(self, size):
        payload = random_payload(size, seed=size)
        assert decompress(rawsnappy.compress(payload), self.SPEC, size) == payload

    @pytest.mark.parametrize("size", SIZES)
    def test_fallback_decodes_libsnappy_output(self, size):
        payload = random_payload(size, seed=size)
        assert rawsnappy.decompress(compress(payload, self.SPEC), MAX_REASONABLE_RAW) == payload


class TestRatio:
    def test_identity_ratio_is_exactly_one(self):
        raw = b"q" * 1000
        comp = compress(raw, CodecSpec(Algorithm.IDENTITY))
        assert len(comp) == len(raw)
