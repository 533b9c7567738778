"""Uniform block-compression layer over zstd, deflate, snappy and identity.

zstd and snappy are bound to the system shared libraries through ctypes
(both release the GIL during calls, which the threaded read path relies
on); deflate uses the stdlib zlib. libsnappy is optional: where it cannot
be loaded, snappy falls back to the pure-Python raw-format codec in
`rawsnappy`, which writes the same format but holds the GIL and is far
slower, so snappy timings taken without libsnappy say nothing about
snappy's speed. Each algorithm carries a stable 1-byte tag, which a table's
footer records so the table names its own codec.

Decompression requires the raw size, which table block headers record: it
sizes the output and the result must match it.

zstd state is per thread: each thread creates one compression context, one
decompression context and one output buffer on first use and reuses them for
every later call, so a call sets up no context or buffer and returns its
bytes with one copy out of the buffer. An output above REUSED_BUFFER_LIMIT
gets a one-off buffer, so no thread keeps more than that limit. Both contexts
are freed when their thread exits.
"""

import ctypes
import ctypes.util
import enum
import logging
import threading
import weakref
import zlib
from dataclasses import dataclass
from functools import lru_cache

from . import rawsnappy
from .errors import CodecConfigError, IntegrityError

logger = logging.getLogger(__name__)

ZSTD_MIN_LEVEL, ZSTD_MAX_LEVEL = 1, 22
DEFLATE_MIN_LEVEL, DEFLATE_MAX_LEVEL = 1, 9

# Guard against corrupt headers requesting absurd output buffers.
MAX_REASONABLE_RAW = 1 << 31

# Largest zstd output a thread's reused buffer grows to; a bigger one gets a
# buffer of its own, so an odd huge block does not stay pinned per thread.
REUSED_BUFFER_LIMIT = 4 << 20


class Algorithm(enum.Enum):
    IDENTITY = ("identity", 0, False)
    ZSTD = ("zstd", 1, True)
    DEFLATE = ("deflate", 2, True)
    SNAPPY = ("snappy", 3, False)

    def __init__(self, label: str, tag: int, leveled: bool):
        self.label = label
        self.tag = tag
        self.leveled = leveled


_BY_TAG = {a.tag: a for a in Algorithm}
_BY_LABEL = {a.label: a for a in Algorithm}


@dataclass(frozen=True, slots=True)
class CodecSpec:
    """One point in the compressor/level trade-off space."""

    algorithm: Algorithm
    level: int = 0

    def __post_init__(self):
        a, lvl = self.algorithm, self.level
        if a is Algorithm.ZSTD and not ZSTD_MIN_LEVEL <= lvl <= ZSTD_MAX_LEVEL:
            raise CodecConfigError(f"zstd level {lvl} outside {ZSTD_MIN_LEVEL}..{ZSTD_MAX_LEVEL}")
        if a is Algorithm.DEFLATE and not DEFLATE_MIN_LEVEL <= lvl <= DEFLATE_MAX_LEVEL:
            raise CodecConfigError(f"deflate level {lvl} outside {DEFLATE_MIN_LEVEL}..{DEFLATE_MAX_LEVEL}")
        if not a.leveled and lvl != 0:
            raise CodecConfigError(f"{a.label} does not take a level")

    def __str__(self) -> str:
        return f"{self.algorithm.label}:{self.level}" if self.algorithm.leveled else self.algorithm.label

    @classmethod
    def parse(cls, text: str) -> "CodecSpec":
        """Parse the CLI/config form: 'identity', 'snappy', 'zstd:<n>', 'deflate:<n>'."""
        name, _, level_text = text.strip().partition(":")
        algo = _BY_LABEL.get(name.lower())
        if algo is None:
            raise CodecConfigError(f"unknown algorithm {name!r}")
        if not algo.leveled:
            if level_text:
                raise CodecConfigError(f"{algo.label} does not take a level")
            return cls(algo)
        if not level_text:
            raise CodecConfigError(f"{algo.label} requires a level, e.g. '{algo.label}:3'")
        try:
            level = int(level_text)
        except ValueError:
            raise CodecConfigError(f"bad level {level_text!r}") from None
        return cls(algo, level)


# zstd.h stable public enum values
_ZSTD_C_COMPRESSION_LEVEL = 100
_ZSTD_C_CHECKSUM_FLAG = 201


@lru_cache(maxsize=None)
def _zstd():
    try:
        lib = ctypes.CDLL(ctypes.util.find_library("zstd") or "libzstd.so.1")
    except OSError as exc:
        raise CodecConfigError(f"libzstd not available: {exc}") from exc
    lib.ZSTD_compressBound.restype = ctypes.c_size_t
    lib.ZSTD_compressBound.argtypes = [ctypes.c_size_t]
    for kind in ("CCtx", "DCtx"):
        create, free = getattr(lib, f"ZSTD_create{kind}"), getattr(lib, f"ZSTD_free{kind}")
        create.restype, create.argtypes = ctypes.c_void_p, []
        free.restype, free.argtypes = ctypes.c_size_t, [ctypes.c_void_p]
    lib.ZSTD_CCtx_setParameter.restype = ctypes.c_size_t
    lib.ZSTD_CCtx_setParameter.argtypes = [ctypes.c_void_p, ctypes.c_int, ctypes.c_int]
    lib.ZSTD_compress2.restype = ctypes.c_size_t
    lib.ZSTD_compress2.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t, ctypes.c_char_p, ctypes.c_size_t,
    ]
    lib.ZSTD_decompressDCtx.restype = ctypes.c_size_t
    lib.ZSTD_decompressDCtx.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t, ctypes.c_char_p, ctypes.c_size_t,
    ]
    lib.ZSTD_isError.restype = ctypes.c_uint
    lib.ZSTD_isError.argtypes = [ctypes.c_size_t]
    return lib


class _ZstdState:
    """One thread's zstd contexts, each made on first use, and output buffer.

    A weakref.finalize per context frees it when the thread exits and drops
    this object. Contexts of threads still running at interpreter exit are
    left to the OS: a daemon thread may be inside a zstd call then.
    """

    __slots__ = ("lib", "cctx", "dctx", "buf", "__weakref__")

    def __init__(self, lib):
        self.lib = lib
        self.cctx = self.dctx = None
        self.buf = ctypes.create_string_buffer(0)

    def _context(self, kind: str) -> int:
        ctx = getattr(self.lib, f"ZSTD_create{kind}")()
        if not ctx:
            raise CodecConfigError(f"ZSTD_create{kind} failed")
        weakref.finalize(self, getattr(self.lib, f"ZSTD_free{kind}"), ctx).atexit = False
        return ctx

    def compressor(self) -> int:
        if self.cctx is None:
            self.cctx = self._context("CCtx")
            # frame checksum so single-byte corruption is always detectable
            self.lib.ZSTD_CCtx_setParameter(self.cctx, _ZSTD_C_CHECKSUM_FLAG, 1)
        return self.cctx

    def decompressor(self) -> int:
        if self.dctx is None:
            self.dctx = self._context("DCtx")
        return self.dctx

    def output(self, size: int):
        """A buffer of at least size bytes; the thread's own up to the limit."""
        if size > REUSED_BUFFER_LIMIT:
            return ctypes.create_string_buffer(size)
        if len(self.buf) < size:
            self.buf = ctypes.create_string_buffer(size)
        return self.buf


_zstd_tls = threading.local()


def _zstd_state() -> _ZstdState:
    state = getattr(_zstd_tls, "state", None)
    if state is None:
        state = _zstd_tls.state = _ZstdState(_zstd())
    return state


@lru_cache(maxsize=None)
def _snappy():
    """libsnappy through ctypes, or None when it cannot be loaded.

    Returning None rather than raising lets lru_cache keep the answer, so
    the probe (find_library starts helper processes) runs once per process.
    """
    try:
        lib = ctypes.CDLL(ctypes.util.find_library("snappy") or "libsnappy.so.1")
    except OSError as exc:
        logger.warning(
            "libsnappy not available (%s); snappy uses the pure-Python "
            "raw-format codec, which is far slower",
            exc,
        )
        return None
    lib.snappy_max_compressed_length.restype = ctypes.c_size_t
    lib.snappy_max_compressed_length.argtypes = [ctypes.c_size_t]
    lib.snappy_compress.restype = ctypes.c_int
    lib.snappy_compress.argtypes = [
        ctypes.c_char_p, ctypes.c_size_t, ctypes.c_void_p, ctypes.POINTER(ctypes.c_size_t),
    ]
    lib.snappy_uncompress.restype = ctypes.c_int
    lib.snappy_uncompress.argtypes = [
        ctypes.c_char_p, ctypes.c_size_t, ctypes.c_void_p, ctypes.POINTER(ctypes.c_size_t),
    ]
    return lib


def compress(raw: bytes, spec: CodecSpec) -> bytes:
    """Compress arbitrary bytes; only configuration problems can fail."""
    algo = spec.algorithm
    if algo is Algorithm.IDENTITY:
        return bytes(raw)
    if algo is Algorithm.DEFLATE:
        return zlib.compress(raw, spec.level)
    if algo is Algorithm.ZSTD:
        state = _zstd_state()
        lib = state.lib
        cctx = state.compressor()
        lib.ZSTD_CCtx_setParameter(cctx, _ZSTD_C_COMPRESSION_LEVEL, spec.level)
        bound = lib.ZSTD_compressBound(len(raw))
        dst = state.output(bound)
        written = lib.ZSTD_compress2(cctx, dst, bound, raw, len(raw))
        if lib.ZSTD_isError(written):
            raise CodecConfigError(f"zstd compression failed (level {spec.level})")
        return memoryview(dst)[:written].tobytes()
    if algo is Algorithm.SNAPPY:
        lib = _snappy()
        if lib is None:
            return rawsnappy.compress(raw)
        bound = lib.snappy_max_compressed_length(len(raw))
        dst = ctypes.create_string_buffer(max(bound, 1))
        out_len = ctypes.c_size_t(max(bound, 1))
        rc = lib.snappy_compress(raw, len(raw), dst, ctypes.byref(out_len))
        if rc != 0:
            raise CodecConfigError(f"snappy compression failed (status {rc})")
        return dst.raw[: out_len.value]
    raise CodecConfigError(f"unsupported algorithm {algo}")


def decompress(compressed: bytes, spec: CodecSpec, expected_size: int) -> bytes:
    """Recover the exact original bytes; corrupt input raises IntegrityError.

    expected_size is the raw length the caller recorded (block headers carry
    it): it sizes the output buffer and the result must match it exactly.
    """
    algo = spec.algorithm
    if not 0 <= expected_size <= MAX_REASONABLE_RAW:
        raise IntegrityError(f"implausible raw size {expected_size}")

    if algo is Algorithm.IDENTITY:
        out = bytes(compressed)
    elif algo is Algorithm.DEFLATE:
        try:
            out = zlib.decompress(compressed)
        except zlib.error as exc:
            raise IntegrityError(f"deflate payload corrupt: {exc}") from exc
    elif algo is Algorithm.ZSTD:
        state = _zstd_state()
        lib = state.lib
        dst = state.output(expected_size)
        written = lib.ZSTD_decompressDCtx(
            state.decompressor(), dst, expected_size, compressed, len(compressed)
        )
        if lib.ZSTD_isError(written):
            raise IntegrityError("zstd payload corrupt")
        out = memoryview(dst)[:written].tobytes()
    elif algo is Algorithm.SNAPPY and _snappy() is None:
        out = rawsnappy.decompress(compressed, expected_size)
    elif algo is Algorithm.SNAPPY:
        lib = _snappy()
        dst = ctypes.create_string_buffer(max(expected_size, 1))
        out_len = ctypes.c_size_t(max(expected_size, 1))
        rc = lib.snappy_uncompress(compressed, len(compressed), dst, ctypes.byref(out_len))
        if rc != 0:
            raise IntegrityError(f"snappy payload corrupt (status {rc})")
        out = dst.raw[: out_len.value]
    else:
        raise CodecConfigError(f"unsupported algorithm {algo}")

    if len(out) != expected_size:
        raise IntegrityError(f"decompressed to {len(out)} bytes, expected {expected_size}")
    return out


def spec_from_tag(tag: int, level: int) -> CodecSpec:
    try:
        return CodecSpec(_BY_TAG[tag], level)
    except KeyError:
        raise IntegrityError(f"unknown algorithm tag {tag}") from None
