"""Helpers shared by the workloads: seeded inputs, value checks, timing
summaries, process counters and provenance.

Nothing here times program work by itself; the workloads decide what is
inside a timed interval. Values returned by the store are reduced to a
(length, CRC-32) fingerprint right after each call, and compared with the
expected fingerprint only after the timed pass.
"""

import ctypes
import ctypes.util
import hashlib
import math
import os
import platform
import resource
import statistics
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from ppcstore import metrics as metrics_mod
from ppcstore.codec import CodecSpec
from ppcstore.corpus import canonical_filename, serialize_record
from ppcstore.engine import StoreConfig
from ppcstore.keys import derive_key
from ppcstore.synth import SynthSpec, generate_records

MIB = 1 << 20
KIB = 1 << 10

CORPUS_FILES = 10_000
CODEC = "zstd:3"
BLOCK_BYTES = 64 * KIB
BITS_PER_KEY = 10.0
COMPACTION_THREADS = 2
MULTIGET_BATCH = 100

# Percentiles tried, lowest first, when reporting the tail of a timing.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
MIN_BEYOND = 10


def store_config(data_dir, write_buffer_bytes: int) -> StoreConfig:
    return StoreConfig(
        data_dir=data_dir,
        codec=CodecSpec.parse(CODEC),
        target_block_size=BLOCK_BYTES,
        write_buffer_bytes=write_buffer_bytes,
        compaction_threads=COMPACTION_THREADS,
        bits_per_key=BITS_PER_KEY,
    )


def config_summary(config: StoreConfig) -> dict:
    return {
        "codec": str(config.codec),
        "block_bytes": config.target_block_size,
        "write_buffer_bytes": config.write_buffer_bytes,
        "bits_per_key": config.bits_per_key,
        "compaction_threads": config.compaction_threads,
    }


# -- timing summaries ---------------------------------------------------------


def _rank_index(n: int, pct: float) -> int:
    """Nearest-rank index of the pct-th percentile in n sorted samples."""
    # rounding first keeps float error (99.9 / 100 * 10000 = 9990.000000000002)
    # from moving the rank up by one
    return max(0, math.ceil(round(pct * n / 100.0, 9)) - 1)


def percentile(sorted_samples, pct: float) -> float:
    return sorted_samples[_rank_index(len(sorted_samples), pct)]


def tail_percentile(sorted_samples) -> tuple[float, float] | None:
    """(pct, value) for the highest ladder percentile that still has at
    least MIN_BEYOND samples above its rank; None when even the median
    does not."""
    n = len(sorted_samples)
    best = None
    for pct in PERCENTILE_LADDER:
        idx = _rank_index(n, pct)
        if n - 1 - idx < MIN_BEYOND:
            break
        best = (pct, sorted_samples[idx])
    return best


def summarize(samples) -> dict:
    """Median, rule-chosen tail percentile and count of a timing series."""
    ordered = sorted(samples)
    out = {"n": len(ordered)}
    if ordered:
        out["median"] = statistics.median(ordered)
        tail = tail_percentile(ordered)
        if tail is not None:
            out["tail_pct"], out["tail"] = tail
    return out


# -- process counters ---------------------------------------------------------


def proc_io() -> dict[str, int]:
    """This process's /proc/self/io counters (rchar, wchar, syscr, ...)."""
    with open("/proc/self/io") as f:
        return {k: int(v) for k, v in (line.split(":") for line in f if ":" in line)}


@dataclass
class ProcSample:
    wall: float
    cpu: float
    invol_cs: int
    io: dict

    @classmethod
    def take(cls) -> "ProcSample":
        ru = resource.getrusage(resource.RUSAGE_SELF)
        return cls(time.perf_counter(), ru.ru_utime + ru.ru_stime, ru.ru_nivcsw, proc_io())

    def delta(self, later: "ProcSample") -> dict:
        return {
            "wall": later.wall - self.wall,
            "cpu": later.cpu - self.cpu,
            "invol_cs": later.invol_cs - self.invol_cs,
            "syscr": later.io["syscr"] - self.io["syscr"],
            "wchar": later.io["wchar"] - self.io["wchar"],
        }


def host_steal_s() -> float:
    """CPU time the hypervisor took from this machine's CPUs since boot
    (/proc/stat), to judge how much neighbours disturbed a run."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / KIB


# -- inputs -------------------------------------------------------------------


def fingerprint(value: bytes) -> int:
    """Length and CRC-32 of a value packed in one int (an int, unlike a
    tuple, gives the garbage collector nothing to track)."""
    return len(value) << 32 | zlib.crc32(value)


def encoded_key(record) -> bytes:
    name = canonical_filename(record.filename_candidates)
    return derive_key(name, record.content_id).encoded()


@dataclass
class Corpus:
    """The seeded JSONL corpus on disk plus the expected value of every key."""

    path: Path
    spec: SynthSpec
    expected: dict[bytes, int]
    content_bytes: int

    @property
    def files(self) -> int:
        return len(self.expected)


def make_corpus(path, seed: int, files: int = CORPUS_FILES) -> Corpus:
    spec = SynthSpec(files=files, seed=seed)
    expected: dict[bytes, int] = {}
    total = 0
    with open(path, "wb") as out:
        for record in generate_records(spec):
            out.write(serialize_record(record))
            expected[encoded_key(record)] = fingerprint(record.content)
            total += len(record.content)
    return Corpus(Path(path), spec, expected, total)


def derive_seed(seed: int, salt: str) -> int:
    """An independent 64-bit seed for one input stream of a run."""
    digest = hashlib.blake2b(f"{seed}:{salt}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


# -- value checks -------------------------------------------------------------


@dataclass
class Tally:
    """Ops attempted and failed. An op fails on an exception, a wrong value,
    an unexpected absent, or a value for a key that should be absent."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def fail(self, what: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)

    def check(self, key: bytes, got, expected) -> None:
        """got/expected: a fingerprint, None for absent, or an exception."""
        self.attempted += 1
        if isinstance(got, BaseException):
            self.fail(f"{key!r}: {type(got).__name__}: {got}")
        elif got != expected:
            if got is None:
                self.fail(f"{key!r}: unexpected absent")
            elif expected is None:
                self.fail(f"{key!r}: value for an absent key")
            else:
                self.fail(f"{key!r}: wrong value {got:#x} != {expected:#x}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# -- provenance ---------------------------------------------------------------


def _zstd_version() -> str | None:
    name = ctypes.util.find_library("zstd") or "libzstd.so.1"
    try:
        lib = ctypes.CDLL(name)
    except OSError:
        return None
    lib.ZSTD_versionNumber.restype = ctypes.c_uint
    lib.ZSTD_versionNumber.argtypes = []
    v = lib.ZSTD_versionNumber()
    return f"{v // 10000}.{v // 100 % 100}.{v % 100}"


def _snappy_present() -> bool:
    try:
        ctypes.CDLL(ctypes.util.find_library("snappy") or "libsnappy.so.1")
    except OSError:
        return False
    return True


def _git_sha(root: Path) -> str | None:
    """HEAD of root's .git, read from files; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(root: Path) -> str:
    """blake2b over src/ file paths and bytes: identifies the code measured
    even where the checkout carries no git metadata."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: Path, seed: int, corpus: Corpus, config: StoreConfig) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "libzstd": _zstd_version(),
        "libsnappy": _snappy_present(),
        "powercap": metrics_mod.auto_probe("auto").available,
        "git_sha": _git_sha(root),
        "source_digest": source_digest(root),
        "seed": seed,
        "corpus_files": corpus.files,
        "corpus_bytes": corpus.content_bytes,
        "store": config_summary(config),
    }
