"""Shared fixtures: small synthetic corpora, store factories, a fake probe."""

import hashlib
import os
import re
from pathlib import Path
from typing import Sequence

import pytest

from ppcstore.codec import CodecSpec
from ppcstore.engine import KIB, MIB, StoreConfig, open_store
from ppcstore.metrics import CounterProbe
from ppcstore.synth import SynthSpec, generate_corpus, generate_records
from ppcstore.wal import OP_PUT, WalWriter

# A table in format version 1, which readers now reject: 60 entries in five
# zstd:3 blocks.
V1_TABLE = Path(__file__).parent / "fixtures" / "v1_table.ppcs"


def small_synth_spec(files=300, seed=7, **overrides) -> SynthSpec:
    defaults = dict(
        files=files,
        seed=seed,
        min_file_bytes=800,
        max_file_bytes=6_000,
    )
    defaults.update(overrides)
    return SynthSpec(**defaults)


@pytest.fixture
def small_records():
    return list(generate_records(small_synth_spec()))


@pytest.fixture
def small_corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    generate_corpus(path, small_synth_spec())
    return path


def make_store_config(data_dir, **overrides) -> StoreConfig:
    defaults = dict(
        data_dir=data_dir,
        codec=CodecSpec.parse("zstd:3"),
        target_block_size=8 * KIB,
        write_buffer_bytes=4 * MIB,
        compaction_threads=2,
    )
    defaults.update(overrides)
    return StoreConfig(**defaults)


def file_digests(data_dir) -> list[tuple[str, str]]:
    """The sorted listing of data_dir with each file's SHA-256."""
    return [
        (name, hashlib.sha256((Path(data_dir) / name).read_bytes()).hexdigest())
        for name in sorted(os.listdir(data_dir))
    ]


def add_crash_leftovers(data_dir, puts: dict[bytes, bytes], stale: dict[bytes, bytes]) -> None:
    """Leave in a store what crashes leave: the WAL of an engine abandoned
    after writing puts, with a torn tail; an orphan table; and a WAL below the
    manifest's log line that holds stale values."""
    data_dir = Path(data_dir)
    engine = open_store(make_store_config(data_dir))
    for key, value in puts.items():
        engine.put_encoded(key, value)
    wal_path = engine._wal.path
    del engine  # no close, no flush
    with open(wal_path, "ab") as f:
        f.write(b"\xff\xff\xff\xff torn record")
    (data_dir / "tbl-000900.ppcs").write_bytes(b"leftover junk from a crashed flush")
    log_floor = int(re.search(r"^log (\d+)$", (data_dir / "MANIFEST").read_text(), re.M).group(1))
    assert log_floor > 0
    writer = WalWriter(data_dir / f"wal-{log_floor - 1:06d}.log")
    for key, value in stale.items():
        writer.append(OP_PUT, key, value)
    writer.close()


@pytest.fixture
def store(tmp_path):
    engine = open_store(make_store_config(tmp_path / "store"))
    yield engine
    if not engine._closed:
        engine.close()


class FakeProbe(CounterProbe):
    """Scripted counter: raw microjoule readings plus wrap range."""

    label = "fake"
    available = True

    def __init__(self, readings_uj: Sequence[int], wrap_range_uj: int):
        super().__init__()
        self._readings = list(readings_uj)
        self._pos = 0
        self._range = wrap_range_uj

    def _read_raw(self) -> list[tuple[int, int]]:
        value = self._readings[min(self._pos, len(self._readings) - 1)]
        self._pos += 1
        return [(value, self._range)]
