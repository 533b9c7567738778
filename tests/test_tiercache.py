"""Tiered reads: hit/miss accounting, admission, capacity fallback."""

import io

import pytest

from ppcstore.corpus import serialize_record
from ppcstore.engine import MIB, open_store
from ppcstore.errors import TierError
from ppcstore.keys import PpcKey
from ppcstore.synth import generate_records
from ppcstore.tiercache import (
    AdmissionPolicy,
    SimulatedBackend,
    TieredStore,
)

from conftest import make_store_config, small_synth_spec


def key(i: int) -> PpcKey:
    return PpcKey(b"py", b"mod_%04d" % i, b"cnt:%04d" % i)


def backend_with(n: int) -> SimulatedBackend:
    return SimulatedBackend({f"cnt:{i:04d}": b"content-%04d" % i for i in range(n)})


class FailingBackend:
    name = "failing"

    def fetch(self, content_id: str) -> bytes | None:
        raise ConnectionError("backend unreachable")


class TestTieredGet:
    def test_preloaded_key_served_from_cache_without_backend(self, store):
        backend = backend_with(10)
        tier = TieredStore(store, backend)
        store.put(key(1), b"cached-value")
        value, source = tier.tiered_get(key(1))
        assert (value, source) == (b"cached-value", "cache")
        assert backend.fetch_calls == 0

    def test_miss_fetches_once_then_hits(self, store):
        backend = backend_with(10)
        tier = TieredStore(store, backend)
        value, source = tier.tiered_get(key(2))
        assert (value, source) == (b"content-0002", "backend")
        assert backend.fetch_calls == 1
        value, source = tier.tiered_get(key(2))
        assert (value, source) == (b"content-0002", "cache")
        assert backend.fetch_calls == 1

    def test_key_nowhere_probes_backend_exactly_once(self, store):
        backend = backend_with(1)
        tier = TieredStore(store, backend)
        value, source = tier.tiered_get(key(999))
        assert (value, source) == (None, "backend")
        assert backend.fetch_calls == 1

    def test_admit_never_keeps_fetching(self, store):
        backend = backend_with(5)
        tier = TieredStore(store, backend, AdmissionPolicy.ADMIT_NEVER)
        for _ in range(3):
            value, source = tier.tiered_get(key(3))
            assert (value, source) == (b"content-0003", "backend")
        assert backend.fetch_calls == 3

    def test_backend_failure_distinct_from_miss(self, store):
        tier = TieredStore(store, FailingBackend())
        with pytest.raises(TierError):
            tier.tiered_get(key(1))

    def test_backend_exactly_once_per_miss_counter_verified(self, store):
        backend = backend_with(50)
        tier = TieredStore(store, backend, AdmissionPolicy.ADMIT_NEVER)
        for i in range(50):
            tier.tiered_get(key(i))
        assert backend.fetch_calls == 50
        report = tier.hit_rate_report()
        assert report["misses"] == 50 and report["hits"] == 0


class TestConvergence:
    def test_repeated_key_set_converges_to_zero_backend_fetches(self, tmp_path):
        """Backend fits in M: after one pass, the second is all cache hits."""
        config = make_store_config(
            tmp_path / "store", write_buffer_bytes=1 * MIB, capacity_m=64 * MIB
        )
        with open_store(config) as engine:
            backend = backend_with(200)
            assert backend.total_bytes() <= config.capacity_m
            tier = TieredStore(engine, backend)
            keys = [key(i) for i in range(200)]
            for k in keys:
                tier.tiered_get(k)
            first_pass = backend.fetch_calls
            for k in keys:
                value, source = tier.tiered_get(k)
                assert source == "cache" and value is not None
            assert backend.fetch_calls == first_pass == 200

    def test_capacity_error_downgrades_to_serving_without_admission(self, tmp_path):
        config = make_store_config(
            tmp_path / "store", write_buffer_bytes=1 * MIB, capacity_m=1 * MIB
        )
        with open_store(config) as engine:
            big = {f"cnt:{i:04d}": b"z" * 200_000 for i in range(20)}
            tier = TieredStore(engine, SimulatedBackend(big))
            served = 0
            for i in range(20):
                value, source = tier.tiered_get(key(i))
                assert value == big[f"cnt:{i:04d}"] and source == "backend"
                served += 1
            assert served == 20
            assert tier.hit_rate_report()["admission_rejections"] > 0
            assert engine.stats()["compressed_bytes"] <= config.capacity_m


class TestSimulatedBackend:
    def test_loadable_from_corpus(self):
        records = list(generate_records(small_synth_spec(files=20)))
        stream = io.BytesIO(b"".join(serialize_record(r) for r in records))
        backend = SimulatedBackend.from_corpus(stream)
        sample = records[3]
        assert backend.fetch(sample.content_id) == sample.content
        assert backend.fetch("swh:1:cnt:absent") is None

    def test_hit_rate_report_shape(self, store):
        backend = backend_with(4)
        tier = TieredStore(store, backend)
        store.put(key(0), b"v")
        tier.tiered_get(key(0))
        tier.tiered_get(key(1))
        report = tier.hit_rate_report()
        assert report["hits"] == 1 and report["misses"] == 1
        assert report["hit_ratio"] == pytest.approx(0.5)
        assert report["backend_bytes"] == len(b"content-0001")
