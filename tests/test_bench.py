"""Benchmark phases: external sort, build, threaded queries, verify, report."""

import random

import pytest

from ppcstore.bench import (
    build_store,
    corpus_key_value_pairs,
    format_table,
    query_store,
    verify_store,
)
from ppcstore.codec import CodecSpec
from ppcstore.corpus import write_corpus
from ppcstore.engine import KIB, MIB, StoreConfig
from ppcstore.errors import IntegrityError
from ppcstore.extsort import sorted_pairs
from ppcstore.metrics import NullProbe, pareto_frontier
from ppcstore.synth import generate_records
from ppcstore.workload import Distribution

from conftest import FakeProbe, small_synth_spec


def bench_config(data_dir, codec="zstd:3", block_kib=64, **overrides) -> StoreConfig:
    defaults = dict(
        data_dir=data_dir,
        codec=CodecSpec.parse(codec),
        target_block_size=block_kib * KIB,
        write_buffer_bytes=8 * MIB,
        compaction_threads=2,
    )
    defaults.update(overrides)
    return StoreConfig(**defaults)


class TestExternalSort:
    def test_matches_in_memory_sort(self, tmp_path):
        rnd = random.Random(31)
        pairs = [
            (rnd.randrange(10**9).to_bytes(8, "big"), rnd.randbytes(rnd.randrange(0, 400)))
            for _ in range(5_000)
        ]
        out = list(sorted_pairs(iter(pairs), tmp_dir=str(tmp_path), chunk_bytes=64 * 1024))
        assert out == sorted(pairs, key=lambda kv: kv[0])

    def test_single_chunk_short_circuits(self, tmp_path):
        pairs = [(b"b", b"2"), (b"a", b"1")]
        assert list(sorted_pairs(iter(pairs), tmp_dir=str(tmp_path))) == [
            (b"a", b"1"),
            (b"b", b"2"),
        ]

    def test_empty_input(self, tmp_path):
        assert list(sorted_pairs(iter([]), tmp_dir=str(tmp_path))) == []


class TestBuild:
    def test_redundant_corpus_compresses_below_half(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, generate_records(small_synth_spec(files=900, seed=3)))
        row, _ = build_store(corpus, bench_config(tmp_path / "store"), probe=NullProbe())
        assert row.phase == "build"
        assert row.ratio is not None and row.ratio < 0.5
        assert row.bytes > 2 * MIB
        assert row.mib_per_s > 0

    @pytest.mark.parametrize("codec", ["zstd:3", "snappy"])
    def test_unsorted_input_lands_sorted(self, tmp_path, small_corpus, codec):
        # corpus arrives in content-id order; the build must sort by key
        keys = [k for k, _ in corpus_key_value_pairs(small_corpus)]
        assert keys != sorted(keys)
        _, engine = build_store(
            small_corpus, bench_config(tmp_path / "store", codec=codec), keep_open=True
        )
        with engine:
            live = list(engine.live_keys())
            assert live == sorted(live)
            assert len(live) == len(keys)
            # the store answers threaded gets and multi-gets; a null probe
            # leaves the energy fields empty
            rows = [
                query_store(
                    engine,
                    distribution=distribution,
                    num_queries=100,
                    batch_size=batch,
                    threads=2,
                    probe=NullProbe(),
                )
                for distribution, batch in (
                    (Distribution.UNIFORM_DISTINCT, 1),
                    (Distribution.POWER_LAW, 20),
                )
            ]
        for row in rows:
            assert row.codec == codec.partition(":")[0]
            assert row.bytes > 0 and row.joules is None and row.mb_per_j is None

    def test_empty_corpus_yields_empty_row_and_warning(self, tmp_path, caplog):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_bytes(b"# nothing here\n")
        with caplog.at_level("WARNING"):
            row, _ = build_store(corpus, bench_config(tmp_path / "store"))
        assert row.bytes == 0
        assert row.ratio is None
        assert any("no records" in m for m in caplog.messages)

    def test_rebuild_is_bit_exact_deterministic(self, tmp_path, small_corpus):
        rows = []
        tables = []
        for name in ("s1", "s2"):
            row, engine = build_store(
                small_corpus, bench_config(tmp_path / name), keep_open=True
            )
            rows.append(row)
            with engine:
                stats = engine.stats()
                tables.append(
                    sorted(
                        (tmp_path / name / t).read_bytes() for t in stats["tables"]
                    )
                )
        assert rows[0].ratio == rows[1].ratio
        assert tables[0] == tables[1]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    corpus = base / "corpus.jsonl"
    write_corpus(corpus, generate_records(small_synth_spec(files=1_200, seed=5)))
    config = bench_config(base / "store")
    _, engine = build_store(corpus, config, keep_open=True)
    yield engine, corpus
    engine.close()


class TestQueryPool:
    def test_total_bytes_independent_of_thread_count(self, built):
        engine, _ = built
        rows = [
            query_store(
                engine,
                distribution=Distribution.UNIFORM_DISTINCT,
                num_queries=600,
                threads=p,
                seed=11,
            )
            for p in (1, 4, 7)
        ]
        # 600 queries do not split evenly over 7 threads; each still runs once
        assert rows[0].bytes == rows[1].bytes == rows[2].bytes > 0
        assert [r.threads for r in rows] == [1, 4, 7]

    @pytest.mark.parametrize("threads", [0, -2])
    def test_thread_count_below_one_is_rejected(self, built, threads):
        engine, _ = built
        with pytest.raises(ValueError, match="threads"):
            query_store(
                engine, distribution=Distribution.UNIFORM_DISTINCT, num_queries=10, threads=threads
            )

    def test_multi_get_batches(self, built):
        engine, _ = built
        row = query_store(
            engine,
            distribution=Distribution.POWER_LAW,
            num_queries=500,
            batch_size=100,
            threads=2,
            seed=2,
        )
        assert row.phase == "multi_get" and row.batch == 100
        assert row.bytes > 0

    def test_absent_key_in_hit_workload_is_integrity_failure(self, built):
        engine, _ = built
        bogus_universe = [b"py\x00nope\x00missing-id"]
        with pytest.raises(IntegrityError):
            query_store(
                engine,
                distribution=Distribution.UNIFORM_DISTINCT,
                num_queries=1,
                universe=bogus_universe,
            )

    def test_repeats_rerun_the_same_queue(self, built):
        engine, _ = built
        row = query_store(
            engine,
            distribution=Distribution.UNIFORM_DISTINCT,
            num_queries=100,
            repeats=3,
            seed=6,
        )
        assert row.runs == 3

    def test_rows_differ_only_in_timing_across_runs(self, built):
        engine, _ = built
        rows = [
            query_store(
                engine,
                distribution=Distribution.POWER_LAW,
                num_queries=300,
                batch_size=10,
                threads=2,
                seed=12,
            )
            for _ in range(2)
        ]
        timing_fields = {"seconds", "joules", "mib_per_s", "mb_per_j"}
        for field in rows[0].__dataclass_fields__:
            if field.startswith("per_run"):
                continue
            if field not in timing_fields:
                assert getattr(rows[0], field) == getattr(rows[1], field), field


class TestVerify:
    def test_intact_store_verifies_ok(self, built):
        engine, corpus = built
        report = verify_store(engine, corpus)
        assert report.ok
        assert report.checked == 1_200
        assert "ok" in report.summary()

    def test_detects_missing_and_mismatched(self, tmp_path, built):
        engine, corpus = built
        # a corpus with one extra record (missing from the store) and one
        # record whose content was altered (mismatch)
        records = list(generate_records(small_synth_spec(files=50, seed=5)))
        records[7].content = b"tampered" + records[7].content
        extra = generate_records(small_synth_spec(files=3, seed=999))
        altered = tmp_path / "altered.jsonl"
        write_corpus(altered, records + list(extra))
        report = verify_store(engine, altered)
        assert not report.ok
        assert len(report.mismatched) == 1
        assert len(report.missing) == 3
        assert "DIFF" in report.summary()


class TestReporting:
    def test_frontier_and_table_formatting(self, built):
        engine, _ = built
        rows = [
            query_store(
                engine,
                distribution=Distribution.UNIFORM_DISTINCT,
                num_queries=200,
                threads=p,
                seed=8,
            )
            for p in (1, 2)
        ]
        frontier = pareto_frontier(rows, [("ratio", "min"), ("mib_per_s", "max")])
        assert frontier
        text = format_table(rows)
        assert "mib_per_s" in text.splitlines()[0]
        assert len(text.splitlines()) == len(rows) + 2


class TestEnergy:
    def test_fake_probe_reports_energy_for_build_and_query(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, generate_records(small_synth_spec(files=100, seed=10)))
        probe = FakeProbe(list(range(0, 10**9, 1_000_000)), wrap_range_uj=2**40)
        build_row, engine = build_store(
            corpus, bench_config(tmp_path / "s", block_kib=16), probe=probe,
            tmp_dir=str(tmp_path), keep_open=True,
        )
        with engine:
            query_row = query_store(
                engine, distribution=Distribution.UNIFORM_DISTINCT, num_queries=50, probe=probe
            )
        for row in (build_row, query_row):
            assert row.joules is not None and row.joules > 0
            assert row.mb_per_j is not None
