"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import threading
from itertools import islice
from pathlib import Path

import pytest

import harness
import layers
import spans
import workloads
from ppcstore import engine as engine_mod
from ppcstore.engine import open_store


# -- the percentile rule ----------------------------------------------------------


@pytest.mark.parametrize(
    "n, pct",
    [(15, None), (20, 50.0), (100, 90.0), (1000, 99.0), (1999, 99.0), (10_000, 99.9), (10**6, 99.999)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    samples = list(range(n))
    tail = harness.tail_percentile(samples)
    if pct is None:
        assert tail is None
        return
    got_pct, value = tail
    assert got_pct == pct
    assert n - 1 - value >= harness.MIN_BEYOND
    higher = [p for p in harness.PERCENTILE_LADDER if p > pct]
    if higher:
        assert n - 1 - samples[harness._rank_index(n, higher[0])] < harness.MIN_BEYOND


def test_summarize_reports_median_tail_and_count():
    out = harness.summarize(range(1, 1001))
    assert out == {"n": 1000, "median": 500.5, "tail_pct": 99.0, "tail": 990}


# -- self time with nested spans on two threads -----------------------------------------


class _Clock:
    now = 0

    def perf_counter_ns(self):
        return self.now


def test_self_time_subtracts_union_of_children_across_threads(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(spans, "time", clock)
    tracer = spans.Tracer()
    parent_id, child_id, grand_id = (tracer.name_id(n) for n in ("parent", "child", "grand"))

    def at(t, fn, *args):
        clock.now = t
        return fn(*args)

    def child_a():
        tok = at(10, tracer.begin, child_id)
        g = at(20, tracer.begin, grand_id)
        at(40, tracer.end, g)
        at(50, tracer.end, tok)

    def child_b():
        tok = at(30, tracer.begin, child_id)
        at(80, tracer.end, tok)

    root = at(0, tracer.begin, parent_id)
    ctx = tracer.context()
    for body in (child_a, child_b):  # run one after the other: the clock is shared
        t = threading.Thread(target=tracer.run_in_context, args=(ctx, body))
        t.start()
        t.join(10)
        assert not t.is_alive()
    at(100, tracer.end, root)

    by_name = spans.analyze(tracer)["by_name"]
    parent = by_name["parent", "parent"]
    child = by_name["child", "parent"]
    grand = by_name["grand", "parent"]
    assert (parent.count, parent.dur, parent.self) == (1, 100, 100 - 70)
    assert (child.count, child.dur, child.self) == (2, 40 + 50, (40 - 20) + 50)
    assert (grand.count, grand.dur, grand.self) == (1, 20, 20)
    ops = {rec[3] for rec in tracer.records()}
    assert ops == {root[2]}


def test_instrument_restores_the_program():
    before = (engine_mod.Engine.get_encoded, engine_mod.build_table)
    with spans.instrument(spans.Tracer()):
        assert engine_mod.Engine.get_encoded is not before[0]
    assert (engine_mod.Engine.get_encoded, engine_mod.build_table) == before


# -- the mixed op stream ---------------------------------------------------------------


def _stream(seed, count=3000):
    universe = [b"u%05d" % i for i in range(500)]
    hot = [b"h%05d" % i for i in range(700)]
    files = [(b"n%03d" % i, b"v%03d" % i) for i in range(40)]
    return list(islice(workloads.op_stream(seed, universe, hot, files), count))


def test_op_stream_is_identical_for_a_seed():
    first, again, other = _stream(11), _stream(11), _stream(12)
    assert first == again
    assert first != other
    kinds = [op[0] for op in first]
    assert 0.70 < kinds.count("get") / len(kinds) < 0.80
    assert kinds.count("multiget") and kinds.count("delete")
    inserted = [op[1] for op in first if op[0] == "put" and op[1].startswith(b"n")]
    assert len(inserted) == len(set(inserted))


# -- value checks count into error_rate -------------------------------------------------------


class _Corrupting:
    """The engine, except that one key's value comes back with a flipped byte."""

    def __init__(self, engine, bad_key):
        self._engine, self._bad_key = engine, bad_key

    def get_encoded(self, key):
        value = self._engine.get_encoded(key)
        if key == self._bad_key:
            value = bytes([value[0] ^ 1]) + value[1:]
        return value

    def __getattr__(self, name):
        return getattr(self._engine, name)


@pytest.fixture
def small_store(tmp_path):
    corpus = harness.make_corpus(tmp_path / "corpus.jsonl", seed=3, files=40)
    config = harness.store_config(tmp_path / "store", workloads.BUILD_WRITE_BUFFER)
    workloads.bench_mod.build_store(corpus.path, config, tmp_dir=tmp_path)
    with open_store(config) as engine:
        yield corpus, engine


def _get_pass(tmp_path, corpus, engine, threads):
    run = workloads.Run("read_uniform", tmp_path, corpus, 3, 1.0)
    keys = sorted(corpus.expected)
    workloads.get_pass(run, engine, keys, corpus.expected, threads)
    return run.tally


@pytest.mark.parametrize("threads", [1, 2])
def test_clean_pass_has_no_errors(tmp_path, small_store, threads):
    corpus, engine = small_store
    tally = _get_pass(tmp_path, corpus, engine, threads)
    assert (tally.attempted, tally.failed, tally.error_rate) == (40, 0, 0.0)


@pytest.mark.parametrize("threads", [1, 2])
def test_corrupted_value_makes_error_rate_positive(tmp_path, small_store, threads):
    corpus, engine = small_store
    bad = sorted(corpus.expected)[7]
    tally = _get_pass(tmp_path, corpus, _Corrupting(engine, bad), threads)
    assert tally.failed == 1 and tally.error_rate == 1 / 40
    assert "wrong value" in tally.notes[0]


def test_absent_and_unexpected_values_fail():
    tally = harness.Tally()
    tally.check(b"k", None, harness.fingerprint(b"v"))
    tally.check(b"k", harness.fingerprint(b"v"), None)
    tally.check(b"k", KeyError("boom"), None)
    tally.check(b"k", None, None)
    assert (tally.attempted, tally.failed) == (4, 3)


# -- BENCHMARK.json matches the metrics the code reports ---------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == layers.END_TO_END
    per_layer = {name: unit for name, (unit, _) in layers.LAYER_METRICS.items()}
    per_layer.update({f"trace.overhead.{n}": layers.END_TO_END[n] for n in layers.OVERHEAD})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer


def test_window_rates_follow_completion_order_across_clients():
    mib = 1 << 20
    # two clients' completions, interleaved in time: (end ns, bytes)
    ends = [1_000_000_000, 3_000_000_000, 2_000_000_000, 4_000_000_000]
    sizes = [mib, 3 * mib, 2 * mib, 4 * mib]
    # windows of two completions in end order: 1 + 2 MiB over 0..2 s, 3 + 4 MiB over 2..4 s
    assert workloads.window_rates(0, ends, sizes, 2) == [1.5, 3.5]
