"""The benchmark's three workloads; a run executes one of them in one process.

build           bench.build_store over the seeded corpus, repeated until the
                run's seconds are spent; read rounds on the last store
                follow.
read_uniform    read rounds on a store built and opened before timing: a
                uniform-distinct pass of single gets over every live key at 1
                client thread, one at 2, then power-law multi-gets.
mixed_powerlaw  one closed-loop client running a seeded stream of power-law
                gets and multi-gets, uniform overwrites, inserts of new synth
                files and deletes, with an 8 MiB write buffer so flushes and
                compactions happen inside the timed phase; read rounds on the
                final store follow.

Read rounds run in every workload so that every workload reports every
end-to-end metric; README.md says which phase feeds which metric. Every
value a call returns is checked, outside the call's timed interval.
"""

import shutil
import statistics
import threading
import time
from collections import defaultdict
from itertools import islice
from pathlib import Path

from ppcstore import bench as bench_mod
from ppcstore.engine import open_store
from ppcstore.synth import SynthSpec, generate_records
from ppcstore.workload import Distribution, SplitMix64, WorkloadSpec, make_batches, sample

from harness import (
    MIB,
    MULTIGET_BATCH,
    ProcSample,
    Tally,
    derive_seed,
    encoded_key,
    fingerprint,
    peak_rss_mib,
    percentile,
    store_config,
    summarize,
)

BUILD_WRITE_BUFFER = 64 * MIB
MIXED_WRITE_BUFFER = 8 * MIB
SETUP_REPEATS = 5
# Opening an empty store takes about 0.2 ms, so the build workload's
# set-up is repeated often enough for a steady median.
EMPTY_OPEN_REPEATS = 25
L0_COMPACT_TRIGGER = 4
POWER_LAW_ALPHA = -1.5
# The mixed stream runs a fixed number of ops per requested second, so that
# every run of a seed does the same flushes and compactions. At 15 seconds
# that is about 10 flushes and 2 compactions, and about 15 s of program
# time on a 2-core host.
MIXED_OPS_PER_SECOND = 2500
MIXED_NEW_FILES = 1024
MULTIGETS_PER_ROUND = 20
MULTIGET_HOT_SETS = 4
RATE_WINDOW_OPS = 100
# Power-law draws come from several hot sets, each a fresh seeded rank
# permutation: with alpha = -1.5 the top rank takes about 38% of draws, so
# one hot set would let a single file's size and placement decide a run's
# figures. The mixed stream goes through HOT_PHASES of them in turn.
HOT_PHASES = 8
# share of the run's seconds spent in read rounds after the builds of
# `build` and after the stream of `mixed_powerlaw`
AUDIT_SHARE = 1 / 3
THREAD_JOIN_TIMEOUT_S = 120

# op mix of the mixed stream, by count out of 100
MIX_GET, MIX_MULTIGET, MIX_OVERWRITE, MIX_INSERT = 75, 3, 10, 10  # delete: the rest


class Run:
    """State of one workload run: what was timed, counted and checked."""

    def __init__(self, name: str, work: Path, corpus, seed: int, seconds: float, tracer=None):
        self.name = name
        self.work = work
        self.corpus = corpus
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.tally = Tally()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, float] = defaultdict(float)
        self.e2e: dict[str, float] = {}
        self.detail: dict[str, float] = {}
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        return self.work / f"store-{self._dirs}"

    def sample_l0(self, engine) -> None:
        self.counters["l0_sum"] += _l0_tables(engine)
        self.counters["l0_n"] += 1

    def report(self) -> dict:
        timings = {name: summarize(values) for name, values in sorted(self.samples.items())}
        return {
            "workload": self.name,
            "end_to_end": self.e2e,
            "detail": self.detail,
            "timings": timings,
            "counters": dict(self.counters),
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "error_rate": self.tally.error_rate,
            "failures": self.tally.notes,
        }


def _l0_tables(engine) -> int:
    return sum(1 for t in engine.stats()["tables"].values() if t["level"] == 0)


def _rate(nbytes: float, seconds: float) -> float:
    return nbytes / MIB / seconds


# -- read passes ------------------------------------------------------------------


def _get_worker(get, keys, fps, latencies, ends, sizes):
    perf = time.perf_counter_ns
    for key in keys:
        t0 = perf()
        try:
            value = get(key)
        except Exception as exc:  # counted as a failed op, the pass goes on
            ends.append(perf())
            sizes.append(0)
            fps.append(exc)
            continue
        t1 = perf()
        latencies.append(t1 - t0)
        ends.append(t1)
        if value is None:
            sizes.append(0)
            fps.append(None)
        else:
            sizes.append(len(value))
            fps.append(fingerprint(value))


def window_rates(start_ns: int, ends, sizes, window: int) -> list[float]:
    """MiB/s of each run of `window` consecutive completions (by end time),
    measured from the completion before it (or the start)."""
    order = sorted(range(len(ends)), key=ends.__getitem__)
    rates, last = [], start_ns
    for i in range(window - 1, len(order), window):
        now = ends[order[i]]
        nbytes = sum(sizes[j] for j in order[i - window + 1 : i + 1])
        rates.append(nbytes / MIB / ((now - last) / 1e9))
        last = now
    return rates


def get_pass(run: Run, engine, keys, expected, threads: int) -> None:
    """Get every key once with `threads` closed-loop clients; check after."""
    run.sample_l0(engine)
    parts = [keys[t::threads] for t in range(threads)]
    fps, lats, ends, sizes = ([[] for _ in parts] for _ in range(4))
    get = engine.get_encoded
    blocks0, raw0 = engine.read_counters()
    before = ProcSample.take()
    start = time.perf_counter_ns()
    if threads == 1:
        _get_worker(get, parts[0], fps[0], lats[0], ends[0], sizes[0])
    else:
        workers = [
            threading.Thread(target=_get_worker, args=(get, part, fps[t], lats[t], ends[t], sizes[t]))
            for t, part in enumerate(parts)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(THREAD_JOIN_TIMEOUT_S)
        if any(w.is_alive() for w in workers):
            raise RuntimeError("get pass did not finish")
    after = ProcSample.take()
    blocks1, raw1 = engine.read_counters()
    delta = before.delta(after)
    all_ends = [t for part in ends for t in part]
    all_sizes = [n for part in sizes for n in part]
    returned = sum(all_sizes)
    run.samples[f"get_pass_p{threads}_s"].append(delta["wall"])
    run.samples["pass_cpu_mib_s"].append(_rate(returned, delta["cpu"]))
    run.samples[f"get_p{threads}_ns"].extend(x for lat in lats for x in lat)
    run.samples[f"get_window_mib_s_p{threads}"].extend(
        window_rates(start, all_ends, all_sizes, RATE_WINDOW_OPS * threads))
    c = run.counters
    c["get_ops"] += len(keys)
    c["get_returned_bytes"] += returned
    c["get_blocks"] += blocks1 - blocks0
    c["get_raw_bytes"] += raw1 - raw0
    c["pass_gets"] += len(keys)
    c["pass_syscr"] += delta["syscr"]
    if threads == 2:
        c["p2_cpu_s"] += delta["cpu"]
        c["p2_wall_s"] += delta["wall"]
        c["p2_invol_cs"] += delta["invol_cs"]
        c["p2_ops"] += len(keys)
    for part, part_fps in zip(parts, fps):
        for key, got in zip(part, part_fps):
            run.tally.check(key, got, expected.get(key))


def multiget_op(run: Run, engine, batch, expected) -> None:
    traced = run.tracer is not None
    if traced:
        blocks0, _ = engine.read_counters()
    c0, t0 = time.process_time_ns(), time.perf_counter_ns()
    try:
        values = engine.multi_get_encoded(batch)
    except Exception as exc:
        run.tally.attempted += 1
        run.tally.fail(f"multi_get: {type(exc).__name__}: {exc}")
        return
    elapsed = time.perf_counter_ns() - t0
    cpu = time.process_time_ns() - c0
    returned = sum(len(v) for v in values if v is not None)
    run.samples["multiget_ns"].append(elapsed)
    run.samples["multiget_call_mib_s"].append(returned / MIB / (elapsed / 1e9))
    c = run.counters
    c["multiget_s"] += elapsed / 1e9
    c["multiget_cpu_s"] += cpu / 1e9
    c["multiget_bytes"] += returned
    if traced:
        blocks1, _ = engine.read_counters()
        c["multiget_blocks"] += blocks1 - blocks0
        c["multiget_distinct_found"] += len({k for k, v in zip(batch, values) if v is not None})
    for key, value in zip(batch, values):
        run.tally.check(key, None if value is None else fingerprint(value), expected.get(key))


def power_law_keys(universe, count: int, seed: int) -> list[bytes]:
    spec = WorkloadSpec(
        distribution=Distribution.POWER_LAW,
        num_queries=count,
        seed=seed,
        alpha=POWER_LAW_ALPHA,
        universe=universe,
    )
    return sample(spec)


def uniform_keys(universe, seed: int) -> list[bytes]:
    spec = WorkloadSpec(
        distribution=Distribution.UNIFORM_DISTINCT,
        num_queries=len(universe),
        seed=seed,
        universe=universe,
    )
    return sample(spec)


def read_round(run: Run, engine, expected, index: int, multigets: bool) -> None:
    """A uniform pass over every live key at 1 client, another at 2, then
    (if asked) power-law multi-gets drawn from MULTIGET_HOT_SETS hot sets;
    every draw is seeded by the round index, so rounds differ."""
    live = sorted(k for k, v in expected.items() if v is not None)
    for threads in (1, 2):
        order = uniform_keys(live, derive_seed(run.seed, f"round-{index}-p{threads}"))
        get_pass(run, engine, order, expected, threads)
    if not multigets:
        return
    per_set = MULTIGETS_PER_ROUND // MULTIGET_HOT_SETS * MULTIGET_BATCH
    for hot_set in range(MULTIGET_HOT_SETS):
        draws = power_law_keys(live, per_set, derive_seed(run.seed, f"round-{index}-mg-{hot_set}"))
        for batch in make_batches(draws, MULTIGET_BATCH):
            multiget_op(run, engine, batch, expected)


def read_rounds(run: Run, engine, expected, seconds: float, multigets: bool) -> None:
    """read_round until `seconds` have passed, at least once."""
    deadline, index = time.perf_counter() + seconds, 0
    while index == 0 or time.perf_counter() < deadline:
        read_round(run, engine, expected, index, multigets)
        index += 1
    run.detail["read_rounds"] = index


def _finish_e2e(run: Run, setup_s: list[float], mib_per_cpu_s: float, ratio: float,
                write_amp: float, get_lat_key: str) -> None:
    """Read throughputs are medians over windows of RATE_WINDOW_OPS gets per
    client, and over multi-get calls: a burst of time stolen from this
    virtual machine then slows a few windows instead of the whole figure."""
    lat = sorted(run.samples[get_lat_key])
    samples = run.samples
    run.e2e.update(
        setup_s=statistics.median(setup_s),
        mib_per_cpu_s=mib_per_cpu_s,
        ratio=ratio,
        write_amp=write_amp,
        peak_rss_mib=peak_rss_mib(),
        get_mib_s_p1=statistics.median(samples["get_window_mib_s_p1"]),
        get_mib_s_p2=statistics.median(samples["get_window_mib_s_p2"]),
        get_p50_us=statistics.median(lat) / 1e3,
        get_p90_us=percentile(lat, 90.0) / 1e3,
        multiget_mib_s=statistics.median(samples["multiget_call_mib_s"]),
    )
    samples["setup_s"] = setup_s


def _build_then_open(run: Run, config):
    """Build the store (not set-up: reported as store_build_s), then open it
    and scan its keys SETUP_REPEATS times; the last open engine is kept."""
    t0 = time.perf_counter()
    bench_mod.build_store(run.corpus.path, config, tmp_dir=run.work)
    run.detail["store_build_s"] = time.perf_counter() - t0
    setup, engine = [], None
    for _ in range(SETUP_REPEATS):
        if engine is not None:
            engine.close()
        t0 = time.perf_counter()
        engine = open_store(config)
        keys = list(engine.live_keys())
        setup.append(time.perf_counter() - t0)
    return setup, engine, keys


# -- workloads -----------------------------------------------------------------------


def run_build(run: Run) -> None:
    """Iterations of set-up (opening empty stores) and one timed
    build_store, until the run's seconds are spent; then read rounds and a
    byte-equality verify on the last store."""
    corpus = run.corpus
    setup, wchar, engine = [], 0, None
    deadline = time.perf_counter() + run.seconds
    while engine is None or time.perf_counter() < deadline:
        if engine is not None:
            engine.close()
            shutil.rmtree(engine.dir)
        for _ in range(EMPTY_OPEN_REPEATS):
            config = store_config(run.fresh_dir(), BUILD_WRITE_BUFFER)
            t0 = time.perf_counter()
            open_store(config).close()
            setup.append(time.perf_counter() - t0)
            shutil.rmtree(config.data_dir)
        config = store_config(run.fresh_dir(), BUILD_WRITE_BUFFER)
        io0 = ProcSample.take()
        run.tally.attempted += 1
        try:
            _row, engine = bench_mod.build_store(corpus.path, config, tmp_dir=run.work, keep_open=True)
        except Exception as exc:
            run.tally.fail(f"build_store: {type(exc).__name__}: {exc}")
            raise
        io = io0.delta(ProcSample.take())
        wchar += io["wchar"]
        run.samples["build_s"].append(io["wall"])
        run.samples["build_mib_s"].append(_rate(corpus.content_bytes, io["wall"]))
        run.samples["build_cpu_mib_s"].append(_rate(corpus.content_bytes, io["cpu"]))
    builds = len(run.samples["build_s"])
    ratio = engine.stats()["ratio"]
    read_rounds(run, engine, corpus.expected, run.seconds * AUDIT_SHARE, multigets=True)

    # byte-equality verify of the last store against the regenerated corpus
    for record in generate_records(corpus.spec):
        key = encoded_key(record)
        try:
            value = engine.get_encoded(key)
        except Exception as exc:
            run.tally.check(key, exc, None)
            continue
        run.tally.attempted += 1
        if value != record.content:
            run.tally.fail(f"{key!r}: verify found {'absent' if value is None else 'different bytes'}")
    engine.close()
    run.detail.update(build_mib_s=statistics.median(run.samples["build_mib_s"]), builds=builds)
    _finish_e2e(run, setup, statistics.median(run.samples["build_cpu_mib_s"]), ratio,
                wchar / (corpus.content_bytes * builds), "get_p1_ns")


def run_read_uniform(run: Run) -> None:
    corpus = run.corpus
    io0 = ProcSample.take()
    setup, engine, _keys = _build_then_open(run, store_config(run.fresh_dir(), BUILD_WRITE_BUFFER))
    io = io0.delta(ProcSample.take())
    ratio = engine.stats()["ratio"]
    read_rounds(run, engine, corpus.expected, run.seconds, multigets=True)
    engine.close()
    windows = run.samples["get_window_mib_s_p1"] + run.samples["get_window_mib_s_p2"]
    run.detail["wall_mib_s"] = statistics.median(windows)
    _finish_e2e(run, setup, statistics.median(run.samples["pass_cpu_mib_s"]), ratio,
                io["wchar"] / corpus.content_bytes, "get_p1_ns")


def new_files(seed: int, count: int = MIXED_NEW_FILES) -> list[tuple[bytes, bytes]]:
    """(key, content) of synth files that are not in the seed's corpus."""
    spec = SynthSpec(files=count, seed=derive_seed(seed, "new-files"))
    return [(encoded_key(r), r.content) for r in generate_records(spec)]


def op_stream(seed: int, universe: list[bytes], hot: list[bytes], files: list[tuple[bytes, bytes]]):
    """The mixed workload's op stream: identical for identical arguments.

    hot: power-law key draws, consumed in order and reused cyclically;
    universe: keys that overwrites and deletes choose from uniformly;
    files: new (key, content) pairs; inserts take them in order, and once
    they run out reuse their content under suffixed keys.
    """
    next_below = SplitMix64(derive_seed(seed, "ops")).next_below
    n, h, inserted = len(universe), 0, 0
    while True:
        u = next_below(100)
        if u < MIX_GET:
            yield ("get", hot[h % len(hot)])
            h += 1
        elif u < MIX_GET + MIX_MULTIGET:
            yield ("multiget", [hot[(h + i) % len(hot)] for i in range(MULTIGET_BATCH)])
            h += MULTIGET_BATCH
        elif u < MIX_GET + MIX_MULTIGET + MIX_OVERWRITE:
            yield ("put", universe[next_below(n)], files[next_below(len(files))][1])
        elif u < MIX_GET + MIX_MULTIGET + MIX_OVERWRITE + MIX_INSERT:
            key, value = files[inserted % len(files)]
            generation = inserted // len(files)
            if generation:
                key += b"~%d" % generation
            inserted += 1
            yield ("put", key, value)
        else:
            yield ("delete", universe[next_below(n)])


def run_stream(run: Run, engine, ops, model: dict) -> float:
    """Execute ops against engine and model; returns seconds spent in the
    program (op calls plus the client's stats() and compact() calls) and
    adds the process CPU time of those calls to counters["stream_cpu_s"]."""
    perf, cpu_ns = time.perf_counter_ns, time.process_time_ns
    traced = run.tracer is not None
    c, samples, tally = run.counters, run.samples, run.tally
    busy = cpu = 0
    for op in ops:
        kind = op[0]
        if kind == "get":
            key = op[1]
            if traced:
                blocks0, raw0 = engine.read_counters()
            c0, t0 = cpu_ns(), perf()
            try:
                value = engine.get_encoded(key)
            except Exception as exc:
                tally.check(key, exc, model.get(key))
                continue
            elapsed = perf() - t0
            cpu += cpu_ns() - c0
            busy += elapsed
            samples["get_ns"].append(elapsed)
            if value is not None:
                c["stream_get_bytes"] += len(value)
            if traced:
                blocks1, raw1 = engine.read_counters()
                c["get_blocks"] += blocks1 - blocks0
                c["get_raw_bytes"] += raw1 - raw0
                c["get_ops"] += 1
                c["get_returned_bytes"] += len(value) if value is not None else 0
            tally.check(key, None if value is None else fingerprint(value), model.get(key))
            continue
        if kind == "multiget":
            wall0, cpu0 = c["multiget_s"], c["multiget_cpu_s"]
            multiget_op(run, engine, op[1], model)
            busy += int((c["multiget_s"] - wall0) * 1e9)
            cpu += int((c["multiget_cpu_s"] - cpu0) * 1e9)
            continue
        key = op[1]
        c0, t0 = cpu_ns(), perf()
        try:
            if kind == "put":
                engine.put_encoded(key, op[2])
            else:
                engine.delete_encoded(key)
        except Exception as exc:
            tally.attempted += 1
            tally.fail(f"{kind} {key!r}: {type(exc).__name__}: {exc}")
            continue
        elapsed = perf() - t0
        cpu += cpu_ns() - c0
        busy += elapsed
        tally.attempted += 1
        if kind == "put":
            samples["put_ns"].append(elapsed)
            c["put_bytes"] += len(op[2])
            model[key] = fingerprint(op[2])
        else:
            samples["delete_ns"].append(elapsed)
            model[key] = None
        c0, t0 = cpu_ns(), perf()
        l0 = _l0_tables(engine)
        if l0 >= L0_COMPACT_TRIGGER:
            t1 = perf()
            engine.compact()
            samples["compact_s"].append((perf() - t1) / 1e9)
            tally.attempted += 1
        busy += perf() - t0
        cpu += cpu_ns() - c0
        c["l0_sum"] += l0
        c["l0_n"] += 1
    c["stream_cpu_s"] += cpu / 1e9
    return busy / 1e9


def run_mixed(run: Run) -> None:
    corpus = run.corpus
    io0 = ProcSample.take()
    setup, engine, keys = _build_then_open(run, store_config(run.fresh_dir(), MIXED_WRITE_BUFFER))
    model = dict(corpus.expected)
    n_ops = int(MIXED_OPS_PER_SECOND * run.seconds)
    draws_per_phase = 4 * n_ops // HOT_PHASES + 1  # an op draws 3.75 keys on average
    hot = [key for phase in range(HOT_PHASES)
           for key in power_law_keys(keys, draws_per_phase, derive_seed(run.seed, f"hot-{phase}"))]
    ops = list(islice(op_stream(run.seed, keys, hot, new_files(run.seed)), n_ops))
    busy = run_stream(run, engine, ops, model)
    io = io0.delta(ProcSample.take())
    c, samples = run.counters, run.samples
    compactions = len(samples["compact_s"])
    run.detail.update(
        mixed_ops_s=(n_ops + compactions) / busy,
        stream_s=busy,
        compactions=compactions,
        put_p50_us=statistics.median(samples["put_ns"]) / 1e3,
        put_p99_us=percentile(sorted(samples["put_ns"]), 99.0) / 1e3,
        compact_s=statistics.median(samples["compact_s"]) if compactions else float("nan"),
    )
    moved = c["stream_get_bytes"] + c["multiget_bytes"] + c["put_bytes"]
    write_amp = io["wchar"] / (corpus.content_bytes + c["put_bytes"])
    engine.flush()
    engine.compact()
    ratio = engine.stats()["ratio"]
    read_rounds(run, engine, model, run.seconds * AUDIT_SHARE, multigets=False)
    engine.close()
    run.detail["wall_mib_s"] = _rate(moved, busy)
    _finish_e2e(run, setup, _rate(moved, c["stream_cpu_s"]), ratio, write_amp, "get_ns")


# name -> (runner, write buffer of its store)
WORKLOADS = {
    "build": (run_build, BUILD_WRITE_BUFFER),
    "read_uniform": (run_read_uniform, BUILD_WRITE_BUFFER),
    "mixed_powerlaw": (run_mixed, MIXED_WRITE_BUFFER),
}
