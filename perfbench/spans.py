"""Span tracing installed around ppcstore's module boundaries, from outside.

`instrument(tracer)` replaces public functions and methods of the engine,
sstable, bloom, codec, wal, extsort, corpus and keys modules with wrappers
that record one span per call, and restores the originals on exit. The
program's own source is untouched, so an untraced run executes exactly the
code a user runs.

A span records its name, id, parent id, op id, the name of its op's root
span, start and end (perf_counter_ns) and one integer attribute. Spans of
one op share the op id: a span opened with an empty stack starts a new op.
Compression workers inherit the submitting thread's open span as parent.
Spans are kept in per-thread arrays and written out when the run ends.

A span's self time is its duration minus the union of the intervals its
child spans cover, so children that overlap on two threads are not counted
twice.
"""

import functools
import itertools
import json
import os
import threading
import time
import zlib
from array import array
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

from ppcstore import bench as bench_mod
from ppcstore import bloom as bloom_mod
from ppcstore import codec as codec_mod
from ppcstore import engine as engine_mod
from ppcstore import extsort as extsort_mod
from ppcstore import sstable as sstable_mod
from ppcstore import wal as wal_mod

# record layout in the per-thread arrays
FIELDS = ("name", "sid", "parent", "op", "root", "t0", "t1", "aux")
_WIDTH = len(FIELDS)

# WAL record framing around key and value: length, op, key length, CRC.
_WAL_FRAMING = 4 + 5 + 4


class _ThreadState:
    __slots__ = ("stack", "records", "base")

    def __init__(self):
        self.stack: list[tuple[int, int, int]] = []  # (sid, op, root name)
        self.records = array("q")
        self.base: tuple[int, int, int] | None = None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
            return state

    def begin(self, nid: int):
        state = self._state()
        sid = next(self._ids)
        if state.stack:
            parent, op, root = state.stack[-1]
        elif state.base is not None:
            parent, op, root = state.base
            parent = -parent  # marks a parent on another thread
        else:
            parent, op, root = 0, sid, nid
        state.stack.append((sid, op, root))
        return state, nid, sid, parent, op, root, time.perf_counter_ns()

    @staticmethod
    def end(token, aux: int = 0) -> None:
        t1 = time.perf_counter_ns()
        state, nid, sid, parent, op, root, t0 = token
        state.stack.pop()
        state.records.extend((nid, sid, parent, op, root, t0, t1, aux))

    def context(self):
        state = self._state()
        return state.stack[-1] if state.stack else state.base

    def run_in_context(self, ctx, fn, *args, **kwargs):
        state = self._state()
        saved, state.base = state.base, ctx
        try:
            return fn(*args, **kwargs)
        finally:
            state.base = saved

    def wrap(self, name: str, fn, aux=None):
        """fn wrapped in a span; aux(args, result) -> int sets the attribute."""
        nid = self.name_id(name)
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = begin(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end(token, -1)
                raise
            end(token, aux(args, result) if aux is not None else 0)
            return result

        return traced

    def wrap_generator(self, name: str, genfn):
        """A generator function whose every next() is one span."""
        nid = self.name_id(name)
        begin, end = self.begin, self.end

        @functools.wraps(genfn)
        def traced(*args, **kwargs):
            inner = genfn(*args, **kwargs)
            while True:
                token = begin(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    end(token)
                    return
                except BaseException:
                    end(token, -1)
                    raise
                end(token)
                yield item

        return traced

    def records(self):
        """Every recorded span as a tuple in FIELDS order, thread by thread."""
        for state in self._threads:
            rec = state.records
            for i in range(0, len(rec), _WIDTH):
                yield tuple(rec[i : i + _WIDTH])

    def span_count(self) -> int:
        return sum(len(s.records) for s in self._threads) // _WIDTH

    def write(self, path) -> None:
        """Spans as raw int64 rows (FIELDS order) plus a JSON name table."""
        with open(path, "wb") as out:
            for state in self._threads:
                state.records.tofile(out)
        with open(str(path) + ".names.json", "w") as out:
            json.dump({"fields": FIELDS, "names": self.names}, out)


class _ModuleProxy:
    """Stands in for a module inside one other module, overriding a few names."""

    def __init__(self, module, **overrides):
        self.__dict__.update(overrides)
        self.__dict__["_module"] = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def _len_or_zero(_args, result) -> int:
    return len(result) if result is not None else 0


def _is_none(_args, result) -> int:
    return int(result is None)


@contextmanager
def instrument(tracer: Tracer):
    """Install spans around ppcstore's module boundaries for the duration."""
    undo: list[tuple[object, str, object]] = []

    def replace(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    Engine, SSTable, Bloom = engine_mod.Engine, sstable_mod.SSTable, bloom_mod.BloomFilter
    replace(Engine, "get_encoded", tracer.wrap("engine.get", Engine.get_encoded, _len_or_zero))
    replace(Engine, "multi_get_encoded", tracer.wrap("engine.multiget", Engine.multi_get_encoded))
    replace(Engine, "put_encoded",
            tracer.wrap("engine.put", Engine.put_encoded, lambda a, r: len(a[2])))
    replace(Engine, "delete_encoded", tracer.wrap("engine.delete", Engine.delete_encoded))
    replace(Engine, "flush", tracer.wrap("engine.flush", Engine.flush))
    replace(Engine, "compact", tracer.wrap("engine.compact", Engine.compact))
    replace(SSTable, "get", tracer.wrap("sstable.get", SSTable.get, _is_none))
    replace(SSTable, "load_block", tracer.wrap("sstable.load_block", SSTable.load_block))
    replace(engine_mod, "build_table", tracer.wrap("sstable.build_table", engine_mod.build_table))
    replace(Bloom, "might_contain",
            tracer.wrap("bloom.might_contain", Bloom.might_contain, lambda a, r: int(r)))
    replace(Bloom, "build",
            classmethod(tracer.wrap("bloom.build", Bloom.__dict__["build"].__func__)))
    replace(codec_mod, "compress",
            tracer.wrap("codec.compress", codec_mod.compress, lambda a, r: len(a[0])))
    replace(codec_mod, "decompress",
            tracer.wrap("codec.decompress", codec_mod.decompress, _len_or_zero))
    replace(sstable_mod, "os", _ModuleProxy(os, pread=tracer.wrap("sstable.pread", os.pread)))
    replace(sstable_mod, "zlib", _ModuleProxy(zlib, crc32=tracer.wrap("sstable.crc", zlib.crc32)))

    class ContextPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.run_in_context, tracer.context(), fn, *args, **kwargs)

    replace(sstable_mod, "ThreadPoolExecutor", ContextPool)
    replace(wal_mod.WalWriter, "append",
            tracer.wrap("wal.append", wal_mod.WalWriter.append,
                        lambda a, r: len(a[2]) + len(a[3] if len(a) > 3 else b"") + _WAL_FRAMING))
    replace(extsort_mod, "sorted_pairs", tracer.wrap_generator("extsort", extsort_mod.sorted_pairs))
    replace(bench_mod, "parse_record_stream",
            tracer.wrap_generator("corpus.parse", bench_mod.parse_record_stream))
    replace(bench_mod, "derive_key", tracer.wrap("keys.derive_key", bench_mod.derive_key))
    replace(bench_mod, "build_store", tracer.wrap("bench.build_store", bench_mod.build_store))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# -- analysis -------------------------------------------------------------------


def _union_length(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    covered = 0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = a, b
        elif b > cur_end:
            cur_end = b
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


class Agg:
    """Sums over spans of one (name, root name); parent_* cover only the
    spans that had children, i.e. calls that did work below them."""

    __slots__ = ("count", "dur", "self", "aux", "parents", "parent_dur", "parent_self")

    def __init__(self):
        self.count = self.dur = self.self = self.aux = 0
        self.parents = self.parent_dur = self.parent_self = 0


def analyze(tracer: Tracer) -> dict:
    """Aggregate spans by (name, root name): count, summed duration, self
    time and attribute (ns), plus the cross-span counts the layer metrics
    need.

    Children end before their parent on the same thread, so one pass per
    thread sees every same-thread child before its parent; children on other
    threads (negative parent) are collected in a first pass.
    """
    names = tracer.names
    pending: dict[int, list] = defaultdict(lambda: [[], 0, 0])  # intervals, probes, bloom-true
    for rec in tracer.records():
        if rec[2] < 0:
            pending[-rec[2]][0].append((rec[5], rec[6]))

    by_name: dict[tuple[str, str], Agg] = defaultdict(Agg)
    extra = defaultdict(int)
    nid = {name: i for i, name in enumerate(names)}
    n_sst_get, n_engine_get, n_bloom = (nid.get(n, -1) for n in
                                        ("sstable.get", "engine.get", "bloom.might_contain"))
    for state in tracer._threads:
        rec = state.records
        for i in range(0, len(rec), _WIDTH):
            name, sid, parent, _op, root, t0, t1, aux = rec[i : i + _WIDTH]
            kids = pending.pop(sid, None)
            covered = _union_length(kids[0], t0, t1) if kids else 0
            agg = by_name[names[name], names[root]]
            agg.count += 1
            agg.dur += t1 - t0
            agg.self += t1 - t0 - covered
            agg.aux += aux
            if kids and kids[0]:
                agg.parents += 1
                agg.parent_dur += t1 - t0
                agg.parent_self += t1 - t0 - covered
            if name == n_engine_get:
                extra["engine.get.sstable_probes"] += kids[1] if kids else 0
            elif name == n_sst_get and aux == 1 and kids and kids[2]:
                extra["bloom.false_positives"] += 1
            if parent > 0:
                slot = pending[parent]
                slot[0].append((t0, t1))
                if name == n_sst_get:
                    slot[1] += 1
                elif name == n_bloom and aux == 1:
                    slot[2] = 1
    return {"by_name": by_name, "extra": dict(extra)}
