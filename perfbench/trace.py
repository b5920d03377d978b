"""Span tracing for the benchmark's traced run (``--trace 1``).

Spans are recorded around calls INTO deltaray's public module functions,
from this file only: the engine itself is not modified.  Driver-side
functions are wrapped in-process by :func:`install`; worker-side ones by
:func:`worker_setup`, which Ray runs in every worker process through
``runtime_env["worker_process_setup_hook"]`` before any task is
unpickled, so by-reference pickled functions and classes resolve to the
wrappers there.

A span is ``{name, layer, start, end, id, parent, tid, pid, attrs}``.
``tid`` (trace id) is the chunk's ``(seq_lo, seq_hi)`` for writes and the
benchmark's op index for reads; a span without one inherits its parent's.
Spans stay in memory per process; a worker appends its spans to
``<trace_dir>/spans-<pid>.jsonl`` once per top-level task, the driver
keeps its own.  ``perf_counter`` is CLOCK_MONOTONIC on Linux, so driver
and worker timestamps share one clock.

Self time of a span = its duration minus the part of it that its child
spans cover (:func:`self_times`); per-layer metrics are sums of self
times and of counts recorded at the same boundaries
(:func:`layer_metrics`).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
ON_FILE = "ON"  # present in the trace dir while workers should record


# ------------------------------------------------------------- attributes
# Each extractor maps (args, kwargs, result) to counts stored on the span.
def _stage_rows(args, kwargs, out):  # TransformStage.__call__(self, batch)
    return {"rows_in": args[1].num_rows, "rows_out": out.num_rows}


def _lww_rows(args, kwargs, out):  # lww_reduce(tbl, key)
    return {"rows_in": args[0].num_rows, "rows_out": out.num_rows}


def _split_bytes(args, kwargs, out):  # _split_block(block, n_shards)
    return {"bytes": int(args[0].nbytes)}


def _length(args, kwargs, out):
    return {"n": len(out)}


def _commit_bytes(args, kwargs, out):  # LakeState.try_commit(self, t, p, ...)
    if out.get("replayed"):
        return {"bytes": 0}
    path = os.path.join(args[0].part_dir(args[1], args[2]), out["file"])
    try:
        return {"bytes": os.path.getsize(path)}
    except OSError:
        return {"bytes": 0}


def _files_read(args, kwargs, out):
    stats = kwargs.get("io_stats")
    return {"files": stats.get("files_read", 0) if stats is not None else 0}


def _request_io_stats(args, kwargs):
    """read_partition counts the files it reads into ``io_stats`` when
    given one; hand it a fresh dict unless the caller passed its own."""
    if len(args) < 7 and kwargs.get("io_stats") is None:
        kwargs = dict(kwargs, io_stats={})
    return kwargs


_files_read.prep = _request_io_stats


def _merge_skipped(args, kwargs, out):
    skipped = out.num_rows > 0 and bool(out["skipped"][0].as_py())
    return {"skipped": int(skipped)}


def _chunk_tid(args, kwargs):  # ReplaySession._plan_chunk(self, chunk)
    return (int(args[1].seq_lo), int(args[1].seq_hi))


def _rts_tid(args, kwargs):  # _read_transform_split(path, rgs, cols, lo, ..)
    return (int(args[3]), int(args[4]))


# (module, attribute, layer, extractor, trace-id getter)
DRIVER_TARGETS = [
    ("deltaray.pipeline", "ReplaySession.__init__", "plan", None, None),
    ("deltaray.pipeline", "discover_segments", "plan", _length, None),
    ("deltaray.pipeline", "load_ddl_events", "plan", None, None),
    ("deltaray.pipeline", "plan_chunks", "plan", _length, None),
    ("deltaray.pipeline", "ReplaySession._plan_chunk", "plan", None,
     _chunk_tid),
    ("deltaray.commit", "LakeState.chunk_done_records", "plan", None, None),
    ("deltaray.pipeline", "ReplaySession.run", "exchange", None, None),
    ("deltaray.pipeline", "ReplaySession._run_dml_chunk", "exchange", None,
     _chunk_tid),
    ("deltaray.pipeline", "ReplaySession._submit_exchange", "exchange", None,
     None),
    ("deltaray.pipeline", "_plan_read_units", "exchange", _length, None),
    ("deltaray.pipeline", "collect_metrics", "metrics", None, None),
    ("deltaray.pipeline", "read_rows", "read", None, None),
    ("deltaray.pipeline", "read_changes", "read", None, None),
    ("deltaray.pipeline", "snapshots", "read", None, None),
    ("deltaray.pipeline", "committed_watermark", "read", None, None),
    ("deltaray.pipeline", "_raise_if_interior_anchor", "read", None, None),
]

WORKER_TARGETS = [
    ("deltaray.pipeline", "_read_transform_split", "exchange", None,
     _rts_tid),
    ("deltaray.pipeline", "_split_block", "exchange", _split_bytes, None),
    ("deltaray.pipeline", "_combine_splits", "exchange", None, None),
    ("deltaray.pipeline", "_merge_shard_after", "exchange", None, None),
    ("deltaray.pipeline", "_scan_segment_ddl", "exchange", None, None),
    ("deltaray.transforms", "TransformStage.__call__", "transforms",
     _stage_rows, None),
    ("deltaray.merge", "_slim_partition_state", "merge", None, None),
    ("deltaray.merge", "upsert_by_version", "merge", None, None),
]

# wrapped in every process: the driver calls them from reads, workers
# from merges and feed loads
SHARED_TARGETS = [
    ("deltaray.transforms", "lww_reduce", "transforms", _lww_rows, None),
    ("deltaray.transforms", "stable_hash_cols", "transforms", None, None),
    ("deltaray.merge", "evolve_to", "merge", None, None),
    ("deltaray.commit", "LakeState.commit_record", "commit", None, None),
    ("deltaray.commit", "LakeState.live_commits", "commit", None, None),
    ("deltaray.commit", "LakeState._list_commits_raw", "commit", None, None),
    ("deltaray.commit", "LakeState.list_commits", "commit", _length, None),
    ("deltaray.commit", "LakeState.latest_commit", "commit", None, None),
    ("deltaray.commit", "LakeState.try_commit", "commit", _commit_bytes,
     None),
    ("deltaray.commit", "LakeState.vacuum", "commit", _length, None),
    ("deltaray.commit", "LakeState.read_lineage", "commit", None, None),
    ("deltaray.commit", "LakeState.write_lineage", "commit", None, None),
    ("deltaray.commit", "LakeState.write_chunk_done", "commit", None, None),
    ("deltaray.commit", "LakeState.read_partition", "commit", _files_read,
     None),
]

# worker-side task entry points: a span with one of these names and no
# parent is one Ray task of the exchange
EXCHANGE_TASKS = {"_read_transform_split", "_merge_shard",
                  "_merge_shard_after", "_combine_splits",
                  "_scan_segment_ddl"}
MERGE_FN = "merge"  # the make_merge_fn closure
FEED_LOAD = "read_changes.load"  # read_changes' Ray Data map UDF
OP_LAYER = "op"  # the benchmark's own root span around each op


class Tracer:
    """Per-process span recorder.  ``worker=True`` tracers take their
    on/off state from the ON file at each top-level span and append
    finished spans to ``spans-<pid>.jsonl`` when it closes."""

    def __init__(self, trace_dir: str, worker: bool = False):
        self.trace_dir = trace_dir
        self.worker = worker
        self.enabled = False
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.pid = os.getpid()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def set_enabled(self, on: bool) -> None:
        """Driver: switch recording in this process and in the workers."""
        self.enabled = on
        path = os.path.join(self.trace_dir, ON_FILE)
        if on:
            open(path, "w").close()
        elif os.path.exists(path):
            os.remove(path)

    def call(self, name: str, layer: str, fn, args, kwargs,
             extract=None, tid=None):
        stack = self._stack()
        top = not stack
        if top and self.worker:
            self.enabled = os.path.exists(
                os.path.join(self.trace_dir, ON_FILE))
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = stack[-1] if stack else None
        if tid is None and parent is not None:
            tid = parent["tid"]
        span = {"name": name, "layer": layer, "id": next(self._ids),
                "parent": parent["id"] if parent else None,
                "tid": list(tid) if isinstance(tid, tuple) else tid,
                "pid": self.pid, "attrs": {}}
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            if extract is not None:
                span["attrs"].update(extract(args, kwargs, out))
            return out
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
            if top and self.worker:
                self.flush()

    def flush(self) -> None:
        if not self.spans:
            return
        path = os.path.join(self.trace_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
        self.spans.clear()


def _wrap(tracer: Tracer, fn, name: str, layer: str, extract, tid_of):
    prep = getattr(extract, "prep", None)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tid = None
        if tracer.enabled or tracer.worker:
            if tid_of is not None:
                tid = tid_of(args, kwargs)
            if prep is not None:
                kwargs = prep(args, kwargs)
        return tracer.call(name, layer, fn, args, kwargs, extract, tid)

    wrapper.__perfbench_orig__ = fn
    return wrapper


def _closure_tid(merge_fn):
    """(chunk_lo, chunk_hi) captured by the make_merge_fn closure."""
    cells = dict(zip(merge_fn.__code__.co_freevars,
                     (c.cell_contents for c in merge_fn.__closure__ or ())))
    if "chunk_lo" in cells and "chunk_hi" in cells:
        return (int(cells["chunk_lo"]), int(cells["chunk_hi"]))
    return None


def _wrap_merge_shard(tracer: Tracer, fn):
    """``_merge_shard(merge_fn, *tables)``: the task span, plus a span
    around the merge closure it calls."""
    @functools.wraps(fn)
    def wrapper(merge_fn, *tables):
        def traced_merge(group):
            return tracer.call(MERGE_FN, "merge", merge_fn, (group,), {},
                               _merge_skipped, _closure_tid(merge_fn))

        return tracer.call("_merge_shard", "exchange", fn,
                           (traced_merge, *tables), {})

    wrapper.__perfbench_orig__ = fn
    return wrapper


def _replace_everywhere(orig, new) -> None:
    """Rebind every deltaray module global that names ``orig`` (the
    package re-exports, ``from x import f`` copies) to ``new``."""
    for mname, mod in list(sys.modules.items()):
        if mod is None or not (mname == "deltaray"
                               or mname.startswith("deltaray.")):
            continue
        for k, v in list(vars(mod).items()):
            if v is orig:
                setattr(mod, k, new)


def _patch(tracer: Tracer, module: str, attr: str, layer: str, extract,
           tid_of) -> None:
    __import__(module)
    mod = sys.modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        orig = cls.__dict__[meth]
        if hasattr(orig, "__perfbench_orig__"):
            return
        setattr(cls, meth, _wrap(tracer, orig, attr, layer, extract, tid_of))
        return
    orig = getattr(mod, attr)
    if hasattr(orig, "__perfbench_orig__"):
        return
    _replace_everywhere(orig, _wrap(tracer, orig, attr, layer, extract,
                                    tid_of))


def install(tracer: Tracer, targets) -> None:
    for t in targets:
        _patch(tracer, *t)


class TracedUDF:
    """Picklable wrapper for read_changes' Ray Data ``load`` UDF: records
    one top-level span per batch in the worker that runs it."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, batch):
        tracer = _WORKER_TRACER[0] if _WORKER_TRACER else None
        if tracer is None:
            return self.fn(batch)
        return tracer.call(FEED_LOAD, "read", self.fn, (batch,), {})


def install_driver(tracer: Tracer) -> None:
    """Wrap the driver-side targets, and route read_changes' map UDF
    through :class:`TracedUDF` so its Ray Data tasks are traced too."""
    import ray.data

    install(tracer, DRIVER_TARGETS + SHARED_TARGETS)
    ds_cls = ray.data.Dataset
    orig = ds_cls.map_batches
    if hasattr(orig, "__perfbench_orig__"):
        return

    @functools.wraps(orig)
    def map_batches(self, fn, *args, **kwargs):
        if (getattr(fn, "__module__", "") == "deltaray.pipeline"
                and getattr(fn, "__qualname__", "").startswith(
                    "read_changes.")):
            fn = TracedUDF(fn)
        return orig(self, fn, *args, **kwargs)

    map_batches.__perfbench_orig__ = orig
    ds_cls.map_batches = map_batches


# The worker process's tracer, set once by the setup hook; TracedUDF
# instances are unpickled independently of the hook and find it here.
_WORKER_TRACER: list = []


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: pin the worker, as
    :func:`perfbench.stats.pin_worker` does, and wrap the worker-side
    targets."""
    from perfbench.stats import pin_worker

    pin_worker()
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir or _WORKER_TRACER:
        return
    tracer = Tracer(trace_dir, worker=True)
    _WORKER_TRACER.append(tracer)
    install(tracer, WORKER_TARGETS + SHARED_TARGETS)
    import deltaray.pipeline as pl

    pl._merge_shard = _wrap_merge_shard(tracer, pl._merge_shard)


def load_spans(trace_dir: str, driver_spans: list[dict]) -> list[dict]:
    spans = list(driver_spans)
    for f in sorted(os.listdir(trace_dir)):
        if f.startswith("spans-") and f.endswith(".jsonl"):
            with open(os.path.join(trace_dir, f)) as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


# ------------------------------------------------------------ arithmetic
def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[dict]) -> dict[tuple, float]:
    """(pid, span id) -> duration minus the time its children cover."""
    kids: dict[tuple, list] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault((s["pid"], s["parent"]), []).append(
                (s["start"], s["end"]))
    return {(s["pid"], s["id"]):
            (s["end"] - s["start"])
            - _covered(kids.get((s["pid"], s["id"]), []), s["start"], s["end"])
            for s in spans}


def _ancestors(spans: list[dict]) -> dict[tuple, list[dict]]:
    """(pid, span id) -> its ancestor spans, nearest first."""
    by_key = {(s["pid"], s["id"]): s for s in spans}
    memo: dict[tuple, list] = {}

    def anc(key) -> list:
        if key not in memo:
            s = by_key[key]
            p = (s["pid"], s["parent"])
            memo[key] = ([by_key[p]] + anc(p)
                         if s["parent"] is not None and p in by_key else [])
        return memo[key]

    return {k: anc(k) for k in by_key}


def effective_layers(spans: list[dict]) -> dict[tuple, str]:
    """A span's layer, except that transforms/merge helpers called from a
    read (routing hashes, schema evolution, merge-on-read LWW) count as
    read work: those layers are the write path's."""
    ancs = _ancestors(spans)
    out = {}
    for s in spans:
        k = (s["pid"], s["id"])
        lay = s["layer"]
        if lay in ("transforms", "merge") and any(
                a["layer"] == "read" for a in ancs[k]):
            lay = "read"
        out[k] = lay
    return out


# per-layer metric -> unit; every workload emits all of them
LAYER_UNITS = {
    "plan.busy_s": "s", "plan.segments": "count", "plan.chunks": "count",
    "exchange.read_s": "s", "exchange.read_units": "count",
    "exchange.split_s": "s", "exchange.split_bytes": "bytes",
    "exchange.tasks": "count", "exchange.driver_wait_s": "s",
    "transforms.busy_s": "s", "transforms.rows_in": "count",
    "transforms.rows_out": "count", "transforms.lww_keep_ratio": "ratio",
    "merge.calls": "count", "merge.busy_s": "s", "merge.skip_ratio": "ratio",
    "merge.lww_s": "s", "merge.upsert_s": "s", "merge.slim_s": "s",
    "merge.slim_rows_read": "count", "merge.shard_s_max": "s",
    "merge.shard_s_max_over_p50": "ratio",
    "commit.lookup_s": "s", "commit.list_s": "s", "commit.list_calls": "count",
    "commit.write_s": "s", "commit.bytes_written": "bytes",
    "commit.vacuum_s": "s", "commit.files_deleted": "count",
    "commit.lineage_s": "s", "commit.marker_s": "s",
    "commit.read_partition_s": "s", "commit.files_read": "count",
    "metrics.busy_s": "s", "metrics.commits_read": "count",
    "read.busy_s": "s", "read.anchor_check_s": "s",
    "read.partitions_touched": "count", "read.feed_exec_s": "s",
    "ray.overhead_s": "s", "trace.overhead_ms": "ms",
}

def assign_ops(spans: list[dict], ops: list[tuple[int, float, float]]):
    """Keep the spans that start inside a traced op's [start, end] window,
    tagged with that op's index (worker spans carry no op index)."""
    ops = sorted(ops, key=lambda o: o[1])
    out = []
    for s in spans:
        for idx, lo, hi in ops:
            if lo <= s["start"] <= hi:
                out.append(dict(s, op=idx))
                break
    return out




# metric -> span names whose self times it sums
_SELF_SUMS = {
    "exchange.read_s": {"_read_transform_split"},
    "exchange.split_s": {"_split_block", "_combine_splits"},
    # driver self time blocked on the exchange's merge refs
    "exchange.driver_wait_s": {"ReplaySession.run",
                               "ReplaySession._run_dml_chunk"},
    "merge.slim_s": {"_slim_partition_state"},
    "commit.lookup_s": {"LakeState.commit_record"},
    "commit.list_s": {"LakeState.live_commits", "LakeState._list_commits_raw",
                      "LakeState.list_commits", "LakeState.latest_commit"},
    "commit.write_s": {"LakeState.try_commit"},
    "commit.vacuum_s": {"LakeState.vacuum"},
    "commit.lineage_s": {"LakeState.read_lineage", "LakeState.write_lineage"},
    "commit.marker_s": {"LakeState.write_chunk_done"},
    "commit.read_partition_s": {"LakeState.read_partition"},
    "metrics.busy_s": {"collect_metrics"},
    "read.anchor_check_s": {"_raise_if_interior_anchor"},
}
# metric -> (span name, attribute) summed
_ATTR_SUMS = {
    "plan.segments": ("discover_segments", "n"),
    "plan.chunks": ("plan_chunks", "n"),
    "exchange.split_bytes": ("_split_block", "bytes"),
    "transforms.rows_in": ("TransformStage.__call__", "rows_in"),
    "transforms.rows_out": ("TransformStage.__call__", "rows_out"),
    "commit.bytes_written": ("LakeState.try_commit", "bytes"),
    "commit.files_deleted": ("LakeState.vacuum", "n"),
    "commit.files_read": ("LakeState.read_partition", "files"),
}
# metric -> span name counted
_COUNTS = {"exchange.read_units": "_read_transform_split",
           "commit.list_calls": "LakeState._list_commits_raw",
           "merge.calls": MERGE_FN}
_LAYER_BUSY = {"plan": "plan.busy_s", "transforms": "transforms.busy_s",
               "merge": "merge.busy_s", "read": "read.busy_s"}


def layer_metrics(spans: list[dict], op_secs: list[float],
                  trace_overhead_ms: float) -> dict[str, float]:
    """Per-layer metrics of the traced ops, per op: times in seconds and
    counts as means over the ops, ratios over all of them.  ``spans`` are
    restricted to the traced ops (:func:`assign_ops`); ``op_secs`` are
    those ops' wall times.  ``ray.overhead_s`` is the wall time no span's
    self time accounts for (driver waits excluded: they overlap the
    worker spans they wait on)."""
    n = max(1, len(op_secs))
    selfs = self_times(spans)
    layers = effective_layers(spans)
    ancs = _ancestors(spans)
    self_sum_of = {name: metric for metric, names in _SELF_SUMS.items()
                   for name in names}
    m = {k: 0.0 for k in LAYER_UNITS}
    lww_in = lww_out = skipped = 0
    shard_times: dict[tuple, list[float]] = {}
    accounted = 0.0
    for s in spans:
        k = (s["pid"], s["id"])
        name, st, attrs = s["name"], selfs[k], s["attrs"]
        above = {a["name"] for a in ancs[k]}
        under_read = any(a["layer"] == "read" for a in ancs[k])
        if name in self_sum_of:
            m[self_sum_of[name]] += st
        if layers[k] in _LAYER_BUSY:
            m[_LAYER_BUSY[layers[k]]] += st
        if (s["layer"] != OP_LAYER
                and name not in _SELF_SUMS["exchange.driver_wait_s"]):
            accounted += st
        for metric, (span_name, attr) in _ATTR_SUMS.items():
            if name == span_name:
                m[metric] += attrs.get(attr, 0)
        for metric, span_name in _COUNTS.items():
            m[metric] += name == span_name
        if name in EXCHANGE_TASKS and s["parent"] is None:
            m["exchange.tasks"] += 1
        if name == "lww_reduce" and not under_read:
            lww_in += attrs.get("rows_in", 0)
            lww_out += attrs.get("rows_out", 0)
            if MERGE_FN in above:
                m["merge.lww_s"] += st
            if ancs[k] and ancs[k][0]["name"] == "_slim_partition_state":
                m["merge.slim_rows_read"] += attrs.get("rows_in", 0)
        if name == "upsert_by_version" and MERGE_FN in above:
            m["merge.upsert_s"] += st
        if name == MERGE_FN:
            skipped += attrs.get("skipped", 0)
            shard_times.setdefault((s.get("op"), tuple(s["tid"] or ())),
                                   []).append(s["end"] - s["start"])
        if name == "LakeState.list_commits" and "collect_metrics" in above:
            m["metrics.commits_read"] += attrs.get("n", 0)
        if name == "LakeState.read_partition" and under_read:
            m["read.partitions_touched"] += 1
        if name == FEED_LOAD:
            m["read.feed_exec_s"] += s["end"] - s["start"]
    calls = m["merge.calls"]
    for k in m:
        m[k] /= n
    m["transforms.lww_keep_ratio"] = lww_out / lww_in if lww_in else 0.0
    m["merge.skip_ratio"] = skipped / calls if calls else 0.0
    maxes = [max(d) for d in shard_times.values()]
    skews = [max(d) / statistics.median(d) for d in shard_times.values()
             if statistics.median(d) > 0]
    m["merge.shard_s_max"] = statistics.median(maxes) if maxes else 0.0
    m["merge.shard_s_max_over_p50"] = (statistics.median(skews)
                                       if skews else 0.0)
    m["ray.overhead_s"] = (sum(op_secs) - accounted) / n
    m["trace.overhead_ms"] = trace_overhead_ms
    return m
