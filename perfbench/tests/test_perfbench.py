"""The benchmark's own tests: percentile refusal, self-time arithmetic and
the DuckDB reference pinned to ``replay_oracle``.  No Ray needed.

    python -m pytest perfbench/tests -q
"""

import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import trace as tr  # noqa: E402
from perfbench.stats import TooFewSamples, percentile  # noqa: E402


# ------------------------------------------------------------ percentiles
def test_percentile_refuses_fewer_than_ten_beyond():
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)  # rank 90 leaves 9 above it
    with pytest.raises(TooFewSamples):
        percentile([], 50)
    assert percentile(list(range(100)), 90) == 89  # exactly 10 above
    assert percentile(list(range(20)), 50) == 9


# -------------------------------------------------------------- processes
def test_stop_descendants_ends_children_and_grandchildren():
    import subprocess
    import time

    from perfbench.stats import _descendants, stop_descendants

    # both ignore SIGTERM (sleep inherits it), so only SIGKILL ends them
    proc = subprocess.Popen(["sh", "-c", "trap '' TERM; sleep 60 & wait"])
    deadline = time.monotonic() + 10
    while (len(_descendants(os.getpid())) < 2
           and time.monotonic() < deadline):
        time.sleep(0.01)
    assert stop_descendants(grace_s=0.2) == []
    assert proc.poll() is not None
    assert _descendants(os.getpid()) == []


# -------------------------------------------------------------- self time
def _span(sid, parent, name, start, end, layer="commit", pid=1, attrs=None,
          tid=None):
    return {"id": sid, "parent": parent, "name": name, "layer": layer,
            "start": start, "end": end, "pid": pid, "attrs": attrs or {},
            "tid": tid}


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, None, "root", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 4.0),
        _span(3, 1, "b", 3.0, 6.0),  # overlaps a: union is [1, 6]
        _span(4, 2, "c", 2.0, 3.0),
        _span(5, 1, "late", 9.0, 12.0),  # clipped to the parent's end
        _span(1, None, "other-pid", 0.0, 2.0, pid=2),  # same id, other pid
    ]
    st = tr.self_times(spans)
    assert st[(1, 1)] == pytest.approx(10.0 - 5.0 - 1.0)
    assert st[(1, 2)] == pytest.approx(2.0)
    assert st[(1, 3)] == pytest.approx(3.0)
    assert st[(1, 4)] == pytest.approx(1.0)
    assert st[(2, 1)] == pytest.approx(2.0)


def test_layer_metrics_on_synthetic_tree():
    # one 10 s op: the driver waits 8 s on a replay whose worker runs two
    # merges (one skipped) of one chunk; a read helper counts as read
    spans = [
        _span(1, None, "op.replay", 0.0, 10.0, layer=tr.OP_LAYER),
        _span(2, 1, "ReplaySession.run", 1.0, 9.0, layer="exchange"),
        _span(3, 2, "collect_metrics", 8.0, 8.5, layer="metrics"),
        _span(4, 3, "LakeState.list_commits", 8.1, 8.3, attrs={"n": 7}),
        _span(1, None, "_merge_shard", 2.0, 5.0, layer="exchange", pid=9),
        _span(2, 1, tr.MERGE_FN, 2.0, 4.0, layer="merge", pid=9,
              attrs={"skipped": 0}, tid=[10, 20]),
        _span(3, 2, "lww_reduce", 2.5, 3.0, layer="transforms", pid=9,
              attrs={"rows_in": 100, "rows_out": 40}),
        _span(4, 1, tr.MERGE_FN, 4.0, 5.0, layer="merge", pid=9,
              attrs={"skipped": 1}, tid=[10, 20]),
        _span(5, None, "read_rows", 9.0, 9.5, layer="read"),
        _span(6, 5, "evolve_to", 9.1, 9.2, layer="merge"),
    ]
    spans = tr.assign_ops(spans, [(0, 0.0, 10.0)])
    m = tr.layer_metrics(spans, [10.0], trace_overhead_ms=1.5)
    assert set(m) == set(tr.LAYER_UNITS)
    assert m["merge.calls"] == 2
    assert m["merge.skip_ratio"] == pytest.approx(0.5)
    assert m["merge.busy_s"] == pytest.approx(1.5 + 1.0)  # evolve_to is read
    assert m["merge.lww_s"] == pytest.approx(0.5)
    assert m["transforms.busy_s"] == pytest.approx(0.5)
    assert m["transforms.lww_keep_ratio"] == pytest.approx(0.4)
    assert m["read.busy_s"] == pytest.approx(0.5)
    assert m["exchange.driver_wait_s"] == pytest.approx(8.0 - 0.5)
    assert m["exchange.tasks"] == 1
    assert m["metrics.busy_s"] == pytest.approx(0.3)
    assert m["metrics.commits_read"] == 7
    assert m["merge.shard_s_max"] == pytest.approx(2.0)
    assert m["merge.shard_s_max_over_p50"] == pytest.approx(2.0 / 1.5)
    # accounted: every non-op, non-wait self time
    accounted = 0.3 + 0.2 + 0.0 + 1.5 + 0.5 + 1.0 + 0.4 + 0.1
    assert m["ray.overhead_s"] == pytest.approx(10.0 - accounted)
    assert m["trace.overhead_ms"] == 1.5


def test_assign_ops_keeps_spans_inside_traced_windows():
    spans = [_span(1, None, "a", 1.0, 2.0), _span(2, None, "b", 5.0, 6.0)]
    got = tr.assign_ops(spans, [(3, 4.5, 7.0)])
    assert [(s["name"], s["op"]) for s in got] == [("b", 3)]


# ------------------------------------------------------------- reference
@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    from deltaray.gen import write_event_log_fast

    d = str(tmp_path_factory.mktemp("log"))
    m = write_event_log_fast(d, n_docs=200, n_events=3000, seed=7,
                             segment_max_events=400)
    return d, m


def test_reference_equals_replay_oracle(small_log, tmp_path):
    from deltaray import ReplayConfig, replay_oracle, tables_equal
    from perfbench.reference import Reference

    d, m = small_log
    files = [s["path"] for s in m["segments"]]
    ref = Reference(files, cache_dir=str(tmp_path), tag="t")
    want = replay_oracle(ReplayConfig(event_log=d,
                                      lake=str(tmp_path / "x")))["docs"]
    ok, msg = tables_equal(ref.state(m["max_seq"], cache=True), want)
    assert ok, msg
    # a second reader is served from the cache, without DuckDB
    cached = Reference(files, cache_dir=str(tmp_path), tag="t")
    ok, msg = tables_equal(cached.state(m["max_seq"], cache=True), want)
    assert ok and cached._con is None, msg
    ref.close()


def test_reference_prefix_and_feed_match_a_python_scan(small_log):
    from deltaray import tables_equal
    from perfbench.reference import Reference

    d, m = small_log
    files = [s["path"] for s in m["segments"]]
    rows = sorted((r for f in files for r in pq.read_table(f).to_pylist()
                   if r["op"] in ("INSERT", "UPDATE", "DELETE")),
                  key=lambda r: r["seq"])
    since, as_of = 1200, 2600
    last = {}
    for r in rows:
        if r["seq"] <= as_of:
            last[r["doc_id"]] = r
    ref = Reference(files)
    live = sorted((r for r in last.values() if r["op"] != "DELETE"),
                  key=lambda r: r["doc_id"])
    want_state = pa.Table.from_pylist(
        [{c: r[c] for c in ("doc_id", "tokens", "n_tok", "source")}
         for r in live], schema=ref.schema)
    ok, msg = tables_equal(ref.state(as_of), want_state)
    assert ok, msg
    feed = sorted((r for r in last.values() if r["seq"] > since),
                  key=lambda r: r["doc_id"])
    got = ref.feed(since, as_of)
    assert got["doc_id"].to_pylist() == [r["doc_id"] for r in feed]
    assert got["seq"].to_pylist() == [r["seq"] for r in feed]
    assert got["change"].to_pylist() == [
        "DELETE" if r["op"] == "DELETE" else "UPSERT" for r in feed]
    assert got["tokens"].to_pylist() == [r["tokens"] for r in feed]
    ref.close()
