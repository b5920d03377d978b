"""Composition probes, round 8: operations over an OVERLAP lake — a
lake that replayed the same events under two different segmentations
(coarse then fine), so its commit log holds overlapping ranges and a
base + deltas that straddle each other's boundaries.  Round 7 fixed the
silent base-file overwrite this layout used to cause; this round pins
that every downstream operation treats the overlap as the ordinary
state it now is:

- reshard: raw copy through the hash exchange must LWW-reduce the
  overlapping files, not double-count or drop;
- OPTIMIZE + expire_snapshots: clustered rewrite and the retention
  filename gate must respect both naming schemes and the overlapping
  live set;
- read_changes: feeds anchored at the coarse boundary must obey the
  patch law across the overlap;
- replication chain: a mirror bootstrapped from the overlap lake must
  converge exactly.
"""

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from deltaray import (ReplayConfig, optimize_table, read_changes, read_rows,
                      read_table, read_table_ds, replay, replay_oracle,
                      reshard_generation, snapshots)
from deltaray.oracle import tables_equal
from deltaray.gen import write_event_log
from deltaray.pipeline import expire_snapshots
from deltaray.util import to_table


def _overlap_lake(tmp_path, seed=811, n_docs=120, n_events=1800):
    """Build the overlap layout: coarse one-segment replay, then the
    same events re-replayed from fine 250-event segments."""
    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    write_event_log(log, n_docs=n_docs, n_events=n_events, seed=seed,
                    segment_max_events=250)
    segs = sorted(glob.glob(os.path.join(log, "*.parquet")))
    pre = pa.concat_tables([pq.read_table(f) for f in segs[:3]])
    coarse = str(tmp_path / "coarse")
    os.makedirs(coarse)
    pq.write_table(pre, os.path.join(
        coarse, f"events-00000-{pre['seq'][0].as_py():012d}-"
                f"{pre['seq'][-1].as_py():012d}.parquet"))
    replay(ReplayConfig(event_log=coarse, lake=lake, num_partitions=4,
                        chunk_max_events=10**9, vacuum=False))
    anchor = pre["seq"][-1].as_py()
    replay(ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                        chunk_max_events=250, vacuum=False))
    cfg = ReplayConfig(event_log=log, lake=lake, num_partitions=4)
    return log, lake, anchor, replay_oracle(cfg)["docs"]


def _asof_reads(lake, s):
    """Every as-of read surface at anchor ``s``: each must pass the same
    per-partition gate (point lookups route to all partitions here)."""
    ids = [f"docs-doc{i:08d}" for i in range(100)]
    return [lambda: read_table(lake, "docs", asof_seq=s),
            lambda: read_rows(lake, "docs", ids, asof_seq=s),
            lambda: to_table(read_table_ds(lake, "docs", asof_seq=s)),
            lambda: to_table(read_changes(lake, "docs", 0, as_of_seq=s))]


def test_overlap_lake_reshard(ray_session, tmp_path):
    log, lake, anchor, want = _overlap_lake(tmp_path, seed=811)
    reshard_generation(lake, 7, src_generation=0, dst_generation=1)
    got = read_table(lake, "docs", generation=1)
    ok, msg = tables_equal(got, want, key="doc_id")
    assert ok, f"reshard over overlap lake: {msg}"


def test_overlap_lake_optimize_and_retention(ray_session, tmp_path):
    log, lake, anchor, want = _overlap_lake(tmp_path, seed=812)
    optimize_table(lake, "docs", "n_tok", vacuum=False)
    got = read_table(lake, "docs")
    ok, msg = tables_equal(got, want, key="doc_id")
    assert ok, f"optimize over overlap lake: {msg}"
    # predicate read stays exact over the re-clustered overlap
    pred = to_table(read_table_ds(lake, "docs",
                                  predicate=("n_tok", ">=", 20)))
    full = to_table(read_table_ds(lake, "docs"))
    assert pred.num_rows == full.filter(
        pc.greater_equal(full["n_tok"], 20)).num_rows

    # retention: raise the floor past the coarse anchor; state intact,
    # the expired coarse anchor raises
    import pytest

    from deltaray import SnapshotExpiredError

    head_anchor = snapshots(lake)[-1]
    expire_snapshots(lake, "docs", retain_since_seq=head_anchor)
    got2 = read_table(lake, "docs")
    ok, msg = tables_equal(got2, want, key="doc_id")
    assert ok, f"retention over overlap lake: {msg}"
    with pytest.raises(SnapshotExpiredError):
        read_table(lake, "docs", asof_seq=anchor)


def test_overlap_lake_patch_law(ray_session, tmp_path):
    log, lake, anchor, want = _overlap_lake(tmp_path, seed=813)
    before = read_table(lake, "docs", asof_seq=anchor)
    feed = to_table(read_changes(lake, "docs", since_seq=anchor))
    changed = set(feed["doc_id"].to_pylist())
    assert len(changed) == feed.num_rows, "duplicate keys in feed"
    cur = read_table(lake, "docs")
    ups = feed.filter(pc.equal(feed["change"], "UPSERT")) \
        .select(cur.column_names)
    keep = before.filter(pa.array(
        [d not in changed for d in before["doc_id"].to_pylist()]))
    patched = pa.concat_tables([keep.select(cur.column_names), ups],
                               promote_options="default")
    ok, msg = tables_equal(patched, cur, key="doc_id")
    assert ok, f"patch law over overlap lake: {msg}"


def test_extending_coarse_rereplay(ray_session, tmp_path):
    """Review-confirmed corruption, now fixed: fine replay of a PREFIX,
    then the compacted upstream log re-replayed as ONE coarse chunk
    extending past the committed head.  The extending commit must become
    the partition's newest state (commit order is by seq_hi, not by
    filename/seq_lo), the head must equal the oracle, and vacuum must
    not delete the only file holding the extension."""
    import pytest

    from deltaray import SnapshotExpiredError

    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    write_event_log(log, n_docs=100, n_events=1500, seed=815,
                    segment_max_events=250)
    segs = sorted(glob.glob(os.path.join(log, "*.parquet")))
    prefix = str(tmp_path / "prefix")
    os.makedirs(prefix)
    for f in segs[:3]:
        import shutil
        shutil.copy(f, os.path.join(prefix, os.path.basename(f)))
    replay(ReplayConfig(event_log=prefix, lake=lake, num_partitions=4,
                        chunk_max_events=250, vacuum=True,
                        compact_every=2))
    # the upstream compacted its log: the full history as ONE segment
    full = pa.concat_tables([pq.read_table(f) for f in segs])
    coarse = str(tmp_path / "coarse")
    os.makedirs(coarse)
    pq.write_table(full, os.path.join(
        coarse, f"events-00000-{full['seq'][0].as_py():012d}-"
                f"{full['seq'][-1].as_py():012d}.parquet"))
    replay(ReplayConfig(event_log=coarse, lake=lake, num_partitions=4,
                        chunk_max_events=10**9, vacuum=True,
                        compact_every=2))
    cfg = ReplayConfig(event_log=log, lake=lake, num_partitions=4)
    want = replay_oracle(cfg)["docs"]
    got = read_table(lake, "docs")
    ok, msg = tables_equal(got, want, key="doc_id")
    assert ok, f"extending coarse re-replay head: {msg}"
    # idempotent third pass over the coarse log (now fully covered)
    replay(ReplayConfig(event_log=coarse, lake=lake, num_partitions=4,
                        chunk_max_events=10**9, vacuum=True,
                        compact_every=2))
    got2 = read_table(lake, "docs")
    ok, msg = tables_equal(got2, want, key="doc_id")
    assert ok, f"third coarse pass: {msg}"


def test_interior_anchor_raises(ray_session, tmp_path):
    """Review-confirmed corruption, now fixed: a fine re-replay over a
    coarse-committed range skips its covered chunks (no stale files),
    and an as-of read at a fine marker INTERIOR to the coarse commit
    raises SnapshotExpiredError instead of serving wrong (or empty)
    state — the anchor's event-time state was never materialized."""
    import pytest

    from deltaray import SnapshotExpiredError, snapshots

    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    write_event_log(log, n_docs=100, n_events=1200, seed=816,
                    segment_max_events=200)
    segs = sorted(glob.glob(os.path.join(log, "*.parquet")))
    pre = pa.concat_tables([pq.read_table(f) for f in segs[:4]])
    coarse = str(tmp_path / "coarse")
    os.makedirs(coarse)
    pq.write_table(pre, os.path.join(
        coarse, f"events-00000-{pre['seq'][0].as_py():012d}-"
                f"{pre['seq'][-1].as_py():012d}.parquet"))
    replay(ReplayConfig(event_log=coarse, lake=lake, num_partitions=4,
                        chunk_max_events=10**9, vacuum=False))
    coarse_anchor = pre["seq"][-1].as_py()
    # fine re-replay with aggressive compaction: the covered chunks
    # must SKIP (wrote nothing), the tail applies
    replay(ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                        chunk_max_events=200, vacuum=False,
                        compact_every=1))
    cfg = ReplayConfig(event_log=log, lake=lake, num_partitions=4)
    want = replay_oracle(cfg)["docs"]
    got = read_table(lake, "docs")
    ok, msg = tables_equal(got, want, key="doc_id")
    assert ok, f"head after covered-skip re-replay: {msg}"
    # the coarse boundary anchor reads exactly
    at = read_table(lake, "docs", asof_seq=coarse_anchor)
    assert at.num_rows > 0
    # fine markers interior to the coarse commit raise, never serve
    interior = [s for s in snapshots(lake) if s < coarse_anchor]
    assert interior, "expected interior fine markers"
    for s in interior:
        for read in _asof_reads(lake, s):
            with pytest.raises(SnapshotExpiredError, match="interior"):
                read()
    # earliest_snapshot skips the interior anchors
    from deltaray.pipeline import earliest_snapshot
    e = earliest_snapshot(lake, "docs")
    assert e is not None and e >= coarse_anchor, e


def test_interior_anchor_raises_multichunk_coarse(ray_session, tmp_path):
    """Review round 3: the interior guard must also fire when the live
    set is merely STALE, not empty.  Coarse replay runs as TWO chunks
    (0,A],(A,B]; a fine re-replay writes finer markers but its covered
    chunks skip.  An as-of read at a fine marker interior to the SECOND
    coarse chunk sees live=[(0,A]] (non-empty!) — serving it would
    silently return state-at-A as state-at-S.  It must raise."""
    import pytest

    from deltaray import SnapshotExpiredError, snapshots

    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    write_event_log(log, n_docs=100, n_events=1200, seed=817,
                    segment_max_events=100)
    segs = sorted(glob.glob(os.path.join(log, "*.parquet")))
    # coarse = two 400-event segments covering the first 8 fine segments
    pre = pa.concat_tables([pq.read_table(f) for f in segs[:8]])
    coarse = str(tmp_path / "coarse")
    os.makedirs(coarse)
    half = pre.num_rows // 2
    for si, sl in enumerate([pre.slice(0, half), pre.slice(half)]):
        pq.write_table(sl, os.path.join(
            coarse, f"events-{si:05d}-{sl['seq'][0].as_py():012d}-"
                    f"{sl['seq'][-1].as_py():012d}.parquet"))
    replay(ReplayConfig(event_log=coarse, lake=lake, num_partitions=4,
                        chunk_max_events=half, vacuum=False))
    coarse_marks = snapshots(lake)
    assert len(coarse_marks) == 2
    A, B = coarse_marks
    replay(ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                        chunk_max_events=100, vacuum=False))
    cfg = ReplayConfig(event_log=log, lake=lake, num_partitions=4)
    want = replay_oracle(cfg)["docs"]
    ok, msg = tables_equal(read_table(lake, "docs"), want, key="doc_id")
    assert ok, f"head: {msg}"
    # coarse boundaries read fine; fine markers interior to EITHER
    # coarse chunk raise (the second-chunk interior is the stale-live
    # case the first guard missed)
    for S in (A, B):
        assert read_table(lake, "docs", asof_seq=S).num_rows > 0
    interior = [s for s in snapshots(lake) if s < B and s not in (A, B)]
    assert any(A < s < B for s in interior), interior
    for s in interior:
        for read in _asof_reads(lake, s):
            with pytest.raises(SnapshotExpiredError, match="interior"):
                read()


def test_retention_gate_lagging_partition(ray_session, tmp_path):
    """Review round 3: the retention filename gate must bound deletions
    by the PARTITION's own committed watermark, not just the lake-wide
    barrier — an extending catch-up chunk on a lagging partition writes
    its data file (hi above the partition watermark but below the
    global barrier) before its commit record, and a concurrent expiry
    must not delete it."""
    import numpy as np

    from deltaray.commit import LakeState, _seq12
    from deltaray.pipeline import expire_snapshots
    from deltaray.schemas import default_table_schema, event_log_schema
    from deltaray.transforms import stable_hash_cols

    # choose doc ids by their partition under 2-way hashing
    schema = default_table_schema("docs")
    ids = [f"docs-doc{i:08d}" for i in range(200)]
    kt = pa.table({"doc_id": pa.array(ids)})
    route = (stable_hash_cols(kt, ["doc_id"]) % np.uint64(2)).astype(int)
    part0 = [i for i, r in zip(ids, route) if r == 0][:40]
    part1 = [i for i, r in zip(ids, route) if r == 1][:40]
    assert part0 and part1

    ev_schema = event_log_schema(schema)

    def seg(rows, n):
        full = {name: [r.get(name) for r in rows]
                for name in ev_schema.names}
        t = pa.table(full, schema=ev_schema)
        pq.write_table(t, os.path.join(
            log, f"events-{n:05d}-{rows[0]['seq']:012d}-"
                 f"{rows[-1]['seq']:012d}.parquet"))

    def ins(seq, doc):
        return {"seq": seq, "op": "INSERT", "table": "docs",
                "doc_id": doc, "tokens": [seq % 7, seq % 5],
                "n_tok": 2, "source": "web", "is_snapshot": False}

    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    os.makedirs(log)
    # segment 1 (seq 1..80): both partitions; segment 2 (81..160): ONLY
    # partition-0 keys -> partition 1's committed watermark stays at 80
    # while the lake-wide marker advances to 160
    from deltaray.schemas import ddl_payload

    create = {"seq": 1, "op": "CREATE_TABLE", "table": "docs",
              "is_snapshot": False,
              "ddl_payload": ddl_payload("CREATE_TABLE", schema=schema)}
    rows1 = [create] + [
        ins(s, (part0 + part1)[(s - 2) % 80]) for s in range(2, 81)]
    rows2 = [ins(s, part0[(s - 81) % 40]) for s in range(81, 161)]
    seg(rows1, 0)
    seg(rows2, 1)
    replay(ReplayConfig(event_log=log, lake=lake, num_partitions=2,
                        chunk_max_events=80, vacuum=False))
    lk = LakeState(lake, 0)
    assert lk.committed_hi("docs", 1) == 80, lk.committed_hi("docs", 1)
    assert lk.committed_hi("docs", 0) == 160

    # the lagging partition's in-flight extending chunk: data file with
    # hi in (watermark, retain], record not yet written
    pdir = lk.part_dir("docs", 1)
    inflight = os.path.join(
        pdir, f"data-{_seq12(120)}-{_seq12(80)}.parquet")
    with open(inflight, "wb") as f:
        f.write(b"x")
    expire_snapshots(lake, "docs", retain_since_seq=160)
    assert os.path.exists(inflight), \
        "in-flight extending file on a lagging partition deleted by " \
        "retention (hi <= global barrier but above the partition " \
        "watermark)"
    os.remove(inflight)
    # state is intact either way (79 distinct inserts + 40 re-upserts)
    assert read_table(lake, "docs").num_rows == 79


def test_three_phase_resume_coarse_fine_fine(ray_session, tmp_path):
    """Resume x re-segmentation: coarse prefix replay, then a fine
    re-replay interrupted partway (simulated by a fine PREFIX log),
    then the full fine log.  The covered-chunk skip must compose with
    normal chunk-marker resume across all three phases — final state
    oracle-exact, idempotent fourth pass a no-op."""
    import shutil

    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    write_event_log(log, n_docs=100, n_events=1600, seed=820,
                    segment_max_events=200)
    segs = sorted(glob.glob(os.path.join(log, "*.parquet")))
    pre = pa.concat_tables([pq.read_table(f) for f in segs[:3]])
    coarse = str(tmp_path / "coarse")
    os.makedirs(coarse)
    pq.write_table(pre, os.path.join(
        coarse, f"events-00000-{pre['seq'][0].as_py():012d}-"
                f"{pre['seq'][-1].as_py():012d}.parquet"))
    replay(ReplayConfig(event_log=coarse, lake=lake, num_partitions=4,
                        chunk_max_events=10**9, vacuum=False))
    # interrupted fine re-replay: only the first 6 fine segments exist
    fine_part = str(tmp_path / "fine-part")
    os.makedirs(fine_part)
    for f in segs[:6]:
        shutil.copy(f, os.path.join(fine_part, os.path.basename(f)))
    replay(ReplayConfig(event_log=fine_part, lake=lake, num_partitions=4,
                        chunk_max_events=200, vacuum=False))
    # resumed full fine replay
    cfg = ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                       chunk_max_events=200, vacuum=False)
    replay(cfg)
    want = replay_oracle(ReplayConfig(event_log=log, lake=lake,
                                      num_partitions=4))["docs"]
    ok, msg = tables_equal(read_table(lake, "docs"), want, key="doc_id")
    assert ok, f"three-phase resume: {msg}"
    replay(cfg)  # idempotent fourth pass
    ok, msg = tables_equal(read_table(lake, "docs"), want, key="doc_id")
    assert ok, f"fourth pass: {msg}"


def test_retention_reads_watermark_before_keep_set(ray_session, tmp_path,
                                                   monkeypatch):
    """Review round 4 (TOCTOU): expiry must read the partition
    watermark BEFORE the keep-set listing — a commit record landing
    between the two listings must not raise the barrier past its own
    file.  Pins the call order structurally."""
    from deltaray import commit as commit_mod
    from deltaray.pipeline import expire_snapshots

    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    write_event_log(log, n_docs=60, n_events=600, seed=819,
                    segment_max_events=200)
    replay(ReplayConfig(event_log=log, lake=lake, num_partitions=2,
                        chunk_max_events=200, vacuum=False))
    from deltaray import snapshots
    retain = snapshots(lake)[-1]

    order: dict[int, list[str]] = {}
    real_hi = commit_mod.LakeState.committed_hi
    real_live = commit_mod.LakeState.live_commits

    def spy_hi(self, table, part):
        order.setdefault(part, []).append("watermark")
        return real_hi(self, table, part)

    def spy_live(self, table, part, before_seq=None):
        order.setdefault(part, []).append("keep")
        return real_live(self, table, part, before_seq)

    monkeypatch.setattr(commit_mod.LakeState, "committed_hi", spy_hi)
    monkeypatch.setattr(commit_mod.LakeState, "live_commits", spy_live)
    expire_snapshots(lake, "docs", retain_since_seq=retain)
    for p, calls in order.items():
        assert "watermark" in calls and "keep" in calls, (p, calls)
        assert calls.index("watermark") < calls.index("keep"), \
            f"part {p}: watermark read after keep set ({calls}) — " \
            f"an in-flight record landing between them could be deleted"


def test_overlap_lake_chain_bootstrap(ray_session, tmp_path):
    import ray.data as rd

    from deltaray import feed_to_events
    from deltaray.pipeline import bootstrap_table, _schema_asof
    from deltaray.commit import LakeState

    log, lake, anchor, want = _overlap_lake(tmp_path, seed=814)
    log_b, lake_b = str(tmp_path / "ev-b"), str(tmp_path / "lk-b")
    schema = _schema_asof(LakeState(lake, 0), "docs", anchor)
    cfg_b = ReplayConfig(event_log=log_b, lake=lake_b, num_partitions=3,
                         chunk_max_events=10**9, vacuum=False)
    bootstrap_table(cfg_b, schema,
                    rd.from_arrow(read_table(lake, "docs",
                                             asof_seq=anchor)),
                    snapshot_seq=anchor)
    feed = to_table(read_changes(lake, "docs", since_seq=anchor))
    ev = feed_to_events(feed, schema)
    lo = ev["seq"][0].as_py()
    hi = ev["seq"][-1].as_py()
    os.makedirs(log_b, exist_ok=True)
    pq.write_table(ev, os.path.join(
        log_b, f"events-00000-{lo:012d}-{hi:012d}.parquet"))
    replay(cfg_b)
    got = read_table(lake_b, "docs")
    ok, msg = tables_equal(got, want, key="doc_id")
    assert ok, f"chain mirror from overlap lake: {msg}"
