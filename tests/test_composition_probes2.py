"""Adversarial composition probes, third shell.

The round-4 sweeps kept finding silent-wrong-answer bugs only at
feature INTERSECTIONS, so this file pins the next set of pairs no
earlier suite exercises:

- read_rows (point lookups) across TRUNCATE and DROP+CREATE markers,
  current and as-of (the serving path must agree with the scan path
  about which keys a marker wiped)
- read_history across DROP + re-CREATE (no pre-drop version may leak
  back in as "retained"; is_current must agree with the live state)
- OPTIMIZE then reshard_generation (a clustered opt base is raw input
  to the exchange) and OPTIMIZE of the resharded generation
- reshard across a TRUNCATE marker (markers are copied; the new base
  spans the marker's seq but holds only post-marker survivors) and
  across a DROP (the dropped table gets a snapshot floor like any other)
- refresh_aggregate anchored below the retention floor (must raise
  SnapshotExpiredError, never a silently-stale aggregate)
- bootstrap anchor x expire_snapshots (the bootstrap boundary obeys
  the same floor rules as any replayed anchor)
- ALTER COLUMN TYPE then reshard (mixed-type files evolve through the
  exchange; the new generation serves the widened schema)
- read_history across OPTIMIZE (depth collapses to the live window —
  the documented granularity — while is_current/valid_to stay lawful)
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from deltaray import (ReplayConfig, SnapshotExpiredError, expire_snapshots,
                      read_changes, read_history, read_rows, read_table,
                      read_table_ds, replay, reshard_generation, snapshots,
                      tables_equal)
from deltaray.gen import gen_base, write_event_log
from deltaray.pipeline import (bootstrap_table, build_aggregate,
                               optimize_table, refresh_aggregate)
from deltaray.schemas import default_table_schema, event_log_schema
from deltaray.util import to_table


def _tail_rows(schema, n, seed, first_seq=2, key_pool=100, table="docs"):
    """Hand-built DML tail (no CREATE_TABLE): bootstrap supplies schema."""
    rng = np.random.default_rng(seed)
    rows, seq = [], first_seq
    for i in range(n):
        op = ("INSERT", "UPDATE", "DELETE")[int(rng.integers(0, 3))]
        doc = f"{table}-doc{1000 + i:08d}" if op == "INSERT" \
            else f"{table}-doc{int(rng.integers(0, key_pool)):08d}"
        r = {"seq": seq, "op": op, "table": table, "doc_id": doc,
             "is_snapshot": False}
        if op != "DELETE":
            r.update(tokens=[int(x) for x in rng.integers(0, 100, 5)],
                     n_tok=5, source=str(rng.choice(["web", "code"])))
        rows.append(r)
        seq += 1
    return rows, seq


def _write_segments(log, log_schema, segments):
    os.makedirs(log, exist_ok=True)
    for si, seg in enumerate(segments):
        if not seg:
            continue
        cols = {f.name: [r.get(f.name) for r in seg] for f in log_schema}
        pq.write_table(
            pa.table(cols, schema=log_schema),
            f"{log}/events-{si:05d}-{seg[0]['seq']:012d}-"
            f"{seg[-1]['seq']:012d}.parquet")


def _rows_for(lake, keys, gen=0, asof=None, table="docs"):
    """read_rows vs the scan path for the same keys, as (got, want)."""
    got = read_rows(lake, table, keys, generation=gen, asof_seq=asof)
    full = read_table(lake, table, generation=gen, asof_seq=asof)
    want = full.filter(pc.is_in(full["doc_id"], value_set=pa.array(keys))) \
        .sort_by([("doc_id", "ascending")])
    return got, want


def test_read_rows_across_truncate(ray_session, tmp_path):
    """Point lookups on a table whose history crosses a TRUNCATE: the
    serving path (read_rows) must agree with the scan path about wiped,
    re-inserted and fresh keys — current AND as-of a pre-marker anchor
    (vacuum=False retains the anchor state), with and without payload
    pruning."""
    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    write_event_log(log, n_docs=100, n_events=1500, seed=101,
                    segment_max_events=200,
                    ddl=[(800, "docs", "TRUNCATE_TABLE", {})])
    replay(ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                        chunk_max_events=200, compact_every=100,
                        vacuum=False))
    snaps = snapshots(lake)
    trunc_seq = 100 + 800 + 1
    pre = [s for s in snaps if s <= trunc_seq]
    anchor_tbl = read_table(lake, "docs", asof_seq=pre[-1])
    cur_keys = set(read_table(lake, "docs")["doc_id"].to_pylist())
    wiped = sorted(set(anchor_tbl["doc_id"].to_pylist()) - cur_keys)[:5]
    assert wiped, "probe needs keys the marker wiped"
    alive = sorted(cur_keys)[:5]
    probe = sorted(set(wiped + alive))

    got, want = _rows_for(lake, probe)
    assert set(got["doc_id"].to_pylist()) & set(wiped) == set(), \
        "read_rows resurrected keys a TRUNCATE wiped"
    ok, msg = tables_equal(got, want, key="doc_id")
    assert ok, f"current lookups vs scan: {msg}"

    # as-of the pre-marker anchor the wiped keys are alive again
    got, want = _rows_for(lake, probe, asof=pre[-1])
    assert set(wiped) <= set(got["doc_id"].to_pylist())
    ok, msg = tables_equal(got, want, key="doc_id")
    assert ok, f"as-of lookups vs scan: {msg}"

    # payload-pruned lookup agrees column-for-column
    got = read_rows(lake, "docs", probe, columns=["n_tok"])
    full = read_table(lake, "docs")
    want = full.filter(pc.is_in(full["doc_id"],
                                value_set=pa.array(probe))) \
        .select(["doc_id", "n_tok"]).sort_by([("doc_id", "ascending")])
    ok, msg = tables_equal(got, want, key="doc_id")
    assert ok, f"pruned lookups: {msg}"


def test_read_rows_and_history_across_drop_recreate(ray_session, tmp_path):
    """DROP_TABLE + CREATE_TABLE re-incarnation: read_rows must serve
    only the new incarnation's rows (old values for re-used keys must
    not leak), an as-of lookup at a pre-drop anchor serves the OLD
    incarnation, and read_history starts strictly after the drop marker
    with is_current matching the live state."""
    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    write_event_log(log, n_docs=100, n_events=1600, seed=103,
                    segment_max_events=200,
                    ddl=[(700, "docs", "DROP_TABLE", {}),
                         (701, "docs", "CREATE_TABLE", {})])
    replay(ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                        chunk_max_events=200, compact_every=100,
                        vacuum=False))
    snaps = snapshots(lake)
    drop_seq = 100 + 700 + 1
    pre = [s for s in snaps if s <= drop_seq]
    anchor_tbl = read_table(lake, "docs", asof_seq=pre[-1])
    cur = read_table(lake, "docs")
    cur_keys = set(cur["doc_id"].to_pylist())
    gone = sorted(set(anchor_tbl["doc_id"].to_pylist()) - cur_keys)[:5]
    alive = sorted(cur_keys)[:5]
    probe = sorted(set(gone + alive))
    assert gone, "probe needs keys the drop retired"

    got, want = _rows_for(lake, probe)
    ok, msg = tables_equal(got, want, key="doc_id")
    assert ok, f"post-re-create lookups: {msg}"
    assert set(got["doc_id"].to_pylist()) & set(gone) == set()

    got, want = _rows_for(lake, probe, asof=pre[-1])
    ok, msg = tables_equal(got, want, key="doc_id")
    assert ok, f"pre-drop as-of lookups: {msg}"

    h = read_history(lake, "docs", probe)
    assert h.num_rows > 0
    assert pc.min(h["seq"]).as_py() > drop_seq, \
        "pre-drop version leaked into the retained history"
    assert set(h.filter(h["is_current"])["doc_id"].to_pylist()) \
        == cur_keys & set(probe)


def test_optimize_then_reshard(ray_session, tmp_path):
    """A clustered opt base feeds the reshard exchange raw; the new
    generation must carry the exact state, serve point lookups with the
    new partition count, and OPTIMIZE + predicate reads must work on
    the new generation (fresh zone maps at the new write)."""
    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    write_event_log(log, n_docs=150, n_events=2000, seed=107,
                    segment_max_events=400)
    replay(ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                        chunk_max_events=400))
    optimize_table(lake, "docs", "n_tok", row_group_rows=64)
    want = read_table(lake, "docs")

    res = reshard_generation(lake, 7)
    assert res["tables"]["docs"]["partitions"] == 7
    got = read_table(lake, "docs", generation=1)
    ok, msg = tables_equal(got, want, key="doc_id")
    assert ok, f"resharded state after OPTIMIZE: {msg}"

    ids = sorted(want["doc_id"].to_pylist())[:4]
    assert read_rows(lake, "docs", ids, generation=1).num_rows == len(ids)

    optimize_table(lake, "docs", "n_tok", generation=1, row_group_rows=64)
    io = {}
    pred = to_table(read_table_ds(lake, "docs", generation=1,
                                  predicate=("n_tok", ">", 300),
                                  io_stats_out=io))
    exact = want.filter(pc.greater(want["n_tok"], 300))
    ok, msg = tables_equal(pred.sort_by([("doc_id", "ascending")]),
                           exact.sort_by([("doc_id", "ascending")]),
                           key="doc_id")
    assert ok, f"predicate read on resharded+optimized gen: {msg}"
    assert io.get("files_pruned", 0) + io.get("parts_pruned", 0) >= 0


def test_reshard_across_truncate(ray_session, tmp_path):
    """Resharding a lake whose history crosses a TRUNCATE: the marker
    files are copied, the new base holds only post-marker survivors,
    and read_history on the new generation never shows a pre-marker
    seq even though the copied base's commit range spans it."""
    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    write_event_log(log, n_docs=100, n_events=1500, seed=109,
                    segment_max_events=300,
                    ddl=[(800, "docs", "TRUNCATE_TABLE", {})])
    replay(ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                        chunk_max_events=300, vacuum=False))
    trunc_seq = 100 + 800 + 1
    want = read_table(lake, "docs")

    reshard_generation(lake, 6)
    got = read_table(lake, "docs", generation=1)
    ok, msg = tables_equal(got, want, key="doc_id")
    assert ok, f"resharded state across TRUNCATE: {msg}"

    keys = sorted(want["doc_id"].to_pylist())[:8]
    h = read_history(lake, "docs", keys, generation=1)
    assert h.num_rows > 0
    assert pc.min(h["seq"]).as_py() > trunc_seq
    assert set(h.filter(h["is_current"])["doc_id"].to_pylist()) == set(keys)


def test_reshard_across_drop(ray_session, tmp_path):
    """Resharding a lake whose ``docs`` was dropped mid-log: the DROP is
    only its TRUNCATE marker, so the dropped table takes the same
    watermark cut as every other table and gets a snapshot floor — the
    new generation reads it empty at head and raises
    SnapshotExpiredError as of a pre-drop anchor, never an empty table
    that silently stands in for the pre-drop state."""
    from deltaray.commit import LakeState

    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    write_event_log(log, n_docs=100, n_events=1500, seed=109,
                    segment_max_events=300,
                    ddl=[(800, "docs", "DROP_TABLE", {})])
    replay(ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                        chunk_max_events=300, vacuum=False))
    src = LakeState(lake)
    [drop_seq] = src.truncate_seqs("docs")
    anchor = snapshots(lake)[0]
    assert anchor < drop_seq
    assert read_table(lake, "docs", asof_seq=anchor).num_rows > 0
    assert read_table(lake, "docs").num_rows == 0

    res = reshard_generation(lake, 6)
    assert read_table(lake, "docs", generation=1).num_rows == 0
    with pytest.raises(SnapshotExpiredError):
        read_table(lake, "docs", generation=1, asof_seq=anchor)
    floor = res["tables"]["docs"]["snapshot_seq"]
    assert anchor < floor < drop_seq
    # the cut itself (the last pre-drop anchor here) stays readable
    ok, msg = tables_equal(read_table(lake, "docs", generation=1,
                                      asof_seq=floor),
                           read_table(lake, "docs", asof_seq=floor),
                           key="doc_id")
    assert ok, msg
    # one drop record: the TRUNCATE marker
    assert "_dropped" not in os.listdir(src.table_dir("docs"))


def test_refresh_aggregate_below_floor_raises(ray_session, tmp_path):
    """An incremental refresh whose since-anchor fell below the
    retention floor must raise SnapshotExpiredError — a silently-stale
    aggregate (prev returned unchanged, or a partial patch) would be a
    wrong answer a consumer cannot detect."""
    import ray.data as rd

    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    write_event_log(log, n_docs=100, n_events=1500, seed=113,
                    segment_max_events=250)
    replay(ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                        chunk_max_events=250, compact_every=3,
                        vacuum=False))
    snaps = snapshots(lake)
    anchor = snaps[0]
    agg0 = build_aggregate(
        rd.from_arrow(read_table(lake, "docs", asof_seq=anchor)),
        group_col="source", sum_cols=["n_tok"])
    expire_snapshots(lake, "docs", snaps[-2])
    with pytest.raises(SnapshotExpiredError):
        refresh_aggregate(lake, "docs", agg0, since_seq=anchor,
                          group_col="source", sum_cols=["n_tok"])
    # a refresh from the floor itself still works and equals the full
    # recompute (the floor anchor is the first RETAINED snapshot)
    agg_f = build_aggregate(
        rd.from_arrow(read_table(lake, "docs", asof_seq=snaps[-2])),
        group_col="source", sum_cols=["n_tok"])
    got = refresh_aggregate(lake, "docs", agg_f, since_seq=snaps[-2],
                            group_col="source", sum_cols=["n_tok"])
    full = build_aggregate(rd.from_arrow(read_table(lake, "docs")),
                           group_col="source", sum_cols=["n_tok"])
    ok, msg = tables_equal(got, full, key="source")
    assert ok, msg


def test_bootstrap_anchor_expiry(ray_session, tmp_path):
    """The bootstrap boundary is a snapshot anchor; it must obey the
    same retention rules: expiring past it makes as-of reads and feeds
    from it raise, expiring AT it keeps the loaded state exactly
    readable."""
    import ray.data as rd

    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    schema = default_table_schema()
    snap = gen_base(80, seed=31)
    rows, _ = _tail_rows(schema, 300, seed=37)
    _write_segments(log, event_log_schema(schema),
                    [rows[:100], rows[100:200], rows[200:]])
    cfg = ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                       chunk_max_events=100, compact_every=100,
                       vacuum=False)
    bootstrap_table(cfg, schema, rd.from_arrow(snap), snapshot_seq=1)
    replay(cfg)
    snaps = snapshots(lake)
    assert snaps[0] == 1

    # retain AT the bootstrap anchor: loaded state stays exactly readable
    expire_snapshots(lake, "docs", 1)
    at_boot = read_table(lake, "docs", asof_seq=1)
    ok, msg = tables_equal(at_boot, snap, key="doc_id")
    assert ok, f"bootstrap anchor after retain-at-boot expiry: {msg}"

    # retain past it: the bootstrap anchor expires like any other
    expire_snapshots(lake, "docs", snaps[2])
    with pytest.raises(SnapshotExpiredError):
        read_table(lake, "docs", asof_seq=1)
    with pytest.raises(SnapshotExpiredError):
        to_table(read_changes(lake, "docs", since_seq=1))
    # the floor anchor itself still reads and patches
    before = read_table(lake, "docs", asof_seq=snaps[2])
    cur = read_table(lake, "docs")
    feed = to_table(read_changes(lake, "docs", since_seq=snaps[2]))
    changed = set(feed["doc_id"].to_pylist())
    ups = feed.filter(pc.equal(feed["change"], "UPSERT")) \
        .select(cur.column_names)
    keep = before.filter(pa.array(
        [d not in changed for d in before["doc_id"].to_pylist()]))
    ok, msg = tables_equal(
        pa.concat_tables([keep, ups], promote_options="default"), cur,
        key="doc_id")
    assert ok, f"patch law from the post-expiry floor: {msg}"


def test_alter_type_then_reshard(ray_session, tmp_path):
    """Reshard of a lake holding mixed-type files (pre/post ALTER
    COLUMN TYPE): every row evolves to the widened schema through the
    exchange, the new generation serves the wide type, and point
    lookups route correctly."""
    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    write_event_log(log, n_docs=120, n_events=1600, seed=127,
                    segment_max_events=200,
                    ddl=[(800, "docs", "ALTER_TABLE",
                          {"alter": ("n_tok", "int64")})])
    replay(ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                        chunk_max_events=200, compact_every=100,
                        vacuum=False))
    want = read_table(lake, "docs")
    assert want.schema.field("n_tok").type == pa.int64()

    reshard_generation(lake, 6)
    got = read_table(lake, "docs", generation=1)
    assert got.schema.field("n_tok").type == pa.int64()
    ok, msg = tables_equal(got, want, key="doc_id")
    assert ok, f"resharded state across ALTER TYPE: {msg}"
    ids = sorted(want["doc_id"].to_pylist())[:4]
    lk = read_rows(lake, "docs", ids, generation=1)
    assert lk.num_rows == len(ids)
    assert lk.schema.field("n_tok").type == pa.int64()


def test_unordered_feed_across_optimize(ray_session, tmp_path):
    """UN_ORDERED lakes resolve LWW by (source_ts, sort keys), not seq;
    OPTIMIZE rewrites each partition into one clustered base.  The feed
    from a pre-OPTIMIZE anchor must be unchanged by the rewrite (the
    clustered base preserves per-row versions, src_ts and tombstones)
    and the patch law must hold on the unordered lake."""
    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    write_event_log(log, n_docs=120, n_events=1600, seed=149,
                    segment_max_events=200, unordered=True)
    replay(ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                        chunk_max_events=200, compact_every=100,
                        vacuum=False, ordering="UN_ORDERED"))
    snaps = snapshots(lake)
    anchor = snaps[1]
    feed_before = to_table(read_changes(lake, "docs", since_seq=anchor)) \
        .sort_by([("doc_id", "ascending")])

    optimize_table(lake, "docs", "n_tok", vacuum=False, row_group_rows=64)

    (ok, msg), feed_after = _patch_ok_local(lake, anchor)
    assert ok, f"unordered patch law across OPTIMIZE: {msg}"
    ok, msg = tables_equal(
        feed_after.sort_by([("doc_id", "ascending")]), feed_before,
        key="doc_id")
    assert ok, f"unordered feed changed across OPTIMIZE: {msg}"
    # predicate read on the unordered clustered base == exact filter
    full = read_table(lake, "docs")
    got = to_table(read_table_ds(lake, "docs",
                                 predicate=("n_tok", ">", 300)))
    want = full.filter(pc.greater(full["n_tok"], 300))
    ok, msg = tables_equal(got.sort_by([("doc_id", "ascending")]),
                           want.sort_by([("doc_id", "ascending")]),
                           key="doc_id")
    assert ok, msg


def _patch_ok_local(lake, anchor, table="docs"):
    before = read_table(lake, table, asof_seq=anchor)
    cur = read_table(lake, table)
    feed = to_table(read_changes(lake, table, since_seq=anchor))
    changed = set(feed["doc_id"].to_pylist())
    assert len(changed) == feed.num_rows, "duplicate keys in feed"
    ups = feed.filter(pc.equal(feed["change"], "UPSERT")) \
        .select(cur.column_names)
    keep = before.filter(pa.array(
        [d not in changed for d in before["doc_id"].to_pylist()]))
    patched = pa.concat_tables([keep, ups], promote_options="default")
    return tables_equal(patched, cur, key="doc_id"), feed


def test_multi_table_interleaved_ddl(ray_session, tmp_path):
    """Two tables with INTERLEAVED DDL in one stream (docs renames a
    column, then logs truncates, then docs widens a type): each table's
    state equals the oracle, each table's feed obeys the patch law over
    its own marker/schema history — logs' synthetic DELETEs don't leak
    into docs' feed and vice versa — and docs' feed/history arrive
    under the final (renamed, widened) schema."""
    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    write_event_log(log, n_docs=100, n_events=2000, seed=179,
                    segment_max_events=250, tables=("docs", "logs"),
                    ddl=[(600, "docs", "RENAME_COLUMN",
                          {"rename": ("source", "origin")}),
                         (1000, "logs", "TRUNCATE_TABLE", {}),
                         (1400, "docs", "ALTER_TABLE",
                          {"alter": ("n_tok", "int64")})])
    cfg = ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                       chunk_max_events=250, compact_every=3,
                       vacuum=False, manifest_every=2)
    replay(cfg)
    from deltaray import replay_oracle
    oracle = replay_oracle(cfg)
    for t in ("docs", "logs"):
        ok, msg = tables_equal(read_table(lake, t), oracle[t],
                               key="doc_id")
        assert ok, f"{t} vs oracle: {msg}"
    docs = read_table(lake, "docs")
    assert "origin" in docs.column_names and "source" not in docs.column_names
    assert docs.schema.field("n_tok").type == pa.int64()

    snaps = snapshots(lake)
    anchor = snaps[0]
    for t in ("docs", "logs"):
        # the as-of read serves the ANCHOR's schema (pre-rename,
        # pre-widening) by design; evolve it forward for the patch check
        before = read_table(lake, t, asof_seq=anchor)
        before = before.rename_columns(
            [{"source": "origin"}.get(c, c) if t == "docs" else c
             for c in before.column_names])
        cur = read_table(lake, t)
        before = before.select(cur.column_names).cast(cur.schema)
        feed = to_table(read_changes(lake, t, since_seq=anchor))
        keys = feed["doc_id"].to_pylist()
        assert len(set(keys)) == feed.num_rows
        assert all(k.startswith(t) for k in keys), \
            f"{t} feed leaked foreign keys"
        changed = set(keys)
        ups = feed.filter(pc.equal(feed["change"], "UPSERT")) \
            .select(cur.column_names)
        keep = before.filter(pa.array(
            [d not in changed for d in before["doc_id"].to_pylist()],
            pa.bool_()))
        ok, msg = tables_equal(
            pa.concat_tables([keep, ups], promote_options="default"),
            cur, key="doc_id")
        assert ok, f"{t} patch law: {msg}"
    # logs crossed its truncate: synthetic DELETEs present there ONLY
    logs_feed = to_table(read_changes(lake, "logs", since_seq=anchor))
    assert logs_feed.filter(
        pc.equal(logs_feed["change"], "DELETE")).num_rows > 0
    # docs history arrives under the final schema for evolved keys
    ids = sorted(docs["doc_id"].to_pylist())[:5]
    h = read_history(lake, "docs", ids)
    assert "origin" in h.column_names and h.num_rows >= len(ids)


def test_composite_key_lifecycle_across_truncate(ray_session, tmp_path):
    """The full CDC lifecycle on a COMPOSITE-key table crossing a
    TRUNCATE (every earlier marker probe used a single-column key):
    state == oracle, the feed's synthetic DELETEs name (k1, k2) tuples
    exactly (patch law, at-most-one-row-per-key-tuple), tuple point
    lookups agree with the scan for wiped and live keys, history chains
    stay lawful, and an incremental aggregate refresh across the marker
    equals the full recompute — with manifest rollup enabled so the
    composite path also runs over manifest-held commits."""
    import ray.data as rd

    from deltaray import replay_oracle
    from deltaray.schemas import TableSchema, ddl_payload, event_log_schema

    PAIRS = TableSchema(
        "pairs", ["k1", "k2"],
        [("k1", "string"), ("k2", "int64"), ("v", "int64")],
    )
    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    log_schema = event_log_schema(PAIRS)
    rng = np.random.default_rng(157)
    segments, seq = [], 1
    seg = [{"seq": 1, "op": "CREATE_TABLE", "table": "pairs",
            "ddl_payload": ddl_payload("CREATE_TABLE", schema=PAIRS),
            "is_snapshot": True}]
    for si in range(6):
        for _ in range(150):
            seq += 1
            op = ("INSERT", "UPDATE", "DELETE")[int(rng.integers(0, 3))]
            r = {"seq": seq, "op": op, "table": "pairs",
                 "k1": f"g{int(rng.integers(0, 6))}",
                 "k2": int(rng.integers(0, 25)), "is_snapshot": False}
            if op != "DELETE":
                r["v"] = int(rng.integers(0, 1000))
            seg.append(r)
        if si == 3:
            seq += 1
            seg.append({"seq": seq, "op": "TRUNCATE_TABLE",
                        "table": "pairs", "is_snapshot": False,
                        "ddl_payload": ddl_payload("TRUNCATE_TABLE")})
            trunc_seq = seq
        segments.append(seg)
        seg = []
    _write_segments(log, log_schema, segments)
    cfg = ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                       chunk_max_events=160, compact_every=3,
                       vacuum=False, manifest_every=2)
    replay(cfg)
    key = [("k1", "ascending"), ("k2", "ascending")]
    cur = read_table(lake, "pairs")
    ok, msg = tables_equal(cur, replay_oracle(cfg)["pairs"], key=key)
    assert ok, f"composite state vs oracle: {msg}"

    snaps = snapshots(lake)
    pre = [s for s in snaps if s <= trunc_seq]
    anchor = pre[0]
    before = read_table(lake, "pairs", asof_seq=anchor)
    feed = to_table(read_changes(lake, "pairs", since_seq=anchor))
    fk = list(zip(feed["k1"].to_pylist(), feed["k2"].to_pylist()))
    assert len(set(fk)) == feed.num_rows, "duplicate key tuples in feed"
    dels = feed.filter(pc.equal(feed["change"], "DELETE"))
    assert dels.num_rows > 0
    ups = feed.filter(pc.equal(feed["change"], "UPSERT")) \
        .select(cur.column_names)
    changed = set(fk)
    bk = list(zip(before["k1"].to_pylist(), before["k2"].to_pylist()))
    keep = before.filter(pa.array([t not in changed for t in bk]))
    patched = pa.concat_tables([keep, ups], promote_options="default")
    ok, msg = tables_equal(patched, cur, key=key)
    assert ok, f"composite patch law across truncate: {msg}"

    # tuple point lookups: wiped keys absent now, present as-of anchor
    cur_k = set(zip(cur["k1"].to_pylist(), cur["k2"].to_pylist()))
    wiped = sorted(set(bk) - cur_k)[:4]
    live = sorted(cur_k)[:4]
    probe = sorted(set(wiped + live))
    got = read_rows(lake, "pairs", probe)
    gk = set(zip(got["k1"].to_pylist(), got["k2"].to_pylist()))
    assert gk == set(live) & set(probe) | (cur_k & set(probe))
    assert not (gk & set(wiped)), "lookup resurrected truncated tuples"
    got_asof = read_rows(lake, "pairs", probe, asof_seq=pre[-1])
    ak = set(zip(got_asof["k1"].to_pylist(), got_asof["k2"].to_pylist()))
    assert set(wiped) <= ak

    # history: nothing predates the marker; is_current agrees per tuple
    h = read_history(lake, "pairs", probe)
    assert h.num_rows > 0
    assert pc.min(h["seq"]).as_py() > trunc_seq
    hk = set(zip(h.filter(h["is_current"])["k1"].to_pylist(),
                 h.filter(h["is_current"])["k2"].to_pylist()))
    assert hk == cur_k & set(probe)

    # incremental aggregate refresh across the marker == full recompute
    agg0 = build_aggregate(
        rd.from_arrow(read_table(lake, "pairs", asof_seq=anchor)),
        group_col="k1", sum_cols=["v"])
    agg1 = refresh_aggregate(lake, "pairs", agg0, since_seq=anchor,
                             group_col="k1", sum_cols=["v"])
    full = build_aggregate(rd.from_arrow(cur), group_col="k1",
                           sum_cols=["v"])
    ok, msg = tables_equal(agg1, full, key="k1")
    assert ok, f"composite refresh across truncate: {msg}"


def test_read_history_across_optimize(ray_session, tmp_path):
    """OPTIMIZE folds superseded versions into the clustered base, so
    history depth collapses to the live window (the documented
    granularity) — but what remains must stay lawful: one version per
    live key, seq preserved from the pre-OPTIMIZE latest version,
    is_current matching the live state, valid_to_seq null, and DELETE
    tombstones never reported current."""
    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    write_event_log(log, n_docs=80, n_events=1200, seed=131,
                    segment_max_events=200)
    replay(ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                        chunk_max_events=200, compact_every=100,
                        vacuum=False))
    keys = [f"docs-doc{i:08d}" for i in range(80)]
    before = read_history(lake, "docs", keys)
    latest = {}
    for r in before.to_pylist():
        if r["valid_to_seq"] is None:
            latest[r["doc_id"]] = (r["seq"], r["change"], r["is_current"])

    for vacuum in (False, True):
        optimize_table(lake, "docs", "n_tok", vacuum=vacuum,
                       row_group_rows=64)
        h = read_history(lake, "docs", keys)
        cur_keys = set(read_table(lake, "docs")["doc_id"].to_pylist())
        per_key = h.group_by("doc_id").aggregate([("seq", "count")])
        assert set(per_key["seq_count"].to_pylist()) == {1}, \
            "post-OPTIMIZE history must hold exactly the live version"
        for r in h.to_pylist():
            want_seq, want_change, want_cur = latest[r["doc_id"]]
            assert r["seq"] == want_seq, \
                f"OPTIMIZE changed {r['doc_id']}'s version seq"
            assert r["change"] == want_change
            assert r["valid_to_seq"] is None
            assert r["is_current"] == want_cur == (r["doc_id"] in cur_keys)
