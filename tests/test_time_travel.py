"""Snapshot / time-travel reads (`asof_seq`) and bounded CDC-out pulls.

Oracle strategy: the engine's state as of a committed chunk boundary S
must equal a fresh single-process replay of the event log TRUNCATED at
seq <= S (replay_oracle on a filtered copy of the segments) — chunking
cannot change final state, so the truncated oracle is exact.  The
bounded feed obeys the patch law asof(s1) + changes(s1→s2) == asof(s2).
"""

import glob
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from deltaray import (ReplayConfig, SnapshotExpiredError, earliest_snapshot,
                      read_changes, read_table, read_table_ds, replay,
                      replay_oracle, snapshots, tables_equal)
from deltaray.gen import write_event_log
from deltaray.util import to_table


def _truncated_oracle(event_log: str, tmp: str, S: int,
                      table: str = "docs") -> pa.Table:
    """replay_oracle over a copy of the log filtered to seq <= S."""
    d = os.path.join(tmp, f"trunc-{S}")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    kept = []
    for f in sorted(glob.glob(os.path.join(event_log, "*.parquet"))):
        t = pq.read_table(f)
        t = t.filter(pc.less_equal(t["seq"], S))
        if t.num_rows:
            kept.append(t)
    pq.write_table(pa.concat_tables(kept, promote_options="default"),
                   os.path.join(d, "events-00000.parquet"))
    cfg = ReplayConfig(event_log=d, lake=os.path.join(tmp, "unused"))
    return replay_oracle(cfg)[table]


def test_asof_matches_truncated_replay(ray_session, tmp_log, tmp_lake,
                                       tmp_path):
    write_event_log(tmp_log, n_docs=250, n_events=3000, seed=11,
                    segment_max_events=600)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=700, vacuum=False)
    replay(cfg)
    snaps = snapshots(tmp_lake)
    assert len(snaps) >= 3
    assert earliest_snapshot(tmp_lake, "docs") == snaps[0]
    # anchor 0 = empty lake
    assert read_table(tmp_lake, "docs", asof_seq=0).num_rows == 0
    for S in snaps:
        got = read_table(tmp_lake, "docs", asof_seq=S)
        want = _truncated_oracle(tmp_log, str(tmp_path), S)
        ok, msg = tables_equal(got, want)
        assert ok, f"asof {S}: {msg}"
    # the newest anchor is exactly the current state
    ok, msg = tables_equal(read_table(tmp_lake, "docs", asof_seq=snaps[-1]),
                           read_table(tmp_lake, "docs"))
    assert ok, msg
    # streaming variant agrees with the driver variant
    mid = snaps[len(snaps) // 2]
    ds_tbl = to_table(read_table_ds(tmp_lake, "docs", asof_seq=mid)) \
        .sort_by([("doc_id", "ascending")])
    ok, msg = tables_equal(ds_tbl, read_table(tmp_lake, "docs", asof_seq=mid))
    assert ok, msg
    # non-boundary seqs are rejected with the anchor list
    with pytest.raises(ValueError, match="snapshot boundary"):
        read_table(tmp_lake, "docs", asof_seq=snaps[0] + 1)


def _patch(base: pa.Table, changes: pa.Table, key: str = "doc_id") -> dict:
    state = {r[key]: r for r in base.to_pylist()}
    for r in sorted(changes.to_pylist(), key=lambda r: r["seq"]):
        if r["change"] == "DELETE":
            state.pop(r[key], None)
        else:
            state[r[key]] = {k: v for k, v in r.items()
                             if k not in ("change", "seq")}
    return state


def test_bounded_changes_patch_law(ray_session, tmp_log, tmp_lake):
    """asof(s1) + read_changes(s1, as_of=s2) == asof(s2), every
    consecutive anchor pair — the reproducible-incremental-pull
    contract, in both orderings."""
    for unordered in (False, True):
        log = tmp_log + ("-u" if unordered else "-o")
        lake = tmp_lake + ("-u" if unordered else "-o")
        write_event_log(log, n_docs=150, n_events=2400, seed=23,
                        segment_max_events=600, unordered=unordered)
        cfg = ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                           chunk_max_events=600, vacuum=False,
                           ordering="UN_ORDERED" if unordered else "ORDERED")
        replay(cfg)
        snaps = [0] + snapshots(lake)
        for s1, s2 in zip(snaps, snaps[1:]):
            base = read_table(lake, "docs", asof_seq=s1)
            ch = to_table(read_changes(lake, "docs", since_seq=s1,
                                       as_of_seq=s2))
            # bounded feed: at most one row per key, all seqs in window
            assert ch.num_rows == len(set(ch["doc_id"].to_pylist()))
            seqs = ch["seq"].to_pylist()
            assert all(s1 < s <= s2 for s in seqs)
            want = read_table(lake, "docs", asof_seq=s2)
            got = _patch(base, ch)
            wstate = {r["doc_id"]: r for r in want.to_pylist()}
            assert got == wstate, (s1, s2, unordered)
        # a bounded pull is reproducible: same window, same feed
        a = to_table(read_changes(lake, "docs", since_seq=snaps[1],
                                  as_of_seq=snaps[-1]))
        b = to_table(read_changes(lake, "docs", since_seq=snaps[1],
                                  as_of_seq=snaps[-1]))
        ok, msg = tables_equal(a.sort_by([("doc_id", "ascending")]),
                               b.sort_by([("doc_id", "ascending")]))
        assert ok, msg
        with pytest.raises(ValueError, match="precedes"):
            read_changes(lake, "docs", since_seq=snaps[-1],
                         as_of_seq=snaps[1])


def test_snapshot_expiry_under_vacuum(ray_session, tmp_log, tmp_lake):
    """With vacuum on, compaction deletes history: expired anchors raise
    SnapshotExpiredError, earliest_snapshot reports the oldest readable
    one, and everything from it onward still reads correctly."""
    write_event_log(tmp_log, n_docs=200, n_events=2400, seed=31,
                    segment_max_events=400)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=400, vacuum=True, compact_every=2)
    replay(cfg)
    snaps = snapshots(tmp_lake)
    es = earliest_snapshot(tmp_lake, "docs")
    assert es in snaps
    for S in snaps:
        if S < es:
            with pytest.raises(SnapshotExpiredError):
                read_table(tmp_lake, "docs", asof_seq=S)
        else:
            assert read_table(tmp_lake, "docs", asof_seq=S).num_rows > 0
    ok, msg = tables_equal(read_table(tmp_lake, "docs", asof_seq=snaps[-1]),
                           read_table(tmp_lake, "docs"))
    assert ok, msg


def test_asof_respects_schema_evolution(ray_session, tmp_log, tmp_lake,
                                        tmp_path):
    """A snapshot taken before a RENAME_COLUMN comes back under the OLD
    column name (the schema effective at that seq), after it under the
    new one; values agree with the truncated-replay oracle either way."""
    write_event_log(tmp_log, n_docs=120, n_events=2000, seed=5,
                    segment_max_events=500,
                    ddl=[(1200, "docs", "RENAME_COLUMN",
                          {"rename": ("tokens", "toks")})])
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=500, vacuum=False)
    replay(cfg)
    from deltaray.commit import LakeState

    # chunks split AT DDL events, so the rename's actual seq sits just
    # past a chunk boundary — split anchors around the recorded seq
    ddl_seq = LakeState(tmp_lake).schemas_for("docs")[-1].version_seq
    snaps = snapshots(tmp_lake)
    pre = [s for s in snaps if s < ddl_seq]
    post = [s for s in snaps if s > ddl_seq]
    assert pre and post
    early = read_table(tmp_lake, "docs", asof_seq=pre[-1])
    assert "tokens" in early.column_names
    assert "toks" not in early.column_names
    late = read_table(tmp_lake, "docs", asof_seq=post[0])
    assert "toks" in late.column_names
    ok, msg = tables_equal(early,
                           _truncated_oracle(tmp_log, str(tmp_path), pre[-1]))
    assert ok, msg
    ok, msg = tables_equal(late,
                           _truncated_oracle(tmp_log, str(tmp_path), post[0]))
    assert ok, msg


def test_read_rows_point_lookups(ray_session, tmp_log, tmp_lake):
    """read_rows == filtering the full table, for present, absent and
    deleted keys; columns prune; asof_seq composes; only the keys'
    hash partitions are touched."""
    from deltaray import read_rows

    write_event_log(tmp_log, n_docs=300, n_events=3000, seed=17,
                    segment_max_events=1000)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=8,
                        chunk_max_events=1000, vacuum=False))
    full = read_table(tmp_lake, "docs")
    ids = full["doc_id"].to_pylist()
    pick = ids[:3] + ids[-2:] + ["absent-a", "absent-b"]
    got = read_rows(tmp_lake, "docs", pick)
    want = full.filter(pc.is_in(full["doc_id"], value_set=pa.array(pick))) \
        .sort_by([("doc_id", "ascending")])
    assert got.to_pylist() == want.to_pylist()
    assert got.num_rows == 5
    # column pruning keeps the key + requested columns only
    slim = read_rows(tmp_lake, "docs", pick[:2], columns=["n_tok"])
    assert slim.column_names == ["doc_id", "n_tok"]
    assert slim.num_rows == 2
    # time-travel lookup: a key's historic value, not its current one
    S = snapshots(tmp_lake)[0]
    old = read_table(tmp_lake, "docs", asof_seq=S)
    oid = old["doc_id"][0].as_py()
    hist = read_rows(tmp_lake, "docs", [oid], asof_seq=S)
    assert hist.num_rows == 1
    assert hist["tokens"][0].as_py() == old["tokens"][0].as_py()
    # empty key list → typed empty result
    empty = read_rows(tmp_lake, "docs", [])
    assert empty.num_rows == 0 and "doc_id" in empty.column_names
    # anchor before the table's creation → typed empty, like read_table
    pre = read_rows(tmp_lake, "docs", [oid], asof_seq=0)
    assert pre.num_rows == 0 and "doc_id" in pre.column_names
    # arity guard
    with pytest.raises(ValueError, match="arity"):
        read_rows(tmp_lake, "docs", [("a", 1)])


def test_point_lookup_lists_each_partition_once(ray_session, tmp_log,
                                                tmp_lake, monkeypatch):
    """The as-of gate and read_partition share listings instead of
    re-listing: a point lookup lists each routed partition's commits
    once, at head and as of an anchor (the gate's live list is the
    read's), and an as-of read_table lists each partition once."""
    from collections import Counter

    from deltaray import read_rows
    from deltaray.commit import LakeState

    write_event_log(tmp_log, n_docs=80, n_events=900, seed=19,
                    segment_max_events=300)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                        chunk_max_events=300, vacuum=False))
    keys = read_table(tmp_lake, "docs")["doc_id"].to_pylist()[:10]
    calls = []
    raw = LakeState._list_commits_raw

    def spy(self, table, part):
        calls.append(part)
        return raw(self, table, part)

    monkeypatch.setattr(LakeState, "_list_commits_raw", spy)
    assert read_rows(tmp_lake, "docs", keys).num_rows == len(keys)
    assert calls and max(Counter(calls).values()) == 1, Counter(calls)
    calls.clear()
    read_rows(tmp_lake, "docs", keys, asof_seq=snapshots(tmp_lake)[-2])
    assert calls and max(Counter(calls).values()) == 1, Counter(calls)
    # an as-of table read hands each gate-checked list to its read too
    calls.clear()
    read_table(tmp_lake, "docs", asof_seq=snapshots(tmp_lake)[-2])
    assert Counter(calls) == {p: 1 for p in range(4)}, Counter(calls)


def test_read_rows_composite_keys(ray_session, tmp_log, tmp_lake):
    from deltaray import read_rows
    from tests.test_composite_keys import PAIRS, _write_composite_log

    _write_composite_log(tmp_log)
    # PAIRS schema arrives via CREATE_TABLE in the log
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4))
    full = read_table(tmp_lake, "pairs")
    rows = full.to_pylist()
    pick = [(r["k1"], r["k2"]) for r in rows[:4]] + [("g0", 9999)]
    got = read_rows(tmp_lake, "pairs", pick)
    want = sorted([r for r in rows if (r["k1"], r["k2"]) in set(pick)],
                  key=lambda r: (r["k1"], r["k2"]))
    assert got.to_pylist() == want


def test_reshard_generation(ray_session, tmp_path):
    """Re-partition into a new generation: state equality, prefix chunks
    skipped (not re-applied), tail replay lands on the resharded state,
    and the final table matches the full-log oracle — in both orderings
    (UN_ORDERED exercises preserved src_ts/sort-key versions)."""
    from deltaray import read_rows, reshard_generation
    from deltaray.commit import LakeState

    for unordered in (False, True):
        tag = "u" if unordered else "o"
        log = str(tmp_path / f"events-{tag}")
        prefix = str(tmp_path / f"prefix-{tag}")
        lake = str(tmp_path / f"lake-{tag}")
        write_event_log(log, n_docs=250, n_events=4000, seed=29,
                        segment_max_events=800, unordered=unordered)
        os.makedirs(prefix)
        segs = sorted(glob.glob(os.path.join(log, "*.parquet")))
        for f in segs[:3]:
            shutil.copy(f, os.path.join(prefix, os.path.basename(f)))
        ordering = "UN_ORDERED" if unordered else "ORDERED"
        replay(ReplayConfig(event_log=prefix, lake=lake, num_partitions=4,
                            chunk_max_events=800, ordering=ordering))
        res = reshard_generation(lake, 7)
        assert res["generation"] == 1
        assert res["tables"]["docs"]["partitions"] == 7
        # state carried over exactly (tombstones don't resurrect later)
        ok, msg = tables_equal(read_table(lake, "docs", generation=1),
                               read_table(lake, "docs", generation=0))
        assert ok, msg
        # meta pins the new partition count; old generation untouched
        import json as _json
        with open(os.path.join(LakeState(lake, 1).root, "_meta.json")) as f:
            assert _json.load(f)["num_partitions"] == 7
        # tail the FULL log into the new generation: copied chunk markers
        # must skip the prefix — applied events ≈ tail only
        cfg1 = ReplayConfig(event_log=log, lake=lake, num_partitions=7,
                            chunk_max_events=800, generation=1,
                            ordering=ordering)
        ran: list[tuple] = []
        replay(cfg1, on_chunk=lambda i, c, rows: ran.append(
            (c.seq_lo, c.seq_hi)))
        # prefix covered seqs <= 2400 via 3 copied chunk markers — only
        # tail chunks may actually run
        assert all(lo >= 2400 for lo, hi in ran), \
            f"prefix chunks re-ran: {ran}"
        assert ran, "no tail chunk ran"
        want = replay_oracle(cfg1)["docs"]
        ok, msg = tables_equal(read_table(lake, "docs", generation=1), want)
        assert ok, f"[{tag}] {msg}"
        # point lookups route with the new partition count
        ids = want["doc_id"].to_pylist()[:3]
        assert read_rows(lake, "docs", ids, generation=1).num_rows == 3
        # replaying with the OLD partition count against gen1 fails fast
        with pytest.raises(ValueError, match="generation config mismatch"):
            replay(ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                                chunk_max_events=800, generation=1,
                                ordering=ordering))


def test_reshard_generation_multi_table(ray_session, tmp_path):
    """Resharding migrates EVERY table: two-table lake, prefix replay,
    reshard 4→6, tail the full log — both tables equal the full-log
    oracle in the new generation."""
    from deltaray import reshard_generation

    log = str(tmp_path / "events")
    prefix = str(tmp_path / "prefix")
    lake = str(tmp_path / "lake")
    write_event_log(log, n_docs=150, n_events=2400, seed=41,
                    segment_max_events=600, tables=("docs", "logs"))
    os.makedirs(prefix)
    for f in sorted(glob.glob(os.path.join(log, "*.parquet")))[:2]:
        shutil.copy(f, os.path.join(prefix, os.path.basename(f)))
    replay(ReplayConfig(event_log=prefix, lake=lake, num_partitions=4,
                        chunk_max_events=600))
    res = reshard_generation(lake, 6)
    assert set(res["tables"]) == {"docs", "logs"}
    for t in ("docs", "logs"):
        assert res["tables"][t]["partitions"] >= 1
        ok, msg = tables_equal(read_table(lake, t, generation=1),
                               read_table(lake, t, generation=0),
                               key=read_table(lake, t).column_names[0])
        assert ok, f"{t}: {msg}"
    cfg1 = ReplayConfig(event_log=log, lake=lake, num_partitions=6,
                        chunk_max_events=600, generation=1)
    replay(cfg1)
    oracle = replay_oracle(cfg1)
    for t in ("docs", "logs"):
        got = read_table(lake, t, generation=1)
        ok, msg = tables_equal(got, oracle[t],
                               key=oracle[t].column_names[0])
        assert ok, f"{t}: {msg}"


def test_ordered_feed_prunes_pre_anchor_files(ray_session, tmp_log,
                                              tmp_lake):
    """ORDERED lakes: read_changes(since) must not even OPEN live files
    wholly at or below the anchor (version == seq, so they cannot hold
    a changed key's winning row).  Proof: hide the base file below the
    anchor — the feed still streams, while a full-state read fails."""
    write_event_log(tmp_log, n_docs=120, n_events=1800, seed=19,
                    segment_max_events=600)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake,
                        num_partitions=2, chunk_max_events=600,
                        vacuum=False, compact_every=100))
    snaps = snapshots(tmp_lake)
    since = snaps[-2]
    want = to_table(read_changes(tmp_lake, "docs", since)) \
        .sort_by([("doc_id", "ascending")])
    from deltaray.commit import LakeState

    lake = LakeState(tmp_lake)
    hidden = []
    for p in (0, 1):
        for c in lake.live_commits("docs", p):
            if c["seq_hi"] <= since:
                f = os.path.join(lake.part_dir("docs", p), c["file"])
                os.rename(f, f + ".hidden")
                hidden.append(f)
    assert hidden, "test needs pre-anchor live files"
    got = to_table(read_changes(tmp_lake, "docs", since)) \
        .sort_by([("doc_id", "ascending")])
    ok, msg = tables_equal(got, want)
    assert ok, msg
    # the full-state read DOES need those files
    with pytest.raises(Exception):
        read_table(tmp_lake, "docs")
    for f in hidden:
        os.rename(f + ".hidden", f)
    assert read_table(tmp_lake, "docs").num_rows > 0


def test_reshard_floor_blocks_precopy_anchors(ray_session, tmp_path):
    """Anchors predating the reshard raise SnapshotExpiredError in the
    new generation (the state was never copied) instead of silently
    reading empty; the floor anchor itself reads the migrated state,
    anchor 0 stays valid, and earliest_snapshot reports the floor."""
    from deltaray import reshard_generation

    log, lake = str(tmp_path / "ev"), str(tmp_path / "lake")
    write_event_log(log, n_docs=150, n_events=2400, seed=3,
                    segment_max_events=600)
    replay(ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                        chunk_max_events=600, vacuum=False))
    snaps = snapshots(lake)
    res = reshard_generation(lake, 5)
    g = res["generation"]
    floor = res["tables"]["docs"]["snapshot_seq"]
    assert floor == snaps[-1]
    # pre-floor anchors: expired, not empty
    for S in [s for s in snaps if s < floor]:
        with pytest.raises(SnapshotExpiredError, match="floor"):
            read_table(lake, "docs", generation=g, asof_seq=S)
        with pytest.raises(SnapshotExpiredError, match="floor"):
            read_table_ds(lake, "docs", generation=g, asof_seq=S)
        with pytest.raises(SnapshotExpiredError, match="floor"):
            read_changes(lake, "docs", since_seq=0, generation=g,
                         as_of_seq=S)
    # the floor anchor IS readable and equals the migrated state
    ok, msg = tables_equal(
        read_table(lake, "docs", generation=g, asof_seq=floor),
        read_table(lake, "docs", generation=0))
    assert ok, msg
    assert read_table(lake, "docs", generation=g, asof_seq=0).num_rows == 0
    assert earliest_snapshot(lake, "docs", generation=g) == floor


def test_reshard_excludes_post_watermark_rows(ray_session, tmp_path):
    """A non-quiesced source lake (one partition committed past the
    global watermark) must NOT leak post-watermark rows into the
    (0, wm] base: the new generation's floor state equals the source's
    as-of-watermark state."""
    from deltaray import reshard_generation
    from deltaray.commit import LakeState

    log, lake = str(tmp_path / "ev"), str(tmp_path / "lake")
    write_event_log(log, n_docs=120, n_events=1800, seed=13,
                    segment_max_events=600)
    replay(ReplayConfig(event_log=log, lake=lake, num_partitions=3,
                        chunk_max_events=600, vacuum=False))
    src = LakeState(lake)
    wm = snapshots(lake)[-1]
    # fabricate a partition that ran ahead: bump one live row's version
    # past the watermark and commit it as an un-markered delta
    tbl, _ = src.read_partition("docs", 0)
    live_rows = tbl.filter(pc.invert(pc.fill_null(tbl["__deleted"],
                                                  False)))
    row = live_rows.slice(0, 1)
    seq_ix = row.column_names.index("__seq")
    row = row.set_column(seq_ix, "__seq",
                         pa.array([wm + 50], row["__seq"].type))
    ahead_key = row["doc_id"][0].as_py()
    src.try_commit("docs", 0, wm, wm + 50, row,
                   {"inserts": 0, "updates": 1, "deletes": 0,
                    "bytes_in": 0, "late_events": 0}, kind="delta")
    res = reshard_generation(lake, 5)
    g = res["generation"]
    assert res["tables"]["docs"]["snapshot_seq"] == wm
    got = read_table(lake, "docs", generation=g, asof_seq=wm)
    want = read_table(lake, "docs", generation=0, asof_seq=wm)
    ok, msg = tables_equal(got, want)
    assert ok, msg
    seqs = {r["doc_id"]: r for r in got.to_pylist()}
    assert ahead_key in seqs  # the key's PRE-watermark version survived


def test_watermark_is_marker_based(ray_session, tmp_log, tmp_lake):
    """committed_watermark anchors on chunk markers, not min-over-
    lineage: partitions that never produced a lineage record (or whose
    record vanished) cannot drag or overshoot the anchor."""
    import glob as _glob

    from deltaray import committed_watermark
    from deltaray.commit import LakeState

    write_event_log(tmp_log, n_docs=5, n_events=60, seed=2)
    # 8 partitions over 5 docs: several partitions never see a row and
    # write no lineage record
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake,
                        num_partitions=8, chunk_max_events=30))
    snaps = snapshots(tmp_lake)
    assert committed_watermark(tmp_lake, "docs") == snaps[-1]
    # even with every lineage record gone the marker cut stands
    lake = LakeState(tmp_lake)
    for f in _glob.glob(os.path.join(lake.root, "_lineage", "docs",
                                     "part=*.json")):
        os.remove(f)
    assert committed_watermark(tmp_lake, "docs") == snaps[-1]


def test_read_changes_across_truncate(ray_session, tmp_path):
    """A TRUNCATE marker wipes keys without per-key tombstones; the feed
    must synthesize DELETE rows for keys live at the anchor that the
    marker hid and nothing re-inserted — in both orderings, for
    unbounded and bounded windows, preserving at-most-one-row-per-key
    and the patch law.  A window that ends BEFORE the marker gets no
    synthetic deletes; after expiry removes the anchor state the feed
    raises instead of silently dropping them."""
    from deltaray import expire_snapshots

    def patch_ok(lake, anchor, as_of=None):
        before = read_table(lake, "docs", asof_seq=anchor)
        cur = read_table(lake, "docs", asof_seq=as_of) if as_of \
            else read_table(lake, "docs")
        feed = to_table(read_changes(lake, "docs", since_seq=anchor,
                                     as_of_seq=as_of))
        changed = set(feed["doc_id"].to_pylist())
        assert len(changed) == feed.num_rows, "duplicate keys in feed"
        ups = feed.filter(pc.equal(feed["change"], "UPSERT")) \
            .select(cur.column_names)
        keep = before.filter(pa.array(
            [d not in changed for d in before["doc_id"].to_pylist()]))
        patched = pa.concat_tables([keep, ups], promote_options="default")
        return tables_equal(patched, cur, key="doc_id"), feed

    for unordered in (False, True):
        tag = "u" if unordered else "o"
        log = str(tmp_path / f"events-{tag}")
        lake = str(tmp_path / f"lake-{tag}")
        write_event_log(log, n_docs=120, n_events=2000, seed=67,
                        segment_max_events=250, unordered=unordered,
                        ddl=[(900, "docs", "TRUNCATE_TABLE", {})])
        replay(ReplayConfig(
            event_log=log, lake=lake, num_partitions=4,
            chunk_max_events=250, compact_every=3, vacuum=False,
            ordering="UN_ORDERED" if unordered else "ORDERED"))
        snaps = snapshots(lake)
        trunc_seq = 120 + 900 + 1
        pre = [s for s in snaps if s <= trunc_seq]

        (ok, msg), feed = patch_ok(lake, pre[0])
        assert ok, f"[{tag}] unbounded: {msg}"
        assert feed.filter(pc.equal(feed["change"], "DELETE")).num_rows > 0
        # bounded window ending before the marker: no synthetic deletes
        (ok, msg), feed_pre = patch_ok(lake, pre[0], as_of=pre[-1])
        assert ok, f"[{tag}] pre-truncate window: {msg}"
        # bounded window crossing the marker
        (ok, msg), _ = patch_ok(lake, pre[0], as_of=snaps[-2])
        assert ok, f"[{tag}] crossing window: {msg}"

        # retention: expiring the anchor state makes the feed raise
        want_floor = read_table(lake, "docs", asof_seq=snaps[-2])
        expire_snapshots(lake, "docs", snaps[-2])
        with pytest.raises(SnapshotExpiredError):
            to_table(read_changes(lake, "docs", since_seq=pre[0]))
        # post-floor anchor (marker outside the window): full patch law
        cur = read_table(lake, "docs")
        feed_f = to_table(read_changes(lake, "docs", since_seq=snaps[-2]))
        ch_f = set(feed_f["doc_id"].to_pylist())
        ups_f = feed_f.filter(pc.equal(feed_f["change"], "UPSERT")) \
            .select(cur.column_names)
        keep_f = want_floor.filter(pa.array(
            [d not in ch_f for d in want_floor["doc_id"].to_pylist()]))
        patched_f = pa.concat_tables([keep_f, ups_f],
                                     promote_options="default")
        ok, msg = tables_equal(patched_f, cur, key="doc_id")
        assert ok, f"[{tag}] post-floor patch law: {msg}"


def test_refresh_aggregate_across_truncate(ray_session, tmp_path):
    """Incremental aggregate maintenance across a TRUNCATE equals the
    full recompute (the synthetic DELETEs retire the wiped keys'
    contributions)."""
    import ray.data as rd

    from deltaray.pipeline import build_aggregate, refresh_aggregate

    log, lake = str(tmp_path / "events"), str(tmp_path / "lake")
    write_event_log(log, n_docs=120, n_events=2000, seed=67,
                    segment_max_events=250,
                    ddl=[(900, "docs", "TRUNCATE_TABLE", {})])
    replay(ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                        chunk_max_events=250, compact_every=3,
                        vacuum=False))
    anchor = snapshots(lake)[0]
    agg0 = build_aggregate(
        rd.from_arrow(read_table(lake, "docs", asof_seq=anchor)),
        group_col="source", sum_cols=["n_tok"])
    agg1 = refresh_aggregate(lake, "docs", agg0, since_seq=anchor,
                             group_col="source", sum_cols=["n_tok"])
    full = build_aggregate(rd.from_arrow(read_table(lake, "docs")),
                           group_col="source", sum_cols=["n_tok"])
    ok, msg = tables_equal(agg1, full, key="source")
    assert ok, msg


def test_read_changes_across_drop(ray_session, tmp_path):
    """DROP_TABLE inside the feed window: the dropped table reads as
    empty, so the feed must retire every key live at the anchor —
    whether or not the table is later re-created (the drop's
    truncate-style marker drives the synthetic DELETEs)."""

    # drop as the final event: all anchor keys become DELETEs
    log, lake = str(tmp_path / "ev-a"), str(tmp_path / "lk-a")
    write_event_log(log, n_docs=100, n_events=1200, seed=71,
                    segment_max_events=200,
                    ddl=[(800, "docs", "DROP_TABLE", {})])
    replay(ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                        chunk_max_events=200, vacuum=False))
    anchor = snapshots(lake)[0]
    before = read_table(lake, "docs", asof_seq=anchor)
    assert read_table(lake, "docs").num_rows == 0
    feed = to_table(read_changes(lake, "docs", since_seq=anchor))
    assert feed.num_rows == before.num_rows
    assert set(feed["change"].to_pylist()) == {"DELETE"}
    assert set(feed["doc_id"].to_pylist()) == set(
        before["doc_id"].to_pylist())

    # drop + re-create: patch law against the new incarnation
    log, lake = str(tmp_path / "ev-b"), str(tmp_path / "lk-b")
    write_event_log(log, n_docs=100, n_events=1600, seed=73,
                    segment_max_events=200,
                    ddl=[(700, "docs", "DROP_TABLE", {}),
                         (701, "docs", "CREATE_TABLE", {})])
    replay(ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                        chunk_max_events=200, vacuum=False))
    anchor = snapshots(lake)[0]
    before = read_table(lake, "docs", asof_seq=anchor)
    cur = read_table(lake, "docs")
    feed = to_table(read_changes(lake, "docs", since_seq=anchor))
    changed = set(feed["doc_id"].to_pylist())
    assert len(changed) == feed.num_rows
    ups = feed.filter(pc.equal(feed["change"], "UPSERT")) \
        .select(cur.column_names)
    keep = before.filter(pa.array(
        [d not in changed for d in before["doc_id"].to_pylist()]))
    patched = pa.concat_tables([keep, ups], promote_options="default")
    ok, msg = tables_equal(patched, cur, key="doc_id")
    assert ok, msg


def test_bootstrap_boundary_is_snapshot_anchor(ray_session, tmp_path):
    """bootstrap_table records its (0, snapshot_seq] commit as a chunk
    anchor: snapshots() lists it, time travel reproduces the exact
    bootstrap state, bounded and unbounded feeds anchor at it (patch
    law), expire_snapshots can retire it, and a tail replay stays
    idempotent."""
    import numpy as np
    import ray.data as rd

    from deltaray import expire_snapshots, read_changes
    from deltaray.gen import gen_base
    from deltaray.pipeline import bootstrap_table
    from deltaray.schemas import default_table_schema, event_log_schema

    log, lake = str(tmp_path / "events"), str(tmp_path / "lake")
    schema = default_table_schema()
    snap = gen_base(150, seed=31)
    rng = np.random.default_rng(37)
    log_schema = event_log_schema(schema)
    rows, seq = [], 2
    for i in range(600):
        op = ("INSERT", "UPDATE", "DELETE")[int(rng.integers(0, 3))]
        doc = f"docs-doc{1000 + i:08d}" if op == "INSERT" \
            else f"docs-doc{int(rng.integers(0, 150)):08d}"
        r = {"seq": seq, "op": op, "table": "docs", "doc_id": doc,
             "is_snapshot": False}
        if op != "DELETE":
            r.update(tokens=[int(x) for x in rng.integers(0, 100, 5)],
                     n_tok=5, source=str(rng.choice(["web", "code"])))
        rows.append(r)
        seq += 1
    os.makedirs(log)
    half = len(rows) // 2
    for si, chunk_rows in enumerate([rows[:half], rows[half:]]):
        cols = {f.name: [r.get(f.name) for r in chunk_rows]
                for f in log_schema}
        pq.write_table(
            pa.table(cols, schema=log_schema),
            f"{log}/events-{si:05d}-{chunk_rows[0]['seq']:012d}-"
            f"{chunk_rows[-1]['seq']:012d}.parquet")
    cfg = ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                       chunk_max_events=150, compact_every=3,
                       vacuum=False)
    bootstrap_table(cfg, schema, rd.from_arrow(snap), snapshot_seq=1)
    t0 = read_table(lake, "docs")
    replay(cfg)
    snaps = snapshots(lake)
    assert snaps[0] == 1 and earliest_snapshot(lake, "docs") == 1
    tb = read_table(lake, "docs", asof_seq=1)
    ok, msg = tables_equal(tb, t0, key="doc_id")
    assert ok, msg
    cur = read_table(lake, "docs")
    feed = to_table(read_changes(lake, "docs", since_seq=1))
    changed = set(feed["doc_id"].to_pylist())
    ups = feed.filter(pc.equal(feed["change"], "UPSERT")) \
        .select(cur.column_names)
    keep = tb.filter(pa.array(
        [d not in changed for d in tb["doc_id"].to_pylist()]))
    patched = pa.concat_tables([keep, ups], promote_options="default")
    ok, msg = tables_equal(patched, cur, key="doc_id")
    assert ok, msg
    assert to_table(read_changes(lake, "docs", since_seq=1,
                                 as_of_seq=snaps[1])).num_rows > 0
    expire_snapshots(lake, "docs", snaps[-1])
    with pytest.raises(SnapshotExpiredError):
        read_table(lake, "docs", asof_seq=1)
    assert replay(cfg)["lineage_total"] == 0
