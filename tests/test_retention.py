"""Bounded time-travel retention (`expire_snapshots`) — the middle
ground between vacuum=True (no history) and vacuum=False (all history).

Oracle strategy: capture every anchor's exact state BEFORE expiry (the
truncated-replay law is pinned by test_time_travel); after expiring at a
mid anchor R, every anchor >= R must read byte-identically to its
pre-expiry capture, every anchor < R must raise SnapshotExpiredError via
the clean floor gate (not a missing-file scan), and storage must shrink.
"""

import glob
import os

import pyarrow as pa
import pytest

from deltaray import (ReplayConfig, SnapshotExpiredError, earliest_snapshot,
                      expire_snapshots, read_changes, read_table, replay,
                      replay_oracle, snapshots, tables_equal)
from deltaray.gen import write_event_log
from deltaray.util import to_table


def _data_files(lake: str, table: str = "docs") -> list[str]:
    return sorted(glob.glob(os.path.join(
        lake, "gen=0000", table, "part=*", "data-*.parquet")))


def test_expire_snapshots_retention_window(ray_session, tmp_log, tmp_lake):
    write_event_log(tmp_log, n_docs=220, n_events=2800, seed=41,
                    segment_max_events=600)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=500, vacuum=False, compact_every=2)
    replay(cfg)
    snaps = snapshots(tmp_lake)
    assert len(snaps) >= 5
    before = {s: read_table(tmp_lake, "docs", asof_seq=s) for s in snaps}
    current = read_table(tmp_lake, "docs")
    files_before = _data_files(tmp_lake)
    bytes_before = sum(os.path.getsize(f) for f in files_before)

    R = snaps[len(snaps) // 2]
    res = expire_snapshots(tmp_lake, "docs", retain_since_seq=R)
    assert res["table"] == "docs" and res["retain_since_seq"] == R
    assert res["files_removed"] > 0 and res["bytes_removed"] > 0
    assert res["snapshot_floor"] == R

    files_after = _data_files(tmp_lake)
    assert len(files_after) == len(files_before) - res["files_removed"]
    assert (bytes_before - sum(os.path.getsize(f) for f in files_after)
            == res["bytes_removed"])

    # every retained anchor reads byte-identically to its pre-expiry state
    for s in snaps:
        if s >= R:
            ok, msg = tables_equal(
                read_table(tmp_lake, "docs", asof_seq=s), before[s])
            assert ok, f"retained anchor {s}: {msg}"
        else:
            with pytest.raises(SnapshotExpiredError, match="snapshot floor"):
                read_table(tmp_lake, "docs", asof_seq=s)
    # current state untouched; anchor 0 (empty) stays valid
    ok, msg = tables_equal(read_table(tmp_lake, "docs"), current)
    assert ok, msg
    assert read_table(tmp_lake, "docs", asof_seq=0).num_rows == 0
    assert earliest_snapshot(tmp_lake, "docs") == R

    # idempotent: a second expiry at the same anchor removes nothing
    res2 = expire_snapshots(tmp_lake, "docs", retain_since_seq=R)
    assert res2["files_removed"] == 0 and res2["bytes_removed"] == 0

    # CDC-out: bounded pulls anchored below the floor raise cleanly;
    # pulls inside the retained window still obey the patch law
    if snaps.index(R) + 1 < len(snaps):
        s2 = snaps[snaps.index(R) + 1]
        with pytest.raises(SnapshotExpiredError, match="snapshot floor"):
            to_table(read_changes(tmp_lake, "docs", since_seq=0,
                                  as_of_seq=snaps[0]))
        ch = to_table(read_changes(tmp_lake, "docs", since_seq=R,
                                   as_of_seq=s2))
        state = {r["doc_id"]: r for r in before[R].to_pylist()}
        for r in sorted(ch.to_pylist(), key=lambda r: r["seq"]):
            if r["change"] == "DELETE":
                state.pop(r["doc_id"], None)
            else:
                state[r["doc_id"]] = {k: v for k, v in r.items()
                                      if k not in ("change", "seq")}
        want = {r["doc_id"]: r for r in before[s2].to_pylist()}
        assert state == want

    # the floor only advances — expiring at an older anchor is a no-op
    res3 = expire_snapshots(tmp_lake, "docs", retain_since_seq=snaps[0])
    assert res3["files_removed"] == 0
    assert res3["snapshot_floor"] == R


def test_expire_retain_latest_keeps_only_live_state(ray_session, tmp_log,
                                                    tmp_lake):
    """Retain = newest anchor degenerates to vacuum semantics: only the
    files composing the current state survive, and the current read is
    unchanged."""
    write_event_log(tmp_log, n_docs=150, n_events=1800, seed=47,
                    segment_max_events=600)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=450, vacuum=False, compact_every=2)
    replay(cfg)
    snaps = snapshots(tmp_lake)
    current = read_table(tmp_lake, "docs")
    expire_snapshots(tmp_lake, "docs", retain_since_seq=snaps[-1])
    from deltaray.commit import LakeState

    lake = LakeState(tmp_lake, 0)
    for d in glob.glob(os.path.join(lake.table_dir("docs"), "part=*")):
        p = int(os.path.basename(d).split("=")[1])
        live = {c["file"] for c in lake.live_commits("docs", p)}
        on_disk = {f for f in os.listdir(d) if f.endswith(".parquet")}
        assert on_disk == live, f"part {p}: {on_disk ^ live}"
    ok, msg = tables_equal(read_table(tmp_lake, "docs"), current)
    assert ok, msg
    assert earliest_snapshot(tmp_lake, "docs") == snaps[-1]


def test_expire_validates_inputs(ray_session, tmp_log, tmp_lake,
                                 monkeypatch):
    write_event_log(tmp_log, n_docs=60, n_events=600, seed=53,
                    segment_max_events=600)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=2,
                        chunk_max_events=300, vacuum=False, compact_every=2))
    snaps = snapshots(tmp_lake)
    with pytest.raises(ValueError, match="snapshot boundary"):
        expire_snapshots(tmp_lake, "docs", retain_since_seq=snaps[0] + 1)
    with pytest.raises(KeyError, match="unknown table"):
        expire_snapshots(tmp_lake, "nope", retain_since_seq=snaps[0])
    # retain 0 = keep everything (explicit no-op)
    res = expire_snapshots(tmp_lake, "docs", retain_since_seq=0)
    assert res["files_removed"] == 0 and res["snapshot_floor"] == 0
    # the Ray-task path (forced: any partition count fans out) is
    # identical to the driver path
    import deltaray.pipeline as pl

    monkeypatch.setattr(pl, "_EXPIRE_FANOUT_PARTS", 0)
    r_dist = expire_snapshots(tmp_lake, "docs", retain_since_seq=snaps[-1])
    assert r_dist["files_removed"] > 0
    assert earliest_snapshot(tmp_lake, "docs") == snaps[-1]
    want = replay_oracle(
        ReplayConfig(event_log=tmp_log, lake=tmp_lake))["docs"]
    ok, msg = tables_equal(read_table(tmp_lake, "docs"), want)
    assert ok, msg


def test_expire_never_deletes_in_flight_files(ray_session, tmp_log,
                                              tmp_lake):
    """The concurrent-merge race guard: merges write their data file
    BEFORE the commit record, so a file can exist with no commit row.
    Expiry must key off the filename-embedded seq — an uncommitted file
    above the retained barrier survives; unreachable garbage at or
    below it is reclaimed; unparseable names are never touched."""
    from deltaray.commit import _seq12

    write_event_log(tmp_log, n_docs=80, n_events=1000, seed=73,
                    segment_max_events=300)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=2,
                        chunk_max_events=300, vacuum=False, compact_every=2))
    snaps = snapshots(tmp_lake)
    R = snaps[-1]
    pdir = os.path.join(tmp_lake, "gen=0000", "docs", "part=00000")
    in_flight = os.path.join(pdir, f"data-{_seq12(R + 500)}.parquet")
    # a 13-digit seq (past the 12-digit zero-pad) must parse in FULL —
    # a fixed 12-char slice would halve it below R and delete it
    wide = os.path.join(pdir, f"data-{10**12 + 7}.parquet")
    garbage = os.path.join(pdir, f"data-{_seq12(1)}-zzz.parquet")
    weird = os.path.join(pdir, "data-notaseq.parquet")
    malformed = os.path.join(pdir, f"data-{_seq12(1)}x.parquet")
    for p in (in_flight, wide, garbage, weird, malformed):
        with open(p, "wb") as f:
            f.write(b"x")
    expire_snapshots(tmp_lake, "docs", retain_since_seq=R)
    assert os.path.exists(in_flight)      # uncommitted but above R: kept
    assert os.path.exists(wide)           # 13-digit seq above R: kept
    assert not os.path.exists(garbage)    # unreachable below R: reclaimed
    assert os.path.exists(weird)          # unparseable: never touched
    assert os.path.exists(malformed)      # digits+junk: never touched
    for p in (in_flight, wide, weird, malformed):
        os.remove(p)


def test_expire_concurrent_with_pipelined_replay(ray_session, tmp_path):
    """Safety under chunk pipelining (pipeline_chunks=2): expiry from
    on_chunk deletes only files superseded at a COMMITTED barrier, and
    in-flight merges for later chunks read the current live file set,
    which expiry always keeps — so replay correctness is unaffected."""
    log = str(tmp_path / "events")
    write_event_log(log, n_docs=180, n_events=2400, seed=67,
                    segment_max_events=300)
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                       chunk_max_events=300, vacuum=False,
                       compact_every=2, pipeline_chunks=2)

    expired = []

    def slide(idx, chunk, rows):
        snaps = snapshots(lake)
        if len(snaps) > 2:
            expired.append(
                expire_snapshots(lake, "docs",
                                 retain_since_seq=snaps[-2])["files_removed"])

    replay(cfg, on_chunk=slide)
    assert sum(expired) > 0  # retention actually reclaimed mid-replay
    want = replay_oracle(cfg)["docs"]
    ok, msg = tables_equal(read_table(lake, "docs"), want)
    assert ok, msg
    # resume/idempotence still holds on the expired lake
    replay(cfg)
    ok, msg = tables_equal(read_table(lake, "docs"), want)
    assert ok, msg


def test_read_history_unaffected_by_expire(ray_session, tmp_log, tmp_lake):
    """Version history reads the LIVE merge-on-read window, which expiry
    always keeps — identical before/after expiring old snapshots."""
    from deltaray import read_history

    write_event_log(tmp_log, n_docs=100, n_events=1500, seed=71,
                    segment_max_events=400)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=2,
                        chunk_max_events=400, vacuum=False, compact_every=3))
    keys = read_table(tmp_lake, "docs")["doc_id"].to_pylist()[:5]
    before = read_history(tmp_lake, "docs", keys)
    snaps = snapshots(tmp_lake)
    expire_snapshots(tmp_lake, "docs", retain_since_seq=snaps[-1])
    after = read_history(tmp_lake, "docs", keys)
    ok, msg = tables_equal(before, after)
    assert ok, msg


def test_optimize_composes_with_retention(ray_session, tmp_log, tmp_lake):
    """OPTIMIZE on a retention-window lake: with vacuum=False the
    clustering rewrite keeps retained history readable, and a subsequent
    expire_snapshots reclaims exactly what the window allows — versus
    the default vacuum=True which retires all pre-OPTIMIZE snapshots."""
    from deltaray import optimize_table, read_table_ds
    from deltaray.util import to_table

    write_event_log(tmp_log, n_docs=150, n_events=1800, seed=83,
                    segment_max_events=400)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                        chunk_max_events=450, vacuum=False, compact_every=2))
    snaps = snapshots(tmp_lake)
    R = snaps[-2]
    before_R = read_table(tmp_lake, "docs", asof_seq=R)
    current = read_table(tmp_lake, "docs")

    res = optimize_table(tmp_lake, "docs", "n_tok", vacuum=False)
    assert res["files_removed"] == 0  # nothing retired by the rewrite
    # retained history still readable post-OPTIMIZE
    ok, msg = tables_equal(read_table(tmp_lake, "docs", asof_seq=R),
                           before_R)
    assert ok, msg
    # clustered read still exact
    got = to_table(read_table_ds(tmp_lake, "docs",
                                 predicate=("n_tok", ">=", 10))) \
        .sort_by([("doc_id", "ascending")])
    want = current.filter(
        pa.compute.greater_equal(current["n_tok"], 10))
    ok, msg = tables_equal(got, want)
    assert ok, msg
    # now expire to R: anchors >= R keep reading, older files reclaimed
    res2 = expire_snapshots(tmp_lake, "docs", retain_since_seq=R)
    assert res2["files_removed"] > 0
    ok, msg = tables_equal(read_table(tmp_lake, "docs", asof_seq=R),
                           before_R)
    assert ok, msg
    ok, msg = tables_equal(read_table(tmp_lake, "docs"), current)
    assert ok, msg


def test_kill_resume_with_retention(ray_session, tmp_log, tmp_lake):
    """Crash mid-replay WHILE sliding retention is active, then resume:
    completed chunks are skipped, the rest applies exactly once, and the
    final state equals the oracle — expiry never deletes anything a
    resumed run needs (the resume path reads only live commits, which
    expiry keeps)."""
    write_event_log(tmp_log, n_docs=180, n_events=2400, seed=79,
                    segment_max_events=300)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=300, vacuum=False,
                       compact_every=2, pipeline_chunks=2)

    class Kill(Exception):
        pass

    calls = []

    def slide_then_kill(idx, chunk, rows):
        calls.append(idx)
        snaps = snapshots(tmp_lake)
        if len(snaps) > 2:
            expire_snapshots(tmp_lake, "docs", retain_since_seq=snaps[-2])
        if len(calls) == 4:
            raise Kill()

    with pytest.raises(Kill):
        replay(cfg, on_chunk=slide_then_kill)
    # resume, still expiring as we go
    def slide(idx, chunk, rows):
        snaps = snapshots(tmp_lake)
        if len(snaps) > 2:
            expire_snapshots(tmp_lake, "docs", retain_since_seq=snaps[-2])

    res = replay(cfg, on_chunk=slide)
    assert res["chunks"] > len(calls)
    want = replay_oracle(cfg)["docs"]
    ok, msg = tables_equal(read_table(tmp_lake, "docs"), want)
    assert ok, msg
    # metrics exact despite the crash + retention (no double counting)
    assert res["metrics"]["total"]["dml_events"] == 2400 + 180


def test_expire_cli(ray_session, tmp_log, tmp_lake, capsys):
    """`python -m deltaray expire` — default keep-last-K window over every
    table, explicit --retain/--table variants."""
    import json

    from deltaray.__main__ import main

    write_event_log(tmp_log, n_docs=120, n_events=1600, seed=61,
                    segment_max_events=400)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=2,
                        chunk_max_events=400, vacuum=False, compact_every=2))
    snaps = snapshots(tmp_lake)
    assert len(snaps) >= 3
    assert main(["expire", "--lake", tmp_lake, "--keep-last", "2"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["docs"]["snapshot_floor"] == snaps[-2]
    assert earliest_snapshot(tmp_lake, "docs") == snaps[-2]
    # explicit anchor + single table; floor never regresses
    assert main(["expire", "--lake", tmp_lake, "--table", "docs",
                 "--retain", str(snaps[-1])]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["docs"]["snapshot_floor"] == snaps[-1]


def test_replay_cli_with_sliding_retention(ray_session, tmp_log, tmp_lake,
                                           capsys):
    """`python -m deltaray replay --expire-keep K`: the daemon-facing
    entry point for bounded-storage ingest — final state equals the
    oracle, only the newest K anchors stay readable."""
    from deltaray.__main__ import main

    write_event_log(tmp_log, n_docs=150, n_events=2000, seed=89,
                    segment_max_events=300)
    assert main(["replay", "--event-log", tmp_log, "--lake", tmp_lake,
                 "--partitions", "4", "--chunk-events", "300",
                 "--compact-every", "2", "--expire-keep", "2"]) == 0
    capsys.readouterr()
    snaps = snapshots(tmp_lake)
    assert earliest_snapshot(tmp_lake, "docs") == snaps[-2]
    want = replay_oracle(ReplayConfig(event_log=tmp_log, lake=tmp_lake))
    ok, msg = tables_equal(read_table(tmp_lake, "docs"), want["docs"])
    assert ok, msg
    with pytest.raises(SnapshotExpiredError):
        read_table(tmp_lake, "docs", asof_seq=snaps[0])
    # follow-mode daemon path: same retention hook fires per cycle
    lake2 = tmp_lake + "-follow"
    assert main(["replay", "--event-log", tmp_log, "--lake", lake2,
                 "--partitions", "4", "--chunk-events", "300",
                 "--compact-every", "2", "--expire-keep", "2",
                 "--follow", "--poll-seconds", "0.05"]) == 0
    capsys.readouterr()
    snaps2 = snapshots(lake2)
    assert earliest_snapshot(lake2, "docs") == snaps2[-2]
    ok, msg = tables_equal(read_table(lake2, "docs"), want["docs"])
    assert ok, msg


def test_sliding_retention_during_replay(ray_session, tmp_path):
    """Continuous-ingest shape: expire from the on_chunk callback with a
    sliding keep-last-2-anchors window.  Storage stays bounded (fewer
    files than keep-everything), the final state still equals the
    single-process oracle, and the last two anchors stay readable."""
    log = str(tmp_path / "events")
    write_event_log(log, n_docs=200, n_events=2600, seed=59,
                    segment_max_events=600)
    lake_all = str(tmp_path / "lake-all")
    replay(ReplayConfig(event_log=log, lake=lake_all, num_partitions=4,
                        chunk_max_events=400, vacuum=False, compact_every=2))
    n_files_all = len(_data_files(lake_all))

    lake = str(tmp_path / "lake-slide")
    cfg = ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                       chunk_max_events=400, vacuum=False,
                       compact_every=2, pipeline_chunks=1)  # single writer per partition

    def slide(idx, chunk, rows):
        snaps = snapshots(lake)
        if len(snaps) > 2:
            expire_snapshots(lake, "docs", retain_since_seq=snaps[-2])

    replay(cfg, on_chunk=slide)
    snaps = snapshots(lake)
    assert len(_data_files(lake)) < n_files_all
    want = replay_oracle(cfg)["docs"]
    ok, msg = tables_equal(read_table(lake, "docs"), want)
    assert ok, msg
    for s in snaps[-2:]:
        read_table(lake, "docs", asof_seq=s)  # must not raise
    assert earliest_snapshot(lake, "docs") == snaps[-2]
    if len(snaps) > 2:
        with pytest.raises(SnapshotExpiredError):
            read_table(lake, "docs", asof_seq=snaps[0])


def test_retention_and_changes_on_resharded_generation(ray_session, tmp_path):
    """Generation migration composes with the retention + CDC surfaces:
    after reshard + tail replay, the NEW generation's snapshots honor
    the pre-reshard floor (old anchors listed but unreadable — files
    were never copied), read_changes satisfies the patch law at a
    mid-tail anchor, and expire_snapshots on the new generation keeps
    retained anchors byte-exact while expired ones raise cleanly."""
    import pyarrow.compute as pc

    from deltaray import (SnapshotExpiredError, read_changes,
                          reshard_generation)
    from deltaray.pipeline import snapshots
    from deltaray.util import to_table

    log = str(tmp_path / "events")
    prefix = str(tmp_path / "prefix")
    lake = str(tmp_path / "lake")
    write_event_log(log, n_docs=200, n_events=3200, seed=53,
                    segment_max_events=400)
    os.makedirs(prefix)
    segs = sorted(glob.glob(os.path.join(log, "*.parquet")))
    for f in segs[:4]:
        import shutil as _sh
        _sh.copy(f, os.path.join(prefix, os.path.basename(f)))
    replay(ReplayConfig(event_log=prefix, lake=lake, num_partitions=4,
                        chunk_max_events=400, compact_every=3,
                        vacuum=False))
    reshard_generation(lake, 8)
    cfg1 = ReplayConfig(event_log=log, lake=lake, num_partitions=8,
                        generation=1, chunk_max_events=400,
                        compact_every=3, vacuum=False)
    replay(cfg1)
    oracle = replay_oracle(cfg1)["docs"]
    ok, msg = tables_equal(read_table(lake, "docs", generation=1), oracle,
                           key="doc_id")
    assert ok, msg

    snaps1 = snapshots(lake, generation=1)
    # pre-reshard anchors are listed but their files were never copied:
    # the floor starts at the reshard watermark
    assert earliest_snapshot(lake, "docs", generation=1) == 1600

    wm = snaps1[len(snaps1) // 2]
    before = read_table(lake, "docs", generation=1, asof_seq=wm)
    feed = to_table(read_changes(lake, "docs", since_seq=wm, generation=1))
    cur = read_table(lake, "docs", generation=1)
    ups = feed.filter(pc.equal(feed["change"], "UPSERT")) \
        .select(cur.column_names)
    changed = set(feed["doc_id"].to_pylist())
    keep = before.filter(
        pa.array([d not in changed for d in before["doc_id"].to_pylist()]))
    patched = pa.concat_tables([keep, ups], promote_options="default")
    ok, msg = tables_equal(patched, cur, key="doc_id")
    assert ok, f"gen1 patch law at {wm}: {msg}"

    keep_seq = snaps1[-2]
    want_keep = read_table(lake, "docs", generation=1, asof_seq=keep_seq)
    expire_snapshots(lake, "docs", keep_seq, generation=1)
    assert earliest_snapshot(lake, "docs", generation=1) == keep_seq
    ok, msg = tables_equal(
        read_table(lake, "docs", generation=1, asof_seq=keep_seq),
        want_keep, key="doc_id")
    assert ok, msg
    ok, msg = tables_equal(read_table(lake, "docs", generation=1), oracle,
                           key="doc_id")
    assert ok, msg
    with pytest.raises(SnapshotExpiredError):
        read_table(lake, "docs", generation=1, asof_seq=wm)
