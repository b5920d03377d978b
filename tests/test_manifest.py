"""Commit-log manifest compaction.

Commit records are the audit trail and never deleted, so a partition
under continuous ingest accumulates one JSON file per committed chunk
forever — and list_commits (under every merge-on-read, feed, lookup and
watermark path) would pay one open per record.  Manifest rollup bounds
that at O(manifests + recent loose) opens.  These tests pin:

- rollup at the threshold, with list_commits identical before/after
- write-once idempotence ACROSS rollup (a retried commit whose record
  was rolled into a manifest is still a no-op)
- manifest merging at MANIFEST_MERGE_AT
- crash-window dedupe (a record present both loose and in a manifest)
- a rollup between a reader's listing and its reads loses no record
- an end-to-end replay with aggressive rollup: state == oracle, resume
  skips every chunk, snapshots/feeds/history/optimize/expire all work
  from manifest-held records
"""

import glob
import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

import deltaray.commit as commit_mod
from deltaray import (ReplayConfig, read_changes, read_history, read_rows,
                      read_table, read_table_ds, replay, replay_oracle,
                      snapshots, tables_equal)
from deltaray.commit import LakeState
from deltaray.gen import write_event_log
from deltaray.util import to_table


def _tbl(seq: int) -> pa.Table:
    return pa.table({"doc_id": [f"d{seq}"], "n_tok": [seq],
                     "__seq": [seq], "__deleted": [False]})


COUNTS = {"inserts": 1, "updates": 0, "deletes": 0, "bytes_in": 10,
          "late_events": 0}


def _commit_files(lake, table="docs", part=0):
    d = LakeState(lake).commit_dir(table, part)
    names = sorted(os.listdir(d)) if os.path.isdir(d) else []
    return ([f for f in names if f.startswith("commit-")],
            [f for f in names if f.startswith("manifest-")])


def test_manifest_rollup_units(tmp_path):
    lake = str(tmp_path / "lk")
    lk = LakeState(lake)
    recs = []
    for i in range(10):
        lo, hi = i * 10 + 1, (i + 1) * 10
        recs.append(lk.try_commit("docs", 0, lo, hi, _tbl(hi), COUNTS,
                                  kind="delta", manifest_every=4))
    loose, mans = _commit_files(lake)
    assert len(loose) < 4, f"rollup never ran: {loose}"
    assert mans, "no manifest written"
    listed = lk.list_commits("docs", 0)
    assert [c["seq_hi"] for c in listed] == [c["seq_hi"] for c in recs]
    assert [c["seq_lo"] for c in listed] == [c["seq_lo"] for c in recs]
    # stats (zone maps) survive the rollup byte-for-byte
    assert all("stats" in c and c["stats"] for c in listed)

    # write-once across rollup: a retried commit whose record lives in
    # a manifest returns it with replayed=True and writes nothing new
    rec = lk.try_commit("docs", 0, 1, 10, _tbl(999), COUNTS,
                        kind="delta", manifest_every=4)
    assert rec["replayed"] is True
    assert rec["rows"] == 1 and rec["seq_hi"] == 10
    assert lk.commit_record("docs", 0, "commit-%012d-%012d.json"
                            % (1, 10))["seq_hi"] == 10
    assert lk.commit_record("docs", 0, "commit-%012d-%012d.json"
                            % (1, 11)) is None


def test_manifest_two_tier_rollup(tmp_path, monkeypatch):
    """Level 0 folds ONLY loose records (no history rewrite per rollup:
    manifests accumulate), and the full merge engages exactly at
    MANIFEST_MERGE_AT — the write-amplification contract."""
    # tier 0 alone: with the merge threshold out of reach, every rollup
    # must create a NEW manifest and leave the earlier ones untouched
    monkeypatch.setattr(commit_mod, "MANIFEST_MERGE_AT", 10**9)
    lake = str(tmp_path / "lk0")
    lk = LakeState(lake)
    seen_mans: dict[str, float] = {}
    for i in range(12):
        lo, hi = i * 10 + 1, (i + 1) * 10
        lk.try_commit("docs", 0, lo, hi, _tbl(hi), COUNTS,
                      kind="delta", manifest_every=2)
        for m in _commit_files(lake)[1]:
            p = os.path.join(lk.commit_dir("docs", 0), m)
            mt = os.stat(p).st_mtime_ns
            assert seen_mans.setdefault(m, mt) == mt, \
                f"level-0 rollup rewrote existing manifest {m}"
    loose, mans = _commit_files(lake)
    assert len(mans) == 6 and len(loose) == 0
    listed = lk.list_commits("docs", 0)
    assert [c["seq_hi"] for c in listed] == [(i + 1) * 10 for i in range(12)]

    # tier 1: with the threshold at 3, manifests never accumulate past
    # it, and everything still lists identically
    monkeypatch.setattr(commit_mod, "MANIFEST_MERGE_AT", 3)
    lake = str(tmp_path / "lk1")
    lk = LakeState(lake)
    peak = 0
    for i in range(12):
        lo, hi = i * 10 + 1, (i + 1) * 10
        lk.try_commit("docs", 0, lo, hi, _tbl(hi), COUNTS,
                      kind="delta", manifest_every=1)
        peak = max(peak, len(_commit_files(lake)[1]))
    loose, mans = _commit_files(lake)
    assert peak >= 3, "merge threshold was never reached"
    # the merge fires on the rollup AFTER the threshold is hit, so the
    # steady-state manifest count is bounded by MANIFEST_MERGE_AT (new
    # level-0 manifests accumulate on top of the last merged one)
    assert len(mans) <= 3, f"manifest count unbounded: {mans}"
    counts = [int(m.split("-")[2]) for m in mans]
    assert max(counts) >= 4, \
        f"no merged manifest exists (per-manifest counts {counts})"
    listed = lk.list_commits("docs", 0)
    assert [c["seq_hi"] for c in listed] == [(i + 1) * 10 for i in range(12)]


def test_manifest_rollup_property(tmp_path_factory):
    """For random commit counts, rollup thresholds, merge thresholds and
    crash-window artifacts (a covered loose file resurrected after its
    manifest was written): the listing always equals the exact commit
    sequence, a random retried commit is always a no-op, and the
    loose-file count stays below the threshold."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.integers(1, 40), every=st.sampled_from([1, 2, 5]),
           merge_at=st.sampled_from([2, 3, 10**9]),
           seed=st.integers(0, 2**31 - 1))
    def run(n, every, merge_at, seed):
        import numpy as np
        rng = np.random.default_rng(seed)
        old = commit_mod.MANIFEST_MERGE_AT
        commit_mod.MANIFEST_MERGE_AT = merge_at
        try:
            lake = str(tmp_path_factory.mktemp("mprop") / "lk")
            lk = LakeState(lake)
            expected = []
            for i in range(n):
                lo, hi = i * 10 + 1, (i + 1) * 10
                lk.try_commit("docs", 0, lo, hi, _tbl(hi), COUNTS,
                              kind="delta", manifest_every=every)
                expected.append((lo, hi))
                if rng.random() < 0.2:
                    # crash artifact: a covered record resurrected loose
                    cdir = lk.commit_dir("docs", 0)
                    mans = [f for f in os.listdir(cdir)
                            if f.startswith("manifest-")]
                    if mans:
                        with open(os.path.join(
                                cdir, mans[int(rng.integers(len(mans)))]
                        )) as f:
                            records = json.load(f)["records"]
                        fname = sorted(records)[
                            int(rng.integers(len(records)))]
                        commit_mod.atomic_write_json(
                            os.path.join(cdir, fname), records[fname])
            listed = lk.list_commits("docs", 0)
            assert [(c["seq_lo"], c["seq_hi"]) for c in listed] == expected
            loose, mans = _commit_files(lake)
            assert len([f for f in loose]) <= max(every, 1) + 1
            j = int(rng.integers(n))
            rec = lk.try_commit("docs", 0, j * 10 + 1, (j + 1) * 10,
                                _tbl(999), COUNTS, kind="delta",
                                manifest_every=every)
            assert rec["replayed"] is True and rec["rows"] == 1
        finally:
            commit_mod.MANIFEST_MERGE_AT = old

    run()


def test_manifest_crash_window_dedupe(tmp_path):
    """A crash between manifest write and loose-file cleanup leaves a
    record in both places; readers must not double-count it."""
    lake = str(tmp_path / "lk")
    lk = LakeState(lake)
    for i in range(4):
        lo, hi = i * 10 + 1, (i + 1) * 10
        lk.try_commit("docs", 0, lo, hi, _tbl(hi), COUNTS,
                      kind="delta", manifest_every=4)
    loose, mans = _commit_files(lake)
    assert mans and not loose
    # resurrect one covered loose file, as a crashed cleanup would
    with open(os.path.join(lk.commit_dir("docs", 0), mans[0])) as f:
        records = json.load(f)["records"]
    fname, rec = sorted(records.items())[0]
    commit_mod.atomic_write_json(
        os.path.join(lk.commit_dir("docs", 0), fname), rec)
    listed = lk.list_commits("docs", 0)
    assert len(listed) == 4
    assert [c["seq_hi"] for c in listed] == [10, 20, 30, 40]


def _roll_mid_read(monkeypatch, d, roll) -> list:
    """Run ``roll`` once, right after the first listing of ``d``: the
    reader then opens names the rollup has just deleted."""
    real = os.listdir
    fired: list = []

    def listdir(path):
        names = real(path)
        if not fired and os.path.abspath(path) == os.path.abspath(d):
            fired.append(path)
            roll()
        return names

    monkeypatch.setattr(os, "listdir", listdir)
    return fired


@pytest.mark.parametrize("rolled", ["loose", "manifests"])
@pytest.mark.parametrize("reader", ["list_commits", "commit_record",
                                    "chunk_done_records"])
def test_rollup_mid_read_loses_no_record(tmp_path, monkeypatch, reader,
                                         rolled):
    """A rollup that retires the files a reader has just listed — loose
    records into a level-0 manifest, or manifests into their merge —
    costs the reader a re-list, never a record."""
    monkeypatch.setattr(commit_mod, "MANIFEST_MERGE_AT", 2)
    lk = LakeState(str(tmp_path / "lk"))
    if reader == "chunk_done_records":
        d = os.path.join(lk.root, "_chunks")

        def write(lo, hi):
            lk.write_chunk_done(lo, hi, {"lo": lo, "hi": hi})

        def roll():
            lk.compact_chunk_markers(2)
    else:
        d = lk.commit_dir("docs", 0)

        def write(lo, hi):
            lk.try_commit("docs", 0, lo, hi, _tbl(hi), COUNTS, kind="delta")

        def roll():
            lk.compact_manifests("docs", 0, 2)
    for i in range(4):
        write(i * 10 + 1, (i + 1) * 10)
        if rolled == "manifests" and i % 2:
            roll()  # two level-0 manifests; the mid-read roll merges them
    fired = _roll_mid_read(monkeypatch, d, roll)
    if reader == "list_commits":
        got = [c["seq_hi"] for c in lk.list_commits("docs", 0)]
    elif reader == "commit_record":
        got = [lk.commit_record("docs", 0, "commit-%012d-%012d.json"
                                % (1, 10))["seq_hi"]]
    else:
        recs = lk.chunk_done_records()
        got = [recs[os.path.basename(lk.chunk_marker(i * 10 + 1,
                                                     (i + 1) * 10))]["hi"]
               for i in range(4)]
    assert fired, "the rollup never ran mid-read"
    assert got == ([10] if reader == "commit_record" else [10, 20, 30, 40])
    left = os.listdir(d)
    assert len(left) == 1 and "manifest-" in left[0], left


def test_manifest_config_roundtrip():
    from deltaray.config import config_from_dict, config_to_dict
    cfg = ReplayConfig(event_log="/tmp/e", lake="/tmp/l",
                       manifest_every=7)
    d = config_to_dict(cfg)
    assert d["manifest_every"] == 7
    assert config_from_dict(d).manifest_every == 7
    # drafts saved with since-removed knobs still load
    old = dict(d, shuffle="sort", batch_size=16384, merge_fanin=256)
    assert config_from_dict(old).manifest_every == 7
    with pytest.raises(ValueError, match="manifest_every"):
        ReplayConfig(event_log="/tmp/e", lake="/tmp/l", manifest_every=-1)


def test_kill_resume_with_manifests_and_retention(ray_session, tmp_path):
    """Crash mid-replay with per-commit manifest rollup AND sliding
    retention both active, then resume: the completed prefix is skipped
    from manifest-held markers, the rest applies exactly once against
    manifest-held commit records, metadata stays bounded, and the final
    state equals the oracle."""
    from deltaray import expire_snapshots

    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    write_event_log(log, n_docs=150, n_events=2400, seed=163,
                    segment_max_events=300)
    cfg = ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                       chunk_max_events=300, vacuum=False,
                       compact_every=2, pipeline_chunks=2,
                       manifest_every=1)

    class Kill(Exception):
        pass

    calls = []

    def slide_then_kill(idx, chunk, rows):
        calls.append(idx)
        snaps = snapshots(lake)
        if len(snaps) > 2:
            expire_snapshots(lake, "docs", retain_since_seq=snaps[-2])
        if len(calls) == 4:
            raise Kill()

    with pytest.raises(Kill):
        replay(cfg, on_chunk=slide_then_kill)
    res = replay(cfg)
    assert res["chunks"] > len(calls)
    ok, msg = tables_equal(read_table(lake, "docs"),
                           replay_oracle(cfg)["docs"])
    assert ok, msg
    assert res["metrics"]["total"]["dml_events"] == 2400 + 150
    for p in range(4):
        loose, mans = _commit_files(lake, part=p)
        assert len(loose) <= 1 and mans, (p, loose, mans)
        assert len(mans) <= commit_mod.MANIFEST_MERGE_AT


def test_chunk_marker_rollup(ray_session, tmp_path):
    """Chunk-done markers roll into a chunks-manifest under the same
    threshold: snapshots() lists every anchor either way, resume still
    skips the whole prefix after its markers were rolled up, and a
    tail replay appends new anchors on top of the manifest."""
    import glob as _glob
    import shutil

    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    prefix = str(tmp_path / "prefix")
    write_event_log(log, n_docs=100, n_events=2000, seed=151,
                    segment_max_events=200)
    os.makedirs(prefix)
    segs = sorted(_glob.glob(os.path.join(log, "*.parquet")))
    for f in segs[:6]:
        shutil.copy(f, os.path.join(prefix, os.path.basename(f)))
    cfg_pre = ReplayConfig(event_log=prefix, lake=lake, num_partitions=2,
                           chunk_max_events=200, compact_every=3,
                           vacuum=False, manifest_every=2)
    replay(cfg_pre)
    snaps_pre = snapshots(lake)
    assert len(snaps_pre) >= 6
    cdir = os.path.join(lake, "gen=0000", "_chunks")
    loose = [f for f in os.listdir(cdir) if f.endswith(".done")]
    mans = [f for f in os.listdir(cdir)
            if f.startswith("chunks-manifest-")]
    assert mans and len(loose) < 2 + 1, (loose, mans)

    cfg = ReplayConfig(event_log=log, lake=lake, num_partitions=2,
                       chunk_max_events=200, compact_every=3,
                       vacuum=False, manifest_every=2)
    ran: list = []
    replay(cfg, on_chunk=lambda i, c, rows: ran.append((c.seq_lo,
                                                        c.seq_hi)))
    assert all(lo >= snaps_pre[-1] for lo, hi in ran), \
        f"manifest-held prefix re-ran: {ran[:3]}"
    assert ran, "no tail chunk ran"
    ok, msg = tables_equal(read_table(lake, "docs"),
                           replay_oracle(cfg)["docs"])
    assert ok, msg
    assert snapshots(lake)[:len(snaps_pre)] == snaps_pre


def test_compact_manifests_cli(ray_session, tmp_path, capsys):
    """`python -m deltaray compact-manifests` — maintenance rollup for a
    lake written without inline rollup; listings and state unchanged."""
    from deltaray.__main__ import main

    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    write_event_log(log, n_docs=80, n_events=1200, seed=139,
                    segment_max_events=200)
    cfg = ReplayConfig(event_log=log, lake=lake, num_partitions=2,
                       chunk_max_events=200, compact_every=3,
                       vacuum=False, manifest_every=0)
    replay(cfg)
    before = [LakeState(lake).list_commits("docs", p) for p in range(2)]
    loose0, mans0 = _commit_files(lake, part=0)
    assert loose0 and not mans0, "manifest_every=0 must not roll up"
    want = read_table(lake, "docs")
    snaps0 = snapshots(lake)
    n_markers = len(os.listdir(os.path.join(lake, "gen=0000", "_chunks")))

    assert main(["compact-manifests", "--lake", lake]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["docs"]["files_retired"] == sum(len(b) for b in before)
    assert out["_chunks"]["files_retired"] == n_markers
    for p in range(2):
        loose, mans = _commit_files(lake, part=p)
        assert not loose and len(mans) == 1
        assert LakeState(lake).list_commits("docs", p) == before[p]
    assert snapshots(lake) == snaps0, "marker rollup changed the anchors"
    ok, msg = tables_equal(read_table(lake, "docs"), want, key="doc_id")
    assert ok, msg


def test_replay_with_manifest_rollup(ray_session, tmp_path):
    """Aggressive rollup (manifest_every=2) under a multi-chunk replay:
    final state equals the oracle, a second replay skips every chunk
    (the already-applied check reads manifests), loose commit files
    stay bounded, and snapshots / feeds / history / optimize / expire
    all serve from manifest-held records."""
    from deltaray import SnapshotExpiredError, expire_snapshots
    from deltaray.pipeline import optimize_table

    log, lake = str(tmp_path / "ev"), str(tmp_path / "lk")
    write_event_log(log, n_docs=120, n_events=2000, seed=137,
                    segment_max_events=200)
    cfg = ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                       chunk_max_events=200, compact_every=3,
                       vacuum=False, manifest_every=2)
    replay(cfg)
    ok, msg = tables_equal(read_table(lake, "docs"),
                           replay_oracle(cfg)["docs"])
    assert ok, msg
    for p in range(4):
        loose, mans = _commit_files(lake, part=p)
        assert len(loose) < 2 + 1, f"part {p} rollup lagged: {loose}"
        assert mans, f"part {p} has no manifest"

    res = replay(cfg)
    assert res["lineage_total"] == 0, "resume re-applied a chunk"

    snaps = snapshots(lake)
    anchor = snaps[1]
    before = read_table(lake, "docs", asof_seq=anchor)
    cur = read_table(lake, "docs")
    feed = to_table(read_changes(lake, "docs", since_seq=anchor))
    changed = set(feed["doc_id"].to_pylist())
    ups = feed.filter(pc.equal(feed["change"], "UPSERT")) \
        .select(cur.column_names)
    keep = before.filter(pa.array(
        [d not in changed for d in before["doc_id"].to_pylist()]))
    ok, msg = tables_equal(
        pa.concat_tables([keep, ups], promote_options="default"), cur,
        key="doc_id")
    assert ok, f"patch law over manifest-held commits: {msg}"

    keys = sorted(cur["doc_id"].to_pylist())[:6]
    assert read_rows(lake, "docs", keys).num_rows == len(keys)
    h = read_history(lake, "docs", keys)
    assert set(h.filter(h["is_current"])["doc_id"].to_pylist()) == set(keys)

    optimize_table(lake, "docs", "n_tok", vacuum=False, row_group_rows=64)
    got = to_table(read_table_ds(lake, "docs",
                                 predicate=("n_tok", ">", 300)))
    want = cur.filter(pc.greater(cur["n_tok"], 300))
    ok, msg = tables_equal(got.sort_by([("doc_id", "ascending")]),
                           want.sort_by([("doc_id", "ascending")]),
                           key="doc_id")
    assert ok, f"predicate read over manifest-held zone maps: {msg}"

    expire_snapshots(lake, "docs", snaps[-2])
    with pytest.raises(SnapshotExpiredError):
        read_table(lake, "docs", asof_seq=anchor)
    ok, msg = tables_equal(read_table(lake, "docs"), cur, key="doc_id")
    assert ok, f"state changed across expire with manifests: {msg}"
