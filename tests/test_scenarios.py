"""Reference-shaped scenario tests (FIXTURES.md §3; reference analogs in
DeltaPipelineStateStoreBaseTest.java)."""

import os

import pyarrow.compute as pc
import pytest

from deltaray import ReplayConfig, TableConfig, replay, replay_oracle
from deltaray.config import RetryConfig
from deltaray.gen import write_event_log
from deltaray.oracle import tables_equal
from deltaray.pipeline import (DeltaFailureError, ReplaySession,
                               lineage_report, read_table)


def _check(cfg, tables=("docs",)):
    replay(cfg)
    oracle = replay_oracle(cfg)
    for t in tables:
        got = read_table(cfg.lake, t, cfg.generation)
        ok, msg = tables_equal(got, oracle[t], key=oracle[t].column_names[0])
        assert ok, f"{t}: {msg}"


def test_resume_midway(tmp_log, tmp_lake):
    """Kill the engine after a partial run, restart → resume from
    per-partition checkpoints, no double-apply, final state equal
    (testRestartFromOffset:176-232)."""
    write_event_log(tmp_log, n_docs=200, n_events=3000, seed=21,
                    segment_max_events=400)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=500)

    class Kill(Exception):
        pass

    calls = []

    def killer(idx, chunk, rows):
        calls.append(idx)
        if len(calls) == 3:
            raise Kill()

    with pytest.raises(Kill):
        replay(cfg, on_chunk=killer)
    # restart: completed chunks are skipped, remainder applied exactly once
    res = replay(cfg)
    skipped_chunks = len(calls)
    assert res["chunks"] > skipped_chunks
    oracle = replay_oracle(cfg)
    got = read_table(tmp_lake, "docs")
    ok, msg = tables_equal(got, oracle["docs"])
    assert ok, msg
    # metrics not double-counted (testFailureRetries:388-392): exact totals
    m = res["metrics"]["total"]
    assert m["dml_events"] == 3000 + 200


def test_retry_idempotent_merge(tmp_log, tmp_lake):
    """A transiently failing merge stage is retried; committed seq ranges
    are applied once (testFailureRetries:308-397 / FailureTarget)."""
    import ray

    write_event_log(tmp_log, n_docs=100, n_events=1000, seed=23)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=400)
    cfg.retry.max_duration_seconds = 60

    session = ReplaySession(cfg)
    orig = session._submit_exchange
    fails = {"n": 0}

    def flaky(*args, **kwargs):
        refs = orig(*args, **kwargs)
        if fails["n"] < 2:
            ray.get(refs)  # the chunk's merges have committed
            fails["n"] += 1
            raise RuntimeError("injected transient failure AFTER commit")
        return refs

    session._submit_exchange = flaky
    session.run()
    assert fails["n"] == 2
    oracle = replay_oracle(cfg)
    got = read_table(tmp_lake, "docs")
    ok, msg = tables_equal(got, oracle["docs"])
    assert ok, msg
    # retried chunk must not double-count (commit records are write-once)
    m = session.lake.read_metrics()["total"]
    assert m["dml_events"] == 1100


def _fail_one_merge(monkeypatch, tmp_log, tmp_lake, exc_type=RuntimeError,
                    **cfg_kw):
    """Session over a multi-chunk log whose SECOND DML chunk's merge
    raises ``exc_type`` once inside its Ray task (the flag file makes the
    failure one-shot across worker processes).  Returns (cfg, session,
    flag path)."""
    write_event_log(tmp_log, n_docs=120, n_events=2000, seed=31,
                    segment_max_events=300)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=400, **cfg_kw)
    session = ReplaySession(cfg)
    dml_chunks = [c for c in session.chunks if c.kind != "ddl"]
    assert len(dml_chunks) >= 3, "need a window to pipeline"
    target_lo = dml_chunks[1].seq_lo
    flag = os.path.join(tmp_log, "_injected_failure")
    real_plan = ReplaySession._plan_chunk

    def plan(self, chunk):
        p = real_plan(self, chunk)
        if p is None or chunk.seq_lo != target_lo:
            return p
        files, columns, stage, merge, n_shards = p

        def flaky_merge(tbl, _merge=merge, _flag=flag, _exc=exc_type):
            if not os.path.exists(_flag):
                open(_flag, "w").close()
                raise _exc("injected merge failure")
            return _merge(tbl)

        return files, columns, stage, flaky_merge, n_shards

    monkeypatch.setattr(ReplaySession, "_plan_chunk", plan)
    return cfg, session, flag


def test_pipelined_merge_failure_falls_back(tmp_log, tmp_lake, monkeypatch):
    """With chunk pipelining active, a merge-task failure mid-window
    settles the in-flight window and re-applies the pending chunks
    through the serial retry path — final state still equals the
    oracle, commits apply exactly once, FAILING is cleared."""
    cfg, session, flag = _fail_one_merge(
        monkeypatch, tmp_log, tmp_lake, pipeline_chunks=3,
        retry=RetryConfig(max_duration_seconds=60))
    res = session.run()
    assert os.path.exists(flag), "injection never fired"
    assert res["metrics"]["errors"] >= 1
    oracle = replay_oracle(cfg)
    got = read_table(tmp_lake, "docs")
    ok, msg = tables_equal(got, oracle["docs"])
    assert ok, msg
    m = session.lake.read_metrics()["total"]
    assert m["dml_events"] == 2000 + 120
    rep = lineage_report(tmp_lake, "docs")
    assert "FAILING" not in rep["tables"]["docs"]["states"]


def test_failure_paths_cancel_nothing(tmp_log, tmp_lake, tmp_path,
                                      monkeypatch):
    """Failure paths settle in-flight Ray tasks, never cancel them: a
    merge failing mid-window, and an exception from ``on_chunk`` with
    chunks in flight, both leave ``ray.cancel`` uncalled (the spy only
    records, so a swallowed error cannot hide a call)."""
    import ray

    cancels = []
    monkeypatch.setattr(ray, "cancel",
                        lambda *a, **kw: cancels.append((a, kw)))
    cfg, session, flag = _fail_one_merge(
        monkeypatch, tmp_log, tmp_lake, pipeline_chunks=3,
        retry=RetryConfig(max_duration_seconds=60))
    assert session.run()["metrics"]["errors"] == 1
    assert os.path.exists(flag), "injection never fired"

    log2, lake2 = str(tmp_path / "events2"), str(tmp_path / "lake2")
    write_event_log(log2, n_docs=200, n_events=3000, seed=21,
                    segment_max_events=400)
    cfg2 = ReplayConfig(event_log=log2, lake=lake2, num_partitions=4,
                        chunk_max_events=500, pipeline_chunks=3)

    class Kill(Exception):
        pass

    calls = []

    def killer(idx, chunk, rows):  # test_resume_midway's kill
        calls.append(idx)
        if len(calls) == 3:
            raise Kill()

    with pytest.raises(Kill):
        replay(cfg2, on_chunk=killer)
    assert cancels == []
    _check(cfg2)


def test_delta_failure_aborts(tmp_log, tmp_lake):
    """DeltaFailureError ⇒ fail immediately, no retry
    (testFailImmediately:235-261)."""
    write_event_log(tmp_log, n_docs=50, n_events=100, seed=25)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=2)
    cfg.retry.max_duration_seconds = 9999

    session = ReplaySession(cfg)

    def boom(chunk):
        raise DeltaFailureError("unrecoverable")

    session._plan_chunk = boom
    with pytest.raises(DeltaFailureError):
        session.run()
    assert session.errors == 0


@pytest.mark.parametrize("budget,window,exc_type", [
    pytest.param(0, 1, RuntimeError, id="0-1"),
    pytest.param(0, 3, RuntimeError, id="0-3"),
    pytest.param(60, 1, RuntimeError, id="60-1"),
    pytest.param(60, 3, RuntimeError, id="60-3"),
    pytest.param(60, 3, DeltaFailureError, id="fatal-3"),
])
def test_retry_policy_same_at_every_window(tmp_log, tmp_lake, monkeypatch,
                                           budget, window, exc_type):
    """One retry policy whatever ``pipeline_chunks``: a merge that fails
    once inside its Ray task raises at once with no retry budget
    (FAILING persisted), is re-applied exactly once within the budget,
    and a DeltaFailureError raised in the task aborts without a retry."""
    cfg, session, flag = _fail_one_merge(
        monkeypatch, tmp_log, tmp_lake, exc_type, pipeline_chunks=window,
        retry=RetryConfig(max_duration_seconds=budget, delay_seconds=0.01))
    if exc_type is DeltaFailureError:
        with pytest.raises(DeltaFailureError):
            session.run()
        assert session.errors == 0
        return
    if budget == 0:
        with pytest.raises(RuntimeError, match="injected merge failure"):
            session.run()
        assert session.errors == 1
        rep = lineage_report(tmp_lake, "docs")
        assert "FAILING" in rep["tables"]["docs"]["states"]
        return
    res = session.run()
    assert os.path.exists(flag), "injection never fired"
    assert res["metrics"]["errors"] == 1
    oracle = replay_oracle(cfg)
    ok, msg = tables_equal(read_table(tmp_lake, "docs"), oracle["docs"])
    assert ok, msg
    assert res["metrics"]["total"]["dml_events"] == 2000 + 120


def test_lineage_follows_commit_after_retry(tmp_log, tmp_lake, monkeypatch):
    """A merge that dies between its commit record and its lineage write
    is retried into the commit-exists skip path.  In the LAST chunk no
    later merge touches that partition, so the skip itself must bring
    the lineage up to the partition's latest commit."""
    from deltaray.assess import validate_lake

    write_event_log(tmp_log, n_docs=120, n_events=2000, seed=31,
                    segment_max_events=300)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=400,
                       retry=RetryConfig(max_duration_seconds=60,
                                         delay_seconds=0.01))
    session = ReplaySession(cfg)
    last = [c for c in session.chunks if c.kind != "ddl"][-1]
    flag = os.path.join(tmp_log, "_injected_failure")
    real_plan = ReplaySession._plan_chunk

    def plan(self, chunk):
        p = real_plan(self, chunk)
        if p is None or chunk.seq_lo != last.seq_lo:
            return p
        files, columns, stage, merge, n_shards = p

        def flaky_merge(tbl, _merge=merge, _flag=flag):
            from deltaray.commit import LakeState
            real = LakeState.write_lineage

            def write_lineage(lake, *args):
                if not os.path.exists(_flag):
                    open(_flag, "w").close()
                    raise RuntimeError("injected lineage failure")
                return real(lake, *args)

            LakeState.write_lineage = write_lineage
            try:
                return _merge(tbl)
            finally:
                LakeState.write_lineage = real

        return files, columns, stage, flaky_merge, n_shards

    monkeypatch.setattr(ReplaySession, "_plan_chunk", plan)
    res = session.run()
    assert os.path.exists(flag), "injection never fired"
    assert res["metrics"]["errors"] == 1
    oracle = replay_oracle(cfg)
    ok, msg = tables_equal(read_table(tmp_lake, "docs"), oracle["docs"])
    assert ok, msg
    rep = validate_lake(tmp_lake)
    assert rep["ok"], rep["errors"]
    assert lineage_report(tmp_lake, "docs")["tables"]["docs"][
        "min_committed_seq"] == last.seq_hi


def test_schema_evolution(tmp_log, tmp_lake):
    """ALTER_TABLE add lang:string; RENAME_COLUMN source→origin; subsequent
    DMLs use the new schema; Arrow schema unification per partition
    (DDLOperation.java:30-38, TransformationUtil.transformDDLEvent:121-132)."""
    write_event_log(
        tmp_log, n_docs=150, n_events=2000, seed=27,
        ddl=[
            (500, "docs", "ALTER_TABLE", {"add": ("lang", "string"),
                                          "choices": ["en", "de", "fr"]}),
            (1200, "docs", "RENAME_COLUMN", {"rename": ("source", "origin")}),
        ],
    )
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=600)
    _check(cfg)
    got = read_table(tmp_lake, "docs")
    assert "lang" in got.column_names
    assert "origin" in got.column_names and "source" not in got.column_names
    # rows last written before the ALTER have null lang; after it, values
    assert got.filter(pc.is_valid(got["lang"])).num_rows > 0


def test_rename_chain_collapse(tmp_log, tmp_lake):
    """a→b then b→c collapses to a→c; a→b then b→a cancels
    (DefaultMutableRowSchema.java:113-130)."""
    write_event_log(
        tmp_log, n_docs=80, n_events=900, seed=29,
        ddl=[
            (200, "docs", "RENAME_COLUMN", {"rename": ("source", "src_a")}),
            (400, "docs", "RENAME_COLUMN", {"rename": ("src_a", "src_b")}),
            (600, "docs", "RENAME_COLUMN", {"rename": ("src_b", "source")}),
        ],
    )
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=300)
    _check(cfg)
    got = read_table(tmp_lake, "docs")
    assert "source" in got.column_names


def test_truncate_table(tmp_log, tmp_lake):
    write_event_log(
        tmp_log, n_docs=100, n_events=1000, seed=31,
        ddl=[(500, "docs", "TRUNCATE_TABLE", {})],
    )
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=400)
    _check(cfg)


def test_blacklist_filter(tmp_log, tmp_lake):
    """DML blacklist: DELETE events have no effect
    (QueueingEventEmitter.java:114-125)."""
    write_event_log(tmp_log, n_docs=100, n_events=1500, seed=33)
    cfg = ReplayConfig(
        event_log=tmp_log, lake=tmp_lake, num_partitions=4,
        tables=[TableConfig("docs", dml_blacklist={"DELETE"})],
    )
    _check(cfg)
    # with deletes filtered, every doc ever inserted is present
    got = read_table(tmp_lake, "docs")
    nodelete = replay_oracle(cfg)["docs"]
    assert got.num_rows == nodelete.num_rows
    # sanity: unfiltered replay would have fewer rows
    cfg2 = ReplayConfig(event_log=tmp_log, lake=tmp_lake + "2", num_partitions=4)
    replay(cfg2)
    assert read_table(cfg2.lake, "docs").num_rows < got.num_rows


def test_column_whitelist(tmp_log, tmp_lake):
    """Column whitelist projection (SourceTable.java:69-72): unselected
    columns come through as nulls."""
    write_event_log(tmp_log, n_docs=100, n_events=800, seed=35)
    cfg = ReplayConfig(
        event_log=tmp_log, lake=tmp_lake, num_partitions=4,
        tables=[TableConfig("docs", columns=["doc_id", "tokens", "n_tok"])],
    )
    _check(cfg)
    got = read_table(tmp_lake, "docs")
    assert pc.all(pc.is_null(got["source"])).as_py()
    assert pc.count(got["tokens"], mode="only_valid").as_py() > 0


def test_directives(tmp_log, tmp_lake):
    """Directive chain: mask token range + rename + set-default
    (Transformation.java:27-58, MockTransformation.java:52-69)."""
    write_event_log(tmp_log, n_docs=100, n_events=800, seed=37)
    cfg = ReplayConfig(
        event_log=tmp_log, lake=tmp_lake, num_partitions=4,
        tables=[TableConfig("docs", transformations=[
            "mask tokens 0 2", "rename source origin",
        ])],
    )
    _check(cfg)
    got = read_table(tmp_lake, "docs")
    assert "origin" in got.column_names
    first_two = pc.list_flatten(pc.list_slice(got["tokens"], 0, 2))
    assert pc.all(pc.equal(first_two, 0)).as_py()


def test_unordered_source(tmp_log, tmp_lake):
    """UN_ORDERED source: LWW by (source_ts, sort_keys) equals oracle
    (ChangeEvent.java:51-60, SourceProperties.java:29-32)."""
    write_event_log(tmp_log, n_docs=150, n_events=2000, seed=39, unordered=True)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=700, ordering="UN_ORDERED")
    _check(cfg)


def test_multi_table(tmp_log, tmp_lake):
    """Two tables interleaved in one log; independent lakes/checkpoints
    (testMultipleInstances:400-474)."""
    write_event_log(tmp_log, n_docs=80, n_events=1500, seed=41,
                    tables=("taybull", "taybull2"))
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=600)
    _check(cfg, tables=("taybull", "taybull2"))


def test_table_subset_filter(tmp_log, tmp_lake):
    """Unknown-table filter: only configured tables are replicated
    (QueueingEventEmitter.java:111,124)."""
    write_event_log(tmp_log, n_docs=60, n_events=800, seed=43,
                    tables=("docs", "other"))
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       tables=[TableConfig("docs")])
    _check(cfg, tables=("docs",))
    import os

    assert not os.path.isdir(os.path.join(cfg.lake, "gen=0000", "other"))


def test_custom_directive_registry(tmp_log, tmp_lake):
    """User-registered directive (Transformation plugin analog,
    DeltaApp.java:61-66 registration) runs in the replay chain; the
    built-in retokenize-stub shifts token ids."""
    from deltaray.transforms import register_directive

    def double_ntok_batch(batch, args):
        import pyarrow.compute as pc
        i = batch.column_names.index("n_tok")
        return batch.set_column(i, "n_tok", pc.multiply(batch["n_tok"], 2))

    def double_ntok_row(row, args):
        if row.get("n_tok") is not None:
            row["n_tok"] = row["n_tok"] * 2
        return row

    register_directive("double-ntok", batch_fn=double_ntok_batch,
                       row_fn=double_ntok_row)
    write_event_log(tmp_log, n_docs=60, n_events=400, seed=43)
    cfg = ReplayConfig(
        event_log=tmp_log, lake=tmp_lake, num_partitions=2,
        tables=[TableConfig("docs", transformations=[
            "retokenize-stub tokens 5", "double-ntok",
        ])],
    )
    _check(cfg)
    got = read_table(tmp_lake, "docs")
    # retokenize-stub: every token id >= 5 (gen emits ids >= 0)
    assert pc.min(pc.list_flatten(got["tokens"])).as_py() >= 5


def test_snapshot_state_and_error_metric(tmp_log, tmp_lake):
    """Lineage state reflects the replication phase (SNAPSHOTTING while
    only snapshot events applied, PipelineStateService.java:40-127) and
    failed applies surface in the errors metric (dml.errors,
    testDataSizeAndErrorMetric:477-548)."""
    import glob
    import json as _json

    # snapshot-only log: 100 snapshot INSERTs, zero streaming events
    write_event_log(tmp_log, n_docs=100, n_events=0, seed=47)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=2)
    res = replay(cfg)
    assert res["metrics"]["errors"] == 0
    states = set()
    for p in glob.glob(f"{tmp_lake}/gen=0000/_lineage/docs/*.json"):
        with open(p) as f:
            states.add(_json.load(f)["state"])
    assert states == {"SNAPSHOTTING"}

    # streaming events promote partitions to REPLICATING
    lake2 = tmp_lake + "-2"
    log2 = tmp_log + "-2"
    write_event_log(log2, n_docs=100, n_events=500, seed=47)
    res2 = replay(ReplayConfig(event_log=log2, lake=lake2, num_partitions=2,
                               chunk_max_events=250))
    states2 = set()
    for p in glob.glob(f"{lake2}/gen=0000/_lineage/docs/*.json"):
        with open(p) as f:
            states2.add(_json.load(f)["state"])
    assert "REPLICATING" in states2


def test_cli_and_lineage_report(tmp_log, tmp_lake, capsys):
    """python -m deltaray surface: gen → replay → lineage → assess."""
    import json as _json

    from deltaray.__main__ import main

    assert main(["gen", "--out", tmp_log, "--docs", "80", "--events", "400",
                 "--seed", "5"]) == 0
    assert main(["replay", "--event-log", tmp_log, "--lake", tmp_lake,
                 "--partitions", "4"]) == 0
    assert main(["lineage", "--lake", tmp_lake]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    rep = _json.loads(out[-1])
    assert "docs" in rep["tables"]
    assert rep["tables"]["docs"]["min_committed_seq"] > 0
    assert main(["assess", "--event-log", tmp_log]) == 0
    # snapshots / changes / reshard surface
    assert main(["snapshots", "--lake", tmp_lake, "--table", "docs"]) == 0
    snap = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert snap["watermark"] > 0 and snap["anchors"]
    assert main(["changes", "--lake", tmp_lake, "--table", "docs",
                 "--since", "0", "--as-of", str(snap["anchors"][-1])]) == 0
    ch = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert ch["rows"] > 0
    assert main(["changes", "--lake", tmp_lake, "--table", "docs"]) == 0
    quiet = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert quiet["rows"] == 0  # watermark anchor → empty feed
    assert main(["reshard", "--lake", tmp_lake, "--partitions", "3"]) == 0
    rs = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rs["generation"] == 1 and rs["tables"]["docs"]["partitions"] == 3


def test_vacuum_bounds_lake_files(tmp_log, tmp_lake):
    """Vacuum + compaction bound live files per partition: compact_every=1
    reproduces pure copy-on-write (exactly one file); the default delta
    mode keeps at most compact_every files; resume correctness is
    unaffected either way."""
    import glob as _glob

    write_event_log(tmp_log, n_docs=100, n_events=2000, seed=61,
                    segment_max_events=300)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=2,
                       chunk_max_events=400, compact_every=1)
    _check(cfg)  # multi-chunk replay, equality vs oracle
    for pdir in _glob.glob(f"{tmp_lake}/gen=0000/docs/part=*"):
        files = [f for f in _glob.glob(pdir + "/data-*.parquet")]
        assert len(files) == 1, pdir
    # default: delta commits accumulate up to compact_every live files
    lake3 = tmp_lake + "-delta"
    cfg3 = ReplayConfig(event_log=tmp_log, lake=lake3, num_partitions=2,
                        chunk_max_events=400)
    _check(cfg3)
    for pdir in _glob.glob(f"{lake3}/gen=0000/docs/part=*"):
        files = _glob.glob(pdir + "/data-*.parquet")
        assert 1 <= len(files) <= cfg3.compact_every, pdir
    # without vacuum, files accumulate per chunk
    lake2 = tmp_lake + "-nv"
    cfg2 = ReplayConfig(event_log=tmp_log, lake=lake2, num_partitions=2,
                        chunk_max_events=400, vacuum=False,
                        compact_every=1)
    _check(cfg2)
    some = _glob.glob(f"{lake2}/gen=0000/docs/part=00000/data-*.parquet")
    assert len(some) > 1


def test_incremental_tail_replay(tmp_log, tmp_lake):
    """CDC tailing: new events appended to the log after a completed
    replay are picked up by the next replay; completed chunks are
    skipped, only the tail range reprocesses (EventReader.start(Offset)
    analog, delta-api/.../EventReader.java:22-52)."""
    import glob as _glob
    import os as _os
    import shutil as _shutil

    import json as _json

    # full stream generated once; phase 1 sees only a truncated prefix
    ext = tmp_log + "-ext"
    write_event_log(ext, n_docs=150, n_events=3000, seed=67,
                    segment_max_events=500)
    with open(f"{ext}/manifest.json") as f:
        man = _json.load(f)
    prefix = [s for s in man["segments"] if s["seq_hi"] <= 2000]
    assert len(prefix) >= 2
    _os.makedirs(tmp_log, exist_ok=True)
    for s in prefix:
        _shutil.copy(s["path"], tmp_log)
    pman = dict(man, segments=[
        dict(s, path=_os.path.join(tmp_log, _os.path.basename(s["path"])))
        for s in prefix
    ], max_seq=max(s["seq_hi"] for s in prefix))
    with open(f"{tmp_log}/manifest.json", "w") as f:
        _json.dump(pman, f)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=500)
    replay(cfg)

    # phase 2: the tail arrives — copy the remaining segments + manifest
    for s in man["segments"]:
        if s["seq_hi"] > 2000:
            _shutil.copy(s["path"], tmp_log)
    fman = dict(man, segments=[
        dict(s, path=_os.path.join(tmp_log, _os.path.basename(s["path"])))
        for s in man["segments"]
    ])
    with open(f"{tmp_log}/manifest.json", "w") as f:
        _json.dump(fman, f)

    applied = []
    replay(cfg, on_chunk=lambda i, c, rows: applied.append((c.seq_lo, c.seq_hi)))
    # the fully-committed prefix is skipped; only tail chunks ran
    assert applied, "no tail chunks applied"
    assert min(lo for lo, _ in applied) >= 1500  # prefix chunks skipped
    oracle = replay_oracle(ReplayConfig(event_log=ext, lake=tmp_lake + "-o",
                                        num_partitions=4))
    got = read_table(tmp_lake, "docs")
    ok, msg = tables_equal(got, oracle["docs"])
    assert ok, msg


def test_generation_isolation(tmp_log, tmp_lake):
    """Recreated pipelines are isolated by generation (ST7,
    DeltaWorker.java:140-150): replaying the same log into generation 1
    does not touch generation 0's state."""
    write_event_log(tmp_log, n_docs=60, n_events=300, seed=91)
    r0 = replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake,
                             num_partitions=2, generation=0))
    r1 = replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake,
                             num_partitions=2, generation=1))
    t0 = read_table(tmp_lake, "docs", generation=0)
    t1 = read_table(tmp_lake, "docs", generation=1)
    ok, msg = tables_equal(t0, t1)
    assert ok, msg
    # gen 1 replay did real work (no cross-generation checkpoint reuse)
    assert r1["metrics"]["total"]["dml_events"] == \
        r0["metrics"]["total"]["dml_events"] > 0


def test_multi_component_sort_keys(tmp_log, tmp_lake):
    """UN_ORDERED tie-break cascades through sort_keys components
    (SortKey.java:26-41 — a LIST of tiebreakers): same source_ts and same
    sk[0] → sk[1] decides, regardless of arrival (seq) order."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from deltaray.schemas import (ddl_payload, default_table_schema,
                                  event_log_schema)

    schema = default_table_schema()
    log_schema = event_log_schema(schema)
    ts = 1704067200_000000

    def row(seq, op, doc, tok, sk, **kw):
        r = {"seq": seq, "op": op, "table": "docs", "doc_id": doc,
             "tokens": tok, "n_tok": len(tok) if tok else None,
             "source": "web" if tok else None,
             "ingest_ts": ts + seq, "source_ts": ts, "is_snapshot": False,
             "sort_keys": sk}
        r.update(kw)
        return r

    rows = [
        {"seq": 1, "op": "CREATE_TABLE", "table": "docs",
         "ddl_payload": ddl_payload("CREATE_TABLE", schema=schema),
         "ingest_ts": ts, "source_ts": ts, "is_snapshot": True},
        # arrival order is the REVERSE of logical order: the logically
        # newest version (sk=[5,9]) arrives first
        row(2, "INSERT", "d1", [9, 9, 9], [5, 9]),
        row(3, "UPDATE", "d1", [1, 1, 1], [5, 3]),   # older by sk[1]
        row(4, "UPDATE", "d1", [2, 2, 2], [4, 99]),  # older by sk[0]
        # d2: identical (ts, sk0, sk1) → seq breaks the tie, last wins
        row(5, "INSERT", "d2", [7], [1, 1]),
        row(6, "UPDATE", "d2", [8], [1, 1]),
    ]
    import os
    os.makedirs(tmp_log, exist_ok=True)
    cols = {f.name: [r.get(f.name) for r in rows] for f in log_schema}
    pq.write_table(pa.table(cols, schema=log_schema),
                   f"{tmp_log}/events-00000-000000000001-000000000006.parquet",
                   row_group_size=16384)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=2,
                       ordering="UN_ORDERED")
    _check(cfg)
    got = read_table(tmp_lake, "docs")
    by_id = {r["doc_id"]: r["tokens"] for r in got.to_pylist()}
    assert by_id["d1"] == [9, 9, 9]   # sk=[5,9] wins despite earliest arrival
    assert by_id["d2"] == [8]         # full tie → max seq wins


def test_replay_follow_tails_the_log(tmp_log, tmp_lake):
    """replay_follow picks up segments appended between polling cycles and
    stops after the configured idle polls."""
    import json as _json
    import os as _os
    import shutil as _shutil

    from deltaray.pipeline import replay_follow

    ext = tmp_log + "-full"
    write_event_log(ext, n_docs=100, n_events=1200, seed=97,
                    segment_max_events=300)
    with open(f"{ext}/manifest.json") as f:
        man = _json.load(f)

    def publish(upto):
        segs = [s for s in man["segments"] if s["seq_hi"] <= upto] or man["segments"]
        _os.makedirs(tmp_log, exist_ok=True)
        for s in segs:
            dst = _os.path.join(tmp_log, _os.path.basename(s["path"]))
            if not _os.path.exists(dst):
                _shutil.copy(s["path"], dst)
        with open(f"{tmp_log}/manifest.json", "w") as f:
            _json.dump(dict(man, segments=[
                dict(s, path=_os.path.join(tmp_log, _os.path.basename(s["path"])))
                for s in segs
            ], max_seq=max(s["seq_hi"] for s in segs)), f)

    publish(600)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=2,
                       chunk_max_events=300)
    cycles = []

    def on_cycle(i, applied, res):
        cycles.append(len(applied))
        if i == 0:
            publish(10**9)  # rest of the log arrives after the first cycle

    replay_follow(cfg, poll_seconds=0.01, idle_polls=2, on_cycle=on_cycle)
    assert cycles[0] > 0 and cycles[1] > 0      # both phases applied work
    assert cycles[-1] == 0 and cycles[-2] == 0  # stopped on idle
    ocfg = ReplayConfig(event_log=ext, lake=tmp_lake + "-o", num_partitions=2)
    ok, msg = tables_equal(read_table(tmp_lake, "docs"),
                           replay_oracle(ocfg)["docs"])
    assert ok, msg


def test_read_changes_incremental(tmp_log, tmp_lake):
    """CDC-out: after a tail replay, read_changes(since) returns exactly
    the delta that turns the old snapshot into the new one — apply the
    UPSERTs and DELETEs to t1 and the result equals t2."""
    import json as _json
    import os as _os
    import shutil as _shutil

    from deltaray.pipeline import read_changes

    man = write_event_log(tmp_log, n_docs=150, n_events=2500, seed=37,
                          segment_max_events=500)
    # prefix log: first half of the segments, same files
    half = tmp_log + "-half"
    _os.makedirs(half, exist_ok=True)
    segs = man["segments"]
    head = segs[: len(segs) // 2]
    assert head and len(head) < len(segs)
    for s in head:
        _shutil.copy(s["path"], half)
    cut = max(s["seq_hi"] for s in head)
    hman = dict(man, max_seq=cut, segments=[
        dict(s, path=_os.path.join(half, _os.path.basename(s["path"])))
        for s in head
    ])
    with open(_os.path.join(half, "manifest.json"), "w") as f:
        _json.dump(hman, f)

    cfg_half = ReplayConfig(event_log=half, lake=tmp_lake, num_partitions=4,
                            chunk_max_events=600)
    replay(cfg_half)
    t1 = read_table(tmp_lake, "docs").to_pandas()
    # no changes past the committed high-water mark yet
    assert read_changes(tmp_lake, "docs", cut).count() == 0

    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=600)
    replay(cfg)  # resumes: applies only the tail
    t2 = read_table(tmp_lake, "docs").to_pandas()

    def collect(ds):
        import pyarrow as _pa

        # ragged list columns defeat Dataset.to_pandas's tensor casting
        tabs = list(ds.iter_batches(batch_format="pyarrow"))
        return _pa.concat_tables(tabs).to_pandas()

    ch = collect(read_changes(tmp_lake, "docs", cut))

    assert (ch["seq"] > cut).all()
    assert ch["doc_id"].is_unique  # at most one row per key
    assert set(ch["change"]) <= {"UPSERT", "DELETE"}

    def rowmap(df):
        cols = [c for c in df.columns if c not in ("change", "seq")]
        return {r["doc_id"]: tuple(
            tuple(v) if isinstance(v, (list, tuple)) or hasattr(v, "__len__")
            and not isinstance(v, (str, bytes)) else v
            for c, v in ((c, r[c]) for c in cols))
            for _, r in df.iterrows()}

    state = rowmap(t1)
    for _, r in ch.iterrows():
        if r["change"] == "DELETE":
            state.pop(r["doc_id"], None)
        else:
            state[r["doc_id"]] = tuple(
                tuple(v) if isinstance(v, (list, tuple)) or hasattr(v, "__len__")
                and not isinstance(v, (str, bytes)) else v
                for v in (r[c] for c in t1.columns))
    assert state == rowmap(t2)
    # full-lake changes from seq 0 reproduce the live table (plus deletes)
    full = collect(read_changes(tmp_lake, "docs", 0))
    ups = full[full["change"] == "UPSERT"]
    assert rowmap(ups) == rowmap(t2)


def test_read_changes_unordered(tmp_log, tmp_lake):
    """read_changes under UN_ORDERED sources: late events that LOSE the
    (source_ts, sort_keys) race change nothing and are absent from the
    feed; t1 + changes still equals t2 exactly."""
    import json as _json
    import os as _os
    import shutil as _shutil

    import pyarrow as pa

    from deltaray.pipeline import read_changes

    man = write_event_log(tmp_log, n_docs=120, n_events=2200, seed=43,
                          segment_max_events=400, unordered=True)
    half = tmp_log + "-half"
    _os.makedirs(half, exist_ok=True)
    head = man["segments"][: len(man["segments"]) // 2]
    for s in head:
        _shutil.copy(s["path"], half)
    cut = max(s["seq_hi"] for s in head)
    hman = dict(man, max_seq=cut, segments=[
        dict(s, path=_os.path.join(half, _os.path.basename(s["path"])))
        for s in head
    ])
    with open(_os.path.join(half, "manifest.json"), "w") as f:
        _json.dump(hman, f)

    kw = dict(lake=tmp_lake, num_partitions=4, chunk_max_events=500,
              ordering="UN_ORDERED")
    replay(ReplayConfig(event_log=half, **kw))
    t1 = read_table(tmp_lake, "docs").to_pandas()
    replay(ReplayConfig(event_log=tmp_log, **kw))
    t2 = read_table(tmp_lake, "docs").to_pandas()
    ch = pa.concat_tables(list(
        read_changes(tmp_lake, "docs", cut)
        .iter_batches(batch_format="pyarrow"))).to_pandas()
    assert (ch["seq"] > cut).all() and ch["doc_id"].is_unique

    def rowmap(df):
        cols = [c for c in df.columns if c not in ("change", "seq")]
        return {r["doc_id"]: tuple(
            tuple(v) if hasattr(v, "__len__") and
            not isinstance(v, (str, bytes)) else v
            for v in (r[c] for c in cols)) for _, r in df.iterrows()}

    state = rowmap(t1)
    for _, r in ch.iterrows():
        if r["change"] == "DELETE":
            state.pop(r["doc_id"], None)
        else:
            state[r["doc_id"]] = tuple(
                tuple(v) if hasattr(v, "__len__") and
                not isinstance(v, (str, bytes)) else v
                for v in (r[c] for c in t1.columns))
    assert state == rowmap(t2)


def test_follow_with_streaming_changes_consumer(tmp_log, tmp_lake):
    """The full streaming loop: replay_follow tails a growing log while a
    downstream consumer maintains its OWN copy of the table purely from
    read_changes feeds (one incremental pull per cycle, anchored at the
    previous cycle's committed high-water mark).  The consumer's state
    converges to the lake's live table without ever scanning it."""
    import json as _json
    import os as _os
    import shutil as _shutil

    import pyarrow as pa

    from deltaray.pipeline import read_changes, replay_follow

    ext = tmp_log + "-full"
    man0 = write_event_log(ext, n_docs=100, n_events=1600, seed=101,
                           segment_max_events=250)

    def publish(upto):
        segs = [s for s in man0["segments"] if s["seq_hi"] <= upto] \
            or man0["segments"]
        _os.makedirs(tmp_log, exist_ok=True)
        for s in segs:
            dst = _os.path.join(tmp_log, _os.path.basename(s["path"]))
            if not _os.path.exists(dst):
                _shutil.copy(s["path"], dst)
        with open(f"{tmp_log}/manifest.json", "w") as f:
            _json.dump(dict(man0, segments=[
                dict(s, path=_os.path.join(tmp_log,
                                           _os.path.basename(s["path"])))
                for s in segs
            ], max_seq=max(s["seq_hi"] for s in segs)), f)

    publish(500)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=2,
                       chunk_max_events=250)
    consumer: dict = {}
    mark = {"seq": 0}
    pulls = []

    def pull():
        tabs = list(read_changes(tmp_lake, "docs", mark["seq"])
                    .iter_batches(batch_format="pyarrow"))
        if not tabs:
            pulls.append(0)
            return
        ch = pa.concat_tables(tabs)
        n = 0
        for r in ch.to_pylist():
            n += 1
            mark["seq"] = max(mark["seq"], r["seq"])
            if r["change"] == "DELETE":
                consumer.pop(r["doc_id"], None)
            else:
                consumer[r["doc_id"]] = (tuple(r["tokens"]), r["n_tok"],
                                         r["source"])
        pulls.append(n)

    grow = iter([900, 10**9])

    def on_cycle(i, applied, res):
        if applied:
            pull()
        nxt = next(grow, None)
        if nxt is not None and applied:
            publish(nxt)

    replay_follow(cfg, poll_seconds=0.01, idle_polls=2, on_cycle=on_cycle)
    pull()  # drain anything applied after the last mid-cycle pull
    assert sum(1 for n in pulls if n > 0) >= 2  # genuinely incremental
    live = read_table(tmp_lake, "docs").to_pylist()
    want = {r["doc_id"]: (tuple(r["tokens"]), r["n_tok"], r["source"])
            for r in live}
    assert consumer == want


def test_committed_watermark_anchor(tmp_log, tmp_lake):
    """committed_watermark = min committed seq across partitions; after a
    partial run (killed mid-replay) it is the largest anchor from which
    read_changes (post-recovery) misses nothing."""
    from deltaray.pipeline import committed_watermark

    write_event_log(tmp_log, n_docs=100, n_events=1500, seed=53,
                    segment_max_events=250)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=300)

    class Kill(Exception):
        pass

    calls = []

    def killer(idx, chunk, rows):
        calls.append(idx)
        if len(calls) == 2:
            raise Kill()

    with pytest.raises(Kill):
        replay(cfg, on_chunk=killer)
    wm1 = committed_watermark(tmp_lake, "docs")
    assert wm1 > 0
    replay(cfg)  # recover
    wm2 = committed_watermark(tmp_lake, "docs")
    assert wm2 > wm1
    # nothing past the final watermark; everything after wm1 shows up
    from deltaray.pipeline import read_changes
    assert read_changes(tmp_lake, "docs", wm2).count() == 0
    assert read_changes(tmp_lake, "docs", wm1).count() > 0
