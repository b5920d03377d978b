"""Core replay correctness: engine lake == oracle final state, row-for-row
with token-array equality per doc_id (FIXTURES.md §3: smoke_insert,
upsert_lww; reference analog testOneRun,
DeltaPipelineStateStoreBaseTest.java:127-173)."""

import pyarrow.compute as pc

from deltaray import ReplayConfig, replay, replay_oracle
from deltaray.gen import gen_base, write_event_log
from deltaray.oracle import tables_equal
from deltaray.pipeline import read_table, read_table_ds


def check_matches_oracle(cfg: ReplayConfig, tables=("docs",)):
    result = replay(cfg)
    oracle = replay_oracle(cfg)
    for t in tables:
        got = read_table(cfg.lake, t, cfg.generation)
        ok, msg = tables_equal(got, oracle[t], key=oracle[t].column_names[0])
        assert ok, f"{t}: {msg}"
    return result


def test_smoke_insert_only(tmp_log, tmp_lake):
    """Snapshot-only stream: lake == base table."""
    write_event_log(tmp_log, n_docs=200, n_events=0, seed=1)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=100_000)
    check_matches_oracle(cfg)
    got = read_table(tmp_lake, "docs")
    base = gen_base(200, 1, "docs")  # seeds differ inside write_event_log
    assert got.num_rows == 200
    # n_tok invariant holds
    assert pc.all(
        pc.equal(pc.list_value_length(got["tokens"]).cast("int32"), got["n_tok"])
    ).as_py()


def test_upsert_lww(tmp_log, tmp_lake):
    """Mixed INSERT/UPDATE/DELETE with Zipf skew; multiple changes to one
    doc_id within one chunk → last writer (max seq) wins."""
    write_event_log(tmp_log, n_docs=300, n_events=3000, seed=7)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=8,
                       chunk_max_events=100_000)
    check_matches_oracle(cfg)


def test_multi_chunk_replay(tmp_log, tmp_lake):
    """Chunked replay (several merge rounds against a growing lake)."""
    write_event_log(tmp_log, n_docs=200, n_events=2500, seed=11,
                    segment_max_events=500)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=600)
    res = check_matches_oracle(cfg)
    assert res["chunks"] > 3


def test_hot_key(tmp_log, tmp_lake):
    """50% of events hit one doc_id (FIXTURES hot_key): two-phase LWW
    pre-reduction must still produce the exact oracle state."""
    write_event_log(tmp_log, n_docs=100, n_events=4000, seed=13, hot_key_frac=0.5)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=1000)
    check_matches_oracle(cfg)


def test_read_table_ds_matches_driver_read(tmp_log, tmp_lake):
    write_event_log(tmp_log, n_docs=150, n_events=1000, seed=5)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4)
    replay(cfg)
    via_ds = read_table_ds(tmp_lake, "docs").to_arrow_refs()
    import pyarrow as pa
    import ray

    tbl = pa.concat_tables([t for t in ray.get(via_ds) if t.num_rows]).sort_by("doc_id")
    driver = read_table(tmp_lake, "docs")
    ok, msg = tables_equal(tbl, driver)
    assert ok, msg


def test_metrics_accumulate(tmp_log, tmp_lake):
    write_event_log(tmp_log, n_docs=100, n_events=1000, seed=3)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4)
    res = replay(cfg)
    m = res["metrics"]["total"]
    # snapshot inserts (100) + 1000 stream events, minus none blacklisted
    assert m["dml_events"] == 1100
    assert m["inserts"] >= 100


def test_merge_lists_partition_once_before_commit(tmp_log, tmp_lake,
                                                  tmp_path, monkeypatch):
    """One commit listing per merge: the coverage check, the compact
    decision, the slim-state read of a delta chunk and the state read of
    a compacting chunk all share it.  The merge runs on Ray workers, so
    the spy travels inside the pickled merge closure and appends one
    JSON line per applied merge: the listings of its partition before
    its ``try_commit``, and the commit kind."""
    import json

    import deltaray.pipeline as pl

    out = str(tmp_path / "merge_lists.jsonl")
    real_make = pl.make_merge_fn

    def spied_make(*args, **kwargs):
        merge = real_make(*args, **kwargs)

        def spied(group):
            from deltaray.commit import LakeState

            raw, commit = LakeState._list_commits_raw, LakeState.try_commit
            seen = {"lists": 0, "kind": None}

            def list_spy(self, table, part):
                if seen["kind"] is None:
                    seen["lists"] += 1
                return raw(self, table, part)

            def commit_spy(self, *a, **kw):
                seen["kind"] = kw.get("kind", "base")
                return commit(self, *a, **kw)

            LakeState._list_commits_raw = list_spy
            LakeState.try_commit = commit_spy
            try:
                res = merge(group)
            finally:
                LakeState._list_commits_raw, LakeState.try_commit = \
                    raw, commit
            if seen["kind"] is not None:
                with open(out, "a") as fh:
                    fh.write(json.dumps(seen) + "\n")
            return res
        return spied

    monkeypatch.setattr(pl, "make_merge_fn", spied_make)
    write_event_log(tmp_log, n_docs=80, n_events=1600, seed=23,
                    segment_max_events=200)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=2,
                       chunk_max_events=200, compact_every=3)
    check_matches_oracle(cfg)
    with open(out) as fh:
        recs = [json.loads(line) for line in fh]
    kinds = {r["kind"] for r in recs}
    assert kinds == {"base", "delta"}, recs
    assert all(r["lists"] == 1 for r in recs), recs
