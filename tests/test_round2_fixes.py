"""Round-2 regression tests for the judge/advisor findings:

- per-row op-count alignment in the unique-key fast path of
  ``lww_pre_reduce_with_counts`` (ADVICE transforms.py:543);
- null-primary-key DML rows are skipped, not a crash (ADVICE :538,
  matching the oracle's ``if key is None: continue``);
- DROP_TABLE then CREATE_TABLE of the same name recreates an empty
  table — no resurrection of pre-drop rows (ADVICE pipeline.py:508);
- generation-level physical config (num_partitions) is persisted and a
  mismatched re-run fails fast (ADVICE config.py:64);
- broadcast upsert/enrich probes preserve Arrow types on unmatched keys
  and define duplicate-key behavior (ADVICE cdc_queries.py:212).
"""

import numpy as np
import pyarrow as pa
import pytest

from deltaray import ReplayConfig, replay, replay_oracle
from deltaray.gen import write_event_log
from deltaray.oracle import tables_equal
from deltaray.pipeline import read_table
from deltaray.schemas import default_table_schema
from deltaray.transforms import TransformStage, lww_pre_reduce_with_counts


def _mini_cfg(tmp_path_str="/tmp/x"):
    return ReplayConfig(event_log=tmp_path_str, lake=tmp_path_str)


def test_lww_precount_unique_key_fast_path_alignment():
    """All-unique-key batch: every row keeps ITS OWN op count (the fast
    path used to attach counts in winner order to rows in input order)."""
    n = 6
    ops = ["INSERT", "UPDATE", "DELETE", "UPDATE", "INSERT", "DELETE"]
    tbl = pa.table({
        "doc_id": pa.array([f"k{i}" for i in [3, 1, 5, 0, 4, 2]]),
        "__seq": pa.array(np.arange(n, dtype=np.int64)),
        "__src_ts": pa.array(np.zeros(n, dtype=np.int64)),
        "__sk0": pa.array(np.zeros(n, dtype=np.int64)),
        "__sk1": pa.array(np.zeros(n, dtype=np.int64)),
        "__deleted": pa.array([o == "DELETE" for o in ops]),
        "__op": pa.array(ops),
        "__snap": pa.array([False] * n),
    })
    out = lww_pre_reduce_with_counts(tbl, "doc_id")
    assert out.num_rows == n
    for i in range(n):
        op = out["__op"][i].as_py()
        counts = {c: out[f"__n_{c}"][i].as_py()
                  for c in ("ins", "upd", "del")}
        want = {"ins": 0, "upd": 0, "del": 0}
        want[{"INSERT": "ins", "UPDATE": "upd", "DELETE": "del"}[op]] = 1
        assert counts == want, f"row {i}: op={op} counts={counts}"


def test_null_key_rows_skipped():
    """A DML row with a null primary key is silently dropped (oracle
    semantics), not a bincount crash."""
    schema = default_table_schema("docs")
    cfg = _mini_cfg()
    stage = TransformStage(cfg, {"docs": schema}, {"docs": schema})
    batch = pa.table({
        "seq": pa.array([1, 2, 3], pa.int64()),
        "op": pa.array(["INSERT", "INSERT", "UPDATE"]),
        "table": pa.array(["docs"] * 3),
        "doc_id": pa.array(["a", None, "c"]),
        "tokens": pa.array([[1, 2], [3], [4]], pa.list_(pa.int32())),
        "n_tok": pa.array([2, 1, 1], pa.int32()),
        "source": pa.array(["web"] * 3),
    })
    out = stage(batch)
    assert out.num_rows == 2
    assert sorted(out["doc_id"].to_pylist()) == ["a", "c"]
    # all-null-key batch must yield an empty (not crashing) result
    batch_null = batch.set_column(
        batch.column_names.index("doc_id"), "doc_id",
        pa.array([None, None, None], pa.string()))
    out2 = stage(batch_null)
    assert out2.num_rows == 0


def test_drop_then_recreate_table(tmp_log, tmp_lake):
    """DROP_TABLE then CREATE_TABLE of the same name: the recreated table
    starts empty and replicates only post-recreate events — pre-drop rows
    must not resurrect from old commits (oracle resets state on DROP)."""
    write_event_log(
        tmp_log, n_docs=40, n_events=600, seed=71,
        ddl=[(200, "docs", "DROP_TABLE", {}),
             (320, "docs", "CREATE_TABLE", {})],
    )
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=150)
    replay(cfg)
    oracle = replay_oracle(cfg)
    got = read_table(tmp_lake, "docs")
    ok, msg = tables_equal(got, oracle["docs"])
    assert ok, msg
    assert got.num_rows > 0  # post-recreate stream actually replicated
    # replay again (resume no-op) — still equal, still no resurrection
    replay(cfg)
    got2 = read_table(tmp_lake, "docs")
    ok, msg = tables_equal(got2, oracle["docs"])
    assert ok, msg


def test_generation_meta_mismatch_fails_fast(tmp_log, tmp_lake):
    write_event_log(tmp_log, n_docs=20, n_events=100, seed=73)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4))
    with pytest.raises(ValueError, match="generation config mismatch"):
        replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake,
                            num_partitions=8))
    # same config resumes fine
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4))


def test_upsert_into_base_type_preserving_and_dup_keys(ray_session):
    import ray.data

    from deltaray.functions.cdc_queries import upsert_into_base

    base = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4], pa.int64()),
        "name": pa.array(["a", "b", "c", "d"]),
    }))
    changes = pa.table({
        "ck": pa.array([2, 2, 4], pa.int64()),          # duplicate key 2
        "v": pa.array([20, 99, 40], pa.int64()),        # int values
    })
    out = pa.concat_tables(list(
        upsert_into_base(base, changes, base_key="k", change_key="ck",
                         value_cols=["v"]).iter_batches(batch_format="pyarrow")
    )).sort_by("k")
    # int64 stays int64 (null, not NaN/float64, where unmatched)
    assert out["v"].type == pa.int64()
    assert out["v"].to_pylist() == [None, 20, None, 40]  # first dup wins


def test_broadcast_enrich_dup_dim_keys(ray_session):
    import ray.data

    from deltaray.functions.joins import broadcast_enrich

    stream = ray.data.from_arrow(pa.table({
        "sk": pa.array([10, 11, 12], pa.int32()),
        "x": pa.array([1.0, 2.0, 3.0]),
    }))
    dims = pa.table({
        "dk": pa.array([11, 11, 12], pa.int64()),
        "label": pa.array(["first", "second", "z"]),
    })
    out = pa.concat_tables(list(
        broadcast_enrich(stream, dims, stream_key="sk", dim_key="dk",
                         value_cols=["label"])
        .iter_batches(batch_format="pyarrow")
    )).sort_by("sk")
    assert out["label"].to_pylist() == [None, "first", "z"]


def test_three_component_sort_keys(tmp_log, tmp_lake):
    """cfg.sort_key_components=3: the THIRD SortKey tiebreak is honored
    (SortKey.java:26-41 models an arbitrary-length list; the engine used
    to hardcode two components)."""
    import os

    import pyarrow.parquet as pq

    from deltaray.schemas import (ddl_payload, default_table_schema,
                                  event_log_schema)

    schema = default_table_schema()
    log_schema = event_log_schema(schema)
    ts = 1704067200_000000

    def row(seq, op, doc, tok, sk):
        return {"seq": seq, "op": op, "table": "docs", "doc_id": doc,
                "tokens": tok, "n_tok": len(tok), "source": "web",
                "ingest_ts": ts + seq, "source_ts": ts,
                "is_snapshot": False, "sort_keys": sk}

    rows = [
        {"seq": 1, "op": "CREATE_TABLE", "table": "docs",
         "ddl_payload": ddl_payload("CREATE_TABLE", schema=schema),
         "ingest_ts": ts, "source_ts": ts, "is_snapshot": True},
        # equal (ts, sk0, sk1): sk2 must decide, against arrival order
        row(2, "INSERT", "d1", [9, 9], [1, 2, 7]),   # logically newest
        row(3, "UPDATE", "d1", [1, 1], [1, 2, 3]),   # older by sk[2]
        # with only 2 components honored, seq would (wrongly) pick seq=3
    ]
    os.makedirs(tmp_log, exist_ok=True)
    cols = {f.name: [r.get(f.name) for r in rows] for f in log_schema}
    pq.write_table(pa.table(cols, schema=log_schema),
                   f"{tmp_log}/events-00000-000000000001-000000000003.parquet")
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=2,
                       ordering="UN_ORDERED", sort_key_components=3)
    replay(cfg)
    oracle = replay_oracle(cfg)
    got = read_table(tmp_lake, "docs")
    ok, msg = tables_equal(got, oracle["docs"])
    assert ok, msg
    by_id = {r["doc_id"]: r["tokens"] for r in got.to_pylist()}
    assert by_id["d1"] == [9, 9]  # sk[2]=7 beats sk[2]=3 despite lower seq


def test_previous_row_tracking(tmp_log, tmp_lake):
    """track_previous carries each winning event's before-image
    (DMLEvent.previousRow, DMLEvent.java:66-72) into the lake; the final
    table's prev_tokens matches the oracle's row-for-row."""
    write_event_log(tmp_log, n_docs=80, n_events=1200, seed=79,
                    track_prev=True)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=400, track_previous=True)
    replay(cfg)
    oracle = replay_oracle(cfg)
    got = read_table(tmp_lake, "docs", with_previous=True)
    assert "prev_tokens" in got.column_names
    ok, msg = tables_equal(got, oracle["docs"])
    assert ok, msg
    # updated rows actually carry a non-null before-image
    n_prev = sum(v is not None for v in got["prev_tokens"].to_pylist())
    assert n_prev > 0
    # the default read hides the audit column
    plain = read_table(tmp_lake, "docs")
    assert "prev_tokens" not in plain.column_names


def test_macro_expansion_in_config():
    """${key} macros in paths and directive chains resolve from
    runtime_args at config construction (DeltaWorker.java:208-213 macro
    evaluation at plugin instantiation)."""
    from deltaray import TableConfig

    cfg = ReplayConfig(
        event_log="/tmp/${env}/events", lake="/tmp/${env}/lake",
        tables=[TableConfig("docs",
                            transformations=["mask tokens 0 ${mask_n}"])],
        runtime_args={"env": "prod", "mask_n": "4"},
    )
    assert cfg.event_log == "/tmp/prod/events"
    assert cfg.lake == "/tmp/prod/lake"
    assert cfg.tables[0].transformations == ["mask tokens 0 4"]
    with pytest.raises(KeyError):
        ReplayConfig(event_log="/tmp/${missing}/e", lake="/tmp/l",
                     runtime_args={"env": "x"})


def test_draft_store_crud_and_assess(tmp_path, tmp_log):
    """DraftService analog: CRUD drafts of pipeline configs, macro-resolved
    instantiation, dry-run assessment (DraftService.java:42-101,
    AssessmentHandler.java:77-311)."""
    from deltaray import TableConfig
    from deltaray.drafts import DraftStore

    write_event_log(tmp_log, n_docs=20, n_events=60, seed=83)
    store = DraftStore(str(tmp_path / "drafts"))
    cfg = ReplayConfig(event_log=tmp_log, lake="/tmp/${env}/lake",
                       tables=[TableConfig("docs")],
                       runtime_args={"env": "keepme"})
    store.save("p1", cfg)
    assert store.list() == ["p1"]
    got = store.get("p1")
    assert got["event_log"] == tmp_log
    # round-trip: dict -> config preserves tables/knobs
    cfg2 = store.to_config("p1")
    assert cfg2.table_names == {"docs"}
    assert cfg2.num_partitions == cfg.num_partitions
    # a draft saved with unresolved macros resolves at instantiation
    raw = got | {"lake": "/tmp/${env}/lake"}
    store.save("p2", raw)
    cfg3 = store.to_config("p2", runtime_args={"env": "prod"})
    assert cfg3.lake == "/tmp/prod/lake"
    rep = store.assess("p2", runtime_args={"env": "prod"})
    assert rep["ok"] and rep["assessments"]
    assert store.delete("p1") and not store.delete("p1")
    assert store.list() == ["p2"]


def test_generation_scans(tmp_log, tmp_lake):
    from deltaray.commit import latest_generation, list_generations

    assert list_generations(tmp_lake) == []
    assert latest_generation(tmp_lake) is None
    write_event_log(tmp_log, n_docs=10, n_events=30, seed=89)
    for g in (0, 2):
        replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake, generation=g,
                            num_partitions=2))
    assert list_generations(tmp_lake) == [0, 2]
    assert latest_generation(tmp_lake) == 2


def test_watermark_and_late_event_metrics(tmp_log, tmp_lake):
    """UN_ORDERED replication-lag signals: per-partition watermark
    (max applied source_ts; table watermark = min over partitions) and a
    late_events counter for arrivals superseded by already-committed
    state across chunk boundaries."""
    import os

    import pyarrow.parquet as pq

    from deltaray.pipeline import lineage_report
    from deltaray.schemas import (ddl_payload, default_table_schema,
                                  event_log_schema)

    schema = default_table_schema()
    log_schema = event_log_schema(schema)
    ts0 = 1704067200_000000

    def row(seq, doc, tok, src_ts):
        return {"seq": seq, "op": "UPDATE", "table": "docs", "doc_id": doc,
                "tokens": tok, "n_tok": len(tok), "source": "web",
                "ingest_ts": ts0 + seq, "source_ts": src_ts,
                "is_snapshot": False, "sort_keys": [0, 0]}

    rows = [
        {"seq": 1, "op": "CREATE_TABLE", "table": "docs",
         "ddl_payload": ddl_payload("CREATE_TABLE", schema=schema),
         "ingest_ts": ts0, "source_ts": ts0, "is_snapshot": True},
        row(2, "d1", [1], ts0 + 500),   # chunk 1
        row(3, "d2", [2], ts0 + 900),
        row(4, "d1", [9], ts0 + 100),   # chunk 2: LATE — loses to seq 2
        row(5, "d2", [8], ts0 + 950),   # chunk 2: on-time update
    ]
    os.makedirs(tmp_log, exist_ok=True)
    # two segments → two chunks (chunk planning splits on segment
    # boundaries), so the seq-4 late arrival merges against COMMITTED state
    for name, seg in [("events-00000-000000000001-000000000003", rows[:3]),
                      ("events-00001-000000000004-000000000005", rows[3:])]:
        cols = {f.name: [r.get(f.name) for r in seg] for f in log_schema}
        pq.write_table(pa.table(cols, schema=log_schema),
                       f"{tmp_log}/{name}.parquet", row_group_size=2)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=1,
                       ordering="UN_ORDERED", chunk_max_events=1)
    res = replay(cfg)
    oracle = replay_oracle(cfg)
    got = read_table(tmp_lake, "docs")
    ok, msg = tables_equal(got, oracle["docs"])
    assert ok, msg
    assert res["metrics"]["tables"]["docs"]["late_events"] == 1
    rep = lineage_report(tmp_lake, "docs")
    assert rep["tables"]["docs"]["watermark_src_ts"] == ts0 + 950


def test_delta_commits_and_compaction(tmp_log, tmp_lake):
    """Delta-commit lake: chunks write only their reduced changes; every
    compact_every-th commit per partition rewrites the full state.  The
    merged-on-read state equals the oracle at every point, resume stays
    idempotent, and live files per partition stay bounded."""
    import glob

    from deltaray.commit import LakeState

    write_event_log(tmp_log, n_docs=120, n_events=3000, seed=91,
                    segment_max_events=300)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=2,
                       chunk_max_events=300, compact_every=3)
    replay(cfg)
    oracle = replay_oracle(cfg)
    got = read_table(tmp_lake, "docs")
    ok, msg = tables_equal(got, oracle["docs"])
    assert ok, msg
    lake = LakeState(tmp_lake, 0)
    kinds = [c["kind"] for c in lake.list_commits("docs", 0)]
    assert "delta" in kinds and kinds.count("base") >= 2  # compaction ran
    for pdir in glob.glob(f"{tmp_lake}/gen=0000/docs/part=*"):
        assert len(glob.glob(pdir + "/data-*.parquet")) <= 3
    # state_rows tracks the LIVE state, not the delta file size
    last = lake.list_commits("docs", 0)[-1]
    part0_rows = lake.read_partition("docs", 0)[0].num_rows
    assert last["state_rows"] == part0_rows
    # re-replay: every chunk skipped, state unchanged
    replay(cfg)
    got2 = read_table(tmp_lake, "docs")
    ok, msg = tables_equal(got2, oracle["docs"])
    assert ok, msg


def test_delta_commits_streaming_read(tmp_log, tmp_lake):
    """read_table_ds performs the per-partition merge-on-read: no
    duplicate keys even while partitions hold base+delta files."""
    from deltaray.pipeline import read_table_ds

    write_event_log(tmp_log, n_docs=80, n_events=1500, seed=93,
                    segment_max_events=200)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=250, compact_every=4)
    replay(cfg)
    ds = read_table_ds(tmp_lake, "docs")
    tbl = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
    oracle = replay_oracle(cfg)["docs"]
    ok, msg = tables_equal(tbl.sort_by("doc_id"), oracle)
    assert ok, msg


def test_bootstrap_then_tail_replay(tmp_log, tmp_lake):
    """Snapshot bootstrap: the lake table is bulk-loaded from an existing
    snapshot Dataset (no snapshot INSERT events), then a tail-only change
    log (no CREATE_TABLE either) upserts against it — final state equals
    an oracle replay of the equivalent full log."""
    import os

    import pyarrow.parquet as pq
    import ray.data

    from deltaray.gen import gen_base
    from deltaray.pipeline import bootstrap_table
    from deltaray.schemas import (ddl_payload, default_table_schema,
                                  event_log_schema)

    schema = default_table_schema()
    base = gen_base(150, seed=31)
    rng = np.random.default_rng(37)
    log_schema = event_log_schema(schema)

    def tail_rows(start_seq):
        rows = []
        seq = start_seq
        for i in range(500):
            op = ("INSERT", "UPDATE", "DELETE")[int(rng.integers(0, 3))]
            if op == "INSERT":
                doc = f"docs-doc{1000 + i:08d}"
            else:
                doc = f"docs-doc{int(rng.integers(0, 150)):08d}"
            row = {"seq": seq, "op": op, "table": "docs", "doc_id": doc,
                   "is_snapshot": False}
            if op != "DELETE":
                toks = [int(x) for x in rng.integers(0, 100, 5)]
                row.update(tokens=toks, n_tok=5,
                           source=str(rng.choice(["web", "code"])))
            rows.append(row)
            seq += 1
        return rows, seq - 1

    tail, max_seq = tail_rows(2)
    os.makedirs(tmp_log, exist_ok=True)
    cols = {f.name: [r.get(f.name) for r in tail] for f in log_schema}
    pq.write_table(pa.table(cols, schema=log_schema),
                   f"{tmp_log}/events-00000-{2:012d}-{max_seq:012d}.parquet",
                   row_group_size=128)

    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=150)
    res = bootstrap_table(cfg, schema, ray.data.from_arrow(base),
                          snapshot_seq=1)
    assert res["rows"] == 150
    replay(cfg)
    got = read_table(tmp_lake, "docs")

    # oracle: an equivalent FULL log (CREATE + snapshot INSERTs + tail)
    full_log = tmp_log + "-full"
    os.makedirs(full_log, exist_ok=True)
    full = [{"seq": 0, "op": "CREATE_TABLE", "table": "docs",
             "ddl_payload": ddl_payload("CREATE_TABLE", schema=schema),
             "is_snapshot": True}]
    b = base.to_pylist()
    # snapshot rows share seq space below the tail (oracle needs unique
    # seq; engine bootstrap used snapshot_seq=1 for all) — renumber the
    # whole oracle log instead
    for i, r in enumerate(b):
        full.append({"seq": 0, "op": "INSERT", "table": "docs",
                     "is_snapshot": True, **r})
    full.extend(tail)
    for i, r in enumerate(full):
        r = dict(r)
        r["seq"] = i + 1
        full[i] = r
    cols = {f.name: [r.get(f.name) for r in full] for f in log_schema}
    pq.write_table(pa.table(cols, schema=log_schema),
                   f"{full_log}/events-00000-{1:012d}-{len(full):012d}.parquet")
    ocfg = ReplayConfig(event_log=full_log, lake=tmp_lake + "-o")
    oracle = replay_oracle(ocfg)["docs"]
    ok, msg = tables_equal(got, oracle)
    assert ok, msg
    # tail replay is resumable as usual
    replay(cfg)
    got2 = read_table(tmp_lake, "docs")
    ok, msg = tables_equal(got2, oracle)
    assert ok, msg


def test_previous_row_directives_applied(tmp_log, tmp_lake):
    """The directive chain transforms before-images too (reference
    transforms row AND previousRow): with a mask directive, stored
    prev_tokens are masked exactly like the oracle's."""
    from deltaray import TableConfig

    write_event_log(tmp_log, n_docs=60, n_events=800, seed=101,
                    track_prev=True)
    cfg = ReplayConfig(
        event_log=tmp_log, lake=tmp_lake, num_partitions=4,
        track_previous=True,
        tables=[TableConfig("docs", transformations=["mask tokens 0 3"])],
    )
    replay(cfg)
    oracle = replay_oracle(cfg)
    got = read_table(tmp_lake, "docs", with_previous=True)
    ok, msg = tables_equal(got, oracle["docs"])
    assert ok, msg
    # the mask actually bit: some non-null prev image starts with zeros
    prevs = [p for p in got["prev_tokens"].to_pylist()
             if p is not None and len(p) >= 3]
    assert prevs and all(p[:3] == [0, 0, 0] for p in prevs)


def test_cli_drafts_normalize_generations(tmp_path, tmp_log, tmp_lake, capsys):
    """CLI surface: drafts CRUD/assess, normalize, generations."""
    import json

    from deltaray.__main__ import main
    from deltaray.config import config_to_dict

    write_event_log(tmp_log, n_docs=20, n_events=80, seed=103)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake)
    cfg_json = tmp_path / "cfg.json"
    cfg_json.write_text(json.dumps(config_to_dict(cfg)))
    root = str(tmp_path / "drafts")
    assert main(["drafts", "--root", root, "save", "--name", "p1",
                 "--config-json", str(cfg_json)]) == 0
    assert main(["drafts", "--root", root, "list"]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == ["p1"]
    assert main(["drafts", "--root", root, "assess", "--name", "p1"]) == 0
    assert main(["drafts", "--root", root, "delete", "--name", "p1"]) == 0

    replay(cfg)
    assert main(["generations", "--lake", tmp_lake]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out == {"generations": [0], "latest": 0}


def test_concurrent_replays_converge(tmp_log, tmp_lake):
    """Two replayers racing on the SAME lake (a crashed-then-restarted
    driver overlapping its replacement): write-once commits + idempotent
    merges mean both converge to the oracle state and per-table metrics
    are not double-counted."""
    import threading

    write_event_log(tmp_log, n_docs=80, n_events=1500, seed=107,
                    segment_max_events=250)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=2,
                       chunk_max_events=300)
    errs = []

    def run():
        try:
            replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake,
                                num_partitions=2, chunk_max_events=300))
        except Exception as e:  # surfaced below
            errs.append(e)

    threads = [threading.Thread(target=run) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errs, errs
    oracle = replay_oracle(cfg)
    got = read_table(tmp_lake, "docs")
    ok, msg = tables_equal(got, oracle["docs"])
    assert ok, msg
    res = replay(cfg)  # settles metrics from the commit log
    assert res["metrics"]["total"]["dml_events"] == 1500 + 80


def test_rename_after_delta_commits_keeps_values(tmp_log, tmp_lake):
    """Regression (found by the hypothesis suite): a RENAME_COLUMN landing
    while the partition holds base+delta files must still carry the old
    column's values into the renamed column — the merged-on-read state
    must keep its embedded schema metadata for the rename chain."""
    write_event_log(
        tmp_log, n_docs=20, n_events=81, seed=0, mix=(0.5, 0.25, 0.25),
        ddl=[(80, "docs", "ALTER_TABLE",
              {"add": ("lang", "string"), "choices": ["en", "de", "fr"]}),
             (80, "docs", "RENAME_COLUMN", {"rename": ("source", "origin")})],
        segment_max_events=100,
    )
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=1,
                       chunk_max_events=100, compact_every=8)
    replay(cfg)
    oracle = replay_oracle(cfg)
    got = read_table(tmp_lake, "docs")
    ok, msg = tables_equal(got, oracle["docs"])
    assert ok, msg
    # the renamed column actually carries pre-rename values
    assert any(v is not None for v in got["origin"].to_pylist())


def test_read_table_ds_column_pruning(tmp_log, tmp_lake):
    """read_table_ds(columns=...) prunes the payload at the parquet read
    (keys + version columns still fetched for the LWW merge) and matches
    the full read's selected columns row-for-row."""
    from deltaray.pipeline import read_table_ds

    write_event_log(tmp_log, n_docs=60, n_events=800, seed=113,
                    segment_max_events=200)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=2,
                       chunk_max_events=300)
    replay(cfg)
    full = pa.concat_tables(list(
        read_table_ds(tmp_lake, "docs").iter_batches(batch_format="pyarrow")
    )).sort_by("doc_id")
    pruned = pa.concat_tables(list(
        read_table_ds(tmp_lake, "docs", columns=["doc_id", "n_tok"])
        .iter_batches(batch_format="pyarrow"))).sort_by("doc_id")
    assert pruned.column_names == ["doc_id", "n_tok"]
    assert pruned.equals(full.select(["doc_id", "n_tok"]))
    with pytest.raises(KeyError):
        read_table_ds(tmp_lake, "docs", columns=["nope"])


def test_multi_table_rename_no_column_leak(tmp_log, tmp_lake):
    """Regression (hypothesis seed 938): in a multi-table log, another
    table's columns must NOT leak into a table's lake files — after docs
    renames source→origin while logs keeps source, a stray column from
    the (since removed) cross-table union transport schema collided with
    the rename chain at the next merge."""
    import pyarrow.parquet as pq
    import glob

    write_event_log(
        tmp_log, n_docs=53, n_events=787, seed=215, unordered=True,
        mix=(0.1, 0.5376, 0.3624), tables=("docs", "logs"),
        ddl=[(547, "docs", "RENAME_COLUMN", {"rename": ("source", "origin")}),
             (640, "docs", "TRUNCATE_TABLE", {})],
        segment_max_events=100,
    )
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=1,
                       chunk_max_events=100, ordering="UN_ORDERED",
                       compact_every=1)
    replay(cfg)
    oracle = replay_oracle(cfg)
    for t in ("docs", "logs"):
        got = read_table(tmp_lake, t)
        ok, msg = tables_equal(got, oracle[t])
        assert ok, f"{t}: {msg}"
    # lake files carry only the owning table's payload columns
    for f in glob.glob(f"{tmp_lake}/gen=0000/docs/part=*/*.parquet"):
        names = [n for n in pq.read_schema(f).names if not n.startswith("__")]
        assert "source" not in names, f
