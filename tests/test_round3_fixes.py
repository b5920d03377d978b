"""Round-3 regression tests for the advisor findings (ADVICE round 2):

- ``key_codes`` must not alias a composite key containing a null
  component with an unrelated non-null key (factorize's -1 sentinel
  used to mix into the code space);
- per-partition ``watermark_src_ts`` is monotone across chunks — an
  UN_ORDERED chunk made entirely of late events must not regress it;
- ``hash_join`` rejects a right payload column that collides with a
  restored left key name (used to emit a duplicate column);
- ``heavy_hitters`` preserves the input column's Arrow type for
  numeric columns, including the empty result and the >cap
  count-min shortlist branch;
- ``ReplayConfig`` macro expansion must not mutate a ``TableConfig``
  shared across two configs.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from deltaray import ReplayConfig, replay
from deltaray.config import TableConfig
from deltaray.transforms import key_codes


def test_key_codes_null_component_no_alias():
    """('g1', NULL) must not share a code with ('g0', 7): factorize's -1
    null sentinel used to collide with the last unique value of the
    second component."""
    tbl = pa.table({
        "a": pa.array(["g0", "g1", "g0", "g1", "g0"]),
        "b": pa.array([7, None, 7, None, 3], pa.int64()),
    })
    codes = key_codes(tbl, ["a", "b"])
    # rows 0/2 equal, rows 1/3 equal, everything else distinct
    assert codes[0] == codes[2]
    assert codes[1] == codes[3]
    assert codes[0] != codes[1]
    assert len({codes[0], codes[1], codes[4]}) == 3
    # single-column nulls too: NULL is its own group, distinct from values
    tbl2 = pa.table({"a": pa.array(["x", None, "x", None, "y"])})
    c2 = key_codes(tbl2, ["a"])
    assert c2[1] == c2[3] and c2[0] == c2[2]
    assert len({c2[0], c2[1], c2[4]}) == 3


def test_watermark_monotone_on_late_only_chunk(tmp_log, tmp_lake):
    """A second chunk consisting ONLY of late events (every source_ts
    below the committed watermark) must keep the partition watermark at
    the chunk-1 maximum, not regress it."""
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
        row(3, "d2", [2], ts0 + 900),   # chunk-1 watermark = ts0+900
        row(4, "d1", [9], ts0 + 100),   # chunk 2: ALL late
        row(5, "d2", [8], ts0 + 200),
    ]
    os.makedirs(tmp_log, exist_ok=True)
    for name, seg in [("events-00000-000000000001-000000000003", rows[:3]),
                      ("events-00001-000000000004-000000000005", rows[3:])]:
        cols = {f.name: [r.get(f.name) for r in seg] for f in log_schema}
        pq.write_table(pa.table(cols, schema=log_schema),
                       f"{tmp_log}/{name}.parquet", row_group_size=2)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=1,
                       ordering="UN_ORDERED", chunk_max_events=1)
    res = replay(cfg)
    assert res["metrics"]["tables"]["docs"]["late_events"] == 2
    rep = lineage_report(tmp_lake, "docs")
    assert rep["tables"]["docs"]["watermark_src_ts"] == ts0 + 900


def test_hash_join_right_payload_key_collision(ray_session):
    """right_on='rk' restores the key under the LEFT name 'k'; a right
    payload column also named 'k' must be rejected, not silently emitted
    as a duplicate column."""
    import ray.data

    from deltaray.functions.joins import hash_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 3], pa.int64()),
        "lv": pa.array(["a", "b", "c"]),
    }))
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array([1, 2, 3], pa.int64()),
        "k": pa.array([10, 20, 30], pa.int64()),  # collides with left key
    }))
    with pytest.raises(ValueError, match="collision"):
        hash_join(left, right, on="k", right_on="rk", num_partitions=2)
    # renaming the offender via right_cols resolves it
    out = hash_join(left, right, on="k", right_on="rk",
                    right_cols={"k": "rk_payload"}, num_partitions=2)
    tbl = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow")))
    assert sorted(tbl.column_names) == ["k", "lv", "rk_payload"]
    assert tbl.num_rows == 3


def test_heavy_hitters_numeric_small_union(ray_session):
    """Int64 column through the <=cap exact path: output value column
    keeps int64, counts exact."""
    import ray.data

    from deltaray.functions.stats import heavy_hitters

    vals = [7] * 50 + [13] * 30 + list(range(100, 140))
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals, pa.int64())}))
    out = heavy_hitters(ds, "v", k=2)
    assert out["value"].type == pa.int64()
    assert out["value"].to_pylist() == [7, 13]
    assert out["n"].to_pylist() == [50, 30]


def test_heavy_hitters_numeric_shortlist_branch(ray_session):
    """>cap candidate union (cap = max(4k, 4096)) forces the count-min
    shortlist branch; with an int column the shortlist array used to be
    re-typed by inference / break under np.lexsort.  The true heavy
    hitters must still surface with exact counts and int64 type."""
    import ray.data

    from deltaray.functions.stats import heavy_hitters

    rng = np.random.default_rng(7)
    tail = rng.integers(1_000, 1_000_000, size=9000).astype(np.int64)
    heavy = np.array([3] * 400 + [5] * 250, dtype=np.int64)
    vals = np.concatenate([tail, heavy])
    rng.shuffle(vals)
    ds = ray.data.from_arrow(
        pa.table({"v": pa.array(vals, pa.int64())})).repartition(3)
    out = heavy_hitters(ds, "v", k=2, candidates_per_batch=6000)
    assert out["value"].type == pa.int64()
    assert out["value"].to_pylist() == [3, 5]
    assert out["n"].to_pylist() == [400, 250]


def test_heavy_hitters_empty_numeric(ray_session):
    """Empty input returns an EMPTY result typed like the input column
    (used to hardcode string)."""
    import ray.data

    from deltaray.functions.stats import heavy_hitters

    ds = ray.data.from_arrow(pa.table({"v": pa.array([], pa.int64())}))
    out = heavy_hitters(ds, "v", k=3)
    assert out.num_rows == 0
    assert out["value"].type == pa.int64()
    assert out["n"].type == pa.int64()


def test_macro_expansion_does_not_mutate_shared_tableconfig(tmp_path):
    """One TableConfig reused by two ReplayConfigs with different
    runtime_args: each config sees its own expansion and the shared
    object keeps its ${macro} templates."""
    shared = TableConfig(name="docs",
                         transformations=["set-default source ${src}"])
    cfg_a = ReplayConfig(event_log=str(tmp_path / "log"),
                         lake=str(tmp_path / "lake_a"),
                         tables=[shared], runtime_args={"src": "alpha"})
    cfg_b = ReplayConfig(event_log=str(tmp_path / "log"),
                         lake=str(tmp_path / "lake_b"),
                         tables=[shared], runtime_args={"src": "beta"})
    assert cfg_a.tables[0].transformations == ["set-default source alpha"]
    assert cfg_b.tables[0].transformations == ["set-default source beta"]
    assert shared.transformations == ["set-default source ${src}"]


@pytest.mark.parametrize("window", [1, 2])
def test_failing_state_persisted_and_cleared(tmp_log, tmp_lake, monkeypatch,
                                             window):
    """OK -> FAILING -> REPLICATING (reference
    DeltaPipelineStateStoreBaseTest.testFailureRetries:308-397): an apply
    failure persists {FAILING, error} for the table so lineage_report
    shows it while retries spin; a successful retry clears it — the same
    at every pipelining window."""
    from deltaray.config import RetryConfig
    from deltaray.gen import write_event_log
    from deltaray.pipeline import ReplaySession, lineage_report

    write_event_log(tmp_log, n_docs=50, n_events=400, seed=11)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=2,
                       pipeline_chunks=window)

    real = ReplaySession._plan_chunk
    monkeypatch.setattr(
        ReplaySession, "_plan_chunk",
        lambda self, chunk: (_ for _ in ()).throw(RuntimeError("induced")))
    with pytest.raises(RuntimeError, match="induced"):
        replay(cfg)
    rep = lineage_report(tmp_lake, "docs")
    assert "FAILING" in rep["tables"]["docs"]["states"]
    assert "induced" in rep["tables"]["docs"]["error"]

    # retry path: first call raises, the in-loop retry succeeds and the
    # mid-retry report (captured from inside the second attempt) still
    # shows FAILING
    calls = {"n": 0}
    seen_mid_retry = {}

    def flaky(self, chunk):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("transient")
        if not seen_mid_retry:
            seen_mid_retry.update(lineage_report(tmp_lake, "docs"))
        return real(self, chunk)

    monkeypatch.setattr(ReplaySession, "_plan_chunk", flaky)
    cfg2 = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=2,
                        pipeline_chunks=window,
                        retry=RetryConfig(max_duration_seconds=60,
                                          delay_seconds=0.01))
    replay(cfg2)
    assert "FAILING" in seen_mid_retry["tables"]["docs"]["states"]
    rep2 = lineage_report(tmp_lake, "docs")
    assert "FAILING" not in rep2["tables"]["docs"]["states"]
    assert "error" not in rep2["tables"]["docs"]
    assert rep2["tables"]["docs"]["states"] == ["REPLICATING"]


def _write_segments(tmp_log, log_schema, segments):
    os.makedirs(tmp_log, exist_ok=True)
    for name, seg in segments:
        cols = {f.name: [r.get(f.name) for r in seg] for f in log_schema}
        pq.write_table(pa.table(cols, schema=log_schema),
                       f"{tmp_log}/{name}.parquet", row_group_size=2)


def test_drop_database_cascade(tmp_log, tmp_lake):
    """Flat namespace: an UNBLACKLISTED DROP_DATABASE drops every live
    table (cascade); default config blacklists it (no-op).  A
    CREATE_TABLE after the drop recreates an empty table."""
    from deltaray import replay_oracle
    from deltaray.oracle import tables_equal
    from deltaray.pipeline import read_table
    from deltaray.schemas import (ddl_payload, default_table_schema,
                                  event_log_schema)

    schema = default_table_schema()
    log_schema = event_log_schema(schema)
    ts0 = 1704067200_000000

    def dml(seq, doc, tok):
        return {"seq": seq, "op": "INSERT", "table": "docs", "doc_id": doc,
                "tokens": tok, "n_tok": len(tok), "source": "web",
                "ingest_ts": ts0 + seq, "source_ts": ts0 + seq,
                "is_snapshot": False, "sort_keys": [0, 0]}

    def ddl(seq, op, table="docs", **kw):
        return {"seq": seq, "op": op, "table": table,
                "ddl_payload": ddl_payload(op, **kw),
                "ingest_ts": ts0 + seq, "source_ts": ts0 + seq,
                "is_snapshot": False}

    rows = [
        ddl(1, "CREATE_TABLE", schema=schema),
        dml(2, "d1", [1, 2]),
        dml(3, "d2", [3]),
        ddl(4, "DROP_DATABASE", table="maindb"),
        dml(5, "d3", [4]),                      # post-drop: unknown table
        ddl(6, "CREATE_TABLE", schema=schema),  # recreate after db drop
        dml(7, "d9", [9]),
    ]
    _write_segments(tmp_log, log_schema,
                    [("events-00000-000000000001-000000000007", rows)])

    # default config: DROP_DATABASE blacklisted -> everything applies
    lake_a = tmp_lake + "_a"
    cfg_a = ReplayConfig(event_log=tmp_log, lake=lake_a, num_partitions=2)
    replay(cfg_a)
    got_a = read_table(lake_a, "docs")
    ok, msg = tables_equal(got_a, replay_oracle(cfg_a)["docs"])
    assert ok, msg
    assert sorted(got_a["doc_id"].to_pylist()) == ["d1", "d2", "d3", "d9"]

    # unblacklisted: cascade drops docs; post-drop DML on the unknown
    # table is filtered; CREATE recreates empty, then d9 lands
    lake_b = tmp_lake + "_b"
    cfg_b = ReplayConfig(event_log=tmp_log, lake=lake_b, num_partitions=2,
                         ddl_blacklist=set())
    replay(cfg_b)
    got_b = read_table(lake_b, "docs")
    ok, msg = tables_equal(got_b, replay_oracle(cfg_b)["docs"])
    assert ok, msg
    assert got_b["doc_id"].to_pylist() == ["d9"]


def test_drop_database_no_recreate_empties_table(tmp_log, tmp_lake):
    """DROP_DATABASE as the LAST event: the table reads back empty."""
    from deltaray import replay_oracle
    from deltaray.pipeline import read_table
    from deltaray.schemas import (ddl_payload, default_table_schema,
                                  event_log_schema)

    schema = default_table_schema()
    log_schema = event_log_schema(schema)
    ts0 = 1704067200_000000
    rows = [
        {"seq": 1, "op": "CREATE_TABLE", "table": "docs",
         "ddl_payload": ddl_payload("CREATE_TABLE", schema=schema),
         "ingest_ts": ts0, "source_ts": ts0, "is_snapshot": False},
        {"seq": 2, "op": "INSERT", "table": "docs", "doc_id": "d1",
         "tokens": [1], "n_tok": 1, "source": "web", "ingest_ts": ts0 + 2,
         "source_ts": ts0 + 2, "is_snapshot": False, "sort_keys": [0, 0]},
        {"seq": 3, "op": "DROP_DATABASE", "table": "maindb",
         "ddl_payload": ddl_payload("DROP_DATABASE"),
         "ingest_ts": ts0 + 3, "source_ts": ts0 + 3, "is_snapshot": False},
    ]
    _write_segments(tmp_log, log_schema,
                    [("events-00000-000000000001-000000000003", rows)])
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=1,
                       ddl_blacklist=set())
    replay(cfg)
    assert read_table(tmp_lake, "docs").num_rows == 0
    assert "docs" not in replay_oracle(cfg)


def test_replay_tree_merge_matches_oracle(ray_session, tmp_log, tmp_lake):
    """merge_fanin=2 forces multi-level combine trees in the exchange;
    the materialized table must equal the serial oracle exactly."""
    from deltaray import replay_oracle
    from deltaray.gen import write_event_log
    from deltaray.oracle import tables_equal
    from deltaray.pipeline import read_table

    write_event_log(tmp_log, n_docs=300, n_events=4000, seed=31,
                    segment_max_events=500)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=1500, merge_fanin=2)
    replay(cfg)
    ok, msg = tables_equal(read_table(tmp_lake, "docs"),
                           replay_oracle(cfg)["docs"])
    assert ok, msg


def test_to_table_preserves_schema_on_empty(ray_session):
    """util.to_table keeps the typed schema when a pipeline's result is
    empty — raw Dataset.to_pandas() on Ray 2.49 returns a column-less
    frame for any empty dataset (repartition pads schema-less blocks)."""
    import pyarrow as pa
    import ray.data

    from deltaray.util import to_pandas, to_table

    tbl = pa.table({"doc_id": pa.array([0], pa.int64()),
                    "v": pa.array(["x"], pa.string())})
    ds = (ray.data.from_arrow(tbl).repartition(3)
          .map_batches(lambda b: b.slice(0, 0), batch_format="pyarrow"))
    out = to_table(ds)
    assert out.num_rows == 0
    assert out.schema.names == ["doc_id", "v"]
    assert out.schema.field("doc_id").type == pa.int64()
    pdf = to_pandas(ds)
    assert list(pdf.columns) == ["doc_id", "v"] and pdf.empty
    # non-empty path is a plain concat
    full = to_table(ray.data.from_arrow(tbl).repartition(3))
    assert full.num_rows == 1 and set(full.schema.names) == {"doc_id", "v"}
    # explicit fallback schema wins when the plan can't provide one
    fb = pa.schema([pa.field("a", pa.int32())])
    empty = to_table(ray.data.from_arrow(tbl.slice(0, 0)).filter(
        lambda r: False), fallback_schema=fb)
    assert empty.schema == fb


def test_shard_order_lpt(tmp_log, tmp_lake):
    """Merge submission order puts the heaviest (table, part) shards
    first once weights exist, keeps index order before, and always
    emits every shard exactly once."""
    from deltaray import ReplayConfig
    from deltaray.gen import write_event_log
    from deltaray.pipeline import ReplaySession

    from deltaray.schemas import default_table_schema

    write_event_log(tmp_log, n_docs=50, n_events=200, seed=3)
    sess = ReplaySession(ReplayConfig(event_log=tmp_log, lake=tmp_lake,
                                      num_partitions=4))
    # schemas are discovered from the log's CREATE_TABLE during replay;
    # pin them directly for the ordering unit test
    sess.schemas = {"docs": default_table_schema()}
    # no weights yet → identity order
    assert sess._shard_order(4) == [0, 1, 2, 3]
    sess._shard_weights = {("docs", 2): 100, ("docs", 0): 7}
    order = sess._shard_order(4)
    assert order[0] == 2 and order[1] == 0
    assert sorted(order) == [0, 1, 2, 3]
    # weights for unknown tables are ignored, not crashed on
    sess._shard_weights[("ghost", 1)] = 999
    assert sorted(sess._shard_order(4)) == [0, 1, 2, 3]


def test_stable_hash_spreads_small_odd_moduli():
    """Regression: without the fmix64 finalizer, fixed-width synthetic
    ids collapsed to ONE residue mod 3 (every key in 1 of 3 partitions).
    All small moduli must use every residue on a structured id family."""
    import numpy as np

    from deltaray.transforms import stable_hash_cols

    ids = pa.table({"doc_id": pa.array(
        [f"docs-doc{i:08d}" for i in range(0, 20000, 4)])})
    h = stable_hash_cols(ids, ["doc_id"])
    assert len(set(h.tolist())) == 5000  # no collisions on 5000 keys
    for m in (2, 3, 4, 5, 7, 13, 96):
        counts = np.bincount((h % np.uint64(m)).astype(np.int64),
                             minlength=m)
        assert counts.min() > 0, f"mod {m}: empty residue"
        # rough balance: no residue further than 3x from uniform
        assert counts.max() < 3 * 5000 / m, f"mod {m}: skewed {counts}"
    # composite keys spread too
    comp = pa.table({"a": pa.array(["g"] * 200),
                     "b": pa.array(list(range(200)), pa.int64())})
    hc = stable_hash_cols(comp, ["a", "b"])
    for m in (3, 7):
        assert len(np.unique(hc % np.uint64(m))) == m


def test_read_rows_rejects_foreign_hash_version(tmp_log, tmp_lake):
    """A lake stamped with another partitioner version fails fast on
    point lookups instead of silently mis-routing keys."""
    import json as _json

    from deltaray import ReplayConfig, read_rows, replay
    from deltaray.commit import LakeState
    from deltaray.gen import write_event_log

    write_event_log(tmp_log, n_docs=40, n_events=200, seed=3)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=2))
    meta_path = os.path.join(LakeState(tmp_lake).root, "_meta.json")
    with open(meta_path) as f:
        meta = _json.load(f)
    meta["hash_version"] = 1
    with open(meta_path, "w") as f:
        _json.dump(meta, f)
    with pytest.raises(ValueError, match="hash_version"):
        read_rows(tmp_lake, "docs", ["docs-doc00000003"])
