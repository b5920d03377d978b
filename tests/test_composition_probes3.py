"""Round-5 composition probes (the round-4 program found 3 real bugs;
VERDICT r4 'Next #5' names the untested pairs these cover):

- ingest gates x lake reshard (the gate index lives OUTSIDE the lake's
  generation story: membership must survive a generation migration and
  reject the re-exported corpus wholesale)
- ingest gate epoch retry AFTER the index compacted beneath it
- manifest rollup x reshard (a manifest-compacted commit log is the
  reshard SOURCE; the copied chunk markers include rolled-up manifests)
- replication chaining x schema evolution (DDL does not chain —
  documented; probe that a pull window crossing upstream DDL behaves
  cleanly when the operator applies the DDL downstream first, and that
  the pull itself carries the as-of schema)
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from deltaray import (ReplayConfig, feed_to_events, read_changes,
                      read_table, replay, replay_oracle, reshard_generation,
                      snapshots, tables_equal)
from deltaray.gen import write_event_log
from deltaray.pipeline import bootstrap_table, read_table_ds
from deltaray.schemas import TableSchema, default_table_schema
from deltaray.util import to_table


def _corpus_ds(texts, ids=None):
    import ray.data

    ids = ids if ids is not None else list(range(len(texts)))
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array([f"d{i:06d}" for i in ids]),
        "text": pa.array(texts)})).repartition(3)


def test_ingest_gate_across_lake_reshard(ray_session, tmp_path):
    """Gate epoch 0 admits a lake's corpus; the lake is then resharded
    into a new generation and the corpus RE-EXPORTED (same rows, new
    partitioning) plus a handful of new docs.  Epoch 1 must admit
    exactly the new docs: gate membership is independent of the lake's
    generation/partitioning story."""
    import ray.data

    from deltaray.functions.ingest_gate import ExactIngestGate

    texts = [f"gate-reshard body {i} {'x' * (i % 7)}" for i in range(90)]
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(event_log=str(tmp_path / "ev"), lake=lake,
                       num_partitions=4)
    schema = TableSchema("docs", "doc_id",
                         [("doc_id", "string"), ("text", "string")])
    bootstrap_table(cfg, schema, _corpus_ds(texts))

    gate = ExactIngestGate(str(tmp_path / "idx"), num_partitions=4,
                           compact_threshold=2)
    a0 = to_table(gate.admit(read_table_ds(lake, "docs"), 0))
    assert a0.num_rows == len(texts)

    res = reshard_generation(lake, 7)
    gen = res["generation"]
    new = [f"post-reshard new doc {i}" for i in range(5)]
    re_export = read_table_ds(lake, "docs", generation=gen).union(
        _corpus_ds(new, ids=range(1000, 1005)))
    a1 = to_table(gate.admit(re_export, 1))
    assert sorted(a1["text"].to_pylist()) == sorted(new), (
        f"gate re-admitted old corpus rows after reshard: "
        f"{a1.num_rows} admitted")


def test_ingest_gate_epoch_retry_after_compaction(ray_session, tmp_path):
    """Replaying an ALREADY-ADMITTED epoch after the index compacted its
    files into sorted runs returns the same rows and writes nothing —
    the write-once epoch contract must hold against the post-compaction
    layout, not just loose epoch files."""
    import glob

    from deltaray.functions.ingest_gate import ExactIngestGate

    gate = ExactIngestGate(str(tmp_path / "idx"), num_partitions=2,
                           compact_threshold=2)
    admitted = {}
    for e in range(6):  # threshold 2 -> several compactions
        texts = [f"epoch {e} doc {i}" for i in range(10)] \
            + ([f"epoch {e - 1} doc 3"] if e else [])  # one dup each
        admitted[e] = to_table(
            gate.admit(_corpus_ds(texts, ids=range(e * 100,
                                                   e * 100 + len(texts))),
                       e))
        # 10 new docs admitted; the cross-epoch dup rejected
        assert admitted[e].num_rows == 10
    files_before = sorted(glob.glob(str(tmp_path / "idx/**/*"),
                                    recursive=True))
    retry = to_table(gate.admit(
        _corpus_ds([f"epoch 5 doc {i}" for i in range(10)]
                   + ["epoch 4 doc 3"],
                   ids=range(500, 511)), 5))
    files_after = sorted(glob.glob(str(tmp_path / "idx/**/*"),
                                   recursive=True))
    assert files_before == files_after, "epoch retry wrote index files"
    assert sorted(retry["text"].to_pylist()) == sorted(
        admitted[5]["text"].to_pylist())


def test_manifest_rollup_then_reshard(ray_session, tmp_path):
    """Reshard a lake whose commit records AND chunk markers are rolled
    into manifests: the new generation must carry the full commit
    history (copied chunk manifests skip the prefix on tail replay) and
    the final state must equal the single-process oracle."""
    log, lake = str(tmp_path / "ev"), str(tmp_path / "lake")
    man = write_event_log(log, n_docs=80, n_events=800, seed=31,
                          track_prev=False, segment_max_events=200)
    head = man["segments"][: len(man["segments"]) // 2]
    import json as _json
    import shutil as _sh

    half = str(tmp_path / "ev_head")
    os.makedirs(half)
    for s in head:
        _sh.copy(s["path"], half)
    cut = max(s["seq_hi"] for s in head)
    with open(os.path.join(half, "manifest.json"), "w") as f:
        _json.dump(dict(man, max_seq=cut, segments=[
            dict(s, path=os.path.join(half, os.path.basename(s["path"])))
            for s in head]), f)
    kw = dict(num_partitions=4, chunk_max_events=100, manifest_every=1)
    replay(ReplayConfig(event_log=half, lake=lake, **kw))
    # rollup really happened: no loose markers/commits remain un-rolled
    import glob

    assert glob.glob(os.path.join(lake, "gen=0000", "_chunks",
                                  "chunks-manifest-*.json"))
    assert glob.glob(os.path.join(lake, "gen=0000", "docs", "_commits",
                                  "part=*", "manifest-*.json"))

    pre = read_table(lake, "docs")
    res = reshard_generation(lake, 5)
    gen = res["generation"]
    ok, msg = tables_equal(read_table(lake, "docs", generation=gen), pre)
    assert ok, msg

    ran = []
    full_cfg = ReplayConfig(event_log=log, lake=lake, num_partitions=5,
                            generation=gen, chunk_max_events=100,
                            manifest_every=1)
    replay(full_cfg, on_chunk=lambda i, c, rows: ran.append(c.seq_hi))
    assert all(hi > cut for hi in ran), "copied manifests failed to skip"
    ok, msg = tables_equal(read_table(lake, "docs", generation=gen),
                           replay_oracle(full_cfg)["docs"])
    assert ok, msg


def test_chaining_across_upstream_ddl(ray_session, tmp_path):
    """Chaining x schema evolution: upstream ALTERs (adds a column)
    mid-log.  DDL does not chain (documented), so the operator applies
    the DDL downstream between pulls; each pull is emitted under its
    as-of schema and the mirror stays exact through the evolution —
    including the new column's values."""
    import ray.data as rd

    log_a, lake_a = str(tmp_path / "ev-a"), str(tmp_path / "lk-a")
    log_b, lake_b = str(tmp_path / "ev-b"), str(tmp_path / "lk-b")
    write_event_log(log_a, n_docs=60, n_events=900, seed=77,
                    segment_max_events=150, track_prev=False,
                    ddl=[(450, "docs", "ALTER_TABLE",
                          {"add": ("tag", "string"),
                           "choices": ["p", "q"]})])
    replay(ReplayConfig(event_log=log_a, lake=lake_a, num_partitions=4,
                        chunk_max_events=150, vacuum=False))
    snaps = snapshots(lake_a)
    from deltaray.pipeline import _schema_asof
    from deltaray.commit import LakeState

    st_a = LakeState(lake_a, 0)
    # anchors strictly before/after the ALTER, by schema width
    pre_ddl = [s for s in snaps
               if "tag" not in _schema_asof(st_a, "docs", s).column_names()]
    post_ddl = [s for s in snaps if s not in pre_ddl]
    assert pre_ddl and post_ddl
    s0, s1, s2 = pre_ddl[0], pre_ddl[-1], post_ddl[-1]

    schema0 = _schema_asof(st_a, "docs", s0)
    cfg_b = ReplayConfig(event_log=log_b, lake=lake_b, num_partitions=3,
                         chunk_max_events=10**9, vacuum=False)
    bootstrap_table(cfg_b, schema0,
                    rd.from_arrow(read_table(lake_a, "docs", asof_seq=s0)),
                    snapshot_seq=s0)

    # pull 1: window entirely before the DDL — old schema
    feed1 = to_table(read_changes(lake_a, "docs", since_seq=s0,
                                  as_of_seq=s1))
    assert "tag" not in feed1.column_names
    _append(log_b, feed_to_events(feed1, schema0), 0)
    replay(cfg_b)
    ok, msg = tables_equal(read_table(lake_b, "docs"),
                           read_table(lake_a, "docs", asof_seq=s1))
    assert ok, msg

    # operator applies the DDL downstream (the documented manual step),
    # as a DDL event in B's own log at a seq inside the next window
    schema1 = _schema_asof(st_a, "docs", s2)
    assert "tag" in schema1.column_names()
    from deltaray.schemas import ddl_payload, event_log_schema

    dseq = s1 + 1
    ddl_row = {"seq": dseq, "op": "ALTER_TABLE", "table": "docs",
               "ddl_payload": ddl_payload("ALTER_TABLE",
                                          add=("tag", "string"))}
    cols = {n: [ddl_row.get(n)] for n in
            event_log_schema(schema0).names}
    pq.write_table(pa.table(cols, schema=event_log_schema(schema0)),
                   os.path.join(log_b, f"events-99990-{dseq:012d}-"
                                       f"{dseq:012d}.parquet"))

    # pull 2: window crossing the upstream DDL — as-of schema carries
    # the new column; mirror must match including its values
    feed2 = to_table(read_changes(lake_a, "docs", since_seq=s1,
                                  as_of_seq=s2))
    assert "tag" in feed2.column_names
    _append(log_b, feed_to_events(feed2, schema1), 1)
    replay(cfg_b)
    ok, msg = tables_equal(read_table(lake_b, "docs"),
                           read_table(lake_a, "docs", asof_seq=s2))
    assert ok, msg


def _append(log: str, ev: pa.Table, n: int) -> None:
    lo = ev["seq"][0].as_py()
    hi = ev["seq"][-1].as_py()
    os.makedirs(log, exist_ok=True)
    pq.write_table(ev, os.path.join(
        log, f"events-{n:05d}-{lo:012d}-{hi:012d}.parquet"))


_BIG = 5_000_000_000  # beyond int32


def _value(code: str, i: int, base: int):
    """A typed test value for key/payload column code ``code``."""
    return {"int32": i * 10, "int64": base + i, "float64": base + i + 0.5,
            "string": f"s{base + i}"}[code]


@pytest.mark.parametrize("a_k,a_v,b_k,b_v,alter_to", [
    ("int64", "int32", "int64", "int64", "int64"),
    ("int64", "int32", "int64", "string", "int64"),
    ("int64", "int64", "int64", "float64", "float64"),
    ("int64", "int32", "string", "int64", "int64"),
], ids=["v-int32-int64", "v-int32-string", "v-int64-float64",
        "k-int64-string"])
def test_multitable_promotion_with_ddl_interleave(ray_session, tmp_path, a_k,
                                                  a_v, b_k, b_v, alter_to):
    """Multi-table DDL interleaving across co-replayed tables whose
    shared column names carry DIFFERENT types (a payload column, or the
    key itself): each table's rows transport under that table's own
    schema, so no pair is a conflict — then a mid-stream ALTER changes
    a.v's type and both tables keep ingesting.  Each table's DML lives
    in its own segment files (one physical type per column per file),
    alternating so every chunk carries both tables.  Final state of
    BOTH tables must equal the single-process oracle, and every lake
    file must carry only its own table's columns at its own types."""
    import glob
    import json as _json

    from deltaray import ReplayConfig, replay, replay_oracle, tables_equal
    from deltaray.pipeline import read_table
    from deltaray.schemas import TableSchema, code_to_type, ddl_payload

    sch_a = TableSchema("a", "k", [("k", a_k), ("v", a_v), ("s", "string")])
    sch_b = TableSchema("b", "k", [("k", b_k), ("v", b_v)])

    def log_schema(k, v):
        return pa.schema([
            ("seq", pa.int64()), ("op", pa.string()), ("table", pa.string()),
            ("k", code_to_type(k)), ("v", code_to_type(v)),
            ("s", pa.string()), ("ingest_ts", pa.timestamp("us")),
            ("source_ts", pa.timestamp("us")),
            ("sort_keys", pa.list_(pa.int64())), ("is_snapshot", pa.bool_()),
            ("tx_id", pa.string()), ("ddl_payload", pa.string()),
        ])

    log = str(tmp_path / "events")
    os.makedirs(log)
    segments: list[dict] = []
    seq = 0

    def seg(rows, schema, has_ddl):
        """Write ``rows`` (seq assigned here) as the next segment."""
        nonlocal seq
        for r in rows:
            seq += 1
            r.update(seq=seq, ingest_ts=1704067200_000000 + seq * 1000,
                     source_ts=1704067200_000000 + seq * 1000)
            r.setdefault("is_snapshot", False)
        lo, hi = rows[0]["seq"], rows[-1]["seq"]
        path = os.path.join(
            log, f"events-{len(segments):05d}-{lo:012d}-{hi:012d}.parquet")
        pq.write_table(pa.table({f.name: [r.get(f.name) for r in rows]
                                 for f in schema}, schema=schema), path)
        segments.append({"path": path, "seq_lo": lo, "seq_hi": hi,
                         "n_rows": len(rows), "columns": schema.names,
                         "has_ddl": has_ddl})

    def dml(table, op, i, k, **kw):
        return {"op": op, "table": table, "k": _value(k, i, 0), **kw}

    seg([{"op": "CREATE_TABLE", "table": "a", "is_snapshot": True,
          "ddl_payload": ddl_payload("CREATE_TABLE", schema=sch_a)},
         {"op": "CREATE_TABLE", "table": "b", "is_snapshot": True,
          "ddl_payload": ddl_payload("CREATE_TABLE", schema=sch_b)}],
        log_schema(a_k, a_v), True)
    # pre-ALTER: a's and b's DML alternate in 6-row segments; b carries
    # values a.v's type cannot hold
    for half in (range(0, 6), range(6, 12)):
        seg([dml("a", "INSERT", i, a_k, v=_value(a_v, i, _BIG), s=f"s{i}")
             for i in half], log_schema(a_k, a_v), False)
        seg([dml("b", "INSERT", i, b_k, v=_value(b_v, i, _BIG))
             for i in half], log_schema(b_k, b_v), False)
    seg([{"op": "ALTER_TABLE", "table": "a",
          "ddl_payload": ddl_payload("ALTER_TABLE", alter=("v", alter_to))}],
        log_schema(a_k, a_v), True)
    # post-ALTER: a can carry wide values too; a third of b's keys go
    for half in (range(0, 6), range(6, 12)):
        seg([dml("a", "UPDATE", i, a_k, v=_value(alter_to, i, 2 * _BIG),
                 s=f"w{i}") for i in half], log_schema(a_k, alter_to), False)
        seg([dml("b", "DELETE", i, b_k) if i % 3 == 0 else
             dml("b", "UPDATE", i, b_k, v=_value(b_v, i, _BIG + 100))
             for i in half], log_schema(b_k, b_v), False)
    with open(os.path.join(log, "manifest.json"), "w") as f:
        _json.dump({"max_seq": seq, "segments": segments,
                    "tables": ["a", "b"]}, f)

    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                       chunk_max_events=12)
    replay(cfg)
    oracle = replay_oracle(cfg)
    for t in ("a", "b"):
        ok, msg = tables_equal(read_table(lake, t), oracle[t], key="k")
        assert ok, f"table {t}: {msg}"
    a = read_table(lake, "a")
    assert a.schema.field("v").type == code_to_type(alter_to)
    assert a.schema.field("k").type == code_to_type(a_k)
    assert a["v"].to_pylist() == [
        _value(alter_to, i, 2 * _BIG) for i in sorted(a["k"].to_pylist())]
    b = read_table(lake, "b")
    assert b.schema.field("v").type == code_to_type(b_v)
    assert b.schema.field("k").type == code_to_type(b_k)
    assert b.num_rows == 8  # 4 of 12 keys deleted (i % 3 == 0)
    # every lake file: only its own table's payload columns, each at a
    # type that table declared (a's files before the ALTER keep a_v)
    own = {"a": {"k": {a_k}, "v": {a_v, alter_to}, "s": {"string"}},
           "b": {"k": {b_k}, "v": {b_v}}}
    for t, cols in own.items():
        files = glob.glob(f"{lake}/gen=*/{t}/part=*/data-*.parquet")
        assert files, t
        for path in files:
            sch = pq.read_schema(path)
            got = {n: sch.field(n).type for n in sch.names
                   if not n.startswith("__")}
            assert set(got) == set(cols), (path, got)
            for n, ty in got.items():
                assert ty in {code_to_type(c) for c in cols[n]}, (path, n, ty)
