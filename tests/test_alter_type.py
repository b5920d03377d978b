"""ALTER COLUMN TYPE — the "ALTER" of the north-star's "ADD/ALTER/RENAME
column" schema evolution, applied via Arrow schema unification per
partition (merge.evolve_to casts stored files written under the old type;
TransformStage conforms post-alter events at transform time; DDL chunks
are barriers so no DML chunk straddles the change).

Reference analog: DDLOperation.ALTER_TABLE (DDLOperation.java:30-38) with
a column-type payload, applied by the consumer's schema-evolution path."""

import pyarrow as pa
import pytest

from deltaray import ReplayConfig, replay, replay_oracle
from deltaray.gen import write_event_log
from deltaray.merge import evolve_to, stamp_schema
from deltaray.oracle import tables_equal
from deltaray.pipeline import read_table
from deltaray.schemas import TableSchema, apply_ddl, ddl_payload, default_table_schema


def _check(cfg, tables=("docs",)):
    replay(cfg)
    oracle = replay_oracle(cfg)
    for t in tables:
        got = read_table(cfg.lake, t, cfg.generation)
        ok, msg = tables_equal(got, oracle[t], key=oracle[t].column_names[0])
        assert ok, f"{t}: {msg}"


# ---------------------------------------------------------------- unit

def test_with_altered_type_changes_code():
    s = default_table_schema("docs")
    s2 = s.with_altered_type("n_tok", "int64", seq=7)
    assert dict(s2.fields)["n_tok"] == "int64"
    assert dict(s.fields)["n_tok"] == "int32"  # original untouched
    assert s2.version_seq == 7


def test_with_altered_type_rejects_key_unknown_badcode():
    s = default_table_schema("docs")
    with pytest.raises(ValueError, match="key column"):
        s.with_altered_type("doc_id", "int64", seq=1)
    with pytest.raises(ValueError, match="no column"):
        s.with_altered_type("nope", "int64", seq=1)
    with pytest.raises(ValueError, match="unknown type code"):
        s.with_altered_type("n_tok", "uint128", seq=1)


def test_apply_ddl_alter_payload():
    s = default_table_schema("docs")
    reg = apply_ddl({"docs": s}, "docs", "ALTER_TABLE",
                    ddl_payload("ALTER_TABLE", alter=("n_tok", "float64")),
                    seq=3)
    assert dict(reg["docs"].fields)["n_tok"] == "float64"


def test_evolve_to_casts_old_file():
    """A partition file written pre-alter (int32) unifies to the altered
    schema (int64) with values intact."""
    old = default_table_schema("docs")
    new = old.with_altered_type("n_tok", "int64", seq=5)
    tbl = stamp_schema(pa.table({
        "doc_id": ["a", "b"],
        "tokens": pa.array([[1, 2], [3]], pa.list_(pa.int32())),
        "n_tok": pa.array([2, 1], pa.int32()),
        "source": ["s", "s"],
    }), old)
    out = evolve_to(tbl, new)
    assert out["n_tok"].type == pa.int64()
    assert out["n_tok"].to_pylist() == [2, 1]


def test_evolve_to_lossy_narrowing_raises():
    old = TableSchema("t", "k", [("k", "string"), ("v", "float64")])
    new = old.with_altered_type("v", "int64", seq=2)
    tbl = stamp_schema(
        pa.table({"k": ["a"], "v": pa.array([1.5], pa.float64())}), old)
    with pytest.raises(pa.ArrowInvalid):
        evolve_to(tbl, new)


# ---------------------------------------------------------------- e2e

def test_alter_type_midstream_matches_oracle(tmp_log, tmp_lake):
    """int32→int64 widening mid-stream: pre-alter chunks commit int32
    files, post-alter chunks commit int64; final table is int64 and
    equals the single-process oracle (tables_equal checks types too)."""
    write_event_log(
        tmp_log, n_docs=150, n_events=2000, seed=31,
        ddl=[(900, "docs", "ALTER_TABLE", {"alter": ("n_tok", "int64")})],
    )
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=400)
    _check(cfg)
    got = read_table(tmp_lake, "docs")
    assert got.schema.field("n_tok").type == pa.int64()


def test_alter_type_with_delta_commits_and_rename(tmp_log, tmp_lake):
    """Alter composed with a later rename, under merge-on-read DELTA
    commits (compact_every>1): the alter forces a drift-compact on the
    next write, mixed-type live files unify at read time, and the rename
    chain still resolves."""
    write_event_log(
        tmp_log, n_docs=120, n_events=2400, seed=33,
        segment_max_events=300,
        ddl=[
            (700, "docs", "ALTER_TABLE", {"alter": ("n_tok", "float64")}),
            (1600, "docs", "RENAME_COLUMN", {"rename": ("n_tok", "tok_ct")}),
        ],
    )
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=300, compact_every=4)
    _check(cfg)
    got = read_table(tmp_lake, "docs")
    assert "tok_ct" in got.column_names and "n_tok" not in got.column_names
    assert got.schema.field("tok_ct").type == pa.float64()


def test_alter_tokens_list_widening(tmp_log, tmp_lake):
    """The payload column itself: list<int32> tokens → list<int64>."""
    write_event_log(
        tmp_log, n_docs=80, n_events=1000, seed=35, track_prev=False,
        ddl=[(400, "docs", "ALTER_TABLE", {"alter": ("tokens", "list<int64>")})],
    )
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=250, track_previous=False)
    _check(cfg)
    got = read_table(tmp_lake, "docs")
    assert got.schema.field("tokens").type == pa.list_(pa.int64())


def test_alter_type_composes_with_optimize_and_retention(tmp_log, tmp_lake):
    """The full maintenance lifecycle across a type alter: replay with
    history (vacuum=False), OPTIMIZE-cluster on the ALTERED column with
    vacuum=False (mixed int32/int64 files sort + compact under the
    unified schema), then expire_snapshots at a post-alter anchor.
    Every retained anchor must read byte-identically to its pre-OPTIMIZE
    capture (pre-alter anchors under the OLD int32 schema), predicate
    reads on the altered column must equal the exact filter throughout,
    and expired anchors raise the clean floor error."""
    import pyarrow.compute as pc

    from deltaray import SnapshotExpiredError, earliest_snapshot, \
        expire_snapshots, optimize_table
    from deltaray.pipeline import read_table_ds, snapshots
    from deltaray.util import to_table

    write_event_log(
        tmp_log, n_docs=150, n_events=2400, seed=41, segment_max_events=300,
        ddl=[(1100, "docs", "ALTER_TABLE", {"alter": ("n_tok", "int64")})],
    )
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=300, compact_every=4, vacuum=False)
    replay(cfg)
    oracle = replay_oracle(cfg)["docs"]
    # the generator's DDL position is a change-stream index; its seq is
    # offset by the n_docs snapshot inserts (+1 for the DDL itself)
    alter_seq = 150 + 1100 + 1
    snaps = snapshots(tmp_lake)
    pre = [s for s in snaps if s <= alter_seq]
    post = [s for s in snaps if s > alter_seq]
    assert pre and len(post) >= 2, snaps

    def check_pred(pred):
        col, op, lit = pred
        ops = {"==": pc.equal, "<": pc.less, ">=": pc.greater_equal}
        got = to_table(read_table_ds(tmp_lake, "docs", predicate=pred))
        full = to_table(read_table_ds(tmp_lake, "docs"))
        want = full.filter(ops[op](full[col], lit)).sort_by("doc_id")
        assert got.sort_by("doc_id").equals(want), pred

    want_pre = read_table(tmp_lake, "docs", asof_seq=pre[-1])
    want_post = read_table(tmp_lake, "docs", asof_seq=post[0])
    assert want_pre.schema.field("n_tok").type == pa.int32()

    optimize_table(tmp_lake, "docs", "n_tok", vacuum=False)
    ok, msg = tables_equal(read_table(tmp_lake, "docs"), oracle, key="doc_id")
    assert ok, msg
    for anchor, want in [(pre[-1], want_pre), (post[0], want_post)]:
        ok, msg = tables_equal(read_table(tmp_lake, "docs", asof_seq=anchor),
                               want, key="doc_id")
        assert ok, f"anchor {anchor} changed after OPTIMIZE: {msg}"
    for pred in [("n_tok", ">=", 20), ("n_tok", "<", 10), ("n_tok", "==", 16)]:
        check_pred(pred)

    keep = post[1]
    expire_snapshots(tmp_lake, "docs", keep)
    assert earliest_snapshot(tmp_lake, "docs") == keep
    got = read_table(tmp_lake, "docs", asof_seq=keep)
    assert got.num_rows > 0
    ok, msg = tables_equal(read_table(tmp_lake, "docs"), oracle, key="doc_id")
    assert ok, msg
    check_pred(("n_tok", ">=", 20))
    with pytest.raises(SnapshotExpiredError):
        read_table(tmp_lake, "docs", asof_seq=pre[-1])


def test_read_changes_and_history_across_alter(tmp_log, tmp_lake):
    """CDC-out across a type alter: a feed anchored BEFORE the alter
    satisfies the patch law under the CURRENT (widened) schema, and
    read_history returns every version evolved to the current schema
    with intact validity chaining."""
    import pyarrow.compute as pc

    from deltaray import read_changes
    from deltaray.pipeline import read_history, snapshots
    from deltaray.util import to_table

    write_event_log(
        tmp_log, n_docs=120, n_events=2000, seed=47, segment_max_events=250,
        ddl=[(900, "docs", "ALTER_TABLE", {"alter": ("n_tok", "int64")})],
    )
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=4,
                       chunk_max_events=250, compact_every=4, vacuum=False)
    replay(cfg)
    anchor = snapshots(tmp_lake)[0]  # pre-alter

    feed = to_table(read_changes(tmp_lake, "docs", since_seq=anchor))
    assert feed.schema.field("n_tok").type == pa.int64()

    base = read_table(tmp_lake, "docs", asof_seq=anchor)
    cur = read_table(tmp_lake, "docs")
    ups = feed.filter(pc.equal(feed["change"], "UPSERT")) \
        .select(cur.column_names)
    changed = set(feed["doc_id"].to_pylist())
    keep = base.filter(
        pa.array([d not in changed for d in base["doc_id"].to_pylist()]))
    patched = pa.concat_tables([keep.cast(cur.schema), ups],
                               promote_options="default")
    ok, msg = tables_equal(patched, cur, key="doc_id")
    assert ok, f"patch law across ALTER: {msg}"

    ks = cur["doc_id"].to_pylist()[:6]
    h = read_history(tmp_lake, "docs", ks)
    assert h.schema.field("n_tok").type == pa.int64()
    hc = h.filter(pc.field("is_current")).select(cur.column_names) \
        .sort_by("doc_id")
    want = cur.filter(
        pa.array([d in set(ks) for d in cur["doc_id"].to_pylist()])) \
        .sort_by("doc_id")
    ok, msg = tables_equal(hc, want, key="doc_id")
    assert ok, msg
    for k in ks:
        rows = h.filter(pc.equal(h["doc_id"], k)).sort_by("seq")
        seqs = rows["seq"].to_pylist()
        vto = rows["valid_to_seq"].to_pylist()
        assert all(vto[i] == seqs[i + 1] for i in range(len(seqs) - 1))
        assert not vto or vto[-1] is None


def test_reads_return_declared_list_item_name(tmp_log, tmp_lake):
    """Parquet reads name a list item ``element``; the declared schema
    (``TableSchema.arrow_schema``) names it ``item``, and pyarrow's ``==``
    ignores the difference.  The one unification on read
    (``read_partition`` → ``evolve_to``) casts it, so every non-empty
    read — driver tables, feed and scan blocks and their declared
    ``schema()`` — says ``item``, like an empty read does."""
    import ray

    from deltaray.commit import LakeState
    from deltaray.pipeline import read_changes, read_rows, read_table_ds

    write_event_log(tmp_log, n_docs=60, n_events=600, seed=41,
                    segment_max_events=200)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=2,
                        chunk_max_events=200, compact_every=3,
                        vacuum=False))
    declared = LakeState(tmp_lake).current_schema("docs").arrow_schema()
    feed_schema = declared.append(pa.field("change", pa.string())) \
        .append(pa.field("seq", pa.int64()))

    def check(schema, want):
        assert schema.field("tokens").type.value_field.name == "item", schema
        assert schema.equals(want, check_metadata=False), schema

    head = read_table(tmp_lake, "docs")
    assert head.num_rows
    check(head.schema, declared)
    check(read_rows(tmp_lake, "docs",
                    head["doc_id"].to_pylist()[:5]).schema, declared)
    for ds, want in ((read_table_ds(tmp_lake, "docs"), declared),
                     (read_changes(tmp_lake, "docs", since_seq=0),
                      feed_schema)):
        check(ds.schema().base_schema, want)
        blocks = [b for b in ray.get(ds.to_arrow_refs()) if b.num_rows]
        assert blocks
        for b in blocks:
            check(b.schema, want)
