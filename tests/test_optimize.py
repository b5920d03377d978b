"""OPTIMIZE / zone-map data skipping: ``optimize_table`` clustering +
``read_table_ds(predicate=...)`` pruned reads.

Correctness contract under test: zone maps (commit-record min/max +
parquet row-group stats) only ever SKIP IO — membership is always decided
by the exact post-merge filter, so every predicate read must equal the
full read filtered, in both orderings, before and after OPTIMIZE, and
after new deltas land on a clustered base.  (Delta Lake OPTIMIZE/ZORDER +
data-skipping-stats analog; reference has no file lake, the semantics
model its state-store reads, DeltaPipelineStateStoreBaseTest.java.)
"""

import glob
import os
import shutil

import pyarrow.compute as pc
import pyarrow.parquet as pq

from deltaray import (ReplayConfig, lineage_report, optimize_table,
                      read_table_ds, replay)
from deltaray.commit import (LakeState, _base_row_groups, column_stats,
                             stats_disjoint)
from deltaray.gen import write_event_log


def _collect(ds):
    import pyarrow as pa
    tbls = [t for t in ds.to_arrow_refs()]
    import ray
    tbls = [t for t in ray.get(tbls) if t.num_rows]
    if not tbls:
        return None
    return pa.concat_tables(tbls, promote_options="default") \
        .sort_by("doc_id")


def _pred_equals_filter(lake, pred, io_stats=None):
    """read_table_ds(predicate=pred) == full read + exact filter."""
    col, op, lit = pred
    got = _collect(read_table_ds(lake, "docs", predicate=pred,
                                 io_stats_out=io_stats))
    full = _collect(read_table_ds(lake, "docs"))
    ops = {"==": pc.equal, "<": pc.less, "<=": pc.less_equal,
           ">": pc.greater, ">=": pc.greater_equal}
    want = full.filter(ops[op](full[col], lit))
    if got is None:
        assert want.num_rows == 0
        return
    assert got.num_rows == want.num_rows
    assert got.equals(want), f"predicate {pred} read != filtered full read"


def test_predicate_read_matches_filter(tmp_log, tmp_lake):
    write_event_log(tmp_log, n_docs=200, n_events=1500, seed=31)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake,
                        num_partitions=4, chunk_max_events=400))
    for pred in [("n_tok", ">=", 20), ("n_tok", "<", 10),
                 ("n_tok", "==", 16), ("source", "==", "web"),
                 ("n_tok", ">", 10_000)]:
        _pred_equals_filter(tmp_lake, pred)


def test_optimize_then_predicate(tmp_log, tmp_lake):
    """OPTIMIZE compacts each partition to one clustered base, and each
    partition's lineage follows it (same last_seq, watermark and
    state); predicate reads stay exact and the disjoint predicate
    prunes everything from driver-side metadata alone."""
    write_event_log(tmp_log, n_docs=300, n_events=2500, seed=33,
                    segment_max_events=600)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake,
                        num_partitions=4, chunk_max_events=600))
    lin0 = lineage_report(tmp_lake, "docs")["tables"]["docs"]["partitions"]
    res = optimize_table(tmp_lake, "docs", "n_tok", row_group_rows=16)
    assert res["partitions"] == 4
    assert res["files_removed"] > 0          # base+deltas folded away
    lin1 = lineage_report(tmp_lake, "docs")["tables"]["docs"]["partitions"]
    lk = LakeState(tmp_lake)
    for p in range(4):
        live = lk.live_commits("docs", p)
        assert len(live) == 1                # one clustered base file
        assert live[0].get("clustered_by") == "n_tok"
        assert "n_tok" in live[0]["stats"]
        latest = lk.latest_commit("docs", p)["file"]
        assert lin1[p]["file"] == latest
        assert os.path.exists(os.path.join(lk.part_dir("docs", p), latest))
        for k in ("last_seq", "watermark_src_ts", "state"):
            assert lin1[p][k] == lin0[p][k], (p, k)
    for pred in [("n_tok", ">=", 30), ("n_tok", "<=", 5),
                 ("n_tok", "==", 12)]:
        _pred_equals_filter(tmp_lake, pred)
    # disjoint predicate: every partition pruned from commit-log zone
    # maps, zero data files opened
    st: dict = {}
    _pred_equals_filter(tmp_lake, ("n_tok", ">", 10_000_000), io_stats=st)
    assert st["parts_pruned"] == 4
    assert st["files_read"] == 0


def test_row_group_pruning_on_clustered_base(tmp_log, tmp_lake):
    """After clustering, a narrow predicate reads a strict subset of the
    base's row groups — and returns exactly the filtered rows."""
    write_event_log(tmp_log, n_docs=400, n_events=2000, seed=35)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake,
                        num_partitions=2, chunk_max_events=700))
    optimize_table(tmp_lake, "docs", "n_tok", row_group_rows=16)
    lk = LakeState(tmp_lake)
    pruned_any = False
    for p in range(2):
        live = lk.live_commits("docs", p)
        path = os.path.join(lk.part_dir("docs", p), live[0]["file"])
        n_rg = pq.ParquetFile(path).metadata.num_row_groups
        assert n_rg > 2, "row_group_rows did not split the base"
        st: dict = {}
        tbl, _ = lk.read_partition("docs", p, prune=[("n_tok", 8, 12)],
                                   io_stats=st)
        if "row_groups_read" in st:
            assert st["row_groups_read"] < n_rg
            pruned_any = True
        # the pruned read still contains every matching row
        full, _ = lk.read_partition("docs", p)
        want = full.filter(
            pc.and_(pc.greater_equal(full["n_tok"], 8),
                    pc.less_equal(full["n_tok"], 12)))
        got = tbl.filter(
            pc.and_(pc.greater_equal(tbl["n_tok"], 8),
                    pc.less_equal(tbl["n_tok"], 12)))
        assert got.sort_by("doc_id").equals(want.sort_by("doc_id"))
    assert pruned_any, "no partition pruned a row group"


def test_optimize_idempotent(tmp_log, tmp_lake):
    write_event_log(tmp_log, n_docs=100, n_events=800, seed=37)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake,
                        num_partitions=3, chunk_max_events=300))
    r1 = optimize_table(tmp_lake, "docs", "n_tok")
    before = _collect(read_table_ds(tmp_lake, "docs"))
    r2 = optimize_table(tmp_lake, "docs", "n_tok")
    assert r2["already_clustered"] == r2["partitions"] == r1["partitions"]
    after = _collect(read_table_ds(tmp_lake, "docs"))
    assert before.equals(after)


def test_deltas_after_optimize_never_skipped(tmp_log, tmp_lake, tmp_path):
    """The key safety property: new deltas landing on a clustered base
    must always be read — a predicate read after the tail replay equals
    the filtered full state (a skipped delta would resurrect stale
    base rows)."""
    write_event_log(tmp_log, n_docs=250, n_events=3000, seed=39,
                    segment_max_events=600)
    prefix = str(tmp_path / "prefix")
    os.makedirs(prefix)
    segs = sorted(glob.glob(os.path.join(tmp_log, "*.parquet")))
    for f in segs[:3]:
        shutil.copy(f, os.path.join(prefix, os.path.basename(f)))
    replay(ReplayConfig(event_log=prefix, lake=tmp_lake,
                        num_partitions=4, chunk_max_events=600))
    optimize_table(tmp_lake, "docs", "n_tok", row_group_rows=16)
    # tail the full log: deltas now sit on top of the clustered base
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake,
                        num_partitions=4, chunk_max_events=600))
    for pred in [("n_tok", ">=", 25), ("n_tok", "<", 8),
                 ("n_tok", "==", 16)]:
        _pred_equals_filter(tmp_lake, pred)


def test_unordered_predicate_exact_without_pruning(tmp_log, tmp_lake):
    """UN_ORDERED lakes never skip base files/row groups (version !=
    seq), but the exact filter path still holds."""
    write_event_log(tmp_log, n_docs=150, n_events=1200, seed=41,
                    unordered=True)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake,
                        num_partitions=3, chunk_max_events=400,
                        ordering="UN_ORDERED"))
    optimize_table(tmp_lake, "docs", "n_tok", row_group_rows=16)
    for pred in [("n_tok", ">=", 20), ("n_tok", "<", 10)]:
        _pred_equals_filter(tmp_lake, pred)


def test_multi_conjunct_predicate(tmp_log, tmp_lake):
    """AND-conjunct lists: exact equality with the composed filter, and
    a partition-skipping disjoint conjunct prunes everything even when
    the other conjunct matches."""
    import pyarrow as pa

    write_event_log(tmp_log, n_docs=250, n_events=2000, seed=43)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake,
                        num_partitions=4, chunk_max_events=600))
    optimize_table(tmp_lake, "docs", "n_tok", row_group_rows=16)
    pred = [("n_tok", ">=", 10), ("n_tok", "<", 30), ("source", "==", "web")]
    got = _collect(read_table_ds(tmp_lake, "docs", predicate=pred))
    full = _collect(read_table_ds(tmp_lake, "docs"))
    want = full.filter(pc.and_(
        pc.and_(pc.greater_equal(full["n_tok"], 10),
                pc.less(full["n_tok"], 30)),
        pc.equal(full["source"], "web")))
    if got is None:
        assert want.num_rows == 0
    else:
        assert got.equals(want)
    st: dict = {}
    empty = _collect(read_table_ds(
        tmp_lake, "docs",
        predicate=[("source", "==", "web"), ("n_tok", ">", 10_000_000)],
        io_stats_out=st))
    assert empty is None and st["files_read"] == 0
    assert st["parts_pruned"] == 4


def test_zorder_multi_column(tmp_log, tmp_lake):
    """Z-order clustering: state is unchanged, predicates on EITHER
    cluster column (and their conjunction) stay exact, and row-group
    pruning fires for both columns."""
    write_event_log(tmp_log, n_docs=600, n_events=3000, seed=45)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake,
                        num_partitions=2, chunk_max_events=1200))
    before = _collect(read_table_ds(tmp_lake, "docs"))
    res = optimize_table(tmp_lake, "docs", ["n_tok", "source"],
                         row_group_rows=16)
    assert res["partitions"] == 2
    after = _collect(read_table_ds(tmp_lake, "docs"))
    assert before.equals(after), "z-order rewrite changed the state"
    lk = LakeState(tmp_lake)
    assert lk.live_commits("docs", 0)[0]["clustered_by"] == \
        ["n_tok", "source"]
    for pred in [("n_tok", "<=", 10), ("source", "==", "web"),
                 [("n_tok", ">=", 20), ("source", "==", "code")]]:
        if isinstance(pred, tuple):
            _pred_equals_filter(tmp_lake, pred)
    # row-group pruning fires on each column independently
    for prune in [[("n_tok", None, 8)], [("source", "web", "web")]]:
        pruned_any = False
        for p in range(2):
            st: dict = {}
            lk.read_partition("docs", p, prune=prune, io_stats=st)
            live = lk.live_commits("docs", p)
            path = os.path.join(lk.part_dir("docs", p), live[0]["file"])
            n_rg = pq.ParquetFile(path).metadata.num_row_groups
            if st.get("row_groups_read", n_rg) < n_rg:
                pruned_any = True
        assert pruned_any, f"z-order gave no row-group skip for {prune}"


def test_cluster_on_write(tmp_log, tmp_lake):
    """ReplayConfig.cluster_by keeps compacting bases sorted during
    replay: state == oracle, base commits advertise the layout,
    row-group pruning fires with no optimize_table pass, and predicate
    reads stay exact over the mixed clustered-base + delta layout."""
    from deltaray import replay_oracle
    from deltaray.config import config_from_dict, config_to_dict
    from deltaray.oracle import tables_equal
    from deltaray.pipeline import read_table

    write_event_log(tmp_log, n_docs=400, n_events=3000, seed=47,
                    segment_max_events=600)
    cfg = ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=2,
                       chunk_max_events=600, compact_every=3,
                       cluster_by="n_tok", cluster_row_group_rows=16)
    # the layout knobs round-trip through draft serialization
    cfg2 = config_from_dict(config_to_dict(cfg))
    assert (cfg2.cluster_by, cfg2.cluster_row_group_rows) == ("n_tok", 16)
    replay(cfg)
    ok, msg = tables_equal(read_table(tmp_lake, "docs"),
                           replay_oracle(cfg)["docs"])
    assert ok, msg
    lk = LakeState(tmp_lake)
    pruned_any = False
    saw_clustered_base = False
    for p in range(2):
        live = lk.live_commits("docs", p)
        if live[0].get("kind", "base") == "base":
            assert live[0].get("clustered_by") == "n_tok"
            saw_clustered_base = True
            path = os.path.join(lk.part_dir("docs", p), live[0]["file"])
            n_rg = pq.ParquetFile(path).metadata.num_row_groups
            st: dict = {}
            lk.read_partition("docs", p, prune=[("n_tok", None, 8)],
                              io_stats=st)
            if st.get("row_groups_read", n_rg) < n_rg:
                pruned_any = True
    assert saw_clustered_base, "no compacted base produced by the replay"
    assert pruned_any, "cluster-on-write gave no row-group skip"
    for pred in [("n_tok", ">=", 25), ("n_tok", "<", 8)]:
        _pred_equals_filter(tmp_lake, pred)


def test_key_equality_predicate_routes_to_one_partition(tmp_log, tmp_lake):
    """A predicate whose equality conjuncts pin every key column can
    only match rows in ONE hash partition — the scan API routes there
    like read_rows (independent of ordering/zone maps), the exact
    filter still applies, and a missing key reads empty."""
    from deltaray import read_table, tables_equal
    from deltaray.util import to_table

    write_event_log(tmp_log, n_docs=120, n_events=1500, seed=17,
                    segment_max_events=500)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake,
                        num_partitions=8, chunk_max_events=500))
    full = read_table(tmp_lake, "docs")
    key = full["doc_id"][0].as_py()

    io = {}
    got = to_table(read_table_ds(tmp_lake, "docs",
                                 predicate=("doc_id", "==", key),
                                 io_stats_out=io))
    want = full.filter(pc.equal(full["doc_id"], key))
    ok, msg = tables_equal(got, want, key="doc_id")
    assert ok, msg
    assert io["parts_pruned"] >= 7, f"did not route: {io}"

    # composite with a second conjunct: still routed, still exact
    io2 = {}
    got2 = to_table(read_table_ds(
        tmp_lake, "docs",
        predicate=[("doc_id", "==", key), ("n_tok", ">", -1)],
        io_stats_out=io2))
    ok, msg = tables_equal(got2, want, key="doc_id")
    assert ok, msg
    assert io2["parts_pruned"] >= 7

    # a key that never existed: empty, zero partitions read
    got3 = to_table(read_table_ds(tmp_lake, "docs",
                                  predicate=("doc_id", "==", "nope")))
    assert got3.num_rows == 0
    # non-key equality does NOT mis-route (n_tok is not a key column)
    got4 = to_table(read_table_ds(tmp_lake, "docs",
                                  predicate=("n_tok", "==",
                                             full["n_tok"][0].as_py())))
    want4 = full.filter(pc.equal(full["n_tok"], full["n_tok"][0]))
    ok, msg = tables_equal(got4.sort_by([("doc_id", "ascending")]),
                           want4.sort_by([("doc_id", "ascending")]),
                           key="doc_id")
    assert ok, msg


def test_zone_map_units(tmp_path):
    """column_stats / stats_disjoint / _base_row_groups unit behavior:
    non-scalar + all-null columns omitted, type mismatches never prune,
    missing entries never prune."""
    import pyarrow as pa

    tbl = pa.table({
        "i": pa.array([3, 1, 7], pa.int64()),
        "s": pa.array(["b", "a", "c"]),
        "f": pa.array([1.5, float("nan"), 2.5]),
        "lst": pa.array([[1], [2], [3]], pa.list_(pa.int32())),
        "nul": pa.array([None, None, None], pa.int64()),
    })
    st = column_stats(tbl)
    assert st["i"] == [1, 7] and st["s"] == ["a", "c"]
    assert "lst" not in st and "nul" not in st
    assert stats_disjoint(st, "i", 8, None)          # min 8 > max 7
    assert stats_disjoint(st, "i", None, 0)          # max 0 < min 1
    assert not stats_disjoint(st, "i", 7, 7)         # touches the max
    assert not stats_disjoint(st, "missing", 0, 0)   # absent: read
    assert not stats_disjoint(st, "i", "x", "y")     # type mismatch: read
    path = str(tmp_path / "rg.parquet")
    pq.write_table(tbl.select(["i", "s"]).sort_by("i"), path,
                   row_group_size=1)
    assert _base_row_groups(path, [("i", 3, 3)]) == [1]
    assert _base_row_groups(path, [("i", 100, None)]) == []
    assert _base_row_groups(path, [("i", None, None)]) is None  # all hit
    assert _base_row_groups(path, [("missing", 0, 1)]) is None
