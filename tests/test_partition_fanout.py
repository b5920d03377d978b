"""The per-partition Ray Data fan-out (``pipeline._per_partition``):
every partition-parallel read is one block and one map task per live
partition, with no all-to-all stage, and a fan-out over no partitions
is an empty table typed like a non-empty one."""
import re

import pyarrow as pa
import ray

from deltaray import (ReplayConfig, read_changes, read_table, read_table_ds,
                      replay, snapshots)
from deltaray.commit import LakeState
from deltaray.gen import write_event_log


def _map_tasks(ds) -> dict[str, int]:
    """Materialize ``ds``; return its map operators' task counts by UDF
    name, after checking the plan has no repartition stage."""
    stats = ds.materialize().stats()
    assert "Repartition" not in stats, stats
    return {name: int(n) for name, n in re.findall(
        r"MapBatches\((\w+)\): (\d+) tasks executed", stats)}


def _table(ds) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def test_one_map_task_per_live_partition(ray_session, tmp_log, tmp_lake):
    write_event_log(tmp_log, n_docs=120, n_events=1500, seed=61,
                    segment_max_events=500)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=5,
                        chunk_max_events=500, vacuum=False))
    lake = LakeState(tmp_lake, 0)
    snaps = snapshots(tmp_lake)
    anchor = snaps[-2]

    def n_live(before):
        return sum(1 for p in lake.partitions("docs")
                   if lake.live_commits("docs", p, before))

    assert n_live(None) == n_live(anchor + 1) == 5
    assert _map_tasks(read_table_ds(tmp_lake, "docs")) == {"load": 5}
    assert _map_tasks(read_table_ds(tmp_lake, "docs",
                                    asof_seq=anchor)) == {"load": 5}
    assert _map_tasks(read_changes(tmp_lake, "docs", 0,
                                   as_of_seq=anchor)) == {"load": 5}

    # the schema is known before execution (no limit(1) re-run that
    # cancels running tasks), and it is the one the blocks carry
    head = read_table(tmp_lake, "docs").schema
    want = head.append(pa.field("change", pa.string())) \
        .append(pa.field("seq", pa.int64()))
    for ds, schema in ((read_table_ds(tmp_lake, "docs"), head),
                       (read_changes(tmp_lake, "docs", 0), want)):
        known = ds.schema(fetch_if_missing=False)
        assert known is not None and known.base_schema.equals(schema)
        assert _table(ds).schema.equals(schema)

    # no live partition: an empty table with the non-empty read's schema
    empty = _table(read_table_ds(tmp_lake, "docs", asof_seq=0))
    assert empty.num_rows == 0 and empty.schema.equals(head), empty.schema
    feed = _table(read_changes(tmp_lake, "docs", snaps[-1]))
    assert feed.num_rows == 0 and feed.schema.equals(want), feed.schema
