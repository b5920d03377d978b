"""Key-filtered merge-on-read and the one data-file reader.

``read_rows`` filters each live file to the lookup keys before the
concat and the LWW reduce (``LakeState.read_partition(schema,
keep=...)``).  That is exact because LWW is per key, and it must run
after the file's evolve to the read schema because a RENAME_COLUMN can
rename the key column.  The
property test holds it against the unfiltered table read at head and at
every anchor; the reader test pins ``commit.read_data_file`` to
``pq.read_table``.
"""

import glob
import os
import random

import pyarrow as pa
import pyarrow.parquet as pq
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from deltaray import ReplayConfig, read_rows, replay
from deltaray.commit import SCHEMA_META_KEY, LakeState, read_data_file
from deltaray.gen import write_event_log
from deltaray.pipeline import SnapshotExpiredError, read_table, snapshots
from tests.test_composite_keys import _write_composite_log

DDL_CHOICES = [
    ("ALTER_TABLE", {"add": ("lang", "string"), "choices": ["en", "de"]}),
    ("RENAME_COLUMN", {"rename": ("doc_id", "id")}),  # the key column
    ("TRUNCATE_TABLE", {}),
]


def _split_log(log_dir: str, seg_events: int) -> None:
    """Re-cut a one-file event log into ``seg_events``-event segments,
    so replay commits it in several chunks (chunks split only on
    segment boundaries)."""
    (path,) = glob.glob(os.path.join(log_dir, "events-*.parquet"))
    t = pq.read_table(path)
    os.remove(path)
    for i, off in enumerate(range(0, t.num_rows, seg_events)):
        s = t.slice(off, seg_events)
        lo, hi = s["seq"][0].as_py(), s["seq"][-1].as_py()
        pq.write_table(s, os.path.join(
            log_dir, f"events-{i:05d}-{lo:012d}-{hi:012d}.parquet"))


@st.composite
def lookup_cases(draw):
    composite = draw(st.booleans())
    case = dict(composite=composite,
                seed=draw(st.integers(0, 2**31 - 1)),
                n_events=draw(st.integers(100, 500)),
                parts=draw(st.sampled_from([1, 2, 4])),
                compact_every=draw(st.sampled_from([1, 3, 8])),
                rnd=draw(st.randoms(use_true_random=False)))
    if composite:
        case["seg"] = draw(st.integers(60, 250))
        return case
    case["unordered"] = draw(st.booleans())
    mix_del = draw(st.floats(0.1, 0.4))
    case["mix"] = (0.3, 0.7 - mix_del, mix_del)
    picked = draw(st.lists(st.sampled_from(range(len(DDL_CHOICES))),
                           unique=True, max_size=3))
    # a DDL among the last few events leaves the partitions no later
    # event reaches on files written under the old schema — lookups at
    # head must then evolve them, the renamed key included
    n = case["n_events"]
    at = sorted(draw(st.lists(st.integers(0, n - 1)
                              | st.integers(n - 8, n - 1),
                              min_size=len(picked), max_size=len(picked))))
    case["ddl"] = [(i, "docs", *DDL_CHOICES[j]) for j, i in zip(picked, at)]
    case["seg"] = draw(st.integers(60, 250))
    return case


def _draw_keys(rnd, seen: list, live: set, absent) -> list:
    """Lookup keys drawn present, deleted (seen but no longer live),
    absent (never written) and duplicated."""
    dead = [k for k in seen if k not in live]
    keys = rnd.sample(sorted(live), min(4, len(live)))
    keys += rnd.sample(dead, min(3, len(dead)))
    keys.append(absent)
    keys += rnd.sample(keys, min(2, len(keys)))  # duplicates
    rnd.shuffle(keys)
    return keys


def _keys_at(t: pa.Table) -> list:
    """The key columns of a table read (the docs key may be renamed)."""
    if "k1" in t.column_names:
        return ["k1", "k2"]
    return ["id"] if "id" in t.column_names else ["doc_id"]


def _key_of(row: dict, key_cols: list):
    return tuple(row[c] for c in key_cols) if len(key_cols) > 1 \
        else row[key_cols[0]]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(case=lookup_cases())
# an anchor whose state is tombstones only: both reads are empty and must
# carry the same list item name
@example(case=dict(composite=False, seed=1, n_events=100, parts=1,
                   compact_every=1, rnd=random.Random(0), unordered=False,
                   mix=(0.3, 0.45, 0.25), seg=60,
                   ddl=[(0, "docs", *DDL_CHOICES[0]),
                        (0, "docs", *DDL_CHOICES[2]),
                        (1, "docs", *DDL_CHOICES[1])]))
def test_keyed_lookup_equals_filtered_table_read(case, tmp_path_factory):
    """``read_rows(keys, asof_seq=a)`` == ``read_table(asof_seq=a)``
    filtered to ``keys``, at head and at every anchor, across deletes,
    updates, UN_ORDERED late arrivals, TRUNCATE, an ADD COLUMN, a
    RENAME_COLUMN of the key column, and composite keys."""
    root = tmp_path_factory.mktemp("keyed")
    log, lake = str(root / "events"), str(root / "lake")
    if case["composite"]:
        table, absent = "pairs", ("zz", 10**6)
        _write_composite_log(log, n_events=case["n_events"],
                             seed=case["seed"])
        _split_log(log, case["seg"])
        unordered = False
    else:
        table, absent = "docs", "docs-doc99999999"
        unordered = case["unordered"]
        write_event_log(log, n_docs=40, n_events=case["n_events"],
                        seed=case["seed"], unordered=unordered,
                        mix=case["mix"], ddl=case["ddl"],
                        segment_max_events=case["seg"])
    replay(ReplayConfig(
        event_log=log, lake=lake, num_partitions=case["parts"],
        chunk_max_events=case["seg"], compact_every=case["compact_every"],
        vacuum=False, ordering="UN_ORDERED" if unordered else "ORDERED"))
    anchors = [None, 0, *snapshots(lake)]
    states = {}
    for a in anchors:
        try:
            states[a] = read_table(lake, table, asof_seq=a)
        except SnapshotExpiredError:
            states[a] = None
    seen = sorted({_key_of(r, _keys_at(t)) for t in states.values()
                   if t is not None for r in t.to_pylist()}, key=repr)
    rnd = case["rnd"]
    for a, full in states.items():
        if full is None:
            try:
                read_rows(lake, table, [absent], asof_seq=a)
            except SnapshotExpiredError:
                continue
            raise AssertionError(f"anchor {a}: table read expired, "
                                 f"lookup did not")
        kc = _keys_at(full)
        rows = full.to_pylist()
        live = {_key_of(r, kc) for r in rows}
        keys = _draw_keys(rnd, seen, live, absent)
        want = [r for r in rows if _key_of(r, kc) in set(keys)]
        got = read_rows(lake, table, keys, asof_seq=a)
        assert got.schema.equals(full.schema, check_metadata=True), \
            (a, got.schema, full.schema)
        assert got.to_pylist() == want, f"anchor {a}, keys {keys}"
        payload = [c for c in full.column_names if c not in kc]
        if payload:
            col = rnd.choice(payload)
            got = read_rows(lake, table, keys, asof_seq=a, columns=[col])
            assert got.to_pylist() == [{c: r[c] for c in [*kc, col]}
                                       for r in want], (a, col)


def _expected_row_groups(path: str, columns, groups: list) -> pa.Table:
    """The row groups ``groups`` of ``pq.read_table``'s whole-file read."""
    full = pq.read_table(path, columns=columns)
    md = pq.ParquetFile(path).metadata
    starts = [0]
    for g in range(md.num_row_groups):
        starts.append(starts[-1] + md.row_group(g).num_rows)
    return pa.concat_tables(
        [full.slice(starts[g], starts[g + 1] - starts[g]) for g in groups])


def test_data_file_reader_matches_read_table(tmp_log, tmp_lake):
    """``read_data_file`` returns what ``pq.read_table`` returns — the
    same rows, types and embedded ``SCHEMA_META_KEY`` metadata — for a
    clustered multi-row-group base and for a delta file, with and
    without a column subset and a row-group subset."""
    write_event_log(tmp_log, n_docs=300, n_events=1200, seed=5,
                    segment_max_events=300)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake, num_partitions=2,
                        chunk_max_events=300, compact_every=3,
                        vacuum=False, cluster_by="n_tok",
                        cluster_row_group_rows=40))
    lk = LakeState(tmp_lake)
    recs = lk.list_commits("docs", 0)
    base = next(c for c in reversed(recs) if c.get("clustered_by"))
    delta = next(c for c in reversed(recs) if c["kind"] == "delta")
    for rec in (base, delta):
        path = os.path.join(lk.part_dir("docs", 0), rec["file"])
        n_groups = pq.ParquetFile(path).num_row_groups
        if rec is base:
            assert n_groups >= 3, n_groups
        for columns in (None, ["doc_id", "n_tok", "__seq", "__deleted"]):
            want = pq.read_table(path, columns=columns)
            got = read_data_file(path, columns)
            assert SCHEMA_META_KEY in got.schema.metadata
            assert got.equals(want, check_metadata=True), (path, columns)
            for groups in ([0], [n_groups - 1], list(range(0, n_groups, 2))):
                want = _expected_row_groups(path, columns, groups)
                got = read_data_file(pq.ParquetFile(path), columns, groups)
                assert got.equals(want, check_metadata=True), \
                    (path, columns, groups)
