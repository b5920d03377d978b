"""Merge-apply stage: per-(table, partition) last-writer-wins upsert with
copy-on-write rewrite and idempotent commit.

Semantics contract (EventConsumer.java:39-76): at-least-once delivery +
idempotent apply ⇒ exactly-once effect.  Here idempotence is structural:

- every change row carries a unique version (__src_ts, __sk, __seq) —
  (source_ts, sortKeys) for UN_ORDERED sources (SourceProperties.java:29-32,
  SortKey.java:26-41), else just seq (Sequenced.java:26-53);
- the lake stores the winning version per key, including DELETE
  tombstones, so merge = concat(base, changes) → max-version-per-key,
  which is commutative/associative — re-applying any already-applied
  change batch is a no-op;
- the commit record for (partition, seq_lo, seq_hi) is write-once; a
  merge whose partition's committed head covers its chunk skips
  entirely (DeltaTargetContext.commitOffset:44-58 analog, seq never
  re-incremented on retry — DeltaPipelineStateStoreBaseTest.java:384-386;
  the one argument is stated in :mod:`deltaray.commit`).

Schema evolution: each data file embeds its effective TableSchema in the
Parquet key-value metadata; ``evolve_to`` unifies an old file to the
current schema (rename chains resolved through original-name keys,
missing columns added as nulls, dropped columns removed) — the Arrow
translation of applying DDLEvent.schema (DDLEvent.java:49-55).
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from deltaray.commit import (SCHEMA_META_KEY, LakeState, live_window,
                             read_data_file)
from deltaray.schemas import TOKENS, TableSchema, code_to_type
from deltaray.transforms import lww_reduce, version_col_names
from deltaray.util import cluster_sort

# A merge task holds one partition's full state in memory; past this row
# count the lake needs more num_partitions (re-shard into a new
# generation).  Surfaced as lineage {"oversized": true}, not an error.
PARTITION_ROWS_SOFT_LIMIT = 4_000_000

LINEAGE_SCHEMA = pa.schema(
    [
        ("table", pa.string()),
        ("part", pa.int32()),
        ("seq_lo", pa.int64()),
        ("seq_hi", pa.int64()),
        ("rows", pa.int64()),
        ("applied_inserts", pa.int64()),
        ("applied_updates", pa.int64()),
        ("applied_deletes", pa.int64()),
        ("bytes_in", pa.int64()),
        ("skipped", pa.bool_()),
    ]
)


def evolve_to(tbl: pa.Table, target: TableSchema) -> pa.Table:
    """Unify a partition file written under an older effective schema to the
    current one.  Rename chains: both schemas key their ``renames`` map by
    the ORIGINAL column name, so old column c maps to original o (where
    old.renames[o] == c) and then to target.renames.get(o, o)."""
    meta = tbl.schema.metadata or {}
    old_json = meta.get(SCHEMA_META_KEY)
    file_epoch: dict[str, int] = {}
    if old_json:
        old = TableSchema.from_json(old_json.decode())
        # defensive: drop payload columns the file's own schema does not
        # declare (foreign union-schema columns written by old engine
        # versions) — they would collide with rename-chain mapping
        known = set(old.column_names())
        foreign = [c for c in tbl.column_names
                   if not c.startswith("__") and c not in known]
        if foreign:
            tbl = tbl.drop_columns(foreign)
        cur_for_orig = dict(target.renames)
        orig_for_old = {n: o for o, n in old.renames.items()}
        new_names = []
        for c in tbl.column_names:
            if c.startswith("__"):  # engine-internal columns keep their name
                new_names.append(c)
            else:
                o = orig_for_old.get(c, c)
                n = cur_for_orig.get(o, o)
                new_names.append(n)
                file_epoch[n] = old.epochs.get(c, 0)
        tbl = tbl.rename_columns(new_names)
    want = target.column_names()
    cols = {}
    for name, codec in target.fields:
        want_t = code_to_type(codec)
        if name in tbl.column_names and \
                file_epoch.get(name, 0) >= target.epochs.get(name, 0):
            col = tbl[name]
            # ALTER COLUMN TYPE: files written pre-alter keep their old
            # type on disk; unify here (the north-star's "Arrow schema
            # unification per partition").  Safe cast — a lossy narrowing
            # raises instead of silently corrupting values.  Parquet
            # reads name list items "element", the declared type "item";
            # pyarrow's == ignores that name, the zero-copy cast fixes it
            same = col.type == want_t and (
                not pa.types.is_list(want_t)
                or col.type.value_field.name == want_t.value_field.name)
            cols[name] = col if same else col.cast(want_t)
        else:
            cols[name] = pa.nulls(tbl.num_rows, want_t)
    for v in tbl.column_names:
        if v.startswith("__"):
            cols[v] = tbl[v]
    return pa.table(cols)


def _base_positions(base: pa.Table, changes: pa.Table, keys: list[str]) -> np.ndarray:
    """For each change row, the base row index holding the same (possibly
    composite) key, or -1 — vectorized.  Single column: ``pc.index_in``;
    composite: shared factorize over the concatenated key columns + an
    exact code→row lookup table (base is per-key-unique)."""
    if len(keys) == 1:
        k = keys[0]
        pos = pc.index_in(changes[k].combine_chunks(),
                          value_set=base[k].combine_chunks())
        pos_np = pos.to_numpy(zero_copy_only=False)  # float ndarray w/ nan
        return np.where(np.isnan(pos_np), -1, pos_np).astype(np.int64)
    from deltaray.transforms import key_codes

    allk = pa.concat_tables(
        [base.select(keys), changes.select(keys)], promote_options="none"
    )
    codes = key_codes(allk, keys)
    bcodes, ccodes = codes[: base.num_rows], codes[base.num_rows:]
    lut = np.full(int(codes.max()) + 1 if len(codes) else 1, -1, np.int64)
    lut[bcodes] = np.arange(len(bcodes), dtype=np.int64)
    return lut[ccodes]


def upsert_by_version(base: pa.Table, changes: pa.Table, key,
                      stats: dict | None = None) -> pa.Table:
    """Merge per-key-unique ``changes`` into per-key-unique ``base``:
    for a key present in both, the row with the greater version
    (__src_ts, __sk, __seq) wins; changes win ties (idempotent replay of
    an identical event).  All comparisons run on int64 numpy views — the
    fat payload columns are moved once, by the final filter/concat.
    ``key`` is a column name or a list of them (composite primary key,
    DDLEvent.java:31-55 primaryKey list).

    In ORDERED mode every change's __seq exceeds anything in base (chunk
    reads start past the committed seq), so this degenerates to "change
    wins"; in UN_ORDERED mode it resolves logically-late arrivals exactly
    like the reference target's (source_ts, sort_keys) comparison
    (SourceProperties.java:29-32 builder javadoc :92-99).
    """
    keys = [key] if isinstance(key, str) else list(key)
    pos_np = _base_positions(base, changes, keys)
    have = pos_np >= 0
    if not have.any():
        if stats is not None:
            stats["stale_changes"] = 0
        return pa.concat_tables([base, changes], promote_options="none")
    bidx = pos_np[have]

    def ver(tbl: pa.Table, col: str) -> np.ndarray:
        return tbl[col].to_numpy(zero_copy_only=False)

    vcols = version_col_names(changes.column_names)
    c_arr = [ver(changes, c)[have] for c in vcols]
    b_arr = [ver(base, c)[bidx] for c in vcols]
    # lexicographic (ts, sk0.., seq) >= — change wins ties; built from the
    # last component (seq, ties -> change) backwards
    wins = c_arr[-1] >= b_arr[-1]
    for cv, bv in zip(reversed(c_arr[:-1]), reversed(b_arr[:-1])):
        wins = (cv > bv) | ((cv == bv) & wins)
    if stats is not None:
        # change rows that LOST to already-committed state = late arrivals
        # superseded across chunk boundaries (UN_ORDERED replication-lag
        # signal; always 0 for ORDERED sources)
        stats["stale_changes"] = int((~wins).sum())
    change_keep = np.ones(changes.num_rows, dtype=bool)
    change_keep[np.flatnonzero(have)[~wins]] = False
    base_keep = np.ones(base.num_rows, dtype=bool)
    base_keep[bidx[wins]] = False
    return pa.concat_tables(
        [base.filter(pa.array(base_keep)), changes.filter(pa.array(change_keep))],
        promote_options="none",
    )


def stamp_schema(tbl: pa.Table, schema: TableSchema) -> pa.Table:
    meta = dict(tbl.schema.metadata or {})
    meta[SCHEMA_META_KEY] = schema.to_json().encode()
    return tbl.replace_schema_metadata(meta)


def strip_internal(tbl: pa.Table, with_previous: bool = False) -> pa.Table:
    """Drop tombstones + version columns → the user-visible table.
    ``with_previous=True`` surfaces the stored before-image column as
    ``prev_tokens`` (previousRow, DMLEvent.java:66-72)."""
    if "__deleted" in tbl.column_names:
        tbl = tbl.filter(pc.invert(pc.fill_null(tbl["__deleted"], False)))
    prev = (tbl["__prev_tokens"]
            if with_previous and "__prev_tokens" in tbl.column_names else None)
    drop = [c for c in tbl.column_names if c.startswith("__")]
    if drop:
        tbl = tbl.drop_columns(drop)
    if prev is not None:  # parquet reads name the list item "element"
        tbl = tbl.append_column("prev_tokens", prev.cast(TOKENS))
    return tbl


def _slim_partition_state(lake: LakeState, table: str, part: int,
                          schema: TableSchema, vnames: list[str],
                          live: list[dict]):
    """Key+version columns of the partition's live state (LWW-reduced) —
    the cheap read that lets DELTA commits still measure late arrivals
    and exact state row counts without touching the payload columns.
    ``live`` is the partition's live commit list, as the merge listed it.
    Returns a table, None (no live state), or "drift" when any live file
    was written under a different effective schema (DDL since) — callers
    fall back to a compacting merge then."""
    import os

    import pyarrow.parquet as pq

    if not live:
        return None
    want_meta = schema.to_json().encode()
    cols = list(dict.fromkeys([*schema.keys, *vnames]))
    tbls = []
    for c in live:
        pf = pq.ParquetFile(os.path.join(lake.part_dir(table, part),
                                         c["file"]))
        fschema = pf.schema_arrow
        if (fschema.metadata or {}).get(SCHEMA_META_KEY) != want_meta:
            return "drift"
        if any(col not in fschema.names for col in cols):
            return "drift"
        tbls.append(read_data_file(pf, cols))
    t = pa.concat_tables(tbls, promote_options="none") if len(tbls) > 1 \
        else tbls[0]
    return lww_reduce(t, schema.keys)


def commit_partition(lake: LakeState, table: str, part: int, lo: int,
                     hi: int, data: pa.Table, counts: dict, *,
                     schema: TableSchema | None = None, kind: str = "base",
                     state: str | None = None, state_rows: int | None = None,
                     cluster_by=None, row_group_rows: int = 32768,
                     manifest_every: int = 0, vacuum: bool = False,
                     tag: str = "") -> dict:
    """The one partition-commit tail every writer shares — replay's
    merge, bootstrap, reshard and OPTIMIZE (DeltaTargetContext.
    commitOffset:44-58 analog: apply, then checkpoint and state record).

    Stamps ``schema`` into ``data`` (None keeps the embedded one),
    clusters a ``kind="base"`` file on ``cluster_by`` (deltas stay
    unsorted: cheap, and always fully read anyway), writes the data
    file and write-once commit record (:meth:`LakeState.try_commit`;
    ``tag`` names OPTIMIZE's ``opt`` commit), optionally vacuums the
    superseded files (listed in the returned record's ``vacuumed``),
    then rewrites the partition's lineage record so it names this
    commit (:func:`write_partition_lineage`).  Returns the commit record
    (``replayed`` when it already existed)."""
    if schema is not None:
        data = stamp_schema(data, schema)
    rg_rows = clustered = None
    if kind == "base" and cluster_by:
        # base rewrites keep the partition clustered (linear sort or
        # Z-order) with small row groups, so predicate reads prune
        # continuously between optimize_table passes
        data, present = cluster_sort(data, cluster_by)
        if present:
            rg_rows, clustered = row_group_rows, cluster_by
    rec = lake.try_commit(table, part, lo, hi, data, counts, kind=kind,
                          state_rows=state_rows, row_group_rows=rg_rows,
                          clustered_by=clustered,
                          manifest_every=manifest_every, tag=tag)
    if vacuum:
        # superseded COW files are unreachable once this commit exists
        rec["vacuumed"] = lake.vacuum(table, part)
    write_partition_lineage(lake, table, part, rec, state)
    return rec


def write_partition_lineage(lake: LakeState, table: str, part: int,
                            rec: dict, state: str | None = None) -> None:
    """Rewrite the partition's lineage record so it names commit
    ``rec``; ``state`` None keeps the previous lineage state.  The
    per-partition event-time watermark comes from the commit's
    ``__src_ts`` zone map: everything at or below it for this
    partition's keys has been applied.  Monotone across commits: an
    UN_ORDERED chunk made entirely of late events must not regress the
    partition (and hence table-min) watermark."""
    wm = rec.get("stats", {}).get("__src_ts", [0, 0])[1]
    prev = lake.read_lineage(table, part)
    if prev is not None:
        wm = max(int(wm), int(prev.get("watermark_src_ts", 0)))
        state = state or prev.get("state")
    rows = int(rec.get("state_rows", rec["rows"]))
    lineage = {
        "partition": part,
        "state": state or "REPLICATING",
        "last_seq": int(rec["seq_hi"]),
        "watermark_src_ts": int(wm),
        "file": rec["file"],
        "rows": rows,
        "counts": rec.get("counts", {}),
    }
    if rows > PARTITION_ROWS_SOFT_LIMIT:
        lineage["oversized"] = True
    lake.write_lineage(table, part, lineage)


def _catch_up_lineage(lake: LakeState, table: str, part: int,
                      latest: dict) -> None:
    """A merge that died between its commit record and its lineage
    write is retried into the skip path: re-point the lineage at the
    partition's ``latest`` commit when it lags, or it stays stale until
    some later chunk touches the partition."""
    lin = lake.read_lineage(table, part)
    if lin is None or int(lin.get("last_seq", -1)) < latest["seq_hi"]:
        write_partition_lineage(lake, table, part, latest)


def make_merge_fn(lake_root: str, generation: int, chunk_lo: int, chunk_hi: int,
                  tables: list[str], effective_json: dict[str, str],
                  num_partitions: int,
                  vacuum: bool = True, compact_every: int = 8,
                  cluster_by=None, cluster_row_group_rows: int = 32768,
                  manifest_every: int = 0):
    """Build the ``map_groups`` function for one replay chunk.

    The returned closure runs once per (table, partition) group on a Ray
    worker.  It is deliberately a pure function of (group, lake files):
    the per-partition key→latest-version state lives in the partition's
    Parquet file (read once per chunk), not in actor memory — so any
    worker can process any partition, task retries are safe, and resume
    needs no state handoff.  (Ray translation of the reference's ST8
    "state lives in the target" — EventConsumer.java:58-66.)

    ``tables`` is the chunk's shard→table map (``TransformStage.tables``):
    shard ``s`` is partition ``s % P`` of table ``tables[s // P]``.
    """
    effective = {t: TableSchema.from_json(s) for t, s in effective_json.items()}

    def merge(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return LINEAGE_SCHEMA.empty_table()
        shard = int(group["__shard"][0].as_py())
        tname = tables[shard // num_partitions]
        part = shard % num_partitions
        schema = effective[tname]
        lake = LakeState(lake_root, generation)
        # one listing serves the skip check, the compact decision and
        # the state read below (state-ordered, so the last commit
        # carries the max seq_hi, also when a TRUNCATE hides it; it
        # spans manifests, so a rolled-up commit still counts)
        commits = lake._list_commits_raw(tname, part)
        if commits and chunk_hi <= commits[-1]["seq_hi"]:
            # covered: this chunk already committed (a retry or resume)
            # or a re-segmented catch-up chunk lies inside committed
            # state.  Re-applying would be a correct LWW no-op, but its
            # data file would carry stale-range metadata (a delta
            # stamped at an old seq_hi holding CURRENT winners),
            # poisoning as-of reads at interior anchors and the
            # retention filename gate — so skip without writing.
            _catch_up_lineage(lake, tname, part, commits[-1])
            own = next((c for c in reversed(commits)
                        if (c["seq_lo"], c["seq_hi"]) == (chunk_lo, chunk_hi)),
                       {"table": tname, "part": part, "seq_lo": chunk_lo,
                        "seq_hi": chunk_hi, "rows": 0})
            return _lineage_row(own, skipped=True)
        live = live_window(commits, lake.truncate_seqs(tname))

        n_ins = pc.sum(group["__n_ins"]).as_py() or 0
        n_upd = pc.sum(group["__n_upd"]).as_py() or 0
        n_del = pc.sum(group["__n_del"]).as_py() or 0
        n_snap = pc.sum(group["__n_snap"]).as_py() or 0
        bytes_in = group.nbytes

        changes = group.drop_columns(
            ["__shard", "__n_ins", "__n_upd", "__n_del", "__n_snap"]
        )
        # phase-2 LWW over the full shard (phase 1 ran per batch upstream)
        changes = lww_reduce(changes, schema.keys)

        # Base = the partition's LATEST committed state, not "state as of
        # chunk_lo": after a tail replay re-plans chunk boundaries (new
        # events appended to the log), the running chunk can overlap an
        # already-committed range — re-applying those events is a no-op
        # under the version-compare upsert (identical versions, change
        # wins ties), while an as-of-chunk-start read would need COW
        # files that vacuum already deleted.
        # Base vs delta commit: every compact_every-th commit rewrites
        # the full state (bounding merge-on-read at compact_every files);
        # the rest write only this chunk's reduced changes — LWW is
        # associative, so concat(base, deltas..) → lww_reduce at read
        # time is exactly the compacted state, and per-chunk write
        # amplification drops from O(state) to O(changes).
        ustats: dict = {}
        compact = (compact_every <= 1 or not live
                   or len(live) + 1 >= compact_every)
        vnames = version_col_names(changes.column_names)
        slim = None
        if not compact:
            slim = _slim_partition_state(lake, tname, part, schema, vnames,
                                         live)
            if isinstance(slim, str):  # "drift": DDL since the live files
                compact, slim = True, None
        if compact:
            base, _ = lake.read_partition(tname, part, schema, live=live)
            if base is not None and base.num_rows:
                changes = changes.select(base.column_names)  # align order
                merged = upsert_by_version(base, changes, schema.keys,
                                           stats=ustats)
            else:
                merged = changes
            kind, state_rows = "base", merged.num_rows
        else:
            merged = changes  # the delta file: this chunk's changes only
            if slim is None or slim.num_rows == 0:
                ustats["stale_changes"] = 0
                state_rows = changes.num_rows
            else:
                cols = list(dict.fromkeys([*schema.keys, *vnames]))
                mslim = upsert_by_version(slim, changes.select(cols),
                                          schema.keys, stats=ustats)
                state_rows = mslim.num_rows
            kind = "delta"
        counts = {
            "inserts": int(n_ins),
            "updates": int(n_upd),
            "deletes": int(n_del),
            "bytes_in": int(bytes_in),
            # late/stale arrivals superseded by committed state (A2 analog:
            # replication-lag signal for UN_ORDERED sources)
            "late_events": int(ustats.get("stale_changes", 0)),
        }
        # table replication phase (PipelineStateService.java:40-127 analog):
        # a batch made only of snapshot events leaves the partition in
        # SNAPSHOTTING; any streaming event promotes it to REPLICATING
        state = "SNAPSHOTTING" if n_snap == (n_ins + n_upd + n_del) else "REPLICATING"
        rec = commit_partition(
            lake, tname, part, chunk_lo, chunk_hi, merged, counts,
            schema=schema, kind=kind, state=state, state_rows=state_rows,
            cluster_by=cluster_by, row_group_rows=cluster_row_group_rows,
            manifest_every=manifest_every, vacuum=vacuum)
        return _lineage_row(rec, skipped=bool(rec.get("replayed")))

    return merge


def _lineage_row(rec: dict, skipped: bool) -> pa.Table:
    c = rec.get("counts", {})
    return pa.table(
        {
            "table": [rec["table"]],
            "part": [int(rec["part"])],
            "seq_lo": [int(rec["seq_lo"])],
            "seq_hi": [int(rec["seq_hi"])],
            "rows": [int(rec.get("state_rows", rec["rows"]))],
            "applied_inserts": [int(c.get("inserts", 0))],
            "applied_updates": [int(c.get("updates", 0))],
            "applied_deletes": [int(c.get("deletes", 0))],
            "bytes_in": [int(c.get("bytes_in", 0))],
            "skipped": [skipped],
        },
        schema=LINEAGE_SCHEMA,
    )
