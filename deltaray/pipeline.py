"""Replay driver: chunk planning, DDL barriers, the chunk exchange, merge
stage, resume, retry.

Ray-native restructuring of the reference's single-threaded
poll-transform-apply loop (DeltaWorker.run:269-449): the change log is
data in Parquet, and each DML chunk of it runs as plain Ray tasks

    _read_transform_split × read units   # row-group bundle → seq filter →
                                         # TransformStage (F1-F9 + phase-1
                                         # LWW) → split by __shard
      → _merge_shard × shards            # per-(table,partition) LWW upsert
                                         # + commit; returns lineage rows

Up to ``pipeline_chunks`` chunks are in flight; shard s of a chunk
chains on shard s of the previous one, so per-partition apply order
holds without a global barrier.  DDL events are chunk barriers handled
on the driver (they are O(1) per run and mutate only the schema
registry / truncate markers), the Arrow analog of in-stream applyDDL
(DeltaWorker.java:481-493).

Resume (DeltaWorker.startFromLastCommit:566-592 analog): a chunk-done
marker skips whole chunks; inside a partially-applied chunk a merge
whose partition's committed head covers it is a no-op.  Retry
(Failsafe policy, DeltaWorker.java:303-403 + RetryConfig.java:25-40):
one policy for every window — a failure is retried within
``retry.max_duration_seconds`` (0 = no retry) by settling the window and
re-applying the pending chunks in order; ``DeltaFailureError`` aborts
immediately (DeltaFailureException analog, EventConsumer.java:49-57).
Both rest on the one exactly-once argument in :mod:`deltaray.commit`.
"""

from __future__ import annotations

import dataclasses
import functools
import glob
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from deltaray.commit import (LAKE_FORMAT_VERSION, LakeState, atomic_write_json,
                             check_lake_format, live_window, record_seq_hi,
                             stats_disjoint_any)
from deltaray.config import ReplayConfig
from deltaray.merge import commit_partition, make_merge_fn, strip_internal
from deltaray.schemas import (DDL_OPS, TOKENS, TableSchema, apply_ddl,
                              code_to_type)
from deltaray.transforms import (HASH_VERSION, TransformStage,
                                 apply_directives_to_schema)


def _gen_meta(lake: "LakeState", *, required: bool = False) -> dict | None:
    """Read a generation's ``_meta.json`` THROUGH the format gate — the
    single helper every reader/appender/destructive path uses, so the
    newer-format fail-fast cannot be forgotten at a new call site.
    Meta may be absent on a pre-first-commit lake (the ``_format.json``
    sentinel alone still gates); ``required=True`` raises KeyError then."""
    meta_path = os.path.join(lake.root, "_meta.json")
    meta = None
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            meta = json.load(f)
    elif required:
        raise KeyError(f"no generation meta at {meta_path}")
    check_lake_format(lake.root, meta)
    return meta


def _check_gen_format(lake: "LakeState") -> None:
    """Format-gate a generation (see :func:`_gen_meta`)."""
    _gen_meta(lake)


class DeltaFailureError(RuntimeError):
    """Fail the pipeline immediately, no retry
    (delta-api/.../api/DeltaFailureException.java analog)."""


# cap on object-ref args per combine/reduce task of an exchange: a shard
# with more splits than this combines them in a tree of concat tasks
# (O(log) levels) instead of one M-arg reduce, so task-spec size stays
# bounded at cluster scale (M ~ 4x cluster CPUs per replay chunk)
_MERGE_FANIN = 256


def _split_block(block, n_shards: int):
    """Map side of every task exchange: one pass over the block — stable
    argsort of the int __shard column, then zero-copy slices per shard
    (each keeps the block's schema, tag included).  One slice comes back
    bare: with ``num_returns=1`` Ray stores the whole return value as the
    single output, so a 1-tuple would arrive as a tuple."""
    import numpy as np
    import pyarrow as pa

    shard = block["__shard"].to_numpy(zero_copy_only=False)
    order = np.argsort(shard, kind="stable")
    tbl = block.take(pa.array(order))
    ss = shard[order]
    bounds = np.searchsorted(ss, np.arange(n_shards + 1))
    splits = tuple(
        tbl.slice(bounds[i], bounds[i + 1] - bounds[i]) for i in range(n_shards)
    )
    return splits[0] if n_shards == 1 else splits


def _exchange(split_refs: list, n_shards: int, reduce, order=None) -> list:
    """Reduce side of every task exchange: ``split_refs`` holds one
    ``num_returns=n_shards`` split task's refs per upstream block.  Each
    shard's refs are combined in a tree of :func:`_combine_splits` tasks
    of at most ``_MERGE_FANIN`` args, then ``reduce(s, refs)`` submits
    the shard's reduce task — in ``order`` when given.  Returns the
    reduce refs in shard order, without blocking."""
    import ray

    if n_shards == 1:  # num_returns=1 yields a bare ref, not a tuple
        split_refs = [[r] for r in split_refs]
    combine = ray.remote(_combine_splits)
    fanin = _MERGE_FANIN
    out: list = [None] * n_shards
    for s in range(n_shards) if order is None else order:
        refs = [b[s] for b in split_refs]
        while len(refs) > fanin:
            refs = [combine.remote(*refs[i:i + fanin])
                    for i in range(0, len(refs), fanin)]
        out[s] = reduce(s, refs)
    return out


def _read_transform_split(path: str, row_groups: list[int], columns: list[str],
                          seq_lo: int, seq_hi: int, stage, n_shards: int):
    """Fused map task: decode a row-group bundle, filter to the chunk's seq
    range, then per replayed table present run the (vectorized)
    TransformStage on that table's rows and split them by shard — one
    task, one pass, no intermediate materialization.  Fusing
    read+transform+split halves the object-store traffic vs a Dataset
    map stage followed by a separate split stage.

    Shard ``s`` holds table ``stage.tables[s // P]`` only, so it takes
    that table's split, or the table's typed empty when the unit has no
    rows of it: every split carries exactly one table's transport
    schema.  Rows of tables not replayed are dropped here (F3)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    t = pq.ParquetFile(path).read_row_groups(row_groups, columns=columns)
    mask = pc.and_(pc.greater(t["seq"], seq_lo), pc.less_equal(t["seq"], seq_hi))
    if not pc.all(mask).as_py():
        t = t.filter(mask)
    names = pc.unique(t["table"]).to_pylist()
    by_table = {}
    for name in names:
        if name not in stage.table_index:
            continue
        sub = t if len(names) == 1 else t.filter(pc.equal(t["table"], name))
        splits = _split_block(stage(sub), n_shards)
        by_table[name] = splits if n_shards > 1 else (splits,)
    P = n_shards // len(stage.tables)
    out = []
    for s in range(n_shards):
        name = stage.tables[s // P]
        out.append(by_table[name][s] if name in by_table
                   else stage.out_schemas[name].empty_table())
    return out[0] if n_shards == 1 else tuple(out)


def _plan_read_units(files: list[str], seq_lo: int, seq_hi: int,
                     target_units: int) -> list[tuple[str, list[int]]]:
    """Bundle parquet row groups into ~target_units read units, pruning row
    groups entirely outside the chunk's (seq_lo, seq_hi] via footer stats
    (seq is written in order, so stats are tight)."""
    per_file: list[tuple[str, list[int], int]] = []  # (path, rg idxs, rows)
    total_rows = 0
    for path in files:
        md = pq.ParquetFile(path).metadata
        keep, rows = [], 0
        for i in range(md.num_row_groups):
            rg = md.row_group(i)
            st = rg.column(0).statistics  # seq is the first column
            if st is not None and st.has_min_max and (
                st.min > seq_hi or st.max <= seq_lo
            ):
                continue
            keep.append(i)
            rows += rg.num_rows
        if keep:
            per_file.append((path, keep, rows))
            total_rows += rows
    if not per_file:
        return []
    unit_rows = max(16384, total_rows // max(1, target_units))
    units: list[tuple[str, list[int]]] = []
    for path, keep, rows in per_file:
        md = pq.ParquetFile(path).metadata
        bundle: list[int] = []
        acc = 0
        for i in keep:
            bundle.append(i)
            acc += md.row_group(i).num_rows
            if acc >= unit_rows:
                units.append((path, bundle))
                bundle, acc = [], 0
        if bundle:
            units.append((path, bundle))
    return units


def _scan_segment_ddl(path: str) -> list[dict]:
    """One segment's DDL rows (tiny result; runs as a Ray task so the
    driver's single-threaded Arrow pool is not the bottleneck)."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from deltaray.schemas import DDL_OPS

    t = pads.dataset(path).to_table(
        columns=["seq", "op", "table", "ddl_payload"],
        filter=pc.field("op").isin(list(DDL_OPS)),
    )
    return t.to_pylist()


def _gather(tables) -> pa.Table:
    """Concat one shard's splits; with no rows, the first schema-full
    empty split (skipping zero-column ones: Ray Data hands zero-row
    blocks on without their columns), so a reduce still sees its typed
    empty partition."""
    tabs = [t for t in tables if t.num_rows]
    if tabs:
        return pa.concat_tables(tabs, promote_options="default")
    typed = [t for t in tables if t.num_columns]
    return typed[0] if typed else tables[0]


def _merge_shard(merge_fn, *tables):
    """Reduce side: gather this shard's splits (zero-copy object store
    reads) and run the per-partition reduce on them."""
    return merge_fn(_gather(tables))


def _settle(refs: list) -> None:
    """Wait, without cancelling, until every ref has finished or failed
    (the exactly-once argument in :mod:`deltaray.commit`)."""
    import ray

    if refs:
        ray.wait(refs, num_returns=len(refs), fetch_local=False)


def _merge_shard_after(merge_fn, _prev_lineage, *tables):
    """Chained reduce: identical to :func:`_merge_shard`, but takes the
    SAME shard's previous-chunk lineage as a leading object dependency —
    Ray won't schedule this merge until that chunk's merge for this
    partition has committed.  Per-partition apply order (which compaction
    requires: a compacting base rewrite must fold every earlier commit)
    is enforced by the dependency alone; the value is unused."""
    return _merge_shard(merge_fn, *tables)


def _combine_splits(*tables):
    """Fan-in tree inner node: concat a bounded group of one shard's
    splits (:func:`_gather`)."""
    return _gather(tables)


@dataclass
class Segment:
    path: str
    seq_lo: int
    seq_hi: int
    n_rows: int
    has_ddl: bool | None = None  # None = unknown (no manifest hint) → scan


@dataclass
class Chunk:
    kind: str  # "dml" | "ddl"
    seq_lo: int  # exclusive
    seq_hi: int  # inclusive
    ddl: list[dict] = field(default_factory=list)


def discover_segments(event_log: str) -> list[Segment]:
    """Event-log segments with their seq ranges, from manifest.json when
    present, else from parquet footers (row-group stats)."""
    mpath = os.path.join(event_log, "manifest.json")
    if os.path.exists(mpath):
        with open(mpath) as f:
            m = json.load(f)
        return [
            Segment(s["path"], s["seq_lo"], s["seq_hi"], s["n_rows"],
                    s.get("has_ddl"))
            for s in m["segments"]
        ]
    segs = []
    for p in sorted(glob.glob(os.path.join(event_log, "*.parquet"))):
        md = pq.ParquetFile(p).metadata
        lo, hi = None, None
        for rg in range(md.num_row_groups):
            col = md.row_group(rg).column(0)
            # seq must be the first column; fall back to a read if no stats
            st = col.statistics
            if st is None:
                t = pq.read_table(p, columns=["seq"])
                lo, hi = pc.min(t["seq"]).as_py(), pc.max(t["seq"]).as_py()
                break
            lo = st.min if lo is None else min(lo, st.min)
            hi = st.max if hi is None else max(hi, st.max)
        segs.append(Segment(p, int(lo), int(hi), md.num_rows))
    return segs


def load_ddl_events(segments: list[Segment]) -> list[dict]:
    """Scan for DDL rows (tiny results: row-group pushdown on ``op``).
    Segments whose manifest marks ``has_ddl: false`` are skipped outright —
    a tailing replay's periodic re-plan touches only the (rare) DDL
    segments instead of rescanning the whole log.  Fanned out as Ray
    tasks when a cluster is up — the driver process often runs with a
    single-threaded Arrow pool (OMP_NUM_THREADS=1)."""
    scan_list = [s for s in segments if s.has_ddl is not False]
    out: list[dict] = []
    try:
        import ray

        if ray.is_initialized() and len(scan_list) > 2:
            scan = ray.remote(_scan_segment_ddl)
            for rows in ray.get([scan.remote(s.path) for s in scan_list]):
                out.extend(rows)
            out.sort(key=lambda r: r["seq"])
            return out
    except ImportError:
        pass
    for s in scan_list:
        out.extend(_scan_segment_ddl(s.path))
    out.sort(key=lambda r: r["seq"])
    return out


def plan_chunks(
    segments: list[Segment], ddl_rows: list[dict], chunk_max_events: int
) -> list[Chunk]:
    """Seq-range chunk plan: DDL seqs are barriers; DML intervals between
    them are split at ~chunk_max_events using segment row counts."""
    max_seq = max((s.seq_hi for s in segments), default=0)
    chunks: list[Chunk] = []
    pos = 0

    def add_dml(lo: int, hi: int):
        if hi <= lo:
            return
        # split on segment boundaries, approximating event counts
        acc = 0
        cur_lo = lo
        for s in sorted(segments, key=lambda s: s.seq_lo):
            if s.seq_hi <= cur_lo or s.seq_lo > hi:
                continue
            acc += s.n_rows
            if acc >= chunk_max_events and s.seq_hi < hi:
                chunks.append(Chunk("dml", cur_lo, min(s.seq_hi, hi)))
                cur_lo = min(s.seq_hi, hi)
                acc = 0
        if cur_lo < hi:
            chunks.append(Chunk("dml", cur_lo, hi))

    i = 0
    while i < len(ddl_rows):
        d = ddl_rows[i]
        add_dml(pos, d["seq"] - 1)
        # coalesce consecutive DDL events into one barrier chunk
        j = i
        while j + 1 < len(ddl_rows) and ddl_rows[j + 1]["seq"] == ddl_rows[j]["seq"] + 1:
            j += 1
        chunks.append(Chunk("ddl", d["seq"] - 1, ddl_rows[j]["seq"], ddl_rows[i : j + 1]))
        pos = ddl_rows[j]["seq"]
        i = j + 1
    add_dml(pos, max_seq)
    return chunks


def _check_generation_meta(lake: LakeState, cfg: ReplayConfig) -> None:
    """Persist the physical sharding config on first commit and fail
    fast on mismatch: re-running replay with a different
    ``num_partitions`` (or ordering/sort-key width) would re-key
    hash(key) % P while old per-partition commits remain, silently
    duplicating keys across partition files.  Re-sharding requires a
    new generation."""
    path = os.path.join(lake.root, "_meta.json")
    meta = {
        "num_partitions": cfg.num_partitions,
        "ordering": cfg.ordering,
        "sort_key_components": cfg.sort_key_components,
        "track_previous": bool(cfg.track_previous),
        # partitioner identity: a lake written under another
        # stable_hash_cols must fail fast, not mis-route keys
        "hash_version": HASH_VERSION,
    }
    if os.path.exists(path):
        with open(path) as f:
            have = json.load(f)
        # refuse to APPEND to a lake whose on-disk format is newer
        # than this writer understands (same misread class as reads)
        check_lake_format(lake.root, have)
        diffs = {k: (have.get(k), v) for k, v in meta.items()
                 if have.get(k) != v}
        if diffs:
            raise ValueError(
                f"generation config mismatch vs existing lake {path}: "
                f"{diffs} — re-shard into a new generation instead"
            )
    else:
        # stamped at creation: this writer emits manifests
        atomic_write_json(path, dict(
            meta, format_version=LAKE_FORMAT_VERSION))


class ReplaySession:
    """One replay run over an event log into a lake generation."""

    def __init__(self, cfg: ReplayConfig):
        self.cfg = cfg
        self.lake = LakeState(cfg.lake, cfg.generation)
        self.segments = discover_segments(cfg.event_log)
        self.ddl_rows = load_ddl_events(self.segments)
        self.chunks = plan_chunks(self.segments, self.ddl_rows, cfg.chunk_max_events)
        self.schemas: dict[str, TableSchema] = {}  # DDL-level (pre-directive)
        # tables bootstrapped from a snapshot (bootstrap_table) have a
        # persisted schema but no CREATE_TABLE in the tail log — seed them
        # (later in-log DDL still applies on top)
        created_in_log = {r["table"] for r in self.ddl_rows
                          if r["op"] == "CREATE_TABLE"}
        for t in self.lake.list_tables():
            if t in created_in_log:
                continue
            if cfg.table_names and t not in cfg.table_names:
                continue
            sch = self.lake.current_schema(t)
            if sch is not None:
                self.schemas[t] = sch
        self.dropped: set[str] = set()
        self.errors = 0  # failed apply attempts (dml.errors metric analog)
        # (table, part) → events applied in the last chunk: the straggler
        # heuristic for LPT merge submission (heaviest shards first)
        self._shard_weights: dict[tuple[str, int], int] = {}

    # ------------------------------------------------------------ schemas
    def _effective(self) -> dict[str, TableSchema]:
        eff = {}
        for t, s in self.schemas.items():
            tc = self.cfg.table_config(t)
            eff[t] = apply_directives_to_schema(s, tc.transformations if tc else [])
        return eff

    def _apply_ddl_chunk(self, chunk: Chunk) -> None:
        for row in chunk.ddl:
            t, op, payload, seq = row["table"], row["op"], row["ddl_payload"], row["seq"]
            bl = self.cfg.ddl_blacklist_for(t)
            if op in bl:  # F2 (QueueingEventEmitter.java:96-112)
                continue
            if op == "DROP_DATABASE":
                # The engine's namespace is flat — the event log IS one
                # database — so an unblacklisted DROP_DATABASE cascades
                # to every live table (DDLOperation.java:30-38 implies
                # the drop; DeltaConfig.java:111-115 default-blacklists
                # it, which this config mirrors).  Runs BEFORE the
                # table-subset filter: a database drop is not scoped to
                # one table.
                for dt in sorted(self.schemas):
                    self.schemas = apply_ddl(self.schemas, dt,
                                             "DROP_TABLE", "", seq)
                    self.dropped.add(dt)
                    self.lake.write_truncate(dt, seq)
                continue
            if self.cfg.table_names and t not in self.cfg.table_names:
                continue
            if op == "TRUNCATE_TABLE":
                self.lake.write_truncate(t, seq)
                continue
            if op == "RENAME_TABLE":
                d = json.loads(payload or "{}")
                prev = d.get("prev_table_name")
                if prev:
                    old_dir = self.lake.table_dir(prev)
                    new_dir = self.lake.table_dir(t)
                    if os.path.isdir(old_dir) and not os.path.isdir(new_dir):
                        os.rename(old_dir, new_dir)
                    # lineage records live outside the table dir — move
                    # them too so the report follows the rename
                    old_lin = os.path.join(self.lake.root, "_lineage", prev)
                    new_lin = os.path.join(self.lake.root, "_lineage", t)
                    if os.path.isdir(old_lin) and not os.path.isdir(new_lin):
                        os.rename(old_lin, new_lin)
            self.schemas = apply_ddl(self.schemas, t, op, payload, seq)
            if op == "DROP_TABLE":
                self.dropped.add(t)
                # a DROP is a TRUNCATE marker at its seq: reads of the
                # dropped table come back empty, feeds across it emit
                # DELETEs, and merges after a later CREATE_TABLE of the
                # same name start from empty state instead of
                # resurrecting pre-drop commits (the oracle resets state
                # on DROP)
                self.lake.write_truncate(t, seq)
            elif t in self.schemas:
                self.dropped.discard(t)
                self.lake.write_schema(self._effective()[t])

    # -------------------------------------------------------------- chunk
    def _plan_chunk(self, chunk: Chunk):
        """Shared planning for a DML chunk: overlapping segment files,
        pruned read columns, the compiled transform stage and merge
        callable, and the shard count.  None = nothing to do."""
        cfg = self.cfg
        files = [
            s.path
            for s in self.segments
            if s.seq_hi > chunk.seq_lo and s.seq_lo <= chunk.seq_hi
        ]
        if not files or not self.schemas:
            return None
        # column pruning at the read (meta + union of live payload columns;
        # order columns only in UN_ORDERED mode)
        needed = {"seq", "op", "table", "is_snapshot"}
        for s in self.schemas.values():
            needed.update(s.column_names())
        if cfg.ordering == "UN_ORDERED":
            needed.update(["source_ts", "sort_keys"])
        if cfg.track_previous:
            needed.add("prev_tokens")
        present = set(pq.read_schema(files[0]).names)
        columns = sorted(needed & present)
        effective = self._effective()
        stage = TransformStage(cfg, dict(self.schemas), effective)
        merge = make_merge_fn(
            cfg.lake,
            cfg.generation,
            chunk.seq_lo,
            chunk.seq_hi,
            stage.tables,
            {t: s.to_json() for t, s in effective.items()},
            cfg.num_partitions,
            vacuum=cfg.vacuum,
            compact_every=cfg.compact_every,
            cluster_by=cfg.cluster_by,
            cluster_row_group_rows=cfg.cluster_row_group_rows,
            manifest_every=cfg.manifest_every,
        )
        n_shards = cfg.num_partitions * len(stage.tables)
        return files, columns, stage, merge, n_shards

    def _submit_chunk(self, chunk: Chunk,
                      prev_refs: list | None = None) -> list:
        """Plan and submit one DML chunk; the per-shard merge refs, or []
        when it has nothing to apply."""
        plan = self._plan_chunk(chunk)
        if plan is None:
            return []
        files, columns, stage, merge, n_shards = plan
        return self._submit_exchange(files, columns, chunk, stage, merge,
                                     n_shards, prev_refs=prev_refs)

    def _run_dml_chunk(self, chunk: Chunk) -> list[dict]:
        """Synchronous apply of one DML chunk (the retry path)."""
        import ray

        return [r for tbl in ray.get(self._submit_chunk(chunk))
                for r in tbl.to_pylist()]

    def _submit_exchange(self, files, columns, chunk, stage, merge,
                         n_shards: int, prev_refs: list | None = None) -> list:
        """Partition exchange as a classic two-stage Ray-task shuffle:
        fused map tasks (parquet row-group bundle → decode → TransformStage
        → split by __shard via ``num_returns=S``) feed one merge task per
        shard that gathers its splits zero-copy.  Payload rows cross the
        object store exactly once — no sort of fat token rows, no Dataset
        materialize barrier, no separate split pass; measured ~3x faster
        than the Dataset sort shuffle on the 11M-event log.
        The engine drops below the Dataset API only here and in the other
        users of :func:`_exchange` (``hash_partitioned``, the MinHash pair
        flow): Ray Data's groupby cannot express partition-without-order,
        which is all the merge needs (per-key LWW makes intra-shard order
        irrelevant, SURVEY §2.6).

        Returns the per-shard merge refs WITHOUT blocking.  With
        ``prev_refs`` (the previous chunk's merge refs, same shard
        layout — guaranteed within a DDL-free window since the schema
        set, and hence shard→(table, partition) mapping, is constant),
        shard s chains on prev_refs[s]: per-partition apply order is
        preserved while different partitions proceed independently."""
        import ray

        ncpu = int(ray.cluster_resources().get("CPU", 8))
        units = _plan_read_units(files, chunk.seq_lo, chunk.seq_hi,
                                 target_units=4 * ncpu)
        if not units:
            return []
        rts = ray.remote(num_returns=n_shards)(_read_transform_split)
        splits = [
            rts.remote(path, rgs, columns, chunk.seq_lo, chunk.seq_hi,
                       stage, n_shards)
            for path, rgs in units
        ]
        chain = prev_refs if prev_refs and len(prev_refs) == n_shards else None
        if chain is None:
            merge_task = ray.remote(_merge_shard)

            def reduce(s, refs):
                return merge_task.remote(merge, *refs)
        else:
            merge_after = ray.remote(_merge_shard_after)

            def reduce(s, refs):
                return merge_after.remote(merge, chain[s], *refs)
        return _exchange(splits, n_shards, reduce,
                         order=self._shard_order(stage.tables))

    def _shard_order(self, tables: list[str]) -> list[int]:
        """Merge submission order: heaviest shards first (LPT heuristic).

        Ray dispatches ready tasks roughly in submission order, so with
        more shards than cluster slots, submitting a skewed-hot
        partition's merge LAST leaves the whole chunk waiting on one
        task at the end; submitting it first overlaps the fat merge with
        all the small ones.  Weight = events the shard applied in the
        previous chunk (skew is persistent across a hot-key workload);
        unseen shards keep index order.  Pure reordering — every shard
        is still submitted exactly once, so correctness is untouched.
        ``tables`` is the chunk's shard→table map (``stage.tables``)."""
        import numpy as np

        P = self.cfg.num_partitions
        n_shards = P * len(tables)
        if not self._shard_weights:
            return list(range(n_shards))
        tindex = {t: i for i, t in enumerate(tables)}
        w = np.zeros(n_shards, dtype=np.int64)
        for (t, p), n in self._shard_weights.items():
            ti = tindex.get(t)
            if ti is not None:
                w[ti * P + int(p)] = int(n)
        return list(np.argsort(-w, kind="stable"))

    # ---------------------------------------------------------------- run
    def _retry_or_raise(self, exc: Exception, chunk: Chunk, t0: float) -> None:
        """The one retry policy (Failsafe, DeltaWorker.java:303-403 +
        RetryConfig.java:25-40), whatever the window and wherever the
        chunk failed.  ``DeltaFailureError`` aborts at once.  Any other
        failure counts as an error and persists FAILING for every table
        (PipelineStateService.java:40-127, DeltaContext.setTableError:
        128-152) — an operator watching lineage_report sees which table
        is sick while retries spin — then re-raises once the run has
        spent ``retry.max_duration_seconds`` (0 = no retry), or sleeps
        before the caller re-applies."""
        if isinstance(exc, DeltaFailureError):
            raise exc
        self.errors += 1  # dml.errors analog (EventMetrics.java)
        err = f"{type(exc).__name__}: {exc}"
        for t in self.schemas:
            self.lake.set_table_error(t, err, (chunk.seq_lo, chunk.seq_hi))
        if time.time() >= t0 + self.cfg.retry.max_duration_seconds:
            raise exc
        time.sleep(self.cfg.retry.delay_seconds)

    def _run_chunk_with_retry(self, chunk: Chunk, t0: float) -> list[dict]:
        """Serial re-apply of one DML chunk under the retry policy."""
        while True:
            try:
                return self._run_dml_chunk(chunk)
            except Exception as exc:
                self._retry_or_raise(exc, chunk, t0)

    def run(self, on_chunk=None) -> dict:
        import ray

        cfg = self.cfg
        _check_generation_meta(self.lake, cfg)
        # the returned lineage list is a convenience payload — the durable
        # record is the per-partition lineage files (lineage_report).  At
        # 10^10-event scale chunks × shards reaches millions of rows, so
        # the in-memory copy is capped; `lineage_total` counts them all.
        LINEAGE_CAP = 100_000
        lineage_rows: list[dict] = []
        lineage_total = 0

        def keep_lineage(rows):
            nonlocal lineage_total
            lineage_total += len(rows)
            room = LINEAGE_CAP - len(lineage_rows)
            if room > 0:
                lineage_rows.extend(rows[:room])

        t0 = time.time()
        # every DML chunk is submitted the same way; pipeline_chunks only
        # sets how many stay in flight (1 = drain each before the next)
        window = max(1, cfg.pipeline_chunks)
        # in-flight chunks, oldest first: (idx, chunk, merge refs)
        inflight: list[tuple] = []
        prev_refs: list | None = None

        chunk_secs: list[dict] = []
        last_done = time.time()

        def finish(idx, chunk, rows):
            # successful apply clears FAILING (OK → FAILING → REPLICATING,
            # DeltaPipelineStateStoreBaseTest.testFailureRetries:308-397)
            nonlocal last_done
            now = time.time()
            # per-chunk wall time; with pipelining (overlapping chunks)
            # this measures drain-to-drain intervals, still the signal
            # an operator needs to spot a straggling chunk
            chunk_secs.append({"seq_lo": chunk.seq_lo,
                               "seq_hi": chunk.seq_hi,
                               "sec": round(now - last_done, 3)})
            last_done = now
            for t in self.schemas:
                self.lake.clear_table_error(t)
            for r in rows:  # feed the LPT merge-ordering heuristic
                self._shard_weights[(r["table"], int(r["part"]))] = (
                    int(r["applied_inserts"]) + int(r["applied_updates"])
                    + int(r["applied_deletes"]))
            keep_lineage(rows)
            self.lake.write_chunk_done(
                chunk.seq_lo, chunk.seq_hi,
                {"chunk": [chunk.seq_lo, chunk.seq_hi]},
                manifest_every=cfg.manifest_every)
            if on_chunk is not None:
                on_chunk(idx, chunk, rows)

        def reapply_window() -> None:
            """After a failure the policy retries: settle the whole
            window, then re-apply each pending chunk IN ORDER through
            the serial retry path — covered merges skip (the
            exactly-once argument in :mod:`deltaray.commit`)."""
            nonlocal prev_refs
            pend = list(inflight)
            inflight.clear()
            prev_refs = None
            _settle([r for _, _, rs in pend for r in rs])
            for idx, chunk, _ in pend:
                finish(idx, chunk, self._run_chunk_with_retry(chunk, t0))

        def drain(keep: int) -> None:
            """Complete in-flight chunks (oldest first, preserving the
            marker prefix order) until at most ``keep`` remain."""
            while len(inflight) > keep:
                idx, chunk, refs = inflight[0]
                try:
                    tabs = ray.get(refs)
                except Exception as exc:
                    self._retry_or_raise(exc, chunk, t0)
                    reapply_window()
                    continue
                inflight.pop(0)
                finish(idx, chunk,
                       [r for tbl in tabs for r in tbl.to_pylist()])

        try:
            # completed-chunk set loaded ONCE per run (manifest-aware:
            # markers may have been rolled up) — this run only appends
            done_markers = set(self.lake.chunk_done_records())
            for idx, chunk in enumerate(self.chunks):
                if chunk.kind == "ddl":
                    # DDL mutates schemas + lake layout — barrier: every
                    # in-flight merge must land first
                    drain(0)
                    prev_refs = None
                    # DDL is re-applied on every run (deterministic,
                    # idempotent)
                    self._apply_ddl_chunk(chunk)
                    continue
                marker = self.lake.chunk_marker(chunk.seq_lo, chunk.seq_hi)
                if os.path.basename(marker) in done_markers:
                    # already-committed prefix: its state is final on disk,
                    # so no ordering ref is needed for successors
                    continue
                try:
                    refs = self._submit_chunk(chunk, prev_refs)
                except Exception as exc:  # planning/submission, driver-side
                    self._retry_or_raise(exc, chunk, t0)
                    inflight.append((idx, chunk, []))
                    reapply_window()
                    continue
                if refs:
                    # an empty submission (nothing to apply) keeps the
                    # previous chain alive for the next chunk
                    prev_refs = refs
                inflight.append((idx, chunk, refs))
                drain(window - 1)
            drain(0)
        finally:
            # a mid-run exception (incl. on_chunk callbacks) must not
            # leave orphan merges outliving the driver call: settle
            # every in-flight task before surfacing it
            _settle([r for _, _, rs in inflight for r in rs])
        metrics = collect_metrics(self.lake, list(self.schemas) + sorted(self.dropped))
        metrics["errors"] = self.errors
        metrics["wall_seconds"] = round(time.time() - t0, 3)
        metrics["chunk_secs"] = chunk_secs[-100:]  # bounded payload
        self.lake.write_metrics(metrics)
        return {
            "chunks": len(self.chunks),
            "tables": sorted(self.schemas),
            "lineage": lineage_rows,
            "lineage_total": lineage_total,
            "metrics": metrics,
        }


def bootstrap_table(cfg: ReplayConfig, schema, snapshot_ds,
                    snapshot_seq: int = 1) -> dict:
    """Initialize a lake table directly from an existing snapshot Dataset
    — the reference's snapshot phase done as a bulk load, so replay only
    tails change events with ``seq > snapshot_seq``.

    Distributed: the snapshot streams through the same hash exchange and
    per-partition base commits as a replay chunk covering
    ``(0, snapshot_seq]``; tail events then upsert against it (their seq
    exceeds ``snapshot_seq``, so they win LWW).  The tail log does NOT
    need a CREATE_TABLE event — replay seeds bootstrapped tables from
    the persisted lake schema.  Note: the snapshot is written under the
    lake (post-directive) schema; combining bootstrap with per-table
    directive chains assumes the snapshot is already transformed.

    The bootstrap boundary is recorded as a chunk anchor (snapshots()
    lists ``snapshot_seq``; time travel / bounded feeds / expiry can
    anchor there).  Anchors are LAKE-wide: on a multi-table lake a
    table bootstrapped later at a higher seq reads as EMPTY at this
    earlier anchor — that is the true lake state at that seq (the
    patch law still holds: its feed from the earlier anchor carries
    every row as an UPSERT), but source-side history from before a
    table's own bootstrap is never reconstructible.  Bootstrap tables
    sequentially before tailing; don't bootstrap concurrently with a
    replay that is writing chunk anchors.
    """
    import numpy as np

    lake = LakeState(cfg.lake, cfg.generation)
    _check_generation_meta(lake, cfg)
    keys = schema.keys
    n_sk = max(1, cfg.sort_key_components)
    track_prev = bool(cfg.track_previous)
    lake.write_schema(schema)

    def stamp(batch: pa.Table) -> pa.Table:
        cols = {}
        for name, codec in schema.fields:
            if name in batch.column_names:
                cols[name] = batch[name].cast(code_to_type(codec))
            else:
                cols[name] = pa.nulls(batch.num_rows, code_to_type(codec))
        t = pa.table(cols)
        keymask = pc.is_valid(t[keys[0]])
        for kc in keys[1:]:
            keymask = pc.and_(keymask, pc.is_valid(t[kc]))
        if not pc.all(keymask).as_py():
            t = t.filter(keymask)
        n = t.num_rows
        z = pa.array(np.zeros(n, dtype=np.int64))
        t = t.append_column("__seq", pa.array(
            np.full(n, snapshot_seq, dtype=np.int64)))
        t = t.append_column("__src_ts", z)
        for i in range(n_sk):
            t = t.append_column(f"__sk{i}", z)
        if track_prev:
            t = t.append_column("__prev_tokens", pa.nulls(n, TOKENS))
        return t.append_column("__deleted",
                               pa.array(np.zeros(n, dtype=bool)))

    rows = _bulk_load(lake, schema, snapshot_seq, cfg.num_partitions,
                      snapshot_ds.map_batches(stamp, batch_format="pyarrow"),
                      state="SNAPSHOTTING", cluster_by=cfg.cluster_by,
                      row_group_rows=cfg.cluster_row_group_rows)
    # every partition committed: the bootstrap boundary is a consistent
    # lake state, so record it as a chunk anchor — snapshots() lists it,
    # time travel / bounded feeds / expire_snapshots can anchor at it,
    # and reshard carries it over like any committed chunk
    lake.write_chunk_done(
        0, snapshot_seq, {"chunk": [0, snapshot_seq], "bootstrap": True})
    return {"table": schema.name, "partitions": len(rows),
            "rows": int(sum(r["rows"] for r in rows)),
            "snapshot_seq": snapshot_seq}


def _bulk_load(lake: LakeState, schema: TableSchema, hi: int,
               num_partitions: int, ds, *, state: str, cluster_by=None,
               row_group_rows: int = 32768) -> list[dict]:
    """Write ``ds`` — rows of ``schema`` with the engine's internal
    columns — as one base commit per partition at ``(0, hi]``: the bulk
    load bootstrap and reshard share.  One hash exchange on the keys
    with the engine partitioner, so each exchange block IS one lake
    partition; each block is LWW-reduced and committed through
    :func:`~deltaray.merge.commit_partition`.  Returns ``{part, rows}``
    per committed partition."""
    import numpy as np

    from deltaray.functions.partition import hash_partitioned
    from deltaray.transforms import lww_reduce, stable_hash_cols

    keys = schema.keys

    def commit_block(block: pa.Table) -> pa.Table:
        if block.num_rows == 0:
            return pa.table({"part": pa.array([], pa.int64()),
                             "rows": pa.array([], pa.int64())})
        # np.uint64 modulus: an int one promotes the hash to float64
        part = int(stable_hash_cols(block.slice(0, 1), keys)[0]
                   % np.uint64(num_partitions))
        data = lww_reduce(block, keys)
        counts = {"inserts": int(data.num_rows), "updates": 0,
                  "deletes": 0, "bytes_in": int(data.nbytes),
                  "late_events": 0}
        rec = commit_partition(lake, schema.name, part, 0, hi, data, counts,
                               schema=schema, state=state,
                               cluster_by=cluster_by,
                               row_group_rows=row_group_rows)
        return pa.table({"part": pa.array([part], pa.int64()),
                         "rows": pa.array([rec["rows"]], pa.int64())})

    return hash_partitioned(ds, keys, commit_block,
                            num_partitions=num_partitions).take_all()


def reshard_generation(lake_root: str, new_num_partitions: int,
                       src_generation: int = 0,
                       dst_generation: int | None = None) -> dict:
    """Migrate a lake to a different partition count — the tool the
    generation-meta fail-fast points at ("re-shard into a new
    generation instead").

    Copies each table's RAW internal state (version columns, tombstones
    and before-images included) through one hash exchange into per-new-
    partition base commits in a fresh generation, and carries over the
    schema history, truncate markers and completed-chunk markers.
    Because versions are preserved exactly and chunk markers transfer,
    ``replay`` against the new generation skips the already-applied
    prefix and tails only new events; a retried/lagging chunk re-applies
    idempotently (every old event loses or ties the LWW race against
    the copied state — tombstones included, so deletes cannot
    resurrect).  Old data files are NOT copied: pre-reshard snapshot
    anchors remain listed but raise :class:`SnapshotExpiredError`,
    consistent with physical retention.

    One streaming pass per table: src partitions are merge-on-read
    units, read with one block and one task per partition through
    :func:`_per_partition` (each reads the commit list the as-of gate
    checked at the watermark), the exchange moves every row exactly
    once, base commits are written partition-parallel."""
    from deltaray.commit import latest_generation

    src = LakeState(lake_root, src_generation)
    meta = _gen_meta(src, required=True)
    if dst_generation is None:
        dst_generation = (latest_generation(lake_root) or 0) + 1
    dst = LakeState(lake_root, dst_generation)
    if os.path.isdir(dst.root):
        raise ValueError(f"generation {dst_generation} already exists")
    os.makedirs(dst.root)
    # reshard re-routes every row with the CURRENT partitioner (src
    # partitions are read raw, no src-hash needed), so it doubles as the
    # migration path across hash_version bumps.  format_version is
    # stamped unconditionally, in both writes of the dst meta: the dst
    # generation is written by THIS engine (and inherits the src's chunk
    # manifests via the copytree below), even when the src was a
    # pre-stamp lake upgraded only via its _format.json sentinel.
    dst_meta = {**meta, "num_partitions": int(new_num_partitions),
                "hash_version": HASH_VERSION,
                "format_version": LAKE_FORMAT_VERSION}
    meta_path = os.path.join(dst.root, "_meta.json")
    atomic_write_json(meta_path, dst_meta)
    if os.path.isdir(os.path.join(src.root, "_chunks")):
        shutil.copytree(os.path.join(src.root, "_chunks"),
                        os.path.join(dst.root, "_chunks"))
    results: dict[str, dict] = {}
    for table in src.list_tables():
        for sub in ("_schema", "_truncate"):
            sdir = os.path.join(src.table_dir(table), sub)
            if os.path.isdir(sdir):
                shutil.copytree(sdir, os.path.join(dst.table_dir(table),
                                                   sub))
        schema = src.current_schema(table)
        if schema is None:
            results[table] = {"rows": 0, "skipped": "schemaless"}
            continue
        wm = committed_watermark(lake_root, table, src_generation)
        # copy the state AS OF the watermark cut, not the partition
        # head: on a non-quiesced lake some partitions hold rows from a
        # chunk that never finished (seq > wm) — stamping those into a
        # (0, wm] base would corrupt time travel at anchor wm.  The
        # unfinished chunk has no marker, so the tail replay re-applies
        # it idempotently on top.  _live_parts_asof also verifies the
        # cut's files still exist (compaction past wm on a live lake →
        # honest SnapshotExpiredError: quiesce the replay first), and
        # its lists are the ones the reads use.
        live_of = _live_parts_asof(src, table, wm + 1)
        if not live_of:
            results[table] = {"rows": 0, "partitions": 0,
                              "snapshot_seq": wm}
            continue

        def load_raw(p: int) -> pa.Table | None:
            """One src partition's merged RAW state under the current
            schema (internal columns preserved)."""
            return src.read_partition(table, p, schema, live=live_of[p])[0]

        src_ds = _per_partition(list(live_of), load_raw, None)
        # rows are already per-key-unique (a key lives in exactly one
        # src partition, which read_partition LWW-reduced), so the load's
        # reduce keeps every row: the exchange only re-buckets them
        rows = _bulk_load(dst, schema, wm, int(new_num_partitions), src_ds,
                          state="REPLICATING")
        results[table] = {"rows": int(sum(r["rows"] for r in rows)),
                          "partitions": len(rows), "snapshot_seq": wm}
    # pre-reshard anchors have no data here: record the per-table floor
    # so as-of reads below it raise SnapshotExpiredError instead of
    # silently returning empty tables
    atomic_write_json(meta_path, {**dst_meta, "snapshot_floor": {
        t: int(r.get("snapshot_seq", 0)) for t, r in results.items()}})
    return {"src_generation": src_generation,
            "generation": dst_generation,
            "num_partitions": int(new_num_partitions), "tables": results}


def replay(cfg: ReplayConfig, on_chunk=None) -> dict:
    """Replay the event log into the lake.  Safe to call repeatedly —
    completed chunks are skipped, partial chunks resume idempotently."""
    return ReplaySession(cfg).run(on_chunk=on_chunk)


def replay_follow(cfg: ReplayConfig, *, poll_seconds: float = 5.0,
                  idle_polls: int | None = None, on_cycle=None) -> dict:
    """Continuously tail the event log: re-plan against the (possibly
    grown) log each cycle and replay whatever is new — the daemon analog
    of the reference's EventReader thread (EventReader.java:22-52 +
    DeltaWorker poll loop :405-440), built on resume semantics: fully
    committed prefix chunks are skipped, only new tail ranges run.

    Stops after ``idle_polls`` consecutive cycles that applied nothing
    (None = run until the process is stopped).  Returns the last cycle's
    replay result.
    """
    idle = 0
    last: dict = {}
    cycle = 0
    while True:
        applied: list = []
        last = replay(cfg, on_chunk=lambda i, c, rows: applied.append(i))
        if on_cycle is not None:
            on_cycle(cycle, applied, last)
        cycle += 1
        idle = 0 if applied else idle + 1
        if idle_polls is not None and idle >= idle_polls:
            return last
        time.sleep(poll_seconds)


# ------------------------------------------------------------ time travel
class SnapshotExpiredError(RuntimeError):
    """An as-of read needs data files that compaction + vacuum already
    deleted.  Retention is physical: a snapshot stays readable exactly
    while its (base + delta) files survive — replay with ``vacuum=False``
    or a larger ``compact_every`` to keep history, and use
    :func:`earliest_snapshot` to find the oldest still-readable anchor."""


def snapshots(lake_root: str, generation: int = 0) -> list[int]:
    """The committed chunk boundaries — the valid ``asof_seq`` anchors.

    Snapshot isolation is at commit granularity: a DML chunk's delta
    file holds only each key's LATEST version within the chunk, so state
    strictly inside a chunk's seq range is not reconstructible; a chunk
    marker, written only after EVERY partition committed the chunk,
    marks a seq at which the whole lake is consistent.  ``0`` (the empty
    lake) is always a valid anchor in addition to these.
    O(manifests + recent loose markers) metadata reads (markers roll
    into chunk manifests like commit records), no data reads."""
    recs = LakeState(lake_root, generation).chunk_done_records()
    return sorted(record_seq_hi(f) for f in recs)


def _anchor_or_raise(lake_root: str, seq: int, generation: int) -> int:
    seq = int(seq)
    if seq == 0:
        return 0
    snaps = snapshots(lake_root, generation)
    if seq not in snaps:
        import bisect

        i = bisect.bisect_left(snaps, seq)
        near = snaps[max(0, i - 2):i + 2]
        raise ValueError(
            f"asof_seq={seq} is not a committed snapshot boundary; "
            f"nearest anchors: {near or [0]} of {len(snaps)} total "
            f"(see snapshots())")
    return seq


def _schema_asof(lake: LakeState, table: str, seq: int | None):
    """Effective TableSchema at ``seq`` (None = current).  None return =
    the table did not exist yet at that point."""
    if seq is None:
        return lake.current_schema(table)
    ss = [s for s in lake.schemas_for(table) if s.version_seq <= seq]
    return ss[-1] if ss else None


def _live_parts_asof(lake: LakeState, table: str,
                     before: int | None) -> dict[int, list[dict]]:
    """``{part: live commits}`` for the partitions with live commits (as
    of ``before``), each through the as-of gate of
    :func:`_live_parts_asof_one`.  An as-of read hands each gate-checked
    list to ``read_partition(live=...)``, so every partition is listed
    once per read; a head read lists again inside its task, so a
    compaction + vacuum that lands in between is still seen."""
    return {p: live for p in lake.partitions(table)
            if (live := _live_parts_asof_one(lake, table, p, before))}


def _live_parts_asof_one(lake: LakeState, table: str, part: int,
                         before: int | None,
                         min_seq_hi: int | None = None) -> list[dict]:
    """One partition's live commits as of ``before``, from ONE commit
    listing and one TRUNCATE listing.  For an as-of read (``before``
    set) this is the one vacuum-retention gate every read shares: it
    raises when the anchor is interior to a coarser commit or a live
    file the read will touch (``seq_hi > min_seq_hi``, default all) has
    been vacuumed."""
    commits = lake._list_commits_raw(table, part)
    truncs = lake.truncate_seqs(table)
    live = live_window(commits, truncs, before)
    if before is None:
        return live
    _raise_if_interior_anchor(table, part, before, live, commits, truncs)
    d = lake.part_dir(table, part)
    missing = [c["file"] for c in live
               if (min_seq_hi is None or c["seq_hi"] > min_seq_hi)
               and not os.path.exists(os.path.join(d, c["file"]))]
    if missing:
        raise SnapshotExpiredError(
            f"snapshot seq<{before} of {table!r} part {part} needs "
            f"vacuumed file(s) {missing}; earliest readable anchor "
            f"is earliest_snapshot(...)")
    return live


def _raise_if_interior_anchor(table: str, part: int, before: int,
                              live: list, commits: list,
                              truncs: list) -> None:
    """A partition whose live set at the anchor is STALE (its newest
    live commit ends below the anchor — or is empty) while a commit
    SPANS the anchor holds the anchor's events only inside that coarser
    commit — state at the anchor was never materialized (a fine chunk
    marker can outlive its data when a coarser replay covered the
    range, in either segmentation direction).  Serving the stale or
    empty set would silently under-report; raise the same error class
    as a vacuumed snapshot.  Conservative by design: a quiet partition
    whose events genuinely stop below the anchor raises only when a
    spanning commit makes its quietness unprovable from metadata.
    Lists nothing itself: ``commits`` and ``truncs`` are the caller's
    raw partition listing and the table's TRUNCATE seqs, and ``live``
    MUST be ``live_window(commits, truncs, before)`` for the SAME
    ``before`` — the staleness check is meaningless against a list
    filtered at a different anchor."""
    S = before - 1
    if live and int(live[-1]["seq_hi"]) >= S:
        return  # the anchor state is materialized in the live set
    tmax = max((t0 for t0 in truncs if t0 < before), default=None)
    for c in commits:
        if tmax is not None and c["seq_hi"] < tmax:
            continue
        if c["seq_lo"] < S < c["seq_hi"]:
            raise SnapshotExpiredError(
                f"anchor {S} of {table!r} part {part} is interior to the "
                f"coarser commit ({c['seq_lo']},{c['seq_hi']}] — state at "
                f"{S} was never materialized (re-segmented replay); use "
                f"a boundary anchor from snapshots()")


def _snapshot_floor(lake: LakeState, table: str) -> int:
    """Oldest seq whose state is physically reconstructible in this
    generation — nonzero for resharded generations (base commits start
    at the migration watermark) and for tables with an
    :func:`expire_snapshots` retention floor (older files deleted).
    Anchor 0 = the empty table stays valid either way."""
    fl = (_gen_meta(lake) or {}).get("snapshot_floor") or {}
    return int(fl.get(table, 0))


def _raise_if_below_floor(lake: LakeState, table: str,
                          seq: int | None) -> None:
    """The one snapshot-floor gate every as-of read path shares."""
    if seq is None:
        return
    floor = _snapshot_floor(lake, table)
    if 0 < seq < floor:
        raise SnapshotExpiredError(
            f"anchor {seq} predates this table's snapshot floor "
            f"{floor} (reshard migration or expire_snapshots "
            f"retention): earlier state is not readable here")


def earliest_snapshot(lake_root: str, table: str,
                      generation: int = 0) -> int | None:
    """Oldest ``asof_seq`` anchor whose files all still exist for
    ``table`` (None = no readable snapshot): the first anchor every
    partition passes the as-of gate at.  Driver-side tooling:
    O(anchors × partitions) metadata lookups, no data reads."""
    lake = LakeState(lake_root, generation)
    parts = lake.partitions(table)
    floor = _snapshot_floor(lake, table)
    for s in snapshots(lake_root, generation):
        if 0 < s < floor:
            continue  # below the reshard/retention floor: expired
        try:
            for p in parts:
                _live_parts_asof_one(lake, table, p, s + 1)
        except SnapshotExpiredError:
            continue
        return s
    return None


# ------------------------------------------------------------------ reads
def _per_partition(parts: list[int], fn, out_schema: pa.Schema | None,
                   parts_per_task: int = 1):
    """The one partition-parallel Ray Data job: one block and one map
    task per ``parts_per_task`` partitions, no all-to-all stage.  Each
    task calls ``fn(p)`` (a table or None) for its partitions and
    concatenates the non-empty results.  The Dataset's schema is
    declared as ``out_schema``, so ``schema()`` and ``to_arrow_refs()``
    do not rerun the job under a ``limit(1)`` whose shutdown cancels
    its running tasks, and an empty result (``parts`` empty included)
    is its empty table; None (reshard's raw rows) leaves it untyped.
    The batch UDF carries ``fn``'s name (``functools.wraps``), so Ray
    Data's operator names and name-matching tracing see the caller."""
    import ray.data

    empty = pa.table({}) if out_schema is None else out_schema.empty_table()
    if not parts:
        return ray.data.from_arrow(empty)

    @functools.wraps(fn)
    def run(batch: pa.Table) -> pa.Table:
        out = [t for t in map(fn, batch["part"].to_pylist())
               if t is not None and t.num_rows]
        if not out:
            return empty
        return pa.concat_tables(out, promote_options="default")

    ds = ray.data.from_items(
        [{"part": p} for p in parts],
        override_num_blocks=-(-len(parts) // parts_per_task)) \
        .map_batches(run, batch_format="pyarrow", batch_size=parts_per_task)
    if out_schema is not None:
        ds._plan.cache_schema(out_schema)  # Ray Data has no public setter
    return ds


def _read_scope(lake_root: str, table: str, generation: int,
                asof_seq: int | None, columns: list[str] | None):
    """The preamble every table read shares: ``(lake, before, schema)``.
    An ``asof_seq`` must be a committed anchor at or above the table's
    snapshot floor (``before`` = anchor + 1; None for a head read);
    ``schema`` is the one effective there, projected to ``columns`` plus
    the keys, and None when the table exists now but not yet at the
    anchor.  Raises KeyError for a table unknown now or an unknown
    column."""
    lake = LakeState(lake_root, generation)
    before = None
    if asof_seq is not None:
        before = _anchor_or_raise(lake_root, asof_seq, generation) + 1
        _raise_if_below_floor(lake, table, asof_seq)
    schema = _schema_asof(lake, table, asof_seq)
    if schema is None:
        if asof_seq is None or lake.current_schema(table) is None:
            raise KeyError(f"unknown table {table!r}")
        return lake, before, None
    if columns is not None:
        unknown = [c for c in columns if c not in schema.column_names()]
        if unknown:
            raise KeyError(f"unknown columns {unknown!r}")
        wanted = set(columns) | set(schema.keys)
        schema = dataclasses.replace(
            schema, fields=[(n, c) for n, c in schema.fields if n in wanted])
    return lake, before, schema


def _phys_cols(gmeta: dict | None, cols: list[str], extra=()) -> list | None:
    """Physical columns of a payload-pruned merge-on-read: ``cols`` plus
    the version columns the LWW merge needs (sort-key width from the
    generation meta; None — no meta — disables pruning)."""
    if gmeta is None:
        return None
    n_sk = int(gmeta.get("sort_key_components", 2))
    return list(dict.fromkeys([
        *cols, "__seq", "__src_ts", *[f"__sk{i}" for i in range(n_sk)],
        "__deleted", *extra]))


def _route_keys(lake: LakeState, schema: TableSchema, keys: list):
    """Route point-lookup ``keys`` (scalars for a single-component key,
    tuples for composite keys) with the engine's own partitioner
    (``stable_hash_cols % num_partitions`` from the generation meta —
    exact, not probabilistic).  Returns ``(gmeta, parts, keep)``: the
    generation meta, the ascending partition ids the keys map to, and
    ``keep(t)``, which filters a table to exactly those keys' rows."""
    import numpy as np

    from deltaray.transforms import HASH_VERSION, stable_hash_cols

    gmeta = _gen_meta(lake, required=True)
    if gmeta.get("hash_version") != HASH_VERSION:
        raise ValueError(
            f"lake written under partitioner hash_version="
            f"{gmeta.get('hash_version')} but this engine routes with "
            f"{HASH_VERSION}; point lookups would mis-route — migrate via "
            f"reshard_generation (reads partitions raw, re-routes with the "
            f"current hash)")
    key_cols = list(schema.keys)
    rows = [k if isinstance(k, tuple) else (k,) for k in keys]
    if any(len(r) != len(key_cols) for r in rows):
        raise ValueError(f"key arity mismatch: table key is {key_cols}")
    arrow = schema.arrow_schema()
    ktbl = pa.table({c: pa.array([r[i] for r in rows], arrow.field(c).type)
                     for i, c in enumerate(key_cols)})
    parts = np.unique(stable_hash_cols(ktbl, key_cols)
                      % np.uint64(int(gmeta["num_partitions"]))).tolist()
    if len(key_cols) == 1:
        def keep(t: pa.Table) -> pa.Table:
            return t.filter(pc.is_in(t[key_cols[0]],
                                     value_set=ktbl[key_cols[0]]))
        return gmeta, parts, keep
    # composite: unique key rows (a duplicated lookup key must not
    # duplicate result rows) + their sorted stable hashes
    kt_unique = ktbl.group_by(key_cols).aggregate([])
    key_hashes = np.sort(np.unique(stable_hash_cols(kt_unique, key_cols)))

    def keep(t: pa.Table) -> pa.Table:
        # vectorized stable-hash prefilter, then exact verification via
        # an Arrow semi-join on the key columns (kt_unique carries ONLY
        # the keys, so the inner join adds no columns) — Arrow-native,
        # no pandas in the serving path
        h_t = stable_hash_cols(t, key_cols)
        pos = np.searchsorted(key_hashes, h_t)
        pos[pos == len(key_hashes)] = 0
        t = t.filter(pa.array(key_hashes[pos] == h_t))
        if t.num_rows:
            t = t.join(kt_unique, keys=key_cols, join_type="inner")
        return t
    return gmeta, parts, keep


def _partition_scan(lake: LakeState, table: str, schema: TableSchema,
                    out_names: list[str], live_of: dict | None = None, *,
                    columns: list[str] | None = None, prune=None, keep=None,
                    with_previous: bool = False, conjuncts=None):
    """The per-partition scan the table reads share: ``load(p)`` is
    partition ``p``'s live rows under the read ``schema`` — its
    merge-on-read (:meth:`LakeState.read_partition`, which unifies each
    file to ``schema`` and applies ``columns`` / ``prune`` / ``keep``),
    engine columns stripped, ``out_names`` selected, the exact
    ``conjuncts`` filter applied (zone maps only skip IO, never decide
    membership; SQL WHERE semantics: nulls drop), the schema stamp
    dropped — or None when no row is left.  ``live_of`` maps each
    partition to the live commits its as-of gate checked; None (a head
    read) lists inside the read, so a compaction + vacuum that lands
    after the caller's listing is still seen."""
    def load(p: int) -> pa.Table | None:
        tbl, _ = lake.read_partition(
            table, p, schema, live=None if live_of is None else live_of[p],
            columns=columns, prune=prune, keep=keep)
        if tbl is None:
            return None
        t = strip_internal(tbl, with_previous=with_previous).select(out_names)
        for c, op, lit in conjuncts or ():
            t = t.filter(_PRED_OPS[op](t[c], lit))
        return t.replace_schema_metadata() if t.num_rows else None
    return load


def read_table(lake_root: str, table: str, generation: int = 0,
               with_previous: bool = False,
               asof_seq: int | None = None) -> pa.Table:
    """Driver-side materialization of one table's final state (small
    results / tests).  For large tables use ``read_table_ds``.
    ``with_previous=True`` (requires a lake replayed with
    ``track_previous``) appends each live row's before-image as
    ``prev_tokens`` (DMLEvent.previousRow analog).

    ``asof_seq``: time travel — the state as of a committed snapshot
    boundary (:func:`snapshots`; 0 = before any data).  Reads the commit
    prefix with ``seq_hi <= asof_seq`` under the schema effective at
    that seq, so pre-DDL snapshots come back with their original
    columns.  Raises :class:`SnapshotExpiredError` when compaction +
    vacuum already deleted the needed files (retention is physical;
    replay with ``vacuum=False`` to keep full history)."""
    lake, before, schema = _read_scope(lake_root, table, generation,
                                       asof_seq, None)
    if schema is None:
        # table exists now but not yet at asof_seq → empty, typed by its
        # FIRST schema (the closest honest answer pre-creation)
        return lake.schemas_for(table)[0].arrow_schema().empty_table()
    out_schema = schema.arrow_schema()
    if with_previous:
        out_schema = out_schema.append(pa.field("prev_tokens", TOKENS))
    live_of = _live_parts_asof(lake, table, before)
    load = _partition_scan(lake, table, schema, out_schema.names,
                           None if before is None else live_of,
                           with_previous=with_previous)
    parts = [t for t in map(load, live_of) if t is not None]
    if not parts:
        return out_schema.empty_table()
    out = pa.concat_tables(parts)
    return out.sort_by([(k, "ascending") for k in schema.keys])


def read_rows(lake_root: str, table: str, keys: list, generation: int = 0,
              asof_seq: int | None = None,
              columns: list[str] | None = None) -> pa.Table:
    """Point lookups: the live rows for specific keys, touching ONLY the
    hash partitions those keys map to — O(distinct partitions of the
    keys) merge-on-read units instead of a full-table scan, the
    CDC-serving read path.  ``keys``: scalars for a single-component
    key, tuples for composite keys; missing/deleted keys are simply
    absent from the result.  Composable with ``asof_seq`` (time-travel
    point lookups) and ``columns`` (payload pruning).

    Partition routing replays the engine's own partitioner
    (``stable_hash_cols % num_partitions`` from the generation meta), so
    it is exact, not probabilistic.  The merge-on-read is key-filtered
    (``LakeState.read_partition(schema, keep=...)``): each live file is
    evolved to the read schema, then filtered to the keys (after the
    evolve: a RENAME_COLUMN can rename a key column), then LWW-reduced —
    exact, as LWW is per key.  An as-of lookup hands the gate's live
    list to the read, so each partition is listed once.  Driver-side by design:
    lookups are small; use ``read_table_ds`` for scans."""
    lake, before, schema = _read_scope(lake_root, table, generation,
                                       asof_seq, columns)
    if schema is None:
        return lake.schemas_for(table)[0].arrow_schema().empty_table()
    key_cols = list(schema.keys)
    want = (schema.column_names() if columns is None
            else list(dict.fromkeys([*key_cols, *columns])))
    out_schema = pa.schema([schema.arrow_schema().field(c) for c in want])
    if not keys:
        return out_schema.empty_table()
    gmeta, parts, keep = _route_keys(lake, schema, keys)
    # prune the payload at the parquet read, like read_table_ds — this
    # is the latency-sensitive serving path
    phys = None if columns is None else _phys_cols(gmeta,
                                                   schema.column_names())
    live_of = None if before is None else {
        p: _live_parts_asof_one(lake, table, p, before) for p in parts}
    load = _partition_scan(lake, table, schema, want, live_of,
                           columns=phys, keep=keep)
    out = [t for t in map(load, parts) if t is not None]
    if not out:
        return out_schema.empty_table()
    return pa.concat_tables(out).sort_by([(k, "ascending")
                                          for k in key_cols])


def read_history(lake_root: str, table: str, keys: list,
                 generation: int = 0,
                 columns: list[str] | None = None) -> pa.Table:
    """Per-key version HISTORY (the CDC audit-trail query): every
    retained stored version of the given keys, oldest to newest, with
    validity intervals — ``seq`` (the version), ``change``
    ("UPSERT" | "DELETE"; DELETE tombstones carry null payload),
    ``valid_to_seq`` (the key's next version's seq, null while open)
    and ``is_current`` (the live state).  Routed like
    :func:`read_rows`: only the keys' hash partitions' live
    merge-on-read files are read, never a table scan.  Each file is read
    on its own through the point lookup's reader
    (``LakeState.read_partition(schema, live=[c], keep=...)``): evolve
    to the read schema, then keep the keys' rows — in that order,
    because a RENAME_COLUMN can rename a key column — and a single file
    is never LWW-reduced, so every stored version survives.

    Granularity and retention: the lake stores one version per key per
    COMMITTED CHUNK (chunk-level LWW — intra-chunk intermediates were
    never written; the same snapshot-isolation boundary as
    :func:`snapshots`), and compaction folds superseded versions into
    the base file, so the visible depth is the retained base+delta
    window — complete from the beginning on a ``vacuum=False`` lake
    whose ``compact_every`` exceeds its chunk count.  Rows are
    returned under the CURRENT
    schema (older versions evolve forward through the rename chain).
    On UN_ORDERED lakes rows are ordered by apply seq; the logical LWW
    order is (source_ts, sort_keys), so interpret intervals there as
    arrival history, not event-time history.

    Reference contrast: the reference can only re-tail the source to
    reconstruct what happened (EventReader SPI); here the commit log IS
    the audit trail."""
    import numpy as np

    from deltaray.functions.partition import group_codes

    lake, _, schema = _read_scope(lake_root, table, generation, None,
                                  columns)
    key_cols = list(schema.keys)
    out_cols = (schema.column_names() if columns is None
                else list(dict.fromkeys([*key_cols, *columns])))
    out_schema = pa.schema(
        [schema.arrow_schema().field(c) for c in out_cols]
        + [pa.field("seq", pa.int64()), pa.field("change", pa.string()),
           pa.field("valid_to_seq", pa.int64()),
           pa.field("is_current", pa.bool_())])
    if not keys:
        return out_schema.empty_table()
    _, parts, keep = _route_keys(lake, schema, keys)
    keep_cols = [*out_cols, "__seq", "__deleted"]
    collected = []
    for p in parts:
        for c in lake.live_commits(table, p):
            t, _ = lake.read_partition(table, p, schema, live=[c], keep=keep)
            if t.num_rows:  # drop the reader's schema stamp
                collected.append(
                    t.select(keep_cols).replace_schema_metadata())
    if not collected:
        return out_schema.empty_table()
    h = pa.concat_tables(collected, promote_options="default") \
        .sort_by([*[(k, "ascending") for k in key_cols],
                  ("__seq", "ascending")]).combine_chunks()
    codes = group_codes(h, key_cols)
    seqs = h["__seq"].to_numpy(zero_copy_only=False).astype(np.int64)
    same_next = codes[1:] == codes[:-1]
    # a version can sit in several retained files (e.g. a base built
    # from a delta it subsumes) — identical (key, seq) copies collapse
    dup = np.concatenate(([False], same_next & (seqs[1:] == seqs[:-1])))
    if dup.any():
        h = h.filter(pa.array(~dup))
        codes = group_codes(h, key_cols)
        seqs = seqs[~dup]
        same_next = codes[1:] == codes[:-1]
    deleted = pc.fill_null(h["__deleted"], False)
    valid_to = np.concatenate((np.where(same_next, seqs[1:], -1), [-1]))
    last_of_key = np.concatenate((~same_next, [True]))
    is_current = pa.array(last_of_key
                          & ~deleted.to_numpy(zero_copy_only=False))
    out = h.select(out_cols) \
        .append_column("seq", pa.array(seqs)) \
        .append_column("change", pc.if_else(deleted, pa.scalar("DELETE"),
                                            pa.scalar("UPSERT"))) \
        .append_column("valid_to_seq",
                       pa.array(np.where(valid_to < 0, None, valid_to),
                                pa.int64(), from_pandas=True)) \
        .append_column("is_current", is_current)
    return out


_PRED_OPS = {"==": pc.equal, "<": pc.less, "<=": pc.less_equal,
             ">": pc.greater, ">=": pc.greater_equal}


def _pred_interval(op: str, lit):
    """Closed [lo, hi] interval (None = unbounded) a row must intersect
    to possibly satisfy ``col <op> lit`` — strict ops use the inclusive
    bound (conservative: never prunes a file that could match)."""
    if op == "==":
        return lit, lit
    if op in ("<", "<="):
        return None, lit
    return lit, None  # ">", ">="


def read_table_ds(lake_root: str, table: str, generation: int = 0,
                  with_previous: bool = False,
                  columns: list[str] | None = None,
                  asof_seq: int | None = None,
                  predicate: tuple | None = None,
                  io_stats_out: dict | None = None):
    """Streaming read of a table's current state as a ray.data.Dataset,
    one block and one task per partition through :func:`_per_partition`:
    each task performs the merge-on-read (base + delta files → LWW
    reduce) and strips engine columns, so downstream operators see
    exactly the live rows regardless of compaction state.

    ``columns`` prunes the payload at the parquet read (key + version
    columns are always fetched for the merge): a 2-column scan of a
    tokens-heavy lake never ships the token payload.

    ``asof_seq``: time travel to a committed snapshot boundary (see
    :func:`read_table`); partition availability is checked against the
    vacuum state up front (driver-side metadata), and each task reads
    the commit list that check listed, so a partition is listed once.

    ``predicate``: one ``(col, op, literal)`` conjunct or a LIST of
    them (AND semantics), op in ==/</<=/>/>= — rows are exact-filtered
    after the merge, and on ORDERED lakes the per-file zone maps in the
    commit log skip BASE files provably failing any conjunct (delta
    files are always read: they may hold a key's newest version — see
    ``LakeState.read_partition`` for the correctness argument).  After
    :func:`optimize_table` clusters partitions on the predicate
    column(s), this is the Delta-Lake-style data-skipping read:
    matching files/row groups only, no full scan.  ``io_stats_out``
    (optional dict) receives {"files_read", "files_pruned",
    "parts_pruned"} totals."""
    lake, before, schema = _read_scope(lake_root, table, generation,
                                       asof_seq, columns)
    if schema is None:
        import ray.data

        return ray.data.from_arrow(
            lake.schemas_for(table)[0].arrow_schema().empty_table())
    out_schema = schema.arrow_schema()
    if with_previous:
        out_schema = out_schema.append(pa.field("prev_tokens", TOKENS))
    live_of = _live_parts_asof(lake, table, before)
    parts = list(live_of)
    # generation meta, read once per call (ordering / partitioner /
    # sort-key width all come from it)
    gmeta0 = _gen_meta(lake)
    # physical columns for the pruned read: payload + key + version cols
    phys = None
    if columns is not None:
        phys = _phys_cols(gmeta0, schema.column_names(), ["__prev_tokens"]
                          if (gmeta0 or {}).get("track_previous")
                          and with_previous else [])

    conjuncts = None   # [(col, op, lit), ...] — AND semantics
    intervals = None   # [(col, lo, hi), ...] matching conjuncts
    prune = None
    if predicate is not None:
        conjuncts = ([predicate] if isinstance(predicate, tuple)
                     else list(predicate))
        for c, op, _lit in conjuncts:
            if op not in _PRED_OPS:
                raise ValueError(f"unsupported predicate op {op!r}; "
                                 f"one of {sorted(_PRED_OPS)}")
            if c not in schema.column_names():
                raise KeyError(f"predicate column {c!r} not in the read "
                               "schema (include it in columns=)")
        intervals = [(c, *_pred_interval(op, lit))
                     for c, op, lit in conjuncts]
        gmeta_pred = gmeta0
        ordered = (gmeta_pred or {}).get("ordering") == "ORDERED"
        # key routing: when equality conjuncts pin EVERY key column, the
        # row can only live in one hash partition — route like
        # read_rows instead of scanning all partitions (exactness is
        # the partitioner's own invariant, independent of zone maps,
        # renames or ordering; the exact filter still applies after)
        eq = {c: lit for c, op, lit in conjuncts if op == "=="}
        if gmeta_pred is not None and set(schema.keys) <= set(eq):
            if io_stats_out is not None:
                for k in ("files_read", "files_pruned", "parts_pruned"):
                    io_stats_out.setdefault(k, 0)
            try:
                _, target, _ = _route_keys(
                    lake, schema, [tuple(eq[k] for k in schema.keys)])
                routed = [p for p in parts if p in target]
            except (ValueError, pa.ArrowTypeError, OverflowError):
                # ValueError: a lake under another hash_version (routing
                # would mis-route), or — as ArrowInvalid — a literal not
                # exactly representable in the key type (id == 1.5), which
                # can match NOTHING.  Either way fall through to the
                # unrouted scan; its exact filter returns the right rows.
                routed = parts
            if io_stats_out is not None:
                io_stats_out["parts_pruned"] = (
                    io_stats_out.get("parts_pruned", 0)
                    + len(parts) - len(routed))
            parts = routed
        # zone maps are keyed by column names AT WRITE TIME; a rename
        # chain could alias an old column's stats onto a new column's
        # name, so stats-based skipping is disabled entirely on renamed
        # tables (the exact post-merge filter still applies — results
        # are unchanged, only the IO savings are forfeited)
        if not schema.renames:
            if ordered:
                # base-file / base-row-group skip needs version == seq
                prune = intervals
            if io_stats_out is not None:
                for k in ("files_read", "files_pruned", "parts_pruned"):
                    io_stats_out.setdefault(k, 0)
            kept = []
            for p in parts:
                live = live_of[p]
                if all(stats_disjoint_any(c.get("stats", {}), intervals)
                       for c in live):
                    # ordering-independent whole-partition skip: every
                    # CURRENT row is a row of SOME live file, and each
                    # live file provably fails SOME conjunct — so every
                    # current row fails the AND; the exact filter would
                    # drop everything this partition yields
                    if io_stats_out is not None:
                        io_stats_out["parts_pruned"] += 1
                        io_stats_out["files_pruned"] += len(live)
                    continue
                kept.append(p)
                if io_stats_out is not None:
                    skip_base = (prune is not None
                                 and live[0].get("kind", "base") == "base"
                                 and stats_disjoint_any(
                                     live[0].get("stats", {}), intervals))
                    io_stats_out["files_pruned"] += 1 if skip_base else 0
                    io_stats_out["files_read"] += \
                        len(live) - (1 if skip_base else 0)
            parts = kept

    load = _partition_scan(lake, table, schema, out_schema.names,
                           None if before is None else live_of,
                           columns=phys, prune=prune,
                           with_previous=with_previous, conjuncts=conjuncts)
    return _per_partition(parts, load, out_schema)


def optimize_table(lake_root: str, table: str, cluster_by: str | list[str],
                   generation: int = 0, row_group_rows: int = 32768,
                   vacuum: bool = True) -> dict:
    """Cluster + compact a table's partitions on ``cluster_by`` — the
    Delta Lake ``OPTIMIZE ... ZORDER BY (cols)`` analog.  A single
    column linearly sorts each partition; a LIST of columns sorts by
    the Morton/Z-order interleave of their ranks, so predicates on ANY
    of them (and conjunctions across them) prune row groups.
    One block and one task per partition through
    :func:`_per_partition`: merge-on-read the current state, sort it
    by ``cluster_by``, write ONE clustered base commit at the partition's
    watermark (small row groups so parquet min/max statistics are
    fine-grained), vacuum the superseded files.  The commit goes through
    the same :func:`~deltaray.merge.commit_partition` tail as a replay
    merge, so the partition's lineage record follows the new base (its
    ``last_seq``, watermark and state are unchanged).  Afterwards a
    ``read_table_ds(..., predicate=(cluster_col, op, lit))`` skips
    non-matching base files from the commit-log zone maps and
    non-matching row groups inside the base — matching data only, no
    full scan.

    Routing-safe: partitions keep their key-hash identity (the merge
    path is untouched); clustering only reorders rows WITHIN each
    partition's base file.  Idempotent per watermark: re-running while
    the lake is quiet is a no-op (write-once ``opt`` commit).  Run it
    between replay chunks, not concurrently with a merge into the same
    partition.  Time-travel note: like any compaction, the vacuum step
    retires pre-OPTIMIZE snapshots (SnapshotExpiredError applies) — on
    a lake with a retention window, pass ``vacuum=False`` and run
    :func:`expire_snapshots` afterwards, which keeps exactly the files
    the retained anchors need instead of keeping only the new base.
    """
    lake = LakeState(lake_root, generation)
    # writes clustered base commits + vacuums superseded files — gate
    # against newer-format lakes like the other destructive paths
    _check_gen_format(lake)
    schema = lake.current_schema(table)
    if schema is None:
        raise KeyError(f"unknown table {table!r}")
    cluster_cols = ([cluster_by] if isinstance(cluster_by, str)
                    else list(cluster_by))
    unknown = [c for c in cluster_cols if c not in schema.column_names()]
    if unknown:
        raise KeyError(f"unknown cluster column(s) {unknown!r}")
    parts = list(_live_parts_asof(lake, table, None))
    if not parts:
        return {"table": table, "partitions": 0, "rows": 0,
                "files_removed": 0, "already_clustered": 0}
    summary = pa.schema([("part", pa.int64()), ("rows", pa.int64()),
                         ("removed", pa.int64()), ("already", pa.bool_())])

    def opt(p: int) -> pa.Table | None:
        lk = LakeState(lake_root, generation)
        tbl, hi = lk.read_partition(table, p)
        if tbl is None or not tbl.num_rows:
            return None
        # one more base commit at the watermark, through the shared
        # commit tail: it clusters the state and the lineage record
        # follows the new base
        rec = commit_partition(
            lk, table, p, hi, hi, tbl,
            {"inserts": 0, "updates": 0, "deletes": 0, "bytes_in": 0,
             "late_events": 0},
            cluster_by=cluster_by, row_group_rows=row_group_rows,
            vacuum=vacuum, tag="opt")
        return pa.Table.from_pylist(
            [{"part": p, "rows": int(rec["rows"]),
              "removed": len(rec.get("vacuumed", [])),
              "already": bool(rec.get("replayed"))}], schema=summary)

    res = _per_partition(parts, opt, summary).take_all()  # O(P) rows
    return {
        "table": table,
        "partitions": len(res),
        "rows": int(sum(r["rows"] for r in res)),
        "files_removed": int(sum(r["removed"] for r in res)),
        "already_clustered": int(sum(1 for r in res if r["already"])),
    }


# expire_snapshots fans out as Ray tasks only past this many partitions
_EXPIRE_FANOUT_PARTS = 256


def expire_snapshots(lake_root: str, table: str, retain_since_seq: int,
                     generation: int = 0) -> dict:
    """Bounded time-travel retention — the Iceberg ``expire_snapshots``
    / Delta Lake ``VACUUM ... RETAIN`` analog, and the missing middle
    between ``vacuum=True`` (current state only, no history) and
    ``vacuum=False`` (every copy-on-write file kept forever, unbounded
    storage at 10^10 events).

    After the call, the current state and every snapshot anchor
    ``>= retain_since_seq`` remain exactly readable; data files needed
    ONLY by older anchors are deleted and the table's snapshot floor is
    advanced so ``asof_seq < retain_since_seq`` raises a clean
    :class:`SnapshotExpiredError` (instead of a missing-file error) and
    :func:`earliest_snapshot` skips the expired range without probing.

    Per-partition file rule (safe because the base chosen for any
    anchor ``s >= R`` is at or after the base chosen for ``R``, and a
    TRUNCATE marker at ``t <= R`` hides the same commits at every
    ``s >= R``): delete exactly the data files whose filename-embedded
    ``seq_hi <= R`` and that are not part of the state at ``R``
    (``live_commits(part, R+1)``) — such a file is unreachable from any
    retained anchor.  Filtering on the FILENAME seq (not the commit
    listing) makes expiry safe concurrently with pipelined merges:
    merges write data before their commit record, but always at a seq
    above the committed barrier ``R``, so in-flight files survive.
    Commit RECORDS are kept — they are the lineage/audit trail and the
    storage cost is the data files.  Note the reclaim comes from
    COMPACTION rewrites (``compact_every`` base commits, OPTIMIZE): on a
    pure merge-on-read lake that never compacted, every delta file is
    still part of the CURRENT state and nothing is expirable — the
    history-retaining configuration this API pairs with is
    ``vacuum=False`` + a finite ``compact_every``.

    Up to 256 partitions the deletes run driver-side: they are
    metadata-only, so a small lake's expiry shouldn't pay a Ray job
    launch per call (it runs per chunk in sliding-window mode).  Past
    that, a 10^5-partition lake on real storage fans out one block and
    one task per 16 partitions through :func:`_per_partition`.  Either
    way the driver writes only the O(1) ``_meta.json`` floor update.
    Idempotent; run it between replay chunks (single writer per
    partition), e.g. from replay's ``on_chunk`` callback for a sliding
    retention window during continuous ingest.  ``read_changes`` pulls
    with ``since_seq`` below the new floor raise
    :class:`SnapshotExpiredError` uniformly (the same gate as every
    as-of read — not merely when a needed file happens to be gone);
    anchor 0, the empty pre-history state, stays valid forever.

    Reference: the Delta plugin never retains history at all (its sink
    overwrites state in place, DBReplicationOffsetStore.java:42-109);
    retention windows are this engine's extension of that lifecycle.
    """
    lake = LakeState(lake_root, generation)
    # destructive path: a newer-format lake's commit listing could be
    # INCOMPLETE here, and deleting files against it is permanent data
    # loss — gate like the read paths (review finding, round 5)
    _check_gen_format(lake)
    if lake.current_schema(table) is None:
        raise KeyError(f"unknown table {table!r}")
    retain = int(retain_since_seq)
    if retain != 0:
        retain = _anchor_or_raise(lake_root, retain, generation)
    parts = lake.partitions(table)

    def _fname_seq(f: str) -> int:
        # data-<seq>[-opt].parquet — the embedded commit high-water
        # mark.  ``_seq12`` zero-pads to 12 digits but never truncates,
        # so parse the FULL digit run (a fixed 12-char slice would
        # silently halve a 13-digit seq and could misclassify an
        # in-flight file as expirable).  Unparseable names return -1
        # and are never deleted.
        body = f[len("data-"):]
        i = 0
        while i < len(body) and body[i].isdigit():
            i += 1
        if i < 12 or (i < len(body) and body[i] not in "-."):
            return -1
        return int(body[:i])

    summary = pa.schema([("removed", pa.int64()), ("bytes", pa.int64())])

    def _expire_part(p: int) -> pa.Table:
        lk = LakeState(lake_root, generation)
        # ORDER MATTERS: the watermark must be read BEFORE the keep-set
        # listing.  An in-flight writer's file has seq_hi above the
        # watermark it observed, and watermarks only grow — so a file
        # whose record lands AFTER this read has fname seq_hi > barrier
        # (filename gate keeps it), and one whose record landed BEFORE
        # the keep listing is in the live keep set.  Reading the
        # watermark second would let a record landing between the two
        # listings raise the barrier past its own file.
        barrier = min(retain, lk.committed_hi(table, p))
        keep = {c["file"] for c in lk.live_commits(table, p, retain + 1)}
        pdir = lk.part_dir(table, p)
        n, b = 0, 0
        for f in sorted(os.listdir(pdir)):
            # Delete only files whose FILENAME seq is at or below BOTH
            # the retained barrier AND this partition's own committed
            # watermark, and that the barrier state doesn't use.  The
            # filename gate (not the commit listing) is what makes this
            # safe concurrently with pipelined merges: a merge writes
            # its data file BEFORE its commit record, and the coverage
            # check guarantees that file's embedded seq_hi exceeds the
            # partition's committed watermark at write time — so
            # bounding deletions by the watermark (read BEFORE the
            # directory listing) keeps every in-flight file safe even
            # when a re-segmented catch-up chunk's hi sits below the
            # lake-wide barrier R (R is validated against global chunk
            # markers, which a longer earlier run can have pushed far
            # past a lagging partition's own watermark).  Trade-off: an
            # ORPHAN file (crashed writer, commit never recurring under
            # re-segmented boundaries) above a permanently-stalled
            # partition's watermark leaks until events advance it —
            # the price of never racing an in-flight writer; vacuum()
            # on the single-writer path still reclaims orphans.
            if (f.startswith("data-") and f.endswith(".parquet")
                    and f not in keep
                    and 0 <= _fname_seq(f) <= barrier):
                fp = os.path.join(pdir, f)
                b += os.path.getsize(fp)
                os.remove(fp)
                n += 1
        return pa.table({"removed": [n], "bytes": [b]}, schema=summary)

    res = []
    if parts and retain > 0:
        if len(parts) > _EXPIRE_FANOUT_PARTS:
            res = _per_partition(parts, _expire_part, summary,
                                 parts_per_task=16).take_all()  # O(P) rows
        else:
            res = [r for p in parts for r in _expire_part(p).to_pylist()]
    removed_files = int(sum(r["removed"] for r in res))
    removed_bytes = int(sum(r["bytes"] for r in res))
    # advance the floor (never backwards; reshard floors stay authoritative)
    meta_path = os.path.join(lake.root, "_meta.json")
    meta = _gen_meta(lake) or {}
    floors = dict(meta.get("snapshot_floor") or {})
    new_floor = max(int(floors.get(table, 0)), retain)
    if new_floor != int(floors.get(table, 0)):
        floors[table] = new_floor
        atomic_write_json(meta_path, {**meta, "snapshot_floor": floors})
    return {"table": table, "retain_since_seq": retain,
            "partitions": len(parts), "files_removed": removed_files,
            "bytes_removed": removed_bytes, "snapshot_floor": new_floor}


def committed_watermark(lake_root: str, table: str,
                        generation: int = 0) -> int:
    """The safe ``read_changes`` anchor: min over partitions of the last
    committed seq.  Every event at or below it is applied in EVERY
    partition, so a consumer that pulls ``read_changes(since=previous
    watermark)`` and advances to the new watermark never misses a row —
    anchoring at the max seq SEEN in a feed instead can skip rows from
    partitions that were still behind when the pull ran (they commit
    later with smaller seqs).

    Primary source: the newest CHUNK MARKER — written only after EVERY
    partition committed that chunk, so it is a true consistent cut even
    for partitions that have never produced a lineage record (a shard
    empty in all chunks so far writes none; min-over-lineage alone
    would overshoot while such a partition's first merge is still in
    flight).  Marker-less lakes (snapshot bootstrap without a tail yet)
    fall back to the lineage minimum, which bootstrap writes for every
    populated partition at one consistent seq.  O(#chunks + P) metadata
    reads."""
    snaps = snapshots(lake_root, generation)
    if snaps:
        return int(snaps[-1])
    rep = lineage_report(lake_root, table, generation)
    if table not in rep["tables"]:
        return 0
    return int(rep["tables"][table]["min_committed_seq"])


def read_changes(lake_root: str, table: str, since_seq: int,
                 generation: int = 0, as_of_seq: int | None = None,
                 columns: list[str] | None = None):
    """CDC-out: streaming Dataset of the rows whose LATEST version is
    newer than ``since_seq`` — the incremental feed for downstream
    consumers (re-tokenize / re-chunk / re-index only what changed
    instead of rescanning the lake).  Output = payload columns plus
    ``change`` ("UPSERT" | "DELETE"; DELETE rows carry null payload)
    and ``seq`` (the winning version), at most one row per key.

    Semantics hold in both orderings: any event applied after
    ``since_seq`` has seq > since_seq, so if it WON the key's LWW race
    the merged row's version is > since_seq (captured); if every event
    since then lost (UN_ORDERED late arrivals), the state did not
    change and the key is correctly absent.  Partitions whose committed
    high-water mark is <= since_seq are pruned from commit metadata
    alone — a quiet lake costs O(P) metadata reads, not a scan; within
    a touched partition read amplification is the merge-on-read bound
    (last base + <= compact_every delta files).

    Contrast with the reference, whose consumers re-tail the source
    stream itself (DeltaSource SPI): here the LAKE is the replayable
    boundary, so any number of downstream pipelines can fan out from a
    committed seq without touching the origin database.

    Anchor ``since_seq`` at :func:`committed_watermark` (not at the max
    seq seen in a previous feed) when a replay may be running
    concurrently: partitions commit independently, so a lagging
    partition's rows land later with SMALLER seqs than a fast
    partition's — the min-committed watermark is the largest anchor
    guaranteed not to skip them.

    ``as_of_seq``: bound the pull at a committed snapshot boundary
    (:func:`snapshots`) — the feed of changes in ``(since_seq,
    as_of_seq]`` against the state AS OF that anchor, under the schema
    effective there.  This makes incremental pulls REPRODUCIBLE while
    the lake keeps moving: two consumers pulling the same ``(since,
    as_of)`` window get identical feeds regardless of what replayed in
    between (subject to vacuum retention — expired anchors, and anchors
    interior to a coarser commit, raise :class:`SnapshotExpiredError`
    through the same gate as every as-of read).  ``asof(s1) +
    changes(s1→s2) == asof(s2)`` exactly.

    ``columns`` prunes the payload at the parquet read (keys + version
    columns always fetched for the LWW merge) — a feed consumer that
    only re-indexes ids never ships the token payload.

    TRUNCATE in the window: a truncate marker wipes keys WITHOUT
    per-key tombstones, so the merged current state cannot name them.
    When a marker with seq in ``(since_seq, as_of]`` exists, the feed
    reconstructs each partition's state AS OF ``since_seq`` (one extra
    partition-local merge-on-read, no exchange) and emits a synthetic
    DELETE row (null payload, ``seq`` = the marker's) for every key
    live at the anchor that neither re-appears nor is re-deleted in
    the feed — preserving the patch law and at-most-one-row-per-key.
    On a vacuumed/retention lake the anchor state may be gone; that
    raises :class:`SnapshotExpiredError` (re-anchor at
    :func:`earliest_snapshot` or full-refresh downstream).  DROP_TABLE
    writes the same marker at its seq, so a drop inside the window
    (with or without a later re-CREATE) also feeds its DELETEs — the
    dropped table reads as EMPTY, and the feed retires every anchor
    key the re-created incarnation didn't re-insert.

    The feed is one block and one task per touched partition through
    :func:`_per_partition`; an as-of pull's tasks, and the anchor reads
    a TRUNCATE in the window adds, read the commit lists the as-of gate
    checked, so each partition is listed once per anchor."""
    # the feed's anchor obeys the same retention contract as any as-of
    # read: a since_seq below the snapshot floor raises uniformly, even
    # when this particular expiry happened to delete no file the feed
    # would touch — otherwise the same call works or raises depending
    # on compaction accidents, and consumers can't rely on either.
    # Anchor 0 (the empty pre-history state) stays valid forever.
    _raise_if_below_floor(LakeState(lake_root, generation), table, since_seq)
    if as_of_seq is not None and int(as_of_seq) < since_seq:
        raise ValueError(
            f"as_of_seq={as_of_seq} precedes since_seq={since_seq}")
    lake, before, schema = _read_scope(lake_root, table, generation,
                                       as_of_seq, columns)
    if schema is None:
        raise KeyError(f"table {table!r} does not exist as of {as_of_seq}")
    out_schema = schema.arrow_schema() \
        .append(pa.field("change", pa.string())) \
        .append(pa.field("seq", pa.int64()))
    gmeta = _gen_meta(lake)
    phys = None if columns is None else _phys_cols(gmeta,
                                                   schema.column_names())
    # ORDERED lakes: version == seq, so files wholly at or below
    # since_seq can never hold a changed key's WINNING row — prune them
    # from the merge-on-read (read amplification drops from base+deltas
    # to just the post-anchor deltas).  UN_ORDERED keeps the full merge
    # (a late arrival may lose to a pruned base row).
    min_hi = None
    if (gmeta or {}).get("ordering") == "ORDERED":
        min_hi = since_seq
    # TRUNCATE markers inside the pull window wipe keys without per-key
    # tombstones — those keys need synthetic DELETEs (see docstring)
    trunc_hidden = None
    truncs = [t for t in lake.truncate_seqs(table)
              if t > since_seq and (before is None or t < before)]
    if truncs:
        trunc_hidden = max(truncs)
    # the anchor-state read only feeds the key anti-join: prune it to
    # keys + version columns (falls back to full reads on mixed-schema
    # files, like every pruned read)
    anchor_phys = None
    if trunc_hidden is not None:
        anchor_phys = _phys_cols(gmeta, schema.keys)
    # a table dropped inside the window still owes its consumers the
    # DELETEs for every key live at the anchor: a DROP is a TRUNCATE
    # marker at its seq, so the synthetic-DELETE path below emits them
    # (read_table on a dropped table is EMPTY — the patch law then
    # requires the feed to retire all anchor keys).  A table already
    # dropped AT the anchor has trunc_hidden None and an empty live
    # window, so it correctly yields an empty feed.  Per touched
    # partition, keep the gate's live list at the pull's anchor and,
    # with a TRUNCATE in the window, at since_seq.
    gated = {}
    for p in lake.partitions(table):
        # the as-of gate checks only the files this pull will read:
        # pre-anchor files the ORDERED pruning skips may legitimately be
        # vacuumed away
        live = _live_parts_asof_one(lake, table, p, before, min_hi)
        # the since-anchor state will actually be read: the same gate at
        # since_seq
        anchor = (None if trunc_hidden is None
                  else _live_parts_asof_one(lake, table, p, since_seq + 1))
        if anchor or any(since_seq < c["seq_hi"] for c in live):
            gated[p] = (live, anchor)

    # a closure of read_changes: tracing matches the feed UDF by its
    # qualified name, which _per_partition's batch UDF carries
    def load(p: int) -> pa.Table | None:
        live, anchor = gated[p]
        tbl, _ = lake.read_partition(
            table, p, schema, live=None if before is None else live,
            columns=phys, min_seq_hi=min_hi)
        t = None
        if tbl is not None and tbl.num_rows:
            t = tbl.filter(pc.greater(pc.fill_null(tbl["__seq"], 0),
                                      since_seq))
            deleted = pc.fill_null(t["__deleted"], False)
            change = pc.if_else(deleted, pa.scalar("DELETE"),
                                pa.scalar("UPSERT"))
            seq = t["__seq"].cast(pa.int64())
            t = t.drop_columns([c for c in t.column_names
                                if c.startswith("__")])
            t = t.append_column("change", change) \
                .append_column("seq", seq).select(out_schema.names) \
                .replace_schema_metadata()
        if trunc_hidden is None:
            return t
        # keys live at the anchor that the marker wiped and the feed
        # does not otherwise name → synthetic DELETE rows
        old, _ = lake.read_partition(table, p, schema, live=anchor,
                                     columns=anchor_phys)
        if old is None or not old.num_rows:
            return t
        alive = old.filter(pc.equal(
            pc.fill_null(old["__deleted"], False), False))
        keycols = list(schema.keys)
        oldk = alive.select(keycols)
        if t is not None and t.num_rows:
            oldk = oldk.join(t.select(keycols), keys=keycols,
                             join_type="left anti")
        n = oldk.num_rows
        if not n:
            return t
        arrs = []
        for f in out_schema:
            if f.name in keycols:
                arrs.append(oldk[f.name])
            elif f.name == "change":
                arrs.append(pa.array(["DELETE"] * n))
            elif f.name == "seq":
                arrs.append(pa.array([trunc_hidden] * n, pa.int64()))
            else:
                arrs.append(pa.nulls(n, f.type))
        dels = pa.table({f.name: a for f, a in zip(out_schema, arrs)})
        return dels if t is None else pa.concat_tables(
            [t, dels], promote_options="default")

    return _per_partition(list(gated), load, out_schema)


def _agg_cols(group_col: str, sum_cols: list[str]) -> list[str]:
    return [group_col, "n_rows", *[f"{c}_sum" for c in sum_cols]]


def _group_contrib(t: pa.Table, group_col: str,
                   sum_cols: list[str], sign: int = 1) -> pa.Table:
    cols = _agg_cols(group_col, sum_cols)
    if t.num_rows == 0:
        return pa.table({cols[0]: pa.array([], t.schema.field(group_col).type),
                         **{c: pa.array([], pa.int64()) for c in cols[1:]}})
    g = t.select([group_col, *sum_cols]).group_by(group_col).aggregate(
        [([], "count_all")] + [(c, "sum") for c in sum_cols])
    g = g.rename_columns(cols)
    g = pa.table({cols[0]: g[cols[0]],
                  **{c: pc.cast(g[c], pa.int64()) for c in cols[1:]}})
    if sign < 0:
        g = pa.table({cols[0]: g[cols[0]],
                      **{c: pc.negate(g[c]) for c in cols[1:]}})
    return g


def build_aggregate(ds, *, group_col: str, sum_cols: list[str]) -> pa.Table:
    """Initial materialized aggregate over a Dataset: per-group row count
    plus integer sums, combiner-first (one small exchange of per-batch
    partial rows; the corpus never concentrates anywhere).  Columns:
    ``(group_col, n_rows, <c>_sum ...)`` — the shape
    :func:`refresh_aggregate` maintains incrementally."""
    def partial(batch: pa.Table) -> pa.Table:
        return _group_contrib(batch, group_col, sum_cols)

    parts = pa.concat_tables(
        list(ds.map_batches(partial, batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow")),
        promote_options="default")
    return _sum_aggregate(parts, group_col, sum_cols)


def _sum_aggregate(parts: pa.Table, group_col: str,
                   sum_cols: list[str]) -> pa.Table:
    cols = _agg_cols(group_col, sum_cols)
    out = parts.group_by(group_col).aggregate(
        [(c, "sum") for c in cols[1:]]).rename_columns(cols)
    out = out.filter(pc.greater(out["n_rows"], 0))
    return out.sort_by(group_col)


def refresh_aggregate(lake_root: str, table: str, prev: pa.Table, *,
                      group_col: str, sum_cols: list[str], since_seq: int,
                      generation: int = 0,
                      as_of_seq: int | None = None,
                      feed_batch_rows: int = 65_536) -> pa.Table:
    """Incremental materialized-VIEW maintenance: advance a per-group
    aggregate (``build_aggregate`` shape) from the lake state at
    committed anchor ``since_seq`` to the state at ``as_of_seq``
    (default: current) at O(changed keys) cost — never a table scan.

    Mechanics: the CDC feed (:func:`read_changes`) names exactly the
    keys whose live state changed; their NEW contributions come from
    the feed's UPSERT rows, their RETIRED contributions from
    partition-routed point lookups (:func:`read_rows`) at the
    ``since_seq`` snapshot; counts and sums are group homomorphisms of
    row multisets, so ``prev - old(changed) + new(changed)`` equals the
    full recompute exactly (groups reaching n_rows == 0 drop out).
    Retention requirement: ``since_seq`` must still be a readable
    snapshot anchor (same rule as any as-of read; expired anchors raise
    :class:`SnapshotExpiredError`).

    Reference contrast: the reference's targets rebuild derived state
    by re-tailing the source (DeltaSource SPI); here the lake's own
    commit log is the replayable boundary, so a downstream aggregate
    refreshes from the feed without touching the origin or rescanning
    the corpus.

    Driver-memory bound: the feed is CONSUMED IN BATCHES of
    ``feed_batch_rows`` — each batch contributes only per-group
    (count, sum) rows before the next is pulled, and contributions fold
    into a running aggregate whenever they pile up, so driver memory is
    O(groups + feed_batch_rows) even for a pathological window where
    "changed keys" ≈ the whole table (e.g. a refresh across a TRUNCATE
    of a huge base table)."""
    lake = LakeState(lake_root, generation)
    schema = _schema_asof(lake, table, as_of_seq)
    if schema is None:
        raise KeyError(f"unknown table {table!r}")
    key_cols = list(schema.keys)
    feed_ds = read_changes(lake_root, table, since_seq, generation,
                           as_of_seq=as_of_seq,
                           columns=[group_col, *sum_cols])
    # the retired-contribution point lookups run at the ANCHOR snapshot,
    # which serves columns under their anchor-time names (the rename
    # law): map each requested final-schema name back through the
    # collapsed rename chain; a column ADDED after the anchor maps to
    # None and null-fills (absent == null, so its retired sums cancel)
    want_cols = [group_col, *sum_cols]
    anchor_schema = _schema_asof(lake, table, since_seq)
    inv = {n: o for o, n in schema.renames.items()}
    anchor_names: list[str | None] = []
    for c in want_cols:
        o = inv.get(c, c)
        a = anchor_schema.renames.get(o, o) if anchor_schema else None
        if schema.epochs.get(c, 0) > since_seq:
            # the column was DROPPED and re-ADDED after the anchor: any
            # same-name column at the anchor is the dropped identity —
            # its values must not feed retired contributions
            a = None
        anchor_names.append(
            a if (a is not None and anchor_schema is not None
                  and a in anchor_schema.column_names()) else None)
    lookup_cols = [a for a in anchor_names if a is not None]
    field_code = dict(schema.fields)

    def _to_final(old: pa.Table) -> pa.Table:
        if anchor_names == want_cols:
            return old
        return pa.table({
            fin: (old[anc] if anc is not None else
                  pa.nulls(old.num_rows, code_to_type(field_code[fin])))
            for fin, anc in zip(want_cols, anchor_names)})

    cols = _agg_cols(group_col, sum_cols)
    parts: list[pa.Table] = [prev.select(cols)]
    for feed in feed_ds.iter_batches(batch_format="pyarrow",
                                     batch_size=feed_batch_rows):
        if feed.num_rows == 0:
            continue
        ups = feed.filter(pc.not_equal(feed["change"], "DELETE"))
        if len(key_cols) == 1:
            keys = feed[key_cols[0]].to_pylist()
        else:
            keys = list(zip(*[feed[c].to_pylist() for c in key_cols]))
        old = _to_final(read_rows(lake_root, table, keys,
                                  generation=generation,
                                  asof_seq=since_seq, columns=lookup_cols))
        parts.append(_group_contrib(ups, group_col, sum_cols, sign=1))
        parts.append(_group_contrib(old, group_col, sum_cols, sign=-1))
        if len(parts) >= 64:  # fold partials; keeps O(groups) held
            # dropping n_rows==0 groups mid-fold is exact: a group can
            # only reach 0 when ALL its prev rows were retired, and the
            # retired rows' sums cancel with them (counts never go
            # negative — each batch retires only rows present at the
            # anchor)
            parts = [_sum_aggregate(
                pa.concat_tables(parts, promote_options="default"),
                group_col, sum_cols)]
    return _sum_aggregate(
        pa.concat_tables(parts, promote_options="default"),
        group_col, sum_cols)


def lineage_report(lake_root: str, table: str | None = None,
                   generation: int = 0) -> dict:
    """Per-partition lineage summary: state, last applied seq, rows, file —
    the resume/monitoring view (DBReplicationStateStore analog)."""
    import re

    lake = LakeState(lake_root, generation)
    ldir = os.path.join(lake.root, "_lineage")
    out: dict = {"generation": generation, "tables": {}}
    if not os.path.isdir(ldir):
        return out
    for t in sorted(os.listdir(ldir)):
        if table and t != table:
            continue
        parts = {}
        for f in sorted(os.listdir(os.path.join(ldir, t))):
            m = re.match(r"part=(\d+)\.json", f)
            if not m:
                continue
            with open(os.path.join(ldir, t, f)) as fh:
                parts[int(m.group(1))] = json.load(fh)
        states = {p["state"] for p in parts.values()}
        # a persisted table-level FAILING marker (written by the retry
        # loop before it spins) overlays the per-partition states
        fail = lake.read_table_error(t)
        if fail is not None:
            states.add("FAILING")
        out["tables"][t] = {
            "partitions": parts,
            "min_committed_seq": min((p["last_seq"] for p in parts.values()),
                                     default=0),
            # table watermark = min over partitions: every event at or
            # below this source_ts is applied in EVERY partition
            "watermark_src_ts": min(
                (p.get("watermark_src_ts", 0) for p in parts.values()),
                default=0),
            "states": sorted(states),
            **({"error": fail["error"], "failing_chunk": fail["chunk"]}
               if fail is not None else {}),
        }
    return out


# ---------------------------------------------------------------- metrics
def collect_metrics(lake: LakeState, tables: list[str]) -> dict:
    """Exact per-table event metrics from the persisted commit records
    (MetricsHandler.java:46-133 analog: counts survive restarts, retried
    merges never double-count because a replayed commit is not re-written)."""
    per_table: dict[str, dict] = {}
    for t in tables:
        agg = {"inserts": 0, "updates": 0, "deletes": 0, "bytes_in": 0,
               "late_events": 0, "rows": 0}
        cdir = os.path.join(lake.table_dir(t), "_commits")
        if not os.path.isdir(cdir):
            continue
        for pdir in sorted(os.listdir(cdir)):
            part = int(pdir.split("=")[1])
            commits = lake.list_commits(t, part)
            for c in commits:
                cc = c.get("counts", {})
                for k in ("inserts", "updates", "deletes", "bytes_in",
                          "late_events"):
                    agg[k] += int(cc.get(k, 0))
            if commits:
                last = commits[-1]
                agg["rows"] += int(last.get("state_rows", last["rows"]))
        per_table[t] = agg
    total = {
        k: sum(v[k] for v in per_table.values())
        for k in ("inserts", "updates", "deletes", "bytes_in")
    }
    total["dml_events"] = total["inserts"] + total["updates"] + total["deletes"]
    return {"tables": per_table, "total": total}
