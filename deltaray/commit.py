"""Lake layout, write-once commit log, lineage records, schema registry.

Replaces the reference's state-store service stack
(HCFSStateStore.java:47-156, DBReplicationOffsetStore.java:42-109,
DBReplicationStateStore.java:43-139, RemoteStateStore.java:32-89) with
plain files on the shared lake filesystem — Ray workers write checkpoints
directly, no HTTP hop.

Layout (resumable output, one directory per hash partition):

    lake/
      <generation>/
        <table>/
          _schema/schema-<seq12>.json      # TableSchema after each DDL
          _truncate/trunc-<seq12>.json     # TRUNCATE_TABLE and DROP_TABLE
                                           # markers (a DROP is a marker at
                                           # its seq: it hides every
                                           # earlier commit)
          _commits/part=<K5>/commit-<lo12>-<hi12>.json
          _commits/part=<K5>/commit-<hi12>-<hi12>opt.json
                                           # OPTIMIZE's clustered base
          _commits/part=<K5>/manifest-<hi12>-<count>-<digest>.json
                                           # rolled-up commit records —
                                           # bounds per-read file opens
                                           # under continuous ingest
          _chunks/chunk-<lo12>-<hi12>.done # driver chunk-complete marker
          _chunks/chunks-manifest-*.json   # rolled-up markers (same
                                           # bound as commit manifests)
          part=<K5>/data-<hi12>-<lo12>.parquet  # COW snapshot (commit range
                                           # in the name; legacy hi-only
                                           # names resolve via the record)
          part=<K5>/data-<hi12>-opt.parquet     # OPTIMIZE's data file
        _lineage/<table>/part=<K5>.json    # per-partition lineage record,
                                           # rewritten after EVERY commit

Lakes written by older engines may also hold a per-table directory of
separate drop markers; nothing reads it (every DROP there also wrote
its TRUNCATE marker).

Exactly-once contract (EventConsumer.java:39-76 analog): at-least-once
delivery plus an idempotent apply.  The data file is written (temp +
atomic rename, deterministic name) BEFORE its commit record, and a
commit record is write-once.  The commit unit is (partition, seq_range)
— the Ray translation of the (offset, sequenceNumber) checkpoint
(OffsetAndSequence.java:26-41, DeltaTargetContext.commitOffset:44-58).
Replay's one argument: a merge whose partition's committed head already
covers its chunk (head seq_hi >= chunk seq_hi; its own commit is one
such case) is a no-op.  Every failure path rests on that alone: a
failed window is settled — each in-flight merge either fails (it chains
on a failed one) or finishes and commits — and its chunks are then
re-applied in order, the covered merges skipping.  Nothing is
cancelled, so no task outlives the driver call.
Every writer — replay's merge, bootstrap, reshard and OPTIMIZE — commits
through ``merge.commit_partition``, which rewrites the partition's
lineage record right after each commit (fsck checks that it names the
latest one); a skipped merge re-points a lineage record left behind.

``generation`` isolates recreated pipelines (DeltaWorker.java:140-150).
"""

from __future__ import annotations

import glob
import json
import os
import re
import tempfile
import time

import pyarrow as pa
import pyarrow.parquet as pq

from deltaray.schemas import TableSchema

# Parquet key-value metadata slot holding the file's effective TableSchema
SCHEMA_META_KEY = b"deltaray.schema"


def _seq12(s: int) -> str:
    return f"{int(s):012d}"


# ------------------------------------------------------ lake format version
#
# Version 1: loose commit records / chunk markers only.
# Version 2: records may be rolled into manifest-*.json /
#            chunks-manifest-*.json (manifest compaction).  A version-1
#            reader opening a compacted lake would list only the loose
#            files and silently reconstruct an INCOMPLETE commit log —
#            the same silent-misread class the hash_version gate guards
#            against, so readers must fail fast on versions newer than
#            they support.
#
# New lakes stamp ``format_version`` into ``_meta.json`` at creation
# (single write, no race).  Lakes created by older writers are upgraded
# the first time a rollup writes a manifest — via the write-once
# ``_format.json`` sentinel rather than a read-modify-write of
# ``_meta.json``, which could race the retention floor update in
# ``expire_snapshots``.  Readers honor the max of both.
LAKE_FORMAT_VERSION = 2


def gen_format_version(root: str, meta: dict | None) -> int:
    """Effective format version of a generation: max of the _meta.json
    stamp and the _format.json upgrade sentinel (absent = version 1)."""
    v = int((meta or {}).get("format_version", 1) or 1)
    try:
        with open(os.path.join(root, "_format.json")) as f:
            v = max(v, int(json.load(f).get("format_version", 1)))
    except (FileNotFoundError, ValueError):
        pass
    return v


def check_lake_format(root: str, meta: dict | None) -> dict | None:
    """Fail fast when the lake's on-disk format is newer than this
    reader supports (mirrors the hash_version gate); returns ``meta``
    for call-site chaining."""
    v = gen_format_version(root, meta)
    if v > LAKE_FORMAT_VERSION:
        raise ValueError(
            f"lake generation at {root} uses format_version={v}, newer "
            f"than this engine's supported {LAKE_FORMAT_VERSION}; "
            f"reading it could silently miss commit records — upgrade "
            f"the engine")
    return meta


# ------------------------------------------------------ commit manifests
#
# Commit records are the audit trail and are never deleted, so under
# continuous ingest a partition accumulates one small JSON file per
# committed chunk forever — and every read (list_commits underlies all
# merge-on-read, feed, lookup and watermark paths) would pay one
# open+parse per record.  Manifest compaction bounds that: once a
# partition holds >= manifest_every loose records they are rolled into
# one ``manifest-*.json`` (all records, keyed by their original commit
# filename so ordering semantics are unchanged), and once
# MANIFEST_MERGE_AT manifests accumulate they merge into one.  Reads
# then cost O(manifests + recent loose) file opens instead of
# O(total history).  Iceberg's manifest-list analog, adapted to the
# write-once single-writer-per-partition commit protocol.  Commit
# records and chunk markers share it: one writer (``LakeState._rollup``)
# and one reader (``_read_rolled``), so the safety argument below is
# made once for both record kinds:
#
# - the manifest is written atomically BEFORE its sources are deleted,
#   and its name is deterministic in its contents (max seq_hi + count +
#   content digest), so a crashed/retried rollup is idempotent and a
#   reader never observes a state where a record is in neither place;
# - a reader that listed the directory just before a rollup may open a
#   loose file the rollup deleted — it retries the listing (the record
#   is in the manifest by then);
# - records may transiently exist in BOTH places (crash between write
#   and cleanup): readers dedupe by commit filename.
#
# Write-amplification bound: a level-0 rollup copies ONLY the loose
# records (existing manifests are not rewritten); the full merge
# rewrites the whole history but runs only every manifest_every *
# MANIFEST_MERGE_AT commits — O(N^2 / (every * merge_at)) record-writes
# over N commits, a factor ~2000 below naive per-commit rewriting at
# the defaults (64 * 32).

MANIFEST_MERGE_AT = 32

# manifests are immutable once written (their name pins their content),
# so a small process-wide cache makes repeated list_commits calls cheap
_MANIFEST_CACHE: dict = {}
_MANIFEST_CACHE_MAX = 256


def _load_manifest(path: str) -> dict:
    """records dict (commit filename -> record) of one manifest file."""
    st = os.stat(path)
    key = (st.st_mtime_ns, st.st_size)
    hit = _MANIFEST_CACHE.get(path)
    if hit is not None and hit[0] == key:
        return hit[1]
    with open(path) as f:
        recs = json.load(f)["records"]
    if len(_MANIFEST_CACHE) >= _MANIFEST_CACHE_MAX:
        _MANIFEST_CACHE.pop(next(iter(_MANIFEST_CACHE)))
    _MANIFEST_CACHE[path] = (key, recs)
    return recs


# (loose prefix, loose suffix, manifest prefix) of the two rolled record
# kinds, shared by the writer and the reader; the ``chunks-manifest-``
# prefix never matches the ``chunk-`` loose filter (the 's' breaks it)
_COMMIT_NAMES = ("commit-", ".json", "manifest-")
_CHUNK_NAMES = ("chunk-", ".done", "chunks-manifest-")
_RECORD_HI = re.compile(r"[a-z]+-\d+-(\d+)")


def record_seq_hi(fname: str) -> int:
    """The seq_hi a record name carries: ``commit-<lo>-<hi>[tag].json``
    and ``chunk-<lo>-<hi>.done`` both put it in the third field."""
    return int(_RECORD_HI.match(fname).group(1))


def _read_rolled(d: str, loose_prefix: str, loose_suffix: str,
                 man_prefix: str, *, only: str | None = None,
                 min_hi: int = -1) -> dict[str, dict]:
    """The one reader of the rollup protocol: record filename -> record
    over the manifests plus the loose files in ``d``, deduped by
    filename (a rollup crash can leave a record in both places).  A
    file deleted between the listing and the read means a rollup just
    covered it: re-list, the manifest has it by then.  A vanished
    directory (concurrent DROP / external cleanup) means "no records".
    ``only`` limits the loose files opened to that one name;
    ``min_hi`` >= 0 skips manifests whose name pins a lower max seq_hi
    (names are parsed only then, so a stray file cannot break a plain
    listing)."""
    for _attempt in range(8):
        try:
            names = sorted(os.listdir(d))
            recs: dict[str, dict] = {}
            for f in names:
                if f.startswith(man_prefix) and f.endswith(".json") and (
                        min_hi < 0 or int(f[len(man_prefix):].split("-")[0])
                        >= min_hi):
                    recs.update(_load_manifest(os.path.join(d, f)))
            for f in names:
                if (f.startswith(loose_prefix) and f.endswith(loose_suffix)
                        and f not in recs and only in (None, f)):
                    with open(os.path.join(d, f)) as fh:
                        recs[f] = json.load(fh)
            return recs
        except FileNotFoundError:
            # only FILE-level races earn the retry
            if not os.path.isdir(d):
                return {}
    raise RuntimeError(
        f"record listing under {d} kept racing manifest rollups — is an "
        f"external process deleting files?")


def atomic_write_json(path: str, obj: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    with os.fdopen(fd, "w") as f:
        json.dump(obj, f)
    os.replace(tmp, path)  # atomic on POSIX


def atomic_write_parquet(path: str, tbl: pa.Table,
                         row_group_size: int | None = None) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    os.close(fd)
    pq.write_table(tbl, tmp, compression="zstd",
                   row_group_size=row_group_size)
    os.replace(tmp, path)


def column_stats(tbl: pa.Table) -> dict:
    """Zone map for one data file: {column: [min, max]} over the
    JSON-representable scalar columns (ints, floats, strings).  Computed
    once at commit time — one vectorized min_max pass per column, noise
    next to the parquet write itself — and stored in the commit record,
    where predicate-pruned reads (``read_table_ds(predicate=...)``)
    consult it without opening the file.  Columns that are all-null,
    non-scalar (lists, binary, structs) or non-finite at the extremes
    are omitted: a missing entry means "cannot prune", never "no rows
    match".  (Delta Lake / Iceberg data-skipping stats analog.)"""
    import math

    import pyarrow.compute as pc

    stats: dict = {}
    for name, col in zip(tbl.column_names, tbl.columns):
        t = col.type
        if not (pa.types.is_integer(t) or pa.types.is_floating(t)
                or pa.types.is_string(t) or pa.types.is_large_string(t)):
            continue
        if col.null_count == len(col):
            continue
        mm = pc.min_max(col)
        lo, hi = mm["min"].as_py(), mm["max"].as_py()
        if lo is None or hi is None:
            continue
        if isinstance(lo, float) and not (math.isfinite(lo)
                                          and math.isfinite(hi)):
            continue
        stats[name] = [lo, hi]
    return stats


def stats_disjoint(stats: dict, col: str, lo, hi) -> bool:
    """True when a file's zone map PROVES no row's ``col`` falls inside
    the closed interval [lo, hi] (None = unbounded).  A missing column
    entry returns False — conservatively read the file."""
    if col not in stats:
        return False
    fmin, fmax = stats[col]
    try:
        if lo is not None and fmax < lo:
            return True
        if hi is not None and fmin > hi:
            return True
    except TypeError:  # literal/column type mismatch: never prune
        return False
    return False


def stats_disjoint_any(stats: dict, conjuncts: list[tuple]) -> bool:
    """True when a file's zone map proves AT LEAST ONE conjunct of an
    AND-predicate can never hold — the whole file fails the AND."""
    return any(stats_disjoint(stats, col, lo, hi)
               for col, lo, hi in conjuncts)


def _base_row_groups(src, prune: list[tuple]) -> list[int] | None:
    """Row groups of a BASE parquet file whose parquet min/max statistics
    could satisfy EVERY conjunct in ``prune`` (a list of ``(col, lo,
    hi)`` closed intervals, None = unbounded — AND semantics: a group
    provably disjoint on ANY conjunct is skipped).  Returns None when
    nothing can be skipped (no stats, type mismatch, or every group
    intersects) so the caller takes the plain whole-file read; returns
    ``[]`` when EVERY group is provably disjoint (the file itself can
    be dropped).  The same ORDERED-lake-only correctness argument as
    the file-level skip in :meth:`LakeState.read_partition` applies — a
    skipped row group of the base holds only rows whose current version
    either lives in an always-read delta or provably fails the caller's
    exact filter.  ``src``: a path or an open ``pq.ParquetFile``."""
    md = _parquet_file(src).metadata
    keep, any_skip = [], False
    for g in range(md.num_row_groups):
        rg = md.row_group(g)
        by_col = {}
        for ci in range(rg.num_columns):
            cc = rg.column(ci)
            st = cc.statistics
            if st is not None and st.has_min_max:
                by_col[cc.path_in_schema] = st
        skip = False
        for col, lo, hi in prune:
            st = by_col.get(col)
            if st is None:
                continue
            try:
                if (lo is not None and st.max < lo) \
                        or (hi is not None and st.min > hi):
                    skip = True
                    break
            except TypeError:  # literal/physical type mismatch
                pass
        if skip:
            any_skip = True
        else:
            keep.append(g)
    return keep if any_skip else None


def _parquet_file(src) -> pq.ParquetFile:
    return src if isinstance(src, pq.ParquetFile) else pq.ParquetFile(src)


def read_data_file(src, columns: list[str] | None = None,
                   row_groups: list[int] | None = None) -> pa.Table:
    """The one lake data-file reader.  ``src`` is a path or an open
    ``pq.ParquetFile``: a caller that first needs the file's schema
    (``schema_arrow``, embedded ``SCHEMA_META_KEY`` included) or its
    row-group stats opens the file once and passes the handle.  Reads
    ``columns`` (None = all) of ``row_groups`` (None = all); the result
    keeps the embedded schema metadata.  ``ParquetFile`` skips the
    ``pyarrow.dataset`` layer ``pq.read_table`` goes through, which
    costs about as much again as the decode on lake-sized files."""
    pf = _parquet_file(src)
    if row_groups is not None:
        return pf.read_row_groups(row_groups, columns=columns)
    return pf.read(columns=columns)


def live_window(commits: list[dict], truncs: list[int],
                before: int | None = None) -> list[dict]:
    """The commits whose data files make up a partition's state as of
    ``before`` (None = head), from its state-ordered listing and its
    table's TRUNCATE seqs: the last ``base`` (full-state) commit plus
    every ``delta`` commit after it, minus every commit a TRUNCATE
    marker hides (one whose range precedes the newest marker).
    Merge-on-read: concatenating these files and LWW-reducing per key
    reproduces the exact state — LWW over unique versions is
    associative, so base+deltas ≡ the fully compacted file.  Returns
    copies: listed records alias the manifest cache, and e.g. reshard
    and feed callers annotate the live window in place."""
    if before is not None:
        commits = [c for c in commits if c["seq_hi"] < before]
        truncs = [t for t in truncs if t < before]
    bi = None
    for i, c in enumerate(commits):
        if c.get("kind", "base") == "base":
            bi = i
    sel = commits if bi is None else commits[bi:]
    if truncs:
        tmax = max(truncs)
        sel = [c for c in sel if c["seq_hi"] >= tmax]
    return [dict(c) for c in sel]


class LakeState:
    """Paths + small-state helpers for one lake generation.

    All methods are safe to call from any worker — state is files, reads
    are directory listings (cheap: one dir per partition / table).
    """

    def __init__(self, lake: str, generation: int = 0):
        self.root = os.path.join(lake, f"gen={generation:04d}")

    # -------------------------------------------------------------- paths
    def table_dir(self, table: str) -> str:
        return os.path.join(self.root, table)

    def part_dir(self, table: str, part: int) -> str:
        return os.path.join(self.table_dir(table), f"part={part:05d}")

    def data_path(self, table: str, part: int, seq_hi: int,
                  seq_lo: int = 0, tag: str = "") -> str:
        """Data file for the commit covering ``(seq_lo, seq_hi]``.  The
        name carries BOTH bounds: commits from a RE-SEGMENTED replay of
        the same events overlap the original ranges rather than equal
        them, and a hi-only name would let such a delta silently
        overwrite a live base file sharing its high-water mark (the
        as-of and head reads would then serve the delta's rows as the
        full state).  A ``tag`` (OPTIMIZE's ``opt``) replaces the low
        bound.  ``hi`` stays the FIRST digit run — the vacuum /
        retention filename gates parse it.  Readers always go through
        the commit record's ``file`` field, so pre-existing hi-only
        names keep working."""
        return os.path.join(
            self.part_dir(table, part),
            f"data-{_seq12(seq_hi)}-{tag or _seq12(seq_lo)}.parquet")

    def commit_dir(self, table: str, part: int) -> str:
        return os.path.join(self.table_dir(table), "_commits", f"part={part:05d}")

    def commit_path(self, table: str, part: int, lo: int, hi: int,
                    tag: str = "") -> str:
        return os.path.join(self.commit_dir(table, part),
                            f"commit-{_seq12(lo)}-{_seq12(hi)}{tag}.json")

    def chunk_marker(self, lo: int, hi: int) -> str:
        return os.path.join(
            self.root, "_chunks", f"chunk-{_seq12(lo)}-{_seq12(hi)}.done"
        )

    # ------------------------------------------------------------- schema
    def write_schema(self, schema: TableSchema) -> None:
        path = os.path.join(
            self.table_dir(schema.name), "_schema", f"schema-{_seq12(schema.version_seq)}.json"
        )
        atomic_write_json(path, json.loads(schema.to_json()))

    def schemas_for(self, table: str) -> list[TableSchema]:
        d = os.path.join(self.table_dir(table), "_schema")
        if not os.path.isdir(d):
            return []
        out = []
        for f in sorted(os.listdir(d)):
            if f.startswith("schema-") and f.endswith(".json"):
                with open(os.path.join(d, f)) as fh:
                    out.append(TableSchema.from_json(fh.read()))
        return out

    def current_schema(self, table: str) -> TableSchema | None:
        ss = self.schemas_for(table)
        return ss[-1] if ss else None

    def list_tables(self) -> list[str]:
        if not os.path.isdir(self.root):
            return []
        return sorted(
            d for d in os.listdir(self.root)
            if os.path.isdir(os.path.join(self.root, d)) and not d.startswith("_")
        )

    # ----------------------------------------------------------- truncate
    def write_truncate(self, table: str, seq: int) -> None:
        path = os.path.join(
            self.table_dir(table), "_truncate", f"trunc-{_seq12(seq)}.json"
        )
        atomic_write_json(path, {"table": table, "seq": int(seq)})

    def truncate_seqs(self, table: str) -> list[int]:
        d = os.path.join(self.table_dir(table), "_truncate")
        if not os.path.isdir(d):
            return []
        return sorted(
            int(f[len("trunc-"):-len(".json")]) for f in os.listdir(d)
            if f.startswith("trunc-")
        )

    def partitions(self, table: str) -> list[int]:
        """Ids of the table's partition data directories, ascending."""
        return sorted(
            int(os.path.basename(d).split("=")[1])
            for d in glob.glob(os.path.join(self.table_dir(table), "part=*")))

    # ------------------------------------------------------------ commits
    def list_commits(self, table: str, part: int) -> list[dict]:
        """Commits for one partition, ascending by seq_hi — the union of
        manifest-held records and loose ``commit-*.json`` files, deduped
        by commit filename (rollup crash windows can leave a record in
        both places).  A loose file deleted between the listing and the
        read means a rollup just covered it; re-list and the manifest
        has it.  Returns shallow copies: manifest records alias the
        process-wide cache, and a caller stamping e.g.
        ``rec["replayed"]`` must not poison every later read (nested
        counts/stats are treated read-only engine-wide)."""
        return [dict(r) for r in self._list_commits_raw(table, part)]

    def _list_commits_raw(self, table: str, part: int) -> list[dict]:
        """Uncopied listing for the internal READ-ONLY paths
        (live_commits / committed_hi run once per partition per
        merge-on-read task; copying the full history there would cost
        O(chunks-ever-committed) per read)."""
        recs = _read_rolled(self.commit_dir(table, part), *_COMMIT_NAMES)
        # STATE order is (seq_hi, seq_lo, name), not filename (lo, hi)
        # order: a catch-up chunk from a re-segmented / compacted
        # upstream log can EXTEND past the committed head with a low
        # seq_lo — filename order would sort it before the old head, and
        # live_commits' "last base + following deltas" selection (and
        # committed_hi) would silently drop its events.  hi-order makes
        # the newest state last regardless of range shape; at equal hi a
        # base (full state) precedes the deltas re-applied on it and the
        # `opt` clustered base (lo == hi) sorts after a chunk commit
        # ending at the same hi, preserving the OPTIMIZE convention.
        return sorted(
            recs.values(),
            key=lambda r: (r["seq_hi"],
                           0 if r.get("kind", "base") == "base"
                           and r["seq_lo"] < r["seq_hi"] else 1,
                           r["seq_lo"]))

    def commit_record(self, table: str, part: int, fname: str) -> dict | None:
        """One commit record by its filename, whether loose or already
        rolled into a manifest — the write-once existence check.  The
        name pins the record's seq_hi, so manifests provably too old to
        hold it are skipped unread (the common miss path: a brand-new
        chunk probing before its first commit)."""
        rec = _read_rolled(self.commit_dir(table, part), *_COMMIT_NAMES,
                           only=fname, min_hi=record_seq_hi(fname)).get(fname)
        return None if rec is None else dict(rec)

    def _rollup(self, d: str, every: int, loose_prefix: str,
                loose_suffix: str, man_prefix: str) -> int:
        """Shared crash-safe rollup protocol for loose records →
        manifests (commit records AND chunk markers call this — one
        place where the safety argument must hold): the manifest is
        atomically written BEFORE any source is deleted, its name is
        deterministic in its contents (idempotent across crashes and
        concurrent rollups), and a full merge of existing manifests
        runs only once MANIFEST_MERGE_AT accumulate (two-tier rollup
        keeps write amplification near O(N log N): level 0 folds only
        the loose records, existing manifests untouched).  The manifest
        name pins the max seq_hi its record names carry.  Returns the
        number of source files retired.  The read half is
        :func:`_read_rolled`."""
        if every <= 0 or not os.path.isdir(d):
            return 0
        names = sorted(os.listdir(d))
        loose = [f for f in names
                 if f.startswith(loose_prefix) and f.endswith(loose_suffix)]
        mans = [f for f in names
                if f.startswith(man_prefix) and f.endswith(".json")]
        merge_all = len(mans) >= MANIFEST_MERGE_AT
        if len(loose) < every and not merge_all:
            return 0
        recs: dict[str, dict] = {}
        srcs: list[str] = []
        if merge_all:
            for f in mans:
                try:
                    recs.update(_load_manifest(os.path.join(d, f)))
                except FileNotFoundError:
                    return 0  # concurrent rollup racing us; it owns this
            srcs += mans
        for f in loose:
            if f in recs:
                continue
            try:
                with open(os.path.join(d, f)) as fh:
                    recs[f] = json.load(fh)
            except FileNotFoundError:
                return 0
        srcs += loose
        if not recs:
            return 0
        import hashlib
        hi = max(record_seq_hi(f) for f in recs)
        digest = hashlib.sha1(
            "\n".join(sorted(recs)).encode()).hexdigest()[:10]
        mname = f"{man_prefix}{_seq12(hi)}-{len(recs):08d}-{digest}.json"
        if mname not in mans:
            atomic_write_json(os.path.join(d, mname), {"records": recs})
        # a manifest now exists (written above OR left by a crashed
        # earlier rollup that died before stamping — the deterministic
        # mname makes the rerun take the skip branch): stamp the format
        # upgrade UNCONDITIONALLY before retiring sources, so a
        # version-1 reader can never see a manifest-bearing lake
        # without the stamp (write-once sentinel; LAKE_FORMAT_VERSION)
        self._stamp_format_version()
        retired = 0
        for f in srcs:
            if f == mname:
                continue
            try:
                os.remove(os.path.join(d, f))
                retired += 1
            except FileNotFoundError:
                pass
        return retired

    def _stamp_format_version(self) -> None:
        path = os.path.join(self.root, "_format.json")
        if not os.path.exists(path):
            atomic_write_json(path,
                              {"format_version": LAKE_FORMAT_VERSION})

    def compact_manifests(self, table: str, part: int,
                          every: int) -> int:
        """Roll loose commit records into a manifest once ``every`` have
        accumulated, and merge manifests once MANIFEST_MERGE_AT exist
        (shared protocol: :meth:`_rollup`)."""
        return self._rollup(self.commit_dir(table, part), every,
                            *_COMMIT_NAMES)

    # ------------------------------------------------- chunk-done markers
    # Same unbounded-growth story as commit records: one ``chunk-*.done``
    # marker per committed chunk forever, and snapshots() (under every
    # time-travel / feed / watermark anchor check) lists them all.  The
    # same rollup bounds it: loose markers fold into a
    # ``chunks-manifest-*.json`` (name prefix chosen so the
    # ``chunk-`` marker filter never matches it).

    def chunk_done_records(self) -> dict[str, dict]:
        """marker filename -> record, from manifests + loose markers."""
        return _read_rolled(os.path.join(self.root, "_chunks"),
                            *_CHUNK_NAMES)

    def write_chunk_done(self, lo: int, hi: int, record: dict,
                         manifest_every: int = 0) -> None:
        atomic_write_json(self.chunk_marker(lo, hi), record)
        if manifest_every:
            self.compact_chunk_markers(manifest_every)

    def compact_chunk_markers(self, every: int) -> int:
        """Roll loose chunk markers into a manifest; same crash-safety
        protocol as :meth:`compact_manifests` (shared :meth:`_rollup`)."""
        return self._rollup(os.path.join(self.root, "_chunks"), every,
                            *_CHUNK_NAMES)

    def latest_commit(self, table: str, part: int) -> dict | None:
        cs = self._list_commits_raw(table, part)
        return dict(cs[-1]) if cs else None

    def committed_hi(self, table: str, part: int) -> int:
        """Max committed seq for the partition — the resume watermark
        (DeltaContext.java:159-162 analog)."""
        c = self.latest_commit(table, part)
        return int(c["seq_hi"]) if c else 0

    def live_commits(self, table: str, part: int,
                     before_seq: int | None = None) -> list[dict]:
        """The commits whose data files make up the partition's CURRENT
        state (as of ``before_seq``): :func:`live_window` over this
        partition's listing and the table's TRUNCATE markers."""
        return live_window(self._list_commits_raw(table, part),
                           self.truncate_seqs(table), before_seq)

    def try_commit(
        self,
        table: str,
        part: int,
        lo: int,
        hi: int,
        data_tbl: pa.Table,
        counts: dict,
        kind: str = "base",
        state_rows: int | None = None,
        row_group_rows: int | None = None,
        clustered_by=None,
        manifest_every: int = 0,
        tag: str = "",
    ) -> dict:
        """Write the data file then the write-once commit record.
        ``kind``: "base" = the file holds the partition's full state;
        "delta" = only this chunk's reduced changes (merge-on-read).
        ``state_rows`` records the partition's live state row count
        (incl. tombstones) after this commit.  ``row_group_rows`` /
        ``clustered_by``: set by cluster-on-write base compactions (the
        caller sorted ``data_tbl``) — small row groups make the parquet
        stats prunable and the commit record advertises the layout.
        ``tag`` suffixes the commit name and replaces the low bound in
        the data-file name: OPTIMIZE's ``opt`` base at ``(hi, hi]`` is
        distinct from — and sorts AFTER — a chunk commit ending at the
        same ``hi``, so it becomes the partition's last base.

        Idempotent: if the commit record already exists the merge was
        already applied (a Ray task retry or a resumed run) — return the
        existing record untouched, do NOT double-count metrics
        (clear-on-restart semantics, MetricsHandler.java:117-133,
        DeltaPipelineStateStoreBaseTest.java:388-392).
        """
        cpath = self.commit_path(table, part, lo, hi, tag)
        # write-once check spans loose files AND manifests: after a
        # rollup the record file is gone but the commit still happened
        rec = self.commit_record(table, part, os.path.basename(cpath))
        if rec is not None:
            rec["replayed"] = True
            return rec
        dpath = self.data_path(table, part, hi, lo, tag)
        atomic_write_parquet(dpath, data_tbl, row_group_size=row_group_rows)
        rec = {
            "table": table,
            "part": int(part),
            "seq_lo": int(lo),
            "seq_hi": int(hi),
            "file": os.path.basename(dpath),
            "kind": kind,
            "rows": int(data_tbl.num_rows),
            "state_rows": int(state_rows if state_rows is not None
                              else data_tbl.num_rows),
            "counts": counts,
            "stats": column_stats(data_tbl),
            "replayed": False,
        }
        if clustered_by is not None:
            rec["clustered_by"] = clustered_by
        atomic_write_json(cpath, rec)
        if manifest_every:
            self.compact_manifests(table, part, manifest_every)
        return rec

    # -------------------------------------------------------------- reads
    def read_partition(self, table: str, part: int,
                       schema: TableSchema | None = None, *,
                       live: list[dict] | None = None,
                       columns: list[str] | None = None,
                       min_seq_hi: int | None = None,
                       prune: tuple | None = None,
                       keep=None,
                       io_stats: dict | None = None,
                       ) -> tuple[pa.Table | None, int]:
        """State of a partition, merged-on-read: the last base file plus
        its delta files, each unified to ``schema``, then LWW-reduced
        per key.  Returns (table_or_None, committed_hi).  The one place
        a live file is unified on read: each file is evolved ONCE,
        straight to ``schema`` (``merge.evolve_to``), then filtered by
        ``keep``, then all are concatenated and reduced; the result is
        stamped with ``schema``.  ``schema=None`` unifies to the newest
        schema embedded in the live files (a single file comes back as
        read) — OPTIMIZE's read, whose base must carry the schema of the
        state it holds.

        ``live``: the partition's live commits as the caller's as-of
        gate listed them (:func:`live_window`); None lists the partition
        at head.  ``committed_hi`` is the newest live commit's seq_hi (0
        when none).

        ``columns`` prunes the parquet read (MUST include the key and
        version columns so the LWW merge stays correct — callers like
        ``read_table_ds`` build that set); pruning only applies when
        every live file shares one embedded schema containing all the
        requested names (post-DDL mixed files fall back to full reads,
        which the rename-chain evolution requires anyway).

        ``prune``: optional list of ``(col, lo, hi)`` AND-conjuncts —
        zone-map skip: drop the BASE file when its commit stats prove
        some conjunct can never hold (no row's ``col`` lies in
        [lo, hi]).  Only the base may be skipped, and only on ORDERED
        lakes (the caller enforces ordering): delta files are strictly
        newer, so every key in a skipped base either has its current
        version in a delta (which is always read and wins LWW) or its
        current version IS the base row, which the stats prove cannot
        match — the caller's exact post-merge filter would drop it
        anyway.  Delta files are NEVER skipped: a skipped delta could
        lose a key's newest version and resurrect a stale base row.
        ``io_stats`` (optional dict) accumulates {"files_read",
        "files_pruned"} for observability/tests.

        ``keep``: a point lookup's key filter (``pipeline._route_keys``),
        run on each file after its evolve — a RENAME_COLUMN can rename a
        key column, so an older file holds the key under a name ``keep``
        does not know.  Only the surviving rows are concatenated and
        reduced: exact because LWW is per key, and the filter keeps
        every version and every tombstone of each wanted key.  Every
        live file is still read; nothing is skipped."""
        if live is None:
            live = self.live_commits(table, part)
        if not live:
            return None, 0
        hi = int(live[-1]["seq_hi"])
        if min_seq_hi is not None:
            # incremental-read pruning: skip live files wholly at or
            # below the anchor.  ONLY correct for ORDERED lakes, where
            # version == seq, so any row in a newer file beats every row
            # of an older one — the caller (read_changes) enforces that.
            # UN_ORDERED late arrivals could lose the LWW race to a
            # pruned base row, which would surface a stale value.
            live = [c for c in live if c["seq_hi"] > min_seq_hi]
        if prune is not None and live \
                and live[0].get("kind", "base") == "base" \
                and stats_disjoint_any(live[0].get("stats", {}), prune):
            live = live[1:]
            if io_stats is not None:
                io_stats["files_pruned"] = io_stats.get("files_pruned", 0) + 1
        pfs = [pq.ParquetFile(os.path.join(self.part_dir(table, part),
                                           c["file"])) for c in live]
        # finer grain than the file-level skip: drop BASE row groups the
        # parquet stats prove disjoint (effective once optimize_table has
        # sorted the base on the predicate column)
        rg_keep = None
        if prune is not None and live \
                and live[0].get("kind", "base") == "base":
            rg_keep = _base_row_groups(pfs[0], prune)
            if rg_keep == []:
                live, pfs, rg_keep = live[1:], pfs[1:], None
                if io_stats is not None:
                    io_stats["files_pruned"] = \
                        io_stats.get("files_pruned", 0) + 1
        if io_stats is not None:
            io_stats["files_read"] = io_stats.get("files_read", 0) + len(live)
            if rg_keep is not None:
                io_stats["row_groups_read"] = \
                    io_stats.get("row_groups_read", 0) + len(rg_keep)
        if not live:
            return None, hi
        use_cols = None
        if columns is not None:
            fschemas = [pf.schema_arrow for pf in pfs]
            metas = {(fs.metadata or {}).get(SCHEMA_META_KEY)
                     for fs in fschemas}
            if len(metas) == 1 and all(
                c in fschemas[0].names for c in columns
            ):
                use_cols = list(columns)
        tbls = [read_data_file(pf, use_cols,
                               rg_keep if i == 0 else None)
                for i, pf in enumerate(pfs)]
        # lazy imports: merge/transforms import this module at load time
        from deltaray.merge import evolve_to
        from deltaray.transforms import lww_reduce

        if schema is None:
            if len(tbls) == 1:
                return tbls[0], hi
            schema = max((TableSchema.from_json(
                (t.schema.metadata or {})[SCHEMA_META_KEY].decode())
                for t in tbls), key=lambda m: m.version_seq)
        tbls = [evolve_to(t, schema) for t in tbls]
        if keep is not None:
            tbls = [keep(t) for t in tbls]
        order = tbls[0].column_names
        merged = tbls[0] if len(tbls) == 1 else lww_reduce(
            pa.concat_tables([t.select(order) for t in tbls],
                             promote_options="none"), schema.keys)
        # evolve_to rebuilds tables WITHOUT the embedded schema metadata —
        # re-stamp it, or a later evolve_to (e.g. merge applying a DDL on
        # top of this state) cannot resolve rename chains and would null
        # the renamed columns
        merged = merged.replace_schema_metadata(
            {SCHEMA_META_KEY: schema.to_json().encode()})
        return merged, hi

    # ------------------------------------------------------------ lineage
    def write_lineage(self, table: str, part: int, record: dict) -> None:
        """Per-partition lineage record (PipelineStateService.java:40-127 /
        replication-state analog): {state, last_seq, file, counts, error?}."""
        path = os.path.join(self.root, "_lineage", table, f"part={part:05d}.json")
        atomic_write_json(path, record)

    def read_lineage(self, table: str, part: int) -> dict | None:
        path = os.path.join(self.root, "_lineage", table, f"part={part:05d}.json")
        if not os.path.exists(path):
            return None
        with open(path) as f:
            return json.load(f)

    # -------------------------------------------------- table error state
    # FAILING-state persistence (PipelineStateService.java:40-127,
    # DeltaContext.setTableError:128-152): a chunk that fails to apply
    # records {FAILING, error} for each affected table BEFORE the retry
    # loop spins, so an operator watching lineage_report sees which table
    # is sick mid-retry; a successful apply flips it back.

    def _table_state_path(self, table: str) -> str:
        return os.path.join(self.root, "_lineage", table, "_state.json")

    def set_table_error(self, table: str, error: str,
                        chunk: tuple[int, int]) -> None:
        atomic_write_json(self._table_state_path(table), {
            "state": "FAILING",
            "error": error,
            "chunk": [int(chunk[0]), int(chunk[1])],
            "ts": time.time(),
        })

    def clear_table_error(self, table: str) -> None:
        path = self._table_state_path(table)
        if os.path.exists(path):
            os.remove(path)

    def read_table_error(self, table: str) -> dict | None:
        path = self._table_state_path(table)
        if not os.path.exists(path):
            return None
        with open(path) as f:
            return json.load(f)

    # ------------------------------------------------------------ metrics
    def write_metrics(self, metrics: dict) -> None:
        atomic_write_json(os.path.join(self.root, "_metrics", "metrics.json"), metrics)

    def read_metrics(self) -> dict | None:
        path = os.path.join(self.root, "_metrics", "metrics.json")
        if not os.path.exists(path):
            return None
        with open(path) as f:
            return json.load(f)

    # ------------------------------------------------------------- vacuum
    def vacuum(self, table: str, part: int) -> list[str]:
        """Delete superseded copy-on-write data files for one partition.

        Safe rule: keep every file the current state is made of (the
        last base commit + subsequent deltas — ``live_commits``); older
        files are only ever read as the base of a chunk that is not yet
        committed for this partition, and once a newer commit exists for
        the partition that chunk IS committed here, so they are
        unreachable.
        """
        live = self.live_commits(table, part)
        if not live and self.latest_commit(table, part) is None:
            return []
        keep = {c["file"] for c in live}
        pdir = self.part_dir(table, part)
        removed = []
        for f in sorted(os.listdir(pdir)):
            if f.startswith("data-") and f.endswith(".parquet") and f not in keep:
                os.remove(os.path.join(pdir, f))
                removed.append(f)
        return removed


# ------------------------------------------------------- generation scans
def list_generations(lake: str) -> list[int]:
    """All generations present under a lake root (ascending) — the
    max-generation / instance scan surface (DeltaWorker.java:140-150
    getGeneration; A4 in SURVEY §2)."""
    if not os.path.isdir(lake):
        return []
    out = []
    for d in os.listdir(lake):
        if d.startswith("gen=") and os.path.isdir(os.path.join(lake, d)):
            try:
                out.append(int(d.split("=", 1)[1]))
            except ValueError:
                continue
    return sorted(out)


def latest_generation(lake: str) -> int | None:
    """Highest generation in the lake, None for an empty/absent lake."""
    gens = list_generations(lake)
    return gens[-1] if gens else None
