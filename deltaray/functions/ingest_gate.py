"""Incremental ingest-time deduplication gates.

At 100 TB dedup cannot be a whole-corpus batch job re-run for every
arriving batch: the corpus-side state must PERSIST.  These gates keep a
hash-partitioned fingerprint / signature index on the lake filesystem
(write-once epoch files per partition — the same idempotency contract as
the engine's commit log, deltaray/commit.py) and admit each streamed
micro-batch ("epoch") against it:

- :class:`ExactIngestGate` — content-fingerprint index.  A new document
  is admitted iff its fingerprint was never admitted before (min-id per
  fingerprint within the epoch).  Index rows are (fp, doc_id): 16 bytes
  per admitted document, hash-partitioned by fp.
- :class:`MinHashIngestGate` — near-duplicate gate.  Persists a MinHash
  band-bucket index (band, band_hash, doc_id) plus a signature index
  (doc_id, sig); an epoch is (1) banded against the index, colliding
  docs verified by signature-estimated Jaccard and rejected on a match,
  (2) near-dup-deduped among its own survivors (same semantics as
  :func:`deltaray.functions.dedup.minhash_dedup_docs`: connected
  components of verified pairs, keep the min id), and (3) the admitted
  docs' band rows and signatures are appended write-once.

Gate semantics (greedy-temporal, standard for streaming dedup): a
document is REJECTED iff it duplicates a previously ADMITTED document
(or an admitted epoch-mate).  Rejected documents are NOT indexed, so a
later document that matches only a rejected one is admitted — the
admitted set is exactly the representative set.

Scale shape: per-epoch working state (candidate pairs, reject sets) is
bounded by the MICRO-BATCH size, so driver-side sets here are O(epoch),
never O(corpus).  The corpus-scale state is the index, which lives
hash-partitioned on disk; each epoch touches every index partition once
with a column-pruned parquet read (fp / bucket keys only on the
membership side).  Index partitions COMPACT: once a partition's live
file count exceeds ``compact_threshold``, its epoch files merge into a
single run sorted on the probe column (write-once, replay-idempotent),
so the per-admit file count stays O(threshold) at any epoch count, and
membership reads of the run are zone-map-pruned to the row groups whose
min-max intersects the probe values — O(epoch x row_group) bytes
instead of O(index) once the index outgrows the micro-batch.  Replaying an epoch is idempotent: membership is
always evaluated against index epochs STRICTLY BELOW the one being
admitted and the epoch files are write-once, so a retried `admit` of
the same (epoch, data) recomputes byte-identical output and skips the
writes.  (Reference analog: the exactly-once consumer contract,
EventConsumer.java:39-76 — dedup as an ingest gate instead of a batch
job is this repo's extension for training-data pipelines.)
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from deltaray.commit import atomic_write_json, atomic_write_parquet
from deltaray.functions.dedup import (MinHasher, _sig_binary, _sig_matrix,
                                      _union_find_drops)
from deltaray.functions.partition import (_hash_cols, group_codes,
                                          hash_partitioned,
                                          take_first_per_key)
from deltaray.transforms import stable_hash_strings


def _epoch6(e: int) -> str:
    return f"{int(e):06d}"


# Membership-read instrumentation (process-local; the compaction soak in
# tests/test_ingest_gate.py asserts bounded file counts and sub-linear
# read volume from these counters).  Updated inside the partition tasks,
# so meaningful only when the gate runs in the driver process or the
# counters are read back per-task — the soak test drives the helpers
# directly.
READ_STATS = {"files": 0, "rows": 0, "row_groups_read": 0,
              "row_groups_total": 0}


def reset_read_stats() -> None:
    for k in READ_STATS:
        READ_STATS[k] = 0


def _pin_meta(index_root: str, meta: dict) -> None:
    """Persist the index's layout/hash parameters on first use and
    fail fast when it is reopened with different ones — a partitioning
    or coefficient change silently mis-routes every membership probe
    (same contract as the engine's generation `_meta.json`,
    ``deltaray.pipeline._check_generation_meta(lake, cfg)``)."""
    mpath = os.path.join(index_root, "_meta.json")
    if os.path.exists(mpath):
        with open(mpath) as f:
            have = json.load(f)
        if have != meta:
            diffs = {k: (have.get(k), meta.get(k))
                     for k in set(have) | set(meta)
                     if have.get(k) != meta.get(k)}
            raise ValueError(
                f"ingest-gate index at {index_root!r} was built with "
                f"different parameters (stored vs requested): {diffs}")
        return
    os.makedirs(index_root, exist_ok=True)
    atomic_write_json(mpath, meta)


def _marker_path(index_dir: str, part: int, epoch: int) -> str:
    return os.path.join(index_dir, "_commits", f"part={part:05d}",
                        f"epoch-{_epoch6(epoch)}.json")


def _run_marker_path(index_dir: str, part: int, hi_epoch: int) -> str:
    return os.path.join(index_dir, "_commits", f"part={part:05d}",
                        f"run-{_epoch6(hi_epoch)}.json")


def _live_state(index_dir: str, part: int,
                before_epoch: int) -> tuple[tuple[str, int] | None, list[str]]:
    """One partition's live index files for a membership probe of epochs
    strictly below ``before_epoch``: the newest compacted run (as
    ``(path, hi_epoch)`` — it covers every epoch <= hi_epoch and every
    older run, so older runs left behind by an interrupted compaction
    are ignored; their rows are duplicated in the newest run and set
    membership is insensitive to duplicates) plus the uncompacted epoch
    files above it.  A data file without its write-once commit marker is
    an aborted write and is skipped."""
    pdir = os.path.join(index_dir, f"part={part:05d}")
    cdir = os.path.join(index_dir, "_commits", f"part={part:05d}")
    if not os.path.isdir(pdir):
        return None, []
    names = set(os.listdir(pdir))
    run: tuple[str, int] | None = None
    if os.path.isdir(cdir):
        for f in os.listdir(cdir):
            if f.startswith("run-") and f.endswith(".json"):
                hi = int(f[len("run-"):-len(".json")])
                data = f"run-{_epoch6(hi)}.parquet"
                if data in names and (run is None or hi > run[1]):
                    run = (os.path.join(pdir, data), hi)
    covered = run[1] if run is not None else -1
    epochs = []
    for f in sorted(names):
        if not (f.startswith("epoch-") and f.endswith(".parquet")):
            continue
        e = int(f[len("epoch-"):-len(".parquet")])
        if covered < e < before_epoch and os.path.exists(
                _marker_path(index_dir, part, e)):
            epochs.append(os.path.join(pdir, f))
    return run, epochs


def _read_index(index_dir: str, part: int, before_epoch: int,
                columns: list[str], *, probe_col: str | None = None,
                probe: np.ndarray | None = None) -> pa.Table | None:
    """All index rows of ``part`` from epochs < ``before_epoch``,
    column-pruned.  The compacted run is sorted on its probe column, so
    its read is pruned to the row groups whose min-max zone intersects
    the probe values — at a large index / small epoch ratio the
    membership read volume is bounded by O(epoch x row_group) instead
    of O(index)."""
    run, epochs = _live_state(index_dir, part, before_epoch)
    tables = [pq.read_table(f, columns=columns) for f in epochs]
    if run is not None:
        path, hi = run
        pf = pq.ParquetFile(path)
        # hi >= before_epoch only on a replayed admit whose original
        # attempt already compacted: the run then contains the replayed
        # epoch's own rows, which must not gate it against itself
        need_filter = hi >= before_epoch
        cols = list(columns)
        if need_filter and "epoch" not in cols:
            cols.append("epoch")
        ngroups = pf.metadata.num_row_groups
        groups = list(range(ngroups))
        if probe is not None and probe_col is not None and len(probe):
            ci = [c.name for c in pf.schema_arrow].index(probe_col)
            pv = np.sort(np.asarray(probe))
            sel = []
            for i in range(ngroups):
                st = pf.metadata.row_group(i).column(ci).statistics
                if st is None or st.min is None or st.max is None:
                    sel.append(i)
                    continue
                j = int(np.searchsorted(pv, st.min))
                if j < len(pv) and pv[j] <= st.max:
                    sel.append(i)
            groups = sel
        READ_STATS["row_groups_total"] += ngroups
        READ_STATS["row_groups_read"] += len(groups)
        if groups:
            t = pf.read_row_groups(groups, columns=cols)
            if need_filter:
                t = t.filter(pc.less(t["epoch"], before_epoch))
            tables.append(t.select(columns))
    if not tables:
        return None
    READ_STATS["files"] += len(epochs) + (1 if run is not None else 0)
    READ_STATS["rows"] += sum(t.num_rows for t in tables)
    return pa.concat_tables(tables, promote_options="default")


def _maybe_compact(index_dir: str, part: int, epoch: int, *,
                   sort_cols: list[str], threshold: int,
                   row_group_size: int,
                   cast_cols: dict | None = None) -> bool:
    """Merge one partition's epoch files (plus the previous run) into a
    single run sorted on the probe column once the live file count
    exceeds ``threshold`` — the lake's ``compact_every`` idempotent-
    rewrite pattern applied to the gate index, bounding the per-admit
    file count at O(threshold) regardless of epoch count.  The run keeps
    the ``epoch`` column so a replayed admit can exclude its own rows.
    Covered data files are deleted best-effort AFTER the run commits; a
    crash in between leaves duplicates, which membership tolerates and
    the next compaction clears."""
    run, epochs = _live_state(index_dir, part, epoch + 1)
    if not epochs or len(epochs) + (1 if run is not None else 0) <= threshold:
        return False
    mpath = _run_marker_path(index_dir, part, epoch)
    if os.path.exists(mpath):  # replayed admit — compaction already done
        return False
    def norm(t: pa.Table) -> pa.Table:
        # cast_cols normalizes columns whose stored type varied across
        # engine versions (the exact gate's provenance doc_id: int64 in
        # pre-round-5 indexes, the corpus's own type briefly after, now
        # string) so ANY legacy mix concatenates; string is total over
        # all of them
        for c, typ in (cast_cols or {}).items():
            if c in t.column_names:
                t = t.set_column(t.column_names.index(c), c,
                                 t[c].cast(typ))
        return t

    parts = []
    if run is not None:
        parts.append(norm(pq.read_table(run[0])))
    for f in epochs:
        e = int(os.path.basename(f)[len("epoch-"):-len(".parquet")])
        t = norm(pq.read_table(f))
        parts.append(t.append_column(
            "epoch", pa.array(np.full(t.num_rows, e, np.int64))))
    # "permissive": widen compatible numerics instead of raising (sig /
    # band indexes always persist int64 ids, so this is belt-and-braces
    # for them; the exact gate additionally normalizes via cast_cols)
    merged = pa.concat_tables(parts, promote_options="permissive") \
        .sort_by([(c, "ascending") for c in sort_cols])
    dpath = os.path.join(index_dir, f"part={part:05d}",
                         f"run-{_epoch6(epoch)}.parquet")
    atomic_write_parquet(dpath, merged, row_group_size=row_group_size)
    atomic_write_json(mpath, {"part": int(part), "hi_epoch": int(epoch),
                              "rows": int(merged.num_rows),
                              "covered_files": len(parts)})
    for f in epochs:
        try:
            os.remove(f)
        except OSError:
            pass
    if run is not None:
        for f in (run[0], _run_marker_path(index_dir, part, run[1])):
            try:
                os.remove(f)
            except OSError:
                pass
    return True


def _persist_partition(index_dir: str, part: int, epoch: int,
                       tbl: pa.Table) -> bool:
    """Write one partition's epoch rows write-once.  Returns False when
    the commit marker already exists (replayed epoch — no double write).
    Zero-row tables write a marker only, so a replay can distinguish
    "this partition was empty" from "never ran"."""
    mpath = _marker_path(index_dir, part, epoch)
    if os.path.exists(mpath):
        return False
    if tbl.num_rows:
        dpath = os.path.join(index_dir, f"part={part:05d}",
                             f"epoch-{_epoch6(epoch)}.parquet")
        atomic_write_parquet(dpath, tbl)
    atomic_write_json(mpath, {"part": int(part), "epoch": int(epoch),
                              "rows": int(tbl.num_rows)})
    return True


def _part_of(block: pa.Table, key_cols: list[str], P: int) -> int:
    """The hash partition this block belongs to.  Valid because every
    row of a ``hash_partitioned`` block hashes to the same partition."""
    return int(_hash_cols(block.slice(0, 1), key_cols)[0] % np.uint64(P))


class ExactIngestGate:
    """Persisted exact-dedup gate over a text column.

    One hash exchange per epoch; each partition task gates its slice of
    the fingerprint space against the partition's index files (fp column
    only) and appends the admitted (fp, id) rows write-once.  Document
    text never leaves the fingerprint map stage.
    """

    def __init__(self, index_root: str, *, text_col: str = "text",
                 id_col: str = "doc_id", num_partitions: int = 32,
                 compact_threshold: int = 8,
                 run_row_group_size: int = 32768):
        self.index_dir = os.path.join(index_root, "fp")
        self.text_col = text_col
        self.id_col = id_col
        self.P = num_partitions
        # layout knobs, not semantics: safe to vary per reopen, so NOT
        # pinned in _meta.json
        self.compact_threshold = compact_threshold
        self.run_row_group_size = run_row_group_size
        _pin_meta(index_root, {"kind": "exact", "text_col": text_col,
                               "id_col": id_col,
                               "num_partitions": int(num_partitions)})
        os.makedirs(self.index_dir, exist_ok=True)

    def admit(self, ds, epoch: int, *, stats_out: dict | None = None):
        """Gate one epoch; returns the admitted rows as a Dataset
        (original columns).  ``epoch`` must be strictly increasing
        across calls for one index; replaying an epoch already admitted
        returns the same rows and writes nothing."""
        text_col, id_col = self.text_col, self.id_col
        index_dir, P = self.index_dir, self.P
        threshold, rg_size = self.compact_threshold, self.run_row_group_size

        def fp_tag(batch: pa.Table) -> pa.Table:
            h = stable_hash_strings(batch[text_col]).astype(np.int64)
            batch = batch.append_column("__fp", pa.array(h))
            # combiner: min id per fingerprint within the batch
            srt = batch.sort_by(id_col)
            codes = group_codes(srt, ["__fp"])
            first = np.unique(codes, return_index=True)[1]
            return srt.take(pa.array(np.sort(first)))

        tagged = ds.map_batches(fp_tag, batch_format="pyarrow")

        def gate_block(block: pa.Table) -> pa.Table:
            if block.num_rows == 0:
                return block.drop_columns(["__fp"])
            part = _part_of(block, ["__fp"], P)
            # min id per fp across the whole partition
            g = block.sort_by(id_col)
            codes = group_codes(g, ["__fp"])
            first = np.unique(codes, return_index=True)[1]
            g = g.take(pa.array(np.sort(first)))
            # membership vs strictly-earlier epochs: fp column only, the
            # compacted run zone-map-pruned to the probe fps
            old = _read_index(index_dir, part, epoch, ["fp"],
                              probe_col="fp",
                              probe=g["__fp"].to_numpy())
            if old is not None:
                keep = pc.invert(
                    pc.is_in(g["__fp"], value_set=old["fp"].combine_chunks()))
                g = g.filter(keep)
            # id stored AS STRING (provenance only — membership is
            # fp-only): string is total over every corpus id type, so
            # string-keyed corpora gate without a lossy int cast
            # (round-5 probe caught the old hardcoded int64 cast
            # crashing on them) AND every epoch of an index holds ONE
            # id type regardless of corpus — compaction's concat can
            # never hit an un-unifiable mix (review finding)
            _persist_partition(
                index_dir, part, epoch,
                pa.table({"fp": g["__fp"],
                          "doc_id": g[id_col].cast(pa.string())}))
            _maybe_compact(index_dir, part, epoch, sort_cols=["fp"],
                           threshold=threshold, row_group_size=rg_size,
                           cast_cols={"doc_id": pa.string()})
            return g.drop_columns(["__fp"])

        out = hash_partitioned(tagged, ["__fp"], gate_block,
                               num_partitions=P)
        # BLOCK until every partition's index write lands: the gate's
        # persistence is a side effect of the merge tasks, and a later
        # epoch's membership probe has no Ray dependency edge on them —
        # returning an unconsumed Dataset would let epoch E+1 race
        # epoch E's writes and admit the same text twice.  count() on
        # the materialized result is metadata-cheap afterwards.
        out = out.materialize()
        if stats_out is not None:
            stats_out["admitted"] = out.count()
        return out


class MinHashIngestGate:
    """Persisted MinHash near-duplicate gate.

    Index state per admitted document: ``bands`` band-bucket rows
    (band, band_hash, doc_id — hash-partitioned by bucket) plus one
    signature row (doc_id, sig fixed_size_binary — hash-partitioned by
    id).  Epoch flow:

    1. signatures once per doc (task-pool map, coefficients driver-built);
    2. band rows exchanged to the bucket partitioning; each partition
       task reads its persisted bucket rows (epochs < E) and emits
       (new_id, other_id, other_is_old) candidates — new-vs-index via an
       Arrow hash join on (band, band_hash), new-vs-new via within-bucket
       pairing (multi-band copies deduped later);
    3. candidates are verified by signature-estimated Jaccard: one
       exchange by ``other_id`` attaches the other side's signature (old
       ids from the sig index partition, new ids from the epoch's own sig
       rows riding the same exchange), one exchange by ``new_id``
       attaches the new side and thresholds;
    4. verified matches (O(epoch) rows) come to the driver: ids matching
       the INDEX are rejected; pairs among the remaining epoch docs are
       clustered (union-find) and each component keeps its min id;
    5. the admitted docs' band rows and signatures are appended
       write-once to their index partitions.
    """

    def __init__(self, index_root: str, *, num_hashes: int = 64,
                 bands: int = 16, shingle_k: int = 5,
                 jaccard_threshold: float = 0.5, seed: int = 42,
                 text_col: str = "text", id_col: str = "doc_id",
                 num_partitions: int = 32, max_bucket: int = 512,
                 compact_threshold: int = 8,
                 run_row_group_size: int = 32768):
        assert num_hashes % bands == 0
        # layout knobs, not semantics — not pinned in _meta.json
        self.compact_threshold = compact_threshold
        self.run_row_group_size = run_row_group_size
        # within-epoch buckets larger than max_bucket emit a STAR
        # (min-id vs others) instead of all O(m²) pairs — identical-
        # signature floods (the degenerate case) verify exactly under
        # the star; distinct-but-mutually-similar members connect via
        # the min unless only non-min pairs match (the simhash_pairs
        # star-collapse approximation, here bounding both task memory
        # and the driver's O(epoch) edge list)
        self.max_bucket = max_bucket
        self.bands_dir = os.path.join(index_root, "bands")
        self.sigs_dir = os.path.join(index_root, "sigs")
        self.hasher = MinHasher(num_hashes=num_hashes, seed=seed,
                                shingle_k=shingle_k)
        self.num_hashes = num_hashes
        self.bands = bands
        self.threshold = jaccard_threshold
        self.text_col = text_col
        self.id_col = id_col
        self.P = num_partitions
        _pin_meta(index_root, {
            "kind": "minhash", "num_hashes": int(num_hashes),
            "bands": int(bands), "shingle_k": int(shingle_k),
            "jaccard_threshold": float(jaccard_threshold),
            "seed": int(seed), "text_col": text_col, "id_col": id_col,
            "num_partitions": int(num_partitions)})
        os.makedirs(self.bands_dir, exist_ok=True)
        os.makedirs(self.sigs_dir, exist_ok=True)

    # ------------------------------------------------------------ helpers
    def _band_hashes(self, sigs: np.ndarray) -> np.ndarray:
        """(n, num_hashes) → (bands, n) int64 FNV of each band segment
        (identical kernel to dedup.minhash_lsh_pairs.band_explode)."""
        n = sigs.shape[0]
        rows_per_band = self.num_hashes // self.bands
        prime = np.uint64(0x100000001B3)
        out = np.empty((self.bands, n), dtype=np.int64)
        for b in range(self.bands):
            seg = sigs[:, b * rows_per_band:(b + 1) * rows_per_band]
            h = np.full(n, np.uint64(0xCBF29CE484222325))
            for j in range(rows_per_band):
                h = (h ^ seg[:, j]) * prime
            out[b] = h.astype(np.int64)
        return out

    # --------------------------------------------------------------- admit
    def admit(self, ds, epoch: int, *, stats_out: dict | None = None):
        hasher = self.hasher
        num_hashes, bands = self.num_hashes, self.bands
        text_col, id_col = self.text_col, self.id_col
        band_hashes = self._band_hashes

        def sig_map(batch: pa.Table) -> pa.Table:
            sigs = hasher.signatures_from_arrow(batch[text_col])
            ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({id_col: pa.array(ids), "sig": _sig_binary(sigs)})

        def band_rows(block: pa.Table) -> pa.Table:
            sigs = _sig_matrix(block["sig"], num_hashes)
            n = len(block)
            ids = block[id_col].to_numpy(zero_copy_only=False)
            bh = band_hashes(sigs)
            return pa.table({
                "band": pa.array(np.repeat(
                    np.arange(bands, dtype=np.int32), n)),
                "band_hash": pa.array(bh.reshape(-1)),
                id_col: pa.array(np.tile(ids, bands)),
            })

        def estimate(sig_new, sig_other) -> np.ndarray:
            A = _sig_matrix(sig_new, num_hashes)
            B = _sig_matrix(sig_other, num_hashes)
            return (A == B).mean(axis=1)

        return _neardup_admit(
            self, ds, epoch, sig_map=sig_map, band_rows_fn=band_rows,
            estimate_fn=estimate, sig_type=pa.binary(8 * num_hashes),
            stats_out=stats_out)


def _neardup_admit(gate, ds, epoch: int, *, sig_map, band_rows_fn,
                   estimate_fn, sig_type, stats_out: dict | None = None):
    """The shared near-duplicate gate exchange (stages 2-5 of the
    MinHash gate's docstring), parametrized by the signature kernel:
    ``sig_map(batch) -> (id, sig)``, ``band_rows_fn(sig_block) ->
    (band, band_hash, id)`` bucket rows, and ``estimate_fn(sig_new,
    sig_other) -> similarity`` thresholded against ``gate.threshold``.
    MinHashIngestGate and EmbeddingIngestGate differ ONLY in those
    three kernels and their index metadata."""
    import ray

    id_col, P = gate.id_col, gate.P
    bands_dir, sigs_dir = gate.bands_dir, gate.sigs_dir
    threshold, max_bucket = gate.threshold, gate.max_bucket
    compact_thr, rg_size = gate.compact_threshold, gate.run_row_group_size
    band_rows = band_rows_fn
    sig_t = sig_type

    # signatures cross the object store once; consumed by the band
    # stage, both attach stages, and the final persist.  Near-dup gate
    # ids are CONTRACTUALLY integers: they ride two __key exchanges and
    # the driver reject set as int64, and silently casting digit
    # strings would collide them with real ints — fail fast with
    # guidance instead (the EXACT gate accepts any id type; for
    # near-dup gating of string-keyed corpora attach a dense int id
    # upstream — a content hash is NOT safe as identity at 10^10 docs).
    def sig_map_checked(batch: pa.Table) -> pa.Table:
        if not pa.types.is_integer(batch.schema.field(id_col).type):
            raise TypeError(
                f"near-duplicate ingest gates require an integer "
                f"'{id_col}' column (got "
                f"{batch.schema.field(id_col).type}); attach a dense "
                f"int64 id upstream — ExactIngestGate accepts any id "
                f"type")
        return sig_map(batch)

    sig_ds = ds.map_batches(sig_map_checked,
                            batch_format="pyarrow").materialize()

    # -- stage 2: band rows → bucket partitions → candidates
    rows = sig_ds.map_batches(band_rows, batch_format="pyarrow")

    def cand_block(block: pa.Table) -> pa.Table:
        empty = pa.table({"new_id": pa.array([], pa.int64()),
                          "other_id": pa.array([], pa.int64()),
                          "other_is_old": pa.array([], pa.bool_())})
        if block.num_rows == 0:
            return empty
        part = _part_of(block, ["band", "band_hash"], P)
        outs = []
        old = _read_index(bands_dir, part, epoch,
                          ["band", "band_hash", "doc_id"],
                          probe_col="band_hash",
                          probe=block["band_hash"].to_numpy())
        if old is not None:
            hit = block.join(old, keys=["band", "band_hash"],
                             join_type="inner",
                             right_suffix="_old")
            old_col = ("doc_id_old" if "doc_id_old" in hit.column_names
                       else "doc_id")
            if hit.num_rows:
                outs.append(pa.table({
                    "new_id": hit[id_col].cast(pa.int64()),
                    "other_id": hit[old_col].cast(pa.int64()),
                    "other_is_old": pa.array(
                        np.ones(hit.num_rows, dtype=bool)),
                }))
        # new-vs-new within buckets
        g = block.sort_by([("band", "ascending"),
                           ("band_hash", "ascending"),
                           (id_col, "ascending")])
        codes = group_codes(g, ["band", "band_hash"])
        ids = g[id_col].to_numpy(zero_copy_only=False)
        first = np.unique(codes, return_index=True)[1]
        ends = np.append(first[1:], len(codes))
        sizes = ends - first
        pa_, pb_ = [], []
        for s, e in zip(first[sizes > 1], ends[sizes > 1]):
            if e - s > max_bucket:
                # degenerate bucket: star on the min id (ids are
                # sorted within the bucket), O(m) not O(m²)
                pa_.append(np.full(e - s - 1, ids[s]))
                pb_.append(ids[s + 1:e])
                continue
            ia, ib = np.triu_indices(e - s, k=1)
            pa_.append(ids[s + ia])
            pb_.append(ids[s + ib])
        if pa_:
            a = np.concatenate(pa_).astype(np.int64)
            b = np.concatenate(pb_).astype(np.int64)
            outs.append(pa.table({
                "new_id": pa.array(a), "other_id": pa.array(b),
                "other_is_old": pa.array(np.zeros(len(a), dtype=bool)),
            }))
        if not outs:
            return empty
        return pa.concat_tables(outs)

    cand = hash_partitioned(rows, ["band", "band_hash"], cand_block,
                            num_partitions=P)

    # -- stage 3: attach signatures.  Epoch sig rows ride the same
    # exchange as the pairs (union + marker column), old sigs are a
    # pruned read of the partition's index files (sig_t: the gate's
    # fixed-width signature type).

    def _pairs_with(batch: pa.Table, key: str) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "__key": batch[key].cast(pa.int64()),
            "new_id": batch["new_id"],
            "other_id": batch["other_id"],
            "other_is_old": batch["other_is_old"],
            "sig_other": (batch["sig_other"] if "sig_other" in
                          batch.column_names else pa.nulls(n, sig_t)),
            "sig": pa.nulls(n, sig_t),
            "__is_sig": pa.array(np.zeros(n, dtype=bool)),
        })

    def _sigs_as_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "__key": batch[id_col].cast(pa.int64()),
            "new_id": pa.nulls(n, pa.int64()),
            "other_id": pa.nulls(n, pa.int64()),
            "other_is_old": pa.nulls(n, pa.bool_()),
            "sig_other": pa.nulls(n, sig_t),
            "sig": batch["sig"].cast(sig_t),
            "__is_sig": pa.array(np.ones(n, dtype=bool)),
        })

    def _lookup(pairs_t: pa.Table, sig_rows: pa.Table, part: int,
                with_old: bool) -> pa.Array:
        """sig of pairs_t['__key'] from epoch sig rows (+ old index)."""
        tables = [pa.table({"id": sig_rows["__key"],
                            "s": sig_rows["sig"]})]
        if with_old:
            t = _read_index(
                sigs_dir, part, epoch, ["doc_id", "sig"],
                probe_col="doc_id",
                probe=pairs_t["__key"].to_numpy())
            if t is not None:
                tables.append(pa.table({"id": t["doc_id"],
                                        "s": t["sig"].cast(sig_t)}))
        lut = pa.concat_tables(tables)
        idx = pc.index_in(pairs_t["__key"], value_set=lut["id"].combine_chunks())
        return lut["s"].combine_chunks().take(idx)

    def attach_other(block: pa.Table) -> pa.Table:
        is_sig = pc.fill_null(block["__is_sig"], False)
        sig_rows = block.filter(is_sig)
        pairs_t = block.filter(pc.invert(is_sig))
        if pairs_t.num_rows == 0:
            return _pairs_with(
                pa.table({"new_id": pa.array([], pa.int64()),
                          "other_id": pa.array([], pa.int64()),
                          "other_is_old": pa.array([], pa.bool_()),
                          "sig_other": pa.array([], sig_t)}),
                "new_id")
        part = _part_of(block, ["__key"], P)
        # multi-band copies of one (new, other) pair collapse here
        pairs_t = take_first_per_key(pairs_t, ["new_id", "other_id"])
        sig_other = _lookup(pairs_t, sig_rows, part, with_old=True)
        pairs_t = pairs_t.drop_columns(["sig_other"]).append_column(
            "sig_other", sig_other)
        return _pairs_with(pairs_t, "new_id")

    def verify_block(block: pa.Table) -> pa.Table:
        is_sig = pc.fill_null(block["__is_sig"], False)
        sig_rows = block.filter(is_sig)
        pairs_t = block.filter(pc.invert(is_sig))
        empty = pa.table({"new_id": pa.array([], pa.int64()),
                          "other_id": pa.array([], pa.int64()),
                          "other_is_old": pa.array([], pa.bool_()),
                          "sim_est": pa.array([], pa.float64())})
        if pairs_t.num_rows == 0:
            return empty
        part = _part_of(block, ["__key"], P)
        # (new_id, other_id) was already deduped in attach_other;
        # the re-key by new_id cannot reintroduce duplicates
        sig_new = _lookup(pairs_t, sig_rows, part, with_old=False)
        est = estimate_fn(sig_new, pairs_t["sig_other"].combine_chunks())
        keep = est >= threshold
        sel = pa.array(keep)
        return pa.table({
            "new_id": pairs_t["new_id"].combine_chunks().filter(sel),
            "other_id": pairs_t["other_id"].combine_chunks().filter(sel),
            "other_is_old": pairs_t["other_is_old"].combine_chunks().filter(sel),
            "sim_est": pa.array(est[keep].astype(np.float64)),
        })

    leg1 = cand.map_batches(
        lambda b: _pairs_with(b, "other_id"), batch_format="pyarrow") \
        .union(sig_ds.map_batches(_sigs_as_rows, batch_format="pyarrow"))
    with_other = hash_partitioned(leg1, ["__key"], attach_other,
                                  num_partitions=P)
    leg2 = with_other.map_batches(
        lambda b: _pairs_with(b, "new_id"), batch_format="pyarrow") \
        .union(sig_ds.map_batches(_sigs_as_rows, batch_format="pyarrow"))
    matches = hash_partitioned(leg2, ["__key"], verify_block,
                               num_partitions=P)

    # -- stage 4: O(epoch)-bounded reject logic on the driver
    rejected: set = set()
    epoch_edges = []
    for t in matches.iter_batches(batch_format="pyarrow"):
        for nid, oid, old in zip(t["new_id"].to_pylist(),
                                 t["other_id"].to_pylist(),
                                 t["other_is_old"].to_pylist()):
            if old:
                rejected.add(nid)
            else:
                epoch_edges.append((nid, oid))
    live_edges = [(a, b) for a, b in epoch_edges
                  if a not in rejected and b not in rejected]
    drop_epoch = _union_find_drops(iter(live_edges))
    all_drop = rejected | drop_epoch
    if stats_out is not None:
        stats_out.update(rejected_vs_index=len(rejected),
                         rejected_within_epoch=len(drop_epoch))

    drop_ref = ray.put(pa.array(sorted(all_drop), pa.int64()))

    def keep(batch: pa.Table) -> pa.Table:
        d = ray.get(drop_ref)
        if len(d) == 0:
            return batch
        return batch.filter(pc.invert(pc.is_in(
            batch[id_col].cast(pa.int64()), value_set=d)))

    admitted = ds.map_batches(keep, batch_format="pyarrow")
    # consumed by BOTH persist exchanges — filter once, not twice
    admitted_sigs = sig_ds.map_batches(
        keep, batch_format="pyarrow").materialize()

    # -- stage 5: persist admitted band rows + signatures write-once
    def persist_bands(block: pa.Table) -> pa.Table:
        if block.num_rows == 0:
            return pa.table({"part": pa.array([], pa.int32()),
                             "rows": pa.array([], pa.int64())})
        part = _part_of(block, ["band", "band_hash"], P)
        _persist_partition(bands_dir, part, epoch, pa.table({
            "band": block["band"], "band_hash": block["band_hash"],
            "doc_id": block[id_col].cast(pa.int64())}))
        _maybe_compact(bands_dir, part, epoch,
                       sort_cols=["band_hash", "band"],
                       threshold=compact_thr, row_group_size=rg_size)
        return pa.table({"part": pa.array([part], pa.int32()),
                         "rows": pa.array([block.num_rows], pa.int64())})

    def persist_sigs(block: pa.Table) -> pa.Table:
        if block.num_rows == 0:
            return pa.table({"part": pa.array([], pa.int32()),
                             "rows": pa.array([], pa.int64())})
        part = _part_of(block, [id_col], P)
        _persist_partition(sigs_dir, part, epoch, pa.table({
            "doc_id": block[id_col].cast(pa.int64()),
            "sig": block["sig"].cast(sig_t)}))
        _maybe_compact(sigs_dir, part, epoch, sort_cols=["doc_id"],
                       threshold=compact_thr, row_group_size=rg_size)
        return pa.table({"part": pa.array([part], pa.int32()),
                         "rows": pa.array([block.num_rows], pa.int64())})

    band_admit = admitted_sigs.map_batches(band_rows,
                                           batch_format="pyarrow")
    n_band = hash_partitioned(band_admit, ["band", "band_hash"],
                              persist_bands, num_partitions=P).count()
    n_sig = hash_partitioned(admitted_sigs, [id_col], persist_sigs,
                             num_partitions=P).count()
    if stats_out is not None:
        stats_out.update(band_parts=n_band, sig_parts=n_sig)
    return admitted


def _f32_binary(mat: np.ndarray) -> pa.Array:
    """(n, dim) float32 → fixed_size_binary(4*dim) column, one buffer
    copy (the embedding analog of dedup._sig_binary)."""
    n, dim = mat.shape
    return pa.Array.from_buffers(
        pa.binary(4 * dim), n,
        [None, pa.py_buffer(np.ascontiguousarray(
            mat, dtype=np.float32).tobytes())])


def _f32_matrix(arr, dim: int) -> np.ndarray:
    """Zero-copy fixed_size_binary(4*dim) column → (n, dim) float32
    matrix (honors array offset after take/slice)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.empty((0, dim), dtype=np.float32)
    buf = np.frombuffer(arr.buffers()[1], dtype=np.float32)
    start = arr.offset * dim
    return buf[start:start + n * dim].reshape(n, dim)


class EmbeddingIngestGate:
    """Persisted embedding near-duplicate gate — the third member of the
    gate family (exact fp / MinHash text / embedding cosine), sharing
    the entire exchange with :class:`MinHashIngestGate` via
    :func:`_neardup_admit`; only the signature kernels differ.

    Buckets are random-hyperplane LSH tables (Charikar 2002 cosine LSH,
    public): per table, the sign pattern of ``n_planes`` projections of
    the L2-normalized vector packs into one int64 bucket hash —
    ``band_rows`` = (table, bucket, id), hash-partitioned like MinHash
    band rows.  Candidates verify by EXACT cosine (dot product of the
    stored normalized vectors), so admitted/rejected decisions are
    exact given a bucket collision; recall is the standard LSH recall
    of (n_tables, n_planes) — a near-dup pair is missed only if it
    disagrees on ≥1 plane of EVERY table (probability
    ``(1 - (1-θ/π)^n_planes)^n_tables`` for angle θ).

    Index state per admitted vector: ``n_tables`` bucket rows plus one
    normalized-vector row (doc_id, sig: fixed 4·dim-byte float32) —
    both compacting, zone-map-pruned like every gate index.
    """

    def __init__(self, index_root: str, *, dim: int, n_tables: int = 8,
                 n_planes: int = 12, cosine_threshold: float = 0.95,
                 seed: int = 42, emb_col: str = "embedding",
                 id_col: str = "vec_id", num_partitions: int = 32,
                 max_bucket: int = 512, compact_threshold: int = 8,
                 run_row_group_size: int = 32768):
        self.dim = int(dim)
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal(
            (n_tables, n_planes, dim)).astype(np.float32)
        self.n_tables = int(n_tables)
        self.n_planes = int(n_planes)
        self.threshold = float(cosine_threshold)
        self.emb_col = emb_col
        self.id_col = id_col
        self.P = num_partitions
        self.max_bucket = max_bucket
        self.compact_threshold = compact_threshold
        self.run_row_group_size = run_row_group_size
        self.bands_dir = os.path.join(index_root, "bands")
        self.sigs_dir = os.path.join(index_root, "sigs")
        _pin_meta(index_root, {
            "kind": "embedding", "dim": int(dim),
            "n_tables": int(n_tables), "n_planes": int(n_planes),
            "cosine_threshold": float(cosine_threshold),
            "seed": int(seed), "emb_col": emb_col, "id_col": id_col,
            "num_partitions": int(num_partitions)})
        os.makedirs(self.bands_dir, exist_ok=True)
        os.makedirs(self.sigs_dir, exist_ok=True)

    def admit(self, ds, epoch: int, *, stats_out: dict | None = None):
        from deltaray.functions.knn import vecs_np

        dim, planes = self.dim, self.planes
        emb_col, id_col = self.emb_col, self.id_col
        n_tables, n_planes = self.n_tables, self.n_planes

        def sig_map(batch: pa.Table) -> pa.Table:
            ids = batch[id_col].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            if batch.num_rows == 0:
                return pa.table({id_col: pa.array(ids),
                                 "sig": pa.array([], pa.binary(4 * dim))})
            V = vecs_np(batch[emb_col], dtype=np.float32)
            if V.shape[1] != dim:
                raise ValueError(f"embedding dim {V.shape[1]} != "
                                 f"index dim {dim}")
            nrm = np.linalg.norm(V, axis=1, keepdims=True)
            nrm[nrm == 0] = 1.0
            return pa.table({id_col: pa.array(ids),
                             "sig": _f32_binary(V / nrm)})

        def band_rows(block: pa.Table) -> pa.Table:
            V = _f32_matrix(block["sig"], dim)
            n = len(block)
            ids = block[id_col].to_numpy(zero_copy_only=False)
            weights = (np.uint64(1) << np.arange(n_planes,
                                                 dtype=np.uint64))
            bh = np.empty((n_tables, n), dtype=np.int64)
            for t in range(n_tables):
                bits = (V @ planes[t].T) > 0
                bh[t] = (bits.astype(np.uint64) @ weights).astype(np.int64)
            return pa.table({
                "band": pa.array(np.repeat(
                    np.arange(n_tables, dtype=np.int32), n)),
                "band_hash": pa.array(bh.reshape(-1)),
                id_col: pa.array(np.tile(ids, n_tables)),
            })

        def estimate(sig_new, sig_other) -> np.ndarray:
            A = _f32_matrix(sig_new, dim)
            B = _f32_matrix(sig_other, dim)
            # vectors are L2-normalized, so the exact cosine is the dot
            return np.einsum("ij,ij->i", A, B).astype(np.float64)

        return _neardup_admit(
            self, ds, epoch, sig_map=sig_map, band_rows_fn=band_rows,
            estimate_fn=estimate, sig_type=pa.binary(4 * dim),
            stats_out=stats_out)
