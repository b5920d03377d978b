"""Partition-wise grouping: the scale-safe alternative to
``groupby(key).map_groups(fn)``.

Ray's ``map_groups`` invokes the UDF once PER DISTINCT KEY — at 10^8
keys that is 10^8 Python calls and block slices, which dominates wall
time long before the actual compute does.  ``hash_partitioned`` instead
buckets the key space into ``num_partitions`` hash partitions (the same
co-location guarantee: every row of a key lands in exactly one call) and
hands the UDF a whole partition block; the UDF groups internally with
vectorized factorize/unique, so call count is O(P), independent of key
cardinality.  This mirrors the engine core's merge-apply design
(deltaray/pipeline.py task exchange → one merge call per partition).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from deltaray.transforms import key_codes, mix64, stable_hash_cols


def _hash_cols(batch: pa.Table, cols: list[str]) -> np.ndarray:
    """Stable uint64 hash of one or more key columns (vectorized) — the
    engine-core kernel (transforms.stable_hash_cols)."""
    return stable_hash_cols(batch, cols)


def group_codes(tbl: pa.Table, cols: list[str]) -> np.ndarray:
    """First-appearance group codes for a (multi-)column key, vectorized —
    the engine-core kernel (transforms.key_codes)."""
    return key_codes(tbl, cols)


def dedup_first_by_key(tbl: pa.Table, key: str) -> pa.Table:
    """Drop rows with duplicate ``key``, keeping the FIRST occurrence in
    table order (broadcast-probe precondition)."""
    col = tbl[key]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    codes = pd.factorize(col.to_numpy(zero_copy_only=False))[0]
    first = np.unique(codes, return_index=True)[1]
    if len(first) == tbl.num_rows:
        return tbl
    return tbl.take(pa.array(np.sort(first)))


def take_first_per_key(tbl: pa.Table, cols: list[str]) -> pa.Table:
    """First row per (multi-)key in key-sorted order, vectorized — the
    block-fn building block for distinct / pair-dedup reductions."""
    g = tbl.sort_by([(c, "ascending") for c in cols])
    codes = group_codes(g, cols)
    first = np.unique(codes, return_index=True)[1]
    if len(first) == g.num_rows:
        return g
    return g.take(pa.array(np.sort(first)))


def hash_partitioned(ds, key_cols: list[str], fn, *, num_partitions: int = 64):
    """Apply ``fn(block: pa.Table) -> pa.Table`` to complete hash
    partitions of the key space.  ``fn`` sees every row of every key that
    hashes into its partition (and nothing else) and must group
    internally — use :func:`group_codes`.  A partition no key hashes into
    still gets one call, on an empty block of the input schema.

    The exchange is the engine core's Ray-task shuffle
    (pipeline._exchange): each upstream block is split once by partition
    (``num_returns=P``), each partition's splits are gathered zero-copy —
    through a bounded fan-in tree of concat tasks past
    ``pipeline._MERGE_FANIN`` blocks — and ``fn`` runs once per partition
    at the root.  No sort of the rows, no Dataset all-to-all.  The result
    is re-wrapped with ``from_arrow_refs`` so downstream Dataset ops keep
    chaining.  Intra-partition row order depends on how the splits were
    grouped — fine for any valid ``fn``, which must already group
    internally and be insensitive to arrival order (LWW reductions,
    sorts, factorize).
    """
    import ray
    import ray.data

    from deltaray.pipeline import _exchange, _merge_shard

    # the __shard tag is computed inside each split task (_tag_split),
    # so no map stage ever sees the zero-row, zero-column blocks Ray
    # Data passes through; block metadata knows their row count, so
    # they are dropped at the source
    block_refs = [br for bundle in ds.iter_internal_ref_bundles()
                  for br, meta in bundle.blocks
                  if meta.num_rows is None or meta.num_rows > 0]
    if not block_refs:
        # all-empty input: one typed empty block of the input schema
        # stands in, so fn still types every partition (``ds.schema()``
        # may run the input once more to learn it — only on this path)
        base = getattr(ds.schema(), "base_schema", None)
        if not isinstance(base, pa.Schema):
            return ds
        block_refs = [ray.put(base.empty_table())]

    def untagged(block: pa.Table) -> pa.Table:
        return fn(block.drop_columns(["__shard"]))

    fn_ref = ray.put(untagged)
    split = ray.remote(num_returns=num_partitions)(_tag_split)
    merge = ray.remote(_merge_shard)
    outs = _exchange([split.remote(b, key_cols, num_partitions)
                      for b in block_refs],
                     num_partitions,
                     lambda p, refs: merge.remote(fn_ref, *refs))
    return ray.data.from_arrow_refs(outs)


def _tag_split(block: pa.Table, key_cols: list[str], P: int):
    """Map side of a keyed exchange: tag ``block`` with
    ``__shard = hash(key_cols) % P``, then split it by shard — the one
    kernel behind ``hash_partitioned`` and the MinHash signature flight
    (``dedup.minhash_lsh_pairs``).  Upstream blocks may be pandas."""
    from ray.data.block import BlockAccessor

    from deltaray.pipeline import _split_block

    block = BlockAccessor.for_block(block).to_arrow()
    shard = (_hash_cols(block, key_cols) % np.uint64(P)).astype(np.int32)
    return _split_block(block.append_column("__shard", pa.array(shard)), P)


_mix64 = mix64  # shared splitmix64 finalizer (transforms.mix64)


def deterministic_shuffle(ds, key_cols: list[str], *, seed: int = 0,
                          num_partitions: int = 64):
    """Seeded, fully deterministic global reshuffle (training epochs):
    every row is ordered by ``mix64(stable_hash(key) ^ seed)`` — a
    different seed gives an independent permutation, the same seed gives
    byte-identical output regardless of input block layout.  One hash
    exchange; within-partition order via one vectorized argsort.  Unlike
    ``Dataset.random_shuffle`` the permutation is reproducible across
    runs and cluster shapes."""

    def tag(batch: pa.Table) -> pa.Table:
        h = _mix64(_hash_cols(batch, key_cols) ^ np.uint64(seed))
        return batch.append_column("__shuf", pa.array(h.astype(np.int64)))

    def order_block(block: pa.Table) -> pa.Table:
        g = block.sort_by("__shuf")
        return g.drop_columns(["__shuf"])

    tagged = ds.map_batches(tag, batch_format="pyarrow")
    return hash_partitioned(tagged, ["__shuf"], order_block,
                            num_partitions=num_partitions)


def stratified_sample(ds, *, strata_col: str, frac,
                      key_cols: list[str], seed: int = 0,
                      default_frac: float = 0.0,
                      num_partitions: int = 64):
    """Exact-size deterministic stratified sample: from each stratum of
    ``strata_col`` take ``ceil(frac_s * n_s)`` rows — the ones with the
    smallest ``mix64(stable_hash(key) ^ seed)`` rank (ties broken by
    key), so the choice is uniform-ish, reproducible across runs and
    cluster shapes, and the per-stratum size is EXACT (unlike Bernoulli
    sampling, whose stratum sizes fluctuate).

    ``frac`` may be a single float or a ``{stratum: frac}`` dict — the
    DOMAIN-REWEIGHTING form of a pretraining mix ("webtext at 0.3,
    books at 1.0, code at 0.7"); strata absent from the dict fall back
    to ``default_frac`` (0.0 = drop).

    Two passes: (1) per-stratum counts via a per-batch partial reduced
    on the driver (#strata is small — sources, languages, shards);
    (2) per-batch combiner keeps each stratum's k_s best-ranked rows,
    then one hash exchange by stratum finalizes — shuffle volume is
    O(batches × Σ k_s), never the full dataset.
    """
    import math
    from fractions import Fraction

    def partial_counts(batch: pa.Table) -> pa.Table:
        agg = pa.table({strata_col: batch[strata_col]}) \
            .group_by([strata_col]).aggregate([([], "count_all")])
        return agg.rename_columns([strata_col, "n"])

    counts: dict = {}
    for b in ds.map_batches(partial_counts, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        for s, n in zip(b[strata_col].to_pylist(), b["n"].to_pylist()):
            counts[s] = counts.get(s, 0) + int(n)
    # ceil under exact DECIMAL semantics (Fraction of the decimal
    # literal), matching SQL ceil(frac * n) — float 0.2*15 rounds UP
    if isinstance(frac, dict):
        fmap = {s: Fraction(str(frac.get(s, default_frac)))
                for s in counts}
    else:
        fmap = {s: Fraction(str(frac)) for s in counts}
    kmap = {s: min(n, math.ceil(fmap[s] * n)) for s, n in counts.items()}

    def tag(batch: pa.Table) -> pa.Table:
        h = _mix64(_hash_cols(batch, key_cols) ^ np.uint64(seed))
        return batch.append_column("__rank", pa.array(h.astype(np.int64)))

    sort_spec = [(strata_col, "ascending"), ("__rank", "ascending"),
                 *[(c, "ascending") for c in key_cols]]

    def select_block(block: pa.Table) -> pa.Table:
        if block.num_rows == 0:
            return block
        g = block.sort_by(sort_spec)
        codes = group_codes(g, [strata_col])
        _, first, n_per = np.unique(codes, return_index=True,
                                    return_counts=True)
        ks = np.array([kmap.get(v, 0) for v in
                       g[strata_col].take(pa.array(first)).to_pylist()],
                      dtype=np.int64)
        take = np.minimum(n_per, ks)
        starts = np.repeat(first, take)
        within = np.arange(take.sum()) - np.repeat(
            np.cumsum(take) - take, take)
        return g.take(pa.array(starts + within))

    tagged = ds.map_batches(tag, batch_format="pyarrow") \
        .map_batches(select_block, batch_format="pyarrow")
    out = hash_partitioned(tagged, [strata_col], select_block,
                           num_partitions=num_partitions)
    return out.drop_columns(["__rank"])


def hash_split(ds, key_cols: list[str], *, frac: float, seed: int = 0,
               label_col: str = "split"):
    """Deterministic train/validation split by key hash: rows whose
    ``mix64(stable_hash(key) ^ seed) / 2^64 < frac`` get label "train",
    the rest "val" — stable across runs/machines and leakage-free (all
    rows of a key land on the same side).  No shuffle; adds a label
    column (filter per side downstream)."""
    cut = np.uint64(int(frac * 2**64)) if frac < 1.0 else np.uint64(2**64 - 1)

    def label(batch: pa.Table) -> pa.Table:
        h = _mix64(_hash_cols(batch, key_cols) ^ np.uint64(seed))
        lab = np.where(h < cut, "train", "val")
        return batch.append_column(label_col, pa.array(lab, pa.string()))

    return ds.map_batches(label, batch_format="pyarrow")
