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


def _split_by_part(block: pa.Table, num_partitions: int):
    """One upstream block → ``num_partitions`` filtered slices (filter is
    type-preserving, so empty slices keep the input schema)."""
    if "__part" not in block.column_names:
        # Ray passes zero-row blocks through without running the tag UDF
        empty = block.slice(0, 0)
        return (tuple(empty for _ in range(num_partitions))
                if num_partitions > 1 else empty)
    part = block["__part"].to_numpy(zero_copy_only=False)
    body = block.drop_columns(["__part"])
    out = []
    for p in range(num_partitions):
        out.append(body.filter(pa.array(part == p)))
    return tuple(out) if num_partitions > 1 else out[0]


def _split_super(block: pa.Table, n_groups: int, span: int):
    """Level-1 split of the two-level exchange: bucket rows by
    SUPER-partition (``__part // span``), keeping ``__part`` for the
    level-2 refinement."""
    if "__part" not in block.column_names:
        empty = block.slice(0, 0)
        return (tuple(empty for _ in range(n_groups))
                if n_groups > 1 else empty)
    sup = block["__part"].to_numpy(zero_copy_only=False) // span
    out = tuple(block.filter(pa.array(sup == g)) for g in range(n_groups))
    return out if n_groups > 1 else out[0]


def _split_refine(lo: int, n_parts: int, *supers: pa.Table):
    """Level-2: concat a bounded group of one super-partition's splits,
    then split into its final partitions ``[lo, lo + n_parts)``."""
    tabs = [s for s in supers if s.num_rows]
    if not tabs:
        with_schema = [s for s in supers if s.num_columns]
        base = with_schema[0] if with_schema else supers[0]
        if "__part" in base.column_names:
            base = base.drop_columns(["__part"])
        empty = base.slice(0, 0)
        return (tuple(empty for _ in range(n_parts))
                if n_parts > 1 else empty)
    t = pa.concat_tables(tabs, promote_options="default")
    part = t["__part"].to_numpy(zero_copy_only=False)
    body = t.drop_columns(["__part"])
    out = tuple(body.filter(pa.array(part == lo + i))
                for i in range(n_parts))
    return out if n_parts > 1 else out[0]


def _concat_splits(*splits: pa.Table) -> pa.Table:
    nonempty = [s for s in splits if s.num_rows]
    if nonempty:
        return pa.concat_tables(nonempty, promote_options="default")
    # all-empty: keep a SCHEMA-FUL empty block alive (Ray canonicalizes
    # empty blocks to zero columns; skip those)
    with_schema = [s for s in splits if s.num_columns]
    return with_schema[0] if with_schema else splits[0]


def _merge_part(fn, *splits: pa.Table) -> pa.Table:
    return fn(_concat_splits(*splits))


def hash_partitioned(ds, key_cols: list[str], fn, *, num_partitions: int = 64,
                     merge_fanin: int | None = None,
                     split_groups: int | None = None):
    """Apply ``fn(block: pa.Table) -> pa.Table`` to complete hash
    partitions of the key space.  ``fn`` sees every row of every key that
    hashes into its partition (and nothing else) and must group
    internally — use :func:`group_codes`.

    The exchange is the classic two-stage Ray-task shuffle the engine
    core uses (pipeline._submit_exchange):
    each upstream block is split once by partition (``num_returns=P``)
    and one merge task per partition gathers its splits zero-copy — no
    sort of the rows, no Dataset all-to-all.  The result is re-wrapped
    with ``from_arrow_refs`` so downstream Dataset ops keep chaining.

    ``merge_fanin`` caps how many upstream splits any single merge task
    takes as arguments.  The flat exchange hands each partition's merge
    ONE task with M args (M = upstream block count) — fine at thousands
    of blocks, but at 100 TB M is ~10^5-10^6 and a task spec with that
    many object refs breaks long before the data does.  With a fan-in
    cap the splits are combined in a tree of concat-only tasks (each
    ≤ fanin args, O(log_fanin M) levels) and ``fn`` runs once at the
    root, so per-task arg count and driver task-spec size stay bounded
    regardless of M.  Set it (e.g. 64) when the input has more than a
    few thousand blocks; leave None for the flat single-level merge.

    ``split_groups`` bounds the DRIVER'S ref matrix the same way.  The
    single-level split holds M×P object refs on the driver (every map
    block × every partition) — at 10^5-10^6 blocks and thousands of
    partitions that is 10^8-10^9 refs, gigabytes of driver heap before
    any data moves.  With ``split_groups=G`` each map block splits into
    G SUPER-partitions first (M×G refs), and per super-partition,
    bounded groups of ≤ merge_fanin super-splits refine into the final
    partitions (≈ M×P/fanin refs) — a G + fanin-fold reduction, at the
    cost of payload rows crossing the object store twice.  Leave None
    (single pass, minimum data movement) until M×P threatens driver
    memory; G ≈ sqrt(P) is a good default then.

    Intra-partition ROW ORDER differs between the flat, tree-merge and
    two-level paths (splits concatenate in different groupings) — fine
    for any valid ``fn``, which must already group internally and be
    insensitive to arrival order (LWW reductions, sorts, factorize).
    """

    def tag(batch: pa.Table) -> pa.Table:
        part = (_hash_cols(batch, key_cols) % np.uint64(num_partitions))
        return batch.append_column("__part", pa.array(part.astype(np.int32)))

    tagged = ds.map_batches(tag, batch_format="pyarrow")

    import ray
    import ray.data

    # zero-row upstream blocks may have BYPASSED the tag UDF (Ray passes
    # them through), so their schema lacks __part and any caller-added
    # columns — if such a block's splits were the only survivors of an
    # all-empty partition, fn would see the wrong empty schema.  Block
    # metadata knows the row count; drop them at the source.
    all_refs, block_refs = [], []
    for bundle in tagged.iter_internal_ref_bundles():
        for br, meta in bundle.blocks:
            all_refs.append(br)
            if meta.num_rows is None or meta.num_rows > 0:
                block_refs.append(br)
    if not block_refs:
        block_refs = all_refs  # all-empty input: legacy pass-through
    if not block_refs:
        return tagged.drop_columns(["__part"])
    fn_ref = ray.put(fn)
    merge = ray.remote(_merge_part)
    combine = ray.remote(_concat_splits)

    def tree_merge(refs):
        if merge_fanin is not None:
            while len(refs) > merge_fanin:
                refs = [combine.remote(*refs[i:i + merge_fanin])
                        for i in range(0, len(refs), merge_fanin)]
        return merge.remote(fn_ref, *refs)

    if split_groups is not None and num_partitions > 1:
        span = -(-num_partitions // min(split_groups, num_partitions))
        G = -(-num_partitions // span)
        fanin = merge_fanin or 64
        l1 = ray.remote(num_returns=G)(_split_super)
        supers = [l1.remote(b, G, span) for b in block_refs]
        if G == 1:
            supers = [[s] for s in supers]
        outs = [None] * num_partitions
        for g in range(G):
            lo = g * span
            n_parts = min(span, num_partitions - lo)
            refs_g = [supers[b][g] for b in range(len(supers))]
            l2 = ray.remote(num_returns=n_parts)(_split_refine)
            l2outs = [l2.remote(lo, n_parts, *refs_g[i:i + fanin])
                      for i in range(0, len(refs_g), fanin)]
            if n_parts == 1:
                l2outs = [[o] for o in l2outs]
            for j in range(n_parts):
                outs[lo + j] = tree_merge([o[j] for o in l2outs])
        return ray.data.from_arrow_refs(outs)

    split = ray.remote(num_returns=num_partitions)(_split_by_part)
    parts = [split.remote(b, num_partitions) for b in block_refs]
    if num_partitions == 1:  # num_returns=1 yields a bare ref, not a tuple
        parts = [[p] for p in parts]
    outs = [tree_merge([parts[b][p] for b in range(len(parts))])
            for p in range(num_partitions)]
    return ray.data.from_arrow_refs(outs)


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
