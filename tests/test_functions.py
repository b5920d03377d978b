"""Training-data function library + config utility tests."""

import numpy as np
import pyarrow as pa
import pytest

from deltaray.config import expand_macros
from deltaray.functions.multimodal import (
    DecodeImage,
    ExtractAudioFeatures,
    SampleVideoFrames,
    synth_audio_table,
    synth_media_table,
)


def test_expand_macros():
    # ${key} substitution (DefaultMacroEvaluator.java analog)
    assert expand_macros("s3://${bucket}/x", {"bucket": "b"}) == "s3://b/x"
    with pytest.raises(KeyError):
        expand_macros("${missing}", {})


def test_decode_image_stub_and_strict():
    # default synth payloads are REAL PPM images now — decode succeeds
    # even in strict mode; the stub/strict split applies to compressed
    # formats (fmt="fake" stands in for jpeg/png)
    tbl = synth_media_table(8)
    out = DecodeImage()(tbl)
    assert out.num_rows == 8
    assert "features" in out.column_names
    assert "payload" not in out.column_names  # wide payload dropped
    assert len(out["features"][0]) == 8
    fake = synth_media_table(8, fmt="fake")
    with pytest.raises(NotImplementedError):
        DecodeImage(strict=True)(fake)


def test_audio_features_stub():
    tbl = synth_audio_table(8)
    out = ExtractAudioFeatures()(tbl)
    assert out.num_rows == 8
    assert len(out["mfcc"][0]) == 13
    # deterministic: same payload -> same features
    out2 = ExtractAudioFeatures()(tbl)
    assert out["mfcc"].equals(out2["mfcc"])


def test_video_frame_fanout():
    vids = synth_audio_table(5)
    out = SampleVideoFrames(frames_per_video=4)(vids)
    assert out.num_rows == 20  # one row per sampled frame
    assert sorted(set(out["frame_idx"].to_pylist())) == [0, 1, 2, 3]
    # frame timestamps inside the video duration
    assert max(out["ts_ms"].to_pylist()) < max(vids["duration_ms"].to_pylist())


def test_ngram_jaccard():
    from deltaray.functions.dedup import ngram_jaccard

    assert ngram_jaccard("abcdefgh", "abcdefgh") == 1.0
    assert ngram_jaccard("abcdefgh", "zzzzzzzz") == 0.0
    assert 0.0 < ngram_jaccard("abcdefghij", "abcdefghiX") < 1.0


def test_minhash_dedup_docs_drops_near_dups():
    import ray.data

    from deltaray.functions.dedup import minhash_dedup_docs

    base = ("the quick brown fox jumps over the lazy dog and then runs far "
            "away into the deep dark forest tonight looking for dinner")
    texts = [base, base + " extra", "completely different content about "
             "machine learning pipelines and distributed systems at scale",
             base]
    tbl = pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                    "text": pa.array(texts)})
    out = minhash_dedup_docs(ray.data.from_arrow(tbl), jaccard_threshold=0.5)
    kept = sorted(r["doc_id"] for r in out.take_all())
    assert 1 in kept          # min id of the near-dup cluster survives
    assert 3 in kept          # unrelated doc survives
    assert 4 not in kept      # exact dup of 1 dropped
    assert len(kept) <= 3


def test_asof_join_semantics():
    import ray.data

    from deltaray.functions.joins import asof_join

    trades = pa.table({
        "sym": pa.array(["A", "A", "A", "B"]),
        "t": pa.array([10, 20, 30, 15], pa.int64()),
        "trade_id": pa.array([1, 2, 3, 4], pa.int64()),
    })
    quotes = pa.table({
        "sym": pa.array(["A", "A", "B", "C"]),
        "t": pa.array([10, 25, 99, 1], pa.int64()),
        "px": pa.array([1.0, 2.0, 3.0, 4.0]),
    })
    out = asof_join(
        ray.data.from_arrow(trades), ray.data.from_arrow(quotes),
        key="sym", left_on="t", right_on="t",
        right_cols={"px": "last_px"}, allow_exact=True,
    ).to_pandas().sort_values("trade_id").reset_index(drop=True)
    # trade@10 matches quote@10 (exact allowed), @20/@30 match 1.0/2.0,
    # B@15 has no quote <= 15, C never appears on the left
    assert out["last_px"].tolist()[:3] == [1.0, 1.0, 2.0]
    assert np.isnan(out["last_px"][3])

    strict = asof_join(
        ray.data.from_arrow(trades), ray.data.from_arrow(quotes),
        key="sym", left_on="t", right_on="t",
        right_cols={"px": "last_px"}, allow_exact=False,
    ).to_pandas().sort_values("trade_id").reset_index(drop=True)
    assert np.isnan(strict["last_px"][0])  # exact match excluded


def test_asof_join_tie_break():
    import ray.data

    from deltaray.functions.joins import asof_join

    orders = pa.table({
        "k": pa.array([1, 1, 1], pa.int64()),
        "d": pa.array([5, 5, 7], pa.int64()),
        "oid": pa.array([10, 11, 12], pa.int64()),
    })
    out = asof_join(
        ray.data.from_arrow(orders), ray.data.from_arrow(orders),
        key="k", left_on="d", right_on="d", left_tie="oid", right_tie="oid",
        right_cols={"oid": "prev_oid"},
    ).to_pandas().sort_values("oid").reset_index(drop=True)
    # strict lexicographic (d, oid): 10→none, 11→10 (same d, smaller oid),
    # 12→11 (latest of the d=5 pair)
    assert np.isnan(out["prev_oid"][0])
    assert out["prev_oid"].tolist()[1:] == [10.0, 11.0]


def test_sessionize():
    import ray.data

    from deltaray.functions.cdc_queries import sessionize

    t0 = 1_700_000_000_000_000  # us epoch
    m = 60 * 1_000_000
    ts = pa.array([t0, t0 + 5 * m, t0 + 200 * m, t0 + 205 * m, t0],
                  pa.timestamp("us"))
    tbl = pa.table({
        "user": pa.array([7, 7, 7, 7, 8], pa.int64()),
        "ts": ts,
        "eid": pa.array([1, 2, 3, 4, 5], pa.int64()),
    })
    out = sessionize(ray.data.from_arrow(tbl), key="user", ts_col="ts",
                     tie_col="eid", gap_minutes=60.0) \
        .to_pandas().sort_values(["user", "session_id"]).reset_index(drop=True)
    # user 7: [e1,e2] then 195-min gap → [e3,e4]; user 8: one session
    assert out["n_events"].tolist() == [2, 2, 1]
    assert out["session_id"].tolist() == [0, 1, 0]


def test_ngram_jaccard_pairs_exact():
    import ray.data

    from deltaray.functions.dedup import ngram_jaccard, ngram_jaccard_pairs

    a = "the quick brown fox jumps over the lazy dog tonight"
    b = a + " again"
    c = "zz"  # shorter than k: never pairs
    tbl = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                    "text": pa.array([a, b, c])})
    out = ngram_jaccard_pairs(ray.data.from_arrow(tbl), k=5, threshold=0.3) \
        .to_pandas()
    assert len(out) == 1
    row = out.iloc[0]
    assert (row["doc_a"], row["doc_b"]) == (1, 2)
    # exact Jaccard matches the scalar primitive
    assert row["n_inter"] / row["n_union"] == pytest.approx(
        ngram_jaccard(a, b, k=5))


def test_token_topk():
    import ray.data

    from deltaray.functions.text import token_topk

    tbl = pa.table({"text": pa.array(["a b b", "  b A c", ""])})
    out = token_topk(ray.data.from_arrow(tbl), top_k=2)
    assert out["token"].to_pylist() == ["b", "a"]
    assert out["n"].to_pylist() == [3, 2]


def test_broadcast_enrich_missing_keys_null():
    import ray.data

    from deltaray.functions.joins import broadcast_enrich

    stream = pa.table({"uid": pa.array([1, 2, 99], pa.int64())})
    dims = pa.table({"uid": pa.array([1, 2], pa.int64()),
                     "name": pa.array(["x", "y"])})
    out = broadcast_enrich(ray.data.from_arrow(stream), dims,
                           stream_key="uid", dim_key="uid",
                           value_cols=["name"]).to_pandas() \
        .sort_values("uid").reset_index(drop=True)
    assert out["name"].tolist()[:2] == ["x", "y"]
    assert out["name"][2] is None or out["name"].isna()[2]


def test_hash_partitioned_key_colocation():
    import pyarrow.compute as pc
    import ray.data

    from deltaray.functions.partition import group_codes, hash_partitioned

    # every key's rows must land in exactly one fn call
    n = 10_000
    tbl = pa.table({"k": pa.array([f"key{i % 997}" for i in range(n)]),
                    "v": pa.array(np.arange(n))})

    def per_key_counts(block: pa.Table) -> pa.Table:
        codes = group_codes(block, ["k"])
        _, first, counts = np.unique(codes, return_index=True,
                                     return_counts=True)
        return pa.table({"k": block["k"].take(pa.array(first)),
                         "n": pa.array(counts, pa.int64())})

    # one output row per key (no key split across partitions), full
    # counts — from Arrow and from pandas upstream blocks
    for ds in (ray.data.from_arrow(tbl), ray.data.from_pandas(tbl.to_pandas())):
        out = hash_partitioned(ds, ["k"], per_key_counts,
                               num_partitions=16).to_pandas()
        assert len(out) == 997
        assert out["n"].sum() == n

    # empty partitions: every output block keeps fn's typed schema, for
    # upstream zero-row blocks, more partitions than keys, and an
    # all-empty input (fn then sees typed empty blocks of the input)
    want = pa.schema([("k", pa.string()), ("n", pa.int64())])
    empty = tbl.slice(0, 0)
    few = tbl.filter(pa.array(np.arange(n) % 997 < 3))
    for blocks, parts, keys in (
            ([empty, tbl.slice(0, n // 2), empty, tbl.slice(n // 2)], 16, 997),
            ([few], 64, 3),
            ([empty, empty], 8, 0)):
        out = hash_partitioned(ray.data.from_arrow(blocks), ["k"],
                               per_key_counts, num_partitions=parts)
        got = ray.get(out.to_arrow_refs())
        assert len(got) == parts
        assert all(b.schema.equals(want) for b in got), \
            {str(b.schema) for b in got}
        assert out.schema().base_schema.equals(want)
        assert sum(b.num_rows for b in got) == keys
        assert sum(int(pc.sum(b["n"]).as_py() or 0)
                   for b in got) == sum(b.num_rows for b in blocks)


def test_hash_partitioned_chained_logs_no_schema_warning():
    """A hash_partitioned output with empty partitions (16 partitions
    over 3 keys) feeding another hash_partitioned: no map stage may see
    Ray's zero-row, zero-column blocks, so Ray Data logs no "Operator
    produced a RefBundle with a different schema" warning.  The
    ``ray.data`` logger does not propagate to the root logger, so the
    handler goes on it directly."""
    import logging

    import ray.data

    from deltaray.functions.partition import hash_partitioned

    class Grab(logging.Handler):
        def __init__(self):
            super().__init__()
            self.messages = []

        def emit(self, record):
            self.messages.append(record.getMessage())

    def ident(block: pa.Table) -> pa.Table:
        return block

    grab = Grab()
    logger = logging.getLogger("ray.data")
    logger.addHandler(grab)
    try:
        ds = ray.data.from_arrow(pa.table({"k": ["a", "b", "c"],
                                           "v": [1, 2, 3]}))
        out = hash_partitioned(
            hash_partitioned(ds, ["k"], ident, num_partitions=16),
            ["k"], ident, num_partitions=4)
        got = pa.concat_tables(ray.get(out.to_arrow_refs()))
    finally:
        logger.removeHandler(grab)
    assert sorted(got["k"].to_pylist()) == ["a", "b", "c"]
    warned = [m for m in grab.messages if "different schema" in m]
    assert not warned, warned


def test_group_codes_composite_key():
    from deltaray.functions.partition import group_codes

    tbl = pa.table({"a": pa.array([1, 1, 2, 2, 1], pa.int64()),
                    "b": pa.array(["x", "y", "x", "x", "x"])})
    codes = group_codes(tbl, ["a", "b"])
    # (1,x) (1,y) (2,x) (2,x) (1,x) -> 3 distinct groups, 0/4 equal, 2/3 equal
    assert codes[0] == codes[4]
    assert codes[2] == codes[3]
    assert len(set(codes.tolist())) == 3


def test_exact_percentiles_refinement():
    import ray.data

    from deltaray.functions.stats import exact_percentiles

    rng = np.random.default_rng(7)
    vals = rng.standard_normal(20_000) * 100
    vals[::97] = np.nan  # nulls must be ignored
    tbl = pa.table({"value": pa.array(vals, from_pandas=True)})
    clean = np.sort(vals[~np.isnan(vals)])
    qs = [0.0, 0.25, 0.5, 0.9, 1.0]
    # tiny max_pull + few bins force several histogram refinement passes
    out = exact_percentiles(ray.data.from_arrow(tbl), "value", qs,
                            num_bins=16, max_pull=50)
    want = [clean[int(np.floor((len(clean) - 1) * q))] for q in qs]
    assert out["value"].to_pylist() == pytest.approx(want, abs=0)
    assert out["q"].to_pylist() == qs


def test_exact_percentiles_duplicates_and_empty():
    import ray.data

    from deltaray.functions.stats import exact_percentiles

    const = pa.table({"value": pa.array([3.5] * 5000)})
    out = exact_percentiles(ray.data.from_arrow(const), "value", [0.5],
                            num_bins=8, max_pull=10)
    assert out["value"].to_pylist() == [3.5]

    empty = pa.table({"value": pa.array([], pa.float64())})
    out2 = exact_percentiles(ray.data.from_arrow(empty), "value", [0.5])
    assert out2["value"].to_pylist() == [None]


def test_simhash_pairs_near_dups():
    import ray.data

    from deltaray.functions.dedup import simhash_pairs

    base = ("the quick brown fox jumps over the lazy dog and then runs far "
            "away into the deep dark forest tonight looking for dinner")
    texts = [base, base + "!", "totally unrelated words about distributed "
             "query engines and columnar formats and object stores", base]
    tbl = pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                    "text": pa.array(texts)})
    # short texts give coarse 64-bit signatures (the unrelated doc sits
    # ~8 bits away here, the one-char edit ~2), so test at the strictest
    # threshold: only the exact duplicate survives max_hamming=1
    out = simhash_pairs(ray.data.from_arrow(tbl), max_hamming=1).to_pandas()
    pairs = {tuple(p) for p in out[["id_a", "id_b"]].itertuples(index=False)}
    assert pairs == {(1, 4)}         # identical text -> distance 0
    assert out["hamming"].tolist() == [0]


def test_range_join_unkeyed_buckets():
    import ray.data

    from deltaray.functions.joins import range_join

    # intervals span several buckets (width 10); each match must appear
    # exactly once even when the interval is replicated to many buckets
    points = pa.table({"t": pa.array([5, 12, 25, 99], pa.int64()),
                       "pid": pa.array([1, 2, 3, 4], pa.int64())})
    ivals = pa.table({"s": pa.array([0, 11, 50], pa.int64()),
                      "e": pa.array([30, 13, 60], pa.int64()),
                      "iid": pa.array([10, 20, 30], pa.int64())})
    out = range_join(
        ray.data.from_arrow(points), ray.data.from_arrow(ivals),
        point_col="t", start_col="s", end_col="e", bucket_width=10,
        point_cols={"pid": "pid", "t": "t"},
        interval_cols={"iid": "iid"},
    ).to_pandas().sort_values(["pid", "iid"]).reset_index(drop=True)
    got = list(out[["pid", "iid"]].itertuples(index=False, name=None))
    # p5,p12,p25 in [0,30]; p12 also in [11,13]; p99 matches nothing
    assert got == [(1, 10), (2, 10), (2, 20), (3, 10)]


def test_range_join_keyed():
    import ray.data

    from deltaray.functions.joins import range_join

    points = pa.table({"k": pa.array(["a", "a", "b"]),
                       "t": pa.array([5, 50, 5], pa.int64())})
    ivals = pa.table({"k": pa.array(["a", "b"]),
                      "s": pa.array([0, 10], pa.int64()),
                      "e": pa.array([10, 20], pa.int64()),
                      "iid": pa.array([1, 2], pa.int64())})
    out = range_join(
        ray.data.from_arrow(points), ray.data.from_arrow(ivals),
        key="k", point_col="t", start_col="s", end_col="e",
        point_cols={"t": "t"}, interval_cols={"iid": "iid"},
    ).to_pandas().sort_values(["k", "t"]).reset_index(drop=True)
    # only (a, 5) lands in a's [0,10]; b's point 5 is outside b's [10,20]
    assert list(out[["k", "t", "iid"]].itertuples(index=False, name=None)) \
        == [("a", 5, 1)]


def test_minhash_dedup_connected_components():
    from deltaray.functions.dedup import _union_find_drops

    # chain a~b~c plus isolated pair (x, y): keep min of each component
    drops = _union_find_drops([(2, 1), (2, 3), (9, 8)])
    assert drops == {2, 3, 9}


def test_tumbling_window_agg():
    import ray.data

    from deltaray.functions.cdc_queries import tumbling_window_agg

    h = 3_600_000_000
    ts = pa.array([0, 10, h, h + 5, 3 * h], pa.timestamp("us"))
    tbl = pa.table({"u": pa.array([1, 1, 1, 2, 2], pa.int64()), "ts": ts})
    out = tumbling_window_agg(ray.data.from_arrow(tbl), key="u",
                              ts_col="ts", window_minutes=60) \
        .to_pandas().sort_values(["u", "window_start"]).reset_index(drop=True)
    assert out["n"].tolist() == [2, 1, 1, 1]


def test_knn_ivf_full_probe_equals_bruteforce():
    import ray.data

    from deltaray.functions.knn import knn_bruteforce, knn_ivf, train_centroids

    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((300, 16)).astype(np.float32)
    tbl = pa.table({"vec_id": pa.array(np.arange(300)),
                    "embedding": pa.array(list(vecs), pa.list_(pa.float32()))})
    q = vecs[:3]
    C = train_centroids(vecs, n_centroids=8)
    # probing every cell makes IVF exhaustive -> must equal brute force
    ivf = knn_ivf(ray.data.from_arrow(tbl), q, C, k=5, nprobe=8) \
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    brute = knn_bruteforce(ray.data.from_arrow(tbl), q.astype(np.float64), k=5) \
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert ivf["vec_id"].tolist() == brute["vec_id"].tolist()


def test_knn_lsh_full_probe_equals_bruteforce():
    import ray.data

    from deltaray.functions.knn import knn_bruteforce, knn_lsh

    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((300, 16)).astype(np.float32)
    tbl = pa.table({"vec_id": pa.array(np.arange(300)),
                    "embedding": pa.array(list(vecs), pa.list_(pa.float32()))})
    q = vecs[:3]
    # probing every bucket of every table makes LSH exhaustive
    lsh = knn_lsh(ray.data.from_arrow(tbl), q, k=5, n_tables=2, n_bits=4,
                  n_probe=16) \
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    brute = knn_bruteforce(ray.data.from_arrow(tbl), q.astype(np.float64), k=5) \
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert lsh["vec_id"].tolist() == brute["vec_id"].tolist()


def test_knn_lsh_recall_on_planted_clusters():
    """Pruned multiprobe LSH recovers planted near-neighbors: queries are
    noisy copies of corpus vectors; rank-1 must be the source vector."""
    import ray.data

    from deltaray.functions.knn import knn_lsh

    rng = np.random.default_rng(9)
    vecs = rng.standard_normal((400, 24)).astype(np.float32)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    src = [10, 77, 250, 399]
    q = vecs[src] + 0.05 * rng.standard_normal((len(src), 24)).astype(np.float32)
    tbl = pa.table({"vec_id": pa.array(np.arange(400)),
                    "embedding": pa.array(list(vecs), pa.list_(pa.float32()))})
    out = knn_lsh(ray.data.from_arrow(tbl).repartition(4), q, k=3,
                  n_tables=8, n_bits=8, n_probe=4).to_pandas()
    r1 = out[out["rank"] == 1].sort_values("query_id")
    assert r1["vec_id"].tolist() == src


def test_assign_clusters_matches_local_lloyd(ray_session):
    """Distributed trainer + assignment == a single-process numpy Lloyd
    run from the identical init (exact replication, not approximate)."""
    import ray.data

    from deltaray.functions.knn import (_unit, assign_clusters,
                                        train_centroids_ds, vecs_np)

    rng = np.random.default_rng(21)
    centers = _unit(rng.standard_normal((4, 12)).astype(np.float32))
    vecs = np.repeat(centers, 60, axis=0) + \
        0.08 * rng.standard_normal((240, 12)).astype(np.float32)
    tbl = pa.table({"vec_id": pa.array(np.arange(240)),
                    "embedding": pa.array(list(vecs), pa.list_(pa.float32()))})
    ds = ray.data.from_arrow(tbl)
    C = train_centroids_ds(ds, 4, iters=5, seed=7)

    # local replication: same hash-min seed sample (order-independent
    # init — the 4 rows with the smallest seed-salted row hashes)
    X = _unit(vecs_np(tbl["embedding"], np.float32))
    salt = np.uint64((7 * 0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9)
                     & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        W = X.view(np.uint32).astype(np.uint64)
        mult = np.empty(W.shape[1], dtype=np.uint64)
        mult[0] = np.uint64(1)
        for j in range(1, W.shape[1]):
            mult[j] = mult[j - 1] * np.uint64(31)
        h = (W * mult).sum(axis=1, dtype=np.uint64)
        h = (h ^ salt) * np.uint64(0xFF51AFD7ED558CCD)
    C2 = X[np.argsort(h, kind="stable")[:4]]
    for _ in range(5):
        assign = (X @ C2.T).argmax(axis=1)
        S = np.zeros_like(C2, dtype=np.float64)
        np.add.at(S, assign, X)
        N = np.bincount(assign, minlength=4)
        live = N > 0
        C2 = C2.copy()
        C2[live] = (S[live] / N[live, None]).astype(np.float32)
        C2 = _unit(C2)
    assert np.allclose(C, C2, atol=1e-5)

    got = assign_clusters(ds, C).to_pandas().sort_values("vec_id")
    want = (X @ _unit(C).T).argmax(axis=1)
    assert got["cluster"].tolist() == want.tolist()


def test_training_data_refresh_invariants(ray_session):
    """Flagship composition (replay → chunk → pack): token and doc
    counts are conserved stage to stage, and packing compresses rows."""
    import __ray_entry__ as entrymod

    from tests.conftest import SF_DIR

    t = entrymod.queries()["training_data_refresh"](SF_DIR).to_pandas()
    row = t.iloc[0]
    assert row["n_lake_tokens"] == row["n_chunk_tokens"] == row["n_pack_tokens"]
    assert row["n_chunks"] >= row["n_docs"] > 0


def test_top_k_per_key():
    import ray.data

    from deltaray.functions.cdc_queries import top_k_per_key

    tbl = pa.table({"g": pa.array(["a"] * 5 + ["b"] * 2),
                    "v": pa.array([5, 3, 9, 9, 1, 2, 7], pa.int64()),
                    "id": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64())})
    out = top_k_per_key(ray.data.from_arrow(tbl), key="g",
                        order=[("v", "descending"), ("id", "ascending")],
                        k=2).to_pandas().sort_values(["g", "id"]) \
        .reset_index(drop=True)
    # a: v=9 ids 3,4 (tie broken by id); b: both rows survive (k > size)
    assert list(out[["g", "id"]].itertuples(index=False, name=None)) \
        == [("a", 3), ("a", 4), ("b", 6), ("b", 7)]


def test_embedding_neardup_vs_bruteforce(ray_session):
    """LSH near-dup pairs vs an O(n²) brute-force oracle: precision is
    exact by construction (every pair verified by true cosine) and the
    multi-table hyperplane scheme recovers every planted near-dup pair
    (deterministic seeds → deterministic buckets)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from deltaray.functions.dedup import embedding_neardup_pairs

    rng = np.random.default_rng(5)
    dim, n = 32, 200
    base = rng.standard_normal((n, dim)).astype(np.float32)
    twins = []
    for i in range(10):  # plant 10 near-dups of vectors 0..9 (cos ~0.9995)
        g = rng.standard_normal(dim).astype(np.float32)
        twins.append(base[i] + 0.03 * np.linalg.norm(base[i]) * g / np.linalg.norm(g))
    vecs = np.vstack([base, np.stack(twins)])
    ids = np.arange(len(vecs), dtype=np.int64)
    threshold = 0.95
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sim = unit @ unit.T
    ia, ib = np.triu_indices(len(vecs), 1)
    keep = sim[ia, ib] >= threshold
    want = {(int(a), int(b)) for a, b in zip(ia[keep], ib[keep])}
    assert len(want) >= 10

    tbl = pa.table({"vec_id": pa.array(ids),
                    "embedding": pa.array([v.tolist() for v in vecs],
                                          pa.list_(pa.float32()))})
    ds = ray.data.from_arrow(tbl).repartition(4)
    out = pa.concat_tables(list(
        embedding_neardup_pairs(ds, dim=dim, threshold=threshold,
                                n_planes=8, n_tables=8)
        .iter_batches(batch_format="pyarrow")))
    got = {(min(a, b), max(a, b))
           for a, b in zip(out["id_a"].to_pylist(), out["id_b"].to_pylist())}
    assert got <= want            # exact precision
    assert got == want            # full recall on this fixture


def test_distributed_connected_components(ray_session):
    """Alternating large-star/small-star CC over an edge Dataset equals a
    single-process union-find on a random graph."""
    import ray.data

    from deltaray.functions.dedup import connected_components

    rng = np.random.default_rng(11)
    # 40 clusters of 1..8 nodes connected by random spanning chains + noise
    edges, offset = [], 0
    comp_of = {}
    for c in range(40):
        size = int(rng.integers(1, 9))
        nodes = list(range(offset, offset + size))
        offset += size + int(rng.integers(0, 3))  # id gaps
        for n in nodes:
            comp_of[n] = min(nodes)
        for a, b in zip(nodes, nodes[1:]):
            edges.append((a, b))
        for _ in range(int(rng.integers(0, 3))):  # redundant intra edges
            if size > 1:
                a, b = rng.choice(nodes, 2, replace=False)
                if a != b:
                    edges.append((int(a), int(b)))
    rng.shuffle(edges)
    tbl = pa.table({"id_a": pa.array([a for a, _ in edges], pa.int64()),
                    "id_b": pa.array([b for _, b in edges], pa.int64())})
    labels = pa.concat_tables(list(
        connected_components(ray.data.from_arrow(tbl).repartition(4),
                             num_partitions=8)
        .iter_batches(batch_format="pyarrow")))
    got = dict(zip(labels["node"].to_pylist(), labels["root"].to_pylist()))
    # every non-root node labeled with its component min; roots absent
    want = {n: r for n, r in comp_of.items() if n != r and _has_edge(n, edges)}
    assert got == want


def _has_edge(n, edges):
    return any(n in e for e in edges)


def test_minhash_dedup_distributed_path_agrees(ray_session):
    """High-dup corpus: the distributed CC + anti-join path (pair_budget
    forced to 0) keeps exactly the same documents as the driver-side
    union-find path, and the pair count is surfaced."""
    import ray.data

    from deltaray.functions.dedup import minhash_dedup_docs

    words = ("lorem ipsum dolor sit amet consectetur adipiscing elit sed do "
             "eiusmod tempor incididunt ut labore et dolore magna aliqua")
    texts, ids = [], []
    for c in range(12):           # 12 clusters of 5 near-identical docs
        base = words + f" cluster marker {c} unique content tail {c * 7}"
        for j in range(5):
            ids.append(c * 10 + j)
            texts.append(base + (" x" * j))
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()),
                    "text": pa.array(texts)})
    ds = ray.data.from_arrow(tbl).repartition(4)
    s1, s2 = {}, {}
    kept_uf = sorted(r["doc_id"] for r in minhash_dedup_docs(
        ds, jaccard_threshold=0.5, stats_out=s1).take_all())
    kept_cc = sorted(r["doc_id"] for r in minhash_dedup_docs(
        ds, jaccard_threshold=0.5, pair_budget=0, stats_out=s2).take_all())
    assert s1["path"] == "union_find" and s2["path"] == "distributed_cc"
    assert s1["n_pairs"] == s2["n_pairs"] > 0
    assert kept_uf == kept_cc
    assert len(kept_uf) < len(ids)  # dedup actually dropped docs


def test_hash_join_and_semi_anti(ray_session):
    import ray.data

    from deltaray.functions.joins import hash_join, semi_join

    left = pa.table({"k": pa.array([1, 2, 2, 3, 5], pa.int64()),
                     "lv": pa.array(["a", "b", "c", "d", "e"])})
    right = pa.table({"rk": pa.array([2, 3, 3, 4], pa.int64()),
                      "rv": pa.array([20, 30, 31, 40], pa.int64())})
    lds = ray.data.from_arrow(left).repartition(2)
    rds = ray.data.from_arrow(right).repartition(2)

    inner = hash_join(lds, rds, on="k", right_on="rk", how="inner",
                      num_partitions=4).to_pandas() \
        .sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    assert list(inner.itertuples(index=False, name=None)) == [
        (2, "b", 20), (2, "c", 20), (3, "d", 30), (3, "d", 31)]

    louter = hash_join(lds, rds, on="k", right_on="rk", how="left",
                       num_partitions=4).to_pandas()
    assert len(louter) == 6  # 4 matches + unmatched k=1, k=5
    unmatched = louter[louter["rv"].isna()]["k"].tolist()
    assert sorted(unmatched) == [1, 5]

    semi = semi_join(lds, rds, on="k", right_on="rk",
                     num_partitions=4).to_pandas()
    assert sorted(semi["k"].tolist()) == [2, 2, 3]
    anti = semi_join(lds, rds, on="k", right_on="rk", anti=True,
                     num_partitions=4).to_pandas()
    assert sorted(anti["k"].tolist()) == [1, 5]


def test_sliding_window_agg(ray_session):
    import ray.data

    from deltaray.functions.cdc_queries import sliding_window_agg

    h = 3_600_000_000  # 1 hour in us
    ts = pa.array([0, 10, h + 5, 2 * h + 1], pa.timestamp("us"))
    tbl = pa.table({"u": pa.array([1, 1, 1, 1], pa.int64()), "ts": ts,
                    "v": pa.array([1, 2, 4, 8], pa.int64())})
    out = sliding_window_agg(ray.data.from_arrow(tbl), key="u", ts_col="ts",
                             value_col="v", window_minutes=120,
                             hop_minutes=60) \
        .to_pandas().sort_values("window_start").reset_index(drop=True)
    # windows (start, len 2h): -1h:{1,2}, 0h:{1,2,4}, 1h:{4,8}, 2h:{8}
    assert out["sum_value"].tolist() == [3, 7, 12, 8]
    assert out["n"].tolist() == [2, 3, 2, 1]


def test_pack_sequences(ray_session):
    import ray.data

    import pyarrow.compute as pc

    from deltaray.functions.text import pack_sequences

    rng = np.random.default_rng(17)
    lens = rng.integers(1, 120, size=300)
    lens[5] = 700  # oversized doc: its own pack, never truncated
    toks = [list(range(int(n))) for n in lens]
    tbl = pa.table({"doc_id": pa.array([f"d{i:04d}" for i in range(300)]),
                    "tokens": pa.array(toks, pa.list_(pa.int32()))})

    def run(blocks):
        ds = ray.data.from_arrow(tbl).repartition(blocks)
        out = pack_sequences(ds, max_len=256, num_partitions=8)
        return pa.concat_tables(list(out.iter_batches(
            batch_format="pyarrow"))).sort_by("pack_id")

    out = run(4)
    # every token preserved exactly once
    assert int(pc.sum(out["n_tokens"]).as_py()) == int(lens.sum())
    total_docs = int(pc.sum(out["n_docs"]).as_py())
    assert total_docs == 300
    # packs respect max_len unless a single doc overflows on its own
    for nt, ndocs in zip(out["n_tokens"].to_pylist(),
                         out["n_docs"].to_pylist()):
        assert nt <= 256 or ndocs == 1
    # token content round-trips: each pack concatenates its docs' tokens
    row = out.to_pylist()[0]
    assert len(row["tokens"]) == row["n_tokens"]
    # deterministic under a different input block layout
    out2 = run(9)
    assert out.select(["pack_id", "n_docs", "n_tokens"]).equals(
        out2.select(["pack_id", "n_docs", "n_tokens"]))


def test_approx_distinct_hll(ray_session):
    import ray.data

    from deltaray.functions.stats import approx_distinct

    n = 60_000
    vals = np.arange(n, dtype=np.int64) % 25_000  # 25k distinct
    tbl = pa.table({"v": pa.array(vals)})
    out = approx_distinct(ray.data.from_arrow(tbl).repartition(6), "v")
    est = out["n_distinct_approx"][0].as_py()
    assert abs(est - 25_000) / 25_000 < 0.03  # ~0.8% stderr at p=14
    # block layout does not change the merged sketch
    out2 = approx_distinct(ray.data.from_arrow(tbl).repartition(2), "v")
    assert out2["n_distinct_approx"][0].as_py() == est
    # string columns hash through the same stable kernel
    st = pa.table({"s": pa.array([f"u{i%500}" for i in range(5_000)])})
    est_s = approx_distinct(ray.data.from_arrow(st), "s") \
        ["n_distinct_approx"][0].as_py()
    assert abs(est_s - 500) / 500 < 0.05


def test_image_codecs_roundtrip_and_decode():
    from deltaray.functions.multimodal import (DecodeImage, decode_bmp,
                                               decode_ppm, encode_ppm,
                                               resize_bilinear,
                                               synth_media_table)

    rng = np.random.default_rng(23)
    img = rng.integers(0, 256, size=(13, 17, 3), dtype=np.uint8)
    assert np.array_equal(decode_ppm(encode_ppm(img)), img)
    # comments in the PPM header are skipped
    data = b"P6\n# a comment\n17 13\n255\n" + img.tobytes()
    assert np.array_equal(decode_ppm(data), img)

    # handcrafted 2x2 24-bit bottom-up BMP: padded rows, BGR order
    px = np.array([[[255, 0, 0], [0, 255, 0]],
                   [[0, 0, 255], [10, 20, 30]]], dtype=np.uint8)
    rows = b""
    for r in px[::-1]:           # bottom-up
        row = b"".join(bytes([p[2], p[1], p[0]]) for p in r)  # BGR
        rows += row + b"\x00" * ((4 - len(row) % 4) % 4)
    header = (b"BM" + (54 + len(rows)).to_bytes(4, "little") + b"\x00" * 4
              + (54).to_bytes(4, "little")
              + (40).to_bytes(4, "little")
              + (2).to_bytes(4, "little", signed=True)
              + (2).to_bytes(4, "little", signed=True)
              + (1).to_bytes(2, "little") + (24).to_bytes(2, "little")
              + (0).to_bytes(4, "little") + b"\x00" * 20)
    assert np.array_equal(decode_bmp(header + rows), px)

    # resize: constant image stays constant; shape honored
    const = np.full((9, 5, 3), 77, np.uint8)
    r = resize_bilinear(const, 16, 8)
    assert r.shape == (8, 16, 3) and np.all(r == 77)

    # the actor stage REALLY decodes PPM payloads (deterministic)
    tbl = synth_media_table(6, seed=3)
    out = DecodeImage(strict=True)(tbl)   # strict OK: ppm decodes natively
    assert out.num_rows == 6 and "features" in out.column_names
    out2 = DecodeImage(strict=True)(tbl)
    assert out["features"].equals(out2["features"])
    # fake payloads still raise in strict mode / stub otherwise
    fake = synth_media_table(2, seed=3, fmt="fake")
    import pytest as _pytest
    with _pytest.raises(NotImplementedError):
        DecodeImage(strict=True)(fake)
    assert DecodeImage()(fake).num_rows == 2


def test_deterministic_shuffle_and_hash_split(ray_session):
    import ray.data

    from deltaray.functions.partition import deterministic_shuffle, hash_split

    tbl = pa.table({"doc_id": pa.array([f"d{i}" for i in range(500)]),
                    "v": pa.array(np.arange(500))})

    def run(seed, blocks):
        out = deterministic_shuffle(
            ray.data.from_arrow(tbl).repartition(blocks),
            ["doc_id"], seed=seed, num_partitions=8)
        return pa.concat_tables(list(out.iter_batches(
            batch_format="pyarrow")))

    a = run(1, 4)
    b = run(1, 9)          # layout-independent: same permutation
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    c = run(2, 4)          # different seed: different permutation
    assert a["doc_id"].to_pylist() != c["doc_id"].to_pylist()
    assert sorted(a["doc_id"].to_pylist()) == sorted(tbl["doc_id"].to_pylist())

    sp = pa.concat_tables(list(
        hash_split(ray.data.from_arrow(tbl), ["doc_id"], frac=0.9, seed=7)
        .iter_batches(batch_format="pyarrow")))
    labs = dict(zip(sp["doc_id"].to_pylist(), sp["split"].to_pylist()))
    n_train = sum(1 for v in labs.values() if v == "train")
    assert 0.8 < n_train / 500 < 0.97
    # same key always lands on the same side (reproducible)
    sp2 = pa.concat_tables(list(
        hash_split(ray.data.from_arrow(tbl).repartition(7), ["doc_id"],
                   frac=0.9, seed=7).iter_batches(batch_format="pyarrow")))
    labs2 = dict(zip(sp2["doc_id"].to_pylist(), sp2["split"].to_pylist()))
    assert labs == labs2


def test_heavy_hitters_count_min(ray_session):
    import ray.data

    from deltaray.functions.stats import heavy_hitters

    rng = np.random.default_rng(29)
    # zipf-ish: heavy values v0..v9 dominate a 5k-value tail
    heavy = np.repeat([f"v{i}" for i in range(10)],
                      [4000 - 300 * i for i in range(10)])
    tail = np.array([f"t{int(x)}" for x in rng.integers(0, 5000, 8000)])
    vals = np.concatenate([heavy, tail])
    rng.shuffle(vals)
    tbl = pa.table({"w": pa.array(vals)})
    out = heavy_hitters(ray.data.from_arrow(tbl).repartition(6), "w", k=10)
    # exact oracle
    import collections
    exact = collections.Counter(vals.tolist()).most_common(10)
    assert out["value"].to_pylist() == [v for v, _ in exact]
    assert out["n"].to_pylist() == [n for _, n in exact]  # exact counts


def test_winnowing_fingerprints():
    from deltaray.functions.dedup import _shingle_hashes
    from deltaray.functions.text import winnow_batch

    texts = ["the quick brown fox jumps over the lazy dog tonight",
             "a completely different document about machine learning",
             "xy"]  # shorter than k
    tbl = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                    "text": pa.array(texts)})
    out = winnow_batch(tbl, k=5, w=4)
    # brute-force winnowing oracle per doc
    for i, t in enumerate(texts):
        h = _shingle_hashes([t], 5)[0]
        if len(h) < 4:
            want = sorted(set(int(x) for x in h.astype(np.int64)))
        else:
            picked = set()
            for s in range(len(h) - 3):
                window = h[s:s + 4]
                m = window.min()
                # rightmost minimal position
                j = s + max(p for p in range(4) if window[p] == m)
                picked.add(j)
            want = sorted({int(np.int64(h[j])) for j in picked})
        assert out["fingerprints"][i].as_py() == want, i
    # the winnowing guarantee: docs sharing a long substring share a print
    a = "zzz SHARED COMMON RUN OF TEXT zzz unique tail one"
    b = "qqq SHARED COMMON RUN OF TEXT qqq other ending two"
    t2 = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                   "text": pa.array([a, b])})
    o2 = winnow_batch(t2, k=5, w=4)
    s1 = set(o2["fingerprints"][0].as_py())
    s2 = set(o2["fingerprints"][1].as_py())
    assert s1 & s2


def test_train_centroids_ds_distributed(ray_session):
    import ray.data

    from deltaray.functions.knn import (knn_bruteforce, knn_ivf,
                                        train_centroids_ds)

    rng = np.random.default_rng(41)
    # 4 well-separated gaussian clusters on the sphere
    centers = _unit_rows(rng.standard_normal((4, 16)).astype(np.float32))
    vecs = np.vstack([
        c + 0.05 * rng.standard_normal((100, 16)).astype(np.float32)
        for c in centers])
    tbl = pa.table({"vec_id": pa.array(np.arange(400)),
                    "embedding": pa.array(list(vecs), pa.list_(pa.float32()))})
    ds = ray.data.from_arrow(tbl).repartition(5)
    C = train_centroids_ds(ds, 4, iters=6)
    assert C.shape == (4, 16)
    # every learned centroid sits close to one true center (cos > 0.98)
    sim = _unit_rows(C) @ centers.T
    assert np.all(sim.max(axis=1) > 0.98)
    # full-probe IVF with the distributed centroids equals brute force
    q = vecs[:3].astype(np.float64)
    ivf = knn_ivf(ds, vecs[:3], C, k=5, nprobe=4).to_pandas() \
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    brute = knn_bruteforce(ds, q, k=5).to_pandas() \
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert ivf["vec_id"].tolist() == brute["vec_id"].tolist()


def _unit_rows(m):
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def test_token_topk_high_cardinality_matches_exact():
    """Round-3 scale fix: top-k must survive a vocabulary far larger than
    num_partitions x top_k without the driver ever holding the full
    aggregate — per-partition exact totals guarantee the global answer."""
    import collections

    import ray.data

    from deltaray.functions.text import token_topk

    rng = np.random.default_rng(11)
    docs = []
    for i in range(2000):
        # ~8k distinct rare tokens + a zipf-ish head of common ones
        words = [f"tok{rng.integers(0, 8000)}" for _ in range(6)]
        words += ["common%d" % rng.integers(0, 5)] * int(rng.integers(1, 4))
        docs.append(" ".join(words))
    tbl = pa.table({"text": pa.array(docs)})
    out = token_topk(ray.data.from_arrow(tbl), top_k=15, num_partitions=8)

    exact = collections.Counter(
        t for d in docs for t in d.lower().split() if t)
    want = sorted(exact.items(), key=lambda kv: (-kv[1], kv[0]))[:15]
    got = list(zip(out["token"].to_pylist(), out["n"].to_pylist()))
    assert got == want


def test_simhash_bucket_cap_star_collapse():
    """Identical-signature groups wider than max_bucket collapse to a
    star on the min id: output stays linear, the transitive closure (what
    dedup consumers use) still connects every member."""
    import ray.data

    from deltaray.functions.dedup import simhash_pairs

    n = 120
    base = ("one identical document repeated many times to force every "
            "signature into the same value across the whole corpus here")
    tbl = pa.table({"doc_id": pa.array(range(1, n + 1), pa.int64()),
                    "text": pa.array([base] * n)})
    out = simhash_pairs(ray.data.from_arrow(tbl), max_hamming=1,
                        max_bucket=16).to_pandas()
    # linear, not quadratic: star emits n-1 edges (deduped across bands)
    assert len(out) == n - 1
    assert set(out["id_a"]) == {1}
    assert sorted(out["id_b"]) == list(range(2, n + 1))
    assert (out["hamming"] == 0).all()


def test_simhash_bucket_split_keeps_exact_dups():
    """Oversized mixed buckets are split by other signature segments;
    exact duplicates (equal on EVERY segment) always survive splitting."""
    import ray.data

    from deltaray.functions.dedup import simhash_pairs

    rng = np.random.default_rng(5)
    vocab = [f"word{i}" for i in range(400)]
    texts = [" ".join(rng.choice(vocab, size=25)) for _ in range(300)]
    texts[7] = texts[250]  # planted exact duplicate pair (8, 251)
    tbl = pa.table({"doc_id": pa.array(range(1, 301), pa.int64()),
                    "text": pa.array(texts)})
    capped = simhash_pairs(ray.data.from_arrow(tbl), max_hamming=0,
                           max_bucket=8).to_pandas()
    # star-collapse may reroute the edge through the group's min id, so
    # the guarantee is connectivity, not the literal edge
    parent = {i: i for i in range(1, 301)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in capped[["id_a", "id_b"]].itertuples(index=False):
        parent[find(int(a))] = find(int(b))
    assert find(8) == find(251)


def test_chunk_sequences_edges():
    """0-token docs yield no chunks; exact multiples and remainders tile
    the token stream without loss; per-chunk stats match."""
    import ray.data

    from deltaray.functions.text import chunk_sequences

    toks = [[], [1, 2, 3], [4, 5, 6, 7, 8], list(range(10, 20))]
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "tokens": pa.array(toks, pa.list_(pa.int32())),
    })
    out = chunk_sequences(ray.data.from_arrow(tbl), max_len=5,
                          with_stats=True).to_pandas()
    out = out.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    assert out["doc_id"].tolist() == [1, 2, 3, 3]
    assert out["chunk_id"].tolist() == [0, 0, 0, 1]
    assert [list(t) for t in out["tokens"]] == [
        [1, 2, 3], [4, 5, 6, 7, 8], [10, 11, 12, 13, 14],
        [15, 16, 17, 18, 19]]
    assert out["n_tok"].tolist() == [3, 5, 5, 5]
    assert out["tok_sum"].tolist() == [6, 30, 60, 85]
    assert out["tok_first"].tolist() == [1, 4, 10, 15]
    assert out["tok_last"].tolist() == [3, 8, 14, 19]
    assert out["tok_min"].tolist() == [1, 4, 10, 15]
    assert out["tok_max"].tolist() == [3, 8, 14, 19]
    # conservation: every input token appears exactly once, in order
    flat = [t for doc in toks for t in doc]
    assert [t for row in out["tokens"] for t in row] == flat


def test_decontaminate_semantics():
    """A train doc sharing any 16-char shingle with eval is dropped;
    docs shorter than the shingle length have no shingles and always
    survive, even when they are substrings of eval text."""
    import ray.data

    from deltaray.functions.dedup import decontaminate

    ev = pa.table({"doc_id": pa.array([100], pa.int64()),
                   "text": pa.array(["the quick brown fox jumps over it"])})
    train = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            "prefix the quick brown fox suffix",   # shares a 16-shingle
            "completely different content here",   # clean
            "quick brown",                         # < 16 chars: no shingles
        ]),
    })
    stats = {}
    out = decontaminate(ray.data.from_arrow(train), ray.data.from_arrow(ev),
                        shingle_len=16, stats_out=stats).to_pandas()
    assert sorted(out["doc_id"].tolist()) == [2, 3]
    assert stats["eval_shingles"] > 0


def test_stratified_sample_exact_and_deterministic():
    """Per-stratum size is exactly ceil(frac*n_s); the sampled id set is
    identical across block layouts and seeds change it."""
    import ray.data

    from deltaray.functions.partition import stratified_sample

    rng = np.random.default_rng(3)
    src = rng.choice(["a", "b", "c"], size=300, p=[0.5, 0.3, 0.2])
    tbl = pa.table({"doc_id": pa.array(range(300), pa.int64()),
                    "source": pa.array(src)})

    def run(ds, seed=7):
        out = stratified_sample(ds, strata_col="source", frac=0.25,
                                key_cols=["doc_id"], seed=seed,
                                num_partitions=4).to_pandas()
        return out.sort_values("doc_id").reset_index(drop=True)

    one = run(ray.data.from_arrow(tbl))
    # same data in many small blocks → identical sample (combiner-safe)
    many = run(ray.data.from_arrow(
        [tbl.slice(i, 17) for i in range(0, 300, 17)]))
    assert one.equals(many)
    import math
    want = {s: math.ceil(0.25 * int((src == s).sum())) for s in "abc"}
    got = one.groupby("source").size().to_dict()
    assert got == want
    other = run(ray.data.from_arrow(tbl), seed=8)
    assert set(one["doc_id"]) != set(other["doc_id"])
    assert got == other.groupby("source").size().to_dict()


def test_hash_partitioned_tree_merge_matches_flat():
    """A fan-in-capped (tree) merge produces exactly the flat exchange's
    result, including schema-ful empty partitions, across multiple
    combine levels (fanin=2 over 20 blocks -> 5 levels)."""
    from unittest import mock

    import ray.data

    from deltaray import pipeline
    from deltaray.functions.partition import (hash_partitioned,
                                              take_first_per_key)

    rng = np.random.default_rng(11)
    tbl = pa.table({
        "k": pa.array(rng.integers(0, 40, size=400), pa.int64()),
        "v": pa.array(rng.integers(0, 10**6, size=400), pa.int64()),
    })
    blocks = [tbl.slice(i, 20) for i in range(0, 400, 20)]

    def first_per_key(block: pa.Table) -> pa.Table:
        return take_first_per_key(block, ["k", "v"])

    def run(fanin):
        with mock.patch.object(pipeline, "_MERGE_FANIN", fanin):
            out = hash_partitioned(ray.data.from_arrow(blocks), ["k"],
                                   first_per_key, num_partitions=7)
            return out.to_pandas().sort_values(["k", "v"]) \
                .reset_index(drop=True)

    flat = run(256)
    assert flat.equals(run(2))
    assert flat.equals(run(64))  # cap above M: flat path


def test_repetition_score_edges():
    from deltaray.functions.text import repetition_score_batch

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            "abababababababab",   # k=8 grams all drawn from 2 distinct
            "short",              # < 8 chars: 0 ngrams, frac 0
            "abcdefghijklmnop",   # all distinct
        ]),
    })
    out = repetition_score_batch(tbl).to_pandas()
    assert out["total_ngrams"].tolist() == [9, 0, 9]
    assert out["distinct_ngrams"].tolist() == [2, 0, 9]
    assert out["dup_ngram_frac"].tolist() == [1.0 - 2 / 9, 0.0, 0.0]


def test_chunk_sequences_sliding_windows():
    """stride < max_len yields overlapping windows: starts at every
    stride multiple inside the doc, each min(max_len, n-start) long."""
    import ray.data

    from deltaray.functions.text import chunk_sequences

    toks = [list(range(10)), [7], []]
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "tokens": pa.array(toks, pa.list_(pa.int32())),
    })
    out = chunk_sequences(ray.data.from_arrow(tbl), max_len=6, stride=4,
                          with_stats=True).to_pandas()
    out = out.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    assert out["doc_id"].tolist() == [0, 0, 0, 1]
    assert [list(t) for t in out["tokens"]] == [
        [0, 1, 2, 3, 4, 5], [4, 5, 6, 7, 8, 9], [8, 9], [7]]
    assert out["n_tok"].tolist() == [6, 6, 2, 1]
    assert out["tok_sum"].tolist() == [15, 39, 17, 7]
    assert out["tok_first"].tolist() == [0, 4, 8, 7]
    assert out["tok_last"].tolist() == [5, 9, 9, 7]


def test_unigram_stats_semantics():
    """Distributed wordcount→join→doc-reduce equals the obvious Python
    computation; empty/whitespace docs vanish; corpus-unique tokens
    give cnt_min == 1."""
    import ray.data

    from deltaray.functions.text import unigram_stats

    docs = {
        1: "the cat sat on the mat",
        2: "the dog",
        3: "zzzunique the",
        4: "",
        5: "   ",
    }
    tbl = pa.table({"doc_id": pa.array(list(docs), pa.int64()),
                    "text": pa.array(list(docs.values()))})
    out = unigram_stats(ray.data.from_arrow(tbl).repartition(3),
                        num_partitions=4).to_pandas() \
        .set_index("doc_id").sort_index()
    from collections import Counter
    cnt = Counter(t for s in docs.values() for t in s.split())
    for d, s in docs.items():
        toks = s.split()
        if not toks:
            assert d not in out.index
            continue
        assert out.loc[d, "n_tok"] == len(toks)
        assert out.loc[d, "cnt_sum"] == sum(cnt[t] for t in toks)
        assert out.loc[d, "cnt_min"] == min(cnt[t] for t in toks)
    assert out.loc[3, "cnt_min"] == 1  # zzzunique appears once corpus-wide


def test_unigram_stats_cms_bounds():
    """The map-only CMS variant never underestimates the exact path and
    n_tok matches exactly; with a wide sketch the estimates are tight."""
    import ray.data

    from deltaray.functions.text import unigram_stats, unigram_stats_cms

    rng = np.random.default_rng(13)
    words = [f"w{i:03d}" for i in range(200)]
    texts = [" ".join(rng.choice(words, size=rng.integers(1, 60)))
             for _ in range(120)]
    tbl = pa.table({"doc_id": pa.array(range(120), pa.int64()),
                    "text": pa.array(texts)})
    ds = ray.data.from_arrow(tbl).repartition(3)
    exact = unigram_stats(ds, num_partitions=4).to_pandas() \
        .set_index("doc_id").sort_index()
    approx = unigram_stats_cms(ds, width=1 << 16, depth=4).to_pandas() \
        .set_index("doc_id").sort_index()
    assert list(exact.index) == list(approx.index)
    assert (approx["n_tok"] == exact["n_tok"]).all()
    assert (approx["est_cnt_sum"] >= exact["cnt_sum"]).all()
    assert (approx["est_cnt_min"] >= exact["cnt_min"]).all()
    # wide sketch, tiny vocab: estimates are tight (CMS error <= eN)
    rel = (approx["est_cnt_sum"] - exact["cnt_sum"]) / exact["cnt_sum"]
    assert rel.mean() < 0.01


def test_whiten_embeddings_zca():
    """Distributed moment reduce + map-only projection: whitened vectors
    have ~zero mean and ~identity covariance, and match a single-process
    numpy ZCA of the same data."""
    import ray.data

    from deltaray.functions.knn import whiten_embeddings

    rng = np.random.default_rng(17)
    A = rng.standard_normal((12, 12))
    V = rng.standard_normal((500, 12)) @ A + rng.standard_normal(12) * 3
    tbl = pa.table({"vec_id": pa.array(np.arange(500)),
                    "embedding": pa.array(list(V.astype(np.float32)),
                                          pa.list_(pa.float32()))})
    out = whiten_embeddings(ray.data.from_arrow(tbl).repartition(4)) \
        .to_pandas().sort_values("vec_id")
    Z = np.array([np.asarray(e) for e in out["embedding"]], dtype=np.float64)
    assert Z.shape == (500, 12)
    assert np.abs(Z.mean(axis=0)).max() < 1e-3
    cov = (Z - Z.mean(axis=0)).T @ (Z - Z.mean(axis=0)) / len(Z)
    # float32 output storage loosens the identity tolerance
    assert np.abs(cov - np.eye(12)).max() < 1e-2
    # matches single-process ZCA (same eps)
    Vf = np.array([np.asarray(e) for e in
                   tbl["embedding"].to_pylist()], dtype=np.float64)
    mu = Vf.mean(axis=0)
    c = np.cov(Vf.T, bias=True)
    lam, U = np.linalg.eigh(c)
    W = (U * (1.0 / np.sqrt(np.maximum(lam, 0.0) + 1e-5))) @ U.T
    Zref = (Vf - mu) @ W
    assert np.abs(Z - Zref).max() < 1e-3
    assert np.allclose(out["w_norm"], np.linalg.norm(Zref, axis=1), atol=1e-3)


def test_incremental_refresh_antijoin_path(ray_session):
    """broadcast_cap=0 forces the distributed anti-join patch path; the
    patched chunk table must still equal the full recompute."""
    import __ray_entry__ as entrymod

    from tests.conftest import SF_DIR

    # the impl raises if the patched chunk set != full recompute
    t = entrymod._incremental_refresh_impl(SF_DIR, broadcast_cap=0) \
        .to_pandas().iloc[0]
    assert t["n_docs_changed"] > 0


def test_hash_join_all_types_match_pandas(ray_session):
    """inner/left/right/full hash_join == the pandas merge of the same
    frames, including unmatched-side nulls and coalesced keys."""
    import numpy as np
    import ray.data

    from deltaray.functions.joins import hash_join
    from deltaray.util import to_table

    rng = np.random.default_rng(4)
    L = pa.table({"k": rng.integers(0, 200, 500).astype("int64"),
                  "lv": rng.integers(0, 9, 500).astype("int64")})
    R = pa.table({"rk": rng.integers(100, 300, 400).astype("int64"),
                  "rv": rng.integers(0, 9, 400).astype("int64")})
    lds = ray.data.from_arrow(L).repartition(3)
    rds = ray.data.from_arrow(R).repartition(3)
    for how, pd_how in [("inner", "inner"), ("left", "left"),
                        ("right", "right"), ("full", "outer")]:
        got = to_table(hash_join(lds, rds, on="k", right_on="rk", how=how,
                                 num_partitions=8)).to_pandas()
        want = L.to_pandas().merge(
            R.to_pandas().rename(columns={"rk": "k"}), on="k", how=pd_how)
        cols = ["k", "lv", "rv"]
        g = got[cols].astype("float64").fillna(-1) \
            .sort_values(cols).reset_index(drop=True)
        w = want[cols].astype("float64").fillna(-1) \
            .sort_values(cols).reset_index(drop=True)
        assert len(got) == len(want), how
        assert g.equals(w), how
    with pytest.raises(ValueError, match="how must be"):
        hash_join(lds, rds, on="k", right_on="rk", how="cross")


def test_rank_and_lag_per_key(ray_session):
    """rank_per_key/lag_per_key == hand-computed window results,
    including a null payload value and a single-row key."""
    import pandas as pd
    import ray.data

    from deltaray.functions.cdc_queries import lag_per_key, rank_per_key
    from deltaray.util import to_table

    tbl = pa.table({
        "k": pa.array(["a", "a", "a", "b", "b", "c"]),
        "o": pa.array([3, 1, 2, 2, 1, 5], pa.int64()),
        "v": pa.array([30.0, 10.0, None, 200.0, 100.0, 7.0]),
    })
    ds = ray.data.from_arrow(tbl).repartition(3)
    r = to_table(rank_per_key(ds, key="k", order=[("o", "ascending")],
                              num_partitions=4)).to_pandas() \
        .sort_values(["k", "o"]).reset_index(drop=True)
    assert list(r["rn"]) == [1, 2, 3, 1, 2, 1]
    lg = to_table(lag_per_key(ds, key="k", order=[("o", "ascending")],
                              col="v", num_partitions=4)).to_pandas() \
        .sort_values(["k", "o"]).reset_index(drop=True)
    want = [None, 10.0, None, None, 100.0, None]
    got = [None if pd.isna(x) else x for x in lg["prev_value" if
           "prev_value" in lg.columns else "prev_v"]]
    assert got == want


def test_stratified_sample_weighted(ray_session):
    """frac as a {stratum: frac} dict (domain reweighting): per-stratum
    sizes are exactly ceil(frac_s * n_s); absent strata fall back to
    default_frac; the same seed reproduces the same membership."""
    import ray.data

    from deltaray.functions.partition import stratified_sample
    from deltaray.util import to_table

    tbl = pa.table({
        "doc_id": pa.array([f"d{i:03d}" for i in range(90)]),
        "source": pa.array((["web"] * 50) + (["books"] * 30)
                           + (["code"] * 10)),
    })
    ds = ray.data.from_arrow(tbl).repartition(3)
    out = to_table(stratified_sample(
        ds, strata_col="source", frac={"web": 0.3, "books": 1.0},
        key_cols=["doc_id"], seed=5, num_partitions=4))
    counts = {}
    for s in out["source"].to_pylist():
        counts[s] = counts.get(s, 0) + 1
    assert counts == {"web": 15, "books": 30}  # code dropped (default 0)
    out2 = to_table(stratified_sample(
        ds, strata_col="source", frac={"web": 0.3, "books": 1.0},
        key_cols=["doc_id"], seed=5, num_partitions=4))
    assert sorted(out["doc_id"].to_pylist()) == \
        sorted(out2["doc_id"].to_pylist())
    # default_frac keeps absent strata at a floor rate
    out3 = to_table(stratified_sample(
        ds, strata_col="source", frac={"books": 1.0}, default_frac=0.1,
        key_cols=["doc_id"], seed=5, num_partitions=4))
    c3 = {}
    for s in out3["source"].to_pylist():
        c3[s] = c3.get(s, 0) + 1
    assert c3 == {"web": 5, "books": 30, "code": 1}


def test_semdedup_vs_bruteforce(ray_session):
    """SemDeDup (k-means + within-cluster eps-graph components, keep the
    member farthest from its centroid) equals a single-process oracle
    that runs the same algorithm on the same (deterministic) centroids;
    planted exact twins collapse to one keeper with group_size 2."""
    import ray.data

    from deltaray.functions.dedup import semdedup
    from deltaray.functions.knn import _unit, train_centroids_ds
    from deltaray.util import to_table

    rng = np.random.default_rng(17)
    dim, n = 16, 160
    base = rng.standard_normal((n, dim)).astype(np.float32)
    # plant 12 exact duplicates of vectors 0..11 (cosine 1.0 > any eps)
    vecs = np.vstack([base, base[:12]])
    ids = np.arange(len(vecs), dtype=np.int64)
    tbl = pa.table({"vec_id": pa.array(ids),
                    "embedding": pa.array([v.tolist() for v in vecs],
                                          pa.list_(pa.float32()))})
    ds = ray.data.from_arrow(tbl).repartition(4)
    eps, k = 0.05, 6

    out = to_table(semdedup(ds, n_clusters=k, eps=eps, iters=4, seed=3))
    got = sorted(zip(out["vec_id"].to_pylist(),
                     out["group_size"].to_pylist()))

    # oracle: same centroids (trainer is deterministic), same rule
    C = train_centroids_ds(ds, k, iters=4, seed=3)
    U = _unit(vecs.copy())
    sim = U @ C.T
    assign = sim.argmax(axis=1)
    cent = np.round(sim[np.arange(len(U)), assign], 6)
    want = []
    for c in range(k):
        mem = np.nonzero(assign == c)[0]
        if len(mem) == 0:
            continue
        mem = mem[np.argsort(ids[mem])]
        G = U[mem] @ U[mem].T
        parent = list(range(len(mem)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ia, ib = np.nonzero(np.triu(G >= 1 - eps, k=1))
        for a, b in zip(ia, ib):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        roots = np.array([find(i) for i in range(len(mem))])
        for r in np.unique(roots):
            grp = np.nonzero(roots == r)[0]
            keeper = grp[np.argmin(cent[mem[grp]])]
            want.append((int(ids[mem[keeper]]), len(grp)))
    assert got == sorted(want)

    # every planted twin pair collapsed: keeper count = corpus minus
    # absorbed members; the 12 planted twin pairs all merged
    assert len(out) == len(vecs) - sum(g - 1 for _, g in got)
    assert sum(g - 1 for _, g in got) >= 12  # at least the planted pairs

    # deterministic across runs
    out2 = to_table(semdedup(ds, n_clusters=k, eps=eps, iters=4, seed=3))
    assert got == sorted(zip(out2["vec_id"].to_pylist(),
                             out2["group_size"].to_pylist()))


def test_redact_batch_patterns_and_counts():
    from deltaray.functions.text import redact_batch

    t = pa.table({
        "doc_id": [1, 2, 3, 4],
        "text": [
            "mail alice.b-c@corp.example.org today",
            "call 555-867-5309 or ssh 10.0.0.1 now",
            "ssn 987-65-4320 twice 111-22-3333",
            None,
        ],
    })
    out = redact_batch(t)
    texts = out["text"].to_pylist()
    assert texts[0] == "mail [EMAIL] today"
    assert texts[1] == "call [PHONE] or ssh [IP] now"
    assert texts[2] == "ssn [SSN] twice [SSN]"
    assert texts[3] == ""  # null text redacts to empty, never crashes
    assert out["n_email"].to_pylist() == [1, 0, 0, 0]
    assert out["n_phone"].to_pylist() == [0, 1, 0, 0]
    assert out["n_ip"].to_pylist() == [0, 1, 0, 0]
    assert out["n_ssn"].to_pylist() == [0, 0, 2, 0]
    assert out["n_redacted"].to_pylist() == [1, 2, 2, 0]
    assert out["n_redacted"].type == pa.int64()


def test_redact_batch_counts_on_original_text():
    # counts are measured BEFORE any replacement: a phone-shaped span
    # inside an email stays counted even though the email replacement
    # erases it first (the SQL oracle counts on the original too)
    from deltaray.functions.text import redact_batch

    t = pa.table({"text": ["x 555-867-5309@host.com y"]})
    out = redact_batch(t)
    assert out["text"].to_pylist() == ["x [EMAIL] y"]
    assert out["n_email"].to_pylist() == [1]
    assert out["n_phone"].to_pylist() == [1]  # pre-redaction count
    assert out["n_redacted"].to_pylist() == [2]


def test_normalize_batch_and_normalized_dedup(ray_session):
    import ray.data

    from deltaray.functions.dedup import exact_dedup
    from deltaray.functions.text import normalize_batch

    t = pa.table({
        "doc_id": [10, 11, 12, 13, 14],
        "text": ["Hello,   WORLD!", "hello world", "hello  world.",
                 "other doc", None],
    })
    n = normalize_batch(t)
    assert n["text_norm"].to_pylist() == [
        "hello world", "hello world", "hello world", "other doc", ""]
    ds = ray.data.from_arrow(t).map_batches(
        normalize_batch, batch_format="pyarrow")
    out = exact_dedup(ds, text_col="text_norm", id_col="doc_id")
    survivors = sorted(r["doc_id"] for r in out.take_all())
    # min-id per normalized form: 10 keeps the hello-world trio,
    # 13 and 14 are unique forms
    assert survivors == [10, 13, 14]
