"""Property-based replay-vs-oracle equivalence: random stream shapes,
DDL interleavings, orderings, chunkings and partition counts all
reproduce the single-process oracle's final table exactly.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deltaray import (ReplayConfig, TableConfig, pipeline, replay,
                      replay_oracle)
from deltaray.gen import write_event_log
from deltaray.oracle import tables_equal
from deltaray.pipeline import read_table

DDL_CHOICES = [
    ("ALTER_TABLE", {"add": ("lang", "string"), "choices": ["en", "de", "fr"]}),
    ("RENAME_COLUMN", {"rename": ("source", "origin")}),
    ("TRUNCATE_TABLE", {}),
]


@st.composite
def replay_cases(draw):
    n_docs = draw(st.integers(20, 120))
    n_events = draw(st.integers(50, 900))
    seed = draw(st.integers(0, 2**31 - 1))
    unordered = draw(st.booleans())
    mix_ins = draw(st.floats(0.1, 0.6))
    mix_del = draw(st.floats(0.05, 0.4))
    mix = (mix_ins, max(0.0, 1.0 - mix_ins - mix_del), mix_del)
    ddl = []
    picked = draw(st.lists(st.sampled_from(range(len(DDL_CHOICES))),
                           unique=True, max_size=2))
    # drop / drop+re-add scenarios exclude the source rename: the
    # generator (correctly) refuses DDL against a missing column, and
    # this draw targets "source" for the drop
    drop_readd = draw(st.sampled_from([0, 0, 1, 2]))
    if drop_readd:
        picked = [j for j in picked
                  if DDL_CHOICES[j][0] != "RENAME_COLUMN"]
    for j, i in zip(picked,
                    sorted(draw(st.lists(st.integers(0, 800), min_size=len(picked),
                                         max_size=len(picked))))):
        op, kw = DDL_CHOICES[j]
        ddl.append((i, "docs", op, dict(kw)))
    if drop_readd:
        base = draw(st.integers(0, 700))
        ddl.append((base, "docs", "ALTER_TABLE", {"drop": "source"}))
        if drop_readd == 2:
            ddl.append((base + draw(st.integers(1, 150)), "docs",
                        "ALTER_TABLE",
                        {"add": ("source", "string"),
                         "choices": ["x", "y"]}))
    chunk = draw(st.integers(100, 2000))
    parts = draw(st.sampled_from([1, 3, 8]))
    hot = draw(st.sampled_from([0.0, 0.5]))
    compact_every = draw(st.sampled_from([1, 2, 8]))
    track_prev = draw(st.booleans())
    n_sk = draw(st.sampled_from([2, 3]))
    n_tables = draw(st.sampled_from([1, 1, 2]))
    merge_fanin = draw(st.sampled_from([2, 256]))
    pipeline_chunks = draw(st.sampled_from([1, 2, 3]))
    manifest_every = draw(st.sampled_from([0, 2, 64]))
    directives = draw(st.sampled_from([
        [], ["mask tokens 0 3"], ["rename n_tok tok_count"],
        ["retokenize-stub tokens 7"],
    ]))
    return dict(n_docs=n_docs, n_events=n_events, seed=seed,
                unordered=unordered, mix=mix, ddl=ddl, chunk=chunk,
                parts=parts, hot=hot, directives=directives,
                compact_every=compact_every, track_prev=track_prev,
                n_sk=n_sk, n_tables=n_tables, merge_fanin=merge_fanin,
                pipeline_chunks=pipeline_chunks,
                manifest_every=manifest_every)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(case=replay_cases())
def test_random_replay_equals_oracle(case, tmp_path_factory):
    base = tmp_path_factory.mktemp("prop")
    log, lake = str(base / "log"), str(base / "lake")
    # RENAME_COLUMN of 'source' conflicts with a directive renaming it too;
    # the engine would reject at assess time — keep the case valid:
    if case["directives"] == ["rename n_tok tok_count"] and any(
        op == "RENAME_COLUMN" for _, _, op, _ in case["ddl"]
    ):
        case["ddl"] = [d for d in case["ddl"] if d[2] != "RENAME_COLUMN"]
    tables = ("docs", "logs")[: case.get("n_tables", 1)]
    write_event_log(
        log, n_docs=case["n_docs"], n_events=case["n_events"],
        seed=case["seed"], unordered=case["unordered"], mix=case["mix"],
        ddl=case["ddl"], hot_key_frac=case["hot"], tables=tables,
        segment_max_events=max(100, case["chunk"] // 2),
    )
    cfg = ReplayConfig(
        event_log=log, lake=lake, num_partitions=case["parts"],
        chunk_max_events=case["chunk"],
        ordering="UN_ORDERED" if case["unordered"] else "ORDERED",
        compact_every=case["compact_every"],
        track_previous=case["track_prev"],
        sort_key_components=case["n_sk"],
        pipeline_chunks=case.get("pipeline_chunks", 2),
        manifest_every=case.get("manifest_every", 64),
        tables=[TableConfig("docs", transformations=case["directives"])]
        if case["directives"] else [],
    )
    with mock.patch.object(pipeline, "_MERGE_FANIN",
                           case.get("merge_fanin", 256)):
        replay(cfg)
    oracle = replay_oracle(cfg)
    for t in tables:
        if t not in oracle:
            continue  # dropped tables
        got = read_table(lake, t, with_previous=case["track_prev"])
        key = oracle[t].column_names[0]
        ok, msg = tables_equal(got, oracle[t], key=key)
        assert ok, f"{t}: {msg}; case={case}"


# ---- operator-level properties: random data vs pure-numpy/pandas oracles


@st.composite
def keyed_series(draw):
    n = draw(st.integers(1, 400))
    n_keys = draw(st.integers(1, 20))
    seed = draw(st.integers(0, 2**31 - 1))
    return n, n_keys, seed


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=keyed_series())
def test_asof_join_matches_bruteforce(case):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from deltaray.functions.joins import asof_join

    n, n_keys, seed = case
    rng = np.random.default_rng(seed)
    left = pa.table({"k": pa.array(rng.integers(0, n_keys, n)),
                     "t": pa.array(rng.integers(0, 50, n)),
                     "lid": pa.array(np.arange(n))})
    m = max(1, n // 2)
    right = pa.table({"k": pa.array(rng.integers(0, n_keys, m)),
                      "t": pa.array(rng.integers(0, 50, m)),
                      "rid": pa.array(np.arange(m))})
    out = asof_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                    key="k", left_on="t", right_on="t",
                    left_tie="lid", right_tie="rid",
                    right_cols={"rid": "match_rid"}) \
        .to_pandas().sort_values("lid").reset_index(drop=True)
    lk, lt, lid = (left[c].to_numpy() for c in ("k", "t", "lid"))
    rk, rt, rid = (right[c].to_numpy() for c in ("k", "t", "rid"))
    for i in range(n):
        # brute force: max (t, rid) strictly below (lt, lid) with same key
        cand = [(rt[j], rid[j]) for j in range(m)
                if rk[j] == lk[i] and (rt[j], rid[j]) < (lt[i], lid[i])]
        want = max(cand)[1] if cand else None
        got = out["match_rid"][i]
        got = None if got != got else int(got)  # NaN -> None
        assert got == want, (i, got, want, case)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=keyed_series())
def test_sessionize_matches_bruteforce(case):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from deltaray.functions.cdc_queries import sessionize

    n, n_keys, seed = case
    rng = np.random.default_rng(seed)
    gap_us = 60 * 60 * 1_000_000
    t = np.sort(rng.integers(0, 100 * gap_us, n))
    k = rng.integers(0, n_keys, n)
    tbl = pa.table({"u": pa.array(k), "ts": pa.array(t, pa.timestamp("us")),
                    "eid": pa.array(np.arange(n))})
    out = sessionize(ray.data.from_arrow(tbl), key="u", ts_col="ts",
                     tie_col="eid", gap_minutes=60.0).to_pandas()
    # brute force per key
    want_rows = 0
    for key in np.unique(k):
        ts_k = np.sort(t[k == key])
        brk = 1 + int(np.sum(np.diff(ts_k) > gap_us))
        want_rows += brk
        sub = out[out["u"] == key]
        assert len(sub) == brk, (key, case)
        assert sub["n_events"].sum() == len(ts_k)
    assert len(out) == want_rows


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(1, 5000), seed=st.integers(0, 2**31 - 1),
       q=st.floats(0.0, 1.0))
def test_exact_percentiles_matches_numpy(n, seed, q):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from deltaray.functions.stats import exact_percentiles

    rng = np.random.default_rng(seed)
    # duplicates-heavy mix to stress bin/rank bookkeeping
    v = np.concatenate([rng.integers(0, max(1, n // 10), n).astype(float),
                        rng.standard_normal(n)])
    out = exact_percentiles(ray.data.from_arrow(pa.table({"x": pa.array(v)})),
                            "x", [q], num_bins=32, max_pull=64)
    sv = np.sort(v)
    want = sv[int(np.floor((len(v) - 1) * q))]
    assert out["value"].to_pylist() == [want], (n, seed, q)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(1, 120), m=st.integers(1, 60),
       width=st.sampled_from([3, 10, 37]), seed=st.integers(0, 2**31 - 1))
def test_range_join_matches_bruteforce(n, m, width, seed):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from deltaray.functions.joins import range_join

    rng = np.random.default_rng(seed)
    pts = pa.table({"t": pa.array(rng.integers(0, 200, n)),
                    "pid": pa.array(np.arange(n))})
    s = rng.integers(0, 200, m)
    ln = rng.integers(0, 80, m)
    ivals = pa.table({"s": pa.array(s), "e": pa.array(s + ln),
                      "iid": pa.array(np.arange(m))})
    out = range_join(
        ray.data.from_arrow(pts), ray.data.from_arrow(ivals),
        point_col="t", start_col="s", end_col="e", bucket_width=width,
        point_cols={"pid": "pid"}, interval_cols={"iid": "iid"},
    ).to_pandas()
    # Ray drops the schema of fully-empty datasets — no columns = no pairs
    got = ([] if out.empty else
           sorted(map(tuple, out[["pid", "iid"]].itertuples(index=False,
                                                            name=None))))
    t = pts["t"].to_numpy()
    want = sorted((int(pi), int(ii)) for pi in range(n) for ii in range(m)
                  if s[ii] <= t[pi] <= s[ii] + ln[ii])
    assert got == want, (n, m, width, seed)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**31 - 1), max_len=st.integers(1, 9),
       stride=st.one_of(st.none(), st.integers(1, 9)),
       n_docs=st.integers(1, 25))
def test_chunk_sequences_matches_python_slicing(seed, max_len, stride,
                                                n_docs):
    """chunk_sequences == naive per-doc Python slicing for every
    (max_len, stride) combination, including overlap (stride < max_len)
    and gaps (stride > max_len)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from deltaray.functions.text import chunk_sequences
    from deltaray.util import to_pandas

    rng = np.random.default_rng(seed)
    toks = [list(map(int, rng.integers(0, 100, rng.integers(0, 30))))
            for _ in range(n_docs)]
    tbl = pa.table({"doc_id": pa.array(range(n_docs), pa.int64()),
                    "tokens": pa.array(toks, pa.list_(pa.int32()))})
    # to_pandas (deltaray.util): an all-zero-token corpus yields zero
    # chunks, and raw Dataset.to_pandas drops the schema of empty results
    out = to_pandas(chunk_sequences(ray.data.from_arrow(tbl).repartition(3),
                                    max_len=max_len, stride=stride))
    out = out.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    step = max_len if stride is None else stride
    want = [(d, c, t[c * step:c * step + max_len])
            for d, t in enumerate(toks)
            for c in range(-(-len(t) // step) if t else 0)]
    got = [(int(r.doc_id), int(r.chunk_id), list(r.tokens))
           for r in out.itertuples(index=False)]
    assert got == want, (seed, max_len, stride)
    assert (out["n_tok"] == out["tokens"].map(len)).all()


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**31 - 1),
       n_docs=st.integers(30, 120),
       n_events=st.integers(200, 1200),
       chunk=st.integers(100, 500),
       unordered=st.booleans(),
       truncate=st.booleans(),
       alter=st.booleans(),
       optimize=st.booleans(),
       manifest=st.sampled_from([0, 2]))
def test_time_travel_property(seed, n_docs, n_events, chunk, unordered,
                              truncate, alter, optimize, manifest,
                              tmp_path_factory):
    """For random stream shapes/chunkings/orderings (optionally with a
    mid-stream TRUNCATE and/or an ALTER COLUMN TYPE, optionally with
    the whole lake re-clustered by OPTIMIZE afterwards): a random
    snapshot anchor reproduces the truncated-log oracle, and the
    bounded change feed obeys asof(s1) + changes(s1→s2) == asof(s2) —
    including the synthetic DELETEs a window-crossing marker owes."""
    import glob
    import os
    import shutil

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from deltaray.pipeline import read_changes, read_table_ds, snapshots
    from deltaray.util import to_table

    base = tmp_path_factory.mktemp("tt_prop")
    log, lake = str(base / "events"), str(base / "lake")
    ddl = [(n_events // 2, "docs", "TRUNCATE_TABLE", {})] if truncate \
        else []
    if alter:
        ddl.append((n_events // 3, "docs", "ALTER_TABLE",
                    {"alter": ("n_tok", "int64")}))
    write_event_log(log, n_docs=n_docs, n_events=n_events, seed=seed,
                    segment_max_events=max(100, n_events // 4),
                    unordered=unordered, ddl=ddl)
    cfg = ReplayConfig(event_log=log, lake=lake, num_partitions=3,
                       chunk_max_events=chunk, vacuum=False,
                       ordering="UN_ORDERED" if unordered else "ORDERED",
                       manifest_every=manifest)
    replay(cfg)
    if optimize:
        from deltaray.pipeline import optimize_table
        optimize_table(lake, "docs", "n_tok", vacuum=False,
                       row_group_rows=64)
    snaps = snapshots(lake)
    assert snaps
    rng = np.random.default_rng(seed)
    S = snaps[int(rng.integers(0, len(snaps)))]
    got = read_table(lake, "docs", asof_seq=S)
    # truncated-log oracle
    d = str(base / f"trunc{S}")
    os.makedirs(d, exist_ok=True)
    # one output file per kept segment: a DDL barrier legitimately
    # changes the segment schema (e.g. ALTER TYPE), so they can't concat
    for si, f in enumerate(sorted(glob.glob(os.path.join(log,
                                                         "*.parquet")))):
        t = pq.read_table(f).filter(
            pc.less_equal(pq.read_table(f, columns=["seq"])["seq"], S))
        if t.num_rows:
            lo, hi = (pc.min_max(t["seq"])[k].as_py()
                      for k in ("min", "max"))
            pq.write_table(t, os.path.join(
                d, f"events-{si:05d}-{lo:012d}-{hi:012d}.parquet"))
    want = replay_oracle(ReplayConfig(
        event_log=d, lake=str(base / "unused"),
        ordering=cfg.ordering))["docs"]
    ok, msg = tables_equal(got, want)
    assert ok, f"asof {S}: {msg}"
    # the distributed scan through the same per-partition read
    got_ds = to_table(read_table_ds(lake, "docs", asof_seq=S)) \
        .sort_by("doc_id")
    ok, msg = tables_equal(got_ds, want)
    assert ok, f"read_table_ds asof {S}: {msg}"
    # patch law on a random anchor pair
    s_pair = sorted(rng.choice([0] + snaps, size=2, replace=False))
    s1, s2 = int(s_pair[0]), int(s_pair[1])
    basekv = {r["doc_id"]: r for r in
              read_table(lake, "docs", asof_seq=s1).to_pylist()}
    for r in sorted(to_table(read_changes(lake, "docs", since_seq=s1,
                                          as_of_seq=s2)).to_pylist(),
                    key=lambda r: r["seq"]):
        if r["change"] == "DELETE":
            basekv.pop(r["doc_id"], None)
        else:
            basekv[r["doc_id"]] = {k: v for k, v in r.items()
                                   if k not in ("change", "seq")}
    wstate = {r["doc_id"]: r for r in
              read_table(lake, "docs", asof_seq=s2).to_pylist()}
    assert basekv == wstate, (seed, s1, s2)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**31 - 1), k=st.integers(2, 6),
       n_docs=st.integers(5, 40), vocab=st.integers(3, 60))
def test_dedup_spans_property(seed, k, n_docs, vocab):
    """Random corpora (small vocab → organic window collisions) match
    the brute-force global-first-occurrence excision rule exactly, in
    both text and tokens modes."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from deltaray.functions.dedup import dedup_spans
    from deltaray.util import to_pandas

    rng = np.random.default_rng(seed)
    docs = {f"d{i:03d}": [int(x) for x in
                          rng.integers(0, vocab, int(rng.integers(0, 30)))]
            for i in range(n_docs)}

    def brute(docs, k):
        occ: dict = {}
        for d in sorted(docs):
            t = docs[d]
            for p in range(max(0, len(t) - k + 1)):
                occ.setdefault(tuple(t[p:p + k]), []).append((d, p))
        removals: dict = {}
        for w, os_ in occ.items():
            if len(os_) < 2:
                continue
            keeper = min(os_)
            for dd, p in os_:
                if (dd, p) != keeper:
                    removals.setdefault(dd, []).append(p)
        out = {}
        for d in sorted(docs):
            t = docs[d]
            drop = np.zeros(len(t) + 1, dtype=int)
            for p in removals.get(d, []):
                drop[p] += 1
                drop[min(p + k, len(t))] -= 1
            mask = (np.cumsum(drop[:-1]) == 0 if len(t)
                    else np.array([], bool))
            out[d] = [tok for tok, m in zip(t, mask) if m]
        return out

    want = brute(docs, k)
    tok_tbl = pa.table({
        "doc_id": pa.array(sorted(docs)),
        "tokens": pa.array([docs[d] for d in sorted(docs)],
                           pa.list_(pa.int32()))})
    got = to_pandas(dedup_spans(
        ray.data.from_arrow(tok_tbl).repartition(3), k=k,
        tokens_col="tokens", num_partitions=4)).set_index("doc_id")
    for d, kept in want.items():
        assert list(got.loc[d]["tokens"]) == kept, (seed, k, d)
    txt_tbl = pa.table({
        "doc_id": pa.array(sorted(docs)),
        "text": pa.array([" ".join(f"t{x}" for x in docs[d])
                          for d in sorted(docs)])})
    got2 = to_pandas(dedup_spans(
        ray.data.from_arrow(txt_tbl).repartition(3), k=k,
        num_partitions=4)).set_index("doc_id")
    for d, kept in want.items():
        assert got2.loc[d]["text"] == " ".join(f"t{x}" for x in kept), \
            (seed, k, d)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(
    st.none(),
    st.text(alphabet=st.characters(codec="utf-8",
                                   exclude_categories=("Cs",)),
            max_size=80),
    st.sampled_from([
        "a@b.co", "x 555-867-5309", "10.0.0.1 ssn 987-65-4320",
        "a.b@c.d.ee 1.2.3.4", "111-22-3333@9.9.9.9",
    ])), min_size=1, max_size=20))
def test_redact_and_normalize_idempotent(texts):
    """Redaction and normalization are fixed points on their own output
    (replacement tokens contain no digits, normalized text is already
    lowercase/collapsed/trimmed), and counts on redacted text are zero."""
    import pyarrow as pa

    from deltaray.functions.text import normalize_batch, redact_batch

    t = pa.table({"text": pa.array(texts, pa.string())})
    once = redact_batch(t)
    twice = redact_batch(pa.table({"text": once["text"]}))
    assert once["text"].to_pylist() == twice["text"].to_pylist()
    assert twice["n_redacted"].to_pylist() == [0] * len(texts)

    n1 = normalize_batch(t)["text_norm"]
    n2 = normalize_batch(pa.table({"text": n1}))["text_norm"]
    assert n1.to_pylist() == n2.to_pylist()


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**31 - 1),
       n_docs=st.integers(30, 120),
       n_events=st.integers(400, 1400),
       chunk=st.integers(150, 450),
       compact=st.integers(1, 3),
       unordered=st.booleans(),
       truncate=st.booleans(),
       manifest=st.sampled_from([0, 2]))
def test_retention_property(seed, n_docs, n_events, chunk, compact,
                            unordered, truncate, manifest,
                            tmp_path_factory):
    """For random stream shapes/chunkings/compaction cadences/orderings
    (optionally with a mid-stream TRUNCATE) and a random retain anchor
    R: every anchor >= R reads identically to its pre-expiry state,
    every anchor < R raises SnapshotExpiredError, the current state
    still equals the oracle, and a second expiry is a no-op."""
    import numpy as np

    from deltaray.pipeline import (SnapshotExpiredError, expire_snapshots,
                                   snapshots)

    base = tmp_path_factory.mktemp("ret_prop")
    log, lake = str(base / "events"), str(base / "lake")
    ddl = [(n_events // 2, "docs", "TRUNCATE_TABLE", {})] if truncate else []
    write_event_log(log, n_docs=n_docs, n_events=n_events, seed=seed,
                    segment_max_events=max(100, n_events // 4),
                    unordered=unordered, ddl=ddl)
    cfg = ReplayConfig(event_log=log, lake=lake, num_partitions=3,
                       chunk_max_events=chunk, vacuum=False,
                       ordering="UN_ORDERED" if unordered else "ORDERED",
                       compact_every=compact, manifest_every=manifest)
    replay(cfg)
    snaps = snapshots(lake)
    assert snaps
    rng = np.random.default_rng(seed)
    R = int(snaps[int(rng.integers(0, len(snaps)))])
    before = {s: read_table(lake, "docs", asof_seq=s)
              for s in snaps if s >= R}
    expire_snapshots(lake, "docs", retain_since_seq=R)
    for s in snaps:
        if s >= R:
            ok, msg = tables_equal(
                read_table(lake, "docs", asof_seq=s), before[s])
            assert ok, (seed, s, msg)
        else:
            with pytest.raises(SnapshotExpiredError):
                read_table(lake, "docs", asof_seq=s)
    want = replay_oracle(cfg)["docs"]
    ok, msg = tables_equal(read_table(lake, "docs"), want)
    assert ok, (seed, msg)
    res2 = expire_snapshots(lake, "docs", retain_since_seq=R)
    assert res2["files_removed"] == 0


@st.composite
def reseg_cases(draw):
    return dict(
        n_docs=draw(st.integers(30, 120)),
        n_events=draw(st.integers(400, 1500)),
        seed=draw(st.integers(0, 2**31 - 1)),
        seg=draw(st.sampled_from([100, 250, 400])),
        prefix_segs=draw(st.integers(1, 3)),
        chunk_coarse=draw(st.sampled_from([10**9, 500])),
        chunk_fine=draw(st.sampled_from([100, 250, 1000])),
        vacuum=draw(st.booleans()),
        parts=draw(st.sampled_from([1, 3, 4])),
        compact_every=draw(st.sampled_from([1, 2, 8])),
    )


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(case=reseg_cases())
def test_resegmented_rereplay_property(case, tmp_path_factory):
    """Replaying the SAME events under two segmentations into one lake
    (coarse prefix, then the fine full log) must land on the oracle
    state — overlapping chunk re-application is LWW-idempotent and the
    commit-range file naming keeps overlapping commits' files distinct,
    for every combination of chunk size, compaction cadence and vacuum
    setting."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    base = tmp_path_factory.mktemp("reseg")
    log, lake = str(base / "log"), str(base / "lake")
    write_event_log(log, n_docs=case["n_docs"], n_events=case["n_events"],
                    seed=case["seed"], segment_max_events=case["seg"])
    segs = sorted(glob.glob(os.path.join(log, "*.parquet")))
    k = min(case["prefix_segs"], len(segs))
    pre = pa.concat_tables([pq.read_table(f) for f in segs[:k]])
    coarse = str(base / "coarse")
    os.makedirs(coarse)
    # write the coarse prefix as chunk_coarse-sized SEGMENT FILES:
    # chunks split only at segment boundaries, so a single file would
    # make the chunk_coarse draw inert (the coarse replay would always
    # be one chunk and coarse commits with lo > 0 would never overlap
    # fine commits)
    step = min(case["chunk_coarse"], pre.num_rows) or pre.num_rows
    for si, off in enumerate(range(0, pre.num_rows, step)):
        sl = pre.slice(off, step)
        pq.write_table(sl, os.path.join(
            coarse, f"events-{si:05d}-{sl['seq'][0].as_py():012d}-"
                    f"{sl['seq'][-1].as_py():012d}.parquet"))
    replay(ReplayConfig(event_log=coarse, lake=lake,
                        num_partitions=case["parts"],
                        chunk_max_events=case["chunk_coarse"],
                        compact_every=case["compact_every"],
                        vacuum=case["vacuum"]))
    replay(ReplayConfig(event_log=log, lake=lake,
                        num_partitions=case["parts"],
                        chunk_max_events=case["chunk_fine"],
                        compact_every=case["compact_every"],
                        vacuum=case["vacuum"]))
    cfg = ReplayConfig(event_log=log, lake=lake,
                       num_partitions=case["parts"])
    want = replay_oracle(cfg)["docs"]
    got = read_table(lake, "docs")
    ok, msg = tables_equal(got, want, key="doc_id")
    assert ok, f"{case}: {msg}"

    # every advertised anchor either raises (vacuumed / interior to a
    # coarser commit) or equals the truncated-log oracle — an as-of
    # read must never silently serve wrong state
    import pyarrow.compute as pc

    from deltaray import SnapshotExpiredError, snapshots

    anchors = snapshots(lake)
    for S in dict.fromkeys(anchors[:2] + anchors[-2:]):
        try:
            at = read_table(lake, "docs", asof_seq=S)
        except SnapshotExpiredError:
            continue
        tdir = str(base / f"trunc{S}")
        os.makedirs(tdir, exist_ok=True)
        for f in segs:
            tt = pq.read_table(f)
            tt = tt.filter(pc.less_equal(tt["seq"], S))
            if tt.num_rows:
                pq.write_table(tt, os.path.join(tdir, os.path.basename(f)))
        want_s = replay_oracle(ReplayConfig(
            event_log=tdir, lake=str(base / "unused")))["docs"]
        ok, msg = tables_equal(at, want_s, key="doc_id")
        assert ok, f"{case}: asof {S}: {msg}"
