"""Text-analysis operators for training-data pipelines: token counting,
quality scoring, language ID, document fingerprinting.

All are stateless vectorized ``map_batches`` transforms over Arrow
batches; the language-ID stage is a callable class (actor pool) because
it holds compiled profile tables (the "model loaded once per actor"
slot).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_WS = r"\s+"
# BPE-ish word/number/punct splitter (public GPT-2-style pattern family)
_BPEISH = r"[A-Za-z]+|[0-9]|[^A-Za-z0-9\s]"


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Whitespace token count + BPE-ish token count per doc (vectorized
    pyarrow regex kernels)."""
    text = pc.utf8_trim_whitespace(batch[text_col])
    ws = pc.list_value_length(pc.split_pattern_regex(text, _WS)).cast(pa.int64())
    # splitting "" yields one empty token — an empty/whitespace-only doc
    # has ZERO tokens (the SQL oracle mirrors this with a CASE)
    ws = pc.if_else(pc.equal(pc.utf8_length(text), 0),
                    pa.scalar(0, pa.int64()), ws)
    bpe = pc.count_substring_regex(text, _BPEISH).cast(pa.int64())
    return batch.append_column("n_ws_tokens", ws).append_column("n_bpe_tokens", bpe)


def quality_score_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Quality heuristics as integer counts (deterministic, oracle-friendly):
    chars, punctuation, digits, uppercase, stopword hits."""
    text = batch[text_col]
    n_chars2 = pc.utf8_length(text).cast(pa.int64())
    n_punct = pc.count_substring_regex(text, r"[.,;:!?]").cast(pa.int64())
    n_digit = pc.count_substring_regex(text, r"[0-9]").cast(pa.int64())
    n_upper = pc.count_substring_regex(text, r"[A-Z]").cast(pa.int64())
    n_stop = pc.count_substring_regex(
        text, r"\b(the|and|of|a|to|in|is|it)\b"
    ).cast(pa.int64())
    out = batch
    for name, col in [
        ("q_chars", n_chars2),
        ("q_punct", n_punct),
        ("q_digit", n_digit),
        ("q_upper", n_upper),
        ("q_stop", n_stop),
    ]:
        out = out.append_column(name, col)
    return out


def token_topk(ds, *, text_col: str = "text", top_k: int = 20,
               num_partitions: int = 16) -> pa.Table:
    """Global top-k token frequency (distributed wordcount): lowercase →
    whitespace split → flatten → per-batch partial counts (the combiner
    that bounds shuffle volume by vocabulary, not corpus size) → hash
    exchange on token → per-partition exact totals + per-partition top-k.
    Only ``num_partitions × top_k`` candidate rows ever reach the driver —
    a 10^9-token vocabulary never materializes anywhere (each partition
    holds its share of the vocab; a token's total is exact within its one
    partition, so the global top-k is a subset of the per-partition
    top-ks).  Empty tokens (leading/trailing whitespace artifacts) are
    dropped on both the engine and oracle sides.  Ties at rank k break by
    token text ascending so the result is deterministic."""
    from deltaray.functions.partition import hash_partitioned

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.utf8_lower(batch[text_col]), _WS)
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        t = pa.table({"token": flat}).group_by("token").aggregate(
            [([], "count_all")])
        return t.rename_columns(["token", "n_part"])

    def part_topk(block: pa.Table) -> pa.Table:
        if block.num_rows == 0:
            return pa.table({"token": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        t = block.group_by("token").aggregate([("n_part", "sum")])
        t = t.rename_columns(["token", "n"])
        t = t.set_column(1, "n", t["n"].cast(pa.int64()))
        return t.sort_by([("n", "descending"), ("token", "ascending")]) \
            .slice(0, top_k)

    cand = hash_partitioned(ds.map_batches(partial, batch_format="pyarrow"),
                            ["token"], part_topk,
                            num_partitions=num_partitions)
    # driver sees ≤ num_partitions × top_k candidate rows, never the vocab
    tbl = pa.concat_tables(list(cand.iter_batches(batch_format="pyarrow")),
                           promote_options="default")
    return tbl.sort_by([("n", "descending"), ("token", "ascending")]) \
        .slice(0, top_k)


def train_langid_model(corpus: dict[str, list[str]], *, n: int = 3,
                       vocab_per_lang: int = 4000) -> pa.Table:
    """Train loadable language-ID profiles: per language, the top
    ``vocab_per_lang`` byte n-grams by frequency with add-one-smoothed
    log probabilities (the Cavnar-Trenkle / fastText-supervised shape).
    Returns the model as a Parquet-ready table ``(lang, ngram:binary,
    logp:float64)`` with the n-gram order and per-language unseen-ngram
    floors pinned in schema metadata — persist with ``pq.write_table``
    and load with ``LangId(model_path=...)``.  Training is offline
    driver-side by design; scoring is the distributed stage."""
    import json as _json

    langs, ngrams, logps, floors = [], [], [], {}
    for lang in sorted(corpus):
        wins = []
        for t in corpus[lang]:
            b = np.frombuffer((t or "").encode("utf-8"), dtype=np.uint8)
            if len(b) >= n:
                wins.append(np.lib.stride_tricks.sliding_window_view(b, n))
        if not wins:
            raise ValueError(f"no trainable text for language {lang!r}")
        allw = np.concatenate(wins)
        uniq, counts = np.unique(allw, axis=0, return_counts=True)
        top = np.argsort(-counts, kind="stable")[:vocab_per_lang]
        total = int(counts.sum())
        V = len(uniq)
        lp = np.log((counts[top] + 1.0) / (total + V))
        floors[lang] = float(np.log(1.0 / (total + V)))
        langs.extend([lang] * len(top))
        ngrams.extend(bytes(r) for r in uniq[top])
        logps.extend(lp.tolist())
    meta = {b"deltaray_langid": _json.dumps(
        {"n": int(n), "floors": floors}).encode()}
    return pa.table({"lang": pa.array(langs, pa.string()),
                     "ngram": pa.array(ngrams, pa.binary()),
                     "logp": pa.array(logps, pa.float64())}) \
        .replace_schema_metadata(meta)


class LangId:
    """Character-n-gram language ID (actor-pool stage: the model loads
    once per actor in ``__init__``, scoring is vectorized per batch).

    With ``model_path``, loads trained profiles (see
    :func:`train_langid_model`) and scores each document as the mean
    smoothed log probability of its byte n-grams per language (unseen
    n-grams take the language's floor), argmax over languages — one flat
    shingle-hash pass plus a searchsorted lookup per batch, no per-doc
    Python.  Without a model, falls back to the tiny built-in regex
    profiles (honestly toy; kept for oracle-mirrored driver checks).

    Reference seam note: the reference loads its transformation plugins
    once per worker (DeltaWorker.java:246-267); this is the same
    state-in-init contract for model files."""

    PROFILES = {
        "en": ["the", "and", "ing", "ion", "he ", " th"],
        "de": ["der", "die", "und", "ein", "sch", "ich"],
        "fr": ["les", "des", "ent", "que", " de", "ion"],
        "es": ["que", " de", "los", "ión", "ent", "ar "],
    }

    def __init__(self, model_path: str | None = None):
        import json as _json

        self.model_path = model_path
        if model_path is None:
            self.langs = sorted(self.PROFILES)
            self.pats = {l: re.compile("|".join(map(re.escape, g)))
                         for l, g in self.PROFILES.items()}
            return
        import pyarrow.parquet as pq

        tbl = pq.read_table(model_path)
        meta = _json.loads(tbl.schema.metadata[b"deltaray_langid"])
        self.n = int(meta["n"])
        self.langs = sorted(meta["floors"])
        self.floors = np.array([meta["floors"][l] for l in self.langs],
                               dtype=np.float64)
        lang_idx = {l: i for i, l in enumerate(self.langs)}
        grams = tbl["ngram"].to_pylist()
        # hash each model n-gram with the SAME rolling polynomial the
        # batch kernel uses, so lookups compare like with like
        mat = np.frombuffer(b"".join(grams), dtype=np.uint8) \
            .reshape(len(grams), self.n).astype(np.uint64)
        weights = np.uint64(31) ** np.arange(self.n, dtype=np.uint64)
        h = (mat * weights).sum(axis=1)
        order = np.argsort(h, kind="stable")
        self.hashes = h[order]
        li = np.array([lang_idx[l] for l in tbl["lang"].to_pylist()],
                      dtype=np.int64)[order]
        lp = tbl["logp"].to_numpy(zero_copy_only=False)[order]
        # (vocab, n_langs) log-prob matrix, floor-filled; identical
        # hashes across languages collapse onto one row
        uniq, inv = np.unique(self.hashes, return_inverse=True)
        self.hashes = uniq
        self.logp = np.tile(self.floors, (len(uniq), 1))
        self.logp[inv, li] = lp

    def _call_model(self, batch: pa.Table) -> pa.Table:
        from deltaray.functions.dedup import _shingle_hashes_flat

        col = batch["text"]
        flat, offs = _shingle_hashes_flat(col, self.n)
        nbytes = pc.binary_length(pc.fill_null(
            col.combine_chunks(), "")).to_numpy(zero_copy_only=False)
        ok = nbytes >= self.n
        pos = np.searchsorted(self.hashes, flat)
        pos[pos == len(self.hashes)] = 0
        hit = self.hashes[pos] == flat
        contrib = np.where(hit[:, None], self.logp[pos],
                           self.floors[None, :])
        counts = np.diff(offs)
        scores = np.add.reduceat(contrib, offs[:-1], axis=0) \
            / counts[:, None] if len(flat) else \
            np.zeros((0, len(self.langs)))
        guess = np.array(self.langs, dtype=object)[
            scores.argmax(axis=1)] if len(scores) else \
            np.empty(0, dtype=object)
        guess[~ok] = "unk"  # sub-n docs have no n-grams to score
        return batch.append_column("lang_guess",
                                   pa.array(guess, pa.string()))

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.model_path is not None:
            return self._call_model(batch)
        texts = batch["text"].to_pylist()
        scores = np.zeros((len(texts), len(self.langs)), dtype=np.int64)
        for j, l in enumerate(self.langs):
            pat = self.pats[l]
            scores[:, j] = [len(pat.findall(t or "")) for t in texts]
        best = scores.argmax(axis=1)
        none = scores.max(axis=1) == 0
        guess = np.array(self.langs, dtype=object)[best]
        guess[none] = "unk"
        return batch.append_column("lang_guess", pa.array(guess, pa.string()))


def pack_sequences(ds, *, max_len: int, id_col: str = "doc_id",
                   tokens_col: str = "tokens", num_partitions: int = 64):
    """Pack variable-length token documents into training sequences of at
    most ``max_len`` tokens (greedy first-fit in doc-id order) — the
    standard LM-pretraining packing pass.

    Deterministic and distributed: documents are hash-partitioned by id,
    each partition packs ITS documents in sorted id order, and pack ids
    are ``partition * 2^32 + ordinal`` — same num_partitions → identical
    output regardless of input block layout.  A document longer than
    ``max_len`` becomes its own (oversized) pack; nothing is truncated
    or dropped, so Σ tokens is preserved exactly.

    Output rows: (pack_id, tokens:list<int32>, n_docs, n_tokens,
    doc_ids:list).  The per-partition pass is a numpy cumsum/boundary
    computation plus ONE ListArray rebuild — no per-token Python.
    """
    from deltaray.functions.partition import hash_partitioned

    def pack_block(block: pa.Table) -> pa.Table:
        # empty placeholder derives types from THIS block's schema —
        # a hardcoded (list<string>, list<int32>) placeholder used to
        # leak a mixed-schema block when a partition held no docs
        tok_val_t = block.schema.field(tokens_col).type.value_type
        id_t = block.schema.field(id_col).type
        empty = pa.table({
            "pack_id": pa.array([], pa.int64()),
            "tokens": pa.array([], pa.list_(tok_val_t)),
            "n_docs": pa.array([], pa.int32()),
            "n_tokens": pa.array([], pa.int32()),
            "doc_ids": pa.array([], pa.list_(id_t)),
        })
        if block.num_rows == 0:
            return empty
        g = block.sort_by(id_col)
        toks = g[tokens_col]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        part = int(g["__pack_part"][0].as_py())
        # greedy first-fit over sorted docs: running fill, new pack when
        # the next doc would overflow (oversized docs get their own pack)
        n = len(lens)
        pack_of = np.empty(n, dtype=np.int64)
        fill = 0
        pid = -1
        for i in range(n):  # O(#docs) scalar loop — docs, not tokens
            if pid < 0 or fill + lens[i] > max_len:
                pid += 1
                fill = 0
            pack_of[i] = pid
            fill += lens[i]
        n_packs = pid + 1
        # docs are already contiguous per pack (monotone pack_of): one
        # ListArray rebuild over the flat values buffer
        boundaries = np.flatnonzero(np.diff(pack_of)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [n]])
        flat = toks.flatten()
        # int64 offsets: a partition past 2^31 tokens must not overflow
        # silently (the final list<> cast raises explicitly instead —
        # raise num_partitions at that point)
        tok_offsets = np.concatenate(
            [[0], np.cumsum(lens)])[np.concatenate([starts, [n]])]
        packed = pa.LargeListArray.from_arrays(
            pa.array(tok_offsets, pa.int64()), flat).cast(pa.list_(tok_val_t))
        ids = g[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        id_offsets = pa.array(np.concatenate([starts, [n]]).astype(np.int64))
        doc_ids = pa.LargeListArray.from_arrays(id_offsets, ids) \
            .cast(pa.list_(id_t))
        return pa.table({
            "pack_id": pa.array(part * (1 << 32)
                                + np.arange(n_packs, dtype=np.int64)),
            "tokens": packed,
            "n_docs": pa.array((ends - starts).astype(np.int32)),
            "n_tokens": pa.array(
                np.add.reduceat(lens, starts).astype(np.int32)),
            "doc_ids": doc_ids,
        })

    def tag_part(batch: pa.Table) -> pa.Table:
        # partition id must be visible inside the block fn for stable
        # pack ids; reuse the exchange's own hash so they agree
        from deltaray.functions.partition import _hash_cols

        part = (_hash_cols(batch, [id_col])
                % np.uint64(num_partitions)).astype(np.int64)
        return batch.append_column("__pack_part", pa.array(part))

    tagged = ds.map_batches(tag_part, batch_format="pyarrow")
    return hash_partitioned(tagged, [id_col], pack_block,
                            num_partitions=num_partitions)


def repetition_score_batch(batch: pa.Table, text_col: str = "text",
                           k: int = 8) -> pa.Table:
    """Within-document repetition signal (the duplicate-n-gram-fraction
    family of quality heuristics from published LM data-curation work):
    per doc, the fraction of character ``k``-gram occurrences that are
    repeats of an earlier occurrence — ``1 - distinct/total``.  High
    values flag boilerplate/spam/template text.  Docs shorter than
    ``k`` score 0 over 0 n-grams.

    Stateless map-only stage (no shuffle); n-grams hash via the
    batch-wide flat rolling-hash kernel shared with the dedup
    shinglers, per-doc distinct counts via ONE lexsort over
    (doc, hash) — no per-document Python.
    """
    import pyarrow.compute as pc

    from deltaray.functions.dedup import _shingle_hashes_flat

    n = batch.num_rows
    col = batch[text_col]
    flat, offs = _shingle_hashes_flat(col, k)
    counts = np.diff(offs)
    doc_ix = np.repeat(np.arange(n, dtype=np.int64), counts)
    order = np.lexsort((flat, doc_ix))
    f2, d2 = flat[order], doc_ix[order]
    new = np.ones(len(f2), dtype=bool)
    if len(f2) > 1:
        new[1:] = (d2[1:] != d2[:-1]) | (f2[1:] != f2[:-1])
    distinct_all = np.bincount(d2[new], minlength=n).astype(np.int64) \
        if len(f2) else np.zeros(n, np.int64)
    nchars = pc.utf8_length(pc.fill_null(
        col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col,
        "")).to_numpy(zero_copy_only=False)
    valid = nchars >= k
    total = np.where(valid, counts, 0).astype(np.int64)
    distinct = np.where(valid, distinct_all, 0).astype(np.int64)
    dup = np.zeros(n, dtype=np.float64)
    nz = total > 0
    dup[nz] = 1.0 - distinct[nz] / total[nz]
    return (batch.append_column("total_ngrams", pa.array(total))
                 .append_column("distinct_ngrams", pa.array(distinct))
                 .append_column("dup_ngram_frac", pa.array(dup)))


def chunk_sequences(ds, *, max_len: int, stride: int | None = None,
                    id_col: str = "doc_id", tokens_col: str = "tokens",
                    with_stats: bool = False):
    """Split each document's token array into training chunks of at
    most ``max_len`` tokens (the LM context-window chunking pass;
    pack_sequences' complement for OVER-long docs).

    Chunk ``c`` of a doc starts at token ``c*stride`` (``stride``
    defaults to ``max_len`` — disjoint tiling) and holds
    ``min(max_len, n - c*stride)`` tokens; chunks exist while their
    start is inside the doc.  ``stride < max_len`` gives the
    overlapping sliding windows used for long-document eval /
    continued-pretraining; with the default tiling nothing is dropped
    or padded, so Σ n_tok over chunks == Σ tokens over docs exactly.
    A doc with zero tokens yields zero chunks.

    Embarrassingly parallel — a pure per-batch transform, NO shuffle.
    With the default tiling, chunk boundaries refine doc boundaries,
    so the output ListArray reuses the input's flat values buffer
    zero-copy with a denser offsets vector; overlapping windows
    necessarily gather (output tokens > input tokens), still one
    vectorized take.  At 100 TB this stage is pure streaming map work.

    Output rows: (id, chunk_id, tokens:list<int32>, n_tok) plus, with
    ``with_stats=True``, per-chunk (tok_sum, tok_min, tok_max,
    tok_first, tok_last) scalar columns (SQL-oracle checkable without
    hashing list columns).
    """
    step = max_len if stride is None else int(stride)
    assert step >= 1

    def chunk_block(batch: pa.Table) -> pa.Table:
        toks = batch[tokens_col]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        ids = batch[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        cols = {
            id_col: ids.slice(0, 0),
            "chunk_id": pa.array([], pa.int64()),
            "tokens": pa.array([], pa.list_(pa.int32())),
            "n_tok": pa.array([], pa.int32()),
        }
        if with_stats:
            cols.update({
                "tok_sum": pa.array([], pa.int64()),
                "tok_min": pa.array([], pa.int32()),
                "tok_max": pa.array([], pa.int32()),
                "tok_first": pa.array([], pa.int32()),
                "tok_last": pa.array([], pa.int32()),
            })
        empty = pa.table(cols)
        if batch.num_rows == 0:
            return empty
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        n_chunks = -(-lens // step)  # ceil; 0-token docs get 0 chunks
        total = int(n_chunks.sum())
        if total == 0:
            return empty
        doc_ix = np.repeat(np.arange(len(lens)), n_chunks)
        cum = np.concatenate([[0], np.cumsum(n_chunks)])
        ords = np.arange(total) - cum[doc_ix]
        doc_off = np.concatenate([[0], np.cumsum(lens)])
        starts = doc_off[doc_ix] + ords * step
        ends = np.minimum(starts + max_len, doc_off[doc_ix + 1])
        flat = toks.flatten()
        if flat.type != pa.int32():
            flat = flat.cast(pa.int32())
        if step == max_len:
            # tiling: chunk boundaries refine doc boundaries — reuse the
            # flat buffer zero-copy with a denser offsets vector
            offsets = pa.array(np.append(starts, doc_off[-1]).astype(np.int64))
            chunks = pa.LargeListArray.from_arrays(offsets, flat) \
                .cast(pa.list_(pa.int32()))
        else:
            # overlap/gap: one vectorized gather of the window tokens
            clens = ends - starts
            within = (np.arange(int(clens.sum()))
                      - np.repeat(np.cumsum(clens) - clens, clens))
            idx = np.repeat(starts, clens) + within
            flat = flat.take(pa.array(idx))
            offsets = pa.array(
                np.concatenate([[0], np.cumsum(clens)]).astype(np.int64))
            chunks = pa.LargeListArray.from_arrays(offsets, flat) \
                .cast(pa.list_(pa.int32()))
            starts = np.concatenate([[0], np.cumsum(clens)])[:-1]
            ends = starts + clens
        out = {
            id_col: ids.take(pa.array(doc_ix)),
            "chunk_id": pa.array(ords.astype(np.int64)),
            "tokens": chunks,
            "n_tok": pa.array((ends - starts).astype(np.int32)),
        }
        if with_stats:
            fv = flat.to_numpy(zero_copy_only=False).astype(np.int64)
            out.update({
                "tok_sum": pa.array(np.add.reduceat(fv, starts)),
                "tok_min": pa.array(
                    np.minimum.reduceat(fv, starts).astype(np.int32)),
                "tok_max": pa.array(
                    np.maximum.reduceat(fv, starts).astype(np.int32)),
                "tok_first": pa.array(fv[starts].astype(np.int32)),
                "tok_last": pa.array(fv[ends - 1].astype(np.int32)),
            })
        return pa.table(out)

    return ds.map_batches(chunk_block, batch_format="pyarrow")


def winnow_batch(batch: pa.Table, *, k: int = 5, w: int = 4,
                 text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Winnowing document fingerprints (Schleimer/Wilkerson/Aiken 2003,
    the MOSS algorithm — public): rolling k-gram hashes, then the minimum
    of every w-hash window (rightmost minimum on ties), deduplicated —
    guarantees any shared substring of length ≥ w+k-1 yields a shared
    fingerprint between two documents.  Vectorized per doc via numpy
    sliding windows; emits (id, fingerprints:list<int64>, n_fp)."""
    from deltaray.functions.dedup import _shingle_hashes

    texts = batch[text_col].to_pylist()
    fps: list[list[int]] = []
    for h in _shingle_hashes(texts, k):
        if len(h) < w:
            sel = np.unique(h.astype(np.int64))
            fps.append(sel.tolist())
            continue
        win = np.lib.stride_tricks.sliding_window_view(h, w)
        # rightmost minimum per window: argmin on the reversed window
        rev_arg = np.argmin(win[:, ::-1], axis=1)
        pos = np.arange(len(win)) + (w - 1 - rev_arg)
        sel = np.unique(h[np.unique(pos)].astype(np.int64))
        fps.append(sel.tolist())
    out = pa.table({
        id_col: batch[id_col],
        "fingerprints": pa.array(fps, pa.list_(pa.int64())),
        "n_fp": pa.array([len(f) for f in fps], pa.int32()),
    })
    return out


def _explode_tokens(batch: pa.Table, text_col: str, id_col: str) -> pa.Table:
    """(id, tok) rows, one per whitespace token; empty/whitespace-only
    docs contribute nothing.  Fully vectorized (regex split + flatten +
    repeated-id take)."""
    text = pc.utf8_trim_whitespace(batch[text_col])
    mask = pc.greater(pc.utf8_length(text), 0)
    ids = batch[id_col].filter(mask)
    text = text.filter(mask)
    toks = pc.split_pattern_regex(text, _WS)
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    rep = ids.take(pa.array(np.repeat(np.arange(len(lens)), lens)))
    return pa.table({id_col: rep, "tok": toks.flatten()})


def unigram_stats(ds, *, text_col: str = "text", id_col: str = "doc_id",
                  num_partitions: int = 32):
    """Per-document unigram-LM corpus statistics — the exact skeleton of
    the perplexity-style quality filter: whitespace tokens are counted
    corpus-wide (distributed wordcount with a per-batch combiner), each
    document's tokens join back to the global counts, and the document
    reduces to INTEGER-exact projections

        n_tok    = token count,
        cnt_sum  = Σ_t count(t)   (corpus familiarity mass),
        cnt_min  = min_t count(t) (rare-token detector: 1 = contains a
                                   corpus-unique token).

    Integers keep the SQL oracle hash-exact (float log sums differ by
    summation order); the unigram log-perplexity numerator
    -Σ log(count/N) is a trivial map over a (token, count) join that
    this pipeline already materializes.

    Scale: three hash exchanges — token counts, token join, doc reduce
    — each preceded by a per-batch combiner so shuffle volume is
    bounded by per-batch distinct tokens, not corpus size.  At 100 TB
    the exact join can be swapped for a broadcast count-min sketch
    (functions/stats.py) at the cost of overestimated counts for the
    heavy tail; the exact path is the oracle-checkable baseline.
    """
    from deltaray.functions.joins import hash_join
    from deltaray.functions.partition import hash_partitioned

    exploded = ds.map_batches(
        lambda b: _explode_tokens(b, text_col, id_col),
        batch_format="pyarrow")

    def partial_counts(batch: pa.Table) -> pa.Table:
        t = batch.select(["tok"]).group_by("tok") \
            .aggregate([([], "count_all")])
        return t.rename_columns(["tok", "n_part"])

    def reduce_counts(block: pa.Table) -> pa.Table:
        t = block.select(["tok", "n_part"]).group_by("tok") \
            .aggregate([("n_part", "sum")])
        return pa.table({"tok": t["tok"],
                         "cnt": t["n_part_sum"].cast(pa.int64())})

    counts = hash_partitioned(
        exploded.map_batches(partial_counts, batch_format="pyarrow"),
        ["tok"], reduce_counts, num_partitions=num_partitions)

    # join side ships DISTINCT (doc, token) pairs with multiplicity k —
    # a per-batch combiner that cuts the join and doc-reduce exchanges
    # to distinct-pairs volume instead of one row per token instance
    def pair_combine(batch: pa.Table) -> pa.Table:
        t = batch.group_by([id_col, "tok"]).aggregate([([], "count_all")])
        return pa.table({id_col: t[id_col], "tok": t["tok"],
                         "k": t["count_all"].cast(pa.int64())})

    pairs = exploded.map_batches(pair_combine, batch_format="pyarrow")
    joined = hash_join(pairs, counts, on="tok",
                       left_cols={id_col: id_col, "k": "k"},
                       right_cols={"cnt": "cnt"},
                       num_partitions=num_partitions)

    def doc_partial(batch: pa.Table) -> pa.Table:
        kc = pc.multiply(batch["k"], batch["cnt"])
        t = batch.append_column("kc", kc).group_by(id_col).aggregate(
            [("kc", "sum"), ("cnt", "min"), ("k", "sum")])
        return pa.table({id_col: t[id_col],
                         "s": t["kc_sum"].cast(pa.int64()),
                         "m": t["cnt_min"].cast(pa.int64()),
                         "c": t["k_sum"].cast(pa.int64())})

    def doc_final(block: pa.Table) -> pa.Table:
        t = block.group_by(id_col).aggregate(
            [("s", "sum"), ("m", "min"), ("c", "sum")])
        return pa.table({id_col: t[id_col],
                         "n_tok": t["c_sum"].cast(pa.int64()),
                         "cnt_sum": t["s_sum"].cast(pa.int64()),
                         "cnt_min": t["m_min"].cast(pa.int64())})

    return hash_partitioned(
        joined.map_batches(doc_partial, batch_format="pyarrow"),
        [id_col], doc_final, num_partitions=num_partitions)


def unigram_stats_cms(ds, *, text_col: str = "text", id_col: str = "doc_id",
                      width: int = 1 << 20, depth: int = 4, seed: int = 42):
    """Map-only 100-TB variant of :func:`unigram_stats`: the corpus's
    token counts live in a FIXED-SIZE count-min sketch (depth×width
    int64 — 32 MB at width 2^20) instead of a distributed count table.

    Pass 1 streams the corpus once, folding per-batch exact local
    counts into a partial sketch; only the depth×width arrays cross to
    the driver (constant bytes per batch), where they reduce by
    elementwise sum.  Pass 2 broadcasts the sketch via ``ray.put`` and
    scores every document map-only: no token exchange, no join — two
    streaming passes total, versus three hash exchanges for the exact
    path.  Output columns mirror the exact operator with ``est_``
    prefixes; the CMS guarantee (Cormode & Muthukrishnan 2005) makes
    every estimate an overestimate bounded by eN (e ≈ e/width) with
    probability 1-2^-depth per token, which the pytest oracle checks
    against the exact path.
    """
    import ray

    from deltaray.transforms import stable_hash_cols

    row_seeds = np.arange(1, depth + 1, dtype=np.uint64) * np.uint64(seed * 2 + 1)

    from deltaray.transforms import mix64

    def sketch_batch(batch: pa.Table) -> pa.Table:
        pairs = _explode_tokens(batch, text_col, id_col)
        t = pairs.select(["tok"]).group_by("tok").aggregate(
            [([], "count_all")]).rename_columns(["tok", "n"])
        h = stable_hash_cols(t, ["tok"])
        counts = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        cm = np.zeros((depth, width), dtype=np.int64)
        for d in range(depth):
            idx = (mix64(h ^ row_seeds[d]) % np.uint64(width)).astype(np.int64)
            np.add.at(cm[d], idx, counts)
        return pa.table({"cm": pa.array([cm.tobytes()], pa.binary())})

    cm_total = np.zeros((depth, width), dtype=np.int64)
    for b in ds.map_batches(sketch_batch, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        for buf in b["cm"].to_pylist():
            cm_total += np.frombuffer(buf, np.int64).reshape(depth, width)
    cm_ref = ray.put(cm_total)

    def score_batch(batch: pa.Table) -> pa.Table:
        cm = ray.get(cm_ref)
        pairs = _explode_tokens(batch, text_col, id_col)
        if pairs.num_rows == 0:
            return pa.table({
                id_col: batch[id_col].slice(0, 0),
                "n_tok": pa.array([], pa.int64()),
                "est_cnt_sum": pa.array([], pa.int64()),
                "est_cnt_min": pa.array([], pa.int64()),
            })
        # distinct (doc, tok) with multiplicity, then CMS point queries
        t = pairs.group_by([id_col, "tok"]).aggregate([([], "count_all")])
        h = stable_hash_cols(t, ["tok"])
        est = np.full(len(h), np.iinfo(np.int64).max, dtype=np.int64)
        for d in range(depth):
            idx = (mix64(h ^ row_seeds[d]) % np.uint64(width)).astype(np.int64)
            est = np.minimum(est, cm[d][idx])
        k = t["count_all"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = pa.table({id_col: t[id_col],
                      "kc": pa.array(k * est),
                      "est": pa.array(est),
                      "k": pa.array(k)}) \
            .group_by(id_col).aggregate(
                [("kc", "sum"), ("est", "min"), ("k", "sum")])
        # a document sits wholly inside one input batch, so these
        # per-batch aggregates are final — the pass stays map-only
        return pa.table({
            id_col: g[id_col],
            "n_tok": g["k_sum"].cast(pa.int64()),
            "est_cnt_sum": g["kc_sum"].cast(pa.int64()),
            "est_cnt_min": g["est_min"].cast(pa.int64()),
        })

    return ds.map_batches(score_batch, batch_format="pyarrow")


# --------------------------------------------------------------------- BPE
# Byte-level BPE (Sennrich et al. 2016, public algorithm), shaped for the
# 100-TB corpus: training reduces the corpus to a WORD HISTOGRAM first
# (combiner-first map + one hash exchange on the word — merges then run
# driver-side over the histogram, never the corpus), and encoding is an
# actor-pool stage that loads the merge table once per actor and memoizes
# per-word encodings (a batch's unique words, not its occurrences, pay
# the merge loop).

_BPE_EOW = 256  # end-of-word marker token; byte tokens are 0..255


def train_bpe_model(ds, *, text_col: str = "text", vocab_size: int = 512,
                    min_freq: int = 2, num_partitions: int = 16,
                    min_word_freq: int = 1,
                    max_hist_words: int | None = 5_000_000) -> pa.Table:
    """Train a byte-level BPE merge table over a Dataset.

    Returns the model as a Parquet-ready table ``(rank:int32,
    left:int32, right:int32, new:int32)`` with metadata pinning the
    vocab size — the merge list fully determines the vocabulary (token
    i < 256 is byte i, 256 is the end-of-word marker, merged token
    bytes = left's + right's).  Ties break on the smallest (left,
    right) pair so training is deterministic.

    Scale shape: the corpus collapses to a (word, count) histogram via
    per-batch partial counts and one hash exchange on the word; the
    greedy merge loop is driver-side over the histogram with a
    pair→words inverted index, so each merge touches only the words
    that contain its pair.

    Driver-memory bound: the histogram the driver materializes is
    CAPPED inside the exchange — each merge block (words are
    hash-disjoint across blocks, so per-block counts are final) drops
    words with count < ``min_word_freq`` and keeps only its
    ``max_hist_words // num_partitions`` most frequent words (ties
    break on the word, so the cap is deterministic); the driver then
    trims the union to the global ``max_hist_words`` top.  At 100 TB
    the distinct-word histogram is billions of entries — without the
    cap the merge loop's input alone would OOM the driver.  Dropping
    the sub-cap tail only removes those words' pair counts, the
    standard top-K histogram pruning every large-corpus BPE trainer
    applies (Sennrich et al. 2016 operate on exactly this word
    histogram); merges are dominated by the head of the distribution.
    The binding limit is the PER-PARTITION quota (hash partitioning
    spreads words ~evenly, so a skewed partition can drop tail words
    even when the global distinct count fits ``max_hist_words``): a
    corpus whose every partition's distinct words fit its quota trains
    bit-identically to the uncapped run (pytest-pinned).
    ``max_hist_words=None`` disables the cap."""
    from deltaray.functions.partition import hash_partitioned

    cap_per_part = (None if max_hist_words is None
                    else max(1, max_hist_words // num_partitions))

    def partial(batch: pa.Table) -> pa.Table:
        words = pc.list_flatten(pc.utf8_split_whitespace(
            pc.fill_null(batch[text_col].combine_chunks()
                         if isinstance(batch[text_col], pa.ChunkedArray)
                         else batch[text_col], "")))
        words = words.filter(pc.greater(pc.utf8_length(words), 0))
        t = pa.table({"word": words}).group_by("word") \
            .aggregate([([], "count_all")])
        return t.rename_columns(["word", "n"])

    def sum_block(block: pa.Table) -> pa.Table:
        g = block.group_by("word").aggregate([("n", "sum")])
        g = g.rename_columns(["word", "n"])
        if min_word_freq > 1:
            g = g.filter(pc.greater_equal(g["n"], min_word_freq))
        if cap_per_part is not None and g.num_rows > cap_per_part:
            order = pc.sort_indices(
                g, sort_keys=[("n", "descending"), ("word", "ascending")])
            g = g.take(order.slice(0, cap_per_part))
        return g

    hist_ds = hash_partitioned(
        ds.map_batches(partial, batch_format="pyarrow"), ["word"],
        sum_block, num_partitions=num_partitions)
    hist = pa.concat_tables(list(hist_ds.iter_batches(
        batch_format="pyarrow")), promote_options="default")
    if max_hist_words is not None and hist.num_rows > max_hist_words:
        order = pc.sort_indices(
            hist, sort_keys=[("n", "descending"), ("word", "ascending")])
        hist = hist.take(order.slice(0, max_hist_words))

    words = [list(w.encode("utf-8")) + [_BPE_EOW]
             for w in hist["word"].to_pylist()]
    counts = [int(n) for n in hist["n"].to_pylist()]

    def pair_stats():
        stats: dict = {}
        index: dict = {}
        for wi, (seq, n) in enumerate(zip(words, counts)):
            for a, b in zip(seq, seq[1:]):
                stats[(a, b)] = stats.get((a, b), 0) + n
                index.setdefault((a, b), set()).add(wi)
        return stats, index

    stats, index = pair_stats()
    merges: list[tuple[int, int, int]] = []
    next_id = _BPE_EOW + 1
    while next_id < vocab_size and stats:
        best = max(stats.items(), key=lambda kv: (kv[1], (-kv[0][0],
                                                          -kv[0][1])))
        (a, b), freq = best
        if freq < min_freq:
            break
        new = next_id
        next_id += 1
        merges.append((a, b, new))
        for wi in list(index.get((a, b), ())):
            seq, n = words[wi], counts[wi]
            # remove this word's old pair contributions
            for x, y in zip(seq, seq[1:]):
                stats[(x, y)] -= n
                if stats[(x, y)] <= 0:
                    stats.pop((x, y), None)
                s = index.get((x, y))
                if s is not None:
                    s.discard(wi)
            out = []
            i = 0
            while i < len(seq):
                if i + 1 < len(seq) and seq[i] == a and seq[i + 1] == b:
                    out.append(new)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            words[wi] = out
            for x, y in zip(out, out[1:]):
                stats[(x, y)] = stats.get((x, y), 0) + n
                index.setdefault((x, y), set()).add(wi)
    import json as _json

    meta = {b"deltaray_bpe": _json.dumps(
        {"vocab_size": int(next_id), "eow": _BPE_EOW}).encode()}
    return pa.table({
        "rank": pa.array(range(len(merges)), pa.int32()),
        "left": pa.array([m[0] for m in merges], pa.int32()),
        "right": pa.array([m[1] for m in merges], pa.int32()),
        "new": pa.array([m[2] for m in merges], pa.int32()),
    }).replace_schema_metadata(meta)


def bpe_vocab(model: pa.Table) -> list[tuple[bytes, bool]]:
    """token id -> (byte string, ends_word) derived from the merge
    table; the decoder's whole state."""
    vocab: list[tuple[bytes, bool]] = [(bytes([i]), False)
                                       for i in range(256)]
    vocab.append((b"", True))  # EOW
    for left, right in zip(model["left"].to_pylist(),
                           model["right"].to_pylist()):
        lb, le = vocab[left]
        rb, re_ = vocab[right]
        vocab.append((lb + rb, le or re_))
    return vocab


def bpe_decode(ids, vocab: list[tuple[bytes, bool]]) -> str:
    """Inverse of the encoder: whitespace-normalized text (words joined
    by single spaces — the split/EOW representation keeps word
    boundaries, not the original whitespace)."""
    parts: list[str] = []
    buf = b""
    for i in ids:
        b, ends = vocab[int(i)]
        buf += b
        if ends:
            parts.append(buf.decode("utf-8"))
            buf = b""
    if buf:
        parts.append(buf.decode("utf-8"))
    return " ".join(parts)


class BpeTokenizer:
    """Actor-pool encode stage: loads the merge table once per actor
    (``model_path`` parquet from :func:`train_bpe_model`), memoizes
    per-word encodings, and emits ``bpe_tokens:list<int32>`` +
    ``n_bpe:int32`` per document.  With ``verify_roundtrip=True`` every
    batch decodes its own output and asserts whitespace-normalized
    equality with the input — the in-stage self-check the driver query
    runs.  With ``emit_decoded=True`` the decode is also emitted as a
    ``decoded:string`` column: the round-trip witness a driver hash can
    verify against a SQL whitespace-normalization of the input."""

    def __init__(self, model_path: str, *, text_col: str = "text",
                 verify_roundtrip: bool = False,
                 emit_decoded: bool = False):
        import pyarrow.parquet as pq

        model = pq.read_table(model_path)
        self.ranks = {(int(l), int(r)): (rank, int(n))
                      for rank, (l, r, n) in enumerate(
                          zip(model["left"].to_pylist(),
                              model["right"].to_pylist(),
                              model["new"].to_pylist()))}
        self.vocab = bpe_vocab(model)
        self.text_col = text_col
        self.verify = verify_roundtrip
        self.emit_decoded = emit_decoded
        self._memo: dict = {}

    def _encode_word(self, w: str) -> list[int]:
        got = self._memo.get(w)
        if got is not None:
            return got
        seq = list(w.encode("utf-8")) + [_BPE_EOW]
        while len(seq) > 1:
            best_rank, best_i = None, -1
            for i, pair in enumerate(zip(seq, seq[1:])):
                r = self.ranks.get(pair)
                if r is not None and (best_rank is None
                                      or r[0] < best_rank[0]):
                    best_rank, best_i = r, i
            if best_rank is None:
                break
            seq[best_i:best_i + 2] = [best_rank[1]]
        self._memo[w] = seq
        return seq

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        texts = pc.fill_null(col, "")
        word_lists = pc.utf8_split_whitespace(texts)
        toks: list[list[int]] = []
        for wl in word_lists.to_pylist():
            ids: list[int] = []
            for w in wl:
                if w:
                    ids.extend(self._encode_word(w))
            toks.append(ids)
        decoded: list[str] | None = None
        if self.verify or self.emit_decoded:
            decoded = [bpe_decode(ids, self.vocab) for ids in toks]
        if self.verify:
            for t, got in zip(texts.to_pylist(), decoded):
                want = " ".join(t.split())
                if got != want:
                    raise AssertionError(
                        f"BPE round-trip mismatch: {got[:60]!r} vs "
                        f"{want[:60]!r}")
        out = batch.append_column(
            "bpe_tokens", pa.array(toks, pa.list_(pa.int32()))) \
            .append_column("n_bpe", pa.array([len(t) for t in toks],
                                             pa.int32()))
        if self.emit_decoded:
            # the hash-verifiable round-trip witness: decode output is a
            # pure function of the learned merges + token stream, and
            # must equal the whitespace-normalized input (SQL mirror:
            # trim(regexp_replace(coalesce(text,''), '\s+', ' ', 'g')))
            out = out.append_column("decoded",
                                    pa.array(decoded, pa.string()))
        return out


# ---------------------------------------------------------------------------
# PII redaction + text normalization (training-data hygiene stages)
# ---------------------------------------------------------------------------

# RE2-compatible patterns (pyarrow.compute and DuckDB both run RE2, so a
# SQL oracle can mirror these byte-for-byte).  Order matters: patterns
# are applied sequentially and an earlier replacement may mask a later
# pattern's match — counts are therefore taken on the ORIGINAL text.
PII_PATTERNS: list[tuple[str, str, str]] = [
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "[EMAIL]"),
    ("phone", r"\b\d{3}-\d{3}-\d{4}\b", "[PHONE]"),
    ("ip", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "[IP]"),
    ("ssn", r"\b\d{3}-\d{2}-\d{4}\b", "[SSN]"),
]


def redact_batch(batch: pa.Table, text_col: str = "text",
                 patterns: list[tuple[str, str, str]] = PII_PATTERNS,
                 counts: bool = True) -> pa.Table:
    """Redact PII-shaped spans in ``text_col`` in place (vectorized
    ``pc.replace_substring_regex`` per pattern — no Python row loop) and
    append int64 per-kind match counts plus ``n_redacted``.

    Counts are measured on the pre-redaction text for every pattern
    (order-independent), while replacements apply sequentially in
    ``patterns`` order; a SQL oracle mirrors both choices exactly
    (``regexp_replace(..., 'g')`` nesting + ``len(regexp_extract_all)``
    on the original column).  The pattern set is the standard
    email/phone/IPv4/SSN hygiene pass a pretraining pipeline runs before
    tokenization; swap ``patterns`` for a domain-specific set.
    """
    col = batch[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    orig = pc.fill_null(col, "")
    text = orig
    out_counts: list[tuple[str, pa.Array]] = []
    total = None
    for kind, pat, repl in patterns:
        if counts:
            c = pc.count_substring_regex(orig, pat).cast(pa.int64())
            out_counts.append((f"n_{kind}", c))
            total = c if total is None else pc.add(total, c)
        text = pc.replace_substring_regex(text, pat, repl)
    out = batch.set_column(batch.column_names.index(text_col),
                           text_col, text)
    for name, c in out_counts:
        out = out.append_column(name, c)
    if counts:
        out = out.append_column("n_redacted", total)
    return out


def normalize_batch(batch: pa.Table, text_col: str = "text",
                    out_col: str = "text_norm") -> pa.Table:
    """Canonical text normalization for near-exact dedup: lowercase,
    collapse every non-alphanumeric run to a single space, trim.  The
    normalized form is the dedup key for case/punct/whitespace variants
    of the same content (the cheap tier below MinHash).  SQL mirror:
    ``trim(regexp_replace(lower(coalesce(text, '')), '[^a-z0-9]+', ' ',
    'g'))``.
    """
    col = batch[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = pc.utf8_lower(pc.fill_null(col, ""))
    t = pc.replace_substring_regex(t, r"[^a-z0-9]+", " ")
    t = pc.utf8_trim_whitespace(t)
    return batch.append_column(out_col, t)


def default_langid_model(*, n: int = 3,
                         vocab_per_lang: int = 3000) -> pa.Table:
    """LangId profiles trained on the bundled REAL-language fixture
    (public-domain UDHR Article 1 + common-usage sentences + the
    classic high-frequency function words per language —
    deltaray/data/langid_fixture.py), closing the round-4 review gap
    that the shipped model had only ever seen synthetic separable
    tokens.  Six Latin-script languages (en de fr es it pt) including
    the confusion pairs that matter (es/pt, fr/it); held-out accuracy
    on DISJOINT real sentences is pinned in
    tests/test_round5_fixes.py."""
    from deltaray.data.langid_fixture import TRAIN

    return train_langid_model(TRAIN, n=n, vocab_per_lang=vocab_per_lang)
