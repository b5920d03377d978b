"""Event-stream transforms: blacklist filters, table filter, column
whitelist, directive chains, version stamping and two-phase LWW
pre-reduction.

Reference parity:
- F1/F2 DML+DDL blacklist filters (QueueingEventEmitter.java:96-125);
- F3 unknown-table filter (QueueingEventEmitter.java:111,124);
- F4 column whitelist (SourceTable.java:69-72);
- F5/F6/F7 directive chains over rows and schemas
  (DeltaWorker.java:495-564, Transformation.java:27-58,
  TransformationUtil.parseDirectiveName:46-52 — first token = name);
- F8/F9 rename/set value+schema ops (MutableRowValue.java:23-51,
  DefaultMutableRowSchema.java:85-130).

All engine-side functions are vectorized over ``pyarrow`` batches
(zero-copy from the object store); the row-level variants exist for the
single-process oracle only.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from deltaray.config import ReplayConfig
from deltaray.schemas import DML_OPS, TableSchema, code_to_type

# version columns stored in the lake next to payload; max-version-wins
# merge makes replay idempotent and UN_ORDERED late data correct across
# chunk boundaries (tombstones keep DELETE versions visible).  Sort-key
# tiebreaks are __sk0..__sk{n-1} (configurable width, SortKey.java:26-41
# list semantics); every "__"-prefixed column is engine-internal.
VERSION_COLS = ("__seq", "__src_ts", "__deleted")


def sk_names(cols) -> list[str]:
    """The __sk<i> columns present, in component order."""
    out = [c for c in cols
           if c.startswith("__sk") and c[4:].isdigit()]
    return sorted(out, key=lambda c: int(c[4:]))


# ------------------------------------------------------------- directives
def parse_directive(directive: str) -> tuple[str, list[str]]:
    """First whitespace token is the directive name
    (TransformationUtil.parseDirectiveName:46-52)."""
    parts = directive.split()
    if not parts:
        raise ValueError("empty directive")
    return parts[0], parts[1:]


class Directive:
    """One registered transformation — the Transformation-plugin analog
    (delta-api/.../transformation/api/Transformation.java:27-58): a
    ``schema_fn`` (transformSchema) and a vectorized ``batch_fn``
    (transformValue over a whole Arrow batch); ``row_fn`` serves the
    single-process oracle.  Any hook may be None (identity)."""

    def __init__(self, name, schema_fn=None, batch_fn=None, row_fn=None):
        self.name = name
        self.schema_fn = schema_fn
        self.batch_fn = batch_fn
        self.row_fn = row_fn


DIRECTIVES: dict[str, Directive] = {}


def register_directive(name: str, *, schema_fn=None, batch_fn=None, row_fn=None):
    """UDF registry entry point (DeltaApp.java:61-66 plugin registration
    analog).  User code registers custom directives before building the
    pipeline; TransformStage workers re-import this module so registration
    must happen at import time of the caller's module."""
    DIRECTIVES[name] = Directive(name, schema_fn, batch_fn, row_fn)
    return DIRECTIVES[name]


def _lookup(name: str) -> Directive:
    try:
        return DIRECTIVES[name]
    except KeyError:
        raise ValueError(f"unknown directive: {name}") from None


def apply_directives_to_schema(
    schema: TableSchema, directives: list[str]
) -> TableSchema:
    """transformSchema over the directive chain
    (DeltaWorker.transformDDLEvent:546-564; rename-chain collapsing per
    DefaultMutableRowSchema.java:113-130; PK rename remap per
    TransformationUtil.transformDDLEvent:121-132)."""
    out = schema
    for d in directives:
        name, args = parse_directive(d)
        fn = _lookup(name).schema_fn
        if fn is not None:
            out = fn(out, args)
    return out


def apply_directives_to_batch(batch: pa.Table, directives: list[str]) -> pa.Table:
    """Vectorized transformValue over the directive chain (F5/F7)."""
    for d in directives:
        name, args = parse_directive(d)
        fn = _lookup(name).batch_fn
        if fn is not None:
            batch = fn(batch, args)
    return batch


# ---- built-in directives (SURVEY §2.8 set) --------------------------------
def _rename_schema(schema: TableSchema, args: list[str]) -> TableSchema:
    old, new = args
    if old in schema.column_names():
        return schema.with_renamed_column(old, new, schema.version_seq)
    return schema


def _rename_batch(batch: pa.Table, args: list[str]) -> pa.Table:
    old, new = args
    if old in batch.column_names:
        if new in batch.column_names:
            raise ValueError(f"rename: column {new!r} exists")
        batch = batch.rename_columns(
            [new if c == old else c for c in batch.column_names]
        )
    return batch


def _rename_row(row: dict, args: list[str]) -> dict:
    old, new = args
    if old in row:
        row[new] = row.pop(old)
    return row


def _set_default_batch(batch: pa.Table, args: list[str]) -> pa.Table:
    col, value = args[0], " ".join(args[1:])
    if col in batch.column_names:
        filled = pc.fill_null(batch[col], pa.scalar(value, batch[col].type))
        batch = batch.set_column(batch.column_names.index(col), col, filled)
    return batch


def _set_default_row(row: dict, args: list[str]) -> dict:
    col, value = args[0], " ".join(args[1:])
    if col in row and row[col] is None:
        row[col] = value
    return row


def _mask_batch(batch: pa.Table, args: list[str]) -> pa.Table:
    col, start, end = args[0], int(args[1]), int(args[2])
    if col in batch.column_names:
        batch = batch.set_column(
            batch.column_names.index(col), col,
            _mask_list_range(batch[col], start, end),
        )
    return batch


def _mask_row(row: dict, args: list[str]) -> dict:
    col, start, end = args[0], int(args[1]), int(args[2])
    if row.get(col) is not None:
        toks = list(row[col])
        for i in range(start, min(end, len(toks))):
            toks[i] = 0
        row[col] = toks
    return row


def _retok_batch(batch: pa.Table, args: list[str]) -> pa.Table:
    """retokenize-stub <col> <offset>: deterministic stand-in for a real
    re-tokenization pass — maps every token id t → t + offset, vectorized
    on the flat values buffer (zero row loop)."""
    col, offset = args[0], int(args[1])
    if col not in batch.column_names:
        return batch
    batch = batch.set_column(
        batch.column_names.index(col), col,
        _list_add_scalar(batch[col], offset),
    )
    return batch


def _retok_row(row: dict, args: list[str]) -> dict:
    col, offset = args[0], int(args[1])
    if row.get(col) is not None:
        row[col] = [t + offset for t in row[col]]
    return row


def _list_add_scalar(col: pa.ChunkedArray | pa.Array, offset: int):
    if isinstance(col, pa.ChunkedArray):
        return pa.chunked_array(
            [_list_add_scalar(c, offset) for c in col.chunks], type=col.type
        )
    arr = col
    if len(arr) == 0:
        return arr
    values = pc.add(arr.values, pa.scalar(offset, arr.values.type))
    out = pa.ListArray.from_arrays(arr.offsets, values)
    if arr.null_count:
        out = pc.if_else(pc.is_null(arr), pa.nulls(len(arr), out.type), out)
    return out


register_directive("rename", schema_fn=_rename_schema, batch_fn=_rename_batch,
                   row_fn=_rename_row)
register_directive("set-default", batch_fn=_set_default_batch,
                   row_fn=_set_default_row)
register_directive("mask", batch_fn=_mask_batch, row_fn=_mask_row)
register_directive("retokenize-stub", batch_fn=_retok_batch, row_fn=_retok_row)


def _mask_list_range(col: pa.ChunkedArray | pa.Array, start: int, end: int):
    """Zero out tokens[start:end] of a list<int32> column, vectorized on the
    flat values buffer."""
    if isinstance(col, pa.ChunkedArray):
        return pa.chunked_array(
            [_mask_list_range(c, start, end) for c in col.chunks],
            type=col.type,
        )
    arr = col
    if len(arr) == 0:
        return arr
    offsets = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    values = arr.values.to_numpy(zero_copy_only=False).copy()
    starts = offsets[:-1]
    ends = offsets[1:]
    lo = np.minimum(starts + start, ends)
    hi = np.minimum(starts + end, ends)
    # build a mask over the flat values via difference array
    diff = np.zeros(len(values) + 1, dtype=np.int32)
    np.add.at(diff, lo, 1)
    np.add.at(diff, hi, -1)
    inside = np.cumsum(diff[:-1]) > 0
    values[inside] = 0
    out = pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int32() if isinstance(arr, pa.ListArray) else pa.int64()),
        pa.array(values, type=arr.values.type),
    )
    if arr.null_count:
        mask = pc.is_null(arr)
        out = pc.if_else(mask, pa.nulls(len(arr), out.type), out)
    return out


def apply_directives_to_row(row: dict, directives: list[str]) -> dict:
    """Row-level directive application (oracle only)."""
    for d in directives:
        name, args = parse_directive(d)
        fn = _lookup(name).row_fn
        if fn is not None:
            row = fn(row, args)
    return row


def stable_hash_strings(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Deterministic FNV-1a-style hash of a UTF-8 string column, vectorized
    over the flat values buffer (stable across processes/machines — Python
    hash() is salted and unusable for partitioning).

    Loops over CHARACTER POSITIONS (max string length), not rows: each
    iteration updates the hash of every row that still has a byte at that
    position using numpy gather on the Arrow offsets/values buffers.
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if len(arr) == 0:
        return np.empty(0, dtype=np.uint64)
    if arr.null_count:
        arr = pc.fill_null(arr, "")
    if pa.types.is_large_string(arr.type):
        arr = arr.cast(pa.string())
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], dtype=np.int32, count=len(arr) + 1 + arr.offset)[
        arr.offset : arr.offset + len(arr) + 1
    ].astype(np.int64)
    data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None else np.empty(0, np.uint8)
    starts, ends = offsets[:-1], offsets[1:]
    lens = ends - starts
    h = np.full(len(arr), np.uint64(0xCBF29CE484222325))
    prime = np.uint64(0x100000001B3)
    maxlen = int(lens.max()) if len(lens) else 0
    for j in range(maxlen):
        live = lens > j
        idx = starts[live] + j
        hv = h[live]
        hv = (hv ^ data[idx].astype(np.uint64)) * prime
        h[live] = hv
    return h


def stable_hash_cols(tbl: pa.Table, cols: list[str]) -> np.ndarray:
    """Deterministic uint64 hash of one or more key columns (vectorized):
    strings via the FNV-1a kernel, numerics via their int64 bits, mixed
    FNV-style so (a, b) != (b, a), then finalized with the murmur3
    fmix64 avalanche.  THE partitioning function — identical across
    workers/processes (Python hash() is salted and unusable).

    The finalizer is load-bearing for NON-power-of-two partition
    counts: without it the last operation is one modular multiply, and
    for structured key families (fixed-width ids differing in a few
    digits) ``hash % m`` can collapse to a single residue for small odd
    m — observed: 189/189 synthetic doc ids landing in partition 1 of
    3.  fmix64 (public Murmur3 finalizer, Appleby, public domain)
    spreads every input bit across the output, so any modulus works.
    Lakes record ``hash_version`` in the generation meta; changing this
    function requires bumping HASH_VERSION (old lakes then fail fast
    instead of silently mis-routing keys)."""
    h = np.zeros(tbl.num_rows, dtype=np.uint64)
    for c in cols:
        col = tbl[c]
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            v = stable_hash_strings(col)
        else:
            v = col.to_numpy(zero_copy_only=False).astype(np.uint64, copy=False)
        h = (h ^ v) * np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xC4CEB9FE1A85EC53)
        h ^= h >> np.uint64(33)
    return h


# bumped whenever stable_hash_cols changes: stamped into the generation
# meta so a lake written under another partitioner fails fast on open
HASH_VERSION = 2


def mix64(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (Steele et al., public domain) — THE shared
    avalanche for sampling ranks, shuffle orders and sketch row hashes.
    One definition: the sketches' row-hash scheme and the sampler both
    depend on it bit-for-bit, so copies must not drift."""
    h = np.asarray(h, dtype=np.uint64).copy()
    with np.errstate(over="ignore"):
        h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return h ^ (h >> np.uint64(31))


def key_codes(tbl: pa.Table, cols: list[str]) -> np.ndarray:
    """First-appearance group codes for a (possibly composite) key,
    vectorized: factorize each component (exact C hash table, no collision
    risk) and mix into one dense int64 code space."""
    import pandas as pd

    codes = None
    for c in cols:
        col = tbl[c]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ci, uniq = pd.factorize(col.to_numpy(zero_copy_only=False))
        # factorize's null sentinel is -1; shift so null owns code 0 and
        # the mix base covers it — otherwise (a, NULL) aliases
        # (a_prev, last_unique_b) when a component contains nulls
        ci = ci.astype(np.int64) + 1
        codes = ci if codes is None else codes * np.int64(len(uniq) + 1) + ci
    if len(cols) > 1:  # re-densify the mixed code space
        codes = pd.factorize(codes)[0].astype(np.int64)
    return codes


def _as_key_list(key) -> list[str]:
    return [key] if isinstance(key, str) else list(key)


# ------------------------------------------------------- engine transform
def _lossless_promotion(src: pa.DataType, dst: pa.DataType) -> bool:
    """True when every ``src`` value survives a cast to ``dst`` exactly —
    the gate for cross-table transport promotion (int32→int64 yes;
    int64→float64 no: floats carry 53 mantissa bits; integer→float64
    yes up to 32-bit, →float32 up to 16-bit)."""
    if src == dst:
        return True
    if pa.types.is_integer(src):
        if pa.types.is_integer(dst):
            return dst.bit_width > src.bit_width or (
                dst.bit_width == src.bit_width
                and pa.types.is_signed_integer(src)
                == pa.types.is_signed_integer(dst))
        if pa.types.is_floating(dst):
            mant = {16: 11, 32: 24, 64: 53}[dst.bit_width]
            return src.bit_width <= mant
        return False
    if pa.types.is_floating(src):
        return pa.types.is_floating(dst) and dst.bit_width >= src.bit_width
    return False


class TransformStage:
    """The stateless-per-batch event transform: filter → project →
    directives → version-stamp → per-batch LWW pre-reduce → shard label.

    Used as ``ds.map_batches(TransformStage(cfg, schemas), batch_format=
    "pyarrow")``.  Construction happens once per worker (actor) when passed
    as a class — the compiled blacklist sets / directive chains are the
    reference's per-table init state (DeltaWorker.java:217-267, ST6).

    The per-batch LWW pre-reduction is phase 1 of the two-phase
    last-writer-wins reduction (north_rule skew handling): within each
    batch only the max-version event per (table, key) survives, so a hot
    key contributes at most one row per batch to the shuffle instead of
    every occurrence.  Phase 2 happens per shard in the merge stage.
    LWW is associative+commutative over unique versions, so pre-reducing
    any subset is safe.
    """

    def __init__(
        self,
        cfg: ReplayConfig,
        schemas: dict[str, TableSchema],
        effective_schemas: dict[str, TableSchema],
    ):
        self.ordering = cfg.ordering
        self.track_previous = cfg.track_previous
        self.n_sk = cfg.sort_key_components
        self.num_partitions = cfg.num_partitions
        self.table_set = cfg.table_names  # empty = all tables
        self.dml_bl = {t: cfg.dml_blacklist_for(t) for t in schemas}
        self.global_dml_bl = set(cfg.dml_blacklist)
        # resolve directive names HERE (driver side): the compiled chain —
        # including user-registered Directive callables — ships to workers
        # via pickle, so registration is only required in the driver
        # process (plugin registration analog, DeltaApp.java:61-66)
        self.chains = {}
        for t in schemas:
            tc = cfg.table_config(t)
            chain = []
            for d in (tc.transformations if tc else []):
                name, args = parse_directive(d)
                chain.append((_lookup(name), args))
            self.chains[t] = chain
        self.whitelist = {
            t: (cfg.table_config(t).columns if cfg.table_config(t) else None)
            for t in schemas
        }
        self.schemas = schemas              # DDL schema per table (pre-directive)
        self.effective = effective_schemas  # post-directive lake schema
        self.table_index = {t: i for i, t in enumerate(sorted(schemas))}
        # one fixed output schema for every batch (union of all tables'
        # effective payloads) so the downstream groupby shuffle sees
        # homogeneous blocks
        fields: dict[str, pa.DataType] = {}
        for eff in effective_schemas.values():
            for n, c in eff.fields:
                t = code_to_type(c)
                if n in fields and fields[n] != t:
                    # same column name, different types across co-replayed
                    # tables (declared so, or one table ALTERed mid-stream):
                    # transport under the PROMOTED type — _conform casts
                    # every table's rows up losslessly, and the merge casts
                    # each table's rows back to ITS effective schema before
                    # the lake write, so files stay exactly typed per table.
                    # Truly incompatible pairs (e.g. string vs int) still
                    # fail fast here.
                    is_key = any(n in e.keys
                                 for e in effective_schemas.values())
                    if is_key and not (pa.types.is_integer(fields[n])
                                       and pa.types.is_integer(t)):
                        # key columns route by hashed VALUE: integer
                        # widening is value-preserving (int32 5 and
                        # int64 5 hash identically) but e.g. float
                        # width changes alter the hashed value and
                        # would mis-route — keep the fail-fast there
                        raise ValueError(
                            f"key column {n!r} type conflict across "
                            f"tables ({fields[n]} vs {t}); only integer "
                            f"widening is routable")
                    try:
                        uni = pa.unify_schemas(
                            [pa.schema([pa.field(n, fields[n])]),
                             pa.schema([pa.field(n, t)])],
                            promote_options="permissive")
                        promoted = uni.field(n).type
                    except (pa.lib.ArrowInvalid,
                            pa.lib.ArrowTypeError) as exc:
                        raise ValueError(
                            f"column {n!r} type conflict across tables "
                            f"({fields[n]} vs {t}) is not promotable"
                        ) from exc
                    # transport must be LOSSLESS for every source type,
                    # or a legal value crashes the in-flight cast mid-
                    # replay (e.g. int64 beyond 2^53 -> float64): reject
                    # such pairs at construction, not at runtime
                    for src in (fields[n], t):
                        if not _lossless_promotion(src, promoted):
                            raise ValueError(
                                f"column {n!r} type conflict across "
                                f"tables ({fields[n]} vs {t}): promoted "
                                f"transport type {promoted} cannot hold "
                                f"every {src} value losslessly")
                    t = promoted
                fields[n] = t
        for n, t in [
            ("__seq", pa.int64()),
            ("__src_ts", pa.int64()),
            *[(f"__sk{i}", pa.int64()) for i in range(self.n_sk)],
            *([("__prev_tokens", pa.list_(pa.int32()))]
              if self.track_previous else []),
            ("__deleted", pa.bool_()),
            ("__op", pa.string()),
            ("__n_ins", pa.int64()),
            ("__n_upd", pa.int64()),
            ("__n_del", pa.int64()),
            ("__n_snap", pa.int64()),
            ("__shard", pa.int64()),
            ("__table", pa.string()),
        ]:
            fields[n] = t
        self.out_schema = pa.schema(list(fields.items()))

    def _conform(self, tbl: pa.Table | None) -> pa.Table:
        if tbl is None:
            return self.out_schema.empty_table()
        cols = []
        for f in self.out_schema:
            if f.name in tbl.column_names:
                cols.append(tbl[f.name].cast(f.type))
            else:
                cols.append(pa.nulls(tbl.num_rows, f.type))
        return pa.Table.from_arrays(cols, schema=self.out_schema)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return self.out_schema.empty_table()
        # keep DML only (DDL handled as driver-side barriers)
        mask = pc.is_in(batch["op"], value_set=pa.array(DML_OPS))
        # unknown-table filter (QueueingEventEmitter.java:111,124)
        if self.table_set:
            mask = pc.and_(
                mask, pc.is_in(batch["table"], value_set=pa.array(sorted(self.table_set)))
            )
        batch = batch.filter(mask)
        if batch.num_rows == 0:
            return self.out_schema.empty_table()
        pieces = []
        # per-table processing (schemas/blacklists/directives differ per table)
        tables = pc.unique(batch["table"]).to_pylist()
        for t in tables:
            if t not in self.schemas:
                continue
            sub = batch if len(tables) == 1 else batch.filter(pc.equal(batch["table"], t))
            sub = self._one_table(t, sub)
            if sub is not None and sub.num_rows:
                pieces.append(self._conform(sub))
        if not pieces:
            return self.out_schema.empty_table()
        return pa.concat_tables(pieces) if len(pieces) > 1 else pieces[0]

    def _one_table(self, t: str, sub: pa.Table) -> pa.Table | None:
        ts = self.schemas[t]
        bl = self.dml_bl.get(t, self.global_dml_bl)
        if bl:
            sub = sub.filter(
                pc.invert(pc.is_in(sub["op"], value_set=pa.array(sorted(bl))))
            )
        if sub.num_rows == 0:
            return None
        # column whitelist projection (F4) — key always kept
        cols = ts.column_names()
        wl = self.whitelist.get(t)
        if wl:
            cols = [c for c in cols if c in wl or c in ts.keys]
        present = [c for c in cols if c in sub.column_names]
        payload = sub.select(present)
        # columns added by later DDL may be missing in old segments → nulls
        for c in cols:
            if c not in present:
                payload = payload.append_column(
                    c, pa.nulls(len(payload), code_to_type(dict(ts.fields)[c]))
                )
        # directive chain (F5/F7)
        for directive, args in self.chains.get(t, []):
            if directive.batch_fn is not None:
                payload = directive.batch_fn(payload, args)
        eff = self.effective[t]
        keys = eff.keys
        # version stamp
        seq = sub["seq"].cast(pa.int64())
        if self.ordering == "UN_ORDERED":
            src_ts = pc.fill_null(sub["source_ts"].cast(pa.int64()), 0)
            if "sort_keys" in sub.column_names:
                sks = [pa.array(a) for a in
                       sort_key_components(sub["sort_keys"], self.n_sk)]
            else:
                z = pa.array(np.zeros(len(sub), dtype=np.int64))
                sks = [z] * self.n_sk
        else:
            src_ts = pa.array(np.zeros(len(sub), dtype=np.int64))
            sks = [src_ts] * self.n_sk
        deleted = pc.equal(sub["op"], "DELETE")
        out = payload
        out = out.append_column("__seq", seq)
        out = out.append_column("__src_ts", src_ts)
        for i, a in enumerate(sks):
            out = out.append_column(f"__sk{i}", a)
        if self.track_previous:
            # before-image of THIS event (previousRow, DMLEvent.java:66-72).
            # The directive chain applies to the before-image's token
            # column too (reference transforms row AND previousRow,
            # DeltaWorker.transformDMLEvent:507-543): run the chain over a
            # one-column table named like the ORIGINAL token column, then
            # pick whatever name the chain mapped it to.
            prev = (sub["prev_tokens"].cast(pa.list_(pa.int32()))
                    if "prev_tokens" in sub.column_names
                    else pa.nulls(len(sub), pa.list_(pa.int32())))
            chain = self.chains.get(t, [])
            if chain:
                ptbl = pa.table({"tokens": prev})
                for directive, args in chain:
                    if directive.batch_fn is not None:
                        ptbl = directive.batch_fn(ptbl, args)
                pname = eff.renames.get("tokens", "tokens")
                if pname in ptbl.column_names:
                    prev = ptbl[pname]
                    if isinstance(prev, pa.ChunkedArray):
                        prev = prev.combine_chunks()
                    prev = prev.cast(pa.list_(pa.int32()))
            out = out.append_column("__prev_tokens", prev)
        out = out.append_column("__deleted", deleted)
        out = out.append_column("__op", sub["op"])
        snap = (pc.fill_null(sub["is_snapshot"], False)
                if "is_snapshot" in sub.column_names
                else pa.array(np.zeros(len(sub), dtype=bool)))
        out = out.append_column("__snap", snap)
        # DELETE rows carry no payload
        if out.num_rows and pc.any(deleted).as_py():
            keep = pc.invert(deleted)
            for c in eff.column_names():
                if c in keys or c not in out.column_names:
                    continue
                col = pc.if_else(keep, out[c], pa.nulls(len(out), out[c].type))
                out = out.set_column(out.column_names.index(c), c, col)
        # null-key DML rows are skipped, matching the oracle (oracle.py
        # `if key is None: continue`) — external source adapters (CSV/
        # JSONL) don't validate keys, and factorize would emit code -1
        keymask = pc.is_valid(out[keys[0]])
        for kc in keys[1:]:
            keymask = pc.and_(keymask, pc.is_valid(out[kc]))
        if not pc.all(keymask).as_py():
            out = out.filter(keymask)
            if out.num_rows == 0:
                return None
        # phase-1 LWW pre-reduce within the batch (two-phase reduction),
        # keeping per-key op counts so reduced-away events still reach the
        # metrics (EventMetrics consume counts, EventMetrics.java:26-84)
        out = lww_pre_reduce_with_counts(out, keys)
        # shard id: table_idx * P + hash(key) % P — the ONE shuffle key
        part = stable_hash_cols(out, keys) % np.uint64(self.num_partitions)
        tidx = self.table_index[t]
        shard = pa.array(
            (part + np.uint64(tidx * self.num_partitions)).astype(np.int64),
            type=pa.int64(),
        )
        out = out.append_column("__shard", shard)
        out = out.append_column("__table", pa.array([t] * len(out), pa.string()))
        return out


def sort_key_components(col, k: int) -> list[np.ndarray]:
    """First k elements of a list<int> column as dense int64 arrays
    (missing elements / null lists → 0), vectorized on the flat buffers —
    the multi-element SortKey tiebreak (SortKey.java:26-41) without any
    per-row Python."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(k)]
    valid = ~np.asarray(pc.is_null(col).to_numpy(zero_copy_only=False))
    offsets = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    values = col.values.to_numpy(zero_copy_only=False).astype(np.int64) \
        if len(col.values) else np.empty(0, dtype=np.int64)
    lens = offsets[1:] - offsets[:-1]
    out = []
    for i in range(k):
        comp = np.zeros(n, dtype=np.int64)
        has = valid & (lens > i)
        comp[has] = values[offsets[:-1][has] + i]
        out.append(comp)
    return out


def version_col_names(cols) -> list[str]:
    """Version order = (__src_ts, __sk0.., __seq), derived from the columns
    actually present so width follows cfg.sort_key_components."""
    return ["__src_ts", *sk_names(cols), "__seq"]


def _version_order(tbl: pa.Table) -> np.ndarray:
    """Row permutation sorting by version (__src_ts, __sk0.., __seq) —
    computed on the int64 columns ONLY, so the (fat) token payload is
    never moved by the sort.  pyarrow sort_indices is stable."""
    names = version_col_names(tbl.column_names)
    slim = tbl.select(names)
    return pc.sort_indices(
        slim, sort_keys=[(n, "ascending") for n in names]).to_numpy()


def _winner_positions(ids_sorted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(positions-in-sorted-order of each key's last row, key codes of those
    rows).  Factorize = exact C hash table, no collision risk."""
    import pandas as pd

    codes, _ = pd.factorize(ids_sorted)
    _, first_rev = np.unique(codes[::-1], return_index=True)
    last_pos = len(codes) - 1 - first_rev
    return last_pos, codes


def lww_pre_reduce_with_counts(tbl: pa.Table, key) -> pa.Table:
    """Phase-1 LWW combine: keep the max-version row per (possibly
    composite) key within a batch AND attach per-key op counts
    (__n_ins/__n_upd/__n_del) so the merge stage's metrics see every
    consumed event, not only the winners."""
    order = _version_order(tbl)
    ids_sorted = key_codes(tbl, _as_key_list(key))[order]
    last_pos, codes = _winner_positions(ids_sorted)
    n = int(codes.max()) + 1 if len(codes) else 0
    ops = tbl["__op"].to_numpy(zero_copy_only=False)[order]
    snaps = tbl["__snap"].to_numpy(zero_copy_only=False)[order].astype(bool)
    n_ins = np.bincount(codes[ops == "INSERT"], minlength=n)
    n_upd = np.bincount(codes[ops == "UPDATE"], minlength=n)
    n_del = np.bincount(codes[ops == "DELETE"], minlength=n)
    n_snap = np.bincount(codes[snaps], minlength=n)
    winners = order[last_pos]  # original row indices of per-key winners
    if len(winners) == tbl.num_rows:
        # every key unique in the batch: keep the original row order, but
        # scatter the (winner-order) count arrays back to row order —
        # row i is winner j where winners[j] == i
        out = tbl
        inv = np.empty(len(winners), dtype=np.int64)
        inv[winners] = np.arange(len(winners))
        wc = codes[last_pos][inv]
    else:
        out = tbl.take(pa.array(winners))
        wc = codes[last_pos]
    out = out.drop_columns(["__snap"])
    out = out.append_column("__n_ins", pa.array(n_ins[wc], pa.int64()))
    out = out.append_column("__n_upd", pa.array(n_upd[wc], pa.int64()))
    out = out.append_column("__n_del", pa.array(n_del[wc], pa.int64()))
    out = out.append_column("__n_snap", pa.array(n_snap[wc], pa.int64()))
    return out


def lww_reduce(tbl: pa.Table, key) -> pa.Table:
    """Keep the max-version row per (possibly composite) key (vectorized).

    Version order = (__src_ts, __sk0.., __seq); in ORDERED mode the
    ts/sk columns are zero so this degenerates to max __seq.  Only the
    int version columns are sorted (indices); winners are gathered with
    ONE take, so large token payloads move at most once.
    """
    if tbl.num_rows <= 1:
        return tbl
    order = _version_order(tbl)
    ids_sorted = key_codes(tbl, _as_key_list(key))[order]
    last_pos, _ = _winner_positions(ids_sorted)
    if len(last_pos) == tbl.num_rows:
        return tbl
    return tbl.take(pa.array(order[last_pos]))
