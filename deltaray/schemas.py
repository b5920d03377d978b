"""Arrow schemas + the DDL payload codec.

Event model mirrors the reference's ChangeEvent hierarchy
(delta-api/.../api/ChangeEvent.java:25-60, DMLEvent.java:33-102,
DDLEvent.java:31-55, Sequenced.java:26-53) as columns of one Arrow table:
the sequence number is data (a ``seq`` column), not emitter state
(ref assigns it in QueueingEventEmitter.java:87 because its sources
can't; a file-backed log carries it natively).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import pyarrow as pa

# ---------------------------------------------------------------- op types
# DML op types: delta-api/.../api/DMLOperation.java (INSERT/DELETE/UPDATE).
DML_OPS = ("INSERT", "UPDATE", "DELETE")
# DDL op types: delta-api/.../api/DDLOperation.java:30-38, plus RENAME_COLUMN
# which the reference expresses through the transformation directive surface
# (TransformationUtil.transformDDLEvent:121-132) but our log carries in-band.
DDL_OPS = (
    "CREATE_DATABASE",
    "DROP_DATABASE",
    "CREATE_TABLE",
    "DROP_TABLE",
    "TRUNCATE_TABLE",
    "ALTER_TABLE",
    "RENAME_TABLE",
    "RENAME_COLUMN",
)

# Columns every event-log segment carries regardless of payload schema.
# doc_id/tokens/n_tok/source (+ DDL-added columns) are the *payload* and are
# whatever the table schema says at that point of the log.
META_COLUMNS = (
    "seq",          # int64, strictly increasing, unique (Sequenced.java:26-53)
    "op",           # string in DML_OPS | DDL_OPS
    "table",        # logical target table (DMLOperation db.schema.table)
    "prev_tokens",  # previousRow payload, UPDATE only (DMLEvent.java:66-72)
    "ingest_ts",    # timestamp[us] (DMLOperation ingestTimestampMillis)
    "source_ts",    # timestamp[us], required for UN_ORDERED (ChangeEvent.java:51-60)
    "sort_keys",    # list<int64> tiebreaker (SortKey.java:26-41)
    "is_snapshot",  # bool (ChangeEvent.java:43-45)
    "tx_id",        # nullable string (DMLEvent transactionId)
    "ddl_payload",  # JSON string for DDL rows (DDLEvent schema/primaryKey/rename)
)

# implicit key column of rowId-keyed tables (DMLEvent.rowId analog)
ROW_ID_COL = "row_id"

TOKENS = pa.list_(pa.int32())

_TYPE_CODES = {
    "int32": pa.int32(),
    "int64": pa.int64(),
    "float32": pa.float32(),
    "float64": pa.float64(),
    "string": pa.string(),
    "bool": pa.bool_(),
    "timestamp[us]": pa.timestamp("us"),
    "list<int32>": pa.list_(pa.int32()),
    "list<int64>": pa.list_(pa.int64()),
    "list<float>": pa.list_(pa.float32()),
    "list<double>": pa.list_(pa.float64()),
}


def code_to_type(code: str) -> pa.DataType:
    return _TYPE_CODES[code]


@dataclass
class TableSchema:
    """Logical schema of one replicated table (the lake side).

    Mirrors DDLEvent.schema + primaryKey (DDLEvent.java:49-55): the *full*
    table schema as of a DDL event, carried in-band.  ``key`` is the
    primary key — a single column name (input_hint: doc_id), a LIST of
    column names for a composite key (primaryKey: List<String>,
    DDLEvent.java:31-55), or ``None`` for ROW-ID KEYED tables
    (SourceProperties.rowIdSupported + DMLEvent.rowId,
    SourceProperties.java:24-51 / DMLEvent.java:78-85): the source keys
    rows by an opaque ``row_id`` string instead of a declared PK — the
    engine materializes it as a ``row_id`` payload column and keys all
    merge/upsert state on it.
    """

    name: str
    key: str | list[str] | None  # None = rowId-keyed (DMLEvent.rowId)
    fields: list[tuple[str, str]]  # (column name, type code) in order
    # accumulated old->new renames with chain collapsing
    # (DefaultMutableRowSchema.java:85-130)
    renames: dict[str, str] = field(default_factory=dict)
    version_seq: int = 0  # seq of the DDL event that produced this schema
    # DROP-then-re-ADD tracking: ``epochs[name]`` = seq of the ADD that
    # RE-introduced a previously dropped name; ``tombstones[name]`` =
    # seq of its latest DROP.  Files are stamped with their write-time
    # schema, so merge.evolve_to can null-fill a column whose stamped
    # epoch predates the target's — the file's bytes belong to the
    # DROPPED column of the same name and must never be resurrected.
    epochs: dict[str, int] = field(default_factory=dict)
    tombstones: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        # rowId-keyed table: ensure the implicit row_id column exists
        if self.key is None and ROW_ID_COL not in {n for n, _ in self.fields}:
            self.fields = [(ROW_ID_COL, "string")] + list(self.fields)

    @property
    def keys(self) -> list[str]:
        """Primary-key components as a list (len 1 for scalar keys;
        the implicit [row_id] for rowId-keyed tables)."""
        if self.key is None:
            return [ROW_ID_COL]
        return [self.key] if isinstance(self.key, str) else list(self.key)

    def arrow_schema(self) -> pa.Schema:
        return pa.schema([pa.field(n, code_to_type(c)) for n, c in self.fields])

    def column_names(self) -> list[str]:
        return [n for n, _ in self.fields]

    def to_json(self) -> str:
        d = {
            "name": self.name,
            "key": self.key,
            "fields": self.fields,
            "renames": self.renames,
            "version_seq": self.version_seq,
        }
        if self.epochs:
            d["epochs"] = self.epochs
        if self.tombstones:
            d["tombstones"] = self.tombstones
        return json.dumps(d)

    @staticmethod
    def from_json(s: str) -> "TableSchema":
        d = json.loads(s)
        return TableSchema(
            name=d["name"],
            key=d["key"],
            fields=[tuple(f) for f in d["fields"]],
            renames=dict(d.get("renames", {})),
            version_seq=int(d.get("version_seq", 0)),
            epochs={k: int(v) for k, v in d.get("epochs", {}).items()},
            tombstones={k: int(v)
                        for k, v in d.get("tombstones", {}).items()},
        )

    # ---- DDL application -------------------------------------------------
    def with_added_column(self, name: str, code: str, seq: int) -> "TableSchema":
        if name in self.column_names():
            raise ValueError(f"ALTER_TABLE: column {name!r} already exists")
        if name in self.renames:
            # `name` is the ORIGINAL name of a renamed-away live column:
            # accepting it would alias two identities in the name-based
            # file unification (old files' `name` bytes would map onto
            # the renamed column AND collide with the new one)
            raise ValueError(
                f"ALTER_TABLE: {name!r} is the pre-rename name of column "
                f"{self.renames[name]!r}; pick a different name")
        epochs = dict(self.epochs)
        if name in self.tombstones:  # re-ADD of a dropped name: new epoch
            epochs[name] = seq
        return TableSchema(self.name, self.key, self.fields + [(name, code)],
                           dict(self.renames), seq,
                           epochs, dict(self.tombstones))

    def with_altered_type(self, name: str, code: str, seq: int) -> "TableSchema":
        """ALTER COLUMN TYPE (the "ALTER" of the north-star's
        "ADD/ALTER/RENAME column"): change a payload column's type code.
        Stored partition files keep their written type and are cast to
        the new one at the per-partition Arrow unification point
        (merge.evolve_to); post-alter events conform at transform time.
        Key columns are immutable — their bytes feed the hash router, so
        re-typing one would silently re-route existing keys."""
        if code not in _TYPE_CODES:
            raise ValueError(f"ALTER_TABLE: unknown type code {code!r}")
        if name in self.keys:
            raise ValueError("cannot alter a key column's type")
        names = self.column_names()
        if name not in names:
            raise ValueError(f"ALTER_TABLE: no column {name!r}")
        return TableSchema(self.name, self.key,
                           [(n, code if n == name else c)
                            for n, c in self.fields],
                           dict(self.renames), seq,
                           dict(self.epochs), dict(self.tombstones))

    def with_dropped_column(self, name: str, seq: int) -> "TableSchema":
        if name in self.keys:
            raise ValueError("cannot drop a key column")
        if name not in self.column_names():
            raise ValueError(f"ALTER_TABLE: no column {name!r}")
        epochs = dict(self.epochs)
        epochs.pop(name, None)
        tombstones = dict(self.tombstones)
        tombstones[name] = seq
        # tombstone the chain's ORIGINAL name too: files written before
        # the rename hold the dropped identity's bytes under that name,
        # so a future ADD of the original name must start a new epoch
        origin = next((o for o, n in self.renames.items() if n == name),
                      name)
        tombstones[origin] = seq
        # the rename chain must not map an ORIGINAL name onto a future
        # re-add of this name: drop any chain ending at the dropped name
        renames = {o: n for o, n in self.renames.items() if n != name}
        return TableSchema(self.name, self.key,
                           [(n, c) for n, c in self.fields if n != name],
                           renames, seq, epochs, tombstones)

    def with_renamed_column(self, old: str, new: str, seq: int) -> "TableSchema":
        """Rename with chain collapsing: a->b then b->c records a->c; a->b
        then b->a cancels (DefaultMutableRowSchema.java:113-130).  Collision
        check is case-insensitive (DefaultMutableRowSchema.java:103)."""
        names = self.column_names()
        if old not in names:
            raise ValueError(f"RENAME_COLUMN: no column {old!r}")
        if new != old and new.lower() in {n.lower() for n in names if n != old}:
            raise ValueError(f"RENAME_COLUMN: column {new!r} already exists")
        if new != old and new in self.tombstones:
            # name-based file unification cannot distinguish this
            # column's history from the dropped column's bytes still
            # present in stored files — re-ADD the name instead
            raise ValueError(
                f"RENAME_COLUMN: {new!r} names a previously dropped "
                "column; ADD a new column instead of renaming onto it")
        fields = [(new if n == old else n, c) for n, c in self.fields]
        renames = dict(self.renames)
        # find the original name that currently maps to `old` (chain collapse)
        origin = next((o for o, n in renames.items() if n == old), old)
        if origin == new:
            renames.pop(origin, None)  # a->b->a cancels
        else:
            renames[origin] = new
        # PK rename remap — any composite component tracks the rename
        if self.key is None:
            key: str | list[str] | None = None
        elif isinstance(self.key, str):
            key = new if self.key == old else self.key
        else:
            key = [new if k == old else k for k in self.key]
        # epoch/tombstone bookkeeping follows the column's current name
        epochs = {(new if k == old else k): v
                  for k, v in self.epochs.items()}
        tombstones = {(new if k == old else k): v
                      for k, v in self.tombstones.items()}
        return TableSchema(self.name, key, fields, renames, seq,
                           epochs, tombstones)


def default_table_schema(name: str = "docs", seq: int = 0) -> TableSchema:
    """The input_hint shape: (doc_id, tokens, n_tok, source)."""
    return TableSchema(
        name=name,
        key="doc_id",
        fields=[
            ("doc_id", "string"),
            ("tokens", "list<int32>"),
            ("n_tok", "int32"),
            ("source", "string"),
        ],
        version_seq=seq,
    )


def event_log_schema(table_schema: TableSchema) -> pa.Schema:
    """Arrow schema of one event-log segment for a given payload schema."""
    fields = [
        pa.field("seq", pa.int64()),
        pa.field("op", pa.string()),
        pa.field("table", pa.string()),
    ]
    fields += [pa.field(n, code_to_type(c)) for n, c in table_schema.fields]
    fields += [
        pa.field("prev_tokens", TOKENS),
        pa.field("ingest_ts", pa.timestamp("us")),
        pa.field("source_ts", pa.timestamp("us")),
        pa.field("sort_keys", pa.list_(pa.int64())),
        pa.field("is_snapshot", pa.bool_()),
        pa.field("tx_id", pa.string()),
        pa.field("ddl_payload", pa.string()),
    ]
    return pa.schema(fields)


# ---------------------------------------------------------------- DDL codec
def ddl_payload(
    op: str,
    *,
    schema: TableSchema | None = None,
    add: tuple[str, str] | None = None,
    alter: tuple[str, str] | None = None,
    drop: str | None = None,
    rename: tuple[str, str] | None = None,
    prev_table_name: str | None = None,
) -> str:
    """Serialize a DDL event payload (DDLEvent.java:31-55 analog)."""
    d: dict = {"op": op}
    if schema is not None:
        d["schema"] = {"key": schema.key, "fields": schema.fields}
    if add is not None:
        d["add"] = list(add)
    if alter is not None:
        d["alter"] = list(alter)
    if drop is not None:
        d["drop"] = drop
    if rename is not None:
        d["rename"] = list(rename)
    if prev_table_name is not None:
        d["prev_table_name"] = prev_table_name
    return json.dumps(d)


def apply_ddl(
    schemas: dict[str, TableSchema], table: str, op: str, payload: str, seq: int
) -> dict[str, TableSchema]:
    """Apply one DDL event to the schema registry; returns a new registry.

    CREATE_TABLE / DROP_TABLE / TRUNCATE_TABLE side effects on data files are
    handled by the engine (commit.py) — this only tracks logical schemas.
    """
    d = json.loads(payload) if payload else {}
    out = dict(schemas)
    if op == "CREATE_TABLE":
        sd = d.get("schema")
        if sd:
            out[table] = TableSchema(table, sd["key"],
                                     [tuple(f) for f in sd["fields"]],
                                     version_seq=seq)
        else:
            out[table] = default_table_schema(table, seq)
    elif op == "DROP_TABLE":
        out.pop(table, None)
    elif op == "ALTER_TABLE":
        if "add" in d:
            name, code = d["add"]
            out[table] = out[table].with_added_column(name, code, seq)
        elif "drop" in d:
            out[table] = out[table].with_dropped_column(d["drop"], seq)
        elif "alter" in d:
            name, code = d["alter"]
            out[table] = out[table].with_altered_type(name, code, seq)
    elif op == "RENAME_COLUMN":
        old, new = d["rename"]
        out[table] = out[table].with_renamed_column(old, new, seq)
    elif op == "RENAME_TABLE":
        prev = d["prev_table_name"]
        ts = out.pop(prev)
        out[table] = TableSchema(table, ts.key, list(ts.fields),
                                 dict(ts.renames), seq,
                                 dict(ts.epochs), dict(ts.tombstones))
    elif op in ("TRUNCATE_TABLE", "CREATE_DATABASE", "DROP_DATABASE"):
        pass  # no schema change
    else:
        raise ValueError(f"unknown DDL op: {op}")
    return out
