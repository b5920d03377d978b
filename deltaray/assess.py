"""Assessment (dry-run) service — config-time validation of a replay
pipeline against an event log, without touching the lake.

Mirrors the reference's Assessor (delta-app/.../service/Assessor.java):
``list_tables`` (:93-97), ``describe_table`` (:117-126), ``assess_table``
(:141-182 — filter columns by whitelist, warn on unselected primary key
:290-312, apply transformations to the schema), ``assess_pipeline``
(:201-268) and the support-level summary (``summarize`` :455-477).

The "table registry" here is the event log's DDL stream: the final schema
of each table is what a full replay would leave behind, computed
driver-side from the (tiny) set of DDL rows — no Ray needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from deltaray.config import ReplayConfig
from deltaray.schemas import _TYPE_CODES, TableSchema, apply_ddl
from deltaray.transforms import DIRECTIVES, apply_directives_to_schema, parse_directive

# Support levels (delta-api/.../api/assessment/ColumnSupport.java)
YES, PARTIAL, NO = "YES", "PARTIAL", "NO"

# Types the merge/LWW engine round-trips exactly; everything else in the
# codec still replays but float comparisons in oracles are approximate.
_EXACT = {"int32", "int64", "string", "bool", "timestamp[us]",
          "list<int32>", "list<int64>"}


@dataclass
class ColumnAssessment:
    name: str
    type_code: str
    support: str
    suggestion: str | None = None


@dataclass
class TableAssessment:
    table: str
    key: str
    columns: list[ColumnAssessment] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def _final_schemas(event_log: str) -> dict[str, TableSchema]:
    """Replay only the DDL rows driver-side → final per-table schemas
    (TableRegistry.standardize analog — the log is already standardized)."""
    from deltaray.pipeline import discover_segments, load_ddl_events

    schemas: dict[str, TableSchema] = {}
    for row in load_ddl_events(discover_segments(event_log)):
        schemas = apply_ddl(schemas, row["table"], row["op"],
                            row["ddl_payload"], row["seq"])
    return schemas


def list_tables(event_log: str) -> list[str]:
    """Assessor.listTables:93-97 analog."""
    return sorted(_final_schemas(event_log))


def describe_table(event_log: str, table: str) -> TableSchema:
    """Assessor.describeTable:117-126 analog: final schema after all DDL."""
    schemas = _final_schemas(event_log)
    if table not in schemas:
        raise KeyError(f"unknown table {table!r}")
    return schemas[table]


def _assess_columns(schema: TableSchema) -> list[ColumnAssessment]:
    out = []
    for name, code in schema.fields:
        if code not in _TYPE_CODES:
            out.append(ColumnAssessment(name, code, NO,
                                        f"type {code!r} is not replicable"))
        elif code in _EXACT:
            out.append(ColumnAssessment(name, code, YES))
        else:
            out.append(ColumnAssessment(
                name, code, PARTIAL,
                "floating-point column: replay is exact but external "
                "comparisons should use a tolerance"))
    return out


def assess_table(cfg: ReplayConfig, table: str,
                 schemas: dict[str, TableSchema] | None = None) -> TableAssessment:
    """Assessor.assessTable:141-182 analog: whitelist filter → directive
    chain over the schema → column verdicts + structural warnings."""
    schemas = schemas if schemas is not None else _final_schemas(cfg.event_log)
    if table not in schemas:
        return TableAssessment(table, key="", errors=[f"table {table!r} not in event log"])
    schema = schemas[table]
    ta = TableAssessment(table, key=schema.key)
    tc = cfg.table_config(table)

    # column whitelist (SourceTable.java:69-72); unselected PK warns
    # (Assessor.java:290-312)
    if tc and tc.columns is not None:
        missing = set(tc.columns) - set(schema.column_names())
        for m in sorted(missing):
            ta.errors.append(f"whitelisted column {m!r} does not exist")
        missing_pk = [k for k in schema.keys if k not in tc.columns]
        if missing_pk:
            ta.warnings.append(
                f"primary key {missing_pk!r} is not in the column whitelist; "
                "upserts cannot be keyed — it will be selected anyway")
        keep = set(tc.columns) | set(schema.keys)
        schema = TableSchema(schema.name, schema.key,
                             [(n, c) for n, c in schema.fields if n in keep],
                             dict(schema.renames), schema.version_seq,
                             dict(schema.epochs), dict(schema.tombstones))

    # unknown directives / directive failures surface as errors, not crashes
    directives = tc.transformations if tc else []
    for d in directives:
        name, _ = parse_directive(d)
        if name not in DIRECTIVES:
            ta.errors.append(f"unknown directive {name!r} in {d!r}")
    try:
        schema = apply_directives_to_schema(schema, directives)
    except Exception as e:  # rename collision, bad args, ...
        ta.errors.append(f"directive chain failed on schema: {e}")

    # blacklist sanity (mirrors DeltaConfig.java:111-115 validation intent)
    if "INSERT" in cfg.dml_blacklist_for(table):
        ta.warnings.append("INSERT is blacklisted: table can only shrink")

    ta.columns = _assess_columns(schema)
    return ta


def summarize(assessments: list[TableAssessment]) -> dict:
    """Assessor.summarize:455-477 analog: per-table counts by support."""
    tables = {}
    for ta in assessments:
        counts = {YES: 0, PARTIAL: 0, NO: 0}
        for c in ta.columns:
            counts[c.support] += 1
        tables[ta.table] = {
            "columns": counts,
            "warnings": len(ta.warnings),
            "errors": len(ta.errors),
        }
    return {
        "tables": tables,
        "ok": all(not ta.errors for ta in assessments),
    }


def assess_pipeline(cfg: ReplayConfig) -> dict:
    """Assessor.assessPipeline:201-268 analog: assess every configured
    table (or every table in the log when none configured)."""
    schemas = _final_schemas(cfg.event_log)
    names = sorted(cfg.table_names or schemas)
    assessments = [assess_table(cfg, t, schemas) for t in names]
    report = summarize(assessments)
    report["assessments"] = [
        {
            "table": ta.table,
            "key": ta.key,
            "columns": [
                {"name": c.name, "type": c.type_code, "support": c.support,
                 **({"suggestion": c.suggestion} if c.suggestion else {})}
                for c in ta.columns
            ],
            "warnings": ta.warnings,
            "errors": ta.errors,
        }
        for ta in assessments
    ]
    return report


def validate_lake(lake_root: str, generation: int = 0,
                  deep: bool = False) -> dict:
    """Lake integrity check (fsck): verify the physical state matches
    the commit log — the operational tool an on-call runs before
    trusting a resume or handing the lake to a consumer.

    Metadata-level checks (no data reads):
      - every live commit's data file exists (vacuum safety);
      - per-partition commit seq ranges are strictly ascending
        (overlap warns: legitimate for re-segmented re-replays, which
        are LWW-idempotent, but worth eyes);
      - lineage agrees with the commit log (its last_seq and file are
        the latest commit's);
      - generation meta present with a matching hash_version and
        partition ids within num_partitions;
      - orphan data files (unreferenced by any commit = safe vacuum
        candidates) counted with their bytes.

    ``deep=True`` additionally opens every live parquet footer and
    checks the embedded TableSchema parses and the row count matches
    the commit record — O(live files) footer reads, still no payload.

    Returns {ok, errors, warnings, tables:{...}}; errors are states a
    resume could corrupt or a read would crash on, warnings are
    recoverable (orphans, missing lineage).
    """
    import json
    import os

    import pyarrow.parquet as pq

    from deltaray.commit import SCHEMA_META_KEY, LakeState
    from deltaray.schemas import TableSchema
    from deltaray.transforms import HASH_VERSION

    lake = LakeState(lake_root, generation)
    errors: list[str] = []
    warnings: list[str] = []
    tables: dict = {}
    meta_path = os.path.join(lake.root, "_meta.json")
    num_partitions = None
    if not os.path.isdir(lake.root):
        return {"ok": False, "errors": [f"no generation at {lake.root}"],
                "warnings": [], "tables": {}}
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            meta = json.load(f)
        num_partitions = int(meta.get("num_partitions", 0)) or None
        hv = meta.get("hash_version")
        if hv != HASH_VERSION:
            errors.append(
                f"hash_version {hv} != engine {HASH_VERSION} — point "
                f"lookups/merges would mis-route; migrate via "
                f"reshard_generation")
    else:
        warnings.append("no _meta.json (pre-first-commit lake?)")
    for t in lake.list_tables():
        info = {"partitions": 0, "live_files": 0, "orphan_files": 0,
                "bytes_live": 0, "bytes_orphan": 0}
        tables[t] = info
        if lake.current_schema(t) is None:
            errors.append(f"{t}: no schema records")
            continue
        for p in lake.partitions(t):
            d = lake.part_dir(t, p)
            info["partitions"] += 1
            if num_partitions is not None and not 0 <= p < num_partitions:
                errors.append(f"{t}/part={p}: outside num_partitions="
                              f"{num_partitions}")
            try:
                commits = lake.list_commits(t, p)
            except Exception as exc:  # e.g. a corrupt/truncated manifest
                errors.append(f"{t}/part={p}: commit log unreadable: "
                              f"{exc}")
                continue
            prev_hi = -1
            for c in commits:
                if not c["seq_lo"] <= c["seq_hi"]:
                    errors.append(f"{t}/part={p}: inverted commit range "
                                  f"({c['seq_lo']},{c['seq_hi']})")
                # ranges are half-open (lo, hi]: adjacent chunks share
                # the boundary seq, a true overlap starts BELOW it.
                # Overlap is a WARNING, not an error: a re-segmented
                # re-replay of the same events legitimately re-commits
                # overlapping ranges (LWW re-apply is idempotent and
                # range-named data files keep them distinct) — but it
                # deserves eyes, since different events in the overlap
                # would mean a forked upstream log
                if c["seq_lo"] < prev_hi:
                    warnings.append(
                        f"{t}/part={p}: overlapping commit ranges at "
                        f"seq_hi={c['seq_hi']} (re-segmented replay? "
                        f"safe iff the overlap replays the same events)")
                prev_hi = c["seq_hi"]
            live = lake.live_commits(t, p)
            referenced = {c["file"] for c in commits}
            on_disk = {f for f in os.listdir(d) if f.endswith(".parquet")}
            for c in live:
                path = os.path.join(d, c["file"])
                if not os.path.exists(path):
                    errors.append(f"{t}/part={p}: live file {c['file']} "
                                  f"missing (bad vacuum / partial copy)")
                    continue
                info["live_files"] += 1
                info["bytes_live"] += os.path.getsize(path)
                if deep:
                    try:
                        fmeta = pq.ParquetFile(path)
                        kv = fmeta.schema_arrow.metadata or {}
                        if SCHEMA_META_KEY not in kv:
                            errors.append(f"{t}/part={p}: {c['file']} "
                                          f"lacks embedded schema")
                        else:
                            TableSchema.from_json(
                                kv[SCHEMA_META_KEY].decode())
                        if fmeta.metadata.num_rows != int(c["rows"]):
                            errors.append(
                                f"{t}/part={p}: {c['file']} rows "
                                f"{fmeta.metadata.num_rows} != commit "
                                f"{c['rows']}")
                    except Exception as exc:  # corrupt footer
                        errors.append(f"{t}/part={p}: {c['file']} "
                                      f"unreadable: {exc}")
            for f in sorted(on_disk - referenced):
                info["orphan_files"] += 1
                info["bytes_orphan"] += os.path.getsize(
                    os.path.join(d, f))
            lin = lake.read_lineage(t, p)
            hi = int(commits[-1]["seq_hi"]) if commits else 0
            if lin is None and commits:
                warnings.append(f"{t}/part={p}: no lineage record")
            elif lin is not None and int(lin.get("last_seq", -1)) != hi:
                errors.append(
                    f"{t}/part={p}: lineage last_seq "
                    f"{lin.get('last_seq')} != committed_hi {hi}")
            elif commits and lin.get("file") != commits[-1]["file"]:
                errors.append(
                    f"{t}/part={p}: lineage file {lin.get('file')} != "
                    f"latest commit's {commits[-1]['file']}")
        if info["orphan_files"]:
            warnings.append(
                f"{t}: {info['orphan_files']} orphan file(s), "
                f"{info['bytes_orphan']} bytes — vacuum candidates")
        err = lake.read_table_error(t)
        if err is not None:
            warnings.append(f"{t}: FAILING state persisted "
                            f"(chunk {err.get('chunk')}): "
                            f"{err.get('error')}")
    return {"ok": not errors, "errors": errors, "warnings": warnings,
            "tables": tables}
