"""Pipeline configuration — mirror of the reference's DeltaConfig
(delta-proto/.../proto/DeltaConfig.java:42-127, validation :170-202) plus
Ray-specific physical knobs.

Reference semantics preserved:
- per-table column whitelists (SourceTable.java:69-72);
- global + per-table DML/DDL blacklists, expanded per table at init
  (DeltaWorker.java:224-236);
- CREATE_TABLE can never be blacklisted, DROP_DATABASE is blacklisted by
  default (DeltaConfig.java:111-115, QueueingEventEmitter.java:96-112);
- per-(table, column) transformation directive chains
  (delta-proto/.../proto/TableTransformation.java:27-64,
  ColumnTransformation.java:24-53);
- retry config (RetryConfig.java:25-40).
- ORDERED vs UN_ORDERED source (SourceProperties.java:24-51): UN_ORDERED
  resolves last-writer by (source_ts, sort_keys, seq) instead of seq.

Macro evaluation (${key} substitution, DefaultMacroEvaluator.java) is
provided by ``expand_macros``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


@dataclass
class TableConfig:
    """SourceTable analog (delta-api/.../api/SourceTable.java:28-91)."""

    name: str
    columns: list[str] | None = None  # whitelist; None = all
    dml_blacklist: set[str] = field(default_factory=set)
    ddl_blacklist: set[str] = field(default_factory=set)
    # ordered directive chain applied to DML rows and DDL schemas:
    # list of directive strings, e.g. "rename source origin",
    # "set-default source web", "mask tokens 0 4"
    # (TransformationUtil.parseDirectiveName:46-52 — first token = name)
    transformations: list[str] = field(default_factory=list)


@dataclass
class RetryConfig:
    """RetryConfig.java:25-40 analog (bounded retry of the apply stage)."""

    max_duration_seconds: int = 0  # 0 = no retry
    delay_seconds: float = 0.1


@dataclass
class ReplayConfig:
    event_log: str = ""            # directory of event-log segments
    lake: str = ""                 # lake root directory
    tables: list[TableConfig] = field(default_factory=list)  # empty = all tables
    dml_blacklist: set[str] = field(default_factory=set)     # global
    ddl_blacklist: set[str] = field(default_factory=lambda: {"DROP_DATABASE"})
    ordering: str = "ORDERED"      # or "UN_ORDERED"
    # number of SortKey tiebreak components honored in UN_ORDERED mode
    # (SortKey.java:26-41 models an arbitrary-length list; version order
    # is (source_ts, sk[0..n), seq))
    sort_key_components: int = 2
    # carry each winning event's before-image (DMLEvent.previousRow,
    # DMLEvent.java:66-72 — set on UPDATE, needed by audit/delete-
    # semantics targets) into the lake as an internal column, exposed by
    # read_table(with_previous=True)
    track_previous: bool = False
    retry: RetryConfig = field(default_factory=RetryConfig)

    # --- physical knobs (Ray side) ---
    num_partitions: int = 32       # hash partitions per table (hash(doc_id) % P)
    chunk_max_events: int = 2_000_000  # replay chunk size (resume granularity)
    # every Nth commit per partition rewrites the full state (base);
    # in between, chunks write DELTA files (merge-on-read, LWW-resolved).
    # 1 = always compact (pure copy-on-write).  Bounds read amplification
    # at N files and cuts per-chunk write amplification from O(state) to
    # O(changes).
    compact_every: int = 8
    # roll loose per-chunk commit records into a manifest file once this
    # many accumulate in a partition (0 = never).  Records are the audit
    # trail and are never deleted, so without rollup every lake read
    # pays one file open per commit EVER MADE; with it, reads cost
    # O(manifests + recent loose) opens at any history length.
    manifest_every: int = 64
    # chunk-pipelining depth of the exchange: with W > 1, up to W
    # consecutive DML chunks are in flight at once — shard s of chunk
    # N+1 chains on shard s of chunk N (a Ray object dependency), so a
    # straggler partition delays only ITSELF, not a global chunk
    # barrier, and chunk N+1's read/transform/split overlaps chunk N's
    # merges.  Per-partition apply order (required by compaction) is
    # preserved by the chain; DDL chunks drain the window (barrier).
    # 1 = each chunk drains before the next is submitted.
    pipeline_chunks: int = 2
    # keep compacting BASE commits clustered on these column(s): every
    # full-state rewrite sorts on the column (a list Z-orders) and
    # writes ``cluster_row_group_rows``-row parquet row groups, so
    # read_table_ds(predicate=...) keeps pruning row groups continuously
    # — no separate optimize_table passes.  Physical layout only (delta
    # files and hash routing untouched); safe to change between runs.
    cluster_by: str | list[str] | None = None
    cluster_row_group_rows: int = 32768
    vacuum: bool = True            # delete superseded COW files after commit
    generation: int = 0            # run generation; isolates recreated pipelines
                                   # (DeltaWorker.java:140-150)
    # ${key} macro values, evaluated at config construction — the plugin-
    # instantiation-time macro evaluation of DeltaWorker.java:208-213
    runtime_args: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.runtime_args:
            import dataclasses

            self.event_log = expand_macros(self.event_log, self.runtime_args)
            self.lake = expand_macros(self.lake, self.runtime_args)
            # REPLACE table configs, never mutate them: a TableConfig
            # shared across two ReplayConfigs (or re-built with different
            # runtime_args) must keep its original ${macro} templates
            self.tables = [
                dataclasses.replace(t, transformations=[
                    expand_macros(d, self.runtime_args)
                    for d in t.transformations
                ])
                for t in self.tables
            ]
        self.validate()

    def validate(self) -> None:
        """DeltaConfig.validatePipeline analog (DeltaConfig.java:170-202)."""
        if not self.event_log:
            raise ValueError("event_log is required")
        if not self.lake:
            raise ValueError("lake is required")
        if self.ordering not in ("ORDERED", "UN_ORDERED"):
            raise ValueError(f"bad ordering {self.ordering!r}")
        if self.num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if self.sort_key_components < 1:
            raise ValueError("sort_key_components must be >= 1")
        if self.compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        if self.manifest_every < 0:
            raise ValueError("manifest_every must be >= 0 (0 disables)")
        if self.cluster_row_group_rows < 1:
            raise ValueError("cluster_row_group_rows must be >= 1")
        for bl in [self.ddl_blacklist] + [t.ddl_blacklist for t in self.tables]:
            # CREATE_TABLE can never be blacklisted
            # (QueueingEventEmitter.java:101-104 does remove(CREATE_TABLE))
            bl.discard("CREATE_TABLE")
        seen = set()
        for t in self.tables:
            if t.name in seen:
                raise ValueError(f"duplicate table config: {t.name}")
            seen.add(t.name)

    # effective per-table blacklists = global ∪ per-table
    # (DeltaWorker.java:224-236)
    def dml_blacklist_for(self, table: str) -> set[str]:
        tc = self.table_config(table)
        return self.dml_blacklist | (tc.dml_blacklist if tc else set())

    def ddl_blacklist_for(self, table: str) -> set[str]:
        tc = self.table_config(table)
        bl = self.ddl_blacklist | (tc.ddl_blacklist if tc else set())
        bl.discard("CREATE_TABLE")
        return bl

    def table_config(self, table: str) -> TableConfig | None:
        for t in self.tables:
            if t.name == table:
                return t
        return None

    @property
    def table_names(self) -> set[str]:
        return {t.name for t in self.tables}


_MACRO = re.compile(r"\$\{([^}]+)\}")


def expand_macros(value: str, args: dict[str, str]) -> str:
    """${key} substitution from runtime args
    (delta-app/.../store/DefaultMacroEvaluator.java analog)."""
    def sub(m: re.Match) -> str:
        k = m.group(1)
        if k not in args:
            raise KeyError(f"macro {k!r} not provided")
        return args[k]

    return _MACRO.sub(sub, value)


# ------------------------------------------------------- (de)serialization
def config_to_dict(cfg: ReplayConfig) -> dict:
    """JSON-safe dict of a ReplayConfig (draft persistence / CLI surface —
    the DeltaConfig JSON codec analog, DeltaConfig.java:42-127)."""
    return {
        "event_log": cfg.event_log,
        "lake": cfg.lake,
        "tables": [
            {
                "name": t.name,
                "columns": t.columns,
                "dml_blacklist": sorted(t.dml_blacklist),
                "ddl_blacklist": sorted(t.ddl_blacklist),
                "transformations": list(t.transformations),
            }
            for t in cfg.tables
        ],
        "dml_blacklist": sorted(cfg.dml_blacklist),
        "ddl_blacklist": sorted(cfg.ddl_blacklist),
        "ordering": cfg.ordering,
        "sort_key_components": cfg.sort_key_components,
        "track_previous": cfg.track_previous,
        "retry": {"max_duration_seconds": cfg.retry.max_duration_seconds,
                  "delay_seconds": cfg.retry.delay_seconds},
        "num_partitions": cfg.num_partitions,
        "chunk_max_events": cfg.chunk_max_events,
        "compact_every": cfg.compact_every,
        "manifest_every": cfg.manifest_every,
        "pipeline_chunks": cfg.pipeline_chunks,
        "cluster_by": cfg.cluster_by,
        "cluster_row_group_rows": cfg.cluster_row_group_rows,
        "vacuum": cfg.vacuum,
        "generation": cfg.generation,
    }


def config_from_dict(d: dict, runtime_args: dict[str, str] | None = None) -> ReplayConfig:
    """Rebuild a ReplayConfig from :func:`config_to_dict` output; macros in
    the stored draft resolve against ``runtime_args`` at build time
    (DeltaWorker.java:208-213)."""
    tables = [
        TableConfig(
            name=t["name"],
            columns=t.get("columns"),
            dml_blacklist=set(t.get("dml_blacklist", [])),
            ddl_blacklist=set(t.get("ddl_blacklist", [])),
            transformations=list(t.get("transformations", [])),
        )
        for t in d.get("tables", [])
    ]
    retry = RetryConfig(**d.get("retry", {}))
    kw = {k: d[k] for k in (
        "event_log", "lake", "ordering", "sort_key_components",
        "track_previous", "num_partitions", "chunk_max_events",
        "compact_every", "manifest_every", "pipeline_chunks",
        "cluster_by", "cluster_row_group_rows",
        "vacuum", "generation") if k in d}
    return ReplayConfig(
        tables=tables, retry=retry,
        dml_blacklist=set(d.get("dml_blacklist", [])),
        ddl_blacklist=set(d.get("ddl_blacklist", ["DROP_DATABASE"])),
        runtime_args=dict(runtime_args or {}),
        **kw,
    )
