"""CLI: ``python -m deltaray <cmd>`` — the ray-job-submit entry surface.

Commands own the Ray session (guarded init per driver contract);
the library itself never calls ray.init.

    python -m deltaray replay  --event-log D --lake D [--partitions N]
                               [--chunk-events N] [--unordered]
    python -m deltaray assess  --event-log D [--table T]
    python -m deltaray lineage --lake D [--table T]
    python -m deltaray gen     --out D --docs N --events N [--seed N] [--fast]
    python -m deltaray normalize --format {jsonl|csv|parquet} --src D
                               --out D [--table T] [--segment-events N]
    python -m deltaray bootstrap --snapshot D --event-log D --lake D
                               [--table T] [--partitions N] [--snapshot-seq N]
    python -m deltaray drafts  --root D {list|get|save|delete|assess} [--name N]
                               [--config-json FILE] [--args k=v ...]
    python -m deltaray generations --lake D
    python -m deltaray snapshots --lake D [--table T]
    python -m deltaray reshard --lake D --partitions N [--src-generation G]
    python -m deltaray changes --lake D --table T --since N [--as-of M] [--out D]
    python -m deltaray expire --lake D [--table T] [--retain S | --keep-last K]
    python -m deltaray fsck --lake D [--deep]
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _positive_int(s: str) -> int:
    v = int(s)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def _init_ray():
    import ray

    if not ray.is_initialized():
        # honor RAY_ADDRESS so `ray job submit` runs attach to the
        # cluster; standalone invocations default to a local session
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_replay(a) -> int:
    from deltaray import ReplayConfig, replay
    from deltaray.pipeline import replay_follow

    _init_ray()
    cfg = ReplayConfig(
        event_log=a.event_log, lake=a.lake, num_partitions=a.partitions,
        chunk_max_events=a.chunk_events,
        ordering="UN_ORDERED" if a.unordered else "ORDERED",
        generation=a.generation, pipeline_chunks=a.pipeline_chunks,
        vacuum=not (a.keep_history or a.expire_keep),
        compact_every=a.compact_every,
    )
    hook = None
    if a.expire_keep:
        from deltaray.commit import LakeState
        from deltaray.pipeline import expire_snapshots, snapshots

        def hook():
            # sliding retention window over every table, driven from the
            # chunk/cycle barrier (single writer per partition there)
            snaps = snapshots(a.lake, a.generation)
            if len(snaps) > a.expire_keep:
                retain = snaps[-a.expire_keep]
                for t in LakeState(a.lake, a.generation).list_tables():
                    expire_snapshots(a.lake, t, retain,
                                     generation=a.generation)

    if a.follow:
        res = replay_follow(
            cfg, poll_seconds=a.poll_seconds, idle_polls=3,
            on_cycle=(lambda c, applied, last: hook()) if hook else None)
    else:
        res = replay(cfg, on_chunk=(lambda i, c, rows: hook())
                     if hook else None)
    print(json.dumps({"chunks": res["chunks"], "tables": res["tables"],
                      "metrics": res["metrics"]}, default=str))
    return 0


def cmd_assess(a) -> int:
    from deltaray.assess import assess_pipeline, describe_table
    from deltaray.config import ReplayConfig

    if a.table:
        s = describe_table(a.event_log, a.table)
        print(json.dumps({"table": s.name, "key": s.key, "fields": s.fields,
                          "renames": s.renames}))
        return 0
    rep = assess_pipeline(ReplayConfig(event_log=a.event_log, lake="/tmp/_assess"))
    print(json.dumps(rep))
    return 0 if rep["ok"] else 1


def cmd_lineage(a) -> int:
    from deltaray.pipeline import lineage_report

    print(json.dumps(lineage_report(a.lake, a.table, a.generation)))
    return 0


def cmd_gen(a) -> int:
    from deltaray.gen import write_event_log, write_event_log_fast

    fn = write_event_log_fast if a.fast else write_event_log
    kw = ({"segment_max_events": a.segment_events}
          if a.segment_events else {})
    m = fn(a.out, n_docs=a.docs, n_events=a.events, seed=a.seed, **kw)
    print(json.dumps({"segments": len(m["segments"]), "max_seq": m["max_seq"]}))
    return 0


def cmd_normalize(a) -> int:
    from deltaray.schemas import default_table_schema
    from deltaray.sources import (normalize_csv_log, normalize_jsonl_log,
                                  normalize_parquet_log)

    _init_ray()
    fn = {"jsonl": normalize_jsonl_log, "csv": normalize_csv_log,
          "parquet": normalize_parquet_log}[a.format]
    m = fn(a.src, a.out, default_table_schema(a.table),
           segment_max_events=a.segment_events,
           assume_sorted=a.assume_sorted, local_sort=a.local_sort)
    print(json.dumps({"segments": len(m["segments"]),
                      "max_seq": m["max_seq"]}))
    return 0


def cmd_bootstrap(a) -> int:
    from deltaray import ReplayConfig
    from deltaray.pipeline import bootstrap_table
    from deltaray.schemas import default_table_schema

    _init_ray()
    import ray.data

    cfg = ReplayConfig(event_log=a.event_log, lake=a.lake,
                       num_partitions=a.partitions)
    res = bootstrap_table(cfg, default_table_schema(a.table),
                          ray.data.read_parquet(a.snapshot),
                          snapshot_seq=a.snapshot_seq)
    print(json.dumps(res))
    return 0


def cmd_drafts(a) -> int:
    from deltaray.drafts import DraftStore

    store = DraftStore(a.root)
    args = dict(kv.split("=", 1) for kv in (a.args or []))
    if a.action == "list":
        print(json.dumps(store.list()))
    elif a.action == "get":
        print(json.dumps(store.get(a.name)))
    elif a.action == "save":
        with open(a.config_json) as f:
            print(json.dumps(store.save(a.name, json.load(f))))
    elif a.action == "delete":
        print(json.dumps({"deleted": store.delete(a.name)}))
    elif a.action == "assess":
        rep = store.assess(a.name, runtime_args=args)
        print(json.dumps(rep))
        return 0 if rep["ok"] else 1
    return 0


def cmd_generations(a) -> int:
    from deltaray.commit import latest_generation, list_generations

    print(json.dumps({"generations": list_generations(a.lake),
                      "latest": latest_generation(a.lake)}))
    return 0


def cmd_snapshots(a) -> int:
    from deltaray.pipeline import (committed_watermark, earliest_snapshot,
                                   snapshots)

    out = {"anchors": snapshots(a.lake, a.generation)}
    if a.table:
        out["earliest_readable"] = earliest_snapshot(a.lake, a.table,
                                                     a.generation)
        out["watermark"] = committed_watermark(a.lake, a.table, a.generation)
    print(json.dumps(out))
    return 0


def cmd_fsck(a) -> int:
    from deltaray.assess import validate_lake

    rep = validate_lake(a.lake, a.generation, deep=a.deep)
    print(json.dumps(rep))
    return 0 if rep["ok"] else 1


def cmd_changes(a) -> int:
    from deltaray.pipeline import committed_watermark, read_changes

    _init_ray()
    since = (committed_watermark(a.lake, a.table, a.generation)
             if a.since is None else a.since)
    as_of = a.as_of
    if a.out and a.emit_events and as_of is None:
        # pin the pull at a committed anchor so the FEED and the schema
        # it is emitted under cannot diverge (a DDL could commit between
        # the feed materialization and a current-schema read)
        as_of = committed_watermark(a.lake, a.table, a.generation)
    ds = read_changes(a.lake, a.table, since, generation=a.generation,
                      as_of_seq=as_of)
    if a.out and a.emit_events:
        # replication chaining: write the pull as event-log segments
        # a downstream deltaray replay consumes directly
        from deltaray.commit import LakeState, atomic_write_parquet
        from deltaray.pipeline import _schema_asof
        from deltaray.sources import feed_to_events

        if os.path.exists(os.path.join(a.out, "manifest.json")):
            print(json.dumps({"error":
                              f"{a.out} has a manifest.json: replay "
                              f"reads only manifest-listed segments "
                              f"there and would silently ignore the "
                              f"emitted one — point --out at a plain "
                              f"segment directory"}))
            return 1
        # the schema the feed is under = the as-of anchor's schema
        # (feed_to_events' documented contract), NOT current_schema
        schema = _schema_asof(LakeState(a.lake, a.generation),
                              a.table, as_of)
        # stream the pull into segments batch-wise: a large catch-up
        # pull (first chain sync of a big table) must be bounded by the
        # batch size, not driver memory.  Segment seq bounds come from
        # per-batch min/max; downstream replay discovers segments from
        # parquet footers, so overlapping per-batch seq ranges are fine
        # (chunk reads filter by seq range across all candidate files).
        import pyarrow.compute as _pc

        rows = 0
        segs: list[str] = []
        for b in ds.iter_batches(batch_format="pyarrow",
                                 batch_size=a.emit_batch_rows):
            if b.num_rows == 0:
                continue
            ev = feed_to_events(b, schema, table=a.table)
            lo = _pc.min(ev["seq"]).as_py()
            hi = _pc.max(ev["seq"]).as_py()
            path = os.path.join(
                a.out, f"events-{since:05d}-{len(segs):05d}-"
                       f"{lo:012d}-{hi:012d}.parquet")
            atomic_write_parquet(path, ev)
            segs.append(path)
            rows += ev.num_rows
        # "segment" keeps the old one-segment contract ONLY when the
        # pull really fit one segment; a multi-segment pull nulls it so
        # a consumer copying a single path fails loudly instead of
        # silently dropping the earlier batches — use "segment_paths"
        print(json.dumps({"since": since, "as_of": as_of, "rows": rows,
                          "segment": segs[0] if len(segs) == 1 else None,
                          "segment_paths": segs,
                          "segments": len(segs)}))
    elif a.out:
        ds.write_parquet(a.out)
        import glob as _glob

        files = _glob.glob(os.path.join(a.out, "*.parquet"))
        print(json.dumps({"since": since, "as_of": a.as_of,
                          "files": len(files)}))
    else:
        print(json.dumps({"since": since, "as_of": a.as_of,
                          "rows": ds.count()}))
    return 0


def cmd_reshard(a) -> int:
    from deltaray.pipeline import reshard_generation

    _init_ray()
    print(json.dumps(reshard_generation(
        a.lake, a.partitions, src_generation=a.src_generation,
        dst_generation=a.dst_generation)))
    return 0


def cmd_expire(a) -> int:
    from deltaray.commit import LakeState
    from deltaray.pipeline import expire_snapshots, snapshots

    _init_ray()
    tables = ([a.table] if a.table
              else LakeState(a.lake, a.generation).list_tables())
    retain = a.retain
    if retain is None:
        anchors = snapshots(a.lake, a.generation)
        keep = max(1, a.keep_last)
        retain = anchors[-keep] if len(anchors) >= keep else 0
    out = {t: expire_snapshots(a.lake, t, retain, generation=a.generation)
           for t in tables}
    print(json.dumps(out))
    return 0


def cmd_compact_manifests(a) -> int:
    """Roll loose commit records into manifests across a generation —
    maintenance for lakes written with manifest_every=0 (or a smaller
    threshold than wanted); replay does this inline otherwise."""
    import glob as _glob
    import os as _os

    from deltaray.commit import LakeState

    lake = LakeState(a.lake, a.generation)
    out: dict[str, dict] = {}
    for t in ([a.table] if a.table else lake.list_tables()):
        parts = sorted(
            int(_os.path.basename(d).split("=")[1])
            for d in _glob.glob(_os.path.join(lake.table_dir(t),
                                              "_commits", "part=*")))
        retired = {p: lake.compact_manifests(t, p, a.every) for p in parts}
        out[t] = {"partitions": len(parts),
                  "files_retired": int(sum(retired.values()))}
    # chunk-done markers are generation-level and bound snapshots() /
    # resume the same way commit records bound partition reads
    out["_chunks"] = {"files_retired": lake.compact_chunk_markers(a.every)}
    print(json.dumps(out))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="deltaray")
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("replay")
    r.add_argument("--event-log", required=True)
    r.add_argument("--lake", required=True)
    r.add_argument("--partitions", type=int, default=32)
    r.add_argument("--chunk-events", type=int, default=2_000_000)
    r.add_argument("--pipeline-chunks", type=int, default=2,
                   help="DML chunks in flight (1 = serial barrier loop)")
    r.add_argument("--unordered", action="store_true")
    r.add_argument("--generation", type=int, default=0)
    r.add_argument("--follow", action="store_true",
                   help="keep tailing the log (stop after 3 idle polls)")
    r.add_argument("--poll-seconds", type=float, default=5.0)
    r.add_argument("--keep-history", action="store_true",
                   help="retain superseded COW files (vacuum=False) so "
                        "snapshots stay readable for time travel")
    r.add_argument("--compact-every", type=int, default=8,
                   help="fold base+deltas into a new base every N commits")
    r.add_argument("--expire-keep", type=int, default=0, metavar="K",
                   help="sliding retention: after each chunk/cycle, expire "
                        "every table to the newest K snapshot anchors "
                        "(implies --keep-history)")
    r.set_defaults(fn=cmd_replay)

    s = sub.add_parser("assess")
    s.add_argument("--event-log", required=True)
    s.add_argument("--table")
    s.set_defaults(fn=cmd_assess)

    li = sub.add_parser("lineage")
    li.add_argument("--lake", required=True)
    li.add_argument("--table")
    li.add_argument("--generation", type=int, default=0)
    li.set_defaults(fn=cmd_lineage)

    g = sub.add_parser("gen")
    g.add_argument("--out", required=True)
    g.add_argument("--docs", type=int, default=1000)
    g.add_argument("--events", type=int, default=5000)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--fast", action="store_true")
    g.add_argument("--segment-events", type=int, default=0,
                   help="max events per log segment file (chunk planning "
                        "splits on segment boundaries)")
    g.set_defaults(fn=cmd_gen)

    no = sub.add_parser("normalize")
    no.add_argument("--format", choices=["jsonl", "csv", "parquet"],
                    required=True)
    no.add_argument("--src", required=True)
    no.add_argument("--out", required=True)
    no.add_argument("--table", default="docs")
    no.add_argument("--segment-events", type=int, default=1_000_000)
    no.add_argument("--assume-sorted", action="store_true",
                    help="shards are already globally seq-ordered; skip "
                         "the sort entirely")
    no.add_argument("--local-sort", action="store_true",
                    help="sort within each segment only (zero-shuffle "
                         "normalization; segment seq ranges may overlap)")
    no.set_defaults(fn=cmd_normalize)

    bo = sub.add_parser("bootstrap")
    bo.add_argument("--snapshot", required=True,
                    help="parquet file/dir holding the snapshot rows")
    bo.add_argument("--event-log", required=True)
    bo.add_argument("--lake", required=True)
    bo.add_argument("--table", default="docs")
    bo.add_argument("--partitions", type=int, default=32)
    bo.add_argument("--snapshot-seq", type=int, default=1)
    bo.set_defaults(fn=cmd_bootstrap)

    d = sub.add_parser("drafts")
    d.add_argument("--root", required=True)
    d.add_argument("action", choices=["list", "get", "save", "delete",
                                      "assess"])
    d.add_argument("--name")
    d.add_argument("--config-json")
    d.add_argument("--args", nargs="*", help="macro values k=v")
    d.set_defaults(fn=cmd_drafts)

    ge = sub.add_parser("generations")
    ge.add_argument("--lake", required=True)
    ge.set_defaults(fn=cmd_generations)

    sn = sub.add_parser("snapshots",
                        help="committed as-of anchors for time travel")
    sn.add_argument("--lake", required=True)
    sn.add_argument("--table", help="also report earliest readable anchor "
                                    "and committed watermark")
    sn.add_argument("--generation", type=int, default=0)
    sn.set_defaults(fn=cmd_snapshots)

    rs = sub.add_parser("reshard",
                        help="re-partition the lake into a new generation")
    rs.add_argument("--lake", required=True)
    rs.add_argument("--partitions", type=int, required=True)
    rs.add_argument("--src-generation", type=int, default=0)
    rs.add_argument("--dst-generation", type=int, default=None)
    rs.set_defaults(fn=cmd_reshard)

    ch = sub.add_parser("changes",
                        help="CDC-out feed: rows changed since a seq")
    ch.add_argument("--lake", required=True)
    ch.add_argument("--table", default="docs")
    ch.add_argument("--since", type=int, default=None,
                    help="default: the committed watermark (empty feed)")
    ch.add_argument("--as-of", type=int, default=None,
                    help="bound the pull at a snapshot anchor")
    ch.add_argument("--out", help="write the feed as parquet here")
    ch.add_argument("--emit-events", action="store_true",
                    help="with --out: write the pull as event-log "
                         "segment(s) a downstream deltaray replay "
                         "consumes directly (replication chaining); "
                         "large pulls stream one segment per batch")
    ch.add_argument("--emit-batch-rows", type=_positive_int, default=65536,
                    help="rows per emitted segment batch (bounds driver "
                         "memory on a large catch-up pull)")
    ch.add_argument("--generation", type=int, default=0)
    ch.set_defaults(fn=cmd_changes)

    ex = sub.add_parser("expire",
                        help="bounded time-travel retention: reclaim files "
                             "only anchors below --retain need")
    ex.add_argument("--lake", required=True)
    ex.add_argument("--table", help="default: every table in the generation")
    ex.add_argument("--retain", type=int, default=None,
                    help="snapshot anchor to retain since (see snapshots); "
                         "default: keep the last --keep-last anchors")
    ex.add_argument("--keep-last", type=int, default=3,
                    help="with no --retain, keep this many newest anchors")
    ex.add_argument("--generation", type=int, default=0)
    ex.set_defaults(fn=cmd_expire)

    cm = sub.add_parser("compact-manifests",
                        help="roll loose commit records into manifest "
                             "files (bounds commit-log read cost)")
    cm.add_argument("--lake", required=True)
    cm.add_argument("--table", help="default: every table in the generation")
    cm.add_argument("--every", type=int, default=1,
                    help="roll up when at least this many loose records "
                         "exist (default 1: always)")
    cm.add_argument("--generation", type=int, default=0)
    cm.set_defaults(fn=cmd_compact_manifests)

    fs = sub.add_parser("fsck", help="lake integrity check")
    fs.add_argument("--lake", required=True)
    fs.add_argument("--generation", type=int, default=0)
    fs.add_argument("--deep", action="store_true",
                    help="also open every live parquet footer")
    fs.set_defaults(fn=cmd_fsck)

    a = p.parse_args(argv)
    from deltaray.pipeline import DeltaFailureError, SnapshotExpiredError

    try:
        return a.fn(a)
    except (DeltaFailureError, SnapshotExpiredError) as e:
        # deliberate operational states (replication FAILING persisted,
        # anchor below the snapshot floor): one JSON error line + exit 2
        # instead of a traceback, so scripted chains can branch on it
        print(json.dumps({"error": f"{type(e).__name__}: {e}"}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
