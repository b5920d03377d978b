"""The benchmark's three closed-loop workloads.

One client issues each call only after the previous one returned.  Every
input comes from ``deltaray.gen.write_event_log_fast`` under the run's
seed and is generated before any timing; the engine sees only the
generated files.

- ``bulk``: catch-up replay of a whole backlog as one DML chunk into a
  fresh lake (the wipe is untimed).  Map side and per-shard reduce
  dominate; metadata is a small share.
- ``tail``: a preloaded lake and a log whose 2,000-event segments are
  revealed one per cycle by an atomic manifest swap, each followed by
  ``replay``.  Fixed per-chunk costs dominate.  Each episode starts from
  the same preloaded lake and spans one whole compaction period.
- ``serve``: point lookups at head and as of retained anchors, plus
  bounded ``read_changes`` pulls, against a lake with history.  Uses the
  commit layer from the read side and no exchange.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from perfbench.reference import Reference
from perfbench.stats import percentile_or_none, work_cpu, work_cpu_since

TABLE = "docs"
ALL_EVENTS = 10**12  # a chunk limit no log reaches: one DML chunk


def doc_id(rank: int) -> str:
    return f"{TABLE}-doc{rank:08d}"


class Recorder:
    """Times each client call, in wall time and in the CPU time of the
    driver and its Ray workers; with a tracer, wraps traced calls in an
    op root span whose trace id is the op index."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list[dict] = []
        self.errors: list[str] = []

    def call(self, kind: str, group: int, traced: bool, fn, *args, **kw):
        idx = len(self.ops)
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.set_enabled(True)
        out, ok = None, True
        cpu0 = work_cpu()
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                out = tracer.call(f"op.{kind}", "op", fn, args, kw, tid=idx)
            else:
                out = fn(*args, **kw)
        except Exception as exc:  # a failed op is counted, not fatal
            ok = False
            self.errors.append(f"{kind}#{idx}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        cpu = work_cpu_since(cpu0)
        if tracer is not None:
            tracer.set_enabled(False)
        self.ops.append({"kind": kind, "group": group, "traced": traced,
                         "start": t0, "end": t1, "cpu": cpu, "ok": ok})
        return out

    def fail(self, idx: int, why: str) -> None:
        """Mark op ``idx`` incorrect: its result failed a check."""
        self.ops[idx]["ok"] = False
        self.errors.append(f"{self.ops[idx]['kind']}#{idx}: {why}")

    def secs(self, kind: str | None = None, traced: bool | None = None):
        return [o["end"] - o["start"] for o in self.ops
                if (kind is None or o["kind"] == kind)
                and (traced is None or o["traced"] == traced)]

    def group_secs(self, traced: bool | None = None, cpu: bool = False,
                   per: int = 1) -> list[float]:
        """Wall (or CPU) time of each client iteration (ops sharing a
        group), or of each run of ``per`` iterations."""
        out: dict[int, float] = {}
        for o in self.ops:
            if traced is None or o["traced"] == traced:
                g = o["group"] // per
                out[g] = out.get(g, 0.0) + (
                    o["cpu"] if cpu else o["end"] - o["start"])
        return [out[g] for g in sorted(out)]


def ms_stats(name: str, secs: list[float]) -> dict:
    """``<name>_ms_p50`` and ``<name>_ms_p90``; a p90 without ten
    samples beyond it is reported as null, with the sample count."""
    ms = [s * 1000.0 for s in secs]
    return {
        f"{name}_ms_p50": {"value": statistics.median(ms) if ms else None,
                           "unit": "ms", "n": len(ms)},
        f"{name}_ms_p90": {"value": percentile_or_none(ms, 90),
                           "unit": "ms", "n": len(ms)},
    }


class Workload:
    name = ""
    num_partitions = 16
    period = 1  # iterations that together hold the workload's whole mix

    def __init__(self, work: str, seed: int, cache_dir: str):
        self.work = work
        self.seed = seed
        self.cache_dir = cache_dir
        self.lake = os.path.join(work, "lake")
        self._setup_dir: str | None = None
        self.ref: Reference | None = None

    def setup(self, k: int) -> tuple[float, float]:
        """Build a fresh copy of everything the measured loop needs;
        returns its wall and CPU time.  Earlier copies are removed."""
        d = os.path.join(self.work, f"setup{k}")
        cpu0 = work_cpu()
        t0 = time.perf_counter()
        self._prepare(d)
        dt = time.perf_counter() - t0
        cpu = work_cpu_since(cpu0)
        if self._setup_dir is not None:
            shutil.rmtree(self._setup_dir, ignore_errors=True)
        self._setup_dir = d
        return dt, cpu

    def _prepare(self, d: str) -> None:
        raise NotImplementedError

    def _gen(self, d: str, **kw) -> dict:
        from deltaray.gen import write_event_log_fast

        self.log = os.path.join(d, "log")
        self.manifest = write_event_log_fast(self.log, seed=self.seed,
                                             table=TABLE, **kw)
        return self.manifest

    def _pack_snapshot(self, n_docs: int, segment_events: int) -> int:
        """Rewrite the base snapshot's INSERT segments as one file, as a
        source's initial dump would arrive, so the lake is preloaded by
        one chunk while the stream keeps its small segments.  Returns the
        number of segments (CREATE + snapshot) the base now spans."""
        import pyarrow.parquet as pq

        n_snap = -(-n_docs // segment_events)
        segs = self.manifest["segments"]
        snap = segs[1:1 + n_snap]
        tbl = pa.concat_tables(pq.read_table(g["path"]) for g in snap)
        lo, hi = snap[0]["seq_lo"], snap[-1]["seq_hi"]
        path = os.path.join(self.log, f"events-00001-{lo:012d}-{hi:012d}"
                                      f"-snapshot.parquet")
        pq.write_table(tbl, path, row_group_size=16384)
        for g in snap:
            os.remove(g["path"])
        packed = dict(snap[0], path=path, seq_hi=hi, n_rows=tbl.num_rows)
        self.manifest = dict(self.manifest,
                             segments=[segs[0], packed, *segs[1 + n_snap:]])
        self._write_manifest(self.manifest)
        return 2

    def _write_manifest(self, m: dict) -> None:
        """Publish a manifest atomically: write it aside, then replace."""
        path = os.path.join(self.log, "manifest.json")
        with open(path + ".tmp", "w") as f:
            json.dump(m, f)
        os.replace(path + ".tmp", path)

    def reference(self) -> Reference:
        if self.ref is None:
            files = [s["path"] for s in self.manifest["segments"]]
            self.ref = Reference(files, TABLE, self.cache_dir,
                                 tag=f"{self.name}-{self.seed}")
        return self.ref

    def close(self) -> None:
        if self.ref is not None:
            self.ref.close()

    def config(self, **kw):
        from deltaray import ReplayConfig

        return ReplayConfig(event_log=self.log, lake=self.lake,
                            num_partitions=self.num_partitions, **kw)

    def check_lake(self, upto: int) -> str | None:
        """None when the lake equals the reference as of ``upto``, else
        the first difference."""
        from deltaray import read_table, tables_equal

        ok, msg = tables_equal(read_table(self.lake, TABLE),
                               self.reference().state(upto, cache=True))
        return None if ok else msg

    def detail(self, rec: Recorder) -> dict:
        raise NotImplementedError

    def warm_up(self) -> float:
        """One replay (and, for readers, one feed) on a tiny log, so
        worker spawn, imports and function export are charged to
        set-up, not to the first timed op.  Returns its wall time."""
        from deltaray import ReplayConfig, replay
        from deltaray.gen import write_event_log_fast

        t0 = time.perf_counter()
        d = os.path.join(self.work, "warmup")
        write_event_log_fast(os.path.join(d, "log"), n_docs=500,
                             n_events=2000, seed=0, table=TABLE)
        replay(ReplayConfig(event_log=os.path.join(d, "log"),
                            lake=os.path.join(d, "lake"), num_partitions=4,
                            chunk_max_events=ALL_EVENTS))
        self._warm_reads(os.path.join(d, "lake"))
        dt = time.perf_counter() - t0
        shutil.rmtree(d, ignore_errors=True)
        return dt

    def _warm_reads(self, lake: str) -> None:
        pass


class Bulk(Workload):
    name = "bulk"
    num_partitions = 64
    n_docs = 20_000
    n_events = 200_000
    segment_events = 50_000
    min_ops = 3

    def _prepare(self, d: str) -> None:
        self._gen(d, n_docs=self.n_docs, n_events=self.n_events,
                  segment_max_events=self.segment_events)

    def run(self, rec: Recorder, seconds: float, trace: bool) -> None:
        from deltaray import replay

        dml = self.manifest["max_seq"] - 1  # every event but CREATE
        deadline = time.perf_counter() + seconds
        i = 0
        while i < self.min_ops or time.perf_counter() < deadline:
            shutil.rmtree(self.lake, ignore_errors=True)
            res = rec.call("replay", i, trace and i % 2 == 1, replay,
                           self.config(chunk_max_events=ALL_EVENTS))
            if res is not None:
                got = res["metrics"]["total"]["dml_events"]
                if got != dml:
                    rec.fail(len(rec.ops) - 1,
                             f"applied {got} of {dml} events")
            i += 1
        err = self.check_lake(self.manifest["max_seq"])
        if err:
            rec.fail(len(rec.ops) - 1, f"final lake != reference: {err}")

    def detail(self, rec: Recorder) -> dict:
        secs = rec.secs("replay", traced=False)
        events = self.manifest["max_seq"]
        return {"events_per_s": {"value": events * len(secs) / sum(secs),
                                 "unit": "events/s", "n": len(secs)}}


class Tail(Workload):
    name = "tail"
    n_docs = 20_000
    segment_events = 2_000
    compact_every = 8
    cycles_per_episode = 8  # one compaction period
    period = cycles_per_episode
    min_episodes = 2

    def _prepare(self, d: str) -> None:
        from deltaray import replay

        self._gen(d, n_docs=self.n_docs,
                  n_events=self.segment_events * self.cycles_per_episode,
                  segment_max_events=self.segment_events)
        self.n_base = self._pack_snapshot(self.n_docs, self.segment_events)
        self._reveal(self.n_base)
        self.template = os.path.join(d, "preloaded")
        self.lake = self.template
        replay(self._cfg())
        self.lake = os.path.join(self.work, "lake")

    def _cfg(self):
        return self.config(chunk_max_events=self.segment_events,
                           compact_every=self.compact_every,
                           manifest_every=64, vacuum=True)

    def _reveal(self, n_segments: int) -> None:
        """Publish the log's first ``n_segments`` segments."""
        segs = self.manifest["segments"][:n_segments]
        self._write_manifest(dict(self.manifest, segments=segs,
                                  max_seq=segs[-1]["seq_hi"]))

    def _cycle(self, n_segments: int, cfg):
        from deltaray import replay

        self._reveal(n_segments)
        return replay(cfg)

    def run(self, rec: Recorder, seconds: float, trace: bool) -> None:
        cfg = self._cfg()
        segs = self.manifest["segments"]
        deadline = time.perf_counter() + seconds
        episode = 0
        while episode < self.min_episodes or time.perf_counter() < deadline:
            shutil.rmtree(self.lake, ignore_errors=True)
            shutil.copytree(self.template, self.lake)
            self._reveal(self.n_base)
            traced = trace and episode % 2 == 1
            for c in range(self.cycles_per_episode):
                n = self.n_base + 1 + c
                group = episode * self.cycles_per_episode + c
                res = rec.call("cycle", group, traced, self._cycle, n, cfg)
                if res is not None:
                    want = segs[n - 1]["seq_hi"] - 1
                    got = res["metrics"]["total"]["dml_events"]
                    if got != want:
                        rec.fail(len(rec.ops) - 1,
                                 f"applied {got} of {want} events")
            episode += 1
        last = segs[self.n_base + self.cycles_per_episode - 1]["seq_hi"]
        err = self.check_lake(last)
        if err:
            rec.fail(len(rec.ops) - 1, f"final lake != reference: {err}")

    def detail(self, rec: Recorder) -> dict:
        secs = rec.secs("cycle", traced=False)
        out = {"events_per_s": {
            "value": self.segment_events * len(secs) / sum(secs),
            "unit": "events/s", "n": len(secs)}}
        out.update(ms_stats("cycle", secs))
        return out


class Serve(Workload):
    name = "serve"
    num_partitions = 8
    n_docs = 20_000
    segment_events = 2_000
    stream_chunks = 8
    n_keys = 10
    feed_every = 4  # iterations per read_changes pull
    period = feed_every
    feed_span = 4  # anchors one pull spans

    def _prepare(self, d: str) -> None:
        from deltaray import replay, snapshots

        self._gen(d, n_docs=self.n_docs,
                  n_events=self.segment_events * self.stream_chunks,
                  segment_max_events=self.segment_events)
        self._pack_snapshot(self.n_docs, self.segment_events)
        self.lake = os.path.join(d, "lake")
        replay(self.config(chunk_max_events=self.segment_events,
                           vacuum=False, manifest_every=8))
        # retained history: the base snapshot, then one anchor per chunk
        self.anchors = [int(a) for a in snapshots(self.lake)]
        # a reader's first pull: it starts the Ray workers a pull of this
        # size runs on, which the loop's feeds then find running
        self._feed(self.anchors[0], self.anchors[-1])

    def _warm_reads(self, lake: str) -> None:
        import ray

        from deltaray import read_changes, read_rows

        read_rows(lake, TABLE, [doc_id(1)])
        ray.get(read_changes(lake, TABLE, 0).to_arrow_refs())

    def _feed(self, since: int, as_of: int) -> pa.Table | None:
        import ray

        from deltaray import read_changes

        ds = read_changes(self.lake, TABLE, since, as_of_seq=as_of)
        tabs = ray.get(ds.to_arrow_refs())
        return pa.concat_tables(tabs) if tabs else None

    def run(self, rec: Recorder, seconds: float, trace: bool) -> None:
        """Keys are zipf draws from the seed.  As-of anchors cycle
        through a seeded permutation of the retained anchors and feed
        windows go round-robin, so every run reads the same mix of
        history depths."""
        from deltaray import read_rows

        rng = np.random.default_rng(self.seed)
        p = 1.0 / np.arange(1, self.n_docs + 1, dtype=np.float64) ** 1.1
        p /= p.sum()
        anchors = self.anchors
        order = rng.permutation(len(anchors))
        windows = len(anchors) - self.feed_span
        checks: list[tuple] = []  # (op index, result, keys, anchor, since)
        deadline = time.perf_counter() + seconds
        it = 0
        # whole feed periods only, so every run has the same share of feeds
        while (it < 2 * self.feed_every or time.perf_counter() < deadline
               or it % self.feed_every):
            # alternate whole feed periods, so both sides hold feeds
            traced = trace and (it // self.feed_every) % 2 == 1
            keys = [doc_id(int(r)) for r in
                    rng.choice(self.n_docs, size=self.n_keys, p=p)]
            out = rec.call("lookup", it, traced, read_rows, self.lake, TABLE,
                           keys)
            checks.append((len(rec.ops) - 1, out, keys, None, None))
            a = anchors[order[it % len(anchors)]]
            out = rec.call("asof", it, traced, read_rows, self.lake, TABLE,
                           keys, asof_seq=a)
            checks.append((len(rec.ops) - 1, out, keys, a, None))
            if it % self.feed_every == self.feed_every - 1:
                i0 = (it // self.feed_every) % windows
                since, as_of = anchors[i0], anchors[i0 + self.feed_span]
                out = rec.call("feed", it, traced, self._feed, since, as_of)
                checks.append((len(rec.ops) - 1, out, None, as_of, since))
            it += 1
        self._check(rec, checks)

    def _check(self, rec: Recorder, checks: list[tuple]) -> None:
        from deltaray import tables_equal

        ref = self.reference()
        head = self.anchors[-1]
        states: dict[int, pa.Table] = {}
        for idx, out, keys, anchor, since in checks:
            if not rec.ops[idx]["ok"]:
                continue
            if since is not None:
                want = ref.feed(since, anchor)
            else:
                at = head if anchor is None else anchor
                if at not in states:
                    states[at] = ref.state(at, cache=at == head)
                st = states[at]
                want = st.filter(pc.is_in(
                    st["doc_id"], value_set=pa.array(sorted(set(keys)))))
            got = out if out is not None else want.schema.empty_table()
            ok, msg = tables_equal(got, want)
            if not ok:
                rec.fail(idx, f"result != reference: {msg}")

    def detail(self, rec: Recorder) -> dict:
        out = {}
        out.update(ms_stats("lookup", rec.secs("lookup", traced=False)))
        out.update(ms_stats("asof_lookup", rec.secs("asof", traced=False)))
        out.update(ms_stats("feed", rec.secs("feed", traced=False)))
        return out


WORKLOADS = {w.name: w for w in (Bulk, Tail, Serve)}
