"""CDC ingest benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload bulk|tail|serve --seed N \
        --seconds S --trace 0|1

Works from any directory: the repository root is this file's parent's
parent, and Ray workers get it on ``PYTHONPATH`` through ``runtime_env``.
The run's files go under ``<root>/.perfbench_work`` and are removed at
exit, except the per-seed reference cache; Ray's session dir goes under
``<root>/.pbray`` (when that path is short enough for Ray's sockets) and
is removed too.  The run adopts orphaned descendants (Ray workers outlive
the raylet) and, on every way out, terminates and reaps all processes
below it before it exits.

Set-up = ``ray.init`` + one warm-up replay and read on a tiny log + the
median of ``SETUP_REPEATS`` fresh builds of the workload's inputs (log
generation and lake preload).  Then the workload runs its closed loop
for ``--seconds`` and checks every result against an independent DuckDB
reference.

Timings on the result line are CPU time of the driver and its Ray
workers (``stats.work_cpu``): on a shared host, wall time mostly
measures the other tenants (steal), CPU time measures the work.  The
driver and its workers run on ``nproc`` CPUs (``stats.work_cpus``);
Ray's daemons are not pinned.  Wall times are in the details line.
``setup_s`` is the CPU time of set-up;
``op_cpu_ms_p50`` is the median per client iteration (one replay on
bulk, one reveal + replay on tail, one lookup + as-of lookup on serve),
``period_cpu_ms_p50`` the median per period, the iterations that hold
the workload's whole mix (bulk: one replay; tail: one compaction period
of cycles; serve: the lookups between two feeds and the feed).  A
median over periods counts the rare costly iteration (the compacting
cycle, the feed) without letting one outlier move it, as a mean would.

``--trace 0`` reports the end-to-end metrics of the untraced run.
``--trace 1`` alternates untraced and traced ops (whole tail episodes),
records spans around calls into each deltaray layer in the driver and,
through ``worker_process_setup_hook``, in every Ray worker, and reports
per-layer self times and counts per op, the residual ``ray.overhead_s``
and the tracing overhead (traced minus untraced median op time).

Stdout ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the details (workload metrics with
sample counts, host facts, checks, predictions).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3
# Ray puts its session dir, with AF_UNIX sockets (107-byte paths), under
# <root>/.pbray when that path is short enough, else in its default place
RAY_TMP_MAX = 43

IDLE_WORKER_KEEP_MS = 10 * 60 * 1000  # longer than any run

E2E_UNITS = {"setup_s": "s", "op_cpu_ms_p50": "ms",
             "period_cpu_ms_p50": "ms", "peak_rss_mb": "MB", "lake_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["bulk", "tail", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def _predictions(workload: str, m: dict, op_s: float) -> dict:
    """The traced run's layer predictions for this workload."""
    if workload == "bulk":
        meta = sum(m[k] for k in ("commit.lookup_s", "commit.list_s",
                                  "commit.vacuum_s", "commit.lineage_s",
                                  "commit.marker_s", "plan.busy_s"))
        share = meta / op_s if op_s else 0.0
        return {"bulk: commit metadata + plan < 10% of op time":
                {"share": share, "held": share < 0.10}}
    if workload == "tail":
        share = m["transforms.busy_s"] / op_s if op_s else 0.0
        return {"tail: transforms.busy_s < 10% of op time":
                {"share": share, "held": share < 0.10}}
    nonzero = {k: v for k, v in m.items()
               if k.startswith(("exchange.", "transforms.")) and v != 0}
    return {"serve: exchange.* and transforms.* are zero":
            {"nonzero": nonzero, "held": not nonzero}}


def main(argv=None) -> int:
    args = parse_args(argv)
    # run as a script, this file's directory leads sys.path and its
    # modules (trace, stats) would shadow stdlib names: import by package
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path.insert(0, ROOT)
    try:
        import duckdb  # noqa: F401
        import ray

        import deltaray  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the system under test: {exc}",
              file=sys.stderr)
        return 2
    from perfbench import stats, trace as tr
    from perfbench.workloads import WORKLOADS, Recorder

    base = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(base, f"{args.workload}-{os.getpid()}")
    trace_dir = os.path.join(work, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    ray_tmp = os.path.join(ROOT, ".pbray")
    num_cpus = stats.nproc()
    # The work (driver and Ray workers) runs on nproc CPUs; Ray's daemons
    # keep the rest.  Unpinned, Ray's and Arrow's threads spread over every
    # CPU the VM shows, and lock spinning while a vCPU is stolen inflates
    # CPU time with the other tenants' load.
    allowed = sorted(os.sched_getaffinity(0))
    cpus = stats.work_cpus()
    pypath = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    runtime_env = {"env_vars": {"PYTHONPATH": pypath,
                                stats.PIN_ENV: ",".join(map(str, cpus))},
                   "worker_process_setup_hook": "perfbench.stats.pin_worker"}
    if args.trace:
        runtime_env["env_vars"][tr.TRACE_DIR_ENV] = trace_dir
        runtime_env["worker_process_setup_hook"] = \
            "perfbench.trace.worker_setup"
    init_kw = {}
    if len(ray_tmp) <= RAY_TMP_MAX:
        init_kw["_temp_dir"] = ray_tmp
    stats.become_subreaper()
    steal0 = stats.steal_seconds()
    wl = WORKLOADS[args.workload](work, args.seed,
                                  os.path.join(base, "ref-cache"))
    tracer = None
    session_dir = None
    try:
        try:
            cpu0 = stats.work_cpu()
            t0 = time.perf_counter()
            ray.init(address="local", num_cpus=num_cpus,
                     include_dashboard=False, logging_level="ERROR",
                     log_to_driver=False,
                     object_store_memory=300 * 1024 * 1024,
                     runtime_env=runtime_env, _system_config={
                         # Ray reaps an idle worker above num_cpus after 1 s,
                         # about the gap between two serve feeds: whether a
                         # feed pays a worker start-up was left to chance
                         "idle_worker_killing_time_threshold_ms":
                             IDLE_WORKER_KEEP_MS}, **init_kw)
            ray_init_s = time.perf_counter() - t0
            stats.pin(cpus)
            session_dir = _session_dir()
            from ray.data import DataContext

            DataContext.get_current().enable_progress_bars = False
            logging.getLogger("ray.data").setLevel(logging.WARNING)
            if args.trace:
                tracer = tr.Tracer(trace_dir)
                tr.install_driver(tracer)
            warm_s = wl.warm_up()
            init_cpu = stats.work_cpu_since(cpu0)
            setups = [wl.setup(k) for k in range(SETUP_REPEATS)]
            setup_s = init_cpu + statistics.median(c for _, c in setups)
            setup_wall = ray_init_s + warm_s + statistics.median(
                w for w, _ in setups)

            rec = Recorder(tracer)
            wl.run(rec, args.seconds, bool(args.trace))
            peak_rss = stats.peak_rss_mb()
            lake_mb = stats.dir_mb(wl.lake)
            detail = wl.detail(rec)
        finally:
            try:
                wl.close()
                ray.shutdown()
            finally:
                left = stats.stop_descendants()
                if left:
                    print(f"perfbench: processes still alive: {left}",
                          file=sys.stderr)
        steal1 = stats.steal_seconds()
        info, metrics = _report(args, rec, tracer, trace_dir, detail, {
            "setup_s": setup_s, "setup_wall_s": setup_wall,
            "ray_init_s": ray_init_s, "warm_s": warm_s,
            "init_cpu_s": init_cpu, "setups": setups,
            "peak_rss_mb": peak_rss, "lake_mb": lake_mb,
            "num_cpus": num_cpus, "allowed_cpus": allowed,
            "pinned_cpus": cpus, "period": wl.period,
            "steal_s": (steal1 - steal0 if None not in (steal0, steal1)
                        else None)})
    finally:
        shutil.rmtree(work, ignore_errors=True)
        _remove_session(ray_tmp, session_dir)
    failed = sum(not o["ok"] for o in rec.ops)
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": len(rec.ops),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


def _session_dir() -> str | None:
    import ray

    try:
        return ray._private.worker._global_node.get_session_dir_path()
    except AttributeError:
        return None


def _remove_session(ray_tmp: str, session_dir: str | None) -> None:
    """Delete this run's Ray session dir (other runs may share the temp
    dir), and the temp dir itself once nothing else is in it."""
    if session_dir is None or os.path.dirname(session_dir) != ray_tmp:
        return
    shutil.rmtree(session_dir, ignore_errors=True)
    latest = os.path.join(ray_tmp, "session_latest")
    if os.path.islink(latest) and not os.path.exists(latest):
        os.remove(latest)
    try:
        os.rmdir(ray_tmp)
    except OSError:
        pass


def _quartiles_ms(secs: list[float]) -> list[float] | None:
    """[min, q1, median, q3, max] in ms."""
    if len(secs) < 2:
        return None
    q = statistics.quantiles(secs, n=4, method="inclusive")
    return [1000.0 * v for v in (min(secs), *q, max(secs))]


def _report(args, rec, tracer, trace_dir: str, detail: dict,
            run: dict) -> tuple[dict, dict]:
    """The detail object and the final line's metrics."""
    from perfbench import stats, trace as tr

    attempted = len(rec.ops)
    failed = sum(not o["ok"] for o in rec.ops)
    untraced = rec.group_secs(traced=False)
    detail.update({
        "setup_s": {"value": run["setup_s"], "unit": "s", "cpu": True,
                    "parts": {"init_and_warm_up_cpu_s": run["init_cpu_s"],
                              "setups_cpu_s": [c for _, c in run["setups"]]}},
        "setup_wall_s": {"value": run["setup_wall_s"], "unit": "s",
                         "parts": {"ray_init_s": run["ray_init_s"],
                                   "warm_up_s": run["warm_s"],
                                   "setups_s": [w for w, _ in run["setups"]]}},
        "op_ms_p50": {"value": 1000.0 * statistics.median(untraced),
                      "unit": "ms", "n": len(untraced)},
        "op_ms_mean": {"value": 1000.0 * statistics.mean(untraced),
                       "unit": "ms", "n": len(untraced)},
        "failed_frac": {"value": failed / attempted, "unit": "ratio",
                        "n": attempted},
        "lake_mb": {"value": run["lake_mb"], "unit": "MB"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        "op_ms_quartiles": {
            k: _quartiles_ms(rec.secs(k, traced=False))
            for k in sorted({o["kind"] for o in rec.ops})},
    })
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": dict(stats.host_facts(ROOT, run["num_cpus"]),
                     allowed_cpus=run["allowed_cpus"],
                     pinned_cpus=run["pinned_cpus"], steal_s=run["steal_s"]),
        "workload_metrics": detail,
        "errors": rec.errors[:20],
    }
    if args.trace:
        traced_ops = [(i, o["start"], o["end"]) for i, o in
                      enumerate(rec.ops) if o["traced"]]
        spans = tr.assign_ops(tr.load_spans(trace_dir, tracer.spans),
                              traced_ops)
        traced = rec.group_secs(traced=True)
        overhead_ms = 1000.0 * (statistics.median(traced)
                                - statistics.median(untraced))
        layers = tr.layer_metrics(spans, traced, overhead_ms)
        info["trace"] = {"spans": len(spans), "traced_ops": len(traced),
                         "untraced_ops": len(untraced),
                         "predictions": _predictions(
                             args.workload, layers,
                             statistics.mean(traced))}
        return info, {k: {"value": v, "unit": tr.LAYER_UNITS[k]}
                      for k, v in layers.items()}
    cpu = rec.group_secs(traced=False, cpu=True)
    periods = rec.group_secs(traced=False, cpu=True, per=run["period"])
    e2e = {"setup_s": run["setup_s"],
           "op_cpu_ms_p50": 1000.0 * statistics.median(cpu),
           "period_cpu_ms_p50": 1000.0 * statistics.median(periods),
           "peak_rss_mb": run["peak_rss_mb"], "lake_mb": run["lake_mb"]}
    return info, {k: {"value": v, "unit": E2E_UNITS[k]}
                  for k, v in e2e.items()}


if __name__ == "__main__":
    sys.exit(main())
