"""Percentiles, host facts and process accounting for the benchmark."""

from __future__ import annotations

import math
import os
import subprocess
import time

MIN_BEYOND = 10  # samples a reported percentile needs above it


class TooFewSamples(ValueError):
    """A percentile was asked of a sample with too few values beyond it."""


def percentile(values: list[float], q: float,
               min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-th percentile (0 < q < 100).  Refuses, with
    :class:`TooFewSamples`, unless at least ``min_beyond`` samples lie
    above the rank it would report."""
    n = len(values)
    rank = math.ceil(q / 100.0 * n)  # 1-based
    if n == 0 or n - rank < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {n} samples leaves {max(0, n - rank)} beyond it; "
            f"needs {min_beyond}")
    return sorted(values)[rank - 1]


def percentile_or_none(values: list[float], q: float) -> float | None:
    try:
        return percentile(values, q)
    except TooFewSamples:
        return None


def nproc() -> int:
    """CPUs this process may use, as GNU ``nproc`` counts them: the
    ``OMP_NUM_THREADS`` limit when set, else the affinity mask."""
    cpus = len(os.sched_getaffinity(0))
    try:
        return max(1, min(cpus, int(os.environ["OMP_NUM_THREADS"])))
    except (KeyError, ValueError):
        return cpus


PIN_ENV = "PERFBENCH_CPUS"


def work_cpus() -> list[int]:
    """:func:`nproc` of the CPUs this process may use, the highest-numbered
    ones (away from CPU 0's interrupts): the CPUs the work runs on."""
    return sorted(os.sched_getaffinity(0))[-nproc():]


def pin(cpus: list[int]) -> None:
    """Confine every thread of this process, and so every thread and
    process it starts from now on, to ``cpus``."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except OSError:  # the thread ended
            pass


def pin_worker() -> None:
    """Ray ``worker_process_setup_hook``: pin the worker to the CPUs the
    driver named in ``PIN_ENV``."""
    cpus = os.environ.get(PIN_ENV)
    if cpus:
        pin([int(c) for c in cpus.split(",")])


def steal_seconds() -> float | None:
    """Cumulative CPU steal time of the host, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _children(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as f:
            return [int(p) for p in f.read().split()]
    except OSError:
        return []


def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().startswith(b"ray::")
    except OSError:
        return False


def peak_rss_mb() -> float:
    """Peak resident set (VmHWM) of this driver plus every live Ray worker
    process below it, in MiB."""
    me = os.getpid()
    total = _status_kb(me, "VmHWM")
    todo = _children(me)
    while todo:
        pid = todo.pop()
        todo.extend(_children(pid))
        if _is_ray_worker(pid):
            total += _status_kb(pid, "VmHWM")
    return total / 1024.0


PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt every orphaned descendant (Ray workers and agents outlive
    the raylet that forked them), so :func:`stop_descendants` finds them."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER,
                                               1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _proc_stats(root: int) -> dict[int, list[str]]:
    """The /proc/<pid>/stat fields after ``comm`` (state, ppid, ...) of
    every live process below ``root``."""
    parent: dict[int, list[int]] = {}
    fields: dict[int, list[str]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and parens
        fs = stat[stat.rfind(")") + 2:].split()
        if fs[0] != "Z":
            fields[int(name)] = fs
            parent.setdefault(int(fs[1]), []).append(int(name))
    out, todo = {}, list(parent.get(root, []))
    while todo:
        pid = todo.pop()
        out[pid] = fields[pid]
        todo.extend(parent.get(pid, []))
    return out


def _descendants(root: int) -> list[int]:
    return list(_proc_stats(root))


def work_cpu() -> dict[int, float]:
    """CPU seconds used so far by this driver (key 0) and by each live
    Ray worker (key: its pid).

    CPU time, unlike wall time, leaves out the time the host's other
    tenants take from this machine's CPUs (steal).  Ray's own daemons
    (GCS, raylet, agents) are left out: most of their time is idle
    polling, which grows with wall time, not with the work done."""
    tick = os.sysconf("SC_CLK_TCK")
    out = {0: time.process_time()}
    for pid, fs in _proc_stats(os.getpid()).items():
        if _is_ray_worker(pid):
            out[pid] = (int(fs[11]) + int(fs[12])) / tick  # utime + stime
    return out


def work_cpu_since(before: dict[int, float]) -> float:
    """CPU seconds the driver and its Ray workers used since ``before``
    (a :func:`work_cpu` snapshot); a worker that ended since is lost."""
    return sum(v - before.get(pid, 0.0) for pid, v in work_cpu().items())


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(grace_s: float = 5.0, kill_s: float = 10.0) -> list[int]:
    """Terminate every process below this one and wait until each has
    ended: SIGTERM, then SIGKILL after ``grace_s``.  Returns the pids
    still alive after ``kill_s`` more seconds (none, normally)."""
    import signal

    me = os.getpid()
    _reap()
    left = _descendants(me)
    for sig, wait_s in ((signal.SIGTERM, grace_s), (signal.SIGKILL, kill_s)):
        for pid in left:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + wait_s
        while left and time.monotonic() < deadline:
            time.sleep(0.05)
            _reap()
            left = _descendants(me)
        if not left:
            break
    return left


def dir_mb(path: str) -> float:
    total = 0
    for d, _, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(d, f))
            except OSError:
                pass
    return total / (1024.0 * 1024.0)


def git_sha(root: str) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_facts(root: str, ray_cpus: int) -> dict:
    import duckdb
    import pyarrow
    import ray

    return {
        "nproc": nproc(),
        "ray_num_cpus": ray_cpus,
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "duckdb": duckdb.__version__,
        "git_sha": git_sha(root),
    }
