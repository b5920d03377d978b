"""The perfbench tracer wraps engine functions by name
(``perfbench/trace.py``): every traced target must resolve in
``deltaray``, and ``LakeState.read_partition`` must take ``io_stats=``
(the tracer hands it a fresh dict to count ``files_read``).  A rename
then fails here instead of in a traced benchmark run."""

import importlib
import inspect

from perfbench import trace


def test_traced_targets_resolve():
    targets = (trace.DRIVER_TARGETS + trace.WORKER_TARGETS
               + trace.SHARED_TARGETS)
    missing = []
    for module, attr, *_ in targets:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert not missing, missing


def test_read_partition_takes_io_stats():
    from deltaray.commit import LakeState

    params = inspect.signature(LakeState.read_partition).parameters
    assert "io_stats" in params


def test_exchange_tasks_defined_in_pipeline():
    """Workers resolve pickled task functions by ``__module__`` and the
    tracer rebinds them in ``deltaray.pipeline``: a task function defined
    elsewhere and re-exported would run untraced."""
    from deltaray import pipeline

    for name in sorted(trace.EXCHANGE_TASKS):
        fn = getattr(pipeline, name)
        assert fn.__module__ == "deltaray.pipeline", (name, fn.__module__)


def test_merge_shard_after_reaches_module_merge_shard(monkeypatch):
    """The tracer wraps only ``pipeline._merge_shard`` in workers; the
    chained reduce must call it through the module global, or traced
    runs record no merge calls."""
    import pyarrow as pa

    from deltaray import pipeline

    calls = []

    def spy(merge_fn, *tables):
        calls.append(len(tables))
        return merge_fn(*tables)

    monkeypatch.setattr(pipeline, "_merge_shard", spy)
    tbl = pa.table({"x": [1, 2]})
    assert pipeline._merge_shard_after(lambda t: t, None, tbl) is tbl
    assert calls == [1]
