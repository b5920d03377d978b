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


def test_read_transform_split_transforms_each_table(tmp_path, monkeypatch):
    """``_read_transform_split`` runs ``TransformStage.__call__`` (the
    tracer's ``transforms.rows_in`` / ``rows_out`` source, wrapped at
    class level) once per replayed table in the read unit, and every
    split it returns carries exactly its shard's table schema: that
    table's payload columns at that table's types, no ``__table``.  A
    refactor that bypassed ``__call__`` would zero the traced metrics
    without failing anything else."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from deltaray.config import ReplayConfig
    from deltaray.pipeline import _read_transform_split
    from deltaray.schemas import TableSchema
    from deltaray.transforms import TransformStage

    a = TableSchema("a", "k", [("k", "int64"), ("v", "int32")])
    b = TableSchema("b", "k", [("k", "string"), ("v", "string")])
    schemas = {"a": a, "b": b}
    cfg = ReplayConfig(event_log=str(tmp_path / "ev"),
                       lake=str(tmp_path / "lk"), num_partitions=2)
    stage = TransformStage(cfg, schemas, schemas)
    # one read unit holding both tables plus a table not replayed (F3);
    # a file has one physical type per column, so a's k/v arrive as
    # strings and leave at a's types
    n = 12
    tables = ["a", "b", "c"] * (n // 3)
    path = str(tmp_path / "unit.parquet")
    pq.write_table(pa.table({
        "seq": pa.array(range(1, n + 1), pa.int64()),
        "op": ["INSERT"] * n,
        "table": tables,
        "k": [str(i) for i in range(n)],
        "v": [str(i * 10) for i in range(n)],
        "is_snapshot": [False] * n,
    }), path)

    calls = []
    real = TransformStage.__call__

    def spy(self, batch):
        calls.append(sorted(set(batch["table"].to_pylist())))
        return real(self, batch)

    monkeypatch.setattr(TransformStage, "__call__", spy)
    cols = ["seq", "op", "table", "k", "v", "is_snapshot"]
    P, n_shards = 2, 4
    out = _read_transform_split(path, [0], cols, 0, n, stage, n_shards)
    assert sorted(calls) == [["a"], ["b"]]
    assert len(out) == n_shards
    rows = {"a": 0, "b": 0}
    for s, split in enumerate(out):
        t = stage.tables[s // P]
        assert split.schema == stage.out_schemas[t], (s, split.schema)
        assert "__table" not in split.column_names
        payload = [c for c in split.column_names if not c.startswith("__")]
        assert payload == schemas[t].column_names()
        assert split.schema.field("v").type == schemas[t].arrow_schema() \
            .field("v").type
        rows[t] += split.num_rows
    assert rows == {"a": 4, "b": 4}

    # a unit with no rows of b: one call, b's shards get b's typed empty
    calls.clear()
    out = _read_transform_split(path, [0], cols, 0, 1, stage, n_shards)
    assert calls == [["a"]]
    for s, split in enumerate(out):
        assert split.schema == stage.out_schemas[stage.tables[s // P]]
    assert [sp.num_rows for sp in out[P:]] == [0, 0]
    assert sum(sp.num_rows for sp in out) == 1
