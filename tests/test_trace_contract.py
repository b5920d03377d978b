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
