"""CDC ingest benchmark for deltaray (run ``perfbench/run.py``)."""
