"""Independent DuckDB reference for the benchmark's correctness gate.

The engine's apply semantics for a single ORDERED table reduce to: the
state of a key at seq ``s`` is its last DML event with ``seq <= s``;
INSERT and UPDATE carry the row, DELETE removes it.  DuckDB computes that
with one window query over the generated log, so the check shares no
code with the engine (``replay_oracle`` is pure Python and only used by
the tests, to pin this reference on a small log).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

from deltaray.schemas import default_table_schema

_LATEST = """
    SELECT doc_id, tokens, n_tok, source, op, seq FROM (
        SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY seq DESC)
               AS rn
        FROM ev WHERE seq <= ?)
    WHERE rn = 1"""


class Reference:
    """Reference states of one generated log.  ``cache_dir`` keeps the
    states asked for with ``cache=True`` as parquet, keyed by ``tag``
    (workload and seed), so a later run with the same seed skips the
    query."""

    def __init__(self, files: list[str], table: str = "docs",
                 cache_dir: str | None = None, tag: str = ""):
        self.files = list(files)
        self.schema = default_table_schema(table).arrow_schema()
        self.cache_dir = cache_dir
        self.tag = tag
        self._con = None

    def _connect(self):
        if self._con is None:
            import duckdb

            self._con = duckdb.connect()
            self._con.execute(
                "CREATE TABLE ev AS SELECT seq, op, doc_id, tokens, n_tok, "
                "source FROM read_parquet(?) "
                "WHERE op IN ('INSERT', 'UPDATE', 'DELETE')", [self.files])
        return self._con

    def close(self) -> None:
        if self._con is not None:
            self._con.close()
            self._con = None

    def state(self, upto: int, cache: bool = False) -> pa.Table:
        """Live rows as of ``seq <= upto``, in the engine's user schema."""
        path = None
        if cache and self.cache_dir:
            path = os.path.join(self.cache_dir, f"{self.tag}-{upto}.parquet")
            if os.path.exists(path):
                return pq.read_table(path)
        t = self._connect().execute(
            f"SELECT doc_id, tokens, n_tok, source FROM ({_LATEST}) "
            "WHERE op <> 'DELETE' ORDER BY doc_id", [upto]).arrow()
        t = t.cast(self.schema)
        if path is not None:
            os.makedirs(self.cache_dir, exist_ok=True)
            tmp = path + ".tmp"
            pq.write_table(t, tmp)
            os.replace(tmp, path)
        return t

    def feed(self, since: int, as_of: int) -> pa.Table:
        """``read_changes(since, as_of)``: each key whose last event at or
        before ``as_of`` is newer than ``since``, as UPSERT (with its row)
        or DELETE (null payload), with that event's seq."""
        t = self._connect().execute(
            f"SELECT doc_id, tokens, n_tok, source, "
            f"CASE WHEN op = 'DELETE' THEN 'DELETE' ELSE 'UPSERT' END "
            f"AS change, seq FROM ({_LATEST}) WHERE seq > ? ORDER BY doc_id",
            [as_of, since]).arrow()
        return t.cast(self.schema.append(pa.field("change", pa.string()))
                      .append(pa.field("seq", pa.int64())))
