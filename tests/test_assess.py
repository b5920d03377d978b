"""Assessment (dry-run) service tests — Assessor analog
(delta-app/.../service/Assessor.java; AssessmentHandler routes)."""

import pytest

from deltaray import ReplayConfig, TableConfig
from deltaray.assess import (
    assess_pipeline,
    assess_table,
    describe_table,
    list_tables,
)
from deltaray.gen import write_event_log


@pytest.fixture
def log(tmp_path):
    p = str(tmp_path / "events")
    write_event_log(
        p, n_docs=50, n_events=400, seed=11,
        ddl=[(100, "docs", "ALTER_TABLE", {"add": ("lang", "string"),
                                           "choices": ["en", "de"]}),
             (200, "docs", "RENAME_COLUMN", {"rename": ("source", "origin")})],
    )
    return p


def test_list_and_describe(log):
    assert list_tables(log) == ["docs"]
    s = describe_table(log, "docs")
    assert s.key == "doc_id"
    assert "lang" in s.column_names()          # ALTER applied
    assert "origin" in s.column_names()        # RENAME applied
    assert "source" not in s.column_names()
    with pytest.raises(KeyError):
        describe_table(log, "nope")


def test_assess_supported_columns(log, tmp_path):
    cfg = ReplayConfig(event_log=log, lake=str(tmp_path / "lake"))
    ta = assess_table(cfg, "docs")
    assert not ta.errors
    by_name = {c.name: c for c in ta.columns}
    assert by_name["doc_id"].support == "YES"
    assert by_name["tokens"].support == "YES"


def test_assess_whitelist_pk_warning(log, tmp_path):
    # PK missing from whitelist warns but is force-selected
    # (Assessor.java:290-312)
    cfg = ReplayConfig(
        event_log=log, lake=str(tmp_path / "lake"),
        tables=[TableConfig("docs", columns=["tokens", "n_tok"])],
    )
    ta = assess_table(cfg, "docs")
    assert any("primary key" in w for w in ta.warnings)
    assert "doc_id" in [c.name for c in ta.columns]


def test_assess_errors(log, tmp_path):
    cfg = ReplayConfig(
        event_log=log, lake=str(tmp_path / "lake"),
        tables=[TableConfig("docs", columns=["doc_id", "no_such_col"],
                            transformations=["frobnicate x"])],
    )
    ta = assess_table(cfg, "docs")
    assert any("no_such_col" in e for e in ta.errors)
    assert any("frobnicate" in e for e in ta.errors)
    missing = assess_table(cfg, "ghost")
    assert missing.errors


def test_assess_pipeline_report(log, tmp_path):
    cfg = ReplayConfig(event_log=log, lake=str(tmp_path / "lake"))
    rep = assess_pipeline(cfg)
    assert rep["ok"]
    assert rep["tables"]["docs"]["columns"]["YES"] >= 4
    assert rep["assessments"][0]["table"] == "docs"


def test_validate_lake_fsck(ray_session, tmp_log, tmp_lake):
    """fsck: a healthy lake passes deep validation; a vacuumed-away
    live file, a tampered lineage record and a foreign hash_version
    are errors; an orphan file is a warning with byte accounting."""
    import json as _json
    import os
    import shutil

    from deltaray import ReplayConfig, replay
    from deltaray.assess import validate_lake
    from deltaray.commit import LakeState
    from deltaray.gen import write_event_log

    write_event_log(tmp_log, n_docs=120, n_events=1500, seed=9,
                    segment_max_events=500)
    replay(ReplayConfig(event_log=tmp_log, lake=tmp_lake,
                        num_partitions=3, chunk_max_events=500))
    rep = validate_lake(tmp_lake, deep=True)
    assert rep["ok"], rep["errors"]
    assert rep["tables"]["docs"]["live_files"] >= 3
    lake = LakeState(tmp_lake)
    pdir = lake.part_dir("docs", 0)
    # orphan file → warning, not error
    with open(os.path.join(pdir, "data-999999999999.parquet"), "wb") as f:
        f.write(b"junk")
    rep = validate_lake(tmp_lake)
    assert rep["ok"] and any("orphan" in w for w in rep["warnings"])
    assert rep["tables"]["docs"]["orphan_files"] == 1
    os.remove(os.path.join(pdir, "data-999999999999.parquet"))
    # tampered lineage (stale seq, stale file) → error
    lin = lake.read_lineage("docs", 0)
    for bad in (dict(lin, last_seq=1), dict(lin, file="data-bogus.parquet")):
        lake.write_lineage("docs", 0, bad)
        rep = validate_lake(tmp_lake)
        assert not rep["ok"] and any("lineage" in e for e in rep["errors"])
    lake.write_lineage("docs", 0, lin)
    assert validate_lake(tmp_lake)["ok"]
    # missing live data file → error
    victim = lake.live_commits("docs", 0)[-1]["file"]
    os.rename(os.path.join(pdir, victim), os.path.join(pdir, victim + ".bak"))
    rep = validate_lake(tmp_lake)
    assert not rep["ok"] and any("missing" in e for e in rep["errors"])
    os.rename(os.path.join(pdir, victim + ".bak"), os.path.join(pdir, victim))
    # foreign hash_version → error pointing at reshard
    mpath = os.path.join(lake.root, "_meta.json")
    with open(mpath) as f:
        meta = _json.load(f)
    with open(mpath, "w") as f:
        _json.dump(dict(meta, hash_version=1), f)
    rep = validate_lake(tmp_lake)
    assert not rep["ok"] and any("hash_version" in e for e in rep["errors"])
    with open(mpath, "w") as f:
        _json.dump(meta, f)
    # CLI surface
    from deltaray.__main__ import main
    assert main(["fsck", "--lake", tmp_lake, "--deep"]) == 0
    # corrupt commit manifest → reported as an error, not a crash
    # (destructive: last check in the test)
    lake.compact_manifests("docs", 0, every=1)
    cdir = lake.commit_dir("docs", 0)
    man = [f for f in os.listdir(cdir) if f.startswith("manifest-")][0]
    with open(os.path.join(cdir, man), "r+") as f:
        f.truncate(10)
    rep = validate_lake(tmp_lake)
    assert not rep["ok"] and any("commit log unreadable" in e
                                 for e in rep["errors"])
    assert main(["fsck", "--lake", tmp_lake]) == 1
