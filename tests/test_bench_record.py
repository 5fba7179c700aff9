"""Schema of the ``BENCH_<tag>.json`` records written by ``bench/record.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "bench" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def fake_run(**values):
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {k: {"value": v} for k, v in values.items()}}


def fake_doc():
    runs = {"parent": [fake_run(main_s=1.5, setup_s=5.0), fake_run(main_s=1.7, setup_s=5.2),
                       fake_run(main_s=1.4, setup_s=5.1)],
            "change": [fake_run(main_s=0.8, setup_s=5.3), fake_run(main_s=0.9, setup_s=5.2),
                       fake_run(main_s=1.6, setup_s=5.0)]}
    startup = {"runs": 3, "commands": {name: "python ..." for name in record.STARTUP},
               "parent": {"import_s": record.side_stats([0.58, 0.61, 0.57]),
                          "profile_s": record.side_stats([1.4, 1.3, 1.5])},
               "change": {"import_s": record.side_stats([0.23, 0.25, 0.22]),
                          "profile_s": record.side_stats([1.0, 1.1, 1.05])}}
    return {"schema": record.SCHEMA, "tag": "t", "command": "python3 perfbench/run.py ...",
            "revisions": {"parent": "a" * 40, "change": "b" * 40},
            "machine": record.machine(), "sgemm_gmac_per_s": {"start": 50.0, "end": 49.0},
            "startup": startup,
            "workloads": {"prep-views": {"seeds": [1, 2, 3], "parent_first": [True, False, True],
                                         "sgemm_gmac_per_s": [50.0, 48.5, 49.5],
                                         "runs": runs, "metrics": record.summarize(runs, SPEC)}}}


def test_summary_statistics_and_pairs_won():
    metrics = fake_doc()["workloads"]["prep-views"]["metrics"]
    assert sorted(metrics) == ["main_s", "setup_s"]  # metrics no run reported are left out
    main = metrics["main_s"]
    assert main["unit"] == "s" and main["better"] == "lower" and main["pairs"] == 3
    assert main["parent"]["median"] == 1.5 and main["change"]["median"] == 0.9
    assert main["parent"]["q1"] == pytest.approx(1.45)
    assert main["parent"]["q3"] == pytest.approx(1.6)
    assert main["change_won"] == 2
    assert metrics["setup_s"]["change_won"] == 1  # a tie is not a win


def test_schema_accepts_a_written_record():
    doc = json.loads(json.dumps(fake_doc()))
    assert record.check_schema(doc) is doc
    assert set(doc["machine"]) >= {"cpu", "cpus", "os", "python", "numpy", "blas_threads"}
    assert doc["startup"]["parent"]["import_s"] == {
        "median": 0.58, "q1": 0.575, "q3": 0.595, "values": [0.58, 0.61, 0.57]}
    old = fake_doc()
    old.update(schema=2)
    del old["workloads"]["prep-views"]["sgemm_gmac_per_s"]
    assert record.check_schema(old) is old  # records before the per-pair probes
    del old["startup"]
    old.update(schema=1)
    assert record.check_schema(old) is old  # records before the start-up block


@pytest.mark.parametrize("breakage", [
    lambda d: d.pop("machine"),
    lambda d: d["sgemm_gmac_per_s"].pop("end"),
    lambda d: d.update(schema=0),
    lambda d: d["workloads"]["prep-views"]["runs"]["change"].pop(),
    lambda d: d["workloads"]["prep-views"]["metrics"]["main_s"].update(change_won=4),
    lambda d: d["workloads"]["prep-views"]["metrics"]["main_s"]["parent"].update(q1=9.0),
    lambda d: d.pop("startup"),
    lambda d: d["startup"]["change"].pop("profile_s"),
    lambda d: d["startup"]["parent"]["import_s"]["values"].pop(),
    lambda d: d["startup"]["parent"]["profile_s"].update(q3=1.0),
    lambda d: d.update(schema=4),
    lambda d: d["workloads"]["prep-views"].pop("sgemm_gmac_per_s"),
    lambda d: d["workloads"]["prep-views"]["sgemm_gmac_per_s"].pop(),
])
def test_schema_rejects_a_broken_record(breakage):
    doc = fake_doc()
    breakage(doc)
    with pytest.raises(ValueError, match="BENCH record"):
        record.check_schema(doc)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_records_follow_the_schema(path):
    record.check_schema(json.loads(path.read_text(encoding="utf-8")))
