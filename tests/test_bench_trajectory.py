"""The perf trajectory that ``bench/trajectory.py`` reads across records."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_trajectory",
                                               ROOT / "bench" / "trajectory.py")
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)


def record(start, end, main_s, rss, pair_rates=None):
    """A record with one ``cv-toy`` workload: ``main_s`` and ``rss`` are
    (parent, change) medians."""
    def entry(unit, medians):
        parent, change = medians
        return {"unit": unit, "parent": {"median": parent}, "change": {"median": change}}
    wl = {"metrics": {"main_s": entry("s", main_s), "peak_rss_mb": entry("MB", rss)}}
    if pair_rates is not None:
        wl["sgemm_gmac_per_s"] = pair_rates
    return {"sgemm_gmac_per_s": {"start": start, "end": end}, "workloads": {"cv-toy": wl}}


def test_medians_normalised_and_drifting_record_flagged():
    steady = record(50.0, 50.0, (2.0, 1.0), (160.0, 100.0), pair_rates=[49.0, 51.0])
    drifting = record(80.0, 40.0, (1.0, 0.5), (160.0, 100.0))  # spread 40 / 60
    lines = trajectory.report([("BENCH_a", steady), ("BENCH_b", drifting)])
    assert "  BENCH_a: mean 50.0 over 4 probes, 49.0 to 51.0, spread 0.04" in lines
    assert "  BENCH_b: mean 60.0 over 2 probes, 40.0 to 80.0, spread 0.67  FLAGGED" in lines
    main = lines.index("cv-toy main_s: parent -> change median, s, then x mean sgemm GMAC/s")
    # raw medians 2, 1, 1, 0.5; normalised 100, 50, 60, 30
    assert lines[main + 1:main + 4] == [
        "  BENCH_a: 2 -> 1   100 -> 50",
        "  BENCH_b: 1 -> 0.5   60 -> 30  FLAGGED",
        "  coefficient of variation over 4 medians: raw 0.48, normalised 0.42"]
    rss = lines.index("cv-toy peak_rss_mb: parent -> change median, MB")
    assert lines[rss + 1:rss + 4] == [  # not a time: no normalised figures
        "  BENCH_a: 160 -> 100", "  BENCH_b: 160 -> 100  FLAGGED",
        "  coefficient of variation over 4 medians: raw 0.23"]


def test_reads_every_committed_record(capsys):
    assert trajectory.main() == 0
    out = capsys.readouterr().out
    for path in ROOT.glob("BENCH_*.json"):
        assert f"  {path.stem}: mean " in out
    assert "cv-toy main_s: " in out and "infer-full main_s: " in out
