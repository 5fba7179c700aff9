"""Print the perf trajectory that the committed ``BENCH_*.json`` records hold.

    python3 bench/trajectory.py

Each record holds alternating parent/change pairs from one session, and the
box's speed drifts between sessions, so raw figures compare only within one
record. For each workload and end-to-end metric this prints, record by
record, the parent and change medians. A time metric is also printed
multiplied by the record's mean sgemm rate (seconds x GMAC/s: the work an
sgemm of that session does in that time), which moves less with the box.
Under each metric goes the coefficient of variation of all those medians
(population standard deviation over mean), raw and normalised.

A record whose sgemm probes (start, end and, from schema 3, one per pair)
spread by more than ``SPREAD_LIMIT`` of their mean is flagged: the box
changed speed within that session, and one mean rate hides it.

Normalised figures are for reading the trajectory only. A claim is still
judged by the alternating pairs of one record.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from record import SIDES, check_schema  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
# (max - min) / mean of a record's sgemm probes. Past BENCHMARK.json's 0.24
# bound on main_s, the box's own drift can move a time by more than the bound.
SPREAD_LIMIT = 0.24


def tag_order(path):
    tag = path.stem.partition("_")[2]
    return (0, int(tag), tag) if tag.isdigit() else (1, 0, tag)


def probes(doc):
    rates = [doc["sgemm_gmac_per_s"]["start"], doc["sgemm_gmac_per_s"]["end"]]
    for wl in doc["workloads"].values():
        rates += wl.get("sgemm_gmac_per_s", [])
    return rates


def cv(values):
    return statistics.pstdev(values) / statistics.mean(values)


def report(records):
    """The lines to print for ``records``, a list of (name, BENCH record)."""
    lines = [f"sgemm probes, GMAC/s (spread = (max - min) / mean; flagged past {SPREAD_LIMIT})"]
    rate, flagged, metrics = {}, set(), {}
    for name, doc in records:
        rates = probes(doc)
        rate[name] = statistics.mean(rates)
        spread = (max(rates) - min(rates)) / rate[name]
        if spread > SPREAD_LIMIT:
            flagged.add(name)
        lines.append(f"  {name}: mean {rate[name]:.1f} over {len(rates)} probes, "
                     f"{min(rates):.1f} to {max(rates):.1f}, spread {spread:.2f}"
                     + ("  FLAGGED" if name in flagged else ""))
        for workload, wl in doc["workloads"].items():
            for metric, entry in wl["metrics"].items():
                metrics.setdefault((workload, metric), []).append((name, entry))
    for (workload, metric), rows in sorted(metrics.items()):
        unit = rows[0][1]["unit"]
        timed = unit == "s"
        lines.append(f"{workload} {metric}: parent -> change median, {unit}"
                     + (", then x mean sgemm GMAC/s" if timed else ""))
        raw, normalised = [], []
        for name, entry in rows:
            pair = [entry[side]["median"] for side in SIDES]
            raw += pair
            text = f"  {name}: {pair[0]:.4g} -> {pair[1]:.4g}"
            if timed:
                scaled = [v * rate[name] for v in pair]
                normalised += scaled
                text += f"   {scaled[0]:.4g} -> {scaled[1]:.4g}"
            lines.append(text + ("  FLAGGED" if name in flagged else ""))
        lines.append(f"  coefficient of variation over {len(raw)} medians: raw {cv(raw):.2f}"
                     + (f", normalised {cv(normalised):.2f}" if timed else ""))
    return lines


def main():
    paths = sorted(ROOT.glob("BENCH_*.json"), key=tag_order)
    records = [(p.stem, check_schema(json.loads(p.read_text(encoding="utf-8")))) for p in paths]
    print("\n".join(report(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
