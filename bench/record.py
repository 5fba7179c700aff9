"""Record alternating parent/change benchmark pairs as ``BENCH_<tag>.json``.

    python3 bench/record.py --parent HEAD~1 --change HEAD --workload prep-views \
        --pairs 10 --first-seed 601 --tag 10

The committed files of both revisions are exported with ``git archive`` into
a temporary directory, and ``perfbench/run.py --workload W --seed N --seconds S --trace 0``
(``S`` is ``BENCHMARK.json``'s ``run_seconds``) runs once in each, for seeds
``first-seed .. first-seed + pairs - 1``. Pair ``i`` runs the parent first
when ``i`` is even and the change first when it is odd, so a drift of the
machine's speed falls on both sides. Each metric of
``BENCHMARK.json``'s ``end_to_end`` list gets, per side, the median and the
quartiles over the pairs, and the number of pairs the change won (strictly
better in the metric's direction). The record also holds the machine
descriptor and a one-thread float32 sgemm rate measured before the first
pair, before every pair (kept per workload, pair by pair) and after the
last, so a drift of the machine's speed within the session shows.

Before the pairs, each side's start-up is timed in fresh processes, 9 runs
with the sides alternating: ``python -c "import volformer.cli"`` and the bare
``volformer profile --preset full-2d-trf`` (the command ``infer-full``'s
``tail_s`` repeats). Each gets its median and quartiles per side. The
exported trees are removed at the end, and the record is written to
``BENCH_<tag>.json`` at the root of this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = 3  # 2 added the "startup" block, 3 each workload's per-pair sgemm rates
SIDES = ("parent", "change")
BLAS_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                             "NUMEXPR_NUM_THREADS")}
# best of five float32 2048^3 products on one BLAS thread, as perfbench's
# ``ref.sgemm_gmac_per_s``
SGEMM = """
import time, numpy as np
rng = np.random.default_rng(0)
a = rng.standard_normal((2048, 2048), dtype=np.float32)
b = rng.standard_normal((2048, 2048), dtype=np.float32)
a @ b
best = float("inf")
for _ in range(5):
    t0 = time.perf_counter(); a @ b; best = min(best, time.perf_counter() - t0)
print(2048 ** 3 / best / 1e9)
"""


STARTUP_RUNS = 9
STARTUP = {"import_s": ["-c", "import volformer.cli"],
           "profile_s": ["-m", "volformer.cli", "profile", "--preset", "full-2d-trf"]}


def sgemm_gmac_per_s():
    out = subprocess.run([sys.executable, "-c", SGEMM], env=dict(os.environ, **BLAS_ENV),
                         capture_output=True, text=True, check=True)
    return float(out.stdout.strip())


def machine():
    """What the numbers were measured on."""
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    try:
        mem_gb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9
    except (ValueError, OSError):
        mem_gb = None
    return {"cpu": cpu, "cpus": os.cpu_count(), "mem_gb": mem_gb,
            "os": f"{platform.system()} {platform.release()}",
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": 1}


def quartiles(values):
    """(q1, median, q3), linearly interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def side_stats(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def time_startup(trees, runs=STARTUP_RUNS):
    """Per side, the wall times of ``runs`` fresh processes of each
    ``STARTUP`` command, the sides alternating as in the pairs."""
    times = {side: {name: [] for name in STARTUP} for side in SIDES}
    for i in range(runs):
        for name, argv in STARTUP.items():
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                env = dict(os.environ, **BLAS_ENV, PYTHONPATH=str(trees[side] / "src"))
                with tempfile.TemporaryDirectory() as cwd:  # profile writes its report here
                    t0 = time.perf_counter()
                    subprocess.run([sys.executable, *argv], cwd=cwd, env=env, check=True,
                                   capture_output=True)
                    times[side][name].append(time.perf_counter() - t0)
    return {"runs": runs,
            "commands": {name: shlex.join(["python", *argv]) for name, argv in STARTUP.items()},
            **{side: {name: side_stats(v) for name, v in times[side].items()} for side in SIDES}}


def summarize(runs, spec):
    """Per-metric statistics of one workload's pairs.

    ``runs`` maps each side to its list of perfbench result objects, pair by
    pair; ``spec`` is ``BENCHMARK.json``'s ``end_to_end`` list."""
    metrics = {}
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]
                         if name in r["metrics"]] for side in SIDES}
        if not all(values.values()) or len(values["parent"]) != len(values["change"]):
            continue  # a side had a run without this metric: nothing to pair
        entry = {"unit": m["unit"], "better": m["better"], "pairs": len(values["parent"])}
        for side in SIDES:
            entry[side] = side_stats(values[side])
        entry["change_won"] = sum((c < p) if lower else (c > p)
                                  for p, c in zip(values["parent"], values["change"]))
        metrics[name] = entry
    return metrics


def check_schema(doc):
    """Raises ValueError unless ``doc`` has the shape ``record`` writes."""
    def need(cond, what):
        if not cond:
            raise ValueError(f"BENCH record: {what}")

    def need_stats(s, n, what):
        need(s["q1"] <= s["median"] <= s["q3"], f"{what} quartiles")
        need(len(s["values"]) == n, f"{what} values")

    need(doc.get("schema") in range(1, SCHEMA + 1), f"schema is not 1 to {SCHEMA}")
    for key in ("tag", "command", "machine", "revisions", "sgemm_gmac_per_s", "workloads"):
        need(key in doc, f"missing {key!r}")
    if doc["schema"] >= 2:
        need("startup" in doc, "missing 'startup'")
        runs = doc["startup"]["runs"]
        need(runs >= 1 and set(doc["startup"]["commands"]) == set(STARTUP), "startup commands")
        for side in SIDES:
            need(set(doc["startup"][side]) == set(STARTUP), f"startup {side} commands")
            for name, s in doc["startup"][side].items():
                need_stats(s, runs, f"startup {side} {name}")
    need(set(doc["revisions"]) == set(SIDES), "revisions must name parent and change")
    need(set(doc["sgemm_gmac_per_s"]) == {"start", "end"}, "sgemm needs start and end")
    for key in ("cpu", "cpus", "os", "python", "numpy", "blas_threads"):
        need(key in doc["machine"], f"machine lacks {key!r}")
    for name, wl in doc["workloads"].items():
        need(len(wl["seeds"]) == len(wl["parent_first"]) >= 1, f"{name}: seeds/order")
        if doc["schema"] >= 3:
            need(len(wl.get("sgemm_gmac_per_s", ())) == len(wl["seeds"]),
                 f"{name}: one sgemm rate per pair")
        for side in SIDES:
            need(len(wl["runs"][side]) == len(wl["seeds"]), f"{name}: {side} runs")
            for run in wl["runs"][side]:
                for key in ("correct", "attempted", "failed", "metrics"):
                    need(key in run, f"{name}: a {side} run lacks {key!r}")
        for metric, entry in wl["metrics"].items():
            need(entry["better"] in ("lower", "higher"), f"{name} {metric}: better")
            need(0 <= entry["change_won"] <= entry["pairs"], f"{name} {metric}: change_won")
            for side in SIDES:
                need_stats(entry[side], entry["pairs"], f"{name} {metric}: {side}")
    return doc


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, dest):
    """The committed files of ``rev`` in the new directory ``dest``."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(checkout, workload, seed, seconds):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result = {"correct": result["correct"], "attempted": result["attempted"],
              "failed": result["failed"],
              "metrics": {k: {"value": v["value"]} for k, v in result["metrics"].items()}}
    if out.returncode != 0 or not result["correct"]:
        result["stderr_tail"] = out.stderr[-2000:]
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--tag", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec, seconds = bench["end_to_end"], bench["run_seconds"]
    revs = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in zip(SIDES, (args.parent, args.change))}
    scratch = Path(tempfile.mkdtemp(prefix="bench-record-"))
    trees = {side: scratch / side for side in SIDES}
    doc = {"schema": SCHEMA, "tag": args.tag,
           "command": "python3 perfbench/run.py --workload W --seed N "
                      f"--seconds {seconds:g} --trace 0",
           "revisions": revs, "machine": machine(),
           "sgemm_gmac_per_s": {"start": sgemm_gmac_per_s()}, "workloads": {}}
    try:
        for side in SIDES:
            export(revs[side], trees[side])
        doc["startup"] = time_startup(trees)
        for workload in args.workload:
            seeds = list(range(args.first_seed, args.first_seed + args.pairs))
            runs = {side: [] for side in SIDES}
            sgemm = []
            for i, seed in enumerate(seeds):
                sgemm.append(sgemm_gmac_per_s())
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    t0 = time.monotonic()
                    runs[side].append(run_once(trees[side], workload, seed, seconds))
                    print(f"{workload} seed {seed} {side}: {time.monotonic() - t0:.1f} s, "
                          f"correct {runs[side][-1]['correct']}", file=sys.stderr)
            doc["workloads"][workload] = {
                "seeds": seeds, "parent_first": [i % 2 == 0 for i in range(len(seeds))],
                "sgemm_gmac_per_s": sgemm, "runs": runs, "metrics": summarize(runs, spec)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    doc["sgemm_gmac_per_s"]["end"] = sgemm_gmac_per_s()
    (ROOT / f"BENCH_{args.tag}.json").write_text(json.dumps(check_schema(doc), indent=2) + "\n", encoding="utf-8")
    for name in STARTUP:
        p, c = (doc["startup"][side][name]["median"] for side in SIDES)
        print(f"startup {name}: {p:.4g} -> {c:.4g} s")
    for workload, wl in doc["workloads"].items():
        for name, e in wl["metrics"].items():
            print(f"{workload} {name}: {e['parent']['median']:.4g} -> {e['change']['median']:.4g} "
                  f"{e['unit']} (parent IQR {e['parent']['q3'] - e['parent']['q1']:.3g}, "
                  f"change won {e['change_won']}/{e['pairs']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
