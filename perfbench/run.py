"""volformer benchmark: one workload per run, outputs checked, metrics as JSON.

    python3 perfbench/run.py --workload cv-toy --seed 1 --seconds 10 --trace 0

Workloads (see README.md): ``cv-toy`` (synth, then rounds of k-fold train
and hold-out evaluate), ``infer-full`` (single-sample full-2d-trf inference
plus the analytic profile), ``prep-views`` (paper-sized volumes preprocessed
for the sag, cor and ax views). Every run works in a fresh directory under
``perfbench/.work`` and removes it at the end. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
"""

import time

T0 = time.monotonic()  # set-up is timed from here: the process's start

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# BLAS threads are pinned before numpy loads, here and in every command: one
# thread, because on a shared 2-core box two-thread GEMMs vary by +-10%
BLAS_THREADS = "1"
BLAS_KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
os.environ.update({k: BLAS_THREADS for k in BLAS_KEYS})

import numpy as np  # noqa: E402

sys.path[:0] = [str(HERE), str(SRC)]
import checks  # noqa: E402
import tracer  # noqa: E402

COMMAND_TIMEOUT_S = 170
PROFILE_REPEATS = 3  # the profile command is short: its median takes three

# cv-toy: the cohort the program sees has one knee per subject and the same
# make-up on every seed, so both folds train on the same number of samples
CV_SUBJECTS = 220
CV_HOLDOUT = "inst_a"
CV_WANT = {("holdout", "progression"): 8, ("holdout", "none"): 24,
           ("train", "slow"): 10, ("train", "fast"): 24, ("train", "none"): 80}
CV_EXPERIMENT = {
    "holdout_institution": CV_HOLDOUT,
    "folds": 2,
    "parallel_folds": 2,
    "epochs": 8,
    "warmup_epochs": 1,
    "lr_start": 1e-4,
    "lr_main": 1e-3,
}
PREP_VIEWS = ("sag", "cor", "ax")
PREP_CROP = (320, 320, 128)  # the preprocess command's defaults
PREP_FACTORS = (2, 2, 2)


class Runner:
    """Runs program processes, counts operations and keeps the RSS peak."""

    def __init__(self, work, trace):
        self.work = work
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.peak_kb = 0
        self.trace_dirs = []

    def spawn(self, argv, name, ops=1, traced=False, timed=True):
        """Run one process to its end; returns its wall time, or None."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        if traced:
            trace_dir = self.work / "trace" / f"{len(self.trace_dirs):02d}-{name}"
            self.trace_dirs.append(trace_dir)
            env[tracer.TRACE_DIR_ENV] = str(trace_dir)
        log_path = self.work / "logs" / f"{name}.log"
        log_path.parent.mkdir(parents=True, exist_ok=True)
        self.attempted += ops
        with open(log_path, "w", encoding="utf-8") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.work, env=env, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.failed += ops
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            self.errors.append(f"{name} exited {proc.returncode}: {tail}")
            return None
        if timed:
            # the maxrss of a reaped child covers the children it reaped
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return wall

    def child(self, args, name, ops=1, timed=True):
        """Run perfbench/child.py, with the recorder in a traced run."""
        return self.spawn([sys.executable, str(HERE / "child.py")] + args, name, ops,
                          traced=self.trace, timed=timed)

    def cli(self, args, name, ops=1, traced=False, timed=True):
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py")] + args
        else:
            argv = [sys.executable, "-m", "volformer.cli"] + args
        return self.spawn(argv, name, ops, traced, timed)


def round_plan(seconds, trace, minimum=1):
    """Yields (round, traced): in a traced run one untraced and one traced
    round; otherwise whole rounds until ``seconds`` have passed."""
    if trace:
        yield 0, False
        yield 1, True
        return
    start = time.monotonic()
    k = 0
    while k < minimum or time.monotonic() - start < seconds:
        yield k, False
        k += 1


# ---------------------------------------------------------------------------
# cv-toy


def _select_cohort(data):
    """Keep one knee of each subject until CV_WANT is met, rarer kinds
    first; returns False when this cohort has too few knees of some kind."""
    from volformer.cohort import CLASS_NAMES, apply_exclusions, read_cohort_csv
    kept, _ = apply_exclusions(read_cohort_csv(data / "cohort.csv"))
    want = dict(CV_WANT)
    by_subject = {}
    for record, label in kept:
        name = CLASS_NAMES[label.progression_class]
        if record.institution_id == CV_HOLDOUT:
            key = ("holdout", "none" if name == "none" else "progression")
        else:
            key = ("train", name)
        by_subject.setdefault(record.subject_id, []).append((key, record.knee_id))
    chosen = set()
    for knees in by_subject.values():
        for key in want:  # CV_WANT lists the rarer kinds first
            match = [kid for k, kid in knees if k == key]
            if match and want[key] > 0:
                want[key] -= 1
                chosen.add(match[0])
                break
    if any(want.values()):
        return False
    lines = (data / "cohort.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    rows = [lines[0]] + [ln for ln in lines[1:]
                         if "_".join(ln.split(",")[:2]) in chosen]
    (data / "cohort.csv").write_text("".join(rows), encoding="utf-8")
    for path in (data / "volumes").glob("*.vvol"):
        if path.stem not in chosen:
            path.unlink()
    return True


def cv_toy(s, seed, seconds):
    data = s.work / "data"
    for attempt in range(10):
        shutil.rmtree(data, ignore_errors=True)
        synth_seed = seed if attempt == 0 else seed * 1000 + attempt
        ok = s.cli(["synth", "--subjects", str(CV_SUBJECTS), "--seed", str(synth_seed),
                    "--out", str(data)], f"synth{attempt}", traced=s.trace, timed=False)
        if ok is None or _select_cohort(data):
            break
    setup_s = time.monotonic() - T0
    if ok is None:
        return setup_s, [], []
    cfg = s.work / "experiment.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in CV_EXPERIMENT.items()), encoding="utf-8")

    train_s, evaluate_s, walls = [], [], []
    for k, traced in round_plan(seconds, s.trace, minimum=2):
        run, evaluation = s.work / f"round{k}" / "run", s.work / f"round{k}" / "eval"
        t_train = s.cli(["train", "--config", str(cfg), "--cohort", str(data / "cohort.csv"),
                         "--volumes", str(data / "volumes"), "--out", str(run),
                         "--model-preset", "toy-2d-trf", "--seed", str(seed)],
                        f"train{k}", traced=traced)
        if t_train is None:
            break
        t_eval = s.cli(["evaluate", "--snapshots", str(run), "--cohort", str(data / "cohort.csv"),
                        "--out", str(evaluation)], f"evaluate{k}", traced=traced)
        if t_eval is None:
            break
        train_s.append(t_train)
        evaluate_s.append(t_eval)
        walls.append(t_train + t_eval)
        s.errors += [f"round {k}: {e}" for e in
                     checks.check_evaluation(evaluation, data / "cohort.csv", CV_HOLDOUT)]
    first = s.work / "round0"
    for k in range(1, len(walls)):
        again = s.work / f"round{k}"
        s.errors += checks.check_identical(first / "run", again / "run", ["fold_*.vfwt"])
        s.errors += checks.check_identical(first / "eval", again / "eval",
                                           ["predictions.csv", "report.json"])
    if len(walls) < 2:
        s.errors.append("fewer than two rounds: determinism unchecked")
    return setup_s, [train_s, evaluate_s], walls


# ---------------------------------------------------------------------------
# infer-full


def infer_full(s, seed, seconds):
    out = s.work / "infer.json"
    if s.child(["infer", "--seed", str(seed), "--seconds", str(seconds), "--out", str(out)],
               "infer") is None:
        return time.monotonic() - T0, [], []
    result = json.loads(out.read_text(encoding="utf-8"))
    s.attempted += len(result["times"])  # the first call is counted by spawn
    s.errors += result["errors"]
    setup_s = result["setup_end"] - T0

    profile_s = []
    for k, traced in round_plan(0, s.trace, minimum=PROFILE_REPEATS):
        report_path = s.work / f"profile{k}" / "report.json"
        t = s.cli(["profile", "--preset", "full-2d-trf", "--out", str(report_path)],
                  f"profile{k}", traced=traced)
        if t is None:
            break
        profile_s.append(t)
        report = json.loads(report_path.read_text(encoding="utf-8"))
        s.errors += checks.check_profile(report, result["macs"], result["encoder_params"])
    infer_s = result["times"]
    if s.trace:  # rounds: untraced inference + profile, then traced ones
        walls = [a + b for a, b in zip(infer_s, profile_s)]
    else:
        walls = [sum(infer_s) + sum(profile_s)]
    return setup_s, [infer_s, profile_s], walls


# ---------------------------------------------------------------------------
# prep-views


def prep_views(s, seed, seconds):
    vols = s.work / "volumes"
    ok = s.child(["volumes", "--seed", str(seed), "--out", str(vols)], "volumes",
                 ops=2, timed=False)
    setup_s = time.monotonic() - T0
    if ok is None:
        return setup_s, [], []
    inputs = sorted(vols.glob("*.vvol"))

    sag_s, reproject_s, walls, rounds = [], [], [], []
    for k, traced in round_plan(seconds, s.trace, minimum=2):
        times = {}
        for view in PREP_VIEWS:
            times[view] = s.cli(["preprocess", "--volumes", str(vols),
                                 "--out", str(s.work / f"round{k}" / view), "--view", view],
                                f"preprocess{k}-{view}", ops=len(inputs), traced=traced)
        if None in times.values():
            break
        sag_s.append(times["sag"])
        reproject_s.append(times["cor"] + times["ax"])
        walls.append(sum(times.values()))
        rounds.append(s.work / f"round{k}")

    for path in inputs:  # checked after the timed rounds
        _, spacing, voxels = checks.read_vvol(path)
        expected, expected_spacing = checks.expected_sag(voxels, spacing, PREP_CROP, PREP_FACTORS)
        del voxels
        for rnd in rounds:
            s.errors += checks.check_sag_volume(rnd / "sag" / path.name, expected, expected_spacing)
            for view in ("cor", "ax"):
                s.errors += checks.check_view_volume(rnd / view / path.name, expected.size)
    return setup_s, [sag_s, reproject_s], walls


WORKLOADS = {"cv-toy": cv_toy, "infer-full": infer_full, "prep-views": prep_views}


# ---------------------------------------------------------------------------
# metrics


def sgemm_peak_gmac_per_s(n=2048, repeats=5):
    """Best float32 n x n x n matrix product rate on this machine."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    a @ b
    best = min(_timed(lambda: a @ b) for _ in range(repeats))
    return n ** 3 / best / 1e9


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def end_to_end(setup_s, phases, peak_kb):
    main, tail = phases
    return {
        "setup_s": (setup_s, "s"),
        "main_s": (statistics.median(main), "s"),
        "tail_s": (statistics.median(tail), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(s, workload, walls):
    spans = {}
    for trace_dir in s.trace_dirs:
        spans.update(tracer.load_spans(trace_dir))
    if workload == "cv-toy":
        anchor = "training.train_fold"
        units = sum(1 for sp in spans.values() if sp["name"] == "training.adam_step")
    elif workload == "infer-full":
        anchor, units = "bench.infer", 1
    else:
        anchor, units = None, 0
    tracer.write_spans(spans, HERE / ".traces" / f"{workload}.jsonl")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    values = tracer.summarize(spans, anchor, units, [m["name"] for m in spec])
    values["trace.overhead_pct"] = 100.0 * (walls[1] / walls[0] - 1.0)
    values["ref.sgemm_gmac_per_s"] = sgemm_peak_gmac_per_s()
    return {m["name"]: (values[m["name"]], m["unit"]) for m in spec}


def main():
    parser = argparse.ArgumentParser(description="volformer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "volformer" / "cli.py").is_file():
        print(f"perfbench: no volformer sources under {SRC}", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    s = Runner(work, bool(args.trace))
    try:
        setup_s, phases, walls = WORKLOADS[args.workload](s, args.seed, args.seconds)
        complete = len(walls) >= 2 if args.trace else all(phases) and bool(phases)
        if not complete:
            s.errors.append("the workload did not complete a round")
            metrics = {}
        elif args.trace:
            metrics = per_layer(s, args.workload, walls)
        else:
            metrics = end_to_end(setup_s, phases, s.peak_kb)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    for err in s.errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print(f"{args.workload} round walls (s): {' '.join(f'{w:.3f}' for w in walls)}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not s.errors,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
