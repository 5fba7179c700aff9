"""Check that two revisions' CLI runs write the same bytes.

    python3 bench/same_bytes.py --parent HEAD~1 --change HEAD

The committed files of both revisions are exported with ``git archive`` into
a temporary directory. In each tree one fixed command sequence runs, each
command a fresh ``python -m volformer.cli`` process with one BLAS thread and
relative paths under its own work directory: synth; preprocess of the sag,
cor and ax views; label; split; a 2-fold ``toy-2d-trf`` train in a 2-worker
fold pool; evaluate; curves; and ``profile`` of every preset.

Then every output but the manifests is compared by sha256, and each
``manifest_<command>.json`` by its ``inputs``, ``outputs`` and ``seeds`` and
by its config with the path fields put back in (``config`` and ``paths``
together), paths made relative to the work directory. ``wall_clock`` and
``config_hash`` are not compared. Prints each difference and exits 1 if
there is one. A differing CSV output whose rows have the same lengths on
both sides also gets the largest absolute difference of its numeric cells,
so a change that moves bits says by how much. The exported trees are
removed at the end.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from record import BLAS_ENV, SIDES, export, git  # noqa: E402

DATA = "data/cohort.csv"
STEPS = [
    ["synth", "--subjects", "40", "--seed", "7", "--out", "data"],
    *[["preprocess", "--volumes", "data/volumes", "--out", f"prep_{view}",
       "--crop", "48x48x16", "--view", view] for view in ("sag", "cor", "ax")],
    ["label", "--cohort", DATA, "--out", "labels"],
    ["split", "--cohort", DATA, "--holdout", "inst_d", "--folds", "2", "--out", "splits"],
    ["train", "--cohort", DATA, "--volumes", "data/volumes", "--out", "run",
     "--model-preset", "toy-2d-trf", "--folds", "2", "--epochs", "2", "--warmup-epochs", "1",
     "--seed", "3", "--parallel-folds", "2"],
    ["evaluate", "--snapshots", "run", "--cohort", DATA, "--out", "eval", "--n-boot", "200"],
    ["curves", "--predictions", "eval/predictions.csv", "--out", "curves"],
]
PRESETS = "from volformer.presets import PRESETS; print('\\n'.join(PRESETS))"


def run_sequence(tree, work):
    """Run ``STEPS`` and a ``profile`` of every preset with ``tree``'s code."""
    env = dict(os.environ, **BLAS_ENV, PYTHONPATH=str(Path(tree) / "src"))
    env.pop("VOLFORMER_THREADS", None)  # older revisions cap the fold pool by it
    presets = subprocess.run([sys.executable, "-c", PRESETS], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
    Path(work).mkdir()
    for step in STEPS + [["profile", "--preset", p, "--out", f"profile/{p}/report.json"]
                         for p in presets]:
        out = subprocess.run([sys.executable, "-m", "volformer.cli", *step], cwd=work, env=env,
                             capture_output=True, text=True)
        if out.returncode != 0:
            raise RuntimeError(f"{' '.join(step)} exited {out.returncode}: {out.stderr[-2000:]}")


def _relative(value, work):
    """``value`` with every string path under ``work`` made relative to it."""
    if isinstance(value, dict):
        return {_relative(k, work): _relative(v, work) for k, v in value.items()}
    if isinstance(value, list):
        return [_relative(v, work) for v in value]
    if isinstance(value, str) and value.startswith(f"{work}{os.sep}"):
        return value[len(str(work)) + 1:]
    return value


def manifest_view(path, work):
    """The fields of a manifest that two same-input runs must agree on."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    config = {**doc["config"], **doc.get("paths", {})}
    return _relative({"command": doc["command"], "config": config, "inputs": doc["inputs"],
                      "outputs": doc["outputs"], "seeds": doc["seeds"]}, work)


def snapshot(work):
    """``{relative path: sha256 or manifest view}`` of every file under ``work``."""
    work = Path(work)
    files = {}
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        rel = str(path.relative_to(work))
        if path.name.startswith("manifest_") and path.suffix == ".json":
            files[rel] = manifest_view(path, work)
        else:
            files[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return files


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def largest_difference(path_a, path_b):
    """The largest absolute difference between the numeric cells in which
    two CSV files differ, NaN against anything counting as infinite; None
    if their rows differ in number or length or no numeric cell differs."""
    rows = []
    for path in (path_a, path_b):
        with open(path, newline="", encoding="utf-8") as fh:
            rows.append(list(csv.reader(fh)))
    if [len(r) for r in rows[0]] != [len(r) for r in rows[1]]:
        return None
    pairs = [(_number(x), _number(y)) for ra, rb in zip(*rows) for x, y in zip(ra, rb) if x != y]
    gaps = [abs(x - y) for x, y in pairs if x is not None and y is not None]
    return max((math.inf if math.isnan(g) else g for g in gaps), default=None)


def differences(a, b, works):
    """One line per path whose entry differs between two snapshots, taken
    of the two work directories ``works``; a differing CSV of one shape
    also gets its largest absolute difference."""
    lines = []
    for rel in sorted(a.keys() | b.keys()):
        if rel not in a or rel not in b:
            lines.append(f"{rel}: only in {'parent' if rel in a else 'change'}")
        elif a[rel] != b[rel]:
            diff = (largest_difference(*(Path(w) / rel for w in works))
                    if rel.endswith(".csv") else None)
            lines.append(f"{rel}: differs" + ("" if diff is None else
                                              f", largest absolute difference {diff:.3g}"))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    args = parser.parse_args(argv)
    revs = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in zip(SIDES, (args.parent, args.change))}
    snaps, works = {}, {}
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as scratch:
        for side in SIDES:
            tree, works[side] = Path(scratch) / side, Path(scratch) / f"{side}-work"
            export(revs[side], tree)
            t0 = time.monotonic()
            run_sequence(tree, works[side])
            snaps[side] = snapshot(works[side])
            print(f"{side} {revs[side][:12]}: {len(snaps[side])} files, "
                  f"{time.monotonic() - t0:.1f} s", file=sys.stderr)
        diffs = differences(snaps["parent"], snaps["change"], [works[s] for s in SIDES])
    manifests = sum(isinstance(v, dict) for v in snaps["change"].values())
    for line in diffs:
        print(line)
    print(f"{len(snaps['change']) - manifests} outputs and {manifests} manifests compared, "
          f"{len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
