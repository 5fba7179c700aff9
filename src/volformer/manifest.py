"""Run manifests: every command records its effective configuration, input
hashes, seeds and outputs beside its results, so any run can be audited and
replayed. Wall-clock fields are the only non-reproducible entries."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import time
from pathlib import Path

from . import __version__


def file_sha256(path):
    """The hex sha256 of the file at ``path``, read through one reused
    256 KiB buffer."""
    digest = hashlib.sha256()
    buf = bytearray(1 << 18)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.hexdigest()


@contextlib.contextmanager
def atomic_writer(path, mode="w", **kwargs):
    """Open a temporary file beside ``path`` for writing. On a clean exit it
    replaces ``path`` in one ``os.replace``; on an error it is removed, so
    ``path`` keeps its old contents or is never created."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return False
    except PermissionError:  # another user's live process
        return True
    return True


def remove_dead_temporaries(out_dir):
    """Remove the ``.<name>.<pid>.tmp`` files that ``atomic_writer`` left in
    ``out_dir`` when its process was killed mid-write: those whose pid is no
    longer alive. A live process's temporaries are kept."""
    for tmp in Path(out_dir).glob(".*.tmp"):
        match = re.fullmatch(r"\..+\.(\d+)\.tmp", tmp.name)
        if match and not _pid_alive(int(match.group(1))):
            tmp.unlink(missing_ok=True)


def write_json(path, payload):
    """Write ``payload`` as sorted, indented JSON through ``atomic_writer``."""
    with atomic_writer(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def clear_manifest(out_dir, command):
    """Remove ``manifest_<command>.json`` from ``out_dir``. The CLI runner
    calls this before a command's first output, so a run that fails part
    way never leaves new outputs beside an old manifest."""
    (Path(out_dir) / f"manifest_{command}.json").unlink(missing_ok=True)


def write_manifest(out_dir, command, config, inputs, outputs, seeds, paths=None):
    """Write manifest_<command>.json into out_dir and return its path.

    ``inputs`` maps each input file to its sha256, or to None for a file that
    was absent; the CLI runner hashes them as the command names them.
    ``paths`` records where the run's files were: it sits outside
    ``config``, so ``config_hash`` does not depend on it.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "command": command,
        "version": __version__,
        "config": config,
        "config_hash": config_hash(config),
        "paths": paths or {},
        "inputs": inputs,
        "outputs": sorted(str(o) for o in outputs),
        "seeds": seeds,
        "wall_clock": {"written_at_unix": time.time()},
    }
    path = out_dir / f"manifest_{command}.json"
    write_json(path, payload)
    return path


def read_manifest(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def manifest_sha256(path):
    """The sha256 of a manifest without its ``wall_clock`` block: equal for
    two runs of one command on the same inputs in the same directory."""
    return config_hash({k: v for k, v in read_manifest(path).items() if k != "wall_clock"})
