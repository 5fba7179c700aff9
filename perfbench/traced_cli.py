"""Run one ``volformer`` command with the span recorder installed.

    PERFBENCH_TRACE_DIR=<dir> python3 perfbench/traced_cli.py train ...

Spawned fold workers import this file as their main module, so the top-level
code below installs the recorder in them too; each worker flushes its spans
after every fold it trains.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer  # noqa: E402

RECORDER = tracer.install(os.environ[tracer.TRACE_DIR_ENV])

if __name__ == "__main__":
    from volformer.cli import main
    try:
        code = main(sys.argv[1:])
    finally:
        RECORDER.flush()
    sys.exit(code)
