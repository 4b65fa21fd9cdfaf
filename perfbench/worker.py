"""One in-process repetition of a workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED OUTDIR traced|plain

The workload's CLI command runs as `dhworkspace.cli.main(argv)` in this
process. `traced` wraps the layer functions with spans first; `plain` runs
the same code without them, so the two walls give the tracing overhead.
Prints one JSON line on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

from spans import Recorder
from workloads import WORKLOADS


def run_once(workload, seed: int, out_dir: Path, traced: bool) -> dict:
    recorder = Recorder()
    missing = recorder.install() if traced else []
    try:
        record = {"missing": missing, "problems": [], "stdout": ""}
        argv = workload.argv(seed, str(out_dir / f"{workload.name}.out"))
        import dhworkspace.cli

        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            code = dhworkspace.cli.main(argv)
        record["wall_s"] = time.perf_counter() - start
        record["stdout"] = captured.getvalue()
        if code != 0:
            record["problems"].append(f"cli.main returned {code}")
    finally:
        recorder.uninstall()
    record["spans"] = recorder.summary()
    record["uncounted"] = sorted(recorder.uncounted)
    return record


def main(argv: list[str]) -> int:
    name, seed, out_dir, mode = argv
    record = run_once(WORKLOADS[name], int(seed), Path(out_dir), mode == "traced")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
