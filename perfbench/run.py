"""dhworkspace benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cloud-csv --seed 1 --seconds 60 --trace 0

--trace 0 measures the end-to-end metrics with nothing traced: each
repetition is a whole `python -m dhworkspace.cli` child process.
--trace 1 gives the per-layer metrics instead, from fresh in-process runs
with span wrappers (perfbench/worker.py), alternated with the same runs
untraced to measure the tracing overhead. `--workload all` runs every
workload in turn. Every output is checked outside the timed region.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report
and a `detail:` JSON record (environment and raw samples).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
from spans import EXACT_COUNTS, LAYER_METRICS, layer_metrics
from workloads import WORKLOADS, check_csv, check_volume, volume_reference

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

SETUP_PROBES = 7
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 150
#: wall_s is this percentile of the walls of a run's children
WALL_PERCENTILE = 10
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: end-to-end metric -> unit, as in BENCHMARK.json
END_TO_END = {"wall_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

# Fresh interpreter that imports the package and parses the workload's robot.
SETUP_CODE = "import sys, dhworkspace; dhworkspace.builtin_fixture(sys.argv[1])"
WHERE_CODE = "import dhworkspace, dhworkspace.cli; print(dhworkspace.__file__)"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    wall_s: float
    exit_code: int
    maxrss_mb: float
    stdout: str
    stderr: str


def metric_units() -> dict:
    units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    units["trace.overhead_s"] = "s"
    units.update(END_TO_END)
    return units


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], tmp: Path) -> Child:
    """Run one child to completion; wall time from spawn to reap, and the
    child's own peak RSS from wait4."""
    out_path, err_path = tmp / "child.stdout", tmp / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                 out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def child_failure(child: Child) -> list[str]:
    if child.exit_code == 0:
        return []
    last = (child.stderr.strip().splitlines() or [""])[-1]
    return [f"exit code {child.exit_code}: {last[:200]}"]


def top_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile (nearest rank) with at least ten samples
    above it, and its value; None below eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def environment(seed: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def output_checker(workload, seed: int, tmp: Path):
    """check(stdout) -> problems, for one repetition of the workload.
    Built before the timed region; the volume reference is computed here."""
    from dhworkspace import builtin_fixture

    model = builtin_fixture(workload.robot)
    if workload.name == "cloud-csv":
        out = tmp / f"{workload.name}.out"
        checked = {}

        def check(stdout):
            # One seed gives the same bytes every time: the first cloud that
            # passes is checked row by row, later ones must equal it.
            try:
                text = out.read_bytes()
            except OSError as exc:
                return [f"cannot read the cloud: {exc}"]
            out.unlink()
            digest = hashlib.sha256(text).hexdigest()
            if checked.get("digest") == digest:
                return []
            problems = check_csv(text.decode(errors="replace"), model, seed, workload.n)
            if "digest" in checked:
                problems.insert(0, "the cloud differs from the first correct one")
            elif not problems:
                checked["digest"] = digest
            return problems

        return check
    expected = volume_reference(model, seed, workload.n)
    return lambda stdout: check_volume(stdout, expected)


def check_import(tmp: Path) -> None:
    """Children must import the package from this checkout's sources."""
    where = run_child([sys.executable, "-c", WHERE_CODE], tmp)
    if where.exit_code != 0 or not Path(where.stdout.strip()).resolve().is_relative_to(SRC):
        raise BenchError(f"dhworkspace does not import from {SRC}: "
                         f"{(where.stdout + where.stderr).strip()[-300:]}")


def setup_probe(workload, tmp: Path) -> float:
    child = run_child([sys.executable, "-c", SETUP_CODE, workload.robot], tmp)
    if child.exit_code != 0:
        raise BenchError(f"set-up probe failed: {child_failure(child)}")
    return child.wall_s


def low_percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(workload, seed: int, seconds: float, tmp: Path) -> dict:
    """Untraced whole CLI children for `seconds`, each followed by a set-up
    probe so that both sample the same stretch of host load; end-to-end
    metrics."""
    check_import(tmp)
    check = output_checker(workload, seed, tmp)
    argv = workload.argv(seed, str(tmp / f"{workload.name}.out"))
    cmd = [sys.executable, "-m", "dhworkspace.cli", *argv]
    walls, cycles, rss, setup, problems, failed = [], [], [], [], [], 0
    start = time.perf_counter()
    # a child starts only if a typical one would end within the run
    while len(walls) < MIN_REPS or (time.perf_counter() - start
                                    + statistics.median(cycles) <= seconds):
        begun = time.perf_counter()
        child = run_child(cmd, tmp)
        found = child_failure(child) or check(child.stdout)
        walls.append(child.wall_s)
        rss.append(child.maxrss_mb)
        failed += bool(found)
        problems += found
        setup.append(setup_probe(workload, tmp))
        cycles.append(time.perf_counter() - begun)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(workload, tmp))
    # Contention from other tenants only ever adds time, in stretches of
    # seconds to minutes that can fill most of a run, so a low percentile
    # tracks the program's own cost; the median stays in the detail record
    # and the report.
    wall_s = low_percentile(walls, WALL_PERCENTILE)
    metrics = {
        "wall_s": wall_s,
        "samples_per_s": workload.n / wall_s,
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }
    detail = {"walls_s": walls, "peak_rss_mb": rss, "setup_s": setup,
              "wall_s_median": statistics.median(walls),
              "wall_s_top_percentile": top_percentile(walls)}
    return {"metrics": metrics, "attempted": len(walls), "failed": failed,
            "problems": problems, "detail": detail}


def traced(workload, seed: int, seconds: float, tmp: Path) -> dict:
    """Traced and untraced in-process runs, alternated, for `seconds`;
    per-layer metrics and the tracing overhead."""
    check = output_checker(workload, seed, tmp)
    worker = [sys.executable, str(HERE / "worker.py"), workload.name, str(seed), str(tmp)]
    runs = {"traced": [], "plain": []}
    problems, attempted, failed, missing = [], 0, 0, set()
    start = time.perf_counter()
    pairs = []
    while len(pairs) < MIN_TRACED_PAIRS or (time.perf_counter() - start
                                            + statistics.median(pairs) <= seconds):
        begun = time.perf_counter()
        for mode in ("traced", "plain") if len(pairs) % 2 == 0 else ("plain", "traced"):
            child = run_child(worker + [mode], tmp)
            attempted += 1
            found = child_failure(child)
            if not found:
                record = json.loads(child.stdout.strip().splitlines()[-1])
                found = record["problems"] or check(record["stdout"])
                missing.update(record["missing"])
                missing.update(f"counter of {name}" for name in record["uncounted"])
                runs[mode].append(record)
            failed += bool(found)
            problems += found
        pairs.append(time.perf_counter() - begun)
    per_run = [layer_metrics(r["spans"], len(r["stdout"].encode())) for r in runs["traced"]]
    for name in EXACT_COUNTS:
        if len({m[name] for m in per_run}) > 1:
            problems.append(f"{name} differs between traced runs: {[m[name] for m in per_run]}")
    # counts are checked equal above, so the first run's value stands for all
    metrics = {name: per_run[0][name] if name in EXACT_COUNTS
               else statistics.median(m[name] for m in per_run)
               for name in per_run[0]} if per_run else {}
    walls = {mode: [r["wall_s"] for r in records] for mode, records in runs.items()}
    if walls["traced"] and walls["plain"]:
        metrics["trace.overhead_s"] = (statistics.median(walls["traced"])
                                       - statistics.median(walls["plain"]))
    detail = {"in_process_walls_s": walls, "missing": sorted(missing),
              "spans": runs["traced"][0]["spans"] if runs["traced"] else {}}
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "detail": detail}


def report(workload: str, seed: int, trace: int, result: dict) -> None:
    units = metric_units()
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {workload} seed={seed} trace={trace}: "
          f"{attempted} repetitions, {failed} failed")
    for name, value in result["metrics"].items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        line = f"  {name:40s} {shown} {units[name]}"
        if name == "wall_s":
            detail = result["detail"]
            top = detail["wall_s_top_percentile"]
            line += (f"   (p{WALL_PERCENTILE}; median {detail['wall_s_median']:.6g} s, "
                     + (f"p{top[0]} {top[1]:.6g} s" if top else
                        "no percentile has 10 samples beyond it")
                     + f", {attempted} samples)")
        print(line)
    if trace == 0:
        print(f"  {'error_rate':40s} {failed / attempted:14.6g} ratio")
    for problem in result["problems"][:10]:
        print(f"  problem: {problem}")
    for name in result["detail"].get("missing", []):
        print(f"  missing span: {name}")


def run_workload(workload, seed: int, seconds: float, trace: int) -> dict:
    tmp = TMP / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        if trace:
            return traced(workload, seed, seconds, tmp)
        return measure(workload, seed, seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass


def run_all(args) -> dict:
    """Every workload in turn, each in its own run of this script."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{name}: {proc.stderr.strip()[-300:]}")
        print("\n".join(line for line in lines[:-1] if not line.startswith("detail: ")))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "dhworkspace" / "__init__.py").is_file():
        print(f"error: no dhworkspace sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.workload == "all":
            final = run_all(args)
        else:
            result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
            report(args.workload, args.seed, args.trace, result)
            print("detail: " + json.dumps({
                "workload": args.workload, "trace": args.trace,
                "env": environment(args.seed), "problems": result["problems"],
                **result["detail"]}))
            units = metric_units()
            final = {
                "correct": result["failed"] == 0 and not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": value, "unit": units[name]}
                            for name, value in result["metrics"].items()},
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
