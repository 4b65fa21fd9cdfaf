"""Stage timings of dhworkspace at fixed sizes, printed as one JSON record.

Run from anywhere, with no options:

    python3 tools/stages.py > stages.json

It times the checkout it lives in (its `src/`), whatever is installed.

Whole process: the `volume` and `workspace` csv commands of the benchmark's
two workloads, and the start-up cost beside them (`python -c pass`,
`python -c "import numpy"`, `python -c "import dhworkspace"`, the
benchmark's set-up probe, which imports the package and parses smokie, and
`validate builtin:wam`), RUNS times each, alternating. Beside them, the
sorted `dhworkspace.*` and `dataclasses` modules that the set-up probe
leaves in `sys.modules`. Wall time is taken from spawn to reap, and the child's own peak
RSS and minor page faults from `os.wait4`. A child inherits its parent's RSS
high-water mark through fork and exec, so these run first, before this
process imports numpy: the `volume` row's peak RSS is the CLI's own. The
children inherit this process's environment; the record keeps the value of
`OPENBLAS_NUM_THREADS` it saw (the CLI sets it to 1 where it is unset). The faults count the pages the child touched for the
first time, heap pages that the allocator gave back and took again included:
a cost the warm in-process calls below hide. Where PYTHONDONTWRITEBYTECODE
is set, no bytecode cache is written and every child compiles the package
again; the record keeps its value beside these rows.

In process: the best of REPEATS single calls of each stage, at each of
SIZES. `fk_batch` is timed over the blocks of `workspace._BLOCK` rows that
`generate_cloud` hands it, on one thread, once returning the 4x4 poses and
once the positions only, each in a new process that has only drawn the
samples, so no earlier stage has grown the heap it allocates from;
`generate_cloud` runs its blocks on every CPU in the affinity mask.
`voxelize` gets a new cloud each time, so it computes the cloud's cached
bounds. `volume_tail` is what the CLI runs after sampling: `summarize` of a
new `generate_cloud` cloud, which computes its bounds the same way.
`parse_robot` is timed alone, best of REPEATS, on the text of each fixture
and of a 1,000-joint file.

Size: the line count of each module of the package and their total (as
`wc -l` counts them), and the number of names in `dhworkspace.__all__`.
"""

from __future__ import annotations

import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
SRC = TOOLS.parent / "src"
SEED = 7
SIZES = (("wam", 20_000), ("wam", 200_000), ("smokie", 1_000_000))
REPEATS = 7
RUNS = 7
RESOLUTION = 0.02
#: the benchmark's set-up probe: import the package and parse a fixture
SETUP_PROBE = "import sys, dhworkspace; dhworkspace.builtin_fixture(sys.argv[1])"


def _spawn(argv: list[str], env: dict) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MB, minor page faults) of one run of this
    Python with argv; stdout goes to /dev/null."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"python {shlex.join(argv)} exited with status {status}")
    return wall, usage.ru_maxrss / 1024.0, usage.ru_minflt  # ru_maxrss is in KiB on Linux


def _child_env() -> dict:
    """This process's environment, with the checkout's src/ first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def whole_process() -> dict:
    if "numpy" in sys.modules:
        raise RuntimeError("numpy is imported: the CLI children would inherit this process's peak RSS")
    env = _child_env()
    with tempfile.TemporaryDirectory() as scratch:
        cli = ["-m", "dhworkspace.cli"]
        commands = {
            "volume_smokie_1000000": [*cli, "volume", "builtin:smokie", "--samples", "1000000",
                                      "--seed", str(SEED), "--voxel", str(RESOLUTION)],
            "workspace_csv_wam_200000": [*cli, "workspace", "builtin:wam", "--samples", "200000",
                                         "--seed", str(SEED), "--format", "csv",
                                         "--out", os.path.join(scratch, "cloud.csv")],
            "python_pass": ["-c", "pass"],
            "python_import_numpy": ["-c", "import numpy"],
            "import_dhworkspace": ["-c", "import dhworkspace"],
            "setup_smokie": ["-c", SETUP_PROBE, "smokie"],
            "validate_wam": [*cli, "validate", "builtin:wam"],
        }
        shown = {name: shlex.join(argv).replace(scratch, "<tmp>") for name, argv in commands.items()}
        runs = {name: [] for name in commands}
        for _ in range(RUNS):
            for name, argv in commands.items():
                runs[name].append(_spawn(argv, env))
    out = {}
    for name, triples in runs.items():
        walls, rss, faults = (list(column) for column in zip(*triples))
        out[name] = {"command": "python " + shown[name], "runs": len(triples),
                     "median_wall_s": statistics.median(walls), "min_wall_s": min(walls),
                     "median_peak_rss_mb": statistics.median(rss),
                     "median_minor_faults": statistics.median(faults),
                     "wall_s": walls, "peak_rss_mb": rss, "minor_faults": faults}
    return out


def probe_modules() -> list:
    """The sorted dhworkspace.* and dataclasses modules that the set-up probe
    leaves in sys.modules."""
    report = "; print(*sorted(m for m in sys.modules if m.startswith('dhworkspace.') or m == 'dataclasses'))"
    child = subprocess.run([sys.executable, "-c", SETUP_PROBE + report, "smokie"], env=_child_env(),
                           stdout=subprocess.PIPE, text=True, check=True)
    return child.stdout.split()


def _best(fn, setup=lambda: None) -> float:
    """Fastest of REPEATS calls of fn(setup()), setup untimed."""
    times = []
    for _ in range(REPEATS):
        arg = setup()
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
    return min(times)


def kernel(robot: str, n: int, pose: bool) -> float:
    """Best time of fk_batch over the blocks of n samples of robot; run by
    kernel_rows in a process of its own."""
    sys.path.insert(0, str(SRC))
    from dhworkspace import SampleSpec, builtin_fixture, fk_batch, joint_samples, workspace

    model = builtin_fixture(robot)
    Q = joint_samples(model, SampleSpec(n=n, seed=SEED))
    blocks = [Q[start:start + workspace._BLOCK] for start in range(0, n, workspace._BLOCK)]

    def run(_):
        for block in blocks:  # each result is dropped, as generate_cloud copies it out
            fk_batch(model, block, pose=pose)

    return _best(run)


def kernel_rows() -> dict:
    """The fk_batch rows of each size, each from a new process."""
    out = {}
    for robot, n in SIZES:
        for pose, row in ((True, "fk_batch_pose"), (False, "fk_batch_positions")):
            code = f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import stages; " \
                   f"print(stages.kernel({robot!r}, {n}, {pose}))"
            child = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, check=True)
            out.setdefault(f"{robot}_{n}", {})[row] = float(child.stdout)
    return out


def in_process() -> dict:
    sys.path.insert(0, str(SRC))
    from dhworkspace import (PointCloud, SampleSpec, builtin_fixture, cli, generate_cloud, joint_samples,
                             summarize, voxelize)

    out = {}
    for robot, n in SIZES:
        model, spec = builtin_fixture(robot), SampleSpec(n=n, seed=SEED)
        points = generate_cloud(model, spec).points

        def cloud():
            return PointCloud(points=points, robot=model.name, seed=SEED)

        out[f"{robot}_{n}"] = {
            "joint_samples": _best(lambda _: joint_samples(model, spec)),
            "generate_cloud": _best(lambda _: generate_cloud(model, spec)),
            "voxelize": _best(lambda c: voxelize(c, RESOLUTION), cloud),
            "volume_tail": _best(lambda c: summarize(c, RESOLUTION), lambda: generate_cloud(model, spec)),
            "csv_text": _best(lambda _: cli._rows_text("x,y,z\n", points, ",")),
        }
    return out


def parse_rows() -> dict:
    """Best time of parse_robot on each fixture's text and on a 1,000-joint file."""
    sys.path.insert(0, str(SRC))
    from dhworkspace import fixture_names, fixture_source, parse_robot

    joint = "joint {} type=revolute a=0.1 alpha=pi/2 d=0.05 offset=0 min=-pi max=pi\n"
    sources = {name: fixture_source(name) for name in fixture_names()}
    sources["joints_1000"] = 'robot "chain"\nunits m\n' + "".join(joint.format(i) for i in range(1, 1001))
    return {name: _best(lambda _: parse_robot(source)) for name, source in sources.items()}


def source_lines() -> dict:
    """Lines per module of src/dhworkspace, and their total."""
    lines = {path.name: path.read_bytes().count(b"\n") for path in sorted((SRC / "dhworkspace").glob("*.py"))}
    lines["total"] = sum(lines.values())
    return lines


def main() -> None:
    walls = whole_process()
    kernels = kernel_rows()
    stages = in_process()
    for size, rows in kernels.items():
        stages[size].update(rows)
    import dhworkspace
    import numpy

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    record = {
        "host": {"cpus": cpus, "machine": platform.machine(), "python": platform.python_version(),
                 "numpy": numpy.__version__},
        "seed": SEED,
        "voxel_resolution": RESOLUTION,
        "in_process_best_of": REPEATS,
        "in_process_s": stages,
        "parse_robot_s": parse_rows(),
        "whole_process": walls,
        "setup_probe_modules": probe_modules(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "source_lines": source_lines(),
        "public_names": len(dhworkspace.__all__),
    }
    json.dump(record, sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
