"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from spans import EXACT_COUNTS, LAYER_METRICS, TARGETS, Recorder, layer_metrics  # noqa: E402
from worker import run_once  # noqa: E402
from workloads import WORKLOADS, check_csv, check_volume, volume_reference  # noqa: E402

from dhworkspace import builtin_fixture  # noqa: E402
from dhworkspace.cli import main as cli_main  # noqa: E402

SMALL_N = {"cloud-csv": 3000, "volume": 5000}


def small(name):
    return replace(WORKLOADS[name], n=SMALL_N[name])


def cli_stdout(argv) -> str:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        assert cli_main(argv) == 0
    return captured.getvalue()


# --- spans -------------------------------------------------------------------

@pytest.mark.parametrize("name", ["cloud-csv", "volume"])
def test_counts_repeat_exactly_between_traced_runs(name, tmp_path):
    workload = small(name)
    model = builtin_fixture(workload.robot)
    metrics = []
    for _ in range(2):
        record = run_once(workload, 5, tmp_path, traced=True)
        assert (record["problems"], record["missing"], record["uncounted"]) == ([], [], [])
        metrics.append(layer_metrics(record["spans"], len(record["stdout"].encode())))
    for key in EXACT_COUNTS:
        assert metrics[0][key] == metrics[1][key], key
    first = metrics[0]
    assert first["rng.bulk_unit.draws"] == workload.n * model.movable_count
    assert first["kinematics.fk_batch.bytes_computed"] == len(model.rows) * workload.n * 3 * 128
    if name == "cloud-csv":
        assert first["cli.write_out.bytes"] == first["cli.format.bytes"] > workload.n * 3
        assert first["workspace.voxelize.occupied"] == 0
    else:
        assert first["cli.write_out.bytes"] == 0
        assert first["cli.format.bytes"] == len(record["stdout"])
        payload = json.loads(record["stdout"])
        assert first["workspace.voxelize.occupied"] == payload["occupied_count"]


def test_missing_names_are_reported_and_skipped():
    recorder = Recorder()
    targets = (("dhworkspace.workspace", "no_such_kernel", "x", None, False),
               ("no_such_module", "f", "y", None, False))
    assert recorder.install(targets) == ["dhworkspace.workspace.no_such_kernel",
                                         "no_such_module.f"]
    recorder.uninstall()


def test_traced_run_survives_a_removed_function(tmp_path, monkeypatch):
    import dhworkspace.cli

    monkeypatch.delattr(dhworkspace.cli, "project")
    record = run_once(small("cloud-csv"), 5, tmp_path, traced=True)
    assert record["missing"] == ["dhworkspace.cli.project"]
    assert record["problems"] == []


def test_counter_failure_keeps_the_call_and_is_reported():
    recorder = Recorder()
    voxelize_counter = next(t[3] for t in TARGETS if t[1] == "voxelize")
    wrapped = recorder.wrap(lambda cloud: 7, "workspace.voxelize", voxelize_counter)
    assert wrapped(None) == 7
    assert recorder.uncounted == {"workspace.voxelize"}


def test_self_time_excludes_child_spans():
    recorder = Recorder()
    inner = recorder.wrap(lambda: time.sleep(0.02), "inner")
    outer = recorder.wrap(lambda: (time.sleep(0.01), inner()), "outer")
    outer()
    summary = recorder.summary()
    assert summary["outer"]["total_s"] >= 0.03
    assert 0.01 <= summary["outer"]["self_s"] < summary["outer"]["total_s"] - 0.019
    assert summary["inner"]["self_s"] == summary["inner"]["total_s"]


# --- output checks -----------------------------------------------------------

def test_csv_check_accepts_the_cli_output_and_catches_errors(tmp_path):
    model = builtin_fixture("wam")
    out = tmp_path / "c.csv"
    cli_main(["workspace", "builtin:wam", "--samples", "500", "--seed", "9", "--out", str(out)])
    text = out.read_text()
    assert check_csv(text, model, 9, 500) == []
    assert check_csv("# robot=WAM seed=9 n=500\n" + text, model, 9, 500) == []
    assert check_csv(text, model, 10, 500) != []
    assert check_csv(text.rsplit("\n", 2)[0] + "\n", model, 9, 500) != []
    header, first, rest = text.split("\n", 2)
    x, y, z = first.split(",")
    moved = f"{float(x) + 1e-6:.9f}"
    assert check_csv("\n".join([header, f"{moved},{y},{z}", rest]), model, 9, 500) != []


def test_volume_check_accepts_the_cli_output_and_catches_errors():
    model = builtin_fixture("smokie")
    argv = ["volume", "builtin:smokie", "--samples", "2000", "--seed", "9", "--voxel", "0.02"]
    text = cli_stdout(argv)
    expected = volume_reference(model, 9, 2000)
    assert check_volume(text, expected) == []
    payload = json.loads(text)
    for key, value in (("occupied_count", payload["occupied_count"] + 1),
                       ("volume_m3", payload["volume_m3"] * 2),
                       ("max_reach_m", float("nan")),
                       ("bbox_max", [1.0, 1.0, 1.0])):
        assert check_volume(json.dumps(dict(payload, **{key: value})), expected) != [], key
    assert check_volume(text.replace('"n"', '"count"'), expected) != []


# --- the runner --------------------------------------------------------------

def test_top_percentile_needs_ten_samples_beyond_it():
    assert bench.top_percentile([1.0] * 10) is None
    assert bench.top_percentile([float(v) for v in range(11)]) == (9, 0.0)
    assert bench.top_percentile([float(v) for v in range(100)]) == (90, 89.0)


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]} \
        == bench.metric_units()
    assert len(spec["per_layer"]) == len(LAYER_METRICS) + 1


def run_bench(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_runner_prints_every_metric_of_its_mode(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(ROOT, "--workload", "cloud-csv", "--seed", "2", "--seconds", "0",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in spec["end_to_end" if trace == "0" else "per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert not (ROOT / ".perfbench_tmp").exists()


def test_runner_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "cloud-csv", "--seed", "1", "--seconds", "1",
                     timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
