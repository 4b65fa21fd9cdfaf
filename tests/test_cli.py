"""CLI behavior: subcommands, file formats, exit codes, atomic output."""

import json
import math
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

import dhworkspace
from dhworkspace import SampleSpec, builtin_fixture, generate_cloud, summarize
from dhworkspace.cli import main

GOOD = 'robot "T"\nunits m\njoint 1 type=revolute a=0 alpha=0 d=0 offset=0 min=-1 max=1\n'


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# --- validate ----------------------------------------------------------------

def test_validate_clean_fixture_is_silent(capsys):
    code, out, err = run(capsys, "validate", "builtin:smokie")
    assert (code, out, err) == (0, "", "")


def test_validate_reads_files(tmp_path, capsys):
    path = tmp_path / "t.robot"
    path.write_text(GOOD)
    assert run(capsys, "validate", str(path))[0] == 0


def test_validate_prints_warnings_but_passes(tmp_path, capsys):
    path = tmp_path / "t.robot"
    path.write_text(GOOD.replace("min=-1 max=1", "min=1 max=1"))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 0
    assert out == ""
    assert "warning" in err and "[zero-span-limits]" in err


def test_validate_structural_error_exits_2(tmp_path, capsys):
    path = tmp_path / "t.robot"
    path.write_text(GOOD.replace("units m", "units yards"))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert f"{path}:2:7: error:" in err
    assert "[bad-units]" in err


def test_validate_semantic_error_exits_3(tmp_path, capsys):
    path = tmp_path / "t.robot"
    path.write_text(GOOD.replace("min=-1 max=1", "min=1 max=-1"))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 3
    assert "[limits-inverted]" in err


#: files whose numbers are finite but whose max - min, or whose summed link
#: lengths, overflow a float
OVERFLOWING = {
    "span": GOOD.replace("min=-1 max=1", "min=-1e308 max=1e308"),
    "lengths": 'robot "T"\nunits m\n'
               "joint 1 type=revolute a=1e308 alpha=0 d=0 offset=0 min=-1 max=1\n"
               "joint 2 type=revolute a=1e308 alpha=0 d=0 offset=0 min=-1 max=1\n",
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING))
@pytest.mark.parametrize("command", [
    ["validate"],
    ["fk", "--q", "0,0"],
    ["workspace", "--samples", "100", "--out"],
    ["project", "--samples", "100", "--plane", "xy", "--out"],
    ["volume", "--samples", "100"],
], ids=lambda command: command[0])
def test_overflowing_ranges_exit_3(tmp_path, capsys, case, command):
    path = tmp_path / "t.robot"
    path.write_text(OVERFLOWING[case])
    argv = [command[0], str(path), *command[1:]]
    if argv[-1] == "--out":
        argv.append(str(tmp_path / "out.csv"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert len([line for line in err.splitlines() if "[range-overflow]" in line]) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["t.robot"]


# --- fk ------------------------------------------------------------------------

def test_fk_wam_zero_config_golden(capsys):
    code, out, err = run(capsys, "fk", "builtin:wam", "--q", "0,0,0,0,0,0")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "1.000000000 0.000000000 0.000000000 0.000000000"
    assert lines[1] == "0.000000000 1.000000000 0.000000000 0.000000000"
    assert lines[2] == "0.000000000 0.000000000 1.000000000 0.910000000"
    assert lines[3] == "0.000000000 0.000000000 0.000000000 1.000000000"
    assert lines[4] == "0.000000000 0.000000000 0.910000000"


def test_fk_degrees_converts_revolute_values(capsys):
    in_degrees = run(capsys, "fk", "builtin:smokie", "--q", "90,0,0,0,0,0", "--degrees")
    in_radians = run(capsys, "fk", "builtin:smokie", "--q", f"{math.pi / 2!r},0,0,0,0,0")
    assert in_degrees == in_radians
    assert in_degrees[0] == 0


def test_fk_degrees_leaves_prismatic_values_alone(tmp_path, capsys):
    path = tmp_path / "mixed.robot"
    path.write_text(
        'robot "M"\nunits m\n'
        "joint 1 type=revolute a=0.2 alpha=0 d=0 offset=0 min=-pi max=pi\n"
        "joint 2 type=prismatic a=0 alpha=0 d=0 offset=0 min=0 max=1\n")
    a = run(capsys, "fk", str(path), "--q", "90,0.5", "--degrees")
    b = run(capsys, "fk", str(path), "--q", f"{math.pi / 2!r},0.5")
    assert a == b


def test_fk_wrong_arity_exits_4(capsys):
    code, _, err = run(capsys, "fk", "builtin:wam", "--q", "0,0")
    assert code == 4
    assert "6 movable joints" in err


def test_fk_out_of_limit_exits_4(capsys):
    code, _, err = run(capsys, "fk", "builtin:wam", "--q", "3,0,0,0,0,0")
    assert code == 4
    assert "joint 2" in err and "limit" in err


def test_fk_malformed_q_exits_1(capsys):
    code, _, err = run(capsys, "fk", "builtin:wam", "--q", "a,b,c")
    assert code == 1


def test_fk_rejects_broken_robot_file(tmp_path, capsys):
    path = tmp_path / "t.robot"
    path.write_text("robot nope\n")
    code, _, err = run(capsys, "fk", str(path), "--q", "0")
    assert code == 2
    assert "[bad-robot-name]" in err


# --- workspace ------------------------------------------------------------------

def test_workspace_csv_content(tmp_path, capsys):
    out_file = tmp_path / "cloud.csv"
    code, out, err = run(capsys, "workspace", "builtin:wam", "--samples", "5",
                         "--seed", "9", "--out", str(out_file))
    assert (code, out, err) == (0, "", "")
    lines = out_file.read_text().splitlines()
    assert lines[0] == "x,y,z"
    assert len(lines) == 6
    cloud = generate_cloud(builtin_fixture("wam"), SampleSpec(n=5, seed=9))
    expected = ["%.9f,%.9f,%.9f" % tuple(p) for p in cloud.points.tolist()]
    assert lines[1:] == expected


def test_workspace_runs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "workspace", "builtin:smokie", "--samples", "500", "--out", str(a))
    run(capsys, "workspace", "builtin:smokie", "--samples", "500", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_workspace_ply_header_and_count(tmp_path, capsys):
    out_file = tmp_path / "cloud.ply"
    code, _, _ = run(capsys, "workspace", "builtin:wam", "--samples", "7",
                     "--seed", "1", "--out", str(out_file), "--format", "ply")
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "ply"
    assert lines[1] == "format ascii 1.0"
    assert lines[3] == "element vertex 7"
    assert lines[4:7] == ["property double x", "property double y", "property double z"]
    assert lines[7] == "end_header"
    body = lines[8:]
    assert len(body) == 7
    assert all(len(row.split()) == 3 for row in body)


def test_workspace_leaves_no_temp_files(tmp_path, capsys):
    out_file = tmp_path / "cloud.csv"
    run(capsys, "workspace", "builtin:wam", "--samples", "10", "--out", str(out_file))
    assert [p.name for p in tmp_path.iterdir()] == ["cloud.csv"]


def test_output_file_mode_follows_umask(tmp_path, capsys):
    out_file = tmp_path / "cloud.csv"
    saved = os.umask(0o022)
    try:
        for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
            os.umask(umask)
            run(capsys, "workspace", "builtin:wam", "--samples", "10", "--out", str(out_file))
            assert out_file.stat().st_mode & 0o777 == mode
    finally:
        os.umask(saved)


def test_workspace_default_flags(tmp_path, capsys):
    # defaults: 20000 samples, seed 42
    out_file = tmp_path / "cloud.csv"
    code, _, _ = run(capsys, "workspace", "builtin:wam", "--out", str(out_file))
    assert code == 0
    assert len(out_file.read_text().splitlines()) == 20001


# --- project ---------------------------------------------------------------------

def test_project_writes_two_columns(tmp_path, capsys):
    out_file = tmp_path / "proj.csv"
    code, _, _ = run(capsys, "project", "builtin:smokie", "--samples", "50",
                     "--seed", "4", "--plane", "xz", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "u,v"
    assert len(lines) == 51
    cloud = generate_cloud(builtin_fixture("smokie"), SampleSpec(n=50, seed=4))
    expected = ["%.9f,%.9f" % (p[0], p[2]) for p in cloud.points.tolist()]
    assert lines[1:] == expected


def test_project_requires_plane(tmp_path, capsys):
    code, _, _ = run(capsys, "project", "builtin:smokie", "--out",
                     str(tmp_path / "p.csv"))
    assert code == 1


# --- volume ----------------------------------------------------------------------

def test_volume_json_payload(capsys):
    code, out, err = run(capsys, "volume", "builtin:wam", "--samples", "2000",
                         "--seed", "42", "--voxel", "0.05")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert list(payload) == ["robot", "n", "seed", "voxel_resolution",
                             "occupied_count", "volume_m3", "max_reach_m",
                             "bbox_min", "bbox_max"]
    cloud = generate_cloud(builtin_fixture("wam"), SampleSpec(n=2000, seed=42))
    summary = summarize(cloud, 0.05)
    assert payload["robot"] == "WAM"
    assert payload["n"] == 2000 and payload["seed"] == 42
    assert list(summary) == list(payload) and summary == payload
    assert payload["volume_m3"] == payload["occupied_count"] * 0.05 ** 3


def test_volume_is_deterministic(capsys):
    a = run(capsys, "volume", "builtin:smokie", "--samples", "1000")
    b = run(capsys, "volume", "builtin:smokie", "--samples", "1000")
    assert a == b


# --- error handling ----------------------------------------------------------------

def test_unknown_builtin_exits_1(capsys):
    code, _, err = run(capsys, "validate", "builtin:hal9000")
    assert code == 1
    assert "unknown fixture" in err


def test_missing_file_exits_5(capsys):
    code, _, err = run(capsys, "validate", "no/such/file.robot")
    assert code == 5
    assert "cannot read" in err


def test_unwritable_output_exits_5(tmp_path, capsys):
    code, _, err = run(capsys, "workspace", "builtin:wam", "--samples", "5",
                       "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 5
    assert "cannot write" in err
    # the temp file is written, then the rename onto a directory fails: it is removed
    target = tmp_path / "taken"
    target.mkdir()
    code, _, err = run(capsys, "workspace", "builtin:wam", "--samples", "5", "--out", str(target))
    assert code == 5
    assert len(err.splitlines()) == 1 and "cannot write" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("name, exc, code", [
    ("fdopen", MemoryError, 1),  # as when text.encode cannot get its copy
    ("replace", KeyboardInterrupt, None),
])
def test_failed_write_leaves_no_temp_file(tmp_path, capsys, monkeypatch, name, exc, code):
    # an exception that is not an OSError still removes the temp file, and
    # reaches main unchanged: MemoryError is its one-line exit 1, Ctrl-C stays
    def fail(*args, **kwargs):
        raise exc()

    monkeypatch.setattr(os, name, fail)
    argv = ["workspace", "builtin:wam", "--samples", "100", "--out", str(tmp_path / "c.csv")]
    if code is None:
        with pytest.raises(exc):
            main(argv)
    else:
        assert run(capsys, *argv) == (code, "", "error: not enough memory for --samples 100\n")
    assert list(tmp_path.iterdir()) == []


def test_missing_subcommand_exits_1(capsys):
    assert run(capsys, )[0] == 1


def test_unknown_subcommand_exits_1(capsys):
    assert run(capsys, "teleport")[0] == 1


def test_bad_flag_value_exits_1(capsys):
    assert run(capsys, "workspace", "builtin:wam", "--samples", "0",
               "--out", "x.csv")[0] == 1
    assert run(capsys, "volume", "builtin:wam", "--voxel", "-1")[0] == 1
    # bulk_unit reads the seed modulo 2**64: a larger one would alias a smaller
    for seed in ("-1", str(2 ** 64)):
        code, out, err = run(capsys, "volume", "builtin:wam", "--seed", seed)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and "--seed" in err


@pytest.mark.parametrize("voxel, message", [
    ("1e-20", "too fine"),  # voxel indices beyond int64 packing
    ("1e300", "overflows"),  # resolution ** 3 overflows
    ("5.6e102", "not finite"),  # the cube fits, eight voxels of it do not
    ("inf", "finite number > 0"),
    ("nan", "finite number > 0"),
])
def test_volume_rejects_unusable_voxel_sizes(capsys, voxel, message):
    code, out, err = run(capsys, "volume", "builtin:wam", "--samples", "100",
                         "--voxel", voxel)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err
    # a bad resolution is named, by value or by its flag
    assert str(float(voxel)) in err or "--voxel" in err


def test_volume_of_a_cloud_no_voxel_grid_holds_is_one_line(tmp_path, capsys):
    # a legal file (its span and reach bound are finite) whose points lie
    # about 1e308 m out: every 0.02 m voxel index is beyond 2**62, and the
    # refusal comes before any point is divided, so no overflow warning
    path = tmp_path / "t.robot"
    path.write_text(GOOD.replace("a=0", "a=1e308"))
    # no --voxel value works here, so the message names the cloud, not the
    # flag, even for a resolution whose own cube overflows
    for voxel in ("0.02", "1e300"):
        code, out, err = run(capsys, "volume", str(path), "--samples", "100", "--voxel", voxel)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert "--voxel" not in err and "no voxel grid holds this cloud" in err


@pytest.mark.parametrize("command", [
    ["volume"],
    ["workspace", "--out"],
    ["project", "--plane", "xz", "--out"],
])
def test_impossible_sample_count_exits_1(tmp_path, capsys, command):
    # 10**15: petabytes of draws, refused at allocation before any page is
    # touched; 10**19: more draws than an array can even index
    out = tmp_path / "cloud.csv"
    for samples in (10 ** 15, 10 ** 19):
        argv = [command[0], "builtin:smokie", "--samples", str(samples), *command[1:]]
        if argv[-1] == "--out":
            argv.append(str(out))
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert err == f"error: not enough memory for --samples {samples}\n"
        assert list(tmp_path.iterdir()) == []


def test_missing_required_flag_exits_1(capsys):
    assert run(capsys, "workspace", "builtin:wam")[0] == 1


def test_byte_order_mark_is_not_part_of_the_file(tmp_path, capsys):
    path = tmp_path / "bom.robot"
    path.write_bytes(b"\xef\xbb\xbf" + GOOD.encode())
    assert run(capsys, "validate", str(path)) == (0, "", "")
    # diagnostics point at the same line and column with and without the mark
    reports = []
    for name, prefix in (("plain.robot", b""), ("bom.robot", b"\xef\xbb\xbf")):
        path = tmp_path / name
        path.write_bytes(prefix + GOOD.replace('"T"', "T").encode())
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2 and "[bad-robot-name]" in err
        reports.append(err.removeprefix(str(path)))
    assert reports[0] == reports[1]


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bin.robot"
    path.write_bytes(b"\xff\xfe\x00robot")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "UTF-8" in err


# --- console script -------------------------------------------------------------

PACKAGE_PARENT = Path(dhworkspace.__file__).resolve().parent.parent
INSTALLED_SCRIPT = Path(sysconfig.get_path("scripts")) / "dhworkspace"


def _load_toml(path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(path, "rb") as fh:
        return tomllib.load(fh)


def _check_console_command(command, env=None):
    """Run `command validate ...` the way a user would and check the exit status."""
    clean = subprocess.run([*command, "validate", "builtin:wam"], env=env,
                           capture_output=True, text=True, timeout=60)
    assert clean.returncode == 0
    assert clean.stdout == "" and clean.stderr == ""
    # A non-zero code proves main's return value reaches the exit status.
    bad = subprocess.run([*command, "validate", "builtin:nope"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert bad.returncode == 1
    assert bad.stdout == ""
    assert bad.stderr.startswith("error: unknown fixture")
    assert len(bad.stderr.splitlines()) == 1


def test_console_script_is_installed():
    """The declared `dhworkspace` entry point runs the CLI, installed or not."""
    scripts = _load_toml(PACKAGE_PARENT.parent / "pyproject.toml")["project"]["scripts"]
    assert "dhworkspace" in scripts
    module, attr = scripts["dhworkspace"].split(":")
    # The same call as the wrapper an installer generates for the entry point.
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    pythonpath = [str(PACKAGE_PARENT)]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    _check_console_command([sys.executable, "-c", wrapper], env=env)


@pytest.mark.skipif(not INSTALLED_SCRIPT.exists(),
                    reason=f"package not installed: no {INSTALLED_SCRIPT}")
def test_installed_console_script_runs():
    _check_console_command([str(INSTALLED_SCRIPT)])
