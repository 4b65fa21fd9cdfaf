"""CLI behavior: subcommands, file formats, exit codes, atomic output."""

import json
import math
import os
import shutil
import stat
import subprocess
import sys
import sysconfig
import threading
from pathlib import Path

import numpy as np
import pytest

import dhworkspace
from dhworkspace import SampleSpec, builtin_fixture, cli, generate_cloud, parse_robot, summarize
from dhworkspace.cli import main
from dhworkspace.workspace import _BLOCK

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


#: files whose numbers are finite but whose max - min, summed link lengths,
#: or revolute offset + min or offset + max overflow a float, each with an
#: `fk --q` within its limits
OVERFLOWING = {
    "span": (GOOD.replace("min=-1 max=1", "min=-1e308 max=1e308"), "0"),
    "lengths": ('robot "T"\nunits m\n'
                "joint 1 type=revolute a=1e308 alpha=0 d=0 offset=0 min=-1 max=1\n"
                "joint 2 type=revolute a=1e308 alpha=0 d=0 offset=0 min=-1 max=1\n", "0,0"),
    "offset": ('robot "T"\nunits m\n'
               "joint 1 type=revolute a=1 alpha=0 d=0 offset=1e308 min=0 max=1e308\n", "1e308"),
    "fixed-offset": ('robot "T"\nunits m\n'
                     "joint 1 type=revolute a=0 alpha=0 d=0 offset=-1e308 min=-1e308 max=-1e308 fixed=-1e308\n"
                     "joint 2 type=revolute a=1 alpha=0 d=0 offset=0 min=-1 max=1\n", "0"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING))
@pytest.mark.parametrize("command", [
    ["validate"],
    ["fk", "--q"],
    ["workspace", "--samples", "100", "--out"],
    ["project", "--samples", "100", "--plane", "xy", "--out"],
    ["volume", "--samples", "100"],
], ids=lambda command: command[0])
def test_overflowing_ranges_exit_3(tmp_path, capsys, case, command):
    source, q = OVERFLOWING[case]
    path = tmp_path / "t.robot"
    path.write_text(source)
    argv = [command[0], str(path), *command[1:]]
    if argv[-1] == "--out":
        argv.append(str(tmp_path / "out.csv"))
    if argv[-1] == "--q":
        argv.append(q)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    lines = err.splitlines()
    assert len([line for line in lines if "[range-overflow]" in line]) == 1
    # the diagnostics, then one error line from every command but validate
    errors = [line for line in lines if line.startswith("error:")]
    assert errors == ([] if command[0] == "validate" else [lines[-1]])
    assert all(line.startswith(f"{path}:") for line in lines if line not in errors)
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
    # forward_kinematics alone checks the count; --degrees must not drop extra values
    for argv, given in ((["--q", "0,0"], 2), (["--q", "0,0,0,0,0,0,0", "--degrees"], 7)):
        code, out, err = run(capsys, "fk", "builtin:wam", *argv)
        assert (code, out) == (4, "")
        assert err == f"error: model 'WAM' has 6 movable joints, got {given} values\n"


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


def test_digit_path_formats_the_cloud_and_declines_only_where_it_must():
    # the golden digests hold whichever path writes a block; this pins which one
    points = generate_cloud(builtin_fixture("wam"), SampleSpec(n=49159, seed=42)).points
    blocks = [points[start:start + _BLOCK] for start in range(0, len(points), _BLOCK)]
    assert all(cli._digit_text(block, ",") is not None for block in blocks)
    # rounds to 1000.000000000, overflows the scaling, is an exact tie, is not finite
    for value in (999.9999999995, 1e300, 2.0 ** -10, math.nan):
        block = blocks[-1].copy()
        block[3, 1] = value
        assert cli._digit_text(block, ",") is None, value


@pytest.mark.parametrize("fmt, sep, header_lines", [("csv", ",", 1), ("ply", " ", 8)])
def test_fallback_blocks_reach_the_file(tmp_path, capsys, fmt, sep, header_lines):
    # a 1500 m link puts values of 1000 or more in every block, so each one
    # is printed with % and encoded on its way to the file
    far = GOOD.replace("a=0", "a=1500")
    path = tmp_path / "far.robot"
    path.write_text(far)
    out_file = tmp_path / ("cloud." + fmt)
    n = _BLOCK + 3
    code, out, err = run(capsys, "workspace", str(path), "--samples", str(n), "--seed", "5",
                         "--out", str(out_file), "--format", fmt)
    assert (code, out, err) == (0, "", "")
    points = generate_cloud(parse_robot(far)[0], SampleSpec(n=n, seed=5)).points
    assert all(cli._digit_text(points[start:start + _BLOCK], sep) is None
               for start in range(0, n, _BLOCK))
    lines = out_file.read_bytes().decode("ascii").splitlines()[header_lines:]
    assert lines == [sep.join(["%.9f"] * 3) % tuple(p) for p in (points + 0.0).tolist()]


def test_ply_comment_holds_a_non_ascii_robot_name_as_utf8(tmp_path, capsys):
    path = tmp_path / "t.robot"
    path.write_text(GOOD.replace('"T"', '"Ärm-Ω"'), encoding="utf-8")
    out_file = tmp_path / "cloud.ply"
    code, _, _ = run(capsys, "workspace", str(path), "--samples", "3", "--seed", "1",
                     "--out", str(out_file), "--format", "ply")
    assert code == 0
    assert out_file.read_bytes().split(b"\n")[2] == b"comment robot=\xc3\x84rm-\xce\xa9 seed=1 n=3"


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


def test_missing_packaged_fixture_exits_5(tmp_path):
    # a copy of the package whose smokie fixture file is gone
    shutil.copytree(PACKAGE_PARENT / "dhworkspace", tmp_path / "dhworkspace",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "dhworkspace" / "fixtures" / "smokie.robot").unlink()
    child = subprocess.run([sys.executable, "-m", "dhworkspace.cli", "validate", "builtin:smokie"],
                           env={**os.environ, "PYTHONPATH": str(tmp_path)}, cwd=tmp_path,
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 5
    assert child.stderr.startswith("error: cannot read builtin:smokie: ")
    assert len(child.stderr.splitlines()) == 1


def test_unwritable_output_exits_5(tmp_path, capsys):
    code, _, err = run(capsys, "workspace", "builtin:wam", "--samples", "5",
                       "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 5
    assert "cannot write" in err
    # a directory is no regular file, so it is opened in place, which fails: no temp file is made
    target = tmp_path / "taken"
    target.mkdir()
    code, _, err = run(capsys, "workspace", "builtin:wam", "--samples", "5", "--out", str(target))
    assert code == 5
    assert len(err.splitlines()) == 1 and "cannot write" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert list(target.iterdir()) == []


def test_out_through_a_symlink_writes_its_target(tmp_path, capsys):
    argv = ["workspace", "builtin:wam", "--samples", "2", "--out"]
    direct = tmp_path / "direct.csv"
    assert run(capsys, *argv, str(direct)) == (0, "", "")
    (tmp_path / "links").mkdir()
    (tmp_path / "files").mkdir()
    (tmp_path / "files" / "old.csv").write_bytes(b"old\n")
    for name in ("old.csv", "new.csv"):  # an existing target and a dangling link
        link = tmp_path / "links" / name
        link.symlink_to(os.path.join("..", "files", name))
        assert run(capsys, *argv, str(link)) == (0, "", "")
        assert link.is_symlink() and os.readlink(link) == os.path.join("..", "files", name)
        assert (tmp_path / "files" / name).read_bytes() == direct.read_bytes()
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["direct.csv", "files", "links", "new.csv",
                                                           "new.csv", "old.csv", "old.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_out_to_a_fifo_writes_into_it(tmp_path, capsys):
    argv = ["workspace", "builtin:wam", "--samples", "2", "--out"]
    direct = tmp_path / "direct.csv"
    assert run(capsys, *argv, str(direct)) == (0, "", "")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    # a FIFO replaced by a regular file would leave this reader waiting: it is a daemon
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run(capsys, *argv, str(fifo)) == (0, "", "")
    reader.join(timeout=60)
    assert received == [direct.read_bytes()]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    # a reader that leaves at once makes the write fail: exit 5, one line
    reader = threading.Thread(target=lambda: open(fifo, "rb", buffering=0).close(), daemon=True)
    reader.start()
    code, _, err = run(capsys, "workspace", "builtin:wam", "--samples", "20000", "--out", str(fifo))
    reader.join(timeout=60)
    assert code == 5
    assert err.startswith(f"error: cannot write {fifo}: ") and len(err.splitlines()) == 1
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["direct.csv", "pipe"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_unwritable_stdout_exits_5(unbuffered):
    # a buffered stdout fails at the flush, an unbuffered one at the write:
    # either way one error line, and nothing from the interpreter's exit
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_PARENT), env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in (["volume", "builtin:wam", "--samples", "100"], ["fk", "builtin:wam", "--q", "0,0,0,0,0,0"]):
        with open("/dev/full", "w") as full:
            child = subprocess.run([sys.executable, "-m", "dhworkspace.cli", *argv], env=env,
                                   stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
        assert child.returncode == 5
        assert child.stderr.startswith("error: cannot write stdout")
        assert len(child.stderr.splitlines()) == 1


def test_closed_stdout_exits_5(capsys, monkeypatch):
    # Python sets sys.stdout to None when the process starts with fd 1 closed
    monkeypatch.setattr(sys, "stdout", None)
    for argv in (["volume", "builtin:wam", "--samples", "100"], ["fk", "builtin:wam", "--q", "0,0,0,0,0,0"]):
        assert main(argv) == 5
        assert capsys.readouterr().err == "error: cannot write stdout: it is closed\n"


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
    # the stream's state is 64 bits: a larger seed could only alias a smaller
    for seed in ("-1", str(2 ** 64)):
        code, out, err = run(capsys, "volume", "builtin:wam", "--seed", seed)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and "--seed" in err


@pytest.mark.parametrize("value, message", [
    ("1e-20", "too fine"),  # voxel indices beyond int64 packing
    ("1e300", "overflows"),  # resolution ** 3 overflows
    ("5.6e102", "not finite"),  # the cube fits, eight voxels of it do not
    ("inf", "finite number > 0"),
    ("nan", "finite number > 0"),
    # a value that is not a number says what the flag expects
    ("abc", "--voxel: expected a finite number > 0, got 'abc'"),
    ("--samples=1e3", "--samples: expected an integer >= 1, got '1e3'"),
    ("--seed=abc", "--seed: expected an integer in 0 .. 2**64 - 1, got 'abc'"),
])
def test_volume_rejects_unusable_voxel_sizes(capsys, value, message):
    option = value if value.startswith("--") else "--voxel=" + value
    code, out, err = run(capsys, "volume", "builtin:wam", "--samples", "100", option)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err
    # a bad value is named, by value or by its flag
    flag, _, value = option.partition("=")
    assert flag in err or str(float(value)) in err


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


# --- start-up -------------------------------------------------------------------

#: modules whose loading the start-up checks watch, beside the package's own
WATCHED = ("numpy", "dataclasses")


def _loaded_after(code, *args):
    """The WATCHED and dhworkspace.* modules a new interpreter has imported
    once it has run code."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE_PARENT),
                                                                     os.environ.get("PYTHONPATH")]))}
    report = f"print(*(m for m in sys.modules if m in {WATCHED!r} or m.startswith('dhworkspace.')))"
    child = subprocess.run([sys.executable, "-c", f"import sys; {code}; {report}", *args],
                           env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    return set(child.stdout.splitlines()[-1].split())


def test_the_cli_asks_openblas_for_one_thread_unless_told_otherwise():
    # the package makes no BLAS call, so an idle OpenBLAS thread would only
    # spin beside the sampler's; a user's value wins, and a process that
    # imported numpy before main keeps the setting it loaded numpy with
    code = ("import os, sys\n"
            "if sys.argv[1:]: import numpy\n"
            "from dhworkspace.cli import main\n"
            "assert main(['fk', 'builtin:wam', '--q', '0,0,0,0,0,0']) == 0\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n")
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_PARENT), env.get("PYTHONPATH")]))

    def seen(extra, *args):
        child = subprocess.run([sys.executable, "-c", code, *args], env={**env, **extra},
                               capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        return child.stdout.splitlines()[-1]

    assert seen({}) == "1"
    assert seen({"OPENBLAS_NUM_THREADS": "3"}) == "3"
    assert seen({}, "numpy first") == "None"


def test_parsing_and_validate_do_not_import_numpy(tmp_path):
    path = tmp_path / "wam.robot"
    path.write_text(dhworkspace.fixture_source("wam"), encoding="utf-8")
    parser = {"dhworkspace.kinematics", "dhworkspace.robotfile"}
    for code, modules in (
            ("import dhworkspace", set()),
            ("import dhworkspace; dhworkspace.builtin_fixture('wam')", parser),
            ("import dhworkspace, pathlib; "
             "assert dhworkspace.parse_robot(pathlib.Path(sys.argv[1]).read_text('utf-8'))[0]", parser),
            # cli loads workspace for the names perfbench/spans.py wraps on it
            ("from dhworkspace.cli import main; assert main(['validate', 'builtin:wam']) == 0",
             parser | {"dhworkspace.cli", "dhworkspace.rng", "dhworkspace.workspace"})):
        assert _loaded_after(code, str(path)) == modules, code
    # the check itself can see numpy and dataclasses come in
    assert "numpy" in _loaded_after("from dhworkspace.cli import main; assert main(['fk', 'builtin:wam', '--q', "
                                    "'0,0,0,0,0,0']) == 0")
    assert "dataclasses" in _loaded_after("import dataclasses")


def test_submodules_import_by_name_from_the_package():
    assert _loaded_after("from dhworkspace import cli, workspace; assert cli.main and workspace.voxelize") == {
        "dhworkspace.cli", "dhworkspace.kinematics", "dhworkspace.rng", "dhworkspace.robotfile",
        "dhworkspace.workspace"}
