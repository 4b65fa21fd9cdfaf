"""What each step loads, checked in a bare interpreter.

Importing the package loads none of its modules; parsing a description
loads `robotfile` and `kinematics`; `validate` loads every module. None of
these loads numpy, `dataclasses` or `importlib.resources`. Each check runs
in a child started as `python -S`: without site no `.pth` file runs, so no
host loads a module before the child's code does. The child finds the
package only through `dhworkspace.__file__`, so this file checks a
checkout (`PYTHONPATH=src`) and an installed package alike.
"""

import subprocess
import sys

import pytest

import dhworkspace

#: modules whose loading the checks watch, beside the package's own
WATCHED = ("numpy", "dataclasses", "importlib.resources")


@pytest.fixture
def loaded_after(child_env):
    """A function that runs code, with args as sys.argv[1:], in a bare
    interpreter and gives the WATCHED and dhworkspace.* modules it then holds."""
    report = f"print(*(m for m in sys.modules if m in {WATCHED!r} or m.startswith('dhworkspace.')))"

    def loaded(code, *args):
        child = subprocess.run([sys.executable, "-S", "-c", f"import sys; {code}; {report}", *args],
                               env=child_env(), capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        return set(child.stdout.splitlines()[-1].split())
    return loaded


def test_the_check_sees_each_watched_module_come_in(loaded_after):
    # the child starts with none of them, imports the package this process
    # tests, and holds a module once it is imported, numpy once fk runs
    assert loaded_after("import os, dhworkspace; assert os.path.samefile(dhworkspace.__file__, sys.argv[1])",
                        dhworkspace.__file__) == set()
    for module in WATCHED:
        assert module in loaded_after(f"import {module}"), module
    assert "numpy" in loaded_after("from dhworkspace.cli import main; assert main(['fk', 'builtin:wam', '--q', "
                                   "'0,0,0,0,0,0']) == 0")


def test_parsing_and_validate_do_not_import_numpy(loaded_after, tmp_path):
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
        assert loaded_after(code, str(path)) == modules, code


def test_submodules_import_by_name_from_the_package(loaded_after):
    assert loaded_after("from dhworkspace import cli, workspace; assert cli.main and workspace.voxelize") == {
        "dhworkspace.cli", "dhworkspace.kinematics", "dhworkspace.rng", "dhworkspace.robotfile",
        "dhworkspace.workspace"}


def test_the_cli_asks_openblas_for_one_thread_unless_told_otherwise(child_env):
    # the package makes no BLAS call, so an idle OpenBLAS thread would only
    # spin beside the sampler's; a user's value wins, and a process that
    # imported numpy before main keeps the setting it loaded numpy with
    code = ("import os, sys\n"
            "if sys.argv[1:]: import numpy\n"
            "from dhworkspace.cli import main\n"
            "assert main(['fk', 'builtin:wam', '--q', '0,0,0,0,0,0']) == 0\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n")

    def seen(value, *args):
        child = subprocess.run([sys.executable, "-c", code, *args], env=child_env(OPENBLAS_NUM_THREADS=value),
                               capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        return child.stdout.splitlines()[-1]

    assert seen(None) == "1"
    assert seen("3") == "3"
    assert seen(None, "numpy first") == "None"
