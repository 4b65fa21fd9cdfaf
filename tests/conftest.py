"""Fixtures shared by the test files."""

import os
import sys
from pathlib import Path

import pytest

import dhworkspace

#: the directory the package under test was imported from: the checkout's
#: src/ or an installed site-packages
PACKAGE_PARENT = str(Path(dhworkspace.__file__).resolve().parent.parent)


@pytest.fixture
def child_env():
    """A function that gives the environment for a child interpreter that
    imports this package and what this process imports, with or without
    site: the package's parent, then this process's import directories, on
    PYTHONPATH. Keyword arguments set variables; None removes one."""
    def env(**changes):
        pythonpath = os.pathsep.join([PACKAGE_PARENT, *filter(None, sys.path)])
        merged = {**os.environ, "PYTHONPATH": pythonpath, **changes}
        return {key: value for key, value in merged.items() if value is not None}
    return env
