"""Forward kinematics and Monte Carlo workspace mapping for serial arms
described by Denavit-Hartenberg parameters.

Importing the package loads none of its modules: a public name loads the one
that defines it on first use. Parsing a description loads no numpy: each
function that computes with arrays imports it when called."""

import importlib

#: the one place the version is set; pyproject.toml reads it from here
__version__ = "0.1.0"

#: the module that defines each public name
_HOMES = {
    "kinematics": ("PRISMATIC", "REVOLUTE", "DHRow", "KinematicsError", "RobotModel", "fk_batch",
                   "forward_kinematics", "reach_bound"),
    "rng": ("SplitMix64", "bulk_unit"),
    "robotfile": ("Diagnostic", "builtin_fixture", "fixture_names", "fixture_source", "parse_robot"),
    "workspace": ("PointCloud", "SampleSpec", "VoxelGrid", "generate_cloud", "joint_samples", "project",
                  "summarize", "voxelize"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
