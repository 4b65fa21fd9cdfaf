"""Forward kinematics and Monte Carlo workspace mapping for serial arms
described by Denavit-Hartenberg parameters.

Importing the package and parsing a description load no numpy: each function
that computes with arrays imports it when called."""

from .kinematics import (
    PRISMATIC,
    REVOLUTE,
    DHRow,
    KinematicsError,
    RobotModel,
    fk_batch,
    forward_kinematics,
    reach_bound,
)
from .rng import SplitMix64, bulk_unit
from .robotfile import (
    Diagnostic,
    builtin_fixture,
    fixture_names,
    fixture_source,
    parse_robot,
)
from .workspace import (
    PointCloud,
    SampleSpec,
    VoxelGrid,
    generate_cloud,
    joint_samples,
    project,
    summarize,
    voxelize,
)

#: the one place the version is set; pyproject.toml reads it from here
__version__ = "0.1.0"

__all__ = [
    "PRISMATIC",
    "REVOLUTE",
    "DHRow",
    "Diagnostic",
    "KinematicsError",
    "PointCloud",
    "RobotModel",
    "SampleSpec",
    "SplitMix64",
    "VoxelGrid",
    "builtin_fixture",
    "bulk_unit",
    "fixture_names",
    "fixture_source",
    "fk_batch",
    "forward_kinematics",
    "generate_cloud",
    "joint_samples",
    "parse_robot",
    "project",
    "reach_bound",
    "summarize",
    "voxelize",
]
