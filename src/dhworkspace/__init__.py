"""Forward kinematics and Monte Carlo workspace mapping for serial arms
described by Denavit-Hartenberg parameters."""

from .kinematics import (
    PRISMATIC,
    REVOLUTE,
    DHRow,
    JointArityError,
    JointLimitError,
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
    WorkspaceSummary,
    generate_cloud,
    joint_samples,
    project,
    sample_config,
    summarize,
    voxelize,
)

__version__ = "0.1.0"

__all__ = [
    "PRISMATIC",
    "REVOLUTE",
    "DHRow",
    "Diagnostic",
    "JointArityError",
    "JointLimitError",
    "KinematicsError",
    "PointCloud",
    "RobotModel",
    "SampleSpec",
    "SplitMix64",
    "VoxelGrid",
    "WorkspaceSummary",
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
    "sample_config",
    "summarize",
    "voxelize",
]
