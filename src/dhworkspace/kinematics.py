"""Denavit-Hartenberg chains and their forward kinematics.

All lengths are meters, all angles radians. A chain is an ordered list of
links, each described by the four D-H parameters (a, alpha, d, theta); the
joint variable adds to theta for revolute joints and to d for prismatic ones.
Homogeneous transforms are plain 4x4 float64 numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REVOLUTE = "revolute"
PRISMATIC = "prismatic"

#: Valid joint kinds for DHRow.kind
JOINT_KINDS = (REVOLUTE, PRISMATIC)


class KinematicsError(ValueError):
    """A joint configuration cannot be evaluated against a model."""


class JointArityError(KinematicsError):
    """Configuration length does not match the model's movable joint count."""


class JointLimitError(KinematicsError):
    """A joint value lies outside its row's limits (values are never clamped)."""

    def __init__(self, index: int, value: float, bound: float, which: str):
        self.index = index
        self.value = value
        self.bound = bound
        self.which = which  # "min" or "max"
        super().__init__(
            f"joint {index}: value {value!r} violates {which} limit {bound!r}"
        )


@dataclass(frozen=True)
class DHRow:
    """One link of a D-H chain; its joint number is its place in the chain.

    a and d are meters, alpha and theta_offset radians. limits bound the
    joint variable (radians for revolute rows, meters for prismatic). A row
    with `fixed` set is not a degree of freedom: its joint variable is the
    constant `fixed` value.
    """

    kind: str
    a: float
    alpha: float
    d: float
    theta_offset: float = 0.0
    limits: tuple[float, float] = (-math.pi, math.pi)
    fixed: float | None = None

    def __post_init__(self):
        if self.kind not in JOINT_KINDS:
            raise ValueError(f"unknown joint kind {self.kind!r}")
        for name in ("a", "alpha", "d", "theta_offset"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        lo, hi = self.limits
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("limits must be finite")
        if lo > hi:
            raise ValueError(f"limits inverted: min {lo!r} > max {hi!r}")
        if self.fixed is not None and not lo <= self.fixed <= hi:
            raise ValueError(f"fixed value {self.fixed!r} outside limits ({lo!r}, {hi!r})")

    @property
    def movable(self) -> bool:
        return self.fixed is None


@dataclass(frozen=True)
class RobotModel:
    """An ordered D-H chain in meters/radians; row k (from 1) is joint k.

    Chains with zero degrees of freedom are constructible (useful for
    degenerate tests) but rejected by the parser, which demands at least
    one movable joint.
    """

    name: str
    rows: tuple[DHRow, ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("model needs at least one row")

    @property
    def movable_rows(self) -> tuple[DHRow, ...]:
        return tuple(row for row in self.rows if row.movable)

    @property
    def movable_count(self) -> int:
        return len(self.movable_rows)


def _resolve_config(model: RobotModel, config) -> np.ndarray:
    """Validate a movable-joint configuration and return it as float64."""
    q = np.asarray(config, dtype=np.float64).ravel()
    if q.size != model.movable_count:
        raise JointArityError(
            f"model {model.name!r} has {model.movable_count} movable joints, "
            f"got {q.size} values"
        )
    movable = [(joint, row) for joint, row in enumerate(model.rows, 1) if row.movable]
    for (joint, row), value in zip(movable, q.tolist()):
        if not math.isfinite(value):
            raise KinematicsError(f"joint {joint}: value must be finite, got {value!r}")
        lo, hi = row.limits
        if value < lo:
            raise JointLimitError(joint, value, lo, "min")
        if value > hi:
            raise JointLimitError(joint, value, hi, "max")
    return q


def forward_kinematics(model: RobotModel, config) -> np.ndarray:
    """Base-to-end-effector transform for one configuration.

    config holds one value per movable row, in row order; fixed rows use
    their stored constant. Values outside a row's limits raise
    JointLimitError rather than being clamped. This is the checked
    one-pose entry into fk_batch, so it gives the same bits as that pose's
    row of any batch.
    """
    return fk_batch(model, _resolve_config(model, config)[None])[0]


#: configurations per block in fk_batch; the working set of one block stays
#: in cache, and a fixed size keeps every row's result independent of n
_BLOCK = 16384


def fk_batch(model: RobotModel, configs: np.ndarray) -> np.ndarray:
    """Forward kinematics for a stack of configurations, shape (n, movable).

    Returns an (n, 4, 4) array. Values are NOT limit-checked: this is the
    hot path for workspace sampling, where configurations are within limits
    by construction; forward_kinematics is the checked entry for one pose.
    """
    Q = np.asarray(configs, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[1] != model.movable_count:
        raise JointArityError(
            f"expected shape (n, {model.movable_count}), got {Q.shape}"
        )
    T = np.zeros((Q.shape[0], 4, 4))
    T[:, 3, 3] = 1.0
    for start in range(0, Q.shape[0], _BLOCK):
        _fk_block(model.rows, Q[start:start + _BLOCK], T[start:start + _BLOCK])
    return T


def _fk_block(rows, Q: np.ndarray, out: np.ndarray) -> None:
    """Write the transforms of the configurations Q into out[:, :3, :].

    A row is Rz(theta) @ C with C = Tz(d) @ Tx(a) @ Rx(alpha), and only
    theta (revolute) or d (prismatic) varies with the configuration. So the
    running product is kept as its rotation columns c0, c1, c2 and its
    position p, each (3, b), and every row updates them elementwise.
    """
    b = Q.shape[0]
    c0, c1, c2 = np.zeros((3, 3, b))
    c0[0] = c1[1] = c2[2] = 1.0
    p = np.zeros((3, b))
    col = 0
    for row in rows:
        if row.fixed is None:
            q = Q[:, col]
            col += 1
        else:
            q = row.fixed
        if row.kind == REVOLUTE:
            theta, d = row.theta_offset + q, row.d
        else:
            theta, d = row.theta_offset, row.d + q
        ct, st = np.cos(theta), np.sin(theta)
        ca, sa = math.cos(row.alpha), math.sin(row.alpha)
        x = c0 * ct + c1 * st
        y = c1 * ct - c0 * st
        p += row.a * x + d * c2
        c0, c1, c2 = x, y * ca + c2 * sa, c2 * ca - y * sa
    columns = out.transpose(2, 1, 0)  # columns[c, r, k] == out[k, r, c]
    columns[0, :3], columns[1, :3], columns[2, :3], columns[3, :3] = c0, c1, c2, p


def reach_bound(model: RobotModel) -> float:
    """Triangle-inequality bound on end-effector distance from the base.

    Sum over rows of |a| plus the largest |d + q| the row can produce
    (|d| for revolute rows, worst-case extension for prismatic ones).
    """
    total = 0.0
    for row in model.rows:
        total += abs(row.a)
        if row.kind == REVOLUTE:
            total += abs(row.d)
        elif row.fixed is not None:
            total += abs(row.d + row.fixed)
        else:
            lo, hi = row.limits
            total += max(abs(row.d + lo), abs(row.d + hi))
    return total
